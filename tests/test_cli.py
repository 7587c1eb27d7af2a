from __future__ import annotations

import errno
import io
import json

import pytest

from idemforge import cli, fields
from idemforge.cli import (
    build_document,
    build_parser,
    main,
    parse_document,
    records_from_document,
    render_document,
    render_poly,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_poly_descending():
    assert render_poly([7, 0, 0, 14]) == "14*x^3 + 7"
    assert render_poly([0, 1]) == "x"
    assert render_poly([0]) == "0"


def test_gen_json_golden(capsys):
    code, out, _ = run_cli(capsys, "gen", "--q", "17", "--p", "13", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "idemforge/1"
    assert (doc["q"], doc["p"], doc["k"], doc["n"], doc["t"], doc["m"]) == (17, 13, 2, 169, 6, 1)
    assert len(doc["idempotents"]) == 5
    e0 = next(e for e in doc["idempotents"] if e["label"] == "e_0")
    assert e0["coeffs"] == [16] * 169
    e21 = next(e for e in doc["idempotents"] if e["label"] == "e_{s,l}:2,1")
    assert e21["params"] == {"s": 2, "l": 1}
    assert set(e21["coeffs"]) == {0, 7, 14, 16}


def test_gen_trivial_ring_text(capsys):
    code, out, _ = run_cli(capsys, "gen", "--q", "5", "--p", "3", "--k", "0")
    assert code == 0
    assert "e_0 = 1" in out


def test_gen_euclid_matches_auto(capsys):
    code, out_euclid, _ = run_cli(
        capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--method", "euclid", "--format", "json"
    )
    assert code == 0
    code, out_auto, _ = run_cli(
        capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json"
    )
    assert code == 0
    euclid_set = {tuple(e["coeffs"]) for e in json.loads(out_euclid)["idempotents"]}
    auto_set = {tuple(e["coeffs"]) for e in json.loads(out_auto)["idempotents"]}
    assert euclid_set == auto_set


def test_gen_invalid_instance_exits_1(capsys):
    code, _, err = run_cli(capsys, "gen", "--q", "7", "--p", "7", "--k", "1")
    assert code == 1
    assert "error" in err


def test_gen_unsupported_p2_regime_exits_1(capsys):
    code, _, err = run_cli(capsys, "gen", "--q", "3", "--p", "2", "--k", "2")
    assert code == 1
    assert "q = 1 (mod 4)" in err


def test_bad_flags_exit_1(capsys):
    code, _, _ = run_cli(capsys, "gen", "--q", "17")
    assert code == 1


def test_json_roundtrip_is_byte_stable(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json")
    code2, out2, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json")
    assert code == code2 == 0
    assert out1 == out2
    doc = parse_document(out1)
    assert render_document(doc) == out1
    assert parse_document(render_document(doc)) == doc


def test_document_puts_each_record_on_one_line(capsys):
    code, out, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json")
    assert code == 0
    assert out == "\n".join(
        [
            "{",
            '  "schema": "idemforge/1",',
            '  "q": 7,',
            '  "p": 3,',
            '  "k": 2,',
            '  "n": 9,',
            '  "t": 1,',
            '  "m": 1,',
            '  "method": "split-case",',
            '  "idempotents": [',
            '    {"label": "e_0", "kind": "unit-sum", "params": null, '
            '"coeffs": [4, 4, 4, 4, 4, 4, 4, 4, 4]},',
            '    {"label": "e_j:1", "kind": "second-type", "params": {"j": 1}, '
            '"coeffs": [4, 2, 1, 4, 2, 1, 4, 2, 1]},',
            '    {"label": "e_j:2", "kind": "second-type", "params": {"j": 2}, '
            '"coeffs": [4, 1, 2, 4, 1, 2, 4, 1, 2]},',
            '    {"label": "e_{s,l}:2,1", "kind": "third-type", "params": {"s": 2, "l": 1}, '
            '"coeffs": [5, 0, 0, 6, 0, 0, 3, 0, 0]},',
            '    {"label": "e_{s,l}:2,2", "kind": "third-type", "params": {"s": 2, "l": 2}, '
            '"coeffs": [5, 0, 0, 3, 0, 0, 6, 0, 0]}',
            "  ]",
            "}",
            "",
        ]
    )
    assert render_document(parse_document(out)) == out


@pytest.mark.parametrize(
    "dump",
    [lambda doc: json.dumps(doc, indent=2), lambda doc: json.dumps(doc, separators=(",", ":"))],
)
def test_verify_reads_other_layouts_of_the_document(capsys, tmp_path, dump):
    # the earlier indent=2 layout and a fully compact one carry the same value
    code, out, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json")
    assert code == 0
    doc = parse_document(out)
    path = tmp_path / "doc.json"
    path.write_text(dump(doc), encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", "--in", str(path), "--against", "euclid")
    assert code == 0
    doc["idempotents"][1]["coeffs"][0] = (doc["idempotents"][1]["coeffs"][0] + 1) % 7
    path.write_text(dump(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--in", str(path), "--against", "euclid")
    assert code == 2 and "overall: FAIL" in out


def test_verify_generated_system_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--q", "17", "--p", "13", "--k", "2", "--against", "euclid"
    )
    assert code == 0
    assert "overall: pass" in out


def test_verify_trivial_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "5", "--p", "3", "--k", "0")
    assert code == 0


def test_verify_perturbed_document_exits_2(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json"
    )
    doc = json.loads(out)
    doc["idempotents"][1]["coeffs"][2] ^= 1
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, "verify", "--in", "-")
    assert code == 2
    assert "idempotency" in out and "FAIL" in out


def test_verify_document_from_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "gen", "--q", "7", "--p", "3", "--k", "1", "--format", "json"
    )
    path = tmp_path / "doc.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--in", str(path), "--against", "euclid")
    assert code == 0


def test_verify_rejects_garbage_input(capsys, monkeypatch):
    # also an int past Python's digit limit and nesting past the recursion limit
    for text in ("not json", '{"q": 1' + "0" * 5000 + "}", "[" * 100000):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "verify", "--in", "-")
        assert code == 1
        assert err.startswith("error: input is not valid JSON")


def test_verify_q_equals_p_exits_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "--q", "7", "--p", "7", "--k", "1")
    assert code == 1


def test_factors_text_output(capsys):
    code, out, _ = run_cli(capsys, "factors", "--q", "2", "--p", "7", "--k", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert lines[0] == "d=1 deg=1: x + 1"


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "17", "--p", "13", "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "t=6 m=1 count=5"
    assert "d=169: factors=2 degree=78" in out


def test_code_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "code", "--q", "2", "--p", "7", "--k", "1",
        "--label", "e_j:1", "--min-distance",
    )
    assert code == 0
    assert "[7,3,4]" in out


# stdout of `code --min-distance` on the eight `codes` benchmark jobs and on
# [113,28,28], whose orbit walk covers about 2.4M cosets in blocks
@pytest.mark.parametrize(
    "q,p,k,label,expected",
    [
        pytest.param(2, 7, 1, 'e_j:1',
                     'e_j:1: [7,3,4] g = x^4 + x^2 + x + 1\n', id="7,3,4"),
        pytest.param(2, 11, 1, 'e_j:1',
                     'e_j:1: [11,10,2] g = x + 1\n', id="11,10,2"),
        pytest.param(2, 23, 1, 'e_j:1',
                     'e_j:1: [23,11,8] g = x^12 + x^10 + x^7 + x^4 + x^3 + x^2 + x + 1\n', id="23,11,8"),
        pytest.param(2, 13, 2, 'e_j:1',
                     'e_j:1: [169,12,26] g = x^157 + x^156 + x^144 + x^143 + x^131 + x^130 + x^118 + x^117 + x^105 + x^104 + x^92 + x^91 + x^79 + x^78 + x^66 + x^65 + x^53 + x^52 + x^40 + x^39 + x^27 + x^26 + x^14 + x^13 + x + 1\n', id="169,12,26"),
        pytest.param(2, 3, 3, 'e_{s,l}:3,1',
                     'e_{s,l}:3,1: [27,18,2] g = x^9 + 1\n', id="27,18,2"),
        pytest.param(2, 5, 2, 'e_{s,l}:2,1',
                     'e_{s,l}:2,1: [25,20,2] g = x^5 + 1\n', id="25,20,2"),
        pytest.param(2, 41, 1, 'e_j:1',
                     'e_j:1: [41,20,10] g = x^21 + x^20 + x^19 + x^14 + x^12 + x^9 + x^7 + x^2 + x + 1\n', id="41,20,10"),
        pytest.param(2, 7, 2, 'e_{s,l}:2,1',
                     'e_{s,l}:2,1: [49,21,4] g = x^28 + x^14 + x^7 + 1\n', id="49,21,4"),
        pytest.param(2, 113, 1, 'e_j:1',
                     'e_j:1: [113,28,28] g = x^85 + x^83 + x^81 + x^76 + x^75 + x^73 + x^72 + x^71 + x^69 + x^68 + x^66 + x^65 + x^62 + x^61 + x^59 + x^56 + x^55 + x^53 + x^52 + x^51 + x^50 + x^49 + x^46 + x^45 + x^44 + x^41 + x^40 + x^39 + x^36 + x^35 + x^34 + x^33 + x^32 + x^30 + x^29 + x^26 + x^24 + x^23 + x^20 + x^19 + x^17 + x^16 + x^14 + x^13 + x^12 + x^10 + x^9 + x^4 + x^2 + 1\n', id="113,28,28"),
    ],
)
def test_code_min_distance_output_is_pinned(capsys, q, p, k, label, expected):
    code, out, err = run_cli(
        capsys, "code", "--q", str(q), "--p", str(p), "--k", str(k), "--label", label,
        "--min-distance",
    )
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "q,p,k,label,count",
    [
        ("2", "13", "2", "e_{s,l}:2,1", "(2^156 - 1)/169"),
        ("3", "5", "2", "e_{s,l}:2,1", "(3^20 - 1)/50"),
        ("101", "3", "8", "e_{s,l}:8,1", "(101^4374 - 1)/656100"),
        ("2", "3", "8", "e_{s,l}:8,1", "(2^4374 - 1)/6561"),
    ],
)
def test_code_over_budget_exits_1(capsys, q, p, k, label, count):
    # 101^4374 has more decimal digits than int() will print
    code, out, err = run_cli(
        capsys, "code", "--q", q, "--p", p, "--k", k, "--label", label, "--min-distance"
    )
    assert code == 1
    assert out == ""
    assert err == (
        f"error: the minimum distance needs at least {count} orbits or codewords, "
        "over the budget 16777216\n"
    )


def test_code_unknown_label(capsys):
    code, _, err = run_cli(
        capsys, "code", "--q", "2", "--p", "7", "--k", "1", "--label", "nope"
    )
    assert code == 1
    assert "known labels" in err


def test_env_override_max_n(capsys, monkeypatch):
    monkeypatch.setenv("IDEMFORGE_MAX_N", "5")
    code, _, err = run_cli(capsys, "gen", "--q", "2", "--p", "7", "--k", "1")
    assert code == 1
    assert "exceeds the cap 5" in err
    # explicit flag still wins over the environment
    code, out, _ = run_cli(capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--max-n", "10")
    assert code == 0


def test_env_max_n_not_an_integer_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("IDEMFORGE_MAX_N", "abc")
    code, out, err = run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "1")
    assert code == 1
    assert out == ""
    assert err == "error: environment variable IDEMFORGE_MAX_N must be an integer\n"


def _parse(capsys, parser, argv):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize(
    "tail",
    [[], ["--help"], ["--bogus"], ["--format", "xml"], ["--q", "2", "--p", "3", "--k", "1"],
     ["--q", "2", "--p", "3", "--k", "1", "--label", "e_0", "extra"]],
)
@pytest.mark.parametrize("command", ["gen", "verify", "factors", "params", "code"])
def test_command_parser_answers_as_the_full_parser(capsys, command, tail):
    # main builds only the subparser that argv[0] names: its arguments, help,
    # usage and errors (the top-level usage included) are the full parser's
    argv = [command, *tail]
    assert _parse(capsys, build_parser(command), argv) == _parse(capsys, build_parser(), argv)


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    built = []
    for name, (text, add_args) in list(cli._COMMANDS.items()):
        def recorded(sp, name=name, add_args=add_args):
            built.append(name)
            add_args(sp)

        monkeypatch.setitem(cli._COMMANDS, name, (text, recorded))
    assert run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "1")[0] == 0
    assert built == ["params"]
    for argv in (["--help"], [], ["nope"]):  # not a command: the full parser
        built.clear()
        run_cli(capsys, *argv)
        assert built == list(cli._COMMANDS)


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["verify"],
        ["factors"],
        ["params"],
        ["code", "--label", "e_0"],
        ["--help"],
    ],
)
def test_failed_stdout_write_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdout", _FullStdout())
    code = main(argv[:1] + ["--q", "2", "--p", "3", "--k", "1"] + argv[1:])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write output: No space left on device\n"


def test_env_override_max_splitting_degree(capsys, monkeypatch):
    # the splitting-degree cap is gone and its environment variable is ignored
    monkeypatch.setenv("IDEMFORGE_MAX_SPLITTING_DEGREE", "2")
    code, out, _ = run_cli(capsys, "factors", "--q", "2", "--p", "7", "--k", "1")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_gen_text_matches_fixture_coefficients(capsys):
    code, out, _ = run_cli(capsys, "gen", "--q", "17", "--p", "13", "--k", "2")
    assert code == 0
    third_lines = [l for l in out.splitlines() if l.startswith("e_{s,l}")]
    assert len(third_lines) == 2
    combined = " ".join(third_lines)
    for term in ("x^156", "x^143", "x^13", "+ 7"):
        assert term in combined
    assert any(l.endswith("+ 7") for l in third_lines)


def test_gen_embeds_optional_report_and_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen", "--q", "2", "--p", "7", "--k", "1",
        "--format", "json", "--verify", "--codes",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    assert {c["name"] for c in doc["verification"]["checks"]} >= {"idempotency", "primitivity"}
    assert sorted(c["dimension"] for c in doc["codes"]) == [1, 3, 3]


def test_factors_splitting_cap_exits_1(capsys):
    # there is no splitting-degree cap, so its flag is an unknown argument
    code, _, err = run_cli(
        capsys,
        "factors", "--q", "2", "--p", "3", "--k", "5", "--max-splitting-degree", "100",
    )
    assert code == 1
    assert "unrecognized arguments: --max-splitting-degree" in err
    # and (2, 3, 7), with splitting degree 1458, factors: one line per level
    code, out, _ = run_cli(capsys, "factors", "--q", "2", "--p", "3", "--k", "7")
    assert code == 0
    assert len(out.splitlines()) == 8


def test_verify_beyond_former_splitting_cap(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--q", "2", "--p", "3", "--k", "7", "--against", "euclid"
    )
    assert code == 0
    assert "overall: pass" in out
    # splitting degrees 1458 and 729; one line per q-cyclotomic coset
    for q, cosets in (("5", 8), ("13", 15)):
        code, out, _ = run_cli(capsys, "factors", "--q", q, "--p", "3", "--k", "7")
        assert code == 0, q
        assert len(out.splitlines()) == cosets


def test_verify_rejects_q_beyond_int64_bound(capsys):
    code, _, err = run_cli(capsys, "verify", "--q", "2147483647", "--p", "3", "--k", "2")
    assert code == 1
    assert "length*(q-1)^2 < 2^63" in err


def test_code_rejects_q_beyond_int64_bound(capsys):
    # (q-1)^2 >= 2^63: polynomial division would wrap around in int64
    code, _, err = run_cli(
        capsys, "code", "--q", "4294967311", "--p", "3", "--k", "1", "--label", "e_j:1"
    )
    assert code == 1
    assert "length*(q-1)^2 < 2^63" in err


def test_factors_rejects_q_beyond_int64_range(capsys):
    code, _, err = run_cli(capsys, "factors", "--q", "1180591620717411303529", "--p", "3", "--k", "1")
    assert code == 1
    assert "length*(q-1)^2 < 2^63" in err


def test_verify_large_q_within_int64_bound(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--q", "1000003", "--p", "3", "--k", "2", "--against", "euclid"
    )
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("q", ["54794149", "536870743", "536870717"])
def test_verify_on_both_sides_of_the_float64_product_bound(capsys, q):
    # n = 3: 3*(q-1)^2 < 2^53 for the first q, so products run in float64;
    # the other two need the limb split (t = 1 and t = 2)
    code, out, _ = run_cli(capsys, "verify", "--q", q, "--p", "3", "--k", "1", "--against", "euclid")
    assert code == 0
    assert "overall: pass" in out
    # the orbit walk of the repetition code runs its products on the same paths
    code, out, _ = run_cli(
        capsys, "code", "--q", q, "--p", "3", "--k", "1", "--label", "e_0", "--min-distance"
    )
    assert code == 0
    assert out.startswith("e_0: [3,1,3] ")


def test_large_q_extension_field_runs_to_the_float64_bound(capsys):
    # q > 2^20 with t = 2: F_{q^2} arithmetic is exact in int64 while
    # 2*(q-1)^2 < 2^63, i.e. q < 2^31
    for q, k in (("1048583", "1"), ("1048583", "2"), ("1000000007", "2")):
        code, out, _ = run_cli(capsys, "gen", "--q", q, "--p", "3", "--k", k, "--verify")
        assert code == 0, (q, k)
        assert "overall: pass" in out
        code, out, _ = run_cli(
            capsys, "verify", "--q", q, "--p", "3", "--k", k, "--against", "euclid"
        )
        assert code == 0, (q, k)
        assert "overall: pass" in out
    code, _, err = run_cli(capsys, "gen", "--q", "2147483693", "--p", "3", "--k", "1")
    assert code == 1
    assert "length*(q-1)^2 < 2^63" in err


@pytest.mark.parametrize("p", ["5", "7"])  # t = 4 and t = 3, no irreducible binomial
def test_large_q_finds_extension_modulus_past_the_binomials(capsys, p):
    code, out, _ = run_cli(capsys, "gen", "--q", "1048583", "--p", p, "--k", "1", "--verify")
    assert code == 0
    assert "overall: pass" in out


def test_invariant_violation_exits_3(capsys, monkeypatch):
    from idemforge import InvariantViolation

    def broken(instance):
        raise InvariantViolation("factor product does not reconstruct x^n - 1")

    monkeypatch.setattr("idemforge.cli.factor_xn_minus_1", broken)
    code, _, err = run_cli(capsys, "factors", "--q", "2", "--p", "7", "--k", "1")
    assert code == 3
    assert err.startswith("internal invariant violated")


def test_gen_exits_3_when_the_closed_form_root_has_the_wrong_order(capsys, monkeypatch):
    generator = fields.primitive_element
    monkeypatch.setattr(fields, "primitive_element", lambda field, skip=0: generator(field, skip) ** 5)
    code = main(["gen", "--q", "7", "--p", "5", "--k", "2", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "not primitive" in err


def test_huge_k_is_rejected_without_building_p_to_the_k(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "10000")
    assert code == 1
    assert err == "error: n = 3^10000 exceeds the cap 10000\n"
    _, out, _ = run_cli(capsys, "gen", "--q", "2", "--p", "3", "--k", "1", "--format", "json")
    doc = json.loads(out)
    doc["k"] = 10000
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, _, err = run_cli(capsys, "verify", "--in", "-")
    assert code == 1
    assert "exceeds the cap" in err


@pytest.mark.parametrize("value", [7.9, "7"], ids=["float", "string"])
def test_verify_rejects_non_integer_instance_fields(capsys, monkeypatch, value):
    _, out, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "1", "--format", "json")
    doc = json.loads(out)
    doc["q"] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "verify", "--in", "-")
    assert code == 1 and out == ""
    assert "'q', 'p' and 'k' must be integers" in err


def _float_coeffs(entry):
    entry["coeffs"] = [float(c) for c in entry["coeffs"]]
    return entry


def _set_first_coeff(value):
    def mutate(entry):
        entry["coeffs"][0] = value
        return entry

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_float_coeffs, "coefficients must be integers"),
        (_set_first_coeff(True), "coefficients must be integers"),
        (_set_first_coeff(1.0), "coefficients must be integers"),
        (_set_first_coeff("1"), "coefficients must be integers"),
        (lambda entry: entry["coeffs"], "must be a JSON object"),
    ],
    ids=[
        "float-coefficients",
        "bool-coefficient",
        "float-coefficient",
        "string-coefficient",
        "non-object-entry",
    ],
)
def test_verify_rejects_malformed_entry(capsys, monkeypatch, mutate, message):
    _, out, _ = run_cli(capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json")
    doc = json.loads(out)
    doc["idempotents"][0] = mutate(doc["idempotents"][0])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, _, err = run_cli(capsys, "verify", "--in", "-")
    assert code == 1
    assert message in err


@pytest.mark.parametrize("shift", [-1, 1 << 70], ids=["negative", "big-int"])
def test_verify_reduces_integer_coefficients_outside_the_field(capsys, monkeypatch, shift):
    # an int coefficient below 0 or past q is read as its residue mod q
    _, out, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json")
    doc = json.loads(out)
    for entry in doc["idempotents"]:
        entry["coeffs"] = [c + 7 * shift for c in entry["coeffs"]]
    _, records = records_from_document(doc)
    _, reduced = records_from_document(json.loads(out))
    assert [r.value for r in records] == [r.value for r in reduced]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, _, _ = run_cli(capsys, "verify", "--in", "-")
    assert code == 0


def test_verify_rejects_a_coefficient_past_the_digit_limit(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json")
    text = json.dumps(json.loads(out)).replace('"coeffs": [', '"coeffs": [' + "9" * 5000, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, err = run_cli(capsys, "verify", "--in", "-")
    assert code == 1
    assert err.startswith("error: input is not valid JSON")


def test_gen_out_into_missing_directory_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(
        capsys, "gen", "--q", "7", "--p", "3", "--k", "1", "--format", "json", "--out", str(target)
    )
    assert code == 1
    assert err.startswith("error: cannot write")


def test_verify_missing_input_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error: cannot read")


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "gen", "--q", "7", "--p", "3", "--k", "1", "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    doc = parse_document(target.read_text(encoding="utf-8"))
    instance, records = records_from_document(doc)
    assert instance.n == 3 and len(records) == 3


def test_document_reloading_preserves_records(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--q", "7", "--p", "3", "--k", "2", "--format", "json"
    )
    doc = parse_document(out)
    instance, records = records_from_document(doc)
    rebuilt = build_document(instance, records)
    assert rebuilt == doc
