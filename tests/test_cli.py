from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import ref_element_pow

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


def test_gen_serves_p2_with_q_3_mod_4(capsys):
    # the closed form serves every k: in F_3 up to k = 2, in the root field
    # F_9 from k = 3 on
    for k in ("1", "2", "3"):
        code, out, err = run_cli(capsys, "gen", "--q", "3", "--p", "2", "--k", k, "--verify")
        assert (code, err) == (0, "") and out.endswith("overall: pass\n"), k
    assert "method=general-case" in out.splitlines()[0]


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
            '"coeffs": [4, 1, 2, 4, 1, 2, 4, 1, 2]},',
            '    {"label": "e_j:2", "kind": "second-type", "params": {"j": 2}, '
            '"coeffs": [4, 2, 1, 4, 2, 1, 4, 2, 1]},',
            '    {"label": "e_{s,l}:2,1", "kind": "third-type", "params": {"s": 2, "l": 1}, '
            '"coeffs": [5, 0, 0, 3, 0, 0, 6, 0, 0]},',
            '    {"label": "e_{s,l}:2,2", "kind": "third-type", "params": {"s": 2, "l": 2}, '
            '"coeffs": [5, 0, 0, 6, 0, 0, 3, 0, 0]}',
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


@pytest.mark.parametrize(
    "flags,named",
    [(["--q", "5"], "--q"), (["--p", "11"], "--p"), (["--k", "2"], "--k"), (["--method", "auto"], "--method"),
     (["--q", "5", "--p", "11", "--k", "2", "--method", "euclid"], "--q")],
)
def test_verify_refuses_instance_flags_with_a_document(capsys, tmp_path, flags, named):
    # the document gives the instance and its records: a flag that names
    # another instance or route exits 1 and is named, and is not ignored
    code, out, _ = run_cli(capsys, "gen", "--q", "7", "--p", "3", "--k", "1", "--format", "json")
    path = tmp_path / "doc.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--in", str(path), *flags, "--against", "euclid")
    assert (code, out) == (1, "")
    assert err == f"error: {named} cannot be used with --in\n"
    assert run_cli(capsys, "verify", "--in", str(path), "--against", "euclid", "--format", "json")[0] == 0
    # an empty --in still names a document, so the flags are refused with it too
    assert run_cli(capsys, "verify", "--in", "", *flags)[2] == f"error: {named} cannot be used with --in\n"


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
                     'e_j:1: [113,28,28] g = x^85 + x^80 + x^79 + x^77 + x^75 + x^74 + x^72 + x^71 + x^69 + x^65 + x^62 + x^61 + x^60 + x^55 + x^54 + x^52 + x^51 + x^50 + x^47 + x^38 + x^35 + x^34 + x^33 + x^31 + x^30 + x^25 + x^24 + x^23 + x^20 + x^16 + x^14 + x^13 + x^11 + x^10 + x^8 + x^6 + x^5 + 1\n', id="113,28,28"),
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
    # `count` is the least number of cosets of <x, F_q^*>; an orbit holds at
    # most dim of them.  101^4374 has more decimal digits than int() will
    # print.  (3^20 - 1)/50/20 is under the default budget, so a lower one
    # is set.
    dim = count.split("^")[1].split(" ")[0]
    code, out, err = run_cli(
        capsys, "code", "--q", q, "--p", p, "--k", k, "--label", label, "--min-distance",
        "--budget", "1000000",
    )
    assert code == 1
    assert out == ""
    assert err == (
        f"error: the minimum distance needs at least {count}/{dim} orbits or codewords, "
        "over the budget 1000000\n"
    )


def test_code_refuses_a_negative_budget(capsys):
    # bad input, named by its flag, with or without --min-distance and
    # before the instance is read; a budget of 0 is still a budget that the
    # walk exceeds
    code_args = ("code", "--q", "2", "--p", "7", "--k", "1", "--label", "e_0")
    for extra in (("--min-distance",), ()):
        code, out, err = run_cli(capsys, *code_args, *extra, "--budget", "-1")
        assert (code, out, err) == (1, "", "error: --budget must be >= 0, got -1\n")
    bad_q = ("code", "--q", "4", "--p", "7", "--k", "1", "--label", "e_0")
    code, out, err = run_cli(capsys, *bad_q, "--budget", "-5")
    assert (code, out, err) == (1, "", "error: --budget must be >= 0, got -5\n")
    code, out, err = run_cli(capsys, *code_args, "--min-distance", "--budget", "0")
    assert code == 1 and out == ""
    assert err == (
        "error: walking the 1 Frobenius orbits of the (2^1 - 1)/1 cosets of <x, F_q^*> "
        "exceeds the budget 0\n"
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


def test_max_n_below_1_is_refused_with_its_source(capsys, monkeypatch):
    # a cap below 1 admits no instance, not even n = 1, so it is bad input
    # named as such, not an instance over the cap; 1 still admits k = 0
    for command in (["gen"], ["params"], ["factors"], ["code", "--label", "e_0"], ["verify"]):
        for value in ("-5", "0"):
            code, out, err = run_cli(capsys, *command, "--q", "2", "--p", "3", "--k", "1", "--max-n", value)
            assert (code, out, err) == (1, "", f"error: --max-n must be >= 1, got {value}\n"), command
    code, _, err = run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "1", "--max-n", "1")
    assert (code, err) == (1, "error: n = 3^1 exceeds the cap 1\n")
    code, _, _ = run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "0", "--max-n", "1")
    assert code == 0
    monkeypatch.setenv("IDEMFORGE_MAX_N", "0")
    for extra in ([], ["--max-n", "10"]):  # checked as the parser is built, as a non-integer is
        code, out, err = run_cli(capsys, "params", "--q", "2", "--p", "3", "--k", "1", *extra)
        assert (code, out, err) == (1, "", "error: environment variable IDEMFORGE_MAX_N must be >= 1, got 0\n")


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


def test_one_unit_orbit_is_served_past_the_order_budget(capsys):
    # t = p - 1 with m' = 1 builds no F_{q^t}, so the 96-bit budget on
    # q^t - 1 leaves it out; two unit orbits (t = (p - 1)/2) still meet it
    for p in ("163", "491"):
        code, out, err = run_cli(capsys, "gen", "--q", "2", "--p", p, "--k", "1", "--verify")
        assert (code, err) == (0, "") and out.endswith("overall: pass\n"), p
        code, out, err = run_cli(capsys, "verify", "--q", "2", "--p", p, "--k", "1", "--against", "euclid")
        assert (code, err) == (0, "") and "overall: pass" in out, p
    for q, p, bits in (("2", "983", 491), ("3", "131", 104)):
        code, _, err = run_cli(capsys, "gen", "--q", q, "--p", p, "--k", "1")
        assert (code, err) == (1, f"error: q^t - 1 needs {bits} bits; budget is 96\n")
    # the int64 rule of F_{q^t} still bounds q, on the closed form and the
    # factorization (p = 2 with t = 1 among them), with the message of the
    # field that the case no longer builds
    for command, q, p, length in (
        ("gen", "2147483647", "5", 4),
        ("factors", "2147483693", "3", 2),
        ("factors", str(2**89 - 1), "2", 1),
    ):
        code, _, err = run_cli(capsys, command, "--q", q, "--p", p, "--k", "1")
        assert (code, err) == (
            1,
            f"error: q={q} is too large for exact int64 arithmetic on length {length}: "
            "needs length*(q-1)^2 < 2^63\n",
        )


@pytest.mark.parametrize("p", ["5", "7"])  # t = 4 and t = 3, no irreducible binomial
def test_large_q_finds_extension_modulus_past_the_binomials(capsys, p):
    code, out, _ = run_cli(capsys, "gen", "--q", "1048583", "--p", p, "--k", "1", "--verify")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("q,p", [(2, 83), (5, 79), (7, 53), (47, 3571)])
def test_gen_verifies_where_q_to_the_t_minus_1_resists_trial_division(capsys, q, p):
    # trial division to 10^7 cannot factor q^t - 1 here; the pipeline
    # factors only p^m'
    code, out, err = run_cli(capsys, "gen", "--q", str(q), "--p", str(p), "--k", "1", "--verify")
    assert (code, err) == (0, "")
    assert out.endswith("overall: pass\n")


@pytest.mark.slow
def test_gen_verifies_every_admitted_k_1_instance_with_small_q(capsys):
    # every q < 60 and odd p < 10^4 that instance_parameters admits at k = 1:
    # 509 within the 96-bit budget on q^t - 1, and 7,866 with one unit orbit
    # (t = p - 1), which builds no F_{q^t} and is exempt from it
    from idemforge import UsageError, instance_parameters
    from idemforge.fields import is_prime

    admitted, failed = 0, []
    for q in (n for n in range(2, 60) if is_prime(n)):
        for p in (n for n in range(3, 10_000, 2) if n != q and is_prime(n)):
            try:
                instance_parameters(q, p, 1)
            except UsageError:
                continue
            admitted += 1
            code, _, err = run_cli(capsys, "gen", "--q", str(q), "--p", str(p), "--k", "1", "--verify")
            if code:
                failed.append((q, p, code, err))
    assert admitted == 8375
    assert failed == []


def test_gen_serves_a_split_q_past_the_group_order_budget(capsys):
    # t = 1 and q - 1 has 101 bits: the closed form needs only a cube root
    # of unity, while no check runs past the int64 rule yet
    q = "1267650600228229401496703205823"
    code, out, err = run_cli(capsys, "gen", "--q", q, "--p", "3", "--k", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"q={q} p=3 k=1 n=3 t=1 m=1 method=split-case"
    code, _, err = run_cli(capsys, "gen", "--q", q, "--p", "3", "--k", "1", "--verify")
    assert code == 1
    assert "length*(q-1)^2 < 2^63" in err
    # p = 2 with q = 3 (mod 4): gen at k = 2 stays in F_q and keeps these
    # bytes; k = 3 needs F_{q^2} (length 2), and factors at k = 2 meets the
    # int64 rule of F_q (length 1)
    for q, digest in (
        (2**61 - 1, "8b15cb4b31f0eed28778f7b6877719dfeb18409a23a7343a26ce72ee8a3c18ee"),
        (2**100 + 447, "82ce778c18de4eaf95c9e9389004dd8dc4979574ebbec0d7b40b724392146792"),
    ):
        code, out, err = run_cli(capsys, "gen", "--q", str(q), "--p", "2", "--k", "2")
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)
        for command, k, length in (("gen", "3", 2), ("factors", "2", 1)):
            code, out, err = run_cli(capsys, command, "--q", str(q), "--p", "2", "--k", k)
            assert (code, out, err) == (
                1,
                "",
                f"error: q={q} is too large for exact int64 arithmetic on length {length}: "
                "needs length*(q-1)^2 < 2^63\n",
            )


def test_factors_for_p_2_at_a_large_q_3_mod_4(capsys):
    # q = 2^20 + 7 = 3 (mod 4): x^2 - 1 splits over F_q, which holds the
    # square root of 1 that the factorization takes
    code, out, err = run_cli(capsys, "factors", "--q", "1048583", "--p", "2", "--k", "1")
    assert (code, out, err) == (0, "d=1 deg=1: x + 1048582\nd=2 deg=1: x + 1\n", "")


def test_invariant_violation_exits_3(capsys, monkeypatch):
    from idemforge import InvariantViolation

    def broken(instance):
        raise InvariantViolation("factor product does not reconstruct x^n - 1")

    monkeypatch.setattr("idemforge.cli.factor_xn_minus_1", broken)
    code, _, err = run_cli(capsys, "factors", "--q", "2", "--p", "7", "--k", "1")
    assert code == 3
    assert err.startswith("internal invariant violated")


def test_gen_exits_3_when_the_closed_form_root_has_the_wrong_order(capsys, monkeypatch, fresh_caches):
    search = fields._root_search
    monkeypatch.setattr(fields, "_root_search", lambda field, order: ref_element_pow(search(field, order), 5))
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


# SHA-256 of the `gen --format json` document followed by the text `gen`
# output, and of the `verify --in - --against euclid --format json` report
# on that document, for the six benchmark `verify` instances and the golden
# instance.  They were taken before records became one coefficient array.
PINNED_OUTPUTS = {
    (251, 5, 3): (
        "ac79d15a7d437625e8051dd4a6f161c18784480179a74092599d2a3e154b0f26",
        "50e8a161da32a7263adb34385f78af1e535d7bed465ddf9540848bdfaa28531c",
    ),
    (101, 5, 4): (
        "6eaa790889593cf17b3fbdfd996a4e6ca9eed437d82e89fdc458a084761c4930",
        "4c9c936fd0132fd812036103a8852b53fac5c8ec1b457d2736e400e9bd5051a6",
    ),
    (163, 3, 4): (
        "57669b4c00beefc198c1dd1ed282893fba1e5a8a045f2df9284299d2123aeb21",
        "727cce6964209a9c778022a48e789417ad7add6a1257449467e3524389fab73c",
    ),
    (41, 5, 3): (
        "c0f07bd91f49a7a9927dedc55a794cada4f4c30815e8c9e7cb307f2294a21cc3",
        "ab50df556ddd23414eb34cdc2d707fd7b8caaa57ab596db06c3231ff13981b26",
    ),
    (181, 3, 4): (
        "99937672323503e48b942d3ab17746e6647c84c5b6ed8815d6975f512ae374fa",
        "109606fc572078d1bf0886dbbf7994b6159d0eaf1197c331b90cae859672f878",
    ),
    (13, 3, 6): (
        "acb6b10484d360aeb60f0717b69ee3b6666edfcc4a5541c4eda76028b5a8ef1a",
        "8f825ff5a597d2779c3209359f71f123cbd2ce8f62ca96044e776bbefc7929dc",
    ),
    (17, 13, 2): ("d8cc666fad4da72ddc68ca17283880543c8fe19e86ca087a7d25de7a13a1695e", None),
}
# the report on the (13, 3, 6) document with coefficient 7 of record 5 raised by 1
PINNED_TAMPERED_REPORT = "7fc040d1dadc677d5480b56b4dcdaed76c00bb9e9d96d55bd6a3183d64bef2d6"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q,p,k", list(PINNED_OUTPUTS))
def test_documents_and_reports_keep_their_bytes(capsys, monkeypatch, q, p, k):
    instance = ["--q", str(q), "--p", str(p), "--k", str(k)]
    code, doc, _ = run_cli(capsys, "gen", *instance, "--format", "json")
    assert code == 0
    code, text, _ = run_cli(capsys, "gen", *instance)
    assert code == 0
    generated, reported = PINNED_OUTPUTS[q, p, k]
    assert _sha256(doc + text) == generated
    if reported is None:
        return
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, report, _ = run_cli(capsys, "verify", "--in", "-", "--against", "euclid", "--format", "json")
    assert code == 0 and _sha256(report) == reported
    if (q, p, k) == (13, 3, 6):
        tampered = json.loads(doc)
        coeffs = tampered["idempotents"][5]["coeffs"]
        coeffs[7] = (coeffs[7] + 1) % q
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(tampered)))
        code, report, _ = run_cli(
            capsys, "verify", "--in", "-", "--against", "euclid", "--format", "json"
        )
        assert code == 2 and _sha256(report) == PINNED_TAMPERED_REPORT


@pytest.mark.parametrize("q,p,k", [(17, 13, 2), (13, 3, 6), (2, 3, 5)])
def test_every_route_returns_one_int64_coefficient_array(capsys, q, p, k):
    from idemforge import IdempotentSystem, all_idempotents_euclid, dispatch, instance_parameters

    inst = instance_parameters(q, p, k)
    _, out, _ = run_cli(capsys, "gen", "--q", str(q), "--p", str(p), "--k", str(k), "--format", "json")
    _, from_document = records_from_document(parse_document(out))
    for system in (dispatch(inst), all_idempotents_euclid(inst), from_document):
        assert isinstance(system, IdempotentSystem)
        assert system.coeffs.shape == (len(system), inst.n)
        assert system.coeffs.dtype == np.int64


def test_a_split_q_past_int64_keeps_exact_object_coefficients(capsys):
    from idemforge import dispatch, instance_parameters

    q = 1267650600228229401496703205823  # 101 bits, t = 1
    inst = instance_parameters(q, 3, 1)
    system = dispatch(inst)
    assert system.coeffs.shape == (3, 3) and system.coeffs.dtype == object
    code, out, _ = run_cli(capsys, "gen", "--q", str(q), "--p", "3", "--k", "1", "--format", "json")
    assert code == 0
    doc = parse_document(out)
    assert [e["coeffs"] for e in doc["idempotents"]] == system.coeffs.tolist()
    assert max(max(e["coeffs"]) for e in doc["idempotents"]) >= 1 << 63
    _, reread = records_from_document(doc)
    assert reread.coeffs.dtype == object and reread == system


@pytest.mark.slow
def test_verify_against_euclid_at_14407_7_4_stays_under_320_mb():
    # a fresh interpreter, so the peak is the command's; VmHWM, not
    # ru_maxrss, which carries the RSS of the process before exec
    script = (
        "import contextlib, io, json\n"
        "from idemforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['verify', '--q', '14407', '--p', '7', '--k', '4', '--against', 'euclid'])\n"
        "status = open('/proc/self/status').read()\n"
        "hwm = next(l for l in status.splitlines() if l.startswith('VmHWM'))\n"
        "print(json.dumps([code, out.getvalue().splitlines()[-1], int(hwm.split()[1]) // 1024]))\n"
    )
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **threads, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    code, verdict, peak_mb = json.loads(result.stdout)
    assert (code, verdict) == (0, "overall: pass"), result.stderr
    assert peak_mb < 320
