"""Command-line surface: generate, verify, inspect factors/parameters, and
export minimal-code summaries, with stable text and JSON formats.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 internal
invariant violated (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import DEFAULT_DISTANCE_BUDGET, code_summary, summaries_for
from .engine import KIND_GENERIC, KIND_SECOND, KIND_THIRD, METHODS, IdempotentRecord, dispatch
from .errors import IdemforgeError, InvariantViolation, UsageError
from .fields import get_prime_field
from .polys import CyclicRingElement, render_poly
from .structure import (
    DEFAULT_MAX_N,
    cyclotomic_cosets,
    expected_idempotent_count,
    factor_xn_minus_1,
    instance_parameters,
)
from .verifier import SCHEMA, verify_system


def _params_json(record):
    if record.params is None:
        return None
    if record.kind == KIND_SECOND:
        return {"j": record.params[0]}
    if record.kind == KIND_THIRD:
        return {"s": record.params[0], "l": record.params[1]}
    return None


def build_document(instance, records) -> dict:
    return {
        "schema": SCHEMA,
        "q": instance.q,
        "p": instance.p,
        "k": instance.k,
        "n": instance.n,
        "t": instance.t,
        "m": instance.m,
        "method": records[0].method if records else "none",
        "idempotents": [
            {
                "label": r.label,
                "kind": r.kind,
                "params": _params_json(r),
                "coeffs": list(r.value.int_coeffs()),
            }
            for r in records
        ],
    }


def render_document(doc: dict) -> str:
    """One top-level key per line; a nonempty list opens on its key's line
    and puts each element on a line of its own, so a record is one line."""
    lines = []
    for key, value in doc.items():
        head = f"  {json.dumps(key)}: "
        if isinstance(value, list) and value:
            items = ",\n".join(f"    {json.dumps(item)}" for item in value)
            lines.append(f"{head}[\n{items}\n  ]")
        else:
            lines.append(head + json.dumps(value))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise UsageError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise UsageError(f"document does not carry schema {SCHEMA!r}")
    return doc


def records_from_document(doc: dict, max_n: int = DEFAULT_MAX_N):
    try:
        q, p, k = doc["q"], doc["p"], doc["k"]
        entries = doc["idempotents"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed document: {exc}") from exc
    if any(type(v) is not int for v in (q, p, k)):
        raise UsageError("malformed document: 'q', 'p' and 'k' must be integers")
    if not isinstance(entries, list):
        raise UsageError("malformed document: 'idempotents' must be a list")
    instance = instance_parameters(q, p, k, max_n=max_n)
    field = get_prime_field(q)
    records = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise UsageError("each idempotent entry must be a JSON object")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != instance.n:
            raise UsageError("entry coefficient list must have exactly n entries")
        if set(map(type, coeffs)) != {int}:  # bool, float and str are not int
            raise UsageError("entry coefficients must be integers")
        if min(coeffs) >= 0 and max(coeffs) < q:
            value = CyclicRingElement._reduced(field, tuple(coeffs))
        else:  # negative or past q: reduced, as any caller's ints are
            value = CyclicRingElement.from_ints(field, coeffs)
        params = entry.get("params")
        if isinstance(params, dict):
            params = tuple(params.values())
        records.append(
            IdempotentRecord(
                value=value,
                label=entry.get("label", "?"),
                kind=entry.get("kind", KIND_GENERIC),
                params=params,
                method=doc.get("method", "unknown"),
            )
        )
    return instance, records


def _write_out(text: str, out: str | None) -> None:
    if out and out != "-":
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _instance_from_args(args):
    return instance_parameters(args.q, args.p, args.k, max_n=args.max_n)


def cmd_gen(args) -> int:
    instance = _instance_from_args(args)
    records = dispatch(instance, args.method)
    report = None
    if args.verify:
        report = verify_system(records, instance)
    doc = build_document(instance, records)
    if report is not None:
        full = report.to_dict()
        doc["verification"] = {key: full[key] for key in ("checks", "passed")}
    if args.codes:
        doc["codes"] = [
            {
                "label": s.label,
                "dimension": s.dimension,
                "generator": list(s.generator.int_coeffs()),
            }
            for s in summaries_for(records, instance.n, instance.q)
        ]
    if args.format == "json":
        _write_out(render_document(doc), args.out)
    else:
        lines = [instance.describe() + f" method={records[0].method}"]
        for r in records:
            lines.append(f"{r.label} = {render_poly(r.value.int_coeffs())}")
        if args.codes:
            for entry in doc["codes"]:
                lines.append(
                    f"code {entry['label']}: [{instance.n},{entry['dimension']}] "
                    f"g = {render_poly(entry['generator'])}"
                )
        if report is not None:
            lines.append(report.render_text())
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if report is None or report.passed else 2


def cmd_verify(args) -> int:
    if args.input:
        try:
            if args.input == "-":
                text = sys.stdin.read()
            else:
                with open(args.input, encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
        doc = parse_document(text)
        instance, records = records_from_document(doc, args.max_n)
    else:
        if args.q is None or args.p is None or args.k is None:
            raise UsageError("verify needs --q/--p/--k or --in")
        instance = _instance_from_args(args)
        records = dispatch(instance, args.method)
    report = verify_system(records, instance, against_oracle=(args.against == "euclid"))
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(report.render_text() + "\n")
    return 0 if report.passed else 2


def cmd_factors(args) -> int:
    instance = _instance_from_args(args)
    factors = factor_xn_minus_1(instance)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "q": instance.q,
            "p": instance.p,
            "k": instance.k,
            "factors": [
                {"d": d, "degree": f.degree, "coeffs": list(f.int_coeffs())}
                for d, f in factors
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for d, f in factors:
            sys.stdout.write(f"d={d} deg={f.degree}: {render_poly(f.int_coeffs())}\n")
    return 0


def cmd_params(args) -> int:
    instance = _instance_from_args(args)
    count = expected_idempotent_count(instance)
    sys.stdout.write(f"t={instance.t} m={instance.m} count={count}\n")
    sys.stdout.write(f"n={instance.n}\n")
    for d, (r_d, s_d) in cyclotomic_cosets(instance.q, instance.n).census().items():
        sys.stdout.write(f"d={d}: factors={r_d} degree={s_d}\n")
    return 0


def cmd_code(args) -> int:
    instance = _instance_from_args(args)
    records = dispatch(instance, args.method)
    matches = [r for r in records if r.label == args.label]
    if not matches:
        known = ", ".join(r.label for r in records)
        raise UsageError(f"no idempotent labeled {args.label!r}; known labels: {known}")
    summary = code_summary(
        matches[0], instance.n, instance.q, with_distance=args.min_distance, budget=args.budget
    )
    sys.stdout.write(
        f"{summary.label}: {summary.params()} g = {render_poly(summary.generator.int_coeffs())}\n"
    )
    return 0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer") from None


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write, so `--help >/dev/full` would exit 0
        if message:
            (file or sys.stderr).write(message)


def _add_common(sp, instance_required=True):
    sp.add_argument("--q", type=int, required=instance_required, help="prime field size")
    sp.add_argument("--p", type=int, required=instance_required, help="prime base of the ring length")
    sp.add_argument("--k", type=int, required=instance_required, help="exponent: n = p^k")
    sp.add_argument(
        "--max-n",
        type=int,
        default=_env_int("IDEMFORGE_MAX_N", DEFAULT_MAX_N),
        help="reject instances with n beyond this cap",
    )


def _gen_args(gen):
    _add_common(gen)
    gen.add_argument("--method", choices=METHODS, default="auto")
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.add_argument("--out", default=None, help="output file ('-' for stdout)")
    gen.add_argument("--verify", action="store_true", help="embed a verification report")
    gen.add_argument("--codes", action="store_true", help="embed minimal-code summaries")
    gen.set_defaults(func=cmd_gen)


def _verify_args(ver):
    _add_common(ver, instance_required=False)
    ver.add_argument("--method", choices=METHODS, default="auto")
    ver.add_argument("--against", choices=("none", "euclid"), default="none")
    ver.add_argument("--in", dest="input", default=None, help="JSON document ('-' for stdin)")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=cmd_verify)


def _factors_args(fac):
    _add_common(fac)
    fac.add_argument("--format", choices=("text", "json"), default="text")
    fac.set_defaults(func=cmd_factors)


def _params_args(par):
    _add_common(par)
    par.set_defaults(func=cmd_params)


def _code_args(code):
    _add_common(code)
    code.add_argument("--label", required=True)
    code.add_argument("--method", choices=METHODS, default="auto")
    code.add_argument("--min-distance", action="store_true")
    code.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_DISTANCE_BUDGET,
        help="most orbits of <x, F_q^*> the distance search walks on a minimal code, "
        "or codewords it enumerates on any other",
    )
    code.set_defaults(func=cmd_code)


# command -> (help, adds its arguments)
_COMMANDS = {
    "gen": ("generate the primitive idempotents", _gen_args),
    "verify": ("verify an idempotent system", _verify_args),
    "factors": ("list the irreducible factors of x^n - 1", _factors_args),
    "params": ("print instance parameters and the coset census", _params_args),
    "code": ("minimal cyclic code for one idempotent", _code_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser; or, for a `command` of _COMMANDS, one that holds only
    that subcommand and parses, helps and fails on it with the same bytes."""
    parser = _Parser(
        prog="idemforge",
        description="Primitive idempotents and minimal cyclic codes of F_q[x]/(x^(p^k)-1).",
    )
    if command in _COMMANDS:  # the usage still lists every command
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = tuple(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit as exc:  # argparse: --help or a bad flag
            code = 0 if exc.code in (0, None) else 1
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except IdemforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs are read under UsageError, so this is stdout
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
