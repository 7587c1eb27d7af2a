"""Every module-level function and non-dunder method of `idemforge` is
entered by the CLI or by the benchmark worker's library calls, or is named
in ALLOWED with the reason it stays.

The calls run in a fresh interpreter under `sys.setprofile`, so no cache
warmed by another test hides a function.  Run this file as a script, with
a working directory as its argument, to print what it records.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: t = 1, t > 1, k = 0, p = 2, and p = 2 in the root field F_{q^2}
INSTANCES = ((7, 3, 2), (2, 7, 1), (5, 3, 0), (5, 2, 3), (3, 2, 3))
CODES = ((2, 7, 1, "e_j:1"), (2, 13, 1, "e_j:1"), (7, 3, 2, "e_{s,l}:2,1"), (5, 3, 0, "e_0"))

#: qualified name -> why it stays although no run here enters it
ALLOWED = {
    "codes.min_distance_exhaustive": "min_distance's route for a code with a reducible check "
    "polynomial, which no primitive idempotent gives; the tests' reference for min_distance",
    "polys.CyclicRingElement._check": "the operand check of the ring operators, kept whole: "
    "the benchmark's tracer wraps CyclicRingElement.__mul__",
    "polys.CyclicRingElement.from_ints": "library constructor of a ring element from its coefficients",
    "polys.CyclicRingElement.from_poly": "library constructor of a ring element from a Poly, mod x^n - 1",
    "polys.CyclicRingElement.identity": "library constructor of the ring's one",
    "polys.Poly.one": "library constructor of the constant 1, beside Poly.zero and Poly.x",
    "polys.Poly.x": "library constructor of x",
    "polys.Poly.zero": "library constructor of the zero polynomial",
}


def _commands(workdir: Path) -> list[list[str]]:
    runs = []
    for q, p, k in INSTANCES:
        inst = ["--q", str(q), "--p", str(p), "--k", str(k)]
        doc = str(workdir / f"{q}-{p}-{k}.json")
        runs += [
            ["gen", *inst],
            ["gen", *inst, "--format", "json", "--verify", "--codes"],
            ["gen", *inst, "--method", "euclid"],
            ["gen", *inst, "--method", "euclid", "--format", "json", "--out", doc],
            ["verify", "--in", doc],
            ["verify", *inst, "--against", "euclid", "--format", "json"],
            ["factors", *inst],
            ["factors", *inst, "--format", "json"],
            ["params", *inst],
        ]
    for q, p, k, label in CODES:
        runs.append(["code", "--q", str(q), "--p", str(p), "--k", str(k), "--label", label, "--min-distance"])
    return runs + [["--help"], ["gen", "--help"]]


def _inventory() -> dict:
    """{code object: qualified name} of the package's module-level functions
    and non-dunder methods."""
    import idemforge

    out = {}
    for info in pkgutil.iter_modules(idemforge.__path__):
        module = importlib.import_module(f"idemforge.{info.name}")
        for name, obj in vars(module).items():
            obj = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    if isinstance(member, property):
                        parts = [member.fget, member.fset, member.fdel]
                    else:
                        parts = [getattr(member, "__func__", member)]
                    for fn in parts:
                        if inspect.isfunction(fn):
                            out[fn.__code__] = f"{info.name}.{name}.{attr}"
    return out


def record(workdir: Path) -> dict:
    """Run the CLI commands and the benchmark worker's library calls under
    a profiler; return the exit codes and the names never entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    exits = []
    sys.setprofile(profile)
    try:
        import idemforge as idf
        from idemforge.cli import main

        for argv in _commands(workdir):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exits.append(main(argv))
        for job in INSTANCES:  # perfbench/worker.py's survey job
            inst = idf.instance_parameters(*job)
            records = idf.dispatch(inst)
            oracle = idf.all_idempotents_euclid(inst)
            exits.append(0 if idf.sets_equal(records, oracle) else 2)
            [list(r.value.int_coeffs()) for r in records]
    finally:
        sys.setprofile(None)
    unreached = sorted(name for code, name in _inventory().items() if code not in entered)
    return {"exits": exits, "unreached": unreached}


def test_every_function_is_reached_or_allowed(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["exits"]) == {0}
    unreached = set(result["unreached"])
    assert not unreached - ALLOWED.keys(), "never entered and not allowed"
    assert not ALLOWED.keys() - unreached, "allowed but entered, or gone: drop it from ALLOWED"


if __name__ == "__main__":
    print(json.dumps(record(Path(sys.argv[1]))))
