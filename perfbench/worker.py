"""One benchmark worker: a fresh interpreter that imports idemforge from the
checkout's `src`, runs the jobs it is given one at a time and reports one
JSON line per job on stdout.

Input (stdin, one JSON object):
  {"kind": "survey" | "cli", "jobs": [...], "sample": [...], "trace": bool}
  survey jobs are [q, p, k]; a cli job is a list of argv lists run in turn
  through `idemforge.cli.main`.  `sample` lists the survey jobs whose
  records are sent back for the independent checks.  A worker without
  jobs is a set-up probe.

Output lines: {"ready": t} once idemforge is imported and the inputs are
built (t is time.perf_counter, a system-wide monotonic clock), one
{"job": i, "s": seconds, ...} per job, then {"maxrss_kb": peak RSS}.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.stdin.read())
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import idemforge as idf

    if Path(idf.__file__).resolve().parent != src / "idemforge":
        raise SystemExit(f"worker imported idemforge from {idf.__file__}, not from {src}")
    kind = spec["kind"]
    if kind == "cli":
        from idemforge.cli import main as cli_main
        jobs = [[[str(a) for a in argv] for argv in job] for job in spec["jobs"]]
    else:
        jobs = [tuple(job) for job in spec["jobs"]]
    sample = set(spec.get("sample", ()))
    out = sys.stdout

    def emit(obj) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    emit({"ready": time.perf_counter()})

    recorder = None
    if spec.get("trace"):
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    perf = time.perf_counter
    for i, job in enumerate(jobs):
        before = recorder.snapshot() if recorder else None
        result = {"job": i, "ok": True}
        try:
            if kind == "survey":
                start = perf()
                inst = idf.instance_parameters(*job)
                records = idf.dispatch(inst)
                oracle = idf.all_idempotents_euclid(inst)
                same = idf.sets_equal(records, oracle)
                result["s"] = perf() - start
                result.update(records=len(records), oracle=len(oracle), same=same)
                if i in sample:
                    result["coeffs"] = [list(r.value.int_coeffs()) for r in records]
            else:
                runs = []
                start = perf()
                for argv in job:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        rc = cli_main(argv)
                    runs.append((rc, stdout.getvalue(), stderr.getvalue()))
                result["s"] = perf() - start
                result["runs"] = runs
        except Exception as exc:  # a failed job is reported, the worker goes on
            result = {"job": i, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if recorder:
            after = recorder.snapshot()
            result["trace"] = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
        emit(result)
    emit({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
