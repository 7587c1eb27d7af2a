"""Benchmark for idemforge.

    python3 perfbench/run.py --workload survey|verify|codes --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports idemforge from its `src`.
Jobs run one at a time in a closed loop, each round in fresh worker
interpreters (one per `survey` pass, one per `verify` or `codes` job) with
BLAS held to one thread.  Rounds repeat until S seconds have passed; a
started round always finishes, so every run attempts whole rounds.  The
outputs are then checked apart from the program (see checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end-to-end ones with --trace 0,
per-layer ones with --trace 1).  A fuller record of the run goes to
.bench_build/perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # write nothing but .bench_build

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Acceptance grid: q prime <= 29, p in {3,5,7,11,13}, p != q, p^k <= 400,
# plus near-cap instances whose splitting degree is close to the 512 cap.
GRID_QS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
GRID_PS = (3, 5, 7, 11, 13)
NEAR_CAP = ((2, 3, 6), (2, 5, 4))
SURVEY = tuple(
    (q, p, k) for q in GRID_QS for p in GRID_PS if p != q for k in range(9) if p**k <= 400
) + NEAR_CAP
SURVEY_SAMPLE = 2  # instances per pass whose records get the algebraic checks

# Many records and a small splitting degree: the verifier's pairwise
# products dominate, factorization is small.
VERIFY = ((251, 5, 3), (101, 5, 4), (163, 3, 4), (41, 5, 3), (181, 3, 4), (13, 3, 6))
VERIFY_CHECKS = {
    "nonzero", "idempotency", "orthogonality", "completeness",
    "cardinality", "primitivity", "oracle-equality",
}

# Binary minimal codes whose enumerations run from 2^3 to 2^21 codewords.
CODES = (
    (2, 7, 1, "e_j:1"),
    (2, 11, 1, "e_j:1"),
    (2, 23, 1, "e_j:1"),
    (2, 13, 2, "e_j:1"),
    (2, 3, 3, "e_{s,l}:3,1"),
    (2, 5, 2, "e_{s,l}:2,1"),
    (2, 41, 1, "e_j:1"),
    (2, 7, 2, "e_{s,l}:2,1"),
)
KNOWN_CODES = {(2, 7, 1, "e_j:1"): (7, 3, 4), (2, 23, 1, "e_j:1"): (23, 11, 8)}

MIN_ROUNDS = 3  # so that each job's median outvotes one disturbed round
SETUP_PROBES = 8  # extra fresh interpreters per run that only set up
WORKER_TIMEOUT_S = 150
WORKLOADS = ("survey", "verify", "codes")
UNREADABLE = (ValueError, KeyError, IndexError, TypeError)  # malformed program output


class Run:
    """One benchmark run: worker launches, their results and the checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.setup: list[float] = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, list[dict]] = {}  # job key -> results of successful jobs
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            VECLIB_MAXIMUM_THREADS="1",
            NUMEXPR_NUM_THREADS="1",
        )
        self.env = env
        self.cmd = [
            sys.executable, "-s", "-X", f"pycache_prefix={BUILD / 'pycache'}", str(HERE / "worker.py"),
        ]

    # -- workers ---------------------------------------------------------

    def launch(self, spec: dict) -> tuple[list[dict], int]:
        """Run one worker to its end; return its job lines and peak RSS."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, cwd=ROOT, text=True,
        )
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(json.dumps(spec))
                proc.stdin.close()
            except BrokenPipeError:
                pass
            lines = []
            for line in proc.stdout:
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError:  # cut short by a kill
                    break
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        jobs, maxrss_kb = [], 0
        for line in lines:
            if "ready" in line:
                self.setup.append(line["ready"] - started)
            elif "maxrss_kb" in line:
                maxrss_kb = line["maxrss_kb"]
            elif "job" in line:
                jobs.append(line)
        if proc.returncode:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return jobs, maxrss_kb

    def attempt(self, spec: dict, keys: list[str]) -> list[dict]:
        """Run the jobs of one worker; return those that succeeded.  Every
        job counts as attempted, a missing or failed one as failed."""
        jobs, maxrss_kb = self.launch(spec)
        self.maxrss_kb = max(self.maxrss_kb, maxrss_kb)
        done = {job["job"]: job for job in jobs}
        self.attempted += len(keys)
        succeeded = []
        for i, key in enumerate(keys):
            job = done.get(i)
            if job is None or not job["ok"] or any(rc != 0 for rc, _, _ in job.get("runs", ())):
                self.failed += 1
                detail = job and (job.get("error") or [rc for rc, _, _ in job["runs"]])
                print(f"perfbench: job {key} failed: {detail or 'no result'}", file=sys.stderr)
                continue
            job.update(key=key, document=spec.get("document"))
            self.outputs.setdefault(key, []).append(job)
            succeeded.append(job)
        return succeeded

    def round_specs(self, index: int, trace: bool) -> list[tuple[dict, list[str]]]:
        """The workers of one round, in a seeded order."""
        if self.workload == "survey":
            sample = self.rng.sample(range(len(SURVEY)), SURVEY_SAMPLE)
            spec = {"kind": "survey", "jobs": SURVEY, "sample": sample, "trace": trace}
            return [(spec, [survey_key(job) for job in SURVEY])]
        if self.workload == "verify":
            order = list(VERIFY)
            self.rng.shuffle(order)
            specs = []
            for q, p, k in order:
                doc = str(self.workdir / f"{q}-{p}-{k}-round{index}.json")
                gen = ["gen", "--q", q, "--p", p, "--k", k, "--format", "json", "--out", doc]
                ver = ["verify", "--in", doc, "--against", "euclid", "--format", "json"]
                spec = {"kind": "cli", "jobs": [[gen, ver]], "trace": trace, "document": doc}
                specs.append((spec, [f"{q},{p},{k}"]))
            return specs
        order = list(CODES)
        self.rng.shuffle(order)
        specs = []
        for q, p, k, label in order:
            argv = ["code", "--q", q, "--p", p, "--k", k, "--label", label, "--min-distance"]
            specs.append(({"kind": "cli", "jobs": [[argv]], "trace": trace}, [codes_key(q, p, k, label)]))
        return specs

    # -- checks ----------------------------------------------------------

    def check(self) -> None:
        """Check every job's outputs; an output that cannot be read fails."""
        self.sympy_left = SURVEY_SAMPLE
        check_job = getattr(self, f"check_{self.workload}")
        for key, results in self.outputs.items():
            try:
                check_job(key, results)
            except UNREADABLE as exc:
                self.errors.append(f"{key}: unreadable output ({type(exc).__name__}: {exc})")
        if self.workload == "verify" and self.outputs:
            try:
                self.negative_control()
            except UNREADABLE as exc:
                self.errors.append(f"negative control: unreadable output ({type(exc).__name__}: {exc})")

    def check_survey(self, key: str, results: list[dict]) -> None:
        q, p, k = map(int, key.split(","))
        n = p**k
        sizes = checks.coset_sizes(q, n)
        for res in results:
            if not res["same"]:
                self.errors.append(f"{key}: dispatch set differs from the oracle set")
            if res["records"] != len(sizes) or res["oracle"] != len(sizes):
                self.errors.append(
                    f"{key}: {res['records']} dispatch and {res['oracle']} oracle records, {len(sizes)} cosets"
                )
            if "coeffs" not in res:
                continue
            coeffs = res["coeffs"]
            for err in checks.system_errors(coeffs, q, n, self.rng, samples=2):
                self.errors.append(f"{key}: {err}")
            if checks.ideal_dimensions(coeffs, q, n) != sizes:
                self.errors.append(f"{key}: ideal dimensions differ from coset sizes")
            if self.sympy_left and n <= 400:
                self.sympy_left -= 1
                degrees = checks.sympy_factor_degrees(q, n)
                if degrees is not None and degrees != sizes:
                    self.errors.append(f"{key}: sympy factor degrees differ from coset sizes")

    def check_verify(self, key: str, results: list[dict]) -> None:
        q, p, k = map(int, key.split(","))
        n = p**k
        documents = set()
        for res in results:
            (_, gen_out, _), (_, ver_out, _) = res["runs"]
            report = json.loads(ver_out)
            checked = {c["name"] for c in report["checks"] if c["passed"]}
            if not report["passed"] or not VERIFY_CHECKS <= checked:
                self.errors.append(f"{key}: verify report does not pass every check")
            if gen_out:
                self.errors.append(f"{key}: gen --out also wrote to stdout")
            documents.add(Path(res["document"]).read_text())
        if len(documents) != 1:
            self.errors.append(f"{key}: gen documents differ between rounds")
        doc = json.loads(documents.pop())
        if (doc["schema"], doc["q"], doc["p"], doc["k"], doc["n"]) != ("idemforge/1", q, p, k, n):
            self.errors.append(f"{key}: document header is wrong")
        coeffs = [e["coeffs"] for e in doc["idempotents"]]
        if len(coeffs) != len(checks.coset_sizes(q, n)):
            self.errors.append(f"{key}: record count differs from the coset count")
        for err in checks.system_errors(coeffs, q, n, self.rng, samples=2):
            self.errors.append(f"{key}: {err}")

    def negative_control(self) -> None:
        """A document with one coefficient changed must make verify exit 2."""
        key = self.rng.choice(sorted(self.outputs))
        q = int(key.split(",")[0])
        doc = json.loads(Path(self.outputs[key][0]["document"]).read_text())
        entry = self.rng.choice(doc["idempotents"])
        i = self.rng.randrange(len(entry["coeffs"]))
        entry["coeffs"][i] = (entry["coeffs"][i] + 1) % q
        bad = self.workdir / "negative-control.json"
        bad.write_text(json.dumps(doc))
        argv = ["verify", "--in", str(bad), "--against", "euclid", "--format", "json"]
        jobs, _ = self.launch({"kind": "cli", "jobs": [[argv]]})
        if not jobs or not jobs[0]["ok"] or jobs[0]["runs"][0][0] != 2:
            self.errors.append(f"negative control on {key}: verify did not exit 2")
        elif json.loads(jobs[0]["runs"][0][1])["passed"]:
            self.errors.append(f"negative control on {key}: report passed")

    def check_codes(self, key: str, results: list[dict]) -> None:
        lines = {res["runs"][0][1] for res in results}
        if len(lines) != 1:
            self.errors.append(f"{key}: output differs between rounds")
        q, p, k, label = codes_from_key(key)
        n = p**k
        head, _, poly = lines.pop().strip().partition(" g = ")
        out_label, _, params = head.rpartition(": ")
        code_n, dim, dist = map(int, params.strip("[]").split(","))
        g = checks.parse_poly(poly)
        check_poly, rem = checks.poly_divmod(checks.x_n_minus_1(n, q), g, q)
        known = KNOWN_CODES.get((q, p, k, label))
        problems = {
            "label differs": out_label != label,
            "length differs from p^k": code_n != n,
            "dimension differs from n - deg g": dim != n - (len(g) - 1),
            "generator is not monic": g[-1] != 1,
            "generator does not divide x^n - 1": bool(rem),
            "dimension is no coset size": dim not in checks.coset_sizes(q, n),
            "distance exceeds the Singleton bound": dist > n - dim + 1,
            "known parameters differ": known is not None and known != (code_n, dim, dist),
            "distance differs from the independent enumeration": dist != checks.binary_min_distance(g, n),
            "check polynomial is reducible": checks.sympy_irreducible(check_poly, q) is False,
        }
        self.errors.extend(f"{key}: {what}" for what, bad in problems.items() if bad)


def survey_key(job) -> str:
    return ",".join(map(str, job))


def codes_key(q, p, k, label) -> str:
    return f"{q},{p},{k} {label}"


def codes_from_key(key: str):
    instance, label = key.split(" ", 1)
    q, p, k = map(int, instance.split(","))
    return q, p, k, label


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(run: Run, rounds: list[dict]) -> dict[str, float]:
    per_job: dict[str, list[float]] = {}
    for rnd in rounds:
        for key, seconds in rnd["jobs"].items():
            per_job.setdefault(key, []).append(seconds)
    medians = [statistics.median(v) for v in per_job.values()]
    return {
        "setup_s": statistics.median(run.setup),
        "jobs_per_s": sum(map(len, per_job.values())) / sum(map(sum, per_job.values())),
        "job_geomean_ms": 1000 * geomean(medians),
        "peak_rss_mb": run.maxrss_kb / 1024,
    }


def per_layer(rounds: list[dict]) -> tuple[dict[str, float], bool]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    figures = [tracer.layer_metrics(r["totals"]) for r in traced]
    out = {key: statistics.median(f[key] for f in figures) for key in figures[0]}
    counts = [k for k in figures[0] if k.endswith("_calls") or k in tracer.COUNTS]
    repeat = all(f[k] == figures[0][k] for f in figures for k in counts)
    out.update((k, figures[0][k]) for k in counts)
    traced_s = statistics.median(sum(r["jobs"].values()) for r in traced)
    plain_s = statistics.median(sum(r["jobs"].values()) for r in plain)
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    return out, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark for idemforge.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "idemforge" / "__init__.py").is_file():
        print(f"perfbench: no idemforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    workdir = BUILD / "perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, workdir)
    try:
        kind = "cli" if args.workload != "survey" else "survey"
        run.launch({"kind": kind, "jobs": []})  # compiles the sources on a fresh checkout
        run.setup.clear()
        for _ in range(SETUP_PROBES):
            run.launch({"kind": kind, "jobs": []})

        rounds = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(rounds) < MIN_ROUNDS:
            traced = bool(args.trace and len(rounds) % 2 == 0)
            rnd = {"traced": traced, "jobs": {}, "totals": {}, "trace": {}}
            for spec, keys in run.round_specs(len(rounds), traced):
                for job in run.attempt(spec, keys):
                    rnd["jobs"][job["key"]] = job["s"]
                    if traced:
                        rnd["trace"][job["key"]] = job["trace"]
                        for name, value in job["trace"].items():
                            rnd["totals"][name] = rnd["totals"].get(name, 0) + value
            rounds.append(rnd)

        run.check()
        if args.trace:
            values, repeat = per_layer(rounds)
            if not repeat:
                run.errors.append("exact counts differ between traced rounds")
        else:
            values = end_to_end(run, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in run.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, setup_s=run.setup, errors=run.errors)
    results = BUILD / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for name, metric in metrics.items():
        print(f"{args.workload:>7} {name:<40} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
