"""The benchmark worker runs on the library as it is: traced, every job
reports `"ok": true`, and each sampled record comes back as n coefficients.

The worker's tracer patches `FieldElement.__init__` and wraps
`CyclicRingElement.__mul__` with no guard, and the worker reads
`record.value.int_coeffs()`, so a change to those names shows here as a
failed job rather than in the benchmark's own run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SURVEY = [(7, 3, 2), (2, 7, 2)]  # t = 1 and t = 3; the second is sampled
CODE = ["code", "--q", "2", "--p", "7", "--k", "1", "--label", "e_j:1", "--min-distance"]


def _run_worker(spec: dict) -> list[dict]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # nothing written under perfbench/
    proc = subprocess.run(
        [sys.executable, "-s", str(WORKER)],
        input=json.dumps(spec), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [line for line in map(json.loads, proc.stdout.splitlines()) if "job" in line]


@pytest.mark.parametrize("trace", [True, False])
def test_traced_survey_jobs_are_ok_and_send_whole_rows(trace):
    jobs = _run_worker({"kind": "survey", "jobs": SURVEY, "sample": [1], "trace": trace})
    assert [job["job"] for job in jobs] == [0, 1]
    assert all(job["ok"] and job["same"] for job in jobs), jobs
    assert "coeffs" not in jobs[0]
    n = SURVEY[1][1] ** SURVEY[1][2]
    assert len(jobs[1]["coeffs"]) == jobs[1]["records"]
    assert all(len(row) == n for row in jobs[1]["coeffs"])
    if trace:
        assert jobs[1]["trace"]["engine.dispatch_calls"] == 1


def test_traced_code_job_is_ok():
    (job,) = _run_worker({"kind": "cli", "jobs": [[CODE]], "trace": True})
    assert job["ok"], job
    (rc, out, err), = job["runs"]
    assert rc == 0 and err == "" and "[7,3,4]" in out
    assert job["trace"]["codes.generator_polynomial_calls"] >= 1
