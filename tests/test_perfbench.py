"""The benchmark in `perfbench/` runs against this tree: a zero-second run of
each workload, and a traced one of fusion, sets up, runs one round, checks its
outputs and reports them correct. A change to the API the benchmark uses fails
here. The tracer wraps model functions by name, and its probe scores a
concat_plus_enroll model; a traced train run at zero seconds stops too early
to fill its loss percentiles, so fusion stands for both."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload,trace", [("train", "0"), ("fusion", "0"), ("fusion", "1")],
                         ids=["train", "fusion", "fusion-traced"])
def test_the_benchmark_runs_and_checks_each_workload(workload, trace):
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True, report
