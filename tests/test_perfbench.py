"""The benchmark in `perfbench/` runs against this tree: a zero-second run of
each workload sets up, runs one round, checks its outputs and reports them
correct. A change to the API the benchmark uses fails here."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train", "fusion"])
def test_the_benchmark_runs_and_checks_each_workload(workload):
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True, report
