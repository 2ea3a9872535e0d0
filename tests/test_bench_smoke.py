"""The benchmark harness runs against this tree: every API it calls still
answers, and its own correctness checks pass."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(workload: str, trace: int) -> dict:
    """The last line `bench/run.py` prints, after checking it exited 0 with
    its correctness checks passed and no operation failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1000", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    return last


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["tiny", "paper", "heldout"])
def test_bench_workload_runs_correctly(workload):
    run_bench(workload, trace=0)


@pytest.mark.slow
def test_traced_paper_run_counts_tape_nodes():
    metrics = run_bench("paper", trace=1)["metrics"]
    assert metrics["autodiff.tape_nodes"]["value"] > 0, metrics
