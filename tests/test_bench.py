"""Smoke test of the benchmark in perfbench/, which reads src/ through its tracer.

perfbench/, src/ and BENCHMARK.json are copied to a temporary directory and
run there, so the runs' .bench_out/ is never written in the checkout.  Each
run takes about a second of workload: this checks that the benchmark and its
--trace 1 layer counts still work on src/, not how fast src/ is.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)

    def run(workload, *args):
        """run.py's exit code and the JSON object on its last line of output."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", *args],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert proc.stdout, proc.stderr
        return proc.returncode, json.loads(proc.stdout.splitlines()[-1])

    return run


def test_self_test_counts_the_demonstrated_failure(bench):
    code, last = bench("self-test")
    assert code == 0 and last["failed"] > 0


@pytest.mark.parametrize("workload, rows", [
    ("farey-exact", True), ("float-points", False), ("pair-count", True),
])
def test_traced_workload_is_correct(bench, workload, rows):
    code, last = bench(workload, "--trace", "1")
    assert code == 0 and last["correct"] is True and last["failed"] == 0
    if rows:
        assert last["metrics"]["sweeps.rows"]["value"] > 0
