"""Smoke test of the benchmark harness: one short seeded run end to end.

It checks that `bench/run.py` still drives the library and checks its
outputs; it makes no timing assertion.  `fan` checks every fan with
`check_fan`, `track_shock` gates the conservation balance and the Burgers
oracle on the shock speeds, and `track_rare` exercises the rarefaction path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["track_rare", "fan", "track_shock"])
def test_workload_run_is_correct(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 100
