"""Smoke test of the benchmark harness: one short seeded run end to end.

It checks that `bench/run.py` still drives the library and checks its
outputs; it makes no timing assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_track_rare_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "track_rare", "--seed", "1",
           "--seconds", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 100
