"""Run every workload in a fresh process and print its metrics by name and unit.

    python3 bench/report.py [--seed 1] [--seconds 25] [--trace]

Each workload runs once untraced; its end-to-end metrics are printed with
fail_ratio, the items that raised or failed their output check over the items
attempted.  With --trace, a traced run of each workload follows and its
per-layer metrics are printed too.  Exits with 1 if any run reports an
incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args(argv)

    all_correct = True
    print(f"{'workload':<12} {'metric':<45} {'value':>14} unit")
    for workload in WORKLOADS:
        correct = True
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, args.seed, args.seconds, trace)
            correct = correct and result["correct"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows.insert(4, ("fail_ratio", result["failed"] / result["attempted"], "1"))
                rows.append(("items", result["attempted"], "count"))
            for name, value, unit in rows:
                print(f"{workload:<12} {name:<45} {value:>14.6g} {unit}")
        print(f"{workload:<12} {'correct':<45} {str(correct):>14}")
        all_correct = all_correct and correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
