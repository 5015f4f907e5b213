"""Run one workload of the bjsystem benchmark and print its metrics as JSON.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory and nowhere else, so a checkout without `src/` exits with an error.

`--trace 0` measures the end-to-end metrics: the run repeats whole tasks
(a block of items, or a tracker instance) for about `--seconds` and until at
least 100 items are done.  `--trace 1` runs a fixed, seeded amount of work
twice, first plain and then with the per-layer tracer installed, and prints
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One thread per process: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "fan", "track_shock", "track_rare")
MIN_ITEMS = 100
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used by the run itself)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_library():
    """Import bjsystem from this checkout's src/ and nowhere else."""
    package = SRC / "bjsystem"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import bjsystem

    if Path(bjsystem.__file__).resolve().parent != package:
        sys.exit(f"bench: imported bjsystem from {bjsystem.__file__}, not {package}")


def setup_child(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_run(spec, args, first, setup_s):
    """Whole tasks for about --seconds, and until MIN_ITEMS items are done.

    A next task is started while the time spent plus half a mean task stays
    below --seconds, so the timed phase ends within half a task of it.
    Between tasks, fresh processes repeat the set-up, spread over the run so
    that the set-up samples meet the same spells of machine speed as the
    items.  Returns the outcome, the item times of each task and the
    SETUP_REPEATS set-up times.
    """
    import workloads as wl

    outcome = wl.Outcome()
    setups = [setup_s]
    per_task = []
    task, prepared = first
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        start = len(outcome.times)
        spec.run_task(task, prepared, outcome)
        per_task.append(outcome.times[start:])
        elapsed = spent + time.perf_counter() - t0
        if elapsed * (1.0 + 0.5 / len(per_task)) >= args.seconds and len(outcome.times) >= MIN_ITEMS:
            break
        task = spec.make_task(args.seed, len(per_task))
        prepared = spec.prepare(task) if spec.prepare else None
        spent += time.perf_counter() - t0
        if len(setups) < SETUP_REPEATS and spent >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_child(args))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_child(args))
    return outcome, per_task, setups


def task_percentile_ms(per_task, q: float) -> float:
    """The q-th percentile of each task's item times, averaged over the tasks.

    The machine runs in fast and slow spells of seconds, up to 1.7 times
    apart.  A percentile of all the run's items jumps from one spell's cost
    to the other's as their shares pass q; a task is short against a spell,
    so the average of its percentiles moves in proportion to the shares.
    """
    import numpy as np

    return 1e3 * float(sum(np.percentile(times, q) for times in per_task) / len(per_task))


def run_one(spec, task, outcome, timed) -> float:
    """Prepare and run one task; returns the seconds spent in the library."""
    done = len(outcome.times)
    t0 = time.perf_counter()
    prepared = spec.prepare(task) if spec.prepare else None
    spent = time.perf_counter() - t0
    spec.run_task(task, prepared, outcome, timed)
    return spent + sum(outcome.times[done:])


def traced_run(spec, args):
    """Each task plain and then traced, after one discarded warm-up task."""
    import workloads as wl
    from tracer import Tracer

    tasks = [spec.make_task(args.seed, k) for k in range(spec.trace_tasks)]
    run_one(spec, tasks[0], wl.Outcome(), wl.timed_call)
    tracer = Tracer()
    plain, traced = wl.Outcome(), wl.Outcome()
    plain_s = traced_s = 0.0
    for task in tasks:
        plain_s += run_one(spec, task, plain, wl.timed_call)
        tracer.install()
        try:
            traced_s += run_one(
                spec, task, traced, lambda fn, arg: tracer.timed_call(fn, arg, wl.timed_call))
        finally:
            tracer.uninstall()
    metrics = dict(tracer.metrics())
    metrics.update(traced.tracker.metrics())
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "1")
    return traced, plain.failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import numpy as np
    import workloads as wl

    spec = wl.WORKLOAD_SPECS[args.workload]
    task = spec.make_task(args.seed, 0)
    prepared = spec.prepare(task) if spec.prepare else None
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        outcome, other_failed, metrics = traced_run(spec, args)
    else:
        outcome, per_task, setups = timed_run(spec, args, (task, prepared), setup_s)
        other_failed = 0
        times = outcome.times
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (float(np.median(setups)), "s"),
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_p50_ms": (task_percentile_ms(per_task, 50), "ms"),
            "item_p90_ms": (task_percentile_ms(per_task, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": outcome.failed == 0 and other_failed == 0,
        "attempted": len(outcome.times),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
