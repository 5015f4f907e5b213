"""Tests of the benchmark itself: its item loops are the library's code paths,
its checks reject wrong outputs, and its tracer sees inner calls.

    PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from run import WORKLOADS, task_percentile_ms  # noqa: E402
from tracer import Tracer  # noqa: E402

from bjsystem import flux as fx  # noqa: E402
from bjsystem import fronttrack as ft  # noqa: E402
from bjsystem import interactions as ia  # noqa: E402
from bjsystem import riemann as rm  # noqa: E402
from bjsystem import wavecurves as wc  # noqa: E402


@pytest.mark.parametrize("make_task", [wl.shock_task, wl.rare_task])
def test_tracker_loop_reproduces_fronttrack_run(make_task):
    inst = dataclasses.replace(make_task(5, 0), budget=40)
    st, series = wl.run_instance(inst, wl.tracker_prepare(inst), wl.Outcome())
    ref, ref_series = ft.run(wl.tracker_prepare(inst), 1e5, max_events=inst.budget)
    assert ref.truncated
    assert st.event_log == ref.event_log
    assert series == ref_series


def test_certify_items_reproduce_verify_bounds_12():
    items = [it for it in wl.certify_task(3, 0) if it[0] == "12"]
    records = [wl.certify_item(it) for it in items]
    reference = ia.verify_bounds_12(len(items), eta=wl.CERTIFY_ETA, seed=wl.task_seed(3, 0))
    assert len(records) == len(reference) == wl.CERTIFY_REPEATS
    for rec, ref in zip(records, reference):
        assert rec.report.outgoing == ref.report.outgoing
        assert rec.report.pattern == ref.report.pattern
        assert np.array_equal(rec.contraction.x, ref.contraction.x)
        assert rec.oracle_agreement == ref.oracle_agreement
        assert rec.passed == ref.passed


def test_tasks_are_seeded_and_keep_their_mix():
    for make_task in (wl.certify_task, wl.fan_task):
        a, b, c = make_task(7, 2), make_task(7, 2), make_task(8, 2)
        assert repr(a) == repr(b) and repr(a) != repr(c)
    kinds = [kind for kind, _ in wl.certify_task(7, 0)]
    assert 2 * kinds.count("12") == kinds.count("22")
    rare = [p.Ur[1] > p.Ul[1] for p in wl.fan_task(7, 0)]
    assert sum(rare) == len(wl.FAN_RARE_SLOTS)
    for make_task in (wl.shock_task, wl.rare_task):
        a, b = make_task(7, 1), make_task(7, 1)
        assert all(xa == xb and np.array_equal(ua, ub)
                   for (xa, ua), (xb, ub) in zip(a.jumps, b.jumps))


def test_checks_reject_wrong_outputs():
    pair = wl.fan_task(4, 0)[wl.FAN_RARE_SLOTS[0]]
    fan, diagnostics, samples = wl.fan_item(pair)
    assert wl.fan_check(pair, (fan, diagnostics, samples))
    shifted = [(xi, state + np.array([0.0, 1e-9, 0.0])) for xi, state in samples]
    assert not wl.fan_check(pair, (fan, diagnostics, shifted))

    item = next(it for it in wl.certify_task(4, 0) if it[0] == "22")
    report = wl.certify_item(item)
    assert wl.certify_check(item, report)
    sigma, s_mid, tau = report.outgoing
    moved = dataclasses.replace(report, outgoing=(sigma, s_mid * (1 + 1e-15), tau))
    assert not wl.certify_check(item, moved)


def test_percentiles_are_taken_per_task_and_averaged():
    fast, slow = [0.001, 0.002, 0.003], [0.007, 0.008, 0.009]
    # over all items the median would jump from 3 ms to 7 ms as the slow
    # tasks become the majority; the average of the task medians moves by thirds
    assert task_percentile_ms([fast, fast, slow], 50) == pytest.approx(4.0)
    assert task_percentile_ms([fast, slow, slow], 50) == pytest.approx(6.0)
    assert task_percentile_ms([fast], 90) == pytest.approx(2.8)


def test_burgers_v_is_the_exact_scalar_fan():
    assert wl.burgers_v(0.3, 0.1, 0.39) == 0.3
    assert wl.burgers_v(0.3, 0.1, 0.41) == 0.1
    assert wl.burgers_v(0.1, 0.3, 0.4) == 0.2
    assert wl.burgers_v(0.1, 0.3, -1.0) == 0.1
    assert wl.burgers_v(0.1, 0.3, 1.0) == 0.3


def test_tracer_wraps_every_binding_and_restores_it():
    bound = [(wc, "flux_fn"), (wc, "jacobian"), (wc, "eigenvalues"), (wc, "r2_direction"),
             (rm, "eigenvalues"), (ft, "solve_riemann"), (ft, "eigenvalues"),
             (ft, "flux_fn"), (ia, "solve_riemann"), (fx, "jacobian")]
    originals = [getattr(mod, attr) for mod, attr in bound]
    tracer = Tracer().install()
    try:
        assert all(hasattr(getattr(mod, attr), "__wrapped__") for mod, attr in bound)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bound, originals))


def test_tracer_counts_inner_calls_and_self_time():
    params = fx.ModelParams(1e-3)
    base = np.array([0.1, 0.0, -0.1])
    tracer = Tracer().install()
    try:
        tracer.timed_call(lambda s: wc.wave_fan_curve(2, base, s, params), 0.1, wl.timed_call)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["wavecurves.rk4_steps"][0] == 100
    assert metrics["wavecurves.rarefaction.calls"][0] == 1
    assert metrics["flux.r2_direction.calls"][0] == 400
    assert metrics["flux.jacobian.calls"][0] == 400
    assert tracer.leaf["flux.r2_direction", "flux.jacobian"][0] == 400
    (item,) = [s for s in tracer.spans if s[1] == "item"]
    total = item[4] - item[3]
    assert 0.0 < metrics["flux.r2_direction.self_s"][0] < total
    assert sum(tracer.self_s.values()) + item[5] == pytest.approx(total, rel=1e-9)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOAD_SPECS) == list(WORKLOADS)
    tracer_names = set(Tracer().metrics()) | set(wl.TrackerStats().metrics())
    tracer_names.add("trace.overhead_ratio")
    assert {m["name"] for m in spec["per_layer"]} == tracer_names
