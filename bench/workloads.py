"""The four seeded workloads of the benchmark: inputs, items and output checks.

A workload is a stream of *tasks* drawn from `(seed, k)`.  A task is the unit
the run loop finishes before it looks at the clock again:

* `certify` and `fan`: a block of independent items whose mix of item kinds
  is fixed, so every run holds the same shares of cheap and costly items;
* `track_shock` and `track_rare`: one tracker instance, run for a fixed event
  budget.  Its `init_from_piecewise` is preparation, not an item.

Items call the same library functions, in the same order, as the CLI command
they stand for.  See NOTES.md for why each workload exists.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from bjsystem import fronttrack as ft
from bjsystem import interactions as ia
from bjsystem import riemann as rm
from bjsystem import wavecurves as wc
from bjsystem.errors import (
    ContractionError,
    ConvergenceError,
    DomainError,
    HyperbolicityError,
)
from bjsystem.flux import ModelParams

# An item that raises one of these counts as failed; anything else is a bug in
# the benchmark and propagates.
ITEM_ERRORS = (ConvergenceError, ContractionError, HyperbolicityError, DomainError)

def task_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def task_seed(seed: int, k: int) -> int:
    """An integer seed for library samplers that take one (`sample_scenarios_*`)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def log_uniform(rng, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


# ---------------------------------------------------------------------------
# certify: the `verify bounds12` and `verify pattern22` traffic at CLI defaults

CERTIFY_ETA = ia.DEFAULT_ETA_12
# Two 2-2 items for every 1-2 item.  The 2-2 items all do the same work (seven
# Hugoniot Newton solves) and cost about 2.4 ms; the 1-2 items cost 3.7-4.6 ms
# in groups set by their Hugoniot Newton iterations.  With this mix the median
# falls inside the uniform 2-2 group and the 90th percentile inside the
# largest 1-2 group.  At three 1-2 items per 2-2 item the median fell between
# two small 1-2 groups and moved by a fifth between runs of the same seed.
CERTIFY_REPEATS = 10


def certify_task(seed: int, k: int) -> list:
    s = task_seed(seed, k)
    s12 = ia.sample_scenarios_12(CERTIFY_REPEATS, eta=CERTIFY_ETA, seed=s)
    s22 = ia.sample_scenarios_22(2 * CERTIFY_REPEATS, seed=s)
    items = []
    for j in range(CERTIFY_REPEATS):
        items += [("12", s12[j]), ("22", s22[2 * j]), ("22", s22[2 * j + 1])]
    return items


def certify_item(item):
    """The loop body of `verify_bounds_12` for 1-2 items; `interact_22` for 2-2."""
    kind, sc = item
    if kind == "22":
        return ia.interact_22(sc)
    report = ia.interact_12(sc)
    contraction = ia.contraction_solve_12(sc)
    agreement = float(
        np.linalg.norm(contraction.x - np.array([report.outgoing[0], report.outgoing[2]]))
    )
    return ia.Bounds12Record(
        scenario=sc, report=report, contraction=contraction, oracle_agreement=agreement
    )


def certify_check(item, out) -> bool:
    kind, sc = item
    if kind == "22":
        return out.pattern == "SSS" and out.outgoing[1] == sc.s1 + sc.s2
    return out.passed


# ---------------------------------------------------------------------------
# fan: the `riemann --sample` traffic

# One block of 20 pairs, as (eta, wave kinds of families 1, 2, 3).  At eta = 0
# the outer waves are contacts whichever their sign.  Sorted by cost the block
# is: 5 pairs at eta = 0 without a 2-rarefaction (about 2 ms), 2 shock-only
# pairs at eta > 0 (5 ms), 8 pairs with one outer rarefaction (10-25 ms, one
# bisection sampling), 2 with two (20-35 ms) and 3 with a 2-rarefaction
# (0.5-0.7 s, RK4).  So the median falls inside the one-outer-rarefaction
# group and the 90th percentile inside the 2-rarefaction group, away from the
# edges between costs.
FAN_BLOCK = (
    (0.0, "SSS"), (0.0, "RSR"), (0.0, "SSR"), (0.0, "RSS"), (0.0, "SSS"),
    (0.05, "SSS"), (0.2, "SSS"),
    (0.05, "SSR"), (0.2, "SSR"), (0.05, "SSR"), (0.2, "SSR"),
    (0.05, "RSS"), (0.2, "RSS"), (0.05, "RSS"), (0.2, "RSS"),
    (0.05, "RSR"), (0.2, "RSR"),
    (0.0, "SRS"), (0.05, "RRS"), (0.2, "SRR"),
)
FAN_RARE_SLOTS = tuple(j for j, (_, kinds) in enumerate(FAN_BLOCK) if kinds[1] == "R")
FAN_RARE_STRATA = 6
FAN_RADIUS = 0.9
# |s2| of 2-rarefactions spans both regimes of the RK4 step rule
# max(64, ceil(|s| / ODE_STEP)), which switch at |s| = 0.064.
FAN_RARE_RANGE = (2e-3, 0.12)
FAN_SHOCK_RANGE = (1e-3, 0.12)
FAN_OUTER_RANGE = (1e-3, 0.1)
FAN_RESIDUAL_TOL = 1e-12
ORACLE_TOL = 1e-10

_SHOCK_SIGN = {1: -1.0, 2: -1.0, 3: 1.0}


@dataclass(frozen=True)
class FanPair:
    Ul: np.ndarray
    Ur: np.ndarray
    params: ModelParams


def _fan_pair(rng, eta: float, kinds: str, rare_rank: int) -> FanPair:
    """Right state reached from Ul through one wave of each family, of the given kinds."""
    params = ModelParams(eta)
    signs = [_SHOCK_SIGN[fam] * (1.0 if kind == "S" else -1.0)
             for fam, kind in zip((1, 2, 3), kinds)]
    while True:
        direction = rng.normal(size=3)
        Ul = 0.6 * rng.uniform() ** (1.0 / 3.0) * direction / np.linalg.norm(direction)
        s1, s3 = log_uniform(rng, *FAN_OUTER_RANGE, size=2)
        if kinds[1] == "S":
            s2 = log_uniform(rng, *FAN_SHOCK_RANGE)
        else:
            # stratified so that every two blocks cover the whole range of |s2|
            lo, hi = map(math.log, FAN_RARE_RANGE)
            u = (rare_rank % FAN_RARE_STRATA + rng.uniform()) / FAN_RARE_STRATA
            s2 = math.exp(lo + u * (hi - lo))
        UA = wc.wave_fan_curve(1, Ul, signs[0] * float(s1), params).state
        UB = wc.wave_fan_curve(2, UA, signs[1] * float(s2), params).state
        Ur = wc.wave_fan_curve(3, UB, signs[2] * float(s3), params).state
        if max(np.linalg.norm(U) for U in (UA, UB, Ur)) < FAN_RADIUS:
            return FanPair(Ul=Ul, Ur=Ur, params=params)


def fan_task(seed: int, k: int) -> list:
    rng = task_rng(seed, k)
    rare_rank = k * len(FAN_RARE_SLOTS)
    pairs = []
    for eta, kinds in FAN_BLOCK:
        pairs.append(_fan_pair(rng, eta, kinds, rare_rank))
        rare_rank += kinds[1] == "R"
    return pairs


def sample_points(fan) -> list:
    """Midpoint of every rarefaction and of every constant state of the fan.

    The outermost constant states are unbounded; they are sampled one unit of
    speed beyond the outermost wave.
    """
    waves = fan.waves
    if not waves:
        return [0.0]
    xs = [waves[0].min_speed - 1.0]
    for k, wave in enumerate(waves):
        if wave.kind == rm.RAREFACTION:
            xs.append(0.5 * (wave.min_speed + wave.max_speed))
        if k + 1 < len(waves):
            xs.append(0.5 * (wave.max_speed + waves[k + 1].min_speed))
    xs.append(waves[-1].max_speed + 1.0)
    return xs


def fan_item(pair: FanPair):
    fan = rm.solve_riemann(pair.Ul, pair.Ur, pair.params)
    diagnostics = rm.check_fan(fan, pair.params)
    samples = [(xi, rm.evaluate_fan(fan, xi)) for xi in sample_points(fan)]
    return fan, diagnostics, samples


def burgers_v(v_left: float, v_right: float, xi: float) -> float:
    """Exact self-similar solution of v_t + (v^2)_x = 0 at xi = x / t."""
    if v_left > v_right:
        return v_left if xi < v_left + v_right else v_right
    return min(max(0.5 * xi, v_left), v_right)


def fan_check(pair: FanPair, out) -> bool:
    fan, diagnostics, samples = out
    if not diagnostics.ok:
        return False
    if fan.residual > FAN_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(pair.Ur[[0, 2]]))):
        return False
    v_left, v_right = pair.Ul[1], pair.Ur[1]
    return all(
        abs(state[1] - burgers_v(v_left, v_right, xi)) <= ORACLE_TOL for xi, state in samples
    )


# ---------------------------------------------------------------------------
# tracker workloads

BALANCE_TOL = 1e-10
CHAIN_TOL = 1e-12
WEAK_FRONT = 1e-10
ORACLE_EVERY = 25


@dataclass(frozen=True)
class TrackerInstance:
    U_left: np.ndarray
    jumps: list
    params: ModelParams
    delta: float
    budget: int
    gate_balance: bool
    gate_chain: bool


def _build_jumps(U_left, layout, params):
    """Jumps whose states follow the wave curves: layout is (x, family, s)."""
    cur = U_left
    jumps = []
    for x, fam, s in layout:
        cur = wc.wave_fan_curve(fam, cur, s, params).state
        jumps.append((x, cur))
    return jumps


def _positions(rng, n: int) -> np.ndarray:
    """n positions on [-1, 1], one per cell of an even grid, so no two coincide."""
    return -1.0 + (np.arange(n) + rng.uniform(0.4, 0.6, n)) * (2.0 / n)


# track_shock: 42 shocks, 14 of each family, in a seeded order.
SHOCK_ETA = 1e-4
SHOCK_COUNT = 42
SHOCK_RANGE = (1e-3, 1e-2)
SHOCK_BUDGET = 1500


def shock_task(seed: int, k: int) -> TrackerInstance:
    rng = task_rng(seed, k)
    params = ModelParams(SHOCK_ETA)
    U_left = np.array([0.25, 0.1, -0.25]) + rng.uniform(-0.05, 0.05, 3)
    families = rng.permutation(np.resize([1, 2, 3], SHOCK_COUNT))
    strengths = log_uniform(rng, *SHOCK_RANGE, size=SHOCK_COUNT)
    layout = [
        (float(x), int(fam), _SHOCK_SIGN[int(fam)] * float(s))
        for x, fam, s in zip(_positions(rng, SHOCK_COUNT), families, strengths)
    ]
    return TrackerInstance(
        U_left=U_left,
        jumps=_build_jumps(U_left, layout, params),
        params=params,
        delta=ft.DELTA_DEFAULT,
        budget=SHOCK_BUDGET,
        gate_balance=True,
        gate_chain=False,
    )


# track_rare: one weak 3-wave followed by eleven 2-rarefactions, at nominal
# strengths that the seed jitters by up to 5 %, with seeded positions and left
# state.  Each 2-rarefaction is 2.5 delta strong, so the jitter never changes
# its piece count (3).  The 3-wave crossing the pieces emits weak 1-waves that
# cross them again.  Every crossing of a piece is an RK4-heavy event: a Riemann
# solve with five 2-rarefaction curve evaluations, a few with eight.  Over 300
# events they are 41-43 % of all events, the same share for every seed; the
# rest are 1-3 crossings of 1-2 ms.  So the median falls inside the cheap
# crossings and the 90th percentile inside the RK4 crossings.  With a budget
# of 100 events the RK4 crossings are 55-57 %, which leaves the median in the
# low tail of the RK4 costs, where it moved by a quarter between runs.  A
# stronger 3-wave (8e-3) needs a second Newton iteration per crossing, which
# puts the 90th percentile on the edge between five and eight evaluations.
RARE_ETA = 1e-3
RARE_DELTA = 2e-3
RARE_LAYOUT = ((3, 1e-3),) + ((2, 5e-3),) * 11
RARE_JITTER = 0.05
RARE_BUDGET = 300


def rare_task(seed: int, k: int) -> TrackerInstance:
    rng = task_rng(seed, k)
    params = ModelParams(RARE_ETA)
    U_left = np.array([0.2, 0.0, -0.2]) + rng.uniform(-0.05, 0.05, 3)
    n = len(RARE_LAYOUT)
    scale = 1.0 + RARE_JITTER * rng.uniform(-1.0, 1.0, n)
    layout = [
        (float(x), fam, s * float(c))
        for x, (fam, s), c in zip(_positions(rng, n), RARE_LAYOUT, scale)
    ]
    return TrackerInstance(
        U_left=U_left,
        jumps=_build_jumps(U_left, layout, params),
        params=params,
        delta=RARE_DELTA,
        budget=RARE_BUDGET,
        gate_balance=False,
        gate_chain=True,
    )


def tracker_prepare(inst: TrackerInstance):
    return ft.init_from_piecewise(inst.jumps, inst.U_left, inst.params, delta=inst.delta)


def tracker_event(st):
    """One event, as in the loop of `fronttrack.run`; None when nothing collides."""
    candidate = ft.next_collision(st)
    if candidate is None:
        return None
    ft.resolve_collision(st, candidate)
    return ft.observables(st)


def chain_gap(st) -> tuple:
    """(largest adjacent-state mismatch, number of inexact adjacencies)."""
    states = [st.left_boundary_state] + [f.right for f in st.fronts]
    lefts = [f.left for f in st.fronts]
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(states, lefts)]
    return max(gaps, default=0.0), sum(g != 0.0 for g in gaps)


def v_projection_mismatch(st, oracle, t: float) -> float:
    """Largest position or value gap between the system's v-fronts and the oracle's.

    Both sides list the v-jumps alive just after t.  Jumps below the
    comparison tolerance are left out on both sides: a v-step of an ulp is
    within tolerance of no step at all.
    """
    system = sorted(
        (f.position(t), f.left[1], f.right[1])
        for f in st.dead_fronts + st.fronts
        if f.birth_t <= t
        and (f.death_t is None or f.death_t > t)
        and abs(f.right[1] - f.left[1]) > ORACLE_TOL
    )
    reference = [row for row in oracle.fronts_at(t) if abs(row[2] - row[1]) > ORACLE_TOL]
    if len(system) != len(reference):
        return math.inf
    return max(
        (max(abs(a - b) for a, b in zip(ra, rb)) for ra, rb in zip(system, reference)),
        default=0.0,
    )


def burgers_reference(inst: TrackerInstance, t_end: float):
    """The scalar oracle on the v-projection of the instance's initial data."""
    v_jumps = []
    v_cur = inst.U_left[1]
    for x, U in inst.jumps:
        if U[1] != v_cur:
            v_jumps.append((x, U[1]))
            v_cur = U[1]
    return ft.burgers_oracle(inst.U_left[1], v_jumps, t_end, delta=inst.delta)


@dataclass
class TrackerStats:
    """Counts that explain the per-event cost of the tracker workloads."""

    instances: int = 0
    events: int = 0
    fronts_born: int = 0
    fronts_sum: int = 0
    fronts_final: int = 0
    weak_final: int = 0
    other_events: int = 0
    late_events: int = 0
    sim_time: float = 0.0
    balance_drift: float = 0.0
    chain_breaks: int = 0

    def add(self, st, series, drift: float):
        log = st.event_log
        self.instances += 1
        self.events += len(log)
        self.fronts_born += len(st.dead_fronts) + len(st.fronts)
        self.fronts_sum += sum(rec.n_fronts for rec in series[1:])
        self.fronts_final += len(st.fronts)
        self.weak_final += sum(abs(f.strength) < WEAK_FRONT for f in st.fronts)
        self.other_events += sum(ev.classification == "other" for ev in log)
        if log:
            t_last = log[-1].time
            self.late_events += sum(ev.time >= 0.9 * t_last for ev in log)
        self.sim_time += st.time
        self.balance_drift = max(self.balance_drift, drift)
        self.chain_breaks += chain_gap(st)[1]

    def metrics(self) -> dict:
        n = max(self.instances, 1)
        events = max(self.events, 1)
        return {
            "fronttrack.events": (self.events, "count"),
            "fronttrack.fronts_born": (self.fronts_born, "count"),
            "fronttrack.fronts_mean": (self.fronts_sum / events, "count"),
            "fronttrack.fronts_final": (self.fronts_final / n, "count"),
            "fronttrack.weak_front_share": (self.weak_final / max(self.fronts_final, 1), "1"),
            "fronttrack.event_share_other": (self.other_events / events, "1"),
            "fronttrack.late_event_share": (self.late_events / events, "1"),
            "fronttrack.sim_time": (self.sim_time / n, "1"),
            "fronttrack.balance_drift": (self.balance_drift, "1"),
            "fronttrack.chain_breaks": (self.chain_breaks, "count"),
        }


@dataclass
class Outcome:
    """Per-item wall times and failures of one run phase."""

    times: list = field(default_factory=list)
    failed: int = 0
    tracker: TrackerStats = field(default_factory=TrackerStats)


def timed_call(fn, arg):
    """(result, seconds, error) of fn(arg); an ITEM_ERRORS exception is the error."""
    t0 = time.perf_counter()
    try:
        out = fn(arg)
    except ITEM_ERRORS as exc:
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


def run_items(task, item_fn, check_fn, outcome: Outcome, timed=timed_call):
    """Time item_fn on every item of a block; check outside the timed span."""
    for item in task:
        out, seconds, error = timed(item_fn, item)
        outcome.times.append(seconds)
        if error is not None or not check_fn(item, out):
            outcome.failed += 1


def run_instance(inst: TrackerInstance, st, outcome: Outcome, timed=timed_call):
    """Advance one prepared instance for its event budget, timing each event."""
    series = [ft.observables(st)]
    base = np.array(series[0].balance)
    drift = 0.0
    checkpoints = []  # event times at which the v-projection is compared
    last_checked = True
    for n in range(inst.budget):
        rec, seconds, error = timed(tracker_event, st)
        if error is None and rec is None:
            break
        outcome.times.append(seconds)
        if error is not None:
            outcome.failed += 1
            break
        series.append(rec)
        step_drift = float(np.max(np.abs(np.array(rec.balance) - base)))
        drift = max(drift, step_drift)
        ok = step_drift <= BALANCE_TOL or not inst.gate_balance
        if inst.gate_chain:
            ok = ok and chain_gap(st)[0] <= CHAIN_TOL
        last_checked = not ok or n % ORACLE_EVERY == ORACLE_EVERY - 1
        if not ok:
            outcome.failed += 1
        elif last_checked:
            checkpoints.append(rec.time)
    if not last_checked:
        checkpoints.append(series[-1].time)
    if checkpoints:
        oracle = burgers_reference(inst, st.time + 1.0)
        outcome.failed += sum(
            bool(v_projection_mismatch(st, oracle, t) > ORACLE_TOL) for t in checkpoints
        )
    outcome.tracker.add(st, series, drift)
    return st, series


@dataclass(frozen=True)
class Workload:
    """How to draw, prepare and run the tasks of one workload."""

    make_task: object
    trace_tasks: int
    prepare: object = None
    item_fn: object = None
    check_fn: object = None

    def run_task(self, task, prepared, outcome: Outcome, timed=timed_call):
        if self.prepare is None:
            run_items(task, self.item_fn, self.check_fn, outcome, timed)
        else:
            run_instance(task, prepared, outcome, timed)


# trace_tasks: the fixed work of a traced run, at least 100 items.
WORKLOAD_SPECS = {
    "certify": Workload(certify_task, 20, item_fn=certify_item, check_fn=certify_check),
    "fan": Workload(fan_task, 5, item_fn=fan_item, check_fn=fan_check),
    "track_shock": Workload(shock_task, 2, prepare=tracker_prepare),
    "track_rare": Workload(rare_task, 2, prepare=tracker_prepare),
}
