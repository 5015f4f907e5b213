"""Front-tracking tests: initialization, kinematics, collisions, oracles."""

import numpy as np
import pytest

import bjsystem.fronttrack as ft
import bjsystem.wavecurves as wc
from bjsystem.errors import DomainError
from bjsystem.flux import ModelParams

import oracles

P0 = ModelParams(0.0)


def make_plain_front(uid, x, speed, birth_t=0.0):
    """Synthetic front for pure kinematics tests."""
    zero = np.zeros(3)
    return ft.Front(
        uid=uid, family=2, kind="shock", strength=-0.1, left=zero, right=zero,
        speed=speed, birth_x=x, birth_t=birth_t,
    )


def kinematic_state(fronts):
    return ft.TrackerState(
        params=ft.TrackerParams(model=P0),
        time=0.0,
        fronts=fronts,
        left_boundary_state=np.zeros(3),
    )


def two_shock_wall(U0, positions, strengths, params):
    jumps = []
    cur = U0
    for x, s in zip(positions, strengths):
        cur = wc.wave_fan_curve(2, cur, s, params).state
        jumps.append((x, cur))
    return jumps


def test_init_single_2_shock():
    U0 = np.array([0.2, 0.3, -0.2])
    jumps = two_shock_wall(U0, [0.0], [-0.1], P0)
    st = ft.init_from_piecewise(jumps, U0, P0)
    assert len(st.fronts) == 1
    front = st.fronts[0]
    assert front.family == 2
    assert abs(front.speed - (2.0 * 0.3 - 0.1)) <= 1e-12


def test_init_no_jumps():
    st = ft.init_from_piecewise([], np.zeros(3), P0)
    assert st.fronts == []
    assert ft.next_collision(st) is None


def test_init_splits_rarefaction():
    U0 = np.array([0.1, -0.1, 0.05])
    target = wc.wave_fan_curve(2, U0, 0.05, P0).state
    st = ft.init_from_piecewise([(0.0, target)], U0, P0, delta=0.01)
    assert len(st.fronts) == 5
    speeds = [f.speed for f in st.fronts]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    assert all(abs(f.strength - 0.01) <= 1e-15 for f in st.fronts)


def test_init_rejects_unsorted_positions():
    with pytest.raises(DomainError):
        ft.init_from_piecewise([(1.0, np.zeros(3)), (0.0, np.zeros(3))], np.zeros(3), P0)


def test_collision_time_head_on():
    st = kinematic_state([make_plain_front(0, -1.0, 1.0), make_plain_front(1, 1.0, -1.0)])
    cand = ft.next_collision(st)
    assert abs(cand.time - 1.0) <= 1e-14
    assert abs(cand.position - 0.0) <= 1e-14
    assert cand.front_ids == (0, 1)


def test_collision_none_for_parallel_fronts():
    st = kinematic_state([make_plain_front(0, -1.0, 0.5), make_plain_front(1, 1.0, 0.5)])
    assert ft.next_collision(st) is None


def test_collision_merges_triple_point():
    st = kinematic_state(
        [
            make_plain_front(0, -1.0, 1.0),
            make_plain_front(1, 0.0, 0.0),
            make_plain_front(2, 1.0, -1.0),
        ]
    )
    cand = ft.next_collision(st)
    assert cand.front_ids == (0, 1, 2)
    assert abs(cand.time - 1.0) <= 1e-12 and abs(cand.position) <= 1e-12


def test_collision_ties_resolve_left_to_right():
    # two disjoint simultaneous collisions; the left pair must win
    st = kinematic_state(
        [
            make_plain_front(0, -2.0, 1.0),
            make_plain_front(1, -1.0, -1.0),
            make_plain_front(2, 1.0, 1.0),
            make_plain_front(3, 2.0, -1.0),
        ]
    )
    cand = ft.next_collision(st)
    assert cand.front_ids == (0, 1)
    assert abs(cand.position + 1.5) <= 1e-12


def test_resolve_22_collision_gives_three_shocks():
    params = ModelParams(1e-4)
    a = 0.25
    U0 = np.array([a, 0.004, -a])
    jumps = two_shock_wall(U0, [-0.1, 0.1], [-2e-3, -2.2e-3], params)
    st = ft.init_from_piecewise(jumps, U0, params)
    cand = ft.next_collision(st)
    ft.resolve_collision(st, cand)
    assert len(st.event_log) == 1
    event = st.event_log[0]
    assert event.classification == "22"
    assert [f.family for f in st.fronts] == [1, 2, 3]
    assert all(f.kind == "shock" for f in st.fronts)


def test_resolve_cancellation_empties_fan():
    # head-on fronts with equal outer states resolve to nothing
    U0 = np.array([0.1, 0.2, -0.1])
    Um = wc.wave_fan_curve(2, U0, -0.1, P0).state
    left = make_plain_front(0, -1.0, 1.0)
    left.left, left.right = U0, Um
    right = make_plain_front(1, 1.0, -1.0)
    right.left, right.right = Um, U0
    st = kinematic_state([left, right])
    st.left_boundary_state = U0
    cand = ft.next_collision(st)
    ft.resolve_collision(st, cand)
    assert st.fronts == []
    assert st.event_log[0].outgoing == ()


def test_run_constant_data():
    st = ft.init_from_piecewise([], np.array([0.1, 0.0, -0.1]), P0)
    st, series = ft.run(st, 1.0)
    assert len(st.event_log) == 0
    assert len(series) == 1
    assert st.time == 1.0


def test_run_two_approaching_2_shocks():
    params = ModelParams(1e-4)
    U0 = np.array([0.25, 0.004, -0.25])
    jumps = two_shock_wall(U0, [-0.1, 0.1], [-2e-3, -2.2e-3], params)
    st = ft.init_from_piecewise(jumps, U0, params)
    st, series = ft.run(st, 1e4)
    assert len(st.event_log) == 1
    assert series[-1].n_fronts == 3


def test_run_cascade_order_matches_hand_enumeration():
    # 2-shock speeds 0.5, 0.3, 0.1 from positions 0, 0.5, 0.8: the right pair
    # meets first at t = 1.5, x = 0.95; the emitted 1-wave (speed -4) then
    # meets the left 2-shock at t = 6.95 / 4.5
    U0 = np.array([0.2, 0.3, -0.2])
    jumps = two_shock_wall(U0, [0.0, 0.5, 0.8], [-0.1, -0.1, -0.1], P0)
    st = ft.init_from_piecewise(jumps, U0, P0)
    st, _ = ft.run(st, 1.52)
    assert [e.classification for e in st.event_log] == ["22"]
    assert abs(st.event_log[0].time - 1.5) <= 1e-9
    assert abs(st.event_log[0].position - 0.95) <= 1e-9

    st2 = ft.init_from_piecewise(jumps, U0, P0)
    st2, _ = ft.run(st2, 1.57)
    assert [e.classification for e in st2.event_log] == ["22", "12"]
    assert abs(st2.event_log[1].time - 6.95 / 4.5) <= 1e-9

    # the 3-wave emitted at the second event catches the merged 2-shock next
    st3 = ft.init_from_piecewise(jumps, U0, P0)
    st3, _ = ft.run(st3, 1.60)
    assert [e.classification for e in st3.event_log] == ["22", "12", "23"]
    assert abs(st3.event_log[2].time - 6.0555555555555555 / 3.8) <= 1e-8


def test_front_ordering_preserved():
    params = ModelParams(1e-4)
    U0 = np.array([0.25, 0.006, -0.25])
    jumps = two_shock_wall(U0, [-0.3, -0.1, 0.1], [-2e-3, -2.4e-3, -2.8e-3], params)
    st = ft.init_from_piecewise(jumps, U0, params)
    st, _ = ft.run(st, 1e4, max_events=12)
    for t_probe in (st.time, st.time + 1.0):
        xs = st.positions(t_probe)
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
    for a, b in zip(st.fronts, st.fronts[1:]):
        assert np.array_equal(a.right, b.left)


def _conservation_scenario(params):
    a = 0.25
    U0 = np.array([a, 0.008, -a])
    cur = U0
    jumps = []
    for x, s in zip([-0.30, -0.22, -0.12], [-2.0e-3, -2.5e-3, -2.2e-3]):
        cur = wc.wave_fan_curve(2, cur, s, params).state
        jumps.append((x, cur))
    cur = wc.wave_fan_curve(1, cur, -3.0e-3, params).state
    jumps.append((0.4, cur))
    return jumps, U0


def test_flux_corrected_balance_is_conserved():
    params = ModelParams(1e-4)
    jumps, U0 = _conservation_scenario(params)
    st = ft.init_from_piecewise(jumps, U0, params)
    st, series = ft.run(st, 1e4, max_events=15)
    assert len(st.event_log) == 15
    base = np.array(series[0].balance)
    drift = max(float(np.max(np.abs(np.array(r.balance) - base))) for r in series)
    assert drift <= 1e-10


def test_v_component_matches_scalar_oracle():
    params = ModelParams(1e-4)
    jumps, U0 = _conservation_scenario(params)
    st = ft.init_from_piecewise(jumps, U0, params)
    st, series = ft.run(st, 1e4, max_events=15)

    v_jumps = []
    cur_v = U0[1]
    for x, U in jumps:
        if U[1] != cur_v:
            v_jumps.append((x, U[1]))
            cur_v = U[1]
    oracle = ft.burgers_oracle(U0[1], v_jumps, st.time + 1.0)

    worst = 0.0
    for rec in series[1:]:
        t = rec.time
        system = sorted(
            (f.position(t), f.left[1], f.right[1])
            for f in st.dead_fronts + st.fronts
            if f.birth_t <= t
            and (f.death_t is None or f.death_t > t)
            and f.right[1] != f.left[1]
        )
        reference = oracle.fronts_at(t)
        assert len(system) == len(reference)
        for (xa, la, ra), (xb, lb, rb) in zip(system, reference):
            worst = max(worst, abs(xa - xb), abs(la - lb), abs(ra - rb))
    assert worst <= 1e-10


def test_run_is_deterministic():
    params = ModelParams(1e-4)
    jumps, U0 = _conservation_scenario(params)
    logs = []
    for _ in range(2):
        st = ft.init_from_piecewise(jumps, U0, params)
        st, _ = ft.run(st, 1e4, max_events=12)
        logs.append([(e.time, e.position, e.classification, e.incoming, e.outgoing)
                     for e in st.event_log])
    assert logs[0] == logs[1]


def test_truncation_flag():
    params = ModelParams(1e-4)
    jumps, U0 = _conservation_scenario(params)
    st = ft.init_from_piecewise(jumps, U0, params)
    st, _ = ft.run(st, 1e4, max_events=3)
    assert st.truncated
    assert len(st.event_log) == 3


def test_run_rejects_past_horizon():
    st = ft.init_from_piecewise([], np.zeros(3), P0)
    st.time = 2.0
    with pytest.raises(DomainError):
        ft.run(st, 1.0)


def _seeded_jumps(rng, U0, layout, params):
    """Jumps following the wave curves; layout is (family, s) per jump on [-1, 1]."""
    xs = -1.0 + (np.arange(len(layout)) + rng.uniform(0.4, 0.6, len(layout))) * (2.0 / len(layout))
    cur = U0
    jumps = []
    for x, (fam, s) in zip(xs, layout):
        cur = wc.wave_fan_curve(fam, cur, s, params).state
        jumps.append((float(x), cur))
    return jumps


def _assert_chain_exact(st):
    if st.fronts:
        assert np.array_equal(st.fronts[0].left, st.left_boundary_state)
    for a, b in zip(st.fronts, st.fronts[1:]):
        assert np.array_equal(a.right, b.left)


def _assert_observables_match_loop(st, n_events):
    assert repr(ft.observables(st)) == repr(oracles.observables_loop(st))
    _assert_chain_exact(st)
    for _ in range(n_events):
        ft.resolve_collision(st, ft.next_collision(st))
        assert repr(ft.observables(st)) == repr(oracles.observables_loop(st))
        _assert_chain_exact(st)


def test_observables_equal_the_loop_on_a_shock_run():
    params = ModelParams(1e-4)
    rng = np.random.default_rng(808)
    families = rng.permutation(np.resize([1, 2, 3], 30))
    strengths = 10.0 ** rng.uniform(-3.0, -2.0, 30)
    layout = [(int(f), (1.0 if f == 3 else -1.0) * s) for f, s in zip(families, strengths)]
    U0 = np.array([0.25, 0.1, -0.25])
    st = ft.init_from_piecewise(_seeded_jumps(rng, U0, layout, params), U0, params)
    _assert_observables_match_loop(st, 200)


def test_2_shock_fronts_move_at_v_left_plus_v_right():
    # the scalar oracle's shock speed, bit for bit, on a long run of weak shocks
    params = ModelParams(1e-4)
    rng = np.random.default_rng(810)
    families = rng.permutation(np.resize([1, 2, 3], 42))
    strengths = 10.0 ** rng.uniform(-3.0, -2.0, 42)
    layout = [(int(f), (1.0 if f == 3 else -1.0) * s) for f, s in zip(families, strengths)]
    U0 = np.array([0.25, 0.1, -0.25]) + rng.uniform(-0.05, 0.05, 3)
    st = ft.init_from_piecewise(_seeded_jumps(rng, U0, layout, params), U0, params)
    for _ in range(400):
        ft.resolve_collision(st, ft.next_collision(st))
    shocks = [f for f in st.dead_fronts + st.fronts if f.family == 2 and f.kind == "shock"]
    assert len(shocks) >= 100
    assert all(f.speed == f.left[1] + f.right[1] for f in shocks)


def test_observables_equal_the_loop_on_a_rarefaction_run():
    params = ModelParams(1e-3)
    rng = np.random.default_rng(809)
    layout = [(3, 1e-3)] + [(2, 5e-3)] * 6
    U0 = np.array([0.2, 0.0, -0.2])
    st = ft.init_from_piecewise(_seeded_jumps(rng, U0, layout, params), U0, params, delta=2e-3)
    _assert_observables_match_loop(st, 100)


@pytest.mark.parametrize("n_fronts", [0, 1, 2])
def test_observables_equal_the_loop_with_few_fronts(n_fronts):
    params = ModelParams(0.05)
    U0 = np.array([-0.1, 0.2, 0.3])
    jumps = _seeded_jumps(np.random.default_rng(1), U0, [(2, -0.05), (1, -0.02)], params)
    st = ft.init_from_piecewise(jumps[:n_fronts], U0, params)
    assert len(st.fronts) == n_fronts
    st.time = 0.75
    assert repr(ft.observables(st)) == repr(oracles.observables_loop(st))


@pytest.mark.parametrize("x", [0.0, 0.3])
def test_observables_equal_the_loop_at_a_single_jump(x):
    # every front of one jump sits at x at t = 0: each hull term is 0 * (U - U_bg),
    # which is -0.0 wherever U < U_bg; the loop's sums start from +0.0
    params = ModelParams(0.05)
    U0 = np.array([-0.1, -0.2, 0.3])
    (_, U1), (_, U3) = _seeded_jumps(np.random.default_rng(2), U0, [(1, 0.03), (3, 0.03)], params)
    st = ft.init_from_piecewise([(x, U3)], U0, params, delta=0.01)
    terms = 0.0 * (np.array([f.right for f in st.fronts[:-1]]) - U0)
    assert len(st.fronts) == 4 and np.signbit(terms[:, 2]).all()
    assert repr(ft.observables(st)) == repr(oracles.observables_loop(st))


# --- scalar oracle ----------------------------------------------------------


def test_burgers_single_shock_speed():
    oracle = ft.burgers_oracle(0.4, [(0.0, -0.2)], 1.0)
    assert len(oracle.fronts) == 1
    assert oracle.fronts[0].speed == 0.4 + (-0.2)


def test_burgers_constant_data():
    oracle = ft.burgers_oracle(0.3, [], 1.0)
    assert oracle.fronts == [] and oracle.event_times == []


def test_burgers_rarefaction_split():
    oracle = ft.burgers_oracle(0.0, [(0.0, 0.05)], 1.0, delta=0.01)
    assert len(oracle.fronts) == 5
    speeds = [f.speed for f in oracle.fronts]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))


def test_burgers_merging_shocks():
    # shocks at speeds 0.6 and -0.2 from x = 0 and 0.4 merge at t = 0.5
    oracle = ft.burgers_oracle(0.5, [(0.0, 0.1), (0.4, -0.3)], 2.0)
    assert len(oracle.event_times) == 1
    assert abs(oracle.event_times[0] - 0.5) <= 1e-12
    assert len(oracle.fronts) == 1
    assert oracle.fronts[0].speed == 0.5 + (-0.3)
