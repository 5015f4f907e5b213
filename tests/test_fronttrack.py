"""Front-tracking tests: initialization, kinematics, collisions, oracles."""

import dataclasses

import numpy as np
import pytest

import bjsystem.fronttrack as ft
import bjsystem.riemann as rm
import bjsystem.wavecurves as wc
from bjsystem.errors import ConvergenceError, DomainError, HyperbolicityError, TrackerEventError
from bjsystem.flux import ModelParams, eigenvalues

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


def test_init_empty_fan_keeps_the_chain_exact():
    # the middle jump is 3e-14 in u: both of its waves fall below TOL_ZERO, so
    # it emits no front, and the 1-front after it must start where the 2-shock ends
    params = ModelParams(0.05)
    U0 = np.array([0.2, 0.1, -0.2])
    U1 = wc.wave_fan_curve(2, U0, -0.05, params).state
    U2 = U1 + np.array([3e-14, 0.0, 0.0])
    U3 = wc.wave_fan_curve(1, U2, -0.02, params).state
    st = ft.init_from_piecewise([(-0.5, U1), (0.0, U2), (0.5, U3)], U0, params)
    assert [f.family for f in st.fronts] == [2, 1]
    _assert_chain_exact(st)
    assert st.fronts[-1].right is U3


def _emit_wave(st, wave):
    """`ft._emit_fronts` of a fan `Wave` born at (0, 0) with no other live front.

    Checks that the rows it returns are bit-equal to `_rows_for` of its fronts.
    """
    def end(U):
        return U, U.tolist(), float(np.linalg.norm(U))

    core_wave = (wave.family, wave.kind, wave.strength, wave.right.tolist(), wave.speed)
    fronts, rows = ft._emit_fronts(st, core_wave, end(wave.left), end(wave.right), 0.0, 0.0, 0)
    oracles.assert_bit_equal(rows, ft._rows_for(fronts))
    return fronts


def test_emit_fronts_integrates_each_piece_from_the_previous_one(monkeypatch):
    params = ModelParams(0.05)
    base = np.array([0.1, -0.05, 0.1])
    right = wc.rarefaction(2, base, 0.1, params).state
    wave = oracles.make_wave(2, 0.1, base, right, params)
    st = ft.TrackerState(
        params=ft.TrackerParams(model=params, delta=1e-3),
        time=0.0,
        fronts=[],
        left_boundary_state=base,
    )
    calls = []
    rhs = wc._r2_line_at

    def counting_rhs(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(wc, "_r2_line_at", counting_rhs)
    fronts = _emit_wave(st, wave)
    monkeypatch.undo()
    assert len(fronts) == 100
    assert len(calls) <= 7 * len(fronts)
    assert fronts[0].left is base and fronts[-1].right is right
    assert all(f.speed == float(eigenvalues(f.left, params)[1]) for f in fronts)
    st.fronts = fronts
    _assert_chain_exact(st)
    for k, f in enumerate(fronts[:-1], start=1):
        assert np.max(np.abs(f.right - wc.rarefaction(2, base, k * wave.strength / 100, params).state)) <= 1e-13


def test_init_rejects_unsorted_positions():
    with pytest.raises(DomainError):
        ft.init_from_piecewise([(1.0, np.zeros(3)), (0.0, np.zeros(3))], np.zeros(3), P0)


@pytest.mark.parametrize(
    "u_left, jumps, named",
    [
        # without the check, the Riemann solve of jump 1 raises ConvergenceError
        ([0.1, 0.0, -0.1], [(0.0, [0.1, 0.1, -0.1]), (0.5, [3.0, 1.9, 2.0])],
         "state of jump 1 (x=0.5) violates |U| < 1: [3.0, 1.9, 2.0]"),
        ([0.6, 0.6, 0.6], [(0.5, [0.1, 0.0, -0.1])], "u_left violates |U| < 1: [0.6, 0.6, 0.6]"),
    ],
)
def test_init_refuses_a_state_outside_the_ball_before_any_solve(monkeypatch, u_left, jumps,
                                                                named):
    solves = []
    monkeypatch.setattr(ft, "_solve_fan", lambda *args: solves.append(args))
    with pytest.raises(DomainError) as err:
        ft.init_from_piecewise(jumps, u_left, ModelParams(0.2))
    assert str(err.value) == named
    assert solves == []


def test_init_names_the_jump_whose_riemann_solve_failed():
    # the first EDGE_OF_BALL pair of test_riemann.py, both states inside the ball
    Ul, Ur = [0.145, -0.9347, 0.088], [0.5665, 0.3807, 0.6934]
    with pytest.raises(ConvergenceError) as err:
        ft.init_from_piecewise([(0.0, Ur)], Ul, ModelParams(0.2))
    assert str(err.value).startswith("initialization failed at jump 0 (x=0.0): ")
    cause = err.value.__cause__
    assert str(err.value).endswith(str(cause))
    assert err.value.iterate is cause.iterate and err.value.residual == cause.residual


@pytest.mark.parametrize("xs", [[np.nan], [0.0, np.nan], [np.inf], [-np.inf, 0.0], [0.0, 0.0]])
def test_jump_positions_must_be_finite_and_increasing(xs):
    message = r"jump positions must be finite and strictly increasing, got \[" + repr(xs[0])
    with pytest.raises(DomainError, match=message):
        ft.init_from_piecewise([(x, np.zeros(3)) for x in xs], np.zeros(3), P0)
    with pytest.raises(DomainError, match=message):
        ft.burgers_oracle(0.0, [(x, 0.1) for x in xs], 1.0)


@pytest.mark.parametrize(
    "t_end, delta, message",
    [
        (np.nan, 1e-3, "t_end must be finite and above 0, got nan"),
        (np.inf, 1e-3, "t_end must be finite and above 0, got inf"),
        (-np.inf, 1e-3, "t_end must be finite and above 0, got -inf"),
        (-1.0, 1e-3, "t_end must be finite and above 0, got -1.0"),
        (0.0, 1e-3, "t_end must be finite and above 0, got 0.0"),
        (1.0, 0.0, "delta must be positive, got 0.0"),
        (1.0, -1.0, "delta must be positive, got -1.0"),
        (1.0, np.nan, "delta must be positive, got nan"),
        (1.0, np.inf, "delta must be finite, got inf"),
    ],
)
def test_burgers_oracle_checks_t_end_and_delta(t_end, delta, message):
    with pytest.raises(DomainError, match=message):
        ft.burgers_oracle(0.5, [(0.0, 0.1), (0.4, -0.3)], t_end, delta=delta)


@pytest.mark.parametrize(
    "delta, message",
    [(np.inf, "finite, got inf"), (np.nan, "positive, got nan"), (0.0, "positive, got 0.0")],
)
def test_tracker_params_reject_a_delta_that_is_not_finite_and_positive(delta, message):
    with pytest.raises(DomainError, match="rarefaction piece size delta must be " + message):
        ft.TrackerParams(model=P0, delta=delta)


def test_a_rarefaction_above_the_piece_limit_raises_before_any_piece(monkeypatch):
    # delta = 1e-12 on a 5e-3 2-rarefaction asks for 5e9 pieces, above MAX_FRONTS
    params = ModelParams(1e-3)
    U0 = np.array([0.2, 0.0, -0.2])
    U1 = wc.rarefaction(2, U0, 5e-3, params).state
    wave = oracles.make_wave(2, 5e-3, U0, U1, params)
    st = ft.TrackerState(
        params=ft.TrackerParams(model=params, delta=1e-12),
        time=0.0,
        fronts=[],
        left_boundary_state=U0,
    )
    message = r"2-rarefaction of strength 0\.005 needs 5e\+09 pieces of size delta = 1e-12"

    def no_piece(*args, **kwargs):
        raise AssertionError("a piece was built")

    with monkeypatch.context() as patch:
        for module, name in ((wc, "rarefaction"), (ft, "Front"), (ft, "ScalarFront")):
            patch.setattr(module, name, no_piece)
        with pytest.raises(DomainError, match=message):
            _emit_wave(st, wave)
        with pytest.raises(DomainError, match=message):
            ft.burgers_oracle(0.0, [(0.0, 5e-3)], 1.0, delta=1e-12)
    with pytest.raises(DomainError, match=message):
        ft.init_from_piecewise([(0.0, U1)], U0, params, delta=1e-12)


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


def _crossing_state(rng, params, kind):
    """A 3-wave left of a 1-wave, both shocks or both rarefactions split into pieces."""
    delta = 1e-3
    if kind == "shock":
        s3, s1 = 10.0 ** rng.uniform(-4.0, -2.0, 2) * [1.0, -1.0]
    else:
        s3, s1 = rng.uniform(1.2, 3.0, 2) * delta * [-1.0, 1.0]
    U0 = oracles.ball_sample(rng, 1, 0.5)[0]
    UM = wc.wave_fan_curve(3, U0, s3, params).state
    UR = wc.wave_fan_curve(1, UM, s1, params).state
    return ft.init_from_piecewise([(-0.1, UM), (0.1, UR)], U0, params, delta=delta)


def _own_speed(f, params):
    """The family eigenvalue's mean at the front's two states, or at its left state for a piece."""
    lam_l, lam_r = (float(eigenvalues(U, params)[f.family - 1]) for U in (f.left, f.right))
    return lam_l if f.kind == rm.RAREFACTION else 0.5 * (lam_l + lam_r)


@pytest.mark.parametrize("kind", ["shock", "rarefaction"])
@pytest.mark.parametrize("eta", [0.0, 1e-4, 0.05, 0.2])
def test_1_3_crossing_passes_through_as_the_solver_would(eta, kind):
    params = ModelParams(eta)
    rng = np.random.default_rng([811, int(eta * 1e4), kind == "shock"])
    for _ in range(20):
        st = _crossing_state(rng, params, kind)
        cand = ft.next_collision(st)
        f3, f1 = (st.fronts[i] for i in cand.indices)
        assert (f3.family, f1.family) == (3, 1)
        fan = rm.solve_riemann(f3.left, f1.right, params)
        ft.resolve_collision(st, cand)
        out = st.fronts[cand.indices[0] : cand.indices[0] + 2]
        assert out[0].left is f3.left and out[1].right is f1.right
        assert out[0].right is out[1].left
        moved = [(f.family, f.kind, f.strength, f.speed) for f in out]
        assert moved == [(f.family, f.kind, f.strength, f.speed) for f in (f1, f3)]
        assert [(w.family, w.kind) for w in fan.waves] == [(f.family, f.kind) for f in out]
        if eta == 0.0:
            assert [f.kind for f in out] == [rm.CONTACT, rm.CONTACT]
        for f in out:
            assert abs(f.speed - _own_speed(f, params)) <= 1e-15 * (1.0 + abs(f.speed))
        U_mid = out[0].right
        assert np.max(np.abs(U_mid - fan.waves[0].right)) <= 1e-15 * (1.0 + np.linalg.norm(U_mid))
        for w, f in zip(fan.waves, out):
            assert abs(w.strength - f.strength) <= 1e-15 * (1.0 + abs(f.strength))
            assert abs(w.min_speed - f.speed) <= 1e-15 * (1.0 + abs(f.speed))
        event = st.event_log[-1]
        assert event.classification == "other"
        assert event.outgoing == tuple((f.family, f.strength, f.kind, f.speed) for f in out)
        _assert_chain_exact(st)


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


@pytest.mark.parametrize(
    "fronts, expected",
    [
        # met 5e-13 before now, within TOL_EVENT: the collision happens now
        ([(0, 0.0, 1.0), (1, 2.0 * (1.0 - 5e-13), -1.0)], (1.0, (0, 1))),
        # met 2e-12 before now, beyond TOL_EVENT: never
        ([(0, 0.0, 1.0), (1, 2.0 * (1.0 - 2e-12), -1.0)], None),
        # approaching slower than SPEED_TIE_TOL: never
        ([(0, 0.0, 1.0), (1, 1.0, 1.0 - 5e-15)], None),
        # the second pair meets 2e-13 after the first, at the same point: merged
        ([(0, -1.0, 1.0), (1, 1.0, 0.0), (2, 3.0 + 2e-13, -1.0)], (2.0, (0, 1, 2))),
        # the second pair met 2e-12 before now and is dropped, so the first pair's
        # meeting at t = 2 is the earliest
        ([(0, -3.0, 1.0), (1, 1.0, -1.0), (2, 1.0 + 2.0 * (1.0 - 2e-12), -3.0)], (2.0, (0, 1))),
    ],
)
def test_collision_time_tolerances(fronts, expected):
    st = kinematic_state([make_plain_front(uid, x, speed) for uid, x, speed in fronts])
    st.time = 1.0
    cand = ft.next_collision(st)
    oracles.assert_bit_equal(cand, oracles.next_collision_loop(st))
    # a past meeting is dropped on a copy: the kept column still holds it
    _assert_rows_fresh(st)
    if expected is None:
        assert cand is None
    else:
        assert (cand.time, cand.front_ids) == expected


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
    # two fronts out and three in: the meeting times after the splice move one place right
    _assert_rows_fresh(st)


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
    assert repr(ft.observables(st)) == repr(oracles.observables_loop(st))
    # the splice replaced every row, so no rounding of the removed terms is left
    rec = ft.observables(st)
    assert rec.total_variation == rec.integrals == rec.balance == (0.0, 0.0, 0.0)
    assert rec.max_state_norm == float(np.linalg.norm(U0))


def test_nested_cancellations_empty_the_list_with_zero_totals():
    # the inner pair cancels at t = 1, then the outer pair at t = 3: the second
    # event splices out every row, so the totals are the sums of nothing
    U0 = np.array([0.1, 0.2, -0.1])
    U1 = wc.wave_fan_curve(1, U0, -0.02, P0).state
    U2 = wc.wave_fan_curve(2, U1, -0.1, P0).state
    st = kinematic_state([
        _hand_front(0, 1, U0, U1, -3.0, 1.0),
        _hand_front(1, 2, U1, U2, -1.0, 1.0),
        _hand_front(2, 2, U2, U1, 1.0, -1.0),
        _hand_front(3, 1, U1, U0, 3.0, -1.0),
    ])
    st.left_boundary_state = U0
    st, series = ft.run(st, 10.0)
    assert [e.time for e in st.event_log] == [1.0, 3.0] and st.fronts == []
    assert series[1].total_variation != (0.0, 0.0, 0.0)
    assert series[-1].total_variation == series[-1].integrals == series[-1].balance == (0.0,) * 3
    assert repr(series[-1]) == repr(dataclasses.replace(oracles.observables_loop(st), time=3.0))


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


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf])
def test_run_rejects_a_non_finite_t_end(t_end):
    st = ft.init_from_piecewise([(0.0, np.array([0.1, -0.1, 0.0]))], np.zeros(3), P0)
    with pytest.raises(DomainError, match=f"t_end must be finite, got {t_end}"):
        ft.run(st, t_end)
    assert st.time == 0.0 and not st.event_log


def test_run_rejects_a_negative_event_budget():
    st = ft.init_from_piecewise([], np.zeros(3), P0)
    with pytest.raises(DomainError, match=r"max_events must be >= 0, got -5"):
        ft.run(st, 1.0, max_events=-5)
    st, series = ft.run(st, 1.0, max_events=0)
    assert len(series) == 1 and not st.event_log


def test_run_names_the_event_that_failed(monkeypatch):
    params = ModelParams(1e-4)
    U0 = np.array([0.25, 0.004, -0.25])
    jumps = two_shock_wall(U0, [-0.1, 0.1], [-2e-3, -2.2e-3], params)
    st = ft.init_from_piecewise(jumps, U0, params)
    cand = ft.next_collision(st)

    def failing_solve(*args):
        raise HyperbolicityError("synthetic failure")

    monkeypatch.setattr(ft, "_solve_fan", failing_solve)
    with pytest.raises(TrackerEventError) as info:
        ft.run(st, 1e4)
    exc = info.value
    assert isinstance(exc, ArithmeticError)
    assert isinstance(exc.__cause__, HyperbolicityError)
    assert (exc.time, exc.position, exc.incoming_ids) == (cand.time, cand.position, (0, 1))
    assert [rec.n_events for rec in exc.series] == [0]
    assert st.event_log == [] and len(st.fronts) == 2


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


# `observables` adds its running totals in event order and the loop adds the
# fronts in list order, so the sums agree to rounding, not bit for bit
OBSERVABLES_TOL = 1e-13


def _assert_observables_equal_loop(st):
    """`observables(st)` against the loop: counts and max |U| exactly, sums within tolerance."""
    rec, ref = ft.observables(st), oracles.observables_loop(st)
    assert (rec.time, rec.n_events, rec.n_fronts) == (ref.time, ref.n_events, ref.n_fronts)
    assert type(rec.max_state_norm) is float and rec.max_state_norm == ref.max_state_norm
    for name in ("total_variation", "integrals", "balance"):
        got, want = getattr(rec, name), getattr(ref, name)
        assert len(got) == 3 and all(type(x) is np.float64 for x in got)
        tol = OBSERVABLES_TOL * (1.0 + np.abs(want))
        assert np.all(np.abs(np.subtract(got, want)) <= tol), name
    return rec


def _assert_totals_rebuilt(st):
    """Totals rebuilt from the rows add the jumps in front order, as the loop does."""
    rec = _assert_observables_equal_loop(st)
    assert rec.total_variation == oracles.observables_loop(st).total_variation


def _assert_observables_match_loop(st, n_events):
    _assert_observables_equal_loop(st)
    _assert_chain_exact(st)
    for _ in range(n_events):
        ft.resolve_collision(st, ft.next_collision(st))
        _assert_observables_equal_loop(st)
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


def _shock_run(seed=812, n_shocks=42):
    """Weak shocks of all three families at eta = 1e-4, in a seeded order."""
    params = ModelParams(1e-4)
    rng = np.random.default_rng(seed)
    families = rng.permutation(np.resize([1, 2, 3], n_shocks))
    strengths = 10.0 ** rng.uniform(-3.0, -2.0, n_shocks)
    layout = [(int(f), (1.0 if f == 3 else -1.0) * s) for f, s in zip(families, strengths)]
    U0 = np.array([0.25, 0.1, -0.25]) + rng.uniform(-0.05, 0.05, 3)
    jumps = _seeded_jumps(rng, U0, layout, params)
    return jumps, U0, params


def _rarefaction_data():
    """One weak 3-wave followed by eleven 2-rarefactions of 5e-3 at eta = 1e-3."""
    params = ModelParams(1e-3)
    rng = np.random.default_rng(813)
    layout = [(3, 1e-3)] + [(2, 5e-3)] * 11
    U0 = np.array([0.2, 0.0, -0.2])
    return _seeded_jumps(rng, U0, layout, params), U0, params


def _rarefaction_run(delta=2e-3):
    """The tracker of `_rarefaction_data`, whose 2-rarefactions are 2.5 delta at the default."""
    jumps, U0, params = _rarefaction_data()
    return ft.init_from_piecewise(jumps, U0, params, delta=delta)


# least fitted order of the delta ladder below; it measured 0.74 (step orders 0.85, 0.54, 0.89)
L1_ORDER_MIN = 0.6


def test_front_tracking_converges_in_l1_as_delta_shrinks():
    # for scalar laws the L1 error of front tracking is O(delta) (Holden & Risebro);
    # here each run at t = 0.05 is compared with the next finer one: 1 to 750 events,
    # distances 8.3e-6, 4.6e-6, 3.2e-6 and 1.7e-6 when the bound was set
    deltas = [8e-3, 4e-3, 2e-3, 1e-3, 5e-4]
    runs = [ft.run(_rarefaction_run(delta), 0.05)[0] for delta in deltas]
    assert not any(st.truncated for st in runs)
    distances = [oracles.l1_distance(a, b) for a, b in zip(runs, runs[1:])]
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    order = np.polyfit(np.log(deltas[:-1]), np.log(distances), 1)[0]
    assert order >= L1_ORDER_MIN, (order, distances)


@pytest.mark.parametrize("run, n_events", [("shock", 1000), ("rarefaction", 300)])
def test_next_collision_equals_the_loop_after_every_event(run, n_events):
    if run == "shock":
        jumps, U0, params = _shock_run()
        st = ft.init_from_piecewise(jumps, U0, params)
    else:
        st = _rarefaction_run()
    for _ in range(n_events):
        cand = ft.next_collision(st)
        assert cand is not None
        assert repr(cand) == repr(oracles.next_collision_loop(st))
        ft.resolve_collision(st, cand)
    assert repr(ft.next_collision(st)) == repr(oracles.next_collision_loop(st))


def _v_fronts(fronts, t):
    """(position, v_left, v_right) of the v-jumps above 1e-10 alive just after t."""
    return sorted(
        (f.position(t), f.left[1], f.right[1])
        for f in fronts
        if f.birth_t <= t and (f.death_t is None or f.death_t > t)
        and abs(f.right[1] - f.left[1]) > 1e-10
    )


def test_long_shock_run_conserves_and_matches_the_scalar_oracle():
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    st, series = ft.run(st, 1e4, max_events=1500)
    assert len(st.event_log) == 1500 and len(series) == 1501
    assert sum(e.classification == "other" for e in st.event_log) >= 1000
    base = np.array(series[0].balance)
    drift = max(float(np.max(np.abs(np.array(r.balance) - base))) for r in series)
    assert drift <= 1e-10
    _assert_chain_exact(st)

    v_jumps = []
    cur_v = U0[1]
    for x, U in jumps:
        if U[1] != cur_v:
            v_jumps.append((x, U[1]))
            cur_v = U[1]
    oracle = ft.burgers_oracle(U0[1], v_jumps, st.time + 1.0)
    fronts = st.dead_fronts + st.fronts
    for rec in series[100::100] + series[-1:]:
        system = _v_fronts(fronts, rec.time)
        reference = [r for r in oracle.fronts_at(rec.time) if abs(r[2] - r[1]) > 1e-10]
        assert len(system) == len(reference) > 0
        assert max(abs(a - b) for ra, rb in zip(system, reference) for a, b in zip(ra, rb)) <= 1e-10


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
    _assert_rows_fresh(st)
    st.time = 0.75
    _assert_observables_equal_loop(st)


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


def _assert_rows_fresh(st, norms=None):
    """The kept rows and meeting times are lists of Python floats, bit-equal to fresh ones.

    A front's row is right, birth_x, speed, birth_t, the intercept
    birth_x - speed * birth_t, |right| and |right - left|, made afresh from
    each front.  The meeting time of neighbours i and i + 1 is
    (b[i+1] - b[i]) / (lambda[i] - lambda[i+1]) where the speed difference is
    above SPEED_TIE_TOL, else inf, over the fresh intercept column b and
    speed column lambda in one numpy expression.  `norms` may carry
    |f.right| by front id from earlier calls on the same run: a front never
    changes once spliced in, and st.dead_fronts keeps every front of the run
    alive, so no id is reused.
    """
    assert st._rows_of is st.fronts
    norms = {} if norms is None else norms
    for f in st.fronts:
        if id(f) not in norms:
            norms[id(f)] = float(np.linalg.norm(f.right))
    left = np.array([f.left for f in st.fronts]).reshape(-1, 3)
    right = np.array([f.right for f in st.fronts]).reshape(-1, 3)
    line = np.array([(f.birth_x, f.speed, f.birth_t, f.birth_x - f.speed * f.birth_t, norms[id(f)])
                     for f in st.fronts]).reshape(-1, 5)
    fresh = np.column_stack((right, line, np.abs(right - left)))
    assert all(type(x) is float for row in st._rows for x in row)
    rows = np.array(st._rows).reshape(-1, fresh.shape[1])
    assert rows.shape == fresh.shape and rows.tobytes() == fresh.tobytes()
    speed, intercept = line[:, 1], line[:, 3]
    dv = speed[:-1] - speed[1:]
    meet = np.divide(intercept[1:] - intercept[:-1], dv, out=np.full(len(dv), np.inf),
                     where=dv > ft.SPEED_TIE_TOL)
    assert all(type(t) is float for t in st._meet)
    kept = np.array(st._meet)
    assert kept.shape == meet.shape and kept.tobytes() == meet.tobytes()


@pytest.mark.parametrize("run, n_events", [("shock", 1000), ("rarefaction", 300)])
def test_solved_events_equal_the_public_fan_assembly(run, n_events):
    # the tracker builds its fronts and rows from the floats of `riemann._solve_fan`;
    # the oracle builds them from `solve_riemann`'s fan, its Waves and the fronts' arrays
    jumps, U0, params = _shock_run() if run == "shock" else _rarefaction_data()
    delta = ft.DELTA_DEFAULT if run == "shock" else 2e-3
    st = ft.init_from_piecewise(jumps, U0, params, delta=delta)
    fronts, rows = oracles.init_fronts(jumps, U0, params, delta)
    oracles.assert_bit_equal(st.fronts, fronts, "init fronts")
    oracles.assert_bit_equal(st._rows, rows, "init rows")
    oracles.assert_bit_equal(st._meet, ft._meet_times(rows), "init meeting times")
    solved = 0
    for n in range(n_events):
        cand = ft.next_collision(st)
        start, stop = cand.indices[0], cand.indices[-1] + 1
        if [st.fronts[i].family for i in cand.indices] == [3, 1]:
            ft.resolve_collision(st, cand)
            continue
        fronts, rows, event = oracles.solved_event(st, cand)
        rows = st._rows[:start] + rows + st._rows[stop:]
        ft.resolve_collision(st, cand)
        oracles.assert_bit_equal(st.fronts[start : start + len(fronts)], fronts, f"event {n}")
        oracles.assert_bit_equal(st._rows, rows, f"rows after event {n}")
        oracles.assert_bit_equal(st._meet, ft._meet_times(rows), f"meeting times after {n}")
        oracles.assert_bit_equal(st.event_log[-1], event, f"event {n}")
        solved += 1
    assert 0 < solved < n_events


def _count_rebuilds(monkeypatch):
    calls = []
    rebuild = ft._rebuild_rows

    def counting_rebuild(st):
        calls.append(len(st.fronts))
        rebuild(st)

    monkeypatch.setattr(ft, "_rebuild_rows", counting_rebuild)
    return calls


@pytest.mark.parametrize("run, n_events", [("shock", 3000), ("rarefaction", 1500)])
def test_state_rows_equal_fresh_gathers_after_every_event(monkeypatch, run, n_events):
    if run == "shock":
        jumps, U0, params = _shock_run()
        st = ft.init_from_piecewise(jumps, U0, params)
    else:
        st = _rarefaction_run()
    norms = {}
    _assert_rows_fresh(st, norms)
    rebuilds = _count_rebuilds(monkeypatch)
    # events that keep the front count and events that change it
    count_kept = set()
    for _ in range(n_events):
        n_before = len(st.fronts)
        ft.resolve_collision(st, ft.next_collision(st))
        count_kept.add(len(st.fronts) == n_before)
        _assert_rows_fresh(st, norms)
        # the list order is the spatial order, so `next_collision`'s first run is the leftmost
        x = st.positions()
        assert all(a <= b for a, b in zip(x, x[1:]))
    ft.observables(st)
    assert rebuilds == []
    assert count_kept == {True, False}


@pytest.mark.parametrize("run, n_events", [("shock", 3000), ("rarefaction", 1500)])
def test_observables_stay_with_the_loop_over_a_long_run(run, n_events):
    if run == "shock":
        jumps, U0, params = _shock_run()
        st = ft.init_from_piecewise(jumps, U0, params)
    else:
        st = _rarefaction_run()
    prev = ft.observables(st)
    base = np.array(prev.balance)
    for n in range(1, n_events + 1):
        ft.resolve_collision(st, ft.next_collision(st))
        rec = ft.observables(st)
        assert (rec.n_events, rec.n_fronts) == (n, len(st.fronts))
        assert rec.time >= prev.time
        if run == "shock":
            assert np.max(np.abs(np.array(rec.balance) - base)) <= 1e-10
        if n % 10 == 0 or n == n_events:
            _assert_observables_equal_loop(st)
        prev = rec


def _hand_front(uid, family, left, right, x, speed):
    return ft.Front(uid=uid, family=family, kind="shock", strength=0.0, left=left,
                    right=right, speed=speed, birth_x=x, birth_t=0.0)


def test_observables_on_a_hand_built_state(monkeypatch):
    U0 = np.array([0.2, 0.3, -0.2])
    U1 = wc.wave_fan_curve(2, U0, -0.1, P0).state
    U2 = wc.wave_fan_curve(2, U1, -0.05, P0).state
    U3 = wc.wave_fan_curve(1, U2, -0.02, P0).state
    st = kinematic_state([
        _hand_front(0, 2, U0, U1, -1.0, 0.5),
        _hand_front(1, 2, U1, U2, 0.0, -0.5),
        _hand_front(2, 1, U2, U3, 1.0, -4.0),
    ])
    st.left_boundary_state = U0
    rebuilds = _count_rebuilds(monkeypatch)
    _assert_totals_rebuilt(st)
    assert rebuilds == [3]
    _assert_rows_fresh(st)
    ft.resolve_collision(st, ft.next_collision(st))
    _assert_observables_equal_loop(st)
    assert rebuilds == [3]
    _assert_rows_fresh(st)


def test_observables_after_fronts_are_reassigned(monkeypatch):
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    for _ in range(50):
        ft.resolve_collision(st, ft.next_collision(st))
    ft.observables(st)
    rebuilds = _count_rebuilds(monkeypatch)
    # a new list of the same length, with the last front's right state moved
    last = st.fronts[-1]
    st.fronts = st.fronts[:-1] + [dataclasses.replace(last, right=last.right + 1e-3)]
    _assert_totals_rebuilt(st)
    # a shorter new list, and the same list made shorter; then events on it
    st.fronts = st.fronts[:-5]
    _assert_totals_rebuilt(st)
    del st.fronts[-3:]
    _assert_totals_rebuilt(st)
    assert len(rebuilds) == 3
    for _ in range(20):
        ft.resolve_collision(st, ft.next_collision(st))
        _assert_observables_equal_loop(st)
        _assert_rows_fresh(st)
    assert len(rebuilds) == 3


def test_observables_after_the_boundary_state_is_reassigned(monkeypatch):
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    for _ in range(30):
        ft.resolve_collision(st, ft.next_collision(st))
    before = _assert_observables_equal_loop(st)
    rebuilds = _count_rebuilds(monkeypatch)
    # the running totals do not depend on U_bg or the model; F(U_bg), |U_bg| and
    # F(U_far) are cached by the value of the state and eta
    st.left_boundary_state = U0 + np.array([0.01, -0.02, 0.03])
    moved = _assert_observables_equal_loop(st)
    assert moved.integrals != before.integrals and moved.balance != before.balance
    st.params = ft.TrackerParams(model=ModelParams(0.05))
    remodelled = _assert_observables_equal_loop(st)
    assert remodelled.balance != moved.balance
    assert rebuilds == []


def test_observables_after_the_boundary_state_is_edited_in_place():
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    for _ in range(30):
        ft.resolve_collision(st, ft.next_collision(st))
    before = _assert_observables_equal_loop(st)
    assert st.fronts[0].left is st.left_boundary_state
    st.left_boundary_state += (0.01, -0.02, 0.03)
    # the edit moves the first front's left state too, whose jump is in its row:
    # a new list makes the next reader rebuild the rows, as for any front edited in place
    st.fronts = list(st.fronts)
    moved = _assert_observables_equal_loop(st)
    assert moved.balance != before.balance and moved.total_variation != before.total_variation
    for _ in range(20):
        ft.resolve_collision(st, ft.next_collision(st))
        _assert_observables_equal_loop(st)


def test_max_state_norm_after_the_front_holding_it_is_removed():
    # the middle pair carries the largest state, U2, and cancels head-on
    U0 = np.array([0.1, 0.2, -0.1])
    U1 = wc.wave_fan_curve(1, U0, -0.02, P0).state
    U2 = wc.wave_fan_curve(2, U1, 0.1, P0).state
    U3 = wc.wave_fan_curve(3, U1, 0.02, P0).state
    st = kinematic_state([
        _hand_front(0, 1, U0, U1, -3.0, -4.0),
        _hand_front(1, 2, U1, U2, -1.0, 1.0),
        _hand_front(2, 2, U2, U1, 1.0, -1.0),
        _hand_front(3, 3, U1, U3, 3.0, 4.0),
    ])
    st.left_boundary_state = U0
    before = _assert_observables_equal_loop(st)
    assert before.max_state_norm == float(np.linalg.norm(U2))
    ft.resolve_collision(st, ft.next_collision(st))
    assert [f.uid for f in st.fronts] == [0, 3]
    after = _assert_observables_equal_loop(st)
    assert after.max_state_norm == float(np.linalg.norm(U3)) < before.max_state_norm


def test_observables_after_a_cancellation_between_other_fronts():
    # the middle pair meets head-on with equal outer states and leaves nothing
    U0 = np.array([0.1, 0.2, -0.1])
    U1 = wc.wave_fan_curve(1, U0, -0.02, P0).state
    U2 = wc.wave_fan_curve(2, U1, -0.1, P0).state
    U3 = wc.wave_fan_curve(3, U1, 0.02, P0).state
    st = kinematic_state([
        _hand_front(0, 1, U0, U1, -3.0, -4.0),
        _hand_front(1, 2, U1, U2, -1.0, 1.0),
        _hand_front(2, 2, U2, U1, 1.0, -1.0),
        _hand_front(3, 3, U1, U3, 3.0, 4.0),
    ])
    st.left_boundary_state = U0
    cand = ft.next_collision(st)
    assert cand.indices == (1, 2)
    ft.resolve_collision(st, cand)
    assert st.event_log[-1].outgoing == ()
    assert [f.uid for f in st.fronts] == [0, 3]
    _assert_rows_fresh(st)
    _assert_observables_equal_loop(st)


def test_max_state_norm_after_a_crossing_removes_the_middle_state_holding_it():
    # U_M, between the 3-front and the 1-front, is the largest state, and the
    # crossing replaces it with the smaller U_L + (U_R - U_M)
    params = ModelParams(0.05)
    U0 = np.array([0.1, 0.2, -0.1])
    UL = wc.wave_fan_curve(2, U0, -0.02, params).state
    UM = wc.wave_fan_curve(3, UL, 0.05, params).state
    UR = wc.wave_fan_curve(1, UM, -0.05, params).state
    UE = wc.wave_fan_curve(2, UR, -0.02, params).state
    jumps = [(-0.8, UL), (-0.1, UM), (0.1, UR), (0.8, UE)]
    st = ft.init_from_piecewise(jumps, U0, params, delta=0.1)
    assert [f.family for f in st.fronts] == [2, 3, 1, 2]
    before = _assert_observables_equal_loop(st)
    assert before.max_state_norm == float(np.linalg.norm(UM))
    cand = ft.next_collision(st)
    assert cand.indices == (1, 2)
    ft.resolve_collision(st, cand)
    assert [f.family for f in st.fronts] == [2, 1, 3, 2]
    after = _assert_observables_equal_loop(st)
    assert after.max_state_norm < before.max_state_norm
    _assert_rows_fresh(st)


@pytest.mark.parametrize(
    "layout, first",
    [
        ([(3, 0.01), (1, -0.01), (2, -0.01)], 0),
        ([(2, -0.01), (3, 0.01), (1, -0.01)], 1),
        ([(3, 0.01), (1, -0.01)], 0),
    ],
    ids=["first-pair", "last-pair", "only-pair"],
)
def test_crossing_at_an_end_of_the_list_keeps_rows_and_totals(layout, first):
    # the crossing's block of its two rows and their neighbours is clipped at the list's end
    params = ModelParams(0.05)
    U0 = np.array([0.1, 0.2, -0.1])
    jumps = _seeded_jumps(np.random.default_rng(3), U0, layout, params)
    st = ft.init_from_piecewise(jumps, U0, params)
    assert [f.family for f in st.fronts] == [fam for fam, _ in layout]
    cand = ft.next_collision(st)
    assert cand.indices == (first, first + 1)
    ft.resolve_collision(st, cand)
    assert [f.family for f in st.fronts[first : first + 2]] == [1, 3]
    fresh = np.array(ft._rows_for(st.fronts))
    assert np.array(st._rows).tobytes() == fresh.tobytes()
    totals, max_norm = ft._range_terms(fresh.tolist(), 0, len(fresh))
    tol = OBSERVABLES_TOL * (1.0 + np.abs(totals))
    assert np.all(np.abs(np.subtract(st._totals, totals)) <= tol)
    assert st._max_norm == max_norm
    _assert_rows_fresh(st)
    _assert_observables_equal_loop(st)


@pytest.mark.parametrize("n_in", [0, 1, 2, 3])
@pytest.mark.parametrize("end", ["first", "last"])
def test_a_splice_at_an_end_of_the_list_keeps_the_meeting_times(end, n_in):
    # two fronts out and n_in in: the new fronts run 0.01 slower than the fronts
    # they copy, so their pairs move
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    for _ in range(20):
        ft.resolve_collision(st, ft.next_collision(st))
    n = len(st.fronts)
    start = 0 if end == "first" else n - 2
    outgoing = st.fronts[start : start + 2]
    new = [dataclasses.replace(f, uid=st.new_uid(), birth_x=f.position(st.time), birth_t=st.time,
                               speed=f.speed - 0.01)
           for f in (outgoing + outgoing[-1:])[:n_in]]
    ft._splice(st, start, start + 2, new, ft._rows_for(new))
    assert len(st.fronts) == n - 2 + n_in
    _assert_rows_fresh(st)
    oracles.assert_bit_equal(ft.next_collision(st), oracles.next_collision_loop(st))


def test_a_new_front_list_rebuilds_the_meeting_times_once(monkeypatch):
    jumps, U0, params = _shock_run()
    st = ft.init_from_piecewise(jumps, U0, params)
    for _ in range(50):
        ft.resolve_collision(st, ft.next_collision(st))
    ft.next_collision(st)
    last_meeting = st._meet[-1]
    rebuilds = _count_rebuilds(monkeypatch)
    # the same fronts in a new list, the last one slowed from now on: its pair
    # with the front before it now meets at another time
    last = st.fronts[-1]
    slowed = dataclasses.replace(last, birth_x=last.position(st.time), birth_t=st.time,
                                 speed=last.speed - 0.5)
    st.fronts = st.fronts[:-1] + [slowed]
    cand = ft.next_collision(st)
    ft.observables(st)
    assert rebuilds == [len(st.fronts)]
    assert st._meet[-1] != last_meeting
    _assert_rows_fresh(st)
    oracles.assert_bit_equal(cand, oracles.next_collision_loop(st))
    for _ in range(20):
        ft.resolve_collision(st, ft.next_collision(st))
        _assert_rows_fresh(st)
    assert len(rebuilds) == 1


def test_crossings_make_no_riemann_solve_and_no_row_gather(monkeypatch):
    # at eta = 0 the outer waves are contacts: two 3-fronts stay parallel, and so
    # do two 1-fronts, so they make four 1-3 crossings and nothing else
    params = ModelParams(0.0)
    U0 = np.array([0.1, 0.2, -0.1])
    layout = [(3, 0.01), (3, 0.02), (1, -0.01), (1, -0.02)]
    jumps = _seeded_jumps(np.random.default_rng(4), U0, layout, params)
    st = ft.init_from_piecewise(jumps, U0, params)
    calls = []

    def count(name):
        fn = getattr(ft, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(ft, name, counted)

    count("_rows_for")
    count("_solve_fan")
    count("_splice")
    while (cand := ft.next_collision(st)) is not None:
        f3, f1 = (st.fronts[i] for i in cand.indices)
        assert (f3.family, f1.family) == (3, 1)
        ft.resolve_collision(st, cand)
        assert st.event_log[-1] == ft.CollisionEvent(
            index=len(st.event_log) - 1,
            time=cand.time,
            position=cand.position,
            incoming_ids=cand.front_ids,
            incoming=((3, f3.strength), (1, f1.strength)),
            outgoing=((1, f1.strength, f1.kind, f1.speed), (3, f3.strength, f3.kind, f3.speed)),
            classification="other",
        )
        ft.observables(st)
    assert len(st.event_log) == 4 and calls == ["_splice"] * 4
    _assert_rows_fresh(st)


def test_every_event_makes_one_splice_and_gathers_rows_only_after_a_solve(monkeypatch):
    # the rarefaction run mixes 1-3 crossings with solved crossings of 2-pieces
    st = _rarefaction_run()
    calls = []

    def count(name):
        fn = getattr(ft, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(ft, name, counted)

    for name in ("_rows_for", "_solve_fan", "_splice", "_cross"):
        count(name)
    kinds = set()
    for _ in range(100):
        cand = ft.next_collision(st)
        crossing = [st.fronts[i].family for i in cand.indices] == [3, 1]
        calls.clear()
        ft.resolve_collision(st, cand)
        assert calls == (["_cross", "_splice"] if crossing else ["_solve_fan", "_splice"])
        kinds.add(crossing)
    assert kinds == {True, False}
    _assert_rows_fresh(st)


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


def test_three_shocks_meeting_at_one_point_merge_in_one_event():
    # v-shocks of speeds 0.5, 0 and -0.5 from x = -0.5, 0 and 0.5 all meet at (0, 1)
    v0, v_jumps = 0.375, [(-0.5, 0.125), (0.0, -0.125), (0.5, -0.375)]
    oracle = ft.burgers_oracle(v0, v_jumps, 2.0)
    assert oracle.event_times == [1.0]
    [merged] = oracle.fronts
    assert (merged.v_left, merged.v_right, merged.speed) == (0.375, -0.375, 0.0)
    assert (merged.birth_x, merged.birth_t) == (0.0, 1.0)
    # the system tracker on 2-shocks with the same v-jumps: one event, the same v-fronts
    params = ModelParams(1e-3)
    states = [np.array([0.1, v0, -0.1])]
    for _ in v_jumps:
        states.append(wc.hugoniot(2, states[-1], -0.25, params).state)
    st = ft.init_from_piecewise([(x, U) for (x, _), U in zip(v_jumps, states[1:])],
                                states[0], params)
    st, _ = ft.run(st, 2.0)
    assert [(ev.time, ev.position) for ev in st.event_log] == [(1.0, 0.0)]
    for t in (0.5, 1.5):
        system = sorted(
            (f.position(t), f.left[1], f.right[1])
            for f in st.dead_fronts + st.fronts
            if f.birth_t <= t and (f.death_t is None or f.death_t > t) and f.right[1] != f.left[1]
        )
        assert system == oracle.fronts_at(t)


def test_a_wave_past_the_front_limit_raises_before_its_fronts_are_built(monkeypatch):
    # two 2-rarefactions of 6 pieces each: the second would make 12 live fronts
    params = ModelParams(1e-3)
    U0 = np.array([0.2, 0.0, -0.2])
    jumps = _seeded_jumps(np.random.default_rng(3), U0, [(2, 5.5e-3)] * 2, params)
    monkeypatch.setattr(ft, "MAX_FRONTS", 10)
    built = []
    front = ft.Front

    def counted_front(*args):
        built.append(args[0])
        return front(*args)

    monkeypatch.setattr(ft, "Front", counted_front)
    message = (r"2-rarefaction of strength 0\.0055 needs 6 pieces of size delta = 0\.001, "
               r"which with the 6 fronts already live or emitted is more than the 10 fronts")
    with pytest.raises(DomainError, match=message):
        ft.init_from_piecewise(jumps, U0, params)
    assert len(built) == 6
    with pytest.raises(DomainError, match=message):
        ft.burgers_oracle(U0[1], [(x, U[1]) for x, U in jumps], 1.0)


def test_an_event_past_the_front_limit_raises_and_leaves_the_fronts(monkeypatch):
    st = _rarefaction_run()
    limit = len(st.fronts) + 5
    monkeypatch.setattr(ft, "MAX_FRONTS", limit)
    message = (r"a 3-shock of strength [-+.e0-9]+ needs 1 front, which with the "
               f"{limit} fronts already live or emitted is more than the {limit} fronts")
    with pytest.raises(DomainError, match=message):
        for _ in range(1500):
            ft.resolve_collision(st, ft.next_collision(st))
            assert len(st.fronts) <= limit
    # the fronts and rows stay as the last completed event left them
    assert len(st.fronts) == limit and len(st.event_log) == 6
    _assert_rows_fresh(st)
    _assert_observables_equal_loop(st)
