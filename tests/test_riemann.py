"""Riemann solver tests: strength recovery, fan evaluation, diagnostics."""

import dataclasses

import numpy as np
import pytest

import bjsystem.flux as fx
import bjsystem.riemann as riemann
import bjsystem.wavecurves as wc
from bjsystem.errors import ConvergenceError, DomainError
from bjsystem.flux import ModelParams
from bjsystem.riemann import (
    CONTACT,
    RAREFACTION,
    SHOCK,
    Wave,
    check_fan,
    evaluate_fan,
    solve_riemann,
)

import oracles

P0 = ModelParams(0.0)


def compose(base, strengths, params):
    state = np.asarray(base, dtype=float)
    for fam, s in zip((1, 2, 3), strengths):
        state = wc.wave_fan_curve(fam, state, s, params).state
    return state


def test_identical_states_give_empty_fan():
    U = np.array([0.2, -0.1, 0.3])
    fan = solve_riemann(U, U, P0)
    assert fan.waves == ()
    assert fan.residual == 0.0
    assert fan.strengths == (0.0, 0.0, 0.0)


def test_single_2_shock_recovered():
    Ul = np.array([0.25, 0.1, -0.25])
    s = -0.15
    Ur = wc.wave_fan_curve(2, Ul, s, P0).state
    fan = solve_riemann(Ul, Ur, P0)
    assert len(fan.waves) == 1
    wave = fan.waves[0]
    assert wave.family == 2 and wave.kind == SHOCK
    assert abs(wave.strength - s) <= 1e-14
    assert abs(wave.speed - (2.0 * Ul[1] + s)) <= 1e-12


def test_outgoing_strengths_of_12_collision_at_eta0():
    # incoming 2-shock (s = -0.2) then 1-shock (sigma = -0.1): the resolved
    # fan carries sigma' = 2 sigma / (2 - s) and the closed-form tau'
    Ul = np.array([0.25, 0.0, -0.25])
    Um = wc.wave_fan_curve(2, Ul, -0.2, P0).state
    Ur = wc.wave_fan_curve(1, Um, -0.1, P0).state
    fan = solve_riemann(Ul, Ur, P0)
    assert abs(fan.strengths[0] - (-0.09090909)) <= 1e-7
    assert abs(fan.strengths[1] - (-0.2)) <= 1e-15
    assert abs(fan.strengths[2] - 0.00822511) <= 1e-7


def test_v_strength_is_assigned_not_solved():
    rng = np.random.default_rng(3)
    for _ in range(10):
        Ul = rng.uniform(-0.4, 0.4, 3)
        Ur = rng.uniform(-0.4, 0.4, 3)
        fan = solve_riemann(Ul, Ur, ModelParams(0.01))
        assert fan.strengths[1] == Ur[1] - Ul[1]


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.05])
def test_round_trip_strength_recovery(eta):
    params = ModelParams(eta)
    rng = np.random.default_rng(42)
    for _ in range(8):
        base = rng.uniform(-0.45, 0.45, 3)
        strengths = rng.uniform(-0.1, 0.1, 3)
        target = compose(base, strengths, params)
        fan = solve_riemann(base, target, params)
        assert np.max(np.abs(np.array(fan.strengths) - strengths)) <= 1e-8


def test_zero_strength_waves_dropped():
    Ul = np.array([0.25, 0.0, -0.25])
    target = compose(Ul, (0.0, -0.1, 0.05), P0)
    fan = solve_riemann(Ul, target, P0)
    assert [w.family for w in fan.waves] == [2, 3]


@pytest.mark.parametrize(
    "eta, strengths", [(0.0, (1e-14, -0.1, 0.05)), (0.05, (1e-14, 0.08, -0.02))]
)
def test_dropped_wave_keeps_the_state_chain(eta, strengths):
    # the 1-wave is below tol_zero but not zero: the first kept wave must
    # still start at Ul, not at Ul + s1 r1
    params = ModelParams(eta)
    Ul = np.array([0.25, 0.0, -0.25])
    fan = solve_riemann(Ul, compose(Ul, strengths, params), params)
    assert fan.strengths[0] != 0.0
    assert [w.family for w in fan.waves] == [2, 3]
    assert np.array_equal(fan.waves[0].left, Ul)
    assert check_fan(fan, params).states_chained


def test_check_fan_requires_the_first_wave_to_start_at_the_left_state():
    Ul = np.array([0.25, 0.0, -0.25])
    fan = solve_riemann(Ul, compose(Ul, (0.0, -0.1, 0.0), P0), P0)
    shifted = type(fan)(
        left_state=Ul + 1e-15,
        waves=fan.waves,
        strengths=fan.strengths,
        residual=fan.residual,
        params=P0,
    )
    assert check_fan(fan, P0).states_chained
    diag = check_fan(shifted, P0)
    assert not diag.states_chained and not diag.ok


def test_wave_kinds_eta0_outer_contacts():
    Ul = np.array([0.25, 0.0, -0.25])
    target = compose(Ul, (-0.05, -0.1, 0.03), P0)
    fan = solve_riemann(Ul, target, P0)
    assert [w.kind for w in fan.waves] == [CONTACT, SHOCK, CONTACT]


def test_wave_kinds_eta_positive():
    params = ModelParams(0.05)
    Ul = np.array([0.25, 0.0, -0.25])
    target = compose(Ul, (-0.05, 0.1, -0.03), params)
    fan = solve_riemann(Ul, target, params)
    assert [w.kind for w in fan.waves] == [SHOCK, RAREFACTION, RAREFACTION]


def test_adjacent_waves_share_states_and_speeds_separate():
    params = ModelParams(0.05)
    rng = np.random.default_rng(8)
    for _ in range(10):
        base = rng.uniform(-0.4, 0.4, 3)
        strengths = rng.uniform(-0.08, 0.08, 3)
        fan = solve_riemann(base, compose(base, strengths, params), params)
        for a, b in zip(fan.waves, fan.waves[1:]):
            assert np.array_equal(a.right, b.left)
            assert a.max_speed < b.min_speed


def test_evaluate_fan_left_and_right_of_everything():
    Ul = np.array([0.25, 0.1, -0.25])
    Ur = wc.wave_fan_curve(2, Ul, -0.15, P0).state
    fan = solve_riemann(Ul, Ur, P0)
    assert np.array_equal(evaluate_fan(fan, -10.0), Ul)
    assert np.array_equal(evaluate_fan(fan, 10.0), fan.right_state)


def test_evaluate_fan_straddles_shock():
    Ul = np.array([0.25, 0.1, -0.25])
    Ur = wc.wave_fan_curve(2, Ul, -0.15, P0).state
    fan = solve_riemann(Ul, Ur, P0)
    speed = fan.waves[0].speed
    assert np.array_equal(evaluate_fan(fan, speed - 1e-9), Ul)
    assert np.array_equal(evaluate_fan(fan, speed + 1e-9), Ur)


def test_evaluate_fan_inside_rarefaction():
    Ul = np.array([0.1, -0.2, 0.05])
    Ur = wc.wave_fan_curve(2, Ul, 0.3, P0).state
    fan = solve_riemann(Ul, Ur, P0)
    wave = fan.waves[0]
    assert wave.kind == RAREFACTION
    for xi in (-0.3, -0.1, 0.0, 0.15):
        state = evaluate_fan(fan, xi)
        # middle speed is 2v, so v = xi / 2 inside the fan
        assert abs(state[1] - xi / 2.0) <= 1e-8
        lam = fx.eigenvalues(state, P0)
        assert abs(lam[1] - xi) <= 1e-8


def test_evaluate_fan_between_a_shock_and_a_following_rarefaction(monkeypatch):
    # a 1-shock, then a 2-rarefaction: xi in the gap between them gives the
    # rarefaction's left state without evaluating a curve
    params = ModelParams(0.05)
    Ul = np.array([0.2, -0.1, -0.15])
    fan = solve_riemann(Ul, compose(Ul, (-0.1, 0.2, 0.0), params), params)
    shock, rare = fan.waves[:2]
    assert (shock.family, shock.kind, rare.family, rare.kind) == (1, SHOCK, 2, RAREFACTION)
    calls = []
    monkeypatch.setattr(wc, "rarefaction", lambda *args: calls.append(args))
    for xi in (shock.speed + 1e-9, 0.5 * (shock.speed + rare.speed[0]), rare.speed[0] - 1e-9):
        assert evaluate_fan(fan, xi) is rare.left
    assert calls == []
    assert np.array_equal(rare.left, shock.right)


@pytest.mark.parametrize("eta", [0.05, 0.2])
def test_fan_sampling_matches_bisection_oracle(eta):
    params = ModelParams(eta)
    Ul = np.array([0.2, -0.1, -0.15])
    fan = solve_riemann(Ul, compose(Ul, (0.08, 0.05, -0.08), params), params)
    assert [(w.family, w.kind) for w in fan.waves] == [
        (1, RAREFACTION), (2, RAREFACTION), (3, RAREFACTION)
    ]
    for wave in fan.waves:
        for xi in np.linspace(*wave.speed, 5):
            state = evaluate_fan(fan, xi)
            oracle = oracles.bisect_rarefaction(wave, xi, params)
            assert np.max(np.abs(state - oracle)) <= 1e-11
            assert abs(fx.eigenvalues(state, params)[wave.family - 1] - xi) <= 1e-12


def test_evaluate_fan_rejects_nonfinite():
    fan = solve_riemann(np.zeros(3), np.zeros(3), P0)
    with pytest.raises(DomainError):
        evaluate_fan(fan, float("nan"))


def test_check_fan_on_solver_output():
    params = ModelParams(0.02)
    Ul = np.array([0.25, 0.0, -0.25])
    fan = solve_riemann(Ul, compose(Ul, (-0.05, -0.1, 0.03), params), params)
    diag = check_fan(fan, params)
    assert diag.ok
    assert diag.speeds_ordered and diag.states_chained
    for wd in diag.waves:
        if wd.rh_residual is not None:
            assert wd.rh_residual <= 1e-9


def test_check_fan_sets_each_wave_kind_its_own_fields():
    params = ModelParams(0.02)
    Ul = np.array([0.25, 0.0, -0.25])
    fan = solve_riemann(Ul, compose(Ul, (-0.05, 0.1, 0.03), params), params)
    shock, rare = fan.waves[0], fan.waves[1]
    assert (shock.kind, rare.kind) == (SHOCK, RAREFACTION)
    diag = check_fan(fan, params)
    assert diag.ok
    assert diag.waves[1] == riemann.WaveDiagnostics(
        family=2, kind=RAREFACTION, strength=rare.strength, rh_residual=None, lax=None,
        interval_increasing=True, kind_consistent=True,
    )
    assert diag.waves[0] == riemann.WaveDiagnostics(
        family=1, kind=SHOCK, strength=shock.strength,
        rh_residual=wc.rh_residual(shock.left, shock.right, shock.speed, params),
        lax=wc.lax_admissible(1, shock.left, shock.right, shock.speed, params),
        interval_increasing=None, kind_consistent=True,
    )
    assert diag.waves[0].lax.admissible

    mislabelled = dataclasses.replace(shock, kind=CONTACT)
    diag = check_fan(dataclasses.replace(fan, waves=(mislabelled, *fan.waves[1:])), params)
    assert not diag.ok and not diag.waves[0].kind_consistent and diag.waves[0].lax.admissible

    decreasing = dataclasses.replace(rare, speed=rare.speed[::-1])
    waves = (shock, decreasing, *fan.waves[2:])
    diag = check_fan(dataclasses.replace(fan, waves=waves), params)
    assert not diag.ok and diag.waves[1].interval_increasing is False
    assert diag.speeds_ordered and diag.states_chained


def test_check_fan_flags_inadmissible_wave():
    base = np.array([0.1, 0.2, -0.1])
    s = 0.12
    point = wc.hugoniot(2, base, s, P0)
    bogus = Wave(
        family=2, kind=SHOCK, strength=s, left=base, right=point.state, speed=point.speed
    )
    fan = solve_riemann(base, base, P0)
    fan = type(fan)(
        left_state=base,
        waves=(bogus,),
        strengths=(0.0, s, 0.0),
        residual=0.0,
        params=P0,
    )
    diag = check_fan(fan, P0)
    assert not diag.ok
    assert diag.waves[0].lax is not None and not diag.waves[0].lax.admissible


def test_check_fan_empty_fan_valid():
    fan = solve_riemann(np.zeros(3), np.zeros(3), P0)
    assert check_fan(fan, P0).ok


def test_nonconvergence_raises_with_residual(monkeypatch):
    monkeypatch.setattr(riemann, "MAX_ITER", 0)
    Ul = np.array([0.25, 0.0, -0.25])
    Ur = np.array([-0.2, 0.3, 0.4])
    with pytest.raises(ConvergenceError) as err:
        solve_riemann(Ul, Ur, P0)
    assert err.value.residual is not None and err.value.residual > 0.0


def test_outside_ball_warning():
    fan = solve_riemann(np.array([1.2, 0.0, 0.0]), np.array([1.1, 0.0, 0.0]), P0)
    assert any("unit ball" in note for note in fan.warnings)


@pytest.mark.parametrize(
    "eta, strengths, expected",
    [
        # a 2-rarefaction between outer rarefactions
        (0.05, (0.03, 0.08, -0.02), (0.029999999999999978, 0.08, -0.020000000000000018)),
        # a 2-shock between contacts
        (0.0, (0.04, -0.1, 0.05), (0.04000000000000004, -0.10000000000000003, 0.04999999999999999)),
        # a 2-rarefaction between contacts
        (0.0, (0.03, 0.2, -0.02), (0.029999999999999954, 0.2, -0.020000000000000004)),
    ],
)
def test_solve_evaluates_each_middle_wave_once(monkeypatch, eta, strengths, expected):
    params = ModelParams(eta)
    Ul = np.array([0.1, -0.2, 0.15])
    Ur = compose(Ul, strengths, params)
    reference = solve_riemann(Ul, Ur, params)
    evaluations = []
    hugoniot2, rarefaction2 = wc._hugoniot2, wc._rarefaction2

    def counting_hugoniot2(base, s, params):
        evaluations.append((tuple(base.tolist()), s))
        return hugoniot2(base, s, params)

    def counting_rarefaction2(u, v, w, s, eta):
        evaluations.append(((u, v, w), s))
        return rarefaction2(u, v, w, s, eta)

    monkeypatch.setattr(wc, "_hugoniot2", counting_hugoniot2)
    monkeypatch.setattr(wc, "_rarefaction2", counting_rarefaction2)
    fan = solve_riemann(Ul, Ur, params)
    assert evaluations and len(set(evaluations)) == len(evaluations)
    assert len(evaluations) == fan.iterations
    if eta == 0.0:
        # g(s1) is affine at eta = 0: two starting points, one secant step
        assert len(evaluations) == 3
    oracles.assert_bit_equal(fan, reference)
    assert np.max(np.abs(np.array(fan.strengths) - strengths)) <= 1e-15
    # the strengths the scalar secant in s1 gives
    assert fan.strengths == expected


# one seed per eta; int(100 eta) for the others, which would give 1e-3 the seed of 0
FUZZ_SEEDS = {0.0: 0, 1e-3: 1, 0.05: 5, 0.2: 20, 0.2499: 24}


@pytest.mark.parametrize("eta", list(FUZZ_SEEDS))
def test_seeded_random_pairs_solve_and_pass_diagnostics(eta):
    params = ModelParams(eta)
    rng = np.random.default_rng([2026, FUZZ_SEEDS[eta]])
    pairs = oracles.ball_sample(rng, 20, 0.9).reshape(10, 2, 3)
    for Ul, Ur in pairs:
        fan = solve_riemann(Ul, Ur, params)
        diagnostics = check_fan(fan, params)
        assert diagnostics.ok
        assert fan.residual <= 1e-12
        assert all(d.rh_residual <= 1e-13 for d in diagnostics.waves if d.rh_residual is not None)
        for wave in fan.waves:
            if wave.kind != RAREFACTION and abs(wave.strength) >= 1e-3:
                oracle_speed, _ = oracles.rh_speed(wave.left, wave.right, params)
                assert abs(wave.speed - oracle_speed) <= 1e-12


@pytest.mark.parametrize("eta", [0.0, 1e-4, 0.05, 0.2])
def test_weak_wave_speeds_are_the_exact_eigenvalue_means(eta):
    # a least-squares Rankine-Hugoniot speed loses about eps |F| / |s|
    params = ModelParams(eta)
    rng = np.random.default_rng([2028, int(1e4 * eta)])
    for base in oracles.ball_sample(rng, 5, 0.8):
        for fam, sign in ((1, -1.0), (2, -1.0), (3, 1.0)):
            for size in (1e-3, 1e-6, 1e-9, 1e-12):
                right = wc.hugoniot(fam, base, sign * size, params).state
                (wave,) = solve_riemann(base, right, params).waves
                assert wave.family == fam and wave.kind != RAREFACTION
                (a_l, b_l), (a_r, b_r) = (
                    fx._line_coords(*U.tolist()) for U in (wave.left, wave.right)
                )
                exact = {
                    1: -4.0 + 2.0 * eta * (a_l + a_r),
                    2: wave.left[1] + wave.right[1],
                    3: 4.0 - 2.0 * eta * (b_l + b_r),
                }[fam]
                assert abs(wave.speed - exact) <= 1e-15 * (1.0 + abs(exact))


@pytest.mark.parametrize("eta", list(FUZZ_SEEDS))
def test_seeded_random_pairs_with_a_2_rarefaction_solve_and_pass_diagnostics(eta):
    params = ModelParams(eta)
    rng = np.random.default_rng([2027, FUZZ_SEEDS[eta]])
    for Ul, Ur in oracles.ball_sample(rng, 100, 0.95).reshape(50, 2, 3):
        if Ul[1] > Ur[1]:
            Ul, Ur = Ur, Ul  # s2 = v_r - v_l > 0: the middle wave is a 2-rarefaction
        fan = solve_riemann(Ul, Ur, params)
        assert [w.kind for w in fan.waves if w.family == 2] == [RAREFACTION]
        assert check_fan(fan, params).ok
        assert fan.residual <= 1e-12


def _fan_record(fan):
    """Every float and state byte of a solved fan."""
    return (
        fan.strengths, fan.residual, fan.iterations, fan.warnings,
        fan.left_state.tobytes(), fan.right_state.tobytes(),
        [(w.family, w.kind, w.strength, w.speed, w.left.tobytes(), w.right.tobytes())
         for w in fan.waves],
    )


def _composed_strengths(rng):
    """One strength per family: zero, below TOL_ZERO, or up to 0.2 of either sign."""
    out = []
    for _ in range(3):
        mode = rng.integers(6)
        size = {0: 0.0, 1: 1e-14}.get(mode, 10.0 ** rng.uniform(-6.0, np.log10(0.2)))
        out.append(size if mode % 2 else -size)
    return out


@pytest.mark.parametrize("eta", list(FUZZ_SEEDS))
def test_float_solve_matches_the_array_compose_bit_for_bit(eta):
    # 300 pairs composed along the wave curves, so every wave-kind combination
    # comes up, with waves left out (|s| <= TOL_ZERO) and s2 = 0 among them
    params = ModelParams(eta)
    rng = np.random.default_rng([2029, FUZZ_SEEDS[eta]])
    kinds = set()
    for Ul in oracles.ball_sample(rng, 300, 0.6):
        strengths = _composed_strengths(rng)
        fan = solve_riemann(Ul, compose(Ul, strengths, params), params)
        reference = oracles.solve_riemann_arrays(Ul, compose(Ul, strengths, params), params)
        assert _fan_record(fan) == _fan_record(reference)
        kinds.add(tuple(next((w.kind for w in fan.waves if w.family == fam), None)
                        for fam in (1, 2, 3)))
    outer = [None, CONTACT] if eta == 0.0 else [None, SHOCK, RAREFACTION]
    middle = [None, SHOCK, RAREFACTION]
    assert kinds == {(a, b, c) for a in outer for b in middle for c in outer}


# pairs with 0.9 <= |U| < 0.999 whose solve fails at eta >= 0.2
EDGE_OF_BALL = [
    (0.2, [0.145, -0.9347, 0.088], [0.5665, 0.3807, 0.6934]),
    (0.2, [0.1541, -0.885, 0.4336], [0.5269, 0.4159, 0.6739]),
    (0.2499, [-0.1764, -0.176, -0.9324], [0.0329, 0.9767, 0.0415]),
    (0.2499, [-0.1013, -0.3519, -0.9023], [-0.507, 0.717, -0.3183]),
    (0.2499, [-0.2121, -0.9323, -0.0105], [0.8724, 0.1275, 0.2568]),
    (0.2499, [-0.1444, -0.899, 0.1297], [0.8758, 0.1115, 0.2932]),
]


@pytest.mark.parametrize("eta, Ul, Ur", EDGE_OF_BALL)
def test_edge_of_ball_failures_match_the_array_compose(eta, Ul, Ur):
    params = ModelParams(eta)
    with pytest.raises(ConvergenceError) as reference:
        oracles.solve_riemann_arrays(Ul, Ur, params)
    with pytest.raises(ConvergenceError) as err:
        solve_riemann(Ul, Ur, params)
    assert str(err.value) == str(reference.value)
    oracles.assert_bit_equal(err.value.iterate, reference.value.iterate)
    assert err.value.residual == reference.value.residual


@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_float_solve_keeps_the_signed_zeros_of_the_array_compose(eta):
    # Ul + s1 r1 turns v_l = -0.0 into +0.0 for s1 >= 0, and the float compose must too
    params = ModelParams(eta)
    pairs = [
        ([0.1, -0.0, 0.2], [0.3, 0.1, -0.1]),
        ([0.1, -0.0, 0.2], [-0.3, -0.0, -0.1]),
        ([0.1, 0.2, 0.2], [-0.3, -0.0, 0.4]),
        ([-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]),
    ]
    for Ul, Ur in pairs:
        fan = solve_riemann(Ul, Ur, params)
        assert _fan_record(fan) == _fan_record(oracles.solve_riemann_arrays(Ul, Ur, params))
