"""Wave-curve tests: closed-form 2-Hugoniot, continued loci, rarefactions, Lax.

The closed form is checked against a test-local Rankine-Hugoniot Newton solve
that starts from the base state (never from the closed form itself).
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import bjsystem.flux as fx
import bjsystem.wavecurves as wc
import oracles
from bjsystem.errors import ConvergenceError, DomainError, SingularCurveError
from bjsystem.flux import ModelParams

P0 = ModelParams(0.0)


def rh_newton_oracle(base, s, params, tol=1e-14):
    """Independent 2-shock solve: unknowns (u, w, gamma), v pinned to vb + s.

    Initialized at the base state, finite-difference free (analytic flux
    derivative recomputed here from scratch).
    """
    base = np.asarray(base, dtype=float)
    v_new = base[1] + s
    z = np.array([base[0], base[2], 2.0 * base[1] + s])
    F_base = fx.flux(base, params)
    for _ in range(80):
        state = np.array([z[0], v_new, z[1]])
        R = fx.flux(state, params) - F_base - z[2] * (state - base)
        if np.linalg.norm(R) <= tol:
            break
        h = 1e-7
        J = np.zeros((3, 3))
        for k, dz in enumerate(np.eye(3) * h):
            zp = z + dz
            sp = np.array([zp[0], v_new, zp[1]])
            Rp = fx.flux(sp, params) - F_base - zp[2] * (sp - base)
            J[:, k] = (Rp - R) / h
        z = z - np.linalg.solve(J, R)
    return np.array([z[0], v_new, z[1]]), z[2]


def test_hugoniot_matrix_at_vbar_zero_display():
    for s in (-0.2, -0.05, 0.1):
        E = wc.hugoniot_matrix(0.0, s)
        expect = (4.0 * s / (s * s - 16.0)) * np.array(
            [[s + 4.0, 4.0], [(s + 4.0) * (s - 2.0), 3.0 * s - 4.0]]
        )
        assert np.allclose(E, expect, atol=1e-15)


def test_hugoniot_matrix_singular_locus():
    with pytest.raises(SingularCurveError):
        wc.hugoniot_matrix(0.5, 3.0)
    with pytest.raises(SingularCurveError):
        wc.hugoniot_matrix(-2.5, -1.0)


def test_closed_form_identity_at_zero_strength():
    base = np.array([0.3, -0.2, 0.1])
    point = wc.hugoniot2_closed_form(base, 0.0)
    assert np.array_equal(point.state, base)
    assert point.speed == 2.0 * base[1]


def test_closed_form_reference_point():
    point = wc.hugoniot2_closed_form([0.25, 0.0, -0.25], -0.1)
    assert np.allclose(point.state, [0.2493744, -0.1, -0.2743277], atol=5e-7)
    assert point.speed == -0.1
    assert point.residual <= 1e-12


def test_closed_form_matches_independent_newton():
    worst = 0.0
    for vbar in np.arange(-0.4, 0.4001, 0.1):
        for s in (-0.25, -0.1, -0.01, -0.001):
            for ub in (-0.5, 0.5):
                for wb in (-0.5, 0.5):
                    base = np.array([ub, vbar, wb])
                    closed = wc.hugoniot2_closed_form(base, s)
                    oracle_state, oracle_speed = rh_newton_oracle(base, s, P0)
                    worst = max(
                        worst,
                        float(np.max(np.abs(closed.state - oracle_state))),
                        abs(closed.speed - oracle_speed),
                    )
    assert worst <= 1e-10


def test_hugoniot_newton_agrees_with_closed_form_at_eta0():
    # at eta = 0 `hugoniot` returns the closed form with no Newton step
    base = np.array([0.2, 0.1, -0.3])
    point = wc.hugoniot(2, base, -0.15, P0)
    oracle_state, oracle_speed = rh_newton_oracle(base, -0.15, P0)
    assert np.max(np.abs(point.state - oracle_state)) <= 1e-10
    assert abs(point.speed - oracle_speed) <= 1e-10
    oracles.assert_bit_equal(point, wc.hugoniot2_closed_form(base, -0.15))


@pytest.mark.parametrize("eta", [1e-3, 0.05, 0.2, 0.2499])
def test_hugoniot_family2_matches_independent_newton_over_the_ball(eta):
    params = ModelParams(eta)
    rng = np.random.default_rng([2402, int(eta * 1e4)])
    worst, n = 0.0, 0
    for base in oracles.ball_sample(rng, 150, 0.9):
        s = -float(np.exp(rng.uniform(np.log(1e-4), np.log(0.3))))
        if abs(base[1] + s) >= 0.95:
            continue
        point = wc.hugoniot(2, base, s, params)
        oracle_state, oracle_speed = rh_newton_oracle(base, s, params)
        assert point.speed == 2.0 * base[1] + s
        assert point.residual <= wc.NEWTON_TOL
        worst = max(worst, float(np.max(np.abs(point.state - oracle_state))),
                    abs(point.speed - oracle_speed))
        n += 1
    assert n >= 140
    assert worst <= 1e-11


def test_hugoniot_family2_newton_stops_before_a_full_step_that_does_not_lower_the_residual(
    monkeypatch,
):
    # found by a seeded search over |Ub| < 0.999 and |s| in [0.9, 1.1]: near the
    # root a full Newton step fails to lower the residual
    params = ModelParams(0.2)
    base = np.array([0.2469122491247131, -0.4525592136675538, 0.3173366025194462])
    s = -1.0188465011337866
    gamma = 2.0 * base[1] + s
    states = []
    flux = wc.flux_fn

    def recording(state, p):
        states.append(state)
        return flux(state, p)

    monkeypatch.setattr(wc, "flux_fn", recording)
    point = wc.hugoniot(2, base, s, params)
    F_base = flux(base, params)

    def rh(U):
        return flux(U, params) - F_base - gamma * (U - base)

    # the evaluated states are the base, the seed and then one per full step:
    # each step lowers the residual except the last, which ends the Newton
    residuals = [float(np.linalg.norm(rh(U))) for U in states[1:]]
    assert all(a > b for a, b in zip(residuals, residuals[1:-1]))
    assert residuals[-1] >= residuals[-2]
    before = states[-2]
    J = fx.jacobian(before, params)[::2, ::2]
    step = np.linalg.solve(J - gamma * np.eye(2), rh(before)[::2])
    assert np.array_equal(states[-1][::2], before[::2] - step)
    assert np.array_equal(point.state, before)
    assert point.residual == residuals[-2]
    scale = 1.0 + np.linalg.norm(F_base)
    assert 1e-15 * scale < point.residual <= wc.NEWTON_TOL * scale
    assert np.linalg.norm(point.state) >= 1.6


@pytest.mark.parametrize("eta", [1e-3, 0.05, 0.2, 0.2499])
def test_hugoniot_family2_full_steps_match_the_line_search_newton(eta):
    # the halving line search never changes a verdict: the same points raise, the
    # states inside the ball are bit-identical and the others agree to rounding
    params = ModelParams(eta)
    rng = np.random.default_rng([77, int(eta * 1e4)])
    bases = oracles.ball_sample(rng, 500, 0.999)
    n_raised = n_inside = 0
    for base, s in zip(bases, rng.uniform(-1.5, 1.5, len(bases))):
        try:
            reference = oracles.hugoniot2_line_search(base, s, params)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                wc.hugoniot(2, base, s, params)
            n_raised += 1
            continue
        point = wc.hugoniot(2, base, s, params)
        norm = np.linalg.norm(reference.state)
        if norm < 1.0:
            assert np.array_equal(point.state, reference.state)
            assert (point.speed, point.residual) == (reference.speed, reference.residual)
            n_inside += 1
        else:
            assert np.max(np.abs(point.state - reference.state)) <= 1e-14 * (1.0 + norm)
            assert point.speed == reference.speed
    assert n_inside >= 150
    assert n_raised >= 10 or eta < 0.2  # no point raises at the two smaller eta


def test_hugoniot_family2_past_the_singular_locus():
    # at eta = 0 the closed form has no value past |2 vb + s| = 4
    with pytest.raises(SingularCurveError):
        wc.hugoniot(2, [0.1, -0.5, 0.1], -3.5, P0)
    # for eta > 0 the Newton starts from the base there, and may converge ...
    params = ModelParams(0.05)
    base = np.array([0.2, 0.8, -0.1])
    point = wc.hugoniot(2, base, 2.6, params)
    assert point.speed == 4.2
    assert point.residual <= wc.NEWTON_TOL * (1.0 + np.linalg.norm(fx.flux(base, params)))
    assert point.state[1] == base[1] + 2.6
    # ... or fail, with the reached state and its residual
    with pytest.raises(ConvergenceError, match="2-Hugoniot Newton residual") as err:
        wc.hugoniot(2, [0.1, -0.5, 0.1], -3.5, params)
    assert err.value.iterate.shape == (3,) and err.value.iterate[1] == -4.0
    assert err.value.residual > wc.NEWTON_TOL


def test_hugoniot_family2_singular_newton_block_raises_convergence_error(monkeypatch):
    base, s = np.array([0.2, 0.1, -0.3]), -0.15
    gamma = 2.0 * base[1] + s
    # the 2x2 block of jacobian - gamma I is zero, so no Newton step exists
    monkeypatch.setattr(wc, "jacobian", lambda U, p: gamma * np.eye(3))
    with pytest.raises(ConvergenceError, match="singular Jacobian") as err:
        wc.hugoniot(2, base, s, ModelParams(0.05))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    assert err.value.iterate[1] == base[1] + s
    assert err.value.residual > 0.0


def test_hugoniot_newton_seed_computes_no_rh_residual(monkeypatch):
    calls = []
    rh_residual = wc.rh_residual

    def counting(*args):
        calls.append(args)
        return rh_residual(*args)

    monkeypatch.setattr(wc, "rh_residual", counting)
    wc.hugoniot(2, np.array([0.2, 0.1, -0.3]), -0.15, ModelParams(0.05))
    assert calls == []


def test_hugoniot_family2_small_eta_continuation():
    params = ModelParams(1e-6)
    base = np.array([0.25, 0.0, -0.25])
    point = wc.hugoniot(2, base, -0.1, params)
    closed = wc.hugoniot2_closed_form(base, -0.1)
    assert np.max(np.abs(point.state - closed.state)) <= 1e-5
    assert point.residual <= 1e-12
    oracle_state, oracle_speed = rh_newton_oracle(base, -0.1, params)
    assert np.max(np.abs(point.state - oracle_state)) <= 1e-10


def test_hugoniot_family1_straight_line():
    params = ModelParams(0.05)
    base = np.array([0.25, 0.0, -0.25])
    point = wc.hugoniot(1, base, -0.1, params)
    assert np.array_equal(point.state, base + (-0.1) * np.array([1.0, 0.0, 0.0]))
    assert point.residual <= 1e-10


def test_hugoniot_family3_straight_line():
    base = np.array([0.25, -0.3, -0.25])
    point = wc.hugoniot(3, base, 0.1, P0)
    assert np.allclose(point.state, base + 0.1 * np.array([1.0, 0.0, -2.3]), atol=1e-15)
    assert abs(point.speed - 4.0) <= 1e-12  # third family rides at +4 when eta = 0
    assert point.residual <= 1e-12


def test_family13_curves_stay_in_v_plane():
    rng = np.random.default_rng(13)
    params = ModelParams(0.1)
    for _ in range(30):
        base = rng.uniform(-0.5, 0.5, 3)
        s = rng.uniform(-0.3, 0.3)
        for fam in (1, 3):
            assert wc.hugoniot(fam, base, s, params).state[1] == base[1]
            assert wc.rarefaction(fam, base, s, params).state[1] == base[1]


def test_rarefaction_identity_at_zero():
    base = np.array([0.1, 0.2, 0.3])
    point = wc.rarefaction(2, base, 0.0, ModelParams(0.1))
    assert np.array_equal(point.state, base)


def test_rarefaction_family2_v_additivity_exact():
    rng = np.random.default_rng(17)
    for eta in (0.0, 0.1):
        params = ModelParams(eta)
        for _ in range(10):
            base = rng.uniform(-0.4, 0.4, 3)
            s = rng.uniform(0.01, 0.3)
            point = wc.rarefaction(2, base, s, params)
            assert point.state[1] == base[1] + s


def _rarefaction_cases(rng, n, s_max=0.3):
    """n (base, s) with |base| <= 0.9 and |s| log-uniform in [1e-4, s_max], both signs."""
    bases = oracles.ball_sample(rng, n, 0.9)
    sizes = np.exp(rng.uniform(np.log(1e-4), np.log(s_max), n))
    return list(zip(bases, sizes * rng.choice((-1.0, 1.0), n)))


def test_rarefaction_family2_matches_the_closed_form_at_eta0():
    worst = 0.0
    for base, s in _rarefaction_cases(np.random.default_rng(1505), 1200):
        error = wc.rarefaction(2, base, s, P0).state - oracles.closed_form_rarefaction2(base, s)
        worst = max(worst, float(np.max(np.abs(error))))
    assert worst <= 4e-15


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.05, 0.2, 0.2499])
def test_rarefaction_family2_matches_the_array_rk4(eta):
    params = ModelParams(eta)
    worst = 0.0
    for base, s in _rarefaction_cases(np.random.default_rng([1505, int(eta * 1e4)]), 40):
        rk4 = oracles.rk4_rarefaction2(base, s, params)
        error = wc.rarefaction(2, base, s, params).state - rk4.state
        worst = max(worst, float(np.max(np.abs(error))))
    assert worst <= 2e-14


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.05, 0.2, 0.2499])
def test_rarefaction_family2_evaluation_count(monkeypatch, eta):
    # the fixed-step RK4 this integrator replaced took 4 max(64, ceil(|s| / 1e-3))
    params = ModelParams(eta)
    calls = []
    original = wc._r2_line_at

    def counting(alpha, v, beta, eta):
        calls.append(v)
        return original(alpha, v, beta, eta)

    monkeypatch.setattr(wc, "_r2_line_at", counting)
    rng = np.random.default_rng([1506, int(eta * 1e4)])
    for base, s in _rarefaction_cases(rng, 100, 5e-3) + _rarefaction_cases(rng, 100):
        calls.clear()
        wc.rarefaction(2, base, s, params)
        if abs(s) <= 5e-3:
            assert len(calls) <= 7  # one accepted trial step: the first stage and six more
        assert 3 * len(calls) <= 4 * max(64, int(np.ceil(abs(s) / 1e-3)))


def test_rarefaction_family2_stage_at_a_family_crossing_raises_domain_error():
    # at v = 2 and eta = 0 the middle family meets the third: lambda_2 = lambda_3 = 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="crosses family 3.*eta=0.0"):
            wc.rarefaction(2, [0.1, 2.0, 0.0], 0.01, P0)


def test_rarefaction_family2_step_collapse_raises_convergence_error(monkeypatch):
    # no step meets a zero tolerance, so the step size shrinks to the resolution of v
    monkeypatch.setattr(wc, "RARE_TOL", 0.0)
    base = np.array([0.1, -0.2, 0.15])
    with pytest.raises(ConvergenceError, match="collapsed") as err:
        wc.rarefaction(2, base, 0.05, ModelParams(0.05))
    # no step was accepted: the reached state is the base, through the line coordinates
    assert err.value.iterate[1] == base[1]
    assert np.max(np.abs(err.value.iterate - base)) <= 1e-16
    assert err.value.residual > 0.0


def test_rarefaction_family2_non_finite_stage_raises_domain_error():
    # a finite base whose first direction overflows to nan
    with pytest.raises(DomainError, match="non-finite"):
        wc.rarefaction(2, [1e308, 0.0, 0.0], 0.01, ModelParams(0.1))


def test_rarefaction_family2_endpoint_speed():
    point = wc.rarefaction(2, np.zeros(3), 0.05, P0)
    assert abs(point.speed - 0.1) <= 1e-13
    lam = fx.eigenvalues(point.state, P0)
    assert abs(lam[1] - point.speed) <= 1e-13


def test_curve_tangent_matches_middle_eigenvector():
    # d/ds of the shock branch at s = 0 equals r2, checked by differences
    for base in (np.array([0.25, 0.0, -0.25]), np.array([-0.2, 0.15, 0.3])):
        r2 = fx.r2_direction(base, P0)
        h = 1e-6
        plus = wc.hugoniot2_closed_form(base, h).state
        minus = wc.hugoniot2_closed_form(base, -h).state
        tangent = (plus - minus) / (2.0 * h)
        assert np.max(np.abs(tangent - r2)) <= 1e-6


def test_curves_approach_base_linearly():
    rng = np.random.default_rng(41)
    params = ModelParams(0.05)
    for _ in range(20):
        base = rng.uniform(-0.4, 0.4, 3)
        for fam in (1, 2, 3):
            for s in (-1e-3, 1e-3, -1e-5, 1e-5):
                point = wc.wave_fan_curve(fam, base, s, params)
                assert np.linalg.norm(point.state - base) <= 4.0 * abs(s)


def test_wave_fan_dispatch():
    base = np.array([0.25, 0.0, -0.25])
    params = ModelParams(0.05)
    # family 3 shocks sit at positive strength, rarefactions at negative
    shock = wc.wave_fan_curve(3, base, 0.1, params)
    assert np.array_equal(shock.state, wc.hugoniot(3, base, 0.1, params).state)
    rare = wc.wave_fan_curve(1, base, 0.1, params)
    assert np.array_equal(rare.state, wc.rarefaction(1, base, 0.1, params).state)
    shock2 = wc.wave_fan_curve(2, base, -0.1, params)
    assert abs(shock2.speed - (2.0 * base[1] - 0.1)) <= 1e-10
    # zero strength of either sign goes to the rarefaction branch, which
    # returns the base state at the family speed
    for fam in (1, 2, 3):
        old_zero = wc.CurvePoint(
            state=base.copy(), speed=float(fx.eigenvalues(base, params)[fam - 1])
        )
        for s in (0.0, -0.0):
            oracles.assert_bit_equal(wc.wave_fan_curve(fam, base, s, params), old_zero)


def test_lax_margins_for_2_shock():
    base = np.array([0.1, 0.2, -0.1])
    s = -0.12
    point = wc.hugoniot2_closed_form(base, s)
    check = wc.lax_admissible(2, base, point.state, point.speed, P0)
    assert check.admissible
    # lambda2 = 2v on both sides: margins are exactly |s|
    assert abs(check.left_margin - abs(s)) <= 1e-12
    assert abs(check.right_margin - abs(s)) <= 1e-12


def test_lax_zero_strength_contact():
    base = np.array([0.1, 0.2, -0.1])
    check = wc.lax_admissible(2, base, base, 2.0 * base[1], P0)
    assert check.admissible
    # lambda2 = 2v on both sides, so both margins vanish
    assert abs(check.left_margin) <= 1e-12 and abs(check.right_margin) <= 1e-12


def test_lax_rejects_wrong_side_2_wave():
    base = np.array([0.1, 0.2, -0.1])
    s = 0.12  # rarefaction side dressed as a shock
    point = wc.hugoniot(2, base, s, P0)
    check = wc.lax_admissible(2, base, point.state, point.speed, P0)
    assert not check.admissible
    assert min(check.left_margin, check.right_margin) < -1e-3


def test_curve_warnings():
    near_pole = wc.hugoniot2_closed_form([0.1, 0.9, 0.1], 1.3)  # |2v + s| = 3.1
    assert any("singular" in note for note in near_pole.warnings)
    outside = wc.hugoniot(1, [0.9, 0.2, 0.3], 0.4, ModelParams(0.1))
    assert any("unit ball" in note for note in outside.warnings)


@pytest.mark.parametrize("v", [1.6, -1.6])
def test_only_family2_points_carry_the_2_shock_speed_warning(v):
    params = ModelParams(0.05)
    base = np.array([0.1, v, -0.1])
    ball = "curve point left the unit ball |U| < 1"
    for fam in (1, 3):
        for s in (-0.05, 0.05):
            for curve in (wc.hugoniot, wc.rarefaction):
                assert curve(fam, base, s, params).warnings == (ball,)
    for point in (wc.hugoniot(2, base, -0.05, params), wc.rarefaction(2, base, 0.05, params)):
        assert point.warnings == (
            "2-shock speed |2v+s| >= 3: approaching the singular locus at 4", ball,
        )


KERNEL_ETAS = [0.0, 1e-3, 0.05, 0.2, 0.2499]
# states with signed zeros: v + s * 0.0 must keep the sign the array sum gives
SIGNED_ZERO_STATES = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (0.1, -0.0, -0.0), (-0.0, -0.0, 0.2)]


def _kernel_cases(seed):
    """(state as three floats, s): 12 seeded states of |U| < 0.9 and the signed-zero
    states, each with s of both signs, log-uniform in [1e-4, 0.1], and s = +-0.0."""
    rng = np.random.default_rng(seed)
    states = [tuple(U) for U in oracles.ball_sample(rng, 12, 0.9).tolist()] + SIGNED_ZERO_STATES
    cases = []
    for U in states:
        sizes = np.exp(rng.uniform(np.log(1e-4), np.log(0.1), 2)).tolist()
        cases += [(U, s) for s in (-sizes[0], sizes[1], 0.0, -0.0)]
    return cases


def _outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except (ConvergenceError, DomainError, SingularCurveError) as exc:
        return type(exc), str(exc)


def _kernel_reference(fam, shock, U, s, params):
    """The point of `_curve_state` from the expressions it replaced, as three floats."""
    if fam != 2:
        return tuple(oracles.line_point(fam, np.array(U), s).tolist())
    if shock:
        return tuple(wc._hugoniot2(np.array(U), s, params).state.tolist())
    if s == 0.0:
        return U
    u, w = wc._rarefaction2(*U, s, params.eta)
    return u, U[1] + s, w


@pytest.mark.parametrize("eta", KERNEL_ETAS)
def test_curve_state_equals_the_array_and_family2_expressions_bit_for_bit(eta):
    params = ModelParams(eta)
    for U, s in _kernel_cases(int(1e4 * eta)):
        for fam in (1, 2, 3):
            for shock in (True, False):
                oracles.assert_bit_equal(
                    _outcome(wc._curve_state, fam, shock, *U, s, params),
                    _outcome(_kernel_reference, fam, shock, U, s, params),
                    f"fam {fam}, shock {shock}, U {U}, s {s!r}",
                )


@pytest.mark.parametrize("eta", KERNEL_ETAS)
def test_public_curve_points_equal_the_array_forms_bit_for_bit(eta):
    params = ModelParams(eta)
    for U, s in _kernel_cases(int(1e4 * eta) + 1):
        for fam in (1, 2, 3):
            for public, arrays in ((wc.hugoniot, oracles.hugoniot_arrays),
                                   (wc.rarefaction, oracles.rarefaction_arrays),
                                   (wc.wave_fan_curve, oracles.wave_fan_curve_arrays)):
                oracles.assert_bit_equal(
                    _outcome(public, fam, np.array(U), s, params),
                    _outcome(arrays, fam, np.array(U), s, params),
                    f"{public.__name__} fam {fam}, U {U}, s {s!r}",
                )


@pytest.mark.parametrize("fam", [1, 2, 3])
def test_curve_state_matches_the_exact_rational_curve_at_eta0(fam):
    # the outer lines and the 2-shock closed form in exact rationals; the
    # rounding of the float kernel stays within 2 eps (1 + |U|) per component
    rng = np.random.default_rng(40 + fam)
    eps = np.finfo(float).eps
    worst = 0.0
    for U in oracles.ball_sample(rng, 1000, 0.9).tolist():
        s = float(rng.uniform(-0.1, 0.1))
        exact = oracles.exact_curve_state_eta0(fam, U, s)
        point = wc._curve_state(fam, True, *U, s, P0)
        scale = 1.0 + float(np.linalg.norm([float(x) for x in exact]))
        error = max(abs(Fraction(x) - e) for x, e in zip(point, exact))
        worst = max(worst, float(error) / (eps * scale))
    assert worst <= 2.0
