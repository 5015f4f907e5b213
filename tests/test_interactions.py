"""Interaction-estimate tests: 2-2 Taylor structure and 1-2 bounds/contraction."""

import numpy as np
import pytest

import bjsystem.interactions as ia
import bjsystem.wavecurves as wc
from bjsystem.errors import ContractionError, DomainError
from bjsystem.flux import ModelParams

import oracles

A = 0.25
U_SHARP = ia.base_point(A)


def test_scenario_validation_22():
    ia.Interaction22Scenario(a=A, Ul=U_SHARP, s1=-1e-3, s2=-1e-3, eta=1e-4)
    with pytest.raises(DomainError):
        ia.Interaction22Scenario(a=0.6, Ul=U_SHARP, s1=-1e-3, s2=-1e-3, eta=0.0)
    with pytest.raises(DomainError):
        ia.Interaction22Scenario(a=A, Ul=U_SHARP, s1=1e-3, s2=-1e-3, eta=0.0)
    with pytest.raises(DomainError):
        ia.Interaction22Scenario(a=A, Ul=U_SHARP + 0.1, s1=-1e-3, s2=-1e-3, eta=0.0)
    with pytest.raises(DomainError):
        ia.Interaction22Scenario(a=A, Ul=U_SHARP, s1=-1e-3, s2=-1e-3, eta=0.1)


def test_scenario_validation_12():
    ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=-0.2, sigma=-0.1, eta=1e-3)
    with pytest.raises(DomainError, match=r"\|Ul\| < 1/2"):
        ia.Interaction12Scenario(Ul=np.array([0.4, 0.2, -0.3]), s=-0.2, sigma=-0.1, eta=0.0)
    with pytest.raises(DomainError, match="s must lie in"):
        ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=0.1, sigma=-0.1, eta=0.0)
    with pytest.raises(DomainError, match="sigma must lie in"):
        ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=-0.2, sigma=-0.25, eta=0.0)
    with pytest.raises(DomainError, match="eta must lie in"):
        ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=-0.2, sigma=-0.1, eta=0.25)


def test_pattern_marks_each_wave_by_the_side_of_its_family():
    # shocks sit at s < 0 for families 1 and 2 and at s > 0 for family 3
    assert ia._pattern(-0.1, -0.1, 0.1) == "SSS"
    assert ia._pattern(0.1, 0.1, -0.1) == "RRR"
    assert ia._pattern(0.1, -0.1, 0.1) == "RSS"
    assert ia._pattern(0.0, 0.1, 0.0) == "-R-"


def test_interact_22_zero_strengths_trivial():
    sc = ia.Interaction22Scenario(a=A, Ul=U_SHARP, s1=0.0, s2=0.0, eta=0.0)
    rep = ia.interact_22(sc)
    assert rep.outgoing == (0.0, 0.0, 0.0)
    assert rep.pattern == "---"


def test_interact_22_leading_order_coefficient():
    s1 = s2 = -0.01
    sc = ia.Interaction22Scenario(a=A, Ul=U_SHARP, s1=s1, s2=s2, eta=0.0, eps=0.05)
    rep = ia.interact_22(sc)
    sigma, s_mid, tau = rep.outgoing
    lead = (A / 32.0) * s1 * s2 * (s1 + s2)
    assert sigma < 0.0 < tau
    assert s_mid == s1 + s2
    assert abs(sigma - lead) / abs(lead) <= 0.05
    assert abs(tau + lead) / abs(lead) <= 0.05


def test_interact_22_sign_pattern_over_sampled_box():
    for sc in ia.sample_scenarios_22(200, a=A, eps=1e-2, seed=2):
        rep = ia.interact_22(sc)
        assert rep.pattern == "SSS"
        assert rep.outgoing[0] < 0.0 < rep.outgoing[2]
        assert rep.outgoing[1] == sc.s1 + sc.s2
        assert rep.mid_discrepancy <= 1e-16


def test_fit_cubic_coefficient_recovers_synthetic_model():
    pairs = [(-h1, -h2) for h1 in (1e-3, 2e-3, 3e-3) for h2 in (1e-3, 2e-3, 3e-3)]
    values = [0.01 * s1 * s2 * (s1 + s2) for s1, s2 in pairs]
    coeff, cond = ia.fit_cubic_coefficient(pairs, values)
    assert abs(coeff - 0.01) <= 1e-10
    assert cond >= 1.0


def test_richardson_extrapolation_kills_linear_and_quadratic_error():
    h = 0.01
    model = lambda h: 3.0 + 2.0 * h - 5.0 * h * h
    out = ia._richardson3([model(h), model(2 * h), model(4 * h)])
    assert abs(out - 3.0) <= 1e-12


def test_taylor_fit_matches_cubic_targets():
    fit = ia.taylor_fit_22(a=A, eta=0.0)
    assert abs(fit.c_sigma - fit.c_sigma_target) / fit.c_sigma_target <= 0.02
    assert abs(fit.c_tau - fit.c_tau_target) / abs(fit.c_tau_target) <= 0.02
    # outgoing outer strengths are antisymmetric to leading order
    assert abs(fit.c_sigma + fit.c_tau) / abs(fit.c_sigma) <= 0.05
    rel = np.abs(fit.g_cubic - ia.G_CUBIC_TARGET) / np.abs(ia.G_CUBIC_TARGET)
    assert float(rel.max()) <= 0.02
    # single incoming wave: no outgoing outer strengths at all
    assert fit.axis_max_abs <= 1e-12


def test_g_matrix_prefactor_identity():
    # H^{-1}(0) = [[1, 1/2], [0, -1/2]]
    H = ia._h_matrix(0.0)
    assert np.allclose(np.linalg.inv(H), [[1.0, 0.5], [0.0, -0.5]], atol=1e-14)


def test_closed_form_12_zero_incoming_1_shock():
    cf = ia.closed_form_12_eta0(U_SHARP, -0.2, 0.0)
    assert cf.sigma_prime == 0.0 and cf.tau_prime == 0.0


def test_closed_form_12_reference_values():
    cf = ia.closed_form_12_eta0(np.array([0.25, 0.0, -0.25]), -0.2, -0.1)
    assert abs(cf.sigma_prime - (-2.0 / 22.0)) <= 1e-15
    assert abs(cf.tau_prime - (3.8 / (4.2 * 2.2)) * 0.02) <= 1e-15
    assert abs(cf.gamma - (-0.2)) <= 1e-15


def test_closed_form_12_bracketing_ratios():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v_l = rng.uniform(-0.49, 0.49)
        s = -rng.uniform(1e-6, 0.2499)
        sigma = -rng.uniform(1e-6, 0.2499)
        cf = ia.closed_form_12_eta0(np.array([0.0, v_l, 0.0]), s, sigma)
        assert 2.0 / 3.0 < cf.sigma_ratio < 1.0
        assert 1.0 / 21.0 < cf.tau_ratio < 4.0
        assert 2.0 * sigma <= cf.sigma_prime <= 0.5 * sigma
        assert sigma * s / 100.0 <= cf.tau_prime <= 10.0 * sigma * s


def test_linear_system_inverse_closed_form():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        v_l = rng.uniform(-0.49, 0.49)
        s = -rng.uniform(1e-4, 0.2499)
        A_mat = oracles.linear_system_matrix(v_l, s)
        A_inv = ia.linear_system_matrix_inv(v_l, s)
        worst = max(worst, float(np.max(np.abs(A_mat @ A_inv - np.eye(2)))))
    assert worst <= 1e-13


def test_contraction_at_eta0_returns_closed_form_in_one_step():
    sc = ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=-0.2, sigma=-0.1, eta=0.0)
    result = ia.contraction_solve_12(sc)
    assert result.iterations == 1
    cf = ia.closed_form_12_eta0(sc.Ul, sc.s, sc.sigma)
    assert np.array_equal(result.x, [cf.sigma_prime, cf.tau_prime])


def test_contraction_matches_riemann_solver():
    sc = ia.Interaction12Scenario(Ul=np.array([0.25, 0.0, -0.25]), s=-0.2, sigma=-0.1, eta=1e-3)
    result = ia.contraction_solve_12(sc)
    rep = ia.interact_12(sc)
    agreement = np.linalg.norm(result.x - np.array([rep.outgoing[0], rep.outgoing[2]]))
    assert agreement <= 1e-10
    assert result.contraction_ratio <= 0.5
    assert result.empirical_k > 0.0


def test_contraction_out_of_steps_raises_with_its_trace(monkeypatch):
    sc = ia.Interaction12Scenario(Ul=np.array([0.25, 0.0, -0.25]), s=-0.2, sigma=-0.1, eta=1e-3)
    assert ia.contraction_solve_12(sc).iterations == 3
    monkeypatch.setattr(ia, "CONTRACTION_MAX_ITER", 2)
    with pytest.raises(ContractionError, match="did not converge in 2 steps") as err:
        ia.contraction_solve_12(sc)
    assert len(err.value.trace) == 2
    assert err.value.residual == err.value.trace[-1] > ia.CONTRACTION_TOL
    assert err.value.iterate.shape == (2,)


def test_contraction_that_stops_contracting_raises_with_its_trace(monkeypatch):
    # a steep linear p1 makes the map expand: each step is longer than the one before
    sc = ia.Interaction12Scenario(Ul=np.array([0.25, 0.0, -0.25]), s=-0.2, sigma=-0.1, eta=1e-3)
    monkeypatch.setattr(ia, "p1", lambda U: 1e5 * U[0])
    with pytest.raises(ContractionError, match="stopped contracting") as err:
        ia.contraction_solve_12(sc)
    trace = err.value.trace
    assert len(trace) == 3 and trace[0] < trace[1] < trace[2]
    assert err.value.residual == trace[-1]
    assert err.value.iterate.shape == (2,)


def test_interact_12_zero_1_shock_passes_through():
    sc = ia.Interaction12Scenario(Ul=np.array([0.2, 0.1, -0.2]), s=-0.15, sigma=0.0, eta=1e-3)
    rep = ia.interact_12(sc)
    assert rep.pattern == "-S-"
    assert abs(rep.outgoing[0]) <= 1e-13 and abs(rep.outgoing[2]) <= 1e-13


def test_interact_12_reproduces_closed_form_at_eta0():
    rng = np.random.default_rng(6)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        Ul = 0.45 * rng.uniform(0.0, 1.0) * direction
        s = -rng.uniform(1e-3, 0.24)
        sigma = -rng.uniform(1e-3, 0.24)
        sc = ia.Interaction12Scenario(Ul=Ul, s=s, sigma=sigma, eta=0.0)
        rep = ia.interact_12(sc)
        cf = ia.closed_form_12_eta0(Ul, s, sigma)
        assert abs(rep.outgoing[0] - cf.sigma_prime) <= 1e-9
        assert abs(rep.outgoing[2] - cf.tau_prime) <= 1e-9


def test_interact_12_sss_at_moderate_eta():
    sc = ia.Interaction12Scenario(
        Ul=np.array([0.1, 0.1, -0.1]), s=-0.1, sigma=-0.05, eta=0.05
    )
    rep = ia.interact_12(sc)
    assert rep.pattern == "SSS"
    assert rep.passed


def test_verify_bounds_batch():
    records = ia.verify_bounds_12(40, eta=1e-3, seed=5)
    assert len(records) == 40
    for rec in records:
        assert rec.passed
        assert rec.report.pattern == "SSS"
        assert rec.oracle_agreement <= 1e-9
        assert {c.name for c in rec.report.bound_checks} == {
            "sigma_lower",
            "sigma_upper",
            "tau_lower",
            "tau_upper",
        }


def test_incoming_configuration_actually_collides():
    # the 2-shock must run faster than the 1-shock it overtakes
    params = ModelParams(1e-3)
    sc = ia.Interaction12Scenario(Ul=np.array([0.25, 0.0, -0.25]), s=-0.2, sigma=-0.1, eta=1e-3)
    Um = wc.wave_fan_curve(2, sc.Ul, sc.s, params)
    one = wc.wave_fan_curve(1, Um.state, sc.sigma, params)
    assert Um.speed > one.speed


def test_interact_12_degenerate_incoming_strength():
    # sigma at the edge of representability: bounds hold by continuity even
    # though the outgoing 3-wave drops below the pattern threshold
    for eta in (0.0, 1e-3):
        sc = ia.Interaction12Scenario(
            Ul=np.array([0.25, 0.0, -0.25]), s=-0.2, sigma=-1e-12, eta=eta
        )
        rep = ia.interact_12(sc)
        assert all(c.passed for c in rep.bound_checks)
        assert rep.outgoing[0] < 0.0
