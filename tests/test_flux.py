"""Flux, Jacobian and eigenstructure tests.

Independent oracles: central finite differences for the Jacobian,
numpy.linalg.eigvals for the characteristic speeds, and the general numerics
of `oracles` (roots of the characteristic cubic, SVD null vectors, finite
differences of the roots) for the closed-form eigenstructure.
"""

import struct
import warnings

import numpy as np
import pytest

import bjsystem.flux as fx
from bjsystem.errors import DomainError, HyperbolicityError
from bjsystem.flux import ModelParams

import oracles


def fd_jacobian(U, params, h=1e-5):
    J = np.zeros((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        J[:, k] = (fx.flux(U + e, params) - fx.flux(U - e, params)) / (2.0 * h)
    return J


def test_model_params_range():
    ModelParams(0.0)
    ModelParams(0.2499)
    with pytest.raises(ValueError):
        ModelParams(0.25)
    with pytest.raises(ValueError):
        ModelParams(-1e-9)
    with pytest.raises(ValueError):
        ModelParams(float("nan"))


@pytest.mark.parametrize("eta", [-0.1, 0.25, float("nan")])
def test_model_params_raises_domain_error(eta):
    with pytest.raises(DomainError, match=r"eta must lie in \[0, 1/4\), got " + repr(eta)):
        ModelParams(eta)


def test_flux_vanishes_at_origin():
    assert np.array_equal(fx.flux(np.zeros(3), ModelParams(0.0)), np.zeros(3))


def test_flux_at_base_point():
    U = np.array([0.25, 0.0, -0.25])
    assert np.allclose(fx.flux(U, ModelParams(0.0)), [0.0, 0.0, -1.0], atol=1e-15)
    # p1 vanishes there and p3 = w^2 = 1/16
    assert np.allclose(
        fx.flux(U, ModelParams(0.01)), [0.0, 0.0, -1.0 + 0.01 * 0.0625], atol=1e-15
    )


def test_flux_rejects_bad_input():
    with pytest.raises(DomainError):
        fx.flux([np.nan, 0.0, 0.0], ModelParams(0.0))
    with pytest.raises(DomainError):
        fx.as_state([1.0, 2.0])


@pytest.mark.parametrize("eta", [0.0, 0.2])
def test_jacobian_matches_finite_differences(eta):
    params = ModelParams(eta)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        U = rng.uniform(-0.9, 0.9, 3)
        err = np.max(np.abs(fx.jacobian(U, params) - fd_jacobian(U, params)))
        worst = max(worst, err)
    assert worst <= 1e-6


def test_jacobian_at_origin():
    expected = np.array([[-4.0, 0.0, -4.0], [0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    J = fx.jacobian(np.zeros(3), ModelParams(0.0))
    assert np.array_equal(J, expected)
    assert np.allclose(fd_jacobian(np.zeros(3), ModelParams(0.0)), expected, atol=1e-9)


def test_jacobian_second_row():
    rng = np.random.default_rng(7)
    for _ in range(20):
        U = rng.uniform(-0.9, 0.9, 3)
        J = fx.jacobian(U, ModelParams(rng.uniform(0.0, 0.24)))
        assert np.array_equal(J[1], [0.0, 2.0 * U[1], 0.0])


def test_middle_eigenvalue_is_2v_on_the_v_axis():
    for v in (-0.7, -0.1, 0.0, 0.3, 0.8):
        U = np.array([0.0, v, 0.0])
        lam = fx.eigenvalues(U, ModelParams(0.0))
        oracle = np.sort(np.linalg.eigvals(fx.jacobian(U, ModelParams(0.0))).real)
        assert abs(lam[1] - 2.0 * v) <= 1e-13
        assert np.allclose(lam, oracle, atol=1e-10)


def test_eigenvalues_eta0_closed_form_vs_lapack_oracle():
    params = ModelParams(0.0)
    lam = fx.eigenvalues(np.array([0.3, 0.1, -0.2]), params)
    assert np.allclose(lam, [-4.0, 0.2, 4.0], atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        U = rng.uniform(-0.5, 0.5, 3)
        lam = fx.eigenvalues(U, params)
        oracle = np.sort(np.linalg.eigvals(fx.jacobian(U, params)).real)
        assert np.allclose(lam, oracle, atol=1e-10)
        assert abs(lam[0] + 4.0) <= 1e-12
        assert abs(lam[1] - 2.0 * U[1]) <= 1e-12
        assert abs(lam[2] - 4.0) <= 1e-12


def test_straight_line_eigenvectors_all_eta():
    rng = np.random.default_rng(19)
    for eta in (0.0, 0.05, 0.2):
        params = ModelParams(eta)
        for _ in range(30):
            U = rng.uniform(-0.5, 0.5, 3)
            es = fx.eigensystem(U, params)
            assert np.array_equal(es.rvec[0], [1.0, 0.0, U[1]])
            assert np.array_equal(es.rvec[2], [1.0, 0.0, U[1] - 2.0])
            assert es.rvec[1][1] == 1.0
            assert es.residuals.max() <= 1e-10


def test_eigensystem_residuals_in_ball():
    rng = np.random.default_rng(23)
    for eta in (0.0, 0.05, 0.2):
        params = ModelParams(eta)
        worst = 0.0
        for _ in range(60):
            U = rng.uniform(-0.5, 0.5, 3)
            if np.linalg.norm(U) > 0.9:
                continue
            es = fx.eigensystem(U, params)
            J = fx.jacobian(U, params)
            for i in range(3):
                worst = max(worst, np.linalg.norm(J @ es.rvec[i] - es.lam[i] * es.rvec[i]))
            assert es.lam[0] < es.lam[1] < es.lam[2]
        assert worst <= 1e-10


def test_uw_block_reproduces_flux_at_eta0():
    params = ModelParams(0.0)
    grid = np.linspace(-0.5, 0.5, 7)
    for u in grid:
        for v in grid:
            for w in grid:
                U = np.array([u, v, w])
                F = fx.flux(U, params)
                expect = oracles.uw_block(v) @ np.array([u, w])
                assert np.allclose([F[0], F[2]], expect, atol=1e-14)


def test_halton_and_ball_sampling_deterministic():
    a = fx.sample_ball(100, 0.9, seed=3)
    b = fx.sample_ball(100, 0.9, seed=3)
    assert np.array_equal(a, b)
    c = fx.sample_ball(100, 0.9, seed=4)
    assert not np.array_equal(a, c)
    assert np.all(np.linalg.norm(a, axis=1) <= 0.9 + 1e-12)


def test_hyperbolicity_report_eta0():
    report = fx.check_strict_hyperbolicity(ModelParams(0.0), radius=0.9, n_samples=10000)
    assert report.passed
    assert report.min_gap_12 > 0.0 and report.min_gap_23 > 0.0
    assert abs(report.lambda1_range[0] + 4.0) <= 1e-12
    assert abs(report.lambda3_range[1] - 4.0) <= 1e-12
    assert -1.8 - 1e-9 <= report.lambda2_range[0] and report.lambda2_range[1] <= 1.8 + 1e-9


def test_hyperbolicity_report_eta02():
    assert fx.check_strict_hyperbolicity(ModelParams(0.2), radius=0.9, n_samples=5000).passed


def test_hyperbolicity_at_origin_only():
    report = fx.check_strict_hyperbolicity(ModelParams(0.0), radius=0.0, n_samples=10)
    assert abs(report.min_gap_12 - 4.0) <= 1e-13
    assert abs(report.min_gap_23 - 4.0) <= 1e-13


def test_hyperbolicity_radius_validation():
    with pytest.raises(DomainError):
        fx.check_strict_hyperbolicity(ModelParams(0.0), radius=1.0)


@pytest.mark.parametrize("check", [fx.check_strict_hyperbolicity, fx.check_genuine_nonlinearity])
def test_ball_probes_reject_a_negative_seed(check):
    # a negative seed would start the Halton block at an index <= 0: only the origin
    assert not np.any(fx.sample_ball(4, 0.9, seed=-1))
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        check(ModelParams(0.1), n_samples=4, seed=-1)
    assert check(ModelParams(0.1), n_samples=4, seed=0).seed == 0


def test_genuine_nonlinearity_eta_positive():
    report = fx.check_genuine_nonlinearity(ModelParams(0.1), radius=0.5, n_samples=1000)
    assert report.passed
    # the exact values are 4 eta, 2 and -4 eta
    assert abs(report.family1[0] - 0.4) <= 1e-6 and abs(report.family1[1] - 0.4) <= 1e-6
    assert abs(report.family2[0] - 2.0) <= 1e-6 and abs(report.family2[1] - 2.0) <= 1e-6
    assert report.family3[1] < -1e-6
    assert abs(report.family3[0] + 0.4) <= 1e-6
    assert report.degenerate_families == ()


def test_genuine_nonlinearity_eta0_degenerate():
    report = fx.check_genuine_nonlinearity(ModelParams(0.0), radius=0.5, n_samples=500)
    assert report.degenerate_families == (1, 3)
    assert abs(report.family1[0]) <= 1e-8 and abs(report.family1[1]) <= 1e-8
    assert abs(report.family3[0]) <= 1e-8 and abs(report.family3[1]) <= 1e-8
    assert report.family2[0] > 1.9


def test_r2_direction_is_eigenvector():
    rng = np.random.default_rng(31)
    for eta in (0.0, 0.1):
        params = ModelParams(eta)
        for _ in range(20):
            U = rng.uniform(-0.6, 0.6, 3)
            r2 = fx.r2_direction(U, params)
            J = fx.jacobian(U, params)
            assert np.linalg.norm(J @ r2 - 2.0 * U[1] * r2) <= 1e-12
            assert r2[1] == 1.0


def test_eigenvalues_raise_where_families_cross():
    # lambda = (-4, 5, 4) in family order: families 2 and 3 have crossed
    U = np.array([0.0, 2.5, 0.0])
    with pytest.raises(HyperbolicityError):
        fx.eigenvalues(U, ModelParams(0.0))
    lam, ok = fx.eigenvalues_batch(U[None, :], ModelParams(0.0))
    assert np.array_equal(lam[0], [-4.0, 5.0, 4.0])
    assert not ok[0]


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.05, 0.2, 0.2499])
def test_float_eigenvalues_equal_the_array_ones_bit_for_bit(eta):
    params = ModelParams(eta)
    U = oracles.ball_sample(np.random.default_rng(30), 2000, 0.999)
    lam_batch, ok = fx.eigenvalues_batch(U, params)
    assert np.all(ok)
    for state, row in zip(U, lam_batch):
        lam = fx._ordered_eigen(*state.tolist(), eta)
        assert type(lam) is tuple and all(type(x) is float for x in lam)
        assert np.array(lam).tobytes() == row.tobytes() == fx.eigenvalues(state, params).tobytes()


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("eta, state, error", [
    (0.0, [0.0, 2.5, 0.0], HyperbolicityError),  # families 2 and 3 crossed
    (0.2, [0.0, 2.5, 0.0], HyperbolicityError),
    (0.0, [np.inf, 0.0, 0.0], DomainError),  # ordered eigenvalues at a non-finite state
    (0.1, [0.0, np.nan, 0.0], DomainError),
])
def test_float_eigenvalues_raise_the_error_of_eigenvalues(eta, state, error):
    U = np.array(state)
    ref = _raised(fx.eigenvalues, U, ModelParams(eta))
    got = _raised(fx._ordered_eigen, *U.tolist(), eta)
    assert type(got) is type(ref) is error
    assert str(got) == str(ref)
    if error is HyperbolicityError:
        assert np.array_equal(got.state, ref.state)


def test_norm_equals_numpy_norm_bit_for_bit():
    U = oracles.ball_sample(np.random.default_rng(31), 20000, 0.999)
    U = np.vstack([U, [[0.0, 0.0, 0.0], [-0.0, 1e-300, 0.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]]])
    for state in U:
        for vec in (state, state[[0, 2]]):
            norm = fx._norm(vec)
            assert type(norm) is float
            assert struct.pack("<d", norm) == struct.pack("<d", np.linalg.norm(vec))
    assert fx.in_unit_ball([0.6, 0.0, 0.7]) and not fx.in_unit_ball((0.6, 0.0, 0.9))


@pytest.mark.parametrize("eta", [0.0, 0.01, 0.1, 0.2, 0.2499])
def test_closed_forms_match_cubic_and_svd_oracles(eta):
    params = ModelParams(eta)
    U = oracles.ball_sample(np.random.default_rng(2015), 2000, 0.99)
    lam, ok = fx.eigenvalues_batch(U, params)
    lam_cubic, ok_cubic = oracles.cubic_eigenvalues(U, params)
    assert np.all(ok) and np.all(ok_cubic)
    assert np.max(np.abs(lam - lam_cubic)) <= 1e-13
    J = fx.jacobian(U, params)
    rvec = np.array([fx.eigensystem(state, params).rvec for state in U])
    for i in range(3):
        null = oracles.null_vector(J - lam[:, i, None, None] * np.eye(3))
        r = rvec[:, i, :]
        sine = np.linalg.norm(np.cross(r, null), axis=1) / np.linalg.norm(r, axis=1)
        assert sine.max() <= 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.01, 0.1, 0.2])
def test_genuine_nonlinearity_matches_finite_difference_oracle(eta):
    # the criterion-3 sample sets
    params = ModelParams(eta)
    report = fx.check_genuine_nonlinearity(params, radius=0.89, n_samples=10000, seed=1)
    fd = oracles.fd_nonlinearity(fx.sample_ball(10000, 0.89, seed=1), params)
    for i, family in enumerate((report.family1, report.family2, report.family3)):
        assert abs(family[0] - fd[:, i].min()) <= 1e-6
        assert abs(family[1] - fd[:, i].max()) <= 1e-6


@pytest.mark.parametrize("eta", [0.0, 0.01, 0.2, 0.2499])
def test_single_state_kernels_equal_batch_rows_bit_for_bit(eta):
    # one state runs the formulas on Python floats, a batch on array slices
    params = ModelParams(eta)
    U = fx.sample_ball(500, 0.99, seed=7)
    F, J = fx.flux(U, params), fx.jacobian(U, params)
    lam, ok = fx.eigenvalues_batch(U, params)
    ru, rw = fx._r2_uw(J, 2.0 * U[:, 1])
    assert np.all(ok)
    for k, state in enumerate(U):
        assert np.array_equal(fx.flux(state, params), F[k])
        assert np.array_equal(fx.jacobian(state, params), J[k])
        assert np.array_equal(fx.eigenvalues(state, params), lam[k])
        assert np.array_equal(fx.r2_direction(state, params), [ru[k], 1.0, rw[k]])


def test_huge_finite_states_are_accepted():
    params = ModelParams(0.1)
    big = np.array([1e308, 1e308, 0.0])  # finite, though its sum overflows
    assert np.array_equal(fx.as_state(big), big)
    with np.errstate(over="ignore", invalid="ignore"):
        fx.flux(big, params)
        fx.jacobian(big, params)
        fx.eigenvalues_batch(big, params)
        fx.r2_direction(big, params)
        fx.flux(np.array([big, big]), params)


@pytest.mark.parametrize(
    "bad", [[np.inf, -np.inf, 0.0], [np.nan, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, np.inf, 0.0]]]
)
def test_non_finite_states_are_rejected(bad):
    params = ModelParams(0.1)
    bad = np.array(bad)
    if bad.ndim == 1:
        with pytest.raises(DomainError):
            fx.as_state(bad)
        with pytest.raises(DomainError):
            fx.r2_direction(bad, params)
    for kernel in (fx.flux, fx.jacobian, fx.eigenvalues_batch):
        with pytest.raises(DomainError):
            kernel(bad, params)


def test_r2_direction_raises_at_a_family_crossing():
    # at v = 2 and eta = 0 lambda_2 = lambda_3: the (u, w) solve is singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"U=\[0\.1, 2\.0, 0\.0\], eta=0\.0"):
            fx.r2_direction(np.array([0.1, 2.0, 0.0]), ModelParams(0.0))


@pytest.mark.parametrize("check", [fx.check_strict_hyperbolicity, fx.check_genuine_nonlinearity])
@pytest.mark.parametrize("n_samples", [0, -3])
def test_ball_checks_need_a_sample(check, n_samples):
    with pytest.raises(DomainError, match="n_samples must be >= 1"):
        check(ModelParams(0.1), n_samples=n_samples)
