"""Flux, Jacobian and eigenstructure of the Baiti-Jenssen 3x3 system.

The conserved state is U = (u, v, w) and the flux family is

    F(U) = ( 4[(v-1)u - w]       + eta * p1(U),
             v^2,
             4[v(v-2)u - (v-1)w] + eta * p3(U) ),

    p1(U) = 2uw - 2u^2(v-1),     p3(U) = w^2 - u^2(v-2)v,

with perturbation parameter 0 <= eta < 1/4.  On the unit ball the system is
strictly hyperbolic; for eta > 0 all three characteristic fields are
genuinely nonlinear (the third with the reversed orientation, so that
grad(lambda_3) . r_3 < 0).

The characteristic structure has closed forms for every eta, and every
eigen-quantity below is computed from them:

    lambda_1 = -4 + eta(2w - 2uv + 4u),  r_1 = (1, 0, v),
    lambda_2 = 2v,                        r_2 = (r_u, 1, r_w),
    lambda_3 =  4 + eta(2w - 2uv),        r_3 = (1, 0, v - 2),

where r_2 solves two rows of (DF - 2v I) r = 0.  Hence
grad(lambda_1) . r_1 = 4 eta, grad(lambda_2) . r_2 = 2 and
grad(lambda_3) . r_3 = -4 eta exactly.  Eigenvalues are returned in family
order; a state where that order is not strict is rejected.

Every formula is written once, over the components (u, v, w).  A single
state (3,) hands them over as Python floats (`tolist()`), so one evaluation
costs float arithmetic instead of numpy's per-operation overhead on 0-d
arrays; a batch (..., 3) hands over the [..., k] slices.  Both are IEEE
double arithmetic in the same operation order, so a single state gives
exactly the row a batch gives.

The Jacobian entries are written once (`_jacobian_rows`) and r_2 is solved
from them once (`_r2_uw_rows`).  `jacobian`, `r2_direction` and
`eigensystem` use them.  The eigenvalues are written once too
(`_eigen_rows`): `eigenvalues_batch` evaluates them on arrays, and
`_ordered_eigen`, which `eigenvalues` and the Riemann solver's core use, on
the Python floats of one state.  `_norm` is the one vector norm of the
single-state paths, with the bits of `np.linalg.norm`.

In the line coordinates (`_line_coords`, `_from_line_coords`)

    beta = (v u - w)/2,   alpha = u - beta,   (u, w) = (alpha + beta, v u - 2 beta),

r_1 moves only alpha, r_3 moves only beta, lambda_1 = -4 + 4 eta alpha and
lambda_3 = 4 - 4 eta beta.  Along r_2, parametrized by v, (alpha, beta)
solve a 2-D system with a cheap right-hand side (`_r2_line_at`), which the
family-2 rarefaction in `wavecurves` integrates on Python floats.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HyperbolicityError

ETA_MAX = 0.25
TOL_EIG = 1e-10
GNL_MARGIN = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Model selector: the perturbation strength eta in [0, 1/4)."""

    eta: float = 0.0

    def __post_init__(self):
        eta = float(self.eta)
        if not np.isfinite(eta) or not 0.0 <= eta < ETA_MAX:
            raise DomainError(f"eta must lie in [0, 1/4), got {self.eta!r}")
        object.__setattr__(self, "eta", eta)


def _all_finite(arr: np.ndarray) -> bool:
    """Exact finiteness test; a single state is tested as Python floats."""
    if arr.ndim == 1:
        return all(map(math.isfinite, arr.tolist()))
    return bool(np.isfinite(arr).all())


def as_state(U) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    arr = np.asarray(U, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"state must have shape (3,), got {arr.shape}")
    if not _all_finite(arr):
        raise DomainError(f"state has non-finite components: {arr}")
    return arr


def _norm(U: np.ndarray) -> float:
    """|U| of a float vector, with the bits of `np.linalg.norm(U)`.

    `np.linalg.norm` of a vector is the square root of `U.dot(U)`; this takes
    that root with `math.sqrt`, which rounds it the same, and skips the
    argument checks, which cost as much as the rest.
    """
    return math.sqrt(U.dot(U))


def in_unit_ball(U) -> bool:
    return _norm(np.asarray(U, dtype=float)) < 1.0


def check_in_ball(name: str, U: np.ndarray) -> None:
    """Raise DomainError, naming the state, unless U lies in the unit ball |U| < 1."""
    if not in_unit_ball(U):
        raise DomainError(f"{name} violates |U| < 1: {U.tolist()}")


def _entries(A: np.ndarray, rank: int):
    """Entries of one state (rank 1) or matrix (rank 2), or of a batch of them.

    A single one gives nested Python floats; a batch gives a view indexed the
    same way ([k] or [i][k]) whose entries are the [..., k] or [..., i, k]
    slices.
    """
    if A.ndim == rank:
        return A.tolist()
    return np.moveaxis(A, tuple(range(-rank, 0)), tuple(range(rank)))


def _pack(entries, batch_shape: tuple) -> np.ndarray:
    """Inverse of `_entries`: an array of shape batch_shape + the nesting of entries."""
    if not batch_shape:
        return np.array(entries)
    if isinstance(entries, list):
        return np.stack([_pack(e, batch_shape) for e in entries], axis=len(batch_shape))
    return np.broadcast_to(entries, batch_shape)


def _p1(u, v, w):
    return 2.0 * u * w - 2.0 * u * u * (v - 1.0)


def _p3(u, v, w):
    return w * w - u * u * (v - 2.0) * v


def p1(U):
    return _p1(*_entries(np.asarray(U, dtype=float), 1))


def p3(U):
    return _p3(*_entries(np.asarray(U, dtype=float), 1))


def _states(U, caller: str) -> np.ndarray:
    """Coerce to a finite float array of states with last axis of size 3."""
    U = np.asarray(U, dtype=float)
    if U.shape[-1] != 3:
        raise DomainError(f"state array must end in axis of size 3, got {U.shape}")
    if not _all_finite(U):
        raise DomainError(f"non-finite state passed to {caller}")
    return U


def flux(U, params: ModelParams) -> np.ndarray:
    """Evaluate F(U).  Accepts a single state (3,) or a batch (..., 3)."""
    U = _states(U, "flux")
    u, v, w = _entries(U, 1)
    eta = params.eta
    return _pack(
        [
            4.0 * ((v - 1.0) * u - w) + eta * _p1(u, v, w),
            v * v,
            4.0 * (v * (v - 2.0) * u - (v - 1.0) * w) + eta * _p3(u, v, w),
        ],
        U.shape[:-1],
    )


def _jacobian_rows(u, v, w, eta):
    """Entries [i][k] of DF at the components (u, v, w): Python floats or arrays."""
    return [
        [
            4.0 * (v - 1.0) + eta * (2.0 * w - 4.0 * u * (v - 1.0)),
            4.0 * u - eta * 2.0 * u * u,
            -4.0 + eta * 2.0 * u,
        ],
        [0.0, 2.0 * v, 0.0],
        [
            4.0 * v * (v - 2.0) - eta * 2.0 * u * v * (v - 2.0),
            4.0 * ((2.0 * v - 2.0) * u - w) - eta * u * u * (2.0 * v - 2.0),
            4.0 * (1.0 - v) + eta * 2.0 * w,
        ],
    ]


def jacobian(U, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian DF(U), shape (..., 3, 3)."""
    U = _states(U, "jacobian")
    return _pack(_jacobian_rows(*_entries(U, 1), params.eta), U.shape[:-1])


# ---------------------------------------------------------------------------
# closed-form eigenstructure


def eigenvalues_batch(U, params: ModelParams):
    """Eigenvalues in family order for a state or a batch of states (..., 3).

    Returns (lam, ok) where ok flags strict ordering lambda_1 < lambda_2 < lambda_3.
    """
    return _eigenvalues(_states(U, "eigenvalues_batch"), params)


def _eigen_rows(u, v, w, eta):
    """lambda_1, lambda_2, lambda_3 at the components (u, v, w): Python floats or arrays."""
    shift = eta * (2.0 * w - 2.0 * u * v)
    return -4.0 + shift + 4.0 * eta * u, 2.0 * v, 4.0 + shift


def _eigenvalues(U: np.ndarray, params: ModelParams):
    lam1, lam2, lam3 = _eigen_rows(*_entries(U, 1), params.eta)
    return _pack([lam1, lam2, lam3], U.shape[:-1]), (lam1 < lam2) & (lam2 < lam3)


def _ordered_eigen(u: float, v: float, w: float, eta: float) -> tuple:
    """The eigenvalues at the state (u, v, w) as Python floats; raises unless strictly ordered.

    The errors are those of `eigenvalues` at np.array([u, v, w]): DomainError
    for a non-finite state, else HyperbolicityError.
    """
    lam = _eigen_rows(u, v, w, eta)
    if not (lam[0] < lam[1] < lam[2] and math.isfinite(u + v + w)):
        U = as_state([u, v, w])
        if not lam[0] < lam[1] < lam[2]:
            raise HyperbolicityError(
                f"eigenvalues {list(lam)} not strictly ordered by family at "
                f"U={[u, v, w]}, eta={eta}",
                state=U,
            )
    return lam


def eigenvalues(U, params: ModelParams) -> np.ndarray:
    """Eigenvalues of DF at a single state in family order; raises unless strictly ordered."""
    return np.array(_ordered_eigen(*as_state(U).tolist(), params.eta))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in family order with right eigenvectors (rows of rvec)."""

    lam: np.ndarray
    rvec: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(3))


def _r2_uw_rows(rows, lam2):
    """(u, w) components of the middle eigenvector normalized to v-component 1.

    Solves rows 1 and 3 of (J - lam2 I) r = 0 with r_v = 1, given the entries
    of J as rows.  The determinant vanishes where family 2 meets family 1 or
    3: Python floats raise ZeroDivisionError there, arrays give inf or nan.
    """
    (j00, j01, j02), _, (j20, j21, j22) = rows
    a = j00 - lam2
    b = j02
    c = j20
    d = j22 - lam2
    det = a * d - b * c
    ru = (-j01 * d + j21 * b) / det
    rw = (-j21 * a + j01 * c) / det
    return ru, rw


def _r2_uw(J, lam2):
    """`_r2_uw_rows` of a Jacobian array, one state or a batch."""
    return _r2_uw_rows(_entries(J, 2), lam2)


def _line_coords(u, v, w):
    """Line coordinates (alpha, beta) of the state (u, v, w)."""
    beta = 0.5 * (v * u - w)
    return u - beta, beta


def _from_line_coords(alpha, v, beta):
    """(u, w) of the line coordinates (alpha, v, beta)."""
    u = alpha + beta
    return u, v * u - 2.0 * beta


def _r2_line_at(alpha, v, beta, eta):
    """(alpha', beta') along r_2 parametrized by v, at Python floats.

    With N = alpha (v + 2 - eta alpha) + beta (v - 2 + eta beta),

        alpha' = -N / (2 (v + 2 - 2 eta alpha)),   beta' = N / (2 (v - 2 + 2 eta beta)),

    whose denominators are (lambda_2 - lambda_1)/2 and (lambda_2 - lambda_3)/2.
    A non-finite state, or one where family 2 meets family 1 or 3, raises
    DomainError.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(
            f"state has non-finite components: line coordinates ({alpha}, {v}, {beta})"
        )
    d1 = v + 2.0 - 2.0 * eta * alpha
    d3 = v - 2.0 + 2.0 * eta * beta
    if d1 == 0.0 or d3 == 0.0:
        u, w = _from_line_coords(alpha, v, beta)
        raise DomainError(
            f"r_2 undefined where family 2 crosses family {1 if d1 == 0.0 else 3}: "
            f"U={[u, v, w]}, v={v}, eta={eta}"
        )
    n = alpha * (v + 2.0 - eta * alpha) + beta * (v - 2.0 + eta * beta)
    return -0.5 * n / d1, 0.5 * n / d3


def r2_direction(U, params: ModelParams) -> np.ndarray:
    """Middle-field eigenvector with v-component exactly 1.

    The middle eigenvalue is exactly 2v (trace identity; the outer eigenpairs
    are closed-form for every eta).  Where family 2 meets family 1 or 3, r_2
    is undefined and DomainError names the state and eta.
    """
    u, v, w = as_state(U).tolist()
    try:
        ru, rw = _r2_uw_rows(_jacobian_rows(u, v, w, params.eta), 2.0 * v)
    except ZeroDivisionError:
        raise DomainError(
            f"r_2 undefined where family 2 crosses family 1 or 3: U={[u, v, w]}, "
            f"eta={params.eta}"
        ) from None
    return np.array([ru, 1.0, rw])


def eigensystem(U, params: ModelParams) -> EigenSystem:
    """Full eigensystem at a state.

    Families 1 and 3 return the straight-line eigenvectors (1, 0, v) and
    (1, 0, v-2); the middle eigenvector is normalized to v-component 1.
    Raises HyperbolicityError when the eigenvalues are not strictly ordered
    or an eigenpair residual |DF r - lambda r| exceeds TOL_EIG.
    """
    U = as_state(U)
    lam = eigenvalues(U, params)
    J = jacobian(U, params)
    v = U[1]
    ru, rw = _r2_uw(J, lam[1])
    rvec = np.array([[1.0, 0.0, v], [ru, 1.0, rw], [1.0, 0.0, v - 2.0]])
    residuals = np.linalg.norm(rvec @ J.T - lam[:, None] * rvec, axis=1)
    if residuals.max() > TOL_EIG:
        raise HyperbolicityError(
            f"eigenpair residual {residuals.max():.3e} above tolerance {TOL_EIG:.1e}", state=U
        )
    return EigenSystem(lam=lam, rvec=rvec, residuals=residuals)


# ---------------------------------------------------------------------------
# sampling and whole-ball probes


def halton(n: int, start: int = 1) -> np.ndarray:
    """First n points of the 3-D Halton sequence (bases 2, 3, 5), offset by start."""
    idx = np.arange(start, start + n)
    out = np.empty((n, 3))
    for d, b in enumerate((2, 3, 5)):
        x = np.zeros(n)
        f = 1.0
        i = idx.copy()
        while np.any(i > 0):
            f /= b
            x += f * (i % b)
            i //= b
        out[:, d] = x
    return out


def sample_ball(n: int, radius: float, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy sample of the closed ball |U| <= radius.

    The seed offsets the underlying Halton index block, so distinct seeds give
    disjoint, reproducible point sets.
    """
    if n <= 0:
        return np.empty((0, 3))
    t = halton(n, start=1 + seed * n)
    r = radius * t[:, 0] ** (1.0 / 3.0)
    cos_th = 1.0 - 2.0 * t[:, 1]
    sin_th = np.sqrt(np.maximum(0.0, 1.0 - cos_th ** 2))
    phi = 2.0 * np.pi * t[:, 2]
    return np.column_stack(
        [r * sin_th * np.cos(phi), r * sin_th * np.sin(phi), r * cos_th]
    )


def check_count_and_seed(n_samples: int, seed: int):
    """Reject a sampled check of nothing, and a negative seed.

    A check over no samples would pass vacuously.  A negative seed starts the
    Halton block at an index <= 0, where every point is 0, and is refused by
    `np.random.default_rng` with a message that names neither the setting nor
    the value.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def _check_sampling(radius: float, n_samples: int, seed: int):
    if not 0.0 <= radius < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {radius}")
    check_count_and_seed(n_samples, seed)


@dataclass(frozen=True)
class HyperbolicityReport:
    eta: float
    radius: float
    n_samples: int
    seed: int
    min_gap_12: float
    min_gap_23: float
    lambda1_range: tuple
    lambda2_range: tuple
    lambda3_range: tuple
    all_real: bool
    passed: bool


def check_strict_hyperbolicity(
    params: ModelParams, radius: float = 0.9, n_samples: int = 10000, seed: int = 0
) -> HyperbolicityReport:
    """Sample the ball |U| <= radius and report the minimal eigenvalue gaps.

    Passes iff both gaps are strictly positive on every sample.
    """
    _check_sampling(radius, n_samples, seed)
    U = sample_ball(n_samples, radius, seed)
    lam, ok = eigenvalues_batch(U, params)
    gap12 = lam[:, 1] - lam[:, 0]
    gap23 = lam[:, 2] - lam[:, 1]
    all_real = bool(np.all(ok))
    return HyperbolicityReport(
        eta=params.eta,
        radius=radius,
        n_samples=len(U),
        seed=seed,
        min_gap_12=float(gap12.min()),
        min_gap_23=float(gap23.min()),
        lambda1_range=(float(lam[:, 0].min()), float(lam[:, 0].max())),
        lambda2_range=(float(lam[:, 1].min()), float(lam[:, 1].max())),
        lambda3_range=(float(lam[:, 2].min()), float(lam[:, 2].max())),
        all_real=all_real,
        passed=bool(all_real and gap12.min() > 0.0 and gap23.min() > 0.0),
    )


@dataclass(frozen=True)
class GenuineNonlinearityReport:
    eta: float
    radius: float
    n_samples: int
    seed: int
    family1: tuple
    family2: tuple
    family3: tuple
    family3_sign_reversed: bool
    margin: float
    degenerate_families: tuple
    passed: bool


def check_genuine_nonlinearity(
    params: ModelParams,
    radius: float = 0.5,
    n_samples: int = 2000,
    seed: int = 0,
) -> GenuineNonlinearityReport:
    """Report min/max of grad(lambda_i) . r_i per family over a ball sample.

    Each sample dots the analytic eigenvalue gradients

        grad(lambda_1) = eta (4 - 2v, -2u, 2),
        grad(lambda_3) = eta (-2v, -2u, 2)

    with the closed-form eigenvectors.  grad(lambda_2) = (0, 2, 0) and r_2
    has v-component 1, so family 2 reports exactly (2, 2).  Family 3 carries
    the reversed orientation, so genuine nonlinearity shows up there as
    values bounded away from zero *below*.  At eta = 0 families 1 and 3 are
    linearly degenerate and are reported as such.
    """
    _check_sampling(radius, n_samples, seed)
    U = sample_ball(n_samples, radius, seed)
    n = len(U)
    u, v = U[:, 0], U[:, 1]
    eta = params.eta
    ones, zeros = np.ones(n), np.zeros(n)
    grad1 = eta * np.column_stack([4.0 - 2.0 * v, -2.0 * u, 2.0 * ones])
    grad3 = eta * np.column_stack([-2.0 * v, -2.0 * u, 2.0 * ones])

    r1 = np.column_stack([ones, zeros, v])
    r3 = np.column_stack([ones, zeros, v - 2.0])

    g1 = np.einsum("nk,nk->n", grad1, r1)
    g3 = np.einsum("nk,nk->n", grad3, r3)

    f1 = (float(g1.min()), float(g1.max()))
    f2 = (2.0, 2.0)
    f3 = (float(g3.min()), float(g3.max()))
    if params.eta > 0.0:
        degenerate = ()
        passed = f1[0] > GNL_MARGIN and f2[0] > GNL_MARGIN and f3[1] < -GNL_MARGIN
    else:
        degenerate = (1, 3)
        passed = f2[0] > GNL_MARGIN
    return GenuineNonlinearityReport(
        eta=params.eta,
        radius=radius,
        n_samples=n,
        seed=seed,
        family1=f1,
        family2=f2,
        family3=f3,
        family3_sign_reversed=True,
        margin=GNL_MARGIN,
        degenerate_families=degenerate,
        passed=passed,
    )
