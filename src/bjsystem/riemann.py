"""Exact Riemann solver by wave-fan composition.

The solution of the Riemann problem (Ul, Ur) is the triple (s1, s2, s3) with

    Ur = D3[s3, D2[s2, D1[s1, Ul]]].

In the line coordinates of `flux` (beta = (v u - w)/2, alpha = u - beta)
the outer wave curves move one coordinate each: a 1-wave moves alpha by
s1 = alpha_A - alpha_l and a 3-wave moves beta by s3 = beta_C - beta_B,
both in v = const.  The v-component advances by exactly s2 along family 2,
so s2 = v_r - v_l is assigned, never solved.  For a given s1

    u_A = u_l + s1,  w_A = w_l + s1 v_l,   U_B = D2[s2, U_A],
    s3 = u_r - u_B,  w_C = w_B + s3 (v_B - 2),

and what remains is the scalar equation g(s1) = w_C - w_r = 0, which in
exact arithmetic is g = 2 (alpha_B - alpha_r).  It is solved by a secant
iteration in s1 on Python floats: each evaluation of g costs one middle
wave (a Newton solve on one state array, or an adaptive Dormand-Prince
integration on floats) and a few float operations.  At eta = 0 the 2-curve
is affine in (u, w) on both branches, so g is affine and the first secant
step lands: three middle-wave evaluations per solve.

The solve runs in two layers.  The core, `_solve_fan`, takes two finite
state arrays and returns the kept waves as Python floats: family, kind,
strength, right state and speed, with the speeds from the eigenvalues of
`flux._ordered_eigen` at the fan's states.  The front tracker builds its
fronts from these floats directly.  The public `solve_riemann` validates its
inputs, notes states outside the unit ball and builds the `Wave`s and the
`RiemannFan` from what the core returns, one state array per wave.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from . import wavecurves as wc
from .flux import ModelParams, _norm, _ordered_eigen, as_state, in_unit_ball
# bound only for the bench tracer, which wraps it here (ROADMAP item 17)
from .flux import eigenvalues  # noqa: F401

TOL_ZERO = 1e-13
SOLVER_TOL = 1e-12
MAX_ITER = 100

SHOCK = "shock"
RAREFACTION = "rarefaction"
CONTACT = "contact"


@dataclass(frozen=True)
class Wave:
    """One elementary wave of the fan.

    `speed` is an increasing pair (lambda_left, lambda_right) of the family's
    eigenvalue for rarefactions.  For shocks and contacts it is the float
    (lambda_left + lambda_right) / 2, the exact Rankine-Hugoniot speed: the
    family's eigenvalue is affine along its wave curve (see `wavecurves`).
    For family 2 that is v_left + v_right in IEEE arithmetic.
    """

    family: int
    kind: str
    strength: float
    left: np.ndarray
    right: np.ndarray
    speed: float | tuple

    @property
    def min_speed(self) -> float:
        return self.speed[0] if isinstance(self.speed, tuple) else self.speed

    @property
    def max_speed(self) -> float:
        return self.speed[1] if isinstance(self.speed, tuple) else self.speed


@dataclass(frozen=True)
class RiemannFan:
    """Solved wave fan: up to three waves with ascending speeds.

    `iterations` counts the evaluations of the composed state for a trial
    s1, each of which evaluates the middle wave once when s2 != 0.
    """

    left_state: np.ndarray
    waves: tuple
    strengths: tuple
    residual: float
    params: ModelParams
    iterations: int = 0
    warnings: tuple = ()

    @property
    def right_state(self) -> np.ndarray:
        return self.waves[-1].right if self.waves else self.left_state


def classify(fam: int, strength: float, params: ModelParams) -> str:
    """Wave kind under the family sign conventions.

    At eta = 0 the outer families are linearly degenerate, so every
    family-1/3 discontinuity is a contact no matter the sign.
    """
    if fam == 2:
        return SHOCK if strength < 0.0 else RAREFACTION
    if params.eta == 0.0:
        return CONTACT
    return SHOCK if wc.shock_side(fam, strength) else RAREFACTION


def solve_riemann(Ul, Ur, params: ModelParams) -> RiemannFan:
    """Solve the Riemann problem between Ul and Ur.

    Secant iteration in s1 on the w-mismatch g(s1), started at s1 = 0 and
    s1 = -g(0)/2; a step is kept only while |g| decreases, for at most
    MAX_ITER steps.  Raises ConvergenceError (carrying the best iterate
    and its residual) if |g| stays above SOLVER_TOL (1 + |(u_r, w_r)|).
    Waves of strength at most TOL_ZERO are left out of the fan.
    """
    Ul = as_state(Ul)
    Ur = as_state(Ur)
    notes = []
    for name, U in (("left", Ul), ("right", Ur)):
        if not in_unit_ball(U):
            notes.append(f"{name} state outside the unit ball |U| < 1")
    kept, strengths, iterations, C = _solve_fan(Ul, Ur, params)
    waves = []
    left = Ul
    for fam, kind, s, right, speed in kept:
        right = np.array(right)
        waves.append(Wave(family=fam, kind=kind, strength=s, left=left, right=right, speed=speed))
        left = right
    return RiemannFan(
        left_state=Ul,
        waves=tuple(waves),
        strengths=strengths,
        residual=_norm(np.array(C) - Ur),
        params=params,
        iterations=iterations,
        warnings=tuple(notes),
    )


def _solve_fan(Ul: np.ndarray, Ur: np.ndarray, params: ModelParams) -> tuple:
    """The fan of `solve_riemann` between two finite state arrays, as Python floats.

    Returns (waves, (s1, s2, s3), iterations, U_C) where each kept wave is
    (family, kind, strength, right state, speed) with the right state three
    floats, and U_C is the composed right state.  The speeds come from
    `_ordered_eigen` at the fan's states, which raises HyperbolicityError
    where they are not strictly ordered.  The states are not checked against
    the unit ball here.
    """
    ul, vl, wl = Ul.tolist()
    ur, vr, wr = Ur.tolist()
    s2 = vr - vl
    scale = 1.0 + _norm(Ur[[0, 2]])

    def compose(s1: float):
        # U_A = Ul + s1 r1(v_l) and U_C = U_B + s3 r3(v_B), term by term as the
        # array sums form them: v + s * 0.0 keeps their signed zeros
        A = (ul + s1, vl + s1 * 0.0, wl + s1 * vl)
        if s2 == 0.0:
            B = A
        elif s2 < 0.0:  # a 2-shock
            B = wc._hugoniot2(np.array(A), s2, params).state.tolist()
        else:
            uB, wB = wc._rarefaction2(*A, s2, params.eta)
            B = (uB, A[1] + s2, wB)
        s3 = ur - B[0]
        C = (B[0] + s3, B[1] + s3 * 0.0, B[2] + s3 * (B[1] - 2.0))
        return s1, s3, A, B, C, C[2] - wr

    stop = 1e-15 * scale
    prev = compose(0.0)
    # without a middle wave g is affine in s1 with slope v_l - (v_l - 2) = 2
    cur = compose(-0.5 * prev[-1]) if abs(prev[-1]) > stop else prev
    iterations = 1 if cur is prev else 2
    if abs(cur[-1]) > abs(prev[-1]):
        prev, cur = cur, prev
    for _ in range(MAX_ITER):
        if abs(cur[-1]) <= stop or cur[-1] == prev[-1]:
            break
        trial = compose(cur[0] - cur[-1] * (cur[0] - prev[0]) / (cur[-1] - prev[-1]))
        iterations += 1
        if abs(trial[-1]) >= abs(cur[-1]):
            break
        prev, cur = cur, trial
    s1, s3, A, B, C, g = cur
    if abs(g) > SOLVER_TOL * scale:
        raise ConvergenceError(
            f"Riemann solve residual {abs(g):.3e} above tolerance {SOLVER_TOL:.1e}",
            iterate=(s1, s3),
            residual=abs(g),
        )

    kept = [(fam, s, right) for fam, s, right in ((1, s1, A), (2, s2, B), (3, s3, C))
            if abs(s) > TOL_ZERO]
    waves = []
    eta = params.eta
    lam_left = _ordered_eigen(ul, vl, wl, eta) if kept else None
    for fam, s, right in kept:
        lam_right = _ordered_eigen(*right, eta)
        kind = classify(fam, s, params)
        lam_l, lam_r = lam_left[fam - 1], lam_right[fam - 1]
        speed = (lam_l, lam_r) if kind == RAREFACTION else 0.5 * (lam_l + lam_r)
        waves.append((fam, kind, s, right, speed))
        lam_left = lam_right
    return waves, (s1, s2, s3), iterations, C


def _sample_rarefaction(wave: Wave, xi: float, params: ModelParams) -> np.ndarray:
    """State inside a rarefaction fan at similarity speed xi.

    The family speed is affine in the curve parameter t: lambda_2 = 2(v_left + t)
    along the 2-curve, and lambda_1, lambda_3 change by +4 eta t, -4 eta t
    along their straight lines.  So xi fixes t exactly (clamped to
    [0, strength]) and one curve evaluation gives the state.
    """
    if wave.family == 2:
        t = 0.5 * xi - wave.left[1]
    else:
        slope = 4.0 * params.eta if wave.family == 1 else -4.0 * params.eta
        t = (xi - wave.speed[0]) / slope
    t = min(max(t, min(0.0, wave.strength)), max(0.0, wave.strength))
    return wc.rarefaction(wave.family, wave.left, t, params).state


def evaluate_fan(fan: RiemannFan, xi: float) -> np.ndarray:
    """State of the self-similar solution at xi = x / t."""
    if not np.isfinite(xi):
        raise DomainError(f"similarity variable must be finite, got {xi!r}")
    current = fan.left_state
    for wave in fan.waves:
        if wave.kind == RAREFACTION:
            lam_l, lam_r = wave.speed
            if xi < lam_l:
                return wave.left
            if xi <= lam_r:
                return _sample_rarefaction(wave, xi, fan.params)
        else:
            if xi < wave.speed:
                return wave.left
        current = wave.right
    return current


@dataclass(frozen=True)
class WaveDiagnostics:
    family: int
    kind: str
    strength: float
    rh_residual: float | None
    lax: wc.LaxCheck | None
    interval_increasing: bool | None
    kind_consistent: bool


@dataclass(frozen=True)
class FanDiagnostics:
    waves: tuple
    speeds_ordered: bool
    states_chained: bool
    composition_residual: float
    ok: bool


def check_fan(fan: RiemannFan, params: ModelParams) -> FanDiagnostics:
    """Recompute residuals, Lax margins and orderings; never raises.

    A shock's or contact's `rh_residual` is taken at the wave's own speed, the
    one the tracker moves its front with.
    """
    diags = []
    ok = True
    for wave in fan.waves:
        kind_consistent = wave.kind == classify(wave.family, wave.strength, params)
        rh = lax = increasing = None
        if wave.kind == RAREFACTION:
            lam_l, lam_r = wave.speed
            increasing = lam_r - lam_l >= 0.0
            wave_ok = increasing
        else:
            lax = wc.lax_admissible(wave.family, wave.left, wave.right, wave.speed, params)
            rh = wc.rh_residual(wave.left, wave.right, wave.speed, params)
            wave_ok = lax.admissible
        ok = ok and wave_ok and kind_consistent
        diags.append(WaveDiagnostics(
            family=wave.family,
            kind=wave.kind,
            strength=wave.strength,
            rh_residual=rh,
            lax=lax,
            interval_increasing=increasing,
            kind_consistent=kind_consistent,
        ))

    speeds_ordered = all(
        fan.waves[i].max_speed < fan.waves[i + 1].min_speed for i in range(len(fan.waves) - 1)
    )
    lefts = [fan.left_state] + [wave.right for wave in fan.waves[:-1]]
    states_chained = all(
        np.array_equal(wave.left, left) for wave, left in zip(fan.waves, lefts)
    )
    ok = ok and speeds_ordered and states_chained
    return FanDiagnostics(
        waves=tuple(diags),
        speeds_ordered=speeds_ordered,
        states_chained=states_chained,
        composition_residual=fan.residual,
        ok=ok,
    )
