"""Shock (Hugoniot) and rarefaction curves for the three wave families.

Families 1 and 3 run along the straight lines through (1, 0, v) and
(1, 0, v-2) in the plane v = const, for every admissible eta.  The family-2
curve is parametrized by the v-jump s: at eta = 0 the shock branch has the
closed form

    S2[s, Ub] = Ub + E(vb, s) Ub   on the (u, w) components, v -> vb + s,

with shock speed gamma = 2 vb + s, and E singular at |2 vb + s| = 4.  The
v-row of Rankine-Hugoniot fixes that speed for every eta, so for eta > 0
Newton on the u- and w-rows alone corrects the closed form, taking full
steps while they lower the residual; both cases run through `_hugoniot2`.
The rarefaction branch integrates the middle eigenvector field as a 2-D ODE
in v for the line coordinates (alpha, beta) of `flux`, with an adaptive
Dormand-Prince 5(4) pair whose local error tolerance is RARE_TOL relative
to 1 + max(|alpha|, |beta|).

Every shock speed is explicit.  lambda_1 is affine in alpha along r_1,
lambda_3 is affine in beta along r_3 and lambda_2 = 2v, so a jump along a
wave curve moves at the mean of its family's eigenvalue on its two sides:
-4 + 2 eta (alpha_b + alpha), 2 vb + s and 4 - 2 eta (beta_b + beta), for
every eta.  The Rankine-Hugoniot residual
|F(right) - F(left) - speed (right - left)| of a family-2 point is the norm
of the vector that `_hugoniot2` solves for; `rh_residual` computes it for the
outer families and for any other pair of states.

Sign conventions: shocks sit at s < 0 for families 1 and 2 and at s > 0 for
family 3 (reversed orientation of the third field).

`_curve_state` is the one place where a point of D1, D2 or D3 is computed:
it maps three Python floats and s to the three floats of the curve point,
the straight lines in place and family 2 through `_hugoniot2` or
`_rarefaction2`, with no checks, no `CurvePoint` and no warnings.  The
public `rarefaction` and the family-1 and family-3 `hugoniot` (and so
`wave_fan_curve`), the Riemann solver's composition, the tracker's
rarefaction pieces and the 1-2 contraction all take their states from it;
the family-2 `hugoniot` returns the `CurvePoint` of `_hugoniot2` itself,
with its Newton residual.
"""

from dataclasses import dataclass
from math import ulp

import numpy as np

from .errors import ConvergenceError, DomainError, SingularCurveError
from .flux import (
    ModelParams,
    _from_line_coords,
    _line_coords,
    _norm,
    _r2_line_at,
    as_state,
    eigenvalues,
    jacobian,
)
from .flux import flux as flux_fn
# bound only for the bench tracer, which wraps it here (ROADMAP item 17)
from .flux import r2_direction  # noqa: F401

RARE_TOL = 1e-14
SPEED_WARN = 3.0
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
TOL_LAX = 1e-9

_SHOCK_SIDE = {1: -1.0, 2: -1.0, 3: 1.0}


@dataclass(frozen=True)
class CurvePoint:
    """A point on a wave curve: reached state and propagation speed."""

    state: np.ndarray
    speed: float
    residual: float = 0.0
    warnings: tuple = ()


def _curve_state(fam: int, shock: bool, u: float, v: float, w: float, s: float,
                 params: ModelParams) -> tuple:
    """The point at parameter s on the family-`fam` curve through (u, v, w), as three floats.

    Families 1 and 3 move along their straight lines, term by term as the
    array sum base + s r_fam forms it, so v + s * 0.0 keeps its signed zero;
    each line is both of its family's branches, so they ignore `shock`.
    Family 2 takes the Hugoniot branch `_hugoniot2` when `shock` is true and
    the rarefaction branch `_rarefaction2` otherwise; at s = 0 it returns the
    state itself.  No input is checked and no warning is noted: the caller
    holds a finite state.
    """
    if fam != 2:
        return u + s, v + s * 0.0, w + s * (v if fam == 1 else v - 2.0)
    if s == 0.0:
        return u, v, w
    if shock:
        return tuple(_hugoniot2(np.array([u, v, w]), s, params).state.tolist())
    u_end, w_end = _rarefaction2(u, v, w, s, params.eta)
    return u_end, v + s, w_end


def _check_family(fam: int):
    if fam not in (1, 2, 3):
        raise DomainError(f"wave family must be 1, 2 or 3, got {fam!r}")


def _curve_warnings(state, gamma=0.0):
    """Notes on a curve point; `gamma` is the 2-shock speed 2 vb + s of a family-2 point."""
    notes = []
    if abs(gamma) >= SPEED_WARN:
        notes.append("2-shock speed |2v+s| >= 3: approaching the singular locus at 4")
    if _norm(state) >= 1.0:
        notes.append("curve point left the unit ball |U| < 1")
    return tuple(notes)


def hugoniot_matrix(vbar: float, s: float) -> np.ndarray:
    """The 2x2 matrix E(vbar, s) mapping (u, w) across a 2-shock at eta = 0."""
    gamma = 2.0 * vbar + s
    if abs(gamma) >= 4.0:
        raise SingularCurveError(
            f"2-Hugoniot matrix singular: |2 vbar + s| = {abs(gamma)} >= 4"
        )
    den = gamma * gamma - 16.0
    return (4.0 * s / den) * np.array(
        [
            [s + 4.0 - 2.0 * vbar, 4.0],
            [(s + 4.0) * (s - 2.0) + 4.0 * vbar, 3.0 * s - 4.0 + 2.0 * vbar],
        ]
    )


def rh_residual(left, right, speed: float, params: ModelParams) -> float:
    """Rankine-Hugoniot residual |F(right) - F(left) - speed (right - left)|."""
    R = flux_fn(right, params) - flux_fn(left, params) - speed * (right - left)
    return _norm(R.ravel())  # over every entry: a batch of states gives one norm


def hugoniot2_closed_form(base, s: float) -> CurvePoint:
    """Closed-form family-2 Hugoniot point at eta = 0.

    v-component becomes vb + s, (u, w) pick up E(vb, s), and the shock speed
    is exactly 2 vb + s.  Raises SingularCurveError when |2 vb + s| >= 4.
    """
    return _hugoniot2(as_state(base), s, ModelParams(0.0))


def _hugoniot2(base, s, params):
    """Family-2 Hugoniot point from a state array: v -> vb + s at the exact speed 2 vb + s.

    The v-row of Rankine-Hugoniot fixes the speed gamma = 2 vb + s, so only
    (u, w) are unknown.  They start at the closed form Ub + E(vb, s) Ub,
    which is the answer at eta = 0 (SingularCurveError when |gamma| >= 4).
    For eta > 0 Newton on the u- and w-rows, with the 2x2 block of
    jacobian - gamma I, corrects them (from the base past the singular
    locus).  It takes full steps only: it stops below 1e-15 (1 + |F(Ub)|)
    or at the iterate before a step that does not lower the residual, and
    raises ConvergenceError unless the residual is below
    NEWTON_TOL (1 + |F(Ub)|).
    """
    if s == 0.0:
        return CurvePoint(state=base.copy(), speed=2.0 * base[1])
    gamma = 2.0 * base[1] + s
    uw = base[[0, 2]]
    try:
        uw = uw + hugoniot_matrix(base[1], s) @ uw
    except SingularCurveError:
        if params.eta == 0.0:
            raise
    F_base = flux_fn(base, params)

    def residual(uw):
        state = np.array([uw[0], base[1] + s, uw[1]])
        R = flux_fn(state, params) - F_base - gamma * (state - base)
        return state, R, _norm(R)

    state, R, r_norm = residual(uw)
    if params.eta > 0.0:
        scale = 1.0 + _norm(F_base)
        for _ in range(NEWTON_MAX_ITER):
            if r_norm <= 1e-15 * scale:
                break
            J = jacobian(state, params)[::2, ::2]  # the u- and w-rows and columns
            try:
                step = np.linalg.solve(J - gamma * np.eye(2), R[::2])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    "singular Jacobian in 2-Hugoniot Newton solve", iterate=state, residual=r_norm
                ) from exc
            trial = residual(state[::2] - step)
            if not trial[2] < r_norm:  # a full step that does not lower the residual ends it
                break
            state, R, r_norm = trial
        if r_norm > NEWTON_TOL * scale:
            raise ConvergenceError(
                f"2-Hugoniot Newton residual {r_norm:.3e} above tolerance",
                iterate=state, residual=r_norm,
            )
    return CurvePoint(state=state, speed=gamma, residual=r_norm,
                      warnings=_curve_warnings(state, gamma))


def hugoniot(fam: int, base, s: float, params: ModelParams) -> CurvePoint:
    """Point at parameter s on the family-`fam` Hugoniot locus through `base`."""
    _check_family(fam)
    base = as_state(base)
    if fam == 2:
        return _hugoniot2(base, s, params)
    state = np.array(_curve_state(fam, True, *base.tolist(), float(s), params))
    # lambda_fam is affine along its straight line: the shock speed is the mean
    speed = 0.5 * float(eigenvalues(base, params)[fam - 1] + eigenvalues(state, params)[fam - 1])
    return CurvePoint(
        state=state,
        speed=speed,
        residual=rh_residual(base, state, speed, params),
        warnings=_curve_warnings(state),
    )


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 1980): nodes, stage
# weights, the 5th-order weights (the 7th stage, at the step's result, is the
# first of the next step) and the error weights, 5th-order minus 4th-order.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)


def _rarefaction2(u: float, v: float, w: float, s: float, eta: float):
    """(u, w) at v + s on the 2-rarefaction through the state (u, v, w); see `rarefaction`."""
    rhs = _r2_line_at
    a, b = _line_coords(u, v, w)
    v_end = v + s
    h = v_end - v  # s, as far as v resolves it: the first trial step lands on v_end
    ka1, kb1 = rhs(a, v, b, eta)
    while True:
        last = abs(h) >= abs(v_end - v)
        if last:
            h = v_end - v
        ka2, kb2 = rhs(a + h * (_A21 * ka1), v + _C2 * h, b + h * (_A21 * kb1), eta)
        ka3, kb3 = rhs(a + h * (_A31 * ka1 + _A32 * ka2), v + _C3 * h,
                       b + h * (_A31 * kb1 + _A32 * kb2), eta)
        ka4, kb4 = rhs(a + h * (_A41 * ka1 + _A42 * ka2 + _A43 * ka3), v + _C4 * h,
                       b + h * (_A41 * kb1 + _A42 * kb2 + _A43 * kb3), eta)
        ka5, kb5 = rhs(a + h * (_A51 * ka1 + _A52 * ka2 + _A53 * ka3 + _A54 * ka4), v + _C5 * h,
                       b + h * (_A51 * kb1 + _A52 * kb2 + _A53 * kb3 + _A54 * kb4), eta)
        ka6, kb6 = rhs(a + h * (_A61 * ka1 + _A62 * ka2 + _A63 * ka3 + _A64 * ka4 + _A65 * ka5),
                       v + h,
                       b + h * (_A61 * kb1 + _A62 * kb2 + _A63 * kb3 + _A64 * kb4 + _A65 * kb5),
                       eta)
        a_new = a + h * (_B1 * ka1 + _B3 * ka3 + _B4 * ka4 + _B5 * ka5 + _B6 * ka6)
        b_new = b + h * (_B1 * kb1 + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
        ka7, kb7 = rhs(a_new, v + h, b_new, eta)
        err = abs(h) * max(
            abs(_E1 * ka1 + _E3 * ka3 + _E4 * ka4 + _E5 * ka5 + _E6 * ka6 + _E7 * ka7),
            abs(_E1 * kb1 + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6 + _E7 * kb7),
        )
        tol = RARE_TOL * (1.0 + max(abs(a_new), abs(b_new)))
        if err <= tol:
            if last:
                return _from_line_coords(a_new, v_end, b_new)
            a, b, v, ka1, kb1 = a_new, b_new, v + h, ka7, kb7
            h *= min(5.0, 0.9 * (tol / err) ** 0.2) if err > 0.0 else 5.0
            continue
        h *= max(0.2, 0.9 * (tol / err) ** 0.2)  # a nan estimate shrinks by 0.2 too
        if not abs(h) >= 16.0 * ulp(v):
            u, w = _from_line_coords(a, v, b)
            raise ConvergenceError(
                f"2-rarefaction step size collapsed at v = {v} (error estimate {err:.3e}, "
                f"tolerance {tol:.3e}, eta = {eta})",
                iterate=np.array([u, v, w]),
                residual=err,
            )


def rarefaction(fam: int, base, s: float, params: ModelParams) -> CurvePoint:
    """Point at parameter s on the family-`fam` rarefaction curve through `base`.

    Families 1 and 3 coincide with the Hugoniot lines.  Family 2 integrates
    the middle eigenvector field (v-component normalized to 1) in the line
    coordinates (alpha, beta) of `flux`, as a 2-D ODE in v on Python floats,
    with the adaptive embedded Dormand-Prince 5(4) pair: the first trial step
    is s, a step is accepted when the error estimate
    max(|e_alpha|, |e_beta|) <= RARE_TOL (1 + max(|alpha|, |beta|)) with
    RARE_TOL = 1e-14, and the last step is clamped to land on vb + s, so the
    v-component of the result is exactly vb + s.

    A non-finite stage state raises DomainError, and so does a stage where
    the middle family meets the first or the third.  If the step size
    collapses below the resolution of v, ConvergenceError carries the
    reached state and the error estimate.
    """
    _check_family(fam)
    base = as_state(base)
    if s == 0.0:
        return CurvePoint(state=base.copy(), speed=float(eigenvalues(base, params)[fam - 1]))
    state = np.array(_curve_state(fam, False, *base.tolist(), float(s), params))
    if fam == 2:  # the middle eigenvalue is exactly 2v
        return CurvePoint(state=state, speed=2.0 * state[1],
                          warnings=_curve_warnings(state, 2.0 * base[1] + s))
    speed = float(eigenvalues(state, params)[fam - 1])
    return CurvePoint(state=state, speed=speed, warnings=_curve_warnings(state))


def wave_fan_curve(fam: int, base, s: float, params: ModelParams) -> CurvePoint:
    """Wave-fan curve D_fam: shock branch on the admissible-shock side, else rarefaction."""
    if shock_side(fam, s):
        return hugoniot(fam, base, s, params)
    return rarefaction(fam, base, s, params)


def shock_side(fam: int, s: float) -> bool:
    """True when strength s lies on the admissible-shock side of family fam."""
    _check_family(fam)
    return s * _SHOCK_SIDE[fam] > 0.0


@dataclass(frozen=True)
class LaxCheck:
    admissible: bool
    left_margin: float
    right_margin: float
    crossing_left_margin: float | None = None
    crossing_right_margin: float | None = None

    def __bool__(self):
        return self.admissible


def lax_admissible(fam: int, left, right, speed: float, params: ModelParams) -> LaxCheck:
    """Lax admissibility of a family-`fam` discontinuity of the given speed.

    Requires lambda_fam(right) <= speed <= lambda_fam(left) up to TOL_LAX, plus
    the crossing conditions with the neighboring families.  Margins are
    returned signed; a contact discontinuity passes with zero margins.
    """
    _check_family(fam)
    lam_left = eigenvalues(left, params)
    lam_right = eigenvalues(right, params)
    left_margin = float(lam_left[fam - 1] - speed)
    right_margin = float(speed - lam_right[fam - 1])
    margins = [left_margin, right_margin]
    crossing_left = None
    crossing_right = None
    if fam > 1:
        crossing_left = float(speed - lam_left[fam - 2])
        margins.append(crossing_left)
    if fam < 3:
        crossing_right = float(lam_right[fam] - speed)
        margins.append(crossing_right)
    return LaxCheck(
        admissible=bool(min(margins) >= -TOL_LAX),
        left_margin=left_margin,
        right_margin=right_margin,
        crossing_left_margin=crossing_left,
        crossing_right_margin=crossing_right,
    )
