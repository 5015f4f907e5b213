"""Shock-interaction estimates: outgoing patterns, Taylor fits and bounds.

Two configurations are certified:

* 2-2: two approaching 2-shocks with strengths s1, s2 < 0 near the base
  point (a, 0, -a).  The outgoing fan is 1-shock / 2-shock / 3-shock with
  middle strength s1 + s2, and the outgoing outer strengths obey

      (sigma, tau) ~ (a/32) (1, -1) s1 s2 (s1 + s2)

  to cubic order, driven by the matrix coefficient (1/32)[[4, 3], [2, 3]].

* 1-2: a 1-shock overtaken by a 2-shock (strengths sigma, s < 0).  At
  eta = 0 the outgoing strengths are closed form,

      sigma' = 2 sigma / (2 - s),
      tau'   = (gamma + 4) s sigma / ((4 - gamma)(2 - s)),  gamma = 2 v_l + s,

  and for eta > 0 they solve A X + eta F(X) = Y, recast as the fixed point
  X = X0 - eta A^{-1} F(X) of a contraction.  The certified bounds are
  2 sigma <= sigma' <= sigma / 2 and sigma s / 100 <= tau' <= 10 sigma s.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, DomainError
from . import wavecurves as wc
from .flux import ETA_MAX, ModelParams, as_state, check_count_and_seed, p1, p3
from .riemann import RiemannFan, solve_riemann

DEFAULT_EPS_22 = 1e-2
DEFAULT_ETA_12 = 1e-3
PATTERN_TOL = 1e-13
STRENGTH_FLOOR_22 = 0.1
TAYLOR_POINTS_PER_SCALE = 5
CONTRACTION_TOL = 1e-14
CONTRACTION_MAX_ITER = 200
ORACLE_AGREEMENT_TOL = 1e-9
# the largest contraction ratio a 1-2 contraction check passes with
CONTRACTION_RATIO_MAX = 0.5

G_CUBIC_TARGET = np.array([[4.0, 3.0], [2.0, 3.0]]) / 32.0


def base_point(a: float) -> np.ndarray:
    """The distinguished base state (a, 0, -a), for a in (0, 1/2)."""
    if not 0.0 < a < 0.5:
        raise DomainError(f"base parameter a must lie in (0, 1/2), got {a}")
    return np.array([a, 0.0, -a])


@dataclass(frozen=True)
class Interaction22Scenario:
    """Two incoming 2-shocks near (a, 0, -a)."""

    a: float
    Ul: np.ndarray
    s1: float
    s2: float
    eta: float
    eps: float = DEFAULT_EPS_22

    def __post_init__(self):
        base = base_point(self.a)
        Ul = as_state(self.Ul)
        object.__setattr__(self, "Ul", Ul)
        box = self.eps * self.a
        if np.linalg.norm(Ul - base) > box * (1.0 + 1e-12):
            raise DomainError("left state outside the eps*a ball around (a, 0, -a)")
        for name, s in (("s1", self.s1), ("s2", self.s2)):
            if not -box <= s <= 0.0:
                raise DomainError(f"{name} must lie in [-eps*a, 0], got {s}")
        if not 0.0 <= self.eta <= box:
            raise DomainError(f"eta must lie in [0, eps*a], got {self.eta}")


@dataclass(frozen=True)
class Interaction12Scenario:
    """An incoming 2-shock (strength s) overtaking a 1-shock (strength sigma)."""

    Ul: np.ndarray
    s: float
    sigma: float
    eta: float

    def __post_init__(self):
        Ul = as_state(self.Ul)
        object.__setattr__(self, "Ul", Ul)
        if np.linalg.norm(Ul) >= 0.5:
            raise DomainError("left state must satisfy |Ul| < 1/2")
        for name, s in (("s", self.s), ("sigma", self.sigma)):
            if not -0.25 < s <= 0.0:
                raise DomainError(f"{name} must lie in (-1/4, 0], got {s}")
        if not 0.0 <= self.eta < ETA_MAX:
            raise DomainError(f"eta must lie in [0, 1/4), got {self.eta}")


@dataclass(frozen=True)
class BoundCheck:
    """One inequality lhs <= rhs with its evaluated sides."""

    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class InteractionReport:
    incoming: tuple
    outgoing: tuple
    pattern: str
    residual: float
    bound_checks: tuple = ()
    mid_discrepancy: float = 0.0
    fan: RiemannFan | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)


def _pattern(sigma: float, s_mid: float, tau: float) -> str:
    """Classify the outgoing triple by admissible-side signs.

    'S' marks a wave on the shock side of its family (at eta = 0 the outer
    waves are contacts, but the sign classification is what the interaction
    estimates quantify), 'R' a rarefaction-side wave, '-' an absent wave.
    """
    out = []
    for fam, s in ((1, sigma), (2, s_mid), (3, tau)):
        if abs(s) <= PATTERN_TOL:
            out.append("-")
        elif wc.shock_side(fam, s):
            out.append("S")
        else:
            out.append("R")
    return "".join(out)


def interact_22(sc: Interaction22Scenario) -> InteractionReport:
    """Resolve the collision of the two 2-shocks of the scenario.

    The middle outgoing strength is reported as s1 + s2 (the v-jump is
    bookkept, never solved); the solver's own value agrees to rounding and
    the difference is recorded in mid_discrepancy.
    """
    params = ModelParams(sc.eta)
    Um = wc.wave_fan_curve(2, sc.Ul, sc.s1, params).state
    Ur = wc.wave_fan_curve(2, Um, sc.s2, params).state
    fan = solve_riemann(sc.Ul, Ur, params)
    sigma, s_solver, tau = fan.strengths
    s_mid = sc.s1 + sc.s2
    return InteractionReport(
        incoming=(sc.s1, sc.s2),
        outgoing=(sigma, s_mid, tau),
        pattern=_pattern(sigma, s_mid, tau),
        residual=fan.residual,
        mid_discrepancy=abs(s_solver - s_mid),
        fan=fan,
    )


def sample_scenarios_22(
    n: int,
    a: float = 0.25,
    eps: float = DEFAULT_EPS_22,
    seed: int = 0,
) -> list:
    """Seeded scenarios in the 2-2 hypothesis box.

    Strengths are drawn from [-eps*a, -STRENGTH_FLOOR_22*eps*a]: the outgoing
    outer strengths scale like s1 s2 (s1 + s2), so strengths below roughly
    1e-4 push the certified signs under the double-precision solver noise.
    """
    check_count_and_seed(n, seed)
    rng = np.random.default_rng(seed)
    box = eps * a
    out = []
    for _ in range(n):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        Ul = base_point(a) + box * rng.uniform(0.0, 1.0) ** (1.0 / 3.0) * direction
        s1 = -rng.uniform(STRENGTH_FLOOR_22 * box, box)
        s2 = -rng.uniform(STRENGTH_FLOOR_22 * box, box)
        eta = rng.uniform(0.0, box)
        out.append(Interaction22Scenario(a=a, Ul=Ul, s1=s1, s2=s2, eta=eta, eps=eps))
    return out


# ---------------------------------------------------------------------------
# Taylor structure of the 2-2 interaction


def _h_matrix(s: float) -> np.ndarray:
    """Columns [I + E(0, s)] (1, 0)^T and (1, s-2)^T."""
    E = wc.hugoniot_matrix(0.0, s)
    first = (np.eye(2) + E) @ np.array([1.0, 0.0])
    second = np.array([1.0, s - 2.0])
    return np.column_stack([first, second])


def g_matrix(s1: float, s2: float) -> np.ndarray:
    """Exact coefficient matrix mapping (u, w) of the base point to (sigma, tau).

    Built from the eta = 0 closed-form 2-shock matrices:
    H(s1+s2)^{-1} [E(0,s1) + E(s1,s2) + E(s1,s2) E(0,s1) - E(0,s1+s2)].
    """
    s = s1 + s2
    B = (
        wc.hugoniot_matrix(0.0, s1)
        + wc.hugoniot_matrix(s1, s2)
        + wc.hugoniot_matrix(s1, s2) @ wc.hugoniot_matrix(0.0, s1)
        - wc.hugoniot_matrix(0.0, s)
    )
    return np.linalg.solve(_h_matrix(s), B)


@dataclass(frozen=True)
class TaylorFit22:
    a: float
    eta: float
    scales: tuple
    c_sigma_per_scale: tuple
    c_tau_per_scale: tuple
    c_sigma: float
    c_tau: float
    g_per_scale: tuple
    g_cubic: np.ndarray
    axis_max_abs: float
    stencil_condition: float

    @property
    def c_sigma_target(self) -> float:
        return self.a / 32.0

    @property
    def c_tau_target(self) -> float:
        return -self.a / 32.0


def _richardson3(values):
    """Extrapolate f(h), f(2h), f(4h) to h = 0 assuming smooth error in h."""
    f1, f2, f4 = values
    return (8.0 * f1 - 6.0 * f2 + f4) / 3.0


def fit_cubic_coefficient(pairs, values):
    """Least-squares c with values ~ c * s1 s2 (s1 + s2) over the stencil."""
    m = np.array([s1 * s2 * (s1 + s2) for s1, s2 in pairs])
    den = float(m @ m)
    if den == 0.0:
        raise DomainError("degenerate stencil: all cubic monomials vanish")
    cond = float(np.abs(m).max() / np.abs(m).min())
    return float(m @ np.asarray(values)) / den, cond


def taylor_fit_22(a: float = 0.25, eta: float = 0.0) -> TaylorFit22:
    """Fit the cubic Taylor coefficients of the outgoing 2-2 strengths.

    Runs the full interaction over 5x5 stencils at three strength scales,
    fits sigma and tau against the single monomial s1 s2 (s1 + s2) per scale,
    and Richardson-extrapolates the scales to zero.  The coefficient matrix
    diagnostic g_cubic is fitted the same way from the exact eta = 0
    g_matrix, entry by entry.
    """
    Ul = base_point(a)
    h0 = 2.5e-3 * a
    scales = (h0, 2.0 * h0, 4.0 * h0)
    eps_needed = max(scales[-1] / a, DEFAULT_EPS_22)

    cs_scale, ct_scale, g_scale = [], [], []
    cond = 0.0
    axis_max = 0.0
    for h in scales:
        pairs = [
            (-h * i / TAYLOR_POINTS_PER_SCALE, -h * j / TAYLOR_POINTS_PER_SCALE)
            for i in range(1, TAYLOR_POINTS_PER_SCALE + 1)
            for j in range(1, TAYLOR_POINTS_PER_SCALE + 1)
        ]
        sigmas, taus = [], []
        for s1, s2 in pairs:
            rep = interact_22(
                Interaction22Scenario(a=a, Ul=Ul, s1=s1, s2=s2, eta=eta, eps=eps_needed)
            )
            sigmas.append(rep.outgoing[0])
            taus.append(rep.outgoing[2])
        c_s, cond_s = fit_cubic_coefficient(pairs, sigmas)
        c_t, _ = fit_cubic_coefficient(pairs, taus)
        cond = max(cond, cond_s)
        cs_scale.append(c_s)
        ct_scale.append(c_t)
        g_vals = np.array([g_matrix(s1, s2) for s1, s2 in pairs])
        g_fit = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                g_fit[i, j], _ = fit_cubic_coefficient(pairs, g_vals[:, i, j])
        g_scale.append(g_fit)

        # single-wave axes: with s2 = 0 (or s1 = 0) the outgoing outer waves vanish
        for s1 in (-h, -h / TAYLOR_POINTS_PER_SCALE):
            rep = interact_22(
                Interaction22Scenario(a=a, Ul=Ul, s1=s1, s2=0.0, eta=eta, eps=eps_needed)
            )
            axis_max = max(axis_max, abs(rep.outgoing[0]), abs(rep.outgoing[2]))

    return TaylorFit22(
        a=a,
        eta=eta,
        scales=scales,
        c_sigma_per_scale=tuple(cs_scale),
        c_tau_per_scale=tuple(ct_scale),
        c_sigma=_richardson3(cs_scale),
        c_tau=_richardson3(ct_scale),
        g_per_scale=tuple(g_scale),
        g_cubic=_richardson3(g_scale),
        axis_max_abs=axis_max,
        stencil_condition=cond,
    )


# ---------------------------------------------------------------------------
# 1-2 interaction


@dataclass(frozen=True)
class ClosedForm12:
    sigma_prime: float
    tau_prime: float
    gamma: float
    sigma_ratio: float
    tau_ratio: float


def closed_form_12_eta0(Ul, s: float, sigma: float) -> ClosedForm12:
    """Outgoing strengths of the 1-2 interaction at eta = 0, in closed form.

    Also returns the bracketing ratios sigma'/sigma = 2/(2-s) in (2/3, 1) and
    tau'/(s sigma) = (gamma+4)/((4-gamma)(2-s)) in (1/21, 4).
    """
    Ul = as_state(Ul)
    gamma = 2.0 * Ul[1] + s
    sigma_ratio = 2.0 / (-s + 2.0)
    tau_ratio = (gamma + 4.0) / ((4.0 - gamma) * (-s + 2.0))
    return ClosedForm12(
        sigma_prime=sigma_ratio * sigma,
        tau_prime=tau_ratio * s * sigma,
        gamma=gamma,
        sigma_ratio=sigma_ratio,
        tau_ratio=tau_ratio,
    )


def linear_system_matrix_inv(v_l: float, s: float) -> np.ndarray:
    """Closed-form inverse of the outgoing-strength matrix A, gamma = 2 v_l + s.

    A = [[gamma + 4, gamma - 4], [v_l (gamma + 4), (v_l + s - 2)(gamma - 4)]];
    det A = (16 - gamma^2)(2 - s) never vanishes here.
    """
    gamma = 2.0 * v_l + s
    pref = 1.0 / ((16.0 - gamma * gamma) * (-s + 2.0))
    return pref * np.array(
        [
            [(v_l + s - 2.0) * (gamma - 4.0), -(gamma - 4.0)],
            [-v_l * (gamma + 4.0), gamma + 4.0],
        ]
    )


@dataclass(frozen=True)
class ContractionResult:
    x: np.ndarray
    x0: np.ndarray
    iterations: int
    contraction_ratio: float
    empirical_k: float
    deltas: tuple


def contraction_solve_12(sc: Interaction12Scenario) -> ContractionResult:
    """Solve the eta > 0 outgoing strengths by the fixed-point map.

    Iterates T(X) = X0 - eta A^{-1} F(X) from the eta = 0 closed form X0,
    where F stacks the p1/p3 second differences over the states
    U'_m = Ul + sigma' (1,0,v_l) and U''_m = Ur - tau' (1,0,v_r-2), until a
    step is at most CONTRACTION_TOL, for at most CONTRACTION_MAX_ITER steps.
    Ur = Um + sigma (1,0,v_m), U'_m and U''_m are points of the outer wave
    curves, taken from `wavecurves._curve_state`.
    Reports the largest successive-step ratio and the empirical ball constant
    max |X_n - X0| / (eta sigma s).
    """
    params = ModelParams(sc.eta)
    Ul = sc.Ul
    Um = wc.wave_fan_curve(2, Ul, sc.s, params).state
    Ur = wc._curve_state(1, False, *Um.tolist(), sc.sigma, params)

    cf = closed_form_12_eta0(Ul, sc.s, sc.sigma)
    x0 = np.array([cf.sigma_prime, cf.tau_prime])
    a_inv = linear_system_matrix_inv(Ul[1], sc.s)
    left = Ul.tolist()

    def apply_map(x):
        u_prime = wc._curve_state(1, False, *left, x[0], params)
        u_second = wc._curve_state(3, False, *Ur, -x[1], params)
        f_vec = np.array(
            [
                p1(u_second) - p1(Um) - p1(u_prime) + p1(Ul),
                p3(u_second) - p3(Um) - p3(u_prime) + p3(Ul),
            ]
        )
        return x0 - sc.eta * (a_inv @ f_vec)

    x = x0.copy()
    deltas = []
    ratios = []
    iterations = 0
    for iterations in range(1, CONTRACTION_MAX_ITER + 1):
        x_next = apply_map(x)
        delta = float(np.linalg.norm(x_next - x))
        if deltas and deltas[-1] > 0.0:
            ratios.append(delta / deltas[-1])
        deltas.append(delta)
        x = x_next
        if delta <= CONTRACTION_TOL:
            break
        if len(ratios) >= 2 and min(ratios[-2:]) >= 1.0:
            raise ContractionError(
                "fixed-point iteration stopped contracting",
                iterate=x,
                residual=delta,
                trace=tuple(deltas),
            )
    else:
        raise ContractionError(
            f"fixed-point iteration did not converge in {CONTRACTION_MAX_ITER} steps",
            iterate=x,
            residual=deltas[-1] if deltas else None,
            trace=tuple(deltas),
        )

    drive = sc.eta * sc.sigma * sc.s  # positive: sigma, s < 0
    empirical_k = float(np.linalg.norm(x - x0) / drive) if drive > 0.0 else 0.0
    return ContractionResult(
        x=x,
        x0=x0,
        iterations=iterations,
        contraction_ratio=float(max(ratios)) if ratios else 0.0,
        empirical_k=empirical_k,
        deltas=tuple(deltas),
    )


def _bounds_12(sigma: float, s: float, sigma_prime: float, tau_prime: float) -> tuple:
    ss = sigma * s
    return (
        BoundCheck("sigma_lower", 2.0 * sigma, sigma_prime, 2.0 * sigma <= sigma_prime),
        BoundCheck("sigma_upper", sigma_prime, 0.5 * sigma, sigma_prime <= 0.5 * sigma),
        BoundCheck("tau_lower", ss / 100.0, tau_prime, ss / 100.0 <= tau_prime),
        BoundCheck("tau_upper", tau_prime, 10.0 * ss, tau_prime <= 10.0 * ss),
    )


def interact_12(sc: Interaction12Scenario) -> InteractionReport:
    """Resolve the 1-2 collision and evaluate the strength bounds."""
    params = ModelParams(sc.eta)
    Um = wc.wave_fan_curve(2, sc.Ul, sc.s, params).state
    Ur = wc.wave_fan_curve(1, Um, sc.sigma, params).state
    fan = solve_riemann(sc.Ul, Ur, params)
    sigma_prime, s_solver, tau_prime = fan.strengths
    checks = _bounds_12(sc.sigma, sc.s, sigma_prime, tau_prime) if sc.sigma != 0.0 else ()
    return InteractionReport(
        incoming=(sc.s, sc.sigma),
        outgoing=(sigma_prime, sc.s, tau_prime),
        pattern=_pattern(sigma_prime, sc.s, tau_prime),
        residual=fan.residual,
        bound_checks=checks,
        mid_discrepancy=abs(s_solver - sc.s),
        fan=fan,
    )


@dataclass(frozen=True)
class Bounds12Record:
    scenario: Interaction12Scenario
    report: InteractionReport
    contraction: ContractionResult
    oracle_agreement: float

    @property
    def passed(self) -> bool:
        return (
            self.report.passed
            and self.report.pattern == "SSS"
            and self.oracle_agreement <= ORACLE_AGREEMENT_TOL
            and self.contraction.contraction_ratio <= CONTRACTION_RATIO_MAX
        )


def sample_scenarios_12(n: int, eta: float = DEFAULT_ETA_12, seed: int = 0) -> list:
    """Seeded scenarios in the 1-2 hypothesis box |Ul| < 1/2, s, sigma in (-1/4, 0)."""
    check_count_and_seed(n, seed)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        Ul = 0.499 * rng.uniform(0.0, 1.0) ** (1.0 / 3.0) * direction
        s = -rng.uniform(1e-4, 0.2499)
        sigma = -rng.uniform(1e-4, 0.2499)
        out.append(Interaction12Scenario(Ul=Ul, s=s, sigma=sigma, eta=eta))
    return out


def verify_bounds_12(n_samples: int, eta: float = DEFAULT_ETA_12, seed: int = 0) -> list:
    """Run the 1-2 certification over seeded scenarios.

    Each record carries the full interaction report, the contraction-solver
    cross-check and their agreement; failures are data, not exceptions.
    """
    records = []
    for sc in sample_scenarios_12(n_samples, eta=eta, seed=seed):
        report = interact_12(sc)
        contraction = contraction_solve_12(sc)
        agreement = float(
            np.linalg.norm(contraction.x - np.array([report.outgoing[0], report.outgoing[2]]))
        )
        records.append(
            Bounds12Record(
                scenario=sc,
                report=report,
                contraction=contraction,
                oracle_agreement=agreement,
            )
        )
    return records
