"""General-purpose numerics kept as independent oracles for the closed forms.

The library computes the eigenstructure, the nonlinearity factors and the
states inside rarefaction fans from closed forms.  These routines reach the
same quantities without them: the roots of the characteristic cubic of the
Jacobian, SVD null vectors, central finite differences of the roots, and
bisection on the family speed along the rarefaction curve.  The family-2
rarefaction is integrated by a fixed-step RK4 on state arrays with
`r2_direction`, and has a closed form at eta = 0.
The tracker's observables are recomputed by a plain loop over the fronts, and
its next collision by one Python call per neighbour pair; the L1 distance of
two tracker solutions is summed exactly over the merged front positions.
The fronts and rows of a solved tracker event are assembled from the public
`solve_riemann` fan, its `Wave`s, `Front`s and rows gathered from the fronts'
arrays.
Shock speeds are fitted to the Rankine-Hugoniot condition by least squares.
The public curve functions are kept with every family-1 and family-3 state
formed as an array sum base + s r, and the outer lines and the eta = 0
2-shock are computed again in exact rationals.
The Riemann problem is solved by the same secant in s1 as the library's, but
every trial state is a (3,) array composed through those array curve
functions, and each wave takes its speed from two `eigenvalues` calls of its
own.
The family-2 Hugoniot Newton is kept with the halving line search that the
library's full-step rule replaced.
The flux at eta = 0 is linear in (u, w) with a 2x2 matrix of v, and the 1-2
outgoing-strength system has a matrix whose inverse the library writes in
closed form.
Results are compared bit for bit by `assert_bit_equal`, which walks
dataclasses, tuples and lists down to arrays and floats.
"""

import dataclasses
import heapq
import struct
from fractions import Fraction

import numpy as np

import bjsystem.flux as fx
import bjsystem.fronttrack as ft
import bjsystem.riemann as rm
import bjsystem.wavecurves as wc
from bjsystem.errors import ConvergenceError, SingularCurveError

_TWO_PI_THIRDS = 2.0 * np.pi / 3.0


def assert_bit_equal(a, b, path="value"):
    """Assert that a and b are equal bit for bit, naming the first part that differs.

    Both must have the same type.  Dataclass fields, tuples and lists are
    compared item by item, arrays by dtype, shape and bytes, and floats
    (numpy's float64 included) by their 64 bits, so -0.0 differs from 0.0
    and a nan equals the same nan.  Anything else is compared with ==.
    """
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bit_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for k, (x, y) in enumerate(zip(a, b)):
            assert_bit_equal(x, y, f"{path}[{k}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (
            f"{path}: {a.dtype}{a.shape} != {b.dtype}{b.shape}")
        assert a.tobytes() == b.tobytes(), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), f"{path}: {a!r} != {b!r}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def ball_sample(rng, n, radius):
    """n uniform random points of the ball |U| <= radius, drawn from rng."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    return radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0) * direction


def char_coeffs(J):
    """Coefficients (c2, c1, c0) of det(lam I - J) = lam^3 + c2 lam^2 + c1 lam + c0."""
    a, b, c = J[..., 0, 0], J[..., 0, 1], J[..., 0, 2]
    d, e, f = J[..., 1, 0], J[..., 1, 1], J[..., 1, 2]
    g, h, i = J[..., 2, 0], J[..., 2, 1], J[..., 2, 2]
    tr = a + e + i
    minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return -tr, minors, -det


def cubic_roots_sorted(c2, c1, c0):
    """Real roots of lam^3 + c2 lam^2 + c1 lam + c0, ascending.

    Trigonometric closed form for the three-real-root branch, followed by two
    Newton polish sweeps on the original cubic.  Returns (roots, ok) where ok
    flags entries whose discriminant is consistent with three real roots.
    """
    c2 = np.atleast_1d(np.asarray(c2, dtype=float))
    c1 = np.atleast_1d(np.asarray(c1, dtype=float))
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = 4.0 * p ** 3 + 27.0 * q * q
    scale = np.maximum(np.abs(p) ** 3, 27.0 * q * q) + 1e-300
    ok = disc <= 1e-9 * scale
    p_safe = np.minimum(p, -1e-300)
    m = 2.0 * np.sqrt(-p_safe / 3.0)
    arg = np.clip(3.0 * q / (p_safe * m), -1.0, 1.0)
    theta = np.arccos(arg) / 3.0
    k = np.arange(3.0)
    lam = m[..., None] * np.cos(theta[..., None] - _TWO_PI_THIRDS * k) - (c2 / 3.0)[..., None]
    for _ in range(2):
        f = ((lam + c2[..., None]) * lam + c1[..., None]) * lam + c0[..., None]
        fp = (3.0 * lam + 2.0 * c2[..., None]) * lam + c1[..., None]
        fp = np.where(np.abs(fp) > 1e-300, fp, 1.0)
        lam = lam - f / fp
    lam.sort(axis=-1)
    return lam, ok


def cubic_eigenvalues(U, params):
    """Sorted roots of the characteristic cubic of DF for a batch of states."""
    return cubic_roots_sorted(*char_coeffs(fx.jacobian(U, params)))


def null_vector(M):
    """Unit right null vectors of a batch of (near) singular 3x3 matrices."""
    _, _, vt = np.linalg.svd(M)
    return vt[..., -1, :]


def fd_nonlinearity(U, params, step=1e-5):
    """grad(lambda_i) . r_i per state and family from central differences of the cubic roots.

    The eigenvectors are the SVD null vectors of DF - lambda_i I, scaled to
    u-component 1 for families 1 and 3 and v-component 1 for family 2.
    Returns an array of shape (n, 3).
    """
    lam, _ = cubic_eigenvalues(U, params)
    grad = np.empty(U.shape + (3,))
    for k in range(3):
        dU = np.zeros(3)
        dU[k] = step
        lp, _ = cubic_eigenvalues(U + dU, params)
        lm, _ = cubic_eigenvalues(U - dU, params)
        grad[:, :, k] = (lp - lm) / (2.0 * step)
    J = fx.jacobian(U, params)
    out = np.empty(U.shape)
    for i, pivot in enumerate((0, 1, 0)):
        r = null_vector(J - lam[:, i, None, None] * np.eye(3))
        r = r / r[:, pivot, None]
        out[:, i] = np.einsum("nk,nk->n", grad[:, i, :], r)
    return out


def uw_block(v):
    """The 2x2 matrix acting on (u, w) at eta = 0:  4[[v-1, -1], [v(v-2), 1-v]]."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape + (2, 2), dtype=float)
    out[..., 0, 0] = 4.0 * (v - 1.0)
    out[..., 0, 1] = -4.0
    out[..., 1, 0] = 4.0 * v * (v - 2.0)
    out[..., 1, 1] = 4.0 * (1.0 - v)
    return out


def linear_system_matrix(v_l, s):
    """The 2x2 matrix A of the 1-2 outgoing-strength system, gamma = 2 v_l + s."""
    gamma = 2.0 * v_l + s
    return np.array(
        [
            [gamma + 4.0, gamma - 4.0],
            [v_l * (gamma + 4.0), (v_l + s - 2.0) * (gamma - 4.0)],
        ]
    )


def rh_speed(left, right, params):
    """Least-squares Rankine-Hugoniot speed and residual for a jump.

    gamma minimizes |F(right) - F(left) - gamma (right - left)| over all three
    components; robust when one component of the jump vanishes.  It loses
    about eps |F| / |right - left| to cancellation on weak jumps.
    """
    left = fx.as_state(left)
    right = fx.as_state(right)
    dU = right - left
    den = float(dU @ dU)
    if den == 0.0:
        return 0.0, 0.0
    dF = fx.flux(right, params) - fx.flux(left, params)
    gamma = float(dF @ dU) / den
    residual = float(np.linalg.norm(dF - gamma * dU))
    return gamma, residual


def hugoniot2_line_search(base, s, params):
    """Family-2 Hugoniot point by Newton with a halving line search.

    The same seed, 2x2 block and stops as `wavecurves._hugoniot2`, but a full
    step that does not lower the residual is halved up to 29 times, and only
    a step that no halving makes lower ends the Newton.
    """
    base = fx.as_state(base)
    if s == 0.0:
        return wc.CurvePoint(state=base.copy(), speed=2.0 * base[1])
    gamma = 2.0 * base[1] + s
    uw = base[[0, 2]]
    try:
        uw = uw + wc.hugoniot_matrix(base[1], s) @ uw
    except SingularCurveError:
        if params.eta == 0.0:
            raise
    F_base = fx.flux(base, params)

    def residual(uw):
        state = np.array([uw[0], base[1] + s, uw[1]])
        R = fx.flux(state, params) - F_base - gamma * (state - base)
        return state, R, float(np.linalg.norm(R))

    state, R, r_norm = residual(uw)
    if params.eta > 0.0:
        scale = 1.0 + float(np.linalg.norm(F_base))
        for _ in range(wc.NEWTON_MAX_ITER):
            if r_norm <= 1e-15 * scale:
                break
            J = fx.jacobian(state, params)[::2, ::2]
            try:
                step = np.linalg.solve(J - gamma * np.eye(2), R[::2])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    "singular Jacobian in 2-Hugoniot Newton solve", iterate=state, residual=r_norm
                ) from exc
            for k in range(30):
                trial = residual(state[::2] - 0.5**k * step)
                if trial[2] < r_norm:
                    state, R, r_norm = trial
                    break
            else:  # no step length lowers the residual
                break
        if r_norm > wc.NEWTON_TOL * scale:
            raise ConvergenceError(
                f"2-Hugoniot Newton residual {r_norm:.3e} above tolerance",
                iterate=state, residual=r_norm,
            )
    return wc.CurvePoint(state=state, speed=gamma, residual=r_norm,
                         warnings=wc._curve_warnings(state, gamma))


def rk4_rarefaction2(base, s, params, step=1e-3):
    """Family-2 rarefaction point by a fixed-step RK4 on (3,) arrays.

    Four `r2_direction` calls per step, each checking its state with
    `as_state`; max(64, ceil(|s| / step)) steps, and the v-component of the
    endpoint pinned to vb + s.
    """
    base = fx.as_state(base)
    n_steps = max(64, int(np.ceil(abs(s) / step)))
    h = s / n_steps
    y = base.copy()
    for _ in range(n_steps):
        k1 = fx.r2_direction(y, params)
        k2 = fx.r2_direction(y + 0.5 * h * k1, params)
        k3 = fx.r2_direction(y + 0.5 * h * k2, params)
        k4 = fx.r2_direction(y + h * k3, params)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y[1] = base[1] + s
    warnings = wc._curve_warnings(y, 2.0 * base[1] + s)
    return wc.CurvePoint(state=y, speed=2.0 * y[1], warnings=warnings)


def closed_form_rarefaction2(base, s):
    """Family-2 rarefaction point at eta = 0 in closed form.

    With beta = (v u - w)/2 and alpha = u - beta, N = alpha (v + 2) + beta (v - 2)
    solves N'' = 2 N / (v^2 - 4) along the curve, with N' = alpha + beta.  Its
    solutions are spanned by N1 = v^2 - 4 and
    N2 = -v/8 + (v^2 - 4)/32 ln((2 + v)/(2 - v)), whose Wronskian is 1, and
    alpha = (N - (v - 2) N')/4, beta = ((v + 2) N' - N)/4.
    """
    u, vb, w = fx.as_state(base).tolist()

    def basis(v):
        """N1, N2 and their v-derivatives at v."""
        half_log = np.arctanh(0.5 * v)  # ln((2 + v)/(2 - v)) / 2
        n2 = -v / 8.0 + (v * v - 4.0) * half_log / 16.0
        return v * v - 4.0, n2, 2.0 * v, v * half_log / 8.0 - 0.25

    beta = 0.5 * (vb * u - w)
    alpha = u - beta
    n, dn = alpha * (vb + 2.0) + beta * (vb - 2.0), alpha + beta
    n1, n2, dn1, dn2 = basis(vb)
    c1, c2 = dn2 * n - n2 * dn, n1 * dn - dn1 * n
    v = vb + s
    n1, n2, dn1, dn2 = basis(v)
    n, dn = c1 * n1 + c2 * n2, c1 * dn1 + c2 * dn2
    alpha, beta = (n - (v - 2.0) * dn) / 4.0, ((v + 2.0) * dn - n) / 4.0
    return np.array([alpha + beta, v, v * (alpha + beta) - 2.0 * beta])


def line_point(fam, base, s):
    """The state at parameter s on the straight family-1 or family-3 line through base.

    The array sum base + s r_fam with r_1 = (1, 0, v) and r_3 = (1, 0, v - 2)
    at the v of base, on (3,) arrays.
    """
    v = base[1]
    return base + s * np.array([1.0, 0.0, v if fam == 1 else v - 2.0])


def hugoniot_arrays(fam, base, s, params):
    """`wavecurves.hugoniot` with a family-1 or family-3 state from `line_point`."""
    base = fx.as_state(base)
    if fam == 2:
        return wc._hugoniot2(base, s, params)
    state = line_point(fam, base, s)
    speed = 0.5 * float(fx.eigenvalues(base, params)[fam - 1]
                        + fx.eigenvalues(state, params)[fam - 1])
    return wc.CurvePoint(state=state, speed=speed,
                         residual=wc.rh_residual(base, state, speed, params),
                         warnings=wc._curve_warnings(state))


def rarefaction_arrays(fam, base, s, params):
    """`wavecurves.rarefaction` with each state formed on (3,) arrays.

    A family-1 or family-3 state is `line_point`; a family-2 state takes
    (u, w) from `_rarefaction2` and v = vb + s as an array entry.
    """
    base = fx.as_state(base)
    if s == 0.0:
        return wc.CurvePoint(state=base.copy(), speed=float(fx.eigenvalues(base, params)[fam - 1]))
    if fam != 2:
        state = line_point(fam, base, s)
        return wc.CurvePoint(state=state, speed=float(fx.eigenvalues(state, params)[fam - 1]),
                             warnings=wc._curve_warnings(state))
    u, w = wc._rarefaction2(*base.tolist(), float(s), params.eta)
    state = np.array([u, base[1] + s, w])
    return wc.CurvePoint(state=state, speed=2.0 * state[1],
                         warnings=wc._curve_warnings(state, 2.0 * base[1] + s))


def wave_fan_curve_arrays(fam, base, s, params):
    """`wavecurves.wave_fan_curve` through `hugoniot_arrays` and `rarefaction_arrays`."""
    branch = hugoniot_arrays if wc.shock_side(fam, s) else rarefaction_arrays
    return branch(fam, base, s, params)


def exact_curve_state_eta0(fam, base, s):
    """The point at s on the family-`fam` curve through base at eta = 0, in exact rationals.

    Families 1 and 3 are the lines base + s (1, 0, v) and base + s (1, 0, v - 2);
    family 2 is the 2-shock closed form v -> v + s, (u, w) -> (u, w) + E(v, s) (u, w)
    with E = 4 s / ((2 v + s)^2 - 16) [[s + 4 - 2 v, 4], [(s + 4)(s - 2) + 4 v, 3 s - 4 + 2 v]].
    Every float of base and s is taken at its exact value, and the result is
    three `Fraction`s, without rounding.
    """
    u, v, w = (Fraction(x) for x in base)
    s = Fraction(s)
    if fam != 2:
        return u + s, v, w + s * (v if fam == 1 else v - 2)
    k = 4 * s / ((2 * v + s) ** 2 - 16)
    return (u + k * ((s + 4 - 2 * v) * u + 4 * w),
            v + s,
            w + k * (((s + 4) * (s - 2) + 4 * v) * u + (3 * s - 4 + 2 * v) * w))


def make_wave(fam, strength, left, right, params):
    """A fan wave from its end states, with speeds from two `eigenvalues` calls."""
    kind = rm.classify(fam, strength, params)
    lam_l = float(fx.eigenvalues(left, params)[fam - 1])
    lam_r = float(fx.eigenvalues(right, params)[fam - 1])
    speed = (lam_l, lam_r) if kind == rm.RAREFACTION else 0.5 * (lam_l + lam_r)
    return rm.Wave(family=fam, kind=kind, strength=float(strength), left=left, right=right,
                   speed=speed)


def solve_riemann_arrays(Ul, Ur, params):
    """`riemann.solve_riemann` with every trial state composed on (3,) arrays.

    Each trial s1 gives U_A on the straight 1-line, U_B = D2[s2, U_A] from
    `wave_fan_curve_arrays` and U_C on the straight 3-line through U_B, so no
    state comes from `wavecurves._curve_state`.  The secant, its start, its
    stopping rule and its errors are the library's.
    """
    Ul = fx.as_state(Ul)
    Ur = fx.as_state(Ur)
    notes = []
    for name, U in (("left", Ul), ("right", Ur)):
        if not fx.in_unit_ball(U):
            notes.append(f"{name} state outside the unit ball |U| < 1")

    s2 = float(Ur[1] - Ul[1])
    ur, wr = Ur[0], Ur[2]
    scale = 1.0 + float(np.linalg.norm(Ur[[0, 2]]))

    def compose(s1):
        UA = line_point(1, Ul, s1)
        UB = wave_fan_curve_arrays(2, UA, s2, params).state if s2 != 0.0 else UA
        s3 = float(ur - UB[0])
        UC = line_point(3, UB, s3)
        return s1, s3, UA, UB, UC, float(UC[2] - wr)

    stop = 1e-15 * scale
    prev = compose(0.0)
    cur = compose(-0.5 * prev[-1]) if abs(prev[-1]) > stop else prev
    iterations = 1 if cur is prev else 2
    if abs(cur[-1]) > abs(prev[-1]):
        prev, cur = cur, prev
    for _ in range(rm.MAX_ITER):
        if abs(cur[-1]) <= stop or cur[-1] == prev[-1]:
            break
        trial = compose(cur[0] - cur[-1] * (cur[0] - prev[0]) / (cur[-1] - prev[-1]))
        iterations += 1
        if abs(trial[-1]) >= abs(cur[-1]):
            break
        prev, cur = cur, trial
    s1, s3, UA, UB, UC, g = cur
    if abs(g) > rm.SOLVER_TOL * scale:
        raise ConvergenceError(
            f"Riemann solve residual {abs(g):.3e} above tolerance {rm.SOLVER_TOL:.1e}",
            iterate=(s1, s3),
            residual=abs(g),
        )

    waves = []
    left = Ul
    for fam, s, right in ((1, s1, UA), (2, s2, UB), (3, s3, UC)):
        if abs(s) <= rm.TOL_ZERO:
            continue
        waves.append(make_wave(fam, s, left, right, params))
        left = right
    return rm.RiemannFan(
        left_state=Ul,
        waves=tuple(waves),
        strengths=(float(s1), s2, s3),
        residual=float(np.linalg.norm(UC - Ur)),
        params=params,
        iterations=iterations,
        warnings=tuple(notes),
    )


def bisect_rarefaction(wave, xi, params, tol=1e-12):
    """State inside a rarefaction fan at speed xi by bisection on the curve parameter.

    The family speed is monotone from the left edge to the right edge of the
    fan; each bisection step integrates the rarefaction curve from the left
    state and evaluates the family speed there.
    """
    lam_left = wave.speed[0]

    def lam_at(t):
        state = wc.rarefaction(wave.family, wave.left, t, params).state
        return float(fx.eigenvalues(state, params)[wave.family - 1])

    a, b = 0.0, wave.strength
    fa = lam_left - xi
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        fm = lam_at(mid) - xi
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    t = 0.5 * (a + b)
    return wc.rarefaction(wave.family, wave.left, t, params).state


def observables_loop(st):
    """`fronttrack.observables` as one pass of Python over the fronts."""
    U_bg = st.left_boundary_state
    tv = np.zeros(3)
    max_norm = float(np.linalg.norm(U_bg))
    for f in st.fronts:
        tv += np.abs(f.right - f.left)
        max_norm = max(max_norm, float(np.linalg.norm(f.right)))
    integrals = np.zeros(3)
    xs = st.positions()
    for k in range(len(st.fronts) - 1):
        integrals += (xs[k + 1] - xs[k]) * (st.fronts[k].right - U_bg)
    if st.fronts:
        U_far = st.fronts[-1].right
        balance = (
            integrals
            - xs[-1] * (U_far - U_bg)
            + st.time * (fx.flux(U_far, st.params.model) - fx.flux(U_bg, st.params.model))
        )
    else:
        balance = integrals
    return ft.ObservableRecord(
        time=st.time,
        n_events=len(st.event_log),
        n_fronts=len(st.fronts),
        total_variation=tuple(tv),
        max_state_norm=max_norm,
        integrals=tuple(integrals),
        balance=tuple(balance),
    )


def fan_fronts(st, fan, U_right, x, t, n_fronts):
    """The fronts of every wave of a public `RiemannFan`, born at (x, t), the last on U_right.

    Each shock or contact is one `Front`; each rarefaction is cut into
    `fronttrack._piece_count` pieces integrated by `wave_fan_curve`'s
    `rarefaction` from the piece before, with speeds from `eigenvalues` at
    their left edges.  The last front's right state is then set to U_right.
    """
    fronts = []
    for wave in fan.waves:
        fam, kind = wave.family, wave.kind
        n_pieces = ft._piece_count(wave.strength, st.params.delta, fam, n_fronts + len(fronts),
                                   kind)
        if kind != rm.RAREFACTION:
            fronts.append(ft.Front(st.new_uid(), fam, kind, wave.strength, wave.left, wave.right,
                                   float(wave.speed), x, t))
            continue
        model = st.params.model
        piece = wave.strength / n_pieces
        left, speed = wave.left, float(wave.speed[0])
        for _ in range(n_pieces - 1):
            right = wc.rarefaction(fam, left, piece, model).state
            fronts.append(ft.Front(st.new_uid(), fam, kind, piece, left, right, speed, x, t))
            left, speed = right, float(fx.eigenvalues(right, model)[fam - 1])
        fronts.append(ft.Front(st.new_uid(), fam, kind, piece, left, wave.right, speed, x, t))
    if fronts:
        fronts[-1].right = U_right
    return fronts


def rows_for(fronts):
    """The tracker rows of the fronts, from their arrays, with |right| by `np.linalg.norm`."""
    return [
        f.right.tolist()
        + [f.birth_x, f.speed, f.birth_t, f.birth_x - f.speed * f.birth_t,
           float(np.linalg.norm(f.right))]
        + np.abs(f.right - f.left).tolist()
        for f in fronts
    ]


def init_fronts(jumps, U_leftmost, model, delta):
    """The fronts and rows of `fronttrack.init_from_piecewise` from public solves.

    Every jump is solved by `riemann.solve_riemann` and its fan turned into
    fronts by `fan_fronts`; a jump whose fan is empty emits nothing and the
    next solve starts from the last emitted state.
    """
    st = ft.TrackerState(params=ft.TrackerParams(model=model, delta=delta), time=0.0,
                         fronts=[], left_boundary_state=U_leftmost)
    fronts = []
    current = U_leftmost
    for x, U in jumps:
        new = fan_fronts(st, rm.solve_riemann(current, U, model), U, float(x), 0.0, len(fronts))
        if new:
            current = U
        fronts += new
    return fronts, rows_for(fronts)


def solved_event(st, candidate):
    """The outgoing fronts, their rows and the `CollisionEvent` of a solved collision.

    The colliding fronts' outer states are solved by `riemann.solve_riemann`,
    turned into fronts by `fan_fronts` and into rows by `rows_for`.  The
    uids are drawn from st and given back, so the tracker's own resolve of
    the same candidate draws the same ones.
    """
    start, stop = candidate.indices[0], candidate.indices[-1] + 1
    incoming = st.fronts[start:stop]
    x, t = candidate.position, candidate.time
    next_uid = st._next_uid
    fan = rm.solve_riemann(incoming[0].left, incoming[-1].right, st.params.model)
    fronts = fan_fronts(st, fan, incoming[-1].right, x, t, len(st.fronts) - len(incoming))
    st._next_uid = next_uid
    families = sorted(f.family for f in incoming)
    classification = {(2, 2): "22", (1, 2): "12", (2, 3): "23"}.get(tuple(families), "other")
    event = ft.CollisionEvent(
        len(st.event_log), t, x, candidate.front_ids,
        tuple((f.family, f.strength) for f in incoming),
        tuple((f.family, f.strength, f.kind, f.speed) for f in fronts),
        classification,
    )
    return fronts, rows_for(fronts), event


def _pair_collision_time(left, right, now):
    """Meeting time of two neighbouring fronts, clamped to now; None if they never meet."""
    dv = left.speed - right.speed
    if dv <= ft.SPEED_TIE_TOL:
        return None
    b_left = left.birth_x - left.speed * left.birth_t
    b_right = right.birth_x - right.speed * right.birth_t
    t = (b_right - b_left) / dv
    if t < now - ft.TOL_EVENT:
        return None
    return max(t, now)


def next_collision_loop(st):
    """`fronttrack.next_collision` as a loop over the neighbour pairs."""
    live = []
    for i in range(len(st.fronts) - 1):
        t = _pair_collision_time(st.fronts[i], st.fronts[i + 1], st.time)
        if t is not None:
            live.append((t, i))
    if not live:
        return None
    t_min = min(t for t, _ in live)
    near = sorted(i for t, i in live if t <= t_min + ft.TOL_EVENT)
    # group adjacent pair indices into runs: i, i+1 colliding and i+1, i+2 colliding
    runs = [[near[0]]]
    for i in near[1:]:
        if i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    # leftmost run by collision position
    best = None
    for run in runs:
        x = st.fronts[run[0]].position(t_min)
        if best is None or x < best[0]:
            best = (x, run)
    x, run = best
    indices = tuple(range(run[0], run[-1] + 2))
    return ft.CollisionCandidate(
        time=t_min,
        position=x,
        front_ids=tuple(st.fronts[i].uid for i in indices),
        indices=indices,
    )


def l1_distance(st_a, st_b):
    """Exact L1 distance of two tracker solutions at their common time.

    Both are piecewise constant: the boundary state left of the first front
    and each front's right state up to the next front.  The two position
    lists are merged (each in its own front order) and
    (|du| + |dv| + |dw|) x length is summed over the intervals between
    consecutive positions, with no grid.  Outside the merged hull both must
    hold the same states.
    """
    assert st_a.time == st_b.time
    current = [st_a.left_boundary_state, st_b.left_boundary_state]
    far = [st.fronts[-1].right if st.fronts else st.left_boundary_state for st in (st_a, st_b)]
    assert np.array_equal(*current) and np.array_equal(*far)
    merged = heapq.merge(
        *[[(x, side, f.right) for x, f in zip(st.positions(), st.fronts)]
          for side, st in enumerate((st_a, st_b))],
        key=lambda entry: entry[0],
    )
    total, x_prev = 0.0, None
    for x, side, state in merged:
        if x_prev is not None:
            total += (x - x_prev) * float(np.abs(current[0] - current[1]).sum())
        current[side], x_prev = state, x
    return total
