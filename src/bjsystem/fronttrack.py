"""Event-driven wave front tracking for piecewise-constant data.

Fronts are straight lines in the (x, t) plane carrying one elementary wave
each.  Rarefactions are discretized into pieces of strength at most delta,
each moving at the characteristic speed of its left edge.  Front
trajectories are stored as (birth position, birth time, speed) so
intersection times come from the exact linear motion rather than mutated
positions.  A tracker holds at most MAX_FRONTS live fronts: a wave whose
fronts, a rarefaction's pieces or one shock or contact front, would take the
fronts already live or emitted past that limit is refused before any of its
fronts is built.

A collision is resolved with the exact Riemann solver.  The solver's core,
`riemann._solve_fan`, returns the fan as Python floats, and `_solved_fronts`
builds each front and its row from them, one array per new interior state,
without the public `Wave` and `RiemannFan`.  The exception is a 3-front
meeting a 1-front and nothing else: at a fixed v both outer wave curves are
straight lines, r1 = (1, 0, v) moving only alpha and
r3 = (1, 0, v - 2) moving only beta in the line coordinates of `flux`, so
the two waves pass through each other with unchanged strengths.  Since
lambda_1 depends only on alpha and lambda_3 only on beta, their speeds are
unchanged in exact arithmetic as well, for shocks, for eta = 0 contacts and
for rarefaction pieces, which move at the speed of their left edge.  So the
crossing keeps each front's family, kind, strength and speed and computes
only the new middle state U_L + (U_R - U_M), in Python floats, and the two
outgoing rows, without a Riemann solve or a gather of rows from the fronts.

Besides the list of live fronts, a `TrackerState` keeps a list of rows for
them, `_rows`, in the order of the list: one list of 11 Python floats per
front.  The entries of a front's row are its right state (0:3), birth_x,
speed, birth_t, the intercept birth_x - speed * birth_t, |right|
(`flux._norm`, the bits of `np.linalg.norm`) and |right - left| (8:11).
The rows hold each state once: a row's left state is the previous row's
right state, or the boundary state for the first row.  The column constants
below and `_row`, the only code that writes a row, are the only code that
knows this layout.
Next to the rows the state keeps running totals of them: the total
variation, the two sums over neighbour pairs whose combination P + Q t is
the hull integral (see `observables`) and the max |right|; and `_meet`, the
n - 1 meeting times of the neighbour pairs as Python floats, which
`next_collision` reads instead of gathering from every front at every
event.  `_splice` is the one place that changes the front list:
`init_from_piecewise` and `resolve_collision` replace fronts, rows, the
totals' terms and meeting times through it, with rows only for the new
fronts (made with them by the caller: `_cross` or `_solved_fronts`) and
terms and meeting times only for the rows next to the splice,
and `observables` reads the totals in O(1).  So an event costs O(k) Python
work for k fronts in and out, observables included.  What still grows with
the front count is `next_collision`'s `min` over `_meet` and its scan to the
first near pair, the list slice assignments that move the rows and meeting
times after the splice when the front count changes, and a pass over the
norms when the front holding the max leaves.  A hand-built state, a new list
assigned to `st.fronts` or a change of its length makes the next reader
rebuild the rows, their totals and their meeting times.  A front edited in
place elsewhere, or one put in the list in place of another, is picked up
only after `st.fronts` is assigned a new list.  The first front's left state
is the boundary state array, so editing that array in place is such an edit
for the first jump; `observables` reads the boundary state itself afresh at
every call.

A standalone scalar tracker for the decoupled v-component (flux v^2) serves
as an independent oracle: 2-shock speeds are v_left + v_right for every eta,
and the system's fronts carry that speed bit for bit, so the v-projection of
the system run must reproduce it exactly.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, HyperbolicityError, TrackerEventError
from . import wavecurves as wc
from .flux import ModelParams, _norm, _ordered_eigen, as_state, check_in_ball
from .flux import flux as flux_fn
from .riemann import RAREFACTION, _solve_fan
# bound only for the bench tracer, which wraps them here (ROADMAP item 17)
from .flux import eigenvalues  # noqa: F401
from .riemann import solve_riemann  # noqa: F401

DELTA_DEFAULT = 1e-3
MAX_EVENTS = 10000
TOL_EVENT = 1e-12
SPEED_TIE_TOL = 1e-14
# most live fronts of a run, and so most pieces of one rarefaction (see `_piece_count`)
MAX_FRONTS = 100_000


@dataclass(slots=True)
class Front:
    """One propagating discontinuity (or rarefaction piece)."""

    uid: int
    family: int
    kind: str
    strength: float
    left: np.ndarray
    right: np.ndarray
    speed: float
    birth_x: float
    birth_t: float
    death_t: float | None = None

    def position(self, t: float) -> float:
        return _position(self.birth_x, self.speed, self.birth_t, t)


def _position(birth_x, speed, birth_t, t):
    """Position at time t on the line of a front born at (birth_x, birth_t)."""
    return birth_x + speed * (t - birth_t)


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    index: int
    time: float
    position: float
    incoming_ids: tuple
    incoming: tuple  # (family, strength) pairs
    outgoing: tuple  # (family, strength, kind, speed) tuples
    classification: str


@dataclass(frozen=True)
class TrackerParams:
    model: ModelParams
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        _check_delta(self.delta)


def _check_delta(delta: float) -> None:
    """Raise DomainError unless the rarefaction piece size is finite and positive."""
    if not delta > 0.0:
        raise DomainError(f"rarefaction piece size delta must be positive, got {delta}")
    if delta == np.inf:
        raise DomainError(f"rarefaction piece size delta must be finite, got {delta}")


@dataclass
class TrackerState:
    params: TrackerParams
    time: float
    fronts: list
    left_boundary_state: np.ndarray
    event_log: list = field(default_factory=list)
    dead_fronts: list = field(default_factory=list)
    truncated: bool = False
    _next_uid: int = 0
    # the rows of `_rows_for` for the fronts of `_rows_of`, kept by `_splice`
    _rows: list | None = field(default=None, repr=False, compare=False)
    _rows_of: list | None = field(default=None, repr=False, compare=False)
    # running totals of the `_rows`, kept by `_splice` (see `_range_terms`):
    # the total variation, P and Q (3 Python floats each) and the max |right|
    _totals: list | None = field(default=None, repr=False, compare=False)
    _max_norm: float = field(default=-np.inf, repr=False, compare=False)
    # the n - 1 meeting times of the neighbour pairs of `_rows` (see `_meet_times`),
    # kept by `_splice`
    _meet: list | None = field(default=None, repr=False, compare=False)

    def new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def positions(self, t: float | None = None) -> list:
        t = self.time if t is None else t
        return [f.position(t) for f in self.fronts]


@dataclass(frozen=True, slots=True)
class ObservableRecord:
    time: float
    n_events: int
    n_fronts: int
    total_variation: tuple
    max_state_norm: float
    integrals: tuple
    balance: tuple


def _piece_count(strength: float, delta: float, family: int, n_fronts: int,
                 kind: str = RAREFACTION) -> int:
    """How many fronts one wave of `kind` becomes, next to n_fronts other live fronts.

    A rarefaction becomes ceil(|strength| / delta) pieces, at least 1, and a
    shock or contact one front.  Raises DomainError, before any front is
    built, when they and the n_fronts fronts already live or emitted would
    be more than MAX_FRONTS.
    """
    n_pieces = np.ceil(abs(strength) / delta) if kind == RAREFACTION else 1
    if n_fronts + n_pieces > MAX_FRONTS:
        need = f"{n_pieces:.3g} pieces of size delta = {delta!r}" if n_pieces > 1 else "1 front"
        raise DomainError(
            f"a {family}-{kind} of strength {strength!r} needs {need}, which with the "
            f"{n_fronts} fronts already live or emitted is more than the {MAX_FRONTS} fronts "
            f"a run may hold"
        )
    return max(1, int(n_pieces))


def _emit_fronts(st: TrackerState, wave: tuple, left: tuple, right: tuple, x: float, t: float,
                 n_fronts: int) -> tuple:
    """The fronts of one solved wave born at (x, t), next to n_fronts other live fronts.

    `wave` is (family, kind, strength, right state, speed) from
    `riemann._solve_fan`; `left` and `right` are its end states as
    (array, three floats, |state| by `_norm`).  A shock or contact is one
    front at the wave's speed.  A rarefaction is split into
    ceil(|s| / delta) pieces of equal strength (`_piece_count`), each moving
    at the family's eigenvalue at its left edge.  Each piece is integrated
    from the right state of the piece before it, and the last piece ends on
    `right` exactly.  The first piece takes the speed at the wave's left
    edge, so eigenvalues are computed at the interior edges only.  Returns
    the fronts and their rows.
    """
    fam, kind, strength, _, speed = wave
    n_pieces = _piece_count(strength, st.params.delta, fam, n_fronts, kind)
    if kind != RAREFACTION:
        return ([Front(st.new_uid(), fam, kind, strength, left[0], right[0], speed, x, t)],
                [_row(left[1], right[1], x, speed, t, right[2])])
    model = st.params.model
    piece = strength / n_pieces
    fronts, rows = [], []
    speed = speed[0]
    for _ in range(n_pieces - 1):
        U = wc.rarefaction(fam, left[0], piece, model).state
        edge = (U, U.tolist(), _norm(U))
        fronts.append(Front(st.new_uid(), fam, kind, piece, left[0], U, speed, x, t))
        rows.append(_row(left[1], edge[1], x, speed, t, edge[2]))
        left, speed = edge, _ordered_eigen(*edge[1], model.eta)[fam - 1]
    fronts.append(Front(st.new_uid(), fam, kind, piece, left[0], right[0], speed, x, t))
    rows.append(_row(left[1], right[1], x, speed, t, right[2]))
    return fronts, rows


def _solved_fronts(st: TrackerState, U_left: np.ndarray, last: tuple, x: float, t: float,
                   n_fronts: int) -> tuple:
    """The fronts and rows of the Riemann fan from U_left to the state `last`, born at (x, t).

    `last` is the right state as (array, three floats, |state|), which the
    caller holds.  The fan comes from `riemann._solve_fan` as Python floats,
    and each of its interior states becomes one array.  The last front ends on
    `last` itself: pinning the outermost state keeps the front chain exact,
    as the solver residual (~1e-16) moves into the last jump.  n_fronts
    other fronts stay live beside them, which `_piece_count` counts against
    MAX_FRONTS with the fronts of the waves before.
    """
    waves = _solve_fan(U_left, last[0], st.params.model)[0]
    fronts, rows = [], []
    left = (U_left, U_left.tolist(), None)
    for k, wave in enumerate(waves):
        if k == len(waves) - 1:
            right = last
        else:
            U = np.array(wave[3])
            right = (U, wave[3], _norm(U))
        new_fronts, new_rows = _emit_fronts(st, wave, left, right, x, t, n_fronts + len(fronts))
        fronts += new_fronts
        rows += new_rows
        left = right
    return fronts, rows


def _check_positions(jumps) -> None:
    """Raise DomainError unless the jump positions are finite and strictly increasing."""
    xs = [float(x) for x, _ in jumps]
    if not (np.isfinite(xs).all() and all(a < b for a, b in zip(xs, xs[1:]))):
        raise DomainError(f"jump positions must be finite and strictly increasing, got {xs}")


def init_from_piecewise(
    jumps,
    U_leftmost,
    model: ModelParams,
    delta: float = DELTA_DEFAULT,
) -> TrackerState:
    """Build a tracker from jump positions and the states to their right.

    Every jump is resolved with the exact Riemann solver at t = 0.  States
    between fronts of one fan are the solver's composed states, and each
    fan's outermost state is pinned back to the given datum, so the front
    chain is exactly consistent with the input data.  A jump whose fan is
    empty (every wave at most TOL_ZERO) emits nothing, and the next fan
    starts from the last emitted state, so it absorbs the dropped jump.
    Each front's row is built with it, from the solver's floats, and all
    are spliced into the new state at once.  The positions must be finite
    and strictly increasing, and every state must lie in the unit ball
    |U| < 1 (DomainError before any solve).
    """
    U_leftmost = as_state(U_leftmost)
    _check_positions(jumps)
    jumps = [(x, as_state(U)) for x, U in jumps]
    check_in_ball("u_left", U_leftmost)
    for k, (x, U) in enumerate(jumps):
        check_in_ball(f"state of jump {k} (x={x})", U)
    st = TrackerState(
        params=TrackerParams(model=model, delta=delta),
        time=0.0,
        fronts=[],
        left_boundary_state=U_leftmost,
    )
    fronts, rows = [], []
    current = U_leftmost
    for k, (x, U) in enumerate(jumps):
        try:
            new_fronts, new_rows = _solved_fronts(st, current, (U, U.tolist(), _norm(U)),
                                                  float(x), 0.0, len(fronts))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"initialization failed at jump {k} (x={x}): {exc}",
                iterate=exc.iterate,
                residual=exc.residual,
            ) from exc
        if new_fronts:
            current = U
        fronts += new_fronts
        rows += new_rows
    _splice(st, 0, 0, fronts, rows)
    return st


@dataclass(frozen=True)
class CollisionCandidate:
    time: float
    position: float
    front_ids: tuple
    indices: tuple


def next_collision(st: TrackerState) -> CollisionCandidate | None:
    """Earliest upcoming collision, with hits within TOL_EVENT at one point merged.

    The meeting times of all neighbour pairs are the kept list `_meet`
    (see `_meet_times`): a pair meets at
    (b_right - b_left) / (speed_left - speed_right), with
    b = birth_x - speed * birth_t, if the left front is faster by more than
    SPEED_TIE_TOL.  One `min` over the list gives the earliest; only if it
    lies more than TOL_EVENT in the past are such past meetings dropped, on a
    copy, and the min taken again.  A meeting less than TOL_EVENT in the past
    happens now.  Ties at distinct positions resolve in list order, which is
    the spatial order: the first run of adjacent colliding pairs, those
    within TOL_EVENT of the earliest time, wins.  A
    candidate of just a 3-front and a 1-front is a crossing that
    `resolve_collision` passes through without a Riemann solve; a third front
    meeting at the same point makes it a general collision.
    """
    fronts = st.fronts
    if len(fronts) < 2:
        return None
    _front_rows(st)
    times = st._meet
    t_min = min(times)
    past = st.time - TOL_EVENT
    if t_min < past:
        times = [np.inf if t < past else t for t in times]
        t_min = min(times)
    if t_min == np.inf:
        return None
    t_min = max(t_min, st.time)
    near = t_min + TOL_EVENT
    # the first run of adjacent pairs (i, i+1 colliding and i+1, i+2 colliding) is the leftmost
    first = last = next(i for i, t in enumerate(times) if t <= near)
    while last + 1 < len(times) and times[last + 1] <= near:
        last += 1
    indices = tuple(range(first, last + 2))
    return CollisionCandidate(
        time=t_min,
        position=fronts[first].position(t_min),
        front_ids=tuple(fronts[i].uid for i in indices),
        indices=indices,
    )


# the class of an event by the families of its incoming fronts; any other event is "other"
_EVENT_CLASSES = {(2, 2): "22", (1, 2): "12", (2, 1): "12", (2, 3): "23", (3, 2): "23"}


def resolve_collision(st: TrackerState, candidate: CollisionCandidate) -> TrackerState:
    """Replace the colliding fronts with the fan of the outer states.

    Exactly two incoming fronts, of family 3 then family 1, pass through
    each other (see the module docstring): `_cross` returns the two outgoing
    fronts and their rows without a Riemann solve.  Every other collision is
    solved by `_solved_fronts`, which builds the fronts and rows of the fan
    from the solver's floats and ends it on the kept right state and its
    kept norm.  In both cases the left state is kept and the right
    neighbour's left state stays exactly shared across the event; one
    `_splice` puts the outgoing fronts and their rows in place of the
    incoming ones, and one `CollisionEvent` records both kinds of event from
    the incoming and outgoing fronts (a crossing is classified "other").
    """
    indices = candidate.indices
    start, stop = indices[0], indices[-1] + 1
    incoming = st.fronts[start:stop]
    x, t = candidate.position, candidate.time
    families = [f.family for f in incoming]
    if families == [3, 1]:
        new_fronts, new_rows = _cross(st, start, *incoming, x, t)
    else:
        row = _front_rows(st)[stop - 1]
        last = (incoming[-1].right, row[_RIGHT], row[_NORM])
        new_fronts, new_rows = _solved_fronts(st, incoming[0].left, last, x, t,
                                              len(st.fronts) - len(incoming))
    _splice(st, start, stop, new_fronts, new_rows)
    for f in incoming:
        f.death_t = t
    st.dead_fronts.extend(incoming)
    st.time = t
    st.event_log.append(CollisionEvent(
        len(st.event_log), t, x, candidate.front_ids,
        tuple([(f.family, f.strength) for f in incoming]),
        tuple([(f.family, f.strength, f.kind, f.speed) for f in new_fronts]),
        _EVENT_CLASSES.get(tuple(families), "other"),
    ))
    return st


def _cross(st: TrackerState, i: int, f3: Front, f1: Front, x: float, t: float) -> tuple:
    """The two fronts and rows that pass f3 = st.fronts[i] and f1 = st.fronts[i + 1] at (x, t).

    With U_L -> U_M -> U_R the incoming states, read with `tolist` from the
    fronts' arrays, only U_M' = U_L + (U_R - U_M) is computed, in the Python
    floats that give the bits of the numpy expression.  The outgoing 1-front
    and 3-front keep the family, kind, strength and speed of the incoming one
    of their family (see the module docstring); the 1-front keeps U_L's
    array and the 3-front U_R's, and they share one new array for U_M'.
    Their rows come from `_row`: |U_M'| is `_norm` of the new array and the
    3-front's |U_R| is the 1-front's kept norm.  Returns
    ([1-front, 3-front], their rows) for `_splice`.
    """
    lu, lv, lw = left = f3.left.tolist()
    mu, mv, mw = f1.left.tolist()
    ru, rv, rw = right = f1.right.tolist()
    mid = [lu + (ru - mu), lv + (rv - mv), lw + (rw - mw)]
    U_mid = np.array(mid)
    f1_out = Front(st.new_uid(), f1.family, f1.kind, f1.strength, f3.left, U_mid, f1.speed, x, t)
    f3_out = Front(st.new_uid(), f3.family, f3.kind, f3.strength, U_mid, f1.right, f3.speed, x, t)
    return [f1_out, f3_out], [
        _row(left, mid, x, f1.speed, t, _norm(U_mid)),
        _row(mid, right, x, f3.speed, t, _front_rows(st)[i + 1][_NORM]),
    ]


# columns of a front's row in `TrackerState._rows`; the Python-float loops of
# `_range_terms` name the u, v and w columns of the right state and the jump
_RIGHT = slice(0, 3)
_RIGHT_U, _RIGHT_V, _RIGHT_W = range(3)
_BIRTH_X, _SPEED, _BIRTH_T, _INTERCEPT, _NORM = range(3, 8)
_JUMP_U, _JUMP_V, _JUMP_W = range(8, 11)


def _row(left, right, x: float, speed: float, t: float, norm: float) -> list:
    """The row of a front from `left` to `right` born at (x, t), as Python floats.

    The only code that writes a row: right, birth_x, speed, birth_t, the
    intercept, |right| and |right - left|, 11 floats.  `left` and `right`
    are three floats each and `norm` is |right| by `_norm`, which the caller
    holds.  `left` enters only the jumps: the row keeps no left state, which
    is the previous row's right state or, for the first row, the boundary
    state.  The intercept is x - speed * t and each jump is `abs` of one
    component difference: the bits of the numpy expressions.
    """
    lu, lv, lw = left
    ru, rv, rw = right
    return [ru, rv, rw, x, speed, t, x - speed * t, norm,
            abs(ru - lu), abs(rv - lv), abs(rw - lw)]


def _rows_for(fronts: list) -> list:
    """The rows of the fronts, in the columns above."""
    return [_row(f.left.tolist(), f.right.tolist(), f.birth_x, f.speed, f.birth_t, _norm(f.right))
            for f in fronts]


def _rebuild_rows(st: TrackerState) -> None:
    """Compute the rows of st.fronts, their running totals and meeting times afresh."""
    rows = _rows_for(st.fronts)
    st._rows, st._rows_of = rows, st.fronts
    st._totals, st._max_norm = _range_terms(rows, 0, len(rows))
    st._meet = _meet_times(rows)


def _front_rows(st: TrackerState) -> list:
    """The kept rows of st.fronts, in the columns of `_rows_for`.

    The rows, their totals and their meeting times are rebuilt if they were
    built for another list than st.fronts or for another length, as after a
    hand-built state or an assignment to st.fronts.
    """
    if st._rows_of is not st.fronts or len(st._rows) != len(st.fronts):
        _rebuild_rows(st)
    return st._rows


def _range_terms(block: list, start: int, stop: int) -> tuple:
    """The terms of the rows block[start:stop] in the running totals, and their max |right|.

    `block` is a list of rows as Python float lists: the range, with at most
    one neighbour row on each side (the row before it when start is 1).
    The terms are 9 Python floats: the sum of the |right - left| columns of
    the range, then P = sum (b' - b) right and Q = sum (lambda' - lambda) right
    over every adjacent pair of the block, where b is the intercept column,
    lambda the speed column and right the left row's right state, and the
    primes mark the right row.  An empty range still has the pair that
    straddles it.  The max is -inf for an empty range.
    """
    tv_u = tv_v = tv_w = p_u = p_v = p_w = q_u = q_v = q_w = 0.0
    max_norm = -np.inf
    for r in block[start:stop]:
        tv_u += r[_JUMP_U]
        tv_v += r[_JUMP_V]
        tv_w += r[_JUMP_W]
        if r[_NORM] > max_norm:
            max_norm = r[_NORM]
    for r, r_next in zip(block, block[1:]):
        db, dl = r_next[_INTERCEPT] - r[_INTERCEPT], r_next[_SPEED] - r[_SPEED]
        u, v, w = r[_RIGHT_U], r[_RIGHT_V], r[_RIGHT_W]
        p_u += db * u
        p_v += db * v
        p_w += db * w
        q_u += dl * u
        q_v += dl * v
        q_w += dl * w
    return [tv_u, tv_v, tv_w, p_u, p_v, p_w, q_u, q_v, q_w], max_norm


def _meet_times(block: list) -> list:
    """The meeting time of each adjacent pair of rows in `block`, as Python floats.

    A pair meets at (b' - b) / (lambda - lambda') when lambda - lambda' is
    above SPEED_TIE_TOL, and never (inf) otherwise, where b is the intercept
    column, lambda the speed column and the primes mark the right row: the
    operations, in their order, of the numpy expression over the columns,
    so the bits are the same.
    """
    times = []
    for r, r_next in zip(block, block[1:]):
        dv = r[_SPEED] - r_next[_SPEED]
        times.append((r_next[_INTERCEPT] - r[_INTERCEPT]) / dv if dv > SPEED_TIE_TOL else np.inf)
    return times


def _splice(st: TrackerState, start: int, stop: int, new_fronts: list, new_rows: list) -> None:
    """Replace st.fronts[start:stop] with new_fronts, their rows, totals and meeting times.

    The only code that changes the front list.  new_rows are the new
    fronts' rows from `_row`, as Python float lists.  The totals and the
    meeting times need only the block `rows[max(start - 1, 0) : stop + 1]`,
    the range with one neighbour row on each side.  One list slice
    assignment each puts the new fronts, their rows and the meeting times of
    the block's pairs (`_meet_times`) in place of the old ones, whether or
    not the front count changes.  The rows and meeting times stay bit-equal
    to what `_rebuild_rows` would compute: no pair outside the block has a
    row that changed.

    The running totals lose the `_range_terms` of the old range and gain
    those of the new one, both taken from that one block, O(k) Python float
    work; a splice of all the rows keeps only the new terms, so an emptied
    list has zero totals.  The max |right| is taken again over the rows'
    norms only when a removed row held it.
    """
    rows = _front_rows(st)
    lo = max(start - 1, 0)
    block = rows[lo : stop + 1]
    whole = start == 0 and stop == len(rows)
    old_pairs = max(len(block) - 1, 0)
    old_terms, old_max = _range_terms(block, start - lo, stop - lo)
    block[start - lo : stop - lo] = new_rows
    terms, max_norm = _range_terms(block, start - lo, start - lo + len(new_rows))
    rows[start:stop] = new_rows
    st._meet[lo : lo + old_pairs] = _meet_times(block)
    st.fronts[start:stop] = new_fronts
    if not whole:
        terms = [total - old + term for total, old, term in zip(st._totals, old_terms, terms)]
        if old_max >= st._max_norm:
            max_norm = max(r[_NORM] for r in rows)
        else:
            max_norm = max(st._max_norm, max_norm)
    st._totals, st._max_norm = terms, max_norm


@functools.lru_cache
def _flux_terms(u: float, v: float, w: float, eta: float) -> tuple:
    """(F(U) as a tuple of Python floats, |U| by `_norm`) for U = (u, v, w) at eta.

    Cached by value, so `observables` computes F(U_bg), |U_bg| and F(U_far)
    once per state and eta, and a state array edited in place gets the
    terms of its new value.  Keyed by eta rather than the `ModelParams`,
    whose hash is a Python call.
    """
    U = np.array([u, v, w])
    return tuple(flux_fn(U, ModelParams(eta)).tolist()), _norm(U)


def observables(st: TrackerState) -> ObservableRecord:
    """Front count, total variation, max |U| and conserved integrals at st.time.

    `integrals` is the hull integral of U - U_bg between the leftmost and
    rightmost front.  `balance` discounts the motion of the right hull edge
    and the exact far-field flux difference,

        balance = integrals - x_last (U_far - U_bg) + t (F(U_far) - F(U_bg)),

    which is constant in time whenever every front speed satisfies the
    Rankine-Hugoniot condition exactly.  (Shock-only profiles of this system
    cannot return to U_bg on the right: v is non-increasing across them, so
    plain compact support is unattainable and the flux correction is what the
    conservation certification checks.)

    Nothing is summed over the fronts here: `_splice` keeps running totals
    of the rows (see `_range_terms`), so a call costs O(1).  Between
    events every front moves on its line x = b + lambda t, so the hull
    integral is affine in t,

        integrals = P + Q t - U_bg (x_last - x_first),

    with P = sum (b' - b) U and Q = sum (lambda' - lambda) U over adjacent
    front pairs, U the state between them.  The totals do not depend on U_bg
    or the model, so a new boundary state needs no rebuild.  The total
    variation and max |U| are the kept total and maximum; x_first, x_last
    and U_far are read from the first and last row, and F(U_bg), |U_bg| and
    F(U_far) come from one cache keyed by value (`_flux_terms`).  The
    sums are added in event order rather than front order, so the total
    variation, integrals and balance differ from a loop over the fronts in
    the last bits; the max is exact.
    """
    rows = _front_rows(st)
    eta, t = st.params.model.eta, st.time
    ub, vb, wb = st.left_boundary_state.tolist()
    (fb_u, fb_v, fb_w), bg_norm = _flux_terms(ub, vb, wb, eta)
    tv_u, tv_v, tv_w, p_u, p_v, p_w, q_u, q_v, q_w = st._totals
    if st.fronts:
        first, last = rows[0], rows[-1]
        x_first = _position(first[_BIRTH_X], first[_SPEED], first[_BIRTH_T], t)
        x_last = _position(last[_BIRTH_X], last[_SPEED], last[_BIRTH_T], t)
        width = x_last - x_first
        int_u = p_u + q_u * t - ub * width
        int_v = p_v + q_v * t - vb * width
        int_w = p_w + q_w * t - wb * width
        uf, vf, wf = last[_RIGHT]
        ff_u, ff_v, ff_w = _flux_terms(uf, vf, wf, eta)[0]
        bal_u = int_u - x_last * (uf - ub) + t * (ff_u - fb_u)
        bal_v = int_v - x_last * (vf - vb) + t * (ff_v - fb_v)
        bal_w = int_w - x_last * (wf - wb) + t * (ff_w - fb_w)
    else:
        int_u = int_v = int_w = bal_u = bal_v = bal_w = 0.0
    f64 = np.float64
    return ObservableRecord(
        time=t,
        n_events=len(st.event_log),
        n_fronts=len(st.fronts),
        total_variation=(f64(tv_u), f64(tv_v), f64(tv_w)),
        max_state_norm=max(bg_norm, st._max_norm),
        integrals=(f64(int_u), f64(int_v), f64(int_w)),
        balance=(f64(bal_u), f64(bal_v), f64(bal_w)),
    )


def run(st: TrackerState, t_end: float, max_events: int = MAX_EVENTS):
    """Advance event by event until t_end, recording observables after each.

    Exceeding max_events sets st.truncated instead of raising.  A
    ConvergenceError, HyperbolicityError or DomainError (such as an event past
    MAX_FRONTS) while resolving an event is raised as a TrackerEventError
    that names the event, chains the cause and carries the series up to the
    last completed event; st.fronts and st.event_log are left as that event
    left them.  t_end must be finite and exceed st.time.
    """
    if not np.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    if t_end <= st.time:
        raise DomainError(f"t_end must exceed the current time {st.time}, got {t_end}")
    if max_events < 0:
        raise DomainError(f"max_events must be >= 0, got {max_events}")
    series = [observables(st)]
    while True:
        if len(st.event_log) >= max_events:
            st.truncated = True
            break
        candidate = next_collision(st)
        if candidate is None or candidate.time > t_end:
            st.time = t_end
            break
        try:
            resolve_collision(st, candidate)
        except (ConvergenceError, HyperbolicityError, DomainError) as exc:
            raise TrackerEventError(
                f"event {len(st.event_log)} at t={candidate.time!r}, x={candidate.position!r}, "
                f"fronts {candidate.front_ids} failed: {exc}",
                time=candidate.time,
                position=candidate.position,
                incoming_ids=candidate.front_ids,
                series=series,
            ) from exc
        series.append(observables(st))
    return st, series


# ---------------------------------------------------------------------------
# scalar oracle for the decoupled v-component (flux v^2)


@dataclass
class ScalarFront:
    uid: int
    speed: float
    v_left: float
    v_right: float
    birth_x: float
    birth_t: float
    death_t: float | None = None

    def position(self, t: float) -> float:
        return _position(self.birth_x, self.speed, self.birth_t, t)


@dataclass
class BurgersTrajectory:
    fronts: list
    all_fronts: list
    event_times: list
    time: float

    def fronts_at(self, t: float) -> list:
        """(position, v_left, v_right) of fronts alive just after time t."""
        out = [
            (f.position(t), f.v_left, f.v_right)
            for f in self.all_fronts
            if f.birth_t <= t and (f.death_t is None or f.death_t > t)
        ]
        return sorted(out)


def _scalar_fronts(uid_start, v_left, v_right, x, t, delta, n_fronts):
    """Fronts for a single scalar jump: shock if decreasing, else split fan.

    A fan's pieces and the n_fronts other live fronts count against MAX_FRONTS
    (`_piece_count`); a scalar shock never adds to the count.
    """
    fronts = []
    uid = uid_start
    if v_left > v_right:
        fronts.append(
            ScalarFront(uid, v_left + v_right, v_left, v_right, x, t)
        )
        uid += 1
    elif v_left < v_right:
        n = _piece_count(v_right - v_left, delta, 2, n_fronts)
        step = (v_right - v_left) / n
        for k in range(n):
            a = v_left + k * step
            b = v_right if k == n - 1 else a + step
            fronts.append(ScalarFront(uid, 2.0 * a, a, b, x, t))
            uid += 1
    return fronts, uid


def _scalar_meeting_time(a: ScalarFront, b: ScalarFront) -> float | None:
    """When neighbours a and b meet: None unless a is faster by more than SPEED_TIE_TOL."""
    dv = a.speed - b.speed
    if dv <= SPEED_TIE_TOL:
        return None
    return ((b.birth_x - b.speed * b.birth_t) - (a.birth_x - a.speed * a.birth_t)) / dv


def burgers_oracle(
    v_leftmost: float,
    jumps,
    t_end: float,
    delta: float = DELTA_DEFAULT,
) -> BurgersTrajectory:
    """Independent exact front tracking for v_t + (v^2)_x = 0.

    `jumps` lists (x, v) with the value to the right of each position; shocks
    move at v_left + v_right, rarefactions are split with the same delta rule
    and front limit as the system tracker.  It stops after MAX_EVENTS events.
    t_end must be finite and above 0, and delta above 0.
    """
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be finite and above 0, got {t_end}")
    _check_delta(delta)
    _check_positions(jumps)
    fronts = []
    all_fronts = []
    uid = 0
    current = float(v_leftmost)
    for x, v in jumps:
        new, uid = _scalar_fronts(uid, current, float(v), float(x), 0.0, delta, len(fronts))
        fronts.extend(new)
        all_fronts.extend(new)
        current = float(v)
    time = 0.0
    event_times = []
    while len(event_times) < MAX_EVENTS:
        best = None
        for i in range(len(fronts) - 1):
            t = _scalar_meeting_time(fronts[i], fronts[i + 1])
            if t is None or t < time - TOL_EVENT:
                continue
            t = max(t, time)
            if best is None or t < best[0] - TOL_EVENT or (
                abs(t - best[0]) <= TOL_EVENT and fronts[i].position(t) < best[1]
            ):
                best = (t, fronts[i].position(t), i)
        if best is None or best[0] > t_end:
            time = t_end
            break
        t, x, i = best
        # absorb any chain of simultaneous hits at the same point
        j = i + 1
        while j + 1 < len(fronts):
            t_next = _scalar_meeting_time(fronts[j], fronts[j + 1])
            if t_next is not None and abs(t_next - t) <= TOL_EVENT:
                j += 1
            else:
                break
        incoming = fronts[i : j + 1]
        for f in incoming:
            f.death_t = t
        new, uid = _scalar_fronts(uid, incoming[0].v_left, incoming[-1].v_right, x, t, delta,
                                  len(fronts) - len(incoming))
        all_fronts.extend(new)
        fronts[i : j + 1] = new
        time = t
        event_times.append(t)
    return BurgersTrajectory(
        fronts=fronts, all_fronts=all_fronts, event_times=event_times, time=time
    )
