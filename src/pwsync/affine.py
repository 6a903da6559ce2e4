"""RK4's exact step on an affine system in row-state form, and the step
forms of the integrator built from it.

On x' = x·Jᵀ + f(t), with states as rows, one classical RK4 step is
affine: x_{k+1} = x_k·M + g_k, with M = R(dt·Jᵀ) RK4's stability function
and g_k the step's forcing row.  These helpers build M and the stage
matrices beside it, the weights by which a term entering one stage
reaches the next state and the later stages, and the forcing rows of a
block of steps, each from a few batched products.

A run of :func:`pwsync.sim.integrate_gains` adds to x·Jᵀ its time-only
forcing and its stage triples kernel(x @ G) @ S (:mod:`pwsync.sparse`).
:func:`choose_step` picks its step, per member and step, among three
forms:

- Region steps (:class:`_Regions`).  When every triple kernel declares
  affine pieces (the boundary-layer sign, Chua's knee, pws inside
  |z| ≤ 1), there is no hand-built field, and the triples are dense or
  N·dim times the batch size is at most ``_STATE_SPACE``, a member inside
  one region (every gather entry in one piece) takes RK4's step exactly:
  one product with its region's M = R(dt·J_rᵀ), built when its region
  changes, plus the step's forcing row.  A run of one member makes both
  calls from an op list built once per run, a 2-D product into a buffer
  row and a 1-D add (about 0.5 µs each at relay5's size, against 2.3 µs
  for the views, 3-D product and in-place add of a batch's step); a
  batch takes one product per member.  Region steps go in passes, whose
  stage gathers are checked once, when the pass ends: up to a block while
  every member is inside (one step for the node-by-node form), the length
  doubling after a pass that held.  Over an edge list the spread of the
  stage states over the nodes clears a pass, and only the steps it does
  not clear have their edges checked, one step at a time.  Any other
  member takes the four stages, evaluated for the whole batch.  A run
  with no triple is one region.
- The chained step (:class:`_Chained`), for a run with no region step
  whose triples are dense, with no hand-built field and N·dim times the
  batch size at most ``_STATE_SPACE`` (sin coupling, the hard sign): a
  block of steps per call, each step owning one column of a buffer, whose
  four products and the kernels, run in place on that column, carry it to
  the next.
- RK4's four stages, which :mod:`pwsync.sim` evaluates, for any other run.

The steps agree to rounding (region steps and the four stages about
1e-13 relative over the 15 000 steps of ikeda10-linear, 3.4e-14 of
max|x| on relay5, 2e-16 on ikeda100-pws; the chained step and the four
stages 5.5e-14 of max|x| over kuramoto4's first 2000 steps at one gain or
six, 2.1e-12 over its 40 000, and 1.9e-13 on relay5 with the hard sign at
six gains, seeds 0-2), and so do the dense and the edge-list form of a
triple.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat

import numpy as np

from .sparse import Incidence, sparse_parts, summed

__all__ = ["BLOCK", "affine_step", "stage_weights", "forcing_weights", "affine_forcing",
           "stage_forcing", "choose_step"]

BLOCK = 64  # most steps per table of time-only terms
# most N·dim times the batch size of a run whose node-by-node or edge-list
# triples take region steps: past it the step [M_r | P₂ | P₃ | P₄] and its
# rebuilds cost more than the four stages (the measured crossover); past it
# too, a dense run takes the four stages instead of the chained step, and
# a region is built only once it holds for a block (see :class:`_Chained`
# and :class:`_Regions`).  At one gain on relay nets with the hard sign the
# chained step breaks even with the four stages at about 230 states (225:
# 39-48 against 41-49 ms for 400 steps; 240: 52-55 against 41-46 ms), the
# step it replaced at about 215 on the same host
_STATE_SPACE = 256


def affine_step(jac_t, dt: float, gather):
    """RK4 on x' = x·Jᵀ + f(t) (row states) is exactly affine: with
    A = dt·Jᵀ, x_{k+1} = x_k·M + g_k, where M = I + A + A²/2 + A³/6 + A⁴/24
    is RK4's stability function R(A) and g_k the step's forcing row
    (:func:`affine_forcing`, :func:`stage_forcing`).  The four stage
    states are x_k·Pᵢ plus their own forcing terms, P₁ = I, P₂ = I + A/2,
    P₃ = I + A/2 + A²/4 and P₄ = I + A + A²/2 + A³/4.

    Returns the step [M | P₂G | P₃G | P₄G | G] (B, n, n + 4K) for a dense
    gather G (n, K), whose product with x_k is x_{k+1} and the gathers X·G
    of the four stage states before forcing (stage 1's last: it carries no
    forcing).  For ``gather`` None it returns the step [M | P₂ | P₃ | P₄]
    (B, n, 4n) of the next state and the stage states themselves.  Every
    polynomial is in Horner form, so no power of A is kept."""
    a = dt * jac_t
    eye = np.eye(a.shape[-1])
    m = eye + a / 4.0
    m = eye + a @ m / 3.0
    m = eye + a @ m / 2.0
    m = eye + a @ m
    if gather is None:
        p2 = eye + a / 2.0
        p3 = eye + a @ p2 / 2.0
        return np.concatenate([m, p2, p3, eye + a @ p3], axis=-1)
    gather = np.broadcast_to(gather, a.shape[:-1] + gather.shape[-1:])
    p2 = gather + a @ gather / 2.0
    p3 = gather + a @ p2 / 2.0
    return np.concatenate([m, p2, p3, gather + a @ p3, gather], axis=-1)


def stage_weights(a, dt: float, gather):
    """RK4's response on x' = x·Jᵀ + u (row states, A = dt·Jᵀ) to a term u
    that enters stage r alone, r = 1, …, 4: the weights W_r (B, n, n + 3K)
    by which u reaches x_{k+1} and the gathers X₂G, X₃G, X₄G of the later
    stages (stage 4's (B, n, n): it reaches x_{k+1} alone).  Stage 1's
    term reaches x_{k+1} through dt/6·(I + A + A²/2 + A³/4) and X₂, X₃, X₄
    through dt/2·I, dt/4·A, dt/4·A²; stage 2's through dt/6·(2I + A +
    A²/2) and X₃, X₄ through dt/2·I, dt/2·A; stage 3's through dt/6·(2I +
    A) and X₄ through dt·I; stage 4's through dt/6·I.  The forcing f_k
    enters stage 1, f_{k+½} stages 2 and 3 and f_{k+1} stage 4
    (:func:`affine_forcing`); a dense triple's kernel output enters the
    stage whose gather it reads, through S·W_r (:class:`_Chained`)."""
    eye = np.eye(a.shape[-1])
    gather = np.broadcast_to(gather, a.shape[:-1] + gather.shape[-1:])
    ag, zero, sixth = a @ gather, np.zeros(gather.shape), dt / 6.0
    first = eye + a @ (eye + a @ (0.5 * eye + a / 4.0))
    second = 2.0 * eye + a @ (eye + a / 2.0)
    third = 2.0 * eye + a
    return [np.concatenate(blocks, axis=-1) for blocks in (
        [sixth * first, 0.5 * dt * gather, 0.25 * dt * ag, 0.25 * dt * (a @ ag)],
        [sixth * second, zero, 0.5 * dt * gather, 0.5 * dt * ag],
        [sixth * third, zero, zero, dt * gather])] + [np.broadcast_to(sixth * eye, a.shape)]


def forcing_weights(weights):
    """The weights of f_k and f_{k+½} in the first n + 3K columns of the
    step [M | P₂G | P₃G | P₄G | G], (B, 2, n, n + 3K): W₁ and W₂ + W₃ of
    :func:`stage_weights` (f_{k+1} adds dt/6·f to x_{k+1})."""
    first, second, third, _ = weights
    return np.stack([first, second + third], axis=1)


def affine_forcing(f, weights, sixth: float):
    """The forcing rows of the step [M | P₂G | P₃G | P₄G | G] for a block
    of m steps, g_j = f_j·W₁ + f_{j+½}·(W₂ + W₃) + f_{j+1}·dt/6 in its
    first n columns and the forcing of stages 2-4's gathers in the next
    3K, with f the forcing rows (B, 2m + 1, n) at the block's stage times
    and ``weights`` those of :func:`forcing_weights`: shape (B, m, 1, n +
    3K), two batched products per block."""
    g = f[:, :-1:2] @ weights[:, 0]
    g += f[:, 1::2] @ weights[:, 1]
    g[..., :f.shape[-1]] += sixth * f[:, 2::2]
    return g[:, :, None]


def stage_forcing(f, jac_t, dt: float, gather=None):
    """The forcing rows of the step (:func:`affine_step`) for a block of m
    steps: RK4's stages on x' = x·Jᵀ + f(t) from x = 0, with f the forcing
    rows (B, 2m + 1, n) at the block's stage times.  Returns g_j, the
    forcing of x_{j+1}, then that of stages 2-4, their states or, with a
    dense gather G (n, K), their gathers: shape (B, m, 1, 4n) or (B, m, 1,
    n + 3K), from three or four batched products per block and no
    weights."""
    half, f_half = 0.5 * dt, f[:, 1::2]
    k1 = f[:, :-1:2]
    x2 = half * k1
    k2 = x2 @ jac_t + f_half
    x3 = half * k2
    k3 = x3 @ jac_t + f_half
    x4 = dt * k3
    k4 = x4 @ jac_t + f[:, 2::2]
    stages = np.stack([x2, x3, x4], axis=-2)
    if gather is not None:
        stages = stages @ gather
    g = dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return np.concatenate([g, stages.reshape(g.shape[:2] + (-1,))], axis=-1)[:, :, None]


def choose_step(jac_t, terms, hand_built: bool, batch: int, size: int, dt: float, forced: bool,
                steps: int):
    """The step form of a run (see the module docstring): (regions, None)
    for region steps, (None, chained) for the chained step and (None,
    None) for the four stages.  ``jac_t`` is the linear part (None if
    zero), ``terms`` the stage triples, ``forced`` whether a forcing table
    comes with each block, and ``steps`` the steps per block."""
    if hand_built:
        return None, None
    dense = all(isinstance(term.gather, np.ndarray) for term in terms)
    small = size * batch <= _STATE_SPACE
    if ((jac_t is not None or terms) and (dense or small)
            and all(getattr(term.kernel, "pieces", None) is not None for term in terms)):
        return _Regions(jac_t, terms, batch, size, dt, forced, steps), None
    if dense and small:
        return None, _Chained(jac_t, terms, batch, size, dt, forced, steps)
    return None, None


class _Regions:
    """The linear region of each batch member of a run whose triples are
    all piecewise affine, and the one-product step of that region.

    A member's region is the piece of every gather entry.  Inside it each
    triple is affine, kernel(x·G)·S = x·G·diag(slope)·S + intercept·S, so
    the run is x' = x·J_rᵀ + e_r + f(t), with J_rᵀ = Jᵀ + G·diag(slope)·S
    over the triples and e_r the intercepts' row, and RK4's step is exactly
    x·M_r + g (:func:`affine_step`, and :func:`stage_forcing` on the
    forcing rows plus e_r).  When every gather is dense, G is folded into
    the step, whose product gives the gathers of the four stage states.
    Otherwise the step gives the stage states, [M_r | P₂ | P₃ | P₄], the
    triples' own gathers read them, and the edge-list or node-by-node part
    of J_rᵀ and e_r is summed from the edge list or the per-node blocks
    (:func:`pwsync.sparse.sparse_parts`), never from a dense G or S.  A step holds
    only when all four stage gathers lie in the region's closed intervals.
    Steps go in passes (:meth:`advance`), one product each, whose stage
    gathers are checked together when the pass ends; the pass keeps its
    steps up to the first that some member does not hold.  There a member
    whose step does not hold, or whose state lies in no region (pws past
    |z| = 1), takes the four-stage step, and its region is read again from
    its new state.  A pass takes one step while some member is outside,
    and otherwise ``length`` steps, which doubles after a pass that held,
    up to a block, and drops to one after one that did not.  The
    node-by-node form keeps passes of one step: longer ones would gather
    4·K entries per step into temporaries that, past 128 KiB, the C
    allocator maps afresh and faults in on every pass.  An edge-list run
    has no such temporaries.  Each of its entries x_j − x_i rounds to at
    most the rounded spread max − min of x over the nodes, so a step
    whose stage states spread by at most the member's ``bound`` in every
    component holds, an O(N·dim) check per stage; only a step that this
    does not clear has its 4·K entries gathered and checked, one step at
    a time.  The decisions are those of the edge check alone.

    Each member keeps only its current region, and rebuilds its step when
    that changes.  Past ``_STATE_SPACE``, where a build costs as much as
    the four stages of dozens of steps, the run is ``wary``: a member with
    no build yet, or whose region changes within a block of its last
    build, takes the four-stage step for a block, and is built only if its
    region is then the one the read found, so a chattering member stops
    paying for builds.  A run with no triple has K = 0 gather entries and
    one region, whose step is built once and whose passes never fail.

    A run of one member (a ``simulate``) steps its passes from ``ops``,
    built once per run over a buffer ``buf`` of a block's steps + 1 rows
    and a buffer ``rows`` of their forcing rows: per step of the block,
    ``np.dot`` of its entering state with the step into the next row and
    ``np.add`` of its forcing row.  A pass copies its entering state and
    its forcing rows in, runs its steps' ops and reads their states and
    stage gathers from the buffer.  A batch keeps its batched products,
    one M_r per member.
    """

    def __init__(self, jac_t, terms, batch: int, size: int, dt: float, forced: bool, steps: int):
        self.jac_t = np.zeros((batch, size, size)) if jac_t is None else jac_t
        self.size, self.dt = size, dt
        self.folded = all(isinstance(term.gather, np.ndarray) for term in terms)
        self.terms, stop, idle = [], 0, []
        for term in terms:  # (gather columns, pieces (P, 4), triple, its sparse parts or None)
            sparse, gains = None, term.factors and term.factors[0][0]
            if isinstance(term.gather, np.ndarray):
                width = term.gather.shape[1]
            else:
                width, *sparse = sparse_parts(term, size)
                gains = sparse[2]
            cols = slice(stop, stop + width)
            self.terms.append((cols, np.array(term.kernel.pieces, dtype=float), term, sparse))
            zero = np.zeros(batch, dtype=bool) if gains is None else gains == 0.0
            idle.append(np.repeat(zero[:, None], width, axis=1))
            stop = cols.stop
        self.entries = stop  # K
        # the coupling's gather entries of a member at gain zero add nothing:
        # they stay in the first piece, held at any value, so the member
        # steps as its own run, which has no coupling term
        idle = np.concatenate(idle + [np.zeros((batch, 0), dtype=bool)], axis=1)
        self.idle = idle if idle.any() else None
        # the step [M_r | P₂G | P₃G | P₄G | G] or [M_r | P₂ | P₃ | P₄]; its
        # leading columns carry forcing, read off J_rᵀ and e_r
        self.gather = None
        self.forced_width = 4 * size
        if self.folded:
            self.gather = np.concatenate([term.gather for term in terms] + [np.zeros((size, 0))], axis=1)
            self.forced_width = size + 3 * stop
        self.jac_r, self.shift = np.zeros((batch, size, size)), np.zeros((batch, 1, size))
        self.step = np.zeros((batch, size, self.forced_width + (stop if self.folded else 0)))
        # a dense run's forcing rows come from weights built with the step;
        # the forcing rows of e_r alone, one per step of a block, serve a
        # run without a table
        self.weights = np.zeros((batch, 2, size, self.forced_width)) if self.folded and forced else None
        self.offset = np.zeros((batch, BLOCK, 1, self.forced_width)) if stop and not forced else None
        self.lower, self.upper = np.zeros((2, batch, 1, 1, 4 * stop))
        self.pieces = np.zeros((batch, stop), dtype=np.intp)
        self.inside = np.zeros(batch, dtype=bool)  # state inside ``pieces``
        self.everyone = False  # every member inside
        self.anyone = False  # some member inside
        # steps taken and, while no member is inside, the first step after
        # which one is read again; per member, the step after which it is
        # read again while outside, and the wait after that
        self.steps, self.next_read = 0, 0
        # when every triple gathers x_j − x_i over an edge list, a member's
        # step holds if the spread max − min over the nodes of each stage
        # state and component is at most its ``bound``, min(upper, −lower)
        # over its entries: rounding is monotone, so no entry's |x_j − x_i|
        # exceeds the spread
        edges = bool(terms) and all(isinstance(term.gather, Incidence) for term in terms)
        self.nodes = terms[0].gather.n_nodes if edges else None
        self.bound = np.zeros(batch) if edges else None
        # the next pass's length and the most it may reach: a block, or one
        # step for the node-by-node form; with no triple a pass never fails
        self.most = BLOCK if self.folded or edges else 1
        self.length = 1 if stop else BLOCK
        self.due, self.retry = np.zeros(batch, dtype=np.intp), np.ones(batch, dtype=np.intp)
        # past ``_STATE_SPACE`` a build costs the four stages of many steps;
        # per member, the step of its last build (negative before the
        # first) and the region its last read found
        self.wary = size * batch > _STATE_SPACE
        self.built, self.seen = np.full(batch, -BLOCK), np.where(idle, 0, -1)
        self.table = self.forcing = None
        # one member's passes run ``ops``; ``_build`` overwrites the step in
        # place, so the views they bind stay valid
        self.ops = self.per_step = None
        if batch == 1:
            fw = self.forced_width
            self.buf = np.zeros((steps + 1, self.step.shape[-1]))
            self.rows = np.zeros((steps, fw)) if forced or stop else None
            self.ops, self.per_step = [], 1 + (self.rows is not None)
            for p, (x, y) in enumerate(zip(self.buf, self.buf[1:])):
                self.ops.append(partial(np.dot, x[:size], self.step[0], y))
                if self.rows is not None:
                    self.ops.append(partial(np.add, y[:fw], self.rows[p], y[:fw]))

    def _gathers(self, x):
        """The gather entries of the row states x (R, 1, n): shape (R, K)."""
        parts = [(x @ term.gather).reshape(len(x), -1) for *_, term, _ in self.terms]
        return parts[0] if len(parts) == 1 else np.concatenate(parts + [np.zeros((len(x), 0))], axis=1)

    def enter(self, x, rows):
        """Read the regions of the members ``rows`` from their states
        x[rows] and rebuild the step of each whose region changed.  A
        member outside every region is read again only when due: after 1,
        2, 4, … steps, at most a block, for as long as it stays outside."""
        if not self.anyone and self.steps < self.next_read:
            return
        rows = rows[self.inside[rows] | (self.due[rows] <= self.steps)]
        if not rows.size:
            return
        y = self._gathers(x[rows])
        pieces = np.empty(y.shape, dtype=np.intp)
        for cols, table, _, _ in self.terms:
            idx = np.searchsorted(table[:, 1], y[:, cols])
            held = (idx < len(table)) & (table[np.minimum(idx, len(table) - 1), 0] <= y[:, cols])
            pieces[:, cols] = np.where(held, idx, -1)
        if self.idle is not None:
            pieces[self.idle[rows]] = 0
        inside = (pieces >= 0).all(axis=1)
        changed = inside & ((self.built[rows] < 0) | (pieces != self.pieces[rows]).any(axis=1))
        reset = inside  # members whose wait starts again at one step
        if self.wary:
            # a member that held its built region for a block is rebuilt at
            # once; any other waits a block like a member outside, and is
            # built only when the read after finds the same region
            reset = self.inside[rows] & (self.steps - self.built[rows] >= BLOCK)
            hasty = changed & ~reset & (pieces != self.seen[rows]).any(axis=1)
            self.seen[rows] = pieces
            self.retry[rows[hasty]] = BLOCK
            inside &= ~hasty
            changed &= ~hasty
        self.inside[rows] = inside
        self.everyone, self.anyone = bool(self.inside.all()), bool(self.inside.any())
        self.pieces[rows[inside]] = pieces[inside]
        outside = rows[~inside]
        self.due[outside] = self.steps + self.retry[outside]
        retry = self.retry[rows]
        self.retry[rows] = np.where(inside, np.where(reset, 1, retry), np.minimum(2 * retry, BLOCK))
        if not self.anyone:
            self.next_read = int(self.due.min())
        if changed.any():
            self._build(rows[changed])
        if self.forcing is None and self.table is not None and self.anyone:
            self.forcing = self._forcing(self.table, slice(None))

    def _build(self, rows):
        if rows.size == len(self.built):
            rows = slice(None)  # every member: read views, not copies
        jac, size = self.jac_t[rows], self.size
        count = len(jac)
        shift = np.zeros((count, 1, size))
        bounds = np.empty((count, self.entries, 2))
        for cols, table, term, sparse in self.terms:
            piece = table[self.pieces[rows, cols]]
            slope, intercept = piece[..., 2], piece[..., 3]
            if sparse is None:
                scatter = term.scatter if term.scatter.ndim == 2 else term.scatter[rows]
                jac = jac + (term.gather * slope[:, None]) @ scatter
                shift = shift + intercept[:, None] @ scatter
            else:
                jac_part, shift_part, scale = sparse
                if scale is not None:
                    slope, intercept = slope * scale[rows, None], intercept * scale[rows, None]
                jac = jac + summed(jac_part, slope, size * size).reshape(jac.shape)
                shift = shift + summed(shift_part, intercept, size)[:, None]
            bounds[:, cols] = piece[..., :2]
        if self.idle is not None:
            bounds[self.idle[rows]] = (-np.inf, np.inf)
        self.step[rows] = affine_step(jac, self.dt, self.gather)
        self.jac_r[rows], self.shift[rows] = jac, shift
        if self.weights is not None:
            self.weights[rows] = forcing_weights(stage_weights(self.dt * jac, self.dt, self.gather))
        if self.offset is not None:
            shifts = np.broadcast_to(shift, (count, 3, size))
            self.offset[rows] = stage_forcing(shifts, jac, self.dt, self.gather)
        self.built[rows] = self.steps
        if self.entries:  # every stage's gathers, as the step or the stage states give them
            self.lower[rows] = np.tile(bounds[..., 0], 4)[:, None, None]
            self.upper[rows] = np.tile(bounds[..., 1], 4)[:, None, None]
        if self.bound is not None:  # finite, so a state holding inf is never cleared
            bound = np.minimum(bounds[..., 1], -bounds[..., 0]).min(axis=1)
            self.bound[rows] = np.minimum(bound, np.finfo(float).max)
        if self.forcing is not None:
            self.forcing[rows] = self._forcing(self.table[:, rows], rows)

    def _forcing(self, table, rows):
        f = table[:, :, 0].transpose(1, 0, 2) + self.shift[rows]  # e_r joins the forcing rows
        if self.weights is None:
            return stage_forcing(f, self.jac_r[rows], self.dt)
        return affine_forcing(f, self.weights[rows], self.dt / 6.0)

    def tabulate(self, table):
        """Take the forcing table of a new block; its rows for the step
        wait until a member is inside a region."""
        self.table = table
        self.forcing = self._forcing(table, slice(None)) if self.anyone else None

    def advance(self, store, k, j, steps):
        """A pass of region steps from the stored state at step k, the
        block's step j, with ``steps`` left in the block: (taken, rows),
        the steps stored from row k + 1 on and the members that must take
        the four-stage step on the last of them instead (None if none).
        Each step is one product with the step plus its forcing row, from
        ``ops`` for one member; the stage gathers of every step are
        checked once, when the pass ends.
        The pass keeps its steps up to the first that some member fails;
        that member, or every member while none is inside, falls back
        there.  A pass takes one step while some member is outside, else
        ``length`` steps, at most ``steps``; ``length`` doubles after a
        pass that held, up to ``most``, and drops to one after one that
        did not.  A member's products and checks are the same whatever the
        pass's length and batch."""
        if not self.anyone:
            self.steps += 1
            return 1, np.arange(len(store))
        span = min(self.length if self.everyone else 1, steps)
        x, n = store[:, k], self.size
        shift = self.offset if self.forcing is None else self.forcing
        if self.ops is not None:  # one member: 2-D products, bound in advance
            self.buf[j, :n] = x[0, 0]
            if shift is not None:
                self.rows[j:j + span] = shift[0, j:j + span, 0]
            for op in self.ops[self.per_step * j:self.per_step * (j + span)]:
                op()
            ys = self.buf[None, j + 1:j + span + 1, None]
        else:
            ys = np.empty((len(x), span, 1, self.step.shape[-1]))
            for i in range(span):
                y = ys[:, i]
                np.matmul(x, self.step, out=y)
                if shift is not None:
                    y[..., :self.forced_width] += shift[:, j + i]
                x = y[..., :n]
        store[:, k + 1:k + span + 1] = ys[..., :n]
        if not self.entries:  # no triple: one region, always held
            self.steps += span
            return span, None
        if self.folded:
            gathers = ys[..., n:]
            held = ((self.lower <= gathers) & (gathers <= self.upper)).all(axis=(2, 3)) & self.inside[:, None]
        else:
            held = self._held(store[:, k:k + span], ys[..., n:])
        every = held.all(axis=0)
        if every.all():
            self.steps += span
            self.length = min(2 * self.length, self.most)
            return span, None
        taken = int(every.argmin()) + 1
        self.steps += taken
        self.length = 1
        return taken, np.flatnonzero(~held[:, taken - 1])

    def _cleared(self, x, stages):
        """Per member and step of a pass, whether its node spread clears the
        step (see ``bound``), from its states x (B, m, 1, n) and stage
        states [X₂ | X₃ | X₄] (B, m, 1, 3n): shape (B, m), all False unless
        every triple is an edge-list gather."""
        cleared = np.full(x.shape[:2], self.bound is not None)
        if self.bound is not None:
            bound = self.bound[:, None, None, None]
            for part in (x, stages):
                nodes = part.reshape(part.shape[:2] + (-1, self.nodes, self.size // self.nodes))
                cleared &= (nodes.max(axis=3) - nodes.min(axis=3) <= bound).all(axis=(2, 3))
        return cleared

    def _held(self, x, stages):
        """Per member and step of a pass of node-by-node or edge-list
        triples, whether the step holds, from the states and stage states
        of :meth:`_cleared`: shape (B, m), exact up to the first step that
        some member fails.  The node spread clears what it can; the
        gathers of x, X₂, X₃ and X₄ check the rest a step at a time, so no
        check reads more than one step's 4·K entries per member."""
        held = self._cleared(x, stages) & self.inside[:, None]
        for i in np.flatnonzero(~held.all(axis=0)):
            gathers = self._gathers(np.concatenate([x[:, i], stages[:, i]], axis=-1).reshape(-1, 1, self.size))
            gathers = gathers.reshape(self.lower.shape)
            inside = (self.lower <= gathers) & (gathers <= self.upper)
            if self.everyone and inside.all():
                held[:, i] = True
                continue
            held[:, i] = inside.all(axis=(1, 2, 3)) & self.inside  # some member fails here
            break
        return held


class _Chained:
    """The step of a run whose triples are all dense and that takes no
    region step, a block of steps per call.

    RK4 on x' = x·Jᵀ + f(t) + Σ kernel(X·G)·S is the region step of the
    linear part (:func:`affine_step` at zero slopes) with each stage's
    kernel output φ_r a term that enters stage r alone and reaches x_{k+1}
    and the later stage gathers through R_r = S·W_r (:func:`stage_weights`).
    Step j of a block owns column j of one buffer, rows [g_j | x_j | φ₁ |
    φ₂ | φ₃ | φ₄]: its forcing rows (none without forcing), its state and
    each stage's gathers, which the kernels overwrite with their output,
    times the coupling's gains as a row (at one gain they sit in R_r).  A
    kernel that is a ufunc (the hard sign ``np.sign``, sin) runs in place;
    any other returns a new array that :func:`_overwrite` copies back.
    Stage 1's gathers are there when the step starts; stage r's, r = 2,
    3, 4, are one product of the rows above them with A_r, which holds
    P_rG, the identity on stage r's forcing rows and R_s on stage r's
    gathers for s < r.  One product of the whole column with [L | L·G], L
    the weights of x_{k+1} (the identity on its forcing rows, M and R_r),
    writes x_{k+1} and stage 1's gathers into the next column.  A step is
    thus its kernels and four products.  Where J differs per gain (linear
    coupling), each gain's rows sit together and every product is batched
    over the gains, one matrix per gain.  Past ``_STATE_SPACE`` the four
    stages are faster; a region run's few fallback steps do not pay for
    building this step.
    """

    def __init__(self, jac_t, terms, batch: int, size: int, dt: float, forced: bool, steps: int):
        jac_t = np.zeros((1, size, size)) if jac_t is None else jac_t
        shared = (jac_t == jac_t[0]).all()  # one J for every gain: 2-D products
        jac_t = jac_t[:1] if shared else jac_t
        gather = np.concatenate([term.gather for term in terms] + [np.zeros((size, 0))], axis=1)
        n, entries = size, gather.shape[1]
        reach = n + 3 * entries  # the rows a stage-local term reaches: x_{k+1} and stages 2-4's gathers
        lead = reach if forced else 0  # forcing rows
        weights = stage_weights(dt * jac_t, dt, gather)
        self.weights = forcing_weights(weights) if forced else None
        self.sixth = dt / 6.0
        step = affine_step(jac_t, dt, gather)
        triples, scatters, first = [], [], 0  # (kernel, first and end row in φ, gains or None)
        for term in terms:
            gains, scatter = term.factors if term.factors and shared and batch > 1 else (None, term.scatter)
            width = term.gather.shape[1]
            if gains is not None:  # full (K, B): a broadcast row costs the ufunc about twice as long
                gains = np.broadcast_to(gains, (width, batch)).copy()
            triples.append((term.kernel, first, first + width, gains))
            scatters.append(scatter)
            first += width
        reached = [np.concatenate([s @ w for s in scatters] + [w[:, :0]], axis=1) for w in weights]  # R_r
        eye = np.broadcast_to(np.eye(reach)[:, :lead], (len(jac_t), reach, lead))
        stages = []
        for r in (1, 2, 3):
            cols = slice(n + (r - 1) * entries, n + r * entries)
            stages.append(np.concatenate([eye[:, cols], step[..., cols].swapaxes(1, 2)]
                                         + [w[..., cols].swapaxes(1, 2) for w in reached[:r]], axis=-1))
        lin = np.concatenate([eye[:, :n], step[..., :n].swapaxes(1, 2)]
                             + [w[..., :n].swapaxes(1, 2) for w in reached], axis=-1)
        self.step = np.concatenate([lin, gather.T @ lin], axis=1)
        rows, x0, phi = lead + n + 4 * entries, lead, lead + n
        if shared:  # one column (rows, B) per step, 2-D products
            buf = np.zeros((steps + 1, rows, batch))
            flat, product, self.step = buf.transpose(2, 0, 1), np.dot, self.step[0]
            stages = [a[0].copy() for a in stages]
        else:  # one column (B, rows, 1) per step, products batched over the gains
            buf = np.zeros((steps + 1, batch, rows, 1))
            flat, product = buf[..., 0].transpose(1, 0, 2), np.matmul

        def rows_of(top, bottom, first=0):
            """Rows [top, bottom) of each step's column, from column ``first`` on."""
            cols = buf[first:first + steps]
            return list(cols[:, top:bottom] if shared else cols[:, :, top:bottom])

        # (B, steps + 1, rows): each step's forcing rows, the first state and those stored
        self.forcing, self.state, self.states = flat[:, :, :lead], flat[:, 0, x0:phi], flat[:, 1:, x0:phi]
        calls = []  # per call of a step, that call for every step of a block
        for r in range(4):
            top = phi + r * entries
            if r:
                calls.append(map(partial, repeat(product), repeat(stages[r - 1]), rows_of(0, top),
                                 rows_of(top, top + entries)))
            for kernel, start, stop, gains in triples:
                ys = rows_of(top + start, top + stop)
                calls.append(map(partial, repeat(kernel), ys, ys) if isinstance(kernel, np.ufunc)
                             else map(partial, repeat(_overwrite), repeat(kernel), ys))
                if gains is not None:
                    calls.append(map(partial, repeat(np.multiply), ys, repeat(gains), ys))
        calls.append(map(partial, repeat(product), repeat(self.step), rows_of(0, rows),
                         rows_of(x0, phi + entries, 1)))
        self.per_step = len(calls)
        # the first state's gathers, then the steps
        self.ops = [partial(product, gather.T.copy(), rows_of(x0, phi)[0], rows_of(phi, phi + entries)[0])]
        self.ops += [call for step in zip(*calls) for call in step]

    def tabulate(self, table):
        """Take the forcing table of a new block: the steps' forcing rows."""
        g = affine_forcing(table[:, :, 0].transpose(1, 0, 2), self.weights, self.sixth)
        self.forcing[:, :g.shape[1]] = g[:, :, 0]

    def advance(self, store, k, steps):
        """``steps`` steps of the whole batch from the stored state at step
        k, their states stored from row k + 1 on in one copy."""
        self.state[...] = store[:, k, 0]
        for op in self.ops[:1 + steps * self.per_step]:
            op()
        store[:, k + 1:k + steps + 1, 0] = self.states[:, :steps]


def _overwrite(kernel, y):
    """y ← kernel(y), for a kernel that is no ufunc."""
    np.copyto(y, kernel(y))
