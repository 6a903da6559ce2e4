"""Fixed-step RK4 integration of coupled networks.

One RK4 loop advances B coupling gains at once, each a copy of the
N-node network held as one row state of N·dim entries, shape (B, 1,
N·dim); a gain sweep is one pass.  The nodes of each family in
:mod:`pwsync.dynamics` are stacked into parameter arrays once per run.
Every term linear in the state sits in one dense matrix per gain, J_b =
blockdiag(Aᵢ) − c_b·(L ⊗ Γ).  Every state-dependent term is one triple,
added as kernel(x @ G) @ S: a family's rest (its gather blocks, kernel
and scatter blocks), and the nonlinear coupling (the signed incidence
x_j − x_i per directed edge and component, η, and the scatter of c_b·w_ij
to the receiving node).  G and S are dense block-diagonal and incidence
matrices while G's entries times the batch size are at most ``_DENSE``;
a larger term applies the same triple node by node and over the edge
list.  Fields without a family go through their own ``h`` and ``g``.

The run goes in blocks of m ≤ 64 steps, with m ≤ τ_min/dt so that every
delayed value a block reads is already stored.  Each family's time-only
forcing is tabulated once per block, at its 2m + 1 stage times, into one
table of full rows.  When a block ends, the divergence guard reads its
stored rows once: a gain past the threshold ends its trajectory at the
step before and restarts from zero; the batch keeps its B rows.

A step is one of three (see :func:`integrate_gains`).  Where every kernel
is affine on declared intervals (the boundary-layer sign, Chua's knee,
pws inside |z| ≤ 1), a member whose gather entries all sit in such
pieces, its region, takes RK4's step exactly: x ← x·M + g, with M =
R(dt·J_rᵀ) built when its region changes.  Region steps go in passes of
up to a block, one product per step, and each pass checks the stage
gathers of all its steps at once.  A dense run that no region
step can carry (the hard sign and sin declare no pieces) takes the
chained step, a block of steps per call: each step owns one column of a
buffer, and its four products and the kernels, run in place on that
column, carry it to the next.  Otherwise a step is RK4's four stages.

Switching fields are integrated with small steps plus an optional
boundary-layer sign regularization instead of an event-driven sliding
solver; delayed terms read a linearly interpolated history of the stored
trajectory.  Post-processing reduces trajectories to stacked error norms
and a steady-state residual estimate ε̂ over the final window.  The CSV
writers name the columns and write them through
:func:`pwsync.csvformat.write_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .affine import affine_forcing, affine_step, forcing_weights, stage_forcing, stage_weights
from .certify import CertifyError, CouplingSpec
from .csvformat import write_csv
from .dynamics import AffineDecomposedField, hard_sgn, saturated_sgn
from .graph import Topology, build_laplacian
from .scenarios import SimConfig, SimError
from .sparse import EdgeScatter, Incidence, NodeGather, NodeScatter, sparse_parts, summed

__all__ = [
    "SimError",
    "SimConfig",
    "Trajectory",
    "ErrorSeries",
    "integrate",
    "integrate_gains",
    "error_series",
    "steady_state_eps",
    "sweep_coupling",
    "write_trajectory_csv",
    "write_error_csv",
    "write_sweep_csv",
]


_BLOCK = 64  # most steps per table of time-only terms
# most entries of a dense gather G times the batch size; past it a triple
# runs node by node and over the edge list (the measured crossover)
_DENSE = 32768
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


@dataclass(eq=False)
class Trajectory:
    """Stacked states over time; truncated at the last finite step when
    the divergence guard trips (``diverged`` is then set)."""

    times: np.ndarray
    states: np.ndarray
    n_nodes: int
    dim: int
    diverged: bool = False
    meta: dict = field(default_factory=dict)


@dataclass(eq=False)
class ErrorSeries:
    """Per-time deviations from the node average and their stacked norm;
    ``errors`` has one column per (node, component), node-major."""

    times: np.ndarray
    norms: np.ndarray
    errors: np.ndarray
    n_nodes: int
    dim: int
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_times = len(self.times)
        if len(self.norms) != n_times or len(self.errors) != n_times:
            raise SimError("times, norms and errors must have one row per time")
        if np.shape(self.errors)[1:] != (self.n_nodes * self.dim,):
            raise SimError(f"errors must have n_nodes·dim = {self.n_nodes * self.dim} columns")


def integrate(fields: Sequence[AffineDecomposedField], topo: Topology,
              coupling: CouplingSpec, x0, config: SimConfig) -> Trajectory:
    """Integrate the coupled network with classical RK4 at fixed step.

    A batch of one gain through :func:`integrate_gains`.  Delayed fields
    require their delay to be at least one step; before t=0 the history
    is the constant initial state.
    """
    return integrate_gains(fields, topo, coupling, [coupling.c], x0, config)[0]


def integrate_gains(fields: Sequence[AffineDecomposedField], topo: Topology,
                    coupling: CouplingSpec, gains, x0, config: SimConfig) -> list:
    """Integrate the network once per coupling gain, all gains in one pass.

    The state has one row of N·dim entries per gain, and every stage
    evaluates all of them together.  The run holds B × (steps + 1) × N ×
    dim floats; a run larger than NumPy's largest array raises
    :class:`SimError` before anything is allocated.  The divergence guard
    reads each block's stored rows once,
    when the block ends: a gain's trajectory ends at the step before its
    first row whose max|x| is not ≤ the threshold (NaN included), and its
    row restarts from zero, stepped but never reported.  Until the block
    ends it may overflow, with overflow and invalid warnings silenced; no
    row reads another.  The run stops at the end of the block in which no
    gain is left.  Returns one :class:`Trajectory` per gain, in order.

    The step is chosen per member and step.  When every triple
    kernel(x @ G) @ S declares affine pieces, there is no hand-built
    field, and the triples are dense or N·dim times the batch size is at
    most ``_STATE_SPACE``, a member inside one region (every gather entry
    in one piece) takes one product with its region's M = R(dt·J_rᵀ) plus
    the step's forcing row; any other member takes the four stages,
    evaluated for the whole batch (:class:`_Regions`).  Region steps go in
    passes, whose stage gathers are checked once, when the pass ends: up
    to a block while every member is inside (one step for the edge-list
    and node-by-node forms), the length doubling after a pass that held.
    A run with no triple is one region.  A run with no region step whose
    triples are dense, with no hand-built field and N·dim times the batch
    size at most ``_STATE_SPACE`` (sin coupling, the hard sign) takes the
    chained step, a block per call (:class:`_Chained`); any other run the
    four stages.  The steps agree to rounding (region steps and the four
    stages about 1e-13 relative over the 15 000 steps of ikeda10-linear,
    3.4e-14 of max|x| on relay5, 2e-16 on ikeda100-pws; the chained step
    and the four stages 5.5e-14 of max|x| over kuramoto4's first 2000
    steps at one gain or six, 2.1e-12 over its 40 000, and 1.9e-13 on
    relay5 with the hard sign at six gains, seeds 0-2), and so do the dense
    and the edge-list form of a triple.
    """
    n_nodes = topo.n_nodes
    if len(fields) != n_nodes:
        raise SimError(f"{len(fields)} fields for a {n_nodes}-node topology")
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise SimError("all nodes must share one state dimension")
    size = n_nodes * dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (size,):
        raise SimError(f"x0 must have {size} entries")
    if not np.isfinite(x0).all():
        raise SimError("x0 must be finite")
    if coupling.variant == "linear":
        if coupling.gamma.shape != (dim,):
            raise SimError("gamma must have one entry per state component")
    elif coupling.upsilon.shape != (dim,):
        raise SimError("upsilon must have one entry per state component")
    gains = np.array([float(c) for c in gains])
    if not (np.isfinite(gains) & (gains >= 0.0)).all():
        raise SimError("coupling gains must be finite and nonnegative")

    dt = config.dt
    for f in fields:
        if f.delay is not None and f.delay < dt:
            raise SimError("a delay shorter than one step cannot be resolved")
    if gains.size == 0:
        return []
    n_steps = int(round(config.t_end / dt))
    if 8 * gains.size * (n_steps + 1) * size > np.iinfo(np.intp).max:
        raise SimError(f"{n_steps + 1:.3g} time points of {gains.size * size} floats each "
                       "exceed the largest array NumPy can allocate")
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((gains.size, n_steps + 1, n_nodes, dim))
    states[:, 0] = x0.reshape(n_nodes, dim)

    width = config.regularization_width
    sgn = hard_sgn if width == 0.0 else saturated_sgn(width)
    history = _History(states, dt)
    blocks, terms, forced, closure = _node_terms(fields, sgn, history, gains.size)
    jac_t = _linear_part(blocks, coupling, topo, gains)
    if coupling.variant != "linear" and gains.any():
        terms.append(_coupling_term(coupling.eta, topo, dim, gains))
    regions = None
    dense = all(isinstance(term.gather, np.ndarray) for term in terms)
    if (closure is None and (jac_t is not None or terms)
            and all(getattr(term.kernel, "pieces", None) is not None for term in terms)
            and (dense or size * gains.size <= _STATE_SPACE)):
        regions = _Regions(jac_t, terms, gains.size, size, dt, bool(forced))
    # steps per table: within ⌊τ_min/dt⌋ steps of its start, a block's
    # delayed reads need no row past the one stored at the start
    block = min([_BLOCK] + [int(f.delay // dt) for f in fields if f.delay is not None])
    chained = None
    if regions is None and closure is None and dense and size * gains.size <= _STATE_SPACE:
        chained = _Chained(jac_t, terms, gains.size, size, dt, bool(forced), min(block, n_steps))

    def rhs(t, stage, x):
        out = None if table is None else table[stage]
        for gather, kernel, scatter, *_ in terms:
            term = kernel(x @ gather) @ scatter
            out = term if out is None else out + term
        if closure is not None:
            term = closure(t, x)
            out = term if out is None else out + term
        return out if jac_t is None else x @ jac_t + out

    def staged(k, x):
        """The four-stage step of the whole batch from x at step k."""
        stage = 2 * (k % block)
        t = times[k]
        t_half = t + half
        k1 = rhs(t, stage, x)
        k2 = rhs(t_half, stage + 1, x + half * k1)
        k3 = rhs(t_half, stage + 1, x + half * k2)
        k4 = rhs(times[k + 1], stage + 2, x + dt * k3)
        return x + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    store = states.reshape(gains.size, n_steps + 1, 1, size)
    x = store[:, 0].copy()
    last = np.full(gains.size, n_steps)
    half = 0.5 * dt
    sixth = dt / 6.0
    threshold = config.divergence_threshold
    table = None
    if regions is not None:
        regions.enter(x, np.arange(gains.size))
    # a member past the threshold may overflow until its block ends
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            if forced:
                table = _forcing_table(forced, times[start:stop + 1], history, sgn)
                for stepper in filter(None, (regions, chained)):
                    stepper.tabulate(table)
            k = start
            while regions is not None and k < stop:  # passes of region steps
                taken, out = regions.advance(store, k, k - start, stop - k)
                k += taken
                x = store[:, k]
                if out is not None:
                    x[out] = staged(k - 1, store[:, k - 1])[out]
                    regions.enter(x, out)
            if chained is not None:
                chained.advance(store, k, stop - k)
            else:
                for k in range(k, stop):
                    x = staged(k, x)
                    store[:, k + 1] = x
            # a member ends at the step before its block's first row whose
            # max|x| is not ≤ the threshold, and restarts from zero, its
            # stored rows too, which its delayed terms read
            rows = store[:, start + 1:stop + 1]
            ok = np.logical_and.accumulate(np.abs(rows).max(axis=(2, 3)) <= threshold, axis=1)
            if not ok.all():
                wild = ~ok[:, -1]
                last = np.minimum(last, np.where(wild, start + ok.sum(axis=1), n_steps))
                if (last < n_steps).all():
                    break
                rows[~ok] = x[wild] = 0.0
                if regions is not None:
                    regions.enter(x, np.flatnonzero(wild))

    run_meta = dict(method="rk4", dt=dt, t_end=float(n_steps * dt), steps=n_steps,
                    n_nodes=n_nodes, dim=dim, coupling_variant=coupling.variant,
                    coupling_label=coupling.label, regularization_width=width,
                    divergence_threshold=threshold)
    return [Trajectory(times[:end + 1], states[b, :end + 1].reshape(end + 1, size), n_nodes, dim,
                       end < n_steps, {**run_meta, "c": float(c), "diverged": end < n_steps})
            for b, (c, end) in enumerate(zip(gains, last.tolist()))]


class _History:
    """Stored states of the batch members, read at past times.

    ``states`` has shape (B, steps + 1, N, dim) and row 0 holds the initial
    state, which is also the history for s ≤ 0 (a negative time reads row 0
    with no interpolation).  Between grid points rows are interpolated
    linearly, except that a fraction of at most 1e-9 of a step reads the
    earlier row as is.
    """

    def __init__(self, states, dt):
        self.states, self.dt = states, dt

    def delayed(self, ts, delays, nodes):
        """States of ``nodes`` at each of ``ts`` minus that node's delay,
        for every member: shape (len(ts), B, n, dim)."""
        s = (ts[:, None] - delays)[:, None]
        return self.read(np.arange(len(self.states))[:, None], nodes, s)

    def node(self, p, i):
        """History callable of node ``i`` in member ``p``."""
        return lambda s: self.read(p, i, np.asarray(s, dtype=float))

    def read(self, members, nodes, s):
        u = s / self.dt
        idx = np.maximum(u.astype(np.intp), 0)
        frac = (u - idx)[..., None]
        row = self.states[members, idx, nodes]
        nxt = self.states[members, idx + 1, nodes]
        return np.where(frac > 1e-9, row + frac * (nxt - row), row)


def _linear_part(blocks, coupling: CouplingSpec, topo: Topology, gains: np.ndarray):
    """J_b = blockdiag(Aᵢ) − c_b·(L ⊗ Γ) per gain, transposed to act on row
    states (B, 1, N·dim): shape (B, N·dim, N·dim), or None if all zero."""
    n_nodes, dim = blocks.shape[:2]
    size = n_nodes * dim
    jac = np.einsum("ij,ikl->ikjl", np.eye(n_nodes), blocks).reshape(size, size)
    if coupling.variant == "linear" and gains.any():
        coupled = np.kron(build_laplacian(topo), np.diag(coupling.gamma))
        jac = jac - gains[:, None, None] * coupled
    elif not jac.any():
        return None
    return np.ascontiguousarray(np.broadcast_to(jac, (gains.size, size, size)).transpose(0, 2, 1))


def _forcing_table(forced, times, history, sgn):
    """The families' time-only terms at the stage times of a block whose
    step times are ``times``, scattered into full rows: shape (2m + 1, B,
    1, N·dim), row 2j at the block's step j and row 2j + 1 at its half
    step."""
    ts = np.empty(2 * len(times) - 1)
    ts[0::2] = times
    ts[1::2] = times[:-1] + 0.5 * history.dt
    table = np.zeros((ts.size,) + history.states.shape[:1] + history.states.shape[2:])
    for family, q, idx in forced:
        delayed = lambda lags: history.delayed(ts, lags, idx)  # noqa: E731
        table[:, :, idx, family.column] = family.forcing(q, ts, delayed, sgn)
    return table.reshape(ts.size, len(table[0]), 1, -1)


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
    up to a block, and drops to one after one that did not.  The edge-list
    and node-by-node forms keep passes of one step: longer ones gather
    4·K entries per step into temporaries that, past 128 KiB, the C
    allocator maps afresh and faults in on every pass.

    Each member keeps only its current region, and rebuilds its step when
    that changes.  Past ``_STATE_SPACE``, where a build costs as much as
    the four stages of dozens of steps, the run is ``wary``: a member with
    no build yet, or whose region changes within a block of its last
    build, takes the four-stage step for a block, and is built only if its
    region is then the one the read found, so a chattering member stops
    paying for builds.  A run with no triple has K = 0 gather entries and
    one region, whose step is built once and whose passes never fail;
    ``ready`` marks the steps built, since its empty pieces never differ.
    """

    def __init__(self, jac_t, terms, batch: int, size: int, dt: float, forced: bool):
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
        self.offset = np.zeros((batch, _BLOCK, 1, self.forced_width)) if stop and not forced else None
        self.lower, self.upper = np.zeros((2, batch, 1, 1, 4 * stop))
        self.pieces = np.zeros((batch, stop), dtype=np.intp)
        self.ready = np.zeros(batch, dtype=bool)  # step built for ``pieces``
        self.inside = np.zeros(batch, dtype=bool)  # state inside ``pieces``
        self.everyone = False  # every member inside
        self.anyone = False  # some member inside
        # steps taken and, while no member is inside, the first step after
        # which one is read again; per member, the step after which it is
        # read again while outside, and the wait after that
        self.steps, self.next_read = 0, 0
        # the next pass's length and the most it may reach: a block, or one
        # step for the edge-list and node-by-node forms; with no triple a
        # pass never fails
        self.most = _BLOCK if self.folded else 1
        self.length = 1 if stop else _BLOCK
        self.due, self.retry = np.zeros(batch, dtype=np.intp), np.ones(batch, dtype=np.intp)
        # past ``_STATE_SPACE`` a build costs the four stages of many steps;
        # per member, the step of its last build and the region its last
        # read found
        self.wary = size * batch > _STATE_SPACE
        self.built, self.seen = np.full(batch, -_BLOCK), np.where(idle, 0, -1)
        self.table = self.forcing = None

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
        changed = inside & (~self.ready[rows] | (pieces != self.pieces[rows]).any(axis=1))
        reset = inside  # members whose wait starts again at one step
        if self.wary:
            # a member that held its built region for a block is rebuilt at
            # once; any other waits a block like a member outside, and is
            # built only when the read after finds the same region
            reset = self.inside[rows] & (self.steps - self.built[rows] >= _BLOCK)
            hasty = changed & ~reset & (pieces != self.seen[rows]).any(axis=1)
            self.seen[rows] = pieces
            self.retry[rows[hasty]] = _BLOCK
            inside &= ~hasty
            changed &= ~hasty
        self.inside[rows] = inside
        self.everyone, self.anyone = bool(self.inside.all()), bool(self.inside.any())
        self.pieces[rows[inside]] = pieces[inside]
        outside = rows[~inside]
        self.due[outside] = self.steps + self.retry[outside]
        retry = self.retry[rows]
        self.retry[rows] = np.where(inside, np.where(reset, 1, retry), np.minimum(2 * retry, _BLOCK))
        if not self.anyone:
            self.next_read = int(self.due.min())
        if changed.any():
            self._build(rows[changed])
        if self.forcing is None and self.table is not None and self.anyone:
            self.forcing = self._forcing(self.table, slice(None))

    def _build(self, rows):
        if rows.size == len(self.ready):
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
        self.ready[rows] = True
        self.built[rows] = self.steps
        if self.entries:  # every stage's gathers, as the step or the stage states give them
            self.lower[rows] = np.tile(bounds[..., 0], 4)[:, None, None]
            self.upper[rows] = np.tile(bounds[..., 1], 4)[:, None, None]
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
        Each step is one product with the step plus its forcing row; the
        stage gathers of every step are checked once, when the pass ends.
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
        ys = np.empty((len(x), span, 1, self.step.shape[-1]))
        shift = self.offset if self.forcing is None else self.forcing
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
        gathers = ys[..., n:]
        if not self.folded:  # the gathers of the stage states x, X₂, X₃ and X₄
            stages = np.concatenate([store[:, k:k + span], gathers], axis=-1)
            gathers = self._gathers(stages.reshape(-1, 1, n)).reshape(ys.shape[:-1] + (-1,))
        held = (self.lower <= gathers) & (gathers <= self.upper)
        if self.everyone and held.all():
            self.steps += span
            self.length = min(2 * self.length, self.most)
            return span, None
        held = held.all(axis=(2, 3)) & self.inside[:, None]
        taken = int(held.all(axis=0).argmin()) + 1
        self.steps += taken
        self.length = 1
        return taken, np.flatnonzero(~held[:, taken - 1])


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


class _Triple(NamedTuple):
    """A stage term kernel(x @ gather) @ scatter on row states (B, 1, N·dim),
    with an elementwise kernel that may declare its affine ``pieces`` (see
    :class:`pwsync.dynamics.NodeFamily`); a dense coupling's scatter is
    c_b·S̄, and its ``factors`` the row of gains c_b (1, B) and S̄."""

    gather: object
    kernel: Callable
    scatter: object
    factors: Optional[tuple] = None


def _coupling_term(eta, topo: Topology, dim: int, gains: np.ndarray) -> _Triple:
    """The nonlinear coupling c_b·Σⱼ w_ij η(x_j − x_i) as a triple on row
    states (B, 1, N·dim), with η as its kernel.  The gather is the signed
    incidence and the scatter carries c_b·w_ij to the receiving node i:
    dense, one scatter per gain, while the gather's entries times the
    batch size are at most ``_DENSE``, else over the edge list sorted by
    receiving node (a node without edges gets a zero-weight self-loop, so
    each owns a sum)."""
    edges = topo.weights != 0.0
    isolated = np.flatnonzero(~edges.any(axis=1))
    edges[isolated, isolated] = True
    rows, cols = np.nonzero(edges)
    weights = topo.weights[rows, cols]
    n_nodes, n_edges = topo.n_nodes, rows.size
    if n_nodes * n_edges * dim * dim * gains.size > _DENSE:
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        return _Triple(Incidence(rows, cols, n_nodes), eta,
                       EdgeScatter(weights[:, None], starts, gains[:, None, None]))
    edge = np.arange(n_edges)
    incidence = np.zeros((n_nodes, n_edges))
    incidence[cols, edge] += 1.0
    incidence[rows, edge] -= 1.0
    scatter = np.zeros((n_edges, n_nodes))
    scatter[edge, rows] = weights
    eye = np.eye(dim)
    bare = np.kron(scatter, eye)
    return _Triple(np.kron(incidence, eye), eta, gains[:, None, None] * bare, (gains[None], bare))


def _family_term(family, q, idx, n_nodes: int, sgn, batch: int) -> _Triple:
    """A family's rest on the nodes ``idx`` as a triple on row states (B, 1,
    N·dim): block-diagonal matrices while the gather's entries times the
    batch size are at most ``_DENSE``, else the per-node blocks."""
    gather, scatter = family.gather(q), family.scatter(q)
    n, dim, width = gather.shape
    kernel = family.kernel(sgn)
    if n_nodes * dim * n * width * batch > _DENSE:
        return _Triple(NodeGather(gather, idx, n_nodes), kernel, NodeScatter(scatter, idx, n_nodes))
    pick = np.eye(n_nodes)[idx]
    return _Triple(np.einsum("im,idk->mdik", pick, gather).reshape(n_nodes * dim, n * width),
                   kernel, np.einsum("im,ikd->ikmd", pick, scatter).reshape(n * width, n_nodes * dim))


def _closure_term(fields, idx, n_nodes: int, sgn, history):
    """Fields without a family: h + g node by node on row states, a zero
    block in J."""

    def term(t, x):
        x = x.reshape(len(x), n_nodes, -1)
        out = np.zeros(x.shape)
        for p in range(len(x)):
            for i, f in zip(idx, fields):
                xb = x[p, i]
                out[p, i] = f.h(t, xb) + f.g(t, xb, history.node(p, i), sgn)
        return out.reshape(len(x), 1, -1)

    return term


def _node_terms(fields, sgn, history, batch: int):
    """Linear blocks Aᵢ (N, dim, dim), each family's rest as a triple (see
    :func:`_family_term`) for a batch of ``batch`` members, the families
    with time-only forcing as (family, q, node indices), and the
    hand-built fields' term (None without one).  Nodes are grouped by
    family object and each group's parameters are stacked once; fields
    without a family go through their own ``h`` and ``g``."""
    n_nodes = len(fields)
    blocks = np.zeros((n_nodes, fields[0].dim, fields[0].dim))
    groups = {}
    for i, f in enumerate(fields):
        groups.setdefault(f.family, []).append(i)
    terms, forced, closure = [], [], None
    for family, idx in groups.items():
        idx = np.array(idx)
        members = [fields[i] for i in idx]
        if family is None:
            closure = _closure_term(members, idx, n_nodes, sgn, history)
            continue
        q = family.stack([f.params for f in members])
        blocks[idx] = family.linear(q)
        if family.kernel is not None:
            terms.append(_family_term(family, q, idx, n_nodes, sgn, batch))
        if family.forcing is not None:
            forced.append((family, q, idx))
    return blocks, terms, forced, closure


def error_series(traj: Trajectory) -> ErrorSeries:
    """Deviations from the per-time node average; Σᵢ eᵢ(t) = 0 by construction."""
    n_times = traj.times.shape[0]
    blocks = traj.states.reshape(n_times, traj.n_nodes, traj.dim)
    deviations = blocks - blocks.mean(axis=1, keepdims=True)
    flat = deviations.reshape(n_times, -1)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    return ErrorSeries(traj.times, norms, flat, traj.n_nodes, traj.dim, traj.diverged, dict(traj.meta))


def steady_state_eps(series: ErrorSeries, tail_fraction: float = 0.25) -> float:
    """Largest error norm over the trailing window; inf for diverged runs."""
    if not 0.0 < tail_fraction <= 1.0:
        raise SimError("tail_fraction must lie in (0, 1]")
    if series.diverged:
        return math.inf
    cutoff = float(series.times[-1]) * (1.0 - tail_fraction)
    mask = series.times >= cutoff - 1e-12
    if int(mask.sum()) < 2:
        raise SimError("tail window holds fewer than two samples")
    return float(series.norms[mask].max())


def sweep_coupling(scenario, c_values) -> list:
    """Simulate and certify a scenario across gains; rows sorted by c.

    All gains are integrated in one pass (:func:`integrate_gains`) and
    certified from one gain-free part (:meth:`Scenario.certification`).
    Each row reports the measured residual ε̂ and, when the scenario's
    certification mode passes its hypotheses at that gain, the certified
    bound ε̄ (NaN otherwise); bad input, such as a disconnected graph, raises.
    The scenario's own ``sim`` settings apply.
    """
    cfg = scenario.sim
    gains = sorted(float(v) for v in c_values)
    trajectories = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                                   gains, scenario.x0, cfg)
    try:
        certification = scenario.certification()
    except CertifyError:  # no gain is certified
        certification = None
    rows = []
    for c, traj in zip(gains, trajectories):
        report = certification and certification.at(c)
        certified = report is not None and report.certified
        rows.append(dict(c=c, eps_hat=steady_state_eps(error_series(traj), cfg.tail_fraction),
                         eps_bar=float(report.eps_bar) if certified else math.nan,
                         certified=certified, diverged=traj.diverged))
    return rows


def write_trajectory_csv(traj: Trajectory, path, extra_meta: Optional[dict] = None) -> None:
    """Write times and stacked states; '#' meta lines precede the header."""
    header = ["t"] + [f"x_{i + 1}_{j + 1}" for i in range(traj.n_nodes) for j in range(traj.dim)]
    write_csv(path, {**traj.meta, **(extra_meta or {})}, ",".join(header),
              traj.times, traj.states)


def write_error_csv(series: ErrorSeries, path, extra_meta: Optional[dict] = None) -> None:
    """Write times, stacked error norm, and per-component deviations."""
    header = ["t", "err_norm"] + [f"e_{i + 1}_{j + 1}"
                                  for i in range(series.n_nodes) for j in range(series.dim)]
    write_csv(path, {**series.meta, **(extra_meta or {})}, ",".join(header),
              series.times, series.norms, series.errors)


def write_sweep_csv(rows: list, path, extra_meta: Optional[dict] = None) -> None:
    """Write one row per gain: c, measured ε̂, certified ε̄, flags as 0/1."""
    keys = ("c", "eps_hat", "eps_bar", "certified", "diverged")
    write_csv(path, extra_meta or {}, ",".join(keys),
              *(np.array([float(row[key]) for row in rows]) for key in keys))
