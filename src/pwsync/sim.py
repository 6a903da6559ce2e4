"""Fixed-step RK4 integration of coupled networks.

One RK4 loop advances B coupling gains at once, each a copy of the
N-node network held as one row state of N·dim entries, shape (B, 1,
N·dim); a gain sweep is one pass.  The nodes of each family in
:mod:`pwsync.dynamics` are stacked into parameter arrays once per run.
Every term linear in the state sits in one dense matrix per gain, J_b =
blockdiag(Aᵢ) − c_b·(L ⊗ Γ).  Every state-dependent term is one triple,
added as kernel(x @ G) @ S: a family's rest and the nonlinear coupling,
dense or over the edge list (:mod:`pwsync.sparse`).  Fields without a
family go through their own ``h`` and ``g``.

The run goes in blocks of m ≤ 64 steps, with m ≤ τ_min/dt so that every
delayed value a block reads is already stored.  Each family's time-only
forcing is tabulated once per block, at its 2m + 1 stage times, into one
table of full rows.  When a block ends, the divergence guard reads its
stored rows once: a gain past the threshold ends its trajectory at the
step before and restarts from zero; the batch keeps its B rows.  A step
is a region step, the chained step or RK4's four stages
(:mod:`pwsync.affine` describes and chooses them).

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
from typing import Optional, Sequence

import numpy as np

from .affine import BLOCK, choose_step
from .certify import CertifyError, CouplingSpec, check_network
from .csvformat import write_csv
from .dynamics import AffineDecomposedField, hard_sgn, saturated_sgn
from .graph import Topology, build_laplacian
from .scenarios import SimConfig, SimError
from .sparse import coupling_term, family_term

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

    The step is chosen per member and step among region steps, the
    chained step and the four stages (:func:`pwsync.affine.choose_step`);
    the forms agree to rounding.
    """
    n_nodes, dim = topo.n_nodes, check_network(fields, topo, coupling, x0, SimError)
    size = n_nodes * dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.isfinite(x0).all():
        raise SimError("x0 must be finite")
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
        terms.append(coupling_term(coupling.eta, topo, dim, gains))
    # steps per table: within ⌊τ_min/dt⌋ steps of its start, a block's
    # delayed reads need no row past the one stored at the start
    block = min([BLOCK] + [int(f.delay // dt) for f in fields if f.delay is not None])
    regions, chained = choose_step(jac_t, terms, closure is not None, gains.size, size, dt,
                                   bool(forced), min(block, n_steps))

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
    earlier row as is.  A read gathers its rows by one flat index into
    ``rows``, (B·(steps + 1)·N, dim), a view of ``states``.
    """

    def __init__(self, states, dt):
        self.states, self.dt = states, dt
        self.rows = states.reshape(-1, states.shape[-1])

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
        _, length, n_nodes, _ = self.states.shape
        flat = (members * length + idx) * n_nodes + nodes
        row = self.rows.take(flat, axis=0)
        nxt = self.rows.take(flat + n_nodes, axis=0)
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
    :func:`pwsync.sparse.family_term`) for a batch of ``batch`` members, the families
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
            terms.append(family_term(family, q, idx, n_nodes, sgn, batch))
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
