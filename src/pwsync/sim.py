"""Fixed-step RK4 integration of coupled networks.

One RK4 loop advances a state of shape (B, N, dim): B coupling gains,
each a copy of the N-node network; a gain sweep is one pass.  The nodes
of each family in :mod:`pwsync.dynamics` are stacked into parameter
arrays once per run, and a stage reads the same kernels that give each
node's ``h`` and ``g``.  Every term linear in the state sits in one
matrix per gain, J_b = blockdiag(Aᵢ) − c_b·(L ⊗ Γ), so a stage is one
batched matmul plus each family's state-dependent rest and the
nonlinear coupling summed over the edge list.  Fields without a family
go through their own ``h`` and ``g``, one node at a time.

Each family's time-only forcing is tabulated once per block of m ≤ 64
steps, at the block's 2m + 1 stage times; with m ≤ τ_min/dt, every
delayed value a block reads is already stored.  When no term depends on
the state outside J (no rest, no edge term, no hand-built field), RK4 on
x' = Jx + f(t) is exactly affine: a step is x ← x·M + g, with M =
R(dt·Jᵀ) built once per gain and the forcing rows g computed per block
in two batched products.  Every other run takes the four RK4 stages.

Switching fields are integrated with small steps plus an optional
boundary-layer sign regularization instead of an event-driven sliding
solver; delayed terms read a linearly interpolated history of the stored
trajectory.  Post-processing reduces trajectories to stacked error norms
and a steady-state residual estimate ε̂ over the final window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .certify import CertifyError, CouplingSpec
from .dynamics import AffineDecomposedField, hard_sgn, saturated_sgn
from .graph import Topology, build_laplacian

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


class SimError(ValueError):
    """Invalid simulation configuration or post-processing request."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; ``t_end`` must cover at least ten steps.

    ``regularization_width`` = 0 keeps the exact sign function (value 0 on
    the switching set); positive values saturate linearly inside the
    layer.
    """

    dt: float = 1e-3
    t_end: float = 10.0
    tail_fraction: float = 0.25
    regularization_width: float = 0.0
    divergence_threshold: float = 1e12

    def __post_init__(self):
        for name in ("dt", "t_end", "tail_fraction", "regularization_width", "divergence_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise SimError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise SimError("dt must be positive")
        if self.t_end < 10.0 * self.dt:
            raise SimError("t_end must cover at least ten steps")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise SimError("tail_fraction must lie in (0, 1]")
        if self.regularization_width < 0.0:
            raise SimError("regularization_width must be nonnegative")
        if self.divergence_threshold <= 0.0:
            raise SimError("divergence_threshold must be positive")


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

    The state has shape (B, N, dim), one row per gain, and every stage
    evaluates all of them together.  The run holds B × (steps + 1) × N ×
    dim floats.  A gain whose state leaves the divergence threshold drops
    out of the batch at that step; its trajectory ends where its own run
    would.  Returns one :class:`Trajectory` per gain, in input order.

    The step is chosen from the run's structure.  With no edge term (linear
    coupling, or every gain zero), no hand-built field and no family with
    a state-dependent rest (decay, Ikeda and Kuramoto nodes only), a step
    is one product with M = R(dt·Jᵀ) plus the step's forcing row; otherwise
    it is the four RK4 stages.  Both agree to rounding (about 1e-13 relative
    over the 15 000 steps of ikeda10-linear).
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
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((gains.size, n_steps + 1, n_nodes, dim))
    states[:, 0] = x0.reshape(n_nodes, dim)

    width = config.regularization_width
    sgn = hard_sgn if width == 0.0 else saturated_sgn(width)
    history = _History(states, dt)
    blocks, residuals, tables, time_only = _node_terms(fields, sgn, history)
    # lin is the per-gain operator on row states: Jᵀ for the staged step,
    # M = R(dt·Jᵀ) for the affine one
    lin = _linear_part(blocks, coupling, topo, gains)
    edge = _edge_sum(coupling, topo) if coupling.variant != "linear" and gains.any() else None
    affine = time_only and edge is None and lin is not None
    if affine:
        lin, weights = _affine_step(lin, dt, bool(tables))
    c_live = gains[:, None, None]
    # steps per table: within ⌊τ_min/dt⌋ steps of its start, a block's
    # delayed reads need no row past the one stored at the start
    block = min([_BLOCK] + [int(f.delay // dt) for f in fields if f.delay is not None])

    def rhs(t, stage, x):
        rows = x.reshape(len(x), 1, size)
        out = np.zeros(x.shape) if lin is None else (rows @ lin).reshape(x.shape)
        for residual in residuals:
            residual(t, stage, x, out)
        if edge is not None:
            out += c_live * edge(x)
        return out

    # the affine step keeps each state as one row (B, 1, N·dim)
    store = states.reshape(gains.size, n_steps + 1, -1, size if affine else dim)
    x = store[:, 0].copy()
    live = np.arange(gains.size)
    last = np.full(gains.size, n_steps)
    half = 0.5 * dt
    sixth = dt / 6.0
    threshold = config.divergence_threshold
    forcing = None
    for k in range(n_steps):
        j = k % block
        if j == 0 and tables:
            end = min(k + block, n_steps)
            stage_times = np.empty(2 * (end - k) + 1)
            stage_times[0::2] = times[k:end + 1]
            stage_times[1::2] = times[k:end] + half
            for table in tables:
                table.fill(stage_times)
            if affine:
                forcing = _affine_forcing(tables, weights, sixth, n_nodes, dim)
        if affine:
            x = x @ lin if forcing is None else x @ lin + forcing[j]
        else:
            stage = 2 * j
            t = times[k]
            t_half = t + half
            k1 = rhs(t, stage, x)
            k2 = rhs(t_half, stage + 1, x + half * k1)
            k3 = rhs(t_half, stage + 1, x + half * k2)
            k4 = rhs(times[k + 1], stage + 2, x + dt * k3)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.maximum.reduce(np.abs(x), axis=None) <= threshold:
            ok = np.maximum.reduce(np.abs(x), axis=(1, 2)) <= threshold
            last[live[~ok]] = k
            live, x, c_live = live[ok], x[ok], c_live[ok]
            if live.size == 0:
                break
            history.keep(live)
            for table in tables:
                table.keep(ok)
            if lin is not None:
                lin = lin[ok]
            if forcing is not None:
                weights, forcing = weights[ok], forcing[:, ok]
        store[history.rows, k + 1] = x

    run_meta = dict(method="rk4", dt=dt, t_end=float(n_steps * dt), steps=n_steps,
                    n_nodes=n_nodes, dim=dim, coupling_variant=coupling.variant,
                    coupling_label=coupling.label, regularization_width=width,
                    divergence_threshold=threshold)
    trajectories = []
    for b, c in enumerate(gains):
        end = int(last[b])
        diverged = end < n_steps
        meta = {**run_meta, "c": float(c), "diverged": diverged}
        trajectories.append(Trajectory(times[: end + 1], states[b, : end + 1].reshape(end + 1, size),
                                       n_nodes, dim, diverged=diverged, meta=meta))
    return trajectories


class _History:
    """Stored states of the live batch members, read at past times.

    ``states`` has shape (B, steps + 1, N, dim) and row 0 holds the initial
    state, which is also the history for s ≤ 0 (a negative time reads row 0
    with no interpolation).  Between grid points rows are interpolated
    linearly, except that a fraction of at most 1e-9 of a step reads the
    earlier row as is.
    """

    def __init__(self, states, dt):
        self.states = states
        self.dt = dt
        self.live = np.arange(states.shape[0])
        self.rows = slice(None)

    def keep(self, live):
        """Drop the members not in ``live`` (batch indices, ascending)."""
        self.live = self.rows = live

    def delayed(self, ts, delays, nodes):
        """States of ``nodes`` at each of ``ts`` minus that node's delay,
        for every live member: shape (len(ts), B, n, dim)."""
        s = (ts[:, None] - delays)[:, None]
        return self.read(self.live[:, None], nodes, s)

    def node(self, p, i):
        """History callable of node ``i`` in the live member at position ``p``."""
        member = int(self.live[p])
        return lambda s: self.read(member, i, np.asarray(s, dtype=float))

    def read(self, members, nodes, s):
        u = s / self.dt
        idx = np.maximum(u.astype(np.intp), 0)
        frac = (u - idx)[..., None]
        row = self.states[members, idx, nodes]
        nxt = self.states[members, idx + 1, nodes]
        return np.where(frac > 1e-9, row + frac * (nxt - row), row)


class _Terms:
    """The nodes of one family: their stacked parameters ``q``, the rest
    read at each stage, and the time-only forcing tabulated at the 2m + 1
    stage times of a block of m steps (``rows``, shape (2m + 1, B, n, …);
    row 2j at the block's step j, row 2j + 1 at its half step).
    :meth:`add` adds the rest and the stage's row in one ``+=`` on the
    components ``column`` of ``nodes``."""

    def __init__(self, family, q, idx, nodes, sgn, history):
        self.rest, self.forcing, self.column = family.rest, family.forcing, family.column
        self.q, self.idx, self.nodes, self.sgn, self.history = q, idx, nodes, sgn, history
        self.rows = None

    def add(self, t, stage, x, out):
        if self.rest is None:
            value = self.rows[stage]
        else:
            value = self.rest(self.q, x[:, self.nodes], self.sgn)
            if self.rows is not None:
                value = value + self.rows[stage]
        out[:, self.nodes, self.column] += value

    def fill(self, ts):
        history = self.history
        rows = self.forcing(self.q, ts, lambda lags: history.delayed(ts, lags, self.idx), self.sgn)
        self.rows = np.broadcast_to(rows, (ts.size, history.live.size) + rows.shape[2:])

    def keep(self, ok):
        """Keep the live members ``ok`` (a mask over the current ones)."""
        self.rows = self.rows[:, ok]


def _linear_part(blocks, coupling: CouplingSpec, topo: Topology, gains: np.ndarray):
    """J_b = blockdiag(Aᵢ) − c_b·(L ⊗ Γ) per gain, transposed to act on row
    states (B, 1, N·dim): shape (B, N·dim, N·dim), or None if all zero."""
    n_nodes, dim = blocks.shape[:2]
    size = n_nodes * dim
    jac = np.einsum("ij,ikl->ikjl", np.eye(n_nodes), blocks).reshape(size, size)
    if coupling.variant == "linear" and gains.any():
        coupled = np.kron(build_laplacian(topo).matrix, np.diag(coupling.gamma))
        jac = jac - gains[:, None, None] * coupled
    elif not jac.any():
        return None
    return np.ascontiguousarray(np.broadcast_to(jac, (gains.size, size, size)).transpose(0, 2, 1))


def _affine_step(jac_t, dt: float, forced: bool):
    """RK4 on x' = x·Jᵀ + f(t) (row states) is exactly affine: with
    A = dt·Jᵀ, x_{k+1} = x_k·M + g_k, where M = I + A + A²/2 + A³/6 + A⁴/24
    is RK4's stability function R(A) and g_k = f_k·F₀ + f_{k+½}·F½ +
    f_{k+1}·dt/6, with F₀ = dt/6·(I + A + A²/2 + A³/4) and F½ = dt/6·(4I +
    2A + A²/2).  Returns M (B, n, n) and, for a forced run, F₀ and F½
    stacked as (B, 2, n, n); each in Horner form, so no power of A is kept."""
    a = dt * jac_t
    eye = np.eye(a.shape[-1])
    m = eye + a / 4.0
    m = eye + a @ m / 3.0
    m = eye + a @ m / 2.0
    m = eye + a @ m
    if not forced:
        return m, None
    f0 = 0.5 * eye + a / 4.0
    f0 = eye + a @ f0
    f0 = eye + a @ f0
    f_half = 4.0 * eye + a @ (2.0 * eye + a / 2.0)
    return m, dt / 6.0 * np.stack([f0, f_half], axis=1)


def _affine_forcing(tables, weights, sixth: float, n_nodes: int, dim: int):
    """The affine step's forcing rows for a block of m steps, g_j = f_j·F₀ +
    f_{j+½}·F½ + f_{j+1}·dt/6 with f the tables' 2m + 1 rows summed into
    full states: shape (m, B, 1, N·dim), two batched products per block."""
    n_rows, n_live = tables[0].rows.shape[:2]
    f = np.zeros((n_rows, n_live, n_nodes, dim))
    for table in tables:
        f[:, :, table.nodes, table.column] += table.rows
    f = f.reshape(n_rows, n_live, n_nodes * dim).transpose(1, 0, 2)
    g = f[:, :-1:2] @ weights[:, 0] + f[:, 1::2] @ weights[:, 1] + sixth * f[:, 2::2]
    return np.ascontiguousarray(g.transpose(1, 0, 2)[:, :, None])


def _edge_sum(coupling: CouplingSpec, topo: Topology):
    """Σⱼ w_ij η(x_j − x_i) over the edge list, x (B, N, dim) -> (B, N, dim);
    a node without edges gets a zero-weight self-loop, so each owns a sum."""
    edges = topo.weights != 0.0
    isolated = np.flatnonzero(~edges.any(axis=1))
    edges[isolated, isolated] = True
    rows, cols = np.nonzero(edges)
    weights = topo.weights[rows, cols][:, None]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    eta = coupling.eta

    def term(x):
        diffs = x.take(cols, axis=1) - x.take(rows, axis=1)
        return np.add.reduceat(weights * eta(diffs), starts, axis=1)

    return term


def _closure_terms(fields, idx, sgn, history):
    """Fields without a family: a zero block; h + g node by node."""

    def residual(t, stage, x, out):
        for p in range(x.shape[0]):
            for i, f in zip(idx, fields):
                xb = x[p, i]
                out[p, i] += f.h(t, xb) + f.g(t, xb, history.node(p, i), sgn)

    return residual


def _node_terms(fields, sgn, history):
    """Linear blocks Aᵢ (N, dim, dim), the residuals that add h + g − Aᵢx
    into a stage's ``out``, the :class:`_Terms` whose forcing is tabulated,
    and whether every residual depends on time only.  Nodes are grouped by
    family object and each group's parameters are stacked once; fields
    without a family go through their own ``h`` and ``g``."""
    blocks = np.zeros((len(fields), fields[0].dim, fields[0].dim))
    groups = {}
    for i, f in enumerate(fields):
        groups.setdefault(f.family, []).append(i)
    residuals, tables = [], []
    time_only = None not in groups
    for family, idx in groups.items():
        idx = np.array(idx)
        nodes = slice(None) if idx.size == len(fields) else idx
        members = [fields[i] for i in idx]
        if family is None:
            residuals.append(_closure_terms(members, idx, sgn, history))
            continue
        terms = _Terms(family, family.stack([f.params for f in members]), idx, nodes, sgn, history)
        blocks[idx] = family.linear(terms.q)
        if family.forcing is not None:
            tables.append(terms)
        if family.rest is not None or family.forcing is not None:
            residuals.append(terms.add)
        time_only &= family.rest is None
    return blocks, residuals, tables, time_only


def error_series(traj: Trajectory) -> ErrorSeries:
    """Deviations from the per-time node average; Σᵢ eᵢ(t) = 0 by construction."""
    n_times = traj.times.shape[0]
    blocks = traj.states.reshape(n_times, traj.n_nodes, traj.dim)
    deviations = blocks - blocks.mean(axis=1, keepdims=True)
    flat = deviations.reshape(n_times, -1)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    return ErrorSeries(
        times=traj.times,
        norms=norms,
        errors=flat,
        n_nodes=traj.n_nodes,
        dim=traj.dim,
        diverged=traj.diverged,
        meta=dict(traj.meta),
    )


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


def sweep_coupling(scenario, c_values, config: Optional[SimConfig] = None) -> list:
    """Simulate and certify a scenario across gains; rows sorted by c.

    All gains are integrated in one pass (:func:`integrate_gains`).  Each
    row reports the measured residual ε̂ and, when the scenario's
    certification mode passes its hypotheses at that gain, the certified
    bound ε̄ (NaN otherwise); bad input, such as a disconnected graph, raises.
    """
    cfg = config if config is not None else scenario.sim
    gains = sorted(float(v) for v in c_values)
    trajectories = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                                   gains, scenario.x0, cfg)
    rows = []
    for c, traj in zip(gains, trajectories):
        eps_hat = steady_state_eps(error_series(traj), cfg.tail_fraction)
        eps_bar = math.nan
        certified = False
        try:
            report = scenario.certify(c=c)
            if report.certified:
                eps_bar = float(report.eps_bar)
                certified = True
        except CertifyError:  # not certified at this gain
            pass
        rows.append({
            "c": c,
            "eps_hat": eps_hat,
            "eps_bar": eps_bar,
            "certified": certified,
            "diverged": traj.diverged,
        })
    return rows


def _meta_lines(meta: dict) -> list:
    return [f"# {key} = {meta[key]}" for key in sorted(meta)]


def _write_csv(path, meta: dict, header: str, *columns) -> None:
    """'#' meta lines, the header, then one line per row of the stacked
    columns, each float as ``f"{v:.17g}"``.  Rows are formatted about 4096
    values at a time, so no whole table of Python floats is held at once."""
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    block = max(1, 4096 // table.shape[1])
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in _meta_lines(meta) + [header]))
        for start in range(0, table.shape[0], block):
            fh.write("".join([fmt % tuple(row) for row in table[start:start + block].tolist()]))


def write_trajectory_csv(traj: Trajectory, path, extra_meta: Optional[dict] = None) -> None:
    """Write times and stacked states; '#' meta lines precede the header."""
    header = ["t"] + [f"x_{i + 1}_{j + 1}" for i in range(traj.n_nodes) for j in range(traj.dim)]
    _write_csv(path, {**traj.meta, **(extra_meta or {})}, ",".join(header),
               traj.times, traj.states)


def write_error_csv(series: ErrorSeries, path, extra_meta: Optional[dict] = None) -> None:
    """Write times, stacked error norm, and per-component deviations."""
    header = ["t", "err_norm"] + [f"e_{i + 1}_{j + 1}"
                                  for i in range(series.n_nodes) for j in range(series.dim)]
    _write_csv(path, {**series.meta, **(extra_meta or {})}, ",".join(header),
               series.times, series.norms, series.errors)


def write_sweep_csv(rows: list, path, extra_meta: Optional[dict] = None) -> None:
    """Write one row per gain: c, measured ε̂, certified ε̄, flags as 0/1."""
    keys = ("c", "eps_hat", "eps_bar", "certified", "diverged")
    _write_csv(path, extra_meta or {}, ",".join(keys),
               *(np.array([float(row[key]) for row in rows]) for key in keys))
