"""Fixed-step RK4 integration of coupled networks.

One RK4 loop advances a state of shape (B, N, dim): B coupling gains,
each a copy of the N-node network.  A single run is a batch of one; a
gain sweep integrates its whole grid in one pass.  Nodes whose fields
record a family (see ``dynamics``) are evaluated all at once from
per-node parameter arrays; other fields go through their own ``h`` and
``g``, one node at a time.  The nonlinear coupling is summed over the
edge list.

Switching fields are integrated with small steps plus an optional
boundary-layer sign regularization instead of an event-driven sliding
solver; delayed terms read a linearly interpolated history of the stored
trajectory, one vectorized lookup with per-node delays.  Post-processing
reduces trajectories to stacked error norms and a steady-state residual
estimate ε̂ over the final window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .certify import CertifyError, CouplingSpec
from .dynamics import AffineDecomposedField, hard_sgn, saturated_sgn
from .graph import GraphError, Topology, build_laplacian

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


class SimError(ValueError):
    """Invalid simulation configuration or post-processing request."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; ``t_end`` must cover at least ten steps.

    ``regularization_width`` = 0 keeps the exact sign function (value 0 on
    the switching set); positive values saturate linearly inside the
    layer.  ``seed`` does not influence the integrator itself (it is
    deterministic); it is echoed so outputs document the scenario draw
    they belong to.
    """

    dt: float = 1e-3
    t_end: float = 10.0
    tail_fraction: float = 0.25
    regularization_width: float = 0.0
    seed: int = 0
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
    """Per-time deviations from the node average and their stacked norm."""

    times: np.ndarray
    norms: np.ndarray
    errors: np.ndarray
    diverged: bool = False
    meta: dict = field(default_factory=dict)


def integrate(fields: Sequence[AffineDecomposedField], topo: Topology,
              coupling: CouplingSpec, x0, config: SimConfig) -> Trajectory:
    """Integrate the coupled network with classical RK4 at fixed step.

    A batch of one gain through :func:`integrate_gains`.  Delayed fields
    require their delay to be at least one step so that stage evaluations
    never read ahead of the stored history; before t=0 the history is the
    constant initial state.
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
    kernels = _node_kernels(fields, sgn, history)
    couple = _coupling_term(coupling, topo, gains)

    def rhs(t, x):
        out = couple(x)
        for nodes, hg in kernels:
            out[:, nodes] += hg(t, x[:, nodes])
        return out

    x = states[:, 0].copy()
    live = np.arange(gains.size)
    last = np.full(gains.size, n_steps)
    half = 0.5 * dt
    sixth = dt / 6.0
    threshold = config.divergence_threshold
    for k in range(n_steps):
        t = times[k]
        k1 = rhs(t, x)
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.maximum.reduce(np.abs(x), axis=None) <= threshold:
            ok = np.maximum.reduce(np.abs(x), axis=(1, 2)) <= threshold
            last[live[~ok]] = k
            live, x = live[ok], x[ok]
            if live.size == 0:
                break
            history.keep(live)
            couple = _coupling_term(coupling, topo, gains[live])
        states[history.rows, k + 1] = x

    trajectories = []
    for b, c in enumerate(gains):
        end = int(last[b])
        diverged = end < n_steps
        meta = {
            "method": "rk4",
            "dt": dt,
            "t_end": float(n_steps * dt),
            "steps": n_steps,
            "n_nodes": n_nodes,
            "dim": dim,
            "coupling_variant": coupling.variant,
            "coupling_label": coupling.label,
            "c": float(c),
            "regularization_width": width,
            "divergence_threshold": threshold,
            "diverged": diverged,
            "seed": config.seed,
        }
        trajectories.append(Trajectory(
            times=times[: end + 1],
            states=states[b, : end + 1].reshape(end + 1, size),
            n_nodes=n_nodes,
            dim=dim,
            diverged=diverged,
            meta=meta,
        ))
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
        self.rows = self._members = slice(None)
        self._last = (None, None, None)

    def keep(self, live):
        """Drop the members not in ``live`` (batch indices, ascending)."""
        self.live = self.rows = live
        self._members = live[:, None]
        self._last = (None, None, None)

    def __call__(self, t, delays, nodes):
        """States of ``nodes`` at t − ``delays`` (one delay each), shape
        (B, n, dim).  Stages at one time read the same stored rows (no delay
        is shorter than a step), so the last result is reused."""
        last_t, last_delays, rows = self._last
        if t != last_t or delays is not last_delays:
            rows = self.read(self._members, nodes, t - delays)
            self._last = (t, delays, rows)
        return rows

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


def _coupling_term(coupling: CouplingSpec, topo: Topology, gains: np.ndarray):
    """Coupling term x (B, N, dim) -> (B, N, dim) for one gain per row of x."""
    if not gains.any():
        return lambda x: np.zeros(x.shape)
    c = gains[:, None, None]
    if coupling.variant == "linear":
        c_lap = c * build_laplacian(topo).matrix
        neg_gamma = -coupling.gamma
        return lambda x: np.matmul(c_lap, x) * neg_gamma
    # Σⱼ w_ij η(x_j − x_i) over the edge list, summed per receiving node.
    rows, cols = np.nonzero(topo.weights)
    weights = topo.weights[rows, cols][:, None]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    targets = rows[starts]
    eta = coupling.eta

    def term(x):
        diffs = x.take(cols, axis=1) - x.take(rows, axis=1)
        return c * np.add.reduceat(weights * eta(diffs), starts, axis=1)

    if targets.size == topo.n_nodes:
        return term

    def scattered(x):
        out = np.zeros(x.shape)
        if targets.size:
            out[:, targets] = term(x)
        return out

    return scattered


def _column(fields, key):
    return np.array([f.params[key] for f in fields], dtype=float)[:, None]


def _ikeda_kernel(fields, nodes, sgn, history):
    neg_a = -_column(fields, "a")
    b = _column(fields, "b")
    tau = _column(fields, "tau")[:, 0]
    return lambda t, x: neg_a * x + b * np.sin(history(t, tau, nodes))


def _chua_kernel(fields, nodes, sgn, history):
    alpha, beta, sa, sb, offset = (
        _column(fields, key)[:, 0] for key in ("alpha", "beta", "slope_a", "slope_b", "offset"))
    half_span = 0.5 * (sa - sb)

    def hg(t, x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        phi = sb * x1 + half_span * (np.abs(x1 + 1.0) - np.abs(x1 - 1.0))
        return np.stack(
            [alpha * (x2 - x1 - phi) + sgn(np.sin(t - offset)), x1 - x2 + x3, -beta * x2],
            axis=-1,
        )

    return hg


def _relay_kernel(fields, nodes, sgn, history):
    a_t = np.array([f.params["a_matrix"].T for f in fields])
    b = np.array([f.params["b_vector"] for f in fields])
    c = np.array([f.params["c_vector"] for f in fields])[..., None]

    def hg(t, x):
        row = x[..., None, :]
        return (row @ a_t)[..., 0, :] - sgn((row @ c)[..., 0, 0])[..., None] * b

    return hg


def _kuramoto_kernel(fields, nodes, sgn, history):
    detune = _column(fields, "detune")
    return lambda t, x: detune


def _decay_kernel(fields, nodes, sgn, history):
    neg_rate = -_column(fields, "rate")
    return lambda t, x: neg_rate * x


def _closure_kernel(fields, nodes, sgn, history):
    """Fields without a recorded family: their own h and g, node by node."""

    def hg(t, x):
        out = np.empty(x.shape)
        for p in range(x.shape[0]):
            for j, f in enumerate(fields):
                xb = x[p, j]
                out[p, j] = f.h(t, xb) + f.g(t, xb, history.node(p, nodes[j]), sgn)
        return out

    return hg


_FAMILY_KERNELS = {
    "ikeda": _ikeda_kernel,
    "chua": _chua_kernel,
    "relay": _relay_kernel,
    "kuramoto": _kuramoto_kernel,
    "decay": _decay_kernel,
}


def _node_kernels(fields, sgn, history) -> list:
    """(nodes, h + g evaluator) per family; ``nodes`` indexes the node axis."""
    groups = {}
    for i, f in enumerate(fields):
        groups.setdefault(f.family if f.family in _FAMILY_KERNELS else None, []).append(i)
    kernels = []
    for family, idx in groups.items():
        members = [fields[i] for i in idx]
        build = _FAMILY_KERNELS.get(family, _closure_kernel)
        nodes = slice(None) if len(idx) == len(fields) else np.array(idx)
        kernels.append((nodes, build(members, np.arange(len(fields))[nodes], sgn, history)))
    return kernels


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
    bound ε̄ (NaN otherwise).
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
        except (CertifyError, GraphError):
            pass
        rows.append({
            "c": c,
            "eps_hat": eps_hat,
            "eps_bar": eps_bar,
            "certified": certified,
            "diverged": traj.diverged,
        })
    return rows


def _fmt_float(v: float) -> str:
    return f"{float(v):.17g}"


def _meta_lines(meta: dict) -> list:
    return [f"# {key} = {meta[key]}" for key in sorted(meta)]


def write_trajectory_csv(traj: Trajectory, path, extra_meta: Optional[dict] = None) -> None:
    """Write times and stacked states; '#' meta lines precede the header."""
    meta = dict(traj.meta)
    if extra_meta:
        meta.update(extra_meta)
    header = ["t"] + [
        f"x_{i + 1}_{j + 1}" for i in range(traj.n_nodes) for j in range(traj.dim)
    ]
    lines = _meta_lines(meta)
    lines.append(",".join(header))
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([_fmt_float(t)] + [_fmt_float(v) for v in row]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_csv(series: ErrorSeries, path, extra_meta: Optional[dict] = None) -> None:
    """Write times, stacked error norm, and per-component deviations."""
    meta = dict(series.meta)
    if extra_meta:
        meta.update(extra_meta)
    n_nodes = int(meta.get("n_nodes", 0)) or 1
    dim = series.errors.shape[1] // n_nodes
    header = ["t", "err_norm"] + [
        f"e_{i + 1}_{j + 1}" for i in range(n_nodes) for j in range(dim)
    ]
    lines = _meta_lines(meta)
    lines.append(",".join(header))
    for t, norm, row in zip(series.times, series.norms, series.errors):
        lines.append(
            ",".join([_fmt_float(t), _fmt_float(norm)] + [_fmt_float(v) for v in row])
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(rows: list, path, extra_meta: Optional[dict] = None) -> None:
    """Write one row per gain: c, measured ε̂, certified ε̄, flags as 0/1."""
    lines = _meta_lines(extra_meta or {})
    lines.append("c,eps_hat,eps_bar,certified,diverged")
    for row in rows:
        lines.append(",".join([
            _fmt_float(row["c"]),
            _fmt_float(row["eps_hat"]),
            _fmt_float(row["eps_bar"]),
            "1" if row["certified"] else "0",
            "1" if row["diverged"] else "0",
        ]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
