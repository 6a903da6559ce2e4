"""Fixed-step RK4 integration of coupled networks.

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
from .graph import GraphError, Topology, build_laplacian

__all__ = [
    "SimError",
    "SimConfig",
    "Trajectory",
    "ErrorSeries",
    "integrate",
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

    Delayed fields require their delay to be at least one step so that
    stage evaluations never read ahead of the stored history; before t=0
    the history is the constant initial state.
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

    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, size))
    states[0] = x0

    for f in fields:
        if f.delay is not None and f.delay < dt:
            raise SimError("a delay shorter than one step cannot be resolved")

    width = config.regularization_width
    sgn = hard_sgn if width == 0.0 else saturated_sgn(width)

    def make_history(block, x0_block):
        def history(s):
            if s <= 0.0:
                return x0_block
            u = s / dt
            idx = int(u)
            frac = u - idx
            row = states[idx, block]
            if frac <= 1e-9:
                return row
            nxt = states[idx + 1, block]
            return row + frac * (nxt - row)

        return history

    c = coupling.c
    if c == 0.0:
        def coupling_term(x):
            return np.zeros(size)
    elif coupling.variant == "linear":
        gamma = coupling.gamma
        if gamma.shape != (dim,):
            raise SimError("gamma must have one entry per state component")
        c_lap = c * build_laplacian(topo).matrix

        def coupling_term(x):
            blocks = x.reshape(n_nodes, dim)
            return -((c_lap @ blocks) * gamma).reshape(size)
    else:
        eta = coupling.eta
        if coupling.upsilon.shape != (dim,):
            raise SimError("upsilon must have one entry per state component")
        weights = topo.weights

        def coupling_term(x):
            blocks = x.reshape(n_nodes, dim)
            diffs = blocks[None, :, :] - blocks[:, None, :]
            return (c * np.einsum("ij,ijk->ik", weights, eta(diffs))).reshape(size)

    node_eval = []
    for i, f in enumerate(fields):
        block = slice(i * dim, (i + 1) * dim)
        node_eval.append((block, f.h, f.g, make_history(block, x0[block].copy())))

    def rhs(t, x):
        out = coupling_term(x)
        for block, h, g, hist in node_eval:
            xb = x[block]
            out[block] += h(t, xb) + g(t, xb, hist, sgn)
        return out

    x = x0.copy()
    half = 0.5 * dt
    sixth = dt / 6.0
    threshold = config.divergence_threshold
    diverged = False
    last = n_steps
    for k in range(n_steps):
        t = times[k]
        k1 = rhs(t, x)
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        peak = float(np.abs(x).max())
        if not math.isfinite(peak) or peak > threshold:
            diverged = True
            last = k
            break
        states[k + 1] = x

    meta = {
        "method": "rk4",
        "dt": dt,
        "t_end": float(n_steps * dt),
        "steps": n_steps,
        "n_nodes": n_nodes,
        "dim": dim,
        "coupling_variant": coupling.variant,
        "coupling_label": coupling.label,
        "c": c,
        "regularization_width": width,
        "divergence_threshold": threshold,
        "diverged": diverged,
        "seed": config.seed,
    }
    return Trajectory(
        times=times[: last + 1],
        states=states[: last + 1],
        n_nodes=n_nodes,
        dim=dim,
        diverged=diverged,
        meta=meta,
    )


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

    Each row reports the measured residual ε̂ and, when the scenario's
    certification mode passes its hypotheses at that gain, the certified
    bound ε̄ (NaN otherwise).
    """
    cfg = config if config is not None else scenario.sim
    rows = []
    for c in sorted(float(v) for v in c_values):
        if c < 0.0:
            raise SimError("sweep gains must be nonnegative")
        traj = integrate(scenario.fields, scenario.topo,
                         scenario.coupling.with_gain(c), scenario.x0, cfg)
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
