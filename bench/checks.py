"""Output checks that do not trust the program.

Each check compares what ``pwsync`` wrote against an independent
computation (``numpy.linalg.eigvalsh``, a closed form, a recomputed
error norm) or a property the method must have, and raises
``CheckError`` when the output disagrees.  ``verify`` reads one
command's output files and applies every check that fits it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import FACTS, Command, Facts


class CheckError(AssertionError):
    """An output the benchmark rejects."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def laplacian_lambda2(weights) -> float:
    """Second-smallest eigenvalue of diag(W·1) − W, by LAPACK."""
    w = np.asarray(weights, dtype=float)
    return float(np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)[1])


def upsilon_closed_form(eta: str, e_max: float) -> float:
    """inf of eta(z)/z over 0 < z <= e_max for the two odd couplings."""
    if eta == "sin":
        return math.sin(e_max) / e_max
    if eta == "pws":
        # ((z - 1)^2 + 1)/z is smallest at z = sqrt(2); below z = 1 the ratio is 1.
        return 2.0 * math.sqrt(2.0) - 2.0 if e_max >= math.sqrt(2.0) else 1.0
    raise ValueError(f"no closed form for eta '{eta}'")


def deviation_norms(states, n_nodes: int, dim: int) -> np.ndarray:
    """‖x(t) − mean over nodes‖₂ per time row."""
    blocks = np.asarray(states, dtype=float).reshape(len(states), n_nodes, dim)
    dev = blocks - blocks.mean(axis=1, keepdims=True)
    return np.sqrt((dev ** 2).sum(axis=(1, 2)))


# ---------------------------------------------------------------------------
# checks on values
# ---------------------------------------------------------------------------


def check_lambda2(reported: float, weights, exact=None):
    ref = laplacian_lambda2(weights)
    _require(abs(reported - ref) <= 1e-9 * max(1.0, ref),
             f"lambda2 {reported!r} differs from eigvalsh {ref!r}")
    if exact is not None:
        _require(abs(reported - exact) <= 1e-9 * exact,
                 f"lambda2 {reported!r} is not the rescaled {exact!r}")


def check_upsilon(reported: float, eta: str, e_max: float):
    ref = upsilon_closed_form(eta, e_max)
    _require(reported <= ref * (1.0 + 1e-12),
             f"upsilon {reported!r} exceeds the closed form {ref!r} for {eta}")
    _require(reported >= ref * (1.0 - 1e-6),
             f"upsilon {reported!r} is far below the closed form {ref!r} for {eta}")


def check_eps(eps_hat: float, eps_bar: float, certified: bool, where: str):
    """A certified, nonzero residual bound must cover the measured residual."""
    if certified and eps_bar > 0.0:
        _require(eps_hat <= eps_bar, f"{where}: eps_hat {eps_hat!r} > eps_bar {eps_bar!r}")


def check_recomputed(reported: float, recomputed: float, what: str):
    _require(abs(reported - recomputed) <= 1e-9 * max(abs(recomputed), 1e-300),
             f"{what} {reported!r} differs from the recomputed {recomputed!r}")


def check_decay(times, norms, rate: float, c: float, lam2: float):
    """Identical decay nodes: ‖e(t)‖ ≤ e^{−(rate + c λ₂) t} ‖e(0)‖.

    The slack 1e-6 covers RK4's local error on the slowest mode.
    """
    bound = np.exp(-(rate + c * lam2) * np.asarray(times)) * norms[0]
    excess = np.asarray(norms) - bound * (1.0 + 1e-6) - 1e-12
    _require(float(excess.max()) <= 0.0,
             f"error norm exceeds the decay envelope by {float(excess.max()):.3e}")


def check_closed_form(times, states, rate: float, c: float, lam2: float):
    """Decay nodes on a complete graph, where every nonzero Laplacian
    eigenvalue is λ₂: x = m e^{−rate t} + (x₀ − m) e^{−(rate + c λ₂) t}."""
    states = np.asarray(states, dtype=float)
    x0 = states[0]
    m = x0.mean()
    t = np.asarray(times)[:, None]
    exact = m * np.exp(-rate * t) + (x0 - m) * np.exp(-(rate + c * lam2) * t)
    err = float(np.abs(states - exact).max())
    _require(err <= 1e-8 * max(1.0, float(np.abs(x0).max())),
             f"state departs from the closed form by {err:.3e}")


def check_mean_zero(states):
    drift = float(np.abs(np.asarray(states).mean(axis=1)).max())
    _require(drift <= 1e-10, f"node average drifts to {drift:.3e}")


def check_history_read(t_tail: float, fields):
    """Delayed nodes must read their stored history, not the constant
    initial state, at every step of the tail window: t − τ > 0 there."""
    delays = [f.delay for f in fields if f.delay is not None]
    if delays:
        _require(t_tail > max(delays),
                 f"tail window starts at t={t_tail:g}, not past the longest delay "
                 f"{max(delays):g}, so the delayed feedback is still the initial state")


def sweep_gains(grid) -> np.ndarray:
    c_min, c_max, points, spacing = grid
    if spacing == "log":
        return np.geomspace(c_min, c_max, points)
    return np.linspace(c_min, c_max, points)


def check_sweep_rows(c_col, gains):
    c_col = np.asarray(c_col, dtype=float)
    _require(c_col.shape == gains.shape, f"{c_col.size} sweep rows for {gains.size} gains")
    _require(bool(np.all(np.diff(c_col) > 0.0)), "sweep rows are not sorted by gain")
    _require(bool(np.allclose(c_col, gains, rtol=1e-12, atol=0.0)),
             "sweep rows do not match the gain grid")


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


def read_csv(path: Path):
    """Return (header, data) of a CSV whose '#' metadata lines precede the header."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return lines[0].strip().split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def _certify_checks(report: dict, scenario, facts: Facts):
    _require(report["certified"] is True, "report is not certified at the scenario gain")
    check_lambda2(float(report["lambda2"]), scenario.topo.weights, facts.lambda2)
    if facts.eta is not None:
        check_upsilon(float(report["upsilon"][0]), facts.eta, facts.e_max)


def _simulate_checks(outdir: Path, scenario, facts: Facts):
    summary = read_summary(outdir / "summary.txt")
    _require(summary.get("diverged") == "no", "simulation diverged")
    _require(summary.get("certified") == "yes", "simulate did not certify the scenario")
    _, traj = read_csv(outdir / "trajectory.csv")
    times, states = traj[:, 0], traj[:, 1:]
    n_nodes, dim = scenario.topo.n_nodes, scenario.dim
    norms = deviation_norms(states, n_nodes, dim)
    _, errs = read_csv(outdir / "errors.csv")
    _require(errs.shape[0] == traj.shape[0], "errors.csv and trajectory.csv differ in length")
    _require(bool(np.allclose(errs[:, 1], norms, rtol=1e-9, atol=1e-300)),
             "errors.csv norms differ from the trajectory's deviations")
    t_tail = times[-1] * (1.0 - scenario.sim.tail_fraction)
    check_history_read(t_tail, scenario.fields)
    tail = times >= t_tail - 1e-12
    eps_hat = float(summary["eps_hat"])
    check_recomputed(eps_hat, float(norms[tail].max()), "eps_hat")
    check_eps(eps_hat, float(summary["eps_bar"]), True, scenario.name)
    c = scenario.coupling.c
    if facts.decay_rate is not None:
        lam2 = laplacian_lambda2(scenario.topo.weights)
        check_decay(times, norms, facts.decay_rate, c, lam2)
        if facts.closed_form:
            check_closed_form(times, states, facts.decay_rate, c, lam2)
    if facts.mean_zero:
        check_mean_zero(states)


def _sweep_checks(outdir: Path, scenario, facts: Facts, cmd: Command):
    header, data = read_csv(outdir / "sweep.csv")
    col = {name: data[:, i] for i, name in enumerate(header)}
    check_sweep_rows(col["c"], sweep_gains(cmd.grid))
    _require(not col["diverged"].any(), "a sweep row diverged")
    _require(bool(col["certified"].any()), "no sweep row is certified")
    t_end = scenario.sim.t_end if cmd.t_end is None else cmd.t_end
    t_cut = t_end * (1.0 - scenario.sim.tail_fraction)
    check_history_read(t_cut, scenario.fields)
    for c, eps_hat, eps_bar, certified in zip(col["c"], col["eps_hat"], col["eps_bar"],
                                              col["certified"]):
        check_eps(float(eps_hat), float(eps_bar), bool(certified), f"{scenario.name} at c={c:g}")
    if facts.decay_rate is not None:
        # eps_bar is 0 for identical nodes: bound the tail window by the
        # decay envelope at its start instead.
        lam2 = laplacian_lambda2(scenario.topo.weights)
        e0 = float(deviation_norms(scenario.x0[None, :], scenario.topo.n_nodes, scenario.dim)[0])
        for c, eps_hat in zip(col["c"], col["eps_hat"]):
            envelope = e0 * math.exp(-(facts.decay_rate + c * lam2) * t_cut)
            _require(eps_hat <= envelope * (1.0 + 1e-6) + 1e-12,
                     f"c={c:g}: eps_hat {eps_hat!r} above the decay envelope {envelope!r}")


def verify(cmd: Command, outdir: Path, scenario):
    """Raise CheckError unless the command's outputs pass every check."""
    facts = FACTS.get(cmd.scenario, Facts())
    if cmd.kind == "certify":
        report = json.loads((outdir / "report.json").read_text())["report"]
        _certify_checks(report, scenario, facts)
    elif cmd.kind == "simulate":
        _simulate_checks(outdir, scenario, facts)
    else:
        _sweep_checks(outdir, scenario, facts, cmd)
