"""Calibration kernel that turns wall seconds into machine-normalised seconds.

The kernel imitates the program's hot path without importing it: a
Python RK4 loop over a small network, one NumPy call per node and stage.
A command's normalised time is its wall time multiplied by
``NOMINAL_S / kernel_seconds``, with the kernel timed right before and
right after the command, so a host that runs everything at half speed
leaves normalised times unchanged.

Frozen: changing the kernel, its sizes or ``NOMINAL_S`` rebases every
number the benchmark has reported.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.010
"""Nominal kernel time, a round figure between the kernel's medians on the
reference 2-vCPU host in its fast (5.2 ms) and slow (12 ms) periods."""

_NODES = 6
_DIM = 2
_STEPS = 60
_DT = 0.01
_REPEATS = 5


def _network():
    rng = np.random.default_rng(20140407)
    a = [np.array([[-1.0, 0.5], [-0.5, -1.0]]) * (1.0 + 0.1 * i) for i in range(_NODES)]
    w = (rng.random((_NODES, _NODES)) < 0.5).astype(float)
    w = np.triu(w, 1)
    w = w + w.T
    lap = np.diag(w.sum(axis=1)) - w
    x0 = rng.normal(size=_NODES * _DIM)
    return a, lap, x0


_A, _LAP, _X0 = _network()


def _rhs(t, x):
    blocks = x.reshape(_NODES, _DIM)
    out = -(_LAP @ blocks).reshape(-1)
    for i in range(_NODES):
        xb = x[i * _DIM:(i + 1) * _DIM]
        out[i * _DIM:(i + 1) * _DIM] += _A[i] @ xb + np.sin(xb - 0.1 * t)
    return out


def kernel_once() -> float:
    """One fixed RK4 integration; returns a checksum of the final state."""
    x = _X0.copy()
    half, sixth = 0.5 * _DT, _DT / 6.0
    for k in range(_STEPS):
        t = k * _DT
        k1 = _rhs(t, x)
        k2 = _rhs(t + half, x + half * k1)
        k3 = _rhs(t + half, x + half * k2)
        k4 = _rhs(t + _DT, x + _DT * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return float(np.abs(x).sum())


def sample() -> float:
    """Median wall seconds of a few kernel runs, after one warm-up run.

    The warm-up refills the caches a long command has just evicted.
    """
    kernel_once()
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        check = kernel_once()
        times.append(time.perf_counter() - t0)
        if not math.isfinite(check):
            raise RuntimeError("calibration kernel produced a non-finite state")
    times.sort()
    return times[len(times) // 2]
