"""Node vector fields split as f = h + g: a smooth part h amenable to a
quadratic contraction certificate, plus a norm-bounded part g that may
switch, carry a delay, or simply differ from node to node.

Five concrete families are provided: a delayed scalar saturation
oscillator (Ikeda), a double-scroll circuit with square-wave forcing
(Chua), a linear plant under relay feedback, phase oscillators reduced
to their error field (Kuramoto), and plain linear decay.

Conventions: ``h(t, x)`` must broadcast over leading axes of ``x``
(shape (..., dim)), which lets the certificate sampler evaluate it in
batches. ``g(t, x, history, sgn)`` takes one state at a time; ``history``
is a callable mapping a past time to that node's state block (only used
by delayed fields), and ``sgn`` is the sign function in effect (exact or
boundary-layer regularized).

Each family builder also records ``family`` and ``params`` on the field.
The integrator splits a recorded family into its linear block and a
residual, evaluated for all its nodes at once from those parameters.
Ikeda's delayed sine and Chua's forcing depend only on time and stored
history, so the integrator tabulates them once per block of steps, one
vectorized delayed-history read for all stage times of the block.  It
calls ``h`` and ``g`` node by node only for fields that carry no family,
such as hand-built ones.  ``h`` and ``g`` remain the description the
certificates and tests evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import spectral_norm, symmetric_part

__all__ = [
    "hard_sgn",
    "saturated_sgn",
    "AffineDecomposedField",
    "IkedaParams",
    "ChuaParams",
    "RelayParams",
    "KuramotoParams",
    "ikeda_field",
    "chua_field",
    "relay_field",
    "kuramoto_error_field",
    "decay_field",
]


def hard_sgn(y):
    """Sign with sgn(0) = 0, the selected value on the switching set."""
    return np.sign(y)


def saturated_sgn(width: float) -> Callable:
    """Boundary-layer sign: linear through zero, saturating at |y| = width.

    Replaces the exact relay inside a thin layer so a fixed-step
    integrator chatters with bounded amplitude instead of stalling on the
    switching manifold.
    """
    if width <= 0.0:
        raise ValueError("boundary layer width must be positive")

    def sgn(y):
        return np.minimum(np.maximum(y / width, -1.0), 1.0)

    return sgn


@dataclass(frozen=True, eq=False)
class AffineDecomposedField:
    """One node's dynamics f = h + g with ‖g‖₂ ≤ M.

    Optional analytic annotations sharpen the certified bounds:

    - ``h_gain``: a global bound on the slope of h, so that
      sup_{‖x‖≤r} ‖h(t, x)‖ ≤ h_gain·r + h0_norm exactly.  When absent,
      ball suprema fall back to sampling and are flagged statistical.
    - ``h0_norm``: sup over t of ‖h(t, 0)‖.
    - ``w_identity``: diagonal entries of a W certifying the identity-metric
      quadratic bound (x−y)ᵀ(h(t,x)−h(t,y)) ≤ (x−y)ᵀ diag(w) (x−y),
      required by the nonlinear-coupling certification pipelines.
    - ``family`` and ``params``: set by the family builders below, and
      read by the integrator in place of ``h`` and ``g``; a field that
      sets ``family`` must compute exactly what that family's builder
      would from ``params``.
    """

    dim: int
    h: Callable
    g: Callable
    M: float
    delay: Optional[float] = None
    discontinuous: bool = False
    h_gain: Optional[float] = None
    h0_norm: float = 0.0
    w_identity: Optional[np.ndarray] = None
    label: str = ""
    family: Optional[str] = None
    params: Optional[dict] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not (math.isfinite(self.M) and self.M >= 0.0):
            raise ValueError("M must be finite and nonnegative")
        if self.delay is not None and self.delay <= 0.0:
            raise ValueError("delay must be positive when present")
        if self.h_gain is not None and self.h_gain < 0.0:
            raise ValueError("h_gain must be nonnegative")
        if self.h0_norm < 0.0:
            raise ValueError("h0_norm must be nonnegative")
        if self.w_identity is not None:
            w = np.array(self.w_identity, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError("w_identity must have one entry per state component")
            w.setflags(write=False)
            object.__setattr__(self, "w_identity", w)


@dataclass(frozen=True)
class IkedaParams:
    """Delayed scalar node: dx/dt = -a x + b sin(x(t - tau))."""

    a: float = 1.0
    b: float = 4.0
    tau: float = 2.0


@dataclass(frozen=True)
class ChuaParams:
    """Double-scroll circuit with unit-amplitude square-wave forcing."""

    alpha: float = 10.0
    beta: float = 17.30
    slope_a: float = -1.34
    slope_b: float = -0.73
    forcing_phase: float = 0.0


@dataclass(frozen=True, eq=False)
class RelayParams:
    """Linear plant dx/dt = A x + B r under relay feedback r = -sgn(Cx)."""

    a_matrix: tuple = ((1.35, 1.0, 0.0), (-99.93, 0.0, 1.0), (-5.0, 0.0, 0.0))
    b_vector: tuple = (1.0, -2.0, 1.0)
    c_vector: tuple = (1.0, 0.0, 0.0)
    m_override: Optional[float] = None


@dataclass(frozen=True)
class KuramotoParams:
    """Phase oscillator with natural frequency omega."""

    omega: float


def ikeda_field(p: IkedaParams) -> AffineDecomposedField:
    """Delayed scalar node; h = -a x contracts, the delayed sine is bounded by b."""
    a, b, tau = float(p.a), float(p.b), float(p.tau)
    if a <= 0.0 or b <= 0.0 or tau <= 0.0:
        raise ValueError("ikeda parameters a, b, tau must be positive")

    def h(t, x):
        return -a * np.asarray(x, dtype=float)

    def g(t, x, history, sgn):
        return b * np.sin(history(t - tau))

    return AffineDecomposedField(
        dim=1,
        h=h,
        g=g,
        M=b,
        delay=tau,
        discontinuous=False,
        h_gain=a,
        h0_norm=0.0,
        w_identity=np.array([-a]),
        label=f"ikeda(a={a:g}, b={b:g}, tau={tau:g})",
        family="ikeda",
        params={"a": a, "b": b, "tau": tau},
    )


def chua_field(p: ChuaParams, node_index: int, n_nodes: int) -> AffineDecomposedField:
    """Forced double-scroll node; the square-wave forcing phase is i·π/N.

    The piecewise-linear diode characteristic lives in h (its sector
    slopes admit a diagonal certificate); the discontinuous forcing
    sgn(sin(t - i·π/N)) on the first component is the bounded part, M = 1.
    """
    if not 0 <= node_index < n_nodes:
        raise ValueError("node_index must lie in [0, n_nodes)")
    alpha, beta = float(p.alpha), float(p.beta)
    sa, sb = float(p.slope_a), float(p.slope_b)
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    offset = node_index * math.pi / n_nodes + float(p.forcing_phase)

    def phi(u):
        return sb * u + 0.5 * (sa - sb) * (np.abs(u + 1.0) - np.abs(u - 1.0))

    def h(t, x):
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack(
            [alpha * (x2 - x1 - phi(x1)), x1 - x2 + x3, -beta * x2],
            axis=-1,
        )

    def g(t, x, history, sgn):
        out = np.zeros(np.shape(x))
        out[..., 0] = sgn(np.sin(t - offset))
        return out

    # Slope bound: the map is piecewise linear in x1 with two sector
    # Jacobians; the steeper one bounds the global Lipschitz constant.
    gain = max(
        spectral_norm(np.array([[-alpha * (1.0 + s), alpha, 0.0], [1.0, -1.0, 1.0], [0.0, -beta, 0.0]]))
        for s in (sa, sb)
    )
    return AffineDecomposedField(
        dim=3,
        h=h,
        g=g,
        M=1.0,
        discontinuous=True,
        h_gain=gain,
        h0_norm=0.0,
        label=f"chua(node {node_index}/{n_nodes})",
        family="chua",
        params={"alpha": alpha, "beta": beta, "slope_a": sa, "slope_b": sb, "offset": offset},
    )


def relay_field(p: RelayParams) -> AffineDecomposedField:
    """Linear plant with relay feedback; h = A x, g = -B sgn(Cx), ‖g‖ ≤ ‖B‖."""
    A = np.asarray(p.a_matrix, dtype=float)
    B = np.asarray(p.b_vector, dtype=float)
    C = np.asarray(p.c_vector, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n,) or C.shape != (n,):
        raise ValueError("a_matrix must be square and b/c vectors must match its size")
    A_T = A.T.copy()

    def h(t, x):
        return np.asarray(x, dtype=float) @ A_T

    def g(t, x, history, sgn):
        y = np.asarray(x, dtype=float) @ C
        return -np.multiply.outer(sgn(y), B)

    bound = float(np.sqrt(B @ B)) if p.m_override is None else float(p.m_override)
    lam_max = float(np.linalg.eigvalsh(symmetric_part(A))[-1])
    return AffineDecomposedField(
        dim=n,
        h=h,
        g=g,
        M=bound,
        discontinuous=True,
        h_gain=spectral_norm(A),
        h0_norm=0.0,
        w_identity=np.full(n, lam_max),
        label="relay",
        family="relay",
        params={"a_matrix": A, "b_vector": B, "c_vector": C},
    )


def kuramoto_error_field(p: KuramotoParams, omega_mean: float) -> AffineDecomposedField:
    """Phase-error node: h ≡ 0, g = ω − ω̄ (the frequency detuning)."""
    detune = float(p.omega) - float(omega_mean)

    def h(t, x):
        return np.zeros(np.shape(x))

    def g(t, x, history, sgn):
        return np.full(np.shape(x), detune)

    return AffineDecomposedField(
        dim=1,
        h=h,
        g=g,
        M=abs(detune),
        discontinuous=False,
        h_gain=0.0,
        h0_norm=0.0,
        w_identity=np.zeros(1),
        label=f"kuramoto(detune={detune:g})",
        family="kuramoto",
        params={"detune": detune},
    )


def decay_field(rate: float = 1.0) -> AffineDecomposedField:
    """Scalar linear decay: h = -rate·x, g ≡ 0."""
    rate = float(rate)
    if rate <= 0.0:
        raise ValueError("decay rate must be positive")

    def h(t, x):
        return -rate * np.asarray(x, dtype=float)

    def g(t, x, history, sgn):
        return np.zeros(np.shape(x))

    return AffineDecomposedField(
        dim=1,
        h=h,
        g=g,
        M=0.0,
        h_gain=rate,
        w_identity=np.array([-rate]),
        label=f"decay(rate={rate:g})",
        family="decay",
        params={"rate": rate},
    )
