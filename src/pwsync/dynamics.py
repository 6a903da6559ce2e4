"""Node vector fields split as f = h + g: a smooth part h amenable to a
quadratic contraction certificate, plus a norm-bounded part g that may
switch, carry a delay, or simply differ from node to node.

Five node families are each defined once, as a :class:`NodeFamily`
whose kernels read per-node parameters stacked one row per node: a
delayed scalar saturation oscillator (Ikeda), a double-scroll circuit
with square-wave forcing (Chua), a linear plant under relay feedback,
phase oscillators reduced to their error field (Kuramoto), and plain
linear decay.  The integrator reads the kernels for all of a family's
nodes at once; each builder reads them with its one node's parameters
to give that node's ``h`` and ``g``.  Nodes share one h when they have
the identical ``h`` callable, or one family and equal h-parameters.

Conventions: ``h(t, x)`` must broadcast over leading axes of ``x``
(shape (..., dim)), which lets the certificate sampler evaluate it in
batches. ``g(t, x, history, sgn)`` takes one state at a time; ``history``
is a callable mapping a past time to that node's state block (only used
by delayed fields), and ``sgn`` is the sign function in effect (exact or
boundary-layer regularized).  A hand-built field sets no family, and the
integrator calls its ``h`` and ``g`` node by node.
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
    "diode_knee",
    "AffineDecomposedField",
    "NodeFamily",
    "IkedaParams",
    "ChuaParams",
    "RelayParams",
    "KuramotoParams",
    "ikeda_field",
    "chua_field",
    "chua_fields",
    "relay_field",
    "kuramoto_error_field",
    "decay_field",
]


hard_sgn = np.sign  # sgn(0) = 0, the selected value on the switching set


def saturated_sgn(width: float) -> Callable:
    """Boundary-layer sign: linear through zero, saturating at |y| = width.

    Replaces the exact relay inside a thin layer so a fixed-step
    integrator chatters with bounded amplitude instead of stalling on the
    switching manifold.  Its ``pieces`` are the three intervals on which it
    is affine, as rows (lo, hi, slope, intercept).
    """
    if width <= 0.0:
        raise ValueError("boundary layer width must be positive")

    def sgn(y):
        return np.minimum(np.maximum(y / width, -1.0), 1.0)

    sgn.pieces = ((-math.inf, -width, 0.0, -1.0), (-width, width, 1.0 / width, 0.0),
                  (width, math.inf, 0.0, 1.0))
    return sgn


def diode_knee(y):
    """Chua's diode knee |y + 1| − |y − 1|, affine on the three ``pieces``
    split at ±1 (rows as in :func:`saturated_sgn`)."""
    return np.abs(y + 1.0) - np.abs(y - 1.0)


diode_knee.pieces = ((-math.inf, -1.0, 0.0, -2.0), (-1.0, 1.0, 2.0, 0.0), (1.0, math.inf, 0.0, 2.0))


@dataclass(frozen=True, eq=False)
class AffineDecomposedField:
    """One node's dynamics f = h + g with ‖g‖₂ ≤ M.

    Optional analytic annotations sharpen the certified bounds:

    - ``h_gain``: a global bound on the slope of h, so that
      sup_{‖x‖≤r} ‖h(t, x)‖ ≤ h_gain·r + h0_norm exactly.  thm1 and thm3
      need it to bound h on their trapping ball, and refuse a node without it.
    - ``h0_norm``: sup over t of ‖h(t, 0)‖.
    - ``w_identity``: diagonal entries of a W certifying the identity-metric
      quadratic bound (x−y)ᵀ(h(t,x)−h(t,y)) ≤ (x−y)ᵀ diag(w) (x−y),
      required by the nonlinear-coupling certification pipelines.
    - ``family`` and ``params``: set by the builders below, whose ``h``
      and ``g`` are the :class:`NodeFamily` kernels read with ``params``.
    """

    dim: int
    h: Callable
    g: Callable
    M: float
    delay: Optional[float] = None
    h_gain: Optional[float] = None
    h0_norm: float = 0.0
    w_identity: Optional[np.ndarray] = None
    label: str = ""
    family: Optional["NodeFamily"] = None
    params: Optional[dict] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not (math.isfinite(self.M) and self.M >= 0.0):
            raise ValueError("M must be finite and nonnegative")
        if self.delay is not None and not (math.isfinite(self.delay) and self.delay > 0.0):
            raise ValueError("delay must be finite and positive when present")
        if self.h_gain is not None and not (math.isfinite(self.h_gain) and self.h_gain >= 0.0):
            raise ValueError("h_gain must be finite and nonnegative")
        if not (math.isfinite(self.h0_norm) and self.h0_norm >= 0.0):
            raise ValueError("h0_norm must be finite and nonnegative")
        if self.w_identity is not None:
            w = np.array(self.w_identity, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError("w_identity must have one entry per state component")
            if not all(map(math.isfinite, w.tolist())):  # a few entries: faster than a ufunc
                raise ValueError("w_identity must be finite")
            w.setflags(write=False)
            object.__setattr__(self, "w_identity", w)


class NodeFamily:
    """One family of node equations f(t, x) = Aᵢx + kernel(x·Gᵢ)·Sᵢ +
    forcing(t), read over per-node parameters stacked by :meth:`stack` into
    a dict q of arrays, one row per node (plus what the kernels derive once):

    - ``linear(q)``: the blocks Aᵢ, shape (n, dim, dim);
    - ``gather(q)``, ``kernel(sgn)`` and ``scatter(q)``: the
      state-dependent rest, kernel(sgn)(x·Gᵢ)·Sᵢ on a row state x, with
      gather blocks Gᵢ (n, dim, k) and scatter blocks Sᵢ (n, k, dim).
      ``kernel(sgn)`` is the elementwise function itself; like a coupling's
      η it may carry ``pieces``, the closed intervals on which it is
      affine, as rows (lo, hi, slope, intercept) in increasing order (none
      on the relay's hard sign).  The relay's −B·sgn(Cx) is C, sgn and
      −Bᵀ; Chua's diode knee is e₁, :func:`diode_knee` and knee·e₁ᵀ.  The
      rest is in h when ``rest_in_h``, else in g;
    - ``forcing(q, ts, delayed, sgn)``: the term in g that depends only on
      time and stored history, at times ts, shape (T, B or 1, n, ...), with
      ``delayed(lags)`` the states (T, B, n, dim) at ts − lags (Ikeda's
      delayed sine, Chua's square wave, Kuramoto's detuning).

    The builders read the blocks of their one node; the integrator puts a
    family's blocks into block-diagonal matrices, or applies them node by
    node on large networks.  ``kernel`` and ``forcing`` are None when
    absent, and forcing acts on the components ``column``.  ``h_keys``
    names the parameters that make up h, ``positive`` those that must be
    positive, and ``delay_key`` the delay, if any.
    """

    name = ""
    keys = ()
    h_keys = ()
    positive = ()
    delay_key = None
    column = slice(None)
    rest_in_h = False
    kernel = None
    forcing = None

    def check(self, params: dict) -> dict:
        """``params`` if all are finite and the ``positive`` ones positive."""
        for key in self.keys:
            value = params[key]
            if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
                raise ValueError(f"{self.name} parameter {key} must be finite")
        for key in self.positive:
            if not params[key] > 0.0:
                raise ValueError(f"{self.name} parameter {key} must be positive")
        return params

    def stack(self, params: list) -> dict:
        return {key: np.array([p[key] for p in params], dtype=float) for key in self.keys}

    def linear(self, q) -> np.ndarray:
        raise NotImplementedError


class _Ikeda(NodeFamily):
    """dx/dt = −a x + b sin x(t − τ): h = −a x, g the delayed sine."""

    name = "ikeda"
    keys = positive = ("a", "b", "tau")
    h_keys = ("a",)
    delay_key = "tau"

    def linear(self, q):
        return -q["a"][:, None, None]

    def forcing(self, q, ts, delayed, sgn):
        return q["b"][:, None] * np.sin(delayed(q["tau"]))


class _Chua(NodeFamily):
    """The double-scroll circuit: h is Aᵢx plus the diode knee on x₁, and g
    the square wave sgn sin(t − offset) on x₁."""

    name = "chua"
    keys = ("alpha", "beta", "slope_a", "slope_b", "offset")
    h_keys = keys[:4]
    positive = ("alpha", "beta")
    column = 0
    rest_in_h = True

    def linear(self, q):
        alpha = q["alpha"]
        blocks = np.zeros((alpha.size, 3, 3))
        blocks[:, 0, 0] = -alpha * (1.0 + q["slope_b"])
        blocks[:, 0, 1] = alpha
        blocks[:, 1] = (1.0, -1.0, 1.0)
        blocks[:, 2, 1] = -q["beta"]
        return blocks

    def gather(self, q):
        return np.broadcast_to(np.eye(3)[:, :1], (q["alpha"].size, 3, 1))

    def kernel(self, sgn):
        return diode_knee

    def scatter(self, q):
        blocks = np.zeros((q["alpha"].size, 1, 3))
        blocks[:, 0, 0] = -0.5 * q["alpha"] * (q["slope_a"] - q["slope_b"])  # the knee
        return blocks

    def forcing(self, q, ts, delayed, sgn):
        return sgn(np.sin(ts[:, None, None] - q["offset"]))


class _Relay(NodeFamily):
    """A linear plant under relay feedback: h = A x, g = −B sgn(Cx)."""

    name = "relay"
    keys = ("a_matrix", "b_vector", "c_vector")
    h_keys = ("a_matrix",)

    def linear(self, q):
        return q["a_matrix"]

    def gather(self, q):
        return q["c_vector"][:, :, None]

    def kernel(self, sgn):
        return sgn

    def scatter(self, q):
        return -q["b_vector"][:, None, :]


class _Kuramoto(NodeFamily):
    """A phase-error node: h ≡ 0, g the frequency detuning ω − ω̄."""

    name = "kuramoto"
    keys = ("detune",)

    def linear(self, q):
        return np.zeros((q["detune"].size, 1, 1))

    def forcing(self, q, ts, delayed, sgn):
        detune = q["detune"][:, None]
        return np.broadcast_to(detune, (ts.size, 1) + detune.shape)


class _Decay(NodeFamily):
    """Scalar linear decay: h = −rate·x, g ≡ 0."""

    name = "decay"
    keys = h_keys = positive = ("rate",)

    def linear(self, q):
        return -q["rate"][:, None, None]


IKEDA, CHUA, RELAY, KURAMOTO, DECAY = _Ikeda(), _Chua(), _Relay(), _Kuramoto(), _Decay()


def _node_field(family: NodeFamily, params: dict, **annotations) -> AffineDecomposedField:
    """One node of ``family``: its h and g read the family's kernels with
    this node's (checked) parameters as a stack of one."""
    col, forcing = family.column, family.forcing
    rest = None
    if family.kernel is not None:
        def rest(q, x, sgn):
            return family.kernel(sgn)(x @ family.gather(q)[0]) @ family.scatter(q)[0]
    rest_h, rest_g = (rest, None) if family.rest_in_h else (None, rest)

    def h(t, x):
        q = family.stack([params])
        x = np.asarray(x, dtype=float)
        out = x @ family.linear(q)[0].T
        if rest_h is not None:
            out += rest_h(q, x, None)
        return out

    def g(t, x, history, sgn):
        q = family.stack([params])
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape) if rest_g is None else rest_g(q, x, sgn)
        if forcing is not None:
            past = lambda lags: history(t - lags)[None, None]  # noqa: E731
            out[..., None, :][..., col] += forcing(q, np.array([float(t)]), past, sgn)[0, 0]
        return out

    delay = None if family.delay_key is None else float(params[family.delay_key])
    return AffineDecomposedField(h=h, g=g, delay=delay, family=family, params=params,
                                 **annotations)


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
    params = IKEDA.check({"a": float(p.a), "b": float(p.b), "tau": float(p.tau)})
    a, b, tau = params["a"], params["b"], params["tau"]
    return _node_field(
        IKEDA, params, dim=1, M=b, h_gain=a, w_identity=np.array([-a]),
        label=f"ikeda(a={a:g}, b={b:g}, tau={tau:g})",
    )


def chua_field(p: ChuaParams, node_index: int, n_nodes: int) -> AffineDecomposedField:
    """Forced double-scroll node; the square-wave forcing phase is i·π/N.

    The piecewise-linear diode characteristic lives in h (its sector
    slopes admit a diagonal certificate); the discontinuous forcing
    sgn(sin(t - i·π/N)) on the first component is the bounded part, M = 1.
    """
    if not 0 <= node_index < n_nodes:
        raise ValueError("node_index must lie in [0, n_nodes)")
    return _chua_nodes(p, [node_index], n_nodes)[0]


def chua_fields(p: ChuaParams, n_nodes: int) -> list:
    """All ``n_nodes`` nodes of one network, node i as ``chua_field(p, i,
    n_nodes)`` builds it; their checks and slope bound run once."""
    return _chua_nodes(p, range(n_nodes), n_nodes)


def _chua_nodes(p: ChuaParams, indices, n_nodes: int) -> list:
    params = CHUA.check({
        "alpha": float(p.alpha), "beta": float(p.beta),
        "slope_a": float(p.slope_a), "slope_b": float(p.slope_b), "offset": 0.0,
    })
    # Slope bound: h is piecewise linear in x1, and the steeper of its two
    # sector Jacobians (the linear block at either slope) bounds its slope.
    slopes = [dict(params, slope_b=params[key]) for key in ("slope_a", "slope_b")]
    gain = max(spectral_norm(jac) for jac in CHUA.linear(CHUA.stack(slopes)))
    return [_node_field(CHUA, dict(params, offset=i * math.pi / n_nodes), dim=3, M=1.0,
                        h_gain=gain, label=f"chua(node {i}/{n_nodes})") for i in indices]


def relay_field(p: RelayParams) -> AffineDecomposedField:
    """Linear plant with relay feedback; h = A x, g = -B sgn(Cx), ‖g‖ ≤ ‖B‖."""
    A = np.asarray(p.a_matrix, dtype=float)
    B = np.asarray(p.b_vector, dtype=float)
    C = np.asarray(p.c_vector, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n,) or C.shape != (n,):
        raise ValueError("a_matrix must be square and b/c vectors must match its size")
    params = RELAY.check({"a_matrix": A, "b_vector": B, "c_vector": C})
    bound = float(np.sqrt(B @ B)) if p.m_override is None else float(p.m_override)
    lam_max = float(np.linalg.eigvalsh(symmetric_part(A))[-1])
    return _node_field(RELAY, params, dim=n, M=bound, h_gain=spectral_norm(A),
                       w_identity=np.full(n, lam_max), label="relay")


def kuramoto_error_field(p: KuramotoParams, omega_mean: float) -> AffineDecomposedField:
    """Phase-error node: h ≡ 0, g = ω − ω̄ (the frequency detuning)."""
    detune = KURAMOTO.check({"detune": float(p.omega) - float(omega_mean)})["detune"]
    return _node_field(KURAMOTO, {"detune": detune}, dim=1, M=abs(detune), h_gain=0.0,
                       w_identity=np.zeros(1), label=f"kuramoto(detune={detune:g})")


def decay_field(rate: float) -> AffineDecomposedField:
    """Scalar linear decay: h = -rate·x, g ≡ 0."""
    rate = DECAY.check({"rate": float(rate)})["rate"]
    return _node_field(DECAY, {"rate": rate}, dim=1, M=0.0, h_gain=rate,
                       w_identity=np.array([-rate]), label=f"decay(rate={rate:g})")
