"""Quadratic contraction certificates and certified coupling bounds.

A diagonal pair (P, W), P > 0, certifies the smooth part h of a node when

    (x − y)ᵀ P (h(t,x) − h(t,y)) ≤ (x − y)ᵀ W (x − y)   for all x, y, t.

The bounded parts g only enter through their norm bounds M.  From such
certificates, a graph topology, and a coupling description, a
:class:`Certification` computes:

- a gain threshold c̃ above which the network error contracts, and
- a residual bound ε̄ on the limsup of the stacked error norm ‖e(t)‖₂,
  where eᵢ = xᵢ − x̄ and x̄ is the node average.

Five report modes exist, keyed by the CLI selector tokens: ``thm1`` and
``thm3`` for heterogeneous contracting nodes under linear and under odd
componentwise nonlinear coupling, ``thm2`` and ``thm4`` for nodes that
share one smooth part under the same two couplings, and ``cor1``, thm2
with every state component coupled.  All five share one path,
:class:`Certification`, whose docstring says what each mode reads.  The
gain c reaches c̃ and ε̄ only through the decay margin, so a
certification, built once per network and mode, holds λ₂, the
certificate, the ball and c̃, and its ``at(c)`` makes the report at one
gain; a gain sweep builds it once.  This module alone knows the modes:
:func:`resolve_mode` checks a mode against the coupling variant and picks
one for ``auto``.

thm2 and cor1 read a certificate family, and the families, their
certificates and the margin arithmetic they are scored by live in
:mod:`pwsync.families`; :class:`CertifyError`, :class:`QuadCertificate`
and both families are importable from here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import AffineDecomposedField
from .families import (
    CertifyError,
    ChuaCertFamily,
    PointFamily,
    QuadCertificate,
    decay_margin,
    identity_rows,
    shared_h_family,
)
from .graph import Topology, build_laplacian, lambda2
from .linalg import symmetric_part

__all__ = [
    "CertifyError",
    "QuadCertificate",
    "CouplingSpec",
    "QuadWitness",
    "QuadCheck",
    "Hypothesis",
    "BoundReport",
    "PointFamily",
    "ChuaCertFamily",
    "pws_coupling",
    "check_quad_sampled",
    "quad_linear_cert",
    "certify_upsilon",
    "resolve_mode",
    "check_network",
    "Certification",
]

_WITNESS_SLACK = 1e-9       # tolerance before the sampler reports a witness
_BALL_DELTA = 1e-6          # thm3's r_max: max(ball radius, ‖x(0)‖) inflated by this


# ---------------------------------------------------------------------------
# coupling and report containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Network coupling: diffusive linear −c(L ⊗ Γ)x, or componentwise odd η.

    ``gamma`` holds the diagonal of Γ for the linear variant (nonnegative,
    zero entries mark uncoupled components).  The nonlinear variant pairs
    the coupling function η with certified sector lower bounds ``upsilon``
    (zᵀη(z) ≥ zᵀ diag(υ) z for ‖z‖ ≤ e_max) and the validity radius
    ``e_max`` (inf for global bounds).  c = 0 encodes the uncoupled
    baseline.
    """

    variant: str
    c: float
    gamma: Optional[np.ndarray] = None
    eta: Optional[Callable] = None
    upsilon: Optional[np.ndarray] = None
    e_max: float = math.inf
    label: str = ""

    def __post_init__(self):
        if self.variant not in ("linear", "nonlinear"):
            raise CertifyError("variant must be 'linear' or 'nonlinear'")
        if not math.isfinite(self.c) or self.c < 0.0:
            raise CertifyError("coupling gain c must be finite and nonnegative")
        if self.variant == "linear":
            if self.gamma is None:
                raise CertifyError("linear coupling needs gamma")
            gamma = np.array(self.gamma, dtype=float)
            if gamma.ndim != 1 or gamma.size == 0 or not (np.isfinite(gamma) & (gamma >= 0.0)).all():
                raise CertifyError("gamma must be a finite nonnegative vector")
            gamma.setflags(write=False)
            object.__setattr__(self, "gamma", gamma)
        else:
            if self.eta is None:
                raise CertifyError("nonlinear coupling needs eta")
            if self.upsilon is None:
                raise CertifyError("nonlinear coupling needs certified sector bounds upsilon")
            ups = np.array(self.upsilon, dtype=float)
            if ups.ndim != 1 or ups.size == 0 or not (np.isfinite(ups) & (ups >= 0.0)).all():
                raise CertifyError("upsilon must be a finite nonnegative vector")
            if not ups.max() > 0.0:
                raise CertifyError("at least one upsilon entry must be positive")
            if not self.e_max > 0.0:
                raise CertifyError("e_max must be positive")
            ups.setflags(write=False)
            object.__setattr__(self, "upsilon", ups)

    def with_gain(self, c: float) -> "CouplingSpec":
        return replace(self, c=float(c))


@dataclass(frozen=True)
class QuadWitness:
    """A sampled pair violating the certified inequality."""

    x: tuple
    y: tuple
    t: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class QuadCheck:
    holds: bool
    n_samples: int
    witness: Optional[QuadWitness] = None


@dataclass(frozen=True)
class Hypothesis:
    name: str
    passed: bool
    detail: str = ""


@dataclass(eq=False)
class BoundReport:
    """Everything a certification run concluded, machine-readable.

    ``eps1`` is the trapping-ball candidate (meaningful in thm1/thm3),
    ``eps2`` the decay-margin candidate; ``eps_bar`` is their minimum when
    both exist and is None when a hypothesis failed.
    """

    mode: str
    n_nodes: int
    dim: int
    c: Optional[float] = None
    c_tilde: Optional[float] = None
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    eps_bar: Optional[float] = None
    eps_source: Optional[str] = None
    m_bar: Optional[float] = None
    h_bar0: Optional[float] = None
    w_max: Optional[float] = None
    ball_radius: Optional[float] = None
    h_max: Optional[float] = None
    h_max_method: Optional[str] = None
    w_max_diag: Optional[tuple] = None
    m_value: Optional[float] = None
    r_max: Optional[float] = None
    nu: Optional[float] = None
    delta: Optional[float] = None
    lambda2: Optional[float] = None
    lambda2_coupled: Optional[float] = None
    p_opt: Optional[tuple] = None
    w_opt: Optional[tuple] = None
    gamma: Optional[tuple] = None
    upsilon: Optional[tuple] = None
    e_max: Optional[float] = None
    hypotheses: tuple = ()

    @property
    def certified(self) -> bool:
        if not all(h.passed for h in self.hypotheses):
            return False
        return self.eps_bar is not None and math.isfinite(self.eps_bar)

    def to_dict(self) -> dict:
        def plain(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf" if v > 0 else "-inf"
            if isinstance(v, tuple):
                return [plain(x) for x in v]
            if isinstance(v, Hypothesis):
                return {"name": v.name, "passed": v.passed, "detail": v.detail}
            return v

        out = {f.name: plain(getattr(self, f.name)) for f in dataclass_fields(self)}
        out["certified"] = self.certified
        return out

    def to_text(self) -> str:
        def fmt(v):
            if v is None:
                return "n/a"
            if isinstance(v, float):
                return f"{v:.10g}"
            if isinstance(v, tuple):
                return "(" + ", ".join(fmt(x) for x in v) + ")"
            return str(v)

        lines = [
            f"mode: {self.mode}",
            f"network: {self.n_nodes} nodes of dimension {self.dim}",
            f"gain c: {fmt(self.c)}    gain threshold c_tilde: {fmt(self.c_tilde)}",
            f"residual bound eps_bar: {fmt(self.eps_bar)}"
            + (f"    (from {self.eps_source})" if self.eps_source else ""),
            f"  candidates: ball {fmt(self.eps1)}, decay {fmt(self.eps2)}",
            f"noise bound M_bar: {fmt(self.m_bar)}    h at origin: {fmt(self.h_bar0)}",
            f"lambda2: {fmt(self.lambda2)}    lambda2 on coupled components: {fmt(self.lambda2_coupled)}",
            f"decay margin m: {fmt(self.m_value)}",
        ]
        if self.ball_radius is not None:
            lines.append(f"trapping ball radius: {fmt(self.ball_radius)}")
        if self.h_max is not None:
            lines.append(f"h sup on ball: {fmt(self.h_max)} ({self.h_max_method})")
        if self.r_max is not None:
            lines.append(f"r_max: {fmt(self.r_max)} (nu {fmt(self.nu)}, delta {fmt(self.delta)})")
        if self.p_opt is not None:
            lines.append(f"P*: {fmt(self.p_opt)}")
        if self.w_opt is not None:
            lines.append(f"W*: {fmt(self.w_opt)}")
        if self.w_max_diag is not None:
            lines.append(f"componentwise max W: {fmt(self.w_max_diag)}")
        if self.gamma is not None:
            lines.append(f"gamma: {fmt(self.gamma)}")
        if self.upsilon is not None:
            lines.append(f"upsilon: {fmt(self.upsilon)}    e_max: {fmt(self.e_max)}")
        lines.append("hypotheses:")
        for hyp in self.hypotheses:
            status = "pass" if hyp.passed else "FAIL"
            detail = f" [{hyp.detail}]" if hyp.detail else ""
            lines.append(f"  - {hyp.name}: {status}{detail}")
        lines.append(f"certified: {'yes' if self.certified else 'no'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coupling functions and elementary certificates
# ---------------------------------------------------------------------------


def pws_coupling(z):
    """Odd piecewise coupling: identity inside |z| ≤ 1, then sgn(z)((|z|−1)² + 1).

    With the clipped part c = min(max(z, −1), 1) and the excess o = z − c
    this is c + o·|o|.  ``pieces`` is the one interval on which it is
    affine, as a row (lo, hi, slope, intercept).
    """
    z = np.asarray(z, dtype=float)
    inner = np.minimum(np.maximum(z, -1.0), 1.0)
    outer = z - inner
    return inner + outer * np.abs(outer)


pws_coupling.pieces = ((-1.0, 1.0, 1.0, 0.0),)


def quad_linear_cert(a_matrix, p=None) -> QuadCertificate:
    """Exact global certificate for a linear smooth part h(x) = A x.

    With diagonal positive P, (x−y)ᵀP A(x−y) ≤ λ_max(sym(PA)) ‖x−y‖², so
    W = λ_max(sym(PA))·I is tight among isotropic diagonal W.
    """
    A = np.asarray(a_matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise CertifyError("a_matrix must be square")
    n = A.shape[0]
    if p is None:
        p = np.ones(n)
    else:
        p = np.asarray(p, dtype=float)
        if p.shape != (n,) or p.min() <= 0.0:
            raise CertifyError("p must be a positive vector matching a_matrix")
    lam = float(np.linalg.eigvalsh(symmetric_part(p[:, None] * A))[-1])
    return QuadCertificate(p=p, w=np.full(n, lam))


# ---------------------------------------------------------------------------
# sampled certificate checking
# ---------------------------------------------------------------------------


def _uniform_ball(rng: np.random.Generator, k: int, n: int, radius: float) -> np.ndarray:
    dirs = rng.standard_normal((k, n))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(k) ** (1.0 / n)
    return dirs * (radii / norms)[:, None]


def _batch_h(h: Callable, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate h on all rows of x in one call; h must broadcast over them."""
    out = np.asarray(h(t, x), dtype=float)
    if out.shape != x.shape:
        raise CertifyError(
            f"h must broadcast over leading axes: input of shape {x.shape} "
            f"gave output of shape {out.shape}"
        )
    return out


def check_quad_sampled(h: Callable, cert: QuadCertificate, radius: float,
                       n_samples: int = 100_000, seed: int = 0) -> QuadCheck:
    """Monte Carlo check of a certificate on state pairs inside a ball.

    Pairs (x, y) are drawn uniformly in the ball of the given radius; each
    block of samples shares one time t drawn uniformly from [0, 10).  The
    first pair whose left side exceeds the right side by more than 1e-9 is
    returned as a witness.  A passing check is evidence, not proof; analytic
    certificates should prefer exact constructions.
    """
    if radius <= 0.0:
        raise CertifyError("radius must be positive")
    if n_samples < 1:
        raise CertifyError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    p, w = cert.p, cert.w
    n = cert.dim
    checked = 0
    block = 65536
    while checked < n_samples:
        k = min(block, n_samples - checked)
        t = float(rng.uniform(0.0, 10.0))
        x = _uniform_ball(rng, k, n, radius)
        y = _uniform_ball(rng, k, n, radius)
        d = x - y
        dh = _batch_h(h, t, x) - _batch_h(h, t, y)
        lhs = np.einsum("ij,j,ij->i", d, p, dh)
        rhs = np.einsum("ij,j,ij->i", d, w, d)
        bad = lhs > rhs + _WITNESS_SLACK
        if bad.any():
            i = int(np.argmax(bad))
            witness = QuadWitness(
                x=tuple(float(v) for v in x[i]),
                y=tuple(float(v) for v in y[i]),
                t=t,
                lhs=float(lhs[i]),
                rhs=float(rhs[i]),
            )
            return QuadCheck(holds=False, n_samples=checked + i + 1, witness=witness)
        checked += k
    return QuadCheck(holds=True, n_samples=checked)


# ---------------------------------------------------------------------------
# sector bounds: min η(z)/z on 0 < z ≤ e_max in closed form, as exact ratios
# ---------------------------------------------------------------------------


def _sin_sector(e: float) -> tuple:
    """sin(e)/e from below: its series Σ (−e²)ⁿ/(2n+1)! summed exactly and
    cut after a negative term under 2⁻⁶⁰ of the sum.  For e ≤ π the terms
    shrink past n = 1, so the cut sum is below the limit by less than that."""
    if e > math.pi:
        raise CertifyError(f"the sin coupling has a sector bound only for e_max ≤ π, got {e:g}")
    p, q = e.as_integer_ratio()
    num = den = term = 1  # the sum and its latest term (−p²)ⁿ, both over den
    for n in itertools.count(1):
        scale = q * q * 2 * n * (2 * n + 1)
        term *= -p * p
        num, den = num * scale + term, den * scale
        if n % 2 and -term << 60 < num:
            return num, den


def _pws_sector(e: float) -> tuple:
    """1 up to z = 1, then z − 2 + 2/z, least at z = √2: √8 − 2, √8 from below."""
    if e <= 1.0:
        return 1, 1
    if e < math.sqrt(2.0):  # the double √2 lies above √2, so this is e < √2
        p, q = e.as_integer_ratio()
        return p * p - 2 * p * q + 2 * q * q, p * q
    return math.isqrt(8 << 200) - (2 << 100), 1 << 100


_SECTOR_BOUNDS = {np.sin: _sin_sector, pws_coupling: _pws_sector}


def certify_upsilon(eta: Callable, e_max: float, dim: int = 1) -> np.ndarray:
    """υ with z·η(z) ≥ υ·z² on |z| ≤ e_max in each of ``dim`` components: the
    closed form, rounded down, for ``np.sin`` (e_max ≤ π) and
    :func:`pws_coupling` (any e_max); any other η needs its own υ."""
    if not e_max > 0.0:
        raise CertifyError("e_max must be positive")
    bound = next((b for f, b in _SECTOR_BOUNDS.items() if f is eta), None)  # η may be unhashable
    if bound is None:
        raise CertifyError(f"no closed-form sector bound for '{getattr(eta, '__name__', eta)}'; "
                           "pass it as CouplingSpec(upsilon=...)")
    num, den = bound(float(e_max))
    ups = num / den  # int division rounds to nearest; step down where that rounded up
    p, q = ups.as_integer_ratio()
    return np.full(dim, ups if p * den <= num * q else math.nextafter(ups, 0.0))


# ---------------------------------------------------------------------------
# shared report arithmetic
# ---------------------------------------------------------------------------


def _h_sup_on_ball(fields: Sequence[AffineDecomposedField], radius: float) -> float:
    """sup over nodes and the origin ball of ‖h(t, x)‖₂, as max h_gain·radius + h0_norm.

    A sample of a supremum can only fall below it, so a node without a
    slope bound ``h_gain`` is refused.
    """
    for i, f in enumerate(fields, start=1):
        if f.h_gain is None:
            raise CertifyError(
                f"node {i} '{f.label or '?'}' carries no slope bound h_gain; "
                "thm1 and thm3 need one to bound h on the trapping ball"
            )
    return max(f.h_gain * radius + f.h0_norm for f in fields)


def _require_common_h(fields: Sequence[AffineDecomposedField]):
    """All nodes must share one smooth part: the identical ``h`` callable,
    or one family with equal h-parameters.  Decided from structure alone."""
    f0 = fields[0]
    for i, f in enumerate(fields[1:], start=2):
        if f.h is f0.h:
            continue
        family = f.family
        if family is not None and family is f0.family and all(
                np.array_equal(f.params[key], f0.params[key]) for key in family.h_keys):
            continue
        raise CertifyError(
            "this mode requires all nodes to share one smooth part; "
            f"node {i} '{f.label or '?'}' differs from node 1 '{f0.label or '?'}'"
        )


# ---------------------------------------------------------------------------
# certification as a function of the gain (every mode)
# ---------------------------------------------------------------------------

_VARIANTS = {"thm1": "linear", "thm2": "linear", "cor1": "linear",
             "thm3": "nonlinear", "thm4": "nonlinear"}  # the coupling each mode reads


def resolve_mode(mode: str, fields: Sequence[AffineDecomposedField],
                 coupling: CouplingSpec) -> str:
    """``mode``, which must match the coupling variant, or for ``auto`` the
    mode the structure calls for: thm1 (linear) or thm3 (nonlinear), thm2
    or thm4 when all nodes share one smooth part, cor1 for thm2 with every
    γ entry positive."""
    if mode == "auto":
        try:
            _require_common_h(fields)
            common = True
        except CertifyError:
            common = False
        if coupling.variant == "nonlinear":
            return "thm4" if common else "thm3"
        if not common:
            return "thm1"
        return "cor1" if bool((coupling.gamma > 0.0).all()) else "thm2"
    if mode not in _VARIANTS:
        raise CertifyError(f"unknown mode '{mode}' (expected one of auto, {', '.join(_VARIANTS)})")
    if coupling.variant != _VARIANTS[mode]:
        raise CertifyError(f"mode {mode} needs {_VARIANTS[mode]} coupling")
    return mode


def check_network(fields: Sequence[AffineDecomposedField], topo: Topology,
                  coupling: CouplingSpec, x0=None, error=CertifyError) -> int:
    """The state dimension dim of the network's nodes.  Raises ``error``
    unless the network has one field per node of ``topo``, one dim across
    its nodes, Γ (or υ) of dim entries and, where ``x0`` is given, N·dim
    entries in x0."""
    n_nodes = topo.n_nodes
    if len(fields) != n_nodes:
        raise error(f"{len(fields)} node fields for a {n_nodes}-node topology")
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise error("all nodes must share one state dimension")
    linear = coupling.variant == "linear"
    name, g = ("gamma", coupling.gamma) if linear else ("upsilon", coupling.upsilon)
    if g.shape != (dim,):
        raise error(f"{name} must have one entry per state component ({dim}), got {g.size}")
    if x0 is not None and np.size(x0) != n_nodes * dim:
        raise error(f"x0 must have {n_nodes * dim} entries, got {np.size(x0)}")
    return dim


class Certification:
    """A network certified in one mode, as a function of the gain.

    ``at(c)`` gives the :class:`BoundReport` at gain c; ``coupling.c`` is
    not read.  ``mode`` goes through :func:`resolve_mode`.  thm3 and thm4
    read the stacked initial state ``x0``; only thm2 and cor1 read a
    certificate ``family``, and the other modes refuse one.

    - thm1: P = I and each node's identity-metric W, negative definite, so
      every c ≥ 0 is bounded and c̃ = 0; ε̄ is the smaller of the
      trapping-ball diameter and the decay bound.
    - thm2, cor1: one smooth part shared by all nodes, checked
      structurally (one ``h``, or one family with equal h-parameters).  c̃
      is read off the family's threshold member, and ε̄ = M̄·√N·‖P‖₂/m off
      its residual member at c, M̄ being the largest node bound M.  cor1
      needs every γ entry positive.  By default the nodes give the family
      (:func:`pwsync.families.shared_h_family`).
    - thm3: thm1 under odd componentwise coupling, with the ball's radius
      in place of its diameter, and h bounded on the ball of radius
      r_max = max(radius, ‖x(0)‖) + 1e-6.
    - thm4: a shared smooth part with P = I and a sign-indefinite W, whose
      nonnegative entries must be on coupled components; no ball, so ε̄ is
      the decay bound alone.

    thm1 and thm3 bound h on the ball by h_gain·r + h0_norm, so every node
    needs ``h_gain``.  υ holds only on 0 < |z| ≤ e_max, so in thm3 and
    thm4 the initial error x(0) − x̄(0) and the uncoupled components'
    residual must each fit in e_max/2.

    A family is any object with two methods.  ``threshold_cert(lam2_graph,
    gamma)`` gives the member with the least gain threshold c̃ whose W
    entries on uncoupled components (γᵢ = 0) are negative;
    ``residual_cert(c, lam2_graph, gamma)`` gives the member with the
    largest decay margin, so the least ε̄, at gain c.  Both return a
    unit-scaled, validated :class:`QuadCertificate` or raise
    :class:`CertifyError` saying why no member qualifies; a residual
    member that cannot be had shows as a failed "positive decay margin"
    hypothesis.

    c enters only through the decay margin m(c) = −max(w_coupled −
    c·λ₂·min coupled p·g, w_uncoupled), with g = Γ or υ, so everything
    else, c̃ included, is found once, here: c̃ = max((gain term + largest
    coupled W) / (λ₂·min coupled p·g), 0), the gain term being
    2√N(M̄ + h sup)/e_max for a finite e_max.  λ₂ is solved on first use:
    thm1 at c = 0 and without coupled components reads none.
    """

    def __init__(self, fields: Sequence[AffineDecomposedField], topo: Topology,
                 coupling: CouplingSpec, x0=None, mode: str = "auto", family=None):
        mode = resolve_mode(mode, fields, coupling)
        if family is not None and mode not in ("thm2", "cor1"):
            raise CertifyError(f"mode {mode} reads no certificate family; only thm2 and cor1 do")
        linear = coupling.variant == "linear"
        if not linear:  # thm3 and thm4 read x(0)
            x0 = np.asarray(x0, dtype=float).reshape(-1)
        n_nodes, dim = topo.n_nodes, check_network(fields, topo, coupling, x0)
        if mode in ("thm2", "cor1", "thm4"):
            _require_common_h(fields)
        g = coupling.gamma if linear else coupling.upsilon
        active = g > 0.0
        if mode == "cor1" and not active.all():
            raise CertifyError("full-coupling mode requires every gamma entry positive")
        self.mode, self.topo, self.g, self.active = mode, topo, g, active
        self.coupled = coupled = bool(active.any())
        self.sqrt_n = sqrt_n = math.sqrt(n_nodes)
        self.m_bar = m_bar = max(f.M for f in fields)
        h_bar0 = max(f.h0_norm for f in fields)
        self.family = self.eps1 = None
        self.h_sup = 0.0
        self.hypotheses = []
        self.known = dict(mode=mode, n_nodes=n_nodes, dim=dim, m_bar=m_bar)
        if linear:
            self.known["gamma"] = tuple(float(v) for v in g)
        else:
            self.known.update(upsilon=tuple(float(v) for v in g), e_max=coupling.e_max)
        if mode != "thm4":
            self.known["h_bar0"] = h_bar0

        if mode in ("thm2", "cor1"):
            self.family = shared_h_family(fields) if family is None else family
            cert = self.family.threshold_cert(self.lam2 if coupled else 0.0, g)
            self.p, self.w = cert.p, cert.w
        else:
            self.p, self.w = np.ones(dim), identity_rows(fields).max(axis=0)
            self.known["w_max_diag"] = tuple(float(v) for v in self.w)
        if mode in ("thm1", "thm3"):
            w_top = float(self.w.max())
            if w_top >= 0.0:
                raise CertifyError("every node needs a negative-definite identity-metric "
                                   f"certificate (max W entry: {w_top:.6g})")
            radius = sqrt_n * (m_bar + h_bar0) / (-w_top)
            if mode == "thm1":
                self.eps1, r_max = 2.0 * radius, radius
                self.known["p_opt"] = (1.0,) * dim
                self.hypotheses.append(Hypothesis("negative-definite certificates", True,
                                                  f"max W entry {w_top:.6g} < 0 across nodes"))
            else:
                nu = float(np.linalg.norm(x0))
                self.eps1, r_max = radius, max(radius, nu) + _BALL_DELTA
                self.known.update(r_max=r_max, nu=nu, delta=_BALL_DELTA)
            self.h_sup = _h_sup_on_ball(fields, r_max)
            self.known.update(eps1=self.eps1, w_max=w_top, ball_radius=radius,
                              h_max=self.h_sup, h_max_method="analytic")
        w_unc = float(self.w[~active].max()) if not active.all() else -math.inf
        if w_unc >= 0.0:
            raise CertifyError("the certificate's W entries on the uncoupled components "
                               f"must be negative (largest: {w_unc:.6g})")

        e_max = coupling.e_max
        if not linear:
            # υ holds on 0 < |z| ≤ e_max: errors within e_max/2 keep every pairwise
            # difference inside it
            half = e_max / 2.0
            blocks = x0.reshape(n_nodes, dim)
            e0_norm = float(np.linalg.norm(blocks - blocks.mean(axis=0)))
            self.hypotheses.append(Hypothesis(
                "initial error within half the sector radius", e0_norm <= half,
                f"‖e(0)‖ = {e0_norm:.6g} vs e_max/2 = {half:.6g}"))
            if active.all() or math.isinf(e_max):
                passed = True
                detail = ("vacuous: all components coupled" if active.all()
                          else "vacuous: global sector bound")
            else:
                residual = -sqrt_n * (m_bar + self.h_sup) / w_unc
                passed, detail = residual <= half, f"residual {residual:.6g} vs e_max/2 = {half:.6g}"
            self.hypotheses.append(Hypothesis(
                "uncoupled components stay within half the sector radius", passed, detail))
        gain_term = 2.0 * sqrt_n * (m_bar + self.h_sup) / e_max if math.isfinite(e_max) else 0.0
        top = gain_term + float(self.w[active].max()) if coupled else 0.0
        self.c_tilde = top / (self.lam2 * float((self.p * g)[active].min())) if top > 0.0 else 0.0

    @functools.cached_property
    def lam2(self) -> float:
        return lambda2(build_laplacian(self.topo))

    def at(self, c: float) -> BoundReport:
        """The report at gain c, which must be finite and nonnegative.

        thm1 has no gain hypothesis.  thm2/cor1 read the family's residual
        member at c.  ε₂ = √N(M̄ + h sup)·‖P‖₂/m(c), and ε̄ is the smaller
        of ε₂ and the ball candidate ε₁ where there is a ball.
        """
        c = float(c)
        if not 0.0 <= c < math.inf:
            raise CertifyError("coupling gain c must be finite and nonnegative")
        hyps = list(self.hypotheses)
        if self.mode != "thm1":
            # as the header prints them, unless that hides which is larger
            n = 10 if f"{c:.10g}" != f"{self.c_tilde:.10g}" else 17
            hyps.append(Hypothesis("gain exceeds threshold", c > self.c_tilde,
                                   f"c = {c:.{n}g} vs c_tilde = {self.c_tilde:.{n}g}"))
        # thm1 reads λ₂ only through c·λ₂; the other modes report it at every gain
        lam2 = self.lam2 if self.coupled and (c > 0.0 or self.mode != "thm1") else None
        p, w = self.p, self.w
        m_value = eps2 = eps_bar = source = None
        if all(h.passed for h in hyps):
            try:
                if self.family is not None:
                    cert = self.family.residual_cert(c, lam2 or 0.0, self.g)
                    p, w = cert.p, cert.w
                m_value = float(decay_margin(c, lam2 or 0.0, p * self.g, w, self.active))
            except CertifyError:  # no family member has a positive margin
                pass
            # W < 0 keeps m > 0 in the ball modes, so only thm2/cor1/thm4 fail here
            if m_value is not None and m_value > 0.0:
                eps2 = self.sqrt_n * (self.m_bar + self.h_sup) * float(p.max()) / m_value
                ball = self.eps1 is not None and self.eps1 <= eps2  # the ball wins ties
                eps_bar, source = (self.eps1, "ball") if ball else (eps2, "decay")
            else:
                hyps.append(Hypothesis("positive decay margin", False,
                                       "no certificate has a positive margin at this gain"))
        member = {}
        if self.family is not None:
            member = dict(p_opt=tuple(float(v) for v in p), w_opt=tuple(float(v) for v in w))
        return BoundReport(
            c=c, c_tilde=self.c_tilde, eps2=eps2, eps_bar=eps_bar, eps_source=source,
            m_value=m_value, lambda2=lam2,
            lambda2_coupled=None if lam2 is None else lam2 * float((p * self.g)[self.active].min()),
            hypotheses=tuple(hyps), **self.known, **member,
        )

