"""Certificate families: the (P, W) pairs that thm2 and cor1 choose from.

A diagonal pair (P, W), P > 0, held as a :class:`QuadCertificate`,
certifies a smooth part h when (x − y)ᵀP(h(t,x) − h(t,y)) ≤ (x − y)ᵀW(x − y)
(see :mod:`pwsync.certify`).  thm2 and cor1 ask a certificate family for
two members: the one with the least gain threshold c̃, and the one with
the least residual bound ε̄ at the requested gain.  A :class:`PointFamily`
holds one fixed certificate and gives it for both.  The double-scroll
:class:`ChuaCertFamily` has three parameters (p1, p3, ρ) and one scale:
its best ρ is a quadratic root for each p1/p2, and the one-dimensional
rest is minimised exactly, by one score pass over a finite candidate set
that holds the minimiser (its kinks, and the roots of quadratics for
stationary points, clip transitions, feasibility boundaries and zero
crossings).  Ties go to the least p1/p2; an infimum that is only a limit
as p1/p2 → 0 or ∞ raises :class:`CertifyError`.

Both score their members with the margin arithmetic of the bounds: the
gain ratio that c̃ is read from and the decay margin m(c) that ε̄ divides
by (:func:`decay_margin`).  :func:`shared_h_family` picks the family of
nodes that share one smooth part when the caller names none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import CHUA, AffineDecomposedField, ChuaParams

__all__ = [
    "CertifyError",
    "QuadCertificate",
    "PointFamily",
    "ChuaCertFamily",
    "identity_rows",
    "decay_margin",
    "shared_h_family",
]

_MARGIN = 1e-6              # W ≤ −_MARGIN: the strict W < 0 a family member must meet


class CertifyError(ValueError):
    """A certification precondition failed or a search found no feasible point."""


@dataclass(frozen=True, eq=False)
class QuadCertificate:
    """Diagonal pair (P, W) with P > 0."""

    p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        w = np.array(self.w, dtype=float)
        if p.ndim != 1 or p.shape != w.shape or p.size == 0:
            raise CertifyError("p and w must be matching nonempty vectors")
        if not np.all(np.isfinite(p)) or not np.all(np.isfinite(w)):
            raise CertifyError("certificate entries must be finite")
        if p.min() <= 0.0:
            raise CertifyError("P must have strictly positive diagonal entries")
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.p.size

    @property
    def p_norm(self) -> float:
        """Spectral norm of diagonal P."""
        return float(self.p.max())


def identity_rows(fields: Sequence[AffineDecomposedField]) -> np.ndarray:
    """Each node's declared identity-metric W diagonal, shape (n_nodes, dim)."""
    for f in fields:
        if f.w_identity is None:
            raise CertifyError(
                f"node '{f.label or '?'}' carries no identity-metric certificate"
            )
    return np.array([f.w_identity for f in fields], dtype=float)


def _unit_cert(p, w) -> QuadCertificate:
    """(P, W) scaled to ‖P‖₂ = max|pᵢ| = 1 and validated; scaling by
    max|pᵢ| keeps a P ≤ 0 negative, so it is refused."""
    scale = 1.0 / np.abs(p).max()
    return QuadCertificate(scale * np.asarray(p), scale * np.asarray(w))


class PointFamily:
    """The degenerate family holding a single fixed certificate."""

    def __init__(self, cert: QuadCertificate):
        self._cert = _unit_cert(cert.p, cert.w)

    def threshold_cert(self, lam2_graph, gamma):
        return self._cert

    def residual_cert(self, c, lam2_graph, gamma):
        return self._cert


def _lin_mul(p, q):
    """(u⁰, u¹, u²) rows of the product of two linear polynomials given as
    (u⁰, u¹) rows; rows of one column broadcast against longer ones."""
    return np.array([p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]])


def _radical_rows(x, a, b, d=None):
    """Quadratic rows whose roots hold the u where x + r = 0, or, given d,
    the stationary points of (x + r)/d; x, a, b and d are linear and
    r = √(a² + b²).  Each equation is X + Y·r = 0 with X linear and Y
    constant, squared to X² = Y²·r²."""
    r2 = _lin_mul(a, a) + _lin_mul(b, b)  # g0 + 2·g1·u + g2·u²
    y = 1.0
    if d is not None:  # ((x + r)/d)′·d²·r = X + Y·r
        g1 = r2[1] / 2.0
        x, y = (g1 * d[0] - r2[0] * d[1], r2[2] * d[0] - g1 * d[1]), x[1] * d[0] - x[0] * d[1]
    return _lin_mul(x, x) - y * y * r2


def _ratio_rows(n, m):
    """Rows whose roots hold the stationary points of n/m for quadratic
    rows n and m: n′m − nm′ = 0, whose cubic terms cancel."""
    return np.array([n[1] * m[0] - n[0] * m[1], 2.0 * (n[2] * m[0] - n[0] * m[2]),
                     n[2] * m[1] - n[1] * m[2]])


def _positive_roots(rows) -> np.ndarray:
    """The finite positive real roots of q0 + q1·u + q2·u² = 0 over the
    (q0, q1, q2) rows, each with its two float neighbours; a row with
    q2 = 0 gives its linear root."""
    q0, q1, q2 = np.concatenate(rows, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4.0 * q2 * q0), q1))
        roots = np.concatenate([t / q2, q0 / t])
    roots = roots[(roots > 0.0) & (roots < math.inf)]
    return np.concatenate([roots, np.nextafter(roots, 0.0), np.nextafter(roots, math.inf)])


class ChuaCertFamily:
    """The double-scroll certificates (p1, p3, ρ), solved for their best.

    P = diag(p1, β·p3, p3) cancels the cross terms between the second and
    third components; the remaining 2×2 block is dominated via a
    completed square with free parameter ρ > 0, giving

        W = diag(−α(1+s)·p1 + ρ(α·p1 + p2)/2,  (α·p1 + p2)/(2ρ) − p2,  0)

    with p2 = β·p3 and s the steeper diode sector slope.  (P, W) scale
    together, so take p2 = 1 and u = p1.  In ρ, w1 is affine and increasing
    and w2 is decreasing.  Each objective is a maximum of a w1 term, a w2
    term and terms free of ρ, so it is least where the w1 and w2 terms
    meet, the positive root of a·ρ² + 2b·ρ − a = 0 with a = α·u + 1,
    clipped to the ρ where an uncoupled w1 or w2 is ≤ −_MARGIN on the
    unit-scaled W.  There, with r = √(a² + b²), w1 = k·u + (r − b)/2 and
    w2 = (r + b)/2 − 1 (k = −α(1+s)); at a clip bound the member is
    rational in u.  Between the knots, where max(u, 1, 1/β) or the least
    coupled p·γ changes entry, both are linear in u, so every branch of
    each score is (c0 + c1·r)/d with low-degree polynomials c0, c1, d.

    The score is read once on a finite set that holds its least point: the
    knots; the positive real roots of quadratics for the stationary points
    of each branch, the clip transitions, the feasibility boundaries and
    the zero crossings of the max(·, 0) terms, each root with its two float
    neighbours; and one probe past each end of that set.  Every such
    equation is X + Y·r = 0 with X linear and Y constant, squared, or a
    polynomial of degree ≤ 2.  The least score wins, ties going to the
    smallest u.  Past the last candidate the score is monotone, so a probe
    that wins means the infimum is only a limit as u → 0 or u → ∞:
    that raises :class:`CertifyError`, as does a score that is nowhere
    feasible.
    """

    def __init__(self, alpha: float = ChuaParams.alpha, beta: float = ChuaParams.beta,
                 slope_a: float = ChuaParams.slope_a, slope_b: float = ChuaParams.slope_b):
        for name, value in (("alpha", alpha), ("beta", beta), ("slope_a", slope_a),
                            ("slope_b", slope_b)):
            if not math.isfinite(value):
                raise CertifyError(f"the double-scroll {name} must be finite, got {value}")
        if not (alpha > 0.0 and beta > 0.0):
            raise CertifyError("alpha and beta must be positive")
        self.alpha = alpha
        self.beta = beta
        self.slope_a = slope_a
        self.slope_b = slope_b
        self._k = -alpha * (1.0 + min(slope_a, slope_b))  # w1 = k·u + ρ·a/2

    def _active(self, gamma, lam2_graph, c=0.0) -> np.ndarray:
        """Coupled components; raises on the patterns no member certifies,
        then on a λ₂ or a gain c out of range."""
        active = np.asarray(gamma, dtype=float) > 0.0
        if active.shape != (3,):
            raise CertifyError("the double-scroll family needs three gamma entries")
        if not active[2]:
            raise CertifyError(
                "component 3 is uncoupled, but every double-scroll certificate has w3 = 0"
            )
        if not active[0] and self._k >= 0.0:
            raise CertifyError(
                "component 1 is uncoupled, but every double-scroll certificate has "
                "w1 = −α(1+s)·p1 + ρ(α·p1 + p2)/2 > 0, since "
                f"−α(1+s) = {self._k:.6g} ≥ 0 and ρ > 0"
            )
        if not 0.0 < lam2_graph < math.inf:
            raise CertifyError(f"lambda2 must be positive and finite, got {float(lam2_graph)}")
        if not 0.0 <= c < math.inf:
            raise CertifyError(f"the gain c must be finite and nonnegative, got {float(c)}")
        return active

    def _forms(self, gamma, active):
        """S = max(u, 1, 1/β) and D = min coupled p·γ as (u⁰, u¹) rows over
        every pairing of their entries: the linear forms they take between knots."""
        s = [(0.0, 1.0), (max(1.0, 1.0 / self.beta), 0.0)]
        d = [(0.0, gamma[0]), (gamma[1], 0.0), (gamma[2] / self.beta, 0.0)]
        rows = np.array([sv + dv for sv in s for dv, on in zip(d, active) if on]).T
        return rows[:2], rows[2:]

    def _knots(self, gamma, active) -> list:
        """Where max(u, 1, 1/β) or the least coupled p·γ changes entry."""
        knots = [1.0, 1.0 / self.beta]
        if active[0]:
            knots += [g * p / gamma[0] for g, p, on in
                      zip(gamma[1:], (1.0, 1.0 / self.beta), active[1:]) if on]
        return knots

    def _members(self, u, b, lo=0.0, hi=math.inf):
        """Unit-scaled (P, W) rows for an array of u, at ρ the positive root
        of a·ρ² + 2b·ρ − a = 0 clipped to [lo, hi]."""
        a = self.alpha * u + 1.0
        r = np.hypot(b, a)
        rho = np.clip(np.where(b > 0.0, a / (b + r), (r - b) / a), lo, hi)
        one = np.ones_like(u)
        p = np.stack([u, one, one / self.beta], axis=-1)
        w = np.stack([self._k * u + rho * a / 2.0, a / (2.0 * rho) - 1.0, 0.0 * u], axis=-1)
        scale = 1.0 / p.max(axis=-1, keepdims=True)
        return scale * p, scale * w

    def _best(self, score, rows, gamma, active, what: str) -> QuadCertificate:
        """The least-scoring member on the candidate set of the class docstring."""
        u = np.unique(np.concatenate([_positive_roots(rows), self._knots(gamma, active)]))
        u = np.concatenate([[u[0] / 2.0], u, [u[-1] * 2.0]])  # a probe past each end
        scores, p, w = score(u)
        i = int(np.argmin(scores))
        if not scores[i] < math.inf:
            raise CertifyError(f"no double-scroll certificate {what}")
        if i in (0, u.size - 1):
            raise CertifyError(f"no double-scroll certificate {what} at its infimum, which is "
                               f"only a limit as p1/p2 → {'0' if i == 0 else '∞'}")
        return QuadCertificate(p[i], w[i])

    def threshold_cert(self, lam2_graph, gamma):
        gamma = np.asarray(gamma, dtype=float)
        active = self._active(gamma, lam2_graph)

        def score(u):
            # uncoupled wᵢ ≤ −_MARGIN·max(u, 1, 1/β) before unit scaling
            margin = _MARGIN * np.maximum(np.maximum(u, 1.0), 1.0 / self.beta)
            a = self.alpha * u + 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = np.zeros_like(u) if active[1] else a / (2.0 * (1.0 - margin))
                hi = np.full_like(u, np.inf) if active[0] else 2.0 * (-margin - self._k * u) / a
                feasible = ((margin < 1.0) | active[1]) & (hi > 0.0) & (lo <= hi)
                p, w = self._members(u, self._k * u + 1.0, lo, hi)
                ratio = np.maximum(_gain_ratio(lam2_graph, p * gamma, w, active), 0.0)
            return np.where(feasible, ratio, np.inf), p, w

        s, d = self._forms(gamma, active)
        k, margin = self._k, _MARGIN * s
        # unclipped, 2·w1 = 2·w2 = v + r; at ρ = lo, 4e·w1 = lo_w1; at ρ = hi, 4f·w2 = hi_w2
        a, b, v, one, ku = np.array([[[1.0], [self.alpha]], [[1.0], [k]], [[-1.0], [k]],
                                     [[1.0], [0.0]], [[0.0], [k]]])
        e, f = one - margin, -ku - margin  # 1 − margin and −margin − k·u
        aa = _lin_mul(a, a)
        lo_w1, hi_w2 = 4.0 * _lin_mul(ku, e) + aa, aa - 4.0 * _lin_mul(f, one)
        rows = [_radical_rows(v, a, b, d), _radical_rows(v, a, b), lo_w1, hi_w2,
                _ratio_rows(lo_w1, _lin_mul(e, d)), _ratio_rows(hi_w2, _lin_mul(f, d)),
                4.0 * (_lin_mul(e, e) - _lin_mul(b, e)) - aa,  # unclipped ρ = lo
                aa - 4.0 * (_lin_mul(b, f) + _lin_mul(f, f)),  # unclipped ρ = hi
                aa - 4.0 * _lin_mul(e, f), _lin_mul(e, f)]  # lo = hi; margin = 1 or hi = 0
        return self._best(score, rows, gamma, active,
                          f"has W ≤ −{_MARGIN:g} on the uncoupled components")

    def residual_cert(self, c, lam2_graph, gamma):
        gamma = np.asarray(gamma, dtype=float)
        active = self._active(gamma, lam2_graph, c)

        def score(u):
            # the margin's coupling term c·λ₂·min coupled p·γ, before unit scaling
            one = np.ones_like(u)
            pg = np.stack([u, one, one / self.beta], axis=-1) * gamma
            shift = c * lam2_graph * pg[:, active].min(axis=-1)
            b = self._k * u + 1.0 - shift * active[0] + shift * active[1]
            p, w = self._members(u, b)
            margin = decay_margin(c, lam2_graph, p * gamma, w, active)
            # a member without a positive margin bounds nothing: infeasible,
            # so a flat score toward u → 0 or u → ∞ is refused, not returned
            return np.where(margin > 0.0, -margin, np.inf), p, w

        s, d = self._forms(gamma, active)
        shift, a = c * lam2_graph * d, np.array([[1.0], [self.alpha]])
        b = [[1.0], [self._k]] + (float(active[1]) - float(active[0])) * shift
        x = [[0.0], [2.0 * self._k]] - b - 2.0 * active[0] * shift  # 2·(balanced term) = x + r
        rows = [_radical_rows(x, a, b, s), _radical_rows(x, a, b),  # margin 0
                _radical_rows(x + 2.0 * shift, a, b)]  # the balanced term meets −shift
        return self._best(score, rows, gamma, active, "has a positive decay margin")


def _gain_ratio(lam2_graph: float, pg: np.ndarray, w_diag: np.ndarray, active: np.ndarray):
    """c̃ before clipping at 0: the largest coupled W entry over λ₂·min
    coupled p·γ.  Reduces the last axis, so rows of (P·γ, W) give one each."""
    return w_diag[..., active].max(axis=-1) / (lam2_graph * pg[..., active].min(axis=-1))


def decay_margin(c: float, lam2_graph: float, pg: np.ndarray,
                 w_diag: np.ndarray, active: np.ndarray):
    """m = −max(coupled growth − c·λ₂·min coupled metric, uncoupled growth).

    Reduces the last axis, so rows of (P·γ, W) give one margin each.
    """
    terms = []
    if active.any():
        terms.append(w_diag[..., active].max(axis=-1)
                     - c * lam2_graph * pg[..., active].min(axis=-1))
    if (~active).any():
        terms.append(w_diag[..., ~active].max(axis=-1))
    if len(terms) == 1:
        return -terms[0]
    return -np.where(terms[1] > terms[0], terms[1], terms[0])


def shared_h_family(fields: Sequence[AffineDecomposedField]):
    """The certificates of the nodes' shared h: the double-scroll family at
    Chua nodes' h-parameters, else the one with P = I and W the largest
    declared identity-metric entry of each component."""
    f0 = fields[0]
    if f0.family is CHUA:
        return ChuaCertFamily(**{key: f0.params[key] for key in CHUA.h_keys})
    w = identity_rows(fields).max(axis=0)
    return PointFamily(QuadCertificate(np.ones(w.size), w))
