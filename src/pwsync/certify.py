"""Quadratic contraction certificates and certified coupling bounds.

A diagonal pair (P, W), P > 0, certifies the smooth part h of a node when

    (x − y)ᵀ P (h(t,x) − h(t,y)) ≤ (x − y)ᵀ W (x − y)   for all x, y, t.

The bounded parts g only enter through their norm bounds M.  From such
certificates, a graph topology, and a coupling description, the report
builders in this module compute:

- a gain threshold c̃ above which the network error contracts, and
- a residual bound ε̄ on the limsup of the stacked error norm ‖e(t)‖₂,
  where eᵢ = xᵢ − x̄ and x̄ is the node average.

Five report modes exist, keyed by the CLI selector tokens:

- ``thm1`` (:func:`linear_hetero_bounds`): linear coupling, each node's
  declared identity-metric certificate negative definite (heterogeneous
  smooth parts); bounded for every gain, two closed-form candidate
  residual bounds.
- ``thm2`` (:func:`linear_common_bounds`): linear coupling, one smooth part
  shared by all nodes, sign-indefinite W allowed on coupled components;
  gain threshold plus a residual bound minimized over a certificate family.
- ``cor1``: same as thm2 with every state component coupled.
- ``thm3`` (:func:`nonlinear_bounds`): odd componentwise nonlinear coupling,
  heterogeneous smooth parts with identity-metric certificates.
- ``thm4`` (:func:`nonlinear_bounds`): odd componentwise nonlinear
  coupling, shared smooth part.

Only thm2 and cor1 search: thm1, thm3 and thm4 read P = I and each node's
identity-metric W and are closed form.  The search minimizes c̃, then ε̄,
over a :class:`CertificateFamily` by Nelder–Mead from 20 seeded starts
run in lockstep (:func:`_lockstep_nelder_mead`), and each start follows
SciPy 1.17's Nelder–Mead bit for bit.  A family is only its batched
``diagonals``: a batch of parameter rows to raw (P, W) diagonals.  One
helper scales each row to ‖P‖₂ = 1 and marks the rows that are
certificates; the search scores those rows, and the winning row, rebuilt
by the same helper, becomes the validated :class:`QuadCertificate` the
report prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import AffineDecomposedField
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
    "CertificateFamily",
    "PointFamily",
    "ChuaCertFamily",
    "pws_coupling",
    "check_quad_sampled",
    "quad_linear_cert",
    "certify_upsilon",
    "linear_hetero_bounds",
    "linear_common_bounds",
    "nonlinear_bounds",
]

_MARGIN = 1e-6              # slack enforcing strict inequalities in searches
_PENALTY = 1e6              # weight per unit of constraint violation
_INFEASIBLE = 1e12          # objective plateau for infeasible points
_NOT_A_CERT = 1e18          # objective value of a point that is no certificate
_WITNESS_SLACK = 1e-9       # tolerance before the sampler reports a witness
_N_STARTS = 20
_SEARCH_SEED = 1729


class CertifyError(ValueError):
    """A certification precondition failed or a search found no feasible point."""


# ---------------------------------------------------------------------------
# certificate and coupling containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadCertificate:
    """Diagonal pair (P, W) with P > 0, valid inside ``domain_radius``."""

    p: np.ndarray
    w: np.ndarray
    domain_radius: float = math.inf

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        w = np.array(self.w, dtype=float)
        if p.ndim != 1 or p.shape != w.shape or p.size == 0:
            raise CertifyError("p and w must be matching nonempty vectors")
        if not np.all(np.isfinite(p)) or not np.all(np.isfinite(w)):
            raise CertifyError("certificate entries must be finite")
        if p.min() <= 0.0:
            raise CertifyError("P must have strictly positive diagonal entries")
        if self.domain_radius <= 0.0:
            raise CertifyError("domain_radius must be positive")
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
            if gamma.ndim != 1 or gamma.size == 0 or gamma.min() < 0.0:
                raise CertifyError("gamma must be a nonnegative vector")
            gamma.setflags(write=False)
            object.__setattr__(self, "gamma", gamma)
        else:
            if self.eta is None:
                raise CertifyError("nonlinear coupling needs eta")
            if self.upsilon is None:
                raise CertifyError("nonlinear coupling needs certified sector bounds upsilon")
            ups = np.array(self.upsilon, dtype=float)
            if ups.ndim != 1 or ups.size == 0 or ups.min() < 0.0:
                raise CertifyError("upsilon must be a nonnegative vector")
            if not ups.max() > 0.0:
                raise CertifyError("at least one upsilon entry must be positive")
            if self.e_max <= 0.0:
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
    notes: tuple = ()

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
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"certified: {'yes' if self.certified else 'no'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coupling functions and elementary certificates
# ---------------------------------------------------------------------------


def pws_coupling(z):
    """Odd piecewise coupling: identity inside |z| ≤ 1, then sgn(z)((|z|−1)² + 1)."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return np.where(a <= 1.0, z, np.sign(z) * ((a - 1.0) ** 2 + 1.0))


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
                       n_samples: int = 100_000, seed: int = 0,
                       t_window: tuple = (0.0, 10.0)) -> QuadCheck:
    """Monte Carlo check of a certificate on state pairs inside a ball.

    Pairs (x, y) are drawn uniformly in the ball of the given radius; each
    block of samples shares one uniformly drawn time t.  The first pair
    whose left side exceeds the right side by more than 1e-9 is returned
    as a witness.  A passing check is evidence, not proof; analytic
    certificates should prefer exact constructions.
    """
    if radius <= 0.0:
        raise CertifyError("radius must be positive")
    if radius > cert.domain_radius:
        raise CertifyError("check radius exceeds the certificate's validity domain")
    if n_samples < 1:
        raise CertifyError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    p, w = cert.p, cert.w
    n = cert.dim
    checked = 0
    block = 65536
    while checked < n_samples:
        k = min(block, n_samples - checked)
        t = float(rng.uniform(t_window[0], t_window[1]))
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
# sector certification for nonlinear couplings
# ---------------------------------------------------------------------------


def _trisect_min(fn: Callable, lo: float, hi: float, iters: int = 120) -> float:
    """Minimum value of a locally unimodal scalar function on [lo, hi]."""
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if fn(m1) <= fn(m2):
            hi = m2
        else:
            lo = m1
    return float(fn(0.5 * (lo + hi)))


def certify_upsilon(eta: Callable, e_max: float, grid_points: int = 4096,
                    dim: int = 1, probe_radius: float = 100.0) -> np.ndarray:
    """Componentwise sector lower bounds for an odd coupling function.

    Returns, per component i, the largest υᵢ ≥ 0 found such that
    z·ηᵢ(z·eᵢ) ≥ υᵢ·z² for 0 < |z| ≤ e_max; a grid scan refined by
    bracketed trisection around the grid minimum.  Infinite e_max is
    probed on ``probe_radius`` (callers should surface that the bound was
    certified on a finite probe).  Raises when η fails the oddness spot
    check or no component has a positive bound.
    """
    if e_max <= 0.0:
        raise CertifyError("e_max must be positive")
    if grid_points < 8:
        raise CertifyError("grid_points must be at least 8")
    radius = e_max if math.isfinite(e_max) else float(probe_radius)
    zs = np.linspace(radius / grid_points, radius, grid_points)
    out = np.empty(dim)
    for i in range(dim):
        def ratio(z, i=i):
            z = np.asarray(z, dtype=float)
            full = np.zeros(z.shape + (dim,))
            full[..., i] = z
            val = np.asarray(eta(full), dtype=float)[..., i]
            return val / z

        # oddness spot check on this axis
        probes = np.array([radius * f for f in (0.17, 0.43, 0.71, 0.98)])
        plus = ratio(probes) * probes
        minus = ratio(-probes) * (-probes)
        if np.max(np.abs(plus + minus)) > 1e-9 * max(1.0, np.max(np.abs(plus))):
            raise CertifyError("coupling function must be componentwise odd")

        vals = ratio(zs)
        k = int(np.argmin(vals))
        lo = zs[max(k - 1, 0)]
        hi = zs[min(k + 1, grid_points - 1)]
        refined = _trisect_min(lambda z: float(ratio(np.array([z]))[0]), float(lo), float(hi))
        out[i] = max(min(float(vals[k]), refined), 0.0)
    if out.max() <= 0.0:
        raise CertifyError("coupling has no positive sector bound on any component")
    return out


# ---------------------------------------------------------------------------
# certificate families and the multi-start search
# ---------------------------------------------------------------------------


class CertificateFamily:
    """A search space of certificates, parameterized in log space.

    A family is ``n_params``, ``start_points`` and ``diagonals``, which maps
    a batch of parameter rows, shape (k, n_params), to the raw P and W
    diagonals, each of shape (k, dim).  Positive quantities are
    exp(theta) components so that searches stay in the feasible cone; a
    row whose diagonals are no certificate (non-finite, P ≤ 0) never wins.
    """

    n_params: int = 0

    def diagonals(self, theta: np.ndarray):
        raise NotImplementedError

    def start_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        if self.n_params == 0:
            return np.zeros((1, 0))
        return rng.uniform(-2.3, 2.3, size=(k, self.n_params))


class PointFamily(CertificateFamily):
    """The degenerate family holding a single fixed certificate."""

    n_params = 0

    def __init__(self, cert: QuadCertificate):
        self._cert = cert

    def diagonals(self, theta):
        shape = (len(theta), self._cert.dim)
        return np.broadcast_to(self._cert.p, shape), np.broadcast_to(self._cert.w, shape)


class ChuaCertFamily(CertificateFamily):
    """Three-parameter family (p1, p3, ρ) for the double-scroll smooth part.

    P = diag(p1, β·p3, p3) cancels the cross terms between the second and
    third components; the remaining 2×2 block is dominated via a
    completed square with free parameter ρ > 0, giving

        W = diag(−α(1+s)·p1 + ρ(α·p1 + p2)/2,  (α·p1 + p2)/(2ρ) − p2,  0)

    with p2 = β·p3 and s the steeper diode sector slope.
    """

    n_params = 3

    def __init__(self, alpha: float = 10.0, beta: float = 17.30,
                 slope_a: float = -1.34, slope_b: float = -0.73):
        self.alpha = alpha
        self.beta = beta
        self.slope_a = slope_a
        self.slope_b = slope_b

    def diagonals(self, theta):
        p1, p3, rho = np.exp(theta).T
        alpha, p2 = self.alpha, self.beta * p3
        s = min(self.slope_a, self.slope_b)
        p = np.stack([p1, p2, p3], axis=-1)
        w = np.zeros_like(p)
        w[:, 0] = -alpha * (1.0 + s) * p1 + rho * (alpha * p1 + p2) / 2.0
        w[:, 1] = (alpha * p1 + p2) / (2.0 * rho) - p2
        return p, w


def _unit_rows(family: CertificateFamily, theta: np.ndarray):
    """Each row's (P, W) scaled to ‖P‖₂ = max|pᵢ| = 1, and which rows are
    certificates.

    The mask applies :class:`QuadCertificate`'s checks: a row with a
    non-finite entry or P ≤ 0 (an overflowing exp, say) is marked False
    instead of raising or warning.
    """
    with np.errstate(all="ignore"):
        p, w = family.diagonals(theta)
        scale = 1.0 / np.abs(p).max(axis=1, keepdims=True)
        p, w = scale * p, scale * w
        ok = np.isfinite(p).all(axis=1) & np.isfinite(w).all(axis=1) & (p.min(axis=1) > 0.0)
    return p, w, ok


def _family_objective(family: CertificateFamily, score: Callable) -> Callable:
    """Batched search objective: ``score(P, W)`` of each row's unit-scaled
    certificate; a row that is no certificate scores 1e18."""

    def objective(theta):
        p, w, ok = _unit_rows(family, theta)
        with np.errstate(all="ignore"):
            return np.where(ok, score(p, w), _NOT_A_CERT)

    return objective


def _family_cert(family: CertificateFamily, theta: np.ndarray) -> QuadCertificate:
    """The unit-scaled certificate of one parameter row; a row that is no
    certificate fails :class:`QuadCertificate`'s validation."""
    p, w, _ = _unit_rows(family, theta[None])
    return QuadCertificate(p[0], w[0])


def _lockstep_nelder_mead(objective: Callable, x0, xatol: float = 1e-10,
                          fatol: float = 1e-13, maxiter: int = 2000, maxfev: int = 4000):
    """Nelder–Mead from every row of x0 at once.

    Returns each start's final simplex, sorted, and its values (SciPy's
    ``final_simplex``), then ``nit`` and ``nfev``; SciPy's ``x`` is
    ``sim[:, 0]`` and its ``fun`` is ``fsim.min(axis=1)``.

    ``objective`` maps rows of shape (m, n) to m values.  Each start takes
    the steps of SciPy 1.17's ``minimize(method="Nelder-Mead")`` (fixed
    coefficients, no bounds) bit for bit: initial simplex, vertex order,
    convergence test and the per-start maxiter/maxfev accounting, down to a
    maxfev hit partway through a shrink.  An iteration makes at most three
    objective calls, each on the starts that need it: the reflections, then
    one expansion or contraction point per start, then the shrinks.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    k, n = x0.shape
    s = np.repeat(x0[:, None, :], n + 1, axis=1)
    for j in range(n):
        s[:, j + 1, j] = np.where(x0[:, j] != 0, (1 + 0.05) * x0[:, j], 0.00025)
    fs = np.full((k, n + 1), np.inf)
    n0 = min(n + 1, maxfev)
    fs[:, :n0] = objective(s[:, :n0].reshape(-1, n)).reshape(k, n0)
    ev = np.full(k, n0)
    it = np.ones(k, dtype=int)
    for _ in range(2):  # SciPy sorts twice before its first iteration
        ind = np.argsort(fs, axis=1)
        fs, s = np.take_along_axis(fs, ind, 1), np.take_along_axis(s, ind[:, :, None], 1)

    sim_out, fsim_out = np.empty_like(s), np.empty_like(fs)
    nit, nfev = np.empty(k, dtype=int), np.empty(k, dtype=int)
    rows = np.arange(k)  # the start each working row belongs to
    while rows.size:
        with np.errstate(invalid="ignore"):  # inf − inf: not converged, as in SciPy
            stop = ((ev >= maxfev) | (it >= maxiter)
                    | ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol)
                       & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol)))
        if stop.any():
            done = rows[stop]
            sim_out[done], fsim_out[done] = s[stop], fs[stop]
            nit[done], nfev[done] = it[stop], ev[stop]
            keep = ~stop
            rows, s, fs, ev, it = rows[keep], s[keep], fs[keep], ev[keep], it[keep]
            if not rows.size:
                break

        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        new_x = (1 + rho) * xbar - rho * worst
        new_f = objective(new_x)
        ev += 1
        fxr = new_f.copy()
        expand = fxr < fs[:, 0]
        take = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~take & (fxr < fs[:, -1])
        shrink = np.zeros_like(take)

        # Expansion, outside or inside contraction: x = a·x̄ − b·x_worst with
        # (a, b) = (1+ρχ, ρχ), (1+ψρ, ψρ) or (1−ψ, −ψ).  A start out of
        # evaluations stops here, unchanged.
        t = np.flatnonzero(~take & (ev < maxfev))
        if t.size:
            ex, out = expand[t], outside[t]
            a = np.where(ex, 1 + rho * chi, np.where(out, 1 + psi * rho, 1 - psi))
            b = np.where(ex, rho * chi, np.where(out, psi * rho, -psi))
            xt = a[:, None] * xbar[t] - b[:, None] * worst[t]
            ft = objective(xt)
            ev[t] += 1
            better = np.where(ex, ft < fxr[t], np.where(out, ft <= fxr[t], ft < fs[t, -1]))
            new_x[t[better]], new_f[t[better]] = xt[better], ft[better]
            take[t] = ex | better
            shrink[t] = ~(ex | better)

        s[take, -1], fs[take, -1] = new_x[take], new_f[take]
        it += take

        sh = np.flatnonzero(shrink)
        if sh.size:
            # SciPy moves vertex j before evaluating it, so a start that runs
            # out of evaluations mid-shrink keeps one moved, unevaluated vertex.
            left = maxfev - ev[sh]
            j = np.arange(1, n + 1)
            moved = j <= np.minimum(left + 1, n)[:, None]
            evaluated = j <= left[:, None]
            base = s[sh, :1]
            pts = base + sigma * (s[sh, 1:] - base)
            verts, fverts = s[sh, 1:], fs[sh, 1:]
            verts[moved] = pts[moved]
            fverts[evaluated] = objective(pts[evaluated])
            s[sh, 1:], fs[sh, 1:] = verts, fverts
            ev[sh] += evaluated.sum(axis=1)
            it[sh] += evaluated[:, -1]

        ind = np.argsort(fs, axis=1)
        fs, s = np.take_along_axis(fs, ind, 1), np.take_along_axis(s, ind[:, :, None], 1)

    return sim_out, fsim_out, nit, nfev


def _multistart_minimize(objective: Callable, family: CertificateFamily, extra_starts=(),
                         n_starts: int = _N_STARTS, seed: int = _SEARCH_SEED) -> np.ndarray:
    """Deterministic multi-start Nelder–Mead, all starts in lockstep.

    The winner is the first start whose value is strictly below every
    earlier one; when no value is below inf, start 0's initial point.
    A family with no parameters is evaluated once per start.
    """
    rng = np.random.default_rng(seed)
    starts = np.concatenate([
        family.start_points(rng, n_starts),
        np.asarray(extra_starts, dtype=float).reshape(len(extra_starts), family.n_params),
    ])
    if family.n_params == 0:
        xs, values = starts, objective(starts)
    else:
        sim, fsim, _, _ = _lockstep_nelder_mead(objective, starts)
        xs, values = sim[:, 0], fsim.min(axis=1)
    best_val, best_theta = math.inf, starts[0]
    for x, val in zip(xs, values):
        if val < best_val:
            best_val, best_theta = val, x
    return best_theta


# ---------------------------------------------------------------------------
# shared report arithmetic
# ---------------------------------------------------------------------------


def _identity_rows(fields: Sequence[AffineDecomposedField]) -> np.ndarray:
    """Each node's declared identity-metric W diagonal, shape (n_nodes, dim)."""
    for f in fields:
        if f.w_identity is None:
            raise CertifyError(
                f"node '{f.label or '?'}' carries no identity-metric certificate"
            )
    return np.array([f.w_identity for f in fields], dtype=float)


def _trapping_radius(rows: np.ndarray, sqrt_n: float, m_bar: float, h_bar0: float):
    """Largest W entry across nodes and the radius √N(M̄ + h̄₀)/(−w_top) of the
    ball every node's error enters; the entry must be negative."""
    w_top = float(rows.max())
    if w_top >= 0.0:
        raise CertifyError(
            "every node needs a negative-definite identity-metric certificate "
            f"(max W entry: {w_top:.6g})"
        )
    return w_top, sqrt_n * (m_bar + h_bar0) / (-w_top)


def _smaller_candidate(eps1: float, eps2: float):
    """ε̄ and its source: the ball candidate wins ties."""
    return (eps1, "ball") if eps1 <= eps2 else (eps2, "decay")


def _check_gain(c: float):
    if not (math.isfinite(c) and c >= 0.0):
        raise CertifyError("gain c must be finite and nonnegative")


def _gain_ratio(lam2_graph: float, pg: np.ndarray, w_diag: np.ndarray, active: np.ndarray):
    """c̃ before clipping at 0: the largest coupled W entry over λ₂·min
    coupled p·γ.  Reduces the last axis, so rows of (P·γ, W) give one each."""
    return w_diag[..., active].max(axis=-1) / (lam2_graph * pg[..., active].min(axis=-1))


def _decay_margin(c: float, lam2_graph: float, pg: np.ndarray,
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


def _h_sup_on_ball(fields: Sequence[AffineDecomposedField], radius: float,
                   n_samples: int = 100_000, seed: int = 97):
    """sup over nodes and the origin ball of ‖h(t, x)‖₂, with method tag.

    Fields annotated with a slope bound are evaluated exactly as
    h_gain·radius + h0_norm; others are sampled on the ball across a few
    times, and the result is flagged statistical.
    """
    if radius < 0.0:
        raise CertifyError("radius must be nonnegative")
    rng = np.random.default_rng(seed)
    best = 0.0
    method = "analytic"
    for f in fields:
        if f.h_gain is not None:
            val = f.h_gain * radius + f.h0_norm
        else:
            method = "sampled"
            val = 0.0
            times = rng.uniform(0.0, 10.0, 8)
            per_time = max(n_samples // len(times), 1)
            for t in times:
                pts = _uniform_ball(rng, per_time, f.dim, radius)
                hv = _batch_h(f.h, float(t), pts)
                val = max(val, float(np.linalg.norm(hv, axis=1).max()))
        best = max(best, val)
    return best, method


def _require_common_h(fields: Sequence[AffineDecomposedField], seed: int = 11):
    """All nodes must share one smooth part: identical callable or sampled equality."""
    f0 = fields[0]
    if all(f.h is f0.h for f in fields):
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, f0.dim))
    times = rng.uniform(0.0, 10.0, 4)
    for f in fields[1:]:
        if f.dim != f0.dim:
            raise CertifyError("all nodes must share one state dimension")
        for t in times:
            a = _batch_h(f0.h, float(t), x)
            b = _batch_h(f.h, float(t), x)
            scale = max(1.0, float(np.abs(a).max()))
            if float(np.abs(a - b).max()) > 1e-9 * scale:
                raise CertifyError(
                    "this mode requires all nodes to share one smooth part; "
                    f"node '{f.label or '?'}' differs from node '{f0.label or '?'}'"
                )


def _stack_mismatch_bounds(fields: Sequence[AffineDecomposedField]):
    m_bar = max(f.M for f in fields)
    h_bar0 = max(f.h0_norm for f in fields)
    return m_bar, h_bar0


def _validate_network(fields, topo: Topology):
    if len(fields) != topo.n_nodes:
        raise CertifyError(
            f"{len(fields)} node fields for a {topo.n_nodes}-node topology"
        )
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise CertifyError("all nodes must share one state dimension")
    return dim


def _center_stack(x_stack: np.ndarray, n_nodes: int, dim: int) -> np.ndarray:
    blocks = np.asarray(x_stack, dtype=float).reshape(n_nodes, dim)
    return (blocks - blocks.mean(axis=0)).reshape(-1)


# ---------------------------------------------------------------------------
# linear coupling, heterogeneous smooth parts (mode thm1)
# ---------------------------------------------------------------------------


def linear_hetero_bounds(fields: Sequence[AffineDecomposedField], topo: Topology,
                         gamma, c: float) -> BoundReport:
    """Residual bound for linearly coupled nodes that each contract.

    Reads P = I and each node's declared identity-metric W; every W must be
    negative definite.  Boundedness then holds for every gain c ≥ 0, so
    the report carries no gain threshold.  Two candidate bounds are
    computed: the trapping-ball diameter (gain independent) and the
    decay-margin bound (shrinking with c); ε̄ is their minimum.
    """
    dim = _validate_network(fields, topo)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dim,) or gamma.min() < 0.0:
        raise CertifyError("gamma must be a nonnegative vector of the node dimension")
    _check_gain(c)
    n_nodes = topo.n_nodes
    sqrt_n = math.sqrt(n_nodes)
    m_bar, h_bar0 = _stack_mismatch_bounds(fields)
    active = gamma > 0.0

    rows = _identity_rows(fields)
    w_top, radius = _trapping_radius(rows, sqrt_n, m_bar, h_bar0)
    eps1 = 2.0 * radius
    h_max, h_method = _h_sup_on_ball(fields, radius)

    need_lam2 = bool(active.any()) and c > 0.0
    lam2_graph = lambda2(build_laplacian(topo)) if need_lam2 else 0.0
    w_diag = rows.max(axis=0)
    m_value = float(_decay_margin(c, lam2_graph, gamma, w_diag, active))
    eps2 = sqrt_n * (m_bar + h_max) / m_value if m_value > 0.0 else math.inf
    eps_bar, source = _smaller_candidate(eps1, eps2)

    hyps = (
        Hypothesis(
            "negative-definite certificates",
            True,
            f"max W entry {w_top:.6g} < 0 across nodes",
        ),
    )
    return BoundReport(
        mode="thm1",
        n_nodes=n_nodes,
        dim=dim,
        c=c,
        c_tilde=0.0,
        eps1=eps1,
        eps2=eps2,
        eps_bar=eps_bar,
        eps_source=source,
        m_bar=m_bar,
        h_bar0=h_bar0,
        w_max=w_top,
        ball_radius=radius,
        h_max=h_max,
        h_max_method=h_method,
        w_max_diag=tuple(float(v) for v in w_diag),
        m_value=m_value,
        lambda2=lam2_graph if need_lam2 else None,
        lambda2_coupled=(lam2_graph * float(gamma[active].min())) if need_lam2 else None,
        p_opt=(1.0,) * dim,
        gamma=tuple(float(v) for v in gamma),
        hypotheses=hyps,
    )


# ---------------------------------------------------------------------------
# linear coupling, shared smooth part (modes thm2 / cor1)
# ---------------------------------------------------------------------------


def _ctilde_score(lam2_graph: float, gamma: np.ndarray, active: np.ndarray) -> Callable:
    """c̃ search score of rows of normalized (P, W): the threshold, plus a
    penalty where an uncoupled component does not contract."""

    def score(p, w):
        pen = np.zeros(len(p))
        if (~active).any():
            worst = w[:, ~active].max(axis=1)
            pen = np.where(worst >= -_MARGIN, _PENALTY * (worst + _MARGIN), 0.0)
        if not active.any():
            return pen
        return np.maximum(_gain_ratio(lam2_graph, p * gamma, w, active), 0.0) + pen

    return score


def _epsbar_score(c: float, lam2_graph: float, gamma: np.ndarray, active: np.ndarray,
                  m_bar: float, sqrt_n: float) -> Callable:
    """ε̄ search score of rows of normalized (P, W); a margin not above
    _MARGIN lands on the _INFEASIBLE plateau, sloped towards feasibility."""

    def score(p, w):
        m = _decay_margin(c, lam2_graph, p * gamma, w, active)
        return np.where(m <= _MARGIN, _INFEASIBLE + (_MARGIN - m),
                        m_bar * sqrt_n * p.max(axis=1) / m)

    return score


def linear_common_bounds(fields: Sequence[AffineDecomposedField], topo: Topology,
                         gamma, c: float, family: CertificateFamily,
                         mode: str = "thm2") -> BoundReport:
    """Gain threshold and residual bound when all nodes share one smooth part.

    The shared-h requirement is verified (structurally or by sampling);
    M̄ is the largest per-node bound on the non-shared parts.  c̃ is
    minimized over the certificate family, and uncoupled components must
    admit negative W entries.  Above c̃, ε̄ = M̄·√N·‖P‖₂ / m, with m the
    decay margin, is minimized over the family at the requested gain,
    starting also from the c̃ winner.  ``cor1`` requires every component
    coupled.
    """
    if mode not in ("thm2", "cor1"):
        raise CertifyError(f"linear common mode must be thm2 or cor1, got '{mode}'")
    dim = _validate_network(fields, topo)
    _require_common_h(fields)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dim,) or gamma.min() < 0.0:
        raise CertifyError("gamma must be a nonnegative vector of the node dimension")
    active = gamma > 0.0
    if mode == "cor1" and not active.all():
        raise CertifyError("full-coupling mode requires every gamma entry positive")
    _check_gain(c)
    m_bar, h_bar0 = _stack_mismatch_bounds(fields)
    sqrt_n = math.sqrt(topo.n_nodes)
    lam2_graph = lambda2(build_laplacian(topo)) if active.any() else 0.0

    score = _ctilde_score(lam2_graph, gamma, active)
    theta0 = _multistart_minimize(_family_objective(family, score), family)
    cert = _family_cert(family, theta0)
    if (~active).any() and float(cert.w[~active].max()) >= 0.0:
        raise CertifyError(
            "no certificate found with negative W entries on the uncoupled components "
            f"(best: {float(cert.w[~active].max()):.6g})"
        )
    c_tilde = 0.0
    if active.any():
        c_tilde = max(float(_gain_ratio(lam2_graph, cert.p * gamma, cert.w, active)), 0.0)

    gain_ok = c > c_tilde
    hyps = [Hypothesis("gain exceeds threshold", gain_ok, f"c = {c:g} vs c_tilde = {c_tilde:.10g}")]
    eps_bar = m_value = None
    if gain_ok:
        score = _epsbar_score(c, lam2_graph, gamma, active, m_bar, sqrt_n)
        theta = _multistart_minimize(_family_objective(family, score), family, extra_starts=[theta0])
        cert = _family_cert(family, theta)
        m_value = float(_decay_margin(c, lam2_graph, cert.p * gamma, cert.w, active))
        if m_value > 0.0:
            eps_bar = m_bar * sqrt_n * cert.p_norm / m_value
        else:
            hyps.append(Hypothesis("positive decay margin", False,
                                   "no family member has a positive margin at this gain"))

    pg = cert.p * gamma
    return BoundReport(
        mode=mode,
        n_nodes=topo.n_nodes,
        dim=dim,
        c=c,
        c_tilde=c_tilde,
        eps2=eps_bar,
        eps_bar=eps_bar,
        eps_source="decay" if eps_bar is not None else None,
        m_bar=m_bar,
        h_bar0=h_bar0,
        m_value=m_value,
        lambda2=lam2_graph if active.any() else None,
        lambda2_coupled=(lam2_graph * float(pg[active].min())) if active.any() else None,
        p_opt=tuple(float(v) for v in cert.p),
        w_opt=tuple(float(v) for v in cert.w),
        gamma=tuple(float(v) for v in gamma),
        hypotheses=tuple(hyps),
    )


# ---------------------------------------------------------------------------
# nonlinear coupling (modes thm3 / thm4)
# ---------------------------------------------------------------------------


def nonlinear_bounds(fields: Sequence[AffineDecomposedField], topo: Topology,
                     coupling: CouplingSpec, x0, c: Optional[float] = None,
                     mode: str = "thm3", delta: float = 1e-6) -> BoundReport:
    """Gain threshold and residual bound for odd componentwise coupling.

    Both modes read P = I and each node's identity-metric W.

    - ``thm3``: heterogeneous nodes whose W is negative definite.  ε̄ is
      the smaller of the trapping-ball radius and the decay bound.  The
      h supremum is taken on the ball of radius r_max, the larger of that
      radius and ‖x(0)‖, inflated by delta.
    - ``thm4``: one shared smooth part with a sign-indefinite W; components
      whose W entry is nonnegative must carry a positive sector bound.  No
      trapping ball is needed, so ε̄ is the decay bound alone.

    The sector bounds υ are only valid on ‖z‖ ≤ e_max, so two state-dependent
    hypotheses are checked: the initial error x(0) − x̄(0) must fit in half
    the sector radius, and so must the residual of the uncoupled components.
    """
    if mode not in ("thm3", "thm4"):
        raise CertifyError(f"nonlinear mode must be thm3 or thm4, got '{mode}'")
    hetero = mode == "thm3"
    dim = _validate_network(fields, topo)
    if not hetero:
        _require_common_h(fields)
    if delta <= 0.0:
        raise CertifyError("delta must be positive")
    c = float(coupling.c if c is None else c)
    _check_gain(c)
    if coupling.variant != "nonlinear":
        raise CertifyError("this mode needs a nonlinear coupling spec")
    ups = coupling.upsilon
    if ups.shape != (dim,):
        raise CertifyError("upsilon must have one entry per state component")
    active = ups > 0.0
    lam2_graph = lambda2(build_laplacian(topo))
    lam2_coupled = lam2_graph * float(ups[active].min())
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n_nodes = topo.n_nodes
    if x0.shape != (n_nodes * dim,):
        raise CertifyError(f"x0 must have shape ({n_nodes * dim},)")
    sqrt_n = math.sqrt(n_nodes)
    m_bar, h_bar0 = _stack_mismatch_bounds(fields)

    rows = _identity_rows(fields)
    w_diag = rows.max(axis=0)
    if hetero:
        w_top, eps1 = _trapping_radius(rows, sqrt_n, m_bar, h_bar0)
        nu = float(np.linalg.norm(x0))
        r_max = max(eps1, nu) + delta
        h_max, h_method = _h_sup_on_ball(fields, r_max)
        h_extra = h_max
        ball = dict(eps1=eps1, h_bar0=h_bar0, w_max=w_top, ball_radius=eps1, h_max=h_max,
                    h_max_method=h_method, r_max=r_max, nu=nu, delta=delta)
    else:
        if ((w_diag >= 0.0) & ~active).any():
            raise CertifyError(
                "components with nonnegative W entries must carry positive sector bounds"
            )
        h_extra = 0.0
        ball = {}
    e_max = coupling.e_max
    half = e_max / 2.0

    e0_norm = float(np.linalg.norm(_center_stack(x0, n_nodes, dim)))
    hyp_init = Hypothesis(
        "initial error within half the sector radius",
        e0_norm <= half,
        f"‖e(0)‖ = {e0_norm:.6g} vs e_max/2 = {half:.6g}",
    )
    if active.all() or math.isinf(e_max):
        hyp_unc = Hypothesis(
            "uncoupled components stay within half the sector radius",
            True,
            "vacuous: all components coupled" if active.all() else "vacuous: global sector bound",
        )
    else:
        w_unc = float(w_diag[~active].max())
        residual = -sqrt_n * (m_bar + h_extra) / w_unc if w_unc < 0.0 else math.inf
        hyp_unc = Hypothesis(
            "uncoupled components stay within half the sector radius",
            residual < half if hetero else residual <= half,
            f"residual {residual:.6g} vs e_max/2 = {half:.6g}",
        )

    gain_term = (2.0 * sqrt_n * (m_bar + h_extra) / e_max) if math.isfinite(e_max) else 0.0
    c_tilde = max((gain_term + float(w_diag[active].max())) / lam2_coupled, 0.0)
    hyp_gain = Hypothesis(
        "gain exceeds threshold", c > c_tilde, f"c = {c:g} vs c_tilde = {c_tilde:.10g}"
    )

    hyps = (hyp_init, hyp_unc, hyp_gain)
    eps2 = eps_bar = source = m_value = None
    if all(h.passed for h in hyps):
        m_value = float(_decay_margin(c, lam2_graph, ups, w_diag, active))
        if m_value > 0.0:
            eps2 = sqrt_n * (m_bar + h_extra) / m_value
        elif hetero:
            eps2 = math.inf
        if hetero:
            eps_bar, source = _smaller_candidate(eps1, eps2)
        elif eps2 is not None:
            eps_bar, source = eps2, "decay"

    return BoundReport(
        mode=mode,
        n_nodes=n_nodes,
        dim=dim,
        c=c,
        c_tilde=c_tilde,
        eps2=eps2,
        eps_bar=eps_bar,
        eps_source=source,
        m_bar=m_bar,
        w_max_diag=tuple(float(v) for v in w_diag),
        m_value=m_value,
        lambda2=lam2_graph,
        lambda2_coupled=lam2_coupled,
        upsilon=tuple(float(v) for v in ups),
        e_max=e_max,
        hypotheses=hyps,
        **ball,
    )
