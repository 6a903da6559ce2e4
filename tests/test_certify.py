import json
import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from pwsync.certify import (
    Certification,
    CertifyError,
    ChuaCertFamily,
    CouplingSpec,
    PointFamily,
    QuadCertificate,
    certify_upsilon,
    check_quad_sampled,
    pws_coupling,
    quad_linear_cert,
    resolve_mode,
)
from pwsync.certify import _require_common_h
from pwsync.dynamics import (
    AffineDecomposedField,
    ChuaParams,
    IkedaParams,
    KuramotoParams,
    RelayParams,
    chua_field,
    decay_field,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
)
from pwsync.families import _MARGIN, _unit_cert
from pwsync.graph import GraphError, complete_topology, ring_topology, topology_from_edges
from pwsync.scenarios import ConfigError, Scenario, load_scenario
from pwsync.sim import SimConfig, SimError, integrate_gains

from oracles import chua_family_optimum

RELAY_A = np.array([[1.35, 1.0, 0.0], [-99.93, 0.0, 1.0], [-5.0, 0.0, 0.0]])
RELAY_EDGES = ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4))

# frozen: largest eigenvalue of sym(RELAY_A), cross-checked against LAPACK below
RELAY_LAMBDA_MAX = 50.23503238596014

# analytic optimum of the double-scroll certificate family objective on a
# lambda2 = 2.22 graph with first/third components coupled: the boundary
# rho where the middle W entry vanishes, at p1 = p3, gives
# 3.4 + 27.3^2 / (4 * 17.3).
CHUA_OBJECTIVE_MIN = 3.4 + 27.3**2 / (4.0 * 17.3)

# sector bounds, closed form: min of sin(z)/z on (0, pi/3] sits at the
# endpoint; min of the piecewise coupling ratio sits at z = sqrt(2).
UPSILON_SIN = 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
UPSILON_PWS = 2.0 * math.sqrt(2.0) - 2.0

REL_TOL = 1e-9


def _relay_fields(n, m_override=None):
    """n relay nodes sharing A; ``m_override`` sets their mismatch bound M."""
    return [relay_field(RelayParams(m_override=m_override))] * n


def _relay_topo():
    return topology_from_edges(5, RELAY_EDGES)


def _linear(gamma):
    """Linear coupling on ``gamma``: a certification reads its gain from ``at(c)`` only."""
    return CouplingSpec("linear", 0.0, gamma=gamma)


def _scaled(cert, alpha):
    return QuadCertificate(alpha * cert.p, alpha * cert.w)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_quad_linear_cert_matches_lapack_and_frozen_value():
    cert = quad_linear_cert(RELAY_A)
    lam_ref = float(np.linalg.eigvalsh(0.5 * (RELAY_A + RELAY_A.T))[-1])
    assert abs(cert.w[0] - lam_ref) < REL_TOL * lam_ref
    assert abs(cert.w[0] - RELAY_LAMBDA_MAX) < 1e-9
    assert np.allclose(cert.w, cert.w[0], atol=0.0)
    assert np.allclose(cert.p, 1.0, atol=0.0)


def test_quad_linear_cert_weighted_metric():
    p = np.array([2.0, 0.5, 1.0])
    cert = quad_linear_cert(RELAY_A, p)
    lam_ref = float(np.linalg.eigvalsh(0.5 * (p[:, None] * RELAY_A + (p[:, None] * RELAY_A).T))[-1])
    assert abs(cert.w[0] - lam_ref) < REL_TOL * abs(lam_ref)
    with pytest.raises(CertifyError):
        quad_linear_cert(RELAY_A, np.array([1.0, -1.0, 1.0]))


def test_chua_family_known_values():
    # at the paper's parameters the c̃ member sits on the kink p1 = p3 (with
    # p2 = 1) and on the boundary w2 = −_MARGIN, so ρ = a / (2(1 − _MARGIN))
    # with a = α/β + 1 and w1 = −α(1+s)/β + a²/(4(1 − _MARGIN))
    cert = ChuaCertFamily().threshold_cert(2.22, np.array([1.0, 0.0, 1.0]))
    a = 10.0 / 17.3 + 1.0
    assert np.allclose(cert.p, [1.0 / 17.3, 1.0, 1.0 / 17.3], rtol=1e-14, atol=0.0)
    w1 = 3.4 / 17.3 + a * a / (4.0 * (1.0 - _MARGIN))
    assert np.allclose(cert.w, [w1, -_MARGIN, 0.0], rtol=1e-9, atol=0.0)
    # β < 1 makes p3 the largest entry of P: the unit-scaled w2 stays at −_MARGIN
    cert = ChuaCertFamily(beta=0.8).threshold_cert(2.22, np.array([1.0, 0.0, 1.0]))
    assert cert.p[2] == 1.0
    assert abs(cert.w[1] + _MARGIN) < 1e-9 * _MARGIN
    # γ1 = 2 moves the kink of min(p1·γ1, p3) to p1 = p3/2, which is hit exactly
    cert = ChuaCertFamily().threshold_cert(2.22, np.array([2.0, 0.0, 1.0]))
    assert cert.p[0] * 2.0 == cert.p[2] == 1.0 / 17.3
    # γ1 = 0.1 puts that kink past p1 = 1/α, so the optimum is smooth: there
    # c̃ ∝ −α(1+s) + (α·p1 + 1)² / (4(1 − _MARGIN)·p1) is least at p1 = 1/α
    report = Certification([chua_field(ChuaParams(), i, 10) for i in range(10)],
                           complete_topology(10).scaled(2.22 / 10.0),
                           _linear(np.array([0.1, 0.0, 1.0])), mode="thm2",
                           family=ChuaCertFamily()).at(0.0)
    expected = 10.0 * (1.0 / (1.0 - _MARGIN) - 1.0 + 1.34) / (2.22 * 0.1)
    assert abs(report.c_tilde - expected) < 1e-13 * expected
    assert abs(report.p_opt[0] - 0.1) < 1e-6


def test_certificate_validation_and_scaling():
    with pytest.raises(CertifyError):
        QuadCertificate(p=np.array([1.0, 0.0]), w=np.array([-1.0, -1.0]))
    cert = QuadCertificate(p=np.array([2.0, 1.0]), w=np.array([-3.0, 1.0]))
    for unit in (PointFamily(cert).threshold_cert(1.0, np.ones(2)),
                 PointFamily(cert).residual_cert(1.0, 1.0, np.ones(2))):
        assert np.allclose(unit.p, [1.0, 0.5], atol=0.0)
        assert np.allclose(unit.w, [-1.5, 0.5], atol=0.0)
        assert unit.p_norm == 1.0
    # scaling by max|p| keeps a negative P negative, so it is refused
    with pytest.raises(CertifyError, match="positive"):
        _unit_cert(-np.ones(3), np.zeros(3))
    # chua10's printed certificate is a valid unit-scaled certificate
    report = load_scenario("chua10", seed=0).certify()
    assert QuadCertificate(np.array(report.p_opt), np.array(report.w_opt)).p_norm == 1.0


# ---------------------------------------------------------------------------
# sampled checking
# ---------------------------------------------------------------------------


def test_sampled_check_accepts_exact_linear_certificate():
    f = relay_field(RelayParams())
    cert = quad_linear_cert(RELAY_A)
    check = check_quad_sampled(f.h, cert, radius=5.0, n_samples=1_000_000, seed=0)
    assert check.holds
    assert check.n_samples == 1_000_000
    assert check.witness is None


def test_sampled_check_accepts_chua_family_certificate():
    node = chua_field(ChuaParams(), node_index=0, n_nodes=10)
    family, gamma = ChuaCertFamily(), np.array([1.0, 0.0, 1.0])
    for cert in (family.threshold_cert(2.22, gamma), family.residual_cert(10.0, 2.22, gamma)):
        check = check_quad_sampled(node.h, cert, radius=5.0, n_samples=100_000, seed=3)
        assert check.holds


def test_chua_residual_cert_refuses_a_family_without_a_positive_margin():
    # at γ = (0.3, 0, 1) the score is flat for every u ≤ 1e-7 and no member
    # has a positive margin; the search used to return its own grid edge
    with pytest.raises(CertifyError, match="no double-scroll certificate has a positive decay margin"):
        ChuaCertFamily().residual_cert(10.0, 2.22, np.array([0.3, 0.0, 1.0]))


def test_chua_threshold_with_every_component_coupled_needs_no_uncoupled_margin():
    # margin = 1e-6·max(u, 1, 1/β) ≥ 1 for every u once β ≤ 1e-6; that bound
    # only clips ρ when component 2 is uncoupled, so it must not empty the family
    family = ChuaCertFamily(beta=1e-7)
    cert = family.threshold_cert(2.22, np.ones(3))
    c_tilde = cert.w.max() / (2.22 * cert.p.min())
    grid_c_tilde, _ = _grid_optima(family.alpha, family.beta,
                                   min(family.slope_a, family.slope_b), np.ones(3), 2.22, 0.0)
    assert 0.0 < c_tilde <= grid_c_tilde * (1.0 + 1e-9)
    with pytest.raises(CertifyError, match="on the uncoupled components"):
        family.threshold_cert(2.22, np.array([1.0, 0.0, 1.0]))


def test_chua_family_refuses_non_finite_parameters():
    for bad in (dict(alpha=math.inf), dict(beta=math.nan), dict(slope_a=math.nan),
                dict(slope_b=-math.inf)):
        (name, value), = bad.items()
        with pytest.raises(CertifyError, match=f"double-scroll {name} must be finite, got {value}"):
            ChuaCertFamily(**bad)


def test_chua_family_refuses_a_lambda2_that_is_not_positive_and_finite():
    family, gamma = ChuaCertFamily(), np.array([1.0, 0.0, 1.0])
    for lam2_graph in (0.0, -2.22, math.inf, math.nan):
        message = f"lambda2 must be positive and finite, got {lam2_graph}"
        with pytest.raises(CertifyError, match=message):
            family.threshold_cert(lam2_graph, gamma)
        with pytest.raises(CertifyError, match=message):
            family.residual_cert(10.0, lam2_graph, gamma)
    # the γ patterns no member certifies are refused first, with their own reason
    with pytest.raises(CertifyError, match="component 3 is uncoupled"):
        family.threshold_cert(0.0, np.array([1.0, 0.0, 0.0]))


def test_chua_family_refuses_a_gain_that_is_negative_or_not_finite():
    for c in (-1.0, math.inf, math.nan):
        with pytest.raises(CertifyError, match=f"gain c must be finite and nonnegative, got {c}"):
            ChuaCertFamily().residual_cert(c, 2.22, np.array([1.0, 0.0, 1.0]))


def test_chua_family_refuses_an_infimum_that_is_only_a_limit():
    # a score that falls all the way to u → ∞ (or is flat toward u → 0) has
    # no least member: the probe past the candidates wins, and that raises.
    # The family's own scores are infeasible or grow at both ends, so a
    # synthetic score drives the search here.
    family, gamma = ChuaCertFamily(), np.array([1.0, 0.0, 1.0])
    no_roots = [np.zeros((3, 0))]
    for score, end in ((lambda u: 1.0 / u, "∞"), (lambda u: np.ones_like(u), "0")):
        def members(u, score=score):
            return score(u), *family._members(u, u + 1.0)
        with pytest.raises(CertifyError, match=f"only a limit as p1/p2 → {end}"):
            family._best(members, no_roots, gamma, gamma > 0.0, "has a least score")


def test_sampled_check_finds_witness_for_deflated_certificate():
    f = relay_field(RelayParams())
    bad = QuadCertificate(p=np.ones(3), w=np.full(3, RELAY_LAMBDA_MAX - 1.0))
    check = check_quad_sampled(f.h, bad, radius=5.0, n_samples=10_000, seed=0)
    assert not check.holds
    assert check.n_samples <= 10_000
    w = check.witness
    assert w is not None
    assert w.lhs > w.rhs + 1e-9
    assert np.linalg.norm(w.x) <= 5.0 + 1e-12
    assert np.linalg.norm(w.y) <= 5.0 + 1e-12


def test_sampled_check_rejects_field_that_does_not_broadcast():
    # a rotation written for one state at a time: on a (k, 2) batch it
    # returns a (2, 2) block instead of one row per state
    def h(t, x):
        x = np.asarray(x, dtype=float)
        return np.array([x[1], -x[0]])

    cert = QuadCertificate(p=np.ones(2), w=np.zeros(2))
    with pytest.raises(CertifyError, match="broadcast"):
        check_quad_sampled(h, cert, radius=1.0, n_samples=10)


# ---------------------------------------------------------------------------
# sector bounds
# ---------------------------------------------------------------------------


def test_upsilon_sine_on_sector():
    ups = certify_upsilon(np.sin, math.pi / 3.0)
    assert abs(ups[0] - UPSILON_SIN) < 1e-9


def test_upsilon_piecewise_coupling_unbounded_domain():
    ups = certify_upsilon(pws_coupling, math.inf)
    assert abs(ups[0] - UPSILON_PWS) < 1e-9
    # 2*sqrt(2) - 2 in floats is 0.8284271247461903, above the exact value
    assert ups[0] == 0.8284271247461901


def test_upsilon_componentwise():
    ups = certify_upsilon(np.sin, math.pi / 3.0, dim=2)
    assert ups.shape == (2,)
    assert (ups == certify_upsilon(np.sin, math.pi / 3.0)[0]).all()
    assert abs(ups[0] - UPSILON_SIN) < 1e-9


@dataclass
class _Scaled:
    """A callable dataclass: eq without frozen makes it unhashable."""
    k: float

    def __call__(self, z):
        return self.k * np.asarray(z, dtype=float)


@pytest.mark.parametrize(
    "eta",
    [lambda z: np.asarray(z, dtype=float), np.tanh, _Scaled(1.0)],
    ids=["identity", "tanh", "unhashable"],
)
def test_upsilon_rejects_coupling_without_closed_form(eta):
    with pytest.raises(CertifyError, match=re.escape("CouplingSpec(upsilon=...)")):
        certify_upsilon(eta, 2.0)


@pytest.mark.parametrize("e_max", [0.0, -1.0, math.nan])
def test_upsilon_rejects_nonpositive_radius(e_max):
    with pytest.raises(CertifyError, match="e_max must be positive"):
        certify_upsilon(pws_coupling, e_max)


def _mp_exact(eta, e):
    """min eta(z)/z on 0 < z <= e at 200 bits, from the closed forms."""
    with mpmath.workprec(200):
        if eta is np.sin:
            return mpmath.sin(mpmath.mpf(e)) / mpmath.mpf(e)
        if e <= 1.0:
            return mpmath.mpf(1)
        if mpmath.mpf(e) ** 2 < 2:
            return mpmath.mpf(e) - 2 + 2 / mpmath.mpf(e)
        return 2 * mpmath.sqrt(2) - 2


@pytest.mark.parametrize(
    "eta, e_max",
    [(np.sin, e) for e in (math.pi / 3.0, 0.5, 2.0, 3.0, math.pi)]
    + [(pws_coupling, e) for e in (0.5, 1.0, 1.2, math.sqrt(2.0), 1.45, 2.0, math.inf)],
)
def test_upsilon_is_the_closed_form_rounded_down(eta, e_max):
    ups = certify_upsilon(eta, e_max)[0]
    exact = _mp_exact(eta, e_max)
    with mpmath.workprec(200):
        assert mpmath.mpf(float(ups)) <= exact
        assert exact - mpmath.mpf(float(ups)) <= 4 * math.ulp(float(ups))


def test_pws_coupling_shape():
    z = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    out = pws_coupling(z)
    assert np.allclose(out, [-5.0, -1.0, 0.0, 0.5, 1.0, 2.0], atol=1e-15)


def _pws_by_cases(z):
    """pws as first written: identity inside |z| ≤ 1, else sgn(z)((|z|−1)² + 1)."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return np.where(a <= 1.0, z, np.sign(z) * ((a - 1.0) ** 2 + 1.0))


def test_pws_coupling_equals_its_case_formula():
    # the clipped form c + o·|o| gives the same values everywhere; only
    # pws(−0.0) changes its sign, to +0.0
    grid = np.concatenate([np.linspace(-7.0, 7.0, 200_001),
                           np.nextafter([-1.0, -1.0, 1.0, 1.0], [-2.0, 0.0, 0.0, 2.0]),
                           [-1.0, 1.0, 0.0, 5e-324, -5e-324, 1e150, -1e150]])
    assert np.array_equal(pws_coupling(grid), _pws_by_cases(grid))
    special = np.array([np.inf, -np.inf, np.nan])
    assert np.array_equal(pws_coupling(special), _pws_by_cases(special), equal_nan=True)
    assert np.array_equal(pws_coupling(special), [np.inf, -np.inf, np.nan], equal_nan=True)
    assert pws_coupling(-0.0) == 0.0 and not np.signbit(pws_coupling(-0.0))
    assert pws_coupling.pieces == ((-1.0, 1.0, 1.0, 0.0),)


# ---------------------------------------------------------------------------
# linear coupling, shared smooth part
# ---------------------------------------------------------------------------


def test_relay_threshold_from_point_family():
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = Certification(_relay_fields(5), _relay_topo(), _linear(np.ones(3)), mode="thm2",
                           family=family).at(0.0)
    expected = RELAY_LAMBDA_MAX / 2.0
    assert abs(report.c_tilde - expected) < REL_TOL * expected
    assert abs(max(report.p_opt) - 1.0) < 1e-12


def test_relay_own_residual_bound_at_double_gain():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = Certification(fields, _relay_topo(), _linear(np.ones(3)), mode="cor1",
                           family=family).at(50.0)
    m = 50.0 * 2.0 - RELAY_LAMBDA_MAX
    expected = math.sqrt(6.0) * math.sqrt(5.0) / m
    assert report.certified
    assert abs(report.eps_bar - expected) < REL_TOL * expected
    assert abs(report.c_tilde - RELAY_LAMBDA_MAX / 2.0) < REL_TOL * RELAY_LAMBDA_MAX


def test_literal_residual_arithmetic():
    # With a hand-entered certificate (P = I, W = 50 I), mismatch bound 2 and
    # gain 50 on the 5-node benchmark graph, the bound is 2*sqrt(5)/50.
    family = PointFamily(QuadCertificate(p=np.ones(3), w=np.full(3, 50.0)))
    report = Certification(_relay_fields(5, 2.0), _relay_topo(), _linear(np.ones(3)), mode="thm2",
                           family=family).at(50.0)
    expected = 2.0 * math.sqrt(5.0) / 50.0
    assert abs(report.eps_bar - expected) < 1e-12


def test_residual_is_withheld_below_threshold():
    family = PointFamily(QuadCertificate(p=np.ones(3), w=np.full(3, 50.0)))
    report = Certification(_relay_fields(5, 2.0), _relay_topo(), _linear(np.ones(3)), mode="thm2",
                           family=family).at(24.0)
    assert not report.certified
    assert report.eps_bar is None


def test_residual_raises_for_noncontracting_uncoupled_component():
    family = PointFamily(QuadCertificate(p=np.ones(3), w=np.array([-1.0, -1.0, 0.0])))
    gamma = np.array([1.0, 1.0, 0.0])
    with pytest.raises(CertifyError):
        Certification(_relay_fields(5, 1.0), _relay_topo(), _linear(gamma), mode="thm2",
                      family=family).at(100.0)


def test_a_family_without_a_residual_member_fails_the_margin_hypothesis():
    class NoResidual(PointFamily):
        def residual_cert(self, c, lam2_graph, gamma):
            raise CertifyError("no member at this gain")

    family = NoResidual(quad_linear_cert(RELAY_A))
    report = Certification(_relay_fields(5), _relay_topo(), _linear(np.ones(3)), mode="cor1",
                           family=family).at(50.0)
    assert not report.certified
    assert report.eps_bar is None and report.m_value is None
    assert [(h.name, h.passed) for h in report.hypotheses] == [
        ("gain exceeds threshold", True), ("positive decay margin", False)]


def test_chua_family_threshold_matches_analytic_optimum():
    topo = complete_topology(10).scaled(2.22 / 10.0)
    gamma = np.array([1.0, 0.0, 1.0])
    fields = [chua_field(ChuaParams(), node_index=i, n_nodes=10) for i in range(10)]
    # at c = 0 no ε̄ search runs, so P* and W* are the c̃ winner
    report = Certification(fields, topo, _linear(gamma), mode="thm2",
                           family=ChuaCertFamily()).at(0.0)
    expected = CHUA_OBJECTIVE_MIN / 2.22
    assert abs(report.c_tilde - expected) < 1e-4 * expected
    assert report.w_opt[1] < 0.0  # the uncoupled middle component must contract


@pytest.mark.parametrize("c", [-1.0, math.inf, math.nan])
def test_report_builders_reject_bad_gains(c):
    family = PointFamily(quad_linear_cert(RELAY_A))
    with pytest.raises(CertifyError, match="finite and nonnegative"):
        Certification(_relay_fields(5), _relay_topo(), _linear(np.ones(3)), mode="thm2",
                      family=family).at(c)
    fields = [ikeda_field(IkedaParams(a=a, b=b)) for a, b in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.5))]
    with pytest.raises(CertifyError, match="finite and nonnegative"):
        Certification(fields, complete_topology(3), _linear(np.ones(1)), mode="thm1").at(c)
    scenario = load_scenario("kuramoto4", seed=0)
    with pytest.raises(CertifyError, match="finite and nonnegative"):
        Certification(scenario.fields, scenario.topo, scenario.coupling, scenario.x0,
                      mode="thm4").at(c)


def test_threshold_scale_invariance():
    base = quad_linear_cert(RELAY_A)
    topo = _relay_topo()

    def c_tilde(cert):
        return Certification(_relay_fields(5), topo, _linear(np.ones(3)), mode="thm2",
                             family=PointFamily(cert)).at(0.0).c_tilde

    ref = c_tilde(base)
    for alpha in (0.1, 10.0):
        val = c_tilde(_scaled(base, alpha))
        assert abs(val - ref) < REL_TOL * ref


def test_residual_scale_invariance():
    cert = QuadCertificate(p=np.array([1.0, 2.0, 0.5]), w=np.array([-1.0, -0.2, -3.0]))
    topo = _relay_topo()
    gamma = np.array([1.0, 1.0, 0.0])

    def eps_bar(cert):
        return Certification(_relay_fields(5, 1.5), topo, _linear(gamma), mode="thm2",
                             family=PointFamily(cert)).at(4.0).eps_bar

    ref = eps_bar(cert)
    for alpha in (0.1, 10.0):
        val = eps_bar(_scaled(cert, alpha))
        assert abs(val - ref) < REL_TOL * ref


def test_full_coupling_mode_requires_positive_gamma():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    with pytest.raises(CertifyError):
        Certification(fields, _relay_topo(), _linear(np.array([1.0, 0.0, 1.0])), mode="cor1",
                      family=family).at(50.0)


def test_field_free_full_coupling_variant():
    # relay nodes sharing A with the mismatch bound set to M = 2: cor1's
    # eps_bar is sqrt(N)·M / m with m = c·λ₂ − λ_max(sym A)
    fields = [relay_field(RelayParams(m_override=2.0))] * 5
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = Certification(fields, _relay_topo(), _linear(np.ones(3)), mode="cor1",
                           family=family).at(50.0)
    m = 50.0 * 2.0 - RELAY_LAMBDA_MAX
    expected = 2.0 * math.sqrt(5.0) / m
    assert abs(report.eps_bar - expected) < REL_TOL * expected


def test_shared_smooth_part_is_enforced():
    fields = [ikeda_field(IkedaParams(a=1.0 + 0.1 * i)) for i in range(3)]
    family = PointFamily(QuadCertificate(p=np.ones(1), w=np.array([-1.0])))
    with pytest.raises(CertifyError):
        Certification(fields, complete_topology(3), _linear(np.ones(1)), mode="thm2",
                      family=family).at(1.0)


def test_shared_h_is_structural_within_a_family():
    # h holds neither Chua's forcing offset nor Kuramoto's detuning, and
    # Ikeda's h is -a x alone, so b and tau may differ
    _require_common_h([chua_field(ChuaParams(), i, 4) for i in range(4)])
    _require_common_h([kuramoto_error_field(KuramotoParams(w), 0.1) for w in (0.3, -0.2, 0.0)])
    _require_common_h([ikeda_field(IkedaParams(a=1.5, b=b, tau=t)) for b, t in ((4.0, 2.0), (3.0, 1.0))])
    ikeda = [ikeda_field(IkedaParams(a=1.0)), ikeda_field(IkedaParams(a=1.0)),
             ikeda_field(IkedaParams(a=1.5))]
    with pytest.raises(CertifyError, match=re.escape("node 3 'ikeda(a=1.5, b=4, tau=2)'")):
        _require_common_h(ikeda)
    mixed = [chua_field(ChuaParams(), 0, 2), chua_field(ChuaParams(alpha=9.0), 1, 2)]
    with pytest.raises(CertifyError, match="node 2"):
        _require_common_h(mixed)


def test_shared_h_draws_no_random_numbers(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the shared-h check drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    _require_common_h([chua_field(ChuaParams(), i, 10) for i in range(10)])
    with pytest.raises(CertifyError):
        _require_common_h([ikeda_field(IkedaParams(a=a)) for a in (1.0, 2.0)])


def test_separately_built_hand_fields_do_not_share_h():
    # equal formulas in distinct closures are not a shared smooth part: only
    # the identical h object, or one family with equal h-parameters, is
    fields = [_two_component_field(-1.0, -2.0, 1.0) for _ in range(4)]
    family = PointFamily(QuadCertificate(p=np.ones(2), w=np.array([-1.0, -2.0])))
    with pytest.raises(CertifyError, match="share one smooth part"):
        Certification(fields, ring_topology(4), _linear(np.ones(2)), mode="thm2",
                      family=family).at(1.0)
    coupling = CouplingSpec("nonlinear", c=5.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, UPSILON_PWS]))
    with pytest.raises(CertifyError, match="share one smooth part"):
        Certification(fields, ring_topology(4), coupling, np.zeros(8), mode="thm4").at(coupling.c)
    shared = [fields[0]] * 4
    assert Certification(shared, ring_topology(4), _linear(np.ones(2)), mode="thm2",
                         family=family).at(1.0).certified
    assert Certification(shared, ring_topology(4), coupling, np.zeros(8),
                         mode="thm4").at(coupling.c).certified


def test_below_threshold_report_is_uncertified():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = Certification(fields, _relay_topo(), _linear(np.ones(3)), mode="cor1",
                           family=family).at(10.0)
    assert not report.certified
    assert report.eps_bar is None
    assert any(not h.passed for h in report.hypotheses)


# ---------------------------------------------------------------------------
# the double-scroll family's optimal members
# ---------------------------------------------------------------------------


def _chua_rows(alpha, beta, s, p1, p3, rho):
    """Unit-scaled (P, W) of the family formula, broadcast over its arguments."""
    p1, p3, rho = np.broadcast_arrays(p1, p3, rho)
    p2 = beta * p3
    p = np.stack([p1, p2, p3], axis=-1)
    w = np.stack([-alpha * (1.0 + s) * p1 + rho * (alpha * p1 + p2) / 2.0,
                  (alpha * p1 + p2) / (2.0 * rho) - p2, np.zeros_like(p1)], axis=-1)
    scale = 1.0 / p.max(axis=-1, keepdims=True)
    return scale * p, scale * w


def _grid_optima(alpha, beta, s, gamma, lam2_graph, c):
    """c̃ and the decay margin m, optimised over a 320 × 320 log grid in
    (u, ρ) = (p1, ρ) at p2 = 1, from the family formula alone."""
    u, rho = np.meshgrid(np.geomspace(1e-3, 10.0, 320), np.geomspace(1e-2, 1e2, 320))
    p, w = _chua_rows(alpha, beta, s, u.ravel(), 1.0 / beta, rho.ravel())
    on = gamma > 0.0
    least = lam2_graph * (p * gamma)[:, on].min(axis=1)
    top = w[:, on].max(axis=1)
    valid = (w[:, ~on] <= -_MARGIN).all(axis=1)
    c_tilde = np.where(valid, np.maximum(top / least, 0.0), np.inf).min()
    terms = top - c * least
    if (~on).any():
        terms = np.maximum(terms, w[:, ~on].max(axis=1))
    return c_tilde, (-terms).max()


def _chua_case(rng):
    alpha, beta = rng.uniform(2.0, 20.0), rng.uniform(0.5, 30.0)
    slope_a, slope_b = rng.uniform(-2.0, 0.5, size=2)
    gamma = np.array([rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0) * rng.integers(2), 1.0])
    return ChuaParams(alpha, beta, slope_a, slope_b), gamma, rng.uniform(0.5, 5.0)


def test_chua_family_optimum_beats_a_dense_grid():
    # Seeded draws of the node parameters, γ ∈ {(γ1, 0, 1), (γ1, γ2, 1)} and
    # the graph's λ₂: the family's c̃ and ε̄, read through the report, are no
    # worse than a dense grid over the same members, and both certificates
    # are unit-scaled members of the family that sampling cannot break.
    rng = np.random.default_rng(20240611)
    topo = complete_topology(4)
    for case in range(50):
        params, gamma, lam2_graph = _chua_case(rng)
        alpha, beta = params.alpha, params.beta
        s = min(params.slope_a, params.slope_b)
        fields = [chua_field(params, i, 4) for i in range(4)]
        family = ChuaCertFamily(alpha, beta, params.slope_a, params.slope_b)
        scaled = topo.scaled(lam2_graph / 4.0)
        c_tilde = Certification(fields, scaled, _linear(gamma), mode="thm2",
                                family=family).at(0.0).c_tilde
        c = (c_tilde + 0.1) * rng.uniform(1.05, 5.0)
        report = Certification(fields, scaled, _linear(gamma), mode="thm2", family=family).at(c)
        grid_c_tilde, grid_margin = _grid_optima(alpha, beta, s, gamma, lam2_graph, c)
        assert report.c_tilde <= grid_c_tilde * (1.0 + 1e-9), case
        assert report.certified, case
        assert report.eps_bar <= 2.0 / grid_margin * (1.0 + 1e-9), case  # M̄√N = 2

        threshold = family.threshold_cert(lam2_graph, gamma)
        assert (threshold.w[gamma == 0.0] <= -_MARGIN * (1.0 - 1e-9)).all(), case
        for cert in (threshold, family.residual_cert(c, lam2_graph, gamma)):
            assert cert.p_norm == 1.0 and cert.p.max() == 1.0, case
            # a member: u = p1/p2 and ρ from w2, then w1 from the formula
            u = cert.p[0] / cert.p[1]
            rho = (alpha * u + 1.0) / (2.0 * (cert.w[1] / cert.p[1] + 1.0))
            p, w = _chua_rows(alpha, beta, s, u, 1.0 / beta, rho)
            assert np.allclose(cert.p, p, rtol=1e-12, atol=0.0), case
            assert np.allclose(cert.w, w, rtol=1e-9, atol=1e-12), case
            check = check_quad_sampled(fields[0].h, cert, radius=5.0, n_samples=20_000, seed=case)
            assert check.holds, (case, check.witness)


# chua10 at c = 10 (λ₂ = 2.22) for every nonzero γ pattern: c̃ and ε̄ where
# a certificate exists, else the structural reason none does.
CHUA10_PATTERNS = [
    ((1, 0, 1), "thm2", (6.38292679067559, 12.491954254337237)),
    ((1, 1, 1), "cor1", (4.585692083643672, 4.551454209784553)),
    ((0, 0, 1), "thm2", "component 1 is uncoupled.*−α\\(1\\+s\\) = 3.4 ≥ 0"),
    ((0, 1, 1), "thm2", "component 1 is uncoupled.*−α\\(1\\+s\\) = 3.4 ≥ 0"),
    ((1, 0, 0), "thm2", "component 3 is uncoupled.*w3 = 0"),
    ((1, 1, 0), "thm2", "component 3 is uncoupled.*w3 = 0"),
    ((0, 1, 0), "thm2", "component 3 is uncoupled.*w3 = 0"),
]


@pytest.mark.parametrize("gamma, mode, expected", CHUA10_PATTERNS)
def test_chua10_gamma_patterns(gamma, mode, expected):
    scenario = load_scenario("chua10", seed=0)
    args = (scenario.fields, scenario.topo, _linear(np.array(gamma, dtype=float)))
    if isinstance(expected, str):
        with pytest.raises(CertifyError, match=expected):
            Certification(*args, mode=mode).at(10.0)
        return
    report = Certification(*args, mode=mode).at(10.0)
    assert report.certified
    assert abs(report.c_tilde - expected[0]) < 1e-13 * expected[0]
    assert abs(report.eps_bar - expected[1]) < 1e-13 * expected[1]


def _chua_optimum_cases():
    """chua10's two certified γ patterns at c = 10, then 20 seeded draws."""
    params, topo = ChuaParams(), complete_topology(10).scaled(2.22 / 10.0)
    yield params, np.array([1.0, 0.0, 1.0]), topo, 10.0
    yield params, np.ones(3), topo, 10.0
    rng = np.random.default_rng(20240611)
    for _ in range(20):
        params, gamma, lam2_graph = _chua_case(rng)
        yield params, gamma, complete_topology(4).scaled(lam2_graph / 4.0), None


def test_chua_family_optimum_matches_a_200_bit_oracle():
    # c̃ and the decay margin of the family's two members agree with an
    # mpmath search of the same family (tests/oracles.py) to 1e-13 relative
    for case, (params, gamma, topo, c) in enumerate(_chua_optimum_cases()):
        family = ChuaCertFamily(params.alpha, params.beta, params.slope_a, params.slope_b)
        fields = [chua_field(params, i, topo.n_nodes) for i in range(topo.n_nodes)]
        if c is None:
            c = 2.0 * (Certification(fields, topo, _linear(gamma), mode="thm2",
                                     family=family).at(0.0).c_tilde + 0.1)
        report = Certification(fields, topo, _linear(gamma), mode="thm2", family=family).at(c)
        c_tilde, margin = chua_family_optimum(params.alpha, params.beta,
                                              (params.slope_a, params.slope_b), gamma,
                                              report.lambda2, c)
        assert abs(report.c_tilde - c_tilde) <= 1e-13 * c_tilde, case
        assert abs(report.m_value - margin) <= 1e-13 * margin, case


def test_the_gain_hypothesis_prints_the_gain_as_the_header_does():
    # c = 6.3829267 is below c̃ = 6.38292679…; at 6 digits it printed as 6.38293
    scenario = load_scenario("chua10", seed=0)
    for c, detail in ((6.3829267, "c = 6.3829267 vs c_tilde = 6.382926791"),
                      (6.38292679067559, "c = {0} vs c_tilde = {0}"),
                      (6.3829267906755796, "c = {1} vs c_tilde = {0}")):
        report = scenario.with_gain(c).certify()
        gain, = (h for h in report.hypotheses if h.name == "gain exceeds threshold")
        # where c and c̃ read the same at 10 digits, both print at 17
        assert gain.detail == detail.format(f"{report.c_tilde:.17g}", f"{c:.17g}"), c
        assert not gain.passed and not report.certified


# Without a family, a certification takes it from the nodes; it must give
# the reports of the families the relay and double-scroll nodes call for.
EXPLICIT_FAMILIES = {
    "relay5": (lambda: PointFamily(quad_linear_cert(RELAY_A)), (0.0, 24.0, 50.0, 80.0)),
    "chua10": (ChuaCertFamily, (0.0, 5.0, 10.0, 20.0)),
}


@pytest.mark.parametrize("mode", ["thm2", "cor1"])
@pytest.mark.parametrize("name", sorted(EXPLICIT_FAMILIES))
def test_derived_family_matches_the_explicit_one(name, mode):
    scenario = load_scenario(name, seed=0)
    make_family, gains = EXPLICIT_FAMILIES[name]
    gamma = scenario.coupling.gamma if mode == "thm2" else np.ones(scenario.dim)
    for c in gains:
        args = (scenario.fields, scenario.topo, _linear(gamma))
        derived = Certification(*args, mode=mode).at(c)
        explicit = Certification(*args, mode=mode, family=make_family()).at(c)
        assert derived.to_text() == explicit.to_text(), (name, mode, c)


# ---------------------------------------------------------------------------
# linear coupling, heterogeneous smooth parts
# ---------------------------------------------------------------------------

HETERO_A = (0.5, 1.0, 2.0)
HETERO_B = (1.0, 2.0, 0.5)


def _hetero_fields():
    return [ikeda_field(IkedaParams(a=a, b=b)) for a, b in zip(HETERO_A, HETERO_B)]


def test_hetero_linear_bounds_match_hand_formulas():
    fields = _hetero_fields()
    topo = complete_topology(3)
    report = Certification(fields, topo, _linear(np.ones(1)), mode="thm1").at(2.0)

    radius = math.sqrt(3.0) * 2.0 / 0.5
    assert abs(report.ball_radius - radius) < REL_TOL * radius
    assert abs(report.eps1 - 2.0 * radius) < REL_TOL * radius
    h_max = 2.0 * radius
    assert report.h_max_method == "analytic"
    assert abs(report.h_max - h_max) < REL_TOL * h_max
    m = 0.5 + 2.0 * 3.0
    assert abs(report.m_value - m) < REL_TOL * m
    eps2 = math.sqrt(3.0) * (2.0 + h_max) / m
    assert abs(report.eps2 - eps2) < REL_TOL * eps2
    assert report.eps_bar == min(report.eps1, report.eps2)
    assert report.eps_source == "decay"
    assert report.c_tilde == 0.0
    assert report.certified


def test_hetero_linear_bounds_hold_at_zero_gain():
    report = Certification(_hetero_fields(), complete_topology(3), _linear(np.ones(1)),
                           mode="thm1").at(0.0)
    assert report.certified
    # without coupling only the uncoupled margin is left: m = min a_i
    assert abs(report.m_value - 0.5) < 1e-12
    assert report.lambda2 is None


def test_hetero_linear_bounds_at_zero_gain_need_no_connected_graph():
    # c = 0 leaves λ₂ out of the margin, so two components certify; any
    # positive gain needs λ₂, which a disconnected graph does not have
    fields = [decay_field(1.0)] * 4
    topo = topology_from_edges(4, [(0, 1), (2, 3)])
    report = Certification(fields, topo, _linear(np.ones(1)), mode="thm1").at(0.0)
    assert report.certified
    assert report.lambda2 is None
    with pytest.raises(GraphError, match="disconnected"):
        Certification(fields, topo, _linear(np.ones(1)), mode="thm1").at(1.0)


def test_hetero_linear_requires_contracting_nodes():
    fields = [kuramoto_error_field(KuramotoParams(0.1), 0.0) for _ in range(3)]
    with pytest.raises(CertifyError):
        Certification(fields, complete_topology(3), _linear(np.ones(1)), mode="thm1").at(1.0)


def test_identity_ensemble_requires_annotations():
    # thm1 and thm3 read each node's identity-metric certificate, which chua
    # nodes do not declare
    fields = [chua_field(ChuaParams(), i, 3) for i in range(3)]
    named = re.escape(f"node '{fields[0].label}'") + ".*identity-metric"
    with pytest.raises(CertifyError, match=named):
        Certification(fields, complete_topology(3), _linear(np.ones(3)), mode="thm1").at(1.0)
    coupling = _pws_coupling_spec(1.0, math.inf, dim=3)
    with pytest.raises(CertifyError, match=named):
        Certification(fields, complete_topology(3), coupling, np.zeros(9),
                      mode="thm3").at(coupling.c)


def _tanh_node(i, h_gain=None):
    """h = −2x + 0.5·tanh x, contracting with W = −1.5; its slope bound is 2.5."""
    def h(t, x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x + 0.5 * np.tanh(x)

    return AffineDecomposedField(dim=1, h=h, g=lambda t, x, history, sgn: np.full_like(x, 0.1),
                                 M=0.1,
                                 h_gain=h_gain, w_identity=np.array([-1.5]),
                                 label=f"tanh-{i}")


def test_ball_modes_refuse_a_node_without_a_slope_bound():
    # a sampled supremum can only fall below the true one, so thm1 and thm3
    # refuse the node instead of certifying from a sample
    fields = [_tanh_node(1, h_gain=2.5), _tanh_node(2), _tanh_node(3)]
    topo = complete_topology(3)
    x0 = np.array([0.3, -0.1, 0.2])
    named = re.escape("node 2 'tanh-2'") + ".*h_gain"
    linear = CouplingSpec("linear", c=2.0, gamma=np.ones(1))
    nonlinear = _pws_coupling_spec(2.0, math.inf)
    with pytest.raises(CertifyError, match=named):
        Certification(fields, topo, linear, mode="thm1").at(linear.c)
    with pytest.raises(CertifyError, match=named):
        Certification(fields, topo, nonlinear, x0, mode="thm3").at(nonlinear.c)
    for coupling, mode in ((linear, "thm1"), (nonlinear, "thm3")):
        auto = Scenario(name="tanh", topo=topo, fields=fields, coupling=coupling,
                        sim=SimConfig(), x0=x0)
        assert auto.resolved_mode() == mode
        with pytest.raises(CertifyError, match=named):
            auto.certify()
    with_gains = [_tanh_node(i, h_gain=2.5) for i in (1, 2, 3)]
    report = Certification(with_gains, topo, linear, mode="thm1").at(linear.c)
    assert report.certified and report.h_max_method == "analytic"


# ---------------------------------------------------------------------------
# nonlinear coupling
# ---------------------------------------------------------------------------


def _pws_coupling_spec(c, e_max, dim=1):
    ups = certify_upsilon(pws_coupling, e_max, dim=dim)
    return CouplingSpec("nonlinear", c=c, eta=pws_coupling, upsilon=ups,
                        e_max=e_max, label="piecewise odd")


def test_nonlinear_hetero_unbounded_sector_matches_hand_formulas():
    fields = _hetero_fields()
    topo = complete_topology(3)
    x0 = np.array([0.5, -0.2, 0.1])
    coupling = _pws_coupling_spec(2.0, math.inf)
    report = Certification(fields, topo, coupling, x0, mode="thm3").at(coupling.c)

    eps1 = math.sqrt(3.0) * 2.0 / 0.5  # no doubling for this mode
    assert abs(report.eps1 - eps1) < REL_TOL * eps1
    r_max = max(eps1, float(np.linalg.norm(x0))) + 1e-6
    assert abs(report.r_max - r_max) < REL_TOL * r_max
    h_max = 2.0 * r_max
    assert abs(report.h_max - h_max) < REL_TOL * h_max
    assert report.c_tilde == 0.0  # unbounded sector: no gain threshold
    m = 0.5 + 2.0 * 3.0 * UPSILON_PWS
    assert abs(report.m_value - m) < 1e-6 * m
    eps2 = math.sqrt(3.0) * (2.0 + h_max) / m
    assert abs(report.eps2 - eps2) < 1e-6 * eps2
    assert report.certified
    assert report.eps_bar == min(report.eps1, report.eps2)


def test_nonlinear_hetero_finite_sector_threshold():
    fields = _hetero_fields()
    topo = complete_topology(3)
    x0 = np.array([0.5, -0.2, 0.1])
    e_max = 3.0
    coupling = _pws_coupling_spec(8.0, e_max)
    report = Certification(fields, topo, coupling, x0, mode="thm3").at(coupling.c)

    eps1 = math.sqrt(3.0) * 2.0 / 0.5
    r_max = max(eps1, float(np.linalg.norm(x0))) + 1e-6
    h_max = 2.0 * r_max
    gain_term = 2.0 * math.sqrt(3.0) * (2.0 + h_max) / e_max
    expected_ct = (gain_term - 0.5) / (3.0 * UPSILON_PWS)
    assert abs(report.c_tilde - expected_ct) < 1e-6 * expected_ct
    assert report.certified


def test_nonlinear_hetero_rejects_large_initial_error():
    fields = _hetero_fields()
    coupling = _pws_coupling_spec(8.0, 3.0)
    x0 = np.array([10.0, -10.0, 0.0])
    report = Certification(fields, complete_topology(3), coupling, x0, mode="thm3").at(coupling.c)
    assert not report.certified
    assert report.eps_bar is None
    failed = [h for h in report.hypotheses if not h.passed]
    assert any("initial error" in h.name for h in failed)


def test_nonlinear_hetero_requires_contracting_nodes():
    fields = [kuramoto_error_field(KuramotoParams(0.1), 0.0) for _ in range(3)]
    coupling = _pws_coupling_spec(1.0, math.inf)
    with pytest.raises(CertifyError):
        Certification(fields, complete_topology(3), coupling, np.zeros(3),
                      mode="thm3").at(coupling.c)


def test_nonlinear_common_kuramoto_hand_arithmetic():
    omegas = (0.316, -0.316, 0.1, -0.1)
    fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omegas]
    topo = ring_topology(4)
    e_max = math.pi / 3.0
    coupling = CouplingSpec("nonlinear", c=0.75, eta=np.sin,
                            upsilon=np.array([UPSILON_SIN]), e_max=e_max)
    x0 = np.array([0.1, -0.1, 0.05, -0.05])  # already centred
    report = Certification(fields, topo, coupling, x0, mode="thm4").at(coupling.c)

    expected_ct = 1.264 / math.sqrt(3.0)
    assert abs(report.c_tilde - expected_ct) < 1e-12
    expected_eps = 0.632 * math.pi / (2.25 * math.sqrt(3.0))
    assert report.certified
    assert abs(report.eps_bar - expected_eps) < 1e-12
    assert report.eps1 is None  # single decay bound in this mode


def test_nonlinear_bounds_measure_the_centred_initial_error():
    # a common offset of every node leaves e(0) = x(0) - mean(x(0)) unchanged
    kuramoto = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in (0.316, -0.316, 0.1, -0.1)]
    sin_coupling = CouplingSpec("nonlinear", c=0.75, eta=np.sin,
                                upsilon=np.array([UPSILON_SIN]), e_max=math.pi / 3.0)
    cases = [
        (kuramoto, ring_topology(4), sin_coupling, np.array([0.1, -0.1, 0.05, -0.05]), "thm4"),
        (_hetero_fields(), complete_topology(3), _pws_coupling_spec(8.0, 3.0),
         np.array([0.5, -0.2, 0.1]), "thm3"),
    ]
    for fields, topo, coupling, x0, mode in cases:
        ref = Certification(fields, topo, coupling, x0, mode=mode).at(coupling.c).hypotheses[0]
        shifted = Certification(fields, topo, coupling, x0 + 0.25,
                                mode=mode).at(coupling.c).hypotheses[0]
        assert ref.passed and shifted.passed
        assert ref.detail == shifted.detail


def test_nonlinear_common_threshold_blocks_low_gain():
    omegas = (0.316, -0.316, 0.1, -0.1)
    fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omegas]
    coupling = CouplingSpec("nonlinear", c=0.7, eta=np.sin,
                            upsilon=np.array([UPSILON_SIN]), e_max=math.pi / 3.0)
    report = Certification(fields, ring_topology(4), coupling, np.array([0.1, -0.1, 0.05, -0.05]),
                           mode="thm4").at(coupling.c)
    assert not report.certified
    assert report.eps_bar is None


def _two_component_field(w1, w2, m):
    def h(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([w1 * x[..., 0], w2 * x[..., 1]], axis=-1)

    def g(t, x, history, sgn):
        out = np.zeros(np.shape(x))
        out[..., 0] = m
        return out

    return AffineDecomposedField(dim=2, h=h, g=g, M=m, h_gain=max(abs(w1), abs(w2)),
                                 w_identity=np.array([w1, w2]), label="two-component")


def test_nonlinear_common_uncoupled_component_boundary_is_inclusive():
    # uncoupled second component: a residual √N(M + h)/|w2| of exactly
    # e_max/2 is accepted by both modes, h being thm3's sup of h on its ball
    # (thm4 adds none), since υ holds on the closed range |z| ≤ e_max.
    node = _two_component_field(-1.0, -2.0, 1.0)
    fields = [node] * 4

    def bounds(e_max, mode):
        coupling = CouplingSpec("nonlinear", c=5.0, eta=pws_coupling,
                                upsilon=np.array([UPSILON_PWS, 0.0]), e_max=e_max)
        return Certification(fields, ring_topology(4), coupling, np.zeros(8),
                             mode=mode).at(coupling.c)

    for mode in ("thm3", "thm4"):
        h_extra = bounds(math.inf, mode).h_max or 0.0
        residual = -math.sqrt(4) * (1.0 + h_extra) / -2.0
        report = bounds(2.0 * residual, mode)
        hyp = [h for h in report.hypotheses if "uncoupled" in h.name][0]
        assert hyp.passed, mode
        assert report.certified, mode
    assert residual == 1.0  # thm4: 2·1/2


def test_nonlinear_common_rejects_noncontracting_uncoupled_component():
    node = _two_component_field(-1.0, 0.0, 1.0)
    fields = [node] * 4
    coupling = CouplingSpec("nonlinear", c=5.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, 0.0]), e_max=2.0)
    with pytest.raises(CertifyError):
        Certification(fields, ring_topology(4), coupling, np.zeros(8), mode="thm4").at(coupling.c)


def test_upsilon_shape_must_match_dimension():
    fields = _hetero_fields()
    coupling = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, UPSILON_PWS]), e_max=math.inf)
    with pytest.raises(CertifyError):
        Certification(fields, complete_topology(3), coupling, np.zeros(3),
                      mode="thm3").at(coupling.c)


# ---------------------------------------------------------------------------
# the modes: their names, the coupling each reads, the family rule and auto
# ---------------------------------------------------------------------------


def test_certification_refuses_an_unknown_mode():
    family = PointFamily(quad_linear_cert(RELAY_A))
    for coupling in (_linear(np.ones(3)), _pws_coupling_spec(1.0, math.inf, dim=3)):
        with pytest.raises(CertifyError, match="unknown mode 'cor2'"):
            Certification(_relay_fields(5), _relay_topo(), coupling, np.zeros(15), mode="cor2",
                          family=family)


@pytest.mark.parametrize("mode", ["thm1", "thm2", "cor1", "thm3", "thm4"])
def test_certification_refuses_a_mode_of_the_other_coupling_variant(mode):
    needs = "linear" if mode in ("thm1", "thm2", "cor1") else "nonlinear"
    other = _pws_coupling_spec(1.0, math.inf) if needs == "linear" else _linear(np.ones(1))
    with pytest.raises(CertifyError, match=f"mode {mode} needs {needs} coupling"):
        Certification(_hetero_fields(), complete_topology(3), other, np.zeros(3), mode=mode)


@pytest.mark.parametrize("mode", ["thm1", "thm3", "thm4", "auto"])
def test_certification_refuses_a_family_where_no_mode_reads_one(mode):
    # heterogeneous nodes resolve auto to thm1; shared ones take thm4 past
    # its own checks, so only the family can be what is refused
    family = PointFamily(QuadCertificate(p=np.ones(1), w=np.array([-1.0])))
    fields = _hetero_fields() if mode in ("thm1", "auto") else [decay_field(1.0)] * 3
    coupling = _linear(np.ones(1)) if mode in ("thm1", "auto") else _pws_coupling_spec(1.0, 3.0)
    resolved = "thm1" if mode == "auto" else mode
    with pytest.raises(CertifyError, match=f"mode {resolved} reads no certificate family"):
        Certification(fields, complete_topology(3), coupling, np.zeros(3), mode=mode,
                      family=family)
    assert Certification(fields, complete_topology(3), coupling, np.zeros(3),
                         mode=mode).at(1.0).certified


def test_auto_reads_a_family_where_it_resolves_to_thm2_or_cor1():
    class Marked(PointFamily):
        pass

    family = Marked(quad_linear_cert(RELAY_A))
    certification = Certification(_relay_fields(5), _relay_topo(), _linear(np.ones(3)),
                                  family=family)
    assert certification.mode == "cor1" and certification.family is family


# auto on each built-in's network gives the mode the built-in names, but
# for contraction3: its decay nodes share h, so auto gives cor1 where the
# built-in names thm1
AUTO_MODES = {"relay5": "cor1", "chua10": "thm2", "kuramoto4": "thm4",
              "ikeda10-linear": "thm1", "ikeda10-nonlinear": "thm3", "contraction3": "cor1"}


@pytest.mark.parametrize("name", sorted(AUTO_MODES))
def test_auto_resolves_each_builtin(name):
    scenario = load_scenario(name, seed=0)
    auto = Certification(scenario.fields, scenario.topo, scenario.coupling, scenario.x0)
    assert auto.mode == auto.at(scenario.coupling.c).mode == AUTO_MODES[name]
    assert resolve_mode("auto", scenario.fields, scenario.coupling) == AUTO_MODES[name]
    assert resolve_mode(scenario.mode, scenario.fields, scenario.coupling) == scenario.mode


# ---------------------------------------------------------------------------
# coupling spec and report plumbing
# ---------------------------------------------------------------------------


def test_coupling_spec_validation():
    with pytest.raises(CertifyError):
        CouplingSpec("linear", c=-1.0, gamma=np.ones(2))
    with pytest.raises(CertifyError):
        CouplingSpec("linear", c=1.0)  # gamma missing
    with pytest.raises(CertifyError):
        CouplingSpec("nonlinear", c=1.0, eta=np.sin)  # upsilon missing
    with pytest.raises(CertifyError):
        CouplingSpec("nonlinear", c=1.0, eta=np.sin,
                     upsilon=np.zeros(2), e_max=1.0)  # no positive sector entry
    with pytest.raises(CertifyError):
        CouplingSpec("nonlinear", c=1.0, eta=np.sin,
                     upsilon=np.array([1.0]), e_max=0.0)
    with pytest.raises(CertifyError):
        CouplingSpec("diffusive", c=1.0, gamma=np.ones(2))
    spec = CouplingSpec("linear", c=2.0, gamma=np.ones(3))
    assert spec.with_gain(7.0).c == 7.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coupling_is_rejected(bad):
    with pytest.raises(CertifyError, match="gamma must be a finite"):
        CouplingSpec("linear", c=1.0, gamma=np.array([1.0, bad]))
    with pytest.raises(CertifyError, match="upsilon must be a finite"):
        CouplingSpec("nonlinear", c=1.0, eta=np.sin, upsilon=np.array([bad]))
    with pytest.raises(CertifyError, match="e_max"):
        CouplingSpec("nonlinear", c=1.0, eta=np.sin, upsilon=np.array([1.0]), e_max=math.nan)
    with pytest.raises(CertifyError, match="e_max"):
        certify_upsilon(np.sin, math.nan)
    # a certification takes gamma only through its coupling spec
    scenario = load_scenario("ikeda10-linear", 0)
    with pytest.raises(CertifyError, match="gamma must be a finite"):
        Certification(scenario.fields, scenario.topo, _linear(np.array([bad])),
                      mode="thm1").at(20.0)
    family = PointFamily(quad_linear_cert(RELAY_A))
    with pytest.raises(CertifyError, match="gamma must be a finite"):
        Certification(_relay_fields(5), _relay_topo(), _linear(np.array([1.0, bad, 1.0])),
                      mode="thm2", family=family).at(50.0)


def test_report_serialization_round_trip():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = Certification(fields, _relay_topo(), _linear(np.ones(3)), mode="cor1",
                           family=family).at(50.0)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["mode"] == "cor1"
    assert parsed["certified"] is True
    text = report.to_text()
    assert "eps_bar" in text
    assert "c_tilde" in text


def test_report_infinities_serialize_as_strings():
    fields = _hetero_fields()
    coupling = _pws_coupling_spec(2.0, math.inf)
    report = Certification(fields, complete_topology(3), coupling, np.array([0.5, -0.2, 0.1]),
                           mode="thm3").at(coupling.c)
    blob = json.dumps(report.to_dict())
    assert "inf" in blob


_DECAY3 = [decay_field(1.0)] * 3
_SECTOR = dict(eta=np.sin, e_max=math.pi)

# (fields, coupling, x0, message) on a 3-node complete graph: one fault each
NETWORK_FAULTS = {
    "field-count": (_DECAY3[:2], CouplingSpec("linear", c=1.0, gamma=np.ones(1)), np.zeros(3),
                    "2 node fields for a 3-node topology"),
    "dimension": (_DECAY3[:2] + [chua_field(ChuaParams(), 0, 3)],
                  CouplingSpec("linear", c=1.0, gamma=np.ones(1)), np.zeros(3),
                  "all nodes must share one state dimension"),
    "gamma": (_DECAY3, CouplingSpec("linear", c=1.0, gamma=np.ones(2)), np.zeros(3),
              "gamma must have one entry per state component (1), got 2"),
    "upsilon": (_DECAY3, CouplingSpec("nonlinear", c=1.0, upsilon=np.full(2, 0.5), **_SECTOR),
                np.zeros(3), "upsilon must have one entry per state component (1), got 2"),
    "x0": (_DECAY3, CouplingSpec("nonlinear", c=1.0, upsilon=np.full(1, 0.5), **_SECTOR),
           np.zeros(4), "x0 must have 3 entries, got 4"),
}


@pytest.mark.parametrize("entry", ["scenario", "certification", "integrate_gains"])
@pytest.mark.parametrize("fault", sorted(NETWORK_FAULTS))
def test_every_entry_point_refuses_a_misshapen_network_with_its_own_error(entry, fault):
    fields, coupling, x0, message = NETWORK_FAULTS[fault]
    topo, sim = complete_topology(3), SimConfig(dt=1e-2, t_end=0.5)
    mode = "thm1" if coupling.variant == "linear" else "thm3"
    error, build = {
        "scenario": (ConfigError, lambda: Scenario(name="bad", topo=topo, fields=fields,
                                                   coupling=coupling, sim=sim, x0=x0, mode=mode)),
        "certification": (CertifyError, lambda: Certification(fields, topo, coupling, x0, mode)),
        "integrate_gains": (SimError, lambda: integrate_gains(fields, topo, coupling, [1.0], x0, sim)),
    }[entry]
    with pytest.raises(error, match=re.escape(message)):
        build()
