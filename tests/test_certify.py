import json
import math
import re

import numpy as np
import pytest

from pwsync.certify import (
    CertificateFamily,
    CertifyError,
    ChuaCertFamily,
    CouplingSpec,
    PointFamily,
    QuadCertificate,
    certify_upsilon,
    check_quad_sampled,
    chua_quad_family,
    linear_common_bounds,
    linear_common_ctilde,
    linear_common_epsbar,
    linear_hetero_bounds,
    nonlinear_bounds,
    pws_coupling,
    quad_linear_cert,
)
from pwsync.certify import (
    _ctilde_score,
    _epsbar_score,
    _family_objective,
    _lockstep_nelder_mead,
    _multistart_minimize,
    _stack_mismatch_bounds,
)
from pwsync.dynamics import (
    AffineDecomposedField,
    IkedaParams,
    KuramotoParams,
    RelayParams,
    chua_field,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
)
from pwsync.graph import (
    build_laplacian,
    complete_topology,
    lambda2,
    ring_topology,
    topology_from_edges,
)
from pwsync.scenarios import load_scenario

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


def _relay_fields(n):
    return [relay_field(RelayParams())] * n


def _relay_topo():
    return topology_from_edges(5, RELAY_EDGES)


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
    cert = chua_quad_family(1.0, 1.0, 1.0)
    assert np.allclose(cert.p, [1.0, 17.3, 1.0], atol=1e-12)
    assert np.allclose(cert.w, [17.05, -3.65, 0.0], atol=1e-12)
    with pytest.raises(CertifyError):
        chua_quad_family(1.0, 1.0, 0.0)


def test_certificate_validation_and_scaling():
    with pytest.raises(CertifyError):
        QuadCertificate(p=np.array([1.0, 0.0]), w=np.array([-1.0, -1.0]))
    cert = QuadCertificate(p=np.array([2.0, 1.0]), w=np.array([-3.0, 1.0]))
    scaled = cert.scaled(0.5)
    assert np.allclose(scaled.p, [1.0, 0.5], atol=0.0)
    assert np.allclose(scaled.w, [-1.5, 0.5], atol=0.0)
    unit = cert.normalized()
    assert abs(unit.p_norm - 1.0) < 1e-14


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
    from pwsync.dynamics import ChuaParams

    node = chua_field(ChuaParams(), node_index=0, n_nodes=10)
    cert = chua_quad_family(1.0, 1.0, 1.0)
    check = check_quad_sampled(node.h, cert, radius=5.0, n_samples=100_000, seed=3)
    assert check.holds


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


def test_sampled_check_respects_domain_radius():
    cert = QuadCertificate(p=np.ones(2), w=np.full(2, -1.0), domain_radius=1.0)
    with pytest.raises(CertifyError):
        check_quad_sampled(lambda t, x: -np.asarray(x), cert, radius=2.0, n_samples=10)


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


def test_upsilon_identity_is_one():
    ups = certify_upsilon(lambda z: np.asarray(z, dtype=float), 2.0)
    assert abs(ups[0] - 1.0) < 1e-12


def test_upsilon_sine_on_sector():
    ups = certify_upsilon(np.sin, math.pi / 3.0)
    assert abs(ups[0] - UPSILON_SIN) < 1e-9


def test_upsilon_piecewise_coupling_unbounded_domain():
    ups = certify_upsilon(pws_coupling, math.inf, probe_radius=100.0)
    assert abs(ups[0] - UPSILON_PWS) < 1e-9


def test_upsilon_componentwise():
    def eta(z):
        z = np.asarray(z, dtype=float)
        return np.stack([np.sin(z[..., 0]), z[..., 1]], axis=-1)

    ups = certify_upsilon(eta, math.pi / 3.0, dim=2)
    assert abs(ups[0] - UPSILON_SIN) < 1e-9
    assert abs(ups[1] - 1.0) < 1e-9


def test_upsilon_rejects_non_odd_function():
    with pytest.raises(CertifyError):
        certify_upsilon(lambda z: np.asarray(z) + 0.1, 1.0)


def test_upsilon_rejects_sign_reversing_function():
    with pytest.raises(CertifyError):
        certify_upsilon(lambda z: -np.asarray(z, dtype=float), 1.0)


def test_pws_coupling_shape():
    z = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    out = pws_coupling(z)
    assert np.allclose(out, [-5.0, -1.0, 0.0, 0.5, 1.0, 2.0], atol=1e-15)


# ---------------------------------------------------------------------------
# linear coupling, shared smooth part
# ---------------------------------------------------------------------------


def test_relay_threshold_from_point_family():
    family = PointFamily(quad_linear_cert(RELAY_A))
    c_tilde, cert = linear_common_ctilde(family, _relay_topo(), np.ones(3))
    expected = RELAY_LAMBDA_MAX / 2.0
    assert abs(c_tilde - expected) < REL_TOL * expected
    assert abs(cert.p_norm - 1.0) < 1e-12


def test_relay_own_residual_bound_at_double_gain():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = linear_common_bounds(fields, _relay_topo(), np.ones(3), 50.0, family, mode="cor1")
    m = 50.0 * 2.0 - RELAY_LAMBDA_MAX
    expected = math.sqrt(6.0) * math.sqrt(5.0) / m
    assert report.certified
    assert abs(report.eps_bar - expected) < REL_TOL * expected
    assert abs(report.c_tilde - RELAY_LAMBDA_MAX / 2.0) < REL_TOL * RELAY_LAMBDA_MAX


def test_literal_residual_arithmetic():
    # With a hand-entered certificate (P = I, W = 50 I), mismatch bound 2 and
    # gain 50 on the 5-node benchmark graph, the bound is 2*sqrt(5)/50.
    cert = QuadCertificate(p=np.ones(3), w=np.full(3, 50.0))
    val = linear_common_epsbar(cert, _relay_topo(), np.ones(3), 3, 50.0, 2.0)
    expected = 2.0 * math.sqrt(5.0) / 50.0
    assert abs(val - expected) < 1e-12


def test_residual_raises_below_threshold():
    cert = QuadCertificate(p=np.ones(3), w=np.full(3, 50.0))
    with pytest.raises(CertifyError):
        linear_common_epsbar(cert, _relay_topo(), np.ones(3), 3, 24.0, 2.0)


def test_residual_raises_for_noncontracting_uncoupled_component():
    cert = QuadCertificate(p=np.ones(3), w=np.array([-1.0, -1.0, 0.0]))
    gamma = np.array([1.0, 1.0, 0.0])
    with pytest.raises(CertifyError):
        linear_common_epsbar(cert, _relay_topo(), gamma, 2, 100.0, 1.0)


def test_chua_family_threshold_matches_analytic_optimum():
    topo = complete_topology(10).scaled(2.22 / 10.0)
    gamma = np.array([1.0, 0.0, 1.0])
    c_tilde, cert = linear_common_ctilde(ChuaCertFamily(), topo, gamma, l=2)
    expected = CHUA_OBJECTIVE_MIN / 2.22
    assert abs(c_tilde - expected) < 1e-4 * expected
    assert cert.w[1] < 0.0  # the uncoupled middle component must contract
    with pytest.raises(CertifyError):
        linear_common_ctilde(ChuaCertFamily(), topo, gamma, l=3)


def test_threshold_scale_invariance():
    base = quad_linear_cert(RELAY_A)
    topo = _relay_topo()
    ref, _ = linear_common_ctilde(PointFamily(base), topo, np.ones(3))
    for alpha in (0.1, 10.0):
        val, _ = linear_common_ctilde(PointFamily(base.scaled(alpha)), topo, np.ones(3))
        assert abs(val - ref) < REL_TOL * ref


def test_residual_scale_invariance():
    cert = QuadCertificate(p=np.array([1.0, 2.0, 0.5]), w=np.array([-1.0, -0.2, -3.0]))
    topo = _relay_topo()
    gamma = np.array([1.0, 1.0, 0.0])
    ref = linear_common_epsbar(cert, topo, gamma, 2, 4.0, 1.5)
    for alpha in (0.1, 10.0):
        val = linear_common_epsbar(cert.scaled(alpha), topo, gamma, 2, 4.0, 1.5)
        assert abs(val - ref) < REL_TOL * ref


def test_full_coupling_mode_requires_positive_gamma():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    with pytest.raises(CertifyError):
        linear_common_bounds(fields, _relay_topo(), np.array([1.0, 0.0, 1.0]),
                             50.0, family, mode="cor1")


def test_field_free_full_coupling_variant():
    # relay nodes sharing A with the mismatch bound set to M = 2: cor1's
    # eps_bar is sqrt(N)·M / m with m = c·λ₂ − λ_max(sym A)
    fields = [relay_field(RelayParams(m_override=2.0))] * 5
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = linear_common_bounds(fields, _relay_topo(), np.ones(3), 50.0, family, mode="cor1")
    m = 50.0 * 2.0 - RELAY_LAMBDA_MAX
    expected = 2.0 * math.sqrt(5.0) / m
    assert abs(report.eps_bar - expected) < REL_TOL * expected


def test_shared_smooth_part_is_enforced():
    fields = [ikeda_field(IkedaParams(a=1.0 + 0.1 * i)) for i in range(3)]
    family = PointFamily(QuadCertificate(p=np.ones(1), w=np.array([-1.0])))
    with pytest.raises(CertifyError):
        linear_common_bounds(fields, complete_topology(3), np.ones(1), 1.0, family)


def test_below_threshold_report_is_uncertified():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = linear_common_bounds(fields, _relay_topo(), np.ones(3), 10.0, family, mode="cor1")
    assert not report.certified
    assert report.eps_bar is None
    assert any(not h.passed for h in report.hypotheses)


# ---------------------------------------------------------------------------
# lockstep multi-start Nelder-Mead against SciPy
# ---------------------------------------------------------------------------

SEARCH_OPTIONS = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000, "maxfev": 4000}


def _rosenbrock(theta):
    x = np.asarray(theta)
    return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1.0 - x[:, :-1]) ** 2, axis=1)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _assert_matches_scipy(objective, starts, **options):
    """Every lockstep start equals its own SciPy run: x, fun, nit, nfev and
    the final simplex."""
    from scipy import optimize

    opts = {**SEARCH_OPTIONS, **options}
    sim, fsim, nit, nfev = _lockstep_nelder_mead(objective, starts, **opts)
    x, fun = sim[:, 0], fsim.min(axis=1)
    for i, x0 in enumerate(starts):
        ref = optimize.minimize(lambda th: objective(th[None])[0], x0,
                                method="Nelder-Mead", options=opts)
        assert _bits(x[i]) == _bits(ref.x), f"start {i}: x {x[i]} vs {ref.x}"
        assert _bits(fun[i]) == _bits(ref.fun), f"start {i}: fun {fun[i]} vs {ref.fun}"
        assert (nit[i], nfev[i]) == (ref.nit, ref.nfev), f"start {i}"
        assert _bits(sim[i]) == _bits(ref.final_simplex[0]), f"start {i}: simplex"
        assert _bits(fsim[i]) == _bits(ref.final_simplex[1]), f"start {i}: simplex values"
    return x, fun, nit, nfev


def _chua10_search_inputs():
    scenario = load_scenario("chua10", seed=0)
    gamma = scenario.coupling.gamma
    lam2_graph = lambda2(build_laplacian(scenario.topo))
    m_bar, _ = _stack_mismatch_bounds(scenario.fields)
    return scenario, gamma, gamma > 0.0, lam2_graph, m_bar


def _seeded_starts(k=20, seed=1729):
    return ChuaCertFamily().start_points(np.random.default_rng(seed), k)


def test_lockstep_nelder_mead_matches_scipy_on_rosenbrock():
    starts = np.vstack([
        np.random.default_rng(5).uniform(-2.0, 2.0, size=(8, 3)),
        [[0.0, 0.0, 0.0], [1.2, 0.0, -0.5]],  # zero entries take the 0.00025 step
    ])
    x, fun, _, _ = _assert_matches_scipy(_rosenbrock, starts)
    assert np.all(fun < 1e-8)
    # a flat floor makes exact ties: expansion against reflection,
    # contraction against reflection, and between vertices in the sort
    _, fun, _, _ = _assert_matches_scipy(lambda th: np.maximum(_rosenbrock(th), 1.0), starts)
    assert np.all(fun == 1.0)


def test_lockstep_nelder_mead_matches_scipy_on_chua_threshold_objective():
    scenario, gamma, active, lam2_graph, _ = _chua10_search_inputs()
    objective = _family_objective(scenario.family, _ctilde_score(lam2_graph, gamma, active))
    _assert_matches_scipy(objective, _seeded_starts())


def test_lockstep_nelder_mead_matches_scipy_on_chua_residual_objective():
    scenario, gamma, active, lam2_graph, m_bar = _chua10_search_inputs()
    score = _epsbar_score(7.0, lam2_graph, gamma, active, m_bar, math.sqrt(scenario.topo.n_nodes))
    objective = _family_objective(scenario.family, score)
    starts = np.vstack([
        _seeded_starts(),
        [[800.0, 0.0, 0.0], [0.0, 800.0, 800.0], [705.0, 0.0, 0.0]],  # exp overflows
        [[0.0, 0.0, 3.0], [2.0, -2.0, 0.0]],  # zero margin or worse at c = 7
    ])
    values = objective(starts)
    assert (values == 1e18).sum() == 2  # θ = 705 overflows only once stepped
    assert (values[-2:] > 1e12).all()
    _, fun, _, _ = _assert_matches_scipy(objective, starts)
    on_plateau = (fun >= 1e12) & (fun < 1e18)
    assert on_plateau[:20].any() and (fun[:20] < 1e12).any()
    assert (fun[20:22] == 1e18).all()


def test_lockstep_nelder_mead_matches_scipy_when_cut_short():
    starts = np.random.default_rng(11).uniform(-2.0, 2.0, size=(6, 3))
    _, _, nit, _ = _assert_matches_scipy(_rosenbrock, starts, maxiter=25)
    assert (nit == 25).all()
    for maxfev in (30, 3):  # 3 < n + 1: the initial simplex is not fully evaluated
        _, _, _, nfev = _assert_matches_scipy(_rosenbrock, starts, maxfev=maxfev)
        assert (nfev == maxfev).all()

    # An all-1e18 simplex shrinks every iteration: 4 initial evaluations,
    # reflection, inside contraction, then the budget of 7 ends the shrink
    # after one of its three vertices, with the iteration not counted and
    # the second vertex moved but not evaluated (seen in the final simplex).
    scenario, gamma, active, lam2_graph, m_bar = _chua10_search_inputs()
    score = _epsbar_score(7.0, lam2_graph, gamma, active, m_bar, math.sqrt(scenario.topo.n_nodes))
    objective = _family_objective(scenario.family, score)
    starts = np.vstack([[[800.0, 800.0, 800.0]], _seeded_starts(3)])
    _, _, nit, nfev = _assert_matches_scipy(objective, starts, maxfev=7)
    assert (nit[0], nfev[0]) == (1, 7)


class _TableFamily(CertificateFamily):
    """Four one-parameter starts whose objective is constant near each."""

    n_params = 1

    def start_points(self, rng, k):
        return np.array([[0.5], [1.0], [2.0], [3.0]])


@pytest.mark.parametrize("table, winner", [
    ((np.nan, 2.0, 1.0, 1.0), 2),  # a NaN never wins; the first of a tie does
    ((3.0, np.nan, 3.0, 2.0), 3),
    ((np.inf, np.nan, np.inf, np.nan), None),  # nothing below inf: start 0's point
])
def test_multistart_winner_rule(table, winner):
    from scipy import optimize

    values = np.array(table)

    def objective(theta):
        return values[np.rint(theta[:, 0]).astype(int)]

    family = _TableFamily()
    theta = _multistart_minimize(objective, family)
    starts = family.start_points(None, 4)
    if winner is None:
        assert _bits(theta) == _bits(starts[0])
    else:
        ref = optimize.minimize(lambda th: objective(th[None])[0], starts[winner],
                                method="Nelder-Mead", options=SEARCH_OPTIONS)
        assert _bits(theta) == _bits(ref.x)


def test_family_rows_match_the_validated_certificates():
    family = ChuaCertFamily()
    thetas = np.vstack([_seeded_starts(), [[800.0, 0.0, 0.0], [-800.0, 0.0, 0.0]]])
    p, w = family.diagonals(thetas[:20])
    for i, theta in enumerate(thetas[:20]):
        cert = family.cert(theta)
        assert _bits(p[i]) == _bits(cert.p) and _bits(w[i]) == _bits(cert.w)
    for theta in thetas[20:]:
        with np.errstate(over="ignore"), pytest.raises(CertifyError):
            family.cert(theta).normalized()
    objective = _family_objective(family, lambda p, w: p.sum(axis=1))
    assert (objective(thetas[20:]) == 1e18).all()


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
    report = linear_hetero_bounds(fields, topo, np.ones(1), 2.0)

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
    report = linear_hetero_bounds(_hetero_fields(), complete_topology(3), np.ones(1), 0.0)
    assert report.certified
    # without coupling only the uncoupled margin is left: m = min a_i
    assert abs(report.m_value - 0.5) < 1e-12
    assert report.lambda2 is None


def test_hetero_linear_requires_contracting_nodes():
    fields = [kuramoto_error_field(KuramotoParams(0.1), 0.0) for _ in range(3)]
    with pytest.raises(CertifyError):
        linear_hetero_bounds(fields, complete_topology(3), np.ones(1), 1.0)


def test_identity_ensemble_requires_annotations():
    # thm1 and thm3 read each node's identity-metric certificate, which chua
    # nodes do not declare
    from pwsync.dynamics import ChuaParams

    fields = [chua_field(ChuaParams(), i, 3) for i in range(3)]
    named = re.escape(f"node '{fields[0].label}'") + ".*identity-metric"
    with pytest.raises(CertifyError, match=named):
        linear_hetero_bounds(fields, complete_topology(3), np.ones(3), 1.0)
    coupling = _pws_coupling_spec(1.0, math.inf, dim=3)
    with pytest.raises(CertifyError, match=named):
        nonlinear_bounds(fields, complete_topology(3), coupling, np.zeros(9))


# ---------------------------------------------------------------------------
# nonlinear coupling
# ---------------------------------------------------------------------------


def _pws_coupling_spec(c, e_max, dim=1):
    ups = certify_upsilon(pws_coupling, e_max, dim=dim, probe_radius=100.0)
    return CouplingSpec("nonlinear", c=c, eta=pws_coupling, upsilon=ups,
                        e_max=e_max, label="piecewise odd")


def test_nonlinear_hetero_unbounded_sector_matches_hand_formulas():
    fields = _hetero_fields()
    topo = complete_topology(3)
    x0 = np.array([0.5, -0.2, 0.1])
    coupling = _pws_coupling_spec(2.0, math.inf)
    report = nonlinear_bounds(fields, topo, coupling, x0, delta=1e-6)

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
    report = nonlinear_bounds(fields, topo, coupling, x0, delta=1e-6)

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
    report = nonlinear_bounds(fields, complete_topology(3), coupling, x0)
    assert not report.certified
    assert report.eps_bar is None
    failed = [h for h in report.hypotheses if not h.passed]
    assert any("initial error" in h.name for h in failed)


def test_nonlinear_hetero_requires_contracting_nodes():
    fields = [kuramoto_error_field(KuramotoParams(0.1), 0.0) for _ in range(3)]
    coupling = _pws_coupling_spec(1.0, math.inf)
    with pytest.raises(CertifyError):
        nonlinear_bounds(fields, complete_topology(3), coupling, np.zeros(3))


def test_nonlinear_common_kuramoto_hand_arithmetic():
    omegas = (0.316, -0.316, 0.1, -0.1)
    fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omegas]
    topo = ring_topology(4)
    e_max = math.pi / 3.0
    coupling = CouplingSpec("nonlinear", c=0.75, eta=np.sin,
                            upsilon=np.array([UPSILON_SIN]), e_max=e_max)
    x0 = np.array([0.1, -0.1, 0.05, -0.05])  # already centred
    report = nonlinear_bounds(fields, topo, coupling, x0, mode="thm4")

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
        ref = nonlinear_bounds(fields, topo, coupling, x0, mode=mode).hypotheses[0]
        shifted = nonlinear_bounds(fields, topo, coupling, x0 + 0.25, mode=mode).hypotheses[0]
        assert ref.passed and shifted.passed
        assert ref.detail == shifted.detail


def test_nonlinear_bounds_reject_unknown_mode():
    with pytest.raises(CertifyError):
        nonlinear_bounds(_hetero_fields(), complete_topology(3),
                         _pws_coupling_spec(1.0, math.inf), np.zeros(3), mode="thm1")


def test_nonlinear_common_threshold_blocks_low_gain():
    omegas = (0.316, -0.316, 0.1, -0.1)
    fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omegas]
    coupling = CouplingSpec("nonlinear", c=0.7, eta=np.sin,
                            upsilon=np.array([UPSILON_SIN]), e_max=math.pi / 3.0)
    report = nonlinear_bounds(fields, ring_topology(4), coupling,
                              np.array([0.1, -0.1, 0.05, -0.05]), mode="thm4")
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
    # uncoupled second component: residual sqrt(N)*M/|w2| = 2*1/2 = 1 equals
    # e_max/2 exactly, which this mode accepts.
    node = _two_component_field(-1.0, -2.0, 1.0)
    fields = [node] * 4
    coupling = CouplingSpec("nonlinear", c=5.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, 0.0]), e_max=2.0)
    report = nonlinear_bounds(fields, ring_topology(4), coupling, np.zeros(8), mode="thm4")
    hyp = [h for h in report.hypotheses if "uncoupled" in h.name][0]
    assert hyp.passed
    assert report.certified


def test_nonlinear_common_rejects_noncontracting_uncoupled_component():
    node = _two_component_field(-1.0, 0.0, 1.0)
    fields = [node] * 4
    coupling = CouplingSpec("nonlinear", c=5.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, 0.0]), e_max=2.0)
    with pytest.raises(CertifyError):
        nonlinear_bounds(fields, ring_topology(4), coupling, np.zeros(8), mode="thm4")


def test_upsilon_shape_must_match_dimension():
    fields = _hetero_fields()
    coupling = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling,
                            upsilon=np.array([UPSILON_PWS, UPSILON_PWS]), e_max=math.inf)
    with pytest.raises(CertifyError):
        nonlinear_bounds(fields, complete_topology(3), coupling, np.zeros(3))


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


def test_report_serialization_round_trip():
    fields = _relay_fields(5)
    family = PointFamily(quad_linear_cert(RELAY_A))
    report = linear_common_bounds(fields, _relay_topo(), np.ones(3), 50.0, family, mode="cor1")
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
    report = nonlinear_bounds(fields, complete_topology(3), coupling,
                                     np.array([0.5, -0.2, 0.1]))
    blob = json.dumps(report.to_dict())
    assert "inf" in blob
