"""End-to-end acceptance checks for the certified-synchronization toolkit.

Each criterion is a single test that prints one pass/fail line.  The
benchmark constants for the relay criterion are split in two: the
pipeline clauses that hold (test 2a) and two stated reference constants
that exact arithmetic on the benchmark plant does not reproduce
(test 2b, which fails and says what the computed values are).
"""

import math
import time

import numpy as np
import pytest

from pwsync.certify import (
    PointFamily,
    QuadCertificate,
    certify_upsilon,
    check_quad_sampled,
    linear_common_bounds,
    pws_coupling,
    quad_linear_cert,
)
from pwsync.dynamics import RelayParams, relay_field
from pwsync.graph import (
    Topology,
    build_laplacian,
    complete_topology,
    is_connected,
    lambda2,
    ring_topology,
    topology_from_edges,
)
from pwsync.scenarios import load_scenario
from pwsync.sim import SimConfig, error_series, integrate, steady_state_eps, sweep_coupling

from oracles import lambda2_brute

RELAY_A = np.array([[1.35, 1.0, 0.0], [-99.93, 0.0, 1.0], [-5.0, 0.0, 0.0]])


def _line(cid: str, ok: bool, detail: str):
    print(f"[acceptance {cid}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_chua_threshold_search():
    t0 = time.perf_counter()
    scenario = load_scenario("chua10", 0)
    report = scenario.certify()
    elapsed = time.perf_counter() - t0

    objective = report.c_tilde * 2.22
    ok = (
        abs(objective - 14.17) <= 0.005 * 14.17
        and abs(report.c_tilde - 6.4) <= 0.05
        and report.certified
        and elapsed < 5.0
    )
    _line(
        "1 chua",
        ok,
        f"objective {objective:.6f} (target 14.17 +/- 0.5%), "
        f"c_tilde {report.c_tilde:.6f} (target 6.4 +/- 0.05), "
        f"certified at c=10: {report.certified}, {elapsed:.2f}s (< 5s)",
    )
    assert abs(objective - 14.17) <= 0.005 * 14.17
    assert abs(report.c_tilde - 6.4) <= 0.05
    assert report.certified
    assert elapsed < 5.0


def test_criterion_2a_relay_pipeline():
    t0 = time.perf_counter()
    scenario = load_scenario("relay5", 0)
    lam2_graph = lambda2(build_laplacian(scenario.topo))
    report = scenario.certify()  # gain 50 = twice the computed threshold
    traj = scenario.simulate()
    eps_hat = steady_state_eps(error_series(traj), scenario.sim.tail_fraction)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(lam2_graph - 2.0) <= 1e-9
        and eps_hat <= 0.25
        and report.certified
        and eps_hat <= report.eps_bar
        and elapsed < 60.0
    )
    _line(
        "2a relay pipeline",
        ok,
        f"lambda2 {lam2_graph:.12f} (target 2 +/- 1e-9), eps_hat {eps_hat:.3g} "
        f"(<= 0.25 and <= own eps_bar {report.eps_bar:.6g}), {elapsed:.1f}s (< 60s)",
    )
    assert abs(lam2_graph - 2.0) <= 1e-9
    assert eps_hat <= 0.25
    assert report.certified
    assert eps_hat <= report.eps_bar
    assert elapsed < 60.0


def test_criterion_2b_relay_stated_constants():
    cert = quad_linear_cert(RELAY_A)
    lam_max = float(cert.w[0])
    scenario = load_scenario("relay5", 0)
    c_tilde = linear_common_bounds(
        scenario.fields, scenario.topo, np.ones(3), scenario.coupling.c, PointFamily(cert)
    ).c_tilde
    ok = abs(lam_max - 50.0) <= 1e-9 and c_tilde == 25.0
    _line(
        "2b relay stated constants",
        ok,
        f"stated lambda_max 50 +/- 1e-9 and threshold exactly 25; computed "
        f"lambda_max = {lam_max:.17g}, threshold = {c_tilde:.17g}",
    )
    assert abs(lam_max - 50.0) <= 1e-9, (
        "the stated reference constant 50 is not attainable: exact arithmetic on "
        f"the benchmark plant gives lambda_max(sym A) = {lam_max:.17g}; the stated "
        "value appears to be rounded to two figures. The implementation follows "
        "the formula, so this clause fails by design rather than being fudged."
    )
    assert c_tilde == 25.0, (
        f"threshold from the formula is lambda_max/2 = {c_tilde:.17g}, not exactly "
        "25; it inherits the rounding of the stated lambda_max."
    )


def test_criterion_3_kuramoto():
    t0 = time.perf_counter()
    lam2_ring = lambda2(build_laplacian(ring_topology(4)))
    ups = float(certify_upsilon(np.sin, math.pi / 3.0)[0])
    scenario = load_scenario("kuramoto4", 0)
    report = scenario.certify()
    traj = scenario.simulate()
    eps_hat = steady_state_eps(error_series(traj), scenario.sim.tail_fraction)

    # hand arithmetic for the shared-smooth-part nonlinear bound:
    # eps_bar = M_bar * sqrt(N) / (c * lambda2 * upsilon)
    hand = 0.316 * 2.0 / (0.75 * 2.0 * ups)

    free = scenario.simulate(c=0.0)
    free_series = error_series(free)
    n = free_series.norms.shape[0]
    growing = (
        free_series.norms[-1] > free_series.norms[n // 2] > free_series.norms[n // 4]
    )
    detunes = np.array([f.g(0.0, np.zeros(1), None, None)[0] for f in scenario.fields])
    linear_rate = float(np.linalg.norm(detunes))
    unbounded = free_series.norms[-1] >= 0.9 * linear_rate * float(free_series.times[-1])
    elapsed = time.perf_counter() - t0

    ok = (
        abs(lam2_ring - 2.0) <= 1e-9
        and abs(ups - 0.8270) <= 1e-3
        and abs(report.c_tilde - 0.73) <= 0.01
        and report.certified
        and eps_hat <= report.eps_bar
        and abs(report.eps_bar - hand) <= 0.05 * hand
        and growing
        and unbounded
        and elapsed < 10.0
    )
    _line(
        "3 kuramoto",
        ok,
        f"lambda2 {lam2_ring:.12f}, upsilon {ups:.6f} (target 0.8270 +/- 1e-3), "
        f"c_tilde {report.c_tilde:.6f} (target 0.73 +/- 0.01), eps_hat {eps_hat:.4f} "
        f"<= eps_bar {report.eps_bar:.4f} (hand {hand:.4f}), uncoupled error grows "
        f"to {free_series.norms[-1]:.2f}, {elapsed:.1f}s (< 10s)",
    )
    assert abs(lam2_ring - 2.0) <= 1e-9
    assert abs(ups - 0.8270) <= 1e-3
    assert abs(report.c_tilde - 0.73) <= 0.01
    assert report.certified
    assert eps_hat <= report.eps_bar
    assert abs(report.eps_bar - hand) <= 0.05 * hand
    assert growing and unbounded
    assert elapsed < 10.0


def test_criterion_4_ikeda_sweep():
    t0 = time.perf_counter()
    scenario = load_scenario("ikeda10-linear", 0)

    traj = scenario.simulate()  # c = 20
    series = error_series(traj)
    eps_hat_20 = steady_state_eps(series, scenario.sim.tail_fraction)
    bounded_20 = math.isfinite(eps_hat_20) and not traj.diverged
    tail = series.norms[series.times >= 0.5 * float(series.times[-1])]
    stable_20 = float(tail.max()) <= 2.0 * max(eps_hat_20, 1e-12)

    rows = sweep_coupling(scenario, np.linspace(1.0, 100.0, 20), scenario.sim)
    eps_bars = [r["eps_bar"] for r in rows]
    eps_hats = [r["eps_hat"] for r in rows]
    all_certified = all(r["certified"] for r in rows)
    decreasing = all(b < a for a, b in zip(eps_bars, eps_bars[1:]))
    jitter_ok = all(b <= 1.10 * a for a, b in zip(eps_hats, eps_hats[1:]))

    ups = float(certify_upsilon(pws_coupling, math.inf, probe_radius=100.0)[0])
    nonlinear = load_scenario("ikeda10-nonlinear", 0)
    report_nl = nonlinear.certify()
    traj_nl = nonlinear.simulate()
    eps_hat_nl = steady_state_eps(error_series(traj_nl), nonlinear.sim.tail_fraction)
    bounded_nl = math.isfinite(eps_hat_nl) and not traj_nl.diverged
    elapsed = time.perf_counter() - t0

    ok = (
        bounded_20 and stable_20 and all_certified and decreasing and jitter_ok
        and ups >= 0.749 and report_nl.certified and bounded_nl
        and eps_hat_nl <= report_nl.eps_bar and elapsed < 120.0
    )
    _line(
        "4 ikeda",
        ok,
        f"c=20 eps_hat {eps_hat_20:.4f} bounded and stable, sweep of {len(rows)} "
        f"gains certified with eps_bar strictly decreasing ({eps_bars[0]:.3g} -> "
        f"{eps_bars[-1]:.3g}) and eps_hat within 10% jitter, nonlinear upsilon "
        f"{ups:.4f} >= 0.749 with bounded eps_hat {eps_hat_nl:.4f}, "
        f"{elapsed:.0f}s (< 120s)",
    )
    assert bounded_20 and stable_20
    assert all_certified
    assert decreasing
    assert jitter_ok
    assert ups >= 0.749
    assert report_nl.certified and bounded_nl
    assert eps_hat_nl <= report_nl.eps_bar
    assert elapsed < 120.0


def test_criterion_5a_connectivity_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 7))
        w = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < 0.6
        w[iu] = rng.uniform(0.2, 3.0, size=len(iu[0])) * mask
        w = w + w.T
        topo = Topology(w)
        if not is_connected(topo):
            continue
        count += 1
        lap = build_laplacian(topo)
        worst = max(worst, abs(lambda2(lap) - lambda2_brute(lap.matrix)))
    ok = worst < 1e-8
    _line("5a lambda2 oracle", ok, f"100 random graphs n <= 6, max deviation {worst:.2e} (< 1e-8)")
    assert worst < 1e-8


def test_criterion_5b_sampled_checker():
    node = relay_field(RelayParams())
    cert = quad_linear_cert(RELAY_A)
    good = check_quad_sampled(node.h, cert, radius=5.0, n_samples=1_000_000, seed=1)
    deflated = QuadCertificate(p=cert.p, w=cert.w - 1.0)
    bad = check_quad_sampled(node.h, deflated, radius=5.0, n_samples=10_000, seed=1)
    ok = good.holds and (not bad.holds) and bad.n_samples <= 10_000
    _line(
        "5b sampled checker",
        ok,
        f"no false witness in 1e6 samples on the exact certificate; deflated "
        f"certificate refuted after {bad.n_samples} samples (<= 1e4)",
    )
    assert good.holds
    assert not bad.holds
    assert bad.n_samples <= 10_000


def test_criterion_5c_scale_invariance():
    base = quad_linear_cert(RELAY_A)
    topo = topology_from_edges(5, ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3),
                                   (1, 4), (2, 3), (3, 4)))
    gamma = np.ones(3)
    fields = [relay_field(RelayParams(m_override=math.sqrt(6.0)))] * 5

    def bounds(cert):
        report = linear_common_bounds(fields, topo, gamma, 50.0, PointFamily(cert))
        return report.c_tilde, report.eps_bar

    ct_ref, eps_ref = bounds(base)
    worst = 0.0
    for alpha in (0.1, 10.0):
        ct, eps = bounds(QuadCertificate(alpha * base.p, alpha * base.w))
        worst = max(worst, abs(ct - ct_ref) / ct_ref, abs(eps - eps_ref) / eps_ref)
    ok = worst < 1e-9
    _line("5c scale invariance", ok,
          f"threshold and residual invariant under alpha in {{0.1, 10}}, "
          f"max relative drift {worst:.2e} (< 1e-9)")
    assert worst < 1e-9


def test_criterion_5d_integrator_order():
    from oracles import rk4_reference_scalar
    from pwsync.certify import CouplingSpec
    from pwsync.dynamics import AffineDecomposedField

    def h(t, x):
        return -1.5 * np.asarray(x, dtype=float)

    def g(t, x, history, sgn):
        return np.full(np.shape(x), 2.0 * math.cos(t))

    node = AffineDecomposedField(dim=1, h=h, g=g, M=2.0, h_gain=1.5,
                                 w_identity=np.array([-1.5]), label="forced decay")
    single = Topology(np.zeros((1, 1)))
    off = CouplingSpec("linear", c=0.0, gamma=np.ones(1))
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate([node], single, off, np.array([0.3]), SimConfig(dt=dt, t_end=1.0))
        errs.append(abs(traj.states[-1, 0] - rk4_reference_scalar(1.5, 2.0, 0.3, 1.0)))
    ratio = errs[0] / errs[1]
    ok = ratio >= 14.0
    _line("5d integrator order", ok, f"halving dt cut the error {ratio:.1f}x (>= 14x)")
    assert ratio >= 14.0


def test_criterion_5e_identical_nodes_synchronize():
    scenario = load_scenario("contraction3", 0)
    report = scenario.certify()
    traj = scenario.simulate()
    series = error_series(traj)
    final = float(series.norms[-1])
    ok = report.certified and report.eps_bar == 0.0 and final < 1e-6
    _line("5e exact synchronization", ok,
          f"identical contracting nodes: certified eps_bar {report.eps_bar}, "
          f"final error {final:.2e} (< 1e-6)")
    assert report.certified
    assert report.eps_bar == 0.0
    assert final < 1e-6
