import collections
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pwsync.certify import CertifyError, CouplingSpec, pws_coupling
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
from pwsync.graph import Topology, complete_topology, random_connected, ring_topology
from pwsync import affine, certify, csvformat, sim, sparse
from pwsync.scenarios import BUILTINS, Scenario, load_scenario
from pwsync.sim import (
    ErrorSeries,
    SimConfig,
    SimError,
    Trajectory,
    error_series,
    integrate,
    integrate_gains,
    steady_state_eps,
    sweep_coupling,
    write_error_csv,
    write_sweep_csv,
    write_trajectory_csv,
)

from oracles import rk4_network, rk4_reference_scalar
from test_golden_reports import LOW_GAINS

BENCH_SCENARIOS = Path(__file__).parents[1] / "bench" / "scenarios"

SINGLE_NODE = Topology(np.zeros((1, 1)))
NO_COUPLING = CouplingSpec("linear", c=0.0, gamma=np.ones(1))

RK4_ORDER_MIN_RATIO = 14.0


def _zero_g(t, x, history, sgn):
    return np.zeros(np.shape(x))


def _decay_field(rate=1.0, forcing=0.0):
    def h(t, x):
        return -rate * np.asarray(x, dtype=float)

    if forcing == 0.0:
        g = _zero_g
    else:
        def g(t, x, history, sgn):
            return np.full(np.shape(x), forcing * math.cos(t))

    return AffineDecomposedField(dim=1, h=h, g=g, M=abs(forcing), h_gain=rate,
                                 w_identity=np.array([-rate]), label="decay")


def _growth_field():
    def h(t, x):
        return np.asarray(x, dtype=float)

    return AffineDecomposedField(dim=1, h=h, g=_zero_g, M=0.0, h_gain=1.0,
                                 w_identity=np.array([1.0]), label="growth")


def test_single_node_exponential_decay():
    traj = integrate([_decay_field()], SINGLE_NODE, NO_COUPLING,
                     np.array([1.0]), SimConfig(dt=1e-3, t_end=1.0))
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-10
    assert traj.times[-1] == pytest.approx(1.0, abs=0.0)


def test_forced_node_matches_closed_form():
    rate, amp = 1.5, 2.0
    traj = integrate([_decay_field(rate, amp)], SINGLE_NODE, NO_COUPLING,
                     np.array([0.3]), SimConfig(dt=1e-3, t_end=2.0))
    expected = rk4_reference_scalar(rate, amp, 0.3, 2.0)
    assert abs(traj.states[-1, 0] - expected) < 1e-10


def test_two_node_coupling_rate():
    # identical decay nodes on K2: the difference contracts at rate 1 + 2c
    c = 0.8
    coupling = CouplingSpec("linear", c=c, gamma=np.ones(1))
    node = _decay_field()
    traj = integrate([node, node], complete_topology(2), coupling,
                     np.array([1.0, -0.5]), SimConfig(dt=1e-3, t_end=1.0))
    diff = traj.states[-1, 0] - traj.states[-1, 1]
    expected = 1.5 * math.exp(-(1.0 + 2.0 * c) * 1.0)
    assert abs(diff - expected) < 1e-8


def test_rk4_error_drops_at_fourth_order():
    rate, amp = 1.5, 2.0
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate([_decay_field(rate, amp)], SINGLE_NODE, NO_COUPLING,
                         np.array([0.3]), SimConfig(dt=dt, t_end=1.0))
        expected = rk4_reference_scalar(rate, amp, 0.3, 1.0)
        errs.append(abs(traj.states[-1, 0] - expected))
    assert errs[0] / errs[1] >= RK4_ORDER_MIN_RATIO


def test_error_series_sums_to_zero_on_random_networks():
    rng = np.random.default_rng(31)
    for trial in range(3):
        n = int(rng.integers(3, 7))
        topo = random_connected(n, 0.6, seed=trial)
        fields = [_decay_field(rate=float(rng.uniform(0.5, 2.0)),
                               forcing=float(rng.uniform(0.0, 1.0))) for _ in range(n)]
        coupling = CouplingSpec("linear", c=float(rng.uniform(0.0, 2.0)), gamma=np.ones(1))
        x0 = rng.normal(size=n)
        traj = integrate(fields, topo, coupling, x0, SimConfig(dt=1e-2, t_end=1.0))
        series = error_series(traj)
        sums = series.errors.reshape(len(series.times), n, 1).sum(axis=1)
        assert float(np.abs(sums).max()) < 1e-9


def test_integration_is_deterministic():
    s = SimConfig(dt=1e-3, t_end=1.0)
    node = ikeda_field(IkedaParams())
    a = integrate([node], SINGLE_NODE, NO_COUPLING, np.array([0.7]), s)
    b = integrate([node], SINGLE_NODE, NO_COUPLING, np.array([0.7]), s)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_divergence_flag_truncates_run():
    cfg = SimConfig(dt=1e-3, t_end=30.0, divergence_threshold=1e3)
    traj = integrate([_growth_field()], SINGLE_NODE, NO_COUPLING, np.array([1.0]), cfg)
    assert traj.diverged
    assert traj.times[-1] < 30.0
    assert float(np.abs(traj.states).max()) <= 1e3
    series = error_series(traj)
    assert steady_state_eps(series) == math.inf


def test_delayed_node_constant_history_phase():
    # while t < tau the delayed feedback is frozen at sin(x0):
    # x(t) = (x0 - K) exp(-a t) + K with K = b sin(x0) / a.
    p = IkedaParams(a=1.0, b=4.0, tau=2.0)
    traj = integrate([ikeda_field(p)], SINGLE_NODE, NO_COUPLING,
                     np.array([1.0]), SimConfig(dt=1e-3, t_end=1.0))
    k = 4.0 * math.sin(1.0)
    expected = (1.0 - k) * math.exp(-1.0) + k
    assert abs(traj.states[-1, 0] - expected) < 1e-9


def test_delayed_node_method_of_steps():
    # dx/dt = -x(t-1), x = 1 for t <= 0: x(t) = 1 - t on [0,1] and
    # (t-2)^2/2 - 1/2 on [1,2], so x(2) = -1/2.
    def h(t, x):
        return np.zeros(np.shape(x))

    def g(t, x, history, sgn):
        return -history(t - 1.0)

    node = AffineDecomposedField(dim=1, h=h, g=g, M=10.0, delay=1.0,
                                 h_gain=0.0, label="unit-delay")
    traj = integrate([node], SINGLE_NODE, NO_COUPLING, np.array([1.0]),
                     SimConfig(dt=1e-3, t_end=2.0))
    n = traj.times.shape[0]
    mid = traj.states[(n - 1) // 2, 0]
    assert abs(mid - 0.0) < 1e-6  # x(1) = 0
    assert abs(traj.states[-1, 0] + 0.5) < 1e-5


def test_delay_shorter_than_step_rejected():
    node = ikeda_field(IkedaParams(tau=1e-4))
    with pytest.raises(SimError):
        integrate([node], SINGLE_NODE, NO_COUPLING, np.array([1.0]),
                  SimConfig(dt=1e-3, t_end=1.0))


def test_nonlinear_coupling_term_antisymmetry():
    # two identical nodes under odd coupling keep their average fixed
    node = _decay_field()
    coupling = CouplingSpec("nonlinear", c=1.5, eta=np.sin,
                            upsilon=np.array([0.8]), e_max=math.pi)
    traj = integrate([node, node], complete_topology(2), coupling,
                     np.array([0.9, -0.9]), SimConfig(dt=1e-3, t_end=2.0))
    avg = traj.states.mean(axis=1)
    assert float(np.abs(avg - avg[0]).max()) < 1e-12
    # and the difference still contracts
    assert abs(traj.states[-1, 0] - traj.states[-1, 1]) < 0.3


def test_sim_config_validation():
    with pytest.raises(SimError):
        SimConfig(dt=0.0)
    with pytest.raises(SimError):
        SimConfig(dt=1e-3, t_end=5e-3)
    with pytest.raises(SimError):
        SimConfig(tail_fraction=0.0)
    with pytest.raises(SimError):
        SimConfig(tail_fraction=1.5)


def test_steady_state_eps_uses_tail_window():
    times = np.linspace(0.0, 10.0, 101)
    norms = np.concatenate([np.full(75, 5.0), np.full(26, 1.0)])
    norms[80] = 2.0
    series = ErrorSeries(times=times, norms=norms, errors=np.zeros((101, 1)), n_nodes=1, dim=1)
    assert steady_state_eps(series, 0.25) == 2.0
    with pytest.raises(SimError):
        steady_state_eps(series, 0.0)


def test_sweep_rows_are_sorted_and_flagged(tmp_path):
    scenario = load_scenario("contraction3", 0).with_sim(t_end=2.0)
    rows = sweep_coupling(scenario, [2.0, 0.5, 1.0])
    assert [r["c"] for r in rows] == [0.5, 1.0, 2.0]
    assert all(r["certified"] for r in rows)
    assert not any(r["diverged"] for r in rows)
    with pytest.raises(SimError):
        sweep_coupling(scenario, [-1.0])
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out, extra_meta={"scenario": "contraction3"})
    text = out.read_text()
    assert text.startswith("# scenario = contraction3\n")
    assert "c,eps_hat,eps_bar,certified,diverged" in text


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_sweep_row_is_the_certify_report_at_its_gain(name):
    # c = 0, the scenario's own gain and a gain below c_tilde where there is
    # one, over the shortest horizon a run takes
    scenario = load_scenario(name, 0)
    scenario = scenario.with_sim(t_end=10 * scenario.sim.dt)
    gains = sorted({scenario.coupling.c, *LOW_GAINS[name]})
    rows = sweep_coupling(scenario, gains)
    assert [row["c"] for row in rows] == gains
    for row in rows:
        report = scenario.with_gain(row["c"]).certify()
        assert row["certified"] == report.certified, (name, row["c"])
        eps_bar = report.eps_bar if report.certified else math.nan
        assert row["eps_bar"].hex() == eps_bar.hex(), (name, row["c"])


def test_a_sweep_of_a_scenario_no_gain_certifies_writes_nan_bounds():
    # component 3 uncoupled: no double-scroll certificate exists at any gain
    scenario = load_scenario("chua10", 0)
    scenario = dataclasses.replace(scenario, coupling=CouplingSpec(
        "linear", c=10.0, gamma=np.array([1.0, 0.0, 0.0])))
    with pytest.raises(CertifyError, match="component 3 is uncoupled"):
        scenario.certify()
    rows = sweep_coupling(scenario.with_sim(t_end=10 * scenario.sim.dt), [5.0, 10.0])
    assert [(row["certified"], math.isnan(row["eps_bar"])) for row in rows] == [(False, True)] * 2


def test_a_sweep_does_its_gain_free_certification_once(monkeypatch):
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(certify, "lambda2", counted("lambda2", certify.lambda2))
    monkeypatch.setattr(certify.ChuaCertFamily, "threshold_cert",
                        counted("threshold_cert", certify.ChuaCertFamily.threshold_cert))
    for name, gains, expected in (
            ("chua10", [5.0, 10.0, 15.0], {"lambda2": 1, "threshold_cert": 1}),
            ("kuramoto4", np.linspace(0.5, 2.0, 6), {"lambda2": 1})):
        scenario = load_scenario(name, 0)
        calls.clear()
        sweep_coupling(scenario.with_sim(t_end=10 * scenario.sim.dt), gains)
        assert calls == expected, name


def test_csv_writers_round_trip(tmp_path):
    node = _decay_field()
    traj = integrate([node, node], complete_topology(2), NO_COUPLING,
                     np.array([1.0, -1.0]), SimConfig(dt=1e-2, t_end=0.5))
    tpath = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, tpath, extra_meta={"scenario": "demo"})
    lines = tpath.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "t,x_1_1,x_2_1"
    data = np.loadtxt(tpath, delimiter=",", skiprows=header_idx + 1)
    assert np.allclose(data[:, 0], traj.times, atol=0.0)
    assert np.allclose(data[:, 1:], traj.states, atol=0.0)

    series = error_series(traj)
    epath = tmp_path / "errors.csv"
    write_error_csv(series, epath)
    elines = epath.read_text().splitlines()
    eheader = next(l for l in elines if not l.startswith("#"))
    assert eheader == "t,err_norm,e_1_1,e_2_1"
    edata = np.loadtxt(epath, delimiter=",", skiprows=elines.index(eheader) + 1)
    assert np.allclose(edata[:, 1], series.norms, atol=0.0)


def test_integrate_shape_validation():
    node = _decay_field()
    with pytest.raises(SimError):
        integrate([node], complete_topology(2), NO_COUPLING,
                  np.array([1.0, 2.0]), SimConfig())
    with pytest.raises(SimError):
        integrate([node, node], complete_topology(2), NO_COUPLING,
                  np.array([1.0]), SimConfig())


def test_coupling_shapes_are_checked_at_zero_gain():
    node = _decay_field()
    wrong_gamma = CouplingSpec("linear", c=0.0, gamma=np.ones(3))
    wrong_upsilon = CouplingSpec("nonlinear", c=0.0, eta=np.sin,
                                 upsilon=np.full(3, 0.8), e_max=math.pi)
    for coupling in (wrong_gamma, wrong_upsilon):
        with pytest.raises(SimError):
            integrate([node, node], complete_topology(2), coupling,
                      np.array([1.0, -1.0]), SimConfig(dt=1e-2, t_end=0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_state_is_rejected(bad):
    fields = [decay_field(1.0)] * 2
    coupling = CouplingSpec("linear", c=1.0, gamma=np.ones(1))
    with pytest.raises(SimError, match="x0 must be finite"):
        integrate_gains(fields, complete_topology(2), coupling, [0.0, 1.0],
                        np.array([1.0, bad]), SimConfig(dt=1e-2, t_end=0.5))


def _assert_sweep_matches_scalar_runs(scenario, gains):
    """sweep_coupling's one-pass batch against one integrate per gain."""
    cfg = scenario.sim
    gains = sorted(gains)
    batch = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                            gains, scenario.x0, cfg)
    rows = sweep_coupling(scenario, gains)
    assert [row["c"] for row in rows] == gains
    for c, traj, row in zip(gains, batch, rows):
        single = integrate(scenario.fields, scenario.topo, scenario.coupling.with_gain(c),
                           scenario.x0, cfg)
        assert traj.diverged == single.diverged == row["diverged"]
        assert traj.meta == single.meta
        assert np.array_equal(traj.times, single.times)
        assert traj.states.shape == single.states.shape
        assert float(np.abs(traj.states - single.states).max()) <= 1e-12
        eps_hat = steady_state_eps(error_series(single), cfg.tail_fraction)
        assert row["eps_hat"] == pytest.approx(eps_hat, rel=0.0, abs=1e-12)


def _custom_scenario(name, fields, topo, coupling, sim, x0):
    return Scenario(name=name, topo=topo, fields=fields, coupling=coupling,
                    sim=sim, x0=np.asarray(x0, dtype=float), mode="auto")


def _ikeda4(coupling):
    dt = 2.0 ** -6
    # the first delay is exactly four steps, so its reads land on grid points
    taus = (4 * dt, 0.05, 0.1 + 1e-3, 0.3)
    fields = [ikeda_field(IkedaParams(1.0 + 0.1 * i, 4.0 - 0.2 * i, tau))
              for i, tau in enumerate(taus)]
    return _custom_scenario("ikeda4", fields, ring_topology(4), coupling,
                            SimConfig(dt=dt, t_end=0.75), [0.4, -1.1, 0.9, 0.2])


def test_sweep_matches_scalar_runs_ikeda_heterogeneous_delays():
    linear = CouplingSpec("linear", c=1.0, gamma=np.ones(1))
    pws = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.array([0.75]))
    for coupling in (linear, pws):
        _assert_sweep_matches_scalar_runs(_ikeda4(coupling), [5.0, 0.0, 1.5])


def _chua3():
    fields = [chua_field(ChuaParams(), i, 3) for i in range(3)]
    coupling = CouplingSpec("linear", c=2.0, gamma=np.array([1.0, 0.0, 1.0]))
    x0 = np.random.default_rng(3).normal(scale=0.5, size=9)
    return _custom_scenario("chua3", fields, complete_topology(3), coupling,
                            SimConfig(dt=1e-3, t_end=0.3), x0)


def test_sweep_matches_scalar_runs_chua():
    _assert_sweep_matches_scalar_runs(_chua3(), [0.0, 2.0, 10.0])


def test_sweep_matches_scalar_runs_relay_with_and_without_boundary_layer():
    base = load_scenario("relay5", 1)
    for width in (1e-4, 0.0):
        scenario = base.with_sim(dt=5e-5, t_end=5e-3, regularization_width=width)
        _assert_sweep_matches_scalar_runs(scenario, [10.0, 50.0])


def test_sweep_matches_scalar_runs_kuramoto_and_decay():
    _assert_sweep_matches_scalar_runs(load_scenario("kuramoto4", 2).with_sim(t_end=1.0), [0.0, 0.75, 2.0])
    _assert_sweep_matches_scalar_runs(load_scenario("contraction3", 2).with_sim(t_end=1.0), [0.0, 1.0, 3.0])


def _delayed_closure_field(tau=0.05):
    def g(t, x, history, sgn):
        return -0.5 * history(t - tau) + 0.3 * math.cos(t)

    return AffineDecomposedField(dim=1, h=lambda t, x: -np.asarray(x, dtype=float),
                                 g=g, M=2.0, delay=tau, h_gain=1.0,
                                 w_identity=np.array([-1.0]), label="custom delayed")


def test_sweep_matches_scalar_runs_closure_fields_beside_a_family():
    fields = [decay_field(1.0), _delayed_closure_field(), decay_field(2.0), _decay_field(1.5, 0.7)]
    coupling = CouplingSpec("linear", c=1.0, gamma=np.ones(1))
    scenario = _custom_scenario("mixed", fields, ring_topology(4), coupling,
                                SimConfig(dt=1e-2, t_end=0.5), [1.0, -0.5, 0.25, 2.0])
    _assert_sweep_matches_scalar_runs(scenario, [0.0, 0.5, 2.0])


def _assert_families_match_closures(scenario, gains, relative=False):
    """Each family's linear block and residual against the field's own h
    and g (the closure path, a zero block, always the four-stage step),
    gain by gain, within 1e-12, or within 1e-12 of each run's max|x| when
    ``relative``.  Returns the family path's trajectories."""
    closures = [dataclasses.replace(f, family=None, params=None) for f in scenario.fields]
    args = (scenario.topo, scenario.coupling, gains, scenario.x0, scenario.sim)
    runs = integrate_gains(scenario.fields, *args)
    for kernel, reference in zip(runs, integrate_gains(closures, *args)):
        assert kernel.diverged == reference.diverged, scenario.name
        assert kernel.states.shape == reference.states.shape, scenario.name
        tol = 1e-12 * (float(np.abs(reference.states).max()) if relative else 1.0)
        assert float(np.abs(kernel.states - reference.states).max()) <= tol, scenario.name
    return runs


def _interleaved_networks():
    """(scenario, diverging gain): ikeda4 under pws (J holds node blocks
    only) and two networks whose family groups are not contiguous."""
    guard = {"divergence_threshold": 1e3}
    pws = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.array([0.75]))
    ikeda_pws = _ikeda4(pws)
    ikeda_pws = dataclasses.replace(ikeda_pws, sim=dataclasses.replace(ikeda_pws.sim, **guard))

    chua, relay = ChuaParams(), RelayParams()
    fields = [chua_field(chua, 0, 4), relay_field(relay), chua_field(chua, 2, 4), relay_field(relay)]
    x0 = np.random.default_rng(8).normal(scale=0.5, size=12)
    dim3 = _custom_scenario("chua-relay", fields, complete_topology(4),
                            CouplingSpec("linear", c=1.0, gamma=np.array([1.0, 0.0, 1.0])),
                            SimConfig(dt=1e-3, t_end=0.2, regularization_width=1e-4, **guard), x0)

    dt = 2.0 ** -6
    fields = [ikeda_field(IkedaParams(1.0, 4.0, 4 * dt)), decay_field(1.0),
              kuramoto_error_field(KuramotoParams(1.3), 1.0), _delayed_closure_field(),
              ikeda_field(IkedaParams(1.2, 3.5, 0.1 + 1e-3)), decay_field(2.0),
              kuramoto_error_field(KuramotoParams(0.6), 1.0), _decay_field(1.5, 0.7)]
    dim1 = _custom_scenario("mixed-dim1", fields, ring_topology(8),
                            CouplingSpec("linear", c=1.0, gamma=np.ones(1)),
                            SimConfig(dt=dt, t_end=0.75, **guard), np.linspace(-1.2, 1.5, 8))
    # RK4 is unstable once dt·c·λ_max is past about 2.8
    return [(ikeda_pws, 100.0), (dim3, 2000.0), (dim1, 100.0)]


def test_family_kernels_match_the_fields_own_closures():
    # a field without a family goes through h and g node by node, the
    # reference the vectorized family terms must reproduce
    ikeda_net = _ikeda4(CouplingSpec("linear", c=2.0, gamma=np.ones(1)))
    relay = load_scenario("relay5", 1).with_sim(dt=5e-5, t_end=5e-3)
    networks = [
        ikeda_net,
        _chua3(),
        relay,
        relay.with_sim(regularization_width=0.0),
        load_scenario("kuramoto4", 2).with_sim(t_end=1.0),
        load_scenario("contraction3", 2).with_sim(t_end=1.0),
    ]
    for scenario in networks:
        assert all(f.family is not None for f in scenario.fields)
        _assert_families_match_closures(scenario, [scenario.coupling.c])
    # non-contiguous groups pin where each block sits in J, and a batch
    # with c = 0 and a diverging gain pins that each gain keeps its own J
    for scenario, wild in _interleaved_networks():
        gains = [0.0, 1.5, wild]
        runs = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                               gains, scenario.x0, scenario.sim)
        assert [traj.diverged for traj in runs] == [False, False, True], scenario.name
        _assert_families_match_closures(scenario, gains)


def test_history_reads_follow_the_interpolation_rule():
    # every history read equals the rule applied to the stored trajectory:
    # x0 for s <= 0, the earlier row when the step fraction is <= 1e-9, and
    # linear interpolation otherwise
    for dt, tau in ((0.01, 0.0537), (2.0 ** -6, 4 * 2.0 ** -6)):
        reads = []

        def g(t, x, history, sgn, tau=tau, reads=reads):
            s = t - tau
            value = history(s)
            reads.append((s, value.copy()))
            return -value

        node = AffineDecomposedField(dim=1, h=lambda t, x: -np.asarray(x, dtype=float), g=g,
                                     M=5.0, delay=tau, h_gain=1.0, label="recorder")
        traj = integrate([node], SINGLE_NODE, NO_COUPLING, np.array([1.3]),
                         SimConfig(dt=dt, t_end=0.5))
        rows = traj.states
        for s, value in reads:
            if s <= 0.0:
                expected = rows[0]
            else:
                u = s / dt
                idx = int(u)
                frac = u - idx
                expected = rows[idx] if frac <= 1e-9 else rows[idx] + frac * (rows[idx + 1] - rows[idx])
            assert np.array_equal(value, expected), (dt, s)
        assert any(s > 0.0 for s, _ in reads)


def test_block_reads_equal_node_reads():
    # the forcing table's read of many nodes at many times and a hand-built
    # field's read of one node at one time gather the same rows by the same
    # rule, bit for bit: three members, times before 0, on grid points, and
    # a fraction of a step above and below 1e-9 past one
    dt = 2.0 ** -6
    rng = np.random.default_rng(3)
    states = rng.standard_normal((3, 41, 5, 2))
    history = sim._History(states, dt)
    grid = np.arange(2, 30) * dt
    ts = np.concatenate([grid, grid + 5e-10 * dt, grid + 2e-9 * dt, grid + 0.37 * dt, [-3.5 * dt]])
    nodes, lags = np.array([4, 0, 2, 0]), np.array([0.0, 3 * dt, 0.1, 40 * dt])
    reads = history.delayed(ts, lags, nodes)
    assert reads.shape == (len(ts), 3, len(nodes), 2)
    s = ts[:, None] - lags
    frac = s / dt - np.floor(s / dt)
    assert (s < 0.0).any() and (frac == 0.0).any()
    assert ((0.0 < frac) & (frac <= 1e-9)).any() and ((1e-9 < frac) & (frac < 1e-8)).any()
    for p in range(3):
        for q, i in enumerate(nodes):
            read = history.node(p, i)
            for t in range(len(ts)):
                u = (ts[t] - lags[q]) / dt
                idx = max(int(u), 0)
                row, nxt = states[p, idx, i], states[p, idx + 1, i]
                expected = row if u - idx <= 1e-9 else row + (u - idx) * (nxt - row)
                assert np.array_equal(reads[t, p, q], read(ts[t] - lags[q])), (p, i, ts[t])
                assert np.array_equal(reads[t, p, q], expected), (p, i, ts[t])


def _ikeda_rk4_reference(a, b, tau, x0, dt, n_steps):
    """One uncoupled Ikeda node by a scalar RK4 loop over its own stored
    rows, in the affine step's order of operations: with z = dt·(−a),
    x_{k+1} = x_k·M + g_k, M = R(z) and the forcing f = b·sin of the
    delayed read weighted by W₁, W₂ + W₃ and dt/6, each in Horner form."""
    rows = [x0]

    def delayed(s):
        if s <= 0.0:
            return rows[0]
        u = s / dt
        idx = int(u)
        frac = u - idx
        return rows[idx] if frac <= 1e-9 else rows[idx] + frac * (rows[idx + 1] - rows[idx])

    def f(t):
        return b * np.sin(delayed(t - tau))

    half, sixth = 0.5 * dt, dt / 6.0
    z = dt * -a
    m = 1.0 + z / 4.0
    m = 1.0 + z * m / 3.0
    m = 1.0 + z * m / 2.0
    m = 1.0 + z * m
    f0 = 0.5 + z / 4.0
    f0 = 1.0 + z * f0
    f0 = sixth * (1.0 + z * f0)
    f_half = sixth * (2.0 + z * (1.0 + z / 2.0)) + sixth * (2.0 + z)
    for k in range(n_steps):
        t, x = k * dt, rows[-1]
        g = f(t) * f0 + f(t + half) * f_half + sixth * f((k + 1) * dt)
        rows.append(x * m + g)
    return np.array(rows)[:, None]


def test_tabulated_delayed_reads_match_a_scalar_rk4_loop():
    # blocks of 5 steps (τ/dt = 5.37), of 64 (τ/dt = 70.3, past the cap)
    # and of one step (τ = dt), each over at least three blocks
    for dt, tau, t_end in ((0.01, 0.0537, 0.5), (0.01, 0.703, 2.5), (0.01, 0.01, 0.2)):
        a, b = 1.3, 4.0
        traj = integrate([ikeda_field(IkedaParams(a, b, tau))], SINGLE_NODE, NO_COUPLING,
                         np.array([0.7]), SimConfig(dt=dt, t_end=t_end))
        n_steps = traj.times.shape[0] - 1
        assert n_steps >= 3 * min(int(tau // dt), 64), (dt, tau)
        expected = _ikeda_rk4_reference(a, b, tau, 0.7, dt, n_steps)
        assert np.array_equal(traj.states, expected), (dt, tau)


def test_affine_step_matches_staged_rk4():
    # linear coupling on decay and Ikeda nodes, at the benchmark horizons:
    # every node term is linear or time-only, so the run takes one product
    # per step
    decay100 = load_scenario(str(BENCH_SCENARIOS / "decay100-linear.ini"), 0)
    _assert_families_match_closures(load_scenario("contraction3", 1).with_sim(t_end=2.0),
                                    [0.0, 1.0, 3.0], relative=True)
    _assert_families_match_closures(load_scenario("ikeda10-linear", 0).with_sim(dt=4e-3, t_end=3.2),
                                    [1.0, 7.0, 50.0], relative=True)
    _assert_families_match_closures(decay100, [0.25, 1.0], relative=True)

    # decay and Ikeda nodes side by side; the shortest delay is 20.5
    # steps, so blocks hold 20 steps, and c = 60 makes RK4 unstable
    # (dt·(a + c·λ_max) ≈ 3.8), leaving the batch inside a block
    dt = 2.0 ** -6
    fields = [ikeda_field(IkedaParams(1.0, 4.0, 20.5 * dt)), decay_field(1.0),
              ikeda_field(IkedaParams(1.2, 3.5, 30.3 * dt)), decay_field(2.0),
              ikeda_field(IkedaParams(0.8, 2.5, 70 * dt)), decay_field(0.5)]
    mixed = _custom_scenario("decay-ikeda", fields, ring_topology(6),
                             CouplingSpec("linear", c=1.0, gamma=np.ones(1)),
                             SimConfig(dt=dt, t_end=1.5), np.linspace(-1.2, 1.5, 6))
    calm, quiet, wild = _assert_families_match_closures(mixed, [1.0, 0.0, 60.0], relative=True)
    assert not calm.diverged and not quiet.diverged and wild.diverged
    last = wild.times.shape[0] - 1
    assert last > 20 and (last + 1) % 20 != 0, last
    _assert_sweep_matches_scalar_runs(mixed, [1.0, 0.0, 60.0])


def test_affine_step_keeps_fourth_order():
    # identical decay-family nodes on K2: the mean decays at rate r and the
    # difference at r + 2c, and the one-product step keeps RK4's order
    rate, c = 1.5, 0.8
    coupling = CouplingSpec("linear", c=c, gamma=np.ones(1))
    x0 = np.array([1.0, -0.5])
    mean, diff = 0.25 * math.exp(-rate), 1.5 * math.exp(-(rate + 2.0 * c))
    exact = np.array([mean + 0.5 * diff, mean - 0.5 * diff])
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate([decay_field(rate)] * 2, complete_topology(2), coupling, x0,
                         SimConfig(dt=dt, t_end=1.0))
        errs.append(float(np.abs(traj.states[-1] - exact).max()))
    assert errs[0] / errs[1] >= RK4_ORDER_MIN_RATIO


def test_tabulated_terms_survive_a_divergence_mid_block():
    # the shortest delay is 20.5 steps, so blocks hold 20 steps; the gain
    # c = 46 diverges after step 32, inside the block of steps 20-39, and
    # the surviving member keeps reading its own rows of the table
    dt = 2.0 ** -6
    taus = (20.5 * dt, 25 * dt, 30.3 * dt, 70 * dt)
    fields = [ikeda_field(IkedaParams(1.0 + 0.1 * i, 4.0 - 0.2 * i, tau))
              for i, tau in enumerate(taus)]
    scenario = _custom_scenario("ikeda4-blocks", fields, ring_topology(4),
                                CouplingSpec("linear", c=1.0, gamma=np.ones(1)),
                                SimConfig(dt=dt, t_end=1.0, divergence_threshold=1e2),
                                [0.4, -1.1, 0.9, 0.2])
    gains = [1.0, 46.0]
    calm, wild = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                                 gains, scenario.x0, scenario.sim)
    assert not calm.diverged and wild.diverged
    last = wild.times.shape[0] - 1
    assert last > 20 and (last + 1) % 20 != 0, last
    _assert_sweep_matches_scalar_runs(scenario, gains)
    _assert_families_match_closures(scenario, gains)

    # Chua's forcing table, with and without the boundary layer (0.05 puts
    # node 0's forcing, which switches at t = 0, inside the layer for 50
    # steps); the gain 2000 diverges while the others read on in the same
    # table
    for width in (0.0, 1e-4, 0.05):
        chua = _chua3()
        chua = dataclasses.replace(chua, sim=dataclasses.replace(
            chua.sim, regularization_width=width, divergence_threshold=1e3))
        _assert_sweep_matches_scalar_runs(chua, [0.0, 2.0, 10.0])
        runs = integrate_gains(chua.fields, chua.topo, chua.coupling, [0.0, 2.0, 2000.0],
                               chua.x0, chua.sim)
        assert [traj.diverged for traj in runs] == [False, False, True]
        _assert_families_match_closures(chua, [0.0, 2.0, 2000.0])


def test_delay_table_memory_is_capped_at_a_block():
    # τ/dt = 20 000: a table over every step the delay allows would hold
    # 40 001 stage rows; one over the whole 2000-step horizon 4001.  The
    # capped table holds 129, so the run peaks well below states + 4001 rows.
    n_nodes, gains = 50, [0.0, 0.0]
    fields = [ikeda_field(IkedaParams(1.0, 2.0, 20.0))] * n_nodes
    row_bytes = len(gains) * n_nodes * 8
    tracemalloc.start()
    try:
        runs = integrate_gains(fields, Topology(np.zeros((n_nodes, n_nodes))), NO_COUPLING, gains,
                               np.linspace(-1.0, 1.0, n_nodes), SimConfig(dt=1e-3, t_end=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_rows = runs[0].times.shape[0]
    assert n_rows == 2001
    assert peak < n_rows * row_bytes + 4001 * row_bytes, peak


def test_error_series_shape_is_checked():
    times, norms = np.arange(3) * 0.1, np.zeros(3)
    with pytest.raises(SimError, match="columns"):
        ErrorSeries(times=times, norms=norms, errors=np.zeros((3, 4)), n_nodes=3, dim=1)
    with pytest.raises(SimError, match="one row per time"):
        ErrorSeries(times=times, norms=np.zeros(2), errors=np.zeros((3, 3)), n_nodes=3, dim=1)
    with pytest.raises(SimError, match="one row per time"):
        ErrorSeries(times=times, norms=norms, errors=np.zeros((4, 3)), n_nodes=3, dim=1)
    ErrorSeries(times=times, norms=norms, errors=np.zeros((3, 3)), n_nodes=3, dim=1)


def test_error_csv_labels_come_from_the_series(tmp_path):
    times = np.arange(4) * 0.1
    states = np.arange(16, dtype=float).reshape(4, 4)
    series = error_series(Trajectory(times=times, states=states, n_nodes=2, dim=2))
    assert (series.n_nodes, series.dim) == (2, 2)
    header = "t,err_norm,e_1_1,e_1_2,e_2_1,e_2_2"
    for extra in (None, {"n_nodes": 4}):
        path = tmp_path / "errors.csv"
        write_error_csv(series, path, extra_meta=extra)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == header, extra


def _forms(monkeypatch, build):
    """A stage term (gather, kernel, scatter) built in its dense form and in
    its node-by-node and edge-list form."""
    terms = []
    for limit in (10 ** 12, 0):
        monkeypatch.setattr(sparse, "_DENSE", limit)
        terms.append(build())
    dense, listed = terms
    assert isinstance(dense[0], np.ndarray) and isinstance(dense[2], np.ndarray)
    assert not isinstance(listed[0], np.ndarray) and not isinstance(listed[2], np.ndarray)
    return terms


def _apply(term, x):
    return term.kernel(x @ term.gather) @ term.scatter


def test_coupling_term_matches_dense_sums(monkeypatch):
    from pwsync.graph import build_laplacian
    from pwsync.sim import _linear_part
    from pwsync.sparse import coupling_term

    rng = np.random.default_rng(5)
    w = rng.uniform(0.2, 1.5, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.7)
    w = np.triu(w, 1)
    w = w + w.T
    w[4, :] = w[:, 4] = 0.0  # an isolated node receives no coupling
    topo = Topology(w)
    x = rng.normal(size=(3, 5, 2))
    gains = np.array([0.0, 0.5, 2.0])
    diffs = x[:, None, :, :] - x[:, :, None, :]
    expected = gains[:, None, None] * np.einsum("ij,bijk->bik", w, pws_coupling(diffs))
    for term in _forms(monkeypatch, lambda: coupling_term(pws_coupling, topo, 2, gains)):
        got = _apply(term, x.reshape(3, 1, 10)).reshape(x.shape)
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-15)
        assert not got[:, 4].any()
    # J x = Aᵢ xᵢ − c (L ⊗ Γ) x, one matrix per gain acting on row states
    blocks = rng.normal(size=(5, 2, 2))
    linear = CouplingSpec("linear", c=1.0, gamma=np.array([1.0, 0.5]))
    nonlinear = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.full(2, 0.75))
    lap = build_laplacian(topo)
    expected = (np.einsum("ikl,bil->bik", blocks, x)
                - gains[:, None, None] * np.einsum("ij,bjk->bik", lap, x) * linear.gamma)
    jac_t = _linear_part(blocks, linear, topo, gains)
    assert jac_t.shape == (3, 10, 10)
    got = np.matmul(x.reshape(3, 1, 10), jac_t).reshape(x.shape)
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-15)
    assert _linear_part(np.zeros((5, 2, 2)), nonlinear, topo, gains) is None


@pytest.mark.parametrize("batch", [1, 3])
def test_dense_and_edge_list_forms_agree(monkeypatch, batch):
    from pwsync.dynamics import CHUA, RELAY, hard_sgn, saturated_sgn
    from pwsync.sparse import coupling_term, family_term

    rng = np.random.default_rng(17 + batch)
    w = rng.uniform(0.2, 1.5, size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.6)
    w = np.triu(w, 1)
    w = w + w.T
    w[2, :] = w[:, 2] = 0.0  # an isolated node
    topo = Topology(w)
    gains = np.array([1.5, 0.0, 40.0])[:batch]
    builds = {}
    for dim in (1, 2):
        for eta in (np.sin, pws_coupling):
            builds[f"{eta.__name__}, dim {dim}"] = (
                6 * dim, lambda eta=eta, dim=dim: coupling_term(eta, topo, dim, gains))
    # node rests on every node and on the non-contiguous nodes 0, 3 and 4
    chua = [chua_field(ChuaParams(slope_a=-1.34 + 0.1 * i), i, 6).params for i in range(6)]
    relay = relay_field(RelayParams(c_vector=(1.0, 0.5, -0.25))).params
    for nodes in (np.arange(6), np.array([0, 3, 4])):
        n = nodes.size
        q_chua = CHUA.stack(chua[:n])
        q_relay = RELAY.stack([relay] * n)
        for label, sgn in (("hard", hard_sgn), ("layer", saturated_sgn(0.3))):
            builds[f"relay {label}, {n} nodes"] = (
                18, lambda q=q_relay, nodes=nodes, sgn=sgn: family_term(RELAY, q, nodes, 6, sgn, batch))
        builds[f"chua, {n} nodes"] = (
            18, lambda q=q_chua, nodes=nodes: family_term(CHUA, q, nodes, 6, hard_sgn, batch))
    for label, (size, build) in builds.items():
        dense, listed = _forms(monkeypatch, build)
        # the last member sits near the divergence threshold
        x = rng.normal(size=(batch, 1, size))
        x[-1] *= 1e11
        got, expected = _apply(dense, x), _apply(listed, x)
        assert got.shape == expected.shape == (batch, 1, size), label
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-14 * scale), label


def test_both_forms_agree_over_a_divergence_mid_block(monkeypatch):
    # ikeda4 under pws (blocks of four steps) and Chua beside relay nodes
    # (dim 3, two families with a rest); each batch's last member diverges
    # partway through a run, and the others keep their own scatter
    for scenario, wild in _interleaved_networks()[:2]:
        gains = [0.0, 1.5, wild]
        args = (scenario.fields, scenario.topo, scenario.coupling, gains, scenario.x0, scenario.sim)
        runs = []
        for limit in (10 ** 12, 0):
            monkeypatch.setattr(sparse, "_DENSE", limit)
            runs.append(integrate_gains(*args))
        for dense, listed in zip(*runs):
            assert dense.diverged == listed.diverged, scenario.name
            assert dense.states.shape == listed.states.shape, scenario.name
            tol = 1e-12 * float(np.abs(listed.states).max())
            assert float(np.abs(dense.states - listed.states).max()) <= tol, scenario.name
        assert [traj.diverged for traj in runs[0]] == [False, False, True], scenario.name


class _RegionSpy(affine._Regions):
    """``_Regions`` that records itself and counts, per step inside each
    pass, the members that took the region step and those that took the
    four stages, the members it built, the steps taken from a state
    holding inf, each pass as (steps taken, members that fell back on its
    last step), and the number of gather entries of each read of the
    states or stage states."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.region_steps, self.four_stage_steps, self.builds, self.overflows = [], [], 0, 0
        self.passes, self.reads = [], []
        self.made.append(self)

    def _build(self, rows):
        self.builds += len(rows)
        super()._build(rows)

    def _gathers(self, x):
        gathers = super()._gathers(x)
        self.reads.append(gathers.size)
        return gathers

    def advance(self, store, k, j, steps):
        taken, rows = super().advance(store, k, j, steps)
        batch, fell_back = len(store), 0 if rows is None else rows.size
        self.overflows += int(np.isinf(store[:, k:k + taken]).any(axis=(0, 2, 3)).sum())
        self.region_steps += [batch] * (taken - 1) + [batch - fell_back]
        self.four_stage_steps += [0] * (taken - 1) + [fell_back]
        self.passes.append((taken, fell_back))
        return taken, rows


class _StepByStep(_RegionSpy):
    """``_RegionSpy`` whose passes take one step each."""

    def advance(self, store, k, j, steps):
        return super().advance(store, k, j, 1)


class _FourStageOnly(affine._Regions):
    """``_Regions`` whose every pass is one step on which every member
    falls back: the four-stage step on the same triples."""

    def advance(self, store, k, j, steps):
        return 1, np.arange(len(store))


class _ChainedSpy(affine._Chained):
    """``_Chained`` that records itself and counts, block by block, the
    steps it takes and the stored rows that hold inf."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = self.overflows = 0
        self.made.append(self)

    def advance(self, store, k, steps):
        super().advance(store, k, steps)
        self.steps += steps
        self.overflows += int(np.isinf(store[:, k + 1:k + steps + 1]).any(axis=(2, 3)).sum())


def _spy(monkeypatch):
    _RegionSpy.made = []
    monkeypatch.setattr(affine, "_Regions", _RegionSpy)
    return _RegionSpy.made


def _spy_chained(monkeypatch):
    _ChainedSpy.made = []
    monkeypatch.setattr(affine, "_Chained", _ChainedSpy)
    return _ChainedSpy.made


def _run(scenario, gains):
    return integrate_gains(scenario.fields, scenario.topo, scenario.coupling, gains,
                           scenario.x0, scenario.sim)


_IKEDA_BENCH = dict(dt=4e-3, t_end=3.2)
_BENCH_RUNS = {"relay5": dict(dt=5e-5, t_end=0.1), "chua10": dict(t_end=0.5),
               "ikeda10-nonlinear": _IKEDA_BENCH, "ikeda100-pws": {}}


# every one-member region run of the benchmark's simulate commands
_REGION_RUNS = {**_BENCH_RUNS, "ikeda10-linear": _IKEDA_BENCH, "contraction3": dict(t_end=2.0),
                "decay100-linear": {}}


def _bench_scenario(name, seed):
    """A built-in or a benchmark scenario file at its benchmark horizon."""
    path = BENCH_SCENARIOS / f"{name}.ini"
    return load_scenario(str(path) if path.is_file() else name, seed).with_sim(**_REGION_RUNS[name])


def test_benchmark_sized_runs_take_the_expected_form(monkeypatch):
    # the small networks hold every stage term densely at the batch sizes
    # the benchmark runs them; the 100-node graph of ikeda100-pws, 1000
    # directed edges, keeps its edge list
    from pwsync.dynamics import hard_sgn
    from pwsync.sim import _node_terms
    from pwsync.sparse import coupling_term

    cases = {"relay5": (1, True), "chua10": (1, True), "kuramoto4": (6, True),
             "ikeda10-nonlinear": (3, True), str(BENCH_SCENARIOS / "ikeda100-pws.ini"): (1, False)}
    for name, (batch, dense) in cases.items():
        scenario = load_scenario(name, 0)
        terms = _node_terms(scenario.fields, hard_sgn, None, batch)[1]
        if scenario.coupling.variant == "nonlinear":
            terms.append(coupling_term(scenario.coupling.eta, scenario.topo,
                                        scenario.fields[0].dim, np.full(batch, scenario.coupling.c)))
        assert len(terms) == 1, name
        assert isinstance(terms[0].gather, np.ndarray) is dense, name
        assert isinstance(terms[0].scatter, np.ndarray) is dense, name

    # relay5's boundary-layer sign, Chua's knee and the pws coupling, the
    # edge list of ikeda100-pws included, take region steps on almost every
    # step at seeds 0-2, in the simulate and the sweep batch; the steps on
    # which a member falls back take the four stages, never the chained step
    made, chained = _spy(monkeypatch), _spy_chained(monkeypatch)
    runs = [(name, [None]) for name in _BENCH_RUNS] + [("ikeda10-nonlinear", [5.0, 12.5, 20.0])]
    for name, gains in runs:
        for seed in (0, 1, 2):
            scenario = _bench_scenario(name, seed)
            made.clear()
            chained.clear()
            _run(scenario, [scenario.coupling.c if c is None else c for c in gains])
            (regions,) = made
            taken, fell_back = sum(regions.region_steps), sum(regions.four_stage_steps)
            assert regions.entries > 0 and regions.folded is (name != "ikeda100-pws"), name
            assert fell_back <= 0.03 * (taken + fell_back), (name, seed, taken, fell_back)
            assert chained == [], (name, seed)
    # the hard sign and sin take the chained step on every step, and an edge
    # list whose batch holds more than affine._STATE_SPACE entries the four
    # stages
    made.clear()
    chained.clear()
    _run(load_scenario("relay5", 0).with_sim(dt=5e-5, t_end=0.01, regularization_width=0.0), [50.0])
    _run(load_scenario("kuramoto4", 0).with_sim(t_end=0.5), [0.75])
    _run(load_scenario("kuramoto4", 0).with_sim(t_end=0.5), [0.5, 0.8, 1.1, 1.4, 1.7, 2.0])
    assert [f.steps for f in chained] == [200, 500, 500]
    _run(_bench_scenario("ikeda100-pws", 0).with_sim(t_end=0.1), [10.0, 20.0, 30.0])
    assert made == [] and len(chained) == 3


@pytest.mark.parametrize("name", sorted(_BENCH_RUNS))
def test_region_steps_match_the_four_stage_step(monkeypatch, name):
    # at the benchmark horizons, seeds 0-2, against the four-stage step on
    # the same triples, dense or (ikeda100-pws) over the edge list
    for seed in (0, 1, 2):
        scenario = _bench_scenario(name, seed)
        gains = [scenario.coupling.c]
        (fast,) = _run(scenario, gains)
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_Regions", _FourStageOnly)
            (slow,) = _run(scenario, gains)
        assert not fast.diverged and fast.states.shape == slow.states.shape
        peak = float(np.abs(slow.states).max())
        assert float(np.abs(fast.states - slow.states).max()) <= 1e-12 * peak, (name, seed)


def test_node_by_node_region_steps_match_the_four_stage_and_dense_steps(monkeypatch):
    # relay5's boundary layer and Chua's knee with every triple node by
    # node: the step [M_r | P₂ | P₃ | P₄] and the triples' own gathers
    # against the four-stage step and against the dense region step.  In a
    # layer of 0.2, relay nodes spend about 300 of the 2000 region steps on
    # its linear piece, where G·diag(slope)·S is not symmetric.
    # Under pws coupling with a limit of 100, relay5's rest stays dense and
    # its coupling goes over the edge list, and both read the stage states;
    # the nodes start outside the band |z| ≤ 1 and enter it after 64-192
    # of the 2000 steps.
    made = _spy(monkeypatch)
    pws = CouplingSpec("nonlinear", c=50.0, eta=pws_coupling, upsilon=np.full(3, 0.75))
    for name, width, limit, share in (("relay5", None, 0, 0.03), ("relay5", 0.2, 0, 0.03),
                                      ("chua10", None, 0, 0.03), ("relay5", 0.2, 100, 0.5)):
        for seed in (0, 1):
            scenario = _bench_scenario(name, seed)
            if width is not None:
                scenario = scenario.with_sim(regularization_width=width)
            if limit:
                scenario = dataclasses.replace(scenario, coupling=pws, mode="auto")
            gains = [scenario.coupling.c]
            (dense,) = _run(scenario, gains)
            with monkeypatch.context() as patch:
                patch.setattr(sparse, "_DENSE", limit)
                made.clear()
                (fast,) = _run(scenario, gains)
                (regions,) = made
                taken, fell_back = sum(regions.region_steps), sum(regions.four_stage_steps)
                assert not regions.folded and fell_back <= share * (taken + fell_back), (name, seed)
                dense_rest = [isinstance(term.gather, np.ndarray) for *_, term, _ in regions.terms]
                assert dense_rest == ([True, False] if limit else [False]), (name, limit)
                patch.setattr(affine, "_Regions", _FourStageOnly)
                (slow,) = _run(scenario, gains)
            peak = float(np.abs(slow.states).max())
            for other in (fast, dense):
                assert other.states.shape == slow.states.shape, (name, seed)
                assert float(np.abs(other.states - slow.states).max()) <= 1e-12 * peak, (name, seed)
            assert float(np.abs(fast.states - dense.states).max()) <= 1e-12 * peak, (name, seed)


def test_integrating_ikeda100_pws_stays_within_its_memory_budget():
    # the edge-list region step holds [M_r | P₂ | P₃ | P₄] (n × 4n) and a
    # block of forcing rows, but no forcing weights (B, 2, n, 4n)
    scenario = _bench_scenario("ikeda100-pws", 0)
    tracemalloc.start()
    try:
        (traj,) = _run(scenario, [scenario.coupling.c])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.shape[0] == 401 and not traj.diverged
    assert peak <= 2.5e6, peak


def _rk4_loop(f, x0, dt, n_steps):
    rows = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        x = rows[-1]
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        rows.append(x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4))
    return np.array(rows)


def test_a_step_whose_fourth_stage_crosses_takes_the_four_stage_step(monkeypatch):
    # a relay node x' = Ax − B·sat(Cx): from x0, the first step's stages 1-3
    # and its new state sit inside the layer |Cx| ≤ 1, and only its fourth
    # stage (Cx = 1.49) leaves it
    a_matrix, b_vector = np.array([[-5.0, 3.4], [0.6, -3.8]]), np.array([1.7, 1.2])
    x0, dt = np.array([-0.96, 1.36]), 0.25
    node = relay_field(RelayParams(a_matrix=a_matrix, b_vector=b_vector, c_vector=(1.0, 0.0)))
    held = lambda x: a_matrix @ x - b_vector * np.clip(x[0], -1.0, 1.0)  # noqa: E731
    stretched = lambda x: a_matrix @ x - b_vector * x[0]  # noqa: E731  the layer's piece
    k1 = held(x0)
    k2 = held(x0 + 0.5 * dt * k1)
    k3 = held(x0 + 0.5 * dt * k2)
    stages = [x0, x0 + 0.5 * dt * k1, x0 + 0.5 * dt * k2, x0 + dt * k3]
    assert [abs(x[0]) <= 1.0 for x in stages] == [True, True, True, False]
    expected = _rk4_loop(held, x0, dt, 10)
    assert abs(expected[1, 0]) < 1.0
    assert np.abs(_rk4_loop(stretched, x0, dt, 1)[1] - expected[1]).max() > 1e-2

    made = _spy(monkeypatch)
    traj = integrate([node], SINGLE_NODE, CouplingSpec("linear", c=0.0, gamma=np.ones(2)), x0,
                     SimConfig(dt=dt, t_end=10 * dt, regularization_width=1.0))
    (regions,) = made
    assert regions.four_stage_steps[0] == 1 and sum(regions.region_steps) > 0
    assert np.abs(traj.states - expected).max() <= 1e-14 * np.abs(expected).max()


def test_a_batch_in_different_regions_equals_single_runs(monkeypatch):
    # three gains on chua10 put the members' diode knees in different
    # pieces; the batch must equal one run per gain
    scenario = load_scenario("chua10", 1).with_sim(t_end=0.3)
    gains = [2.0, 10.0, 40.0]
    made = _spy(monkeypatch)
    batch = _run(scenario, gains)
    (regions,) = made
    assert len({tuple(p) for p in regions.pieces}) == 3
    for c, traj in zip(gains, batch):
        (single,) = _run(scenario, [c])
        assert traj.states.shape == single.states.shape
        assert float(np.abs(traj.states - single.states).max()) <= 1e-13 * float(np.abs(single.states).max())
    _assert_sweep_matches_scalar_runs(scenario, gains)


def test_a_member_leaving_its_region_mid_pass_falls_back_where_single_steps_do(monkeypatch):
    # relay5 and chua10 at their benchmark horizons, three chua10 gains in
    # different regions, and two gains of pws over the edge list of a ring
    # of decay nodes at alternating rates, from one common state whose
    # edges grow past |z| = 1, leave a region in the middle of a pass:
    # against passes of one step every fallback lands on the same step, and
    # the runs are bit for bit the same; against the four stages they agree
    # to rounding
    coupling = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.array([1.0]))
    ring = _custom_scenario("ring-decay", [decay_field(rate) for rate in np.resize([1.0, 0.05], 100)],
                            ring_topology(100), coupling, SimConfig(dt=0.01, t_end=2.0), np.full(100, 3.0))
    made = _spy(monkeypatch)
    for name, gains in (("relay5", None), ("chua10", None), ("chua10", [2.0, 10.0, 40.0]),
                        (ring, [0.1, 0.2])):
        scenario = _bench_scenario(name, 1) if isinstance(name, str) else name
        gains = gains or [scenario.coupling.c]
        made.clear()
        runs = []
        for regions in (_RegionSpy, _StepByStep, _FourStageOnly):
            monkeypatch.setattr(affine, "_Regions", regions)
            runs.append(_run(scenario, gains))
        passes, steps = made
        assert any(taken > 1 and fell_back for taken, fell_back in passes.passes), name
        assert {taken for taken, _ in steps.passes} == {1}, name
        assert passes.four_stage_steps == steps.four_stage_steps, name
        for fast, single, slow in zip(*runs):
            assert np.array_equal(fast.states, single.states), name
            peak = float(np.abs(slow.states).max())
            assert float(np.abs(fast.states - slow.states).max()) <= 1e-12 * peak, name


def test_benchmark_runs_take_most_steps_in_long_passes(monkeypatch):
    # relay5, chua10, ikeda10-nonlinear and the edge list of ikeda100-pws
    # at their benchmark horizons take at least 95 % of their steps in
    # passes longer than one, up to a block (ikeda100-pws's shortest delay
    # cuts its block below 64 steps); no exact check of ikeda100-pws's
    # edges reads more than one step's 4·K gather entries, within
    # sparse._DENSE
    made = _spy(monkeypatch)
    for name in _BENCH_RUNS:
        for seed in (0, 1, 2):
            scenario = _bench_scenario(name, seed)
            made.clear()
            (traj,) = _run(scenario, [scenario.coupling.c])
            (regions,) = made
            steps = [taken for taken, _ in regions.passes]
            assert sum(steps) == len(regions.region_steps) == traj.times.shape[0] - 1, name
            dt = scenario.sim.dt
            block = min([affine.BLOCK] + [int(f.delay // dt) for f in scenario.fields if f.delay is not None])
            assert max(steps) == block, (name, seed)
            assert sum(taken for taken in steps if taken > 1) >= 0.95 * sum(steps), (name, seed)
            if name == "ikeda100-pws":
                assert max(regions.reads) <= 4 * regions.entries <= sparse._DENSE, seed


@pytest.mark.parametrize("name", sorted(_REGION_RUNS))
def test_a_one_member_region_run_equals_its_gain_inside_a_batch(monkeypatch, name):
    # a one-member run steps its passes from its op list of 2-D products,
    # a batch by batched products with one step per member; at seeds 0-2
    # and the benchmark horizon both give the same bits.  chua10 rebuilds
    # its step inside a block and takes a forcing table per block, which
    # the op list must see; contraction3 and decay100-linear have no
    # triple; ikeda100-pws runs over the edge list, and both 100-node files
    # in batches of two, within affine._STATE_SPACE
    made = _spy(monkeypatch)
    for seed in (0, 1, 2):
        scenario = _bench_scenario(name, seed)
        c = scenario.coupling.c
        gains = [c, 0.5 * c] if scenario.topo.n_nodes > 10 else [0.5 * c, c, 2.0 * c]
        made.clear()
        (one,) = _run(scenario, [c])
        batch = _run(scenario, gains)[gains.index(c)]
        single, batched = made
        assert single.ops is not None and batched.ops is None, name
        assert sum(single.region_steps) > 0 and sum(batched.region_steps) > 0, (name, seed)
        if name == "chua10":
            assert single.builds > 1, seed
        assert not one.diverged and np.array_equal(one.states, batch.states), (name, seed)


def test_an_edge_list_run_wider_than_its_bound_steps_as_one_step_passes(monkeypatch):
    # pws on a 100-node ring at two gains (an edge list), from a tent x0
    # that climbs from −3 to 3 and back in steps of 0.12: every edge stays
    # inside |z| ≤ 1, but the node spread stays above 4.85, past the bound
    # of 1, so no step is cleared by it and each goes to the exact edge
    # check, one step of both gains at a time, in passes of up to a block
    n, gains = 100, [1.0, 2.0]
    x0 = 3.0 - 6.0 * np.abs(2.0 * np.arange(n) / n - 1.0)
    coupling = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.array([1.0]))
    scenario = _custom_scenario("ring-tent", [decay_field(0.01)] * n, ring_topology(n), coupling,
                                SimConfig(dt=0.01, t_end=4.0), x0)
    made = _spy(monkeypatch)
    fast = _run(scenario, gains)
    (regions,) = made
    assert not regions.folded and regions.bound is not None
    assert max(taken for taken, _ in regions.passes) == affine.BLOCK
    assert sum(regions.region_steps) == len(gains) * 400
    stage_reads = [size for size in regions.reads if size > len(gains) * regions.entries]
    assert stage_reads == [len(gains) * 4 * regions.entries] * 400
    for traj in fast:
        ring = np.concatenate([traj.states, traj.states[:, :1]], axis=1)
        assert np.abs(np.diff(ring, axis=1)).max() <= 1.0
        assert np.ptp(traj.states, axis=1).min() >= 4.85
    monkeypatch.setattr(affine, "_Regions", _StepByStep)
    for one, slow in zip(fast, _run(scenario, gains)):
        assert np.array_equal(one.states, slow.states)


def test_a_member_diverging_during_region_steps_ends_its_trajectory(monkeypatch):
    # two unstable relay nodes x' = x/2 − sat(x/0.1) beside two Ikeda nodes
    # (blocks of 20 steps): uncoupled, the relays run away in the layer's
    # outer pieces by region steps; at c = 5 they are held
    dt = 2.0 ** -6
    relay = relay_field(RelayParams(a_matrix=((0.5,),), b_vector=(1.0,), c_vector=(1.0,)))
    fields = [relay, ikeda_field(IkedaParams(1.0, 4.0, 20.5 * dt)), relay,
              ikeda_field(IkedaParams(1.2, 3.5, 30.3 * dt))]
    scenario = _custom_scenario("relay-ikeda", fields, ring_topology(4),
                                CouplingSpec("linear", c=1.0, gamma=np.ones(1)),
                                SimConfig(dt=dt, t_end=15.0, regularization_width=0.1,
                                          divergence_threshold=1e3),
                                [5.0, 0.3, -5.0, -0.2])
    gains = [0.0, 5.0]
    made = _spy(monkeypatch)
    wild, calm = _run(scenario, gains)
    assert wild.diverged and not calm.diverged
    last = wild.times.shape[0] - 1
    assert (last + 1) % 20 != 0, last
    (regions,) = made
    # up to the step it left, the runaway member took region steps
    assert regions.region_steps[last] == 2 and regions.four_stage_steps[last] == 0
    assert len(regions.region_steps) == calm.times.shape[0] - 1
    _assert_sweep_matches_scalar_runs(scenario, gains)
    monkeypatch.setattr(affine, "_Regions", _FourStageOnly)
    for fast, slow in zip((wild, calm), _run(scenario, gains)):
        assert fast.states.shape == slow.states.shape
        assert float(np.abs(fast.states - slow.states).max()) <= 1e-12 * float(np.abs(slow.states).max())


def test_region_steps_keep_fourth_order(monkeypatch):
    # decay-family nodes on K2 under pws coupling, inside |z| ≤ 1 from the
    # start: one region, in which pws is linear coupling, so the mean decays
    # at rate r and the difference at r + 2c
    rate, c = 1.5, 0.8
    coupling = CouplingSpec("nonlinear", c=c, eta=pws_coupling, upsilon=np.array([0.75]))
    x0 = np.array([0.5, -0.25])
    mean, diff = 0.125 * math.exp(-rate), 0.75 * math.exp(-(rate + 2.0 * c))
    exact = np.array([mean + 0.5 * diff, mean - 0.5 * diff])
    made = _spy(monkeypatch)
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate([decay_field(rate)] * 2, complete_topology(2), coupling, x0,
                         SimConfig(dt=dt, t_end=1.0))
        errs.append(float(np.abs(traj.states[-1] - exact).max()))
        assert sum(made[-1].four_stage_steps) == 0 and made[-1].entries > 0
    assert errs[0] / errs[1] >= RK4_ORDER_MIN_RATIO


def _assert_matches_rk4_loop(scenario, gains, sgn):
    """Each gain's run against classical RK4 over the fields' own h and g
    and the coupling summed edge by edge (tests/oracles.py), within 1e-12
    of the run's max|x|.  Returns the runs."""
    cfg = scenario.sim
    n_steps = int(round(cfg.t_end / cfg.dt))
    runs = _run(scenario, gains)
    for c, traj in zip(gains, runs):
        expected = rk4_network(scenario.fields, scenario.topo.weights, scenario.coupling.with_gain(c),
                               scenario.x0, cfg.dt, n_steps, sgn, cfg.divergence_threshold)
        assert traj.states.shape == expected.shape, (scenario.name, c)
        assert traj.diverged is (expected.shape[0] <= n_steps), (scenario.name, c)
        tol = 1e-12 * float(np.abs(expected).max())
        assert float(np.abs(traj.states - expected).max()) <= tol, (scenario.name, c)
    return runs


def test_folded_step_matches_a_plain_rk4_loop(monkeypatch):
    from pwsync.dynamics import hard_sgn

    made = _spy_chained(monkeypatch)
    kuramoto = load_scenario("kuramoto4", 1).with_sim(t_end=1.0)
    _assert_matches_rk4_loop(kuramoto, [kuramoto.coupling.c], hard_sgn)
    # six gains in one batch; uncoupled, the phase errors pass 0.35 on step
    # 948, inside a block of 64 steps, and the other five stay at most 0.2
    drifting = kuramoto.with_sim(divergence_threshold=0.35)
    runs = _assert_matches_rk4_loop(drifting, [0.0, 0.6, 0.9, 1.2, 1.6, 2.0], hard_sgn)
    assert [traj.times.shape[0] - 1 for traj in runs] == [948] + [1000] * 5
    # the hard sign: no region step can carry it
    relay = load_scenario("relay5", 1).with_sim(dt=5e-5, t_end=5e-3, regularization_width=0.0)
    _assert_matches_rk4_loop(relay, [relay.coupling.c], hard_sgn)
    # and under linear coupling at three gains, one J per gain: the step's
    # products are batched over the gains.  The gain 5000 passes 1e40 on
    # step 36, inside a block of 64 steps
    wild = relay.with_sim(dt=2e-4, t_end=0.02, divergence_threshold=1e40)
    runs = _assert_matches_rk4_loop(wild, [30.0, 5e3, 50.0], hard_sgn)
    assert [traj.times.shape[0] - 1 for traj in runs] == [100, 35, 100]
    assert made[-1].step.ndim == 3  # one step matrix per gain
    # sin coupling on a weighted graph that is not a ring, among Kuramoto
    # and decay nodes, so that J holds the decay rates
    rng = np.random.default_rng(23)
    w = rng.uniform(0.2, 1.5, size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.6)
    w = np.triu(w, 1)
    w = w + w.T
    fields = [kuramoto_error_field(KuramotoParams(0.9), 1.0), decay_field(1.5),
              kuramoto_error_field(KuramotoParams(1.3), 1.0), decay_field(0.5),
              kuramoto_error_field(KuramotoParams(0.8), 1.0), decay_field(2.0)]
    sine = _custom_scenario("sin-weighted", fields, Topology(w),
                            CouplingSpec("nonlinear", c=1.0, eta=np.sin, upsilon=np.array([0.8])),
                            SimConfig(dt=1e-2, t_end=3.0), rng.uniform(-1.5, 1.5, size=6))
    _assert_matches_rk4_loop(sine, [0.5, 3.0], hard_sgn)
    assert [f.steps for f in made] == [1000, 1000, 100, 100, 300]


def test_a_family_kernel_is_the_elementwise_function_itself(monkeypatch):
    # a family's triple applies the function its kernel(sgn) returns, with
    # the pieces that function carries: the relay's exact sign is the ufunc
    # np.sign, which the chained step runs in place, with no copy
    built, copies = [], []
    node_terms, overwrite = sim._node_terms, affine._overwrite

    def spied_terms(fields, sgn, *args):
        out = node_terms(fields, sgn, *args)
        built.append((sgn, out[1]))
        return out

    def spied_overwrite(kernel, y):
        copies.append(kernel)
        overwrite(kernel, y)

    monkeypatch.setattr(sim, "_node_terms", spied_terms)
    monkeypatch.setattr(affine, "_overwrite", spied_overwrite)
    made = _spy_chained(monkeypatch)
    relay = load_scenario("relay5", 3).with_sim(dt=5e-5, t_end=5e-3, regularization_width=0.0)
    _run(relay, [relay.coupling.c])
    ((sgn, (term,)),) = built
    assert sgn is np.sign and term.kernel is np.sign
    assert [f.steps for f in made] == [100] and copies == []
    _run(relay.with_sim(regularization_width=1e-2), [relay.coupling.c])
    sgn, (term,) = built[-1]
    assert term.kernel is sgn
    assert term.kernel.pieces == ((-math.inf, -1e-2, 0.0, -1.0), (-1e-2, 1e-2, 100.0, 0.0),
                                  (1e-2, math.inf, 0.0, 1.0))
    _run(load_scenario("chua10", 3).with_sim(t_end=0.01), [10.0])
    _, (term,) = built[-1]
    assert term.kernel.pieces == ((-math.inf, -1.0, 0.0, -2.0), (-1.0, 1.0, 2.0, 0.0),
                                  (1.0, math.inf, 0.0, 2.0))


def test_delayed_runs_match_the_rk4_oracle_in_every_step_form(monkeypatch):
    # three Ikeda nodes, one delay on a grid point (four steps, which sets
    # the block) and two between grid points, against the oracle's own reads
    # within 1e-12 of max|x|: region passes, the four stages on the same
    # triples and, for pws, the edge-list form with and without regions.
    # The pws pairs start past |z| = 1, so the runs change region
    from pwsync.dynamics import hard_sgn

    dt = 2.0 ** -6
    fields = [ikeda_field(IkedaParams(1.0 + 0.2 * i, 4.0 - 0.5 * i, tau))
              for i, tau in enumerate((4 * dt, 0.05, 0.1 + 1e-3))]
    gains = [0.0, 1.5, 5.0]
    pws = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.array([0.75]))
    for coupling in (CouplingSpec("linear", c=1.0, gamma=np.ones(1)), pws):
        scenario = _custom_scenario("ikeda3", fields, complete_topology(3), coupling,
                                    SimConfig(dt=dt, t_end=1.0), [0.9, -1.1, 0.4])
        made = _spy(monkeypatch)
        _assert_matches_rk4_loop(scenario, gains, hard_sgn)
        (regions,) = made
        assert sum(regions.region_steps) > 0, scenario.name
        monkeypatch.setattr(affine, "_Regions", _FourStageOnly)
        _assert_matches_rk4_loop(scenario, gains, hard_sgn)
    made = _spy(monkeypatch)
    monkeypatch.setattr(sparse, "_DENSE", 0)
    for limit, built in ((affine._STATE_SPACE, 1), (0, 0)):
        monkeypatch.setattr(affine, "_STATE_SPACE", limit)
        made.clear()
        _assert_matches_rk4_loop(scenario, gains, hard_sgn)
        assert len(made) == built, limit


def test_two_dense_triples_share_each_stage_products(monkeypatch):
    # relay nodes with the hard sign under sin coupling: the relay kernel
    # and the coupling kernel both read the one gathers product of each
    # stage, against classical RK4 at one gain and at three (where the
    # coupling's gains multiply its kernel output as a row)
    from pwsync.dynamics import hard_sgn

    made = _spy_chained(monkeypatch)
    scenario = _custom_scenario("relay4-sin", [relay_field(RelayParams())] * 4, ring_topology(4),
                                CouplingSpec("nonlinear", c=20.0, eta=np.sin, upsilon=np.ones(3)),
                                SimConfig(dt=5e-5, t_end=5e-3, regularization_width=0.0),
                                np.random.default_rng(5).normal(scale=0.5, size=12))
    _assert_matches_rk4_loop(scenario, [20.0], hard_sgn)
    _assert_matches_rk4_loop(scenario, [5.0, 20.0, 40.0], hard_sgn)
    assert [f.steps for f in made] == [100, 100]
    # per step: two kernels and one product per stage, then the gains row
    assert [f.per_step for f in made] == [12, 16]


def test_a_gain_that_overflows_inside_a_block_ends_where_its_own_run_ends(monkeypatch):
    # the divergence guard reads a block's rows at its end, so a gain past
    # the threshold of 1e100 keeps stepping and overflows to inf before the
    # block of 64 steps ends: relay5 with the hard sign (the chained step,
    # one matrix per gain) ends on step 15, chua10 (region steps) on step
    # 17.  No RuntimeWarning escapes, and every gain, the wild one
    # included, is bit for bit its own run
    chained, made = _spy_chained(monkeypatch), _spy(monkeypatch)
    cases = [("relay5", dict(dt=2e-4, t_end=0.02, regularization_width=0.0), [30.0, 1e5, 50.0], 15),
             ("chua10", dict(t_end=0.5), [2.0, 2000.0, 10.0], 17)]
    for name, kwargs, gains, end in cases:
        scenario = load_scenario(name, 1).with_sim(**kwargs, divergence_threshold=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = _run(scenario, gains)
            singles = [_run(scenario, [c])[0] for c in gains]
        assert [traj.diverged for traj in runs] == [False, True, False], name
        assert runs[1].times.shape[0] - 1 == end, name
        for traj, single in zip(runs, singles):
            assert np.array_equal(traj.times, single.times), name
            assert np.array_equal(traj.states, single.states), name
    assert chained[0].overflows > 0 and made[0].overflows > 0


def test_a_region_left_soon_after_its_build_waits_a_block_past_the_state_space_limit(monkeypatch):
    # 100 relay nodes with a boundary layer of 1e-2 under linear coupling:
    # dense triples at N·dim = 300, past affine._STATE_SPACE, where a build of
    # M_r costs the four stages of dozens of steps.  The region changes
    # within a few steps of every build, on about 80 of the 400 steps; a
    # member built only when two reads a block apart find one region is
    # built once, and takes the four stages meanwhile
    fields = [relay_field(RelayParams())] * 100
    scenario = _custom_scenario("relay100", fields, random_connected(100, 0.1, seed=0),
                                CouplingSpec("linear", c=50.0, gamma=np.ones(3)),
                                SimConfig(dt=5e-5, t_end=0.02, regularization_width=1e-2),
                                np.random.default_rng(0).normal(scale=0.5, size=300))
    made, chained = _spy(monkeypatch), _spy_chained(monkeypatch)
    (fast,) = _run(scenario, [50.0])
    (regions,) = made
    assert regions.folded and regions.size > affine._STATE_SPACE and chained == []
    assert regions.builds <= 1 and sum(regions.four_stage_steps) >= 300, regions.builds
    monkeypatch.setattr(affine, "_Regions", _FourStageOnly)
    (slow,) = _run(scenario, [50.0])
    assert float(np.abs(fast.states - slow.states).max()) <= 1e-12 * float(np.abs(slow.states).max())
    # 20 such nodes (N·dim = 60): under the limit every change of region
    # is built at once, and with the limit below them they wait too
    monkeypatch.setattr(affine, "_Regions", _RegionSpy)
    small = dataclasses.replace(scenario, name="relay20", fields=fields[:20],
                                topo=random_connected(20, 0.5, seed=0),
                                x0=np.random.default_rng(0).normal(scale=0.5, size=60))
    builds = []
    for limit in (affine._STATE_SPACE, 0):
        monkeypatch.setattr(affine, "_STATE_SPACE", limit)
        made.clear()
        _run(small, [50.0])
        builds.append(made[0].builds)
    assert builds[0] >= 20 and builds[1] <= 1, builds


def _reference_csv(meta, header, columns):
    """The CSV writers' text, built one value at a time with f"{v:.17g}"."""
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)] + [header]
    for row in zip(*columns):
        lines.append(",".join(f"{float(v):.17g}" for v in np.hstack(row)))
    return "\n".join(lines) + "\n"


def test_csv_writers_match_per_value_formatting(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-310]
    rng = np.random.default_rng(12)
    states = np.concatenate([np.array(special).reshape(4, 3),
                             rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-300, 300, size=(6, 3))])
    times = np.arange(10) * 0.1
    handmade = Trajectory(times=times, states=states, n_nodes=3, dim=1, meta={"n_nodes": 3})
    growth = integrate([_growth_field()], SINGLE_NODE, NO_COUPLING, np.array([1.0]),
                       SimConfig(dt=1e-2, t_end=30.0, divergence_threshold=1e3))
    assert growth.diverged and growth.times.shape[0] < 3001
    for traj in (handmade, growth):
        header = "t," + ",".join(f"x_{i + 1}_1" for i in range(traj.n_nodes))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path, extra_meta={"scenario": "demo"})
        expected = _reference_csv({**traj.meta, "scenario": "demo"}, header,
                                  (traj.times, traj.states))
        assert path.read_text() == expected

        series = ErrorSeries(times=traj.times, norms=np.abs(traj.states).max(axis=1),
                             errors=traj.states[:, ::-1], n_nodes=traj.n_nodes, dim=traj.dim,
                             meta=dict(traj.meta))
        header = "t,err_norm," + ",".join(f"e_{i + 1}_1" for i in range(traj.n_nodes))
        path = tmp_path / "errors.csv"
        write_error_csv(series, path)
        assert path.read_text() == _reference_csv(series.meta, header,
                                                  (series.times, series.norms, series.errors))

    rows = [{"c": 0.5, "eps_hat": math.inf, "eps_bar": math.nan, "certified": False, "diverged": True},
            {"c": 5e-324, "eps_hat": -0.0, "eps_bar": 1.7976931348623157e308,
             "certified": True, "diverged": False}]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path, extra_meta={"scenario": "demo"})
    assert path.read_text() == (
        "# scenario = demo\nc,eps_hat,eps_bar,certified,diverged\n"
        "0.5,inf,nan,0,1\n"
        f"{5e-324:.17g},-0,{1.7976931348623157e308:.17g},1,0\n")


NET100_INI = """
[topology]
source = random
n = 100
p = 0.1
seed = 2

[nodes]
family = decay

[coupling]
variant = linear
gamma = 1
c = 0.5

[sim]
dt = 0.01
t_end = 1.5
"""


def test_csv_writers_match_per_value_formatting_on_real_runs(tmp_path):
    # short runs of the six built-ins, a sweep, and a 100-node network
    # whose 101- and 102-column tables are formatted 40 rows at a time
    ini = tmp_path / "net100.ini"
    ini.write_text(NET100_INI)
    scenarios = [load_scenario(name, 0) for name in sorted(BUILTINS)] + [load_scenario(str(ini), 0)]
    for scenario in scenarios:
        scenario = scenario.with_sim(t_end=150 * scenario.sim.dt)
        traj = scenario.simulate()
        series = error_series(traj)
        meta = {"scenario": scenario.name}
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path, extra_meta=meta)
        header = "t," + ",".join(f"x_{i + 1}_{j + 1}" for i in range(traj.n_nodes) for j in range(traj.dim))
        assert path.read_bytes() == _reference_csv({**traj.meta, **meta}, header,
                                                   (traj.times, traj.states)).encode(), scenario.name
        path = tmp_path / "errors.csv"
        write_error_csv(series, path, extra_meta=meta)
        header = "t,err_norm," + ",".join(f"e_{i + 1}_{j + 1}"
                                          for i in range(traj.n_nodes) for j in range(traj.dim))
        assert path.read_bytes() == _reference_csv({**series.meta, **meta}, header,
                                                   (series.times, series.norms, series.errors)).encode(), \
            scenario.name
    assert traj.states.shape[1] == 100 and traj.times.size > 3 * (csvformat._CSV_BLOCK // 101)

    scenario = load_scenario("kuramoto4", 0)
    rows = sweep_coupling(scenario.with_sim(dt=0.01, t_end=2.0), np.geomspace(0.1, 30.0, 7))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path, extra_meta={"scenario": "kuramoto4"})
    keys = ("c", "eps_hat", "eps_bar", "certified", "diverged")
    assert path.read_bytes() == _reference_csv({"scenario": "kuramoto4"}, ",".join(keys),
                                               [[float(row[key]) for row in rows] for key in keys]).encode()


def test_diverging_gain_is_isolated_within_a_batch():
    # RK4 is unstable for the disagreement mode once dt (a + c λ_max) is
    # past about 2.8: c = 20 on the triangle at dt = 0.1, and c = 100 on
    # the delayed ring at dt = 1/64, whose stable member keeps reading its
    # history after the other one diverges
    linear = CouplingSpec("linear", c=1.0, gamma=np.ones(1))
    cases = [(load_scenario("contraction3", 0).with_sim(dt=0.1, t_end=5.0), 0.5, 20.0),
             (_ikeda4(linear), 1.0, 100.0)]
    for scenario, calm, wild in cases:
        _assert_sweep_matches_scalar_runs(scenario, [wild, calm])
        rows = sweep_coupling(scenario, [calm, wild])
        assert [row["diverged"] for row in rows] == [False, True]
        assert rows[1]["eps_hat"] == math.inf
        assert math.isfinite(rows[0]["eps_hat"])
        stable, runaway = integrate_gains(scenario.fields, scenario.topo, scenario.coupling,
                                          [calm, wild], scenario.x0, scenario.sim)
        n_times = int(round(scenario.sim.t_end / scenario.sim.dt)) + 1
        assert np.isfinite(stable.states).all() and stable.times.shape[0] == n_times
        assert runaway.times.shape[0] < n_times
        assert float(np.abs(runaway.states).max()) <= scenario.sim.divergence_threshold

    # on Chua's knee and under pws coupling, whose members take region
    # steps, every gain of a batch with a diverging gain is bit for bit
    # its own run
    batches = [("chua10", dict(t_end=0.5), [0.0, 2.0, 10.0, 2000.0]),
               ("ikeda10-nonlinear", dict(dt=4e-3, t_end=3.2), [5.0, 200.0, 20.0])]
    for name, kwargs, gains in batches:
        scenario = load_scenario(name, 0).with_sim(**kwargs, divergence_threshold=1e3)
        runs = _run(scenario, gains)
        assert [traj.diverged for traj in runs] == [c >= 200.0 for c in gains], name
        for c, traj in zip(gains, runs):
            (single,) = _run(scenario, [c])
            assert np.array_equal(traj.times, single.times), (name, c)
            assert np.array_equal(traj.states, single.states), (name, c)


def test_a_member_at_gain_zero_steps_as_its_own_run_under_pws(monkeypatch):
    # alone, a gain of zero has no coupling term; in a batch the pws term is
    # there, at zero weight for it, and its gather entries past |z| = 1 sat
    # in no region, so the member took the four stages where its own run
    # took region steps (1.4e-14 apart on chua3 below, 5.6e-16 on the two
    # decay nodes).  Dense, wary (past the state-space limit) and over the
    # edge list
    pws = CouplingSpec("nonlinear", c=1.0, eta=pws_coupling, upsilon=np.full(3, 0.5))
    chua = dataclasses.replace(_chua3(), coupling=pws, x0=np.random.default_rng(1).uniform(-1.5, 1.5, 9))
    decay = _custom_scenario("decay2", [decay_field(1.0), decay_field(2.0)], complete_topology(2),
                             dataclasses.replace(pws, upsilon=np.full(1, 0.5)),
                             SimConfig(dt=2.0 ** -6, t_end=1.25), [1.5, -1.0])
    forms = [{}, {(affine, "_STATE_SPACE"): 0}, {(sparse, "_DENSE"): 0}]
    for scenario, patches in [(chua, p) for p in forms] + [(decay, forms[0]), (decay, forms[1])]:
        with monkeypatch.context() as patch:
            for (module, name), value in patches.items():
                patch.setattr(module, name, value)
            made = _spy(patch)
            batch, _ = _run(scenario, [0.0, 1.0])
            (single,) = _run(scenario, [0.0])
        assert sum(made[0].region_steps) > 0, (scenario.name, patches)
        assert np.array_equal(batch.states, single.states), (scenario.name, patches)


def test_a_non_finite_state_ends_a_gain_as_a_threshold_crossing_does():
    # x' = x on K2 from ±1, with g = NaN once |x| > 5: uncoupled, the step
    # whose last stage passes 5 (t ≈ ln 5) turns the state NaN, which only
    # a "max|x| ≤ threshold" test catches; at c = 10 the mean stays at zero
    # and the difference decays, so that gain never meets the NaN
    def g(t, x, history, sgn):
        return np.full(np.shape(x), math.nan if np.abs(x).max() > 5.0 else 0.0)

    node = AffineDecomposedField(dim=1, h=lambda t, x: np.asarray(x, dtype=float), g=g,
                                 M=0.0, h_gain=1.0, label="NaN past 5")
    args = ([node] * 2, complete_topology(2), CouplingSpec("linear", c=10.0, gamma=np.ones(1)))
    x0, config = np.array([1.0, -1.0]), SimConfig(dt=0.01, t_end=3.0)
    wild, calm = integrate_gains(*args, [0.0, 10.0], x0, config)
    assert wild.diverged and not calm.diverged
    assert wild.times.shape[0] == wild.states.shape[0] == 161
    assert np.isfinite(wild.states).all()
    single = integrate(*args, x0, config)
    assert np.array_equal(calm.times, single.times) and np.array_equal(calm.states, single.states)
