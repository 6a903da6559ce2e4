import configparser
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pwsync.certify import CertifyError, CouplingSpec
from pwsync.graph import build_laplacian, lambda2
from pwsync.scenarios import BUILTINS, ConfigError, Scenario, load_scenario

EXPECTED_BUILTINS = {
    "relay5", "chua10", "kuramoto4",
    "ikeda10-linear", "ikeda10-nonlinear", "contraction3",
}

EXPECTED_MODES = {
    "relay5": "cor1",
    "chua10": "thm2",
    "kuramoto4": "thm4",
    "ikeda10-linear": "thm1",
    "ikeda10-nonlinear": "thm3",
    "contraction3": "thm1",
}


def test_builtin_registry():
    assert set(BUILTINS) == EXPECTED_BUILTINS
    for name in BUILTINS:
        s = load_scenario(name, 0)
        assert s.resolved_mode() == EXPECTED_MODES[name]
        assert len(s.fields) == s.topo.n_nodes
        assert s.x0.shape == (s.topo.n_nodes * s.dim,)


def test_builders_are_seed_deterministic():
    for name in BUILTINS:
        a, b = load_scenario(name, 3), load_scenario(name, 3)
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.topo.weights, b.topo.weights)
        c = load_scenario(name, 4)
        assert not np.array_equal(a.x0, c.x0)


def test_relay5_graph_and_shared_field():
    s = load_scenario("relay5", 0)
    assert abs(lambda2(build_laplacian(s.topo)) - 2.0) < 1e-9
    assert all(f is s.fields[0] for f in s.fields)
    assert s.sim.dt == 1e-5
    assert s.sim.regularization_width == 1e-4
    assert s.coupling.c == 50.0


def test_chua10_connectivity_is_rescaled():
    s = load_scenario("chua10", 0)
    assert abs(lambda2(build_laplacian(s.topo)) - 2.22) < 1e-9
    s2 = load_scenario("chua10", 2)
    assert abs(lambda2(build_laplacian(s2.topo)) - 2.22) < 1e-9
    assert np.allclose(s.coupling.gamma, [1.0, 0.0, 1.0], atol=0.0)


def test_kuramoto4_frequency_scaling():
    s = load_scenario("kuramoto4", 0)
    omegas = np.array([f.M for f in s.fields])
    assert abs(omegas.max() - 0.316) < 1e-12
    detunes = np.array([f.g(0.0, np.zeros(1), None, None)[0] for f in s.fields])
    assert abs(detunes.sum()) < 1e-12
    assert abs(detunes).max() == pytest.approx(0.316, abs=1e-12)
    assert float(np.linalg.norm(s.x0)) <= 0.45 + 1e-12
    assert abs(s.x0.sum()) < 1e-12
    assert s.coupling.e_max == pytest.approx(math.pi / 3.0)


def test_ikeda_graph_is_independent_of_scenario_seed():
    a = load_scenario("ikeda10-linear", 0)
    b = load_scenario("ikeda10-linear", 9)
    assert np.array_equal(a.topo.weights, b.topo.weights)
    assert not np.array_equal(a.x0, b.x0)
    pa = [f.label for f in a.fields]
    pb = [f.label for f in b.fields]
    assert pa != pb  # per-node parameters move with the seed


def test_ikeda_variants_share_draws():
    lin = load_scenario("ikeda10-linear", 1)
    non = load_scenario("ikeda10-nonlinear", 1)
    assert np.array_equal(lin.x0, non.x0)
    assert [f.label for f in lin.fields] == [f.label for f in non.fields]
    assert lin.coupling.variant == "linear"
    assert non.coupling.variant == "nonlinear"
    assert math.isinf(non.coupling.e_max)


def test_mode_coupling_compatibility_is_enforced():
    s = load_scenario("contraction3", 0)
    with pytest.raises(ConfigError):
        Scenario(name="bad", topo=s.topo, fields=s.fields, coupling=s.coupling,
                 sim=s.sim, x0=s.x0, mode="thm4")
    k = load_scenario("kuramoto4", 0)
    with pytest.raises(ConfigError):
        Scenario(name="bad", topo=k.topo, fields=k.fields, coupling=k.coupling,
                 sim=k.sim, x0=k.x0, mode="thm2")
    with pytest.raises(ConfigError):
        Scenario(name="bad", topo=s.topo, fields=s.fields, coupling=s.coupling,
                 sim=s.sim, x0=s.x0[:-1], mode="thm1")
    with pytest.raises(ConfigError):
        Scenario(name="bad", topo=s.topo, fields=s.fields, coupling=s.coupling,
                 sim=s.sim, x0=s.x0, mode="thm9")


def test_auto_mode_resolution():
    s = load_scenario("relay5", 0)
    auto = Scenario(name="relay-auto", topo=s.topo, fields=s.fields,
                    coupling=s.coupling, sim=s.sim, x0=s.x0, mode="auto")
    assert auto.resolved_mode() == "cor1"
    k = load_scenario("kuramoto4", 0)
    k_auto = Scenario(name="k-auto", topo=k.topo, fields=k.fields,
                      coupling=k.coupling, sim=k.sim, x0=k.x0, mode="auto")
    assert k_auto.resolved_mode() == "thm4"
    i = load_scenario("ikeda10-linear", 0)
    i_auto = Scenario(name="i-auto", topo=i.topo, fields=i.fields,
                      coupling=i.coupling, sim=i.sim, x0=i.x0, mode="auto")
    assert i_auto.resolved_mode() == "thm1"
    n = load_scenario("ikeda10-nonlinear", 0)
    n_auto = Scenario(name="n-auto", topo=n.topo, fields=n.fields,
                      coupling=n.coupling, sim=n.sim, x0=n.x0, mode="auto")
    assert n_auto.resolved_mode() == "thm3"


def test_certify_dispatch_reports_requested_mode():
    s = load_scenario("relay5", 0)
    report = s.certify()
    assert report.mode == "cor1"
    forced = Scenario(name="relay-thm2", topo=s.topo, fields=s.fields,
                      coupling=s.coupling, sim=s.sim, x0=s.x0, mode="thm2")
    assert forced.certify().mode == "thm2"


def test_with_gain_and_with_sim_copy():
    s = load_scenario("contraction3", 0)
    g = s.with_gain(3.0)
    assert g.coupling.c == 3.0
    assert s.coupling.c == 1.0
    t = s.with_sim(t_end=5.0)
    assert t.sim.t_end == 5.0
    assert s.sim.t_end == 15.0


def test_load_scenario_builtin_and_unknown():
    s = load_scenario("kuramoto4", seed=2)
    assert s.meta["seed"] == 2
    with pytest.raises(ConfigError):
        load_scenario("does-not-exist")


IKEDA_INI = """
[scenario]
name = demo
mode = thm1

[topology]
source = complete
n = 3

[nodes]
family = ikeda
mismatch = 0.2
seed = 1

[coupling]
variant = linear
c = 5
gamma = 1

[init]
kind = normal
seed = 2

[sim]
dt = 0.001
t_end = 10
"""


def test_config_file_ikeda(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(IKEDA_INI)
    s = load_scenario(str(path))
    assert s.name == "demo"
    assert s.topo.n_nodes == 3
    assert s.resolved_mode() == "thm1"
    assert s.coupling.c == 5.0
    report = s.certify()
    assert report.certified
    again = load_scenario(str(path))
    assert np.array_equal(s.x0, again.x0)


def test_config_file_unknown_key_and_section(tmp_path):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text(IKEDA_INI.replace("mismatch = 0.2", "mismtach = 0.2"))
    with pytest.raises(ConfigError):
        load_scenario(str(bad_key))
    bad_section = tmp_path / "bad_section.ini"
    bad_section.write_text(IKEDA_INI + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_scenario(str(bad_section))


def test_config_file_missing_section_and_bad_values(tmp_path):
    no_coupling = "\n".join(
        line for line in IKEDA_INI.splitlines()
        if line.strip() not in ("[coupling]", "variant = linear", "c = 5", "gamma = 1")
    )
    p = tmp_path / "nocoupling.ini"
    p.write_text(no_coupling)
    with pytest.raises(ConfigError):
        load_scenario(str(p))

    bad_number = tmp_path / "badnum.ini"
    bad_number.write_text(IKEDA_INI.replace("c = 5", "c = five"))
    with pytest.raises(ConfigError):
        load_scenario(str(bad_number))

    bad_gamma = tmp_path / "badgamma.ini"
    bad_gamma.write_text(IKEDA_INI.replace("gamma = 1", "gamma = 1,1"))
    with pytest.raises(ConfigError):
        load_scenario(str(bad_gamma))


def test_negative_seeds_are_rejected(tmp_path):
    random_graph = IKEDA_INI.replace("source = complete\nn = 3", "source = random\nn = 3\np = 1\nseed = 4")
    assert load_scenario(str(_write(tmp_path / "ok.ini", random_graph))).topo.n_nodes == 3
    for section, text in (("topology", random_graph.replace("seed = 4", "seed = -4")),
                          ("nodes", IKEDA_INI.replace("seed = 1", "seed = -1")),
                          ("init", IKEDA_INI.replace("seed = 2", "seed = -2"))):
        path = _write(tmp_path / f"{section}.ini", text)
        with pytest.raises(ConfigError, match=rf"\[{section}\] seed: expected a nonnegative integer"):
            load_scenario(str(path))
    for spec in ("kuramoto4", str(_write(tmp_path / "demo.ini", IKEDA_INI))):
        with pytest.raises(ConfigError, match="seed: expected a nonnegative integer, got -1"):
            load_scenario(spec, seed=-1)
    assert load_scenario("kuramoto4", seed=2 ** 70).x0.shape == (4,)


def _write(path, text):
    path.write_text(text)
    return path


KURAMOTO_INI = """
[scenario]
name = ring-phases
mode = thm4

[topology]
source = ring
n = 4

[nodes]
family = kuramoto
omega_scale = 0.316
seed = 0

[coupling]
variant = nonlinear
c = 0.75
eta = sin
e_max = 1.0471975511965976

[init]
kind = uniform
low = -0.2
high = 0.2
center = true
cap_norm = 0.45
"""


def test_config_file_kuramoto(tmp_path):
    path = tmp_path / "ring.ini"
    path.write_text(KURAMOTO_INI)
    s = load_scenario(str(path))
    assert s.resolved_mode() == "thm4"
    assert abs(s.x0.sum()) < 1e-12
    assert float(np.linalg.norm(s.x0)) <= 0.45 + 1e-12
    report = s.certify()
    assert abs(report.c_tilde - 1.264 / math.sqrt(3.0)) < 1e-3


def test_uniform_init_of_overflowing_width_is_a_config_error(tmp_path):
    # both ends are finite, but the draw low + (high - low)·u would overflow
    wide = KURAMOTO_INI.replace("low = -0.2", "low = -1e308").replace("high = 0.2", "high = 1e308")
    with pytest.raises(ConfigError, match=r"\[init\] high - low must be finite"):
        load_scenario(str(_write(tmp_path / "wide.ini", wide)))


RELAY_INI = """
[topology]
source = edgelist
path = graph.txt

[nodes]
family = relay

[coupling]
variant = linear
c = 50
gamma = 1,1,1

[sim]
dt = 1e-4
t_end = 0.2
regularization_width = 1e-4
"""


def test_config_file_edgelist_relay(tmp_path):
    (tmp_path / "graph.txt").write_text(
        "0 1\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n3 4\n"
    )
    path = tmp_path / "relay.ini"
    path.write_text(RELAY_INI)
    s = load_scenario(str(path))
    assert s.topo.n_nodes == 5
    assert abs(lambda2(build_laplacian(s.topo)) - 2.0) < 1e-9
    assert s.resolved_mode() == "cor1"
    assert s.name == "relay"  # falls back to the file stem
    report = s.certify()
    assert report.certified


def test_loading_scenarios_leaves_the_integrator_unloaded(tmp_path):
    # A fresh interpreter, so modules that other tests imported do not count.
    (tmp_path / "graph.txt").write_text("0 1\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n3 4\n")
    (tmp_path / "relay.ini").write_text(RELAY_INI)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import pwsync\n"
        f"specs = [*pwsync.BUILTINS, {str(tmp_path / 'relay.ini')!r}]\n"
        "scenarios = [pwsync.load_scenario(spec, 0) for spec in specs]\n"
        "integrator = ('pwsync.sim', 'pwsync.affine', 'pwsync.sparse', 'pwsync.csvformat')\n"
        "loaded = [name for name in integrator if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from pwsync import sim\n"
        "for name in ('integrate', 'error_series', 'steady_state_eps', 'sweep_coupling'):\n"
        "    assert getattr(pwsync, name) is getattr(sim, name), name\n"
        "traj = scenarios[-1].with_sim(t_end=0.01).simulate()\n"
        "assert traj.states.shape == (101, 15) and not traj.diverged, traj.states.shape\n"
        "try:\n"
        "    pwsync.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert \"module 'pwsync' has no attribute 'no_such_name'\" in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('pwsync.no_such_name resolved')\n"
        "missing = set(pwsync.__all__) - set(dir(pwsync))\n"
        "assert not missing, missing\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


CHUA_INI = """
[scenario]
mode = thm2

[topology]
source = random
n = 10
p = 0.35
seed = 0
rescale_lambda2 = 2.22

[nodes]
family = chua

[coupling]
variant = linear
c = 10
gamma = 1,0,1

[init]
kind = normal
scale = 0.5
"""


def test_config_file_chua_matches_builtin_graph(tmp_path):
    path = tmp_path / "chua.ini"
    path.write_text(CHUA_INI)
    s = load_scenario(str(path))
    ref = load_scenario("chua10", 0)
    assert np.allclose(s.topo.weights, ref.topo.weights, atol=1e-12)
    assert s.certify().to_text() == ref.certify().to_text()


def test_config_seed_override_fills_missing_section_seeds(tmp_path):
    text = IKEDA_INI.replace("seed = 1\n", "").replace("seed = 2\n", "")
    path = tmp_path / "noseed.ini"
    path.write_text(text)
    a = load_scenario(str(path), seed=5)
    b = load_scenario(str(path), seed=5)
    c = load_scenario(str(path), seed=6)
    assert np.array_equal(a.x0, b.x0)
    assert not np.array_equal(a.x0, c.x0)

    explicit_path = tmp_path / "withseeds.ini"
    explicit_path.write_text(IKEDA_INI)
    overridden = load_scenario(str(explicit_path), seed=5)
    fresh = load_scenario(str(explicit_path))
    assert np.array_equal(overridden.x0, fresh.x0)  # section seeds beat the override


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_written_as_a_file_loads_the_same(tmp_path, name):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(BUILTINS[name])
    path = tmp_path / f"{name}.ini"
    with path.open("w") as fh:
        parser.write(fh)
    for seed in (0, 1, 2):
        builtin, from_file = load_scenario(name, seed), load_scenario(str(path), seed)
        assert np.array_equal(builtin.x0, from_file.x0)
        assert np.array_equal(builtin.topo.weights, from_file.topo.weights)
        assert [f.label for f in builtin.fields] == [f.label for f in from_file.fields]
        assert builtin.certify().to_text() == from_file.certify().to_text()


def test_sections_without_seed_share_one_stream(tmp_path):
    text = IKEDA_INI.replace("seed = 1\n", "").replace("seed = 2\n", "")
    path = tmp_path / "shared.ini"
    path.write_text(text)
    s = load_scenario(str(path), seed=5)
    rng = np.random.default_rng(5)
    spread = rng.uniform(-0.2, 0.2, size=(3, 3))
    assert [s.meta[f"node_{i + 1}"] for i in range(3)] == [
        f"a={1 + a:.17g} b={4 + b:.17g} tau={2 + t:.17g}" for a, b, t in spread.T
    ]
    assert np.array_equal(s.x0, rng.normal(size=3))  # x0 continues the node stream
