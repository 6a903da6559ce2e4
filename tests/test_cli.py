import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pwsync.cli import main

DIVERGING_INI = """
[scenario]
name = runaway
mode = thm4

[topology]
source = ring
n = 4

[nodes]
family = kuramoto
omega_scale = 10
seed = 0

[coupling]
variant = nonlinear
c = 0
eta = sin
e_max = 1.0

[init]
kind = zero

[sim]
dt = 0.01
t_end = 20
divergence_threshold = 100
"""


def test_certify_writes_reports_and_exits_zero(tmp_path):
    out = tmp_path / "cert"
    rc = main(["certify", "--scenario", "contraction3", "--out", str(out)])
    assert rc == 0
    assert (out / "report.txt").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["certified"] is True
    assert payload["report"]["mode"] == "thm1"
    assert payload["scenario"]["scenario"] == "contraction3"


def test_certify_below_threshold_exits_two(tmp_path):
    out = tmp_path / "cert"
    rc = main(["certify", "--scenario", "relay5", "--c", "10", "--out", str(out)])
    assert rc == 2
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["certified"] is False
    assert payload["report"]["c"] == 10.0


def test_certify_hypothesis_violation_exits_two(tmp_path, capsys):
    ini = tmp_path / "partial.ini"
    ini.write_text("""
[scenario]
mode = cor1

[topology]
source = complete
n = 4

[nodes]
family = chua

[coupling]
variant = linear
c = 10
gamma = 1,0,1
""")
    rc = main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "certification failed" in err


def test_unknown_scenario_exits_one(tmp_path, capsys):
    rc = main(["certify", "--scenario", "missing", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--scenario", "kuramoto4", "--t-end", "10", "--out", str(out),
    ])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "eps_hat = " in summary
    assert "eps_bar = " in summary
    assert "eps_hat <= eps_bar = yes" in summary
    assert (out / "trajectory.csv").exists()
    assert (out / "errors.csv").exists()


def test_simulate_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        rc = main([
            "simulate", "--scenario", "contraction3", "--t-end", "2",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
    for name in ("trajectory.csv", "errors.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_divergence_exits_three(tmp_path):
    ini = tmp_path / "runaway.ini"
    ini.write_text(DIVERGING_INI)
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", str(ini), "--out", str(out)])
    assert rc == 3
    summary = (out / "summary.txt").read_text()
    assert "diverged = yes" in summary
    assert "eps_hat = inf" in summary


def test_sweep_writes_sorted_grid(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", "contraction3", "--c-min", "0.5", "--c-max", "2",
        "--points", "3", "--t-end", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("c,")]
    assert len(data) == 3
    cs = [float(l.split(",")[0]) for l in data]
    assert cs == sorted(cs)
    assert cs[0] == 0.5 and cs[-1] == 2.0


def test_sweep_log_grid(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", "contraction3", "--c-min", "0.25", "--c-max", "4",
        "--points", "3", "--grid", "log", "--t-end", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("c,")]
    cs = [float(l.split(",")[0]) for l in data]
    assert cs == pytest.approx([0.25, 1.0, 4.0], rel=1e-12)


def test_sweep_argument_validation(tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", "contraction3", "--c-min", "2", "--c-max", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 1
    rc = main([
        "sweep", "--scenario", "contraction3", "--c-min", "0", "--c-max", "1",
        "--grid", "log", "--out", str(tmp_path),
    ])
    assert rc == 1
    rc = main([
        "sweep", "--scenario", "contraction3", "--c-min", "0", "--c-max", "1",
        "--points", "1", "--out", str(tmp_path),
    ])
    assert rc == 1


def test_rejected_sweep_grid_leaves_no_output_directory(tmp_path):
    for grid in (["--c-min", "1", "--c-max", "1"],
                 ["--c-min", "0", "--c-max", "1", "--grid", "log"],
                 ["--c-min", "0", "--c-max", "1", "--points", "1"]):
        out = tmp_path / "never"
        rc = main(["sweep", "--scenario", "contraction3", *grid, "--out", str(out)])
        assert rc == 1
        assert not out.exists()


@pytest.mark.parametrize("command, scenario, gain", [
    ("certify", "relay5", "inf"),
    ("certify", "contraction3", "nan"),
    ("certify", "kuramoto4", "-1"),
    ("simulate", "contraction3", "inf"),
])
def test_bad_gain_exits_one_before_any_output(tmp_path, capsys, command, scenario, gain):
    out = tmp_path / "never"
    rc = main([command, "--scenario", scenario, "--c", gain, "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite and nonnegative" in err


@pytest.mark.parametrize("bounds", [("0", "inf"), ("-inf", "1"), ("nan", "1"), ("0", "nan")])
def test_sweep_rejects_non_finite_grid_ends(tmp_path, capsys, bounds):
    out = tmp_path / "never"
    rc = main(["sweep", "--scenario", "contraction3", f"--c-min={bounds[0]}",
               f"--c-max={bounds[1]}", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: --c-min and --c-max must be finite\n"


def test_certify_gain_override_matches_scenario_math(tmp_path):
    out = tmp_path / "cert"
    rc = main(["certify", "--scenario", "kuramoto4", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["c_tilde"] == pytest.approx(1.264 / math.sqrt(3.0), rel=1e-6)
    assert payload["report"]["eps_bar"] == pytest.approx(
        0.632 * math.pi / (2.25 * math.sqrt(3.0)), rel=1e-6
    )


RING_INI = """
[topology]
source = ring
n = 4
weight = {weight}

[nodes]
family = decay

[coupling]
variant = linear
c = 1
gamma = 1

[sim]
dt = {dt}
t_end = 1
"""


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize(
    "weight, dt, key",
    [("inf", "0.01", "weight"), ("nan", "0.01", "weight"), ("1", "nan", "dt")],
)
def test_non_finite_scenario_numbers_exit_one(tmp_path, capsys, command, weight, dt, key):
    ini = tmp_path / "bad.ini"
    ini.write_text(RING_INI.format(weight=weight, dt=dt))
    rc = main([command, "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err and "finite" in err


def test_simulate_contraction3_does_not_fail_a_zero_bound(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "contraction3", "--t-end", "2", "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "eps_bar = 0" in summary
    assert "certified = yes" in summary
    assert "diverged = no" in summary
    assert "eps_hat <= eps_bar = no" not in summary
    assert any(line.startswith("eps_hat <= eps_bar = n/a") for line in summary)


NODES_INI = """
[topology]
source = ring
n = 4

[nodes]
family = {family}
{key} = {value}

[coupling]
variant = linear
c = 1
gamma = {gamma}

[sim]
dt = 0.01
t_end = 1
"""


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize(
    "family, key, value, gamma",
    [("ikeda", "a", "-1", "1"), ("chua", "alpha", "0", "1,0,1"), ("decay", "rate", "0", "1")],
)
def test_bad_node_parameters_exit_one(tmp_path, capsys, command, family, key, value, gamma):
    ini = tmp_path / "bad.ini"
    ini.write_text(NODES_INI.format(family=family, key=key, value=value, gamma=gamma))
    rc = main([command, "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [nodes] ")
    assert "must be positive" in err


EDGES_INI = """
[topology]
source = edgelist
{topology}

[nodes]
family = decay

[coupling]
variant = linear
c = 1
gamma = 1
"""


@pytest.mark.parametrize(
    "topology, message",
    [
        ("path = graph.txt\nedges = 0 1, 1 2", "exactly one of 'path' or 'edges'"),
        ("", "exactly one of 'path' or 'edges'"),
        ("edges = 0 1, 1", "expected 'i j [weight]'"),
        ("edges = 0 1, 1 1", "self-loop"),
    ],
)
def test_inline_edges_rules_exit_one(tmp_path, capsys, topology, message):
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n")
    ini = tmp_path / "edges.ini"
    ini.write_text(EDGES_INI.format(topology=topology))
    rc = main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "[topology]" in err and message in err


PWS_INI = """
[topology]
source = complete
n = 3

[nodes]
family = ikeda
mismatch = 0.1

[coupling]
variant = nonlinear
eta = pws
e_max = inf
c = 5
"""


def test_infinite_sector_report_carries_sector_note(tmp_path):
    ini = tmp_path / "pws.ini"
    ini.write_text(PWS_INI)
    out = tmp_path / "cert"
    assert main(["certify", "--scenario", str(ini), "--out", str(out)]) == 0
    header = (out / "report.txt").read_text().split("\n\n", 1)[0].splitlines()
    assert ("# sector_note = sector bound certified on finite probe radius 100 "
            "(e_max infinite)") in header


def test_cli_certify_of_chua10_imports_no_scipy(tmp_path):
    # A fresh interpreter, so modules that other tests imported do not count.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from pwsync.cli import main\n"
        f"rc = main(['certify', '--scenario', 'chua10', '--out', {str(tmp_path / 'cert')!r}])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy' not in sys.modules, 'pwsync imported scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cert" / "report.json").exists()
