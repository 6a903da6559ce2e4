import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pwsync.cli import main
from pwsync.scenarios import load_scenario

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


def test_certify_of_an_uncertifiable_chua_pattern_exits_two(tmp_path, capsys):
    # no double-scroll certificate has w1 < 0 at the default diode slopes,
    # so the first component cannot be the uncoupled one
    ini = tmp_path / "chua-011.ini"
    ini.write_text("""
[topology]
source = complete
n = 4

[nodes]
family = chua

[coupling]
variant = linear
c = 10
gamma = 0,1,1
""")
    rc = main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "certification failed: component 1 is uncoupled" in err
    assert "−α(1+s) = 3.4 ≥ 0" in err


def test_unknown_scenario_exits_one(tmp_path, capsys):
    rc = main(["certify", "--scenario", "missing", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "simulate", "sweep"])
def test_negative_seed_exits_one_before_any_output(tmp_path, capsys, command):
    grid = ["--c-min", "0.5", "--c-max", "2", "--points", "2"] if command == "sweep" else []
    out = tmp_path / "o"
    rc = main([command, "--scenario", "kuramoto4", "--seed", "-1", *grid, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed: expected a nonnegative integer, got -1\n"
    assert not out.exists()


DECAY_INI = """
[scenario]
{name}mode = thm1

[topology]
source = complete
n = 3

[nodes]
family = decay
rate = 1.0

[coupling]
variant = linear
gamma = 1
c = 0.5

[sim]
dt = 0.01
t_end = 0.2
"""


@pytest.mark.parametrize("file_name, name_line", [
    ("multi.ini", "name = decay\n  second line\n"),  # a configparser continuation line
    ("escape.ini", "name = decay\x1b[2J\n"),
    ("two\nlines.ini", ""),  # the name defaults to the file's stem
    ("two\nlines.ini", "name = decay\n"),  # the file name still goes into source_file
], ids=["continuation-line", "escape-character", "file-stem-as-name", "file-name-as-source"])
def test_a_name_with_a_line_break_exits_one_before_any_output(tmp_path, capsys, file_name, name_line):
    ini = tmp_path / file_name
    ini.write_text(DECAY_INI.format(name=name_line), encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["simulate", "--scenario", str(ini), "--out", str(out)])
    assert rc == 1
    assert "holds a line break or another control character" in capsys.readouterr().err
    assert not out.exists()


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


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # two in-process runs of one command share the parser and write
    # byte-identical files; a bad argument still exits 2 and leaves the
    # parser as it was
    from pwsync import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        argv = ["certify", "--scenario", "relay5", "--seed", "2"]
        for out in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--scenario", "relay5", "--c", "ten"])
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    for name in ("report.txt", "report.json"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("flag", ["--dt", "--t-end"])
def test_certify_refuses_the_integration_overrides(tmp_path, capsys, flag):
    # certify integrates nothing, so a step or a horizon would go unread
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "contraction3", flag, "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "family, key, gamma",
    [("decay", "alpha", "1"), ("ikeda", "rate", "1"), ("chua", "mismatch", "1,0,1"),
     ("relay", "omega_scale", "1,1,1"), ("kuramoto", "m_override", "1")],
)
def test_another_familys_node_key_exits_one(tmp_path, capsys, family, key, gamma):
    ini = tmp_path / "foreign.ini"
    ini.write_text(NODES_INI.format(family=family, key=key, value="7", gamma=gamma))
    rc = main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: [nodes] key '{key}' does not apply to family {family}\n")


def test_empty_relay_m_override_means_none(tmp_path):
    ini = tmp_path / "relay.ini"
    ini.write_text(NODES_INI.format(family="relay", key="m_override", value="", gamma="1,1,1"))
    fields = load_scenario(str(ini)).fields
    assert all(f.M == math.sqrt(6.0) for f in fields)  # ‖B‖ of B = (1, -2, 1)


CAP_INI = RING_INI.format(weight="1", dt="0.01") + """
[init]
scale = 5
cap_norm = {cap}
"""


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_nonpositive_cap_norm_exits_one(tmp_path, capsys, command, cap):
    ini = tmp_path / "cap.ini"
    ini.write_text(CAP_INI.format(cap=cap))
    rc = main([command, "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: [init] cap_norm must be positive\n"


DISCONNECTED_INI = """
[topology]
source = edgelist
edges = 0 1, 2 3

[nodes]
family = decay

[coupling]
variant = linear
c = 1
gamma = 1

[sim]
dt = 0.01
t_end = 1
"""


@pytest.mark.parametrize("command", [
    ["certify"], ["simulate"], ["sweep", "--c-min", "0.5", "--c-max", "2", "--points", "3"],
], ids=["certify", "simulate", "sweep"])
def test_disconnected_graph_exits_one_in_every_command(tmp_path, capsys, monkeypatch, command):
    # the graph is checked before the output directory exists and before
    # any gain is integrated
    def integrate_gains(*args, **kwargs):
        raise AssertionError("a disconnected graph was integrated")

    monkeypatch.setattr("pwsync.sim.integrate_gains", integrate_gains)
    ini = tmp_path / "split.ini"
    ini.write_text(DISCONNECTED_INI)
    rc = main([*command, "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: graph is disconnected: algebraic connectivity is zero\n")
    assert not (tmp_path / "o").exists()


FINITE_INI = """
[topology]
source = ring
n = 4

[nodes]
family = {family}
{node_key} = {node_value}

[coupling]
variant = linear
c = 1
gamma = {gamma}

[init]
scale = {scale}

[sim]
dt = 0.01
t_end = 1
"""


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize(
    "family, node_key, node_value, gamma, scale, where",
    [
        ("ikeda", "tau", "inf", "1", "1", "[nodes] tau"),
        ("decay", "rate", "1", "nan", "1", "[coupling] gamma"),
        ("decay", "rate", "1", "1", "nan", "[init] scale"),
        ("ikeda", "mismatch", "nan", "1", "1", "[nodes] mismatch"),
        ("decay", "rate", "inf", "1", "1", "[nodes] rate"),
        ("decay", "rate", "1", "1", "-inf", "[init] scale"),
    ],
)
def test_non_finite_node_coupling_and_init_numbers_exit_one(
        tmp_path, capsys, command, family, node_key, node_value, gamma, scale, where):
    ini = tmp_path / "bad.ini"
    ini.write_text(FINITE_INI.format(family=family, node_key=node_key, node_value=node_value,
                                     gamma=gamma, scale=scale))
    rc = main([command, "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: expected a finite number")
    assert "Traceback" not in err


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


def test_a_non_utf8_edge_file_exits_one(tmp_path, capsys):
    # the file starts with a UTF-16 byte-order mark, which is no UTF-8
    (tmp_path / "graph.txt").write_bytes(b"\xff\xfe0 1\n1 2\n")
    ini = tmp_path / "edges.ini"
    ini.write_text(EDGES_INI.format(topology="path = graph.txt"))
    rc = main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'graph.txt'}: not UTF-8 text")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_infinite_sector_report_has_no_sector_note(tmp_path):
    ini = tmp_path / "pws.ini"
    ini.write_text(PWS_INI)
    out = tmp_path / "cert"
    assert main(["certify", "--scenario", str(ini), "--out", str(out)]) == 0
    header = (out / "report.txt").read_text().split("\n\n", 1)[0]
    assert "sector_note" not in header
    # the closed form 2*sqrt(2) - 2 holds on all of R, rounded down to a double
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["upsilon"] == [0.8284271247461901]


@pytest.mark.parametrize(
    "extra, message",
    [
        ("grid = 4096", "unknown key 'grid' in section [coupling]"),
        ("e_max = 4", "sin coupling has a sector bound only for e_max ≤ π, got 4"),
        ("e_max = inf", "sin coupling has a sector bound only for e_max ≤ π, got inf"),
    ],
)
def test_bad_sector_input_exits_one(tmp_path, capsys, extra, message):
    ini = tmp_path / "sin.ini"
    ini.write_text(f"[topology]\nsource = ring\nn = 4\n\n[nodes]\nfamily = kuramoto\n\n"
                   f"[coupling]\nvariant = nonlinear\nc = 1\neta = sin\n{extra}\n")
    assert main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_a_coupling_without_closed_form_exits_one(tmp_path, capsys, monkeypatch):
    from pwsync import scenarios

    monkeypatch.setitem(scenarios._ETA_FUNCTIONS, "tanh", np.tanh)
    ini = tmp_path / "tanh.ini"
    ini.write_text(PWS_INI.replace("eta = pws", "eta = tanh"))
    assert main(["certify", "--scenario", str(ini), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "CouplingSpec(upsilon=...)" in err


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


def test_python_dash_m_pwsync_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "pwsync", "certify", "--scenario", "contraction3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pwsync-out" / "report.txt").exists()


UTF8_INI = """
[scenario]
name = réseau Ω

[topology]
source = ring
n = 4

[nodes]
family = decay

[coupling]
variant = linear
c = 1
gamma = 1

[sim]
dt = 0.01
t_end = 0.5
"""


def test_outputs_are_utf8_with_newlines_in_an_ascii_locale(tmp_path):
    # the scenario name reaches every output's header and the console, and
    # kuramoto4's report prints ‖e(0)‖; under the C locale the platform's
    # default text encoding is ASCII, which can hold neither, so the files
    # are UTF-8 and the console escapes what it cannot encode
    ini = tmp_path / "net.ini"
    ini.write_text(UTF8_INI, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONIOENCODING", None)
    stdout = {}
    for command, scenario, out in (("certify", str(ini), "out"), ("simulate", str(ini), "out"),
                                   ("certify", "kuramoto4", "kuramoto4")):
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "pwsync", command,
                               "--scenario", scenario, "--out", str(tmp_path / out)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        stdout[command, scenario] = proc.stdout
    assert b"scenario = r\\xe9seau \\u03a9\n" in stdout["simulate", str(ini)]
    assert b"\\u2016e(0)\\u2016" in stdout["certify", "kuramoto4"]
    out = tmp_path / "out"
    for name in ("report.txt", "summary.txt", "trajectory.csv", "errors.csv"):
        data = (out / name).read_bytes()
        assert b"\r" not in data, name
        assert "# scenario = réseau Ω\n" in data.decode("utf-8"), name
    report = json.loads((out / "report.json").read_bytes().decode("utf-8"))
    assert report["scenario"]["scenario"] == "réseau Ω"
    # the same files as a run under a UTF-8 console
    assert main(["certify", "--scenario", "kuramoto4", "--out", str(tmp_path / "utf8")]) == 0
    for name in ("report.txt", "report.json"):
        assert (tmp_path / "kuramoto4" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
    assert "‖e(0)‖" in (tmp_path / "utf8" / "report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "1e9"],
    ["sweep", "--t-end", "1e9", "--c-min", "0.5", "--c-max", "2", "--points", "3"],
], ids=["simulate", "sweep"])
def test_a_run_too_large_to_allocate_is_bad_input(tmp_path, capsys, monkeypatch, command):
    # --t-end 1e9 asks for terabytes of trajectory; NumPy's MemoryError is
    # reported as bad input, not a traceback (the integrator is stubbed, so
    # nothing large is allocated)
    message = "Unable to allocate 7.28 TiB for an array with shape (1, 1000000001, 3, 1)"

    def integrate_gains(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("pwsync.sim.integrate_gains", integrate_gains)
    rc = main([*command, "--scenario", "contraction3", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--c-min", "0.5", "--c-max", "2", "--points", "3"],
], ids=["simulate", "sweep"])
def test_a_run_past_numpys_largest_array_is_bad_input(tmp_path, capsys, command):
    # 1e300 steps: past the largest array NumPy can describe, so the
    # integrator refuses before it allocates anything
    rc = main([*command, "--scenario", "contraction3", "--dt", "1e-300", "--t-end", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1e+300 time points of ")
    assert "largest array NumPy can allocate" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--c-min", "0.5", "--c-max", "2", "--points", "3"],
], ids=["simulate", "sweep"])
def test_a_failed_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch, command):
    # the output directory is created only once there is something to
    # write, so a run that fails while integrating leaves none behind
    def integrate_gains(*args, **kwargs):
        raise MemoryError("Unable to allocate the trajectory")

    monkeypatch.setattr("pwsync.sim.integrate_gains", integrate_gains)
    rc = main([*command, "--scenario", "contraction3", "--out", str(tmp_path / "o" / "run")])
    assert rc == 1
    assert capsys.readouterr().err == "error: Unable to allocate the trajectory\n"
    assert not (tmp_path / "o").exists()


def test_a_failed_certificate_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # certify exits 2 when the pipeline raises, and writes nothing
    from pwsync.certify import CertifyError
    from pwsync.scenarios import Scenario

    def certify(self):
        raise CertifyError("hypotheses fail")

    monkeypatch.setattr(Scenario, "certify", certify)
    rc = main(["certify", "--scenario", "contraction3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "certification failed: hypotheses fail\n"
    assert not (tmp_path / "o").exists()


REFUSED_INI = """
[topology]
source = ring
n = 4

[nodes]
family = decay

[coupling]
variant = linear
c = 1
gamma = 1

[init]
kind = uniform

[sim]
dt = 0.01
t_end = 1
"""


@pytest.mark.parametrize("edits, message", [
    ({"source = ring": "source = star"},
     "[topology] source must be ring|complete|random|edgelist, got 'star'"),
    ({"family = decay": "family = duffing"},
     "[nodes] family must be ikeda|chua|relay|kuramoto|decay, got 'duffing'"),
    ({"variant = linear": "variant = diffusive"},
     "[coupling] variant must be linear|nonlinear, got 'diffusive'"),
    ({"variant = linear": "variant = nonlinear", "gamma = 1": "eta = tanh"},
     "[coupling] eta must be one of ['pws', 'sin']"),
    ({"kind = uniform": "kind = sobol"}, "[init] kind must be normal|uniform|zero, got 'sobol'"),
    ({"kind = uniform": "kind = uniform\nlow = 1\nhigh = 1"}, "[init] high must exceed low"),
    ({"n = 4": "n = 4\nrescale_lambda2 = 0"}, "[topology] rescale_lambda2 must be positive"),
    ({"n = 4": "n = 4.5"}, "[topology] n: expected an integer, got '4.5'"),
    ({"kind = uniform": "kind = uniform\ncenter = maybe"},
     "[init] center: expected a boolean, got 'maybe'"),
    ({"c = 1\n": ""}, "missing required key 'c' in section [coupling]"),
    ({"t_end = 1": "t_end = 1\nregularization_width = -1e-4"}, "regularization_width must be nonnegative"),
    ({"t_end = 1": "t_end = 1\ndivergence_threshold = 0"}, "divergence_threshold must be positive"),
    ({"source = ring\nn = 4": "source = complete\nn = 1", "family = decay": "family = kuramoto"},
     "a complete graph needs at least two nodes"),
    ({"source = ring\nn = 4": "source = complete\nn = -1"}, "a complete graph needs at least two nodes"),
    ({"source = ring\nn = 4": "source = complete\nn = 1"}, "a complete graph needs at least two nodes"),
    (None, "cannot read scenario file {ini}"),
    ({"n = 4": "n = 4\np = 0.5"}, "[topology] key 'p' does not apply to source ring"),
    ({"n = 4": "n = 4\nseed = 3"}, "[topology] key 'seed' does not apply to source ring"),
    ({"source = ring": "source = complete", "n = 4": "n = 4\npath = g.txt"},
     "[topology] key 'path' does not apply to source complete"),
    ({"source = ring": "source = random", "n = 4": "n = 4\np = 1\nweight = 2"},
     "[topology] key 'weight' does not apply to source random"),
    ({"source = ring\nn = 4": "source = edgelist\nedges = 0 1, 1 2\nn = 3"},
     "[topology] key 'n' does not apply to source edgelist"),
    ({"kind = uniform": "kind = zero\nscale = 2"}, "[init] key 'scale' does not apply to kind zero"),
    ({"kind = uniform": "kind = zero\nlow = -1"}, "[init] key 'low' does not apply to kind zero"),
    ({"kind = uniform": "kind = normal\nhigh = 1"}, "[init] key 'high' does not apply to kind normal"),
    ({"kind = uniform": "kind = uniform\nscale = 2"},
     "[init] key 'scale' does not apply to kind uniform"),
    ({"gamma = 1": "gamma = 1\neta = sin"}, "[coupling] key 'eta' does not apply to variant linear"),
    ({"gamma = 1": "gamma = 1\ne_max = 0.5"},
     "[coupling] key 'e_max' does not apply to variant linear"),
    ({"variant = linear": "variant = nonlinear", "gamma = 1": "eta = pws\ngamma = 1"},
     "[coupling] key 'gamma' does not apply to variant nonlinear"),
    ({"gamma = 1": "gamma = 1, 1"}, "gamma must have one entry per state component (1), got 2"),
], ids=["source", "family", "variant", "eta", "init-kind", "init-range", "rescale-lambda2",
        "n-integer", "center-boolean", "missing-c", "negative-width", "zero-threshold",
        "degenerate-kuramoto", "complete-negative-n", "complete-one-node", "directory", "ring-p",
        "ring-seed", "complete-path", "random-weight", "edgelist-n", "zero-scale", "zero-low",
        "normal-high", "uniform-scale", "linear-eta", "linear-e-max", "nonlinear-gamma",
        "gamma-length"])
def test_a_refused_scenario_exits_one_with_its_message_and_no_output(tmp_path, capsys, edits, message):
    ini = tmp_path / "refused.ini"
    if edits is None:  # a directory where the scenario file should be
        ini.mkdir()
    else:
        text = REFUSED_INI
        for old, new in edits.items():
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        ini.write_text(text)
    rc = main(["simulate", "--scenario", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(ini=ini)}\n"
    assert not (tmp_path / "o").exists()


def test_simulate_writes_its_outputs_when_certification_fails(tmp_path, capsys):
    # Chua nodes coupled on x1 and x2 only: thm2 refuses the pattern, and
    # simulate still integrates, writes all three files and exits 0
    ini = tmp_path / "chua-uncoupled.ini"
    ini.write_text(NODES_INI.format(family="chua", key="alpha", value="10", gamma="1,1,0")
                   .replace("[topology]", "[scenario]\nmode = thm2\n\n[topology]"))
    out = tmp_path / "o"
    rc = main(["simulate", "--scenario", str(ini), "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "summary.txt", "trajectory.csv"]
    summary = (out / "summary.txt").read_text().splitlines()
    skipped = [line for line in summary if line.startswith("certification skipped: ")]
    assert len(skipped) == 1 and skipped[0].startswith("certification skipped: component 3 is uncoupled, ")
    assert not any(line.startswith("eps_bar") for line in summary)
    assert skipped[0] in capsys.readouterr().out
