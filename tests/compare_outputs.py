"""Same-output check between two trees of pwsync.

Runs ``certify`` (at the scenario's gain and at c = 0, 0.3 and 7),
a shortened ``simulate`` and a small ``sweep`` of the six built-ins at
seeds 0-2 through ``pwsync.cli.main``, and the same ``simulate`` and
``sweep`` of relay5 with the exact sign (``regularization_width`` = 0,
from a scenario file written to a temporary directory), and the same
``simulate`` and ``sweep`` of the two 100-node scenario files under
``bench/scenarios``, read in place, at their own horizons, 126 commands in
all, and records each command's exit code and a hash of every output,
'#' header lines left out.  For each of the 27 sweeps it also records a
hash of every member's stored states, from ``pwsync.sim.integrate_gains``
on the sweep's grid, so batched runs are gated byte for byte and not only
through ε̂: 153 keys in all.  Run it once per tree, then compare the two
files:

    PYTHONPATH=<old tree>/src python tests/compare_outputs.py old.json
    PYTHONPATH=<new tree>/src python tests/compare_outputs.py new.json
    python tests/compare_outputs.py old.json new.json

The last call prints the number of keys and of keys that differ, and
exits 1 when any differs.  pytest does not collect this file.
"""

import configparser
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

IKEDA = ["--dt", "4e-3", "--t-end", "3.2"]
SHORT = {"relay5": ["--dt", "5e-5", "--t-end", "0.1"], "chua10": ["--t-end", "0.5"],
         "kuramoto4": ["--t-end", "2.0"], "ikeda10-linear": IKEDA, "ikeda10-nonlinear": IKEDA,
         "contraction3": ["--t-end", "2.0"]}
GRIDS = {"relay5": "10 60 3 lin", "chua10": "5 15 3 lin", "kuramoto4": "0.5 2 6 lin",
         "ikeda10-linear": "1 50 6 log", "ikeda10-nonlinear": "5 20 3 lin",
         "contraction3": "0.5 2 3 lin"}
# the 100-node scenario files: ikeda100-pws runs its coupling over the
# edge list, in the sweep at two gains
FILES = {"ikeda100-pws": "10 20 2 lin", "decay100-linear": "0.25 1 2 lin"}
BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"
OUTPUTS = ("trajectory.csv", "errors.csv", "summary.txt", "sweep.csv")


def _digest(text) -> str:
    return hashlib.sha256(str(text).encode()).hexdigest()


def _body(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(True) if not line.startswith("#"))


def _run(*argv) -> list:
    from pwsync.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp)
        code = main([*argv, "--out", tmp])
        report = out / "report.json"
        rep = json.loads(report.read_text())["report"] if report.exists() else None
        txt = (out / "report.txt").read_text().split("\n\n", 1)[1] if rep is not None else None
        files = [_body(out / name) for name in OUTPUTS if (out / name).exists()]
        return [code, _digest(json.dumps(rep, sort_keys=True)), _digest(txt), *map(_digest, files)]


def _states(spec: str, seed: str, short: list, lo: str, hi: str, n: str, grid: str) -> list:
    """A hash of each sweep member's stored states, on the sweep's grid."""
    import numpy as np

    from pwsync.scenarios import load_scenario
    from pwsync.sim import integrate_gains

    spacing = np.geomspace if grid == "log" else np.linspace
    gains = sorted(spacing(float(lo), float(hi), int(n)).tolist())
    sim = {flag[2:].replace("-", "_"): float(value) for flag, value in zip(short[::2], short[1::2])}
    scenario = load_scenario(spec, int(seed)).with_sim(**sim)
    trajectories = integrate_gains(scenario.fields, scenario.topo, scenario.coupling, gains,
                                   scenario.x0, scenario.sim)
    return [hashlib.sha256(traj.states.tobytes()).hexdigest() for traj in trajectories]


def _simulate_and_sweep(out: dict, key: str, spec: str, seed: str, short: list, grid: str) -> None:
    base = ["--scenario", spec, "--seed", seed, *short]
    lo, hi, n, grid = grid.split()
    out[f"simulate {key} {seed}"] = _run("simulate", *base)
    out[f"sweep {key} {seed}"] = _run("sweep", *base, "--c-min", lo, "--c-max", hi,
                                      "--points", n, "--grid", grid)
    out[f"sweep states {key} {seed}"] = _states(spec, seed, short, lo, hi, n, grid)


def record() -> dict:
    from pwsync.scenarios import BUILTINS

    out = {}
    for name, short in SHORT.items():
        for seed in ("0", "1", "2"):
            for c in (None, "0", "0.3", "7"):
                out[f"certify {name} {seed} {c}"] = _run("certify", "--scenario", name, "--seed", seed,
                                                         *([] if c is None else ["--c", c]))
            _simulate_and_sweep(out, name, name, seed, short, GRIDS[name])
    # relay5 with the exact sign, which no built-in runs
    with tempfile.TemporaryDirectory() as tmp:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(BUILTINS["relay5"])
        parser["sim"]["regularization_width"] = "0"
        path = Path(tmp) / "relay5-hard.ini"
        with path.open("w", encoding="utf-8") as handle:
            parser.write(handle)
        for seed in ("0", "1", "2"):
            _simulate_and_sweep(out, path.stem, str(path), seed, SHORT["relay5"], GRIDS["relay5"])
    for name, grid in FILES.items():
        for seed in ("0", "1", "2"):
            _simulate_and_sweep(out, name, str(BENCH_SCENARIOS / f"{name}.ini"), seed, [], grid)
    return out


def main(argv) -> int:
    if len(argv) == 1:
        Path(argv[0]).write_text(json.dumps(record(), indent=1, sort_keys=True))
        return 0
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    differ = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    print(f"{len(old.keys() | new.keys())} keys, {len(differ)} differ")
    for key in differ:
        print(f"  {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
