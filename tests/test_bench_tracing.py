"""The benchmark's tracer (``bench/tracing.py``) swaps module attributes of
``pwsync`` for timed wrappers; entering and leaving it against the package
pins every name it patches, so a rename shows here and not as an
``AttributeError`` in a traced benchmark run."""

import importlib.util
from pathlib import Path

from pwsync import certify, cli, scenarios, sim

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"

PATCHED = [
    (cli, "load_scenario"), (cli, "write_trajectory_csv"), (cli, "write_error_csv"),
    (cli, "sweep_coupling"), (cli, "error_series"),
    (scenarios, "certify_upsilon"), (scenarios.Scenario, "certify"), (scenarios, "integrate"),
    (scenarios, "build_laplacian"), (scenarios, "lambda2"),
    (sim, "error_series"), (sim, "integrate"), (sim, "build_laplacian"),
    (certify, "build_laplacian"), (certify, "lambda2"),
]


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_patches_the_package_and_restores_it(tmp_path):
    tracing = _tracing()
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(PATCHED, originals))
        assert cli.main(["simulate", "--scenario", "contraction3", "--t-end", "0.1",
                         "--out", str(tmp_path / "sim")]) == 0
        assert cli.main(["sweep", "--scenario", "kuramoto4", "--t-end", "0.1",
                         "--c-min", "0.5", "--c-max", "1", "--points", "2",
                         "--out", str(tmp_path / "sweep")]) == 0
    assert [getattr(owner, attr) for owner, attr in PATCHED] == originals
    names = {rec["name"] for rec in tracer.spans}
    assert {tracing.LOAD, tracing.UPSILON, tracing.LAPLACIAN, tracing.LAMBDA2,
            tracing.REPORT, tracing.INTEGRATE, tracing.ERROR_SERIES, tracing.WRITE_CSV,
            tracing.SWEEP} <= names
