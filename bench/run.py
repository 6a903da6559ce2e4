"""Benchmark for pwsync: certify, simulate and sweep, end to end and by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper-examples --seed 0 --seconds 20 --trace 0

The run imports ``pwsync`` from ``src/``, times a few cold set-ups in
fresh interpreters, then drives ``pwsync.cli.main`` in-process in whole
rounds of the workload's commands until ``--seconds`` have passed.  Each
command's outputs are checked (see ``checks.py``).  Every time is in
machine-normalised seconds (see ``calib.py``); raw seconds are printed
beside them.  With ``--trace 1`` the same rounds run with spans around
each layer call and the run reports per-layer numbers instead, writing
the spans to ``.bench_out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads: the program's arrays are
# small and extra threads only add contention on a small host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, scenario_arg, scenarios_of  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
FIELD_EVAL_REPEATS = 20
KINDS = ("certify", "simulate", "sweep")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")
    return args


def import_pwsync():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pwsync" / "__init__.py").is_file():
        raise BenchError(f"no pwsync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwsync
    import pwsync.cli

    if not Path(pwsync.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"pwsync was imported from {pwsync.__file__}, not from {SRC}")
    return pwsync


def ratio(before: float, after: float) -> float:
    """Calibration ratio from kernel times taken around a measurement."""
    return calib.NOMINAL_S / (0.5 * (before + after))


class Kernel:
    """Calibration kernel samples between consecutive measurements.

    The sample taken after one measurement is also the sample before the
    next, so each boundary costs one sample.
    """

    def __init__(self):
        self.last = None

    def before(self) -> float:
        if self.last is None:
            self.last = calib.sample()
        return self.last

    def ratio_since(self, before: float) -> float:
        self.last = calib.sample()
        return ratio(before, self.last)


def measure_setup(workload: str, seed: int) -> list:
    """(raw, normalised) seconds of cold set-ups in fresh interpreters."""
    kernel = Kernel()
    samples = []
    for _ in range(SETUP_PROBES):
        k0 = kernel.before()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        r = kernel.ratio_since(k0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        wall = json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]
        samples.append((wall, wall * r))
    return samples


def invoke(cli_main, argv):
    """Run one CLI command in-process; returns (exit code, wall s, stderr)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return code, wall, sink_err.getvalue()


def field_eval_seconds(scenario) -> float:
    """Wall seconds of one pass of every node's h + g at the initial state.

    The history is the constant initial state, as the integrator uses
    before t = 0; the pass is repeated and the mean returned.
    """
    from pwsync.dynamics import hard_sgn, saturated_sgn

    width = scenario.sim.regularization_width
    sgn = hard_sgn if width == 0.0 else saturated_sgn(width)
    dim, x = scenario.dim, scenario.x0
    nodes = []
    for i, f in enumerate(scenario.fields):
        xb = x[i * dim:(i + 1) * dim].copy()
        nodes.append((f.h, f.g, xb, lambda s, xb=xb: xb))
    t0 = time.perf_counter()
    for _ in range(FIELD_EVAL_REPEATS):
        for h, g, xb, history in nodes:
            h(0.0, xb) + g(0.0, xb, history, sgn)
    return (time.perf_counter() - t0) / FIELD_EVAL_REPEATS


class Run:
    """Whole rounds of a workload's commands, with their checks."""

    def __init__(self, pwsync, workload: str, seed: int, tracer=None):
        self.pwsync = pwsync
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.kernel = Kernel()
        self.scenarios = {name: pwsync.load_scenario(scenario_arg(name), seed)
                          for name in scenarios_of(workload)}
        self.out_root = OUT_DIR / f"{workload}-{'traced' if tracer else 'plain'}"
        self.rounds = []        # per round: [(kind, raw s, ratio)]
        self.field_evals = []   # per round: (raw s, ratio), traced runs only
        self.ratios = {}        # run id -> ratio, traced runs only
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _command(self, index: int, cmd):
        outdir = self.out_root / f"{index:02d}-{cmd.label}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = cmd.argv(self.seed, str(outdir))
        cli_main = self.pwsync.cli.main
        gc.collect()
        k0 = self.kernel.before()
        if self.tracer is None:
            code, wall, err = invoke(cli_main, argv)
        else:
            self.tracer.run = (len(self.rounds), index)
            with self.tracer.span(tracing.COMMAND + cmd.kind):
                code, wall, err = invoke(cli_main, argv)
        r = self.kernel.ratio_since(k0)
        if self.tracer is not None:
            self.ratios[self.tracer.run] = r
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED {cmd.label}: exit code {code!r}\n{err[-2000:]}", file=sys.stderr)
        else:
            try:
                checks.verify(cmd, outdir, self.scenarios[cmd.scenario])
            except Exception as exc:  # any unreadable or wrong output rejects the command
                self.failed += 1
                self.correct = False
                print(f"REJECTED {cmd.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return cmd.kind, wall, r

    def _field_eval(self):
        simulated = list(dict.fromkeys(c.scenario for c in self.commands if c.kind == "simulate"))
        k0 = self.kernel.before()
        raw = sum(field_eval_seconds(self.scenarios[name]) for name in simulated)
        self.field_evals.append((raw, self.kernel.ratio_since(k0)))

    def execute(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while True:
            results = [self._command(i, cmd) for i, cmd in enumerate(self.commands)]
            if self.tracer is not None:
                self._field_eval()
            self.rounds.append(results)
            if time.perf_counter() >= deadline:
                return

    def kind_times(self) -> dict:
        """kind -> (median raw s, median normalised s) of one round's commands."""
        out = {}
        for kind in KINDS:
            raw = [sum(w for k, w, _ in rnd if k == kind) for rnd in self.rounds]
            norm = [sum(w * r for k, w, r in rnd if k == kind) for rnd in self.rounds]
            out[kind] = (statistics.median(raw), statistics.median(norm))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup: list) -> tuple:
    """(metrics, raw seconds beside each) of an untraced run."""
    times = run.kind_times()
    metrics = {"setup_s": statistics.median(n for _, n in setup)}
    raw = {"setup_s": statistics.median(w for w, _ in setup)}
    for kind in KINDS:
        raw[f"{kind}_s"], metrics[f"{kind}_s"] = times[kind]
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, raw


def per_layer(run: Run) -> tuple:
    """(per-layer medians over rounds, per-mode certify medians)."""
    rounds, modes = [], []
    for n, (raw, r) in enumerate(run.field_evals):
        layers, by_mode = tracing.round_layers(run.tracer.spans, run.ratios, n)
        layers["dynamics.field_eval_s"] = raw * r
        rounds.append(layers)
        modes.append(by_mode)
    metrics = {name: statistics.median(rnd[name] for rnd in rounds) for name in rounds[0]}
    mode_names = sorted({key for m in modes for key in m})
    by_mode = {key: statistics.median(m.get(key, 0.0) for m in modes) for key in mode_names}
    return metrics, by_mode


_UNITS = {"peak_rss_mb": "MB", "graph.lambda2_solves": "count", "sim.csv_mb": "MB",
          "sim.states_mb": "MB", "sim.node_steps_per_s": "1/s"}


def write_trace(run: Run, workload: str, seed: int, layers: dict, by_mode: dict,
                traced_times: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "nominal_s": calib.NOMINAL_S,
        "commands": [
            {"run": [n, i], "kind": kind, "wall_s": wall, "ratio": r}
            for n, rnd in enumerate(run.rounds) for i, (kind, wall, r) in enumerate(rnd)
        ],
        "spans": run.tracer.spans,
        "layers": layers,
        "certify_by_mode": by_mode,
        "traced_end_to_end": {f"{k}_s": v for k, (_, v) in traced_times.items()},
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed % 2**31
    try:
        pwsync = import_pwsync()
        setup = [] if args.trace else measure_setup(args.workload, seed)
        tracer = tracing.Tracer() if args.trace else None
        run = Run(pwsync, args.workload, seed, tracer)
        if tracer is None:
            run.execute(args.seconds)
        else:
            with tracing.instrument(tracer):
                run.execute(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {seed}, {len(run.rounds)} rounds, "
          f"{run.attempted} commands, {run.failed} failed")
    if tracer is None:
        metrics, raw = end_to_end(run, setup)
        print(f"{'metric':<14} {'normalised':>12} {'raw':>12}")
        for name, value in metrics.items():
            print(f"{name:<14} {value:>12.6g} {raw.get(name, value):>12.6g}")
    else:
        metrics, by_mode = per_layer(run)
        traced_times = run.kind_times()
        path = write_trace(run, args.workload, seed, metrics, by_mode, traced_times)
        for name, value in {**metrics, **by_mode}.items():
            print(f"{name:<26} {value:>12.6g}")
        for kind, (raw_s, norm_s) in traced_times.items():
            print(f"traced {kind}_s {norm_s:.6g} (raw {raw_s:.6g})")
        print(f"spans written to {path}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": _UNITS.get(name, "s")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
