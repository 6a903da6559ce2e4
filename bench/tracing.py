"""Spans around the calls the CLI makes into each layer of ``pwsync``.

``instrument`` swaps the module attributes the CLI and the pipelines
look up (``pwsync.cli.load_scenario``, ``pwsync.certify.lambda2``,
``Scenario.certify``, ...) for wrappers that record a span per call, and
restores them on exit.  The program's own files stay untouched.  Spans
are kept in memory; the caller writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

# Span names, each a layer metric of the traced run.
LOAD = "scenarios.load"
UPSILON = "certify.upsilon"
LAPLACIAN = "graph.laplacian"
LAMBDA2 = "graph.lambda2"
REPORT = "certify.report"
INTEGRATE = "sim.integrate"
ERROR_SERIES = "sim.error_series"
WRITE_CSV = "sim.write_csv"
SWEEP = "sim.sweep_coupling"
COMMAND = "cli."

LAYER_SECONDS = tuple(name + "_s" for name in (
    LOAD, UPSILON, LAPLACIAN, LAMBDA2, REPORT, INTEGRATE, ERROR_SERIES, WRITE_CSV, SWEEP))


class Tracer:
    """Span recorder: name, start, end, parent span index and run id."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """Wrap ``fn`` in a span; ``annotate(rec, args, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(rec, args, result)
            return result

        return traced


def _lambda2_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(lap):
        with tracer.span(LAMBDA2) as rec:
            # a Laplacian that already carries its value is a cache hit
            rec["solved"] = getattr(lap, "_lambda2", None) is None
            return fn(lap)

    return traced


def _note_mode(rec, args, report):
    rec["mode"] = report.mode


def _note_trajectory(rec, args, traj):
    rec["node_steps"] = traj.n_nodes * (traj.times.shape[0] - 1)
    rec["states_bytes"] = traj.states.nbytes


def _note_file_size(rec, args, result):
    rec["bytes"] = os.path.getsize(args[1])


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points of ``pwsync`` for the duration of the block."""
    from pwsync import certify, cli, scenarios, sim

    laplacian = tracer.wrap(LAPLACIAN, certify.build_laplacian)
    lambda2 = _lambda2_wrapper(tracer, certify.lambda2)
    integrate = tracer.wrap(INTEGRATE, sim.integrate, _note_trajectory)
    error_series = tracer.wrap(ERROR_SERIES, sim.error_series)
    patches = [
        (cli, "load_scenario", tracer.wrap(LOAD, cli.load_scenario)),
        (scenarios, "certify_upsilon", tracer.wrap(UPSILON, scenarios.certify_upsilon)),
        (scenarios.Scenario, "certify", tracer.wrap(REPORT, scenarios.Scenario.certify, _note_mode)),
        (cli, "write_trajectory_csv", tracer.wrap(WRITE_CSV, cli.write_trajectory_csv, _note_file_size)),
        (cli, "write_error_csv", tracer.wrap(WRITE_CSV, cli.write_error_csv, _note_file_size)),
        (cli, "sweep_coupling", tracer.wrap(SWEEP, cli.sweep_coupling)),
        (cli, "error_series", error_series),
        (sim, "error_series", error_series),
        (scenarios, "integrate", integrate),
        (sim, "integrate", integrate),
    ]
    for module in (certify, scenarios, sim):
        patches.append((module, "build_laplacian", laplacian))
    for module in (certify, scenarios):
        patches.append((module, "lambda2", lambda2))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def round_layers(spans, ratios, round_no: int):
    """Per-layer totals of one round, in normalised seconds, and the
    certify time split by resolved mode.

    ``ratios`` maps a run id to the calibration ratio of its command.
    Layer times are inclusive span times; ``cli.self_s`` is each command
    span minus its direct children.
    """
    out = dict.fromkeys(LAYER_SECONDS, 0.0)
    out.update({"graph.lambda2_solves": 0, "sim.csv_mb": 0.0, "sim.states_mb": 0.0})
    by_mode = {}
    node_steps = 0
    child_time = {}
    commands = []
    for idx, rec in enumerate(spans):
        if rec["run"][0] != round_no:
            continue
        dur = (rec["end"] - rec["start"]) * ratios[rec["run"]]
        name = rec["name"]
        if rec["parent"] is not None:
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + dur
        if name.startswith(COMMAND):
            commands.append((idx, dur))
            continue
        out[name + "_s"] += dur
        if name == LAMBDA2:
            out["graph.lambda2_solves"] += int(rec["solved"])
        elif name == REPORT:
            key = f"{REPORT}_s.{rec.get('mode', 'error')}"
            by_mode[key] = by_mode.get(key, 0.0) + dur
        elif name == INTEGRATE:
            node_steps += rec["node_steps"]
            out["sim.states_mb"] = max(out["sim.states_mb"], rec["states_bytes"] / 1e6)
        elif name == WRITE_CSV:
            out["sim.csv_mb"] += rec["bytes"] / 1e6
    out["cli.self_s"] = sum(dur - child_time.get(idx, 0.0) for idx, dur in commands)
    out["sim.node_steps_per_s"] = node_steps / out["sim.integrate_s"]
    return out, by_mode
