"""The benchmark's workloads: the commands one round runs, in order.

This module imports nothing from ``pwsync``, so the set-up probe can load
it before it starts timing the program's own import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


@dataclass(frozen=True)
class Command:
    """One ``pwsync`` invocation; ``grid`` is (c_min, c_max, points, spacing)."""

    kind: str
    scenario: str
    t_end: Optional[float] = None
    dt: Optional[float] = None
    grid: Optional[tuple] = None

    def argv(self, seed: int, out: str) -> list:
        argv = [self.kind, "--scenario", scenario_arg(self.scenario),
                "--seed", str(seed), "--out", out]
        if self.dt is not None:
            argv += ["--dt", repr(self.dt)]
        if self.t_end is not None:
            argv += ["--t-end", repr(self.t_end)]
        if self.grid is not None:
            c_min, c_max, points, spacing = self.grid
            argv += ["--c-min", repr(c_min), "--c-max", repr(c_max),
                     "--points", str(points), "--grid", spacing]
        return argv

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.scenario.removesuffix('.ini')}"


def scenario_arg(name: str) -> str:
    """Built-in names pass through; ``*.ini`` names resolve to this directory."""
    return str(SCENARIO_DIR / name) if name.endswith(".ini") else name


@dataclass(frozen=True)
class Facts:
    """Closed-form facts about a scenario that its outputs must respect."""

    lambda2: Optional[float] = None          # exact algebraic connectivity
    eta: Optional[str] = None                # "sin" or "pws"
    e_max: float = math.inf
    mean_zero: bool = False                  # node average stays at zero
    decay_rate: Optional[float] = None       # identical dx/dt = -rate*x nodes
    closed_form: bool = False                # decay nodes on a complete graph


FACTS = {
    "chua10": Facts(lambda2=2.22),
    "kuramoto4": Facts(eta="sin", e_max=math.pi / 3.0, mean_zero=True),
    "ikeda10-nonlinear": Facts(eta="pws"),
    "contraction3": Facts(decay_rate=1.0, closed_form=True),
    "ikeda100-pws.ini": Facts(eta="pws"),
    "decay100-linear.ini": Facts(decay_rate=1.0),
}

_BUILTINS = ("relay5", "chua10", "kuramoto4", "ikeda10-linear",
             "ikeda10-nonlinear", "contraction3")

# Horizons are cut short of the built-in defaults but stay past each
# transient, so every certified run must already sit inside eps_bar.  The
# ikeda10 delays reach 2.25, so their tail window starts at 2.4 and reads
# the stored history; the step keeps c*dt <= 0.2 for linear and <= 0.08 for
# pws coupling, whose slope grows with the initial spread.
_IKEDA_RUN = dict(dt=4e-3, t_end=3.2)
_SHORT_RUNS = {
    "relay5": dict(dt=5e-5, t_end=0.1),
    "chua10": dict(t_end=0.5),
    "kuramoto4": dict(t_end=2.0),
    "ikeda10-linear": _IKEDA_RUN,
    "ikeda10-nonlinear": _IKEDA_RUN,
    "contraction3": dict(t_end=2.0),
}

WORKLOADS = {
    "paper-examples": (
        [Command("certify", name) for name in _BUILTINS]
        + [Command("simulate", name, **_SHORT_RUNS[name]) for name in _BUILTINS]
        + [Command("sweep", "ikeda10-nonlinear", **_IKEDA_RUN, grid=(5.0, 20.0, 3, "lin"))]
    ),
    "gain-sweep": [
        Command("certify", "ikeda10-linear"),
        Command("certify", "kuramoto4"),
        Command("simulate", "ikeda10-linear", **_IKEDA_RUN),
        Command("simulate", "kuramoto4", t_end=2.0),
        Command("sweep", "ikeda10-linear", **_IKEDA_RUN, grid=(1.0, 50.0, 6, "log")),
        Command("sweep", "kuramoto4", t_end=2.0, grid=(0.5, 2.0, 6, "lin")),
    ],
    "network-scale": [
        Command("certify", "ikeda100-pws.ini"),
        Command("certify", "decay100-linear.ini"),
        Command("simulate", "ikeda100-pws.ini"),
        Command("simulate", "decay100-linear.ini"),
        Command("sweep", "decay100-linear.ini", grid=(0.25, 1.0, 2, "lin")),
    ],
}


def scenarios_of(workload: str) -> list:
    """Distinct scenario names a workload touches, in first-use order."""
    return list(dict.fromkeys(cmd.scenario for cmd in WORKLOADS[workload]))
