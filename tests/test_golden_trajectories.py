"""Final states of short runs of the built-ins and benchmark scenarios must not move.

Each file under ``tests/golden/trajectories/`` holds, for seeds 0, 1 and 2,
the final state of ``Scenario.simulate`` at the scenario's own gain over a
short horizon that reaches past every delay of the scenario.  Values are
written with 17 significant digits, one node component per line.

A run matches when every component lies within 1e-12·max|x| of the stored
one, max|x| taken over the whole run.  That admits the rounding by which
the one-product step of a linear region (every run with no
state-dependent term, and relay5, chua10, ikeda10-nonlinear and, over its
edge list, ikeda100-pws while their piecewise-linear terms stay in one
piece), the chained step of dense runs with no region step (kuramoto4)
and the four stages may differ, which reaches a few 1e-14·max|x|, and nothing a changed
formula or a step taken across a breakpoint would produce.  Region steps
go in passes of up to 64 steps (one step node by node) whose stage
gathers are checked once per pass, over an edge list by the node spread
first and edge by edge only on the steps it does not clear; a pass keeps
its steps up to the first one that leaves the region, so its trajectory
is that of one region step at a time.

A change that moves a trajectory on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden_trajectories.py

and explains the difference in CHANGES.md.
"""

from pathlib import Path

import numpy as np
import pytest

from pwsync.scenarios import load_scenario

GOLDEN_DIR = Path(__file__).parent / "golden" / "trajectories"
BENCH_SCENARIOS = Path(__file__).parents[1] / "bench" / "scenarios"
SEEDS = (0, 1, 2)
REL_TOL = 1e-12

# (dt, t_end) per scenario: the ikeda10 delays reach 2.25 and the ikeda100
# ones 0.55; chua10's forcing switches from t = 0 on; relay5 switches from
# its first steps.
HORIZONS = {
    "relay5": (5e-5, 0.01),
    "chua10": (1e-3, 0.5),
    "kuramoto4": (1e-3, 1.0),
    "ikeda10-linear": (4e-3, 2.4),
    "ikeda10-nonlinear": (4e-3, 2.4),
    "contraction3": (1e-3, 1.0),
    "decay100-linear": (1e-2, 0.5),
    "ikeda100-pws": (2e-3, 0.6),
}


def _spec(name: str) -> str:
    path = BENCH_SCENARIOS / f"{name}.ini"
    return str(path) if path.is_file() else name


def run(name: str, seed: int):
    """The final state of one short run and max|x| over the run."""
    dt, t_end = HORIZONS[name]
    scenario = load_scenario(_spec(name), seed).with_sim(dt=dt, t_end=t_end)
    traj = scenario.simulate()
    assert not traj.diverged, (name, seed)
    return traj.states[-1], float(np.abs(traj.states).max())


def render(name: str) -> str:
    lines = []
    for seed in SEEDS:
        final, _ = run(name, seed)
        lines.append(f"=== {name} seed {seed} ===")
        lines.extend(f"{v:.17g}" for v in final)
    return "\n".join(lines) + "\n"


def read(name: str) -> dict:
    finals, seed = {}, None
    for line in (GOLDEN_DIR / f"{name}.txt").read_text().splitlines():
        if line.startswith("==="):
            seed = int(line.split()[-2])
            finals[seed] = []
        else:
            finals[seed].append(float(line))
    return {s: np.array(v) for s, v in finals.items()}


@pytest.mark.parametrize("name", sorted(HORIZONS))
def test_final_state_matches_golden(name):
    golden = read(name)
    assert sorted(golden) == list(SEEDS)
    for seed in SEEDS:
        final, peak = run(name, seed)
        assert final.shape == golden[seed].shape, (name, seed)
        err = float(np.abs(final - golden[seed]).max())
        assert err <= REL_TOL * peak, (name, seed, err, peak)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(HORIZONS):
        (GOLDEN_DIR / f"{case}.txt").write_text(render(case))
