"""Certify reports of the built-ins and the benchmark scenarios must not move.

Each file under ``tests/golden/`` holds ``BoundReport.to_text()`` of one
scenario for seeds 0, 1 and 2, each preceded by a header line:

- ``<built-in>.txt``: the scenario's own gain;
- ``<built-in>-low-gains.txt``: c = 0, and one gain below c_tilde where
  c_tilde > 0 (the failed-hypothesis branches of every mode);
- ``<scenario file stem>.txt``: the scenario files under
  ``bench/scenarios/`` at their own gain.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and explains the difference in CHANGES.md.
"""

from pathlib import Path

import pytest

from pwsync.scenarios import BUILTINS, load_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_SCENARIOS = Path(__file__).parents[1] / "bench" / "scenarios"
SEEDS = (0, 1, 2)

# c_tilde is 0 for thm1 and for thm3 with a global sector bound, so c = 0 is
# their only gain at or below it.
LOW_GAINS = {
    "chua10": (0.0, 5.0),
    "contraction3": (0.0,),
    "ikeda10-linear": (0.0,),
    "ikeda10-nonlinear": (0.0,),
    "kuramoto4": (0.0, 0.7),
    "relay5": (0.0, 20.0),
}

CASES = {name: (name, (None,)) for name in BUILTINS}
CASES.update({f"{name}-low-gains": (name, gains) for name, gains in LOW_GAINS.items()})
CASES.update({p.stem: (str(p), (None,)) for p in sorted(BENCH_SCENARIOS.glob("*.ini"))})


def render(case: str) -> bytes:
    spec, gains = CASES[case]
    name = Path(spec).stem
    parts = []
    for seed in SEEDS:
        scenario = load_scenario(spec, seed)
        for c in gains:
            label = "" if c is None else f" c {c:g}"
            parts.append(f"=== {name} seed {seed}{label} ===\n")
            parts.append(scenario.certify(c).to_text())
    return "".join(parts).encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_certify_report_matches_golden(case):
    assert render(case) == (GOLDEN_DIR / f"{case}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN_DIR / f"{case}.txt").write_bytes(render(case))
