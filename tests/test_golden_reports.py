"""Certify reports of the six built-ins at seeds 0-2 must not move.

Each file under ``tests/golden/`` holds ``BoundReport.to_text()`` of one
built-in for seeds 0, 1 and 2, each preceded by a header line.  A change
that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and explains the difference in CHANGES.md.
"""

from pathlib import Path

import pytest

from pwsync.scenarios import BUILTINS, load_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = (0, 1, 2)


def render(name: str) -> bytes:
    parts = []
    for seed in SEEDS:
        parts.append(f"=== {name} seed {seed} ===\n")
        parts.append(load_scenario(name, seed).certify().to_text())
    return "".join(parts).encode("utf-8")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_certify_report_matches_golden(name):
    assert render(name) == (GOLDEN_DIR / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(BUILTINS):
        (GOLDEN_DIR / f"{name}.txt").write_bytes(render(name))
