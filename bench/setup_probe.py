"""Time a cold set-up: import ``pwsync`` and build a workload's scenarios.

Runs in a fresh interpreter so the import is paid in full, as a user of
the command line pays it.  Usage::

    python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON object, ``{"wall_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

from workloads import scenario_arg, scenarios_of

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    names = scenarios_of(workload)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pwsync

    for name in names:
        pwsync.load_scenario(scenario_arg(name), seed)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
