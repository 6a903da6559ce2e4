"""Self-test of the output checks: each accepts a true output and rejects a wrong one.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs a handful of real ``pwsync`` commands once, feeds their outputs to
the checks in ``checks.py``, then feeds the same outputs with one value
made wrong (eps_bar halved, lambda2 perturbed, upsilon raised above its
closed form, a contraction3 state shifted, a tail window before the
longest delay, ...).  Exits 1 if a check rejects a true output or lets a
wrong one through.
"""

import json
import sys

import numpy as np

import checks
import run
from workloads import FACTS, Command, Facts

SEED = 0
# kuramoto4 at this seed settles at 0.55 of its bound, so halving eps_bar
# must be caught.
KURAMOTO_SEED = 5


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def main() -> int:
    pwsync = run.import_pwsync()
    out = run.OUT_DIR / "selftest"
    cases = []

    def produce(cmd, seed):
        outdir = out / cmd.label
        code, _, err = run.invoke(pwsync.cli.main, cmd.argv(seed, str(outdir)))
        if code != 0:
            raise run.BenchError(f"{cmd.label} exited {code!r}: {err[-1000:]}")
        return outdir

    def case(name, accept, reject):
        ok_true = not _rejects(*accept)
        ok_wrong = _rejects(*reject)
        cases.append(ok_true and ok_wrong)
        print(f"{'ok  ' if ok_true and ok_wrong else 'FAIL'} {name}: "
              f"true value {'accepted' if ok_true else 'REJECTED'}, "
              f"wrong value {'rejected' if ok_wrong else 'ACCEPTED'}")

    # eps_hat <= eps_bar
    scen = pwsync.load_scenario("kuramoto4", KURAMOTO_SEED)
    outdir = produce(Command("simulate", "kuramoto4", t_end=2.0), KURAMOTO_SEED)
    summary = checks.read_summary(outdir / "summary.txt")
    eps_hat, eps_bar = float(summary["eps_hat"]), float(summary["eps_bar"])
    case("eps_hat <= eps_bar, eps_bar halved",
         (checks.check_eps, eps_hat, eps_bar, True, "kuramoto4"),
         (checks.check_eps, eps_hat, 0.5 * eps_bar, True, "kuramoto4"))
    _, traj = checks.read_csv(outdir / "trajectory.csv")
    states = traj[:, 1:]
    drifted = states.copy()
    drifted[-1, 0] += 1e-6
    case("kuramoto4 mean stays zero, one phase shifted by 1e-6",
         (checks.check_mean_zero, states), (checks.check_mean_zero, drifted))
    norms = checks.deviation_norms(states, scen.topo.n_nodes, scen.dim)
    tail = traj[:, 0] >= traj[-1, 0] * 0.75 - 1e-12
    case("eps_hat recomputed from trajectory.csv, eps_hat off by 1e-6",
         (checks.check_recomputed, eps_hat, float(norms[tail].max()), "eps_hat"),
         (checks.check_recomputed, eps_hat * (1 + 1e-6), float(norms[tail].max()), "eps_hat"))

    # lambda2 against eigvalsh, and chua10's rescaled value
    for name in ("chua10", "ikeda10-linear"):
        scen = pwsync.load_scenario(name, SEED)
        report = json.loads((produce(Command("certify", name), SEED) / "report.json")
                            .read_text())["report"]
        lam2 = float(report["lambda2"])
        exact = FACTS.get(name, Facts()).lambda2
        case(f"{name} lambda2, perturbed by 1e-6 relative",
             (checks.check_lambda2, lam2, scen.topo.weights, exact),
             (checks.check_lambda2, lam2 * (1 + 1e-6), scen.topo.weights, exact))

    # upsilon against its closed form
    for name in ("kuramoto4", "ikeda10-nonlinear"):
        facts = FACTS[name]
        report = json.loads((produce(Command("certify", name), SEED) / "report.json")
                            .read_text())["report"]
        ups = float(report["upsilon"][0])
        above = checks.upsilon_closed_form(facts.eta, facts.e_max) * (1 + 1e-9)
        case(f"{name} upsilon ({facts.eta}), raised 1e-9 above the closed form",
             (checks.check_upsilon, ups, facts.eta, facts.e_max),
             (checks.check_upsilon, above, facts.eta, facts.e_max))

    # contraction3: closed form and decay envelope
    scen = pwsync.load_scenario("contraction3", SEED)
    outdir = produce(Command("simulate", "contraction3", t_end=2.0), SEED)
    _, traj = checks.read_csv(outdir / "trajectory.csv")
    times, states = traj[:, 0], traj[:, 1:]
    lam2 = checks.laplacian_lambda2(scen.topo.weights)
    shifted = states.copy()
    shifted[len(times) // 2, 1] += 1e-6
    case("contraction3 closed form, one state shifted by 1e-6",
         (checks.check_closed_form, times, states, 1.0, scen.coupling.c, lam2),
         (checks.check_closed_form, times, shifted, 1.0, scen.coupling.c, lam2))
    norms = checks.deviation_norms(states, scen.topo.n_nodes, scen.dim)
    slower = norms.copy()
    slower[1:] *= np.exp(1e-3 * times[1:])
    case("decay envelope, error decaying 1e-3 slower",
         (checks.check_decay, times, norms, 1.0, scen.coupling.c, lam2),
         (checks.check_decay, times, slower, 1.0, scen.coupling.c, lam2))

    # delayed feedback acts in the tail window
    fields = pwsync.load_scenario("ikeda10-linear", SEED).fields
    case("ikeda10 tail window past its delays, tail at t = 0.75 instead of 2.4",
         (checks.check_history_read, 2.4, fields),
         (checks.check_history_read, 0.75, fields))

    # sweep rows: sorted, one per grid point
    cmd = Command("sweep", "kuramoto4", t_end=2.0, grid=(0.5, 2.0, 6, "lin"))
    header, data = checks.read_csv(produce(cmd, SEED) / "sweep.csv")
    c_col = data[:, header.index("c")]
    gains = checks.sweep_gains(cmd.grid)
    case("sweep rows sorted, two rows swapped",
         (checks.check_sweep_rows, c_col, gains),
         (checks.check_sweep_rows, c_col[[1, 0, 2, 3, 4, 5]], gains))
    case("sweep rows, one grid point missing",
         (checks.check_sweep_rows, c_col, gains),
         (checks.check_sweep_rows, c_col[:-1], gains))

    passed = sum(cases)
    print(f"{passed}/{len(cases)} checks behave")
    return 0 if passed == len(cases) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
