"""One property over every step form of the integrator.

``integrate_gains`` picks, per run and per member, among region passes,
the chained step and RK4's four stages, each over dense or node-by-node
and edge-list triples (see :mod:`pwsync.affine`).  The property test draws a
small network and a few gains, runs it in each form by patching
``sparse._DENSE`` and ``affine._STATE_SPACE``, as ``tests/test_sim.py`` does for
chosen networks, and checks every run against classical RK4 written out
node by node (``tests/oracles.py``).  A second property holds the node
spread by which region passes over an edge list are cleared to the exact
check of their edges.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwsync import affine, sparse
from pwsync.certify import CouplingSpec, pws_coupling
from pwsync.dynamics import (
    ChuaParams,
    IkedaParams,
    KuramotoParams,
    RelayParams,
    chua_field,
    decay_field,
    hard_sgn,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
    saturated_sgn,
)
from pwsync.graph import Topology, build_laplacian, random_connected
from pwsync.sim import SimConfig, integrate_gains

from oracles import rk4_network

# Stated before the first run: every stored state within 1e-12 of the
# oracle run's max|x|, the bound tests/test_sim.py holds each form to on
# chosen networks; the same number of stored steps; the same divergence flag.
TOLERANCE = 1e-12
STEPS = 80
THRESHOLD = 1e3
# the step of each family: RK4 is stable at every drawn gain but the wild one
DT = {"relay": 2e-3, "chua": 1e-2, "kuramoto": 2.0 ** -6, "ikeda": 2.0 ** -6, "decay": 2.0 ** -6}

FORMS = {
    "dense": {},
    "dense, wary": {(affine, "_STATE_SPACE"): 0},
    "edge list": {(sparse, "_DENSE"): 0},
    "edge list, four stages": {(sparse, "_DENSE"): 0, (affine, "_STATE_SPACE"): 0},
}


class _Recorded(affine._Regions):
    """``_Regions`` that records the form of each run that builds one."""

    forms = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forms.append("folded" if self.folded else "stage states")


def _runs(fields, topo, coupling, gains, x0, config):
    """``integrate_gains`` and the region step it takes (None without one)."""
    _Recorded.forms = []
    runs = integrate_gains(fields, topo, coupling, gains, x0, config)
    return runs, (_Recorded.forms or [None])[0]


class _Switches:
    """The hard sign, recording the least |argument| it is called with."""

    def __init__(self):
        self.nearest = math.inf

    def __call__(self, y):
        self.nearest = min(self.nearest, float(np.abs(y).min()))
        return hard_sgn(y)


FAMILIES = ["relay", "relay layer", "chua", "kuramoto", "ikeda", "decay"]


@st.composite
def networks(draw, family):
    """(fields, weights, coupling, x0, config, gains) of a ``family`` net."""
    n = draw(st.integers(2, 6))
    base = family.split()[0]
    dt = DT[base]
    width = draw(st.sampled_from([1e-2, 0.3])) if family == "relay layer" else 0.0
    if base == "relay":
        fields = [relay_field(RelayParams())] * n
    elif base == "chua":
        fields = [chua_field(ChuaParams(), i, n) for i in range(n)]
    elif base == "kuramoto":
        omega = draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n))
        fields = [kuramoto_error_field(KuramotoParams(w), float(np.mean(omega))) for w in omega]
    elif base == "ikeda":
        # delays on a grid point (k steps) or between grid points, all ≥ dt
        on_grid = st.integers(1, 8).map(lambda k: k * dt)
        taus = draw(st.lists(st.one_of(on_grid, st.floats(dt, 0.2)), min_size=n, max_size=n))
        fields = [ikeda_field(IkedaParams(draw(st.floats(0.5, 2.0)), draw(st.floats(1.0, 5.0)), tau))
                  for tau in taus]
    else:
        fields = [decay_field(draw(st.floats(0.1, 3.0))) for _ in range(n)]
    if base in ("kuramoto", "ikeda", "decay") and draw(st.booleans()):
        # a hand-built field: evaluated through its own h and g
        fields[0] = dataclasses.replace(fields[0], family=None, params=None)
    dim = fields[0].dim

    upper = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.25, 2.0)),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    weights = np.zeros((n, n))
    weights[np.triu_indices(n, 1)] = upper
    weights = weights + weights.T

    variant = draw(st.sampled_from(["linear", "sin", "pws"]))
    if variant == "linear":
        gamma = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=dim, max_size=dim)))
        coupling = CouplingSpec("linear", c=1.0, gamma=gamma)
        stiffness = float(gamma.max())
    else:
        eta = np.sin if variant == "sin" else pws_coupling
        coupling = CouplingSpec("nonlinear", c=1.0, eta=eta, upsilon=np.full(dim, 0.5), label=variant)
        stiffness = 1.0  # the largest slope of η, at z = 0 for sin, on |z| ≤ 1 for pws
    gains = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0]), min_size=1, max_size=4,
                          unique=True))
    lam_max = float(np.linalg.eigvalsh(build_laplacian(Topology(weights)))[-1])
    if variant != "sin" and lam_max * stiffness > 0.0 and draw(st.booleans()):
        # dt·c·λ_max(L) well past RK4's bound of about 2.8: the disagreement
        # mode grows.  Bounded sin coupling has no diverging gain; there a
        # gain this large makes RK4 a chaotic map, on which a change of one
        # ulp in x0 moves the oracle's own states by O(1) within 16 steps
        wild = draw(st.floats(5.0, 40.0)) / (dt * lam_max * stiffness)
        gains.insert(draw(st.integers(0, len(gains))), wild)
    x0 = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n * dim, max_size=n * dim)))
    config = SimConfig(dt=dt, t_end=STEPS * dt, regularization_width=width,
                       divergence_threshold=THRESHOLD)
    return fields, weights, coupling, x0, config, gains


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_step_form_matches_the_rk4_oracle(family, data):
    fields, weights, coupling, x0, config, gains = data.draw(networks(family))
    topo = Topology(weights)
    width = config.regularization_width
    expected, touched = [], []
    for c in gains:
        # Chua's hard sign reads only the time, the relay's reads the state
        sgn = saturated_sgn(width) if width > 0.0 else _Switches() if family == "relay" else hard_sgn
        want = rk4_network(fields, weights, coupling.with_gain(c), x0, config.dt, STEPS, sgn,
                           THRESHOLD)
        expected.append(want)
        # a relay sign whose argument comes within the tolerance of zero is
        # undetermined at that tolerance: a form may switch it otherwise
        # (see the test below)
        touched.append(getattr(sgn, "nearest", math.inf) <= TOLERANCE * float(np.abs(want).max()))
    for form, patches in FORMS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(affine, "_Regions", _Recorded)
            for (module, name), value in patches.items():
                patch.setattr(module, name, value)
            batch, shared = _runs(fields, topo, coupling, gains, x0, config)
            singles = [_runs(fields, topo, coupling, [c], x0, config) for c in gains]
        for c, want, near, run, ((single,), own) in zip(gains, expected, touched, batch, singles):
            where = (form, family, coupling.label or coupling.variant, c)
            for traj in (run, single):
                # a diverging gain ends at the oracle's threshold step
                assert traj.states.shape == want.shape, where
                assert traj.diverged is (want.shape[0] <= STEPS), where
                gap = float(np.abs(traj.states - want).max())
                assert near or gap <= TOLERANCE * float(np.abs(want).max()), (where, gap)
            # README: a member of a batch takes its region steps bit for bit
            # as its own run does, where both take region steps of one form
            if shared is not None and shared == own:
                assert np.array_equal(run.states, single.states), where


def test_the_hard_sign_splits_the_step_forms_only_on_its_switching_surface():
    # Found by the property above: two uncoupled relay nodes, the second
    # from x = (2.95e-104, 1, 0), so C·x = 2.95e-104 and sgn = 1.  The four
    # stages keep that value in stage 2's C·X₂ = x₁ + dt/2·(1.35·x₁ + x₂ − 1);
    # the chained step sums x·P₂G = dt/2 + 2.95e-104·(…) first, where it is
    # lost, and its C·X₂ comes out exactly 0, whose sign is 0.  From there
    # the chained run leaves the oracle by 7.4e-3 of max|x| = 1.19.  Off
    # the switching surface, with a boundary layer of 1e-2, every form
    # agrees with the oracle again.
    fields = [relay_field(RelayParams())] * 2
    topo = Topology(np.zeros((2, 2)))
    coupling = CouplingSpec("linear", c=0.0, gamma=np.zeros(3))
    x0 = np.array([0.0, 0.0, 0.0, 2.9500778e-104, 1.0, 0.0])
    for width in (0.0, 1e-2):
        config = SimConfig(dt=2e-3, t_end=STEPS * 2e-3, regularization_width=width)
        sgn = saturated_sgn(width) if width > 0.0 else _Switches()
        want = rk4_network(fields, topo.weights, coupling, x0, config.dt, STEPS, sgn)
        bound = TOLERANCE * float(np.abs(want).max())
        gaps = {}
        for form, patches in FORMS.items():
            with pytest.MonkeyPatch.context() as patch:
                for (module, name), value in patches.items():
                    patch.setattr(module, name, value)
                (traj,) = integrate_gains(fields, topo, coupling, [0.0], x0, config)
            gaps[form] = float(np.abs(traj.states - want).max())
        if width == 0.0:
            assert sgn.nearest <= bound
            assert gaps.pop("dense") > 1e-3  # the chained step
        assert all(gap <= bound for gap in gaps.values()), (width, gaps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_node_spread_clears_no_step_the_edge_check_refuses(data):
    # random connected graphs over an edge list, members in random pieces
    # of pws or of the three-piece boundary-layer sign (outer pieces
    # included) and a member at gain zero, whose entries are idle; random
    # states and stage states, NaN and ±inf among them
    n, dim = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 2))
    topo = random_connected(n, data.draw(st.floats(0.2, 1.0)), data.draw(st.integers(0, 2 ** 16)))
    width = data.draw(st.sampled_from([None, 0.05, 0.5, 2.0]))
    eta = pws_coupling if width is None else saturated_sgn(width)
    gains = data.draw(st.lists(st.sampled_from([0.5, 3.0]), max_size=2))
    gains.insert(data.draw(st.integers(0, len(gains))), 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "_DENSE", 0)
        term = sparse.coupling_term(eta, topo, dim, np.array(gains))
    regions = affine._Regions(None, [term], len(gains), n * dim, 1e-2, False, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    regions.pieces[:] = rng.integers(len(eta.pieces), size=regions.pieces.shape)
    regions.pieces[regions.idle] = 0
    regions._build(np.arange(len(gains)))

    steps = data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0, 4.0]))
    states = data.draw(st.floats(-3.0, 3.0)) + scale * rng.uniform(-1.0, 1.0, (len(gains), steps, 1, 4 * n * dim))
    for value in (np.nan, np.inf, -np.inf):
        at = rng.integers(states.size, size=data.draw(st.integers(0, 2)))
        states.reshape(-1)[at] = value
    with np.errstate(invalid="ignore"):  # inf − inf, as in the integrator's passes
        cleared = regions._cleared(states[..., :n * dim], states[..., n * dim:])
        gathers = (states.reshape(-1, 1, n * dim) @ term.gather).reshape(states.shape[:3] + (-1,))
        spread = np.ptp(states.reshape(states.shape[:2] + (4, n, dim)), axis=3).max(axis=(2, 3))
    exact = ((regions.lower <= gathers) & (gathers <= regions.upper)).all(axis=(2, 3))
    assert not (cleared & ~exact).any()
    # and the bound is no empty one: pws clears every finite step whose
    # spread is at most 1
    if width is None:
        assert cleared[spread <= 1.0].all()
