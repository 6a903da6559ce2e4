"""Built-in network scenarios and the scenario-file loader.

A scenario bundles a topology, one field per node, a coupling spec, a
simulation config, a certification mode, and the initial state, plus flat
metadata echoed into every output header (seeded draws are expanded here
so outputs document the exact parameters they were produced with).

Built-ins: ``relay5`` (five relay plants, full-state linear coupling),
``chua10`` (ten forced double-scrolls, first and third components
coupled), ``kuramoto4`` (four phase oscillators on a ring, sine
coupling), ``ikeda10-linear`` / ``ikeda10-nonlinear`` (ten mismatched
delayed nodes on a seeded random graph), and ``contraction3`` (identical
contracting nodes, the exact-synchronization sanity case).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .certify import (
    CertifyError,
    ChuaCertFamily,
    CouplingSpec,
    PointFamily,
    QuadCertificate,
    _identity_rows,
    _require_common_h,
    certify_upsilon,
    linear_common_bounds,
    linear_hetero_bounds,
    nonlinear_bounds,
    pws_coupling,
    quad_linear_cert,
)
from .dynamics import (
    ChuaParams,
    IkedaParams,
    KuramotoParams,
    RelayParams,
    chua_field,
    decay_field,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
)
from .graph import (
    GraphError,
    Topology,
    build_laplacian,
    complete_topology,
    lambda2,
    load_edge_list,
    random_connected,
    ring_topology,
    topology_from_edges,
)
from .sim import SimConfig, integrate

__all__ = [
    "ConfigError",
    "Scenario",
    "BUILTINS",
    "load_scenario",
    "relay5",
    "chua10",
    "kuramoto4",
    "ikeda10_linear",
    "ikeda10_nonlinear",
    "contraction3",
]

_MODES = ("auto", "thm1", "thm2", "cor1", "thm3", "thm4")
_LINEAR_MODES = ("thm1", "thm2", "cor1")
_NONLINEAR_MODES = ("thm3", "thm4")


class ConfigError(ValueError):
    """Malformed scenario file or unknown scenario name."""


@dataclass(eq=False)
class Scenario:
    name: str
    topo: Topology
    fields: list
    coupling: CouplingSpec
    sim: SimConfig
    x0: np.ndarray
    mode: str = "auto"
    family: Optional[object] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode '{self.mode}' (expected one of {', '.join(_MODES)})")
        if self.mode in _LINEAR_MODES and self.coupling.variant != "linear":
            raise ConfigError(f"mode {self.mode} needs linear coupling")
        if self.mode in _NONLINEAR_MODES and self.coupling.variant != "nonlinear":
            raise ConfigError(f"mode {self.mode} needs nonlinear coupling")
        if len(self.fields) != self.topo.n_nodes:
            raise ConfigError(
                f"{len(self.fields)} node fields for a {self.topo.n_nodes}-node topology"
            )
        dim = self.fields[0].dim
        if any(f.dim != dim for f in self.fields):
            raise ConfigError("all nodes must share one state dimension")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if self.x0.shape != (self.topo.n_nodes * dim,):
            raise ConfigError(
                f"x0 must have {self.topo.n_nodes * dim} entries, got {self.x0.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.fields[0].dim

    def resolved_mode(self) -> str:
        """Pick the certification mode: shared smooth part upgrades the
        heterogeneous modes, full coupling upgrades thm2 to cor1."""
        if self.mode != "auto":
            return self.mode
        try:
            _require_common_h(self.fields)
            common = True
        except CertifyError:
            common = False
        if self.coupling.variant == "linear":
            if not common:
                return "thm1"
            return "cor1" if bool((self.coupling.gamma > 0.0).all()) else "thm2"
        return "thm4" if common else "thm3"

    def certify(self, c: Optional[float] = None):
        """Run the certification pipeline for the resolved mode."""
        mode = self.resolved_mode()
        c_val = float(self.coupling.c if c is None else c)
        if mode == "thm1":
            return linear_hetero_bounds(self.fields, self.topo, self.coupling.gamma, c_val)
        if mode in ("thm2", "cor1"):
            fam = self.family if self.family is not None else _default_point_family(self.fields)
            return linear_common_bounds(
                self.fields, self.topo, self.coupling.gamma, c_val, fam, mode=mode
            )
        return nonlinear_bounds(self.fields, self.topo, self.coupling, self.x0, c_val, mode=mode)

    def simulate(self, config: Optional[SimConfig] = None, c: Optional[float] = None):
        cfg = config if config is not None else self.sim
        coupling = self.coupling if c is None else self.coupling.with_gain(c)
        return integrate(self.fields, self.topo, coupling, self.x0, cfg)

    def with_sim(self, **changes) -> "Scenario":
        """Copy with replaced simulation settings (dt, t_end, ...)."""
        return replace(self, sim=replace(self.sim, **changes), meta=dict(self.meta))

    def with_gain(self, c: float) -> "Scenario":
        return replace(self, coupling=self.coupling.with_gain(c), meta=dict(self.meta))


def _default_point_family(fields) -> PointFamily:
    w = _identity_rows(fields).max(axis=0)
    return PointFamily(QuadCertificate(np.ones(w.size), w))


def _kuramoto_nodes(rng: np.random.Generator, n_nodes: int, scale: float):
    """Phase-error nodes whose frequencies are a centred normal draw rescaled
    to max |ω| = scale; returns the fields and their per-node metadata."""
    omega = rng.normal(size=n_nodes)
    omega = omega - omega.mean()
    peak = float(np.abs(omega).max())
    if peak == 0.0:
        raise ConfigError("degenerate frequency draw; pick another seed")
    omega = omega * (scale / peak)
    fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omega]
    return fields, {f"node_{i + 1}_omega": f"{w:.17g}" for i, w in enumerate(omega)}


def _ikeda_nodes(rng: np.random.Generator, n_nodes: int, base, mismatch: float):
    """Ikeda nodes with (a, b, tau) = base + uniform(−mismatch, mismatch) per
    node (no draw when mismatch ≤ 0); returns the fields and their metadata."""
    if mismatch > 0:
        spread = rng.uniform(-mismatch, mismatch, size=(3, n_nodes))
    else:
        spread = np.zeros((3, n_nodes))
    a, b, tau = (base_k + row for base_k, row in zip(base, spread))
    fields = [ikeda_field(IkedaParams(a[i], b[i], tau[i])) for i in range(n_nodes)]
    meta = {
        f"node_{i + 1}": f"a={a[i]:.17g} b={b[i]:.17g} tau={tau[i]:.17g}"
        for i in range(n_nodes)
    }
    return fields, meta


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

_RELAY_EDGES = ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
_IKEDA_GRAPH_SEED = 8
_IKEDA_GRAPH_P = 0.45


def relay5(seed: int = 0) -> Scenario:
    """Five relay-feedback plants, full-state linear coupling at gain 50."""
    topo = topology_from_edges(5, _RELAY_EDGES)
    params = RelayParams()
    node = relay_field(params)
    fields = [node] * 5
    coupling = CouplingSpec("linear", c=50.0, gamma=np.ones(3), label="full-state linear")
    family = PointFamily(quad_linear_cert(np.asarray(params.a_matrix, dtype=float)))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=15)
    meta = {
        "scenario": "relay5",
        "seed": seed,
        "graph": "fixed 5-node, 8 unit edges",
        "node_family": "relay(A fixed, B=(1,-2,1), C=(1,0,0))",
        "x0_draw": "normal(0,1)",
    }
    return Scenario(
        name="relay5", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-5, t_end=0.2, tail_fraction=0.25,
                      regularization_width=1e-4, seed=seed),
        x0=x0, mode="cor1", family=family, meta=meta,
    )


def chua10(seed: int = 0) -> Scenario:
    """Ten forced double-scroll circuits; components 1 and 3 coupled at gain 10.

    The seeded random graph is rescaled so its algebraic connectivity is
    exactly 2.22 (documented normalization; the certification target is
    defined on that connectivity).
    """
    raw = random_connected(10, 0.35, seed)
    lam_raw = lambda2(build_laplacian(raw))
    scale = 2.22 / lam_raw
    topo = raw.scaled(scale)
    params = ChuaParams()
    fields = [chua_field(params, i, 10) for i in range(10)]
    coupling = CouplingSpec(
        "linear", c=10.0, gamma=np.array([1.0, 0.0, 1.0]), label="components 1 and 3"
    )
    rng = np.random.default_rng(seed)
    x0 = 0.5 * rng.normal(size=30)
    meta = {
        "scenario": "chua10",
        "seed": seed,
        "graph": f"random_connected(10, 0.35, seed={seed}) scaled by {scale:.17g}",
        "lambda2": 2.22,
        "node_family": "chua(alpha=10, beta=17.3, slopes -1.34/-0.73)",
        "forcing_phases": "node i gets i*pi/10",
        "x0_draw": "0.5*normal(0,1)",
    }
    return Scenario(
        name="chua10", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-3, t_end=30.0, tail_fraction=0.25, seed=seed),
        x0=x0, mode="thm2", family=ChuaCertFamily(), meta=meta,
    )


def kuramoto4(seed: int = 0) -> Scenario:
    """Four phase oscillators on a ring with sine coupling at c = 0.75.

    Frequencies are a centered standard-normal draw rescaled so the
    largest detuning magnitude is 0.316; phases start inside the sector
    validity region (initial error capped at 0.45 < π/6).
    """
    topo = ring_topology(4)
    rng = np.random.default_rng(seed)
    fields, node_meta = _kuramoto_nodes(rng, 4, 0.316)
    e_max = math.pi / 3.0
    ups = certify_upsilon(np.sin, e_max, dim=1)
    coupling = CouplingSpec(
        "nonlinear", c=0.75, eta=np.sin, upsilon=ups, e_max=e_max, label="sin"
    )
    x0 = rng.uniform(-0.3, 0.3, size=4)
    x0 = x0 - x0.mean()
    norm = float(np.linalg.norm(x0))
    if norm > 0.45:
        x0 = x0 * (0.45 / norm)
    meta = {
        "scenario": "kuramoto4",
        "seed": seed,
        "graph": "ring of 4, unit weights",
        "omega_scaling": "centered normal draw scaled to max |omega| = 0.316",
        "x0_draw": "centered uniform(-0.3, 0.3), error norm capped at 0.45",
        **node_meta,
    }
    return Scenario(
        name="kuramoto4", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-3, t_end=40.0, tail_fraction=0.25, seed=seed),
        x0=x0, mode="thm4", meta=meta,
    )


def _ikeda_core(seed: int):
    topo = random_connected(10, _IKEDA_GRAPH_P, _IKEDA_GRAPH_SEED)
    rng = np.random.default_rng(seed)
    fields, node_meta = _ikeda_nodes(rng, 10, (1.0, 4.0, 2.0), 0.25)
    x0 = rng.normal(size=10)
    meta = {
        "seed": seed,
        "graph": f"random_connected(10, {_IKEDA_GRAPH_P}, seed={_IKEDA_GRAPH_SEED}) (fixed graph seed)",
        "mismatch": "a,b,tau = 1,4,2 + uniform(-0.25, 0.25) per node",
        "x0_draw": "normal(0,1)",
        **node_meta,
    }
    return topo, fields, x0, meta


def ikeda10_linear(seed: int = 0) -> Scenario:
    """Ten mismatched delayed nodes, scalar linear coupling at gain 20."""
    topo, fields, x0, meta = _ikeda_core(seed)
    meta = {"scenario": "ikeda10-linear", **meta}
    coupling = CouplingSpec("linear", c=20.0, gamma=np.ones(1), label="scalar linear")
    return Scenario(
        name="ikeda10-linear", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-3, t_end=15.0, tail_fraction=0.25, seed=seed),
        x0=x0, mode="thm1", meta=meta,
    )


def ikeda10_nonlinear(seed: int = 0) -> Scenario:
    """Same nodes and draws as ikeda10-linear under the piecewise odd coupling."""
    topo, fields, x0, meta = _ikeda_core(seed)
    meta = {
        "scenario": "ikeda10-nonlinear",
        **meta,
        "sector_note": "sector bound certified on finite probe radius 100 (e_max infinite)",
    }
    ups = certify_upsilon(pws_coupling, math.inf, dim=1, probe_radius=100.0)
    coupling = CouplingSpec(
        "nonlinear", c=20.0, eta=pws_coupling, upsilon=ups,
        e_max=math.inf, label="piecewise odd",
    )
    return Scenario(
        name="ikeda10-nonlinear", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-3, t_end=15.0, tail_fraction=0.25, seed=seed),
        x0=x0, mode="thm3", meta=meta,
    )


def contraction3(seed: int = 0) -> Scenario:
    """Three identical contracting nodes on a triangle; the error must
    vanish (no mismatch, so the certified residual is exactly zero)."""
    topo = complete_topology(3)
    node = decay_field(1.0)
    fields = [node] * 3
    coupling = CouplingSpec("linear", c=1.0, gamma=np.ones(1), label="scalar linear")
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=3)
    meta = {
        "scenario": "contraction3",
        "seed": seed,
        "graph": "triangle, unit weights",
        "node_family": "identical linear decay, no bounded part",
        "x0_draw": "normal(0,1)",
    }
    return Scenario(
        name="contraction3", topo=topo, fields=fields, coupling=coupling,
        sim=SimConfig(dt=1e-3, t_end=15.0, tail_fraction=0.25, seed=seed),
        x0=x0, mode="thm1", meta=meta,
    )


BUILTINS = {
    "relay5": relay5,
    "chua10": chua10,
    "kuramoto4": kuramoto4,
    "ikeda10-linear": ikeda10_linear,
    "ikeda10-nonlinear": ikeda10_nonlinear,
    "contraction3": contraction3,
}


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SCHEMA = {
    "scenario": {"name", "mode"},
    "topology": {"source", "path", "n", "p", "seed", "weight", "rescale_lambda2"},
    "nodes": {
        "family", "seed", "a", "b", "tau", "mismatch",
        "alpha", "beta", "slope_a", "slope_b",
        "m_override", "omega_scale", "rate",
    },
    "coupling": {"variant", "c", "gamma", "eta", "e_max", "grid"},
    "init": {"kind", "scale", "low", "high", "center", "cap_norm", "seed"},
    "sim": {"dt", "t_end", "tail_fraction", "regularization_width", "divergence_threshold"},
}

_ETA_FUNCTIONS = {"sin": np.sin, "pws": pws_coupling}


def _validate_schema(parser: configparser.ConfigParser, path: Path):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
    for required in ("topology", "nodes", "coupling"):
        if required not in parser:
            raise ConfigError(f"{path}: missing required section [{required}]")


def _get(parser, section, key, default=None, required=False):
    if section in parser and key in parser[section]:
        return parser[section][key]
    if required:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return default


def _as_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got '{raw}'") from exc


def _as_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got '{raw}'") from exc


def _as_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got '{raw}'")


def _section_seed(parser, section, global_seed) -> int:
    raw = _get(parser, section, "seed")
    if raw is not None:
        return _as_int(raw, f"[{section}] seed")
    return 0 if global_seed is None else int(global_seed)


def _config_topology(parser, path, global_seed) -> Topology:
    source = _get(parser, "topology", "source", required=True)
    if source == "edgelist":
        graph_path = _get(parser, "topology", "path", required=True)
        resolved = (path.parent / graph_path) if not Path(graph_path).is_absolute() else Path(graph_path)
        topo = load_edge_list(resolved)
    elif source in ("ring", "complete", "random"):
        n = _as_int(_get(parser, "topology", "n", required=True), "[topology] n")
        if source == "ring":
            weight = _as_float(_get(parser, "topology", "weight", "1.0"), "[topology] weight")
            topo = ring_topology(n, weight)
        elif source == "complete":
            weight = _as_float(_get(parser, "topology", "weight", "1.0"), "[topology] weight")
            topo = complete_topology(n, weight)
        else:
            p = _as_float(_get(parser, "topology", "p", required=True), "[topology] p")
            topo = random_connected(n, p, _section_seed(parser, "topology", global_seed))
    else:
        raise ConfigError(f"[topology] source must be ring|complete|random|edgelist, got '{source}'")
    target = _get(parser, "topology", "rescale_lambda2")
    if target is not None:
        goal = _as_float(target, "[topology] rescale_lambda2")
        if goal <= 0.0:
            raise ConfigError("[topology] rescale_lambda2 must be positive")
        topo = topo.scaled(goal / lambda2(build_laplacian(topo)))
    return topo


def _config_nodes(parser, n_nodes, global_seed):
    family = _get(parser, "nodes", "family", required=True)
    seed = _section_seed(parser, "nodes", global_seed)
    try:
        fields, fam, node_meta = _family_nodes(parser, family, n_nodes, seed)
    except ConfigError:
        raise
    except ValueError as exc:  # a family builder rejected a parameter value
        raise ConfigError(f"[nodes] {exc}") from exc
    return fields, fam, {"node_family": family, **node_meta}


def _family_nodes(parser, family, n_nodes, seed):
    if family == "ikeda":
        base = [
            _as_float(_get(parser, "nodes", k, d), f"[nodes] {k}")
            for k, d in (("a", "1.0"), ("b", "4.0"), ("tau", "2.0"))
        ]
        mism = _as_float(_get(parser, "nodes", "mismatch", "0.0"), "[nodes] mismatch")
        fields, meta = _ikeda_nodes(np.random.default_rng(seed), n_nodes, base, mism)
        return fields, None, meta
    if family == "chua":
        p = ChuaParams(
            alpha=_as_float(_get(parser, "nodes", "alpha", "10.0"), "[nodes] alpha"),
            beta=_as_float(_get(parser, "nodes", "beta", "17.30"), "[nodes] beta"),
            slope_a=_as_float(_get(parser, "nodes", "slope_a", "-1.34"), "[nodes] slope_a"),
            slope_b=_as_float(_get(parser, "nodes", "slope_b", "-0.73"), "[nodes] slope_b"),
        )
        fields = [chua_field(p, i, n_nodes) for i in range(n_nodes)]
        fam = ChuaCertFamily(p.alpha, p.beta, p.slope_a, p.slope_b)
        meta = {
            "node_params": f"alpha={p.alpha:g} beta={p.beta:g} slopes {p.slope_a:g}/{p.slope_b:g}"
        }
        return fields, fam, meta
    if family == "relay":
        override_raw = _get(parser, "nodes", "m_override")
        override = _as_float(override_raw, "[nodes] m_override") if override_raw else None
        p = RelayParams(m_override=override)
        node = relay_field(p)
        fam = PointFamily(quad_linear_cert(np.asarray(p.a_matrix, dtype=float)))
        return [node] * n_nodes, fam, {}
    if family == "kuramoto":
        scale = _as_float(_get(parser, "nodes", "omega_scale", "0.316"), "[nodes] omega_scale")
        fields, meta = _kuramoto_nodes(np.random.default_rng(seed), n_nodes, scale)
        return fields, None, meta
    if family == "decay":
        rate = _as_float(_get(parser, "nodes", "rate", "1.0"), "[nodes] rate")
        return [decay_field(rate)] * n_nodes, None, {}
    raise ConfigError(
        f"[nodes] family must be ikeda|chua|relay|kuramoto|decay, got '{family}'"
    )


def _config_coupling(parser, dim):
    variant = _get(parser, "coupling", "variant", required=True)
    c = _as_float(_get(parser, "coupling", "c", required=True), "[coupling] c")
    if variant == "linear":
        raw = _get(parser, "coupling", "gamma", required=True)
        gamma = np.array([_as_float(v, "[coupling] gamma") for v in raw.split(",")])
        if gamma.shape != (dim,):
            raise ConfigError(f"[coupling] gamma needs {dim} comma-separated entries")
        return CouplingSpec("linear", c=c, gamma=gamma, label="linear")
    if variant == "nonlinear":
        eta_name = _get(parser, "coupling", "eta", required=True)
        if eta_name not in _ETA_FUNCTIONS:
            raise ConfigError(f"[coupling] eta must be one of {sorted(_ETA_FUNCTIONS)}")
        raw_emax = _get(parser, "coupling", "e_max", "inf")
        e_max = math.inf if raw_emax.strip().lower() == "inf" else _as_float(raw_emax, "[coupling] e_max")
        grid = _as_int(_get(parser, "coupling", "grid", "4096"), "[coupling] grid")
        ups = certify_upsilon(_ETA_FUNCTIONS[eta_name], e_max, grid_points=grid, dim=dim)
        return CouplingSpec(
            "nonlinear", c=c, eta=_ETA_FUNCTIONS[eta_name],
            upsilon=ups, e_max=e_max, label=eta_name,
        )
    raise ConfigError(f"[coupling] variant must be linear|nonlinear, got '{variant}'")


def _config_init(parser, size, global_seed) -> np.ndarray:
    kind = _get(parser, "init", "kind", "normal")
    seed = _section_seed(parser, "init", global_seed)
    rng = np.random.default_rng(seed)
    if kind == "normal":
        scale = _as_float(_get(parser, "init", "scale", "1.0"), "[init] scale")
        x0 = scale * rng.normal(size=size)
    elif kind == "uniform":
        low = _as_float(_get(parser, "init", "low", "-1.0"), "[init] low")
        high = _as_float(_get(parser, "init", "high", "1.0"), "[init] high")
        if high <= low:
            raise ConfigError("[init] high must exceed low")
        x0 = rng.uniform(low, high, size=size)
    elif kind == "zero":
        x0 = np.zeros(size)
    else:
        raise ConfigError(f"[init] kind must be normal|uniform|zero, got '{kind}'")
    center_raw = _get(parser, "init", "center")
    if center_raw is not None and _as_bool(center_raw, "[init] center"):
        x0 = x0 - x0.mean()
    cap_raw = _get(parser, "init", "cap_norm")
    if cap_raw is not None:
        cap = _as_float(cap_raw, "[init] cap_norm")
        norm = float(np.linalg.norm(x0))
        if norm > cap > 0.0:
            x0 = x0 * (cap / norm)
    return x0


def _load_config(path: Path, global_seed) -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read scenario file {path}")
    _validate_schema(parser, path)

    topo = _config_topology(parser, path, global_seed)
    fields, family, node_meta = _config_nodes(parser, topo.n_nodes, global_seed)
    coupling = _config_coupling(parser, fields[0].dim)
    x0 = _config_init(parser, topo.n_nodes * fields[0].dim, global_seed)

    sim_kwargs = {}
    for key in ("dt", "t_end", "tail_fraction", "regularization_width", "divergence_threshold"):
        raw = _get(parser, "sim", key)
        if raw is not None:
            sim_kwargs[key] = _as_float(raw, f"[sim] {key}")
    sim_cfg = SimConfig(seed=0 if global_seed is None else int(global_seed), **sim_kwargs)

    name = _get(parser, "scenario", "name", path.stem)
    mode = _get(parser, "scenario", "mode", "auto")
    meta = {"scenario": name, "source_file": path.name, **node_meta}
    return Scenario(
        name=name, topo=topo, fields=fields, coupling=coupling, sim=sim_cfg,
        x0=x0, mode=mode, family=family, meta=meta,
    )


def load_scenario(spec: str, seed: Optional[int] = None) -> Scenario:
    """Resolve a built-in name or a scenario-file path into a Scenario."""
    if spec in BUILTINS:
        return BUILTINS[spec](seed=0 if seed is None else int(seed))
    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(BUILTINS))
        raise ConfigError(f"unknown scenario '{spec}': not a built-in ({known}) and not a file")
    return _load_config(path, seed)
