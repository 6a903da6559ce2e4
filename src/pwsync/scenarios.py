"""Scenarios: the built-ins and the scenario-file loader.

A scenario bundles a topology, one field per node, a coupling spec, a
simulation config, a certification mode, and the initial state, plus flat
metadata echoed into every output header (seeded draws are expanded here
so outputs document the exact parameters they were produced with).
:meth:`Scenario.certify` and :meth:`Scenario.simulate` take no arguments:
a scenario's gain is changed by :meth:`Scenario.with_gain` and its
simulation settings by :meth:`Scenario.with_sim`.  A scenario names its
mode; ``certify`` checks it and resolves ``auto``.
:meth:`Scenario.certification` builds the scenario's
:class:`certify.Certification` (λ₂, certificates, ball, c̃) once, and
:meth:`Scenario.certify` evaluates it at the scenario's gain, as
``sweep_coupling`` does at every gain of its grid.  The ``[sim]``
settings are a :class:`SimConfig`, which raises :class:`SimError` on bad
values; both live here, beside the loader, so that loading a scenario
loads no integrator: :meth:`Scenario.simulate` imports :mod:`pwsync.sim`
when it is called.

A built-in is scenario data: ``BUILTINS`` maps each name to the sections
and string values of a scenario file, and ``load_scenario`` builds it by
the same code that builds a file.  The built-ins are ``relay5`` (five relay
plants, full-state linear coupling), ``chua10`` (ten forced double-scrolls,
first and third components coupled), ``kuramoto4`` (four phase oscillators
on a ring, sine coupling), ``ikeda10-linear`` / ``ikeda10-nonlinear`` (ten
mismatched delayed nodes on a fixed random graph), and ``contraction3``
(identical contracting nodes, the exact-synchronization sanity case).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .certify import (
    Certification,
    CertifyError,
    CouplingSpec,
    certify_upsilon,
    pws_coupling,
    resolve_mode,
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
    Topology,
    build_laplacian,
    complete_topology,
    lambda2,
    load_edge_list,
    parse_edge_list,
    random_connected,
    ring_topology,
)

__all__ = [
    "ConfigError",
    "SimError",
    "SimConfig",
    "Scenario",
    "BUILTINS",
    "load_scenario",
]


class ConfigError(ValueError):
    """Malformed scenario file or unknown scenario name."""


class SimError(ValueError):
    """Invalid simulation configuration or post-processing request."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; ``t_end`` must cover at least ten steps.

    ``regularization_width`` = 0 keeps the exact sign function (value 0 on
    the switching set); positive values saturate linearly inside the
    layer.
    """

    dt: float = 1e-3
    t_end: float = 10.0
    tail_fraction: float = 0.25
    regularization_width: float = 0.0
    divergence_threshold: float = 1e12

    def __post_init__(self):
        for f in dataclass_fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise SimError(f"{f.name} must be finite")
        if self.dt <= 0.0:
            raise SimError("dt must be positive")
        if self.t_end < 10.0 * self.dt:
            raise SimError("t_end must cover at least ten steps")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise SimError("tail_fraction must lie in (0, 1]")
        if self.regularization_width < 0.0:
            raise SimError("regularization_width must be nonnegative")
        if self.divergence_threshold <= 0.0:
            raise SimError("divergence_threshold must be positive")


@dataclass(eq=False)
class Scenario:
    name: str
    topo: Topology
    fields: list
    coupling: CouplingSpec
    sim: SimConfig
    x0: np.ndarray
    mode: str = "auto"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
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
        try:
            self.resolved_mode()
        except CertifyError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def dim(self) -> int:
        return self.fields[0].dim

    def resolved_mode(self) -> str:
        """The certification mode, as :func:`certify.resolve_mode` picks it."""
        return resolve_mode(self.mode, self.fields, self.coupling)

    def certification(self) -> Certification:
        """The scenario's :class:`Certification`, built once for every gain."""
        return Certification(self.fields, self.topo, self.coupling, self.x0, self.mode)

    def certify(self):
        """The certification report for the resolved mode at the scenario's gain."""
        return self.certification().at(self.coupling.c)

    def simulate(self):
        """Integrate the scenario at its gain with its ``sim`` settings."""
        from .sim import integrate

        return integrate(self.fields, self.topo, self.coupling, self.x0, self.sim)

    def with_sim(self, **changes) -> "Scenario":
        """Copy with replaced simulation settings (dt, t_end, ...)."""
        return replace(self, sim=replace(self.sim, **changes), meta=dict(self.meta))

    def with_gain(self, c: float) -> "Scenario":
        return replace(self, coupling=self.coupling.with_gain(c), meta=dict(self.meta))


# ---------------------------------------------------------------------------
# built-in scenarios, written in the scenario-file keys
# ---------------------------------------------------------------------------

# The ikeda10 graph seed is fixed; the scenario seed redraws the mismatch and x0.
_IKEDA10 = {
    "topology": {"source": "random", "n": "10", "p": "0.45", "seed": "8"},
    "nodes": {"family": "ikeda", "a": "1", "b": "4", "tau": "2", "mismatch": "0.25"},
    "sim": {"dt": "1e-3", "t_end": "15"},
}

BUILTINS = {
    "relay5": {
        "scenario": {"mode": "cor1"},
        "topology": {"source": "edgelist", "edges": "0 1, 0 3, 0 4, 1 2, 1 3, 1 4, 2 3, 3 4"},
        "nodes": {"family": "relay"},
        "coupling": {"variant": "linear", "c": "50", "gamma": "1,1,1"},
        "sim": {"dt": "1e-5", "t_end": "0.2", "regularization_width": "1e-4"},
    },
    # The seeded random graph is rescaled to algebraic connectivity 2.22,
    # the value the certification target is defined on.
    "chua10": {
        "scenario": {"mode": "thm2"},
        "topology": {"source": "random", "n": "10", "p": "0.35", "rescale_lambda2": "2.22"},
        "nodes": {"family": "chua"},
        "coupling": {"variant": "linear", "c": "10", "gamma": "1,0,1"},
        "init": {"kind": "normal", "scale": "0.5"},
        "sim": {"dt": "1e-3", "t_end": "30"},
    },
    # e_max = pi/3; the initial error norm is capped at 0.45 < pi/6.
    "kuramoto4": {
        "scenario": {"mode": "thm4"},
        "topology": {"source": "ring", "n": "4"},
        "nodes": {"family": "kuramoto", "omega_scale": "0.316"},
        "coupling": {"variant": "nonlinear", "c": "0.75", "eta": "sin",
                     "e_max": "1.0471975511965976"},
        "init": {"kind": "uniform", "low": "-0.3", "high": "0.3",
                 "center": "true", "cap_norm": "0.45"},
        "sim": {"dt": "1e-3", "t_end": "40"},
    },
    "ikeda10-linear": {
        "scenario": {"mode": "thm1"},
        **_IKEDA10,
        "coupling": {"variant": "linear", "c": "20", "gamma": "1"},
    },
    "ikeda10-nonlinear": {
        "scenario": {"mode": "thm3"},
        **_IKEDA10,
        "coupling": {"variant": "nonlinear", "c": "20", "eta": "pws", "e_max": "inf"},
    },
    "contraction3": {
        "scenario": {"mode": "thm1"},
        "topology": {"source": "complete", "n": "3"},
        "nodes": {"family": "decay", "rate": "1"},
        "coupling": {"variant": "linear", "c": "1", "gamma": "1"},
        "sim": {"dt": "1e-3", "t_end": "15"},
    },
}


# ---------------------------------------------------------------------------
# the loader, shared by built-ins and scenario files
# ---------------------------------------------------------------------------

# The [nodes] keys of each family, beside 'family' and 'seed', with their defaults.
_NODE_KEYS = {
    "ikeda": {"a": IkedaParams.a, "b": IkedaParams.b, "tau": IkedaParams.tau, "mismatch": 0.0},
    "chua": {key: getattr(ChuaParams, key) for key in ("alpha", "beta", "slope_a", "slope_b")},
    "relay": {"m_override": RelayParams.m_override},
    "kuramoto": {"omega_scale": 0.316},
    "decay": {"rate": 1.0},
}

_SCHEMA = {
    "scenario": {"name", "mode"},
    "topology": {"source", "path", "edges", "n", "p", "seed", "weight", "rescale_lambda2"},
    "nodes": {"family", "seed"}.union(*_NODE_KEYS.values()),
    "coupling": {"variant", "c", "gamma", "eta", "e_max"},
    "init": {"kind", "scale", "low", "high", "center", "cap_norm", "seed"},
    "sim": {f.name for f in dataclass_fields(SimConfig)},
}

_ETA_FUNCTIONS = {"sin": np.sin, "pws": pws_coupling}


def _validate_schema(cfg: dict, where):
    for section, keys in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{where}: unknown section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{where}: unknown key '{key}' in section [{section}]")
    for required in ("topology", "nodes", "coupling"):
        if required not in cfg:
            raise ConfigError(f"{where}: missing required section [{required}]")


def _one_line(text: str, where: str) -> str:
    """``text``, refused if it holds a line break or another control
    character: it goes into the '# key = value' lines of every output."""
    if any(ord(ch) < 32 or 127 <= ord(ch) < 160 or ch in "\u2028\u2029" for ch in text):
        raise ConfigError(f"{where} {text!r} holds a line break or another control character")
    return text


def _get(cfg, section, key, default=None, required=False):
    value = cfg.get(section, {}).get(key)
    if value is not None:
        return value
    if required:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return default


def _as_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got '{raw}'") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got '{raw}'")
    return value


def _as_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got '{raw}'") from exc


def _as_seed(raw, where: str) -> int:
    """A seed: a nonnegative integer, as NumPy's generators take it."""
    seed = _as_int(raw, where) if isinstance(raw, str) else int(raw)
    if seed < 0:
        raise ConfigError(f"{where}: expected a nonnegative integer, got {seed}")
    return seed


def _as_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got '{raw}'")


def _section_rng(cfg, section, shared: np.random.Generator) -> np.random.Generator:
    """A generator of the section's own ``seed``, else the shared stream."""
    raw = _get(cfg, section, "seed")
    if raw is None:
        return shared
    return np.random.default_rng(_as_seed(raw, f"[{section}] seed"))


def _edge_list(cfg, path: Optional[Path]) -> Topology:
    graph_path = _get(cfg, "topology", "path")
    edges = _get(cfg, "topology", "edges")
    if (graph_path is None) == (edges is None):
        raise ConfigError("[topology] source = edgelist takes exactly one of 'path' or 'edges'")
    if edges is not None:
        return parse_edge_list(edges, "[topology] edges")
    resolved = Path(graph_path)
    if path is not None and not resolved.is_absolute():
        resolved = path.parent / resolved
    return load_edge_list(resolved)


def _config_topology(cfg, path, seed: int) -> Topology:
    source = _get(cfg, "topology", "source", required=True)
    if source == "edgelist":
        topo = _edge_list(cfg, path)
    elif source in ("ring", "complete", "random"):
        n = _as_int(_get(cfg, "topology", "n", required=True), "[topology] n")
        if source == "ring":
            weight = _as_float(_get(cfg, "topology", "weight", "1.0"), "[topology] weight")
            topo = ring_topology(n, weight)
        elif source == "complete":
            weight = _as_float(_get(cfg, "topology", "weight", "1.0"), "[topology] weight")
            topo = complete_topology(n, weight)
        else:
            p = _as_float(_get(cfg, "topology", "p", required=True), "[topology] p")
            raw_seed = _get(cfg, "topology", "seed")
            graph_seed = seed if raw_seed is None else _as_seed(raw_seed, "[topology] seed")
            topo = random_connected(n, p, graph_seed)
    else:
        raise ConfigError(f"[topology] source must be ring|complete|random|edgelist, got '{source}'")
    target = _get(cfg, "topology", "rescale_lambda2")
    if target is not None:
        goal = _as_float(target, "[topology] rescale_lambda2")
        if goal <= 0.0:
            raise ConfigError("[topology] rescale_lambda2 must be positive")
        topo = topo.scaled(goal / lambda2(build_laplacian(topo)))
    return topo


def _config_nodes(cfg, n_nodes, rng):
    family = _get(cfg, "nodes", "family", required=True)
    rng = _section_rng(cfg, "nodes", rng)
    if family not in _NODE_KEYS:
        raise ConfigError(f"[nodes] family must be {'|'.join(_NODE_KEYS)}, got '{family}'")
    values = {}
    for key, default in _NODE_KEYS[family].items():
        raw = _get(cfg, "nodes", key)
        # an optional key (default None) left empty stays unset
        unset = raw is None or (default is None and raw == "")
        values[key] = default if unset else _as_float(raw, f"[nodes] {key}")
    foreign = sorted(set(cfg["nodes"]) - {"family", "seed"} - set(values))
    if foreign:
        raise ConfigError(f"[nodes] key '{foreign[0]}' does not apply to family {family}")
    try:
        fields, node_meta = _family_nodes(family, values, n_nodes, rng)
    except ConfigError:
        raise
    except ValueError as exc:  # a family builder rejected a parameter value
        raise ConfigError(f"[nodes] {exc}") from exc
    return fields, {"node_family": family, **node_meta}


def _family_nodes(family, values, n_nodes, rng):
    """The fields of ``n_nodes`` nodes of ``family`` with [nodes] ``values``,
    and the metadata that records their draws."""
    if family == "ikeda":
        # (a, b, tau) = base + uniform(-mismatch, mismatch) per node; no draw without mismatch
        mism = values["mismatch"]
        if mism > 0:
            spread = rng.uniform(-mism, mism, size=(3, n_nodes))
        else:
            spread = np.zeros((3, n_nodes))
        a, b, tau = (values[key] + row for key, row in zip(("a", "b", "tau"), spread))
        fields = [ikeda_field(IkedaParams(a[i], b[i], tau[i])) for i in range(n_nodes)]
        meta = {
            f"node_{i + 1}": f"a={a[i]:.17g} b={b[i]:.17g} tau={tau[i]:.17g}"
            for i in range(n_nodes)
        }
        return fields, meta
    if family == "chua":
        p = ChuaParams(**values)
        fields = [chua_field(p, i, n_nodes) for i in range(n_nodes)]
        meta = {
            "node_params": f"alpha={p.alpha:g} beta={p.beta:g} slopes {p.slope_a:g}/{p.slope_b:g}"
        }
        return fields, meta
    if family == "relay":
        return [relay_field(RelayParams(**values))] * n_nodes, {}
    if family == "kuramoto":
        # a centred normal draw rescaled to max |omega| = omega_scale
        omega = rng.normal(size=n_nodes)
        omega = omega - omega.mean()
        peak = float(np.abs(omega).max())
        if peak == 0.0:
            raise ConfigError("degenerate frequency draw; pick another seed")
        omega = omega * (values["omega_scale"] / peak)
        fields = [kuramoto_error_field(KuramotoParams(w), 0.0) for w in omega]
        return fields, {f"node_{i + 1}_omega": f"{w:.17g}" for i, w in enumerate(omega)}
    return [decay_field(values["rate"])] * n_nodes, {}


def _config_coupling(cfg, dim):
    variant = _get(cfg, "coupling", "variant", required=True)
    c = _as_float(_get(cfg, "coupling", "c", required=True), "[coupling] c")
    if variant == "linear":
        raw = _get(cfg, "coupling", "gamma", required=True)
        gamma = np.array([_as_float(v, "[coupling] gamma") for v in raw.split(",")])
        if gamma.shape != (dim,):
            raise ConfigError(f"[coupling] gamma needs {dim} comma-separated entries")
        return CouplingSpec("linear", c=c, gamma=gamma, label="linear")
    if variant == "nonlinear":
        eta_name = _get(cfg, "coupling", "eta", required=True)
        if eta_name not in _ETA_FUNCTIONS:
            raise ConfigError(f"[coupling] eta must be one of {sorted(_ETA_FUNCTIONS)}")
        raw_emax = _get(cfg, "coupling", "e_max", "inf")
        e_max = math.inf if raw_emax.strip().lower() == "inf" else _as_float(raw_emax, "[coupling] e_max")
        eta = _ETA_FUNCTIONS[eta_name]
        ups = certify_upsilon(eta, e_max, dim=dim)
        return CouplingSpec("nonlinear", c=c, eta=eta, upsilon=ups, e_max=e_max, label=eta_name)
    raise ConfigError(f"[coupling] variant must be linear|nonlinear, got '{variant}'")


def _config_init(cfg, size, rng) -> np.ndarray:
    kind = _get(cfg, "init", "kind", "normal")
    rng = _section_rng(cfg, "init", rng)
    if kind == "normal":
        scale = _as_float(_get(cfg, "init", "scale", "1.0"), "[init] scale")
        x0 = scale * rng.normal(size=size)
    elif kind == "uniform":
        low = _as_float(_get(cfg, "init", "low", "-1.0"), "[init] low")
        high = _as_float(_get(cfg, "init", "high", "1.0"), "[init] high")
        if high <= low:
            raise ConfigError("[init] high must exceed low")
        if not math.isfinite(high - low):
            raise ConfigError("[init] high - low must be finite")
        x0 = rng.uniform(low, high, size=size)
    elif kind == "zero":
        x0 = np.zeros(size)
    else:
        raise ConfigError(f"[init] kind must be normal|uniform|zero, got '{kind}'")
    center_raw = _get(cfg, "init", "center")
    if center_raw is not None and _as_bool(center_raw, "[init] center"):
        x0 = x0 - x0.mean()
    cap_raw = _get(cfg, "init", "cap_norm")
    if cap_raw is not None:
        cap = _as_float(cap_raw, "[init] cap_norm")
        if cap <= 0.0:
            raise ConfigError("[init] cap_norm must be positive")
        norm = float(np.linalg.norm(x0))
        if norm > cap:
            x0 = x0 * (cap / norm)
    return x0


def _read_file(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read scenario file {path}")
    return parser


def _build(parser, name: str, seed: Optional[int], path: Optional[Path] = None) -> Scenario:
    """Build the scenario that parsed INI sections describe; ``path`` is the
    file they came from, None for a built-in."""
    cfg = {section: dict(parser[section]) for section in parser.sections()}
    _validate_schema(cfg, path or name)
    source = None if path is None else _one_line(path.name, "scenario file name")
    name = _one_line(_get(cfg, "scenario", "name", name), "[scenario] name")
    seed = 0 if seed is None else _as_seed(seed, "seed")
    # one stream for every section without its own seed: nodes draw first, then init
    rng = np.random.default_rng(seed)

    topo = _config_topology(cfg, path, seed)
    fields, node_meta = _config_nodes(cfg, topo.n_nodes, rng)
    coupling = _config_coupling(cfg, fields[0].dim)
    x0 = _config_init(cfg, topo.n_nodes * fields[0].dim, rng)

    sim_kwargs = {}
    for key in (f.name for f in dataclass_fields(SimConfig)):
        raw = _get(cfg, "sim", key)
        if raw is not None:
            sim_kwargs[key] = _as_float(raw, f"[sim] {key}")
    sim_cfg = SimConfig(**sim_kwargs)

    mode = _get(cfg, "scenario", "mode", "auto")
    meta = {"scenario": name, "seed": seed, **node_meta}
    if source is not None:
        meta["source_file"] = source
    return Scenario(
        name=name, topo=topo, fields=fields, coupling=coupling, sim=sim_cfg,
        x0=x0, mode=mode, meta=meta,
    )


def load_scenario(spec: str, seed: Optional[int] = None) -> Scenario:
    """Resolve a built-in name or a scenario-file path into a Scenario."""
    if spec in BUILTINS:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(BUILTINS[spec])
        return _build(parser, spec, seed)
    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(BUILTINS))
        raise ConfigError(f"unknown scenario '{spec}': not a built-in ({known}) and not a file")
    return _build(_read_file(path), path.stem, seed, path)


def __getattr__(name):
    # the integrator loads on the first simulate; ``integrate`` stays a
    # name of this module (bench/tracing.py patches it) without loading it
    if name == "integrate":
        from .sim import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
