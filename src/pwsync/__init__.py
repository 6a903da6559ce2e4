"""Certified synchronization bounds for networks of coupled
piecewise-smooth systems.

The package splits into these layers: ``graph`` (weighted topologies and
algebraic connectivity), ``dynamics`` (per-node vector fields split into
a smooth part and a bounded remainder), ``families`` (certificate
families and the margin arithmetic they are scored by), ``certify``
(one-sided sector/metric certificates, coupling thresholds, residual
error bounds), ``scenarios`` (the built-ins and the scenario-file
loader), ``sim`` (fixed-step integration, error diagnostics, gain
sweeps, CSV output) with its step forms in ``affine`` and its stage
triples in ``sparse``, and ``cli`` (the ``pwsync`` command).  The
package namespace re-exports the names the README's Library section
uses, plus the error classes; every other name is importable from its
submodule.

``import pwsync`` loads ``linalg``, ``dynamics``, ``graph``,
``families``, ``certify`` and ``scenarios`` only.  The integrator
(``sim`` with ``affine``, ``sparse`` and ``csvformat``) loads on first
use: on the first ``Scenario.simulate()``, or the first read of
``integrate``, ``error_series``, ``steady_state_eps`` or
``sweep_coupling`` here.  ``SimConfig`` and ``SimError`` live in
``scenarios``, which the loader needs, and are importable from
``pwsync.sim`` too.
"""

from .certify import (
    BoundReport,
    Certification,
    CertifyError,
    ChuaCertFamily,
    PointFamily,
    QuadCertificate,
    certify_upsilon,
    check_quad_sampled,
    quad_linear_cert,
)
from .dynamics import (
    AffineDecomposedField,
    chua_field,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
)
from .graph import GraphError, Topology, build_laplacian, lambda2, random_connected
from .scenarios import BUILTINS, ConfigError, Scenario, SimError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AffineDecomposedField",
    "BoundReport",
    "BUILTINS",
    "Certification",
    "CertifyError",
    "ChuaCertFamily",
    "ConfigError",
    "GraphError",
    "PointFamily",
    "QuadCertificate",
    "Scenario",
    "SimError",
    "Topology",
    "build_laplacian",
    "certify_upsilon",
    "check_quad_sampled",
    "chua_field",
    "error_series",
    "ikeda_field",
    "integrate",
    "kuramoto_error_field",
    "lambda2",
    "load_scenario",
    "quad_linear_cert",
    "random_connected",
    "relay_field",
    "steady_state_eps",
    "sweep_coupling",
    "__version__",
]

# served from ``sim`` on first read, so that the import loads no integrator
_LAZY = frozenset({"error_series", "integrate", "steady_state_eps", "sweep_coupling"})


def __getattr__(name):
    if name in _LAZY:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
