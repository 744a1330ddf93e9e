"""Key routing over multiple node-disjoint paths for trusted-node networks.

The package splits into:

- :mod:`qkdroute.model`: graphs, rate matrices, validation
- :mod:`qkdroute.netfile`: the JSON network description format
- :mod:`qkdroute.paths`: disjoint path-set enumeration and the routability test
- :mod:`qkdroute.engine`: the greedy rate-routing loop
- :mod:`qkdroute.tiebreak`: the seeded stream that breaks its ties
- :mod:`qkdroute.keysim`: bit-level key delivery and compromise analysis
- :mod:`qkdroute.artifacts`: reproducible file outputs
- :mod:`qkdroute.cli`: the ``qkdroute`` command
"""

__version__ = "0.1.0"

import importlib

from .model import (
    NetworkGraph,
    RateMatrix,
    RouterConfig,
    ValidationError,
    ValidationReport,
    uniform_target,
    validate,
)
from .netfile import LoadedNetwork, NetworkFormatError, load_network
from .units import UnitScale

# these modules load on first use of one of their names, so that a command
# imports only what it runs; keysim needs numpy, which nothing else here does
_LAZY_NAMES = {
    "engine": {"IterationTrace", "RoutingList", "RoutingOutcome", "RoutingRecord",
               "StopReason", "cost_delta", "run"},
    "paths": {"MPathSet", "Path", "find_unroutable_pairs"},
    "keysim": {"CompromiseReport", "KeySimulation", "assess_compromise",
               "compromise_probability_bound", "simulate"},
}


def __getattr__(name: str) -> object:
    for module, names in _LAZY_NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CompromiseReport",
    "IterationTrace",
    "KeySimulation",
    "LoadedNetwork",
    "MPathSet",
    "NetworkFormatError",
    "NetworkGraph",
    "Path",
    "RateMatrix",
    "RouterConfig",
    "RoutingList",
    "RoutingOutcome",
    "RoutingRecord",
    "StopReason",
    "UnitScale",
    "ValidationError",
    "ValidationReport",
    "assess_compromise",
    "compromise_probability_bound",
    "cost_delta",
    "find_unroutable_pairs",
    "load_network",
    "run",
    "simulate",
    "uniform_target",
    "validate",
]
