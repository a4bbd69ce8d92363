"""Differentially private hierarchical decompositions.

Builds released synopses of spatial point sets (bias-decayed decomposition
trees, fixed-height noisy quadtrees, uniform grids) and of sequence datasets
(private prediction suffix trees), answers range-count and string-frequency
queries over them, and audits sparse-vector-technique variants by exact
probability-ratio computation.
"""

import importlib

from . import dp_core, evalbench, markov, spatial
from .errors import (
    DphierError,
    GenerationError,
    InputDataError,
    ParameterError,
    QuadratureError,
)

__version__ = "0.1.0"

__all__ = [
    "DphierError",
    "GenerationError",
    "InputDataError",
    "ParameterError",
    "QuadratureError",
    "__version__",
    "dp_core",
    "evalbench",
    "markov",
    "spatial",
    "svt_audit",
]


def __getattr__(name):
    # svt_audit imports scipy.integrate, which only the audit needs
    if name == "svt_audit":
        return importlib.import_module(f"{__name__}.svt_audit")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
