"""Differentially private hierarchical decompositions.

Builds released synopses of spatial point sets (bias-decayed decomposition
trees, fixed-height noisy quadtrees, uniform grids) and of sequence datasets
(private prediction suffix trees), answers range-count and string-frequency
queries over them, and audits sparse-vector-technique variants by exact
probability-ratio computation.
"""

from . import dp_core, evalbench, markov, spatial, svt_audit
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
