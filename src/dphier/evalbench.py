"""Evaluation metrics and workload generation for released synopses.

Workloads mirror the usual range-count benchmark protocol: per size class the
query-box volume covers a fixed fraction band of the domain ([0.01%, 0.1%) for
small, [0.1%, 1%) for medium, [1%, 10%) for large).  Within a class the
volume fraction is drawn log-uniformly; box aspect and position are uniform.
That shape convention is this package's choice, declared here once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError, ParameterError
from .spatial import DecompTree, RangeQuery, SpatialDataset, SpatialDomain, range_counts

__all__ = [
    "EvalReport",
    "SIZE_CLASSES",
    "WorkloadSpec",
    "evaluate_queries",
    "exact_range_count",
    "exact_range_counts",
    "gen_workload",
    "relative_error",
    "topk_precision",
    "total_variation",
]

SIZE_CLASSES = {
    "small": (1e-4, 1e-3),
    "medium": (1e-3, 1e-2),
    "large": (1e-2, 1e-1),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Size class plus query count; ``seed`` is used when no rng is passed."""

    size_class: str
    count: int = 10000
    seed: int | None = None

    def __post_init__(self):
        if self.size_class not in SIZE_CLASSES:
            raise ParameterError(
                f"size_class must be one of {sorted(SIZE_CLASSES)}, got {self.size_class!r}"
            )
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 0):
            raise ParameterError(f"count must be a nonnegative integer, got {self.count!r}")


def gen_workload(domain: SpatialDomain, spec: WorkloadSpec, rng=None):
    """Random axis-aligned query boxes with class-banded coverage.

    Each box's volume fraction is log-uniform within the class band; the
    fraction is split across dimensions by uniform random exponents (aspect),
    and the box is placed uniformly inside the domain.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    lo_frac, hi_frac = SIZE_CLASSES[spec.size_class]
    d = domain.dims
    lo = np.asarray(domain.lo)
    span = np.asarray(domain.hi) - lo
    out = []
    for _ in range(spec.count):
        vf = float(np.exp(rng.uniform(np.log(lo_frac), np.log(hi_frac))))
        w = rng.random(d) + 1e-12
        sides = vf ** (w / w.sum())  # product of per-dim fractions equals vf
        offs = rng.random(d) * (1.0 - sides)
        qlo = lo + offs * span
        qhi = lo + (offs + sides) * span
        out.append(RangeQuery(lo=tuple(qlo), hi=tuple(qhi)))
    return out


def relative_error(estimate: float, exact: float, delta: float) -> float:
    """|estimate - exact| / max(exact, delta); ``delta`` smooths tiny answers.

    The conventional smoothing is 0.1% of the dataset cardinality.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta!r}")
    if exact < 0:
        raise ParameterError(f"exact count must be nonnegative, got {exact!r}")
    return abs(estimate - exact) / max(exact, delta)


def topk_precision(returned, exact, k: int) -> float:
    """|returned ∩ exact| / k."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    return len(set(returned) & set(exact)) / k


def total_variation(p, q) -> float:
    """Half the L1 distance between two probability distributions.

    Accepts mappings (atom -> probability) or equal-length arrays; each side
    must sum to 1 within 1e-6.
    """
    if isinstance(p, dict) or isinstance(q, dict):
        if not (isinstance(p, dict) and isinstance(q, dict)):
            raise ParameterError("distributions must both be mappings or both arrays")
        keys = set(p) | set(q)
        pv = np.array([float(p.get(key, 0.0)) for key in keys])
        qv = np.array([float(q.get(key, 0.0)) for key in keys])
    else:
        pv = np.asarray(p, dtype=np.float64)
        qv = np.asarray(q, dtype=np.float64)
        if pv.shape != qv.shape:
            raise ParameterError("distributions must have the same support size")
    for name, v in (("p", pv), ("q", qv)):
        if (v < 0).any() or abs(float(v.sum()) - 1.0) > 1e-6:
            raise ParameterError(f"{name} is not a probability distribution")
    return 0.5 * float(np.abs(pv - qv).sum())


def exact_range_count(data: SpatialDataset, q: RangeQuery) -> int:
    """Ground-truth count by brute-force scan; membership is ``[lo, hi)``."""
    if q.dims != data.domain.dims:
        raise InputDataError("query dimensionality does not match the dataset")
    pts = data.points
    mask = np.ones(pts.shape[0], dtype=bool)
    for j in range(q.dims):
        mask &= (pts[:, j] >= q.lo[j]) & (pts[:, j] < q.hi[j])
    return int(mask.sum())


def exact_range_counts(data: SpatialDataset, queries) -> np.ndarray:
    """Batch ground truth; presorts one axis to prefilter candidates.

    Same membership rule as :func:`exact_range_count` (equality is covered by
    a property test), just fast enough for ten-thousand-query workloads.
    """
    pts = data.points
    if pts.shape[0] == 0:
        return np.zeros(len(queries), dtype=np.int64)
    order = np.argsort(pts[:, 0], kind="stable")
    sorted_pts = pts[order]
    col0 = sorted_pts[:, 0]
    out = np.empty(len(queries), dtype=np.int64)
    for i, q in enumerate(queries):
        if q.dims != data.domain.dims:
            raise InputDataError("query dimensionality does not match the dataset")
        a = np.searchsorted(col0, q.lo[0], side="left")
        b = np.searchsorted(col0, q.hi[0], side="left")
        cand = sorted_pts[a:b]
        mask = np.ones(cand.shape[0], dtype=bool)
        for j in range(1, q.dims):
            mask &= (cand[:, j] >= q.lo[j]) & (cand[:, j] < q.hi[j])
        out[i] = int(mask.sum())
    return out


@dataclass
class EvalReport:
    """Per-query estimates vs ground truth with aggregate relative errors."""

    estimates: np.ndarray
    exacts: np.ndarray
    rel_errors: np.ndarray
    delta: float
    label: str = ""
    aggregates: dict = field(init=False)

    def __post_init__(self):
        self.estimates = np.asarray(self.estimates, dtype=np.float64)
        self.exacts = np.asarray(self.exacts, dtype=np.float64)
        self.rel_errors = np.asarray(self.rel_errors, dtype=np.float64)
        if (self.rel_errors < 0).any():
            raise ParameterError("relative errors must be nonnegative")
        n = len(self.rel_errors)
        self.aggregates = {
            "count": n,
            "mean_rel_error": float(self.rel_errors.mean()) if n else 0.0,
            "median_rel_error": float(np.median(self.rel_errors)) if n else 0.0,
        }

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "delta": self.delta,
            "aggregates": self.aggregates,
            "queries": [
                {"estimate": float(a), "exact": float(b), "rel_error": float(r)}
                for a, b, r in zip(self.estimates, self.exacts, self.rel_errors)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_text_table(self, max_rows: int = 20) -> str:
        header = f"{'#':>6}  {'estimate':>14}  {'exact':>12}  {'rel_error':>10}"
        lines = [header, "-" * len(header)]
        for i, (a, b, r) in enumerate(
            zip(self.estimates, self.exacts, self.rel_errors)
        ):
            if i >= max_rows:
                lines.append(f"... ({len(self.rel_errors) - max_rows} more rows)")
                break
            lines.append(f"{i:>6}  {a:>14.3f}  {b:>12.0f}  {r:>10.4f}")
        agg = self.aggregates
        lines.append(
            f"n={agg['count']}  mean RE={agg['mean_rel_error']:.4f}  "
            f"median RE={agg['median_rel_error']:.4f}"
        )
        return "\n".join(lines)


def evaluate_queries(
    tree: DecompTree,
    data: SpatialDataset,
    queries,
    delta: float | None = None,
    label: str = "",
) -> EvalReport:
    """Score a released tree against ground truth on a workload."""
    if delta is None:
        delta = max(1e-12, 0.001 * data.n)
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta!r}")
    exacts = exact_range_counts(data, queries)
    estimates = range_counts(tree, queries)
    # the arithmetic of relative_error, one query per element
    rel = np.abs(estimates - exacts) / np.maximum(exacts, delta)
    return EvalReport(
        estimates=estimates, exacts=exacts, rel_errors=rel, delta=delta, label=label
    )
