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

from .dp_core import float_texts
from .errors import InputDataError, ParameterError
from .spatial import _PAIR_BUDGET, DecompTree, RangeQuery, SpatialDataset, SpatialDomain
from .spatial import _grid_bins, range_counts

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
    # one row per query: the volume draw, then d aspect and d offset draws,
    # the order in which per-query uniform(), random(d), random(d) calls
    # would consume the stream
    u = rng.random((spec.count, 1 + 2 * d))
    log_lo, log_hi = np.log(lo_frac), np.log(hi_frac)
    vf = np.exp(log_lo + (log_hi - log_lo) * u[:, :1])
    w = u[:, 1 : 1 + d] + 1e-12
    sides = vf ** (w / w.sum(axis=1, keepdims=True))  # per-dim fractions, product vf
    offs = u[:, 1 + d :] * (1.0 - sides)
    qlo = lo + offs * span
    qhi = lo + (offs + sides) * span
    return [RangeQuery(lo=tuple(a), hi=tuple(b)) for a, b in zip(qlo.tolist(), qhi.tolist())]


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


def _cell_index(data: SpatialDataset):
    """(edges, first, columns) of a uniform grid of ``m**d`` cells over the
    domain, with ``m**d`` at most ``min(n, _PAIR_BUDGET)``: per-dimension
    cell edges, the CSR offsets of each cell's points, and the coordinates
    (d x n) with the points sorted by cell in C order, so cell ``c`` holds
    points ``first[c]`` to ``first[c + 1] - 1``.

    A point's cell in each dimension is the last edge not above it
    (:func:`dphier.spatial._grid_bins`), so every point of cell ``c`` lies
    in ``[e[c], e[c + 1])`` exactly.  Edges are forced non-decreasing from
    ``lo`` to ``hi``, which only matters when a domain's width overflows;
    then every point is searched."""
    pts = data.points
    n, d = pts.shape
    cap = max(1, min(n, _PAIR_BUDGET))
    m = max(1, int(cap ** (1.0 / d)))
    while (m + 1) ** d <= cap:
        m += 1
    while m**d > cap:
        m -= 1
    # the ids' type must hold the factor m as well as the ids below m**d; for
    # d >= 2 that is 16 bits, and a stable sort of 16-bit keys is a radix sort
    edges, cell = [], np.zeros(n, dtype=np.min_scalar_type(max(m, m**d - 1)))
    for j, (lo, hi) in enumerate(zip(data.domain.lo, data.domain.hi)):
        with np.errstate(over="ignore", invalid="ignore"):  # repaired below
            e = np.linspace(lo, hi, m + 1)
        e[0], e[-1] = lo, hi
        e = np.fmax.accumulate(np.fmin(e, hi))
        edges.append(e)
        cell *= m
        cell += _grid_bins(pts[:, j], e).astype(cell.dtype)
    order = np.argsort(cell, kind="stable")
    first = np.zeros(m**d + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=m**d), out=first[1:])
    cols = np.empty((d, n))
    for j in range(d):
        pts[:, j].take(order, out=cols[j])
    return edges, first, cols


def _expand(sizes: np.ndarray):
    """Enumerate ``(item, offset)`` for every ``offset < sizes[item]``, item by
    item, in chunks of at most ``_PAIR_BUDGET`` pairs."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, _PAIR_BUDGET):
        hi = min(lo + _PAIR_BUDGET, total)
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        starts = ends[i0:i1] - sizes[i0:i1]
        part = np.minimum(ends[i0:i1], hi) - np.maximum(starts, lo)
        yield (
            np.repeat(np.arange(i0, i1), part),
            np.arange(lo, hi) - np.repeat(starts, part),
        )


def exact_range_counts(data: SpatialDataset, queries) -> np.ndarray:
    """Batch ground truth with the membership rule of :func:`exact_range_count`.

    The points are indexed once by the cells of a uniform grid.  In each
    dimension a query touches a range of cells and covers a subrange of them
    fully.  The touched box is walked as rows: runs of consecutive cells
    along the last dimension, each one slice of the sorted points.  Where a
    row lies in the covered range of every other dimension, the points of its
    covered cells are counted from the cell offsets alone; every other point
    of the row is tested against the query's ``[lo, hi)``.  Rows and tested
    points are handled in chunks of at most ``_PAIR_BUDGET``, so memory
    beyond the index and the query bounds stays bounded whatever the
    workload.
    """
    queries = list(queries)
    d = data.domain.dims
    if any(q.dims != d for q in queries):
        raise InputDataError("query dimensionality does not match the dataset")
    out = np.zeros(len(queries), dtype=np.int64)
    if not queries or data.n == 0:
        return out
    edges, first, cols = _cell_index(data)
    m = edges[0].size - 1
    stride = m ** np.arange(d - 1, -1, -1)
    qlo = np.array([q.lo for q in queries])
    qhi = np.array([q.hi for q in queries])
    # touched cells [s, t) and fully covered cells [a, b), with s <= a <= b <= t
    s, t, a, b = (np.empty(qlo.shape, dtype=np.int64) for _ in range(4))
    for j, e in enumerate(edges):
        s[:, j] = np.maximum(np.searchsorted(e, qlo[:, j], side="right") - 1, 0)
        t[:, j] = np.clip(np.searchsorted(e, qhi[:, j], side="left"), s[:, j], m)
        a[:, j] = np.clip(np.searchsorted(e, qlo[:, j], side="left"), s[:, j], t[:, j])
        b[:, j] = np.clip(np.searchsorted(e, qhi[:, j], side="right") - 1, a[:, j], t[:, j])
    size = t - s
    rows = np.prod(size[:, :-1], axis=1) * (size[:, -1] > 0)
    qlo, qhi = qlo.T.copy(), qhi.T.copy()
    for query, k in _expand(rows):
        row = np.zeros(query.size, dtype=np.int64)
        covered = np.ones(query.size, dtype=bool)
        for i in range(d - 2, -1, -1):  # the row's cell, last dimension fastest
            k, c = np.divmod(k, size[query, i])
            c += s[query, i]
            covered &= (c >= a[query, i]) & (c < b[query, i])
            row += c * stride[i]
        # cells [s, t) of the row split into tested [s, a), counted [a, b) and
        # tested [b, t); a row outside the covered range counts nothing
        lim = [first[row + np.where(covered, bound[query, -1], t[query, -1])] for bound in (a, b)]
        out += np.bincount(query, lim[1] - lim[0], minlength=out.size).astype(np.int64)
        start = np.concatenate([first[row + s[query, -1]], lim[1]])
        stop = np.concatenate([lim[0], first[row + t[query, -1]]])
        tested = np.flatnonzero(stop > start)
        start, stop = start[tested], stop[tested]
        tested = query[tested % query.size]
        for seg, offset in _expand(stop - start):
            point = start[seg] + offset
            owner = tested[seg]
            inside = np.ones(point.size, dtype=bool)
            for i in range(d):
                x = cols[i].take(point)
                inside &= (x >= qlo[i].take(owner)) & (x < qhi[i].take(owner))
            out += np.bincount(owner[inside], minlength=out.size)
    return out


_QUERY_ROW = '    {\n      "estimate": %s,\n      "exact": %s,\n      "rel_error": %s\n    }'


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
        """The report document as a dict, read back from :meth:`dumps`."""
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The report document: ``json.dumps(doc, sort_keys=True, indent=2)``
        of ``{"aggregates", "delta", "label", "queries": [{"estimate",
        "exact", "rel_error"}]}``, with the query rows, which sort last,
        written from the columns; it defines the format."""
        head = {"aggregates": self.aggregates, "delta": self.delta, "label": self.label}
        text = json.dumps({**head, "queries": []}, sort_keys=True, indent=2)
        n = self.estimates.size
        if not n:
            return text
        values = float_texts(np.stack([self.estimates, self.exacts, self.rel_errors], axis=1))
        rows = ",\n".join([_QUERY_ROW] * n) % tuple(values.ravel().tolist())
        return text[: -len("[]\n}")] + "[\n" + rows + "\n  ]\n}"

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
