"""Private spatial decompositions and range-count queries over released trees.

Three synopsis builders share one tree representation (the two recursive ones
grow it level by level with :func:`dphier.dp_core.grow_levels`):

* :func:`build_privtree` -- recursive splitting driven by a depth-biased,
  noised point count, with a constant noise scale independent of tree height.
* :func:`build_simple_tree` -- classic fixed-height noisy quadtree; the caller
  must supply ``lam >= h / epsilon`` for an epsilon-private build.
* :func:`build_ug` -- uniform grid exposed as a depth-1 tree.

Cells are half-open ``[lo, hi)`` per dimension, with the global domain's upper
face closed, so child regions partition their parent exactly.  ``noiseless=True``
on the builders replaces every Laplace draw with zero (bias and thresholds are
still applied); it exists only for oracle testing and is NOT private.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .dp_core import DEFAULT_DEPTH_CAP, PrivacyParams, biased_count, biased_split, check_tree_links
from .dp_core import float_texts, grow_levels, json_value, laplace_sf, read_json, sample_laplace
from .errors import InputDataError, ParameterError

__all__ = [
    "DEFAULT_DEPTH_CAP",
    "DecompTree",
    "RangeQuery",
    "SpatialDataset",
    "SpatialDomain",
    "TreeNode",
    "attach_noisy_counts",
    "biased_count",
    "build_privtree",
    "build_simple_tree",
    "build_ug",
    "load_points_csv",
    "load_tree",
    "load_workload_csv",
    "privtree_split_probabilities",
    "range_count",
    "range_counts",
    "shape_probability",
    "simulate_privtree_shapes",
    "tree_from_json_dict",
    "tree_shape_mask",
    "trees_equal",
]


@dataclass(frozen=True)
class SpatialDomain:
    """Axis-aligned box domain; ``lo[i] < hi[i]`` for every dimension."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ParameterError("domain lo/hi must be nonempty and equally long")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ParameterError(f"domain requires lo < hi per dimension, got [{a}, {b})")

    @property
    def dims(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class SpatialDataset:
    """Point set over a domain; every point lies in ``[lo, hi)`` per dimension."""

    domain: SpatialDomain
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, self.domain.dims)
        if pts.ndim != 2 or pts.shape[1] != self.domain.dims:
            raise InputDataError(
                f"points must have shape (n, {self.domain.dims}), got {pts.shape}"
            )
        lo = np.asarray(self.domain.lo)
        hi = np.asarray(self.domain.hi)
        if pts.shape[0] and not ((pts >= lo).all() and (pts < hi).all()):
            raise InputDataError("every point must lie in [lo, hi) per dimension")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RangeQuery:
    """Axis-aligned query box; membership is half-open ``[lo, hi)``."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ParameterError("query lo/hi must be nonempty and equally long")
        for a, b in zip(lo, hi):
            if not a <= b:
                raise ParameterError(f"query requires lo <= hi per dimension, got [{a}, {b}]")

    @property
    def dims(self) -> int:
        return len(self.lo)


@dataclass
class TreeNode:
    """One region of a decomposition tree.

    ``exact_count`` must never reach a release artifact; the serializer
    refuses a tree that carries one.
    """

    id: int
    depth: int
    lo: tuple
    hi: tuple
    children: list = field(default_factory=list)
    noisy_count: float | None = None
    exact_count: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DecompTree:
    """A released decomposition: its nodes plus build parameterization.

    ``params_info`` carries the four serialized keys (epsilon, lambda, theta,
    delta), with ``None`` where a builder has no such notion.

    The builders and the loader store the nodes as :class:`_Columns`, and
    library code reads and writes only these.  :class:`TreeNode` objects are
    for callers: ``nodes``, ``node(i)`` and ``leaves()`` build them, and a
    caller may pass them in as ``nodes``, whose columns are then derived on
    each read until :func:`attach_noisy_counts` stores columns and drops the
    list.  ``_arrays`` and ``_grid`` are query caches: code that changes
    counts must drop them, as :func:`attach_noisy_counts` does.
    """

    def __init__(self, nodes, fanout: int, params_info: dict | None = None, root: int = 0):
        self._nodes = nodes
        self.fanout = fanout
        self.params_info = {} if params_info is None else params_info
        self.root = root
        self._cols: _Columns | None = None
        self._arrays: _TreeArrays | None = None
        self._grid: dict | None = None

    @property
    def nodes(self) -> list:
        if self._nodes is None:
            self._nodes = _column_nodes(self._cols)
            self._cols = None
        return self._nodes

    @property
    def dims(self) -> int:
        return _columns(self).lo.shape[1]

    @property
    def domain(self) -> SpatialDomain:
        """The root's region."""
        cols = _columns(self)
        return SpatialDomain(cols.lo[self.root], cols.hi[self.root])

    @property
    def n_nodes(self) -> int:
        return _columns(self).depth.size

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(np.diff(_columns(self).first) == 0))

    def node(self, nid: int) -> TreeNode:
        return self.nodes[nid]

    def leaves(self):
        return [v for v in self.nodes if v.is_leaf]

    def to_json_dict(self) -> dict:
        """The release document as a dict, read back from :meth:`dumps`."""
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The release document: ``json.dumps(doc, sort_keys=True)`` of
        ``{"fanout", "params", "nodes": [{"children", "depth", "hi", "id",
        "lo", "noisy_count"?}]}``, written row by row from the columns; it
        defines the format.  Refuses to leak exact counts."""
        if self._nodes is not None and any(v.exact_count is not None for v in self._nodes):
            raise InputDataError("tree still carries exact counts; refusing to serialize")
        cols = _columns(self)
        n = cols.depth.size
        d = cols.lo.size // n if n else 0
        coords = ", ".join(["%s"] * d)
        row = (
            '{"children": [%s], "depth": %s, "hi": [' + coords
            + '], "id": %s, "lo": [' + coords + "]%s}"
        )
        slots = np.empty((n, 2 * d + 4), dtype=object)
        kids, first = list(map(str, cols.kids.tolist())), cols.first.tolist()
        slots[:, 0] = [", ".join(kids[a:b]) for a, b in zip(first, first[1:])]
        slots[:, 1] = cols.depth.tolist()
        # children share their parent's faces, so hi and lo share one pass
        slots[:, np.r_[2 : d + 2, d + 3 : 2 * d + 3]] = float_texts(
            np.hstack([cols.hi.reshape(n, d), cols.lo.reshape(n, d)])
        )
        slots[:, d + 2] = range(n)
        slots[:, -1] = ""
        slots[cols.has_count, -1] = ', "noisy_count": ' + float_texts(cols.count[cols.has_count])
        keys = ("epsilon", "lambda", "theta", "delta")
        params = json.dumps({k: self.params_info.get(k) for k in keys}, sort_keys=True)
        nodes = ", ".join([row] * n) % tuple(slots.ravel().tolist())
        return f'{{"fanout": {json.dumps(self.fanout)}, "nodes": [{nodes}], "params": {params}}}'

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")


def trees_equal(a: DecompTree, b: DecompTree) -> bool:
    """Exact structural equality (regions, depths, children, counts)."""
    if a.fanout != b.fanout or a.root != b.root:
        return False
    # a missing count is stored as 0.0, so the count columns compare as a whole
    return all(map(np.array_equal, _columns(a), _columns(b)))


# ---------------------------------------------------------------------------
# column storage
# ---------------------------------------------------------------------------


class _Columns(NamedTuple):
    """A tree as one array per node field, indexed by node id: ``depth``,
    ``lo`` and ``hi`` (N x d), the children in CSR form (those of node ``i``
    are ``kids[first[i]:first[i + 1]]``, in stored order), and ``count``,
    which holds a node's noisy count where ``has_count`` is set and 0.0
    elsewhere."""

    depth: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    kids: np.ndarray
    count: np.ndarray
    has_count: np.ndarray


def _csr_first(n_kids: np.ndarray) -> np.ndarray:
    first = np.zeros(n_kids.size + 1, dtype=np.int64)
    np.cumsum(n_kids, out=first[1:])
    return first


def _uniform_fanout(first: np.ndarray) -> int:
    """The number of children when every internal node has the same number,
    else 0."""
    n_kids = np.diff(first)
    sizes = np.unique(n_kids[n_kids > 0])
    return int(sizes[0]) if sizes.size == 1 else 0


def _node_columns(nodes: list) -> _Columns:
    n = len(nodes)
    first = _csr_first(np.fromiter((len(v.children) for v in nodes), np.int64, n))
    has_count = np.fromiter((v.noisy_count is not None for v in nodes), bool, n)
    return _Columns(
        depth=np.fromiter((v.depth for v in nodes), np.int64, n),
        lo=np.array([v.lo for v in nodes], dtype=np.float64),
        hi=np.array([v.hi for v in nodes], dtype=np.float64),
        first=first,
        kids=np.fromiter((c for v in nodes for c in v.children), np.int64, int(first[-1])),
        count=np.array([v.noisy_count if h else 0.0 for v, h in zip(nodes, has_count)]),
        has_count=has_count,
    )


def _column_nodes(cols: _Columns) -> list:
    lo, hi, count = cols.lo.tolist(), cols.hi.tolist(), cols.count.tolist()
    depth, first, kids = cols.depth.tolist(), cols.first.tolist(), cols.kids.tolist()
    return [
        TreeNode(
            id=i, depth=depth[i], lo=tuple(lo[i]), hi=tuple(hi[i]),
            children=kids[first[i] : first[i + 1]],
            noisy_count=count[i] if has else None,
        )
        for i, has in enumerate(cols.has_count.tolist())
    ]


def _columns(tree: DecompTree) -> _Columns:
    """The tree's stored columns, or those of its node list."""
    return tree._cols if tree._nodes is None else _node_columns(tree._nodes)


def _column_tree(cols: _Columns, fanout: int, params_info: dict, root: int = 0) -> DecompTree:
    tree = DecompTree(None, fanout, params_info, root)
    tree._cols = cols
    return tree


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _dims_for_level(depth: int, d: int, dims_per_level: int) -> tuple:
    """Dimensions bisected at this depth: all of them, or a round-robin window.

    Always ascending, so child order can be reconstructed from regions alone
    (see _split_geometry)."""
    if dims_per_level == d:
        return tuple(range(d))
    return tuple(
        sorted((depth * dims_per_level + j) % d for j in range(dims_per_level))
    )


def _resolve_dims_per_level(data: SpatialDataset, dims_per_level):
    d = data.domain.dims
    if dims_per_level is None:
        return d
    if not 1 <= dims_per_level <= d:
        raise ParameterError(
            f"dims_per_level must be in [1, {d}], got {dims_per_level!r}"
        )
    return int(dims_per_level)


def _split_geometry(cols: _Columns, parents: np.ndarray, fanout: int):
    """(mids, code weights) of each parent's split, read from its first child:
    the lower half along every dimension where its box differs from the
    parent's.  Codes carry one bit per split dimension, in ascending order."""
    lo, hi = cols.lo[parents], cols.hi[parents]
    first = cols.kids[cols.first[parents]]
    first_lo, first_hi = cols.lo[first], cols.hi[first]
    moved = (first_lo != lo) | (first_hi != hi)
    n_kids = cols.first[parents + 1] - cols.first[parents]
    bad = (n_kids != fanout) | (n_kids != 1 << moved.sum(axis=1))
    if bad.any() or (moved & (first_lo != lo)).any():
        raise InputDataError("tree children do not form a recognized bisection")
    return first_hi, (moved << (np.cumsum(moved, axis=1) - moved)).astype(np.int32)


def _child_codes(points, items, parent, mids, weights):
    """Each item's child code: the weights of the dimensions in which it lies
    at or above its parent's mid."""
    code = np.zeros(items.size, dtype=np.int32)
    for j in np.flatnonzero(weights.any(axis=0)):
        code += (points[items, j] >= mids[parent, j]) * weights[parent, j]
    return code


def _grow(data: SpatialDataset, dims_per_level: int, rule) -> _Columns:
    """Split loop of the recursive builders: ``rule(depth, counts, halvable)``
    decides a whole level from its exact counts, so noise is drawn level by
    level, in BFS order, on one stream.  ``halvable`` marks the nodes whose
    box has its midpoint strictly inside along every dimension split at
    their depth; the rule must split no other.  Child boxes are made a level
    at a time, by parent and then child code (bit j: the upper half along the
    j-th split dimension); ids follow BFS order, so the child list is 1..N-1."""
    d = data.domain.dims
    fanout = 1 << dims_per_level
    los, his, splits = [np.array([data.domain.lo])], [np.array([data.domain.hi])], []

    def decide(depth, sizes, items):
        lo, hi = los[-1], his[-1]
        with np.errstate(over="ignore"):  # an infinite midpoint is not inside
            mid = (lo + hi) / 2.0
        inside = ((lo < mid) & (mid < hi))[:, list(_dims_for_level(depth, d, dims_per_level))]
        splits.append(np.asarray(rule(depth, sizes, inside.all(axis=1)), dtype=bool))
        return splits[-1]

    def child_codes(depth, items, parent):
        lo, hi = los[-1][splits[-1]], his[-1][splits[-1]]
        mid = (lo + hi) / 2.0
        dims = list(_dims_for_level(depth, d, dims_per_level))
        weights = np.zeros((1, d), dtype=np.int32)
        weights[0, dims] = 1 << np.arange(dims_per_level)
        upper = (np.arange(fanout)[:, None] & weights) > 0  # fanout x d
        lower = (weights > 0) & ~upper
        los.append(np.where(upper, mid[:, None], lo[:, None]).reshape(-1, d))
        his.append(np.where(lower, mid[:, None], hi[:, None]).reshape(-1, d))
        return _child_codes(data.points, items, parent, mid, np.broadcast_to(weights, lo.shape))

    grow_levels(data.n, fanout, decide, child_codes)
    split = np.concatenate(splits)
    n = split.size
    return _Columns(
        depth=np.repeat(np.arange(len(splits)), [s.size for s in splits]),
        lo=np.concatenate(los), hi=np.concatenate(his),
        first=_csr_first(split * fanout), kids=np.arange(1, n),
        count=np.zeros(n), has_count=np.zeros(n, dtype=bool),
    )


def build_privtree(
    data: SpatialDataset,
    params: PrivacyParams,
    rng: np.random.Generator | None = None,
    *,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    dims_per_level: int | None = None,
    noiseless: bool = False,
) -> DecompTree:
    """Grow a bias-decayed decomposition tree and release its structure only.

    Each visited node's exact count is biased by ``depth * delta`` (floored at
    ``theta - delta``), noised at scale ``params.lam``, and split when the
    noisy score exceeds ``theta``.  Nodes at ``depth_cap`` never split and
    draw no noise, and so do nodes whose box can no longer be halved (see
    :func:`_grow`).  The returned tree has all point counts removed; attach
    released counts with :func:`attach_noisy_counts`.
    """
    dims_per_level = _resolve_dims_per_level(data, dims_per_level)
    fanout = 1 << dims_per_level
    if params.beta != fanout:
        raise ParameterError(
            f"params.beta={params.beta} does not match fanout {fanout} "
            f"(2^dims_per_level)"
        )
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")

    def rule(depth, counts, halvable):
        return biased_split(counts, depth, params, rng, halvable & (depth < depth_cap), noiseless)

    cols = _grow(data, dims_per_level, rule)
    info = {
        "epsilon": params.epsilon,
        "lambda": params.lam,
        "theta": params.theta,
        "delta": params.delta,
    }
    return _column_tree(cols, fanout, info)


def build_simple_tree(
    data: SpatialDataset,
    lam: float,
    theta: float,
    h: int,
    rng: np.random.Generator | None = None,
    *,
    noiseless: bool = False,
) -> DecompTree:
    """Fixed-height noisy decomposition: every node carries a noisy count.

    A node splits when its noisy count exceeds ``theta``, its depth is
    below ``h - 1`` and its box can still be halved (see :func:`_grow`), so
    the tree has at most ``h`` levels.  The caller is
    responsible for ``lam >= h / epsilon`` when an epsilon-private release is
    intended.
    """
    if not (isinstance(h, (int, np.integer)) and h >= 1):
        raise ParameterError(f"height h must be an integer >= 1, got {h!r}")
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    d = data.domain.dims
    noisy = []

    def rule(depth, counts, halvable):
        c_hat = counts.astype(np.float64)
        if not noiseless:
            c_hat += sample_laplace(lam, rng, size=counts.size)
        noisy.append(c_hat)
        return (c_hat > theta) & (depth < h - 1) & halvable

    cols = _grow(data, d, rule)
    cols = cols._replace(count=np.concatenate(noisy), has_count=np.ones(cols.count.size, bool))
    info = {"epsilon": None, "lambda": float(lam), "theta": float(theta), "delta": None}
    return _column_tree(cols, 1 << d, info)


def build_ug(
    data: SpatialDataset,
    epsilon: float,
    rng: np.random.Generator | None = None,
    *,
    noiseless: bool = False,
) -> DecompTree:
    """Uniform-grid synopsis as a depth-1 tree with ``m**d`` leaf cells.

    Uses ``m = ceil((n * epsilon / 10) ** (2 / (d + 2)))`` bins per dimension
    and a per-cell noise scale of ``1 / epsilon``.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if data.n < 1:
        raise ParameterError("uniform grid requires a nonempty dataset")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    d = data.domain.dims
    m = max(int(math.ceil((data.n * epsilon / 10.0) ** (2.0 / (d + 2.0)))), 1)
    edges, cell_lo, cell_hi = _grid_cells(data.domain.lo, data.domain.hi, m)
    counts, _ = np.histogramdd(data.points, bins=edges)
    noisy = counts if noiseless else counts + sample_laplace(
        1.0 / epsilon, rng, size=counts.shape
    )
    cells = m**d
    cols = _Columns(
        depth=np.repeat([0, 1], [1, cells]),
        lo=np.vstack([data.domain.lo, cell_lo]), hi=np.vstack([data.domain.hi, cell_hi]),
        first=_csr_first(np.repeat([cells, 0], [1, cells])), kids=np.arange(1, cells + 1),
        count=np.append(0.0, noisy), has_count=np.arange(cells + 1) > 0,
    )
    info = {"epsilon": float(epsilon), "lambda": 1.0 / epsilon, "theta": None, "delta": None}
    tree = _column_tree(cols, cells, info)
    tree._grid = _detect_grid(cols, 0, cells)
    return tree


# ---------------------------------------------------------------------------
# noisy-count postprocessing
# ---------------------------------------------------------------------------


def _leaf_exact_counts(tree: DecompTree, data: SpatialDataset) -> dict:
    """Exact point count of every leaf, by id, from one level-by-level
    partition of the points down the tree."""
    if tree.domain != data.domain:
        raise InputDataError("tree domain does not match dataset domain")
    cols = _columns(tree)
    out = {}
    level = np.array([tree.root])

    def decide(depth, sizes, items):
        nonlocal level
        inner = cols.first[level + 1] > cols.first[level]
        out.update(zip(level[~inner].tolist(), sizes[~inner].tolist()))
        level = level[inner]
        return inner

    def child_codes(depth, items, parent):
        # level holds the splitting parents here; advance it to their children
        nonlocal level
        mids, weights = _split_geometry(cols, level, tree.fanout)
        level = _children(cols.first, cols.kids, 0, level)[0]
        return _child_codes(data.points, items, parent, mids, weights)

    grow_levels(data.n, tree.fanout, decide, child_codes)
    return out


def attach_noisy_counts(
    tree: DecompTree,
    data: SpatialDataset,
    epsilon_counts: float,
    rng: np.random.Generator | None = None,
    *,
    noiseless: bool = False,
) -> DecompTree:
    """Publish per-leaf noisy counts at Laplace scale ``1 / epsilon_counts``.

    Leaves partition the domain, so one point affects one leaf and the leaf
    count vector has sensitivity 1.  Internal nodes report the sum of their
    leaves' noisy counts, derived on demand during queries.  Negative leaf
    counts are released as-is (sums stay unbiased); clamp only in
    presentation-layer output if needed.  Mutates and returns ``tree``.
    """
    if not epsilon_counts > 0:
        raise ParameterError(f"epsilon_counts must be positive, got {epsilon_counts!r}")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    counts = _leaf_exact_counts(tree, data)
    ids = sorted(counts)
    noisy = np.array([counts[nid] for nid in ids], dtype=np.float64)
    if not noiseless:
        noisy += sample_laplace(1.0 / epsilon_counts, rng, size=noisy.size)
    cols = _columns(tree)
    count, has_count = cols.count.copy(), cols.has_count.copy()
    count[ids], has_count[ids] = noisy, True
    tree._cols = cols._replace(count=count, has_count=has_count)
    tree._nodes = None
    tree._arrays = tree._grid = None  # query caches built from the old counts
    return tree


# ---------------------------------------------------------------------------
# range counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TreeArrays:
    """Array view of a tree with counts attached, read by :func:`range_counts`.

    Column ``i`` of ``table`` ((5d + 1) x N) describes node ``i``, so one
    ``take`` fetches a whole frontier.  Its rows are ``lo`` (d rows), the
    negated ``hi`` (d), ``lo - hi`` (d), the count the node answers when a
    query contains it (its own noisy count, or the sum of its leaves' counts
    when it carries none), and the box ``[lo, -hi]`` again for internal
    nodes but ``+inf`` for leaves (2d), against which a query can never cut
    a leaf.  ``first`` and ``kids`` are the CSR children of
    :class:`_Columns`, and ``fanout`` is the number of children when every
    internal node has the same number (else 0)."""

    table: np.ndarray
    first: np.ndarray
    kids: np.ndarray
    fanout: int

    @classmethod
    def from_columns(cls, cols: _Columns, root: int) -> _TreeArrays:
        lo, hi = cols.lo.T, cols.hi.T
        neg_width = lo - hi
        if not np.isfinite(neg_width).all():
            raise InputDataError("every region must have a finite width")
        count = _column_sums(cols, root)
        n_kids = np.diff(cols.first)
        own = (n_kids > 0) & cols.has_count
        count[own] = cols.count[own]
        box = np.vstack([lo, -hi])
        inner_box = np.where(n_kids > 0, box, np.inf)
        # take() copies a non-contiguous source on every call
        table = np.ascontiguousarray(np.vstack([box, neg_width, count, inner_box]))
        return cls(table, cols.first, cols.kids, _uniform_fanout(cols.first))


def _children(first, kids, fanout, parents):
    """Children of the internal nodes ``parents`` (repeats allowed) as one
    array, each parent's block in stored order, and the block lengths."""
    if fanout:
        rows = first.take(parents) // fanout
        return kids.reshape(-1, fanout).take(rows, axis=0).ravel(), fanout
    k = first[parents + 1] - first[parents]
    offsets = np.repeat(first[parents] - (np.cumsum(k) - k), k)
    return kids[offsets + np.arange(offsets.size)], k


def _fold(values, k):
    """Sum each of the consecutive blocks of ``values`` with lengths ``k``
    by adding its entries one at a time, in order, starting from 0.0: the
    arithmetic of ``sum(block)``, so results are bit-identical to it."""
    if isinstance(k, int):
        # accumulate adds strictly left to right; it starts from the first
        # entry, not 0.0, which only turns sum()'s +0.0 into -0.0, and the
        # trailing + 0.0 turns it back
        return np.add.accumulate(values.reshape(-1, k), axis=1)[:, -1] + 0.0
    out = np.zeros(k.size)
    starts = np.cumsum(k) - k
    for s in range(int(k.max(initial=0))):
        rows = np.flatnonzero(k > s)
        out[rows] += values[starts[rows] + s]
    return out


def _column_sums(cols: _Columns, root: int) -> np.ndarray:
    """Sum of the leaves' noisy counts under every node, indexed by node id;
    an internal node adds its children one at a time, in stored order."""
    first, kids = cols.first, cols.kids
    if not cols.has_count[first[1:] == first[:-1]].all():
        raise InputDataError(
            "tree has no noisy counts attached; run attach_noisy_counts first"
        )
    sums = cols.count.copy()
    fanout = _uniform_fanout(first)
    levels = []
    level = np.array([root])
    while level.size:
        inner = level[first[level + 1] > first[level]]
        level, k = _children(first, kids, fanout, inner)
        levels.append((inner, level, k))
    for inner, children, k in reversed(levels):
        sums[inner] = _fold(sums[children], k)
    return sums


def _subtree_sums(tree: DecompTree) -> np.ndarray:
    return _column_sums(_columns(tree), tree.root)


def _tree_arrays(tree: DecompTree) -> _TreeArrays:
    """The tree's cached array view, built on first use after counts are
    attached (:func:`attach_noisy_counts` drops it)."""
    if tree._arrays is None:
        tree._arrays = _TreeArrays.from_columns(_columns(tree), tree.root)
    return tree._arrays


# (query, node) pairs that one block of queries may create across its levels
# before range_counts splits the block; a single query is never split.
_PAIR_BUDGET = 1 << 16


def _answer_block(view: _TreeArrays, qbox, root: int, budget):
    """Answers of the queries ``qbox`` (2d x Q: lower bounds stacked on
    negated upper bounds) by a level-synchronous walk, or None once more
    than ``budget`` (query, node) pairs exist.

    Per pair, as in the scalar walk: disjoint adds 0, contained adds the
    node's count, a partially covered leaf adds its count times the covered
    volume fraction (a product over dimensions in order), and a partially
    covered internal node is replaced by the sum of its children's answers,
    folded bottom-up in stored child order.  Negating the upper bounds lets
    one ``maximum`` clip both faces and one ``>`` find where the query cuts
    the region.  Negation is exact, so every overlap, fraction and
    comparison equals its scalar counterpart bit for bit; a contained
    region's fraction is exactly 1, since its overlap is its width."""
    d = qbox.shape[0] // 2
    query, ni = qbox, np.full(qbox.shape[1], root)
    held = ni.size
    levels = []
    while ni.size:
        node = view.table.take(ni, axis=1)
        clip = np.maximum(node[: 2 * d], query)  # max(lo, qlo) over -min(hi, qhi)
        neg_overlap = clip[:d] + clip[d:]
        hit = np.maximum.reduce(neg_overlap, axis=0) < 0
        frac = np.multiply.reduce(neg_overlap / node[2 * d : 3 * d], axis=0)
        value = np.where(hit, node[3 * d] * frac, 0.0)
        cut = np.logical_or.reduce(query > node[3 * d + 1 :], axis=0)
        partial = (hit & cut).nonzero()[0]
        parents = ni.take(partial)
        if budget is not None:
            held += int((view.first[parents + 1] - view.first[parents]).sum())
            if held > budget:
                return None
        ni, k = _children(view.first, view.kids, view.fanout, parents)
        query = np.repeat(query.take(partial, axis=1), k, axis=1)
        levels.append((value, partial, k))
    below = np.empty(0)
    for value, partial, k in reversed(levels):
        value[partial] = _fold(below, k)
        below = value
    return below


def _grid_range_count(tree: DecompTree, q: RangeQuery) -> float:
    edges, counts = tree._grid["edges"], tree._grid["counts"]
    res = np.asarray(counts, dtype=np.float64)
    for j in range(len(edges)):
        e = edges[j]
        width = e[1:] - e[:-1]
        ol = np.maximum(e[:-1], q.lo[j])
        oh = np.minimum(e[1:], q.hi[j])
        w = np.clip(oh - ol, 0.0, None) / width
        res = np.tensordot(w, res, axes=([0], [0]))
    return float(res)


def range_counts(tree: DecompTree, queries) -> np.ndarray:
    """Estimate the number of points in each query box from the released tree.

    Top-down traversal, one level at a time for the whole workload: disjoint
    regions are skipped, contained regions add their (derived) count,
    partially covered leaves contribute their noisy count scaled by the
    volume fraction of the overlap.  Queries reaching outside the domain are
    effectively clipped to it.  Uniform grids answer each query with one
    separable contraction instead.  Returns one float64 estimate per
    :class:`RangeQuery` in ``queries``, in order.
    """
    queries, dims = list(queries), tree.dims
    for q in queries:
        if q.dims != dims:
            raise InputDataError(f"query dimensionality {q.dims} does not match tree ({dims})")
    if tree._grid is not None:
        return np.array([_grid_range_count(tree, q) for q in queries], dtype=np.float64)
    out = np.empty(len(queries))
    if not queries:
        return out
    view = _tree_arrays(tree)
    qbox = np.array([q.lo + q.hi for q in queries]).T
    qbox[dims:] *= -1.0
    start, block = 0, len(queries)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while start < len(queries):
            stop = min(start + block, len(queries))
            got = _answer_block(
                view, np.ascontiguousarray(qbox[:, start:stop]), tree.root,
                _PAIR_BUDGET if stop - start > 1 else None,
            )
            if got is None:
                block = (stop - start + 1) // 2
                continue
            out[start:stop] = got
            start = stop
    return out


def range_count(tree: DecompTree, q: RangeQuery) -> float:
    """Estimate for one query box; see :func:`range_counts`."""
    return float(range_counts(tree, [q])[0])


# ---------------------------------------------------------------------------
# serialization and file formats
# ---------------------------------------------------------------------------


_NODE_FIELDS = ("id", "depth", "lo", "hi", "children", "noisy_count")


def _document_columns(raw: list):
    """(columns, root) of a tree document's node entries, read a field at a
    time once their JSON types are checked, and put in id order; the root is
    the last depth-0 entry in document order.  A document with any defect
    goes to :func:`_raise_first_defect`, which names it."""
    n = len(raw)
    try:
        ids, depth, lo, hi, lists = ([e[key] for e in raw] for key in _NODE_FIELDS[:5])
        values = [e["noisy_count"] for e in raw if "noisy_count" in e]
        if not (
            {*map(type, chain(lo, hi, lists))} <= {list}
            and {*map(type, chain(ids, depth, *lists))} <= {int}
            and {*map(type, chain(values, *lo, *hi))} <= {int, float}
        ):
            raise TypeError("a value of the wrong JSON type")
        sizes = np.fromiter(map(len, lo + hi), np.int64, 2 * n)
        n_kids = np.fromiter(map(len, lists), np.int64, n)
        ids, depth, kids = (np.fromiter(v, np.int64) for v in (ids, depth, chain(*lists)))
        lo, hi, values = (np.fromiter(v, np.float64) for v in (chain(*lo), chain(*hi), values))
        dims = int(sizes[0]) if n else 0
        if not (dims and (sizes == dims).all() and all((v >= 0).all() and (v < n).all()
                                                       for v in (ids, depth, kids))):
            raise ValueError("a value out of range")
        order = np.full(n, -1)
        order[ids] = np.arange(n)  # the document position of each id
        lo, hi = lo.reshape(n, dims), hi.reshape(n, dims)
        zero = np.flatnonzero(depth == 0)
        if not ((order >= 0).all() and zero.size and np.isfinite(values).all()
                and np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValueError("a failing check")
    except (KeyError, TypeError, ValueError, OverflowError):
        _raise_first_defect(raw)
    has_count = np.fromiter(("noisy_count" in e for e in raw), bool, n)
    count = np.zeros(n)
    count[has_count] = values
    kids = kids[np.argsort(np.repeat(ids, n_kids), kind="stable")]  # by parent id
    return _Columns(depth[order], lo[order], hi[order], _csr_first(n_kids[order]), kids,
                    count[order], has_count[order]), int(ids[zero[-1]])


def _raise_first_defect(raw: list):
    """Raise InputDataError for the first defect of a tree document's node
    entries, in document order: in the first defective entry, for the first
    field of ``_NODE_FIELDS`` that is missing (``noisy_count`` may be) or of
    the wrong JSON type, then for the first failing check below; with every
    entry sound, for the want of a depth-0 entry."""
    n = len(raw)
    seen, dims = [False] * n, None
    for k, entry in enumerate(raw):
        for key in _NODE_FIELDS:
            try:
                if key != "noisy_count" or key in entry:
                    many = key in ("lo", "hi", "children")
                    kind = int if key in ("id", "depth", "children") else float
                    for v in json_value(entry[key], list, key) if many else [entry[key]]:
                        json_value(v, kind, key)
            except (KeyError, TypeError, OverflowError) as exc:
                raise InputDataError(
                    f"node entry {k}: field {key!r} is missing or malformed "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        nid, depth, kids = entry["id"], entry["depth"], entry["children"]
        lo, hi = (np.array(entry[key], dtype=np.float64) for key in ("lo", "hi"))
        count = np.float64(entry.get("noisy_count", 0.0))
        if not 0 <= nid < n or seen[nid]:
            raise InputDataError(f"bad or duplicate node id {nid}")
        if not 0 <= depth < n:
            raise InputDataError(f"node {nid}: depth {depth} is outside [0, {n})")
        dims = lo.size if dims is None else dims
        if not dims or lo.size != dims or hi.size != dims:
            raise InputDataError(
                f"node {nid}: lo and hi must have as many entries as in every node"
            )
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.isfinite(count)):
            raise InputDataError(f"node {nid}: lo, hi and noisy_count must be finite")
        if not (lo < hi).all():
            raise InputDataError(f"node {nid}: lo must be below hi in every dimension")
        if any(not 0 <= c < n for c in kids):
            raise InputDataError(f"node {nid} references an unknown child id")
        seen[nid] = True
    raise InputDataError("tree document has no depth-0 root node")


def tree_from_json_dict(doc: dict) -> DecompTree:
    """A tree from its document, stored as columns (see :class:`DecompTree`)."""
    try:
        fanout, params_info, raw_nodes = (
            json_value(doc[key], kind, key)
            for key, kind in (("fanout", int), ("params", dict), ("nodes", list))
        )
    except (KeyError, TypeError) as exc:
        raise InputDataError(f"malformed tree document: {exc}") from exc
    cols, root = _document_columns(raw_nodes)
    parents = np.repeat(np.arange(len(raw_nodes)), np.diff(cols.first))
    check_tree_links(
        len(raw_nodes), root, parents, cols.kids,
        cols.depth[cols.kids] == cols.depth[parents] + 1,
    )
    tree = _column_tree(cols, fanout, dict(params_info), root)
    tree._grid = _detect_grid(cols, root, fanout)
    return tree


def load_tree(path) -> DecompTree:
    return tree_from_json_dict(read_json(path))


def _grid_cells(lo, hi, m: int):
    """The ``linspace`` edges of the grid with ``m`` cells per side over the
    box ``[lo, hi)``, and the ``lo`` and ``hi`` of its cells (m**d x d), in
    C order."""
    d = len(lo)
    edges = [np.linspace(lo[j], hi[j], m + 1) for j in range(d)]
    cell = np.indices((m,) * d).reshape(d, -1)
    cell_lo = np.stack([e[c] for e, c in zip(edges, cell)], axis=1)
    cell_hi = np.stack([e[c + 1] for e, c in zip(edges, cell)], axis=1)
    return edges, cell_lo, cell_hi


def _detect_grid(cols: _Columns, root: int, fanout: int):
    """The grid fast-path state of a uniform grid, else None: a root whose
    ``fanout == m**d`` children, all leaves with counts, are the only other
    nodes and are the cells of :func:`_grid_cells` over the root, in C
    order."""
    kids = cols.kids[cols.first[root] : cols.first[root + 1]]
    if not kids.size or kids.size != fanout or cols.depth.size != kids.size + 1:
        return None
    d = cols.lo.shape[1]
    m = round(fanout ** (1.0 / d))
    if m**d != fanout:
        return None
    edges, cell_lo, cell_hi = _grid_cells(cols.lo[root], cols.hi[root], m)
    if not (
        cols.has_count[kids].all()
        and (cols.first[kids + 1] == cols.first[kids]).all()
        and (cols.lo[kids] == cell_lo).all()
        and (cols.hi[kids] == cell_hi).all()
    ):
        return None
    return {"edges": edges, "counts": cols.count[kids].reshape((m,) * d)}


def _parse_csv_floats(path, expected_fields=None):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise InputDataError(f"{path}: malformed CSV line {lineno}: {exc}") from exc
            if expected_fields is not None and len(row) != expected_fields:
                raise InputDataError(
                    f"{path}: line {lineno}: expected {expected_fields} fields, got {len(row)}"
                )
            if rows and len(row) != len(rows[0]):
                raise InputDataError(
                    f"{path}: line {lineno}: inconsistent field count "
                    f"({len(row)} vs {len(rows[0])})"
                )
            rows.append(row)
    return rows


def _read_csv_floats(path, expected_fields=None) -> np.ndarray:
    """Rows of comma-separated floats as an (n, k) array, (0, 0) when empty.

    One ``np.loadtxt`` call reads well-formed files.  It accepts no input
    that :func:`_parse_csv_floats` rejects and parses every field it accepts
    with the same conversion as ``float()``; whatever it cannot read
    (comments, whitespace-only lines, ``1_0``, ragged rows, a wrong width,
    no rows) goes to that line parser, which defines the grammar and reports
    errors by line number."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            arr = np.loadtxt(
                path, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                encoding="utf-8",
            )
        if arr.shape[0] and expected_fields in (None, arr.shape[1]):
            return arr
    except (OSError, ValueError, Warning):
        pass
    rows = _parse_csv_floats(path, expected_fields)
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 0))


def load_points_csv(path) -> np.ndarray:
    """Read one point per line, comma-separated decimals; '#' lines ignored."""
    return _read_csv_floats(path)


def load_workload_csv(path, dims: int):
    """Read queries as lines ``lo1,...,lod,hi1,...,hid``; a row whose box has
    ``lo > hi`` (or a NaN bound) in some dimension is an input error."""
    arr = _read_csv_floats(path, expected_fields=2 * dims)
    inverted = np.flatnonzero(~np.all(arr[:, :dims] <= arr[:, dims:], axis=1))
    if inverted.size:
        i = int(inverted[0])
        raise InputDataError(
            f"{path}: data row {i + 1}: query requires lo <= hi per dimension, "
            f"got lo={arr[i, :dims].tolist()} hi={arr[i, dims:].tolist()}"
        )
    return [RangeQuery(lo=tuple(row[:dims]), hi=tuple(row[dims:])) for row in arr.tolist()]


# ---------------------------------------------------------------------------
# split-decision audit helpers
#
# For a fixed dataset the split decisions of the candidate nodes are
# independent Laplace threshold tests, so tree-shape distributions can be
# simulated in bulk (vectorized over runs) and compared against closed-form
# shape probabilities.  Both paths reuse biased_count / laplace_sf /
# sample_laplace, i.e. exactly the split rule of build_privtree.
# ---------------------------------------------------------------------------


def _decision_scores(data, params, depth_cap, dims_per_level):
    """(biased scores, parents, counts) of the decision nodes (depth <
    depth_cap) of the complete tree in BFS order; the root's parent is -1.
    Every decision node must be able to split (see :func:`_grow`)."""
    dims_per_level = _resolve_dims_per_level(data, dims_per_level)
    fanout = 1 << dims_per_level
    if params.beta != fanout:
        raise ParameterError("params.beta does not match the split fanout")
    levels = []

    def rule(depth, counts, halvable):
        levels.append(counts if depth < depth_cap else counts[:0])  # at cap 0, not even the root
        if depth < depth_cap and not halvable.all():
            raise ParameterError(f"depth_cap {depth_cap} reaches boxes that cannot be halved")
        return np.full(counts.size, depth < depth_cap - 1)

    _grow(data, dims_per_level, rule)
    counts = np.concatenate(levels)
    depths = np.repeat(np.arange(len(levels)), [c.size for c in levels])
    b = biased_count(counts, depths, params.theta, params.delta)
    return b, (np.arange(counts.size) - 1) // fanout, counts


def privtree_split_probabilities(
    data: SpatialDataset,
    params: PrivacyParams,
    *,
    depth_cap: int,
    dims_per_level: int | None = None,
):
    """Exact per-candidate-node split probabilities on this dataset.

    Returns (probs, parents, counts) over the decision nodes (depth <
    depth_cap) of the complete tree, in BFS order.
    """
    b, parents, counts = _decision_scores(data, params, depth_cap, dims_per_level)
    return laplace_sf(params.theta - b, params.lam), parents, counts


def simulate_privtree_shapes(
    data: SpatialDataset,
    params: PrivacyParams,
    runs: int,
    rng: np.random.Generator,
    *,
    depth_cap: int,
    dims_per_level: int | None = None,
) -> np.ndarray:
    """Sample ``runs`` tree shapes, one bitmask per run.

    Bit i of a mask is set when decision node i (BFS order over the complete
    tree to depth_cap) is present in the tree and splits.  The simulation
    draws the same Laplace threshold test per node as build_privtree but
    vectorized across runs, which is what makes million-run audits feasible.
    """
    fanout = 1 << _resolve_dims_per_level(data, dims_per_level)
    # nodes with depth < depth_cap in the complete tree
    ndec = (fanout**depth_cap - 1) // (fanout - 1)
    if ndec > 62:
        raise ParameterError(
            f"shape masks support at most 62 decision nodes, got {ndec}"
        )
    b, parents, _ = _decision_scores(data, params, depth_cap, dims_per_level)
    noise = sample_laplace(params.lam, rng, size=(runs, ndec))
    raw_split = (b[None, :] + noise) > params.theta
    eff = np.empty_like(raw_split)
    masks = np.zeros(runs, dtype=np.int64)
    for i in range(ndec):
        if parents[i] < 0:
            eff[:, i] = raw_split[:, i]
        else:
            eff[:, i] = raw_split[:, i] & eff[:, parents[i]]
        masks |= eff[:, i].astype(np.int64) << i
    return masks


def shape_probability(mask: int, probs: np.ndarray, parents: np.ndarray) -> float:
    """Closed-form probability of one shape mask under independent split tests."""
    prob = 1.0
    for i in range(len(probs)):
        visible = parents[i] < 0 or (mask >> parents[i]) & 1
        bit = (mask >> i) & 1
        if not visible:
            if bit:
                raise ParameterError(f"mask {mask:b} sets bit {i} on an absent node")
            continue
        prob *= probs[i] if bit else 1.0 - probs[i]
    return float(prob)


def tree_shape_mask(
    tree: DecompTree, *, depth_cap: int, dims_per_level: int | None = None
) -> int:
    """Mask of a concrete built tree in the candidate-node numbering."""
    if dims_per_level is None:
        dims_per_level = tree.dims
    fanout = 1 << dims_per_level
    cols = _columns(tree)
    first, kids, depth = cols.first.tolist(), cols.kids.tolist(), cols.depth.tolist()
    mask = 0
    pairs = [(0, tree.root)]
    while pairs:
        ci, nid = pairs.pop()
        children = kids[first[nid] : first[nid + 1]]
        if not children:
            continue
        mask |= 1 << ci
        if depth[nid] < depth_cap - 1:
            if len(children) != fanout:
                raise InputDataError("tree fanout does not match candidate enumeration")
            # BFS numbering of the complete tree: candidate i's children
            pairs.extend((ci * fanout + 1 + c, cid) for c, cid in enumerate(children))
        elif any(first[c + 1] > first[c] for c in children):
            raise InputDataError("tree is deeper than the candidate depth cap")
    return mask
