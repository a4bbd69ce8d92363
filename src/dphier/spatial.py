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
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
import orjson

from .dp_core import DEFAULT_DEPTH_CAP, PrivacyParams, SplitMask, bfs_relabel
from .dp_core import biased_count, biased_split, check_tree_links, child_sums, float_texts
from .dp_core import grow_levels, json_value, laplace_sf, privtree_params, read_json
from .dp_core import sample_laplace
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
    "check_release_args",
    "load_points_csv",
    "load_tree",
    "load_workload_csv",
    "privtree_split_probabilities",
    "range_count",
    "range_counts",
    "release_privtree",
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
    """One region of a decomposition tree."""

    id: int
    depth: int
    lo: tuple
    hi: tuple
    children: list = field(default_factory=list)
    noisy_count: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DecompTree:
    """A released decomposition: its nodes plus build parameterization.

    ``params_info`` carries the four serialized keys (epsilon, lambda, theta,
    delta), with ``None`` where a builder has no such notion.

    The nodes are stored as :class:`_Columns` in BFS order, so the root is
    node 0 and every internal node has ``fanout`` children.  ``nodes`` given
    as :class:`TreeNode` values are read by :func:`tree_from_json_dict` from
    the document a file holding them would be.  ``nodes``, ``node(i)`` and
    ``leaves()`` make values on request; writing into one does not change
    the tree.  ``_view`` caches what :func:`range_counts` reads; code that
    changes counts must drop it, as :func:`attach_noisy_counts` does.
    """

    def __init__(self, nodes, fanout: int, params_info: dict | None = None):
        if not (isinstance(fanout, (int, np.integer)) and fanout >= 1):
            raise ParameterError(f"fanout must be an integer >= 1, got {fanout!r}")
        if not isinstance(nodes, _Columns):
            nodes = tree_from_json_dict(_node_document(nodes, int(fanout), params_info))._cols
        n = np.size(nodes.split)
        shapes = [np.shape(v) for v in (nodes.lo, nodes.hi, nodes.count, nodes.has_count)]
        if not (shapes[0] == shapes[1] and len(shapes[0]) == 2 and shapes[0][0] == n
                and shapes[2] == shapes[3] == (n,)):
            raise ParameterError(
                f"lo, hi, count and has_count have shapes {shapes}, but a split mask of "
                f"{n} nodes needs ({n}, d), ({n}, d), ({n},) and ({n},)"
            )
        self._cols = nodes
        self.fanout = int(fanout)
        self._shape = SplitMask(nodes.split, self.fanout)
        self.params_info = {} if params_info is None else params_info
        self._view: _TreeArrays | _Grid | None = None

    @property
    def root(self) -> int:
        return 0

    @property
    def nodes(self) -> list:
        return _column_nodes(self._cols, self._shape, np.arange(self.n_nodes))

    @property
    def dims(self) -> int:
        return self._cols.lo.shape[1]

    @property
    def domain(self) -> SpatialDomain:
        """The root's region."""
        return SpatialDomain(self._cols.lo[0], self._cols.hi[0])

    @property
    def n_nodes(self) -> int:
        return self._cols.split.size

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(~self._cols.split))

    def node(self, nid: int) -> TreeNode:
        return _column_nodes(self._cols, self._shape, np.array([nid]))[0]

    def leaves(self):
        return _column_nodes(self._cols, self._shape, np.flatnonzero(~self._cols.split))

    def to_json_dict(self) -> dict:
        """The release document as a dict, read back from :meth:`dumps`."""
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The release document: ``json.dumps(doc, sort_keys=True)`` of
        ``{"fanout", "params", "nodes": [{"children", "depth", "hi", "id",
        "lo", "noisy_count"?}]}``, written row by row from the columns; it
        defines the format."""
        cols = self._cols
        n = cols.split.size
        d = cols.lo.size // n if n else 0
        coords = ", ".join(["%s"] * d)
        row = (
            '{"children": [%s], "depth": %s, "hi": [' + coords
            + '], "id": %s, "lo": [' + coords + "]%s}"
        )
        slots = np.empty((n, 2 * d + 4), dtype=object)
        slots[:, 0] = ""
        slots[cols.split, 0] = [", ".join(map(str, row)) for row in self._shape.kids.tolist()]
        slots[:, 1] = self._shape.depth.tolist()
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
    if a.fanout != b.fanout:
        return False
    # a missing count is stored as 0.0, so the count columns compare as a whole
    return all(map(np.array_equal, a._cols, b._cols))


# ---------------------------------------------------------------------------
# column storage
# ---------------------------------------------------------------------------


class _Columns(NamedTuple):
    """A tree as one array per node field, indexed by node id in BFS order:
    ``lo`` and ``hi`` (N x d), the :class:`dphier.dp_core.SplitMask` mask
    ``split``, which implies the depths and children, and ``count``, a
    node's noisy count where ``has_count`` is set and 0.0 elsewhere."""

    lo: np.ndarray
    hi: np.ndarray
    split: np.ndarray
    count: np.ndarray
    has_count: np.ndarray


def _node_document(nodes: list, fanout: int, params_info: dict | None) -> dict:
    """The tree document of a list of :class:`TreeNode` values, each field
    (NumPy values too) made the JSON value a file would hold."""
    entries = [
        {key: np.asarray(val).tolist() for key in _NODE_FIELDS
         if (val := getattr(v, key)) is not None}
        for v in nodes
    ]
    return {"fanout": fanout, "params": params_info or {}, "nodes": entries}


def _column_nodes(cols: _Columns, shape: SplitMask, ids: np.ndarray) -> list:
    """:class:`TreeNode` values of the nodes ``ids``, made from the columns."""
    inner = ids[cols.split[ids]]
    kids = dict(zip(inner.tolist(), shape.kids[shape.rank[inner]].tolist()))
    fields = (shape.depth, cols.lo, cols.hi, cols.count, cols.has_count)
    return [
        TreeNode(nid, depth, tuple(lo), tuple(hi), kids.get(nid, []), c if has else None)
        for nid, depth, lo, hi, c, has in zip(ids.tolist(), *(a[ids].tolist() for a in fields))
    ]


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


def _split_geometry(cols: _Columns, shape: SplitMask, parents: np.ndarray):
    """(mids, code weights) of each parent's split, read from its first child:
    the lower half along every dimension where its box differs from the
    parent's.  Codes carry one bit per split dimension, in ascending order."""
    lo, hi, fanout = cols.lo[parents], cols.hi[parents], shape.fanout
    first = shape.kids[shape.rank[parents], 0]
    first_lo, first_hi = cols.lo[first], cols.hi[first]
    moved = (first_lo != lo) | (first_hi != hi)
    if (fanout != 1 << moved.sum(axis=1)).any() or (moved & (first_lo != lo)).any():
        raise InputDataError("tree children do not form a recognized bisection")
    return first_hi, (moved << (np.cumsum(moved, axis=1) - moved)).astype(np.int32)


def _child_codes(columns, items, parent, mids, weights):
    """Each item's child code: the weights of the dimensions in which it lies
    at or above its parent's mid.  Row ``j`` of ``columns`` (d x n) holds
    the items' coordinates in dimension ``j``, and row ``j`` of ``mids`` and
    ``weights`` (d x P, or d x 1 for a weight every parent shares) each
    parent's mid and code weight there, so each test gathers from contiguous
    rows."""
    code = np.zeros(items.size, dtype=np.int32)
    for j in np.flatnonzero(weights.any(axis=1)):
        w = weights[j]
        upper = columns[j].take(items) >= mids[j].take(parent)
        code += upper * (w[0] if w.size == 1 else w.take(parent))
    return code


def _grow(data: SpatialDataset, dims_per_level: int, rule):
    """Split loop of the recursive builders: ``rule(depth, counts, halvable)``
    decides a whole level from its exact counts, so noise is drawn level by
    level, in BFS order, on one stream.  ``halvable`` marks the nodes whose
    box has its midpoint strictly inside along every dimension split at
    their depth; the rule must split no other.  Child boxes are made a level
    at a time, by parent and then child code (bit j: the upper half along the
    j-th split dimension), so ids follow BFS order.

    Returns the columns, without counts, and the exact point count of every
    node in id order, as the walk found them: the points are partitioned
    once, down a column copy of their coordinates."""
    d = data.domain.dims
    fanout = 1 << dims_per_level
    columns = np.ascontiguousarray(data.points.T)
    los, his = [np.array([data.domain.lo])], [np.array([data.domain.hi])]
    sizes = []
    level_split = None

    def decide(depth, level_sizes, *_):
        nonlocal level_split
        sizes.append(level_sizes)
        lo, hi = los[-1], his[-1]
        with np.errstate(over="ignore"):  # an infinite midpoint is not inside
            mid = (lo + hi) / 2.0
        inside = ((lo < mid) & (mid < hi))[:, list(_dims_for_level(depth, d, dims_per_level))]
        level_split = np.asarray(rule(depth, level_sizes, inside.all(axis=1)), dtype=bool)
        return level_split

    def child_codes(depth, items, parent):
        lo, hi = los[-1][level_split], his[-1][level_split]
        mid = (lo + hi) / 2.0
        dims = list(_dims_for_level(depth, d, dims_per_level))
        weights = np.zeros((1, d), dtype=np.int32)
        weights[0, dims] = 1 << np.arange(dims_per_level)
        upper = (np.arange(fanout)[:, None] & weights) > 0  # fanout x d
        lower = (weights > 0) & ~upper
        los.append(np.where(upper, mid[:, None], lo[:, None]).reshape(-1, d))
        his.append(np.where(lower, mid[:, None], hi[:, None]).reshape(-1, d))
        return _child_codes(columns, items, parent, np.ascontiguousarray(mid.T), weights.T)

    split = np.concatenate(grow_levels(data.n, fanout, decide, child_codes))
    cols = _Columns(
        lo=np.concatenate(los), hi=np.concatenate(his), split=split,
        count=np.zeros(split.size), has_count=np.zeros(split.size, dtype=bool),
    )
    return cols, np.concatenate(sizes)


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
    released counts with :func:`attach_noisy_counts`, or make the whole
    release with :func:`release_privtree`.
    """
    return _privtree(data, params, rng, depth_cap, dims_per_level, noiseless)[0]


def _privtree(data, params, rng, depth_cap, dims_per_level, noiseless):
    """:func:`build_privtree`'s tree and the exact count of each of its
    nodes, in id order."""
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

    cols, sizes = _grow(data, dims_per_level, rule)
    info = {
        "epsilon": params.epsilon,
        "lambda": params.lam,
        "theta": params.theta,
        "delta": params.delta,
    }
    return DecompTree(cols, fanout, info), sizes


def check_release_args(epsilon, budget_split, fanout, depth_cap) -> None:
    """The checks of :func:`release_privtree` that need no data:
    ParameterError for an epsilon that is not positive, a budget split
    outside (0, 1), a negative depth cap, or a fanout that is not a power
    of two >= 2."""
    if epsilon is None or not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if not 0.0 < budget_split < 1.0:
        raise ParameterError("budget-split must be in (0, 1)")
    if depth_cap < 0:
        raise ParameterError("depth-cap must be nonnegative")
    if fanout is not None and (fanout < 2 or fanout & (fanout - 1)):
        raise ParameterError(f"fanout must be a power of two >= 2, got {fanout}")


def release_privtree(
    data: SpatialDataset,
    epsilon: float,
    *,
    budget_split: float = 0.5,
    fanout: int | None = None,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    theta: float = 0.0,
    seed: int = 0,
    noiseless: bool = False,
) -> DecompTree:
    """A PrivTree release with noisy leaf counts, as ``spatial-build`` makes it.

    ``epsilon * budget_split`` goes to the structure, with the minimum
    admissible noise scale (:func:`dphier.dp_core.privtree_params`), and the
    rest to the leaf counts, at Laplace scale ``1 / (epsilon - epsilon *
    budget_split)``.  ``fanout`` (a power of two, at most ``2**d``; default
    ``2**d``) sets how many dimensions are halved per level.  The structure
    draws from the first and the counts from the second stream of
    ``SeedSequence(seed).spawn(2)``.  The build's own walk gives the leaf
    counts, so the points are partitioned once; tree, bytes and both streams
    end as :func:`build_privtree` followed by :func:`attach_noisy_counts`
    leave them.
    """
    check_release_args(epsilon, budget_split, fanout, depth_cap)
    d = data.domain.dims
    dims_per_level = d if fanout is None else int(fanout).bit_length() - 1
    if dims_per_level > d:
        raise ParameterError(f"fanout {fanout} exceeds 2^d for d={d}")
    eps_tree = epsilon * budget_split
    eps_counts = epsilon - eps_tree
    params = privtree_params(eps_tree, 1 << dims_per_level, theta)
    if not eps_counts > 0:  # a tiny epsilon's product can round to epsilon
        raise ParameterError(f"epsilon_counts must be positive, got {eps_counts!r}")
    rng_tree, rng_counts = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
    tree, sizes = _privtree(data, params, rng_tree, depth_cap, dims_per_level, noiseless)
    return _set_leaf_counts(tree, sizes[~tree._cols.split], eps_counts, rng_counts, noiseless)


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

    cols, _ = _grow(data, d, rule)
    cols = cols._replace(count=np.concatenate(noisy), has_count=np.ones(cols.count.size, bool))
    info = {"epsilon": None, "lambda": float(lam), "theta": float(theta), "delta": None}
    return DecompTree(cols, 1 << d, info)


def build_ug(
    data: SpatialDataset,
    epsilon: float,
    rng: np.random.Generator | None = None,
    *,
    noiseless: bool = False,
) -> DecompTree:
    """Uniform-grid synopsis as a depth-1 tree with ``m**d`` leaf cells.

    Uses ``m = ceil((n * epsilon / 10) ** (2 / (d + 2)))`` bins per dimension
    and a per-cell noise scale of ``1 / epsilon``.  A point counts in the
    cell of the last edge not above it in each dimension (:func:`_grid_bins`),
    as ``np.histogramdd`` bins it; the counts are the ``np.bincount`` of the
    cells' C-order ids.  The domain's width must be finite.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if data.n < 1:
        raise ParameterError("uniform grid requires a nonempty dataset")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    d = data.domain.dims
    if not all(math.isfinite(b - a) for a, b in zip(data.domain.lo, data.domain.hi)):
        raise ParameterError("a uniform grid needs a domain of finite width")
    m = max(int(math.ceil((data.n * epsilon / 10.0) ** (2.0 / (d + 2.0)))), 1)
    edges, cell_lo, cell_hi = _grid_cells(data.domain.lo, data.domain.hi, m)
    cell = np.zeros(data.n, dtype=np.intp)
    for j, e in enumerate(edges):
        cell *= m
        cell += _grid_bins(data.points[:, j], e)
    counts = np.bincount(cell, minlength=m**d).astype(np.float64).reshape((m,) * d)
    noisy = counts if noiseless else counts + sample_laplace(
        1.0 / epsilon, rng, size=counts.shape
    )
    cells = m**d
    cols = _Columns(
        lo=np.vstack([data.domain.lo, cell_lo]), hi=np.vstack([data.domain.hi, cell_hi]),
        split=np.arange(cells + 1) == 0,
        count=np.append(0.0, noisy), has_count=np.arange(cells + 1) > 0,
    )
    info = {"epsilon": float(epsilon), "lambda": 1.0 / epsilon, "theta": None, "delta": None}
    return DecompTree(cols, cells, info)


# ---------------------------------------------------------------------------
# noisy-count postprocessing
# ---------------------------------------------------------------------------


def _leaf_exact_counts(tree: DecompTree, data: SpatialDataset) -> np.ndarray:
    """Exact point count of every leaf, in id order, from one level-by-level
    partition of the points down the tree."""
    if tree.domain != data.domain:
        raise InputDataError("tree domain does not match dataset domain")
    cols, shape, bounds = tree._cols, tree._shape, tree._shape.bounds
    columns = np.ascontiguousarray(data.points.T)
    sizes = np.zeros(cols.split.size, dtype=np.int64)

    def decide(depth, level_sizes, *_):
        sizes[bounds[depth] : bounds[depth + 1]] = level_sizes
        return cols.split[bounds[depth] : bounds[depth + 1]]

    def child_codes(depth, items, parent):
        a, b = bounds[depth], bounds[depth + 1]
        mids, weights = _split_geometry(cols, shape, a + np.flatnonzero(cols.split[a:b]))
        return _child_codes(columns, items, parent, np.ascontiguousarray(mids.T),
                            np.ascontiguousarray(weights.T))

    grow_levels(data.n, tree.fanout, decide, child_codes)
    return sizes[~cols.split]


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
    return _set_leaf_counts(tree, _leaf_exact_counts(tree, data), epsilon_counts, rng, noiseless)


def _set_leaf_counts(tree, exact, epsilon_counts, rng, noiseless) -> DecompTree:
    """``tree``, mutated to carry the leaf counts ``exact`` (in id order)
    plus one Laplace draw each at scale ``1 / epsilon_counts``, drawn in id
    order."""
    noisy = exact.astype(np.float64)
    if not noiseless:
        noisy += sample_laplace(1.0 / epsilon_counts, rng, size=noisy.size)
    cols, leaves = tree._cols, ~tree._cols.split
    count, has_count = cols.count.copy(), cols.has_count.copy()
    count[leaves], has_count[leaves] = noisy, True
    tree._cols = cols._replace(count=count, has_count=has_count)
    tree._view = None  # built from the old counts
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
    a leaf.  ``shape`` is the tree's :class:`dphier.dp_core.SplitMask`."""

    table: np.ndarray
    shape: SplitMask

    @classmethod
    def from_columns(cls, cols: _Columns, shape: SplitMask) -> _TreeArrays:
        lo, hi = cols.lo.T, cols.hi.T
        neg_width = lo - hi
        if not np.isfinite(neg_width).all():
            raise InputDataError("every region must have a finite width")
        count = _column_sums(cols, shape)
        own = cols.split & cols.has_count
        count[own] = cols.count[own]
        box = np.vstack([lo, -hi])
        inner_box = np.where(cols.split, box, np.inf)
        # take() copies a non-contiguous source on every call
        table = np.ascontiguousarray(np.vstack([box, neg_width, count, inner_box]))
        return cls(table, shape)


def _column_sums(cols: _Columns, shape: SplitMask) -> np.ndarray:
    """Sum of the leaves' noisy counts under every node, indexed by node id;
    an internal node adds its children one at a time, in child order."""
    if not cols.has_count[~cols.split].all():
        raise InputDataError(
            "tree has no noisy counts attached; run attach_noisy_counts first"
        )
    return shape.fold(cols.count)


# (query, node) pairs that one block of queries may create across its levels
# before range_counts splits the block; a single query is never split.
_PAIR_BUDGET = 1 << 16


def _answer_block(view: _TreeArrays, qbox, budget):
    """Answers of the queries ``qbox`` (2d x Q: lower bounds stacked on
    negated upper bounds) by a level-synchronous walk, or None once more
    than ``budget`` (query, node) pairs exist.

    Per pair, as in the scalar walk: disjoint adds 0, contained adds the
    node's count, a partially covered leaf adds its count times the covered
    volume fraction (a product over dimensions in order), and a partially
    covered internal node is replaced by the sum of its children's answers,
    folded bottom-up in child order.  Negating the upper bounds lets
    one ``maximum`` clip both faces and one ``>`` find where the query cuts
    the region.  Negation is exact, so every overlap, fraction and
    comparison equals its scalar counterpart bit for bit; a contained
    region's fraction is exactly 1, since its overlap is its width."""
    d = qbox.shape[0] // 2
    shape = view.shape
    query, ni = qbox, np.zeros(qbox.shape[1], dtype=np.intp)
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
            held += parents.size * shape.fanout
            if held > budget:
                return None
        ni = shape.children(parents)
        query = np.repeat(query.take(partial, axis=1), shape.fanout, axis=1)
        levels.append((value, partial))
    below = np.empty(0)
    for value, partial in reversed(levels):
        value[partial] = child_sums(below, shape.fanout)
        below = value
    return below


class _Grid(NamedTuple):
    """The view of a uniform grid: the ``linspace`` cell edges of each
    dimension and the cell counts (m x ... x m)."""

    edges: list
    counts: np.ndarray


def _grid_range_count(grid: _Grid, q: RangeQuery) -> float:
    edges, res = grid.edges, grid.counts
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
    effectively clipped to it.  A uniform grid, recognized at the first
    query (:func:`_detect_grid`), answers each query with one separable
    contraction instead.  Returns one float64 estimate per
    :class:`RangeQuery` in ``queries``, in order.
    """
    queries, dims = list(queries), tree.dims
    for q in queries:
        if q.dims != dims:
            raise InputDataError(f"query dimensionality {q.dims} does not match tree ({dims})")
    out = np.empty(len(queries))
    if not queries:
        return out
    if tree._view is None:
        tree._view = _detect_grid(tree._cols, tree.fanout)
        if tree._view is None:
            tree._view = _TreeArrays.from_columns(tree._cols, tree._shape)
    view = tree._view
    if isinstance(view, _Grid):
        return np.array([_grid_range_count(view, q) for q in queries])
    qbox = np.array([q.lo + q.hi for q in queries]).T
    qbox[dims:] *= -1.0
    start, block = 0, len(queries)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while start < len(queries):
            stop = min(start + block, len(queries))
            got = _answer_block(
                view, np.ascontiguousarray(qbox[:, start:stop]),
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
    """(values, at, depth, n_kids, kids, root) of a tree document's node
    entries, read a field at a time once their JSON types are checked:
    ``values``, the columns lo, hi, count and has_count in document order;
    ``at``, each id's document position; ``depth``, ``n_kids`` and ``kids``
    (each node's listed children in turn) in id order; and the root, the
    last depth-0 entry.  A defect goes to :func:`_raise_first_defect`."""
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
        at = np.full(n, -1)
        at[ids] = np.arange(n)
        lo, hi = lo.reshape(n, dims), hi.reshape(n, dims)
        zero = np.flatnonzero(depth == 0)
        if not ((at >= 0).all() and zero.size and np.isfinite(values).all()
                and np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValueError("a failing check")
    except (KeyError, TypeError, ValueError, OverflowError):
        _raise_first_defect(raw)
    has_count = np.fromiter(("noisy_count" in e for e in raw), bool, n)
    count = np.zeros(n)
    count[has_count] = values
    kids = kids[np.argsort(np.repeat(ids, n_kids), kind="stable")]  # by parent id
    return (lo, hi, count, has_count), at, depth[at], n_kids[at], kids, int(ids[zero[-1]])


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
    """A tree from its document, whose links form one tree, each child one
    level below its parent and each internal node with ``fanout`` children;
    ids are relabelled to BFS order, children in listed order (a writer's are)."""
    try:
        fanout, params_info, raw_nodes = (
            json_value(doc[key], kind, key)
            for key, kind in (("fanout", int), ("params", dict), ("nodes", list))
        )
        if fanout < 1:
            raise ValueError(f"fanout {fanout} is below 1")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed tree document: {exc}") from exc
    values, at, depth, n_kids, kids, root = _document_columns(raw_nodes)
    parents = np.repeat(np.arange(len(raw_nodes)), n_kids)
    check_tree_links(len(raw_nodes), root, parents, kids, depth[kids] == depth[parents] + 1)
    order, split = bfs_relabel(root, n_kids, kids, fanout, "tree")
    lo, hi, count, has_count = (v[at[order]] for v in values)
    return DecompTree(_Columns(lo, hi, split, count, has_count), fanout, dict(params_info))


def load_tree(path) -> DecompTree:
    return read_json(path, tree_from_json_dict)


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


def _grid_bins(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each value's cell among the ``m = e.size - 1`` cells of the
    non-decreasing edges ``e``, for values in ``[e[0], e[-1])``: the last
    edge not above it, so ``x`` lies in ``[e[c], e[c + 1])`` exactly, as a
    binary search (``np.searchsorted(e, x, side="right") - 1``) finds it.

    Arithmetic guesses it as ``min(floor((x - e[0]) * m / (e[-1] - e[0])),
    m - 1)``; the guesses that fail ``e[c] <= x < e[c + 1]`` (rounding puts
    a few values next to an edge one cell off) are replaced by a binary
    search of the edges, and so are all guesses when the width overflows."""
    m = e.size - 1
    lo, hi = float(e[0]), float(e[-1])
    c = np.zeros(x.size, dtype=np.intp)
    if math.isfinite((hi - lo) * m):
        np.minimum((x - lo) * m / (hi - lo), m - 1, out=c, casting="unsafe")
    miss = np.flatnonzero((e[c] > x) | (x >= e[c + 1]))
    c[miss] = np.searchsorted(e, x[miss], side="right") - 1
    return c


def _detect_grid(cols: _Columns, fanout: int) -> _Grid | None:
    """The view of a uniform grid, else None: a root whose ``fanout == m**d``
    children, all leaves with counts, are the only other nodes and are the
    cells of :func:`_grid_cells` over the root, in C order."""
    d = cols.lo.shape[1]
    m = round(fanout ** (1.0 / d))
    if not cols.split[0] or cols.split.size != fanout + 1 or m**d != fanout:
        return None
    edges, cell_lo, cell_hi = _grid_cells(cols.lo[0], cols.hi[0], m)
    cells = (cols.lo[1:] == cell_lo).all() and (cols.hi[1:] == cell_hi).all()
    if not (cells and cols.has_count[1:].all()):
        return None
    return _Grid(edges, cols.count[1:].reshape((m,) * d))


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


# _read_csv_floats reads a file in blocks of about this many bytes
_CSV_CHUNK = 1 << 18
_CSV_BYTES = b"0123456789.eE+-, \t\r\n"
# a -0 with no fraction or exponent, which JSON reads as the integer 0; it
# also matches an exponent e-0, which then goes to the line parser as well
_BARE_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _read_csv_floats(path, expected_fields=None) -> np.ndarray:
    """Rows of comma-separated floats as an (n, k) array, (0, 0) when empty.

    The file is read in blocks of about ``_CSV_CHUNK`` bytes, each cut after
    its last newline, and :func:`_csv_block` parses a block with ``orjson``.
    A JSON number is a Python float literal, and orjson reads it with the
    same bits as ``float()``, so the blocks accept no field that
    :func:`_parse_csv_floats` rejects and read every field they accept as it
    does.  If any block is refused (comments, blank lines, ``nan``, ``1_0``,
    ``+1``, ``1e400``, a bare ``-0``, a lone ``\\r``, ragged rows, a wrong
    width) or the file has no rows, that line parser reads the whole file
    again; it defines the grammar and reports errors by line number."""
    blocks, k = [], expected_fields
    with open(path, "rb") as fh:
        tail = b""
        while chunk := fh.read(_CSV_CHUNK):
            tail += chunk
            cut = tail.rfind(b"\n") + 1
            if cut:
                blocks.append(_csv_block(tail[:cut], k))
                tail = tail[cut:]
                if blocks[-1] is None:
                    break
                k = blocks[-1].shape[1]
        else:
            if tail:
                blocks.append(_csv_block(tail + b"\n", k))
    if blocks and all(b is not None for b in blocks):
        return np.concatenate(blocks)
    rows = _parse_csv_floats(path, expected_fields)
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 0))


def _csv_block(block: bytes, k: int | None) -> np.ndarray | None:
    """The rows of ``block``, whole lines that end in a newline, as an array
    of ``k`` columns (the first line's field count if ``k`` is None), or
    None unless every line holds ``k`` JSON numbers and nothing else.

    The lines become one JSON array with a ``null`` after each line; the
    nulls sit every ``k + 1`` entries exactly when every line has ``k``
    fields, since no other null can occur: ``n``, ``u`` and ``l`` are not in
    ``_CSV_BYTES``."""
    if block.translate(None, _CSV_BYTES):
        return None
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
        if b"\r" in block:  # a line break of its own to the line parser
            return None
    if b"-" in block and _BARE_MINUS_ZERO.search(block):
        return None
    lines = block.count(b"\n")
    if k is None:
        k = block.count(b",", 0, block.find(b"\n")) + 1
    try:
        vals = orjson.loads(b"[" + block[:-1].replace(b"\n", b",null,") + b",null]")
    except orjson.JSONDecodeError:
        return None
    if len(vals) != lines * (k + 1) or vals[k :: k + 1].count(None) != lines:
        return None
    del vals[k :: k + 1]
    return np.fromiter(vals, np.float64, lines * k).reshape(lines, k)


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
    shape = tree._shape
    inner = shape.depth[shape.split]
    if tree.fanout != fanout and (inner < depth_cap - 1).any():
        raise InputDataError("tree fanout does not match candidate enumeration")
    if (inner >= max(depth_cap, 1)).any():
        raise InputDataError("tree is deeper than the candidate depth cap")
    mask, cand = 0, [0] * shape.split.size  # each node's candidate number
    for nid, kids in zip(np.flatnonzero(shape.split).tolist(), shape.kids.tolist()):
        mask |= 1 << cand[nid]
        # BFS numbering of the complete tree: candidate i's children
        for c, kid in enumerate(kids):
            cand[kid] = cand[nid] * fanout + 1 + c
    return mask
