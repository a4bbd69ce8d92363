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

import numpy as np

from .dp_core import DEFAULT_DEPTH_CAP, PrivacyParams, biased_count, biased_split
from .dp_core import check_tree_links, grow_levels, laplace_sf, sample_laplace
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
    "infer_domain",
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

    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))


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

    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))


@dataclass
class DecompTree:
    """A released decomposition: node arena plus build parameterization.

    ``params`` is set for bias-decayed builds; ``params_info`` always carries
    the four serialized keys (epsilon, lambda, theta, delta), with ``None``
    where a builder has no such notion.
    """

    nodes: list
    fanout: int
    params: PrivacyParams | None = None
    params_info: dict = field(default_factory=dict)
    root: int = 0
    _arrays: _TreeArrays | None = field(default=None, repr=False, compare=False)
    _grid: dict | None = field(default=None, repr=False, compare=False)

    @property
    def dims(self) -> int:
        return len(self.nodes[self.root].lo)

    def node(self, nid: int) -> TreeNode:
        return self.nodes[nid]

    def leaves(self):
        return [v for v in self.nodes if v.is_leaf]

    def invalidate_caches(self) -> None:
        self._arrays = None

    def to_json_dict(self) -> dict:
        """Serializable release form; refuses to leak exact counts."""
        keys = ("epsilon", "lambda", "theta", "delta")
        out_nodes = []
        for v in self.nodes:
            if v.exact_count is not None:
                raise InputDataError(
                    "tree still carries exact counts; refusing to serialize"
                )
            entry = {
                "id": v.id,
                "depth": v.depth,
                "lo": list(v.lo),
                "hi": list(v.hi),
                "children": list(v.children),
            }
            if v.noisy_count is not None:
                entry["noisy_count"] = float(v.noisy_count)
            out_nodes.append(entry)
        return {
            "fanout": self.fanout,
            "params": {k: self.params_info.get(k) for k in keys},
            "nodes": out_nodes,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")


def trees_equal(a: DecompTree, b: DecompTree) -> bool:
    """Exact structural equality (regions, depths, children, counts)."""
    if a.fanout != b.fanout or len(a.nodes) != len(b.nodes) or a.root != b.root:
        return False
    for va, vb in zip(a.nodes, b.nodes):
        if (va.depth, va.lo, va.hi, list(va.children)) != (
            vb.depth,
            vb.lo,
            vb.hi,
            list(vb.children),
        ):
            return False
        if (va.noisy_count is None) != (vb.noisy_count is None):
            return False
        if va.noisy_count is not None and va.noisy_count != vb.noisy_count:
            return False
    return True


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


def _child_regions(lo, hi, dims):
    """All 2^len(dims) half-open sub-boxes, ordered by child code (bit j of the
    code selects the upper half along dims[j])."""
    mids = [(lo[j] + hi[j]) / 2.0 for j in dims]
    out = []
    for code in range(1 << len(dims)):
        clo, chi = list(lo), list(hi)
        for j, (dim, mid) in enumerate(zip(dims, mids)):
            if (code >> j) & 1:
                clo[dim] = mid
            else:
                chi[dim] = mid
        out.append((tuple(clo), tuple(chi)))
    return out


def _resolve_dims_per_level(data: SpatialDataset, dims_per_level):
    d = data.domain.dims
    if dims_per_level is None:
        return d
    if not 1 <= dims_per_level <= d:
        raise ParameterError(
            f"dims_per_level must be in [1, {d}], got {dims_per_level!r}"
        )
    return int(dims_per_level)


def _split_geometry(nodes: list, parents: list, fanout: int):
    """(mids, code weights) of each parent's split, read from its first child:
    the lower half along every dimension where its box differs from the
    parent's.  Codes carry one bit per split dimension, in ascending order."""
    lo = np.array([v.lo for v in parents])
    hi = np.array([v.hi for v in parents])
    first = [nodes[v.children[0]] for v in parents]
    first_lo = np.array([v.lo for v in first])
    first_hi = np.array([v.hi for v in first])
    moved = (first_lo != lo) | (first_hi != hi)
    n_kids = np.array([len(v.children) for v in parents])
    bad = (n_kids != fanout) | (n_kids != 1 << moved.sum(axis=1))
    if bad.any() or (moved & (first_lo != lo)).any():
        raise InputDataError("tree children do not form a recognized bisection")
    return first_hi, (moved << (np.cumsum(moved, axis=1) - moved)).astype(np.int32)


def _walk(nodes: list, root: int, data: SpatialDataset, fanout: int, visit) -> None:
    """Partition the points down a tree of TreeNodes, one level at a time.

    ``visit(depth, level, counts)`` gets the level's nodes and exact point
    counts and returns the split mask; a builder adds the splitting nodes'
    children before returning, a replay finds them in place."""
    level = [nodes[root]]

    def decide(depth, sizes, items):
        nonlocal level
        split = visit(depth, level, sizes)
        level = [v for v, s in zip(level, split) if s]
        return split

    def child_codes(depth, items, parent):
        # level holds the splitting parents here; advance it to their children
        nonlocal level
        mids, weights = _split_geometry(nodes, level, fanout)
        level = [nodes[c] for v in level for c in v.children]
        code = np.zeros(items.size, dtype=np.int32)
        for j in np.flatnonzero(weights.any(axis=0)):
            code += (data.points[items, j] >= mids[parent, j]) * weights[parent, j]
        return code

    grow_levels(data.n, fanout, decide, child_codes)


def _grow(data: SpatialDataset, dims_per_level: int, rule):
    """Split loop of the recursive builders: ``rule(depth, level, counts)``
    decides a whole level from its exact counts, so noise is drawn level by
    level, in BFS order, on one stream."""
    d = data.domain.dims
    nodes = [TreeNode(id=0, depth=0, lo=data.domain.lo, hi=data.domain.hi)]

    def visit(depth, level, counts):
        split = rule(depth, level, counts)
        dims = _dims_for_level(depth, d, dims_per_level)
        for node, s in zip(level, split.tolist()):
            if s:
                for clo, chi in _child_regions(node.lo, node.hi, dims):
                    node.children.append(len(nodes))
                    nodes.append(TreeNode(id=len(nodes), depth=depth + 1, lo=clo, hi=chi))
        return split

    _walk(nodes, 0, data, 1 << dims_per_level, visit)
    return nodes


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
    draw no noise.  The returned tree has all point counts removed; attach
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

    def rule(depth, level, counts):
        eligible = np.full(counts.size, depth < depth_cap)
        return biased_split(counts, depth, params, rng, eligible, noiseless)

    nodes = _grow(data, dims_per_level, rule)
    info = {
        "epsilon": params.epsilon,
        "lambda": params.lam,
        "theta": params.theta,
        "delta": params.delta,
    }
    return DecompTree(nodes=nodes, fanout=fanout, params=params, params_info=info)


def build_simple_tree(
    data: SpatialDataset,
    lam: float,
    theta: float,
    h: int,
    rng: np.random.Generator | None = None,
    *,
    dims_per_level: int | None = None,
    noiseless: bool = False,
) -> DecompTree:
    """Fixed-height noisy decomposition: every node carries a noisy count.

    A node splits when its noisy count exceeds ``theta`` and its depth is
    below ``h - 1``, so the tree has at most ``h`` levels.  The caller is
    responsible for ``lam >= h / epsilon`` when an epsilon-private release is
    intended.
    """
    if not (isinstance(h, (int, np.integer)) and h >= 1):
        raise ParameterError(f"height h must be an integer >= 1, got {h!r}")
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    dims_per_level = _resolve_dims_per_level(data, dims_per_level)

    def rule(depth, level, counts):
        c_hat = counts.astype(np.float64)
        if not noiseless:
            c_hat += sample_laplace(lam, rng, size=counts.size)
        for node, c in zip(level, c_hat.tolist()):
            node.noisy_count = c
        return (c_hat > theta) & (depth < h - 1)

    nodes = _grow(data, dims_per_level, rule)
    info = {"epsilon": None, "lambda": float(lam), "theta": float(theta), "delta": None}
    return DecompTree(nodes=nodes, fanout=1 << dims_per_level, params_info=info)


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
    m = int(math.ceil((data.n * epsilon / 10.0) ** (2.0 / (d + 2.0))))
    m = max(m, 1)
    edges = [
        np.linspace(data.domain.lo[j], data.domain.hi[j], m + 1) for j in range(d)
    ]
    counts, _ = np.histogramdd(data.points, bins=edges)
    noisy = counts if noiseless else counts + sample_laplace(
        1.0 / epsilon, rng, size=counts.shape
    )
    root = TreeNode(id=0, depth=0, lo=data.domain.lo, hi=data.domain.hi)
    nodes = [root]
    flat = noisy.reshape(-1)
    for k, mi in enumerate(np.ndindex(counts.shape)):
        lo = tuple(float(edges[j][mi[j]]) for j in range(d))
        hi = tuple(float(edges[j][mi[j] + 1]) for j in range(d))
        child = TreeNode(
            id=k + 1, depth=1, lo=lo, hi=hi, noisy_count=float(flat[k])
        )
        root.children.append(child.id)
        nodes.append(child)
    info = {"epsilon": float(epsilon), "lambda": 1.0 / epsilon, "theta": None, "delta": None}
    tree = DecompTree(nodes=nodes, fanout=m**d, params_info=info)
    tree._grid = {"edges": edges, "counts": noisy}
    return tree


# ---------------------------------------------------------------------------
# noisy-count postprocessing
# ---------------------------------------------------------------------------


def _leaf_exact_counts(tree: DecompTree, data: SpatialDataset) -> dict:
    root = tree.node(tree.root)
    if tuple(root.lo) != data.domain.lo or tuple(root.hi) != data.domain.hi:
        raise InputDataError("tree domain does not match dataset domain")
    out = {}

    def visit(depth, level, counts):
        out.update((v.id, c) for v, c in zip(level, counts.tolist()) if v.is_leaf)
        return [not v.is_leaf for v in level]

    _walk(tree.nodes, tree.root, data, tree.fanout, visit)
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
    for nid, c in zip(ids, noisy.tolist()):
        tree.node(nid).noisy_count = c
    tree.invalidate_caches()
    tree._grid = None  # grid fast-path cache would now be stale
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
    a leaf.  The children of node ``i`` are ``kids[first[i]:first[i + 1]]``
    in stored order, and ``fanout`` is their number when every internal node
    has the same number (else 0)."""

    table: np.ndarray
    first: np.ndarray
    kids: np.ndarray
    fanout: int


def _child_table(nodes: list):
    """(first, kids, fanout) of :class:`_TreeArrays`."""
    n_kids = np.fromiter((len(v.children) for v in nodes), np.int64, len(nodes))
    first = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(n_kids, out=first[1:])
    kids = np.fromiter(
        (c for v in nodes for c in v.children), np.int64, int(first[-1])
    )
    sizes = np.unique(n_kids[n_kids > 0])
    return first, kids, int(sizes[0]) if sizes.size == 1 else 0


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


def _subtree_sums(tree: DecompTree) -> np.ndarray:
    """Sum of the leaves' noisy counts under every node, indexed by node id;
    an internal node adds its children one at a time, in stored order."""
    if any(v.is_leaf and v.noisy_count is None for v in tree.nodes):
        raise InputDataError(
            "tree has no noisy counts attached; run attach_noisy_counts first"
        )
    first, kids, fanout = _child_table(tree.nodes)
    sums = np.array(
        [0.0 if v.noisy_count is None else v.noisy_count for v in tree.nodes]
    )
    levels = []
    level = np.array([tree.root])
    while level.size:
        inner = level[first[level + 1] > first[level]]
        level, k = _children(first, kids, fanout, inner)
        levels.append((inner, level, k))
    for inner, children, k in reversed(levels):
        sums[inner] = _fold(sums[children], k)
    return sums


def _tree_arrays(tree: DecompTree) -> _TreeArrays:
    """The tree's cached array view, built on first use after counts are
    attached (:func:`attach_noisy_counts` drops it)."""
    if tree._arrays is None:
        lo = np.array([v.lo for v in tree.nodes], dtype=np.float64).T
        hi = np.array([v.hi for v in tree.nodes], dtype=np.float64).T
        neg_width = lo - hi
        if not np.isfinite(neg_width).all():
            raise InputDataError("every region must have a finite width")
        count = _subtree_sums(tree)
        own = [
            i for i, v in enumerate(tree.nodes) if v.children and v.noisy_count is not None
        ]
        count[own] = [tree.nodes[i].noisy_count for i in own]
        first, kids, fanout = _child_table(tree.nodes)
        box = np.vstack([lo, -hi])
        inner_box = np.where(first[1:] > first[:-1], box, np.inf)
        # take() copies a non-contiguous source on every call
        table = np.ascontiguousarray(np.vstack([box, neg_width, count, inner_box]))
        tree._arrays = _TreeArrays(table, first, kids, fanout)
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
    queries = list(queries)
    for q in queries:
        if q.dims != tree.dims:
            raise InputDataError(
                f"query dimensionality {q.dims} does not match tree ({tree.dims})"
            )
    if tree._grid is not None:
        return np.array([_grid_range_count(tree, q) for q in queries], dtype=np.float64)
    out = np.empty(len(queries))
    if not queries:
        return out
    view = _tree_arrays(tree)
    qbox = np.array([q.lo + q.hi for q in queries]).T
    qbox[tree.dims :] *= -1.0
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


def tree_from_json_dict(doc: dict) -> DecompTree:
    try:
        fanout = int(doc["fanout"])
        params_info = dict(doc["params"])
        raw_nodes = doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise InputDataError(f"malformed tree document: {exc}") from exc
    nodes = [None] * len(raw_nodes)
    root = dims = None
    for entry in raw_nodes:
        node = TreeNode(
            id=int(entry["id"]),
            depth=int(entry["depth"]),
            lo=tuple(float(v) for v in entry["lo"]),
            hi=tuple(float(v) for v in entry["hi"]),
            children=[int(c) for c in entry["children"]],
            noisy_count=(
                float(entry["noisy_count"]) if "noisy_count" in entry else None
            ),
        )
        if not 0 <= node.id < len(raw_nodes) or nodes[node.id] is not None:
            raise InputDataError(f"bad or duplicate node id {node.id}")
        dims = len(node.lo) if dims is None else dims
        if not dims or len(node.lo) != dims or len(node.hi) != dims:
            raise InputDataError(
                f"node {node.id}: lo and hi must have as many entries as in every node"
            )
        values = node.lo + node.hi + (() if node.noisy_count is None else (node.noisy_count,))
        if not all(map(math.isfinite, values)):
            raise InputDataError(f"node {node.id}: lo, hi and noisy_count must be finite")
        if any(not 0 <= c < len(raw_nodes) for c in node.children):
            raise InputDataError(f"node {node.id} references an unknown child id")
        nodes[node.id] = node
        if node.depth == 0:
            root = node.id
    if root is None:
        raise InputDataError("tree document has no depth-0 root node")
    check_tree_links(
        len(nodes),
        root,
        ((v.id, c, nodes[c].depth == v.depth + 1) for v in nodes for c in v.children),
    )
    tree = DecompTree(nodes=nodes, fanout=fanout, params_info=params_info, root=root)
    tree._grid = _detect_grid(tree)
    return tree


def load_tree(path) -> DecompTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"{path}: invalid JSON ({exc})") from exc
    return tree_from_json_dict(doc)


def _detect_grid(tree: DecompTree):
    """Re-tag uniform grids after deserialization so queries stay fast."""
    root = tree.node(tree.root)
    if root.is_leaf or len(tree.nodes) != len(root.children) + 1:
        return None
    d = tree.dims
    m = round(tree.fanout ** (1.0 / d))
    if m**d != tree.fanout or len(root.children) != tree.fanout:
        return None
    edges = [np.linspace(root.lo[j], root.hi[j], m + 1) for j in range(d)]
    counts = np.empty((m,) * d, dtype=np.float64)
    for k, mi in enumerate(np.ndindex(counts.shape)):
        child = tree.node(root.children[k])
        exp_lo = tuple(float(edges[j][mi[j]]) for j in range(d))
        exp_hi = tuple(float(edges[j][mi[j] + 1]) for j in range(d))
        if not child.is_leaf or child.lo != exp_lo or child.hi != exp_hi:
            return None
        if child.noisy_count is None:
            return None
        counts[mi] = child.noisy_count
    return {"edges": edges, "counts": counts}


def infer_domain(points: np.ndarray, pad: float = 1e-9) -> SpatialDomain:
    """Bounding-box domain of a point set.

    The upper bound is nudged above the max so points satisfy the half-open
    convention.  NOTE: inferring the domain from the data is itself
    data-dependent and hence privacy-relevant; prefer fixed, public bounds.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputDataError("cannot infer a domain from an empty point set")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    hi = hi + pad * span
    return SpatialDomain(lo=tuple(lo), hi=tuple(hi))


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
    """Read queries as lines ``lo1,...,lod,hi1,...,hid``."""
    rows = _read_csv_floats(path, expected_fields=2 * dims).tolist()
    return [RangeQuery(lo=tuple(row[:dims]), hi=tuple(row[dims:])) for row in rows]


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
    depth_cap) of the complete tree in BFS order; the root's parent is -1."""
    dims_per_level = _resolve_dims_per_level(data, dims_per_level)
    fanout = 1 << dims_per_level
    if params.beta != fanout:
        raise ParameterError("params.beta does not match the split fanout")
    levels = []

    def rule(depth, level, counts):
        levels.append(counts)
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
    # nodes with depth < depth_cap in the complete tree, at least the root
    ndec = max(1, (fanout**depth_cap - 1) // (fanout - 1))
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
    mask = 0
    pairs = [(0, tree.root)]
    while pairs:
        ci, nid = pairs.pop()
        node = tree.node(nid)
        if node.is_leaf:
            continue
        mask |= 1 << ci
        if node.depth < depth_cap - 1:
            if len(node.children) != fanout:
                raise InputDataError("tree fanout does not match candidate enumeration")
            # BFS numbering of the complete tree: candidate i's children
            pairs.extend((ci * fanout + 1 + c, cid) for c, cid in enumerate(node.children))
        elif any(not tree.node(c).is_leaf for c in node.children):
            raise InputDataError("tree is deeper than the candidate depth cap")
    return mask
