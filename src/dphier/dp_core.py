"""Laplace primitives, privacy parameterization, split-cost bounds and the split engine.

Everything here is pure given an explicit ``numpy.random.Generator``; callers
that need parallelism should hand each worker its own stream (e.g. via
``numpy.random.SeedSequence.spawn``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import InputDataError, ParameterError

__all__ = [
    "Artifact",
    "DEFAULT_DEPTH_CAP",
    "PrivacyParams",
    "SplitMask",
    "bfs_relabel",
    "biased_count",
    "biased_split",
    "check_tree_links",
    "child_sums",
    "compose_budgets",
    "float_texts",
    "grow_levels",
    "json_value",
    "laplace_cdf",
    "laplace_pdf",
    "laplace_sf",
    "privtree_params",
    "read_json",
    "rho",
    "rho_upper",
    "sample_laplace",
]

_LN2 = math.log(2.0)

# Builds stop splitting at this depth, which bounds the height of a tree;
# boxes too small to halve in float arithmetic never split at any depth (see
# spatial._grow).  The cap is data-independent and therefore privacy-neutral;
# nodes at the cap are leaves and draw no split noise.
DEFAULT_DEPTH_CAP = 40


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise ParameterError(f"Laplace scale must be positive, got {scale!r}")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy parameterization of a bias-decayed decomposition build.

    Attributes:
        epsilon: total privacy budget allocated to the tree structure.
        lam: Laplace scale used for split decisions.
        theta: split threshold.
        gamma: bias per unit of noise scale, ``delta / lam``.
        beta: tree fanout (children per split).
    """

    epsilon: float
    lam: float
    theta: float
    gamma: float
    beta: int

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon!r}")
        _check_scale(self.lam)
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma!r}")
        if not (isinstance(self.beta, (int, np.integer)) and self.beta >= 2):
            raise ParameterError(f"beta must be an integer >= 2, got {self.beta!r}")

    @property
    def delta(self) -> float:
        """Per-level bias subtracted from the score (decaying factor)."""
        return self.gamma * self.lam


def privtree_params(
    epsilon: float, beta: int, theta: float = 0.0, *, sensitivity: float = 1.0
) -> PrivacyParams:
    """Derive the tightest valid parameters for a fanout-``beta`` build.

    Uses the minimum admissible noise scale
    ``lam = (2*beta - 1) / (beta - 1) * sensitivity / epsilon`` and the
    convergence-friendly bias ``delta = lam * ln(beta)``.  ``sensitivity``
    scales the noise for score functions whose per-record influence exceeds 1
    (e.g. length-capped sequence scores).
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if not (isinstance(beta, (int, np.integer)) and beta >= 2):
        raise ParameterError(f"beta must be an integer >= 2, got {beta!r}")
    if not sensitivity > 0:
        raise ParameterError(f"sensitivity must be positive, got {sensitivity!r}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta!r}")
    return PrivacyParams(
        epsilon=float(epsilon),
        lam=(2.0 * beta - 1.0) / (beta - 1.0) * sensitivity / epsilon,
        theta=theta,
        gamma=math.log(beta),
        beta=int(beta),
    )


def compose_budgets(budgets) -> float:
    """Total budget consumed by running the given mechanisms in sequence."""
    budgets = list(budgets)
    if not budgets:
        raise ParameterError("budget list must be nonempty")
    for b in budgets:
        if not b > 0:
            raise ParameterError(f"all budgets must be positive, got {b!r}")
    return math.fsum(budgets)


def sample_laplace(scale: float, rng: np.random.Generator, size=None):
    """Draw zero-mean Laplace noise with the given scale.

    Sampling is an inverse-CDF transform of exactly one uniform draw per
    sample, so results are reproducible across platforms for a fixed stream.
    Returns a float for ``size=None``, else an ndarray.
    """
    _check_scale(scale)
    u = rng.random() if size is None else rng.random(size)
    return _laplace_ppf(u, scale)


def _laplace_ppf(u, scale: float):
    # u in [0, 1); guard the u == 0 endpoint, which would map to -inf.
    u = np.asarray(u, dtype=np.float64)
    tiny = np.finfo(np.float64).tiny
    lower = scale * np.log(np.maximum(2.0 * u, tiny))
    upper = -scale * np.log(np.maximum(2.0 * (1.0 - u), tiny))
    out = np.where(u < 0.5, lower, upper)
    return float(out) if out.ndim == 0 else out


def laplace_pdf(x, scale: float):
    """Density of the zero-mean Laplace distribution at ``x``."""
    _check_scale(scale)
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(-np.abs(x) / scale) / (2.0 * scale)
    return float(out) if out.ndim == 0 else out


def laplace_cdf(x, scale: float):
    """P[Lap(scale) <= x], evaluated in closed form as ``laplace_sf(-x)``."""
    return laplace_sf(-np.asarray(x, dtype=np.float64), scale)


def laplace_sf(x, scale: float):
    """P[Lap(scale) > x] (survival function), evaluated in closed form."""
    _check_scale(scale)
    x = np.asarray(x, dtype=np.float64)
    e = 0.5 * np.exp(np.minimum(x, -x) / scale)  # -abs(x), keeping the sign of a NaN
    out = np.where(x >= 0, e, 1.0 - e)
    return float(out) if out.ndim == 0 else out


def rho(x, theta: float, lam: float):
    """Per-node split-decision privacy cost at score ``x``.

    Computes ``ln( P[x + Lap(lam) > theta] / P[x - 1 + Lap(lam) > theta] )``
    from closed-form Laplace tails.  The evaluation is piecewise with branch
    points at ``x = theta`` and ``x = theta + 1`` so that the bound
    ``rho <= rho_upper`` holds without floating-point violations:

    * ``x <= theta``: both tails are in the exponential regime and the ratio
      is exactly ``exp(1/lam)``, so the value ``1/lam`` is returned directly.
    * ``theta < x < theta + 1``: evaluated via ``log1p`` and clamped to
      ``1/lam``, the proven ceiling, so rounding cannot cross it.
    * ``x >= theta + 1``: ``log1p`` keeps the tails' difference accurate, capped
      at :func:`rho_upper` only where that is subnormal and rounding crosses it.
    """
    _check_scale(lam)
    x = np.asarray(x, dtype=np.float64)
    u = theta - x  # numerator tail argument; denominator uses u + 1
    flat = 1.0 / lam
    with np.errstate(over="ignore"):
        mid = np.minimum(
            flat,
            np.log1p(-0.5 * np.exp(np.minimum(u, 0.0) / lam)) + _LN2 + (u + 1.0) / lam,
        )
        tail = np.log1p(-0.5 * np.exp(np.minimum(u, 0.0) / lam)) - np.log1p(
            -0.5 * np.exp(np.minimum(u + 1.0, 0.0) / lam)
        )
    upper = rho_upper(x, theta, lam)
    tail = np.where(upper < np.finfo(np.float64).tiny, np.minimum(tail, upper), tail)
    out = np.where(u >= 0.0, flat, np.where(u + 1.0 > 0.0, mid, tail))
    return float(out) if out.ndim == 0 else out


def rho_upper(x, theta: float, lam: float):
    """Exponential-decay upper bound on :func:`rho`.

    Equals ``1/lam`` for ``x < theta + 1`` and
    ``(1/lam) * exp((theta + 1 - x) / lam)`` beyond.
    """
    _check_scale(lam)
    x = np.asarray(x, dtype=np.float64)
    flat = 1.0 / lam
    decay = flat * np.exp(np.minimum(theta + 1.0 - x, 0.0) / lam)
    out = np.where(x < theta + 1.0, flat, decay)
    return float(out) if out.ndim == 0 else out


def biased_count(c, depth, theta: float, delta: float):
    """Depth-biased split score ``max(theta - delta, c - depth * delta)``,
    elementwise over arrays; a float for scalar inputs."""
    out = np.maximum(theta - delta, np.asarray(c) - depth * delta)
    return float(out) if out.ndim == 0 else out


def biased_split(score, depth: int, params: PrivacyParams, rng, eligible, noiseless=False):
    """Split mask of one tree level: eligible nodes split when
    ``biased_count(score) + Lap(params.lam) > params.theta``, with one batched
    draw in level order (bit for bit one scalar draw per node in BFS order).
    Ineligible nodes draw nothing and never split."""
    b = biased_count(np.asarray(score)[eligible], depth, params.theta, params.delta)
    if not noiseless:
        b = b + sample_laplace(params.lam, rng, size=b.size)
    split = np.zeros(len(eligible), dtype=bool)
    split[eligible] = b > params.theta
    return split


def grow_levels(n_items: int, fanout: int, decide, child_codes) -> list:
    """Walk a tree level by level, in BFS order, with ``n_items`` items
    (points, sequence positions) that all start at the root, and return the
    split mask of every level, the last one without a split.

    Items never move: ``items`` holds the ids still in play, in id order, and
    ``node`` each one's node index on the current level.
    ``decide(depth, sizes, items, node)`` returns the level's split mask from
    each node's item count (``sizes``); the items of a node that does not
    split leave play.  ``child_codes(depth, items, parent)`` gives each item
    left a child code in ``[0, fanout)``; ``parent`` ranks the item's node
    among the splitting nodes, and the s-th one's children are
    ``s * fanout + code`` on the next level.  The walk ends at the first
    level where no node splits.
    """
    items = np.arange(n_items)
    node = np.zeros(n_items, dtype=np.intp)
    n_nodes, depth, masks = 1, 0, []
    while True:
        sizes = np.bincount(node, minlength=n_nodes)
        split = np.asarray(decide(depth, sizes, items, node), dtype=bool)
        masks.append(split)
        if not split.any():
            return masks
        keep = split[node]
        items, node = items[keep], node[keep]
        parent = (np.cumsum(split) - 1)[node]
        node = child_codes(depth, items, parent) + parent * fanout
        n_nodes = np.count_nonzero(split) * fanout
        depth += 1


def child_sums(values, fanout: int) -> np.ndarray:
    """Sum of each block of ``fanout`` consecutive entries (rows) of
    ``values``, added one at a time, in order, starting from 0.0: the
    arithmetic of ``sum(block)``, so results are bit-identical to it."""
    # accumulate adds strictly left to right from the first entry, not 0.0,
    # which only turns sum()'s +0.0 into -0.0; the trailing + 0.0 undoes it
    blocks = values.reshape(-1, fanout, *values.shape[1:])
    return np.add.accumulate(blocks, axis=1)[:, -1] + 0.0


class SplitMask:
    """A tree numbered in BFS order, as ``split[i]``: node ``i`` splits into
    ``fanout`` children.  The s-th splitting node (``rank`` s) has the
    children ``1 + s * fanout + code``, ``code`` in ``[0, fanout)``; so level
    ``k`` holds the ids ``bounds[k]`` to ``bounds[k + 1] - 1``, node ``i``
    lies on level ``depth[i]``, and row s of ``kids`` holds the s-th
    splitting node's children in child order."""

    def __init__(self, split, fanout: int):
        split = np.asarray(split, dtype=bool)
        bounds = [0, 1]
        while bounds[-1] > bounds[-2]:
            a, b = bounds[-2:]
            bounds.append(b + fanout * int(np.count_nonzero(split[a:b])))
        bounds.pop()
        if bounds[-1] != split.size:
            raise ParameterError(f"a split mask of {split.size} nodes implies {bounds[-1]}")
        self.split, self.fanout, self.bounds = split, int(fanout), bounds
        self.rank = np.cumsum(split) - 1
        self.depth = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        self.kids = np.arange(1, split.size).reshape(-1, fanout)

    def children(self, parents) -> np.ndarray:
        """The children of the splitting nodes ``parents``, in child order."""
        return self.kids.take(self.rank.take(parents), axis=0).ravel()

    def fold(self, values) -> np.ndarray:
        """``values`` (an entry or row per node), with each splitting node's the
        :func:`child_sums` of its children's, deepest level first."""
        out = np.array(values, dtype=np.float64)
        b = self.bounds
        for k in range(len(b) - 3, -1, -1):
            inner = b[k] + np.flatnonzero(self.split[b[k] : b[k + 1]])
            out[inner] = child_sums(out[b[k + 1] : b[k + 2]], self.fanout)
        return out


def bfs_relabel(root: int, n_kids, kids, fanout: int, name: str):
    """(order, split): the id of each node in BFS order, and the tree's
    :class:`SplitMask` mask.  Node ``i`` has the ``n_kids[i]`` children that
    ``kids`` lists node after node, in child order, and the links form one
    tree under ``root``; InputDataError if some ``n_kids`` is not 0 or
    ``fanout``, naming the ``name``'s fanout."""
    wrong = np.flatnonzero((n_kids > 0) & (n_kids != fanout))
    if wrong.size:
        nid = int(wrong[0])
        raise InputDataError(
            f"node {nid} has {n_kids[nid]} children, but the {name}'s fanout is {fanout}"
        )
    inner, kids = n_kids > 0, kids.reshape(-1, fanout)
    rank = np.cumsum(inner) - 1
    level, order, split = np.array([root]), [], []
    while level.size:
        order.append(level)
        split.append(inner[level])
        level = kids[rank[level[split[-1]]]].ravel()
    return np.concatenate(order), np.concatenate(split)


def float_texts(values) -> np.ndarray:
    """The JSON text of each value of a float array, as ``json.dumps`` writes
    it (``NaN`` and ``Infinity`` included), in an object array of its shape.

    The texts are made once per distinct value, taken by bit pattern so that
    ``-0.0`` stays apart from ``0.0``: a tree's regions repeat few distinct
    coordinates many times.  ``json.dumps`` writes a float as ``repr`` does,
    which is in positional notation exactly when ``1e-4 <= |v| < 1e16``;
    ``orjson.dumps`` writes the same shortest digits, so the values in that
    range take orjson's text, unless it holds an exponent after all.  All
    other values (zeros, smaller and larger magnitudes, NaN, infinities) go
    through ``json.dumps``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = np.empty(distinct.size, dtype=object)
    mag = np.abs(distinct)
    slow = ~((mag >= 1e-4) & (mag < 1e16))  # NaN included
    fast = np.flatnonzero(~slow)
    if fast.size:
        raw = orjson.dumps(distinct[fast].tolist())
        texts[fast] = raw[1:-1].decode().split(",")
        if b"e" in raw:
            slow[fast[["e" in t for t in texts[fast]]]] = True
    if slow.any():
        texts[slow] = json.dumps(distinct[slow].tolist())[1:-1].split(", ")
    return texts[inverse].reshape(values.shape)


class Artifact:
    """A release whose ``dumps()`` text is its document."""

    def to_json_dict(self) -> dict:
        """The release document as a dict, read back from :meth:`dumps`."""
        return json.loads(self.dumps())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")


def read_json(path, loader):
    """``loader`` applied to the JSON document in the file at ``path``;
    InputDataError if the document is invalid.

    ``orjson`` parses the bytes.  Where it refuses them (``NaN``,
    ``Infinity``, a lone surrogate, a number too large for a float), where
    ``loader`` refuses its values, or where a member other than ``"nodes"``
    holds a float of magnitude ``2**63`` or more, ``json`` parses the file
    again and ``loader`` runs on that.  orjson reads an integer outside
    int64 and uint64 as a float where ``json`` keeps the int; the loaders
    type-check every node value, so only those other members could carry
    one through.  Every accepted document is thus the one ``json`` gives,
    and every refusal keeps ``json``'s message or the loader's."""
    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())
        if not (isinstance(doc, dict) and _holds_wide_float(
                [v for k, v in doc.items() if k != "nodes"])):
            return loader(doc)
    except Exception:  # whatever went wrong, json and the loader decide below
        pass
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"{path}: invalid JSON ({exc})") from exc
    return loader(doc)


def _holds_wide_float(value) -> bool:
    """Whether a float of magnitude ``2**63`` or more sits in ``value``."""
    if type(value) is dict:
        value = list(value.values())
    if type(value) is list:
        return any(map(_holds_wide_float, value))
    return type(value) is float and abs(value) >= 2.0**63


def json_value(value, kind, name: str):
    """``value`` if it has the JSON type ``kind``, else TypeError naming it
    ``name``.  An ``int`` is never a bool; a ``float`` may be an int, but one
    too large for any float raises OverflowError, as storing it would."""
    if type(value) is kind or kind is float and type(value) is int and math.isfinite(value):
        return value
    raise TypeError(f"{name} {value!r} has the wrong JSON type")


def check_tree_links(size: int, root: int, parents, children, extends) -> None:
    """Raise InputDataError unless node links form one tree under ``root``.

    Link ``l`` goes from node ``parents[l]`` to node ``children[l]``;
    ``extends[l]`` says the child sits one level below its parent (depth plus
    one, or a context one symbol longer).  The root must have no parent and
    every other node exactly one; with levels strictly increasing along
    links, that rules out cycles and makes every node reachable from the
    root.  The first failing link in the given order is reported, then the
    first unreachable node by id.
    """
    parents = np.asarray(parents, dtype=np.int64)
    children = np.asarray(children, dtype=np.int64)
    extends = np.asarray(extends, dtype=bool)
    order = np.argsort(children, kind="stable")
    again = np.zeros(children.size, dtype=bool)  # the child has an earlier link
    again[order[1:]] = children[order[1:]] == children[order[:-1]]
    bad = np.flatnonzero((children == root) | again | ~extends)
    if bad.size:
        link = int(bad[0])
        p, c = int(parents[link]), int(children[link])
        if c == root:
            raise InputDataError(f"root node {root} is listed as a child of node {p}")
        if again[link]:
            earlier = int(parents[np.flatnonzero(children == c)[0]])
            raise InputDataError(f"node {c} has two parents ({earlier} and {p})")
        raise InputDataError(f"node {c} is not one level below its parent {p}")
    orphan = np.ones(size, dtype=bool)
    orphan[children] = False
    orphan[root] = False
    if orphan.any():
        raise InputDataError(f"node {int(np.argmax(orphan))} is not reachable from the root")
