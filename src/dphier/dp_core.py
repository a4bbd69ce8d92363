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

from .errors import InputDataError, ParameterError

__all__ = [
    "DEFAULT_DEPTH_CAP",
    "PrivacyParams",
    "biased_count",
    "biased_split",
    "check_tree_links",
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


def grow_levels(n_items: int, fanout: int, decide, child_codes) -> None:
    """Walk a tree level by level with its ``n_items`` items (points, sequence
    positions) grouped node by node in BFS order, all starting at the root.

    ``decide(depth, sizes, items)`` returns the level's split mask from the
    item ids node by node and each node's item count.  ``child_codes(depth,
    items, parent)`` gives each item of a splitting node a child code in
    ``[0, fanout)``; ``parent`` ranks the item's node among the splitting
    nodes, and the s-th one's children are ``s * fanout + code`` on the next
    level.  The walk ends at the first level where no node splits.
    """
    items = np.arange(n_items)
    sizes = np.array([n_items])
    depth = 0
    while True:
        split = np.asarray(decide(depth, sizes, items), dtype=bool)
        if not split.any():
            return
        n_split = np.count_nonzero(split)
        items = items[np.repeat(split, sizes)]
        # int32 keeps the per-item temporaries (and peak memory) small
        parent = np.repeat(np.arange(n_split, dtype=np.int32), sizes[split])
        key = child_codes(depth, items, parent) + parent * fanout
        # a stable sort by key, as LSD radix passes over 16-bit digits (NumPy
        # radix-sorts 16-bit keys), each pass stable on the order so far
        order = np.argsort(key.astype(np.uint16), kind="stable")
        shift = 16
        while (n_split * fanout - 1) >> shift:
            order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
            shift += 16
        items = items[order]
        sizes = np.bincount(key, minlength=n_split * fanout)
        depth += 1


def float_texts(values) -> np.ndarray:
    """The JSON text of each value of a float array, as ``json.dumps`` writes
    it (``NaN`` and ``Infinity`` included), in an object array of its shape.

    ``json.dumps`` runs once over the distinct values, taken by bit pattern so
    that ``-0.0`` stays apart from ``0.0``: a tree's regions repeat few
    distinct coordinates many times."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].reshape(values.shape)


def read_json(path):
    """The JSON document in the file at ``path``; InputDataError if invalid."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"{path}: invalid JSON ({exc})") from exc


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
