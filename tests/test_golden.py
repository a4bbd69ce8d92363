"""Golden digests of noiseless artifacts.

A noiseless build draws no noise, so its nodes are a function of the data
alone; these digests pin the bytes that every builder, count attachment and
generation writes, and the answers that the trees give to one workload.
Inputs come only from ``Generator.random`` and ``Generator.integers``, moved
by power-of-two offsets and scales, and the digests leave out ``params`` (its
values come from ``log``), so they hold on any platform.  The grid's answers
are left out: its contraction goes through BLAS, whose rounding may differ by
platform.  A change that moves any of them changes released artifacts or
answers.
"""

import hashlib
import json

import numpy as np

from dphier.dp_core import privtree_params
from dphier.markov import Alphabet, build_private_pst, generate_sequences, truncate_sequences
from dphier.spatial import (
    RangeQuery,
    SpatialDataset,
    SpatialDomain,
    attach_noisy_counts,
    build_privtree,
    build_simple_tree,
    build_ug,
    range_counts,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _nodes_digest(artifact) -> str:
    return _sha(json.dumps(json.loads(artifact.dumps())["nodes"], sort_keys=True))


def _points(seed: int, dims: int) -> SpatialDataset:
    """Four clusters in [0, 1)^dims, each a cube of side 2^-k at a corner
    that is a multiple of 1/8, plus a uniform background."""
    rng = np.random.default_rng(seed)
    parts = [rng.random((500, dims))]
    for corner, side in [(1, 1 / 8), (3, 1 / 16), (5, 1 / 4), (6, 1 / 32)]:
        parts.append(corner / 8 + side * rng.random((600, dims)))
    return SpatialDataset(SpatialDomain((0.0,) * dims, (1.0,) * dims), np.vstack(parts))


def _queries(seed: int, dims: int) -> list:
    """Boxes with corners in [-1/8, 7/8)^dims and sides below 1/2, so some
    reach outside the domain."""
    rng = np.random.default_rng(seed)
    lo = rng.random((400, dims)) - 1 / 8
    hi = lo + rng.random((400, dims)) / 2
    return [RangeQuery(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def _spatial_trees() -> dict:
    two, four = _points(3, 2), _points(5, 4)
    tree2 = build_privtree(two, privtree_params(1.0, 4), noiseless=True)
    attach_noisy_counts(tree2, two, 1.0, noiseless=True)
    tree4 = build_privtree(four, privtree_params(1.0, 4), dims_per_level=2, noiseless=True)
    attach_noisy_counts(tree4, four, 1.0, noiseless=True)
    return {
        "privtree-2d": tree2,
        "privtree-4d": tree4,
        "simple-tree": build_simple_tree(two, 8.0, 16.0, 8, noiseless=True),
        "ug": build_ug(two, 1.0, noiseless=True),
    }


def _records(seed: int) -> list:
    rng = np.random.default_rng(seed)
    symbols = np.array(list("abcd"))
    lengths = rng.integers(1, 12, size=1500)
    # d half the time, and a, b and c a sixth each
    flat = symbols[np.minimum(rng.integers(0, 6, size=int(lengths.sum())), 3)].tolist()
    ends = np.cumsum(lengths).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


SPATIAL = {
    "privtree-2d": "a80d5c00cbc75ab89237ba01b0499926e1dae7d8bc18f903009d80bb1182e3bb",
    "privtree-4d": "268112f905bd1b184b41a342ecca02a0302662d91d1ea224d126b5b7935e6e45",
    "simple-tree": "c2459dc0e56276bb2faf34d49f1b82917bccd5b170d6e15cae67578fc7f5c479",
    "ug": "babe52047b6a2768796f47baa3ef9f7e2576ccabbd709a994521f22f9731b7ec",
}

ANSWERS = {
    "privtree-2d": "7808deb3caf651a12cab8ec74131ddb92353d354a7ca8ade3f98a907ed0dfdf6",
    "privtree-4d": "5d6c64f101805fcab5b870b1ff5c5ebc98e43cc8ca784e793c65801c194ac7df",
    "simple-tree": "0870ade29ed63d6af2800dbcf8b8e34b8ce4e831c1cd0307d5195d5bc42a04c4",
}

SEQUENCE = {
    "pst-eps1": "2e2d398b173d5877bc6909f8cd805f8ed7989a3650cedfa79c896dedab030730",
    "pst-eps4": "71f83337d2246ae6d5b53f9f9296f063a215bd0cd14a221d935acd8836bcf798",
    "generated": "bcfa724cb2103b03a1139604f4f59584ac4b41d087a12808ac0218ced1315002",
}


def test_noiseless_spatial_nodes():
    got = {name: _nodes_digest(tree) for name, tree in _spatial_trees().items()}
    assert got == SPATIAL


def test_noiseless_spatial_answers():
    trees = _spatial_trees()
    got = {}
    for name in ANSWERS:
        answers = range_counts(trees[name], _queries(17, trees[name].dims))
        got[name] = hashlib.sha256(answers.tobytes()).hexdigest()
    assert got == ANSWERS


def test_noiseless_pst_nodes_and_generation():
    data = truncate_sequences(_records(9), 8, Alphabet(tuple("abcd")))
    pst1 = build_private_pst(data, 1.0, noiseless=True)
    pst4 = build_private_pst(data, 4.0, noiseless=True)
    generated = generate_sequences(pst4, 2000, np.random.default_rng(13))
    got = {
        "pst-eps1": _nodes_digest(pst1),
        "pst-eps4": _nodes_digest(pst4),
        "generated": _sha(json.dumps(generated)),
    }
    assert got == SEQUENCE
