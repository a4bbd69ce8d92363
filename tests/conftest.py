"""Shared fixtures: small datasets with hand-checkable statistics."""

import numpy as np
import pytest

from dphier import markov, spatial


@pytest.fixture(scope="session")
def worked_example_raw():
    """Four sequences over {A, B} with easily hand-counted suffix statistics:
    A occurs 6 times (3 followed by A, 3 by B), B occurs 4 times (always
    last), every sequence ends in B, so the root histogram is
    {A: 6, B: 4, end: 4} with magnitude 14."""
    return [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]


@pytest.fixture(scope="session")
def worked_example_data(worked_example_raw):
    # explicit alphabet order (A, B) keeps symbol ids stable in assertions
    return markov.truncate_sequences(
        worked_example_raw, 10, alphabet=markov.Alphabet(("A", "B"))
    )


@pytest.fixture()
def unit_square():
    return spatial.SpatialDomain((0.0, 0.0), (1.0, 1.0))


@pytest.fixture()
def uniform_4096(unit_square):
    """4096 points on a boundary-avoiding regular 64x64 grid: every quadtree
    cell down to depth 6 holds exactly 4096 / 4^depth points."""
    side = np.arange(64) / 64.0 + 1.0 / 128.0
    xs, ys = np.meshgrid(side, side)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return spatial.SpatialDataset(unit_square, pts)


def random_dataset(rng, n=None, d=2):
    """Random point set in the unit box with a random cluster mix."""
    if n is None:
        n = int(rng.integers(50, 400))
    k = int(rng.integers(1, 4))
    parts = []
    remaining = n
    for i in range(k):
        take = remaining if i == k - 1 else int(rng.integers(0, remaining + 1))
        remaining -= take
        center = rng.random(d) * 0.8 + 0.1
        sigma = rng.random() * 0.1 + 0.005
        parts.append(center + rng.normal(0.0, sigma, size=(take, d)))
    pts = np.clip(np.vstack(parts), 0.0, 1.0 - 1e-9)
    domain = spatial.SpatialDomain((0.0,) * d, (1.0,) * d)
    return spatial.SpatialDataset(domain, pts)


def assert_same_release(got, want):
    """Byte-equal ``dumps()``; a failure names the first differing node,
    because pytest's diff of two whole documents takes minutes."""
    if got.dumps() != want.dumps():
        pairs = zip(got.to_json_dict()["nodes"], want.to_json_dict()["nodes"])
        first = next((a for a, b in pairs if a != b), "none (lengths or params differ)")
        pytest.fail(f"released documents differ; first differing node: {first}")
