import collections
import functools
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dphier import dp_core, spatial
from dphier.cli import main
from dphier.dp_core import privtree_params, sample_laplace
from dphier.errors import InputDataError, ParameterError
from dphier.spatial import (
    DecompTree,
    RangeQuery,
    SpatialDataset,
    SpatialDomain,
    TreeNode,
    attach_noisy_counts,
    biased_count,
    build_privtree,
    build_simple_tree,
    build_ug,
    range_count,
    trees_equal,
)

from conftest import assert_same_release, of_type, random_dataset


# ---------------------------------------------------------------------------
# independent oracles (pure Python, no package tree machinery)
# ---------------------------------------------------------------------------


def oracle_count(points, lo, hi):
    n = 0
    for p in points:
        if all(a <= x < b for x, a, b in zip(p, lo, hi)):
            n += 1
    return n


def force_tree_walk(tree):
    """Install the level-by-level walk as the tree's query view, so a grid
    is answered node by node."""
    tree._view = spatial._TreeArrays.from_columns(tree._cols, tree._shape)
    return tree


def oracle_children(lo, hi, dims):
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


def oracle_biased_recursion(points, lo, hi, theta, delta, depth_cap, depth=0):
    """Nested (lo, hi, children) mirror of the noiseless biased split rule:
    split iff max(theta - delta, c - depth * delta) > theta and depth < cap."""
    c = oracle_count(points, lo, hi)
    node = {"lo": tuple(lo), "hi": tuple(hi), "children": []}
    if depth < depth_cap and max(theta - delta, c - depth * delta) > theta:
        for clo, chi in oracle_children(lo, hi, range(len(lo))):
            node["children"].append(
                oracle_biased_recursion(points, clo, chi, theta, delta, depth_cap, depth + 1)
            )
    return node


def oracle_fixed_height_recursion(points, lo, hi, theta, h, depth=0):
    """Noiseless fixed-height rule: split iff c > theta and depth < h - 1."""
    c = oracle_count(points, lo, hi)
    node = {"lo": tuple(lo), "hi": tuple(hi), "count": float(c), "children": []}
    if c > theta and depth < h - 1:
        for clo, chi in oracle_children(lo, hi, range(len(lo))):
            node["children"].append(
                oracle_fixed_height_recursion(points, clo, chi, theta, h, depth + 1)
            )
    return node


def assert_matches_oracle(tree, oracle_root, check_counts=False):
    def walk(nid, onode):
        node = tree.node(nid)
        assert node.lo == onode["lo"] and node.hi == onode["hi"]
        assert len(node.children) == len(onode["children"])
        if check_counts:
            assert node.noisy_count == onode["count"]
        for cid, ochild in zip(node.children, onode["children"]):
            walk(cid, ochild)

    walk(tree.root, oracle_root)


def count_oracle_nodes(onode):
    return 1 + sum(count_oracle_nodes(c) for c in onode["children"])


# ---------------------------------------------------------------------------
# biased count
# ---------------------------------------------------------------------------


class TestBiasedCount:
    def test_depth_zero_above_floor(self):
        assert biased_count(10, 0, 0.0, 3.23557) == 10

    def test_floor_engages(self):
        assert biased_count(1, 5, 0.0, 3.23557) == pytest.approx(-3.23557)

    def test_linear_region(self):
        assert biased_count(20, 3, 0.0, 3.23557) == pytest.approx(10.29329)


# ---------------------------------------------------------------------------
# tree builders
# ---------------------------------------------------------------------------


class TestBuildPrivtree:
    def test_identical_points_split_chain(self, unit_square):
        # all mass in one cell: the containing cell splits at every level up
        # to the cap, siblings never do
        pts = np.full((500, 2), (0.3, 0.7))
        data = SpatialDataset(unit_square, pts)
        params = privtree_params(1.0, 4, 0.0)
        cap = 12
        tree = build_privtree(data, params, noiseless=True, depth_cap=cap)
        by_depth = {}
        for node in tree.nodes:
            by_depth.setdefault(node.depth, []).append(node)
        assert max(by_depth) == cap
        for depth in range(cap):
            split = [v for v in by_depth[depth] if not v.is_leaf]
            assert len(split) == 1
            assert all(
                a <= x < b
                for x, a, b in zip((0.3, 0.7), split[0].lo, split[0].hi)
            )

    def test_matches_biased_oracle_on_uniform_grid(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        oracle = oracle_biased_recursion(
            uniform_4096.points.tolist(),
            uniform_4096.domain.lo,
            uniform_4096.domain.hi,
            params.theta,
            params.delta,
            spatial.DEFAULT_DEPTH_CAP,
        )
        assert_matches_oracle(tree, oracle)

    def test_matches_biased_oracle_on_random_datasets(self):
        rng = np.random.default_rng(42)
        params = privtree_params(1.0, 4, 0.0)
        for _ in range(10):
            data = random_dataset(rng)
            tree = build_privtree(data, params, noiseless=True)
            oracle = oracle_biased_recursion(
                data.points.tolist(),
                data.domain.lo,
                data.domain.hi,
                params.theta,
                params.delta,
                spatial.DEFAULT_DEPTH_CAP,
            )
            assert_matches_oracle(tree, oracle)

    def test_empty_dataset_root_split_probability_is_half(self, unit_square):
        # an empty root has biased score max(theta - delta, 0) = theta, so the
        # split test fires with probability P[Lap > 0] = 1/2
        data = SpatialDataset(unit_square, np.empty((0, 2)))
        params = privtree_params(1.0, 4, 0.0)
        rng = np.random.default_rng(11)
        runs = 4000
        splits = sum(
            0 if spatial.build_privtree(data, params, rng, depth_cap=1).node(0).is_leaf else 1
            for _ in range(runs)
        )
        se = math.sqrt(0.25 / runs)
        assert abs(splits / runs - 0.5) <= 4 * se

    def test_at_floor_node_split_probability_is_half_beta(self, unit_square):
        # a node at the bias floor splits with probability 1 / (2 beta);
        # exercised via a depth-1 empty child whose biased score is the floor
        params = privtree_params(1.0, 4, 0.0)
        p_floor = dp_core.laplace_sf(params.theta - (params.theta - params.delta), params.lam)
        assert p_floor == pytest.approx(1.0 / (2.0 * 4.0), rel=1e-12)

    def test_seeded_determinism(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        t1 = build_privtree(uniform_4096, params, np.random.default_rng(5))
        t2 = build_privtree(uniform_4096, params, np.random.default_rng(5))
        assert trees_equal(t1, t2)

    def test_fanout_must_match_beta(self, uniform_4096):
        params = privtree_params(1.0, 8, 0.0)
        with pytest.raises(ParameterError):
            build_privtree(uniform_4096, params, noiseless=True)

    def test_rng_required_when_noisy(self, uniform_4096):
        with pytest.raises(ParameterError):
            build_privtree(uniform_4096, privtree_params(1.0, 4, 0.0))

    def test_round_robin_split_dims(self, uniform_4096):
        params = privtree_params(1.0, 2, 0.0)
        tree = build_privtree(
            uniform_4096, params, noiseless=True, dims_per_level=1
        )
        root = tree.node(tree.root)
        assert len(root.children) == 2
        first = tree.node(root.children[0])
        # level 0 bisects dim 0 only
        assert first.hi[0] != root.hi[0] and first.hi[1] == root.hi[1]
        second_level = tree.node(first.children[0])
        assert second_level.hi[1] != first.hi[1]

    def test_exact_counts_stripped(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, np.random.default_rng(1))
        assert all(v.noisy_count is None for v in tree.nodes)


class TestBuildSimpleTree:
    def test_height_one_is_single_node(self, uniform_4096):
        tree = build_simple_tree(uniform_4096, 1.0, 0.0, 1, np.random.default_rng(0))
        assert len(tree.nodes) == 1
        assert tree.node(0).noisy_count is not None

    def test_full_quadtree_on_uniform_data(self, uniform_4096):
        # counts 4096 / 4^depth all exceed 0, so the tree fills to h levels
        tree = build_simple_tree(uniform_4096, 1.0, 0.0, 4, noiseless=True)
        assert len(tree.nodes) == 1 + 4 + 16 + 64
        assert max(v.depth for v in tree.nodes) == 3

    def test_empty_dataset_single_root(self, unit_square):
        data = SpatialDataset(unit_square, np.empty((0, 2)))
        tree = build_simple_tree(data, 1.0, 0.0, 5, noiseless=True)
        assert len(tree.nodes) == 1
        assert tree.node(0).noisy_count == 0.0

    def test_matches_fixed_height_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            data = random_dataset(rng)
            h = int(rng.integers(1, 5))
            theta = float(rng.integers(0, 4))
            tree = build_simple_tree(data, 1.0, theta, h, noiseless=True)
            oracle = oracle_fixed_height_recursion(
                data.points.tolist(), data.domain.lo, data.domain.hi, theta, h
            )
            assert_matches_oracle(tree, oracle, check_counts=True)

    def test_bad_height(self, uniform_4096):
        with pytest.raises(ParameterError):
            build_simple_tree(uniform_4096, 1.0, 0.0, 0, noiseless=True)


class TestAttachNoisyCounts:
    def test_noiseless_counts_are_exact_and_sum_to_n(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        total = sum(v.noisy_count for v in tree.leaves())
        assert total == uniform_4096.n
        whole = RangeQuery(uniform_4096.domain.lo, uniform_4096.domain.hi)
        assert range_count(tree, whole) == uniform_4096.n

    def test_noise_scale_is_inverse_epsilon(self, unit_square):
        # single-leaf tree at eps_counts = 0.5: the added noise must equal a
        # scale-2 draw from the same stream
        pts = np.full((7, 2), 0.25)
        data = SpatialDataset(unit_square, pts)
        tree = build_simple_tree(data, 1.0, 10.0, 1, noiseless=True)
        attach_noisy_counts(tree, data, 0.5, np.random.default_rng(99))
        expected = 7 + sample_laplace(2.0, np.random.default_rng(99))
        assert tree.node(0).noisy_count == expected

    def test_internal_counts_equal_leaf_sums(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, np.random.default_rng(3))
        attach_noisy_counts(tree, uniform_4096, 0.5, np.random.default_rng(4))
        sums = spatial._column_sums(tree._cols, tree._shape)
        for node in tree.nodes:
            if not node.is_leaf:
                assert sums[node.id] == pytest.approx(
                    sum(sums[c] for c in node.children), rel=1e-12
                )

    def test_domain_mismatch_rejected(self, uniform_4096, unit_square):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        other = SpatialDataset(
            SpatialDomain((0.0, 0.0), (2.0, 1.0)), np.full((3, 2), 0.5)
        )
        with pytest.raises(InputDataError):
            attach_noisy_counts(tree, other, 0.5, noiseless=True)


class TestRangeCount:
    def make_noiseless_tree(self, data, beta=4):
        params = privtree_params(1.0, beta, 0.0)
        tree = build_privtree(data, params, noiseless=True)
        return attach_noisy_counts(tree, data, 0.5, noiseless=True)

    def test_whole_domain(self, uniform_4096):
        tree = self.make_noiseless_tree(uniform_4096)
        q = RangeQuery(uniform_4096.domain.lo, uniform_4096.domain.hi)
        assert range_count(tree, q) == uniform_4096.n

    def test_exact_leaf_cell(self, uniform_4096):
        tree = self.make_noiseless_tree(uniform_4096)
        leaf = tree.leaves()[3]
        exact = sum(
            1
            for p in uniform_4096.points
            if all(a <= x < b for x, a, b in zip(p, leaf.lo, leaf.hi))
        )
        assert range_count(tree, RangeQuery(leaf.lo, leaf.hi)) == pytest.approx(exact)

    def test_half_leaf_volume_fraction(self):
        # single released cell holding 10 points; covering its left half
        # returns the fractional estimate 5.0
        node = TreeNode(id=0, depth=0, lo=(0.0, 0.0), hi=(1.0, 1.0), noisy_count=10.0)
        tree = DecompTree(nodes=[node], fanout=4)
        q = RangeQuery((0.0, 0.0), (0.5, 1.0))
        assert range_count(tree, q) == pytest.approx(5.0)

    def test_query_clipped_to_domain(self, uniform_4096):
        tree = self.make_noiseless_tree(uniform_4096)
        q = RangeQuery((-5.0, -5.0), (5.0, 5.0))
        assert range_count(tree, q) == uniform_4096.n

    def test_dimension_mismatch(self, uniform_4096):
        tree = self.make_noiseless_tree(uniform_4096)
        with pytest.raises(InputDataError):
            range_count(tree, RangeQuery((0.0,), (1.0,)))

    def test_counts_required(self, uniform_4096):
        tree = build_privtree(uniform_4096, privtree_params(1.0, 4, 0.0), noiseless=True)
        with pytest.raises(InputDataError):
            range_count(tree, RangeQuery((0.0, 0.0), (1.0, 1.0)))


class TestUniformGrid:
    def test_bins_formula_large(self, unit_square):
        rng = np.random.default_rng(0)
        data = SpatialDataset(unit_square, rng.random((100000, 2)))
        tree = build_ug(data, 1.0, noiseless=True)
        assert tree.fanout == 100**2

    def test_bins_formula_small(self, unit_square):
        rng = np.random.default_rng(0)
        data = SpatialDataset(unit_square, rng.random((1000, 2)))
        tree = build_ug(data, 0.1, noiseless=True)
        # (1000 * 0.1 / 10) ** 0.5 = sqrt(10) -> ceil = 4 bins per dimension
        assert tree.fanout == 4**2

    def test_whole_domain_noiseless(self, unit_square):
        rng = np.random.default_rng(1)
        data = SpatialDataset(unit_square, rng.random((5000, 2)))
        tree = build_ug(data, 1.0, noiseless=True)
        q = RangeQuery(unit_square.lo, unit_square.hi)
        assert range_count(tree, q) == pytest.approx(5000.0)

    def test_fast_path_matches_generic_traversal(self, unit_square):
        rng = np.random.default_rng(2)
        data = SpatialDataset(unit_square, rng.random((2000, 2)))
        tree = build_ug(data, 0.4, rng)
        generic = force_tree_walk(spatial.tree_from_json_dict(json.loads(tree.dumps())))
        for _ in range(40):
            lo = rng.random(2) * 0.7
            hi = lo + rng.random(2) * 0.3
            q = RangeQuery(tuple(lo), tuple(hi))
            assert range_count(tree, q) == pytest.approx(
                range_count(generic, q), rel=1e-9, abs=1e-9
            )

    def test_grid_retag_on_load(self, unit_square):
        rng = np.random.default_rng(3)
        data = SpatialDataset(unit_square, rng.random((500, 2)))
        tree = build_ug(data, 0.5, rng)
        reloaded = spatial.tree_from_json_dict(json.loads(tree.dumps()))
        assert reloaded._view is None  # recognized at the first query
        range_count(reloaded, RangeQuery(unit_square.lo, unit_square.hi))
        assert isinstance(reloaded._view, spatial._Grid)

    def test_empty_dataset_rejected(self, unit_square):
        with pytest.raises(ParameterError):
            build_ug(SpatialDataset(unit_square, np.empty((0, 2))), 1.0, noiseless=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 1.0), (-3.7, 0.1), (1e-300, 3e-300), (5e-324, 1e-320), (1.0, 1.0 + 2**-40)],
    )
    def test_counts_are_those_of_histogramdd(self, lo, hi, d):
        rng = np.random.default_rng(5)
        n = 3000
        domain = SpatialDomain((lo,) * d, (hi,) * d)
        m = math.ceil((n * 1.0 / 10) ** (2 / (d + 2)))
        edges = np.linspace(lo, hi, m + 1)
        u = rng.random((n, d))
        pts = lo * (1 - u) + hi * u
        pts[: n // 3] = rng.choice(edges[:-1], size=(n // 3, d))  # on the edges
        pts[n // 3 : n // 2] = np.nextafter(pts[: n // 6], -np.inf)  # one ulp below them
        pts = np.clip(pts, lo, np.nextafter(hi, -np.inf))
        tree = build_ug(SpatialDataset(domain, pts), 1.0, noiseless=True)
        want, _ = np.histogramdd(pts, bins=[edges] * d)
        assert tree.fanout == m**d
        assert np.array_equal(tree._cols.count[1:], want.ravel())

    def test_a_domain_of_overflowing_width_is_refused(self):
        domain = SpatialDomain((-1e308, 0.0), (1e308, 1.0))
        with pytest.raises(ParameterError, match="finite width"):
            build_ug(SpatialDataset(domain, np.zeros((10, 2))), 1.0, noiseless=True)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def box_volume(lo, hi):
    return float(np.prod([b - a for a, b in zip(lo, hi)]))


def boxes_overlap(a, b):
    return all(max(al, bl) < min(ah, bh) for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


class TestPartitionInvariant:
    @pytest.mark.parametrize("dims_per_level", [1, 2])
    def test_children_tile_parent(self, dims_per_level):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, n=300)
        params = privtree_params(1.0, 1 << dims_per_level, 0.0)
        tree = build_privtree(
            data, params, noiseless=True, dims_per_level=dims_per_level
        )
        for node in tree.nodes:
            if node.is_leaf:
                continue
            kids = [tree.node(c) for c in node.children]
            vol = sum(box_volume(k.lo, k.hi) for k in kids)
            assert vol == pytest.approx(box_volume(node.lo, node.hi), rel=1e-12)
            for a, b in itertools.combinations(kids, 2):
                assert not boxes_overlap((a.lo, a.hi), (b.lo, b.hi))


class TestMonotoneBias:
    def test_bias_chain_decreases_along_paths(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=2000)
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(data, params, noiseless=True)
        counts = spatial._leaf_exact_counts(tree, data)

        def exact_count(node):
            mask = np.ones(data.n, dtype=bool)
            for j in range(2):
                mask &= (data.points[:, j] >= node.lo[j]) & (data.points[:, j] < node.hi[j])
            return int(mask.sum())

        def walk(nid, parent_b):
            node = tree.node(nid)
            b = biased_count(exact_count(node), node.depth, params.theta, params.delta)
            if parent_b is not None:
                assert b <= parent_b
                if b > params.theta - params.delta:
                    assert parent_b - b >= params.delta - 1e-9
            for c in node.children:
                walk(c, b)

        walk(tree.root, None)
        assert counts.sum() == data.n


class TestReleaseHygiene:
    def test_serialized_tree_has_no_exact_counts(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, np.random.default_rng(0))
        attach_noisy_counts(tree, uniform_4096, 0.5, np.random.default_rng(1))
        doc = tree.to_json_dict()
        assert set(doc) == {"fanout", "params", "nodes"}
        for entry in doc["nodes"]:
            assert "exact" not in json.dumps(entry)
            assert set(entry) <= {"id", "depth", "lo", "hi", "children", "noisy_count"}
        # structure-only release carries no counts at all
        bare = build_privtree(uniform_4096, params, np.random.default_rng(2))
        assert all("noisy_count" not in e for e in bare.to_json_dict()["nodes"])

    def test_writing_into_a_node_value_leaves_the_tree_unchanged(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        before = tree.dumps()
        nodes, leaf = tree.nodes, tree.leaves()[0]
        nodes[0].exact_count = 4096
        nodes[0].children.clear()
        nodes[1].noisy_count = -1.0
        leaf.lo = (0.5, 0.5)
        tree.node(2).children.append(0)
        assert tree.dumps() == before
        assert DecompTree(tree.nodes, 4, tree.params_info).dumps() == before

    def test_roundtrip_preserves_structure(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, np.random.default_rng(0))
        attach_noisy_counts(tree, uniform_4096, 0.5, np.random.default_rng(1))
        clone = spatial.tree_from_json_dict(json.loads(tree.dumps()))
        assert trees_equal(tree, clone)
        assert clone.params_info["lambda"] == params.lam

    def test_permuted_node_ids_still_query_correctly(self, uniform_4096):
        # document order and id order need not coincide after deserialization
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        doc = tree.to_json_dict()
        n = len(doc["nodes"])
        perm = {i: (n - 1 - i) for i in range(n)}
        for entry in doc["nodes"]:
            entry["id"] = perm[entry["id"]]
            entry["children"] = [perm[c] for c in entry["children"]]
        doc["nodes"].reverse()
        clone = spatial.tree_from_json_dict(doc)
        q = RangeQuery((0.1, 0.2), (0.6, 0.9))
        assert range_count(clone, q) == pytest.approx(range_count(tree, q))

    def test_loader_rejects_unknown_child_ids(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True)
        doc = tree.to_json_dict()
        doc["nodes"][0]["children"] = [10**6]
        with pytest.raises(InputDataError):
            spatial.tree_from_json_dict(doc)

    def test_attach_works_after_round_robin_build(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, n=400)
        params = privtree_params(1.0, 2, 0.0)
        tree = build_privtree(data, params, noiseless=True, dims_per_level=1)
        attach_noisy_counts(tree, data, 0.5, noiseless=True)
        whole = RangeQuery(data.domain.lo, data.domain.hi)
        assert range_count(tree, whole) == data.n

    def test_attach_counts_per_leaf_on_3d_round_robin(self):
        # wrapping round-robin windows (dims like {0,1} then {2,0}) must
        # partition points into the same children the builder created
        rng = np.random.default_rng(16)
        data = random_dataset(rng, n=900, d=3)
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(data, params, noiseless=True, dims_per_level=2)
        attach_noisy_counts(tree, data, 0.5, noiseless=True)
        for leaf in tree.leaves():
            mask = np.ones(data.n, dtype=bool)
            for j in range(3):
                mask &= (data.points[:, j] >= leaf.lo[j]) & (
                    data.points[:, j] < leaf.hi[j]
                )
            assert leaf.noisy_count == int(mask.sum())

    def test_attach_drops_stale_grid_cache(self, unit_square):
        # a 2-bins-per-dim grid is also a valid bisection, so re-attaching
        # counts must invalidate the vectorized grid path
        rng = np.random.default_rng(15)
        pts = rng.random((40, 2))
        data = SpatialDataset(unit_square, pts)
        tree = build_ug(data, 0.9, noiseless=True)  # m = 2 at this budget
        whole = RangeQuery(unit_square.lo, unit_square.hi)
        assert tree.fanout == 4 and range_count(tree, whole) == data.n
        assert isinstance(tree._view, spatial._Grid)
        bigger = SpatialDataset(unit_square, rng.random((400, 2)))
        attach_noisy_counts(tree, bigger, 0.5, noiseless=True)
        assert range_count(tree, whole) == bigger.n

    def test_attach_on_a_grid_answers_as_its_reloaded_copy(self, unit_square):
        # the grid stays a grid after counts are attached, so the same tree
        # answers the same bits before and after a save/load round trip
        rng = np.random.default_rng(15)
        tree = build_ug(SpatialDataset(unit_square, rng.random((40, 2))), 0.9, noiseless=True)
        assert tree.fanout == 4  # m = 2 at this budget
        data = SpatialDataset(unit_square, rng.random((400, 2)))
        attach_noisy_counts(tree, data, 0.5, np.random.default_rng(16))
        reloaded = spatial.tree_from_json_dict(json.loads(tree.dumps()))
        lo, width = rng.random((2000, 2)) * 0.8, rng.random((2000, 2)) * 0.4
        queries = [RangeQuery(tuple(a), tuple(a + w)) for a, w in zip(lo, width)]
        got = spatial.range_counts(tree, queries)
        assert got.tobytes() == spatial.range_counts(reloaded, queries).tobytes()
        assert isinstance(tree._view, spatial._Grid)


# ---------------------------------------------------------------------------
# shape-audit helpers
# ---------------------------------------------------------------------------


def one_d_fixture():
    domain = SpatialDomain((0.0,), (1.0,))
    pts = np.array([[0.05], [0.1], [0.15], [0.2], [0.3], [0.6], [0.8]])
    return SpatialDataset(domain, pts)


class TestShapeAudit:
    def setup_method(self):
        self.data = one_d_fixture()
        self.params = privtree_params(1.0, 2, 0.0)
        self.cap = 3

    def test_shape_probabilities_sum_to_one(self):
        probs, parents, _ = spatial.privtree_split_probabilities(
            self.data, self.params, depth_cap=self.cap
        )
        total = 0.0
        masks = []
        for mask in range(1 << len(probs)):
            try:
                p = spatial.shape_probability(mask, probs, parents)
            except ParameterError:
                continue  # inconsistent mask (bit set under an unsplit parent)
            total += p
            masks.append(mask)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert len(masks) > 4

    def test_simulator_matches_closed_form(self):
        probs, parents, _ = spatial.privtree_split_probabilities(
            self.data, self.params, depth_cap=self.cap
        )
        runs = 200_000
        masks = spatial.simulate_privtree_shapes(
            self.data, self.params, runs, np.random.default_rng(12), depth_cap=self.cap
        )
        freq = np.bincount(masks, minlength=1 << len(probs)) / runs
        for mask in np.nonzero(freq)[0]:
            p = spatial.shape_probability(int(mask), probs, parents)
            se = math.sqrt(max(p * (1 - p), 1e-12) / runs)
            assert abs(freq[mask] - p) <= 5 * se + 1e-9

    def test_real_builds_match_closed_form(self):
        # ties build_privtree itself to the closed-form shape distribution
        probs, parents, _ = spatial.privtree_split_probabilities(
            self.data, self.params, depth_cap=self.cap
        )
        runs = 3000
        rng = np.random.default_rng(13)
        counts = {}
        for _ in range(runs):
            tree = build_privtree(self.data, self.params, rng, depth_cap=self.cap)
            mask = spatial.tree_shape_mask(tree, depth_cap=self.cap)
            counts[mask] = counts.get(mask, 0) + 1
        for mask, c in counts.items():
            p = spatial.shape_probability(mask, probs, parents)
            se = math.sqrt(max(p * (1 - p), 1e-12) / runs)
            assert abs(c / runs - p) <= 5 * se + 0.01

    def test_mask_roundtrip_through_simulation(self):
        tree = build_privtree(
            self.data, self.params, np.random.default_rng(4), depth_cap=self.cap
        )
        mask = spatial.tree_shape_mask(tree, depth_cap=self.cap)
        probs, parents, _ = spatial.privtree_split_probabilities(
            self.data, self.params, depth_cap=self.cap
        )
        assert spatial.shape_probability(mask, probs, parents) > 0


class TestShapeAuditAtCapZero:
    """At depth cap 0 the root is a leaf: no node decides, none splits."""

    def setup_method(self):
        domain = SpatialDomain((0.0,), (1.0,))
        self.data = SpatialDataset(domain, np.full((50, 1), 0.3))
        self.params = privtree_params(1.0, 2, 0.0)

    def test_no_decision_nodes_and_every_mask_matches_the_build(self):
        probs, parents, counts = spatial.privtree_split_probabilities(
            self.data, self.params, depth_cap=0
        )
        assert probs.size == parents.size == counts.size == 0
        masks = spatial.simulate_privtree_shapes(
            self.data, self.params, 100, np.random.default_rng(5), depth_cap=0
        )
        assert masks.tolist() == [0] * 100
        for seed in range(5):
            tree = build_privtree(
                self.data, self.params, np.random.default_rng(seed), depth_cap=0
            )
            assert tree.n_nodes == 1
            assert spatial.tree_shape_mask(tree, depth_cap=0) == 0
        assert spatial.shape_probability(0, [], []) == 1.0

    def test_simulation_draws_no_noise(self):
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        spatial.simulate_privtree_shapes(self.data, self.params, 100, rng, depth_cap=0)
        assert rng.bit_generator.state == before


coord =st.floats(0.0, 1.0, exclude_max=True, allow_nan=False, width=32)


class TestRangeCountProperties:
    @given(
        pts=st.lists(st.tuples(coord, coord), min_size=0, max_size=50),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_noiseless_tree_exact_on_node_regions(self, pts, pick):
        # a query matching any tree node's region is a union of leaf cells,
        # so the noiseless answer must be the exact count (sub-leaf queries
        # get volume-fraction estimates instead, by design)
        domain = SpatialDomain((0.0, 0.0), (1.0, 1.0))
        data = SpatialDataset(
            domain, np.array(pts, dtype=np.float64).reshape(len(pts), 2)
        )
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(data, params, noiseless=True, depth_cap=8)
        attach_noisy_counts(tree, data, 0.5, noiseless=True)
        node = tree.nodes[pick % len(tree.nodes)]
        q = RangeQuery(node.lo, node.hi)
        exact = oracle_count(pts, q.lo, q.hi)
        assert range_count(tree, q) == pytest.approx(exact, abs=1e-9)


# ---------------------------------------------------------------------------
# batched range counts against the scalar walk
# ---------------------------------------------------------------------------


def reference_range_count(tree, q):
    """The scalar recursive walk that answered one query at a time before
    range_counts batched it.  Children are added with an explicit loop from
    0.0, which is what ``sum()`` did for floats before Python 3.12."""
    sums = {}

    def subtree_sum(node):
        if node.id not in sums:
            if node.is_leaf:
                if node.noisy_count is None:
                    raise InputDataError("no noisy counts attached")
                sums[node.id] = float(node.noisy_count)
            else:
                total = 0.0
                for c in node.children:
                    total += subtree_sum(tree.node(c))
                sums[node.id] = total
        return sums[node.id]

    def node_count(node):
        return node.noisy_count if node.noisy_count is not None else subtree_sum(node)

    def rec(nid):
        node = tree.node(nid)
        frac, contained = 1.0, True
        for a, b, qa, qb in zip(node.lo, node.hi, q.lo, q.hi):
            oa, ob = max(a, qa), min(b, qb)
            if oa >= ob:
                return 0.0
            frac *= (ob - oa) / (b - a)
            if qa > a or qb < b:
                contained = False
        if contained:
            return node_count(node)
        if node.is_leaf:
            return node_count(node) * frac
        total = 0.0
        for c in node.children:
            total += rec(c)
        return total

    return float(rec(tree.root))


def mixed_fanout_nodes():
    """Hand-made unit-square node list whose internal nodes have 4, 2 and 4
    children, which no tree of one fanout has."""
    nodes = [TreeNode(id=0, depth=0, lo=(0.0, 0.0), hi=(1.0, 1.0))]

    def split(parent, regions):
        for lo, hi in regions:
            parent.children.append(len(nodes))
            nodes.append(TreeNode(id=len(nodes), depth=parent.depth + 1, lo=lo, hi=hi))

    split(nodes[0], oracle_children((0.0, 0.0), (1.0, 1.0), (0, 1)))
    split(nodes[1], oracle_children(nodes[1].lo, nodes[1].hi, (0,)))
    split(nodes[4], oracle_children(nodes[4].lo, nodes[4].hi, (0, 1)))
    return nodes


def _walk_tree(kind):
    d, dims_per_level = (4, 2) if kind == "privtree-4d" else (2, 2)
    data = random_dataset(np.random.default_rng(31), n=3000, d=d)
    rng = np.random.default_rng(32)
    if kind == "simple":
        return build_simple_tree(data, 4.0, 5.0, 6, rng)
    if kind == "grid":
        grid = build_ug(data, 0.5, rng)
        return force_tree_walk(spatial.tree_from_json_dict(json.loads(grid.dumps())))
    params = privtree_params(1.0, 1 << dims_per_level, 0.0)
    tree = build_privtree(data, params, rng, dims_per_level=dims_per_level)
    return attach_noisy_counts(tree, data, 0.5, rng)


_WALK_KINDS = ("privtree-2d", "privtree-4d", "simple", "grid")
walk_tree = functools.cache(_walk_tree)


# coordinates that land inside, outside and exactly on region faces
edge = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.0 / 3.0, -1.0, 2.0, 1e-20, -math.inf, math.inf]),
)


@st.composite
def query_boxes(draw, d):
    kind = draw(st.sampled_from(["random", "zero-width", "whole", "outside"]))
    if kind == "whole":
        return RangeQuery((0.0,) * d, (1.0,) * d)
    if kind == "outside":
        return RangeQuery((2.0,) * d, (3.0,) * d)
    lo, hi = [], []
    for _ in range(d):
        a, b = sorted((draw(edge), draw(edge)))
        if kind == "zero-width":
            b = a
        lo.append(a)
        hi.append(b)
    return RangeQuery(tuple(lo), tuple(hi))


def same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


class TestRangeCounts:
    @pytest.mark.parametrize("kind", _WALK_KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scalar_walk(self, kind, data):
        tree = walk_tree(kind)
        queries = data.draw(st.lists(query_boxes(tree.dims), max_size=25))
        want = [reference_range_count(tree, q) for q in queries]
        assert same_bits(spatial.range_counts(tree, queries), want)
        if queries:
            assert same_bits(range_count(tree, queries[0]), want[0])

    @pytest.mark.parametrize("kind", _WALK_KINDS)
    def test_blocks_split_under_a_small_pair_budget(self, kind, monkeypatch):
        tree = walk_tree(kind)
        rng = np.random.default_rng(5)
        lo = rng.random((300, tree.dims)) * 0.8
        queries = [RangeQuery(tuple(a), tuple(a + 0.2)) for a in lo]
        whole = spatial.range_counts(tree, queries)
        monkeypatch.setattr(spatial, "_PAIR_BUDGET", 40)
        assert same_bits(spatial.range_counts(tree, queries), whole)
        assert same_bits(whole, [reference_range_count(tree, q) for q in queries])

    def test_empty_workload(self):
        got = spatial.range_counts(walk_tree("privtree-2d"), [])
        assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("kind", ["privtree-2d", "privtree-4d"])
    def test_dimension_mismatch(self, kind):
        tree = walk_tree(kind)
        wrong = RangeQuery((0.0,) * (tree.dims + 1), (1.0,) * (tree.dims + 1))
        with pytest.raises(InputDataError):
            spatial.range_counts(tree, [RangeQuery((0.0,) * tree.dims, (1.0,) * tree.dims), wrong])

    def test_grid_fast_path_answers_every_query(self, unit_square):
        rng = np.random.default_rng(2)
        grid = build_ug(SpatialDataset(unit_square, rng.random((2000, 2))), 0.4, rng)
        queries = [RangeQuery((0.1, 0.2), (0.6, 0.9)), RangeQuery((0.0, 0.0), (1.0, 1.0))]
        assert same_bits(
            spatial.range_counts(grid, queries), [range_count(grid, q) for q in queries]
        )

    def test_attach_drops_the_cached_view(self, uniform_4096):
        tree = build_privtree(uniform_4096, privtree_params(1.0, 4, 0.0), noiseless=True)
        attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        whole = RangeQuery(uniform_4096.domain.lo, uniform_4096.domain.hi)
        assert range_count(tree, whole) == uniform_4096.n
        attach_noisy_counts(tree, uniform_4096, 0.5, np.random.default_rng(1))
        assert same_bits(range_count(tree, whole), reference_range_count(tree, whole))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


class TestFileFormats:
    def test_points_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# header\n0.1,0.2\n0.3,0.4\n\n0.5,0.6\n")
        pts = spatial.load_points_csv(path)
        assert pts.shape == (3, 2)
        assert pts[2, 1] == 0.6

    def test_points_csv_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(InputDataError, match="line 2"):
            spatial.load_points_csv(path)

    def test_points_csv_inconsistent_width(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2\n0.3,0.4,0.5\n")
        with pytest.raises(InputDataError, match="line 2"):
            spatial.load_points_csv(path)

    def test_workload_csv(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("0,0,1,1\n0.2,0.2,0.4,0.9\n")
        queries = spatial.load_workload_csv(path, 2)
        assert len(queries) == 2
        assert queries[1].hi == (0.4, 0.9)

    def test_workload_dimension_mismatch(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("0,0,1,1,5\n")
        with pytest.raises(InputDataError, match="line 1"):
            spatial.load_workload_csv(path, 2)

    def test_workload_inverted_box_is_input_error(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("# lo,lo,hi,hi\n0,0,1,1\n0.5,0.5,0.2,0.9\n0.3,0.3,0.1,0.1\n")
        with pytest.raises(InputDataError, match="data row 2: query requires lo <= hi"):
            spatial.load_workload_csv(path, 2)
        path.write_text("0,0,1,1\n0.1,nan,0.2,0.3\n")
        with pytest.raises(InputDataError, match="data row 2"):
            spatial.load_workload_csv(path, 2)
        path.write_text("0.2,0.2,0.2,0.2\n")  # zero-width boxes are valid
        assert spatial.load_workload_csv(path, 2)[0].hi == (0.2, 0.2)

    def test_nonfinite_values_rejected_on_load(self, uniform_4096, tmp_path):
        params = privtree_params(1.0, 4, 0.0)
        tree = build_privtree(uniform_4096, params, noiseless=True, depth_cap=1)
        attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        for field, index, value in [
            ("lo", 0, math.nan), ("hi", 1, math.inf), ("noisy_count", None, -math.inf),
            ("noisy_count", None, math.nan),
        ]:
            doc = tree.to_json_dict()
            entry = doc["nodes"][3]
            if index is None:
                entry[field] = value
            else:
                entry[field][index] = value
            with pytest.raises(InputDataError, match="node 3: .* must be finite"):
                spatial.tree_from_json_dict(doc)
            path = tmp_path / "nonfinite.json"
            path.write_text(json.dumps(doc))  # Python's json writes NaN/Infinity
            with pytest.raises(InputDataError, match="must be finite"):
                spatial.load_tree(path)

    def test_ragged_regions_rejected_on_load(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        doc = build_privtree(uniform_4096, params, noiseless=True, depth_cap=1).to_json_dict()
        doc["nodes"][2]["hi"] = [1.0]
        with pytest.raises(InputDataError, match="node 2: lo and hi"):
            spatial.tree_from_json_dict(doc)

    def test_domain_validation(self):
        with pytest.raises(ParameterError):
            SpatialDomain((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(InputDataError):
            SpatialDataset(
                SpatialDomain((0.0,), (1.0,)), np.array([[1.0]])
            )  # upper face is exclusive for data points


def read_with_line_parser(path, expected_fields=None):
    """What the readers returned when every file went through the line parser."""
    try:
        rows = spatial._parse_csv_floats(path, expected_fields)
    except InputDataError as exc:
        return str(exc)
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 0))


decimal_text = st.from_regex(
    r"[+-]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20})([eE][+-]?[0-9]{1,3})?",
    fullmatch=True,
)
csv_field = st.one_of(
    decimal_text,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["1_0", "", " ", "nan", "-inf", "Infinity", "1e400", "0x10", "abc", "2 # x", "#",
         "-0", "-0e0", "1e-0", "+1", "\r", str(2**53 + 1), str(2**64 + 1), str(-(2**63) - 1),
         "null", "true", '"1"', "[1]"]
    ),
)
padding = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def csv_line(draw, width, clean):
    kinds = ["row"] if clean else ["row", "row", "row", "ragged", "comment", "blank", "space"]
    kind = draw(st.sampled_from(kinds))
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " x,y", "1,2"]))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(padding)
    n = width if kind == "row" else draw(st.integers(1, width + 2))
    field = decimal_text if clean else csv_field
    fields = [draw(padding) + draw(field) + draw(padding) for _ in range(n)]
    return ",".join(fields) + ("" if clean else draw(st.sampled_from(["", "", ",", " # note"])))


@st.composite
def csv_text(draw):
    """CSV text that is either clean (numbers only) or mixes comments, blank
    and whitespace-only lines, odd tokens, ragged rows and trailing junk."""
    width = draw(st.integers(1, 4))
    lines = draw(st.lists(csv_line(width, draw(st.booleans())), max_size=8))
    return width, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestCsvReaders:
    @given(doc=csv_text(), chunk=st.sampled_from([spatial._CSV_CHUNK, 1, 2, 3, 5, 8, 13, 40]))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_or_same_error_as_line_parser(self, doc, chunk):
        width, text = doc
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(spatial, "_CSV_CHUNK", chunk)  # chunks smaller than a line, too
            path = Path(tmp) / "rows.csv"
            path.write_bytes(text.encode("utf-8"))
            want = read_with_line_parser(path)
            try:
                got = spatial.load_points_csv(path)
            except InputDataError as exc:
                got = str(exc)
            if isinstance(want, str):
                assert got == want
            else:
                assert same_bits(got, want)

            dims = max(1, width // 2)
            want = read_with_line_parser(path, 2 * dims)
            try:
                got = spatial.load_workload_csv(path, dims)
            except (InputDataError, ParameterError) as exc:
                got = str(exc)
            if isinstance(want, str):
                assert got == want
            else:
                rows = []
                for i, r in enumerate(want.tolist()):
                    try:
                        rows.append(RangeQuery(r[:dims], r[dims:]))
                    except ParameterError:
                        # the first inverted box is an input error naming its row
                        assert isinstance(got, str)
                        assert got.startswith(f"{path}: data row {i + 1}: ")
                        break
                else:
                    assert isinstance(got, list) and len(got) == len(rows)
                    flat = [v for q in got for v in q.lo + q.hi]
                    assert same_bits(flat, [v for q in rows for v in q.lo + q.hi])

    @pytest.mark.parametrize("chunk", [7, 64, 1000])
    @pytest.mark.parametrize(
        "defect",
        [None, "# note", "", "  ", "nan,1,2", "1,2", "1,2,3,4", "-0,1,2", "1e400,1,2",
         "1,2\r3,4,5", "1,\r2,3", "+1,2,3", "1,2,3 # x", "0x1,2,3", "1,null,2", '1,"2",3',
         "1,2,3,4\n5,6"],  # the last two lines hold 2 * 3 fields
    )
    @pytest.mark.parametrize("expected", [None, 3, 4])
    def test_a_defect_after_the_first_chunk_gives_the_line_parser_result(
        self, tmp_path, monkeypatch, chunk, defect, expected
    ):
        rng = np.random.default_rng(3)
        lines = ["%.17g,%.17g,%.17g" % tuple(row) for row in rng.normal(size=(300, 3))]
        lines[-1] = f"{2**64 + 1},-0.0,7"
        if defect is not None:
            lines[250] = defect
        path = tmp_path / "rows.csv"
        path.write_text("\r\n".join(lines) if chunk == 64 else "\n".join(lines))
        want = read_with_line_parser(path, expected)
        monkeypatch.setattr(spatial, "_CSV_CHUNK", chunk)
        try:
            got = spatial._read_csv_floats(path, expected)
        except InputDataError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert same_bits(got, want)

    def test_well_formed_file_skips_the_line_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")

        def refuse(*args, **kwargs):
            raise AssertionError("line parser used")

        monkeypatch.setattr(spatial, "_parse_csv_floats", refuse)
        assert spatial.load_points_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert spatial.load_workload_csv(path, 1)[1].hi == (0.4,)
        # line after line, across chunks, with Windows line ends
        monkeypatch.setattr(spatial, "_CSV_CHUNK", 5)
        path.write_bytes(b"0.1, 2\r\n3,\t-4.5e-1\r\n5,6")
        assert spatial.load_points_csv(path).tolist() == [[0.1, 2.0], [3.0, -0.45], [5.0, 6.0]]


# ---------------------------------------------------------------------------
# noise-draw order: a per-node reference builder
# ---------------------------------------------------------------------------


def reference_tree(data, dims_per_level, rule):
    """Per-node BFS build: ``rule(count, depth) -> (split, noisy_count)`` is
    called once per node in BFS order, so its scalar draws fix the order."""
    d = data.domain.dims
    nodes = [TreeNode(id=0, depth=0, lo=data.domain.lo, hi=data.domain.hi)]
    members = [np.arange(data.n)]
    for node in nodes:  # the list grows while iterated: BFS order
        idx = members[node.id]
        split, node.noisy_count = rule(idx.size, node.depth)
        if not split:
            continue
        dims = sorted((node.depth * dims_per_level + j) % d for j in range(dims_per_level))
        for clo, chi in oracle_children(node.lo, node.hi, dims):
            pts = data.points[idx]
            inside = ((pts >= clo) & (pts < chi)).all(axis=1)
            node.children.append(len(nodes))
            nodes.append(TreeNode(id=len(nodes), depth=node.depth + 1, lo=clo, hi=chi))
            members.append(idx[inside])
    return nodes


def reference_attach(tree, data, epsilon_counts, rng):
    """One scalar draw per leaf, in sorted-id order, into the tree's node
    list, from which a new tree is built."""
    nodes = tree.nodes
    for node in sorted(nodes, key=lambda v: v.id):
        if node.is_leaf:
            pts = data.points
            c = int(((pts >= node.lo) & (pts < node.hi)).all(axis=1).sum())
            node.noisy_count = c + sample_laplace(1.0 / epsilon_counts, rng)
    return DecompTree(nodes, tree.fanout, tree.params_info)


class TestNoiseDrawOrder:
    @pytest.mark.parametrize("d, dims_per_level", [(2, 2), (4, 2)])
    def test_privtree_and_counts_match_per_node_reference(self, d, dims_per_level):
        data = random_dataset(np.random.default_rng(20 + d), n=3000, d=d)
        params = privtree_params(1.0, 1 << dims_per_level, 0.0)
        tree = build_privtree(
            data, params, np.random.default_rng(1), dims_per_level=dims_per_level
        )
        rng = np.random.default_rng(1)

        def rule(count, depth):
            if depth >= spatial.DEFAULT_DEPTH_CAP:
                return False, None
            b = max(params.theta - params.delta, count - depth * params.delta)
            return b + sample_laplace(params.lam, rng) > params.theta, None

        ref = DecompTree(
            nodes=reference_tree(data, dims_per_level, rule),
            fanout=tree.fanout,
            params_info=tree.params_info,
        )
        assert len(ref.nodes) > 20
        assert_same_release(tree, ref)
        attach_noisy_counts(tree, data, 0.5, np.random.default_rng(2))
        ref = reference_attach(ref, data, 0.5, np.random.default_rng(2))
        assert_same_release(tree, ref)

    def test_simple_tree_matches_per_node_reference(self):
        data = random_dataset(np.random.default_rng(23), n=3000)
        tree = build_simple_tree(data, 4.0, 20.0, 6, np.random.default_rng(3))
        rng = np.random.default_rng(3)

        def rule(count, depth):
            c_hat = count + sample_laplace(4.0, rng)
            return c_hat > 20.0 and depth < 5, c_hat

        ref = DecompTree(
            nodes=reference_tree(data, 2, rule), fanout=4, params_info=tree.params_info
        )
        assert len(ref.nodes) > 20
        assert_same_release(tree, ref)

    def test_depth_cap_zero_is_a_bare_root_without_draws(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        rng = np.random.default_rng(6)
        tree = build_privtree(uniform_4096, params, rng, depth_cap=0)
        assert len(tree.nodes) == 1
        assert rng.random() == np.random.default_rng(6).random()


def midpoint_dataset(d):
    """Points on the split midpoints of the first levels, and the lower face."""
    grid = np.array([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
    rng = np.random.default_rng(d)
    pts = rng.choice(grid, size=(400, d))
    return SpatialDataset(SpatialDomain((0.0,) * d, (1.0,) * d), pts)


RELEASE_CASES = [
    (d, fanout, cap)
    for d, fanouts in ((1, [None]), (2, [None, 2]), (4, [None, 2, 4, 8]))
    for fanout in fanouts
    for cap in (0, 1, spatial.DEFAULT_DEPTH_CAP)
]


class TestReleasePrivtree:
    """``release_privtree`` against ``build_privtree`` + ``attach_noisy_counts``
    on the two streams of ``SeedSequence(seed).spawn(2)``."""

    @staticmethod
    def reference(data, epsilon, *, budget_split=0.5, fanout=None,
                  depth_cap=spatial.DEFAULT_DEPTH_CAP, theta=0.0, seed=0, noiseless=False):
        dims_per_level = data.domain.dims if fanout is None else fanout.bit_length() - 1
        eps_tree = epsilon * budget_split
        params = privtree_params(eps_tree, 1 << dims_per_level, theta)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
        tree = build_privtree(data, params, rngs[0], depth_cap=depth_cap,
                              dims_per_level=dims_per_level, noiseless=noiseless)
        attach_noisy_counts(tree, data, epsilon - eps_tree, rngs[1], noiseless=noiseless)
        return tree, rngs

    @staticmethod
    def release(monkeypatch, data, epsilon, **kw):
        """The release and the generators it made."""
        made, default_rng = [], np.random.default_rng

        def spy(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", spy)
        tree = spatial.release_privtree(data, epsilon, **kw)
        monkeypatch.undo()
        return tree, made

    def assert_same(self, monkeypatch, data, epsilon, **kw):
        got, got_rngs = self.release(monkeypatch, data, epsilon, **kw)
        want, want_rngs = self.reference(data, epsilon, **kw)
        assert_same_release(got, want)
        assert [g.bit_generator.state for g in got_rngs] == [
            g.bit_generator.state for g in want_rngs
        ]
        return got

    @pytest.mark.parametrize("d, fanout, cap", RELEASE_CASES)
    def test_same_release_and_streams(self, monkeypatch, d, fanout, cap):
        data = random_dataset(np.random.default_rng(d), n=2000, d=d)
        tree = self.assert_same(monkeypatch, data, 1.0, fanout=fanout, depth_cap=cap, seed=d)
        assert tree.n_nodes == 1 or cap > 0

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_points_on_split_midpoints(self, monkeypatch, d):
        data = midpoint_dataset(d)
        for fanout in [None, 2]:
            self.assert_same(monkeypatch, data, 4.0, fanout=fanout, seed=5, theta=-3.0)
            tree = spatial.release_privtree(data, 4.0, fanout=fanout, theta=-3.0, noiseless=True)
            # a point on a mid lies in the upper half
            assert [v.noisy_count for v in tree.leaves()] == [
                oracle_count(data.points, v.lo, v.hi) for v in tree.leaves()
            ]

    def test_noiseless_one_point_and_options(self, monkeypatch):
        one = SpatialDataset(SpatialDomain((0.0, 0.0), (1.0, 1.0)), np.array([[0.5, 0.25]]))
        data = random_dataset(np.random.default_rng(9), n=2000)
        for ds in (one, data):
            self.assert_same(monkeypatch, ds, 1.0, noiseless=True)
            self.assert_same(monkeypatch, ds, 2.0, budget_split=0.3, theta=-5.0, seed=11)
        tree = spatial.release_privtree(one, 1.0, noiseless=True)
        assert sorted(v.noisy_count for v in tree.leaves()) == [0.0] * 3 + [1.0]

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"epsilon": 0.0}, "epsilon must be positive"),
            ({"budget_split": 1.0}, "budget-split"),
            ({"depth_cap": -1}, "depth-cap"),
            ({"fanout": 3}, "power of two"),
            ({"fanout": 8}, "exceeds 2"),
            # 1.5e-323 * 0.9 rounds to 1.5e-323, which leaves nothing for the counts
            ({"epsilon": 1.5e-323, "budget_split": 0.9}, "epsilon_counts must be positive"),
        ],
    )
    def test_refusals(self, kw, message):
        data = random_dataset(np.random.default_rng(1), n=10)
        kw = {"epsilon": 1.0, **kw}
        with pytest.raises(ParameterError, match=message):
            spatial.release_privtree(data, kw.pop("epsilon"), **kw)


# ---------------------------------------------------------------------------
# document validation on load
# ---------------------------------------------------------------------------


def cyclic_tree_doc():
    """Two nodes whose child links form a cycle through the root."""
    params = {"epsilon": None, "lambda": None, "theta": None, "delta": None}
    return {
        "fanout": 2,
        "params": params,
        "nodes": [
            {"id": 0, "depth": 0, "lo": [0.0], "hi": [1.0], "children": [1]},
            {"id": 1, "depth": 1, "lo": [0.0], "hi": [0.5], "children": [0],
             "noisy_count": 1.0},
        ],
    }


def _redirect_child(doc):
    doc["nodes"][1]["children"] = [2]


def _drop_child(doc):
    doc["nodes"][0]["children"] = doc["nodes"][0]["children"][:-1]


def _bad_depth(doc):
    doc["nodes"][1]["depth"] = 2


class TestLoadValidation:
    def test_cyclic_document_rejected(self, tmp_path):
        with pytest.raises(InputDataError, match="root node 0 is listed as a child"):
            spatial.tree_from_json_dict(cyclic_tree_doc())
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(cyclic_tree_doc()))
        with pytest.raises(InputDataError):
            spatial.load_tree(path)

    def test_numpy_fanout_writes_a_loadable_integer(self):
        node = TreeNode(id=0, depth=0, lo=(0.0, 0.0), hi=(1.0, 1.0), noisy_count=10.0)
        text = DecompTree([node], np.int64(4)).dumps()
        assert json.loads(text)["fanout"] == 4
        assert spatial.tree_from_json_dict(json.loads(text)).fanout == 4

    @pytest.mark.parametrize("fanout", [4.0, 0, -3])
    def test_constructor_rejects_a_fanout_the_loader_rejects(self, fanout):
        node = TreeNode(id=0, depth=0, lo=(0.0,), hi=(1.0,), noisy_count=1.0)
        with pytest.raises(ParameterError, match="fanout must be an integer >= 1"):
            DecompTree([node], fanout)

    @pytest.mark.parametrize("fanout", [0, -3])
    def test_fanout_below_one_rejected(self, tmp_path, fanout):
        doc = {
            "fanout": fanout,
            "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
            "nodes": [{"id": 0, "depth": 0, "lo": [0.0], "hi": [1.0], "children": [],
                       "noisy_count": 3.0}],
        }
        with pytest.raises(InputDataError, match=f"fanout {fanout} is below 1"):
            spatial.tree_from_json_dict(doc)
        tree, wl = tmp_path / "tree.json", tmp_path / "wl.csv"
        tree.write_text(json.dumps(doc))
        wl.write_text("0,1\n")
        res = CliRunner().invoke(main, ["range-query", "--tree", str(tree), "--workload", str(wl)])
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("fanout, kept", [(7, 4), (1, 4), (4000, 4), (4, 3)])
    def test_children_that_disagree_with_the_fanout_rejected(self, uniform_4096, tmp_path,
                                                             fanout, kept):
        params = privtree_params(1.0, 4, 0.0)
        doc = build_privtree(uniform_4096, params, noiseless=True, depth_cap=1).to_json_dict()
        assert [len(e["children"]) for e in doc["nodes"]] == [4, 0, 0, 0, 0]
        doc["fanout"] = fanout
        del doc["nodes"][kept + 1 :], doc["nodes"][0]["children"][kept:]
        message = f"node 0 has {kept} children, but the tree's fanout is {fanout}"
        with pytest.raises(InputDataError, match=message):
            spatial.tree_from_json_dict(doc)
        nodes = [
            TreeNode(id=e["id"], depth=e["depth"], lo=tuple(e["lo"]), hi=tuple(e["hi"]),
                     children=e["children"])
            for e in doc["nodes"]
        ]
        with pytest.raises(InputDataError, match=message):
            DecompTree(nodes, fanout)
        tree, wl = tmp_path / "tree.json", tmp_path / "wl.csv"
        tree.write_text(json.dumps(doc))
        wl.write_text("0,0,1,1\n")
        res = CliRunner().invoke(main, ["range-query", "--tree", str(tree), "--workload", str(wl)])
        assert res.exit_code == 2 and message in res.output, res.output

    def test_a_node_list_of_mixed_fanout_rejected(self):
        with pytest.raises(InputDataError, match="node 1 has 2 children, but the tree's fanout is 4"):
            DecompTree(mixed_fanout_nodes(), 4)

    def test_one_cell_grid_has_fanout_one(self):
        data = SpatialDataset(SpatialDomain((0.0,), (1.0,)), np.array([[0.25], [0.5]]))
        grid = build_ug(data, 1.0, noiseless=True)
        assert grid.fanout == 1 and grid.n_nodes == 2
        assert trees_equal(spatial.tree_from_json_dict(grid.to_json_dict()), grid)

    def test_inverted_region_rejected(self):
        doc = {
            "fanout": 2,
            "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
            "nodes": [{"id": 0, "depth": 0, "lo": [0.5], "hi": [0.2], "children": [],
                       "noisy_count": 3.0}],
        }
        with pytest.raises(InputDataError, match="node 0: lo must be below hi"):
            spatial.tree_from_json_dict(doc)

    @pytest.mark.parametrize("kind", ["privtree-2d", "grid"])
    def test_empty_region_rejected_in_a_well_formed_document(self, kind):
        doc = load_fixture(kind)[1].to_json_dict()
        leaf = doc["nodes"][-1]
        leaf["hi"][1] = leaf["lo"][1]
        with pytest.raises(InputDataError, match=f"node {leaf['id']}: lo must be below hi"):
            spatial.tree_from_json_dict(doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_redirect_child, "node 2 has two parents"),
            (_drop_child, "node 4 is not reachable from the root"),
            (_bad_depth, "node 1 is not one level below its parent 0"),
        ],
    )
    def test_malformed_links_rejected(self, uniform_4096, mutate, message):
        params = privtree_params(1.0, 4, 0.0)
        doc = build_privtree(uniform_4096, params, noiseless=True, depth_cap=1).to_json_dict()
        assert len(doc["nodes"]) == 5
        mutate(doc)
        with pytest.raises(InputDataError, match=message):
            spatial.tree_from_json_dict(doc)


# ---------------------------------------------------------------------------
# column-wise loading against the per-node reference loader
# ---------------------------------------------------------------------------


def reference_check_tree_links(size, root, links):
    """The link check as a loop over ``(parent, child, extends)`` triples."""
    parent = [-1] * size
    for p, c, extends in links:
        if c == root:
            raise InputDataError(f"root node {root} is listed as a child of node {p}")
        if parent[c] >= 0:
            raise InputDataError(f"node {c} has two parents ({parent[c]} and {p})")
        if not extends:
            raise InputDataError(f"node {c} is not one level below its parent {p}")
        parent[c] = p
    for c, p in enumerate(parent):
        if p < 0 and c != root:
            raise InputDataError(f"node {c} is not reachable from the root")


def reference_detect_grid(tree):
    """Grid re-tagging with one comparison per cell."""
    root = tree.node(tree.root)
    if root.is_leaf or len(tree.nodes) != len(root.children) + 1:
        return None
    d = tree.dims
    if len(root.children) != tree.fanout:
        return None
    m = round(tree.fanout ** (1.0 / d))
    if m**d != tree.fanout:
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


def reference_tree_from_json_dict(doc):
    """The loader that built one TreeNode per entry, in document order; a
    node entry whose field does not convert raises InputDataError.  The
    checks marked "added" make every value have the JSON type of the
    format, a depth lie in [0, n) and an internal node have ``fanout``
    children; the nodes are then relabelled to BFS order, children in listed
    order (added)."""
    try:
        fanout = int(of_type(doc["fanout"], int, "fanout"))  # added: of_type
        params_info = dict(of_type(doc["params"], dict, "params"))  # added: of_type
        raw_nodes = of_type(doc["nodes"], list, "nodes")  # added: of_type, which also checks "a list"
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed tree document: {exc}") from exc
    nodes = [None] * len(raw_nodes)
    root = dims = None
    for k, entry in enumerate(raw_nodes):

        def field(key, convert):
            try:
                return convert(entry)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputDataError(
                    f"node entry {k}: field {key!r} is missing or malformed "
                    f"({type(exc).__name__}: {exc})"
                ) from exc

        def items(e, key, kind):  # added: each item checked, then converted
            return [kind(of_type(v, kind, key)) for v in of_type(e[key], list, key)]

        # added: of_type and items
        node = TreeNode(
            id=field("id", lambda e: int(of_type(e["id"], int, "id"))),
            depth=field("depth", lambda e: int(of_type(e["depth"], int, "depth"))),
            lo=field("lo", lambda e: tuple(items(e, "lo", float))),
            hi=field("hi", lambda e: tuple(items(e, "hi", float))),
            children=field("children", lambda e: items(e, "children", int)),
            noisy_count=field(
                "noisy_count",
                lambda e: (
                    float(of_type(e["noisy_count"], float, "noisy_count"))
                    if "noisy_count" in e else None
                ),
            ),
        )
        if not 0 <= node.id < len(raw_nodes) or nodes[node.id] is not None:
            raise InputDataError(f"bad or duplicate node id {node.id}")
        if not 0 <= node.depth < len(raw_nodes):  # added
            raise InputDataError(
                f"node {node.id}: depth {node.depth} is outside [0, {len(raw_nodes)})"
            )
        dims = len(node.lo) if dims is None else dims
        if not dims or len(node.lo) != dims or len(node.hi) != dims:
            raise InputDataError(
                f"node {node.id}: lo and hi must have as many entries as in every node"
            )
        values = node.lo + node.hi + (() if node.noisy_count is None else (node.noisy_count,))
        if not all(map(math.isfinite, values)):
            raise InputDataError(f"node {node.id}: lo, hi and noisy_count must be finite")
        if not all(a < b for a, b in zip(node.lo, node.hi)):
            raise InputDataError(f"node {node.id}: lo must be below hi in every dimension")
        if any(not 0 <= c < len(raw_nodes) for c in node.children):
            raise InputDataError(f"node {node.id} references an unknown child id")
        nodes[node.id] = node
        if node.depth == 0:
            root = node.id
    if root is None:
        raise InputDataError("tree document has no depth-0 root node")
    reference_check_tree_links(
        len(nodes),
        root,
        ((v.id, c, nodes[c].depth == v.depth + 1) for v in nodes for c in v.children),
    )
    for v in nodes:  # added
        if v.children and len(v.children) != fanout:
            raise InputDataError(
                f"node {v.id} has {len(v.children)} children, but the tree's fanout is {fanout}"
            )
    bfs = [root]  # added: the relabelling to BFS order
    for nid in bfs:
        bfs.extend(nodes[nid].children)
    new = {old: k for k, old in enumerate(bfs)}
    nodes = [
        TreeNode(id=k, depth=v.depth, lo=v.lo, hi=v.hi, children=[new[c] for c in v.children],
                 noisy_count=v.noisy_count)
        for k, v in enumerate(nodes[old] for old in bfs)
    ]
    return DecompTree(nodes=nodes, fanout=fanout, params_info=params_info)


_LOAD_KINDS = (
    "privtree-1d", "privtree-2d", "privtree-3d", "privtree-4d", "round-robin-3d",
    "simple", "grid", "no-counts",
)


def _load_fixture(kind, attach_seed=None):
    """(data, tree) for one kind; ``attach_seed`` attaches counts with that
    stream instead of the fixture's own."""
    rng = np.random.default_rng(41)
    d = {"privtree-1d": 1, "privtree-3d": 3, "privtree-4d": 4, "round-robin-3d": 3}.get(kind, 2)
    data = random_dataset(np.random.default_rng(40 + d), n=600, d=d)
    if kind == "simple":
        tree = build_simple_tree(data, 4.0, 5.0, 5, rng)
    elif kind == "grid":
        tree = build_ug(data, 0.5, rng)
    else:
        dims_per_level = 1 if kind == "round-robin-3d" else d
        params = privtree_params(1.0, 1 << dims_per_level, 0.0)
        tree = build_privtree(data, params, rng, dims_per_level=dims_per_level)
        if kind != "no-counts":
            attach_noisy_counts(tree, data, 0.5, np.random.default_rng(42))
    if attach_seed is not None:
        attach_noisy_counts(tree, data, 0.5, np.random.default_rng(attach_seed))
    return data, tree


load_fixture = functools.cache(_load_fixture)


def load_queries(d):
    rng = np.random.default_rng(43)
    lo = rng.random((30, d)) * 0.8
    boxes = [RangeQuery(tuple(a), tuple(a + w)) for a, w in zip(lo, rng.random((30, d)) * 0.4)]
    return boxes + [RangeQuery((0.0,) * d, (1.0,) * d), RangeQuery((0.5,) * d, (0.5,) * d)]


Raised = collections.namedtuple("Raised", "cls message")


def outcome(fn, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except InputDataError as exc:
        return Raised(type(exc), str(exc))


odd_value = st.sampled_from(
    [None, True, [], {}, "x", "", "0.5", "1", 1.0, 1.5, -1, 10**30, math.nan, math.inf,
     -math.inf, [0.25], [[0.25]]]
)


@st.composite
def mutated_tree_docs(draw):
    """(kind, doc, mutated): a built tree's document, sometimes with
    permuted ids, and zero to two defects or odd values."""
    kind = draw(st.sampled_from(_LOAD_KINDS))
    doc = json.loads(load_fixture(kind)[1].dumps())
    nodes = doc["nodes"]
    n = len(nodes)
    if draw(st.booleans()):
        perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n).tolist()
        for entry in nodes:
            entry["id"] = perm[entry["id"]]
            entry["children"] = [perm[c] for c in entry["children"]]
        if draw(st.booleans()):
            nodes.reverse()
    mutations = draw(st.lists(st.integers(0, 12), max_size=2))
    for m in mutations:
        entry = nodes[draw(st.integers(0, n - 1))]
        other_id = nodes[draw(st.integers(0, n - 1))].get("id", 0)
        key = draw(st.sampled_from(["id", "depth", "lo", "hi", "children", "noisy_count"]))
        value = entry.get(key)
        kids = entry.get("children")
        kids = kids if isinstance(kids, list) else []
        if m == 0:  # missing key
            entry.pop(key, None)
        elif m == 1:  # wrong type, odd value or non-numeric string
            entry[key] = draw(odd_value)
        elif m == 2 and isinstance(value, list) and value:  # one odd element
            value[draw(st.integers(0, len(value) - 1))] = draw(odd_value)
        elif m == 3 and key in ("lo", "hi") and isinstance(value, list):  # ragged region
            entry[key] = value[:-1] if draw(st.booleans()) else value + [0.5]
        elif m == 4:  # bad or duplicate id
            entry["id"] = draw(st.sampled_from([-1, n, other_id]))
        elif m == 5:  # cycle: a node lists an ancestor, or the root, as a child
            entry["children"] = kids + [other_id]
        elif m == 6:  # two parents
            taken = [c for e in nodes if isinstance(e.get("children"), list) for c in e["children"]]
            if taken:
                entry["children"] = kids + [draw(st.sampled_from(taken))]
        elif m == 7 and isinstance(entry.get("depth"), int):  # wrong depth
            entry["depth"] += draw(st.sampled_from([-1, 1, 2]))
        elif m == 8 and kids:  # unreachable node
            entry["children"] = kids[1:]
        elif m == 9:  # no root
            for e in nodes:
                if e.get("depth") == 0:
                    e["depth"] = 1
        elif m == 10:  # count added or removed
            if entry.pop("noisy_count", None) is None:
                entry["noisy_count"] = 3.0
        elif m == 11:  # numbers written another way, which the format rejects
            if key in ("id", "depth") and isinstance(value, int):
                entry[key] = float(value) if draw(st.booleans()) else str(value)
            elif key in ("lo", "hi") and isinstance(value, list):
                entry[key] = [repr(v) for v in value]
        elif m == 12:  # nodes not a list of entries
            doc["nodes"] = draw(st.sampled_from([{}, 3, [3], [[]]]))
            break
    return kind, doc, bool(mutations)


def grids_equal(tree, ref):
    """The grid view that range_counts installs for ``tree`` equals the
    reference's grid of ``ref``, or neither is a grid."""
    a, b = spatial._detect_grid(tree._cols, tree.fanout), reference_detect_grid(ref)
    if a is None or b is None:
        return a is b
    return (
        len(a.edges) == len(b["edges"])
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.edges, b["edges"]))
        and a.counts.tobytes() == b["counts"].tobytes()
    )


def answers(tree, queries):
    return spatial.range_counts(tree, queries).tobytes()


class TestColumnLoader:
    @given(case=mutated_tree_docs())
    @settings(max_examples=300, deadline=None)
    def test_same_tree_or_same_error_as_per_node_reference(self, case):
        kind, doc, mutated = case
        want = outcome(reference_tree_from_json_dict, json.loads(json.dumps(doc)))
        got = outcome(spatial.tree_from_json_dict, json.loads(json.dumps(doc)))
        if isinstance(want, Raised):
            assert got == want
            return
        assert isinstance(got, DecompTree), got
        assert got.root == want.root and got.fanout == want.fanout
        assert got.params_info == want.params_info and got.dims == want.dims
        assert grids_equal(got, want)
        queries = load_queries(want.dims)
        assert outcome(answers, got, queries) == outcome(answers, want, queries)
        assert trees_equal(got, want)
        if not mutated:
            built = load_fixture(kind)[1]
            assert outcome(answers, got, queries) == outcome(answers, built, queries)

    @pytest.mark.parametrize(
        "kind, entry, key, index, value",
        [
            ("grid", -1, "hi", 0, 0.999),  # a cell off the linspace grid
            ("grid", 1, "lo", 1, 0.001),
            ("grid", 1, "children", None, []),  # same cells, fanout 1 short
            ("privtree-2d", -1, "lo", None, [0.0]),  # ragged last entry
            ("privtree-2d", 0, "hi", None, [1.0]),  # ragged first entry
            ("privtree-2d", -1, "depth", None, 0),  # a second depth-0 entry
            ("privtree-2d", -1, "noisy_count", None, None),  # null count
        ],
    )
    def test_edge_entries_match_the_reference(self, kind, entry, key, index, value):
        doc = json.loads(load_fixture(kind)[1].dumps())
        if key == "children":
            doc["fanout"] -= 1
        elif index is None:
            doc["nodes"][entry][key] = value
        else:
            doc["nodes"][entry][key][index] = value
        want = outcome(reference_tree_from_json_dict, json.loads(json.dumps(doc)))
        got = outcome(spatial.tree_from_json_dict, doc)
        if isinstance(want, Raised):
            assert got == want
        else:
            assert trees_equal(got, want) and grids_equal(got, want)

    @pytest.mark.parametrize("kind", _LOAD_KINDS)
    def test_attach_on_a_loaded_tree_matches_the_built_tree(self, kind):
        data, tree = load_fixture(kind)
        loaded = spatial.tree_from_json_dict(json.loads(tree.dumps()))
        got = outcome(attach_noisy_counts, loaded, data, 0.5, np.random.default_rng(7))
        want = outcome(_load_fixture, kind, 7)
        if isinstance(want, Raised):  # a grid of more than two cells per side
            assert got == want
            return
        built = want[1]
        queries = load_queries(data.domain.dims)
        assert answers(loaded, queries) == answers(built, queries)
        assert trees_equal(loaded, built)

    def test_query_path_builds_no_tree_nodes(self, monkeypatch):
        data, tree = load_fixture("privtree-2d")
        docs = [tree.to_json_dict(), load_fixture("grid")[1].to_json_dict()]

        def refuse(*args, **kwargs):
            raise AssertionError("a TreeNode was built")

        monkeypatch.setattr(spatial, "TreeNode", refuse)
        for doc in docs:
            loaded = spatial.tree_from_json_dict(doc)
            assert loaded.domain == data.domain
            spatial.range_counts(loaded, load_queries(loaded.dims))
            spatial.range_counts(force_tree_walk(loaded), load_queries(loaded.dims))

    def test_well_formed_document_skips_the_entry_reader(self, monkeypatch):
        docs = [load_fixture(kind)[1].to_json_dict() for kind in _LOAD_KINDS]

        def refuse(*args, **kwargs):
            raise AssertionError("the defect pass ran on a well-formed document")

        monkeypatch.setattr(spatial, "_raise_first_defect", refuse)
        for doc in docs:
            spatial.tree_from_json_dict(doc)

    def test_release_path_builds_no_tree_nodes(self, monkeypatch, tmp_path):
        data = random_dataset(np.random.default_rng(44), n=600)
        data4 = random_dataset(np.random.default_rng(45), n=600, d=4)
        points = tmp_path / "points.csv"
        np.savetxt(points, data.points, delimiter=",")

        def refuse(*args, **kwargs):
            raise AssertionError("a TreeNode was built")

        monkeypatch.setattr(spatial, "TreeNode", refuse)
        rng = np.random.default_rng(46)
        trees = [
            build_privtree(data, privtree_params(1.0, 4, 0.0), rng),
            build_privtree(data4, privtree_params(1.0, 4, 0.0), rng, dims_per_level=2),
            build_simple_tree(data, 4.0, 5.0, 5, rng),
            build_ug(data, 0.5, rng),
        ]
        attach_noisy_counts(trees[0], data, 0.5, rng)
        attach_noisy_counts(trees[1], data4, 0.5, rng)
        for tree in trees:
            assert tree.dumps()
        out = tmp_path / "tree.json"
        res = CliRunner().invoke(main, [
            "spatial-build", "--input", str(points), "--output", str(out),
            "--epsilon", "1.0", "--domain-lo", "0,0", "--domain-hi", "1,1", "--seed", "3",
        ])
        assert res.exit_code == 0, res.output
        loaded = spatial.load_tree(out)
        assert f"built tree: {loaded.n_nodes} nodes, {loaded.n_leaves} leaves" in res.output

    def test_nodes_are_made_on_request(self):
        loaded = spatial.tree_from_json_dict(load_fixture("simple")[1].to_json_dict())
        assert loaded.nodes is not loaded.nodes and loaded.nodes == loaded.nodes
        assert loaded.node(3) is not loaded.node(3) and loaded.node(3) == loaded.nodes[3]
        assert loaded.leaves() == [v for v in loaded.nodes if v.is_leaf]
        assert len(loaded.leaves()) == len(load_fixture("simple")[1].leaves())


# ---------------------------------------------------------------------------
# boxes that float arithmetic can no longer halve
# ---------------------------------------------------------------------------


def hot_spot_dataset(lo, n_spot=3000, n_uniform=100):
    """``n_spot`` copies of ``lo + 0.3`` plus uniform points in the unit box
    at ``lo``: the spot keeps splitting until its box cannot be halved."""
    rng = np.random.default_rng(5)
    pts = np.vstack([np.full((n_spot, 2), lo + 0.3), lo + rng.random((n_uniform, 2))])
    return SpatialDataset(SpatialDomain((lo, lo), (lo + 1.0, lo + 1.0)), pts)


def has_unhalvable_leaf(tree):
    doc = tree.to_json_dict()
    for e in doc["nodes"]:
        lo, hi = np.array(e["lo"]), np.array(e["hi"])
        if not e["children"] and not ((lo < (lo + hi) / 2) & ((lo + hi) / 2 < hi)).all():
            return True
    return False


class TestUnhalvableBoxes:
    @pytest.mark.parametrize("lo, depth_cap", [(1e6, spatial.DEFAULT_DEPTH_CAP), (0.0, 200)])
    def test_privtree_builds_saves_reloads_and_answers(self, lo, depth_cap):
        data = hot_spot_dataset(lo)
        tree = build_privtree(
            data, privtree_params(2.0, 4, 0.0), np.random.default_rng(1), depth_cap=depth_cap
        )
        assert has_unhalvable_leaf(tree)
        attach_noisy_counts(tree, data, 2.0, noiseless=True)
        loaded = spatial.tree_from_json_dict(json.loads(tree.dumps()))
        assert trees_equal(loaded, tree)
        whole = RangeQuery(data.domain.lo, data.domain.hi)
        assert spatial.range_counts(loaded, [whole]).tolist() == [data.n]

    def test_simple_tree_stops_at_unhalvable_boxes(self):
        data = hot_spot_dataset(1e6)
        tree = build_simple_tree(data, 1.0, 5.0, 200, np.random.default_rng(2))
        assert has_unhalvable_leaf(tree)
        assert trees_equal(spatial.tree_from_json_dict(json.loads(tree.dumps())), tree)

    def test_unhalvable_nodes_draw_no_split_noise(self):
        # [1, 1 + 4 ulp) halves twice; its depth-2 boxes are one ulp wide
        ulp = math.ulp(1.0)
        domain = SpatialDomain((1.0,), (1.0 + 4 * ulp,))
        data = SpatialDataset(domain, np.full((5000, 1), 1.0))
        params = privtree_params(1.0, 2, 0.0)
        rng = np.random.default_rng(3)
        tree = build_privtree(data, params, rng)
        assert tree.to_json_dict()["nodes"][-1]["depth"] == 2
        # one draw per node of depths 0 and 1 (1 + 2), none at depth 2
        ref = np.random.default_rng(3)
        sample_laplace(params.lam, ref, size=3)
        assert rng.random() == ref.random()

    def test_shape_audit_rejects_a_cap_past_halving(self):
        ulp = math.ulp(1.0)
        domain = SpatialDomain((1.0,), (1.0 + 4 * ulp,))
        data = SpatialDataset(domain, np.full((50, 1), 1.0))
        params = privtree_params(1.0, 2, 0.0)
        probs, _, _ = spatial.privtree_split_probabilities(data, params, depth_cap=2)
        assert probs.size == 3
        with pytest.raises(ParameterError, match="cannot be halved"):
            spatial.privtree_split_probabilities(data, params, depth_cap=3)
        with pytest.raises(ParameterError, match="cannot be halved"):
            spatial.simulate_privtree_shapes(
                data, params, 10, np.random.default_rng(0), depth_cap=3
            )


# ---------------------------------------------------------------------------
# library code reads and writes columns only
# ---------------------------------------------------------------------------


class TestColumnsOnly:
    def test_attach_on_a_node_list_matches_the_column_tree(self, uniform_4096):
        built = build_privtree(uniform_4096, privtree_params(1.0, 4, 0.0), np.random.default_rng(1))
        listed = DecompTree(
            nodes=[
                TreeNode(id=e["id"], depth=e["depth"], lo=tuple(e["lo"]), hi=tuple(e["hi"]),
                         children=list(e["children"]))
                for e in built.to_json_dict()["nodes"]
            ],
            fanout=built.fanout,
            params_info=built.params_info,
        )
        before = listed.node(0)
        attach_noisy_counts(built, uniform_4096, 0.5, np.random.default_rng(2))
        attach_noisy_counts(listed, uniform_4096, 0.5, np.random.default_rng(2))
        assert listed.dumps() == built.dumps()
        assert listed.node(0) is not before and before.noisy_count is None

    def test_shape_mask_builds_no_tree_nodes(self, monkeypatch):
        data = one_d_fixture()
        tree = build_privtree(
            data, privtree_params(1.0, 2, 0.0), np.random.default_rng(4), depth_cap=3
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a TreeNode was built")

        with monkeypatch.context() as patch:
            patch.setattr(spatial, "TreeNode", refuse)
            mask = spatial.tree_shape_mask(tree, depth_cap=3)
        assert mask == spatial.tree_shape_mask(
            DecompTree(nodes=tree.nodes, fanout=tree.fanout), depth_cap=3
        )
