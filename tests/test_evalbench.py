import json
import tracemalloc

import numpy as np
import pytest

from dphier import evalbench, spatial
from dphier.dp_core import privtree_params
from dphier.errors import InputDataError, ParameterError
from dphier.evalbench import (
    SIZE_CLASSES,
    EvalReport,
    WorkloadSpec,
    evaluate_queries,
    exact_range_count,
    exact_range_counts,
    gen_workload,
    relative_error,
    topk_precision,
    total_variation,
)
from dphier.spatial import RangeQuery, SpatialDataset, SpatialDomain

from conftest import random_dataset


def box_volume(q):
    return float(np.prod([b - a for a, b in zip(q.lo, q.hi)]))


class TestWorkload:
    def test_small_class_volume_band(self, unit_square):
        spec = WorkloadSpec("small", count=300, seed=1)
        queries = gen_workload(unit_square, spec)
        for q in queries:
            assert 1e-4 <= box_volume(q) < 1e-3

    @pytest.mark.parametrize("cls,lo,hi", [("medium", 1e-3, 1e-2), ("large", 1e-2, 1e-1)])
    def test_other_class_bands(self, unit_square, cls, lo, hi):
        for q in gen_workload(unit_square, WorkloadSpec(cls, count=100, seed=2)):
            assert lo <= box_volume(q) < hi

    def test_boxes_inside_domain(self):
        dom = SpatialDomain((-2.0, 5.0, 0.0), (3.0, 6.0, 10.0))
        for q in gen_workload(dom, WorkloadSpec("large", count=100, seed=3)):
            for a, b, dl, dh in zip(q.lo, q.hi, dom.lo, dom.hi):
                assert dl <= a <= b <= dh

    def test_zero_count_empty(self, unit_square):
        assert gen_workload(unit_square, WorkloadSpec("small", count=0, seed=0)) == []

    def test_fixed_seed_reproducible(self, unit_square):
        a = gen_workload(unit_square, WorkloadSpec("medium", count=50, seed=9))
        b = gen_workload(unit_square, WorkloadSpec("medium", count=50, seed=9))
        assert a == b

    def test_unknown_class_rejected(self):
        with pytest.raises(ParameterError):
            WorkloadSpec("tiny", count=10)


class TestRelativeError:
    def test_plain(self):
        assert relative_error(110.0, 100.0, 50.0) == pytest.approx(0.1)

    def test_exact_match(self):
        assert relative_error(42.0, 42.0, 1.0) == 0.0

    def test_smoothing_floor(self):
        assert relative_error(5.0, 0.0, 50.0) == pytest.approx(0.1)

    def test_bad_delta(self):
        with pytest.raises(ParameterError):
            relative_error(1.0, 1.0, 0.0)


class TestTopkPrecision:
    def test_identical(self):
        assert topk_precision({"a", "b"}, {"a", "b"}, 2) == 1.0

    def test_disjoint(self):
        assert topk_precision({"a"}, {"b"}, 1) == 0.0

    def test_partial(self):
        returned = {f"s{i}" for i in range(50)}
        exact = {f"s{i}" for i in range(25)} | {f"x{i}" for i in range(25)}
        assert topk_precision(returned, exact, 50) == 0.5


class TestTotalVariation:
    def test_equal(self):
        assert total_variation({0: 0.5, 1: 0.5}, {1: 0.5, 0: 0.5}) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation({0: 1.0}, {1: 1.0}) == 1.0

    def test_half_quarter(self):
        assert total_variation([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25)

    def test_rejects_non_distribution(self):
        with pytest.raises(ParameterError):
            total_variation([0.5, 0.2], [0.5, 0.5])


class TestExactRangeCount:
    def test_whole_domain(self, uniform_4096):
        q = RangeQuery(uniform_4096.domain.lo, uniform_4096.domain.hi)
        assert exact_range_count(uniform_4096, q) == 4096

    def test_empty_box(self, uniform_4096):
        q = RangeQuery((0.5, 0.5), (0.5, 0.5))
        assert exact_range_count(uniform_4096, q) == 0

    def test_half_domain_on_aligned_grid(self, uniform_4096):
        q = RangeQuery((0.0, 0.0), (0.5, 1.0))
        assert exact_range_count(uniform_4096, q) == 2048

    def test_batch_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, n=700)
        queries = gen_workload(data.domain, WorkloadSpec("large", count=100, seed=4))
        queries += gen_workload(data.domain, WorkloadSpec("small", count=50, seed=5))
        batch = exact_range_counts(data, queries)
        single = [exact_range_count(data, q) for q in queries]
        assert batch.tolist() == single

    def test_consistent_with_noiseless_tree_on_aligned_queries(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = spatial.build_privtree(uniform_4096, params, noiseless=True)
        spatial.attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        # queries aligned to depth-2 cell boundaries
        for i, j in [(0, 0), (1, 2), (3, 3), (0, 2)]:
            lo = (i / 4, j / 4)
            hi = ((i + 1) / 4, (j + 1) / 4)
            q = RangeQuery(lo, hi)
            assert spatial.range_count(tree, q) == pytest.approx(
                exact_range_count(uniform_4096, q)
            )


class TestEvalReport:
    def test_report_shapes_and_aggregates(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = spatial.build_privtree(uniform_4096, params, noiseless=True)
        spatial.attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        queries = gen_workload(
            uniform_4096.domain, WorkloadSpec("medium", count=40, seed=11)
        )
        report = evaluate_queries(tree, uniform_4096, queries)
        assert report.aggregates["count"] == 40
        assert report.delta == pytest.approx(0.001 * 4096)
        doc = json.loads(report.dumps())
        assert len(doc["queries"]) == 40
        table = report.to_text_table(max_rows=5)
        assert "median RE" in table and "more rows" in table

    def test_relative_errors_match_scalar_relative_error(self, uniform_4096):
        params = privtree_params(1.0, 4, 0.0)
        tree = spatial.build_privtree(uniform_4096, params, np.random.default_rng(3))
        spatial.attach_noisy_counts(tree, uniform_4096, 0.5, np.random.default_rng(4))
        queries = gen_workload(
            uniform_4096.domain, WorkloadSpec("small", count=200, seed=12)
        )
        for delta in (None, 0.5, 40.0):
            report = evaluate_queries(tree, uniform_4096, queries, delta=delta)
            want = np.array(
                [relative_error(a, b, report.delta)
                 for a, b in zip(report.estimates, report.exacts)]
            )
            assert np.array_equal(report.rel_errors.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_bad_delta_rejected_even_for_an_empty_workload(self, uniform_4096, delta):
        tree = spatial.build_privtree(uniform_4096, privtree_params(1.0, 4, 0.0), noiseless=True)
        spatial.attach_noisy_counts(tree, uniform_4096, 0.5, noiseless=True)
        with pytest.raises(ParameterError):
            evaluate_queries(tree, uniform_4096, [], delta=delta)

    def test_negative_rel_errors_rejected(self):
        with pytest.raises(ParameterError):
            EvalReport(
                estimates=np.array([1.0]),
                exacts=np.array([1.0]),
                rel_errors=np.array([-0.1]),
                delta=1.0,
            )


class TestDirectionalAccuracy:
    def test_error_decreases_with_budget(self):
        # same data, same workload: a 16x larger budget should win on median
        # relative error in (almost) every paired trial
        rng = np.random.default_rng(20)
        centers = np.array([[0.25, 0.25], [0.7, 0.6], [0.85, 0.2]])
        parts = [
            c + rng.normal(0, 0.04, size=(6000, 2)) for c in centers
        ]
        pts = np.clip(np.vstack(parts), 0.0, 1.0 - 1e-9)
        data = SpatialDataset(SpatialDomain((0.0, 0.0), (1.0, 1.0)), pts)
        queries = gen_workload(data.domain, WorkloadSpec("medium", count=150, seed=21))
        exact = exact_range_counts(data, queries)
        delta = 0.001 * data.n

        def median_re(eps, seed):
            ss = np.random.SeedSequence(seed)
            r1, r2 = (np.random.default_rng(c) for c in ss.spawn(2))
            params = privtree_params(eps / 2, 4, 0.0)
            tree = spatial.build_privtree(data, params, r1)
            spatial.attach_noisy_counts(tree, data, eps / 2, r2)
            res = [
                relative_error(spatial.range_count(tree, q), e, delta)
                for q, e in zip(queries, exact)
            ]
            return float(np.median(res))

        wins = sum(
            1 for s in range(10) if median_re(4.0, 1000 + s) < median_re(0.25, 2000 + s)
        )
        assert wins >= 8


def per_query_workload(domain, spec, rng):
    """gen_workload as a loop drawing each query with its own uniform(),
    random(d) and random(d) calls."""
    lo_frac, hi_frac = SIZE_CLASSES[spec.size_class]
    d = domain.dims
    lo = np.asarray(domain.lo)
    span = np.asarray(domain.hi) - lo
    out = []
    for _ in range(spec.count):
        vf = float(np.exp(rng.uniform(np.log(lo_frac), np.log(hi_frac))))
        w = rng.random(d) + 1e-12
        sides = vf ** (w / w.sum())
        offs = rng.random(d) * (1.0 - sides)
        out.append(RangeQuery(lo=tuple(lo + offs * span), hi=tuple(lo + (offs + sides) * span)))
    return out


class TestWorkloadDraws:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_one_draw_matches_per_query_draws(self, d):
        domain = SpatialDomain(tuple(np.linspace(-1.0, 0.0, d)), tuple(np.linspace(1.0, 3.0, d)))
        for size_class in SIZE_CLASSES:
            for seed in range(5):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = gen_workload(domain, WorkloadSpec(size_class, count=200), rng)
                want = per_query_workload(domain, WorkloadSpec(size_class, count=200), ref)
                assert got == want
                assert rng.bit_generator.state == ref.bit_generator.state


def index_edges(n, d):
    """The cell edges the ground-truth index puts over the unit box for n points."""
    return evalbench._cell_index(SpatialDataset(SpatialDomain((0.0,) * d, (1.0,) * d), np.zeros((n, d))))[0][0]


def awkward_points(rng, n, d):
    """Points on cell edges and the lower face, duplicates and a tight cluster."""
    edges = index_edges(n, d)[:-1]
    on_edges = rng.choice(edges, size=(n // 4, d))
    on_edges[: n // 16, 0] = 0.0
    dupes = np.repeat(rng.random((4, d)), n // 16, axis=0)
    cluster = np.clip(0.3 + 0.002 * rng.standard_normal((n // 4, d)), 0.0, 1.0 - 1e-9)
    rest = rng.random((n - len(on_edges) - len(dupes) - len(cluster), d))
    return np.vstack([on_edges, dupes, cluster, rest])


def awkward_queries(rng, n, d):
    edges = index_edges(n, d)
    boxes = []
    for _ in range(60):
        a, b = np.sort(rng.choice(edges, size=(2, d)), axis=0)
        boxes.append(RangeQuery(tuple(a), tuple(b)))  # bounds on cell edges
        boxes.append(RangeQuery(tuple(a), tuple(a)))  # zero width
        c = rng.uniform(-0.5, 1.5, size=(2, d))
        boxes.append(RangeQuery(tuple(c.min(axis=0)), tuple(c.max(axis=0))))  # reaching outside
    boxes.append(RangeQuery((0.0,) * d, (1.0,) * d))
    boxes.append(RangeQuery((-np.inf,) * d, (np.inf,) * d))
    boxes.append(RangeQuery((0.3,) * d, (0.3 + 1e-3,) * d))  # inside the cluster
    for size_class in SIZE_CLASSES:
        boxes += gen_workload(SpatialDomain((0.0,) * d, (1.0,) * d), WorkloadSpec(size_class, 40), rng)
    return boxes


class TestExactRangeCountsIndex:
    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("n", [1, 37, 2000])
    def test_equals_brute_force(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        domain = SpatialDomain((0.0,) * d, (1.0,) * d)
        data = SpatialDataset(domain, awkward_points(rng, n, d) if n > 16 else rng.random((n, d)))
        queries = awkward_queries(rng, data.n, d)
        got = exact_range_counts(data, queries)
        assert got.tolist() == [exact_range_count(data, q) for q in queries]

    @pytest.mark.parametrize("n", [255, 256, 65536, 70000])
    def test_one_dimension_at_the_cell_id_type_limits(self, n):
        # a 1-d index has min(n, 2**16) cells, so 256 and 65,536 cells need
        # ids wider than the 8 and 16 bits that hold the ids below them
        rng = np.random.default_rng(n)
        data = SpatialDataset(SpatialDomain((0.0,), (1.0,)), awkward_points(rng, n, 1))
        queries = awkward_queries(rng, n, 1)
        got = exact_range_counts(data, queries)
        assert got.tolist() == [exact_range_count(data, q) for q in queries]

    @pytest.mark.parametrize("d,n", [(16, 1 << 16), (20, 3000)])
    def test_high_dimensions_stay_bounded(self, d, n):
        # at d = 16 the index has two cells per dimension, at d = 20 only one;
        # memory beyond the sorted copy of the points stays that of the chunks
        rng = np.random.default_rng(d)
        data = SpatialDataset(SpatialDomain((0.0,) * d, (1.0,) * d), rng.random((n, d)))
        queries = [RangeQuery((0.0,) * d, (1.0,) * d), RangeQuery((0.5,) * d, (0.5,) * d)]
        for size_class in SIZE_CLASSES:
            queries += gen_workload(data.domain, WorkloadSpec(size_class, count=8), rng)
        tracemalloc.start()
        try:
            got = exact_range_counts(data, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == [exact_range_count(data, q) for q in queries]
        assert peak < data.points.nbytes + 16 * 2**20

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 1.0), (-3.7, 0.1), (1e-300, 3e-300), (5e-324, 1e-320), (1.0, 1.0 + 2**-40),
         (-1e308, 1e308)],  # the last width overflows
    )
    def test_cells_are_those_of_the_edge_search(self, lo, hi):
        rng = np.random.default_rng(4)
        d, n = 2, 3000
        domain = SpatialDomain((lo,) * d, (hi,) * d)
        edges = evalbench._cell_index(SpatialDataset(domain, np.full((n, d), lo)))[0][0]
        u = rng.random((n, d))
        pts = lo * (1 - u) + hi * u
        pts[: n // 3] = rng.choice(edges[:-1], size=(n // 3, d))  # on the edges
        pts[n // 3 : n // 2] = np.nextafter(pts[: n // 6], -np.inf)  # just below them
        pts = np.clip(pts, lo, np.nextafter(hi, -np.inf))
        got_edges, first, cols = evalbench._cell_index(SpatialDataset(domain, pts))
        m = edges.size - 1
        cell = np.zeros(n, dtype=np.int64)
        for j, e in enumerate(got_edges):
            cell = cell * m + np.searchsorted(e, pts[:, j], side="right") - 1
        assert np.array_equal(first, np.r_[0, np.cumsum(np.bincount(cell, minlength=m**d))])
        assert np.array_equal(cols, pts[np.argsort(cell, kind="stable")].T)

    def test_empty_dataset_and_dimension_check(self, unit_square):
        data = SpatialDataset(unit_square, np.empty((0, 2)))
        queries = [RangeQuery((0.0, 0.0), (1.0, 1.0)), RangeQuery((0.2, 0.2), (0.2, 0.2))]
        assert exact_range_counts(data, queries).tolist() == [0, 0]
        assert exact_range_counts(data, []).tolist() == []
        with pytest.raises(InputDataError):
            exact_range_counts(data, [RangeQuery((0.0,), (1.0,))])

    def test_workload_larger_than_the_block_budget(self):
        # 4-d blocks hold _PAIR_BUDGET // 32 queries, and the one dense cell
        # the last queries cut holds more than _PAIR_BUDGET points
        rng = np.random.default_rng(9)
        d = 4
        pts = np.vstack([rng.random((3000, d)), np.full((spatial._PAIR_BUDGET + 500, d), 0.5)])
        data = SpatialDataset(SpatialDomain((0.0,) * d, (1.0,) * d), pts)
        queries = gen_workload(data.domain, WorkloadSpec("large", count=2100), rng)
        queries += [RangeQuery((0.49999,) * d, (0.7,) * d), RangeQuery((0.5,) * d, (0.50001,) * d)]
        got = exact_range_counts(data, queries)
        assert got.tolist() == [exact_range_count(data, q) for q in queries]
        assert got[-1] == spatial._PAIR_BUDGET + 500 <= got[-2]

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(5)
        d = 4
        centers = rng.random((8, d))
        pts = centers[rng.integers(0, 8, 100_000)] + rng.normal(0.0, 0.03, (100_000, d))
        data = SpatialDataset(SpatialDomain((0.0,) * d, (1.0,) * d), np.clip(pts, 0.0, 1.0 - 1e-9))
        queries = []
        for size_class in SIZE_CLASSES:
            queries += gen_workload(data.domain, WorkloadSpec(size_class, count=200), rng)
        tracemalloc.start()
        try:
            exact_range_counts(data, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the index holds a sorted copy of the points (3.2 MB); chunks of
        # _PAIR_BUDGET candidates add a few MB whatever the workload
        assert peak < 16 * 2**20
