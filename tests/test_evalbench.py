import json

import numpy as np
import pytest

from dphier import spatial
from dphier.dp_core import privtree_params
from dphier.errors import ParameterError
from dphier.evalbench import (
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
