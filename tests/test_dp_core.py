import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphier.dp_core import (
    PrivacyParams,
    biased_count,
    biased_split,
    compose_budgets,
    grow_levels,
    laplace_cdf,
    laplace_pdf,
    laplace_sf,
    privtree_params,
    rho,
    rho_upper,
    sample_laplace,
)
from dphier.errors import ParameterError


class TestSampleLaplace:
    def test_median_is_zero(self):
        rng = np.random.default_rng(101)
        x = sample_laplace(1.0, rng, size=10**6)
        assert abs(np.median(x)) <= 0.01

    def test_variance_is_two_lambda_squared(self):
        # Monte-Carlo oracle: Var(Lap(lam)) = 2 * lam^2 = 8 at lam = 2
        rng = np.random.default_rng(202)
        x = sample_laplace(2.0, rng, size=10**6)
        assert np.var(x) == pytest.approx(8.0, abs=0.1)

    def test_tail_beyond_lam_ln4_has_mass_one_eighth(self):
        # P[Lap(lam) > lam * ln 4] = 0.5 * exp(-ln 4) = 1/8
        rng = np.random.default_rng(303)
        x = sample_laplace(1.0, rng, size=10**6)
        assert np.mean(x > math.log(4.0)) == pytest.approx(0.125, abs=0.005)

    def test_deterministic_for_fixed_seed(self):
        a = sample_laplace(1.5, np.random.default_rng(7), size=10)
        b = sample_laplace(1.5, np.random.default_rng(7), size=10)
        assert np.array_equal(a, b)
        assert sample_laplace(1.5, np.random.default_rng(7)) == a[0]

    def test_scalar_and_shape(self):
        rng = np.random.default_rng(0)
        assert isinstance(sample_laplace(1.0, rng), float)
        assert sample_laplace(1.0, rng, size=(3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ParameterError):
            sample_laplace(scale, np.random.default_rng(0))

    def test_kolmogorov_smirnov_against_cdf(self):
        rng = np.random.default_rng(404)
        x = np.sort(sample_laplace(1.0, rng, size=10**6))
        n = x.size
        cdf = laplace_cdf(x, 1.0)
        stat = max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(0, n) / n),
        )
        assert stat < 0.002


class TestLaplaceCdf:
    def test_half_at_zero(self):
        for lam in (0.3, 1.0, 7.0):
            assert laplace_cdf(0.0, lam) == 0.5

    def test_closed_form_positive(self):
        assert laplace_cdf(2.0, 2.0) == pytest.approx(1.0 - 0.5 * math.exp(-1.0), rel=1e-14)

    def test_closed_form_negative(self):
        assert laplace_cdf(-2.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_monotone_on_grid(self):
        x = np.linspace(-20, 20, 4001)
        c = laplace_cdf(x, 1.7)
        assert np.all(np.diff(c) >= 0)

    def test_symmetry_sum_to_one(self):
        x = np.linspace(-30, 30, 1001)
        total = laplace_cdf(x, 2.5) + laplace_cdf(-x, 2.5)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_cdf_plus_sf_is_one(self):
        x = np.linspace(-15, 15, 301)
        assert np.max(np.abs(laplace_cdf(x, 0.7) + laplace_sf(x, 0.7) - 1.0)) <= 1e-12

    def test_pdf_integrates_near_cdf_increment(self):
        # crude trapezoid check ties pdf to cdf
        x = np.linspace(-8, 8, 20001)
        pdf = laplace_pdf(x, 1.3)
        approx = np.trapezoid(pdf, x)
        assert approx == pytest.approx(laplace_cdf(8, 1.3) - laplace_cdf(-8, 1.3), abs=1e-6)

    def test_bad_scale(self):
        with pytest.raises(ParameterError):
            laplace_cdf(0.0, 0.0)


def two_exp_laplace_cdf(x, scale):
    """laplace_cdf as it was written before it became ``laplace_sf(-x)``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(
        x <= 0,
        0.5 * np.exp(np.minimum(x, 0.0) / scale),
        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / scale),
    )
    return float(out) if out.ndim == 0 else out


def two_exp_laplace_sf(x, scale):
    """laplace_sf as it was written before it shared one exp per point."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(
        x >= 0,
        0.5 * np.exp(-np.maximum(x, 0.0) / scale),
        1.0 - 0.5 * np.exp(np.minimum(x, 0.0) / scale),
    )
    return float(out) if out.ndim == 0 else out


TAIL_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308]
TAIL_SCALES = [1e-3, 0.7, 2.0, 1e3]


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLaplaceTailBits:
    """One shared exp per point keeps every bit of the two-exp formulas."""

    @given(
        xs=st.lists(
            st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(TAIL_EDGES)),
            max_size=20,
        ),
        scale=st.one_of(
            st.sampled_from(TAIL_SCALES),
            st.floats(min_value=5e-324, max_value=1e308, allow_infinity=False),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_and_scalars_match_the_two_exp_formulas(self, xs, scale):
        with np.errstate(over="ignore"):
            for x in [np.array(xs), *xs]:
                assert_same_bits(laplace_sf(x, scale), two_exp_laplace_sf(x, scale))
                assert_same_bits(laplace_cdf(x, scale), two_exp_laplace_cdf(x, scale))

    @pytest.mark.parametrize("scale", TAIL_SCALES)
    def test_normals_and_edges_match_the_two_exp_formulas(self, scale):
        x = np.concatenate([np.random.default_rng(17).normal(size=10**5) * 3.0, TAIL_EDGES])
        with np.errstate(over="ignore"):
            assert_same_bits(laplace_sf(x, scale), two_exp_laplace_sf(x, scale))
            assert_same_bits(laplace_cdf(x, scale), two_exp_laplace_cdf(x, scale))
            assert_same_bits(laplace_cdf(x, scale), laplace_sf(-x, scale))


class TestRho:
    def test_flat_region_value(self):
        # both tails exponential: ratio is exactly exp(1/lam)
        assert rho(-5.0, 0.0, 2.0) == 0.5
        assert rho(17.0 - 5.0, 17.0, 2.0) == 0.5

    def test_boundary_value(self):
        # at x = theta + 1: ln(2 - exp(-1/lam))
        expected = math.log(2.0 - math.exp(-0.5))
        assert rho(1.0, 0.0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3318, abs=1e-4)

    def test_vanishes_in_far_tail(self):
        assert 0.0 <= rho(0.0 + 40 * 2.0, 0.0, 2.0) < 1e-8

    def test_exactly_one_over_lam_at_or_below_theta(self):
        lam = 3.7
        xs = np.linspace(-40, 5.0, 1000)
        vals = rho(xs, 5.0, lam)
        assert np.all(vals == 1.0 / lam)

    def test_nonincreasing_above_theta_plus_one(self):
        xs = np.linspace(2.0, 60.0, 5000)  # theta 1, so x >= theta + 1
        vals = rho(xs, 1.0, 2.0)
        assert np.all(np.diff(vals) <= 0)


class TestRhoUpper:
    def test_below_boundary(self):
        assert rho_upper(0.0, 0.0, 2.0) == 0.5

    def test_at_boundary(self):
        assert rho_upper(1.0, 0.0, 2.0) == 0.5

    def test_decay(self):
        assert rho_upper(3.0, 0.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)


GRID_PAIRS = [(0.0, 1.0), (0.0, 2.0), (0.0, 7.0 / 3.0), (1.0, 0.5), (-3.0, 4.0), (10.0, 3.0)]


class TestRhoBound:
    @pytest.mark.parametrize("theta,lam", GRID_PAIRS)
    def test_rho_never_exceeds_upper_bound(self, theta, lam):
        xs = np.linspace(theta - 10 * lam, theta + 20 * lam, 1000)
        assert np.all(rho(xs, theta, lam) <= rho_upper(xs, theta, lam))

    @given(
        x=st.floats(-1e6, 1e6),
        theta=st.floats(-100, 100),
        lam=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_rho_in_range_and_bounded(self, x, theta, lam):
        r = rho(x, theta, lam)
        assert 0.0 <= r <= 1.0 / lam
        assert r <= rho_upper(x, theta, lam)

    def test_subnormal_tail_stays_under_underflowed_bound(self):
        # Both tails are subnormal here and rho_upper underflows to 0.0.
        x, theta, lam = 587787.0, 0.0, 795.5
        assert rho_upper(x, theta, lam) == 0.0
        assert rho(x, theta, lam) == 0.0


class TestGeometricTailSum:
    """Summing the bound over scores theta+1, theta+1+delta, ... is geometric."""

    @pytest.mark.parametrize("lam,gamma", [(2.0, math.log(4)), (3.0, math.log(2)), (1.5, 0.7)])
    def test_partial_sums_match_closed_form(self, lam, gamma):
        theta = 0.0
        delta = gamma * lam
        r = math.exp(-delta / lam)
        for n in (1, 5, 20, 50):
            s = sum(rho_upper(theta + 1 + i * delta, theta, lam) for i in range(n))
            closed = (1.0 / lam) * (1.0 - r**n) / (1.0 - r)
            assert s == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("lam,gamma", [(2.0, math.log(4)), (3.0, math.log(2))])
    def test_head_plus_limit_matches_total_cost_coefficient(self, lam, gamma):
        # 1/lam head term plus the geometric limit equals
        # (2 e^gamma - 1) / (e^gamma - 1) / lam
        limit = (1.0 / lam) / (1.0 - math.exp(-gamma))
        total = 1.0 / lam + limit
        coeff = (2.0 * math.exp(gamma) - 1.0) / (math.exp(gamma) - 1.0) / lam
        assert total == pytest.approx(coeff, abs=1e-10)


class TestPrivacyParams:
    def test_minimum_scale_beta4(self):
        p = privtree_params(1.0, 4, 0.0)
        assert p.lam == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert p.delta == pytest.approx((7.0 / 3.0) * math.log(4.0), rel=1e-14)
        assert p.gamma == math.log(4.0)
        assert p.beta == 4

    def test_scale_inverse_in_epsilon(self):
        assert privtree_params(2.0, 4, 0.0).lam == pytest.approx(7.0 / 6.0, rel=1e-14)

    def test_beta2(self):
        p = privtree_params(1.0, 2, 0.0)
        assert p.lam == pytest.approx(3.0, rel=1e-14)
        assert p.delta == pytest.approx(3.0 * math.log(2.0), rel=1e-14)

    def test_sensitivity_scales_lambda(self):
        p = privtree_params(1.0 / 3.0, 3, 0.0, sensitivity=10.0)
        assert p.lam == pytest.approx(75.0, rel=1e-13)

    def test_scale_bound_holds(self):
        for eps, beta in [(0.1, 2), (1.0, 4), (3.0, 16)]:
            p = privtree_params(eps, beta, 0.0)
            required = (2 * math.exp(p.gamma) - 1) / (math.exp(p.gamma) - 1) / eps
            assert p.lam >= required * (1 - 1e-12)

    @pytest.mark.parametrize("sensitivity", [1.0, 7.5])
    @pytest.mark.parametrize("beta", [2, 3, 4, 16])
    def test_delta_is_gamma_times_lambda(self, beta, sensitivity):
        p = privtree_params(0.7, beta, 0.0, sensitivity=sensitivity)
        assert p.delta == math.log(beta) * p.lam

    def test_delta_is_derived_not_stored(self):
        p = PrivacyParams(epsilon=1.0, lam=2.0, theta=0.0, gamma=1.5, beta=4)
        assert p.delta == 3.0
        with pytest.raises(TypeError):
            PrivacyParams(epsilon=1.0, lam=2.0, theta=0.0, delta=3.0, gamma=1.5, beta=4)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_theta_rejected(self, theta):
        with pytest.raises(ParameterError, match="theta"):
            privtree_params(1.0, 4, theta)

    @pytest.mark.parametrize("beta", [1, 0, -3])
    def test_beta_below_two_rejected(self, beta):
        with pytest.raises(ParameterError):
            privtree_params(1.0, beta, 0.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            privtree_params(0.0, 4, 0.0)


class TestComposeBudgets:
    def test_halves(self):
        assert compose_budgets([0.5, 0.5]) == 1.0

    def test_singleton(self):
        assert compose_budgets([1.0]) == 1.0

    def test_thirds(self):
        assert compose_budgets([1.0 / 3.0, 2.0 / 3.0]) == pytest.approx(1.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            compose_budgets([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            compose_budgets([0.5, 0.0])


class TestBiasedCount:
    def test_array_matches_scalar(self):
        counts = np.array([0, 1, 5, 20, 300])
        depths = np.array([0, 5, 2, 3, 9])
        out = biased_count(counts, depths, 0.0, 3.23557)
        assert isinstance(out, np.ndarray)
        scalars = [biased_count(int(c), int(d), 0.0, 3.23557) for c, d in zip(counts, depths)]
        assert all(isinstance(v, float) for v in scalars)
        assert out.tolist() == scalars


class TestBiasedSplit:
    def test_one_scalar_draw_per_eligible_node_in_order(self):
        params = privtree_params(1.0, 4, 0.0)
        score = np.array([3.0, 50.0, 0.0, 7.0, 12.0])
        eligible = np.array([True, False, True, True, False])
        split = biased_split(score, 1, params, np.random.default_rng(4), eligible)
        rng = np.random.default_rng(4)
        expected = []
        for c, ok in zip(score, eligible):
            b = max(params.theta - params.delta, c - params.delta)
            expected.append(bool(ok) and b + sample_laplace(params.lam, rng) > params.theta)
        assert split.tolist() == expected

    def test_ineligible_level_draws_nothing(self):
        params = privtree_params(1.0, 4, 0.0)
        rng = np.random.default_rng(4)
        split = biased_split(np.full(3, 1e6), 0, params, rng, np.zeros(3, dtype=bool))
        assert not split.any()
        assert rng.random() == np.random.default_rng(4).random()


class TestGrowLevels:
    def record(self, n_items, fanout, decide_fn, code_fn):
        calls = []

        def decide(depth, sizes, items):
            calls.append(("decide", depth, sizes.tolist(), items.tolist()))
            return decide_fn(depth, sizes)

        def child_codes(depth, items, parent):
            calls.append(("codes", depth, items.tolist(), parent.tolist()))
            return code_fn(depth, items)

        grow_levels(n_items, fanout, decide, child_codes)
        return calls

    def test_items_regroup_by_parent_rank_then_code(self):
        # level 0 splits items by parity; at level 1 only the odd node splits,
        # by whether the item is below 5
        splits = {0: [True], 1: [False, True], 2: [False, False]}
        calls = self.record(
            8,
            2,
            lambda depth, sizes: splits[depth],
            lambda depth, items: items % 2 if depth == 0 else (items >= 5).astype(int),
        )
        assert calls == [
            ("decide", 0, [8], [0, 1, 2, 3, 4, 5, 6, 7]),
            ("codes", 0, [0, 1, 2, 3, 4, 5, 6, 7], [0] * 8),
            ("decide", 1, [4, 4], [0, 2, 4, 6, 1, 3, 5, 7]),
            ("codes", 1, [1, 3, 5, 7], [0, 0, 0, 0]),
            ("decide", 2, [2, 2], [1, 3, 5, 7]),
        ]

    def test_empty_dataset(self):
        calls = self.record(
            0, 4, lambda depth, sizes: np.full(sizes.size, depth < 2), lambda d, items: items
        )
        assert [c[:3] for c in calls if c[0] == "decide"] == [
            ("decide", 0, [0]),
            ("decide", 1, [0] * 4),
            ("decide", 2, [0] * 16),
        ]
        assert all(c[2] == [] for c in calls if c[0] == "codes")

    def test_level_where_no_node_splits_ends_the_walk(self):
        calls = self.record(5, 2, lambda depth, sizes: [False], lambda d, items: items)
        assert calls == [("decide", 0, [5], [0, 1, 2, 3, 4])]

    @pytest.mark.parametrize("fanout, n_levels", [(1 << 17, 1), (300, 2)])
    def test_regroup_above_two_to_the_sixteen_keys_is_the_stable_int32_sort(
        self, fanout, n_levels
    ):
        # keys 1 and 65537 share their low 16 bits, so the high pass decides
        # their order; ties test stability
        rng = np.random.default_rng(6)
        n_items = 100_000
        codes = rng.choice([0, 1, 2, 65_536 % fanout, 65_537 % fanout, fanout - 1], n_items)
        seen = []

        def decide(depth, sizes, items):
            seen.append(items.copy())
            return np.full(sizes.size, depth < n_levels)

        def child_codes(depth, items, parent):
            key = codes[items] + parent.astype(np.int64) * fanout
            seen.append(items[np.argsort(key.astype(np.int32), kind="stable")])
            return codes[items]

        grow_levels(n_items, fanout, decide, child_codes)
        n_split = 1 if n_levels == 1 else fanout
        assert n_split * fanout > 1 << 16
        assert len(seen) == 2 * n_levels + 1
        for want, got in zip(seen[1::2], seen[2::2]):
            assert np.array_equal(got, want)
