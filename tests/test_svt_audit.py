import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphier import dp_core
from dphier import svt_audit as sa
from dphier.dp_core import laplace_cdf, laplace_pdf, laplace_sf
from dphier.errors import ParameterError, QuadratureError
from dphier.svt_audit import (
    AuditScenario,
    binary_svt,
    binary_svt_log_ratio,
    improved_audit_battery,
    improved_svt,
    improved_svt_log_ratio_bound,
    reduced_svt,
    run_default_audit,
    token_count_query,
    vanilla_svt,
    vanilla_svt_log_ratio,
    vanilla_svt_log_ratio_quad,
)

D1 = ("a", "b")
D2 = ("a", "b", "b")
D3 = ("b", "b")
QA = token_count_query("a")
QB = token_count_query("b")


def reference_integrand(values, bits, theta, theta_scale, query_scale):
    """The threshold-event integrand with one tail call per query."""
    vals = [float(v) for v in values]

    def integrand(x):
        p = laplace_pdf(x - theta, theta_scale)
        for v, bit in zip(vals, bits):
            p *= laplace_sf(x - v, query_scale) if bit else laplace_cdf(x - v, query_scale)
        return p

    return integrand


def reference_event_log_prob(
    values, bits, theta, lam, *, theta_scale=None, query_scale=None, upper=math.inf
):
    """threshold_event_log_prob integrating :func:`reference_integrand`."""
    if len(values) != len(bits):
        raise ParameterError("values and bits must align")
    theta_scale = lam if theta_scale is None else theta_scale
    query_scale = lam if query_scale is None else query_scale
    f = reference_integrand(values, bits, theta, theta_scale, query_scale)
    prob = sa._integrate(f, -math.inf, upper, [theta, *[float(v) for v in values]])
    if prob <= 0.0:
        raise QuadratureError(f"event probability underflowed to {prob!r}")
    return math.log(prob)


def outcome(fn, *args, **kwargs):
    """The float ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (ParameterError, QuadratureError) as exc:
        return type(exc).__name__, str(exc)


def _reference_noise(scale, rng, noiseless):
    return 0.0 if noiseless else dp_core.sample_laplace(scale, rng)


def reference_binary_svt(dataset, queries, theta, lam, rng=None, *, noiseless=False):
    """binary_svt as one loop of its own, the reference for the shared loop."""
    theta_hat = theta + _reference_noise(lam, rng, noiseless)
    out = []
    for q in queries:
        q_hat = q(dataset) + _reference_noise(lam, rng, noiseless)
        out.append(1 if q_hat > theta_hat else 0)
    return out


def reference_vanilla_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    theta_hat = theta + _reference_noise(lam, rng, noiseless)
    out = []
    released = 0
    for q in queries:
        q_hat = q(dataset) + _reference_noise(t * lam, rng, noiseless)
        if q_hat > theta_hat:
            out.append(float(q_hat))
            released += 1
            if released >= t:
                break
        else:
            out.append(None)
    return out


def reference_reduced_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    theta_hat = theta + _reference_noise(t * lam, rng, noiseless)
    out = []
    ones = 0
    for q in queries:
        q_hat = q(dataset) + _reference_noise(t * lam, rng, noiseless)
        if q_hat > theta_hat:
            out.append(1)
            theta_hat = theta + _reference_noise(t * lam, rng, noiseless)
            ones += 1
            if ones >= t:
                break
        else:
            out.append(0)
    return out


def reference_improved_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    theta_hat = theta + _reference_noise(lam, rng, noiseless)
    out = []
    ones = 0
    for q in queries:
        q_hat = q(dataset) + _reference_noise(t * lam, rng, noiseless)
        if q_hat > theta_hat:
            out.append(1)
            ones += 1
            if ones >= t:
                break
        else:
            out.append(0)
    return out


class CountingRng:
    """Duck-typed uniform source that counts draws, for draw-accounting tests."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


class TestTraces:
    def test_binary_noiseless_threshold_rule(self):
        # counts on D1 are all 1, never strictly above theta = 1
        out = binary_svt(D1, [QA, QA, QB, QB], 1.0, 2.0, noiseless=True)
        assert out == [0, 0, 0, 0]

    def test_binary_seeded_reproducibility(self):
        a = binary_svt(D1, [QA, QB] * 6, 1.0, 2.0, np.random.default_rng(5))
        b = binary_svt(D1, [QA, QB] * 6, 1.0, 2.0, np.random.default_rng(5))
        assert a == b and set(a) <= {0, 1}

    def test_vanilla_noiseless_trace(self):
        data = ("x", "x", "y", "y", "y")
        queries = [token_count_query(t) for t in ("x", "z", "y")]
        out = vanilla_svt(data, queries, 0.0, 2.0, 2, noiseless=True)
        assert out == [2.0, None, 3.0]

    def test_vanilla_halts_after_budget(self):
        data = ("x",) * 5
        queries = [token_count_query("x")] * 10
        out = vanilla_svt(data, queries, 0.0, 1.0, 1, noiseless=True)
        assert out == [5.0]  # halts immediately after the first release

    def test_vanilla_noise_scale_is_t_lambda(self):
        # replicate the stream: one threshold draw at lam, then a query draw
        # at t * lam
        rng = np.random.default_rng(31)
        out = vanilla_svt(D1, [QA], -100.0, 2.0, 3, rng)
        rng2 = np.random.default_rng(31)
        sa.sample_laplace(2.0, rng2)  # threshold draw
        expected = 1 + sa.sample_laplace(6.0, rng2)
        assert out[0] == expected

    def test_reduced_noiseless_trace(self):
        data = ("x", "y")
        queries = [token_count_query(t) for t in ("x", "z", "y")]
        out = reduced_svt(data, queries, 0.0, 2.0, 2, noiseless=True)
        assert out == [1, 0, 1]

    def test_reduced_redraws_match_ones(self):
        rng = CountingRng(7)
        queries = [QA, QB] * 8
        out = reduced_svt(D2, queries, 1.0, 0.5, 4, rng)
        ones = sum(out)
        answered = len(out)
        # draws: initial threshold + one per answered query + one per redraw
        assert rng.draws == 1 + answered + ones

    def test_improved_single_threshold_draw(self):
        rng = CountingRng(8)
        queries = [QA, QB] * 8
        out = improved_svt(D2, queries, 1.0, 0.5, 4, rng)
        assert rng.draws == 1 + len(out)

    def test_improved_noiseless_equals_reduced_noiseless(self):
        queries = [QA, QB, QA, QB]
        a = improved_svt(D2, queries, 0.5, 2.0, 2, noiseless=True)
        b = reduced_svt(D2, queries, 0.5, 2.0, 2, noiseless=True)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            binary_svt(D1, [QA], 0.0, -1.0, noiseless=True)
        with pytest.raises(ParameterError):
            vanilla_svt(D1, [QA], 0.0, 1.0, 0, noiseless=True)
        with pytest.raises(ParameterError):
            improved_svt(D1, [QA], 0.0, 1.0, 1)  # rng required


TOKENS = ("a", "b", "c")


@st.composite
def trace_streams(draw):
    """A token dataset, a count-query stream and the trace parameters."""
    dataset = tuple(draw(st.lists(st.sampled_from(TOKENS), max_size=6)))
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=12))
    queries = [token_count_query(tok) for tok in tokens]
    theta = draw(st.floats(-2.0, 4.0))
    lam = draw(st.one_of(st.sampled_from([0.25, 1.0, 2.0]), st.floats(0.05, 5.0)))
    return dataset, queries, theta, lam, draw(st.integers(1, 4))


class TestSharedTraceLoop:
    """Every variant returns what its own loop returned and moves the
    generator by exactly the same draws."""

    @given(
        stream=trace_streams(),
        seed=st.integers(0, 2**32 - 1),
        noiseless=st.booleans(),
        variant=st.sampled_from(["binary", "vanilla", "reduced", "improved"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_trace(self, stream, seed, noiseless, variant):
        dataset, queries, theta, lam, t = stream
        fn, ref = {
            "binary": (binary_svt, reference_binary_svt),
            "vanilla": (vanilla_svt, reference_vanilla_svt),
            "reduced": (reduced_svt, reference_reduced_svt),
            "improved": (improved_svt, reference_improved_svt),
        }[variant]
        args = (dataset, queries, theta, lam) if variant == "binary" else (
            dataset, queries, theta, lam, t
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = fn(*args, rng, noiseless=noiseless)
        want = ref(*args, ref_rng, noiseless=noiseless)
        assert repr(got) == repr(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCountQueries:
    def test_counts(self):
        assert QA(D1) == 1 and QA(D3) == 0 and QB(D3) == 2

    def test_sensitivity_one_on_neighbors(self):
        pairs = [(D1, D2), (D2, D3), (D1, ("a", "b", "a"))]
        for a, b in pairs:
            for q in (QA, QB):
                assert abs(q(a) - q(b)) <= 1


# ---------------------------------------------------------------------------
# exact ratios
# ---------------------------------------------------------------------------


class TestBinaryRatio:
    def test_exceeds_half_k_over_lambda_grid(self):
        for k, lam in itertools.product((4, 8, 16, 32), (1.0, 2.0, 4.0)):
            assert binary_svt_log_ratio(k, 1.0, lam) > k / (2 * lam)

    def test_k16_lambda2_exceeds_four(self):
        assert binary_svt_log_ratio(16, 1.0, 2.0) > 4.0

    def test_violation_at_claimed_scale(self):
        # at lam = k / (4 eps) the two-hop ratio exceeds 2 eps
        k, eps = 8, 1.0
        lam = k / (4 * eps)
        assert binary_svt_log_ratio(k, 1.0, lam) > 2 * eps

    def test_strictly_increasing_in_k(self):
        vals = [binary_svt_log_ratio(k, 1.0, 2.0) for k in (4, 8, 16)]
        assert vals[0] < vals[1] < vals[2]

    def test_large_lambda_and_small_k(self):
        assert binary_svt_log_ratio(2, 1.0, 50.0) > 2 / (2 * 50.0)

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            binary_svt_log_ratio(5, 1.0, 2.0)


class TestVanillaRatio:
    def test_closed_form(self):
        assert vanilla_svt_log_ratio(4, 2.0) == 2.0

    def test_quadrature_cross_check(self):
        assert vanilla_svt_log_ratio_quad(8, 3.0) == pytest.approx(8 / 3.0, abs=1e-8)
        assert vanilla_svt_log_ratio_quad(4, 2.0) == pytest.approx(2.0, abs=1e-8)

    def test_zero_k_rejected(self):
        with pytest.raises(ParameterError):
            vanilla_svt_log_ratio(0, 2.0)


class TestImprovedRatio:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_battery_within_advertised_bound(self, lam):
        for scen in improved_audit_battery():
            ratio = improved_svt_log_ratio_bound(scen, lam)
            assert abs(ratio) <= scen.hops * 2.0 / lam + 1e-8

    def test_identical_datasets_ratio_zero(self):
        scen = next(
            s for s in improved_audit_battery() if s.name == "identical-datasets"
        )
        assert improved_svt_log_ratio_bound(scen, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_removal_direction_within_bound(self):
        scen = next(
            s for s in improved_audit_battery() if s.name == "remove-one-late-hit"
        )
        ratio = improved_svt_log_ratio_bound(scen, 2.0)
        assert abs(ratio) <= 1.0 + 1e-8

    def test_adapted_counterexample_at_stated_parameters(self):
        # t=1, theta=1, lam=2, 16 queries: single-hop ratios stay below 2/lam
        lam = 2.0
        for scen in improved_audit_battery(theta=1.0, k=16):
            if scen.hops == 1:
                assert improved_svt_log_ratio_bound(scen, lam) <= 2.0 / lam + 1e-8

    def test_halting_validation(self):
        with pytest.raises(ParameterError):
            sa.improved_svt_event_log_prob(D1, (QA, QA), (1, 1), 1.0, 2.0, 1)
        with pytest.raises(ParameterError):
            sa.improved_svt_event_log_prob(D1, (QA, QA), (0,), 1.0, 2.0, 1)

    def test_scenario_neighbor_validation(self):
        with pytest.raises(ParameterError):
            AuditScenario(
                name="bad",
                datasets=(D1, ("c", "c", "c")),
                queries=(QA,),
                pattern=(0,),
                theta=0.0,
            )


class TestQuadratureEngine:
    def test_empty_pattern_integrates_to_one(self):
        assert sa.threshold_event_log_prob((), (), 3.0, 2.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_upper_limit_matches_cdf(self):
        # integrating just the threshold density up to u equals its CDF
        for u in (-1.0, 0.5, 4.0):
            got = sa.threshold_event_log_prob((), (), 1.0, 2.0, upper=u)
            from dphier.dp_core import laplace_cdf

            assert got == pytest.approx(math.log(laplace_cdf(u - 1.0, 2.0)), abs=1e-9)

    def test_monte_carlo_cross_check_binary(self):
        # high-probability configuration: quadrature vs mechanism frequency
        queries = (QA, QB)
        pattern = (1, 0)
        theta, lam = 1.0, 2.0
        log_p = sa.binary_svt_event_log_prob(D1, queries, pattern, theta, lam)
        p = math.exp(log_p)
        runs = 60_000
        rng = np.random.default_rng(99)
        hits = sum(
            1
            for _ in range(runs)
            if binary_svt(D1, queries, theta, lam, rng) == list(pattern)
        )
        se = math.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) <= 3 * se


class TestDefaultAudit:
    def test_report_rows_and_verdicts(self):
        rows = run_default_audit(lam=2.0, theta=1.0, k=16, t=1)
        by_variant = {}
        for row in rows:
            by_variant.setdefault(row["variant"], []).append(row)
            assert set(row) == {
                "variant",
                "scenario",
                "k",
                "lambda",
                "theta",
                "t",
                "log_ratio",
                "claimed_bound",
                "verdict",
            }
        assert all(r["verdict"] == "VIOLATES" for r in by_variant["binary"])
        assert all(r["verdict"] == "VIOLATES" for r in by_variant["vanilla"])
        assert all(r["verdict"] == "SATISFIES" for r in by_variant["improved"])

    def test_bad_lambda(self):
        with pytest.raises(ParameterError):
            run_default_audit(lam=0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"theta": math.nan}, "theta"), ({"theta": math.inf}, "theta"), ({"lam": math.inf}, "lam")],
    )
    def test_nonfinite_parameter_named(self, kwargs, name):
        with pytest.raises(ParameterError, match=f"{name} must be (positive and )?finite"):
            run_default_audit(**kwargs)


class InlinePool:
    """A stand-in for the audit's process pool that maps in this process."""

    def __init__(self, jobs, mp_context=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


class TestDistinctEventsOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("lam,k", [(1.0, 16), (2.0, 16), (4.0, 32)])
    def test_ten_events_and_rows_as_computed_scenario_by_scenario(
        self, monkeypatch, jobs, lam, k
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return threshold_event_log_prob(*args, **kwargs)

        threshold_event_log_prob = sa.threshold_event_log_prob
        monkeypatch.setattr(sa, "threshold_event_log_prob", counted)
        monkeypatch.setattr(sa, "ProcessPoolExecutor", InlinePool)
        rows = run_default_audit(lam=lam, theta=1.0, k=k, jobs=jobs)
        # 2 binary events and 8 distinct improved ones out of 14
        assert len(calls) == 10
        improved = [r for r in rows if r["variant"] == "improved"]
        scens = improved_audit_battery(theta=1.0, k=k)
        assert [r["scenario"] for r in improved] == [scen.name for scen in scens]
        for row, scen in zip(improved, scens):
            ratio = improved_svt_log_ratio_bound(scen, lam)
            bound = scen.hops * (2.0 / lam)
            want = {
                "variant": "improved", "scenario": scen.name, "k": len(scen.queries),
                "lambda": lam, "theta": scen.theta, "t": scen.t, "log_ratio": ratio,
                "claimed_bound": bound,
                "verdict": "VIOLATES" if ratio > bound + 1e-9 else "SATISFIES",
            }
            assert repr(row) == repr(want)
        binary = [r for r in rows if r["variant"] == "binary"]
        assert [repr(r["log_ratio"]) for r in binary] == [repr(binary_svt_log_ratio(k, 1.0, lam))]


# ---------------------------------------------------------------------------
# the once-per-distinct-pair integrand against the per-query reference
# ---------------------------------------------------------------------------


@st.composite
def threshold_events(draw):
    """Query streams over at most three distinct values (so values repeat),
    with all-0, all-1 or mixed bits, unequal scales and finite upper limits."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(-3.0, 5.0)),
            min_size=1,
            max_size=3,
        )
    )
    n = draw(st.integers(0, 20))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["zeros", "ones", "mixed"]))
    if mode == "mixed":
        bits = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    else:
        bits = [int(mode == "ones")] * n
    kwargs = {
        "theta_scale": draw(st.sampled_from([None, 0.7, 3.0])),
        "query_scale": draw(st.sampled_from([None, 1.5, 8.0])),
        "upper": draw(st.one_of(st.just(math.inf), st.floats(-2.0, 6.0))),
    }
    theta = draw(st.floats(-2.0, 3.0))
    lam = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    return values, bits, theta, lam, kwargs


class TestDistinctTailIntegrand:
    @given(event=threshold_events())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_query_reference(self, event):
        values, bits, theta, lam, kwargs = event
        got = outcome(sa.threshold_event_log_prob, values, bits, theta, lam, **kwargs)
        want = outcome(reference_event_log_prob, values, bits, theta, lam, **kwargs)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("lam,k", list(itertools.product((1.0, 2.0, 4.0), (16, 32))))
    def test_default_audit_matches_reference_path(self, lam, k, monkeypatch):
        got = run_default_audit(lam=lam, theta=1.0, k=k)
        monkeypatch.setattr(sa, "threshold_event_log_prob", reference_event_log_prob)
        assert repr(got) == repr(run_default_audit(lam=lam, theta=1.0, k=k))

    def test_vanilla_quadrature_matches_reference_path(self, monkeypatch):
        got = vanilla_svt_log_ratio_quad(4, 2.0)
        monkeypatch.setattr(sa, "threshold_event_log_prob", reference_event_log_prob)
        assert repr(got) == repr(vanilla_svt_log_ratio_quad(4, 2.0))

    def test_one_tail_call_per_distinct_pair(self, monkeypatch):
        calls = []

        def counted(tail):
            def wrapped(x, scale):
                calls.append(tail.__name__)
                return tail(x, scale)

            return wrapped

        monkeypatch.setattr(sa, "laplace_sf", counted(dp_core.laplace_sf))
        monkeypatch.setattr(sa, "laplace_cdf", counted(dp_core.laplace_cdf))
        captured = []
        monkeypatch.setattr(
            sa, "_integrate", lambda f, lower, upper, breakpoints: captured.append(f) or 0.5
        )
        values = [1, 1, 2, 0, 1, 2, 2, 0] * 4
        bits = [1, 0, 0, 1, 1, 0, 0, 1] * 4
        distinct = len(set(zip(values, bits)))
        sa.threshold_event_log_prob(values, bits, 1.0, 2.0, query_scale=3.0)
        (f,) = captured
        ref = reference_integrand(values, bits, 1.0, 2.0, 3.0)
        for x in (-40.0, -2.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.25, 60.0):
            calls.clear()
            y = f(x)
            assert len(calls) <= distinct
            assert repr(y) == repr(ref(x))


class TestDefaultAuditVariants:
    def test_single_variant_rows_match_full_battery(self):
        rows = run_default_audit(lam=2.0, theta=1.0, k=16)
        for variant in ("binary", "vanilla", "improved"):
            want = [r for r in rows if r["variant"] == variant]
            assert repr(run_default_audit(lam=2.0, theta=1.0, k=16, variant=variant)) == repr(want)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError, match="unknown variant"):
            run_default_audit(variant="reduced")

    @pytest.mark.parametrize("t", [0, 2, 3])
    def test_t_other_than_one_rejected(self, t):
        with pytest.raises(ParameterError, match="t must be 1"):
            run_default_audit(t=t)

    @pytest.mark.parametrize("k", [7, 0, 1.5])
    def test_improved_battery_names_k(self, k):
        with pytest.raises(ParameterError, match=r"k must be an even integer >= 2"):
            improved_audit_battery(k=k)
        with pytest.raises(ParameterError, match=r"k must be an even integer >= 2"):
            run_default_audit(variant="improved", k=k)

    def test_smallest_even_k_builds(self):
        assert all(len(scen.queries) == 2 for scen in improved_audit_battery(k=2))


def captured_integrand(monkeypatch, values, bits, theta, lam, **kwargs):
    """The integrand threshold_event_log_prob hands to the quadrature."""
    captured = []
    monkeypatch.setattr(
        sa, "_integrate", lambda f, lower, upper, breakpoints: captured.append(f) or 0.5
    )
    sa.threshold_event_log_prob(values, bits, theta, lam, **kwargs)
    (f,) = captured
    return f


class TestScalarIntegrand:
    # (x - v) / s at the kink (both zeros), one subnormal off it, where exp
    # leaves the normals (about -708) and underflows to zero (-745), and at
    # spread-out points, where libm's exp would round differently now and then
    OFFSETS = (
        *(0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 708.5, -708.5, 744.9, -744.9, 1e5, -1e5),
        *(np.random.default_rng(0).normal(size=100) * 20.0).tolist(),
    )

    @pytest.mark.parametrize("v", [0.0, -0.0, 1.0, 3.0])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_each_factor_has_the_bits_of_the_array_tail(self, monkeypatch, v, bit, scale):
        tail = laplace_sf if bit else laplace_cdf
        for off in self.OFFSETS:
            x = v + off * scale
            # at x == theta with theta_scale 0.5 the density is exactly 1.0,
            # so the integrand returns the one factor itself
            f = captured_integrand(
                monkeypatch, [v], [bit], x, 1.0, theta_scale=0.5, query_scale=scale
            )
            got, want = f(x), tail(x - v, scale)
            assert type(got) is float
            assert got.hex() == want.hex(), (x, v, bit, scale)

    def test_hot_path_makes_no_array_tail_calls(self, monkeypatch):
        want = repr(run_default_audit(lam=2.0, theta=1.0, k=16))
        event = ([1, 1, 2, 0, 1, 2] * 3, [1, 0, 0, 1, 1, 0] * 3, 1.0, 2.0)
        want_event = sa.threshold_event_log_prob(*event, query_scale=3.0)

        def refuse(x, scale):
            raise AssertionError("the audit integrand called a dp_core tail")

        for name in ("laplace_pdf", "laplace_sf", "laplace_cdf"):
            monkeypatch.setattr(sa, name, refuse)
        assert repr(run_default_audit(lam=2.0, theta=1.0, k=16)) == want
        assert sa.threshold_event_log_prob(*event, query_scale=3.0) == want_event

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("which", ["theta_scale", "query_scale"])
    def test_bad_scale_raises_as_before(self, bad, which):
        event = ([1, 2, 2], [1, 0, 0], 1.0, 2.0)
        got = outcome(sa.threshold_event_log_prob, *event, **{which: bad})
        assert got == outcome(reference_event_log_prob, *event, **{which: bad})
        assert got[0] == "ParameterError" and "scale must be positive" in got[1]
        with pytest.raises(ParameterError, match="scale must be positive"):
            sa.threshold_event_log_prob([], [], 1.0, 2.0, theta_scale=bad)

    def test_empty_stream_ignores_the_query_scale(self):
        got = sa.threshold_event_log_prob([], [], 1.0, 2.0, query_scale=0.0)
        assert repr(got) == repr(reference_event_log_prob([], [], 1.0, 2.0, query_scale=0.0))
        assert got == 0.0
