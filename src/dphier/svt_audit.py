"""Sparse-vector-technique variants and exact output-probability audits.

Four threshold mechanisms are implemented as runnable traces (binary, vanilla,
reduced, improved).  The audit side computes exact probabilities of concrete
output patterns by adaptive quadrature over the noisy threshold, using the
closed-form Laplace tails.  Quadrature rather than Monte Carlo is essential:
the adversarial events here have exponentially small probability, far below
anything simulation could certify; simulation is kept only as a sanity
cross-check on high-probability configurations.

The built-in adversarial construction uses token-count queries over tiny
multiset datasets, a stream of repeated queries, and a fixed output pattern;
probability ratios across neighboring datasets then either exceed or respect
the advertised privacy bounds, which is the audit verdict.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
from scipy import integrate

# the audit integrand reproduces laplace_sf and laplace_cdf bit for bit
from .dp_core import _check_scale, laplace_cdf, laplace_pdf, laplace_sf, sample_laplace
from .errors import ParameterError, QuadratureError

__all__ = [
    "AuditScenario",
    "CountQuery",
    "binary_svt",
    "binary_svt_event_log_prob",
    "binary_svt_log_ratio",
    "improved_audit_battery",
    "improved_svt",
    "improved_svt_event_log_prob",
    "improved_svt_log_ratio_bound",
    "reduced_svt",
    "run_default_audit",
    "threshold_event_log_prob",
    "token_count_query",
    "vanilla_event_log_prob",
    "vanilla_svt",
    "vanilla_svt_log_ratio",
    "vanilla_svt_log_ratio_quad",
]

_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class CountQuery:
    """A counting query of declared sensitivity 1."""

    name: str
    evaluator: object

    def __call__(self, dataset) -> int:
        val = self.evaluator(dataset)
        if val < 0:
            raise ParameterError(f"query {self.name} returned a negative count")
        return int(val)


@dataclass(frozen=True)
class _TokenCounter:
    token: object

    def __call__(self, dataset) -> int:
        return sum(1 for x in dataset if x == self.token)


def token_count_query(token) -> CountQuery:
    """Query counting occurrences of one token; sensitivity 1 by construction."""
    return CountQuery(name=f"count[{token}]", evaluator=_TokenCounter(token))


def _neighbor_hops(datasets) -> int:
    """Validates that consecutive datasets differ by one inserted tuple
    (either direction); equal datasets contribute zero hops."""
    hops = 0
    for a, b in zip(datasets, datasets[1:]):
        ca, cb = Counter(a), Counter(b)
        diff = sum((ca - cb).values()) + sum((cb - ca).values())
        if diff == 0:
            continue
        if diff != 1:
            raise ParameterError(
                "consecutive audit datasets must be equal or neighbors "
                f"(differ by one tuple), got {a!r} vs {b!r}"
            )
        hops += 1
    return hops


@dataclass(frozen=True)
class AuditScenario:
    """A dataset chain, query stream, and target output pattern to audit.

    ``pattern`` is the complete output: 0/1 bits for bit-valued variants.
    The audited ratio compares the first and last datasets in the chain.
    """

    name: str
    datasets: tuple
    queries: tuple
    pattern: tuple
    theta: float
    t: int = 1

    def __post_init__(self):
        if len(self.datasets) < 2:
            raise ParameterError("an audit scenario needs at least two datasets")
        object.__setattr__(self, "hops", _neighbor_hops(self.datasets))
        if len(self.pattern) > len(self.queries):
            raise ParameterError("pattern cannot be longer than the query stream")


# ---------------------------------------------------------------------------
# mechanism traces
# ---------------------------------------------------------------------------


def _noise(scale, rng, noiseless):
    return 0.0 if noiseless else sample_laplace(scale, rng)


def _check_stream_args(lam, t=None, rng=None, noiseless=False):
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    if t is not None and not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ParameterError(f"t must be an integer >= 1, got {t!r}")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")


def _threshold_trace(
    dataset, queries, theta, rng, noiseless, theta_scale, query_scale, budget,
    *, redraw=False, release=False,
):
    """The loop of every variant: one threshold draw, then one draw per query.

    A hit yields the noisy answer if ``release``, else 1; with ``redraw`` the
    threshold is drawn again right after it.  A miss yields ``None`` if
    ``release``, else 0.  Halts after ``budget`` hits.
    """
    theta_hat = theta + _noise(theta_scale, rng, noiseless)
    out = []
    hits = 0
    for q in queries:
        q_hat = q(dataset) + _noise(query_scale, rng, noiseless)
        if q_hat > theta_hat:
            out.append(float(q_hat) if release else 1)
            if redraw:
                theta_hat = theta + _noise(theta_scale, rng, noiseless)
            hits += 1
            if hits >= budget:
                break
        else:
            out.append(None if release else 0)
    return out


def binary_svt(dataset, queries, theta, lam, rng=None, *, noiseless=False):
    """Answer above/below-threshold bits for every query in the stream.

    One noisy threshold draw at scale ``lam``; each query answer is noised at
    scale ``lam`` and compared against it.
    """
    _check_stream_args(lam, None, rng, noiseless)
    return _threshold_trace(dataset, queries, theta, rng, noiseless, lam, lam, math.inf)


def vanilla_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    """Release up to ``t`` noisy answers that clear a noisy threshold.

    Per-query noise has scale ``t * lam`` (one unit per releasable answer);
    below-threshold queries yield ``None``.  Halts once ``t`` answers are out.
    """
    _check_stream_args(lam, t, rng, noiseless)
    return _threshold_trace(
        dataset, queries, theta, rng, noiseless, lam, t * lam, t, release=True
    )


def reduced_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    """Bit outputs with a threshold redrawn (at scale ``t * lam``) after every
    1; query noise scale ``t * lam``. Halts after ``t`` ones."""
    _check_stream_args(lam, t, rng, noiseless)
    return _threshold_trace(
        dataset, queries, theta, rng, noiseless, t * lam, t * lam, t, redraw=True
    )


def improved_svt(dataset, queries, theta, lam, t, rng=None, *, noiseless=False):
    """Bit outputs against a single noisy threshold at scale ``lam`` (never
    redrawn); query noise scale ``t * lam``. Halts after ``t`` ones."""
    _check_stream_args(lam, t, rng, noiseless)
    return _threshold_trace(dataset, queries, theta, rng, noiseless, lam, t * lam, t)


# ---------------------------------------------------------------------------
# exact event probabilities by quadrature
# ---------------------------------------------------------------------------


def _integrate(f, lower, upper, breakpoints):
    """Adaptive integration with explicit interior breakpoints.

    Splits at the integrand's kink locations and integrates each piece with
    Gauss-Kronrod adaptive quadrature (semi-infinite tails handled by the
    backend's transform).  Raises QuadratureError if the accumulated error
    estimate is not small relative to the result.
    """
    pts = sorted({float(p) for p in breakpoints if lower < p < upper})
    cuts = [lower, *pts, upper]
    total = 0.0
    err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        res = integrate.quad(
            f, a, b, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT, full_output=1
        )
        if len(res) > 3:
            raise QuadratureError(
                f"quadrature failed on [{a}, {b}]: {res[3]} "
                f"(value={res[0]!r}, abserr={res[1]!r})"
            )
        total += res[0]
        err += res[1]
    if err > max(abs(total) * 1e-8, 1e-300):
        raise QuadratureError(
            f"quadrature error estimate {err!r} too large for value {total!r}"
        )
    return total


def threshold_event_log_prob(
    values, bits, theta, lam, *, theta_scale=None, query_scale=None, upper=math.inf
):
    """ln P[pattern] for a single-threshold bit mechanism.

    ``values[i]`` is the exact answer of query i on the dataset and
    ``bits[i]`` its required output.  The probability integrates over the
    noisy threshold x: density at x times, per query, the probability its
    noisy answer lands above (bit 1) or at/below (bit 0) x.  Kinks sit at
    ``theta`` and at every query value, which are passed as breakpoints.

    The integrand works on Python floats: per node, one ``np.exp`` per
    distinct ``(value, bit)`` pair gives ``h = exp(-|z|/s)/2`` and the factor
    ``h if z >= 0 else 1 - h``, with ``z = x - v`` for bit 1 and ``v - x`` for
    bit 0: the bits of ``laplace_sf``/``laplace_cdf(x - v)``.  Folded in stream
    order, the factors give the bits of one tail call per query.
    """
    if len(values) != len(bits):
        raise ParameterError("values and bits must align")
    theta_scale = lam if theta_scale is None else theta_scale
    query_scale = lam if query_scale is None else query_scale
    vals = [float(v) for v in values]
    _check_scale(theta_scale)
    if vals:
        _check_scale(query_scale)
    slot = {}
    order = [slot.setdefault((v, bool(bit)), len(slot)) for v, bit in zip(vals, bits)]
    two_scale = 2.0 * theta_scale

    def integrand(x):
        # np.exp, not math.exp: NumPy's own (SIMD) exp need not round like libm.
        p = float(np.exp(-abs(x - theta) / theta_scale)) / two_scale
        factors = []
        for v, bit in slot:
            z = x - v if bit else v - x
            h = 0.5 * float(np.exp(-abs(z) / query_scale))
            factors.append(h if z >= 0 else 1.0 - h)
        for i in order:
            p *= factors[i]
        return p

    prob = _integrate(integrand, -math.inf, upper, [theta, *vals])
    if prob <= 0.0:
        raise QuadratureError(f"event probability underflowed to {prob!r}")
    return math.log(prob)


def _pattern_values(dataset, queries, pattern):
    if len(pattern) > len(queries):
        raise ParameterError("pattern longer than the query stream")
    return [q(dataset) for q in queries[: len(pattern)]]


def _validate_halting(bits, t, n_queries):
    ones = sum(1 for b in bits if b == 1)
    if ones > t:
        raise ParameterError(f"pattern has {ones} ones but the budget is t={t}")
    if ones == t and bits[-1] != 1:
        raise ParameterError("a budget-exhausting pattern must end at its last 1")
    if ones < t and len(bits) != n_queries:
        raise ParameterError(
            "a non-exhausting pattern must answer the whole query stream"
        )


def _improved_event(dataset, queries, pattern, theta, lam, t) -> tuple:
    """The arguments of :func:`_event_log_prob` for the improved mechanism
    emitting ``pattern`` on ``dataset``; equal tuples are the same event."""
    _validate_halting(pattern, t, len(queries))
    values = _pattern_values(dataset, queries, pattern)
    return tuple(values), tuple(pattern), theta, lam, t * lam


def _event_log_prob(event: tuple) -> float:
    values, bits, theta, lam, query_scale = event
    return threshold_event_log_prob(
        values, bits, theta, lam, theta_scale=lam, query_scale=query_scale
    )


def improved_svt_event_log_prob(dataset, queries, pattern, theta, lam, t):
    """ln P[improved mechanism emits exactly ``pattern``] on ``dataset``."""
    return _event_log_prob(_improved_event(dataset, queries, pattern, theta, lam, t))


def improved_svt_log_ratio_bound(scenario: AuditScenario, lam, t=None) -> float:
    """Exact log output-probability ratio of the improved mechanism between
    the scenario's first and last datasets; compare against ``hops * 2/lam``."""
    t = scenario.t if t is None else t
    first = improved_svt_event_log_prob(
        scenario.datasets[0], scenario.queries, scenario.pattern, scenario.theta, lam, t
    )
    last = improved_svt_event_log_prob(
        scenario.datasets[-1], scenario.queries, scenario.pattern, scenario.theta, lam, t
    )
    return first - last


def binary_svt_event_log_prob(dataset, queries, pattern, theta, lam):
    """ln P[binary mechanism emits exactly ``pattern``] (no halting)."""
    if len(pattern) != len(queries):
        raise ParameterError("binary patterns must cover the whole stream")
    values = _pattern_values(dataset, queries, pattern)
    return threshold_event_log_prob(values, pattern, theta, lam)


def _binary_counterexample(k, theta):
    if not (isinstance(k, (int, np.integer)) and k >= 2 and k % 2 == 0):
        raise ParameterError(f"k must be an even integer >= 2, got {k!r}")
    d1 = ("a", "b")
    d3 = ("b", "b")
    q_a, q_b = token_count_query("a"), token_count_query("b")
    queries = (q_a,) * (k // 2) + (q_b,) * (k // 2)
    pattern = (1,) * (k // 2) + (0,) * (k // 2)
    return d1, d3, queries, pattern


def binary_svt_log_ratio(k: int, theta: float, lam: float) -> float:
    """ln(P[D1 -> E] / P[D3 -> E]) for the two-hop binary counterexample.

    D1 = {a, b} and D3 = {b, b}; the stream asks k/2 times for the count of a
    then k/2 times for the count of b, and E answers 1 for the first half and
    0 for the second.  The ratio provably exceeds exp(k / (2 lam)), i.e. the
    mechanism cannot be differentially private at any noise scale independent
    of k.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    d1, d3, queries, pattern = _binary_counterexample(k, theta)
    p1 = binary_svt_event_log_prob(d1, queries, pattern, theta, lam)
    p3 = binary_svt_event_log_prob(d3, queries, pattern, theta, lam)
    return p1 - p3


def vanilla_event_log_prob(dataset, queries, outputs, theta, lam, t):
    """ln P[vanilla mechanism emits exactly ``outputs``] on ``dataset``.

    ``outputs`` mixes ``None`` (below threshold) and released numeric values.
    Numeric outputs contribute their Laplace density directly; they also cap
    the threshold integral from above, since every released value must exceed
    the noisy threshold.
    """
    numeric = [(i, o) for i, o in enumerate(outputs) if o is not None]
    bits = [0 if o is None else 1 for o in outputs]
    _validate_halting(bits, t, len(queries))
    values = _pattern_values(dataset, queries, outputs)
    log_density = 0.0
    upper = math.inf
    for i, o in numeric:
        log_density += math.log(laplace_pdf(o - values[i], t * lam))
        upper = min(upper, o)
    below = [(values[i], 0) for i, o in enumerate(outputs) if o is None]
    if below:
        vals, bts = zip(*below)
    else:
        vals, bts = (), ()
    log_integral = threshold_event_log_prob(
        vals, bts, theta, lam, theta_scale=lam, query_scale=t * lam, upper=upper
    )
    return log_density + log_integral


def _vanilla_scenario(k):
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    d1 = ("a", "b")
    d3 = ("a", "a")
    q_a, q_b = token_count_query("a"), token_count_query("b")
    queries = (q_a,) * (k - 1) + (q_b,)
    outputs = (None,) * (k - 1) + (1.0,)
    return d1, d3, queries, outputs


def vanilla_svt_log_ratio(k: int, lam: float) -> float:
    """ln(P[D1 -> E] / P[D3 -> E]) for the two-hop vanilla counterexample.

    With D1 = {a, b}, D3 = {a, a}, theta = 0, t = 1, a stream of k-1 count-of-a
    queries followed by one count-of-b query, and the event "k-1 suppressed
    answers then the released value 1", the ratio factorizes exactly: each
    suppressed query contributes exp(1/lam) and the released value's density
    contributes another exp(1/lam), giving exactly k/lam in log space.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    return k / lam


def vanilla_svt_log_ratio_quad(k: int, lam: float) -> float:
    """Quadrature evaluation of the same ratio as :func:`vanilla_svt_log_ratio`;
    the two must agree to ~1e-8, which pins the closed form to the integral."""
    d1, d3, queries, outputs = _vanilla_scenario(k)
    p1 = vanilla_event_log_prob(d1, queries, outputs, 0.0, lam, 1)
    p3 = vanilla_event_log_prob(d3, queries, outputs, 0.0, lam, 1)
    return p1 - p3


# ---------------------------------------------------------------------------
# batteries and reports
# ---------------------------------------------------------------------------


def improved_audit_battery(theta: float = 1.0, k: int = 16) -> list:
    """Single-hop adversarial scenarios for the improved mechanism.

    Covers both neighbor directions (insertion and removal), budget-exhausting
    and non-exhausting patterns, and the degenerate identical-datasets case.
    The streams hold ``k`` queries in two halves, so ``k`` must be even.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 2 and k % 2 == 0):
        raise ParameterError(f"k must be an even integer >= 2, got {k!r}")
    q_a, q_b = token_count_query("a"), token_count_query("b")
    d1 = ("a", "b")
    d2 = ("a", "b", "b")
    d3 = ("b", "b")
    half = k // 2
    scenarios = [
        AuditScenario(
            name="insert-one-early-hit",
            datasets=(d1, d2),
            queries=(q_a,) * half + (q_b,) * half,
            pattern=(1,),
            theta=theta,
            t=1,
        ),
        AuditScenario(
            name="insert-one-late-hit",
            datasets=(d1, d2),
            queries=(q_a,) * (k - 1) + (q_b,),
            pattern=(0,) * (k - 1) + (1,),
            theta=theta,
            t=1,
        ),
        AuditScenario(
            name="remove-one-late-hit",
            datasets=(d2, d1),
            queries=(q_a,) * (k - 1) + (q_b,),
            pattern=(0,) * (k - 1) + (1,),
            theta=theta,
            t=1,
        ),
        AuditScenario(
            name="all-suppressed",
            datasets=(d2, d3),
            queries=(q_a, q_b) * half,
            pattern=(0,) * k,
            theta=theta,
            t=1,
        ),
        AuditScenario(
            name="two-hits-budget-two",
            datasets=(d1, d2),
            queries=(q_b, q_a) * half,
            pattern=(1,) + (0,) * (k - 2) + (1,),
            theta=theta,
            t=2,
        ),
        AuditScenario(
            name="two-hits-removal",
            datasets=(d2, d1),
            queries=(q_b, q_a) * half,
            pattern=(1,) + (0,) * (k - 2) + (1,),
            theta=theta,
            t=2,
        ),
        AuditScenario(
            name="identical-datasets",
            datasets=(d1, d1),
            queries=(q_a,) * k,
            pattern=(0,) * k,
            theta=theta,
            t=1,
        ),
    ]
    return scenarios


def run_default_audit(
    lam: float = 2.0,
    theta: float = 1.0,
    k: int = 16,
    jobs: int = 1,
    variant: str = "all",
):
    """Audit the ratio-checked variants at one parameterization.

    ``variant`` is ``"all"`` (binary, vanilla and improved rows, in that
    order) or one of those names, in which case only that variant's rows are
    computed.  Each distinct improved-variant event is integrated once
    and serves every row that needs it; with ``jobs > 1`` those quadratures
    run in that many worker processes.  Returns one report row per scenario:
    ``{variant, scenario, k, lambda, theta, t, log_ratio, claimed_bound,
    verdict}``.  The claimed bound is ``hops * 2 / lam`` (the advertised
    privacy level is eps = 2/lam per neighbor hop); VIOLATES means the exact
    log-ratio exceeds it.
    """
    if not 0 < lam < math.inf:
        raise ParameterError(f"lam must be positive and finite, got {lam!r}")
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta!r}")
    if variant not in ("all", "binary", "vanilla", "improved"):
        raise ParameterError(
            f"unknown variant {variant!r}; expected all, binary, vanilla or improved"
        )
    rows = []

    def add_row(name, scenario, k_used, theta_used, t_used, log_ratio, bound):
        rows.append(
            {
                "variant": name,
                "scenario": scenario,
                "k": k_used,
                "lambda": lam,
                "theta": theta_used,
                "t": t_used,
                "log_ratio": log_ratio,
                "claimed_bound": bound,
                "verdict": "VIOLATES" if log_ratio > bound + 1e-9 else "SATISFIES",
            }
        )

    if variant in ("all", "binary"):
        ratio = binary_svt_log_ratio(k, theta, lam)
        add_row("binary", "two-hop-alternating", k, theta, None, ratio, 2 * (2.0 / lam))
    if variant in ("all", "vanilla"):
        # k=16 at the vanilla counterexample's t=1 would dwarf the bound; keep
        # the stream short enough that the margin is still readable in reports.
        k_vanilla = max(4, k // 2)
        ratio = vanilla_svt_log_ratio(k_vanilla, lam)
        add_row(
            "vanilla", "two-hop-suppressed-then-release", k_vanilla, 0.0, 1, ratio,
            2 * (2.0 / lam),
        )
    if variant in ("all", "improved"):
        scens = improved_audit_battery(theta=theta, k=k)
        pairs = [
            [_improved_event(d, scen.queries, scen.pattern, scen.theta, lam, scen.t)
             for d in (scen.datasets[0], scen.datasets[-1])]
            for scen in scens
        ]
        # scenarios share events, so each distinct event is integrated once
        events = list(dict.fromkeys(event for pair in pairs for event in pair))
        if jobs == 1:
            log_probs = list(map(_event_log_prob, events))
        else:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                log_probs = list(pool.map(_event_log_prob, events))
        log_prob = dict(zip(events, log_probs))
        for scen, (first, last) in zip(scens, pairs):
            add_row(
                "improved", scen.name, len(scen.queries), scen.theta, scen.t,
                log_prob[first] - log_prob[last], scen.hops * (2.0 / lam),
            )
    return rows
