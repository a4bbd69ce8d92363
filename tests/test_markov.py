import heapq
import itertools
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dphier import markov
from dphier.cli import main
from dphier.dp_core import sample_laplace
from dphier.errors import GenerationError, InputDataError, ParameterError
from dphier.markov import (
    Alphabet,
    END_ID,
    END_TOKEN,
    Pst,
    PstNode,
    START_ID,
    START_TOKEN,
    build_private_pst,
    estimate_string_count,
    generate_sequences,
    longest_suffix_node,
    pst_score,
    top_k_strings,
    truncate_sequences,
)

from conftest import assert_same_release


# ---------------------------------------------------------------------------
# independent oracles operating on raw token lists
# ---------------------------------------------------------------------------


def oracle_truncate(raw, l_max):
    """(symbols, has_end) pairs under the length cap counting the end marker."""
    out = []
    for s in raw:
        s = list(s)
        if len(s) + 1 <= l_max:
            out.append((s, True))
        else:
            out.append((s[:l_max], False))
    return out


def oracle_hist(truncated, predictor):
    """Next-symbol histogram of a predictor by direct context scanning."""
    predictor = list(predictor)
    hist = {}
    for syms, has_end in truncated:
        emitted = syms + ([END_TOKEN] if has_end else [])
        for i, nxt in enumerate(emitted, start=1):
            ctx = [START_TOKEN] + syms[: i - 1]
            m = len(predictor)
            if m <= len(ctx) and (m == 0 or ctx[-m:] == predictor):
                hist[nxt] = hist.get(nxt, 0) + 1
    return hist


def oracle_score(hist):
    if not hist:
        return 0.0
    vals = list(hist.values())
    return float(sum(vals) - max(vals))


def oracle_pst_structure(truncated, symbols, theta, delta, depth_cap):
    """Predictor set of the noiseless biased build, by direct recursion."""
    nodes = {}

    def expand(pred, depth):
        hist = oracle_hist(truncated, pred)
        nodes[tuple(pred)] = hist
        blocked = bool(pred) and pred[0] == START_TOKEN
        b = max(theta - delta, oracle_score(hist) - depth * delta)
        if blocked or depth >= depth_cap or not b > theta:
            return
        for sym in [START_TOKEN, *symbols]:
            expand([sym] + list(pred), depth + 1)

    expand([], 0)
    return nodes


def hist_as_dict(pst, node):
    out = {}
    for sym_id in (END_ID, *pst.alphabet.symbol_ids):
        v = float(node.hist[sym_id])
        if v:
            out[pst.alphabet.token_of(sym_id)] = v
    return out


def build_worked_example_pst(data):
    """Hand-assembled deep PST for the {B, AB, AAB, AAAB} dataset, including
    the second-level contexts; histogram values are hand-counted."""
    a, b = data.alphabet.id_of("A"), data.alphabet.id_of("B")

    def h(end=0, A=0, B=0):
        arr = np.zeros(4, dtype=np.float64)
        arr[END_ID], arr[a], arr[b] = end, A, B
        return arr

    nodes = [
        PstNode(id=0, predictor=(), children={START_ID: 1, a: 2, b: 3}, hist=h(4, 6, 4)),
        PstNode(id=1, predictor=(START_ID,), hist=h(0, 3, 1)),
        PstNode(id=2, predictor=(a,), children={START_ID: 4, a: 5, b: 6}, hist=h(0, 3, 3)),
        PstNode(id=3, predictor=(b,), hist=h(4, 0, 0)),
        PstNode(id=4, predictor=(START_ID, a), hist=h(0, 2, 1)),
        PstNode(id=5, predictor=(a, a), hist=h(0, 1, 2)),
        PstNode(id=6, predictor=(b, a), hist=h(0, 0, 0)),
    ]
    return Pst(nodes=nodes, alphabet=data.alphabet, l_max=data.l_max)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


class TestTruncation:
    def test_long_sequence_becomes_open_ended(self):
        data = truncate_sequences([["A", "B", "A", "B"]], 3, Alphabet(("A", "B")))
        assert data.sequences[0] == tuple(data.alphabet.id_of(t) for t in "ABA")
        assert data.open_ended[0] is True

    def test_short_sequence_keeps_end_marker(self):
        data = truncate_sequences([["A", "B"]], 10, Alphabet(("A", "B")))
        assert len(data.sequences[0]) == 2
        assert data.open_ended[0] is False

    def test_end_marker_counts_toward_cap(self):
        # AB plus its end marker has length 3 > 2, so the marker is dropped
        data = truncate_sequences([["A", "B"]], 2, Alphabet(("A", "B")))
        assert data.sequences[0] == tuple(data.alphabet.id_of(t) for t in "AB")
        assert data.open_ended[0] is True

    def test_matches_oracle_on_random_lengths(self):
        rng = np.random.default_rng(1)
        alpha = Alphabet(("A", "B", "C"))
        for _ in range(50):
            l_max = int(rng.integers(1, 8))
            raw = [
                [str(t) for t in rng.choice(["A", "B", "C"], size=rng.integers(0, 10))]
                for _ in range(5)
            ]
            raw = [s for s in raw if s] or [["A"]]
            data = truncate_sequences(raw, l_max, alpha)
            expect = oracle_truncate(raw, l_max)
            for (esyms, ehas), got, is_open in zip(
                expect, data.sequences, data.open_ended
            ):
                assert [alpha.token_of(t) for t in got] == esyms
                assert is_open == (not ehas)

    def test_alphabet_inference_first_appearance(self):
        data = truncate_sequences([["z", "y"], ["x"]], 5)
        assert data.alphabet.symbols == ("z", "y", "x")

    def test_reserved_tokens_rejected(self):
        with pytest.raises(ParameterError):
            Alphabet(("A", START_TOKEN))
        with pytest.raises(ParameterError):
            Alphabet(())


class TestPstScore:
    def test_two_singletons(self):
        assert pst_score({"A": 1, "B": 1}) == 1.0

    def test_single_mass_is_zero(self):
        assert pst_score({END_TOKEN: 4}) == 0.0

    def test_skewed(self):
        assert pst_score({"A": 2, "B": 1}) == 1.0

    def test_empty(self):
        assert pst_score({}) == 0.0
        assert pst_score(np.zeros(4)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            pst_score({"A": -1.0})

    def test_parent_child_pair_stays_monotone(self):
        child, parent = {"A": 1, "B": 1}, {"A": 2, "B": 1}
        assert pst_score(child) <= pst_score(parent)


# ---------------------------------------------------------------------------
# private build
# ---------------------------------------------------------------------------


class TestBuildPrivatePst:
    def test_budget_split_default(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        # fanout 3: structure gets eps/3, histograms the rest
        assert pst.params.epsilon == pytest.approx(1.0 / 3.0)

    def test_structure_noise_scale(self):
        data = truncate_sequences([["A", "B"]], 10, Alphabet(("A", "B")))
        pst = build_private_pst(data, 1.0, noiseless=True)
        # (2b-1)/(b-1) * l_max / eps_tree = (5/2) * 10 * 3 at b=3, eps=1
        assert pst.params.lam == pytest.approx(75.0, rel=1e-13)

    def test_worked_example_noiseless_histograms(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        preds = {
            tuple(pst.alphabet.token_of(t) for t in n.predictor): n
            for n in pst.nodes
        }
        assert set(preds) >= {(), (START_TOKEN,), ("A",), ("B",)}
        truncated = oracle_truncate(
            [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]], 10
        )
        for pred, node in preds.items():
            assert hist_as_dict(pst, node) == oracle_hist(truncated, pred)
        assert preds[()].hist[pst.alphabet.id_of("A")] == 6.0

    @pytest.mark.parametrize("epsilon", [1.0, 60.0])
    def test_noiseless_build_matches_structure_oracle(self, epsilon):
        rng = np.random.default_rng(17)
        symbols = ["A", "B"]
        for _ in range(8):
            raw = [
                [str(t) for t in rng.choice(symbols, size=rng.integers(1, 7))]
                for _ in range(rng.integers(2, 20))
            ]
            l_max = int(rng.integers(2, 7))
            data = truncate_sequences(raw, l_max, Alphabet(tuple(symbols)))
            pst = build_private_pst(data, epsilon, noiseless=True, depth_cap=6)
            truncated = oracle_truncate(raw, l_max)
            expected = oracle_pst_structure(
                truncated, symbols, pst.params.theta, pst.params.delta, 6
            )
            got = {
                tuple(pst.alphabet.token_of(t) for t in n.predictor): hist_as_dict(
                    pst, n
                )
                for n in pst.nodes
            }
            assert set(got) == set(expected)
            for pred, hist in expected.items():
                assert got[pred] == {k: float(v) for k, v in hist.items() if v}

    def test_start_prefixed_nodes_never_split(self):
        rng = np.random.default_rng(3)
        raw = [["A"] * 5 for _ in range(40)]
        data = truncate_sequences(raw, 6, Alphabet(("A",)))
        pst = build_private_pst(data, 200.0, noiseless=True)
        for node in pst.nodes:
            if node.predictor and node.predictor[0] == START_ID:
                assert node.is_leaf

    def test_noisy_histograms_clamped_nonnegative(self, worked_example_data):
        pst = build_private_pst(
            worked_example_data, 0.05, np.random.default_rng(5)
        )
        for node in pst.nodes:
            assert (node.hist >= 0).all()

    def test_histogram_noise_scale_pinned_to_stream(self, worked_example_data):
        # single-structure-draw build: replicate the stream by hand to verify
        # the histogram stage uses scale l_max / eps_hist
        eps = 1.0
        beta = 3
        rng = np.random.default_rng(123)
        pst = build_private_pst(worked_example_data, eps, rng)
        rng2 = np.random.default_rng(123)
        from dphier.dp_core import sample_laplace

        draws = []
        # structure stage: one draw per non-blocked node visited
        visited = sum(
            1
            for n in pst.nodes
            if not (n.predictor and n.predictor[0] == START_ID)
        )
        for _ in range(visited):
            draws.append(sample_laplace(pst.params.lam, rng2))
        eps_hist = eps * (beta - 1) / beta
        leaf0 = min(n.id for n in pst.nodes if n.is_leaf)
        noise = sample_laplace(worked_example_data.l_max / eps_hist, rng2, size=3)
        truncated = oracle_truncate(
            [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]], 10
        )
        node = pst.node(leaf0)
        pred = tuple(pst.alphabet.token_of(t) for t in node.predictor)
        exact = oracle_hist(truncated, pred)
        exact_arr = np.zeros(4)
        for tok, v in exact.items():
            exact_arr[pst.alphabet.id_of(tok)] = v
        expected = np.maximum(exact_arr[1:] + noise, 0.0)
        assert np.allclose(node.hist[1:], expected)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ParameterError):
            truncate_sequences([], 5)

    def test_bad_epsilon(self, worked_example_data):
        with pytest.raises(ParameterError):
            build_private_pst(worked_example_data, 0.0, noiseless=True)

    def test_nonfinite_theta_rejected(self, worked_example_data):
        with pytest.raises(ParameterError, match="theta"):
            build_private_pst(worked_example_data, 1.0, noiseless=True, theta=float("nan"))


# ---------------------------------------------------------------------------
# queries on the hand-assembled deep tree
# ---------------------------------------------------------------------------


class TestLongestSuffixNode:
    def test_start_only(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        nid = longest_suffix_node(pst, [START_TOKEN])
        assert pst.node(nid).predictor == (START_ID,)

    def test_start_a(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        nid = longest_suffix_node(pst, [START_TOKEN, "A"])
        assert [pst.alphabet.token_of(t) for t in pst.node(nid).predictor] == [
            START_TOKEN,
            "A",
        ]

    def test_deep_context_truncates_to_available_depth(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        nid = longest_suffix_node(pst, [START_TOKEN, "A", "A", "A", "A"])
        assert [pst.alphabet.token_of(t) for t in pst.node(nid).predictor] == ["A", "A"]

    def test_requires_start_marker(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        with pytest.raises(ParameterError):
            longest_suffix_node(pst, ["A"])

    @pytest.mark.parametrize("bad", [-1, 4, 99, np.int64(-3)])
    def test_unknown_symbol_id_rejected(self, worked_example_data, bad):
        pst = build_worked_example_pst(worked_example_data)
        with pytest.raises(InputDataError, match=f"unknown symbol id {bad}"):
            longest_suffix_node(pst, [START_ID, bad])


class TestEstimateStringCount:
    def test_single_symbol(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        assert estimate_string_count(pst, ["A"]) == 6.0

    def test_two_symbols(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        assert estimate_string_count(pst, ["A", "B"]) == pytest.approx(3.0)

    def test_zero_root_count_short_circuits(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        pst.node(0).hist = pst.node(0).hist.copy()
        pst.node(0).hist[pst.alphabet.id_of("A")] = 0.0
        assert estimate_string_count(pst, ["A", "B", "A"]) == 0.0

    def test_zero_magnitude_node_returns_zero(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        # context BA has an empty histogram: any continuation estimates to 0
        assert estimate_string_count(pst, ["B", "A", "B"]) == 0.0

    def test_end_marker_only_terminal(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        assert estimate_string_count(pst, ["B", END_TOKEN]) > 0
        with pytest.raises(ParameterError):
            estimate_string_count(pst, [END_TOKEN, "A"])
        with pytest.raises(ParameterError):
            estimate_string_count(pst, [])

    @pytest.mark.parametrize("bad", [-1, 4, 99, np.int64(-3)])
    def test_unknown_symbol_id_rejected(self, worked_example_data, bad):
        pst = build_worked_example_pst(worked_example_data)
        with pytest.raises(InputDataError, match=f"unknown symbol id {bad}"):
            estimate_string_count(pst, [bad])
        with pytest.raises(InputDataError, match=f"unknown symbol id {bad}"):
            estimate_string_count(pst, [pst.alphabet.id_of("A"), bad])

    def test_symbol_ids_match_tokens(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        ids = [pst.alphabet.id_of(t) for t in ("A", "A", "B", END_TOKEN)]
        assert estimate_string_count(pst, ids) == estimate_string_count(
            pst, ["A", "A", "B", END_TOKEN]
        )
        assert estimate_string_count(pst, [np.int64(ids[0])]) == 6.0

    def test_matches_direct_suffix_chain_oracle(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        truncated = oracle_truncate(
            [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]], 10
        )
        preds = {
            tuple(pst.alphabet.token_of(t) for t in n.predictor) for n in pst.nodes
        }

        def oracle_estimate(s):
            hist0 = oracle_hist(truncated, [])
            ans = float(hist0.get(s[0], 0))
            for i in range(1, len(s)):
                # longest predictor among tree nodes that suffixes s[:i]
                best = ()
                for pred in preds:
                    m = len(pred)
                    if m and m <= i and tuple(s[i - m : i]) == pred:
                        if m > len(best):
                            best = pred
                h = oracle_hist(truncated, list(best))
                mag = sum(h.values())
                if mag == 0 or ans == 0:
                    return 0.0
                ans *= h.get(s[i], 0) / mag
            return ans

        for s in [["A"], ["B"], ["A", "B"], ["A", "A"], ["A", "A", "B"], ["B", "B"]]:
            assert estimate_string_count(pst, s) == pytest.approx(oracle_estimate(s))


class TestTopK:
    def brute_force(self, pst, max_len):
        symbols = list(pst.alphabet.symbols)
        rows = []
        for length in range(1, max_len + 1):
            for combo in itertools.product(symbols, repeat=length):
                est = estimate_string_count(pst, list(combo))
                ids = tuple(pst.alphabet.id_of(t) for t in combo)
                rows.append((-est, len(combo), ids, combo, est))
        rows.sort()
        return [(combo, est) for _, _, _, combo, est in rows]

    def test_top_one_is_most_frequent_symbol(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        assert top_k_strings(pst, 1) == [(("A",), 6.0)]

    def test_matches_brute_force_enumeration(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        pst = Pst(
            nodes=pst.nodes,
            alphabet=pst.alphabet,
            l_max=4,
        )
        expected = self.brute_force(pst, 4)
        got = top_k_strings(pst, len(expected))
        assert got == [(c, pytest.approx(e)) for c, e in expected]

    def test_uniform_single_symbol_counts(self):
        data = truncate_sequences([["A"]] * 10 + [["B"]] * 10, 5, Alphabet(("A", "B")))
        pst = build_private_pst(data, 1.0, noiseless=True)
        got = top_k_strings(pst, 2)
        # equal estimates tie-break by alphabet order
        assert [s for s, _ in got] == [("A",), ("B",)]
        assert [e for _, e in got] == [10.0, 10.0]

    def test_k_exceeding_space_returns_all(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        pst = Pst(nodes=pst.nodes, alphabet=pst.alphabet, l_max=2)
        got = top_k_strings(pst, 1000)
        assert len(got) == 2 + 4  # strings of length 1 and 2

    def test_bad_k(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        with pytest.raises(ParameterError):
            top_k_strings(pst, 0)


class TestGeneration:
    def test_all_end_histograms_give_empty_sequences(self):
        alpha = Alphabet(("A",))
        hist = np.zeros(3)
        hist[END_ID] = 5.0
        pst = Pst(
            nodes=[PstNode(id=0, predictor=(), hist=hist)], alphabet=alpha, l_max=5
        )
        out = generate_sequences(pst, 20, np.random.default_rng(0))
        assert out == [[] for _ in range(20)]

    def test_deterministic_chain(self):
        # every context emits exactly one symbol: A then B then end
        alpha = Alphabet(("A", "B"))
        a, b = alpha.id_of("A"), alpha.id_of("B")

        def h(**kw):
            arr = np.zeros(4)
            for tok, v in kw.items():
                arr[alpha.id_of(tok) if tok != "end" else END_ID] = v
            return arr

        nodes = [
            PstNode(id=0, predictor=(), children={START_ID: 1, a: 2, b: 3}, hist=h(A=1, B=1, end=1)),
            PstNode(id=1, predictor=(START_ID,), hist=h(A=1)),
            PstNode(id=2, predictor=(a,), hist=h(B=1)),
            PstNode(id=3, predictor=(b,), hist=h(end=1)),
        ]
        pst = Pst(nodes=nodes, alphabet=alpha, l_max=6)
        out = generate_sequences(pst, 5, np.random.default_rng(1))
        assert out == [["A", "B"]] * 5

    def test_first_symbol_distribution(self, worked_example_data):
        pst = build_worked_example_pst(worked_example_data)
        out = generate_sequences(pst, 100_000, np.random.default_rng(2))
        frac_a = sum(1 for s in out if s and s[0] == "A") / len(out)
        # start context: {A: 3, B: 1}
        assert frac_a == pytest.approx(0.75, abs=0.01)

    def test_length_cutoff(self):
        # end marker never sampled: sequences stop at l_max symbols
        alpha = Alphabet(("A",))
        hist = np.zeros(3)
        hist[alpha.id_of("A")] = 1.0
        pst = Pst(
            nodes=[PstNode(id=0, predictor=(), hist=hist)], alphabet=alpha, l_max=4
        )
        out = generate_sequences(pst, 3, np.random.default_rng(3))
        assert out == [["A"] * 4] * 3

    def test_empty_root_rejected(self):
        alpha = Alphabet(("A",))
        pst = Pst(
            nodes=[PstNode(id=0, predictor=(), hist=np.zeros(3))],
            alphabet=alpha,
            l_max=4,
        )
        with pytest.raises(GenerationError):
            generate_sequences(pst, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def full_exact_pst_scores(truncated, symbols, depth_cap):
    """(predictor -> score) for every context with any mass, via the oracle."""
    out = {}

    def expand(pred, depth):
        hist = oracle_hist(truncated, pred)
        out[tuple(pred)] = oracle_score(hist)
        if depth >= depth_cap or (pred and pred[0] == START_TOKEN):
            return
        if sum(hist.values()) == 0:
            return
        for sym in [START_TOKEN, *symbols]:
            expand([sym] + list(pred), depth + 1)

    expand([], 0)
    return out


class TestScoreProperties:
    def test_monotone_along_tree(self):
        rng = np.random.default_rng(21)
        symbols = ["A", "B", "C"]
        for _ in range(100):
            raw = [
                [str(t) for t in rng.choice(symbols, size=rng.integers(1, 8))]
                for _ in range(rng.integers(1, 15))
            ]
            truncated = oracle_truncate(raw, 6)
            scores = full_exact_pst_scores(truncated, symbols, 4)
            for pred, sc in scores.items():
                for sym in [START_TOKEN, *symbols]:
                    child = (sym,) + pred
                    if child in scores:
                        assert scores[child] <= sc + 1e-12

    def test_insertion_changes_scores_by_at_most_cap_along_chains(self):
        rng = np.random.default_rng(22)
        symbols = ["A", "B"]
        for _ in range(20):
            base = [
                [str(t) for t in rng.choice(symbols, size=rng.integers(1, 6))]
                for _ in range(rng.integers(1, 8))
            ]
            added = [str(t) for t in rng.choice(symbols, size=rng.integers(1, 6))]
            l_max = 4
            probe_preds = set(
                full_exact_pst_scores(oracle_truncate(base + [added], l_max), symbols, 3)
            )
            prev = oracle_truncate(base, l_max)
            prev_scores = {
                p: oracle_score(oracle_hist(prev, list(p))) for p in probe_preds
            }
            trunc_added = oracle_truncate([added], l_max)[0]
            emitted = trunc_added[0] + ([END_TOKEN] if trunc_added[1] else [])
            # insert the sequence one emitted symbol at a time
            for i in range(1, len(emitted) + 1):
                part = [(trunc_added[0][: min(i, len(trunc_added[0]))], i > len(trunc_added[0]))]
                cur = prev_scores.copy()
                now = oracle_truncate(base, l_max) + [
                    (part[0][0], False) if not part[0][1] else (part[0][0], True)
                ]
                changed_chain = [START_TOKEN] + trunc_added[0][: i - 1]
                for p in probe_preds:
                    new_score = oracle_score(oracle_hist(now, list(p)))
                    delta = abs(new_score - prev_scores[p])
                    assert delta <= 1.0 + 1e-12
                    if delta > 0:
                        # changed node predictors are suffixes of the new
                        # position's context
                        m = len(p)
                        assert m <= len(changed_chain)
                        assert tuple(changed_chain[len(changed_chain) - m :]) == p
                    cur[p] = new_score
                prev_scores = cur
            final = oracle_truncate(base + [added], l_max)
            for p in probe_preds:
                total = abs(
                    oracle_score(oracle_hist(final, list(p)))
                    - oracle_score(oracle_hist(oracle_truncate(base, l_max), list(p)))
                )
                assert total <= l_max + 1e-12

    def test_histogram_conservation(self):
        rng = np.random.default_rng(23)
        raw = [
            [str(t) for t in rng.choice(["A", "B"], size=rng.integers(1, 9))]
            for _ in range(30)
        ]
        data = truncate_sequences(raw, 5, Alphabet(("A", "B")))
        pst = build_private_pst(data, 1.0, noiseless=True)
        root_mag = float(pst.node(pst.root).hist.sum())
        expected = sum(
            len(s) + (0 if o else 1) for s, o in zip(data.sequences, data.open_ended)
        )
        assert root_mag == expected

    def test_each_symbol_lands_in_exactly_one_leaf(self):
        rng = np.random.default_rng(24)
        raw = [
            [str(t) for t in rng.choice(["A", "B"], size=rng.integers(1, 9))]
            for _ in range(25)
        ]
        data = truncate_sequences(raw, 5, Alphabet(("A", "B")))
        pst = build_private_pst(data, 80.0, noiseless=True)
        leaf_total = sum(
            (n.hist for n in pst.nodes if n.is_leaf), np.zeros(4)
        )
        assert np.array_equal(leaf_total, pst.node(pst.root).hist)


token = st.sampled_from(["A", "B"])


class TestHypothesisProperties:
    @given(
        raw=st.lists(st.lists(token, min_size=0, max_size=9), min_size=0, max_size=8),
        l_max=st.integers(1, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_truncation_invariants(self, raw, l_max):
        data = truncate_sequences(raw, l_max, Alphabet(("A", "B")))
        for original, stored, is_open in zip(raw, data.sequences, data.open_ended):
            assert len(stored) + (0 if is_open else 1) <= l_max
            assert is_open == (len(original) + 1 > l_max)
            kept = [data.alphabet.token_of(t) for t in stored]
            assert kept == original[: len(kept)]

    @given(s=st.lists(token, min_size=1, max_size=4), ext=token)
    @settings(max_examples=80, deadline=None)
    def test_estimate_nonincreasing_under_extension(
        self, s, ext, worked_example_data
    ):
        # the one-symbol-extension factor is a probability, so estimates can
        # only shrink; this is what makes best-first mining emit in order
        pst = build_worked_example_pst(worked_example_data)
        assert estimate_string_count(pst, s + [ext]) <= estimate_string_count(
            pst, s
        ) + 1e-12


class TestSerialization:
    def test_roundtrip(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, np.random.default_rng(9))
        clone = markov.pst_from_json_dict(json.loads(pst.dumps()))
        assert len(clone.nodes) == len(pst.nodes)
        for a, b in zip(pst.nodes, clone.nodes):
            assert a.predictor == b.predictor
            assert a.children == b.children
            assert np.allclose(a.hist, b.hist)
        for s in (["A"], ["A", "B"], ["B", "B"]):
            assert estimate_string_count(clone, s) == pytest.approx(
                estimate_string_count(pst, s)
            )

    def test_loader_rejects_unknown_child_ids(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        doc = pst.to_json_dict()
        doc["nodes"][0]["children"]["A"] = 10**6
        with pytest.raises(InputDataError):
            markov.pst_from_json_dict(doc)

    def test_json_uses_tokens(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        doc = pst.to_json_dict()
        assert doc["alphabet"] == ["A", "B"]
        root = next(e for e in doc["nodes"] if e["predictor"] == [])
        assert set(root["children"]) == {START_TOKEN, "A", "B"}
        assert set(root["hist"]) == {END_TOKEN, "A", "B"}


# ---------------------------------------------------------------------------
# noise-draw order: a per-node reference builder
# ---------------------------------------------------------------------------


def reference_pst_nodes(data, params, eps_hist, rng):
    """Per-node BFS build: one scalar split draw per unblocked node in BFS
    order, then one histogram draw per leaf in id order."""
    width = data.alphabet.size + 2
    positions = []  # (context, next symbol)
    for seq, is_open in zip(data.sequences, data.open_ended):
        emitted = list(seq) + ([] if is_open else [END_ID])
        positions += [((START_ID,) + seq[:i], sym) for i, sym in enumerate(emitted)]
    nodes = [PstNode(id=0, predictor=())]
    for node in nodes:  # the list grows while iterated: BFS order
        node.hist = np.zeros(width)
        for ctx, sym in positions:
            if ctx[len(ctx) - node.depth:] == node.predictor:
                node.hist[sym] += 1
        if node.predictor[:1] == (START_ID,):
            continue
        score = node.hist.sum() - node.hist.max()
        b = max(params.theta - params.delta, score - node.depth * params.delta)
        if b + sample_laplace(params.lam, rng) > params.theta:
            for sym in (START_ID, *data.alphabet.symbol_ids):
                node.children[sym] = len(nodes)
                nodes.append(PstNode(id=len(nodes), predictor=(sym,) + node.predictor))
    for node in nodes:
        if node.is_leaf:
            node.hist[1:] += sample_laplace(data.l_max / eps_hist, rng, size=width - 1)
    for node in reversed(nodes):
        if not node.is_leaf:
            node.hist = sum(nodes[c].hist for c in node.children.values())
    for node in nodes:
        np.maximum(node.hist, 0.0, out=node.hist)
    return nodes


class TestNoiseDrawOrder:
    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    def test_build_matches_per_node_reference(self, epsilon):
        rng = np.random.default_rng(30)
        raw = [list(rng.choice(list("abc"), size=rng.integers(1, 11))) for _ in range(400)]
        data = truncate_sequences(raw, 8)
        pst = build_private_pst(data, epsilon, np.random.default_rng(8))
        beta = data.alphabet.fanout
        eps_hist = epsilon - epsilon * (1.0 / beta)
        nodes = reference_pst_nodes(data, pst.params, eps_hist, np.random.default_rng(8))
        ref = Pst(
            nodes=nodes, alphabet=data.alphabet, l_max=data.l_max, params_info=pst.params_info
        )
        assert len(nodes) > 1 + beta
        assert_same_release(pst, ref)


# ---------------------------------------------------------------------------
# document validation on load
# ---------------------------------------------------------------------------


class TestLoadValidation:
    def test_cyclic_document_rejected(self, tmp_path):
        params = {"epsilon": None, "lambda": None, "theta": None, "delta": None}
        doc = {
            "alphabet": ["A"],
            "l_max": 4,
            "params": params,
            "nodes": [
                {"id": 0, "predictor": [], "children": {"A": 1}},
                {"id": 1, "predictor": ["A"], "children": {"A": 0}},
            ],
        }
        with pytest.raises(InputDataError, match="root node 0 is listed as a child"):
            markov.pst_from_json_dict(doc)
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputDataError):
            markov.load_pst(path)

    @pytest.mark.parametrize("count", [-2.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_histogram_counts_rejected(self, worked_example_data, count):
        doc = build_private_pst(worked_example_data, 1.0, noiseless=True).to_json_dict()
        leaf = next(e for e in doc["nodes"] if not e["children"])
        leaf["hist"][END_TOKEN] = count
        with pytest.raises(InputDataError, match="histogram counts must be finite and >= 0"):
            markov.pst_from_json_dict(doc)

    def test_child_must_extend_parent_predictor(self, worked_example_data):
        doc = build_private_pst(worked_example_data, 1.0, noiseless=True).to_json_dict()
        root = next(e for e in doc["nodes"] if e["predictor"] == [])
        child = doc["nodes"][root["children"]["A"]]
        child["predictor"] = ["B"]
        with pytest.raises(InputDataError, match="not one level below its parent"):
            markov.pst_from_json_dict(doc)


# ---------------------------------------------------------------------------
# the read side against per-symbol suffix walks
# ---------------------------------------------------------------------------


def walk(pst, context, nodes=None):
    """The deepest-suffix node of ``context``, walked over ``nodes``, a
    ``pst.nodes`` list that callers walking many contexts make once."""
    nodes = pst.nodes if nodes is None else nodes
    nid = pst.root
    for sym in reversed(context):
        if sym not in nodes[nid].children:
            break
        nid = nodes[nid].children[sym]
    return nid


def reference_generate(pst, count, rng):
    """One ``rng.random()`` per sampled symbol, a suffix walk per symbol and a
    linear scan for the first cumulative count above the draw."""
    if float(pst.node(pst.root).hist.sum()) <= 0.0:
        raise GenerationError("root histogram is empty; nothing to sample")
    out = []
    for _ in range(count):
        ctx, emitted = [START_ID], []
        while len(emitted) < pst.l_max:
            hist = pst.node(walk(pst, ctx)).hist
            mag = float(hist.sum())
            if mag <= 0.0:
                break
            u = rng.random() * mag
            acc, sym = 0.0, END_ID
            for cand in (END_ID, *pst.alphabet.symbol_ids):
                acc += float(hist[cand])
                if u < acc:
                    sym = cand
                    break
            if sym == END_ID:
                break
            emitted.append(sym)
            ctx.append(sym)
        out.append([pst.alphabet.token_of(t) for t in emitted])
    return out


def reference_estimate(pst, ids):
    ans = float(pst.node(pst.root).hist[ids[0]])
    for i in range(1, len(ids)):
        if ans == 0.0:
            return 0.0
        hist = pst.node(walk(pst, ids[:i])).hist
        mag = float(hist.sum())
        if mag == 0.0:
            return 0.0
        ans *= float(hist[ids[i]]) / mag
    return ans


def reference_top_k(pst, k):
    root_hist = pst.node(pst.root).hist
    heap = [(-float(root_hist[s]), 1, (s,)) for s in pst.alphabet.symbol_ids]
    heapq.heapify(heap)
    out = []
    while heap and len(out) < k:
        neg_est, _, ids = heapq.heappop(heap)
        out.append((tuple(pst.alphabet.token_of(t) for t in ids), -neg_est))
        if len(ids) >= pst.l_max:
            continue
        hist = pst.node(walk(pst, list(ids))).hist
        mag = float(hist.sum())
        for sym in pst.alphabet.symbol_ids:
            est = -neg_est * float(hist[sym]) / mag if mag > 0.0 else 0.0
            heapq.heappush(heap, (-est, len(ids) + 1, ids + (sym,)))
    return out


def reference_truncate(raw, l_max, alphabet=None):
    """Token-at-a-time truncation with per-sequence dataset validation."""
    raw = [list(map(str, s)) for s in raw]
    if alphabet is None:
        seen = []
        for s in raw:
            for tok in s:
                if tok not in seen:
                    seen.append(tok)
        if not seen:
            raise ParameterError("cannot infer an alphabet from empty input")
        alphabet = Alphabet(tuple(seen))
    sequences, opens = [], []
    for s in raw:
        ids = tuple(alphabet.id_of(t) for t in s)
        sequences.append(ids if len(ids) + 1 <= l_max else ids[:l_max])
        opens.append(len(ids) + 1 > l_max)
    reference_dataset_check(alphabet, sequences, opens, l_max)
    return alphabet.symbols, tuple(sequences), tuple(opens)


def reference_dataset_check(alphabet, sequences, opens, l_max):
    valid = set(alphabet.symbol_ids)
    for s, is_open in zip(sequences, opens):
        if any(int(t) not in valid for t in s):
            raise InputDataError("sequence contains ids outside the alphabet")
        if len(s) + (0 if is_open else 1) > l_max:
            raise InputDataError("sequence exceeds the length cap")


def outcome(fn, *args):
    """A call's result, or its error class and message."""
    try:
        return ("ok", fn(*args))
    except (ParameterError, InputDataError, GenerationError) as exc:
        return ("error", type(exc), str(exc))


def hand_made_pst(draw, l_max):
    """A PST over {A, B} of up to 10 nodes, any of which may split, with
    counts that may be zero, negative or missing from the fold (START slot).
    It is made from columns, since the reader refuses such counts."""
    alpha = Alphabet(("A", "B"))
    split, n = [], 1
    while len(split) < n:
        split.append(n < 10 and draw(st.booleans()))
        n += 3 * split[-1]
    count = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0, -1.0])
    hist = np.array(
        [[draw(st.sampled_from([0.0, 0.0, 2.0]))] + [draw(count) for _ in range(3)]
         for _ in range(n)]
    )
    return Pst(alpha, l_max, split=np.array(split), hist=hist)


def built_pst(draw, l_max):
    raw = draw(st.lists(st.lists(st.sampled_from("ABC"), min_size=1, max_size=8), min_size=1, max_size=30))
    data = truncate_sequences(raw, l_max, Alphabet(("A", "B", "C")))
    epsilon = draw(st.sampled_from([0.5, 4.0, 60.0]))
    if draw(st.booleans()):
        return build_private_pst(data, epsilon, noiseless=True)
    return build_private_pst(data, epsilon, np.random.default_rng(draw(st.integers(0, 99))))


@st.composite
def psts(draw):
    l_max = draw(st.integers(1, 7))
    make = draw(st.sampled_from([hand_made_pst, built_pst]))
    return make(draw, l_max)


class TestContextAutomaton:
    @given(pst=psts())
    @settings(max_examples=150, deadline=None)
    def test_state_node_is_the_suffix_walk_node(self, pst):
        reader = markov._automaton(pst)
        nodes = pst.nodes
        depth = max(len(n.predictor) for n in nodes)
        syms = (START_ID, *pst.alphabet.symbol_ids)
        # every string of START and symbol ids up to depth + 2, oldest first,
        # depth-first, each one step from its parent's state
        pending = [((), reader.empty)]
        while pending:
            ctx, state = pending.pop()
            assert state.node == walk(pst, ctx, nodes) == markov._deepest_suffix_node(pst, ctx)
            if len(ctx) < depth + 2:
                pending.extend((ctx + (sym,), reader.step(state, sym)) for sym in syms)
        assert len(reader.states) <= 1 + sum(len(n.predictor) for n in nodes)
        assert markov._automaton(pst) is reader

    @given(pst=psts(), count=st.integers(0, 40), seed=st.integers(0, 2**32),
           block=st.sampled_from([1, 2, 7, markov._UNIFORM_BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_generation_and_final_rng_state_match_reference(self, pst, count, seed, block):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = outcome(reference_generate, pst, count, rng_ref)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "_UNIFORM_BLOCK", block)
            got = outcome(generate_sequences, pst, count, rng)
        assert got == want
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_generation_spans_many_blocks(self, monkeypatch):
        data = truncate_sequences(
            [list("ABCAB"), list("BCA"), list("CCAB"), list("ABABAB")] * 20, 8
        )
        pst = build_private_pst(data, 4.0, np.random.default_rng(5))
        monkeypatch.setattr(markov, "_UNIFORM_BLOCK", 3)
        rng_ref, rng = np.random.default_rng(11), np.random.default_rng(11)
        out = generate_sequences(pst, 300, rng)
        assert out == reference_generate(pst, 300, rng_ref)
        assert sum(map(len, out)) + 300 > 10 * 3
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        # the caller's generator continues where the reference's does
        assert rng.random() == rng_ref.random()

    def test_end_wins_when_fold_is_below_the_draw(self):
        # mass in the START slot counts in the magnitude but is never picked
        alpha = Alphabet(("A",))
        hist = np.array([[3.0, 0.0, 1.0]])
        # columns, since the reader refuses a START count
        pst = Pst(alpha, 4, split=np.array([False]), hist=hist)
        rng_ref, rng = np.random.default_rng(2), np.random.default_rng(2)
        out = generate_sequences(pst, 200, rng)
        assert out == reference_generate(pst, 200, rng_ref)
        assert [] in out and ["A"] in out

    def test_draw_equal_to_a_cumulative_count_picks_as_the_scan_does(self):
        # SFC64 returns a + b + counter first, so a zero state draws exactly
        # 0.0: u == acc at END (count 0), and the scan moves on to A
        alpha = Alphabet(("A",))
        hist = np.array([0.0, 0.0, 1.0])
        pst = Pst(nodes=[PstNode(id=0, predictor=(), hist=hist)], alphabet=alpha, l_max=1)
        rngs = [np.random.Generator(np.random.SFC64()) for _ in range(2)]
        for rng in rngs:
            state = rng.bit_generator.state
            state["state"]["state"][:] = 0
            rng.bit_generator.state = state
        out = generate_sequences(pst, 1, rngs[0])
        assert out == reference_generate(pst, 1, rngs[1]) == [["A"]]

    def test_cyclic_links_rejected_before_any_draw(self):
        alpha = Alphabet(("A",))
        a = alpha.id_of("A")
        nodes = [
            PstNode(id=0, predictor=(), children={a: 1}, hist=np.array([0.0, 1.0, 1.0])),
            PstNode(id=1, predictor=(a,), children={a: 0}, hist=np.array([0.0, 1.0, 1.0])),
        ]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InputDataError, match="root node 0 is listed as a child of node 1"):
            generate_sequences(Pst(nodes=nodes, alphabet=alpha, l_max=3), 5, rng)
        assert rng.bit_generator.state == before

    def test_concurrent_readers_share_one_model(self):
        data = truncate_sequences([list("ABCAB"), list("BCA"), list("CCAB"), list("ABAB")] * 30, 8)
        pst = build_private_pst(data, 8.0, np.random.default_rng(6))
        want = [reference_generate(pst, 200, np.random.default_rng(s)) for s in range(8)]
        fresh = Pst(nodes=pst.nodes, alphabet=pst.alphabet, l_max=pst.l_max)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(
                    lambda s: generate_sequences(fresh, 200, np.random.default_rng(s)),
                    range(8),
                    timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @given(pst=psts(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_estimates_and_top_k_bit_equal_reference_walks(self, pst, data):
        symbol = st.sampled_from(pst.alphabet.symbol_ids)
        queries = data.draw(st.lists(st.lists(symbol, min_size=1, max_size=pst.l_max + 2), max_size=10))
        for ids in queries:
            ids = ids + ([END_ID] if data.draw(st.booleans()) else [])
            assert repr(estimate_string_count(pst, ids)) == repr(reference_estimate(pst, ids))
        k = data.draw(st.integers(1, 60))
        assert repr(top_k_strings(pst, k)) == repr(reference_top_k(pst, k))


tokens = st.sampled_from(["A", "B", "C", "x", START_TOKEN, END_TOKEN, 7])


class TestTruncationEquivalence:
    @given(
        raw=st.lists(st.lists(tokens, max_size=9), max_size=8),
        l_max=st.integers(1, 7),
        given_alphabet=st.sampled_from([None, ("A", "B"), ("A", "B", "C", "x", "7")]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_dataset_or_same_error(self, raw, l_max, given_alphabet):
        alphabet = None if given_alphabet is None else Alphabet(given_alphabet)
        want = outcome(reference_truncate, raw, l_max, alphabet)
        got = outcome(truncate_sequences, raw, l_max, alphabet)
        if got[0] == "ok":
            d = got[1]
            got = ("ok", (d.alphabet.symbols, d.sequences, d.open_ended))
        assert got == want

    @given(
        seqs=st.lists(st.lists(st.integers(-1, 5), max_size=6), max_size=6),
        data=st.data(),
        l_max=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_dataset_validation_names_first_offending_sequence(self, seqs, data, l_max):
        alpha = Alphabet(("A", "B", "C"))
        opens = [data.draw(st.booleans()) for _ in seqs]
        want = outcome(reference_dataset_check, alpha, seqs, opens, l_max)
        got = outcome(markov.SequenceDataset, alpha, tuple(map(tuple, seqs)), tuple(opens), l_max)
        assert (got if got[0] == "error" else ("ok", None)) == want


# ---------------------------------------------------------------------------
# records stay arrays from truncation to the release
# ---------------------------------------------------------------------------


def refuse_tuples(monkeypatch):
    def refuse(self):
        raise AssertionError("a per-record tuple was built")

    for name in ("sequences", "open_ended"):
        monkeypatch.setattr(markov.SequenceDataset, name, property(refuse))


class TestDatasetArrays:
    def test_build_path_makes_no_record_tuples(self, monkeypatch, tmp_path):
        raw = short_records(500, 12)
        want = build_private_pst(truncate_sequences(raw, 8), 2.0, np.random.default_rng(3))
        refuse_tuples(monkeypatch)
        data = truncate_sequences(raw, 8)
        with pytest.raises(AssertionError, match="per-record tuple"):
            data.sequences
        assert_same_release(build_private_pst(data, 2.0, np.random.default_rng(3)), want)
        records = tmp_path / "seqs.txt"
        records.write_text("".join(" ".join(r) + "\n" for r in raw))
        out = tmp_path / "pst.json"
        res = CliRunner().invoke(main, [
            "seq-build", "--input", str(records), "--output", str(out), "--epsilon", "2.0",
            "--lmax", "8", "--alphabet", "a b c d",
        ])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["alphabet"] == ["a", "b", "c", "d"]

    @given(
        raw=st.lists(st.lists(st.sampled_from("ABC"), max_size=9), max_size=12),
        l_max=st.integers(1, 7),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=100, deadline=None)
    def test_constructor_holds_the_arrays_truncation_makes(self, raw, l_max, seed):
        alpha = Alphabet(("A", "B", "C"))
        data = truncate_sequences(raw, l_max, alpha)
        again = markov.SequenceDataset(alpha, data.sequences, data.open_ended, l_max)
        for name in ("ids", "lengths", "opens"):
            got, want = getattr(again, name), getattr(data, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert_same_release(
            build_private_pst(again, 8.0, np.random.default_rng(seed)),
            build_private_pst(data, 8.0, np.random.default_rng(seed)),
        )

    def test_records_file_skips_blank_and_comment_lines(self, tmp_path):
        text = "# head\n\nA B\n  # indented\t\n\t\nB #not a comment\n#A\nA\u3000C\nC"
        path = tmp_path / "seqs.txt"
        path.write_text(text, encoding="utf-8")
        want = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                want.append(line.split())
        assert markov.load_sequences(path) == want == [
            ["A", "B"], ["B", "#not", "a", "comment"], ["A", "C"], ["C"]
        ]

    def test_numpy_l_max_is_stored_as_an_int(self):
        data = markov.SequenceDataset(Alphabet(("A",)), [[2]], [False], np.int64(4))
        assert type(data.l_max) is int
        assert json.loads(build_private_pst(data, 1.0, noiseless=True).dumps())["l_max"] == 4

    def test_arrays_are_read_only(self, worked_example_data):
        for column in (worked_example_data.ids, worked_example_data.lengths,
                       worked_example_data.opens):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


# ---------------------------------------------------------------------------
# build memory follows the records, not l_max
# ---------------------------------------------------------------------------


def reference_positions(data):
    """The position matrix at full width, ``l_max + 1`` per row, whatever the records."""
    width = data.l_max + 1
    lens = np.fromiter(map(len, data.sequences), dtype=np.intp, count=data.n)
    closed = ~np.asarray(data.open_ended, dtype=bool)
    ids = np.full((data.n, width), START_ID, dtype=np.int32)
    ids[:, 1:][np.arange(width - 1) < lens[:, None]] = np.fromiter(
        itertools.chain.from_iterable(data.sequences), np.int32
    )
    ids[closed, lens[closed] + 1] = END_ID
    rows, offsets = np.nonzero(np.arange(width) < (lens + closed)[:, None])
    return ids.reshape(-1), rows * width + offsets


def short_records(n=3000, longest=29):
    rng = np.random.default_rng(40)
    return [list(rng.choice(list("abcd"), size=rng.integers(1, longest + 1))) for _ in range(n)]


class TestBuildMemory:
    @pytest.mark.parametrize("l_max", [5, 20, 2000])
    @pytest.mark.parametrize("epsilon", [1.0, 1e3])
    def test_same_release_as_full_width_positions(self, monkeypatch, l_max, epsilon):
        data = truncate_sequences(short_records(), l_max)
        got = build_private_pst(data, epsilon, np.random.default_rng(9))
        monkeypatch.setattr(markov, "_positions", reference_positions)
        assert_same_release(got, build_private_pst(data, epsilon, np.random.default_rng(9)))

    def test_peak_does_not_grow_with_l_max(self):
        data = truncate_sequences(short_records(), 20_000)
        tracemalloc.start()
        try:
            build_private_pst(data, 1.0, np.random.default_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
