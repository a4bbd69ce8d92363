"""The text writers of the tree, PST and range-query documents against the
``json.dumps`` of the per-node dicts they replaced, and the import cost of
commands that run no audit."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dphier
from dphier import dp_core, evalbench, spatial
from dphier.cli import main
from dphier.dp_core import float_texts, privtree_params
from dphier.markov import Alphabet, END_TOKEN, START_TOKEN, Pst, build_private_pst
from dphier.markov import truncate_sequences
from dphier.spatial import DecompTree, SpatialDataset, TreeNode

from conftest import random_dataset

HAND_MADE = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1e22, 0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308]
NONNEGATIVE = [v for v in HAND_MADE if 0.0 <= v < 1e300] + [math.inf, math.nan]


# ---------------------------------------------------------------------------
# the per-node dicts that the writers replaced, kept as the reference
# ---------------------------------------------------------------------------


def reference_tree_doc(tree):
    cols = tree._cols
    lo, hi, count = cols.lo.tolist(), cols.hi.tolist(), cols.count.tolist()
    out_nodes = [
        {"id": i, "depth": 0, "lo": lo_i, "hi": hi_i, "children": []}
        for i, (lo_i, hi_i) in enumerate(zip(lo, hi))
    ]
    # BFS ids: the s-th splitting node's children are 1 + s * fanout + code
    for s, i in enumerate(np.flatnonzero(cols.split).tolist()):
        kids = list(range(1 + s * tree.fanout, 1 + (s + 1) * tree.fanout))
        out_nodes[i]["children"] = kids
        for c in kids:
            out_nodes[c]["depth"] = out_nodes[i]["depth"] + 1
    for i in np.flatnonzero(cols.has_count).tolist():
        out_nodes[i]["noisy_count"] = count[i]
    keys = ("epsilon", "lambda", "theta", "delta")
    return {
        "fanout": tree.fanout,
        "params": {k: tree.params_info.get(k) for k in keys},
        "nodes": out_nodes,
    }


def reference_report_doc(report):
    return {
        "label": report.label,
        "delta": report.delta,
        "aggregates": report.aggregates,
        "queries": [
            {"estimate": float(a), "exact": float(b), "rel_error": float(r)}
            for a, b, r in zip(report.estimates, report.exacts, report.rel_errors)
        ],
    }


def reference_pst_doc(pst):
    token = (START_TOKEN, END_TOKEN, *pst.alphabet.symbols)
    out_nodes = [
        {"id": i, "predictor": [token[t] for t in pred], "children": {}}
        for i, pred in enumerate(pst.preds)
    ]
    rows, syms = np.nonzero(pst.child >= 0)
    for i, sym, c in zip(rows.tolist(), syms.tolist(), pst.child[rows, syms].tolist()):
        out_nodes[i]["children"][token[sym]] = c
    if pst.hist is not None:
        for entry, row in zip(out_nodes, pst.hist[:, 1:].tolist()):
            entry["hist"] = dict(zip(token[1:], row))
    return {
        "alphabet": list(pst.alphabet.symbols),
        "l_max": pst.l_max,
        "params": {k: pst.params_info.get(k) for k in ("epsilon", "lambda", "theta", "delta")},
        "nodes": out_nodes,
    }


def assert_writes_reference(obj, reference):
    """Equal text and dict; a failure shows where the texts part, because
    pytest's diff of two whole documents takes minutes."""
    doc = reference(obj)
    got, want = obj.dumps(), json.dumps(doc, sort_keys=True)
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts part at {at}: {got[at - 60 : at + 40]!r} != {want[at - 60 : at + 40]!r}")
    assert obj.to_json_dict() == json.loads(want)


# ---------------------------------------------------------------------------
# float text
# ---------------------------------------------------------------------------


class TestFloatTexts:
    @given(st.lists(st.floats() | st.sampled_from(HAND_MADE + [math.nan, -math.inf]), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_each_value_as_json_writes_it(self, values):
        assert float_texts(np.array(values, dtype=np.float64)).tolist() == [
            json.dumps(v) for v in values
        ]

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern_as_json_writes_it(self, patterns):
        values = np.array(patterns, dtype=np.int64).view(np.float64)
        assert float_texts(values).tolist() == [json.dumps(v) for v in values.tolist()]

    def test_values_at_the_notation_boundaries_as_json_writes_them(self):
        # repr turns positional at 1e-4 and scientific at 1e16; orjson's
        # notation differs just outside that range
        ulps = np.arange(-64, 65)
        around = []
        for k in range(-5, 18):
            bits = np.array([float(f"1e{k}")]).view(np.int64)
            around.append((bits + ulps).view(np.float64))
        values = np.concatenate(around)
        tiny = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), math.nan,
                            math.inf, -math.inf, np.finfo(np.float64).max])
        values = np.concatenate([values, -values, special, -special])
        assert float_texts(values).tolist() == [json.dumps(v) for v in values.tolist()]

    def test_an_exponent_from_orjson_falls_back_to_json(self, monkeypatch):
        # values in [1e-4, 1e16) take orjson's text unless it holds an "e"
        def dumps(values):
            return ("[" + ",".join("1e-4" if v == 1e-4 else repr(v) for v in values) + "]").encode()

        monkeypatch.setattr(dp_core.orjson, "dumps", dumps)
        values = np.array([1e-4, 0.5, 1e-4])
        assert float_texts(values).tolist() == ["0.0001", "0.5", "0.0001"]

    def test_keeps_the_shape_and_tells_signed_zeros_apart(self):
        got = float_texts(np.array([[-0.0, 0.0], [math.inf, 0.0]]))
        assert got.shape == (2, 2)
        assert got.tolist() == [["-0.0", "0.0"], ["Infinity", "0.0"]]
        assert float_texts(np.zeros((0, 3))).shape == (0, 3)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def built_tree(kind, seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, d=4 if kind == "privtree4" else 2)
    if kind == "grid":
        return spatial.build_ug(data, 1.0, rng)
    if kind == "simple":
        tree = spatial.build_simple_tree(data, 2.0, 0.0, 4, rng)
    else:
        params = privtree_params(2.0, 4)
        tree = spatial.build_privtree(data, params, rng, dims_per_level=2)
    if rng.random() < 0.7:
        spatial.attach_noisy_counts(tree, data, 1.0, rng)
    return tree


class TestTreeWriter:
    @given(
        kind=st.sampled_from(["privtree2", "privtree4", "simple", "grid"]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_built_trees(self, kind, seed):
        tree = built_tree(kind, seed)
        assert_writes_reference(tree, reference_tree_doc)
        # the same tree loaded back, and as a node list
        assert_writes_reference(spatial.tree_from_json_dict(tree.to_json_dict()), reference_tree_doc)
        assert_writes_reference(DecompTree(tree.nodes, tree.fanout, tree.params_info), reference_tree_doc)

    @given(
        values=st.lists(st.sampled_from(HAND_MADE) | st.floats(), min_size=12, max_size=12),
        counts=st.lists(
            st.none() | st.sampled_from(HAND_MADE + [math.nan, math.inf]) | st.floats(),
            min_size=3, max_size=3,
        ),
        params=st.sampled_from([{}, {"epsilon": 1e22, "theta": -0.0, "lambda": 5e-324}]),
    )
    @settings(max_examples=200, deadline=None)
    def test_column_trees_with_hand_made_values(self, values, counts, params):
        # columns, since a node list meets the loader's checks, which refuse
        # most of these values
        box = np.array(values).reshape(3, 2, 2)
        cols = spatial._Columns(
            lo=box[:, 0], hi=box[:, 1], split=np.array([True, False, False]),
            count=np.array([0.0 if c is None else c for c in counts]),
            has_count=np.array([c is not None for c in counts]),
        )
        assert_writes_reference(DecompTree(cols, 2, params), reference_tree_doc)

    def test_hand_made_values_are_written_as_json_writes_them(self):
        nodes = [TreeNode(id=0, depth=0, lo=(-0.0, 1e-7), hi=(1e16, 1e22), noisy_count=5e-324)]
        text = DecompTree(nodes, 4).dumps()
        assert '"hi": [1e+16, 1e+22]' in text and '"lo": [-0.0, 1e-07]' in text
        assert '"noisy_count": 5e-324' in text


# ---------------------------------------------------------------------------
# PSTs
# ---------------------------------------------------------------------------

# id order differs from token order; a quote, a backslash, a percent sign and
# non-ASCII tokens must be escaped as json.dumps escapes them
ODD_ALPHABET = Alphabet(("z", '"', "é", "%", "A", "\\", "日本"))


class TestPstWriter:
    @given(
        raw=st.lists(
            st.lists(st.sampled_from(ODD_ALPHABET.symbols), min_size=1, max_size=6),
            min_size=1, max_size=20,
        ),
        epsilon=st.sampled_from([1.0, 20.0, 200.0]),
        seed=st.integers(0, 99),
        histograms=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_built_psts(self, raw, epsilon, seed, histograms):
        data = truncate_sequences(raw, 6, ODD_ALPHABET)
        pst = build_private_pst(data, epsilon, np.random.default_rng(seed))
        if not histograms:
            pst.hist = None
        assert_writes_reference(pst, reference_pst_doc)
        again = Pst(ODD_ALPHABET, pst.l_max, nodes=pst.nodes, params_info=pst.params_info)
        assert again.dumps() == pst.dumps()

    def test_hand_made_histogram_values(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        pst.hist = np.resize(np.array(HAND_MADE), pst.hist.shape)
        assert_writes_reference(pst, reference_pst_doc)


# ---------------------------------------------------------------------------
# the range-query report
# ---------------------------------------------------------------------------


class TestReportWriter:
    @given(
        rows=st.lists(
            st.tuples(
                st.floats() | st.sampled_from(HAND_MADE),
                st.floats() | st.sampled_from(HAND_MADE),
                # small enough that the mean of two does not overflow
                st.floats(min_value=0.0, max_value=1e300) | st.sampled_from(NONNEGATIVE),
            ),
            max_size=12,
        ),
        label=st.sampled_from(["", "tree2.json", 'odd "é" label']),
    )
    @settings(max_examples=200, deadline=None)
    def test_report_is_the_indented_json_dump(self, rows, label):
        cols = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        report = evalbench.EvalReport(*cols, delta=0.5, label=label)
        want = json.dumps(reference_report_doc(report), sort_keys=True, indent=2)
        assert report.dumps() == want
        assert json.dumps(report.to_json_dict(), sort_keys=True, indent=2) == want

    def test_empty_workload(self):
        report = evalbench.EvalReport([], [], [], delta=1.0)
        assert report.dumps().endswith('"queries": []\n}')
        want = json.dumps(reference_report_doc(report), sort_keys=True, indent=2)
        assert report.dumps() == want

    def test_cli_writes_the_report(self, tmp_path):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, n=300)
        tree = spatial.build_privtree(data, privtree_params(1.0, 4), rng)
        spatial.attach_noisy_counts(tree, data, 1.0, rng)
        tree_path, wl, pts, out = (tmp_path / f for f in ("t.json", "wl.csv", "p.csv", "r.json"))
        tree.save(tree_path)
        np.savetxt(pts, data.points, delimiter=",")
        wl.write_text("0.1,0.1,0.6,0.7\n0.0,0.2,0.9,0.4\n")
        res = CliRunner().invoke(main, ["range-query", "--tree", str(tree_path), "--workload",
                                        str(wl), "--data", str(pts), "--output", str(out)])
        assert res.exit_code == 0, res.output
        loaded = spatial.load_tree(tree_path)
        queries = spatial.load_workload_csv(wl, 2)
        report = evalbench.evaluate_queries(
            loaded, SpatialDataset(loaded.domain, spatial.load_points_csv(pts)), queries,
            label="t.json",
        )
        want = json.dumps(reference_report_doc(report), sort_keys=True, indent=2)
        assert out.read_text() == want + "\n"


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_out_until_the_audit_module_is_used():
    code = (
        "import sys, dphier.cli, dphier\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
        "audit = dphier.svt_audit\n"
        "assert 'scipy.integrate' in sys.modules and audit.integrate.quad\n"
        "from dphier import svt_audit\n"
        "assert svt_audit is audit\n"
    )
    src = str(Path(dphier.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        dphier.nope  # noqa: B018
