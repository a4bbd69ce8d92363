"""The artifact schema: every builder's artifact reloads to its own bytes,
and a value of the wrong JSON type exits 2 with a message naming where it
is.  Likewise a sequence dataset holds symbol ids that are Python ints."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from dphier import markov, spatial
from dphier.cli import main
from dphier.dp_core import privtree_params
from dphier.errors import InputDataError, ParameterError

from conftest import random_dataset

SEEDS = [0, 1, 2]


def built_artifact(kind, seed):
    rng = np.random.default_rng(seed)
    if kind.startswith("pst"):
        raw = [list(rng.choice(list("abcd"), size=rng.integers(1, 12))) for _ in range(300)]
        data = markov.truncate_sequences(raw, 8, markov.Alphabet(tuple("abcd")))
        pst = markov.build_private_pst(data, 8.0, rng)
        if kind == "pst-no-hist":
            pst = markov.Pst(pst.alphabet, pst.l_max, split=pst.split,
                             params_info=pst.params_info)
        return pst
    data = random_dataset(rng, n=2000, d=4 if kind == "privtree-4d" else 2)
    if kind == "grid":
        return spatial.build_ug(data, 1.0, rng)
    if kind == "simple":
        tree = spatial.build_simple_tree(data, 4.0, 0.0, 5, rng)
    else:
        tree = spatial.build_privtree(data, privtree_params(1.0, 4), rng, dims_per_level=2)
    spatial.attach_noisy_counts(tree, data, 1.0, rng)
    return tree


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "kind", ["privtree-2d", "privtree-4d", "simple", "grid", "pst", "pst-no-hist"]
)
def test_every_artifact_reloads_to_its_bytes(tmp_path, kind, seed):
    artifact = built_artifact(kind, seed)
    path = tmp_path / "artifact.json"
    artifact.save(path)
    load = markov.load_pst if kind.startswith("pst") else spatial.load_tree
    assert load(path).dumps() == artifact.dumps()


def change(k, key, value):
    """A mutation setting ``key`` of node entry ``k``, or of the document
    when ``k`` is None; a callable ``value`` maps the old value to the new."""

    def mutate(doc):
        where = doc if k is None else doc["nodes"][k]
        where[key] = value(where[key]) if callable(value) else value

    return mutate


TREE_CASES = {
    "id written as a string": (change(1, "id", "1"), "node entry 1: field 'id'"),
    "child id with a fraction": (
        change(0, "children", lambda kids: [kids[0] + 0.9, *kids[1:]]),
        "node entry 0: field 'children'",
    ),
    "depth written as true": (change(1, "depth", True), "node entry 1: field 'depth'"),
    "depth below zero": (change(0, "depth", -1), "node 0: depth -1 is outside [0, "),
    "depth beyond int64": (change(1, "depth", 2**64), f"node 1: depth {2**64} is outside [0, "),
    "coordinates written as strings": (change(2, "lo", ["0", "0"]), "node entry 2: field 'lo'"),
    "count written as true": (
        change(3, "noisy_count", True), "node entry 3: field 'noisy_count'"
    ),
    "fanout written as a string": (change(None, "fanout", "4"), "fanout '4' has the wrong"),
    "fanout with a fraction": (change(None, "fanout", 4.7), "fanout 4.7 has the wrong"),
    "params as a list of pairs": (change(None, "params", [["epsilon", 1.0]]), "params [["),
}

PST_CASES = {
    "id written as a string": (change(0, "id", "0"), "node entry 0: a field is missing"),
    "child id with a fraction": (
        change(0, "children", lambda kids: {**kids, "A": kids["A"] + 0.9}), "node entry 0: a field"
    ),
    "count written as a string": (
        change(1, "hist", lambda hist: {**hist, "&": "1.5"}), "node entry 1: a field"
    ),
    "count written as true": (
        change(1, "hist", lambda hist: {**hist, "&": True}), "node entry 1: a field"
    ),
    "predictor written as a string": (change(2, "predictor", "A"), "node entry 2: a field"),
    "alphabet of numbers": (change(None, "alphabet", [1, 2]), "token 1 has the wrong"),
    "params as a list of pairs": (change(None, "params", [["epsilon", 1.0]]), "params [["),
    "nodes as a string": (change(None, "nodes", "ab"), "nodes 'ab' has the wrong"),
}


@pytest.fixture(scope="module")
def tree_doc():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n=600)
    tree = spatial.build_privtree(data, privtree_params(1.0, 4), rng)
    spatial.attach_noisy_counts(tree, data, 1.0, rng)
    return tree.dumps()


@pytest.fixture(scope="module")
def pst_doc():
    data = markov.truncate_sequences(["B", "AB", "AAB", "AAAB"], 10)
    return markov.build_private_pst(data, 1.0, noiseless=True).dumps()


def run_on(tmp_path, text, mutate, command, flag, *rest):
    """A command's result on the document ``text`` after ``mutate``, passed
    as the file after ``flag``."""
    doc = json.loads(text)
    mutate(doc)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    return CliRunner().invoke(main, [command, flag, str(path), *rest])


def range_query(tmp_path, text, mutate):
    workload = tmp_path / "workload.csv"
    workload.write_text("0.1,0.1,0.6,0.7\n")
    return run_on(tmp_path, text, mutate, "range-query", "--tree", "--workload", str(workload))


def seq_topk(tmp_path, text, mutate):
    return run_on(tmp_path, text, mutate, "seq-topk", "--pst", "--k", "3")


@pytest.mark.parametrize("case", TREE_CASES)
def test_loose_tree_value_is_input_error(tmp_path, tree_doc, case):
    mutate, message = TREE_CASES[case]
    res = range_query(tmp_path, tree_doc, mutate)
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("case", PST_CASES)
def test_loose_pst_value_is_input_error(tmp_path, pst_doc, case):
    mutate, message = PST_CASES[case]
    res = seq_topk(tmp_path, pst_doc, mutate)
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_clean_documents_load_through_the_commands(tmp_path, tree_doc, pst_doc):
    unchanged = change(None, "spare", None)  # extra keys are ignored
    for res in (range_query(tmp_path, tree_doc, unchanged), seq_topk(tmp_path, pst_doc, unchanged)):
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("bad", [2.7, 2.0, True, np.int64(2), "2"])
def test_dataset_ids_must_be_python_ints(bad):
    alphabet = markov.Alphabet(("A", "B"))
    ok = markov.SequenceDataset(alphabet, [[2, 3], (3,)], (False, False), 4)
    assert ok.sequences == ((2, 3), (3,))
    with pytest.raises(InputDataError, match="ids outside the alphabet"):
        markov.SequenceDataset(alphabet, [[2, 3], [3, bad]], (False, False), 4)
    with pytest.raises(InputDataError, match="exceeds the length cap"):  # the first record names it
        markov.SequenceDataset(alphabet, [[2, 3, 2, 3], [3, bad]], (False, False), 4)


# ---------------------------------------------------------------------------
# ids are relabelled to BFS order on load; node lists meet the same checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["privtree-2d", "grid", "simple", "pst"])
def test_permuted_ids_reload_to_the_written_bytes(tmp_path, kind, seed):
    artifact = built_artifact(kind, seed)
    doc = json.loads(artifact.dumps())
    nodes = doc["nodes"]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(nodes)).tolist()
    for entry in nodes:
        entry["id"] = perm[entry["id"]]
        if kind == "pst":
            entry["children"] = {tok: perm[c] for tok, c in reversed(entry["children"].items())}
        else:
            entry["children"] = [perm[c] for c in entry["children"]]
    doc["nodes"] = [nodes[k] for k in rng.permutation(len(nodes))]
    assert perm != sorted(perm)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    load = markov.load_pst if kind == "pst" else spatial.load_tree
    assert load(path).dumps() == artifact.dumps()


def tree_nodes(defect):
    node = spatial.TreeNode
    if defect == "dangling child":
        return [node(0, 0, (0.0,), (1.0,), children=[5], noisy_count=1.0)], 1
    if defect == "two-node cycle":
        return [node(0, 0, (0.0,), (1.0,), children=[1]),
                node(1, 1, (0.0,), (0.5,), children=[0], noisy_count=1.0)], 1
    return [node(0, 0, (0.0,), (1.0,), children=[1, 2]),
            node(1, 2, (0.0,), (0.5,), noisy_count=1.0),
            node(2, 1, (0.5,), (1.0,), noisy_count=1.0)], 2


def pst_nodes(defect):
    node, hist = markov.PstNode, np.array([0.0, 1.0, 1.0])
    a = markov.Alphabet(("A",)).id_of("A")
    if defect == "dangling child":
        return [node(0, (), children={a: 5}, hist=hist)]
    if defect == "two-node cycle":
        return [node(0, (), children={a: 1}, hist=hist), node(1, (a,), children={a: 0}, hist=hist)]
    return [node(0, (), children={markov.START_ID: 1, a: 2}, hist=hist),
            node(1, (markov.START_ID,), hist=hist), node(2, (a, a), hist=hist)]


NODE_LIST_DEFECTS = {
    "dangling child": "node 0 references an unknown child id",
    "two-node cycle": "root node 0 is listed as a child of node 1",
    "wrong depth": "is not one level below its parent 0",
}


@pytest.mark.parametrize("defect", NODE_LIST_DEFECTS)
def test_a_defective_node_list_is_refused_as_its_document_is(defect):
    nodes, fanout = tree_nodes(defect)
    with pytest.raises(InputDataError, match=NODE_LIST_DEFECTS[defect]):
        spatial.DecompTree(nodes, fanout)
    with pytest.raises(InputDataError, match=NODE_LIST_DEFECTS[defect]):
        markov.Pst(markov.Alphabet(("A",)), 3, nodes=pst_nodes(defect))


def test_node_lists_of_numpy_values_build_the_trees_of_their_python_copies():
    node, i64, f64 = spatial.TreeNode, np.int64, np.float64
    typed = [node(i64(0), i64(0), np.zeros(2), np.ones(2), children=[i64(1), i64(2)]),
             node(i64(1), i64(1), np.zeros(2), np.array([0.5, 1.0]), noisy_count=f64(1.5)),
             node(i64(2), i64(1), np.array([0.5, 0.0]), np.ones(2), noisy_count=i64(2))]
    plain = [node(0, 0, (0.0, 0.0), (1.0, 1.0), children=[1, 2]),
             node(1, 1, (0.0, 0.0), (0.5, 1.0), noisy_count=1.5),
             node(2, 1, (0.5, 0.0), (1.0, 1.0), noisy_count=2.0)]
    a, b = spatial.DecompTree(typed, i64(2)), spatial.DecompTree(plain, 2)
    assert spatial.trees_equal(a, b) and a.dumps() == b.dumps()

    alpha, hist = markov.Alphabet(("A",)), np.array([0.0, 1.0, 2.0])
    a_id, start = alpha.id_of("A"), markov.START_ID
    typed = [markov.PstNode(i64(0), (), {i64(start): i64(1), i64(a_id): i64(2)}, hist),
             markov.PstNode(i64(1), (i64(start),), hist=hist.astype(np.float32)),
             markov.PstNode(i64(2), (i64(a_id),), hist=list(hist))]
    plain = [markov.PstNode(0, (), {start: 1, a_id: 2}, hist),
             markov.PstNode(1, (start,), hist=hist), markov.PstNode(2, (a_id,), hist=hist)]
    a, b = markov.Pst(alpha, 3, nodes=typed), markov.Pst(alpha, 3, nodes=plain)
    assert a.dumps() == b.dumps()


def test_a_pst_node_with_a_partial_child_set_is_input_error(tmp_path):
    doc = {
        "alphabet": ["A", "B"], "l_max": 4,
        "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
        "nodes": [
            {"id": 0, "predictor": [], "children": {"$": 1, "A": 2}, "hist": {"&": 1.0, "A": 2.0}},
            {"id": 1, "predictor": ["$"], "children": {}, "hist": {"A": 1.0}},
            {"id": 2, "predictor": ["A"], "children": {}, "hist": {"&": 1.0, "A": 1.0}},
        ],
    }
    message = "node 0 has 2 children, but the PST's fanout is 3"
    res = seq_topk(tmp_path, json.dumps(doc), change(None, "spare", None))
    assert res.exit_code == 2 and message in res.output, res.output
    with pytest.raises(InputDataError, match=message):
        markov.pst_from_json_dict(doc)
    with pytest.raises(InputDataError, match=message):
        markov.Pst(markov.Alphabet(("A", "B")), 4, nodes=[
            markov.PstNode(0, (), children={0: 1, 2: 2}), markov.PstNode(1, (0,)),
            markov.PstNode(2, (2,)),
        ])


# ---------------------------------------------------------------------------
# orjson reads the documents; json defines what they hold
# ---------------------------------------------------------------------------


def load_through_json(path, loader):
    """What the loaders gave when ``json`` parsed every document."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"{path}: invalid JSON ({exc})") from exc
    return loader(doc)


def outcome(load, *args):
    try:
        artifact = load(*args)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)
    return artifact.dumps(), repr(artifact.params_info)


BIG = 2**70
TEXT_EDITS = {
    "NaN in params": ('"params": {', '"params": {"z": NaN, '),
    "Infinity in params": ('"params": {', '"params": {"z": -Infinity, '),
    "integer beyond 64 bits in params": ('"params": {', f'"params": {{"z": {BIG}, '),
    "integer below int64 in params": ('"params": {', f'"params": {{"z": {-(2**63) - 1}, '),
    "nested wide integer in params": ('"params": {', f'"params": {{"z": [{{"x": {BIG}}}], '),
    "wide float in params": ('"params": {', '"params": {"z": 1e19, '),
    "lone surrogate in params": ('"params": {', '"params": {"z": "\\ud800", '),
    "integer beyond 64 bits as a node id": ('"id": 1,', f'"id": {BIG},'),
    "duplicate key, last kept": ('"nodes": [', '"nodes": 5, "nodes": ['),
    "duplicate key, last refused": ('"params": {', '"params": 5, "params": {'),
    "NaN after a valid prefix": ('"id": 2,', '"id": NaN,'),
    "trailing text": (None, " x"),
}
TREE_EDITS = {
    "integer beyond 64 bits as a count": ('"noisy_count": ', f'"noisy_count": {BIG}, "x": '),
    "depth beyond int64": ('"depth": 1,', f'"depth": {2**64},'),
    "NaN count": ('"noisy_count": ', '"noisy_count": NaN, "x": '),
}
PST_EDITS = {
    "integer beyond 64 bits as a count": ('"&": ', f'"&": {BIG}, "x": '),
    "l_max beyond 64 bits": ('"l_max": 10', f'"l_max": {BIG}'),
}


@pytest.mark.parametrize(
    "kind, case",
    [(kind, case) for kind, edits in (("tree", TREE_EDITS), ("pst", PST_EDITS))
     for case in TEXT_EDITS | edits],
)
def test_documents_load_or_fail_exactly_as_through_json(tmp_path, tree_doc, pst_doc, kind, case):
    edits, clean = (TREE_EDITS, tree_doc) if kind == "tree" else (PST_EDITS, pst_doc)
    old, new = (TEXT_EDITS | edits)[case]
    text = clean + new if old is None else clean.replace(old, new, 1)
    assert text != clean
    path = tmp_path / "artifact.json"
    path.write_text(text, encoding="utf-8")
    load, loader = (
        (spatial.load_tree, spatial.tree_from_json_dict) if kind == "tree"
        else (markov.load_pst, markov.pst_from_json_dict)
    )
    assert outcome(load, path) == outcome(load_through_json, path, loader)


def test_clean_documents_skip_the_json_module(tmp_path, tree_doc, pst_doc, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json used")

    monkeypatch.setattr(json, "load", refuse)
    for text, load in ((tree_doc, spatial.load_tree), (pst_doc, markov.load_pst)):
        path = tmp_path / "artifact.json"
        path.write_text(text)
        assert load(path).dumps() == text


# ---------------------------------------------------------------------------
# constructors refuse what a document could not hold
# ---------------------------------------------------------------------------


def test_a_pst_node_after_the_start_marker_may_not_split(tmp_path):
    hist = {"&": 1.0, "A": 1.0}
    entries = [((), {"$": 1, "A": 2}), (("$",), {"$": 3, "A": 4}), (("A",), {}),
               (("$", "$"), {}), (("A", "$"), {})]
    doc = {
        "alphabet": ["A"], "l_max": 4, "params": {},
        "nodes": [{"id": i, "predictor": list(p), "children": c, "hist": hist}
                  for i, (p, c) in enumerate(entries)],
    }
    message = "node 1: its predictor starts with '$', so it may not split"
    with pytest.raises(InputDataError, match=re.escape(message)):
        markov.pst_from_json_dict(doc)
    res = seq_topk(tmp_path, json.dumps(doc), change(None, "spare", None))
    assert res.exit_code == 2 and message in res.output, res.output


def test_the_pst_columns_refuse_a_split_after_the_start_marker():
    alpha, hist = markov.Alphabet(("A", "B")), np.ones((7, 4))
    message = "node 1: its predictor starts with '$', so it may not split"
    with pytest.raises(ParameterError, match=re.escape(message)):
        markov.Pst(alpha, 4, split=[True, True] + [False] * 5, hist=hist)
    pst = markov.Pst(alpha, 4, split=[True, False, True] + [False] * 4, hist=hist)
    assert markov.pst_from_json_dict(json.loads(pst.dumps())).dumps() == pst.dumps()


def test_a_pst_mask_must_hold_the_nodes_it_implies():
    with pytest.raises(ParameterError, match="a split mask of 1 nodes implies 4"):
        markov.Pst(markov.Alphabet(("A", "B")), 4, split=[True])


def test_constructors_refuse_columns_of_another_node_count():
    with pytest.raises(ParameterError, match=re.escape("hist has shape (5, 3), but 1 nodes")):
        markov.Pst(markov.Alphabet(("A",)), 3, split=[False], hist=np.ones((5, 3)))
    with pytest.raises(ParameterError, match=re.escape("hist has shape (1, 4)")):
        markov.Pst(markov.Alphabet(("A",)), 3, split=[False], hist=np.ones((1, 4)))
    cols = spatial._Columns(np.zeros((3, 2)), np.ones((3, 2)), np.array([False]), np.zeros(3),
                            np.ones(3, dtype=bool))
    with pytest.raises(ParameterError, match=re.escape("shapes [(3, 2), (3, 2), (3,), (3,)]")):
        spatial.DecompTree(cols, 4)
    with pytest.raises(ParameterError, match="a split mask of 1 nodes"):
        spatial.DecompTree(cols._replace(hi=np.ones((1, 2))), 4)
    one = spatial.DecompTree(cols._replace(lo=np.zeros((1, 2)), hi=np.ones((1, 2)),
                                           count=np.zeros(1), has_count=np.ones(1, bool)), 4)
    assert one.n_nodes == 1
