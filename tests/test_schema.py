"""The artifact schema: every builder's artifact reloads to its own bytes,
and a value of the wrong JSON type exits 2 with a message naming where it
is.  Likewise a sequence dataset holds symbol ids that are Python ints."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from dphier import markov, spatial
from dphier.cli import main
from dphier.dp_core import privtree_params
from dphier.errors import InputDataError

from conftest import random_dataset

SEEDS = [0, 1, 2]


def built_artifact(kind, seed):
    rng = np.random.default_rng(seed)
    if kind.startswith("pst"):
        raw = [list(rng.choice(list("abcd"), size=rng.integers(1, 12))) for _ in range(300)]
        data = markov.truncate_sequences(raw, 8, markov.Alphabet(tuple("abcd")))
        pst = markov.build_private_pst(data, 8.0, rng)
        if kind == "pst-no-hist":
            pst = markov.Pst(pst.alphabet, pst.l_max, preds=pst.preds, child=pst.child,
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
