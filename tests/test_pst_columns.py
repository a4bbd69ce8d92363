"""Column storage of a PST: the loader against the per-node reference it
replaced, node values as a view at the edges, and the document and argument
checks of the loader and the builder."""

import copy
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dphier import markov
from dphier.cli import main
from dphier.dp_core import check_tree_links
from dphier.errors import InputDataError, ParameterError
from dphier.markov import (
    Alphabet,
    END_ID,
    Pst,
    PstNode,
    START_TOKEN,
    build_private_pst,
    estimate_string_count,
    generate_sequences,
    longest_suffix_node,
    top_k_strings,
    truncate_sequences,
)

from conftest import assert_same_release, of_type


# ---------------------------------------------------------------------------
# column storage: the per-node loader and serializer kept as the reference
# ---------------------------------------------------------------------------


def reference_pst_dumps(doc):
    """``dumps()`` of a document read by the per-node loader and written by
    the per-node serializer that the column forms replaced.

    The loader is kept as it was, except for the checks marked "added":
    ``l_max`` must be an integer >= 1, no histogram may count the start
    marker, either every node carries a histogram or none does, and a
    ``params`` that is no mapping (``"ab"``) or a ``nodes`` without a length
    (``5``) is a malformed document.  Every value must have the JSON type
    of the format: ``alphabet`` a list of strings, ``params`` an object,
    ``nodes`` a list, ids and child ids integers, counts numbers and a
    predictor a list.  No child may be keyed by the end marker, every
    internal node has one child per symbol and the start marker, no node
    whose predictor starts with the start marker has children, and the
    nodes are relabelled to BFS order, children by symbol id.
    """
    try:
        tokens = of_type(doc["alphabet"], list, "alphabet")  # added: of_type
        alphabet = Alphabet(tuple(of_type(t, str, "token") for t in tokens))  # added: of_type
        l_max = doc["l_max"]
        if type(l_max) is not int or l_max < 1:  # added
            raise ParameterError(f"l_max must be an integer >= 1, got {l_max!r}")
        params_info = dict(of_type(doc["params"], dict, "params"))  # added: of_type
        raw_nodes = of_type(doc["nodes"], list, "nodes")  # added: of_type
        size = len(raw_nodes)  # added: inside the guard
    except (KeyError, TypeError, ValueError, ParameterError) as exc:  # added: ValueError
        raise InputDataError(f"malformed PST document: {exc}") from exc
    nodes = [None] * size
    for k, entry in enumerate(raw_nodes):
        try:
            nid = int(of_type(entry["id"], int, "id"))  # added: of_type
            if not 0 <= nid < size or nodes[nid] is not None:
                raise InputDataError(f"bad or duplicate node id {nid}")
            hist = None
            if "hist" in entry:
                hist = np.zeros(alphabet.size + 2, dtype=np.float64)
                for tok, cnt in entry["hist"].items():
                    hist[alphabet.id_of(tok)] = float(of_type(cnt, float, "count"))  # added: of_type
                    if tok == START_TOKEN:  # added
                        raise InputDataError(f"node {nid}: histogram has a {START_TOKEN!r} count")
                if not (np.isfinite(hist).all() and (hist >= 0.0).all()):
                    raise InputDataError(f"node {nid}: histogram counts must be finite and >= 0")
            children = {
                alphabet.id_of(tok): int(of_type(cid, int, "child id"))  # added: of_type
                for tok, cid in entry["children"].items()
            }
            if any(not 0 <= cid < size for cid in children.values()):
                raise InputDataError(f"node {nid} references an unknown child id")
            if END_ID in children:  # added
                raise InputDataError(f"node {nid} has a child under the end marker '&'")
            predictor = of_type(entry["predictor"], list, "predictor")  # added: of_type
            nodes[nid] = PstNode(
                id=nid,
                predictor=tuple(alphabet.id_of(t) for t in predictor),
                children=children,
                hist=hist,
            )
        except InputDataError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise InputDataError(
                f"node entry {k}: a field is missing or malformed ({type(exc).__name__}: {exc})"
            ) from exc
    bare = [v.id for v in nodes if v.hist is None]  # added
    if 0 < len(bare) < size:
        raise InputDataError(f"node {bare[0]} has no histogram, but other nodes have one")
    root = next((v.id for v in nodes if v is not None and not v.predictor), None)
    if root is None:
        raise InputDataError("PST document has no empty-predictor root")
    links = np.array(
        [
            (v.id, c, nodes[c].predictor == (sym,) + v.predictor)
            for v in nodes
            for sym, c in v.children.items()
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    check_tree_links(size, root, links[:, 0], links[:, 1], links[:, 2] == 1)
    fanout = alphabet.fanout
    for v in nodes:  # added
        if v.children and len(v.children) != fanout:
            raise InputDataError(
                f"node {v.id} has {len(v.children)} children, but the PST's fanout is {fanout}"
            )
    for v in nodes:  # added
        if v.children and v.predictor[:1] == (markov.START_ID,):
            raise InputDataError(
                f"node {v.id}: its predictor starts with {START_TOKEN!r}, so it may not split"
            )
    bfs = [root]  # added: the relabelling to BFS order
    for nid in bfs:
        bfs.extend(cid for _, cid in sorted(nodes[nid].children.items()))
    new = {old: k for k, old in enumerate(bfs)}
    out_nodes = []
    for k, v in enumerate(nodes[old] for old in bfs):
        entry = {
            "id": k,  # added: the BFS id
            "predictor": [alphabet.token_of(t) for t in v.predictor],
            "children": {
                alphabet.token_of(sym): new[cid] for sym, cid in sorted(v.children.items())
            },
        }
        if v.hist is not None:
            entry["hist"] = {
                alphabet.token_of(sym): float(v.hist[sym])
                for sym in (END_ID, *alphabet.symbol_ids)
            }
        out_nodes.append(entry)
    keys = ("epsilon", "lambda", "theta", "delta")
    return json.dumps(
        {
            "alphabet": list(alphabet.symbols),
            "l_max": l_max,
            "params": {k: params_info.get(k) for k in keys},
            "nodes": out_nodes,
        },
        sort_keys=True,
    )


TOKENS = ["$", "&", "A", "B", "C", "Z"]
ODD_VALUES = [None, "x", "2", 1.5, True, [], {}, -1, 0, 1, 10**6]


def _mutate_top(draw, doc):
    key = draw(st.sampled_from(["alphabet", "l_max", "params", "nodes"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    elif key == "l_max":
        doc[key] = draw(st.sampled_from([0, -3, 2.7, True, False, "5", None, 3.0, 1, 2, 7]))
    elif key == "params":
        doc[key] = draw(st.sampled_from([None, [], "ab", {"epsilon": 2.0}]))
    elif key == "alphabet":
        doc[key] = draw(st.sampled_from([["A", "B", "C"], ["C", "A"], [], ["A", "A"], ["$"]]))
    elif key == "nodes":
        doc[key] = draw(st.sampled_from([5, None, 2.5, "ab"]))


def _mutate_entry(draw, doc):
    nodes = doc["nodes"]
    k = draw(st.integers(0, len(nodes) - 1))
    entry = nodes[k]
    what = draw(st.sampled_from(["id", "drop", "child", "unlink", "count", "predictor", "entry", "field"]))
    if what == "id":
        entry["id"] = draw(st.sampled_from([-1, len(nodes), len(nodes) + 3, "x", None, 0.5, "1"])
                           | st.integers(0, len(nodes) - 1))
    elif what == "drop":
        entry.pop(draw(st.sampled_from(["id", "predictor", "children", "hist"])), None)
    elif what == "child" and isinstance(entry.get("children"), dict):
        value = draw(st.sampled_from([-1, len(nodes), 2.5, "x", None]) | st.integers(0, len(nodes) - 1))
        entry["children"][draw(st.sampled_from(TOKENS))] = value
    elif what == "unlink" and isinstance(entry.get("children"), dict) and entry["children"]:
        del entry["children"][draw(st.sampled_from(sorted(entry["children"])))]
    elif what == "count" and isinstance(entry.get("hist"), dict):
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 2.5, "1", None, 10**400]))
        entry["hist"][draw(st.sampled_from(TOKENS))] = value
    elif what == "predictor":
        entry["predictor"] = draw(st.lists(st.sampled_from(TOKENS), max_size=3))
    elif what == "entry":
        nodes[k] = draw(st.sampled_from([None, [], "x", 3, {}]))
    elif what == "field":
        key = draw(st.sampled_from(["predictor", "children", "hist"]))
        entry[key] = draw(st.sampled_from(ODD_VALUES))


@st.composite
def pst_documents(draw):
    """A released PST's document, possibly mutated and shuffled."""
    raw = draw(st.lists(st.lists(st.sampled_from("ABC"), min_size=1, max_size=6), min_size=1, max_size=15))
    # an alphabet whose id order differs from the token order of sorted keys
    data = truncate_sequences(raw, 6, Alphabet(("C", "A", "B")))
    epsilon = draw(st.sampled_from([1.0, 50.0]))
    if draw(st.booleans()):
        pst = build_private_pst(data, epsilon, noiseless=True)
    else:
        pst = build_private_pst(data, epsilon, np.random.default_rng(draw(st.integers(0, 99))))
    doc = pst.to_json_dict()
    if draw(st.booleans()):
        for entry in doc["nodes"]:
            del entry["hist"]
    for _ in range(draw(st.integers(0, 3))):
        mutate = draw(st.sampled_from([_mutate_entry, _mutate_entry, _mutate_entry, _mutate_top]))
        if isinstance(doc.get("nodes"), list) and doc["nodes"] and all(
            isinstance(e, dict) for e in doc["nodes"]
        ):
            mutate(draw, doc)
    if isinstance(doc.get("nodes"), list) and draw(st.booleans()):
        doc["nodes"] = draw(st.permutations(doc["nodes"]))
    for entry in doc["nodes"] if isinstance(doc.get("nodes"), list) else ():
        # children listed in another order than the sorted keys of a dump
        if isinstance(entry, dict) and isinstance(entry.get("children"), dict) and draw(st.booleans()):
            entry["children"] = dict(reversed(list(entry["children"].items())))
    return doc


def load_outcome(load, doc):
    """A loader's released document, or its error class and message."""
    try:
        return ("ok", load(copy.deepcopy(doc)))
    except Exception as exc:  # the class is part of what is compared
        return ("error", type(exc), str(exc))


class TestColumnStorage:
    @given(doc=pst_documents())
    @settings(max_examples=400, deadline=None)
    def test_loader_matches_per_node_reference(self, doc):
        got = load_outcome(lambda d: markov.pst_from_json_dict(d).dumps(), doc)
        assert got == load_outcome(reference_pst_dumps, doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["nodes"][1].update(id=99), "bad or duplicate node id 99"),
            (lambda d: d["nodes"][1].update(id=0), "bad or duplicate node id 0"),
            (lambda d: d["nodes"][0]["children"].update(A=99), "node 0 references an unknown child id"),
            (lambda d: d["nodes"][1]["hist"].update({"&": math.nan}), "node 1: histogram counts must be"),
            (lambda d: d["nodes"][1]["hist"].update(A=-1.0), "node 1: histogram counts must be"),
            (lambda d: d["nodes"][1]["hist"].update(Z=1.0), "unknown symbol 'Z'"),
            (lambda d: d["nodes"][1].pop("children"), "node entry 1: a field is missing or malformed"),
            (lambda d: d["nodes"][1].update(predictor=["B"]), "node 1 is not one level below its parent 0"),
            (lambda d: d["nodes"][1].update(children={"A": 0}), "root node 0 is listed as a child of node 1"),
            (lambda d: d["nodes"][0].update(predictor=["A"]), "no empty-predictor root"),
            (lambda d: d["nodes"][1]["hist"].update({"$": 1.0}), "node 1: histogram has a '$' count"),
            (lambda d: d["nodes"][3].pop("hist"), "node 3 has no histogram, but other nodes have one"),
            (lambda d: d.update(l_max=2.7), "l_max must be an integer >= 1, got 2.7"),
        ],
    )
    def test_each_defect_gives_the_reference_error(self, worked_example_data, mutate, message):
        doc = build_private_pst(worked_example_data, 1.0, noiseless=True).to_json_dict()
        assert [e["predictor"] for e in doc["nodes"][:4]] == [[], ["$"], ["A"], ["B"]]
        mutate(doc)
        got = load_outcome(lambda d: markov.pst_from_json_dict(d).dumps(), doc)
        assert got == load_outcome(reference_pst_dumps, doc)
        assert got[:2] == ("error", InputDataError) and message in got[2]

    def test_no_node_values_on_any_path(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a PstNode was built")

        monkeypatch.setattr(markov, "PstNode", refuse)
        raw = [list("ABCAB"), list("BCA"), list("CCAB"), list("ABABAB")] * 10
        pst = build_private_pst(truncate_sequences(raw, 8), 4.0, np.random.default_rng(3))
        clone = markov.pst_from_json_dict(json.loads(pst.dumps()))
        assert clone.dumps() == pst.dumps()
        assert estimate_string_count(clone, ["A", "B"]) == estimate_string_count(pst, ["A", "B"])
        assert top_k_strings(clone, 20) == top_k_strings(pst, 20)
        assert generate_sequences(clone, 50, np.random.default_rng(1)) == generate_sequences(
            pst, 50, np.random.default_rng(1)
        )
        assert longest_suffix_node(clone, [START_TOKEN, "A"]) == longest_suffix_node(
            pst, [START_TOKEN, "A"]
        )
        runner = CliRunner()
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("\n".join(" ".join(s) for s in raw) + "\n")
        model = tmp_path / "pst.json"
        for args in (
            ["seq-build", "--input", str(seqs), "--output", str(model), "--epsilon", "4", "--lmax", "8"],
            ["seq-topk", "--pst", str(model), "--k", "5"],
            ["seq-synth", "--pst", str(model), "--count", "20"],
        ):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("seed", [0, 1])
    def test_node_values_give_back_the_same_release(self, seed):
        raw = [list("ABCAB"), list("BCA"), list("CCAB"), list("ABABAB")] * 30
        pst = build_private_pst(truncate_sequences(raw, 8), 60.0, np.random.default_rng(seed))
        again = Pst(
            nodes=pst.nodes, alphabet=pst.alphabet, l_max=pst.l_max, params_info=pst.params_info
        )
        assert len(pst.preds) > 1 + pst.alphabet.fanout
        assert_same_release(again, pst)

    def test_node_values_view_the_histogram_matrix(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 1.0, noiseless=True)
        node = pst.node(pst.root)
        assert node.hist.base is not None and np.shares_memory(node.hist, pst.hist)
        assert node.children == {
            sym: int(c) for sym, c in enumerate(pst.child[pst.root]) if c >= 0
        }


# ---------------------------------------------------------------------------
# loader and builder argument checks
# ---------------------------------------------------------------------------


def one_node_document(**hist):
    return {
        "alphabet": ["A", "B"],
        "l_max": 4,
        "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
        "nodes": [{"id": 0, "predictor": [], "children": {}, "hist": {"&": 4.0, "A": 6.0, "B": 4.0, **hist}}],
    }


class TestDocumentChecks:
    @pytest.mark.parametrize("l_max", [0, -3, 2.7, True, 3.0, "4", None])
    def test_l_max_must_be_an_integer_of_at_least_one(self, l_max):
        doc = one_node_document()
        doc["l_max"] = l_max
        with pytest.raises(InputDataError, match="l_max must be an integer >= 1"):
            markov.pst_from_json_dict(doc)

    def test_l_max_of_one_loads(self):
        doc = one_node_document()
        doc["l_max"] = 1
        assert markov.pst_from_json_dict(doc).l_max == 1

    def test_numpy_l_max_writes_a_loadable_integer(self):
        root = PstNode(id=0, predictor=(), hist=np.array([0.0, 4.0, 6.0, 4.0]))
        text = Pst(Alphabet(("A", "B")), np.int64(3), nodes=[root]).dumps()
        assert json.loads(text)["l_max"] == 3
        assert markov.pst_from_json_dict(json.loads(text)).l_max == 3

    @pytest.mark.parametrize("l_max", [3.5, 0])
    def test_constructor_rejects_an_l_max_the_loader_rejects(self, l_max):
        with pytest.raises(ParameterError, match="l_max must be an integer >= 1"):
            Pst(Alphabet(("A", "B")), l_max, nodes=[PstNode(id=0, predictor=())])

    def test_start_marker_count_rejected(self):
        doc = one_node_document()
        clean = markov.pst_from_json_dict(doc)
        assert estimate_string_count(clean, ["A", "B"]) == pytest.approx(6.0 * 4.0 / 14.0)
        doc["nodes"][0]["hist"][START_TOKEN] = 1e6
        with pytest.raises(InputDataError, match=r"node 0: histogram has a '\$' count"):
            markov.pst_from_json_dict(doc)

    def test_histograms_on_only_some_nodes_rejected(self, worked_example_data):
        doc = build_private_pst(worked_example_data, 1.0, noiseless=True).to_json_dict()
        assert len(doc["nodes"]) > 2
        del doc["nodes"][2]["hist"]
        with pytest.raises(InputDataError, match="node 2 has no histogram, but other nodes have one"):
            markov.pst_from_json_dict(doc)
        for entry in doc["nodes"]:
            entry.pop("hist", None)
        assert markov.pst_from_json_dict(doc).hist is None

    @pytest.mark.parametrize("depth_cap", [-1, -3])
    def test_negative_depth_cap_rejected(self, worked_example_data, depth_cap):
        with pytest.raises(ParameterError, match="depth_cap must be nonnegative"):
            build_private_pst(worked_example_data, 1.0, noiseless=True, depth_cap=depth_cap)

    def test_depth_cap_zero_builds_the_root_alone(self, worked_example_data):
        pst = build_private_pst(worked_example_data, 100.0, noiseless=True, depth_cap=0)
        assert pst.preds == [()]


class TestCommandExitCodes:
    def test_seq_build_negative_depth_cap_is_config_error(self, tmp_path):
        seqs, out = tmp_path / "seqs.txt", tmp_path / "pst.json"
        seqs.write_text("B\nA B\nA A B\n")
        res = CliRunner().invoke(main, [
            "seq-build", "--input", str(seqs), "--output", str(out),
            "--epsilon", "1", "--lmax", "5", "--depth-cap", "-3",
        ])
        assert res.exit_code == 1
        assert "depth_cap must be nonnegative" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [["seq-topk", "--k", "1"], ["seq-synth", "--count", "1"]])
    @pytest.mark.parametrize("change, message", [
        ({"l_max": 0}, "l_max must be an integer >= 1"),
        ({"l_max": -3}, "l_max must be an integer >= 1"),
        ({"l_max": 2.7}, "l_max must be an integer >= 1"),
        ({"l_max": True}, "l_max must be an integer >= 1"),
        ({"hist": {"$": 1e6}}, "node 0: histogram has a '$' count"),
        ({"params": "ab"}, "malformed PST document"),
        ({"params": [1, 2]}, "malformed PST document"),
        ({"nodes": 5}, "malformed PST document"),
    ])
    def test_bad_document_is_input_error(self, tmp_path, command, change, message):
        doc = one_node_document(**change.get("hist", {}))
        doc.update({k: v for k, v in change.items() if k != "hist"})
        path = tmp_path / "pst.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, [command[0], "--pst", str(path), *command[1:]])
        assert res.exit_code == 2
        assert message in res.output
