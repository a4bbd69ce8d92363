"""Tests of the benchmark itself: every workload runs and passes its checks
at the tiny preset, and each checker rejects a deliberately corrupted output.

    PYTHONPATH=src python -m pytest bench -q
"""

import copy
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import make_inputs  # noqa: E402
import passes  # noqa: E402
import tracing  # noqa: E402

TINY = make_inputs.PRESETS["tiny"]
SEED = 3


def run_tiny(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace), "--preset", "tiny"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    return json.loads(out[-1]), out


@pytest.fixture(scope="module")
def workdirs():
    """Outputs of one tiny untraced run of every workload."""
    dirs = {}
    for workload in run.WORKLOADS:
        assert run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--preset", "tiny"]) == 0
        dirs[workload] = run.BENCH / "work" / f"{workload}-tiny"
    return dirs


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_checks(capsys, workload):
    result, out = run_tiny(capsys, workload)
    assert result["correct"], [line for line in out if line.startswith("CHECK FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    result, _ = run_tiny(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in tracing.PER_LAYER]


def test_tracing_restores_the_library():
    from dphier import dp_core, markov, spatial, svt_audit

    before = (spatial.sample_laplace, markov.sample_laplace, dp_core.sample_laplace,
              spatial.DecompTree.save, svt_audit.integrate)
    restore = tracing.install(tracing.Tracer())
    assert spatial.sample_laplace is not before[0] and markov.sample_laplace is spatial.sample_laplace
    restore()
    assert before == (spatial.sample_laplace, markov.sample_laplace, dp_core.sample_laplace,
                      spatial.DecompTree.save, svt_audit.integrate)


# ---------------------------------------------------------------------------
# corrupted outputs
# ---------------------------------------------------------------------------


def test_shifted_leaf_count_fails_the_noiseless_comparison(workdirs):
    wd = workdirs["spatial-release"]
    doc = checks.load_json(wd / "noiseless2.json")
    expected = checks.noiseless_privtree(np.load(wd / "points2.npy"), 2, 2, make_inputs.EPSILON / 2)
    assert checks.compare_noiseless(doc, expected, "noiseless") == []
    leaf = next(v for v in doc["nodes"] if not v["children"])
    leaf["noisy_count"] += 1.0
    assert checks.compare_noiseless(doc, expected, "noiseless")


def test_shifted_released_counts_fail_the_residual_check(workdirs):
    wd = workdirs["spatial-release"]
    pts = np.load(wd / "points2.npy")
    doc = checks.load_json(wd / "tree2.json")
    tree = checks.Tree(doc, 2, "privtree", 2)
    assert checks.released_residuals(tree, pts, 2.0, "tree2") == []
    for v in doc["nodes"]:
        if not v["children"]:
            v["noisy_count"] += 1.0
    assert checks.released_residuals(checks.Tree(doc, 2, "privtree", 2), pts, 2.0, "tree2")


def test_broken_tree_structure_is_rejected(workdirs):
    doc = checks.load_json(workdirs["spatial-release"] / "tree2.json")
    cycle = copy.deepcopy(doc)
    inner = next(v for v in cycle["nodes"] if v["children"] and v["depth"] > 0)
    inner["children"][0] = 0  # link back to the root
    assert checks.Tree(cycle, 2, "privtree", 2).fails
    leak = copy.deepcopy(doc)
    leak["nodes"][0]["exact_count"] = 1
    assert checks.Tree(leak, 2, "privtree", 2).fails
    skew = copy.deepcopy(doc)
    child = skew["nodes"][skew["nodes"][0]["children"][0]]
    child["hi"][0] += 1e-3
    assert checks.Tree(skew, 2, "privtree", 2).fails


def _query_case(wd, artifact="tree2"):
    report = checks.load_json(wd / f"report_{artifact}.json")
    tree = checks.load_json(wd / f"{artifact}.json")
    pts, boxes = np.load(wd / "points2.npy"), np.load(wd / "queries2.npy")
    return report, tree, pts, boxes, np.arange(len(boxes))


def test_answer_off_by_one_leaf_fails(workdirs):
    report, tree, pts, boxes, sample = _query_case(workdirs["spatial-query"])
    assert checks.check_query_report(report, tree, pts, boxes, 2, sample, "q")[0] == []
    leaf = next(v for v in tree["nodes"] if not v["children"] and abs(v["noisy_count"]) > 1)
    report["queries"][5]["estimate"] += leaf["noisy_count"]
    assert checks.check_query_report(report, tree, pts, boxes, 2, sample, "q")[0]


def test_wrong_exact_count_fails(workdirs):
    report, tree, pts, boxes, sample = _query_case(workdirs["spatial-query"], "grid2")
    report["queries"][7]["exact"] += 1
    assert checks.check_query_report(report, tree, pts, boxes, 2, sample, "q")[0]


def _sequence_model(wd):
    return checks.Pst(checks.load_json(wd / passes.pst_name(make_inputs.SEQ_EPSILONS[-1])))


def test_swapped_topk_entries_fail(workdirs):
    wd = workdirs["sequence"]
    rows, model = checks.load_json(wd / "topk.json"), _sequence_model(wd)
    assert checks.check_topk(rows, model, TINY.topk) == []
    i = next(i for i in range(len(rows) - 1) if rows[i]["estimate"] > rows[i + 1]["estimate"])
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    assert checks.check_topk(rows, model, TINY.topk)


def test_topk_missing_a_better_string_fails(workdirs):
    wd = workdirs["sequence"]
    rows, model = checks.load_json(wd / "topk.json"), _sequence_model(wd)
    del rows[0]
    listed = {tuple(r["string"]) for r in rows}
    filler = next(s for s in itertools.product(make_inputs.SYMBOLS, repeat=6) if s not in listed)
    rows.append({"string": list(filler), "estimate": model.estimate(filler)})
    assert any("beat" in f for f in checks.check_topk(rows, model, TINY.topk))
    rows[-1]["string"] = ["x"]
    assert checks.check_topk(rows, model, TINY.topk)


def test_noiseless_pst_mismatch_fails(workdirs):
    wd = workdirs["sequence"]
    with open(wd / "seqs.txt", encoding="utf-8") as fh:
        counts = checks.SuffixCounts(fh.readlines())
    doc = checks.load_json(wd / "pst_noiseless.json")
    eps = make_inputs.SEQ_EPSILONS[-1]
    assert checks.check_oracle(doc, counts, eps, "oracle") == []
    doc["nodes"][1]["hist"]["a"] += 1.0
    assert checks.check_oracle(doc, counts, eps, "oracle")


def test_bad_synthetic_output_fails(workdirs):
    wd = workdirs["sequence"]
    model = _sequence_model(wd)
    text = (wd / "synth.txt").read_text(encoding="utf-8")
    assert checks.check_synth(text, model, TINY.synth) == []
    assert checks.check_synth("z " + text, model, TINY.synth)
    lines = text.split("\n")
    assert checks.check_synth("\n".join(["a"] * len(lines)), model, TINY.synth)  # first symbols skewed


def test_flipped_verdict_fails(workdirs):
    wd = workdirs["audit"]
    point = passes.audit_plan(wd)[0]
    rows = checks.load_json(wd / f"{point['name']}.json")
    assert checks.check_audit_rows(rows, point["lambda"], point["k"], "audit") == []
    for variant in ("improved", "binary"):
        flipped = copy.deepcopy(rows)
        row = next(r for r in flipped if r["variant"] == variant)
        row["verdict"] = "SATISFIES" if row["verdict"] == "VIOLATES" else "VIOLATES"
        assert checks.check_audit_rows(flipped, point["lambda"], point["k"], "audit")


def test_one_query_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(0)
    lam, theta, v = 2.0, 1.0, 0.5
    hits = (v + rng.laplace(0, lam, 400_000) > theta + rng.laplace(0, lam, 400_000)).mean()
    assert abs(np.exp(checks.one_query_closed_form(v, 1, theta, lam)) - hits) < 0.005


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for wd in (a, b):
        wd.mkdir()
        make_inputs.setup_sequence(wd, 11, TINY)
    assert (a / "seqs.txt").read_bytes() == (b / "seqs.txt").read_bytes()
    make_inputs.setup_sequence(a, 12, TINY)
    assert (a / "seqs.txt").read_bytes() != (b / "seqs.txt").read_bytes()
    assert Path(a / "strings.txt").stat().st_size > 0
