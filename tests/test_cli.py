import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dphier import cli, svt_audit
from dphier.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def points_csv(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.random((1500, 2))
    path = tmp_path / "points.csv"
    lines = ["# x,y"] + [f"{x},{y}" for x, y in pts]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def sequences_txt(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("# worked example\nB\nA B\nA A B\nA A A B\n")
    return path


def build_tree(runner, tmp_path, points_csv, *extra):
    out = tmp_path / "tree.json"
    args = [
        "spatial-build",
        "--input", str(points_csv),
        "--output", str(out),
        "--epsilon", "1.0",
        "--domain-lo", "0,0",
        "--domain-hi", "1,1",
        "--seed", "3",
        *extra,
    ]
    res = runner.invoke(main, args)
    return res, out


class TestSpatialBuild:
    def test_success_exit_zero(self, runner, tmp_path, points_csv):
        res, out = build_tree(runner, tmp_path, points_csv)
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert set(doc) == {"fanout", "params", "nodes"}
        assert "exact" not in out.read_text()

    def test_nonpositive_epsilon_is_config_error(self, runner, tmp_path, points_csv):
        res = runner.invoke(
            main,
            [
                "spatial-build",
                "--input", str(points_csv),
                "--output", str(tmp_path / "t.json"),
                "--epsilon", "0.0",
            ],
        )
        assert res.exit_code == 1

    def test_malformed_csv_is_input_error_with_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2\nnot,a number\n")
        res = runner.invoke(
            main,
            [
                "spatial-build",
                "--input", str(bad),
                "--output", str(tmp_path / "t.json"),
                "--epsilon", "1.0",
            ],
        )
        assert res.exit_code == 2
        assert "line 2" in res.output

    def test_byte_identical_under_fixed_seed(self, runner, tmp_path, points_csv):
        res1, out1 = build_tree(runner, tmp_path, points_csv)
        blob1 = out1.read_bytes()
        res2, out2 = build_tree(runner, tmp_path, points_csv)
        assert res1.exit_code == res2.exit_code == 0
        assert blob1 == out2.read_bytes()

    @pytest.mark.parametrize(
        "bounds", [[], ["--domain-lo", "0,0"], ["--domain-hi", "1,1"]]
    )
    def test_domain_bounds_are_required(self, runner, tmp_path, points_csv, bounds):
        out = tmp_path / "t.json"
        res = runner.invoke(
            main,
            [
                "spatial-build",
                "--input", str(points_csv),
                "--output", str(out),
                "--epsilon", "1.0",
                *bounds,
            ],
        )
        assert res.exit_code == 1
        assert "--domain-lo and --domain-hi are required" in res.output
        assert not out.exists()

    def test_config_file_overrides_flags(self, runner, tmp_path, points_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0, "seed": 3}))
        res = runner.invoke(
            main,
            [
                "spatial-build",
                "--input", str(points_csv),
                "--output", str(tmp_path / "t.json"),
                "--epsilon", "0.0",  # overridden by the config file
                "--domain-lo", "0,0",
                "--domain-hi", "1,1",
                "--config", str(cfg),
            ],
        )
        assert res.exit_code == 0, res.output

    def test_unknown_config_key_rejected(self, runner, tmp_path, points_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilonn": 1.0}))
        res = runner.invoke(
            main,
            [
                "spatial-build",
                "--input", str(points_csv),
                "--output", str(tmp_path / "t.json"),
                "--epsilon", "1.0",
                "--config", str(cfg),
            ],
        )
        assert res.exit_code == 1


class TestRangeQuery:
    def test_empty_workload_empty_report(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        wl = tmp_path / "wl.csv"
        wl.write_text("# nothing\n")
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["range-query", "--tree", str(tree), "--workload", str(wl), "--output", str(out)],
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text()) == {"count": 0, "answers": []}

    def test_whole_domain_noiseless_returns_n(self, runner, tmp_path, points_csv):
        res, tree = build_tree(runner, tmp_path, points_csv, "--noiseless")
        assert res.exit_code == 0
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,1,1\n")
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["range-query", "--tree", str(tree), "--workload", str(wl), "--output", str(out)],
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["answers"] == [1500.0]

    def test_dimension_mismatch_is_input_error(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,0,1,1,1\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(wl)]
        )
        assert res.exit_code == 2

    def test_inverted_box_is_input_error(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        wl = tmp_path / "wl.csv"
        wl.write_text("0.5,0.5,0.2,0.9\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(wl)]
        )
        assert res.exit_code == 2
        assert "data row 1: query requires lo <= hi" in res.output

    def test_ground_truth_report(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,1,1\n0.2,0.2,0.5,0.6\n")
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            [
                "range-query",
                "--tree", str(tree),
                "--workload", str(wl),
                "--data", str(points_csv),
                "--output", str(out),
            ],
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["count"] == 2
        assert all(q["rel_error"] >= 0 for q in doc["queries"])


    def test_report_label_is_the_tree_file_name(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,1,1\n0.2,0.2,0.5,0.6\n")
        reports = []
        for name in ("one", "two"):
            copy = tmp_path / name / "tree.json"
            copy.parent.mkdir()
            copy.write_bytes(tree.read_bytes())
            out = tmp_path / name / "report.json"
            res = runner.invoke(
                main,
                [
                    "range-query",
                    "--tree", str(copy),
                    "--workload", str(wl),
                    "--data", str(points_csv),
                    "--output", str(out),
                ],
            )
            assert res.exit_code == 0, res.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["label"] == "tree.json"

    def test_nonfinite_tree_is_input_error(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        doc = json.loads(tree.read_text())
        leaf = next(v for v in doc["nodes"] if not v["children"])
        leaf["noisy_count"] = float("nan")
        tree.write_text(json.dumps(doc))
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,1,1\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(wl)]
        )
        assert res.exit_code == 2
        assert "must be finite" in res.output

    def test_inverted_tree_region_is_input_error(self, runner, tmp_path, points_csv):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "fanout": 2,
            "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
            "nodes": [{"id": 0, "depth": 0, "lo": [0.5], "hi": [0.2], "children": [],
                       "noisy_count": 3.0}],
        }))
        wl = tmp_path / "wl.csv"
        wl.write_text("0,1\n")
        data = tmp_path / "data.csv"
        data.write_text("0.3\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(wl),
                   "--data", str(data)]
        )
        assert res.exit_code == 2, res.output
        assert "node 0: lo must be below hi" in res.output


class TestSequenceCommands:
    def build_pst(self, runner, tmp_path, sequences_txt, *extra):
        out = tmp_path / "pst.json"
        res = runner.invoke(
            main,
            [
                "seq-build",
                "--input", str(sequences_txt),
                "--output", str(out),
                "--epsilon", "1.0",
                "--lmax", "10",
                "--seed", "4",
                *extra,
            ],
        )
        return res, out

    def test_missing_lmax_is_config_error(self, runner, tmp_path, sequences_txt):
        res = runner.invoke(
            main,
            [
                "seq-build",
                "--input", str(sequences_txt),
                "--output", str(tmp_path / "p.json"),
                "--epsilon", "1.0",
            ],
        )
        assert res.exit_code == 1

    def test_inferred_alphabet_notes_privacy(self, runner, tmp_path, sequences_txt):
        res, _ = self.build_pst(runner, tmp_path, sequences_txt)
        assert res.exit_code == 0
        assert "alphabet inferred from the data" in res.output
        assert "not private" in res.output

    def test_noiseless_topk_matches_hand_counts(self, runner, tmp_path, sequences_txt):
        res, pst = self.build_pst(runner, tmp_path, sequences_txt, "--noiseless")
        assert res.exit_code == 0, res.output
        out = tmp_path / "topk.json"
        res = runner.invoke(
            main, ["seq-topk", "--pst", str(pst), "--k", "1", "--output", str(out)]
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text()) == [{"string": ["A"], "estimate": 6.0}]

    def test_bad_histogram_count_is_input_error(self, runner, tmp_path, sequences_txt):
        _, pst = self.build_pst(runner, tmp_path, sequences_txt)
        doc = json.loads(pst.read_text())
        doc["nodes"][0]["hist"]["A"] = float("nan")
        pst.write_text(json.dumps(doc))  # Python's json writes NaN
        res = runner.invoke(main, ["seq-topk", "--pst", str(pst), "--k", "1"])
        assert res.exit_code == 2
        assert "histogram counts must be finite and >= 0" in res.output

    def test_pst_byte_identical_under_seed(self, runner, tmp_path, sequences_txt):
        res1, pst = self.build_pst(runner, tmp_path, sequences_txt)
        blob1 = pst.read_bytes()
        res2, pst2 = self.build_pst(runner, tmp_path, sequences_txt)
        assert res1.exit_code == res2.exit_code == 0
        assert blob1 == pst2.read_bytes()

    def test_synth_deterministic_and_parallel_consistent(
        self, runner, tmp_path, sequences_txt
    ):
        _, pst = self.build_pst(runner, tmp_path, sequences_txt, "--noiseless")
        outs = []
        for name in ("s1.txt", "s2.txt"):
            out = tmp_path / name
            res = runner.invoke(
                main,
                [
                    "seq-synth",
                    "--pst", str(pst),
                    "--count", "25",
                    "--seed", "7",
                    "--output", str(out),
                ],
            )
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        par = tmp_path / "s3.txt"
        res = runner.invoke(
            main,
            [
                "seq-synth",
                "--pst", str(pst),
                "--count", "25",
                "--seed", "7",
                "--jobs", "2",
                "--output", str(par),
            ],
        )
        assert res.exit_code == 0, res.output
        lines = par.read_text().splitlines()
        assert len(lines) == 25
        alphabet = {"A", "B", ""}
        assert all(set(line.split()) <= alphabet for line in lines)


class TestSvtAuditCommand:
    def test_default_battery_verdicts(self, runner, tmp_path):
        out = tmp_path / "audit.json"
        res = runner.invoke(main, ["svt-audit", "--output", str(out)])
        assert res.exit_code == 0, res.output
        rows = json.loads(out.read_text())
        verdicts = {r["variant"]: set() for r in rows}
        for r in rows:
            verdicts[r["variant"]].add(r["verdict"])
        assert verdicts["binary"] == {"VIOLATES"}
        assert verdicts["vanilla"] == {"VIOLATES"}
        assert verdicts["improved"] == {"SATISFIES"}

    def test_unknown_variant_is_config_error(self, runner):
        res = runner.invoke(main, ["svt-audit", "--variant", "bogus"])
        assert res.exit_code == 1

    def test_odd_k_is_config_error(self, runner):
        res = runner.invoke(main, ["svt-audit", "--k", "7"])
        assert res.exit_code == 1

    def test_single_variant_table(self, runner):
        res = runner.invoke(main, ["svt-audit", "--variant", "vanilla", "--format", "table"])
        assert res.exit_code == 0
        assert "VIOLATES" in res.output and "improved" not in res.output

    def test_odd_k_only_for_vanilla(self, runner):
        res = runner.invoke(main, ["svt-audit", "--variant", "vanilla", "--k", "7"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)[0]["k"] == 4
        res = runner.invoke(main, ["svt-audit", "--variant", "improved", "--k", "7"])
        assert res.exit_code == 1

    def test_t_option_removed(self, runner):
        res = runner.invoke(main, ["svt-audit", "--t", "3"])
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_t_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 3}))
        res = runner.invoke(main, ["svt-audit", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "unknown config key 't'" in res.output

    def test_binary_variant_builds_no_improved_battery(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("improved battery built")

        monkeypatch.setattr(svt_audit, "improved_audit_battery", refuse)
        res = runner.invoke(main, ["svt-audit", "--variant", "binary"])
        assert res.exit_code == 0, res.output
        assert [r["variant"] for r in json.loads(res.output)] == ["binary"]


class TestArtifactHygiene:
    def test_no_exact_counts_in_any_artifact(self, runner, tmp_path, points_csv, sequences_txt):
        _, tree = build_tree(runner, tmp_path, points_csv)
        res, pst = TestSequenceCommands().build_pst(runner, tmp_path, sequences_txt)
        assert res.exit_code == 0
        for artifact in (tree, pst):
            doc = json.loads(artifact.read_text())
            blob = json.dumps(doc)
            assert "exact" not in blob


class TestLoadValidation:
    def test_range_query_on_cyclic_tree_is_input_error(self, runner, tmp_path):
        doc = {
            "fanout": 2,
            "params": {"epsilon": None, "lambda": None, "theta": None, "delta": None},
            "nodes": [
                {"id": 0, "depth": 0, "lo": [0.0], "hi": [1.0], "children": [1]},
                {"id": 1, "depth": 1, "lo": [0.0], "hi": [0.5], "children": [0],
                 "noisy_count": 1.0},
            ],
        }
        tree = tmp_path / "cyclic.json"
        tree.write_text(json.dumps(doc))
        workload = tmp_path / "q.csv"
        workload.write_text("0.1,0.4\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(workload)]
        )
        assert res.exit_code == 2
        assert "root node 0 is listed as a child" in res.output

    def test_seq_topk_on_node_entry_without_predictor_is_input_error(self, runner, tmp_path):
        pst = tmp_path / "pst.json"
        pst.write_text(json.dumps(
            {"alphabet": ["A"], "l_max": 3, "params": {}, "nodes": [{"id": 0, "children": {}}]}
        ))
        res = runner.invoke(main, ["seq-topk", "--pst", str(pst), "--k", "1"])
        assert res.exit_code == 2, res.output
        assert "node entry 0" in res.output and "'predictor'" in res.output

    def test_range_query_on_non_numeric_bound_is_input_error(self, runner, tmp_path, points_csv):
        _, tree = build_tree(runner, tmp_path, points_csv)
        doc = json.loads(tree.read_text())
        doc["nodes"][1]["hi"] = ["x", 1]
        tree.write_text(json.dumps(doc))
        wl = tmp_path / "wl.csv"
        wl.write_text("0,0,1,1\n")
        res = runner.invoke(
            main, ["range-query", "--tree", str(tree), "--workload", str(wl),
                   "--data", str(points_csv)]
        )
        assert res.exit_code == 2, res.output
        assert "node entry 1: field 'hi'" in res.output and "'x'" in res.output


def refuse_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


class TestJobsCap:
    @pytest.mark.parametrize("module", [cli, svt_audit])
    def test_jobs_above_cpu_count_rejected_before_any_pool(
        self, runner, tmp_path, sequences_txt, monkeypatch, module
    ):
        monkeypatch.setattr(module, "ProcessPoolExecutor", refuse_pool)
        jobs = str((os.cpu_count() or 1) + 1)
        if module is cli:
            res, pst = TestSequenceCommands().build_pst(runner, tmp_path, sequences_txt)
            assert res.exit_code == 0, res.output
            args = ["seq-synth", "--pst", str(pst), "--count", "1000", "--jobs", jobs]
        else:
            args = ["svt-audit", "--jobs", jobs]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "jobs must be in [1," in res.output

    def test_audit_parallel_output_matches_serial(self, runner, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"audit{jobs}.json"
            res = runner.invoke(
                main, ["svt-audit", "--jobs", jobs, "--output", str(out)]
            )
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
