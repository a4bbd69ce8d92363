"""One measured pass of each workload: the commands a batch user runs.

The program is driven from outside, the way its users drive it: through
``dphier.cli.main`` (in-process, standalone mode off) where the CLI offers
the operation, and through the public library functions where it does not.
Each pass writes the same files every time, so the checks can read the last
one.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from dphier import cli, markov, spatial
from make_inputs import EPSILON, L_MAX, SEQ_EPSILONS, SIMPLE_TREE_HEIGHT


class CliFailure(RuntimeError):
    """A CLI command returned a non-zero exit code."""


def _invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code not in (None, 0):
        raise CliFailure(f"dphier {' '.join(args)} exited with {code}: {err.getvalue().strip()}")


class Runner:
    """Runs operations one after another and counts attempts and failures.

    With a tracer, each CLI command is a span named ``cli.<command>``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one failed operation; the pass goes on
            self.failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def cli(self, args):
        fn = _invoke if self.tracer is None else self.tracer.span(f"cli.{args[0]}", _invoke)
        return self.op(args[0], fn, args)


def spatial_build_args(workdir, d, seed, output, *, noiseless=False):
    args = [
        "spatial-build", "--input", str(workdir / f"points{d}.csv"),
        "--output", str(workdir / output), "--epsilon", str(EPSILON),
        "--domain-lo", ",".join(["0"] * d), "--domain-hi", ",".join(["1"] * d),
        "--seed", str(seed),
    ]
    if d == 4:
        args += ["--fanout", "4"]  # two of the four dimensions split per level
    if noiseless:
        args.append("--noiseless")
    return args


def seq_build_args(workdir, epsilon, seed, output, *, noiseless=False):
    args = [
        "seq-build", "--input", str(workdir / "seqs.txt"), "--output", str(workdir / output),
        "--epsilon", str(epsilon), "--lmax", str(L_MAX), "--seed", str(seed),
    ]
    if noiseless:
        args.append("--noiseless")
    return args


def pst_name(epsilon):
    return f"pst_e{epsilon:g}.json"


def _release_baselines(workdir, seed):
    pts = spatial.load_points_csv(workdir / "points2.csv")
    data = spatial.SpatialDataset(spatial.SpatialDomain((0.0, 0.0), (1.0, 1.0)), pts)
    ug_rng, simple_rng = (np.random.default_rng(s) for s in np.random.SeedSequence([seed, 1]).spawn(2))
    spatial.build_ug(data, EPSILON, ug_rng).save(workdir / "grid2.json")
    h = SIMPLE_TREE_HEIGHT
    tree = spatial.build_simple_tree(data, h / EPSILON, 0.0, h, simple_rng)
    tree.save(workdir / "simple2.json")


def pass_spatial_release(runner, workdir, seed, sizes):
    runner.cli(spatial_build_args(workdir, 2, seed, "tree2.json"))
    runner.cli(spatial_build_args(workdir, 4, seed, "tree4.json"))
    runner.op("library baselines", _release_baselines, workdir, seed)


QUERY_RUNS = (("tree2", 2), ("grid2", 2), ("tree4", 4))


def pass_spatial_query(runner, workdir, seed, sizes):
    for artifact, d in QUERY_RUNS:
        runner.cli([
            "range-query", "--tree", str(workdir / f"{artifact}.json"),
            "--workload", str(workdir / f"queries{d}.csv"), "--data", str(workdir / f"points{d}.csv"),
            "--output", str(workdir / f"report_{artifact}.json"),
        ])


def _estimate_batch(workdir):
    pst = markov.load_pst(workdir / pst_name(SEQ_EPSILONS[-1]))
    with open(workdir / "strings.txt", encoding="utf-8") as fh:
        strings = [line.split() for line in fh if line.strip()]
    rows = [{"string": s, "estimate": markov.estimate_string_count(pst, s)} for s in strings]
    with open(workdir / "estimates.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def pass_sequence(runner, workdir, seed, sizes):
    for epsilon in SEQ_EPSILONS:
        runner.cli(seq_build_args(workdir, epsilon, seed, pst_name(epsilon)))
    model = str(workdir / pst_name(SEQ_EPSILONS[-1]))
    runner.cli(["seq-topk", "--pst", model, "--k", str(sizes.topk), "--output", str(workdir / "topk.json")])
    runner.op("estimate_string_count batch", _estimate_batch, workdir)
    runner.cli([
        "seq-synth", "--pst", model, "--count", str(sizes.synth), "--jobs", "1",
        "--seed", str(seed), "--output", str(workdir / "synth.txt"),
    ])


def audit_plan(workdir):
    with open(workdir / "audit_plan.json", encoding="utf-8") as fh:
        return json.load(fh)


def pass_audit(runner, workdir, seed, sizes):
    for point in audit_plan(workdir):
        name = point["name"]
        runner.cli([
            "svt-audit", "--jobs", "1", "--config", str(workdir / f"{name}.config.json"),
            "--output", str(workdir / f"{name}.json"),
        ])


PASSES = {
    "spatial-release": pass_spatial_release,
    "spatial-query": pass_spatial_query,
    "sequence": pass_sequence,
    "audit": pass_audit,
}


def released_artifacts(workload, workdir):
    """Files the workload releases, in a fixed order, for the digest listing."""
    if workload == "spatial-release":
        names = ["tree2.json", "tree4.json", "grid2.json", "simple2.json"]
    elif workload == "spatial-query":
        names = [f"{a}.json" for a, _ in QUERY_RUNS] + [f"report_{a}.json" for a, _ in QUERY_RUNS]
    elif workload == "sequence":
        names = [pst_name(e) for e in SEQ_EPSILONS] + ["topk.json", "estimates.json", "synth.txt"]
    else:
        names = [f"{p['name']}.json" for p in audit_plan(workdir)]
    return [workdir / n for n in names]
