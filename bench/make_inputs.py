"""Input generation for the benchmark workloads.

Every input is a deterministic function of the workload seed and the size
preset.  The program only ever reads the files written here; the ``.npy``
copies of points and queries are read by the benchmark's own checks.

Run as a script, this module is the set-up step of one workload and runs in
a process of its own, so that the memory it uses never counts against the
measured pass:

    python3 bench/make_inputs.py <workload> <seed> <workdir> <preset>
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one preset."""

    n2: int  # 2-d Gaussian mixture points
    n4: int  # 4-d cluster points
    queries2: int  # 2-d range queries per size class
    queries4: int  # 4-d range queries per size class
    n_seq: int  # sequences in the corpus
    n_strings: int  # strings in the estimate batch
    synth: int  # synthetic sequences per seq-synth call
    topk: int
    lambdas: tuple
    ks: tuple


PRESETS = {
    "full": Sizes(
        n2=200_000, n4=100_000, queries2=500, queries4=200, n_seq=20_000,
        n_strings=2_000, synth=20_000, topk=1_000, lambdas=(1.0, 2.0, 4.0), ks=(16, 32),
    ),
    "tiny": Sizes(
        n2=8_000, n4=4_000, queries2=40, queries4=20, n_seq=10_000,
        n_strings=200, synth=1_000, topk=100, lambdas=(4.0,), ks=(16,),
    ),
}

# Fixed public parameters shared by the passes and the checks.
EPSILON = 1.0  # spatial releases: half structure, half counts (CLI default split)
SEQ_EPSILONS = (1.0, 4.0)
L_MAX = 20
SIMPLE_TREE_HEIGHT = 8  # build_simple_tree at lam = h / epsilon, theta = 0
SIZE_CLASSES = {"small": (1e-4, 1e-3), "medium": (1e-3, 1e-2), "large": (1e-2, 1e-1)}
SYMBOLS = tuple("abcdefgh")
RAW_LEN_CAP = 24  # longer than L_MAX, so some records are truncated
END_PROB = 0.1

# Acceptance criterion 10's mixture; the points differ per seed.
MIX_CENTERS = np.array([[0.18, 0.22], [0.62, 0.71], [0.81, 0.33], [0.42, 0.52]])
MIX_WEIGHTS = np.array([0.35, 0.3, 0.2, 0.15])
MIX_SIGMAS = np.array([0.02, 0.05, 0.01, 0.1])


def _streams(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _unit_clip(pts):
    return np.clip(pts, 0.0, 1.0 - 1e-9)


def mixture_2d(rng, n):
    sizes = (MIX_WEIGHTS * n).astype(int)
    sizes[0] += n - sizes.sum()
    parts = [c + rng.normal(0.0, s, size=(k, 2)) for c, k, s in zip(MIX_CENTERS, sizes, MIX_SIGMAS)]
    pts = np.vstack(parts)
    rng.shuffle(pts)
    return _unit_clip(pts)


def clusters_4d(rng, n):
    # Eight clusters at fixed positions with fixed spreads; one seed-independent
    # layout keeps tree sizes, and therefore pass times, alike across seeds.
    layout = np.random.default_rng(4)
    centers = layout.random((8, 4)) * 0.7 + 0.15
    sigmas = layout.uniform(0.01, 0.08, size=8)
    labels = rng.integers(0, 8, size=n)
    return _unit_clip(centers[labels] + rng.normal(size=(n, 4)) * sigmas[labels, None])


def range_queries(rng, d, per_class):
    """Boxes in the unit cube, blocked by size class (small, medium, large).

    Volume fraction log-uniform within the class band, split over the
    dimensions by random exponents, box placed uniformly: the convention of
    ``evalbench.gen_workload``, written out here so the program only sees a file.
    """
    blocks = []
    for lo_frac, hi_frac in SIZE_CLASSES.values():
        vf = np.exp(rng.uniform(np.log(lo_frac), np.log(hi_frac), size=per_class))
        w = rng.random((per_class, d)) + 1e-12
        sides = vf[:, None] ** (w / w.sum(axis=1, keepdims=True))
        offs = rng.random((per_class, d)) * (1.0 - sides)
        blocks.append(np.hstack([offs, offs + sides]))
    return np.vstack(blocks)


def markov_corpus(rng, n):
    """Order-2 Markov source over eight symbols with a per-step end chance.

    The transition table is fixed; only the sample depends on the seed.
    Returns an (n, RAW_LEN_CAP) id matrix padded with -1.
    """
    k = len(SYMBOLS)
    # Table seed 2 gives PSTs of about 400 and 1,600 nodes at eps 1 and 4.
    table = np.random.default_rng(2).dirichlet(np.full(k, 0.5), size=(k + 1, k + 1))
    cum = np.cumsum(table, axis=2)
    prev2 = np.full(n, k)  # index k stands for "before the start"
    prev1 = np.full(n, k)
    out = np.full((n, RAW_LEN_CAP), -1)
    alive = np.ones(n, dtype=bool)
    for i in range(RAW_LEN_CAP):
        if i:
            alive &= rng.random(n) >= END_PROB
        u = rng.random(n)
        sym = np.minimum((u[:, None] >= cum[prev2, prev1]).sum(axis=1), k - 1)
        out[alive, i] = sym[alive]
        prev2, prev1 = prev1, sym
    return out


def string_batch(rng, corpus, count):
    """Query strings: half substrings of corpus records, half random strings;
    one in ten ends with the end marker."""
    out = []
    lengths = (corpus >= 0).sum(axis=1)
    while len(out) < count:
        size = int(rng.integers(1, 7))
        if len(out) % 2 == 0:
            row = int(rng.integers(0, corpus.shape[0]))
            if lengths[row] < size:
                continue
            start = int(rng.integers(0, lengths[row] - size + 1))
            ids = corpus[row, start:start + size]
        else:
            ids = rng.integers(0, len(SYMBOLS), size=size)
        tokens = [SYMBOLS[i] for i in ids]
        if rng.random() < 0.1:
            tokens.append("&")
        out.append(tokens)
    return out


def _write_points(workdir, name, pts):
    np.savetxt(workdir / f"{name}.csv", pts, fmt="%.17g", delimiter=",")
    np.save(workdir / f"{name}.npy", pts)


def _write_queries(workdir, name, boxes):
    np.savetxt(workdir / f"{name}.csv", boxes, fmt="%.17g", delimiter=",")
    np.save(workdir / f"{name}.npy", boxes)


def setup_spatial_release(workdir: Path, seed: int, sizes: Sizes) -> None:
    r2, r4 = _streams(seed, 2)
    _write_points(workdir, "points2", mixture_2d(r2, sizes.n2))
    _write_points(workdir, "points4", clusters_4d(r4, sizes.n4))


def setup_spatial_query(workdir: Path, seed: int, sizes: Sizes) -> None:
    setup_spatial_release(workdir, seed, sizes)
    _, _, q2, q4, grid = _streams(seed, 5)
    _write_queries(workdir, "queries2", range_queries(q2, 2, sizes.queries2))
    _write_queries(workdir, "queries4", range_queries(q4, 4, sizes.queries4))
    # The analyst's artifacts are released by the program itself.
    import passes
    from dphier import spatial

    runner = passes.Runner()
    runner.cli(passes.spatial_build_args(workdir, 2, seed, "tree2.json"))
    runner.cli(passes.spatial_build_args(workdir, 4, seed, "tree4.json"))
    domain = spatial.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    data = spatial.SpatialDataset(domain, spatial.load_points_csv(workdir / "points2.csv"))
    spatial.build_ug(data, EPSILON, grid).save(workdir / "grid2.json")
    if runner.failed:
        raise RuntimeError("the program failed to release the query artifacts")


def setup_sequence(workdir: Path, seed: int, sizes: Sizes) -> None:
    rc, rs = _streams(seed, 2)
    corpus = markov_corpus(rc, sizes.n_seq)
    with open(workdir / "seqs.txt", "w", encoding="utf-8") as fh:
        for row in corpus:
            fh.write(" ".join(SYMBOLS[i] for i in row[row >= 0]) + "\n")
    with open(workdir / "strings.txt", "w", encoding="utf-8") as fh:
        for tokens in string_batch(rs, corpus, sizes.n_strings):
            fh.write(" ".join(tokens) + "\n")


def setup_audit(workdir: Path, seed: int, sizes: Sizes) -> None:
    # The audit reads no data: the seed only orders the parameter points, and
    # each point is handed to the CLI as a --config file.
    grid = [(lam, k) for lam in sizes.lambdas for k in sizes.ks]
    order = np.random.default_rng(seed).permutation(len(grid))
    plan = []
    for i in order:
        lam, k = grid[i]
        name = f"audit_l{lam:g}_k{k}"
        with open(workdir / f"{name}.config.json", "w", encoding="utf-8") as fh:
            json.dump({"lam": lam, "k": k}, fh)
        plan.append({"name": name, "lambda": lam, "k": k})
    with open(workdir / "audit_plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)


SETUPS = {
    "spatial-release": setup_spatial_release,
    "spatial-query": setup_spatial_query,
    "sequence": setup_sequence,
    "audit": setup_audit,
}


def main(argv) -> int:
    workload, seed, workdir, preset = argv
    SETUPS[workload](Path(workdir), int(seed), PRESETS[preset])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
