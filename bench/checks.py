"""Output checks for every workload.

Each check compares the program's output with a computation made here, apart
from the program, or with a property the method must have.  None compares
against a stored copy of earlier output.  Checks run after the timed passes.

Every ``check_*`` function returns ``(failures, notes)``: failures are
one-line descriptions (empty when the output is correct), notes are
informational lines such as reference accuracy.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque

import numpy as np

import passes
from dphier import svt_audit
from make_inputs import (
    EPSILON, L_MAX, SEQ_EPSILONS, SIMPLE_TREE_HEIGHT, SIZE_CLASSES, SYMBOLS,
)

Z = 5.0  # statistical checks fail beyond five standard errors
DEPTH_CAP = 40  # the CLI's default --depth-cap
START, END = "$", "&"
NODE_KEYS = {"id", "depth", "lo", "hi", "children", "noisy_count"}


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def laplace_fit(residuals, scale, what):
    """Failures unless residuals look like zero-mean Laplace(scale) draws:
    mean within Z standard errors of 0 and mean absolute value within Z
    standard errors of ``scale`` (|X| is exponential with mean and sd scale)."""
    r = np.asarray(residuals, dtype=np.float64)
    n = r.size
    if n < 30:
        return [f"{what}: only {n} residuals, too few to test"]
    mean, mad = float(r.mean()), float(np.abs(r).mean())
    fails = []
    if abs(mean) > Z * math.sqrt(2.0) * scale / math.sqrt(n):
        fails.append(f"{what}: residual mean {mean:.4g} is not ~0 (n={n}, scale {scale:g})")
    if abs(mad - scale) > Z * scale / math.sqrt(n):
        fails.append(f"{what}: mean |residual| {mad:.4g} is not ~{scale:g} (n={n})")
    return fails


# ---------------------------------------------------------------------------
# spatial trees
# ---------------------------------------------------------------------------


def round_robin_dims(depth, d, per_level):
    return sorted((depth * per_level + j) % d for j in range(per_level))


def bisect(lo, hi, dims):
    """Child boxes of one split, in child-code order (bit j: upper half of dims[j])."""
    out = []
    for code in range(1 << len(dims)):
        clo, chi = list(lo), list(hi)
        for j, dim in enumerate(dims):
            mid = (lo[dim] + hi[dim]) / 2.0
            if (code >> j) & 1:
                clo[dim] = mid
            else:
                chi[dim] = mid
        out.append((clo, chi))
    return out


class Tree:
    """A released tree document, read without the library.

    ``kind`` is ``privtree`` (counts on leaves only), ``simple`` (counts on
    every node) or ``grid`` (one level of equal cells).
    """

    def __init__(self, doc, d, kind, per_level=None, depth_cap=DEPTH_CAP):
        self.doc, self.d, self.kind = doc, d, kind
        self.per_level, self.depth_cap = per_level, depth_cap
        self.fails = []
        self.nodes = None
        self._validate()

    def _fail(self, msg):
        self.fails.append(f"{self.kind} tree: {msg}")

    def _validate(self):
        raw = self.doc.get("nodes")
        if not isinstance(raw, list) or not raw:
            return self._fail("no node list")
        n = len(raw)
        if sorted(v.get("id", -1) for v in raw) != list(range(n)):
            return self._fail("node ids are not 0..n-1")
        nodes = [None] * n
        for v in raw:
            nodes[v["id"]] = v
            extra = set(v) - NODE_KEYS
            if extra:
                return self._fail(f"node {v['id']} carries unexpected keys {sorted(extra)}")
        roots = [v for v in nodes if v["depth"] == 0]
        if len(roots) != 1:
            return self._fail(f"{len(roots)} depth-0 nodes, expected one root")
        root = roots[0]["id"]
        parents = [0] * n
        for v in nodes:
            for c in v["children"]:
                if not (isinstance(c, int) and 0 <= c < n):
                    return self._fail(f"node {v['id']} links to unknown child {c!r}")
                parents[c] += 1
        if parents[root] or any(p != 1 for i, p in enumerate(parents) if i != root):
            return self._fail("not every non-root node has exactly one parent")
        seen, stack = [False] * n, [root]
        while stack:
            i = stack.pop()
            if seen[i]:
                return self._fail("child links form a cycle")
            seen[i] = True
            stack.extend(nodes[i]["children"])
        if not all(seen):
            return self._fail("some nodes are unreachable from the root (a cycle)")
        self.nodes, self.root = nodes, root
        unit = ([0.0] * self.d, [1.0] * self.d)
        if (nodes[root]["lo"], nodes[root]["hi"]) != unit:
            return self._fail("root region is not the public domain")
        if self.kind == "grid":
            self._validate_grid()
        else:
            self._validate_bisections()
        self._validate_counts()
        vol = sum(float(np.prod(np.subtract(v["hi"], v["lo"]))) for v in self.leaves())
        if abs(vol - 1.0) > 1e-9:
            self._fail(f"leaf volumes sum to {vol!r}, not the domain volume")

    def _validate_bisections(self):
        fanout = 1 << self.per_level
        for v in self.nodes:
            ch = v["children"]
            if v["depth"] > self.depth_cap:
                return self._fail(f"node {v['id']} is deeper than the cap {self.depth_cap}")
            if not ch:
                continue
            if len(ch) != fanout:
                return self._fail(f"node {v['id']} has {len(ch)} children, expected {fanout}")
            dims = round_robin_dims(v["depth"], self.d, self.per_level)
            for c, (lo, hi) in zip(ch, bisect(v["lo"], v["hi"], dims)):
                cv = self.nodes[c]
                if cv["depth"] != v["depth"] + 1 or cv["lo"] != lo or cv["hi"] != hi:
                    return self._fail(f"node {c} is not the expected bisection of node {v['id']}")

    def _validate_grid(self):
        root = self.nodes[self.root]
        cells = root["children"]
        m = round(len(cells) ** (1.0 / self.d))
        if m ** self.d != len(cells) or self.doc.get("fanout") != len(cells) or len(self.nodes) != len(cells) + 1:
            return self._fail("cells do not form an m^d grid under the root")
        edges = np.linspace(0.0, 1.0, m + 1)
        for k, idx in enumerate(np.ndindex(*(m,) * self.d)):
            cv = self.nodes[cells[k]]
            lo = [float(edges[i]) for i in idx]
            hi = [float(edges[i + 1]) for i in idx]
            if cv["depth"] != 1 or cv["children"] or cv["lo"] != lo or cv["hi"] != hi:
                return self._fail(f"cell {cells[k]} is not grid cell {idx}")
        self.edges = edges

    def _validate_counts(self):
        for v in self.nodes:
            has = "noisy_count" in v
            needs = not v["children"] or self.kind == "simple"
            if has != needs:
                return self._fail(f"node {v['id']} {'has' if has else 'lacks'} a count")
            if has and not math.isfinite(v["noisy_count"]):
                return self._fail(f"node {v['id']} has a non-finite count")

    def leaves(self):
        return [v for v in self.nodes if not v["children"]]

    def assign(self, pts):
        """Leaf id of every point, by descending the released regions.

        Fails (returns None) unless each point lies in exactly one child of
        every node on its path, i.e. unless the children partition the parent.
        """
        if self.kind == "grid":
            idx = [np.searchsorted(self.edges, pts[:, j], side="right") - 1 for j in range(self.d)]
            cells = np.ravel_multi_index(idx, (len(self.edges) - 1,) * self.d)
            return np.asarray(self.nodes[self.root]["children"])[cells]
        n = len(self.nodes)
        fanout = 1 << self.per_level
        kids = np.full((n, fanout), -1)
        for v in self.nodes:
            if v["children"]:
                kids[v["id"]] = v["children"]
        lo = np.array([v["lo"] for v in self.nodes])
        hi = np.array([v["hi"] for v in self.nodes])
        node = np.full(pts.shape[0], self.root)
        active = np.arange(pts.shape[0])
        while active.size:
            active = active[kids[node[active], 0] >= 0]
            cur, p = node[active], pts[active]
            hits = np.zeros(active.size, dtype=int)
            choice = np.full(active.size, -1)
            for k in range(fanout):
                ch = kids[cur, k]
                upper = (p < hi[ch]) | ((hi[ch] == 1.0) & (p <= 1.0))  # domain's top face is closed
                inside = ((p >= lo[ch]) & upper).all(axis=1)
                hits += inside
                choice = np.where(inside, ch, choice)
            if (hits != 1).any():
                self._fail("children do not partition their parent's points")
                return None
            node[active] = choice
        return node


def released_residuals(tree, pts, scale, what, depth=None):
    """Laplace fit of released minus exact counts over the leaves (optionally
    only the leaves at one depth), plus the exact-count leak test."""
    leaf_of = tree.assign(pts)
    if leaf_of is None:
        return tree.fails[-1:]
    counts = np.bincount(leaf_of, minlength=len(tree.nodes))
    leaves = [v for v in tree.leaves() if depth is None or v["depth"] == depth]
    released = np.array([v["noisy_count"] for v in leaves])
    exact = counts[[v["id"] for v in leaves]]
    fails = laplace_fit(released - exact, scale, what)
    leaked = int((released == exact).sum())
    if leaked:
        fails.append(f"{what}: {leaked} released counts equal the exact counts")
    return fails


def noiseless_privtree(pts, d, per_level, eps_tree, theta=0.0, depth_cap=DEPTH_CAP):
    """The split rule run level by level with exact counts and no noise.

    A node at depth k with c points splits when max(theta - delta, c - k*delta)
    > theta, where lam = (2b-1)/(b-1)/eps_tree and delta = lam*ln(b) for
    fanout b.  Returns nodes in breadth-first order as
    (depth, lo, hi, children, count).
    """
    beta = 1 << per_level
    lam = (2.0 * beta - 1.0) / (beta - 1.0) / eps_tree
    delta = lam * math.log(beta)
    nodes = [(0, [0.0] * d, [1.0] * d, [], pts.shape[0])]
    level = [(0, np.arange(pts.shape[0]))]
    while level:
        nxt = []
        for nid, idx in level:
            depth, lo, hi, children, count = nodes[nid]
            if depth >= depth_cap or max(theta - delta, count - depth * delta) <= theta:
                continue
            dims = round_robin_dims(depth, d, per_level)
            code = np.zeros(idx.size, dtype=int)
            for j, dim in enumerate(dims):
                code |= (pts[idx, dim] >= (lo[dim] + hi[dim]) / 2.0).astype(int) << j
            for c, (clo, chi) in enumerate(bisect(lo, hi, dims)):
                sub = idx[code == c]
                children.append(len(nodes))
                nodes.append((depth + 1, clo, chi, [], sub.size))
                nxt.append((len(nodes) - 1, sub))
        level = nxt
    return nodes


def compare_noiseless(doc, expected, what):
    """Node-by-node equality of a --noiseless artifact with the recursion."""
    nodes = sorted(doc["nodes"], key=lambda v: v["id"])
    if len(nodes) != len(expected):
        return [f"{what}: {len(nodes)} nodes, the recursion gives {len(expected)}"]
    for v, (depth, lo, hi, children, count) in zip(nodes, expected):
        got = (v["depth"], v["lo"], v["hi"], v["children"], v.get("noisy_count"))
        want = (depth, lo, hi, children, None if children else float(count))
        if got != want:
            return [f"{what}: node {v['id']} is {got[:1] + got[3:]}, the recursion gives {want[:1] + want[3:]}"]
    return []


def check_spatial_release(workdir, seed, sizes):
    fails, notes = [], []
    pts = {d: np.load(workdir / f"points{d}.npy") for d in (2, 4)}
    h = SIMPLE_TREE_HEIGHT
    eps_counts = EPSILON / 2.0  # the CLI's default even budget split
    cases = (  # file, dims, kind, dims split per level, depth cap, count scale, leaf depth
        ("tree2.json", 2, "privtree", 2, DEPTH_CAP, 1.0 / eps_counts, None),
        ("tree4.json", 4, "privtree", 2, DEPTH_CAP, 1.0 / eps_counts, None),
        ("grid2.json", 2, "grid", None, 1, 1.0 / EPSILON, None),
        # Only depth h-1 leaves were forced to stop; a shallower leaf stopped
        # because its own noisy count was low, which biases its residual.
        ("simple2.json", 2, "simple", 2, h - 1, h / EPSILON, h - 1),
    )
    for name, d, kind, per_level, cap, scale, depth in cases:
        tree = Tree(load_json(workdir / name), d, kind, per_level, cap)
        if tree.fails:
            fails += [f"{name}: {f}" for f in tree.fails]
            continue
        fails += released_residuals(tree, pts[d], scale, f"{name} leaf counts", depth)
        notes.append(f"{name}: {len(tree.nodes)} nodes, {len(tree.leaves())} leaves")

    runner = passes.Runner()
    for d in (2, 4):
        out = f"noiseless{d}.json"
        runner.cli(passes.spatial_build_args(workdir, d, seed, out, noiseless=True))
        if not runner.failed:
            expected = noiseless_privtree(pts[d], d, 2, EPSILON / 2.0)
            fails += compare_noiseless(load_json(workdir / out), expected, f"--noiseless {d}-d build")
    if runner.failed:
        fails.append("a check-time --noiseless spatial-build failed")
    return fails, notes


# ---------------------------------------------------------------------------
# range queries
# ---------------------------------------------------------------------------


def leaf_sum_estimates(tree_doc, boxes, d):
    """Sum over leaves of released count x overlap volume fraction, and the
    sum of the terms' magnitudes, for every query box."""
    leaves = [v for v in tree_doc["nodes"] if not v["children"]]
    lo = np.array([v["lo"] for v in leaves])
    hi = np.array([v["hi"] for v in leaves])
    cnt = np.array([v["noisy_count"] for v in leaves])
    width = hi - lo
    est, mass = np.empty(len(boxes)), np.empty(len(boxes))
    step = max(1, 2_000_000 // len(leaves))
    for a in range(0, len(boxes), step):
        q = boxes[a:a + step]
        frac = np.ones((q.shape[0], len(leaves)))
        for j in range(d):
            ov = np.minimum(hi[:, j], q[:, d + j, None]) - np.maximum(lo[:, j], q[:, j, None])
            frac *= np.clip(ov, 0.0, None) / width[:, j]
        est[a:a + step] = frac @ cnt
        mass[a:a + step] = frac @ np.abs(cnt)
    return est, mass


def brute_force_counts(pts, boxes, d):
    return np.array([
        int(((pts >= b[:d]) & (pts < b[d:])).all(axis=1).sum()) for b in boxes
    ])


def check_query_report(report, tree_doc, pts, boxes, d, sample, what):
    fails = []
    rows = report.get("queries", [])
    if len(rows) != len(boxes) or report.get("aggregates", {}).get("count") != len(boxes):
        return [f"{what}: {len(rows)} answers for {len(boxes)} queries"], None
    est = np.array([r["estimate"] for r in rows])
    exact = np.array([r["exact"] for r in rows])
    rel = np.array([r["rel_error"] for r in rows])

    truth = brute_force_counts(pts, boxes[sample], d)
    bad = np.flatnonzero(exact[sample] != truth)
    if bad.size:
        i = sample[bad[0]]
        fails.append(f"{what}: query {i} exact count {exact[i]:g}, brute force gives {truth[bad[0]]}")

    mine, mass = leaf_sum_estimates(tree_doc, boxes, d)
    off = np.abs(est - mine) > 1e-9 * mass + 1e-9
    if off.any():
        i = int(np.flatnonzero(off)[0])
        fails.append(f"{what}: {int(off.sum())} estimates differ from the leaf sum (query {i}: {est[i]!r} vs {mine[i]!r})")

    delta = 0.001 * pts.shape[0]  # the CLI's default smoothing
    want = np.abs(est - exact) / np.maximum(exact, delta)
    if report.get("delta") != delta or not np.allclose(rel, want, rtol=1e-12, atol=0.0):
        fails.append(f"{what}: relative errors do not recompute from the estimates")
    agg = report["aggregates"]
    if not (math.isclose(agg["mean_rel_error"], float(want.mean()), rel_tol=1e-12)
            and math.isclose(agg["median_rel_error"], float(np.median(want)), rel_tol=1e-12)):
        fails.append(f"{what}: aggregate relative errors do not recompute")
    per = len(boxes) // len(SIZE_CLASSES)
    medians = ", ".join(
        f"{c} {float(np.median(want[i * per:(i + 1) * per])):.4f}" for i, c in enumerate(SIZE_CLASSES)
    )
    return fails, f"{what}: median relative error {medians}"


def check_spatial_query(workdir, seed, sizes):
    fails, notes = [], []
    rng = np.random.default_rng(seed)
    for artifact, d in passes.QUERY_RUNS:
        boxes = np.load(workdir / f"queries{d}.npy")
        pts = np.load(workdir / f"points{d}.npy")
        sample = np.sort(rng.choice(len(boxes), size=min(150, len(boxes)), replace=False))
        f, note = check_query_report(
            load_json(workdir / f"report_{artifact}.json"), load_json(workdir / f"{artifact}.json"),
            pts, boxes, d, sample, artifact,
        )
        fails += f
        if note:
            notes.append(note)
    return fails, notes


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class SuffixCounts:
    """Exact next-symbol histograms of every context suffix, counted from the
    corpus text.

    Records are capped at L_MAX emitted symbols: a record shorter than L_MAX
    is followed by the end marker, a longer one is cut to its first L_MAX
    symbols.  The position before symbol i has the context START + the i-1
    symbols before it.  Histograms are dicts keyed by token.
    """

    def __init__(self, lines, l_max=L_MAX):
        records = [line.split() for line in lines if line.strip()]
        self.tokens = [START, END] + list(SYMBOLS)
        code = {t: i for i, t in enumerate(self.tokens)}
        width = max(len(r) for r in records)
        mat = np.full((len(records), width), -1)
        for i, r in enumerate(records):
            mat[i, : len(r)] = [code[t] for t in r]
        raw_len = np.array([len(r) for r in records])
        kept = np.minimum(raw_len, l_max)
        emitted = kept + (raw_len < l_max)
        self.rec = np.repeat(np.arange(len(records)), emitted)
        self.pos = np.concatenate([np.arange(e) for e in emitted])  # 0-based symbol index
        nxt = mat[self.rec, np.minimum(self.pos, width - 1)]
        self.next = np.where(self.pos < kept[self.rec], nxt, code[END])
        self.mat = mat
        self._tables = {}

    def _back(self, j):
        """Context symbol j steps back from each position (-1 past the start)."""
        idx = self.pos - 1 - j
        sym = self.mat[self.rec, np.maximum(idx, 0)]
        return np.where(idx >= 0, sym, np.where(idx == -1, 0, -1))

    def _table(self, m):
        if m not in self._tables:
            if m > 16:
                raise ValueError("predictor too deep for the key encoding")
            key = np.zeros(self.pos.size, dtype=np.int64)
            for j in range(m):
                key = key * 12 + (self._back(j) + 2)
            uniq, counts = np.unique(key * 16 + self.next, return_counts=True)
            self._tables[m] = (uniq, counts)
        return self._tables[m]

    def hist(self, predictor):
        """Histogram of the positions whose context ends with ``predictor``
        (oldest symbol first)."""
        m = len(predictor)
        uniq, counts = self._table(m)
        key = 0
        for tok in reversed(predictor):
            key = key * 12 + self.tokens.index(tok) + 2
        a, b = np.searchsorted(uniq, [key * 16, key * 16 + 16])
        out = {t: 0.0 for t in [END, *SYMBOLS]}
        for u, c in zip(uniq[a:b], counts[a:b]):
            out[self.tokens[u % 16]] = float(c)
        return out


def pst_parameters(epsilon, l_max=L_MAX, n_symbols=len(SYMBOLS)):
    """(lam, delta, histogram scale) of a seq-build at the default budget split."""
    beta = n_symbols + 1
    eps_tree = epsilon / beta
    lam = (2.0 * beta - 1.0) / (beta - 1.0) * l_max / eps_tree
    return lam, lam * math.log(beta), l_max / (epsilon - eps_tree)


def oracle_pst(counts, epsilon, theta=0.0, depth_cap=DEPTH_CAP):
    """Predictor set of a noiseless build: the split rule on exact scores
    (magnitude minus max), with START-prefixed predictors never split."""
    _, delta, _ = pst_parameters(epsilon)
    out, queue = {}, deque([()])
    while queue:
        pred = queue.popleft()
        h = counts.hist(pred)
        out[pred] = h
        if (pred and pred[0] == START) or len(pred) >= depth_cap:
            continue
        score = sum(h.values()) - max(h.values())
        if max(theta - delta, score - len(pred) * delta) > theta:
            queue.extend((s,) + pred for s in (START, *SYMBOLS))
    return out


class Pst:
    """A released PST document, read without the library."""

    def __init__(self, doc):
        self.fails = []
        self.hist = {}  # predictor tuple -> histogram dict
        raw = doc.get("nodes", [])
        n = len(raw)
        if sorted(v.get("id", -1) for v in raw) != list(range(n)):
            self.fails.append("PST node ids are not 0..n-1")
            return
        nodes = {v["id"]: v for v in raw}
        parents = [0] * n
        for v in raw:
            pred = tuple(v["predictor"])
            h = v.get("hist")
            if h is None or set(h) != {END, *SYMBOLS}:
                self.fails.append(f"PST node {pred} lacks a full histogram")
                return
            if any(not (math.isfinite(c) and c >= 0.0) for c in h.values()):
                self.fails.append(f"PST node {pred} has a negative or non-finite count")
            self.hist[pred] = h
            ch = v["children"]
            if ch and set(ch) != {START, *SYMBOLS}:
                self.fails.append(f"PST node {pred} has children {sorted(ch)}")
            if ch and pred and pred[0] == START:
                self.fails.append(f"START-prefixed node {pred} is not a leaf")
            for sym, c in ch.items():
                if not (isinstance(c, int) and 0 <= c < n) or tuple(nodes[c]["predictor"]) != (sym,) + pred:
                    self.fails.append(f"PST node {pred} has a wrong child under {sym!r}")
                    return
                parents[c] += 1
        roots = [v["id"] for v in raw if not v["predictor"]]
        if len(self.hist) != n or len(roots) != 1:
            self.fails.append("PST predictors are not distinct with one empty root")
        elif parents[roots[0]] or any(p != 1 for i, p in enumerate(parents) if i != roots[0]):
            self.fails.append("not every non-root PST node has exactly one parent")
        self.leaves = [tuple(v["predictor"]) for v in raw if not v["children"]]

    def node_for(self, context):
        """Histogram of the deepest node whose predictor is a suffix of ``context``."""
        for m in range(len(context), -1, -1):
            h = self.hist.get(tuple(context[len(context) - m:]))
            if h is not None:
                return h
        raise KeyError("no root")

    def estimate(self, s):
        """Root count of the first symbol times the next-symbol ratios of the
        deepest matching contexts (the context never includes START)."""
        ans = self.hist[()][s[0]]
        for i in range(1, len(s)):
            if ans == 0.0:
                return 0.0
            h = self.node_for(s[:i])
            mag = sum(h.values())
            if mag == 0.0:
                return 0.0
            ans *= h[s[i]] / mag
        return ans


def check_pst(doc, counts, epsilon, what):
    pst = Pst(doc)
    if pst.fails:
        return [f"{what}: {f}" for f in pst.fails], pst
    _, _, scale = pst_parameters(epsilon)
    residuals = []
    for pred in pst.leaves:
        exact = counts.hist(pred)
        residuals += [pst.hist[pred][t] - c for t, c in exact.items() if c >= 10.0 * scale]
    return laplace_fit(residuals, scale, f"{what} leaf histograms"), pst


def check_oracle(doc, counts, epsilon, what):
    pst = Pst(doc)
    if pst.fails:
        return [f"{what}: {f}" for f in pst.fails]
    oracle = oracle_pst(counts, epsilon)
    if set(pst.hist) != set(oracle):
        diff = sorted(set(pst.hist) ^ set(oracle), key=len)[:3]
        return [f"{what}: predictor set differs from the suffix-count oracle, e.g. {diff}"]
    bad = [p for p in oracle if pst.hist[p] != oracle[p]]
    if bad:
        return [f"{what}: histogram of {bad[0]} is {pst.hist[bad[0]]}, the oracle gives {oracle[bad[0]]}"]
    return []


def check_topk(rows, pst, k, what="top-k"):
    fails = []
    strings = [tuple(r["string"]) for r in rows]
    est = [r["estimate"] for r in rows]
    if len(rows) != k or len(set(strings)) != k:
        return [f"{what}: {len(rows)} rows with {len(set(strings))} distinct strings, expected {k}"]
    if any(t not in SYMBOLS for s in strings for t in s):
        return [f"{what}: strings with tokens outside the alphabet"]
    if any(a < b for a, b in zip(est, est[1:])):
        fails.append(f"{what}: estimates increase along the list")
    mine = [pst.estimate(s) for s in strings]
    off = [i for i, (a, b) in enumerate(zip(est, mine)) if abs(a - b) > 1e-9 * max(1.0, abs(b))]
    if off:
        fails.append(f"{what}: {len(off)} estimates differ from the histogram-ratio product (row {off[0]})")
    listed, last = set(strings), est[-1]
    short = [(a,) for a in SYMBOLS] + [(a, b) for a in SYMBOLS for b in SYMBOLS]
    short += [(a, b, c) for a in SYMBOLS for b in SYMBOLS for c in SYMBOLS]
    beats = [s for s in short if s not in listed and pst.estimate(s) > last * (1 + 1e-9)]
    if beats:
        fails.append(f"{what}: {len(beats)} unlisted short strings beat the last estimate, e.g. {beats[0]}")
    return fails


def check_estimates(rows, pst, what="estimate batch"):
    off = [r for r in rows if abs(r["estimate"] - pst.estimate(r["string"])) > 1e-9 * max(1.0, abs(r["estimate"]))]
    return [f"{what}: {len(off)} estimates differ from the histogram-ratio product"] if off else []


def check_synth(text, pst, count, what="seq-synth"):
    """Tokens in the alphabet, lengths within L_MAX, and first-symbol shares
    near the histogram generation starts from: the root's START child
    (predictor "$"), or the root when the root never split."""
    parts = text.split("\n")
    if len(parts) == count + 1 and parts[-1] == "":
        parts.pop()
    if len(parts) != count:
        return [f"{what}: {len(parts)} sequences, expected {count}"]
    seqs = [p.split() for p in parts]
    fails = []
    if any(t not in SYMBOLS for s in seqs for t in s):
        fails.append(f"{what}: tokens outside the alphabet")
    if any(len(s) > L_MAX for s in seqs):
        fails.append(f"{what}: sequences longer than l_max={L_MAX}")
    start = pst.hist.get((START,), pst.hist[()])
    atoms = [END, *SYMBOLS]
    total = sum(start.values())
    p = np.array([start[a] / total for a in atoms])
    firsts = [s[0] if s else END for s in seqs]
    q = np.array([firsts.count(a) / count for a in atoms])
    tv = 0.5 * float(np.abs(p - q).sum())
    bound = 0.5 * float((Z * np.sqrt(p * (1 - p) / count)).sum()) + 1.0 / count
    if tv > bound:
        fails.append(f"{what}: first-symbol total variation {tv:.4f} exceeds {bound:.4f}")
    return fails


def check_sequence(workdir, seed, sizes):
    fails, notes = [], []
    with open(workdir / "seqs.txt", encoding="utf-8") as fh:
        counts = SuffixCounts(fh.readlines())
    psts = {}
    for eps in SEQ_EPSILONS:
        f, psts[eps] = check_pst(load_json(workdir / passes.pst_name(eps)), counts, eps, f"PST eps={eps:g}")
        fails += f
        notes.append(f"PST eps={eps:g}: {len(psts[eps].hist)} nodes")

    runner = passes.Runner()
    # The noiseless twin of the model the read path uses.
    runner.cli(passes.seq_build_args(workdir, SEQ_EPSILONS[-1], seed, "pst_noiseless.json", noiseless=True))
    if runner.failed:
        return fails + ["the check-time --noiseless seq-build failed"], notes
    noiseless = load_json(workdir / "pst_noiseless.json")
    fails += check_oracle(noiseless, counts, SEQ_EPSILONS[-1], "--noiseless PST")

    model = psts[SEQ_EPSILONS[-1]]
    if model.fails:
        return fails, notes
    topk = load_json(workdir / "topk.json")
    fails += check_topk(topk, model, sizes.topk)
    fails += check_estimates(load_json(workdir / "estimates.json"), model)
    with open(workdir / "synth.txt", encoding="utf-8") as fh:
        fails += check_synth(fh.read(), model, sizes.synth)

    # Reference accuracy: overlap with the top-k of the noiseless model.
    reference = Pst(noiseless)
    if not reference.fails:
        exact = top_k_by_search(reference, sizes.topk)
        shared = len({tuple(r["string"]) for r in topk} & exact)
        notes.append(f"top-{sizes.topk} precision against the noiseless model: {shared / sizes.topk:.3f}")
    return fails, notes


def top_k_by_search(pst, k):
    """Best-first search over the model's own estimates (extensions never
    raise an estimate, so the first k popped are the k largest)."""
    heap = [(-pst.estimate((s,)), (s,)) for s in SYMBOLS]
    heapq.heapify(heap)
    out = set()
    while heap and len(out) < k:
        neg, s = heapq.heappop(heap)
        out.add(s)
        if len(s) < L_MAX:
            for t in SYMBOLS:
                heapq.heappush(heap, (-pst.estimate(s + (t,)), s + (t,)))
    return out


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# The improved-variant battery: scenario -> neighbour hops between its datasets.
IMPROVED_HOPS = {
    "insert-one-early-hit": 1, "insert-one-late-hit": 1, "remove-one-late-hit": 1,
    "all-suppressed": 1, "two-hits-budget-two": 1, "two-hits-removal": 1, "identical-datasets": 0,
}


def one_query_closed_form(v, bit, theta, lam):
    """ln P[v + Lap(lam) > theta + Lap(lam)] (bit 1) or its complement (bit 0).

    The difference of two independent Lap(lam) draws has survival function
    S(a) = exp(-a/lam) (2 + a/lam) / 4 for a >= 0, and 1 - S(-a) below 0.
    """
    a = theta - v
    s = math.exp(-abs(a) / lam) * (2.0 + abs(a) / lam) / 4.0
    above = s if a >= 0 else 1.0 - s
    return math.log(above if bit else 1.0 - above)


def check_audit_rows(rows, lam, k, what):
    fails = []
    by_variant = {}
    for r in rows:
        by_variant.setdefault(r["variant"], []).append(r)
    if len(rows) != 2 + len(IMPROVED_HOPS) or len(by_variant.get("binary", [])) != 1 or len(by_variant.get("vanilla", [])) != 1:
        return [f"{what}: {len(rows)} rows, expected one binary, one vanilla and {len(IMPROVED_HOPS)} improved"]
    (binary,), (vanilla,) = by_variant["binary"], by_variant["vanilla"]
    for r in (binary, vanilla):
        if r["verdict"] != "VIOLATES" or r["lambda"] != lam:
            fails.append(f"{what}: {r['variant']} row reports {r['verdict']} at lambda {r['lambda']}")
    if binary["k"] != k or not binary["log_ratio"] > k / (2.0 * lam):
        fails.append(f"{what}: binary log ratio {binary['log_ratio']!r} is not above k/(2 lambda) = {k / (2 * lam)}")
    kv = vanilla["k"]
    if not math.isclose(vanilla["log_ratio"], kv / lam, rel_tol=1e-12):
        fails.append(f"{what}: vanilla log ratio {vanilla['log_ratio']!r} != k/lambda = {kv / lam}")
    names = {r["scenario"] for r in by_variant.get("improved", [])}
    if names != set(IMPROVED_HOPS):
        return fails + [f"{what}: improved scenarios {sorted(names)}"]
    for r in by_variant["improved"]:
        bound = IMPROVED_HOPS[r["scenario"]] * 2.0 / lam
        if (r["verdict"] != "SATISFIES" or not math.isclose(r["claimed_bound"], bound, abs_tol=1e-12)
                or abs(r["log_ratio"]) > bound + 1e-9):
            fails.append(f"{what}: improved {r['scenario']} reports {r['verdict']}, log ratio {r['log_ratio']!r}, bound {bound}")
        if r["scenario"] == "identical-datasets" and r["log_ratio"] != 0.0:
            fails.append(f"{what}: identical datasets give log ratio {r['log_ratio']!r}")
    return fails


def check_audit(workdir, seed, sizes):
    fails, notes = [], []
    for point in passes.audit_plan(workdir):
        lam, k = point["lambda"], point["k"]
        rows = load_json(workdir / f"{point['name']}.json")
        fails += check_audit_rows(rows, lam, k, point["name"])
        kv = next((r["k"] for r in rows if r.get("variant") == "vanilla"), None)
        if kv is not None:
            quad = svt_audit.vanilla_svt_log_ratio_quad(kv, lam)
            if abs(quad - kv / lam) > 1e-8:
                fails.append(f"{point['name']}: vanilla quadrature {quad!r} != k/lambda {kv / lam}")
    for lam in sizes.lambdas:
        for v in (0.0, 1.0, 3.0):
            for bit in (0, 1):
                got = svt_audit.threshold_event_log_prob([v], [bit], 1.0, lam)
                want = one_query_closed_form(v, bit, 1.0, lam)
                if abs(got - want) > 1e-9:
                    fails.append(f"one-query event v={v} bit={bit} lambda={lam}: {got!r} vs closed form {want!r}")
    notes.append(f"{len(passes.audit_plan(workdir))} audit reports checked")
    return fails, notes


CHECKS = {
    "spatial-release": check_spatial_release,
    "spatial-query": check_spatial_query,
    "sequence": check_sequence,
    "audit": check_audit,
}
