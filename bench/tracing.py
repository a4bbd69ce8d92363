"""Per-layer tracing by wrapping the program's public functions at run time.

No file of the library changes.  A wrapper replaces a function on every
module global through which the program looks it up (``spatial.sample_laplace``
and ``markov.sample_laplace`` are bound at import, for example, so wrapping
``dp_core.sample_laplace`` alone would miss them).  Wrappers draw no
randomness and pass every argument and result through unchanged.

Self time is a span's duration minus the durations of the wrapped calls
beneath it.
"""

from __future__ import annotations

import os
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from dphier import cli, dp_core, evalbench, markov, spatial, svt_audit

COMMANDS = ("spatial-build", "range-query", "seq-build", "seq-topk", "seq-synth", "svt-audit")

# (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [
        ("dp_core.sample_laplace.calls", "count"),
        ("dp_core.sample_laplace.draws", "count"),
        ("dp_core.sample_laplace.self_s", "s"),
        ("spatial.load_points_csv.self_s", "s"),
        ("spatial.build_privtree.self_s", "s"),
        ("spatial.attach_noisy_counts.self_s", "s"),
        ("spatial.build_ug.self_s", "s"),
        ("spatial.build_simple_tree.self_s", "s"),
        ("spatial.tree_save.self_s", "s"),
        ("spatial.tree_nodes", "count"),
        ("spatial.artifact_bytes", "bytes"),
        ("spatial.load_tree.self_s", "s"),
        ("spatial.load_workload_csv.self_s", "s"),
        ("spatial.range_count.calls", "count"),
        ("spatial.range_count.self_s", "s"),
        ("spatial.range_count.p50_us", "us"),
        ("spatial.range_count.p99_us", "us"),
        ("evalbench.evaluate_queries.self_s", "s"),
        ("evalbench.exact_range_counts.self_s", "s"),
        ("evalbench.queries", "count"),
        ("markov.load_sequences.self_s", "s"),
        ("markov.truncate_sequences.self_s", "s"),
        ("markov.build_private_pst.self_s", "s"),
        ("markov.pst_save.self_s", "s"),
        ("markov.load_pst.self_s", "s"),
        ("markov.pst_from_json_dict.calls", "count"),
        ("markov.top_k_strings.self_s", "s"),
        ("markov.estimate_string_count.self_s", "s"),
        ("markov.generate_sequences.self_s", "s"),
        ("markov.generated_symbols", "count"),
        ("markov.pst_nodes", "count"),
        ("markov.artifact_bytes", "bytes"),
        ("svt_audit.run_default_audit.self_s", "s"),
        ("svt_audit.threshold_event_log_prob.calls", "count"),
        ("svt_audit.threshold_event_log_prob.self_s", "s"),
        ("svt_audit.quad.calls", "count"),
        ("svt_audit.quad.neval", "count"),
        ("svt_audit.quad.self_s", "s"),  # integrand evaluations run inside quad
        ("svt_audit.rows", "count"),
        ("trace.overhead_s", "s"),
    ]
)

_MODULES = (cli, dp_core, evalbench, markov, spatial, svt_audit)
_PER_CALL = {"spatial.range_count"}  # spans whose call durations give percentiles


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self._stack = [0.0]  # time covered by wrapped children, per open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)

    def span(self, name, fn, after=None):
        """Wrap ``fn`` as span ``name``; ``after(tracer, args, kwargs, result)``
        records counts once the call has returned."""

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                children = self._stack.pop()
                self._stack[-1] += duration
                self.self_s[name] += duration - children
                self.calls[name] += 1
                if name in _PER_CALL:
                    self.durations[name].append(duration)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            base, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            elif stat == "calls":
                out[name] = self.calls.get(base, 0)
            elif stat in ("p50_us", "p99_us"):
                d = self.durations.get(base)
                q = 50 if stat == "p50_us" else 99
                out[name] = float(np.percentile(d, q)) * 1e6 if d else 0.0
            elif name != "trace.overhead_s":
                out[name] = self.counts.get(name, 0)
        return out


def _count(metric, measure):
    def after(tracer, args, kwargs, result):
        tracer.counts[metric] += measure(args, kwargs, result)

    return after


def _laplace_draws(args, kwargs, result):
    size = kwargs["size"] if "size" in kwargs else (args[2] if len(args) > 2 else None)
    return 1 if size is None else int(np.prod(size))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])  # (self, path)


def _tree_nodes(args, kwargs, result):
    return len(result.nodes)


def _quad_neval(args, kwargs, result):
    return result[2]["neval"] if kwargs.get("full_output") else 0


# (module, attribute, span name, after-hook) for every wrapped function
_FUNCTIONS = (
    (dp_core, "sample_laplace", "dp_core.sample_laplace", _count("dp_core.sample_laplace.draws", _laplace_draws)),
    (spatial, "load_points_csv", "spatial.load_points_csv", None),
    (spatial, "build_privtree", "spatial.build_privtree", _count("spatial.tree_nodes", _tree_nodes)),
    (spatial, "attach_noisy_counts", "spatial.attach_noisy_counts", None),
    (spatial, "build_ug", "spatial.build_ug", _count("spatial.tree_nodes", _tree_nodes)),
    (spatial, "build_simple_tree", "spatial.build_simple_tree", _count("spatial.tree_nodes", _tree_nodes)),
    (spatial, "load_tree", "spatial.load_tree", _count("spatial.tree_nodes", _tree_nodes)),
    (spatial, "load_workload_csv", "spatial.load_workload_csv", None),
    (spatial, "range_count", "spatial.range_count", None),
    (evalbench, "evaluate_queries", "evalbench.evaluate_queries",
     _count("evalbench.queries", lambda a, k, r: len(r.estimates))),
    (evalbench, "exact_range_counts", "evalbench.exact_range_counts", None),
    (markov, "load_sequences", "markov.load_sequences", None),
    (markov, "truncate_sequences", "markov.truncate_sequences", None),
    (markov, "build_private_pst", "markov.build_private_pst", _count("markov.pst_nodes", _tree_nodes)),
    (markov, "load_pst", "markov.load_pst", None),
    (markov, "pst_from_json_dict", "markov.pst_from_json_dict", _count("markov.pst_nodes", _tree_nodes)),
    (markov, "top_k_strings", "markov.top_k_strings", None),
    (markov, "estimate_string_count", "markov.estimate_string_count", None),
    (markov, "generate_sequences", "markov.generate_sequences",
     _count("markov.generated_symbols", lambda a, k, r: sum(len(s) for s in r))),
    (svt_audit, "run_default_audit", "svt_audit.run_default_audit",
     _count("svt_audit.rows", lambda a, k, r: len(r))),
    (svt_audit, "threshold_event_log_prob", "svt_audit.threshold_event_log_prob", None),
)

_METHODS = (
    (spatial.DecompTree, "save", "spatial.tree_save", _count("spatial.artifact_bytes", _file_bytes)),
    (markov.Pst, "save", "markov.pst_save", _count("markov.artifact_bytes", _file_bytes)),
)


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them."""
    saved = []

    def replace(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module, attr, name, after in _FUNCTIONS:
        original = getattr(module, attr)
        wrapped = tracer.span(name, original, after)
        for mod in _MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, key, wrapped)
    for cls, attr, name, after in _METHODS:
        replace(cls, attr, tracer.span(name, getattr(cls, attr), after))
    # svt_audit calls scipy through its module global ``integrate``; a
    # namespace in its place wraps quad for svt_audit alone.
    quad = tracer.span("svt_audit.quad", svt_audit.integrate.quad, _count("svt_audit.quad.neval", _quad_neval))
    replace(svt_audit, "integrate", types.SimpleNamespace(quad=quad))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore
