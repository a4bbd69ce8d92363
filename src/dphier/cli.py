"""Batch command-line frontend.

Subcommands build released artifacts (trees, prediction suffix trees), answer
query workloads, mine and generate sequences, and run the mechanism audits.
Every subcommand is deterministic for a fixed ``--seed`` (and, where offered,
a fixed ``--jobs``).  A ``--config`` JSON file can override any flag of the
subcommand it is passed to.

Exit codes: 0 success, 1 configuration error, 2 input-data error,
3 numeric/quadrature error.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import evalbench, markov, spatial
from .dp_core import json_value
from .errors import InputDataError, ParameterError, QuadratureError


def _fail(code: int, err) -> None:
    click.echo(f"error: {err}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParameterError as exc:
            _fail(1, exc)
        except QuadratureError as exc:
            _fail(3, exc)
        except InputDataError as exc:
            _fail(2, exc)
        except OSError as exc:
            _fail(2, exc)

    return wrapper


def _config_kind(opt: click.Option) -> tuple:
    """The JSON type of a config value for ``opt``, and its name."""
    if opt.is_flag:
        return bool, "a boolean"
    if isinstance(opt.type, click.types.IntParamType):
        return int, "an integer"
    if isinstance(opt.type, click.types.FloatParamType):
        return float, "a number"
    return str, "a string"


def _apply_config(config_path, values: dict) -> dict:
    """Overlay a JSON config onto flag values; config entries win.  A key is
    the option's Python parameter name (``lam`` for ``--lambda``, ``fmt`` for
    ``--format``), where ``-`` may stand for ``_``.  A value must have its
    option's JSON type, be one of its choices, and may be null only where the
    option is optional with a default of None."""
    if config_path is None:
        return values
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{config_path}: invalid config JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{config_path}: config must be a JSON object")
    options = {opt.name: opt for opt in click.get_current_context().command.params}
    for key, val in doc.items():
        norm = key.replace("-", "_")
        if norm not in values:
            raise ParameterError(
                f"{config_path}: unknown config key {key!r}; the keys are the parameter "
                f"names {', '.join(sorted(values))}"
            )
        opt = options[norm]
        if val is None:
            if opt.default is not None or opt.required:
                raise ParameterError(f"{config_path}: config key {key!r} may not be null")
        else:
            kind, name = _config_kind(opt)
            try:
                json_value(val, kind, key)
            except (TypeError, OverflowError) as exc:
                raise ParameterError(
                    f"{config_path}: config key {key!r} must be {name}, got {val!r}"
                ) from exc
            if isinstance(opt.type, click.Choice) and val not in opt.type.choices:
                raise ParameterError(
                    f"{config_path}: config key {key!r} must be one of "
                    f"{list(opt.type.choices)}, got {val!r}"
                )
        values[norm] = val
    return values


def _warn_noiseless(noiseless: bool) -> None:
    if noiseless:
        click.echo(
            "WARNING: --noiseless disables all noise; the output is NOT private "
            "(test/oracle use only).",
            err=True,
        )


def _parse_vector(text, what: str):
    try:
        return tuple(float(f) for f in str(text).split(","))
    except ValueError as exc:
        raise ParameterError(f"{what} must be comma-separated numbers: {exc}") from exc


def _write_text(path, text: str) -> None:
    if path is None:
        click.echo(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _check_jobs(jobs: int) -> None:
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ParameterError(f"jobs must be in [1, {cpus}] (the CPU count), got {jobs}")


@click.group()
def main() -> None:
    """Differentially private hierarchical decompositions."""


@main.command("spatial-build")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--epsilon", type=float, default=None, help="total privacy budget")
@click.option("--theta", type=float, default=0.0, show_default=True)
@click.option("--fanout", type=int, default=None, help="children per split (power of two); default 2^d")
@click.option("--depth-cap", type=int, default=spatial.DEFAULT_DEPTH_CAP, show_default=True)
@click.option("--budget-split", type=float, default=0.5, show_default=True,
              help="fraction of epsilon spent on the tree structure")
@click.option("--domain-lo", default=None, help="comma-separated public lower bounds (required)")
@click.option("--domain-hi", default=None, help="comma-separated public upper bounds (required)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--noiseless", is_flag=True, help="test-only; output is NOT private")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_spatial_build(**kw):
    """Build a released decomposition tree with noisy leaf counts."""
    kw = _apply_config(kw.pop("config_path"), kw)
    spatial.check_release_args(kw["epsilon"], kw["budget_split"], kw["fanout"], kw["depth_cap"])
    _warn_noiseless(kw["noiseless"])

    points = spatial.load_points_csv(kw["input_path"])
    if points.size == 0:
        raise InputDataError(f"{kw['input_path']}: no points found")
    if kw["domain_lo"] is None or kw["domain_hi"] is None:
        # bounds read off the points would release them, so they are public input
        raise ParameterError("--domain-lo and --domain-hi are required (public bounds)")
    domain = spatial.SpatialDomain(
        _parse_vector(kw["domain_lo"], "domain-lo"),
        _parse_vector(kw["domain_hi"], "domain-hi"),
    )
    data = spatial.SpatialDataset(domain, points)

    t0 = time.perf_counter()
    tree = spatial.release_privtree(
        data, kw["epsilon"], budget_split=kw["budget_split"], fanout=kw["fanout"],
        depth_cap=kw["depth_cap"], theta=kw["theta"], seed=kw["seed"],
        noiseless=kw["noiseless"],
    )
    elapsed = time.perf_counter() - t0
    tree.save(kw["output_path"])
    click.echo(
        f"built tree: {tree.n_nodes} nodes, {tree.n_leaves} leaves, "
        f"{elapsed:.3f}s; wrote {kw['output_path']}"
    )


@main.command("range-query")
@click.option("--tree", "tree_path", required=True, type=click.Path())
@click.option("--workload", "workload_path", required=True, type=click.Path())
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--data", "data_path", type=click.Path(), default=None,
              help="ground-truth points CSV; enables relative errors")
@click.option("--delta", type=float, default=None,
              help="relative-error smoothing; default 0.001*n")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json",
              show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_range_query(**kw):
    """Answer a range-count workload over a released tree."""
    kw = _apply_config(kw.pop("config_path"), kw)
    if kw["data_path"] is None and kw["delta"] is not None:
        raise ParameterError("--delta needs --data (it smooths relative errors)")
    tree = spatial.load_tree(kw["tree_path"])
    queries = spatial.load_workload_csv(kw["workload_path"], tree.dims)
    if kw["data_path"] is None:
        answers = spatial.range_counts(tree, queries).tolist()
        doc = {"count": len(answers), "answers": answers}
        if kw["fmt"] == "table":
            lines = [f"{'#':>6}  {'estimate':>14}", "-" * 22]
            lines += [f"{i:>6}  {a:>14.3f}" for i, a in enumerate(answers)]
            _write_text(kw["output_path"], "\n".join(lines))
        else:
            _write_text(kw["output_path"], _dump_json(doc))
        return
    points = spatial.load_points_csv(kw["data_path"])
    data = spatial.SpatialDataset(tree.domain, points)
    report = evalbench.evaluate_queries(
        tree, data, queries, delta=kw["delta"], label=Path(kw["tree_path"]).name
    )
    if kw["fmt"] == "table":
        _write_text(kw["output_path"], report.to_text_table())
    else:
        _write_text(kw["output_path"], report.dumps())


@main.command("seq-build")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--epsilon", type=float, default=None)
@click.option("--lmax", type=int, default=None, help="sequence length cap (required)")
@click.option("--theta", type=float, default=0.0, show_default=True)
@click.option("--budget-split", type=float, default=None,
              help="fraction of epsilon for the structure; default 1/(|alphabet|+1)")
@click.option("--depth-cap", type=int, default=spatial.DEFAULT_DEPTH_CAP, show_default=True)
@click.option("--alphabet", default=None,
              help="public alphabet, whitespace-separated; inferred (not private) if omitted")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--noiseless", is_flag=True, help="test-only; output is NOT private")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_seq_build(**kw):
    """Build a released prediction suffix tree from sequence records."""
    kw = _apply_config(kw.pop("config_path"), kw)
    epsilon = kw["epsilon"]
    if epsilon is None or not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if kw["lmax"] is None:
        raise ParameterError("--lmax is required (sequence length cap)")
    alphabet = kw["alphabet"]
    if alphabet is not None:
        alphabet = markov.Alphabet(tuple(alphabet.split()))
    _warn_noiseless(kw["noiseless"])
    raw = markov.load_sequences(kw["input_path"])
    if not raw:
        raise InputDataError(f"{kw['input_path']}: no sequences found")
    data = markov.truncate_sequences(raw, kw["lmax"], alphabet)
    if alphabet is None:
        click.echo(
            "NOTE: alphabet inferred from the data; an inferred alphabet lists every token "
            "of the records and is not private. Prefer a fixed public alphabet (--alphabet).",
            err=True,
        )
    rng = np.random.default_rng(np.random.SeedSequence(kw["seed"]))
    t0 = time.perf_counter()
    pst = markov.build_private_pst(
        data,
        epsilon,
        rng,
        theta=kw["theta"],
        tree_budget_fraction=kw["budget_split"],
        depth_cap=kw["depth_cap"],
        noiseless=kw["noiseless"],
    )
    elapsed = time.perf_counter() - t0
    pst.save(kw["output_path"])
    click.echo(
        f"built PST: {len(pst.preds)} nodes over alphabet size "
        f"{pst.alphabet.size}, {elapsed:.3f}s; wrote {kw['output_path']}"
    )


@main.command("seq-topk")
@click.option("--pst", "pst_path", required=True, type=click.Path())
@click.option("--k", type=int, required=True)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_seq_topk(**kw):
    """Mine the k highest-estimate strings from a released PST."""
    kw = _apply_config(kw.pop("config_path"), kw)
    pst = markov.load_pst(kw["pst_path"])
    rows = markov.top_k_strings(pst, kw["k"])
    doc = [{"string": list(s), "estimate": est} for s, est in rows]
    _write_text(kw["output_path"], _dump_json(doc))


def _synth_chunk(pst, count: int, seed_seq) -> list:
    return markov.generate_sequences(pst, count, np.random.default_rng(seed_seq))


@main.command("seq-synth")
@click.option("--pst", "pst_path", required=True, type=click.Path())
@click.option("--count", type=int, required=True)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="parallel workers; output depends on (seed, jobs) only")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_seq_synth(**kw):
    """Generate synthetic sequences from a released PST."""
    kw = _apply_config(kw.pop("config_path"), kw)
    if kw["count"] < 0:
        raise ParameterError("count must be nonnegative")
    _check_jobs(kw["jobs"])
    pst = markov.load_pst(kw["pst_path"])
    jobs = min(kw["jobs"], max(kw["count"], 1))
    ss = np.random.SeedSequence(kw["seed"])
    children = ss.spawn(jobs)
    base, rem = divmod(kw["count"], jobs)
    chunk_sizes = [base + (1 if i < rem else 0) for i in range(jobs)]
    if jobs == 1:
        chunks = [_synth_chunk(pst, kw["count"], children[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_synth_chunk, [pst] * jobs, chunk_sizes, children))
    lines = [" ".join(seq) for chunk in chunks for seq in chunk]
    _write_text(kw["output_path"], "\n".join(lines))


_VARIANTS = ("all", "binary", "vanilla", "improved")


@main.command("svt-audit")
@click.option("--variant", default="all", show_default=True,
              help="one of: " + ", ".join(_VARIANTS))
@click.option("--k", type=int, default=16, show_default=True)
@click.option("--lambda", "lam", type=float, default=2.0, show_default=True)
@click.option("--theta", type=float, default=1.0, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json",
              show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def cmd_svt_audit(**kw):
    """Exact probability-ratio audit of the threshold-mechanism variants."""
    from . import svt_audit  # SciPy loads only for the audit
    kw = _apply_config(kw.pop("config_path"), kw)
    variant = kw["variant"].lower()
    _check_jobs(kw["jobs"])
    rows = svt_audit.run_default_audit(
        lam=kw["lam"], theta=kw["theta"], k=kw["k"], jobs=kw["jobs"], variant=variant
    )
    if kw["fmt"] == "table":
        width = max([len("scenario")] + [len(r["scenario"]) for r in rows])
        head = (
            f"{'variant':<10} {'scenario':<{width}} {'k':>4} {'lambda':>7} "
            f"{'t':>4} {'log_ratio':>12} {'bound':>8} verdict"
        )
        lines = [head, "-" * len(head)]
        for r in rows:
            lines.append(
                f"{r['variant']:<10} {r['scenario']:<{width}} {r['k']:>4} "
                f"{r['lambda']:>7.3f} {str(r['t']):>4} {r['log_ratio']:>12.6f} "
                f"{r['claimed_bound']:>8.3f} {r['verdict']}"
            )
        _write_text(kw["output_path"], "\n".join(lines))
    else:
        _write_text(kw["output_path"], _dump_json(rows))


if __name__ == "__main__":
    main()
