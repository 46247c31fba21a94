"""Command-line interface.

Subcommands: ``agree`` (pairwise benchmark agreement), ``align``
(significance-aware paired rankings for one benchmark pair), ``pca``
(explained variance and first-component scores), ``flops`` (pre-training
compute accounting), ``simulate`` (synthetic score matrices), ``report``
(all figure-data tables for a direct vs train-before-test pair of score
matrices).

Every artifact embeds one run manifest, built from the parsed arguments
before the subcommand runs: each file argument, read once, with the sha256
of the bytes the subcommand parses, and every other option with its
resolved value.  Exit codes: 0 success, 1 usage error (reported before any
input is read), 2 input validation failure or an unwritable artifact path,
3 numerical degeneracy.  One machine-parsable reason line is printed to
stderr on failure.  No artifact file is written when a run fails before
writing; when writing itself fails, the files written before the failure
(and directories created for them) remain, since writes are not atomic.
``run_cli`` may be called any number of times in one process: the parser is
built on the first call, reused after it, and holds no per-run state.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np

from . import __version__, lowrank
from .alignment import crossing_count, rank_models
from .core import (
    DegenerateError,
    ScoreMatrix,
    make_score_matrix,
    oriented_scores,
)
from .io import (
    LoadError,
    RunManifest,
    _envelope,
    _Input,
    infer_format,
    load_benchmark_categories,
    load_json_object,
    load_model_metadata,
    load_scores,
    render_artifact,
    render_scores_csv,
    render_scores_json,
)
from .lowrank import ComputeRecord, compute_flops, explained_variance_share, fit_pca, pc1_compute_correlation
from .rankstats import (
    SignificanceConfig,
    TieError,
    _defined_mean,
    agreement_matrix,
    category_agreement,
    mean_agreement,
)
from .synth import SyntheticConfig, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

_CLI_MODES = {"direct": "direct", "tbt": "train_before_test"}
#: Parsed arguments that name input files; the manifest records each with its
#: sha256.  Every other parsed option is recorded as a flag.
_INPUT_ARGS = ("scores", "scores_a", "scores_b", "scores_direct", "scores_tbt", "categories", "models", "config")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# argparse ``type=`` validators: a bad value is a usage error before any input is read
def _alpha(text: str) -> float:
    try:
        return SignificanceConfig(alpha=float(text)).alpha
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _int_at_least(n: int):
    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            k = n - 1
        if k < n:
            raise argparse.ArgumentTypeError(f"must be an integer >= {n}, got {text!r}")
        return k

    return parse


def _align_pair(text: str) -> str:
    if ":" not in text:
        raise argparse.ArgumentTypeError(f"must look like BENCH_A:BENCH_B, got {text!r}")
    return text


@functools.cache  # built on the first run_cli call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="benchrank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"benchrank {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("agree", help="pairwise rank agreement between benchmarks")
    p.add_argument("--scores", required=True)
    p.add_argument("--method", choices=["tau", "tau-b"], default="tau")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_agree)

    p = sub.add_parser("align", help="aligned paired rankings for two benchmarks")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--benchmark-a", required=True)
    p.add_argument("--benchmark-b", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("pca", help="explained variance and pc1 scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--preprocess", choices=lowrank.PREPROCESSINGS, default="center")
    p.add_argument("--top-k", type=_int_at_least(1), default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pca)

    p = sub.add_parser("flops", help="pre-training compute per model")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("simulate", help="generate a synthetic score matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=sorted(_CLI_MODES), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="all figure-data tables for a direct/train-before-test pair")
    p.add_argument("--scores-direct", required=True)
    p.add_argument("--scores-tbt", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out-dir", required=True)
    # runs without --align-pair share this default list (append copies it first): never change it in place
    p.add_argument(
        "--align-pair",
        action="append",
        dest="align_pairs",
        default=[],
        type=_align_pair,
        metavar="BENCH_A:BENCH_B",
        help="benchmark pair for the alignment table (repeatable; default: first two benchmarks)",
    )
    p.set_defaults(handler=_cmd_report)
    return parser


def _matrix_cells(values: np.ndarray, mask: np.ndarray) -> list[list[float | None]]:
    return [
        [None if mask[i, j] else float(values[i, j]) for j in range(values.shape[1])]
        for i in range(values.shape[0])
    ]


def _artifact(path, kind: str, manifest: RunManifest, fields: dict) -> tuple[Path, str]:
    """One artifact to write: its path and its text, the envelope of ``kind`` and ``manifest`` then ``fields``."""
    return Path(path), render_artifact({**_envelope(kind, manifest), **fields})


def _cmd_agree(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    m = load_scores(args.scores)
    cfg = SignificanceConfig(alpha=args.alpha)
    am = agreement_matrix(m, method=args.method.replace("-", "_"), cfg=cfg)
    means = mean_agreement(am)
    fields = {
        "method": args.method,
        "alpha": args.alpha,
        "benchmark_ids": list(am.benchmark_ids),
        "values": _matrix_cells(am.values, am.degenerate),
        "n_degenerate_cells": int(am.degenerate.sum()) // 2,
        "mean_agreement": [
            {"benchmark": b, "mean": float(v), "n_excluded": int(k)}
            for b, v, k in zip(means.benchmark_ids, means.means, means.n_excluded)
        ],
    }
    return [_artifact(args.out, "agreement", manifest, fields)]


def _aligned_pair_table(
    ma: ScoreMatrix, mb: ScoreMatrix, bench_a: str, bench_b: str, cfg: SignificanceConfig
) -> dict:
    """Figure-style table: parallel ranks plus raw scores for one benchmark pair.

    ``mb`` must list ``ma``'s models in ``ma``'s order; :func:`_reorder_like` makes it so.
    """
    ia = ma.benchmark_index(bench_a)
    ib = mb.benchmark_index(bench_b)
    s1 = oriented_scores(ma, bench_a)
    s2 = oriented_scores(mb, bench_b)
    ranking = rank_models(s1, ma.stderrs[ia], s2, mb.stderrs[ib], cfg, model_ids=ma.model_ids)
    row = {mod: j for j, mod in enumerate(ma.model_ids)}
    score1, stderr1 = ma.scores[ia].tolist(), ma.stderrs[ia].tolist()
    score2, stderr2 = mb.scores[ib].tolist(), mb.stderrs[ib].tolist()
    rows = []
    for mod in ranking.order1:
        j = row[mod]
        rows.append(
            {
                "model": mod,
                "rank1": ranking.rank1[mod],
                "rank2": ranking.rank2[mod],
                "score1": score1[j],
                "stderr1": stderr1[j],
                "score2": score2[j],
                "stderr2": stderr2[j],
            }
        )
    return {
        "benchmark_a": bench_a,
        "benchmark_b": bench_b,
        "crossings": crossing_count(ranking),
        "models": rows,
    }


def _cmd_align(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    ma = load_scores(args.scores_a)
    mb = load_scores(args.scores_b)
    if set(ma.model_ids) != set(mb.model_ids):
        raise LoadError("the two score matrices cover different model sets")
    mb = _reorder_like(mb, mb.benchmark_ids, ma.model_ids)
    cfg = SignificanceConfig(alpha=args.alpha)
    table = _aligned_pair_table(ma, mb, args.benchmark_a, args.benchmark_b, cfg)
    return [_artifact(args.out, "alignment", manifest, {"alpha": args.alpha, "tables": [table]})]


def _cmd_pca(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    m = load_scores(args.scores)
    result = fit_pca(m, preprocessing=args.preprocess)
    if args.top_k > result.n_components:
        raise LoadError(
            f"--top-k {args.top_k} exceeds the {result.n_components} available components"
        )
    fields = {
        "preprocessing": result.preprocessing,
        "benchmark_ids": list(result.benchmark_ids),
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "explained_variance_ratio": [float(v) for v in result.evr],
        "top_k": args.top_k,
        "top_k_evr": [float(v) for v in result.evr[: args.top_k]],
        "top_k_share": explained_variance_share(result, args.top_k),
        "pc1_scores": [{"model": mod, "pc1": float(v)} for mod, v in zip(result.model_ids, result.pc1_scores)],
    }
    return [_artifact(args.out, "pca", manifest, fields)]


def _cmd_flops(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    records = load_model_metadata(args.models)
    rows = [
        {
            "model": rec.model_id,
            "family": rec.family,
            "params_b": rec.param_count,
            "tokens_b": rec.token_count,
            "instruction_tuned": rec.instruction_tuned,
            "flops": compute_flops(rec.param_count, rec.token_count),
        }
        for rec in records
        if rec.token_count is not None
    ]
    excluded = [rec.model_id for rec in records if rec.token_count is None]
    return [_artifact(args.out, "flops", manifest, {"models": rows, "excluded": excluded})]


def _load_synth_config(path: str) -> SyntheticConfig:
    raw = load_json_object(path)
    raw = {k: v for k, v in raw.items() if k not in ("format_version", "kind")}
    known = {f.name for f in dataclass_fields(SyntheticConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise LoadError(f"{path}: unknown config keys {unknown}")
    try:
        return SyntheticConfig(**raw)
    except (TypeError, ValueError) as e:
        raise LoadError(f"{path}: {e}") from e


def _cmd_simulate(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    cfg = _load_synth_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    manifest = replace(manifest, flags={**manifest.flags, "seed": cfg.seed})
    # an unsupported output suffix fails before the simulation runs, not after it
    render = render_scores_csv if infer_format(args.out) == "long-csv" else render_scores_json
    try:
        m = generate(cfg, _CLI_MODES[args.mode])
    except ValueError as e:
        raise LoadError(f"{args.config}: {e}") from e
    return [(Path(args.out), render(m, manifest))]


def _reorder_like(m: ScoreMatrix, benchmark_ids, model_ids) -> ScoreMatrix:
    """Same matrix with rows/columns arranged in the given id order (a permutation of its own ids)."""
    b_at = {b: i for i, b in enumerate(m.benchmark_ids)}
    m_at = {x: j for j, x in enumerate(m.model_ids)}
    rows = [b_at[b] for b in benchmark_ids]
    cols = [m_at[x] for x in model_ids]
    return make_score_matrix(
        benchmark_ids,
        model_ids,
        m.scores[np.ix_(rows, cols)],
        m.stderrs[np.ix_(rows, cols)],
        n_items=[m.n_items[i] for i in rows],
        direction=[m.direction[i] for i in rows],
    )


def _perplexity_block(am, ppl: list[str]) -> dict:
    """Labeled sub-table: perplexity rows against each other and against the rest."""
    ids = list(am.benchmark_ids)
    ppl_idx = [ids.index(b) for b in ppl]
    down_idx = [i for i in range(len(ids)) if i not in ppl_idx]
    cross = list(product(ppl_idx, down_idx))
    pairs = []
    for i, j in cross:
        cell = None if am.degenerate[i, j] else float(am.values[i, j])
        pairs.append({"ppl": ids[i], "benchmark": ids[j], "tau": cell})
    return {
        "ppl_benchmarks": [ids[i] for i in ppl_idx],
        "ppl_vs_ppl_mean": _defined_mean(am, combinations(ppl_idx, 2))[0],
        "ppl_vs_downstream_mean": _defined_mean(am, cross)[0],
        "pairs": pairs,
    }


def _cmd_report(args, manifest: RunManifest) -> list[tuple[Path, str]]:
    m_direct = load_scores(args.scores_direct)
    m_tbt = load_scores(args.scores_tbt)
    if set(m_direct.benchmark_ids) != set(m_tbt.benchmark_ids):
        raise LoadError("direct and train-before-test matrices cover different benchmarks")
    if set(m_direct.model_ids) != set(m_tbt.model_ids):
        raise LoadError("direct and train-before-test matrices cover different models")
    m_tbt = _reorder_like(m_tbt, m_direct.benchmark_ids, m_direct.model_ids)
    for bench, d, t in zip(m_direct.benchmark_ids, m_direct.direction, m_tbt.direction):
        if d != t:
            raise LoadError(f"benchmark {bench!r} has direction {d!r} in direct but {t!r} in train-before-test")
    cats = load_benchmark_categories(args.categories)
    metadata = load_model_metadata(args.models)
    pairs = [spec.split(":", 1) for spec in args.align_pairs] or [m_direct.benchmark_ids[:2]]
    for bench in [b for pair in pairs for b in pair]:
        m_direct.benchmark_index(bench)  # an unknown id fails here, before any computation
    compute_records = [
        ComputeRecord(rec.model_id, compute_flops(rec.param_count, rec.token_count))
        for rec in metadata
        if rec.token_count is not None
    ]
    modes = {"direct": m_direct, "train_before_test": m_tbt}
    # plain tau per cell, with exact binomial ties handled by tau-b counting
    flat = {name: replace(m, stderrs=np.zeros_like(m.stderrs)) for name, m in modes.items()}
    ams = {name: agreement_matrix(m, "tau_b") for name, m in flat.items()}
    pcas = {name: fit_pca(m, "center") for name, m in modes.items()}
    ppl = [rec.benchmark_id for rec in cats if rec.category == "PPL" and rec.benchmark_id in m_direct.benchmark_ids]

    # every table is computed, in this order, before any is rendered; each file is named by its kind
    tables = {}
    means = {name: mean_agreement(am) for name, am in ams.items()}
    tables["mean_agreement"] = {
        "benchmark_ids": list(m_direct.benchmark_ids),
        "modes": {
            name: {
                "means": [float(v) for v in res.means],
                "n_excluded": [int(k) for k in res.n_excluded],
                "overall_mean": _defined_mean(ams[name])[0],
            }
            for name, res in means.items()
        },
        "perplexity_block": {name: _perplexity_block(am, ppl) for name, am in ams.items()} if ppl else None,
    }

    cat_results = {name: category_agreement(am, cats) for name, am in ams.items()}
    tables["category_agreement"] = {
        "categories": list(next(iter(cat_results.values())).categories),
        "modes": {
            name: {
                "values": _matrix_cells(res.values, res.undefined),
                "n_excluded": [[int(v) for v in row] for row in res.n_excluded],
            }
            for name, res in cat_results.items()
        },
    }

    tables["evr"] = {
        "preprocessing": "center",
        "modes": {
            name: {
                "eigenvalues": [float(v) for v in res.eigenvalues],
                "explained_variance_ratio": [float(v) for v in res.evr],
                "top5_share": explained_variance_share(res, min(5, res.n_components)),
            }
            for name, res in pcas.items()
        },
    }

    flops_by_model = {rec.model_id: rec.flops for rec in compute_records}
    models = [
        {
            "model": mod,
            "log10_flops": float(np.log10(flops_by_model[mod])),
            "pc1_direct": float(pcas["direct"].pc1_scores[j]),
            "pc1_train_before_test": float(pcas["train_before_test"].pc1_scores[j]),
        }
        for j, mod in enumerate(m_direct.model_ids)
        if mod in flops_by_model
    ]
    taus = {}
    for name, res in pcas.items():
        tau = pc1_compute_correlation(res, compute_records)
        if not isinstance(tau, float):
            raise DegenerateError(f"pc1 vs compute correlation is degenerate for {name}")
        taus[name] = tau
    tables["pc1_compute"] = {"models": models, "tau": taus}

    cfg = SignificanceConfig()
    aligned = []
    for bench_a, bench_b in pairs:
        for name, m in modes.items():
            table = _aligned_pair_table(m, m, bench_a, bench_b, cfg)
            table["mode"] = name
            aligned.append(table)
    tables["alignment"] = {"alpha": cfg.alpha, "tables": aligned}

    out = Path(args.out_dir)
    return [_artifact(out / f"{kind}.json", kind, manifest, fields) for kind, fields in tables.items()]


def run_cli(argv=None) -> int:
    """Parse argv, run one subcommand, write its artifacts. Returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        return int(e.code or 0)
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler")}
    inputs = {k: options.pop(k) for k in _INPUT_ARGS if k in options}
    try:
        inputs = {k: _Input(inputs[k]) for k in sorted(inputs)}  # read in the manifest's order
        vars(args).update(inputs)
        manifest = RunManifest.build(args.subcommand, inputs, options, __version__)
        writes = args.handler(args, manifest)
    except (TieError, DegenerateError) as e:
        print(f"error: degenerate: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, KeyError, OSError) as e:
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: input: {msg}", file=sys.stderr)
        return EXIT_INPUT
    try:
        for path, text in writes:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    except OSError as e:
        print(f"error: output: {e}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
