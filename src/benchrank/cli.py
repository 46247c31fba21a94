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
stderr on failure.  Writes are all-or-nothing: each artifact is written to
a temp file beside its target, each older artifact is hard-linked to a backup
beside it, and only then do the temp files replace their targets.  A failed
rename puts the backups back and removes the new artifacts, so a run that
fails, writing and renaming included, leaves every older artifact as it was
and no artifact, temp file, backup or directory it created.  On a file system
that refuses hard links, runs go on without backups, and a failed rename can
leave an older artifact replaced by its new text.
``run_cli`` may be called any number of times in one process: the parser is
built on the first call, reused after it, and holds no per-run state.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from itertools import product, takewhile
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
    _grouped_means,
    _pair_cells,
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
    parser = _Parser(
        prog="benchrank",
        description="Rank agreement, aligned rankings, PCA and compute tables from benchmark score matrices. "
        "A run writes all of its artifacts or none: a failed write or rename leaves every older artifact as it was. "
        "Exit codes: 0 success, 1 usage error, 2 invalid input or unwritable output, 3 numerical degeneracy.",
    )
    parser.add_argument("--version", action="version", version=f"benchrank {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("agree", help="pairwise rank agreement between benchmarks")
    p.add_argument("--scores", required=True, type=_Input)
    p.add_argument("--method", choices=["tau", "tau-b"], default="tau")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_agree)

    p = sub.add_parser("align", help="aligned paired rankings for two benchmarks")
    p.add_argument("--scores-a", required=True, type=_Input)
    p.add_argument("--scores-b", required=True, type=_Input)
    p.add_argument("--benchmark-a", required=True)
    p.add_argument("--benchmark-b", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("pca", help="explained variance and pc1 scores")
    p.add_argument("--scores", required=True, type=_Input)
    p.add_argument("--preprocess", choices=lowrank.PREPROCESSINGS, default="center")
    p.add_argument(
        "--top-k",
        type=_int_at_least(1),
        default=None,
        help="components whose variance ratios top_k_share sums (default: 5, or every component when fewer)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pca)

    p = sub.add_parser("flops", help="pre-training compute per model")
    p.add_argument("--models", required=True, type=_Input)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("simulate", help="generate a synthetic score matrix")
    p.add_argument("--config", required=True, type=_Input)
    p.add_argument("--mode", choices=sorted(_CLI_MODES), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="all figure-data tables for a direct/train-before-test pair")
    p.add_argument("--scores-direct", required=True, type=_Input)
    p.add_argument("--scores-tbt", required=True, type=_Input)
    p.add_argument("--categories", required=True, type=_Input)
    p.add_argument("--models", required=True, type=_Input)
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
        [None if masked else v for v, masked in zip(row, mask_row)]
        for row, mask_row in zip(values.tolist(), mask.tolist())
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
            {"benchmark": b, "mean": v, "n_excluded": k}
            for b, v, k in zip(means.benchmark_ids, means.means.tolist(), means.n_excluded.tolist())
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
    top_k = min(5, result.n_components) if args.top_k is None else args.top_k
    if top_k > result.n_components:
        raise LoadError(f"--top-k {top_k} exceeds the {result.n_components} available components")
    manifest = replace(manifest, flags={**manifest.flags, "top_k": top_k})
    fields = {
        "preprocessing": result.preprocessing,
        "benchmark_ids": list(result.benchmark_ids),
        "eigenvalues": result.eigenvalues.tolist(),
        "explained_variance_ratio": result.evr.tolist(),
        "top_k": top_k,
        "top_k_evr": result.evr[:top_k].tolist(),
        "top_k_share": explained_variance_share(result, top_k),
        "pc1_scores": [{"model": mod, "pc1": v} for mod, v in zip(result.model_ids, result.pc1_scores.tolist())],
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


def _summary_means(am, ppl: list[str]) -> tuple[float | None, dict]:
    """The overall mean agreement and the perplexity block, every mean from one :func:`_grouped_means` call.

    The overall mean takes every pair i < j.  The block lists the perplexity rows against the rest in
    ``product`` order and averages them, and averages the perplexity rows against each other in
    ``combinations`` order.  A mean with no defined cell is None.
    """
    ids = list(am.benchmark_ids)
    n = len(ids)
    ppl_idx = [ids.index(b) for b in ppl]
    down_idx = [i for i in range(n) if i not in ppl_idx]
    cross = _pair_cells(n, ppl_idx, down_idx)
    groups = [_pair_cells(n, range(n)), _pair_cells(n, ppl_idx), cross]
    means, kept, _ = _grouped_means(am, np.concatenate(groups), [len(cells) for cells in groups])
    overall, ppl_vs_ppl, ppl_vs_downstream = (v if k else None for v, k in zip(means.tolist(), kept.tolist()))
    taus, skipped = am.values.ravel()[cross].tolist(), am.degenerate.ravel()[cross].tolist()
    block = {
        "ppl_benchmarks": list(ppl),
        "ppl_vs_ppl_mean": ppl_vs_ppl,
        "ppl_vs_downstream_mean": ppl_vs_downstream,
        "pairs": [
            {"ppl": ids[i], "benchmark": ids[j], "tau": None if skip else tau}
            for (i, j), tau, skip in zip(product(ppl_idx, down_idx), taus, skipped)
        ],
    }
    return overall, block


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
    summaries = {name: _summary_means(am, ppl) for name, am in ams.items()}
    tables["mean_agreement"] = {
        "benchmark_ids": list(m_direct.benchmark_ids),
        "modes": {
            name: {
                "means": res.means.tolist(),
                "n_excluded": res.n_excluded.tolist(),
                "overall_mean": summaries[name][0],
            }
            for name, res in means.items()
        },
        "perplexity_block": {name: block for name, (_, block) in summaries.items()} if ppl else None,
    }

    cat_results = {name: category_agreement(am, cats) for name, am in ams.items()}
    tables["category_agreement"] = {
        "categories": list(next(iter(cat_results.values())).categories),
        "modes": {
            name: {
                "values": _matrix_cells(res.values, res.undefined),
                "n_excluded": res.n_excluded.tolist(),
            }
            for name, res in cat_results.items()
        },
    }

    tables["evr"] = {
        "preprocessing": "center",
        "modes": {
            name: {
                "eigenvalues": res.eigenvalues.tolist(),
                "explained_variance_ratio": res.evr.tolist(),
                "top5_share": explained_variance_share(res, min(5, res.n_components)),
            }
            for name, res in pcas.items()
        },
    }

    flops_by_model = {rec.model_id: rec.flops for rec in compute_records}
    with_flops = [(j, mod) for j, mod in enumerate(m_direct.model_ids) if mod in flops_by_model]
    log10_flops = np.log10([flops_by_model[mod] for _, mod in with_flops]).tolist()
    pc1_direct, pc1_tbt = pcas["direct"].pc1_scores.tolist(), pcas["train_before_test"].pc1_scores.tolist()
    models = [
        {
            "model": mod,
            "log10_flops": log,
            "pc1_direct": pc1_direct[j],
            "pc1_train_before_test": pc1_tbt[j],
        }
        for (j, mod), log in zip(with_flops, log10_flops)
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


def _write_all(writes: list[tuple[Path, str]]) -> None:
    """Write every ``(path, text)`` or none: an ``OSError`` puts back each older artifact and removes what was made.

    Each text goes to a temp file beside its target, and a target that is a directory is refused before any
    rename.  Each older artifact is then hard-linked to a backup beside it, and only then do the temp files
    replace their targets.  When a rename fails, the backups go back over the targets already replaced and the
    replaced targets that had no older artifact are unlinked.  Where a hard link is refused the run goes on
    without that backup, so a failed rename leaves that target's new text if its rename came first.
    """
    made = []  # directories this call created, outermost first
    staged = []  # (temp file, target)
    olds = {}  # target -> the backup of its older artifact, or None where the hard link was refused
    replaced = []  # targets a temp file has replaced
    try:
        for path, text in writes:
            for d in reversed([*takewhile(lambda p: not p.exists(), (path.parent, *path.parent.parents))]):
                d.mkdir()
                made.append(d)
            if path.is_dir():
                raise IsADirectoryError(f"{path}: is a directory")
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
        for _, path in staged:
            backup = path.with_name(f".{path.name}.{os.getpid()}.bak")
            try:
                os.link(path, backup, follow_symlinks=False)
            except FileNotFoundError:  # no older artifact
                continue
            except OSError:
                backup = None
            olds[path] = backup
        for tmp, path in staged:
            tmp.replace(path)
            replaced.append(path)
    except OSError:
        for path in replaced:
            with contextlib.suppress(OSError):  # the error reported is the one that stopped the writes
                if path not in olds:
                    path.unlink()
                elif olds[path]:
                    olds[path].replace(path)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)  # a temp file that replaced its target is gone already
        for d in reversed(made):
            with contextlib.suppress(OSError):  # it still holds a file that could not be removed
                d.rmdir()
        raise
    finally:
        for backup in filter(None, olds.values()):
            backup.unlink(missing_ok=True)  # a backup put back over its target is gone already


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
    # the file options; RunManifest.build's hash is each file's one read, and the handler parses those bytes
    inputs = {k: v for k, v in vars(args).items() if isinstance(v, _Input)}
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler", *inputs)}
    try:
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
        _write_all(writes)
    except OSError as e:
        print(f"error: output: {e}", file=sys.stderr)
        return EXIT_INPUT
    for path, _ in writes:
        print(f"wrote {path}")
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
