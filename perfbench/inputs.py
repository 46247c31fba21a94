"""Seeded benchmark inputs, drawn without calling into ``benchrank``.

The score matrices come from this file's own latent-factor model and its
own ``numpy`` generator, so a change to ``benchrank.synth`` (or to any
other part of the program) cannot shift the inputs a workload measures.

Model j has a skill that grows with the rank of its log pre-training
compute, plus a model-specific residual.  Accuracy rows take a binomial
draw of ``n`` items at the logistic of ``loading * skill + bias + prep``,
where ``prep`` is a per-cell preparation offset: full size in the direct
file, shrunk plus a per-benchmark uplift in the train-before-test file.
Perplexity rows are lower-is-better bits per byte, rounded to three
decimals so that exact ties occur.

The per-benchmark structure (loadings, biases, uplifts, item counts) is
drawn from a fixed seed, so every ``--seed`` gives a matrix of the same
shape and difficulty; the seed draws the models and all the noise.  Op
cost in the aligner and the eigensolver depends on that structure, and
keeping it fixed keeps the spread of a metric across seeds small.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCORE_HEADER = ["benchmark", "model", "score", "stderr", "n", "direction"]
MODEL_HEADER = ["model", "family", "params_b", "tokens_b", "instruction_tuned"]
CATEGORY_HEADER = ["benchmark", "category"]
TASK_CATEGORIES = ("LU", "CR", "QA", "PBC", "Math", "Med")

TBT_PREP_SHRINK = 0.2
STRUCTURE_SEED = 20250707
#: range of per-benchmark item counts in a simulate config
SYNTH_ITEMS = (300, 3000)


@dataclass(frozen=True)
class Shape:
    """Size and noise level of one generated score-matrix pair."""

    n_models: int
    n_benchmarks: int
    n_ppl: int
    items_lo: int
    items_hi: int
    n_no_tokens: int

    def describe(self) -> dict:
        return {
            "models": self.n_models,
            "benchmarks": self.n_benchmarks,
            "ppl_rows": self.n_ppl,
            "n_items": [self.items_lo, self.items_hi],
            "models_without_tokens": self.n_no_tokens,
        }


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set, plus what the checks need to know."""

    scores_direct: Path
    scores_tbt: Path
    categories: Path
    models: Path
    benchmark_ids: tuple[str, ...]
    ppl_ids: tuple[str, ...]


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _benchmark_ids(shape: Shape) -> tuple[list[str], list[str]]:
    """Benchmark ids and categories; every task category is used once before any repeats."""
    n_task = shape.n_benchmarks - shape.n_ppl
    cats = [TASK_CATEGORIES[i % len(TASK_CATEGORIES)] for i in range(n_task)] + ["PPL"] * shape.n_ppl
    ids = [f"{c.lower()}_{i:03d}" for i, c in enumerate(cats)]
    return ids, cats


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _score_rows(ids, models, scores, stderrs, items, directions):
    for i, b in enumerate(ids):
        n = "" if items[i] is None else str(items[i])
        for j, mod in enumerate(models):
            yield [b, mod, repr(float(scores[i, j])), repr(float(stderrs[i, j])), n, directions[i]]


def write_inputs(out_dir: Path, shape: Shape, seed: int) -> Inputs:
    """Draw one direct / train-before-test pair from ``seed`` and write the four input files."""
    if shape.n_benchmarks - shape.n_ppl < 2:
        raise ValueError("need at least two accuracy rows")
    rng = np.random.default_rng(seed)
    nm, nb = shape.n_models, shape.n_benchmarks
    out_dir.mkdir(parents=True, exist_ok=True)

    models = [f"m{j:04d}" for j in range(nm)]
    params = np.round(np.exp(rng.uniform(np.log(0.1), np.log(400.0), nm)), 2)
    tokens = np.round(np.exp(rng.uniform(np.log(100.0), np.log(15000.0), nm)), 1)
    no_tokens = set(rng.choice(nm, size=shape.n_no_tokens, replace=False).tolist())
    tuned = rng.random(nm) < 0.3
    compute_rank = np.argsort(np.argsort(params * tokens))
    skill = 1.5 * (2.0 * compute_rank / (nm - 1) - 1.0) + rng.normal(0.0, 0.3, nm)

    ids, cats = _benchmark_ids(shape)
    n_task = nb - shape.n_ppl
    structure = np.random.default_rng(STRUCTURE_SEED)
    loading = structure.uniform(0.5, 1.5, nb)
    bias = structure.normal(0.0, 0.6, nb)
    uplift = structure.uniform(0.0, 0.5, nb)
    items = [int(n) for n in structure.integers(shape.items_lo, shape.items_hi + 1, n_task)] + [None] * shape.n_ppl
    prep = rng.normal(0.0, 0.5, (nb, nm))
    ppl_noise = rng.normal(0.0, 0.03, (shape.n_ppl, nm))
    ppl_se = rng.uniform(0.002, 0.01, (shape.n_ppl, nm))

    directions = ["higher"] * n_task + ["lower"] * shape.n_ppl
    n_task_items = np.array(items[:n_task], dtype=np.int64)[:, None]
    paths = {}
    for mode, prep_scale, lift in (("direct", 1.0, 0.0), ("tbt", TBT_PREP_SHRINK, 1.0)):
        logit = loading[:, None] * skill[None, :] + bias[:, None] + prep_scale * prep + lift * uplift[:, None]
        p = _logistic(logit[:n_task])
        acc = rng.binomial(n_task_items, p) / n_task_items
        acc_se = np.sqrt(acc * (1.0 - acc) / n_task_items)
        bpb = np.round(1.1 - 0.2 * loading[n_task:, None] * skill[None, :] + ppl_noise * (1.0 if mode == "direct" else 0.5), 3)
        scores = np.vstack([acc, bpb])
        stderrs = np.vstack([acc_se, ppl_se])
        path = out_dir / f"scores_{mode}.csv"
        _write_csv(path, SCORE_HEADER, _score_rows(ids, models, scores, stderrs, items, directions))
        paths[mode] = path

    categories = out_dir / "categories.csv"
    _write_csv(categories, CATEGORY_HEADER, zip(ids, cats))
    model_meta = out_dir / "models.csv"
    _write_csv(
        model_meta,
        MODEL_HEADER,
        (
            [mod, f"fam{j % 8}", repr(float(params[j])), "" if j in no_tokens else repr(float(tokens[j])), str(bool(tuned[j])).lower()]
            for j, mod in enumerate(models)
        ),
    )
    return Inputs(
        scores_direct=paths["direct"],
        scores_tbt=paths["tbt"],
        categories=categories,
        models=model_meta,
        benchmark_ids=tuple(ids),
        ppl_ids=tuple(ids[n_task:]),
    )


def write_synth_config(path: Path, n_models: int, n_benchmarks: int, seed: int) -> dict:
    """A ``benchrank simulate`` config: fixed per-benchmark structure, simulator seed from ``seed``."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    cfg = {
        "n_models": n_models,
        "n_benchmarks": n_benchmarks,
        "seed": int(np.random.default_rng(seed).integers(0, 2**31)),
        "capability_slope": 1.0,
        "flops_range": [1e19, 1e23],
        "benchmark_loading": [float(v) for v in rng.uniform(0.6, 1.4, n_benchmarks)],
        "benchmark_bias": [float(v) for v in rng.uniform(-0.5, 0.5, n_benchmarks)],
        "prep_sd": 0.5,
        "residual_prep": 0.2,
        "finetune_uplift": [float(v) for v in rng.uniform(0.0, 0.4, n_benchmarks)],
        "n_items": [int(v) for v in rng.integers(SYNTH_ITEMS[0], SYNTH_ITEMS[1] + 1, n_benchmarks)],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return cfg
