"""Exact metamorphic relations of the agreement matrix and the aligner at leaderboard scale.

The report and ``agree`` oracles are Python loops and run at a few models.
At 1,500 models, transformations of the input that must not change the
answer are checked instead: reordering the models or the benchmarks,
scaling scores and stderrs by a power of two, flipping a benchmark's
direction with its scores negated, and swapping the two aligned tasks.
Pair counts are integers, and a power-of-two scaling is exact in float64
(each z-test quotient |d| / sqrt(var_a + var_b) is unchanged bit for bit),
so every relation holds exactly: ``np.array_equal`` or equal tuples, no
tolerance.

The same board, written as ``report`` and ``align`` input files, checks the
file-level relations.  Permuting the data rows of every input CSV leaves every
table equal, compared by id: exactly for counts, tau cells and alignment
tables, within ``FIELD_TOL`` for means and EVR (their summation order
follows the rows) and within ``PC1_TOL`` for pc1.  A score CSV and its
``render_scores_json`` twin give artifacts that are equal apart from the
manifest's ``inputs``.
"""

import numpy as np
import pytest

from benchrank.alignment import crossing_count, rank_models
from benchrank.cli import run_cli
from benchrank.core import make_score_matrix
from benchrank.io import load_artifact, render_scores_csv, render_scores_json
from benchrank.rankstats import SignificanceConfig, agreement_matrix

from test_cli import FIELD_TOL, PC1_TOL, REPORT_FILES, assert_matches

N_MODELS, N_BENCH = 1500, 20
CFG = SignificanceConfig()


@pytest.fixture(scope="module")
def board():
    """Accuracies of 1,500 models on 20 benchmarks of 50-200 binomial items each, with their stderrs.

    Scores are item counts over the benchmark's item count, so exact score
    ties within a benchmark are common, as on real leaderboards.
    """
    rng = np.random.default_rng(6)
    items = rng.integers(50, 201, size=(N_BENCH, 1))
    skill = rng.normal(size=N_MODELS)
    logit = rng.uniform(0.5, 1.5, size=(N_BENCH, 1)) * skill + rng.normal(scale=0.5, size=(N_BENCH, 1))
    logit += rng.normal(scale=0.7, size=(N_BENCH, N_MODELS))
    scores = rng.binomial(items, 1.0 / (1.0 + np.exp(-logit))) / items
    stderrs = np.sqrt(scores * (1.0 - scores) / items)
    return scores, stderrs, [f"m{j}" for j in range(N_MODELS)]


def agreement(scores, stderrs, models, benchmarks=None, direction="higher"):
    benchmarks = benchmarks or [f"b{i}" for i in range(N_BENCH)]
    am = agreement_matrix(make_score_matrix(benchmarks, models, scores, stderrs, direction=direction), "tau_b", CFG)
    return am.values, am.degenerate


def align(scores, stderrs, models, first=0, second=1):
    a = rank_models(scores[first], stderrs[first], scores[second], stderrs[second], CFG, models)
    return a.order1, a.order2, crossing_count(a)


@pytest.fixture(scope="module")
def base_agreement(board):
    values, degenerate = agreement(*board)
    # not a vacuous relation: every cell is defined, and the cells differ
    assert not degenerate.any() and len(np.unique(values)) > N_BENCH
    return values, degenerate


@pytest.fixture(scope="module")
def base_alignment(board):
    order1, order2, crossings = align(*board)
    # not a vacuous relation: the two orders differ, and do not merely sort the model ids
    assert order1 != order2 and crossings > 0 and list(order1) != sorted(order1)
    return order1, order2, crossings


def permuted_models(board, seed):
    scores, stderrs, models = board
    perm = np.random.default_rng(seed).permutation(N_MODELS)
    return scores[:, perm], stderrs[:, perm], [models[j] for j in perm]


def test_agreement_ignores_model_order(board, base_agreement):
    got = agreement(*permuted_models(board, 1))
    assert all(np.array_equal(g, w) for g, w in zip(got, base_agreement))


@pytest.mark.parametrize("power", [-3, 5])
def test_agreement_ignores_power_of_two_scaling(board, base_agreement, power):
    scores, stderrs, models = board
    got = agreement(np.ldexp(scores, power), np.ldexp(stderrs, power), models)
    assert all(np.array_equal(g, w) for g, w in zip(got, base_agreement))


def test_agreement_ignores_a_direction_flip_of_negated_scores(board, base_agreement):
    scores, stderrs, models = board
    flipped = np.arange(N_BENCH) % 3 == 1
    direction = ["lower" if f else "higher" for f in flipped]
    got = agreement(np.where(flipped[:, None], -scores, scores), stderrs, models, direction=direction)
    assert all(np.array_equal(g, w) for g, w in zip(got, base_agreement))


def test_agreement_follows_a_benchmark_permutation(board, base_agreement):
    scores, stderrs, models = board
    perm = np.random.default_rng(2).permutation(N_BENCH)
    got = agreement(scores[perm], stderrs[perm], models, benchmarks=[f"b{i}" for i in perm])
    assert all(np.array_equal(g, w[np.ix_(perm, perm)]) for g, w in zip(got, base_agreement))


def test_alignment_ignores_model_order(board, base_alignment):
    assert align(*permuted_models(board, 3)) == base_alignment


@pytest.mark.parametrize("power", [-3, 5])
def test_alignment_ignores_power_of_two_scaling(board, base_alignment, power):
    scores, stderrs, models = board
    assert align(np.ldexp(scores, power), np.ldexp(stderrs, power), models) == base_alignment


def test_swapped_tasks_swap_the_orders_and_keep_the_crossings(board, base_alignment):
    order1, order2, crossings = base_alignment
    assert align(*board, first=1, second=0) == (order2, order1, crossings)


#: The last three benchmarks are lower-is-better perplexity rows; the rest cycle through the other categories.
CATEGORY_OF = [("LU", "CR", "QA", "PBC", "Math", "Med")[i % 6] for i in range(N_BENCH - 3)] + ["PPL"] * 3
ALIGN_PAIRS = ["b0:b1", "b18:b4"]


def _shuffled_rows(text: str, seed: int) -> str:
    """A CSV with its data rows (every line after the header that is not a ``#`` comment) in a random order."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = lines[at:]
    return "\n".join(lines[:at] + [rows[k] for k in np.random.default_rng(seed).permutation(len(rows))]) + "\n"


def _run_in(work, files: dict[str, str], suffix: str) -> dict:
    """``report`` and ``align`` on ``files`` written to ``work``, by relative paths; their artifacts by file name."""
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    direct, tbt = f"direct{suffix}", f"tbt{suffix}"
    report = ["report", "--scores-direct", direct, "--scores-tbt", tbt, "--categories", "cats.csv",
              "--models", "models.csv", "--out-dir", "rep"]  # fmt: skip
    align = ["align", "--scores-a", direct, "--scores-b", tbt, "--benchmark-a", "b2", "--benchmark-b", "b3",
             "--out", "al.json"]  # fmt: skip
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        assert run_cli([*report, *(a for pair in ALIGN_PAIRS for a in ("--align-pair", pair))]) == 0
        assert run_cli(align) == 0
    artifacts = {name: load_artifact(work / "rep" / name) for name in REPORT_FILES}
    return {**artifacts, "al.json": load_artifact(work / "al.json")}


@pytest.fixture(scope="module")
def runs(board, tmp_path_factory):
    """Artifacts of ``report`` and ``align`` on the board's files, on the files with shuffled rows, and on JSON twins.

    The direct file is the board; the train-before-test file is the board
    with every model a quarter of a standard error higher on each benchmark,
    rounded to the benchmark's item grid, so the two differ but keep its ties.
    """
    scores, stderrs, models = board
    # each row is counts over the benchmark's item count, and some two models lie one item apart
    items = np.array([int(round(1 / np.diff(np.unique(row)).min())) for row in scores])
    tbt = np.clip(np.round((scores + stderrs / 4) * items[:, None]) / items[:, None], 0, 1)
    benchmarks = [f"b{i}" for i in range(N_BENCH)]
    direction = ["lower" if c == "PPL" else "higher" for c in CATEGORY_OF]
    matrices = {
        name: make_score_matrix(benchmarks, models, s, np.sqrt(s * (1 - s) / items[:, None]), items.tolist(), direction)
        for name, s in (("direct", scores), ("tbt", tbt))
    }
    rng = np.random.default_rng(8)
    params, tokens = rng.uniform(0.1, 70, N_MODELS), rng.uniform(10, 2000, N_MODELS)
    base = {
        "cats.csv": "benchmark,category\n" + "".join(f"{b},{c}\n" for b, c in zip(benchmarks, CATEGORY_OF)),
        "models.csv": "model,family,params_b,tokens_b,instruction_tuned\n"
        + "".join(f"{mod},f{j % 7},{p!r},{'' if j % 50 == 7 else repr(t)},false\n"
                  for j, (mod, p, t) in enumerate(zip(models, params.tolist(), tokens.tolist()))),  # fmt: skip
    }
    csvs = {**base, **{f"{name}.csv": render_scores_csv(m) for name, m in matrices.items()}}
    jsons = {**base, **{f"{name}.json": render_scores_json(m) for name, m in matrices.items()}}
    shuffled = {name: _shuffled_rows(text, seed) for seed, (name, text) in enumerate(csvs.items())}
    root = tmp_path_factory.mktemp("files")
    out = {}
    for key, files, suffix in (("csv", csvs, ".csv"), ("shuffled", shuffled, ".csv"), ("json", jsons, ".json")):
        (root / key).mkdir()
        out[key] = _run_in(root / key, files, suffix)
    return out


def _by_id(name: str, payload: dict) -> dict:
    """An artifact's tables keyed by benchmark, model or category ids instead of by file order; pc1 columns dropped."""
    if name == "mean_agreement.json":
        ids = payload["benchmark_ids"]
        modes = {
            mode: {key: dict(sorted(zip(ids, res[key]))) for key in ("means", "n_excluded")}
            | {"overall_mean": res["overall_mean"]}
            for mode, res in payload["modes"].items()
        }
        blocks = {
            mode: {
                "ppl_benchmarks": sorted(block["ppl_benchmarks"]),
                "ppl_vs_ppl_mean": block["ppl_vs_ppl_mean"],
                "ppl_vs_downstream_mean": block["ppl_vs_downstream_mean"],
                "pairs": dict(sorted(((p["ppl"], p["benchmark"]), p["tau"]) for p in block["pairs"])),
            }
            for mode, block in payload["perplexity_block"].items()
        }
        return {"modes": modes, "perplexity_block": blocks}
    if name == "pc1_compute.json":
        rows = {row["model"]: row["log10_flops"] for row in payload["models"]}
        return {"log10_flops": dict(sorted(rows.items())), "tau": payload["tau"]}
    return {k: v for k, v in payload.items() if k != "manifest"}  # laid out in canonical or ranking order already


def _pc1(payload: dict, mode: str) -> dict:
    return {row["model"]: row[f"pc1_{mode}"] for row in payload["models"]}


def test_shuffled_input_rows_keep_every_table(runs):
    want, got = runs["csv"], runs["shuffled"]
    # not a vacuous relation: the shuffled files load in another model and benchmark order
    models = [[row["model"] for row in run["pc1_compute.json"]["models"]] for run in (want, got)]
    assert models[0] != models[1]
    assert got["mean_agreement.json"]["benchmark_ids"] != want["mean_agreement.json"]["benchmark_ids"]
    for name in want:
        assert_matches(_by_id(name, got[name]), _by_id(name, want[name]))
    for mode in ("direct", "train_before_test"):
        lam0, lam1 = want["evr.json"]["modes"][mode]["eigenvalues"][:2]
        a, b = _pc1(want["pc1_compute.json"], mode), _pc1(got["pc1_compute.json"], mode)
        ref = np.array([a[mod] for mod in sorted(a)])
        tol = PC1_TOL * float(np.linalg.norm(ref)) / ((lam0 - lam1) / lam0)
        assert np.abs(np.array([b[mod] for mod in sorted(a)]) - ref).max() <= tol
        # pc1's order, and so its tau against compute, is fixed only beyond 2 tol; it is here
        assert np.diff(np.sort(ref)).min() > 2 * tol


def _without_inputs(payload: dict) -> dict:
    return {**payload, "manifest": {k: v for k, v in payload["manifest"].items() if k != "inputs"}}


def test_json_twins_give_the_csv_artifacts(runs):
    for name, want in runs["csv"].items():
        got = runs["json"][name]
        # not a vacuous relation: the manifests name different score files
        assert got["manifest"]["inputs"] != want["manifest"]["inputs"]
        assert _without_inputs(got) == _without_inputs(want)
