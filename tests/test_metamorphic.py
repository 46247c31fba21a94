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
"""

import numpy as np
import pytest

from benchrank.alignment import crossing_count, rank_models
from benchrank.core import make_score_matrix
from benchrank.rankstats import SignificanceConfig, agreement_matrix

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
