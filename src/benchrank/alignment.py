"""Significance partial orders and parallel greedy ranking alignment.

Given scores and standard errors on two tasks, each task induces a partial
order: model a sits above model b only when the score gap is statistically
significant.  The aligner then builds one linear extension per task,
greedily keeping the two orders as equal as possible, so that the paired
rankings cross only where a reversal is genuinely significant.  When the
union of the two partial orders is acyclic there exists a common linear
extension and the two output orders are identical.

The greedy step scores every candidate pair (m1 from task 1's current
frontier, m2 from task 2's) with a lexicographic cost:

1. newly committed mismatches: [m1 != m2 and m1 not yet in order2]
   + [m1 != m2 and m2 not yet in order1];
2. whether m1 != m2 (prefer matching);
3. combined vanilla ranks vanilla2[m1] + vanilla1[m2];
4. the id pair itself, as a deterministic tie-break.

The criteria are applied in priority order, not as a weighted sum, and the
final id tie-break makes the whole procedure deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .rankstats import SignificanceConfig, _pair_signs, _significant_pairs


class AlignmentError(ValueError):
    """Inconsistent alignment input (mismatched model sets, cyclic graph)."""


@dataclass(frozen=True, eq=False)
class PartialOrder:
    """DAG over models: an edge (a, b) means a significantly beats b.

    Acyclic by construction since every edge points from a strictly higher
    oriented score to a strictly lower one.
    """

    model_ids: tuple[Hashable, ...]
    edges: frozenset[tuple[Hashable, Hashable]]

    @property
    def n_models(self) -> int:
        return len(self.model_ids)


@dataclass(frozen=True, eq=False)
class AlignedRanking:
    """Two parallel full rankings over the same model set.

    ``order1``/``order2`` list models from rank 1 (top) downwards and are
    linear extensions of their respective partial orders; ``rank1``/
    ``rank2`` map model id to 1-based position.
    """

    order1: tuple[Hashable, ...]
    order2: tuple[Hashable, ...]
    rank1: Mapping[Hashable, int]
    rank2: Mapping[Hashable, int]


def _default_ids(n: int, model_ids: Sequence[Hashable] | None) -> tuple[Hashable, ...]:
    if model_ids is None:
        return tuple(range(n))
    ids = tuple(model_ids)
    if len(ids) != n:
        raise AlignmentError(f"{len(ids)} model ids for {n} scores")
    if len(set(ids)) != n:
        raise AlignmentError("duplicate model id")
    return ids


def build_partial_order(
    scores,
    stderrs,
    cfg: SignificanceConfig,
    model_ids: Sequence[Hashable] | None = None,
) -> PartialOrder:
    """Build the significance DAG for one task.

    Scores must already be oriented (greater means better).  For every
    distinct model pair, a directed edge winner -> loser is added iff the
    difference passes the two-sided z-test.
    """
    scores = np.asarray(scores, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    if scores.shape != stderrs.shape or scores.ndim != 1:
        raise AlignmentError("scores and stderrs must be equal-length vectors")
    if len(scores) < 1:
        raise AlignmentError("need at least one model")
    if not (np.isfinite(scores).all() and np.isfinite(stderrs).all()):
        raise AlignmentError("non-finite input")
    if (stderrs < 0).any():
        raise AlignmentError("standard errors must be >= 0")
    ids = _default_ids(len(scores), model_ids)
    signs = _pair_signs(scores, stderrs, cfg.critical_z)
    winners, losers = _significant_pairs(signs, len(ids))
    edges = frozenset(zip(map(ids.__getitem__, winners), map(ids.__getitem__, losers)))
    return PartialOrder(model_ids=ids, edges=edges)


def vanilla_ranks(scores, model_ids: Sequence[Hashable] | None = None) -> np.ndarray:
    """Ordinal ranks with rank 1 for the highest oriented score.

    Exact ties break lexicographically by model id so that ranking is
    deterministic.  Returns ranks positionally aligned with the input.
    """
    scores = np.asarray(scores, dtype=float)
    ids = _default_ids(len(scores), model_ids)
    order = sorted(range(len(ids)), key=lambda k: (-scores[k], ids[k]))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.arange(1, len(ids) + 1)
    return ranks


class _Frontier:
    """Zero-in-degree tracking for one partial order during the greedy loop."""

    def __init__(self, po: PartialOrder):
        self.succ: dict[Hashable, list[Hashable]] = {m: [] for m in po.model_ids}
        self.indeg: dict[Hashable, int] = {m: 0 for m in po.model_ids}
        for a, b in po.edges:
            if a not in self.indeg or b not in self.indeg:
                raise AlignmentError(f"edge ({a!r}, {b!r}) references unknown model")
            self.succ[a].append(b)
            self.indeg[b] += 1
        self.available = {m for m, d in self.indeg.items() if d == 0}

    def remove(self, m: Hashable) -> None:
        self.available.discard(m)
        for b in self.succ[m]:
            self.indeg[b] -= 1
            if self.indeg[b] == 0:
                self.available.add(b)
        del self.succ[m]


def parallel_greedy_rank(
    models: Sequence[Hashable],
    g1: PartialOrder,
    g2: PartialOrder,
    score1,
    score2,
) -> tuple[tuple[Hashable, ...], tuple[Hashable, ...]]:
    """Greedily build one linear extension per partial order, kept aligned.

    At each of n steps the minimum-cost pair (m1, m2) over the two current
    frontiers is selected, m1 appended to order1 and m2 to order2, and both
    removed from their graphs.  Placing only zero-in-degree nodes makes
    each output a linear extension by construction.  Raises on mismatched
    model sets or when a frontier empties early (cyclic input).
    """
    models = tuple(models)
    if set(models) != set(g1.model_ids) or set(models) != set(g2.model_ids):
        raise AlignmentError("both partial orders must cover exactly the given model set")
    score1 = np.asarray(score1, dtype=float)
    score2 = np.asarray(score2, dtype=float)
    if len(score1) != len(models) or len(score2) != len(models):
        raise AlignmentError("score vectors must match the model list")
    vr1 = dict(zip(models, vanilla_ranks(score1, models)))
    vr2 = dict(zip(models, vanilla_ranks(score2, models)))
    f1, f2 = _Frontier(g1), _Frontier(g2)
    order1: list[Hashable] = []
    order2: list[Hashable] = []
    placed1: set[Hashable] = set()
    placed2: set[Hashable] = set()
    for _ in range(len(models)):
        if not f1.available or not f2.available:
            raise AlignmentError("cyclic partial order: frontier exhausted before all models placed")
        best = None
        best_pair = None
        for m1 in f1.available:
            for m2 in f2.available:
                penalty = 0
                if m1 != m2:
                    penalty = (m1 not in placed2) + (m2 not in placed1)
                cost = (penalty, int(m1 != m2), vr2[m1] + vr1[m2], (m1, m2))
                if best is None or cost < best:
                    best = cost
                    best_pair = (m1, m2)
        m1, m2 = best_pair
        order1.append(m1)
        order2.append(m2)
        placed1.add(m1)
        placed2.add(m2)
        f1.remove(m1)
        f2.remove(m2)
    return tuple(order1), tuple(order2)


def rank_models(
    score1,
    se1,
    score2,
    se2,
    cfg: SignificanceConfig,
    model_ids: Sequence[Hashable] | None = None,
) -> AlignedRanking:
    """Full alignment pipeline for two tasks over one model set.

    Builds both significance partial orders, aligns them greedily, and
    returns 1-based position maps for each task.
    """
    score1 = np.asarray(score1, dtype=float)
    score2 = np.asarray(score2, dtype=float)
    if len(score1) != len(score2):
        raise AlignmentError(f"length mismatch: {len(score1)} vs {len(score2)}")
    ids = _default_ids(len(score1), model_ids)
    g1 = build_partial_order(score1, se1, cfg, ids)
    g2 = build_partial_order(score2, se2, cfg, ids)
    order1, order2 = parallel_greedy_rank(ids, g1, g2, score1, score2)
    rank1 = {m: p + 1 for p, m in enumerate(order1)}
    rank2 = {m: p + 1 for p, m in enumerate(order2)}
    return AlignedRanking(order1=order1, order2=order2, rank1=rank1, rank2=rank2)


def crossing_count(a: AlignedRanking) -> int:
    """Number of model pairs ranked in opposite relative order by the two tasks.

    Ranks are distinct, so every pair has sign +1 or -1 in each ranking and
    the crossings are the pairs whose signs differ: (P - S1 . S2) / 2.
    """
    ranks = np.array([[a.rank1[m] for m in a.order1], [a.rank2[m] for m in a.order1]], dtype=float)
    s1, s2 = _pair_signs(ranks, np.zeros_like(ranks), 1.0)
    return int(np.count_nonzero(s1 != s2))
