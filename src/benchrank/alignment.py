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

The minimum is found exactly without scanning all |F1| * |F2| pairs:

- A model in both frontiers costs (0, 0, ...) and beats every mismatch, so
  when F1 & F2 is non-empty the step places the common model with the
  smallest (vanilla2 + vanilla1, id).
- Otherwise every pair is a mismatch.  Split F1 into A1 (models already in
  order2) and B1 (the rest), and F2 into A2 (already in order1) and B2.  A
  pair's penalty is [m1 in B1] + [m2 in B2], constant on each of the four
  class products A1xA2, A1xB2, B1xA2 and B1xB2.
- Within one product the rank sum vanilla2[m1] + vanilla1[m2] separates, and
  vanilla ranks are a permutation, so its unique minimiser pairs the
  smallest vanilla2 of the F1 class with the smallest vanilla1 of the F2
  class.
- The smallest penalty is reached in one product only: A1xA2 (penalty 0)
  when A1 and A2 are both non-empty; with A1 empty the products are B1xA2
  and B1xB2 (penalties 1 and 2), with A2 empty A1xB2 and B1xB2, and with
  both empty B1xB2 alone.  So the penalty alone decides between products,
  and neither rank sums nor ids are compared across them.  Each side thus
  chooses on its own: m1 is the smallest vanilla2 in A1, or in F1 when A1
  is empty, and m2 likewise the smallest vanilla1 in A2, or in F2.  With
  vanilla ranks in 1..n, that is the smallest integer key over F1, where a
  model's key is vanilla2 in A1 and vanilla2 + n in B1; and likewise for m2.

Each step therefore costs O(|F1| + |F2|).  Partial orders are held as
winner/loser index arrays with each winner's edges contiguous, so a
frontier reads every model's successors as one slice between group
bounds, with no sort.  ``build_partial_order`` meets that grouping by
construction: it visits the upper triangle of the sign square in
descending score order, where every significant pair is an edge from row
to column, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

from .rankstats import SignificanceConfig, _checked, _sign_blocks


class AlignmentError(ValueError):
    """Inconsistent alignment input (mismatched model sets, cyclic graph)."""


@dataclass(frozen=True, eq=False)
class PartialOrder:
    """DAG over models: edge k means model ``winners[k]`` significantly beats ``losers[k]``.

    ``winners`` and ``losers`` are equal-length int arrays of positions in
    ``model_ids``, one entry per distinct edge, grouped by winner: the
    edges of one winner are contiguous (groups may come in any order).
    :func:`build_partial_order` and :meth:`from_edges` meet this; the
    aligner raises :class:`AlignmentError` on an order that does not.
    Orders from :func:`build_partial_order` are acyclic by construction
    since every edge points from a strictly higher oriented score to a
    strictly lower one.
    """

    model_ids: tuple[Hashable, ...]
    winners: np.ndarray
    losers: np.ndarray

    @classmethod
    def from_edges(cls, model_ids: Sequence[Hashable], edges) -> PartialOrder:
        """Order from (winner id, loser id) pairs, for hand-built graphs; sorted, so grouped by winner."""
        ids = _default_ids(len(model_ids), model_ids)
        index = {m: k for k, m in enumerate(ids)}
        ends = []
        for a, b in set(edges):
            if a not in index or b not in index:
                raise AlignmentError(f"edge ({a!r}, {b!r}) references unknown model")
            ends.append((index[a], index[b]))
        ends = np.array(sorted(ends), dtype=np.intp).reshape(-1, 2)
        return cls(ids, ends[:, 0], ends[:, 1])

    @cached_property
    def edges(self) -> frozenset[tuple[Hashable, Hashable]]:
        """The edges as (winner id, loser id) pairs, built on first access."""
        at = self.model_ids.__getitem__
        return frozenset(zip(map(at, self.winners.tolist()), map(at, self.losers.tolist())))

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
    difference passes the two-sided z-test.  The sign kernel runs on the
    models in descending score order, where every gap in its upper triangle
    is >= 0, so each nonzero sign is an edge from its row to its column and
    the edges come out grouped by winner.
    """
    scores, stderrs = _checked(scores, stderrs, AlignmentError)
    if len(scores) < 1:
        raise AlignmentError("need at least one model")
    ids = _default_ids(len(scores), model_ids)
    order = np.argsort(-scores, kind="stable")
    winners, losers = [order[:0]], [order[:0]]
    for a, signs in _sign_blocks(scores[order], stderrs[order], cfg.critical_z):
        rows, cols = np.nonzero(signs)
        winners.append(order[a:][rows])
        losers.append(order[a + 1 :][cols])
    return PartialOrder(ids, np.concatenate(winners), np.concatenate(losers))


def vanilla_ranks(scores, model_ids: Sequence[Hashable] | None = None) -> np.ndarray:
    """Ordinal ranks with rank 1 for the highest oriented score.

    Exact ties break lexicographically by model id so that ranking is
    deterministic.  Returns ranks positionally aligned with the input.
    """
    scores = np.asarray(scores, dtype=float)
    ids = _default_ids(len(scores), model_ids)
    s = scores.tolist()
    order = sorted(range(len(ids)), key=lambda k: (-s[k], ids[k]))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.arange(1, len(ids) + 1)
    return ranks


class _Frontier:
    """Zero-in-degree tracking for one partial order over positions in ``models``."""

    def __init__(self, po: PartialOrder, models: tuple[Hashable, ...]):
        winners, losers = po.winners, po.losers
        if po.model_ids != models:
            at = {m: k for k, m in enumerate(models)}
            to_models = np.array([at[m] for m in po.model_ids], dtype=np.intp)
            winners, losers = to_models[winners], to_models[losers]
        n = len(models)
        # the edges are grouped by winner (see PartialOrder): a group starts wherever the winner changes
        heads = np.flatnonzero(np.diff(winners, prepend=-1))
        owners = winners[heads]
        if (np.bincount(owners, minlength=n) > 1).any():
            raise AlignmentError("partial order edges must be grouped by winner")
        start, stop = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
        start[owners], stop[owners] = heads, np.append(heads[1:], len(winners))
        self.succ, self.start, self.stop = losers, start.tolist(), stop.tolist()
        self.indeg = np.bincount(losers, minlength=n)
        self.available = set(np.flatnonzero(self.indeg == 0).tolist())

    def remove(self, k: int) -> None:
        self.available.discard(k)
        succ = self.succ[self.start[k] : self.stop[k]]
        # edges are distinct, so no position repeats within one successor list
        indeg = self.indeg[succ] - 1
        self.indeg[succ] = indeg
        self.available.update(succ[indeg == 0].tolist())


def parallel_greedy_rank(
    models: Sequence[Hashable],
    g1: PartialOrder,
    g2: PartialOrder,
    score1,
    score2,
) -> tuple[tuple[Hashable, ...], tuple[Hashable, ...]]:
    """Greedily build one linear extension per partial order, kept aligned.

    At each of n steps the minimum-cost pair (m1, m2) over the two current
    frontiers is selected (see the module docstring), m1 appended to order1
    and m2 to order2, and both removed from their graphs.  Placing only
    zero-in-degree nodes makes each output a linear extension by
    construction.  Raises on mismatched model sets or when a frontier
    empties early (cyclic input).
    """
    models = tuple(models)
    if set(models) != set(g1.model_ids) or set(models) != set(g2.model_ids):
        raise AlignmentError("both partial orders must cover exactly the given model set")
    score1 = np.asarray(score1, dtype=float)
    score2 = np.asarray(score2, dtype=float)
    if len(score1) != len(models) or len(score2) != len(models):
        raise AlignmentError("score vectors must match the model list")
    vr1 = vanilla_ranks(score1, models).tolist()
    vr2 = vanilla_ranks(score2, models).tolist()
    f1, f2 = _Frontier(g1, models), _Frontier(g2, models)
    # a mismatch step picks m1 by key1 = vanilla2, plus n until m1 is placed in order2,
    # so models already in the other order come first; key2 likewise for m2
    n = len(models)
    key1 = [r + n for r in vr2]
    key2 = [r + n for r in vr1]
    order1: list[Hashable] = []
    order2: list[Hashable] = []
    for _ in range(n):
        if not f1.available or not f2.available:
            raise AlignmentError("cyclic partial order: frontier exhausted before all models placed")
        common = f1.available & f2.available
        if common:
            k1 = k2 = min(common, key=lambda k: (vr2[k] + vr1[k], models[k]))
        else:
            k1 = min(f1.available, key=key1.__getitem__)
            k2 = min(f2.available, key=key2.__getitem__)
        order1.append(models[k1])
        order2.append(models[k2])
        key2[k1] -= n
        key1[k2] -= n
        f1.remove(k1)
        f2.remove(k2)
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

    Listed in ``order1``'s order, the task-2 ranks form a permutation, and a
    pair crosses exactly when it is an inversion of it: #{i < j : pos_i > pos_j}.
    The count runs one row of comparisons at a time, in O(n) extra memory.
    """
    pos = np.array([a.rank2[m] for m in a.order1], dtype=np.intp)
    return sum(int(np.count_nonzero(pos[i + 1 :] < p)) for i, p in enumerate(pos.tolist()))
