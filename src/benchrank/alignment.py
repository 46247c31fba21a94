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

Three heaps give these minima without scanning a frontier.  F1's models
sit in one by (key1, k), F2's in one by (key2, k), and the models in both
frontiers in a third by (vanilla2 + vanilla1, id, k), with the position k
last: keys and ids are unique, so no comparison reaches it.  Each frontier
lists the models it releases, and each step first pushes them.  A key never
changes inside a heap.  Keys fall only for m1 and m2 of a mismatch step,
which runs only when F1 and F2 share no model, so key2[m1] falls while m1 is
outside F2, before it is ever pushed there; key1[m2] likewise.  So an entry
goes stale only when its model leaves the frontier.  A model in both
frontiers leaves them only when the common heap pops it, so that heap holds
no stale entry, and the F1 and F2 heaps drop theirs as they surface.  Each
model enters each heap at most once, so the greedy costs O(n log n) plus the
edges it releases.

A partial order is held as a threshold split (:class:`_Split`); a
score-built one is rankstats' (:func:`~benchrank.rankstats._significance_split`).
Its frontier is a threshold plus band in-degrees.  A suffix, from column
f_r on, blocks column j exactly when an unplaced row r has f_r <= j, that
is when j >= F, the smallest f_r over unplaced rows.  F only grows, and a
pointer over the rows in f_r order keeps it current, so the frontier is
the unplaced columns j < F whose band in-degree is 0, kept as Python
integers with no array work per step.  A hand-built order
(:meth:`PartialOrder.from_edges`) is the same structure with identity
coordinates, every edge in the band and no suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .rankstats import SignificanceConfig, _checked, _significance_split


class AlignmentError(ValueError):
    """Inconsistent alignment input (mismatched model sets, cyclic graph)."""


class _Split(NamedTuple):
    """The ``(order, stop, band, start)`` of :func:`~benchrank.rankstats._significance_split`."""

    order: np.ndarray
    stop: np.ndarray
    band: np.ndarray
    start: np.ndarray


class PartialOrder:
    """DAG over models, held as a threshold split over positions in ``model_ids`` (see the module docstring).

    Build orders with :func:`build_partial_order`, whose coordinates are the
    models in descending oriented score and whose orders are acyclic by
    construction, since every edge points from a strictly higher oriented
    score to a strictly lower one; or with :meth:`from_edges`, whose
    coordinates are the identity and whose edges all lie in the band.
    """

    def __init__(self, model_ids: tuple[Hashable, ...], split: _Split):
        self.model_ids = model_ids
        self._split = split

    @classmethod
    def from_edges(cls, model_ids: Sequence[Hashable], edges) -> PartialOrder:
        """Order from (winner id, loser id) pairs, for hand-built graphs."""
        ids = _default_ids(len(model_ids), model_ids)
        index = {m: k for k, m in enumerate(ids)}
        ends = []
        for a, b in set(edges):
            if a not in index or b not in index:
                raise AlignmentError(f"edge ({a!r}, {b!r}) references unknown model")
            ends.append((index[a], index[b]))
        ends = np.array(sorted(ends), dtype=np.intp).reshape(-1, 2)
        n = len(ids)
        start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(ends[:, 0], minlength=n), out=start[1:])
        return cls(ids, _Split(np.arange(n), np.full(n, n), ends[:, 1], start))

    @cached_property
    def edges(self) -> frozenset[tuple[Hashable, Hashable]]:
        """The edges as (winner id, loser id) pairs, built on first access."""
        order, stop, band, start = self._split
        ids = [self.model_ids[k] for k in order.tolist()]
        band, start = band.tolist(), start.tolist()
        return frozenset(
            (ids[r], ids[c])
            for r, s in enumerate(stop.tolist())
            for c in [*band[start[r] : start[r + 1]], *range(s, len(ids))]
        )

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
    difference passes the two-sided z-test.  The order is held as rankstats'
    threshold split, with the models in descending score order as coordinates.
    """
    scores, stderrs = _checked(scores, stderrs, AlignmentError)
    if len(scores) < 1:
        raise AlignmentError("need at least one model")
    ids = _default_ids(len(scores), model_ids)
    return PartialOrder(ids, _Split(*_significance_split(scores, stderrs, cfg.critical_z)))


def vanilla_ranks(scores, model_ids: Sequence[Hashable] | None = None) -> np.ndarray:
    """Ordinal ranks with rank 1 for the highest oriented score.

    Exact ties break lexicographically by model id so that ranking is
    deterministic.  Returns ranks positionally aligned with the input.
    Raises :class:`AlignmentError` unless ``scores`` is a vector of finite
    values, since a NaN has no place in a ranking.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise AlignmentError("scores must be a vector of finite values")
    ids = _default_ids(len(scores), model_ids)
    s = scores.tolist()
    order = sorted(range(len(ids)), key=lambda k: (-s[k], ids[k]))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.arange(1, len(ids) + 1)
    return ranks


class _Frontier:
    """Zero-in-degree tracking for one partial order over positions in ``models``, on its threshold split.

    ``available`` holds the models at unplaced coordinates below ``bound``,
    the smallest suffix start of an unplaced row, with no band edge left
    from an unplaced row.  ``fresh`` lists the models added to
    ``available`` since its owner last cleared it, each once, for the
    greedy's heaps.
    """

    def __init__(self, po: PartialOrder, models: tuple[Hashable, ...]):
        order, stop, band, start = po._split
        if po.model_ids != models:
            at = {m: k for k, m in enumerate(models)}
            order = np.array([at[m] for m in po.model_ids], dtype=np.intp)[order]
        n = len(models)
        self.pos = order.tolist()
        self.coord = np.argsort(order).tolist()
        self.stop, self.band, self.start = stop.tolist(), band.tolist(), start.tolist()
        self.indeg = np.bincount(band, minlength=n).tolist()
        self.placed = [False] * n
        # rows by suffix start; rows before ``self.next`` in it are all placed
        self.by_stop = np.argsort(stop).tolist() + [None]
        self.next, self.bound = 0, 0
        self.available: set[int] = set()
        self.fresh: list[int] = []
        self._advance()

    def _advance(self) -> None:
        """Move ``bound`` to the smallest suffix start of an unplaced row, releasing the columns it passes."""
        by_stop, placed, p = self.by_stop, self.placed, self.next
        while by_stop[p] is not None and placed[by_stop[p]]:
            p += 1
        self.next = p
        bound = len(placed) if by_stop[p] is None else self.stop[by_stop[p]]
        # columns at or above the old bound were blocked, so none is placed yet
        released = [self.pos[c] for c in range(self.bound, bound) if not self.indeg[c]]
        self.available.update(released)
        self.fresh += released
        self.bound = bound

    def remove(self, k: int) -> None:
        self.available.discard(k)
        c = self.coord[k]
        self.placed[c] = True
        indeg, bound = self.indeg, self.bound
        for j in self.band[self.start[c] : self.start[c + 1]]:
            indeg[j] -= 1
            if not indeg[j] and j < bound:
                self.available.add(self.pos[j])
                self.fresh.append(self.pos[j])
        if self.by_stop[self.next] == c:
            self._advance()


def _pop_available(heap: list[tuple[int, int]], available: set[int]) -> int:
    """Pop ``heap``'s entries down to its smallest one whose model is still in ``available``; return that model."""
    while heap[0][1] not in available:
        heappop(heap)
    return heappop(heap)[1]


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
    if score1.shape != (len(models),) or score2.shape != (len(models),):
        raise AlignmentError("score vectors must match the model list")
    vr1 = vanilla_ranks(score1, models).tolist()
    vr2 = vanilla_ranks(score2, models).tolist()
    f1, f2 = _Frontier(g1, models), _Frontier(g2, models)
    a1, a2 = f1.available, f2.available
    # a mismatch step picks m1 by key1 = vanilla2, plus n until m1 is placed in order2,
    # so models already in the other order come first; key2 likewise for m2.  A key is
    # fixed while its model is in the frontier (module docstring), so heap entries keep it
    n = len(models)
    key1 = [r + n for r in vr2]
    key2 = [r + n for r in vr1]
    # heaps of F1 by key1, F2 by key2, and the models in both frontiers by (vanilla2 + vanilla1, id)
    h1: list[tuple[int, int]] = []
    h2: list[tuple[int, int]] = []
    common: list[tuple[int, Hashable, int]] = []
    order1: list[Hashable] = []
    order2: list[Hashable] = []
    for _ in range(n):
        if not a1 or not a2:
            raise AlignmentError("cyclic partial order: frontier exhausted before all models placed")
        for k in f1.fresh:
            heappush(h1, (key1[k], k))
        for k in f2.fresh:
            heappush(h2, (key2[k], k))
        for k in a2.intersection(f1.fresh) | a1.intersection(f2.fresh):
            heappush(common, (vr2[k] + vr1[k], models[k], k))
        f1.fresh.clear()
        f2.fresh.clear()
        if common:
            k1 = k2 = heappop(common)[-1]
        else:
            k1 = _pop_available(h1, a1)
            k2 = _pop_available(h2, a2)
            key2[k1] -= n
            key1[k2] -= n
        order1.append(models[k1])
        order2.append(models[k2])
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
    if score1.ndim != 1 or score2.ndim != 1:
        raise AlignmentError(f"scores must be vectors, got shapes {score1.shape} and {score2.shape}")
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
    It compares blocks of 256 rows (pairs within a block, then the block against every later column): 256 * n bytes.
    """
    pos = np.array([a.rank2[m] for m in a.order1], dtype=np.intp)
    blocks = [(pos[s : s + 256, None], pos[s + 256 :]) for s in range(0, len(pos), 256)]
    return int(sum(np.count_nonzero(np.triu(h > h.T, 1)) + np.count_nonzero(h > rest) for h, rest in blocks))
