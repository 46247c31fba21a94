from itertools import product

import numpy as np
import pytest

from benchrank import rankstats
from benchrank.alignment import (
    AlignedRanking,
    AlignmentError,
    PartialOrder,
    build_partial_order,
    crossing_count,
    parallel_greedy_rank,
    rank_models,
    vanilla_ranks,
)
from benchrank.rankstats import SignificanceConfig

from oracles import _oracle_significant, greedy_oracle

CFG = SignificanceConfig()


def oracle_partial_order(s, e, ids):
    """Partial order from a brute-force loop over the oracle's z-test."""
    n = len(s)
    edges = {
        (ids[a], ids[b]) if s[a] > s[b] else (ids[b], ids[a])
        for a in range(n)
        for b in range(a + 1, n)
        if _oracle_significant(s[a], e[a], s[b], e[b], CFG.critical_z)
    }
    return PartialOrder.from_edges(ids, edges)


class TestBuildPartialOrder:
    def test_clear_winner(self):
        po = build_partial_order([0.9, 0.1], [0.01, 0.01], CFG)
        assert po.edges == frozenset({(0, 1)})

    def test_all_equal_no_edges(self):
        po = build_partial_order([0.5, 0.5, 0.5], [0.01] * 3, CFG)
        assert po.edges == frozenset()

    def test_insignificant_pair_omitted(self):
        # (0, 1) gap of 0.1 at se 0.04 gives z ~ 1.77 < 1.96
        po = build_partial_order([0.9, 0.8, 0.1], [0.04] * 3, CFG)
        assert po.edges == frozenset({(0, 2), (1, 2)})

    def test_no_models_rejected(self):
        with pytest.raises(AlignmentError, match="^need at least one model$"):
            build_partial_order([], [], CFG)

    def test_edges_respect_scores_and_significance(self, monkeypatch):
        rng = np.random.default_rng(17)
        sizes = [int(rng.integers(1, 8)) for _ in range(50)] + [250]
        # at the default chunk 250 models span more than one block of the sign kernel; at 1, one model per block
        for chunk, n in product((rankstats._PAIR_CHUNK, 1), sizes):
            monkeypatch.setattr(rankstats, "_PAIR_CHUNK", chunk)
            s = rng.uniform(size=n)
            e = rng.uniform(0, 0.2, size=n)
            po = build_partial_order(s, e, CFG)
            for a, b in po.edges:
                assert s[a] > s[b]
            # acyclic because edges follow strict score order
            assert all((b, a) not in po.edges for a, b in po.edges)
            assert po.edges == oracle_partial_order(s, e, tuple(range(n))).edges

    def test_nonfinite_rejected(self):
        with pytest.raises(AlignmentError, match="non-finite"):
            build_partial_order([0.5, float("nan")], [0.1, 0.1], CFG)
        with pytest.raises(AlignmentError, match="non-finite"):
            build_partial_order([0.5, 0.6], [0.1, float("nan")], CFG)

    def test_negative_stderr_rejected(self):
        with pytest.raises(AlignmentError, match=">= 0"):
            build_partial_order([0.5, 0.6], [0.1, -0.1], CFG)
        with pytest.raises(AlignmentError, match=">= 0"):
            rank_models([0.5, 0.6], [0.1, 0.1], [0.5, 0.6], [-0.1, 0.1], CFG)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            build_partial_order([0.5], [0.1, 0.1], CFG)


class TestPartialOrder:
    def test_from_edges_rejects_unknown_model(self):
        with pytest.raises(AlignmentError, match="unknown model"):
            PartialOrder.from_edges(("A", "B"), {("A", "C")})

    def test_from_edges_rejects_duplicate_id(self):
        with pytest.raises(AlignmentError, match="duplicate model id"):
            PartialOrder.from_edges(("A", "A"), set())

    def test_from_edges_round_trip(self):
        rng = np.random.default_rng(23)
        for n in [1, 2, 5, 40]:
            ids = tuple(f"m{k}" for k in rng.permutation(n))
            po = build_partial_order(rng.uniform(size=n), rng.uniform(0, 0.1, size=n), CFG, ids)
            again = PartialOrder.from_edges(ids, po.edges)
            assert again.edges == po.edges
            assert again.model_ids == po.model_ids

    def test_longer_cycle_detected(self):
        ids = ("A", "B", "C", "D")
        cyclic = PartialOrder.from_edges(ids, {("D", "A"), ("A", "B"), ("B", "C"), ("C", "A")})
        with pytest.raises(AlignmentError, match="cyclic"):
            parallel_greedy_rank(ids, chain(ids), cyclic, [4, 3, 2, 1], [4, 3, 2, 1])


class TestVanillaRanks:
    def test_rank_one_is_best(self):
        assert list(vanilla_ranks([0.9, 0.5, 0.7])) == [1, 3, 2]

    def test_ties_break_lexicographically(self):
        assert list(vanilla_ranks([0.5, 0.5, 0.5], ["A", "B", "C"])) == [1, 2, 3]
        assert list(vanilla_ranks([0.5, 0.5, 0.5], ["C", "B", "A"])) == [3, 2, 1]

    def test_single_model(self):
        assert list(vanilla_ranks([0.4])) == [1]


def chain(ids):
    return PartialOrder.from_edges(ids, frozenset((a, b) for k, a in enumerate(ids) for b in ids[k + 1 :]))


class TestParallelGreedyRank:
    def test_identical_chains(self):
        ids = ("A", "B", "C")
        scores = [0.9, 0.5, 0.1]
        o1, o2 = parallel_greedy_rank(ids, chain(ids), chain(ids), scores, scores)
        assert o1 == o2 == ids

    def test_insignificant_swap_not_displayed(self):
        # task 1 ranks A > B > C cleanly; task 2 scores B above A but the
        # gap is insignificant, so no crossing should appear
        ids = ("A", "B", "C")
        s1, e1 = [0.9, 0.6, 0.1], [0.02] * 3
        s2, e2 = [0.60, 0.62, 0.10], [0.02] * 3
        g1 = build_partial_order(s1, e1, CFG, ids)
        g2 = build_partial_order(s2, e2, CFG, ids)
        assert ("A", "B") in g1.edges
        assert ("A", "B") not in g2.edges and ("B", "A") not in g2.edges
        o1, o2 = parallel_greedy_rank(ids, g1, g2, s1, s2)
        assert o1 == o2 == ("A", "B", "C")

    def test_significant_reversal_crosses(self):
        ids = ("A", "B")
        g1 = PartialOrder.from_edges(ids, frozenset({("A", "B")}))
        g2 = PartialOrder.from_edges(ids, frozenset({("B", "A")}))
        o1, o2 = parallel_greedy_rank(ids, g1, g2, [0.9, 0.1], [0.1, 0.9])
        assert o1 == ("A", "B")
        assert o2 == ("B", "A")

    def test_mismatched_model_sets(self):
        with pytest.raises(AlignmentError, match="model set"):
            parallel_greedy_rank(("A", "B"), chain(("A", "B")), chain(("A", "C")), [1, 0], [1, 0])

    def test_score_vector_length_mismatch(self):
        ids = ("A", "B")
        with pytest.raises(AlignmentError, match="^score vectors must match the model list$"):
            parallel_greedy_rank(ids, chain(ids), chain(ids), [1, 0, 2], [1, 0])

    def test_cyclic_graph_detected(self):
        ids = ("A", "B")
        cyclic = PartialOrder.from_edges(ids, frozenset({("A", "B"), ("B", "A")}))
        with pytest.raises(AlignmentError, match="cyclic"):
            parallel_greedy_rank(ids, cyclic, chain(ids), [1, 0], [1, 0])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ids = tuple(f"m{i}" for i in range(6))
        s1, s2 = rng.uniform(size=6), rng.uniform(size=6)
        e = np.full(6, 0.05)
        g1 = build_partial_order(s1, e, CFG, ids)
        g2 = build_partial_order(s2, e, CFG, ids)
        first = parallel_greedy_rank(ids, g1, g2, s1, s2)
        for _ in range(3):
            assert parallel_greedy_rank(ids, g1, g2, s1, s2) == first


class TestRankModels:
    def test_identical_inputs_identical_ranks(self):
        s = [0.9, 0.4, 0.7, 0.2]
        e = [0.01] * 4
        ar = rank_models(s, e, s, e, CFG)
        assert ar.rank1 == ar.rank2
        assert ar.order1 == ar.order2

    def test_two_model_reversal(self):
        ar = rank_models([0.9, 0.1], [0.01] * 2, [0.1, 0.9], [0.01] * 2, CFG, model_ids=("A", "B"))
        assert ar.rank1["A"] == 1 and ar.rank2["A"] == 2
        assert crossing_count(ar) == 1

    def test_orders_are_linear_extensions(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s1, s2 = rng.uniform(size=n), rng.uniform(size=n)
            scale = 10.0 ** rng.uniform(-3, 0.5)
            e1 = rng.uniform(0.5, 1.5, size=n) * scale
            e2 = rng.uniform(0.5, 1.5, size=n) * scale
            ar = rank_models(s1, e1, s2, e2, CFG)
            g1 = build_partial_order(s1, e1, CFG)
            g2 = build_partial_order(s2, e2, CFG)
            for a, b in g1.edges:
                assert ar.rank1[a] < ar.rank1[b]
            for a, b in g2.edges:
                assert ar.rank2[a] < ar.rank2[b]

    def test_acyclic_union_means_equal_orders(self):
        # no significant reversal between the two tasks: rankings align fully
        s1 = [0.95, 0.70, 0.40, 0.10]
        s2 = [0.90, 0.75, 0.35, 0.05]
        e = [0.02] * 4
        ar = rank_models(s1, e, s2, e, CFG)
        assert ar.order1 == ar.order2
        assert crossing_count(ar) == 0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            rank_models([1, 2], [0, 0], [1, 2, 3], [0, 0, 0], CFG)

    def test_model_id_count_mismatch(self):
        with pytest.raises(AlignmentError, match="^2 model ids for 3 scores$"):
            rank_models([1, 2, 3], [0] * 3, [1, 2, 3], [0] * 3, CFG, model_ids=("A", "B"))


class TestCrossingCount:
    def make(self, order1, order2):
        return AlignedRanking(
            order1=tuple(order1),
            order2=tuple(order2),
            rank1={m: i + 1 for i, m in enumerate(order1)},
            rank2={m: i + 1 for i, m in enumerate(order2)},
        )

    def test_equal_orders(self):
        assert crossing_count(self.make("ABC", "ABC")) == 0
        assert crossing_count(self.make("", "")) == 0

    def test_full_reversal(self):
        assert crossing_count(self.make("ABC", "CBA")) == 3

    def test_adjacent_swap(self):
        assert crossing_count(self.make("ABC", "BAC")) == 1

    def test_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(23)
        sizes = [int(rng.integers(0, 12)) for _ in range(30)] + [300]
        for chunk, n in product((rankstats._PAIR_CHUNK, 1), sizes):
            monkeypatch.setattr(rankstats, "_PAIR_CHUNK", chunk)
            order1 = [f"m{k}" for k in range(n)]
            ar = self.make(order1, [order1[k] for k in rng.permutation(n)])
            expected = sum(
                (ar.rank1[a] < ar.rank1[b]) != (ar.rank2[a] < ar.rank2[b])
                for i, a in enumerate(order1)
                for b in order1[i + 1 :]
            )
            assert crossing_count(ar) == expected


def merge_sort_inversions(values):
    """Sorted copy of ``values`` and its inversion count, by merge sort."""
    if len(values) < 2:
        return list(values), 0
    mid = len(values) // 2
    left, a = merge_sort_inversions(values[:mid])
    right, b = merge_sort_inversions(values[mid:])
    merged, count, i, j = [], a + b, 0, 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            count += len(left) - i
            j += 1
        else:
            merged.append(left[i])
            i += 1
    return merged + left[i:] + right[j:], count


class TestCrossingCountLarge:
    """The inversion count is exact at n = 3000."""

    N = 3000

    def make(self, perm):
        order1 = tuple(range(self.N))
        order2 = tuple(int(k) for k in perm)
        return AlignedRanking(
            order1=order1,
            order2=order2,
            rank1={m: i + 1 for i, m in enumerate(order1)},
            rank2={m: i + 1 for i, m in enumerate(order2)},
        )

    def test_full_reversal(self):
        assert crossing_count(self.make(range(self.N - 1, -1, -1))) == self.N * (self.N - 1) // 2

    def test_adjacent_swap(self):
        perm = list(range(self.N))
        perm[1500], perm[1501] = perm[1501], perm[1500]
        assert crossing_count(self.make(perm)) == 1

    def test_random_permutations_match_merge_sort(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            ar = self.make(rng.permutation(self.N))
            _, expected = merge_sort_inversions([ar.rank2[m] for m in ar.order1])
            assert crossing_count(ar) == expected


def random_case(rng, n):
    """Two tasks on n models: rounded (tied) scores, zero stderrs on one task and int ids, at random."""
    s1, s2 = rng.uniform(size=n), rng.uniform(size=n)
    if rng.random() < 0.5:
        s1, s2 = np.round(s1, 1), np.round(s2, 1)
    scale = 10.0 ** rng.uniform(-3, -0.5)
    e1 = rng.uniform(0.5, 1.5, size=n) * scale
    e2 = rng.uniform(0.5, 1.5, size=n) * scale
    if rng.random() < 0.25:
        e2 = np.zeros(n)
    if rng.random() < 0.5:
        ids = tuple(int(k) for k in rng.permutation(n) * 7)
    else:
        ids = tuple(f"m{k}" for k in rng.permutation(n))
    return s1, e1, s2, e2, ids


class TestMatchesGreedyOracle:
    """The frontier-class selection picks the same pair as a scan of every frontier pair."""

    def test_rank_models(self):
        rng = np.random.default_rng(31)
        for n in [int(rng.integers(1, 61)) for _ in range(300)] + [320]:
            s1, e1, s2, e2, ids = random_case(rng, n)
            ar = rank_models(s1, e1, s2, e2, CFG, ids)
            expected = greedy_oracle(ids, oracle_partial_order(s1, e1, ids), oracle_partial_order(s2, e2, ids), s1, s2)
            assert (ar.order1, ar.order2) == expected

    def test_models_permuted_against_orders(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            s1, e1, s2, e2, ids = random_case(rng, n)
            g1 = build_partial_order(s1, e1, CFG, ids)
            g2 = build_partial_order(s2, e2, CFG, ids)
            perm = rng.permutation(n)
            models = tuple(ids[k] for k in perm)
            got = parallel_greedy_rank(models, g1, g2, s1[perm], s2[perm])
            assert got == greedy_oracle(models, g1, g2, s1[perm], s2[perm])

    def test_hand_built_dags(self):
        # sparse random DAGs over a random topological order each, unrelated to the scores, so
        # frontiers are wide and mismatch steps pick by the integer keys on graphs no score makes
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            ids = tuple(f"m{k}" for k in rng.permutation(n))
            p = rng.uniform(0.0, 3.0 / max(n, 1))
            orders = []
            for _ in range(2):
                topo = [ids[k] for k in rng.permutation(n)]
                edges = [(a, b) for i, a in enumerate(topo) for b in topo[i + 1 :] if rng.random() < p]
                orders.append(PartialOrder.from_edges(ids, edges))
            s1, s2 = np.round(rng.uniform(size=(2, n)), int(rng.integers(1, 4)))
            perm = rng.permutation(n)
            models = tuple(ids[k] for k in perm)
            got = parallel_greedy_rank(models, *orders, s1[perm], s2[perm])
            assert got == greedy_oracle(models, *orders, s1[perm], s2[perm])

    def test_matches_tied_on_rank_sum(self):
        # B and A are both in both frontiers with vanilla rank sum 3: the id decides
        ids = ("B", "A")
        g = PartialOrder.from_edges(ids, set())
        s1, s2 = [0.9, 0.5], [0.5, 0.9]
        expected = (("A", "B"), ("A", "B"))
        assert greedy_oracle(ids, g, g, s1, s2) == expected
        assert parallel_greedy_rank(ids, g, g, s1, s2) == expected
