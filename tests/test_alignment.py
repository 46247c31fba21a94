import math
import re
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

#: A ``_PAIR_CHUNK`` for which the sign Gram takes blocks of 1 < k < M-a-1 rows, so their entries
#: below the diagonal must be masked; the default and 1 never do.
STRADDLE_CHUNK = 37


def oracle_ends(s, e):
    """The set of edges as (winner, loser) positions: every pair whose oracle z-test passes, the
    higher score winning."""
    s, e = list(map(float, s)), list(map(float, e))
    return {
        (a, b) if s[a] > s[b] else (b, a)
        for a in range(len(s))
        for b in range(a + 1, len(s))
        if _oracle_significant(s[a], e[a], s[b], e[b], CFG.critical_z)
    }


def oracle_partial_order(s, e, ids):
    """Partial order from a brute-force loop over the oracle's z-test."""
    return PartialOrder.from_edges(ids, {(ids[a], ids[b]) for a, b in oracle_ends(s, e)})


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
        # at the default chunk 250 models span more than one block of the sign kernel; at 1, one model per
        # block; at the straddling chunk, blocks of several rows with the diagonal inside the block
        for chunk, n in product((rankstats._PAIR_CHUNK, 1, STRADDLE_CHUNK), sizes):
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

    def test_single_model_has_no_edges(self):
        assert build_partial_order([0.5], [0.1], CFG).edges == frozenset()

    def test_two_models(self):
        assert build_partial_order([0.5, 0.5], [0.0, 0.0], CFG).edges == frozenset()
        assert build_partial_order([0.5, 0.7], [0.0, 0.0], CFG).edges == frozenset({(1, 0)})
        assert build_partial_order([0.5, 0.7], [0.1, 0.1], CFG).edges == frozenset()


@pytest.fixture(params=[rankstats._PAIR_CHUNK, 1, STRADDLE_CHUNK], ids=["default-chunk", "chunk-1", "chunk-straddle"])
def pair_chunk(request, monkeypatch):
    """Test band pairs in one block, one pair per block, and in blocks that end inside a row."""
    monkeypatch.setattr(rankstats, "_PAIR_CHUNK", request.param)


def split_cases():
    """(scores, stderrs) at each edge case of the z-test that the threshold split must meet exactly."""
    rng = np.random.default_rng(47)
    stderr_kinds = (
        np.zeros,  # 0 / 0 = nan at every tie
        lambda n: np.full(n, 1e-300),  # the variance underflows to 0
        lambda n: np.full(n, 1e200),  # the variance overflows to inf
        lambda n: rng.choice([0.0, 1e-300, 1e200, 0.01, 0.05, 0.2], size=n),
        lambda n: rng.uniform(0.0, 0.2, size=n),
    )
    for n in (1, 2, 3, 9, 40):
        for draw in stderr_kinds:
            ties = np.round(rng.uniform(size=n), 1)
            # gaps between -1.5e308 and 1.5e308 overflow to inf
            huge = rng.choice([-1.5e308, 1.5e308, 0.0, 0.5], size=n)
            for s in (ties, rng.uniform(size=n), huge):
                yield s, draw(n)


def near_cut_cases():
    """(scores, stderrs) whose scores lie a few ulps around row 0's cut s_0 - z * sqrt(var_0 + var).

    There the searchsorted seed of ``_thresholds`` can miss, and the bisection
    must finish the bracket.
    """
    yield (
        np.array([0.49519449898383283, 0.05057095321423312, 0.050570953214233105, 0.0505709532142331, -0.9494290467857669]),
        np.array([0.18971736220506324] + [0.12437671855927657] * 4),
    )
    rng = np.random.default_rng(83)
    for _ in range(20):
        top, se0, se = rng.uniform(0, 1), rng.uniform(0, 0.2), rng.uniform(0, 0.2)
        near = [top - CFG.critical_z * math.sqrt(se0 * se0 + se * se)]
        for _ in range(3):
            near = [np.nextafter(near[0], np.inf), *near, np.nextafter(near[-1], -np.inf)]
        yield np.array([top, *near, near[-1] - 1.0]), np.array([se0] + [se] * (len(near) + 1))


class TestThresholdSplit:
    def test_edges_match_oracle_a_few_ulps_around_a_cut(self, pair_chunk, monkeypatch):
        calls = []

        def counted(*args, _z_test=rankstats._z_test):
            calls.append(args)
            return _z_test(*args)

        bisected = []
        for s, e in near_cut_cases():
            assert build_partial_order(s, e, CFG).edges == frozenset(oracle_ends(s, e))
            order = np.argsort(-s)
            with monkeypatch.context() as patch:
                patch.setattr(rankstats, "_z_test", counted)
                calls.clear()
                rankstats._thresholds(s[order], rankstats._variances(e[order]), CFG.critical_z)
            # two calls test the seeds; any further call is a bisection step
            bisected.append(len(calls) > 2)
        assert bisected[0] and sum(bisected) >= 5

    def test_edges_match_oracle_at_edge_cases(self, pair_chunk):
        for s, e in split_cases():
            assert build_partial_order(s, e, CFG).edges == frozenset(oracle_ends(s, e))

    def test_suffix_plus_band_is_each_rows_edge_count(self, pair_chunk):
        rng = np.random.default_rng(59)
        cases = list(split_cases()) + [(rng.uniform(size=300), rng.uniform(0.0, 0.05, size=300))]
        for s, e in cases:
            order, stop, band, start = build_partial_order(s, e, CFG)._split
            n = len(s)
            per_row = np.bincount([w for w, _ in oracle_ends(s, e)], minlength=n)[order]
            assert ((n - stop) + np.diff(start)).tolist() == per_row.tolist()
            # a row's band columns lie after it and before its suffix
            rows = np.repeat(np.arange(n), np.diff(start))
            assert ((rows < band) & (band < stop[rows])).all()
        # the last case has both suffix and band edges, so the split is not vacuous
        assert (stop < n).any() and 0 < len(band) < (n - stop).sum()


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

    def test_from_edges_groups_scrambled_pairs(self):
        rng = np.random.default_rng(43)
        ids = tuple(f"m{k}" for k in range(30))
        edges = [(ids[a], ids[b]) for a in range(30) for b in range(a + 1, 30) if rng.random() < 0.3]
        for _ in range(20):
            scrambled = [edges[k] for k in rng.permutation(len(edges))]
            po = PartialOrder.from_edges(ids, scrambled)
            assert po.edges == frozenset(edges)
            pairs = sorted((ids.index(a), ids.index(b)) for a, b in edges)
            order, stop, band, start = po._split
            assert order.tolist() == list(range(30)) and stop.tolist() == [30] * 30
            assert band.tolist() == [b for _, b in pairs]
            assert np.diff(start).tolist() == np.bincount([a for a, _ in pairs], minlength=30).tolist()

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

    @pytest.mark.parametrize(
        "scores", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, math.inf, 2.0], [[1.0, 2.0], [3.0, 4.0]]]
    )
    def test_non_finite_or_non_vector_scores_are_refused(self, scores):
        with pytest.raises(AlignmentError, match="finite"):
            vanilla_ranks(scores)

    def test_greedy_refuses_nan_scores(self):
        ids = ("A", "B", "C")
        with pytest.raises(AlignmentError, match="finite"):
            parallel_greedy_rank(ids, chain(ids), chain(ids), [3.0, math.nan, 1.0], [3.0, 2.0, 1.0])


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

    @pytest.mark.parametrize("bad", [1.0, [[1.0, 0.0]], [[1.0], [0.0]]], ids=["0-d", "1x2", "2x1"])
    def test_non_vector_scores_rejected(self, bad):
        ids = ("A", "B")
        for s1, s2 in ((bad, [1.0, 0.0]), ([1.0, 0.0], bad)):
            with pytest.raises(AlignmentError, match="^score vectors must match the model list$"):
                parallel_greedy_rank(ids, chain(ids), chain(ids), s1, s2)

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

    @pytest.mark.parametrize("bad", [1.0, [[1.0, 2.0]], [[1.0], [2.0]]], ids=["0-d", "1x2", "2x1"])
    def test_non_vector_scores_rejected(self, bad):
        se, shape = np.zeros(np.shape(bad)), re.escape(str(np.shape(bad)))
        with pytest.raises(AlignmentError, match=rf"^scores must be vectors, got shapes {shape} and \(2,\)$"):
            rank_models(bad, se, [1.0, 2.0], [0.0, 0.0], CFG)
        with pytest.raises(AlignmentError, match=rf"^scores must be vectors, got shapes \(2,\) and {shape}$"):
            rank_models([1.0, 2.0], [0.0, 0.0], bad, se, CFG)

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

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        sizes = [int(rng.integers(0, 12)) for _ in range(30)] + [300]
        for n in sizes * 2:
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


class TestGreedyCoverage:
    """More shapes for the greedy, each against the oracle's scan of every frontier pair."""

    def test_leaderboard_shape(self):
        # 600 models with binomial scores on about 100 items, as on a noisy leaderboard: most pairs are
        # suffix edges, a thin band needs the real test, and frontiers stay wide
        s1, e1, s2, e2, ids = leaderboard_case(np.random.default_rng(53))
        ar = rank_models(s1, e1, s2, e2, CFG, ids)
        expected = greedy_oracle(ids, oracle_partial_order(s1, e1, ids), oracle_partial_order(s2, e2, ids), s1, s2)
        assert (ar.order1, ar.order2) == expected
        assert crossing_count(ar) > 0

    def test_orders_list_models_in_their_own_orders(self):
        # g1, g2 and the model list each hold the models in a different order
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 61))
            s1, e1, s2, e2, ids = random_case(rng, n)
            p1, p2, p3 = (rng.permutation(n) for _ in range(3))
            g1 = build_partial_order(s1[p1], e1[p1], CFG, [ids[k] for k in p1])
            g2 = build_partial_order(s2[p2], e2[p2], CFG, [ids[k] for k in p2])
            models = tuple(ids[k] for k in p3)
            got = parallel_greedy_rank(models, g1, g2, s1[p3], s2[p3])
            assert got == greedy_oracle(models, g1, g2, s1[p3], s2[p3])


def leaderboard_case(rng, n=600, items=100):
    """Two tasks of binomial scores on about ``items`` items over ``n`` models, with their stderrs and ids."""
    skill = rng.normal(size=n)
    tasks = []
    for shift in (0.0, 0.3):
        p = 1.0 / (1.0 + np.exp(-(skill + rng.normal(0.0, 0.5, n) + shift)))
        s = rng.binomial(items, p) / items
        tasks += [s, np.sqrt(s * (1.0 - s) / items)]
    return (*tasks, tuple(f"m{k:03d}" for k in rng.permutation(n)))


class TestSplitForms:
    def test_split_and_its_edges_align_alike(self, pair_chunk):
        # a score-built order is mostly suffix; the same order rebuilt from its edges is all band,
        # in identity coordinates, so the frontier must treat the two forms alike
        rng = np.random.default_rng(67)
        cases = [leaderboard_case(rng) for _ in range(2)]
        cases += [random_case(rng, int(rng.integers(1, 61))) for _ in range(100)]
        suffix_edges = 0
        for s1, e1, s2, e2, ids in cases:
            g1 = build_partial_order(s1, e1, CFG, ids)
            g2 = build_partial_order(s2, e2, CFG, ids)
            h1, h2 = (PartialOrder.from_edges(ids, g.edges) for g in (g1, g2))
            perm = rng.permutation(len(ids))
            models = tuple(ids[k] for k in perm)
            got = parallel_greedy_rank(models, g1, g2, s1[perm], s2[perm])
            assert got == parallel_greedy_rank(models, h1, h2, s1[perm], s2[perm])
            suffix_edges += int((len(ids) - g1._split.stop).sum())
        assert suffix_edges > 0
