import math

import numpy as np
import pytest

from benchrank.alignment import PartialOrder
from benchrank.core import DEGENERATE
from benchrank.oracles import (
    _linear_extensions,
    alignment_oracle,
    eig2_oracle,
    greedy_oracle,
    tau_oracle,
    taub_oracle,
)
from benchrank.rankstats import SignificanceConfig

CFG = SignificanceConfig()


class TestTauOracle:
    def test_identity(self):
        assert tau_oracle([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversal(self):
        assert tau_oracle([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tie_rejected(self):
        with pytest.raises(ValueError, match="tie"):
            tau_oracle([1, 1, 2], [1, 2, 3])

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            tau_oracle(list(range(13)), list(range(13)))


class TestTaubOracle:
    def test_reduces_to_tau_oracle_without_ties(self):
        x, y = [0.3, 0.9, 0.5, 0.1], [0.2, 0.7, 0.9, 0.4]
        zeros = [0.0] * 4
        assert taub_oracle(x, zeros, y, zeros, CFG) == tau_oracle(x, y)

    def test_hand_case(self):
        t = taub_oracle([0.9, 0.8, 0.7], [0.01] * 3, [0.70, 0.71, 0.90], [0.02] * 3, CFG)
        assert t == pytest.approx(-2 / math.sqrt(6), abs=1e-12)

    def test_degenerate_marker(self):
        assert taub_oracle([0.5, 0.5], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0], CFG) is DEGENERATE


class TestLinearExtensions:
    def test_empty_order_counts_all_permutations(self):
        assert len(_linear_extensions(("a", "b", "c"), set())) == 6

    def test_chain_has_single_extension(self):
        exts = _linear_extensions(("a", "b", "c"), {("a", "b"), ("b", "c"), ("a", "c")})
        assert exts == [("a", "b", "c")]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            _linear_extensions(("a", "b"), {("a", "b"), ("b", "a")})


class TestAlignmentOracle:
    def test_acyclic_union_is_zero(self):
        g1 = PartialOrder.from_edges(("a", "b", "c"), frozenset({("a", "b")}))
        g2 = PartialOrder.from_edges(("a", "b", "c"), frozenset({("b", "c")}))
        assert alignment_oracle(g1, g2) == 0

    def test_contradictory_pair_forces_crossing(self):
        g1 = PartialOrder.from_edges(("a", "b"), frozenset({("a", "b")}))
        g2 = PartialOrder.from_edges(("a", "b"), frozenset({("b", "a")}))
        assert alignment_oracle(g1, g2) == 1

    def test_double_contradiction(self):
        ids = ("a", "b", "c")
        g1 = PartialOrder.from_edges(ids, frozenset({("a", "b"), ("b", "c"), ("a", "c")}))
        g2 = PartialOrder.from_edges(ids, frozenset({("c", "b"), ("b", "a"), ("c", "a")}))
        assert alignment_oracle(g1, g2) == 3

    def test_size_cap(self):
        ids = tuple(range(7))
        g = PartialOrder.from_edges(ids, frozenset())
        with pytest.raises(ValueError, match="n <= 6"):
            alignment_oracle(g, g)

    def test_mismatched_sets(self):
        with pytest.raises(ValueError, match="same model set"):
            alignment_oracle(
                PartialOrder.from_edges(("a",), frozenset()), PartialOrder.from_edges(("b",), frozenset())
            )


class TestGreedyOracle:
    def test_identical_chains(self):
        ids = ("a", "b", "c")
        g = PartialOrder.from_edges(ids, {("a", "b"), ("b", "c"), ("a", "c")})
        assert greedy_oracle(ids, g, g, [3, 2, 1], [3, 2, 1]) == (ids, ids)

    def test_reversal_crosses(self):
        ids = ("a", "b")
        g1 = PartialOrder.from_edges(ids, {("a", "b")})
        g2 = PartialOrder.from_edges(ids, {("b", "a")})
        assert greedy_oracle(ids, g1, g2, [0.9, 0.1], [0.1, 0.9]) == (("a", "b"), ("b", "a"))

    def test_cycle_rejected(self):
        ids = ("a", "b")
        cyclic = PartialOrder.from_edges(ids, {("a", "b"), ("b", "a")})
        with pytest.raises(ValueError, match="cyclic"):
            greedy_oracle(ids, cyclic, cyclic, [1, 0], [1, 0])


class TestEig2Oracle:
    def test_identity(self):
        assert eig2_oracle(np.eye(2)) == (1.0, 1.0)

    def test_diagonal(self):
        assert eig2_oracle(np.diag([3.0, 1.0])) == (3.0, 1.0)

    def test_coupled(self):
        # characteristic polynomial x^2 - 4x + 3
        assert eig2_oracle([[2.0, 1.0], [1.0, 2.0]]) == (3.0, 1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig2_oracle([[1.0, 2.0], [0.0, 1.0]])

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="2x2"):
            eig2_oracle(np.eye(3))
