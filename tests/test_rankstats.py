import ast
import dataclasses
import math
import operator
import re
from itertools import combinations, product
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchrank import rankstats
from benchrank.alignment import AlignmentError, build_partial_order
from benchrank.core import CATEGORIES, DEGENERATE, AgreementMatrix, BenchmarkRecord, DegenerateError, make_score_matrix
from benchrank.rankstats import (
    SignificanceConfig,
    TieError,
    _defined_mean,
    agreement_matrix,
    average_rank_vector,
    bits_per_byte,
    category_agreement,
    kendall_tau,
    kendall_tau_b,
    mean_agreement,
    significant_difference,
)

from oracles import _oracle_significant, tau_oracle, taub_oracle

CFG = SignificanceConfig()

#: A ``_PAIR_CHUNK`` for which the sign Gram takes blocks of 1 < k < M-a-1 rows on these tests'
#: shapes, so their entries below the diagonal must be masked; the default and 1 never do.
STRADDLE_CHUNK = 37

distinct_floats = st.lists(
    st.floats(-100, 100), min_size=2, max_size=10, unique=True
)

# spaced far enough apart that affine/atan transforms cannot collide in floats
spaced_floats = st.lists(
    st.integers(-10**6, 10**6), min_size=2, max_size=10, unique=True
).map(lambda xs: [v / 1000.0 for v in xs])


class TestSignificanceConfig:
    def test_default_critical_z(self):
        assert abs(CFG.critical_z - 1.959964) < 5e-7

    def test_derived_from_alpha(self):
        assert SignificanceConfig(alpha=0.01).critical_z > CFG.critical_z

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.5])
    def test_derived_bit_for_bit(self, alpha):
        assert SignificanceConfig(alpha=alpha).critical_z == NormalDist().inv_cdf(1 - alpha / 2)

    def test_critical_z_is_not_settable(self):
        with pytest.raises(TypeError):
            SignificanceConfig(critical_z=2.5)
        with pytest.raises(ValueError, match="critical_z"):
            dataclasses.replace(CFG, critical_z=2.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0, 1e-17, 1e-300, 0.9999999999999999, float("nan")])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            SignificanceConfig(alpha=alpha)

    def test_alpha_range_ends(self):
        # the extreme float64 alphas whose 1 - alpha/2 lies strictly inside (0.5, 1)
        for alpha in [2.0**-53 * (1 + 2.0**-52), 1 - 2.0**-52]:
            assert 0 < SignificanceConfig(alpha=alpha).critical_z < math.inf


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau([0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5]) == 1.0

    def test_full_reversal(self):
        assert kendall_tau([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0

    def test_single_discordant_pair(self):
        # 6 pairs, C=5, D=1
        assert kendall_tau([1, 2, 3, 4], [2, 1, 3, 4]) == pytest.approx(4 / 6, abs=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            kendall_tau([1.0], [2.0])

    def test_exact_tie_rejected(self):
        with pytest.raises(TieError):
            kendall_tau([1, 1, 2], [1, 2, 3])

    @given(distinct_floats, st.data())
    def test_symmetry_and_range(self, x, data):
        y = data.draw(st.permutations(x))
        t = kendall_tau(x, y)
        assert -1.0 <= t <= 1.0
        assert kendall_tau(y, x) == t

    @given(distinct_floats)
    def test_self_correlation(self, x):
        assert kendall_tau(x, x) == 1.0

    @given(spaced_floats, st.data())
    def test_monotone_transform_invariance(self, x, data):
        y = data.draw(st.permutations(x))
        t = kendall_tau(x, y)
        assert kendall_tau([3.0 * v + 7.0 for v in x], y) == t
        assert kendall_tau(x, [math.atan(v) for v in y]) == t


class TestSignificantDifference:
    def test_clearly_significant(self):
        assert significant_difference(0.80, 0.01, 0.75, 0.01, CFG)

    def test_zero_difference_never_significant(self):
        assert not significant_difference(0.5, 0.0, 0.5, 0.0, CFG)
        assert not significant_difference(0.5, 0.03, 0.5, 0.01, CFG)

    def test_below_threshold(self):
        assert not significant_difference(0.80, 0.02, 0.78, 0.02, CFG)

    def test_zero_stderrs_exact_inequality(self):
        assert significant_difference(0.5, 0.0, 0.5000001, 0.0, CFG)

    def test_critical_z_itself_is_not_significant(self):
        # |d| / sqrt(1 + 0) is exactly critical_z: a tie, and one ulp above it is not
        z = CFG.critical_z
        for gap, significant, tau_b in [(z, False, 2 / math.sqrt(6)), (math.nextafter(z, math.inf), True, 1.0)]:
            assert significant_difference(gap, 1.0, 0.0, 0.0, CFG) is significant
            assert significant_difference(0.0, 0.0, gap, 1.0, CFG) is significant
            po = build_partial_order([gap, 0.0], [1.0, 0.0], CFG, ["a", "b"])
            assert po.edges == ({("a", "b")} if significant else set())
            # the third model's gaps are significant in both dimensions, so only the boundary pair can tie
            assert kendall_tau_b([gap, 0.0, -10.0], [1.0, 0.0, 0.0], [3.0, 2.0, 1.0], [0.0] * 3, CFG) == tau_b

    @given(
        st.floats(-10, 10), st.floats(0, 1), st.floats(-10, 10), st.floats(0, 1)
    )
    def test_symmetric(self, s1, se1, s2, se2):
        assert significant_difference(s1, se1, s2, se2, CFG) == significant_difference(s2, se2, s1, se1, CFG)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            significant_difference(float("nan"), 0.1, 0.5, 0.1, CFG)

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            significant_difference(0.5, -0.1, 0.6, 0.1, CFG)


# zero, subnormal, tiny, ordinary and near-overflow magnitudes; drawing from a small pool gives exact ties
kernel_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0, 1e300, -1e300, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
kernel_stderrs = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-160, 0.01, 1e154, 1e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


@st.composite
def kernel_inputs(draw):
    """Oriented scores and stderrs of shape (B, M), plus a critical z."""
    nb, m = draw(st.integers(1, 3)), draw(st.integers(0, 9))
    scores = np.array(draw(st.lists(kernel_scores, min_size=nb * m, max_size=nb * m))).reshape(nb, m)
    stderrs = np.array(draw(st.lists(kernel_stderrs, min_size=nb * m, max_size=nb * m))).reshape(nb, m)
    return scores, stderrs, draw(st.sampled_from([CFG.critical_z, 1.0, 1e-3, 40.0]))


class TestSignBlocks:
    """The sign Gram, summed over row blocks of the pair triangle, at several block sizes."""

    @given(kernel_inputs(), st.sampled_from([rankstats._PAIR_CHUNK, 1, 5, STRADDLE_CHUNK]))
    # always one case with blocks that straddle the diagonal, mixing ties, significant and insignificant gaps
    @example((np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]]), np.full((1, 9), 0.5), 1.0), STRADDLE_CHUNK)
    def test_gram_is_the_product_of_oracle_signs(self, inputs, chunk):
        scores, stderrs, z = inputs
        with mock.patch.object(rankstats, "_PAIR_CHUNK", chunk), np.errstate(over="ignore"):
            gram = rankstats._sign_gram(scores, stderrs, z)
        # S holds one sign per pair i < j, so S S^T is C - D with no halving, and n_sig on the diagonal
        signs = [
            [
                (1 if s[i] > s[j] else -1) if _oracle_significant(s[i], e[i], s[j], e[j], z) else 0
                for i, j in combinations(range(len(s)), 2)
            ]
            for s, e in zip(scores.tolist(), stderrs.tolist())
        ]
        assert gram.tolist() == [[sum(map(operator.mul, u, v)) for v in signs] for u in signs]

    def test_fewest_models(self):
        for nb, m in [(1, 0), (1, 1), (2, 1)]:
            assert rankstats._sign_gram(np.zeros((nb, m)), np.zeros((nb, m)), 1.0).tolist() == [[0.0] * nb] * nb
        # M = 2: one pair per row, tied, below and above
        scores = np.array([[0.5, 0.5], [0.4, 0.6], [0.6, 0.4]])
        assert rankstats._sign_gram(scores, np.zeros((3, 2)), 1.0).tolist() == [
            [0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0],
            [0.0, -1.0, 1.0],
        ]
        assert not significant_difference(0.5, 0.0, 0.5, 0.0, CFG)
        assert significant_difference(0.5, 0.0, 0.6, 0.0, CFG)
        assert significant_difference(0.6, 0.0, 0.5, 0.0, CFG)

    def test_only_z_test_in_the_package(self):
        """Every comparison against ``critical_z`` in the package sits in ``_z_test``, and there is one."""
        found = []
        for path in sorted(Path(rankstats.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if isinstance(node, ast.Compare) and "critical_z" in names | attrs:
                    scope = node
                    while scope in parents and not isinstance(scope, ast.FunctionDef):
                        scope = parents[scope]
                    found.append((path.name, getattr(scope, "name", None)))
        assert found == [("rankstats.py", "_z_test")]

    def test_alignment_leaves_the_z_test_to_rankstats(self):
        """``alignment`` imports rankstats' split, not the z-test or its parts, and names none of them."""
        tree = ast.parse((Path(rankstats.__file__).parent / "alignment.py").read_text(encoding="utf-8"))
        imports = [
            (n.module, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level for a in n.names
        ]
        assert imports == [("rankstats", name) for name in ("SignificanceConfig", "_checked", "_significance_split")]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & {"_z_test", "_variances", "_PAIR_CHUNK", "_thresholds", "rankstats"}


@pytest.fixture(params=[rankstats._PAIR_CHUNK, 1, STRADDLE_CHUNK], ids=["default-chunk", "chunk-1", "chunk-straddle"])
def pair_chunk(request, monkeypatch):
    """Run at the default block size, which holds these vectors in one block, at one model per block,
    and at blocks of several rows that end before the last column, so they straddle the diagonal."""
    monkeypatch.setattr(rankstats, "_PAIR_CHUNK", request.param)


class TestCountsMatchOracles:
    def test_kendall_tau(self, pair_chunk):
        rng = np.random.default_rng(29)
        for n in [2, 3, 5, 8, 12] * 20:
            x, y = rng.uniform(size=n), rng.normal(size=n)
            assert kendall_tau(x, y) == tau_oracle(x, y)

    def test_kendall_tau_b(self, pair_chunk):
        rng = np.random.default_rng(37)
        for n in [2, 3, 5, 8, 12] * 20:
            x, y = np.round(rng.uniform(size=(2, n)), 1)
            se_x, se_y = rng.uniform(0, 0.1, size=(2, n)) * (rng.random(2)[:, None] < 0.75)
            expected = taub_oracle(x, se_x, y, se_y, CFG)
            assert kendall_tau_b(x, se_x, y, se_y, CFG) == expected

    def test_significant_difference(self, pair_chunk):
        rng = np.random.default_rng(31)
        for _ in range(500):
            s1, s2 = rng.choice([0.5, 0.52, 0.6, 1e300, -1e300], size=2).tolist()
            se1, se2 = rng.choice([0.0, 0.005, 0.02, 1e154], size=2).tolist()
            expected = _oracle_significant(s1, se1, s2, se2, CFG.critical_z)
            assert significant_difference(s1, se1, s2, se2, CFG) == expected


NAN, INF = float("nan"), float("inf")
S3, E3 = [1.0, 2.0, 3.0], [0.1] * 3
# caller, arguments, exception class and message, per caller of the shared score/stderr check
CHECKED_REJECTIONS = {
    "significant_difference-nan-score": (significant_difference, (NAN, 0.1, 0.5, 0.1, CFG), ValueError, "non-finite"),
    "significant_difference-inf-stderr": (significant_difference, (0.4, 0.1, 0.5, INF, CFG), ValueError, "non-finite"),
    "significant_difference-negative-stderr": (significant_difference, (0.4, -0.1, 0.5, 0.1, CFG), ValueError, ">= 0"),
    "kendall_tau-nan-score": (kendall_tau, ([1.0, NAN, 3.0], S3), ValueError, "non-finite"),
    "kendall_tau-unequal-lengths": (kendall_tau, (S3, [1.0, 2.0]), ValueError, "length mismatch"),
    "kendall_tau_b-nan-score": (kendall_tau_b, (S3, E3, [1.0, NAN, 3.0], E3, CFG), ValueError, "non-finite"),
    "kendall_tau_b-inf-stderr": (kendall_tau_b, (S3, [0.1, INF, 0.1], S3, E3, CFG), ValueError, "non-finite"),
    "kendall_tau_b-negative-stderr": (kendall_tau_b, (S3, E3, S3, [-0.1] * 3, CFG), ValueError, ">= 0"),
    "kendall_tau_b-unequal-stderr-length": (kendall_tau_b, (S3, E3[:2], S3, E3, CFG), ValueError, "stderr"),
    "kendall_tau_b-unequal-lengths": (kendall_tau_b, (S3, E3, S3[:2], E3[:2], CFG), ValueError, "length mismatch"),
    "build_partial_order-nan-score": (build_partial_order, ([1.0, NAN, 3.0], E3, CFG), AlignmentError, "non-finite"),
    "build_partial_order-inf-stderr": (build_partial_order, (S3, [0.1, INF, 0.1], CFG), AlignmentError, "non-finite"),
    "build_partial_order-negative-stderr": (build_partial_order, (S3, [0.1, -0.1, 0.1], CFG), AlignmentError, ">= 0"),
    "build_partial_order-unequal-lengths": (build_partial_order, (S3, E3[:2], CFG), AlignmentError, "stderr"),
}


@pytest.mark.parametrize("case", CHECKED_REJECTIONS)
def test_checked_rejections(case, pair_chunk):
    call, args, error, match = CHECKED_REJECTIONS[case]
    with pytest.raises(error, match=match) as excinfo:
        call(*args)
    assert excinfo.type is error


class TestKendallTauB:
    def test_reduces_to_tau_without_ties(self):
        cases = [
            ([0.9, 0.5, 0.7, 0.1], [0.8, 0.3, 0.6, 0.2], 1.0),
            ([0.9, 0.5, 0.7, 0.1], [0.8, 0.6, 0.3, 0.2], 2 / 3),
            # the product of the two score gaps, 1e-400, underflows to zero
            ([0.0, 1e-200], [0.0, 1e-200], 1.0),
        ]
        for x, y, expected in cases:
            zeros = [0.0] * len(x)
            t = kendall_tau_b(x, zeros, y, zeros, CFG)
            assert t == kendall_tau(x, y) == taub_oracle(x, zeros, y, zeros, CFG)
            assert t == pytest.approx(expected, abs=1e-15)

    def test_hand_worked_case(self):
        t = kendall_tau_b([0.9, 0.8, 0.7], [0.01] * 3, [0.70, 0.71, 0.90], [0.02] * 3, CFG)
        assert t == pytest.approx(-2 / math.sqrt(6), abs=1e-12)

    def test_all_tied_returns_marker(self):
        t = kendall_tau_b([0.5, 0.5, 0.5], [0.0] * 3, [1.0, 2.0, 3.0], [0.0] * 3, CFG)
        assert t is DEGENERATE

    def test_exact_tie_with_noise_is_tied(self):
        # z = 0 regardless of stderr; the pair lands in Tx
        t = kendall_tau_b([0.5, 0.5], [0.1, 0.1], [1.0, 2.0], [0.0, 0.0], CFG)
        assert t is DEGENERATE  # the only pair is tied in x

    def test_large_noise_ties_everything(self):
        t = kendall_tau_b([0.4, 0.5, 0.6], [5.0] * 3, [0.1, 0.2, 0.3], [5.0] * 3, CFG)
        assert t is DEGENERATE

    def test_stderr_length_checked(self):
        with pytest.raises(ValueError, match="stderr"):
            kendall_tau_b([1, 2], [0.1], [1, 2], [0.1, 0.1], CFG)

    @pytest.mark.parametrize(
        "bad, match", [(float("nan"), "non-finite"), (float("inf"), "non-finite"), (-0.1, ">= 0")]
    )
    def test_bad_stderr_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            kendall_tau_b([1, 2, 3], [0.1, bad, 0.1], [1, 2, 3], [0.1] * 3, CFG)
        with pytest.raises(ValueError, match=match):
            kendall_tau_b([1, 2, 3], [0.1] * 3, [1, 2, 3], [bad, 0.1, 0.1], CFG)


def assert_matches_taub_oracle(am, rows, stderrs):
    """Every off-diagonal cell and its degenerate flag equal the brute-force oracle."""
    for a in range(len(rows)):
        for b in range(len(rows)):
            if a != b:
                expected = taub_oracle(rows[a], stderrs[a], rows[b], stderrs[b], CFG)
                assert am.entry(a, b) == expected
                assert am.degenerate[a, b] == (expected is DEGENERATE)


def matrix_from_rows(rows, direction="higher", stderrs=None):
    rows = np.asarray(rows, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(rows)
    return make_score_matrix(
        [f"b{i}" for i in range(rows.shape[0])],
        [f"m{j}" for j in range(rows.shape[1])],
        rows,
        stderrs,
        direction=direction,
    )


class TestAgreementMatrix:
    def test_identical_rows(self):
        m = matrix_from_rows([[0.1, 0.5, 0.9], [0.1, 0.5, 0.9]])
        am = agreement_matrix(m, method="tau")
        assert am.values[0, 1] == 1.0

    def test_reversed_rows(self):
        m = matrix_from_rows([[0.1, 0.5, 0.9], [0.9, 0.5, 0.1]])
        am = agreement_matrix(m, method="tau")
        assert am.values[0, 1] == -1.0

    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(7)
        m = matrix_from_rows(rng.uniform(size=(4, 6)))
        am = agreement_matrix(m, method="tau")
        assert np.array_equal(np.diag(am.values), np.ones(4))
        assert np.array_equal(am.values, am.values.T)

    def test_matches_per_pair_calls(self, monkeypatch):
        rng = np.random.default_rng(13)
        rows = rng.uniform(size=(3, 7))
        tied = np.vstack([rows, rng.integers(0, 3, size=(2, 7)) / 3, np.full((1, 7), 0.5)])
        zeros = np.zeros_like(tied)
        # the default chunk covers these rows in one step, a chunk of 1 takes one model per step,
        # and the straddling chunk takes several rows per step, with the diagonal inside the block
        for chunk in (rankstats._PAIR_CHUNK, 1, STRADDLE_CHUNK):
            monkeypatch.setattr(rankstats, "_PAIR_CHUNK", chunk)
            assert_matches_taub_oracle(agreement_matrix(matrix_from_rows(rows), method="tau"), rows, zeros)
            assert_matches_taub_oracle(agreement_matrix(matrix_from_rows(tied), method="tau_b"), tied, zeros)

    def test_orientation_applied(self):
        # same ranking expressed as accuracy and as a lower-is-better metric
        m = matrix_from_rows([[0.1, 0.5, 0.9], [3.0, 2.0, 1.0]], direction=["higher", "lower"])
        am = agreement_matrix(m, method="tau")
        assert am.values[0, 1] == 1.0

    def test_tau_b_uses_stderrs(self):
        # the last row's gaps are all insignificant at these stderrs: degenerate cells
        rows = [[0.9, 0.8, 0.1], [0.1, 0.8, 0.9], [0.5, 0.52, 0.54]]
        ses = np.full((3, 3), 0.04)
        m = matrix_from_rows(rows, stderrs=ses)
        am = agreement_matrix(m, method="tau_b", cfg=CFG)
        assert am.degenerate[0, 2] and not am.degenerate[0, 1]
        assert_matches_taub_oracle(am, rows, ses)

    def test_degenerate_cell_flagged(self):
        rows = [[0.5, 0.5, 0.5], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]
        m = matrix_from_rows(rows)
        am = agreement_matrix(m, method="tau_b", cfg=CFG)
        assert am.entry(0, 1) is DEGENERATE
        assert am.entry(1, 2) == -1.0

    def test_tau_with_ties_names_benchmark(self):
        m = matrix_from_rows([[0.5, 0.5, 0.1], [0.1, 0.2, 0.3]])
        with pytest.raises(TieError, match="b0"):
            agreement_matrix(m, method="tau")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        rows = rng.uniform(size=(4, 6))
        m = matrix_from_rows(rows)
        am = agreement_matrix(m, method="tau")
        col_perm = rng.permutation(6)
        m_cols = make_score_matrix(
            m.benchmark_ids,
            [m.model_ids[j] for j in col_perm],
            rows[:, col_perm],
            np.zeros((4, 6)),
        )
        assert np.array_equal(agreement_matrix(m_cols, method="tau").values, am.values)
        row_perm = rng.permutation(4)
        m_rows = make_score_matrix(
            [m.benchmark_ids[i] for i in row_perm],
            m.model_ids,
            rows[row_perm],
            np.zeros((4, 6)),
        )
        permuted = agreement_matrix(m_rows, method="tau").values
        assert np.array_equal(permuted, am.values[np.ix_(row_perm, row_perm)])

    def test_needs_two_benchmarks(self):
        with pytest.raises(ValueError, match="2 benchmarks"):
            agreement_matrix(matrix_from_rows([[0.1, 0.2]]), method="tau")

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            agreement_matrix(matrix_from_rows([[0.1, 0.2], [0.3, 0.4]]), method="spearman")


def hand_matrix(values, benchmark_ids=None, degenerate=None):
    values = np.asarray(values, dtype=float)
    if degenerate is None:
        degenerate = np.zeros(values.shape, dtype=bool)
    ids = tuple(benchmark_ids or (f"b{i}" for i in range(values.shape[0])))
    return AgreementMatrix(benchmark_ids=ids, values=values, degenerate=np.asarray(degenerate))


class TestMeanAgreement:
    def test_hand_example(self):
        am = hand_matrix([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
        means = mean_agreement(am)
        assert means.means[0] == pytest.approx(0.3, abs=1e-12)
        assert list(means.n_excluded) == [0, 0, 0]

    def test_all_ones(self):
        am = hand_matrix(np.ones((3, 3)))
        assert np.array_equal(mean_agreement(am).means, np.ones(3))

    def test_two_benchmarks_negative(self):
        am = hand_matrix([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(mean_agreement(am).means, [-1.0, -1.0])

    def test_degenerate_cells_excluded_and_counted(self):
        deg = np.zeros((3, 3), dtype=bool)
        deg[0, 1] = deg[1, 0] = True
        am = hand_matrix([[1.0, 0.0, 0.4], [0.0, 1.0, 0.6], [0.4, 0.6, 1.0]], degenerate=deg)
        means = mean_agreement(am)
        assert means.means[0] == 0.4
        assert list(means.n_excluded) == [1, 1, 0]

    def test_one_benchmark_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 benchmarks$"):
            mean_agreement(hand_matrix([[1.0]]))

    def test_fully_degenerate_row_raises(self):
        deg = np.zeros((2, 2), dtype=bool)
        deg[0, 1] = deg[1, 0] = True
        with pytest.raises(DegenerateError):
            mean_agreement(hand_matrix(np.eye(2), degenerate=deg))


@st.composite
def agreement_with_holes(draw):
    """An agreement matrix with NaN in its degenerate cells, up to 140 benchmarks (past numpy's 128-cell
    pairwise block), values over 17 decades so that the summation order shows, and per-row rates of
    degenerate cells, so rows skip different numbers of cells; some rows may be made fully degenerate."""
    nb = draw(st.integers(2, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (nb, nb)) * 10.0 ** rng.integers(-8, 9, (nb, nb))
    rates = rng.uniform(0.0, draw(st.sampled_from([0.0, 0.1, 0.6, 1.0])), (nb, 1))
    degenerate = rng.random((nb, nb)) < rates
    for i in draw(st.lists(st.integers(0, nb - 1), max_size=3)):
        degenerate[i] = True
    if draw(st.booleans()):
        degenerate |= degenerate.T
    values[degenerate] = np.nan
    return hand_matrix(values, degenerate=degenerate)


class TestMeanAgreementExactness:
    @settings(max_examples=150, deadline=None)
    @given(agreement_with_holes())
    @example(hand_matrix(np.arange(140.0 * 140.0).reshape(140, 140) ** 3 / 7.0))
    def test_each_mean_is_np_mean_of_its_kept_cells(self, am):
        nb = am.n_benchmarks
        cells = [[(i, j) for j in range(nb) if j != i] for i in range(nb)]
        kept = [[am.values[i, j] for i, j in row if not am.degenerate[i, j]] for row in cells]
        excluded = [sum(bool(am.degenerate[i, j]) for i, j in row) for row in cells]
        dead = [i for i in range(nb) if not kept[i]]
        if dead:
            message = f"benchmark {am.benchmark_ids[dead[0]]!r}: every off-diagonal agreement cell is degenerate"
            with pytest.raises(DegenerateError, match=f"^{re.escape(message)}$"):
                mean_agreement(am)
            return
        res = mean_agreement(am)
        assert np.array_equal(res.means, [np.mean(row) for row in kept])
        assert np.array_equal(res.means, [_defined_mean(am, row)[0] for row in cells])
        assert res.n_excluded.dtype == np.int64 and res.n_excluded.tolist() == excluded
        assert not res.means.flags.writeable and not res.n_excluded.flags.writeable


@st.composite
def agreement_with_categories(draw):
    """An :func:`agreement_with_holes` matrix and one category per benchmark, drawn from a few of the
    canonical ones so that categories interleave in id order and some hold one benchmark."""
    am = draw(agreement_with_holes())
    names = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=len(CATEGORIES), unique=True))
    return am, draw(st.lists(st.sampled_from(names), min_size=am.n_benchmarks, max_size=am.n_benchmarks))


def _exactness_example():
    """140 benchmarks: a singleton category (LU) whose pairs with CR are all degenerate, two categories of 3
    (CR, QA) whose cross cell keeps 9 cells, and one of 133 (Math) whose diagonal keeps 8,778."""
    values = np.arange(140.0 * 140.0).reshape(140, 140) ** 3 / 7.0
    degenerate = np.zeros((140, 140), dtype=bool)
    degenerate[0, 1:4] = degenerate[1:4, 0] = True
    values[degenerate] = np.nan
    return hand_matrix(values, degenerate=degenerate), ["LU"] + ["CR"] * 3 + ["QA"] * 3 + ["Math"] * 133


class TestCategoryAgreementExactness:
    @settings(max_examples=150, deadline=None)
    @given(agreement_with_categories())
    @example(_exactness_example())
    def test_each_cell_is_np_mean_of_its_kept_cells(self, drawn):
        am, category = drawn
        cats = [BenchmarkRecord(b, c) for b, c in zip(am.benchmark_ids, category)]
        present = [c for c in CATEGORIES if c in category]
        members = {c: [i for i, ci in enumerate(category) if ci == c] for c in present}
        res = category_agreement(am, cats[::-1])
        assert res.categories == tuple(present)
        for (a, c1), (b, c2) in product(enumerate(present), repeat=2):
            first, second = sorted((a, b))
            rows, cols = members[present[first]], members[present[second]]
            cells = list(combinations(rows, 2) if first == second else product(rows, cols))
            kept = [am.values[i, j] for i, j in cells if not am.degenerate[i, j]]
            assert res.n_excluded[a, b] == len(cells) - len(kept)
            assert res.undefined[a, b] == (not kept)
            assert res.values[a, b] == (np.mean(kept) if kept else 0.0)
            if kept:
                assert res.entry(c1, c2) == np.mean(kept)
        assert res.n_excluded.dtype == np.int64
        for arr in (res.values, res.undefined, res.n_excluded):
            assert not arr.flags.writeable

    def test_no_cells_have_no_mean(self):
        assert _defined_mean(hand_matrix(np.eye(3)), []) == (None, 0)


class TestCategoryAgreement:
    def test_hand_example_with_singleton(self):
        am = hand_matrix(
            [[1.0, 0.6, 0.2], [0.6, 1.0, 0.4], [0.2, 0.4, 1.0]], benchmark_ids=["A", "B", "C"]
        )
        cats = [BenchmarkRecord("A", "LU"), BenchmarkRecord("B", "LU"), BenchmarkRecord("C", "QA")]
        ca = category_agreement(am, cats)
        assert ca.categories == ("LU", "QA")
        assert ca.entry("LU", "LU") == pytest.approx(0.6, abs=1e-12)
        assert ca.entry("LU", "QA") == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(DegenerateError, match="QA"):
            ca.entry("QA", "QA")

    def test_single_category_equals_global_mean(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1, 1, size=(4, 4))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 1.0)
        am = hand_matrix(vals)
        cats = [BenchmarkRecord(b, "Math") for b in am.benchmark_ids]
        ca = category_agreement(am, cats)
        offdiag = [vals[i, j] for i in range(4) for j in range(i + 1, 4)]
        assert ca.entry("Math", "Math") == pytest.approx(np.mean(offdiag), abs=1e-15)

    def test_identical_rankings_all_ones(self):
        am = hand_matrix(np.ones((4, 4)))
        cats = [
            BenchmarkRecord("b0", "LU"),
            BenchmarkRecord("b1", "LU"),
            BenchmarkRecord("b2", "CR"),
            BenchmarkRecord("b3", "CR"),
        ]
        ca = category_agreement(am, cats)
        assert np.array_equal(ca.values, np.ones((2, 2)))

    def test_missing_category_rejected(self):
        am = hand_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match="without a category"):
            category_agreement(am, [BenchmarkRecord("b0", "LU")])

    def test_duplicate_category_record_rejected(self):
        am = hand_matrix(np.ones((2, 2)))
        cats = [BenchmarkRecord("b0", "LU"), BenchmarkRecord("b1", "QA"), BenchmarkRecord("b0", "QA")]
        with pytest.raises(ValueError, match="duplicate category record for benchmark 'b0'"):
            category_agreement(am, cats)

    def test_canonical_order(self):
        am = hand_matrix(np.ones((3, 3)))
        cats = [
            BenchmarkRecord("b0", "Med"),
            BenchmarkRecord("b1", "LU"),
            BenchmarkRecord("b2", "Med"),
        ]
        assert category_agreement(am, cats).categories == ("LU", "Med")

    def test_degenerate_pairs_skipped(self):
        deg = np.zeros((3, 3), dtype=bool)
        deg[0, 2] = deg[2, 0] = True
        am = hand_matrix(
            [[1.0, 0.5, 0.0], [0.5, 1.0, 0.8], [0.0, 0.8, 1.0]], degenerate=deg
        )
        cats = [
            BenchmarkRecord("b0", "LU"),
            BenchmarkRecord("b1", "QA"),
            BenchmarkRecord("b2", "LU"),
        ]
        ca = category_agreement(am, cats)
        # intra-LU pair (b0, b2) is degenerate: cell undefined, counted
        assert ca.n_excluded[0, 0] == 1
        with pytest.raises(DegenerateError):
            ca.entry("LU", "LU")
        assert ca.entry("LU", "QA") == pytest.approx((0.5 + 0.8) / 2, abs=1e-12)


class TestBitsPerByte:
    def test_definitional_unit(self):
        assert bits_per_byte(100 * math.log(2), 100) == pytest.approx(1.0, abs=1e-15)

    def test_zero_nll(self):
        assert bits_per_byte(0.0, 10) == 0.0

    def test_derived_value(self):
        assert bits_per_byte(1000, 500) == pytest.approx(1000 / (500 * math.log(2)), abs=0)

    @pytest.mark.parametrize("total_bytes", [0, -1])
    def test_bad_bytes(self, total_bytes):
        with pytest.raises(ValueError, match="total_bytes"):
            bits_per_byte(1.0, total_bytes)

    def test_negative_nll(self):
        with pytest.raises(ValueError, match="total_nll"):
            bits_per_byte(-1.0, 10)

    @pytest.mark.parametrize(
        "nll, total_bytes",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1e308, 1e-308)],
    )
    def test_non_finite_input_or_result_is_refused(self, nll, total_bytes):
        with pytest.raises(ValueError):
            bits_per_byte(nll, total_bytes)


class TestAverageRankVector:
    def test_single_benchmark_is_oriented_row(self):
        m = matrix_from_rows([[1.4, 0.9]], direction=["lower"])
        assert np.array_equal(average_rank_vector(m, ["b0"]), [-1.4, -0.9])

    def test_two_row_mean(self):
        m = matrix_from_rows([[0.2, 0.4], [0.4, 0.6]])
        assert np.allclose(average_rank_vector(m, ["b0", "b1"]), [0.3, 0.5], rtol=0, atol=1e-12)

    def test_constant_output_degenerates_downstream(self):
        m = matrix_from_rows([[0.5, 0.5], [0.5, 0.5]])
        avg = average_rank_vector(m, ["b0", "b1"])
        assert np.array_equal(avg, [0.5, 0.5])
        assert kendall_tau_b(avg, [0, 0], [1.0, 2.0], [0, 0], CFG) is DEGENERATE

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="non-empty"):
            average_rank_vector(matrix_from_rows([[0.1, 0.2]]), [])

    def test_mixed_directions_rejected(self):
        m = matrix_from_rows([[0.2, 0.4], [1.1, 0.9]], direction=["higher", "lower"])
        with pytest.raises(ValueError, match="mixed directions"):
            average_rank_vector(m, ["b0", "b1"])

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            average_rank_vector(matrix_from_rows([[0.1, 0.2]]), ["nope"])
