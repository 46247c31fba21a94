import itertools
import re

import numpy as np
import pytest

from benchrank.core import DEGENERATE, make_score_matrix
from benchrank.lowrank import (
    ComputeRecord,
    PcaResult,
    compute_flops,
    explained_variance_share,
    fit_pca,
    pc1_compute_correlation,
)

from oracles import eig2_oracle


def matrix(scores):
    scores = np.asarray(scores, dtype=float)
    nb, nm = scores.shape
    return make_score_matrix(
        [f"b{i}" for i in range(nb)],
        [f"m{j}" for j in range(nm)],
        scores,
        np.zeros_like(scores),
    )


def rank_one_matrix(rng, nb=5, nm=8):
    loading = rng.uniform(0.5, 2.0, size=nb)
    skill = rng.normal(size=nm)
    offset = rng.normal(size=nb)
    return matrix(loading[:, None] * skill[None, :] + offset[:, None])


class TestFitPca:
    def test_rank_one_has_unit_evr(self):
        r = fit_pca(rank_one_matrix(np.random.default_rng(0)))
        assert r.evr[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(float(r.evr.sum()) - 1.0) <= 1e-9

    def test_two_feature_isotropic(self):
        # feature vectors (+-1, 0) and (0, +-1): covariance (2/3) I
        r = fit_pca(matrix([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]))
        assert np.allclose(r.eigenvalues, [2 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(r.evr, [0.5, 0.5], atol=1e-12)

    def test_two_feature_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = rng.normal(size=(2, 6))
            r = fit_pca(matrix(scores))
            cov = np.cov(scores.T, rowvar=False)
            expected = eig2_oracle(cov)
            assert abs(r.eigenvalues[0] - expected[0]) <= 1e-10
            assert abs(r.eigenvalues[1] - expected[1]) <= 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 8))
        r = fit_pca(matrix(scores))
        centered = scores.T - scores.T.mean(axis=0)
        rebuilt = (centered @ r.components) @ r.components.T
        assert np.max(np.abs(rebuilt - centered)) < 1e-9

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(6, 9))
        r = fit_pca(matrix(scores))
        total_var = scores.T.var(axis=0, ddof=1).sum()
        assert abs(float(r.eigenvalues.sum()) - total_var) <= 1e-9

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(5)
        r = fit_pca(matrix(rng.normal(size=(4, 7))))
        assert np.all(r.eigenvalues >= 0)
        assert np.all(np.diff(r.eigenvalues) <= 0)
        assert np.all(np.diff(r.evr) <= 0)

    def test_model_order_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(4, 8))
        m = matrix(scores)
        r = fit_pca(m)
        perm = rng.permutation(8)
        mp = make_score_matrix(
            m.benchmark_ids, [m.model_ids[j] for j in perm], scores[:, perm], np.zeros((4, 8))
        )
        rp = fit_pca(mp)
        assert np.allclose(rp.eigenvalues, r.eigenvalues, atol=1e-12)
        assert np.allclose(rp.pc1_scores, r.pc1_scores[perm], atol=1e-12)

    def test_constant_row_shift_is_exact(self):
        # dyadic values keep centering arithmetic exact
        rng = np.random.default_rng(7)
        base = rng.integers(0, 64, size=(3, 4)) / 64.0
        shifted = base.copy()
        shifted[1] += 1.0
        r1, r2 = fit_pca(matrix(base)), fit_pca(matrix(shifted))
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.pc1_scores, r2.pc1_scores)

    def test_evr_invariant_under_rescaling(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(4, 6))
        r1 = fit_pca(matrix(base))
        r2 = fit_pca(matrix(base * 2.0))
        r3 = fit_pca(matrix(base * 3.7))
        assert np.array_equal(r1.evr, r2.evr)
        assert np.allclose(r2.eigenvalues, 4.0 * r1.eigenvalues, rtol=1e-12)
        assert np.max(np.abs(r1.evr - r3.evr)) <= 1e-12

    def test_pc1_sign_anchored_to_mean_score(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            scores = rng.normal(size=(3, 6))
            r = fit_pca(matrix(scores))
            centered = scores.T - scores.T.mean(axis=0)
            assert float(r.pc1_scores @ centered.mean(axis=1)) >= 0.0

    def test_pc1_sign_orthogonal_to_mean_score(self):
        # the mean score is constant, so the anchor is 0 and the first
        # nonzero loading decides the sign
        r = fit_pca(matrix([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(r.components[:, 0], [s, -s], atol=1e-12)
        assert np.allclose(r.pc1_scores, [-3 * s, -s, s, 3 * s], atol=1e-12)

    def test_pc1_sign_at_tied_means_ignores_row_order(self):
        # every model's mean is 0.375, so the loading of the smallest benchmark id decides the sign;
        # b0's exact loading is 0, and eigh returns it as +-0 or as rounding noise depending on the
        # row order, so b1, the smallest id above the rounding floor, decides
        scores = np.array([[0.25, 0.25, 0.0], [0.0, 0.75, 0.25], [0.5, 0.5, 1.0], [0.75, 0.0, 0.25]])
        want = fit_pca(matrix(scores))
        assert abs(want.components[0, 0]) < 1e-15 and want.components[1, 0] > 0.5
        for rows in itertools.permutations(range(4)):
            for cols in itertools.permutations(range(3)):
                m = make_score_matrix(
                    [f"b{i}" for i in rows], [f"m{j}" for j in cols], scores[np.ix_(rows, cols)], np.zeros((4, 3))
                )
                got = fit_pca(m)
                assert np.abs(got.pc1_scores - want.pc1_scores[list(cols)]).max() <= 1e-12
                assert np.abs(got.components[:, 0] - want.components[list(rows), 0]).max() <= 1e-12

    def test_tied_eigenvalues_keep_eigh_order(self):
        # Hadamard rows make the centred benchmarks orthogonal, so the covariance
        # is exactly diagonal with two tied pairs, the top one included.  Tied
        # eigenvectors keep eigh's order, so pc1 and the components are the ones
        # of a stable sort; an unstable one (numpy's SIMD quicksort reorders
        # ties even at n = 4) would project pc1 on benchmark b3 instead of b1.
        h = np.array(
            [[1, -1, 1, -1, 1, -1, 1, -1], [1, 1, -1, -1, 1, 1, -1, -1], [1, -1, -1, 1, 1, -1, -1, 1], [1, 1, 1, 1, -1, -1, -1, -1]],
            dtype=float,
        )
        scores = 0.5 + 0.125 * np.array([h[2], 2 * h[0], h[3], 2 * h[1]])
        r = fit_pca(matrix(scores))
        x = scores.T - scores.T.mean(axis=0)
        w, v = np.linalg.eigh(x.T @ x / 7)
        assert w[0] == w[1] < w[2] == w[3]
        assert np.array_equal(r.eigenvalues, w[[2, 3, 0, 1]])
        assert np.array_equal(r.components, v[:, [2, 3, 0, 1]])
        assert np.array_equal(r.pc1_scores, x @ v[:, 2]) and np.array_equal(r.pc1_scores, x[:, 1])

    def test_wide_rank_deficient(self):
        # more benchmarks than models: at most n_models - 1 nonzero eigenvalues
        rng = np.random.default_rng(13)
        scores = rank_one_matrix(rng, nb=80, nm=60).scores + 0.3 * rng.normal(size=(80, 60))
        r = fit_pca(matrix(scores))
        lam, v = r.eigenvalues, r.components
        assert lam.shape == (80,) and v.shape == (80, 80)
        assert np.all(lam >= 0) and np.all(np.diff(lam) <= 0)
        cov = np.cov(scores)
        assert np.linalg.norm(cov @ v - v * lam) / np.linalg.norm(cov) <= 1e-9
        assert np.linalg.norm(v.T @ v - np.eye(80)) <= 1e-9
        assert abs(float(lam.sum()) - float(np.trace(cov))) <= 1e-9 * float(np.trace(cov))

    @pytest.mark.parametrize("preprocessing", ["center", "zscore"])
    def test_overflow_rejected(self, preprocessing):
        scores = [[1e200, -1e200, 3e200], [1.0, 2.0, 3.0]]
        with pytest.raises(ValueError, match="overflows float64"):
            fit_pca(matrix(scores), preprocessing=preprocessing)

    def test_zscore_normalizes_feature_scale(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=(3, 8)) * np.array([[1.0], [50.0], [0.02]])
        r = fit_pca(matrix(scores), preprocessing="zscore")
        assert r.preprocessing == "zscore"
        assert abs(float(r.eigenvalues.sum()) - 3.0) < 1e-9  # correlation matrix trace

    def test_zscore_rejects_constant_benchmark(self):
        scores = [[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]]
        with pytest.raises(ValueError, match="b0.*zero variance"):
            fit_pca(matrix(scores), preprocessing="zscore")

    def test_dimension_requirements(self):
        with pytest.raises(ValueError, match=">= 2"):
            fit_pca(matrix(np.zeros((1, 5)) + np.arange(5)))

    def test_unknown_preprocessing(self):
        with pytest.raises(ValueError, match="preprocessing"):
            fit_pca(matrix(np.random.default_rng(0).normal(size=(3, 4))), preprocessing="whiten")

    def test_all_constant_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero total variance"):
            fit_pca(matrix(np.full((3, 4), 0.25)))


class TestExplainedVarianceShare:
    def fake_result(self, evr):
        evr = np.asarray(evr, dtype=float)
        k = len(evr)
        return PcaResult(
            eigenvalues=evr.copy(),
            evr=evr,
            pc1_scores=np.zeros(k),
            preprocessing="center",
            components=np.eye(k),
            model_ids=tuple(f"m{i}" for i in range(k)),
            benchmark_ids=tuple(f"b{i}" for i in range(k)),
        )

    def test_full_length_sums_to_one(self):
        rng = np.random.default_rng(11)
        r = fit_pca(matrix(rng.normal(size=(4, 6))))
        assert explained_variance_share(r, r.n_components) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_first_component(self):
        r = fit_pca(rank_one_matrix(np.random.default_rng(12)))
        assert explained_variance_share(r, 1) == pytest.approx(1.0, abs=1e-9)

    def test_partial_sum(self):
        assert explained_variance_share(self.fake_result([0.6, 0.3, 0.1]), 2) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must be"):
            explained_variance_share(self.fake_result([0.6, 0.3, 0.1]), k)


class TestComputeFlops:
    def test_published_rows_exact(self):
        assert compute_flops(8.03, 15000) == 722700e18
        assert compute_flops(0.07, 300) == 126e18

    def test_unit_case(self):
        assert compute_flops(1, 1) == 6e18

    @pytest.mark.parametrize("p,t", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_rejected(self, p, t):
        with pytest.raises(ValueError):
            compute_flops(p, t)

    @pytest.mark.parametrize(
        "p,t,side",
        [
            (1e300, 1e300, "overflows"),
            (1e200, 1e200, "overflows"),
            (float("inf"), 1.0, "overflows"),
            (1.0, float("inf"), "overflows"),
            (1e-200, 1e-200, "underflows"),
        ],
    )
    def test_product_outside_float64_rejected(self, p, t, side):
        with pytest.raises(ValueError, match=re.escape(f"{side} float64 at ({p}, {t})")):
            compute_flops(p, t)


class TestPc1ComputeCorrelation:
    def result_with_pc1(self, pc1, model_ids):
        pc1 = np.asarray(pc1, dtype=float)
        return PcaResult(
            eigenvalues=np.array([1.0, 0.0]),
            evr=np.array([1.0, 0.0]),
            pc1_scores=pc1,
            preprocessing="center",
            components=np.eye(2),
            model_ids=tuple(model_ids),
            benchmark_ids=("b0", "b1"),
        )

    def test_monotone_increasing(self):
        r = self.result_with_pc1([0.1, 0.5, 2.0], ["a", "b", "c"])
        recs = [ComputeRecord("a", 1e18), ComputeRecord("b", 5e18), ComputeRecord("c", 9e19)]
        assert pc1_compute_correlation(r, recs) == 1.0

    def test_monotone_decreasing(self):
        r = self.result_with_pc1([2.0, 0.5, 0.1], ["a", "b", "c"])
        recs = [ComputeRecord("a", 1e18), ComputeRecord("b", 5e18), ComputeRecord("c", 9e19)]
        assert pc1_compute_correlation(r, recs) == -1.0

    def test_models_without_records_excluded(self):
        r = self.result_with_pc1([0.1, 99.0, 2.0], ["a", "x", "c"])
        recs = [ComputeRecord("a", 1e18), ComputeRecord("c", 9e19)]
        assert pc1_compute_correlation(r, recs) == 1.0

    def test_tied_compute_gets_tie_adjustment(self):
        r = self.result_with_pc1([0.1, 0.5, 2.0], ["a", "b", "c"])
        recs = [ComputeRecord("a", 1e18), ComputeRecord("b", 1e18), ComputeRecord("c", 9e19)]
        # one pair tied in compute, two concordant: 2 / sqrt(3 * 2)
        assert pc1_compute_correlation(r, recs) == pytest.approx(2 / np.sqrt(6), abs=1e-12)

    def test_all_tied_is_degenerate(self):
        r = self.result_with_pc1([0.1, 0.5], ["a", "b"])
        recs = [ComputeRecord("a", 1e18), ComputeRecord("b", 1e18)]
        assert pc1_compute_correlation(r, recs) is DEGENERATE

    def test_too_few_matches(self):
        r = self.result_with_pc1([0.1, 0.5], ["a", "b"])
        with pytest.raises(ValueError, match=">= 2 models"):
            pc1_compute_correlation(r, [ComputeRecord("a", 1e18)])

    def test_duplicate_record_rejected(self):
        r = self.result_with_pc1([0.1, 0.5], ["a", "b"])
        with pytest.raises(ValueError, match="duplicate"):
            pc1_compute_correlation(r, [ComputeRecord("a", 1e18), ComputeRecord("a", 2e18)])

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            ComputeRecord("a", 0.0)


def test_generator_capability_tracks_compute_without_noise():
    # zero preparation noise and a huge item count: pc1 must follow log-compute
    from benchrank.synth import SyntheticConfig, generate

    cfg = SyntheticConfig(
        n_models=12, n_benchmarks=4, seed=5, prep_sd=0.0, n_items=10**6, capability_slope=2.0
    )
    r = fit_pca(generate(cfg, "direct"))
    recs = [ComputeRecord(mid, float(f)) for mid, f in zip(cfg.model_ids(), cfg.model_flops())]
    assert pc1_compute_correlation(r, recs) == 1.0
