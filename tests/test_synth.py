from dataclasses import replace

import numpy as np
import pytest

from benchrank.core import validate_score_matrix
from benchrank.rankstats import _defined_mean, agreement_matrix
from benchrank.synth import SyntheticConfig, generate, paired_experiment


def cfg(**overrides):
    base = dict(n_models=8, n_benchmarks=4, seed=1, n_items=400)
    base.update(overrides)
    return SyntheticConfig(**base)


def mean_pairwise_tau(m):
    """Mean tau-b over zero stderrs, as paired_experiment computes it."""
    flat = replace(m, stderrs=np.zeros_like(m.stderrs))
    return _defined_mean(agreement_matrix(flat, method="tau_b"))[0]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_models": 1},
            {"n_benchmarks": 1},
            {"flops_range": (1e20, 1e19)},
            {"flops_range": (0.0, 1e19)},
            {"prep_sd": -0.1},
            {"residual_prep": -0.01},
            {"residual_prep": 1.01},
            {"benchmark_loading": 0.0},
            {"benchmark_loading": [1.0, -1.0, 1.0, 1.0]},
            {"finetune_uplift": -0.2},
            {"n_items": 0},
            {"n_items": [100, 100, 100]},
        ],
    )
    def test_invalid_config(self, overrides):
        with pytest.raises(ValueError):
            cfg(**overrides)

    def test_scalar_broadcast(self):
        c = cfg(benchmark_loading=1.5, n_items=250)
        assert np.array_equal(c.loadings(), np.full(4, 1.5))
        assert np.array_equal(c.items(), np.full(4, 250))

    def test_capabilities_span(self):
        z = cfg(capability_slope=2.0).capabilities()
        assert z[0] == -2.0 and z[-1] == 2.0
        assert np.all(np.diff(z) > 0)

    def test_ids_sort_in_index_order(self):
        c = cfg()
        assert list(c.model_ids()) == sorted(c.model_ids())
        assert list(c.benchmark_ids()) == sorted(c.benchmark_ids())


class TestGenerate:
    def test_deterministic(self):
        a, b = generate(cfg(), "direct"), generate(cfg(), "direct")
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.stderrs, b.stderrs)

    def test_modes_coincide_without_preparation(self):
        c = cfg(prep_sd=0.0, residual_prep=0.0, finetune_uplift=0.0)
        d, t = generate(c, "direct"), generate(c, "train_before_test")
        assert np.array_equal(d.scores, t.scores)
        assert np.array_equal(d.stderrs, t.stderrs)

    def test_full_residual_keeps_modes_identical(self):
        c = cfg(prep_sd=0.7, residual_prep=1.0, finetune_uplift=0.0)
        d, t = generate(c, "direct"), generate(c, "train_before_test")
        assert np.array_equal(d.scores, t.scores)

    def test_modes_differ_with_preparation(self):
        c = cfg(prep_sd=0.8)
        assert not np.array_equal(generate(c, "direct").scores, generate(c, "train_before_test").scores)

    def test_seed_changes_output(self):
        assert not np.array_equal(generate(cfg(seed=1), "direct").scores, generate(cfg(seed=2), "direct").scores)

    def test_output_validates(self):
        m = generate(cfg(), "direct")
        assert validate_score_matrix(m) is m
        assert m.direction == ("higher",) * 4
        assert m.n_items == (400,) * 4

    def test_scores_in_unit_interval_and_stderr_edge(self):
        # extreme bias pushes some benchmarks to all-0 or all-1 scores
        c = cfg(benchmark_bias=[-30.0, 0.0, 30.0, 0.5], prep_sd=0.2)
        m = generate(c, "direct")
        assert np.all(m.scores >= 0.0) and np.all(m.scores <= 1.0)
        at_edge = (m.scores == 0.0) | (m.scores == 1.0)
        assert np.array_equal(m.stderrs == 0.0, at_edge)
        assert at_edge.any()

    def test_huge_item_count_gives_perfect_agreement(self):
        c = cfg(n_models=10, prep_sd=0.0, n_items=10**6, capability_slope=2.0)
        m = generate(c, "direct")
        orders = {tuple(np.argsort(-m.scores[i])) for i in range(m.n_benchmarks)}
        assert len(orders) == 1
        assert mean_pairwise_tau(m) == 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            generate(cfg(), "zero-shot")

    def test_prep_noise_reduces_direct_agreement(self):
        # one-sided sign test over seeds: more preparation noise must not
        # increase mean pairwise agreement of direct evaluation
        wins = 0
        for seed in range(20):
            taus = []
            for sd in (0.15, 0.6):
                c = SyntheticConfig(n_models=12, n_benchmarks=6, seed=seed, prep_sd=sd, n_items=500)
                taus.append(mean_pairwise_tau(generate(c, "direct")))
            wins += taus[0] >= taus[1]
        assert wins >= 15


class TestPairedExperiment:
    def test_no_preparation_means_zero_contrast(self):
        s = paired_experiment(cfg(prep_sd=0.0, finetune_uplift=0.0))
        assert s.tau_difference == 0.0
        assert s.evr1_difference == 0.0
        assert s.mean_tau_direct == s.mean_tau_train_before_test

    def test_contrast_fields_consistent(self):
        s = paired_experiment(cfg(prep_sd=0.5, n_models=12, n_benchmarks=6, n_items=1000))
        assert s.tau_difference == s.mean_tau_train_before_test - s.mean_tau_direct
        assert s.evr1_difference == s.evr1_train_before_test - s.evr1_direct
        assert 0.0 <= s.evr1_direct <= 1.0 and 0.0 <= s.evr1_train_before_test <= 1.0
        assert s.n_degenerate_direct == 0 and s.n_degenerate_train_before_test == 0

    def test_train_before_test_raises_agreement(self):
        s = paired_experiment(
            SyntheticConfig(n_models=16, n_benchmarks=8, seed=0, prep_sd=0.5, n_items=2000)
        )
        assert s.tau_difference > 0.0
        assert s.evr1_difference > 0.0
