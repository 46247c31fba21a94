import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from benchrank.core import DegenerateError, validate_score_matrix
from benchrank.rankstats import _defined_mean, agreement_matrix
from benchrank.synth import SyntheticConfig, _cell_seed_words, generate, paired_experiment

from oracles import _oracle_cell_streams, generate_oracle

# seeds of one to three 32-bit words, at and around the word boundaries
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**73 + 0x1234567]


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
            {"seed": None},
            {"seed": 1.5},
            {"seed": "7"},
            {"seed": True},
            {"seed": [1, 2]},
            {"seed": -1},
            {"seed": np.float64(3.0)},
            {"n_models": 4.5},
            {"n_models": 8.0},
            {"n_models": True},
            {"n_benchmarks": "4"},
            {"n_items": 2.7},
            {"n_items": True},
            {"n_items": [100, 100, 2.7, 100]},
            {"n_items": [100, 100, False, 100]},
            {"n_items": "400"},
            {"flops_range": (None, 1e23)},
            {"flops_range": (1e19, np.inf)},
            {"flops_range": (1e19, True)},
            {"flops_range": (1e19,)},
            {"flops_range": (1e19, 1e21, 1e23)},
            {"flops_range": 1e23},
            {"flops_range": "ab"},
            {"capability_slope": None},
            {"capability_slope": "x"},
            {"capability_slope": True},
            {"capability_slope": [1.0, 2.0]},
            {"capability_slope": np.nan},
            {"prep_sd": np.inf},
            {"prep_sd": None},
            {"residual_prep": np.nan},
            {"residual_prep": "0.5"},
            {"benchmark_loading": [1.0, np.nan, 1.0, 1.0]},
            {"benchmark_loading": True},
            {"benchmark_bias": [0.0, None, 0.0, 0.0]},
            {"benchmark_bias": -np.inf},
            {"benchmark_bias": [0.1, 0.2, 0.3]},
            {"finetune_uplift": "x"},
            {"finetune_uplift": [0.0, 0.0, 10**400, 0.0]},
        ],
    )
    def test_invalid_config(self, overrides):
        with pytest.raises(ValueError):
            cfg(**overrides)

    @pytest.mark.parametrize(
        "n_items", [2**63, 2**64, -(2**64), [5, 5, 2**64, 5], np.uint64(2**64 - 1), -1], ids=repr
    )
    def test_n_items_out_of_range_names_the_field(self, n_items):
        with pytest.raises(ValueError, match=r"^n_items entries must be in \[1, 2\*\*63 - 1\]"):
            cfg(n_items=n_items)

    def test_largest_int64_item_count_accepted(self):
        assert cfg(n_items=2**63 - 1).items()[0] == 2**63 - 1

    def test_real_fields_accept_integers_and_numpy_numbers(self):
        c = cfg(
            capability_slope=np.float32(1.5),
            flops_range=[10**19, np.float64(1e23)],
            benchmark_loading=[1, 2, np.int64(3), 4.0],
            prep_sd=1,
            residual_prep=np.float64(0.5),
        )
        assert c.flops_range == (1e19, 1e23) and all(type(v) is float for v in c.flops_range)
        ref = cfg(capability_slope=1.5, benchmark_loading=[1.0, 2.0, 3.0, 4.0], prep_sd=1.0, residual_prep=0.5)
        for mode in ("direct", "train_before_test"):
            assert np.array_equal(generate(c, mode).scores, generate(ref, mode).scores)

    def test_scalar_reals_stored_as_floats(self):
        # a float32 preparation scale draws what its float value draws; 2**60
        # items resolve a success probability finely enough to show a float32 logit
        c = cfg(capability_slope=np.float32(0.3), prep_sd=np.float32(0.3), residual_prep=np.float16(0.7), n_items=2**60)
        assert all(type(v) is float for v in (c.capability_slope, c.prep_sd, c.residual_prep))
        ref = cfg(
            capability_slope=float(np.float32(0.3)),
            prep_sd=float(np.float32(0.3)),
            residual_prep=float(np.float16(0.7)),
            n_items=2**60,
        )
        for mode in ("direct", "train_before_test"):
            assert generate(c, mode).scores.tobytes() == generate(ref, mode).scores.tobytes()

    def test_numpy_integers_accepted(self):
        c = cfg(n_models=np.int64(8), n_benchmarks=np.int32(4), seed=np.uint64(2**64 - 1), n_items=np.int64(400))
        ref = cfg(seed=2**64 - 1)
        assert np.array_equal(generate(c, "direct").scores, generate(ref, "direct").scores)
        per_bench = cfg(n_items=np.array([100, 200, 300, 400]))
        assert np.array_equal(per_bench.items(), [100, 200, 300, 400])

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


class TestSeedDerivation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", [(2, 2), (7, 9), (1, 3)])
    def test_words_match_seed_sequence(self, seed, shape):
        nb, nm = shape
        words = _cell_seed_words(seed, nb, nm)
        assert words.dtype == np.uint64 and words.shape == (nb, nm, 2, 4)
        for i in range(nb):
            for j in range(nm):
                children = np.random.SeedSequence(seed, spawn_key=(i, j)).spawn(2)
                for k in range(2):
                    assert np.array_equal(words[i, j, k], children[k].generate_state(4, np.uint64)), (i, j, k)

    @pytest.mark.parametrize("chunk", range(4))
    def test_generate_matches_oracle_byte_for_byte(self, chunk):
        # 4 x 50 seeded configs, both modes each: scalar and per-benchmark
        # n_items, prep_sd 0, residual_prep 0 and 1, and seeds up to 74 bits
        rng = np.random.default_rng(1000 + chunk)
        for k in range(50):
            nb, nm = int(rng.integers(2, 8)), int(rng.integers(2, 10))
            seed = int(rng.integers(0, 2**20)) if k % 3 else SEEDS[k % len(SEEDS)] + k
            if k % 2:
                n_items = int(rng.integers(1, 3000))
            else:
                n_items = [int(n) for n in rng.integers(1, 3000, size=nb)]
            c = SyntheticConfig(
                n_models=nm,
                n_benchmarks=nb,
                seed=seed,
                capability_slope=float(rng.uniform(0.2, 3.0)),
                benchmark_loading=rng.uniform(0.5, 1.5, size=nb).tolist(),
                benchmark_bias=float(rng.uniform(-1.0, 1.0)),
                prep_sd=0.0 if k % 5 == 0 else float(rng.uniform(0.0, 1.5)),
                residual_prep=(0.0, 1.0, float(rng.uniform()))[k % 3],
                finetune_uplift=rng.uniform(0.0, 0.5, size=nb).tolist(),
                n_items=n_items,
            )
            for mode in ("direct", "train_before_test"):
                m = generate(c, mode)
                scores, stderrs = generate_oracle(c, mode)
                assert m.scores.tobytes() == scores.tobytes(), (k, mode)
                assert m.stderrs.tobytes() == stderrs.tobytes(), (k, mode)


# integer and huge item counts (a count over 2**53 divides as float(k) / float(n)),
# integer and huge preparation scales
EDGE_CASES = {
    "n_items=2**53+1": dict(n_items=2**53 + 1),
    "n_items=2**62": dict(n_items=2**62, prep_sd=0.9, residual_prep=0.4),
    "n_items=[1, 2**53+1]": dict(n_items=[1, 2**53 + 1, 1, 2**53 + 1], finetune_uplift=0.3),
    "prep_sd=1, residual_prep=0": dict(prep_sd=1, residual_prep=0, finetune_uplift=[0.0, 0.1, 0.2, 0.3]),
    "prep_sd=2, residual_prep=1": dict(prep_sd=2, residual_prep=1),
    "prep_sd=10**30": dict(prep_sd=10**30, residual_prep=0.5),
}


@pytest.mark.parametrize("mode", ["direct", "train_before_test"])
@pytest.mark.parametrize("overrides", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_generate_matches_oracle_on_edge_cases(overrides, mode):
    c = cfg(seed=3, **overrides)
    m = generate(c, mode)
    scores, stderrs = generate_oracle(c, mode)
    assert m.scores.tobytes() == scores.tobytes()
    assert m.stderrs.tobytes() == stderrs.tobytes()


# sha256 of scores.tobytes() + stderrs.tobytes(), recorded with one
# SeedSequence object per cell; a change of the random-number layout fails here
GOLDEN = [
    (
        dict(n_models=8, n_benchmarks=4, seed=1, n_items=400),
        "direct",
        "fef07c592320c8a6256fa86a3f577901e63bae69420a495df4243c7f2a06e4e2",
    ),
    (
        dict(
            n_models=12,
            n_benchmarks=6,
            seed=7,
            n_items=2000,
            prep_sd=0.5,
            residual_prep=0.0,
            finetune_uplift=0.25,
            benchmark_loading=[0.7, 0.8, 0.95, 1.05, 1.2, 1.3],
            benchmark_bias=[-0.3, -0.15, 0.0, 0.1, 0.2, 0.3],
        ),
        "train_before_test",
        "4675a7b0d16171e437fe411f09b3bda9b17188ab4d5b58783b10f81dbe4445e1",
    ),
    (
        dict(
            n_models=9,
            n_benchmarks=7,
            seed=2**64 + 3,
            n_items=[50, 100, 150, 200, 250, 300, 350],
            prep_sd=0.8,
            residual_prep=0.3,
        ),
        "train_before_test",
        "dcf76b26eb132a2f8c5142eec77674986dfd06c9547c9065e516902535fe3b53",
    ),
    (
        dict(n_models=80, n_benchmarks=60, seed=2**32, n_items=1000, prep_sd=0.5),
        "direct",
        "ec7e09efe75c488beecec3b23162004ca41a6c31174d2d31d778228222621ff4",
    ),
]


@pytest.mark.parametrize("kwargs, mode, digest", GOLDEN, ids=["8x4", "12x6-tbt", "9x7-seed2**64+3-tbt", "80x60"])
def test_golden_digest(kwargs, mode, digest):
    c = SyntheticConfig(**kwargs)
    m = generate(c, mode)
    assert hashlib.sha256(m.scores.tobytes() + m.stderrs.tobytes()).hexdigest() == digest
    scores, stderrs = generate_oracle(c, mode)
    assert hashlib.sha256(scores.tobytes() + stderrs.tobytes()).hexdigest() == digest


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

    def test_nan_logit_names_the_cell(self):
        # a preparation offset of +-inf times residual_prep 0 makes a NaN logit
        c = SyntheticConfig(n_models=10, n_benchmarks=6, prep_sd=1e308, residual_prep=0.0, n_items=10)
        i, j = next(
            (i, j)
            for i in range(6)
            for j in range(10)
            if math.isinf(1e308 * _oracle_cell_streams(c.seed, i, j)[0].standard_normal())
        )
        with pytest.raises(ValueError, match=rf"^benchmark bench{i:02d}, model model{j:02d}: .*NaN"):
            generate(c, "train_before_test")
        assert np.isfinite(generate(c, "direct").scores).all()  # an infinite logit is a sure 0 or 1

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

    def test_every_pair_degenerate_raises(self):
        # a bias this low puts every score at 0, so every benchmark row is fully tied
        with pytest.raises(DegenerateError, match="^every benchmark pair is degenerate$"):
            paired_experiment(SyntheticConfig(n_models=3, n_benchmarks=2, benchmark_bias=-1000.0))

    def test_train_before_test_raises_agreement(self):
        s = paired_experiment(
            SyntheticConfig(n_models=16, n_benchmarks=8, seed=0, prep_sd=0.5, n_items=2000)
        )
        assert s.tau_difference > 0.0
        assert s.evr1_difference > 0.0
