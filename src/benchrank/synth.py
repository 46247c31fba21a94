"""Latent-factor generator of synthetic benchmark score matrices.

The generative model is the smallest one that can exhibit both phenomena
of interest: a single dominant capability axis, and per-benchmark
"preparation" offsets that confound direct evaluation.  Model j has a
latent skill proportional to its normalized log pre-training compute;
benchmark i applies a positive loading and an offset; a per-cell normal
preparation term models unequal task exposure.  Success probability is
the logistic of that sum and the observed score is a scaled binomial draw.

Two evaluation modes share identical random draws: ``direct`` keeps the
preparation term in full, ``train_before_test`` shrinks it by the residual
fraction rho and adds a non-negative per-benchmark uplift.  With rho = 1
and zero uplift the two modes coincide bit for bit.

Randomness is organized as one substream per (benchmark, model) cell,
derived from the seed and the cell coordinates, so generation is
deterministic regardless of evaluation order and the two modes are
exactly paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import DegenerateError, ScoreMatrix, make_score_matrix
from .lowrank import fit_pca
from .rankstats import _defined_mean, agreement_matrix

MODES = ("direct", "train_before_test")


def _per_benchmark(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the latent-factor score generator.

    ``benchmark_loading``, ``benchmark_bias``, ``finetune_uplift`` and
    ``n_items`` accept a scalar (applied to every benchmark) or one value
    per benchmark.  ``flops_range`` spans the models' pre-training compute;
    models are geometrically spaced across it.
    """

    n_models: int
    n_benchmarks: int
    seed: int = 0
    capability_slope: float = 1.0
    flops_range: tuple[float, float] = (1e19, 1e23)
    benchmark_loading: float | Sequence[float] = 1.0
    benchmark_bias: float | Sequence[float] = 0.0
    prep_sd: float = 0.5
    residual_prep: float = 0.0
    finetune_uplift: float | Sequence[float] = 0.0
    n_items: int | Sequence[int] = 1000

    def __post_init__(self):
        if self.n_models < 2 or self.n_benchmarks < 2:
            raise ValueError(f"need >= 2 models and >= 2 benchmarks, got {self.n_models}, {self.n_benchmarks}")
        lo, hi = self.flops_range
        if not (0 < lo < hi):
            raise ValueError(f"flops_range must satisfy 0 < min < max, got {self.flops_range}")
        if self.prep_sd < 0:
            raise ValueError(f"prep_sd must be >= 0, got {self.prep_sd}")
        if not (0.0 <= self.residual_prep <= 1.0):
            raise ValueError(f"residual_prep must be in [0, 1], got {self.residual_prep}")
        if np.any(self.loadings() <= 0):
            raise ValueError("benchmark_loading entries must be > 0")
        if np.any(self.uplifts() < 0):
            raise ValueError("finetune_uplift entries must be >= 0")
        if np.any(self.items() < 1):
            raise ValueError("n_items entries must be >= 1")

    def loadings(self) -> np.ndarray:
        return _per_benchmark(self.benchmark_loading, self.n_benchmarks, "benchmark_loading")

    def biases(self) -> np.ndarray:
        return _per_benchmark(self.benchmark_bias, self.n_benchmarks, "benchmark_bias")

    def uplifts(self) -> np.ndarray:
        return _per_benchmark(self.finetune_uplift, self.n_benchmarks, "finetune_uplift")

    def items(self) -> np.ndarray:
        arr = np.asarray(self.n_items, dtype=np.int64)
        if arr.ndim == 0:
            arr = np.full(self.n_benchmarks, int(arr), dtype=np.int64)
        if arr.shape != (self.n_benchmarks,):
            raise ValueError(f"n_items must be a scalar or length-{self.n_benchmarks}, got shape {arr.shape}")
        return arr

    def model_flops(self) -> np.ndarray:
        """Pre-training compute per model, geometric across flops_range."""
        return np.geomspace(self.flops_range[0], self.flops_range[1], self.n_models)

    def capabilities(self) -> np.ndarray:
        """Latent skill per model: slope times log-flops min-max mapped to [-1, 1]."""
        logf = np.log(self.model_flops())
        z = 2.0 * (logf - logf[0]) / (logf[-1] - logf[0]) - 1.0
        return self.capability_slope * z

    def benchmark_ids(self) -> tuple[str, ...]:
        width = max(2, len(str(self.n_benchmarks - 1)))
        return tuple(f"bench{i:0{width}d}" for i in range(self.n_benchmarks))

    def model_ids(self) -> tuple[str, ...]:
        width = max(2, len(str(self.n_models - 1)))
        return tuple(f"model{j:0{width}d}" for j in range(self.n_models))


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _cell_streams(seed: int, i: int, j: int) -> tuple[np.random.Generator, np.random.Generator]:
    prep_ss, binom_ss = np.random.SeedSequence(seed, spawn_key=(i, j)).spawn(2)
    return np.random.Generator(np.random.PCG64(prep_ss)), np.random.Generator(np.random.PCG64(binom_ss))


def generate(cfg: SyntheticConfig, mode: str) -> ScoreMatrix:
    """Draw one synthetic score matrix in the given evaluation mode.

    Every cell (i, j) owns its own random substream: first a standard
    normal scaled by prep_sd (the preparation offset, shared between
    modes), then a binomial draw of n_items trials at the logistic success
    probability.  Fixed seed implies bit-identical output.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    direct = mode == "direct"
    a = cfg.loadings()
    b = cfg.biases()
    delta = cfg.uplifts()
    items = cfg.items()
    g = cfg.capabilities()
    prep_scale = 1.0 if direct else cfg.residual_prep
    nb, nm = cfg.n_benchmarks, cfg.n_models
    scores = np.empty((nb, nm))
    stderrs = np.empty((nb, nm))
    for i in range(nb):
        for j in range(nm):
            prep_rng, binom_rng = _cell_streams(cfg.seed, i, j)
            prep = cfg.prep_sd * prep_rng.standard_normal()
            logit = a[i] * g[j] + b[i] + prep * prep_scale + (0.0 if direct else delta[i])
            q = _logistic(logit)
            score = binom_rng.binomial(int(items[i]), q) / items[i]
            scores[i, j] = score
            stderrs[i, j] = math.sqrt(score * (1.0 - score) / items[i])
    return make_score_matrix(
        cfg.benchmark_ids(),
        cfg.model_ids(),
        scores,
        stderrs,
        n_items=[int(n) for n in items],
        direction="higher",
    )


@dataclass(frozen=True)
class PairedSummary:
    """Agreement and low-rank structure of one paired simulator run."""

    mean_tau_direct: float
    mean_tau_train_before_test: float
    evr1_direct: float
    evr1_train_before_test: float
    tau_difference: float
    evr1_difference: float
    n_degenerate_direct: int
    n_degenerate_train_before_test: int


def paired_experiment(cfg: SyntheticConfig) -> PairedSummary:
    """Generate both modes with shared draws and contrast their statistics.

    Returns the mean pairwise rank agreement and the first-component
    explained-variance ratio for each mode, plus the train-before-test
    minus direct differences.  Binomial scores tie exactly now and then, so
    agreement is tau-b over zero standard errors: plain tau on tie-free
    pairs, tie-adjusted otherwise; degenerate pairs are skipped and counted.
    """
    m_direct = generate(cfg, "direct")
    m_tbt = generate(cfg, "train_before_test")
    zero = np.zeros_like(m_direct.stderrs)
    tau_d, skip_d = _defined_mean(agreement_matrix(replace(m_direct, stderrs=zero), "tau_b"))
    tau_t, skip_t = _defined_mean(agreement_matrix(replace(m_tbt, stderrs=zero), "tau_b"))
    if tau_d is None or tau_t is None:
        raise DegenerateError("every benchmark pair is degenerate")
    evr1_d = float(fit_pca(m_direct, "center").evr[0])
    evr1_t = float(fit_pca(m_tbt, "center").evr[0])
    return PairedSummary(
        mean_tau_direct=tau_d,
        mean_tau_train_before_test=tau_t,
        evr1_direct=evr1_d,
        evr1_train_before_test=evr1_t,
        tau_difference=tau_t - tau_d,
        evr1_difference=evr1_t - evr1_d,
        n_degenerate_direct=skip_d,
        n_degenerate_train_before_test=skip_t,
    )
