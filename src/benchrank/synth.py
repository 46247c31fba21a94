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
exactly paired.  Cell (i, j) draws its preparation offset from the first
and its binomial from the second child of
``SeedSequence(seed, spawn_key=(i, j))``, each through its own PCG64.  Every
cell's sequence starts from the pool numpy fills by absorbing the seed,
``SeedSequence(seed).pool``; one vectorised pass of SeedSequence's hash
then mixes in every cell's spawn key at once and hashes out its seed
words, so the streams, and so the output, are identical to the ones
per-cell ``SeedSequence`` objects give.

``generate`` then makes one flat pass over the cells in row-major order.
Per cell it keeps only the layout's fixed cost, two ``PCG64`` and two
``Generator`` objects (one ``_SeedFeed`` hands them their seed rows in
order), one normal and one binomial draw, and the logistic in Python
floats with ``math.exp``, which rounds as libm does (numpy's SIMD ``exp``
need not) and overflows to +-inf without a warning.  Loading, bias,
uplift and item count are Python numbers read once per row.  Only the
binomial counts are kept: the scores, count / n, and the stderrs,
sqrt(s (1 - s) / n), are then one numpy pass of the same correctly
rounded operations per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import DegenerateError, ScoreMatrix, make_score_matrix
from .lowrank import fit_pca
from .rankstats import _defined_mean, agreement_matrix

MODES = ("direct", "train_before_test")


def _per_benchmark(value, n: int, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        arr = np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence, got shape {arr.shape}")
    return arr


def _is_int(value) -> bool:
    """A Python or numpy integer; ``bool`` is not accepted as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy integer or float that is finite as a float; ``bool`` is not accepted as one."""
    try:
        return (_is_int(value) or isinstance(value, (float, np.floating))) and math.isfinite(value)
    except OverflowError:
        return False


def _entries(value):
    """A scalar-or-per-benchmark field's entries: a scalar is its own single entry."""
    return (value,) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the latent-factor score generator.

    ``benchmark_loading``, ``benchmark_bias``, ``finetune_uplift`` and
    ``n_items`` accept a scalar (applied to every benchmark) or one value
    per benchmark.  ``flops_range`` spans the models' pre-training compute;
    models are geometrically spaced across it and it is stored as a tuple
    of floats.  ``n_models``, ``n_benchmarks``, ``seed`` and the ``n_items``
    entries must be integers, ``seed`` must be >= 0 and each ``n_items``
    entry must fit an int64; every other field (each entry of a
    per-benchmark one, both ends of ``flops_range``) must be a finite real
    number.  ``bool`` is neither.  ``capability_slope``, ``prep_sd`` and
    ``residual_prep`` are stored as floats, so that a draw depends on their
    values and not on their numpy types.
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
        for name in ("n_models", "n_benchmarks", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(_is_int(n) for n in _entries(self.n_items)):
            raise ValueError(f"n_items entries must be integers, got {self.n_items!r}")
        if not all(1 <= int(n) < 2**63 for n in _entries(self.n_items)):
            raise ValueError(f"n_items entries must be in [1, 2**63 - 1], got {self.n_items!r}")
        for name in ("capability_slope", "prep_sd", "residual_prep"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("benchmark_loading", "benchmark_bias", "finetune_uplift"):
            if not all(_is_real(v) for v in _entries(getattr(self, name))):
                raise ValueError(f"{name} entries must be finite real numbers, got {getattr(self, name)!r}")
        ends = _entries(self.flops_range)
        if len(ends) != 2 or not all(_is_real(v) for v in ends):
            raise ValueError(f"flops_range must be [min, max] of finite real numbers, got {self.flops_range!r}")
        object.__setattr__(self, "flops_range", tuple(float(v) for v in ends))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_models < 2 or self.n_benchmarks < 2:
            raise ValueError(f"need >= 2 models and >= 2 benchmarks, got {self.n_models}, {self.n_benchmarks}")
        lo, hi = self.flops_range
        if not (0 < lo < hi):
            raise ValueError(f"flops_range must satisfy 0 < min < max, got {self.flops_range}")
        if self.prep_sd < 0:
            raise ValueError(f"prep_sd must be >= 0, got {self.prep_sd}")
        if not (0.0 <= self.residual_prep <= 1.0):
            raise ValueError(f"residual_prep must be in [0, 1], got {self.residual_prep}")
        self.biases()  # raises on a wrong length
        self.items()  # raises on a wrong length
        if np.any(self.loadings() <= 0):
            raise ValueError("benchmark_loading entries must be > 0")
        if np.any(self.uplifts() < 0):
            raise ValueError("finetune_uplift entries must be >= 0")

    def loadings(self) -> np.ndarray:
        return _per_benchmark(self.benchmark_loading, self.n_benchmarks, "benchmark_loading")

    def biases(self) -> np.ndarray:
        return _per_benchmark(self.benchmark_bias, self.n_benchmarks, "benchmark_bias")

    def uplifts(self) -> np.ndarray:
        return _per_benchmark(self.finetune_uplift, self.n_benchmarks, "finetune_uplift")

    def items(self) -> np.ndarray:
        return _per_benchmark(self.n_items, self.n_benchmarks, "n_items", dtype=np.int64)

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


# numpy.random.SeedSequence's hash: 32-bit words, a pool of 4, and the
# multipliers of its entropy mixing (A), output (B) and pool mix (L, R).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int):
    """(xor, multiply) constants of successive hash calls; they do not depend on the data."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hash(value, consts):
    x, m = next(consts)
    value = (value ^ x) * m
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _cell_seed_words(seed: int, nb: int, nm: int) -> np.ndarray:
    """Seed words of every cell's two child streams, shape (nb, nm, 2, 4), uint64.

    Entry [i, j, k] equals
    ``SeedSequence(seed, spawn_key=(i, j)).spawn(2)[k].generate_state(4, np.uint64)``,
    that is the state of ``SeedSequence(seed, spawn_key=(i, j, k))``.  Until
    the key is mixed in, its pool is ``SeedSequence(seed).pool``: a seed
    shorter than the pool hashes the same zeros padded or not, and a longer
    one mixes its extra words in before any key word.  Absorbing w seed
    words takes 4 * max(4, w) hash calls, so the hash constants resume
    there; i, j and k are mixed in by broadcasting over the cell axes, and
    the state is hashed out as ``generate_state`` does.
    """
    seed = int(seed)
    absorbed = _POOL_SIZE * max(_POOL_SIZE, (seed.bit_length() + 31) // 32)
    pool = list(np.random.SeedSequence(seed).pool)
    with np.errstate(over="ignore"):
        consts = _hash_consts(_INIT_A * pow(_MULT_A, absorbed, 1 << 32) & _MASK32, _MULT_A)
        # i, j and k as uint32 arrays of shapes (nb, 1, 1), (1, nm, 1) and (1, 1, 2)
        for w in np.ix_(*(np.arange(n, dtype=np.uint32) for n in (nb, nm, 2))):
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hash(w, consts))
        consts = _hash_consts(_INIT_B, _MULT_B)
        state = [_hash(pool[t % _POOL_SIZE], consts) for t in range(8)]
    # 8 uint32 words read as 4 little-endian uint64 words, as generate_state does
    return np.stack(state, axis=-1).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedFeed(ISeedSequence):
    """Seeds successive PCG64s with successive rows of a (cells, 4) array of seed words.

    PCG64 calls ``generate_state`` exactly once, while it is constructed, for
    4 uint64 words, so the k-th ``PCG64(feed)`` built gets the k-th row.
    """

    def __init__(self, words: np.ndarray):
        self._rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self._rows)


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
    nb, nm = cfg.n_benchmarks, cfg.n_models
    g = cfg.capabilities().tolist()
    items = cfg.items().tolist()
    shifts = [0.0] * nb if direct else cfg.uplifts().tolist()
    prep_sd = cfg.prep_sd
    prep_scale = 1.0 if direct else cfg.residual_prep
    # the cells' seed rows in row-major order: (i, j, 0), (i, j, 1), (i, j + 1, 0), ...
    feed = _SeedFeed(_cell_seed_words(cfg.seed, nb, nm).reshape(-1, 4))
    Generator, PCG64, exp = np.random.Generator, np.random.PCG64, math.exp
    counts = []
    try:
        for a, b, shift, n in zip(cfg.loadings().tolist(), cfg.biases().tolist(), shifts, items):
            for gj in g:
                z = a * gj + b + prep_sd * Generator(PCG64(feed)).standard_normal() * prep_scale + shift
                if z >= 0:
                    q = 1.0 / (1.0 + exp(-z))
                else:
                    ez = exp(z)
                    q = ez / (1.0 + ez)
                counts.append(Generator(PCG64(feed)).binomial(n, q))
    except ValueError as e:  # binomial refuses a NaN success probability
        i, j = divmod(len(counts), nm)
        raise ValueError(f"benchmark {cfg.benchmark_ids()[i]}, model {cfg.model_ids()[j]}: {e}") from None
    # np.array makes each Python int the float64 that float() makes: every score is float(count) / float(n)
    fn = np.array(items, dtype=float)[:, None]
    scores = np.array(counts, dtype=float).reshape(nb, nm) / fn
    return make_score_matrix(
        cfg.benchmark_ids(),
        cfg.model_ids(),
        scores,
        np.sqrt(scores * (1.0 - scores) / fn),
        n_items=items,
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
