"""Principal component analysis of the model-score matrix.

Models are the observations and benchmarks the features (the transpose of
the storage layout).  The feature covariance is diagonalized with LAPACK's
symmetric eigensolver (``numpy.linalg.eigh``), so results are
byte-identical on one machine and numpy/LAPACK build; across builds they
may differ in the last digits.

Also here: the 6 * params * tokens pre-training compute estimate and the
rank correlation between first-component scores and log-compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .core import Degenerate, ScoreMatrix
from .rankstats import SignificanceConfig, kendall_tau_b

PREPROCESSINGS = ("center", "zscore")


@dataclass(frozen=True, eq=False)
class PcaResult:
    """Full eigendecomposition of the benchmark covariance.

    ``eigenvalues`` are non-increasing and clamped at zero; ``evr`` are the
    explained-variance ratios (summing to 1); ``pc1_scores`` is each
    model's projection on the first principal axis, with the sign fixed so
    that pc1 correlates non-negatively with the per-model mean preprocessed
    score.  ``components`` holds the eigenvectors as columns (benchmark
    loadings), aligned with ``benchmark_ids``.
    """

    eigenvalues: np.ndarray
    evr: np.ndarray
    pc1_scores: np.ndarray
    preprocessing: str
    components: np.ndarray
    model_ids: tuple[str, ...]
    benchmark_ids: tuple[str, ...]

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ComputeRecord:
    """Pre-training compute for one model, in absolute FLOPs."""

    model_id: str
    flops: float

    def __post_init__(self):
        if not math.isfinite(self.flops) or self.flops <= 0:
            raise ValueError(f"model {self.model_id!r}: flops must be > 0, got {self.flops}")


def _preprocess(m: ScoreMatrix, preprocessing: str) -> tuple[np.ndarray, np.ndarray | float]:
    """Models-by-benchmarks data matrix, mean-centered (and scaled under zscore), and its benchmarks' scale."""
    if preprocessing not in PREPROCESSINGS:
        raise ValueError(f"preprocessing must be one of {PREPROCESSINGS}, got {preprocessing!r}")
    x = np.array(m.scores.T, dtype=float)
    x -= x.mean(axis=0)
    if preprocessing == "zscore":
        sd = np.array(m.scores, dtype=float).std(axis=1, ddof=1)
        over = np.flatnonzero(~np.isfinite(sd))
        if over.size:
            raise ValueError(
                f"benchmark {m.benchmark_ids[int(over[0])]!r} standard deviation overflows float64; "
                "zscore undefined"
            )
        zero = np.flatnonzero(sd == 0.0)
        if zero.size:
            raise ValueError(
                f"benchmark {m.benchmark_ids[int(zero[0])]!r} has zero variance; zscore undefined"
            )
        x /= sd
        return x, sd
    return x, 1.0


def fit_pca(m: ScoreMatrix, preprocessing: str = "center") -> PcaResult:
    """PCA of the models-by-benchmarks matrix, full spectrum.

    Sample covariance uses the n-1 divisor.  Requires at least 2 models
    and 2 benchmarks, and under zscore nonzero variance on every benchmark.
    The spectrum of an all-constant matrix is entirely zero, which leaves
    the variance ratios undefined; that case raises, as do scores whose
    squares overflow float64 in the standard deviation or the covariance.
    pc1's sign makes it correlate positively with the models' mean scores,
    or, where it is orthogonal to them or every model's mean is the same,
    makes its first nonzero loading positive.  At an exactly tied top
    eigenvalue pc1 is eigh's first eigenvector of the tied space.
    """
    if m.n_models < 2 or m.n_benchmarks < 2:
        raise ValueError(f"need >= 2 models and >= 2 benchmarks, got {m.n_models} x {m.n_benchmarks}")
    # overflow is reported by the finiteness checks, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        x, scale = _preprocess(m, preprocessing)
        cov = x.T @ x / (m.n_models - 1)
        means = (m.scores.T / scale).mean(axis=1)
    if not np.isfinite(cov).all():
        raise ValueError("benchmark covariance overflows float64; scores too large in magnitude")
    eigvals, vecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    vecs = vecs[:, order]
    eigvals = np.where(eigvals > 0.0, eigvals, 0.0)
    total = float(eigvals.sum())
    if total == 0.0:
        raise ValueError("zero total variance: every benchmark is constant across models")
    evr = eigvals / total
    pc1 = x @ vecs[:, 0]
    # eigenvectors are sign-ambiguous; anchor pc1 to the mean-score direction (or, when pc1 is
    # orthogonal to it, to a positive first nonzero loading).  Equal means are read from the
    # uncentred scores: the means of x hold rounding noise there, which would decide the sign.
    anchor = 0.0 if (means == means[0]).all() else float(pc1 @ x.mean(axis=1))
    lead = vecs[np.flatnonzero(vecs[:, 0])[0], 0]
    if anchor < 0.0 or (anchor == 0.0 and lead < 0.0):
        vecs[:, 0] = -vecs[:, 0]
        pc1 = -pc1
    for arr in (eigvals, evr, pc1, vecs):
        arr.setflags(write=False)
    return PcaResult(
        eigenvalues=eigvals,
        evr=evr,
        pc1_scores=pc1,
        preprocessing=preprocessing,
        components=vecs,
        model_ids=m.model_ids,
        benchmark_ids=m.benchmark_ids,
    )


def explained_variance_share(r: PcaResult, k: int) -> float:
    """Cumulative explained-variance ratio of the top k components."""
    if not (1 <= k <= r.n_components):
        raise ValueError(f"k must be in [1, {r.n_components}], got {k}")
    return float(r.evr[:k].sum())


def compute_flops(params_billions: float, tokens_billions: float) -> float:
    """Pre-training compute estimate: 6 * parameters * training tokens.

    Inputs are in billions, the result in absolute FLOPs.  The product is
    taken in decimal arithmetic on the shortest decimal representation of
    the inputs, so published tables built from decimal parameter/token
    counts are reproduced exactly (plain float multiplication can be one
    ulp off).  A product outside float64's range raises ``ValueError``.
    """
    if not (params_billions > 0 and tokens_billions > 0):
        raise ValueError(f"params and tokens must be > 0, got ({params_billions}, {tokens_billions})")
    p = Decimal(repr(float(params_billions)))
    t = Decimal(repr(float(tokens_billions)))
    flops = float(6 * p * t * Decimal(10) ** 18)
    if not 0.0 < flops < math.inf:
        side = "underflows" if flops == 0.0 else "overflows"
        raise ValueError(f"6 * params * tokens {side} float64 at ({params_billions}, {tokens_billions})")
    return flops


def pc1_compute_correlation(r: PcaResult, records: list[ComputeRecord]) -> float | Degenerate:
    """Kendall correlation between pc1 scores and log pre-training FLOPs.

    Models without a compute record are excluded.  Exact ties (models with
    identical published compute are common) get the standard tie
    adjustment; a fully tied axis yields :data:`DEGENERATE`.
    """
    flops = {}
    for rec in records:
        if rec.model_id in flops:
            raise ValueError(f"duplicate compute record for model {rec.model_id!r}")
        flops[rec.model_id] = rec.flops
    pc1 = []
    logf = []
    for mid, score in zip(r.model_ids, r.pc1_scores):
        if mid in flops:
            pc1.append(float(score))
            logf.append(math.log(flops[mid]))
    if len(pc1) < 2:
        raise ValueError(f"need >= 2 models with compute records, matched {len(pc1)}")
    zeros = np.zeros(len(pc1))
    return kendall_tau_b(np.array(pc1), zeros, np.array(logf), zeros, SignificanceConfig())
