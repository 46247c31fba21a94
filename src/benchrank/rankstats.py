"""Rank-correlation statistics over benchmark score matrices.

Two correlation flavours are provided.  ``kendall_tau`` is the plain
statistic (C - D) / (n(n-1)/2) and refuses exact ties; ``kendall_tau_b``
treats a model pair as tied when the score difference fails a two-sided
z-test given the standard errors, and applies the usual tie adjustment
(C - D) / sqrt((C + D + Tx)(C + D + Ty)).  With all standard errors zero
and no exact ties the two agree bit for bit.

All of it, and the partial orders and crossing counts of
:mod:`~benchrank.alignment`, rests on one kernel, ``_sign_blocks``: per
benchmark, the M x M square of signs of s_i - s_j, +1 or -1 where the gap
is significant and 0 for a tie, yielded a block of model rows at a time so
no array holds the signs of every pair.  The square is antisymmetric, so
each unordered pair appears twice.  Pairs are concordant when their signs
agree; score gaps are never multiplied (the product can underflow).  With
S the B x M^2 signs and N = |S|, the counts of all benchmark pairs are
halved integer Gram matrices: C - D = S S^T / 2, C + D = N N^T / 2,
Tx = (1 - N) N^T / 2 and Ty = Tx^T.  Summed, C + D + Tx for benchmarks
(a, b) is the number of pairs significant on b, half a row count of N, so
tau-b needs only S S^T and those counts.

Undefined correlations are reported as :data:`~benchrank.core.DEGENERATE`,
never NaN, and every aggregation skips such cells and counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from statistics import NormalDist

import numpy as np

from .core import (
    CATEGORIES,
    DEGENERATE,
    BenchmarkRecord,
    Degenerate,
    DegenerateError,
    AgreementMatrix,
    ScoreMatrix,
    oriented_scores,
)


class TieError(ValueError):
    """Exact ties make plain Kendall's tau undefined; use tau-b instead."""


@dataclass(frozen=True)
class SignificanceConfig:
    """Two-sided pairwise z-test configuration.

    ``critical_z`` is derived from ``alpha`` when not given explicitly
    (1.959964 at the default alpha = 0.05).  The normal approximation is
    used because inputs are aggregate scores with externally supplied
    standard errors; degrees of freedom are not available.
    """

    alpha: float = 0.05
    critical_z: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.critical_z is None:
            object.__setattr__(self, "critical_z", NormalDist().inv_cdf(1.0 - self.alpha / 2.0))
        if not self.critical_z > 0:
            raise ValueError(f"critical_z must be > 0, got {self.critical_z}")


@dataclass(frozen=True, eq=False)
class CategoryAgreement:
    """Mean correlation per category pair.

    Diagonal cells average the unordered benchmark pairs inside one
    category; off-diagonal cells average every cross-category pair.
    ``undefined`` flags cells with no defined pair at all (singleton
    category on the diagonal, or all contributing cells degenerate);
    ``n_excluded`` counts degenerate benchmark pairs skipped per cell.
    """

    categories: tuple[str, ...]
    values: np.ndarray
    undefined: np.ndarray
    n_excluded: np.ndarray

    def entry(self, c1: str, c2: str) -> float:
        i = self.categories.index(c1)
        j = self.categories.index(c2)
        if self.undefined[i, j]:
            raise DegenerateError(f"category agreement ({c1}, {c2}) is undefined")
        return float(self.values[i, j])


@dataclass(frozen=True, eq=False)
class MeanAgreement:
    """Per-benchmark mean of off-diagonal agreement entries."""

    benchmark_ids: tuple[str, ...]
    means: np.ndarray
    n_excluded: np.ndarray


def _check_pair_lengths(x: np.ndarray, y: np.ndarray) -> int:
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("score vectors must be one-dimensional")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError(f"need at least 2 entries, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite score encountered")
    return len(x)


#: Score differences per block of :func:`_sign_blocks`, summed over every
#: benchmark; it bounds the kernel's temporaries and the Gram matmul sizes.
_PAIR_CHUNK = 1 << 13


def _sign_blocks(scores, stderrs, critical_z: float):
    """Yield ``(a, signs)`` over row blocks of the full M x M significance-sign square.

    Oriented ``scores`` and ``stderrs`` of shape (B, M) or (M,) give float
    ``signs`` of shape (B, k, M) or (k, M) for models a..a+k-1: entry
    [..., r, j] is the sign of d = s_(a+r) - s_j if the gap is significant,
    else 0.  Significant means |d| / sqrt(se_i^2 + se_j^2) > critical_z, or
    d != 0 when that denominator is 0 (so zero stderrs give plain signs for
    any critical_z).  Float subtraction is exactly antisymmetric and the
    denominator symmetric, so the square is antisymmetric with a zero
    diagonal: each unordered pair appears twice, with opposite signs.
    """
    m = scores.shape[-1]
    block = max(1, _PAIR_CHUNK // max(1, scores.size))
    for a in range(0, m, block):
        d = scores[..., a : a + block, None] - scores[..., None, :]
        se_i, se_j = stderrs[..., a : a + block, None], stderrs[..., None, :]
        denom = np.sqrt(se_i * se_i + se_j * se_j)
        with np.errstate(divide="ignore", invalid="ignore"):
            significant = np.where(denom == 0.0, d != 0.0, np.abs(d) / denom > critical_z)
        yield a, np.where(significant, np.sign(d), 0.0)


def _tau_b_matrix(scores, stderrs, critical_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Tau-b values and degenerate mask between the rows of ``scores``.

    S S^T is summed over the blocks of :func:`_sign_blocks`, which hold
    every pair twice, and halved to give C - D.  A sign squared is 1 exactly
    when its pair is significant, so the halved diagonal is n_sig, the
    number of significant pairs per row.  C + D + Tx of cell (a, b) is
    n_sig[b] and C + D + Ty is n_sig[a], so a cell is (C - D) /
    sqrt(n_sig[a] n_sig[b]); it is degenerate (value 0.0) when either count
    is 0, and the diagonal is 1.  Every count, partial sum and product is an
    integer below 2^53, exact in float64, so the one sqrt and one division
    round exactly as on Python ints.
    """
    nb = len(scores)
    gram = np.zeros((nb, nb))
    for _, signs in _sign_blocks(scores, stderrs, critical_z):
        flat = signs.reshape(nb, -1)
        gram += flat @ flat.T
    c_minus_d, n_sig = gram / 2, np.diagonal(gram) / 2
    degenerate = (n_sig[:, None] == 0) | (n_sig == 0)
    np.fill_diagonal(degenerate, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(degenerate, 0.0, c_minus_d / np.sqrt(np.outer(n_sig, n_sig)))
    np.fill_diagonal(values, 1.0)
    return values, degenerate


def kendall_tau(x, y) -> float:
    """Plain Kendall rank correlation of two score vectors.

    Counts concordant minus discordant pairs over the sign square, which
    holds each pair twice, and divides once: 2(C - D) / (n(n-1)).  Exact
    ties within either vector raise :class:`TieError` (use
    :func:`kendall_tau_b` for tied or noisy data).  Integer counting keeps
    the result free of accumulation drift, so values are exactly reproducible.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = _check_pair_lengths(x, y)
    for name, v in (("x", x), ("y", y)):
        if len(np.unique(v)) != n:
            raise TieError(f"exact tie in {name}; plain tau is undefined under ties")
    blocks = _sign_blocks(np.stack([x, y]), np.zeros((2, n)), 1.0)
    return sum(int(np.vdot(sx, sy)) for _, (sx, sy) in blocks) / (n * (n - 1))


def significant_difference(s1: float, se1: float, s2: float, se2: float, cfg: SignificanceConfig) -> bool:
    """Two-sided z-test: is |s1 - s2| significant given both standard errors?

    True iff |s1 - s2| / sqrt(se1^2 + se2^2) > critical_z.  When both
    standard errors are zero the test degenerates to exact inequality.
    Symmetric in its two (score, stderr) arguments.
    """
    for v in (s1, se1, s2, se2):
        if not math.isfinite(v):
            raise ValueError(f"non-finite input {v!r}")
    if se1 < 0 or se2 < 0:
        raise ValueError("standard errors must be >= 0")
    scores = np.array([s1, s2], dtype=float)
    stderrs = np.array([se1, se2], dtype=float)
    _, signs = next(_sign_blocks(scores, stderrs, cfg.critical_z))
    return bool(signs[0, 1])


def kendall_tau_b(x, se_x, y, se_y, cfg: SignificanceConfig) -> float | Degenerate:
    """Tie-adjusted Kendall correlation with significance-based ties.

    A pair is tied in a dimension when :func:`significant_difference`
    fails there.  Pairs tied only in x count toward Tx, tied only in y
    toward Ty; pairs tied in both dimensions are excluded from all four
    tallies.  Result: (C - D) / sqrt((C + D + Tx)(C + D + Ty)).

    Returns :data:`DEGENERATE` when either factor of the denominator is
    zero (every pair tied in one dimension) instead of NaN.  Tie calls are
    made pairwise and are deliberately non-transitive; no tie clustering
    is performed.
    """
    x = np.asarray(x, dtype=float)
    se_x = np.asarray(se_x, dtype=float)
    y = np.asarray(y, dtype=float)
    se_y = np.asarray(se_y, dtype=float)
    n = _check_pair_lengths(x, y)
    if len(se_x) != n or len(se_y) != n:
        raise ValueError("stderr vectors must match score vectors in length")
    if not (np.isfinite(se_x).all() and np.isfinite(se_y).all()):
        raise ValueError("non-finite standard error")
    if (se_x < 0).any() or (se_y < 0).any():
        raise ValueError("standard errors must be >= 0")
    values, degenerate = _tau_b_matrix(np.stack([x, y]), np.stack([se_x, se_y]), cfg.critical_z)
    return DEGENERATE if degenerate[0, 1] else float(values[0, 1])


def agreement_matrix(m: ScoreMatrix, method: str = "tau", cfg: SignificanceConfig | None = None) -> AgreementMatrix:
    """Pairwise rank agreement between every pair of benchmarks.

    Scores are oriented per benchmark first, so lower-is-better rows
    correlate positively with accuracy rows when rankings agree.  The
    diagonal is fixed to 1; degenerate tau-b cells are flagged, not NaN.
    """
    if method not in ("tau", "tau_b"):
        raise ValueError(f"method must be 'tau' or 'tau_b', got {method!r}")
    if m.n_benchmarks < 2:
        raise ValueError("need at least 2 benchmarks")
    if cfg is None:
        cfg = SignificanceConfig()
    oriented = np.stack([oriented_scores(m, b) for b in m.benchmark_ids])
    stderrs = m.stderrs
    if method == "tau":
        for b, row in zip(m.benchmark_ids, oriented):
            if len(np.unique(row)) != len(row):
                raise TieError(f"benchmark {b!r} has exact score ties; use tau_b")
        # tie-free rows with zero stderrs: tau-b reduces to plain tau bit for bit
        stderrs = np.zeros_like(stderrs)
    values, degenerate = _tau_b_matrix(oriented, stderrs, cfg.critical_z)
    values.setflags(write=False)
    degenerate.setflags(write=False)
    return AgreementMatrix(benchmark_ids=m.benchmark_ids, values=values, degenerate=degenerate)


def _defined_mean(am: AgreementMatrix, cells=None) -> tuple[float | None, int]:
    """Mean of the non-degenerate (i, j) ``cells``, in the order given, and the number skipped.

    ``cells`` defaults to every pair i < j, row by row; the mean is None when no cell is defined.
    """
    if cells is None:
        cells = combinations(range(am.n_benchmarks), 2)
    rows, cols = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    skipped = am.degenerate[rows, cols]
    kept = am.values[rows, cols][~skipped]
    return (float(np.mean(kept)) if kept.size else None), int(skipped.sum())


def mean_agreement(am: AgreementMatrix) -> MeanAgreement:
    """Mean off-diagonal agreement per benchmark.

    Degenerate cells are excluded from the mean and counted per row; a row
    with no defined off-diagonal cell at all raises
    :class:`~benchrank.core.DegenerateError`.
    """
    nb = am.n_benchmarks
    if nb < 2:
        raise ValueError("need at least 2 benchmarks")
    means = np.zeros(nb, dtype=float)
    excluded = np.zeros(nb, dtype=np.int64)
    for i in range(nb):
        mean, excluded[i] = _defined_mean(am, [(i, j) for j in range(nb) if j != i])
        if mean is None:
            raise DegenerateError(
                f"benchmark {am.benchmark_ids[i]!r}: every off-diagonal agreement cell is degenerate"
            )
        means[i] = mean
    means.setflags(write=False)
    excluded.setflags(write=False)
    return MeanAgreement(benchmark_ids=am.benchmark_ids, means=means, n_excluded=excluded)


def category_agreement(am: AgreementMatrix, cats: list[BenchmarkRecord]) -> CategoryAgreement:
    """Average agreement within and between benchmark categories.

    Off-diagonal entries average all pairs (a in c1, b in c2); diagonal
    entries average unordered distinct pairs inside the category
    (self-pairs excluded).  Every benchmark in the matrix must carry a
    category.  Categories appear in their canonical order.
    """
    by_benchmark = {}
    for rec in cats:
        if rec.benchmark_id in by_benchmark:
            raise ValueError(f"duplicate category record for benchmark {rec.benchmark_id!r}")
        by_benchmark[rec.benchmark_id] = rec.category
    missing = [b for b in am.benchmark_ids if b not in by_benchmark]
    if missing:
        raise ValueError(f"benchmarks without a category: {missing}")
    present = [c for c in CATEGORIES if any(by_benchmark[b] == c for b in am.benchmark_ids)]
    members = {c: [i for i, b in enumerate(am.benchmark_ids) if by_benchmark[b] == c] for c in present}
    nc = len(present)
    values = np.zeros((nc, nc), dtype=float)
    undefined = np.zeros((nc, nc), dtype=bool)
    excluded = np.zeros((nc, nc), dtype=np.int64)
    for ci in range(nc):
        for cj in range(ci, nc):
            rows, cols = members[present[ci]], members[present[cj]]
            cells = combinations(rows, 2) if ci == cj else product(rows, cols)
            mean, excluded[ci, cj] = _defined_mean(am, cells)
            excluded[cj, ci] = excluded[ci, cj]
            if mean is None:
                undefined[ci, cj] = undefined[cj, ci] = True
            else:
                values[ci, cj] = values[cj, ci] = mean
    for arr in (values, undefined, excluded):
        arr.setflags(write=False)
    return CategoryAgreement(
        categories=tuple(present), values=values, undefined=undefined, n_excluded=excluded
    )


def bits_per_byte(total_nll_nats: float, total_bytes: float) -> float:
    """Convert a summed negative log-likelihood in nats to bits per byte.

    BPB = total_nll_nats / (total_bytes * ln 2), a tokenizer-independent
    perplexity measure.
    """
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be > 0, got {total_bytes}")
    if total_nll_nats < 0:
        raise ValueError(f"total_nll_nats must be >= 0, got {total_nll_nats}")
    return total_nll_nats / (total_bytes * math.log(2.0))


def average_rank_vector(m: ScoreMatrix, subset: list[str]) -> np.ndarray:
    """Per-model mean oriented score over a subset of benchmarks.

    The subset must be direction-homogeneous (all accuracy-like or all
    perplexity-like): averaging raw values across mixed directions is
    meaningless.  The result feeds straight into a correlation against
    another averaged vector.  An all-constant output is a legitimate value
    here; downstream tau-b reports it as degenerate.
    """
    if not subset:
        raise ValueError("benchmark subset must be non-empty")
    idx = [m.benchmark_index(b) for b in subset]
    dirs = {m.direction[i] for i in idx}
    if len(dirs) > 1:
        raise ValueError(f"mixed directions in subset {subset}: {sorted(dirs)}")
    rows = np.stack([oriented_scores(m, b) for b in subset])
    return rows.mean(axis=0)
