"""Rank-correlation statistics over benchmark score matrices.

Everything here rests on one two-sided z-test at level alpha: a gap
d = s_i - s_j is significant when |d| / sqrt(se_i^2 + se_j^2) exceeds a
finite critical value, so at zero stderrs a nonzero gap is (|d| / 0 is
inf) and a zero gap is not (0 / 0 is nan).  ``kendall_tau_b`` ties every
pair whose gap is not significant: (C - D) / sqrt((C + D + Tx)(C + D + Ty)).
``kendall_tau`` is the plain (C - D) / (n(n-1)/2); it refuses exact ties,
and without them it is tau-b at zero stderrs, bit for bit.

The test runs in one kernel, ``_sign_blocks``, which also serves the
partial orders of :mod:`~benchrank.alignment`: per benchmark, the M x M
square of signs of s_i - s_j, 0 where the gap is not significant, yielded
a block of model rows at a time so no array holds the signs of every pair.
The square is antisymmetric, so each unordered pair appears twice.  Pairs
are concordant when their signs agree; score gaps are never multiplied
(the product can underflow).  The square has two readers:
``build_partial_order`` takes its edges, and ``_sign_gram`` makes every
count that tau, tau-b and the z-test read.  (The alignment's crossings
are an inversion count of its two rankings and read no signs.)  With S the
B x M^2 signs, S S^T / 2 holds C - D for every benchmark pair (a, b), and
its diagonal the number of pairs significant on each benchmark; taken on
b, that is C + D + Tx.

Undefined correlations are reported as :data:`~benchrank.core.DEGENERATE`,
never NaN, and every aggregation skips such cells and counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Two-sided pairwise z-test at level ``alpha``, its only setting.

    ``critical_z`` is derived: the normal quantile at 1 - alpha/2 (1.959964
    at the default 0.05), finite and positive exactly when 0.5 < 1 - alpha/2
    < 1 in float64, i.e. for 2^-53 < alpha < 1 - 2^-53; other alphas raise.
    The normal approximation is used because inputs are aggregate scores
    with externally supplied standard errors (no degrees of freedom).
    """

    alpha: float = 0.05
    critical_z: float = field(init=False)

    def __post_init__(self):
        p = 1.0 - self.alpha / 2.0
        if not 0.5 < p < 1.0:
            raise ValueError(f"alpha must satisfy 2^-53 < alpha < 1 - 2^-53, got {self.alpha}")
        object.__setattr__(self, "critical_z", NormalDist().inv_cdf(p))


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


def _checked(scores, stderrs, error=ValueError) -> tuple[np.ndarray, np.ndarray]:
    """``scores`` and ``stderrs`` as float arrays, checked to be equal-length finite vectors with stderrs >= 0."""
    scores, stderrs = np.asarray(scores, dtype=float), np.asarray(stderrs, dtype=float)
    if scores.shape != stderrs.shape or scores.ndim != 1:
        raise error("scores and stderrs must be equal-length vectors")
    if not (np.isfinite(scores).all() and np.isfinite(stderrs).all()):
        raise error("non-finite input")
    if (stderrs < 0).any():
        raise error("standard errors must be >= 0")
    return scores, stderrs


def _checked_pair(x, se_x, y, se_y) -> tuple[np.ndarray, np.ndarray]:
    """Two checked vectors of one length n >= 2, stacked into (2, n) scores and stderrs."""
    (x, se_x), (y, se_y) = _checked(x, se_x), _checked(y, se_y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError(f"need at least 2 entries, got {len(x)}")
    return np.stack([x, y]), np.stack([se_x, se_y])


def _refuse_ties(rows, names, message: str) -> None:
    """Raise :class:`TieError` with ``message`` formatted with the name of the first row holding an exact tie."""
    for name, row in zip(names, rows):
        if len(np.unique(row)) != len(row):
            raise TieError(message.format(name))


#: Score differences per block of :func:`_sign_blocks`, summed over every
#: benchmark; it bounds the kernel's temporaries and the Gram matmul sizes.
_PAIR_CHUNK = 1 << 13


def _sign_blocks(scores, stderrs, critical_z: float):
    """Yield ``(a, signs)`` over row blocks of the full M x M significance-sign square.

    Oriented ``scores`` and ``stderrs`` of shape (B, M) or (M,) give float
    ``signs`` of shape (B, k, M) or (k, M) for models a..a+k-1: entry
    [..., r, j] is the sign of d = s_(a+r) - s_j if |d| / sqrt(se_(a+r)^2 +
    se_j^2) > critical_z, else 0.  ``critical_z`` is finite, so this one
    comparison settles every edge case: |d| / 0 is inf for d != 0 and nan for
    d == 0, an infinite gap is significant and an infinite variance is not.
    Float subtraction is exactly antisymmetric and the denominator
    symmetric, so the square is antisymmetric with a zero diagonal: each
    unordered pair appears twice, with opposite signs.
    """
    block = max(1, _PAIR_CHUNK // max(1, scores.size))
    with np.errstate(over="ignore"):
        var = stderrs * stderrs
    for a in range(0, scores.shape[-1], block):
        # closed before the yield: errstate is a context variable and would also cover the consumer's code
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = scores[..., a : a + block, None] - scores[..., None, :]
            denom = np.sqrt(var[..., a : a + block, None] + var[..., None, :])
            significant = np.abs(d) / denom > critical_z
        yield a, np.where(significant, np.sign(d), 0.0)


def _sign_gram(scores, stderrs, critical_z: float) -> np.ndarray:
    """Halved S S^T between the rows of (B, M) ``scores``: C - D off the diagonal, n_sig on it.

    S S^T is summed over the blocks of :func:`_sign_blocks`, which hold
    every pair twice with opposite signs, so each entry is even and its half
    is C - D.  A sign squared is 1 exactly when its pair is significant, so
    the halved diagonal is n_sig, the number of significant pairs per row.
    Every entry and partial sum is an integer below 2^53, exact in float64,
    so the result is independent of the block size and of summation order.
    """
    nb = len(scores)
    gram = np.zeros((nb, nb))
    for _, signs in _sign_blocks(scores, stderrs, critical_z):
        flat = signs.reshape(nb, -1)
        gram += flat @ flat.T
    return gram / 2


def _tau_b_matrix(scores, stderrs, critical_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Tau-b values and degenerate mask between the rows of ``scores``.

    A cell is (C - D) / sqrt(n_sig[a] n_sig[b]), read off :func:`_sign_gram`;
    it is degenerate (value 0.0) when either count is 0, and the diagonal
    is 1.  Above 2^53 (about 13,000 models) a product of counts rounds once in
    float64, as ``math.sqrt`` of the Python-int product does: values match.
    """
    c_minus_d = _sign_gram(scores, stderrs, critical_z)
    n_sig = np.diagonal(c_minus_d)
    degenerate = (n_sig[:, None] == 0) | (n_sig == 0)
    np.fill_diagonal(degenerate, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(degenerate, 0.0, c_minus_d / np.sqrt(np.outer(n_sig, n_sig)))
    np.fill_diagonal(values, 1.0)
    return values, degenerate


def kendall_tau(x, y) -> float:
    """Plain Kendall rank correlation of two score vectors.

    (C - D) / (n(n-1)/2) by the steps of ``agreement_matrix(method="tau")``:
    an exact tie in either vector raises :class:`TieError` (use
    :func:`kendall_tau_b` for tied or noisy data), then the tau-b cell at
    zero stderrs, (C - D) / sqrt(fl(P * P)): the float (C - D) / P for P < 2^53.
    """
    scores, stderrs = _checked_pair(x, np.zeros(np.shape(x)), y, np.zeros(np.shape(y)))
    _refuse_ties(scores, "xy", "exact tie in {}; plain tau is undefined under ties")
    return float(_tau_b_matrix(scores, stderrs, 1.0)[0][0, 1])


def significant_difference(s1: float, se1: float, s2: float, se2: float, cfg: SignificanceConfig) -> bool:
    """Two-sided z-test: is |s1 - s2| significant given both standard errors?

    The module's z-test on one pair at ``cfg.critical_z``; symmetric in its
    two (score, stderr) arguments.
    """
    scores, stderrs = _checked([s1, s2], [se1, se2])
    return bool(_sign_gram(scores[None], stderrs[None], cfg.critical_z)[0, 0])


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
    values, degenerate = _tau_b_matrix(*_checked_pair(x, se_x, y, se_y), cfg.critical_z)
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
        _refuse_ties(oriented, m.benchmark_ids, "benchmark {!r} has exact score ties; use tau_b")
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
