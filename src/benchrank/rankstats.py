"""Rank-correlation statistics over benchmark score matrices.

Everything here rests on one two-sided z-test at level alpha: a gap
d = s_i - s_j is significant when |d| / sqrt(se_i^2 + se_j^2) exceeds a
finite critical value, so at zero stderrs a nonzero gap is (|d| / 0 is
inf) and a zero gap is not (0 / 0 is nan).  ``kendall_tau_b`` ties every
pair whose gap is not significant: (C - D) / sqrt((C + D + Tx)(C + D + Ty)).
``kendall_tau`` is the plain (C - D) / (n(n-1)/2); it refuses exact ties,
and without them it is tau-b at zero stderrs, bit for bit.

The test is one helper, ``_z_test``, and this module owns both layouts
of the pairs it tests.  ``_sign_gram`` tests each unordered pair of
models i < j once per benchmark, a block of model rows at a time so no
array holds the signs of every pair.  A pair's sign is that of s_i - s_j
where the gap is significant and 0 where it is not; pairs are concordant
when their signs agree, and score gaps are never multiplied (the product
can underflow).  With S the B x M(M-1)/2 signs, S S^T holds C - D for
every benchmark pair (a, b), with no halving, and its diagonal the number
of pairs significant on each benchmark; taken on b, that is C + D + Tx.
These are every count that tau, tau-b and ``significant_difference`` read.

``_significance_split`` lays out one task's pairs as a threshold split,
the partial orders of :mod:`~benchrank.alignment`.  Its models get
coordinates 0..M-1 in descending score, and row r's significant pairs go
only to later columns, which split into a prefix with none, a thin band
whose columns are tested one by one, and a suffix, from column f_r on,
that is all significant.  In descending score order a row's gaps never
shrink along the row.  So the z-test with the column's variance replaced
by the task's smallest variance fails up to a band start b_r and passes
from it on, and with the largest variance likewise from f_r on.  A pair
passing with the largest variance passes the real test, and one passing
the real test passes with the smallest, because rounding of +, sqrt and /
is monotone: the split is exact.  ``_thresholds`` finds b_r and f_r for
all 2M (row r, variance v) pairs at once.  Each is seeded with g, the
first column after r whose score lies below the cut
s_r - z * sqrt(var_r + v), by one searchsorted; the z-test at g and at
g - 1 narrows its bracket [r + 1, M], and one vectorised bisection closes
the brackets still open; a right seed passes and g - 1 fails, which
closes its bracket.  Whatever the seeds, the result is exact: along
a row the z-test fails up to the answer and passes from it on, so each
test only moves a bracket end towards it.  The cut is rounded differently
from the z-test, so a score within a few ulps of it can make a seed miss,
and the bisection then finishes that bracket.  Only the band pairs
[b_r, f_r) take the real test.  (The alignment's crossings are an
inversion count of its two rankings and read no signs.)

Undefined correlations are reported as :data:`~benchrank.core.DEGENERATE`,
never NaN, and every aggregation skips such cells and counts them.  The
aggregations are one primitive, ``_grouped_means``: groups of cells given
as flat indices plus group sizes, read with one gather, each group's mean
``np.mean`` of its kept cells in the order given, bit for bit.
``mean_agreement``, ``category_agreement``, ``_defined_mean`` and the
report's overall and perplexity means each take one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


#: Score differences per block of :func:`_sign_gram`, summed over every
#: benchmark; it bounds the Gram's temporaries and matmul sizes,
#: and the band pairs that one z-test call of :func:`_significance_split` takes.
_PAIR_CHUNK = 1 << 13


def _variances(stderrs) -> np.ndarray:
    """``stderrs`` squared, as the z-test adds them; a stderr above about 1e154 gives an infinite variance."""
    with np.errstate(over="ignore"):
        return stderrs * stderrs


def _z_test(s_a, s_b, var_a, var_b, critical_z: float) -> tuple[np.ndarray, np.ndarray]:
    """The z-test, elementwise over broadcast arrays: the gap d = s_a - s_b and whether it is significant.

    Significant means |d| / sqrt(var_a + var_b) > ``critical_z``, evaluated
    in that order of float64 operations; this is the package's one
    comparison against ``critical_z``.  ``critical_z`` is finite, so it
    settles every edge case: |d| / 0 is inf for d != 0 and nan for d == 0,
    an infinite gap is significant and an infinite variance is not.
    ``var_a + var_b`` must broadcast to an array, since the test works in
    place on it.  Each of +, sqrt and / rounds monotonically, so for
    d >= 0 the outcome never turns from significant to not as d grows or
    as a variance shrinks.
    """
    # no warnings: overflow to inf and the 0 / 0 = nan above are meant
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.subtract(s_a, s_b)
        q = np.add(var_a, var_b)
        np.sqrt(q, out=q)
        np.divide(d, q, out=q)
        np.abs(q, out=q)
        return d, q > critical_z


def _sign_gram(scores, stderrs, critical_z: float) -> np.ndarray:
    """S S^T between the rows of (B, M) ``scores``: C - D off the diagonal, n_sig on it.

    Row b of S holds, for every model pair i < j, the sign of
    d = s_i - s_j on benchmark b if |d| / sqrt(se_i^2 + se_j^2) >
    ``critical_z``, else 0.  S is built a block of model rows at a time,
    each block about ``_PAIR_CHUNK`` differences and one :func:`_z_test`
    call: rows a..a+k-1 against columns a+1..M-1, with the entries below
    the diagonal masked so each pair appears once and no halving is
    needed.  A sign squared is 1 exactly when its pair is significant, so
    the diagonal is n_sig, the number of significant pairs per row.  Every
    entry and partial sum is an integer below 2^53, exact in float64, so
    the result is independent of the block size and of summation order.
    """
    nb, m = scores.shape
    var = _variances(stderrs)
    gram = np.zeros((nb, nb))
    a = 0
    while a < m - 1:
        width = m - 1 - a
        k = min(width, max(1, _PAIR_CHUNK // (nb * width)))
        rows, cols = np.s_[:, a : a + k, None], np.s_[:, None, a + 1 :]
        d, significant = _z_test(scores[rows], scores[cols], var[rows], var[cols], critical_z)
        # row r of the block starts the triangle at column c = r
        significant[:, :, :k] &= np.triu(np.ones((k, k), dtype=bool))
        signs = np.copysign(significant, d, out=d).reshape(nb, -1)
        gram += signs @ signs.T
        a += k
    return gram


def _significance_split(scores, stderrs, critical_z: float) -> tuple[np.ndarray, ...]:
    """The threshold split of one task's checked, non-empty vectors (see the module docstring).

    Returns ``(order, stop, band, start)``: coordinate c is model
    ``order[c]``, in descending score, and row c's significant pairs are
    every column from ``stop[c]`` on and the band columns
    ``band[start[c] : start[c + 1]]``, all below ``stop[c]``.
    """
    order = np.argsort(-scores)
    s, var = scores[order], _variances(stderrs[order])
    m = len(s)
    first, stop = _thresholds(s, var, critical_z)
    # band pairs are numbered row by row; row r's numbers end at ends[r] as its columns end at stop[r]
    ends = np.cumsum(stop - first)
    shift, total = stop - ends, int(ends[-1])
    band, counts = [order[:0]], np.zeros(m, dtype=np.intp)
    for p in range(0, total, _PAIR_CHUNK):
        at = np.arange(p, min(p + _PAIR_CHUNK, total))
        rows = np.searchsorted(ends, at, side="right")
        cols = at + shift[rows]
        _, passed = _z_test(s[rows], s[cols], var[rows], var[cols], critical_z)
        band.append(cols[passed])
        counts += np.bincount(rows[passed], minlength=m)
    start = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(counts, out=start[1:])
    return order, stop, np.concatenate(band), start


def _thresholds(s, var, critical_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Band starts b_r and suffix starts f_r of the rows of descending scores ``s`` (see the module docstring).

    Each is the first column after r whose pair passes the z-test with the
    column's variance replaced by the smallest variance, for b_r, or by the
    largest, for f_r; len(s) where none does.
    """
    m = len(s)
    rows = np.tile(np.arange(m), 2)
    other = np.repeat([var.min(), var.max()], m)
    # the seed: the first column below the cut s_r - z * sqrt(var_r + v), not before r + 1
    with np.errstate(over="ignore"):
        cut = s[rows] - critical_z * np.sqrt(var[rows] + other)
    seed = np.maximum(m - np.searchsorted(s[::-1], cut), rows + 1)
    lo, hi = rows + 1, np.full(2 * m, m)

    def narrow(live, mid):
        _, passed = _z_test(s[rows[live]], s[mid], var[rows[live]], other[live], critical_z)
        hi[live[passed]] = mid[passed]
        lo[live[~passed]] = mid[~passed] + 1

    for col in (seed, seed - 1):
        live = np.flatnonzero((lo <= col) & (col < hi))
        narrow(live, col[live])
    live = np.arange(2 * m)
    while (live := live[lo[live] < hi[live]]).size:
        narrow(live, (lo[live] + hi[live]) // 2)
    return lo[:m], lo[m:]


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
        _refuse_ties(oriented, m.benchmark_ids, "benchmark {!r} has exact score ties; use tau-b")
        stderrs = np.zeros_like(stderrs)
    values, degenerate = _tau_b_matrix(oriented, stderrs, cfg.critical_z)
    values.setflags(write=False)
    degenerate.setflags(write=False)
    return AgreementMatrix(benchmark_ids=m.benchmark_ids, values=values, degenerate=degenerate)


def _pair_cells(n: int, rows, cols=None) -> np.ndarray:
    """Flat indices i * n + j of an (n, n) matrix's cells (i, j) in ``product(rows, cols)`` order.

    Without ``cols``, the cells of ``combinations(rows, 2)``, in that order.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if cols is not None:
        return (rows[:, None] * n + np.asarray(cols, dtype=np.intp)).ravel()
    at = np.arange(len(rows))
    return (rows[:, None] * n + rows)[at[:, None] < at]


def _grouped_means(am: AgreementMatrix, cells, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of each group's non-degenerate cells, with its kept and skipped counts.

    ``cells`` holds flat indices i * n + j of the matrix's cells, and group g
    is the ``sizes[g]`` cells after group g - 1's.  A group's mean equals
    ``np.mean`` of its kept cells in the order given, bit for bit: the kept
    cells are put in a stable order by their group's kept count, so the
    groups that keep k cells are the rows of one C-ordered (groups, k)
    block, and ``mean(axis=1)`` sums each row as ``np.mean`` sums one
    vector (pairwise).  A group that keeps no cell has mean 0.0.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    group = np.repeat(np.arange(len(sizes)), sizes)
    skipped = am.degenerate.ravel()[cells]
    excluded = np.bincount(group[skipped], minlength=len(sizes))
    kept = sizes - excluded
    live = ~skipped
    values = am.values.ravel()[cells[live]]
    values = values[np.argsort(kept[group[live]], kind="stable")]
    means = np.zeros(len(sizes))
    n_groups = np.bincount(kept[kept > 0])  # by k, the number of groups that keep k cells
    start = 0
    for k in np.flatnonzero(n_groups).tolist():
        stop = start + k * int(n_groups[k])
        means[kept == k] = values[start:stop].reshape(-1, k).mean(axis=1)
        start = stop
    return means, kept, excluded


def _defined_mean(am: AgreementMatrix, cells=None) -> tuple[float | None, int]:
    """Mean of the non-degenerate (i, j) ``cells``, in the order given, and the number skipped.

    ``cells`` defaults to every pair i < j, row by row; the mean is None when no cell is defined.
    """
    nb = am.n_benchmarks
    if cells is None:
        flat = _pair_cells(nb, range(nb))
    else:
        rows, cols = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
        flat = rows * nb + cols
    means, kept, excluded = _grouped_means(am, flat, [len(flat)])
    return (float(means[0]) if kept[0] else None), int(excluded[0])


def mean_agreement(am: AgreementMatrix) -> MeanAgreement:
    """Mean off-diagonal agreement per benchmark.

    Degenerate cells are excluded from the mean and counted per row; a row
    with no defined off-diagonal cell at all raises
    :class:`~benchrank.core.DegenerateError`, naming the first such row.
    Each row's kept cells are averaged in column order by
    :func:`_grouped_means`, so a mean equals ``np.mean`` of that row's kept cells.
    """
    nb = am.n_benchmarks
    if nb < 2:
        raise ValueError("need at least 2 benchmarks")
    means, kept, excluded = _grouped_means(am, np.flatnonzero(~np.eye(nb, dtype=bool)), np.full(nb, nb - 1))
    if not kept.all():
        raise DegenerateError(
            f"benchmark {am.benchmark_ids[kept.argmin()]!r}: every off-diagonal agreement cell is degenerate"
        )
    means.setflags(write=False)
    excluded.setflags(write=False)
    return MeanAgreement(benchmark_ids=am.benchmark_ids, means=means, n_excluded=excluded)


def category_agreement(am: AgreementMatrix, cats: list[BenchmarkRecord]) -> CategoryAgreement:
    """Average agreement within and between benchmark categories.

    Off-diagonal entries average all pairs (a in c1, b in c2); diagonal
    entries average unordered distinct pairs inside the category
    (self-pairs excluded).  Every benchmark in the matrix must carry a
    category.  Categories appear in their canonical order.  Each entry is
    ``np.mean`` of its defined cells in ``product`` or ``combinations``
    order, all from one :func:`_grouped_means` call.
    """
    by_benchmark = {}
    for rec in cats:
        if rec.benchmark_id in by_benchmark:
            raise ValueError(f"duplicate category record for benchmark {rec.benchmark_id!r}")
        by_benchmark[rec.benchmark_id] = rec.category
    missing = [b for b in am.benchmark_ids if b not in by_benchmark]
    if missing:
        raise ValueError(f"benchmarks without a category: {missing}")
    category = [by_benchmark[b] for b in am.benchmark_ids]
    present = [c for c in CATEGORIES if c in category]
    nb, nc = am.n_benchmarks, len(present)
    code = np.array([present.index(c) for c in category], dtype=np.intp)
    # cell (i, j) goes to category pair (code[i], code[j]) when i's category comes first, or i < j in one category
    rank = code * nb + np.arange(nb)
    cells = np.flatnonzero(rank[:, None] < rank)
    pair = (code[:, None] * nc + code).ravel()[cells]
    by_pair = np.argsort(pair, kind="stable")  # row by row within a pair: product and combinations order
    means, kept, excluded = _grouped_means(am, cells[by_pair], np.bincount(pair, minlength=nc * nc))
    at = np.arange(nc)
    upper = np.minimum(at[:, None], at) * nc + np.maximum(at[:, None], at)  # entries (c1, c2) and (c2, c1) read one group
    values, undefined, excluded = means[upper], kept[upper] == 0, excluded[upper]
    for arr in (values, undefined, excluded):
        arr.setflags(write=False)
    return CategoryAgreement(
        categories=tuple(present), values=values, undefined=undefined, n_excluded=excluded
    )


def bits_per_byte(total_nll_nats: float, total_bytes: float) -> float:
    """Convert a summed negative log-likelihood in nats to bits per byte.

    BPB = total_nll_nats / (total_bytes * ln 2), a tokenizer-independent
    perplexity measure.  Raises ``ValueError`` unless ``total_bytes`` is
    finite and > 0 and ``total_nll_nats`` finite and >= 0, or when the
    quotient overflows float64.
    """
    if not 0 < total_bytes < math.inf:
        raise ValueError(f"total_bytes must be finite and > 0, got {total_bytes}")
    if not 0 <= total_nll_nats < math.inf:
        raise ValueError(f"total_nll_nats must be finite and >= 0, got {total_nll_nats}")
    bpb = total_nll_nats / (total_bytes * math.log(2.0))
    if bpb == math.inf:
        raise ValueError(f"bits per byte overflows float64 at ({total_nll_nats}, {total_bytes})")
    return bpb


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
