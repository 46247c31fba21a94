"""Core data types shared by every analysis stage.

The central object is :class:`ScoreMatrix`: benchmark rows, model columns,
metric values plus standard errors of the mean.  Everything downstream
(rank correlations, partial-order alignment, PCA) consumes these types.
All of them are immutable after construction; numpy payloads are marked
read-only so instances can be shared across threads without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HIGHER = "higher"
LOWER = "lower"
DIRECTIONS = (HIGHER, LOWER)

#: Closed set of benchmark categories. PPL marks perplexity-style rows.
CATEGORIES = ("LU", "CR", "QA", "PBC", "Math", "Med", "PPL")


class ScoreMatrixError(ValueError):
    """A score matrix (or candidate) violates a structural invariant."""


class DegenerateError(ArithmeticError):
    """A requested scalar is undefined (for example a zero tau-b denominator)."""


class Degenerate:
    """Typed marker for undefined correlations.

    Returned instead of NaN wherever a denominator collapses (for example
    tau-b with every pair tied).  Aggregations skip marked cells and count
    them rather than letting NaN poison a mean.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEGENERATE"


DEGENERATE = Degenerate()


def _locked(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Benchmark-by-model metric values with standard errors.

    Rows are benchmarks, columns are models.  ``direction`` records, per
    benchmark, whether larger raw values are better (``"higher"``, e.g.
    accuracy) or worse (``"lower"``, e.g. bits per byte).  ``n_items`` is
    the per-benchmark evaluation-set size; ``None`` when unknown.

    Instances are assumed validated; build them through
    :func:`make_score_matrix` or run :func:`validate_score_matrix`.
    """

    benchmark_ids: tuple[str, ...]
    model_ids: tuple[str, ...]
    scores: np.ndarray
    stderrs: np.ndarray
    n_items: tuple[int | None, ...]
    direction: tuple[str, ...]

    @property
    def n_benchmarks(self) -> int:
        return len(self.benchmark_ids)

    @property
    def n_models(self) -> int:
        return len(self.model_ids)

    def benchmark_index(self, benchmark_id: str) -> int:
        try:
            return self.benchmark_ids.index(benchmark_id)
        except ValueError:
            raise KeyError(f"unknown benchmark id {benchmark_id!r}") from None

    def model_index(self, model_id: str) -> int:
        try:
            return self.model_ids.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model id {model_id!r}") from None


@dataclass(frozen=True)
class ModelRecord:
    """Static metadata for one model: size, training tokens, tuning flag.

    ``param_count`` and ``token_count`` are in billions; ``token_count`` is
    ``None`` when the training-token count is not public, in which case the
    model is skipped by compute-based analyses.
    """

    model_id: str
    family: str
    param_count: float
    token_count: float | None = None
    instruction_tuned: bool = False

    def __post_init__(self):
        if not np.isfinite(self.param_count) or self.param_count <= 0:
            raise ValueError(f"model {self.model_id!r}: param_count must be > 0, got {self.param_count}")
        if self.token_count is not None and (not np.isfinite(self.token_count) or self.token_count <= 0):
            raise ValueError(f"model {self.model_id!r}: token_count must be > 0 when present, got {self.token_count}")


@dataclass(frozen=True)
class BenchmarkRecord:
    """Benchmark id plus its category (one of :data:`CATEGORIES`)."""

    benchmark_id: str
    category: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(
                f"benchmark {self.benchmark_id!r}: category {self.category!r} not in {CATEGORIES}"
            )


@dataclass(frozen=True, eq=False)
class AgreementMatrix:
    """Symmetric matrix of rank correlations between benchmarks.

    ``values[i, j]`` holds the correlation between the model rankings of
    benchmarks i and j; the diagonal is fixed to 1.  Cells where the
    correlation is undefined are flagged in ``degenerate`` (their stored
    value is 0.0 and must not be read directly; use :meth:`entry`).
    """

    benchmark_ids: tuple[str, ...]
    values: np.ndarray
    degenerate: np.ndarray

    def entry(self, i: int, j: int) -> float | Degenerate:
        if self.degenerate[i, j]:
            return DEGENERATE
        return float(self.values[i, j])

    @property
    def n_benchmarks(self) -> int:
        return len(self.benchmark_ids)


def _find_duplicate(ids: Sequence[str]) -> str | None:
    seen = set()
    for item in ids:
        if item in seen:
            return item
        seen.add(item)
    return None


def validate_score_matrix(m: ScoreMatrix) -> ScoreMatrix:
    """Check every ScoreMatrix invariant and return the matrix unchanged.

    Violations raise :class:`ScoreMatrixError` naming the offending
    benchmark/model coordinates.  Direction normalization is *not* applied
    here; lower-is-better rows are stored as-is and flipped on demand by
    :func:`oriented_scores`.  Idempotent: a matrix that validates once
    validates again.
    """
    nb, nm = len(m.benchmark_ids), len(m.model_ids)
    dup = _find_duplicate(m.benchmark_ids)
    if dup is not None:
        raise ScoreMatrixError(f"duplicate benchmark id {dup!r}")
    dup = _find_duplicate(m.model_ids)
    if dup is not None:
        raise ScoreMatrixError(f"duplicate model id {dup!r}")
    for name, arr in (("scores", m.scores), ("stderrs", m.stderrs)):
        if arr.shape != (nb, nm):
            raise ScoreMatrixError(
                f"{name} shape {arr.shape} does not match {nb} benchmarks x {nm} models"
            )
    if len(m.n_items) != nb:
        raise ScoreMatrixError(f"n_items has {len(m.n_items)} entries for {nb} benchmarks")
    if len(m.direction) != nb:
        raise ScoreMatrixError(f"direction has {len(m.direction)} entries for {nb} benchmarks")
    for i, d in enumerate(m.direction):
        if d not in DIRECTIONS:
            raise ScoreMatrixError(f"benchmark {m.benchmark_ids[i]!r}: direction {d!r} not in {DIRECTIONS}")
    for i, n in enumerate(m.n_items):
        if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
            raise ScoreMatrixError(f"benchmark {m.benchmark_ids[i]!r}: n_items must be a positive int, got {n!r}")
    for name, arr in (("score", m.scores), ("stderr", m.stderrs)):
        bad = ~np.isfinite(arr)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise ScoreMatrixError(
                f"non-finite {name} at benchmark {m.benchmark_ids[i]!r} (row {i}), "
                f"model {m.model_ids[j]!r} (col {j}): {arr[i, j]}"
            )
    neg = m.stderrs < 0
    if neg.any():
        i, j = map(int, np.argwhere(neg)[0])
        raise ScoreMatrixError(
            f"negative stderr at benchmark {m.benchmark_ids[i]!r} (row {i}), "
            f"model {m.model_ids[j]!r} (col {j}): {m.stderrs[i, j]}"
        )
    return m


def make_score_matrix(
    benchmark_ids: Iterable[str],
    model_ids: Iterable[str],
    scores,
    stderrs,
    n_items: Iterable[int | None] | None = None,
    direction: Iterable[str] | str = HIGHER,
) -> ScoreMatrix:
    """Assemble and validate a :class:`ScoreMatrix`.

    Identifiers are whitespace-trimmed (case preserved); ``direction`` may
    be a single flag applied to every benchmark; ``n_items`` defaults to
    unknown for every benchmark.
    """
    bids = tuple(str(b).strip() for b in benchmark_ids)
    mids = tuple(str(m).strip() for m in model_ids)
    if isinstance(direction, str):
        dirs = (direction,) * len(bids)
    else:
        dirs = tuple(direction)
    items = tuple(None for _ in bids) if n_items is None else tuple(n_items)
    m = ScoreMatrix(
        benchmark_ids=bids,
        model_ids=mids,
        scores=_locked(scores, float),
        stderrs=_locked(stderrs, float),
        n_items=items,
        direction=dirs,
    )
    return validate_score_matrix(m)


def oriented_scores(m: ScoreMatrix, benchmark_id: str) -> np.ndarray:
    """Scores for one benchmark with "greater means better" orientation.

    Lower-is-better rows (perplexity, BPB) come back negated so that every
    downstream comparison can assume a common direction.  Standard errors
    are unaffected by orientation.
    """
    i = m.benchmark_index(benchmark_id)
    row = np.array(m.scores[i], dtype=float)
    if m.direction[i] == LOWER:
        row = -row
    return row
