"""Correctness checks on workload artifacts, written without ``benchrank``'s code.

Every recount here works from the input files or the artifact text with
plain loops or elementwise ``numpy`` arithmetic.  Pair counts are
integers, so the recounted agreement cells and crossing counts must match
the program's exactly; only the eigen-decomposition checks carry a
tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

EVR_SUM_TOL = 1e-12
#: Bound on ||C V - V L|| / ||C|| and on ||V^T V - I||; the program's
#: Jacobi solver stops at an off-diagonal norm of 1e-12.
EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Table:
    """A score matrix as read back from a file: benchmark rows, model columns."""

    benchmark_ids: tuple[str, ...]
    model_ids: tuple[str, ...]
    scores: np.ndarray
    stderrs: np.ndarray
    direction: tuple[str, ...]

    def oriented(self, benchmark: str) -> tuple[np.ndarray, np.ndarray]:
        """Scores with greater meaning better, and their standard errors."""
        i = self.benchmark_ids.index(benchmark)
        sign = -1.0 if self.direction[i] == "lower" else 1.0
        return sign * self.scores[i], self.stderrs[i]


def read_table(path: Path) -> Table:
    """Read a long-CSV or canonical-JSON score file."""
    if path.suffix == ".json":
        p = json.loads(path.read_text(encoding="utf-8"))
        return Table(
            tuple(p["benchmark_ids"]),
            tuple(p["model_ids"]),
            np.array(p["scores"], dtype=float),
            np.array(p["stderrs"], dtype=float),
            tuple(p["direction"]),
        )
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))[1:]
    benchmarks = list(dict.fromkeys(r[0] for r in rows))
    models = list(dict.fromkeys(r[1] for r in rows))
    bi = {b: i for i, b in enumerate(benchmarks)}
    mi = {m: j for j, m in enumerate(models)}
    scores = np.full((len(benchmarks), len(models)), np.nan)
    stderrs = np.full_like(scores, np.nan)
    direction = {}
    for b, m, s, se, _n, d in rows:
        scores[bi[b], mi[m]] = float(s)
        stderrs[bi[b], mi[m]] = float(se)
        direction[b] = d
    return Table(tuple(benchmarks), tuple(models), scores, stderrs, tuple(direction[b] for b in benchmarks))


def critical_z(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _significant(s1: float, se1: float, s2: float, se2: float, z: float) -> bool:
    denom = math.sqrt(se1 * se1 + se2 * se2)
    if denom == 0.0:
        return s1 != s2
    return abs(s1 - s2) / denom > z


def taub_recount(x, sx, y, sy, z: float) -> float | None:
    """Tau-b from an explicit pair loop over integer counts; None when undefined."""
    x, sx, y, sy = (list(map(float, v)) for v in (x, sx, y, sy))
    c = d = tx = ty = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            tie_x = not _significant(x[i], sx[i], x[j], sx[j], z)
            tie_y = not _significant(y[i], sy[i], y[j], sy[j], z)
            if tie_x and tie_y:
                continue
            if tie_x:
                tx += 1
            elif tie_y:
                ty += 1
            elif (x[i] > x[j]) == (y[i] > y[j]):
                c += 1
            else:
                d += 1
    if c + d + tx == 0 or c + d + ty == 0:
        return None
    return (c - d) / math.sqrt((c + d + tx) * (c + d + ty))


def check_agreement_cells(artifact: dict, table: Table, pairs) -> list[str]:
    """Recount the listed benchmark pairs of an ``agree`` artifact."""
    z = critical_z(artifact["alpha"])
    ids = artifact["benchmark_ids"]
    errors = []
    for a, b in pairs:
        x, sx = table.oriented(a)
        y, sy = table.oriented(b)
        want = taub_recount(x, sx, y, sy, z)
        got = artifact["values"][ids.index(a)][ids.index(b)]
        if got != want:
            errors.append(f"agreement cell ({a}, {b}) is {got!r}, recount gives {want!r}")
    return errors


def significance_matrix(s: np.ndarray, se: np.ndarray, z: float) -> np.ndarray:
    """sig[u, v]: the z-test separates models u and v (same arithmetic as the scalar test)."""
    diff = np.abs(s[:, None] - s[None, :])
    denom = np.sqrt(se[:, None] * se[:, None] + se[None, :] * se[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, s[:, None] != s[None, :], diff / denom > z)


def _ranks(rows, key: str, n: int) -> np.ndarray | None:
    r = np.array([row[key] for row in rows], dtype=np.int64)
    return r if sorted(r.tolist()) == list(range(1, n + 1)) else None


def check_alignment_table(tbl: dict, table_a: Table, table_b: Table, z: float) -> list[str]:
    """Linear-extension and crossing checks for one aligned table.

    ``table_a``/``table_b`` are the input files the table's two tasks were
    read from; the artifact's raw scores must match them cell for cell.
    """
    where = f"alignment {tbl['benchmark_a']}:{tbl['benchmark_b']}"
    rows = tbl["models"]
    models = [row["model"] for row in rows]
    if sorted(models) != sorted(table_a.model_ids):
        return [f"{where}: model set differs from the input"]
    errors = []
    col_a = [table_a.model_ids.index(m) for m in models]
    col_b = [table_b.model_ids.index(m) for m in models]
    ranks = []
    for side, bench, tab, col in (("1", tbl["benchmark_a"], table_a, col_a), ("2", tbl["benchmark_b"], table_b, col_b)):
        i = tab.benchmark_ids.index(bench)
        raw = np.array([row["score" + side] for row in rows])
        raw_se = np.array([row["stderr" + side] for row in rows])
        if not (np.array_equal(raw, tab.scores[i, col]) and np.array_equal(raw_se, tab.stderrs[i, col])):
            errors.append(f"{where}: task {side} scores differ from the input file")
        s, se = tab.oriented(bench)
        s, se = s[col], se[col]
        rank = _ranks(rows, "rank" + side, len(rows))
        if rank is None:
            errors.append(f"{where}: rank{side} is not a permutation of 1..{len(rows)}")
            continue
        ranks.append(rank)
        above = significance_matrix(s, se, z) & (s[:, None] > s[None, :])
        if (above & (rank[:, None] > rank[None, :])).any():
            errors.append(f"{where}: order {side} is not a linear extension of its partial order")
    if len(ranks) == 2:
        r1, r2 = ranks
        crossed = int(np.triu((r1[:, None] - r1[None, :]) * (r2[:, None] - r2[None, :]) < 0, 1).sum())
        if crossed != tbl["crossings"]:
            errors.append(f"{where}: crossings is {tbl['crossings']}, recount gives {crossed}")
    return errors


def check_evr(artifact: dict) -> list[str]:
    total = math.fsum(artifact["explained_variance_ratio"])
    if abs(total - 1.0) > EVR_SUM_TOL:
        return [f"explained variance ratios sum to {total!r}, not 1"]
    return []


def covariance(scores: np.ndarray, preprocessing: str) -> np.ndarray:
    """Benchmark covariance of a benchmarks-by-models score array (n-1 divisor)."""
    x = scores.T - scores.T.mean(axis=0)
    if preprocessing == "zscore":
        x = x / scores.std(axis=1, ddof=1)
    return x.T @ x / (x.shape[0] - 1)


def eig_residual(cov: np.ndarray, vectors: np.ndarray, values: np.ndarray) -> float:
    """max(||C V - V L|| / ||C||, ||V^T V - I||), Frobenius norms."""
    fit = np.linalg.norm(cov @ vectors - vectors * values) / np.linalg.norm(cov)
    ortho = np.linalg.norm(vectors.T @ vectors - np.eye(vectors.shape[1]))
    return float(max(fit, ortho))


def check_reload(path: Path, scores: np.ndarray, stderrs: np.ndarray) -> list[str]:
    """A simulated score file must read back to exactly the generated matrix."""
    t = read_table(path)
    if t.scores.shape != scores.shape or not (np.array_equal(t.scores, scores) and np.array_equal(t.stderrs, stderrs)):
        return [f"{path.name} does not reload to the generated matrix"]
    return []
