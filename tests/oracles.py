"""Brute-force reference implementations for the test suite.

Everything here is deliberately independent of the main modules: explicit
pair loops, textbook formulas, exhaustive enumeration, one seed object per
simulated cell.  The only shared pieces are plain data types (significance
configuration, partial orders, the simulator's configuration).  Runtimes
are bounded by hard instance-size caps or by the caller's instance sizes;
none of this is meant to be fast.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Hashable

import numpy as np

from benchrank.alignment import PartialOrder
from benchrank.core import DEGENERATE, Degenerate, ScoreMatrix
from benchrank.io import FORMAT_VERSION, SCORE_CSV_HEADER, RunManifest
from benchrank.rankstats import SignificanceConfig
from benchrank.synth import SyntheticConfig


def tau_oracle(x, y) -> float:
    """Kendall's tau by explicit double loop over all pairs. No ties allowed."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    if n != len(y):
        raise ValueError("length mismatch")
    if not 2 <= n <= 12:
        raise ValueError(f"oracle limited to 2 <= n <= 12, got {n}")
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j] or y[i] == y[j]:
                raise ValueError("tie encountered; tau oracle requires tie-free input")
            if (x[i] > x[j]) == (y[i] > y[j]):
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) // 2)


def _oracle_significant(s1: float, se1: float, s2: float, se2: float, critical_z: float) -> bool:
    denom = math.sqrt(se1 * se1 + se2 * se2)
    if denom == 0.0:
        return s1 != s2
    return abs(s1 - s2) / denom > critical_z


def taub_oracle(x, se_x, y, se_y, cfg: SignificanceConfig) -> float | Degenerate:
    """Textbook tau-b from integer pair counts, significance ties included."""
    x = [float(v) for v in x]
    se_x = [float(v) for v in se_x]
    y = [float(v) for v in y]
    se_y = [float(v) for v in se_y]
    n = len(x)
    if not 2 <= n <= 12:
        raise ValueError(f"oracle limited to 2 <= n <= 12, got {n}")
    c = d = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            tie_x = not _oracle_significant(x[i], se_x[i], x[j], se_x[j], cfg.critical_z)
            tie_y = not _oracle_significant(y[i], se_y[i], y[j], se_y[j], cfg.critical_z)
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
        return DEGENERATE
    return (c - d) / math.sqrt((c + d + tx) * (c + d + ty))


def _linear_extensions(model_ids: tuple[Hashable, ...], edges) -> list[tuple[Hashable, ...]]:
    succ = {m: [] for m in model_ids}
    indeg = {m: 0 for m in model_ids}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    out: list[tuple[Hashable, ...]] = []
    prefix: list[Hashable] = []

    def recurse():
        ready = sorted(m for m, k in indeg.items() if k == 0 and m not in placed)
        if not ready and len(prefix) < len(model_ids):
            raise ValueError("cyclic graph: no linear extension exists")
        if len(prefix) == len(model_ids):
            out.append(tuple(prefix))
            return
        for m in ready:
            placed.add(m)
            prefix.append(m)
            for b in succ[m]:
                indeg[b] -= 1
            recurse()
            for b in succ[m]:
                indeg[b] += 1
            prefix.pop()
            placed.discard(m)

    placed: set[Hashable] = set()
    recurse()
    return out


_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def alignment_oracle(g1: PartialOrder, g2: PartialOrder) -> int:
    """Minimum crossing count over all pairs of linear extensions.

    Enumerates every linear extension of both partial orders and takes the
    minimum number of discordantly ordered model pairs.  Refuses more than
    6 models (an empty order on 6 already has 720 extensions).
    """
    if set(g1.model_ids) != set(g2.model_ids):
        raise ValueError("partial orders must cover the same model set")
    n = g1.n_models
    if n > 6:
        raise ValueError(f"alignment oracle limited to n <= 6, got {n}")
    if n < 2:
        return 0
    models = tuple(sorted(g1.model_ids))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def codes(po: PartialOrder) -> np.ndarray:
        exts = _linear_extensions(models, po.edges)
        packed = np.empty(len(exts), dtype=np.uint16)
        for e, ext in enumerate(exts):
            pos = {m: k for k, m in enumerate(ext)}
            bits = 0
            for bit, (i, j) in enumerate(pairs):
                if pos[models[i]] < pos[models[j]]:
                    bits |= 1 << bit
            packed[e] = bits
        return packed

    c1 = codes(g1)
    c2 = codes(g2)
    diff = _POPCOUNT[np.bitwise_xor(c1[:, None], c2[None, :])]
    return int(diff.min())


def _oracle_vanilla_ranks(scores, models) -> dict[Hashable, int]:
    order = sorted(range(len(models)), key=lambda k: (-float(scores[k]), models[k]))
    return {models[k]: r + 1 for r, k in enumerate(order)}


class _OracleFrontier:
    def __init__(self, po: PartialOrder):
        self.succ: dict[Hashable, list[Hashable]] = {m: [] for m in po.model_ids}
        self.indeg: dict[Hashable, int] = {m: 0 for m in po.model_ids}
        for a, b in po.edges:
            if a not in self.indeg or b not in self.indeg:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown model")
            self.succ[a].append(b)
            self.indeg[b] += 1
        self.available = {m for m, d in self.indeg.items() if d == 0}

    def remove(self, m: Hashable) -> None:
        self.available.discard(m)
        for b in self.succ[m]:
            self.indeg[b] -= 1
            if self.indeg[b] == 0:
                self.available.add(b)
        del self.succ[m]


def greedy_oracle(
    models, g1: PartialOrder, g2: PartialOrder, score1, score2
) -> tuple[tuple[Hashable, ...], tuple[Hashable, ...]]:
    """Parallel greedy alignment by scanning every frontier pair at every step.

    Same cost tuple as ``alignment.parallel_greedy_rank`` (penalty, mismatch,
    vanilla rank sum, id pair), minimised over all |F1| * |F2| pairs; reads
    the partial orders through their ``edges`` only.
    """
    models = tuple(models)
    if set(models) != set(g1.model_ids) or set(models) != set(g2.model_ids):
        raise ValueError("both partial orders must cover exactly the given model set")
    vr1 = _oracle_vanilla_ranks(score1, models)
    vr2 = _oracle_vanilla_ranks(score2, models)
    f1, f2 = _OracleFrontier(g1), _OracleFrontier(g2)
    order1: list[Hashable] = []
    order2: list[Hashable] = []
    placed1: set[Hashable] = set()
    placed2: set[Hashable] = set()
    for _ in range(len(models)):
        if not f1.available or not f2.available:
            raise ValueError("cyclic partial order: frontier exhausted before all models placed")
        best = None
        best_pair = None
        for m1 in f1.available:
            for m2 in f2.available:
                penalty = 0
                if m1 != m2:
                    penalty = (m1 not in placed2) + (m2 not in placed1)
                cost = (penalty, int(m1 != m2), vr2[m1] + vr1[m2], (m1, m2))
                if best is None or cost < best:
                    best = cost
                    best_pair = (m1, m2)
        m1, m2 = best_pair
        order1.append(m1)
        order2.append(m2)
        placed1.add(m1)
        placed2.add(m2)
        f1.remove(m1)
        f2.remove(m2)
    return tuple(order1), tuple(order2)


def eig2_oracle(cov) -> tuple[float, float]:
    """Closed-form eigenvalues of a symmetric 2x2 matrix, sorted descending."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {cov.shape}")
    if cov[0, 1] != cov[1, 0]:
        raise ValueError("matrix is not symmetric")
    a, b, d = cov[0, 0], cov[0, 1], cov[1, 1]
    half_trace = (a + d) / 2.0
    radius = math.sqrt(((a - d) / 2.0) ** 2 + b * b)
    return (half_trace + radius, half_trace - radius)


def _oracle_logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _oracle_cell_streams(seed: int, i: int, j: int) -> tuple[np.random.Generator, np.random.Generator]:
    prep_ss, binom_ss = np.random.SeedSequence(seed, spawn_key=(i, j)).spawn(2)
    return np.random.Generator(np.random.PCG64(prep_ss)), np.random.Generator(np.random.PCG64(binom_ss))


def generate_oracle(cfg: SyntheticConfig, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Simulated (scores, stderrs) with three ``SeedSequence`` objects per cell.

    The per-cell loop of ``synth.generate`` before its seeds were derived
    in one vectorised pass: cell (i, j) spawns two children of
    ``SeedSequence(seed, spawn_key=(i, j))`` and draws the preparation
    offset from the first and the binomial from the second.  Reads the
    config only through its per-benchmark and per-model accessors.
    """
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
            prep_rng, binom_rng = _oracle_cell_streams(cfg.seed, i, j)
            prep = cfg.prep_sd * prep_rng.standard_normal()
            logit = a[i] * g[j] + b[i] + prep * prep_scale + (0.0 if direct else delta[i])
            q = _oracle_logistic(logit)
            score = binom_rng.binomial(int(items[i]), q) / items[i]
            scores[i, j] = score
            stderrs[i, j] = math.sqrt(score * (1.0 - score) / items[i])
    return scores, stderrs


def render_scores_csv_oracle(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    """A long score CSV written one ``csv.writer`` row per cell, without the writer's id checks."""
    buf = io.StringIO()
    buf.write(f"# format_version: {FORMAT_VERSION}\n")
    if manifest is not None:
        buf.write("# manifest: " + json.dumps(manifest.to_dict(), separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    for i, b in enumerate(m.benchmark_ids):
        n = "" if m.n_items[i] is None else str(m.n_items[i])
        for j, mod in enumerate(m.model_ids):
            writer.writerow([b, mod, repr(float(m.scores[i, j])), repr(float(m.stderrs[i, j])), n, m.direction[i]])
    return buf.getvalue()
