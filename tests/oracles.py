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
from fractions import Fraction
from itertools import combinations
from typing import Hashable

import numpy as np

from benchrank.alignment import PartialOrder
from benchrank.core import CATEGORIES, DEGENERATE, BenchmarkRecord, Degenerate, ScoreMatrix
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


def _oriented(m: ScoreMatrix, b: str, models) -> tuple[list[float], list[float]]:
    """Benchmark ``b``'s scores, negated on a lower-is-better row, and its stderrs, listed in ``models``' order."""
    i = m.benchmark_ids.index(b)
    sign = -1.0 if m.direction[i] == "lower" else 1.0
    cols = [m.model_ids.index(mod) for mod in models]
    return [sign * float(m.scores[i, j]) for j in cols], [float(m.stderrs[i, j]) for j in cols]


def _fsum_mean(cells) -> tuple[float | None, int]:
    """``math.fsum`` mean of the non-degenerate cells (None if there is none) and the number of degenerate ones."""
    kept = [c for c in cells if c is not DEGENERATE]
    return (math.fsum(kept) / len(kept) if kept else None), len(cells) - len(kept)


def report_means_oracle(matrices: dict[str, ScoreMatrix], categories: list[BenchmarkRecord]) -> dict[str, dict]:
    """The fields of ``report``'s ``mean_agreement`` and ``category_agreement`` artifacts, by kind.

    ``matrices`` maps each mode to its parsed score matrix.  The first
    matrix's benchmark and model order is the tables' order; the others are
    read by id.  ``categories`` lists the category records in file order,
    which is the order of the perplexity block.  Every agreement cell is
    :func:`taub_oracle` at zero stderrs on scores negated on lower-is-better
    rows, and every mean is a ``math.fsum`` mean of the defined cells.
    """
    first = next(iter(matrices.values()))
    bench, models = list(first.benchmark_ids), list(first.model_ids)
    nb, zeros, cfg = len(bench), [0.0] * len(models), SignificanceConfig()
    cat_of = {rec.benchmark_id: rec.category for rec in categories}
    ppl = [bench.index(rec.benchmark_id) for rec in categories if rec.category == "PPL" and rec.benchmark_id in bench]
    down = [i for i in range(nb) if i not in ppl]
    present = [c for c in CATEGORIES if any(cat_of[b] == c for b in bench)]
    members = {c: [i for i in range(nb) if cat_of[bench[i]] == c] for c in present}
    means, blocks, cats = {}, {}, {}
    for name, m in matrices.items():
        rows = [_oriented(m, b, models)[0] for b in bench]
        tau = {}
        for i in range(nb):
            for j in range(i + 1, nb):
                tau[i, j] = tau[j, i] = taub_oracle(rows[i], zeros, rows[j], zeros, cfg)
        per_row = [_fsum_mean([tau[i, j] for j in range(nb) if j != i]) for i in range(nb)]
        means[name] = {
            "means": [mean for mean, _ in per_row],
            "n_excluded": [k for _, k in per_row],
            "overall_mean": _fsum_mean([tau[i, j] for i in range(nb) for j in range(i + 1, nb)])[0],
        }
        cross = [(i, j) for i in ppl for j in down]
        blocks[name] = {
            "ppl_benchmarks": [bench[i] for i in ppl],
            "ppl_vs_ppl_mean": _fsum_mean([tau[i, j] for i, j in combinations(ppl, 2)])[0],
            "ppl_vs_downstream_mean": _fsum_mean([tau[i, j] for i, j in cross])[0],
            "pairs": [
                {"ppl": bench[i], "benchmark": bench[j], "tau": None if tau[i, j] is DEGENERATE else tau[i, j]}
                for i, j in cross
            ],
        }
        table = [
            [
                _fsum_mean(
                    [tau[i, j] for i, j in combinations(members[c1], 2)]
                    if c1 == c2
                    else [tau[i, j] for i in members[c1] for j in members[c2]]
                )
                for c2 in present
            ]
            for c1 in present
        ]
        cats[name] = {
            "values": [[mean for mean, _ in row] for row in table],
            "n_excluded": [[k for _, k in row] for row in table],
        }
    return {
        "mean_agreement": {"benchmark_ids": bench, "modes": means, "perplexity_block": blocks if ppl else None},
        "category_agreement": {"categories": present, "modes": cats},
    }


#: Relative gap (lambda_0 - lambda_1) / lambda_0 at or below which :func:`pca_oracle` calls the top eigenvalue tied.
TIED_GAP = 1e-9


def pca_oracle(m: ScoreMatrix, model_ids) -> dict:
    """``fit_pca(m, "center")`` by an SVD of the centred data, not ``eigh`` of its covariance.

    The data are models, in ``model_ids``' order, by benchmarks, each
    benchmark centred on its ``math.fsum`` mean.  With singular values s
    and left singular vectors u, the eigenvalues are s^2 / (n_models - 1),
    zero-padded to one per benchmark, and the ratios are each over their
    ``math.fsum``.  ``means`` are the models' mean scores less their
    average, computed exactly in fractions and then rounded, so they are
    all 0 exactly when every model has the same mean.  ``pc1`` is
    s_0 u_0, signed so that it correlates non-negatively with ``means``;
    ``anchor`` is the cosine between u_0 and them, so near 0 the program's
    sign comes from rounding noise or its first nonzero loading, which the
    oracle does not decide.  Where ``means`` are all 0, ``anchor`` is 0 and
    pc1 is signed so that ``lead``, its first loading, is non-negative.  ``gap``
    is the relative gap of the top eigenvalue; at or below ``TIED_GAP``
    there is no single first component, and ``pc1_space`` holds the left
    singular vectors of every eigenvalue tied with the top one, as columns.
    """
    nb, nm = m.scores.shape
    rows = [[float(row[m.model_ids.index(mod)]) for mod in model_ids] for row in m.scores]
    x = np.array([[v - math.fsum(row) / nm for v in row] for row in rows]).T
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    lam = [float(v) ** 2 / (nm - 1) for v in s] + [0.0] * (nb - len(s))
    total = math.fsum(lam)
    evr = [v / total for v in lam]
    exact = [sum(map(Fraction, col)) / nb for col in zip(*rows)]
    means = [float(v - sum(exact) / nm) for v in exact]
    anchor = float(u[:, 0] @ means) / (math.hypot(*means) or 1.0)
    lead = float(vt[0, 0])
    sign = -1.0 if anchor < 0.0 or (not any(means) and lead < 0.0) else 1.0
    gap = (lam[0] - lam[1]) / lam[0]
    tied = [k for k in range(len(s)) if (lam[0] - lam[k]) / lam[0] <= TIED_GAP]
    return {
        "eigenvalues": lam,
        "explained_variance_ratio": evr,
        "top5_share": math.fsum(evr[:5]),
        "pc1": (sign * float(s[0]) * u[:, 0]).tolist(),
        "means": means,
        "anchor": anchor,
        "lead": sign * lead,
        "gap": gap,
        "pc1_space": u[:, tied],
    }


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


def agree_oracle(m: ScoreMatrix, method: str, cfg: SignificanceConfig) -> dict:
    """The fields of ``agree``'s artifact after ``method`` and ``alpha``, from one oracle call per cell.

    A cell is :func:`tau_oracle` under ``"tau"`` and :func:`taub_oracle` on
    the stderrs under ``"tau-b"``, on scores negated on lower-is-better
    rows; a degenerate cell is None.  A benchmark's ``mean`` is the
    ``math.fsum`` mean of its defined off-diagonal cells, None when it has
    none, where ``agree`` exits 3.
    """
    bench, nb = list(m.benchmark_ids), m.n_benchmarks
    rows = [_oriented(m, b, m.model_ids) for b in bench]
    tau = {}
    for i, j in combinations(range(nb), 2):
        (x, se_x), (y, se_y) = rows[i], rows[j]
        cell = tau_oracle(x, y) if method == "tau" else taub_oracle(x, se_x, y, se_y, cfg)
        tau[i, j] = tau[j, i] = cell
    tau.update(((i, i), 1.0) for i in range(nb))
    per_row = [_fsum_mean([tau[i, j] for j in range(nb) if j != i]) for i in range(nb)]
    return {
        "benchmark_ids": bench,
        "values": [[None if tau[i, j] is DEGENERATE else tau[i, j] for j in range(nb)] for i in range(nb)],
        "n_degenerate_cells": sum(tau[i, j] is DEGENERATE for i, j in combinations(range(nb), 2)),
        "mean_agreement": [{"benchmark": b, "mean": mean, "n_excluded": k} for b, (mean, k) in zip(bench, per_row)],
    }


def alignment_table_oracle(m: ScoreMatrix, bench_a: str, bench_b: str, models) -> dict:
    """One table of ``alignment.json`` for benchmarks ``bench_a`` and ``bench_b`` of ``m``, without its mode.

    Each partial order comes from :class:`PartialOrder.from_edges` on the
    pairs that pass the oracle z-test at the default alpha on oriented
    scores; :func:`greedy_oracle` aligns the two over ``models``, and the
    crossings are counted by a loop over every model pair.
    """
    cfg, n = SignificanceConfig(), len(models)
    tasks = []
    for b in (bench_a, bench_b):
        s, e = _oriented(m, b, models)
        edges = {
            (models[i], models[j]) if s[i] > s[j] else (models[j], models[i])
            for i, j in combinations(range(n), 2)
            if _oracle_significant(s[i], e[i], s[j], e[j], cfg.critical_z)
        }
        tasks.append((PartialOrder.from_edges(models, edges), s))
    (g1, s1), (g2, s2) = tasks
    order1, order2 = greedy_oracle(models, g1, g2, s1, s2)
    rank1 = {mod: k + 1 for k, mod in enumerate(order1)}
    rank2 = {mod: k + 1 for k, mod in enumerate(order2)}
    ia, ib = m.benchmark_ids.index(bench_a), m.benchmark_ids.index(bench_b)
    rows = []
    for mod in order1:
        j = m.model_ids.index(mod)
        rows.append({
            "model": mod,
            "rank1": rank1[mod],
            "rank2": rank2[mod],
            "score1": float(m.scores[ia, j]),
            "stderr1": float(m.stderrs[ia, j]),
            "score2": float(m.scores[ib, j]),
            "stderr2": float(m.stderrs[ib, j]),
        })
    crossings = sum((rank1[a] < rank1[b]) != (rank2[a] < rank2[b]) for a, b in combinations(models, 2))
    return {"benchmark_a": bench_a, "benchmark_b": bench_b, "crossings": crossings, "models": rows}


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


def json_artifact(payload) -> str:
    """Artifact text as the stdlib lays it out: ``json.dumps`` at ``indent=2``, NaN and infinities refused."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
