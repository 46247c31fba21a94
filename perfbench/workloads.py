"""The workloads: their inputs, the CLI calls that make up one op, and their checks.

Each workload is a closed loop with one client: an op is a fixed sequence
of ``benchrank.cli.run_cli`` calls, and the next op starts when the last
call of the previous one returns.  The hot spots sit in different
modules, so one workload cannot show them all:

* ``report-paper`` is the paper's own use (61 models x 24 benchmarks);
  the tau-b agreement matrices in ``rankstats`` dominate it.
* ``align-tall`` is leaderboard-shaped (600 models, noisy scores); the
  partial-order pair loop and the wide-frontier greedy aligner in
  ``alignment`` dominate it, and ``io.load_scores`` is next.
* ``sim-pca-wide`` writes its inputs with the simulator and reads them
  back (60 models x 80 benchmarks); ``lowrank``'s eigensolver and
  ``synth``'s per-cell generator dominate it.

A check runs on the artifacts of a run's first (reference) op, outside
the timed region, and may use the results of the program calls that op
made (captured by :class:`tracing.Tracer`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate
from inputs import SYNTH_ITEMS, Shape, write_inputs, write_synth_config

REPORT_FILES = ("mean_agreement.json", "category_agreement.json", "evr.json", "pc1_compute.json", "alignment.json")


@dataclass(frozen=True)
class Prepared:
    """A workload set up in one directory, ready to run ops."""

    calls: tuple[tuple[str, ...], ...]
    artifacts: tuple[Path, ...]
    #: checks the reference op's artifacts, given the program calls it made
    check: Callable[[list], list[str]]
    shape: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int, bool], Prepared]


def _results(calls: list, key: str) -> list:
    return [(args, kwargs, result) for k, args, kwargs, result in calls if k == key]


def eig_residuals(calls: list) -> list[float]:
    """Residual of every ``fit_pca`` result against a covariance computed here."""
    out = []
    for args, kwargs, res in _results(calls, "benchrank.cli.fit_pca"):
        preprocessing = args[1] if len(args) > 1 else kwargs.get("preprocessing", "center")
        cov = gate.covariance(np.asarray(args[0].scores), preprocessing)
        out.append(gate.eig_residual(cov, np.asarray(res.components), np.asarray(res.eigenvalues)))
    return out


def _eig_errors(calls: list) -> list[str]:
    return [
        f"eigen-decomposition residual {r:.3g} exceeds {gate.EIG_RESIDUAL_TOL:g}"
        for r in eig_residuals(calls)
        if not r <= gate.EIG_RESIDUAL_TOL
    ]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def prepare_report_paper(work: Path, seed: int, small: bool) -> Prepared:
    shape = Shape(12, 9, 3, 100, 5000, 2) if small else Shape(61, 24, 3, 100, 5000, 4)
    inp = write_inputs(work / "inputs", shape, seed)
    ids, ppl = inp.benchmark_ids, inp.ppl_ids
    out = work / "out"
    report_dir = out / "report"
    agree = out / "agree.json"
    report = (
        "report",
        "--scores-direct", str(inp.scores_direct),
        "--scores-tbt", str(inp.scores_tbt),
        "--categories", str(inp.categories),
        "--models", str(inp.models),
        "--out-dir", str(report_dir),
        "--align-pair", f"{ids[0]}:{ids[1]}",
        "--align-pair", f"{ppl[0]}:{ids[2]}",
    )
    calls = (report, ("agree", "--scores", str(inp.scores_direct), "--method", "tau-b", "--alpha", "0.05", "--out", str(agree)))
    cells = [(ids[0], ids[1]), (ppl[0], ids[2]), (ppl[0], ppl[1]), (ids[3], ppl[-1])]

    def check(calls_made: list) -> list[str]:
        direct, tbt = gate.read_table(inp.scores_direct), gate.read_table(inp.scores_tbt)
        errors = gate.check_agreement_cells(_load(agree), direct, cells)
        aligned = _load(report_dir / "alignment.json")
        z = gate.critical_z(aligned["alpha"])
        for tbl in aligned["tables"]:
            table = direct if tbl["mode"] == "direct" else tbt
            errors += gate.check_alignment_table(tbl, table, table, z)
        for mode in _load(report_dir / "evr.json")["modes"].values():
            errors += gate.check_evr(mode)
        return errors + _eig_errors(calls_made)

    return Prepared(calls, tuple(report_dir / f for f in REPORT_FILES) + (agree,), check, shape.describe())


def prepare_align_tall(work: Path, seed: int, small: bool) -> Prepared:
    shape = Shape(40, 4, 0, 80, 120, 2) if small else Shape(600, 16, 0, 80, 120, 10)
    inp = write_inputs(work / "inputs", shape, seed)
    ids = inp.benchmark_ids
    out = work / "out" / "align.json"
    calls = ((
        "align",
        "--scores-a", str(inp.scores_direct),
        "--scores-b", str(inp.scores_tbt),
        "--benchmark-a", ids[0],
        "--benchmark-b", ids[1],
        "--out", str(out),
    ),)

    def check(calls_made: list) -> list[str]:
        art = _load(out)
        direct, tbt = gate.read_table(inp.scores_direct), gate.read_table(inp.scores_tbt)
        return gate.check_alignment_table(art["tables"][0], direct, tbt, gate.critical_z(art["alpha"]))

    return Prepared(calls, (out,), check, shape.describe())


def prepare_sim_pca_wide(work: Path, seed: int, small: bool) -> Prepared:
    n_models, n_benchmarks = (10, 6) if small else (60, 80)
    config = work / "inputs" / "synth.json"
    write_synth_config(config, n_models, n_benchmarks, seed)
    out = work / "out"
    sim = {"direct": out / "sim_direct.csv", "train_before_test": out / "sim_tbt.json"}
    pca = {"center": out / "pca_center.json", "zscore": out / "pca_zscore.json"}
    calls = (
        ("simulate", "--config", str(config), "--mode", "direct", "--out", str(sim["direct"])),
        ("simulate", "--config", str(config), "--mode", "tbt", "--out", str(sim["train_before_test"])),
        ("pca", "--scores", str(sim["direct"]), "--preprocess", "center", "--out", str(pca["center"])),
        ("pca", "--scores", str(sim["train_before_test"]), "--preprocess", "zscore", "--out", str(pca["zscore"])),
    )

    def check(calls_made: list) -> list[str]:
        errors = []
        for args, _kwargs, m in _results(calls_made, "benchrank.cli.generate"):
            errors += gate.check_reload(sim[args[1]], np.asarray(m.scores), np.asarray(m.stderrs))
        for path in pca.values():
            errors += gate.check_evr(_load(path))
        return errors + _eig_errors(calls_made)

    shape = {"models": n_models, "benchmarks": n_benchmarks, "n_items": list(SYNTH_ITEMS)}
    return Prepared(calls, tuple(sim.values()) + tuple(pca.values()), check, shape)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-paper", "the paper's use: report plus tau-b agree at 61x24; rankstats dominates", prepare_report_paper),
        Workload("align-tall", "leaderboard shape 600x16 with noisy scores; alignment and io.load_scores dominate", prepare_align_tall),
        Workload("sim-pca-wide", "simulate to CSV and JSON, then PCA at 60x80; lowrank and synth dominate", prepare_sim_pca_wide),
    )
}
