"""Smoke tests for the benchmark: every workload at a small shape, and the checks
catching corrupted artifacts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=150,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_traced_run_passes_its_checks(name):
    result = _result(_run("--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", "1", "--small"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert result["metrics"]["trace.absent"]["value"] == 0
    # each traced op's shares sum to 100; their medians do so only roughly
    shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".share"))
    assert shares == pytest.approx(100.0, abs=5.0)


def test_small_untraced_run_prints_the_end_to_end_metrics():
    result = _result(_run("--workload", "align-tall", "--seed", "7", "--seconds", "0.5", "--trace", "0", "--small"))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    proc = _run("--workload", "report-paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_factor_averages_the_samples_inside_the_interval():
    ref = probe.REF_KERNEL_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)]
    assert probe.speed_factor(samples, 1.0, 3.0) == pytest.approx(0.5)
    assert probe.speed_factor(samples, 0.0, 4.0) == pytest.approx(1 / 1.5)
    # no sample inside: the one nearest the middle of the interval
    assert probe.speed_factor(samples, 2.9, 2.95) == pytest.approx(1.0)
    assert probe.speed_factor(samples, 9.0, 9.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        probe.speed_factor([], 0.0, 1.0)


def test_tracer_reports_a_vanished_target_as_absent(monkeypatch):
    cli = worker.import_cli()
    original = cli.agreement_matrix
    monkeypatch.delattr(cli, "crossing_count")
    tracer = Tracer()
    with tracer:
        assert tracer.absent == ["benchrank.cli.crossing_count"]
        assert cli.agreement_matrix is not original
    assert cli.agreement_matrix is original


def _json_edit(edit):
    def apply(path: Path) -> None:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload, indent=2) + "\n")

    return apply


def _swap_top_and_bottom(payload: dict) -> None:
    rows = payload["tables"][0]["models"]
    top = min(rows, key=lambda r: r["rank1"])
    bottom = max(rows, key=lambda r: r["rank1"])
    top["rank1"], bottom["rank1"] = bottom["rank1"], top["rank1"]


def _bump_agreement_cell(payload: dict) -> None:
    payload["values"][0][1] += 0.25


def _bump_crossings(payload: dict) -> None:
    payload["tables"][0]["crossings"] += 1


def _bump_evr(payload: dict) -> None:
    payload["explained_variance_ratio"][0] += 1e-6


def _bump_csv_score(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("benchmark,")) + 1
    fields = lines[i].split(",")
    fields[2] = repr(float(fields[2]) + 0.001)
    lines[i] = ",".join(fields)
    path.write_text("".join(lines))


CORRUPTIONS = [
    ("report-paper", "agree.json", _json_edit(_bump_agreement_cell)),
    ("report-paper", "alignment.json", _json_edit(_swap_top_and_bottom)),
    ("align-tall", "align.json", _json_edit(_bump_crossings)),
    ("sim-pca-wide", "pca_center.json", _json_edit(_bump_evr)),
    ("sim-pca-wide", "sim_direct.csv", _bump_csv_score),
]


@pytest.mark.parametrize("name,artifact,corrupt", CORRUPTIONS)
def test_checks_catch_a_corrupted_artifact(tmp_path, name, artifact, corrupt):
    cli = worker.import_cli()
    prep = WORKLOADS[name].prepare(tmp_path, 7, True)
    tracer = Tracer()
    with tracer:
        assert worker.run_op(cli, prep.calls, tracer) == []
    calls = tracer.take()[1]
    assert prep.check(calls) == []

    corrupt(next(p for p in prep.artifacts if p.name == artifact))
    assert prep.check(calls)
