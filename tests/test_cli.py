import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchrank import __version__, cli
from benchrank.cli import run_cli
from benchrank.core import CATEGORIES
from benchrank.io import file_sha256, load_artifact, load_benchmark_categories, load_model_metadata, load_scores
from benchrank.rankstats import SignificanceConfig
from benchrank.synth import SyntheticConfig

from oracles import (
    TIED_GAP,
    agree_oracle,
    alignment_table_oracle,
    generate_oracle,
    pca_oracle,
    report_means_oracle,
    taub_oracle,
)

SIM_CONFIG = {
    "n_models": 8,
    "n_benchmarks": 5,
    "seed": 11,
    "n_items": 1200,
    "prep_sd": 0.5,
    "residual_prep": 0.0,
    "finetune_uplift": 0.25,
    "benchmark_loading": [0.7, 0.9, 1.0, 1.1, 1.3],
    "benchmark_bias": [-0.3, -0.1, 0.0, 0.1, 0.3],
    "flops_range": [1e19, 1e23],
}


@pytest.fixture()
def workspace(tmp_path):
    """Simulator config plus direct/tbt score files and metadata tables."""
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(SIM_CONFIG))
    direct = tmp_path / "direct.csv"
    tbt = tmp_path / "tbt.csv"
    assert run_cli(["simulate", "--config", str(cfg_path), "--mode", "direct", "--out", str(direct)]) == 0
    assert run_cli(["simulate", "--config", str(cfg_path), "--mode", "tbt", "--out", str(tbt)]) == 0
    m = load_scores(direct)
    models = tmp_path / "models.csv"
    lines = ["model,family,params_b,tokens_b,instruction_tuned"]
    for j, mid in enumerate(m.model_ids):
        tokens = "" if j == 2 else repr(10.0 * (j + 1))
        lines.append(f"{mid},synth,1.0,{tokens},false")
    models.write_text("\n".join(lines) + "\n")
    cats = tmp_path / "cats.csv"
    cat_names = ["LU", "LU", "QA", "Math", "PPL"]
    cats.write_text(
        "benchmark,category\n" + "\n".join(f"{b},{c}" for b, c in zip(m.benchmark_ids, cat_names)) + "\n"
    )
    return tmp_path


def _manifest_of(path) -> dict:
    """The manifest of a JSON artifact, or of a score CSV's ``# manifest:`` comment line."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        prefix = "# manifest: "
        (line,) = [l for l in text.splitlines() if l.startswith(prefix)]
        return json.loads(line[len(prefix):])
    return json.loads(text)["manifest"]


def _inputs(**paths) -> dict:
    return {name: {"path": p, "sha256": file_sha256(p)} for name, p in paths.items()}


REPORT_INPUTS = dict(scores_direct="direct.csv", scores_tbt="tbt.csv", categories="cats.csv", models="models.csv")
REPORT_ARGV = [
    "report",
    "--scores-direct", "direct.csv",
    "--scores-tbt", "tbt.csv",
    "--categories", "cats.csv",
    "--models", "models.csv",
    "--out-dir", "rep",
]
REPORT_FILES = ["mean_agreement.json", "category_agreement.json", "evr.json", "pc1_compute.json", "alignment.json"]

class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli(["agree", "--frobnicate"]) == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run_cli([]) == 1

    def test_unknown_subcommand(self):
        assert run_cli(["transmogrify"]) == 1

    def test_bad_choice(self, workspace):
        assert run_cli(["agree", "--scores", str(workspace / "direct.csv"), "--method", "pearson", "--out", "x.json"]) == 1

    def test_alpha_out_of_range(self, workspace):
        code = run_cli(["agree", "--scores", str(workspace / "direct.csv"), "--alpha", "1.5", "--out", str(workspace / "x.json")])
        assert code == 1
        assert not (workspace / "x.json").exists()

    def test_alpha_below_float_resolution(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["agree", "--scores", "nope.csv", "--alpha", "1e-17", "--out", "a.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage: argument --alpha: alpha ")
        assert list(tmp_path.iterdir()) == []

    def test_top_k_not_positive(self, workspace):
        assert run_cli(["pca", "--scores", str(workspace / "direct.csv"), "--top-k", "0", "--out", str(workspace / "x.json")]) == 1

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    def test_version_prints_only_the_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr() == (f"benchrank {__version__}\n", "")


class TestInputErrors:
    def test_missing_scores_file(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run_cli(["agree", "--scores", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2
        assert "error: input:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,score,file\n")
        assert run_cli(["agree", "--scores", str(bad), "--out", str(tmp_path / "a.json")]) == 2

    def test_align_unknown_benchmark(self, workspace):
        code = run_cli(
            [
                "align",
                "--scores-a", str(workspace / "direct.csv"),
                "--scores-b", str(workspace / "tbt.csv"),
                "--benchmark-a", "nope",
                "--benchmark-b", "bench01",
                "--out", str(workspace / "x.json"),
            ]
        )
        assert code == 2

    def test_pca_top_k_exceeds_components(self, workspace):
        code = run_cli(["pca", "--scores", str(workspace / "direct.csv"), "--top-k", "99", "--out", str(workspace / "x.json")])
        assert code == 2
        assert not (workspace / "x.json").exists()

    def test_pca_n_items_not_a_list(self, workspace, capsys):
        scores = workspace / "direct.json"
        assert run_cli(["simulate", "--config", str(workspace / "sim.json"), "--mode", "direct", "--out", str(scores)]) == 0
        payload = json.loads(scores.read_text())
        payload["n_items"] = 5
        scores.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["pca", "--scores", str(scores), "--out", str(workspace / "x.json")]) == 2
        assert "error: input:" in capsys.readouterr().err
        assert not (workspace / "x.json").exists()

    def test_pca_non_number_json_score(self, workspace, capsys):
        scores = workspace / "direct.json"
        assert run_cli(["simulate", "--config", str(workspace / "sim.json"), "--mode", "direct", "--out", str(scores)]) == 0
        payload = json.loads(scores.read_text())
        payload["scores"][0][1] = "0.5"
        scores.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["pca", "--scores", str(scores), "--out", str(workspace / "x.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: input: {scores}: scores must be a list of rows of numbers"]
        assert not (workspace / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pca", "--scores", "x.txt", "--out", "o.json"],
            ["simulate", "--config", "sim.json", "--mode", "direct", "--out", "x.txt"],
        ],
        ids=["pca", "simulate"],
    )
    def test_unsupported_score_suffix_names_the_path(self, workspace, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("simulate generated before checking the output suffix")

        monkeypatch.chdir(workspace)
        monkeypatch.setattr(cli, "generate", never)
        if argv[0] == "pca":
            (workspace / "x.txt").write_text((workspace / "direct.csv").read_text())
        before = set(workspace.iterdir())
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: input: x.txt: unsupported score file suffix '.txt'; use .csv or .json"
        ]
        assert set(workspace.iterdir()) == before

    @pytest.mark.filterwarnings("error")
    def test_pca_overflowing_scores(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            "b0,A,1e200,0,,higher\nb0,B,-1e200,0,,higher\nb0,C,3e200,0,,higher\n"
            "b1,A,1,0,,higher\nb1,B,2,0,,higher\nb1,C,3,0,,higher\n"
        )
        out = tmp_path / "p.json"
        assert run_cli(["pca", "--scores", str(p), "--preprocess", "zscore", "--top-k", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: input:") and "overflow" in err[0]
        assert not out.exists()

    def test_unwritable_output_path(self, workspace, capsys):
        blocker = workspace / "blocker"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "out.csv"
        code = run_cli(["simulate", "--config", str(workspace / "sim.json"), "--mode", "direct", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: output:")
        assert blocker.read_text() == "a file, not a directory\n"

    def test_simulate_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps([SIM_CONFIG]))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: input: {cfg}: expected a JSON object"]
        assert not out.exists()

    def test_flops_product_overflows(self, tmp_path, capsys):
        models = tmp_path / "models.csv"
        models.write_text("model,family,params_b,tokens_b,instruction_tuned\nbig,synth,1e200,1e200,false\n")
        out = tmp_path / "f.json"
        assert run_cli(["flops", "--models", str(models), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: input:") and "overflows" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["flops", "report"])
    def test_flops_range_error_names_the_models_row(self, workspace, monkeypatch, capsys, subcommand):
        monkeypatch.chdir(workspace)
        models = workspace / "models.csv"
        header, first, *rest = models.read_text().splitlines()
        models.write_text("\n".join([header, first, "big,synth,1e200,1e200,false", *rest]) + "\n")
        argv = ["flops", "--models", "models.csv", "--out", "f.json"] if subcommand == "flops" else REPORT_ARGV
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: input: models.csv:3: 6 * params * tokens overflows float64 at (1e+200, 1e+200)"]
        assert not (workspace / "f.json").exists() and not (workspace / "rep").exists()

    def test_simulate_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_models": 4, "n_benchmarks": 3, "mystery": 1}))
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": None},
            {"seed": 1.5},
            {"seed": "7"},
            {"seed": True},
            {"seed": [1, 2]},
            {"seed": -3},
            {"n_items": 2.7},
            {"n_models": 4.5},
            {"flops_range": [None, 1e23]},
            {"flops_range": [1e19, True]},
            {"flops_range": 5},
            {"capability_slope": None},
            {"capability_slope": "x"},
            {"prep_sd": float("inf")},
            {"residual_prep": float("nan")},
            {"benchmark_bias": [0.0, None, 0.0]},
            {"finetune_uplift": "0.1"},
        ],
        ids=repr,
    )
    def test_simulate_non_integer_config_field(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_models": 4, "n_benchmarks": 3, "seed": 5, **bad}))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: input:")
        assert not out.exists()

    def test_simulate_bias_length_names_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_models": 4, "n_benchmarks": 2, "benchmark_bias": [0.1, 0.2, 0.3]}))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: input: {cfg}: benchmark_bias must be")
        assert not out.exists()

    @pytest.mark.parametrize("n_items", [2**64, -(2**64), [5, 2**64]], ids=repr)
    def test_simulate_n_items_outside_int64(self, tmp_path, capsys, n_items):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_models": 3, "n_benchmarks": 2, "n_items": n_items}))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: input: {cfg}: n_items entries must be in ")
        assert not out.exists()

    def test_simulate_nan_logit_names_the_config_and_cell(self, tmp_path, capsys):
        # prep_sd * z overflows to +-inf, and inf * residual_prep 0 is NaN
        raw = {"n_models": 10, "n_benchmarks": 6, "prep_sd": 1e308, "residual_prep": 0, "n_items": 10}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "tbt", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: input: {cfg}: benchmark bench"), err
        assert ", model model" in err[0] and "NaN" in err[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_simulate_overflowing_logit_is_silent(self, tmp_path, capsys):
        # a*g + b overflows to +inf in some cells, a sure success
        raw = {"n_models": 3, "n_benchmarks": 2, "benchmark_bias": 1e308, "capability_slope": 1e308}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with np.errstate(over="ignore"):
            scores, stderrs = generate_oracle(SyntheticConfig(**raw), "direct")
        m = load_scores(out)
        assert np.array_equal(m.scores, scores) and np.array_equal(m.stderrs, stderrs)

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["agree", "--scores", "nope.csv", "--out", "o.json"], "nope.csv"),
            (["align", "--scores-a", "direct.csv", "--scores-b", "nope.csv",
              "--benchmark-a", "bench00", "--benchmark-b", "bench01", "--out", "o.json"], "nope.csv"),
            (["pca", "--scores", "nope.json", "--out", "o.json"], "nope.json"),
            (["flops", "--models", "nope.csv", "--out", "o.json"], "nope.csv"),
            (["simulate", "--config", "nope.json", "--mode", "direct", "--out", "o.csv"], "nope.json"),
            (["nope.csv" if a == "models.csv" else a for a in REPORT_ARGV], "nope.csv"),
        ],
        ids=["agree", "align", "pca", "flops", "simulate", "report"],
    )
    def test_missing_input_names_the_file(self, workspace, monkeypatch, capsys, argv, missing):
        monkeypatch.chdir(workspace)
        before = set(workspace.iterdir())
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: input: {missing}: file not found"]
        assert set(workspace.iterdir()) == before

    @pytest.mark.parametrize("subcommand", ["agree", "simulate"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, subcommand):
        if subcommand == "agree":
            bad = tmp_path / "latin1.csv"
            bad.write_bytes("benchmark,model,score,stderr,n,direction\nb0,caf\u00e9,0.5,0,,higher\n".encode("latin-1"))
            argv = ["agree", "--scores", str(bad), "--out", str(tmp_path / "o.json")]
        else:
            bad = tmp_path / "latin1.json"
            bad.write_bytes('{"n_models": 4, "n_benchmarks": 3, "note": "caf\u00e9"}'.encode("latin-1"))
            argv = ["simulate", "--config", str(bad), "--mode", "direct", "--out", str(tmp_path / "o.csv")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: input: {bad}: ")
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("subcommand", ["pca", "simulate"])
    def test_oversized_json_integer_names_the_file(self, tmp_path, capsys, subcommand):
        big = tmp_path / "big.json"
        digits = "1" + "0" * 5000  # over the interpreter's int-to-str digit limit
        if subcommand == "pca":
            big.write_text('{"scores": [[' + digits + "]]}")
            argv = ["pca", "--scores", str(big), "--out", str(tmp_path / "o.json")]
        else:
            big.write_text('{"n_models": ' + digits + "}")
            argv = ["simulate", "--config", str(big), "--mode", "direct", "--out", str(tmp_path / "o.csv")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: input: {big}: invalid JSON: ")
        assert list(tmp_path.iterdir()) == [big]

    def test_report_model_set_mismatch(self, workspace, tmp_path):
        other = tmp_path / "other.csv"
        text = (workspace / "direct.csv").read_text().replace("model00", "intruder")
        other.write_text(text)
        code = run_cli(
            [
                "report",
                "--scores-direct", str(workspace / "direct.csv"),
                "--scores-tbt", str(other),
                "--categories", str(workspace / "cats.csv"),
                "--models", str(workspace / "models.csv"),
                "--out-dir", str(tmp_path / "rep"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "rep").exists()

    def test_report_benchmark_set_mismatch(self, workspace, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        tbt = workspace / "tbt.csv"
        tbt.write_text(tbt.read_text().replace("bench04", "bench99"))
        assert run_cli(REPORT_ARGV) == 2
        err = capsys.readouterr().err
        assert err == "error: input: direct and train-before-test matrices cover different benchmarks\n"
        assert not (workspace / "rep").exists()

    def test_report_direction_mismatch(self, workspace, monkeypatch, capsys):
        # identical scores, but bench02 is lower-is-better in the train-before-test file only
        monkeypatch.chdir(workspace)
        lines = (workspace / "direct.csv").read_text().splitlines(keepends=True)
        flipped = [l.replace(",higher", ",lower") if l.startswith("bench02,") else l for l in lines]
        (workspace / "tbt.csv").write_text("".join(flipped))
        assert run_cli(REPORT_ARGV) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: input: benchmark 'bench02' has direction 'higher' in direct but 'lower' in train-before-test"
        ]
        assert not (workspace / "rep").exists()

    def test_align_model_set_mismatch(self, workspace, capsys):
        other = workspace / "other.csv"
        other.write_text((workspace / "tbt.csv").read_text().replace("model00", "intruder"))
        out = workspace / "x.json"
        code = run_cli(
            [
                "align",
                "--scores-a", str(workspace / "direct.csv"),
                "--scores-b", str(other),
                "--benchmark-a", "bench00",
                "--benchmark-b", "bench01",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: input: the two score matrices cover different model sets\n"
        assert not out.exists()


class TestDegenerateExits:
    def test_agree_tau_with_exact_ties(self, tmp_path, capsys):
        p = tmp_path / "tied.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            "b0,A,0.5,0.01,,higher\nb0,B,0.5,0.01,,higher\n"
            "b1,A,0.1,0.01,,higher\nb1,B,0.2,0.01,,higher\n"
        )
        out = tmp_path / "a.json"
        assert run_cli(["agree", "--scores", str(p), "--method", "tau", "--out", str(out)]) == 3
        assert "error: degenerate:" in capsys.readouterr().err
        assert not out.exists()

    def test_agree_tau_b_fully_tied_row(self, tmp_path):
        # huge stderrs tie everything: every cell degenerate, means undefined
        p = tmp_path / "noisy.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            "b0,A,0.5,9.0,,higher\nb0,B,0.6,9.0,,higher\n"
            "b1,A,0.1,9.0,,higher\nb1,B,0.2,9.0,,higher\n"
        )
        assert run_cli(["agree", "--scores", str(p), "--method", "tau-b", "--out", str(tmp_path / "a.json")]) == 3

    def test_report_with_equal_compute_for_every_model(self, workspace, monkeypatch, capsys):
        # constant log-compute leaves the pc1-vs-compute tau with no untied pair
        monkeypatch.chdir(workspace)
        models = workspace / "models.csv"
        header, *rows = models.read_text().splitlines()
        models.write_text("\n".join([header] + [f"{r.split(',')[0]},synth,1.0,10.0,false" for r in rows]) + "\n")
        assert run_cli(REPORT_ARGV) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: degenerate: pc1 vs compute correlation is degenerate")
        assert not (workspace / "rep").exists()


class TestSubcommandArtifacts:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand", ["agree", "align"])
    @pytest.mark.parametrize(
        "b0",
        [["1,1e200", "2,0.1", "3,0.1"], ["1.5e308,0.1", "-1.5e308,0.1", "0,0.1"]],
        ids=["stderr", "gap"],
    )
    def test_overflow_in_the_pair_test_is_silent(self, tmp_path, capsys, subcommand, b0):
        p = tmp_path / "s.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            + "".join(f"b0,{mod},{cell},,higher\n" for mod, cell in zip("ABC", b0))
            + "b1,A,1,0.1,,higher\nb1,B,2,0.1,,higher\nb1,C,3,0.1,,higher\n"
        )
        out = tmp_path / "a.json"
        argv = {
            "agree": ["agree", "--scores", str(p), "--method", "tau-b"],
            "align": ["align", "--scores-a", str(p), "--scores-b", str(p), "--benchmark-a", "b0", "--benchmark-b", "b1"],
        }[subcommand]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert load_artifact(out)["manifest"]["subcommand"] == subcommand

    def test_agree(self, workspace):
        out = workspace / "agree.json"
        assert run_cli(["agree", "--scores", str(workspace / "direct.csv"), "--method", "tau-b", "--out", str(out)]) == 0
        payload = load_artifact(out)
        assert payload["kind"] == "agreement"
        vals = payload["values"]
        nb = len(payload["benchmark_ids"])
        assert all(vals[i][i] == 1.0 for i in range(nb))
        assert all(vals[i][j] == vals[j][i] for i in range(nb) for j in range(nb))
        assert payload["manifest"]["subcommand"] == "agree"
        assert len(payload["mean_agreement"]) == nb

    def test_align(self, workspace):
        out = workspace / "align.json"
        code = run_cli(
            [
                "align",
                "--scores-a", str(workspace / "direct.csv"),
                "--scores-b", str(workspace / "tbt.csv"),
                "--benchmark-a", "bench00",
                "--benchmark-b", "bench03",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = load_artifact(out)
        table = payload["tables"][0]
        n = len(table["models"])
        assert sorted(r["rank1"] for r in table["models"]) == list(range(1, n + 1))
        assert sorted(r["rank2"] for r in table["models"]) == list(range(1, n + 1))
        assert {"model", "rank1", "rank2", "score1", "stderr1", "score2", "stderr2"} <= set(table["models"][0])

    def test_align_ignores_the_row_order_of_scores_b(self, workspace, tmp_path):
        lines = (workspace / "tbt.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        header, *rows = [l for l in lines if not l.startswith("#")]
        rows = [rows[k] for k in np.random.default_rng(3).permutation(len(rows))]
        shuffled = tmp_path / "tbt_shuffled.csv"
        shuffled.write_text("\n".join(comments + [header] + rows) + "\n")
        assert load_scores(shuffled).model_ids != load_scores(workspace / "direct.csv").model_ids
        tables = []
        for scores_b in (workspace / "tbt.csv", shuffled):
            out = tmp_path / f"align_{scores_b.stem}.json"
            argv = ["align", "--scores-a", str(workspace / "direct.csv"), "--scores-b", str(scores_b),
                    "--benchmark-a", "bench00", "--benchmark-b", "bench03", "--out", str(out)]
            assert run_cli(argv) == 0
            payload = load_artifact(out)
            payload.pop("manifest")
            tables.append(payload)
        assert tables[0] == tables[1]

    def test_pca(self, workspace):
        out = workspace / "pca.json"
        assert run_cli(["pca", "--scores", str(workspace / "direct.csv"), "--top-k", "3", "--out", str(out)]) == 0
        payload = load_artifact(out)
        evr = payload["explained_variance_ratio"]
        assert abs(sum(evr) - 1.0) < 1e-9
        assert payload["top_k_share"] == sum(evr[:3])
        assert len(payload["pc1_scores"]) == 8

    def test_pca_zscore_flag(self, workspace):
        out = workspace / "pca_z.json"
        assert run_cli(["pca", "--scores", str(workspace / "direct.csv"), "--preprocess", "zscore", "--out", str(out)]) == 0
        assert load_artifact(out)["preprocessing"] == "zscore"

    def test_flops(self, workspace):
        out = workspace / "flops.json"
        assert run_cli(["flops", "--models", str(workspace / "models.csv"), "--out", str(out)]) == 0
        payload = load_artifact(out)
        assert payload["excluded"] == ["model02"]
        row = payload["models"][0]
        assert row["flops"] == 6 * row["params_b"] * row["tokens_b"] * 1e18

    def test_simulate_seed_override(self, workspace, tmp_path):
        cfg = workspace / "sim.json"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--seed", "77", "--out", str(a)]) == 0
        assert run_cli(["simulate", "--config", str(cfg), "--mode", "direct", "--seed", "78", "--out", str(b)]) == 0
        assert not np.array_equal(load_scores(a).scores, load_scores(b).scores)

    def test_simulate_json_output(self, workspace, tmp_path):
        out = tmp_path / "sim_out.json"
        assert run_cli(["simulate", "--config", str(workspace / "sim.json"), "--mode", "tbt", "--out", str(out)]) == 0
        m = load_scores(out)
        assert m.n_benchmarks == 5 and m.n_models == 8

    def test_identical_invocations_are_byte_identical(self, workspace):
        out = workspace / "det.json"
        argv = ["agree", "--scores", str(workspace / "direct.csv"), "--method", "tau-b", "--out", str(out)]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first


# (argv, artifacts written, inputs by name, flags): run with relative paths
# from inside the workspace, so every recorded path is exactly as given.
MANIFEST_CASES = {
    "simulate-config-seed": (
        ["simulate", "--config", "sim.json", "--mode", "tbt", "--out", "s.csv"],
        ["s.csv"],
        dict(config="sim.json"),
        {"mode": "tbt", "seed": 11, "out": "s.csv"},
    ),
    "simulate-seed-flag": (
        ["simulate", "--config", "sim.json", "--mode", "direct", "--seed", "5", "--out", "s.json"],
        ["s.json"],
        dict(config="sim.json"),
        {"mode": "direct", "seed": 5, "out": "s.json"},
    ),
    "report-default-pair": (
        REPORT_ARGV,
        [f"rep/{name}" for name in REPORT_FILES],
        REPORT_INPUTS,
        {"out_dir": "rep", "align_pairs": []},
    ),
    "report-align-pairs": (
        REPORT_ARGV + ["--align-pair", "bench01:bench03", "--align-pair", "bench00:bench04"],
        [f"rep/{name}" for name in REPORT_FILES],
        REPORT_INPUTS,
        {"out_dir": "rep", "align_pairs": ["bench01:bench03", "bench00:bench04"]},
    ),
    "agree": (
        ["agree", "--scores", "direct.csv", "--method", "tau-b", "--out", "a.json"],
        ["a.json"],
        dict(scores="direct.csv"),
        {"method": "tau-b", "alpha": 0.05, "out": "a.json"},
    ),
    "align": (
        [
            "align",
            "--scores-a", "direct.csv",
            "--scores-b", "tbt.csv",
            "--benchmark-a", "bench00",
            "--benchmark-b", "bench03",
            "--alpha", "0.1",
            "--out", "al.json",
        ],
        ["al.json"],
        dict(scores_a="direct.csv", scores_b="tbt.csv"),
        {"benchmark_a": "bench00", "benchmark_b": "bench03", "alpha": 0.1, "out": "al.json"},
    ),
    "pca": (
        ["pca", "--scores", "tbt.csv", "--preprocess", "zscore", "--out", "p.json"],
        ["p.json"],
        dict(scores="tbt.csv"),
        {"preprocess": "zscore", "top_k": 5, "out": "p.json"},
    ),
    "flops": (
        ["flops", "--models", "models.csv", "--out", "f.json"],
        ["f.json"],
        dict(models="models.csv"),
        {"out": "f.json"},
    ),
}


class TestManifestContract:
    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_manifest_lists_inputs_and_flags(self, workspace, monkeypatch, case):
        argv, artifacts, inputs, flags = MANIFEST_CASES[case]
        monkeypatch.chdir(workspace)
        assert run_cli(argv) == 0
        expected = {
            "subcommand": argv[0],
            "tool_version": __version__,
            "inputs": _inputs(**inputs),
            "flags": flags,
        }
        for name in artifacts:
            assert _manifest_of(workspace / name) == expected

    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_each_input_file_is_read_once(self, workspace, monkeypatch, case):
        argv, _, inputs, _ = MANIFEST_CASES[case]
        monkeypatch.chdir(workspace)
        reads = []
        for name in ("read_bytes", "read_text"):
            def counted(path, *args, _read=getattr(Path, name), **kwargs):
                reads.append(str(path))
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, counted)
        assert run_cli(argv) == 0
        assert sorted(reads) == sorted(inputs.values())

    @pytest.mark.parametrize(
        "argv",
        [
            ["agree", "--scores", "nope.csv", "--alpha", "1.5", "--out", "a.json"],
            ["pca", "--scores", "nope.csv", "--top-k", "0", "--out", "p.json"],
            pytest.param(["pca", "--scores", "nope.csv", "--top-k", "abc", "--out", "p.json"], id="pca-top-k-abc"),
            ["simulate", "--config", "nope.json", "--mode", "direct", "--seed", "-1", "--out", "s.csv"],
            [
                "report",
                "--scores-direct", "nope.csv",
                "--scores-tbt", "nope.csv",
                "--categories", "nope.csv",
                "--models", "nope.csv",
                "--out-dir", "rep",
                "--align-pair", "nocolon",
            ],
        ],
        ids=lambda argv: argv[0],
    )
    def test_usage_error_precedes_missing_input(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage:")
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """Many ``run_cli`` calls in one process share one parser and behave as fresh processes do."""

    REPORT = ["report", "--scores-direct", "direct.csv", "--scores-tbt", "tbt.csv", "--categories", "cats.csv",
              "--models", "models.csv"]  # fmt: skip
    SEQUENCE = [
        [*REPORT, "--out-dir", "rep_pairs", "--align-pair", "bench00:bench01", "--align-pair", "bench04:bench01"],
        [*REPORT, "--out-dir", "rep_default"],
        ["agree", "--scores", "direct.csv", "--method", "kendall", "--out", "usage.json"],
        ["--version"],
        ["--help"],
        ["agree", "--scores", "direct.csv", "--method", "tau-b", "--out", "agree_taub.json"],
        ["agree", "--scores", "direct.csv", "--out", "agree_tau.json"],
    ]
    INPUTS = ("direct.csv", "tbt.csv", "cats.csv", "models.csv")

    def test_one_process_matches_fresh_processes(self, workspace, monkeypatch, capsys):
        fresh = workspace / "fresh"
        fresh.mkdir()
        for name in self.INPUTS:
            shutil.copy(workspace / name, fresh / name)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80")  # --help wraps at the terminal width
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(workspace)
        built = []
        init = cli._Parser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._build_parser.cache_clear()
        for argv in self.SEQUENCE:
            code = run_cli(argv)
            out, err = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "benchrank.cli", *argv], cwd=fresh, env=env, capture_output=True, text=True
            )
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert built.count("benchrank") == 1 and len(set(built)) == len(built)
        written = sorted(
            p.relative_to(fresh).as_posix() for p in fresh.rglob("*") if p.is_file() and p.name not in self.INPUTS
        )
        assert written == sorted(
            [f"rep_pairs/{f}" for f in REPORT_FILES] + [f"rep_default/{f}" for f in REPORT_FILES]
            + ["agree_taub.json", "agree_tau.json"]
        )  # fmt: skip
        for name in written:
            assert (workspace / name).read_bytes() == (fresh / name).read_bytes(), name
        assert not (workspace / "usage.json").exists()
        assert _manifest_of(workspace / "rep_default" / "mean_agreement.json")["flags"]["align_pairs"] == []


class TestReport:
    def run_report(self, workspace, out_dir, extra=()):
        argv = [
            "report",
            "--scores-direct", str(workspace / "direct.csv"),
            "--scores-tbt", str(workspace / "tbt.csv"),
            "--categories", str(workspace / "cats.csv"),
            "--models", str(workspace / "models.csv"),
            "--out-dir", str(out_dir),
            *extra,
        ]
        return run_cli(argv)

    def test_emits_all_five_tables(self, workspace, tmp_path):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "mean_agreement.json",
            "category_agreement.json",
            "evr.json",
            "pc1_compute.json",
            "alignment.json",
        }
        for p in out.iterdir():
            load_artifact(p)

    def test_mean_agreement_modes_and_ppl_block(self, workspace, tmp_path):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out) == 0
        payload = load_artifact(out / "mean_agreement.json")
        assert set(payload["modes"]) == {"direct", "train_before_test"}
        block = payload["perplexity_block"]["direct"]
        assert block["ppl_benchmarks"] == ["bench04"]
        assert block["ppl_vs_ppl_mean"] is None  # single perplexity row
        assert isinstance(block["ppl_vs_downstream_mean"], float)
        assert len(block["pairs"]) == 4

    def test_category_matrix_shape(self, workspace, tmp_path):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out) == 0
        payload = load_artifact(out / "category_agreement.json")
        assert payload["categories"] == ["LU", "QA", "Math", "PPL"]
        grid = payload["modes"]["direct"]["values"]
        assert len(grid) == 4 and len(grid[0]) == 4
        # singleton categories have undefined diagonals
        assert grid[1][1] is None and grid[0][0] is not None

    def test_alignment_pair_selection(self, workspace, tmp_path):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out, extra=["--align-pair", "bench01:bench03"]) == 0
        payload = load_artifact(out / "alignment.json")
        assert [(t["benchmark_a"], t["benchmark_b"], t["mode"]) for t in payload["tables"]] == [
            ("bench01", "bench03", "direct"),
            ("bench01", "bench03", "train_before_test"),
        ]

    @pytest.mark.parametrize("mode, scores", [("direct", "direct.csv"), ("train_before_test", "tbt.csv")])
    def test_alignment_table_is_align_on_that_file(self, workspace, tmp_path, mode, scores):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out, extra=["--align-pair", "bench01:bench03"]) == 0
        tables = load_artifact(out / "alignment.json")["tables"]
        (table,) = [t for t in tables if t.pop("mode") == mode]
        argv = ["align", "--scores-a", str(workspace / scores), "--scores-b", str(workspace / scores),
                "--benchmark-a", "bench01", "--benchmark-b", "bench03", "--out", str(tmp_path / "a.json")]
        assert run_cli(argv) == 0
        assert load_artifact(tmp_path / "a.json")["tables"] == [table]

    def test_bad_align_pair_is_usage_error(self, workspace, tmp_path):
        assert self.run_report(workspace, tmp_path / "rep", extra=["--align-pair", "bench01bench03"]) == 1
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("pair, unknown", [("nope:bench00", "nope"), ("bench00:bench01x", "bench01x")])
    def test_unknown_align_pair_id_fails_before_any_computation(
        self, workspace, tmp_path, monkeypatch, capsys, pair, unknown
    ):
        def not_called(*args, **kwargs):
            raise AssertionError("computed before the --align-pair ids were checked")

        monkeypatch.setattr(cli, "agreement_matrix", not_called)
        monkeypatch.setattr(cli, "fit_pca", not_called)
        extra = ["--align-pair", "bench01:bench03", "--align-pair", pair]
        assert self.run_report(workspace, tmp_path / "rep", extra=extra) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: input: unknown benchmark id '{unknown}'"]
        assert not (tmp_path / "rep").exists()

    def test_permuted_tbt_input_gives_identical_results(self, workspace, tmp_path):
        baseline = tmp_path / "rep_base"
        assert self.run_report(workspace, baseline) == 0
        # shuffle the tbt data rows: same matrix, different file order
        lines = (workspace / "tbt.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        header, *rows = [l for l in lines if not l.startswith("#")]
        shuffled = tmp_path / "tbt_shuffled.csv"
        shuffled.write_text("\n".join(comments + [header] + rows[::-1]) + "\n")
        out = tmp_path / "rep_shuffled"
        code = run_cli(
            [
                "report",
                "--scores-direct", str(workspace / "direct.csv"),
                "--scores-tbt", str(shuffled),
                "--categories", str(workspace / "cats.csv"),
                "--models", str(workspace / "models.csv"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        for name in REPORT_FILES:
            a = load_artifact(baseline / name)
            b = load_artifact(out / name)
            a.pop("manifest")
            b.pop("manifest")
            assert a == b

    def test_pc1_compute_excludes_models_without_tokens(self, workspace, tmp_path):
        out = tmp_path / "rep"
        assert self.run_report(workspace, out) == 0
        payload = load_artifact(out / "pc1_compute.json")
        listed = {row["model"] for row in payload["models"]}
        assert "model02" not in listed and len(listed) == 7
        assert set(payload["tau"]) == {"direct", "train_before_test"}


@st.composite
def report_inputs(draw) -> dict[str, str]:
    """The four input files of ``report``, by name: 3-10 models, 2-7 benchmarks, 0-2 of them perplexity rows.

    Scores sit on a grid of five values, so exact ties are common, but no
    row is constant: a constant row makes every agreement cell of its
    benchmark degenerate, and ``report`` exits 3.  So ``report`` succeeds on
    every draw, and no degenerate cell reaches its tables.
    """
    n_models, n_bench = draw(st.integers(3, 10)), draw(st.integers(2, 7))
    bench = [f"b{i}" for i in range(n_bench)]
    n_ppl = draw(st.integers(0, min(2, n_bench)))
    cats = [(b, "PPL" if i < n_ppl else draw(st.sampled_from(CATEGORIES[:-1]))) for i, b in enumerate(bench)]
    files = {"cats.csv": "benchmark,category\n" + "".join(f"{b},{c}\n" for b, c in draw(st.permutations(cats)))}
    direction = {b: draw(st.sampled_from(["higher", "lower"])) for b in bench}
    grid = st.lists(st.integers(0, 4), min_size=n_models, max_size=n_models)
    for name in ("direct.csv", "tbt.csv"):
        rows = []
        for b in bench:
            levels = draw(grid)
            levels[-1] += len(set(levels)) == 1  # a constant row gets one model a step higher
            for j, k in enumerate(levels):
                rows.append(f"{b},m{j},{k / 4!r},{draw(st.sampled_from([0.0, 0.1]))!r},,{direction[b]}\n")
        files[name] = "benchmark,model,score,stderr,n,direction\n" + "".join(draw(st.permutations(rows)))
    files["models.csv"] = "model,family,params_b,tokens_b,instruction_tuned\n" + "".join(
        f"m{j},synth,{j + 1}.0,10.0,false\n" for j in range(n_models)
    )
    return files


@st.composite
def agree_inputs(draw, ties: bool) -> str:
    """A score CSV for ``agree``: 3-10 models, 2-7 benchmarks, stderrs of 0 to 0.2.

    With ``ties`` the scores sit on ``report_inputs``' grid, and a row may be
    constant or hold no significant pair, so that its agreement cells are
    degenerate; without, each row is a permutation, as ``--method tau``
    requires.
    """
    n_models, n_bench = draw(st.integers(3, 10)), draw(st.integers(2, 7))
    grid = st.lists(st.integers(0, 4), min_size=n_models, max_size=n_models)
    rows = []
    for i in range(n_bench):
        direction = draw(st.sampled_from(["higher", "lower"]))
        for j, k in enumerate(draw(grid if ties else st.permutations(range(n_models)))):
            se = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2]))
            rows.append(f"b{i},m{j},{k / 4!r},{se!r},,{direction}\n")
    return "benchmark,model,score,stderr,n,direction\n" + "".join(draw(st.permutations(rows)))


#: ``report_inputs`` of 4 models whose two benchmarks are orthogonal and of
#: equal variance once centred, so the top eigenvalue is exactly tied
TIED_TOP_FILES = {
    "cats.csv": "benchmark,category\nb0,LU\nb1,LU\n",
    **dict.fromkeys(
        ("direct.csv", "tbt.csv"),
        "benchmark,model,score,stderr,n,direction\n"
        + "".join(f"b{i},m{j},{v},0.0,,higher\n" for i, row in enumerate(["0101", "0011"]) for j, v in enumerate(row)),
    ),
    "models.csv": "model,family,params_b,tokens_b,instruction_tuned\n"
    + "".join(f"m{j},synth,{j + 1}.0,10.0,false\n" for j in range(4)),
}


#: ``report_inputs`` of 3 models whose tbt mean scores are all 0.25, so the mean-score anchor of
#: tbt's pc1 is 0 and its sign falls to the loading of b0, the smallest id, -0.208 before the flip
TIED_MEANS_FILES = {
    "cats.csv": "benchmark,category\nb0,PPL\nb1,LU\nb2,LU\nb3,LU\n",
    **{
        name: "benchmark,model,score,stderr,n,direction\n"
        + "".join(f"b{i},m{j},{int(k) / 4!r},0.0,,higher\n" for i, row in enumerate(levels) for j, k in enumerate(row))
        for name, levels in (("direct.csv", ["001"] * 4), ("tbt.csv", ["001", "340", "003", "100"]))
    },
    "models.csv": "model,family,params_b,tokens_b,instruction_tuned\n"
    + "".join(f"m{j},synth,{j + 1}.0,10.0,false\n" for j in range(3)),
}


def _report_files(cats: str, direct: str, tbt: str, n_models: int) -> dict[str, str]:
    """``report``'s input files, by name, from ``" / "``-separated rows.

    ``cats`` holds ``benchmark,category`` rows and ``direct`` and ``tbt``
    ``benchmark,model,score`` rows, each given stderr 0.0, an empty ``n``
    and direction ``higher``.  Models ``m0`` to ``m{n_models - 1}`` have
    params 1, 2, ... and 10 training tokens, as in ``report_inputs``.
    """
    def csv(header: str, rows: str, tail: str = "") -> str:
        return header + "".join(f"{row}{tail}\n" for row in rows.split(" / "))

    scores = "benchmark,model,score,stderr,n,direction\n"
    return {
        "cats.csv": csv("benchmark,category\n", cats),
        "direct.csv": csv(scores, direct, ",0.0,,higher"),
        "tbt.csv": csv(scores, tbt, ",0.0,,higher"),
        "models.csv": "model,family,params_b,tokens_b,instruction_tuned\n"
        + "".join(f"m{j},synth,{j + 1}.0,10.0,false\n" for j in range(n_models)),
    }


#: Two drawn ``report_inputs`` whose tbt models all have the same mean score and whose ``tbt.csv``
#: lists b1 before b0.  When pc1's sign followed the first nonzero loading in the matrix's row order,
#: it followed the direct file's benchmark order, and reversing that order flipped tbt's pc1.
TIED_MEANS_ROW_ORDER_FILES = [
    _report_files(
        "b0,PPL / b1,LU",
        " / ".join(f"b{i},m{j},{0.25 if j == 4 else 0.0}" for i in range(2) for j in range(5)),
        "b1,m0,0.75 / b0,m1,0.0 / b0,m2,0.25 / b0,m3,0.25 / b0,m4,0.25 / "
        "b0,m0,0.0 / b1,m1,0.75 / b1,m2,0.5 / b1,m3,0.5 / b1,m4,0.5",
        5,
    ),
    _report_files(
        "b0,LU / b1,LU / b2,LU",
        " / ".join(f"b{i},m{j},{0.25 if j == 2 else 0.0}" for i in range(3) for j in range(3)),
        "b1,m0,1.0 / b0,m1,0.0 / b0,m2,0.25 / b0,m0,0.0 / b1,m1,0.75 / b1,m2,0.0 / b2,m0,0.25 / b2,m1,0.5 / b2,m2,1.0",
        3,
    ),
]


#: Absolute bound on a float field against its oracle value, by field name.
FIELD_TOL = {
    # a mean against the ``math.fsum`` mean of the same tau-b cells, which
    # equal the oracle's exactly.  ``np.mean`` sums n <= 21 cells (7
    # benchmarks) of |tau| <= 1 with an error below (n - 1) * 2^-53 * n, so a
    # mean is off by under 20 * 2^-53, about 2.2e-15, plus one rounding of
    # the quotient.
    # ``agree``'s per-benchmark ``mean`` likewise, over n <= 6 cells.
    **dict.fromkeys(("means", "overall_mean", "ppl_vs_ppl_mean", "ppl_vs_downstream_mean", "values", "mean"), 1e-14),
    # against ``pca_oracle``'s SVD, a different LAPACK route from ``eigh`` of
    # the covariance.  Both are backward stable, off by a few ulps of the
    # largest eigenvalue, and scores in [0, 1] at <= 7 benchmarks keep it
    # below 7 * 3/8; a ratio's error is that over the total variance, which
    # is at least the largest eigenvalue, and top5_share sums five of them.
    **dict.fromkeys(("eigenvalues", "explained_variance_ratio", "top5_share"), 1e-13),
    # math.log10 of 6, params and tokens, plus 18, against numpy's log10 of
    # the decimal product: a few roundings of about 3.6e-15 each at 20
    "log10_flops": 1e-13,
}

#: A pc1 entry's bound, relative to s_0 / gap: the first component's error
#: grows as the inverse of the top eigenvalue's relative gap.  In 20,000
#: random draws of ``report_inputs``' shapes and grid, every gap was either
#: an exact tie or above 1e-3.
PC1_TOL = 1e-12


def assert_matches(got, want, tol=None):
    """``got`` has ``want``'s structure and types; floats under a field of ``FIELD_TOL`` within its bound, the rest equal."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_matches(got[key], want[key], FIELD_TOL.get(key, tol))
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_matches(g, w, tol)
    elif isinstance(want, float) and tol is not None:
        assert abs(got - want) <= tol
    else:
        assert got == want


def assert_pc1_matches(column, want):
    """A pc1 column against ``pca_oracle``'s: in the top eigenspace with norm s_0 and a non-negative anchor when tied, else entrywise, sign included."""
    got, ref = np.array(column), np.array(want["pc1"])
    s0 = float(np.linalg.norm(ref))
    if want["gap"] <= TIED_GAP:
        space = want["pc1_space"]
        assert abs(float(np.linalg.norm(got)) - s0) <= PC1_TOL * s0
        assert np.abs(got - space @ (space.T @ got)).max() <= PC1_TOL * s0
        assert float(got @ want["means"]) >= -PC1_TOL * s0 * float(np.linalg.norm(want["means"]))
        return
    # sign included: in 200,000 random draws of ``report_inputs``' shapes and grid, every anchor cosine
    # was below 1.1e-14 (pc1 orthogonal to the mean scores) or above 2.8e-6, and every pc1 loading over
    # the largest below 4.5e-14 or above 7.1e-6, so neither sits near ``SIGN_FLOOR``
    assert np.abs(got - ref).max() <= PC1_TOL * s0 / want["gap"]


class TestReportOracle:
    @staticmethod
    def run_report(files, work: Path) -> dict:
        """Write the input files to ``work``, run ``report`` there, and return the parsed score matrices by mode."""
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        argv = [str(work / a) if a in files or a == "rep" else a for a in REPORT_ARGV]
        assert run_cli(argv) == 0
        return {"direct": load_scores(work / "direct.csv"), "train_before_test": load_scores(work / "tbt.csv")}

    @settings(max_examples=60, deadline=None)
    @given(report_inputs())
    def test_mean_and_category_tables_match_the_oracle(self, files):
        with tempfile.TemporaryDirectory(prefix="benchrank-report-") as tmp:
            work = Path(tmp)
            matrices = self.run_report(files, work)
            want = report_means_oracle(matrices, load_benchmark_categories(work / "cats.csv"))
            for kind, fields in want.items():
                payload = load_artifact(work / "rep" / f"{kind}.json")
                envelope = ("format_version", "kind", "manifest")
                assert_matches({k: v for k, v in payload.items() if k not in envelope}, fields)

    @settings(max_examples=60, deadline=None)
    @given(report_inputs())
    @example(TIED_TOP_FILES)
    @example(TIED_MEANS_FILES)
    @example(TIED_MEANS_ROW_ORDER_FILES[0])
    @example(TIED_MEANS_ROW_ORDER_FILES[1])
    def test_evr_and_pc1_tables_match_an_svd(self, files):
        with tempfile.TemporaryDirectory(prefix="benchrank-report-") as tmp:
            work = Path(tmp)
            matrices = self.run_report(files, work)
            metadata = load_model_metadata(work / "models.csv")
            evr, pc1 = (load_artifact(work / "rep" / f"{kind}.json") for kind in ("evr", "pc1_compute"))
        # every drawn model has a token count, so pc1_compute lists them all, in the direct file's order
        models = matrices["direct"].model_ids
        want = {name: pca_oracle(m, models) for name, m in matrices.items()}
        assert evr["preprocessing"] == "center"
        fields = ("eigenvalues", "explained_variance_ratio", "top5_share")
        assert_matches(evr["modes"], {name: {k: w[k] for k in fields} for name, w in want.items()})
        flops = {r.model_id: (r.param_count, r.token_count) for r in metadata}
        log10 = [math.log10(6.0) + math.log10(flops[mod][0]) + math.log10(flops[mod][1]) + 18.0 for mod in models]
        rows = pc1["models"]
        assert_matches(
            [{k: row[k] for k in ("model", "log10_flops")} for row in rows],
            [{"model": mod, "log10_flops": v} for mod, v in zip(models, log10)],
        )
        zeros = [0.0] * len(rows)
        for name, w in want.items():
            column = [row[f"pc1_{name}"] for row in rows]
            assert_pc1_matches(column, w)
            assert pc1["tau"][name] == taub_oracle(column, zeros, log10, zeros, SignificanceConfig())

    @settings(max_examples=60, deadline=None)
    @given(report_inputs())
    def test_alignment_tables_match_the_greedy_oracle(self, files):
        with tempfile.TemporaryDirectory(prefix="benchrank-report-") as tmp:
            work = Path(tmp)
            matrices = self.run_report(files, work)
            payload = load_artifact(work / "rep" / "alignment.json")
        # report aligns the direct file's first two benchmarks, its models in the direct file's order
        first = matrices["direct"]
        pair, models = first.benchmark_ids[:2], first.model_ids
        tables = [{**alignment_table_oracle(m, *pair, models), "mode": name} for name, m in matrices.items()]
        assert_matches({k: payload[k] for k in ("alpha", "tables")}, {"alpha": 0.05, "tables": tables})

    @staticmethod
    def check_agree(text: str, method: str, alpha: float) -> None:
        """Run ``agree`` on the score file ``text`` and compare its artifact with ``agree_oracle``.

        Where a benchmark has no defined agreement cell, ``agree`` must exit 3
        and write nothing.  Every cell is compared exactly.
        """
        with tempfile.TemporaryDirectory(prefix="benchrank-agree-") as tmp:
            scores, out = Path(tmp) / "s.csv", Path(tmp) / "a.json"
            scores.write_text(text, encoding="utf-8")
            argv = ["agree", "--scores", str(scores), "--method", method, "--alpha", repr(alpha), "--out", str(out)]
            code = run_cli(argv)
            want = agree_oracle(load_scores(scores), method, SignificanceConfig(alpha=alpha))
            if any(row["mean"] is None for row in want["mean_agreement"]):
                assert code == 3 and not out.exists()
                return
            assert code == 0
            payload = load_artifact(out)
        assert payload["values"] == want.pop("values")
        assert_matches({k: payload[k] for k in ("method", "alpha", *want)}, {"method": method, "alpha": alpha, **want})

    @settings(max_examples=60, deadline=None)
    @given(agree_inputs(ties=True), st.sampled_from([0.01, 0.05, 0.2]))
    def test_agree_tau_b_matches_the_oracle(self, text, alpha):
        self.check_agree(text, "tau-b", alpha)

    @settings(max_examples=60, deadline=None)
    @given(agree_inputs(ties=False))
    def test_agree_tau_matches_the_oracle(self, text):
        self.check_agree(text, "tau", 0.05)


def _reversed_rows(text: str) -> str:
    """A CSV with its data rows in reverse order: the benchmarks and models listed first come last."""
    header, *rows = text.splitlines()
    return "\n".join([header, *rows[::-1]]) + "\n"


class TestRowOrder:
    """pc1 and its tau against compute do not depend on the order of the input rows."""

    @staticmethod
    def pc1_columns(files: dict[str, str], work: Path) -> dict:
        """``report`` and ``pca`` (both preprocessings, on each score file) run on ``files`` in ``work``.

        Returns, by column, the pc1 scores by model, the top two
        eigenvalues, and ``report``'s tau for the column, or ``None``.
        """
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        argv = [str(work / a) if a in files or a == "rep" else a for a in REPORT_ARGV]
        assert run_cli(argv) == 0
        evr, pc1 = (load_artifact(work / "rep" / f"{kind}.json") for kind in ("evr", "pc1_compute"))
        columns = {}
        for mode in ("direct", "train_before_test"):
            scores = {row["model"]: row[f"pc1_{mode}"] for row in pc1["models"]}
            columns[f"report {mode}"] = (scores, evr["modes"][mode]["eigenvalues"][:2], pc1["tau"][mode])
        for scores_file in ("direct.csv", "tbt.csv"):
            for prep in ("center", "zscore"):
                out = work / f"pca-{scores_file}-{prep}.json"
                argv = ["pca", "--scores", str(work / scores_file), "--preprocess", prep, "--top-k", "1"]
                assert run_cli([*argv, "--out", str(out)]) == 0
                payload = load_artifact(out)
                scores = {row["model"]: row["pc1"] for row in payload["pc1_scores"]}
                columns[f"pca {scores_file} {prep}"] = (scores, payload["eigenvalues"][:2], None)
        return columns

    @settings(max_examples=60, deadline=None)
    @given(report_inputs())
    @example(TIED_MEANS_FILES)
    @example(TIED_MEANS_ROW_ORDER_FILES[0])
    @example(TIED_MEANS_ROW_ORDER_FILES[1])
    def test_reversed_input_rows_keep_pc1_and_its_tau(self, files):
        with tempfile.TemporaryDirectory(prefix="benchrank-rows-") as tmp:
            (Path(tmp) / "a").mkdir()
            (Path(tmp) / "b").mkdir()
            want = self.pc1_columns(files, Path(tmp) / "a")
            got = self.pc1_columns({name: _reversed_rows(text) for name, text in files.items()}, Path(tmp) / "b")
        for name, (scores, (lam0, lam1), tau) in want.items():
            gap = (lam0 - lam1) / lam0
            if gap <= TIED_GAP:
                continue  # no single first component: pc1 is any vector of the tied space
            models = sorted(scores)
            a = np.array([scores[mod] for mod in models])
            b = np.array([got[name][0][mod] for mod in models])
            tol = PC1_TOL * float(np.linalg.norm(a)) / gap
            assert np.abs(a - b).max() <= tol, name
            # either of two pc1 values may move by tol, so their order is fixed only beyond 2 tol
            if tau is not None and np.diff(np.sort(a)).min() > 2 * tol:
                assert got[name][2] == tau, name
