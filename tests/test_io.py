import json

import numpy as np
import pytest

from benchrank.core import ScoreMatrixError, make_score_matrix
from benchrank.io import (
    LoadError,
    RunManifest,
    file_sha256,
    infer_format,
    load_artifact,
    load_benchmark_categories,
    load_model_metadata,
    load_scores,
    render_artifact,
    render_scores_json,
    save_scores,
    validate_artifact,
)
from benchrank.lowrank import compute_flops

SCORES_CSV = """benchmark,model,score,stderr,n,direction
mnli,A,0.61,0.01,1000,higher
mnli,B,0.72,0.01,1000,higher
wiki-bpb,A,1.13,0.02,,lower
wiki-bpb,B,0.97,0.02,,lower
"""


def sample_matrix():
    return make_score_matrix(
        ["mnli", "wiki-bpb"],
        ["A", "B"],
        [[0.61, 0.72], [1.13, 0.97]],
        [[0.01, 0.01], [0.02, 0.02]],
        n_items=[1000, None],
        direction=["higher", "lower"],
    )


class TestLoadScoresCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV)
        m = load_scores(p)
        assert m.benchmark_ids == ("mnli", "wiki-bpb")
        assert m.model_ids == ("A", "B")
        assert m.scores[0, 1] == 0.72
        assert m.n_items == (1000, None)
        assert m.direction == ("higher", "lower")

    def test_write_read_write_is_byte_stable(self, tmp_path):
        p = tmp_path / "s.csv"
        save_scores(p, sample_matrix())
        first = p.read_bytes()
        save_scores(p, load_scores(p))
        assert p.read_bytes() == first

    def test_json_write_read_write_is_byte_stable(self, tmp_path):
        p = tmp_path / "s.json"
        save_scores(p, sample_matrix())
        first = p.read_bytes()
        save_scores(p, load_scores(p))
        assert p.read_bytes() == first

    def test_awkward_floats_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=(3, 4))
        m = make_score_matrix(
            [f"b{i}" for i in range(3)], [f"m{j}" for j in range(4)], scores, scores / 10
        )
        p = tmp_path / "s.csv"
        save_scores(p, m)
        loaded = load_scores(p)
        assert np.array_equal(loaded.scores, m.scores)
        assert np.array_equal(loaded.stderrs, m.stderrs)

    def test_duplicate_pair_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV + "mnli,A,0.5,0.01,1000,higher\n")
        with pytest.raises(LoadError, match=r"s\.csv:6: duplicate"):
            load_scores(p)

    def test_missing_cell_names_pair(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("\n".join(SCORES_CSV.splitlines()[:-1]) + "\n")
        with pytest.raises(LoadError, match="missing cell.*'wiki-bpb'.*'B'"):
            load_scores(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("mnli,A,0.5,0.01,1000,higher\n")
        with pytest.raises(LoadError, match="header"):
            load_scores(p)

    def test_bad_direction_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("benchmark,model,score,stderr,n,direction\nmnli,A,0.5,0.01,,up\n")
        with pytest.raises(LoadError, match=r":2: direction"):
            load_scores(p)

    def test_bad_float_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("benchmark,model,score,stderr,n,direction\nmnli,A,abc,0.01,,higher\n")
        with pytest.raises(LoadError, match=r":2: cannot parse score"):
            load_scores(p)

    def test_bad_n_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("benchmark,model,score,stderr,n,direction\nmnli,A,0.5,0.01,1.5,higher\n")
        with pytest.raises(LoadError, match=r":2: cannot parse n"):
            load_scores(p)

    def test_conflicting_direction(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            "mnli,A,0.5,0.01,,higher\nmnli,B,0.6,0.01,,lower\n"
        )
        with pytest.raises(LoadError, match="conflicting directions"):
            load_scores(p)

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# manifest: {}\n" + SCORES_CSV)
        assert load_scores(p).benchmark_ids == ("mnli", "wiki-bpb")

    def test_validation_failure_propagates(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(
            "benchmark,model,score,stderr,n,direction\n"
            "mnli,A,0.5,-0.01,,higher\nmnli,B,0.6,0.01,,higher\n"
        )
        with pytest.raises(ScoreMatrixError, match="negative stderr"):
            load_scores(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            load_scores(tmp_path / "absent.csv")

    def test_infer_format(self, tmp_path):
        assert infer_format("x.csv") == "long-csv"
        assert infer_format("x.json") == "canonical-json"
        with pytest.raises(LoadError):
            infer_format("x.parquet")


class TestModelMetadata:
    def test_published_row_flops(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "model,family,params_b,tokens_b,instruction_tuned\n"
            "Llama-3-8B,Llama,8.03,15000,false\n"
        )
        rec = load_model_metadata(p)[0]
        assert compute_flops(rec.param_count, rec.token_count) == 722700e18
        assert rec.instruction_tuned is False

    def test_empty_tokens_allowed(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("model,family,params_b,tokens_b,instruction_tuned\nm0,f,1.5,,true\n")
        rec = load_model_metadata(p)[0]
        assert rec.token_count is None
        assert rec.instruction_tuned is True

    def test_zero_params_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("model,family,params_b,tokens_b,instruction_tuned\nm0,f,0,100,false\n")
        with pytest.raises(LoadError, match=r":2: .*param_count"):
            load_model_metadata(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("model,family,params_b,tokens_b,instruction_tuned\nm0,f,1,100,maybe\n")
        with pytest.raises(LoadError, match="instruction_tuned"):
            load_model_metadata(p)

    def test_duplicate_model(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "model,family,params_b,tokens_b,instruction_tuned\nm0,f,1,100,false\nm0,f,2,100,false\n"
        )
        with pytest.raises(LoadError, match="duplicate model"):
            load_model_metadata(p)


class TestBenchmarkCategories:
    def test_load(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("benchmark,category\nmnli,LU\ngsm8k,Math\nwiki-bpb,PPL\n")
        recs = load_benchmark_categories(p)
        assert [(r.benchmark_id, r.category) for r in recs] == [
            ("mnli", "LU"),
            ("gsm8k", "Math"),
            ("wiki-bpb", "PPL"),
        ]

    def test_invalid_category(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("benchmark,category\nmnli,NLU\n")
        with pytest.raises(LoadError, match="category"):
            load_benchmark_categories(p)

    def test_duplicate_benchmark(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("benchmark,category\nmnli,LU\nmnli,QA\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_benchmark_categories(p)


class TestManifestAndArtifacts:
    def test_manifest_digest_stable(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text(SCORES_CSV)
        m1 = RunManifest.build("agree", {"scores": p}, {"alpha": 0.05}, "0.1.0")
        m2 = RunManifest.build("agree", {"scores": p}, {"alpha": 0.05}, "0.1.0")
        assert m1.to_dict() == m2.to_dict()
        assert m1.inputs["scores"]["sha256"] == file_sha256(p)

    def test_manifest_embedded_in_csv_and_reloadable(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text(SCORES_CSV)
        manifest = RunManifest.build("simulate", {"config": p}, {"seed": 3}, "0.1.0")
        out = tmp_path / "out.csv"
        save_scores(out, sample_matrix(), manifest=manifest)
        lines = out.read_text().splitlines()
        assert lines[0] == "# format_version: 1"
        assert lines[1].startswith("# manifest: ")
        assert json.loads(lines[1][len("# manifest: "):])["subcommand"] == "simulate"
        loaded = load_scores(out)
        assert loaded.benchmark_ids == ("mnli", "wiki-bpb")

    def test_render_json_has_manifest_key(self):
        manifest = RunManifest(subcommand="simulate", inputs={}, flags={"seed": 1}, tool_version="0.1.0")
        payload = json.loads(render_scores_json(sample_matrix(), manifest))
        assert payload["manifest"]["subcommand"] == "simulate"
        assert payload["kind"] == "score_matrix"

    def test_artifact_round_trip(self, tmp_path):
        payload = {
            "format_version": 1,
            "kind": "flops",
            "models": [],
            "excluded": [],
        }
        p = tmp_path / "a.json"
        p.write_text(render_artifact(payload))
        assert load_artifact(p) == payload

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_float_rejected(self, value):
        payload = {"format_version": 1, "kind": "flops", "models": [{"flops": value}], "excluded": []}
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_artifact(payload)

    def test_validate_artifact_unknown_kind(self):
        with pytest.raises(LoadError, match="unknown artifact kind"):
            validate_artifact({"kind": "mystery", "format_version": 1})

    def test_validate_artifact_missing_keys(self):
        with pytest.raises(LoadError, match="missing keys"):
            validate_artifact({"kind": "flops", "format_version": 1, "models": []})

    def test_validate_artifact_bad_version(self):
        with pytest.raises(LoadError, match="format_version"):
            validate_artifact({"kind": "flops", "format_version": 99, "models": [], "excluded": []})


class TestLoadScoresJson:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "s.json"
        m = sample_matrix()
        save_scores(p, m)
        loaded = load_scores(p)
        assert loaded.benchmark_ids == m.benchmark_ids
        assert loaded.n_items == m.n_items
        assert np.array_equal(loaded.scores, m.scores)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"benchmark_ids": []}')
        with pytest.raises(LoadError, match="missing key"):
            load_scores(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{nope")
        with pytest.raises(LoadError, match="invalid JSON"):
            load_scores(p)

    @pytest.mark.parametrize("n_items", [5, [2.7, True], [1000, "3"], [0, None], [2.0, None]])
    def test_bad_n_items(self, tmp_path, n_items):
        p = tmp_path / "s.json"
        save_scores(p, sample_matrix())
        payload = json.loads(p.read_text())
        payload["n_items"] = n_items
        p.write_text(json.dumps(payload))
        with pytest.raises(LoadError, match="n_items"):
            load_scores(p)
