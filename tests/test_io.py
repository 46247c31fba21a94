import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchrank import io
from benchrank.core import DIRECTIONS, ScoreMatrix, ScoreMatrixError, make_score_matrix
from benchrank.io import (
    SCORE_CSV_HEADER,
    LoadError,
    RunManifest,
    file_sha256,
    infer_format,
    load_artifact,
    load_benchmark_categories,
    load_model_metadata,
    load_scores,
    render_artifact,
    render_scores_csv,
    render_scores_json,
    save_scores,
    validate_artifact,
)
from benchrank.lowrank import compute_flops
from oracles import render_scores_csv_oracle

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


def score_json(tmp_path, **changes):
    """A canonical JSON score file holding :func:`sample_matrix`, with the given keys replaced."""
    p = tmp_path / "s.json"
    save_scores(p, sample_matrix())
    p.write_text(json.dumps({**json.loads(p.read_text()), **changes}))
    return p


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

    def test_zero_n_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("benchmark,model,score,stderr,n,direction\nmnli,A,0.5,0.01,0,higher\n")
        with pytest.raises(LoadError, match=r"s\.csv:2: n must be >= 1"):
            load_scores(p)

    @pytest.mark.parametrize(
        "benchmarks, models, bad",
        [
            (["#x", "y"], ["A", "B"], "'#x'"),  # would read back as a comment line
            (["x", "y"], ["A\nB", "C"], r"'A\\nB'"),
            (["x", "y"], ["A", "B\x85C"], r"'B\\x85C'"),  # str.splitlines breaks on NEL and LS too
            (["x", "y\u2028z"], ["A", "B"], r"'y\\u2028z'"),
        ],
        ids=["hash-benchmark", "newline-model", "nel-model", "line-separator-benchmark"],
    )
    def test_ids_that_would_not_read_back_are_refused(self, tmp_path, benchmarks, models, bad):
        m = make_score_matrix(benchmarks, models, [[0.1, 0.2], [0.3, 0.4]], np.zeros((2, 2)))
        p = tmp_path / "s.csv"
        with pytest.raises(ValueError, match=f"{bad}.*use \\.json"):
            save_scores(p, m)
        assert not p.exists()
        save_scores(tmp_path / "s.json", m)
        back = load_scores(tmp_path / "s.json")
        assert (back.benchmark_ids, back.model_ids) == (m.benchmark_ids, m.model_ids)
        assert np.array_equal(back.scores, m.scores)

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

    def test_missing_or_undecodable_file_names_its_path(self, tmp_path):
        absent = tmp_path / "absent.csv"
        with pytest.raises(LoadError, match=f"^{re.escape(str(absent))}: file not found$"):
            file_sha256(absent)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("benchmark,category\ncaf\u00e9,LU\n".encode("latin-1"))
        assert len(file_sha256(latin1)) == 64
        for load in (load_scores, load_benchmark_categories, load_artifact):
            with pytest.raises(LoadError, match=f"^{re.escape(str(latin1))}: not UTF-8 text"):
                load(latin1)

    def test_infer_format(self, tmp_path):
        assert infer_format("x.csv") == "long-csv"
        assert infer_format("x.json") == "canonical-json"
        with pytest.raises(LoadError):
            infer_format("x.parquet")

    def test_unsupported_suffix_names_path_and_suffix(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(SCORES_CSV)
        message = f"^{re.escape(str(p))}: unsupported score file suffix '.txt'; use .csv or .json$"
        with pytest.raises(LoadError, match=message):
            load_scores(p)
        with pytest.raises(LoadError, match=message):
            save_scores(p, sample_matrix())
        assert p.read_text() == SCORES_CSV

    def test_open_quote_closes_at_the_end_of_its_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV.replace("mnli,B,", 'mnli,"B,'))
        with pytest.raises(LoadError, match=r"s\.csv:3: expected 6 fields, got 2$"):
            load_scores(p)

    def test_oversized_field_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV + "mnli," + "C" * 200_000 + ",0.5,0.01,1000,higher\n")
        with pytest.raises(LoadError, match=r"s\.csv:6: field larger than field limit"):
            load_scores(p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(",".join(SCORE_CSV_HEADER)),
                st.lists(
                    st.sampled_from(
                        ["b0", "b1", "A", "B", " A ", "0.5", "-0", "nan", "inf", "1e400", "x", "", "1000", "0",
                         "1.5", "higher", "lower", "up", '"', '"a,b"', "#"]
                    ),
                    min_size=1,
                    max_size=8,
                ).map(",".join),
                st.text(),
            ),
            max_size=12,
        ).map("\n".join)
    )
    def test_any_text_loads_or_raises_a_load_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "any.csv"
        p.write_text(text, encoding="utf-8")
        try:
            m = load_scores(p)
        except (LoadError, ScoreMatrixError):
            return
        assert m.scores.shape == m.stderrs.shape == (len(m.benchmark_ids), len(m.model_ids))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shuffled_rendered_csv_loads_back_in_first_seen_order(self, tmp_path_factory, data):
        nb, nm = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        ids = st.text(alphabet='ab ,"-_.0', min_size=1, max_size=4).filter(lambda s: s.strip())
        unique = dict(unique_by=lambda s: s.strip())
        finite = dict(allow_nan=False, allow_infinity=False)
        m = make_score_matrix(
            data.draw(st.lists(ids, min_size=nb, max_size=nb, **unique)),
            data.draw(st.lists(ids, min_size=nm, max_size=nm, **unique)),
            np.reshape(data.draw(st.lists(st.floats(**finite), min_size=nb * nm, max_size=nb * nm)), (nb, nm)),
            np.reshape(
                data.draw(st.lists(st.floats(min_value=0, **finite), min_size=nb * nm, max_size=nb * nm)), (nb, nm)
            ),
            n_items=data.draw(st.lists(st.none() | st.integers(1, 10**6), min_size=nb, max_size=nb)),
            direction=data.draw(st.lists(st.sampled_from(DIRECTIONS), min_size=nb, max_size=nb)),
        )
        lines = render_scores_csv(m).splitlines()
        header_at = lines.index(",".join(SCORE_CSV_HEADER)) + 1
        order = data.draw(st.permutations(range(nb * nm)))  # row k holds cell (k // nm, k % nm)
        lines = lines[:header_at] + [lines[header_at + k] for k in order]
        for extra in data.draw(st.lists(st.sampled_from(["", "   ", "# note", "#,,,,,"]), max_size=6)):
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        p = tmp_path_factory.getbasetemp() / "shuffled.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_scores(p)
        rows = list(dict.fromkeys(k // nm for k in order))
        cols = list(dict.fromkeys(k % nm for k in order))
        assert loaded.benchmark_ids == tuple(m.benchmark_ids[i] for i in rows)
        assert loaded.model_ids == tuple(m.model_ids[j] for j in cols)
        assert loaded.n_items == tuple(m.n_items[i] for i in rows)
        assert loaded.direction == tuple(m.direction[i] for i in rows)
        for got, want in ((loaded.scores, m.scores), (loaded.stderrs, m.stderrs)):
            assert got.tobytes() == want[np.ix_(rows, cols)].tobytes()


def _outcome(load) -> tuple:
    """A loaded matrix's ids, ``n``, directions and value bytes, or the type and message of what it raised."""
    try:
        m = load()
    except Exception as e:
        return type(e), str(e)
    return m.benchmark_ids, m.model_ids, m.n_items, m.direction, m.scores.tobytes(), m.stderrs.tobytes()


def _per_row(path):
    """``load_scores`` of a long CSV through the per-row loop alone."""
    return make_score_matrix(*io._score_rows(path, io._read(path)))


#: field values a mutation writes: padded, bad, underscored, non-finite and zero-padded numbers, odd directions
MUTANT_FIELDS = [
    "", " b1 ", " A", "abc", "1_0", "nan", "1e400", "-0", "0.5 ", "0", "x", "010", "10", "1.5",
    "higher", "lower", "HIGHER", "up", '"', '"B', '"a,b"', "\x00", "a\x00b", "\x1c1", "#x",
]


BLANK_OR_COMMENT = ["", "  ", "# note", '# "q,"', "#,,,,,"]
TRICKY_CSVS = {  # each a data-row body under SCORES_CSV's header; the per-row loop rejects or reads each one
    "duplicate-in-place-of-a-cell": ("mnli,A,0.61,0.01,,higher\nmnli,B,0.72,0.01,,higher\n"
                                     "rte,A,0.5,0.01,,higher\nmnli,A,0.61,0.01,,higher\n"),
    "row-wrapped-at-a-comma": "mnli,A,0.61,0.01,,higher,mnli\nB,0.72,0.01,,higher\n",
    "ids-equal-once-stripped": "mnli, A,0.61,0.01,,higher\nmnli,A ,0.72,0.01,,higher\n",
    "zero-padded-n-agrees": "mnli,A,0.61,0.01,010,higher\nmnli,B,0.72,0.01,10,higher\n",
    "conflicting-n": "mnli,A,0.61,0.01,10,higher\nmnli,B,0.72,0.01,11,higher\n",
    "conflicting-direction": "mnli,A,0.61,0.01,,higher\nmnli,B,0.72,0.01,,lower\n",
    "underscored-and-padded-numbers": "mnli,A,1_0, 0.01 ,\t7,higher\nmnli,B,-0,0.01,7 ,lower \n",
}


class TestColumnarLoader:
    """The bulk column parser against the per-row loop it stands in for."""

    @pytest.mark.parametrize("body", TRICKY_CSVS.values(), ids=TRICKY_CSVS)
    def test_tricky_files_load_as_the_per_row_loop_reads_them(self, tmp_path, body):
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV.splitlines()[0] + "\n" + body)
        assert _outcome(lambda: load_scores(p)) == _outcome(lambda: _per_row(p))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_bulk_and_per_row_loaders_agree_on_mutated_files(self, tmp_path_factory, data):
        nb, nm = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        m = make_score_matrix(
            [f"b{i}" for i in range(nb)],
            ["A", "B", "C"][:nm],
            np.reshape(data.draw(st.lists(st.floats(0, 1), min_size=nb * nm, max_size=nb * nm)), (nb, nm)),
            np.full((nb, nm), 0.01),
            n_items=data.draw(st.lists(st.none() | st.integers(1, 20), min_size=nb, max_size=nb)),
            direction=data.draw(st.lists(st.sampled_from(DIRECTIONS), min_size=nb, max_size=nb)),
        )
        manifest = RunManifest("simulate", "0.1.0", {"config": {"path": "c.json", "sha256": "0"}}, {"seed": 1})
        lines = render_scores_csv(m, data.draw(st.sampled_from([None, manifest]))).splitlines()
        ops = ["dup", "del", "swap", "copy", "wrap", "insert", "field", "extra", "drop", "quote", "pad", "cr"]
        for op in data.draw(st.lists(st.sampled_from(ops), max_size=4)):
            if op == "insert" or not lines:
                lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(BLANK_OR_COMMENT)))
                continue
            i, j = data.draw(st.sampled_from(range(len(lines)))), data.draw(st.sampled_from(range(len(lines))))
            fields = lines[i].split(",")
            k = data.draw(st.integers(0, len(fields) - 1))
            if op == "dup":
                lines.insert(j, lines[i])
            elif op == "del":
                del lines[i]
            elif op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif op == "copy":  # a duplicate in place of a row, so the row count still fits the matrix
                lines[i] = lines[j]
            elif op == "wrap" and i + 1 < len(lines):  # the next line's first field moves up: 7 fields, then 5
                head, _, rest = lines[i + 1].partition(",")
                lines[i], lines[i + 1] = f"{lines[i]},{head}", rest
            elif op == "field":
                fields[k] = data.draw(st.sampled_from(MUTANT_FIELDS))
            elif op == "extra":
                fields.insert(k, "z")
            elif op == "drop":
                del fields[k]
            elif op == "quote":
                fields[k] = '"' + fields[k]
            elif op == "pad":
                fields[k] = f" {fields[k]}\t"
            elif op == "cr":
                fields[-1] += "\r"
            if op in ("field", "extra", "drop", "quote", "pad", "cr"):
                lines[i] = ",".join(fields)
        p = tmp_path_factory.getbasetemp() / "mutated.csv"
        p.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        assert _outcome(lambda: load_scores(p)) == _outcome(lambda: _per_row(p))

    @pytest.mark.parametrize("with_manifest", [False, True], ids=["plain", "simulate-manifest"])
    def test_clean_files_take_the_bulk_path(self, tmp_path, monkeypatch, with_manifest):
        p = tmp_path / "s.csv"
        if with_manifest:  # the quoted JSON of a '# manifest:' comment does not send the file row by row
            (tmp_path / "c.json").write_text("{}")
            manifest = RunManifest.build("simulate", {"config": tmp_path / "c.json"}, {"seed": 3}, "0.1.0")
            save_scores(p, sample_matrix(), manifest=manifest)
        else:
            p.write_text(SCORES_CSV)
        want = _outcome(lambda: _per_row(p))

        def per_row_loop(*args):
            raise AssertionError("a clean file fell back to the per-row loop")

        monkeypatch.setattr(io, "_score_rows", per_row_loop)
        assert _outcome(lambda: load_scores(p)) == want

    @pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "over-limit"])
    def test_field_at_and_over_the_csv_field_size_limit(self, tmp_path, over):
        model = "C" * (csv.field_size_limit() + over)
        p = tmp_path / "s.csv"
        p.write_text(SCORES_CSV.replace(",B,", f",{model},"))
        got = _outcome(lambda: load_scores(p))
        assert got == _outcome(lambda: _per_row(p))
        if over:
            assert got == (LoadError, f"{p}:3: field larger than field limit ({csv.field_size_limit()})")
        else:
            assert got[1] == ("A", model)

    def test_crlf_json_error_gives_the_position_in_the_text_open_reads(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_bytes(b'{"scores":\r\n [1,\r\n x]}')
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(p.read_text(encoding="utf-8"))
        with pytest.raises(LoadError) as got:
            load_scores(p)
        assert str(got.value) == f"{p}: invalid JSON: {want.value}"


class TestRenderScoresCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_emitter_is_byte_identical_to_csv_writer(self, data):
        nb, nm = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # what str.splitlines breaks on; the writer refuses these
        free = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters=breaks), max_size=5)
        ids = free | st.sampled_from(["", "a,b", 'say "hi"', '"', ",", " pad ", "naïve", "日本語", '""', "x y"])
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
        m = ScoreMatrix(
            benchmark_ids=tuple(data.draw(st.lists(ids.filter(lambda s: s[:1] != "#"), min_size=nb, max_size=nb))),
            model_ids=tuple(data.draw(st.lists(ids, min_size=nm, max_size=nm))),
            scores=np.reshape(data.draw(st.lists(floats, min_size=nb * nm, max_size=nb * nm)), (nb, nm)),
            stderrs=np.reshape(data.draw(st.lists(floats, min_size=nb * nm, max_size=nb * nm)), (nb, nm)),
            n_items=tuple(data.draw(st.lists(st.none() | st.integers(1, 10**12), min_size=nb, max_size=nb))),
            direction=tuple(data.draw(st.lists(st.sampled_from(DIRECTIONS), min_size=nb, max_size=nb))),
        )
        manifest = data.draw(st.sampled_from([None, RunManifest("simulate", "0.1.0", {}, {"seed": 1, "out": 'a,"b"'})]))
        assert render_scores_csv(m, manifest) == render_scores_csv_oracle(m, manifest)


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


    def test_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("model,family,params_b,tokens_b,instruction_tuned\n")
        with pytest.raises(LoadError, match="no model rows"):
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


    def test_header_only(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("benchmark,category\n")
        with pytest.raises(LoadError, match="no category rows"):
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

    def test_validate_artifact_not_an_object(self):
        with pytest.raises(LoadError, match="artifact: expected a JSON object"):
            validate_artifact([])

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("scores", [["0.5", 0.72], [1.13, 0.97]]),
            ("scores", [[0.61, True], [1.13, 0.97]]),
            ("scores", [[0.61, 0.72], [None, 0.97]]),
            ("scores", [0.61, 0.72]),
            ("stderrs", [[0.01, 0.01], [0.02, "1e3"]]),
            ("stderrs", [[0.01, 0.01], [0.02, [0.02]]]),
            ("benchmark_ids", ["mnli", 7]),
            ("model_ids", [None, "B"]),
            ("model_ids", "AB"),
        ],
        ids=repr,
    )
    def test_non_string_id_or_non_number_entry(self, tmp_path, key, value):
        p = score_json(tmp_path, **{key: value})
        with pytest.raises(LoadError, match=f"^{re.escape(str(p))}: {key} must be a list of"):
            load_scores(p)

    def test_integer_entries_accepted(self, tmp_path):
        m = load_scores(score_json(tmp_path, scores=[[1, 0], [2, 3]]))
        assert m.scores.tolist() == [[1.0, 0.0], [2.0, 3.0]]

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        p = score_json(tmp_path, scores=[[10**400, 0], [2, 3]])
        with pytest.raises(LoadError, match=f"^{re.escape(str(p))}: int too large"):
            load_scores(p)

    @pytest.mark.parametrize("n_items", [5, [2.7, True], [1000, "3"], [0, None], [2.0, None]])
    def test_bad_n_items(self, tmp_path, n_items):
        p = score_json(tmp_path, n_items=n_items)
        with pytest.raises(LoadError, match="n_items"):
            load_scores(p)
