import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchrank.core import (
    DEGENERATE,
    BenchmarkRecord,
    ModelRecord,
    ScoreMatrixError,
    make_score_matrix,
    oriented_scores,
    validate_score_matrix,
)


def small_matrix(**overrides):
    kwargs = dict(
        benchmark_ids=["acc", "bpb"],
        model_ids=["A", "B"],
        scores=[[0.3, 0.7], [1.1, 0.9]],
        stderrs=[[0.01, 0.02], [0.0, 0.0]],
        n_items=[1000, None],
        direction=["higher", "lower"],
    )
    kwargs.update(overrides)
    return make_score_matrix(**kwargs)


class TestValidation:
    def test_wellformed_accepted_unchanged(self):
        m = small_matrix()
        assert m.benchmark_ids == ("acc", "bpb")
        assert m.model_ids == ("A", "B")
        assert np.array_equal(m.scores, [[0.3, 0.7], [1.1, 0.9]])
        assert validate_score_matrix(m) is m

    def test_validate_idempotent(self):
        m = small_matrix()
        assert validate_score_matrix(validate_score_matrix(m)) is m

    def test_negative_stderr_names_coordinates(self):
        with pytest.raises(ScoreMatrixError, match="'acc'.*'B'"):
            small_matrix(stderrs=[[0.01, -0.01], [0.0, 0.0]])

    def test_duplicate_model_id(self):
        with pytest.raises(ScoreMatrixError, match="duplicate model id 'A'"):
            small_matrix(model_ids=["A", "A"])

    def test_duplicate_benchmark_id(self):
        with pytest.raises(ScoreMatrixError, match="duplicate benchmark id"):
            small_matrix(benchmark_ids=["acc", "acc"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_score_rejected(self, bad):
        with pytest.raises(ScoreMatrixError, match="non-finite score"):
            small_matrix(scores=[[0.3, bad], [1.1, 0.9]])

    def test_nonfinite_stderr_rejected(self):
        with pytest.raises(ScoreMatrixError, match="non-finite stderr"):
            small_matrix(stderrs=[[0.01, float("nan")], [0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ScoreMatrixError, match="shape"):
            small_matrix(stderrs=[[0.01, 0.02, 0.03], [0.0, 0.0, 0.0]])

    def test_bad_direction(self):
        with pytest.raises(ScoreMatrixError, match="direction"):
            small_matrix(direction=["higher", "down"])

    def test_bad_n_items(self):
        for n_items in ([0, None], [True, None]):
            with pytest.raises(ScoreMatrixError, match="n_items"):
                small_matrix(n_items=n_items)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n_items": [1000]}, "n_items"),
            ({"n_items": [1000, None, 5]}, "n_items"),
            ({"direction": ["higher"]}, "direction"),
            ({"direction": ["higher", "lower", "higher"]}, "direction"),
        ],
    )
    def test_per_benchmark_field_of_wrong_length(self, overrides, field):
        with pytest.raises(ScoreMatrixError, match=f"{field} has {len(overrides[field])} entries for 2 benchmarks"):
            small_matrix(**overrides)

    def test_ids_whitespace_trimmed(self):
        m = small_matrix(benchmark_ids=[" acc", "bpb "], model_ids=["A ", " B"])
        assert m.benchmark_ids == ("acc", "bpb")
        assert m.model_ids == ("A", "B")

    def test_arrays_are_read_only(self):
        m = small_matrix()
        with pytest.raises(ValueError):
            m.scores[0, 0] = 0.0


class TestOrientation:
    def test_higher_is_identity(self):
        m = small_matrix()
        assert np.array_equal(oriented_scores(m, "acc"), [0.3, 0.7])

    def test_lower_is_negated(self):
        m = small_matrix()
        assert np.array_equal(oriented_scores(m, "bpb"), [-1.1, -0.9])

    def test_empty_model_list(self):
        m = make_score_matrix(["b"], [], np.zeros((1, 0)), np.zeros((1, 0)))
        assert oriented_scores(m, "b").shape == (0,)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            oriented_scores(small_matrix(), "nope")

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_double_negation_is_exact(self, values):
        row = np.array(values)
        m = make_score_matrix(["b"], [f"m{i}" for i in range(len(values))], [row], [np.zeros_like(row)], direction=["lower"])
        flipped = oriented_scores(m, "b")
        assert np.array_equal(-flipped, row)

    def test_oriented_bpb_ranking_matches_ascending_raw(self):
        raw = np.array([1.4, 0.7, 1.1, 0.9])
        m = make_score_matrix(["ppl"], list("WXYZ"), [raw], [np.zeros_like(raw)], direction=["lower"])
        oriented = oriented_scores(m, "ppl")
        assert np.array_equal(np.argsort(-oriented), np.argsort(raw))


class TestLookups:
    def test_unknown_model_id(self):
        assert small_matrix().model_index("B") == 1
        with pytest.raises(KeyError, match="unknown model id 'nope'"):
            small_matrix().model_index("nope")

    def test_degenerate_repr(self):
        assert repr(DEGENERATE) == "DEGENERATE"


class TestRecords:
    def test_model_record_ok(self):
        rec = ModelRecord("Llama-3-8B", "Llama", 8.03, 15000.0, False)
        assert rec.token_count == 15000.0

    def test_model_record_optional_tokens(self):
        assert ModelRecord("m", "f", 1.0).token_count is None

    @pytest.mark.parametrize("params,tokens", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -5.0)])
    def test_model_record_invalid(self, params, tokens):
        with pytest.raises(ValueError):
            ModelRecord("m", "f", params, tokens)

    def test_benchmark_record_category_closed_set(self):
        assert BenchmarkRecord("mnli", "LU").category == "LU"
        with pytest.raises(ValueError, match="category"):
            BenchmarkRecord("mnli", "NLU")
