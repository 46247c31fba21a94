"""File formats: long-format score CSV, canonical JSON, metadata tables.

A score file's suffix selects its format, ``.csv`` or ``.json``; any other
raises ``<path>: unsupported score file suffix '.txt'; use .csv or .json``.

The long CSV has header ``benchmark,model,score,stderr,n,direction`` and
one row per (benchmark, model) cell; every pair must appear exactly once.
``n`` may be empty; ``direction`` is ``higher`` or ``lower`` and must be
consistent within a benchmark.  Each line is one record, fields are
whitespace-trimmed, and blank lines and lines starting with ``#`` are
skipped (run manifests are embedded as ``#`` comments).  So the writer
raises ``ValueError`` for a benchmark id that starts with ``#`` and for any
id holding a character ``str.splitlines`` breaks on; use ``.json`` for those.
A file whose kept lines hold no ``"`` and pass every check is parsed column
by column; any other is read row by row, by the one reader that names the
line of an error.  The CLI reads each input file once.

Floats are serialized with Python's shortest round-trip representation,
so write -> read -> write is byte-stable.  Artifacts carry no timestamps:
identical inputs and flags produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io as _stdio
import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import BenchmarkRecord, DIRECTIONS, ModelRecord, ScoreMatrix, make_score_matrix

FORMAT_VERSION = 1
SCORE_CSV_HEADER = ["benchmark", "model", "score", "stderr", "n", "direction"]
MODEL_CSV_HEADER = ["model", "family", "params_b", "tokens_b", "instruction_tuned"]
CATEGORY_CSV_HEADER = ["benchmark", "category"]

#: Required keys per artifact kind, used by :func:`validate_artifact`.
ARTIFACT_SCHEMAS = {
    "score_matrix": ["benchmark_ids", "model_ids", "direction", "n_items", "scores", "stderrs"],
    "agreement": ["method", "alpha", "benchmark_ids", "values", "mean_agreement"],
    "alignment": ["alpha", "tables"],
    "pca": ["preprocessing", "eigenvalues", "explained_variance_ratio", "top_k", "pc1_scores"],
    "flops": ["models", "excluded"],
    "mean_agreement": ["benchmark_ids", "modes"],
    "category_agreement": ["categories", "modes"],
    "evr": ["modes"],
    "pc1_compute": ["models", "tau"],
}


class LoadError(ValueError):
    """Malformed input file; the message carries the line number when known."""


class _Input(str):
    """An input path holding its bytes, read once, until one text read takes them; it formats as the path."""

    def __new__(cls, path: str):
        self = super().__new__(cls, path)
        self.data = _read(path, binary=True)
        return self


def _read(path: str | Path, binary: bool = False) -> str | bytes:
    """A file's (or :class:`_Input`'s) bytes, or its text as ``open`` reads it; a bad file raises :class:`LoadError`."""
    try:
        data = (path.data if binary else vars(path).pop("data")) if type(path) is _Input else Path(path).read_bytes()
        return data if binary else data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except FileNotFoundError:
        raise LoadError(f"{path}: file not found") from None
    except UnicodeDecodeError as e:
        raise LoadError(f"{path}: not UTF-8 text: {e}") from None


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(_read(path, binary=True)).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every emitted artifact.

    Records the subcommand, each input file with the sha256 of its bytes,
    the resolved flag values, and the tool version.  Deliberately excludes
    timestamps and host details so that identical runs produce identical
    artifacts.
    """

    subcommand: str
    tool_version: str
    inputs: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    @classmethod
    def build(cls, subcommand: str, input_paths: dict, flags: dict, tool_version: str) -> "RunManifest":
        inputs = {
            name: {"path": str(p), "sha256": file_sha256(p)} for name, p in sorted(input_paths.items())
        }
        return cls(subcommand=subcommand, inputs=inputs, flags=flags, tool_version=tool_version)

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "tool_version": self.tool_version,
            "inputs": self.inputs,
            "flags": {k: self.flags[k] for k in sorted(self.flags)},
        }


def render_scores_csv(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    for b in m.benchmark_ids:
        if b.startswith("#"):
            raise ValueError(f"benchmark id {b!r} starts with '#', which a long CSV reads as a comment; use .json")
    for i in m.benchmark_ids + m.model_ids:
        if "".join(i.splitlines()) != i:
            raise ValueError(f"id {i!r} holds a line break, which a long CSV cannot read back; use .json")
    # quote each id once as csv.writer does (the row [id, ""] is the line "<id>,"); no other field needs quoting
    buf = _stdio.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([i, ""] for i in m.benchmark_ids + m.model_ids)
    quoted = [line[:-1] for line in buf.getvalue().splitlines()]
    benchmarks, models = quoted[: m.n_benchmarks], quoted[m.n_benchmarks :]
    lines = [f"# format_version: {FORMAT_VERSION}\n"]
    if manifest is not None:
        lines.append("# manifest: " + json.dumps(manifest.to_dict(), separators=(",", ":")) + "\n")
    lines.append(",".join(SCORE_CSV_HEADER) + "\n")
    for b, n, d, scores, stderrs in zip(benchmarks, m.n_items, m.direction, m.scores.tolist(), m.stderrs.tolist()):
        head, tail = f"{b},", f",{'' if n is None else str(n)},{d}\n"
        lines.append("".join([f"{head}{mod},{s!r},{e!r}{tail}" for mod, s, e in zip(models, scores, stderrs)]))
    return "".join(lines)


def render_scores_json(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    payload = {"format_version": FORMAT_VERSION, "kind": "score_matrix"}
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    payload.update(
        benchmark_ids=list(m.benchmark_ids),
        model_ids=list(m.model_ids),
        direction=list(m.direction),
        n_items=list(m.n_items),
        scores=m.scores.tolist(),
        stderrs=m.stderrs.tolist(),
    )
    return render_artifact(payload)


def infer_format(path: str | Path) -> str:
    """The score format a path's suffix selects; an unsupported suffix raises :class:`LoadError`."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "long-csv"
    if suffix == ".json":
        return "canonical-json"
    raise LoadError(f"{path}: unsupported score file suffix {suffix!r}; use .csv or .json")


def save_scores(path: str | Path, m: ScoreMatrix, manifest: RunManifest | None = None) -> None:
    render = render_scores_csv if infer_format(path) == "long-csv" else render_scores_json
    Path(path).write_text(render(m, manifest), encoding="utf-8")


def _csv_rows(path: str | Path, header: list[str], text: str) -> list[tuple[int, list[str]]]:
    """``(line number, stripped fields)`` for each data row, after the header and field-count checks.

    Each physical line is one record (a quote left open closes at the end
    of its line); blank lines and lines starting with ``#`` are skipped.
    """
    rows = []
    header_seen = False
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#") or line.strip() == "":
            continue
        try:
            fields = [f.strip() for f in next(csv.reader([line]))]
        except csv.Error as e:
            raise LoadError(f"{path}:{ln}: {e}") from None
        if not header_seen:
            if fields != header:
                raise LoadError(f"{path}:{ln}: missing or malformed header; expected {','.join(header)!r}")
            header_seen = True
        elif len(fields) != len(header):
            raise LoadError(f"{path}:{ln}: expected {len(header)} fields, got {len(fields)}")
        else:
            rows.append((ln, fields))
    if not header_seen:
        raise LoadError(f"{path}: missing header; expected {','.join(header)!r}")
    return rows


def _parse_float(raw: str, path, ln: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise LoadError(f"{path}:{ln}: cannot parse {what} {raw!r}") from None


def load_scores(path: str | Path) -> ScoreMatrix:
    """Read a score matrix from long CSV or canonical JSON, chosen by the path's suffix.

    Every (benchmark, model) pair must appear exactly once and the matrix
    must be complete; sparse input is rejected rather than imputed.
    """
    if infer_format(path) == "canonical-json":
        return _load_scores_json(path)
    text = _read(path)
    return make_score_matrix(*(_score_columns(text) or _score_rows(path, text)))


def _score_columns(text: str) -> tuple | None:
    """What :func:`_score_rows` returns, parsed column by column; ``None`` unless every row is clean.

    Clean rows hold no quote (so commas split them as ``csv.reader`` does) and pass every check there.
    """
    lines = [line for line in text.splitlines() if line.strip() and line[0] != "#"]  # the lines _csv_rows keeps
    width = len(SCORE_CSV_HEADER)
    if len(lines) < 2 or '"' in "".join(lines) or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    if [f.strip() for f in lines[0].split(",")] != SCORE_CSV_HEADER or max(map(len, lines)) > csv.field_size_limit():
        return None  # a bad header, or a line (and so maybe a field) longer than csv.reader allows
    fields = ",".join(lines[1:]).split(",")
    del lines
    b_col, m_col, s_col, e_col, n_col, d_col = (list(map(str.strip, fields[k::width])) for k in range(width))
    rows = len(b_col)
    try:
        n_of = {raw: int(raw) if raw else None for raw in dict.fromkeys(n_col)}
        values = [list(map(float, s_col)), list(map(float, e_col))]
    except ValueError:
        return None
    # one (id, direction, n) per benchmark iff every row agrees with its benchmark's first
    heads = dict.fromkeys(zip(b_col, d_col, map(n_of.__getitem__, n_col)))
    b_at = {b: i for i, b in enumerate(dict.fromkeys(b_col))}
    m_at = {mod: j for j, mod in enumerate(dict.fromkeys(m_col))}
    valid = all(d in DIRECTIONS and (n is None or n >= 1) for _, d, n in heads)
    if not valid or len(b_at) != len(heads) or len(b_at) * len(m_at) != rows:
        return None
    cell = np.fromiter(map(b_at.__getitem__, b_col), np.intp, rows) * len(m_at)
    cell += np.fromiter(map(m_at.__getitem__, m_col), np.intp, rows)
    if (np.bincount(cell, minlength=rows) != 1).any():  # a duplicate, and so a missing cell
        return None
    matrices = np.empty((2, rows))
    matrices[:, cell] = values
    _, directions, n_items = zip(*heads)
    return b_at, m_at, *matrices.reshape(2, len(b_at), len(m_at)), n_items, directions


def _score_rows(path: str | Path, text: str) -> tuple:
    """A long CSV's ids, scores, stderrs, ``n`` and directions; a bad row raises a :class:`LoadError` naming it."""
    benchmarks: dict[str, tuple[str, int | None]] = {}  # first-seen id -> (direction, n)
    models: dict[str, None] = {}  # insertion-ordered set
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    for ln, (b, mod, raw_score, raw_se, raw_n, raw_dir) in _csv_rows(path, SCORE_CSV_HEADER, text):
        cell = (_parse_float(raw_score, path, ln, "score"), _parse_float(raw_se, path, ln, "stderr"))
        if raw_n == "":
            n = None
        else:
            try:
                n = int(raw_n)
            except ValueError:
                raise LoadError(f"{path}:{ln}: cannot parse n {raw_n!r}") from None
            if n < 1:
                raise LoadError(f"{path}:{ln}: n must be >= 1, got {n}")
        if raw_dir not in DIRECTIONS:
            raise LoadError(f"{path}:{ln}: direction must be one of {DIRECTIONS}, got {raw_dir!r}")
        if cells.setdefault((b, mod), cell) is not cell:
            raise LoadError(f"{path}:{ln}: duplicate row for benchmark {b!r}, model {mod!r}")
        first_dir, first_n = benchmarks.setdefault(b, (raw_dir, n))
        if first_dir != raw_dir:
            raise LoadError(f"{path}:{ln}: benchmark {b!r} has conflicting directions")
        if first_n != n:
            raise LoadError(f"{path}:{ln}: benchmark {b!r} has conflicting n values")
        models.setdefault(mod)
    if not cells:
        raise LoadError(f"{path}: no data rows")
    if len(cells) < len(benchmarks) * len(models):  # cells are unique, so this means some are missing
        missing = [(b, mod) for b in benchmarks for mod in models if (b, mod) not in cells]
        b, mod = missing[0]
        raise LoadError(
            f"{path}: incomplete matrix; missing cell for benchmark {b!r}, model {mod!r}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
        )
    pairs = np.array([[cells[b, mod] for mod in models] for b in benchmarks])
    directions, n_items = zip(*benchmarks.values())
    return benchmarks, models, pairs[..., 0], pairs[..., 1], n_items, directions


def load_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level is an object; any failure raises :class:`LoadError`."""
    text = _read(path)
    try:
        payload = json.loads(text)
    except ValueError as e:  # a syntax error, or an integer literal over the int-to-str digit limit
        raise LoadError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise LoadError(f"{path}: expected a JSON object")
    return payload


def _load_scores_json(path: str | Path) -> ScoreMatrix:
    payload = load_json_object(path)
    for key in ARTIFACT_SCHEMAS["score_matrix"]:
        if key not in payload:
            raise LoadError(f"{path}: missing key {key!r}")
    if not isinstance(payload["n_items"], list):
        raise LoadError(f"{path}: n_items must be a list of integers >= 1 or null")
    for key in ("benchmark_ids", "model_ids"):
        if not isinstance(payload[key], list) or not all(isinstance(v, str) for v in payload[key]):
            raise LoadError(f"{path}: {key} must be a list of strings")
    for key in ("scores", "stderrs"):  # json.loads makes exact built-in types, so an exact type test refuses bool
        rows = payload[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) and {*map(type, r)} <= {int, float} for r in rows):
            raise LoadError(f"{path}: {key} must be a list of rows of numbers")
    try:
        return make_score_matrix(
            payload["benchmark_ids"],
            payload["model_ids"],
            payload["scores"],
            payload["stderrs"],
            n_items=payload["n_items"],
            direction=payload["direction"],
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise LoadError(f"{path}: {e}") from e


def load_model_metadata(path: str | Path) -> list[ModelRecord]:
    """Read model metadata CSV: ``model,family,params_b,tokens_b,instruction_tuned``.

    An empty ``tokens_b`` means the training-token count is not public;
    such models are kept but excluded from compute-based analyses.
    """
    records = []
    seen = set()
    for ln, (model, family, raw_params, raw_tokens, raw_it) in _csv_rows(path, MODEL_CSV_HEADER, _read(path)):
        if model in seen:
            raise LoadError(f"{path}:{ln}: duplicate model {model!r}")
        seen.add(model)
        params = _parse_float(raw_params, path, ln, "params_b")
        tokens = None if raw_tokens == "" else _parse_float(raw_tokens, path, ln, "tokens_b")
        if raw_it.lower() not in ("true", "false"):
            raise LoadError(f"{path}:{ln}: instruction_tuned must be true or false, got {raw_it!r}")
        try:
            records.append(
                ModelRecord(
                    model_id=model,
                    family=family,
                    param_count=params,
                    token_count=tokens,
                    instruction_tuned=raw_it.lower() == "true",
                )
            )
        except ValueError as e:
            raise LoadError(f"{path}:{ln}: {e}") from None
    if not records:
        raise LoadError(f"{path}: no model rows")
    return records


def load_benchmark_categories(path: str | Path) -> list[BenchmarkRecord]:
    """Read benchmark category CSV: ``benchmark,category``."""
    records = []
    seen = set()
    for ln, (benchmark, category) in _csv_rows(path, CATEGORY_CSV_HEADER, _read(path)):
        if benchmark in seen:
            raise LoadError(f"{path}:{ln}: duplicate benchmark {benchmark!r}")
        seen.add(benchmark)
        try:
            records.append(BenchmarkRecord(benchmark_id=benchmark, category=category))
        except ValueError as e:
            raise LoadError(f"{path}:{ln}: {e}") from None
    if not records:
        raise LoadError(f"{path}: no category rows")
    return records


def render_artifact(payload: dict) -> str:
    """Artifact text; a NaN or infinite float raises ``ValueError`` instead of writing invalid JSON."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def load_artifact(path: str | Path) -> dict:
    payload = load_json_object(path)
    validate_artifact(payload, str(path))
    return payload


def validate_artifact(payload, where: str = "artifact") -> None:
    """Structural check: known kind, format version, required keys present."""
    if not isinstance(payload, dict):
        raise LoadError(f"{where}: expected a JSON object")
    kind = payload.get("kind")
    if kind not in ARTIFACT_SCHEMAS:
        raise LoadError(f"{where}: unknown artifact kind {kind!r}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise LoadError(f"{where}: unsupported format_version {payload.get('format_version')!r}")
    missing = [k for k in ARTIFACT_SCHEMAS[kind] if k not in payload]
    if missing:
        raise LoadError(f"{where}: {kind} artifact missing keys {missing}")
