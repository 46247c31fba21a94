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
by column, stripping or parsing each distinct raw id, direction and ``n``
once, and each distinct score and stderr string once when at most 40% of
those strings are distinct (k/n scores repeat; past that share the count
costs more than it saves, and every string is parsed); any other is read row
by row, by the one reader that names the line of an error.  The column parser needs six fields a line, by an exact count:
one right modulo six would read two short lines as one row.  The CLI reads
each input file once, when the run manifest hashes it; the loader parses
those bytes.

Floats are serialized with Python's shortest round-trip representation,
so write -> read -> write is byte-stable.  Artifacts carry no timestamps:
identical inputs and flags produce identical bytes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io as _stdio
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .core import BenchmarkRecord, DIRECTIONS, ModelRecord, ScoreMatrix, make_score_matrix
from .lowrank import compute_flops

FORMAT_VERSION = 1
SCORE_CSV_HEADER = ["benchmark", "model", "score", "stderr", "n", "direction"]
MODEL_CSV_HEADER = ["model", "family", "params_b", "tokens_b", "instruction_tuned"]
CATEGORY_CSV_HEADER = ["benchmark", "category"]
#: the bulk CSV loader parses each distinct score and stderr string once when at most this share of them is
#: distinct (the break-even measured on 19,200 k/n strings); above it, it parses every string
_PARSE_ONCE_SHARE = 0.4

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
    """A file option's path, as the CLI parser types it (no I/O); :func:`_read` keeps its bytes once read."""


def _read(path: str | Path, binary: bool = False) -> str | bytes:
    """A file's bytes, or its text as ``open`` reads it; a bad file raises :class:`LoadError`.

    An :class:`_Input` keeps its bytes from their first read (the manifest's hash) until a text read takes them.
    """
    try:
        kept = vars(path) if type(path) is _Input else {}
        data = kept.pop("data") if "data" in kept else Path(path).read_bytes()
        if binary:
            kept["data"] = data
            return data
        text = data.decode("utf-8")
        return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
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


def _envelope(kind: str, manifest: RunManifest | None) -> dict:
    """The leading keys of every JSON artifact: format version, kind and the run manifest, if any."""
    payload = {"format_version": FORMAT_VERSION, "kind": kind}
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    return payload


def render_scores_json(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    payload = _envelope("score_matrix", manifest)
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


def _parse(kind: type, raw: str, what: str):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"cannot parse {what} {raw!r}") from None


def load_scores(path: str | Path) -> ScoreMatrix:
    """Read a score matrix from long CSV or canonical JSON, chosen by the path's suffix.

    Every (benchmark, model) pair must appear exactly once and the matrix
    must be complete; sparse input is rejected rather than imputed.  A matrix
    that :func:`make_score_matrix` refuses raises :class:`LoadError` naming the path.
    """
    if infer_format(path) == "canonical-json":
        columns = _load_scores_json(path)
    else:
        text = _read(path)
        columns = _score_columns(text) or _score_rows(path, text)
    try:
        return make_score_matrix(*columns)
    except (TypeError, ValueError, OverflowError) as e:
        raise LoadError(f"{path}: {e}") from e


def _score_columns(text: str) -> tuple | None:
    """What :func:`_score_rows` returns, parsed column by column; ``None`` unless every row is clean.

    Clean rows hold no quote (so commas split them as ``csv.reader`` does) and pass every check there.
    Data lines are joined by ``",\\n"`` (one also leads) and split once: each has 6 fields iff ``n`` lines give
    ``1 + 6 * n`` fields and every benchmark field opens a line.  A count right only modulo 6 reads ``b0,A,0.5``
    and ``0.01,,higher`` as one row, since ``float()`` strips the ``"\\n"`` of ``"\\n0.01"``.
    Each distinct raw id, direction and ``n`` is stripped or parsed once; numbers are parsed unstripped, since
    ``float()`` and ``int()`` take 25 of ``str.strip``'s 29 pads and refuse ``'\\x1c'``-``'\\x1f'``, so those
    fall back.  Scores and stderrs are parsed by one ``np.array(..., dtype=float)`` call: of each distinct string
    when at most ``_PARSE_ONCE_SHARE`` (40%) of the ``2 * rows`` strings are distinct (the score column is
    counted first, and alone may pass the limit), else of every string.  Both give the same bits, since a
    float64 survives ``.tolist()`` and ``np.fromiter`` unchanged; the share chooses only the faster one.
    """
    lines = [line for line in text.splitlines() if line.strip() and line[0] != "#"]  # the lines _csv_rows keeps
    width = len(SCORE_CSV_HEADER)
    if len(lines) < 2 or [f.strip() for f in lines[0].split(",")] != SCORE_CSV_HEADER:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # a line (and so maybe a field) longer than csv.reader allows
    joined = ",\n" + ",\n".join(lines[1:])
    fields = joined.split(",")
    if '"' in joined or len(fields) != 1 + width * (len(lines) - 1):
        return None
    del lines
    b_col, m_col, s_col, e_col, n_col, d_col = (fields[k + 1 :: width] for k in range(width))
    rows = len(b_col)
    b_at, m_at = {}, {}  # stripped id -> index, in first-seen order; b_of and m_of map each raw id to it
    b_of = {raw: b_at.setdefault(raw.strip(), len(b_at)) for raw in dict.fromkeys(b_col)}
    if not all(raw[:1] == "\n" for raw in b_of):
        return None
    m_of = {raw: m_at.setdefault(raw.strip(), len(m_at)) for raw in dict.fromkeys(m_col)}
    limit = _PARSE_ONCE_SHARE * 2 * rows
    distinct = set(s_col)  # the score column first: on distinct values it alone passes the limit
    if len(distinct) <= limit:
        distinct.update(e_col)
    try:
        n_of = {raw: int(raw) if raw.strip() else None for raw in dict.fromkeys(n_col)}
        if len(distinct) <= limit:  # the same conversion of each string, and float64 -> float -> float64 is exact
            raws = [*distinct]
            parsed = dict(zip(raws, np.array(raws, dtype=float).tolist()))
            values = np.fromiter(map(parsed.__getitem__, chain(s_col, e_col)), float, 2 * rows).reshape(2, rows)
        else:
            values = np.array([s_col, e_col], dtype=float)
    except ValueError:
        return None
    # one (benchmark, direction, n) per benchmark iff every row agrees with its benchmark's first
    heads = {(b_of[b], d.strip(), n_of[n]) for b, d, n in dict.fromkeys(zip(b_col, d_col, n_col))}
    valid = all(d in DIRECTIONS and (n is None or n >= 1) for _, d, n in heads)
    if not valid or len(b_at) != len(heads) or len(b_at) * len(m_at) != rows:
        return None
    cell = np.fromiter(map(b_of.__getitem__, b_col), np.intp, rows) * len(m_at)
    cell += np.fromiter(map(m_of.__getitem__, m_col), np.intp, rows)
    if (np.bincount(cell, minlength=rows) != 1).any():  # a duplicate, and so a missing cell
        return None
    matrices = np.empty((2, rows))
    matrices[:, cell] = values
    _, directions, n_items = zip(*sorted(heads))  # one triple per benchmark index, so the sort compares only those
    return b_at, m_at, *matrices.reshape(2, len(b_at), len(m_at)), n_items, directions


def _score_rows(path: str | Path, text: str) -> tuple:
    """A long CSV's ids, scores, stderrs, ``n`` and directions; a bad row raises a :class:`LoadError` naming it."""
    benchmarks: dict[str, tuple[str, int | None]] = {}  # first-seen id -> (direction, n)
    models: dict[str, None] = {}  # insertion-ordered set
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    for ln, (b, mod, raw_score, raw_se, raw_n, raw_dir) in _csv_rows(path, SCORE_CSV_HEADER, text):
        try:
            cell = (_parse(float, raw_score, "score"), _parse(float, raw_se, "stderr"))
            n = None if raw_n == "" else _parse(int, raw_n, "n")
            if n is not None and n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
            if raw_dir not in DIRECTIONS:
                raise ValueError(f"direction must be one of {DIRECTIONS}, got {raw_dir!r}")
            if cells.setdefault((b, mod), cell) is not cell:
                raise ValueError(f"duplicate row for benchmark {b!r}, model {mod!r}")
            first_dir, first_n = benchmarks.setdefault(b, (raw_dir, n))
            if first_dir != raw_dir:
                raise ValueError(f"benchmark {b!r} has conflicting directions")
            if first_n != n:
                raise ValueError(f"benchmark {b!r} has conflicting n values")
        except ValueError as e:
            raise LoadError(f"{path}:{ln}: {e}") from None
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


def _load_scores_json(path: str | Path) -> tuple:
    """What :func:`_score_rows` returns, from a canonical JSON file whose keys hold the right types."""
    payload = load_json_object(path)
    for key in ARTIFACT_SCHEMAS["score_matrix"]:
        if key not in payload:
            raise LoadError(f"{path}: missing key {key!r}")
    if not isinstance(payload["n_items"], list):
        raise LoadError(f"{path}: n_items must be a list of integers >= 1 or null")
    for key in ("benchmark_ids", "model_ids", "direction"):
        if not isinstance(payload[key], list) or not all(isinstance(v, str) for v in payload[key]):
            raise LoadError(f"{path}: {key} must be a list of strings")
    for key in ("scores", "stderrs"):  # json.loads makes exact built-in types, so an exact type test refuses bool
        rows = payload[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) and {*map(type, r)} <= {int, float} for r in rows):
            raise LoadError(f"{path}: {key} must be a list of rows of numbers")
    return tuple(payload[key] for key in ("benchmark_ids", "model_ids", "scores", "stderrs", "n_items", "direction"))


def _records(path: str | Path, header: list[str], what: str, build) -> list:
    """``build(*fields)`` of each data row of a metadata CSV whose first field is a unique id.

    A duplicate id, or a row ``build`` refuses with ``ValueError``, raises a
    :class:`LoadError` naming the line; a file without rows names ``what``.
    """
    records = []
    seen = set()
    for ln, fields in _csv_rows(path, header, _read(path)):
        try:
            if fields[0] in seen:
                raise ValueError(f"duplicate {header[0]} {fields[0]!r}")
            seen.add(fields[0])
            records.append(build(*fields))
        except ValueError as e:
            raise LoadError(f"{path}:{ln}: {e}") from None
    if not records:
        raise LoadError(f"{path}: no {what} rows")
    return records


def _model_record(model: str, family: str, raw_params: str, raw_tokens: str, raw_it: str) -> ModelRecord:
    params = _parse(float, raw_params, "params_b")
    tokens = None if raw_tokens == "" else _parse(float, raw_tokens, "tokens_b")
    if raw_it.lower() not in ("true", "false"):
        raise ValueError(f"instruction_tuned must be true or false, got {raw_it!r}")
    record = ModelRecord(model, family, params, tokens, raw_it.lower() == "true")
    if tokens is not None:
        compute_flops(params, tokens)  # a product outside float64's range is this row's error
    return record


def load_model_metadata(path: str | Path) -> list[ModelRecord]:
    """Read model metadata CSV: ``model,family,params_b,tokens_b,instruction_tuned``.

    An empty ``tokens_b`` means the training-token count is not public;
    such models are kept but excluded from compute-based analyses.
    """
    return _records(path, MODEL_CSV_HEADER, "model", _model_record)


def load_benchmark_categories(path: str | Path) -> list[BenchmarkRecord]:
    """Read benchmark category CSV: ``benchmark,category``."""
    return _records(path, CATEGORY_CSV_HEADER, "category", BenchmarkRecord)


def render_artifact(payload: dict) -> str:
    """Artifact text: byte for byte what ``json.dumps`` writes at ``indent=2`` and ``allow_nan=False``, plus a newline.

    Any ``indent`` sends ``json.dumps`` through its pure-Python encoder, so
    this emitter walks only the containers that hold other containers.  Every
    other dict, list or tuple, a container of scalars, is encoded by one call
    of the stdlib's C encoder, whose item separator is a comma, a newline and
    the indent of the container's items.  An encoded JSON string never holds
    a raw newline, so those separators are the only line breaks between the
    brackets, and each item sits on its own line as ``indent=2`` lays it out.
    A list or tuple of records (all non-empty dicts, or all non-empty lists or
    tuples, of scalars) is one call too: no encoded scalar ends in a bracket or
    holds a raw newline, so a closing bracket, separator and opening bracket meet only between records.
    Scalars and keys are encoded by the stdlib too, so a NaN or infinite float
    raises ``ValueError`` ("... not JSON compliant") instead of writing
    invalid JSON, and a value or key ``json.dumps`` refuses raises
    ``TypeError``.  The payload must be a tree: a container that holds itself
    recurses without end.
    """
    return _emit(payload, 0) + "\n"


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(depth: int):
    """``encode`` of a container of scalars at nesting ``depth``: one item per line, indented one level deeper."""
    return json.JSONEncoder(allow_nan=False, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _emit(value: dict | list | tuple, depth: int) -> str:
    """``value`` as ``json.dumps`` lays it out at ``indent=2`` and nesting ``depth``, without a trailing newline."""
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return opening + closing
    inner = "\n" + "  " * (depth + 1)
    encode = _encoder(depth)
    items = value.values() if opening == "{" else value
    if any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        if not (body := opening == "[" and _record_list_body(value, depth, inner)):
            items = [_emit(v, depth + 1) if isinstance(v, _CONTAINERS) else encode(v) for v in items]
            if opening == "{":
                items = [f"{_key(k, encode)}: {v}" for k, v in zip(value, items)]
            body = ("," + inner).join(items)
    else:
        body = encode(value)[1:-1]
    return f"{opening}{inner}{body}\n{'  ' * depth}{closing}"


def _record_list_body(value: list | tuple, depth: int, inner: str) -> str | None:
    """:func:`_emit`'s body of a list of records (see :func:`render_artifact`), in one encode; else ``None``."""
    kind, (o, c) = (dict, "{}") if isinstance(value[0], dict) else ((list, tuple), "[]")
    records = [r.values() if kind is dict else r for r in value if isinstance(r, kind) and r]
    if len(records) < len(value) or any(issubclass(t, _CONTAINERS) for t in {*map(type, chain(*records))}):
        return None
    body = _encoder(depth + 1)(value)[2:-2].replace(f"{c},{inner}  {o}", f"{inner}{c},{inner}{o}{inner}  ")
    return f"{o}{inner}  {body}{inner}{c}"


def _key(key, encode) -> str:
    """A dict key as JSON text; a non-str key is converted first, as ``json.dumps`` converts it."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:  # bool is an int
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = encode(key)
    return encode(key)


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
