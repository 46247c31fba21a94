"""File formats: long-format score CSV, canonical JSON, metadata tables.

The long CSV has header ``benchmark,model,score,stderr,n,direction`` and
one row per (benchmark, model) cell; every pair must appear exactly once.
``n`` may be empty; ``direction`` is ``higher`` or ``lower`` and must be
consistent within a benchmark.  Lines starting with ``#`` are comments
(run manifests are embedded that way) and are skipped on load.

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


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


def _fmt_float(x: float) -> str:
    return repr(float(x))


def render_scores_csv(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    buf = _stdio.StringIO()
    buf.write(f"# format_version: {FORMAT_VERSION}\n")
    if manifest is not None:
        buf.write("# manifest: " + json.dumps(manifest.to_dict(), separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    for i, b in enumerate(m.benchmark_ids):
        n = "" if m.n_items[i] is None else str(m.n_items[i])
        for j, mod in enumerate(m.model_ids):
            writer.writerow(
                [b, mod, _fmt_float(m.scores[i, j]), _fmt_float(m.stderrs[i, j]), n, m.direction[i]]
            )
    return buf.getvalue()


def render_scores_json(m: ScoreMatrix, manifest: RunManifest | None = None) -> str:
    payload = {"format_version": FORMAT_VERSION, "kind": "score_matrix"}
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    payload.update(
        {
            "benchmark_ids": list(m.benchmark_ids),
            "model_ids": list(m.model_ids),
            "direction": list(m.direction),
            "n_items": list(m.n_items),
            "scores": [[float(v) for v in row] for row in m.scores],
            "stderrs": [[float(v) for v in row] for row in m.stderrs],
        }
    )
    return json.dumps(payload, indent=2) + "\n"


def infer_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "long-csv"
    if suffix == ".json":
        return "canonical-json"
    raise LoadError(f"cannot infer score format from suffix {suffix!r}; pass the format explicitly")


def save_scores(path: str | Path, m: ScoreMatrix, fmt: str | None = None, manifest: RunManifest | None = None) -> None:
    fmt = fmt or infer_format(path)
    if fmt == "long-csv":
        text = render_scores_csv(m, manifest)
    elif fmt == "canonical-json":
        text = render_scores_json(m, manifest)
    else:
        raise LoadError(f"unknown score format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def _parse_csv_lines(path: str | Path, expected_header: list[str]):
    """Yield (line_number, fields) for data rows after checking the header."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise LoadError(f"{path}: file not found") from None
    rows = []
    header_seen = False
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        if line.strip() == "":
            continue
        parsed = next(csv.reader([line]))
        if not header_seen:
            if [h.strip() for h in parsed] != expected_header:
                raise LoadError(
                    f"{path}:{ln}: missing or malformed header; expected {','.join(expected_header)!r}"
                )
            header_seen = True
            continue
        if len(parsed) != len(expected_header):
            raise LoadError(f"{path}:{ln}: expected {len(expected_header)} fields, got {len(parsed)}")
        rows.append((ln, parsed))
    if not header_seen:
        raise LoadError(f"{path}: missing header; expected {','.join(expected_header)!r}")
    return rows


def _parse_float(raw: str, path, ln: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise LoadError(f"{path}:{ln}: cannot parse {what} {raw!r}") from None


def load_scores(path: str | Path, fmt: str | None = None) -> ScoreMatrix:
    """Read a score matrix from long CSV or canonical JSON.

    Every (benchmark, model) pair must appear exactly once and the matrix
    must be complete; sparse input is rejected rather than imputed.
    """
    fmt = fmt or infer_format(path)
    if fmt == "canonical-json":
        return _load_scores_json(path)
    if fmt != "long-csv":
        raise LoadError(f"unknown score format {fmt!r}")
    benchmarks: list[str] = []
    models: dict[str, None] = {}  # insertion-ordered set
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    direction: dict[str, str] = {}
    n_items: dict[str, int | None] = {}
    for ln, fields in _parse_csv_lines(path, SCORE_CSV_HEADER):
        b, mod, raw_score, raw_se, raw_n, raw_dir = (f.strip() for f in fields)
        score = _parse_float(raw_score, path, ln, "score")
        stderr = _parse_float(raw_se, path, ln, "stderr")
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
        if (b, mod) in cells:
            raise LoadError(f"{path}:{ln}: duplicate row for benchmark {b!r}, model {mod!r}")
        if b not in direction:
            benchmarks.append(b)
            direction[b] = raw_dir
            n_items[b] = n
        else:
            if direction[b] != raw_dir:
                raise LoadError(f"{path}:{ln}: benchmark {b!r} has conflicting directions")
            if n_items[b] != n:
                raise LoadError(f"{path}:{ln}: benchmark {b!r} has conflicting n values")
        models.setdefault(mod)
        cells[(b, mod)] = (score, stderr)
    if not cells:
        raise LoadError(f"{path}: no data rows")
    missing = [(b, mod) for b in benchmarks for mod in models if (b, mod) not in cells]
    if missing:
        b, mod = missing[0]
        raise LoadError(
            f"{path}: incomplete matrix; missing cell for benchmark {b!r}, model {mod!r}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
        )
    scores = np.array([[cells[(b, mod)][0] for mod in models] for b in benchmarks])
    stderrs = np.array([[cells[(b, mod)][1] for mod in models] for b in benchmarks])
    return make_score_matrix(
        benchmarks,
        models,
        scores,
        stderrs,
        n_items=[n_items[b] for b in benchmarks],
        direction=[direction[b] for b in benchmarks],
    )


def load_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level is an object; any failure raises :class:`LoadError`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise LoadError(f"{path}: file not found") from None
    except json.JSONDecodeError as e:
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
    try:
        return make_score_matrix(
            payload["benchmark_ids"],
            payload["model_ids"],
            payload["scores"],
            payload["stderrs"],
            n_items=payload["n_items"],
            direction=payload["direction"],
        )
    except (TypeError, ValueError) as e:
        if isinstance(e, LoadError):
            raise
        raise LoadError(f"{path}: {e}") from e


def load_model_metadata(path: str | Path) -> list[ModelRecord]:
    """Read model metadata CSV: ``model,family,params_b,tokens_b,instruction_tuned``.

    An empty ``tokens_b`` means the training-token count is not public;
    such models are kept but excluded from compute-based analyses.
    """
    records = []
    seen = set()
    for ln, fields in _parse_csv_lines(path, MODEL_CSV_HEADER):
        model, family, raw_params, raw_tokens, raw_it = (f.strip() for f in fields)
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
    for ln, fields in _parse_csv_lines(path, CATEGORY_CSV_HEADER):
        benchmark, category = (f.strip() for f in fields)
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
