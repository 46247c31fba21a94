"""In-memory spans around the calls into ``benchrank``'s layers.

The tracer replaces a module attribute (the name a caller looks up at call
time, such as ``benchrank.cli.agreement_matrix``) with a wrapper that
records a span: name, layer, start, end and parent span.  It also keeps
each wrapped call's arguments and result until the op's counts have been
derived from them, outside the timed region.  A target whose module or
attribute no longer exists is reported as absent and skipped.

The layers are the package modules ``cli``, ``io``, ``core``,
``rankstats``, ``alignment``, ``lowrank`` and ``synth``.  Spans sit at
layer boundaries only, never around per-pair helpers, so tracing adds a
few dozen wrapper calls per op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

LAYERS = ("cli", "io", "core", "rankstats", "alignment", "lowrank", "synth")


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    layer: str
    #: per-function self-time metric this span adds to, if any
    metric: str | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("benchrank.cli", "load_scores", "io", "io.load_s"),
    Target("benchrank.cli", "load_benchmark_categories", "io", "io.load_s"),
    Target("benchrank.cli", "load_model_metadata", "io", "io.load_s"),
    Target("benchrank.io", "RunManifest.build", "io", "io.manifest_s"),
    Target("benchrank.cli", "infer_format", "io", "io.render_s"),
    Target("benchrank.cli", "render_artifact", "io", "io.render_s"),
    Target("benchrank.cli", "render_scores_csv", "io", "io.render_s"),
    Target("benchrank.cli", "render_scores_json", "io", "io.render_s"),
    Target("benchrank.cli", "make_score_matrix", "core", "core.validate_s"),
    Target("benchrank.io", "make_score_matrix", "core", "core.validate_s"),
    Target("benchrank.synth", "make_score_matrix", "core", "core.validate_s"),
    Target("benchrank.cli", "oriented_scores", "core"),
    Target("benchrank.cli", "agreement_matrix", "rankstats", "rankstats.agreement_s"),
    Target("benchrank.cli", "mean_agreement", "rankstats", "rankstats.aggregate_s"),
    Target("benchrank.cli", "category_agreement", "rankstats", "rankstats.aggregate_s"),
    Target("benchrank.cli", "rank_models", "alignment"),
    Target("benchrank.alignment", "build_partial_order", "alignment", "alignment.partial_order_s"),
    Target("benchrank.alignment", "parallel_greedy_rank", "alignment", "alignment.greedy_s"),
    Target("benchrank.cli", "crossing_count", "alignment"),
    Target("benchrank.cli", "fit_pca", "lowrank", "lowrank.pca_s"),
    Target("benchrank.cli", "pc1_compute_correlation", "lowrank", "lowrank.pc1_tau_s"),
    Target("benchrank.cli", "compute_flops", "lowrank"),
    Target("benchrank.cli", "explained_variance_share", "lowrank"),
    Target("benchrank.cli", "generate", "synth", "synth.generate_s"),
)

#: Self-time metrics, one per target metric name, in report order.
TIME_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS if t.metric))


@dataclass
class Span:
    name: str
    layer: str
    metric: str | None
    start: float
    end: float
    parent: int | None


class Tracer:
    """Installs wrappers on :data:`TARGETS`; collects spans and calls for one op at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for t in TARGETS:
            try:
                owner = importlib.import_module(t.module)
                *path, name = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                # on a class, take the raw descriptor so a classmethod stays one
                raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(t.key)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, t))
            else:
                wrapped = self._wrap(raw, t)
            setattr(owner, name, wrapped)
            self._restore.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _open(self, name: str, layer: str, metric: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, metric, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "cli"):
        """A span the benchmark itself opens (the op, each CLI call)."""
        idx = self._open(name, layer, None)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, t: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(t.key, t.layer, t.metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.calls.append((t.key, args, kwargs, result))
            return result

        return traced

    def take(self) -> tuple[list[Span], list[tuple[str, tuple, dict, object]]]:
        """Hand over and clear the spans and calls gathered since the last take."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], []
        return spans, calls


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds and shares, plus per-function self seconds, for one op.

    ``spans[0]`` must be the op's root span; time not inside any other
    layer's span is the ``cli`` layer's.
    """
    own = self_times(spans)
    op = spans[0].end - spans[0].start
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_metric = dict.fromkeys(TIME_METRICS, 0.0)
    for s, t in zip(spans, own):
        by_layer[s.layer] += t
        if s.metric:
            by_metric[s.metric] += t
    out = dict(by_metric)
    out["cli.self_s"] = by_layer["cli"]
    for layer in LAYERS:
        out[f"{layer}.share"] = 100.0 * by_layer[layer] / op
    return out
