"""One workload run in a fresh process: set-up, a reference op, a timed loop, the checks.

``run.py`` starts this file with single-threaded BLAS settings and passes
``--t0``, its ``time.monotonic()`` reading just before the start, so the
set-up time covers interpreter start, imports and input generation.  On
Linux ``time.monotonic`` is the system-wide ``CLOCK_MONOTONIC``, so the
readings of the two processes and of the host-speed probe compare; each
op records its start and end on that clock.

The first op is the reference: it runs untimed with the tracer installed,
so the checks can use the program's own results (for example the
eigenvectors behind a PCA artifact), and its artifacts are what every
later op must reproduce byte for byte.  Then ops run back to back for
``--seconds``.  With ``--trace 1`` every other op is traced, so the
tracing overhead is the gap between the traced and untraced medians of
the same run.  The record goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, eig_residuals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    """Import ``benchrank.cli`` from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import benchrank.cli

    if Path(benchrank.cli.__file__).resolve().parent != (SRC / "benchrank").resolve():
        raise RuntimeError(f"benchrank imported from {benchrank.cli.__file__}, not from {SRC}")
    return benchrank.cli


def run_op(cli, calls, tracer=None) -> list[str]:
    """Run one op's CLI calls in order; return why it failed, if it did."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            span = tracer.span(f"cli.run_cli {argv[0]}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    rc = cli.run_cli(list(argv))
            except Exception as e:  # a crashing op counts as failed; the run goes on
                return [f"{argv[0]} raised {type(e).__name__}: {e}"]
            if rc != 0:
                return [f"{argv[0]} exited with {rc}"]
    return []


def read_artifacts(paths) -> tuple[dict, list[str]]:
    found, missing = {}, []
    for p in paths:
        try:
            found[p] = p.read_bytes()
        except FileNotFoundError:
            missing.append(f"missing artifact {p.name}")
    return found, missing


def clear_artifacts(paths) -> None:
    for p in paths:
        p.unlink(missing_ok=True)


def op_counts(calls: list, artifacts) -> dict[str, float]:
    """Counts for one op, computed from the shapes, results and artifacts it produced."""
    counts = dict.fromkeys(
        ("rankstats.pair_tests", "rankstats.degenerate_cells", "alignment.edges", "alignment.crossings",
         "synth.cells", "io.load_bytes"),
        0,
    )
    for key, args, kwargs, result in calls:
        name = key.rsplit(".", 1)[1]
        if name == "agreement_matrix":
            nb, nm = args[0].scores.shape
            counts["rankstats.pair_tests"] += math.comb(nb, 2) * math.comb(nm, 2)
            counts["rankstats.degenerate_cells"] += int(result.degenerate.sum()) // 2
        elif name == "build_partial_order":
            counts["alignment.edges"] += len(result.edges)
        elif name == "crossing_count":
            counts["alignment.crossings"] += int(result)
        elif name == "generate":
            counts["synth.cells"] += int(result.scores.size)
        elif name.startswith("load_"):
            counts["io.load_bytes"] += Path(args[0]).stat().st_size
    counts["lowrank.eig_residual"] = max(eig_residuals(calls), default=0.0)
    counts["io.write_bytes"] = sum(p.stat().st_size for p in artifacts if p.exists())
    return counts


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        return {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    cli = import_cli()
    prep = WORKLOADS[args.workload].prepare(args.work, args.seed, args.small)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}
    if args.setup_only:
        args.out.write_text(json.dumps(record), encoding="utf-8")
        return 0

    tracer = Tracer()
    with tracer:
        ref_errors = run_op(cli, prep.calls, tracer)
    _, ref_calls = tracer.take()
    reference, missing = read_artifacts(prep.artifacts)
    ref_errors += missing
    gate_errors = ref_errors or prep.check(ref_calls)
    # captured arguments and results (up to ~10^5 partial-order edges) would
    # otherwise stay alive through the timed ops and slow the garbage collector
    del ref_calls

    ops = []
    spans_out = []
    loop_start = time.perf_counter()
    min_ops = 2 if args.trace else 1
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(ops) >= min_ops and elapsed + statistics.median(o["wall_s"] for o in ops) > args.seconds:
            break
        traced = bool(args.trace) and len(ops) % 2 == 0
        clear_artifacts(prep.artifacts)
        if traced:
            tracer.install()
        c0, w0 = time.process_time(), time.monotonic()
        if traced:
            with tracer.span("op"):
                errors = run_op(cli, prep.calls, tracer)
        else:
            errors = run_op(cli, prep.calls)
        w1, c1 = time.monotonic(), time.process_time()
        op = {"traced": traced, "start": w0, "end": w1, "wall_s": w1 - w0, "cpu_s": c1 - c0}
        if traced:
            tracer.uninstall()
            spans, calls = tracer.take()
            op["layers"] = {**layer_metrics(spans), **op_counts(calls, prep.artifacts), "trace.spans": len(spans)}
            spans_out.append(spans)
            del calls
        got, missing = read_artifacts(prep.artifacts)
        errors += missing + [f"{p.name} differs from the reference op" for p in got if got[p] != reference.get(p)]
        op["errors"] = errors
        ops.append(op)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.spans is not None and spans_out:
        with open(args.spans, "w", encoding="utf-8") as f:
            for k, spans in enumerate(spans_out):
                for i, s in enumerate(spans):
                    f.write(json.dumps({"op": k, "span": i, **dataclasses.asdict(s)}) + "\n")

    record.update(
        {
            "shape": prep.shape,
            "gate_errors": gate_errors,
            "ops": ops,
            "absent": tracer.absent,
            "numpy": np.__version__,
            "blas": blas_info(),
        }
    )
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
