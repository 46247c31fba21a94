"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in a fresh
single-threaded Python process (``worker.py``), which builds its inputs
from the seed, runs ops in a closed loop for ``--seconds`` and checks the
artifacts.  Six more processes only set up, so that ``setup_s`` is the
median of seven set-ups.  The last line of standard output is the result
as one JSON object; the lines before it restate the metrics for a reader
and give the run's metadata.  Records go to ``perfbench/results/``.

The run pins itself to one CPU, and with it the workers and the
host-speed probe (``probe.py``) it starts.  Every time it reports (op,
set-up and span times) is rescaled by the probe's samples from the same
interval to the probe's reference speed; the raw times are in the record
and on the ``meta`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from tracing import LAYERS, TIME_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 6
#: A run must end within 180 s; children are killed after this long in total.
DEADLINE_S = 170.0
PROBE_STOP_S = 10.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    # fixes set iteration order in the program, which steadies op times
    "PYTHONHASHSEED": "0",
}
END_TO_END = {"op_s": "s", "op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Counts from shapes, results and artifacts: exact, not timed.
COUNTS = {
    "rankstats.pair_tests": "count",
    "rankstats.degenerate_cells": "count",
    "alignment.edges": "count",
    "alignment.crossings": "count",
    "lowrank.eig_residual": "1",
    "synth.cells": "count",
    "io.load_bytes": "B",
    "io.write_bytes": "B",
    "trace.spans": "count",
    "trace.absent": "count",
}
PER_LAYER = {
    "cli.self_s": "s",
    **{name: "s" for name in TIME_METRICS},
    **{f"{layer}.share": "%" for layer in LAYERS},
    **COUNTS,
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_pct": "%",
}
#: Per-layer times rescaled to the probe's reference speed, like the end-to-end times.
RESCALED_LAYER_TIMES = frozenset(TIME_METRICS) | {"cli.self_s"}


class RunError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def pin_to_one_cpu() -> int | None:
    """Confine this process, and so every process it starts, to its highest usable CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def start_probe(out: Path) -> subprocess.Popen:
    """Start the host-speed probe and wait for its first sample."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--out", str(out)], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    if proc.stdout.readline().strip() != "ready":
        stop_probe(proc)
        raise RunError("the host-speed probe did not start")
    return proc


def stop_probe(proc: subprocess.Popen) -> None:
    """Ask the probe to write its samples and end; kill it if it does not. Waits either way."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=PROBE_STOP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def spawn(args, work: Path, out: Path, deadline: float, setup_only: bool, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.small:
        cmd.append("--small")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {DEADLINE_S:g} s of the run's start") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    rec = json.loads(out.read_text(encoding="utf-8"))
    rec["t0"] = t0
    return rec


def rescale(speed: list, setups: list[dict], rec: dict) -> None:
    """Give every set-up and op the factor that rescales its times to the probe's reference speed."""
    for s in setups:
        s["speed_factor"] = probe.speed_factor(speed, s["t0"], s["t0"] + s["setup_s"])
    for o in rec["ops"]:
        o["speed_factor"] = probe.speed_factor(speed, o["start"], o["end"])


def summarize(args, rec: dict, setups: list[dict]) -> tuple[dict, int, int]:
    ops = rec["ops"]
    attempted = 1 + len(ops)
    if rec["gate_errors"]:
        failed = attempted
    else:
        failed = sum(1 for o in ops if o["errors"])
    plain = [o for o in ops if not o["traced"]]
    if args.trace:
        traced = [o for o in ops if o["traced"]]
        metrics = {
            k: v if k in COUNTS else statistics.median(
                o["layers"][k] * (o["speed_factor"] if k in RESCALED_LAYER_TIMES else 1.0) for o in traced
            )
            for k, v in traced[0]["layers"].items()
        }
        metrics["trace.op_s"] = statistics.median(o["wall_s"] * o["speed_factor"] for o in traced)
        metrics["trace.untraced_op_s"] = statistics.median(o["wall_s"] * o["speed_factor"] for o in plain)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.op_s"] / metrics["trace.untraced_op_s"] - 1.0)
        metrics["trace.absent"] = len(rec["absent"])
        units = PER_LAYER
    else:
        metrics = {
            "op_s": statistics.median(o["wall_s"] * o["speed_factor"] for o in plain),
            "op_cpu_s": statistics.median(o["cpu_s"] * o["speed_factor"] for o in plain),
            "setup_s": statistics.median(s["setup_s"] * s["speed_factor"] for s in setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = END_TO_END
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, attempted, failed


def metadata(args, rec: dict, setups: list[dict], speed: list, cpu: int | None) -> dict:
    plain = [o for o in rec["ops"] if not o["traced"]]
    kernel_s = [dt for _, dt in speed]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": rec["shape"],
        "ops_timed": len(plain),
        "ops_traced": len(rec["ops"]) - len(plain),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_speed_factors": [s["speed_factor"] for s in setups],
        "raw_untraced_op_s": statistics.median(o["wall_s"] for o in plain),
        "raw_untraced_op_cpu_s": statistics.median(o["cpu_s"] for o in plain),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "probe": {
            "samples": len(kernel_s),
            "ref_kernel_s": probe.REF_KERNEL_S,
            "kernel_median_s": statistics.median(kernel_s),
        },
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": rec["numpy"],
        "blas": rec["blas"],
        "thread_env": SINGLE_THREAD_ENV,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "absent_targets": rec["absent"],
        "counts_not_timed": list(COUNTS) if args.trace else [],
        "gate_errors": rec["gate_errors"],
        "op_errors": sorted({e for o in rec["ops"] for e in o["errors"]}),
    }


def _exit_on_sigterm(signum, frame):
    # unwinds through the finally blocks, which stop the probe and the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny shapes, for the smoke test")
    args = p.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "benchrank" / "__init__.py").is_file():
        print(f"error: no benchrank sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    cpu = pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    deadline = start + DEADLINE_S
    host = None
    try:
        host = start_probe(work / "probe.json")
        setups = [
            spawn(args, work / f"setup{k}", work / f"setup{k}.json", deadline, setup_only=True)
            for k in range(SETUP_RUNS)
        ]
        spans = RESULTS / f"{tag}-spans.jsonl" if args.trace else None
        rec = spawn(args, work / "run", work / "run.json", deadline, setup_only=False, spans=spans)
        stop_probe(host)
        try:
            speed = [tuple(s) for s in json.loads((work / "probe.json").read_text(encoding="utf-8"))]
        except (OSError, ValueError):
            raise RunError("the host-speed probe wrote no samples") from None
        setups.append(rec)
        rescale(speed, setups, rec)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if host is not None:
            stop_probe(host)
        shutil.rmtree(work, ignore_errors=True)

    metrics, attempted, failed = summarize(args, rec, setups)
    meta = metadata(args, rec, setups, speed, cpu)
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "ops": rec["ops"]}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{args.workload} seed {args.seed}: {attempted} ops ({meta['ops_traced']} traced), {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"  {'raw untraced op_s':28s} {meta['raw_untraced_op_s']:.6g} s (not rescaled)")
    for e in meta["gate_errors"] + meta["op_errors"]:
        print(f"  check failed: {e}")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
