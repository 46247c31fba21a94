"""A host-speed probe that runs beside the worker, on the same CPU.

On a shared host the speed of one CPU changes with what the neighbours
run: on the 2-core VM where this benchmark was written a fixed
pure-Python loop ran at one of two speeds about 2x apart, switching every
few seconds, and the share of time at the slow speed drifted over
minutes.  A median over a 35-second run then depends on when the run
started more than on the program.

The probe wakes every ``INTERVAL_S``, times one fixed pure-Python kernel
and records ``(start, seconds)`` with ``time.monotonic``, the clock the
worker stamps its ops with.  ``run.py`` pins itself, this probe and every
worker to one CPU, so the kernel sees the same speed as the op that it
interrupts.  :func:`speed_factor` turns the samples taken during an
interval into the factor that rescales a time measured then to the
reference speed, at which the kernel takes ``REF_KERNEL_S``.

    python3 perfbench/probe.py --out samples.json

runs until SIGTERM or SIGINT, then writes the samples as a JSON list.
It prints ``ready`` once the first sample is taken.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
import sys
import time
from pathlib import Path

INTERVAL_S = 0.02
KERNEL_N = 1000
#: The kernel's time at the uncontended speed of the 2-core VM where the
#: benchmark was written, measured while a worker ran on the same CPU.
#: Rescaled times are seconds at that speed; any fixed value would do,
#: because the parent and a change are rescaled alike.
REF_KERNEL_S = 250e-6


def kernel(n: int = KERNEL_N) -> int:
    """Dict updates, integer arithmetic and string building: the interpreter's common work."""
    d: dict[int, int] = {}
    s = 0
    for i in range(n):
        k = i % 101
        d[k] = d.get(k, 0) + (i * 7 ^ k)
        s += len(str(i))
    return s


def speed_factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """``REF_KERNEL_S`` over the mean kernel time of the samples started in ``[start, end)``.

    ``samples`` is sorted by start time.  An interval too short to hold a
    sample takes the sample nearest to its middle.
    """
    if not samples:
        raise ValueError("the probe took no samples")
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
    if hi > lo:
        mean = sum(dt for _, dt in samples[lo:hi]) / (hi - lo)
    else:
        mid = (start + end) / 2.0
        i = min(range(max(lo - 1, 0), min(lo + 1, len(samples))), key=lambda k: abs(starts[k] - mid))
        mean = samples[i][1]
    return REF_KERNEL_S / mean


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    stop = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.append(True))
    samples = []
    while not stop:
        t0 = time.monotonic()
        kernel()
        samples.append((t0, time.monotonic() - t0))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(INTERVAL_S)
    args.out.write_text(json.dumps(samples), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
