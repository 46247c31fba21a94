"""Mutant gate: source mutants of benchrank that the tests must kill.

Run from the repository root::

    python tests/mutants.py

Each mutant is one exact text replacement in one file of ``src/``.  For
each, the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temp directory, applies the replacement there (its text must occur exactly
once), and runs ``CORE_TESTS`` with ``pytest -x``.  The mutant is
killed when a test fails.  A mutant with an ``equivalent`` reason computes
the same results as the program, so no test can kill it; it must survive.
The script prints one line per mutant and exits 1 when a mutant that is not
equivalent survives or an equivalent one is killed.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The tests of the pairwise z-test and everything built on it.
CORE_TESTS = ("tests/test_rankstats.py", "tests/test_alignment.py", "tests/test_oracles.py", "tests/test_acceptance.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None


MUTANTS = [
    Mutant("z-test-ge", "src/benchrank/rankstats.py", "return d, q > critical_z", "return d, q >= critical_z"),
    Mutant(
        "gram-no-triangle-mask",
        "src/benchrank/rankstats.py",
        "        significant[:, :, :k] &= np.triu(np.ones((k, k), dtype=bool))\n",
        "",
    ),
    Mutant(
        "gram-unsigned",
        "src/benchrank/rankstats.py",
        "signs = np.copysign(significant, d, out=d)",
        "signs = (significant * 1.0)",
    ),
    Mutant(
        "gram-column-offset",
        "src/benchrank/rankstats.py",
        "np.s_[:, None, a + 1 :]",
        "np.s_[:, None, a:]",
        equivalent=(
            "each block then also tests its rows against themselves, and a model's gap to itself is 0, "
            "which is never significant (0 / 0 is nan, 0 / x is 0, and critical_z > 0), so those self-pairs "
            "add 0 to the Gram; the triangle mask still drops every pair below the diagonal"
        ),
    ),
]


def run(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a copy of the checkout with the mutant applied.

    Only pytest's exit code 1 (some test failed) is a kill; any other
    failure, such as a collection error, raises instead.
    """
    with tempfile.TemporaryDirectory(prefix="benchrank-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the text to replace occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *CORE_TESTS]
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{mutant.name}: pytest exited with code {proc.returncode}")
        return proc.returncode == 1


def main() -> int:
    start, killed, wrong = time.perf_counter(), 0, 0
    for mutant in MUTANTS:
        dead = run(mutant)
        ok = dead != bool(mutant.equivalent)
        killed += dead
        wrong += not ok
        note = " (equivalent)" if mutant.equivalent else ""
        print(f"{'ok ' if ok else 'BAD'} {mutant.name}: {'killed' if dead else 'survived'}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {killed} killed, {wrong} wrong, in {time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
