"""Mutant gate: source mutants of benchrank that the tests must kill.

Run from the repository root::

    python tests/mutants.py

Each mutant is one exact text replacement in one file of ``src/``.  For
each, the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temp directory, applies the replacement there (its text must occur exactly
once), and runs the mutant's test files (``CORE_TESTS`` unless it names
others) with ``pytest -x``.  The mutant is killed when a test fails.  A
mutant with an ``equivalent`` reason computes the same results as the
program, so no test can kill it; it must survive.
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
IO_TESTS = ("tests/test_io.py",)
CLI_TESTS = ("tests/test_cli.py",)
GOLDEN_TESTS = ("tests/test_golden.py",)
SYNTH_TESTS = ("tests/test_synth.py",)
LOWRANK_TESTS = ("tests/test_lowrank.py",)
METAMORPHIC_TESTS = ("tests/test_metamorphic.py",)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None
    tests: tuple[str, ...] = CORE_TESTS


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
    Mutant(
        "tau-b-degenerate-and",
        "src/benchrank/rankstats.py",
        "(n_sig[:, None] == 0) | (n_sig == 0)",
        "(n_sig[:, None] == 0) & (n_sig == 0)",
    ),
    Mutant("edges-without-band", "src/benchrank/alignment.py", "band[start[r] : start[r + 1]]", "band[start[r] : start[r]]"),
    Mutant("edges-suffix-one-late", "src/benchrank/alignment.py", "*range(s, len(ids))", "*range(s + 1, len(ids))"),
    Mutant(
        "from-edges-suffix-at-last-column",
        "src/benchrank/alignment.py",
        "np.full(n, n)",
        "np.full(n, n - 1)",
    ),
    Mutant(
        "frontier-stops-descending",
        "src/benchrank/alignment.py",
        "np.argsort(stop)",
        "np.argsort(-stop)",
    ),
    Mutant(
        "band-rows-side-left",
        "src/benchrank/rankstats.py",
        'np.searchsorted(ends, at, side="right")',
        'np.searchsorted(ends, at, side="left")',
    ),
    Mutant(
        "thresholds-variances-swapped",
        "src/benchrank/rankstats.py",
        "np.repeat([var.min(), var.max()], m)",
        "np.repeat([var.max(), var.min()], m)",
    ),
    Mutant(
        "frontier-bound-le",
        "src/benchrank/alignment.py",
        "if not indeg[j] and j < bound:",
        "if not indeg[j] and j <= bound:",
    ),
    Mutant("greedy-key2-not-lowered", "src/benchrank/alignment.py", "            key2[k1] -= n\n", ""),
    Mutant("greedy-key1-not-lowered", "src/benchrank/alignment.py", "            key1[k2] -= n\n", ""),
    # the small greedy oracle cases kill this too; here it checks that the leaderboard-scale relations do
    Mutant(
        "greedy-common-tie-by-position",
        "src/benchrank/alignment.py",
        "(vr2[k] + vr1[k], models[k], k)",
        "(vr2[k] + vr1[k], k, k)",
        tests=METAMORPHIC_TESTS,
    ),
    Mutant(
        "greedy-heap-keeps-placed-models",
        "src/benchrank/alignment.py",
        "while heap[0][1] not in available:",
        "while False:",
    ),
    Mutant(
        "greedy-common-heap-misses-f2-releases",
        "src/benchrank/alignment.py",
        "a2.intersection(f1.fresh) | a1.intersection(f2.fresh)",
        "a2.intersection(f1.fresh)",
    ),
    Mutant(
        "frontier-band-release-not-fresh",
        "src/benchrank/alignment.py",
        "                self.fresh.append(self.pos[j])\n",
        "",
    ),
    Mutant(
        "thresholds-trust-seed",
        "src/benchrank/rankstats.py",
        "lo, hi = rows + 1, np.full(2 * m, m)",
        "lo = hi = seed",
    ),
    Mutant(
        "crossings-le",
        "src/benchrank/alignment.py",
        "np.count_nonzero(h > rest)",
        "np.count_nonzero(h >= rest)",
        equivalent=(
            "the task-2 ranks listed in order1's order are a permutation, so no rank after a block equals one in it "
            "and >= counts the same entries as >"
        ),
    ),
    Mutant("crossing-block-no-triu", "src/benchrank/alignment.py", "np.triu(h > h.T, 1)", "(h > h.T)"),
    Mutant(
        "bulk-loader-misses-duplicates",
        "src/benchrank/io.py",
        "(np.bincount(cell, minlength=rows) != 1).any()",
        "(np.bincount(cell, minlength=rows) > 2).any()",
        tests=IO_TESTS,
    ),
    Mutant(
        "bulk-loader-takes-n-zero",
        "src/benchrank/io.py",
        "(n is None or n >= 1)",
        "(n is None or n >= 0)",
        tests=IO_TESTS,
    ),
    Mutant(
        "bulk-row-count-modulo",
        "src/benchrank/io.py",
        "len(fields) != 1 + width * (len(lines) - 1)",
        "len(fields) % width != 1",
        tests=IO_TESTS,
    ),
    Mutant(
        "bulk-no-first-field-check",
        "src/benchrank/io.py",
        '    if not all(raw[:1] == "\\n" for raw in b_of):\n        return None\n',
        "",
        tests=IO_TESTS,
    ),
    Mutant(
        "parse-once-stderrs-from-scores",
        "src/benchrank/io.py",
        "map(parsed.__getitem__, chain(s_col, e_col))",
        "map(parsed.__getitem__, chain(s_col, s_col))",
        tests=IO_TESTS,
    ),
    Mutant(
        "parse-once-share-inverted",
        "src/benchrank/io.py",
        "    if len(distinct) <= limit:\n"
        "        distinct.update(e_col)\n"
        "    try:\n"
        "        n_of = {raw: int(raw) if raw.strip() else None for raw in dict.fromkeys(n_col)}\n"
        "        if len(distinct) <= limit:",
        "    distinct.update(e_col)\n"
        "    try:\n"
        "        n_of = {raw: int(raw) if raw.strip() else None for raw in dict.fromkeys(n_col)}\n"
        "        if len(distinct) > limit:",
        equivalent=(
            "both branches give the same bits: each distinct string goes through the np.array(..., dtype=float) "
            "conversion the other branch applies to every string, and a float64 survives .tolist() and "
            "np.fromiter unchanged, -0.0 included; a bad number raises ValueError in either, so the file falls "
            "back to the per-row loop; the share changes only the speed"
        ),
        tests=IO_TESTS,
    ),
    Mutant(
        "write-fault-keeps-temp-files",
        "src/benchrank/cli.py",
        "            tmp.unlink(missing_ok=True)",
        "            pass",
        tests=CLI_TESTS,
    ),
    Mutant(
        "emit-record-boundary",
        "src/benchrank/io.py",
        '.replace(f"{c},{inner}  {o}",',
        '.replace(f",{inner}  {o}",',
        tests=IO_TESTS,
    ),
    Mutant(
        "output-error-exit-3",
        "src/benchrank/cli.py",
        '        print(f"error: output: {e}", file=sys.stderr)\n        return EXIT_INPUT\n',
        '        print(f"error: output: {e}", file=sys.stderr)\n        return EXIT_DEGENERATE\n',
        tests=CLI_TESTS,
    ),
    Mutant(
        "artifact-fields-before-envelope",
        "src/benchrank/cli.py",
        "{**_envelope(kind, manifest), **fields}",
        "{**fields, **_envelope(kind, manifest)}",
        tests=GOLDEN_TESTS,
    ),
    Mutant(
        "category-diagonal-swapped",
        "src/benchrank/rankstats.py",
        "rank = code * nb + np.arange(nb)",
        "rank = code * nb - np.arange(nb)",
    ),
    Mutant(
        "category-pairs-unstable-order",
        "src/benchrank/rankstats.py",
        'by_pair = np.argsort(pair, kind="stable")',
        "by_pair = np.argsort(pair)",
    ),
    Mutant(
        "perplexity-block-of-direct-mode",
        "src/benchrank/cli.py",
        "_summary_means(am, ppl) for name, am in ams.items()",
        '_summary_means(ams["direct"], ppl) for name in ams',
        tests=CLI_TESTS,
    ),
    Mutant(
        "rank-models-takes-non-vectors",
        "src/benchrank/alignment.py",
        "    if score1.ndim != 1 or score2.ndim != 1:\n",
        "    if False:\n",
    ),
    Mutant(
        "newline-rewrite-only-for-crlf",
        "src/benchrank/io.py",
        'if "\\r" in text else text',
        'if "\\r\\n" in text else text',
        tests=IO_TESTS,
    ),
    Mutant(
        "synth-stderr-one-plus-score",
        "src/benchrank/synth.py",
        "np.sqrt(scores * (1.0 - scores) / fn)",
        "np.sqrt(scores * (1.0 + scores) / fn)",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "synth-divisor-along-models",
        "src/benchrank/synth.py",
        "fn = np.array(items, dtype=float)[:, None]",
        "fn = np.array(items, dtype=float)[None, :]",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "synth-logistic-z-gt-zero",
        "src/benchrank/synth.py",
        "                if z >= 0:\n",
        "                if z > 0:\n",
        equivalent=(
            "the branches differ only at z = +-0, where both give exactly 0.5: "
            "1 / (1 + exp(-0)) and exp(0) / (1 + exp(0)) are both 1 / 2"
        ),
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "seed-constants-ignore-long-seeds",
        "src/benchrank/synth.py",
        "absorbed = _POOL_SIZE * max(_POOL_SIZE, (seed.bit_length() + 31) // 32)",
        "absorbed = _POOL_SIZE * _POOL_SIZE",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "seed-constants-from-zero",
        "src/benchrank/synth.py",
        "pow(_MULT_A, absorbed, 1 << 32)",
        "pow(_MULT_A, 0, 1 << 32)",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "seed-j-mixed-before-i",
        "src/benchrank/synth.py",
        "np.ix_(*(np.arange(n, dtype=np.uint32) for n in (nb, nm, 2)))",
        "(lambda i, j, k: (j, i, k))(*np.ix_(*(np.arange(n, dtype=np.uint32) for n in (nb, nm, 2))))",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "seed-numpy-integer-not-converted",
        "src/benchrank/synth.py",
        "    seed = int(seed)\n",
        "",
        tests=SYNTH_TESTS,
    ),
    Mutant(
        "pca-unstable-eigenvalue-sort",
        "src/benchrank/lowrank.py",
        'order = np.argsort(-eigvals, kind="stable")',
        "order = np.argsort(-eigvals)",
        tests=LOWRANK_TESTS,
    ),
    Mutant(
        "pc1-anchor-on-centred-means-at-a-tie",
        "src/benchrank/lowrank.py",
        "    if abs(anchor) <= 1e-9:\n",
        "    if anchor == 0.0:\n",
        tests=CLI_TESTS,
    ),
    Mutant(
        "pc1-lead-first-nonzero-loading",
        "src/benchrank/lowrank.py",
        "anchor = v[min(big, key=m.benchmark_ids.__getitem__)]",
        "anchor = v[np.flatnonzero(v)[0]]",
        tests=CLI_TESTS,
    ),
    Mutant(
        "pc1-lead-without-rounding-floor",
        "src/benchrank/lowrank.py",
        "np.abs(v) > 1e-9 * np.abs(v).max()",
        "v != 0.0",
        tests=LOWRANK_TESTS,
    ),
    Mutant(
        "zscore-sd-ddof-0",
        "src/benchrank/lowrank.py",
        "sd = m.scores.std(axis=1, ddof=1)",
        "sd = m.scores.std(axis=1, ddof=0)",
        tests=LOWRANK_TESTS,
    ),
    Mutant(
        "alignment-table-stderr2-of-task-1",
        "src/benchrank/cli.py",
        '"stderr2": stderr2[j]',
        '"stderr2": stderr1[j]',
        tests=CLI_TESTS,
    ),
    Mutant(
        "agree-ignores-alpha",
        "src/benchrank/cli.py",
        'agreement_matrix(m, method=args.method.replace("-", "_"), cfg=cfg)',
        'agreement_matrix(m, method=args.method.replace("-", "_"), cfg=SignificanceConfig())',
        tests=CLI_TESTS,
    ),
    Mutant(
        "pc1-sign-anchor-flipped",
        "src/benchrank/lowrank.py",
        "    if anchor < 0.0:\n",
        "    if anchor > 0.0:\n",
        tests=CLI_TESTS,
    ),
    Mutant(
        "mean-agreement-excluded-down-columns",
        "src/benchrank/rankstats.py",
        "skipped = am.degenerate.ravel()[cells]",
        "skipped = am.degenerate.T.ravel()[cells]",
    ),
    Mutant(
        "mean-agreement-names-last-dead-row",
        "src/benchrank/rankstats.py",
        "am.benchmark_ids[kept.argmin()]",
        "am.benchmark_ids[nb - 1 - kept[::-1].argmin()]",
    ),
    Mutant(
        "grouped-means-unstable-order",
        "src/benchrank/rankstats.py",
        'values[np.argsort(kept[group[live]], kind="stable")]',
        "values[np.argsort(kept[group[live]])]",
    ),
    Mutant(
        "mean-agreement-strided-block",
        "src/benchrank/rankstats.py",
        "reshape(-1, k).mean(axis=1)",
        "reshape(-1, k).T.copy().T.mean(axis=1)",
    ),
    Mutant(
        "report-default-pair-in-place",
        "src/benchrank/cli.py",
        '    pairs = [spec.split(":", 1) for spec in args.align_pairs] or [m_direct.benchmark_ids[:2]]\n',
        '    args.align_pairs += [] if args.align_pairs else [":".join(m_direct.benchmark_ids[:2])]\n'
        '    pairs = [spec.split(":", 1) for spec in args.align_pairs]\n',
        tests=CLI_TESTS,
    ),
    Mutant(
        "report-accepts-direction-mismatch",
        "src/benchrank/cli.py",
        "        if d != t:\n",
        "        if False:\n",
        tests=CLI_TESTS,
    ),
    Mutant(
        "rename-fault-no-rollback",
        "src/benchrank/cli.py",
        "        for path in replaced:\n",
        "        for path in []:\n",
        tests=CLI_TESTS,
    ),
    Mutant(
        "parser-built-per-call",
        "src/benchrank/cli.py",
        "@functools.cache  # built on the first run_cli call, not at import\n",
        "",
        tests=CLI_TESTS,
    ),
    Mutant(
        "input-bytes-not-kept",
        "src/benchrank/io.py",
        '            kept["data"] = data\n',
        "",
        tests=CLI_TESTS,
    ),
    Mutant(
        "categories-not-a-file-option",
        "src/benchrank/cli.py",
        'p.add_argument("--categories", required=True, type=_Input)',
        'p.add_argument("--categories", required=True)',
        tests=CLI_TESTS,
    ),
    Mutant(
        "csv-matrix-error-without-path",
        "src/benchrank/io.py",
        "        columns = _score_columns(text) or _score_rows(path, text)\n",
        "        return make_score_matrix(*(_score_columns(text) or _score_rows(path, text)))\n",
        tests=CLI_TESTS,
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
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
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
