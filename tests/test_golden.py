"""Golden sha256 digests of every subcommand's artifacts.

The test runs each subcommand (``agree`` with tau and tau-b, ``align``,
``pca`` with center and zscore, ``flops``, ``simulate`` to ``.csv`` and to
``.json``, and ``report``) on small inputs it writes itself, in a temp
directory with relative paths, so that the run manifests name no temp
directory.  It compares the sha256 of every artifact with ``DIGESTS``, so
any change to an artifact's bytes fails here.

``DIGESTS`` was recorded with Python 3.11.7, numpy 2.4.6 and
scipy-openblas 0.3.31.  A toolchain change may move a float's last digit
and so a digest.  Then re-record the table by running this file as a
script from the repository root::

    python tests/test_golden.py --record

and paste what it prints over ``DIGESTS``.  CHANGES.md must say that the
table was re-recorded and why.

A second test runs ``agree --method tau-b`` and both ``pca`` preprocessings
on a 1000-model, 60-benchmark file in subprocesses under one and two
OpenBLAS threads, and requires byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: import the package from this checkout's src/, as pytest does
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from benchrank.cli import run_cli

#: (id, category, n_items) per benchmark; the quote and the non-ASCII letter exercise the escaping of ids
BENCHMARKS = [
    ("lu-a", "LU", 100),
    ("lu-b", "LU", 250),
    ("qa-ñ", "QA", 400),
    ('math "cot"', "Math", 600),
    ("wiki-ppl", "PPL", None),
]
MODELS = [f"m{j}" for j in range(8)]

SIM_CONFIG = {
    "n_models": 6,
    "n_benchmarks": 4,
    "seed": 3,
    "n_items": [200, 400, 800, 1600],
    "benchmark_loading": [0.8, 1.0, 1.1, 1.3],
    "benchmark_bias": [-0.2, 0.0, 0.1, 0.2],
    "finetune_uplift": 0.3,
}

#: argv of each run, in order; every path is relative to the working directory.
RUNS = [
    ["agree", "--scores", "direct.csv", "--out", "agree_tau.json"],
    ["agree", "--scores", "direct.csv", "--method", "tau-b", "--alpha", "0.1", "--out", "agree_taub.json"],
    [
        "align", "--scores-a", "direct.csv", "--scores-b", "tbt.json", "--benchmark-a", "lu-a", "--benchmark-b", "qa-ñ",
        "--out", "align.json",
    ],
    ["pca", "--scores", "direct.csv", "--out", "pca_center.json"],
    ["pca", "--scores", "tbt.json", "--preprocess", "zscore", "--top-k", "3", "--out", "pca_zscore.json"],
    ["flops", "--models", "models.csv", "--out", "flops.json"],
    ["simulate", "--config", "sim.json", "--mode", "direct", "--out", "sim_direct.csv"],
    ["simulate", "--config", "sim.json", "--mode", "tbt", "--seed", "7", "--out", "sim_tbt.json"],
    [
        "report", "--scores-direct", "direct.csv", "--scores-tbt", "tbt.json", "--categories", "cats.csv",
        "--models", "models.csv", "--out-dir", "report", "--align-pair", "lu-a:lu-b", "--align-pair", "wiki-ppl:lu-b",
    ],
]  # fmt: skip

#: Recorded with Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31.
DIGESTS = {
    "agree_tau.json": "a8bfeef2583ec3ca9fec336a421ff6383721b0c2762e005b7507929f33ab5914",
    "agree_taub.json": "f1bcc367006b8bc83d418d39b270bec5332bf4a660875744cef9f58b9a8664fd",
    "align.json": "e586d65247b8a86daa94975f82da097dc0ff466495554ec3393046fcdbdc0abe",
    "flops.json": "c272134db80f5db7f150be409b41754af1e1dddca5a4a22548c47547cc35c051",
    "pca_center.json": "88b67531b815a53d906b71b15dbf6e875829f02658be9fbb88ad2eb60424bdc1",
    "pca_zscore.json": "b289ad9f27803d47e1c43e62d7d83c0b01df374d56686b1005671ade02276fe2",
    "report/alignment.json": "d446205295fac7bec319668a2fc4e7dec6693f007b3b52d3228fb70ab2089516",
    "report/category_agreement.json": "65c7ad1c6c3827cd4f6f24434b7f1b7d20f6f0ef4cfa8f8e078b22fa58705b20",
    "report/evr.json": "8cf2847620569f3da6422d3a840c31188a27f2dff49820e0b1a3c589cf625b23",
    "report/mean_agreement.json": "d8bfedd426a6130d02a7425296f6ab2defc8d39b479450006485eeafbfacb157",
    "report/pc1_compute.json": "66a7d36204b174b8094cd46f970311a20cecd34ba63173100de362ee6fee79e7",
    "sim_direct.csv": "0ba9d2772da10162ffbd9d288207d9fc6812aa0a84859f547ad63bf3e9b188d5",
    "sim_tbt.json": "0e616f8b71997e50cbb47c8d3c4c3d77cec8532f500f4f35ee1e031995043f25",
}


def _score(i: int, j: int, uplift: float = 0.0) -> float:
    rank = (j * (2 * i + 1) + i) % len(MODELS)  # a different permutation of the models per benchmark
    if BENCHMARKS[i][2] is None:
        return 2.0 + 0.1 * rank - uplift  # bits per byte: lower is better
    return 0.3 + 0.07 * rank + 0.0011 * i + uplift


def _stderr(i: int, j: int) -> float:
    return 0.02 + 0.005 * ((i + j) % 3)


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def write_inputs() -> None:
    """Write every input file into the working directory, by hand, not by benchrank's own writers."""
    rows = [["benchmark", "model", "score", "stderr", "n", "direction"]]
    for i, (b, _, n) in enumerate(BENCHMARKS):
        direction = "lower" if n is None else "higher"
        for j, mod in enumerate(MODELS):
            rows.append([b, mod, repr(_score(i, j)), repr(_stderr(i, j)), "" if n is None else n, direction])
    _write_csv("direct.csv", rows)
    uplift = [0.05 * ((3 * j) % 4) for j in range(len(MODELS))]
    tbt = {
        "format_version": 1,
        "kind": "score_matrix",
        "benchmark_ids": [b for b, _, _ in BENCHMARKS],
        "model_ids": MODELS,
        "direction": ["lower" if n is None else "higher" for _, _, n in BENCHMARKS],
        "n_items": [n for _, _, n in BENCHMARKS],
        "scores": [[_score(i, j, u) for j, u in enumerate(uplift)] for i in range(len(BENCHMARKS))],
        "stderrs": [[_stderr(i, j) for j in range(len(MODELS))] for i in range(len(BENCHMARKS))],
    }
    Path("tbt.json").write_text(json.dumps(tbt), encoding="utf-8")
    _write_csv("cats.csv", [["benchmark", "category"]] + [[b, c] for b, c, _ in BENCHMARKS])
    models = [["model", "family", "params_b", "tokens_b", "instruction_tuned"]]
    for j, mod in enumerate(MODELS):
        tokens = "" if j == 5 else repr(20.0 * (j + 1) ** 2)  # m5 has no published token count
        models.append([mod, f"fam{j % 3}", repr(0.5 * (j + 1)), tokens, "true" if j % 2 else "false"])
    _write_csv("models.csv", models)
    Path("sim.json").write_text(json.dumps(SIM_CONFIG), encoding="utf-8")


def artifact_digests() -> dict[str, str]:
    """Write the inputs, run every subcommand in the working directory, and digest each artifact it wrote."""
    write_inputs()
    inputs = set(Path(".").iterdir())
    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(argv)
        if code != 0:
            raise AssertionError(f"exit {code} from {argv}")
    artifacts = sorted(p for p in Path(".").rglob("*") if p.is_file() and p not in inputs)
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in artifacts}


def test_every_artifact_matches_its_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests() == DIGESTS


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # its own generator: 1000 models with binomial scores on 400 items, on 60 benchmarks
    rng = np.random.default_rng(71)
    n_models, n_benchmarks, items = 1000, 60, 400
    skill = rng.normal(size=n_models)
    rows = [["benchmark", "model", "score", "stderr", "n", "direction"]]
    for b in range(n_benchmarks):
        p = 1.0 / (1.0 + np.exp(-(rng.uniform(0.5, 1.5) * skill + rng.normal(0.0, 0.5, n_models))))
        s = rng.binomial(items, p) / items
        e = np.sqrt(s * (1.0 - s) / items)
        for j, (x, y) in enumerate(zip(s.tolist(), e.tolist())):
            rows.append([f"b{b:02d}", f"m{j:04d}", repr(x), repr(y), items, "higher"])
    runs = [
        ["agree", "--scores", "scores.csv", "--method", "tau-b", "--out", "agree.json"],
        ["pca", "--scores", "scores.csv", "--out", "pca_center.json"],
        ["pca", "--scores", "scores.csv", "--preprocess", "zscore", "--out", "pca_zscore.json"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    artifacts = {}
    for threads in ("1", "2"):  # never more than two, so that a two-core machine is not oversubscribed
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        _write_csv(str(work / "scores.csv"), rows)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for argv in runs:  # the same relative paths in both directories, so the manifests match
            proc = subprocess.run(
                [sys.executable, "-m", "benchrank.cli", *argv], cwd=work, env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
        artifacts[threads] = {argv[-1]: (work / argv[-1]).read_bytes() for argv in runs}
    assert artifacts["1"] == artifacts["2"]


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = artifact_digests()
        finally:
            os.chdir(cwd)
    print("DIGESTS = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
