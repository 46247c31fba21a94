"""Smoke test: the library demos run to completion against the package in src/, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
CLI_DEMO = ROOT / "demos" / "05_cli_pipeline.sh"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_all_four_python_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_runs(tmp_path):
    # a ``benchrank`` shim on PATH stands in for the installed console script
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "benchrank"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m benchrank.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["TMPDIR"] = str(tmp_path)  # so the demo's mktemp -d directory is cleaned up with tmp_path
    env["PYTHONWARNINGS"] = "error"  # reaches every ``benchrank`` the script starts
    proc = subprocess.run(
        ["bash", str(CLI_DEMO)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "report" in proc.stdout and "agree_direct.json" in proc.stdout
