"""Smoke tests for the experiment scripts under scripts/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_run_verification_small_battery(tmp_path):
    proc = run_script("run_verification.py", "--max-n", "3", "--jobs", "1", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "certificates n=3: PASS" in proc.stdout
    assert proc.stdout.rstrip().endswith("ALL PASS")
    assert (tmp_path / "summary.txt").exists()


def test_threshold_table():
    proc = run_script("threshold_table.py", "--n-max", "10")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 8  # header, then n = 3..10
