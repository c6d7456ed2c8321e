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


def test_bench_pairs_summary():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]

    def runs(parent, change):
        return [
            {"seed": s, "side": side, "metrics": {"wall_s": v}}
            for s, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))
        ]

    # 9 of 10 pairs won, medians 10.0 and 6.5 further apart than the
    # parent's quartiles (both 10.0)
    won = bench_pairs.summarise(runs([10.0] * 8 + [9.8, 10.2], [6.5] * 9 + [10.5]), spec)["wall_s"]
    assert (won["change_wins"], won["pairs"], won["gain"]) == (9, 10, True)
    assert won["parent"]["median"] == 10.0 and won["change"]["median"] == 6.5
    # 8 of 10 pairs won is not a gain, however far apart the medians
    lost = bench_pairs.summarise(runs([10.0] * 10, [6.5] * 8 + [11.0, 11.0]), spec)["wall_s"]
    assert (lost["change_wins"], lost["gain"]) == (8, False)
    # all pairs won, but by less than the parent's quartile distance
    close = bench_pairs.summarise(runs([9.0, 11.0] * 5, [8.9, 10.9] * 5), spec)["wall_s"]
    assert (close["change_wins"], close["gain"]) == (10, False)
