"""Smoke tests for the experiment scripts under scripts/."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=src_env(),
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


def test_chunk_costs():
    proc = run_script("chunk_costs.py", "5:0", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header == "| step | n = 5, chunk 0 (1,024 graphs): s | MB |" and rule == "|---|---|---|"
    steps = ["_batch_arrays", "_theorem_chunk t32", "_theorem_chunk t33", "_theorem_chunk t12", "_theorem_chunk t13"]
    assert [row.split(" | ")[0] for row in rows] == [f"| `{step}`" for step in [*steps, "_cert_chunk", "_audit_chunk", "_cross_chunk"]]
    # each step's best time, then its traced peak; building the table holds
    # the table itself, so its peak is above zero
    cells = [[float(cell) for cell in row.rstrip(" |").split(" | ")[1:]] for row in rows]
    assert all(len(row) == 2 and min(row) >= 0 for row in cells) and cells[0][1] > 0
    # n = 5 has one chunk, and a chunk at n = 9 would hold 2^24 graphs
    proc = run_script("chunk_costs.py", "5:1")
    assert proc.returncode == 2 and "n = 5 has 1 chunks, not a chunk 1" in proc.stderr
    proc = run_script("chunk_costs.py", "9:0")
    assert proc.returncode == 2 and "the sweeps enumerate 1 <= n <= 8, not n = 9" in proc.stderr
    # each cell is the best of its runs, so a cell needs one
    proc = run_script("chunk_costs.py", "5:0", "--repeat", "0")
    assert proc.returncode == 2 and "a cell needs at least one run, not 0" in proc.stderr


def import_bench_pairs():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return bench_pairs


def synthetic_runs(parent, change, name="wall_s"):
    return [
        {"seed": s, "side": side, "metrics": {name: v}}
        for s, (p, c) in enumerate(zip(parent, change))
        for side, v in (("parent", p), ("change", c))
    ]


def test_bench_pairs_summary():
    bench_pairs = import_bench_pairs()
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = synthetic_runs

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
    assert not (won["regressed"] or lost["regressed"] or close["regressed"])


@pytest.mark.parametrize(
    "better, parent, change, regressed",
    [
        ("lower", 10.0, 12.5, False),  # worse by exactly the bound
        ("lower", 10.0, 12.6, True),
        ("higher", 10.0, 7.5, False),
        ("higher", 10.0, 7.4, True),
        ("higher", 10.0, 20.0, False),
    ],
)
def test_bench_pairs_regression(better, parent, change, regressed):
    bench_pairs = import_bench_pairs()
    spec = [{"name": "m", "unit": "1/s", "better": better, "bound": 0.25}]
    # one outlier pair on each side does not move the medians
    runs = synthetic_runs([parent] * 9 + [parent * 3], [change] * 9 + [change / 3], name="m")
    summary = bench_pairs.summarise(runs, spec)
    assert summary["m"]["regressed"] is regressed
    entry = {"summary": summary, "tally": {"parent": {"failed_share": 0.0}, "change": {"failed_share": 0.0}}}
    assert bench_pairs.faults("w", entry) == (["w: m regressed"] if regressed else [])


@pytest.mark.parametrize(
    "better, parent, change, verdict",
    [
        ("lower", [8.0, 12.0] * 5, [10.0] * 10, True),  # quartiles 8-12 span 0.4 of the median 10
        ("lower", [8.0, 12.0] * 5, [7.9] * 10, False),  # every change run beats every parent run
        ("lower", [8.0, 12.0] * 5, [7.9] * 9 + [8.0], True),  # a tie is not a win
        ("higher", [8.0, 12.0] * 5, [12.1] * 10, False),
        ("higher", [8.0, 12.0] * 5, [11.0] * 10, True),
        ("lower", [9.0, 11.0] * 5, [14.0] * 10, False),  # quartiles 9-11 span 0.2, within the bound
    ],
)
def test_bench_pairs_unresolved(better, parent, change, verdict):
    bench_pairs = import_bench_pairs()
    spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    summary = bench_pairs.summarise(synthetic_runs(parent, change, name="m"), spec)
    assert summary["m"]["unresolved"] is verdict
    entry = {"summary": summary, "tally": {"parent": {"failed_share": 0.0}, "change": {"failed_share": 0.0}}}
    lines = bench_pairs.unresolved("w", entry)
    assert lines == (["w: m unresolved: the parent's quartiles 8-12 span more than 0.25 of its median 10"] if verdict else [])
    # an unresolved metric is reported, not a fault
    assert bench_pairs.faults("w", entry) == (["w: m regressed"] if summary["m"]["regressed"] else [])


def test_bench_pairs_tally_and_failed_share():
    bench_pairs = import_bench_pairs()
    runs = [
        {"side": "parent", "correct": True, "attempted": 50, "failed": 0},
        {"side": "parent", "correct": True, "attempted": 50, "failed": 1},
        {"side": "change", "correct": False, "attempted": 60, "failed": 3},
        {"side": "change", "correct": True, "attempted": 40, "failed": 0},
    ]
    tally = bench_pairs.tally(runs)
    assert tally == {
        "parent": {"runs": 2, "incorrect_runs": 0, "failed_share": 0.01},
        "change": {"runs": 2, "incorrect_runs": 1, "failed_share": 0.03},
    }
    assert bench_pairs.faults("w", {"summary": {}, "tally": tally}) == ["w: failed share 0.0300 above the parent's 0.0100"]
    # an equal share is no fault
    tally["change"]["failed_share"] = 0.01
    assert bench_pairs.faults("w", {"summary": {}, "tally": tally}) == []
