#!/usr/bin/env python3
"""Run the benchmark on two commits in alternated pairs and summarise them.

Each commit (by default the parent `HEAD~1` and the change `HEAD`) is
exported with `git archive` into its own temporary directory, so that each
side runs the `bench/` and `src/` of its own commit from a clean tree, and
nothing in the repository or its `.git` is touched.  For every seed each
side runs `bench/run.py` once, untraced; which side runs first alternates
from one seed to the next.  With `--trace`, one traced run per side and
workload follows, for the per-layer metrics.

The JSON written to `--out` holds every run (seed, side, order, `correct`,
`attempted`, `failed` and the end-to-end metrics of `BENCHMARK.json`), and
per metric the median and quartiles of each side, the number of pairs the
change won (ties count for neither side), whether that makes a gain (wins in
at least nine tenths of the pairs, and medians further apart than the
parent's quartile distance) and whether the metric regressed (the change's
median worse than the parent's by more than the metric's `bound` in
`BENCHMARK.json`, a fraction of the parent's median) and whether it is
unresolved (the parent's quartile distance wider than that bound, unless
every run of the change beats every run of the parent: the runs then spread
too widely to tell a regression from noise).  Per workload and side it
tallies the runs, those with `correct: false` and the share of operations
that failed.  The script exits with status 1 when a metric regressed or the
change's failed share is higher than the parent's, and says which; it names
the unresolved metrics on stderr too, but they do not set the status.

    python scripts/bench_pairs.py --workload query-mix --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace --out BENCH_label.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> dict[str, str]:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return {"rev": rev, "commit": git("rev-parse", rev), "src_tree": git("rev-parse", f"{rev}:src")}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the checkout's own src/
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])  # exit code 1 on a failed check: the result says `correct: false`


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        by_seed = {(r["seed"], r["side"]): r["metrics"][name] for r in runs}
        seeds = sorted({r["seed"] for r in runs})
        parent = [by_seed[s, "parent"] for s in seeds]
        change = [by_seed[s, "change"] for s in seeds]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        p_q, c_q = quartiles(parent), quartiles(change)
        worse_by = (c_q["median"] - p_q["median"]) * (1 if lower else -1)
        spread = p_q["q3"] - p_q["q1"]
        apart = abs(c_q["median"] - p_q["median"]) > spread
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": p_q,
            "change": c_q,
            "change_over_parent": c_q["median"] / p_q["median"] if p_q["median"] else None,
            "change_wins": wins,
            "pairs": len(seeds),
            "gain": worse_by < 0 and apart and wins >= 0.9 * len(seeds),
            "regressed": worse_by > spec["bound"] * abs(p_q["median"]),
            "unresolved": spread > spec["bound"] * abs(p_q["median"]) and not beats_all,
        }
    return out


def tally(runs: list[dict]) -> dict:
    """Per side: runs, runs whose outputs failed a check, and the share of
    attempted operations that failed."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        out[side] = {
            "runs": len(mine),
            "incorrect_runs": sum(not r["correct"] for r in mine),
            "failed_share": sum(r["failed"] for r in mine) / attempted if attempted else 0.0,
        }
    return out


def faults(workload: str, entry: dict) -> list[str]:
    """What rejects the change on one workload: regressed metrics, a higher failed share."""
    out = [f"{workload}: {name} regressed" for name, m in entry["summary"].items() if m["regressed"]]
    shares = {side: t["failed_share"] for side, t in entry["tally"].items()}
    if shares["change"] > shares["parent"]:
        out.append(f"{workload}: failed share {shares['change']:.4f} above the parent's {shares['parent']:.4f}")
    return out


def unresolved(workload: str, entry: dict) -> list[str]:
    """The metrics of one workload whose parent runs spread wider than their bound."""
    return [
        f"{workload}: {name} unresolved: the parent's quartiles {m['parent']['q1']:.6g}-{m['parent']['q3']:.6g} "
        f"span more than {m['bound']} of its median {m['parent']['median']:.6g}"
        for name, m in entry["summary"].items()
        if m["unresolved"]
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true", help="add one traced run per side and workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = args.seeds
    report: dict = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("parent", "change")}
        report["parent"] = export(args.parent, checkouts["parent"])
        report["change"] = export(args.change, checkouts["change"])
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_bench(checkouts[side], workload, seed, args.seconds, trace=False)
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    runs.append(
                        {
                            "seed": seed,
                            "side": side,
                            "order": position,
                            "correct": result["correct"],
                            "attempted": result["attempted"],
                            "failed": result["failed"],
                            "metrics": {m["name"]: metrics[m["name"]] for m in benchmark["end_to_end"]},
                        }
                    )
                    print(f"{workload} seed {seed} {side}: wall_s {metrics['wall_s']:.3f}", flush=True)
            entry = {"runs": runs, "summary": summarise(runs, benchmark["end_to_end"]), "tally": tally(runs)}
            if args.trace:
                entry["traced"] = {}
                for side in ("parent", "change"):
                    result = run_bench(checkouts[side], workload, seeds[0], args.seconds, trace=True)
                    entry["traced"][side] = {
                        "seed": seeds[0],
                        "correct": result["correct"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    }
            report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    rejected = [line for workload, entry in report["workloads"].items() for line in faults(workload, entry)]
    for line in rejected + [line for w, entry in report["workloads"].items() for line in unresolved(w, entry)]:
        print(line, file=sys.stderr)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
