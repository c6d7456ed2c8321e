#!/usr/bin/env python3
"""Run the full default verification battery and write CSV/text reports.

Covers: exhaustive theorem sweeps at n <= 7, certificate soundness on all
connected graphs n <= 7, the structure audit (duality, witness shape and
perfect-matching partitions on every graph, W/R/C rules on connected ones)
at n <= 7 and sampled at n = 8..10, oracle cross-checks, and the n=8
tie-class check.  Everything is
deterministic; reports land in ./reports (override with --out-dir).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from specmatch import (
    audit_structures,
    cross_check_matching_implementations,
    verify_certificates,
    verify_theorem,
    verify_tie_class_n8,
)
from specmatch.verify import SAMPLES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--jobs", type=int, default=min(8, os.cpu_count() or 1))
    parser.add_argument("--max-n", type=int, default=7, choices=range(3, 8))
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    failures = []
    summary = []

    def record(name: str, passed: bool, elapsed: float, extra: str = "") -> None:
        line = f"{name}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s) {extra}".rstrip()
        print(line, flush=True)
        summary.append(line)
        if not passed:
            failures.append(name)

    for theorem in ("t32", "t33", "t13", "t12"):
        for n in range(3, args.max_n + 1):
            t0 = time.time()
            rep = verify_theorem(theorem, n, jobs=args.jobs)
            path = os.path.join(args.out_dir, f"{theorem}_n{n}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rep.to_csv())
            record(f"{theorem} n={n}", rep.passed, time.time() - t0, f"-> {path}")
            for line in rep.resolutions:
                summary.append(f"  note: {line}")

    for n in range(3, args.max_n + 1):
        t0 = time.time()
        rep = verify_certificates(n, jobs=args.jobs)
        record(f"certificates n={n}", rep.passed, time.time() - t0, f"{rep.connected_examined} graphs")

    for n in range(3, args.max_n + 1):
        t0 = time.time()
        rep = audit_structures(n, jobs=args.jobs)
        record(f"structure audit n={n}", rep.passed, time.time() - t0)
    for n in (8, 9, 10):
        t0 = time.time()
        rep = audit_structures(n)
        record(f"structure audit n={n} (sampled)", rep.passed, time.time() - t0)

    for n in range(3, min(args.max_n, 6) + 1):
        t0 = time.time()
        rep = cross_check_matching_implementations(n, jobs=args.jobs)
        record(f"oracle cross-check n={n}", rep.passed, time.time() - t0)
    for n in (7, 8, 9):
        t0 = time.time()
        rep = cross_check_matching_implementations(n, samples=SAMPLES)
        record(f"oracle cross-check n={n} (sampled)", rep.passed, time.time() - t0)

    t0 = time.time()
    tie = verify_tie_class_n8()
    record("tie class n=8 2beta*=5", tie.passed, time.time() - t0, f"{tie.class_graphs_checked} class graphs")
    for line in tie.notes:
        summary.append(f"  note: {line}")

    with open(os.path.join(args.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")

    print(f"\n{'ALL PASS' if not failures else 'FAILURES: ' + ', '.join(failures)}")
    return 0 if not failures else 3


if __name__ == "__main__":
    sys.exit(main())
