#!/usr/bin/env python3
"""Print the per-chunk cost table of the exhaustive sweeps.

For each (n, chunk) pair, time one chunk of the labeled graphs on n vertices
(``verify._chunk_ranges``) through each sweep step: the chunk table
(``_batch_arrays``), then each worker on that table, built once outside the
timed calls: the theorem screen of each theorem (``_theorem_chunk``), the
certificate sweep (``_cert_chunk``), the structure audit (``_audit_chunk``)
and the cross-check (``_cross_chunk``).  A sweep's chunk costs the table
row plus its worker's row.  Each chunk has two columns: the best of
--repeat runs in seconds, in this one process (jobs = 1) with one BLAS
thread, and the peak memory that tracemalloc traces in MB (10^6 bytes)
over one more, untimed run, above what was traced when it began.  The
default chunks are those of the ROADMAP's per-chunk table: 6:0 7:37 8:2000.

    PYTHONPATH=src python scripts/chunk_costs.py 6:0 7:37 8:2000
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from typing import Callable  # noqa: E402

from specmatch import predict, verify  # noqa: E402


def chunk(text: str) -> tuple[int, int]:
    n, index = map(int, text.split(":"))
    if not 1 <= n <= verify.ENUM_CAP:
        raise argparse.ArgumentTypeError(f"the sweeps enumerate 1 <= n <= {verify.ENUM_CAP}, not n = {n}")
    if not 0 <= index < len(verify._chunk_ranges(n)):
        raise argparse.ArgumentTypeError(f"n = {n} has {len(verify._chunk_ranges(n))} chunks, not a chunk {index}")
    return n, index


def repeat(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError(f"a cell needs at least one run, not {runs}")
    return runs


def best(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_mb(call) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


def steps(n: int, lo: int, hi: int) -> list[tuple[str, Callable[[], object]]]:
    table = verify._batch_arrays(n, lo, hi)
    out = [("_batch_arrays", lambda: verify._batch_arrays(n, lo, hi))]
    for theorem, entry in verify.THEOREMS.items():
        bounds = {key: predict(theorem, n, key).bound for key in range(0, n + 1, 1 if entry.fractional else 2)}
        out.append((f"_theorem_chunk {theorem}", lambda t=theorem, b=bounds: verify._theorem_chunk(n, table, t, b)))
    out.append(("_cert_chunk", lambda: verify._cert_chunk(n, table)))
    out.append(("_audit_chunk", lambda: verify._audit_chunk(n, table)))
    out.append(("_cross_chunk", lambda: verify._cross_chunk(n, table)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("chunks", nargs="*", type=chunk, default=[(6, 0), (7, 37), (8, 2000)], metavar="N:CHUNK")
    parser.add_argument("--repeat", type=repeat, default=3, help="runs per cell, the best is printed (default 3)")
    args = parser.parse_args()

    columns = []
    for n, index in args.chunks:
        lo, hi = verify._chunk_ranges(n)[index]
        cells = [(name, best(call, args.repeat), peak_mb(call)) for name, call in steps(n, lo, hi)]
        columns.append((f"n = {n}, chunk {index} ({hi - lo:,} graphs)", cells))
    names = [name for name, *_ in columns[0][1]]
    print("| step | " + " | ".join(f"{title}: s | MB" for title, _ in columns) + " |")
    print("|---|" + "---|---|" * len(columns))
    for i, name in enumerate(names):
        print(f"| `{name}` | " + " | ".join(f"{cells[i][1]:.4f} | {cells[i][2]:.1f}" for _, cells in columns) + " |")


if __name__ == "__main__":
    main()
