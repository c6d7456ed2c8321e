#!/usr/bin/env python3
"""Run one benchmark workload against the specmatch sources of this checkout.

    python3 bench/run.py --workload battery-n6 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

An untraced run (--trace 0) times whole rounds of the workload until
--seconds have passed (at least the workload's min_rounds) and prints the
end-to-end metrics, every time scaled to a reference speed of the machine
(workloads.SpeedSampler), and the same figures at the machine's own speed.  A traced run (--trace 1) first runs untraced rounds for
--seconds, then traced rounds for --seconds, and prints the per-module
metrics per round together with the tracing overhead.  Every output is
checked outside the timed region.  The last line of standard output is one
JSON object; the exit code is 0 only when every check passed.  Result files
and span dumps go to bench/out/.
"""

from __future__ import annotations

import os

# single-threaded BLAS keeps a 2-core machine steady; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 6  # fresh interpreters timed before the rounds, and as many after
# the tail is the slowest operation with at least this many slower ones, and those
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_geomean_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_specmatch():
    if not (SRC / "specmatch" / "__init__.py").is_file():
        sys.exit(f"error: no specmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specmatch

    if Path(specmatch.__file__).resolve().parent != SRC / "specmatch":
        sys.exit(f"error: imported specmatch from {specmatch.__file__}, not from {SRC}")
    return specmatch


def time_setup(workload: str) -> list[tuple[float, float]]:
    """Wall times of SETUP_PROBES fresh interpreters that import specmatch and
    warm up, each with the machine's speed around it: the fastest of three
    timings of the speed probe loop before and after, averaged."""
    import workloads

    def speed() -> float:
        return min(workloads.probe_loop() for _ in range(3))

    times = []
    for _ in range(SETUP_PROBES):
        before = speed()
        t0 = time.perf_counter()
        # no timeout here: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(BENCH / "probe.py"), workload], check=True)
        seconds = time.perf_counter() - t0
        times.append((seconds, (before + speed()) / 2))
    return times


def run_rounds(wl, sm, inputs, seconds: float, min_rounds: int):
    """Whole rounds until `seconds` have passed, at least `min_rounds`;
    returns (ops per round, wall per round)."""
    rounds, walls = [], []
    begin = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        rounds.append(wl.run_round(sm, inputs))
        walls.append(time.perf_counter() - t0)
    return rounds, walls


def end_to_end(wl, inputs, rounds, latency_of) -> tuple[dict[str, float], str]:
    latency: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            latency.setdefault(op.label, []).append(latency_of(op))
    per_op = [statistics.median(v) for v in latency.values()]
    wall = sum(per_op)
    per_request = sorted([wall] if wl.pass_is_one_request else per_op)
    k = len(per_request)
    # one operation's latency reads the machine's speed at one instant; the mean
    # over the tail reads it over the seconds the tail takes
    tail = per_request[-(TAIL_BEYOND + 1) :]
    tail_note = f"mean of the {len(tail)} slowest of {k} requests"
    answered = statistics.median(sum(not op.failed for op in ops) for ops in rounds)
    metrics = {
        "wall_s": wall,
        "graphs_per_s": wl.graphs_per_round(inputs) / wall,
        "queries_per_s": answered / wall,
        "query_geomean_ms": 1e3 * math.exp(statistics.fmean(math.log(x) for x in per_request)),
        "query_tail_ms": 1e3 * statistics.fmean(tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tail_note


def check_rounds(wl, sm, inputs, rounds) -> list[str]:
    import checks
    import references

    if wl.name == "query-mix":
        qrefs = {q.label: checks.QueryReference(q) for q in inputs}
        for op in rounds[0]:
            if op.fname == "fractional_transversal" and not op.failed:
                qrefs[op.subject.label].transversal = op.result.doubled_weights
        check = lambda op: checks.check_query_op(op, qrefs[op.subject.label], sm)  # noqa: E731
    else:
        refs = references.load()
        check = lambda op: checks.check_sweep_op(op, refs)  # noqa: E731
    return checks.check_repeats(rounds) + [e for ops in rounds for e in checks.check_ops(ops, check)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]
    sm = load_specmatch()
    setup = [] if trace else time_setup(name)
    inputs = wl.inputs(seed)
    wl.warm_up(sm)
    OUT.mkdir(exist_ok=True)
    # a traced run needs one untraced round for its overhead, not the steadiness of several,
    # and no speed samples, which the traced rounds would not have
    with contextlib.nullcontext() if trace else workloads.SAMPLER as sampler:
        rounds, walls = run_rounds(wl, sm, inputs, seconds, 1 if trace else wl.min_rounds)
    lines: list[str] = []
    if trace:
        import tracing

        with tracing.Tracer().install(sm) as tracer:
            traced_rounds, traced_walls = run_rounds(wl, sm, inputs, seconds, 1)
        per_round = 1.0 / len(traced_rounds)
        metrics = {k: v * per_round for k, v in tracer.layer_metrics().items()}
        screened = metrics["verify.screen_graphs"]
        metrics["verify.screens_per_graph"] = screened / wl.swept_graphs if wl.swept_graphs else 0.0
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(walls)
        units = {k: ("s" if k.endswith("_s") else "%" if k.endswith("_pct") else "count") for k in metrics}
        tracer.dump(OUT / f"spans-{name}-seed{seed}.npz")
        lines.append(f"{len(traced_rounds)} traced and {len(rounds)} untraced rounds, {len(tracer.start)} spans")
        rounds += traced_rounds
    else:
        metrics, tail_note = end_to_end(
            wl, inputs, rounds, lambda op: op.seconds * sampler.scale(op.start, op.start + op.seconds)
        )
        units = END_TO_END_UNITS
        lines.append(f"{len(rounds)} rounds; query_tail_ms is the {tail_note}")
        lines.append(
            f"speed: median of {len(sampler.samples)} probes {1e3 * statistics.median(sampler.samples):.4f} ms,"
            f" reference {1e3 * workloads.REFERENCE_PROBE_S:.4f} ms; the figures at the machine's own speed:"
        )
        unscaled, _ = end_to_end(wl, inputs, rounds, lambda op: op.seconds)
        lines += [f"  wall-clock {k}: {v:.10g} {units[k]}" for k, v in sorted(unscaled.items()) if k != "peak_rss_mb"]

    errors = check_rounds(wl, sm, inputs, rounds)
    if not trace:
        # the second half of the set-ups runs after the checks, as far from the first as the run allows
        setup += time_setup(name)
        metrics["setup_s"] = statistics.median(t * workloads.REFERENCE_PROBE_S / speed for t, speed in setup)
        lines.append(f"  wall-clock setup_s: {statistics.median(t for t, _ in setup):.10g} s")
    attempted = sum(len(ops) for ops in rounds)
    failed_ops = [op for ops in rounds for op in ops if op.failed]
    for op in failed_ops[: len(failed_ops) // len(rounds)]:
        lines.append(f"failed: {op.label}: {type(op.result).__name__} after {op.seconds:.2f} s")
    for e in errors:
        lines.append(f"CHECK FAILED: {e}")
    lines += [f"{k}: {v:.10g} {units[k]}" for k, v in sorted(metrics.items())]
    lines.append(f"attempted: {attempted}  failed: {len(failed_ops)}  correct: {not errors}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
