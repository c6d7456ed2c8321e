"""The benchmark's workloads: inputs made from a seed, and the timed operations.

Every operation is looked up on the ``specmatch`` package at call time, so
the tracer's wrappers (see tracing.py) see the benchmark's own calls too.
One round runs every operation of a workload once, in a fixed order, from
one process with ``jobs=1``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any

from references import labeled_count

BATTERY_ORDERS = range(3, 7)
SAMPLED_ORDERS = (7, 8, 9)
SAMPLES = 1000
TIE_SAMPLES = 4000
QUERY_ORDERS = (100, 500, 2000)
QUERY_SHAPES = ("random", "path", "complete", "extremal")
QUERY_OPS = ("spectral_radius", "matching_number", "fractional_matching_number", "fractional_transversal")
# certify_all above 514 vertices and spectral_radius(P_2000) run for minutes or
# never return (the FOUND lines of CHANGES.md), so they are left out
CERTIFY_MAX_N = 500
QUERY_LEFT_OUT = {("spectral_radius", "path2000")}

# The machine is a shared host whose speed drifts by up to 1.7x in phases of
# seconds to minutes, and every call slows with it.  While the timed rounds
# run, SAMPLER times a fixed pure-Python loop every PROBE_INTERVAL_S, and a
# run also reports each call's latency at the reference speed, at which the
# loop takes REFERENCE_PROBE_S: its wall time times REFERENCE_PROBE_S over the
# median of the samples taken during the call, or of the PROBE_WINDOW samples
# nearest to it when the call is shorter than that.
PROBE_STEPS = 10_000
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 21
REFERENCE_PROBE_S = 0.9e-3


def probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times probe_loop from a SIGALRM handler every PROBE_INTERVAL_S of wall
    time while it is on; Python runs the handler between two bytecodes of
    whatever specmatch is doing.  `spent` is the time the handler took, which
    `call` takes out of the call's latency."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_loop())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.times, self.samples = [], []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed from `start` to `end`."""
        i, j = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if j - i < PROBE_WINDOW:
            i = max(0, min((i + j - PROBE_WINDOW) // 2, len(self.times) - PROBE_WINDOW))
            j = i + PROBE_WINDOW
        return REFERENCE_PROBE_S / statistics.median(self.samples[i:j])


SAMPLER = SpeedSampler()


@dataclass
class Op:
    """One timed call into specmatch and what it returned or raised."""

    label: str
    fname: str
    args: tuple
    kwargs: dict
    subject: Any  # the QueryGraph of a query, None for sweeps
    seconds: float
    result: Any
    failed: bool
    start: float = 0.0  # time.perf_counter() when the call began


def call(sm, label: str, fname: str, *args, subject=None, **kwargs) -> Op:
    """Time one call, made once: every request of a round is a first call."""
    fn = getattr(sm, fname)
    spent = SAMPLER.spent
    t0 = time.perf_counter()
    try:
        result, failed = fn(*args, **kwargs), False
    except Exception as exc:  # a failed request is counted, timed and reported
        result, failed = exc, True
    seconds = time.perf_counter() - t0 - (SAMPLER.spent - spent)
    return Op(label, fname, args, kwargs, subject, seconds, result, failed, t0)


# ---------------------------------------------------------------------------
# sweeps


def _battery_calls(seed: int) -> list[tuple[str, tuple, dict, int]]:
    """scripts/run_verification.py --max-n 6 --jobs 1, in its order; the last
    field is the number of labeled graphs the call covers."""
    calls = []
    for theorem in ("t32", "t33", "t13", "t12"):
        calls += [("verify_theorem", (theorem, n), {}, labeled_count(n)) for n in BATTERY_ORDERS]
    calls += [("verify_certificates", (n,), {}, labeled_count(n)) for n in BATTERY_ORDERS]
    calls += [("audit_duality", (n,), {}, labeled_count(n)) for n in BATTERY_ORDERS]
    calls += [("audit_structures", (n,), {}, labeled_count(n)) for n in BATTERY_ORDERS]
    calls += [("cross_check_matching_implementations", (n,), {}, labeled_count(n)) for n in BATTERY_ORDERS]
    calls += [
        ("cross_check_matching_implementations", (n,), {"samples": SAMPLES, "seed": seed}, SAMPLES)
        for n in SAMPLED_ORDERS
    ]
    calls.append(("verify_tie_class_n8", (), {"samples": TIE_SAMPLES, "seed": seed}, TIE_SAMPLES))
    return calls


def _label(fname: str, args: tuple, kwargs: dict) -> str:
    parts = [str(a) for a in args] + [f"{k}={v}" for k, v in kwargs.items() if k != "seed"]
    return f"{fname}({', '.join(parts)})"


BATTERY_WARM = [("verify_theorem", (t, 3), {}) for t in ("t32", "t33", "t13", "t12")] + [
    ("verify_certificates", (3,), {}),
    ("audit_duality", (3,), {}),
    ("audit_structures", (3,), {}),
    ("cross_check_matching_implementations", (3,), {}),
    ("cross_check_matching_implementations", (7,), {"samples": 1}),
    ("verify_tie_class_n8", (), {"samples": 1}),
]


class Battery:
    """The verification battery; its inputs are the calls themselves."""

    name = "battery-n6"
    swept_graphs = sum(labeled_count(n) for n in BATTERY_ORDERS)  # distinct labeled graphs swept exhaustively

    # the user waits for the whole pass, as for scripts/run_verification.py; a
    # sub-millisecond sweep at n = 3 is no request of its own
    pass_is_one_request = True
    # a 15 s pass sits inside one fast or slow phase of a shared machine, which
    # last 10-30 s; each call's median over three passes drops its slowest phase
    # (checks.check_repeats fails a run whose repeats come from a result cache)
    min_rounds = 3

    def inputs(self, seed: int) -> list:
        return _battery_calls(seed)

    def graphs_per_round(self, inputs) -> int:
        return sum(c[3] for c in inputs)

    def warm_up(self, sm) -> None:
        for fname, args, kwargs in BATTERY_WARM:
            getattr(sm, fname)(*args, **kwargs)

    def run_round(self, sm, inputs) -> list[Op]:
        return [call(sm, _label(f, a, k), f, *a, **k) for f, a, k, _ in inputs]


# ---------------------------------------------------------------------------
# single-graph queries


@dataclass(frozen=True)
class QueryGraph:
    shape: str
    n: int
    rows: tuple[int, ...]  # the generated edge set, as neighbour bitsets
    text: str  # graph6

    @property
    def label(self) -> str:
        return f"{self.shape}{self.n}"


def _adjacency(shape: str, n: int, seed: int):
    # built column by column so that input generation stays below the
    # program's own peak resident set
    import numpy as np

    a = np.zeros((n, n), dtype=bool)
    if shape == "random":  # G(n, 6/n)
        rng = np.random.default_rng([seed, n])
        for j in range(1, n):
            a[:j, j] = rng.random(j) < 6.0 / n
    elif shape == "path":
        a[np.arange(n - 1), np.arange(1, n)] = True
    elif shape == "complete":
        a[:] = True
        np.fill_diagonal(a, False)
    elif shape == "extremal":  # theta(n) graph K_1 v (K_{n-3} u 2K_1): hub 0, clique 1..n-3
        a[0, 1:] = True
        a[1 : n - 2, 1 : n - 2] = True
        np.fill_diagonal(a, False)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return a | a.T


def encode_graph6(a) -> str:
    """graph6 text of a symmetric boolean matrix (n < 2^18)."""
    import numpy as np

    n = a.shape[0]
    bits = np.concatenate([a[:j, j] for j in range(n)]).astype(np.uint8)  # x(0,1), x(0,2), x(1,2), x(0,3), ...
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)]).reshape(-1, 6)
    body = (bits @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63).astype(np.uint8).tobytes().decode("ascii")
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return head + body


def make_query_graph(shape: str, n: int, seed: int) -> QueryGraph:
    import numpy as np

    a = _adjacency(shape, n, seed)
    packed = np.packbits(a, axis=1, bitorder="little")
    rows = tuple(int.from_bytes(r.tobytes(), "little") for r in packed)
    return QueryGraph(shape, n, rows, encode_graph6(a))


class Queries:
    """One caller in a closed loop over 12 graphs given as graph6 text."""

    name = "query-mix"
    swept_graphs = 0
    pass_is_one_request = False
    min_rounds = 1  # every request is a first call; two 40 s rounds would not fit the run time

    def inputs(self, seed: int) -> list[QueryGraph]:
        # shape by shape, so that within a round the requests on small graphs
        # fall between the long ones on n = 2000, not in one cluster
        return [make_query_graph(shape, n, seed) for shape in QUERY_SHAPES for n in QUERY_ORDERS]

    def graphs_per_round(self, inputs) -> int:
        return len(inputs)

    def warm_up(self, sm) -> None:
        g = sm.from_graph6("Dhc")  # the 5-cycle
        for fname in QUERY_OPS + ("certify_all",):
            getattr(sm, fname)(g)

    def run_round(self, sm, inputs) -> list[Op]:
        # every graph's next request in turn, so the quick requests on small
        # graphs are spread over the round; a request's latency on a shared
        # machine depends on when it runs, and query_geomean_ms weighs them all
        decodes = [call(sm, f"from_graph6 {q.label}", "from_graph6", q.text, subject=q) for q in inputs]
        ops = list(decodes)
        for fname in QUERY_OPS + ("certify_all",):
            for q, decode in zip(inputs, decodes):
                left_out = (fname, q.label) in QUERY_LEFT_OUT or (fname == "certify_all" and q.n > CERTIFY_MAX_N)
                if not decode.failed and not left_out:
                    ops.append(call(sm, f"{fname} {q.label}", fname, decode.result, subject=q))
        return ops


WORKLOADS = {
    "battery-n6": Battery(),
    "query-mix": Queries(),
}
