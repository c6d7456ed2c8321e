"""Spans at specmatch's module boundaries, recorded from outside the program.

``Tracer.install`` replaces, for the duration of a ``with`` block, every
function that one specmatch module imports from another, in the namespace
of the module that looks it up, plus the sweep stages of ``verify``
(``_batch_arrays``, the chunk workers and the oracles) and the names the
package re-exports.  Each call records one span: name, start, end and the
span that was open when it began.  Spans stay in memory; ``dump`` writes
them out when the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import Counter

# sweep stages that live inside verify and are called from inside verify
VERIFY_STAGES = ("_batch_arrays", "_theorem_chunk", "_cert_chunk", "_audit_chunk", "_cross_chunk", "oracle_beta", "oracle_beta_star")
MODULES = ("graphs", "halfint", "roots", "spectral", "matching", "extremal", "certify", "verify")

# per-layer metrics: (self-seconds metric, call-count metric, the spans summed);
# span names are "<defining module>.<function>", a str entry is a name prefix
LAYERS = [
    ("verify.screen_s", None, ("verify._batch_arrays",)),
    ("verify.chunk_self_s", None, ("verify._theorem_chunk", "verify._cert_chunk", "verify._audit_chunk", "verify._cross_chunk")),
    (
        "verify.report_self_s",
        None,
        (
            "verify.verify_theorem",
            "verify.verify_certificates",
            "verify.audit_duality",
            "verify.audit_structures",
            "verify.cross_check_matching_implementations",
            "verify.verify_tie_class_n8",
        ),
    ),
    ("verify.oracle_s", "verify.oracle_calls", ("verify.oracle_beta", "verify.oracle_beta_star")),
    ("matching.beta_star_s", "matching.beta_star_calls", ("matching._dc_matching_size", "matching.fractional_matching_number")),
    ("matching.beta_s", "matching.beta_calls", ("matching._blossom_max_matching", "matching.matching_number")),
    (
        "matching.witness_s",
        "matching.witness_calls",
        (
            "matching.optimal_fractional_matching",
            "matching.fractional_transversal",
            "matching.wrc_decomposition",
            "matching.fpm_partition",
        ),
    ),
    ("spectral.rho_s", "spectral.rho_calls", ("spectral.spectral_radius",)),
    ("roots.root_s", "roots.root_calls", ("roots.largest_real_root",)),
    ("certify.self_s", "certify.calls", "certify."),
    ("extremal.predict_s", "extremal.predict_calls", "extremal."),  # selectors, builders, thresholds
    ("graphs.decode_s", "graphs.decode_calls", ("graphs.from_graph6",)),
    ("graphs.iso_s", "graphs.iso_calls", ("graphs.is_isomorphic",)),
    ("graphs.encode_s", "graphs.encode_calls", ("graphs.to_graph6",)),
    (None, "graphs.connected_calls", ("graphs.is_connected",)),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._open: list[int] = []  # indices of the spans now open, innermost last
        self.counts: Counter = Counter()  # work counted at the boundaries
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, span: str):
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        count = _COUNTERS.get(span)
        start, end, names, parents, opened = self.start, self.end, self.name, self.parent, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            parents.append(opened[-1] if opened else -1)
            names.append(name_id)
            end.append(0)
            opened.append(idx)
            start.append(clock())
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end[idx] = clock()
                opened.pop()
                if count is not None:
                    count(self.counts, args, outcome)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> "Tracer":
        """Wrap the boundary functions of ``package`` (specmatch) in place."""
        modules = [getattr(package, m) for m in MODULES] + [package]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith(package.__name__ + "."):
                    continue
                owner = obj.__module__.rsplit(".", 1)[1]
                if obj.__module__ != mod.__name__ or (owner == "verify" and attr in VERIFY_STAGES):
                    self._patch(mod, attr, self.wrap(obj, f"{owner}.{attr}"))
        return self

    def _patch(self, mod, attr: str, new) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, old = self._saved.pop()
            setattr(mod, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        self_ns = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out: dict[str, float] = {}
        for seconds_metric, calls_metric, spans in LAYERS:
            members = [i for i, s in enumerate(self.names) if (s.startswith(spans) if isinstance(spans, str) else s in spans)]
            if seconds_metric:
                out[seconds_metric] = float(self_ns[members].sum()) / 1e9
            if calls_metric:
                out[calls_metric] = float(calls[members].sum())
        out["spectral.rho_iterations"] = float(self.counts["spectral.rho_iterations"])
        out["verify.screen_graphs"] = float(self.counts["verify.screen_graphs"])
        return out

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _count_screen(counts, args, outcome) -> None:
    n, lo, hi = args
    counts["verify.screen_graphs"] += hi - lo


def _count_iterations(counts, args, outcome) -> None:
    # a RhoResult, or a ConvergenceError carrying the iterations it spent
    counts["spectral.rho_iterations"] += getattr(outcome, "iterations", 0)


_COUNTERS = {"verify._batch_arrays": _count_screen, "spectral.spectral_radius": _count_iterations}
