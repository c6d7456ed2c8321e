"""Checks of every output against answers computed apart from specmatch.

Each check returns a list of error strings; an empty list means the output
passed.  The checks run outside the timed region.  References come from
references.py (numpy, networkx and brute force); specmatch is only asked
for a witness that the check then validates itself (the canonical
fractional matching whose total proves the transversal optimal).
"""

from __future__ import annotations

import math

import references as ref

# requests that fail on every run today, with the exception they raise: power
# iteration on P_500 hits its iteration cap (the FOUND lines of CHANGES.md).
# Any other failed operation fails the run.
KNOWN_FAILURES = {"spectral_radius path500": "ConvergenceError", "certify_all path500": "ConvergenceError"}

# a repeated call this much faster than its first one is served from a result
# cache, whose speed-up the median over rounds would report; slow phases of the
# machine alone stay well below the factor for calls of REPEAT_MIN_S and up
REPEAT_SPEEDUP = 5.0
REPEAT_MIN_S = 0.2

RHO_TOL = 1e-8  # query rho against eigvalsh and the closed forms
CLASS_RHO_TOL = 1e-9  # a sweep's class maximum against eigvalsh of its argmax graph
THRESHOLD_RTOL = 1e-9  # a certificate or class bound against the reference root
SIDE_MARGIN = 1e-7  # |rho - threshold| beyond which firing must follow the side


def check_ops(ops, check) -> list[str]:
    """Check every operation: a successful one with `check`, a failed one
    against KNOWN_FAILURES."""
    errors = []
    for op in ops:
        if not op.failed:
            errors += [f"{op.label}: {e}" for e in check(op)]
        elif KNOWN_FAILURES.get(op.label) != type(op.result).__name__:
            errors.append(f"{op.label}: raised {type(op.result).__name__}: {op.result}")
    return errors


def check_repeats(rounds) -> list[str]:
    """Every repeat of a call of REPEAT_MIN_S or more takes at least
    1/REPEAT_SPEEDUP of the call's first time."""
    first = {op.label: op.seconds for op in rounds[0]}
    return [
        f"{op.label}: repeated in {op.seconds:.3g} s after {first[op.label]:.3g} s the first time; a result cache?"
        for ops in rounds[1:]
        for op in ops
        if first[op.label] >= REPEAT_MIN_S and op.seconds * REPEAT_SPEEDUP < first[op.label]
    ]


# ---------------------------------------------------------------------------
# single-graph answers


def check_rho(value: float, expected: dict[str, float]) -> list[str]:
    return [
        f"rho {value!r} differs from {name} {want!r}" for name, want in expected.items() if not abs(value - want) <= RHO_TOL
    ]


def check_matching(rows, n: int, size: int, edges, expected: int) -> list[str]:
    errors = []
    if size != expected:
        errors.append(f"matching number {size}, expected {expected}")
    if len(edges) != size:
        errors.append(f"witness has {len(edges)} edges for size {size}")
    used = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
            errors.append(f"witness edge ({u},{v}) is not an edge")
            continue
        if used >> u & 1 or used >> v & 1:
            errors.append(f"witness edge ({u},{v}) shares a vertex")
        used |= (1 << u) | (1 << v)
    return errors


def check_fractional(rows, n: int, beta_star_doubled: int, matching_weights, transversal_weights) -> list[str]:
    """Both witnesses feasible and of equal total, so both optimal by LP duality.

    matching_weights: ((u, v), doubled weight) pairs; transversal_weights:
    doubled vertex weights.
    """
    errors = []
    load = [0] * n
    m_total = 0
    for (u, v), w in matching_weights:
        if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
            errors.append(f"fractional matching weights a non-edge ({u},{v})")
            continue
        if w not in (1, 2):
            errors.append(f"fractional matching weight {w}/2 on ({u},{v})")
        load[u] += w
        load[v] += w
        m_total += w
    errors += [f"vertex {v} carries {x}/2 > 1" for v, x in enumerate(load) if x > 2]
    if len(transversal_weights) != n or any(w not in (0, 1, 2) for w in transversal_weights):
        return errors + ["transversal weights are not n half-integers in [0, 1]"]
    zero = low = 0
    for v, w in enumerate(transversal_weights):
        if w == 0:
            zero |= 1 << v
        if w <= 1:
            low |= 1 << v
    for v, w in enumerate(transversal_weights):
        # an edge uv is covered when w(u) + w(v) >= 1 (doubled: >= 2)
        if (w == 0 and rows[v] & low) or (w == 1 and rows[v] & zero):
            errors.append(f"transversal leaves an edge at vertex {v} uncovered")
            break
    t_total = sum(transversal_weights)
    if not m_total == t_total == beta_star_doubled:
        errors.append(
            f"2beta* {beta_star_doubled}, fractional matching total {m_total}, transversal total {t_total} differ"
        )
    return errors


def _guarantee_holds(kind: str, param: int, n: int, beta: int, beta_star_doubled: int) -> bool:
    if kind in ("fpm", "fpm_min_degree"):
        return beta_star_doubled == n
    if kind == "pm":
        return 2 * beta == n
    if kind == "beta_star_geq":
        return beta_star_doubled >= param
    if kind == "beta_geq":
        return beta >= param
    raise ValueError(f"unknown guarantee kind {kind!r}")


def check_certificates(report, rows, n: int, rho: float, beta: int, beta_star_doubled: int) -> list[str]:
    """Every threshold matches the reference root, every certificate fires on
    the right side of it, and every fired guarantee holds."""
    connected = ref.is_connected(rows, n)
    delta = min(r.bit_count() for r in rows) if n else None
    errors = []
    if report.connected != connected or report.delta != delta:
        errors.append(f"report says connected={report.connected} delta={report.delta}; expected {connected}, {delta}")
    if report.rho is not None:
        errors += check_rho(report.rho, {"reference": rho})
    for rec in report.certificates:
        kind = "fpm_min_degree" if rec.name == "min-degree-fpm" else rec.kind
        want = ref.certificate_threshold(kind, rec.param, n, delta) if connected else None
        if rec.applicable != (want is not None):
            errors.append(f"{rec.name}: applicable={rec.applicable}, expected {want is not None}")
        if not rec.applicable:
            if rec.fired:
                errors.append(f"{rec.name}: fired while not applicable")
            continue
        if want is None:
            continue
        if rec.threshold is None or abs(rec.threshold - want) > THRESHOLD_RTOL * max(1.0, abs(want)):
            errors.append(f"{rec.name}: threshold {rec.threshold!r}, reference {want!r}")
        if abs(rho - want) > SIDE_MARGIN and rec.fired != (rho < want if kind == "fpm_min_degree" else rho > want):
            errors.append(f"{rec.name}: fired={rec.fired} with rho {rho!r} against threshold {want!r}")
        if rec.fired and not _guarantee_holds(kind, rec.param, n, beta, beta_star_doubled):
            errors.append(f"{rec.name}: fired but its guarantee '{rec.guarantee}' is false")
    return errors


# ---------------------------------------------------------------------------
# query-mix


class QueryReference:
    """The independent answers for one query graph, computed once per run."""

    def __init__(self, q):
        self.q = q
        n = q.n
        self.rho: dict[str, float] = {}
        if q.shape == "path":
            self.rho["2cos(pi/(n+1))"] = 2.0 * math.cos(math.pi / (n + 1))
        if q.shape == "complete":
            self.rho["n-1"] = float(n - 1)
        if q.shape == "extremal":
            self.rho["theta(n)"] = ref.theta(n)
        if n <= 500 or q.shape == "random":
            self.rho["eigvalsh"] = ref.rho_eigvalsh(q.rows, n)
        if q.shape == "random":
            self.beta = ref.beta_networkx(q.rows, n)
        elif q.shape == "extremal":  # the two pendant vertices share the hub
            self.beta = 1 + (n - 3) // 2
        else:
            self.beta = n // 2
        self.transversal = None  # doubled weights answered by the round, if any
        self._witnesses = None

    def witnesses(self, sm, g):
        """specmatch's canonical fractional matching of g and a fractional
        transversal (the round's answer, else a fresh one), made once;
        check_fractional validates them, never trusts them."""
        if self._witnesses is None:
            fm = sm.optimal_fractional_matching(g).doubled_weights
            tv = self.transversal if self.transversal is not None else sm.fractional_transversal(g).doubled_weights
            self._witnesses = (fm, tv)
        return self._witnesses


def check_query_op(op, qref: QueryReference, sm) -> list[str]:
    """Check one successful query request against its graph's references."""
    q = qref.q
    r = op.result
    if op.fname == "from_graph6":
        return [] if (r.n, r.rows) == (q.n, q.rows) else ["decoded edge set differs from the generated one"]
    if op.fname == "spectral_radius":
        return check_rho(r.value, qref.rho)
    if op.fname == "matching_number":
        return check_matching(q.rows, q.n, r.size, r.edges, qref.beta)
    if op.fname == "fractional_matching_number":
        fm, tv = qref.witnesses(sm, op.args[0])
        return check_fractional(q.rows, q.n, r.doubled, fm, tv)
    if op.fname == "fractional_transversal":
        fm, _ = qref.witnesses(sm, op.args[0])
        errors = check_fractional(q.rows, q.n, r.total.doubled, fm, r.doubled_weights)
        return errors + ([] if r.total.doubled == sum(r.doubled_weights) else ["transversal total is not its weight sum"])
    if op.fname == "certify_all":
        fm, tv = qref.witnesses(sm, op.args[0])
        bsd = sum(w for _, w in fm)
        errors = check_fractional(q.rows, q.n, bsd, fm, tv)  # proves bsd = 2 beta*
        rho = next(iter(qref.rho.values()))
        return errors + check_certificates(r, q.rows, q.n, rho, qref.beta, bsd)
    return [f"no check for {op.fname}"]


# ---------------------------------------------------------------------------
# sweeps


def check_theorem_report(rep, theorem: str, n: int, refs: dict) -> list[str]:
    import networkx as nx
    import numpy as np

    errors = _counts(rep.labeled_examined, rep.connected_count, n, refs)
    if not rep.passed:
        errors.append(f"report does not pass: {list(rep.discrepancies)[:3]}")
    connected_only = theorem in ("t32", "t13")
    for c in rep.classes:
        where = f"class {c.class_doubled}"
        bound = refs["class_bounds"][f"{theorem}/{n}/{c.class_doubled}"]
        if abs(c.bound - bound) > THRESHOLD_RTOL * max(1.0, abs(bound)):
            errors.append(f"{where}: bound {c.bound!r}, reference {bound!r}")
        g = nx.from_graph6_bytes(c.argmax_g6.encode("ascii"))
        if g.number_of_nodes() != n:
            errors.append(f"{where}: argmax {c.argmax_g6} has {g.number_of_nodes()} vertices")
            continue
        rho = float(np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=range(n)))[-1])
        if abs(rho - c.max_rho) > CLASS_RHO_TOL:
            errors.append(f"{where}: max_rho {c.max_rho!r}, eigvalsh of the argmax {rho!r}")
        if connected_only and not nx.is_connected(g):
            errors.append(f"{where}: argmax {c.argmax_g6} is not connected")
        if theorem in ("t32", "t33"):
            rows = [sum(1 << u for u in g[v]) for v in range(n)]
            key = ref.beta_star_doubled(rows, n)
        else:
            key = 2 * len(nx.max_weight_matching(g, maxcardinality=True))
        if key != c.class_doubled:
            errors.append(f"{where}: argmax {c.argmax_g6} belongs to class {key}")
        if c.n_maximizers < 1:
            errors.append(f"{where}: no maximiser counted")
    return errors


def _counts(labeled: int, connected: int, n: int, refs: dict) -> list[str]:
    errors = []
    if labeled != refs["labeled"][str(n)]:
        errors.append(f"{labeled} labeled graphs, expected {refs['labeled'][str(n)]}")
    if connected != refs["connected"][str(n)]:
        errors.append(f"{connected} connected graphs, expected {refs['connected'][str(n)]} (A001187)")
    return errors


def check_sweep_op(op, refs: dict) -> list[str]:
    rep = op.result
    if op.fname == "verify_theorem":
        theorem, n = op.args
        return check_theorem_report(rep, theorem, n, refs)
    errors = [] if rep.passed else ["report does not pass"]
    if op.fname == "verify_certificates":
        n = op.args[0]
        if rep.connected_examined != refs["connected"][str(n)]:
            errors.append(f"{rep.connected_examined} connected graphs examined, expected {refs['connected'][str(n)]}")
    elif op.fname in ("audit_duality", "audit_structures"):
        n = op.args[0]
        errors += _counts(rep.graphs, rep.connected_graphs, n, refs)
        if rep.fpm_graphs != refs["fpm_graphs"][str(n)]:
            errors.append(f"{rep.fpm_graphs} graphs with a fractional perfect matching, expected {refs['fpm_graphs'][str(n)]}")
    elif op.fname == "cross_check_matching_implementations":
        n = op.args[0]
        want = op.kwargs.get("samples") if n > 6 else refs["labeled"][str(n)]
        if rep.graphs_checked != want or rep.exhaustive != (n <= 6):
            errors.append(f"{rep.graphs_checked} graphs checked (exhaustive={rep.exhaustive}), expected {want}")
    elif op.fname == "verify_tie_class_n8":
        want = refs["tie_class_n8_max_rho"]
        if abs(rep.bound - want) > CLASS_RHO_TOL or abs(rep.max_rho_in_class - want) > CLASS_RHO_TOL:
            errors.append(f"bound {rep.bound!r} and class maximum {rep.max_rho_in_class!r}, expected {want!r}")
        if not rep.maximizers_match_clique_union or rep.class_graphs_checked < 1:
            errors.append("class maximisers are not the clique union")
    else:
        errors.append(f"no check for {op.fname}")
    return errors
