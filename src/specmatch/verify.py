"""Exhaustive small-graph sweeps: bounds, maximizers, certificates, audits.

Labeled graphs on n vertices are enumerated as edge-bit masks in graph6
column order.  Sweeps are sharded into fixed chunks (independent of the
worker count) and merged in chunk order, so reports are byte-identical
across runs and across --jobs settings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .certify import _guarantee_holds, certificate_table, certify_all, decide
from .extremal import (
    RegimePrediction,
    matching_bound_connected,
    matching_bound_general,
    predicted_maximizer_connected,
    predicted_maximizer_general,
)
from .graphs import (
    Graph,
    GraphError,
    is_connected,
    is_isomorphic,
    pairs_colex,
    to_graph6,
)
from .halfint import HalfIntegral
from .matching import (
    _blossom_max_matching,
    _dc_matching,
    _dc_matching_size,
    _fractional_matching_from,
    _transversal_from,
    fpm_partition,
    fractional_matching_number,
    matching_number,
    wrc_decomposition,
)
from .spectral import spectral_radius

ENUM_CAP = 8
ORACLE_N_CAP = 10  # the brute-force oracles enumerate vertex subsets: 2^n states
RHO_TOL = 1e-8
_SUBBATCH = 1 << 15
CERTIFY_STRIDE = 4096  # every CERTIFY_STRIDE-th connected graph of a chunk is reconciled with certify_all

THEOREMS = ("t32", "t33", "t12", "t13")
_CONNECTED_THEOREMS = {"t32": True, "t33": False, "t12": False, "t13": True}


# ---------------------------------------------------------------------------
# enumeration


def _graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    rows = [0] * n
    k = mask
    while k:
        b = k & -k
        u, v = pairs[b.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        k ^= b
    return Graph._from_rows_unchecked(n, tuple(rows))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield every labeled graph on n vertices once, edge-bit masks ascending."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if n > ENUM_CAP:
        raise GraphError(f"exhaustive enumeration capped at n <= {ENUM_CAP}, got {n}")
    pairs = pairs_colex(n)
    for mask in range(1 << len(pairs)):
        g = _graph_from_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        yield g


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_beta(g: Graph) -> int:
    """Exhaustive maximum matching size, by branching over the lowest vertex.

    The memo is keyed by the set of unmatched vertices, so a graph has at most
    2^n states; graphs with more than ``ORACLE_N_CAP`` vertices are refused.
    """
    if g.n > ORACLE_N_CAP:
        raise GraphError(f"matching oracle capped at n <= {ORACLE_N_CAP}, got {g.n}")
    rows = g.rows

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        res = best(rest)  # v stays unmatched
        nb = rows[v] & rest
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            res = max(res, 1 + best(rest & ~(1 << u)))
        return res

    result = best((1 << g.n) - 1)
    best.cache_clear()
    return result


def oracle_beta_star(g: Graph) -> HalfIntegral:
    """Fractional matching number by the fractional Tutte-Berge formula.

    2*beta_star = n - max(|I| - |N(I)|) over the independent sets I of g,
    where I = {} gives 0.  This is n - max_S (i(G - S) - |S|) (Scheinerman
    and Ullman, *Fractional Graph Theory*, ch. 2): the isolated vertices of
    G - S form an independent I with N(I) inside S, and S = N(I) attains the
    value.  All 2^n vertex subsets are enumerated, each neighbourhood built
    from the subset without its lowest vertex; graphs with more than
    ``ORACLE_N_CAP`` vertices are refused.
    """
    n = g.n
    if n > ORACLE_N_CAP:
        raise GraphError(f"fractional matching oracle capped at n <= {ORACLE_N_CAP}, got {n}")
    rows = g.rows
    nbhd = [0] * (1 << n)
    surplus = 0
    for subset in range(1, 1 << n):
        low = subset & -subset
        nbhd[subset] = nb = nbhd[subset ^ low] | rows[low.bit_length() - 1]
        if not nb & subset:
            surplus = max(surplus, subset.bit_count() - nb.bit_count())
    return HalfIntegral(n - surplus)


# ---------------------------------------------------------------------------
# vectorised chunk helpers


def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    # chunk count depends only on n, so reports do not depend on the job count
    m = n * (n - 1) // 2
    total = 1 << m
    chunks = 1 if m <= 15 else (64 if m <= 21 else 4096)
    step = total // chunks
    return [(i * step, (i + 1) * step if i < chunks - 1 else total) for i in range(chunks)]


def _batch_arrays(
    n: int, lo: int, hi: int, *, with_rho: bool = True
) -> tuple[list[float] | None, list[bool], list[tuple[int, ...]]]:
    """The chunk table of masks lo..hi-1: spectral radius, connectivity flag
    and neighbour rows of each graph, as Python lists.  Every sweep reads its
    graphs from here.  Workers that never read rho pass ``with_rho=False``
    and get ``None`` in its place, skipping the batched eigensolver."""
    if n == 0:  # the single empty graph K_0, which is not connected
        return [0.0] * (hi - lo) if with_rho else None, [False] * (hi - lo), [()] * (hi - lo)
    pairs = pairs_colex(n)
    m = len(pairs)
    iu = np.array([p[0] for p in pairs], dtype=np.int64)
    iv = np.array([p[1] for p in pairs], dtype=np.int64)
    rho = np.empty(hi - lo, dtype=np.float64)
    conn = np.empty(hi - lo, dtype=bool)
    rows_packed = np.empty((hi - lo, n), dtype=np.int64)
    eye = np.eye(n)
    shifts = (1 << np.arange(n, dtype=np.int64))
    for start in range(lo, hi, _SUBBATCH):
        stop = min(start + _SUBBATCH, hi)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
        a = np.zeros((stop - start, n, n))
        a[:, iu, iv] = bits
        a[:, iv, iu] = bits
        if with_rho:
            rho[start - lo : stop - lo] = np.linalg.eigvalsh(a)[:, -1]
        r = a + eye
        for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))))):
            r = ((r @ r) > 0).astype(np.float64)
        conn[start - lo : stop - lo] = r[:, 0, :].all(axis=1)
        rows_packed[start - lo : stop - lo] = (a.astype(np.int64) * shifts[None, None, :]).sum(axis=2)
    return rho.tolist() if with_rho else None, conn.tolist(), list(zip(*rows_packed.T.tolist()))


def _sweep(worker: Callable, n: int, jobs: int, *extra) -> list:
    """Run worker((n, lo, hi, *extra)) on every chunk of the labeled graphs on
    n vertices; the partial results come back in chunk order."""
    chunk_args = [(n, lo, hi, *extra) for lo, hi in _chunk_ranges(n)]
    if jobs <= 1 or len(chunk_args) == 1:
        return [worker(a) for a in chunk_args]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(jobs) as pool:
        return pool.map(worker, chunk_args)


# ---------------------------------------------------------------------------
# theorem sweeps


@dataclass(frozen=True)
class ClassRecord:
    n: int
    class_doubled: int
    regime: str
    bound: float
    max_rho: float
    n_maximizers: int
    argmax_g6: str
    prediction_g6: tuple[str, ...]
    bound_holds: bool
    argmax_matches: bool


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n: int
    connected_only: bool
    labeled_examined: int
    connected_count: int
    classes: tuple[ClassRecord, ...]
    discrepancies: tuple[str, ...]
    resolutions: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.discrepancies and all(c.bound_holds and c.argmax_matches for c in self.classes)

    def to_csv(self) -> str:
        lines = ["n,two_beta_star,regime,bound,max_rho,n_maximizers,argmax_g6,prediction_g6,bound_holds,argmax_matches"]
        for c in self.classes:
            lines.append(
                f"{c.n},{c.class_doubled},{c.regime},{c.bound:.12g},{c.max_rho:.12g},"
                f"{c.n_maximizers},{c.argmax_g6},{';'.join(c.prediction_g6)},"
                f"{str(c.bound_holds).lower()},{str(c.argmax_matches).lower()}"
            )
        return "\n".join(lines) + "\n"


def _predict(theorem: str, n: int, class_doubled: int) -> RegimePrediction:
    if theorem == "t32":
        return predicted_maximizer_connected(n, HalfIntegral(class_doubled))
    if theorem == "t33":
        return predicted_maximizer_general(n, HalfIntegral(class_doubled))
    if theorem == "t12":
        return matching_bound_general(n, class_doubled // 2)
    if theorem == "t13":
        return matching_bound_connected(n, class_doubled // 2)
    raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")


def _theorem_chunk(args: tuple) -> tuple:
    """Per class of the chunk, the candidates: the (rho, mask) pairs with
    rho >= min(class maximum in the chunk, class bound) - ``RHO_TOL``.  So
    every maximizer of a class and every graph at or above its bound, over
    the whole sweep, is a candidate of its chunk."""
    n, lo, hi, theorem, bounds = args
    connected_only = _CONNECTED_THEOREMS[theorem]
    fractional = theorem in ("t32", "t33")
    rho_list, conn_list, rows_list = _batch_arrays(n, lo, hi)
    members: dict[int, list[int]] = {}
    for i, rows in enumerate(rows_list):
        if connected_only and not conn_list[i]:
            continue
        if fractional:
            key = _dc_matching_size(rows, n)
        else:
            key = 2 * _blossom_max_matching(rows, n)[0]
        members.setdefault(key, []).append(i)
    candidates = {}
    for key, idx in members.items():
        floor = min(max(rho_list[i] for i in idx), bounds[key]) - RHO_TOL
        candidates[key] = [(rho_list[i], lo + i) for i in idx if rho_list[i] >= floor]
    return sum(conn_list), candidates


def verify_theorem(
    theorem: str,
    n: int,
    jobs: int = 1,
    long_run: bool = False,
    bound_offset: float = 0.0,
) -> VerificationReport:
    """Bucket all (connected, for the connected theorems) labeled graphs on n
    vertices by class, then check bounds, maximizers, and predictions."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    if n < 1:
        raise GraphError("verification needs n >= 1")
    if n > 7 and not long_run:
        raise GraphError(f"full sweep at n={n} enumerates 2^{n * (n - 1) // 2} graphs; pass long_run to allow it")
    if n > ENUM_CAP:
        raise GraphError(f"full sweep capped at n <= {ENUM_CAP}")
    connected_only = _CONNECTED_THEOREMS[theorem]
    fractional = theorem in ("t32", "t33")

    predictions: dict[int, RegimePrediction] = {}
    bounds: dict[int, float] = {}
    keys = range(0, n + 1) if fractional else range(0, n + 1, 2)
    for key in keys:
        pred = _predict(theorem, n, key)
        predictions[key] = pred
        bounds[key] = pred.bound + bound_offset

    connected_count = 0
    merged: dict[int, list[tuple[float, int]]] = {}
    for cc, candidates in _sweep(_theorem_chunk, n, jobs, theorem, bounds):
        connected_count += cc
        for key, cands in candidates.items():
            merged.setdefault(key, []).extend(cands)

    pairs = pairs_colex(n)
    records: list[ClassRecord] = []
    discrepancies: list[str] = []
    regime2_maxima: dict[int, float] = {}

    for key in sorted(merged):
        cands = merged[key]
        max_rho = max(r for r, _ in cands)
        pred = predictions[key]
        bound = bounds[key]
        label = "2beta*" if fractional else "2beta"
        bound_holds = max_rho <= bound + RHO_TOL
        if not bound_holds:
            bad = _graph_from_mask(n, min(mk for r, mk in cands if r == max_rho), pairs)
            discrepancies.append(
                f"class {label}={key}: max rho {max_rho:.12g} exceeds bound {bound:.12g} at {to_graph6(bad)}"
            )
        maximizer_masks = sorted(mk for r, mk in cands if r >= max_rho - RHO_TOL)
        n_maximizers = len(maximizer_masks)
        argmax_g6 = to_graph6(_graph_from_mask(n, maximizer_masks[0], pairs))

        # predicted graphs that genuinely belong to this class
        in_class: list[Graph] = []
        for pg in pred.extremal_graphs:
            if connected_only and not is_connected(pg):
                continue
            if fractional:
                member = fractional_matching_number(pg).doubled == key
            else:
                member = 2 * matching_number(pg).size == key
            if member:
                in_class.append(pg)

        at_bound = sorted((mk, r) for r, mk in cands if r >= bound - RHO_TOL)
        argmax_matches = True
        if in_class:
            hit = [False] * len(in_class)
            for mk, screened in at_bound:
                cand = _graph_from_mask(n, mk, pairs)
                # confirm the batched screen with the residual-checked spectral_radius
                rho = spectral_radius(cand).value
                if abs(rho - screened) > 1e-6:
                    discrepancies.append(
                        f"class {label}={key}: batched screen and spectral_radius disagree on {to_graph6(cand)}"
                    )
                matched = False
                for idx, pg in enumerate(in_class):
                    if is_isomorphic(cand, pg):
                        hit[idx] = True
                        matched = True
                        break
                if not matched:
                    argmax_matches = False
                    discrepancies.append(
                        f"class {label}={key}: graph {to_graph6(cand)} attains the bound but is not a predicted extremal graph"
                    )
            for idx, pg in enumerate(in_class):
                if not hit[idx]:
                    argmax_matches = False
                    discrepancies.append(
                        f"class {label}={key}: predicted extremal graph {to_graph6(pg)} does not attain the class maximum"
                    )
        else:
            # the bound is strict for this class; nothing may reach it
            if at_bound:
                argmax_matches = False
                mk = at_bound[0][0]
                cand = _graph_from_mask(n, mk, pairs)
                discrepancies.append(
                    f"class {label}={key}: bound expected strict but {to_graph6(cand)} attains it"
                )
        if pred.regime in ("2", "3") and theorem == "t33":
            regime2_maxima[key] = max_rho
        records.append(
            ClassRecord(
                n,
                key,
                pred.regime,
                bound,
                max_rho,
                n_maximizers,
                argmax_g6,
                tuple(to_graph6(pg) for pg in pred.extremal_graphs),
                bound_holds,
                argmax_matches,
            )
        )

    resolutions: list[str] = []
    if theorem == "t33":
        for key, mx in sorted(regime2_maxima.items()):
            resolutions.append(
                f"class 2beta*={key}: empirical max rho = {mx:.12g} = 2beta*-1 = {key - 1}; "
                f"the stated bound 2beta* = {key} is not attained"
            )
        if regime2_maxima:
            resolutions.append("bound constant for the clique-union regimes resolves to 2beta*-1")
    if theorem == "t13":
        for rec in records:
            pred = predictions[rec.class_doubled]
            if pred.regime == "2":
                resolutions.append(
                    f"class 2beta={rec.class_doubled}: empirical max rho = {rec.max_rho:.12g} matches the "
                    f"hub-family quotient threshold {pred.bound:.12g}; {pred.notes[0]}"
                )

    labeled = 1 << (n * (n - 1) // 2)
    return VerificationReport(
        theorem,
        n,
        connected_only,
        labeled,
        connected_count,
        tuple(records),
        tuple(discrepancies),
        tuple(resolutions),
    )


# ---------------------------------------------------------------------------
# certificate soundness sweep


@dataclass(frozen=True)
class CertSweepReport:
    n: int
    connected_examined: int
    counts: tuple[tuple[str, int, int], ...]  # (name, applicable, fired)
    unsound: tuple[tuple[str, str], ...]  # (graph6, certificate)
    certify_samples: int

    @property
    def passed(self) -> bool:
        return not self.unsound


def _cert_chunk(args: tuple) -> tuple:
    n, lo, hi = args
    table = certificate_table(n, connected=True)
    rho_list, conn_list, rows_list = _batch_arrays(n, lo, hi)
    counts = {cert.name: [0, 0] for cert in table if cert.threshold is not None}
    unsound: list[tuple[str, str]] = []
    examined = 0
    samples = 0
    for rho, connected, rows in zip(rho_list, conn_list, rows_list):
        if not connected:
            continue
        delta = min(r.bit_count() for r in rows)
        bsd = _dc_matching_size(rows, n)
        beta = _blossom_max_matching(rows, n)[0]
        outcome = []  # (applicable, fired) per table row
        for cert in table:
            if cert.threshold is None:
                outcome.append((False, False))
                continue
            fired = decide(cert, rho, delta)[1]
            outcome.append((True, fired))
            c = counts[cert.name]
            c[0] += 1
            c[1] += fired
            if fired and not _guarantee_holds(cert.kind, cert.param, n, beta, bsd):
                unsound.append((to_graph6(Graph._from_rows_unchecked(n, rows)), cert.name))
        if examined % CERTIFY_STRIDE == 0:
            # reconcile the batched screen with the full certify_all route
            g = Graph._from_rows_unchecked(n, rows)
            for rec, seen in zip(certify_all(g, verify_truth=True).certificates, outcome):
                if (rec.applicable, rec.fired) != seen:
                    unsound.append((to_graph6(g), f"fast-path mismatch on {rec.name}"))
            samples += 1
        examined += 1
    return examined, counts, unsound, samples


def verify_certificates(n: int, jobs: int = 1) -> CertSweepReport:
    """Run every certificate over all connected labeled graphs on n vertices.

    Each chunk builds the certificate table of certify_all once and decides
    every applicable row with the same rule, from the batched spectral
    radius, beta and beta*.  Every ``CERTIFY_STRIDE``-th connected graph of
    a chunk also goes through certify_all itself, and any difference in
    (applicable, fired) is reported as a fast-path mismatch.  Any
    fired-but-false certificate is reported.
    """
    if n < 1:
        raise GraphError("verification needs n >= 1")
    if n > 7:
        raise GraphError("certificate sweep capped at n <= 7")
    counts: dict[str, list[int]] = {}
    unsound: list[tuple[str, str]] = []
    samples = 0
    examined = 0
    for ex, c, u, s in _sweep(_cert_chunk, n, jobs):
        examined += ex
        for name, (app, fired) in c.items():
            tgt = counts.setdefault(name, [0, 0])
            tgt[0] += app
            tgt[1] += fired
        unsound.extend(u)
        samples += s
    return CertSweepReport(
        n,
        examined,
        tuple((name, c[0], c[1]) for name, c in sorted(counts.items())),
        tuple(unsound),
        samples,
    )


# ---------------------------------------------------------------------------
# structural audits


@dataclass(frozen=True)
class AuditReport:
    n: int
    graphs: int
    connected_graphs: int
    fpm_graphs: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _audit_chunk(args: tuple) -> tuple:
    n, lo, hi = args
    _, conn_list, rows_list = _batch_arrays(n, lo, hi, with_rho=False)
    violations: list[str] = []
    fpm_graphs = 0
    for connected, rows in zip(conn_list, rows_list):
        g = Graph._from_rows_unchecked(n, rows)
        # one double-cover matching gives 2*beta_star and both witnesses
        match_l, match_r = _dc_matching(rows, n)
        bsd = n - match_l.count(-1)
        fm = _fractional_matching_from(g, match_l)
        t = _transversal_from(g, match_l, match_r)
        faults: list[str] = []
        if fm.total.doubled != bsd or t.total.doubled != bsd:
            faults.append(f"primal {fm.total} / dual {t.total} / matching {HalfIntegral(bsd)} differ")
        try:
            fm.half_cycles()
        except GraphError:
            faults.append("half-weight support is not a disjoint union of odd cycles")
        # each witness is validated once: by fpm_partition and wrc_decomposition where they run
        if bsd == n:
            fpm_graphs += 1
            try:
                fpm_partition(g, fm)
            except GraphError as exc:
                faults.append(f"fractional perfect matching partition failed: {exc}")
        else:
            fm.validate(g)
        if not connected:
            t.validate(g)
        else:
            # R independent with no R-C edge is the coverage rule that validate enforces
            rep = wrc_decomposition(g, t, beta_star_doubled=bsd)
            if not rep.connected_rule_ok:
                faults.append("connected graph has exactly one of W, R empty")
            if rep.eq1_holds is not True:
                faults.append("optimal transversal violates total = (n - (|R|-|W|))/2")
            if rep.r_geq_w is not True:
                faults.append("optimal transversal has |R| < |W|")
        violations.extend(f"{to_graph6(g)}: {f}" for f in faults)
    return sum(conn_list), fpm_graphs, violations


def audit_structures(n: int, jobs: int = 1) -> AuditReport:
    """Audit the half-integral witnesses of every labeled graph on n vertices.

    Per graph: the canonical fractional matching, the optimal transversal
    and 2*beta_star have one total (duality); the matching's half-weight
    support is a disjoint union of odd cycles; the perfect-matching
    partition succeeds when 2*beta_star = n; and, on connected graphs, the
    transversal's W/R/C classes satisfy the structure rules.  All three come
    from one double-cover matching per graph, and each witness is validated
    once.
    """
    if n < 0:
        raise GraphError("audit needs n >= 0")
    if n > 7:
        raise GraphError("structure audit capped at n <= 7")
    partials = _sweep(_audit_chunk, n, jobs)
    connected_graphs = sum(p[0] for p in partials)
    fpm_graphs = sum(p[1] for p in partials)
    violations = tuple(v for p in partials for v in p[2])
    return AuditReport(n, 1 << (n * (n - 1) // 2), connected_graphs, fpm_graphs, violations)


# the duality audit is part of the structure audit; the old name stays for callers
audit_duality = audit_structures


# ---------------------------------------------------------------------------
# implementation cross-checks


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    exhaustive: bool
    graphs_checked: int
    mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _cross_check_one(g: Graph) -> list[str]:
    out = []
    fast = fractional_matching_number(g)
    slow = oracle_beta_star(g)
    if fast != slow:
        out.append(f"{to_graph6(g)}: fractional matching number {fast} != oracle {slow}")
    bfast = matching_number(g).size
    bslow = oracle_beta(g)
    if bfast != bslow:
        out.append(f"{to_graph6(g)}: matching number {bfast} != oracle {bslow}")
    return out


def _cross_chunk(args: tuple) -> list[str]:
    n, lo, hi = args
    out: list[str] = []
    for rows in _batch_arrays(n, lo, hi, with_rho=False)[2]:
        out.extend(_cross_check_one(Graph._from_rows_unchecked(n, rows)))
    return out


def cross_check_matching_implementations(
    n: int, samples: int = 1000, seed: int = 2024, jobs: int = 1
) -> CrossCheckReport:
    """Exhaustive (n <= 6) or sampled comparison of both matching numbers
    against the brute-force oracles."""
    if n < 0:
        raise GraphError("n must be non-negative")
    if n <= 6:
        mism = [line for p in _sweep(_cross_chunk, n, jobs) for line in p]
        return CrossCheckReport(n, True, 1 << (n * (n - 1) // 2), tuple(mism))
    if n > ORACLE_N_CAP:
        raise GraphError(f"sampled cross-check capped at n <= {ORACLE_N_CAP}")
    if samples < 1:
        raise GraphError(f"sampled cross-check needs samples >= 1, got {samples}")
    rng = random.Random(seed)
    pairs = pairs_colex(n)
    mism = []
    for _ in range(samples):
        p = rng.uniform(0.05, 0.95)
        mism.extend(_cross_check_one(Graph(n, [pair for pair in pairs if rng.random() < p])))
    return CrossCheckReport(n, False, samples, tuple(mism))


# ---------------------------------------------------------------------------
# the n=8 tie class: 2*beta_star = 5


@dataclass(frozen=True)
class TieCaseReport:
    bound: float
    predicted_g6: tuple[str, ...]
    predicted_rho: tuple[float, ...]
    predicted_in_class: tuple[bool, ...]
    class_graphs_checked: int
    max_rho_in_class: float
    maximizers_match_clique_union: bool
    notes: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_tie_class_n8(samples: int = 4000, seed: int = 2024) -> TieCaseReport:
    """Check the n=8, 2*beta_star=5 class without the full 2^28 sweep.

    Every graph in the class embeds into one of the two transversal shapes
    K_5 u 3K_1 (s=0) or K_1 v (K_3 u 4K_1) (s=1); the s=2 shape would force
    fractional matching number 2.  Both shape closures are enumerated
    exhaustively (all edge subsets), then random graphs confirm the bound.
    """
    if samples < 0:
        raise GraphError(f"samples must be non-negative, got {samples}")
    n, d = 8, 5
    pred = predicted_maximizer_general(n, HalfIntegral(d))
    rng = random.Random(seed)
    violations: list[str] = []
    notes = list(pred.notes)

    predicted_rho = tuple(spectral_radius(g).value for g in pred.extremal_graphs)
    predicted_in_class = tuple(fractional_matching_number(g).doubled == d for g in pred.extremal_graphs)
    for g, r in zip(pred.extremal_graphs, predicted_rho):
        if abs(r - pred.bound) > RHO_TOL:
            violations.append(f"predicted graph {to_graph6(g)} has rho {r:.12g}, bound {pred.bound:.12g}")

    clique_union = pred.extremal_graphs[-1]  # K_5 u 3K_1
    max_rho = -1.0
    checked = 0
    maximizers_ok = True

    def consider(g: Graph) -> None:
        nonlocal max_rho, checked, maximizers_ok
        if fractional_matching_number(g).doubled != d:
            return
        checked += 1
        r = spectral_radius(g).value
        if r > pred.bound + RHO_TOL:
            violations.append(f"class graph {to_graph6(g)} exceeds the bound: rho {r:.12g}")
        if r > max_rho:
            max_rho = r
        if r >= pred.bound - RHO_TOL and not is_isomorphic(g, clique_union):
            maximizers_ok = False
            violations.append(f"class graph {to_graph6(g)} attains the bound but is not the clique union")

    # exhaustive over both shape closures (every subset of each shape's edges)
    for shape in (
        clique_union,
        Graph(8, [(0, v) for v in range(1, 8)] + [(1, 2), (1, 3), (2, 3)]),  # K_1 v (K_3 u 4K_1)
    ):
        edges = list(shape.edges())
        for mask in range(1 << len(edges)):
            consider(_graph_from_mask(8, mask, edges))

    pairs = pairs_colex(n)
    for _ in range(samples):
        p = rng.uniform(0.1, 0.5)
        consider(Graph(n, [pair for pair in pairs if rng.random() < p]))

    if abs(max_rho - pred.bound) > RHO_TOL:
        violations.append(f"class maximum {max_rho:.12g} does not reach the bound {pred.bound:.12g}")
    notes.append(
        "class maximum equals 2beta*-1 = 4, attained only by the clique union; "
        "the split join K_2 v 6K_1 also has rho 4 but lies in the 2beta*=4 class"
    )
    return TieCaseReport(
        pred.bound,
        tuple(to_graph6(g) for g in pred.extremal_graphs),
        predicted_rho,
        predicted_in_class,
        checked,
        max_rho,
        maximizers_ok,
        tuple(notes),
        tuple(violations),
    )
