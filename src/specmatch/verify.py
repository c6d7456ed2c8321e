"""Exhaustive small-graph sweeps: bounds, maximizers, certificates, audits.

Labeled graphs on n vertices are edge-bit masks in graph6 column order.
Every sweep reads its graphs from one table of numpy columns built from an
array of masks (``_batch_arrays``): connectivity, minimum degree, edge
count, beta and 2*beta_star from the brute-force oracles' subset tables,
and the neighbour rows.  The exhaustive sweeps are sharded into fixed
chunks of the mask range (independent of the worker count) and merged in
chunk order, so reports are byte-identical across runs and across --jobs
settings.  The sampled cross-check reads the masks it draws, and the n = 8
tie class every edge subset of its two shape closures and its samples, on
which it runs the theorem sweep's screen and class check; ``_sweep`` runs
such a mask set in windows of bounded table size, like chunks.  rho is not
a table column: the workers that read it call one batched eigensolver,
``_rho_column``.  The certificate sweep computes it for every connected
graph; the theorem screen, densest edge count first, only while Stanley's
bound can reach a class maximum or bound, 0.1-1.5 % of the graphs at n = 6
and 7; the audit and the cross-check never read it.  The theorem and
certificate sweeps work on whole columns; the audit and the cross-check,
which build witnesses, go graph by graph.  The audit runs on the bitmask
witness core of ``matching`` and its rules, the same code the public
witness constructors wrap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .certify import _guarantee_holds, certificate_table, certify_all, decide
from .extremal import (
    ExtremalSpec,
    RegimePrediction,
    build_extremal,
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
    _check_cover,
    _check_matching,
    _check_perfect,
    _dc_matching,
    _fractional_matching_from,
    _odd_cycles,
    _transversal_from,
    _wrc_rules,
    fractional_matching_number,
    matching_number,
)
from .spectral import spectral_radius

ENUM_CAP = 8
ORACLE_N_CAP = 10  # the brute-force oracles enumerate vertex subsets: 2^n states
RHO_TOL = 1e-8
_TABLE_CELLS = 1 << 21  # subset-table cells per batch: 32,768 graphs at n = 6
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
# subset tables: the brute-force oracles and the chunk table's invariants


def _subset_columns(rows: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Connectivity, minimum degree, edge count, beta and 2*beta_star of each
    graph of a (graphs, n) array of neighbour rows, n <= 10, from one pass
    over the 2^n vertex subsets S of all the graphs at once; the tables have
    2^n cells per graph, so callers pass at most ``_TABLE_CELLS >> n`` graphs.

    Vertex v doubles the tables: for S inside {0..v-1},
    N(S + v) = N(S) | N(v), and a maximum matching of G[S + v] leaves v
    unmatched or matches it to a neighbour u in S, so
    beta(S + v) = max(beta(S), 1 + beta(S - u)).  Then g is connected when
    the closure of {0} under N is V, and 2*beta_star = n - max(|I| - |N(I)|)
    over the independent sets I, where I = {} gives 0.  This is the
    fractional Tutte-Berge formula n - max_S (i(G - S) - |S|) (Scheinerman
    and Ullman, *Fractional Graph Theory*, ch. 2): the isolated vertices of
    G - S form an independent I with N(I) inside S, and S = N(I) attains
    the value.  The maximum is taken over all subsets S, independent or
    not, with the same value: I = S - N(S) is independent, and N(I) misses
    S & N(S) (a neighbour of I inside S would put I's vertex in N(S)), so
    |I| - |N(I)| >= |S| - |N(S)|.
    """
    count = len(rows)
    rows = rows.astype(np.uint16)
    size = np.array([s.bit_count() for s in range(1 << n)], dtype=np.int8)
    nbhd = np.zeros((1 << n, count), dtype=np.uint16)
    beta = np.zeros((1 << n, count), dtype=np.int8)
    for v in range(n):
        old, new = beta[: 1 << v], beta[1 << v : 2 << v]
        nbhd[1 << v : 2 << v] = nbhd[: 1 << v] | rows[:, v]
        new[:] = old
        for u in range(v):
            # axis 1 splits the subsets of {0..v-1} on u: [:, 1] holds S, [:, 0] holds S - u
            adjacent = ((rows[:, v] >> u) & 1).astype(np.int8)
            src, dst = old.reshape(-1, 2, 1 << u, count), new.reshape(-1, 2, 1 << u, count)
            np.maximum(dst[:, 1], (src[:, 0] + 1) * adjacent, out=dst[:, 1])
    reach = np.ones(count, dtype=np.intp)
    graphs = np.arange(count)
    for _ in range(n - 1):
        reach |= nbhd[reach, graphs]
    surplus = (size[:, None] - size[nbhd]).max(axis=0, initial=0)
    degrees, connected = size[rows], reach == (1 << n) - 1
    return connected, degrees.min(axis=1, initial=n), degrees.sum(axis=1) // 2, beta[-1], n - surplus.astype(np.int64)


def _oracle_columns(g: Graph, what: str) -> tuple[np.ndarray, ...]:
    if g.n > ORACLE_N_CAP:
        raise GraphError(f"{what} oracle capped at n <= {ORACLE_N_CAP}, got {g.n}")
    return _subset_columns(np.array([g.rows], dtype=np.int64), g.n)


def oracle_beta(g: Graph) -> int:
    """Exhaustive maximum matching size: the beta column of the subset tables
    (``_subset_columns``) on g alone.  A table has 2^n rows, so graphs with
    more than ``ORACLE_N_CAP`` vertices are refused."""
    return int(_oracle_columns(g, "matching")[3][0])


def oracle_beta_star(g: Graph) -> HalfIntegral:
    """Fractional matching number by the fractional Tutte-Berge formula: the
    2*beta_star column of the subset tables (``_subset_columns``) on g alone.
    A table has 2^n rows, so graphs with more than ``ORACLE_N_CAP`` vertices
    are refused."""
    return HalfIntegral(int(_oracle_columns(g, "fractional matching")[4][0]))


# ---------------------------------------------------------------------------
# vectorised chunk helpers


def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    # chunk count depends only on n, so reports do not depend on the job count
    m = n * (n - 1) // 2
    total = 1 << m
    chunks = 1 if m <= 15 else (64 if m <= 21 else 4096)
    step = total // chunks
    return [(i * step, (i + 1) * step if i < chunks - 1 else total) for i in range(chunks)]


def _rho_column(rows: np.ndarray, n: int) -> np.ndarray:
    """Spectral radius of each graph of a (graphs, n) array of neighbour
    rows, from one batched ``eigvalsh`` (K_0 reads 0).  The solver works
    matrix by matrix, so a graph's rho does not depend on the batch it is
    computed in."""
    if not n:
        return np.zeros(len(rows))
    a = ((rows[:, :, None] >> np.arange(n)) & 1).astype(np.float64)
    return np.linalg.eigvalsh(a)[:, -1]


def _batch_arrays(n: int, lo: int, hi: int, *, masks: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The table of the graphs on n vertices whose edge masks, in graph6 bit
    order (``pairs_colex``), are masks[lo:hi], or lo..hi-1 when masks is
    None; one numpy array per column: connectivity flag, minimum degree,
    edge count, beta, 2*beta_star, the (graphs, n) array of neighbour rows
    and the masks (K_0 reads not connected, degree 0).  Every sweep reads
    its graphs and their invariants from here: the chunk workers a range of
    masks, the sampled cross-check and the n = 8 tie class the masks they
    draw or enumerate, repeats and any order allowed.  The invariants come
    from the oracles' subset tables (``_subset_columns``); rho is left to
    the workers that read it (``_rho_column``)."""
    masks = np.arange(lo, hi, dtype=np.int64) if masks is None else np.asarray(masks[lo:hi], dtype=np.int64)
    rows = np.zeros((len(masks), n), dtype=np.int64)
    for j, (u, v) in enumerate(pairs_colex(n)):
        bit = (masks >> j) & 1
        rows[:, u] |= bit << v
        rows[:, v] |= bit << u
    step = _TABLE_CELLS >> n
    columns = [_subset_columns(rows[start : start + step], n) for start in range(0, len(masks), step)]
    return (*(np.concatenate(c) for c in zip(*columns)), rows, masks)


def _sweep(worker: Callable, n: int, jobs: int, masks: np.ndarray | None = None, *extra) -> list:
    """Run worker((n, lo, hi, masks, *extra)) on every chunk of the labeled
    graphs on n vertices, or given masks, on every window of at most
    ``_TABLE_CELLS >> n`` of them, passed as its own array; in at most
    min(jobs, windows) processes, the results in window order."""
    if masks is None:
        chunk_args = [(n, lo, hi, None, *extra) for lo, hi in _chunk_ranges(n)]
    else:
        step = _TABLE_CELLS >> n
        chunk_args = [(n, 0, len(w), w, *extra) for w in (masks[lo : lo + step] for lo in range(0, len(masks), step))]
    if jobs <= 1 or len(chunk_args) == 1:
        return [worker(a) for a in chunk_args]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(min(jobs, len(chunk_args))) as pool:
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


def _rho_cap(edges: np.ndarray) -> np.ndarray:
    """Stanley's bound rho <= (sqrt(1 + 8m) - 1)/2 on a graph with m edges
    (R. P. Stanley, *Linear Algebra Appl.* 87, 1987), raised by ``RHO_TOL``
    so that it also caps the rho that ``eigvalsh`` rounds."""
    return (np.sqrt(1 + 8 * edges) - 1) / 2 + RHO_TOL


def _theorem_chunk(args: tuple) -> tuple:
    """Per class named in bounds that has graphs in the table of
    masks[lo:hi] (``_batch_arrays``): its size, and its candidates, the
    (rho, mask) pairs with rho >= min(class maximum in the table, class
    bound) - ``RHO_TOL``.  So every maximizer of a class and every graph at
    or above its bound, over a whole sweep, is a candidate of its chunk.

    rho comes from ``_rho_column``, and only for the graphs whose cap
    (``_rho_cap``) leaves them a chance.  Per class, the loop takes the
    graphs one edge count at a time, densest first, and stops at the first
    edge count whose cap falls below min(running class maximum, class
    bound) - ``RHO_TOL``.  The cap grows with the edge count, so every
    graph left out has rho below that threshold, and the candidates are
    those of a full rho column, bit for bit."""
    n, lo, hi, masks, theorem, bounds = args
    connected, _, edges, beta, bsd, rows, masks = _batch_arrays(n, lo, hi, masks=masks)
    keys = bsd if theorem in ("t32", "t33") else 2 * beta
    if _CONNECTED_THEOREMS[theorem]:
        keys = np.where(connected, keys, -1)  # -1: no class
    cap = _rho_cap(edges)
    rho = np.full(len(masks), -np.inf)  # -inf: not computed, below every threshold
    sizes, candidates = {}, {}
    for key, bound in bounds.items():
        idx = np.flatnonzero(keys == key)
        if not len(idx):
            continue
        top = -np.inf
        for m in np.unique(edges[idx])[::-1].tolist():
            block = idx[edges[idx] == m]
            if cap[block[0]] < min(top, bound) - RHO_TOL:
                break
            rho[block] = _rho_column(rows[block], n)
            top = max(top, rho[block].max())
        sizes[key] = len(idx)
        idx = idx[rho[idx] >= min(top, bound) - RHO_TOL]
        candidates[key] = list(zip(rho[idx].tolist(), masks[idx].tolist()))
    return int(connected.sum()), sizes, candidates


def _check_class(theorem: str, n: int, key: int, pred: RegimePrediction, cands: list[tuple[float, int]]) -> tuple:
    """The record of one class from its candidates (``_theorem_chunk``), which
    predicted graphs lie in the class, and the discrepancies: the class
    maximum against the bound; every candidate at the bound confirmed by
    ``spectral_radius`` and matched by isomorphism to a predicted graph of
    the class, each of which must attain it; with no predicted graph in the
    class, nothing may reach the bound."""
    fractional = theorem in ("t32", "t33")
    label = "2beta*" if fractional else "2beta"
    pairs = pairs_colex(n)
    discrepancies: list[str] = []
    max_rho = max(r for r, _ in cands)
    bound_holds = max_rho <= pred.bound + RHO_TOL
    if not bound_holds:
        bad = _graph_from_mask(n, min(mk for r, mk in cands if r == max_rho), pairs)
        discrepancies.append(
            f"class {label}={key}: max rho {max_rho:.12g} exceeds bound {pred.bound:.12g} at {to_graph6(bad)}"
        )
    maximizer_masks = sorted(mk for r, mk in cands if r >= max_rho - RHO_TOL)
    argmax_g6 = to_graph6(_graph_from_mask(n, maximizer_masks[0], pairs))

    # predicted graphs that genuinely belong to this class
    members = tuple(
        (not _CONNECTED_THEOREMS[theorem] or is_connected(pg))
        and (fractional_matching_number(pg).doubled if fractional else 2 * matching_number(pg).size) == key
        for pg in pred.extremal_graphs
    )
    in_class = [pg for pg, member in zip(pred.extremal_graphs, members) if member]

    at_bound = sorted((mk, r) for r, mk in cands if r >= pred.bound - RHO_TOL)
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
    elif at_bound:
        # the bound is strict for this class; nothing may reach it
        argmax_matches = False
        cand = _graph_from_mask(n, at_bound[0][0], pairs)
        discrepancies.append(f"class {label}={key}: bound expected strict but {to_graph6(cand)} attains it")
    record = ClassRecord(
        n,
        key,
        pred.regime,
        pred.bound,
        max_rho,
        len(maximizer_masks),
        argmax_g6,
        tuple(to_graph6(pg) for pg in pred.extremal_graphs),
        bound_holds,
        argmax_matches,
    )
    return record, members, discrepancies


def verify_theorem(theorem: str, n: int, jobs: int = 1, long_run: bool = False) -> VerificationReport:
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

    keys = range(0, n + 1) if theorem in ("t32", "t33") else range(0, n + 1, 2)
    predictions = {key: _predict(theorem, n, key) for key in keys}
    bounds = {key: pred.bound for key, pred in predictions.items()}

    connected_count = 0
    merged: dict[int, list[tuple[float, int]]] = {}
    for cc, _, candidates in _sweep(_theorem_chunk, n, jobs, None, theorem, bounds):
        connected_count += cc
        for key, cands in candidates.items():
            merged.setdefault(key, []).extend(cands)

    records: list[ClassRecord] = []
    discrepancies: list[str] = []
    regime2_maxima: dict[int, float] = {}
    for key in sorted(merged):
        record, _, found = _check_class(theorem, n, key, predictions[key], merged[key])
        records.append(record)
        discrepancies += found
        if record.regime in ("2", "3") and theorem == "t33":
            regime2_maxima[key] = record.max_rho

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
        _CONNECTED_THEOREMS[theorem],
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
    n, lo, hi, masks = args
    connected, delta, _, beta, bsd, rows, _ = _batch_arrays(n, lo, hi, masks=masks)
    delta, beta, bsd, rows = (col[connected] for col in (delta, beta, bsd, rows))
    rho = _rho_column(rows, n)
    table = certificate_table(n, connected=True)
    applicable = [cert.threshold is not None for cert in table]
    # (table rows, graphs) matrices, the table having 3 rows or more; a row
    # that does not apply never fires
    never = np.zeros(len(rho), dtype=bool)
    fired = np.array([decide(c, rho, delta)[1] if app else never for c, app in zip(table, applicable)], dtype=bool)
    holds = np.array([_guarantee_holds(c.kind, c.param, n, beta, bsd) for c in table], dtype=bool)
    counts = {c.name: (len(rho), int(f.sum())) for c, app, f in zip(table, applicable, fired) if app}
    # graph by graph: its unsound rows in table order, then its fast-path mismatches
    lines = [(i, table[row].name) for i, row in zip(*np.nonzero((fired & ~holds).T))]
    samples = range(0, len(rho), CERTIFY_STRIDE)
    for i in samples:
        # reconcile the batched screen with the full certify_all route
        g = Graph._from_rows_unchecked(n, tuple(rows[i].tolist()))
        for rec, app, f in zip(certify_all(g, verify_truth=True).certificates, applicable, fired[:, i].tolist()):
            if (rec.applicable, rec.fired) != (app, f):
                lines.append((i, f"fast-path mismatch on {rec.name}"))
    lines.sort(key=lambda line: line[0])
    unsound = [(to_graph6(Graph._from_rows_unchecked(n, tuple(rows[i].tolist()))), name) for i, name in lines]
    return len(rho), counts, unsound, len(samples)


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


def _fault(rule: Callable, *args) -> str | None:
    """The message of a witness rule that fails, or None."""
    try:
        rule(*args)
    except GraphError as exc:
        return str(exc)
    return None


def _audit_chunk(args: tuple) -> tuple:
    n, lo, hi, masks = args
    conn_col, _, _, _, bsd_col, rows_col, _ = _batch_arrays(n, lo, hi, masks=masks)
    violations: list[str] = []
    fpm_graphs = 0
    for connected, bsd, rows in zip(conn_col.tolist(), bsd_col.tolist(), map(tuple, rows_col.tolist())):
        # one double-cover matching gives both witnesses as bitmasks; their
        # totals must equal 2*beta_star from the subset tables, which never see them
        match_l, match_r = _dc_matching(rows, n)
        partner, half, fm_total = _fractional_matching_from(rows, match_l)
        w, r, c = _transversal_from(rows, match_l, match_r)
        t_total = 2 * w.bit_count() + c.bit_count()
        faults: list[str] = []
        if fm_total != bsd or t_total != bsd:
            faults.append(f"primal {HalfIntegral(fm_total)} / dual {HalfIntegral(t_total)} / matching {HalfIntegral(bsd)} differ")
        # each rule runs once per witness: one walk of the half-weight
        # support, one feasibility check and one coverage check
        walk_fault = _fault(_odd_cycles, half)
        if walk_fault:
            faults.append("half-weight support is not a disjoint union of odd cycles")
        fm_fault = _fault(_check_matching, rows, partner, half, fm_total)
        if bsd == n:
            fpm_graphs += 1
            support = 0
            for row in half:
                support |= row
            # the partition fails on the first of: feasibility, coverage, the walk
            fault = fm_fault or _fault(_check_perfect, n, fm_total, partner, support) or walk_fault
            if fault:
                faults.append(f"fractional perfect matching partition failed: {fault}")
        elif fm_fault:
            faults.append(f"fractional matching is infeasible: {fm_fault}")
        t_fault = _fault(_check_cover, rows, r, c)
        if t_fault:
            faults.append(f"transversal is infeasible: {t_fault}")
        if connected:
            connected_rule_ok, _, eq1, r_geq_w = _wrc_rules(n, True, w, r, t_total, bsd)
            if not connected_rule_ok:
                faults.append("connected graph has exactly one of W, R empty")
            if eq1 is not True:
                faults.append("optimal transversal violates total = (n - (|R|-|W|))/2")
            if r_geq_w is not True:
                faults.append("optimal transversal has |R| < |W|")
        if faults:
            g6 = to_graph6(Graph._from_rows_unchecked(n, rows))
            violations.extend(f"{g6}: {f}" for f in faults)
    return int(conn_col.sum()), fpm_graphs, violations


def audit_structures(n: int, jobs: int = 1) -> AuditReport:
    """Audit the half-integral witnesses of every labeled graph on n vertices.

    Per graph: the canonical fractional matching, the optimal transversal
    and 2*beta_star have one total (duality); the matching's half-weight
    support is a disjoint union of odd cycles; the perfect-matching
    partition succeeds when 2*beta_star = n; and, on connected graphs, the
    transversal's W/R/C classes satisfy the structure rules.  The witnesses
    come from one double-cover matching per graph through the bitmask core
    that the public constructors wrap, and each rule of ``matching`` runs
    once per witness on its masks; no witness object is built.  A rule that
    fails is reported as a violation with its own message.
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


def _cross_check_one(g: Graph, beta: int, bsd: int) -> list[str]:
    out = []
    fast = fractional_matching_number(g)
    if fast.doubled != bsd:
        out.append(f"{to_graph6(g)}: fractional matching number {fast} != oracle {HalfIntegral(bsd)}")
    bfast = matching_number(g).size
    if bfast != beta:
        out.append(f"{to_graph6(g)}: matching number {bfast} != oracle {beta}")
    return out


def _cross_chunk(args: tuple) -> list[str]:
    n, lo, hi, masks = args
    _, _, _, beta_col, bsd_col, rows_col, _ = _batch_arrays(n, lo, hi, masks=masks)
    out: list[str] = []
    for beta, bsd, rows in zip(beta_col.tolist(), bsd_col.tolist(), map(tuple, rows_col.tolist())):
        out.extend(_cross_check_one(Graph._from_rows_unchecked(n, rows), beta, bsd))
    return out


def _random_masks(n: int, samples: int, seed: int, p_lo: float, p_hi: float) -> np.ndarray:
    """Edge masks of ``samples`` random graphs on n vertices from
    ``random.Random(seed)``: each draws p uniformly from [p_lo, p_hi], then
    keeps each vertex pair, in graph6 bit order, when its draw falls below p."""
    rng = random.Random(seed)
    masks = np.zeros(samples, dtype=np.int64)
    for i in range(samples):
        p = rng.uniform(p_lo, p_hi)
        masks[i] = sum(1 << j for j in range(n * (n - 1) // 2) if rng.random() < p)
    return masks


def cross_check_matching_implementations(
    n: int, samples: int = 1000, seed: int = 2024, jobs: int = 1
) -> CrossCheckReport:
    """Exhaustive (n <= 6) or sampled comparison of both matching numbers
    against the brute-force oracles.  The samples are checked in windows of
    at most ``_TABLE_CELLS >> n`` graphs in up to jobs processes, so memory
    beyond their masks does not grow with their number."""
    if n < 0:
        raise GraphError("n must be non-negative")
    if n <= 6:
        mism = [line for p in _sweep(_cross_chunk, n, jobs) for line in p]
        return CrossCheckReport(n, True, 1 << (n * (n - 1) // 2), tuple(mism))
    if n > ORACLE_N_CAP:
        raise GraphError(f"sampled cross-check capped at n <= {ORACLE_N_CAP}")
    if samples < 1:
        raise GraphError(f"sampled cross-check needs samples >= 1, got {samples}")
    masks = _random_masks(n, samples, seed, 0.05, 0.95)
    mism = [line for p in _sweep(_cross_chunk, n, jobs, masks) for line in p]
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


def _subset_masks(g: Graph) -> np.ndarray:
    """The edge masks (graph6 bit order) of every spanning subgraph of g, in
    the order of the subsets of g.edges() read as binary numbers."""
    pairs = pairs_colex(g.n)
    subsets = np.arange(1 << g.edge_count(), dtype=np.int64)
    masks = np.zeros_like(subsets)
    for j, e in enumerate(g.edges()):
        masks |= ((subsets >> j) & 1) << pairs.index(e)
    return masks


def verify_tie_class_n8(samples: int = 4000, seed: int = 2024) -> TieCaseReport:
    """Check the n=8, 2*beta_star=5 class of t33 without the full 2^28 sweep.

    Every graph in the class embeds into one of the two transversal shapes
    K_5 u 3K_1 (s=0) or K_1 v (K_3 u 4K_1) (s=1); the s=2 shape would force
    fractional matching number 2.  The mask set holds every edge subset of
    both shape closures, then ``samples`` random graphs; the theorem sweep's
    screen (``_theorem_chunk``) picks the class's candidates window by
    window (``_sweep``), and its class check (``_check_class``) rules on
    them.  This is the theorem check of ``verify_theorem`` on that mask
    set, so its violations read like the sweep's discrepancies.
    """
    if samples < 0:
        raise GraphError(f"samples must be non-negative, got {samples}")
    n, d = 8, 5
    pred = _predict("t33", n, d)
    predicted_rho = tuple(spectral_radius(g).value for g in pred.extremal_graphs)
    violations = [
        f"predicted graph {to_graph6(g)} has rho {r:.12g}, bound {pred.bound:.12g}"
        for g, r in zip(pred.extremal_graphs, predicted_rho)
        if abs(r - pred.bound) > RHO_TOL
    ]
    shapes = [build_extremal(ExtremalSpec(n, HalfIntegral(d), s)) for s in (0, 1)]
    masks = np.concatenate([*map(_subset_masks, shapes), _random_masks(n, samples, seed, 0.1, 0.5)])
    checked, cands = 0, []
    for _, sizes, candidates in _sweep(_theorem_chunk, n, 1, masks, "t33", {d: pred.bound}):
        checked += sizes.get(d, 0)
        cands += candidates.get(d, [])
    record, in_class, found = _check_class("t33", n, d, pred, cands)
    notes = (
        *pred.notes,
        "class maximum equals 2beta*-1 = 4, attained only by the clique union; "
        "the split join K_2 v 6K_1 also has rho 4 but lies in the 2beta*=4 class",
    )
    return TieCaseReport(
        pred.bound,
        tuple(to_graph6(g) for g in pred.extremal_graphs),
        predicted_rho,
        in_class,
        checked,
        record.max_rho,
        record.argmax_matches,
        notes,
        tuple(violations + found),
    )
