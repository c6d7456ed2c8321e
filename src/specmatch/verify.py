"""Exhaustive small-graph sweeps: bounds, maximizers, certificates, audits.

Labeled graphs on n vertices are edge-bit masks in graph6 column order.
Every sweep reads its graphs from one table of numpy columns built from an
array of masks (``_batch_arrays``): connectivity, minimum degree, edge
count, beta and 2*beta_star from the brute-force oracles' subset tables,
and the neighbour rows.  One driver, ``_sweep``, runs every sweep: it
splits the mask range into fixed chunks (independent of the worker count),
or a given mask set into windows of bounded table size, builds each one's
table in the process that reads it, passes it to the sweep's worker, and
merges the workers' partials in chunk order by one rule (``_merge``), so
reports are byte-identical across runs and across --jobs settings.  The
sampled audit and cross-check read the masks they draw, and the n = 8 tie
class every edge subset of its two shape closures and its samples, on
which it runs the theorem sweep's screen and class check.  The class
check recognises a predicted shape K_s v (K_c u tK_1) by its degree
sequence, which fixes such a threshold graph up to isomorphism.  rho is not
a table column: the workers that read it call one batched eigensolver,
``_rho_column``.  The certificate sweep computes it only for the graphs
where ``decide`` fires a row differently at the two ends of their
Collatz-Wielandt enclosure (``_rho_enclosure``), 2.3 % of the connected
graphs at n = 6 and 1.0 % at n = 7, and the lower end decides the rest;
the theorem screen, densest edge count first, only while Stanley's bound
can reach a class maximum or bound, 0.1-1.5 % of the graphs at n = 6 and
7; the audit and the cross-check never read it.  The theorem and
certificate sweeps work on whole columns.  The audit and the cross-check
each check one matching kernel against the oracles' columns, in one column
pass over the whole table, as the enclosure counts its walks on the
table's rows: no worker cuts its table.  The audit runs the double-cover
matching by column, seed and search, and the bitmask witness core of
``matching``, whose scalar forms the public witness constructors wrap; it
builds a graph's matching only where the pulled-back half rows are not
already odd cycles.  One column screen
(``_witness_faults``) judges every witness against the rules of
``matching`` and 2*beta_star; the namer beside it
(``_name_witness_faults``) runs the rules themselves only on the graphs
the screen flags.  Every rule, seed and search lives in ``matching``, in
one scalar and one column form.  The cross-check seeds the blossom
matching by column, searches graph by graph only where the seed leaves
work, and compares its size with beta.
"""

from __future__ import annotations

import functools
import operator
import os
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .certify import _guarantee_holds, certificate_table, certify_all, decide, is_open
from .extremal import (
    THEOREMS,
    RegimePrediction,
    _shape,
    _theorem_entry,
    predict,
)
from .graphs import (
    Graph,
    GraphError,
    pairs_colex,
    to_graph6,
)
from .halfint import HalfIntegral
from .matching import (
    _blossom_search,
    _blossom_seed_columns,
    _dc_search_columns,
    _dc_seed_columns,
    _fractional_matching_from,
    _name_witness_faults,
    _odd_cycle_columns,
    _pull_back_columns,
    _witness_faults,
)
from .spectral import spectral_radius

ENUM_CAP = 8
ORACLE_N_CAP = 10  # the brute-force oracles enumerate vertex subsets: 2^n states
RHO_TOL = 1e-8
_TABLE_CELLS = 1 << 21  # subset-table cells per batch: 32,768 graphs at n = 6
CERTIFY_STRIDE = 4096  # every CERTIFY_STRIDE-th connected graph of a chunk is reconciled with certify_all
_WALK = 8  # the enclosure's test vector counts the walks of this length
SAMPLES, SEED = 1000, 2024  # the default draws of the sampled cross-check, and the sampled audit's draws
_DRAW_CAP = 1 << 24  # random graphs per draw, checked before any is drawn: 128 MB of masks


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

    The tables are (2^n, graphs) arrays and the rows are transposed to
    (n, graphs), so every step is one contiguous vector operation over all
    the graphs.  The rows and the N table are one byte wide at n <= 8 and
    two bytes above.  The beta step adds 1 + beta(S - u) only for a
    neighbour u, but takes the maximum with beta(S - u) + adjacent for
    every u in S: for a non-neighbour that is beta(S - u) <= beta(S), which
    cannot raise it.
    """
    count = len(rows)
    width = np.uint8 if n <= 8 else np.uint16
    row = np.ascontiguousarray(rows.T, dtype=width)  # row[v]: N(v) of every graph
    nbhd = np.zeros((1 << n, count), dtype=width)
    beta = np.zeros((1 << n, count), dtype=np.int8)
    for v in range(n):
        old, new = beta[: 1 << v], beta[1 << v : 2 << v]
        np.bitwise_or(nbhd[: 1 << v], row[v], out=nbhd[1 << v : 2 << v])
        new[:] = old
        for u in range(v):
            # axis 1 splits the subsets of {0..v-1} on u: [:, 1] holds S, [:, 0] holds S - u
            adjacent = ((row[v] >> u) & 1).astype(np.int8)
            src, dst = old.reshape(-1, 2, 1 << u, count), new.reshape(-1, 2, 1 << u, count)
            np.maximum(dst[:, 1], src[:, 0] + adjacent, out=dst[:, 1])
    # graph g's cell of subset S sits at S * count + g of the flat N table
    reach, graphs = np.ones(count, dtype=np.intp), np.arange(count)
    for _ in range(n - 1):
        reach |= nbhd.reshape(-1).take(reach * count + graphs)
    # every bit count is at most 16 and reads as int8
    surplus = np.bitwise_count(nbhd).view(np.int8)  # |N(S)|, then |S| - |N(S)|
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint16)).view(np.int8)
    np.subtract(size[:, None], surplus, out=surplus)
    degrees, connected = np.bitwise_count(row).view(np.int8), reach == (1 << n) - 1
    return connected, degrees.min(axis=0, initial=n), degrees.sum(axis=0) // 2, beta[-1], n - surplus.max(axis=0, initial=0).astype(np.int64)


def _oracle_columns(g: Graph, what: str) -> tuple[np.ndarray, ...]:
    if g.n > ORACLE_N_CAP:
        raise GraphError(f"{what} oracle capped at n <= {ORACLE_N_CAP}, got {g.n}")
    return _subset_columns(np.array([g.rows], dtype=np.uint16), g.n)


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
    rows, from one batched ``eigvalsh`` (K_0 reads 0) on their float
    matrices, entry (u, v) bit v of row u.  The solver works matrix by
    matrix, so a graph's rho does not depend on the batch it is computed in."""
    if not n:
        return np.zeros(len(rows))
    row_bytes = rows.astype("<u2", copy=False).view(np.uint8).reshape(len(rows), n, 2)
    matrices = np.unpackbits(row_bytes, axis=-1, count=n, bitorder="little").astype(np.float64)
    return np.linalg.eigvalsh(matrices)[:, -1]


def _rho_enclosure(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns lo and hi with lo <= rho <= hi for each graph of a
    (graphs, n) array of neighbour rows, n >= 1, for the exact rho and the
    one ``_rho_column`` computes alike.  With B = A + I and the positive
    x = B^k 1, k = ``_WALK``, Collatz-Wielandt bounds rho(B) = rho + 1 by
    the least and the largest (Bx)_i / x_i.  x and Bx count walks, integers
    below n^(k+1) <= 2^27 at n <= 8, so float64 holds them exactly and only
    the division rounds; ``RHO_TOL`` widens the bounds far past that and
    past ``eigvalsh``'s own error.  The walks are counted on the rows
    themselves, with no matrices: x and Bx are (n, graphs) columns, and
    (Bx)_i gets x_j where bit j of row i is set."""
    columns = np.ascontiguousarray(rows.T)  # laid out as x, which the masked adds need to run fast
    adjacent = [(columns >> j & 1) == 1 for j in range(n)]  # adjacent[j][i]: vertex i has neighbour j
    bx = np.ones((n, len(rows)))
    for _ in range(_WALK + 1):
        x = bx  # rebound before the copy, so only two float columns stay alive
        bx = x.copy()  # the identity of B = A + I
        for j in range(n):
            np.add(bx, x[j], out=bx, where=adjacent[j])
    bx /= x
    return bx.min(axis=0) - 1 - RHO_TOL, bx.max(axis=0) - 1 + RHO_TOL


class ChunkTable(NamedTuple):
    """One numpy array per column, a row per graph (``_batch_arrays``)."""

    connected: np.ndarray  # bool
    delta: np.ndarray  # minimum degree, int8
    edges: np.ndarray  # edge count, int64
    beta: np.ndarray  # int8
    bsd: np.ndarray  # 2*beta_star, int64
    rows: np.ndarray  # (graphs, n) neighbour rows, uint16
    masks: np.ndarray  # edge masks in graph6 bit order, int64


def _batch_arrays(n: int, lo: int, hi: int, *, masks: np.ndarray | None = None) -> ChunkTable:
    """The table of the graphs on n vertices whose edge masks, in graph6 bit
    order (``pairs_colex``), are masks[lo:hi], or lo..hi-1 when masks is
    None (K_0 reads not connected, degree 0).  Every sweep reads its graphs
    and their invariants from here, through ``_sweep``: a range of masks
    per chunk, or a window of the masks that the sampled audit and
    cross-check and the n = 8 tie class draw or enumerate, repeats and any
    order allowed.  The invariants come from the oracles' subset tables
    (``_subset_columns``); rho is left to the workers that read it
    (``_rho_column``)."""
    masks = np.arange(lo, hi, dtype=np.int64) if masks is None else np.ascontiguousarray(masks[lo:hi], dtype=np.int64)
    # byte_rows[k][b]: the bits of the rows that value b of a mask's byte k sets
    width = (n * (n - 1) // 2 + 7) // 8
    byte_rows = np.zeros((width, 256, n), dtype=np.uint16)
    values = np.arange(256, dtype=np.uint16)
    for j, (u, v) in enumerate(pairs_colex(n)):
        bit = (values >> j % 8) & 1
        byte_rows[j // 8, :, u] |= bit << v
        byte_rows[j // 8, :, v] |= bit << u
    rows = np.zeros((len(masks), n), dtype=np.uint16)
    for table, byte in zip(byte_rows, masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8).T):
        rows |= table.take(byte, axis=0)
    step = _TABLE_CELLS >> n
    columns = [_subset_columns(rows[start : start + step], n) for start in range(0, len(masks), step)]
    return ChunkTable(*(np.concatenate(c) for c in zip(*columns)), rows, masks)


def _merge(acc, part):
    """Merge the partial part into acc, the two of one shape, and return it:
    counts add, lists extend, dicts merge key by key in first-seen order,
    tuples field by field.  Lists and dicts grow in place, so merging a
    sweep's partials one after another takes time linear in their size."""
    if isinstance(acc, list):
        acc.extend(part)
    elif isinstance(acc, dict):
        for key, value in part.items():
            acc[key] = _merge(acc[key], value) if key in acc else value
    elif isinstance(acc, tuple):
        return tuple(map(_merge, acc, part))
    else:
        return acc + part
    return acc


def _partial(task: tuple):
    worker, n, lo, hi, masks, extra = task
    return worker(n, _batch_arrays(n, lo, hi, masks=masks), *extra)


def _sweep(worker: Callable, n: int, jobs: int, masks: np.ndarray | None = None, *extra):
    """worker(n, table, *extra) on the table (``_batch_arrays``) of every
    chunk of the labeled graphs on n vertices, or of given masks, of every
    window of at most ``_TABLE_CELLS >> n`` of them, each table built in the
    process that reads it; in at most min(jobs, windows, usable CPUs)
    processes.  The partials are merged in window order (``_merge``)."""
    if masks is None:
        tasks = [(worker, n, lo, hi, None, extra) for lo, hi in _chunk_ranges(n)]
    else:
        step = _TABLE_CELLS >> n
        tasks = [(worker, n, 0, len(w), w, extra) for w in (masks[lo : lo + step] for lo in range(0, len(masks), step))]
    if jobs <= 1 or len(tasks) == 1:
        return functools.reduce(_merge, map(_partial, tasks))
    import multiprocessing as mp

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ctx = mp.get_context("fork")
    with ctx.Pool(min(jobs, len(tasks), cpus)) as pool:
        return functools.reduce(_merge, pool.map(_partial, tasks))


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


def _rho_cap(edges: np.ndarray) -> np.ndarray:
    """Stanley's bound rho <= (sqrt(1 + 8m) - 1)/2 on a graph with m edges
    (R. P. Stanley, *Linear Algebra Appl.* 87, 1987), raised by ``RHO_TOL``
    so that it also caps the rho that ``eigvalsh`` rounds."""
    return (np.sqrt(1 + 8 * edges) - 1) / 2 + RHO_TOL


def _theorem_chunk(n: int, table: ChunkTable, theorem: str, bounds: dict[int, float]) -> tuple:
    """The connected count of a table (``_batch_arrays``) and, per class
    named in bounds that has graphs in it: its size, and its candidates, the
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
    edges, rows, masks = table.edges, table.rows, table.masks
    keys = table.bsd if THEOREMS[theorem].fractional else 2 * table.beta
    if THEOREMS[theorem].connected:
        keys = np.where(table.connected, keys, -1)  # -1: no class
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
    return int(table.connected.sum()), sizes, candidates


def _check_class(theorem: str, n: int, key: int, pred: RegimePrediction, cands: list[tuple[float, int]]) -> tuple:
    """The record of one class from its candidates (``_theorem_chunk``), and
    the discrepancies: the class maximum against the bound; every candidate
    at the bound confirmed by ``spectral_radius`` and matched by its degree
    sequence to a predicted graph that lies in the class (``pred.in_class``),
    each of which must attain it; with none in the class, nothing may reach
    the bound.  The match is exact: every predicted graph is a shape
    K_s v (K_c u tK_1), a threshold graph, and a threshold graph is the only
    graph with its degree sequence up to isomorphism."""
    label = "2beta*" if THEOREMS[theorem].fractional else "2beta"
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

    members = [pg for pg, member in zip(pred.extremal_graphs, pred.in_class) if member]
    by_degrees: dict[tuple[int, ...], int] = {}
    for i, pg in enumerate(members):
        by_degrees.setdefault(pg.degree_sequence(), i)
    unhit = set(range(len(members)))
    argmax_matches = True
    for mk, screened in sorted((mk, r) for r, mk in cands if r >= pred.bound - RHO_TOL):
        cand = _graph_from_mask(n, mk, pairs)
        # confirm the batched screen with the residual-checked spectral_radius
        if abs(spectral_radius(cand).value - screened) > 1e-6:
            discrepancies.append(
                f"class {label}={key}: batched screen and spectral_radius disagree on {to_graph6(cand)}"
            )
        idx = by_degrees.get(cand.degree_sequence())
        if idx is not None:
            unhit.discard(idx)
            continue
        argmax_matches = False
        if members:
            discrepancies.append(
                f"class {label}={key}: graph {to_graph6(cand)} attains the bound but is not a predicted extremal graph"
            )
        else:  # the bound is strict for this class
            discrepancies.append(f"class {label}={key}: bound expected strict but {to_graph6(cand)} attains it")
    for idx in sorted(unhit):
        argmax_matches = False
        discrepancies.append(
            f"class {label}={key}: predicted extremal graph {to_graph6(members[idx])} does not attain the class maximum"
        )
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
    return record, discrepancies


def verify_theorem(theorem: str, n: int, jobs: int = 1, long_run: bool = False) -> VerificationReport:
    """Bucket all (connected, for the connected theorems) labeled graphs on n
    vertices by class, then check bounds, maximizers, and predictions."""
    entry, n = _theorem_entry(theorem), operator.index(n)
    if n < 1:
        raise GraphError("verification needs n >= 1")
    if n > 7 and not long_run:
        raise GraphError(f"full sweep at n={n} enumerates 2^{n * (n - 1) // 2} graphs; pass long_run to allow it")
    if n > ENUM_CAP:
        raise GraphError(f"full sweep capped at n <= {ENUM_CAP}")

    keys = range(0, n + 1, 1 if entry.fractional else 2)
    predictions = {key: predict(theorem, n, key) for key in keys}
    bounds = {key: pred.bound for key, pred in predictions.items()}

    connected_count, _, candidates = _sweep(_theorem_chunk, n, jobs, None, theorem, bounds)
    records: list[ClassRecord] = []
    discrepancies: list[str] = []
    resolutions: list[str] = []
    for key in sorted(candidates):
        record, found = _check_class(theorem, n, key, predictions[key], candidates[key])
        records.append(record)
        discrepancies += found
        # the sweeps resolve two stated bounds: t33's clique-union constant and t13's cubic
        if theorem == "t33" and record.regime in ("2", "3"):
            resolutions.append(
                f"class 2beta*={key}: empirical max rho = {record.max_rho:.12g} = 2beta*-1 = {key - 1}; "
                f"the stated bound 2beta* = {key} is not attained"
            )
        if theorem == "t13" and record.regime == "2":
            resolutions.append(
                f"class 2beta={key}: empirical max rho = {record.max_rho:.12g} matches the "
                f"hub-family quotient threshold {record.bound:.12g}; {predictions[key].notes[0]}"
            )
    if theorem == "t33" and resolutions:
        resolutions.append("bound constant for the clique-union regimes resolves to 2beta*-1")

    labeled = 1 << (n * (n - 1) // 2)
    return VerificationReport(
        theorem,
        n,
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


def _cert_chunk(n: int, table: ChunkTable) -> tuple:
    delta, beta, bsd, rows = (col[table.connected] for col in (table.delta, table.beta, table.bsd, table.rows))
    certs = certificate_table(n, connected=True)
    applicable = [cert.threshold is not None for cert in certs]
    # eigvalsh runs only on the open graphs, where decide fires an applicable
    # row differently at the two ends of the enclosure; any other graph keeps
    # the lower end, which every row decides as it would decide the exact rho
    rho, top = _rho_enclosure(rows, n)
    never = np.zeros(len(rho), dtype=bool)
    open_graphs = np.any([never] + [is_open(c, rho, top, delta) for c, app in zip(certs, applicable) if app], axis=0)
    if open_graphs.any():
        rho[open_graphs] = _rho_column(rows[open_graphs], n)
    # (certificate rows, graphs) matrices, the table having 3 rows or more; a
    # row that does not apply never fires
    fired = np.array([decide(c, rho, delta)[1] if app else never for c, app in zip(certs, applicable)], dtype=bool)
    holds = np.array([_guarantee_holds(c.kind, c.param, n, beta, bsd) for c in certs], dtype=bool)
    counts = {c.name: (len(rho), int(f.sum())) for c, app, f in zip(certs, applicable, fired) if app}
    # graph by graph: its unsound rows in certificate order, then its fast-path mismatches
    lines = [(i, certs[row].name) for i, row in zip(*np.nonzero((fired & ~holds).T))]
    samples = range(0, len(rho), CERTIFY_STRIDE)
    for i in samples:
        # reconcile the batched screen with the full certify_all route; the
        # columns judged each guarantee above, so certify_all computes no
        # truth of its own, which would raise on an unsound row unreported
        g = Graph._from_rows_unchecked(n, tuple(rows[i].tolist()))
        for rec, app, f in zip(certify_all(g, verify_truth=False).certificates, applicable, fired[:, i].tolist()):
            if (rec.applicable, rec.fired) != (app, f):
                lines.append((i, f"fast-path mismatch on {rec.name}"))
    lines.sort(key=lambda line: line[0])
    unsound = [(to_graph6(Graph._from_rows_unchecked(n, tuple(rows[i].tolist()))), name) for i, name in lines]
    return len(rho), counts, unsound, len(samples)


def verify_certificates(n: int, jobs: int = 1) -> CertSweepReport:
    """Run every certificate over all connected labeled graphs on n vertices.

    Each chunk builds the certificate table of certify_all once and decides
    every applicable row with the same rule, from rho, beta and beta*.  rho
    comes from the batched eigensolver only for the graphs where ``decide``
    fires an applicable row differently at the two ends of their enclosure
    (``_rho_enclosure``); the lower end decides the rest, as the exact rho
    would.  Every ``CERTIFY_STRIDE``-th connected graph of a chunk also
    goes through certify_all itself, and any difference in (applicable,
    fired) is reported as a fast-path mismatch.  Any fired-but-false
    certificate is reported.
    """
    n = operator.index(n)
    if n < 1:
        raise GraphError("verification needs n >= 1")
    if n > 7:
        raise GraphError("certificate sweep capped at n <= 7")
    examined, counts, unsound, samples = _sweep(_cert_chunk, n, jobs)
    return CertSweepReport(
        n,
        examined,
        tuple((name, app, fired) for name, (app, fired) in sorted(counts.items())),
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


def _audit_chunk(n: int, table: ChunkTable) -> tuple:
    # one double-cover matching per graph gives both witnesses as bitmasks,
    # in the table's columns: seeded, searched and pulled back by column, and
    # built by graph only where its half rows are not already a union of odd
    # cycles, which the builder returns unchanged.  The builder's results
    # come back in one flat list, not a list per graph, which the cyclic
    # garbage collector would keep walking.
    rows, connected, bsd = table.rows, table.connected, table.bsd
    match_l, w, r, c = _dc_search_columns(rows, *_dc_seed_columns(rows))
    partner, half, totals = _pull_back_columns(match_l)
    odd = _odd_cycle_columns(half)
    todo, built = np.flatnonzero(~odd), []
    broken: dict[int, str] = {}  # a builder that raised: its message
    for i, graph, match in zip(todo.tolist(), rows[todo].tolist(), match_l[todo].tolist()):
        try:
            fm = _fractional_matching_from(tuple(graph), match)
        except GraphError as exc:  # a half-weight path that an augmenting path would fill
            broken[i] = f"double-cover matching is not maximum: {exc}"
            fm = [0] * n, [0] * n, 0
        built += [*fm[0], *fm[1], fm[2]]
    if built:
        built = np.reshape(built, (-1, 2 * n + 1))
        partner[todo], half[todo], totals[todo] = built[:, :n], built[:, n:-1], built[:, -1]
        odd[todo] = _odd_cycle_columns(half[todo])  # only the rebuilt rows change
    flagged = _witness_faults(n, connected, bsd, rows, partner, half, totals, w, r, c, odd)
    violations: list[str] = []
    for i in sorted({*np.flatnonzero(flagged).tolist(), *broken}):
        graph = tuple(rows[i].tolist())
        g6 = to_graph6(Graph._from_rows_unchecked(n, graph))
        if i in broken:
            violations.append(f"{g6}: {broken[i]}")
            continue
        fm = partner[i].tolist(), half[i].tolist(), int(totals[i])
        faults = _name_witness_faults(n, bool(connected[i]), int(bsd[i]), graph, *fm, int(w[i]), int(r[i]), int(c[i]))
        faults = faults or ["the column screen flags its witnesses, but no rule names a fault"]
        violations.extend(f"{g6}: {f}" for f in faults)
    return int(connected.sum()), int(np.count_nonzero(bsd == n)), violations


def audit_structures(n: int, jobs: int = 1) -> AuditReport:
    """Audit the half-integral witnesses of every labeled graph on n <= 7
    vertices, or of ``SAMPLES`` random ones for 8 <= n <= ``ORACLE_N_CAP``:
    the draws that ``cross_check_matching_implementations`` checks by
    default.

    Per graph: the canonical fractional matching, the optimal transversal
    and 2*beta_star from the subset tables have one total (duality); the
    matching's half-weight support is a disjoint union of odd cycles; the
    perfect-matching partition succeeds when 2*beta_star = n; and, on
    connected graphs, the transversal's W/R/C classes satisfy the structure
    rules.  The witnesses come from one double-cover matching per graph
    through the bitmask core that the public constructors wrap; no witness
    object is built.  A chunk table's graphs are seeded, searched and
    pulled back by column, all at once (``matching._dc_search_columns``
    returns, graph by graph, what the scalar search behind
    ``fractional_matching_number`` does, so this is that kernel's oracle
    check, its size the primal total); only a graph whose pulled-back half
    rows are not already a union of odd cycles goes through the per-graph
    builder, and is walked again by column.  A column screen
    (``matching._witness_faults``) judges every witness of the table at
    once.  On a graph it flags, each rule of ``matching`` runs on its masks
    (``matching._name_witness_faults``), and a rule that fails is reported
    as a violation with its own message; a flagged graph on which no rule
    fails is reported too, since the screen and the rules then disagree.
    """
    n = operator.index(n)
    if n < 0:
        raise GraphError("audit needs n >= 0")
    if n > ORACLE_N_CAP:
        raise GraphError(f"structure audit capped at n <= {ORACLE_N_CAP}")
    masks = None if n <= 7 else _random_masks(n, SAMPLES, SEED, 0.05, 0.95)
    connected_graphs, fpm_graphs, violations = _sweep(_audit_chunk, n, jobs, masks)
    graphs = 1 << (n * (n - 1) // 2) if masks is None else SAMPLES
    return AuditReport(n, graphs, connected_graphs, fpm_graphs, tuple(violations))


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


def _cross_chunk(n: int, table: ChunkTable) -> list[str]:
    # the kernel that matching_number wraps, on the table's rows: the seed
    # by column, the search only where its skip rule would search; a graph
    # is built only to name a mismatch
    match, free, searched = _blossom_seed_columns(table.rows)
    size = (n - np.bitwise_count(free)).astype(np.int64) // 2
    for i in np.flatnonzero(searched).tolist():
        size[i] = _blossom_search(tuple(table.rows[i].tolist()), n, match[i].tolist(), int(free[i]))[0]
    out = []
    for i in np.flatnonzero(size != table.beta).tolist():
        g6 = to_graph6(Graph._from_rows_unchecked(n, tuple(table.rows[i].tolist())))
        out.append(f"{g6}: matching number {size[i]} != oracle {table.beta[i]}")
    return out


def _random_masks(n: int, samples: int, seed: int, p_lo: float, p_hi: float) -> np.ndarray:
    """Edge masks of ``samples`` random graphs on n vertices from
    ``random.Random(seed)``: each draws p uniformly from [p_lo, p_hi], then
    keeps each vertex pair, in graph6 bit order, when its draw falls below p.

    The draws are the generator's own stream, read in blocks of 32-bit words
    (``getrandbits``, first word least significant) and formed as ``random``
    and ``uniform`` form them: a double from two words a, b is
    ((a >> 5) * 2^26 + (b >> 6)) / 2^53.  A block holds ``_TABLE_CELLS >> n >> 2``
    samples, at most 2.1 MB of words and as much of doubles at any order."""
    if not 0 <= samples <= _DRAW_CAP:
        raise GraphError(f"random samples must number 0 to {_DRAW_CAP} (8 bytes of mask each), got {samples}")
    m, step = n * (n - 1) // 2, _TABLE_CELLS >> n >> 2
    rng = random.Random(seed)
    masks = np.zeros(samples, dtype=np.int64)
    packed = np.zeros((min(samples, step), 8), dtype=np.uint8)
    for start in range(0, samples, step):
        block = min(samples - start, step)
        words = 2 * (m + 1) * block  # two per double: p, then one per vertex pair
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4")
        a, b = raw.reshape(block, m + 1, 2).transpose(2, 0, 1)
        u = ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0
        p = p_lo + (p_hi - p_lo) * u[:, 0]
        packed[:block, : (m + 7) // 8] = np.packbits(u[:, 1:] < p[:, None], axis=1, bitorder="little")
        masks[start : start + block] = packed[:block].view("<i8")[:, 0]
    return masks


def cross_check_matching_implementations(
    n: int, samples: int = SAMPLES, seed: int = SEED, jobs: int = 1
) -> CrossCheckReport:
    """Exhaustive (n <= 6) or sampled comparison of the blossom matching
    that ``matching_number`` wraps against the beta column of the subset
    tables, searched only where the column seed leaves the search work.
    The double-cover kernel behind ``fractional_matching_number``
    has its own oracle check in ``audit_structures``, exhaustive at n <= 7
    and on this check's default draws above.  The samples are checked in
    windows of at most ``_TABLE_CELLS >> n`` graphs in up to jobs
    processes, so memory beyond their masks does not grow with their
    number."""
    n, samples = operator.index(n), operator.index(samples)
    if n < 0:
        raise GraphError("n must be non-negative")
    if n <= 6:
        return CrossCheckReport(n, True, 1 << (n * (n - 1) // 2), tuple(_sweep(_cross_chunk, n, jobs)))
    if n > ORACLE_N_CAP:
        raise GraphError(f"sampled cross-check capped at n <= {ORACLE_N_CAP}")
    if samples < 1:
        raise GraphError(f"sampled cross-check needs samples >= 1, got {samples}")
    masks = _random_masks(n, samples, seed, 0.05, 0.95)
    return CrossCheckReport(n, False, samples, tuple(_sweep(_cross_chunk, n, jobs, masks)))


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
    samples = operator.index(samples)
    n, d = 8, 5
    pred = predict("t33", n, d)
    predicted_rho = tuple(spectral_radius(g).value for g in pred.extremal_graphs)
    violations = [
        f"predicted graph {to_graph6(g)} has rho {r:.12g}, bound {pred.bound:.12g}"
        for g, r in zip(pred.extremal_graphs, predicted_rho)
        if abs(r - pred.bound) > RHO_TOL
    ]
    shapes = [_shape(n, s, d - 2 * s) for s in (0, 1)]
    masks = np.concatenate([*map(_subset_masks, shapes), _random_masks(n, samples, seed, 0.1, 0.5)])
    _, sizes, candidates = _sweep(_theorem_chunk, n, 1, masks, "t33", {d: pred.bound})
    record, found = _check_class("t33", n, d, pred, candidates.get(d, []))
    notes = (
        *pred.notes,
        "class maximum equals 2beta*-1 = 4, attained only by the clique union; "
        "the split join K_2 v 6K_1 also has rho 4 but lies in the 2beta*=4 class",
    )
    return TieCaseReport(
        pred.bound,
        tuple(to_graph6(g) for g in pred.extremal_graphs),
        predicted_rho,
        pred.in_class,
        sizes.get(d, 0),
        record.max_rho,
        record.argmax_matches,
        notes,
        tuple(violations + found),
    )
