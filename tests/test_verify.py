from __future__ import annotations

import cProfile
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pstats
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from specmatch import (
    FractionalMatching,
    Graph,
    GraphError,
    HalfIntegral,
    audit_duality,
    audit_structures,
    certify_all,
    complete,
    cross_check_matching_implementations,
    empty,
    fpm_partition,
    from_edge_list,
    fractional_matching_number,
    is_connected,
    join,
    matching_number,
    min_degree,
    spectral_radius,
    to_graph6,
    union,
    verify_certificates,
    verify_theorem,
    verify_tie_class_n8,
)
from specmatch import certify, matching, verify
from specmatch.certify import _guarantee_holds, certificate_table, decide
from specmatch.cli import main
from specmatch.extremal import THEOREMS, RegimePrediction, _shape, predict
from specmatch.graphs import pairs_colex
from specmatch.verify import AuditReport, oracle_beta, oracle_beta_star
from conftest import isomorphic, src_env

# every theorem CSV at n <= 6, byte for byte; a deliberate report change updates this file
GOLDEN_CSV = json.loads((Path(__file__).parent / "golden" / "theorem_csv.json").read_text())


C5 = (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)  # the neighbour rows of C_5, graph6 "Dhc"


def _verify_calls(stats, fn) -> int:
    """Calls into fn made from verify.py, in a cProfile stats table."""
    code = fn.__code__
    callers = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0, 0, 0, {}))[4]
    return sum(c[0] for caller, c in callers.items() if caller[0] == verify.__file__)


def _lists(table):
    """A chunk table as Python lists, the rows as tuples, led by the rho that
    ``_rho_column`` computes from the table's rows."""
    *columns, rows, masks = table
    rho = verify._rho_column(rows, rows.shape[1])
    return (rho.tolist(), *(col.tolist() for col in columns), list(map(tuple, rows.tolist())), masks.tolist())


def _full_rho_candidates(n, lo, hi, theorem, bounds):
    """What ``_theorem_chunk`` returns, computed from rho on every graph of the chunk table."""
    table = verify._batch_arrays(n, lo, hi)
    rho = verify._rho_column(table.rows, n)
    keys = table.bsd if verify.THEOREMS[theorem].fractional else 2 * table.beta
    if verify.THEOREMS[theorem].connected:
        keys = np.where(table.connected, keys, -1)
    sizes, candidates = {}, {}
    for key in np.unique(keys[keys >= 0]).tolist():
        idx = np.flatnonzero(keys == key)
        sizes[key] = len(idx)
        idx = idx[rho[idx] >= min(rho[idx].max(), bounds[key]) - verify.RHO_TOL]
        candidates[key] = list(zip(rho[idx].tolist(), (lo + idx).tolist()))
    return int(table.connected.sum()), sizes, candidates


def _screened_chunks(theorem, lower=0.0):
    """(chunk, pruned output, full-rho output) on every chunk at n <= 6 and
    on the first and a middle chunk at n = 7, each class bound lowered by lower."""
    step = 1 if verify.THEOREMS[theorem].fractional else 2  # the classes: 2*beta_star, or 2*beta
    for n in range(1, 8):
        bounds = {key: verify.predict(theorem, n, key).bound - lower for key in range(0, n + 1, step)}
        chunks = verify._chunk_ranges(n)
        for lo, hi in chunks if n < 7 else (chunks[0], chunks[len(chunks) // 2]):
            pruned = verify._theorem_chunk(n, verify._batch_arrays(n, lo, hi), theorem, bounds)
            yield (n, lo, hi), pruned, _full_rho_candidates(n, lo, hi, theorem, bounds)


class TestEnumeration:
    # the sweeps enumerate labeled graphs as edge-bit masks in graph6 order

    def test_counts_n3(self):
        graphs = [verify._graph_from_mask(3, mask, pairs_colex(3)) for mask in range(8)]
        assert len(graphs) == 8
        assert sum(1 for g in graphs if is_connected(g)) == 4

    def test_counts_n4(self):
        # mask bit k is edge pairs_colex(4)[k], so m set bits give m edges
        edges = [verify._graph_from_mask(4, mask, pairs_colex(4)).edge_count() for mask in range(64)]
        assert edges == [mask.bit_count() for mask in range(64)]

    def test_connected_filter(self):
        assert sum(is_connected(verify._graph_from_mask(4, mask, pairs_colex(4))) for mask in range(64)) == 38

    def test_unique_and_deterministic(self):
        seen = {verify._graph_from_mask(4, mask, pairs_colex(4)).rows for mask in range(64)}
        assert len(seen) == 64


class TestChunkTable:
    def test_matches_per_graph_invariants(self):
        # every labeled graph with 1 <= n <= 5, and one n = 7 chunk whose
        # last vertex has neighbours 0, 2 and 5
        tables = [(n, 0, 1 << (n * (n - 1) // 2)) for n in range(1, 6)] + [(7, *verify._chunk_ranges(7)[37])]
        for n, lo, hi in tables:
            graphs = [verify._graph_from_mask(n, mask, pairs_colex(n)) for mask in range(lo, hi)]
            rho, conn, delta, edges, beta, bsd, rows, masks = _lists(verify._batch_arrays(n, lo, hi))
            assert masks == list(range(lo, hi))
            assert rows == [g.rows for g in graphs]
            assert conn == [is_connected(g) for g in graphs]
            assert delta == [min_degree(g) for g in graphs]
            assert edges == [g.edge_count() for g in graphs]
            assert beta == [matching_number(g).size for g in graphs]
            assert bsd == [fractional_matching_number(g).doubled for g in graphs]
            assert rho == pytest.approx([spectral_radius(g).value for g in graphs], abs=1e-9)

    def test_mask_array_with_repeats(self):
        # any masks, unsorted and repeated, read through the window lo..hi:
        # n = 8 shape subsets as the tie class enumerates them, n = 6 draws,
        # and n = 9 and 10 draws, whose 36 and 45 mask bits reach past 32
        rng = np.random.default_rng(7)
        hub = join(complete(1), union(complete(3), empty(4)))  # K_1 v (K_3 u 4K_1)
        subsets = verify._subset_masks(hub)
        assert len(set(subsets.tolist())) == 1 << 10 and subsets[-1] == sum(1 << pairs_colex(8).index(e) for e in hub.edges())
        draws = [(6, rng.integers(0, 1 << 15, 150)), (9, rng.integers(0, 1 << 36, 40)), (10, rng.integers(0, 1 << 45, 40))]
        for n, masks in [(8, subsets), *draws]:
            masks = np.tile(masks, 2)[rng.permutation(2 * len(masks))]
            lo, hi = 3, len(masks) - 2
            graphs = [verify._graph_from_mask(n, mask, pairs_colex(n)) for mask in masks[lo:hi].tolist()]
            table = verify._batch_arrays(n, lo, hi, masks=masks)
            assert [col.dtype for col in table] == [np.bool_, np.int8, np.int64, np.int8, np.int64, np.uint16, np.int64]
            rho, conn, delta, edges, beta, bsd, rows, picked = _lists(table)
            assert picked == masks[lo:hi].tolist() and len(set(picked)) < len(picked)
            assert rows == [g.rows for g in graphs]
            assert conn == [is_connected(g) for g in graphs]
            assert delta == [min_degree(g) for g in graphs]
            assert edges == [g.edge_count() for g in graphs]
            assert beta == [matching_number(g).size for g in graphs]
            assert bsd == [fractional_matching_number(g).doubled for g in graphs]
            assert rho == pytest.approx([spectral_radius(g).value for g in graphs], abs=1e-9)

    @staticmethod
    def _networkx_columns(n, mask):
        """Connectivity, minimum degree, edge count, beta and 2*beta_star of
        one mask's graph from networkx: beta by maximum-cardinality matching,
        2*beta_star as the matching number of the bipartite double cover."""
        edges = [e for j, e in enumerate(pairs_colex(n)) if mask >> j & 1]
        gx = nx.Graph(edges)
        gx.add_nodes_from(range(n))
        cover = nx.Graph([((u, 0), (v, 1)) for u, v in edges] + [((v, 0), (u, 1)) for u, v in edges])
        cover.add_nodes_from((v, side) for v in range(n) for side in (0, 1))
        dc = nx.bipartite.maximum_matching(cover, top_nodes=[(v, 0) for v in range(n)])
        beta = len(nx.max_weight_matching(gx, maxcardinality=True))
        return nx.is_connected(gx), min(d for _, d in gx.degree()), len(edges), beta, len(dc) // 2

    @pytest.mark.parametrize("n, window", [(8, True), (8, False), (9, False)], ids=["n8-window", "n8-repeats", "n9-repeats"])
    def test_columns_against_networkx(self, n, window):
        # one full table window at n = 8, where the rows and N tables are one
        # byte wide (8,192 graphs of chunk 2000), and shuffled mask arrays with
        # every mask twice at n = 8 and at n = 9, where they are two bytes;
        # 300 graphs of each against networkx, and repeats read alike
        rng = random.Random(30)
        if window:
            lo = verify._chunk_ranges(8)[2000][0]
            masks = np.arange(lo, lo + (verify._TABLE_CELLS >> 8), dtype=np.int64)
        else:
            drawn = [rng.getrandbits(n * (n - 1) // 2) for _ in range(1500)] + [0, (1 << n * (n - 1) // 2) - 1]
            masks = np.array(rng.sample(drawn * 2, 2 * len(drawn)), dtype=np.int64)
        *columns, _, picked = verify._batch_arrays(n, 0, len(masks), masks=masks)
        assert picked.tolist() == masks.tolist()
        table = list(zip(*(col.tolist() for col in columns)))
        first = {}
        for mask, row in zip(masks.tolist(), table):
            assert first.setdefault(mask, row) == row
        for i in rng.sample(range(len(masks)), 300):
            assert table[i] == self._networkx_columns(n, int(masks[i])), int(masks[i])
        assert len({row[3] for row in table}) > 1 and len({row[4] for row in table}) > 1

    def test_n0(self):
        # the one graph on no vertices is empty and not connected; its
        # minimum degree, which min_degree refuses, reads 0, and so does its rho
        table = verify._batch_arrays(0, 0, 1)
        assert table._fields == ("connected", "delta", "edges", "beta", "bsd", "rows", "masks")
        assert _lists(table) == ([0.0], [False], [0], [0], [0], [0], [()], [0])

    @pytest.mark.parametrize(
        "sweep, args, checked, searches",
        [("verify_theorem", (t, 5), 0, 0) for t in verify.THEOREMS]
        + [("verify_certificates", (5,), 0, 0), ("cross_check_matching_implementations", (5,), 1024, 124)]
        + [("cross_check_matching_implementations", (7, 50), 50, 13)],
        ids=[*verify.THEOREMS, "certificates", "cross-check", "sampled-cross-check"],
    )
    def test_workers_read_the_columns(self, sweep, args, checked, searches):
        # beta and 2*beta_star come from the table: nothing in verify calls an
        # oracle per graph, and only the cross-check calls the blossom
        # search, once per graph checked whose column seed it would search
        # from (TestSeedColumns), to compare the size with the table
        profile = cProfile.Profile()
        report = profile.runcall(getattr(verify, sweep), *args)
        stats = pstats.Stats(profile).stats
        assert _verify_calls(stats, oracle_beta) == _verify_calls(stats, oracle_beta_star) == 0
        if checked:
            assert report.graphs_checked == checked
        assert _verify_calls(stats, matching._blossom_search) == searches
        assert _verify_calls(stats, matching._blossom_max_matching) == 0
        # the double-cover kernel is the structure audit's alone
        dc_kernels = (matching._dc_matching, matching._dc_matching_size, matching._dc_search, matching._dc_search_columns)
        assert [_verify_calls(stats, kernel) for kernel in dc_kernels] == [0, 0, 0, 0]

    def test_certificates_decide_on_columns(self):
        # the certificate sweep rules on whole columns: at n = 5 (one chunk)
        # verify calls decide and _guarantee_holds at most once per table row
        profile = cProfile.Profile()
        profile.runcall(verify_certificates, 5)
        stats = pstats.Stats(profile).stats
        rows = len(certificate_table(5, True))
        assert 0 < _verify_calls(stats, decide) <= rows
        assert 0 < _verify_calls(stats, _guarantee_holds) <= rows

    @staticmethod
    def _fake_pool_sizes(monkeypatch, cpus):
        """The sizes of the pools _sweep asks for on a machine of cpus CPUs;
        the fake pool maps serially and starts no process, and a chunk's
        table is its (lo, hi), so no real table is built."""
        asked = []

        class Pool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return list(map(fn, args))

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: types.SimpleNamespace(Pool=Pool))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(verify, "_batch_arrays", lambda n, lo, hi, masks=None: (lo, hi))
        return asked

    @pytest.mark.parametrize("jobs, size", [(1000, 64), (2, 2)])
    def test_pool_no_larger_than_the_chunk_count(self, monkeypatch, jobs, size):
        # n = 7 has 64 chunks
        asked = self._fake_pool_sizes(monkeypatch, cpus=256)
        assert verify._sweep(lambda n, table: [table], 7, jobs) == verify._chunk_ranges(7)
        assert asked == [size]

    def test_pool_no_larger_than_the_usable_cpus(self, monkeypatch):
        # n = 8 has 4,096 chunks; a pool of 5,000 processes would be one per chunk
        asked = self._fake_pool_sizes(monkeypatch, cpus=3)
        assert verify._sweep(lambda n, table: [table], 8, 5000) == verify._chunk_ranges(8)
        assert asked == [3]

    @staticmethod
    def _traced_peak(call):
        """The traced peak of call above the memory traced when it starts."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n, chunk", [(6, 0), (7, 37), (8, 2000)])
    def test_no_worker_outgrows_the_table_build(self, n, chunk):
        # the design rule that lets a worker take its whole table in one
        # pass: each worker's traced peak on a table stays within the peak of
        # building that table
        lo, hi = verify._chunk_ranges(n)[chunk]
        build = self._traced_peak(lambda: verify._batch_arrays(n, lo, hi))
        table = verify._batch_arrays(n, lo, hi)
        workers = {w.__name__: w for w in (verify._cert_chunk, verify._audit_chunk, verify._cross_chunk)}
        for t, entry in THEOREMS.items():
            bounds = {key: predict(t, n, key).bound for key in range(0, n + 1, 1 if entry.fractional else 2)}
            workers[f"_theorem_chunk {t}"] = functools.partial(verify._theorem_chunk, theorem=t, bounds=bounds)
        peaks = {name: self._traced_peak(lambda: worker(n, table)) for name, worker in workers.items()}
        assert all(peak <= build for peak in peaks.values()), (build, peaks)

    def test_merge_of_each_worker_shape(self):
        # partials shaped like the outputs of _theorem_chunk, _cert_chunk,
        # _audit_chunk and _cross_chunk, merged in order: counts add, lists
        # extend, dicts keep their first-seen key order, tuples merge field by field
        theorem = [
            (3, {4: 2, 2: 1}, {4: [(2.0, 6), (2.0, 9)], 2: [(1.0, 5)]}),
            (0, {}, {}),
            (4, {6: 1, 2: 3}, {6: [(3.0, 40)], 2: [(1.5, 33)]}),
        ]
        merged = (7, {4: 2, 2: 4, 6: 1}, {4: [(2.0, 6), (2.0, 9)], 2: [(1.0, 5), (1.5, 33)], 6: [(3.0, 40)]})
        cert = [(10, {"a": (10, 2), "b": (10, 0)}, [("Bw", "a")], 1), (5, {"a": (5, 1), "b": (5, 5)}, [], 1)]
        audit = [(1, 0, []), (2, 1, ["Bw: x"]), (0, 0, ["Cw: y", "Cw: z"])]
        cross = [["Bw: x"], [], ["Cw: y"]]
        cases = [
            (theorem, merged),
            (cert, (15, {"a": (15, 3), "b": (15, 5)}, [("Bw", "a")], 2)),
            (audit, (3, 1, ["Bw: x", "Cw: y", "Cw: z"])),
            (cross, ["Bw: x", "Cw: y"]),
        ]
        for partials, expected in cases:
            out = functools.reduce(verify._merge, partials)
            assert out == expected
            assert [list(d) for d in out if isinstance(d, dict)] == [list(d) for d in expected if isinstance(d, dict)]
        # the first partial's lists and dicts are the merged ones, grown in place
        acc = ([1], {"k": [2]})
        assert verify._merge(acc, ([3], {"k": [4], "j": [5]})) == acc == ([1, 3], {"k": [2, 4], "j": [5]})


class TestPrunedScreen:
    @pytest.mark.parametrize("theorem", verify.THEOREMS)
    def test_matches_the_full_rho_column(self, theorem):
        # the theorem chunks compute rho only where Stanley's bound leaves a
        # graph a chance; their candidates and counts are those of the full
        # column, also when class maxima exceed bounds lowered by 0.5
        for lower in (0.0, 0.5):
            for chunk, pruned, full in _screened_chunks(theorem, lower):
                assert pruned == full, (chunk, lower)

    def test_catches_a_cap_that_is_too_tight(self, monkeypatch):
        # a cap at 0.95 times Stanley's bound drops candidates, and the comparison sees it
        cap = verify._rho_cap
        monkeypatch.setattr(verify, "_rho_cap", lambda edges: 0.95 * cap(edges))
        assert any(pruned != full for t in verify.THEOREMS for _, pruned, full in _screened_chunks(t))

    @pytest.mark.parametrize("theorem, screened", [("t32", 494), ("t33", 354), ("t12", 96), ("t13", 231)])
    def test_screens_in_nonempty_batches(self, monkeypatch, theorem, screened):
        # one densest-first loop per class: rho for a pinned number of graphs
        # over n = 1..6, and no eigensolver call on an empty batch
        batches = []
        rho_column = verify._rho_column

        def spy(rows, n):
            batches.append(len(rows))
            return rho_column(rows, n)

        monkeypatch.setattr(verify, "_rho_column", spy)
        for n in range(1, 7):
            verify_theorem(theorem, n)
        assert sum(batches) == screened
        assert min(batches) > 0

    def test_rho_of_a_sub_batch_is_bit_identical(self):
        # the pruned screen computes rho on sub-batches; every bit must match
        # rho computed on the whole table, whatever the batch and the order
        rng = np.random.default_rng(2024)
        for n, lo, hi in [(6, 0, 1 << 15), (7, *verify._chunk_ranges(7)[37])]:
            rows = verify._batch_arrays(n, lo, hi).rows
            full = verify._rho_column(rows, n)
            for size in (1, 7, 400, 5000):
                pick = rng.permutation(len(rows))[:size]
                assert np.array_equal(verify._rho_column(rows[pick], n).view(np.int64), full[pick].view(np.int64))


def _cert_chunks():
    """(n, lo, hi) of the chunks the certificate screen is compared on: the
    one chunk at n = 5 and 6, the first and a middle chunk at n = 7, and
    n = 8 chunk 2000."""
    chunks7 = verify._chunk_ranges(7)
    return [(5, 0, 1 << 10), (6, 0, 1 << 15), (7, *chunks7[0]), (7, *chunks7[32]), (8, *verify._chunk_ranges(8)[2000])]


def _screened_and_full_fired(monkeypatch, n, lo, hi):
    """The (applicable rows, connected graphs) fired matrix of ``_cert_chunk``
    on a chunk, from the rho column it hands ``decide``, and the one from
    rho computed by ``_rho_column`` on every connected graph."""
    calls = []
    monkeypatch.setattr(verify, "decide", lambda c, rho, delta: calls.append((c, rho, delta)) or decide(c, rho, delta))
    table = verify._batch_arrays(n, lo, hi)
    verify._cert_chunk(n, table)
    full = verify._rho_column(table.rows[table.connected], n)
    screened = np.array([decide(c, rho, delta)[1] for c, rho, delta in calls])
    return screened, np.array([decide(c, full, delta)[1] for c, _, delta in calls])


class TestCertificateScreen:
    def test_enclosure_holds_the_rho_column(self):
        # every connected labeled graph at n = 1..6, and n = 8 chunk 2000
        tables = [(n, 0, 1 << n * (n - 1) // 2) for n in range(1, 7)] + [(8, *verify._chunk_ranges(8)[2000])]
        for n, lo, hi in tables:
            table = verify._batch_arrays(n, lo, hi)
            rows = table.rows[table.connected]
            low, high = verify._rho_enclosure(rows, n)
            rho = verify._rho_column(rows, n)
            assert np.all(low <= rho) and np.all(rho <= high), (n, lo)

    @pytest.mark.parametrize("n, chunk", [(n, 0) for n in range(1, 7)] + [(7, 37), (8, 2000)])
    def test_enclosure_is_the_walk_ratio(self, n, chunk):
        # lo and hi are exactly min and max of (Bx)_i / x_i - 1 -+ RHO_TOL,
        # with B = A + I and x = B^_WALK 1 counted in int64 on the matrices
        # of each connected graph's _graph_from_mask
        table = verify._batch_arrays(n, *verify._chunk_ranges(n)[chunk])
        pairs = pairs_colex(n)
        masks = table.masks[table.connected].tolist()
        rows = np.array([verify._graph_from_mask(n, mask, pairs).rows for mask in masks], dtype=np.int64)
        b = (rows[:, :, None] >> np.arange(n) & 1) | np.eye(n, dtype=np.int64)
        x = np.linalg.matrix_power(b, verify._WALK) @ np.ones(n, dtype=np.int64)
        ratio = np.einsum("gij,gj->gi", b, x) / x
        low, high = verify._rho_enclosure(table.rows[table.connected], n)
        assert np.array_equal(low, ratio.min(axis=1) - 1 - verify.RHO_TOL)
        assert np.array_equal(high, ratio.max(axis=1) - 1 + verify.RHO_TOL)

    def test_enclosure_does_not_depend_on_the_batch(self):
        # the whole n = 8 chunk 2000 table against its slices of 4,096 and
        # of 1,000 graphs
        table = verify._batch_arrays(8, *verify._chunk_ranges(8)[2000])
        rows = table.rows[table.connected]
        whole = verify._rho_enclosure(rows, 8)
        for size in (4096, 1000):
            sliced = [verify._rho_enclosure(rows[start : start + size], 8) for start in range(0, len(rows), size)]
            for end, ends in zip(whole, zip(*sliced)):
                assert np.array_equal(end, np.concatenate(ends)), size

    @pytest.mark.parametrize("guard", [certify.GUARD, 0.0])
    def test_fires_as_the_full_rho_column(self, monkeypatch, guard):
        # rho from the enclosure on the graphs that are not open decides
        # every row as the exact rho does, also without the guard band
        monkeypatch.setattr(certify, "GUARD", guard)
        for chunk in _cert_chunks():
            screened, full = _screened_and_full_fired(monkeypatch, *chunk)
            assert len(screened) >= 3 and np.array_equal(screened, full), chunk

    def test_catches_an_enclosure_that_misses_rho(self, monkeypatch):
        # both ends moved up 1e-6: C_5, regular, has the exact enclosure
        # 2 +- RHO_TOL and sits on the threshold 2 of three rows at n = 5;
        # moved, both ends pass it, so C_5 is not open and the rows fire.
        # (An interval shrunk past its midpoint fires differently at its
        # ends, so the graph is open and eigvalsh decides it.)
        enclosure = verify._rho_enclosure

        def shifted(rows, n):
            lo, hi = enclosure(rows, n)
            return lo + 1e-6, hi + 1e-6

        monkeypatch.setattr(verify, "_rho_enclosure", shifted)
        assert any(not np.array_equal(*_screened_and_full_fired(monkeypatch, *chunk)) for chunk in _cert_chunks())

    def test_eigensolves_only_open_graphs(self, monkeypatch):
        # graphs that reach eigvalsh over n = 1..6, one nonempty batch per
        # order from n = 3; no row of n = 1 and no graph of n = 2 is open
        batches = []
        rho_column = verify._rho_column
        monkeypatch.setattr(verify, "_rho_column", lambda rows, n: batches.append((n, len(rows))) or rho_column(rows, n))
        for n in range(1, 7):
            verify_certificates(n)
        assert batches == [(3, 3), (4, 4), (5, 37), (6, 606)]


class TestTheoremSweeps:
    def test_t33_n6_classes(self):
        rep = verify_theorem("t33", 6)
        assert rep.passed
        by_class = {c.class_doubled: c for c in rep.classes}
        # beta* = 2 at n = 6 sits in the join regime: the split join K_2 v 4K_1
        # lies in the class and beats the clique union K_4 u 2K_1 (rho 3)
        rec = by_class[4]
        assert rec.regime == "4"
        assert rec.bound == pytest.approx(3.3722813232690143, abs=1e-12)
        assert rec.max_rho == pytest.approx(rec.bound, abs=1e-9)
        assert rec.n_maximizers == 15  # C(6,2) labelings of K_2 v 4K_1
        # beta* = 5/2 is the clique-union regime: bound 2*beta* - 1 = 4
        rec = by_class[5]
        assert rec.regime == "2"
        assert rec.bound == 4.0
        assert rec.max_rho == pytest.approx(4.0, abs=1e-9)
        assert rec.n_maximizers == 6  # C(6,5) labelings of K_5 u K_1

    def test_t32_n7_complete_class(self):
        rep = verify_theorem("t32", 7)
        assert rep.passed
        rec = {c.class_doubled: c for c in rep.classes}[7]
        assert rec.regime == "i" and rec.max_rho == pytest.approx(6.0, abs=1e-9)
        assert rec.n_maximizers == 1

    def test_t33_resolution_statement(self):
        rep = verify_theorem("t33", 6)
        assert any("2beta*-1" in line for line in rep.resolutions)

    def test_t13_small(self):
        rep = verify_theorem("t13", 6)
        assert rep.passed

    def test_t12_tie_n5(self):
        rep = verify_theorem("t12", 5)
        assert rep.passed
        rec = {c.class_doubled: c for c in rep.classes}[2]
        assert rec.regime == "3"
        assert len(rec.prediction_g6) == 2

    def test_csv_deterministic_across_jobs(self, tmp_path):
        a = verify_theorem("t33", 5, jobs=1).to_csv()
        b = verify_theorem("t33", 5, jobs=2).to_csv()
        assert a == b
        assert a.splitlines()[0].startswith("n,two_beta_star,regime,bound")

    def test_bound_offset_detects_failures(self, monkeypatch):
        # every class bound lowered by 0.5
        predict = verify.predict
        monkeypatch.setattr(verify, "predict", lambda *a: dataclasses.replace(predict(*a), bound=predict(*a).bound - 0.5))
        rep = verify_theorem("t33", 4)
        assert not rep.passed
        assert rep.discrepancies

    def test_n_limits(self):
        with pytest.raises(GraphError):
            verify_theorem("t33", 8)
        with pytest.raises(GraphError):
            verify_theorem("t33", 9, long_run=True)

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify_theorem("t99", 4)

    @pytest.mark.parametrize("key", sorted(GOLDEN_CSV))
    def test_csv_golden(self, key):
        theorem, n = key.split(" n=")
        assert verify_theorem(theorem, int(n)).to_csv() == GOLDEN_CSV[key]


class TestClassCheckTexts:
    # each fault injected through verify.predict or verify.spectral_radius
    # is reported with these exact lines, and the report fails

    @staticmethod
    def _run(monkeypatch, theorem, n, key, changes):
        real = verify.predict

        def faulty(th, nn, d):
            pred = real(th, nn, d)
            return dataclasses.replace(pred, **changes(pred)) if (th, d) == (theorem, key) else pred

        monkeypatch.setattr(verify, "predict", faulty)
        rep = verify_theorem(theorem, n)
        assert not rep.passed
        return rep.discrepancies

    def test_a_lowered_bound(self, monkeypatch):
        # K_4's class bound 3 lowered to 2.5: K_4 still matches, the six diamonds reach the bound
        lines = self._run(monkeypatch, "t32", 4, 4, changes=lambda p: {"bound": p.bound - 0.5})
        assert lines == (
            "class 2beta*=4: max rho 3 exceeds bound 2.5 at C~",
            *(f"class 2beta*=4: graph {g6} attains the bound but is not a predicted extremal graph" for g6 in ("C}", "C|", "Cz", "Cv", "Cn", "C^")),
        )

    def test_an_in_class_shape_marked_outside(self, monkeypatch):
        lines = self._run(monkeypatch, "t32", 4, 4, changes=lambda p: {"in_class": (False,)})
        assert lines == ("class 2beta*=4: bound expected strict but C~ attains it",)

    def test_every_graph_at_a_strict_bound_is_reported(self, monkeypatch):
        # the star's four labelings, not only the first
        lines = self._run(monkeypatch, "t32", 4, 2, changes=lambda p: {"in_class": (False,)})
        assert lines == tuple(f"class 2beta*=2: bound expected strict but {g6} attains it" for g6 in ("Cs", "Ci", "CX", "CF"))

    def test_an_outside_shape_marked_in_class(self, monkeypatch):
        # the n = 5 tie: the star K_1 v 4K_1 has 2beta* = 2, so no graph of class 3 shares its degree sequence
        pred = verify.predict("t33", 5, 3)
        assert pred.in_class == (False, True)
        lines = self._run(monkeypatch, "t33", 5, 3, changes=lambda p: {"in_class": (True, True)})
        assert lines == ("class 2beta*=3: predicted extremal graph Ds_ does not attain the class maximum",)

    def test_an_extra_shape_no_graph_attains(self, monkeypatch):
        star = join(complete(1), empty(3))
        lines = self._run(
            monkeypatch, "t33", 4, 4,
            changes=lambda p: {"extremal_graphs": p.extremal_graphs + (star,), "in_class": p.in_class + (True,)},
        )
        assert lines == ("class 2beta*=4: predicted extremal graph Cs does not attain the class maximum",)

    def test_a_screen_disagreement(self, monkeypatch):
        real = verify.spectral_radius

        def off_on_k4(g, *args):
            res = real(g, *args)
            return dataclasses.replace(res, value=res.value + 1e-3) if g.edge_count() == 6 else res

        monkeypatch.setattr(verify, "spectral_radius", off_on_k4)
        rep = verify_theorem("t32", 4)
        assert not rep.passed
        assert rep.discrepancies == ("class 2beta*=4: batched screen and spectral_radius disagree on C~",)


def _is_threshold(g) -> bool:
    """Deletes isolated and dominating vertices while it can; a threshold
    graph is the one that ends empty."""
    alive = (1 << g.n) - 1
    while alive:
        left = alive
        for v in range(g.n):
            bit = 1 << v
            if alive & bit and g.rows[v] & alive in (0, alive ^ bit):
                alive ^= bit
        if alive == left:
            return False
    return True


def _mask(g) -> int:
    return sum(1 << i for i, (u, v) in enumerate(pairs_colex(g.n)) if g.has_edge(u, v))


class TestShapeRecognition:
    # _check_class recognises a predicted graph by its degree sequence, which
    # is exact because every predicted graph is a threshold graph

    def test_predicted_graphs_are_threshold(self):
        assert _is_threshold(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
        assert not _is_threshold(Graph(4, [(0, 1), (1, 2), (2, 3)]))  # P_4
        for theorem, entry in THEOREMS.items():
            for n in range(1, 61):
                for key in range(0, n + 1, 1 if entry.fractional else 2):
                    for g in predict(theorem, n, key).extremal_graphs:
                        assert _is_threshold(g), (theorem, n, key, to_graph6(g))

    def test_degree_sequence_fixes_the_shape(self):
        # every labeled graph with the degree sequence of some K_s v (K_c u tK_1)
        # is that shape under networkx, and there are n!/|Aut| of them
        for n in range(7):
            shapes = {}
            for s in range(n + 1):
                for c in range(n - s + 1):
                    g = _shape(n, s, c)
                    shapes.setdefault(g.degree_sequence(), g)
            found = dict.fromkeys(shapes, 0)
            for mask in range(1 << n * (n - 1) // 2):
                g = verify._graph_from_mask(n, mask, pairs_colex(n))
                shape = shapes.get(g.degree_sequence())
                if shape is not None:
                    assert isomorphic(g, shape), (to_graph6(g), to_graph6(shape))
                    found[g.degree_sequence()] += 1
            for seq, shape in shapes.items():
                automorphisms = sum(
                    from_edge_list(n, [(p[u], p[v]) for u, v in shape.edges()]) == shape
                    for p in itertools.permutations(range(n))
                )
                assert found[seq] == math.factorial(n) // automorphisms, (n, seq)

    @staticmethod
    def _check(theorem, n, key, graphs):
        pred = predict(theorem, n, key)
        cands = [(spectral_radius(g).value, _mask(g)) for g in graphs]
        return verify._check_class(theorem, n, key, pred, cands)

    def test_a_relabeled_shape_matches(self, rng):
        # K_1 v (K_5 u 2K_1), the t32 class 2beta* = 7 at n = 8, in random labelings
        (shape,) = predict("t32", 8, 7).extremal_graphs
        for _ in range(20):
            perm = list(range(8))
            rng.shuffle(perm)
            record, lines = self._check("t32", 8, 7, [from_edge_list(8, [(perm[u], perm[v]) for u, v in shape.edges()])])
            assert lines == [] and record.argmax_matches

    def test_no_order_cap(self, rng):
        # the recognizer has no vertex cap: relabeled t33 split joins and
        # cliques well past ten vertices are matched
        for n, key in ((11, 4), (12, 12), (20, 14), (62, 20)):
            pred = predict("t33", n, key)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()]) for g in pred.extremal_graphs]
            record, lines = self._check("t33", n, key, relabeled)
            assert lines == [] and record.argmax_matches, (n, key)

    def test_edge_count_and_max_degree_do_not_match(self):
        # the fan K_1 v P_4 shares edge count 7 and max degree 4 with the
        # split join K_2 v 3K_1, but not its degree sequence
        fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
        split = _shape(5, 2, 0)
        assert (fan.edge_count(), max(fan.degree_sequence())) == (split.edge_count(), max(split.degree_sequence()))
        rho = spectral_radius(fan).value
        pred = RegimePrediction("4", rho, (split,), (True,))
        record, lines = verify._check_class("t33", 5, 4, pred, [(rho, _mask(fan))])
        assert lines == [
            f"class 2beta*=4: graph {to_graph6(fan)} attains the bound but is not a predicted extremal graph",
            f"class 2beta*=4: predicted extremal graph {to_graph6(split)} does not attain the class maximum",
        ]
        assert not record.argmax_matches


class TestCertificateSweep:
    def test_n4_sound_and_exact_fire_set(self):
        rep = verify_certificates(4)
        assert rep.passed
        assert rep.connected_examined == 38
        counts = dict((name, (app, fired)) for name, app, fired in rep.counts)
        # pm-spectral fires exactly on connected 4-vertex graphs with rho > sqrt(3)
        import math

        from specmatch.certify import GUARD

        expected = sum(
            1
            for g in (verify._graph_from_mask(4, mask, pairs_colex(4)) for mask in range(64))
            if is_connected(g) and __import__("specmatch").spectral_radius(g).value > math.sqrt(3) + GUARD
        )
        assert counts["pm-spectral"] == (38, expected)

    def test_reports_unsound_rows_and_fast_path_mismatches(self, monkeypatch, capsys):
        # the sweep's pm-spectral row gets threshold 0, so it fires on every
        # connected graph; certify_all keeps the real table
        def table(n, connected):
            real = certificate_table(n, connected)
            return [dataclasses.replace(c, threshold=0.0) if c.name == "pm-spectral" else c for c in real]

        monkeypatch.setattr(verify, "certificate_table", table)
        expected = []
        graphs = (verify._graph_from_mask(4, mask, pairs_colex(4)) for mask in range(64))
        for i, g in enumerate(g for g in graphs if is_connected(g)):
            if matching_number(g).size < 2:
                expected.append((to_graph6(g), "pm-spectral"))
            pm = next(rec for rec in certify_all(g).certificates if rec.name == "pm-spectral")
            if i % verify.CERTIFY_STRIDE == 0 and not pm.fired:
                expected.append((to_graph6(g), "fast-path mismatch on pm-spectral"))
        # the first connected graph, the star K_{1,3}, is sampled, unsound and mismatched
        assert expected[:2] == [("Cs", "pm-spectral"), ("Cs", "fast-path mismatch on pm-spectral")]
        rep = verify_certificates(4)
        assert rep.unsound == tuple(expected)
        assert rep.passed is False
        assert main(["verify", "--certificates", "--n", "4"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("UNSOUND")] == [f"UNSOUND {name} on {g6}" for g6, name in expected]

    def test_an_unsound_sampled_graph_is_reported_not_raised(self, monkeypatch):
        # without the guard band the float ties at n = 3 break soundness; the
        # sampled certify_all route is compared on (applicable, fired) only,
        # so the sweep reports them instead of raising SoundnessError
        monkeypatch.setattr(certify, "GUARD", 0.0)
        rep = verify_certificates(3)
        assert rep.passed is False
        assert rep.unsound == (
            ("Bo", "fast-path mismatch on min-degree-fpm"),
            ("Bg", "fpm-spectral"),
            ("Bg", "beta-star-increment(1)"),
            ("BW", "fpm-spectral"),
            ("BW", "beta-star-increment(1)"),
        )

    def test_n3_pm_never_applicable(self):
        rep = verify_certificates(3)
        assert all(name != "pm-spectral" for name, _, _ in rep.counts)

    def test_n6_zero_unsound(self):
        rep = verify_certificates(6)
        assert rep.passed and rep.connected_examined == 26704
        assert rep.counts == (
            ("beta-increment(1)", 26704, 24088),
            ("beta-increment(2)", 26704, 5613),
            ("beta-star-increment(1)", 26704, 24088),
            ("beta-star-increment(1/2)", 26704, 26704),
            ("beta-star-increment(2)", 26704, 5613),
            ("beta-star-increment(3/2)", 26704, 24088),
            ("beta-star-increment(5/2)", 26704, 5613),
            ("fpm-spectral", 26704, 5613),
            ("min-degree-fpm", 26704, 743),
            ("pm-spectral", 26704, 5613),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_certify_all(self, n):
        # the sweep and certify_all read one certificate table: same
        # applicability (beta* increments start at n = 3) and same firing
        tally: dict[str, list[int]] = {}
        for mask in range(1 << n * (n - 1) // 2):
            g = verify._graph_from_mask(n, mask, pairs_colex(n))
            if not is_connected(g):
                continue
            for rec in certify_all(g).certificates:
                c = tally.setdefault(rec.name, [0, 0])
                c[0] += rec.applicable
                c[1] += rec.fired
        expected = tuple((name, app, fired) for name, (app, fired) in sorted(tally.items()) if app)
        assert verify_certificates(n).counts == expected

    @pytest.mark.parametrize(
        "n, counts",
        [
            (1, ()),
            (2, (("min-degree-fpm", 1, 1),)),
            (
                3,
                (
                    ("beta-star-increment(1)", 4, 1),
                    ("beta-star-increment(1/2)", 4, 4),
                    ("fpm-spectral", 4, 1),
                    ("min-degree-fpm", 4, 1),
                ),
            ),
            (
                4,
                (
                    ("beta-increment(1)", 38, 22),
                    ("beta-star-increment(1)", 38, 22),
                    ("beta-star-increment(1/2)", 38, 38),
                    ("beta-star-increment(3/2)", 38, 22),
                    ("fpm-spectral", 38, 22),
                    ("min-degree-fpm", 38, 10),
                    ("pm-spectral", 38, 22),
                ),
            ),
            (
                5,
                (
                    ("beta-increment(1)", 728, 591),
                    ("beta-star-increment(1)", 728, 591),
                    ("beta-star-increment(1/2)", 728, 728),
                    ("beta-star-increment(2)", 728, 76),
                    ("beta-star-increment(3/2)", 728, 591),
                    ("fpm-spectral", 728, 76),
                    ("min-degree-fpm", 728, 38),
                ),
            ),
        ],
    )
    def test_counts_golden(self, n, counts):
        assert verify_certificates(n).counts == counts


def _patch_seed_cover(monkeypatch, target, cover=None, match_l=None):
    """Give target, in the audit's double-cover seed (``_dc_seed_columns``),
    the match_l list match_l, or the isolated column that reads as cover.
    target's seed leaves no free left copy, so the column search reaches
    nothing from it: its matching is the seed's, and its cover is W = {},
    R = the isolated vertices and C = the rest."""
    real = verify._dc_seed_columns
    if cover is not None:
        assert cover[0] == 0 and cover[2] == ((1 << target.n) - 1) & ~cover[1], "not a cover the seed gives"

    def seeded(rows):
        seed = real(rows)
        at = (rows == target.rows).all(axis=1)
        assert not seed[2][at].any(), "the seed leaves target a free left copy"
        if match_l is not None:
            seed[0][at] = match_l
        if cover is not None:
            seed[4][at] = cover[1]
        return seed

    monkeypatch.setattr(verify, "_dc_seed_columns", seeded)


def _patch_fractional_matching(monkeypatch, target, witness):
    """Give target, n <= 5, the fractional matching witness (partner rows,
    half-support rows, doubled total) in the audit: in the pull-back's
    columns (``_pull_back_columns``), at target's edge mask, its row in the
    one window at n <= 5, and from the builder, which the audit calls on a
    graph whose half rows are not a union of odd cycles."""
    pairs = pairs_colex(target.n)
    mask = sum(1 << pairs.index(e) for e in target.edges())
    pull_back, build = verify._pull_back_columns, verify._fractional_matching_from

    def pulled(match_l):
        columns = pull_back(match_l)
        for column, value in zip(columns, witness):
            column[mask] = value
        return columns

    monkeypatch.setattr(verify, "_pull_back_columns", pulled)
    monkeypatch.setattr(verify, "_fractional_matching_from", lambda rows, match: witness if rows == target.rows else build(rows, match))


class TestAudits:
    def test_duality_n5(self):
        # the duality audit is folded into the structure audit; the old name stays
        assert audit_duality is audit_structures
        rep = audit_duality(5)
        assert rep.passed

    def test_structures_n5(self):
        rep = audit_structures(5)
        assert rep.passed
        assert rep.connected_graphs == 728

    def test_structures_jobs_deterministic(self):
        a = audit_structures(5, jobs=1)
        b = audit_structures(5, jobs=2)
        assert a == b

    @pytest.mark.parametrize(
        "n, graphs, connected, fpm",
        [(0, 1, 0, 1), (1, 1, 1, 0), (2, 2, 1, 1), (3, 8, 4, 1), (4, 64, 38, 37), (5, 1024, 728, 383), (6, 32768, 26704, 24833)],
    )
    def test_counts_golden(self, n, graphs, connected, fpm):
        assert audit_structures(n) == AuditReport(n, graphs, connected, fpm, ())

    def test_limits(self):
        with pytest.raises(GraphError):
            audit_structures(-1)
        with pytest.raises(GraphError, match="structure audit capped at n <= 10"):
            audit_structures(11)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_sampled_above_n7(self, n):
        # the cross-check's default draws; the connected count is networkx's
        rep = audit_structures(n)
        assert rep.passed and rep.graphs == 1000
        draws = verify._random_masks(n, 1000, 2024, 0.05, 0.95).tolist()
        connected = 0
        for mask in draws:
            gx = nx.Graph([e for j, e in enumerate(pairs_colex(n)) if mask >> j & 1])
            gx.add_nodes_from(range(n))
            connected += nx.is_connected(gx)
        assert rep.connected_graphs == connected

    def test_names_a_wrong_double_cover_kernel(self, monkeypatch):
        # a double-cover search that leaves C_5's last left copy unmatched:
        # its total falls to 2, below the oracle's 5/2, and the partition of
        # a graph with 2beta* = n fails on the matching it gives
        real = verify._dc_search_columns

        def short(rows, *seed):
            match_l, *cover = real(rows, *seed)
            match_l[(rows == C5).all(axis=1), -1] = -1
            return match_l, *cover

        monkeypatch.setattr(verify, "_dc_search_columns", short)
        rep = audit_structures(5)
        assert rep.passed is False and rep.graphs == 1024
        assert rep.violations == (
            "Dhc: primal 2 / dual 5/2 / matching 5/2 differ",
            "Dhc: fractional perfect matching partition failed: matching is not perfect: total 2 < n/2 = 5/2",
        )
        # a seed that leaves K_2's edge half matched, a path an augmenting
        # path would fill, is named too, and the sweep goes on; its cover
        # is W = {}, R = {}, C = {0, 1}
        monkeypatch.undo()
        _patch_seed_cover(monkeypatch, complete(2), match_l=[1, -1])
        assert audit_structures(2) == AuditReport(
            2, 2, 1, 1, ("A_: double-cover matching is not maximum: half-weight support had an augmentable odd path",)
        )

    def test_reports_a_flag_that_no_rule_names(self, monkeypatch):
        # a screen that flags every graph at n = 4 while every rule passes:
        # the audit reports each graph, in mask order, as the disagreement
        monkeypatch.setattr(verify, "_witness_faults", lambda n, connected, *columns: np.ones(len(connected), dtype=bool))
        rep = audit_structures(4)
        pairs = pairs_colex(4)
        assert rep.violations == tuple(
            f"{to_graph6(verify._graph_from_mask(4, mask, pairs))}: the column screen flags its witnesses, but no rule names a fault"
            for mask in range(64)
        )

    def test_cli_golden(self, capsys):
        assert main(["verify", "--audit", "--n", "5"]) == 0
        assert capsys.readouterr().out == "graphs 1024, connected 728, with fractional perfect matching 383\nresult: PASS\n"

    def test_one_matching_and_one_validation_per_witness(self, monkeypatch):
        # n = 4 has 64 graphs in one table: they get one double-cover seed
        # and one search, both by column, and the scalar search never runs;
        # the column screen validates both witnesses of each once (it is
        # exact: TestWitnessScreen), so the scalar rules run only to name the
        # faults of a flagged graph: never on a passing audit, once each on a
        # graph given an uncovered transversal
        def counts():
            profile = cProfile.Profile()
            report = profile.runcall(audit_structures, 4)
            stats = pstats.Stats(profile).stats

            def calls(fn):
                code = fn.__code__
                return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

            kernels = (matching._dc_search_columns, matching._dc_search, matching._check_matching, matching._check_cover)
            return report, [calls(fn) for fn in kernels]

        report, calls = counts()
        assert report.passed and calls == [1, 0, 0, 0]
        target = union(complete(2), empty(2))
        _patch_seed_cover(monkeypatch, target, cover=(0, 0b1111, 0))
        report, calls = counts()
        assert calls == [1, 0, 1, 1]
        assert report.violations == (
            f"{to_graph6(target)}: primal 1 / dual 0 / matching 1 differ",
            f"{to_graph6(target)}: transversal is infeasible: edge (0,1) not covered: weights sum below 1",
        )

    def test_one_half_cycle_walk_per_graph(self):
        # the 1,024 graphs at n = 5 fill one table: the audit walks its
        # half-weight supports by column once as pulled back and once more
        # on the rows the builder rebuilt, and hands that column to the
        # screen, which walks none; the scalar walk, which the odd-cycle
        # check and the perfect-matching partition share, runs only to name
        # a flagged graph's faults: never on a passing audit
        profile = cProfile.Profile()
        profile.runcall(audit_structures, 5)
        stats = pstats.Stats(profile).stats

        def key(fn):
            return fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name

        assert [stats.get(key(fn), (0, 0))[1] for fn in (matching._odd_cycle_columns, matching._odd_cycles)] == [2, 0]
        assert list(stats[key(matching._odd_cycle_columns)][4]) == [key(verify._audit_chunk)]

    def test_catches_even_half_cycle(self, monkeypatch):
        # weight 1/2 on the whole 4-cycle is feasible and optimal, so only the
        # witness shape checks reject it.  C4 u K1 has 2beta* = 4 < n, where
        # only the odd-cycle check runs; C4 has 2beta* = n, where the
        # partition reports the failed walk too.
        partition_fault = "fractional perfect matching partition failed: non-canonical matching: even cycle in the half-weight support"
        for n, faults in [
            (5, ["half-weight support is not a disjoint union of odd cycles"]),
            (4, ["half-weight support is not a disjoint union of odd cycles", partition_fault]),
        ]:
            target = Graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)])
            even = ([0] * n, list(target.rows), 4)  # partner rows, half-support rows, doubled total
            monkeypatch.undo()
            _patch_fractional_matching(monkeypatch, target, even)
            rep = audit_structures(n)
            assert rep.violations == tuple(f"{to_graph6(target)}: {f}" for f in faults)

    def test_catches_nonoptimal_transversal_on_disconnected_graph(self, monkeypatch):
        # K2 u K1: weight 1/2 everywhere covers the edge but totals 3/2 > beta* = 1
        target = union(complete(2), empty(1))
        loose = (0, 0, 0b111)  # W, R, C masks
        _patch_seed_cover(monkeypatch, target, cover=loose)
        rep = audit_structures(3)
        assert rep.violations == (f"{to_graph6(target)}: primal 1 / dual 3/2 / matching 1 differ",)

    @pytest.mark.parametrize(
        "target, witness, faults",
        [
            (
                # P3 with weight 1 on both edges: vertex 1 carries 2 > 1
                Graph(3, [(0, 1), (1, 2)]),
                ([0b010, 0b101, 0b010], [0, 0, 0], 4),  # partner rows, half-support rows, doubled total
                ["primal 2 / dual 1 / matching 1 differ", "fractional matching is infeasible: vertex 1 is overloaded: incident weight 4/2"],
            ),
            (
                # connected P3 with its optimal total on the non-edge 02
                Graph(3, [(0, 1), (1, 2)]),
                ([0b100, 0, 0b001], [0, 0, 0], 2),
                ["fractional matching is infeasible: weight on non-edge (0,2)"],
            ),
        ],
    )
    def test_reports_infeasible_matching(self, monkeypatch, target, witness, faults):
        _patch_fractional_matching(monkeypatch, target, witness)
        rep = audit_structures(3)
        assert rep.violations == tuple(f"{to_graph6(target)}: {f}" for f in faults)

    @pytest.mark.parametrize(
        "edges, weights, total, fault",
        [
            ([(0, 1), (1, 2), (2, 3)], [((0, 2), 2), ((1, 3), 2)], 4, "weight on non-edge (0,2)"),
            ([(0, 1), (1, 2), (2, 3)], [((0, 1), 2), ((1, 2), 2)], 4, "vertex 1 is overloaded: incident weight 4/2"),
            ([(0, 1), (1, 2), (2, 3)], [((0, 1), 2), ((2, 3), 2)], 3, "stored total does not match the weights"),
            ([(0, 1), (1, 2), (2, 3)], [((0, 1), 2)], 2, "matching is not perfect: total 1 < n/2 = 4/2"),
            (
                [(0, 1), (1, 2), (2, 3), (0, 3)],
                [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1)],
                4,
                "non-canonical matching: even cycle in the half-weight support",
            ),
        ],
        ids=["non-edge", "overloaded", "total", "not-perfect", "even-cycle"],
    )
    def test_partition_faults_read_as_in_fpm_partition(self, monkeypatch, edges, weights, total, fault):
        # on P4 or C4 (2beta* = n), fpm_partition and the audit run one rule
        # order, so each fault reads the same in both.  Once the weights are
        # feasible with total n/2 every vertex is saturated, and a symmetric
        # support is a union of cycles: the partition raises no other fault.
        g = Graph(4, edges)
        fm = FractionalMatching(4, tuple(weights), HalfIntegral(total))
        with pytest.raises(GraphError) as excinfo:
            fpm_partition(g, fm)
        assert str(excinfo.value) == fault
        _patch_fractional_matching(monkeypatch, g, (*fm._rows(4), total))
        prefix = f"{to_graph6(g)}: fractional perfect matching partition failed: "
        assert [v[len(prefix) :] for v in audit_structures(4).violations if v.startswith(prefix)] == [fault]

    def test_reports_uncovered_transversal(self, monkeypatch):
        # K2 u K1 with weight 0 everywhere leaves the edge uncovered
        target = union(complete(2), empty(1))
        zero = (0, 0b111, 0)  # W, R, C masks
        _patch_seed_cover(monkeypatch, target, cover=zero)
        rep = audit_structures(3)
        assert rep.violations == (
            f"{to_graph6(target)}: primal 1 / dual 0 / matching 1 differ",
            f"{to_graph6(target)}: transversal is infeasible: edge (0,1) not covered: weights sum below 1",
        )


def _witness_cases(n, table):
    """(kind, graph index, fractional matching, W/R/C cover) of each graph of
    a chunk table: its real witnesses, then each corruption that fits it.
    The half rows stay symmetric, as the builder makes them; the partner
    rows and the masks need not."""
    full = (1 << n) - 1
    for i, rows in enumerate(map(tuple, table.rows.tolist())):
        match_l, *cover = matching._dc_matching(rows, n)
        partner, half, total = real = matching._fractional_matching_from(rows, match_l)
        yield "real", i, real, cover
        # one matched left copy dropped, where the builder still gives a
        # matching: with its own total, and with the real one kept
        u = next((u for u, v in enumerate(match_l) if v >= 0), None)
        if u is not None:
            try:
                dropped = matching._fractional_matching_from(rows, match_l[:u] + [-1] + match_l[u + 1 :])
            except GraphError:
                pass
            else:
                yield "dropped copy", i, dropped, cover
                yield "dropped copy, total kept", i, (*dropped[:2], total), cover
        # a partner bit moved to a non-edge, or to another edge at its vertex
        for kind, targets in (("moved to a non-edge", lambda u: full & ~rows[u] & ~(1 << u)), ("moved to an edge", lambda u: rows[u] & ~partner[u])):
            u = next((u for u, p in enumerate(partner) if p and targets(u)), None)
            if u is not None:
                yield kind, i, (partner[:u] + [targets(u) & -targets(u)] + partner[u + 1 :], half, total), cover
        # a vertex overloaded: all the weight on its edges, the total kept
        u = next((u for u, row in enumerate(rows) if row.bit_count() >= total >= 2), None)
        if u is not None:
            edges = [1 << v for v in range(n) if rows[u] >> v & 1][:total]
            yield "overloaded", i, ([0] * u + [sum(edges)] + [0] * (n - u - 1), [0] * n, total), cover
        yield "all C", i, real, (0, 0, full)
        yield "all R", i, real, (0, full, 0)
        # weight 1/2 on the 4-cycle 0-1-2-3
        if n >= 4 and rows[0] & 0b1010 == 0b1010 and rows[2] & 0b1010 == 0b1010:
            yield "even half-cycle", i, ([0] * n, [0b1010, 0b0101, 0b1010, 0b0101] + [0] * (n - 4), 4), cover
        # every W/R/C assignment, classes overlapping or missing, at n <= 3
        if n <= 3:
            for masks in itertools.product(range(1 << n), repeat=3):
                yield "masks", i, real, masks


class TestWitnessScreen:
    @pytest.mark.parametrize("n", range(7))
    def test_flags_exactly_the_graphs_the_rules_fault(self, n):
        # every labeled graph on n <= 6 vertices, with its real witnesses and
        # each corruption: the screen, the half-weight walk included, flags a
        # case exactly when the per-graph reference reports a fault
        table = verify._batch_arrays(n, 0, 1 << (n * (n - 1) // 2))
        kinds, graph, fms, covers = zip(*_witness_cases(n, table))
        graph = np.array(graph)
        partner, half = (np.array([fm[k] for fm in fms], dtype=np.uint16).reshape(len(fms), n) for k in (0, 1))
        w, r, c = np.array(covers, dtype=np.uint16).T
        total = np.array([fm[2] for fm in fms])
        screened = matching._witness_faults(
            n, table.connected[graph], table.bsd[graph], table.rows[graph], partner, half, total, w, r, c, matching._odd_cycle_columns(half)
        )
        connected, bsd, rows = table.connected.tolist(), table.bsd.tolist(), list(map(tuple, table.rows.tolist()))
        faulted = [
            bool(matching._name_witness_faults(n, connected[i], bsd[i], rows[i], *fm, *cover)) for i, fm, cover in zip(graph.tolist(), fms, covers)
        ]
        assert screened.tolist() == faulted
        # the real witnesses pass; from n = 4 on every corruption fits and is caught somewhere
        assert not any(f for kind, f in zip(kinds, faulted) if kind == "real")
        if n >= 4:
            assert {kind for kind, f in zip(kinds, faulted) if f} == set(kinds) - {"real"}


class TestCrossCheck:
    def test_exhaustive_n5(self):
        rep = cross_check_matching_implementations(5)
        assert rep.exhaustive and rep.graphs_checked == 1024 and rep.passed

    def test_sampled_n7(self):
        rep = cross_check_matching_implementations(7, samples=150)
        assert not rep.exhaustive and rep.graphs_checked == 150 and rep.passed

    def test_sample_count_past_memory(self):
        # 10^13 masks would take 80 TB: both sampled checks refuse the count
        # before anything is allocated
        for check in (lambda: cross_check_matching_implementations(8, samples=10**13), lambda: verify_tie_class_n8(samples=10**13)):
            with pytest.raises(GraphError, match=f"^random samples must number 0 to {verify._DRAW_CAP} "):
                check()

    def test_deterministic_sampling(self):
        a = cross_check_matching_implementations(8, samples=50, seed=7)
        b = cross_check_matching_implementations(8, samples=50, seed=7)
        assert a == b

    def test_exhaustive_n0(self):
        rep = cross_check_matching_implementations(0)
        assert rep.exhaustive and rep.graphs_checked == 1 and rep.passed

    def test_reports_each_mismatch(self, monkeypatch):
        # a blossom that gets C_5 wrong, beta = 2, is named, and every other
        # graph at n = 5 still agrees; a wrong double-cover kernel is the
        # structure audit's to name (TestAudits.test_names_a_wrong_double_cover_kernel).
        # C_5's seed leaves only its last vertex free, which the skip rule
        # passes over, so here the seed leaves all of C_5 free for the search
        seed, search = verify._blossom_seed_columns, verify._blossom_search

        def unseeded(rows):
            match, free, searched = seed(rows)
            at = (rows == C5).all(axis=1)
            match[at], free[at], searched[at] = -1, 0b11111, True
            return match, free, searched

        monkeypatch.setattr(verify, "_blossom_seed_columns", unseeded)
        monkeypatch.setattr(verify, "_blossom_search", lambda rows, n, *s: (1, []) if rows == C5 else search(rows, n, *s))
        rep = cross_check_matching_implementations(5)
        assert rep.passed is False and rep.graphs_checked == 1024
        assert rep.mismatches == ("Dhc: matching number 1 != oracle 2",)

    def test_catches_a_search_one_short_on_odd_cycles(self, monkeypatch):
        # a blossom search that comes out one short on every graph with an
        # odd cycle, the graphs that need its contractions: the exhaustive
        # n = 7 sweep reports it from any one of its chunks
        search = verify._blossom_search

        def short(rows, n, *seed):
            size, match = search(rows, n, *seed)
            odd = not nx.is_bipartite(nx.Graph([(u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1]))
            return size - odd, match

        monkeypatch.setattr(verify, "_blossom_search", short)
        mismatches = verify._cross_chunk(7, verify._batch_arrays(7, *verify._chunk_ranges(7)[37]))
        assert len(mismatches) == 2844
        assert mismatches[0] == "FW?DG: matching number 1 != oracle 2"

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(GraphError):
            cross_check_matching_implementations(7, samples=samples)

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (7, 2024, "c9dd44c100779e4d18686fe28e4d312ca883e631341a44255d1a3a0587d8a374"),
            (7, 201, "ab25108068efb2914c6e1e5c14f7722d2d767639a8220d4d8a3d3e2498eb484e"),
            (8, 2024, "c7fd0415d8e505b77a24bfeaa552c9b6d81139bc726f0022a91efdc1d277e8fe"),
            (8, 201, "75151baadbbe260f3eb4c6c4f28624dd5dc334906e79f8379b76ea3fedef146c"),
            (9, 2024, "6453afedefc060d7988eabd04e5b2501e4839b7bdd1e3fad4fef40d62ccde976"),
            (9, 201, "0480fca094e69b86e7766c3d4c5bc3365c3369cd367333fdd5669aea304c6fe3"),
        ],
    )
    def test_sampled_reports_pinned(self, monkeypatch, n, seed, digest):
        # the 1,000 draws, in the order checked, with their oracle columns:
        # "graph6 beta 2*beta_star" per line, 2*beta_star from the draws' table
        seen = []
        real = verify._cross_chunk

        def spy(n, table):
            graphs = (Graph._from_rows_unchecked(n, rows) for rows in map(tuple, table.rows.tolist()))
            seen.extend(f"{to_graph6(g)} {b}" for g, b in zip(graphs, table.beta.tolist(), strict=True))
            return real(n, table)

        monkeypatch.setattr(verify, "_cross_chunk", spy)
        rep = cross_check_matching_implementations(n, seed=seed)
        assert (rep.n, rep.exhaustive, rep.graphs_checked, rep.mismatches) == (n, False, 1000, ())
        bsd = verify._batch_arrays(n, 0, 1000, masks=verify._random_masks(n, 1000, seed, 0.05, 0.95)).bsd.tolist()
        lines = [f"{line} {d}" for line, d in zip(seen, bsd, strict=True)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_sampled_n9_reaches_dense_graphs(self, monkeypatch):
        # every draw is checked, dense ones included: no edge cap rejects a sample
        edge_counts = []
        real = verify._cross_chunk
        monkeypatch.setattr(verify, "_cross_chunk", lambda n, table: edge_counts.extend(table.edges.tolist()) or real(n, table))
        rep = cross_check_matching_implementations(9, samples=60, seed=1)
        assert rep.passed and rep.graphs_checked == len(edge_counts) == 60
        assert max(edge_counts) > 18

    @pytest.mark.parametrize("n, samples, windows", [(7, 300, 1), (10, 2500, 2)])
    def test_sampled_honours_jobs(self, monkeypatch, n, samples, windows):
        # the samples run in windows of _TABLE_CELLS >> n masks (2,048 at
        # n = 10), and two windows or more share a pool of jobs processes
        serial = cross_check_matching_implementations(n, samples=samples, seed=5, jobs=1)
        opened = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: opened.append(method) or get_context(method))
        assert cross_check_matching_implementations(n, samples=samples, seed=5, jobs=2) == serial
        assert serial.graphs_checked == samples and serial.passed
        assert len(opened) == (windows >= 2)

    def test_above_the_oracle_cap(self, capsys):
        with pytest.raises(GraphError, match="n <= 10"):
            cross_check_matching_implementations(11)
        assert main(["cross-check", "--n", "11"]) == 2
        assert "capped at n <= 10" in capsys.readouterr().err


def _reference_masks(n, samples, seed, p_lo, p_hi):
    """The sampler's definition, one generator call per draw: each graph
    draws p = uniform(p_lo, p_hi), then keeps each vertex pair, in graph6
    bit order, when random() falls below p."""
    rng = random.Random(seed)
    masks = np.zeros(samples, dtype=np.int64)
    for i in range(samples):
        p = rng.uniform(p_lo, p_hi)
        masks[i] = sum(1 << j for j in range(n * (n - 1) // 2) if rng.random() < p)
    return masks


class TestSampler:
    @pytest.mark.parametrize("p_range", [(0.05, 0.95), (0.1, 0.5)], ids=["cross-check", "tie-class"])
    @pytest.mark.parametrize("seed", [1, 2024])
    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_matches_the_per_draw_definition(self, n, seed, p_range):
        # the last count spans several blocks of draws
        for samples in (0, 1, 1000, (verify._TABLE_CELLS >> n) + 3):
            masks = verify._random_masks(n, samples, seed, *p_range)
            assert masks.dtype == np.int64
            assert masks.tolist() == _reference_masks(n, samples, seed, *p_range).tolist(), samples

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_memory_bounded_by_a_block(self, n):
        # 100,000 masks are 0.8 MB; the draws go in blocks of a few thousand
        # graphs (under 1.5 MB of words and doubles at these orders), not all
        # at once (110 MB at n = 10)
        tracemalloc.start()
        try:
            masks = verify._random_masks(n, 100_000, 2024, 0.05, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks.nbytes == 800_000
        assert peak <= masks.nbytes + 4e6, peak

    def test_sweeps_do_not_import_numpy_random(self):
        # importing numpy.random costs a fresh interpreter about 6 ms
        code = (
            "import sys, specmatch, specmatch.cli\n"
            "specmatch.cross_check_matching_implementations(7, samples=1)\n"
            "specmatch.verify_tie_class_n8(samples=1)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestTieClass:
    def test_negative_samples_rejected(self):
        with pytest.raises(GraphError):
            verify_tie_class_n8(samples=-1)

    def test_zero_samples_keeps_shape_closures(self):
        rep = verify_tie_class_n8(samples=0)
        assert rep.passed and rep.class_graphs_checked > 0 and rep.maximizers_match_clique_union

    @pytest.mark.parametrize(
        "kwargs, checked", [({}, 549), ({"samples": 0}, 503), ({"seed": 201}, 546), ({"samples": 7000}, 586)]
    )
    def test_report_pinned(self, kwargs, checked):
        # samples=0 keeps the two shape closures alone; samples=7000 fills two windows
        assert verify_tie_class_n8(**kwargs) == verify.TieCaseReport(
            bound=4.0,
            predicted_g6=("G}rEE?", "G~{???"),
            predicted_rho=(4.0, 4.0),
            predicted_in_class=(False, True),
            class_graphs_checked=checked,
            max_rho_in_class=4.0,
            maximizers_match_clique_union=True,
            notes=(
                "stated bound 2*beta_star is not attained; the clique union attains 2*beta_star - 1",
                "tie partner has fractional matching number 2, below 5/2; only the clique union attains the bound inside the class",
                "class maximum equals 2beta*-1 = 4, attained only by the clique union; "
                "the split join K_2 v 6K_1 also has rho 4 but lies in the 2beta*=4 class",
            ),
            violations=(),
        )

    def test_tables_bounded_by_windows(self, monkeypatch):
        # the 2,048 shape subsets and 7,000 samples go through _sweep in
        # windows of _TABLE_CELLS >> 8 masks, one bounded table each
        sizes = []
        batch_arrays = verify._batch_arrays
        monkeypatch.setattr(
            verify, "_batch_arrays", lambda n, lo, hi, **kw: sizes.append(hi - lo) or batch_arrays(n, lo, hi, **kw)
        )
        verify_tie_class_n8(samples=7000)
        assert sizes == [verify._TABLE_CELLS >> 8, 2048 + 7000 - (verify._TABLE_CELLS >> 8)]

    def test_a_lowered_bound_fails(self, monkeypatch):
        # the (t33, 8, 5) bound lowered by 0.5: the clique union and its class now exceed it
        real = verify.predict

        def lowered(theorem, n, d):
            pred = real(theorem, n, d)
            return dataclasses.replace(pred, bound=pred.bound - 0.5) if (theorem, n, d) == ("t33", 8, 5) else pred

        monkeypatch.setattr(verify, "predict", lowered)
        rep = verify_tie_class_n8(samples=0)
        assert rep.bound == 3.5 and not rep.passed
        # the theorem sweep's wording: K_5 u 3K_1 on vertices 0..4 is the smallest mask at rho 4
        assert "class 2beta*=5: max rho 4 exceeds bound 3.5 at G~{???" in rep.violations

    def test_no_per_graph_matching_or_spectral_calls(self):
        # the table gives 2*beta_star, the screen rho: verify calls these
        # routines only on the 2 predicted graphs and the at-bound candidates,
        # without samples the one labeling of K_5 u 3K_1 among the shape subsets
        profile = cProfile.Profile()
        rep = profile.runcall(verify_tie_class_n8, samples=0)
        stats = pstats.Stats(profile).stats
        calls = [_verify_calls(stats, fn) for fn in (spectral_radius, fractional_matching_number)]
        assert rep.passed and max(calls) <= 2 + 1, calls


class TestOracleEdgeCases:
    def test_oracle_beta_star_empty(self):
        assert oracle_beta_star(empty(4)) == HalfIntegral(0)

    def test_oracle_beta_triangle_plus_isolate(self):
        g = union(complete(3), empty(1))
        assert oracle_beta(g) == 1
        assert oracle_beta_star(g) == HalfIntegral(3)

    def test_oracles_agree_on_bipartite(self):
        g = join(empty(2), empty(3))
        assert oracle_beta(g) == 2
        assert oracle_beta_star(g) == HalfIntegral(4)


class TestIntegerOrders:
    @pytest.mark.parametrize(
        "driver, args, kwargs",
        [
            (verify_theorem, ("t33", 4), {}),
            (verify_theorem, ("t13", 4), {}),
            (verify_certificates, (4,), {}),
            (audit_structures, (4,), {}),
            (cross_check_matching_implementations, (4,), {}),
            (cross_check_matching_implementations, (7,), {"samples": 5}),
            (verify_tie_class_n8, (), {"samples": 5}),
        ],
        ids=["theorem-t33", "theorem-t13", "certificates", "audit", "cross-check", "sampled-cross-check", "tie-class"],
    )
    def test_numpy_integers_give_the_same_report(self, driver, args, kwargs):
        # an order or a sample count read from a numpy array is an integer
        # like any other: the report is the one the int gives, with no numpy
        # scalar in it
        expect = driver(*args, **kwargs)
        wide = tuple(np.int64(a) if isinstance(a, int) else a for a in args)
        got = driver(*wide, **{k: np.int64(v) for k, v in kwargs.items()})
        assert got == expect and repr(got) == repr(expect)
