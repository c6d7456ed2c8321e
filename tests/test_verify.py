from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import multiprocessing
import pstats
import types
from pathlib import Path

import numpy as np
import pytest

from specmatch import (
    FractionalMatching,
    Graph,
    GraphError,
    HalfIntegral,
    Transversal,
    audit_duality,
    audit_structures,
    certify_all,
    complete,
    cross_check_matching_implementations,
    empty,
    enumerate_graphs,
    fractional_matching_number,
    is_connected,
    is_isomorphic,
    join,
    matching_number,
    min_degree,
    oracle_beta,
    oracle_beta_star,
    spectral_radius,
    to_graph6,
    union,
    verify_certificates,
    verify_theorem,
    verify_tie_class_n8,
)
from specmatch import matching, verify
from specmatch.certify import _guarantee_holds, certificate_table, decide
from specmatch.cli import main
from specmatch.graphs import pairs_colex
from specmatch.verify import AuditReport

# every theorem CSV at n <= 6, byte for byte; a deliberate report change updates this file
GOLDEN_CSV = json.loads((Path(__file__).parent / "golden" / "theorem_csv.json").read_text())


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
    connected, _, _, beta, bsd, rows, _ = verify._batch_arrays(n, lo, hi)
    rho = verify._rho_column(rows, n)
    keys = bsd if theorem in ("t32", "t33") else 2 * beta
    if verify._CONNECTED_THEOREMS[theorem]:
        keys = np.where(connected, keys, -1)
    sizes, candidates = {}, {}
    for key in np.unique(keys[keys >= 0]).tolist():
        idx = np.flatnonzero(keys == key)
        sizes[key] = len(idx)
        idx = idx[rho[idx] >= min(rho[idx].max(), bounds[key]) - verify.RHO_TOL]
        candidates[key] = list(zip(rho[idx].tolist(), (lo + idx).tolist()))
    return int(connected.sum()), sizes, candidates


def _screened_chunks(theorem, lower=0.0):
    """(chunk, pruned output, full-rho output) on every chunk at n <= 6 and
    on the first and a middle chunk at n = 7, each class bound lowered by lower."""
    step = 1 if theorem in ("t32", "t33") else 2  # the classes: 2*beta_star, or 2*beta
    for n in range(1, 8):
        bounds = {key: verify._predict(theorem, n, key).bound - lower for key in range(0, n + 1, step)}
        chunks = verify._chunk_ranges(n)
        for lo, hi in chunks if n < 7 else (chunks[0], chunks[len(chunks) // 2]):
            pruned = verify._theorem_chunk((n, lo, hi, None, theorem, bounds))
            yield (n, lo, hi), pruned, _full_rho_candidates(n, lo, hi, theorem, bounds)


class TestEnumeration:
    def test_counts_n3(self):
        graphs = list(enumerate_graphs(3))
        assert len(graphs) == 8
        assert sum(1 for g in graphs if is_connected(g)) == 4

    def test_counts_n4(self):
        assert sum(1 for _ in enumerate_graphs(4)) == 64

    def test_connected_filter(self):
        assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38

    def test_unique_and_deterministic(self):
        seen = {g.rows for g in enumerate_graphs(4)}
        assert len(seen) == 64

    def test_caps(self):
        with pytest.raises(GraphError):
            next(enumerate_graphs(9))
        with pytest.raises(GraphError):
            next(enumerate_graphs(10))
        with pytest.raises(GraphError):
            next(enumerate_graphs(-1))


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
        # n = 8 shape subsets as the tie class enumerates them, and n = 6 draws
        rng = np.random.default_rng(7)
        hub = join(complete(1), union(complete(3), empty(4)))  # K_1 v (K_3 u 4K_1)
        subsets = verify._subset_masks(hub)
        assert len(set(subsets.tolist())) == 1 << 10 and subsets[-1] == sum(1 << pairs_colex(8).index(e) for e in hub.edges())
        for n, masks in [(8, subsets), (6, rng.integers(0, 1 << 15, 150))]:
            masks = np.tile(masks, 2)[rng.permutation(2 * len(masks))]
            lo, hi = 3, len(masks) - 2
            graphs = [verify._graph_from_mask(n, mask, pairs_colex(n)) for mask in masks[lo:hi].tolist()]
            rho, conn, delta, edges, beta, bsd, rows, picked = _lists(verify._batch_arrays(n, lo, hi, masks=masks))
            assert picked == masks[lo:hi].tolist() and len(set(picked)) < len(picked)
            assert rows == [g.rows for g in graphs]
            assert conn == [is_connected(g) for g in graphs]
            assert delta == [min_degree(g) for g in graphs]
            assert edges == [g.edge_count() for g in graphs]
            assert beta == [matching_number(g).size for g in graphs]
            assert bsd == [fractional_matching_number(g).doubled for g in graphs]
            assert rho == pytest.approx([spectral_radius(g).value for g in graphs], abs=1e-9)

    def test_n0(self):
        # the one graph on no vertices is empty and not connected; its
        # minimum degree, which min_degree refuses, reads 0, and so does its rho
        table = verify._batch_arrays(0, 0, 1)
        assert len(table) == 7
        assert _lists(table) == ([0.0], [False], [0], [0], [0], [0], [()], [0])

    @pytest.mark.parametrize(
        "sweep, args",
        [("verify_theorem", (t, 5)) for t in verify.THEOREMS]
        + [("verify_certificates", (5,)), ("cross_check_matching_implementations", (5,))]
        + [("cross_check_matching_implementations", (7, 50))],
        ids=[*verify.THEOREMS, "certificates", "cross-check", "sampled-cross-check"],
    )
    def test_workers_read_the_columns(self, sweep, args):
        # beta and 2*beta_star come from the table: nothing in verify calls a
        # matching routine or an oracle per graph
        profile = cProfile.Profile()
        profile.runcall(getattr(verify, sweep), *args)
        stats = pstats.Stats(profile).stats
        per_graph = 0
        for fn in (matching._dc_matching_size, matching._blossom_max_matching, oracle_beta, oracle_beta_star):
            per_graph += _verify_calls(stats, fn)
        assert per_graph == 0

    def test_certificates_decide_on_columns(self):
        # the certificate sweep rules on whole columns: at n = 5 (one chunk)
        # verify calls decide and _guarantee_holds at most once per table row
        profile = cProfile.Profile()
        profile.runcall(verify_certificates, 5)
        stats = pstats.Stats(profile).stats
        rows = len(certificate_table(5, True))
        assert 0 < _verify_calls(stats, decide) <= rows
        assert 0 < _verify_calls(stats, _guarantee_holds) <= rows

    @pytest.mark.parametrize("jobs, size", [(1000, 64), (2, 2)])
    def test_pool_no_larger_than_the_chunk_count(self, monkeypatch, jobs, size):
        # n = 7 has 64 chunks; the fake pool maps serially and starts no process
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
        chunk = lambda args: args[1:3]  # noqa: E731
        assert verify._sweep(chunk, 7, jobs) == verify._chunk_ranges(7)
        assert asked == [size]


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
            *_, rows, _ = verify._batch_arrays(n, lo, hi)
            full = verify._rho_column(rows, n)
            for size in (1, 7, 400, 5000):
                pick = rng.permutation(len(rows))[:size]
                assert np.array_equal(verify._rho_column(rows[pick], n).view(np.int64), full[pick].view(np.int64))


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
        predict = verify._predict
        monkeypatch.setattr(verify, "_predict", lambda *a: dataclasses.replace(predict(*a), bound=predict(*a).bound - 0.5))
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
            for g in enumerate_graphs(4, connected_only=True)
            if __import__("specmatch").spectral_radius(g).value > math.sqrt(3) + GUARD
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
        for i, g in enumerate(enumerate_graphs(4, connected_only=True)):
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
        for g in enumerate_graphs(n, connected_only=True):
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
        with pytest.raises(GraphError):
            audit_structures(8)

    def test_cli_golden(self, capsys):
        assert main(["verify", "--audit", "--n", "5"]) == 0
        assert capsys.readouterr().out == "graphs 1024, connected 728, with fractional perfect matching 383\nresult: PASS\n"

    def test_one_matching_and_one_validation_per_witness(self):
        # n = 4 has 64 graphs: each gets one double-cover matching, and each
        # of its two witnesses is validated exactly once
        profile = cProfile.Profile()
        profile.runcall(audit_structures, 4)
        stats = pstats.Stats(profile).stats

        def calls(fn):
            code = fn.__code__
            return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

        counts = [calls(fn) for fn in (matching._dc_matching, matching._check_matching, matching._check_cover)]
        assert counts == [64, 64, 64]

    def test_one_half_cycle_walk_per_graph(self):
        # the odd-cycle check and the perfect-matching partition share one
        # walk of the half-weight support: 1,024 graphs at n = 5
        profile = cProfile.Profile()
        profile.runcall(audit_structures, 5)
        code = matching._odd_cycles.__code__
        stats = pstats.Stats(profile).stats
        assert stats[code.co_filename, code.co_firstlineno, code.co_name][1] <= 1024

    def test_catches_even_half_cycle(self, monkeypatch):
        # weight 1/2 on the whole 4-cycle is feasible and optimal, so only the
        # witness shape checks reject it.  C4 u K1 has 2beta* = 4 < n, where
        # only the odd-cycle check runs; C4 has 2beta* = n, where the
        # partition reports the failed walk too.
        partition_fault = "fractional perfect matching partition failed: non-canonical matching: even cycle in the half-weight support"
        real = verify._fractional_matching_from
        for n, faults in [
            (5, ["half-weight support is not a disjoint union of odd cycles"]),
            (4, ["half-weight support is not a disjoint union of odd cycles", partition_fault]),
        ]:
            target = Graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)])
            even = ([0] * n, list(target.rows), 4)  # partner rows, half-support rows, doubled total
            monkeypatch.setattr(
                verify, "_fractional_matching_from", lambda rows, *m, t=target, e=even: e if rows == t.rows else real(rows, *m)
            )
            rep = audit_structures(n)
            assert rep.violations == tuple(f"{to_graph6(target)}: {f}" for f in faults)

    def test_catches_nonoptimal_transversal_on_disconnected_graph(self, monkeypatch):
        # K2 u K1: weight 1/2 everywhere covers the edge but totals 3/2 > beta* = 1
        target = union(complete(2), empty(1))
        loose = (0, 0, 0b111)  # W, R, C masks
        real = verify._transversal_from
        monkeypatch.setattr(verify, "_transversal_from", lambda rows, *m: loose if rows == target.rows else real(rows, *m))
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
        real = verify._fractional_matching_from
        monkeypatch.setattr(verify, "_fractional_matching_from", lambda rows, *m: witness if rows == target.rows else real(rows, *m))
        rep = audit_structures(3)
        assert rep.violations == tuple(f"{to_graph6(target)}: {f}" for f in faults)

    def test_reports_uncovered_transversal(self, monkeypatch):
        # K2 u K1 with weight 0 everywhere leaves the edge uncovered
        target = union(complete(2), empty(1))
        zero = (0, 0b111, 0)  # W, R, C masks
        real = verify._transversal_from
        monkeypatch.setattr(verify, "_transversal_from", lambda rows, *m: zero if rows == target.rows else real(rows, *m))
        rep = audit_structures(3)
        assert rep.violations == (
            f"{to_graph6(target)}: primal 1 / dual 0 / matching 1 differ",
            f"{to_graph6(target)}: transversal is infeasible: edge (0,1) not covered: weights sum below 1",
        )


class TestCrossCheck:
    def test_exhaustive_n5(self):
        rep = cross_check_matching_implementations(5)
        assert rep.exhaustive and rep.graphs_checked == 1024 and rep.passed

    def test_sampled_n7(self):
        rep = cross_check_matching_implementations(7, samples=150)
        assert not rep.exhaustive and rep.graphs_checked == 150 and rep.passed

    def test_deterministic_sampling(self):
        a = cross_check_matching_implementations(8, samples=50, seed=7)
        b = cross_check_matching_implementations(8, samples=50, seed=7)
        assert a == b

    def test_exhaustive_n0(self):
        rep = cross_check_matching_implementations(0)
        assert rep.exhaustive and rep.graphs_checked == 1 and rep.passed

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
        # the 1,000 draws, in order, with their oracle columns: "graph6 beta 2*beta_star" per line
        seen = []
        real = verify._cross_check_one
        monkeypatch.setattr(verify, "_cross_check_one", lambda g, b, d: seen.append(f"{to_graph6(g)} {b} {d}") or real(g, b, d))
        rep = cross_check_matching_implementations(n, seed=seed)
        assert (rep.n, rep.exhaustive, rep.graphs_checked, rep.mismatches) == (n, False, 1000, ())
        assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == digest

    def test_sampled_n9_reaches_dense_graphs(self, monkeypatch):
        # every draw is checked, dense ones included: no edge cap rejects a sample
        edge_counts = []
        real = verify._cross_check_one
        monkeypatch.setattr(
            verify, "_cross_check_one", lambda g, *oracle: edge_counts.append(g.edge_count()) or real(g, *oracle)
        )
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
        real = verify.predicted_maximizer_general

        def lowered(n, beta_star):
            pred = real(n, beta_star)
            return dataclasses.replace(pred, bound=pred.bound - 0.5) if (n, beta_star.doubled) == (8, 5) else pred

        monkeypatch.setattr(verify, "predicted_maximizer_general", lowered)
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
        calls = [_verify_calls(stats, fn) for fn in (spectral_radius, fractional_matching_number, is_isomorphic)]
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
