"""Single-graph queries near the vertex cap: spectral radius, graph6 decoding,
threshold roots and the matching witnesses at n up to MAX_VERTICES = 2048.

Budget: the whole module runs in about 23 s on 2 cores, most of it in the
dense eigensolver and the networkx encoder at n = 2048.  The dense solver
runs there as the reference for the Lanczos route (7 s) and as the fallback
on paths; Lanczos itself takes under 0.2 s per graph, and the checks of its
byte-table operator against dense products about 1 s.  The witness tests
take 5.5 s of it: `beta --witness` on theta(2048) reads an edge list of
2,092,037 lines (about 5 s), and `matching_number` on theta(2048) takes
20 ms of the rest.  The random-graph witnesses, checked against the HiGHS
LP solver, take about 0.4 s at n <= 2048.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_array

from specmatch import (
    Graph,
    Graph6Error,
    GraphError,
    HalfIntegral,
    certify_all,
    complete,
    empty,
    fpm_partition,
    fractional_matching_number,
    fractional_transversal,
    from_graph6,
    join,
    matching_number,
    optimal_fractional_matching,
    spectral_radius,
    theta_n,
    union,
)
from specmatch import spectral
from specmatch.graphs import byte_rows
from specmatch.matching import _name_witness_faults, _odd_cycles
from specmatch.cli import main
from conftest import src_env


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return join(complete(1), empty(n - 1))


def theta_graph(n):
    """K_1 v (K_{n-3} u 2K_1): hub 0, clique 1..n-3, pendants n-2 and n-1."""
    return join(complete(1), union(complete(n - 3), empty(2)))


def complete_bipartite(n):
    return join(empty(n // 3), empty(n - n // 3))


def barbell(n):
    """K_{n/2-1} and K_{n/2+1} joined by one edge.  Unequal cliques keep the
    spectral gap at 2; with equal ones it is 4/n, and two solvers' vectors
    may then differ by their residuals over that gap."""
    m = n // 2 - 1
    rows = list(union(complete(m), complete(n - m)).rows)
    rows[m - 1] |= 1 << m
    rows[m] |= 1 << (m - 1)
    return Graph._from_rows_unchecked(n, tuple(rows))


def random_edges(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def top_eigenvalue(n, edges):
    a = np.zeros((n, n))
    u, v = np.array(edges).T
    a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def shapes(n):
    edges = random_edges(n, 6 / n, seed=n)
    return {
        "path": (path(n), 2 * math.cos(math.pi / (n + 1))),
        "complete": (complete(n), n - 1.0),
        "star": (star(n), math.sqrt(n - 1)),
        "random": (Graph(n, edges), top_eigenvalue(n, edges)),
        "theta": (theta_graph(n), theta_n(n)),
        "bipartite": (complete_bipartite(n), math.sqrt(n // 3 * (n - n // 3))),
    }


class TestSpectralRadius:
    @pytest.mark.parametrize("n", [600, 2048])
    def test_shapes_match_closed_forms(self, n):
        for name, (g, expected) in shapes(n).items():
            res = spectral_radius(g)
            assert res.value == pytest.approx(expected, abs=1e-9), name
            assert res.residual <= 1e-10, name

    def test_polishing_step_clears_eigh_residual(self, monkeypatch):
        # eigh's own top eigenvector leaves a residual of 3e-11 to 1.3e-10 on
        # K_2000 and K_2048, around the default tolerance; one A + I step
        # takes it to rounding level.  K_2048 goes to eigh only with the
        # Lanczos budget raised to its size; Lanczos ends it in one step.
        monkeypatch.setattr(spectral, "LANCZOS_STEPS", 2048)
        assert spectral_radius(complete(2048)).residual <= 1e-11

    @pytest.mark.parametrize("n", [600, 2048])
    def test_lanczos_agrees_with_dense_solver(self, monkeypatch, n):
        h = n // 2
        cases = {
            "complete": complete(n),
            "theta": theta_graph(n),
            "star": star(n),
            "bipartite": complete_bipartite(n),
            "barbell": barbell(n),
            "random": Graph(n, random_edges(n, 6 / n, seed=n)),
            "theta u random": union(theta_graph(h), Graph(h, random_edges(h, 6 / h, seed=h))),
            "barbell u star": union(barbell(h), star(h)),
        }
        results = {name: spectral_radius(g) for name, g in cases.items()}
        # every component at or below the budget goes to eigh
        monkeypatch.setattr(spectral, "LANCZOS_STEPS", n)
        for name, g in cases.items():
            res, dense = results[name], spectral_radius(g)
            assert res.value == pytest.approx(dense.value, abs=1e-9), name
            assert np.max(np.abs(np.subtract(res.vector, dense.vector))) <= 1e-9, name
            assert res.residual <= 1e-10 and res.iterations == dense.iterations == 1, name
            assert res.component_index == dense.component_index, name

    @pytest.mark.parametrize("shape, dense_calls", [("path", 1), ("complete", 0), ("theta", 0), ("random", 0)])
    def test_dense_fallback_runs_on_paths_only(self, monkeypatch, shape, dense_calls):
        # a path's spectral gap needs about n/2 Lanczos steps, above the budget;
        # the other shapes end within it (the tridiagonal's own eigh is smaller)
        random = lambda n: Graph(n, random_edges(n, 6 / n, seed=n))  # noqa: E731
        g = {"path": path, "complete": complete, "theta": theta_graph, "random": random}[shape](2048)
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape[0]) or real(m))
        spectral_radius(g)
        assert calls.count(g.n) == dense_calls
        assert all(k <= spectral.LANCZOS_STEPS for k in calls if k != g.n)

    @pytest.mark.parametrize("k", [129, 130, 135, 600, 2047, 2048])
    def test_byte_table_operator_matches_dense(self, k):
        # sizes around a byte boundary and near the cap, sparse to complete
        rng = np.random.default_rng(k)
        x = rng.standard_normal(k)
        for p in (3 / k, 0.5, 1.0):
            upper = np.triu(rng.random((k, k)) < p, 1)
            a = (upper | upper.T).astype(np.uint8)
            matvec = spectral._byte_table_matvec(np.packbits(a, axis=1, bitorder="little"), np.arange(k))
            assert np.max(np.abs(matvec(x) - a @ x)) <= 1e-12 * k, p

    def test_byte_table_operator_on_a_proper_component(self):
        # the even vertices form one component: its rows are packed over all
        # 1200 columns, and its columns sit at the even bits
        n = 1200
        evens = [(2 * u, 2 * v) for u, v in random_edges(n // 2, 0.02, seed=1)]
        g = Graph(n, evens + [(2 * i + 1, 2 * i + 3) for i in range(n // 2 - 1)])
        verts = list(range(0, n, 2))
        packed = byte_rows([g.rows[v] for v in verts], n)
        a = np.unpackbits(packed, axis=1, count=n, bitorder="little")[:, verts]
        matvec = spectral._byte_table_matvec(packed, np.asarray(verts))
        x = np.random.default_rng(0).standard_normal(len(verts))
        assert np.max(np.abs(matvec(x) - a @ x)) <= 1e-12 * len(verts)

    def test_no_dense_float_matrix_on_lanczos(self):
        # the float adjacency of 2048 vertices alone is 33.6 MB; Lanczos on
        # the byte-table operator peaks below half of it
        for g in (complete(2048), Graph(2048, random_edges(2048, 6 / 2048, seed=2048))):
            tracemalloc.start()
            try:
                spectral_radius(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16e6, peak

    def test_disconnected_union(self):
        g = union(path(600), star(600))
        res = spectral_radius(g)
        assert res.value == pytest.approx(math.sqrt(599), abs=1e-9)
        assert res.residual <= 1e-10
        assert res.component_index == 1
        assert not any(res.vector[:600]) and max(res.vector[600:]) == 1.0


class TestGraph6:
    @pytest.mark.parametrize("n", [63, 64, 258, 600, 2048])
    def test_round_trip_against_networkx(self, n):
        edges = random_edges(n, min(0.5, 40 / n), seed=n)
        g_nx = nx.Graph()
        g_nx.add_nodes_from(range(n))
        g_nx.add_edges_from(edges)
        code = nx.to_graph6_bytes(g_nx).decode()
        assert code.startswith(">>graph6<<")
        expected = Graph(n, edges)
        assert from_graph6(code) == expected
        assert from_graph6(code[len(">>graph6<<") :]) == expected

    @pytest.fixture(scope="class")
    def code600(self):
        g_nx = nx.Graph()
        g_nx.add_nodes_from(range(600))
        g_nx.add_edges_from(random_edges(600, 0.05, seed=1))
        return nx.to_graph6_bytes(g_nx, header=False).decode().strip()

    @pytest.mark.parametrize("char", [chr(20), chr(127), "é", "€"])
    def test_bad_character_offset(self, code600, char):
        k = 4 + 1000  # '~' plus three size bytes, then the body
        with pytest.raises(Graph6Error) as err:
            from_graph6(code600[:k] + char + code600[k + 1 :])
        assert err.value.offset == k

    def test_first_bad_character_reported(self, code600):
        s = code600[:10] + "é" + code600[11:20] + chr(20) + code600[21:]
        with pytest.raises(Graph6Error) as err:
            from_graph6(s)
        assert err.value.offset == 10

    def test_truncated_offset(self, code600):
        with pytest.raises(Graph6Error) as err:
            from_graph6(code600[:-1])
        assert err.value.offset == len(code600) - 1

    def test_nonzero_padding_offset(self):
        # the empty graph on 2048 vertices: '~', 18 size bits, then
        # 2048 * 2047 / 2 zero bits that leave two padding bits in the last byte
        n = 2048
        nbytes = (n * (n - 1) // 2 + 5) // 6
        code = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)) + "?" * nbytes
        assert from_graph6(code) == empty(n)
        bad = code[:-1] + chr(ord(code[-1]) + 1)
        with pytest.raises(Graph6Error) as err:
            from_graph6(bad)
        assert "padding" in str(err.value) and err.value.offset == len(code) - 1


class TestThresholds:
    @pytest.mark.parametrize("n", [515, 600, 1000, 2048])
    def test_theta_n_matches_numpy_roots(self, n):
        roots = np.roots([1, -(n - 4), -(n - 1), 2 * (n - 4)])
        expected = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert theta_n(n) == pytest.approx(expected, rel=1e-12)

    def test_threshold_cli_at_600(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "threshold", "--theorem", "t35", "--n", "600"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(theta_n(600), rel=1e-11)

    def test_certify_all_connected_600(self):
        report = certify_all(path(600))
        assert report.rho == pytest.approx(2 * math.cos(math.pi / 601), abs=1e-9)
        fpm = next(rec for rec in report.certificates if rec.name == "fpm-spectral")
        assert fpm.applicable and not fpm.fired


def assert_matching_of(g, edges):
    covered = [v for e in edges for v in e]
    assert len(covered) == len(set(covered))
    assert all(g.has_edge(u, v) for u, v in edges)


class TestWitnesses:
    @pytest.mark.parametrize("n", [600, 2048])
    @pytest.mark.parametrize("shape", [complete, path])
    def test_perfect_shapes(self, n, shape):
        # n even: beta* = n/2, the transversal is 1/2 everywhere and the
        # canonical matching is the perfect matching {2i, 2i+1}
        g = shape(n)
        pairs = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
        assert fractional_matching_number(g) == HalfIntegral(n)
        t = fractional_transversal(g)
        assert t.doubled_weights == (1,) * n and t.total == HalfIntegral(n)
        fm = optimal_fractional_matching(g)
        assert fm.doubled_weights == tuple((e, 2) for e in pairs)
        assert _odd_cycles(fm._rows(fm.n)[1]) == []
        part = fpm_partition(g, fm)
        assert [(p.kind, p.vertices) for p in part.parts] == [("K2", e) for e in pairs]
        m = matching_number(g)
        assert m.size == n // 2 and m.edges == pairs

    @pytest.mark.parametrize("n", [600, 2048])
    def test_theta_graph(self, n):
        # 2beta* = n - 1: W = {hub}, R = the pendants, C = the odd clique; the
        # hub takes one pendant, the clique a triangle and K2s
        g = theta_graph(n)
        assert fractional_matching_number(g) == HalfIntegral(n - 1)
        t = fractional_transversal(g)
        assert t.doubled_weights == (2,) + (1,) * (n - 3) + (0, 0)
        t.validate(g)
        w, r, c = t._class_masks()
        assert (w.bit_count(), r.bit_count(), c.bit_count()) == (1, 2, n - 3)
        fm = optimal_fractional_matching(g)
        assert fm.total == HalfIntegral(n - 1)
        # the structure audit names no fault of the pair: the W/R/C rules hold
        assert _name_witness_faults(n, True, n - 1, g.rows, *fm._rows(n), fm.total.doubled, w, r, c) == []
        assert _odd_cycles(fm._rows(fm.n)[1]) == [(1, 2, 3)]
        full = [((0, n - 2), 2)] + [((v, v + 1), 2) for v in range(4, n - 2, 2)]
        assert sorted(fm.doubled_weights) == sorted(full + [((1, 2), 1), ((1, 3), 1), ((2, 3), 1)])
        with pytest.raises(GraphError, match="not perfect"):
            fpm_partition(g, fm)
        # beta: the hub with a pendant and (n - 3) // 2 edges in the clique;
        # the blossom search contracts nearly the whole clique
        m = matching_number(g)
        assert m.size == 1 + (n - 3) // 2
        assert_matching_of(g, m.edges)

    def test_beta_witness_cli_on_theta_2048(self, tmp_path, capsys):
        # in-process: the graph6 text of a 2048-vertex graph is longer than
        # one argv string may be, so the graph goes in as an edge-list file
        n = 2048
        edges = [f"0 {v}\n" for v in range(1, n)]
        edges += [f"{u} {v}\n" for v in range(2, n - 2) for u in range(1, v)]
        path_ = tmp_path / "theta2048.txt"
        path_.write_text(f"{n} {len(edges)}\n" + "".join(edges))
        assert main(["beta", "--edges", str(path_), "--witness"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1023"
        witness = [tuple(map(int, line.split()[1:3])) for line in lines[1:]]
        assert lines[1:] == [f"edge {u} {v} 1" for u, v in witness]
        g = theta_graph(n)
        assert tuple(witness) == matching_number(g).edges
        assert_matching_of(g, witness)


def lp_fractional_matching_number(n, edges):
    """max sum x_e subject to sum_{e at v} x_e <= 1 and x >= 0, by HiGHS."""
    m = len(edges)
    ends = np.array(edges).T.ravel()
    a = coo_array((np.ones(2 * m), (ends, np.tile(np.arange(m), 2))), shape=(n, m))
    res = linprog(-np.ones(m), A_ub=a.tocsr(), b_ub=np.ones(n), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


class TestRandomWitnesses:
    """Both witnesses on sparse random graphs (average degree 4, so some
    components need the half-weight odd cycles) against an LP solver, and
    their W/R/C classes under a relabelling."""

    @pytest.mark.parametrize("n", [129, 257, 700, 2048])
    def test_witnesses_are_optimal(self, n):
        edges = random_edges(n, 4 / n, seed=n)
        g = Graph(n, edges)
        bsd = fractional_matching_number(g).doubled
        fm = optimal_fractional_matching(g)
        t = fractional_transversal(g)
        assert fm.total.doubled == t.total.doubled == bsd
        assert bsd == pytest.approx(2 * lp_fractional_matching_number(n, edges), abs=1e-6)
        cycles = _odd_cycles(fm._rows(fm.n)[1])
        assert cycles and all(len(c) % 2 for c in cycles)
        assert all(g.has_edge(u, v) for c in cycles for u, v in zip(c, c[1:] + c[:1]))

        perm = np.random.default_rng(n + 1).permutation(n).tolist()
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        th = fractional_transversal(h)
        assert fractional_matching_number(h).doubled == th.total.doubled == bsd
        for cls in ("W", "R", "C"):
            assert getattr(th, cls) == {perm[v] for v in getattr(t, cls)}, cls
