from __future__ import annotations

import cProfile
import itertools
import pstats
import random
import subprocess
import sys
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from specmatch import (
    FractionalMatching,
    Graph,
    GraphError,
    HalfIntegral,
    Transversal,
    complete,
    empty,
    fpm_partition,
    fractional_matching_number,
    fractional_transversal,
    is_connected,
    join,
    matching_number,
    optimal_fractional_matching,
    to_graph6,
    union,
)
from specmatch import matching
from specmatch.graphs import pairs_colex
from specmatch.verify import _graph_from_mask, oracle_beta, oracle_beta_star
from conftest import graphs, random_graph, src_env


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return join(complete(1), empty(k))


def hub_family_8():
    return join(complete(1), union(complete(5), empty(2)))


class TestHalfIntegral:
    def test_parse_forms(self):
        assert HalfIntegral.parse("7/2").doubled == 7
        assert HalfIntegral.parse("3.5").doubled == 7
        assert HalfIntegral.parse("3.0").doubled == 6
        assert HalfIntegral.parse("3").doubled == 6

    def test_parse_rejects_other_decimals(self):
        for bad in ("3.25", "1/3", "0.51", "x", "3.50"):
            with pytest.raises(ValueError):
                HalfIntegral.parse(bad)

    def test_str(self):
        assert str(HalfIntegral(7)) == "7/2"
        assert str(HalfIntegral(6)) == "3"

    def test_order(self):
        assert HalfIntegral(5) < HalfIntegral(6)

    @pytest.mark.parametrize("doubled", [6.5, 7.0, True, "7", None])
    def test_rejects_a_numerator_that_is_not_an_int(self, doubled):
        with pytest.raises(TypeError, match="int numerator"):
            HalfIntegral(doubled)


class TestMatchingNumber:
    def test_examples(self):
        assert matching_number(cycle(5)).size == 2
        assert matching_number(union(complete(4), empty(2))).size == 2
        assert matching_number(join(empty(3), empty(3))).size == 3
        assert matching_number(path(4)).size == 2

    def test_witness_is_matching(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 10), rng.random())
            res = matching_number(g)
            used = set()
            for u, v in res.edges:
                assert g.has_edge(u, v)
                assert u not in used and v not in used
                used |= {u, v}

    def test_exhaustive_n5(self):
        pairs = [(i, j) for j in range(1, 5) for i in range(j)]
        for mask in range(1 << 10):
            g = Graph(5, [e for k, e in enumerate(pairs) if mask >> k & 1])
            assert matching_number(g).size == oracle_beta(g)

    def test_against_networkx(self, rng):
        for _ in range(300):
            n = rng.randrange(0, 11)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            g_nx = nx.Graph()
            g_nx.add_nodes_from(range(n))
            g_nx.add_edges_from(g.edges())
            expect = len(nx.max_weight_matching(g_nx, maxcardinality=True))
            assert matching_number(g).size == expect

    def test_a_size_its_edges_do_not_reach_is_refused(self, monkeypatch):
        # a blossom that claims size 2 on P_3 but pairs only 0 and 1
        monkeypatch.setattr(matching, "_blossom_max_matching", lambda rows, n: (2, [1, 0, -1]))
        with pytest.raises(GraphError, match="blossom matching lists 1 edges for size 2"):
            matching_number(path(3))


class TestDoubleCover:
    # 2*beta_star is the matching number of the bipartite double cover
    # G x K_2, which networkx builds as a tensor product

    @staticmethod
    def _cover_matching_size(g):
        g_nx = nx.Graph()
        g_nx.add_nodes_from(range(g.n))
        g_nx.add_edges_from(g.edges())
        return len(nx.max_weight_matching(nx.tensor_product(g_nx, nx.complete_graph(2)), maxcardinality=True))

    def test_c5_gives_c10(self):
        assert self._cover_matching_size(cycle(5)) == fractional_matching_number(cycle(5)).doubled == 5

    def test_k2_gives_2k2(self):
        assert self._cover_matching_size(complete(2)) == fractional_matching_number(complete(2)).doubled == 2

    def test_k3_gives_c6(self):
        assert self._cover_matching_size(complete(3)) == fractional_matching_number(complete(3)).doubled == 3

    def test_bipartite_by_construction(self, rng):
        g = random_graph(rng, 7, 0.5)
        assert self._cover_matching_size(g) == fractional_matching_number(g).doubled


class TestFractionalMatchingNumber:
    def test_examples(self):
        assert fractional_matching_number(cycle(5)) == oracle_beta_star(cycle(5)) == HalfIntegral(5)
        assert fractional_matching_number(star(3)) == HalfIntegral(2)
        assert fractional_matching_number(path(4)) == HalfIntegral(4)

    def test_hub_family(self):
        g = hub_family_8()
        assert fractional_matching_number(g) == oracle_beta_star(g) == HalfIntegral(7)

    def test_beta_le_beta_star_le_half_n(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 10), rng.random())
            beta = matching_number(g).size
            bsd = fractional_matching_number(g).doubled
            assert 2 * beta <= bsd <= g.n

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_oracle_equivalence(self, g):
        assert fractional_matching_number(g) == oracle_beta_star(g)


class TestOptimalFractionalMatching:
    def test_c5_all_halves(self):
        fm = optimal_fractional_matching(cycle(5))
        assert fm.total == HalfIntegral(5)
        assert sorted(fm.doubled_weights) == [((0, 1), 1), ((0, 4), 1), ((1, 2), 1), ((2, 3), 1), ((3, 4), 1)]

    def test_p4_end_edges(self):
        fm = optimal_fractional_matching(path(4))
        assert dict(fm.doubled_weights) == {(0, 1): 2, (2, 3): 2}

    def test_c4_integral_after_normalisation(self):
        fm = optimal_fractional_matching(cycle(4))
        assert fm.total == HalfIntegral(4)
        weights = dict(fm.doubled_weights)
        assert set(weights.values()) == {2} and len(weights) == 2
        (u1, v1), (u2, v2) = sorted(weights)
        assert {u1, v1} | {u2, v2} == {0, 1, 2, 3}

    def test_canonical_support_always(self, rng):
        for _ in range(400):
            g = random_graph(rng, rng.randrange(0, 10), rng.random())
            fm = optimal_fractional_matching(g)
            fm.validate(g)
            assert fm.total == fractional_matching_number(g)
            adj = {}
            for (u, v), w in fm.doubled_weights:
                if w == 1:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            # half-weight support must be disjoint odd cycles
            assert all(len(nbrs) == 2 for nbrs in adj.values())
            seen = set()
            for v0 in sorted(adj):
                if v0 in seen:
                    continue
                comp = [v0]
                prev, cur = None, v0
                while True:
                    nxt = [x for x in adj[cur] if x != prev][0]
                    if nxt == v0:
                        break
                    comp.append(nxt)
                    prev, cur = cur, nxt
                assert len(comp) % 2 == 1 and len(comp) >= 3
                seen |= set(comp)

    def test_witness_text(self):
        fm = optimal_fractional_matching(path(4))
        assert fm.to_text() == "edge 0 1 1\nedge 2 3 1\n"

    def test_a_non_maximum_double_cover_matching_is_refused(self, monkeypatch):
        # on K_2, only left copy 0 matched to right copy 1: the edge carries
        # weight 1/2 on a half-path of one edge, which an augmenting path would fill
        monkeypatch.setattr(matching, "_dc_matching", lambda rows, n: ([1, -1], 0, 0, 0b11))
        with pytest.raises(GraphError, match="half-weight support had an augmentable odd path"):
            optimal_fractional_matching(path(2))


class TestTransversal:
    def test_star_center(self):
        t = fractional_transversal(star(3))
        assert t.total == HalfIntegral(2)
        assert t.W == {0} and t.R == {1, 2, 3} and t.C == frozenset()

    def test_c5_all_halves(self):
        t = fractional_transversal(cycle(5))
        assert t.doubled_weights == (1, 1, 1, 1, 1)
        assert t.total == HalfIntegral(5)

    def test_hub_family_parts(self):
        t = fractional_transversal(hub_family_8())
        assert t.total == HalfIntegral(7)
        assert len(t.W) == 1 and len(t.R) == 2 and len(t.C) == 5

    def test_duality_everywhere(self, rng):
        for _ in range(400):
            g = random_graph(rng, rng.randrange(0, 13), rng.random())
            t = fractional_transversal(g)
            t.validate(g)
            assert t.total == fractional_matching_number(g)

    def test_weak_duality_cross(self, rng):
        # any feasible matching total <= any feasible transversal total
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            fm = optimal_fractional_matching(g)
            t = fractional_transversal(g)
            assert fm.total.doubled <= t.total.doubled

    def test_witness_text(self):
        t = fractional_transversal(star(2))
        assert t.to_text() == "vertex 0 1\nvertex 1 0\nvertex 2 0\n"


def named_faults(g, w, r, c):
    """The faults the structure audit names for the W/R/C masks w, r, c
    beside g's canonical fractional matching, against 2*beta_star of g."""
    fm = optimal_fractional_matching(g)
    bsd = fractional_matching_number(g).doubled
    return matching._name_witness_faults(g.n, is_connected(g), bsd, g.rows, *fm._rows(g.n), fm.total.doubled, w, r, c)


def wrc(g, t):
    """The W/R/C check of transversal t on g, as the structure audit makes
    it: coverage first (``Transversal.validate`` raises GraphError unless R
    is independent and has no edge into C), then the class sizes (|W|, |R|,
    |C|) and the faults named for its masks."""
    t.validate(g)
    w, r, c = t._class_masks()
    return (w.bit_count(), r.bit_count(), c.bit_count()), named_faults(g, w, r, c)


_EMPTY_CLASS = "connected graph has exactly one of W, R empty"
_EQ1 = "optimal transversal violates total = (n - (|R|-|W|))/2"
_R_BELOW_W = "optimal transversal has |R| < |W|"


class TestWrc:
    def test_hub_family(self):
        g = hub_family_8()
        sizes, faults = wrc(g, fractional_transversal(g))
        assert sizes[:2] == (1, 2)
        assert faults == []

    def test_c5_vacuous(self):
        sizes, faults = wrc(cycle(5), fractional_transversal(cycle(5)))
        assert sizes[:2] == (0, 0)
        assert faults == []

    def test_infeasible_rejected(self):
        t = Transversal(2, (0, 0), HalfIntegral(0))
        with pytest.raises(GraphError):
            wrc(complete(2), t)

    def test_single_vertex_exempt(self):
        sizes, faults = wrc(empty(1), fractional_transversal(empty(1)))
        assert sizes[:2] == (0, 1) and faults == []

    def test_suboptimal_transversal_reported(self):
        # total 2 > beta* = 1: both rules of an optimal transversal fail
        g = complete(2)
        t = Transversal(2, (2, 2), HalfIntegral(4))
        _, faults = wrc(g, t)
        assert faults == ["primal 1 / dual 2 / matching 1 differ", _EMPTY_CLASS, _EQ1, _R_BELOW_W]

    @pytest.mark.parametrize(
        "g, masks, faults",
        [
            # R = {0} next to C: optimal and total = n - (|R|-|W|), but W is empty
            (path(3), (0, 0b001, 0b110), ["transversal is infeasible: edge (0,1) not covered: weights sum below 1", _EMPTY_CLASS]),
            # vertex 2 in no class: total 1 = beta*, but n - (|R|-|W|) = 3
            (path(3), (0b010, 0b001, 0), [_EQ1]),
            # W = {1, 2}, R = {0}, vertex 3 in no class: total 2 = beta*
            (path(4), (0b0110, 0b0001, 0), [_EQ1, _R_BELOW_W]),
        ],
        ids=["one-class-empty", "total", "r-below-w"],
    )
    def test_each_rule_named(self, g, masks, faults):
        assert named_faults(g, *masks) == faults


class TestFpm:
    def test_has_fpm(self):
        assert fractional_matching_number(cycle(5)).doubled == 5
        assert fractional_matching_number(star(3)).doubled < 4

    def test_two_triangles_pendant(self):
        g = join(complete(1), union(union(complete(3), complete(3)), complete(1)))
        assert fractional_matching_number(g).doubled == g.n

    def test_c5_partition(self):
        g = cycle(5)
        part = fpm_partition(g, optimal_fractional_matching(g))
        assert len(part.parts) == 1
        assert part.parts[0].kind == "ODD_CYCLE" and len(part.parts[0].vertices) == 5

    def test_p4_partition(self):
        part = fpm_partition(path(4), optimal_fractional_matching(path(4)))
        assert [p.kind for p in part.parts] == ["K2", "K2"]

    def test_two_triangles_pendant_partition(self):
        g = join(complete(1), union(union(complete(3), complete(3)), complete(1)))
        part = fpm_partition(g, optimal_fractional_matching(g))
        kinds = sorted(p.kind for p in part.parts)
        assert kinds == ["K2", "ODD_CYCLE", "ODD_CYCLE"]
        cycles = [p for p in part.parts if p.kind == "ODD_CYCLE"]
        assert all(len(p.vertices) == 3 for p in cycles)

    def test_not_perfect_rejected(self):
        g = star(3)
        with pytest.raises(GraphError):
            fpm_partition(g, optimal_fractional_matching(g))

    def test_non_canonical_rejected(self):
        g = cycle(4)
        bad = FractionalMatching(4, (((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1)), HalfIntegral(4))
        bad.validate(g)  # feasible but not canonical
        with pytest.raises(GraphError):
            fpm_partition(g, bad)

    def test_half_cycles_ends_on_a_branching_support(self):
        # vertex 1 carries three half-edges; a walk that skipped the per-step
        # degree check would circle 1-2-3 forever, so run it under a timeout
        code = (
            "from specmatch import FractionalMatching, GraphError, HalfIntegral\n"
            "from specmatch.matching import _odd_cycles\n"
            "edges = [(0, 6), (0, 7), (1, 6), (1, 2), (2, 3), (1, 3)]\n"
            "fm = FractionalMatching(8, tuple((e, 1) for e in edges), HalfIntegral(6))\n"
            "try:\n"
            "    _odd_cycles(fm._rows(fm.n)[1])\n"
            "except GraphError:\n"
            "    print('GraphError')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=30)
        assert proc.stdout == "GraphError\n", proc.stderr

    # half rows that are not symmetric: the walk from 0 goes 0, 1, 2, 3 and
    # then round 1, 2, 3, a loop that misses its start
    LOOP = [0b10010, 0b01100, 0b01010, 0b00110, 0]

    def test_half_walk_ends_on_rows_that_are_not_symmetric(self):
        code = (
            "from specmatch import GraphError\n"
            "from specmatch.matching import _odd_cycles\n"
            "try:\n"
            f"    _odd_cycles({self.LOOP})\n"
            "except GraphError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=30)
        assert proc.stdout == "non-canonical matching: half-weight support is not a union of cycles\n", proc.stderr

    def test_audit_reports_a_looping_half_walk(self):
        # a pull-back and a builder that give one graph at n = 5 those rows
        # (its own pull-back is an odd triangle, so the builder alone would
        # never be called): the audit ends, and reports the graph with the
        # walk's violation
        target = Graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)])
        mask = sum(1 << pairs_colex(5).index(e) for e in target.edges())  # its row in the one window at n = 5
        witness = ([0] * 5, self.LOOP, 4)
        code = (
            "from specmatch import audit_structures, verify\n"
            "pull_back, build = verify._pull_back_columns, verify._fractional_matching_from\n"
            "def pulled(match_l):\n"
            "    columns = pull_back(match_l)\n"
            f"    for column, value in zip(columns, {witness}):\n"
            f"        column[{mask}] = value\n"
            "    return columns\n"
            "verify._pull_back_columns = pulled\n"
            f"verify._fractional_matching_from = lambda rows, m: {witness} if rows == {target.rows} else build(rows, m)\n"
            "print(*audit_structures(5).violations, sep='\\n')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60)
        g6 = to_graph6(target)
        assert proc.stdout.splitlines() == [
            f"{g6}: primal 2 / dual 5/2 / matching 5/2 differ",
            f"{g6}: half-weight support is not a disjoint union of odd cycles",
            f"{g6}: fractional perfect matching partition failed: matching is not perfect: total 2 < n/2 = 5/2",
        ], proc.stderr

    def test_partition_text(self):
        part = fpm_partition(path(4), optimal_fractional_matching(path(4)))
        assert part.to_text() == "part K2 0 1\npart K2 2 3\n"

    def test_equivalence_small(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            fpm = fractional_matching_number(g).doubled == g.n
            if fpm:
                part = fpm_partition(g, optimal_fractional_matching(g))
                covered = sorted(v for p in part.parts for v in p.vertices)
                assert covered == list(range(g.n))
            else:
                with pytest.raises(GraphError):
                    fpm_partition(g, optimal_fractional_matching(g))


class TestOracles:
    def test_oracle_beta_examples(self):
        assert oracle_beta(cycle(5)) == 2
        assert oracle_beta(complete(6)) == 3
        assert oracle_beta(path(5)) == 2

    def test_oracle_beta_star_examples(self):
        assert oracle_beta_star(complete(4)) == HalfIntegral(4)
        assert oracle_beta_star(star(3)) == HalfIntegral(2)

    def test_oracle_caps(self):
        # one vertex cap, whatever the edge count: dense graphs up to n = 10 answer
        for n in (8, 10):
            assert oracle_beta(complete(n)) == n // 2
            assert oracle_beta_star(complete(n)) == HalfIntegral(n)
        with pytest.raises(GraphError, match="n <= 10, got 11"):
            oracle_beta_star(empty(11))
        with pytest.raises(GraphError, match="n <= 10, got 11"):
            oracle_beta(empty(11))

    def test_oracles_against_networkx(self):
        # beta is a maximum matching; 2*beta_star is a maximum matching of the bipartite double cover
        def nx_references(g):
            gx = nx.Graph(list(g.edges()))
            gx.add_nodes_from(range(g.n))
            cover = nx.Graph([((u, 0), (v, 1)) for u, v in g.edges()] + [((v, 0), (u, 1)) for u, v in g.edges()])
            cover.add_nodes_from((v, side) for v in range(g.n) for side in (0, 1))
            dc = nx.bipartite.maximum_matching(cover, top_nodes=[(v, 0) for v in range(g.n)])
            return len(nx.max_weight_matching(gx, maxcardinality=True)), len(dc) // 2

        rng = random.Random(8)
        dense = [random_graph(rng, n, p) for n in range(7, 11) for p in (0.3, 0.6, 0.8, 0.95) for _ in range(3)]
        small = [_graph_from_mask(n, mask, pairs_colex(n)) for n in range(6) for mask in range(1 << n * (n - 1) // 2)]
        assert any(g.edge_count() > 24 for g in dense)
        for g in small + dense:
            beta, bsd = nx_references(g)
            assert (oracle_beta(g), oracle_beta_star(g).doubled) == (beta, bsd), _name(g)


def _fm(n, weights, total):
    return FractionalMatching(n, tuple(weights), HalfIntegral(total))


def _half_cycles(fm):
    return matching._odd_cycles(fm._rows(fm.n)[1])


# every message the witness checks raise, one malformed witness each
_MALFORMED = [
    ("fm-range", lambda: _fm(3, [((0, 3), 2)], 2).validate(path(3)), "weighted pair (0,3) out of range"),
    ("fm-duplicate", lambda: _fm(3, [((0, 1), 1), ((0, 1), 1)], 2).validate(path(3)), "duplicate weighted edge (0,1)"),
    ("fm-non-edge", lambda: _fm(3, [((0, 2), 2)], 2).validate(path(3)), "weight on non-edge (0,2)"),
    ("fm-weight", lambda: _fm(3, [((0, 1), 3)], 3).validate(path(3)), "doubled weight must be 1 or 2, got 3"),
    ("fm-overloaded", lambda: _fm(3, [((0, 1), 2), ((1, 2), 2)], 4).validate(path(3)), "vertex 1 is overloaded: incident weight 4/2"),
    ("fm-total", lambda: _fm(3, [((0, 1), 2)], 1).validate(path(3)), "stored total does not match the weights"),
    ("t-length", lambda: Transversal(2, (1, 1), HalfIntegral(2)).validate(path(3)), "transversal length does not match the graph"),
    ("t-weight", lambda: Transversal(3, (1, 3, 1), HalfIntegral(5)).validate(path(3)), "vertex 1 has doubled weight 3, expected 0, 1 or 2"),
    ("t-uncovered-rr", lambda: Transversal(3, (0, 0, 2), HalfIntegral(2)).validate(path(3)), "edge (0,1) not covered: weights sum below 1"),
    ("t-uncovered-cr", lambda: Transversal(3, (2, 1, 0), HalfIntegral(3)).validate(path(3)), "edge (1,2) not covered: weights sum below 1"),
    # the lowest R vertex has no uncovered edge, a later one has
    (
        "t-uncovered-later-r",
        lambda: Transversal(4, (0, 2, 0, 0), HalfIntegral(2)).validate(Graph(4, [(1, 2), (2, 3)])),
        "edge (2,3) not covered: weights sum below 1",
    ),
    (
        "t-uncovered-later-r-n130",
        lambda: Transversal(130, (0, 2) + (0,) * 128, HalfIntegral(2)).validate(Graph(130, [(0, 1), (1, 2), (100, 129)])),
        "edge (100,129) not covered: weights sum below 1",
    ),
    ("t-total", lambda: Transversal(3, (2, 2, 2), HalfIntegral(5)).validate(path(3)), "stored total does not match the weights"),
    ("fpm-not-perfect", lambda: fpm_partition(star(3), optimal_fractional_matching(star(3))), "matching is not perfect: total 1 < n/2 = 4/2"),
    (
        "fpm-not-saturating",
        lambda: matching._check_perfect(5, 5, [0] * 5, 0),  # total n/2, but no vertex in an edge or a half-cycle
        "matching does not saturate every vertex",
    ),
    (
        "cycles-path",
        lambda: _half_cycles(_fm(3, [((0, 1), 1), ((1, 2), 1)], 2)),
        "non-canonical matching: half-weight support is not a union of cycles",
    ),
    (
        "cycles-branching",
        lambda: _half_cycles(_fm(4, [((0, 1), 1), ((0, 2), 1), ((0, 3), 1)], 3)),
        "non-canonical matching: half-weight support is not a union of cycles",
    ),
    (
        "cycles-even",
        lambda: _half_cycles(_fm(4, [(e, 1) for e in cycle(4).edges()], 4)),
        "non-canonical matching: even cycle in the half-weight support",
    ),
]


@pytest.mark.parametrize("check, message", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED])
def test_validation_messages(check, message):
    with pytest.raises(GraphError) as excinfo:
        check()
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# the matching kernels before their searches were pruned, kept verbatim: the
# pruned blossom kernel must reproduce its reference exactly, and the
# Hopcroft-Karp kernel must match the depth-first reference's size and cover


def reference_blossom_max_matching(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    match = [-1] * n
    free = (1 << n) - 1
    for v in range(n):  # greedy seed: v takes its lowest free neighbour
        nb = rows[v] & free
        if free >> v & 1 and nb:
            u = (nb & -nb).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= (1 << u) | (1 << v)

    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        nonlocal p, base
        p = [-1] * n
        base = list(range(n))
        members: dict[int, int] = {}
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            nb = rows[v] & ~members.get(base[v], 1 << v)
            while nb:
                to = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    blossom.discard(cur)
                    absorbed = 0
                    for b in blossom:
                        absorbed |= members.pop(b, 1 << b)
                    members[cur] = members.get(cur, 1 << cur) | absorbed
                    nb &= ~members[cur]  # v's base is now cur
                    while absorbed:
                        i = (absorbed & -absorbed).bit_length() - 1
                        absorbed &= absorbed - 1
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:  # augment
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    size = sum(1 for v in range(n) if match[v] != -1) // 2
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size, match


def reference_dc_matching(rows: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    match_l = [-1] * n
    match_r = [-1] * n
    free_r = (1 << n) - 1
    for u in range(n):  # greedy seed: u takes its lowest free right copy
        nb = rows[u] & free_r
        if nb:
            v = (nb & -nb).bit_length() - 1
            match_r[v] = u
            match_l[u] = v
            free_r ^= 1 << v
    for u0 in range(n):
        if match_l[u0] >= 0:
            continue
        seen = 0
        parent: dict[int, int] = {}
        stack = [(u0, rows[u0])]
        found = -1
        while stack:
            u, nb = stack[-1]
            nb &= ~seen
            if not nb:
                stack.pop()
                continue
            v = (nb & -nb).bit_length() - 1
            stack[-1] = (u, nb & (nb - 1))
            seen |= 1 << v
            parent[v] = u
            w = match_r[v]
            if w < 0:
                found = v
                break
            stack.append((w, rows[w]))
        if found >= 0:
            v = found
            while True:
                u = parent[v]
                nxt = match_l[u]
                match_r[v] = u
                match_l[u] = v
                if nxt < 0:
                    break
                v = nxt
    return match_l, match_r


def reference_dc_cover(rows: tuple[int, ...], match_l: list[int], match_r: list[int]) -> tuple[int, int, int]:
    """The W, R, C masks of the vertex cover of a maximum double-cover
    matching, by alternating reachability from the unmatched left copies:
    W holds the vertices whose right copy alone is reached, R those whose
    left copy alone is, C the rest."""
    seen_l = 0
    for u, v in enumerate(match_l):
        if v < 0:
            seen_l |= 1 << u
    seen_r = 0
    todo = seen_l
    while todo:
        u = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        reached = rows[u] & ~seen_r
        seen_r |= reached
        while reached:
            w = match_r[(reached & -reached).bit_length() - 1]
            reached &= reached - 1
            if w >= 0 and not seen_l >> w & 1:
                seen_l |= 1 << w
                todo |= 1 << w
    return seen_r & ~seen_l, seen_l & ~seen_r, ((1 << len(rows)) - 1) & ~(seen_l ^ seen_r)


def _name(g: Graph):
    """A graph as a failure message names it: graph6, or the edge list above 62 vertices."""
    return to_graph6(g) if g.n <= 62 else list(g.edges())


# each blossom kernel's augmenting-path search, by name in the kernel's source
# file: the reference nests ``find_path``, the pruned kernel calls ``_augment``
_SEARCHES = {reference_blossom_max_matching: "find_path", matching._blossom_max_matching: "_augment"}


def _find_path_calls(kernel, gs) -> int:
    """Calls of ``kernel``'s augmenting-path search (``_SEARCHES``) while it
    runs on each graph of gs, by cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    for g in gs:
        kernel(g.rows, g.n)
    profiler.disable()
    search = (kernel.__code__.co_filename, _SEARCHES[kernel])
    return sum(calls for (file, _, name), (calls, *_) in pstats.Stats(profiler).stats.items() if (file, name) == search)


class TestPrunedKernels:
    """The pruned blossom kernel returns exactly what the reference kernel
    returns, and Hopcroft-Karp returns a matching of the double cover with
    the size and the W/R/C cover of the reference depth-first matching."""

    @staticmethod
    def _assert_same(g):
        name = _name(g)
        assert matching._blossom_max_matching(g.rows, g.n) == reference_blossom_max_matching(g.rows, g.n), name
        reference = reference_dc_matching(g.rows, g.n)
        match_l, *cover = matching._dc_matching(g.rows, g.n)
        match_r = [-1] * g.n
        for u, v in enumerate(match_l):
            if v >= 0:
                assert match_r[v] < 0 and g.rows[u] >> v & 1, name
                match_r[v] = u
        assert match_l.count(-1) == reference[0].count(-1), name
        # the cover of the last search is the reachability of its own matching and of the reference matching
        assert tuple(cover) == reference_dc_cover(g.rows, match_l, match_r) == reference_dc_cover(g.rows, *reference), name

    def test_every_labeled_graph_up_to_n6(self):
        for n in range(7):
            pairs = pairs_colex(n)
            for mask in range(1 << len(pairs)):
                self._assert_same(_graph_from_mask(n, mask, pairs))

    def test_random_graphs(self):
        rng = random.Random(15)
        for _ in range(2000):
            self._assert_same(random_graph(rng, rng.randint(7, 40), rng.random() ** 2))

    def test_n500(self):
        n = 500
        theta = join(complete(1), union(complete(n - 3), empty(2)))
        for g in (path(n), complete(n), theta, random_graph(random.Random(500), n, 6 / n)):
            self._assert_same(g)

    @pytest.mark.parametrize(
        "g, saturating",
        [
            (complete(2048), True),
            (union(complete(2046), empty(2)), True),
            (Graph(2048, [(2 * i, 2 * i + 1) for i in range(1024)]), True),  # 1024 K_2
            (union(complete(1000), empty(48)), True),
            # the seed pairs 0-1, 2-3, ... of an odd clique and leaves the
            # left copy of its last vertex free, so one phase still runs
            (union(complete(2047), empty(1)), False),
        ],
        ids=["K2048", "K2046+2K1", "1024K2", "K1000+48K1", "K2047+K1"],
    )
    def test_saturating_seed_at_large_n(self, g, saturating):
        # when the greedy seed leaves no free left copy with a neighbour, the
        # matcher returns it with the cover of a search that reaches nothing
        seed, free = [], (1 << g.n) - 1
        for row in g.rows:
            nb = row & free
            seed.append((nb & -nb).bit_length() - 1)
            free &= ~(nb & -nb)
        assert all(v >= 0 or not row for v, row in zip(seed, g.rows)) == saturating
        match_l, *cover = matching._dc_matching(g.rows, g.n)
        assert (match_l == seed) == saturating
        match_r = [-1] * g.n
        for u, v in enumerate(match_l):
            if v >= 0:
                match_r[v] = u
        assert tuple(cover) == reference_dc_cover(g.rows, match_l, match_r)

    def test_fewer_searches(self):
        every_n5 = [_graph_from_mask(5, mask, pairs_colex(5)) for mask in range(1 << 10)]
        assert _find_path_calls(reference_blossom_max_matching, every_n5) == 1258
        assert _find_path_calls(matching._blossom_max_matching, every_n5) == 134

    def test_no_search_from_an_isolated_vertex(self):
        # an isolated vertex 0 in front of G changes no other search
        every_n4 = [_graph_from_mask(4, mask, pairs_colex(4)) for mask in range(1 << 6)]
        with_k1 = [union(empty(1), g) for g in every_n4]
        pruned, reference = matching._blossom_max_matching, reference_blossom_max_matching
        assert _find_path_calls(pruned, with_k1) == _find_path_calls(pruned, every_n4)
        assert _find_path_calls(reference, with_k1) == _find_path_calls(reference, every_n4) + len(every_n4)
        assert _find_path_calls(pruned, [empty(5)]) == 0


def _graph_table(n, chunk):
    from specmatch import verify

    return verify._batch_arrays(n, *verify._chunk_ranges(n)[chunk])


def _seed_column_tables():
    """(id, chunk table) of every graph set the column seeds are checked on:
    every labeled graph at n <= 6, chunks 0 and 63 at n = 7 and the sampled
    sweeps' default draws at n = 8..10."""
    from specmatch import verify

    for n in range(7):
        yield f"n={n}", lambda n=n: verify._batch_arrays(n, 0, 1 << n * (n - 1) // 2)
    for chunk in (0, 63):
        yield f"n=7 chunk {chunk}", lambda chunk=chunk: verify._batch_arrays(7, *verify._chunk_ranges(7)[chunk])
    for n in (8, 9, 10):
        draws = lambda n=n: verify._random_masks(n, verify.SAMPLES, verify.SEED, 0.05, 0.95)
        yield f"n={n} draws", lambda n=n, draws=draws: verify._batch_arrays(n, 0, verify.SAMPLES, masks=draws())


_SEED_TABLES = dict(_seed_column_tables())
# the column search is also checked on the chunks of the per-chunk cost table
_SEARCH_TABLES = {
    **_SEED_TABLES,
    "n=7 chunk 37": lambda: _graph_table(7, 37),
    "n=8 chunk 2000": lambda: _graph_table(8, 2000),
}


class TestSeedColumns:
    """Each column form in ``matching`` returns, graph by graph, what its
    scalar form returns, and a search from a column seed returns what the
    scalar matcher does."""

    @pytest.mark.parametrize("case", _SEED_TABLES)
    def test_double_cover(self, case):
        table = _SEED_TABLES[case]()
        n = table.rows.shape[1]
        match_l, match_r, free_l, free_r, isolated = (col.tolist() for col in matching._dc_seed_columns(table.rows))
        full = (1 << n) - 1
        maximum = []
        for i, rows in enumerate(map(tuple, table.rows.tolist())):
            seed = match_l[i], match_r[i], free_l[i], free_r[i], isolated[i]
            assert matching._dc_seed(rows, n) == seed, rows
            found = matching._dc_matching(rows, n)
            assert matching._dc_search(rows, n, *seed) == found, rows
            if not free_l[i]:  # the search returns the seed and the cover of a search that reaches nothing
                assert found == (seed[0], 0, isolated[i], full & ~isolated[i]), rows
            maximum.append(found[0])
        # the pull-back of every maximum matching whose half rows are already
        # a union of odd cycles, half edges or none
        partner, half, total = matching._pull_back_columns(np.array(maximum, dtype=np.intp).reshape(len(maximum), n))
        pulled = list(zip(partner.tolist(), half.tolist(), total.tolist()))
        canonical = np.flatnonzero(matching._odd_cycle_columns(half))
        assert half[canonical].any() == (n >= 3)  # a triangle is the first odd cycle
        for i in canonical.tolist():
            rows = tuple(table.rows[i].tolist())
            assert pulled[i] == matching._fractional_matching_from(rows, maximum[i]), rows

    @pytest.mark.parametrize("case", _SEARCH_TABLES)
    def test_double_cover_search(self, case):
        # the column search from the column seed, graph by graph: the scalar
        # search's match_l and W, R, C masks
        table = _SEARCH_TABLES[case]()
        n = table.rows.shape[1]
        match_l, w, r, c = (col.tolist() for col in matching._dc_search_columns(table.rows, *matching._dc_seed_columns(table.rows)))
        for i, rows in enumerate(map(tuple, table.rows.tolist())):
            assert matching._dc_matching(rows, n) == (match_l[i], w[i], r[i], c[i]), rows

    @pytest.mark.parametrize("case", _SEED_TABLES)
    def test_blossom(self, case, monkeypatch):
        table = _SEED_TABLES[case]()
        n = table.rows.shape[1]
        match, free, searched = (col.tolist() for col in matching._blossom_seed_columns(table.rows))
        augment = matching._augment
        calls = []
        monkeypatch.setattr(matching, "_augment", lambda *args: calls.append(1) or augment(*args))
        for i, rows in enumerate(map(tuple, table.rows.tolist())):
            assert matching._blossom_seed(rows, n) == (match[i], free[i]), rows
            expected = matching._blossom_max_matching(rows, n)
            # the search from the column seed, which searches exactly where the column says
            calls.clear()
            assert matching._blossom_search(rows, n, list(match[i]), free[i]) == expected, rows
            assert bool(calls) == searched[i], rows
            if not searched[i]:
                assert expected == ((n - free[i].bit_count()) // 2, match[i]), rows

    def test_pull_back_of_every_match_list(self):
        # every match_l list on 4 vertices, matchings or not, pulls back as
        # the builder's first loop does wherever it leaves no half edge
        lists = np.array(list(itertools.product(range(-1, 4), repeat=4)), dtype=np.intp)
        partner, half, total = matching._pull_back_columns(lists)
        for i, match_l in enumerate(lists.tolist()):
            if not any(half[i]):
                assert (partner[i].tolist(), half[i].tolist(), int(total[i])) == matching._fractional_matching_from((0,) * 4, match_l)


def _walk_returns(half):
    try:
        matching._odd_cycles(half)
    except GraphError:
        return False
    return True


def _random_half_rows(rng, n):
    """Half rows on n vertices: disjoint cycles of random lengths (1 is a
    loop, 2 a single edge), then at times one bit flipped, which may break
    symmetry, or one chord added."""
    half = [0] * n
    order = rng.sample(range(n), rng.randint(0, n))  # the vertices on cycles
    while order:
        size = rng.randint(1, len(order))
        cycle, order = order[:size], order[size:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            half[a] |= 1 << b
            half[b] |= 1 << a
    kind = rng.randrange(3)
    u, v = rng.randrange(n), rng.randrange(n)
    if kind == 1:
        half[u] ^= 1 << v
    elif kind == 2:
        half[u] |= 1 << v
        half[v] |= 1 << u
    return half


class TestOddCycleColumns:
    """``_odd_cycle_columns`` is True exactly where ``_odd_cycles`` returns."""

    @pytest.mark.parametrize("n", range(5))
    def test_every_half_row_set(self, n):
        # every set of n rows of n bits, asymmetric rows and loops included
        sets = list(itertools.product(range(1 << n), repeat=n))
        columns = matching._odd_cycle_columns(np.array(sets, dtype=np.uint16).reshape(len(sets), n))
        assert columns.tolist() == [_walk_returns(list(h)) for h in sets]

    @pytest.mark.parametrize("n", range(5, 11))
    def test_random_half_row_sets(self, n):
        rng = random.Random(n)
        sets = [_random_half_rows(rng, n) for _ in range(2000)]
        columns = matching._odd_cycle_columns(np.array(sets, dtype=np.uint16)).tolist()
        assert columns == [_walk_returns(h) for h in sets]
        assert 0 < sum(columns) < len(sets)
