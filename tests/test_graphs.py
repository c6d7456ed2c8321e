from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given

from specmatch import (
    Graph,
    Graph6Error,
    GraphError,
    complete,
    components,
    empty,
    from_edge_list,
    from_edge_list_text,
    from_graph6,
    is_connected,
    join,
    min_degree,
    to_graph6,
    union,
)
from conftest import graphs, isomorphic, random_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestConstructors:
    def test_from_edge_list_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g == complete(3)

    def test_from_edge_list_empty(self):
        assert from_edge_list(3, []).edge_count() == 0

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_complete_counts(self):
        assert complete(4).edge_count() == 6
        assert complete(1).edge_count() == 0
        assert empty(5).edge_count() == 0

    @pytest.mark.parametrize("build", [complete, empty])
    def test_constructors_enforce_the_vertex_cap(self, build):
        # as Graph itself does: a larger graph would fail later, in the
        # per-vertex label table of the matching code
        assert build(2048).n == 2048
        with pytest.raises(GraphError, match="^vertex count 2049 exceeds the supported cap 2048$"):
            build(2049)

    def test_union_counts(self):
        g = union(complete(3), complete(2))
        assert g.n == 5 and g.edge_count() == 4
        assert len(components(g)) == 2

    def test_union_identity(self):
        g = cycle(5)
        assert union(g, empty(0)) == g

    def test_union_composition(self):
        g = union(union(complete(3), complete(3)), complete(1))
        assert g.n == 7 and g.edge_count() == 6 and len(components(g)) == 3

    def test_join_star(self):
        star = join(complete(1), empty(3))
        assert star.degree_sequence() == (3, 1, 1, 1)

    def test_join_hub_family(self):
        g = join(complete(1), union(complete(5), empty(2)))
        assert g.n == 8
        assert g.edge_count() == 7 + 10

    def test_join_bipartite(self):
        g = join(empty(2), empty(2))
        assert isomorphic(g, cycle(4))
        for u in (0, 1):
            for v in (2, 3):
                assert g.has_edge(u, v)
        assert not g.has_edge(0, 1) and not g.has_edge(2, 3)


class TestConnectivity:
    def test_complete_connected(self):
        assert is_connected(complete(5))

    def test_components_count(self):
        g = union(complete(4), empty(2))
        assert not is_connected(g)
        assert len(components(g)) == 3

    def test_empty_zero(self):
        assert components(empty(0)) == []
        assert not is_connected(empty(0))

    @given(graphs())
    def test_components_partition(self, g):
        comps = components(g)
        seen = set()
        for comp in comps:
            assert not (comp & seen)
            seen |= comp
        assert seen == set(range(g.n))
        for u, v in g.edges():
            assert any(u in comp and v in comp for comp in comps)


class TestDegrees:
    def test_min_degree(self):
        assert min_degree(complete(4)) == 3
        assert min_degree(join(complete(1), empty(3))) == 1
        assert min_degree(cycle(5)) == 2

    def test_min_degree_rejects_empty(self):
        with pytest.raises(GraphError):
            min_degree(empty(0))


class TestCountsProperty:
    @given(graphs(max_n=6), graphs(max_n=6))
    def test_union_join_counts(self, g1, g2):
        u = union(g1, g2)
        assert u.n == g1.n + g2.n
        assert u.edge_count() == g1.edge_count() + g2.edge_count()
        j = join(g1, g2)
        assert j.n == g1.n + g2.n
        assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n

    def test_union_join_counts_bulk(self, rng):
        for _ in range(1000):
            g1 = random_graph(rng, rng.randrange(0, 7), rng.random())
            g2 = random_graph(rng, rng.randrange(0, 7), rng.random())
            assert union(g1, g2).edge_count() == g1.edge_count() + g2.edge_count()
            assert join(g1, g2).edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n

    @given(graphs())
    def test_adjacency_symmetric_irreflexive(self, g):
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)


class TestGraph6:
    def test_k3(self):
        assert to_graph6(complete(3)) == "Bw"
        assert from_graph6("Bw") == complete(3)

    def test_p3(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert to_graph6(g) == "Bg"
        assert from_graph6("Bg") == g

    def test_single_vertex(self):
        assert to_graph6(empty(1)) == "@"
        assert from_graph6("@") == empty(1)

    @given(graphs())
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_against_networkx(self, rng):
        for _ in range(200):
            n = rng.randrange(0, 9)
            g = random_graph(rng, n, rng.random())
            g_nx = nx.Graph()
            g_nx.add_nodes_from(range(n))  # node order matters for the encoding
            g_nx.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(g_nx, header=False).decode().strip()
            assert to_graph6(g) == expected

    def test_large_n_prefix_accepted_on_input(self):
        g = empty(63)
        code = chr(126) + chr(63) + chr(63 + 63 // 64) + chr(63 + 63 % 64)
        # n=63 encoded in 18 bits: 0, 0, 63
        code = chr(126) + chr(63 + 0) + chr(63 + 0) + chr(63 + 63)
        code += chr(63) * ((63 * 62 // 2 + 5) // 6)
        assert from_graph6(code) == g

    def test_large_n_round_trip(self, rng):
        # above 62 vertices the header is '~' and 18 bits of n; networkx
        # writes the same text (its encoder takes seconds on K_2048, so it
        # checks the sparse graphs at 63 and 600 only)
        for n in (63, 64, 600, 2048):
            chords = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
            g = Graph(n, {*((i, i + 1) for i in range(n - 1)), *chords})
            code = to_graph6(g)
            assert code[:4] == "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
            assert from_graph6(code) == g
            if n in (63, 600):
                g_nx = nx.Graph()
                g_nx.add_nodes_from(range(n))  # node order matters for the encoding
                g_nx.add_edges_from(g.edges())
                assert code == nx.to_graph6_bytes(g_nx, header=False).decode().strip()
        for g in (empty(63), complete(64)):
            assert from_graph6(to_graph6(g)) == g

    def test_bad_byte_offset(self):
        with pytest.raises(Graph6Error) as err:
            from_graph6("B" + chr(20))
        assert err.value.offset == 1

    def test_truncated(self):
        with pytest.raises(Graph6Error):
            from_graph6("B")

    def test_nonzero_padding_rejected(self):
        # K_2 is 'A_' (bit 10'0000); 'A' + chr(63+0b010000) has a padding bit set
        with pytest.raises(Graph6Error):
            from_graph6("A" + chr(63 + 0b010001))


class TestEdgeListText:
    def test_round_trip(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 9), rng.random())
            lines = nx.generate_edgelist(nx.Graph(g.edges()), data=False)
            assert from_edge_list_text("\n".join([f"{g.n} {g.edge_count()}", *lines])) == g

    def test_header_mismatch(self):
        with pytest.raises(GraphError):
            from_edge_list_text("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphError):
            from_edge_list_text("oops\n")
