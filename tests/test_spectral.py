from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

from specmatch import (
    ConvergenceError,
    Graph,
    GraphError,
    HalfIntegral,
    adjacency_quotient,
    char_poly_f_coeffs,
    char_poly_g_coeffs,
    certify_all,
    charpoly_int,
    complete,
    empty,
    exact_char_poly,
    join,
    largest_real_root,
    max_degree,
    poly_divmod,
    quotient_spectral_radius,
    spectral_radius,
    union,
)
from specmatch.extremal import ExtremalSpec, build_extremal, theta_cubic_coeffs
from specmatch.roots import _eval
from conftest import graphs, random_connected_graph, random_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestSpectralRadius:
    def test_complete(self):
        assert spectral_radius(complete(4)).value == pytest.approx(3.0, abs=1e-12)

    def test_cycle(self):
        assert spectral_radius(cycle(5)).value == pytest.approx(2.0, abs=1e-12)

    def test_hub_family_value(self):
        g = join(complete(1), union(complete(5), empty(2)))
        assert spectral_radius(g, 0.01).value == pytest.approx(5.07, abs=0.01)

    def test_two_triangles_and_pendant(self):
        g = join(complete(1), union(union(complete(3), complete(3)), complete(1)))
        assert spectral_radius(g, 0.01).value == pytest.approx(3.73, abs=0.01)

    def test_star_sqrt3(self):
        g = join(complete(1), empty(3))
        assert spectral_radius(g).value == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphError):
            spectral_radius(empty(0))

    def test_single_vertex(self):
        res = spectral_radius(empty(1))
        assert res.value == 0.0 and res.residual == 0.0

    def test_residual_within_tolerance(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng, rng.randrange(2, 11), 0.3)
            res = spectral_radius(g, 1e-10)
            assert res.residual <= 1e-10

    def test_bounds_and_eigvalsh_agreement(self, rng):
        for _ in range(100):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.random())
            res = spectral_radius(g)
            avg = 2 * g.edge_count() / g.n
            assert res.value >= avg - 1e-8
            assert res.value <= g.n - 1 + 1e-12
            if g.edge_count():
                assert res.value <= max_degree(g) + 1e-12
            a = np.zeros((n, n))
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1.0
            assert res.value == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-8)

    def test_disconnected_max_of_components(self, rng):
        for _ in range(50):
            g1 = random_graph(rng, rng.randrange(1, 6), 0.5)
            g2 = random_graph(rng, rng.randrange(1, 6), 0.5)
            u = union(g1, g2)
            expect = max(spectral_radius(g1).value, spectral_radius(g2).value)
            assert spectral_radius(u).value == pytest.approx(expect, abs=2e-10)

    def test_deterministic(self, rng):
        g = random_connected_graph(rng, 9, 0.4)
        a = spectral_radius(g)
        b = spectral_radius(g)
        assert a.value == b.value and a.residual == b.residual and a.iterations == b.iterations

    def test_monotone_under_edge_addition(self, rng):
        # strict growth when any new edge lands in a connected graph
        checked = 0
        while checked < 100:
            n = rng.randrange(3, 13)
            g = random_connected_graph(rng, n, 0.25)
            non_edges = [(i, j) for j in range(1, n) for i in range(j) if not g.has_edge(i, j)]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            g2 = Graph(n, list(g.edges()) + [(u, v)])
            assert spectral_radius(g2).value > spectral_radius(g).value + 1e-9
            checked += 1

    def test_perron_vector_positive(self, rng):
        g = random_connected_graph(rng, 8, 0.3)
        res = spectral_radius(g)
        assert all(x > 0 for x in res.vector)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            spectral_radius(complete(3), -1.0)

    def test_rejects_nan_tolerance(self):
        # NaN fails every comparison, so no pair would meet it; the call must
        # not fall back to the dense solver unchecked, nor write NaN into JSON
        with pytest.raises(ValueError, match="tolerance must be positive"):
            spectral_radius(path(600), math.nan)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certify_all(complete(3), tol=math.nan)

    def test_nonconvergence_carries_estimate(self):
        # 600 vertices are above the Lanczos budget: the dense fallback raises
        for n in (40, 600):
            with pytest.raises(ConvergenceError) as err:
                spectral_radius(path(n), 1e-30)
            assert err.value.best == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-9)
            assert err.value.residual > 1e-30
            assert err.value.iterations == 1


class TestQuotient:
    def test_split_join_quotient(self):
        g = join(complete(2), empty(5))
        q = adjacency_quotient(g, [{0, 1}, {2, 3, 4, 5, 6}])
        assert q.entries == ((1, 5), (2, 0))

    def test_three_cell_family_quotient(self):
        # K_s v (K_{2b-2s} u tK_1) with cells hub / clique / isolates
        for n, d, s in [(8, 7, 1), (10, 8, 2), (12, 9, 3)]:
            g = build_extremal(ExtremalSpec(n, HalfIntegral(d), s))
            mid = d - 2 * s
            cells = [set(range(s)), set(range(s, s + mid)), set(range(s + mid, n))]
            q = adjacency_quotient(g, cells)
            assert q.entries == (
                (s - 1, d - 2 * s, n + s - d),
                (s, d - 2 * s - 1, 0),
                (s, 0, 0),
            )

    def test_regular_single_cell(self):
        q = adjacency_quotient(cycle(5), [{0, 1, 2, 3, 4}])
        assert q.entries == ((2,),)
        assert quotient_spectral_radius(q) == pytest.approx(2.0, abs=1e-12)

    def test_path_two_cells(self):
        q = adjacency_quotient(path(3), [{0, 2}, {1}])
        assert q.entries == ((0, 1), (2, 0))

    def test_not_equitable_rejected(self):
        with pytest.raises(GraphError) as err:
            adjacency_quotient(path(3), [{0, 1}, {2}])
        assert "not equitable" in str(err.value)

    def test_empty_cells_dropped(self):
        q = adjacency_quotient(complete(3), [set(), {0, 1, 2}, set()])
        assert q.k == 1

    def test_quotient_radius_quadratic(self):
        g = join(complete(2), empty(5))
        q = adjacency_quotient(g, [{0, 1}, {2, 3, 4, 5, 6}])
        # largest root of x^2 - x - 10, solved by hand
        assert quotient_spectral_radius(q) == pytest.approx((1 + math.sqrt(41)) / 2, abs=1e-10)
        assert char_poly_g_coeffs(7, 2)[-1] == -10
        assert char_poly_g_matches(q)

    def test_quotient_radius_matches_power_iteration(self, rng):
        for n, d, s in [(8, 7, 1), (9, 7, 2), (12, 10, 3), (14, 11, 2)]:
            g = build_extremal(ExtremalSpec(n, HalfIntegral(d), s))
            mid = d - 2 * s
            cells = [set(range(s)), set(range(s, s + mid)), set(range(s + mid, n))]
            q = adjacency_quotient(g, cells)
            assert quotient_spectral_radius(q) == pytest.approx(spectral_radius(g).value, abs=1e-9)

    def test_quotient_radius_large_k_symmetrized(self):
        # 2K_2 with one cell per edge: quotient is the identity matrix
        g = union(complete(2), complete(2))
        q = adjacency_quotient(g, [{0, 1}, {2, 3}])
        assert q.entries == ((1, 0), (0, 1))
        assert quotient_spectral_radius(q) == pytest.approx(1.0, abs=1e-10)
        # a 4-cell partition exercises the symmetrised eigensolver path
        g = path(4)
        q = adjacency_quotient(g, [{0}, {1}, {2}, {3}])
        assert quotient_spectral_radius(q) == pytest.approx(spectral_radius(g).value, abs=1e-9)

    def test_hub_quotient_value(self):
        g = join(complete(1), union(complete(5), empty(2)))
        q = adjacency_quotient(g, [{0}, {1, 2, 3, 4, 5}, {6, 7}])
        assert quotient_spectral_radius(q) == pytest.approx(5.07, abs=0.01)


def char_poly_g_matches(q):
    coeffs = charpoly_int([list(r) for r in q.entries])
    return coeffs == (1, -1, -10)


class TestCharPolyF:
    def test_matches_quotient_charpoly(self, rng):
        # coefficient-level agreement with det(xI - Q) for the 3-cell family
        for _ in range(50):
            d = rng.randrange(4, 16)
            s = rng.randrange(1, (d - 1) // 2 + 1)
            if d - 2 * s == 1:
                continue
            n = rng.randrange(d, d + 8)
            q = [
                [s - 1, d - 2 * s, n + s - d],
                [s, d - 2 * s - 1, 0],
                [s, 0, 0],
            ]
            assert charpoly_int(q) == char_poly_f_coeffs(n, HalfIntegral(d), s)

    def test_s1_equals_theta_cubic(self, rng):
        for _ in range(50):
            d = rng.randrange(2, 40)
            n = rng.randrange(d + 1, d + 20)
            assert char_poly_f_coeffs(n, HalfIntegral(d), 1) == theta_cubic_coeffs(n, HalfIntegral(d))

    def test_annihilates_family_rho(self, rng):
        for n, d, s in [(8, 7, 1), (10, 9, 2), (14, 10, 3), (20, 13, 4)]:
            g = build_extremal(ExtremalSpec(n, HalfIntegral(d), s))
            rho = spectral_radius(g).value
            assert abs(_eval(char_poly_f_coeffs(n, HalfIntegral(d), s), rho)) < 1e-6 * n**3

    def test_half_perfect_reduction(self, rng):
        # beta* = (n-1)/2, s = 1 reduces to x^3-(n-4)x^2-(n-1)x+2(n-4)
        for n in range(5, 60):
            assert char_poly_f_coeffs(n, HalfIntegral(n - 1), 1) == (1, -(n - 4), -(n - 1), 2 * (n - 4))


class TestExactCharPoly:
    def test_k3(self):
        assert exact_char_poly(complete(3)) == (1, 0, -3, -2)

    def test_empty2(self):
        assert exact_char_poly(empty(2)) == (1, 0, 0)

    def test_p3(self):
        assert exact_char_poly(path(3)) == (1, 0, -2, 0)

    def test_cap(self):
        with pytest.raises(GraphError):
            exact_char_poly(empty(17))

    @given(graphs(max_n=7))
    def test_matches_numpy(self, g):
        ours = exact_char_poly(g)
        a = np.zeros((g.n, g.n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        theirs = np.poly(a) if g.n else np.array([1.0])
        assert np.allclose(np.array(ours, dtype=float), theirs, atol=1e-6)

    def test_poly_divmod(self):
        # (x^2-1)(x^2+x+3) expanded, divided back
        num = (1, 1, 2, -1, -3)
        quo, rem = poly_divmod(num, (1, 0, -1))
        assert quo == (1, 1, 3) and rem == ()

    def test_quotient_divides_graph_charpoly(self):
        g = join(complete(1), union(complete(5), empty(2)))
        full = exact_char_poly(g)
        q = charpoly_int([[0, 5, 2], [1, 4, 0], [1, 0, 0]])
        quo, rem = poly_divmod(full, q)
        assert rem == ()


class TestLargestRealRoot:
    def test_sqrt3_cubic(self):
        assert largest_real_root((1, 0, -3, 0)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_quadratic(self):
        assert largest_real_root((1, -1, -10)) == pytest.approx((1 + math.sqrt(41)) / 2, abs=1e-12)

    def test_theta8(self):
        assert largest_real_root((1, -4, -7, 8)) == pytest.approx(5.07, abs=0.01)

    def test_linear(self):
        assert largest_real_root((2, -5)) == pytest.approx(2.5, abs=1e-15)

    def test_no_real_root(self):
        from specmatch import NoRealRootError

        with pytest.raises(NoRealRootError):
            largest_real_root((1, 0, 1))

    def test_double_root(self):
        # double roots are only determined to ~sqrt(eps) in floats; the
        # residual contract below is the real guarantee
        assert largest_real_root((1, -2, 1)) == pytest.approx(1.0, abs=5e-8)
        assert largest_real_root((1, -3, 0, 4)) == pytest.approx(2.0, abs=5e-8)

    def test_negative_leading(self):
        assert largest_real_root((-1, 0, 3, 0)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_residual_bound(self, rng):
        for _ in range(300):
            deg = rng.choice([2, 3])
            coeffs = [rng.randrange(1, 5)] + [rng.randrange(-30, 31) for _ in range(deg)]
            try:
                x = largest_real_root(coeffs)
            except ValueError:
                continue
            acc = 0.0
            for c in coeffs:
                acc = acc * x + c
            assert abs(acc) <= 1e-9 * (1 + max(abs(c) for c in coeffs))
