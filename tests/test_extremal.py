from __future__ import annotations

import math

import pytest

from specmatch import (
    GraphError,
    HalfIntegral,
    complete,
    empty,
    fractional_matching_number,
    is_connected,
    join,
    matching_number,
    predict,
    rho_join_formula,
    spectral_radius,
    theta_cubic,
    theta_n,
    to_graph6,
    union,
)
from specmatch.extremal import THEOREMS, _shape
from specmatch.spectral import char_poly_f_coeffs
from specmatch.verify import oracle_beta, oracle_beta_star
from conftest import isomorphic


def family_members(max_n):
    """(n, d, s) of each K_s v (K_{d-2s} u (n+s-d)K_1) with n <= max_n whose
    fractional matching number is d/2: a middle clique of size 1 collapses it."""
    for n in range(1, max_n + 1):
        for d in range(0, n + 1):
            for s in range(0, d // 2 + 1):
                if d - 2 * s != 1:
                    yield n, d, s


class TestBuildExtremal:
    def test_hub_instance(self):
        g = _shape(8, 1, 5)
        assert isomorphic(g, join(complete(1), union(complete(5), empty(2))))

    def test_clique_union_instance(self):
        g = _shape(6, 0, 4)
        assert isomorphic(g, union(complete(4), empty(2)))

    def test_split_join_instance(self):
        g = _shape(7, 2, 0)
        assert isomorphic(g, join(complete(2), empty(5)))

    @pytest.mark.parametrize("n", [2049, 2**40, 10**30])
    def test_predict_checks_the_vertex_cap_first(self, n):
        # before any shape is built: 2^40 vertices would exhaust memory and
        # 10^30 overflow a tuple's length
        with pytest.raises(GraphError, match=f"^vertex count {n} exceeds the supported cap 2048$"):
            predict("t32", n, 3)

    def test_family_fractional_matching_number(self):
        # every valid instance realises its fractional matching number
        for n, d, s in family_members(14):
            g = _shape(n, s, d - 2 * s)
            assert fractional_matching_number(g) == HalfIntegral(d), (n, d, s)
            if s >= 1:
                assert is_connected(g) or g.n <= 1
            elif n + s - d > 0 and d - 2 * s > 0:
                assert not is_connected(g)


class TestThresholds:
    def test_theta_cubic_value(self):
        assert theta_cubic(8, HalfIntegral(7)) == pytest.approx(5.07, abs=0.01)

    def test_theta_cubic_matches_family_rho(self):
        for n, d in [(10, 9), (12, 9), (14, 11), (20, 13)]:
            g = _shape(n, 1, d - 2)
            assert theta_cubic(n, HalfIntegral(d)) == pytest.approx(spectral_radius(g).value, abs=1e-8)

    def test_theta_cubic_precondition(self):
        with pytest.raises(ValueError):
            theta_cubic(7, HalfIntegral(7))

    def test_rho_join_examples(self):
        assert rho_join_formula(6, 2) == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-12)
        assert rho_join_formula(4, 1) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert rho_join_formula(8, 2) == pytest.approx(4.0, abs=1e-12)

    def test_rho_join_matches_built_graph(self):
        for n, b in [(6, 2), (9, 3), (12, 4)]:
            g = join(complete(b), empty(n - b))
            assert rho_join_formula(n, b) == pytest.approx(spectral_radius(g).value, abs=1e-9)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (theta_n, (10**400,)),
            (theta_cubic, (10**400, HalfIntegral(3))),
            (theta_cubic, (10**308, HalfIntegral(3))),
            (rho_join_formula, (10**400, 3)),
            (rho_join_formula, (10**200, 10**200 // 2)),
        ],
        ids=["theta_n", "theta_cubic", "theta_cubic-was-minus-inf", "rho_join_formula", "rho_join_formula-disc"],
    )
    def test_orders_beyond_the_float_range(self, fn, args):
        # a typed error, as for any argument out of range, not OverflowError;
        # theta_cubic at n = 10^308 used to return -inf
        with pytest.raises(ValueError, match="beyond the float range"):
            fn(*args)

    # each theorem's linear regimes at an order past the float range
    # (n, d): n - 1 where d = n, d - 1 or d below the split-join pivot, and at it
    @pytest.mark.parametrize(
        "theorem, n, d",
        [
            ("t32", 10**400, 10**400),
            ("t33", 10**400, 10**400),
            ("t33", 10**400, 10**400 - 1),
            ("t33", 3 * 10**400 - 1, 2 * 10**400),
            ("t12", 10**400, 10**400),
            ("t12", 10**400, 10**400 - 2),
            ("t12", 3 * 10**400 + 2, 2 * 10**400),
            ("t13", 10**400, 10**400),
        ],
        ids=["t32-i", "t33-1", "t33-2", "t33-3", "t12-1", "t12-2", "t12-3", "t13-1"],
    )
    def test_linear_bounds_beyond_the_float_range(self, theorem, n, d):
        # the typed error of the cubic and the quadratic bounds, not OverflowError
        with pytest.raises(ValueError, match="^the linear bound lies beyond the float range$"):
            THEOREMS[theorem].rule(n, d)

    def test_theta_n_values(self):
        assert theta_n(8) == pytest.approx(5.07, abs=0.01)
        assert theta_n(4) == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_theta_n_identity(self):
        # theta(n) is the hub cubic at 2*beta_star = n - 1, bit for bit
        for n in range(3, 201):
            assert theta_n(n) == theta_cubic(n, HalfIntegral(n - 1))

    def test_cubic_coefficient_identity(self):
        # the hub cubic (s = 1), its coefficients written out
        for n in range(4, 60):
            for d in range(2, n):
                assert char_poly_f_coeffs(n, HalfIntegral(d), 1) == (1, -(d - 3), -(n - 1), -d * d + d * n + 4 * d - 3 * n - 3)


class TestConnectedSelector:
    def test_complete_regime(self):
        pred = predict("t32", 6, 6)
        assert pred.regime == "i" and pred.bound == 5.0
        assert pred.extremal_graphs == (complete(6),)
        assert pred.bound_is_attained

    def test_hub_regime(self):
        pred = predict("t32", 10, 9)
        assert pred.regime == "ii"
        expect = join(complete(1), union(complete(7), empty(2)))
        assert isomorphic(pred.extremal_graphs[0], expect)
        assert pred.bound == pytest.approx(spectral_radius(expect).value, abs=1e-8)
        assert pred.bound_is_attained

    def test_join_regime(self):
        pred = predict("t32", 10, 6)
        assert pred.regime == "iii"
        assert pred.bound == pytest.approx((2 + math.sqrt(88)) / 2, abs=1e-12)
        assert isomorphic(pred.extremal_graphs[0], join(complete(3), empty(7)))
        assert pred.bound_is_attained

    def test_half_odd_join_regime_not_attained(self):
        pred = predict("t32", 6, 5)
        assert pred.regime == "iii" and not pred.bound_is_attained
        assert fractional_matching_number(pred.extremal_graphs[0]).doubled == 4

    def test_attainment_to_40(self):
        for n in range(1, 41):
            for d in range(0, n + 1):
                pred = predict("t32", n, d)
                for g in pred.extremal_graphs:
                    if g.n:
                        assert spectral_radius(g).value == pytest.approx(pred.bound, abs=1e-8)
                if pred.bound_is_attained:
                    ok = any(
                        is_connected(g) and fractional_matching_number(g).doubled == d
                        for g in pred.extremal_graphs
                    )
                    assert ok or (n == 1 and d == 0)

    def test_regime_totality(self):
        for n in range(2, 61):
            for d in range(2, n + 1):
                pred = predict("t32", n, d)
                assert pred.regime in ("i", "ii", "iii")

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            predict("t32", 5, 6)


class TestGeneralSelector:
    def test_tie_case(self):
        pred = predict("t33", 8, 5)
        assert pred.regime == "3" and pred.bound == 4.0
        expected = [join(complete(2), empty(6)), union(complete(5), empty(3))]
        assert all(isomorphic(a, b) for a, b in zip(pred.extremal_graphs, expected))
        for g in pred.extremal_graphs:
            assert spectral_radius(g).value == pytest.approx(4.0, abs=1e-8)

    def test_clique_regime(self):
        pred = predict("t33", 7, 5)
        assert pred.regime == "2" and pred.bound == 4.0
        assert isomorphic(pred.extremal_graphs[0], union(complete(5), empty(2)))

    def test_complete_regime(self):
        pred = predict("t33", 4, 4)
        assert pred.regime == "1" and pred.bound == 3.0

    def test_integer_tie_both_in_class(self):
        pred = predict("t33", 8, 6)
        assert pred.regime == "3"
        assert len(pred.extremal_graphs) == 2
        for g in pred.extremal_graphs:
            assert fractional_matching_number(g).doubled == 6

    def test_attainment_to_40(self):
        for n in range(1, 41):
            for d in range(0, n + 1):
                pred = predict("t33", n, d)
                for g in pred.extremal_graphs:
                    if g.n:
                        assert spectral_radius(g).value == pytest.approx(pred.bound, abs=1e-8)
                if pred.bound_is_attained:
                    assert any(fractional_matching_number(g).doubled == d for g in pred.extremal_graphs)

    def test_regime_totality(self):
        for n in range(2, 61):
            for d in range(2, n + 1):
                pred = predict("t33", n, d)
                assert pred.regime in ("1", "2", "3", "4")


class TestMatchingBounds:
    def test_general_tie(self):
        pred = predict("t12", 8, 4)
        assert pred.regime == "3" and pred.bound == 4.0
        expected = [join(complete(2), empty(6)), union(complete(5), empty(3))]
        assert all(isomorphic(a, b) for a, b in zip(pred.extremal_graphs, expected))
        for g in pred.extremal_graphs:
            assert matching_number(g).size == 2

    def test_connected_join_regime(self):
        for n, b in [(9, 3), (12, 4), (15, 5)]:
            pred = predict("t13", n, 2 * b)
            assert pred.regime == "3"
            assert pred.bound == pytest.approx((b - 1 + math.sqrt((b - 1) ** 2 + 4 * b * (n - b))) / 2, abs=1e-12)

    def test_general_complete_regime(self):
        pred = predict("t12", 4, 4)
        assert pred.regime == "1" and pred.bound == 3.0

    def test_connected_hub_regime_via_quotient(self):
        pred = predict("t13", 8, 6)
        assert pred.regime == "2"
        hub = join(complete(1), union(complete(5), empty(2)))
        assert isomorphic(pred.extremal_graphs[0], hub)
        assert pred.bound == pytest.approx(spectral_radius(hub).value, abs=1e-8)
        assert matching_number(pred.extremal_graphs[0]).size == 3
        assert pred.notes  # the stated-cubic diagnostic is logged

    def test_attainment_to_40(self):
        for n in range(1, 41):
            for b in range(0, n // 2 + 1):
                for pred in (predict("t12", n, 2 * b), predict("t13", n, 2 * b)):
                    for g in pred.extremal_graphs:
                        if g.n:
                            assert spectral_radius(g).value == pytest.approx(pred.bound, abs=1e-8)

    def test_membership_small(self):
        for n in range(2, 20):
            for b in range(1, n // 2 + 1):
                gen = predict("t12", n, 2 * b)
                assert any(matching_number(g).size == b for g in gen.extremal_graphs)
                con = predict("t13", n, 2 * b)
                assert any(
                    is_connected(g) and matching_number(g).size == b for g in con.extremal_graphs
                )

    def test_regime_totality(self):
        for n in range(2, 61):
            for b in range(1, n // 2 + 1):
                assert predict("t12", n, 2 * b).regime in ("1", "2", "3", "4")
                assert predict("t13", n, 2 * b).regime in ("1", "2", "3")

    def test_predict_rejects_an_odd_matching_key(self):
        # t12 and t13 key their classes by 2*beta, which is even
        for theorem in ("t12", "t13"):
            with pytest.raises(ValueError, match=r"^2\*beta = 3 is odd$"):
                predict(theorem, 8, 3)
            assert predict(theorem, 8, 4).bound == 4.0


def _classify(theorem, g, oracle):
    """The class key of g under a theorem, or None when g lies in no class (a
    disconnected graph under t32/t13), from the oracles or the kernels."""
    entry = THEOREMS[theorem]
    if entry.connected and not is_connected(g):
        return None
    if entry.fractional:
        return oracle_beta_star(g).doubled if oracle else fractional_matching_number(g).doubled
    return 2 * (oracle_beta(g) if oracle else matching_number(g).size)


class TestMembership:
    # in_class must equal the classification both ways: a shape marked in
    # the class has the class key (and is connected where that counts), and
    # a shape with them is marked in the class; every key, 0 included

    @pytest.mark.parametrize("theorem", list(THEOREMS))
    @pytest.mark.parametrize("oracle, max_n", [(True, 10), (False, 40)])
    def test_in_class_equals_the_classification(self, theorem, oracle, max_n):
        step = 1 if THEOREMS[theorem].fractional else 2
        for n in range(1, max_n + 1):
            for d in range(0, n + 1, step):
                pred = predict(theorem, n, d)
                truth = tuple(_classify(theorem, g, oracle) == d for g in pred.extremal_graphs)
                assert pred.in_class == truth, (theorem, n, d)
                assert pred.bound_is_attained == any(truth)

    def test_connected_key_zero_is_strict(self):
        # beta = 0 or beta_star = 0 leaves only the edgeless graph, disconnected for n >= 2
        note = (
            "bound is strict: the split join is the edgeless graph, which is disconnected, "
            "so no graph in the class attains it"
        )
        for n in range(2, 12):
            for pred in (predict("t13", n, 0), predict("t32", n, 0)):
                assert (pred.extremal_graphs, pred.in_class, pred.notes) == ((empty(n),), (False,), (note,))
            assert predict("t12", n, 0).in_class == (True,)
        # K_1 is connected
        assert predict("t13", 1, 0).in_class == (True,)
        assert predict("t32", 1, 0).in_class == (True,)

    def test_odd_key_strict_note(self):
        pred = predict("t32", 6, 5)
        assert pred.in_class == (False,)
        assert pred.notes == (
            "bound is strict: the split join has fractional matching number 2, below 5/2, so no graph in the class attains it",
        )

    def test_one_membership_per_graph(self):
        # two shapes build the same graph at n = 2; it keeps one entry and its membership
        for theorem, d, member in [("t33", 1, False), ("t12", 0, True)]:
            pred = predict(theorem, 2, d)
            assert (pred.extremal_graphs, pred.in_class) == ((empty(2),), (member,))
        tie = predict("t33", 8, 5)
        assert tie.in_class == (False, True) and tie.bound_is_attained


class TestStrictnessInsideFamily:
    def test_non_extremal_family_members_stay_below(self):
        # inside the join regime, smaller hub sizes stay strictly below the bound
        for n in range(4, 21):
            for d in range(2, n + 1):
                ceil_b = (d + 1) // 2
                if n < 3 * ceil_b - 3 or d == n:
                    continue
                bound = rho_join_formula(n, d // 2)
                for s in range(1, d // 2):
                    if d - 2 * s == 1:
                        continue
                    rho = spectral_radius(_shape(n, s, d - 2 * s)).value
                    assert rho < bound - 1e-9, (n, d, s)

    def test_serialization(self):
        pred = predict("t33", 8, 5)
        assert (pred.regime, pred.bound) == ("3", 4.0)
        assert [to_graph6(g) for g in pred.extremal_graphs] == ["G}rEE?", "G~{???"]
