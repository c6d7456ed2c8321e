"""Extremal join families, threshold roots, and the theorem table.

Every extremal graph of the paper's four theorems has the shape
K_s v (K_c u tK_1), built by ``_shape``; the family K_s v (K_{2b-2s} u tK_1),
with b the fractional matching number and t = n + s - 2b, maximises the
spectral radius at fixed b.  ``THEOREMS`` holds what a theorem is: whether
its classes are keyed by d = 2*beta_star (t32, t33) or d = 2*beta (t12,
t13), whether only connected graphs count (t32, t13), and its rule, which
gives a class's regime, bound and extremal shapes (s, c), each marked with
whether it lies in the class, with no graph built.  ``predict`` builds the
shapes and adds notes; it is the one public route to a class bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .graphs import Graph, _check_order, complete, empty, join, union
from .halfint import HalfIntegral
from .roots import largest_real_root
from .spectral import char_poly_f_coeffs, char_poly_g_coeffs

__all__ = [
    "RegimePrediction",
    "THEOREMS",
    "predict",
    "theta_cubic",
    "rho_join_formula",
    "theta_n",
]


def _shape(n: int, s: int, c: int) -> Graph:
    """K_s v (K_c u (n-s-c)K_1); hub first, clique next, isolates last."""
    return join(complete(s), union(complete(c), empty(n - s - c)))


def theta_cubic(n: int, beta_star: HalfIntegral) -> float:
    """Largest root of the hub-family cubic (the s=1 quotient polynomial)."""
    if beta_star.doubled + 1 > n:
        raise ValueError(f"requires 2*beta_star + 1 <= n, got 2*beta_star={beta_star.doubled}, n={n}")
    return largest_real_root(char_poly_f_coeffs(n, beta_star, 1))


def rho_join_formula(n: int, b: int) -> float:
    """Spectral radius of K_b v (n-b)K_1, the larger root of x^2-(b-1)x-b(n-b)."""
    if not 0 <= b <= n:
        raise ValueError(f"requires 0 <= b <= n, got b={b}, n={n}")
    _, c1, c0 = char_poly_g_coeffs(n, b)
    disc = c1 * c1 - 4 * c0
    if disc > sys.float_info.max:
        raise ValueError("the discriminant (b-1)^2 + 4b(n-b) lies beyond the float range")
    return (-c1 + math.sqrt(disc)) / 2.0


def theta_n(n: int) -> float:
    """Largest root of x^3-(n-4)x^2-(n-1)x+2(n-4), the hub cubic at 2*beta_star = n - 1; the perfect-matching threshold."""
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    return largest_real_root(char_poly_f_coeffs(n, HalfIntegral(n - 1), 1))


@dataclass(frozen=True)
class RegimePrediction:
    regime: str
    bound: float
    extremal_graphs: tuple[Graph, ...]
    in_class: tuple[bool, ...]  # per extremal graph: does it lie in the class
    notes: tuple[str, ...] = ()

    @property
    def bound_is_attained(self) -> bool:
        return any(self.in_class)


def _check_class_args(n: int, d: int, fractional: bool) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if d < 0:
        raise ValueError("2*beta_star must be non-negative" if fractional else "matching number must be non-negative")
    if d > n:
        raise ValueError(f"{'2*beta_star' if fractional else '2*beta'} = {d} exceeds n = {n}")
    if d % 2 and not fractional:
        raise ValueError(f"2*beta = {d} is odd")


# One class of a theorem, graph-free: its regime, its bound, and the (s, c) of
# each extremal graph K_s v (K_c u (n-s-c)K_1) in report order, with whether
# that graph lies in the class.  (0, n) is K_n, (1, c) the hub, (0, c) the
# clique union and (d // 2, 0) the split join.
ClassRule = tuple[str, float, list[tuple[int, int, bool]]]


def _linear(bound: int) -> float:
    """A linear class bound (n - 1, d - 1 or d) as a float, with the other bounds' ValueError beyond the float range."""
    try:
        return float(bound)
    except OverflowError:
        raise ValueError("the linear bound lies beyond the float range") from None


def _t32_regime(n: int, d: int) -> ClassRule:
    """t32's connected class 2*beta_star = d; builds no graph."""
    if d == n:
        return "i", _linear(n - 1), [(0, n, n != 1)]  # K_1 has 2*beta_star 0
    if n < 3 * ((d + 1) // 2) - 3:
        return "ii", theta_cubic(n, HalfIntegral(d)), [(1, d - 2, True)]
    # the split join has 2*beta_star d - 1 at odd d; at d = 0 it is edgeless, so disconnected unless n = 1
    return "iii", rho_join_formula(n, d // 2), [(d // 2, 0, d % 2 == 0 and (d >= 2 or n == 1))]


def _t33_regime(n: int, d: int) -> ClassRule:
    """t33's class 2*beta_star = d; builds no graph."""
    if d == n:
        return "1", _linear(n - 1), [(0, n, n != 1)]
    pivot = 3 * ((d + 1) // 2) - 1
    if n < pivot:
        return "2", _linear(d - 1), [(0, d, d != 1)]  # K_1 u tK_1 is edgeless
    if n == pivot:
        return "3", _linear(d - 1), [(d // 2, 0, d % 2 == 0), (0, d, d != 1)]
    return "4", rho_join_formula(n, d // 2), [(d // 2, 0, d % 2 == 0)]


def _t12_regime(n: int, d: int) -> ClassRule:
    """t12's class 2*beta = d; builds no graph."""
    if n <= d + 1:
        return "1", _linear(n - 1), [(0, n, True)]
    pivot = 3 * d // 2 + 2
    if n < pivot:
        return "2", _linear(d), [(0, d + 1, True)]
    if n == pivot:
        return "3", _linear(d), [(d // 2, 0, True), (0, d + 1, True)]
    return "4", rho_join_formula(n, d // 2), [(d // 2, 0, True)]


def _t13_regime(n: int, d: int) -> ClassRule:
    """t13's connected class 2*beta = d; builds no graph."""
    if n <= d + 1:
        return "1", _linear(n - 1), [(0, n, True)]
    if n <= 3 * d // 2 - 1:  # the hub family's quotient cubic
        return "2", theta_cubic(n, HalfIntegral(d + 1)), [(1, d - 1, True)]
    return "3", rho_join_formula(n, d // 2), [(d // 2, 0, d >= 2 or n == 1)]


class Theorem(NamedTuple):
    fractional: bool  # classes keyed by d = 2*beta_star; else by d = 2*beta
    connected: bool  # only connected graphs count
    rule: Callable[[int, int], ClassRule]  # (n, d) -> the class


THEOREMS = {
    "t32": Theorem(True, True, _t32_regime),
    "t33": Theorem(True, False, _t33_regime),
    "t12": Theorem(False, False, _t12_regime),
    "t13": Theorem(False, True, _t13_regime),
}


def _notes(theorem: str, n: int, d: int, pred: RegimePrediction) -> tuple[str, ...]:
    regime = pred.regime
    # an empty class predicts one graph, the split join K_{d // 2} v (n - d // 2)K_1
    # (at n = 1 and at t33's n = 2, d = 1 its shapes build it too)
    if not pred.bound_is_attained:
        if d == 0:  # t32 and t13 on n >= 2 vertices, which count connected graphs only
            return (
                "bound is strict: the split join is the edgeless graph, which is disconnected, "
                "so no graph in the class attains it",
            )
        return (
            "bound is strict: the split join has fractional matching number "
            f"{d // 2}, below {HalfIntegral(d)}, so no graph in the class attains it",
        )
    if theorem == "t33" and regime in ("2", "3"):
        notes = ("stated bound 2*beta_star is not attained; the clique union attains 2*beta_star - 1",)
        if regime == "3" and d % 2:
            notes += (
                f"tie partner has fractional matching number {d // 2}, below {HalfIntegral(d)}; "
                "only the clique union attains the bound inside the class",
            )
        return notes
    if (theorem, regime) == ("t13", "2"):
        # the stated cubic has two degree-one terms; its literal largest root is
        # logged here as a diagnostic rather than used
        literal = largest_real_root((1, 0, 3 - d - n, (d - 2) * (n - d)))
        return (
            f"stated cubic read literally has largest root {literal:.12g}; "
            f"the hub-family quotient gives {pred.bound:.12g}, which is used",
        )
    return ()


def _theorem_entry(theorem: str) -> Theorem:
    """The ``THEOREMS`` entry of a theorem name; ValueError for any other name."""
    try:
        return THEOREMS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {tuple(THEOREMS)}") from None


def predict(theorem: str, n: int, d: int) -> RegimePrediction:
    """Sharp spectral-radius bound of a theorem's class with key d on n
    vertices (``THEOREMS``), with the class's extremal graphs, which of
    them lie in the class, and notes.  d is 2*beta_star for t32 and t33 and
    2*beta for t12 and t13."""
    entry = _theorem_entry(theorem)
    _check_class_args(n, d, entry.fractional)
    _check_order(n)  # the shapes are graphs; the rule alone takes any n
    regime, bound, shapes = entry.rule(n, d)
    # two shapes may build one graph (t33 at d = 1 and t12 at d = 0, both at
    # n = 2); it keeps its first place and its membership
    members: dict[Graph, bool] = {}
    for s, c, member in shapes:
        members.setdefault(_shape(n, s, c), member)
    pred = RegimePrediction(regime, bound, tuple(members), tuple(members.values()))
    return replace(pred, notes=_notes(theorem, n, d, pred))
