"""Extremal join families, threshold roots, and regime selectors.

The family K_s v (K_{2b-2s} u tK_1), with b the fractional matching number
and t = n + s - 2b, maximises the spectral radius at fixed b.  The selectors
return, per (n, b) regime, the sharp bound and the graphs attaining it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, complete, empty, join, to_graph6, union
from .halfint import HalfIntegral
from .roots import largest_real_root
from .spectral import char_poly_f_coeffs

__all__ = [
    "ExtremalSpec",
    "RegimePrediction",
    "build_extremal",
    "largest_real_root",
    "theta_cubic",
    "theta_cubic_coeffs",
    "rho_join_formula",
    "theta_n",
    "theta_n_coeffs",
    "predicted_maximizer_connected",
    "predicted_maximizer_general",
    "matching_bound_connected",
    "matching_bound_general",
]


@dataclass(frozen=True)
class ExtremalSpec:
    n: int
    beta_star: HalfIntegral
    s: int

    @property
    def middle(self) -> int:
        return self.beta_star.doubled - 2 * self.s

    @property
    def t(self) -> int:
        return self.n + self.s - self.beta_star.doubled

    def validate(self) -> None:
        d = self.beta_star.doubled
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if d < 0:
            raise ValueError("fractional matching number must be non-negative")
        if d > self.n:
            raise ValueError(f"2*beta_star = {d} exceeds n = {self.n}")
        if self.s < 0:
            raise ValueError(f"s must be non-negative, got {self.s}")
        if self.middle < 0:
            raise ValueError(f"s = {self.s} exceeds beta_star = {self.beta_star}")
        if self.middle == 1:
            # every edge of K_s v (K_1 u tK_1) meets the hub, so the
            # fractional matching number collapses to s, not beta_star
            raise ValueError("middle clique of size 1 collapses the fractional matching number to s")


def build_extremal(spec: ExtremalSpec) -> Graph:
    """Build K_s v (K_{2b-2s} u tK_1); hub first, clique next, isolates last."""
    spec.validate()
    return join(complete(spec.s), union(complete(spec.middle), empty(spec.t)))


def theta_cubic_coeffs(n: int, beta_star: HalfIntegral) -> tuple[int, int, int, int]:
    d = beta_star.doubled
    return (1, -(d - 3), -(n - 1), -d * d + d * n + 4 * d - 3 * n - 3)


def theta_cubic(n: int, beta_star: HalfIntegral) -> float:
    """Largest root of the hub-family cubic (the s=1 quotient polynomial)."""
    if beta_star.doubled + 1 > n:
        raise ValueError(f"requires 2*beta_star + 1 <= n, got 2*beta_star={beta_star.doubled}, n={n}")
    return largest_real_root(theta_cubic_coeffs(n, beta_star))


def rho_join_formula(n: int, b: int) -> float:
    """Spectral radius of K_b v (n-b)K_1, the larger root of x^2-(b-1)x-b(n-b)."""
    if not 0 <= b <= n:
        raise ValueError(f"requires 0 <= b <= n, got b={b}, n={n}")
    return (b - 1 + math.sqrt((b - 1) ** 2 + 4 * b * (n - b))) / 2.0


def theta_n_coeffs(n: int) -> tuple[int, int, int, int]:
    return (1, -(n - 4), -(n - 1), 2 * (n - 4))


def theta_n(n: int) -> float:
    """Largest root of x^3-(n-4)x^2-(n-1)x+2(n-4); the perfect-matching threshold."""
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    return largest_real_root(theta_n_coeffs(n))


@dataclass(frozen=True)
class RegimePrediction:
    regime: str
    bound: float
    extremal_graphs: tuple[Graph, ...]
    bound_is_attained: bool
    notes: tuple[str, ...] = ()

    def serialize(self) -> str:
        codes = ",".join(to_graph6(g) for g in self.extremal_graphs)
        return f"{self.regime} {self.bound:.12g} {codes}"


def _g1_hub(n: int, d: int) -> Graph:
    return join(complete(1), union(complete(d - 2), empty(n - d + 1)))


def _g2_split_join(n: int, d: int) -> Graph:
    return join(complete(d // 2), empty(n - d // 2))


def _g3_clique_union(n: int, d: int) -> Graph:
    return union(complete(d), empty(n - d))


def _check_class_args(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if d < 0:
        raise ValueError("2*beta_star must be non-negative")
    if d > n:
        raise ValueError(f"2*beta_star = {d} exceeds n = {n}")


def _t32_regime(n: int, d: int) -> tuple[str, float]:
    """(regime, bound) of t32's connected class 2*beta_star = d; builds no graph."""
    if d == n:
        return "i", float(n - 1)
    if n < 3 * ((d + 1) // 2) - 3:
        return "ii", theta_cubic(n, HalfIntegral(d))
    return "iii", rho_join_formula(n, d // 2)


def predicted_maximizer_connected(n: int, beta_star: HalfIntegral) -> RegimePrediction:
    """Sharp spectral-radius bound over connected graphs with this fractional matching number."""
    d = beta_star.doubled
    _check_class_args(n, d)
    regime, bound = _t32_regime(n, d)
    if regime == "i":
        return RegimePrediction(regime, bound, (complete(n),), n != 1)
    if regime == "ii":
        return RegimePrediction(regime, bound, (_g1_hub(n, d),), True)
    b = d // 2
    attained = d % 2 == 0 and (d >= 2 or n == 1)
    notes = ()
    if not attained:
        notes = (
            "bound is strict: the split join has fractional matching number "
            f"{b}, below {beta_star}, so no graph in the class attains it",
        )
    return RegimePrediction(regime, bound, (_g2_split_join(n, d),), attained, notes)


def _t33_regime(n: int, d: int) -> tuple[str, float]:
    """(regime, bound) of t33's class 2*beta_star = d; builds no graph."""
    if d == n:
        return "1", float(n - 1)
    pivot = 3 * ((d + 1) // 2) - 1
    if n < pivot:
        return "2", float(d - 1)
    if n == pivot:
        return "3", float(d - 1)
    return "4", rho_join_formula(n, d // 2)


def predicted_maximizer_general(n: int, beta_star: HalfIntegral) -> RegimePrediction:
    """Sharp spectral-radius bound over all graphs with this fractional matching number."""
    d = beta_star.doubled
    _check_class_args(n, d)
    regime, bound = _t33_regime(n, d)
    if regime == "1":
        return RegimePrediction(regime, bound, (complete(n),), n != 1)
    clique_note = "stated bound 2*beta_star is not attained; the clique union attains 2*beta_star - 1"
    if regime == "2":
        return RegimePrediction(regime, bound, (_g3_clique_union(n, d),), d != 1, (clique_note,))
    if regime == "3":
        g2 = _g2_split_join(n, d)
        g3 = _g3_clique_union(n, d)
        graphs = (g2,) if g2 == g3 else (g2, g3)
        notes = [clique_note]
        if d % 2:
            notes.append(
                f"tie partner has fractional matching number {d // 2}, below {beta_star}; "
                "only the clique union attains the bound inside the class"
            )
        return RegimePrediction(regime, bound, graphs, d != 1, tuple(notes))
    b = d // 2
    attained = d % 2 == 0
    notes = ()
    if not attained:
        notes = (
            "bound is strict: the split join has fractional matching number "
            f"{b}, below {beta_star}, so no graph in the class attains it",
        )
    return RegimePrediction(regime, bound, (_g2_split_join(n, d),), attained, notes)


def _check_beta_args(n: int, beta: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if beta < 0:
        raise ValueError("matching number must be non-negative")
    if 2 * beta > n:
        raise ValueError(f"2*beta = {2 * beta} exceeds n = {n}")


def _t12_regime(n: int, beta: int) -> tuple[str, float]:
    """(regime, bound) of t12's class with matching number beta; builds no graph."""
    if n <= 2 * beta + 1:
        return "1", float(n - 1)
    if n < 3 * beta + 2:
        return "2", float(2 * beta)
    if n == 3 * beta + 2:
        return "3", float(2 * beta)
    return "4", rho_join_formula(n, beta)


def matching_bound_general(n: int, beta: int) -> RegimePrediction:
    """Sharp spectral-radius bound over all graphs with matching number beta."""
    _check_beta_args(n, beta)
    regime, bound = _t12_regime(n, beta)
    if regime == "1":
        return RegimePrediction(regime, bound, (complete(n),), True)
    clique = _g3_clique_union(n, 2 * beta + 1)
    if regime == "2":
        return RegimePrediction(regime, bound, (clique,), True)
    g_join = _g2_split_join(n, 2 * beta)
    if regime == "3":
        graphs = (g_join,) if g_join == clique else (g_join, clique)
        return RegimePrediction(regime, bound, graphs, True)
    return RegimePrediction(regime, bound, (g_join,), True)


def _t13_regime(n: int, beta: int) -> tuple[str, float]:
    """(regime, bound) of t13's connected class with matching number beta; builds no graph."""
    if n <= 2 * beta + 1:
        return "1", float(n - 1)
    if n <= 3 * beta - 1:  # the hub family's quotient cubic
        return "2", theta_cubic(n, HalfIntegral(2 * beta + 1))
    return "3", rho_join_formula(n, beta)


def matching_bound_connected(n: int, beta: int) -> RegimePrediction:
    """Sharp spectral-radius bound over connected graphs with matching number beta."""
    _check_beta_args(n, beta)
    regime, bound = _t13_regime(n, beta)
    if regime == "1":
        return RegimePrediction(regime, bound, (complete(n),), True)
    if regime == "3":
        return RegimePrediction(regime, bound, (_g2_split_join(n, 2 * beta),), True)
    # the stated cubic has two degree-one terms; its literal largest root is
    # logged here as a diagnostic rather than used
    literal = largest_real_root((1, 0, 3 - 2 * beta - n, 2 * (beta - 1) * (n - 2 * beta)))
    notes = (
        f"stated cubic read literally has largest root {literal:.12g}; "
        f"the hub-family quotient gives {bound:.12g}, which is used",
    )
    return RegimePrediction(regime, bound, (_g1_hub(n, 2 * beta + 1),), True, notes)


def quotient_cubic_matches_family(n: int, beta_star: HalfIntegral) -> bool:
    """Coefficient-level identity between the s=1 family cubic and theta_cubic."""
    return char_poly_f_coeffs(n, beta_star, 1) == theta_cubic_coeffs(n, beta_star)
