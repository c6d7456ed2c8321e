"""Spectral certificates: threshold tests that force matching structure.

Each certificate checks a strict spectral inequality against an explicit
threshold and, when it fires, guarantees a matching property.  Comparisons
use a guard band of 1e-9: values inside the band count as "at threshold"
and never fire, since the hypotheses are strict inequalities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .extremal import rho_join_formula, theta_cubic, theta_n
from .graphs import Graph, is_connected, min_degree, to_graph6
from .halfint import HalfIntegral
from .matching import fractional_matching_number, matching_number
from .spectral import DEFAULT_TOL, spectral_radius

GUARD = 1e-9


class SoundnessError(AssertionError):
    """A fired certificate whose guarantee is false; must never happen."""

    def __init__(self, graph_label: str, cert_name: str, detail: str):
        super().__init__(f"unsound certificate {cert_name} on {graph_label}: {detail}")
        self.graph_label = graph_label
        self.cert_name = cert_name


@dataclass
class CertificateRecord:
    name: str
    applicable: bool
    fired: bool
    guarantee: str
    truth: bool | None = None
    threshold: float | None = None
    at_threshold: bool = False
    kind: str = ""
    param: int = 0

    def to_contract_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "fired": self.fired,
            "guarantee": self.guarantee,
            "truth": self.truth,
        }


# ---------------------------------------------------------------------------
# threshold tables (single source of truth, shared with the sweep harness)


def fpm_threshold(n: int) -> float | None:
    """Spectral threshold above which a connected n-vertex graph has a
    fractional perfect matching; None when no threshold is stated."""
    if n < 3:
        return None
    if n >= 8 and n != 9:
        return theta_n(n)
    return rho_join_formula(n, (n - 1) // 2)


def pm_threshold(n: int) -> float | None:
    """Spectral threshold above which a connected even-order graph has a
    perfect matching; None for odd or tiny n."""
    if n % 2 or n < 4:
        return None
    if n == 4:
        return rho_join_formula(4, 1)
    if n == 6:
        return rho_join_formula(6, 2)
    return theta_n(n)


def beta_star_increment_case(n: int, target_doubled: int) -> tuple[str, float] | None:
    """Case selection for the beta* increment certificate.

    Integer targets above (n+3)/3 (n >= 11) and half-odd targets above
    (2n+3)/6 (n >= 8, n != 9) use the hub-family cubic; targets with ceiling
    at most (n+3)/3 use the split-join threshold.
    """
    k = target_doubled
    if k % 2 == 0:
        if 3 * k > 2 * n + 6 and n >= 11:
            return ("cubic-even", theta_cubic(n, HalfIntegral(k)))
    else:
        if 3 * k > 2 * n + 3 and n >= 8 and n != 9:
            return ("cubic-odd", theta_cubic(n, HalfIntegral(k)))
    if 3 * ((k + 1) // 2) <= n + 3:
        return ("join", rho_join_formula(n, k // 2))
    return None


def beta_increment_case(n: int, beta: int) -> tuple[str, float] | None:
    """Case selection for the matching-number increment certificate."""
    if 3 * beta >= n + 1 and 2 * beta <= n - 2 and n >= 8:
        return ("cubic", theta_cubic(n, HalfIntegral(2 * beta + 1)))
    if 3 * beta <= n:
        return ("join", rho_join_formula(n, beta))
    return None


def _fire_above(rho: float, threshold: float) -> tuple[bool, bool]:
    return rho > threshold + GUARD, abs(rho - threshold) <= GUARD


def _fire_below(rho: float, threshold: float) -> tuple[bool, bool]:
    return rho < threshold - GUARD, abs(rho - threshold) <= GUARD


def _rho_of(g: Graph, rho: float | None) -> float:
    return rho if rho is not None else spectral_radius(g).value


# ---------------------------------------------------------------------------
# certificates


def cert_min_degree_fpm(g: Graph, *, rho: float | None = None) -> CertificateRecord:
    """Fires when rho < delta * sqrt((n+1)/(n-1)); guarantees 2*beta_star = n."""
    name = "min-degree-fpm"
    guarantee = "fractional perfect matching (2*beta_star = n)"
    if g.n < 2 or not is_connected(g):
        return CertificateRecord(name, False, False, guarantee, kind="fpm")
    r = _rho_of(g, rho)
    bound = min_degree(g) * math.sqrt((g.n + 1) / (g.n - 1))
    fired, at = _fire_below(r, bound)
    return CertificateRecord(name, True, fired, guarantee, threshold=bound, at_threshold=at, kind="fpm")


def cert_fpm_spectral(g: Graph, *, rho: float | None = None) -> CertificateRecord:
    """Fires when rho exceeds the n-appropriate threshold; guarantees 2*beta_star = n."""
    name = "fpm-spectral"
    guarantee = "fractional perfect matching (2*beta_star = n)"
    thr = fpm_threshold(g.n) if is_connected(g) else None
    if thr is None:
        return CertificateRecord(name, False, False, guarantee, kind="fpm")
    r = _rho_of(g, rho)
    fired, at = _fire_above(r, thr)
    return CertificateRecord(name, True, fired, guarantee, threshold=thr, at_threshold=at, kind="fpm")


def cert_pm_spectral(g: Graph, *, rho: float | None = None) -> CertificateRecord:
    """Fires when rho exceeds the even-n threshold; guarantees beta = n/2."""
    name = "pm-spectral"
    guarantee = "perfect matching (beta = n/2)"
    thr = pm_threshold(g.n) if is_connected(g) else None
    if thr is None:
        return CertificateRecord(name, False, False, guarantee, kind="pm")
    r = _rho_of(g, rho)
    fired, at = _fire_above(r, thr)
    return CertificateRecord(name, True, fired, guarantee, threshold=thr, at_threshold=at, kind="pm")


def cert_beta_star_increment(g: Graph, target: HalfIntegral, *, rho: float | None = None) -> CertificateRecord:
    """Fires when rho exceeds the case threshold; guarantees beta* >= target + 1/2."""
    k = target.doubled
    name = f"beta-star-increment({target})"
    guarantee = f"2*beta_star >= {k + 1}"
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"target {target} out of range for n={g.n} (need 1 <= 2*target <= n-1)")
    case = beta_star_increment_case(g.n, k) if g.n >= 3 and is_connected(g) else None
    if case is None:
        return CertificateRecord(name, False, False, guarantee, kind="beta_star_geq", param=k + 1)
    tag, thr = case
    r = _rho_of(g, rho)
    fired, at = _fire_above(r, thr)
    return CertificateRecord(
        name, True, fired, guarantee, threshold=thr, at_threshold=at, kind="beta_star_geq", param=k + 1
    )


def cert_beta_increment(g: Graph, beta: int, *, rho: float | None = None) -> CertificateRecord:
    """Fires when rho exceeds the case threshold; guarantees beta(G) >= beta + 1."""
    name = f"beta-increment({beta})"
    guarantee = f"beta >= {beta + 1}"
    if not 1 <= beta <= (g.n - 2) / 2:
        raise ValueError(f"beta {beta} out of range for n={g.n} (need 1 <= beta <= (n-2)/2)")
    case = beta_increment_case(g.n, beta) if is_connected(g) else None
    if case is None:
        return CertificateRecord(name, False, False, guarantee, kind="beta_geq", param=beta + 1)
    tag, thr = case
    r = _rho_of(g, rho)
    fired, at = _fire_above(r, thr)
    return CertificateRecord(name, True, fired, guarantee, threshold=thr, at_threshold=at, kind="beta_geq", param=beta + 1)


def _guarantee_holds(kind: str, param: int, n: int, beta: int, beta_star_doubled: int) -> bool:
    if kind == "fpm":
        return beta_star_doubled == n
    if kind == "pm":
        return beta == n // 2
    if kind == "beta_star_geq":
        return beta_star_doubled >= param
    if kind == "beta_geq":
        return beta >= param
    raise ValueError(f"unknown guarantee kind {kind!r}")


@dataclass
class CertificateReport:
    graph: str
    n: int
    connected: bool
    delta: int | None
    rho: float | None
    rho_tol: float
    beta: int | None
    beta_star_doubled: int | None
    certificates: list[CertificateRecord] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "graph": self.graph,
            "n": self.n,
            "connected": self.connected,
            "delta": self.delta,
            "rho": self.rho,
            "rho_tol": self.rho_tol,
            "beta": self.beta,
            "beta_star_doubled": self.beta_star_doubled,
            "certificates": [rec.to_contract_dict() for rec in self.certificates],
        }
        return json.dumps(payload, indent=2)


def graph_label(g: Graph) -> str:
    if g.n <= 62:
        return to_graph6(g)
    return f"n={g.n},m={g.edge_count()}"


def certify_all(g: Graph, verify_truth: bool | None = None, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Run every certificate with all valid default targets.

    With verify_truth (default on for n <= 12) the ground truth beta and
    beta* are computed and every fired certificate is asserted sound.
    """
    if verify_truth is None:
        verify_truth = g.n <= 12
    rho = spectral_radius(g, tol).value if g.n else None
    records = [
        cert_min_degree_fpm(g, rho=rho),
        cert_fpm_spectral(g, rho=rho),
        cert_pm_spectral(g, rho=rho),
    ]
    for k in range(1, g.n):
        records.append(cert_beta_star_increment(g, HalfIntegral(k), rho=rho))
    for b in range(1, (g.n - 2) // 2 + 1):
        records.append(cert_beta_increment(g, b, rho=rho))
    beta = beta_star_doubled = None
    if verify_truth:
        beta = matching_number(g).size
        beta_star_doubled = fractional_matching_number(g).doubled
        for rec in records:
            if not rec.applicable:
                continue
            rec.truth = _guarantee_holds(rec.kind, rec.param, g.n, beta, beta_star_doubled)
            if rec.fired and not rec.truth:
                raise SoundnessError(graph_label(g), rec.name, rec.guarantee)
    return CertificateReport(
        graph=graph_label(g),
        n=g.n,
        connected=is_connected(g),
        delta=min_degree(g) if g.n else None,
        rho=rho,
        rho_tol=tol,
        beta=beta,
        beta_star_doubled=beta_star_doubled,
        certificates=records,
    )
