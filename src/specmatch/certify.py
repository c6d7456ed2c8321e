"""Spectral certificates: threshold tests that force matching structure.

Each certificate checks a strict spectral inequality against an explicit
threshold and, when it fires, guarantees a matching property.  One table,
``certificate_table(n, connected)``, lists every certificate of an order in
report order, ``decide`` is the one firing rule and ``_guarantee_holds``
the one guarantee rule: certify_all and the ``cert_*`` functions apply them
to one graph, the exhaustive sweep in ``verify`` to whole numpy columns.
Each spectral threshold is the largest rho of the connected class one step
below its guarantee, read from the class bounds in ``extremal``: fpm is the
t32 bound at 2*beta_star = n - 1, ``beta-star-increment(k/2)`` the t32
bound at 2*beta_star = k, pm the t13 bound at beta = n/2 - 1 and
``beta-increment(b)`` the t13 bound at beta = b.  Comparisons use a guard
band of 1e-9: values inside the band count as "at threshold" and never
fire, since the hypotheses are strict inequalities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .extremal import _t13_regime, _t32_regime
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
# thresholds and the certificate table (single source of truth: certify_all,
# the cert_* functions and the certificate sweep in verify all read it)


def fpm_threshold(n: int) -> float | None:
    """Spectral threshold above which a connected n-vertex graph has a
    fractional perfect matching; None when no threshold is stated."""
    return _t32_regime(n, n - 1)[1] if n >= 3 else None


def pm_threshold(n: int) -> float | None:
    """Spectral threshold above which a connected even-order graph has a
    perfect matching; None for odd or tiny n."""
    if n % 2 or n < 4:
        return None
    return _t13_regime(n, n // 2 - 1)[1]


def beta_star_increment_case(n: int, target_doubled: int) -> tuple[str, float]:
    """Case and threshold of the beta* increment certificate: the t32 bound
    of the class 2*beta_star = target_doubled, tagged by its regime (the
    hub-family cubic, by the target's parity, or the split join)."""
    regime, bound = _t32_regime(n, target_doubled)
    if regime == "ii":
        return ("cubic-odd" if target_doubled % 2 else "cubic-even", bound)
    return ("join", bound)


@dataclass(frozen=True)
class Certificate:
    """One row of the certificate table for an order n and a connectivity flag.

    ``threshold`` is None when the certificate does not apply.  The row that
    fires below (min-degree) holds the factor that multiplies delta.
    """

    name: str
    kind: str
    param: int
    guarantee: str
    threshold: float | None
    below: bool = False


_FPM_GUARANTEE = "fractional perfect matching (2*beta_star = n)"


def _min_degree_row(n: int, connected: bool) -> Certificate:
    factor = math.sqrt((n + 1) / (n - 1)) if n >= 2 and connected else None
    return Certificate("min-degree-fpm", "fpm", 0, _FPM_GUARANTEE, factor, below=True)


def _fpm_row(n: int, connected: bool) -> Certificate:
    return Certificate("fpm-spectral", "fpm", 0, _FPM_GUARANTEE, fpm_threshold(n) if connected else None)


def _pm_row(n: int, connected: bool) -> Certificate:
    thr = pm_threshold(n) if connected else None
    return Certificate("pm-spectral", "pm", 0, "perfect matching (beta = n/2)", thr)


def _beta_star_row(n: int, connected: bool, k: int) -> Certificate:
    # the beta* increment certificate is stated for n >= 3 only
    thr = beta_star_increment_case(n, k)[1] if n >= 3 and connected else None
    return Certificate(f"beta-star-increment({HalfIntegral(k)})", "beta_star_geq", k + 1, f"2*beta_star >= {k + 1}", thr)


def _beta_row(n: int, connected: bool, beta: int) -> Certificate:
    thr = _t13_regime(n, beta)[1] if connected else None
    return Certificate(f"beta-increment({beta})", "beta_geq", beta + 1, f"beta >= {beta + 1}", thr)


def certificate_table(n: int, connected: bool) -> list[Certificate]:
    """Every certificate for an n-vertex graph, in report order: min-degree,
    fpm, pm, the beta* increments for 2*target = 1..n-1, then the beta
    increments for beta = 1..(n-2)/2."""
    return (
        [_min_degree_row(n, connected), _fpm_row(n, connected), _pm_row(n, connected)]
        + [_beta_star_row(n, connected, k) for k in range(1, n)]
        + [_beta_row(n, connected, b) for b in range(1, (n - 2) // 2 + 1)]
    )


def decide(cert: Certificate, rho: float, delta: int) -> tuple[float, bool, bool]:
    """(threshold, fired, at_threshold) of an applicable certificate.  rho and
    delta are scalars or numpy columns of equal length; the results are then
    columns too (threshold only where it scales with delta)."""
    if cert.below:
        thr = delta * cert.threshold
        return thr, rho < thr - GUARD, abs(rho - thr) <= GUARD
    thr = cert.threshold
    return thr, rho > thr + GUARD, abs(rho - thr) <= GUARD


def _record(cert: Certificate, rho: float | None, delta: int | None) -> CertificateRecord:
    if cert.threshold is None:
        return CertificateRecord(cert.name, False, False, cert.guarantee, kind=cert.kind, param=cert.param)
    thr, fired, at = decide(cert, rho, delta)
    return CertificateRecord(
        cert.name, True, fired, cert.guarantee, threshold=thr, at_threshold=at, kind=cert.kind, param=cert.param
    )


def _certify_one(g: Graph, cert: Certificate) -> CertificateRecord:
    if cert.threshold is None:
        return _record(cert, None, None)
    return _record(cert, spectral_radius(g).value, min_degree(g))


# ---------------------------------------------------------------------------
# certificates


def cert_min_degree_fpm(g: Graph) -> CertificateRecord:
    """Fires when rho < delta * sqrt((n+1)/(n-1)); guarantees 2*beta_star = n."""
    return _certify_one(g, _min_degree_row(g.n, is_connected(g)))


def cert_fpm_spectral(g: Graph) -> CertificateRecord:
    """Fires when rho exceeds the n-appropriate threshold; guarantees 2*beta_star = n."""
    return _certify_one(g, _fpm_row(g.n, is_connected(g)))


def cert_pm_spectral(g: Graph) -> CertificateRecord:
    """Fires when rho exceeds the even-n threshold; guarantees beta = n/2."""
    return _certify_one(g, _pm_row(g.n, is_connected(g)))


def cert_beta_star_increment(g: Graph, target: HalfIntegral) -> CertificateRecord:
    """Fires when rho exceeds the case threshold; guarantees beta* >= target + 1/2."""
    if not 1 <= target.doubled <= g.n - 1:
        raise ValueError(f"target {target} out of range for n={g.n} (need 1 <= 2*target <= n-1)")
    return _certify_one(g, _beta_star_row(g.n, is_connected(g), target.doubled))


def cert_beta_increment(g: Graph, beta: int) -> CertificateRecord:
    """Fires when rho exceeds the case threshold; guarantees beta(G) >= beta + 1."""
    if not 1 <= beta <= (g.n - 2) / 2:
        raise ValueError(f"beta {beta} out of range for n={g.n} (need 1 <= beta <= (n-2)/2)")
    return _certify_one(g, _beta_row(g.n, is_connected(g), beta))


def _guarantee_holds(kind: str, param: int, n: int, beta: int, beta_star_doubled: int) -> bool:
    """Whether the guarantee of a certificate row holds on an n-vertex graph
    with matching number beta.  beta and beta_star_doubled are scalars or
    numpy columns of equal length; the answer is then a boolean column."""
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
    connected = is_connected(g)
    rho = spectral_radius(g, tol).value if g.n else None
    delta = min_degree(g) if g.n else None
    records = [_record(cert, rho, delta) for cert in certificate_table(g.n, connected)]
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
        connected=connected,
        delta=delta,
        rho=rho,
        rho_tol=tol,
        beta=beta,
        beta_star_doubled=beta_star_doubled,
        certificates=records,
    )
