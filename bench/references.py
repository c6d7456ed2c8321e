"""Independent reference answers for the benchmark's checks.

Nothing here calls specmatch.  The counts and class bounds that do not
depend on the seed are stored in ``references.json`` next to this file;
remake it with

    python3 bench/references.py

The answers that depend on the seed (the query-mix graphs) are computed in
every run by the functions below, outside the timed region.

Sources: connected labeled graph counts follow OEIS A001187 through the
exponential formula; a graph has a fractional perfect matching exactly when
removing any vertex set S leaves at most |S| isolated vertices
(Scheinerman & Ullman, *Fractional Graph Theory*, thm 2.2.4), and the same
deficiency gives 2 beta* = n - max_S (i(G - S) - |S|).  Thresholds are the
largest real roots, by ``numpy.roots``, of the characteristic polynomials of
the paper's quotient matrices, or the closed form for the split join
K_b v (n - b)K_1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("references.json")
THEOREMS = ("t32", "t33", "t12", "t13")
MAX_N = 6  # the largest order battery-n6 sweeps


# ---------------------------------------------------------------------------
# counts


def labeled_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def connected_counts(max_n: int) -> dict[int, int]:
    """Connected labeled graphs on n vertices (OEIS A001187), n = 1..max_n."""
    c: dict[int, int] = {}
    for n in range(1, max_n + 1):
        disconnected = sum(math.comb(n - 1, k - 1) * c[k] * labeled_count(n - k) for k in range(1, n))
        c[n] = labeled_count(n) - disconnected
    return c


def _all_rows(n: int) -> np.ndarray:
    """Neighbour bitsets of every labeled graph on n vertices, one row per mask."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    masks = np.arange(labeled_count(n), dtype=np.int64)
    rows = np.zeros((masks.size, n), dtype=np.int64)
    for bit, (i, j) in enumerate(pairs):
        on = (masks >> bit) & 1
        rows[:, i] |= on << j
        rows[:, j] |= on << i
    return rows


def fpm_count(n: int) -> int:
    """Labeled graphs on n vertices in which every S leaves i(G - S) <= |S|."""
    rows = _all_rows(n)
    ok = np.ones(rows.shape[0], dtype=bool)
    for s in range(1 << n):
        isolated = np.zeros(rows.shape[0], dtype=np.int64)
        for v in range(n):
            if not s >> v & 1:
                isolated += (rows[:, v] & ~s) == 0
        ok &= isolated <= s.bit_count()
    return int(ok.sum())


# ---------------------------------------------------------------------------
# thresholds and class bounds


def join_rho(n: int, b: int) -> float:
    """Spectral radius of the split join K_b v (n - b)K_1."""
    return (b - 1 + math.sqrt((b - 1) ** 2 + 4 * b * (n - b))) / 2.0


def largest_root(coeffs) -> float:
    roots = np.roots(np.asarray(coeffs, dtype=float))
    real = roots[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots.real))].real
    return float(real.max())


def hub_threshold(n: int, d: int) -> float:
    """rho of the hub family K_1 v (K_{d-2} u (n-d+1)K_1), via its quotient matrix."""
    quotient = np.array([[0, d - 2, n - d + 1], [1, d - 3, 0], [1, 0, 0]], dtype=float)
    return largest_root(np.poly(quotient))


def theta(n: int) -> float:
    """The paper's theta(n): largest root of x^3 - (n-4)x^2 - (n-1)x + 2(n-4)."""
    return largest_root([1, -(n - 4), -(n - 1), 2 * (n - 4)])


def class_bound(theorem: str, n: int, key: int) -> float:
    """The sharp bound on rho over the class; key is 2 beta* (t32, t33) or 2 beta (t12, t13)."""
    if theorem in ("t32", "t33"):
        d = key
        if d == n:
            return float(n - 1)
        ceil_b = (d + 1) // 2
        if theorem == "t32":
            return hub_threshold(n, d) if n < 3 * ceil_b - 3 else join_rho(n, d // 2)
        return float(d - 1) if n <= 3 * ceil_b - 1 else join_rho(n, d // 2)
    beta = key // 2
    if n <= 2 * beta + 1:
        return float(n - 1)
    if theorem == "t12":
        return float(2 * beta) if n <= 3 * beta + 2 else join_rho(n, beta)
    if theorem == "t13":
        return hub_threshold(n, 2 * beta + 1) if n <= 3 * beta - 1 else join_rho(n, beta)
    raise ValueError(f"unknown theorem {theorem!r}")


def certificate_threshold(kind: str, param: int, n: int, delta: int) -> float | None:
    """Threshold of the certificate with this guarantee, or None where none is stated.

    kind/param name the certificate: "fpm_min_degree" (fires below
    delta * sqrt((n+1)/(n-1))), "fpm", "pm", "beta_star_geq" with param =
    2 beta* + 1 of the target, "beta_geq" with param = beta + 1.
    Connectivity is not tested here.
    """
    if kind == "fpm_min_degree":
        return delta * math.sqrt((n + 1) / (n - 1)) if n >= 2 else None
    if kind == "fpm":
        if n < 3:
            return None
        return theta(n) if n >= 8 and n != 9 else join_rho(n, (n - 1) // 2)
    if kind == "pm":
        if n % 2 or n < 4:
            return None
        return join_rho(n, n // 2 - 1) if n in (4, 6) else theta(n)
    if kind == "beta_star_geq":
        k = param - 1
        if n < 3:
            return None
        if k % 2 == 0 and 3 * k > 2 * n + 6 and n >= 11:
            return hub_threshold(n, k)
        if k % 2 == 1 and 3 * k > 2 * n + 3 and n >= 8 and n != 9:
            return hub_threshold(n, k)
        return join_rho(n, k // 2) if 3 * ((k + 1) // 2) <= n + 3 else None
    if kind == "beta_geq":
        b = param - 1
        if 3 * b >= n + 1 and 2 * b <= n - 2 and n >= 8:
            return hub_threshold(n, 2 * b + 1)
        return join_rho(n, b) if 3 * b <= n else None
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# single-graph answers


def adjacency(rows, n: int) -> np.ndarray:
    """Dense 0/1 adjacency matrix from neighbour bitsets."""
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes), axis=1, bitorder="little")
    return bits[:, :n].astype(np.float64)


def rho_eigvalsh(rows, n: int) -> float:
    return float(np.linalg.eigvalsh(adjacency(rows, n))[-1])


def beta_networkx(rows, n: int) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in _bits(rows[u] >> (u + 1) << (u + 1)))
    return len(nx.max_weight_matching(g, maxcardinality=True))


def beta_star_doubled(rows, n: int) -> int:
    """2 beta* by the fractional Tutte-Berge formula, over all 2^n sets S."""
    worst = 0
    for s in range(1 << n):
        isolated = sum(1 for v in range(n) if not s >> v & 1 and not rows[v] & ~s)
        worst = max(worst, isolated - s.bit_count())
    return n - worst


def is_connected(rows, n: int) -> bool:
    if n == 0:
        return False
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# the stored file


def build() -> dict:
    connected = connected_counts(MAX_N)
    bounds = {}
    for theorem in THEOREMS:
        step = 1 if theorem in ("t32", "t33") else 2
        for n in range(3, MAX_N + 1):
            for key in range(0, n + 1, step):
                bounds[f"{theorem}/{n}/{key}"] = class_bound(theorem, n, key)
    return {
        "labeled": {str(n): labeled_count(n) for n in range(1, MAX_N + 1)},
        "connected": {str(n): c for n, c in connected.items()},
        "fpm_graphs": {str(n): fpm_count(n) for n in range(1, MAX_N + 1)},
        "class_bounds": bounds,
        "tie_class_n8_max_rho": class_bound("t33", 8, 5),
    }


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
