"""Spectral radius per component, by Lanczos from the all-ones vector with a
dense eigensolver as fallback; equitable quotients, characteristic polynomials.

The Perron vector of a connected component is positive, so the all-ones start
is never orthogonal to it, and its Krylov space lies in the span of the cells
of the coarsest equitable partition: K_n and C_n end after 1 step, stars and
K_{a,b} after 2, the theta(n) graph after 3, random graphs and trees after
tens.  Paths, whose small spectral gap needs about n/2 steps, and components
of at most ``LANCZOS_STEPS`` vertices go to the dense solver, which computes
all eigenvectors to keep one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, GraphError, components, dense_rows
from .halfint import HalfIntegral
from .roots import largest_real_root

DEFAULT_TOL = 1e-10
CHARPOLY_CAP = 16
# Lanczos step budget.  Up to 2048 vertices, G(n, 6/n) settles within 37
# steps, random trees within 74 and the giant component of G(n, 2/n) within
# 93; paths need about n/2 and go to the dense solver, to which the budget's
# 128 products add about 14% at 2048 vertices.
LANCZOS_STEPS = 128


class ConvergenceError(RuntimeError):
    """The eigenpair missed the residual target; carries the estimate and its residual."""

    def __init__(self, message: str, best: float, residual: float, iterations: int):
        super().__init__(f"{message}: best estimate {best!r}, residual {residual!r} after {iterations} iterations")
        self.best = best
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class RhoResult:
    value: float
    residual: float
    iterations: int
    component_index: int
    vector: tuple[float, ...]


def _polish(a: np.ndarray, x: np.ndarray) -> tuple[float, float, np.ndarray]:
    # eigh alone leaves residuals near 1e-10 at n = 2000; one step of A + I
    # from a top eigenvector (A + I keeps a bipartite component's -rho below
    # rho) and a Rayleigh quotient bring them to rounding level
    x = x / x[np.argmax(np.abs(x))]
    y = a @ x + x
    x = y / y.max()
    ax = a @ x
    r = float(x @ ax) / float(x @ x)
    return r, float(np.max(np.abs(ax - r * x))), x


def _lanczos_pair(a: np.ndarray, tol: float) -> tuple[float, float, np.ndarray] | None:
    """Polished top Ritz pair of Lanczos from the all-ones vector, or None.

    Full reorthogonalisation (two classical Gram-Schmidt passes against the
    stored basis) keeps the basis orthonormal.  The top Ritz pair of the
    tridiagonal T is checked at geometrically spaced step counts and polished
    once its residual estimate beta_k*|y_k| is within tol, or once the Krylov
    space is exhausted (beta_k about 0).  None when no polished pair is
    positive with a residual within tol after LANCZOS_STEPS steps, or at
    exhaustion.
    """
    n = a.shape[0]
    basis = np.empty((LANCZOS_STEPS + 1, n))
    basis[0] = 1.0 / np.sqrt(n)
    alpha = np.empty(LANCZOS_STEPS)
    beta = np.empty(LANCZOS_STEPS)
    check = 1
    for k in range(LANCZOS_STEPS):
        q = basis[: k + 1]
        w = a @ q[k]
        alpha[k] = q[k] @ w
        w -= (q @ w) @ q
        w -= (q @ w) @ q
        beta[k] = np.linalg.norm(w)
        # alpha[0] is the mean degree, the scale of the rounding left in w
        exhausted = beta[k] <= 1e-8 * alpha[0]
        if exhausted or k + 1 in (check, LANCZOS_STEPS):
            check += check // 4 + 1
            t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1)  # eigh reads the lower triangle
            y = np.linalg.eigh(t)[1][:, -1]
            if exhausted or beta[k] * abs(y[-1]) <= tol:
                r, resid, x = _polish(a, y @ q)
                # only the Perron vector is positive (Perron-Frobenius), so a
                # Ritz pair that settled on a lower eigenvalue is not taken
                if resid <= tol and x.min() > 0:
                    return r, resid, x
            if exhausted:
                return None
        basis[k + 1] = w / beta[k]
    return None


def _perron_pair(a: np.ndarray, tol: float) -> tuple[float, float, np.ndarray]:
    if a.shape[0] > LANCZOS_STEPS:
        pair = _lanczos_pair(a, tol)
        if pair is not None:
            return pair
    r, resid, x = _polish(a, np.linalg.eigh(a)[1][:, -1])
    if resid > tol:
        raise ConvergenceError("eigenpair residual above tolerance", r, resid, 1)
    return r, resid, x


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> RhoResult:
    """Largest adjacency eigenvalue, computed per connected component.

    A component with more than ``LANCZOS_STEPS`` vertices runs Lanczos from
    the all-ones vector; a smaller one, or one whose Lanczos pair misses
    ``tol`` within ``LANCZOS_STEPS`` steps, goes to a dense symmetric
    eigensolver.  The top eigenvector, scaled to inf-norm one, takes one
    polishing step of A + I and the value is the Rayleigh quotient.  The
    result satisfies ``max|Ax - value*x| <= tol`` for the returned (inf-norm
    one) vector, else ConvergenceError.  ``iterations`` counts polishing
    steps.  Nothing is kept between calls.
    """
    if g.n == 0:
        raise GraphError("spectral radius undefined for the empty graph")
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    best: tuple[float, float, int, int, list[int], np.ndarray] | None = None
    for idx, comp in enumerate(components(g)):
        verts = sorted(comp)
        if len(verts) == 1:
            cand = (0.0, 0.0, 0, idx, verts, np.ones(1))
        else:
            a = dense_rows([g.rows[v] for v in verts], g.n)[:, verts].astype(np.float64)
            value, resid, vec = _perron_pair(a, tol)
            cand = (value, resid, 1, idx, verts, vec)
        if best is None or cand[0] > best[0]:
            best = cand
    assert best is not None
    value, resid, iters, idx, verts, vec = best
    full = np.zeros(g.n)
    full[verts] = vec
    return RhoResult(value, resid, iters, idx, tuple(full.tolist()))


# ---------------------------------------------------------------------------
# equitable partitions


@dataclass(frozen=True)
class QuotientMatrix:
    k: int
    entries: tuple[tuple[int, ...], ...]
    cell_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.k != len(self.entries) or self.k != len(self.cell_sizes):
            raise GraphError("quotient matrix shape mismatch")
        for i, row in enumerate(self.entries):
            if len(row) != self.k:
                raise GraphError("quotient matrix must be square")
            for j, b in enumerate(row):
                if b < 0 or b > self.cell_sizes[j]:
                    raise GraphError(f"entry b[{i}][{j}]={b} exceeds cell size {self.cell_sizes[j]}")
        # edge double count between distinct cells
        for i in range(self.k):
            for j in range(self.k):
                if i != j and self.cell_sizes[i] * self.entries[i][j] != self.cell_sizes[j] * self.entries[j][i]:
                    raise GraphError(f"inconsistent edge counts between cells {i} and {j}")


def adjacency_quotient(g: Graph, partition: Iterable[Iterable[int]]) -> QuotientMatrix:
    """Verify equitability and return the quotient matrix; empty cells are dropped."""
    cells = [tuple(sorted(set(c))) for c in partition]
    cells = [c for c in cells if c]
    seen = 0
    for c in cells:
        for v in c:
            if not 0 <= v < g.n:
                raise GraphError(f"partition vertex {v} out of range")
            if seen >> v & 1:
                raise GraphError(f"partition cells overlap at vertex {v}")
            seen |= 1 << v
    if seen != (1 << g.n) - 1:
        raise GraphError("partition does not cover the vertex set")
    masks = [sum(1 << v for v in c) for c in cells]
    entries = []
    for i, cell in enumerate(cells):
        row0 = [(g.rows[cell[0]] & masks[j]).bit_count() for j in range(len(cells))]
        for v in cell[1:]:
            for j in range(len(cells)):
                bij = (g.rows[v] & masks[j]).bit_count()
                if bij != row0[j]:
                    raise GraphError(
                        f"partition not equitable: vertex {v} has {bij} neighbours in cell {j}, "
                        f"cell {i} requires {row0[j]}"
                    )
        entries.append(tuple(row0))
    return QuotientMatrix(len(cells), tuple(entries), tuple(len(c) for c in cells))


def quotient_spectral_radius(q: QuotientMatrix, tol: float = DEFAULT_TOL) -> float:
    """Largest eigenvalue of the quotient; equals the graph's spectral radius."""
    if q.k == 0:
        raise GraphError("empty quotient matrix")
    if q.k <= 3:
        return largest_real_root(charpoly_int([list(r) for r in q.entries]))
    # cell-size similarity D^{1/2} Q D^{-1/2} is symmetric for equitable quotients
    d = np.sqrt(np.asarray(q.cell_sizes, dtype=np.float64))
    s = np.asarray(q.entries, dtype=np.float64) * (d[:, None] / d[None, :])
    s = 0.5 * (s + s.T)
    return float(np.linalg.eigvalsh(s)[-1])


# ---------------------------------------------------------------------------
# characteristic polynomials


def charpoly_int(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact integer coefficients of det(xI - M), descending powers.

    Faddeev-LeVerrier recursion; every division is exact over the integers.
    """
    k = len(mat)
    for row in mat:
        if len(row) != k:
            raise ValueError("matrix must be square")
    coeffs = [1]
    m = [[0] * k for _ in range(k)]
    c = 1
    for j in range(1, k + 1):
        for i in range(k):
            m[i][i] += c
        m = [[sum(mat[i][l] * m[l][r] for l in range(k)) for r in range(k)] for i in range(k)]
        tr = sum(m[i][i] for i in range(k))
        if tr % j:
            raise ArithmeticError("non-exact division in characteristic polynomial recursion")
        c = -tr // j
        coeffs.append(c)
    return tuple(coeffs)


def exact_char_poly(g: Graph) -> tuple[int, ...]:
    """Exact coefficients of det(xI - A(G)), descending powers; n <= 16."""
    if g.n > CHARPOLY_CAP:
        raise GraphError(f"exact characteristic polynomial capped at n <= {CHARPOLY_CAP}, got {g.n}")
    mat = [[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)]
    return charpoly_int(mat)


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide integer polynomials (descending coefficients); den must be monic."""
    den = list(den)
    if not den or den[0] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    quo: list[int] = []
    dn = len(den) - 1
    while len(rem) - 1 >= dn and rem:
        lead = rem[0]
        quo.append(lead)
        for i in range(dn + 1):
            rem[i] -= lead * den[i]
        assert rem[0] == 0
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return tuple(quo), tuple(rem)


def char_poly_f_coeffs(n: int, beta_star: HalfIntegral, s: int) -> tuple[int, int, int, int]:
    """Integer coefficients of the hub-family quotient cubic, descending powers."""
    d = beta_star.doubled
    c2 = -(d - s - 2)
    c1 = d * s - s * s - d + s - s * n + 1
    c0 = -d * d * s + d * n * s + 3 * d * s * s - 2 * n * s * s - 2 * s**3 + d * s - s * n - s * s
    return (1, c2, c1, c0)


def char_poly_g_coeffs(n: int, b: int) -> tuple[int, int, int]:
    return (1, -(b - 1), -b * (n - b))
