"""Largest real root of degree <= 3 polynomials by bracketing and bisection."""

from __future__ import annotations

import math

BISECT_WIDTH = 1e-13


class NoRealRootError(ValueError):
    pass


def _eval(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def largest_real_root(coeffs) -> float:
    """Largest real root of a polynomial given by descending coefficients.

    Brackets the root (critical points isolate the rightmost sign change),
    bisects to width 1e-13 or to adjacent floats, whichever comes first, and
    applies one Newton polish.  Deterministic.  A coefficient or a root
    beyond the float range raises ValueError, as does a bracketing step
    that overflows.
    """
    try:
        x = _largest_root([float(v) for v in coeffs])
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError("the polynomial's coefficients or root lie beyond the float range")
    return x


def _largest_root(c: list[float]) -> float:
    if not c or c[0] == 0.0:
        raise ValueError("leading coefficient must be non-zero")
    if c[0] < 0:
        c = [-v for v in c]
    deg = len(c) - 1
    if deg == 0:
        raise ValueError("constant polynomial has no roots")
    if deg == 1:
        return -c[1] / c[0]
    if deg > 3:
        raise ValueError(f"only degrees 1..3 supported, got {deg}")

    bound = 1.0 + max(abs(v) for v in c[1:]) / c[0]
    if deg == 2:
        a, b, c0 = c
        disc = b * b - 4.0 * a * c0
        if disc < 0:
            raise NoRealRootError("quadratic has no real root")
        lo, hi = -b / (2.0 * a), bound
    else:
        # rightmost interval where a monic cubic can still cross zero
        disc = (2.0 * c[1]) ** 2 - 12.0 * c[0] * c[2]
        if disc <= 0:
            lo, hi = -bound, bound
        else:
            r = math.sqrt(disc)
            crit_lo = (-2.0 * c[1] - r) / (6.0 * c[0])
            crit_hi = (-2.0 * c[1] + r) / (6.0 * c[0])
            p_hi = _eval(c, crit_hi)
            # tolerance absorbs float noise when the local minimum is a tangency
            tangent_tol = 1e-12 * (1.0 + max(abs(v) for v in c)) * max(1.0, abs(crit_hi)) ** 3
            if p_hi <= tangent_tol:
                lo, hi = crit_hi, bound
            else:
                lo, hi = -bound, crit_lo

    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: roots >= 512 are spaced wider than the width
            break
        if _eval(c, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)

    deriv = [v * (deg - i) for i, v in enumerate(c[:-1])]
    d = _eval(deriv, x)
    if d != 0.0:
        x2 = x - _eval(c, x) / d
        if abs(_eval(c, x2)) <= abs(_eval(c, x)):
            x = x2
    return x
