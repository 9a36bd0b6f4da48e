"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, with no code
shared with the package: exact rational arithmetic where possible, plain
loops elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rational_cf_quotients(p: int, q: int) -> list[int]:
    """Partial quotients of p/q in (0,1) by the textbook Euclidean algorithm."""
    out = []
    a, b = q, p
    while b:
        d, r = divmod(a, b)
        out.append(d)
        a, b = b, r
    return out


def circle_dist_fraction(x: Fraction) -> Fraction:
    """Distance from a rational point to the nearest integer."""
    x = x - int(x)
    if x < 0:
        x += 1
    return min(x, 1 - x)


def rotation_orbit_fraction(alpha: Fraction, omega: Fraction, n: int) -> Fraction:
    """n-th point of the rotation orbit, reduced mod 1, exactly."""
    x = (omega + n * alpha) % 1
    return x


def iet_orbit_fraction(lengths, images, omega, n: int) -> list[Fraction]:
    """[T^k omega for k = 0..n] of an interval exchange by literal stepping.

    Works on the exact lengths (``Fraction(x)`` of each, so a float is its
    dyadic value): interval j (0-based) starts where the intervals before it
    end, and lands where the intervals whose image precedes images[j] end.
    """
    lengths = [Fraction(x) for x in lengths]
    m = len(lengths)
    points = [Fraction(omega)]
    for _ in range(n):
        x, start = points[-1], Fraction(0)
        j = 0
        while x >= start + lengths[j]:
            start += lengths[j]
            j += 1  # an IndexError past the last interval: outside the domain
        landing = sum((lengths[k] for k in range(m) if images[k] < images[j]), Fraction(0))
        points.append(x - start + landing)
    return points


def skewshift_orbit_fraction(
    alpha: Fraction, w1: Fraction, w2: Fraction, n: int
) -> tuple[Fraction, Fraction]:
    """n-th skew-shift point by literal stepping (exact rationals)."""
    a, b = w1, w2
    if n >= 0:
        for _ in range(n):
            a, b = (a + 2 * alpha) % 1, (a + b) % 1
    else:
        for _ in range(-n):
            a = (a - 2 * alpha) % 1
            b = (b - a) % 1
    return a, b


def brute_defect(values: dict[int, float], q: int) -> float:
    """max over 1 <= n <= q of |V(n) - V(n+q)| and |V(n) - V(n-q)|."""
    best = 0.0
    for n in range(1, q + 1):
        best = max(best, abs(values[n] - values[n + q]), abs(values[n] - values[n - q]))
    return best


def sturm_count(diag: list[float], x: float) -> int:
    """Number of eigenvalues of the tridiagonal (diag, off=1) strictly below x.

    Negative pivots of the LDL^T factorization of J - x; the first pivot has
    no coupling term.
    """
    count = 0
    d = None
    for a in diag:
        if d is None:
            d = a - x
        else:
            d = a - x - (1.0 / d if d != 0.0 else 1e300)
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def sturm_eigenvalues(diag: list[float], tol: float = 1e-10) -> list[float]:
    """All eigenvalues by bisection on the Sturm count (off-diagonals 1)."""
    n = len(diag)
    lo = min(diag) - 2.0 - tol
    hi = max(diag) + 2.0 + tol
    eigs = []
    for k in range(1, n + 1):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if sturm_count(diag, mid) >= k:
                b = mid
            else:
                a = mid
        eigs.append(0.5 * (a + b))
    return eigs


def wilson_interval(hits: int, n: int, z: float) -> tuple[float, float]:
    """Textbook Wilson score interval for a binomial proportion."""
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * ((phat * (1 - phat) / n + z * z / (4 * n * n)) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def per_q_torus_plan(system, thresh: int, r: float, q_max: int):
    """The repetition plan of a torus map the slow way: every q = 1..q_max.

    The gap of q is the largest circle distance of q*b over the increments b
    of T(0), in raw units of 2^-128.  A candidate (gap < thresh) comes with
    floor(r*q) and T^q mod 2^128 from binomials: L^q = sum_k C(q+k-1, k) S^k
    and drift_i = inc*C(q+i-1, i+1) for i >= 1; for L = I it comes without a
    form and ends the plan.  Any other q is listed only when its gap beats
    every earlier one.  Reads only the systems' ``alpha`` and ``dim``.
    """
    scale = 2**128
    if isinstance(system.alpha, tuple):  # a shift: L = I
        incs, dim = [a.value for a in system.alpha], 1
    else:
        inc = system.alpha.value * (2 if type(system).__name__ == "SkewShift" else 1) % scale
        incs, dim = [inc], system.dim
    best_miss = None
    for q in range(1, q_max + 1):
        first = max(min(q * v % scale, -q * v % scale) for v in incs)
        if first < thresh:
            k_max = math.floor(Fraction(r) * q)
            if dim == 1:
                yield q, first, k_max, None, None
                return
            coef = [math.comb(q + k - 1, k) % scale for k in range(dim)]
            drift = [q * inc % scale]
            drift += [inc * math.comb(q + i - 1, i + 1) % scale for i in range(1, dim)]
            yield q, first, k_max, coef, drift
        elif best_miss is None or first < best_miss:
            best_miss = first
            yield q, first, None, None, None
