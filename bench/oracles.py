"""Independent checks for the benchmark's outputs.

Written the slow, obvious way and sharing no code with gordonlab: plain
integers mod 2**128 for torus orbits, textbook Euclid for continued
fractions, a Sturm count for tridiagonal spectra and literal stepping for
interval exchanges.  Circle points are raw integers (value / 2**128).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

SCALE = 1 << 128


def circle_norm(raw: int) -> int:
    """Distance of raw / 2**128 to the nearest integer, in raw units."""
    raw %= SCALE
    return min(raw, SCALE - raw)


def strict_threshold(eps: float) -> int:
    """Smallest t with raw < t exactly when raw / 2**128 < eps."""
    f = Fraction(eps) * SCALE
    return -((-f.numerator) // f.denominator)


def torus_orbit(kind: str, alpha: tuple[int, ...], start: tuple[int, ...], n: int) -> list:
    """Points T^0 .. T^n of a start point, by stepping raw integers.

    kind is "shift" (alpha per coordinate), "skewshift" ((w1, w2) ->
    (w1 + 2a, w1 + w2)) or "skewproduct" (w1 -> w1 + a, wi -> w1 + ... + wi).
    """
    point = tuple(c % SCALE for c in start)
    points = [point]
    for _ in range(n):
        if kind == "shift":
            point = tuple((w + a) % SCALE for w, a in zip(point, alpha))
        elif kind == "skewshift":
            w1, w2 = point
            point = ((w1 + 2 * alpha[0]) % SCALE, (w1 + w2) % SCALE)
        elif kind == "skewproduct":
            out = [(point[0] + alpha[0]) % SCALE]
            running = point[0]
            for w in point[1:]:
                running += w
                out.append(running % SCALE)
            point = tuple(out)
        else:
            raise ValueError(f"unknown torus system {kind!r}")
        points.append(point)
    return points


def repetition_max(kind: str, alpha, start, q: int, k_max: int) -> int:
    """max over k <= k_max of the max-metric distance of T^k w and T^(k+q) w."""
    points = torus_orbit(kind, alpha, start, k_max + q)
    return max(
        max(circle_norm(b - a) for a, b in zip(points[k], points[k + q]))
        for k in range(k_max + 1)
    )


def shift_first_q(alpha: tuple[int, ...], eps: float, q_max: int) -> int | None:
    """Smallest q <= q_max with every <q alpha_i> < eps (ω plays no part)."""
    thresh = strict_threshold(eps)
    for q in range(1, q_max + 1):
        if all(circle_norm(q * a) < thresh for a in alpha):
            return q
    return None


def first_witness(alpha: int, c: float, q_max: int) -> int | None:
    """Smallest q <= q_max with <q alpha> <= c / q, decided exactly."""
    c = Fraction(c)
    for q in range(1, q_max + 1):
        if Fraction(circle_norm(q * alpha) * q, SCALE) <= c:
            return q
    return None


def cf_quotients(num: int, den: int, depth: int) -> list[int]:
    """First partial quotients of num / den in (0, 1) by Euclid."""
    out = []
    a, b = den, num
    while b and len(out) < depth:
        d, r = divmod(a, b)
        out.append(d)
        a, b = b, r
    return out


def cos_turns(raw: int) -> float:
    """cos(2 pi x) at x = raw / 2**128, in double precision."""
    return math.cos(2 * math.pi * ((raw % SCALE) / SCALE))


def sturm_count(diag, x: float) -> int:
    """Eigenvalues below x of the tridiagonal matrix (diag, off-diagonal 1)."""
    count = 0
    d = None
    for a in diag:
        d = a - x if d is None else a - x - (1.0 / d if d != 0.0 else 1e300)
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def iet_stepper(lengths, perm):
    """x -> T(x) for the exchange of intervals `lengths` by the 1-based perm."""
    starts = [0.0]
    for length in lengths:
        starts.append(starts[-1] + length)
    image_starts = [0.0] * len(lengths)
    position = 0.0
    for i in sorted(range(len(lengths)), key=lambda i: perm[i]):
        image_starts[i] = position
        position += lengths[i]

    def step(x: float) -> float:
        # a point rounded onto the right edge belongs to the last interval
        j = min(bisect_right(starts, x), len(lengths)) - 1
        return x - starts[j] + image_starts[j]

    return step
