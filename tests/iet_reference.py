"""From-scratch exact reference versions of the IET continuity refinement and
the Veech tower search.

Both run in ``Fraction``s with no tolerance anywhere: a float IET runs on its
exact dyadic twin (``Fraction(x)`` lengths), and only its results are rounded
to floats, once, at the end.  The maps are built here from the definition of
an interval exchange, and the cuts of T^q are the breakpoints pulled back one
layer at a time.  Every piece steps its own midpoint: the refinement q times
per piece, the tower search from the piece's birth on, one step per q (a
split piece's halves start afresh), over the pieces whose length lies in the
window, found by bisection in the pieces sorted by length.  The package reads
translations from two-sided breakpoint orbits of the integer twin instead,
and its halves inherit their parent's floors; the tests require
``repr``-identical results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from gordonlab.dynamics import IetContinuityPiece
from gordonlab.repetition import TowerNotFound, VeechTower


def exact_maps(iet):
    """(beta, T, T^-1, rounding) for the exact twin of iet.

    Interval j (0-based) starts at beta[j] and lands where the intervals whose
    images precede it end; rounding maps an exact result back to the IET's
    arithmetic (float for float IETs, unchanged for exact ones).
    """
    lengths = [Fraction(x) for x in iet.lengths]
    images = iet.perm.images
    beta = [Fraction(0)]
    for length in lengths:
        beta.append(beta[-1] + length)
    lands = [
        sum((lengths[k] for k in range(len(lengths)) if images[k] < images[j]), Fraction(0))
        for j in range(len(lengths))
    ]
    jumps = [land - start for land, start in zip(lands, beta)]

    def step(x):
        return x + jumps[bisect_right(beta, x) - 1]

    def inverse(y):
        (j,) = [j for j, land in enumerate(lands) if land <= y < land + lengths[j]]
        return y - jumps[j]

    floats = any(isinstance(x, float) for x in iet.lengths)
    return beta, step, inverse, (float if floats else Fraction)


def exact_edges(iet, q):
    """The sorted exact cuts of T^q, 0 and total included."""
    beta, _, inverse, _ = exact_maps(iet)
    cuts = set(beta[:-1])
    layer = beta[1:-1]
    for _ in range(q - 1):
        layer = [inverse(y) for y in layer]
        cuts.update(layer)
    return sorted(cuts) + [beta[-1]]


def refine_continuity_stepping(iet, q):
    _, step, _, rounding = exact_maps(iet)
    edges = exact_edges(iet, q)
    pieces = []  # [lo, hi, translation]
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        image = mid
        for _ in range(q):
            image = step(image)
        if pieces and pieces[-1][2] == image - mid:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi, image - mid])
    return [IetContinuityPiece(*map(rounding, piece)) for piece in pieces]


def veech_tower_search_stepping(iet, epsilon, q_max):
    best_q, best_cov, best_ovf, best_score = None, 0.0, 0.0, -1.0
    if epsilon == 0:
        return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
    beta, step, inverse, rounding = exact_maps(iet)
    total, eps = beta[-1], Fraction(epsilon)
    edges = list(beta)
    by_length = sorted((hi - lo, lo) for lo, hi in zip(edges, edges[1:]))
    orbits = {}  # (length, lo) -> [T^l(mid), l], or None once some T^k J met J
    layer = beta[1:-1]
    for q in range(1, q_max + 1):
        if q > 1:
            layer = [inverse(y) for y in layer]
            for x in layer:
                pos = bisect_left(edges, x)
                if edges[pos] == x:
                    continue
                lo, hi = edges[pos - 1], edges[pos]
                edges.insert(pos, x)
                del by_length[bisect_left(by_length, (hi - lo, lo))]
                insort(by_length, (x - lo, lo))
                insort(by_length, (hi - x, x))
        # the pieces with (1 - eps) total / q < length <= total / q, leftmost first
        window = by_length[
            bisect_right(by_length, ((1 - eps) * total / q, total)) :
            bisect_right(by_length, (total / q, total))
        ]
        for length, lo in sorted(window, key=lambda piece: piece[1]):
            mid = lo + length / 2
            state = orbits.setdefault((length, lo), [mid, 0])
            while state and state[1] < q:
                x, l = state
                if l and abs(x - mid) < length:
                    state = orbits[length, lo] = None  # the floor T^l J meets J
                else:
                    state[:] = step(x), l + 1
            if state is None:
                continue
            overlap = max(length - abs(state[0] - mid), Fraction(0))
            coverage = q * length / total
            score = min(float(coverage), float(overlap / length))
            if score > best_score:
                best_score = score
                best_q, best_cov, best_ovf = q, float(coverage), float(overlap / length)
            if overlap > (1 - eps) * length and coverage > 1 - eps:
                return VeechTower(
                    q, (rounding(lo), rounding(lo + length)), float(coverage), float(overlap)
                )
    return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
