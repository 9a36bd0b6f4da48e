"""Dynamical systems on tori and intervals: rotations, the quadratic
skew-shift, d-dimensional triangular skew-products, and interval exchange
transformations (IETs).

Every system steps exact integers.  A torus state is a tuple of ints mod
2**128, one per coordinate.  Every torus map is T(w) = L.w + b with L
unipotent (I for a shift; the skew-shift is the 2-D skew-product with
increment 2*alpha), and ``_unipotent_power`` gives T^n by one exact binomial
formula in n, with no matrix powers, to the closed form, to the repetition
plan and to the samplers' phase sequences (``raw_phases``).  An IET has one integer twin (``_iet_twin``): the lengths and the
points it holds over their common denominator (a float is a dyadic rational),
stepped by one bisect and one add each way, in orbits, searches, the Monte
Carlo, cut refinements, samplers and towers alike; an IET draw is the exact
point u*total on it.  Floats, ``Fraction``s, ``FixedPointFrac`` and
``TorusPoint`` exist only at the API edge: a point is unwrapped (or enters the
twin) once and its results leave once.  ``raw_orbit`` returns an orbit as
integers over a scale with the map that brings them out; only ``orbit`` and
the CLI's orbit table apply it.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice, repeat

from .arithmetic import SCALE, FixedPointFrac, _circle


class OutOfDomainError(ValueError):
    """An IET was evaluated outside [0, |lambda|)."""


class UnsupportedSystemError(TypeError):
    """The requested operation is not defined for this system variant."""


# ---------------------------------------------------------------------------
# points and permutations
# ---------------------------------------------------------------------------


def _fixed_point(what: str, values) -> None:
    bad = [type(v).__name__ for v in values if not isinstance(v, FixedPointFrac)]
    if bad:
        raise TypeError(f"{what} are FixedPointFrac, got {bad[0]}")


@dataclass(frozen=True, init=False, slots=True)
class TorusPoint:
    """A point of T^d held as its raw tuple (ints mod 2**128); ``coords`` and
    ``[i]`` make ``FixedPointFrac``s when read.  Distances use the max metric.
    Slotted: the ``raw`` slot and no attribute dict; ``slots=True``, unlike a
    hand-written ``__slots__``, gives the frozen class pickling's state methods."""

    raw: tuple[int, ...]

    def __init__(self, coords) -> None:
        coords = tuple(coords)
        if not coords:
            raise ValueError("TorusPoint needs at least one coordinate")
        _fixed_point("TorusPoint coordinates", coords)
        object.__setattr__(self, "raw", tuple(c.value for c in coords))

    @classmethod
    def from_floats(cls, *xs: float) -> "TorusPoint":
        return cls(tuple(FixedPointFrac.from_float(x) for x in xs))

    @property
    def coords(self) -> tuple[FixedPointFrac, ...]:
        return tuple(map(FixedPointFrac, self.raw))

    @property
    def dim(self) -> int:
        return len(self.raw)

    def __getitem__(self, i: int) -> FixedPointFrac:
        return FixedPointFrac(self.raw[i])

    def dist_raw(self, other: "TorusPoint") -> int:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch between torus points")
        return raw_dist(self.raw, other.raw)

    def dist(self, other: "TorusPoint") -> float:
        return self.dist_raw(other) / SCALE


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..m}; images[j-1] is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for j, i in enumerate(self.images, start=1):
            inv[i - 1] = j
        return Permutation(tuple(inv))

    def is_irreducible(self) -> bool:
        """No proper prefix {1..k} is mapped onto itself."""
        prefix_max = 0
        for k, image in enumerate(self.images[:-1], start=1):
            prefix_max = max(prefix_max, image)
            if prefix_max == k:
                return False
        return True


# ---------------------------------------------------------------------------
# system descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shift:
    """Rotation of T^d by the vector alpha."""

    alpha: tuple[FixedPointFrac, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if len(self.alpha) < 1:
            raise ValueError("Shift needs at least one rotation number")
        _fixed_point("Shift rotation numbers", self.alpha)

    @property
    def dim(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class SkewShift:
    """T(w1, w2) = (w1 + 2*alpha, w1 + w2) on T^2."""

    alpha: FixedPointFrac

    def __post_init__(self) -> None:
        _fixed_point("SkewShift rotation numbers", (self.alpha,))

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class SkewProduct:
    """T(w)_1 = w1 + alpha, T(w)_i = w1 + ... + wi (i >= 2) on T^d."""

    dim: int
    alpha: FixedPointFrac

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int):
            raise TypeError(f"SkewProduct dimension is an int, got {type(self.dim).__name__}")
        if self.dim < 1:
            raise ValueError("SkewProduct dimension must be >= 1")
        _fixed_point("SkewProduct rotation numbers", (self.alpha,))


@dataclass(frozen=True)
class Iet:
    """Exchange of m > 1 subintervals of [0, sum(lengths)) by perm.

    Lengths may be floats or ``fractions.Fraction`` (exact mode).  Steps are
    exact, on the exact [0, sum(lengths)); results come back as floats when
    any length is a float, else as ``Fraction``s.
    """

    lengths: tuple
    perm: Permutation

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if len(self.lengths) != self.perm.size:
            raise ValueError("lengths and permutation sizes differ")
        if len(self.lengths) < 2:
            raise ValueError("an interval exchange needs m > 1 intervals")
        if any(not 0 < length < math.inf for length in self.lengths):
            raise ValueError(f"interval lengths must be positive and finite, got {self.lengths!r}")


SystemSpec = Shift | SkewShift | SkewProduct | Iet


def system_dim(system: SystemSpec) -> int:
    if isinstance(system, (Shift, SkewShift, SkewProduct)):
        return system.dim
    if isinstance(system, Iet):
        return 1
    raise UnsupportedSystemError(f"unknown system {type(system).__name__}")


def random_point(system: SystemSpec, rng: random.Random):
    """Lebesgue-uniform sample of the system's phase space.  An IET point is
    the exact draw u*total, leaving its twin once through ``out``."""
    raw = _random_raw(system, rng)
    if isinstance(system, Iet):
        twin = _iet_draw_twin(system)
        return twin.out(twin.enter(raw * Fraction(twin.total, twin.scale)))
    return wrap_state(raw)


def _random_raw(system: SystemSpec, rng: random.Random):
    """The draw behind ``random_point``: one 128-bit draw per torus
    coordinate (the raw state), or for an IET the exact share u of its total,
    u = rng.random(), a multiple of 2^-53 in [0, 1)."""
    if isinstance(system, (Shift, SkewShift, SkewProduct)):
        return tuple(map(rng.getrandbits, [128] * system_dim(system)))
    if isinstance(system, Iet):
        return Fraction(rng.random())
    raise UnsupportedSystemError(f"unknown system {type(system).__name__}")


# ---------------------------------------------------------------------------
# the integer twin of an IET
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IetTwin:
    """An IET on integers: its lengths, and the points it holds, over one scale D.

    beta and beta_pi are the source and image breakpoints (0, ..., total);
    interval j translates by jumps[j-1] = beta_pi[perm(j)-1] - beta[j-1], and
    image interval i comes back by back[i-1] = jumps[perm^-1(i)-1].  step and
    inverse are T and T^-1, one bisect and one add each.  enter(x) = x*D
    raises outside [0, total); out(n) = n/D is a Fraction for exact IETs, else
    the rounded float, but a point never rounds onto the total: it leaves as
    the float below, so every float the API returns steps again.
    """

    beta: tuple[int, ...]
    beta_pi: tuple[int, ...]
    jumps: tuple[int, ...]
    back: tuple[int, ...]
    total: int
    scale: int
    enter: Callable[[object], int]
    out: Callable[[int], object]
    step: Callable[[int], int]
    inverse: Callable[[int], int]


def _iet_twin(iet: Iet, *points) -> _IetTwin:
    """The integer twin of iet at the lcm D of the lengths' and the points'
    denominators (a float is a dyadic rational), so the twin's lengths and
    every multiple of a point are integers."""
    ratios = [x.as_integer_ratio() for x in iet.lengths]
    dens = [x.as_integer_ratio()[1] for x in points if 0 <= x < math.inf]  # enter rejects the rest
    scale = math.lcm(*(d for _, d in ratios), *dens)
    lengths = [n * (scale // d) for n, d in ratios]
    images = iet.perm.images
    inv = sorted(range(len(images)), key=images.__getitem__)  # inv[i-1] = perm^-1(i) - 1
    beta = (0, *accumulate(lengths))
    beta_pi = (0, *accumulate(lengths[j] for j in inv))
    total = beta[-1]
    jumps = tuple(beta_pi[i - 1] - b for i, b in zip(images, beta))
    back = tuple(jumps[j] for j in inv)

    def enter(x):
        n, d = x.as_integer_ratio() if 0 <= x < math.inf else (-1, 1)
        n *= scale // d
        if not 0 <= n < total:
            raise OutOfDomainError(f"IET point {x!r} outside [0, {Fraction(total, scale)})")
        return n

    if any(isinstance(x, float) for x in iet.lengths):
        n, d = (total / scale).as_integer_ratio()  # the total, rounded to a float
        last = math.nextafter(n / d, 0.0) if n * scale >= total * d else n / d  # below it
        out = lambda n: x if (x := n / scale) <= last or n >= total else last
    else:
        out = lambda n: Fraction(n, scale)
    step = lambda n: n + jumps[bisect_right(beta, n) - 1]
    inverse = lambda n: n - back[bisect_right(beta_pi, n) - 1]
    return _IetTwin(beta, beta_pi, jumps, back, total, scale, enter, out, step, inverse)


def _iet_draw_twin(iet: Iet) -> _IetTwin:
    """The twin that holds every draw u*total (``_random_raw``): u is a multiple
    of 2^-53, so u*total = sum(u*length) is a multiple of the lengths over 2^53."""
    return _iet_twin(iet, *(Fraction(x) / 2**53 for x in iet.lengths))


def iet_pieces(twin: _IetTwin, never: int = 0):
    """Yield (q, pieces) for q = 1, 2, ...: the continuity pieces of T^q longer
    than never, as [c, length, fwd[i], j, slot] sorted by left end, where
    c = T^-j(beta_i) and fwd[i][k] = T^k(beta_i), so T^k (k <= q) moves
    [c, c + length) by fwd[i][k-j] - c: a lookup, not a walk.

    The one IET cut refiner: each q splits the list, one bisect per new cut
    T^-(q-1)(beta_i) (i >= 1); a cut already made (two pull-backs meet) or in
    a gap makes no piece, and a half no longer than never is dropped.  Both
    halves inherit the slot (total at first); the caller may rewrite it, and
    may drop pieces.  The orbits grow inline by the twin's tables, no call.
    """
    beta, beta_pi, jumps, back = twin.beta, twin.beta_pi, twin.jumps, twin.back
    fwd = [[b] for b in beta[:-1]]
    bwd = [[b] for b in beta[1:-1]]  # beta_0 = 0 makes no cut, so no bwd
    pieces = [[c, end - c, f, 0, twin.total]
              for c, end, f in zip(beta, beta[1:], fwd) if end - c > never]
    for q in count(1):
        for f in fwd:
            f.append((x := f[-1]) + jumps[bisect_right(beta, x) - 1])
        for f, b in zip(fwd[1:], bwd):  # at q = 1, the beta_i: cuts already
            x = b[-1]
            pos = bisect_left(pieces, [x])  # the first piece with c >= x ([x] < [x, ...])
            if pos == 0:
                continue  # left of every kept piece
            a, ln, _, _, slot = parent = pieces[pos - 1]
            if x - a >= ln:
                continue  # a cut already, or in a gap between kept pieces
            if a + ln - x > never:
                pieces.insert(pos, [x, a + ln - x, f, q - 1, slot])
            if x - a > never:
                parent[1] = x - a
            else:
                del pieces[pos - 1]
        yield q, pieces
        for b in bwd:
            b.append((x := b[-1]) - back[bisect_right(beta_pi, x) - 1])


# ---------------------------------------------------------------------------
# raw kernels: stepping and closed forms
# ---------------------------------------------------------------------------


def raw_state(system: SystemSpec, omega):
    """Unwrap an API state: a TorusPoint becomes its raw tuple, IET points pass."""
    if isinstance(system, Iet):
        return omega
    if not isinstance(omega, TorusPoint):
        raise TypeError("torus systems take TorusPoint states")
    if omega.dim != system_dim(system):
        raise ValueError(
            f"point dimension {omega.dim} does not match system dimension {system_dim(system)}"
        )
    return omega.raw


def wrap_state(state: tuple[int, ...]) -> TorusPoint:
    """Inverse of raw_state on a torus: a raw tuple becomes its TorusPoint."""
    point = object.__new__(TorusPoint)
    object.__setattr__(point, "raw", state)  # already raw: nothing to convert
    return point


def raw_dist(x, y):
    """Distance of two raw states: the exact max-metric circle distance in raw
    units for torus tuples, |x - y| for integers of an IET's twin."""
    if isinstance(x, tuple):
        return max(map(_circle, map(operator.sub, x, y)))
    return abs(x - y)


def raw_stepper(system: SystemSpec):
    """The one-step map T of a torus system, as a function of one raw state."""
    if isinstance(system, Shift):
        alpha = tuple(a.value for a in system.alpha)
        return lambda w: tuple([(x + a) % SCALE for x, a in zip(w, alpha)])
    if isinstance(system, SkewShift):
        two_alpha = 2 * system.alpha.value
        return lambda w: ((w[0] + two_alpha) % SCALE, (w[0] + w[1]) % SCALE)
    if isinstance(system, SkewProduct):
        alpha = system.alpha.value

        def skewproduct_step(w):
            out = [s % SCALE for s in accumulate(w)]  # w1 + ... + wi
            out[0] = (w[0] + alpha) % SCALE
            return tuple(out)

        return skewproduct_step
    raise UnsupportedSystemError(f"unknown system {type(system).__name__}")


def _unipotent_power(system: SystemSpec, n: int) -> tuple[list[int], list[int]]:
    """(coef, drift) of T^n = L^n.w + drift mod 2**128, exact for every integer n.

    Coordinate i of T^n(w) is sum_{k=0..i} coef[k]*w[i-k] + drift[i] (mod 2**128);
    L = I for a shift, so coef = (1, 0, ..., 0) and drift = n*alpha.
    """
    if isinstance(system, Shift):
        return [1] + [0] * (system.dim - 1), [n * a.value % SCALE for a in system.alpha]
    if isinstance(system, (SkewShift, SkewProduct)):
        # T(w) = L.w + inc*e_1 with L = (I - S)^-1 and S the nilpotent down-shift, so
        # L^n = sum_k C(n+k-1, k) S^k for every integer n; by the hockey stick,
        # coordinate i of sum_{j<n} L^j e_1 is n at i = 0, else C(n+i-1, i+1).
        # Both come from C(x, k) = C(x-1, k-1)*x/k and C(x, k+1) = C(x, k)*(x-k)/(k+1),
        # identities of polynomials in x, so every division is exact, n < 0 too.
        a = system.alpha.value
        inc = 2 * a if isinstance(system, SkewShift) else a
        binom, coef, drift = 1, [1], [n * inc % SCALE]
        for k in range(1, system.dim):
            binom = binom * (n + k - 1) // k  # C(n+k-1, k)
            coef.append(binom % SCALE)
            drift.append(binom * (n - 1) // (k + 1) * inc % SCALE)
        return coef, drift
    raise UnsupportedSystemError(f"{type(system).__name__} has no closed-form iterate")


def _closed_form_raw(system: SystemSpec, w: tuple[int, ...], n: int) -> tuple[int, ...]:
    """T^n of a raw torus state in one exact evaluation (any integer n)."""
    coef, drift = _unipotent_power(system, n)
    return tuple(
        (sum(coef[k] * w[i - k] for k in range(i + 1)) + drift[i]) % SCALE
        for i in range(len(w))
    )


def raw_phases(system: SystemSpec, k: tuple[int, ...], state: tuple[int, ...],
               n_min: int, n_max: int):
    """Integers = k.T^n(state) (mod 2**128) for n in n_min..n_max, unreduced.

    T is unipotent, so k.T^n(state) is an integer polynomial in n of degree
    at most dim (``_unipotent_power``): its dim + 1 closed-form values at
    n_min.. give its forward differences, and nested running sums rebuild
    every later value, congruent mod 2**128, with no state per site.
    """
    if n_min > n_max:
        raise ValueError("n_min must be <= n_max")
    count = n_max - n_min + 1
    column = [sum(map(operator.mul, k, _closed_form_raw(system, state, n_min + t)))
              for t in range(system_dim(system) + 1)]
    diffs = []  # diffs[j] = Delta^j at n_min
    while column:
        diffs.append(column[0] % SCALE)
        column = list(map(operator.sub, column[1:], column))
    seq = repeat(diffs.pop(), count)
    for d in reversed(diffs):
        seq = accumulate(seq, initial=d)
    return islice(seq, count)


def raw_orbit(system: SystemSpec, state, n_min: int, n_max: int):
    """(states, D, out): [T^n state for n in n_min..n_max], two-sided, as
    integers in units of 1/D, and the map that brings one back to the API.
    Torus states are raw (D = 2**128, out ``wrap_state``) and reach n_min by
    the closed form; an IET point enters its integer twin and steps there,
    back when n_min < 0 (D the twin's scale, out its ``out``)."""
    if n_min > n_max:
        raise ValueError("n_min must be <= n_max")
    if isinstance(system, Iet):
        twin = _iet_twin(system, state)
        step_raw, back, scale, out = twin.step, twin.inverse, twin.scale, twin.out
        cur = twin.enter(state)
        for _ in range(abs(n_min)):
            cur = step_raw(cur) if n_min > 0 else back(cur)
    else:
        step_raw, scale, out = raw_stepper(system), SCALE, wrap_state
        cur = _closed_form_raw(system, state, n_min)
    states = [cur]
    for _ in range(n_max - n_min):
        cur = step_raw(cur)
        states.append(cur)
    return states, scale, out


def orbit(system: SystemSpec, omega, n_min: int, n_max: int) -> list:
    """[T^n omega for n in n_min..n_max], two-sided."""
    states, _, out = raw_orbit(system, raw_state(system, omega), n_min, n_max)
    return list(map(out, states))


# ---------------------------------------------------------------------------
# IET continuity refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IetContinuityPiece:
    """A maximal interval [lo, hi) on which T^q acts as x -> x + translation."""

    lo: object
    hi: object
    translation: object

    @property
    def length(self):
        return self.hi - self.lo


def iet_refine_continuity(iet: Iet, q: int) -> list[IetContinuityPiece]:
    """Maximal intervals on which T^q is a translation (at most q(m-1)+1).

    Runs on the integer twin (``_iet_twin``): the q-th yield of ``iet_pieces``
    with nothing dropped, the refiner the Veech tower search shares.  The
    piece whose left end is c = T^-j(beta_i) translates by T^(q-j)(beta_i) - c,
    a lookup in the breakpoint orbits; neighbours with equal translations
    merge, exactly, and the pieces come back in the IET's own arithmetic.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    twin = _iet_twin(iet)
    _, pieces = next(islice(iet_pieces(twin), q - 1, None))
    starts = []  # (left end, translation) of each maximal piece
    for c, _, f, j, _ in pieces:
        translation = f[q - j] - c
        if not starts or starts[-1][1] != translation:
            starts.append((c, translation))
    out = twin.out
    edges = [*(out(lo) for lo, _ in starts), out(twin.total)]
    return [IetContinuityPiece(lo, hi, out(t)) for lo, hi, (_, t) in zip(edges, edges[1:], starts)]
