"""Exact circle arithmetic: fixed-point fractional parts, torus distance,
continued fractions, and badly-approximable classification.

All points on the circle R/Z are stored as unsigned 128-bit fixed-point
integers (``value / 2**128``), so addition, subtraction, and integer
multiples wrap mod 1 with zero drift.  Distances below the fixed-point
resolution (2**-128) are indistinguishable from zero; continued-fraction
expansion therefore stops once remainders sink below 2**-100, reporting
how many partial quotients are trustworthy instead of fabricating more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import floor, gcd, isfinite, isqrt

FRAC_BITS = 128
SCALE = 1 << FRAC_BITS
_HALF = SCALE // 2  # the half turn: circle distances reflect past it

# Remainders below this raw value (2**-100 in absolute terms) are noise:
# they are dominated by the initial rounding of alpha into fixed point.
_NOISE_FLOOR = 1 << (FRAC_BITS - 100)


def _round_div(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero (num >= 0)."""
    q, r = divmod(num, den)
    return q + (1 if 2 * r >= den else 0)


def _circle(y: int) -> int:
    """The circle distance of any raw integer to 0 (y taken mod 2**128), in raw units."""
    y %= SCALE
    return y if y <= _HALF else SCALE - y


def _signed(y: int) -> int:
    """The lift of a raw value y in [0, 2**128) to (-2**127, 2**127]."""
    return y if y <= _HALF else y - SCALE


@dataclass(frozen=True)
class FixedPointFrac:
    """A point of R/Z stored as ``value / 2**128`` with value in [0, 2**128)."""

    value: int

    def __post_init__(self) -> None:
        value = self.value
        # an int already in range (every raw state) is stored as given
        if type(value) is not int or not 0 <= value < SCALE:
            object.__setattr__(self, "value", value % SCALE)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "FixedPointFrac":
        """Exact binary value of the double x, reduced mod 1 and rounded to 2**-128."""
        if not isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        f = Fraction(x)
        f -= floor(f)
        return cls(_round_div(f.numerator * SCALE, f.denominator))

    @classmethod
    def from_fraction(cls, numerator, denominator: int | None = None) -> "FixedPointFrac":
        """Nearest fixed-point value to the rational numerator/denominator mod 1."""
        f = Fraction(numerator) if denominator is None else Fraction(numerator, denominator)
        f -= floor(f)
        return cls(_round_div(f.numerator * SCALE, f.denominator))

    # -- conversions ------------------------------------------------------

    def to_float(self) -> float:
        return self.value / SCALE

    def to_fraction(self) -> Fraction:
        return Fraction(self.value, SCALE)

    def __float__(self) -> float:
        return self.to_float()

    # -- exact mod-1 arithmetic -------------------------------------------

    def __add__(self, other: "FixedPointFrac") -> "FixedPointFrac":
        return FixedPointFrac(self.value + other.value)

    def __sub__(self, other: "FixedPointFrac") -> "FixedPointFrac":
        return FixedPointFrac(self.value - other.value)

    def __neg__(self) -> "FixedPointFrac":
        return FixedPointFrac(-self.value)

    def __mul__(self, n: int) -> "FixedPointFrac":
        if not isinstance(n, int):
            return NotImplemented
        return FixedPointFrac(self.value * n)

    __rmul__ = __mul__

    # -- metric -----------------------------------------------------------

    def dist_raw(self, other: "FixedPointFrac") -> int:
        """Circle distance to other, in raw fixed-point units (exact)."""
        return _circle(self.value - other.value)

    def dist(self, other: "FixedPointFrac") -> float:
        return self.dist_raw(other) / SCALE

    def norm_raw(self) -> int:
        """Distance to 0, i.e. <x> in raw units."""
        return _circle(self.value)

    def norm(self) -> float:
        return self.norm_raw() / SCALE

    def __repr__(self) -> str:  # keeps long raw integers out of test output
        return f"FixedPointFrac({self.to_float():.17g})"


ZERO = FixedPointFrac(0)

# Named irrationals, correct to within one unit of the last (128th) bit.
# golden: (sqrt(5)-1)/2; sqrt2: sqrt(2)-1; liouville10: sum of 10**-k! for k=1..4
# (later terms of the series are far below fixed-point resolution).
GOLDEN = FixedPointFrac((isqrt(5 << (2 * FRAC_BITS)) - SCALE) >> 1)
SQRT2_MINUS_1 = FixedPointFrac(isqrt(2 << (2 * FRAC_BITS)) - SCALE)
LIOUVILLE10 = FixedPointFrac.from_fraction(10**23 + 10**22 + 10**18 + 1, 10**24)

ALPHA_PRESETS: dict[str, FixedPointFrac] = {
    "golden": GOLDEN,
    "sqrt2": SQRT2_MINUS_1,
    "liouville10": LIOUVILLE10,
}


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_1..a_K and convergents (p_k, q_k) of alpha.

    ``exhausted_at`` is None when all requested entries were computed (or the
    expansion terminated exactly); otherwise it is the number of trustworthy
    partial quotients before the remainder sank below the 2**-100 noise floor.
    """

    alpha: FixedPointFrac
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exhausted_at: int | None = None


def _euclid(value: int):
    """(a_k, p_k, q_k) of value / 2**128, by Euclid on (2**128, value) to termination."""
    p_prev2, q_prev2, p_prev, q_prev = 1, 0, 0, 1  # (p_-1, q_-1), (p_0, q_0)
    prev, cur = SCALE, value
    while cur:
        a, rem = divmod(prev, cur)
        p, q = a * p_prev + p_prev2, a * q_prev + q_prev2
        yield a, p, q
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
        prev, cur = cur, rem


def cf_expand(alpha: FixedPointFrac, depth: int) -> ContinuedFraction:
    """Continued-fraction expansion of alpha to at most ``depth`` quotients.

    Runs the Euclidean algorithm on the exact integers (2**128, raw value).
    Stops early with ``exhausted_at`` set when the remainder drops below the
    noise floor, and silently when the expansion terminates exactly.  The
    remainder divided at step k is |q_{k-1}*value - p_{k-1}*2**128|.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, q_prev = 0, 1  # (p_0, q_0)
    exhausted_at: int | None = None
    for a, p, q in islice(_euclid(alpha.value), depth):
        if abs(q_prev * alpha.value - p_prev * SCALE) < _NOISE_FLOOR:
            exhausted_at = len(quotients)
            break
        quotients.append(a)
        convergents.append((p, q))
        p_prev, q_prev = p, q
    return ContinuedFraction(alpha, tuple(quotients), tuple(convergents), exhausted_at)


def convergent_denominators(cf: ContinuedFraction) -> list[int]:
    """The q_k sequence of the expansion (Fibonacci numbers for the golden ratio)."""
    return [q for _, q in cf.convergents]


@dataclass(frozen=True)
class DiophantineVerdict:
    """Bounded-horizon classification of alpha against <q*alpha> > c/q.

    ``verdict`` is "BADLY_APPROXIMABLE_UP_TO_BOUND" when no q <= q_max violates
    the lower bound, else "NOT_BADLY_APPROXIMABLE_WITNESS" with the first
    witness q (then <q*alpha> <= c/q holds, checked in exact fixed point).
    ``criterion`` records which decision path fired.  Never a proof: the true
    property quantifies over all q.
    """

    alpha: FixedPointFrac
    c: float
    q_max: int
    verdict: str
    witness_q: int | None = None
    witness_dist: float | None = None
    criterion: str = "exhaustive-scan"


BADLY_APPROXIMABLE_UP_TO_BOUND = "BADLY_APPROXIMABLE_UP_TO_BOUND"
NOT_BADLY_APPROXIMABLE_WITNESS = "NOT_BADLY_APPROXIMABLE_WITNESS"


def classify_badly_approximable(
    alpha: FixedPointFrac, c: float, q_max: int, method: str = "auto"
) -> DiophantineVerdict:
    """First q <= q_max with <q*alpha> <= c/q, or a bounded-horizon pass.

    method="scan" covers every q = 1..q_max in doubling blocks [lo, 2*lo - 1]:
    a witness q in a block has <q*alpha> <= c/q <= c/lo, so it is a return of
    q*alpha to [-bound, bound], bound = floor(c*2^128/lo).  ``_returns`` walks
    exactly those returns (three-gap theorem), and the ones in the block get
    the full witness test; no q is skipped that could be a witness.
    method="auto" tests q = 1 and then the convergent denominators of the
    stored rational, from Euclid run to termination, and is exact at every
    horizon.  For c >= 1/2, q = 1 is a witness.  For c < 1/2, the first
    witness q is reduced (else q/gcd would be an earlier one) and
    |alpha - p/q| <= c/q^2 < 1/(2q^2), so by Legendre's theorem p/q is a
    convergent; the expansion ends in a quotient >= 2, so its other form adds
    no candidate.  "scan" is the exhaustive oracle.
    """
    if not isfinite(c):
        raise ValueError("c must be finite")
    if c <= 0:
        raise ValueError("c must be positive")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if method not in ("auto", "scan"):
        raise ValueError(f"unknown method: {method!r}")

    c_num, c_den = Fraction(c).as_integer_ratio()
    c_scaled = c_num * SCALE
    # Witness test, exact: umin/S <= c/q  <=>  umin * q * c.den <= c.num * S.
    def is_witness(q: int, umin: int) -> bool:
        return umin * q * c_den <= c_scaled

    if method != "scan":
        for q in chain((1,), (q for _, _, q in _euclid(alpha.value))):
            if q > q_max:
                break
            if is_witness(q, umin := (alpha * q).norm_raw()):
                return DiophantineVerdict(
                    alpha, c, q_max, NOT_BADLY_APPROXIMABLE_WITNESS,
                    witness_q=q, witness_dist=umin / SCALE,
                    criterion="convergent-minima",
                )
        return DiophantineVerdict(
            alpha, c, q_max, BADLY_APPROXIMABLE_UP_TO_BOUND, criterion="convergent-minima"
        )

    lo = 1
    while lo <= q_max:
        bound = c_scaled // (lo * c_den)  # a witness q >= lo has umin <= bound
        for q, x in _returns(alpha.value, bound, min(2 * lo - 1, q_max)):
            if q >= lo and is_witness(q, abs(x)):
                return DiophantineVerdict(
                    alpha, c, q_max, NOT_BADLY_APPROXIMABLE_WITNESS,
                    witness_q=q, witness_dist=abs(x) / SCALE,
                    criterion="exhaustive-scan",
                )
        lo *= 2
    return DiophantineVerdict(
        alpha, c, q_max, BADLY_APPROXIMABLE_UP_TO_BOUND, criterion="exhaustive-scan"
    )


def _first_in(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least k >= 0 with lo <= a*k mod m <= hi, else None (0 <= a, lo <= hi < m).

    O(log m), like Euclid: reflect a to m - a when 2a > m; try k = ceil(lo/a);
    else a*k lands in [lo, hi] + m*j first at the least j with m*j mod a in
    [-hi mod a, -lo mod a], the same problem modulo a < m/2.
    """
    if lo == 0:
        return 0
    if 2 * a > m:
        return _first_in(m - a, m, m - hi, m - lo)
    if a == 0:
        return None
    k = -(-lo // a)
    if a * k <= hi:
        return k
    j = _first_in(m % a, a, -hi % a, -lo % a)
    return None if j is None else -(-(lo + m * j) // a)


def _returns(v: int, b: int, q_max: int, q: int = 0, x: int = 0):
    """(q', x') for each q' in (q, q_max] with <q'*v> <= b, x' the signed q'*v
    mod 2^128, walked from a return (q, x); b >= 2^127 takes every q.

    Three-gap theorem for return times (Slater 1967): with k+ the least k >= 1
    with k*v mod 2^128 in [1, 2b], d+ that value, and k-, d- the same for -v,
    the next return is q + k+ if x + d+ <= b, else q + k- if x - d- >= -b,
    else q + k+ + k-.  With no such k, the orbit meets the window only at x,
    once a period.  A window costs O(128) to set up and a return O(1).
    """
    if 2 * b >= SCALE:
        u = x % SCALE
        for q in range(q + 1, q_max + 1):
            u = (u + v) % SCALE
            yield q, _signed(u)
        return
    k_up = b and _first_in(v, SCALE, 1, 2 * b)  # [1, 2b] is empty for b = 0
    if not k_up:
        k_up = k_down = SCALE // gcd(v, SCALE)
        d_up = d_down = 0
    else:
        k_down = _first_in(-v % SCALE, SCALE, 1, 2 * b)
        d_up, d_down = k_up * v % SCALE, -k_down * v % SCALE
    while True:
        if x + d_up <= b:
            q, x = q + k_up, x + d_up
        elif x - d_down >= -b:
            q, x = q + k_down, x - d_down
        else:
            q, x = q + k_up + k_down, x + d_up - d_down
        if q > q_max:
            return
        yield q, x
