"""Repetition-time machinery: certificate search, the constructive skew-shift
repetition time built from continued-fraction convergents, the circle
obstruction that converts certificates into Diophantine witnesses, Monte Carlo
estimation of the repetition-set measure, and Veech tower search for interval
exchanges.

A repetition certificate for (epsilon, r) is a q with
dist(T^k w, T^{k+q} w) < epsilon for every k = 0..floor(r*q).  Searches return
the smallest such q, so results are canonical and reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

from .arithmetic import (
    SCALE,
    ContinuedFraction,
    FixedPointFrac,
    _HALF,
    _circle,
    _returns,
    _signed,
    convergent_denominators,
)
from .dynamics import (
    Iet,
    Shift,
    SkewProduct,
    SkewShift,
    SystemSpec,
    TorusPoint,
    UnsupportedSystemError,
    _unipotent_power,
    _iet_draw_twin,
    _iet_twin,
    _random_raw,
    iet_pieces,
    random_point,
    raw_dist,
    raw_orbit,
    raw_state,
)

_WILSON_Z = 1.959963984540054  # two-sided 95%


class InconsistentCertificateError(ValueError):
    """The certificate violates a precondition of the circle argument."""


def _strict_raw_threshold(epsilon: float, scale: int = SCALE) -> int:
    """t such that raw < t  <=>  raw/scale < epsilon (exact, strict)."""
    return math.ceil(Fraction(epsilon) * scale)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionCertificate:
    """Witness that dist(T^k w, T^{k+q} w) < epsilon for k = 0..k_max."""

    epsilon: float
    r: float
    q: int
    k_max: int
    max_dist: float
    omega: object
    max_dist_raw: int | None = None  # exact units for torus systems


@dataclass(frozen=True)
class RepetitionNotFound:
    """No q <= q_max certifies; best_q/best_dist record the closest miss.

    A q misses by the distance that rejected it.  On the torus that is its
    coordinate-0 gap <q*inc> (every coordinate, for a shift) if that fails,
    else its first failing coordinate-1 term, else the max-metric distance at
    its first failing k; for an IET, the largest distance up to its first
    failing k.  The closest miss is the smallest, the earliest q among equals.
    """

    epsilon: float
    r: float
    q_max: int
    best_q: int | None
    best_dist: float


def find_repetition_time(
    system: SystemSpec, omega, epsilon: float, r: float, q_max: int
) -> RepetitionCertificate | RepetitionNotFound:
    """Smallest q <= q_max whose certificate validates, else the closest miss.

    A torus map is T(w) = L.w + b with L unipotent (I for a shift), so
    T^{k+q}w - T^k w = L^k.delta with delta = T^q w - w.  An omega-free plan
    (``_torus_plan``) lists the candidates q, whose coordinate-0 gap <q*inc>
    is below epsilon; a shift certifies at the first.  The scan checks
    coordinate 1, the progression delta_1 + k*q*inc, with ``_progression``,
    and only then steps the difference, never the orbit, in coordinates >= 2.
    The plan is streamed, so an early certificate stops it.  IETs step orbits
    on the integer twin of omega with early exit.  Every distance is exact.
    """
    _check_search(system, epsilon, r, q_max)
    if isinstance(system, Iet):
        return _find_iet(_iet_twin(system, omega), omega, epsilon, r, q_max)
    thresh = _strict_raw_threshold(epsilon)
    w = raw_state(system, omega)
    w0, stepped = w[0], len(w) > 2
    best_q, best_raw = None, None
    for q, first, k_max, coef, drift in _torus_plan(system, thresh, r, q_max):
        ok, observed = k_max is not None, first  # a candidate without a form certifies
        if coef is not None:
            # coordinate 1 of L^k.delta is delta_1 + k*q*inc, k = 0..k_max
            delta1 = (coef[1] * w0 + drift[1]) % SCALE
            ok, observed = _progression(delta1, drift[0], k_max, first, thresh)
            if ok and stepped:
                ok, observed = _step_differences(w, coef, drift, k_max, observed, thresh)
        if ok:
            return RepetitionCertificate(epsilon, r, q, k_max, observed / SCALE, omega, observed)
        if best_raw is None or observed < best_raw:  # q ascends: earliest wins ties
            best_q, best_raw = q, observed
    return RepetitionNotFound(epsilon, r, q_max, best_q, best_raw / SCALE)


def _check_search(system: SystemSpec, epsilon: float, r: float, q_max: int) -> None:
    """Raise on arguments no search accepts, before any work is planned."""
    for name, value in (("epsilon", epsilon), ("r", r)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if r <= 0:
        raise ValueError("r must be positive")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if not isinstance(system, (Iet, Shift, SkewShift, SkewProduct)):
        raise UnsupportedSystemError(f"unknown system {type(system).__name__}")


def _certifies(system: SystemSpec, epsilon: float, r: float, q_max: int):
    """Whether an omega has a certificate: a bool for every omega, or a map
    from a draw (``_random_raw``: omega's raw tuple of ints, or an IET's share
    u of its total) to bool.

    The verdict of ``find_repetition_time`` without its near-miss: the plan is
    built once, and an omega is certifiable when some candidate passes.  When
    3*thresh <= 2^128 + 2 (epsilon < 1/3) no step of the coordinate-1
    progression jumps the failing arc, so it passes exactly when its first and
    last terms do: the signed delta_1 lies on the integer arc
    [max(1-t, 1-t-k_max*step), min(t-1, t-1-k_max*step)], t = thresh and step
    the signed q*inc.  A candidate whose arc is empty never passes and is
    dropped; with none left, no omega certifies.  An omega then costs one
    modular subtraction and compare per kept candidate, and only d >= 3 steps
    the difference, on a passing arc.  From 1/3 on each candidate runs
    ``_progression``.
    """
    _check_search(system, epsilon, r, q_max)
    if isinstance(system, Iet):
        twin = _iet_draw_twin(system)  # holds every draw's point u*total
        total = Fraction(twin.total, twin.scale)
        return lambda u: isinstance(
            _find_iet(twin, u * total, epsilon, r, q_max), RepetitionCertificate
        )
    thresh = _strict_raw_threshold(epsilon)
    arcs = 3 * thresh <= SCALE + 2
    kept = []  # (k_max, first, coef, drift, lo, width) per candidate that can pass
    for q, first, k_max, coef, drift in _torus_plan(system, thresh, r, q_max):
        if k_max is None:
            continue
        if coef is None:
            return True  # L = I: the first candidate certifies every omega
        lo, width = 0, None
        if arcs:
            step = _signed(drift[0])
            lo = max(1 - thresh, 1 - thresh - k_max * step)
            width = min(thresh - 1, thresh - 1 - k_max * step) - lo
            if width < 0:
                continue
        kept.append((k_max, first, coef, drift, lo, width))
    if not kept:
        return False

    def certifies(w):
        w0, stepped = w[0], len(w) > 2
        for k_max, first, coef, drift, lo, width in kept:
            s = (coef[1] * w0 + drift[1] - lo) % SCALE
            ok = s <= width if arcs else _progression(s, drift[0], k_max, first, thresh)[0]
            if ok and (not stepped or _step_differences(w, coef, drift, k_max, 0, thresh)[0]):
                return True
        return False

    return certifies


def _torus_plan(system, thresh, r, q_max):
    """The omega-free part of a torus search, in q order (a generator).

    The gap `first` of q is the largest circle distance of q*b, b = T(0):
    coordinate 0 of delta (every coordinate, for a shift).  Yields
    (q, first, k_max, coef, drift) for each candidate q (first < thresh, raw
    units), with k_max = floor(r*q) and (coef, drift) the form of T^q mod
    2^128.  When L = I, delta is the gap at every k, so the first candidate
    certifies for every omega: it comes without a form, and the plan ends.  A
    non-candidate misses by its gap whatever omega is, so only one that beats
    every earlier gap is yielded, as (q, first, None, None, None).  Both have
    <q*v> <= first < B, the best miss (B >= thresh; 2^128 before the first),
    for v the first non-zero increment, so only the returns of q*v to
    [-B, B] are visited (``_returns``, set up again at each record).  The
    search streams the plan; ``_certifies`` reads it once, keeps each
    candidate's arc of passing delta_1 and drops the rest.
    """
    r_num, r_den = Fraction(r).as_integer_ratio()
    coef, incs = _unipotent_power(system, 1)  # L, and b = T(0)
    free = not any(coef[1:])  # L = I
    incs = [v for v in incs if v]  # a zero increment adds nothing to the gap
    best_miss, q, x = SCALE, 0, 0
    while True:
        for q, x in _returns(incs[0] if incs else 0, best_miss, q_max, q, x):
            first = max((_circle(q * v) for v in incs), default=0)
            if first < thresh:
                k_max = r_num * q // r_den
                if free:
                    yield q, first, k_max, None, None
                    return
                yield q, first, k_max, *_unipotent_power(system, q)
            elif first < best_miss:
                best_miss = first
                yield q, first, None, None, None
                break  # walk on the smaller window from here
        else:
            return


def _step_differences(w, coef, drift, k_max, observed, thresh):
    """(ok, observed) for every coordinate of D(k) = L^k.delta, k = 0..k_max.

    (coef, drift) is T^q, so delta = T^q w - w has coordinate
    i = sum_{j=1..i} coef[j]*w[i-j] + drift[i], and D(k+1) = L.D(k) is a
    cumulative sum, with no alpha.  On failure observed is the max-metric
    distance at the first failing k.
    """
    diff = [sum(coef[j] * w[i - j] for j in range(1, i + 1)) + drift[i] for i in range(len(w))]
    for _ in range(k_max + 1):
        dist = max(map(_circle, diff))
        if dist >= thresh:
            return False, dist
        observed = max(observed, dist)
        diff = [x % SCALE for x in accumulate(diff)]
    return True, observed


def _progression(s, u, k_max, first, thresh):
    """(ok, observed) for the terms s + k*u, k = 0..k_max, against thresh.

    observed is the raw distance a certificate or a near-miss reports: on
    failure the distance of the first term >= thresh, on success the maximum
    of first (< thresh) and every term.  With the signed y0 of s and step of
    u, negated together when step < 0, the terms are the unwrapped integers
    Y_k = y0 + k*step, which never decrease.  A term fails when it lies on an
    arc [n*2^128 + thresh, (n+1)*2^128 - thresh]; the first k at or past each
    arc, in order, is one ceiling division, and Y_k either lies on the arc or
    the step jumped it.  The circle distance of Y rises to each half turn and
    falls after it, so the maximum sits at k = 0, at k = k_max, or either
    side of a half turn.  The cost is O(1 + k_max*<u>/2^128); when
    3*thresh <= 2^128 + 2 no step jumps an arc and no half turn is crossed.
    """
    d = _circle(s)
    if d >= thresh:
        return False, d
    y0, step = _signed(s), _signed(u)
    if step < 0:
        y0, step = -y0, -step
    y_end = y0 + k_max * step
    start, width = thresh, SCALE - 2 * thresh  # the arc is [start, start + width]
    while width >= 0 and start <= y_end:
        k = -((y0 - start) // step)  # ceil((start - y0)/step)
        y = y0 + k * step
        if y <= start + width:
            return False, _circle(y)
        start += SCALE
    observed = max(first, d, _circle(y_end))
    half = _HALF
    while step and half <= y_end:
        k = (half - y0) // step  # Y_k <= half < Y_{k+1}
        for j in (k, min(k + 1, k_max)):
            observed = max(observed, _circle(y0 + j * step))
        half += SCALE
    return True, observed


def _find_iet(twin, omega, epsilon, r, q_max):
    """The IET search on an integer twin that holds omega: every q in order,
    stepping, early exit; a distance fails when d/D >= epsilon, in integers."""
    forward, out = twin.step, twin.out
    thresh = _strict_raw_threshold(epsilon, twin.scale)
    r_num, r_den = Fraction(r).as_integer_ratio()
    states = [twin.enter(omega)]
    best_q, best_dist = None, None
    for q in range(1, q_max + 1):
        k_max = r_num * q // r_den
        while len(states) <= k_max + q:
            states.append(forward(states[-1]))
        observed = 0
        for k in range(k_max + 1):
            d = abs(states[k] - states[k + q])
            if d > observed:
                observed = d
            if d >= thresh:
                break
        else:
            return RepetitionCertificate(epsilon, r, q, k_max, out(observed), omega)
        if best_dist is None or observed < best_dist:
            best_q, best_dist = q, observed
    return RepetitionNotFound(epsilon, r, q_max, best_q, out(best_dist))


def verify_certificate_against_definition(
    cert: RepetitionCertificate, system: SystemSpec
) -> bool:
    """Recompute every distance by stepping and confirm the strict inequality."""
    if cert.q < 1 or not 0 < cert.epsilon < math.inf or not 0 < cert.r < math.inf:
        return False
    r_num, r_den = Fraction(cert.r).as_integer_ratio()
    k_max = r_num * cert.q // r_den
    if cert.k_max != k_max:
        return False
    states, scale, _ = raw_orbit(system, raw_state(system, cert.omega), 0, k_max + cert.q)
    thresh = _strict_raw_threshold(cert.epsilon, scale)
    return all(raw_dist(states[k], states[k + cert.q]) < thresh for k in range(k_max + 1))


# ---------------------------------------------------------------------------
# constructive skew-shift repetition times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructiveRepetition:
    """q = m * base_q with per-term sizes of the orbit-difference bound.

    reported_epsilon is the term-sum bound: the certificate (with epsilon set
    to it) always passes verification for the intended r, because the true
    distance never exceeds max(first-coordinate term, second-coordinate sum)
    which is strictly below the total.
    """

    q: int
    m: int
    base_q: int
    first_coord_dist: float
    omega_term_dist: float
    alpha_term_bound: float
    reported_epsilon: float
    certificate: RepetitionCertificate


@dataclass(frozen=True)
class ConstructiveNotAvailable:
    """No convergent is good enough at this depth/horizon, or its bound is vacuous."""

    reason: str
    best_product: float | None = None


def skewshift_constructive_q(
    alpha: FixedPointFrac,
    omega1: FixedPointFrac,
    epsilon: float,
    cf: ContinuedFraction,
    r: float = 1.0,
    max_base_q: int | None = None,
) -> ConstructiveRepetition | ConstructiveNotAvailable:
    """Repetition time m * q_k for the skew-shift from convergent structure.

    Takes the largest available convergent denominator q_k with
    q_k <q_k alpha> < epsilon * min(1, 1/r) (optionally capped by max_base_q,
    which bounds the verification cost), then chooses m in 1..floor(1/eps)+1
    minimizing the total bound
        <2 m q_k alpha>  +  <m q_k omega1>  +  (1+2r) m^2 q_k <q_k alpha>,
    i.e. first coordinate + omega term + worst-case quadratic term over
    k = 0..floor(r q).  The returned certificate uses that bound as epsilon;
    a bound of 1/2 or more says nothing, so it is not available.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    if r <= 0:
        raise ValueError("r must be positive")

    r_frac = Fraction(r)
    margin = Fraction(epsilon) * min(Fraction(1), 1 / r_frac)
    base_q = None
    base_raw = None
    best_product = None
    for q_k in convergent_denominators(cf):
        if max_base_q is not None and q_k > max_base_q:
            break
        raw = (q_k * alpha).norm_raw()
        product = Fraction(q_k * raw, SCALE)
        if best_product is None or product < best_product:
            best_product = product
        if product < margin:
            base_q, base_raw = q_k, raw
    if base_q is None:
        return ConstructiveNotAvailable(
            reason=(
                "no convergent denominator q with q<q*alpha> < "
                f"{float(margin):.6g} at the computed depth"
            ),
            best_product=None if best_product is None else float(best_product),
        )

    m_hi = int(1 / Fraction(epsilon)) + 1
    best = None  # (B_raw, m, t_first, t_omega, t_alpha)
    for m in range(1, m_hi + 1):
        t_first = ((2 * m * base_q) * alpha).norm_raw()
        t_omega = ((m * base_q) * omega1).norm_raw()
        alpha_bound = (1 + 2 * r_frac) * m * m * base_q * base_raw
        t_alpha = -((-alpha_bound.numerator) // alpha_bound.denominator)  # ceil
        total = t_first + t_omega + t_alpha
        if best is None or total < best[0]:
            best = (total, m, t_first, t_omega, t_alpha)
    total_raw, m, t_first, t_omega, t_alpha = best
    q = m * base_q
    if 2 * total_raw >= SCALE:
        # every circle distance is at most 1/2, so this bound would certify nothing
        return ConstructiveNotAvailable(
            reason=f"the term-sum bound {total_raw / SCALE:.6g} at q={q} is not below 1/2",
            best_product=float(best_product),
        )

    # Smallest double whose exact value exceeds the raw bound, so the strict
    # fixed-point comparison in verification cannot be lost to rounding.
    eps_rep = total_raw / SCALE
    while Fraction(eps_rep) * SCALE <= total_raw:
        eps_rep = math.nextafter(eps_rep, math.inf)

    omega = TorusPoint((omega1, FixedPointFrac(0)))
    r_num, r_den = r_frac.as_integer_ratio()
    k_max = r_num * q // r_den
    # delta = T^q w - w = (drift[0], coef[1]*w1 + drift[1]), whatever w2 is
    coef, drift = _unipotent_power(SkewShift(alpha), q)
    u, s = drift[0], (coef[1] * omega1.value + drift[1]) % SCALE
    # every distance is at most total_raw < thresh, so the check passes and
    # observes the maximum over k = 0..k_max
    thresh = _strict_raw_threshold(eps_rep)
    _, max_raw = _progression(s, u, k_max, _circle(u), thresh)
    cert = RepetitionCertificate(eps_rep, r, q, k_max, max_raw / SCALE, omega, max_raw)
    return ConstructiveRepetition(
        q=q,
        m=m,
        base_q=base_q,
        first_coord_dist=t_first / SCALE,
        omega_term_dist=t_omega / SCALE,
        alpha_term_bound=t_alpha / SCALE,
        reported_epsilon=eps_rep,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# the circle obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """Arithmetic-progression analysis of a skew-shift certificate.

    The second-coordinate differences step by exactly <2q*alpha> per unit n;
    when q steps cannot wrap the circle, <2nq*alpha> = n<2q*alpha> for all
    0 <= n <= q, so q<2q*alpha> stays below 2*epsilon and yields an explicit
    q' with small q'<q'*alpha> (the non-badly-approximable witness).
    """

    q: int
    n_max: int
    step_dist: float
    q_times_step: float
    epsilon: float
    within_two_eps: bool
    witness_q: int
    witness_product: float


def badly_approximable_obstruction(
    alpha: FixedPointFrac, epsilon: float, cert: RepetitionCertificate
) -> ObstructionReport:
    """Turn a skew-shift certificate into a Diophantine witness.

    Raises InconsistentCertificateError when the no-wrap condition
    q * <2q*alpha> <= 1/2 fails (epsilon too large for the argument).
    """
    if cert.r < 1:
        raise ValueError("the obstruction needs a certificate with r >= 1")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    q = cert.q
    umin = ((2 * q) * alpha).norm_raw()
    if 2 * q * umin > SCALE:
        raise InconsistentCertificateError(
            f"q*<2q*alpha> = {q * umin / SCALE:.6g} > 1/2: the progression can wrap"
        )
    q_times_step = Fraction(q * umin, SCALE)
    within = q_times_step < 2 * Fraction(epsilon)

    aqmin = (q * alpha).norm_raw()
    if aqmin <= SCALE // 4:
        witness_q = q  # <2q*alpha> = 2<q*alpha>, so q<q*alpha> = q<2q*alpha>/2
        witness_product = Fraction(q * aqmin, SCALE)
    else:
        witness_q = 2 * q  # <q*alpha> near 1/2; the doubled time is the witness
        witness_product = Fraction(2 * q * umin, SCALE)
    return ObstructionReport(
        q=q,
        n_max=q,
        step_dist=umin / SCALE,
        q_times_step=float(q_times_step),
        epsilon=epsilon,
        within_two_eps=bool(within),
        witness_q=witness_q,
        witness_product=float(witness_product),
    )


# ---------------------------------------------------------------------------
# Monte Carlo measure estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrpEstimate:
    """Fraction of sampled starting points admitting a certificate."""

    system: SystemSpec
    epsilon: float
    r: float
    q_max: int
    n_samples: int
    n_hits: int
    fraction: float
    wilson_ci: tuple[float, float]
    seed: int


def _sample_rng(seed: int, index: int) -> random.Random:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # at hits == n the exact upper end is 1, which the float sum misses by an ulp
    return (max(0.0, center - half), 1.0 if hits == n else min(1.0, center + half))


def sample_start_point(system: SystemSpec, seed: int, index: int):
    """The index-th starting point of a seeded run (schedule-independent)."""
    return random_point(system, _sample_rng(seed, index))


def estimate_prp_fraction(
    system: SystemSpec,
    epsilon: float,
    r: float,
    q_max: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> PrpEstimate:
    """Monte Carlo frequency of certifiable starting points.

    Each sample's generator is derived from (seed, index) by hashing, so the
    result is bit-identical for a fixed seed; samples are the draws behind
    ``sample_start_point`` (``_random_raw``), never wrapped.  A sample is a hit when
    ``find_repetition_time`` would certify it, but no near-miss is computed:
    ``_certifies`` plans the torus search once, before any sample, and for
    epsilon < 1/3 answers each sample by arc membership, one modular compare
    per candidate.  When the answer does not depend on omega (a shift's plan
    ends at its certificate; a torus map none of whose candidates has an arc
    never certifies), no sample is drawn and the hits are all or none.
    ``threads`` is accepted and ignored: the work is pure Python, so the GIL
    serialises it, and a thread pool ran slower than this one loop.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    certifies = _certifies(system, epsilon, r, q_max)
    if callable(certifies):
        hits = sum(certifies(_random_raw(system, _sample_rng(seed, i))) for i in range(n_samples))
    else:
        hits = n_samples if certifies else 0
    return PrpEstimate(
        system=system,
        epsilon=epsilon,
        r=r,
        q_max=q_max,
        n_samples=n_samples,
        n_hits=hits,
        fraction=hits / n_samples,
        wilson_ci=_wilson_interval(hits, n_samples),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Veech towers for interval exchanges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VeechTower:
    """Height q and floor J with disjoint floors covering > 1 - eps of the
    space and return overlap Leb(J and T^q J) > (1 - eps) Leb(J)."""

    q: int
    interval: tuple
    coverage: float
    return_overlap: float


@dataclass(frozen=True)
class TowerNotFound:
    """No tower up to q_max; best partial scores among disjoint candidates."""

    epsilon: float
    q_max: int
    best_q: int | None
    best_coverage: float
    best_overlap_fraction: float


def veech_tower_search(
    iet: Iet, epsilon: float, q_max: int
) -> VeechTower | TowerNotFound:
    """First (smallest q, leftmost J) tower, scanning continuity pieces of T^q.

    A candidate piece J must be long enough for the coverage bound, have
    floors T^k J (1 <= k < q) disjoint from J, and return with overlap
    Leb(J and T^q J) > (1-eps) Leb(J).  Everything runs exactly on the
    integer twin (``_iet_twin``); intervals come back in the IET's own
    arithmetic, scores as floats.

    Each q walks the pieces of T^q (``iet_pieces``) by left end once.  T^k
    moves a piece by t_k, and its floors miss J while its slot low = min |t_k|
    over 1 <= k < q is >= |J| (T^k, k < q, is one translation on a split's
    parent).  With eps = num/den, a piece of length ln has coverage > 1 - eps
    at q iff longer // q < ln <= total // q, longer = (den-num) total // den,
    so pieces no longer than longer // q_max are never kept.  The walk reads
    t_q, scores a candidate, and folds |t_q| into low.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    best_q, best_cov, best_ovf = None, 0.0, 0.0
    best_score = -1.0
    if epsilon == 0:
        return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
    twin = _iet_twin(iet)
    total, out = twin.total, twin.out
    num, den = epsilon.as_integer_ratio()
    longer = (den - num) * total // den
    for q, pieces in islice(iet_pieces(twin, longer // q_max), q_max):
        lo, hi = longer // q, total // q
        for piece in pieces:
            c, ln, f, j, low = piece
            t = abs(f[q - j] - c)
            if lo < ln <= hi and ln <= low:  # a candidate: floors k < q miss J
                overlap = ln - t if t < ln else 0
                coverage, overlap_fraction = q * ln / total, overlap / ln
                score = min(coverage, overlap_fraction)
                if score > best_score:
                    best_score = score
                    best_q, best_cov, best_ovf = q, coverage, overlap_fraction
                if num * ln > den * t:  # overlap > (1 - eps) ln
                    return VeechTower(q, (out(c), out(c + ln)), coverage, float(out(overlap)))
            if t < low:
                piece[4] = t  # the floor k = q, for the next q
    return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
