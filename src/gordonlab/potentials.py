"""Sampling functions, potentials V(n) = lam * f(T^n w), and the defect

    gamma(q) = max over 1 <= n <= q of |V(n) - V(n+q)| and |V(n) - V(n-q)|,

with modulus-of-continuity bounds and finite-horizon decay verdicts.

Every orbit reaches the sampler one way: as integers over a scale.  On a
torus every linear form k.T^n w is a polynomial in n (T is unipotent), so a
sampler reads one integer phase per site and term from ``dynamics.raw_phases``
(forward differences of the closed form, summed up) at scale 2**128, not a
state tuple; an IET orbit steps on its integer twin (``dynamics.raw_orbit``)
and is sampled there, at the twin's scale, never as floats.

The defect is computed from the unscaled samples and multiplied by |lam| at
the end, so coupling homogeneity gamma(lam*V, q) = |lam| * gamma(V, q) holds
exactly in floating point, including lam = 0.  It has one kernel on plain
float lists (``_gamma``); ``PotentialWindow``'s numpy arrays are an API-edge
form, and ``gordon_profile`` builds none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import TYPE_CHECKING, Sequence

from .arithmetic import SCALE, FixedPointFrac
from .dynamics import Iet, SystemSpec, TorusPoint, raw_orbit, raw_phases, raw_state, system_dim

if TYPE_CHECKING:
    import numpy as np


class DimensionMismatchError(ValueError):
    """Sampling function and system disagree about the phase-space dimension."""


class WindowTooSmallError(ValueError):
    """The potential window does not cover the sites the defect needs."""


# ---------------------------------------------------------------------------
# sampling functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cosine:
    """f(x) = cos(2*pi*(k . x + phase)) for an integer frequency vector k."""

    frequency: tuple[int, ...] = (1,)
    phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequency", tuple(int(k) for k in self.frequency))
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], float, float], ...]:
        """The one-term TrigPoly form: ((frequency, 1.0, phase),)."""
        return ((self.frequency, 1.0, float(self.phase)),)


@dataclass(frozen=True)
class TrigPoly:
    """f(x) = sum of amplitude * cos(2*pi*(k . x + phase)) over terms.

    Each term is (frequency vector, amplitude, phase).  A zero frequency
    vector contributes the constant amplitude*cos(2*pi*phase).
    """

    terms: tuple[tuple[tuple[int, ...], float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "terms",
            tuple((tuple(int(k) for k in ks), float(a), float(p)) for ks, a, p in self.terms),
        )
        for _, amp, phase in self.terms:
            if not (math.isfinite(amp) and math.isfinite(phase)):
                raise ValueError(f"amplitudes and phases must be finite, got {amp!r} and {phase!r}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Cyclic coding of the circle: f(x) = values[j] on [breakpoints[j], next).

    Breakpoints are ascending in [0, 1); the last piece wraps around through 1.
    Points left of the first breakpoint belong to the wrapped last piece.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.breakpoints) != len(self.values):
            raise ValueError("need one value per breakpoint")
        if len(self.breakpoints) < 1:
            raise ValueError("need at least one piece")
        if any(not 0 <= b < 1 for b in self.breakpoints):
            raise ValueError("breakpoints must lie in [0, 1)")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be ascending")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"values must be finite, got {self.values!r}")


@dataclass(frozen=True)
class BourgainQuadratic:
    """f(w) = cos(2*pi*w2) on the skew-shift, producing the quadratic-phase
    potential cos(2*pi*(w1 + w2*n + alpha*n*(n-1))) when the orbit starts at
    the swapped point (w2, w1); see ``bourgain_start``."""


SamplingFunction = Cosine | TrigPoly | PiecewiseConstant | BourgainQuadratic


def bourgain_start(omega1: FixedPointFrac, omega2: FixedPointFrac) -> TorusPoint:
    """Skew-shift start point whose orbit realizes the quadratic phase
    w1 + w2*n + alpha*n*(n-1) in the second coordinate."""
    return TorusPoint((omega2, omega1))


def _check_dims(f: SamplingFunction, d: int) -> None:
    """Reject f on a d-dimensional phase space (interval exchanges have d = 1)."""
    if isinstance(f, (Cosine, TrigPoly)):
        for freq, _, _ in f.terms:
            if len(freq) != d:
                raise DimensionMismatchError(
                    f"frequency vector has {len(freq)} entries, the state is {d}-dimensional"
                )
    if isinstance(f, PiecewiseConstant) and d != 1:
        raise DimensionMismatchError("codings sample one-dimensional systems")
    if isinstance(f, BourgainQuadratic) and d < 2:
        raise DimensionMismatchError("quadratic-phase sampling needs a 2-D state")


def _sample_raw(f: SamplingFunction, phases, count: int, scale: int) -> list[float]:
    """f at the count sites of an orbit held in integers over scale.
    ``phases(k)`` yields integers = k.x (mod scale) at each site: on a torus
    the phase sequence at scale 2**128 (``dynamics.raw_phases``), on an IET
    k[0]*n over its twin's integers n at the twin's scale D.  Each is reduced
    to x % scale, the exact frac(k.x) in units of 1/scale, and rounded once.
    A coding picks its piece exactly: x against the breakpoints' integers
    ceil(b * scale), since x / scale >= b iff x >= that."""
    if isinstance(f, (Cosine, TrigPoly)):
        out = [0.0] * count
        for freq, amp, phase in f.terms:
            out = [o + amp * math.cos(2 * math.pi * ((x % scale) / scale + phase))
                   for o, x in zip(out, phases(freq))]
        return out
    if isinstance(f, PiecewiseConstant):
        cuts = [math.ceil(Fraction(b) * scale) for b in f.breakpoints]
        # index -1 (left of the first breakpoint) is the wrapped last piece
        return [f.values[bisect_right(cuts, x % scale) - 1] for x in phases((1,))]
    if isinstance(f, BourgainQuadratic):
        return [math.cos(2 * math.pi * ((x % scale) / scale)) for x in phases((0, 1))]
    raise TypeError(f"unknown sampling function {type(f).__name__}")


def _orbit_samples(
    system: SystemSpec, f: SamplingFunction, omega, n_min: int, n_max: int
) -> list[float]:
    """The lam-free samples f(T^n omega), n_min <= n <= n_max, as plain floats:
    a torus term reads its phase sequence, an IET term its twin's integers."""
    _check_dims(f, system_dim(system))
    state = raw_state(system, omega)
    if isinstance(system, Iet):
        states, scale, _ = raw_orbit(system, state, n_min, n_max)
        return _sample_raw(f, lambda k: [k[0] * n for n in states], len(states), scale)
    phases = lambda k: raw_phases(system, k, state, n_min, n_max)
    return _sample_raw(f, phases, n_max - n_min + 1, SCALE)


def evaluate_sampling(f: SamplingFunction, point) -> float:
    """f at a TorusPoint (torus variants) or a plain number (interval codings),
    the number exactly: its ``as_integer_ratio()``."""
    if isinstance(point, TorusPoint):
        _check_dims(f, point.dim)
        return _sample_raw(f, lambda k: (sum(map(mul, k, point.raw)),), 1, SCALE)[0]
    if not hasattr(point, "as_integer_ratio"):
        raise TypeError(f"cannot sample at a {type(point).__name__}: need a TorusPoint or a number")
    if not -math.inf < point < math.inf:
        raise ValueError(f"cannot sample at {point!r}: the point must be finite")
    _check_dims(f, 1)
    n, d = point.as_integer_ratio()
    return _sample_raw(f, lambda k: (k[0] * n,), 1, d)[0]


# ---------------------------------------------------------------------------
# potential windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PotentialWindow:
    """V(n) = lam * f(T^n omega) for n in [n_min, n_max].

    ``values`` holds the coupled samples; ``base_values`` the lam-free ones
    (the defect works on base_values so coupling scales it exactly).  Both
    are immutable, since ``gordon_gamma`` keeps its answers on the window:
    each is stored as an array over a ``bytes`` copy of its data, which no
    flag can make writeable, one copy when ``values is base_values``; an
    array that bytes already back is stored as it is.
    """

    system: SystemSpec
    f: SamplingFunction
    lam: float
    omega: object
    n_min: int
    n_max: int
    values: np.ndarray
    base_values: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen(self.values)
        base = values if self.base_values is self.values else _frozen(self.base_values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "base_values", base)

    def value_at(self, n: int) -> float:
        if not self.n_min <= n <= self.n_max:
            raise WindowTooSmallError(f"site {n} outside window [{self.n_min}, {self.n_max}]")
        return float(self.values[n - self.n_min])


def _frozen(array: np.ndarray) -> np.ndarray:
    """array itself when bytes back it, else a copy over immutable bytes."""
    import numpy as np

    if isinstance(array.base, bytes):
        return array
    return np.frombuffer(array.tobytes(), dtype=array.dtype)


def sample_potential(
    system: SystemSpec,
    f: SamplingFunction,
    lam: float,
    omega,
    n_min: int,
    n_max: int,
) -> PotentialWindow:
    """Evaluate the potential along the orbit (exact dynamics, float samples).
    At lam = 1, ``values is base_values``: 1.0 * x is x bit for bit."""
    import numpy as np

    if n_min > n_max:
        raise ValueError("n_min must be <= n_max")
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    base = np.array(_orbit_samples(system, f, omega, n_min, n_max), dtype=float)
    return PotentialWindow(
        system=system,
        f=f,
        lam=lam,
        omega=omega,
        n_min=n_min,
        n_max=n_max,
        values=base if lam == 1.0 else lam * base,
        base_values=base,
    )


def explicit_window(values, n_min: int) -> PotentialWindow:
    """Window from values given directly (periodic arrays, corpora).

    Dynamical sampling cannot produce an exactly q-periodic potential from a
    coding function unless 1/q is a dyadic rational: the fixed-point rounding
    of 1/q lands on the coding discontinuity and flips the piece at the wrap
    site.  Direct values stand in for those cases; coupling is taken as 1.
    """
    import numpy as np

    base = np.array([float(v) for v in values], dtype=float)
    if base.size == 0:
        raise ValueError("values must be nonempty")
    return PotentialWindow(
        system=None,
        f=None,
        lam=1.0,
        omega=None,
        n_min=n_min,
        n_max=n_min + base.size - 1,
        values=base,
        base_values=base,
    )


# ---------------------------------------------------------------------------
# the defect gamma(q)
# ---------------------------------------------------------------------------


def _gamma(base: list[float], q: int, lam: float) -> float:
    """|lam| times the defect of the lam-free samples at sites 1-q..2q (3q floats).

    Like numpy's max, any nan difference (a nan sample, or inf - inf) makes
    the defect nan, wherever it sits; Python's max alone would skip a nan
    that is not first.
    """
    mid = base[q : 2 * q]
    diffs = list(map(abs, map(sub, mid, base[2 * q :])))
    diffs += map(abs, map(sub, mid, base[:q]))
    raw = math.nan if any(map(math.isnan, diffs)) else max(diffs)
    return abs(float(lam)) * raw


def gordon_gamma(window: PotentialWindow, q: int) -> float:
    """max over n in [1, q] of |V(n) - V(n+q)| and |V(n) - V(n-q)|.

    Needs the window to cover [1-q, 2q].  Computed once per window and q (kept
    in the window's ``__dict__``, not a field) by ``_gamma`` from the unscaled
    samples as plain floats and multiplied by |lam| last, so it is exactly
    |lam|-homogeneous; a nan anywhere in the three blocks gives nan.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if window.n_min > 1 - q or window.n_max < 2 * q:
        raise WindowTooSmallError(
            f"defect at q={q} needs sites [{1 - q}, {2 * q}], window is "
            f"[{window.n_min}, {window.n_max}]"
        )
    gammas = window.__dict__.setdefault("_gammas", {})
    if q not in gammas:
        lo = 1 - q - window.n_min
        gammas[q] = _gamma(window.base_values[lo : lo + 3 * q].tolist(), q, window.lam)
    return gammas[q]


@dataclass(frozen=True)
class GordonProfile:
    """gamma(q) along a q-schedule plus a finite-horizon decay verdict.

    verdict is DECAY_CONSISTENT with c_max = the largest tested C whose
    log-space sequence log gamma(q) + q log C is non-increasing along the
    schedule (gamma = 0 entries count as the floor), else
    NO_DECAY_AT_HORIZON, as it is when any gamma is nan or inf.  Horizon
    evidence only, never a proof.
    """

    entries: tuple[tuple[int, float], ...]
    verdict: str
    c_max: float | None


DECAY_CONSISTENT = "DECAY_CONSISTENT"
NO_DECAY_AT_HORIZON = "NO_DECAY_AT_HORIZON"


def _decay_consistent(entries: Sequence[tuple[int, float]], c: float) -> bool:
    if not all(math.isfinite(g) for _, g in entries):
        return False  # a nan or inf defect is consistent with no decay rate
    log_c = math.log(c)
    for (q1, g1), (q2, g2) in zip(entries, entries[1:]):
        if g2 == 0.0:
            continue  # zero defect is the floor; any C is consistent with it
        if g1 == 0.0:
            return False  # rose from exact repetition back to a positive defect
        if math.log(g2) + q2 * log_c > math.log(g1) + q1 * log_c:
            return False
    return True


def gordon_profile(
    system: SystemSpec,
    f: SamplingFunction,
    lam: float,
    omega,
    q_list: Sequence[int],
    c_list: Sequence[float],
) -> GordonProfile:
    """Defect profile over q_list and the largest C consistent with decay.

    One orbit of plain float samples over [1 - max(q), 2 max(q)] serves
    every q (no ``PotentialWindow``, no numpy); each entry is bit for bit
    ``gordon_gamma(sample_potential(...), q)``.  The comparison runs in log
    space (log gamma + q log C) to dodge underflow of C**-q.
    """
    q_list = list(q_list)
    if not q_list:
        raise ValueError("q_list must be nonempty")
    if any(q < 1 for q in q_list):
        raise ValueError("q values must be >= 1")
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly increasing")
    if not c_list or not all(0 < c < math.inf for c in c_list):
        raise ValueError("c_list must be nonempty, positive and finite")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    q_top = q_list[-1]
    base = _orbit_samples(system, f, omega, 1 - q_top, 2 * q_top)
    entries = tuple((q, _gamma(base[q_top - q : q_top + 2 * q], q, lam)) for q in q_list)
    consistent = [c for c in c_list if _decay_consistent(entries, c)]
    if consistent:
        return GordonProfile(entries, DECAY_CONSISTENT, max(consistent))
    return GordonProfile(entries, NO_DECAY_AT_HORIZON, None)


def modulus_bound(f: SamplingFunction, delta: float) -> float:
    """Upper bound on |f(x) - f(y)| over dist(x, y) <= delta (max metric).

    Trigonometric variants use the Lipschitz bound 2*pi*|k|_1*delta per term,
    capped at the term's oscillation.  Piecewise-constant codings have no
    modulus near a jump; their oscillation sup is returned instead.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if isinstance(f, (Cosine, TrigPoly)):
        return sum(
            abs(amp) * min(2.0, 2 * math.pi * sum(abs(k) for k in freq) * delta)
            for freq, amp, _ in f.terms
        )
    if isinstance(f, BourgainQuadratic):
        return min(2.0, 2 * math.pi * delta)
    if isinstance(f, PiecewiseConstant):
        return max(f.values) - min(f.values)
    raise TypeError(f"unknown sampling function {type(f).__name__}")
