import dataclasses
import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from gordonlab import potentials

from gordonlab.arithmetic import (
    GOLDEN,
    LIOUVILLE10,
    SCALE,
    SQRT2_MINUS_1 as SQRT2,
    ZERO,
    FixedPointFrac,
)
from gordonlab.dynamics import Iet, Permutation, Shift, SkewProduct, SkewShift, TorusPoint, orbit
from gordonlab.potentials import (
    DECAY_CONSISTENT,
    NO_DECAY_AT_HORIZON,
    BourgainQuadratic,
    PotentialWindow,
    Cosine,
    DimensionMismatchError,
    PiecewiseConstant,
    TrigPoly,
    WindowTooSmallError,
    bourgain_start,
    evaluate_sampling,
    explicit_window,
    gordon_gamma,
    gordon_profile,
    modulus_bound,
    sample_potential,
)

from oracles import brute_defect, iet_orbit_fraction

QUARTER = FixedPointFrac.from_fraction(1, 4)
THIRD = FixedPointFrac.from_fraction(1, 3)


def torus1(x: FixedPointFrac) -> TorusPoint:
    return TorusPoint((x,))


class TestSamplingFunctions:
    def test_cosine_quarter_rotation_values(self):
        window = sample_potential(Shift((QUARTER,)), Cosine((1,)), 1.0, torus1(ZERO), 0, 3)
        assert window.values == pytest.approx([1.0, 0.0, -1.0, 0.0], abs=1e-15)

    def test_cosine_two_dim_frequency(self):
        point = TorusPoint((QUARTER, THIRD))
        got = evaluate_sampling(Cosine((2, 3)), point)
        assert got == pytest.approx(math.cos(2 * math.pi * (2 / 4 + 3 / 3)), abs=1e-12)

    def test_cosine_phase(self):
        assert evaluate_sampling(Cosine((1,), phase=0.25), torus1(ZERO)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_cosine_on_interval_point(self):
        assert evaluate_sampling(Cosine((2,)), 0.25) == pytest.approx(-1.0)

    def test_trig_poly_is_the_sum_of_its_terms(self):
        f = TrigPoly((((1,), 0.5, 0.0), ((3,), -0.25, 0.1), ((0,), 0.75, 0.0)))
        x = torus1(FixedPointFrac.from_float(0.37))
        t = 0.37
        expected = (
            0.5 * math.cos(2 * math.pi * t)
            - 0.25 * math.cos(2 * math.pi * (3 * t + 0.1))
            + 0.75
        )
        assert evaluate_sampling(f, x) == pytest.approx(expected, abs=1e-12)

    def test_piecewise_constant_pieces_and_cyclic_wrap(self):
        f = PiecewiseConstant((0.25, 0.75), (10.0, 20.0))
        assert evaluate_sampling(f, torus1(FixedPointFrac.from_float(0.5))) == 10.0
        assert evaluate_sampling(f, torus1(FixedPointFrac.from_float(0.8))) == 20.0
        # left of the first breakpoint -> wrapped last piece
        assert evaluate_sampling(f, torus1(FixedPointFrac.from_float(0.1))) == 20.0
        assert evaluate_sampling(f, torus1(ZERO)) == 20.0
        # plain floats are reduced mod 1 first
        assert evaluate_sampling(f, 1.5) == 10.0
        assert evaluate_sampling(f, -0.1) == 20.0

    def test_piecewise_constant_top_of_circle_stays_in_last_piece(self):
        # the largest representable coordinate rounds to 1.0 as a double but
        # is exactly 1 - 2**-128 on the circle: it belongs to the last piece
        f = PiecewiseConstant((0.0, 0.5), (-3.0, 7.0))
        assert evaluate_sampling(f, torus1(FixedPointFrac(SCALE - 1))) == 7.0
        g = PiecewiseConstant((0.25, 0.75), (10.0, 20.0))
        assert evaluate_sampling(g, torus1(FixedPointFrac(SCALE - 1))) == 20.0

    def test_piecewise_constant_picks_the_exact_piece_next_to_a_breakpoint(self):
        # 2**-58 below the breakpoint: the rounded phase x / 2**128 is b itself
        b = 1 - GOLDEN.value / SCALE
        f = PiecewiseConstant((0.0, b), (0.0, 1.0))
        cut = math.ceil(Fraction(b) * SCALE)
        below = cut - 2**70
        assert (below / SCALE) == b
        assert evaluate_sampling(f, torus1(FixedPointFrac(below))) == 0.0
        assert evaluate_sampling(f, torus1(FixedPointFrac(cut - 1))) == 0.0
        assert evaluate_sampling(f, torus1(FixedPointFrac(cut))) == 1.0
        omega = torus1(FixedPointFrac(below - 7 * GOLDEN.value))
        window = sample_potential(Shift((GOLDEN,)), f, 1.0, omega, 0, 10)
        assert window.value_at(7) == 0.0

    def test_piecewise_constant_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.5, 0.25), (1.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseConstant((0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseConstant((0.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseConstant((), ())

    def test_bourgain_quadratic_realizes_the_quadratic_phase(self):
        alpha = FixedPointFrac.from_float(0.1357)
        w1 = FixedPointFrac.from_float(0.21)
        w2 = FixedPointFrac.from_float(0.68)
        window = sample_potential(
            SkewShift(alpha), BourgainQuadratic(), 1.0, bourgain_start(w1, w2), 0, 40
        )
        a, b, c = 0.21, 0.68, 0.1357
        for n in range(41):
            direct = math.cos(2 * math.pi * (a + b * n + c * n * (n - 1)))
            assert window.value_at(n) == pytest.approx(direct, abs=1e-10)

    def test_a_number_is_sampled_exactly_and_other_points_are_rejected(self):
        f = PiecewiseConstant((0.0, 0.5), (0.0, 1.0))
        assert evaluate_sampling(f, Fraction(1, 2) - Fraction(1, 2**200)) == 0.0
        assert evaluate_sampling(f, Fraction(-1, 2**200)) == 1.0  # frac wraps to 1 - 2**-200
        assert evaluate_sampling(f, 3) == 0.0
        for bad in ("0.5", (0.5,), [FixedPointFrac(0)], None):
            with pytest.raises(TypeError):
                evaluate_sampling(f, bad)
        for g in (f, Cosine((1,))):  # a nan cosine point gave nan
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    evaluate_sampling(g, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_parameter_fails_at_construction(self, bad):
        # a nan phase gave nan samples, an inf phase failed only when sampled
        with pytest.raises(ValueError, match="phase must be finite"):
            Cosine((1,), bad)
        with pytest.raises(ValueError, match="amplitudes and phases must be finite"):
            TrigPoly((((1,), bad, 0.0),))
        with pytest.raises(ValueError, match="amplitudes and phases must be finite"):
            TrigPoly((((1,), 1.0, 0.0), ((2,), 0.5, bad)))
        with pytest.raises(ValueError, match="values must be finite"):
            PiecewiseConstant((0.0, 0.5), (0.0, bad))

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_sampling(Cosine((1, 1)), torus1(ZERO))
        with pytest.raises(DimensionMismatchError):
            evaluate_sampling(Cosine((1, 1)), 0.5)
        with pytest.raises(DimensionMismatchError):
            evaluate_sampling(PiecewiseConstant((0.0,), (1.0,)), TorusPoint((ZERO, ZERO)))
        with pytest.raises(DimensionMismatchError):
            evaluate_sampling(BourgainQuadratic(), torus1(ZERO))
        with pytest.raises(DimensionMismatchError):
            sample_potential(SkewShift(GOLDEN), Cosine((1,)), 1.0, TorusPoint((ZERO, ZERO)), 0, 3)
        with pytest.raises(DimensionMismatchError):
            sample_potential(Shift((GOLDEN,)), BourgainQuadratic(), 1.0, torus1(ZERO), 0, 3)


def _start(*xs):
    return TorusPoint(tuple(FixedPointFrac.from_float(x) for x in xs))


SAMPLING_SYSTEMS = {
    "shift-d1": (Shift((GOLDEN,)), _start(0.3)),
    "shift-d2": (Shift((GOLDEN, SQRT2)), _start(0.3, 0.8)),
    "skewshift": (SkewShift(LIOUVILLE10), _start(0.3, 0.8)),
    "skewproduct-d3": (SkewProduct(3, GOLDEN), _start(0.3, 0.8, 0.55)),
    "skewproduct-d5": (SkewProduct(5, SQRT2), _start(0.9, 0.1, 0.45, 0.3, 0.65)),
    "iet": (Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2))), 0.123),
    "iet-fraction": (Iet((Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)), Permutation((3, 1, 2))),
                     Fraction(123, 1000)),
}


def _sampling_functions(d):
    zero, ones = (0,) * d, (1,) * d
    fs = {
        "cosine": Cosine(tuple(range(1, d + 1)), 0.3),
        "cosine-negative": Cosine(tuple(range(-d, 0)), 0.7),
        "trigpoly": TrigPoly(((ones, 0.5, 0.0), (tuple(range(d, 0, -1)), -1.25, 0.1))),
        # a constant term, and a term whose amplitude is 0.0: 0.0 + 0.0*cos must
        # stay +0.0 where the cosine is negative
        "trigpoly-zero-frequency": TrigPoly(((zero, 0.75, 0.2), (ones, -0.5, 0.4))),
        "trigpoly-zero-amplitude": TrigPoly(((ones, 0.0, 0.3),)),
    }
    if d == 1:
        fs["coding"] = PiecewiseConstant((0.1, 0.5), (2.0, -1.0))
    else:
        fs["bourgain"] = BourgainQuadratic()
    return fs


COMPATIBLE_PAIRS = [
    pytest.param(system, omega, f, id=f"{sname}-{fname}")
    for sname, (system, omega) in SAMPLING_SYSTEMS.items()
    for fname, f in _sampling_functions(1 if isinstance(system, Iet) else system.dim).items()
]


def reference_sample(f, point: TorusPoint) -> float:
    """f at a torus point, term by term from its raw coordinates."""
    w = point.raw
    if isinstance(f, PiecewiseConstant):
        x = Fraction(w[0], SCALE)  # exact, compared exactly with the float breakpoints
        return f.values[bisect_right(f.breakpoints, x) - 1]
    if isinstance(f, BourgainQuadratic):
        return math.cos(2 * math.pi * (w[1] / SCALE))
    total = 0.0
    for k, amp, phase in f.terms:
        t = (sum(a * b for a, b in zip(k, w)) % SCALE) / SCALE
        total = total + amp * math.cos(2 * math.pi * (t + phase))
    return total


def reference_iet_sample(f, x: Fraction) -> float:
    """f at an exact IET point: frac(k*x) is rounded to a float once, and a
    coding compares frac(x) with the breakpoints as exact Fractions."""
    if isinstance(f, PiecewiseConstant):
        return f.values[bisect_right([Fraction(b) for b in f.breakpoints], x % 1) - 1]
    total = 0.0
    for (k,), amp, phase in f.terms:
        total = total + amp * math.cos(2 * math.pi * (float(k * x % 1) + phase))
    return total


def reference_iet_window(iet, f, omega, n_min: int, n_max: int) -> list[float]:
    """f(T^n omega) for n_min <= 0 <= n_max from exact literal stepping: the
    past by the inverse exchange, whose intervals are T's image intervals in
    order, each sent back to where it came from."""
    images = iet.perm.images
    inv = sorted(range(len(images)), key=images.__getitem__)  # inv[i] = perm^-1(i+1) - 1
    past = iet_orbit_fraction([iet.lengths[j] for j in inv], [j + 1 for j in inv], omega, -n_min)
    future = iet_orbit_fraction(iet.lengths, images, omega, n_max)
    return [reference_iet_sample(f, x) for x in past[:0:-1] + future]


@pytest.mark.parametrize("system, omega, f", COMPATIBLE_PAIRS)
def test_sample_potential_matches_pointwise_evaluation_along_the_orbit(system, omega, f):
    window = sample_potential(system, f, 2.0, omega, -20, 50)
    points = orbit(system, omega, -20, 50)
    got = list(map(float.hex, window.base_values.tolist()))
    if isinstance(system, Iet):
        assert got == list(map(float.hex, reference_iet_window(system, f, omega, -20, 50)))
        # an IET with float lengths hands out rounded points; exact ones sample alike
        exact_points = all(isinstance(x, Fraction) for x in system.lengths)
    else:
        assert got == [float.hex(reference_sample(f, p)) for p in points]
        exact_points = True
    if exact_points:
        assert got == [float.hex(evaluate_sampling(f, p)) for p in points]
    if isinstance(f, TrigPoly) and all(amp == 0.0 for _, amp, _ in f.terms):
        assert got == [float.hex(0.0)] * len(points)


def _random_iet_case(rng: random.Random):
    """A seeded IET (float or Fraction lengths), start point and function."""
    m = rng.randint(2, 5)
    images = list(range(1, m + 1))
    rng.shuffle(images)
    if rng.random() < 0.5:
        lengths = [rng.uniform(0.05, 1.0) for _ in range(m)]
        omega = 0.99 * rng.random() * sum(lengths)
    else:
        lengths = [Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(m)]
        omega = Fraction(rng.randrange(10**6), 10**6) * sum(lengths)
    kind = rng.choice(["cosine", "trigpoly", "coding"])
    if kind == "cosine":
        f = Cosine((rng.randint(-3, 3),), rng.random())
    elif kind == "trigpoly":
        f = TrigPoly(tuple(((rng.randint(-4, 4),), rng.uniform(-2, 2), rng.random())
                           for _ in range(rng.randint(1, 3))))
    else:
        cuts = sorted({0.0, *(rng.random() for _ in range(rng.randint(0, 3)))})
        f = PiecewiseConstant(cuts, [float(rng.randint(-3, 3)) for _ in cuts])
    return Iet(lengths, Permutation(tuple(images))), omega, f


@pytest.mark.parametrize("seed", range(8))
def test_iet_windows_match_the_exact_oracle(seed):
    """Seeded IET windows, float and Fraction, against literal Fraction
    stepping with each sample rounded once: bit for bit."""
    rng = random.Random(2700 + seed)
    for _ in range(25):
        iet, omega, f = _random_iet_case(rng)
        n_min, n_max = -rng.randint(0, 30), rng.randint(0, 60)
        window = sample_potential(iet, f, 1.0, omega, n_min, n_max)
        got = list(map(float.hex, window.base_values.tolist()))
        assert got == list(map(float.hex, reference_iet_window(iet, f, omega, n_min, n_max)))


def test_an_iet_coding_picks_the_exact_piece_next_to_a_breakpoint():
    # omega = 1/2 - 2**-70 rounds to the float 1/2, which sits in the other piece
    iet = Iet((1 / 2, 1 / 2), Permutation((2, 1)))
    f = PiecewiseConstant((0.0, 0.5), (0.0, 1.0))
    omega = Fraction(1, 2) - Fraction(1, 2**70)
    window = sample_potential(iet, f, 1.0, omega, 0, 3)
    assert window.base_values.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert evaluate_sampling(f, omega) == 0.0
    assert evaluate_sampling(f, float(omega)) == 1.0


class TestPotentialWindow:
    def test_fields_and_value_at(self):
        window = sample_potential(Shift((GOLDEN,)), Cosine((1,)), 2.5, torus1(ZERO), -3, 5)
        assert (window.n_min, window.n_max) == (-3, 5)
        assert len(window.values) == 9
        assert window.value_at(-3) == window.values[0]
        assert window.value_at(5) == window.values[-1]
        assert window.value_at(0) == pytest.approx(2.5)  # lam * cos(0)
        with pytest.raises(WindowTooSmallError):
            window.value_at(6)
        with pytest.raises(WindowTooSmallError):
            window.value_at(-4)

    def test_values_are_lam_times_base(self):
        window = sample_potential(Shift((GOLDEN,)), Cosine((1,)), -1.75, torus1(ZERO), 0, 20)
        assert np.array_equal(window.values, -1.75 * window.base_values)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_potential(Shift((GOLDEN,)), Cosine((1,)), 1.0, torus1(ZERO), 3, 0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_lam_is_rejected(self, lam):
        # gave an all-nan or all-inf window; gordon_profile rejects the same lam
        with pytest.raises(ValueError, match="lam must be finite"):
            sample_potential(Shift((GOLDEN,)), Cosine((1,)), lam, torus1(ZERO), 0, 5)

    @pytest.mark.parametrize("system, omega, f", COMPATIBLE_PAIRS)
    def test_a_unit_coupling_window_keeps_one_array(self, system, omega, f):
        # 1.0 * x is x bit for bit, so the product would only be a second copy
        for lam in (1.0, 1):
            window = sample_potential(system, f, lam, omega, -20, 50)
            assert window.values is window.base_values and window.lam == 1.0
            assert window.values.tobytes() == (1.0 * window.base_values).tobytes()
            assert not window.values.flags.writeable
        for lam in (-1.0, 0.5, 2.0):
            window = sample_potential(system, f, lam, omega, -20, 50)
            assert window.values is not window.base_values
            assert window.values.tobytes() == (lam * window.base_values).tobytes()

    def test_iet_sampling(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        window = sample_potential(iet, Cosine((1,)), 1.0, 0.2, 0, 5)
        pts = orbit(iet, 0.2, 0, 5)
        for n, p in enumerate(pts):
            assert window.value_at(n) == pytest.approx(math.cos(2 * math.pi * p), abs=1e-12)

    def test_explicit_window(self):
        window = explicit_window([1.0, 0.0, -1.0, 0.0] * 3, n_min=-4)
        assert (window.n_min, window.n_max) == (-4, 7)
        assert window.system is None and window.f is None and window.omega is None
        assert window.lam == 1.0
        assert window.value_at(-4) == 1.0
        assert window.value_at(0) == 1.0
        with pytest.raises(ValueError):
            explicit_window([], 0)


class TestGordonGamma:
    def golden_window(self, lam=1.0, q_top=8):
        return sample_potential(
            Shift((GOLDEN,)), Cosine((1,)), lam, torus1(ZERO), 1 - q_top, 2 * q_top
        )

    def test_golden_frozen_value_and_rotation_bound(self):
        window = self.golden_window()
        gamma = gordon_gamma(window, 8)
        assert gamma == 0.34703002961845153
        step = (8 * GOLDEN).norm()
        assert gamma <= modulus_bound(Cosine((1,)), step)
        assert modulus_bound(Cosine((1,)), step) == pytest.approx(
            0.35014991629046716, rel=1e-12
        )

    def test_matches_brute_force_reference(self):
        window = self.golden_window(lam=1.3, q_top=8)
        table = {n: window.value_at(n) for n in range(window.n_min, window.n_max + 1)}
        for q in (1, 2, 3, 5, 8):
            assert gordon_gamma(window, q) == pytest.approx(brute_defect(table, q), rel=1e-12)

    def test_uses_both_directions(self):
        # forward pairs match exactly; the defect must still see the backward
        # mismatch at n - q
        vals = {-1: 0.5, 0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        window = explicit_window([vals[n] for n in range(-1, 5)], n_min=-1)
        assert gordon_gamma(window, 2) == 0.5

    def test_exactly_periodic_array_has_zero_defect(self):
        window = explicit_window([0.0, 1.0, 0.0, -1.0] * 3, n_min=-3)
        assert gordon_gamma(window, 4) == 0.0

    def test_window_too_small(self):
        window = self.golden_window(q_top=8)
        with pytest.raises(WindowTooSmallError):
            gordon_gamma(window, 9)
        with pytest.raises(ValueError):
            gordon_gamma(window, 0)

    def test_coupling_homogeneity_is_exact(self):
        base = self.golden_window(lam=1.0)
        g1 = gordon_gamma(base, 8)
        for lam in (-2.5, 3.7, 1e3, 1e-7):
            scaled = self.golden_window(lam=lam)
            assert gordon_gamma(scaled, 8) == abs(lam) * g1  # exact, not approx
        assert gordon_gamma(self.golden_window(lam=0.0), 8) == 0.0


class TestGammaMemo:
    """gamma(q) is computed once per window and q; the window's arrays are read-only."""

    def windows(self):
        sampled = sample_potential(Shift((GOLDEN,)), Cosine((1,)), -1.3, torus1(ZERO), -7, 16)
        explicit = explicit_window([math.sin(n) for n in range(-7, 17)], n_min=-7)
        return sampled, explicit

    def test_a_second_call_reads_the_memo(self, monkeypatch):
        calls = []
        kernel = potentials._gamma
        monkeypatch.setattr(potentials, "_gamma", lambda *a: calls.append(a) or kernel(*a))
        for window in self.windows():
            calls.clear()
            first = [gordon_gamma(window, q) for q in (1, 5, 8)]
            assert len(calls) == 3
            again = [gordon_gamma(window, q) for q in (8, 5, 1)][::-1]
            assert len(calls) == 3 and list(map(repr, again)) == list(map(repr, first))
            fresh = [kernel(window.base_values[7 - q + 1 : 7 + 2 * q + 1].tolist(), q, window.lam)
                     for q in (1, 5, 8)]
            assert list(map(repr, fresh)) == list(map(repr, first))

    def test_a_rejected_q_is_rejected_every_time(self):
        window = self.windows()[0]
        for _ in range(2):
            with pytest.raises(WindowTooSmallError):
                gordon_gamma(window, 9)
            with pytest.raises(ValueError):
                gordon_gamma(window, 0)

    def test_the_arrays_are_read_only(self):
        for window in self.windows():
            for array in (window.values, window.base_values):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
                with pytest.raises(ValueError):
                    array += 1.0

    def test_the_memo_is_not_a_field(self):
        names = [f.name for f in dataclasses.fields(PotentialWindow)]
        assert names == ["system", "f", "lam", "omega", "n_min", "n_max", "values", "base_values"]
        for window in self.windows():
            gordon_gamma(window, 3)
            assert [f.name for f in dataclasses.fields(window)] == names

    def test_a_window_built_from_writeable_arrays_keeps_its_own_copy(self):
        b = np.array([0.0, 1.0] * 3)
        w = PotentialWindow(None, None, 1.0, None, -1, 4, b, b)
        assert gordon_gamma(w, 2) == 0.0
        b[0] = 5.0
        assert gordon_gamma(w, 2) == 0.0
        assert gordon_gamma(dataclasses.replace(w), 2) == 0.0
        assert gordon_gamma(PotentialWindow(None, None, 1.0, None, -1, 4, b, b), 2) == 5.0
        assert w.values is w.base_values and w.values is not b
        assert not w.values.flags.writeable and w.values.tolist() == [0.0, 1.0] * 3

    def test_no_flag_makes_the_arrays_writeable(self):
        w = explicit_window([0.0, 1.0] * 3, -1)
        assert gordon_gamma(w, 2) == 0.0
        with pytest.raises(ValueError):
            w.values.flags.writeable = True
        with pytest.raises(ValueError):
            w.values[0] = 5.0
        assert gordon_gamma(w, 2) == 0.0 and gordon_gamma(dataclasses.replace(w), 2) == 0.0
        for window in self.windows():
            for array in (window.values, window.base_values, window.values[2:5]):
                with pytest.raises(ValueError):
                    array.flags.writeable = True

    def test_views_and_writeable_arrays_are_copied_read_only(self):
        data = np.arange(8.0)
        view = data[1:7]
        view.flags.writeable = False  # read-only, but data can still change it
        w = PotentialWindow(None, None, 2.0, None, 0, 5, 2.0 * view, view)
        for array in (w.values, w.base_values):
            assert isinstance(array.base, bytes) and not array.flags.writeable
        assert w.base_values is not view and w.values is not w.base_values
        data[:] = -1.0
        assert w.base_values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_read_only_arrays_of_the_builders_are_not_copied(self):
        for window in self.windows():
            again = dataclasses.replace(window)
            assert again.values is window.values and again.base_values is window.base_values
        explicit = self.windows()[1]
        assert explicit.values is explicit.base_values

    def test_a_replaced_window_starts_with_an_empty_memo(self):
        window = self.windows()[0]
        g = gordon_gamma(window, 8)
        scaled = dataclasses.replace(window, lam=4.0)
        assert "_gammas" not in scaled.__dict__
        unit = gordon_gamma(dataclasses.replace(window, lam=1.0), 8)
        assert gordon_gamma(scaled, 8) == 4.0 * unit and g == 1.3 * unit  # lam was -1.3
        assert gordon_gamma(window, 8) == g


def numpy_gamma(window, q):
    """gamma(q) as one numpy max over every |V(n) - V(n +- q)|, n in [1, q]."""
    base, off = window.base_values, -window.n_min
    mid = base[off + 1 : off + q + 1]
    with np.errstate(invalid="ignore"):
        diffs = np.abs(np.concatenate([mid - base[off + 1 + q : off + 2 * q + 1],
                                       mid - base[off + 1 - q : off + 1]]))
    return abs(window.lam) * float(diffs.max())


class TestGammaKernel:
    """The plain-float kernel against numpy's max, nan and inf included."""

    BLOCKS = {"minus": 0, "mid": 1, "plus": 2}

    def test_matches_numpy_on_sampled_windows(self):
        rng = random.Random(19)
        for _ in range(200):
            q = rng.randint(1, 40)
            lam = rng.choice([0.0, -1.75, 1.0, 5.0, rng.uniform(-10, 10)])
            omega = torus1(FixedPointFrac(rng.getrandbits(128)))
            window = sample_potential(Shift((GOLDEN,)), Cosine((1,)), lam, omega, 1 - q, 2 * q)
            assert gordon_gamma(window, q) == numpy_gamma(window, q)

    @pytest.mark.parametrize("block", ["minus", "mid", "plus"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_sample_in_any_block_is_seen(self, block, bad):
        q = 4
        for n in range(q):
            values = [0.25 * k for k in range(3 * q)]
            values[self.BLOCKS[block] * q + n] = bad
            window = explicit_window(values, n_min=1 - q)
            gamma = gordon_gamma(window, q)
            assert repr(gamma) == repr(numpy_gamma(window, q))
            assert repr(gamma) == ("nan" if math.isnan(bad) else "inf")

    def test_a_nan_after_a_finite_difference_is_not_skipped(self):
        # Python's max keeps a finite first value past a later nan
        for values in ([9.0, 1.0, 2.0, 0.0, 1.0, math.nan],
                       [9.0, 2.0, 1.0, math.nan, 0.0, 1.0],
                       [math.nan, 9.0, 1.0, 2.0, 0.0, 1.0]):
            assert math.isnan(gordon_gamma(explicit_window(values, n_min=-1), 2))

    def test_inf_facing_inf_is_nan(self):
        q = 3
        for other in (0, 2):  # the mid site's partner in the minus or plus block
            values = [0.5] * (3 * q)
            values[q] = values[other * q] = math.inf
            window = explicit_window(values, n_min=1 - q)
            assert math.isnan(gordon_gamma(window, q))
            assert math.isnan(numpy_gamma(window, q))


PROFILE_CASES = [
    pytest.param(Shift((GOLDEN,)), Cosine((1,), 0.2), _start(0.3), id="shift-cosine"),
    pytest.param(Shift((LIOUVILLE10,)), PiecewiseConstant((0.1, 0.5), (2.0, -1.0)), _start(0.7),
                 id="shift-coding"),
    pytest.param(SkewShift(GOLDEN), BourgainQuadratic(), _start(0.3, 0.8), id="skewshift-bourgain"),
    pytest.param(SkewShift(SQRT2), TrigPoly((((1, 2), 0.5, 0.0), ((0, 1), -1.25, 0.1))),
                 _start(0.6, 0.1), id="skewshift-trigpoly"),
    pytest.param(Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2))),
                 PiecewiseConstant((0.25, 0.6), (1.0, -0.5)), 0.123, id="iet-coding"),
    pytest.param(Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2))), Cosine((3,)), 0.77, id="iet-cosine"),
]


@pytest.mark.parametrize("lam", [0.0, -1.75, 1.0, 5.0])
@pytest.mark.parametrize("system, f, omega", PROFILE_CASES)
def test_profile_entries_are_gordon_gamma_of_sampled_windows(system, f, omega, lam):
    """gordon_profile builds no window; each entry is still bit for bit the
    gamma of a sampled PotentialWindow over [1-q, 2q]."""
    q_list = [1, 2, 3, 5, 8, 13, 21]
    profile = gordon_profile(system, f, lam, omega, q_list, [1.5])
    expected = []
    for q in q_list:
        window = sample_potential(system, f, lam, omega, 1 - q, 2 * q)
        expected.append((q, gordon_gamma(window, q)))
        assert expected[-1][1] == numpy_gamma(window, q)
    assert profile.entries == tuple(expected)


@pytest.mark.parametrize("lam", [0.0, -1.75, 5.0])
@pytest.mark.parametrize("system, omega, f", COMPATIBLE_PAIRS)
def test_profile_entries_are_window_gammas_bit_for_bit(system, omega, f, lam):
    """Every system and function of the sampler: each profile entry has the
    bits of gordon_gamma on a window sampled over [1-q, 2q]."""
    q_list = [1, 2, 3, 5, 8, 13]
    profile = gordon_profile(system, f, lam, omega, q_list, [1.5])
    expected = [gordon_gamma(sample_potential(system, f, lam, omega, 1 - q, 2 * q), q)
                for q in q_list]
    assert [q for q, _ in profile.entries] == q_list
    assert [float.hex(g) for _, g in profile.entries] == list(map(float.hex, expected))


class TestGordonProfile:
    def test_liouville_cosine_frozen_profile(self):
        profile = gordon_profile(
            Shift((LIOUVILLE10,)),
            Cosine((1,)),
            1.0,
            torus1(ZERO),
            [9, 100],
            [1.01, 1.05, 2.0],
        )
        assert profile.verdict == DECAY_CONSISTENT
        assert profile.c_max == 1.05
        (q1, g1), (q2, g2) = profile.entries
        assert (q1, q2) == (9, 100)
        assert g1 == 0.06248601712479675
        assert g2 == 0.0006283185126311026

    def test_large_c_alone_is_rejected(self):
        # gamma(q) tracks 2*pi*<q*alpha>, far above 2**-q: C=2 cannot hold
        profile = gordon_profile(
            Shift((LIOUVILLE10,)), Cosine((1,)), 1.0, torus1(ZERO), [9, 100], [2.0]
        )
        assert profile.verdict == NO_DECAY_AT_HORIZON
        assert profile.c_max is None

    def test_coding_never_decays(self):
        profile = gordon_profile(
            Shift((GOLDEN,)),
            PiecewiseConstant((0.0, 0.5), (0.0, 1.0)),
            1.0,
            torus1(ZERO),
            [1, 2, 3, 5, 8],
            [1.01],
        )
        assert profile.verdict == NO_DECAY_AT_HORIZON
        assert all(g == 1.0 for _, g in profile.entries)

    def test_rise_from_an_exact_zero_never_decays(self):
        # alpha = 1/2 repeats exactly at q = 2; at q = 3 the defect is back
        profile = gordon_profile(
            Shift((FixedPointFrac.from_fraction(1, 2),)), Cosine((1,)), 1.0,
            torus1(FixedPointFrac.from_float(0.1)), [2, 3], [1.01, 2.0, 100.0],
        )
        assert profile.entries == ((2, 0.0), (3, 1.618033988749895))
        assert profile.verdict == NO_DECAY_AT_HORIZON
        assert profile.c_max is None

    def test_zero_coupling_is_consistent_with_any_c(self):
        profile = gordon_profile(
            Shift((GOLDEN,)), Cosine((1,)), 0.0, torus1(ZERO), [1, 2, 3], [2.0]
        )
        assert profile.verdict == DECAY_CONSISTENT
        assert profile.c_max == 2.0
        assert all(g == 0.0 for _, g in profile.entries)

    def test_validation(self):
        args = (Shift((GOLDEN,)), Cosine((1,)), 1.0, torus1(ZERO))
        with pytest.raises(ValueError):
            gordon_profile(*args, [], [1.5])
        with pytest.raises(ValueError):
            gordon_profile(*args, [3, 3], [1.5])
        with pytest.raises(ValueError):
            gordon_profile(*args, [5, 2], [1.5])
        with pytest.raises(ValueError):
            gordon_profile(*args, [0, 4], [1.5])
        with pytest.raises(ValueError):
            gordon_profile(*args, [1, 2], [])
        with pytest.raises(ValueError):
            gordon_profile(*args, [1, 2], [-1.0])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_lam_is_rejected(self, lam):
        # gave all-nan or all-inf entries with DECAY_CONSISTENT and c_max 1.01
        with pytest.raises(ValueError, match="lam must be finite"):
            gordon_profile(Shift((GOLDEN,)), Cosine((1,)), lam, torus1(GOLDEN), [1, 2, 3], [1.01])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_no_decay_verdict_rests_on_a_non_finite_gamma(self, bad):
        for entries in (((1, bad),), ((1, bad), (2, bad)), ((1, 0.5), (2, bad)),
                        ((1, bad), (2, 0.0)), ((1, 0.5), (2, 0.25), (3, bad))):
            assert not potentials._decay_consistent(entries, 1.01)
        assert potentials._decay_consistent(((1, 0.5), (2, 0.25), (3, 0.0)), 1.01)

    def test_an_overflowing_sample_gives_no_decay(self):
        # two terms of amplitude 1e308 sum past the largest float where the
        # cosine is near 1, so some defect is inf or nan
        huge = TrigPoly((((1,), 1e308, 0.0), ((1,), 1e308, 0.0)))
        profile = gordon_profile(Shift((GOLDEN,)), huge, 1.0, torus1(ZERO), [1, 2, 3, 5, 8], [1.01])
        assert not all(math.isfinite(g) for _, g in profile.entries)
        assert (profile.verdict, profile.c_max) == (NO_DECAY_AT_HORIZON, None)

    @pytest.mark.parametrize("c_list", [[math.nan], [math.inf, 1.01], [1.5, -math.inf], [2.0, math.nan]])
    def test_a_non_finite_c_is_rejected(self, c_list):
        # [nan] gave DECAY_CONSISTENT with c_max nan, [inf, 1.01] c_max inf
        with pytest.raises(ValueError, match="c_list"):
            gordon_profile(Shift((GOLDEN,)), Cosine((1,)), 1.0, torus1(ZERO), [1, 2], c_list)


class TestModulusBound:
    def test_cosine_lipschitz_and_cap(self):
        assert modulus_bound(Cosine((1,)), 0.1) == pytest.approx(
            0.6283185307179586, rel=1e-15
        )
        assert modulus_bound(Cosine((3,)), 0.5) == 2.0  # capped at the oscillation
        assert modulus_bound(Cosine((2, -3)), 0.01) == pytest.approx(
            2 * math.pi * 5 * 0.01, rel=1e-12
        )
        assert modulus_bound(Cosine((1,)), 0.0) == 0.0

    def test_trig_poly_sums_per_term_caps(self):
        f = TrigPoly((((1,), 0.25, 0.0),))
        assert modulus_bound(f, 0.1) == pytest.approx(0.15707963267948966, rel=1e-15)
        g = TrigPoly((((1,), 0.5, 0.0), ((4,), 0.125, 0.3)))
        assert modulus_bound(g, 10.0) == pytest.approx(0.5 * 2 + 0.125 * 2, rel=1e-15)

    def test_piecewise_constant_returns_oscillation(self):
        f = PiecewiseConstant((0.0, 0.25, 0.5), (3.0, -1.0, 2.0))
        assert modulus_bound(f, 1e-9) == 4.0
        assert modulus_bound(f, 0.3) == 4.0

    def test_bourgain_matches_unit_cosine(self):
        assert modulus_bound(BourgainQuadratic(), 0.07) == modulus_bound(Cosine((1,)), 0.07)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            modulus_bound(Cosine((1,)), -0.1)

    def test_nan_delta_rejected_and_infinite_delta_is_the_cap(self):
        for f in (Cosine((1,)), BourgainQuadratic(), PiecewiseConstant((0.0,), (1.0,))):
            with pytest.raises(ValueError, match="delta"):
                modulus_bound(f, math.nan)  # gave 2.0 for the cosine
        assert modulus_bound(Cosine((1,)), math.inf) == 2.0
        assert modulus_bound(BourgainQuadratic(), math.inf) == 2.0

    def test_bound_dominates_sampled_oscillation(self):
        rng = random.Random(23)
        funcs = [
            Cosine((1,)),
            Cosine((3,), phase=0.2),
            TrigPoly((((1,), 0.5, 0.0), ((2,), -0.3, 0.45), ((5,), 0.1, 0.9))),
        ]
        for f in funcs:
            for _ in range(200):
                delta = rng.uniform(0.0, 0.2)
                x = rng.random()
                y = (x + rng.uniform(-delta, delta)) % 1.0
                px = torus1(FixedPointFrac.from_float(x))
                py = torus1(FixedPointFrac.from_float(y))
                if px.dist(py) > delta:
                    continue  # mod-1 jump: circle distance exceeds delta
                diff = abs(evaluate_sampling(f, px) - evaluate_sampling(f, py))
                assert diff <= modulus_bound(f, delta) + 1e-12

    def test_bound_dominates_gamma_via_repetition_distance(self):
        # the chain: orbit pairs at lag q sit within <q*alpha>, so the defect
        # is at most the modulus at that distance
        for f in (Cosine((1,)), TrigPoly((((1,), 0.6, 0.1), ((2,), 0.2, 0.0)))):
            window = sample_potential(
                Shift((SQRT2,)), f, 1.0, torus1(FixedPointFrac.from_float(0.3)), -28, 58
            )
            for q in (1, 2, 5, 12, 29):
                step = (q * SQRT2).norm()
                assert gordon_gamma(window, q) <= modulus_bound(f, step) + 1e-15
