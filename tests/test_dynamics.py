import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gordonlab.arithmetic import GOLDEN, SCALE, SQRT2_MINUS_1, FixedPointFrac, ZERO
from gordonlab.dynamics import (
    Iet,
    OutOfDomainError,
    Permutation,
    Shift,
    SkewProduct,
    SkewShift,
    TorusPoint,
    UnsupportedSystemError,
    _iet_twin,
    _random_raw,
    _closed_form_raw,
    _unipotent_power,
    iet_pieces,
    iet_refine_continuity,
    orbit,
    random_point,
    raw_orbit,
    raw_phases,
    system_dim,
    wrap_state,
)
from gordonlab.repetition import _certifies

from iet_reference import refine_continuity_stepping
from oracles import circle_dist_fraction, skewshift_orbit_fraction

# their float sum exceeds their exact sum: 1 - 2^-53 times it lay outside the IET
LARGE_DRAW_LENGTHS = (1.924402250361636, 1.1405611404903604, 0.34303419035543725)

raw_values = st.integers(min_value=0, max_value=SCALE - 1)
# dyadic rationals are exactly representable, so Fraction oracles are exact
dyadics = st.integers(min_value=0, max_value=2**20 - 1).map(
    lambda k: Fraction(k, 2**20)
)

large_n = st.integers(min_value=-(10**12), max_value=10**12)
small_or_large_n = st.one_of(st.integers(min_value=-20, max_value=20), large_n)
TORUS_SYSTEMS = {
    "shift-d1": lambda alpha: Shift((alpha,)),
    "shift-d2": lambda alpha: Shift((alpha, SQRT2_MINUS_1)),
    "skewshift": SkewShift,
    **{f"skewproduct-d{d}": (lambda alpha, d=d: SkewProduct(d, alpha)) for d in range(1, 7)},
}


def fxp(f: Fraction) -> FixedPointFrac:
    return FixedPointFrac.from_fraction(f.numerator, f.denominator)


class TestTorusPoint:
    def test_max_metric(self):
        p = TorusPoint.from_floats(0.1, 0.9)
        q = TorusPoint.from_floats(0.2, 0.2)
        # second coordinate wraps: distance 0.3 > first coordinate 0.1
        assert p.dist(q) == pytest.approx(0.3, abs=1e-12)

    @given(st.lists(raw_values, min_size=1, max_size=4), st.lists(raw_values, min_size=1, max_size=4))
    def test_symmetry_and_triangle(self, a, b):
        n = min(len(a), len(b))
        x = TorusPoint(tuple(FixedPointFrac(v) for v in a[:n]))
        y = TorusPoint(tuple(FixedPointFrac(v) for v in b[:n]))
        assert x.dist_raw(y) == y.dist_raw(x)
        assert x.dist_raw(x) == 0

    @given(st.lists(st.tuples(raw_values, raw_values), min_size=1, max_size=4))
    def test_dist_raw_is_the_exact_max_metric(self, pairs):
        x = TorusPoint(tuple(FixedPointFrac(a) for a, _ in pairs))
        y = TorusPoint(tuple(FixedPointFrac(b) for _, b in pairs))
        exact = max(circle_dist_fraction(Fraction(a - b, SCALE)) for a, b in pairs)
        assert Fraction(x.dist_raw(y), SCALE) == exact

    def test_dist_raw_reflects_past_half_a_turn(self):
        half = SCALE // 2
        for diff, expected in [(half - 1, half - 1), (half, half), (half + 1, half - 1)]:
            for base in (0, 5, SCALE - 3):
                x = TorusPoint((FixedPointFrac(base + diff), ZERO))
                y = TorusPoint((FixedPointFrac(base), ZERO))
                assert x.dist_raw(y) == y.dist_raw(x) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TorusPoint.from_floats(0.1).dist(TorusPoint.from_floats(0.1, 0.2))

    def test_coords_are_always_a_tuple(self):
        coords = (GOLDEN, ZERO)
        point = TorusPoint(coords)
        assert point.coords == coords  # rebuilt from the stored raw tuple
        assert type(point.raw) is tuple and point.raw == (GOLDEN.value, ZERO.value)
        for given_coords in ([GOLDEN, ZERO], iter((GOLDEN, ZERO)), {0: GOLDEN, 1: ZERO}.values()):
            point = TorusPoint(given_coords)
            assert type(point.coords) is tuple and point.coords == coords
            assert point == TorusPoint(coords) and hash(point) == hash(TorusPoint(coords))
        with pytest.raises(ValueError):
            TorusPoint([])


    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_a_wrapped_point_is_the_point_of_its_coordinates(self, dim):
        rng = random.Random(2200 + dim)
        system = SkewProduct(dim, FixedPointFrac(rng.getrandbits(128)))
        states = [tuple(rng.getrandbits(128) for _ in range(dim)) for _ in range(20)]
        states += [(0,) * dim, (SCALE - 1,) * dim]
        start = TorusPoint(tuple(map(FixedPointFrac, states[0])))
        built_points = [TorusPoint(tuple(map(FixedPointFrac, s))) for s in states[:5]]
        wrapped = [wrap_state(s) for s in states] + orbit(system, start, -3, 3) + built_points
        for point in wrapped:
            built = TorusPoint(tuple(map(FixedPointFrac, point.raw)))
            assert point == built and hash(point) == hash(built)
            assert type(point.raw) is tuple and point.raw == built.raw
            assert point.coords == built.coords and all(type(c) is FixedPointFrac for c in point.coords)
            assert point.dim == built.dim == dim
            assert [point[i] for i in range(dim)] == list(built.coords)
            for other in wrapped[:3]:
                assert point.dist_raw(other) == built.dist_raw(other) == other.dist_raw(built)
            for copied in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point), copy.copy(point)):
                assert copied == point and copied.raw == point.raw and hash(copied) == hash(point)
                assert type(copied) is TorusPoint and repr(copied) == repr(point)
                assert not hasattr(copied, "__dict__")
        assert wrap_state(states[0]).raw is states[0]  # the raw tuple is stored, not rebuilt

    def test_the_one_field_is_the_raw_tuple(self):
        assert [f.name for f in dataclasses.fields(TorusPoint)] == ["raw"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            TorusPoint((GOLDEN,)).raw = (0,)

    def test_a_point_is_its_one_slot(self):
        assert TorusPoint.__slots__ == ("raw",)
        start = TorusPoint((GOLDEN, ZERO))
        for point in (start, wrap_state((1, 2)), orbit(SkewShift(GOLDEN), start, 0, 1)[1]):
            assert not hasattr(point, "__dict__")
            # Python 3.11's frozen slotted __setattr__ raises TypeError for a name
            # that is not a field (its super() call names the pre-slots class)
            with pytest.raises((AttributeError, TypeError)):
                point.extra = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                point.raw = (0, 0)

    def test_an_orbit_retains_at_most_200_bytes_a_point(self):
        # a dict-backed point retained 234 bytes a point here, its raw tuple
        # and integers included; the slotted one retains 194
        start = TorusPoint((FixedPointFrac(2**127 + 12345), FixedPointFrac(3**80)))
        tracemalloc.start()
        try:
            points = orbit(SkewShift(GOLDEN), start, 0, 39_999)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 40_000
        assert retained / len(points) <= 200

    @pytest.mark.parametrize("bad", [0.5, 3, Fraction(1, 2), "0.5", None])
    def test_a_coordinate_that_is_not_fixed_point_fails_at_construction(self, bad):
        with pytest.raises(TypeError, match=type(bad).__name__):
            TorusPoint((bad,))
        with pytest.raises(TypeError, match=type(bad).__name__):
            TorusPoint((GOLDEN, bad))
        with pytest.raises(ValueError, match="at least one coordinate"):
            TorusPoint(())


class TestPermutation:
    def test_inverse(self):
        perm = Permutation((3, 1, 2))
        inv = perm.inverse()
        for j in (1, 2, 3):
            assert inv(perm(j)) == j

    def test_irreducibility(self):
        assert Permutation((2, 1)).is_irreducible()
        assert not Permutation((1, 2)).is_irreducible()
        assert Permutation((3, 1, 2)).is_irreducible()
        assert not Permutation((2, 1, 3)).is_irreducible()

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1))


class TestClosedForms:
    @given(raw_values, raw_values, st.integers(min_value=-25, max_value=25))
    def test_shift_closed_form_equals_stepping(self, a, w, n):
        system = Shift((FixedPointFrac(a),))
        start = TorusPoint((FixedPointFrac(w),))
        target = orbit(system, start, n, n)[0]  # the closed form, no step
        if n >= 0:
            walked = orbit(system, start, 0, n)[-1]  # n steps
        else:
            walked = start
            for _ in range(-n):
                walked = TorusPoint((walked.coords[0] - system.alpha[0],))
        assert walked.coords[0].value == target.coords[0].value

    @given(raw_values, raw_values, raw_values, st.integers(min_value=0, max_value=25))
    def test_skewshift_closed_form_equals_stepping(self, a, w1, w2, n):
        system = SkewShift(FixedPointFrac(a))
        start = TorusPoint((FixedPointFrac(w1), FixedPointFrac(w2)))
        target = orbit(system, start, n, n)[0]
        walked = orbit(system, start, 0, n)[-1]
        assert [c.value for c in walked.coords] == [c.value for c in target.coords]

    @given(dyadics, dyadics, dyadics, st.integers(min_value=-12, max_value=12))
    def test_skewshift_matches_exact_rational_oracle(self, a, w1, w2, n):
        system = SkewShift(fxp(a))
        start = TorusPoint((fxp(w1), fxp(w2)))
        got = orbit(system, start, n, n)[0]
        want = skewshift_orbit_fraction(a, w1, w2, n)
        for coord, expected in zip(got.coords, want):
            assert coord.to_fraction() == expected

    @given(raw_values, raw_values, raw_values, small_or_large_n)
    def test_skewshift_is_skewproduct_with_doubled_frequency(self, a, w1, w2, n):
        alpha = FixedPointFrac(a)
        start = TorusPoint((FixedPointFrac(w1), FixedPointFrac(w2)))
        via_skewshift = orbit(SkewShift(alpha), start, n, n)[0]
        via_product = orbit(SkewProduct(2, alpha + alpha), start, n, n)[0]
        assert [c.value for c in via_skewshift.coords] == [
            c.value for c in via_product.coords
        ]

    @given(
        st.integers(min_value=1, max_value=6),
        raw_values,
        st.lists(raw_values, min_size=6, max_size=6),
        st.integers(min_value=-20, max_value=20),
    )
    def test_skewproduct_closed_form_equals_stepping_and_inverts(self, d, a, ws, n):
        system = SkewProduct(d, FixedPointFrac(a))
        start = TorusPoint(tuple(FixedPointFrac(w) for w in ws[:d]))
        target = orbit(system, start, n, n)[0]
        if n >= 0:
            walked = orbit(system, start, 0, n)[-1]
            assert [c.value for c in walked.coords] == [c.value for c in target.coords]
        back = orbit(system, target, -n, -n)[0]
        assert [c.value for c in back.coords] == [c.value for c in start.coords]

    @pytest.mark.parametrize("make_system", TORUS_SYSTEMS.values(), ids=TORUS_SYSTEMS.keys())
    @given(raw_values, st.lists(raw_values, min_size=6, max_size=6), large_n, large_n)
    def test_closed_form_is_a_group_action(self, make_system, a, ws, m, n):
        system = make_system(FixedPointFrac(a))
        start = TorusPoint(tuple(FixedPointFrac(w) for w in ws[: system.dim]))
        inner = orbit(system, start, n, n)[0]
        assert orbit(system, inner, m, m)[0].raw == orbit(system, start, m + n, m + n)[0].raw
        there = orbit(system, start, m, m)[0]
        assert orbit(system, there, -m, -m)[0].raw == start.raw

    @given(
        raw_values,
        raw_values,
        raw_values,
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=40),
    )
    def test_skewshift_pair_difference_is_exact(self, a, w1, w2, n, q):
        # the torus scan reads coordinate 1 of T^{n+q}w - T^n w as the
        # progression delta_1 + n*drift[0], with (coef, drift) the form of T^q
        system = SkewShift(FixedPointFrac(a))
        start = TorusPoint((FixedPointFrac(w1), FixedPointFrac(w2)))
        p_n, p_nq = orbit(system, start, n, n)[0], orbit(system, start, n + q, n + q)[0]
        coef, drift = _unipotent_power(system, q)
        assert (p_nq[0] - p_n[0]).value == drift[0]
        assert (p_nq[1] - p_n[1]).value == (coef[1] * w1 + drift[1] + n * drift[0]) % SCALE

    def test_pair_difference_is_independent_of_w2(self):
        system = SkewShift(GOLDEN)
        diffs = set()
        for w2 in (0.0, 0.3, 0.77):
            start = TorusPoint((FixedPointFrac(123456), FixedPointFrac.from_float(w2)))
            points = orbit(system, start, 4, 4 + 7)
            diffs.add(tuple((b - a).value for a, b in zip(points[0].coords, points[-1].coords)))
        assert len(diffs) == 1


class TestOrbit:
    @pytest.mark.parametrize("make_system", TORUS_SYSTEMS.values(), ids=TORUS_SYSTEMS.keys())
    @given(raw_values, st.integers(min_value=-15, max_value=0), st.integers(min_value=0, max_value=15))
    def test_two_sided_window_matches_closed_form(self, make_system, a, n_min, n_max):
        system = make_system(FixedPointFrac(a))
        start = TorusPoint(tuple(FixedPointFrac(777 + 111 * i) for i in range(system.dim)))
        points = orbit(system, start, n_min, n_max)
        assert len(points) == n_max - n_min + 1
        for offset, point in enumerate(points):
            expected = orbit(system, start, n_min + offset, n_min + offset)[0]
            assert [c.value for c in point.coords] == [c.value for c in expected.coords]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_shift_stepper_agrees_with_the_closed_form_at_every_site(self, dim):
        rng = random.Random(2300 + dim)
        for _ in range(4):
            system = Shift(tuple(FixedPointFrac(rng.getrandbits(128)) for _ in range(dim)))
            omega = tuple(rng.getrandbits(128) for _ in range(dim))
            for n_min in range(-50, 51):
                states = raw_orbit(system, omega, n_min, n_min + 7)[0]
                assert states == [_closed_form_raw(system, omega, n) for n in range(n_min, n_min + 8)]
                assert all(type(w) is tuple and len(w) == dim for w in states)

    def test_iet_orbit_negative_side_inverts_stepping(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        points = orbit(iet, 0.25, -5, 5)
        x = points[5]  # n = 0
        assert x == 0.25
        for k in range(5):
            assert orbit(iet, points[5 + k], 1, 1)[0] == pytest.approx(points[6 + k], abs=1e-12)
            assert orbit(iet, points[5 - k], -1, -1)[0] == pytest.approx(points[4 - k], abs=1e-12)

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            orbit(Shift((GOLDEN,)), TorusPoint((ZERO,)), 3, 2)
        with pytest.raises(ValueError):
            orbit(Iet((0.5, 0.5), Permutation((2, 1))), 0.25, 3, 2)

    def test_float_iet_orbit_passes_through_its_start(self):
        # every step is exact on the integer twin, so T^n omega at n = 0 is
        # omega itself, and every point returned lies in [0, exact total)
        rng = random.Random(16)
        for _ in range(300):
            m = rng.randint(2, 5)
            images = tuple(rng.sample(range(1, m + 1), m))
            iet = Iet(tuple(rng.random() * 2 for _ in range(m)), Permutation(images))
            exact_total = sum(map(Fraction, iet.lengths))
            for _ in range(4):
                omega = rng.random() * float(exact_total)
                omega = omega if omega < exact_total else 0.0
                n_min, n_max = rng.randint(-30, 0), rng.randint(0, 5)
                points = orbit(iet, omega, n_min, n_max)
                assert points[-n_min] == omega
                assert all(0 <= x < exact_total for x in points)
                for x in points:
                    orbit(iet, x, -1, 1)  # one step each way

    def test_inverse_step_just_below_the_total_is_undone(self):
        # a seeded float 4-IET: the old float inverse step of the largest
        # float below the total landed on beta[2], which steps elsewhere
        lengths = (1.1994671035005637, 0.8947771028653482, 0.3060265767936443, 1.2773413251907022)
        iet = Iet(lengths, Permutation((1, 4, 3, 2)))
        omega = 3.6776121083502575
        assert omega < sum(map(Fraction, lengths))
        points = orbit(iet, omega, -1, 0)
        assert points[1] == omega
        assert orbit(iet, points[0], 1, 1) == [omega]

    @pytest.mark.parametrize("images", [(3, 1, 2), (4, 3, 2, 1), (2, 5, 3, 1, 4)])
    def test_exact_iet_orbit_negative_side_inverts_stepping(self, images):
        # exact lengths: every inverse step is undone by a forward step
        m = len(images)
        iet = Iet(tuple(Fraction(k + 2, 7 * m + 3) for k in range(m)), Permutation(images))
        points = orbit(iet, Fraction(1, 3), -8, 8)
        assert points[8] == Fraction(1, 3)
        for left, right in zip(points, points[1:]):
            assert orbit(iet, left, 1, 1) == [right]
            assert orbit(iet, right, -1, -1) == [left]


PHASE_SYSTEMS = {
    **{f"shift-d{d}": (lambda rng, d=d: Shift(tuple(FixedPointFrac(rng.getrandbits(128))
                                                    for _ in range(d)))) for d in (1, 2, 3)},
    "skewshift": lambda rng: SkewShift(FixedPointFrac(rng.getrandbits(128))),
    **{f"skewproduct-d{d}": (lambda rng, d=d: SkewProduct(d, FixedPointFrac(rng.getrandbits(128))))
       for d in (2, 3, 4, 5)},
}


class TestRawPhases:
    """k.T^n(w) from forward differences, against the dot product over ``raw_orbit``."""

    @staticmethod
    def oracle(system, k, state, n_min, n_max):
        return [sum(a * b for a, b in zip(k, w)) % SCALE
                for w in raw_orbit(system, state, n_min, n_max)[0]]

    @pytest.mark.parametrize("make_system", PHASE_SYSTEMS.values(), ids=PHASE_SYSTEMS.keys())
    def test_every_window_matches_the_stepped_orbit(self, make_system):
        rng = random.Random(2301)
        system = make_system(rng)
        dim = system.dim
        for k in [(1,) + (0,) * (dim - 1), (0,) * dim, (0,) * (dim - 1) + (1,),
                  tuple(rng.choice([-3, -1, 0, 2, 5]) for _ in range(dim)),
                  tuple(-rng.randint(1, 10**6) for _ in range(dim))]:
            state = tuple(rng.getrandbits(128) for _ in range(dim))
            for n_min in (-10**12, -23, -1, 0, 1, 17, 10**9):
                for length in range(1, dim + 3):  # shorter and longer than the table
                    n_max = n_min + length - 1
                    got = list(raw_phases(system, k, state, n_min, n_max))
                    assert all(type(x) is int for x in got)
                    assert [x % SCALE for x in got] == self.oracle(system, k, state, n_min, n_max)
            n_min = rng.randint(-500, 500)
            got = list(raw_phases(system, k, state, n_min, n_min + 999))
            assert [x % SCALE for x in got] == self.oracle(system, k, state, n_min, n_min + 999)

    def test_one_site_is_the_closed_form_dot_product(self):
        rng = random.Random(2302)
        for make_system in PHASE_SYSTEMS.values():
            system = make_system(rng)
            state = tuple(rng.getrandbits(128) for _ in range(system.dim))
            k = tuple(rng.randint(-4, 4) for _ in range(system.dim))
            for n in (-(10**15), -2, 0, 3, 10**15):
                (got,) = raw_phases(system, k, state, n, n)
                w = _closed_form_raw(system, state, n)
                assert got % SCALE == sum(a * b for a, b in zip(k, w)) % SCALE

    def test_rejects_a_reversed_window_and_an_iet(self):
        system = SkewShift(GOLDEN)
        with pytest.raises(ValueError):
            raw_phases(system, (1, 1), (0, 0), 3, 2)
        with pytest.raises(UnsupportedSystemError):
            raw_phases(Iet((0.5, 0.5), Permutation((2, 1))), (1,), 0.25, 0, 3)

    def test_is_not_a_package_export(self):
        import gordonlab

        with pytest.raises(AttributeError, match="no attribute 'raw_phases'"):
            gordonlab.raw_phases


class TestIet:
    def golden_rotation(self) -> Iet:
        beta = float(GOLDEN)
        return Iet((1 - beta, beta), Permutation((2, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Iet((1.0,), Permutation((1,)))  # fewer than two intervals
        with pytest.raises(ValueError):
            Iet((0.5, -0.5), Permutation((2, 1)))
        with pytest.raises(ValueError):
            Iet((0.5, 0.25, 0.25), Permutation((2, 1)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_a_non_finite_length_is_rejected_by_name(self, bad):
        # an infinite length built, and its first step raised OverflowError
        for lengths in ((bad, 1.0), (0.5, bad, 0.5)):
            perm = Permutation(tuple(range(len(lengths), 0, -1)))
            with pytest.raises(ValueError, match="lengths must be positive and finite"):
                Iet(lengths, perm)

    def test_halves_exchange(self):
        iet = Iet((0.5, 0.5), Permutation((2, 1)))
        assert orbit(iet, 0.25, 1, 1) == [0.75]
        assert orbit(iet, 0.75, 1, 1) == [0.25]

    def test_two_interval_exchange_is_rotation(self):
        iet = self.golden_rotation()
        beta = float(GOLDEN)
        for x in (0.0, 0.1, 0.37, 1 - beta, 0.9):
            assert orbit(iet, x, 1, 1)[0] == pytest.approx((x + beta) % 1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_step_inverse_roundtrip(self, x):
        iet = self.golden_rotation()
        assert orbit(iet, orbit(iet, x, 1, 1)[0], -1, -1)[0] == pytest.approx(x, abs=1e-12)

    def test_inverse_step_at_the_right_edge_and_at_every_breakpoint(self):
        # summed in permuted order, the float image partition can end one ulp
        # below the float sum.  Steps run on the exact twin, whose domain is
        # [0, exact total): its right edge is the largest float below the
        # exact total, and the float partial sums of both partitions step
        rng = random.Random(20)
        rounded_below = 0
        for _ in range(300):
            m = rng.randint(2, 5)
            images = list(range(1, m + 1))
            rng.shuffle(images)
            iet = Iet(tuple(rng.random() * 2 for _ in range(m)), Permutation(tuple(images)))
            inverse = iet.perm.inverse()
            beta = (0, *itertools.accumulate(iet.lengths))
            beta_pi = (0, *itertools.accumulate(iet.lengths[j - 1] for j in inverse.images))
            rounded_below += beta_pi[-1] < beta[-1]
            exact_total = sum(map(Fraction, iet.lengths))
            edge = float(exact_total)
            edge = edge if edge < exact_total else math.nextafter(edge, 0.0)
            for y in (edge, *beta[:-1], *beta_pi[:-1]):
                assert 0 <= orbit(iet, y, -1, -1)[0] < exact_total
            # the last image interval comes from interval perm^-1(m), so just
            # below the total the inverse is just below that interval's right end
            x = orbit(iet, edge, -1, -1)[0]
            assert x == pytest.approx(beta[inverse(m)], abs=1e-12)
        assert rounded_below > 0

    def test_domain_enforced(self):
        iet = self.golden_rotation()
        for x in (-0.1, 1.0, math.inf, math.nan, Fraction(4, 3)):
            for n in (1, -1):
                with pytest.raises(OutOfDomainError):
                    orbit(iet, x, n, n)

    def test_step_and_inverse_at_every_breakpoint(self):
        lengths = (0.2, 0.5, 0.3)
        perm = Permutation((3, 1, 2))
        twin = _iet_twin(Iet(lengths, perm))
        # interval j moves beta_{j-1} onto the image breakpoint beta^pi_{perm(j)-1},
        # its last point just below the next one, and the inverse brings both back
        widths = [b - a for a, b in zip(twin.beta, twin.beta[1:])]
        beta_pi = (0, *itertools.accumulate(widths[j - 1] for j in perm.inverse().images))
        assert beta_pi[-1] == twin.beta[-1] == twin.total
        # the tables are fields, which step and inverse and iet_pieces all read
        assert [f.name for f in dataclasses.fields(twin)] == [
            "beta", "beta_pi", "jumps", "back", "total", "scale", "enter", "out", "step", "inverse"]
        assert twin.beta_pi == beta_pi
        assert twin.jumps == tuple(beta_pi[perm(j) - 1] - twin.beta[j - 1] for j in (1, 2, 3))
        assert twin.back == tuple(twin.jumps[j - 1] for j in perm.inverse().images)
        for j in (1, 2, 3):
            lo, hi = twin.beta[j - 1], twin.beta[j]
            img_lo, img_hi = beta_pi[perm(j) - 1], beta_pi[perm(j)]
            assert twin.step(lo) == img_lo and twin.step(hi - 1) == img_hi - 1
            assert twin.inverse(img_lo) == lo and twin.inverse(img_hi - 1) == hi - 1

    def test_interval_lengths_preserved(self):
        lengths = (0.2, 0.5, 0.3)
        iet = Iet(lengths, Permutation((3, 1, 2)))
        beta = (0, *itertools.accumulate(lengths))
        for j, length in enumerate(lengths, start=1):
            lo, hi = beta[j - 1], beta[j]
            assert hi - lo == pytest.approx(length, abs=1e-15)
            img_lo = orbit(iet, lo, 1, 1)[0]
            img_mid = orbit(iet, (lo + hi) / 2, 1, 1)[0]
            assert img_mid - img_lo == pytest.approx((hi - lo) / 2, abs=1e-12)


class TestContinuityRefinement:
    def test_golden_rotation_has_two_maximal_pieces(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        pieces = iet_refine_continuity(iet, 3)
        # T^3 is rotation by 3*beta mod 1: exactly two translation pieces
        assert len(pieces) == 2
        assert pieces[0].translation == pytest.approx(3 * beta - 1, abs=1e-12)
        assert pieces[1].translation == pytest.approx(3 * beta - 2, abs=1e-12)
        assert pieces[0].hi == pytest.approx(2 - 3 * beta, abs=1e-12)

    def test_piece_translations_verified_by_stepping(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        for q in (1, 2, 3, 5, 8):
            pieces = iet_refine_continuity(iet, q)
            assert len(pieces) <= q * (len(iet.lengths) - 1) + 1
            for piece in pieces:
                for t in (0.21, 0.5, 0.83):
                    x = piece.lo + piece.length * t
                    y = orbit(iet, x, q, q)[0]
                    assert y - x == pytest.approx(piece.translation, abs=1e-9)

    def test_q_below_one_is_rejected(self):
        iet = Iet((0.15, 0.55, 0.3), Permutation((3, 2, 1)))
        for q in (0, -1):
            with pytest.raises(ValueError, match="q must be >= 1"):
                iet_refine_continuity(iet, q)

    def test_adjacent_pieces_have_distinct_translations(self):
        # (3,2,1) is the only non-cyclic irreducible 3-permutation: all three
        # jumps differ, so maximal pieces must have pairwise distinct shifts
        iet = Iet((0.15, 0.55, 0.3), Permutation((3, 2, 1)))
        for q in (1, 2, 3, 4):
            pieces = iet_refine_continuity(iet, q)
            for left, right in zip(pieces, pieces[1:]):
                assert abs(left.translation - right.translation) > 1e-9

    def test_cyclic_permutation_merges_to_a_rotation(self):
        # (3,1,2) keeps intervals 2,3 adjacent in the image: the map is a
        # genuine rotation and continuity at the inner boundary must be found
        iet = Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2)))
        pieces = iet_refine_continuity(iet, 1)
        assert len(pieces) == 2
        assert pieces[0].hi == pytest.approx(0.2, abs=1e-15)

    def test_pieces_partition_the_interval(self):
        iet = Iet((0.15, 0.55, 0.3), Permutation((3, 2, 1)))
        pieces = iet_refine_continuity(iet, 4)
        assert pieces[0].lo == 0
        assert pieces[-1].hi == pytest.approx(1.0, abs=1e-15)
        for left, right in zip(pieces, pieces[1:]):
            assert left.hi == right.lo


    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 34, 89, 233, 300])
    def test_exact_rotation_matches_closed_form(self, q):
        # T^q is the rotation by q*beta: it jumps by {q beta} left of
        # 1 - {q beta} and by {q beta} - 1 right of it
        beta = Fraction(381966, 10**6)
        pieces = iet_refine_continuity(Iet((1 - beta, beta), Permutation((2, 1))), q)
        frac = q * beta - math.floor(q * beta)
        assert [(p.lo, p.hi, p.translation) for p in pieces] == [
            (0, 1 - frac, frac),
            (1 - frac, 1, frac - 1),
        ]
        assert all(isinstance(p.translation, Fraction) for p in pieces)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_float_pieces_match_per_piece_stepping(self, m):
        # the integer twin's pieces are those of exact per-piece stepping on
        # the dyadic twin, rounded to floats once
        rng = random.Random(200 + m)
        for q in (1, 2, 7, 40, 150):
            perm = Permutation(tuple(rng.sample(range(1, m + 1), m)))
            iet = Iet(tuple(rng.random() + 0.01 for _ in range(m)), perm)
            assert repr(iet_refine_continuity(iet, q)) == repr(refine_continuity_stepping(iet, q))


    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_exact_pieces_with_small_denominators_match_per_piece_stepping(self, m):
        # lengths over denominators <= 12 make pull-backs of two breakpoints
        # meet; a cut already made splits nothing, and nothing is counted twice
        rng = random.Random(400 + m)
        for _ in range(4):
            den = rng.randint(2, 12)
            perm = Permutation(tuple(rng.sample(range(1, m + 1), m)))
            iet = Iet(tuple(Fraction(rng.randint(1, den), den) for _ in range(m)), perm)
            for q in (1, 2, 7, 40, 150):
                assert repr(iet_refine_continuity(iet, q)) == repr(refine_continuity_stepping(iet, q))

    @pytest.mark.parametrize("q", [1, 2, 40])
    def test_near_periodic_float_rotation_is_refined_exactly(self, q):
        # lengths 0.2, 0.5, 0.3 rotate by 0.8 less a few ulps: T^40 is a
        # rotation by about -4.4e-16 with two pieces, not the identity
        iet = Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2)))
        pieces = iet_refine_continuity(iet, q)
        assert repr(pieces) == repr(refine_continuity_stepping(iet, q))
        assert len(pieces) == 2
        assert q * (Fraction(0.5) + Fraction(0.3)) % 1 != 0


class TestIetPieces:
    @staticmethod
    def random_twin(rng, m):
        perm = Permutation(tuple(rng.sample(range(1, m + 1), m)))
        return _iet_twin(Iet(tuple(rng.randrange(1, 60) for _ in range(m)), perm))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_pieces_partition_and_translate_by_their_orbit(self, m):
        rng = random.Random(500 + m)
        for _ in range(4):
            twin = self.random_twin(rng, m)
            for q, pieces in itertools.islice(iet_pieces(twin), 30):
                ends = [c + ln for c, ln, _, _, _ in pieces]
                assert [c for c, _, _, _, _ in pieces] == [0, *ends[:-1]]
                assert ends[-1] == twin.total
                for c, ln, f, j, _ in pieces:
                    assert 0 <= j < q and ln > 0
                    for x in (c, c + ln - 1):  # T^q by q steps, at both ends
                        y = x
                        for _ in range(q):
                            y = twin.step(y)
                        assert y == x + f[q - j] - c

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_a_floor_keeps_exactly_the_longer_pieces(self, m):
        # every ancestor of a piece is at least as long, so dropping the short
        # ones early loses none of the long ones
        rng = random.Random(600 + m)
        key = lambda piece: (piece[0], piece[1], piece[2][0], piece[3])  # c, length, beta_i, j
        for _ in range(4):
            twin = self.random_twin(rng, m)
            never = rng.randrange(1, twin.total // 4 + 2)
            both = zip(iet_pieces(twin), iet_pieces(twin, never))
            for (_, pieces), (_, kept) in itertools.islice(both, 40):
                assert [key(p) for p in kept] == [key(p) for p in pieces if p[1] > never]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_a_dropped_piece_leaves_a_gap(self, m):
        # the caller may drop pieces: the later pieces are those of the full
        # refiner that do not lie in a dropped span, with the same orbits
        rng = random.Random(700 + m)
        key = lambda piece: (piece[0], piece[1], piece[2], piece[3])  # c, length, fwd, j
        for _ in range(4):
            twin = self.random_twin(rng, m)
            both = itertools.islice(zip(iet_pieces(twin), iet_pieces(twin)), 40)
            gaps = []
            for (q, pieces), (_, kept) in both:
                assert [key(p) for p in kept] == [
                    key(p) for p in pieces if not any(a <= p[0] < b for a, b in gaps)]
                if q % 5 == 0 and len(kept) > 1:
                    gone = kept[rng.randrange(len(kept))]
                    gaps.append((gone[0], gone[0] + gone[1]))
                    kept[:] = [p for p in kept if p is not gone]
            assert gaps

    def test_both_halves_of_a_split_inherit_the_slot(self):
        rng = random.Random(7)
        for m in (2, 3, 4, 5):
            twin = self.random_twin(rng, m)
            refiner = iet_pieces(twin)
            _, pieces = next(refiner)
            assert all(piece[4] == twin.total for piece in pieces)
            for _ in range(20):
                for piece in pieces:
                    piece[4] = piece[0]  # mark each piece by its left end
                lefts = [piece[0] for piece in pieces]
                _, pieces = next(refiner)
                for piece in pieces:  # the mark of the piece it was cut from
                    assert piece[4] == max(c for c in lefts if c <= piece[0])


class TestBreakpointOrbits:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_two_sided_orbit_identity(self, m):
        # every cut of T^n is c = T^-j(beta_i), and its piece carries the forward
        # orbit f[k] = T^k(beta_i), so T^k(c) = f[k-j]: checked against stepping
        rng = random.Random(300 + m)
        for _ in range(6):
            perm = Permutation(tuple(rng.sample(range(1, m + 1), m)))
            iet = Iet(tuple(rng.randrange(1, 10**6) for _ in range(m)), perm)
            twin = _iet_twin(iet)
            n = 25
            _, pieces = next(itertools.islice(iet_pieces(twin), n - 1, None))
            cuts = {0} | {orbit(iet, b, -j, -j)[0] for b in twin.beta[1:-1] for j in range(n)}
            assert [c for c, *_ in pieces] == sorted(cuts)
            for c, _, f, j, _ in pieces:
                assert f[0] in twin.beta[:-1] and 0 <= j < n
                assert len(f) == n + 1 and all(type(v) is int for v in f)
                assert orbit(iet, f[0], -j, -j) == [c]
                assert orbit(iet, f[0], 0, n) == f
                assert orbit(iet, c, j, n) == f[:n - j + 1]

    @pytest.mark.parametrize(
        "lengths",
        [(0.2, 0.5, 0.3), (1e-300, 1.0, 2.5e7), (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))],
        ids=["floats", "wide-floats", "fractions"],
    )
    def test_integer_twin_is_exact(self, lengths):
        iet = Iet(lengths, Permutation((3, 1, 2)))
        twin = _iet_twin(iet)
        scale, out = twin.scale, twin.out
        exact = [Fraction(x) for x in lengths]
        assert twin.total == scale * sum(exact)
        assert [b - a for a, b in zip(twin.beta, twin.beta[1:])] == [x * scale for x in exact]
        for n in twin.beta:
            value = out(n)
            assert value == (float(Fraction(n, scale)) if isinstance(lengths[0], float) else Fraction(n, scale))
            assert type(value) is (float if isinstance(lengths[0], float) else Fraction)
        assert twin.enter(lengths[0]) == twin.beta[1]
        for outside in (sum(exact), -lengths[0], math.inf, math.nan):
            with pytest.raises(OutOfDomainError):
                twin.enter(outside)

    def test_points_join_the_twin_exactly(self):
        # the scale grows to hold the points; with none it is the lengths' own
        iet = Iet((0.5, 0.25), Permutation((2, 1)))
        assert _iet_twin(iet).scale == 4
        twin = _iet_twin(iet, Fraction(1, 3), 2.0**-60)
        assert twin.scale == 3 * 2**60
        assert (twin.enter(Fraction(1, 3)), twin.enter(2.0**-60)) == (2**60, 3)
        assert twin.total == 3 * 2**60 * 3 // 4

    def test_a_point_that_rounds_onto_the_total_leaves_below_it(self):
        # 0.75 - 2^-60 rounds to the total 0.75; the API returns the largest
        # float below it, which steps again, while the total itself stays the
        # right end of the interval
        iet = Iet((0.5, 0.25), Permutation((2, 1)))
        below = math.nextafter(0.75, 0.0)
        assert orbit(iet, Fraction(1, 2) - Fraction(1, 2**60), 0, 1) == [0.5, below]
        assert orbit(iet, below, 1, 1) == [below - 0.5]  # exact
        twin = _iet_twin(iet, Fraction(1, 2**60))
        assert twin.out(twin.total - 1) == below
        assert twin.out(twin.total) == 0.75


class TestAdvisoriesAndSampling:
    def test_random_point_deterministic_and_in_range(self):
        for system in (
            Shift((GOLDEN,)),
            SkewShift(GOLDEN),
            SkewProduct(3, GOLDEN),
            Iet((0.5, 0.5), Permutation((2, 1))),
        ):
            a = random_point(system, random.Random(5))
            b = random_point(system, random.Random(5))
            if isinstance(system, Iet):
                assert a == b
                assert 0 <= a < 1
            else:
                assert [c.value for c in a.coords] == [c.value for c in b.coords]
                assert a.dim == system_dim(system)

    def test_iet_point_is_the_first_draw_times_the_total(self):
        # the point is u*total exactly, u the generator's first random(),
        # rounded once: a float that would round onto the total leaves as the
        # float below it, so every point lies in [0, exact total)
        rng = random.Random(17)
        for exact in (False, True) * 300:
            m = rng.randint(2, 5)
            if exact:
                lengths = tuple(Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(m))
            else:
                lengths = tuple(rng.random() * 2 for _ in range(m))
            iet = Iet(lengths, Permutation(tuple(rng.sample(range(1, m + 1), m))))
            total = sum(map(Fraction, lengths))
            for _ in range(5):
                seed = rng.getrandbits(32)
                point = Fraction(random.Random(seed).random()) * total
                got = random_point(iet, random.Random(seed))
                if exact:
                    assert type(got) is Fraction and got == point
                else:
                    rounded = float(point)
                    assert type(got) is float
                    assert got == (rounded if rounded < total else math.nextafter(rounded, 0.0))
                assert 0 <= got < total

    def test_the_largest_draw_lies_below_the_total(self):
        # u = 1 - 2^-53: the float sum of these lengths exceeds their exact
        # sum, so u times the float sum lay outside the IET; u times the
        # exact sum does not, and steps and certifies like any other point
        class Largest(random.Random):
            def random(self):
                return 1 - 2.0**-53

        iet = Iet(LARGE_DRAW_LENGTHS, Permutation((3, 1, 2)))
        total = sum(map(Fraction, iet.lengths))
        x = random_point(iet, Largest())
        assert x < total
        points = orbit(iet, x, -3, 3)
        assert points[3] == x and all(0 <= y < total for y in points)
        assert _certifies(iet, 0.1, 1, 20)(_random_raw(iet, Largest())) in (True, False)

    @pytest.mark.parametrize(
        "lengths", [LARGE_DRAW_LENGTHS, (0.1, 0.2)], ids=["float-total", "total-rounds-up"]
    )
    def test_the_domain_error_names_the_exact_total(self, lengths):
        # x is the float nearest the exact total: the total itself, or above
        # it.  The message's bound is the exact total, not x again
        iet = Iet(lengths, Permutation(tuple(range(len(lengths), 0, -1))))
        total = sum(map(Fraction, lengths))
        x = float(total)
        for n in (1, -1):
            with pytest.raises(OutOfDomainError) as info:
                orbit(iet, x, n, n)
            point, bound = re.fullmatch(r"IET point (.*) outside \[0, (.*)\)", str(info.value)).groups()
            assert point == repr(x) != bound
            assert Fraction(bound) == total

    @pytest.mark.parametrize("bad", [0.3, 3, Fraction(1, 3), "0.3", None],
                             ids=["float", "int", "Fraction", "str", "None"])
    def test_a_rotation_number_that_is_not_fixed_point_fails_at_construction(self, bad):
        # the kernels read .value off each rotation number: fail here, not mid-search
        name = type(bad).__name__
        for build in (lambda: Shift((bad,)), lambda: Shift((GOLDEN, bad)),
                      lambda: SkewShift(bad), lambda: SkewProduct(2, bad)):
            with pytest.raises(TypeError, match=f"rotation numbers are FixedPointFrac, got {name}"):
                build()

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None], ids=["2.5", "2.0", "str", "None"])
    def test_a_skewproduct_dimension_that_is_not_an_int_fails_at_construction(self, bad):
        # no point has a non-integral dimension, so no search could start
        with pytest.raises(TypeError, match=f"dimension is an int, got {type(bad).__name__}"):
            SkewProduct(bad, GOLDEN)

    def test_an_empty_shift_and_a_skewproduct_below_dimension_one_are_rejected(self):
        with pytest.raises(ValueError, match="at least one rotation number"):
            Shift(())
        for dim in (0, -1):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                SkewProduct(dim, GOLDEN)

    def test_system_dim(self):
        assert system_dim(Shift((GOLDEN, GOLDEN))) == 2
        assert system_dim(SkewShift(GOLDEN)) == 2
        assert system_dim(SkewProduct(4, GOLDEN)) == 4
        assert system_dim(Iet((0.5, 0.5), Permutation((2, 1)))) == 1
