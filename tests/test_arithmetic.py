import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gordonlab.arithmetic import (
    ALPHA_PRESETS,
    BADLY_APPROXIMABLE_UP_TO_BOUND,
    GOLDEN,
    LIOUVILLE10,
    NOT_BADLY_APPROXIMABLE_WITNESS,
    SCALE,
    SQRT2_MINUS_1,
    ZERO,
    FixedPointFrac,
    _first_in,
    _returns,
    cf_expand,
    classify_badly_approximable,
    convergent_denominators,
)

from oracles import circle_dist_fraction, rational_cf_quotients

raw_values = st.integers(min_value=0, max_value=SCALE - 1)

SCAN_CS = [1e-9, 0.3, 0.5, 1.0, 2.0]
SCAN_HORIZONS = [1, 2, 3, 4, 7, 8, 9, 64, 1024]
# past the scan's reach; the naive loop still ends at an early first witness
LONG_HORIZONS = [10**7, 10**30]


def naive_scan(alpha, c, q_max):
    """Reference classify scan: every q, q*alpha from the raw value, the
    witness test <q*alpha> <= c/q in exact rationals."""
    x = Fraction(alpha.value, SCALE)
    for q in range(1, q_max + 1):
        dist = circle_dist_fraction(q * x)
        if dist <= Fraction(c) / q:
            return (NOT_BADLY_APPROXIMABLE_WITNESS, q, float(dist), "exhaustive-scan")
    return (BADLY_APPROXIMABLE_UP_TO_BOUND, None, None, "exhaustive-scan")


def brute_returns(v, b, q_max):
    """Every q <= q_max with <q*v> <= b, and <q*v>, one q at a time."""
    norms = ((q, min(q * v % SCALE, -q * v % SCALE)) for q in range(1, q_max + 1))
    return [(q, n) for q, n in norms if n <= b]


def scan_outcome(verdict):
    return (verdict.verdict, verdict.witness_q, verdict.witness_dist, verdict.criterion)


def witness_outcome(verdict):
    return (verdict.verdict, verdict.witness_q, verdict.witness_dist)


def random_alphas():
    rng = random.Random(23)
    return [FixedPointFrac(rng.getrandbits(128)) for _ in range(40)]


def block_edge_cases(j):
    """(alpha, cs) with alpha = p/q0 first meeting c = 1e-9 at q0, for q0 =
    2^j - 1, 2^j, 2^j + 1: 2^j opens a block of the scan, 2^j - 1 closes the
    one before, 2^j + 1 comes second.  cs ends with the tightest double c
    that still admits q0 (its witness test is an equality up to rounding)."""
    rng = random.Random(j)
    for q0 in (2**j - 1, 2**j, 2**j + 1):
        if q0 < 2:
            continue
        p = rng.choice([p for p in range(1, q0) if math.gcd(p, q0) == 1])
        alpha = FixedPointFrac.from_fraction(p, q0)
        assert naive_scan(alpha, 1e-9, 4 * q0)[:2] == (NOT_BADLY_APPROXIMABLE_WITNESS, q0)
        umin = (q0 * alpha).norm_raw()
        tight = [] if umin == 0 else [tight_c(q0 * umin)]
        for c in tight:
            assert naive_scan(alpha, c, q0)[:2] == (NOT_BADLY_APPROXIMABLE_WITNESS, q0)
        yield alpha, q0, SCAN_CS + tight


def tight_c(product_raw):
    """The smallest double c with c >= product_raw / 2**128."""
    c = float(Fraction(product_raw, SCALE))
    while Fraction(c) * SCALE < product_raw:
        c = math.nextafter(c, math.inf)
    return c


# ---------------------------------------------------------------------------
# fixed-point representation
# ---------------------------------------------------------------------------


class TestFixedPointFrac:
    def test_wraps_mod_one(self):
        assert FixedPointFrac(SCALE).value == 0
        assert FixedPointFrac(-1).value == SCALE - 1

    def test_every_input_leaves_a_plain_int_in_range(self):
        # in-range ints are stored as given; everything else is reduced mod 1
        for given_value, expected in [
            (0, 0),
            (SCALE - 1, SCALE - 1),
            (-1, SCALE - 1),
            (-SCALE - 5, SCALE - 5),
            (SCALE, 0),
            (3 * SCALE + 7, 7),
            (True, 1),
            (False, 0),
        ]:
            value = FixedPointFrac(given_value).value
            assert type(value) is int and value == expected, given_value
        raw = 12345 << 100
        assert FixedPointFrac(raw).value is raw

    def test_non_integer_values_are_rejected(self):
        with pytest.raises(TypeError):
            FixedPointFrac([1])

    def test_from_fraction_is_exact_for_dyadics(self):
        x = FixedPointFrac.from_fraction(3, 8)
        assert x.value * 8 == 3 * SCALE

    def test_from_fraction_rounds_to_nearest(self):
        x = FixedPointFrac.from_fraction(1, 3)
        assert abs(Fraction(x.value, SCALE) - Fraction(1, 3)) <= Fraction(1, 2 * SCALE)

    @given(raw_values, raw_values)
    def test_add_sub_roundtrip_exact(self, a, b):
        x, y = FixedPointFrac(a), FixedPointFrac(b)
        assert ((x + y) - y).value == x.value
        assert (x - y).value == (a - b) % SCALE

    @given(raw_values, st.integers(min_value=-10**6, max_value=10**6))
    def test_integer_multiple_is_homomorphic(self, a, n):
        x = FixedPointFrac(a)
        assert (n * x).value == (n * a) % SCALE

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_float_roundtrip_within_2_pow_52(self, x):
        back = FixedPointFrac.from_float(x).to_float()
        assert abs(back - x) <= 2.0**-52

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_from_float_monotone(self, x, y):
        if x > y:
            x, y = y, x
        assert FixedPointFrac.from_float(x).value <= FixedPointFrac.from_float(y).value

    def test_from_float_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FixedPointFrac.from_float(float("nan"))
        with pytest.raises(ValueError):
            FixedPointFrac.from_float(float("inf"))

    def test_presets_match_closed_forms(self):
        assert abs(GOLDEN.to_float() - (math.sqrt(5) - 1) / 2) < 1e-15
        assert abs(SQRT2_MINUS_1.to_float() - (math.sqrt(2) - 1)) < 1e-15
        liouville = Fraction(10**23 + 10**22 + 10**18 + 1, 10**24)
        assert abs(LIOUVILLE10.to_fraction() - liouville) <= Fraction(1, 2 * SCALE)
        assert set(ALPHA_PRESETS) == {"golden", "sqrt2", "liouville10"}


# ---------------------------------------------------------------------------
# the circle metric
# ---------------------------------------------------------------------------


class TestFracDist:
    def test_examples(self):
        x = FixedPointFrac.from_fraction(9, 10)
        y = FixedPointFrac.from_fraction(2, 10)
        assert x.dist(y) == pytest.approx(0.3, abs=1e-15)
        assert x.dist(x) == 0.0
        assert ZERO.dist(FixedPointFrac.from_fraction(1, 2)) == 0.5

    @given(raw_values, raw_values)
    def test_symmetric_and_bounded(self, a, b):
        x, y = FixedPointFrac(a), FixedPointFrac(b)
        assert x.dist(y) == y.dist(x)
        assert 0.0 <= x.dist(y) <= 0.5

    @given(raw_values, raw_values, raw_values)
    def test_triangle_inequality_exact(self, a, b, c):
        x, y, z = FixedPointFrac(a), FixedPointFrac(b), FixedPointFrac(c)
        assert x.dist_raw(z) <= x.dist_raw(y) + y.dist_raw(z)

    @given(raw_values, raw_values, raw_values)
    def test_rotation_invariance_exact(self, a, b, t):
        x, y, shift = FixedPointFrac(a), FixedPointFrac(b), FixedPointFrac(t)
        assert (x + shift).dist_raw(y + shift) == x.dist_raw(y)

    @given(raw_values)
    def test_matches_exact_rational_distance(self, a):
        x = FixedPointFrac(a)
        exact = circle_dist_fraction(Fraction(a, SCALE))
        assert x.dist_raw(ZERO) == exact * SCALE

    def test_frozen_golden_multiple(self):
        assert (8 * GOLDEN).dist(ZERO) == 0.05572809000084122


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


class TestContinuedFraction:
    def test_golden_all_ones(self):
        cf = cf_expand(GOLDEN, 6)
        assert cf.partial_quotients == (1, 1, 1, 1, 1, 1)
        assert convergent_denominators(cf) == [1, 2, 3, 5, 8, 13]
        assert cf.exhausted_at is None

    def test_sqrt2_all_twos(self):
        cf = cf_expand(SQRT2_MINUS_1, 5)
        assert cf.partial_quotients == (2, 2, 2, 2, 2)
        assert convergent_denominators(cf) == [2, 5, 12, 29, 70]

    def test_liouville_prefix(self):
        cf = cf_expand(LIOUVILLE10, 8)
        assert cf.partial_quotients[:7] == (9, 11, 99, 1, 10, 9, 999999999999)
        assert convergent_denominators(cf)[:4] == [9, 100, 9909, 10009]

    def test_three_tenths_exhausts_after_two_quotients(self):
        # 3/10 = 1/(3 + 1/3); the rounded fixed-point value leaves a
        # below-noise remainder instead of terminating exactly
        cf = cf_expand(FixedPointFrac.from_fraction(3, 10), 10)
        assert cf.partial_quotients == (3, 3)
        assert cf.exhausted_at == 2

    def test_exact_dyadic_rational_terminates_cleanly(self):
        cf = cf_expand(FixedPointFrac.from_fraction(1, 4), 10)
        assert cf.partial_quotients == (4,)
        assert cf.exhausted_at is None

    def test_depth_zero_empty(self):
        cf = cf_expand(GOLDEN, 0)
        assert cf.partial_quotients == ()
        assert convergent_denominators(cf) == []

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            cf_expand(GOLDEN, -1)

    @given(raw_values)
    def test_matches_euclid_on_the_stored_value(self, v):
        # the oracle runs the full Euclidean algorithm on (2^128, raw value);
        # the library may stop earlier at the noise floor but never disagrees
        if v == 0:
            v = 1
        expected = rational_cf_quotients(v, SCALE)
        cf = cf_expand(FixedPointFrac(v), 300)
        k = len(cf.partial_quotients)
        assert list(cf.partial_quotients) == expected[:k]
        if cf.exhausted_at is None and k < 300:
            assert k == len(expected)

    def test_convergent_recurrence_and_approximation_quality(self):
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            cf = cf_expand(alpha, 10)
            a = cf.partial_quotients
            conv = cf.convergents
            p_prev2, q_prev2, p_prev, q_prev = 1, 0, 0, 1
            target = Fraction(alpha.value, SCALE)
            for k, (p, q) in enumerate(conv):
                assert p == a[k] * p_prev + p_prev2
                assert q == a[k] * q_prev + q_prev2
                p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
                if k + 1 < len(conv):
                    q_next = conv[k + 1][1]
                    assert abs(target - Fraction(p, q)) < Fraction(1, q * q_next)

    def test_denominators_strictly_increasing_from_k2(self):
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            denoms = convergent_denominators(cf_expand(alpha, 12))
            assert all(b > a for a, b in zip(denoms[1:], denoms[2:]))

    def test_best_approximation_product_below_one(self):
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            for q in convergent_denominators(cf_expand(alpha, 12)):
                assert q * (q * alpha).dist_raw(ZERO) < SCALE

    def test_denominators_are_record_minima(self):
        # convergent denominators = the q achieving record minima of <q*alpha>
        for alpha in (GOLDEN, SQRT2_MINUS_1):
            denoms = [q for q in convergent_denominators(cf_expand(alpha, 24)) if q <= 10**4]
            records = []
            best = SCALE
            u = 0
            for q in range(1, 10**4 + 1):
                u = (u + alpha.value) % SCALE
                umin = min(u, SCALE - u)
                if umin < best:
                    best = umin
                    records.append(q)
            # q=1 is always a vacuous first record; beyond that the records
            # are exactly the convergent denominators
            assert set(records) == set(denoms) | {1}


# ---------------------------------------------------------------------------
# badly-approximable classification
# ---------------------------------------------------------------------------


class TestClassify:
    def test_golden_passes_horizon(self):
        verdict = classify_badly_approximable(GOLDEN, 0.2, 10**4)
        assert verdict.verdict == BADLY_APPROXIMABLE_UP_TO_BOUND
        assert verdict.witness_q is None

    def test_liouville_witness_at_q_one(self):
        verdict = classify_badly_approximable(LIOUVILLE10, 0.2, 10**4)
        assert verdict.verdict == NOT_BADLY_APPROXIMABLE_WITNESS
        assert verdict.witness_q == 1
        assert verdict.witness_dist == pytest.approx(0.1100010000000001, abs=1e-15)

    def test_liouville_smaller_c_witness_at_convergent(self):
        verdict = classify_badly_approximable(LIOUVILLE10, 0.05, 10**4)
        assert verdict.witness_q == 100
        assert verdict.witness_dist == pytest.approx(1e-4, rel=1e-9)

    def test_witness_inequality_verified_in_fixed_point(self):
        verdict = classify_badly_approximable(LIOUVILLE10, 0.05, 10**4)
        q = verdict.witness_q
        dist = Fraction((q * LIOUVILLE10).dist_raw(ZERO), SCALE)
        assert dist <= Fraction(0.05) / q

    def test_methods_agree(self):
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            for c in (0.05, 0.2, 0.4):
                scan = classify_badly_approximable(alpha, c, 10**4, method="scan")
                auto = classify_badly_approximable(alpha, c, 10**4, method="auto")
                assert scan.verdict == auto.verdict
                assert scan.witness_q == auto.witness_q

    def test_only_auto_and_scan_are_methods(self):
        with pytest.raises(ValueError, match="unknown method: 'convergents'"):
            classify_badly_approximable(GOLDEN, 0.2, 100, method="convergents")

    def test_exact_rational_witnessed_at_denominator(self):
        quarter = FixedPointFrac.from_fraction(1, 4)
        verdict = classify_badly_approximable(quarter, 0.001, 10**8, method="auto")
        assert verdict.witness_q == 4
        assert verdict.witness_dist == 0.0

    def test_exhausted_expansion_still_classifies_at_any_horizon(self):
        # cf_expand trusts two quotients of the stored 3/10 (denominators 3
        # and 10); the horizon past them needs no more, q = 10 is the witness
        alpha = FixedPointFrac.from_fraction(3, 10)
        assert cf_expand(alpha, 200).exhausted_at == 2
        for method in ("auto", "scan"):
            verdict = classify_badly_approximable(alpha, 0.001, 10**7, method=method)
            assert verdict.witness_q == 10, method
        assert witness_outcome(
            classify_badly_approximable(alpha, 0.001, 10**7)
        ) == naive_scan(alpha, 0.001, 10**7)[:3]

    @pytest.mark.parametrize(
        "alpha",
        [
            FixedPointFrac.from_fraction(3, 10),
            GOLDEN,
            LIOUVILLE10,
            FixedPointFrac(1),
            FixedPointFrac(SCALE - 1),
            *random_alphas()[:5],
        ],
    )
    def test_only_the_full_denominator_meets_the_smallest_c(self, alpha):
        # <q*alpha> <= 5e-324/q holds only at distance 0, first at the
        # reduced denominator of the stored rational value / 2^128, which lies
        # far past the 2^-100 noise floor of cf_expand
        denominator = SCALE // math.gcd(alpha.value, SCALE)
        verdict = classify_badly_approximable(alpha, 5e-324, SCALE)
        assert (verdict.witness_q, verdict.witness_dist) == (denominator, 0.0)
        below = classify_badly_approximable(alpha, 5e-324, denominator - 1)
        assert below.verdict == BADLY_APPROXIMABLE_UP_TO_BOUND

    def test_scan_matches_naive_fraction_loop_on_random_alphas(self):
        outcomes = set()
        for alpha, c, q_max in itertools.product(random_alphas(), SCAN_CS, SCAN_HORIZONS):
            got = scan_outcome(classify_badly_approximable(alpha, c, q_max, method="scan"))
            assert got == naive_scan(alpha, c, q_max), (alpha.value, c, q_max)
            outcomes.add(got[0])
        assert outcomes == {BADLY_APPROXIMABLE_UP_TO_BOUND, NOT_BADLY_APPROXIMABLE_WITNESS}

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 10])
    def test_scan_matches_naive_fraction_loop_at_block_edges(self, j):
        for alpha, q0, cs in block_edge_cases(j):
            for c in cs:
                for q_max in sorted({1, 2, 3, q0 - 1, q0, q0 + 1, 2**j, 4 * q0}):
                    got = scan_outcome(classify_badly_approximable(alpha, c, q_max, method="scan"))
                    assert got == naive_scan(alpha, c, q_max), (q0, c, q_max)

    def test_auto_matches_naive_fraction_loop_on_random_alphas(self):
        outcomes = set()
        cases = itertools.chain(
            itertools.product(random_alphas(), SCAN_CS, SCAN_HORIZONS),
            # c >= 0.3 meets every one of these alphas by q = 21
            itertools.product(random_alphas(), SCAN_CS[1:], LONG_HORIZONS),
        )
        for alpha, c, q_max in cases:
            verdict = classify_badly_approximable(alpha, c, q_max)
            assert verdict.criterion == "convergent-minima"
            got = witness_outcome(verdict)
            assert got == naive_scan(alpha, c, q_max)[:3], (alpha.value, c, q_max)
            outcomes.add(got[0])
        assert outcomes == {BADLY_APPROXIMABLE_UP_TO_BOUND, NOT_BADLY_APPROXIMABLE_WITNESS}

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 10])
    def test_auto_matches_naive_fraction_loop_at_block_edges(self, j):
        for alpha, q0, cs in block_edge_cases(j):
            for c in cs:
                horizons = sorted({1, 2, 3, q0 - 1, q0, q0 + 1, 2**j, 4 * q0, *LONG_HORIZONS})
                for q_max in horizons:
                    got = witness_outcome(classify_badly_approximable(alpha, c, q_max))
                    assert got == naive_scan(alpha, c, q_max)[:3], (q0, c, q_max)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            classify_badly_approximable(GOLDEN, 0.2, 0)
        with pytest.raises(ValueError):
            classify_badly_approximable(GOLDEN, 0.0, 10)
        with pytest.raises(ValueError):
            classify_badly_approximable(GOLDEN, 0.2, 10, method="magic")


WALK_VS = [
    0,
    1,
    SCALE - 1,
    SCALE // 2,  # period 2
    3 * SCALE // 8,  # dyadic, period 8
    SCALE // 2**20,  # dyadic, period 2^20
    GOLDEN.value,
    LIOUVILLE10.value,
    FixedPointFrac.from_fraction(3, 7).value,
]
WALK_BS = [0, 1, 2**100, SCALE // 16, SCALE // 2 - 1, SCALE // 2, SCALE]


class TestReturnWalk:
    @pytest.mark.parametrize("v", WALK_VS)
    @pytest.mark.parametrize("b", WALK_BS)
    def test_walk_is_every_small_return(self, v, b):
        for q_max in (1, 2, 300):
            got = list(_returns(v, b, q_max))
            assert [(q, abs(x)) for q, x in got] == brute_returns(v, b, q_max), q_max
            assert all((x - q * v) % SCALE == 0 for q, x in got)

    def test_walk_matches_brute_force_on_random_windows(self):
        rng = random.Random(31)
        for _ in range(400):
            v = rng.choice([rng.getrandbits(128), rng.getrandbits(16) << rng.randrange(112)])
            b = rng.choice([rng.getrandbits(128) >> rng.randrange(1, 128), rng.randrange(3)])
            q_max = rng.randrange(1, 600)
            expected = brute_returns(v, b, q_max)
            assert [(q, abs(x)) for q, x in _returns(v, b, q_max)] == expected, (v, b, q_max)
            if expected:  # resumed at any return, the walk goes on as before
                i = rng.randrange(len(expected))
                q0 = expected[i][0]
                x0 = next(x for q, x in _returns(v, b, q0) if q == q0)
                resumed = [(q, abs(x)) for q, x in _returns(v, b, q_max, q0, x0)]
                assert resumed == expected[i + 1 :], (v, b, q_max, q0)

    def test_first_in_matches_brute_force(self):
        rng = random.Random(32)
        for _ in range(3000):
            m = rng.randrange(1, 400)
            a, lo = rng.randrange(m), rng.randrange(m)
            hi = rng.randrange(lo, m)
            expected = next((k for k in range(m) if lo <= a * k % m <= hi), None)
            assert _first_in(a, m, lo, hi) == expected, (a, m, lo, hi)

    @pytest.mark.parametrize("bits", [4, 9, 16])
    def test_first_in_at_full_width(self, bits):
        # the first k with k*golden mod 1 in (0, 2^-bits] is a Fibonacci number
        v, hi = GOLDEN.value, SCALE >> bits
        k = _first_in(v, SCALE, 1, hi)
        assert 1 <= k * v % SCALE <= hi
        assert not any(1 <= j * v % SCALE <= hi for j in range(k))
        fib = [1, 2]
        while fib[-1] < k:
            fib.append(fib[-1] + fib[-2])
        assert k in fib

    def test_first_in_finds_no_k_off_the_subgroup(self):
        assert _first_in(SCALE // 2, SCALE, 1, SCALE // 4) is None
        assert _first_in(0, SCALE, 1, SCALE - 1) is None
        assert _first_in(SCALE // 2, SCALE, 0, 0) == 0

    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2_MINUS_1, LIOUVILLE10, *random_alphas()[:4]])
    def test_scan_is_exhaustive_at_far_horizons(self, alpha):
        # the walk makes the scan cheap enough for q_max = 10^9; by the
        # three-gap theorem it is the per-q scan, which the convergents match
        for c in (0.05, 0.3):
            scan = classify_badly_approximable(alpha, c, 10**9, method="scan")
            auto = classify_badly_approximable(alpha, c, 10**9)
            assert witness_outcome(scan) == witness_outcome(auto)
            assert scan.criterion == "exhaustive-scan"
