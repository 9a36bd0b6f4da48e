import bisect
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gordonlab.arithmetic import (
    GOLDEN,
    LIOUVILLE10,
    SCALE,
    SQRT2_MINUS_1,
    ZERO,
    FixedPointFrac,
    cf_expand,
    classify_badly_approximable,
)
from gordonlab import dynamics, repetition
from iet_reference import exact_edges, exact_maps, veech_tower_search_stepping
from gordonlab.dynamics import (
    Iet,
    Permutation,
    Shift,
    SkewProduct,
    SkewShift,
    TorusPoint,
    orbit,
    raw_orbit,
    system_dim,
)
from gordonlab.repetition import (
    ConstructiveNotAvailable,
    ConstructiveRepetition,
    InconsistentCertificateError,
    RepetitionCertificate,
    RepetitionNotFound,
    TowerNotFound,
    VeechTower,
    badly_approximable_obstruction,
    estimate_prp_fraction,
    find_repetition_time,
    sample_start_point,
    skewshift_constructive_q,
    veech_tower_search,
    verify_certificate_against_definition,
)

from oracles import iet_orbit_fraction, per_q_torus_plan, wilson_interval


def brute_find(system, omega, epsilon, r, q_max):
    """Reference search: literal stepping, no closed forms or early exits;
    IETs step on the exact Fraction oracle (``iet_orbit_fraction``)."""
    thresh = Fraction(epsilon)
    for q in range(1, q_max + 1):
        k_max = math.floor(Fraction(r) * q)
        if isinstance(system, Iet):
            points = iet_orbit_fraction(system.lengths, system.perm.images, omega, k_max + q)
            dists = [abs(points[k + q] - points[k]) for k in range(k_max + 1)]
        else:
            points = orbit(system, omega, 0, k_max + q)
            dists = [Fraction(points[k].dist_raw(points[k + q]), SCALE) for k in range(k_max + 1)]
        if all(d < thresh for d in dists):
            return q
    return None


def stepping_torus_search(system, omega, epsilon, r, q_max):
    """Reference torus search: every q in order, every k and coordinate by
    stepping (``raw_orbit``).

    A q misses by its coordinate-0 gap (every coordinate, for a shift) at k = 0
    if that is >= epsilon; otherwise by its first coordinate-1 distance >=
    epsilon; otherwise by its max-metric distance at the first failing k.  The
    near-miss is the smallest miss, the earliest q among equals.  Returns
    ("found", q, k_max, max_dist_raw) or ("not_found", best_q, best_dist).
    """
    thresh = Fraction(epsilon) * SCALE
    gap_coords = system.dim if isinstance(system, Shift) else 1
    misses = []
    for q in range(1, q_max + 1):
        k_max = math.floor(Fraction(r) * q)
        states = raw_orbit(system, omega.raw, 0, k_max + q)[0]
        # rows[k][i]: the circle distance of coordinate i of T^{k+q}w - T^k w
        rows = [
            [min(d, SCALE - d) for d in ((y - x) % SCALE for x, y in zip(states[k], states[k + q]))]
            for k in range(k_max + 1)
        ]
        gap = max(rows[0][:gap_coords])
        second = [row[1] for row in rows if len(row) > 1 and row[1] >= thresh]
        worst = [max(row) for row in rows]
        failing = [d for d in worst if d >= thresh]
        if gap >= thresh:
            misses.append((gap, q))
        elif second:
            misses.append((second[0], q))
        elif failing:
            misses.append((failing[0], q))
        else:
            return ("found", q, k_max, max(worst))
    miss, q = min(misses)
    return ("not_found", q, miss / SCALE)


def stepping_iet_search(system, omega, epsilon, r, q_max):
    """Reference IET search: every q in order, the exact distances of the
    Fraction oracle's orbit (``iet_orbit_fraction``) up to the first one
    >= Fraction(epsilon).

    A q misses by the largest distance it saw; the near-miss is the smallest
    miss, the earliest q among equals.  Distances are exact, rounded once to
    a float for float IETs.  Returns ("found", q, k_max, max_dist) or
    ("not_found", best_q, best_dist).
    """
    thresh = Fraction(epsilon)
    rounded = float if any(isinstance(x, float) for x in system.lengths) else Fraction
    points = iet_orbit_fraction(
        system.lengths, system.perm.images, omega, math.floor(Fraction(r) * q_max) + q_max
    )
    misses = []
    for q in range(1, q_max + 1):
        k_max = math.floor(Fraction(r) * q)
        dists = [abs(points[k + q] - points[k]) for k in range(k_max + 1)]
        failing = [k for k, d in enumerate(dists) if d >= thresh]
        if not failing:
            return ("found", q, k_max, rounded(max(dists)))
        misses.append((max(dists[: failing[0] + 1]), q))
    miss, q = min(misses)
    return ("not_found", q, rounded(miss))


def as_iet_outcome(result):
    if isinstance(result, RepetitionNotFound):
        return ("not_found", result.best_q, result.best_dist)
    assert result.max_dist_raw is None
    return ("found", result.q, result.k_max, result.max_dist)


def as_outcome(result):
    if isinstance(result, RepetitionCertificate):
        return ("found", result.q, result.k_max, result.max_dist_raw)
    return ("not_found", result.best_q, result.best_dist)


def per_sample_estimate(system, epsilon, r, q_max, n_samples, seed):
    """Hits of find_repetition_time, one call per sampled start point."""
    return sum(
        isinstance(
            find_repetition_time(
                system, sample_start_point(system, seed, i), epsilon, r, q_max
            ),
            RepetitionCertificate,
        )
        for i in range(n_samples)
    )


# below 1/3 a progression step cannot jump the failing arc, from 1/3 on it
# can; 1/3 is the double just below it, nextafter the double just above
SKEWSHIFT_EPSILONS = [0.05, 0.2, 0.3, 1 / 3, math.nextafter(1 / 3, 1.0), 0.34, 0.45]

# 2*alpha = -2*LIOUVILLE10 mod 1: the skew-shift candidates step backwards
MINUS_LIOUVILLE10 = FixedPointFrac(-LIOUVILLE10.value)
# (system, q_max) for the Monte Carlo grid: the skew-shift with alpha below
# and above 1/2, skew-products d = 2..6, shifts, a float and an exact IET
PRP_GRID = {
    "skewshift-liouville10": (SkewShift(LIOUVILLE10), 150),
    "skewshift-sqrt2": (SkewShift(SQRT2_MINUS_1), 150),
    "skewshift-golden": (SkewShift(GOLDEN), 150),
    "skewshift-negative-step": (SkewShift(MINUS_LIOUVILLE10), 150),
    **{f"skewproduct{d}": (SkewProduct(d, SQRT2_MINUS_1), 60) for d in range(2, 7)},
    "shift1": (Shift((GOLDEN,)), 12),
    "shift2": (Shift((GOLDEN, SQRT2_MINUS_1)), 40),
    "iet": (Iet((1 - float(GOLDEN), float(GOLDEN)), Permutation((2, 1))), 40),
    "iet-exact": (Iet((Fraction(15, 32), Fraction(1, 32), Fraction(1, 2)), Permutation((3, 1, 2))), 30),
}
# 0.33 is below the arc verdict's bound 3*thresh <= 2^128 + 2, and so is the
# double 1/3; nextafter(1/3) is just above it, and at 0.45 steps jump arcs
PRP_GRID_EPSILONS = [0.05, 0.33, 1 / 3, math.nextafter(1 / 3, 1.0), 0.45]
PRP_GRID_RS = [0.37, 0.5, 1, 2.5]


class TestFindRepetitionTime:
    def test_golden_shift_frozen_example(self):
        cert = find_repetition_time(Shift((GOLDEN,)), TorusPoint((ZERO,)), 0.06, 3, 100)
        assert isinstance(cert, RepetitionCertificate)
        assert cert.q == 8
        assert cert.k_max == 24
        assert cert.max_dist == 0.05572809000084122

    def test_shift_distances_constant_in_k_exactly(self):
        system = Shift((GOLDEN,))
        omega = TorusPoint((FixedPointFrac.from_float(0.37),))
        cert = find_repetition_time(system, omega, 0.06, 3, 100)
        points = orbit(system, omega, 0, cert.k_max + cert.q)
        dists = {points[k].dist_raw(points[k + cert.q]) for k in range(cert.k_max + 1)}
        assert len(dists) == 1  # exact fixed-point equality, not approx

    def test_shift_certificate_independent_of_omega(self):
        rng = random.Random(11)
        qs = set()
        for _ in range(10):
            omega = TorusPoint((FixedPointFrac(rng.getrandbits(128)),))
            cert = find_repetition_time(Shift((GOLDEN,)), omega, 0.06, 3, 100)
            qs.add(cert.q)
        assert qs == {8}

    def test_two_dim_shift_uses_max_metric(self):
        omega = TorusPoint((ZERO, ZERO))
        one = find_repetition_time(Shift((GOLDEN,)), TorusPoint((ZERO,)), 0.03, 2, 200)
        two = find_repetition_time(Shift((GOLDEN, GOLDEN)), omega, 0.03, 2, 200)
        assert one.q == two.q
        assert one.max_dist == two.max_dist

    def test_golden_skewshift_near_miss_frozen(self):
        miss = find_repetition_time(
            SkewShift(GOLDEN), TorusPoint((ZERO, ZERO)), 0.05, 1.0, 2000
        )
        assert isinstance(miss, RepetitionNotFound)
        assert miss.best_q == 1737
        assert miss.best_dist == pytest.approx(0.050076917134702664, rel=1e-12)

    def test_skewshift_fast_path_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(12):
            alpha = FixedPointFrac.from_fraction(rng.randrange(1, 2**16), 2**16)
            omega = TorusPoint(
                (
                    FixedPointFrac.from_fraction(rng.randrange(2**16), 2**16),
                    FixedPointFrac.from_fraction(rng.randrange(2**16), 2**16),
                )
            )
            eps = rng.choice([0.05, 0.1, 0.2])
            result = find_repetition_time(SkewShift(alpha), omega, eps, 1.0, 150)
            expected = brute_find(SkewShift(alpha), omega, eps, 1.0, 150)
            if isinstance(result, RepetitionCertificate):
                assert result.q == expected
            else:
                assert expected is None

    def test_iet_search_works_via_stepping(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        cert = find_repetition_time(iet, 0.2, 0.06, 1.0, 100)
        assert isinstance(cert, RepetitionCertificate)
        # the interval metric sees the cut: a pair straddling it reads as
        # ~1 apart, so q=8 (the circle-metric answer) is rejected and the
        # search lands on the next return time whose pairs all avoid the cut
        assert cert.q == 21
        assert cert.max_dist == 0.021286236252207047  # the exact distance, rounded once
        brute = brute_find(iet, 0.2, 0.06, 1.0, 100)
        assert brute == 21

    def test_validation(self):
        system = Shift((GOLDEN,))
        omega = TorusPoint((ZERO,))
        with pytest.raises(ValueError):
            find_repetition_time(system, omega, 0.0, 1, 10)
        with pytest.raises(ValueError):
            find_repetition_time(system, omega, 0.1, 0, 10)
        with pytest.raises(ValueError):
            find_repetition_time(system, omega, 0.1, 1, 0)

    @pytest.mark.parametrize("epsilon", SKEWSHIFT_EPSILONS)
    def test_skewshift_search_matches_stepping_oracle(self, epsilon):
        # dyadic alphas make many q tie: <2q*alpha> takes few values and
        # 2q*alpha = 0 gives zero-step progressions
        alphas = [
            GOLDEN,
            LIOUVILLE10,
            SQRT2_MINUS_1,
            FixedPointFrac.from_fraction(1, 4),
            FixedPointFrac.from_fraction(3, 8),
        ]
        rng = random.Random(17)
        omegas = [
            TorusPoint((ZERO, ZERO)),
            TorusPoint((FixedPointFrac.from_fraction(1, 2), FixedPointFrac.from_fraction(1, 8))),
            TorusPoint((FixedPointFrac(rng.getrandbits(128)), FixedPointFrac(rng.getrandbits(128)))),
        ]
        outcomes = set()
        for alpha in alphas:
            system = SkewShift(alpha)
            for omega in omegas:
                for r, q_max in itertools.product((0.5, 1, 2.5), (3, 40)):
                    got = as_outcome(find_repetition_time(system, omega, epsilon, r, q_max))
                    assert got == stepping_torus_search(system, omega, epsilon, r, q_max)
                    outcomes.add(got[0])
        assert outcomes == {"found", "not_found"}

    @pytest.mark.parametrize(
        "system",
        [SkewProduct(d, GOLDEN) for d in range(1, 7)] + [Shift((GOLDEN, SQRT2_MINUS_1))],
        ids=[f"skewproduct{d}" for d in range(1, 7)] + ["shift2"],
    )
    def test_torus_search_matches_stepping_oracle(self, system):
        # r as doubles: floor(r*q) must use the exact binary value of r (the
        # double 1/3 lies below 1/3, so floor(r*3) is 0 though r*3 rounds to 1.0)
        rng = random.Random(system.dim)
        omegas = [
            TorusPoint((ZERO,) * system.dim),
            TorusPoint(tuple(FixedPointFrac(rng.getrandbits(128)) for _ in range(system.dim))),
        ]
        outcomes = set()
        for omega in omegas:
            for epsilon in (0.01, 0.1, 1 / 3, math.nextafter(1 / 3, 1.0), 0.5):
                for r in (0.1, 1 / 3, 0.5, 1.0, 2.5):
                    got = as_outcome(find_repetition_time(system, omega, epsilon, r, 30))
                    assert got == stepping_torus_search(system, omega, epsilon, r, 30), (
                        omega, epsilon, r,
                    )
                    outcomes.add(got[0])
        assert outcomes == {"found", "not_found"}

    @pytest.mark.parametrize(
        "system",
        [
            Iet((1 - float(GOLDEN), float(GOLDEN)), Permutation((2, 1))),
            Iet((0.31, 0.227, 0.463), Permutation((3, 1, 2))),
            # dyadic lengths make near-misses tie (q = 15 and 17 at 0.01): the earliest wins
            Iet((Fraction(15, 32), Fraction(1, 32), Fraction(1, 2)), Permutation((3, 1, 2))),
        ],
        ids=["iet2", "iet3", "iet3-exact"],
    )
    def test_iet_search_matches_stepping_oracle(self, system):
        exact = isinstance(system.lengths[0], Fraction)
        outcomes = set()
        for omega in [Fraction(1, 3), Fraction(5, 8)] if exact else [0.0, 0.61803]:
            for epsilon in (0.01, 0.1, 1 / 3, math.nextafter(1 / 3, 1.0), 0.5):
                for r in (0.1, 1 / 3, 0.5, 1.0, 2.5):
                    got = as_iet_outcome(find_repetition_time(system, omega, epsilon, r, 30))
                    assert got == stepping_iet_search(system, omega, epsilon, r, 30), (
                        omega, epsilon, r,
                    )
                    outcomes.add(got[0])
        assert outcomes == {"found", "not_found"}

    def test_random_iet_searches_match_the_fraction_oracle(self):
        # float and exact IETs, m = 2..5: the verdict, q and the exact
        # distance rounded once all match the oracle, and verification is
        # exact: at epsilon = max_dist it passes only if the rounding went up
        rng = random.Random(1263)
        outcomes = set()
        for case in range(200):
            m = rng.randint(2, 5)
            images = tuple(rng.sample(range(1, m + 1), m))
            lengths = tuple(rng.random() * 2 for _ in range(m))
            if case % 2:
                lengths = tuple(Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000)) for _ in range(m))
            iet = Iet(lengths, Permutation(images))
            omega = sum(map(Fraction, lengths)) * Fraction(rng.randrange(1000), 1000)
            omega = omega if case % 2 else float(omega)
            epsilon, r = rng.choice((0.02, 0.05, 0.1, 0.3)), rng.choice((0.5, 1, 2))
            got = find_repetition_time(iet, omega, epsilon, r, 25)
            assert as_iet_outcome(got) == stepping_iet_search(iet, omega, epsilon, r, 25)
            outcomes.add(as_iet_outcome(got)[0])
            if isinstance(got, RepetitionCertificate):
                assert verify_certificate_against_definition(got, iet)
                exact = max(
                    abs(b - a)
                    for a, b in zip(
                        *(iet_orbit_fraction(lengths, images, omega, got.k_max + got.q)[s:] for s in (0, got.q))
                    )
                )
                at_max = replace(got, epsilon=got.max_dist)
                assert verify_certificate_against_definition(at_max, iet) == (Fraction(got.max_dist) > exact)
        assert outcomes == {"found", "not_found"}

    def test_one_dim_skewproduct_is_the_shift(self):
        rng = random.Random(5)
        outcomes = set()
        for alpha in (GOLDEN, LIOUVILLE10, FixedPointFrac.from_fraction(3, 8)):
            for _ in range(3):
                omega = TorusPoint((FixedPointFrac(rng.getrandbits(128)),))
                for epsilon, r, q_max in itertools.product((0.01, 0.1, 0.3), (0.5, 2.5), (5, 60)):
                    got = find_repetition_time(SkewProduct(1, alpha), omega, epsilon, r, q_max)
                    assert got == find_repetition_time(Shift((alpha,)), omega, epsilon, r, q_max)
                    outcomes.add(type(got))
        assert outcomes == {RepetitionCertificate, RepetitionNotFound}

    @pytest.mark.parametrize(
        "system",
        [Shift((GOLDEN,)), Shift((GOLDEN, SQRT2_MINUS_1)), SkewProduct(1, GOLDEN)],
        ids=["shift1", "shift2", "skewproduct1"],
    )
    def test_plan_ends_at_a_free_candidate(self, system):
        # L = I: the first candidate certifies for every omega, so nothing follows it
        thresh = repetition._strict_raw_threshold(0.06)
        plan = list(repetition._torus_plan(system, thresh, 1, 1000))
        candidates = [entry for entry in plan if entry[2] is not None]
        assert candidates == [plan[-1]]
        q, first, k_max, coef, drift = plan[-1]
        assert first < thresh and k_max == q and coef is None and drift is None

    @pytest.mark.parametrize("kind", ["skewshift", "skewproduct", "shift"])
    def test_plan_is_the_per_q_plan(self, kind):
        # the walk visits only the returns below the best miss; the oracle
        # visits every q, with forms from math.comb binomials
        rng = random.Random(14)
        specials = [0, 1, SCALE - 1, SCALE // 2, SCALE // 4, 3 * SCALE // 8, GOLDEN.value]

        def alpha():
            pick = rng.randrange(4)
            if pick == 0:
                return FixedPointFrac(rng.choice(specials))
            if pick == 1:
                return FixedPointFrac.from_fraction(rng.randrange(1, 200), rng.randrange(200, 400))
            return FixedPointFrac(rng.getrandbits(128))

        seen = set()
        for _ in range(500):
            if kind == "skewshift":
                system = SkewShift(alpha())
            elif kind == "skewproduct":
                system = SkewProduct(rng.randrange(1, 5), alpha())
            else:
                system = Shift(tuple(alpha() for _ in range(rng.randrange(1, 4))))
            thresh = repetition._strict_raw_threshold(rng.choice([0.001, 0.02, 0.1, 0.3, 0.5]))
            r, q_max = rng.choice([0.5, 1, 2.5]), rng.choice([1, 2, rng.randrange(1, 600)])
            plan = list(repetition._torus_plan(system, thresh, r, q_max))
            assert plan == list(per_q_torus_plan(system, thresh, r, q_max)), (system, thresh, q_max)
            seen.update("miss" if k_max is None else "form" if coef else "free"
                        for _, _, k_max, coef, _ in plan)
        expected = {"shift": {"free"}, "skewshift": {"form"}, "skewproduct": {"free", "form"}}
        assert seen == {"miss"} | expected[kind]

    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2_MINUS_1, LIOUVILLE10])
    def test_shift_search_walks_to_far_horizons(self, alpha):
        # past the first miss the plan visits only the record gaps, so q near
        # 10^12 takes a few dozen returns; the first q with <q*alpha> < eps is
        # a convergent denominator (Lagrange)
        thresh = repetition._strict_raw_threshold(1e-12)
        found = find_repetition_time(Shift((alpha,)), TorusPoint((ZERO,)), 1e-12, 1, 10**15)
        assert found.q == next(
            q for _, q in cf_expand(alpha, 100).convergents if (q * alpha).norm_raw() < thresh
        )
        assert len(list(repetition._torus_plan(Shift((alpha,)), thresh, 1, 10**15))) < 100

    @pytest.mark.parametrize(
        "system",
        [Shift((GOLDEN,)), Shift((GOLDEN, SQRT2_MINUS_1)), SkewShift(GOLDEN)]
        + [SkewProduct(d, GOLDEN) for d in (1, 2, 4)],
        ids=["shift1", "shift2", "skewshift", "skewproduct1", "skewproduct2", "skewproduct4"],
    )
    def test_every_torus_search_validates_omega(self, system):
        for dim in {system.dim - 1, system.dim + 1} - {0}:
            with pytest.raises(ValueError, match="dimension"):
                find_repetition_time(system, TorusPoint((ZERO,) * dim), 0.3, 1, 50)
        with pytest.raises(TypeError, match="TorusPoint"):
            find_repetition_time(system, "junk", 0.3, 1, 50)

    def test_torus_searches_never_step_an_orbit(self, monkeypatch):
        systems = [Shift((GOLDEN,)), Shift((GOLDEN, SQRT2_MINUS_1)), SkewShift(GOLDEN)]
        systems += [SkewProduct(d, GOLDEN) for d in range(2, 7)]
        cases = [
            (system, sample_start_point(system, 4, 0), epsilon)
            for system in systems
            for epsilon in (0.05, 0.45)
        ]

        def answers():
            return [
                (
                    find_repetition_time(system, omega, epsilon, 1, 60),
                    estimate_prp_fraction(system, epsilon, 1, 60, 5, seed=4),
                )
                for system, omega, epsilon in cases
            ]

        expected = answers()

        def no_stepping(*_):
            raise AssertionError("a torus search stepped an orbit")

        build = dynamics._iet_twin

        def twin_without_steps(*args):
            return replace(build(*args), step=no_stepping, inverse=no_stepping)

        monkeypatch.setattr(dynamics, "_iet_twin", twin_without_steps)
        monkeypatch.setattr(repetition, "_iet_twin", twin_without_steps)
        monkeypatch.setattr(repetition, "raw_orbit", no_stepping)
        got = answers()
        monkeypatch.undo()
        assert got == expected
        # the stepping oracle, unpatched, accepts every certificate
        certified = [
            (system, found)
            for (system, _, _), (found, _) in zip(cases, got)
            if isinstance(found, RepetitionCertificate)
        ]
        assert len(certified) >= len(systems)
        assert all(verify_certificate_against_definition(found, system) for system, found in certified)

    def test_skewshift_near_miss_ties_go_to_the_earliest_q(self):
        # alpha = 1/8: 2q*alpha = q/4, so odd q miss by their gap 1/4 and
        # q = 4m are zero-step candidates with constant terms m/4 + m/2 for
        # w1 = 1/16: q = 4 and q = 12 miss by 1/4 as well, q = 16 certifies
        system = SkewShift(FixedPointFrac.from_fraction(1, 8))
        omega = TorusPoint((FixedPointFrac.from_fraction(1, 16), ZERO))
        miss = find_repetition_time(system, omega, 0.2, 1, 15)
        assert isinstance(miss, RepetitionNotFound)
        assert (miss.best_q, miss.best_dist) == (1, 0.25)
        assert as_outcome(miss) == stepping_torus_search(system, omega, 0.2, 1, 15)
        assert find_repetition_time(system, omega, 0.2, 1, 16).q == 16

    @pytest.mark.parametrize(
        "system",
        [Shift((GOLDEN,)), SkewShift(GOLDEN), SkewProduct(3, GOLDEN)],
        ids=["shift", "skewshift", "skewproduct"],
    )
    @pytest.mark.parametrize(
        "args, message",
        [((0.0, 1, 10), "epsilon"), ((0.1, 0, 10), "r must"), ((0.1, 1, 0), "q_max")],
    )
    def test_bad_arguments_raise_before_any_plan(self, system, args, message, monkeypatch):
        def no_plan(*_):
            raise AssertionError("planned before validating")

        monkeypatch.setattr(repetition, "_torus_plan", no_plan)
        omega = TorusPoint((ZERO,) * system.dim)
        with pytest.raises(ValueError, match=message):
            find_repetition_time(system, omega, *args)
        with pytest.raises(ValueError, match=message):
            estimate_prp_fraction(system, *args, 5, seed=1)

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=SCALE - 1))
    @settings(max_examples=20)
    def test_certificate_bounded_by_convergent_denominator(self, j, w):
        # q never exceeds the first convergent denominator q* with <q*a> < eps
        eps = 2.0**-j
        alpha = SQRT2_MINUS_1
        q_star = None
        for _, q in cf_expand(alpha, 64).convergents:
            if (q * alpha).norm() < eps:
                q_star = q
                break
        cert = find_repetition_time(
            Shift((alpha,)), TorusPoint((FixedPointFrac(w),)), eps, 1.0, q_star
        )
        assert isinstance(cert, RepetitionCertificate)
        assert cert.q <= q_star


OBSTRUCTED = RepetitionCertificate(0.1, 1.0, 8, 8, 0.05, TorusPoint((ZERO, ZERO)))
# entry point -> (the argument it names, a call with that argument set to x)
NON_FINITE_CALLS = {
    "find-epsilon": ("epsilon", lambda x: find_repetition_time(Shift((GOLDEN,)), TorusPoint((ZERO,)), x, 1, 9)),
    "find-r": ("r", lambda x: find_repetition_time(Shift((GOLDEN,)), TorusPoint((ZERO,)), 0.1, x, 9)),
    "prp-epsilon": ("epsilon", lambda x: estimate_prp_fraction(SkewShift(GOLDEN), x, 1.0, 9, 4, seed=1)),
    "prp-r": ("r", lambda x: estimate_prp_fraction(SkewShift(GOLDEN), 0.1, x, 9, 4, seed=1)),
    "construct-epsilon": ("epsilon", lambda x: skewshift_constructive_q(GOLDEN, ZERO, x, cf_expand(GOLDEN, 8))),
    "construct-r": ("r", lambda x: skewshift_constructive_q(GOLDEN, ZERO, 0.3, cf_expand(GOLDEN, 8), r=x)),
    "classify-c": ("c", lambda x: classify_badly_approximable(GOLDEN, x, 100)),
    "obstruction-epsilon": ("epsilon", lambda x: badly_approximable_obstruction(GOLDEN, x, OBSTRUCTED)),
}


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
    def test_entry_points_name_the_argument(self, name, call, value):
        # not an OverflowError or an unlabelled ValueError from Fraction()
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(value)

    @pytest.mark.parametrize("field", ["epsilon", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_certificate_does_not_verify(self, field, value):
        system = Shift((GOLDEN,))
        cert = find_repetition_time(system, TorusPoint((ZERO,)), 0.06, 3, 100)
        assert verify_certificate_against_definition(cert, system)
        assert not verify_certificate_against_definition(replace(cert, **{field: value}), system)


class TestVerification:
    def test_valid_certificate_passes(self):
        system = SkewShift(LIOUVILLE10)
        cf = cf_expand(LIOUVILLE10, 64)
        rep = skewshift_constructive_q(LIOUVILLE10, ZERO, 0.3, cf, max_base_q=1000)
        assert verify_certificate_against_definition(rep.certificate, system)

    def test_tampered_certificates_fail(self):
        system = Shift((GOLDEN,))
        omega = TorusPoint((ZERO,))
        cert = find_repetition_time(system, omega, 0.06, 3, 100)
        smaller_eps = RepetitionCertificate(
            epsilon=cert.max_dist / 2,
            r=cert.r,
            q=cert.q,
            k_max=cert.k_max,
            max_dist=cert.max_dist,
            omega=cert.omega,
        )
        assert not verify_certificate_against_definition(smaller_eps, system)
        wrong_k = RepetitionCertificate(
            epsilon=cert.epsilon,
            r=cert.r,
            q=cert.q,
            k_max=cert.k_max + 1,
            max_dist=cert.max_dist,
            omega=cert.omega,
        )
        assert not verify_certificate_against_definition(wrong_k, system)
        wrong_q = RepetitionCertificate(
            epsilon=cert.epsilon,
            r=cert.r,
            q=cert.q - 1,
            k_max=cert.k_max,
            max_dist=cert.max_dist,
            omega=cert.omega,
        )
        assert not verify_certificate_against_definition(wrong_q, system)

    def test_boundary_epsilon_is_strict(self):
        # dyadic rotation: every pair at lag q=2 sits at distance exactly 1/2,
        # so epsilon=0.5 must fail (the defining inequality is strict) while
        # any epsilon above it passes
        system = Shift((FixedPointFrac.from_fraction(1, 4),))
        omega = TorusPoint((ZERO,))

        def cert_with(eps):
            return RepetitionCertificate(
                epsilon=eps, r=1.0, q=2, k_max=2, max_dist=0.5, omega=omega
            )

        assert not verify_certificate_against_definition(cert_with(0.5), system)
        assert verify_certificate_against_definition(cert_with(0.5000001), system)


def stepping_progression(s, u, k_max, first, thresh):
    """_progression's contract, one term at a time."""
    observed = first
    for k in range(k_max + 1):
        term = (s + k * u) % SCALE
        d = min(term, SCALE - term)
        if d >= thresh:
            return False, d
        observed = max(observed, d)
    return True, observed


HALF_TURN = SCALE // 2


class TestProgression:
    def test_matches_stepping_on_random_and_edge_inputs(self):
        rng = random.Random(41)
        thirds = [SCALE // 3 + d for d in (-3, 0, 1, 2, 5)]
        halves = [HALF_TURN + d for d in (-2, -1, 0, 1, 4)]
        specials = [0, 1, HALF_TURN - 1, HALF_TURN, HALF_TURN + 1, SCALE - 1]
        for _ in range(3000):
            thresh = rng.choice(
                [
                    rng.choice(thirds),
                    rng.choice(halves),
                    rng.randrange(1, SCALE // 3),
                    rng.randrange(SCALE // 3, HALF_TURN),
                    rng.randrange(HALF_TURN, SCALE),
                ]
            )
            s, u = (
                rng.choice(specials) if rng.random() < 0.3 else rng.getrandbits(128)
                for _ in range(2)
            )
            if rng.random() < 0.3:  # a step below thresh, either sign
                u = rng.randrange(min(thresh, HALF_TURN)) * rng.choice((1, -1)) % SCALE
            k_max = rng.choice([0, 1, 2, rng.randrange(40), rng.randrange(200)])
            first = rng.randrange(min(thresh, HALF_TURN)) if rng.random() < 0.5 else 0
            case = (s, u, k_max, first, thresh)
            assert repetition._progression(*case) == stepping_progression(*case), case

    @pytest.mark.parametrize("negate", [False, True])
    def test_a_term_on_the_arc_end_fails(self, negate):
        # thresh 3/8: the arc is [6/16, 10/16] and Y_2 = 2*(5/16) is its end
        thresh, step = 6 * SCALE // 16, 5 * SCALE // 16
        u = SCALE - step if negate else step
        assert repetition._progression(0, u, 2, 0, thresh) == (False, thresh)
        assert repetition._progression(0, u, 1, 0, thresh) == (True, step)

    @pytest.mark.parametrize("negate", [False, True])
    def test_a_jumped_arc_is_not_a_failure(self, negate):
        # steps of 11/32 jump the arc [12/32, 20/32] at k = 2 and land on the
        # start of the next one at k = 4; the maximum before that is at k = 1,
        # next to a half turn
        thresh, step = 12 * SCALE // 32, 11 * SCALE // 32
        u = SCALE - step if negate else step
        assert repetition._progression(0, u, 3, 0, thresh) == (True, step)
        assert repetition._progression(0, u, 4, 0, thresh) == (False, thresh)

    def test_zero_step_and_zero_k_max(self):
        thresh = SCALE // 10
        for s in (0, 5, SCALE - 5, thresh - 1, SCALE - thresh + 1):
            d = min(s, SCALE - s)
            for u, k_max in ((0, 10**30), (SCALE // 7, 0)):
                assert repetition._progression(s, u, k_max, 3, thresh) == (True, max(3, d))
        assert repetition._progression(thresh, 0, 0, 0, thresh) == (False, thresh)
        # above half a turn nothing fails; half-turn steps cross a half turn
        # at every term, so here k_max sets the cost
        assert repetition._progression(HALF_TURN, HALF_TURN, 1000, 0, HALF_TURN + 1) == (
            True,
            HALF_TURN,
        )


class TestConstructive:
    def test_liouville_zero_omega_frozen(self):
        cf = cf_expand(LIOUVILLE10, 64)
        rep = skewshift_constructive_q(LIOUVILLE10, ZERO, 0.3, cf, max_base_q=1000)
        assert isinstance(rep, ConstructiveRepetition)
        assert (rep.m, rep.base_q, rep.q) == (1, 100, 100)
        assert rep.reported_epsilon == pytest.approx(0.0302, abs=1e-6)

    def test_liouville_third_omega_frozen(self):
        cf = cf_expand(LIOUVILLE10, 64)
        rep = skewshift_constructive_q(
            LIOUVILLE10, FixedPointFrac.from_fraction(1, 3), 0.3, cf, max_base_q=1000
        )
        assert (rep.m, rep.base_q, rep.q) == (3, 100, 300)
        assert rep.reported_epsilon == pytest.approx(0.2706, abs=1e-6)
        assert rep.first_coord_dist + rep.omega_term_dist + rep.alpha_term_bound == (
            pytest.approx(rep.reported_epsilon, rel=1e-9)
        )
        assert verify_certificate_against_definition(
            rep.certificate, SkewShift(LIOUVILLE10)
        )

    def test_certificate_epsilon_is_strictly_above_true_distance(self):
        # reported_epsilon is the achieved three-term bound, minimized over m;
        # for generic omega1 it can exceed the requested target (the target
        # only gates the base convergent), but it must always dominate the
        # true maximal pair distance and the certificate must verify
        cf = cf_expand(LIOUVILLE10, 64)
        system = SkewShift(LIOUVILLE10)
        rng = random.Random(17)
        for _ in range(20):
            omega1 = FixedPointFrac(rng.getrandbits(128))
            rep = skewshift_constructive_q(LIOUVILLE10, omega1, 0.1, cf, max_base_q=1000)
            assert isinstance(rep, ConstructiveRepetition)
            assert rep.certificate.max_dist < rep.reported_epsilon
            assert rep.reported_epsilon == pytest.approx(
                rep.first_coord_dist + rep.omega_term_dist + rep.alpha_term_bound,
                rel=1e-12,
            )
            assert verify_certificate_against_definition(rep.certificate, system)

    def test_certificate_distance_is_the_stepped_maximum(self):
        # reported epsilons on both sides of 1/3 (above it a step may jump
        # the failing arc) must observe the maximum over every k, and for
        # small q (base q <= 2) that can be the first coordinate
        rng = random.Random(29)
        paths = set()
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            cf = cf_expand(alpha, 64)
            cases = itertools.product((0.05, 0.3, 0.6, 1.0), (0.5, 1.0, 2.5), (2, 1000))
            for eps, r, max_base_q in cases:
                omega1 = FixedPointFrac(rng.getrandbits(128))
                rep = skewshift_constructive_q(
                    alpha, omega1, eps, cf, r=r, max_base_q=max_base_q
                )
                if isinstance(rep, ConstructiveNotAvailable):
                    continue
                cert = rep.certificate
                points = orbit(SkewShift(alpha), cert.omega, 0, cert.k_max + cert.q)
                dists = [points[k].dist_raw(points[k + cert.q]) for k in range(cert.k_max + 1)]
                assert cert.max_dist_raw == max(dists), (alpha, eps, r)
                paths.add(rep.reported_epsilon < 1 / 3)
        assert paths == {True, False}

    def test_uncapped_golden_at_eps_half_returns_at_once(self):
        # the depth-64 base q is about 1.7e13 and its term-sum bound about 1.34
        t0 = time.perf_counter()
        rep = skewshift_constructive_q(GOLDEN, ZERO, 0.5, cf_expand(GOLDEN, 64))
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(rep, ConstructiveNotAvailable)
        assert "1.34164" in rep.reason and "1/2" in rep.reason
        assert rep.best_product == pytest.approx(0.381966, abs=1e-6)

    def test_no_certificate_reports_more_than_half_a_turn(self):
        # a bound of 1/2 or more holds for every q and omega, so it is refused
        rng = random.Random(41)
        for alpha in (GOLDEN, SQRT2_MINUS_1, LIOUVILLE10):
            cf = cf_expand(alpha, 64)
            cases = itertools.product(
                (0.05, 0.1, 0.3, 0.5, 0.6, 1.0), (0.5, 1.0, 2.5), (1000, 10**5, None)
            )
            for eps, r, max_base_q in cases:
                for _ in range(5):
                    omega1 = FixedPointFrac(rng.getrandbits(128))
                    rep = skewshift_constructive_q(
                        alpha, omega1, eps, cf, r=r, max_base_q=max_base_q
                    )
                    if isinstance(rep, ConstructiveRepetition):
                        assert rep.reported_epsilon <= 0.5, (alpha, eps, r, max_base_q)
        rep = skewshift_constructive_q(
            GOLDEN, ZERO, 0.5, cf_expand(GOLDEN, 64), r=0.5, max_base_q=1000
        )
        assert isinstance(rep, ConstructiveNotAvailable)

    def test_golden_unavailable(self):
        rep = skewshift_constructive_q(GOLDEN, ZERO, 0.01, cf_expand(GOLDEN, 64))
        assert isinstance(rep, ConstructiveNotAvailable)
        assert "0.01" in rep.reason

    def test_r_scales_the_base_requirement(self):
        cf = cf_expand(LIOUVILLE10, 64)
        rep1 = skewshift_constructive_q(LIOUVILLE10, ZERO, 0.3, cf, r=1.0, max_base_q=1000)
        rep3 = skewshift_constructive_q(LIOUVILLE10, ZERO, 0.3, cf, r=3.0, max_base_q=1000)
        assert verify_certificate_against_definition(rep3.certificate, SkewShift(LIOUVILLE10))
        assert rep3.certificate.k_max == 3 * rep3.q
        assert rep1.certificate.k_max == rep1.q

    def test_validation(self):
        cf = cf_expand(GOLDEN, 8)
        for epsilon in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                skewshift_constructive_q(GOLDEN, ZERO, epsilon, cf)
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match="r must be positive"):
                skewshift_constructive_q(GOLDEN, ZERO, 0.3, cf, r=r)


class TestObstruction:
    def cert(self, epsilon=0.3):
        cf = cf_expand(LIOUVILLE10, 64)
        rep = skewshift_constructive_q(
            LIOUVILLE10, FixedPointFrac.from_fraction(1, 3), epsilon, cf, max_base_q=1000
        )
        return rep

    def test_witness_frozen(self):
        rep = self.cert()
        report = badly_approximable_obstruction(
            LIOUVILLE10, rep.reported_epsilon, rep.certificate
        )
        assert report.q == 300
        assert report.q_times_step == pytest.approx(0.18, abs=1e-12)
        assert report.within_two_eps
        assert report.witness_q == 300
        assert report.witness_product == pytest.approx(0.09, abs=1e-12)

    def test_witness_product_is_small_diophantine_data(self):
        # the witness certifies q<q*alpha> below 2*epsilon: directly checkable
        rep = self.cert(0.1)
        report = badly_approximable_obstruction(
            LIOUVILLE10, rep.reported_epsilon, rep.certificate
        )
        q = report.witness_q
        dist = (q * LIOUVILLE10).norm()
        assert q * dist == pytest.approx(report.witness_product, rel=1e-12)
        assert report.witness_product < 2 * rep.reported_epsilon

    def test_doubled_time_witness_when_q_alpha_is_near_a_half(self):
        # <alpha> = 0.4995 > 1/4, so q = 1 is no witness; <2*alpha> = 0.001 is
        alpha = FixedPointFrac.from_fraction(1001, 2000)
        cert = find_repetition_time(SkewShift(alpha), TorusPoint((ZERO, ZERO)), 0.01, 1.0, 1)
        assert (cert.q, cert.r) == (1, 1.0)
        report = badly_approximable_obstruction(alpha, 0.01, cert)
        assert (report.witness_q, report.witness_product) == (2, 0.002)

    def test_wrapping_certificate_rejected(self):
        # golden alpha: q<2q*alpha> exceeds 1/2 for a large claimed q, so the
        # arithmetic-progression argument cannot run
        fake = RepetitionCertificate(
            epsilon=0.3, r=1.0, q=987, k_max=987, max_dist=0.0,
            omega=TorusPoint((ZERO, ZERO)),
        )
        with pytest.raises(InconsistentCertificateError):
            badly_approximable_obstruction(GOLDEN, 0.3, fake)

    def test_validation(self):
        rep = self.cert()
        with pytest.raises(ValueError):
            badly_approximable_obstruction(LIOUVILLE10, 0.0, rep.certificate)
        small_r = RepetitionCertificate(
            epsilon=0.3, r=0.5, q=100, k_max=50, max_dist=0.0,
            omega=TorusPoint((ZERO, ZERO)),
        )
        with pytest.raises(ValueError):
            badly_approximable_obstruction(LIOUVILLE10, 0.3, small_r)


class TestPrpEstimate:
    def test_golden_skewshift_no_hits(self):
        est = estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 500, 60, seed=42)
        assert est.n_hits == 0
        assert est.fraction == 0.0

    def test_shift_always_hits(self):
        est = estimate_prp_fraction(Shift((GOLDEN,)), 0.2, 2.0, 50, 40, seed=7)
        assert est.fraction == 1.0

    def test_thread_count_does_not_change_the_result(self):
        one = estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 300, 50, seed=42)
        four = estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 300, 50, seed=42, threads=4)
        assert one == four

    @pytest.mark.parametrize("system, q_max", PRP_GRID.values(), ids=PRP_GRID.keys())
    def test_estimate_matches_per_sample_search(self, system, q_max):
        hits = misses = 0
        for epsilon, r in itertools.product(PRP_GRID_EPSILONS, PRP_GRID_RS):
            est = estimate_prp_fraction(system, epsilon, r, q_max, 12, seed=3)
            expected = per_sample_estimate(system, epsilon, r, q_max, 12, seed=3)
            assert (est.n_samples, est.n_hits) == (12, expected), (epsilon, r)
            hits += est.n_hits
            misses += est.n_samples - est.n_hits
        assert hits and misses

    @pytest.mark.parametrize(
        "system",
        [SkewShift(LIOUVILLE10), SkewShift(MINUS_LIOUVILLE10), SkewProduct(3, SQRT2_MINUS_1)],
        ids=["skewshift", "skewshift-negative-step", "skewproduct3"],
    )
    @pytest.mark.parametrize("epsilon", [0.2, 0.33, 1 / 3])
    def test_verdict_at_the_arc_endpoints(self, system, epsilon):
        # omega with delta_1 = lo - 1, lo, hi, hi + 1 for each planned odd q
        # (q*w_0 then takes every residue): the candidate's progression passes
        # exactly on its arc, and the verdict up to q is the search's
        thresh = repetition._strict_raw_threshold(epsilon)
        rng = random.Random(5)
        on_arc = set()
        for q, first, k_max, coef, drift in repetition._torus_plan(system, thresh, 1, 200):
            if k_max is None or q % 2 == 0:
                continue
            step = drift[0] if drift[0] < SCALE // 2 else drift[0] - SCALE
            lo = max(1 - thresh, 1 - thresh - k_max * step)
            hi = min(thresh - 1, thresh - 1 - k_max * step)
            for delta1 in (lo - 1, lo, hi, hi + 1):
                passes, _ = repetition._progression(delta1 % SCALE, drift[0], k_max, first, thresh)
                assert passes == (lo <= delta1 <= hi), (q, delta1 - lo)
                on_arc.add(passes)
                w0 = (delta1 - drift[1]) * pow(coef[1], -1, SCALE) % SCALE
                rest = [rng.getrandbits(128) for _ in range(system.dim - 1)]
                omega = TorusPoint(tuple(map(FixedPointFrac, [w0, *rest])))
                found = find_repetition_time(system, omega, epsilon, 1, q)
                certifies = repetition._certifies(system, epsilon, 1, q)
                verdict = certifies(omega.raw) if callable(certifies) else certifies
                assert verdict == isinstance(found, RepetitionCertificate), (q, delta1 - lo)
        assert on_arc == {True, False}

    def test_no_arc_draws_no_sample(self, monkeypatch):
        # the golden_prp_fraction recipe: no candidate q <= 2000 has an arc
        args = (SkewShift(GOLDEN), 0.05, 1, 2000, 500, 20240501)
        expected = estimate_prp_fraction(*args)

        def no_draw(*_):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(repetition, "sample_start_point", no_draw)
        monkeypatch.setattr(repetition, "_sample_rng", no_draw)
        assert estimate_prp_fraction(*args) == expected
        assert expected.n_hits == 0

    @pytest.mark.parametrize(
        "system",
        [SkewShift(GOLDEN), Shift((GOLDEN, SQRT2_MINUS_1)), SkewProduct(4, SQRT2_MINUS_1),
         Iet((0.25, 0.75), Permutation((2, 1)))],
        ids=["skewshift", "shift2", "skewproduct4", "iet"],
    )
    def test_the_raw_draw_is_the_start_point(self, system):
        # the Monte Carlo draws raw states: the same bits as the API points
        raw = [dynamics._random_raw(system, repetition._sample_rng(9, i)) for i in range(25)]
        points = [sample_start_point(system, 9, i) for i in range(25)]
        if isinstance(system, Iet):
            # an IET draw is its share u of the total, and the point u*total
            total = sum(map(Fraction, system.lengths))
            assert points == [float(u * total) for u in raw]
        else:
            assert raw == [p.raw for p in points]
            assert all(type(w) is tuple and len(w) == system_dim(system) for w in raw)

    @pytest.mark.parametrize(
        "lengths", [(0.3, 0.5, 0.2), (Fraction(3, 10), Fraction(1, 2), Fraction(1, 5))],
        ids=["floats", "fractions"],
    )
    def test_iet_monte_carlo_builds_one_twin(self, monkeypatch, lengths):
        # one integer twin holds every draw, so it is built once per estimate
        iet = Iet(lengths, Permutation((3, 1, 2)))
        expected = estimate_prp_fraction(iet, 0.1, 1, 30, 20, seed=3)
        built = []
        real = dynamics._iet_twin

        def counted(system, *points):
            built.append(system)
            return real(system, *points)

        monkeypatch.setattr(dynamics, "_iet_twin", counted)
        monkeypatch.setattr(repetition, "_iet_twin", counted)
        assert estimate_prp_fraction(iet, 0.1, 1, 30, 20, seed=3) == expected
        assert built == [iet]

    def test_seed_changes_the_samples(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        a = sample_start_point(iet, seed=1, index=0)
        b = sample_start_point(iet, seed=2, index=0)
        assert a != b
        assert sample_start_point(iet, seed=1, index=0) == a

    def test_exact_iet_samples_stay_exact(self):
        lengths = (Fraction(15, 32), Fraction(1, 32), Fraction(1, 2))
        iet = Iet(lengths, Permutation((3, 1, 2)))
        point = sample_start_point(iet, seed=3, index=0)
        assert isinstance(point, Fraction)
        assert 0 <= point < 1
        # the same draw as the float IET of these lengths, kept exact
        float_iet = Iet(tuple(float(x) for x in lengths), iet.perm)
        assert point == Fraction(sample_start_point(float_iet, seed=3, index=0))
        assert isinstance(find_repetition_time(iet, point, 0.01, 1.0, 20).best_dist, Fraction)
        miss = find_repetition_time(iet, Fraction(0), 0.01, 1.0, 20)
        assert miss.best_dist == Fraction(1, 32)
        assert isinstance(miss.best_dist, Fraction)

    def test_wilson_interval_matches_reference(self):
        est = estimate_prp_fraction(SkewShift(LIOUVILLE10), 0.3, 1.0, 200, 80, seed=5)
        lo, hi = wilson_interval(est.n_hits, est.n_samples, 1.959963984540054)
        assert est.wilson_ci[0] == pytest.approx(lo, rel=1e-12)
        assert est.wilson_ci[1] == pytest.approx(hi, rel=1e-12)
        # at p-hat = 1 the exact upper bound is 1; allow rounding dust
        assert 0.0 <= est.wilson_ci[0] <= est.fraction <= est.wilson_ci[1] + 1e-12
        assert est.wilson_ci[1] <= 1.0

    def test_wilson_interval_ends_at_one_when_every_sample_hits(self):
        # the float formula gives 1 - 2^-53 at some n (400 and 4096 among them)
        assert [n for n in range(1, 5001) if repetition._wilson_interval(n, n)[1] != 1.0] == []

    def test_wilson_interval_interior_case(self):
        est = estimate_prp_fraction(SkewShift(LIOUVILLE10), 0.05, 1.0, 150, 80, seed=5)
        assert 0 < est.n_hits < est.n_samples
        lo, hi = wilson_interval(est.n_hits, est.n_samples, 1.959963984540054)
        assert est.wilson_ci == (pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12))
        assert lo < est.fraction < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 10, 0, seed=1)


class TestVeechTowers:
    def test_halves_full_tower(self):
        tower = veech_tower_search(Iet((0.5, 0.5), Permutation((2, 1))), 0.3, 100)
        assert isinstance(tower, VeechTower)
        assert tower.q == 2
        assert tower.interval == (0, 0.5)
        assert tower.coverage == 1.0
        assert tower.return_overlap == 0.5

    def test_golden_tower_at_large_epsilon(self):
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        tower = veech_tower_search(iet, 0.65, 100)
        assert tower.q == 1
        assert tower.coverage == pytest.approx(0.6180339887498949, rel=1e-12)
        assert tower.return_overlap == pytest.approx(0.2360679774997898, rel=1e-12)

    def test_golden_best_partial_scores_at_small_epsilon(self):
        # no tower exists below the golden-ratio barrier; the best partial
        # scores converge to phi/sqrt(5) coverage and 1-1/phi overlap
        beta = float(GOLDEN)
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        miss = veech_tower_search(iet, 0.3, 1000)
        assert isinstance(miss, TowerNotFound)
        assert miss.best_coverage == pytest.approx(0.7236067977499789, abs=1e-5)
        assert miss.best_overlap_fraction == pytest.approx(0.3819660113, abs=1e-6)

    def test_liouville_rotation_deep_tower(self):
        beta = 0.1100010000000001  # <liouville alpha>, rotation step
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        tower = veech_tower_search(iet, 0.05, 500)
        assert tower.q == 100
        assert tower.coverage > 0.99
        assert tower.return_overlap > 0.95 * (tower.interval[1] - tower.interval[0])

    def test_coverage_lower_bound_for_rotations(self):
        # rotations: a found tower at a convergent q has coverage >= 1 - 2q<q*beta>
        beta = 0.1100010000000001
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        tower = veech_tower_search(iet, 0.05, 500)
        step = abs(100 * beta - round(100 * beta))
        assert tower.coverage >= 1 - 2 * 100 * step - 1e-9

    def test_three_interval_towers_found(self):
        rng = random.Random(3)
        cuts = sorted((rng.random(), rng.random()))
        iet = Iet(
            (cuts[0], cuts[1] - cuts[0], 1 - cuts[1]), Permutation((3, 1, 2))
        )
        tower = veech_tower_search(iet, 0.5, 500)
        assert isinstance(tower, VeechTower)
        assert tower.q == 4

    def test_tower_floors_are_disjoint(self):
        beta = 0.1100010000000001
        iet = Iet((1 - beta, beta), Permutation((2, 1)))
        tower = veech_tower_search(iet, 0.05, 500)
        lo, hi = tower.interval
        length = hi - lo
        # each floor acts as a rigid translate of the base; midpoints at
        # mutual distance >= length certify pairwise disjointness
        mids = orbit(iet, (lo + hi) / 2, 0, tower.q - 1)
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                assert abs(mids[i] - mids[j]) >= length - 1e-9

    def test_exact_halves_full_tower(self):
        half = Fraction(1, 2)
        tower = veech_tower_search(Iet((half, half), Permutation((2, 1))), 0.3, 100)
        assert isinstance(tower, VeechTower)
        assert tower.q == 2
        assert tower.interval == (0, half)
        assert isinstance(tower.interval[1], Fraction)
        assert tower.coverage == 1.0
        assert tower.return_overlap == 0.5

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_search_matches_from_scratch_stepping(self, m):
        # translations read from the breakpoint orbits of the integer twin
        # must reproduce the exact search that steps each candidate's
        # midpoint: float IETs to q_max=300 (through their dyadic twins),
        # exact ones to 60, towers and misses both
        rng = random.Random(100 + m)
        outcomes = []
        for epsilon in (0.1, 0.3, 0.5, 0.7):
            for exact in (False, True):
                while True:
                    perm = Permutation(tuple(rng.sample(range(1, m + 1), m)))
                    if perm.is_irreducible():
                        break
                if exact:
                    cuts = sorted(rng.sample(range(1, 997), m - 1))
                    lengths = tuple(
                        Fraction(b - a, 997) for a, b in zip([0, *cuts], [*cuts, 997])
                    )
                else:
                    lengths = tuple(rng.random() + 0.02 for _ in range(m))
                iet, q_max = Iet(lengths, perm), 60 if exact else 300
                got = veech_tower_search(iet, epsilon, q_max)
                assert repr(got) == repr(veech_tower_search_stepping(iet, epsilon, q_max))
                outcomes.append(type(got))
        assert set(outcomes) == {VeechTower, TowerNotFound}

    @pytest.mark.parametrize("images", [(3, 1, 2), (4, 3, 2, 1), (2, 5, 3, 1, 4)])
    def test_search_matches_from_scratch_stepping_on_many_short_searches(self, images):
        # short searches end at an early tower or scan few q: pieces that
        # were visited and are split later pass their floors to both halves.
        # Lengths over a denominator of at most 12 make new cuts coincide with
        # old ones and land between the kept pieces, and q_max 1 or 2 (or a
        # short first interval) leaves a first piece too short to keep
        rng = random.Random(sum(images))
        searches = ((0.3, 42), (0.95, 42), (0.3, 1), (0.5, 2))
        for _ in range(40):
            floats = tuple(rng.random() + 0.05 for _ in images)
            den = rng.randint(2, 12)
            exact = tuple(Fraction(rng.randint(1, 2 * den), den) for _ in images)
            for lengths, first in ((floats, (0.2, 42)), (exact, (0.01, 42))):
                iet = Iet(lengths, Permutation(images))
                for epsilon, q_max in (first, *searches):
                    got = veech_tower_search(iet, epsilon, q_max)
                    want = veech_tower_search_stepping(iet, epsilon, q_max)
                    assert repr(got) == repr(want)

    def test_dropping_dead_pieces_matches_from_scratch_stepping(self, monkeypatch):
        # a piece whose floors came within never = longer // q_max of it can be
        # no candidate at any q <= q_max, nor can the halves later cut from it,
        # so the walk drops it; the oracle keeps and steps every piece.  The
        # wrapper counts the pieces the walk dropped at each q, so the
        # comparison cannot pass on searches that never drop one
        dropped = []

        def counting_pieces(twin, never=0):
            for q, pieces in dynamics.iet_pieces(twin, never):
                kept = len(pieces)
                yield q, pieces
                dropped.append(kept - len(pieces))

        monkeypatch.setattr(repetition, "iet_pieces", counting_pieces)
        rng = random.Random(5)
        pruned = []
        for images in ((3, 1, 2), (4, 3, 2, 1), (2, 5, 3, 1, 4)):
            for k in range(16):
                if k % 2:
                    den = rng.randint(20, 60)
                    lengths = tuple(Fraction(rng.randint(1, den), den) for _ in images)
                else:
                    lengths = tuple(rng.random() + 0.05 for _ in images)
                iet, epsilon = Iet(lengths, Permutation(images)), rng.choice((0.1, 0.3, 0.5))
                dropped.clear()
                got = veech_tower_search(iet, epsilon, 80)
                assert repr(got) == repr(veech_tower_search_stepping(iet, epsilon, 80))
                if sum(dropped):
                    pruned.append(type(got))
        assert pruned.count(TowerNotFound) >= 10 and pruned.count(VeechTower) >= 2

    def test_half_of_a_dead_piece_is_a_tower(self):
        # at q = 5 the piece P of T^5 around J has a floor meeting P; the cut
        # T^-5(beta_i) splits it at q = 6, and the half J, which inherits P's
        # floors, is the tower
        iet = Iet((Fraction(12, 23), Fraction(6, 23), Fraction(5, 23)), Permutation((3, 2, 1)))
        tower = veech_tower_search(iet, 0.5, 40)
        assert repr(tower) == repr(veech_tower_search_stepping(iet, 0.5, 40))
        assert (tower.q, tower.interval) == (6, (Fraction(4, 23), Fraction(7, 23)))
        lo, hi = tower.interval
        edges = exact_edges(iet, tower.q - 1)
        parent = edges[bisect.bisect_right(edges, lo) - 1], edges[bisect.bisect_left(edges, hi)]
        assert parent[0] <= lo < hi <= parent[1] and parent != tower.interval
        step = exact_maps(iet)[1]
        mid = x = (parent[0] + parent[1]) / 2
        met = []
        for k in range(1, tower.q - 1):
            x = step(x)
            met.append(abs(x - mid) < parent[1] - parent[0])
        assert any(met)

    def test_tower_on_a_piece_that_entered_the_window_late(self):
        # J = [0, 1/41) is a piece of T^17 already, but with eps = 1/2 it is
        # long enough for the window only from q = 21 on: it is kept and its
        # floors are folded in at every q before that, and the first tower is
        # on it at q = 21
        lengths = (Fraction(17, 41), Fraction(18, 41), Fraction(1, 41), Fraction(5, 41))
        iet = Iet(lengths, Permutation((2, 4, 1, 3)))
        tower = veech_tower_search(iet, 0.5, 40)
        assert repr(tower) == repr(veech_tower_search_stepping(iet, 0.5, 40))
        assert (tower.q, tower.interval) == (21, (0, Fraction(1, 41)))
        edges = exact_edges(iet, 17)
        assert edges[:2] == [0, Fraction(1, 41)]
        assert Fraction(1, 41) <= Fraction(1, 2) / 20  # below the window at q = 20

    def test_epsilon_zero_is_unreachable(self):
        iet = Iet((0.5, 0.5), Permutation((2, 1)))
        miss = veech_tower_search(iet, 0.0, 100)
        assert isinstance(miss, TowerNotFound)

    def test_validation(self):
        iet = Iet((0.5, 0.5), Permutation((2, 1)))
        with pytest.raises(ValueError):
            veech_tower_search(iet, 1.2, 100)
        with pytest.raises(ValueError):
            veech_tower_search(iet, -0.1, 100)
        with pytest.raises(ValueError):
            veech_tower_search(iet, 0.5, 0)
