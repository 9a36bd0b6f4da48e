"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and prints exactly one PASS/FAIL line.  Two checks are expected to
fail and are left failing on purpose; the reasons are mathematical, not bugs:

* test_criterion_3b_decay_envelope_for_liouville_cosine: the cosine defect
  at scale q tracks 2*pi*<q*alpha>, which for the 10^-j Liouville frequency
  is astronomically larger than the demanded 2^-q envelope at every horizon.
* test_criterion_7a_golden_rotation_tower: a return tower with epsilon = 0.3
  needs q*<q*beta> < epsilon somewhere, but the golden rotation bottoms out
  at 1 - phi ~ 0.382 (q = 1) and ~ 1/sqrt(5) ~ 0.447 along its convergents.
"""

import math
import random
import time

import numpy as np
import pytest

from gordonlab.arithmetic import (
    GOLDEN,
    LIOUVILLE10,
    SQRT2_MINUS_1,
    ZERO,
    FixedPointFrac,
    cf_expand,
)
from gordonlab.cli import main as cli_main
from gordonlab.dynamics import Iet, Permutation, Shift, SkewShift, TorusPoint, orbit
from gordonlab.potentials import (
    NO_DECAY_AT_HORIZON,
    Cosine,
    PiecewiseConstant,
    TrigPoly,
    explicit_window,
    gordon_gamma,
    gordon_profile,
    modulus_bound,
    sample_potential,
)
from gordonlab.repetition import (
    ConstructiveRepetition,
    RepetitionCertificate,
    VeechTower,
    badly_approximable_obstruction,
    estimate_prp_fraction,
    find_repetition_time,
    skewshift_constructive_q,
    veech_tower_search,
    verify_certificate_against_definition,
)
from gordonlab.spectral import (
    gordon_three_block_check,
    transfer_block,
    truncated_spectrum,
)

from oracles import sturm_eigenvalues

ALPHAS = {"golden": GOLDEN, "sqrt2": SQRT2_MINUS_1, "liouville10": LIOUVILLE10}

FIBONACCI = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
             2584, 4181, 6765]


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def first_denominator_below(alpha, eps):
    for _, q in cf_expand(alpha, 64).convergents:
        if (q * alpha).norm() < eps:
            return q
    raise AssertionError("expansion too shallow for this epsilon")


def test_criterion_1_repetition_certificates_on_the_sampled_grid():
    # every (alpha, dimension, omega, epsilon, r) drawn from the grid yields a
    # certificate with q at most the first convergent denominator below
    # epsilon, with pair distances exactly constant in k for shifts
    t0 = time.perf_counter()
    rng = random.Random(1001)
    n_certs = n_const = 0
    ok = True
    for alpha in ALPHAS.values():
        for dim in (1, 2):
            system = Shift((alpha,) * dim)
            for i in range(100):
                omega = TorusPoint(
                    tuple(FixedPointFrac(rng.getrandbits(128)) for _ in range(dim))
                )
                eps = 2.0 ** -(1 + (i % 10))
                r = 1 + (i % 3)
                q_star = first_denominator_below(alpha, eps)
                cert = find_repetition_time(system, omega, eps, r, q_star)
                if not (isinstance(cert, RepetitionCertificate) and cert.q <= q_star):
                    ok = False
                    break
                n_certs += 1
                if i % 20 == 0:
                    points = orbit(system, omega, 0, cert.k_max + cert.q)
                    dists = {points[k].dist_raw(points[k + cert.q]) for k in range(cert.k_max + 1)}
                    if len(dists) != 1:
                        ok = False
                        break
                    n_const += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        "1 repetition-certificate grid",
        ok,
        f"{n_certs} certificates, {n_const} exact k-constancy checks, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_skewshift_dichotomy():
    # (a) the golden skew-shift shows no repetition hits at eps=0.05 even over
    # 500 random starts; (b) the Liouville skew-shift admits verified
    # constructive certificates for every sampled start and epsilon; (c) each
    # such certificate forces a Diophantine witness q<q*alpha> < 2*epsilon
    t0 = time.perf_counter()
    est = estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 2000, 500, seed=20240501)
    part_a = est.n_hits == 0 and est.fraction == 0.0

    cf = cf_expand(LIOUVILLE10, 64)
    system = SkewShift(LIOUVILLE10)
    rng = random.Random(2002)
    part_b = part_c = True
    n_verified = 0
    for i in range(200):
        omega1 = FixedPointFrac(rng.getrandbits(128))
        eps = (0.3, 0.1, 0.03)[i % 3]
        rep = skewshift_constructive_q(LIOUVILLE10, omega1, eps, cf, max_base_q=1000)
        if not isinstance(rep, ConstructiveRepetition):
            part_b = False
            continue
        if not verify_certificate_against_definition(rep.certificate, system):
            part_b = False
            continue
        n_verified += 1
        obstruction = badly_approximable_obstruction(
            LIOUVILLE10, rep.reported_epsilon, rep.certificate
        )
        if not obstruction.witness_product < 2 * rep.reported_epsilon:
            part_c = False
    elapsed = time.perf_counter() - t0
    ok = part_a and part_b and part_c and n_verified == 200 and elapsed < 60.0
    report(
        "2 skew-shift dichotomy",
        ok,
        f"golden fraction {est.fraction} (wilson hi {est.wilson_ci[1]:.4f}), "
        f"{n_verified}/200 constructive certificates verified with witnesses, "
        f"{elapsed:.2f}s < 60s",
    )


def test_criterion_3a_defect_below_modulus_bound():
    # for every certificate, gamma(q) <= modulus_bound(f, achieved distance):
    # the defect inherits the sampling function's modulus of continuity
    t0 = time.perf_counter()
    rng = random.Random(3003)
    funcs = [
        Cosine((1,)),
        TrigPoly((((1,), 0.5, 0.0), ((2,), 0.3, 0.25), ((3,), 0.2, 0.6))),
    ]
    n_triples = 0
    ok = True
    for alpha in ALPHAS.values():
        system = Shift((alpha,))
        for i in range(180):
            omega = TorusPoint((FixedPointFrac(rng.getrandbits(128)),))
            eps = 2.0 ** -(2 + (i % 6))
            q_star = first_denominator_below(alpha, eps)
            cert = find_repetition_time(system, omega, eps, 1.0, q_star)
            if not isinstance(cert, RepetitionCertificate):
                ok = False
                break
            for f in funcs:
                window = sample_potential(system, f, 1.0, omega, 1 - cert.q, 2 * cert.q)
                gamma = gordon_gamma(window, cert.q)
                if gamma > modulus_bound(f, cert.max_dist) + 1e-14:
                    ok = False
                n_triples += 1
    elapsed = time.perf_counter() - t0
    ok = ok and n_triples >= 1000 and elapsed < 30.0
    report(
        "3a defect vs modulus bound",
        ok,
        f"{n_triples} (certificate, function) pairs dominated, {elapsed:.2f}s < 30s",
    )


def test_criterion_3b_decay_envelope_for_liouville_cosine():
    # EXPECTED RED.  Along the Liouville convergent denominators the cosine
    # defect behaves like 2*pi*<q*alpha>; demanding gamma(q) below a 2^-q
    # envelope means log gamma(q) + q log 2 must strictly decrease, but the
    # sequence rises by thousands of logs between horizons.
    t0 = time.perf_counter()
    q_schedule = [9, 100, 9909, 10009]
    window = sample_potential(
        Shift((LIOUVILLE10,)),
        Cosine((1,)),
        1.0,
        TorusPoint((ZERO,)),
        1 - q_schedule[-1],
        2 * q_schedule[-1],
    )
    scores = []
    for q in q_schedule:
        gamma = gordon_gamma(window, q)
        scores.append(math.log(gamma) + q * math.log(2.0))
    decreasing = all(b < a for a, b in zip(scores, scores[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing and elapsed < 30.0
    report(
        "3b liouville cosine 2^-q envelope",
        ok,
        "log gamma(q) + q log 2 = "
        + ", ".join(f"{s:.1f}" for s in scores)
        + f" must strictly decrease, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_coupling_homogeneity():
    # gamma(lam * V, q) = |lam| * gamma(V, q) to relative 1e-12 across eight
    # orders of magnitude, exactly at lam = 0
    rng = random.Random(4004)
    system = Shift((GOLDEN,))
    omega = TorusPoint((FixedPointFrac.from_float(0.123),))
    base = sample_potential(system, Cosine((1,)), 1.0, omega, -7, 16)
    gamma_1 = gordon_gamma(base, 8)
    ok = True
    worst = 0.0
    lams = [rng.uniform(-1e3, 1e3) for _ in range(50)] + [1e-5, -1e-5]
    for lam in lams:
        window = sample_potential(system, Cosine((1,)), lam, omega, -7, 16)
        rel = abs(gordon_gamma(window, 8) - abs(lam) * gamma_1) / (abs(lam) * gamma_1)
        worst = max(worst, rel)
        if rel > 1e-12:
            ok = False
    zero = sample_potential(system, Cosine((1,)), 0.0, omega, -7, 16)
    ok = ok and gordon_gamma(zero, 8) == 0.0
    report(
        "4 coupling homogeneity",
        ok,
        f"worst relative error {worst:.2e} <= 1e-12 over {len(lams)} couplings; "
        "exact zero at lam=0",
    )


def test_criterion_5_three_block_inequality_and_determinants():
    # periodic blocks never drop below half the starting norm (10^4 random
    # instances, q <= 20, |V| <= 4, |E| <= 6); determinant drift of length-200
    # products stays below 1e-10 whenever the product stays representable
    # (all entries <= 1e2)
    t0 = time.perf_counter()
    rng = random.Random(5005)
    worst_ratio = math.inf
    ok = True
    for _ in range(10_000):
        q = rng.randint(1, 20)
        pattern = [rng.uniform(-4, 4) for _ in range(q)]
        vals = (pattern * 4)[: 3 * q]
        window = explicit_window(vals, n_min=1 - q)
        theta = rng.uniform(0, 2 * math.pi)
        report_ = gordon_three_block_check(
            window, rng.uniform(-6, 6), q, (math.cos(theta), math.sin(theta))
        )
        if report_.gamma != 0.0:
            ok = False
        worst_ratio = min(worst_ratio, report_.min_ratio)
        if report_.min_ratio < 0.5 - 1e-12:
            ok = False

    rng2 = random.Random(5)
    n_qualifying = 0
    max_drift = 0.0
    for _ in range(400):
        vals = [rng2.uniform(-0.5, 0.5) for _ in range(200)]
        window = explicit_window(vals, n_min=0)
        block = transfer_block(window, rng2.uniform(-1.5, 1.5), 0, 199)
        if np.max(np.abs(block.entries)) <= 1e2:
            n_qualifying += 1
            max_drift = max(max_drift, abs(block.det() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = ok and n_qualifying >= 10 and max_drift <= 1e-10 and elapsed < 20.0
    report(
        "5 three-block inequality",
        ok,
        f"worst ratio {worst_ratio:.4f} >= 0.5-1e-12 over 10000 blocks; "
        f"det drift {max_drift:.2e} <= 1e-10 on {n_qualifying} bounded products; "
        f"{elapsed:.2f}s < 20s",
    )


def test_criterion_6_coding_floor_and_cosine_tracking():
    # golden rotation: the half-circle coding keeps gamma(q) pinned at the
    # level gap for every q up to 10^4 (no decay ever), while the cosine
    # defect tracks the rotation distance within [pi, 2*pi] along Fibonacci q
    t0 = time.perf_counter()
    coding = PiecewiseConstant((0.0, 0.5), (0.0, 1.0))
    profile = gordon_profile(
        Shift((GOLDEN,)),
        coding,
        1.0,
        TorusPoint((ZERO,)),
        list(range(1, 10_001)),
        [1.01],
    )
    floor_ok = all(g == 1.0 for _, g in profile.entries)
    verdict_ok = profile.verdict == NO_DECAY_AT_HORIZON

    window = sample_potential(
        Shift((GOLDEN,)),
        Cosine((1,)),
        1.0,
        TorusPoint((ZERO,)),
        1 - FIBONACCI[-1],
        2 * FIBONACCI[-1],
    )
    ratios = []
    for q in FIBONACCI:
        ratios.append(gordon_gamma(window, q) / (q * GOLDEN).norm())
    band_ok = all(math.pi <= rho <= 2 * math.pi + 1e-6 for rho in ratios)
    elapsed = time.perf_counter() - t0
    ok = floor_ok and verdict_ok and band_ok
    report(
        "6 coding floor vs cosine tracking",
        ok,
        f"coding gamma = gap at all 10^4 scales ({profile.verdict}); cosine "
        f"gamma/<q alpha> in [{min(ratios):.3f}, {max(ratios):.3f}] within "
        f"[pi, 2pi]; {elapsed:.2f}s",
    )


def test_criterion_7a_golden_rotation_tower():
    # EXPECTED RED.  A return tower of quality eps = 0.3 over the golden
    # 2-interval exchange needs q*<q*beta> < eps for some q, but the golden
    # rotation never drops below 1 - phi ~ 0.382: the search reports its best
    # partial tower instead of a certificate.
    t0 = time.perf_counter()
    beta = float(GOLDEN)
    iet = Iet((1 - beta, beta), Permutation((2, 1)))
    result = veech_tower_search(iet, 0.3, 1000)
    found = isinstance(result, VeechTower)
    if found:
        lo, hi = result.interval
        quality = result.coverage >= 0.7 and result.return_overlap >= 0.7 * (hi - lo)
        detail = (
            f"tower q={result.q} coverage={result.coverage:.4f} "
            f"overlap={result.return_overlap:.4f}"
        )
    else:
        quality = False
        detail = (
            f"no tower up to q=1000; best partial coverage "
            f"{result.best_coverage:.4f}, best overlap fraction "
            f"{result.best_overlap_fraction:.4f}"
        )
    elapsed = time.perf_counter() - t0
    ok = found and quality and elapsed < 60.0
    report("7a golden-rotation tower", ok, f"{detail}, {elapsed:.2f}s < 60s")


def test_criterion_7b_random_three_interval_towers():
    # at eps = 0.5 at least 8 of 10 seeded three-interval exchanges admit a
    # verified return tower within q <= 500
    t0 = time.perf_counter()
    n_found = 0
    qs = []
    for seed in range(10):
        rng = random.Random(seed)
        cuts = sorted((rng.random(), rng.random()))
        lengths = (cuts[0], cuts[1] - cuts[0], 1 - cuts[1])
        tower = veech_tower_search(Iet(lengths, Permutation((3, 1, 2))), 0.5, 500)
        if isinstance(tower, VeechTower):
            n_found += 1
            qs.append(tower.q)
    elapsed = time.perf_counter() - t0
    ok = n_found >= 8 and elapsed < 60.0
    report(
        "7b three-interval towers",
        ok,
        f"{n_found}/10 towers found (q values {qs}), {elapsed:.2f}s < 60s",
    )


def test_criterion_8_truncated_spectra():
    # free chain matches the closed-form cosine spectrum to 1e-10; truncation
    # growth interlaces over 100 random potentials; an independent Sturm
    # bisection agrees to 1e-8
    t0 = time.perf_counter()
    free = truncated_spectrum(explicit_window([0.0] * 100, n_min=1), 100)
    expected = np.sort([2 * math.cos(k * math.pi / 101) for k in range(1, 101)])
    free_ok = bool(np.max(np.abs(free.eigenvalues - expected)) <= 1e-10)

    rng = random.Random(8008)
    interlace_ok = True
    for _ in range(100):
        vals = [rng.uniform(-2, 2) for _ in range(51)]
        window = explicit_window(vals, n_min=1)
        small = truncated_spectrum(window, 50).eigenvalues
        large = truncated_spectrum(window, 51).eigenvalues
        for k in range(50):
            if not (large[k] <= small[k] + 1e-12 and small[k] <= large[k + 1] + 1e-12):
                interlace_ok = False

    sturm_ok = True
    for _ in range(10):
        diag = [rng.uniform(-2, 2) for _ in range(40)]
        got = truncated_spectrum(explicit_window(diag, n_min=1), 40).eigenvalues
        oracle = sturm_eigenvalues(diag, tol=1e-10)
        if np.max(np.abs(got - np.array(oracle))) > 1e-8:
            sturm_ok = False
    elapsed = time.perf_counter() - t0
    ok = free_ok and interlace_ok and sturm_ok
    report(
        "8 truncated spectra",
        ok,
        f"free-chain max error <= 1e-10: {free_ok}; interlacing 100/100: "
        f"{interlace_ok}; Sturm agreement 1e-8: {sturm_ok}; {elapsed:.2f}s",
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    # the Monte Carlo subcommand writes byte-identical output on every run, in
    # both formats; it has no thread count to set, and the thread count of the
    # library call behind it changes no estimate
    argv = [
        "prp-measure", "--system", "skewshift", "--alpha", "golden",
        "--eps", "0.05", "--qmax", "300", "--samples", "50", "--seed", "42",
    ]
    outputs = {}
    for fmt in ("csv", "json"):
        for run in (1, 2):
            path = tmp_path / f"{fmt}-{run}.out"
            code = cli_main(argv + ["--format", fmt, "--output", str(path)])
            assert code == 0
            outputs[(fmt, run)] = path.read_bytes()
    estimates = [
        estimate_prp_fraction(SkewShift(GOLDEN), 0.05, 1.0, 300, 50, seed=42, threads=threads)
        for threads in (1, 4)
    ]
    ok = (
        outputs[("csv", 1)] == outputs[("csv", 2)]
        and outputs[("json", 1)] == outputs[("json", 2)]
        and outputs[("csv", 1)] != outputs[("json", 1)]
        and estimates[0] == estimates[1]
    )
    report(
        "9 CLI byte determinism",
        ok,
        "reruns give byte-identical CSV and JSON; threads=1 and 4 give one estimate",
    )
