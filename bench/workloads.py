"""The benchmark's two workloads, each made of two parts.

Each part builds its inputs from the seed alone (`inputs`), runs a fixed job
list of public gordonlab calls through a `spans.Pass` (`run_pass`), checks
the outputs against invariants that hold for every seed (`check`), and
derives deterministic work counts from the returned values (`counts`).  A
workload (`Combined`) runs its parts' job lists one after the other.

Why two workloads of two parts: on a shared 2-core host the speed of a fixed
computation drifts by up to 1.5x over seconds to minutes, so a run must measure
for long; two workloads leave the time for that.  They still load different
layers, so that an optimisation of one layer has a workload where it shows
and one where it must cost (almost) nothing.

- repetition = mc-repetition + iet-towers.  `repetition`, `arithmetic` and
  IET `dynamics` do the work; `potentials`, `spectral` and `cli` do none.
  - mc-repetition: Monte Carlo batches split into exhaustive misses (golden)
    and early hits (liouville10), so a change that speeds up full scans but
    slows early exits shows.
  - iet-towers: float-IET dynamics and the Veech tower search, with the
    exact (Fraction) path measured too; the 128-bit torus kernels do nothing.
- pipeline = schrodinger + recipes.  Torus orbit stepping, `potentials`,
  `spectral` and `cli` do the work; `repetition` does little.
  - schrodinger: the paper's pipeline, q -> windows -> gamma(q) ->
    three-block -> spectra.  The eigenvector call is kept small so the
    Python layers dominate.
  - recipes: every recipes/*.json through the CLI in a fresh process; the
    only part that exercises `cli`, and what a CLI user pays end to end.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from summary import summarize

ROOT = Path(__file__).resolve().parent.parent
KNOWN_DEFECT_LAM5 = (
    "lam5-transfer-overflow: three-block norms are non-finite at the supercritical "
    "lam=5 (transfer products overflow; ROADMAP open item 5)"
)


def derived_rng(seed: int, tag: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Finding:
    label: str
    reason: str


class Workload:
    name = ""

    def known_defects(self, inp: dict, out: dict):
        return ()

    def reference_view(self, label: str, output):
        """The part of an output the committed references pin (None: not pinned)."""
        return summarize(output)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# mc-repetition
# ---------------------------------------------------------------------------


class McRepetition(Workload):
    name = "mc-repetition"

    def inputs(self, seed: int) -> dict:
        import gordonlab as g

        batches = [
            # (tag, system, eps, r, q_max, samples, per-layer metric)
            ("golden-skewshift", g.SkewShift(g.GOLDEN), 0.05, 1, 2000, 160,
             "repetition.prp_skewshift_miss_s"),
            ("liouville10-skewshift", g.SkewShift(g.LIOUVILLE10), 0.05, 1, 2000, 200,
             "repetition.prp_skewshift_hit_s"),
            ("golden-skewproduct3", g.SkewProduct(3, g.GOLDEN), 0.2, 1, 200, 40,
             "repetition.prp_skewproduct_s"),
            ("golden-sqrt2-shift", g.Shift((g.GOLDEN, g.SQRT2_MINUS_1)), 0.005, 1, 4000, 20,
             "repetition.prp_shift_s"),
        ]
        rng = derived_rng(seed, "omega1")
        omega1s = [
            g.FixedPointFrac.from_fraction(rng.randrange(1, 10**6), 10**6) for _ in range(6)
        ]
        return {
            "nproc": nproc(),
            "batches": [
                (tag, system, eps, r, q_max, n, derived_rng(seed, tag).getrandbits(31), metric)
                for tag, system, eps, r, q_max, n, metric in batches
            ],
            # golden never has a witness below c = 0.38; liouville10 has one at q = 100
            "classify": [("golden", g.GOLDEN, 0.3, 250_000), ("liouville10", g.LIOUVILLE10, 0.05, 250_000)],
            "omega1s": omega1s,
        }

    def run_pass(self, inp: dict, p) -> None:
        import gordonlab as g

        # threads=1: with 2 threads the GIL hand-offs on a shared 2-core host
        # made wall time drift up to 16% above CPU time; traced runs measure
        # threads=nproc against it (repetition.prp_speedup_2t)
        with p.stage("prp"):
            for tag, system, eps, r, q_max, n, seed, metric in inp["batches"]:
                p.call(f"prp/{tag}", metric, g.estimate_prp_fraction,
                       system, eps, r, q_max, n, seed, threads=1)
        with p.stage("classify"):
            for tag, alpha, c, q_max in inp["classify"]:
                p.call(f"classify/{tag}", "arithmetic.classify_s",
                       g.classify_badly_approximable, alpha, c, q_max, method="scan")
        with p.stage("construct"):
            cf = p.call("cf/liouville10", "arithmetic.cf_expand_s", g.cf_expand, g.LIOUVILLE10, 64)
            system = g.SkewShift(g.LIOUVILLE10)
            for i, omega1 in enumerate(inp["omega1s"]):
                rep = p.call(f"construct/{i}", "repetition.construct_verify_s",
                             g.skewshift_constructive_q, g.LIOUVILLE10, omega1, 0.3, cf,
                             r=1.0, max_base_q=1000)
                cert = getattr(rep, "certificate", None)
                p.call(f"verify/{i}", "repetition.construct_verify_s",
                       g.verify_certificate_against_definition, cert, system)
                p.call(f"obstruction/{i}", "repetition.construct_verify_s",
                       g.badly_approximable_obstruction, g.LIOUVILLE10, 0.3, cert)

    def check(self, inp: dict, out: dict):
        import gordonlab as g

        for tag, system, eps, r, q_max, n, seed, _ in inp["batches"]:
            label = f"prp/{tag}"
            est = out[label]
            lo, hi = est.wilson_ci
            if est.n_samples != n or not 0 <= est.n_hits <= n:
                yield Finding(label, f"counts {est.n_hits}/{est.n_samples} for {n} samples")
            elif est.fraction != est.n_hits / n or not lo <= est.fraction <= hi:
                yield Finding(label, "fraction outside its Wilson interval")
            if tag.startswith("golden-skewshift") and est.n_hits:
                # golden is badly approximable: q <2q alpha> stays above 0.19 > 2 eps
                yield Finding(label, f"{est.n_hits} certificates where none can exist")
            if isinstance(system, g.Shift):
                # for a shift the certificate does not depend on the start point
                q = oracles.shift_first_q(tuple(a.value for a in system.alpha), eps, q_max)
                if est.n_hits != (n if q is not None else 0):
                    yield Finding(label, f"{est.n_hits} hits, the omega-free answer gives q={q}")
            for index in range(2):
                omega = g.sample_start_point(system, seed, index)
                cert = g.find_repetition_time(system, omega, eps, r, q_max)
                if isinstance(cert, g.RepetitionCertificate):
                    yield from _torus_certificate_findings(label, system, cert)

        for tag, alpha, c, q_max in inp["classify"]:
            label = f"classify/{tag}"
            verdict = out[label]
            # golden: q <q alpha> >= 0.38 > c for every q, so there is no witness to scan for
            witness = None if tag == "golden" else oracles.first_witness(alpha.value, c, q_max)
            expected = "BADLY_APPROXIMABLE_UP_TO_BOUND" if witness is None else "NOT_BADLY_APPROXIMABLE_WITNESS"
            if verdict.witness_q != witness or verdict.verdict != expected:
                yield Finding(label, f"{verdict.verdict} at q={verdict.witness_q}, oracle gives {witness}")

        cf = out["cf/liouville10"]
        want = oracles.cf_quotients(g.LIOUVILLE10.value, oracles.SCALE, len(cf.partial_quotients))
        if list(cf.partial_quotients) != want:
            yield Finding("cf/liouville10", "partial quotients differ from Euclid")
        p2, q2, p1, q1 = 1, 0, 0, 1
        for a, (p, q) in zip(cf.partial_quotients, cf.convergents):
            p2, q2, p1, q1 = p1, q1, a * p1 + p2, a * q1 + q2
            if (p, q) != (p1, q1):
                yield Finding("cf/liouville10", f"convergent {(p, q)} breaks the recurrence")
                break

        system = g.SkewShift(g.LIOUVILLE10)
        for i in range(len(inp["omega1s"])):
            rep = out[f"construct/{i}"]
            if not isinstance(rep, g.ConstructiveRepetition):
                yield Finding(f"construct/{i}", f"no construction: {rep!r}")
                continue
            if rep.q != rep.m * rep.base_q:
                yield Finding(f"construct/{i}", "q is not m * base_q")
            yield from _torus_certificate_findings(f"construct/{i}", system, rep.certificate)
            if out[f"verify/{i}"] is not True:
                yield Finding(f"verify/{i}", "constructed certificate fails verification")
            obs = out[f"obstruction/{i}"]
            q = rep.q
            if obs.witness_q not in (q, 2 * q):
                yield Finding(f"obstruction/{i}", f"witness q {obs.witness_q} for q={q}")
            else:
                product = obs.witness_q * oracles.circle_norm(obs.witness_q * g.LIOUVILLE10.value)
                if not math.isclose(obs.witness_product, product / oracles.SCALE, rel_tol=1e-12):
                    yield Finding(f"obstruction/{i}", "witness product differs from q<q alpha>")

    def traced_extras(self, inp: dict, p) -> dict:
        """The golden batch at threads=1 and at nproc; traced runs only."""
        import gordonlab as g

        tag, system, eps, r, q_max, n, seed, _ = inp["batches"][0]
        labels = {}
        with p.stage("thread-speedup"):
            for threads in sorted({1, inp["nproc"]}):
                labels[threads] = f"speedup/{tag}/threads-{threads}"
                p.call(labels[threads], "repetition.prp_speedup", g.estimate_prp_fraction,
                       system, eps, r, q_max, n, seed, threads=threads)
        return {"repetition.prp_speedup_2t": p.wall[labels[1]] / p.wall[labels[inp["nproc"]]]}

    def counts(self, inp: dict, out: dict) -> dict:
        prp = [out[f"prp/{b[0]}"] for b in inp["batches"]]
        samples = sum(e.n_samples for e in prp)
        hits = sum(e.n_hits for e in prp)
        scanned = 0
        for tag, _, _, q_max in inp["classify"]:
            v = out[f"classify/{tag}"]
            scanned += v.witness_q if v.witness_q is not None else q_max
        return {
            "repetition.prp_samples": samples,
            "repetition.prp_hits": hits,
            "repetition.prp_hit_ratio": hits / samples,
            "arithmetic.classify_q_scanned": scanned,
        }


def _torus_certificate_findings(label: str, system, cert):
    """Re-verify a torus certificate by stepping plain integers."""
    import gordonlab as g

    if isinstance(system, g.Shift):
        kind, alpha = "shift", tuple(a.value for a in system.alpha)
    else:
        kind = "skewshift" if isinstance(system, g.SkewShift) else "skewproduct"
        alpha = (system.alpha.value,)
    start = tuple(c.value for c in cert.omega.coords)
    k_max = math.floor(Fraction(cert.r) * cert.q)
    observed = oracles.repetition_max(kind, alpha, start, cert.q, k_max)
    if cert.k_max != k_max:
        yield Finding(label, f"k_max {cert.k_max}, floor(r q) is {k_max}")
    if observed >= oracles.strict_threshold(cert.epsilon):
        yield Finding(label, f"orbit distance {observed / oracles.SCALE:.3g} >= eps {cert.epsilon}")
    if cert.max_dist_raw != observed:
        yield Finding(label, f"max_dist_raw {cert.max_dist_raw} != stepped {observed}")


# ---------------------------------------------------------------------------
# schrodinger
# ---------------------------------------------------------------------------

BOURGAIN_SITES = 40_000
# q <q alpha> is about 1/sqrt(5) for golden, so eps = 5e-4 picks q = 987.  At
# lam=1 every three-block product over [-2, 2] stays finite at that q; at
# lam=5 they all overflow (the known defect).
REPEAT_EPS = 5e-4
PROFILE_Q_TOP = {"golden": 10_000, "liouville10": 11_000}
SPECTRUM_VALUES_SITES = 3000
SPECTRUM_VECTORS_SITES = 500
C_LIST = (1.01, 1.05, 2.0)
U0 = (1.0, 0.0)


class Schrodinger(Workload):
    name = "schrodinger"

    def inputs(self, seed: int) -> dict:
        import gordonlab as g

        rng = derived_rng(seed, "schrodinger")
        raw = [rng.getrandbits(128) for _ in range(4)]
        u1, u5 = rng.random(), rng.random()
        return {
            "omega_golden": g.TorusPoint((g.FixedPointFrac(raw[0]),)),
            "omega_liouville": g.TorusPoint((g.FixedPointFrac(raw[1]),)),
            "bourgain": g.bourgain_start(g.FixedPointFrac(raw[2]), g.FixedPointFrac(raw[3])),
            "energies_lam1": [-2 + 4 * (j + u1) / 300 for j in range(300)],
            "energies_lam5": [-7.5 + 15 * (j + u5) / 20 for j in range(20)],
        }

    def run_pass(self, inp: dict, p) -> None:
        import gordonlab as g

        golden, liouville = g.Shift((g.GOLDEN,)), g.Shift((g.LIOUVILLE10,))
        skew = g.SkewShift(g.GOLDEN)
        cosine = g.Cosine((1,))
        with p.stage("repetition-times"):
            cert_g = p.call("find/golden", "repetition.find_s", g.find_repetition_time,
                            golden, inp["omega_golden"], REPEAT_EPS, 1, 10_000)
            cert_l = p.call("find/liouville10", "repetition.find_s", g.find_repetition_time,
                            liouville, inp["omega_liouville"], 1e-3, 1, 20_000)
            cf_g = p.call("cf/golden", "arithmetic.cf_expand_s", g.cf_expand, g.GOLDEN, 24)
            cf_l = p.call("cf/liouville10", "arithmetic.cf_expand_s", g.cf_expand, g.LIOUVILLE10, 8)
            den_g = p.call("denominators/golden", "arithmetic.cf_expand_s", g.convergent_denominators, cf_g)
            den_l = p.call("denominators/liouville10", "arithmetic.cf_expand_s",
                           g.convergent_denominators, cf_l)
        q = getattr(cert_g, "q", 987)
        q_l = getattr(cert_l, "q", 100)
        with p.stage("windows"):
            p.call("orbit/bourgain", "dynamics.orbit_s", g.orbit,
                   skew, inp["bourgain"], 0, BOURGAIN_SITES - 1)
            win_b = p.call("sample/bourgain", "potentials.sample_potential_s", g.sample_potential,
                           skew, g.BourgainQuadratic(), 1.0, inp["bourgain"], 0, BOURGAIN_SITES - 1)
            win_1 = p.call("sample/golden-lam1", "potentials.sample_potential_s", g.sample_potential,
                           golden, cosine, 1.0, inp["omega_golden"], 1 - q, 2 * q)
            win_5 = p.call("sample/golden-lam5", "potentials.sample_potential_s", g.sample_potential,
                           golden, cosine, 5.0, inp["omega_golden"], 1 - q, 2 * q)
            p.call("sample/liouville10", "potentials.sample_potential_s", g.sample_potential,
                   liouville, cosine, 1.0, inp["omega_liouville"], 1 - q_l, 2 * q_l)
        with p.stage("profiles"):
            p.call("profile/golden", "potentials.gordon_profile_s", g.gordon_profile,
                   golden, cosine, 1.0, inp["omega_golden"],
                   [d for d in den_g or () if d <= PROFILE_Q_TOP["golden"]], C_LIST)
            p.call("profile/liouville10", "potentials.gordon_profile_s", g.gordon_profile,
                   liouville, cosine, 1.0, inp["omega_liouville"],
                   [d for d in den_l or () if d <= PROFILE_Q_TOP["liouville10"]], C_LIST)
        with p.stage("three-block"):
            for j, energy in enumerate(inp["energies_lam1"]):
                p.call(f"three-block/lam1/{j}", "spectral.three_block_s",
                       g.gordon_three_block_check, win_1, energy, q, U0)
            for j, energy in enumerate(inp["energies_lam5"]):
                p.call(f"three-block/lam5/{j}", "spectral.three_block_s",
                       g.gordon_three_block_check, win_5, energy, q, U0)
        with p.stage("spectra"):
            p.call("spectrum/values", "spectral.spectrum_values_s", g.truncated_spectrum,
                   win_b, SPECTRUM_VALUES_SITES, False)
            report = p.call("spectrum/vectors", "spectral.spectrum_vectors_s", g.truncated_spectrum,
                            win_5, SPECTRUM_VECTORS_SITES, True)
            p.call("localization", "spectral.spectrum_vectors_s", g.localization_diagnostics, report)

    def check(self, inp: dict, out: dict):
        import gordonlab as g

        golden, liouville = (g.GOLDEN.value,), (g.LIOUVILLE10.value,)
        for label, alpha, eps, q_max in (("find/golden", golden, REPEAT_EPS, 10_000),
                                         ("find/liouville10", liouville, 1e-3, 20_000)):
            cert = out[label]
            want = oracles.shift_first_q(alpha, eps, q_max)
            if getattr(cert, "q", None) != want:
                yield Finding(label, f"q {getattr(cert, 'q', None)}, oracle gives {want}")
            else:
                system = g.Shift((g.GOLDEN,)) if alpha == golden else g.Shift((g.LIOUVILLE10,))
                yield from _torus_certificate_findings(label, system, cert)
        for tag, alpha in (("golden", g.GOLDEN), ("liouville10", g.LIOUVILLE10)):
            cf = out[f"cf/{tag}"]
            want = oracles.cf_quotients(alpha.value, oracles.SCALE, len(cf.partial_quotients))
            if list(cf.partial_quotients) != want:
                yield Finding(f"cf/{tag}", "partial quotients differ from Euclid")
            if out[f"denominators/{tag}"] != [q for _, q in cf.convergents]:
                yield Finding(f"denominators/{tag}", "denominators differ from the convergents")

        q, q_l = out["find/golden"].q, out["find/liouville10"].q
        b2, b1 = (c.value for c in inp["bourgain"].coords)
        points = oracles.torus_orbit("skewshift", (g.GOLDEN.value,), (b2, b1), BOURGAIN_SITES - 1)
        orbit = out["orbit/bourgain"]
        if [tuple(c.value for c in pt.coords) for pt in orbit] != points:
            yield Finding("orbit/bourgain", "orbit differs from integer stepping")
        bourgain = np.array([oracles.cos_turns(w2) for _, w2 in points])
        yield from _window_findings("sample/bourgain", out["sample/bourgain"], bourgain, 1.0)

        w_g = inp["omega_golden"].coords[0].value
        w_l = inp["omega_liouville"].coords[0].value
        for label, w, alpha, lam, lo, hi in (
            ("sample/golden-lam1", w_g, g.GOLDEN.value, 1.0, 1 - q, 2 * q),
            ("sample/golden-lam5", w_g, g.GOLDEN.value, 5.0, 1 - q, 2 * q),
            ("sample/liouville10", w_l, g.LIOUVILLE10.value, 1.0, 1 - q_l, 2 * q_l),
        ):
            base = np.array([oracles.cos_turns(w + n * alpha) for n in range(lo, hi + 1)])
            yield from _window_findings(label, out[label], lam * base, lam)

        for tag, w, alpha in (("golden", w_g, g.GOLDEN.value), ("liouville10", w_l, g.LIOUVILLE10.value)):
            label = f"profile/{tag}"
            prof = out[label]
            qs = [qq for qq, _ in prof.entries]
            top = qs[-1]
            base = np.array([oracles.cos_turns(w + n * alpha) for n in range(1 - top, 2 * top + 1)])
            for qq, gamma in prof.entries:
                mid = base[top : top + qq]
                brute = max(np.max(np.abs(mid - base[top + qq : top + 2 * qq])),
                            np.max(np.abs(mid - base[top - qq : top])))
                if not abs(gamma - brute) <= 1e-12:
                    yield Finding(label, f"gamma({qq}) = {gamma}, brute force gives {brute}")
                    break
            if qs != [d for d in out[f"denominators/{tag}"] if d <= PROFILE_Q_TOP[tag]]:
                yield Finding(label, "profile q list is not the convergent denominators")

        for j in range(len(inp["energies_lam1"])):
            yield from _three_block_findings(f"three-block/lam1/{j}", out, out["sample/golden-lam1"], q)
        for j in range(len(inp["energies_lam5"])):
            yield from _three_block_findings(f"three-block/lam5/{j}", out, out["sample/golden-lam5"], q)

        yield from _spectrum_findings("spectrum/values", out["spectrum/values"],
                                      out["sample/bourgain"].values[:SPECTRUM_VALUES_SITES])
        report = out["spectrum/vectors"]
        yield from _spectrum_findings("spectrum/vectors", report,
                                      out["sample/golden-lam5"].values[:SPECTRUM_VECTORS_SITES])
        if not (np.all((report.ipr > 0) & (report.ipr <= 1 + 1e-12))
                and np.all((report.edge_mass >= 0) & (report.edge_mass <= 1 + 1e-12))):
            yield Finding("spectrum/vectors", "ipr or edge mass outside [0, 1]")
        loc = out["localization"]
        if (loc.median_ipr != float(np.median(report.ipr))
                or loc.max_edge_mass != float(np.max(report.edge_mass))):
            yield Finding("localization", "statistics differ from the report they summarise")

    def reference_view(self, label: str, output):
        if label.startswith("three-block/lam5/"):
            return None  # the known defect: a fix must not read as a reference mismatch
        if label.startswith("three-block/lam1/") and int(label.rpartition("/")[2]) % 30:
            return None  # every thirtieth energy keeps the reference file small
        return summarize(output)

    def known_defects(self, inp: dict, out: dict):
        for j in range(len(inp["energies_lam5"])):
            label = f"three-block/lam5/{j}"
            rep = out[label]
            if rep is not None and not all(_finite(x) for x in _three_block_floats(rep)):
                yield Finding(label, KNOWN_DEFECT_LAM5)

    def counts(self, inp: dict, out: dict) -> dict:
        q = out["find/golden"].q
        sampled = sum(
            out[label].n_max - out[label].n_min + 1
            for label in out if label.startswith("sample/")
        )
        nonfinite = sum(
            not all(_finite(x) for x in _three_block_floats(out[label]))
            for label in out if label.startswith("three-block/")
        )
        return {
            "dynamics.orbit_sites": len(out["orbit/bourgain"]),
            "potentials.sites": sampled,
            "spectral.transfer_factors": q * (len(inp["energies_lam1"]) + len(inp["energies_lam5"])),
            "spectral.nonfinite_reports": nonfinite,
            "spectral.eigenpairs": out["spectrum/values"].size + out["spectrum/vectors"].size,
        }


def _three_block_floats(rep) -> tuple:
    return (rep.norm_plus, rep.norm_plus2, rep.norm_minus, rep.min_ratio, rep.gamma, rep.det_drift)


def _window_findings(label: str, window, expected: np.ndarray, lam: float):
    values = window.values
    if values.shape != expected.shape:
        yield Finding(label, f"{values.size} sites, expected {expected.size}")
    elif not np.all(np.abs(values - expected) <= 1e-12 * max(1.0, abs(lam))):
        worst = float(np.max(np.abs(values - expected)))
        yield Finding(label, f"potential differs from integer-stepped samples by {worst:.3g}")


def _three_block_findings(label: str, out: dict, window, q: int):
    import gordonlab as g

    rep = out[label]
    if not all(_finite(x) for x in _three_block_floats(rep)):
        if not label.startswith("three-block/lam5/"):
            yield Finding(label, "non-finite three-block report")
        return  # lam=5 overflow is the known defect, reported on its own
    if rep.q != q or rep.norm_u0 != 1.0:
        yield Finding(label, f"report for q={rep.q}, |u0|={rep.norm_u0}")
    if not rep.min_ratio > 0:
        yield Finding(label, f"min_ratio {rep.min_ratio}")
    block = g.transfer_block(window, rep.energy, 1, q)
    if max(abs(x) for row in block.entries for x in row) <= 1e2 and rep.det_drift > 1e-10:
        yield Finding(label, f"determinant drift {rep.det_drift:.3g} on a bounded product")


def _spectrum_findings(label: str, report, diag: np.ndarray):
    eig = report.eigenvalues
    n = len(diag)
    if report.size != n or eig.shape != (n,):
        yield Finding(label, f"{eig.shape} eigenvalues for {n} sites")
        return
    if not (np.all(np.isfinite(eig)) and np.all(np.diff(eig) >= 0)):
        yield Finding(label, "eigenvalues not finite and ascending")
        return
    if eig[0] < diag.min() - 2 - 1e-9 or eig[-1] > diag.max() + 2 + 1e-9:
        yield Finding(label, "eigenvalues outside the Gershgorin interval")
    if abs(eig.sum() - diag.sum()) > 1e-8 * n:
        yield Finding(label, "eigenvalue sum differs from the trace")
    gaps = np.diff(eig)
    for k in np.linspace(0, n - 2, 5).astype(int):
        k = int(np.argmax(gaps[k : k + 5])) + k  # a clear gap near k
        if k < n - 1 and oracles.sturm_count(diag, (eig[k] + eig[k + 1]) / 2) != k + 1:
            yield Finding(label, f"Sturm count disagrees between eigenvalues {k} and {k + 1}")
            return


# ---------------------------------------------------------------------------
# iet-towers
# ---------------------------------------------------------------------------

GOLDEN_IET_QMAX = 400
RANDOM_IETS = 48
RANDOM_QMAX = 42
EXACT_QMAX = 60
REFINE_Q = 300
TOWER_EPS = 0.3
# roots of x^(d+1) = x + 1: the generalised golden ratios of the R_d lattice
_R_D = {2: 1.32471795724474602596, 3: 1.22074408460575947536}


def lattice_lengths(m: int, count: int, seed: int) -> list[tuple]:
    """count length vectors on the simplex from a seeded, shifted R_d lattice.

    A randomly shifted low-discrepancy lattice covers the simplex evenly for
    every seed, so the job list's total work changes little from seed to seed
    while its individual inputs do.
    """
    d = m - 1
    step = [1 / _R_D[d] ** (k + 1) for k in range(d)]
    rng = derived_rng(seed, f"lattice{m}")
    shift = [rng.random() for _ in range(d)]
    floor = 0.05
    out = []
    for i in range(1, count + 1):
        cuts = sorted((s + i * a) % 1.0 for s, a in zip(shift, step))
        spacings = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        out.append(tuple((x + floor) / (1 + m * floor) for x in spacings))
    return out


class IetTowers(Workload):
    name = "iet-towers"

    def inputs(self, seed: int) -> dict:
        import gordonlab as g

        phi = (math.sqrt(5) - 1) / 2
        # the exact 2-IET rotates by a rational within 1e-5 of phi: like the
        # golden one it has no tower below q_max, so every seed scans it all
        a = 381_966 + derived_rng(seed, "exact").randint(-9, 9)
        exact = (Fraction(a, 10**6), Fraction(10**6 - a, 10**6))
        return {
            "golden": g.Iet((phi, 1 - phi), g.Permutation((2, 1))),
            "random": [
                (f"{''.join(map(str, perm))}/{i}", g.Iet(lengths, g.Permutation(perm)))
                for perm in ((3, 1, 2), (4, 3, 2, 1))
                for i, lengths in enumerate(lattice_lengths(len(perm), RANDOM_IETS, seed))
            ],
            "exact": g.Iet(exact, g.Permutation((2, 1))),
            "refine": [
                (f"{''.join(map(str, perm))}",
                 g.Iet(lattice_lengths(len(perm), 1, seed + 1)[0], g.Permutation(perm)))
                for perm in ((3, 1, 2), (4, 3, 2, 1))
            ],
        }

    def run_pass(self, inp: dict, p) -> None:
        import gordonlab as g

        with p.stage("golden"):
            p.call("veech/golden", "repetition.veech_golden_s", g.veech_tower_search,
                   inp["golden"], TOWER_EPS, GOLDEN_IET_QMAX)
        with p.stage("random"):
            for tag, iet in inp["random"]:
                p.call(f"veech/random/{tag}", "repetition.veech_random_s", g.veech_tower_search,
                       iet, TOWER_EPS, RANDOM_QMAX)
        with p.stage("exact"):
            p.call("veech/exact", "repetition.veech_exact_s", g.veech_tower_search,
                   inp["exact"], TOWER_EPS, EXACT_QMAX)
        with p.stage("refine"):
            for tag, iet in inp["refine"]:
                p.call(f"refine/{tag}", "dynamics.iet_refine_s", g.iet_refine_continuity, iet, REFINE_Q)

    def reference_view(self, label: str, output):
        if label.startswith("veech/random/") and int(label.rpartition("/")[2]) % 4:
            return None  # every fourth random IET keeps the reference file small
        return summarize(output)

    def searches(self, inp: dict) -> list[tuple]:
        return ([("veech/golden", inp["golden"], GOLDEN_IET_QMAX)]
                + [(f"veech/random/{t}", iet, RANDOM_QMAX) for t, iet in inp["random"]]
                + [("veech/exact", inp["exact"], EXACT_QMAX)])

    def check(self, inp: dict, out: dict):
        import gordonlab as g

        for label, iet, q_max in self.searches(inp):
            tower = out[label]
            if isinstance(tower, g.TowerNotFound):
                if not (tower.best_coverage <= 1 and tower.best_overlap_fraction <= 1):
                    yield Finding(label, "partial tower scores above 1")
                continue
            if label == "veech/golden":
                # q <q beta> >= 0.38 for golden, so no tower of quality 0.3 exists
                yield Finding(label, f"a golden tower at q={tower.q}, which cannot exist")
                continue
            yield from _tower_findings(label, iet, tower, q_max)
        for tag, iet in inp["refine"]:
            label = f"refine/{tag}"
            pieces = out[label]
            m = len(iet.lengths)
            if not 1 <= len(pieces) <= REFINE_Q * (m - 1) + 1:
                yield Finding(label, f"{len(pieces)} pieces for q={REFINE_Q}")
                continue
            total = float(sum(iet.lengths))
            edges_ok = pieces[0].lo == 0 and abs(pieces[-1].hi - total) <= 1e-12 and all(
                a.hi == b.lo for a, b in zip(pieces, pieces[1:])
            )
            if not edges_ok:
                yield Finding(label, "pieces do not tile the interval")
                continue
            step = oracles.iet_stepper(iet.lengths, iet.perm.images)
            for piece in pieces[:: max(1, len(pieces) // 64)]:
                x = mid = (piece.lo + piece.hi) / 2
                for _ in range(REFINE_Q):
                    x = step(x)
                if abs((x - mid) - piece.translation) > 1e-9:
                    yield Finding(label, f"translation {piece.translation} on [{piece.lo}, {piece.hi})")
                    break

    def counts(self, inp: dict, out: dict) -> dict:
        import gordonlab as g

        found = scanned = 0
        searches = self.searches(inp)
        for label, _, q_max in searches:
            tower = out[label]
            if isinstance(tower, g.VeechTower):
                found += 1
                scanned += tower.q
            else:
                scanned += q_max
        return {
            "repetition.veech_q_scanned": scanned,
            "repetition.towers_found_ratio": found / len(searches),
            "dynamics.iet_refine_pieces": sum(len(out[f"refine/{t}"]) for t, _ in inp["refine"]),
        }


def _tower_findings(label: str, iet, tower, q_max: int):
    """A found tower: floors disjoint, coverage and return overlap as claimed."""
    eps = TOWER_EPS
    lengths = [float(x) for x in iet.lengths]
    total = sum(lengths)
    lo, hi = (float(x) for x in tower.interval)
    width = hi - lo
    if not 1 <= tower.q <= q_max:
        yield Finding(label, f"q={tower.q} outside 1..{q_max}")
        return
    if not (tower.coverage > 1 - eps and tower.return_overlap > (1 - eps) * width * (1 - 1e-9)):
        yield Finding(label, "tower does not meet its quality bounds")
    if abs(tower.coverage - tower.q * width / total) > 1e-9:
        yield Finding(label, "coverage is not q |J| / total")
    x = mid = (lo + hi) / 2
    tol = 1e-9 * max(1.0, total)
    step = oracles.iet_stepper(lengths, iet.perm.images)
    for level in range(1, tower.q):
        x = step(x)
        if abs(x - mid) < width - tol:
            yield Finding(label, f"floor {level} overlaps the base")
            return
    x = step(x)
    if abs(max(width - abs(x - mid), 0.0) - float(tower.return_overlap)) > tol:
        yield Finding(label, "return overlap differs from stepping the midpoint")


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

# Header fields that carry a verdict; compared wherever the header has them, so
# moving them from the '# config:' echo to a '# result:' line changes nothing.
VERDICT_FIELDS = ("exhausted_at", "verdict", "c_max", "reason", "median_ipr", "max_edge_mass")
_REPLAY = "import sys; from gordonlab.cli import main; sys.exit(main(['run', sys.argv[1]]))"
RECIPE_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first, no thread override."""
    env = {k: v for k, v in os.environ.items() if k != "GORDONLAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def replay_recipe(path: str) -> dict:
    """`gordonlab run <path>` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY, path],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=RECIPE_TIMEOUT_S,
    )
    return {"returncode": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


replay_recipe.span_name = "cli.main"


def recipe_view(result: dict) -> dict:
    """What the recipe references pin: exit code, non-# lines, verdict fields."""
    lines, fields = [], {}
    for line in result["stdout"].splitlines():
        if not line.startswith("#"):
            lines.append(line)
            continue
        key, _, rest = line[1:].partition(":")
        if key.strip() in ("config", "result"):
            try:
                header = json.loads(rest)
            except json.JSONDecodeError:
                continue
            fields.update({k: header[k] for k in VERDICT_FIELDS if k in header})
    for key, value in fields.items():
        if isinstance(value, str):
            try:
                fields[key] = float(value)  # floats are echoed as repr strings
            except ValueError:
                pass
    return {"returncode": result["returncode"], "lines": lines, "fields": fields}


class Recipes(Workload):
    name = "recipes"

    def inputs(self, seed: int) -> dict:
        paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "recipes").glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no recipes under {ROOT / 'recipes'}")
        for path in paths:
            json.loads((ROOT / path).read_text())  # a malformed recipe fails set-up
        derived_rng(seed, "recipes").shuffle(paths)  # the seed sets the replay order only
        return {"paths": paths}

    def run_pass(self, inp: dict, p) -> None:
        with p.stage("replay"):
            for path in inp["paths"]:
                stem = Path(path).stem
                p.call(f"recipe/{stem}", f"cli.recipe.{stem}_s", replay_recipe, path)

    def check(self, inp: dict, out: dict):
        for path in inp["paths"]:
            label = f"recipe/{Path(path).stem}"
            result = out[label]
            if result["returncode"] != 0:
                yield Finding(label, f"exit {result['returncode']}: {result['stderr'].strip()[-200:]}")
                continue
            rows = [ln for ln in result["stdout"].splitlines() if not ln.startswith("#")]
            if len(rows) < 2:
                yield Finding(label, "no rows under the header")
            for row in rows:
                cells = {c.strip().lower() for c in row.split(",")}
                if cells & {"nan", "inf", "-inf"}:
                    yield Finding(label, f"non-finite value printed with exit 0: {row}")
                    break

    def reference_view(self, label: str, output):
        return recipe_view(output)

    def counts(self, inp: dict, out: dict) -> dict:
        return {"cli.output_bytes": sum(len(out[f"recipe/{Path(p).stem}"]["stdout"].encode())
                                        for p in inp["paths"])}


# ---------------------------------------------------------------------------
# the benchmark's workloads: pairs of parts run as one job list
# ---------------------------------------------------------------------------


class Combined(Workload):
    """Several parts' job lists run one after the other as one workload.

    Each part keeps its own inputs, checks, counts and committed references
    (bench/references/<part>.json); labels must not collide between parts.
    """

    def __init__(self, name: str, parts: tuple):
        self.name = name
        self.parts = parts
        self._owner: dict[str, Workload] = {}

    def inputs(self, seed: int) -> dict:
        return {part.name: part.inputs(seed) for part in self.parts}

    def run_pass(self, inp: dict, p) -> None:
        for part in self.parts:
            before = set(p.outputs)
            part.run_pass(inp[part.name], p)
            self._owner.update(dict.fromkeys(set(p.outputs) - before, part))

    def check(self, inp: dict, out: dict):
        for part in self.parts:
            yield from part.check(inp[part.name], out)

    def known_defects(self, inp: dict, out: dict):
        for part in self.parts:
            yield from part.known_defects(inp[part.name], out)

    def reference_view(self, label: str, output):
        return self._owner[label].reference_view(label, output)

    def traced_extras(self, inp: dict, p) -> dict:
        extras = {}
        for part in self.parts:
            if hasattr(part, "traced_extras"):
                extras.update(part.traced_extras(inp[part.name], p))
        return extras

    def counts(self, inp: dict, out: dict) -> dict:
        counts = {}
        for part in self.parts:
            counts.update(part.counts(inp[part.name], out))
        return counts


PARTS = {w.name: w for w in (McRepetition(), Schrodinger(), IetTowers(), Recipes())}
WORKLOADS = {w.name: w for w in (
    Combined("repetition", (PARTS["mc-repetition"], PARTS["iet-towers"])),
    Combined("pipeline", (PARTS["schrodinger"], PARTS["recipes"])),
)}
