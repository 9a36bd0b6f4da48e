import csv
import json
import math
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from gordonlab.arithmetic import GOLDEN, ZERO, FixedPointFrac
from gordonlab.cli import build_function, build_omega, build_parser, build_system, main
from gordonlab import spectral
from gordonlab.dynamics import Shift, SkewShift, TorusPoint
from gordonlab.potentials import (
    BourgainQuadratic,
    Cosine,
    PotentialWindow,
    WindowTooSmallError,
    bourgain_start,
    explicit_window,
    gordon_gamma,
    sample_potential,
)
from gordonlab.spectral import (
    ConvergenceFailureError,
    MissingVectorsError,
    _transfer,
    ThreeBlockReport,
    gordon_three_block_check,
    localization_diagnostics,
    transfer_block,
    truncated_spectrum,
)

from oracles import sturm_eigenvalues


def zero_window(n_lo, n_hi):
    return explicit_window([0.0] * (n_hi - n_lo + 1), n_min=n_lo)


class TestTransferBlock:
    def test_single_step_at_zero_energy_is_the_rotation_matrix(self):
        block = transfer_block(zero_window(1, 1), 0.0, 1, 1)
        assert block.entries == ((0.0, -1.0), (1.0, 0.0))
        assert block.det() == 1.0

    def test_rotation_matrix_has_period_four(self):
        window = zero_window(1, 8)
        assert transfer_block(window, 0.0, 1, 4).entries == ((1.0, 0.0), (0.0, 1.0))
        assert transfer_block(window, 0.0, 1, 8).entries == ((1.0, 0.0), (0.0, 1.0))

    def test_long_zero_product_has_exactly_unit_determinant(self):
        block = transfer_block(zero_window(1, 1000), 0.0, 1, 1000)
        assert block.entries == ((1.0, 0.0), (0.0, 1.0))
        assert block.det() == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_energy_is_rejected_by_name(self, bad):
        # a nan energy gave nan entries; gordon_three_block_check rejects it
        with pytest.raises(ValueError, match="energy must be finite"):
            transfer_block(zero_window(1, 4), bad, 1, 4)

    def test_single_step_entries(self):
        window = explicit_window([0.7], n_min=3)
        block = transfer_block(window, 2.2, 3, 3)
        t = 2.2 - 0.7
        assert block.entries == ((t, -1.0), (1.0, 0.0))
        assert (block.n_lo, block.n_hi, block.energy) == (3, 3, 2.2)

    def test_cocycle_property_exact_on_integer_data(self):
        rng = random.Random(9)
        for _ in range(15):
            vals = [float(rng.randint(-2, 2)) for _ in range(12)]
            window = explicit_window(vals, n_min=0)
            energy = float(rng.randint(-3, 3))
            a, b, c = 0, rng.randint(1, 10), 11
            whole = transfer_block(window, energy, a, c)
            left = transfer_block(window, energy, a, b)
            right = transfer_block(window, energy, b + 1, c)
            (p, q_), (r, s) = right.entries
            (e, f), (g, h) = left.entries
            composed = (
                (p * e + q_ * g, p * f + q_ * h),
                (r * e + s * g, r * f + s * h),
            )
            assert whole.entries == composed  # integer float ops: exact

    def test_cocycle_property_approx_on_float_data(self):
        window = sample_potential(
            Shift((GOLDEN,)), Cosine((1,)), 0.9, TorusPoint((ZERO,)), 0, 40
        )
        whole = np.array(transfer_block(window, 0.35, 0, 40).entries)
        left = np.array(transfer_block(window, 0.35, 0, 17).entries)
        right = np.array(transfer_block(window, 0.35, 18, 40).entries)
        np.testing.assert_allclose(right @ left, whole, rtol=1e-10, atol=1e-12)

    def test_block_reproduces_the_difference_equation(self):
        rng = random.Random(4)
        vals = [rng.uniform(-2, 2) for _ in range(30)]
        window = explicit_window(vals, n_min=0)
        energy = 0.83
        psi_prev, psi = 0.4, -1.1  # (u(-1), u(0))
        seq = {-1: psi_prev, 0: psi}
        for n in range(0, 30):
            seq[n + 1] = (energy - vals[n]) * seq[n] - seq[n - 1]
        out = np.array(transfer_block(window, energy, 0, 29).entries) @ [seq[0], seq[-1]]
        assert out[0] == pytest.approx(seq[30], rel=1e-11)
        assert out[1] == pytest.approx(seq[29], rel=1e-11)

    def test_bounds_are_validated(self):
        window = explicit_window([0.0] * 5, n_min=0)
        with pytest.raises(ValueError):
            transfer_block(window, 0.0, 3, 2)
        with pytest.raises(WindowTooSmallError):
            transfer_block(window, 0.0, 0, 5)
        with pytest.raises(WindowTooSmallError):
            transfer_block(window, 0.0, -1, 3)


def four_tuple_transfer(values, energy):
    """The transfer product as one 4-tuple assignment per factor."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for v in values:
        t = energy - v
        a, b, c, d = t * a - c, t * b - d, a, b
    return (a, b), (c, d)


def entry_bits(entries):
    return [struct.pack("<d", x) for row in entries for x in row]


class TestTransferKernel:
    """``_transfer`` against the 4-tuple loop, compared as IEEE bit patterns."""

    def test_random_values_and_energies(self):
        rng = random.Random(2303)
        for _ in range(300):
            values = [rng.uniform(-6, 6) for _ in range(rng.randint(0, 60))]
            energy = rng.choice([0.0, -0.0, rng.uniform(-8, 8), float(rng.randint(-3, 3))])
            assert entry_bits(_transfer(values, energy)) == entry_bits(
                four_tuple_transfer(values, energy))

    def test_products_that_overflow_at_coupling_five(self):
        rng = random.Random(2304)
        kinds = set()
        for _ in range(20):
            omega = TorusPoint((FixedPointFrac(rng.getrandbits(128)),))
            window = sample_potential(Shift((GOLDEN,)), Cosine((1,)), 5.0, omega, 1, 2500)
            for n in (1, 2, 3, 400, 1000, 2500):
                values = window.values[:n].tolist()
                for energy in (rng.uniform(-7, 7), 0.0, 9.5, -1e300, 1e300):
                    got = _transfer(values, energy)
                    assert entry_bits(got) == entry_bits(four_tuple_transfer(values, energy))
                    entries = got[0] + got[1]
                    kinds.add("nan" if any(map(math.isnan, entries))
                              else "inf" if any(map(math.isinf, entries)) else "finite")
        assert kinds == {"finite", "inf", "nan"}


class TestThreeBlock:
    def periodic_window(self, pattern, q):
        reps = (3 * q) // len(pattern) + 2
        vals = (list(pattern) * reps)[: 3 * q]
        return explicit_window(vals, n_min=1 - q)

    def test_periodic_blocks_obey_the_half_norm_bound(self):
        rng = random.Random(12)
        for _ in range(200):
            q = rng.randint(1, 12)
            pattern = [rng.uniform(-3, 3) for _ in range(q)]
            window = self.periodic_window(pattern, q)
            energy = rng.uniform(-5, 5)
            theta = rng.uniform(0, 2 * math.pi)
            u0 = (math.cos(theta), math.sin(theta))
            report = gordon_three_block_check(window, energy, q, u0)
            assert report.gamma == 0.0
            assert report.min_ratio >= 0.5 - 1e-12

    def test_the_reported_gamma_is_the_window_gamma_at_every_energy(self):
        window = sample_potential(Shift((GOLDEN,)), Cosine((1,)), 2.0, TorusPoint((ZERO,)), -12, 26)
        for energy in (-3.0, -0.4, 0.0, 1.7, 3.9):
            for q in (5, 13):
                report = gordon_three_block_check(window, energy, q, (1.0, 0.5))
                assert repr(report.gamma) == repr(gordon_gamma(window, q))

    def test_report_fields_are_consistent(self):
        window = self.periodic_window([0.4, -0.9, 1.3], 3)
        report = gordon_three_block_check(window, 0.7, 3, (1.0, 0.0))
        assert isinstance(report, ThreeBlockReport)
        assert report.q == 3
        assert report.energy == 0.7
        assert report.norm_u0 == 1.0
        assert report.min_ratio == max(
            report.norm_plus, report.norm_plus2, report.norm_minus
        )
        block = transfer_block(window, 0.7, 1, 3)
        assert report.norm_plus == pytest.approx(
            float(np.linalg.norm(np.array(block.entries) @ [1.0, 0.0])), rel=1e-14
        )
        assert report.det_drift == abs(block.det() - 1.0)

    def test_gamma_matches_the_defect_of_the_window(self):
        window = sample_potential(
            Shift((GOLDEN,)), Cosine((1,)), 1.0, TorusPoint((ZERO,)), -7, 16
        )
        report = gordon_three_block_check(window, 0.1, 8, (0.6, 0.8))
        assert report.gamma == gordon_gamma(window, 8)
        assert report.gamma == 0.34703002961845153

    def test_adjugate_is_the_true_inverse_up_to_drift(self):
        window = sample_potential(
            Shift((GOLDEN,)), Cosine((1,)), 1.0, TorusPoint((ZERO,)), -7, 16
        )
        block = transfer_block(window, 0.1, 1, 8)
        a = np.array(block.entries)
        adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        np.testing.assert_allclose(a @ adj, block.det() * np.eye(2), atol=1e-12)

    def test_validation(self):
        window = self.periodic_window([0.0], 1)
        with pytest.raises(ValueError):
            gordon_three_block_check(window, 0.0, 1, (0.0, 0.0))
        with pytest.raises(ValueError):
            gordon_three_block_check(window, 0.0, 0, (1.0, 0.0))
        small = explicit_window([0.0, 0.0], n_min=1)
        with pytest.raises(WindowTooSmallError):
            gordon_three_block_check(small, 0.0, 1, (1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_energy_or_start_vector_is_rejected_by_name(self, bad):
        # each gave a report of nan norms, ratio and drift
        window = self.periodic_window([0.4, -0.9, 1.3], 3)
        with pytest.raises(ValueError, match="energy must be finite"):
            gordon_three_block_check(window, bad, 3, (1.0, 0.0))
        for u0 in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ValueError, match="u0 must be finite"):
                gordon_three_block_check(window, 0.7, 3, u0)

    def test_det_drift_small_for_bounded_products(self):
        # rounding drift scales with the matrix norm; products that stay
        # representable (norm <= 1e3) keep drift near machine precision even
        # after hundreds of factors
        rng = random.Random(5)
        checked = 0
        for _ in range(40):
            vals = [rng.uniform(-0.5, 0.5) for _ in range(200)]
            window = explicit_window(vals, n_min=0)
            energy = rng.uniform(-1.5, 1.5)
            block = transfer_block(window, energy, 0, 199)
            if np.max(np.abs(block.entries)) <= 1e3:
                checked += 1
                assert abs(block.det() - 1.0) <= 1e-10
        assert checked >= 3


TRANSFER_SYSTEMS = [
    ["--system", "shift", "--alpha", "golden"],
    ["--system", "shift", "--alpha", "liouville10", "--function", "coding",
     "--breakpoints", "0.1,0.5", "--levels", "2,-1"],
    ["--system", "skewshift", "--alpha", "sqrt2", "--function", "bourgain", "--omega", "0.3,0.8"],
    ["--system", "iet", "--lengths", "0.2,0.5,0.3", "--perm", "3,1,2", "--function", "coding",
     "--breakpoints", "0.25,0.6", "--levels", "1,-0.5", "--omega", "0.123"],
]
TRANSFER_COLUMNS = ["q", "energy", "norm_plus", "norm_plus2", "norm_minus", "min_ratio",
                    "gamma", "det_drift"]


def transfer_argv(rng, lam, q):
    u0 = f"{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r}"
    return ["transfer", *rng.choice(TRANSFER_SYSTEMS), f"--lambda={lam!r}", "--q", str(q),
            f"--energy={rng.uniform(-4, 4)!r}", f"--u0={u0}"]


def api_report(args):
    """The three-block report of a sampled PotentialWindow for parsed transfer args."""
    system = build_system(args)
    window = sample_potential(system, build_function(args), args.lam, build_omega(args, system),
                              1 - args.q, 2 * args.q)
    u0 = [float(x) for x in args.u0.split(",")]
    return gordon_three_block_check(window, args.energy, args.q, u0)


class TestTransferSubcommand:
    """``transfer`` runs the kernels on plain samples, never on a window, and
    reports the bits of gordon_three_block_check on a sampled window."""

    def test_rows_are_the_window_report_field_by_field(self):
        rng = random.Random(19)
        nonfinite = 0
        for lam in (0.0, -1.75, 1.0, 5.0):
            for _ in range(12):
                q = rng.choice([1, 2, 5, 13, 89, 377, 987]) if lam != 5.0 else rng.randint(800, 1000)
                args = build_parser().parse_args(transfer_argv(rng, lam, q))
                columns, rows, computed = args.handler(args)
                report = api_report(args)
                assert columns == TRANSFER_COLUMNS and computed == {}
                assert [repr(x) for x in rows[0]] == [repr(getattr(report, c)) for c in columns]
                nonfinite += not all(map(math.isfinite, rows[0][1:]))
        assert nonfinite >= 10  # lam=5 at q >= 800 overflows (ROADMAP item 5)

    def test_end_to_end_run_prints_the_window_report(self, capsys):
        argv = transfer_argv(random.Random(7), -1.75, 34)
        assert main(argv) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines() if not line.startswith("#")]
        header, row = list(csv.reader(body))
        report = api_report(build_parser().parse_args(argv))
        assert header == TRANSFER_COLUMNS
        assert row == [repr(getattr(report, c)) for c in header]


class TestTruncatedSpectrum:
    def test_free_chain_eigenvalues_are_the_cosines(self):
        report = truncated_spectrum(zero_window(1, 100), 100)
        n = 100
        expected = np.sort([2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)])
        np.testing.assert_allclose(report.eigenvalues, expected, atol=1e-10)
        assert report.size == 100
        assert report.boundary == "dirichlet"
        assert report.ipr is None and report.edge_mass is None and report.vectors is None

    def test_matches_sturm_bisection_oracle(self):
        rng = random.Random(31)
        diag = [rng.uniform(-2, 2) for _ in range(30)]
        report = truncated_spectrum(explicit_window(diag, n_min=0), 30)
        oracle = sturm_eigenvalues(diag, tol=1e-10)
        np.testing.assert_allclose(report.eigenvalues, oracle, atol=1e-8)

    def test_interlacing_under_truncation_growth(self):
        window = sample_potential(
            Shift((GOLDEN,)), Cosine((1,)), 1.2, TorusPoint((ZERO,)), 0, 60
        )
        small = truncated_spectrum(window, 50).eigenvalues
        large = truncated_spectrum(window, 51).eigenvalues
        for k in range(50):
            assert large[k] <= small[k] + 1e-12
            assert small[k] <= large[k + 1] + 1e-12

    def test_eigenvalues_are_sorted(self):
        rng = random.Random(8)
        diag = [rng.uniform(-3, 3) for _ in range(25)]
        vals = truncated_spectrum(explicit_window(diag, n_min=0), 25).eigenvalues
        assert np.all(np.diff(vals) >= 0)

    def test_single_site(self):
        report = truncated_spectrum(explicit_window([1.7], n_min=0), 1, report_vectors=True)
        assert report.eigenvalues == pytest.approx([1.7])
        assert report.ipr[0] == pytest.approx(1.0)
        assert report.edge_mass[0] == pytest.approx(1.0)

    def test_validation(self):
        window = zero_window(0, 9)
        with pytest.raises(ValueError):
            truncated_spectrum(window, 0)
        with pytest.raises(WindowTooSmallError):
            truncated_spectrum(window, 11)


ORACLE_SIZES = (1, 2, 3, 30, 500, 3000)


def oracle_window(kind, n):
    """An n-site window: the free chain, a golden cosine, Bourgain's quadratic
    phase on the golden skew-shift, or seeded uniform values."""
    if kind == "zero":
        return zero_window(1, n)
    if kind == "cosine":
        return sample_potential(Shift((GOLDEN,)), Cosine((1,)), 1.3, TorusPoint((ZERO,)), 1, n)
    if kind == "bourgain":
        start = bourgain_start(FixedPointFrac.from_float(0.21), FixedPointFrac.from_float(0.68))
        return sample_potential(SkewShift(GOLDEN), BourgainQuadratic(), 2.5, start, 1, n)
    rng = random.Random(n)
    return explicit_window([rng.uniform(-4, 4) for _ in range(n)], n_min=1)


def scipy_spectrum(window, n, vectors):
    """The oracle: scipy.linalg.eigh_tridiagonal on the same diagonal."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = np.array(window.values[:n]), np.ones(n - 1)
    if vectors:
        return eigh_tridiagonal(diag, off)
    return eigh_tridiagonal(diag, off, eigvals_only=True), None


class TestDirectLapack:
    """truncated_spectrum calls LAPACK dstevd itself: the bits of
    scipy.linalg.eigh_tridiagonal, without importing scipy."""

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @pytest.mark.parametrize("kind", ["zero", "cosine", "bourgain", "random"])
    def test_bits_match_eigh_tridiagonal(self, kind, n):
        window = oracle_window(kind, n)
        for vectors in (False, True):
            report = truncated_spectrum(window, n, report_vectors=vectors)
            vals, vecs = scipy_spectrum(window, n, vectors)
            assert np.array_equal(report.eigenvalues, np.sort(vals))
            assert np.array_equal(report.vectors, vecs) if vectors else report.vectors is None

    CHILD = """
import json, sys
import numpy as np
if sys.argv[1] == "after":
    import scipy.linalg
from gordonlab.potentials import explicit_window
from gordonlab.spectral import _lapack, truncated_spectrum

spectra = []
for n in (1, 2, 3, 30, 500):
    window = explicit_window([((7 * k) % 11) / 3 - 1.5 for k in range(n)], n_min=0)
    spectra.append((window, truncated_spectrum(window, n, report_vectors=True),
                    truncated_spectrum(window, n)))
direct = sorted(m for m in ("scipy", "scipy.linalg") if m in sys.modules)
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

same = []
for window, full, values in spectra:
    n = window.values.size
    d, e = np.array(window.values), np.ones(n - 1)
    w, v = eigh_tridiagonal(d, e)
    same.append(np.array_equal(full.eigenvalues, np.sort(w)) and np.array_equal(full.vectors, v)
                and np.array_equal(values.eigenvalues,
                                   np.sort(eigh_tridiagonal(d, e, eigvals_only=True))))
shared = _lapack() is sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
print(json.dumps([direct, same, shared]))
"""

    @pytest.mark.parametrize("order", ["before", "after"])
    def test_direct_path_loaded_before_or_after_scipy_linalg(self, order, src_env):
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, order],
            capture_output=True, text=True, env=src_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        direct, same, shared = json.loads(proc.stdout)
        assert direct == ([] if order == "before" else ["scipy", "scipy.linalg"])
        assert same == [True] * 5
        assert shared  # one extension module per process, whoever loaded it first

    def test_the_copy_already_in_sys_modules_is_the_one_used(self, monkeypatch):
        # in-process, so the branch runs where a tracer sees it; _lapack is
        # cached, so each call below starts from an empty cache
        import scipy.linalg

        loaded = object()
        monkeypatch.setitem(sys.modules, spectral._FLAPACK, loaded)
        spectral._lapack.cache_clear()
        try:
            assert spectral._lapack() is loaded
            monkeypatch.undo()
            spectral._lapack.cache_clear()
            assert spectral._lapack() is sys.modules[spectral._FLAPACK] is scipy.linalg.lapack._flapack
        finally:
            spectral._lapack.cache_clear()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_diagonal_raises_value_error(self, bad):
        for values in ([bad], [0.5, bad, 1.0]):
            # built directly: explicit_window rejects the non-finite value itself
            diag, n = np.array(values), len(values)
            window = PotentialWindow(None, None, 1.0, None, 0, n - 1, diag, diag)
            with pytest.raises(ValueError, match="infs or NaNs"):
                truncated_spectrum(window, n, report_vectors=n == 1)

    def test_nonzero_info_raises_convergence_failure(self, monkeypatch):
        class Stub:
            @staticmethod
            def dstevd(d, e, compute_v):
                return np.array(d), np.zeros((d.size, d.size)), 7

        monkeypatch.setattr(spectral, "_lapack", lambda: Stub)
        for vectors in (False, True):
            with pytest.raises(ConvergenceFailureError, match="info=7"):
                truncated_spectrum(zero_window(1, 10), 10, report_vectors=vectors)
        assert main(["spectrum", "--alpha", "golden", "--sites", "10"]) == 1

    def test_a_missing_extension_raises_import_error_naming_its_path(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        fake = type("Spec", (), {"submodule_search_locations": [str(tmp_path)]})
        monkeypatch.setattr(spectral, "find_spec", lambda name: fake)
        with pytest.raises(ImportError, match="no LAPACK extension at") as exc:
            spectral._lapack.__wrapped__()
        assert exc.value.path.startswith(str(tmp_path / "linalg" / "_flapack"))
        assert str(exc.value).endswith(exc.value.path)


class TestLocalization:
    def test_free_chain_ipr_is_uniformly_extended(self):
        report = truncated_spectrum(zero_window(1, 100), 100, report_vectors=True)
        summary = localization_diagnostics(report)
        # sine eigenvectors all have IPR = 1.5 / (N + 1)
        assert summary.median_ipr == pytest.approx(1.5 / 101, rel=1e-12)
        np.testing.assert_allclose(report.ipr, 1.5 / 101, rtol=1e-10)
        counts, edges = summary.ipr_histogram
        assert counts.sum() == 100
        assert counts[0] == 100  # first bin [0, 0.1) holds everything
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_deep_well_traps_one_state(self):
        vals = [0.0] * 50 + [-10.0] + [0.0] * 50
        report = truncated_spectrum(explicit_window(vals, n_min=0), 101, report_vectors=True)
        # ground state is the well state: far below the free band
        assert report.eigenvalues[0] < -10.0
        assert report.ipr[0] == pytest.approx(0.9617, abs=5e-3)
        assert report.ipr[0] > 0.9
        assert report.edge_mass[0] < 1e-8  # buried mid-chain, nothing at the edges
        summary = localization_diagnostics(report)
        assert summary.median_ipr < 0.1  # the bulk stays extended

    def test_edge_mass_detects_boundary_states(self):
        vals = [-8.0] + [0.0] * 80
        report = truncated_spectrum(explicit_window(vals, n_min=0), 81, report_vectors=True)
        summary = localization_diagnostics(report)
        assert summary.max_edge_mass > 0.9

    def test_missing_vectors_raise(self):
        report = truncated_spectrum(zero_window(1, 10), 10)
        with pytest.raises(MissingVectorsError):
            localization_diagnostics(report)
