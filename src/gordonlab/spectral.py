"""Transfer matrices for u(n+1) + u(n-1) + V(n)u(n) = E u(n), the periodic
three-block norm inequality, truncated tridiagonal spectra with Dirichlet
ends, and localization diagnostics (inverse participation ratio, edge mass).

No spectral-type verdicts are ever claimed: finite truncations cannot decide
continuity of spectra, so outputs are defect values, inequality margins, and
descriptive statistics only.

Transfer products and the three-block data have one kernel each on plain
float lists (``_transfer``, ``_three_block``) and load no numpy; only the
eigensolver does.  It calls LAPACK ``dstevd``, the routine behind
``scipy.linalg.eigh_tridiagonal``, from scipy's compiled ``_flapack``
extension, loaded from its file by ``_lapack``: ``scipy.linalg``'s
``__init__`` (about 0.29 s, most of it a star-import of numpy's test and f2py
tools) never runs, and the extension alone loads in about 5 ms.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import TYPE_CHECKING

from .potentials import PotentialWindow, WindowTooSmallError, gordon_gamma

if TYPE_CHECKING:
    import numpy as np


class ConvergenceFailureError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


class MissingVectorsError(ValueError):
    """The spectral report was built without eigenvectors."""


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferProduct:
    """Ordered product of one-step matrices [[E - V(j), -1], [1, 0]] for
    j = n_lo..n_hi; maps (u(n_lo), u(n_lo-1)) to (u(n_hi+1), u(n_hi)).

    Every factor has determinant exactly 1; the product's determinant drifts
    only through float rounding, and only representably for bounded products.
    """

    entries: tuple[tuple[float, float], tuple[float, float]]
    energy: float
    n_lo: int
    n_hi: int

    def det(self) -> float:
        return _det(self.entries)


def _det(entries) -> float:
    (a, b), (c, d) = entries
    return a * d - b * c


def _transfer(values: list[float], energy: float):
    """Entries of the product of [[E - v, -1], [1, 0]] over values, in order.

    Left-multiplying by [[t, -1], [1, 0]] maps the columns (a, c) and (b, d)
    each to (t*x - y, x); two swaps per factor build no tuple.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for v in values:
        t = energy - v
        a, c = t * a - c, a
        b, d = t * b - d, b
    return (a, b), (c, d)


def _block_values(window: PotentialWindow, n_lo: int, n_hi: int) -> list[float]:
    """V(n_lo..n_hi) as plain floats, after checking the window covers them."""
    if window.n_min > n_lo or window.n_max < n_hi:
        raise WindowTooSmallError(
            f"transfer block [{n_lo}, {n_hi}] outside window [{window.n_min}, {window.n_max}]"
        )
    off = -window.n_min
    return window.values[off + n_lo : off + n_hi + 1].tolist()


def transfer_block(window: PotentialWindow, energy: float, n_lo: int, n_hi: int) -> TransferProduct:
    """Transfer matrix of the difference equation across sites n_lo..n_hi,
    computed by ``_transfer`` on the window's values as plain floats."""
    if n_lo > n_hi:
        raise ValueError("n_lo must be <= n_hi")
    values = _block_values(window, n_lo, n_hi)
    energy = float(energy)
    return TransferProduct(_transfer(values, energy), energy, n_lo, n_hi)


def _adjugate(entries):
    (a, b), (c, d) = entries
    return ((d, -b), (-c, a))


def _matmul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _matvec(m, u):
    (a, b), (c, d) = m
    return (a * u[0] + b * u[1], c * u[0] + d * u[1])


def _norm2(u) -> float:
    return math.hypot(u[0], u[1])


@dataclass(frozen=True)
class ThreeBlockReport:
    """Norms of A u0, A^2 u0, A^-1 u0 for the period block A over [1, q].

    For exactly q-periodic V the characteristic equation of A (det A = 1)
    forces max of the three norms >= ||u0|| / 2; min_ratio is that max
    divided by ||u0||.  gamma reports how far the window is from exact
    q-periodicity, so near-periodic runs can be judged alongside it.
    """

    q: int
    energy: float
    norm_u0: float
    norm_plus: float
    norm_plus2: float
    norm_minus: float
    min_ratio: float
    gamma: float
    det_drift: float


def _start_vector(u0) -> tuple[float, float]:
    u = (float(u0[0]), float(u0[1]))
    if u == (0.0, 0.0):
        raise ValueError("u0 must be a nontrivial vector")
    return u


def _three_block(
    values: list[float], energy: float, u: tuple[float, float], gamma: float
) -> ThreeBlockReport:
    """The three-block data for the period block A over V(1..q) = values.

    A^-1 comes from the adjugate since det A = 1, avoiding inversion error.
    """
    energy = float(energy)
    a = _transfer(values, energy)
    a2 = _matmul(a, a)
    ainv = _adjugate(a)
    n0 = _norm2(u)
    np_ = _norm2(_matvec(a, u))
    np2 = _norm2(_matvec(a2, u))
    nm = _norm2(_matvec(ainv, u))
    return ThreeBlockReport(
        q=len(values),
        energy=energy,
        norm_u0=n0,
        norm_plus=np_,
        norm_plus2=np2,
        norm_minus=nm,
        min_ratio=max(np_, np2, nm) / n0,
        gamma=gamma,
        det_drift=abs(_det(a) - 1.0),
    )


def gordon_three_block_check(
    window: PotentialWindow, energy: float, q: int, u0
) -> ThreeBlockReport:
    """Evaluate the three-block inequality data at energy E and period q.

    The window must cover [1-q, 2q] (so gamma(q) is measurable alongside);
    ``_three_block`` runs on the window's values over [1, q] as plain floats.
    """
    u = _start_vector(u0)
    if q < 1:
        raise ValueError("q must be >= 1")
    values = _block_values(window, 1, q)
    return _three_block(values, energy, u, gordon_gamma(window, q))


# ---------------------------------------------------------------------------
# truncated spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigendata of the N x N Dirichlet truncation (off-diagonals 1).

    ipr[i] = sum u^4 / (sum u^2)^2 of the i-th eigenvector; edge_mass[i] is
    its mass on the outer 10% of sites.  Both are None when vectors were not
    requested.
    """

    size: int
    boundary: str
    eigenvalues: np.ndarray
    ipr: np.ndarray | None
    edge_mass: np.ndarray | None
    vectors: np.ndarray | None


_FLAPACK = "scipy.linalg._flapack"


@cache
def _lapack():
    """scipy's compiled LAPACK wrappers, loaded once per process from the
    extension file without importing ``scipy`` or ``scipy.linalg``.

    The extension enters itself in ``sys.modules`` under its own name, so a
    later ``import scipy.linalg`` uses this module, and a process that
    imported scipy's first gets that one: one copy per process either way.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("the eigensolver needs scipy's LAPACK extension", name="scipy")
    path = os.path.join(scipy.submodule_search_locations[0], "linalg",
                        "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no LAPACK extension at {path}", name=_FLAPACK, path=path)
    loader = ExtensionFileLoader(_FLAPACK, path)
    module = module_from_spec(spec_from_loader(_FLAPACK, loader))
    loader.exec_module(module)
    return module


def truncated_spectrum(
    window: PotentialWindow, n_sites: int, report_vectors: bool = False
) -> SpectralReport:
    """Spectrum of the truncation onto the first n_sites sites of the window.

    LAPACK ``dstevd`` on the diagonal and unit off-diagonals: the call, and
    so the bits, of ``scipy.linalg.eigh_tridiagonal``, one site included.
    """
    import numpy as np

    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if window.n_max - window.n_min + 1 < n_sites:
        raise WindowTooSmallError(
            f"window holds {window.n_max - window.n_min + 1} sites, need {n_sites}"
        )
    diag = np.asarray_chkfinite(window.values[:n_sites], dtype=float)
    if n_sites == 1:
        vals, vecs = np.array([diag[0]]), np.array([[1.0]])
    else:
        off = np.ones(n_sites - 1, dtype=float)
        vals, vecs, info = _lapack().dstevd(diag, off, compute_v=report_vectors)
        if info:
            raise ConvergenceFailureError(f"LAPACK dstevd failed (info={info})")
    if not report_vectors:
        vecs = None  # dstevd's placeholder [[0.0]]
    ipr = edge = None
    if vecs is not None:
        norms2 = np.sum(vecs**2, axis=0)
        ipr = np.sum(vecs**4, axis=0) / norms2**2
        k = max(1, round(0.05 * n_sites))
        edge = (np.sum(vecs[:k] ** 2, axis=0) + np.sum(vecs[-k:] ** 2, axis=0)) / norms2
        if 2 * k >= n_sites:
            edge = np.minimum(edge, 1.0)
    return SpectralReport(
        size=n_sites,
        boundary="dirichlet",
        eigenvalues=np.sort(vals),
        ipr=ipr,
        edge_mass=edge,
        vectors=vecs,
    )


@dataclass(frozen=True, eq=False)
class LocalizationSummary:
    """Descriptive statistics only; never a spectral-type verdict."""

    median_ipr: float
    max_edge_mass: float
    ipr_histogram: tuple[np.ndarray, np.ndarray]


def localization_diagnostics(report: SpectralReport) -> LocalizationSummary:
    import numpy as np

    if report.ipr is None or report.edge_mass is None:
        raise MissingVectorsError("spectral report was computed without eigenvectors")
    counts, edges = np.histogram(report.ipr, bins=10, range=(0.0, 1.0))
    return LocalizationSummary(
        median_ipr=float(np.median(report.ipr)),
        max_edge_mass=float(np.max(report.edge_mass)),
        ipr_histogram=(counts, edges),
    )
