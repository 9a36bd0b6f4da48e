"""Exact-torus dynamics, repetition-time certificates, Gordon-type defect
profiles, and transfer-matrix diagnostics for one-dimensional discrete
Schrodinger operators with dynamically defined potentials.

Layers (each importable on its own):

- ``arithmetic``: 128-bit fixed-point circle arithmetic, continued fractions,
  badly-approximable classification at a bounded horizon.
- ``dynamics``: shifts, the skew-shift, higher skew-products, and interval
  exchange transformations with exact closed-form iteration; one raw-integer
  stepping kernel per system.
- ``repetition``: repetition-time certificates, constructive skew-shift
  times, the badly-approximable obstruction, Monte Carlo measure estimates,
  and tower searches for interval exchanges.
- ``potentials``: sampling functions, potential windows, the defect
  gamma(q), and decay-consistency profiles.
- ``spectral``: transfer-matrix blocks, the periodic three-block inequality,
  truncated spectra, and localization statistics.
- ``cli``: a seeded, reproducible experiment runner over all of the above.

Importing the package loads no layer: ``__getattr__`` imports each exported
name from its layer on first access and keeps it as a module global, so a
process compiles and runs only the layers it uses.  The CLI loads
``arithmetic`` up front and every other layer inside the handler that calls it.

The defect gamma(q) and transfer products run on plain float lists.  numpy
holds only ``PotentialWindow``'s arrays and the spectra, imported inside the
functions that use them; the eigensolver is LAPACK ``dstevd`` from scipy's
compiled extension, loaded from its file (``spectral._lapack``), so no
process imports the ``scipy`` package.  Importing the package or the CLI
loads no numpy, and of the subcommands only ``spectrum`` does.
"""

from importlib import import_module

# layer -> the names the package exports from it
_EXPORTS = {
    "arithmetic": (
        "ALPHA_PRESETS",
        "FRAC_BITS",
        "GOLDEN",
        "LIOUVILLE10",
        "SCALE",
        "SQRT2_MINUS_1",
        "ZERO",
        "ContinuedFraction",
        "DiophantineVerdict",
        "FixedPointFrac",
        "cf_expand",
        "classify_badly_approximable",
        "convergent_denominators",
    ),
    "dynamics": (
        "Iet",
        "IetContinuityPiece",
        "OutOfDomainError",
        "Permutation",
        "Shift",
        "SkewProduct",
        "SkewShift",
        "SystemSpec",
        "TorusPoint",
        "UnsupportedSystemError",
        "iet_refine_continuity",
        "orbit",
        "random_point",
        "system_dim",
    ),
    "potentials": (
        "BourgainQuadratic",
        "Cosine",
        "DimensionMismatchError",
        "GordonProfile",
        "PiecewiseConstant",
        "PotentialWindow",
        "SamplingFunction",
        "TrigPoly",
        "WindowTooSmallError",
        "bourgain_start",
        "evaluate_sampling",
        "explicit_window",
        "gordon_gamma",
        "gordon_profile",
        "modulus_bound",
        "sample_potential",
    ),
    "repetition": (
        "ConstructiveNotAvailable",
        "ConstructiveRepetition",
        "InconsistentCertificateError",
        "ObstructionReport",
        "PrpEstimate",
        "RepetitionCertificate",
        "RepetitionNotFound",
        "TowerNotFound",
        "VeechTower",
        "badly_approximable_obstruction",
        "estimate_prp_fraction",
        "find_repetition_time",
        "sample_start_point",
        "skewshift_constructive_q",
        "veech_tower_search",
        "verify_certificate_against_definition",
    ),
    "spectral": (
        "ConvergenceFailureError",
        "LocalizationSummary",
        "MissingVectorsError",
        "SpectralReport",
        "ThreeBlockReport",
        "TransferProduct",
        "gordon_three_block_check",
        "localization_diagnostics",
        "transfer_block",
        "truncated_spectrum",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    """The exported name, imported from its layer and kept as a global."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
