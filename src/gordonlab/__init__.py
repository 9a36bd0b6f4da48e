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

The defect gamma(q) and transfer products run on plain float lists.  numpy
holds only ``PotentialWindow``'s arrays and the spectra, and scipy only the
eigensolver, each imported inside the functions that use them: importing the
package or the CLI loads neither, and of the subcommands only ``spectrum``
does.
"""

from .arithmetic import (
    ALPHA_PRESETS,
    FRAC_BITS,
    GOLDEN,
    LIOUVILLE10,
    SCALE,
    SQRT2_MINUS_1,
    ZERO,
    ContinuedFraction,
    DiophantineVerdict,
    FixedPointFrac,
    cf_expand,
    classify_badly_approximable,
    convergent_denominators,
)
from .dynamics import (
    Iet,
    IetContinuityPiece,
    OutOfDomainError,
    Permutation,
    Shift,
    SkewProduct,
    SkewShift,
    SystemSpec,
    TorusPoint,
    UnsupportedSystemError,
    iet_inverse_step,
    iet_refine_continuity,
    iet_step,
    iterate_closed_form,
    orbit,
    random_point,
    skewshift_pair_difference,
    step,
    system_dim,
)
from .potentials import (
    BourgainQuadratic,
    Cosine,
    DimensionMismatchError,
    GordonProfile,
    PiecewiseConstant,
    PotentialWindow,
    SamplingFunction,
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
from .repetition import (
    ConstructiveNotAvailable,
    ConstructiveRepetition,
    InconsistentCertificateError,
    ObstructionReport,
    PrpEstimate,
    RepetitionCertificate,
    RepetitionNotFound,
    TowerNotFound,
    VeechTower,
    badly_approximable_obstruction,
    estimate_prp_fraction,
    find_repetition_time,
    repetition_distances,
    sample_start_point,
    skewshift_constructive_q,
    veech_tower_search,
    verify_certificate_against_definition,
)
from .spectral import (
    ConvergenceFailureError,
    LocalizationSummary,
    MissingVectorsError,
    SpectralReport,
    ThreeBlockReport,
    TransferProduct,
    gordon_three_block_check,
    localization_diagnostics,
    transfer_block,
    truncated_spectrum,
)

__version__ = "0.1.0"

__all__ = [
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
    "iet_inverse_step",
    "iet_refine_continuity",
    "iet_step",
    "iterate_closed_form",
    "orbit",
    "random_point",
    "skewshift_pair_difference",
    "step",
    "system_dim",
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
    "repetition_distances",
    "sample_start_point",
    "skewshift_constructive_q",
    "veech_tower_search",
    "verify_certificate_against_definition",
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
    "__version__",
]
