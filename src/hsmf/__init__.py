"""
hsmf: fixed-radius multifractal analysis of Moran interval measures.

Construct generation-scheduled Moran measures on [0, 1], compute
covering/packing/partition moment statistics at fixed radii, extract the
lower/upper separator exponents from normalization-root envelopes, and form
Legendre-transform spectrum bounds with coarse-histogram and tilted-sampling
verification. Ships closed-form oracle curves and small-depth exact optima
for acceptance testing, plus a deterministic CLI. Its files are byte-identical
for one numpy build on one CPU dispatch target. Across targets, numbers agree
to 4.4e-15 relative (near 0, to an absolute floor), flags, counts and verdicts
are equal, and k_b/k_B can name another generation on a tie.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateGrid,
    HsmfError,
    InsufficientScales,
    NoBracket,
    NoConvergence,
    ParameterOutOfRange,
    ScaleTooSmall,
    SpecValidationError,
    TooDeep,
    Violation,
)
from .specs import (
    BlockSchedule,
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    ball_mass,
    check_spec,
    load_spec,
    matched_generation,
    sample_paths,
    spec_from_dict,
    validate_spec,
)
from .counting import (
    BallTable,
    MomentKind,
    MomentTable,
    ball_table,
    counting_moment_table,
    covering_moment,
    log_partition_moment,
    packing_moment,
    partition_moment_table,
)
from .scaling import (
    BetaSequence,
    SeparatorGrid,
    beta_sequence,
    separator_grid,
    solve_beta_k,
    theta_delta_from_moments,
)
from .spectrum import (
    AlphaBounds,
    CoarseSpectrum,
    SpectrumResult,
    TiltedCheck,
    alpha_bounds,
    coarse_spectrum,
    legendre_transform,
    spectrum_result,
    tilted_dimension_check,
)
from .oracles import (
    BruteForceMoments,
    block_moran_bounds,
    brute_force_ball_moments,
    periodic_moran_beta,
    switching_alpha_interval,
    switching_binomial_tau,
    uniform_beta,
)
