"""Convex mixtures of dephasing qudit maps: construction, invertibility, measure.

The pipeline: factor the dimension as a prime power, build the d+1 mutually
unbiased bases and their phase unitaries, drive the d+1 input maps with a
shared decoherence function, mix them with simplex weights, and ask when
(and how often, over all mixtures) the output map stays invertible.
"""

from .dynmaps import (
    Cosine,
    DecoherenceFunction,
    DualMapResult,
    Exponential,
    KrausSet,
    MixtureMap,
    Plateau,
    decay_rate,
    density_matrix_defects,
    generator_rates,
    is_cp,
    kraus_dagger_dual,
    mixture_map,
    numeric_generator,
    random_density_matrix,
    to_choi,
    unvec,
    validate_density_matrix,
    vec,
)
from .errors import (
    ComputationError,
    FieldMismatchError,
    NegativeTimeError,
    NonHermitianError,
    NotPrimePowerError,
    NotQubitError,
    PaulimixError,
    RateSingularError,
    RegimeMismatchError,
    SingularAtGridPointError,
    SingularAtTimeError,
    UnsupportedDimensionError,
    ValidationError,
)
from .finite_field import (
    GaloisField,
    GfElement,
    PrimePowerDim,
    factor_prime_power,
    find_irreducible,
    galois_field,
    is_prime_power,
)
from .invertibility import (
    Classification,
    InvertibilityReport,
    PropagatorStep,
    Regime,
    RegimeKind,
    analytic_singularity_report,
    classify_regime,
    cp_divisibility_check,
    numeric_singularity_scan,
    output_invertible,
    singular_time_cosine,
    singular_time_exponential,
    singular_time_plateau,
)
from .measure import (
    MeasureResult,
    SweepRow,
    Threshold,
    delta_closed_form,
    delta_monte_carlo,
    delta_quadrature,
    g_threshold,
    normalization_check,
    prime_powers_in,
    sample_simplex,
    sweep,
    sweep_dimensions,
)
from .mub import (
    MubSet,
    MubVerification,
    WeylUnitaries,
    build_mub,
    build_mub_for,
    build_unitaries,
    cached_mub,
    cached_unitaries,
    verify_mub,
)

__version__ = "0.1.0"
