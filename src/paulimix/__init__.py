"""Convex mixtures of dephasing qudit maps: construction, invertibility, measure.

The pipeline: factor the dimension as a prime power, build the d+1 mutually
unbiased bases, drive the d+1 input maps (one dephasing per basis) with a
shared decoherence function, mix them with simplex weights, and ask when
(and how often, over all mixtures) the output map stays invertible. Each
map is held as its d+1 eigenvalues; ``paulimix.oracle`` rebuilds it as a
dense superoperator for the tests to check against.

The public names below are resolved on first access (PEP 562), so importing
the package, or a module in it such as ``paulimix.cli``, loads no submodule
it does not read: ``paulimix.<name>`` imports the module that defines the
name, and only that one.
"""

import importlib

# module -> the public names this package re-exports from it
_EXPORTS = {
    "dynmaps": (
        "Cosine",
        "DecoherenceFunction",
        "Exponential",
        "MixtureMap",
        "Plateau",
        "generator_rates",
        "mixture_map",
        "validate_density_matrix",
    ),
    "errors": (
        "ComputationError",
        "NegativeTimeError",
        "NonHermitianError",
        "NotPrimePowerError",
        "PaulimixError",
        "RateSingularError",
        "RegimeMismatchError",
        "SingularAtGridPointError",
        "SingularAtTimeError",
        "ValidationError",
    ),
    "finite_field": (
        "GaloisField",
        "PrimePowerDim",
        "factor_prime_power",
        "find_irreducible",
        "galois_field",
        "is_prime_power",
    ),
    "invertibility": (
        "Classification",
        "InvertibilityReport",
        "PropagatorStep",
        "analytic_singularity_report",
        "cp_divisibility_check",
        "numeric_singularity_scan",
        "output_invertible",
    ),
    "measure": (
        "MeasureResult",
        "SweepRow",
        "Threshold",
        "delta_closed_form",
        "delta_monte_carlo",
        "delta_quadrature",
        "g_threshold",
        "normalization_check",
        "prime_powers_in",
        "sample_simplex",
        "sweep",
        "sweep_dimensions",
    ),
    "mub": (
        "MubSet",
        "MubVerification",
        "build_mub",
        "cached_mub",
        "verify_mub",
    ),
    "oracle": (
        "DualMapResult",
        "KrausSet",
        "is_cp",
        "kraus_dagger_dual",
        "numeric_generator",
        "phase_unitaries",
        "random_density_matrix",
        "superoperator",
        "to_choi",
        "unvec",
        "vec",
    ),
    "threshold": (
        "Regime",
        "RegimeKind",
        "classify_regime",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
