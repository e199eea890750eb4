"""Bell expressions for two-party, two-setting, d-outcome scenarios.

The package covers three expression families written on joint outcome
probabilities: a four-term form with local bound 3, its eight-term
sharpening with local bound 2, and the weighted-shift family that
extends the sharpening to every dimension.  Alongside the expressions
it provides deterministic-strategy enumeration and exact case analysis
for local bounds, the maximally entangled reference measurement setup
with closed-form statistics, noise thresholds, and a derivative-free
phase search.
"""

from .expressions import (
    DISTRIBUTION_ATOL,
    FAMILIES,
    BellExpression,
    JointDistribution,
    build_expression,
    canonical_shift,
    correlator,
    evaluate,
    evaluate_via_correlators,
    shift_interval,
    shift_weights,
    term_weight,
)
from .local_models import (
    ENUMERATION_CAP,
    DeterministicStrategy,
    EnumerationCapError,
    LocalModel,
    StrategyArray,
    StrategyDifferences,
    check_enumeration_cap,
    differences_of,
    local_bound_bruteforce,
    local_bound_cases,
    model_value,
    point_mass_distribution,
    strategy_value,
)
from .optimize import (
    OptimizationProblem,
    OptimizationResult,
    maximize,
    objective,
    write_trace_csv,
)
from .quantum import (
    MeasurementPhases,
    NoiseModel,
    QuantumSetup,
    asymptotic_value,
    born_rule_distribution,
    catalan_constant,
    closed_form_distribution,
    family_profile,
    mixed_distribution,
    noise_threshold,
    noisy_value,
    ordered_shifts,
    quantum_correlator,
    quantum_correlators,
    quantum_value,
    quantum_value_I,
    quantum_value_I3,
    symmetry_check,
)

__version__ = "0.1.0"

__all__ = [
    "BellExpression",
    "DISTRIBUTION_ATOL",
    "DeterministicStrategy",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "FAMILIES",
    "JointDistribution",
    "LocalModel",
    "MeasurementPhases",
    "NoiseModel",
    "OptimizationProblem",
    "OptimizationResult",
    "QuantumSetup",
    "StrategyArray",
    "StrategyDifferences",
    "asymptotic_value",
    "born_rule_distribution",
    "build_expression",
    "canonical_shift",
    "catalan_constant",
    "check_enumeration_cap",
    "closed_form_distribution",
    "correlator",
    "differences_of",
    "evaluate",
    "evaluate_via_correlators",
    "family_profile",
    "local_bound_bruteforce",
    "local_bound_cases",
    "maximize",
    "mixed_distribution",
    "model_value",
    "noise_threshold",
    "noisy_value",
    "objective",
    "ordered_shifts",
    "point_mass_distribution",
    "quantum_correlator",
    "quantum_correlators",
    "quantum_value",
    "quantum_value_I",
    "quantum_value_I3",
    "shift_interval",
    "shift_weights",
    "strategy_value",
    "symmetry_check",
    "term_weight",
    "write_trace_csv",
]
