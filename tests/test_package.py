"""The package root's public names."""

import ast
from pathlib import Path

import qudit_bell
from qudit_bell import cli, expressions, local_models, optimize, quantum


# The public surface, module by module.  A name is exported when a command
# or a cross-check route uses it; test oracles live in conftest.
PUBLIC_NAMES = {
    expressions: [
        "DISTRIBUTION_ATOL", "FAMILIES", "SCHEMA_VERSION", "BellExpression",
        "CrossCheckError", "JointDistribution", "build_expression", "correlator",
        "evaluate", "evaluate_via_correlators", "shift_interval", "shift_weights",
    ],
    local_models: [
        "BRUTEFORCE_MAX_DIMENSION", "ENUMERATION_CAP", "EnumerationCapError",
        "LocalBounds", "check_enumeration_cap", "local_bound_bruteforce",
        "local_bound_cases", "local_bounds",
    ],
    optimize: [
        "OptimizationProblem", "OptimizationResult", "maximize",
    ],
    quantum: [
        "REFERENCE_ALICE_SLOPES", "REFERENCE_BOB_SLOPES", "REPRODUCTION_RTOL",
        "FamilyProfile", "MeasurementPhases", "QuantumSetup", "asymptotic_value",
        "born_rule_distribution", "catalan_constant", "closed_form_distribution",
        "family_profile", "noise_threshold", "ordered_shifts", "quantum_correlator",
        "quantum_correlators", "quantum_value", "quantum_value_I",
        "quantum_value_I3", "reproduction_table",
    ],
}


def test_each_module_exports_exactly_its_pinned_names():
    for module, names in PUBLIC_NAMES.items():
        assert module.__all__ == names, module.__name__
    assert len(qudit_bell.__all__) == 42


def test_root_exports_every_module_name_once():
    modules = (expressions, local_models, optimize, quantum)
    expected = [name for module in modules for name in module.__all__]
    assert qudit_bell.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(qudit_bell, name) is getattr(module, name)


def test_cross_check_error_is_exported_and_a_runtime_error():
    assert issubclass(qudit_bell.CrossCheckError, RuntimeError)
    assert cli.CrossCheckError is qudit_bell.CrossCheckError


# Exported for the tests and the benchmark to cross-check against, though
# no command calls them.
CROSS_CHECK_ROUTES = {"closed_form_distribution", "evaluate_via_correlators"}


def test_every_export_is_used_by_the_package_or_is_a_cross_check_route():
    used = set()
    for source in Path(qudit_bell.__file__).parent.glob("*.py"):
        tree = ast.parse(source.read_text())
        used.update(
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
    unused = set(qudit_bell.__all__) - used
    assert unused == CROSS_CHECK_ROUTES
