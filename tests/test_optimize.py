"""Derivative-free phase search over measurement setups."""

import itertools
import math

import numpy as np
import pytest

import qudit_bell.optimize as optimize_module
from qudit_bell import (
    BellExpression,
    MeasurementPhases,
    OptimizationProblem,
    QuantumSetup,
    born_rule_distribution,
    build_expression,
    evaluate,
    evaluate_via_correlators,
    maximize,
    objective,
    quantum_value,
    write_trace_csv,
)
from qudit_bell.optimize import _setup_from_parameters, _shift_weights, _value_function


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=1)
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=3, family="nope")
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=3, budget=0)
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=3, restarts=0)
    with pytest.raises(ValueError):
        OptimizationProblem(
            dimension=3,
            vary_alice_phases=False,
            vary_bob_phases=False,
            vary_state_weights=False,
        )


def test_parameter_count():
    assert OptimizationProblem(dimension=3).parameter_count == 8
    assert OptimizationProblem(dimension=3, vary_bob_phases=False).parameter_count == 4
    assert (
        OptimizationProblem(dimension=3, vary_state_weights=True).parameter_count == 11
    )


def test_objective_at_zero_parameters_is_local_bound():
    # zero free phases = perfectly correlated setup, which sits exactly at
    # the classical boundary
    for d in (2, 3, 5):
        problem = OptimizationProblem(dimension=d)
        value = objective(problem, np.zeros(problem.parameter_count))
        assert value == pytest.approx(2.0, abs=1e-12)


def test_objective_shape_check():
    problem = OptimizationProblem(dimension=3)
    with pytest.raises(ValueError):
        objective(problem, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, -1])
def test_objective_rejects_non_finite_parameters(bad, position):
    problem = OptimizationProblem(dimension=3, vary_state_weights=True)
    params = np.full(problem.parameter_count, 0.5)
    params[position] = bad  # first phase, last state weight
    with pytest.raises(ValueError, match="finite"):
        objective(problem, params)


def test_objective_can_reach_reference_value():
    # parameters that reproduce the reference slopes
    d = 3
    problem = OptimizationProblem(dimension=d)
    ref = MeasurementPhases.reference(d)
    params = np.concatenate(
        [ref.alice_phase(0)[1:], ref.alice_phase(1)[1:],
         ref.bob_phase(0)[1:], ref.bob_phase(1)[1:]]
    )
    assert objective(problem, params) == pytest.approx(quantum_value(d), abs=1e-12)


def test_gauge_invariance_of_born_values():
    rng = np.random.default_rng(5)
    d = 4
    expr = build_expression("Id", d)
    for _ in range(10):
        vectors = [rng.uniform(0, 2 * math.pi, size=d) for _ in range(4)]
        shifts = rng.uniform(-10, 10, size=4)
        base = MeasurementPhases(
            d, (0.0, 0.5), (0.25, -0.25),
            alice_vectors=(vectors[0], vectors[1]),
            bob_vectors=(vectors[2], vectors[3]),
        )
        shifted = MeasurementPhases(
            d, (0.0, 0.5), (0.25, -0.25),
            alice_vectors=(vectors[0] + shifts[0], vectors[1] + shifts[1]),
            bob_vectors=(vectors[2] + shifts[2], vectors[3] + shifts[3]),
        )
        v0 = evaluate(expr, born_rule_distribution(QuantumSetup.maximally_entangled(d, phases=base)))
        v1 = evaluate(expr, born_rule_distribution(QuantumSetup.maximally_entangled(d, phases=shifted)))
        assert v1 == pytest.approx(v0, abs=1e-12)


def test_maximize_small_budget_properties():
    problem = OptimizationProblem(dimension=2, budget=800, restarts=3, seed=11)
    result = maximize(problem)
    assert result.trace, "trace must record at least the first incumbent"
    indices = [i for i, _ in result.trace]
    values = [v for _, v in result.trace]
    assert indices[0] == 1
    assert all(b > a for a, b in zip(indices, indices[1:]))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert result.best_value == values[-1]
    # the result's own fields reproduce the reported value
    setup = QuantumSetup(2, result.best_state_weights, result.best_phases)
    replay = evaluate(build_expression("Id", 2), born_rule_distribution(setup))
    assert replay == pytest.approx(result.best_value, abs=1e-9)


def test_maximize_deterministic_under_seed():
    problem = OptimizationProblem(dimension=3, budget=1500, restarts=3, seed=4)
    first = maximize(problem)
    second = maximize(problem)
    assert first.best_value == second.best_value
    assert first.trace == second.trace
    np.testing.assert_array_equal(
        first.best_phases.alice_phase(0), second.best_phases.alice_phase(0)
    )


def test_maximize_seed_changes_search_path():
    a = maximize(OptimizationProblem(dimension=3, budget=900, restarts=2, seed=0))
    b = maximize(OptimizationProblem(dimension=3, budget=900, restarts=2, seed=1))
    assert a.trace != b.trace


def test_maximize_with_state_weights():
    problem = OptimizationProblem(
        dimension=2, budget=1200, restarts=2, seed=3, vary_state_weights=True
    )
    result = maximize(problem)
    norm = float(np.sum(np.abs(result.best_state_weights) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert result.best_value <= quantum_value(2) + 1e-6


def test_maximize_improves_over_random_start():
    result = maximize(OptimizationProblem(dimension=2, budget=600, restarts=2, seed=9))
    assert result.improved


def test_trace_csv_round_trip(tmp_path):
    result = maximize(OptimizationProblem(dimension=2, budget=400, restarts=2, seed=1))
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "evaluation_index,incumbent_value"
    parsed = [(int(i), float(v)) for i, v in (line.split(",") for line in lines[1:])]
    assert parsed == list(result.trace)


# ---------------------------------------------------------------- circulant form


VARY_BLOCKS = [
    flags for flags in itertools.product((False, True), repeat=3) if any(flags)
]


def test_lean_value_matches_dense_born_rule():
    rng = np.random.default_rng(2002)
    cases = 0
    for d in range(2, 13):
        for family in ("I", "I3", "Id"):
            expr = build_expression(family, d)
            for alice, bob, weights in VARY_BLOCKS:
                problem = OptimizationProblem(
                    dimension=d,
                    family=family,
                    vary_alice_phases=alice,
                    vary_bob_phases=bob,
                    vary_state_weights=weights,
                )
                value = _value_function(problem)
                samples = [rng.uniform(-2 * np.pi, 2 * np.pi, problem.parameter_count)]
                if weights:
                    signed = rng.uniform(-1.0, 1.0, problem.parameter_count)
                    zeroed = rng.uniform(0.0, 2 * np.pi, problem.parameter_count)
                    zeroed[-d:] = 0.0  # all-zero weight block: equal-weight fallback
                    samples += [signed, zeroed]
                for params in samples:
                    dense = evaluate_via_correlators(
                        expr, born_rule_distribution(_setup_from_parameters(problem, params))
                    )
                    assert value(params) == pytest.approx(dense, abs=1e-12), (d, family)
                    assert objective(problem, params) == value(params)
                    cases += 1
    assert cases >= 300


def test_shift_weights_reject_non_circulant_tensor():
    coefficients = build_expression("Id", 3).coefficients.copy()
    coefficients[0, 1, 2, 0] += 0.5
    with pytest.raises(ValueError, match="not circulant"):
        _shift_weights(BellExpression(3, "Id", coefficients))


def test_free_state_weights_reach_d3_optimum():
    # Acin, Durt, Gisin, Latorre, PRA 65, 052325 (2002): with the Schmidt
    # weights free the d = 3 maximum is 1 + sqrt(11/3), attained at weights
    # proportional to (1, gamma, 1) with gamma = (sqrt(11) - sqrt(3)) / 2.
    result = maximize(OptimizationProblem(dimension=3, vary_state_weights=True))
    assert result.best_value == pytest.approx(1 + math.sqrt(11 / 3), abs=1e-9)
    gamma = (math.sqrt(11) - math.sqrt(3)) / 2
    target = np.array([1.0, gamma, 1.0])
    weights = np.abs(result.best_state_weights)
    np.testing.assert_allclose(
        np.sort(weights / np.linalg.norm(weights)),
        np.sort(target / np.linalg.norm(target)),
        atol=1e-6,
    )


def test_maximize_raises_when_no_incumbent(monkeypatch):
    monkeypatch.setattr(optimize_module, "_value_function", lambda problem: lambda x: math.nan)
    with pytest.raises(RuntimeError, match="no incumbent"):
        maximize(OptimizationProblem(dimension=2, budget=10, restarts=1))
