"""Derivative-free phase search over measurement setups."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import qudit_bell.optimize as optimize_module
from qudit_bell import (
    MeasurementPhases,
    OptimizationProblem,
    QuantumSetup,
    born_rule_distribution,
    build_expression,
    evaluate,
    evaluate_via_correlators,
    maximize,
    quantum_value,
)
from qudit_bell.optimize import (
    CHUNK,
    INITIAL_STEP,
    MIN_STEP,
    _initial_point,
    _phase_factors,
    _probe_tables,
    _setup_from_parameters,
    _trials,
    _value_kernel,
)


def test_problem_validation():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        OptimizationProblem(dimension=1)
    with pytest.raises(ValueError, match="^unknown family 'nope'; expected one of "):
        OptimizationProblem(dimension=3, family="nope")
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=3, budget=0)
    with pytest.raises(ValueError):
        OptimizationProblem(dimension=3, restarts=0)
    with pytest.raises(ValueError, match="must not exceed budget"):
        OptimizationProblem(dimension=3, budget=1, restarts=5)
    with pytest.raises(ValueError, match="must not exceed budget"):
        OptimizationProblem(dimension=3, budget=10, restarts=20)
    with pytest.raises(ValueError, match="seed"):
        OptimizationProblem(dimension=3, seed=-1)
    # Search settings are Python or numpy integers, never bools.
    for name, value in [
        ("budget", 10.0), ("budget", True), ("budget", "10"),
        ("restarts", 2.0), ("restarts", True), ("restarts", np.float64(2.0)),
        ("seed", 1.5), ("seed", False), ("seed", None),
    ]:
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizationProblem(dimension=3, **{name: value})
    with pytest.raises(ValueError, match="^budget must be an integer, got True$"):
        OptimizationProblem(dimension=3, budget=True, restarts=True)


def test_problem_accepts_numpy_integer_settings():
    problem = OptimizationProblem(
        dimension=3, budget=np.int64(30), restarts=np.int32(2), seed=np.uint8(1)
    )
    result = maximize(problem)
    assert result.evaluations == 30
    assert result.trace == maximize(OptimizationProblem(3, budget=30, restarts=2, seed=1)).trace


def test_parameter_count():
    assert OptimizationProblem(dimension=3).parameter_count == 8
    assert (
        OptimizationProblem(dimension=3, vary_state_weights=True).parameter_count == 11
    )


def test_objective_at_zero_parameters_is_local_bound():
    # zero free phases = perfectly correlated setup, which sits exactly at
    # the classical boundary
    for d in (2, 3, 5):
        problem = OptimizationProblem(dimension=d)
        value = _value_kernel(problem)(np.zeros((1, problem.parameter_count)))[0]
        assert value == pytest.approx(2.0, abs=1e-12)


def test_objective_can_reach_reference_value():
    # parameters that reproduce the reference slopes
    d = 3
    problem = OptimizationProblem(dimension=d)
    ref = MeasurementPhases.reference(d)
    params = np.concatenate(
        [ref.alice_phase(0)[1:], ref.alice_phase(1)[1:],
         ref.bob_phase(0)[1:], ref.bob_phase(1)[1:]]
    )
    assert _value_kernel(problem)(params[None])[0] == pytest.approx(quantum_value(d), abs=1e-12)


def test_gauge_invariance_of_born_values():
    rng = np.random.default_rng(5)
    d = 4
    expr = build_expression("Id", d)
    for _ in range(10):
        vectors = [rng.uniform(0, 2 * math.pi, size=d) for _ in range(4)]
        shifts = rng.uniform(-10, 10, size=4)
        base = MeasurementPhases(
            d,
            alice_vectors=(vectors[0], vectors[1]),
            bob_vectors=(vectors[2], vectors[3]),
        )
        shifted = MeasurementPhases(
            d,
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


# ---------------------------------------------------------------- circulant form


# The search space: every phase varies, with fixed or with free state weights.
VARY_STATE_WEIGHTS = (False, True)


def test_lean_value_matches_dense_born_rule():
    rng = np.random.default_rng(2002)
    cases = 0
    for d in range(2, 13):
        for family in ("I", "I3", "Id"):
            expr = build_expression(family, d)
            for weights in VARY_STATE_WEIGHTS:
                problem = OptimizationProblem(
                    dimension=d, family=family, vary_state_weights=weights
                )
                values = _value_kernel(problem)
                samples = [
                    rng.uniform(-2 * np.pi, 2 * np.pi, problem.parameter_count)
                    for _ in range(4)
                ]
                if weights:
                    signed = rng.uniform(-1.0, 1.0, problem.parameter_count)
                    zeroed = rng.uniform(0.0, 2 * np.pi, problem.parameter_count)
                    zeroed[-d:] = 0.0  # all-zero weight block: equal-weight fallback
                    samples += [signed, zeroed]
                for params in samples:
                    dense = evaluate_via_correlators(
                        expr, born_rule_distribution(_setup_from_parameters(problem, params))
                    )
                    value = values(params[None])[0]
                    assert value == pytest.approx(dense, abs=1e-12), (d, family)
                    cases += 1
    assert cases >= 300


def test_kernel_compiles_from_shift_weights_alone(monkeypatch):
    def no_dense_tensor(family, d):
        raise AssertionError("the kernel built a dense coefficient tensor")

    monkeypatch.setattr(optimize_module, "build_expression", no_dense_tensor)
    for family in ("I", "I3", "Id"):
        problem = OptimizationProblem(dimension=5, family=family)
        values = _value_kernel(problem)(np.zeros((1, problem.parameter_count)))
        assert values.shape == (1,)


def test_default_budget_search_memory_at_d_64():
    # The lockstep arrays hold one point and one row of phase factors per
    # restart, and each restart keeps only its best point: about 3.1 MiB.
    # A log of every accepted point would add about 14 MiB.
    tracemalloc.start()
    try:
        maximize(OptimizationProblem(dimension=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_kernel_compile_memory_at_d_1000():
    # The d x d Fourier matrix and its temporaries take about 31 MiB; one
    # dense (2, 2, d, d) tensor would add 32 MiB.
    tracemalloc.start()
    try:
        _value_kernel(OptimizationProblem(dimension=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_maximize_raises_when_no_incumbent(monkeypatch):
    monkeypatch.setattr(
        optimize_module,
        "_value_kernel",
        lambda problem: lambda block, factors=None: np.full(len(block), np.nan),
    )
    with pytest.raises(RuntimeError, match="no incumbent"):
        maximize(OptimizationProblem(dimension=2, budget=10, restarts=1))


# ---------------------------------------------------------------- batched search


def _problems(dimensions, **kwargs):
    for d in dimensions:
        for family in ("I", "I3", "Id"):
            for weights in VARY_STATE_WEIGHTS:
                yield OptimizationProblem(
                    dimension=d, family=family, vary_state_weights=weights, **kwargs
                )


def test_kernel_rows_are_independent_of_the_block():
    rng = np.random.default_rng(17)
    cases = 0
    for problem in _problems(range(2, 13)):
        values = _value_kernel(problem)
        block = rng.uniform(-2 * np.pi, 2 * np.pi, (9, problem.parameter_count))
        if problem.vary_state_weights:
            block[4, -problem.dimension :] = 0.0  # equal-weight fallback row
        batched = values(block)
        assert batched.shape == (9,)
        for row, value in zip(block, batched):
            assert values(row[None])[0] == value
        assert np.array_equal(values(block[::-1]), batched[::-1])
        cases += 1
    assert cases == 11 * 3 * 2


@pytest.mark.parametrize("d", [*range(2, 13), 64, 1000])
def test_trial_factors_equal_the_full_kernel(d):
    # Each restart's trials cover both signs of a step, phase coordinates
    # of every setting and, with free weights, weight coordinates.
    rng = np.random.default_rng(d)
    for family in ("I", "I3", "Id"):
        for weights in VARY_STATE_WEIGHTS:
            problem = OptimizationProblem(
                dimension=d, family=family, vary_state_weights=weights, budget=2, restarts=2
            )
            sweep = 2 * problem.parameter_count
            current = rng.uniform(-2 * np.pi, 2 * np.pi, (2, problem.parameter_count))
            if weights:
                current[1, -d:] = 0.0  # equal-weight fallback row
            steps = rng.uniform(1e-3, 1.0, 2)
            owner = np.repeat([0, 1], CHUNK)
            probes = np.concatenate([
                [0, 1, sweep - 2, sweep - 1],
                rng.integers(sweep, size=2 * CHUNK - 4),
            ])
            points, factors = _trials(
                _probe_tables(problem), current, _phase_factors(d, current), steps, owner, probes
            )

            expected = current[owner]
            expected[np.arange(len(owner)), probes >> 1] += np.where(
                probes & 1, -steps[owner], steps[owner]
            )
            assert np.array_equal(points, expected)
            assert np.array_equal(factors, _phase_factors(d, points))
            values = _value_kernel(problem)
            patched = values(points, factors)
            for row, value in zip(points, patched):
                assert values(row[None])[0] == value, (d, family, weights)


def _sequential_search(problem):
    """The one-trial-at-a-time pattern search, fed the kernel one row at a time.

    Returns the trace, the best parameters, `improved` and the number of
    evaluations spent.
    """
    kernel = optimize_module._value_kernel(problem)

    def value_of(x):
        return float(kernel(x[None])[0])

    n = problem.parameter_count
    per_restart = problem.budget // problem.restarts
    evaluations = 0
    trace = []
    best_value = -math.inf
    best_params = None
    initial_value = None

    def record(candidate, params):
        nonlocal best_value, best_params
        if candidate > best_value:
            best_value = candidate
            best_params = params.copy()
            trace.append((evaluations, candidate))

    for seed in np.random.SeedSequence(problem.seed).spawn(problem.restarts):
        x = _initial_point(problem, np.random.default_rng(seed))
        fx = value_of(x)
        evaluations += 1
        remaining = per_restart - 1
        if initial_value is None:
            initial_value = fx
        record(fx, x)

        step = INITIAL_STEP
        while remaining > 0 and step > MIN_STEP:
            moved = False
            for coord in range(n):
                if remaining <= 0:
                    break
                for sign in (1.0, -1.0):
                    if remaining <= 0:
                        break
                    trial = x.copy()
                    trial[coord] += sign * step
                    ft = value_of(trial)
                    evaluations += 1
                    remaining -= 1
                    if ft <= fx:
                        continue
                    x, fx = trial, ft
                    moved = True
                    record(fx, x)
                    while remaining > 0:  # keep walking while the direction pays
                        trial = x.copy()
                        trial[coord] += sign * step
                        ft = value_of(trial)
                        evaluations += 1
                        remaining -= 1
                        if ft <= fx:
                            break
                        x, fx = trial, ft
                        record(fx, x)
                    break
            if not moved:
                step *= 0.5
    return trace, best_params, best_value > initial_value, evaluations


def _assert_matches_sequential(problem):
    trace, best_params, improved, evaluations = _sequential_search(problem)
    result = maximize(problem)
    assert result.trace == tuple(trace)
    assert result.improved == improved
    assert result.evaluations == evaluations
    setup = _setup_from_parameters(problem, best_params)
    for s in (0, 1):
        assert np.array_equal(result.best_phases.alice_phase(s), setup.phases.alice_phase(s))
        assert np.array_equal(result.best_phases.bob_phase(s), setup.phases.bob_phase(s))
    assert np.array_equal(result.best_state_weights, setup.state_weights)
    expr = build_expression(problem.family, problem.dimension)
    assert result.best_value == evaluate(expr, born_rule_distribution(setup))
    return evaluations


@pytest.mark.parametrize(
    "budget, restarts",
    [(1, 1), (3, 3), (203, 4)],
    ids=["budget-1", "budget-equals-restarts", "budget-not-divisible"],
)
def test_batched_search_equals_sequential_search(budget, restarts):
    for problem in _problems(range(2, 13), budget=budget, restarts=restarts, seed=budget):
        evaluations = _assert_matches_sequential(problem)
        assert evaluations == (budget // restarts) * restarts


@pytest.mark.parametrize("family", ["I", "Id"])
@pytest.mark.parametrize("d", [2, 7, 12])
def test_batched_search_equals_sequential_search_at_the_deck_setting(d, family):
    # budget 1500 with 3 restarts: walks cross rounds and restarts stop at
    # different rounds
    for weights in VARY_STATE_WEIGHTS:
        problem = OptimizationProblem(
            dimension=d, family=family, vary_state_weights=weights,
            budget=1500, restarts=3, seed=d,
        )
        _assert_matches_sequential(problem)


def test_evaluations_count_the_whole_budget_when_no_restart_stops_early():
    # at d = 6 neither restart halves its step to MIN_STEP within its 1000
    # evaluations, and the last improvement comes well before the budget ends
    problem = OptimizationProblem(dimension=6, budget=2000, restarts=2, seed=0)
    result = maximize(problem)
    assert result.evaluations == problem.restarts * (problem.budget // problem.restarts)
    assert result.trace[-1][0] < result.evaluations


def test_batched_search_equals_sequential_search_past_min_step():
    # a budget large enough that restarts halve their step below MIN_STEP,
    # and so stop, before their share is spent
    for problem in _problems([2], budget=6000, restarts=3, seed=8):
        assert _assert_matches_sequential(problem) < problem.budget


def test_batched_search_keeps_nan_semantics(monkeypatch):
    # `not (f <= fx)` accepts a NaN value as a move, and from a NaN
    # incumbent every trial is a move; the batched search must agree
    compile_kernel = optimize_module._value_kernel

    def kernel_with_nans(problem):
        values = compile_kernel(problem)

        def patched(block, factors=None):
            out = values(block, factors)
            out[np.sin(7.0 * block[:, 0]) > 0.8] = math.nan
            return out

        return patched

    monkeypatch.setattr(optimize_module, "_value_kernel", kernel_with_nans)
    for problem in _problems([2, 3], budget=300, restarts=3, seed=5):
        _assert_matches_sequential(problem)
