"""Deterministic strategies, bounds by enumeration and by case analysis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qudit_bell.local_models as local_models
from qudit_bell import (
    BellExpression,
    CrossCheckError,
    DeterministicStrategy,
    EnumerationCapError,
    JointDistribution,
    StrategyArray,
    build_expression,
    canonical_shift,
    check_enumeration_cap,
    differences_of,
    evaluate,
    local_bound_bruteforce,
    local_bound_cases,
    local_bounds,
    point_mass_distribution,
    shift_interval,
    strategy_value,
)

dims = st.integers(min_value=2, max_value=10)


# ---------------------------------------------------------------- oracles
#
# The full enumerations the library used before it decoupled the brute
# force and reduced the case analysis to residues.  They share no code
# with either route and are the reference for bit-identical results.


def bruteforce_oracle(expr, tie_atol=1e-9):
    """Maximum and maximizers from the full d^4 value table."""
    d = expr.dimension
    t = expr.coefficients
    scale = max(d - 1, 1)
    scaled = t * scale
    rounded = np.rint(scaled)
    if np.max(np.abs(scaled - rounded)) <= 1e-6:
        t = rounded.astype(np.int64)
    else:
        scale = None
    values = (
        t[0, 0][:, None, :, None]      # (a1, b1)
        + t[0, 1][:, None, None, :]    # (a1, b2)
        + t[1, 0][None, :, :, None]    # (a2, b1)
        + t[1, 1][None, :, None, :]    # (a2, b2)
    )
    if scale is not None:
        best = int(values.max()) / scale
        winners = np.argwhere(values == values.max())
    else:
        best = float(values.max())
        winners = np.argwhere(values >= best - tie_atol)
    maximizers = [
        DeterministicStrategy(int(a1), int(a2), int(b1), int(b2))
        for a1, a2, b1, b2 in winners
    ]
    return best, maximizers


def cases_oracle(d):
    """Maximum and attainable set from the d^3 grid of free shifts (r, s, t)."""
    lo, hi = shift_interval(d)
    shifts = np.arange(lo, hi + 1)
    numerators = np.where(shifts >= 0, d - 1 - 2 * shifts, -2 * shifts - (d + 1))
    r = shifts[:, None, None]
    s = shifts[None, :, None]
    t = shifts[None, None, :]
    half = d // 2
    u = (-1 - r - s - t + half) % d - half
    totals = (
        numerators[r - lo] + numerators[s - lo] + numerators[t - lo] + numerators[u - lo]
    )
    unique = np.unique(totals)
    return int(unique[-1]) / (d - 1), {int(n) / (d - 1) for n in unique}


def assert_matches_oracle(expr, **kwargs):
    best, maximizers = local_bound_bruteforce(expr, **kwargs)
    expected_best, expected_maximizers = bruteforce_oracle(expr, **kwargs)
    assert type(best) is float
    assert (best, list(maximizers)) == (expected_best, expected_maximizers)


@st.composite
def strategies_with_dim(draw):
    d = draw(dims)
    pick = st.integers(min_value=0, max_value=d - 1)
    return d, DeterministicStrategy(draw(pick), draw(pick), draw(pick), draw(pick))


# ---------------------------------------------------------------- differences


def test_differences_known_values():
    assert differences_of(DeterministicStrategy(0, 0, 0, 0), 3) == (0, -1, 0, 0)
    assert differences_of(DeterministicStrategy(0, 2, 0, 2), 3) == (0, 0, 0, -1)


@given(strategies_with_dim())
def test_differences_satisfy_cyclic_constraint(case):
    d, strategy = case
    r, s, t, u = differences_of(strategy, d)
    lo, hi = shift_interval(d)
    for x in (r, s, t, u):
        assert lo <= x <= hi
    assert (r + s + t + u + 1) % d == 0


def test_differences_rejects_out_of_range_outcomes():
    with pytest.raises(ValueError):
        differences_of(DeterministicStrategy(0, 0, 0, 3), 3)
    with pytest.raises(ValueError):
        differences_of(DeterministicStrategy(-1, 0, 0, 0), 3)


@given(strategies_with_dim())
def test_point_mass_is_valid_and_deterministic(case):
    d, strategy = case
    dist = point_mass_distribution(strategy, d)
    # one unit entry per setting pair, everything else zero
    assert np.count_nonzero(dist.table) == 4
    assert dist.table.max() == 1.0
    assert dist.table[0, 0, strategy.a1, strategy.b1] == 1.0
    assert dist.table[1, 1, strategy.a2, strategy.b2] == 1.0


# ---------------------------------------------------------------- strategy value


def test_strategy_value_known_case():
    expr = build_expression("Id", 3)
    assert strategy_value(expr, DeterministicStrategy(0, 0, 0, 0)) == 2.0


def test_strategy_value_rejects_other_families():
    for family in ("I", "I3"):
        with pytest.raises(ValueError):
            strategy_value(build_expression(family, 3), DeterministicStrategy(0, 0, 0, 0))


@settings(max_examples=300)
@given(strategies_with_dim())
def test_strategy_value_matches_point_mass_evaluation(case):
    d, strategy = case
    expr = build_expression("Id", d)
    direct = strategy_value(expr, strategy)
    via_tensor = evaluate(expr, point_mass_distribution(strategy, d))
    assert direct == pytest.approx(via_tensor, abs=1e-12)


@given(strategies_with_dim())
def test_strategy_value_spectrum(case):
    d, strategy = case
    v = strategy_value(build_expression("Id", d), strategy)
    allowed = {2.0, -2 / (d - 1), -2 * (d + 1) / (d - 1)}
    assert any(v == pytest.approx(w, abs=1e-12) for w in allowed)


# ---------------------------------------------------------------- bounds


def test_bruteforce_bound_family_I():
    for d in range(2, 6):
        value, maximizers = local_bound_bruteforce(build_expression("I", d))
        assert value == 3.0
        assert maximizers  # attained


def test_bruteforce_bound_family_Id_exact():
    for d in range(2, 9):
        value, maximizers = local_bound_bruteforce(build_expression("Id", d))
        assert value == 2.0
        for strategy in maximizers:
            assert strategy_value(build_expression("Id", d), strategy) == pytest.approx(
                2.0, abs=1e-12
            )


def test_bruteforce_maximizers_lexicographic():
    _, maximizers = local_bound_bruteforce(build_expression("Id", 3))
    keys = [(m.a1, m.a2, m.b1, m.b2) for m in maximizers]
    assert keys == sorted(keys)


def test_bruteforce_cap_raises_with_pointer():
    with pytest.raises(EnumerationCapError, match="local_bound_cases"):
        local_bound_bruteforce(build_expression("Id", 60))
    # the cap is adjustable
    value, _ = local_bound_bruteforce(build_expression("Id", 3), cap=100)
    assert value == 2.0
    with pytest.raises(EnumerationCapError):
        local_bound_bruteforce(build_expression("Id", 4), cap=100)


def test_enumeration_cap_check_is_the_bruteforce_gate():
    check_enumeration_cap(56)  # 56^4 = 9,834,496 fits under the default cap
    check_enumeration_cap(3, cap=81)
    message = (
        "enumerating 57^4 = 10556001 strategies exceeds the cap 10000000; "
        "use local_bound_cases for large dimensions"
    )
    with pytest.raises(EnumerationCapError) as direct:
        check_enumeration_cap(57)
    assert str(direct.value) == message
    with pytest.raises(EnumerationCapError) as via_bruteforce:
        local_bound_bruteforce(build_expression("I", 57))
    assert str(via_bruteforce.value) == message
    with pytest.raises(EnumerationCapError, match="3\\^4 = 81 strategies exceeds the cap 80"):
        check_enumeration_cap(3, cap=80)


def test_bruteforce_float_fallback_path():
    # irrational coefficients cannot be recognized as n/(d-1); the float
    # path with tie_atol must still find the max
    rng = np.random.default_rng(7)
    coeff = rng.normal(size=(2, 2, 3, 3))
    expr = BellExpression(3, "Id", coeff)
    value, maximizers = local_bound_bruteforce(expr)
    assert maximizers
    best = max(
        coeff[0, 0, a1, b1] + coeff[0, 1, a1, b2] + coeff[1, 0, a2, b1] + coeff[1, 1, a2, b2]
        for a1 in range(3) for a2 in range(3) for b1 in range(3) for b2 in range(3)
    )
    assert value == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("family", ["I", "I3", "Id"])
@pytest.mark.parametrize("d", range(2, 13))
def test_bruteforce_matches_oracle_on_families(family, d):
    assert_matches_oracle(build_expression(family, d))


def test_bruteforce_matches_oracle_on_scaled_integer_tensors():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        numerators = rng.integers(-2 * d, 2 * d + 1, size=(2, 2, d, d))
        if rng.random() < 0.3:
            # few distinct entries: many ties
            numerators = rng.integers(-1, 2, size=(2, 2, d, d))
        assert_matches_oracle(BellExpression(d, "Id", numerators / max(d - 1, 1)))


def _planted_tie_tensor(rng, d, gap):
    """Float tensor whose best strategy has a rival ``gap`` below it.

    The two strategies differ in every outcome, so they share no
    coefficient; their entries are near 1 and all others near 0.
    """
    coeff = rng.normal(scale=0.1, size=(2, 2, d, d))
    best = rng.integers(d, size=4)
    rival = (best + rng.integers(1, d, size=4)) % d
    for a1, a2, b1, b2 in (best, rival):
        coeff[0, 0, a1, b1], coeff[0, 1, a1, b2], coeff[1, 0, a2, b1], coeff[1, 1, a2, b2] = (
            rng.normal(1, 0.01, size=4)
        )
    a1, a2, b1, b2 = best
    top = coeff[0, 0, a1, b1] + coeff[0, 1, a1, b2] + coeff[1, 0, a2, b1] + coeff[1, 1, a2, b2]
    a1, a2, b1, b2 = rival
    partial = coeff[0, 0, a1, b1] + coeff[0, 1, a1, b2] + coeff[1, 0, a2, b1]
    coeff[1, 1, a2, b2] = top - gap - partial
    return coeff


@pytest.mark.parametrize("tie_atol", [1e-9, 1e-6])
def test_bruteforce_matches_oracle_on_planted_float_ties(tie_atol):
    rng = np.random.default_rng(23)
    fractions = [0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]
    for d in range(4, 9):
        for fraction in fractions:
            coeff = _planted_tie_tensor(rng, d, fraction * tie_atol)
            expr = BellExpression(d, "Id", coeff)
            assert_matches_oracle(expr, tie_atol=tie_atol)
    # the planted rival is a maximizer inside the tolerance and not outside it
    inside = local_bound_bruteforce(
        BellExpression(4, "Id", _planted_tie_tensor(np.random.default_rng(5), 4, 0.5e-9))
    )[1]
    outside = local_bound_bruteforce(
        BellExpression(4, "Id", _planted_tie_tensor(np.random.default_rng(5), 4, 2e-9))
    )[1]
    assert (len(inside), len(outside)) == (2, 1)


def test_bruteforce_matches_oracle_on_mixed_magnitude_floats():
    # entries spanning six decades round differently under the decoupled
    # sums; the reported maximum must still be the four-term float sum
    rng = np.random.default_rng(31)
    for _ in range(30):
        d = int(rng.integers(2, 8))
        coeff = rng.normal(size=(2, 2, d, d)) * 10.0 ** rng.uniform(-3, 3, size=(2, 2, d, d))
        assert_matches_oracle(BellExpression(d, "Id", coeff))
        assert_matches_oracle(BellExpression(d, "Id", coeff), tie_atol=0.0)


def test_bruteforce_peak_memory_at_the_cap():
    expr = build_expression("Id", 56)
    tracemalloc.start()
    try:
        value, maximizers = local_bound_bruteforce(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2.0
    assert len(maximizers) == 1_727_936
    assert peak < 150 * 2**20


def test_maximizers_are_an_array_backed_sequence():
    _, maximizers = local_bound_bruteforce(build_expression("Id", 3))
    _, expected = bruteforce_oracle(build_expression("Id", 3))
    assert isinstance(maximizers, StrategyArray)
    assert len(maximizers) == len(expected)
    assert maximizers[0] == expected[0] and maximizers[-1] == expected[-1]
    assert isinstance(maximizers[2:5], StrategyArray)
    assert list(maximizers[2:5]) == expected[2:5]
    with pytest.raises(TypeError):
        maximizers[0] = expected[1]
    with pytest.raises(IndexError):
        maximizers[len(expected)]
    assert expected[1] in maximizers


def test_strategy_array_validates_shape():
    assert len(StrategyArray(np.empty((0, 4), dtype=np.int64))) == 0
    with pytest.raises(ValueError):
        StrategyArray([[0, 0, 0]])
    with pytest.raises(ValueError):
        StrategyArray([0, 0, 0, 0])


def test_case_analysis_bound_and_spectrum():
    for d in range(2, 21):
        bound, attainable = local_bound_cases(d)
        assert bound == 2.0
        assert 2.0 in attainable
        if d == 2:
            assert attainable == {2.0, -2.0}
        else:
            assert attainable == {2.0, -2 / (d - 1), -2 * (d + 1) / (d - 1)}


def test_both_bound_routes_agree_exactly():
    for d in range(2, 11):
        brute, _ = local_bound_bruteforce(build_expression("Id", d))
        cases, _ = local_bound_cases(d)
        assert brute == cases


@pytest.mark.parametrize("d", range(2, 61))
def test_case_analysis_matches_grid_oracle(d):
    assert local_bound_cases(d) == cases_oracle(d)


def test_case_analysis_at_d_1000_in_bounded_memory():
    tracemalloc.start()
    try:
        result = local_bound_cases(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2.0, {2.0, -2 / 999, -2 * 1001 / 999})
    assert peak < 64 * 2**20


# ---------------------------------------------------------------- local_bounds


def count_expression_builds(monkeypatch):
    calls = []
    build = local_models.build_expression

    def counting(family, d):
        calls.append((family, d))
        return build(family, d)

    monkeypatch.setattr(local_models, "build_expression", counting)
    return calls


def test_local_bounds_raises_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr(local_models, "local_bound_cases", lambda d: (2.5, {2.5}))
    with pytest.raises(CrossCheckError, match="^brute-force bound 2.0 disagrees with "
                       "case analysis 2.5 at d=3$"):
        local_bounds("Id", 3)


def test_local_bounds_past_the_cap_without_a_case_analysis(monkeypatch):
    calls = count_expression_builds(monkeypatch)
    with pytest.raises(EnumerationCapError) as via_local_bounds:
        local_bounds("I", 57)
    with pytest.raises(EnumerationCapError) as direct:
        check_enumeration_cap(57)
    assert str(via_local_bounds.value) == str(direct.value)
    assert calls == []


def test_local_bounds_past_the_cap_runs_the_case_analysis_only(monkeypatch):
    calls = count_expression_builds(monkeypatch)
    result = local_bounds("Id", 57)
    assert result == (2.0, None, local_bound_cases(57))
    assert calls == []


def test_local_bounds_at_the_cap_runs_both_routes(monkeypatch):
    # a stand-in for the d = 56 enumeration, which the CLI tests run in full
    runs = []

    def bruteforce(expr, *, cap):
        runs.append((expr.family, expr.dimension, cap))
        return 2.0, StrategyArray(np.empty((0, 4)))

    monkeypatch.setattr(local_models, "local_bound_bruteforce", bruteforce)
    calls = count_expression_builds(monkeypatch)
    result = local_bounds("Id", 56)
    assert calls == [("Id", 56)]
    assert runs == [("Id", 56, 10_000_000)]
    assert result.bound == 2.0
    assert result.bruteforce[0] == 2.0
    assert result.cases == local_bound_cases(56)


# ---------------------------------------------------------------- mixtures


@settings(max_examples=60, deadline=None)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_random_mixture_value_below_bound(d, seed):
    rng = np.random.default_rng(seed)
    codes = rng.choice(d**4, size=min(8, d**4), replace=False)
    strategies = [
        DeterministicStrategy(
            int(c // d**3), int(c // d**2 % d), int(c // d % d), int(c % d)
        )
        for c in codes
    ]
    weights = rng.dirichlet(np.ones(len(strategies)))
    table = sum(
        w * point_mass_distribution(s, d).table for s, w in zip(strategies, weights)
    )
    expr = build_expression("Id", d)
    value = sum(w * strategy_value(expr, s) for s, w in zip(strategies, weights))
    assert value <= 2.0 + 1e-12
    assert value == pytest.approx(evaluate(expr, JointDistribution(d, table)), abs=1e-12)
