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
    EnumerationCapError,
    JointDistribution,
    build_expression,
    check_enumeration_cap,
    evaluate,
    local_bound_bruteforce,
    local_bound_cases,
    local_bounds,
    shift_interval,
)
from conftest import (
    DeterministicStrategy,
    differences_of,
    point_mass_distribution,
    strategy_value,
)

dims = st.integers(min_value=2, max_value=10)


# ---------------------------------------------------------------- oracles
#
# The full enumerations the library used before it decoupled the brute
# force and reduced the case analysis to residues, and the d x d residue
# table it used before the two-piece form.  They share no code with
# either route and are the reference for bit-identical results.


def bruteforce_oracle(expr):
    """Maximum and maximizers from the full d^4 table of scaled integer values."""
    d = expr.dimension
    t = np.rint(expr.coefficients * (d - 1)).astype(np.int64)
    values = (
        t[0, 0][:, None, :, None]      # (a1, b1)
        + t[0, 1][:, None, None, :]    # (a1, b2)
        + t[1, 0][None, :, :, None]    # (a2, b1)
        + t[1, 1][None, :, None, :]    # (a2, b2)
    )
    best = int(values.max()) / (d - 1)
    winners = np.argwhere(values == values.max())
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


def residue_table_oracle(d):
    """Maximum and attainable set from the d x d pass over shift pairs (r, s).

    The pair values at each residue of r + s come from the full d x d
    table, then meet the ones at the partner residue -1 - rho.  O(d^2)
    time and memory, so it reaches past the grid oracle's d = 60.
    """
    lo, hi = shift_interval(d)
    shifts = np.arange(lo, hi + 1)
    numerators = np.where(shifts >= 0, d - 1 - 2 * shifts, -2 * shifts - (d + 1))

    pair_values = numerators[:, None] + numerators[None, :]
    low = int(pair_values.min())
    seen = np.zeros((d, int(pair_values.max()) - low + 1), dtype=bool)
    seen[(shifts[:, None] + shifts[None, :]) % d, pair_values - low] = True
    residues, offsets = np.nonzero(seen)

    # row rho of `table` lists the pair values at residue rho, ascending
    counts = np.bincount(residues, minlength=d)
    filled = np.arange(counts.max()) < counts[:, None]
    table = np.zeros(filled.shape, dtype=np.int64)
    table[filled] = offsets + low
    partner = (-1 - np.arange(d)) % d
    totals = table[:, :, None] + table[partner][:, None, :]
    both = filled[:, :, None] & filled[partner][:, None, :]
    present = np.zeros(2 * seen.shape[1] - 1, dtype=bool)
    present[totals[both] - 2 * low] = True
    attained = np.flatnonzero(present) + 2 * low
    return int(attained[-1]) / (d - 1), {int(n) / (d - 1) for n in attained}


def assert_matches_oracle(expr):
    best, count = local_bound_bruteforce(expr)
    expected_best, expected_maximizers = bruteforce_oracle(expr)
    assert type(best) is float and type(count) is int
    assert (best, count) == (expected_best, len(expected_maximizers))


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
        value, count = local_bound_bruteforce(build_expression("I", d))
        assert value == 3.0
        assert count > 0  # attained


def test_bruteforce_bound_family_Id_exact():
    for d in range(2, 9):
        expr = build_expression("Id", d)
        value, count = local_bound_bruteforce(expr)
        assert value == 2.0
        _, maximizers = bruteforce_oracle(expr)
        assert count == len(maximizers)
        for strategy in maximizers:
            assert strategy_value(expr, strategy) == pytest.approx(2.0, abs=1e-12)


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


def test_no_cap_admits_a_bruteforce_past_its_memory_ceiling():
    assert local_models.BRUTEFORCE_MAX_DIMENSION == 300
    check_enumeration_cap(300, cap=300**4)
    message = (
        "the brute force takes O(d^3) memory; d = 301 exceeds 300, "
        "the largest d any cap admits"
    )
    with pytest.raises(EnumerationCapError) as direct:
        check_enumeration_cap(301, cap=301**4)
    assert str(direct.value) == message
    with pytest.raises(EnumerationCapError) as via_bruteforce:
        local_bound_bruteforce(build_expression("Id", 301), cap=10**12)
    assert str(via_bruteforce.value) == message
    # Id raises too, rather than skip to its case analysis as past the cap
    with pytest.raises(EnumerationCapError) as via_local_bounds:
        local_bounds("Id", 301, cap=10**12)
    assert str(via_local_bounds.value) == message


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
    # non-circulant tensors past the families' sizes
    for d in (13, 19, 26, 33, 40):
        numerators = rng.integers(-3 * d, 3 * d + 1, size=(2, 2, d, d))
        assert_matches_oracle(BellExpression(d, "Id", numerators / (d - 1)))
    # the sums are narrow below a largest |numerator| of 2**14 and wide from it
    for top in (2**14 - 1, 2**14):
        numerators = rng.integers(-top, top + 1, size=(2, 2, 9, 9))
        # Bob's outcome 0 meets top + top in one half
        numerators[:, rng.integers(2), :, 0] = top
        assert_matches_oracle(BellExpression(9, "Id", numerators / 8))
    # numerators near 2**40; d - 1 a power of two keeps the coefficients exact
    for d in (5, 17, 33):
        numerators = 2**40 - rng.integers(0, 3, size=(2, 2, d, d))
        numerators *= rng.choice([-1, 1], size=(2, 2, d, d))
        assert_matches_oracle(BellExpression(d, "Id", numerators / (d - 1)))


@pytest.mark.parametrize("family", ["I", "I3", "Id"])
def test_bruteforce_counts_match_the_closed_forms_up_to_the_cap(family):
    # I: 4d and I3: 2d(3d - 4) are fits, checked only up to the cap
    count_of = {
        "I": lambda d: 4 * d,
        "I3": lambda d: 2 * d * (3 * d - 4),
        "Id": lambda d: d * d * (d + 1) * (d + 2) // 6,
    }[family]
    bound = 3.0 if family == "I" else 2.0
    for d in range(2, 57):
        assert local_bound_bruteforce(build_expression(family, d)) == (bound, count_of(d))


def test_bruteforce_rejects_coefficients_off_the_integer_grid():
    coeff = build_expression("Id", 4).coefficients.copy()
    coeff[0, 0, 0, 0] += 0.1
    with pytest.raises(ValueError, match="integer multiples of 1/\\(d-1\\) = 1/3"):
        local_bound_bruteforce(BellExpression(4, "Id", coeff))
    irrational = np.random.default_rng(7).normal(size=(2, 2, 3, 3))
    with pytest.raises(ValueError):
        local_bound_bruteforce(BellExpression(3, "Id", irrational))
    with pytest.raises(ValueError):
        local_bound_bruteforce(BellExpression(3, "Id", np.full((2, 2, 3, 3), 2.0**60)))


def test_bruteforce_peak_memory_at_the_cap():
    expr = build_expression("Id", 56)
    tracemalloc.start()
    try:
        result = local_bound_bruteforce(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2.0, 1_727_936)
    assert peak < 2 * 2**20


def test_bruteforce_peak_memory_past_the_default_cap():
    expr = build_expression("Id", 200)
    tracemalloc.start()
    try:
        result = local_bound_bruteforce(expr, cap=200**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2.0, 270_680_000)
    assert peak < 40 * 2**20


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


def test_residue_table_oracle_matches_grid_oracle():
    for d in (2, 3, 4, 17, 60):
        assert residue_table_oracle(d) == cases_oracle(d)


def test_case_analysis_matches_residue_table_oracle_past_the_grid():
    for d in [*range(61, 401), 1000]:
        assert local_bound_cases(d) == residue_table_oracle(d), d


def assert_case_analysis_peak_below(d, limit_mib):
    tracemalloc.start()
    try:
        result = local_bound_cases(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2.0, {2.0, -2 / (d - 1), -2 * (d + 1) / (d - 1)})
    assert peak < limit_mib * 2**20


def test_case_analysis_at_d_1000_in_bounded_memory():
    assert_case_analysis_peak_below(1000, 4)


def test_case_analysis_at_the_bound_cap_in_bounded_memory():
    assert_case_analysis_peak_below(4096, 8)


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
    calls = count_expression_builds(monkeypatch)
    result = local_bounds("Id", 56)
    assert calls == [("Id", 56)]
    assert result.bound == 2.0
    assert result.bruteforce == (2.0, 1_727_936)
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
