"""Coefficient tensors, distributions, and evaluation."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_bell import (
    FAMILIES,
    BellExpression,
    JointDistribution,
    build_expression,
    correlator,
    evaluate,
    evaluate_via_correlators,
    shift_interval,
    shift_weights,
)
from qudit_bell.expressions import _own_distribution
from conftest import (
    canonical_shift,
    random_distribution,
    term_weight,
    uniform_distribution,
)

dims = st.integers(min_value=2, max_value=12)


# ---------------------------------------------------------------- shifts


def test_shift_interval_values():
    assert shift_interval(2) == (-1, 0)
    assert shift_interval(3) == (-1, 1)
    assert shift_interval(4) == (-2, 1)
    assert shift_interval(5) == (-2, 2)


def test_shift_interval_rejects_small_d():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        shift_interval(1)


@given(dims, st.integers(min_value=-100, max_value=100))
def test_canonical_shift_is_congruent_and_in_interval(d, x):
    c = canonical_shift(x, d)
    lo, hi = shift_interval(d)
    assert lo <= c <= hi
    assert (c - x) % d == 0


@given(dims)
def test_canonical_shift_fixes_interval(d):
    lo, hi = shift_interval(d)
    for x in range(lo, hi + 1):
        assert canonical_shift(x, d) == x


# ---------------------------------------------------------------- weights


def test_term_weight_known_values():
    assert term_weight(0, 5) == 1.0
    assert term_weight(1, 3) == 0.0
    for d in range(2, 10):
        assert term_weight(-1, d) == -1.0
    assert term_weight(-2, 4) == pytest.approx(-1 / 3, abs=1e-15)


def test_term_weight_rejects_out_of_interval():
    with pytest.raises(ValueError):
        term_weight(2, 3)
    with pytest.raises(ValueError):
        term_weight(-2, 3)


@given(dims)
def test_term_weight_range(d):
    lo, hi = shift_interval(d)
    values = [term_weight(x, d) for x in range(lo, hi + 1)]
    assert max(values) == 1.0  # x = 0
    assert min(values) == min(term_weight(-1, d), term_weight(lo, d))
    for v in values:
        assert -(d + 1) / (d - 1) <= v <= 1.0


# ---------------------------------------------------------------- tensors


def test_family_I_coefficients_are_indicator_like():
    for d in (2, 3, 5, 8):
        expr = build_expression("I", d)
        values = set(np.unique(expr.coefficients))
        assert values == {0.0, 1.0}
        assert int(expr.coefficients.sum()) == 4 * d


def test_Id_d3_coefficient_spot_checks():
    expr = build_expression("Id", 3)
    for j in range(3):
        assert expr.coefficients[0, 0, j, j] == 1.0
        # A1 = B1 - 1 carries full negative weight
        assert expr.coefficients[0, 0, j, (j + 1) % 3] == -1.0


def test_Id_d3_equals_I3():
    a = build_expression("Id", 3)
    b = build_expression("I3", 3)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_build_expression_rejects_bad_inputs():
    unknown = re.escape("unknown family 'nope'; expected one of ('I', 'I3', 'Id')")
    small = "^dimension must be >= 2, got 1$"
    with pytest.raises(ValueError, match=unknown):
        build_expression("nope", 3)
    with pytest.raises(ValueError, match=small):
        build_expression("Id", 1)
    with pytest.raises(ValueError, match=unknown):
        shift_weights("nope", 3)
    with pytest.raises(ValueError, match=small):
        shift_weights("Id", 1)
    with pytest.raises(ValueError, match=unknown):
        BellExpression(3, "nope", np.zeros((2, 2, 3, 3)))
    with pytest.raises(ValueError, match=small):
        BellExpression(1, "Id", np.zeros((2, 2, 1, 1)))


def _closure_built_coefficients(family, d):
    """The dense tensor written term by term, cell by cell: the oracle."""
    coeff = np.zeros((2, 2, d, d))
    outcomes = np.arange(d)

    def alice_leads(a, b, shift, weight):
        # P(A_{a+1} = B_{b+1} + shift): Bob's outcome trails by `shift`.
        coeff[a, b, outcomes, (outcomes - shift) % d] += weight

    def bob_leads(a, b, shift, weight):
        # P(B_{b+1} = A_{a+1} + shift): Alice's outcome trails by `shift`.
        coeff[a, b, outcomes, (outcomes + shift) % d] += weight

    if family == "I":
        alice_leads(0, 0, 0, 1.0)
        bob_leads(1, 0, 1, 1.0)
        alice_leads(1, 1, 0, 1.0)
        bob_leads(0, 1, 0, 1.0)
    else:
        brackets = 1 if family == "I3" else d // 2
        for k in range(brackets):
            w = (d - 1 - 2 * k) / (d - 1)
            alice_leads(0, 0, k, w)
            bob_leads(1, 0, k + 1, w)
            alice_leads(1, 1, k, w)
            bob_leads(0, 1, k, w)
            alice_leads(0, 0, -k - 1, -w)
            bob_leads(1, 0, -k, -w)
            alice_leads(1, 1, -k - 1, -w)
            bob_leads(0, 1, -k - 1, -w)
    return coeff


@pytest.mark.parametrize("family", FAMILIES)
def test_build_expression_equals_closure_oracle_bit_for_bit(family):
    for d in [*range(2, 65), 101, 256]:
        expected = _closure_built_coefficients(family, d)
        coefficients = build_expression(family, d).coefficients
        assert np.array_equal(coefficients, expected), d
        assert np.array_equal(np.signbit(coefficients), np.signbit(expected)), d
        weights = shift_weights(family, d)
        assert weights.shape == (2, 2, d)
        assert np.array_equal(weights, coefficients[:, :, :, 0]), d
        assert np.array_equal(np.signbit(weights), np.signbit(coefficients[:, :, :, 0])), d
        assert not weights.flags.writeable


def test_Id_at_d2_is_affine_in_I(rng):
    # Both families over binary outcomes: Id = 2*I - 4 on any distribution.
    id2 = build_expression("Id", 2)
    i2 = build_expression("I", 2)
    for _ in range(50):
        dist = random_distribution(2, rng)
        assert evaluate(id2, dist) == pytest.approx(
            2 * evaluate(i2, dist) - 4, abs=1e-12
        )


# ---------------------------------------------------------------- evaluate


def test_uniform_distribution_values():
    for d in (2, 3, 7):
        uniform = uniform_distribution(d)
        assert evaluate(build_expression("Id", d), uniform) == pytest.approx(0, abs=1e-12)
        assert evaluate(build_expression("I", d), uniform) == pytest.approx(4 / d, abs=1e-12)
    assert evaluate(build_expression("I3", 3), uniform_distribution(3)) == pytest.approx(
        0, abs=1e-12
    )


def test_evaluate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(build_expression("Id", 3), uniform_distribution(4))


@settings(max_examples=60)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_Id_value_bounded_by_four(d, seed):
    dist = random_distribution(d, np.random.default_rng(seed))
    assert evaluate(build_expression("Id", d), dist) <= 4 + 1e-12


@settings(max_examples=60)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_correlator_form_matches_tensor_form(d, seed):
    dist = random_distribution(d, np.random.default_rng(seed))
    for family in ("I", "I3", "Id"):
        expr = build_expression(family, d)
        assert evaluate_via_correlators(expr, dist) == pytest.approx(
            evaluate(expr, dist), abs=1e-12
        )


# ---------------------------------------------------------------- correlator


@settings(max_examples=40)
@given(dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_correlators_partition_unity(d, seed):
    dist = random_distribution(d, np.random.default_rng(seed))
    for a in (0, 1):
        for b in (0, 1):
            total = sum(correlator(dist, a, b, k) for k in range(d))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_correlator_shift_wraps_mod_d(rng):
    dist = random_distribution(5, rng)
    assert correlator(dist, 0, 1, -2) == pytest.approx(correlator(dist, 0, 1, 3), abs=0)
    assert correlator(dist, 1, 0, 7) == pytest.approx(correlator(dist, 1, 0, 2), abs=0)


def test_correlator_rejects_bad_setting(rng):
    dist = random_distribution(3, rng)
    with pytest.raises(ValueError):
        correlator(dist, 2, 0, 0)
    with pytest.raises(ValueError):
        correlator(dist, 0, -1, 0)


# ---------------------------------------------------------------- dataclasses


def test_distribution_validation():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        JointDistribution(1, np.zeros((2, 2, 1, 1)))
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        uniform_distribution(1)
    with pytest.raises(ValueError):
        JointDistribution(3, np.zeros((2, 2, 3, 3)))  # pairs sum to 0, not 1
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] = -0.1
    table[0, 0, 1, 1] = 0.6
    with pytest.raises(ValueError):
        JointDistribution(2, table)
    with pytest.raises(ValueError):
        JointDistribution(2, np.full((2, 2, 3, 3), 1 / 9))  # shape mismatch
    with pytest.raises(ValueError):
        JointDistribution(2, np.full((2, 2, 2, 2), np.nan))


def test_distribution_table_is_readonly():
    dist = uniform_distribution(3)
    with pytest.raises(ValueError):
        dist.table[0, 0, 0, 0] = 1.0


def test_expression_coefficients_readonly():
    expr = build_expression("I3", 3)
    with pytest.raises(ValueError):
        expr.coefficients[0, 0, 0, 0] = 5.0


def test_build_expression_memory_at_d_1000():
    # The (2, 2, d, d) tensor is 30.5 MiB; a second copy of it would take
    # the peak to about 65 MiB.
    tracemalloc.start()
    try:
        build_expression("Id", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2**20


def test_expression_copies_a_callers_array():
    owner = build_expression("Id", 4).coefficients.copy()
    expected = owner.copy()
    view = owner.view()
    view.setflags(write=False)
    for given in (owner, view):
        expr = BellExpression(4, "Id", given)
        owner[0, 0, 0, 0] += 1.0
        assert np.array_equal(expr.coefficients, expected)
        assert not expr.coefficients.flags.writeable
        owner[0, 0, 0, 0] = expected[0, 0, 0, 0]


def test_distribution_copies_a_callers_array():
    owner = np.full((2, 2, 3, 3), 1 / 9)
    view = owner.view()
    view.setflags(write=False)
    for given in (owner, view):
        dist = JointDistribution(3, given)
        owner[0, 0, 0, 0] = 0.5
        assert np.all(dist.table == 1 / 9)
        assert not dist.table.flags.writeable
        owner[0, 0, 0, 0] = 1 / 9


def test_a_fresh_table_is_checked_and_handed_over_without_a_copy():
    table = np.full((2, 2, 3, 3), 1 / 9)
    dist = _own_distribution(3, table)
    assert dist.dimension == 3 and dist.table is table
    assert not table.flags.writeable
    negative = np.full((2, 2, 2, 2), 0.25)
    negative[0, 0, 0, 0], negative[0, 0, 1, 1] = -0.1, 0.6
    for bad, message in (
        (negative, "^negative probability entry -0.1$"),
        (np.zeros((2, 2, 2, 2)), "^setting-pair totals deviate from 1 by 1.0$"),
    ):
        with pytest.raises(ValueError, match=message):
            JointDistribution(2, bad)
        with pytest.raises(ValueError, match=message):
            _own_distribution(2, bad.copy())


def test_uniform_constructor_normalized():
    dist = uniform_distribution(6)
    assert math.isclose(dist.table.sum(), 4.0, abs_tol=1e-12)
