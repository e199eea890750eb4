"""Reference measurement setup: Born rule, closed form, asymptotics, noise."""

import math
import timeit
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qudit_bell.quantum as quantum_module
from qudit_bell import (
    CrossCheckError,
    MeasurementPhases,
    QuantumSetup,
    asymptotic_value,
    born_rule_distribution,
    build_expression,
    catalan_constant,
    closed_form_distribution,
    correlator,
    evaluate,
    evaluate_via_correlators,
    family_profile,
    local_bound_bruteforce,
    noise_threshold,
    ordered_shifts,
    quantum_correlator,
    quantum_correlators,
    quantum_value,
    quantum_value_I,
    quantum_value_I3,
    reproduction_table,
    shift_interval,
)
from qudit_bell.expressions import FAMILIES, JointDistribution
from conftest import DeterministicStrategy, point_mass_distribution, uniform_distribution

dims = st.integers(min_value=2, max_value=12)


# ---------------------------------------------------------------- oracles


def symmetry_check(dist, atol=1e-10):
    """True when the four correlator chains coincide at every shift.

    Checks P(A1 = B1 + c) = P(B1 = A2 + c + 1) = P(A2 = B2 + c)
    = P(B2 = A1 + c) for every canonical shift c.
    """
    lo, hi = shift_interval(dist.dimension)
    for c in range(lo, hi + 1):
        reference = correlator(dist, 0, 0, c)
        others = (
            correlator(dist, 1, 0, -(c + 1)),  # P(B1 = A2 + c + 1)
            correlator(dist, 1, 1, c),
            correlator(dist, 0, 1, -c),        # P(B2 = A1 + c)
        )
        if any(abs(v - reference) > atol for v in others):
            return False
    return True


def mixed_distribution(d, p):
    """Closed-form table mixed with white noise: p * quantum + (1 - p) * uniform."""
    table = p * closed_form_distribution(d).table + (1.0 - p) / (d * d)
    return JointDistribution(dimension=d, table=table)


# ---------------------------------------------------------------- phases


def test_reference_phase_vectors():
    for d in (2, 3, 4, 7, 64):
        phases = MeasurementPhases.reference(d)
        for vectors, getter, slopes in (
            (phases.alice_vectors, phases.alice_phase, (0.0, 0.5)),
            (phases.bob_vectors, phases.bob_phase, (0.25, -0.25)),
        ):
            for setting, slope in enumerate(slopes):
                expected = (2 * math.pi / d) * slope * np.arange(d)
                assert vectors[setting].tobytes() == expected.tobytes()
                assert getter(setting) is vectors[setting]
                assert not vectors[setting].flags.writeable


def test_explicit_phase_vectors():
    alice = [np.arange(3.0), np.zeros(3)]
    bob = ([0.5, 1.0, 1.5], (2.0, 2.0, 2.0))
    phases = MeasurementPhases(3, alice_vectors=alice, bob_vectors=bob)
    alice[0][0] = 9.0  # the phases hold their own copy
    np.testing.assert_array_equal(phases.alice_phase(0), np.arange(3.0))
    np.testing.assert_array_equal(phases.alice_phase(1), np.zeros(3))
    np.testing.assert_array_equal(phases.bob_phase(0), [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(phases.bob_phase(1), [2.0, 2.0, 2.0])
    for vec in (*phases.alice_vectors, *phases.bob_vectors):
        assert not vec.flags.writeable


def test_phase_vector_validation():
    zeros = (np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        MeasurementPhases(1, alice_vectors=(np.zeros(1),) * 2, bob_vectors=(np.zeros(1),) * 2)
    with pytest.raises(ValueError):
        MeasurementPhases(3, alice_vectors=(np.zeros(2), np.zeros(3)), bob_vectors=zeros)
    with pytest.raises(ValueError):
        MeasurementPhases(3, alice_vectors=zeros, bob_vectors=(np.full(3, np.nan), np.zeros(3)))
    with pytest.raises(ValueError, match="one phase vector per setting"):
        MeasurementPhases(3, alice_vectors=zeros, bob_vectors=(np.zeros(3),))
    phases = MeasurementPhases(3, alice_vectors=zeros, bob_vectors=zeros)
    for getter in (phases.alice_phase, phases.bob_phase):
        with pytest.raises(ValueError, match="^setting must be 0 or 1, got 2$"):
            getter(2)
    for d in (0, 1):  # checked before the phases divide by d
        with pytest.raises(ValueError, match=f"^dimension must be >= 2, got {d}$"):
            MeasurementPhases.reference(d)


def test_setup_validation():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        QuantumSetup(1, np.ones(1), MeasurementPhases.reference(2))
    with pytest.raises(ValueError):
        QuantumSetup(3, np.array([1.0, 1.0, 1.0]), MeasurementPhases.reference(3))
    with pytest.raises(ValueError):
        QuantumSetup(
            3, np.full(3, 1 / math.sqrt(3)), MeasurementPhases.reference(4)
        )
    setup = QuantumSetup.maximally_entangled(5)
    np.testing.assert_allclose(np.abs(setup.state_weights), 1 / math.sqrt(5), atol=1e-15)


# ---------------------------------------------------------------- Born rule


def test_born_matches_closed_form():
    for d in range(2, 17):
        born = born_rule_distribution(QuantumSetup.maximally_entangled(d))
        closed = closed_form_distribution(d)
        np.testing.assert_allclose(born.table, closed.table, atol=1e-12)


def test_born_and_closed_form_tables_are_not_copied_at_d_1000():
    # a (2, 2, d, d) table is 30.5 MiB; copying it took the peaks to 87.8
    # and 72.5 MiB
    setup = QuantumSetup.maximally_entangled(1000)
    for build, limit_mib in (
        (lambda: born_rule_distribution(setup), 70),
        (lambda: closed_form_distribution(1000), 55),
    ):
        tracemalloc.start()
        try:
            dist = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not dist.table.flags.writeable
        assert peak < limit_mib * 2**20


def test_zero_phases_give_perfect_correlation_d2():
    zeros = (np.zeros(2), np.zeros(2))
    phases = MeasurementPhases(2, alice_vectors=zeros, bob_vectors=zeros)
    dist = born_rule_distribution(QuantumSetup.maximally_entangled(2, phases=phases))
    for a in (0, 1):
        for b in (0, 1):
            assert dist.table[a, b, 0, 0] == pytest.approx(0.5, abs=1e-12)
            assert dist.table[a, b, 1, 1] == pytest.approx(0.5, abs=1e-12)
            assert dist.table[a, b, 0, 1] == pytest.approx(0.0, abs=1e-12)


def test_reference_entry_values():
    # diagonal entry at d=2 is (2+sqrt(2))/8
    dist2 = born_rule_distribution(QuantumSetup.maximally_entangled(2))
    assert dist2.table[0, 0, 0, 0] == pytest.approx((2 + math.sqrt(2)) / 8, abs=1e-12)
    # d=3: same-outcome entry 2(2+sqrt(3))/27, next-shift entry 1/27
    dist3 = closed_form_distribution(3)
    assert dist3.table[0, 0, 0, 0] == pytest.approx(2 * (2 + math.sqrt(3)) / 27, abs=1e-12)
    assert dist3.table[0, 0, 0, 0] == pytest.approx(0.27645, abs=5e-5)
    assert dist3.table[0, 0, 0, 1] == pytest.approx(1 / 27, abs=1e-12)
    assert dist3.table[0, 0, 0, 1] == pytest.approx(0.03704, abs=5e-5)


def test_closed_form_translation_invariance():
    for d in (2, 3, 5, 8):
        table = closed_form_distribution(d).table
        for m in range(d):
            entries = [table[1, 0, k, (k - m) % d] for k in range(d)]
            assert max(entries) - min(entries) == 0.0


# ---------------------------------------------------------------- correlators


def test_quantum_correlator_known_values():
    assert quantum_correlator(0, 3) == pytest.approx(2 * (2 + math.sqrt(3)) / 9, abs=1e-13)
    assert quantum_correlator(-1, 3) == pytest.approx(1 / 9, abs=1e-13)
    assert quantum_correlator(0, 2) == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-13)


def test_quantum_correlator_domain():
    with pytest.raises(ValueError):
        quantum_correlator(2, 3)
    with pytest.raises(ValueError):
        quantum_correlator(-2, 3)


@given(dims)
def test_quantum_correlators_partition_unity(d):
    lo, hi = shift_interval(d)
    assert sum(quantum_correlator(c, d) for c in range(lo, hi + 1)) == pytest.approx(
        1.0, abs=1e-12
    )


@given(dims)
def test_correlator_of_closed_form_matches_quantum_correlator(d):
    dist = closed_form_distribution(d)
    lo, hi = shift_interval(d)
    for c in (lo, 0, hi):
        assert correlator(dist, 0, 0, c) == pytest.approx(quantum_correlator(c, d), abs=1e-12)


def test_symmetry_chains_hold_for_reference_distribution():
    for d in range(2, 13):
        assert symmetry_check(closed_form_distribution(d))


def test_symmetry_check_rejects_asymmetric_distribution():
    dist = point_mass_distribution(DeterministicStrategy(0, 0, 0, 1), 3)
    assert not symmetry_check(dist)


def test_ordered_shifts_sequence():
    assert ordered_shifts(2) == (0, -1)
    assert ordered_shifts(3) == (0, -1, 1)
    assert ordered_shifts(4) == (0, -1, 1, -2)
    assert ordered_shifts(5) == (0, -1, 1, -2, 2)


def alternating_walk(d):
    """Oracle for `ordered_shifts`: step out from 0, negative side first."""
    lo, hi = shift_interval(d)
    out = [0]
    m = 1
    while len(out) < d:
        if -m >= lo:
            out.append(-m)
        if m <= hi and len(out) < d:
            out.append(m)
        m += 1
    return tuple(out)


def test_ordered_shifts_match_the_alternating_walk():
    for d in (*range(2, 65), 1000, 1001, 8192):
        assert ordered_shifts(d) == alternating_walk(d), d


def test_quantum_correlators_equal_the_scalar_formula_bit_for_bit():
    for d in (*range(2, 65), 1000, 8192):
        expected = [
            (c, 1.0 / (2.0 * d * d * math.sin(math.pi * (c + 0.25) / d) ** 2))
            for c in ordered_shifts(d)
        ]
        got = quantum_correlators(d)
        assert [(c, q.hex()) for c, q in got] == [(c, q.hex()) for c, q in expected], d


def test_quantum_correlators_reject_small_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        quantum_correlators(1)
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        closed_form_distribution(1)
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        quantum_value(1)


@given(st.integers(min_value=2, max_value=40))
def test_correlator_ordering_strictly_decreasing(d):
    values = [quantum_correlator(c, d) for c in ordered_shifts(d)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- values


def test_quantum_value_symbolic_anchors():
    assert quantum_value(2) == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert quantum_value(3) == pytest.approx(4 / (6 * math.sqrt(3) - 9), abs=1e-10)
    assert quantum_value(4) == pytest.approx(
        (2 / 3) * (math.sqrt(2) + math.sqrt(10 - math.sqrt(2))), abs=1e-10
    )
    assert quantum_value(3) == pytest.approx(2.87293, abs=5e-5)
    assert quantum_value(4) == pytest.approx(2.89624, abs=5e-5)


def test_quantum_value_matches_direct_evaluation():
    for d in range(2, 13):
        direct = evaluate(build_expression("Id", d), closed_form_distribution(d))
        assert quantum_value(d) == pytest.approx(direct, abs=1e-12)


def test_quantum_value_monotone_increasing():
    values = [quantum_value(d) for d in range(2, 102)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_I_expression_quantum_value():
    assert quantum_value_I(2) == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert quantum_value_I(3) == pytest.approx(8 * (2 + math.sqrt(3)) / 9, abs=1e-12)
    for d in (2, 10, 100):
        assert quantum_value_I(d) > 3.0


def test_quantum_value_I_check_raises(monkeypatch):
    monkeypatch.setattr(quantum_module, "quantum_correlator", lambda c, d: 0.5)
    with pytest.raises(RuntimeError, match="fell to 3 or below"):
        quantum_value_I(4)


I3_DIMENSIONS = [*range(2, 65), 128, 512, 1024]


def mpmath_I3_value(d):
    with mpmath.workdps(40):
        quarter = mpmath.mpf(1) / 4
        q = [
            1 / (2 * mpmath.mpf(d) ** 2 * mpmath.sin(mpmath.pi * (c + quarter) / d) ** 2)
            for c in (0, -1)
        ]
        return 4 * (q[0] - q[1])


def test_quantum_value_I3_matches_dense_and_correlator_routes():
    for d in I3_DIMENSIONS:
        expr = build_expression("I3", d)
        dist = closed_form_distribution(d)
        value = quantum_value_I3(d)
        assert value == pytest.approx(evaluate(expr, dist), rel=1e-12, abs=0)
        assert value == pytest.approx(evaluate_via_correlators(expr, dist), rel=1e-12, abs=0)


def test_quantum_value_I3_against_mpmath():
    for d in [*I3_DIMENSIONS, 4096, 10**6]:
        exact = mpmath_I3_value(d)
        assert abs(quantum_value_I3(d) - exact) <= 1e-14 * exact


def test_quantum_value_I3_anchors():
    assert quantum_value_I3(2) == pytest.approx(2 * math.sqrt(2), rel=1e-15, abs=0)
    assert quantum_value_I3(3) == pytest.approx(4 / (-9 + 6 * math.sqrt(3)), rel=1e-15, abs=0)
    assert quantum_value_I3(3) == pytest.approx(quantum_value(3), rel=1e-15, abs=0)
    with pytest.raises(ValueError):
        quantum_value_I3(1)


def test_family_profile_is_bit_identical_to_the_family_values():
    for d in (2, 3, 4, 7, 100, 4096):
        assert family_profile("Id", d) == (quantum_value(d), 2.0, 0.0)
        assert family_profile("I", d) == (quantum_value_I(d), 3.0, 4.0 / d)
        assert family_profile("I3", d) == (quantum_value_I3(d), 2.0, 0.0)
        for family in FAMILIES:
            profile = family_profile(family, d)
            value, bound, uniform = profile
            assert profile.noise_threshold == (bound - uniform) / (value - uniform)
            for p in (0.0, 0.3, profile.noise_threshold, 0.9, 1.0):
                assert profile.noisy_value(p) == p * value + (1.0 - p) * uniform
    with pytest.raises(ValueError, match="^unknown family 'I4'; expected one of "):
        family_profile("I4", 3)


def test_family_profile_raises_when_the_reference_does_not_violate(monkeypatch):
    monkeypatch.setattr(quantum_module, "quantum_value", lambda d: 1.9)
    with pytest.raises(CrossCheckError, match="^reference setup does not violate family Id at d=5$"):
        family_profile("Id", 5)
    with pytest.raises(CrossCheckError):
        noise_threshold(5)


def test_family_profile_bounds_and_noise_values_match_independent_routes():
    for family in FAMILIES:
        for d in range(2, 7):
            expr = build_expression(family, d)
            value, bound, uniform = family_profile(family, d)
            assert local_bound_bruteforce(expr)[0] == bound
            assert evaluate(expr, uniform_distribution(d)) == pytest.approx(
                uniform, abs=1e-12
            )
            assert value > bound


# ---------------------------------------------------------------- asymptotics


def test_catalan_constant_against_mpmath():
    mpmath.mp.dps = 30
    assert abs(catalan_constant() - mpmath.catalan) < 4.5e-16
    assert min(timeit.repeat(catalan_constant, number=10, repeat=5)) / 10 < 1e-3


def test_asymptotic_value_against_mpmath():
    mpmath.mp.dps = 30
    reference = 32 * mpmath.catalan / mpmath.pi**2
    assert abs(asymptotic_value() - reference) < 2e-15
    assert asymptotic_value() == pytest.approx(2.96981, abs=5e-5)


def test_large_dimension_approaches_limit():
    assert abs(quantum_value(10_000) - asymptotic_value()) < 1e-3


# ---------------------------------------------------------------- noise


@settings(max_examples=40)
@given(dims, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_mixed_distribution_structure(d, p):
    mixed = mixed_distribution(d, p)
    expected = p * closed_form_distribution(d).table + (1 - p) / d**2
    np.testing.assert_allclose(mixed.table, expected, atol=1e-15)


@settings(max_examples=40)
@given(dims, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_noisy_value_matches_mixed_evaluation(d, p):
    mixed = mixed_distribution(d, p)
    for family in FAMILIES:
        via_eval = evaluate(build_expression(family, d), mixed)
        assert family_profile(family, d).noisy_value(p) == pytest.approx(via_eval, abs=1e-12)


def test_noise_threshold_values():
    assert noise_threshold(2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert noise_threshold(3) == pytest.approx((6 * math.sqrt(3) - 9) / 2, abs=1e-12)
    assert noise_threshold(3) == pytest.approx(0.69615, abs=5e-5)
    assert noise_threshold(4) == pytest.approx(0.69055, abs=5e-5)


def test_noise_threshold_is_bit_identical_to_the_id_formula():
    for d in [*range(2, 101), 4096, 10**6]:
        assert noise_threshold(d) == 2.0 / quantum_value(d)


def test_noise_threshold_is_critical_point():
    for d in (2, 3, 7, 20):
        p = noise_threshold(d)
        profile = family_profile("Id", d)
        assert profile.noisy_value(p) == pytest.approx(2.0, abs=1e-12)
        assert profile.noisy_value(min(1.0, p + 1e-6)) > 2.0
        assert profile.noisy_value(p - 1e-6) < 2.0


def test_noise_threshold_monotone_decreasing():
    thresholds = [noise_threshold(d) for d in range(2, 102)]
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] > 2 / asymptotic_value()  # stays above the limit


def test_threshold_limit_decimal():
    assert 2 / asymptotic_value() == pytest.approx(0.67344, abs=5e-5)


# ---------------------------------------------------------------- reproduction


def test_reproduction_table_marks_a_regression(monkeypatch):
    monkeypatch.setattr(quantum_module, "quantum_value", lambda d: 2.5)
    statuses = {name: status for name, *_, status in reproduction_table()}
    assert statuses == {
        "I3_quantum_value": "FAIL",
        "I4_quantum_value": "FAIL",
        "noise_threshold_d3": "FAIL",
        "noise_threshold_d4": "FAIL",
        "Id_quantum_value_limit": "PASS",
        "noise_threshold_limit": "PASS",
    }
