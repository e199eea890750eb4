"""Acceptance gate: every headline claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
``[criterion-N] PASS/FAIL`` lines.  Each test pins the tolerance it
must meet; runtime-sensitive criteria assert their own budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qudit_bell import (
    DISTRIBUTION_ATOL,
    MeasurementPhases,
    OptimizationProblem,
    QuantumSetup,
    asymptotic_value,
    born_rule_distribution,
    build_expression,
    closed_form_distribution,
    correlator,
    evaluate,
    local_bound_bruteforce,
    local_bound_cases,
    maximize,
    noise_threshold,
    ordered_shifts,
    quantum_correlator,
    quantum_value,
    quantum_value_I,
    shift_interval,
)
from conftest import DeterministicStrategy, differences_of


@contextmanager
def criterion(n: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion-{n}] FAIL {description}")
        raise
    print(f"\n[criterion-{n}] PASS {description} ({time.perf_counter() - start:.2f} s)")


def test_criterion_1_local_bounds():
    with criterion(1, "local bounds: brute force and case analysis agree exactly"):
        start = time.perf_counter()
        value, _ = local_bound_bruteforce(build_expression("I", 2))
        assert value == 3.0
        for d in range(2, 11):
            brute, _ = local_bound_bruteforce(build_expression("Id", d))
            assert brute == 2.0
            cases, _ = local_bound_cases(d)
            assert brute == cases
        for d in range(2, 51):
            cases, _ = local_bound_cases(d)
            assert cases == 2.0
        assert time.perf_counter() - start < 10.0


def test_criterion_2_value_spectrum():
    with criterion(2, "deterministic value spectrum matches the case analysis"):
        for d in range(2, 9):
            expr = build_expression("Id", d)
            observed = set()
            for a1 in range(d):
                for a2 in range(d):
                    for b1 in range(d):
                        for b2 in range(d):
                            diffs = differences_of(
                                DeterministicStrategy(a1, a2, b1, b2), d
                            )
                            total = sum(
                                d - 1 - 2 * x if x >= 0 else -2 * x - (d + 1)
                                for x in diffs
                            )
                            observed.add(total / (d - 1))
            allowed = {2.0, -2 / (d - 1), -2 * (d + 1) / (d - 1)}
            assert observed <= allowed, f"d={d}: {observed - allowed}"
            if d == 2:
                assert observed == {2.0, -2.0}


def test_criterion_3_quantum_values():
    with criterion(3, "quantum values match symbolic anchors; Born equals closed form"):
        i3 = 4 / (-9 + 6 * math.sqrt(3))
        i4 = (2 / 3) * (math.sqrt(2) + math.sqrt(10 - math.sqrt(2)))
        assert abs(quantum_value(3) - i3) < 1e-10
        assert abs(quantum_value(4) - i4) < 1e-10
        assert abs(quantum_value(3) - 2.87293) < 5e-5
        assert abs(quantum_value(4) - 2.89624) < 5e-5
        for d in range(2, 17):
            born = born_rule_distribution(QuantumSetup.maximally_entangled(d))
            closed = closed_form_distribution(d)
            assert float(np.max(np.abs(born.table - closed.table))) < 1e-12


def test_criterion_4_asymptotics():
    # the quoted limit decimal is 2.96981 (see the project's decision
    # ledger for the digit-transposition analysis of the source value)
    with criterion(4, "large-d limit equals 32*Catalan/pi^2 and is approached by d=1e4"):
        limit = asymptotic_value()
        assert abs(limit - 2.96981) < 5e-5
        assert abs(quantum_value(10_000) - limit) < 1e-3


def test_criterion_5_noise_thresholds():
    with criterion(5, "noise thresholds match quoted decimals and decrease in d"):
        assert abs(noise_threshold(3) - 0.69615) < 5e-5
        assert abs(noise_threshold(4) - 0.69055) < 5e-5
        assert abs(2 / asymptotic_value() - 0.67344) < 5e-5
        thresholds = [noise_threshold(d) for d in range(2, 101)]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))


def test_criterion_6_I_expression_violation():
    with criterion(6, "four-term expression violated at every dimension up to 1000"):
        for d in range(2, 1001):
            assert quantum_value_I(d) > 3.0


def test_criterion_7_optimizer_reproduction():
    with criterion(7, "seeded phase search reattains the reference quantum value"):
        start = time.perf_counter()
        for d in range(2, 9):
            result = maximize(OptimizationProblem(dimension=d))
            reference = quantum_value(d)
            assert result.best_value >= reference - 1e-3, f"d={d}"
            assert result.best_value <= reference + 1e-6, f"d={d}"
        again = maximize(OptimizationProblem(dimension=4))
        baseline = maximize(OptimizationProblem(dimension=4))
        assert again.best_value == baseline.best_value
        assert again.trace == baseline.trace
        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------- criterion 8
# five randomized property suites, >= 1000 cases each


def test_criterion_8a_normalization():
    with criterion(8, "normalization: 1000 random-phase setups yield distributions"):
        rng = np.random.default_rng(1)
        cases = 0
        for _ in range(1000):
            d = int(rng.integers(2, 11))
            phases = MeasurementPhases(
                d,
                alice_vectors=(rng.uniform(0, 2 * np.pi, d), rng.uniform(0, 2 * np.pi, d)),
                bob_vectors=(rng.uniform(0, 2 * np.pi, d), rng.uniform(0, 2 * np.pi, d)),
            )
            dist = born_rule_distribution(QuantumSetup.maximally_entangled(d, phases=phases))
            sums = dist.table.sum(axis=(2, 3))
            assert float(np.max(np.abs(sums - 1.0))) < DISTRIBUTION_ATOL
            assert float(dist.table.min()) > -DISTRIBUTION_ATOL
            cases += 1
        assert cases >= 1000


def test_criterion_8b_symmetry_chains():
    with criterion(8, "symmetry: correlator chains hold for every shift, d up to 45"):
        cases = 0
        for d in range(2, 46):
            dist = closed_form_distribution(d)
            lo, hi = shift_interval(d)
            for c in range(lo, hi + 1):
                reference = correlator(dist, 0, 0, c)  # P(A1 = B1 + c)
                chain = (
                    correlator(dist, 1, 0, -(c + 1)),  # P(B1 = A2 + c + 1)
                    correlator(dist, 1, 1, c),         # P(A2 = B2 + c)
                    correlator(dist, 0, 1, -c),        # P(B2 = A1 + c)
                )
                for other in chain:
                    assert abs(other - reference) < 1e-10
                cases += 1
        assert cases >= 1000


def test_criterion_8c_correlator_ordering():
    with criterion(8, "ordering: q_0 > q_-1 > q_1 > ... strict for d up to 100"):
        comparisons = 0
        for d in range(2, 101):
            values = [quantum_correlator(c, d) for c in ordered_shifts(d)]
            for a, b in zip(values, values[1:]):
                assert a > b
                comparisons += 1
        assert comparisons >= 1000


def test_criterion_8d_constraint_soundness_and_surjectivity():
    with criterion(8, "constraints: difference tuples sound and surjective, d up to 8"):
        cases = 0
        for d in range(2, 9):
            lo, hi = shift_interval(d)
            realized = set()
            for a1 in range(d):
                for a2 in range(d):
                    for b1 in range(d):
                        for b2 in range(d):
                            diffs = differences_of(
                                DeterministicStrategy(a1, a2, b1, b2), d
                            )
                            assert all(lo <= x <= hi for x in diffs)
                            assert (sum(diffs) + 1) % d == 0
                            realized.add(diffs)
                            cases += 1
            # three free differences, the fourth determined: all d^3 occur
            assert len(realized) == d**3
        assert cases >= 1000


def test_criterion_8e_gauge_invariance():
    with criterion(8, "gauge: constant phase offsets never change the value"):
        rng = np.random.default_rng(2)
        cases = 0
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            expr = build_expression("Id", d)
            vectors = [rng.uniform(0, 2 * np.pi, d) for _ in range(4)]
            offsets = rng.uniform(-20, 20, size=4)
            base = MeasurementPhases(
                d,
                alice_vectors=(vectors[0], vectors[1]),
                bob_vectors=(vectors[2], vectors[3]),
            )
            shifted = MeasurementPhases(
                d,
                alice_vectors=(vectors[0] + offsets[0], vectors[1] + offsets[1]),
                bob_vectors=(vectors[2] + offsets[2], vectors[3] + offsets[3]),
            )
            v0 = evaluate(
                expr, born_rule_distribution(QuantumSetup.maximally_entangled(d, phases=base))
            )
            v1 = evaluate(
                expr,
                born_rule_distribution(QuantumSetup.maximally_entangled(d, phases=shifted)),
            )
            assert abs(v1 - v0) < 1e-12
            cases += 1
        assert cases >= 1000


def test_criterion_9_free_weight_optimum():
    # Acin, Durt, Gisin, Latorre, PRA 65, 052325 (2002): with the Schmidt
    # weights free the d = 3 maximum is 1 + sqrt(11/3), attained at weights
    # proportional to (1, gamma, 1) with gamma = (sqrt(11) - sqrt(3)) / 2.
    with criterion(9, "free state weights reach the d = 3 optimum 1 + sqrt(11/3)"):
        result = maximize(OptimizationProblem(dimension=3, vary_state_weights=True))
        assert abs(result.best_value - (1 + math.sqrt(11 / 3))) <= 1e-9
        gamma = (math.sqrt(11) - math.sqrt(3)) / 2
        target = np.array([1.0, gamma, 1.0])
        weights = np.abs(result.best_state_weights)
        np.testing.assert_allclose(
            np.sort(weights / np.linalg.norm(weights)),
            np.sort(target / np.linalg.norm(target)),
            atol=1e-6,
        )
