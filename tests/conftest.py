"""Shared fixtures and test oracles.

The deterministic-strategy helpers below write out the objects of the
paper's local-model argument one strategy at a time.  The library only
counts strategies and reads shift numerators, so these are the tests'
independent reference for both bound routes.  `shift_weights_loop` writes
a family's shift weights term by term, the reference for the library's
slice form.  The `expression_builds` fixture records each dense tensor
the bound routes build.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import qudit_bell.local_models as local_models
from qudit_bell import BellExpression, JointDistribution, shift_interval


def random_distribution(d: int, rng: np.random.Generator) -> JointDistribution:
    """Random valid distribution: one Dirichlet draw per setting pair."""
    table = rng.dirichlet(np.ones(d * d), size=4).reshape(2, 2, d, d)
    return JointDistribution(d, table)


def uniform_distribution(d: int) -> JointDistribution:
    """The fully random distribution: every cell 1/d^2."""
    return JointDistribution(dimension=d, table=np.full((2, 2, d, d), 1.0 / (d * d)))


def shift_weights_loop(family: str, d: int) -> np.ndarray:
    """A family's (2, 2, d) shift weights, one bracket and one term at a time.

    Bracket k has weight w = 1 - 2k/(d-1), a single division; each term
    adds its weight to its difference class A - B (mod d) in term order.
    """
    weights = np.zeros((2, 2, d))
    for k in range(d // 2 if family == "Id" else 1):
        w = (d - 1 - 2 * k) / (d - 1)
        # (alice_setting, bob_setting, A - B, weight)
        terms = [(0, 0, k, w), (1, 0, -k - 1, w), (1, 1, k, w), (0, 1, -k, w)]
        if family != "I":
            terms += [(0, 0, -k - 1, -w), (1, 0, k, -w), (1, 1, -k - 1, -w), (0, 1, k + 1, -w)]
        for a, b, shift, weight in terms:
            weights[a, b, shift % d] += weight
    return weights


def canonical_shift(x: int, d: int) -> int:
    """Reduce x modulo d into the canonical interval of `shift_interval`."""
    half = d // 2
    return (int(x) + half) % d - half


def term_weight(x: int, d: int) -> float:
    """Weight carried by a coincidence term at canonical outcome shift x.

    Nonnegative shifts k enter with weight 1 - 2k/(d-1); a negative
    shift x carries the matching penalty -(1 - 2(-x-1)/(d-1)).  The
    shift must lie in the canonical interval for dimension d.
    """
    lo, hi = shift_interval(d)
    if not lo <= x <= hi:
        raise ValueError(
            f"shift {x} outside the canonical interval [{lo}, {hi}] for d={d}"
        )
    numerator = d - 1 - 2 * x if x >= 0 else -2 * x - (d + 1)
    return numerator / (d - 1)


@dataclass(frozen=True, order=True)
class DeterministicStrategy:
    """One local assignment of outcomes to A1, A2, B1, B2."""

    a1: int
    a2: int
    b1: int
    b2: int


def _check_strategy(strategy: DeterministicStrategy, d: int) -> None:
    for name in ("a1", "a2", "b1", "b2"):
        value = getattr(strategy, name)
        if not 0 <= value < d:
            raise ValueError(f"outcome {name}={value} outside 0..{d - 1}")


def differences_of(strategy: DeterministicStrategy, d: int) -> tuple[int, int, int, int]:
    """Canonical outcome shifts around the measurement cycle.

    The four links are A1 = B1 + r, B1 = A2 + s + 1, A2 = B2 + t and
    B2 = A1 + u, each shift reduced to the canonical interval.  The extra
    +1 on the B1/A2 link makes them obey r + s + t + u + 1 = 0 (mod d).
    """
    _check_strategy(strategy, d)
    return (
        canonical_shift(strategy.a1 - strategy.b1, d),
        canonical_shift(strategy.b1 - strategy.a2 - 1, d),
        canonical_shift(strategy.a2 - strategy.b2, d),
        canonical_shift(strategy.b2 - strategy.a1, d),
    )


def point_mass_distribution(strategy: DeterministicStrategy, d: int) -> JointDistribution:
    """The joint distribution produced by a single deterministic strategy."""
    _check_strategy(strategy, d)
    table = np.zeros((2, 2, d, d))
    table[0, 0, strategy.a1, strategy.b1] = 1.0
    table[0, 1, strategy.a1, strategy.b2] = 1.0
    table[1, 0, strategy.a2, strategy.b1] = 1.0
    table[1, 1, strategy.a2, strategy.b2] = 1.0
    return JointDistribution(dimension=d, table=table)


def strategy_value(expr: BellExpression, strategy: DeterministicStrategy) -> float:
    """Id-family value of one strategy via the shift-weight sum.

    Equals ``evaluate(expr, point_mass_distribution(strategy, d))`` but
    goes through the canonical shift tuple instead of the coefficient
    tensor; only the Id construction admits this shortcut.
    """
    if expr.family != "Id":
        raise ValueError(
            "strategy_value applies to the Id family; evaluate the point-mass "
            "distribution for other families"
        )
    diffs = differences_of(strategy, expr.dimension)
    return sum(term_weight(x, expr.dimension) for x in diffs)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def expression_builds(monkeypatch) -> list[tuple[str, int]]:
    """The (family, d) of each `build_expression` call `local_models` makes, in order."""
    calls = []
    build = local_models.build_expression

    def counting(family, d):
        calls.append((family, d))
        return build(family, d)

    monkeypatch.setattr(local_models, "build_expression", counting)
    return calls
