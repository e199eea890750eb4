"""Bell expressions over joint outcome probabilities.

Scenario: two parties, two measurement settings each, d outcomes per
measurement.  Alice's settings are written A1, A2 and Bob's B1, B2, with
outcomes 0..d-1.  A Bell expression is a linear functional of the joint
outcome probabilities, stored as a dense coefficient tensor indexed
``(alice_setting, bob_setting, alice_outcome, bob_outcome)`` with
0-based settings.

Each built-in family is a sum of difference-class probabilities
P(A = B + k), so it has one encoding: `shift_weights` gives the weight
of each class for each setting pair, a (2, 2, d) array.
`build_expression` expands it into the dense tensor, whose cell
(a, b, k, l) holds the weight of class (k - l) mod d, and the phase
search in `optimize` reads the shift weights directly.

Three families are provided:

``I``
    Four unit-weight coincidence terms, one per setting pair.  Local
    hidden-variable models satisfy I <= 3; the algebraic maximum is 4.
``I3``
    The signed eight-term variant: the four coincidence terms minus four
    terms at the adjacent outcome shift.  Local bound 2.
``Id``
    The graded family for any d >= 2: shift-k coincidences enter with
    weight 1 - 2k/(d-1) and the penalised shifts with the opposite sign,
    for k = 0 .. floor(d/2)-1.  Local bound 2, algebraic maximum 4;
    coincides with I3 at d = 3 and equals 2*I - 4 at d = 2.

All functions are pure; the dataclasses are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DISTRIBUTION_ATOL",
    "FAMILIES",
    "SCHEMA_VERSION",
    "BellExpression",
    "CrossCheckError",
    "JointDistribution",
    "build_expression",
    "correlator",
    "evaluate",
    "evaluate_via_correlators",
    "shift_interval",
    "shift_weights",
]

FAMILIES = ("I", "I3", "Id")

SCHEMA_VERSION = 1

# Probability tables produced by transcendental closed forms cannot be
# normalised exactly; all validity checks use this absolute tolerance.
DISTRIBUTION_ATOL = 1e-9


class CrossCheckError(RuntimeError):
    """A computed result failed an internal check, such as two routes disagreeing (exit 3)."""


def _check_dimension(d: int) -> None:
    """Raise `ValueError` unless d is a Python or numpy integer of at least 2."""
    try:
        operator.index(d)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {d!r}") from None
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def shift_interval(d: int) -> tuple[int, int]:
    """Inclusive canonical range for outcome differences modulo d."""
    _check_dimension(d)
    return -(d // 2), (d - 1) // 2


def _readonly_array(values, shape: tuple[int, ...], name: str, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``, checked for its shape and for finite entries."""
    arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome probabilities for the four setting pairs.

    ``table`` has shape (2, 2, d, d) indexed by (alice_setting,
    bob_setting, alice_outcome, bob_outcome); each setting pair holds a
    normalised probability table.
    """

    dimension: int
    table: np.ndarray

    def __post_init__(self) -> None:
        d = self.dimension
        _check_dimension(d)
        table = _readonly_array(self.table, (2, 2, d, d), "table")
        _check_probabilities(table)
        object.__setattr__(self, "table", table)


def _check_probabilities(table: np.ndarray) -> None:
    # NaN propagates through min and sum and fails both comparisons.
    low = float(table.min())
    if not low >= -DISTRIBUTION_ATOL:
        if np.isnan(low):
            raise ValueError("table contains non-finite entries")
        raise ValueError(f"negative probability entry {low}")
    pair_sums = table.sum(axis=(2, 3))
    worst = float(np.max(np.abs(pair_sums - 1.0)))
    if not worst <= DISTRIBUTION_ATOL:
        raise ValueError(f"setting-pair totals deviate from 1 by {worst}")


def _own_distribution(d: int, table: np.ndarray) -> JointDistribution:
    """A distribution over a (2, 2, d, d) table its caller has just built.

    The table is held by nothing else.  It gets the constructor's
    probability checks (no negative or NaN entry, each setting pair sums
    to 1) and is handed over read-only, without the copy that
    `JointDistribution` makes of a caller's array.
    """
    _check_probabilities(table)
    table.setflags(write=False)
    return _hand_over(JointDistribution, dimension=d, table=table)


def _hand_over(cls, **fields):
    """A frozen dataclass instance over fields its caller has just built.

    ``__post_init__`` does not run, so the fields are neither checked nor
    copied; the caller has checked them and set its arrays read-only.
    """
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


@dataclass(frozen=True, eq=False)
class BellExpression:
    """A Bell expression as a dense coefficient tensor.

    The value on a distribution is the full contraction of
    ``coefficients`` (shape (2, 2, d, d), indexed like
    ``JointDistribution.table``) against the probability table.
    """

    dimension: int
    family: str
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        d = self.dimension
        _check_dimension(d)
        _check_family(self.family)
        coeff = _readonly_array(self.coefficients, (2, 2, d, d), "coefficients")
        object.__setattr__(self, "coefficients", coeff)


def shift_weights(family: str, d: int) -> np.ndarray:
    """The (2, 2, d) shift weights of a built-in family: its one encoding.

    ``s[a, b, m]`` is the weight of the difference class
    P(A_{a+1} - B_{b+1} = m mod d).  Bracket k of the paper, with weight
    w = 1 - 2k/(d-1), adds the coincidence terms P(A1 = B1 + k),
    P(B1 = A2 + k + 1), P(A2 = B2 + k), P(B2 = A1 + k) and subtracts
    P(A1 = B1 - k - 1), P(B1 = A2 - k), P(A2 = B2 - k - 1),
    P(B2 = A1 - k - 1); below, each term is written as its difference
    class A - B.  ``Id`` sums brackets 0 .. floor(d/2)-1, ``I3`` is
    bracket 0, and ``I`` is the added half of bracket 0.  As k grows,
    each term's class runs over contiguous residues (k, -k-1, -k and k+1
    mod d), so it is one slice of the bracket weights w or of their
    reverse, two for -k, which wraps past 0.  No two terms of one setting
    pair share a class at any d, so no weights add; each is formed as a
    single division by d-1, so equal-magnitude entries are bitwise equal.
    The array is read-only.
    """
    _check_dimension(d)
    _check_family(family)

    count = d // 2 if family == "Id" else 1
    w = (d - 1 - 2 * np.arange(count)) / (d - 1)
    weights = np.zeros((2, 2, d))
    # P(A1 = B1 + k), P(B1 = A2 + k + 1), P(A2 = B2 + k), P(B2 = A1 + k)
    weights[0, 0, :count] = w
    weights[1, 0, d - count:] = w[::-1]
    weights[1, 1, :count] = w
    weights[0, 1, 0] = w[0]
    weights[0, 1, d - count + 1:] = w[:0:-1]
    if family != "I":
        # P(A1 = B1 - k - 1), P(B1 = A2 - k), P(A2 = B2 - k - 1), P(B2 = A1 - k - 1)
        weights[0, 0, d - count:] = -w[::-1]
        weights[1, 0, :count] = -w
        weights[1, 1, d - count:] = -w[::-1]
        weights[0, 1, 1:count + 1] = -w
    weights.setflags(write=False)
    return weights


def build_expression(family: str, d: int) -> BellExpression:
    """The dense coefficient tensor of a built-in family.

    Cell (a, b, k, l) carries the shift weight of its difference class,
    ``shift_weights(family, d)[a, b, (k - l) % d]``.  The tensor is built
    here and held by nothing else, so it is handed over read-only, without
    the copy that `BellExpression` makes of a caller's array.
    """
    weights = shift_weights(family, d)
    outcomes = np.arange(d)
    coeff = weights[:, :, (outcomes[:, None] - outcomes[None, :]) % d]
    coeff.setflags(write=False)
    return _hand_over(BellExpression, dimension=d, family=family, coefficients=coeff)


def _check_setting(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")


def correlator(dist: JointDistribution, alice_setting: int, bob_setting: int, shift: int) -> float:
    """Probability that the chosen outcomes differ by ``shift`` mod d.

    Returns P(A = B + shift) for the given 0-based settings; ``shift``
    is interpreted modulo d.  The d correlators of a setting pair
    partition the outcome grid, so they sum to 1.
    """
    _check_setting(alice_setting, "alice_setting")
    _check_setting(bob_setting, "bob_setting")
    d = dist.dimension
    rows = np.arange(d)
    return float(dist.table[alice_setting, bob_setting, rows, (rows - shift) % d].sum())


def _check_same_dimension(expr: BellExpression, dist: JointDistribution) -> None:
    if expr.dimension != dist.dimension:
        raise ValueError(
            f"dimension mismatch: expression d={expr.dimension}, distribution d={dist.dimension}"
        )


def evaluate(expr: BellExpression, dist: JointDistribution) -> float:
    """Value of a Bell expression on a joint distribution."""
    _check_same_dimension(expr, dist)
    return float(np.sum(expr.coefficients * dist.table))


def evaluate_via_correlators(expr: BellExpression, dist: JointDistribution) -> float:
    """Evaluate through the correlators of each setting pair.

    Independent cross-check of `evaluate`: reconstructs the family value
    from difference-class probabilities instead of contracting the
    coefficient tensor or reading `shift_weights`.  Each bracket k adds
    its weight times its added half minus its subtracted half; ``I`` is
    bracket 0's added half.
    """
    _check_same_dimension(expr, dist)
    d = expr.dimension
    total = 0.0
    for k in range(d // 2 if expr.family == "Id" else 1):
        w = (d - 1 - 2 * k) / (d - 1)
        # P(A1 = B1 + k), P(B1 = A2 + k + 1), P(A2 = B2 + k), P(B2 = A1 + k)
        plus = (
            correlator(dist, 0, 0, k)
            + correlator(dist, 1, 0, -k - 1)
            + correlator(dist, 1, 1, k)
            + correlator(dist, 0, 1, -k)
        )
        if expr.family == "I":
            return plus
        # P(A1 = B1 - k - 1), P(B1 = A2 - k), P(A2 = B2 - k - 1), P(B2 = A1 - k - 1)
        minus = (
            correlator(dist, 0, 0, -k - 1)
            + correlator(dist, 1, 0, k)
            + correlator(dist, 1, 1, -k - 1)
            + correlator(dist, 0, 1, k + 1)
        )
        total += w * (plus - minus)
    return total
