"""Local hidden-variable models and the local bounds they imply.

A deterministic strategy fixes one outcome for each of the four
measurements; a general local model is a probability mixture of the d^4
strategies.  Bell expressions are linear, so their maximum over local
models is attained at a deterministic strategy and the local bound can
be found by enumeration.

`local_bound_bruteforce` works on the dense coefficient tensor.  Once
Alice's outcomes (a1, a2) are fixed, Bob's outcomes b1 and b2 enter
separate terms, so the maximum over the d^4 strategies is a maximum over
d^2 pairs of two independent maxima over d: O(d^3) time and memory, never
the d^4 value table.  When the tensor is shift-invariant, as every
built-in family's is, adding one constant to all four outcomes keeps a
strategy's value, so only a1 = 0 is enumerated and the count is scaled
by d: O(d^2).  Each half's sums are laid out Bob's outcome first, one
(a1, a2) slab per outcome, in int16 whenever the sums fit and in int64
otherwise.  It returns the maximum and the number of strategies that
attain it, and lists none of them.

For the Id family a second, independent route exists: a strategy only
enters through the canonical shifts realised around the measurement
cycle, the four shifts obey one cyclic constraint, and the value is the
sum of the four shift weights.  `local_bound_cases` computes that
constrained maximum as a max-plus cyclic self-convolution of the integer
weight numerators, which are linear on two pieces, in O(d) time and
memory; `local_bounds` runs both routes and cross-checks them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expressions import (
    BellExpression,
    CrossCheckError,
    _check_dimension,
    _check_family,
    build_expression,
    shift_interval,
)

__all__ = [
    "BRUTEFORCE_MAX_DIMENSION",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "LocalBounds",
    "check_enumeration_cap",
    "local_bound_bruteforce",
    "local_bound_cases",
    "local_bounds",
]

ENUMERATION_CAP = 10_000_000

# The brute force takes O(d^2) memory on a shift-invariant tensor (every
# built-in family's: 8.2 MiB at this d) and about 3.2 bytes times d^3 on any
# other (24.7 MiB at d = 200, about 81 MiB at this d; tracemalloc); past it no
# cap admits the enumeration.
BRUTEFORCE_MAX_DIMENSION = 300

# Two routes computing the same exact rational must agree to roundoff.
CROSS_CHECK_ATOL = 1e-12


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed the strategy cap."""


def check_enumeration_cap(d: int, cap: int = ENUMERATION_CAP) -> None:
    """Raise `EnumerationCapError` when the d^4 strategies exceed ``cap``.

    A ``cap`` that admits a d past `BRUTEFORCE_MAX_DIMENSION` raises too,
    since the enumeration of a tensor that is not shift-invariant takes
    O(d^3) memory, which would not fit; the check sees only d, so it
    applies to every tensor.
    `local_bound_bruteforce` raises through it; `local_bounds` runs it
    first, so it builds no coefficient tensor that the check rejects.
    Raises `ValueError` when d is not an integer of at least 2.
    """
    _check_dimension(d)
    total = d ** 4
    if total > cap:
        raise EnumerationCapError(
            f"enumerating {d}^4 = {total} strategies exceeds the cap {cap}; a larger cap "
            f"admits d up to {BRUTEFORCE_MAX_DIMENSION}, and local_bound_cases bounds Id at any d"
        )
    if d > BRUTEFORCE_MAX_DIMENSION:
        raise EnumerationCapError(
            f"the brute force takes O(d^3) memory; d = {d} exceeds "
            f"{BRUTEFORCE_MAX_DIMENSION}, the largest d any cap admits"
        )


def local_bound_bruteforce(
    expr: BellExpression, *, cap: int = ENUMERATION_CAP
) -> tuple[float, int]:
    """Maximum of a Bell expression over all d^4 deterministic strategies.

    Returns ``(max_value, maximizer_count)``: the maximum and the number
    of strategies that attain it.  Raises `EnumerationCapError` when d^4
    exceeds ``cap`` (`local_bound_cases` bounds Id at any d), and
    `ValueError` when a coefficient is not an integer multiple of
    1/(d-1), as every built-in family's is.

    Sums are carried as exact integer numerators, so ties are exact and
    the maximum takes a single float division.  With (a1, a2) fixed, b1
    only meets ``t00[a1] + t10[a2]`` and b2 only ``t01[a1] + t11[a2]``,
    so the maximum is that of the (a1, a2) table ``max_b1(left) +
    max_b2(right)``, and the count is the dot product of (#b1 at the
    left maximum) and (#b2 at the right maximum) over the winning pairs.
    Each half is one (b, a1, a2) table reduced over b, built in int16
    when twice the largest |numerator| is below 2**15 (every built-in
    family up to `BRUTEFORCE_MAX_DIMENSION`, where it is at most d - 1)
    and in int64 otherwise.

    When every setting pair's table satisfies t[a + 1, b + 1] == t[a, b]
    (mod d), tested cell by cell on the tensor given, adding one
    constant to all four outcomes keeps every strategy's value.  Each
    such orbit has d members, exactly one with a1 = 0, so only a1 = 0 is
    enumerated and the count is multiplied by d: O(d^2) time and memory.
    Any other tensor takes the full O(d^3), about 3 bytes times d^3 in
    int16.  No strategy is listed.
    """
    d = expr.dimension
    check_enumeration_cap(d, cap)
    # (setting pair, b, a): each Bob outcome a contiguous row
    scaled = np.multiply(expr.coefficients.transpose(0, 1, 3, 2), d - 1, order="C")
    t = np.rint(scaled)
    top = float(np.abs(t).max())
    scaled -= t
    # float64 holds integers exactly only below 2**53
    if not (float(np.abs(scaled).max()) <= 1e-6 and top < 2**53):
        raise ValueError(
            f"coefficients must be integer multiples of 1/(d-1) = 1/{d - 1} "
            "for an exact enumeration"
        )
    t = t.astype(np.int16 if 2 * top < 2**15 else np.int64)
    # shift invariance is t[b + 1, a + 1] == t[b, a] (mod d) in every table;
    # `shifted` holds t[b - 1, a - 1]
    rotated = np.concatenate((t[..., -1:], t[..., :-1]), axis=-1)
    shifted = np.concatenate((rotated[..., -1:, :], rotated[..., :-1, :]), axis=-2)
    invariant = np.array_equal(t, shifted)
    # one strategy per orbit, the one with a1 = 0, and d strategies per orbit
    a1_values = 1 if invariant else d
    sums = np.empty((d, a1_values, d), dtype=t.dtype)
    left_best, left_ties = _best_and_ties(t[0, 0, :, :a1_values], t[1, 0], sums)    # over b1
    right_best, right_ties = _best_and_ties(t[0, 1, :, :a1_values], t[1, 1], sums)  # over b2
    pair_best = np.add(left_best, right_best, dtype=np.int64)
    best = pair_best.max()
    winners = pair_best == best
    count = np.dot(left_ties[winners].astype(np.int64), right_ties[winners])
    return int(best) / (d - 1), int(count) * (d // a1_values)


def _best_and_ties(
    first: np.ndarray, second: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum over b of ``first[b, a1] + second[b, a2]`` and its tie count.

    ``sums`` is the (b, a1, a2) buffer, one contiguous (a1, a2) slab per
    Bob outcome, so both reductions run slab by slab over axis 0.
    """
    np.add(first[:, :, None], second[:, None, :], out=sums)
    best = np.maximum.reduce(sums)
    # at most d <= BRUTEFORCE_MAX_DIMENSION ties: int16 counts
    ties = np.add.reduce(sums == best, axis=0, dtype=np.int16)
    return best, ties


def local_bound_cases(d: int) -> tuple[float, set[float]]:
    """Local bound of the Id family via the cyclic shift constraint.

    A strategy's value is N(r) + N(s) + N(t) + N(u) over (d - 1), where
    N is the integer numerator of the shift weight and the canonical
    shifts obey r + s + t + u = -1 (mod d).  That is a max-plus cyclic
    self-convolution of N, computed in two steps: the attainable values
    of N(r) + N(s) for each residue rho of r + s, then their sums with
    the ones at the partner residue -1 - rho.  N is c - 2x on two pieces,
    c = d - 1 on [0, hi] and c = -(d + 1) on [lo, -1], and the sums S of
    two integer intervals have no gaps, so the values at rho are c1 + c2
    - 2S over the 3 piece pairs and the at most 2 S = rho (mod d) in
    [2 lo, 2 hi].  O(d) time and memory; the returned maximum and
    attainable-value set are exact.
    """
    lo, hi = shift_interval(d)
    # piece pairs (+, +), (+, -), (-, -): c1 + c2 and the ends of their sum
    c = np.array([2 * (d - 1), -2, -2 * (d + 1)])
    first, last = np.array([0, lo, 2 * lo]), np.array([2 * hi, hi - 1, -2])
    rho = np.arange(d)
    # the at most two S = rho (mod d) in [2 lo, 2 hi], as a (d, 2, 1) array
    sums = (2 * lo + (rho - 2 * lo) % d)[:, None, None] + [[0], [d]]
    # row rho of `table` holds c1 + c2 - 2S for each S and piece pair, and
    # `filled` marks where S lies in the pair's interval sum
    filled = ((first <= sums) & (sums <= last)).reshape(d, 6)
    table = (c - 2 * sums).reshape(d, 6)
    # the partner residue -1 - rho (mod d) is row d - 1 - rho
    totals = table[:, :, None] + table[::-1, None, :]
    both = filled[:, :, None] & filled[::-1, None, :]
    # a presence table over [-4(d + 1), 4(d + 1)]: a filled entry is
    # N(r) + N(s) with |N| <= d + 1, so |total| <= 4(d + 1); np.unique
    # would import numpy.ma on first use
    span = 4 * (d + 1)
    present = np.zeros(2 * span + 1, dtype=bool)
    present[totals[both] + span] = True
    attained = np.flatnonzero(present) - span
    attainable = {int(n) / (d - 1) for n in attained}
    return int(attained[-1]) / (d - 1), attainable


class LocalBounds(NamedTuple):
    """A family's local bound at one d, with the result of each route that ran.

    ``bruteforce`` is `local_bound_bruteforce`'s (max, maximizer count),
    None past the enumeration cap; ``cases`` is `local_bound_cases`' (max,
    attainable values), None for every family but ``Id``.
    """

    bound: float
    bruteforce: tuple[float, int] | None
    cases: tuple[float, set[float]] | None


def local_bounds(family: str, d: int, cap: int = ENUMERATION_CAP) -> LocalBounds:
    """The local bound of a family by every route that applies, cross-checked.

    ``Id``'s case analysis runs at every d, and its brute force only
    where d^4 is within ``cap``.  Every other brute force, and that one,
    first runs `check_enumeration_cap`, so a tensor is built only when
    the check passes and its `EnumerationCapError` propagates otherwise.
    Raises `CrossCheckError` when both routes ran and their maxima differ
    by more than `CROSS_CHECK_ATOL`.
    """
    _check_family(family)
    _check_dimension(d)
    brute = None
    if family != "Id" or d ** 4 <= cap:
        check_enumeration_cap(d, cap)
        brute = local_bound_bruteforce(build_expression(family, d), cap=cap)
    if family != "Id":
        return LocalBounds(brute[0], brute, None)
    cases = local_bound_cases(d)
    if brute is not None and abs(brute[0] - cases[0]) > CROSS_CHECK_ATOL:
        raise CrossCheckError(
            f"brute-force bound {brute[0]!r} disagrees with "
            f"case analysis {cases[0]!r} at d={d}"
        )
    return LocalBounds(cases[0], brute, cases)
