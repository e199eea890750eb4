"""Derivative-free search over measurement phases (and optionally state
weights) for the maximal expression value.

The search is a seeded random-restart pattern search: each restart
starts from uniform random phase angles, sweeps the coordinates in
order, probes +/- the current step, walks greedily while a direction
keeps improving, and halves the step after a sweep without improvement.
Restarts are independent; the incumbent is the best value seen across
all of them.  Every measurement phase varies: a point holds the four
settings' phases (Alice 0, Alice 1, Bob 0, Bob 1) at levels 1..d-1, the
level-0 phase being pinned to zero because global phases do not change
probabilities.  With ``vary_state_weights`` the d raw Schmidt weights
follow; otherwise the state is maximally entangled.

The search evaluates through the circulant form.  Every Born-rule table
of this setup depends on (k - l) mod d only, like the family's
coefficients, so the value is sum c * |A|^2 over the four length-d
shift-weight vectors c = d * shift_weights(family, d), the family's one
encoding, read without building a coefficient tensor, and the amplitude
vectors

    A[ab, m] = (1/d) * sum_j w_j exp(i [phi_a(j) + chi_b(j) + 2 pi j m / d]),

a matrix product with the Fourier matrix.  `_value_kernel` evaluates a
(K, P) block of points with one (4 K, d) product, and each row's value
is independent of the other rows, bit for bit.  The reported best point
is replayed through the dense Born-rule table and tensor contraction.

The search runs speculatively.  From a restart's current point every
trial up to its next accepted move is known in advance: the pending
walk step, then the +/- probes to the end of the sweep.  The restarts
advance in lockstep in one flat loop: restart r's point, phase factors
and step are row r of three arrays, and the rest of its state is entry
r of plain lists.  Each round evaluates up to ``CHUNK`` of every live
restart's pending trials in one kernel call, and each restart keeps the
prefix up to its first hit, discarding the rest.  The restarts' moves
are merged in restart order afterwards, so traces, evaluation indices
and results are exactly those of running the restarts one after
another, one trial at a time.

A trial moves one coordinate of its restart's point, so the search
builds its phase factors exp(i [phi_a(j) + chi_b(j)]) incrementally:
each restart keeps the (4, d) factors of its current point, and a trial
recomputes only the two that a moved phase enters, or none for a moved
weight.  Tables built once per problem (`_probe_tables`) give each
probe's coordinate, partner coordinates and cells, so a round's trials
take a few numpy calls whatever their number (`_trials`).  Exponentials
are elementwise, so the factors equal those computed from scratch bit
for bit.  Start points compute them from scratch (`_phase_factors`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .expressions import (
    CrossCheckError,
    _check_dimension,
    _check_family,
    build_expression,
    evaluate,
    shift_weights,
)
from .quantum import MeasurementPhases, QuantumSetup, born_rule_distribution

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "maximize",
]

VERIFICATION_ATOL = 1e-9

INITIAL_STEP = 0.8
MIN_STEP = 1e-8
# Speculative trials a restart asks for in each round.
CHUNK = 8


@dataclass(frozen=True)
class OptimizationProblem:
    """Search-space and budget configuration.

    ``budget`` caps the total number of objective evaluations; it is
    split evenly across the restarts, each of which gets at least one,
    so ``restarts`` may not exceed it.  ``seed`` seeds
    `numpy.random.SeedSequence` and must be non-negative.  All three are
    Python or numpy integers, and not bools.
    """

    dimension: int
    family: str = "Id"
    vary_state_weights: bool = False
    budget: int = 50_000
    restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        _check_dimension(self.dimension)
        _check_family(self.family)
        for name in ("budget", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.restarts > self.budget:
            raise ValueError(
                f"restarts ({self.restarts}) must not exceed budget ({self.budget})"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def phase_count(self) -> int:
        """Phases in a point: four settings of d-1 free levels each."""
        return 4 * (self.dimension - 1)

    @property
    def parameter_count(self) -> int:
        return self.phase_count + (self.dimension if self.vary_state_weights else 0)


def _state_weights(d: int, raw: np.ndarray | None) -> np.ndarray:
    """Normalised absolute values of raw weight blocks, row by row.

    ``raw`` holds one block of d weights in its last axis.  ``None``, or a
    block whose norm is not above 1e-12 (all zero, or NaN), gives equal
    weights.  The norm is a row-wise reduction, so a block's weights do
    not depend on the other rows.
    """
    equal = 1.0 / math.sqrt(d)
    if raw is None:
        return np.full(d, equal)
    magnitudes = np.abs(raw)
    norms = np.sqrt(np.add.reduce(magnitudes * magnitudes, axis=-1, keepdims=True))
    flat = ~(norms > 1e-12)
    return np.where(flat, equal, magnitudes / np.where(flat, 1.0, norms))


def _setup_from_parameters(problem: OptimizationProblem, params: np.ndarray) -> QuantumSetup:
    d = problem.dimension
    phase_count = problem.phase_count
    rows = np.zeros((4, d))
    rows[:, 1:] = params[:phase_count].reshape(4, d - 1)
    weights = _state_weights(d, params[phase_count:] if problem.vary_state_weights else None)
    phases = MeasurementPhases(
        dimension=d, alice_vectors=tuple(rows[:2]), bob_vectors=tuple(rows[2:])
    )
    return QuantumSetup(dimension=d, state_weights=weights, phases=phases)


def _phase_factors(dimension: int, block: np.ndarray) -> np.ndarray:
    """Unit phase factors exp(i [phi_a(j) + chi_b(j)]) of a (K, P) block.

    Returns a (K, 4 d) array: the four setting pairs ab in the order
    00, 01, 10, 11, each a run of d levels.  Only the phase columns of
    the block are read.
    """
    d = dimension
    count = len(block)
    rows = np.zeros((count, 4, d))
    rows[:, :, 1:] = block[:, : 4 * (d - 1)].reshape(count, 4, d - 1)
    angles = rows[:, :2, None] + rows[:, None, 2:]  # [K, alice s, bob t, j]
    return np.exp(1j * angles).reshape(count, 4 * d)


def _probe_tables(
    problem: OptimizationProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A problem's probe tables, and where each trial's row starts.

    Probe q moves coordinate q // 2 by +step (q even) or -step (q odd).
    Phase coordinate p, setting s at level j, enters two cells of a row of
    factors, one for each setting t of the other party, whose phase at
    level j is added to it.  Row q of the first table holds the moved
    coordinate, those two partner coordinates and the two cells; the
    second holds the sign of the step.  A weight probe patches no cell; its
    partners and cells repeat its coordinate.  Row i of the third holds
    the offsets of trial i's point and factors in a round's flat arrays,
    in the same five columns.
    """
    d = problem.dimension
    phase_count = problem.phase_count
    coordinates = np.arange(problem.parameter_count)
    settings, levels = np.divmod(coordinates[:phase_count], d - 1)
    other = np.arange(2)
    alice = (settings < 2)[:, None]
    own = (settings % 2)[:, None]
    table = np.repeat(coordinates[:, None], 5, axis=1)
    table[:phase_count, 1:3] = (np.where(alice, 2, 0) + other) * (d - 1) + levels[:, None]
    table[:phase_count, 3:] = (
        np.where(alice, 2 * own + other, 2 * other + own) * d + levels[:, None] + 1
    )
    widths = [problem.parameter_count] * 3 + [4 * d] * 2
    starts = np.arange(CHUNK * problem.restarts)[:, None] * widths
    return table.repeat(2, axis=0), np.tile([1.0, -1.0], problem.parameter_count), starts


def _trials(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    current: np.ndarray,
    cache: np.ndarray,
    steps: np.ndarray,
    owner: np.ndarray,
    probes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """A round's trial points and their phase factors.

    Trial i applies probe ``probes[i]`` to restart ``owner[i]``, whose
    point, phase factors and step are that row of ``current``, ``cache``
    and ``steps``; ``tables`` are the problem's `_probe_tables`.  The
    factors equal `_phase_factors` of the points bit for bit: a trial's
    factors are its restart's with the two cells of a moved phase
    recomputed, since exponentials are elementwise, while a moved weight
    changes none.  At most ``CHUNK`` trials per restart are expected.
    """
    table, signs, starts = tables
    targets = table.take(probes, axis=0) + starts[: len(probes)]
    points = current.take(owner, axis=0)
    flat = points.reshape(-1)
    values = flat.take(targets[:, :3])
    moved = values[:, 0] + signs.take(probes) * steps.take(owner)
    flat.put(targets[:, 0], moved)
    angles = moved[:, None] + values[:, 1:]
    cells = targets[:, 3:]
    phase_probes = 2 * (cache.shape[1] - 4)  # two for each of the 4 (d - 1) phases
    if len(signs) > phase_probes:  # free weights: a weight probe patches no cell
        phase = probes < phase_probes
        angles, cells = angles[phase], cells[phase]
    factors = cache.take(owner, axis=0)
    factors.reshape(-1).put(cells, np.exp(1j * angles))
    return points, factors


def _value_kernel(problem: OptimizationProblem) -> Callable[..., np.ndarray]:
    """Compile a problem into its batched circulant-form value kernel.

    The returned function maps a (K, P) block of flat parameter vectors
    to their K expression values without building a setup or a
    probability table.  A vector holds the phases of levels 1..d-1 for
    Alice's settings 0 and 1, then Bob's settings 0 and 1 (level 0 is
    pinned to zero); then, with ``vary_state_weights``, d raw state
    weights (absolute values, renormalised; an all-zero block means
    equal weights).  The block is not checked.  The function takes the
    block's `_phase_factors` as an optional second argument, computing
    them when they are not given.  The amplitudes of the whole block are
    one (4 K, d) matrix product and the final sum is a row-wise
    reduction, so a row's value depends on that row alone, bit for bit.
    """
    d = problem.dimension
    # |A|^2 summed against c equals the squared real and imaginary parts
    # (a float view of A) summed against c repeated twice.
    pair_weights = np.repeat(d * shift_weights(problem.family, d).ravel(), 2)
    levels = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(levels, levels) / d) / d  # [j, m]
    equal_weights = _state_weights(d, None)
    phase_count = problem.phase_count
    vary_weights = problem.vary_state_weights

    def values(block: np.ndarray, factors: np.ndarray | None = None) -> np.ndarray:
        count = len(block)
        if factors is None:
            factors = _phase_factors(d, block)
        weights = (
            _state_weights(d, block[:, phase_count:])[:, None]
            if vary_weights
            else equal_weights
        )
        amplitudes = (weights * factors.reshape(count, 4, d)).reshape(4 * count, d) @ fourier
        parts = amplitudes.view(np.float64).reshape(count, -1)
        parts *= parts
        parts *= pair_weights
        return np.add.reduce(parts, axis=-1)

    return values


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best point found, with the monotone incumbent trace.

    ``trace`` holds (evaluation_index, incumbent_value) pairs recording
    every improvement; ``improved`` is False when nothing beat the very
    first sampled point.  ``evaluations`` counts the objective evaluations
    spent: the whole budget share of each restart, less what a restart
    left unspent when its step fell to ``MIN_STEP``.
    """

    best_value: float
    best_phases: MeasurementPhases
    best_state_weights: np.ndarray
    trace: tuple[tuple[int, float], ...]
    improved: bool
    evaluations: int


def _initial_point(problem: OptimizationProblem, rng: np.random.Generator) -> np.ndarray:
    parts = [rng.uniform(0.0, 2.0 * np.pi, size=problem.phase_count)]
    if problem.vary_state_weights:
        parts.append(rng.uniform(0.1, 1.0, size=problem.dimension))
    return np.concatenate(parts)


def maximize(problem: OptimizationProblem) -> OptimizationResult:
    """Run the seeded random-restart pattern search.

    Identical problems produce identical traces and results, equal bit
    for bit to running the restarts one after the other, one trial at a
    time.  The restarts advance in lockstep: each round evaluates up to
    ``CHUNK`` pending trials of every live restart in one kernel call,
    each trial's phase factors patched from its restart's.  The final
    best value is re-verified from the result's own phases and weights
    through the dense Born-rule table and tensor contraction.  A
    disagreement beyond 1e-9, or a search in which every value was NaN
    or -inf, raises `CrossCheckError`.
    """
    values_of = _value_kernel(problem)
    tables = _probe_tables(problem)
    sweep = 2 * problem.parameter_count
    per_restart = problem.budget // problem.restarts
    # Row r holds restart r's current point, its phase factors and its step.
    current = np.array([
        _initial_point(problem, np.random.default_rng(seed))
        for seed in np.random.SeedSequence(problem.seed).spawn(problem.restarts)
    ])
    cache = _phase_factors(problem.dimension, current)
    steps = np.full(problem.restarts, INITIAL_STEP)
    # Entry r of each list is restart r's state: its value, its unspent
    # budget, its next sweep probe, the probe it retries after a hit (or
    # None), whether this sweep moved, and the evaluations it consumed.
    # After a hit on probe q the restart walks: it retries q from the new
    # point until that misses, then resumes the sweep at probe 2 (q // 2 + 1).
    # ``moves`` logs every accepted value, the initial one included, as
    # (evaluation, value), counted from 1 within the restart; ``best_point``
    # is the point of the first move that beats every earlier move (strict
    # ``>``, so never a NaN).
    fx = values_of(current, cache).tolist()
    rows = range(problem.restarts)
    remaining = [per_restart - 1] * problem.restarts
    position = [0] * problem.restarts
    walk: list[int | None] = [None] * problem.restarts
    moved = [False] * problem.restarts
    consumed = [1] * problem.restarts
    moves = [[(1, value)] for value in fx]
    best = [-math.inf] * problem.restarts
    best_point: list[np.ndarray | None] = [None] * problem.restarts
    for r in rows:
        if fx[r] > best[r]:
            best[r], best_point[r] = fx[r], current[r].copy()

    live = list(rows)
    while live := [r for r in live if remaining[r] > 0 and steps[r] > MIN_STEP]:
        # Every trial up to a restart's next possible move is known: the
        # walk step, then the probes to the end of the sweep.
        keys: list[int] = []  # restart r's probe q is key r * sweep + q
        ends = []
        for r in live:
            start, retry, base = position[r], walk[r], r * sweep
            limit = min(CHUNK, remaining[r])
            if retry is not None:
                keys.append(base + retry)
                limit -= 1
            keys += range(base + start, base + min(sweep, start + limit))
            ends.append(len(keys))
        owner, probes = np.divmod(np.array(keys), sweep)
        points, factors = _trials(tables, current, cache, steps, owner, probes)
        values = values_of(points, factors).tolist()
        # Each restart keeps the prefix of its trials that the one-at-a-time
        # search makes: it ends at the first ``not (f <= fx)``, which also
        # accepts a NaN; later trials started from a stale point.
        start = 0
        for r, end in zip(live, ends):
            incumbent = fx[r]
            for i in range(start, end):
                if not values[i] <= incumbent:
                    probe, used = keys[i] - r * sweep, i + 1 - start
                    consumed[r] += used
                    remaining[r] -= used
                    fx[r] = values[i]
                    moved[r] = True
                    walk[r] = probe
                    position[r] = (probe | 1) + 1
                    current[r, probe >> 1] = points[i, probe >> 1]
                    cache[r] = factors[i]
                    moves[r].append((consumed[r], fx[r]))
                    if fx[r] > best[r]:
                        best[r], best_point[r] = fx[r], current[r].copy()
                    break
            else:
                consumed[r] += end - start
                remaining[r] -= end - start
                position[r] += end - start - (walk[r] is not None)
                walk[r] = None
                if position[r] == sweep:
                    if not moved[r]:
                        steps[r] *= 0.5
                    moved[r] = False
                    position[r] = 0
            start = end

    # Merge in restart order, as if the restarts had run one after another.
    # The last incumbent a restart sets is its best point.
    trace: list[tuple[int, float]] = []
    best_value = -math.inf
    best_params: np.ndarray | None = None
    offset = 0
    for r in rows:
        for evaluation, value in moves[r]:
            if value > best_value:
                best_value, best_params = value, best_point[r]
                trace.append((offset + evaluation, value))
        offset += consumed[r]
    initial_value = moves[0][0][1]

    if best_params is None:
        raise CrossCheckError(
            "search recorded no incumbent: every objective value was NaN or -inf"
        )
    setup = _setup_from_parameters(problem, best_params)
    verified = evaluate(
        build_expression(problem.family, problem.dimension),
        born_rule_distribution(setup),
    )
    if abs(verified - best_value) > VERIFICATION_ATOL:
        raise CrossCheckError(
            f"re-verification mismatch: search reported {best_value}, "
            f"recomputation gives {verified}"
        )
    return OptimizationResult(
        best_value=verified,
        best_phases=setup.phases,
        best_state_weights=setup.state_weights,
        trace=tuple(trace),
        improved=best_value > initial_value,
        evaluations=sum(consumed),
    )
