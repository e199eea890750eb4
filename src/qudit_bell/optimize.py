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
advance in lockstep; each round evaluates up to ``CHUNK`` of every live
restart's pending trials in one kernel call, and each restart keeps the
prefix up to its first hit, discarding the rest.  The restarts' moves
are merged in restart order afterwards, so traces, evaluation indices
and results are exactly those of running the restarts one after
another, one trial at a time.

A trial moves one coordinate of its restart's point, so the search
builds its phase factors exp(i [phi_a(j) + chi_b(j)]) incrementally:
each restart keeps the (4, d) factors of its current point, and a trial
recomputes only the two that a moved phase enters (`_trial_builder`), or
none for a moved weight.  Exponentials are elementwise, so the factors
equal those computed from scratch bit for bit.  Start points compute
them from scratch (`_phase_factors`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

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
    `numpy.random.SeedSequence` and must be non-negative.
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


def _trial_builder(
    problem: OptimizationProblem,
) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Compile a problem into the builder of a round's trials.

    The returned function takes the restarts' current points and phase
    factors, one row per restart, their steps, and each trial's restart
    (``owner``) and probe.  Probe k adds +step (k even) or -step (k odd)
    to coordinate k // 2.  It returns the trial points and their phase
    factors, equal bit for bit to `_phase_factors` of those points: a
    trial's factors are its restart's with the two cells of a moved phase
    recomputed, since exponentials are elementwise, while a moved weight
    changes none.  At most ``CHUNK`` trials per restart are expected.
    """
    d = problem.dimension
    phase_count = problem.phase_count
    # Phase coordinate p, setting s at level j, enters two cells of a row of
    # factors, one for each setting t of the other party, whose phase at
    # level j is added to it.  Row p of the table holds the offsets of those
    # two partner coordinates from p, then the two cells.
    settings, levels = np.divmod(np.arange(phase_count), d - 1)
    other = np.arange(2)
    alice = (settings < 2)[:, None]
    own = (settings % 2)[:, None]
    partners = (np.where(alice, 2, 0) + other) * (d - 1) + levels[:, None]
    cells = np.where(alice, 2 * own + other, 2 * other + own) * d + levels[:, None] + 1
    patch_table = np.hstack([partners - np.arange(phase_count)[:, None], cells])
    signs = np.tile([1.0, -1.0], problem.parameter_count)
    # Where each trial's row starts in the flattened points and factors.
    rows = np.arange(CHUNK * problem.restarts)
    point_starts = rows * problem.parameter_count
    factor_starts = rows * (4 * d)
    vary_weights = problem.vary_state_weights

    def trials(
        current: np.ndarray,
        cache: np.ndarray,
        steps: np.ndarray,
        owner: np.ndarray,
        probes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        count = len(owner)
        coordinates = probes >> 1
        points = current.take(owner, axis=0)
        factors = cache.take(owner, axis=0)
        flat_points = points.reshape(-1)
        moved = point_starts[:count] + coordinates
        flat_points[moved] += signs.take(probes) * steps.take(owner)
        targets = factor_starts[:count]
        if vary_weights:
            phase = coordinates < phase_count
            coordinates, moved, targets = coordinates[phase], moved[phase], targets[phase]
        patches = patch_table.take(coordinates, axis=0)
        angles = flat_points.take(moved)[:, None] + flat_points.take(
            moved[:, None] + patches[:, :2]
        )
        factors.reshape(-1).put(targets[:, None] + patches[:, 2:], np.exp(1j * angles))
        return points, factors

    return trials


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


@dataclass(eq=False)
class _Restart:
    """One restart of the pattern search, advanced a batch of trials at a time.

    Probe k of a sweep moves coordinate k // 2 by +step (k even) or
    -step (k odd).  After a hit on probe k the restart walks: it retries
    probe k from the new point until that misses, then resumes the sweep
    at probe 2 (k // 2 + 1).  The restart's current point, its phase
    factors and its step live in row ``row`` of the search's arrays.
    ``moves`` logs every accepted value, the initial one included, as
    (evaluation, value), with evaluations counted from 1 within this
    restart; ``best_point`` is the point of the first move that beats
    every earlier move (strict ``>``, so never a NaN).
    """

    row: int
    fx: float
    remaining: int
    position: int = 0
    moved: bool = False
    walk: int | None = None
    consumed: int = 1
    moves: list[tuple[int, float]] = field(default_factory=list)
    best: float = -math.inf
    best_point: np.ndarray | None = None

    def record(self, point: np.ndarray) -> None:
        """Log the move to ``point``, whose value is ``fx``."""
        self.moves.append((self.consumed, self.fx))
        if self.fx > self.best:
            self.best, self.best_point = self.fx, point.copy()

    def pending(self, sweep: int) -> list[int]:
        """Probes of the trials up to the next possible move.

        Every trial up to the next hit is known in advance: the walk step,
        then the probes to the end of the sweep.  At most ``CHUNK`` of them
        are returned, and never more than the remaining budget.
        """
        limit = min(CHUNK, self.remaining)
        probes = list(range(self.position, min(sweep, self.position + limit)))
        if self.walk is not None:
            probes = [self.walk, *probes][:limit]
        return probes

    def consume(
        self, probes: list[int], values: list[float], sweep: int, steps: np.ndarray
    ) -> int | None:
        """Keep the prefix of the trials that the one-at-a-time search makes.

        That prefix ends at the first trial with ``not (f <= fx)``, which
        also accepts a NaN value; later trials started from a stale point
        and are dropped.  Returns the index of that hit, or None.  A sweep
        that ends without a move halves this restart's entry of ``steps``.
        """
        hit = next((i for i, value in enumerate(values) if not value <= self.fx), None)
        used = len(values) if hit is None else hit + 1
        self.consumed += used
        self.remaining -= used
        if hit is not None:
            self.fx = values[hit]
            self.moved = True
            self.walk = probes[hit]
            self.position = (self.walk | 1) + 1
            return hit
        self.position += used - (self.walk is not None)
        self.walk = None
        if self.position == sweep:
            if not self.moved:
                steps[self.row] *= 0.5
            self.moved = False
            self.position = 0
        return None


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
    trials_of = _trial_builder(problem)
    sweep = 2 * problem.parameter_count
    per_restart = problem.budget // problem.restarts
    # Row r holds restart r's current point, its phase factors and its step.
    current = np.array([
        _initial_point(problem, np.random.default_rng(seed))
        for seed in np.random.SeedSequence(problem.seed).spawn(problem.restarts)
    ])
    cache = _phase_factors(problem.dimension, current)
    steps = np.full(problem.restarts, INITIAL_STEP)
    restarts = [
        _Restart(row, fx, per_restart - 1)
        for row, fx in enumerate(values_of(current, cache).tolist())
    ]
    for restart in restarts:
        restart.record(current[restart.row])

    live = restarts
    while live := [
        restart for restart in live
        if restart.remaining > 0 and steps[restart.row] > MIN_STEP
    ]:
        batches = [restart.pending(sweep) for restart in live]
        owner = np.array([restart.row for restart in live]).repeat(
            [len(probes) for probes in batches]
        )
        probes = np.fromiter(itertools.chain.from_iterable(batches), np.intp, len(owner))
        points, factors = trials_of(current, cache, steps, owner, probes)
        values = values_of(points, factors).tolist()
        offset = 0
        for restart, probes in zip(live, batches):
            end = offset + len(probes)
            hit = restart.consume(probes, values[offset:end], sweep, steps)
            if hit is not None:
                current[restart.row] = points[offset + hit]
                cache[restart.row] = factors[offset + hit]
                restart.record(current[restart.row])
            offset = end

    # Merge in restart order, as if the restarts had run one after another.
    # The last incumbent a restart sets is its best point.
    trace: list[tuple[int, float]] = []
    best_value = -math.inf
    best_params: np.ndarray | None = None
    offset = 0
    for restart in restarts:
        for evaluation, value in restart.moves:
            if value > best_value:
                best_value, best_params = value, restart.best_point
                trace.append((offset + evaluation, value))
        offset += restart.consumed
    initial_value = restarts[0].moves[0][1]

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
        evaluations=sum(restart.consumed for restart in restarts),
    )
