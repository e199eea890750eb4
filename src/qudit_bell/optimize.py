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

one (4, d) matrix product per evaluation.  `_value_kernel` evaluates a
(K, P) block of points at once, and each row's value is independent of
the other rows, bit for bit.  The reported best point is replayed
through the dense Born-rule table and tensor contraction.

The search runs speculatively.  From a restart's current point every
trial up to its next accepted move is known in advance: the pending
walk step, then the +/- probes to the end of the sweep.  The restarts
advance in lockstep; each round evaluates up to ``CHUNK`` of every live
restart's pending trials in one kernel call, and each restart keeps the
prefix up to its first hit, discarding the rest.  The restarts' moves
are merged in restart order afterwards, so traces, evaluation indices
and results are exactly those of running the restarts one after
another, one trial at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

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
    "objective",
    "write_trace_csv",
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


def _value_kernel(problem: OptimizationProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a problem into its batched circulant-form value kernel.

    The returned function maps a (K, P) block of flat parameter vectors
    (layout of `objective`, unchecked) to their K expression values
    without building a setup or a probability table.  A row's value
    depends on that row alone, bit for bit: the amplitudes are one
    (4, d) matrix product per row and the final sum is a row-wise
    reduction, never a product across rows.
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

    def values(block: np.ndarray) -> np.ndarray:
        count = len(block)
        rows = np.zeros((count, 4, d))
        rows[:, :, 1:] = block[:, :phase_count].reshape(count, 4, d - 1)
        weights = (
            _state_weights(d, block[:, phase_count:])[:, None, None]
            if vary_weights
            else equal_weights
        )
        angles = rows[:, :2, None] + rows[:, None, 2:]  # [K, alice s, bob t, j]
        amplitudes = (weights * np.exp(1j * angles)).reshape(count, 4, d) @ fourier
        parts = amplitudes.view(np.float64).reshape(count, -1)
        return np.add.reduce(pair_weights * (parts * parts), axis=-1)

    return values


def objective(problem: OptimizationProblem, parameters) -> float:
    """Expression value of the setup encoded by a flat parameter vector.

    Layout: the phases of levels 1..d-1 for Alice's settings 0 and 1,
    then Bob's settings 0 and 1 (level 0 is pinned to zero); then, with
    ``vary_state_weights``, d raw state weights (absolute values,
    renormalised internally; an all-zero block means equal weights).
    """
    params = np.asarray(parameters, dtype=float)
    if params.shape != (problem.parameter_count,):
        raise ValueError(
            f"expected {problem.parameter_count} parameters, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError("parameters must be finite")
    return float(_value_kernel(problem)(params[None])[0])


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
    at probe 2 (k // 2 + 1).  ``moves`` logs every accepted point, the
    initial one included, as (evaluation, value, point), with evaluations
    counted from 1 within this restart.
    """

    x: np.ndarray
    fx: float
    remaining: int
    step: float = INITIAL_STEP
    position: int = 0
    moved: bool = False
    walk: int | None = None
    consumed: int = 1
    moves: list[tuple[int, float, np.ndarray]] = field(default_factory=list)

    @property
    def live(self) -> bool:
        return self.remaining > 0 and self.step > MIN_STEP

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
        self, probes: list[int], values: list[float], points: np.ndarray, sweep: int
    ) -> None:
        """Keep the prefix of the trials that the one-at-a-time search makes.

        That prefix ends at the first trial with ``not (f <= fx)``, which
        also accepts a NaN value; later trials started from a stale point
        and are dropped.
        """
        hit = next((i for i, value in enumerate(values) if not value <= self.fx), None)
        used = len(values) if hit is None else hit + 1
        self.consumed += used
        self.remaining -= used
        if hit is not None:
            self.x = points[hit].copy()
            self.fx = values[hit]
            self.moves.append((self.consumed, self.fx, self.x))
            self.moved = True
            self.walk = probes[hit]
            self.position = (self.walk | 1) + 1
            return
        self.position += used - (self.walk is not None)
        self.walk = None
        if self.position == sweep:
            if not self.moved:
                self.step *= 0.5
            self.moved = False
            self.position = 0


def maximize(problem: OptimizationProblem) -> OptimizationResult:
    """Run the seeded random-restart pattern search.

    Identical problems produce identical traces and results, equal bit
    for bit to running the restarts one after the other, one trial at a
    time.  The restarts advance in lockstep: each round evaluates up to
    ``CHUNK`` pending trials of every live restart in one kernel call.  The final best
    value is re-verified from the result's own phases and weights through
    the dense Born-rule table and tensor contraction.  A disagreement
    beyond 1e-9, or a search in which every value was NaN or -inf, raises
    `CrossCheckError`.
    """
    values_of = _value_kernel(problem)
    sweep = 2 * problem.parameter_count
    per_restart = problem.budget // problem.restarts
    starts = np.array([
        _initial_point(problem, np.random.default_rng(seed))
        for seed in np.random.SeedSequence(problem.seed).spawn(problem.restarts)
    ])
    restarts = [
        _Restart(x, fx, per_restart - 1, moves=[(1, fx, x)])
        for x, fx in zip(starts, values_of(starts).tolist())
    ]

    live = [restart for restart in restarts if restart.live]
    while live:
        batches = [restart.pending(sweep) for restart in live]
        counts = [len(probes) for probes in batches]
        owner = np.repeat(np.arange(len(live)), counts)
        probes = np.fromiter(itertools.chain.from_iterable(batches), np.intp, len(owner))
        steps = np.array([restart.step for restart in live])[owner]
        # Probe k adds +step (k even) or -step (k odd) to coordinate k // 2.
        points = np.array([restart.x for restart in live])[owner]
        points[np.arange(len(owner)), probes >> 1] += np.where(probes & 1, -steps, steps)
        values = values_of(points).tolist()
        offset = 0
        for restart, probes, count in zip(live, batches, counts):
            end = offset + count
            restart.consume(probes, values[offset:end], points[offset:end], sweep)
            offset = end
        live = [restart for restart in live if restart.live]

    # Merge in restart order, as if the restarts had run one after another.
    trace: list[tuple[int, float]] = []
    best_value = -math.inf
    best_params: np.ndarray | None = None
    offset = 0
    for restart in restarts:
        for evaluation, value, point in restart.moves:
            if value > best_value:
                best_value, best_params = value, point
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


def write_trace_csv(result: OptimizationResult, path) -> None:
    """Write the incumbent trace as CSV with round-trippable floats."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["evaluation_index", "incumbent_value"])
        for index, value in result.trace:
            writer.writerow([index, repr(value)])
