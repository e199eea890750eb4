"""Derivative-free search over measurement phases (and optionally state
weights) for the maximal expression value.

The search is a seeded random-restart pattern search: each restart
starts from uniform random phase angles, sweeps the coordinates in
order, probes +/- the current step, walks greedily while a direction
keeps improving, and halves the step after a sweep without improvement.
Restarts are independent; the incumbent is the best value seen across
all of them.  The level-0 phase of every setting is pinned to zero
(global phases do not change probabilities), so a varied party
contributes d-1 parameters per setting.  Fixed blocks stay at the
reference construction: linear reference phases and equal state weights.

The search evaluates through the circulant form.  Every built-in
coefficient tensor depends on (k - l) mod d only, and so does every
Born-rule table of this setup, so the value is sum c * |A|^2 over four
length-d shift-weight vectors c (scaled by d) and the amplitude vectors

    A[ab, m] = (1/d) * sum_j w_j exp(i [phi_a(j) + chi_b(j) + 2 pi j m / d]),

one (4, d) matrix product per evaluation.  The reported best point is
replayed through the dense Born-rule table and tensor contraction.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import FAMILIES, BellExpression, build_expression, evaluate
from .quantum import (
    REFERENCE_ALICE_SLOPES,
    REFERENCE_BOB_SLOPES,
    MeasurementPhases,
    QuantumSetup,
    born_rule_distribution,
)

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


@dataclass(frozen=True)
class OptimizationProblem:
    """Search-space and budget configuration.

    ``budget`` caps the total number of objective evaluations; it is
    split evenly across the restarts.
    """

    dimension: int
    family: str = "Id"
    vary_alice_phases: bool = True
    vary_bob_phases: bool = True
    vary_state_weights: bool = False
    budget: int = 50_000
    restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not (self.vary_alice_phases or self.vary_bob_phases or self.vary_state_weights):
            raise ValueError("at least one parameter block must vary")

    @property
    def parameter_count(self) -> int:
        d = self.dimension
        n = 0
        if self.vary_alice_phases:
            n += 2 * (d - 1)
        if self.vary_bob_phases:
            n += 2 * (d - 1)
        if self.vary_state_weights:
            n += d
        return n


def _state_weights(d: int, raw: np.ndarray | None) -> np.ndarray:
    """Normalised absolute values of a raw weight block.

    ``None`` or an all-zero block gives equal weights.
    """
    if raw is not None:
        magnitudes = np.abs(raw)
        norm = float(np.linalg.norm(magnitudes))
        if norm > 1e-12:
            return magnitudes / norm
    return np.full(d, 1.0 / math.sqrt(d))


def _setup_from_parameters(problem: OptimizationProblem, params: np.ndarray) -> QuantumSetup:
    d = problem.dimension
    pos = 0

    def take(n: int) -> np.ndarray:
        nonlocal pos
        block = params[pos : pos + n]
        pos += n
        return block

    def phase_pair() -> tuple[np.ndarray, np.ndarray]:
        return tuple(
            np.concatenate([[0.0], take(d - 1)]) for _ in range(2)
        )

    alice_vectors = phase_pair() if problem.vary_alice_phases else None
    bob_vectors = phase_pair() if problem.vary_bob_phases else None
    weights = _state_weights(d, take(d) if problem.vary_state_weights else None)
    phases = MeasurementPhases(
        dimension=d, alice_vectors=alice_vectors, bob_vectors=bob_vectors
    )
    return QuantumSetup(dimension=d, state_weights=weights, phases=phases)


def _shift_weights(expr: BellExpression) -> np.ndarray:
    """Shift-weight vectors c[a, b, m] = d * coefficients[a, b, m, 0].

    Raises ValueError unless every coefficient depends on the outcome
    difference (k - l) mod d only.
    """
    d = expr.dimension
    levels = np.arange(d)
    shifts = expr.coefficients[:, :, :, 0]
    if not np.array_equal(
        expr.coefficients, shifts[:, :, (levels[:, None] - levels[None, :]) % d]
    ):
        raise ValueError(
            f"coefficient tensor of family {expr.family!r} at d={d} is not circulant"
        )
    return d * shifts


# Rows of the (4, d) phase table [alice 0, alice 1, bob 0, bob 1] that
# combine into setting pairs (0, 0), (0, 1), (1, 0), (1, 1).
_ALICE_ROWS = np.array([0, 0, 1, 1])
_BOB_ROWS = np.array([2, 3, 2, 3])


def _value_function(problem: OptimizationProblem) -> Callable[[np.ndarray], float]:
    """Compile a problem into its circulant-form value function.

    The returned function maps a flat parameter vector (layout of
    `objective`, length unchecked) to the expression value without
    building a setup or a probability table.
    """
    d = problem.dimension
    shift_weights = _shift_weights(build_expression(problem.family, d)).ravel()
    # |A|^2 summed against c equals the squared real and imaginary parts
    # (a float view of A) summed against c repeated twice.
    pair_weights = np.repeat(shift_weights, 2)
    levels = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(levels, levels) / d) / d  # [j, m]
    scale = 2.0 * math.pi / d
    reference_rows = np.array(
        [scale * s * levels for s in REFERENCE_ALICE_SLOPES + REFERENCE_BOB_SLOPES]
    )
    equal_weights = _state_weights(d, None)
    # The varied phase rows are contiguous: Alice's, Bob's or both.
    first = 0 if problem.vary_alice_phases else 2
    last = 4 if problem.vary_bob_phases else 2
    phase_count = (last - first) * (d - 1)
    vary_weights = problem.vary_state_weights

    def value(params: np.ndarray) -> float:
        rows = reference_rows.copy()
        rows[first:last, 1:] = params[:phase_count].reshape(last - first, d - 1)
        weights = (
            _state_weights(d, params[phase_count : phase_count + d])
            if vary_weights
            else equal_weights
        )
        angles = rows[_ALICE_ROWS] + rows[_BOB_ROWS]
        amplitudes = (weights * np.exp(1j * angles)) @ fourier
        parts = amplitudes.view(np.float64).ravel()
        return float(np.dot(pair_weights, parts * parts))

    return value


def objective(problem: OptimizationProblem, parameters) -> float:
    """Expression value of the setup encoded by a flat parameter vector.

    Layout: varied Alice phase vectors (levels 1..d-1 per setting), then
    varied Bob phase vectors, then raw state weights (absolute values,
    renormalised internally; an all-zero block means equal weights).
    """
    params = np.asarray(parameters, dtype=float)
    if params.shape != (problem.parameter_count,):
        raise ValueError(
            f"expected {problem.parameter_count} parameters, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError("parameters must be finite")
    return _value_function(problem)(params)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best point found, with the monotone incumbent trace.

    ``trace`` holds (evaluation_index, incumbent_value) pairs recording
    every improvement; ``improved`` is False when nothing beat the very
    first sampled point.
    """

    best_value: float
    best_phases: MeasurementPhases
    best_state_weights: np.ndarray
    trace: tuple[tuple[int, float], ...]
    improved: bool


def _initial_point(problem: OptimizationProblem, rng: np.random.Generator) -> np.ndarray:
    d = problem.dimension
    settings = (2 if problem.vary_alice_phases else 0) + (2 if problem.vary_bob_phases else 0)
    parts = [rng.uniform(0.0, 2.0 * np.pi, size=settings * (d - 1))]
    if problem.vary_state_weights:
        parts.append(rng.uniform(0.1, 1.0, size=d))
    return np.concatenate(parts)


def maximize(problem: OptimizationProblem) -> OptimizationResult:
    """Run the seeded random-restart pattern search.

    Identical problems produce identical traces and results.  The search
    evaluates through the circulant form; the final best value is
    re-verified from the result's own phases and weights through the
    dense Born-rule table and tensor contraction, and a disagreement
    beyond 1e-9 raises RuntimeError.
    """
    value_of = _value_function(problem)
    n = problem.parameter_count
    per_restart = max(1, problem.budget // problem.restarts)
    seeds = np.random.SeedSequence(problem.seed).spawn(problem.restarts)

    evaluations = 0
    trace: list[tuple[int, float]] = []
    best_value = -math.inf
    best_params: np.ndarray | None = None
    initial_value: float | None = None

    def record(candidate: float, params: np.ndarray) -> None:
        nonlocal best_value, best_params
        if candidate > best_value:
            best_value = candidate
            best_params = params.copy()
            trace.append((evaluations, candidate))

    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = _initial_point(problem, rng)
        fx = value_of(x)
        evaluations += 1
        remaining = per_restart - 1
        if initial_value is None:
            initial_value = fx
        record(fx, x)

        step = INITIAL_STEP
        while remaining > 0 and step > MIN_STEP:
            moved = False
            for coord in range(n):
                if remaining <= 0:
                    break
                for sign in (1.0, -1.0):
                    if remaining <= 0:
                        break
                    trial = x.copy()
                    trial[coord] += sign * step
                    ft = value_of(trial)
                    evaluations += 1
                    remaining -= 1
                    if ft <= fx:
                        continue
                    x, fx = trial, ft
                    moved = True
                    record(fx, x)
                    while remaining > 0:  # keep walking while the direction pays
                        trial = x.copy()
                        trial[coord] += sign * step
                        ft = value_of(trial)
                        evaluations += 1
                        remaining -= 1
                        if ft <= fx:
                            break
                        x, fx = trial, ft
                        record(fx, x)
                    break
            if not moved:
                step *= 0.5

    if best_params is None or initial_value is None:
        raise RuntimeError("search recorded no incumbent: every objective value was NaN or -inf")
    setup = _setup_from_parameters(problem, best_params)
    verified = evaluate(
        build_expression(problem.family, problem.dimension),
        born_rule_distribution(setup),
    )
    if abs(verified - best_value) > VERIFICATION_ATOL:
        raise RuntimeError(
            f"re-verification mismatch: search reported {best_value}, "
            f"recomputation gives {verified}"
        )
    return OptimizationResult(
        best_value=verified,
        best_phases=setup.phases,
        best_state_weights=setup.state_weights,
        trace=tuple(trace),
        improved=best_value > initial_value,
    )


def write_trace_csv(result: OptimizationResult, path) -> None:
    """Write the incumbent trace as CSV with round-trippable floats."""
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["evaluation_index", "incumbent_value"])
        for index, value in result.trace:
            writer.writerow([index, repr(value)])
