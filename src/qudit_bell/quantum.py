"""Reference quantum model: an entangled qudit pair measured in phased
Fourier bases.

The shared state has Schmidt weights w_j (equal weights 1/sqrt(d) by
default).  A measurement applies per-level phases exp(i * phase(j))
followed by a Fourier transform and a computational-basis readout, so
the joint amplitude for outcomes (k, l) is

    (1/d) * sum_j w_j exp(i [phi_a(j) + chi_b(j) + (2 pi / d) j (k - l)])

and depends on k - l only.  The reference phases are linear in j with
slopes (0, 1/2) for Alice and (1/4, -1/4) for Bob, in units of 2 pi / d.
For those the joint probabilities collapse to the closed form

    P(A_a = k, B_b = l) = 1 / (2 d^3 sin^2[pi (k - l + alpha_a + beta_b) / d])

whose difference-class correlators q_c = P(A1 = B1 + c) equal
1 / (2 d^2 sin^2[pi (c + 1/4) / d]) and obey the strict ordering
q_0 > q_{-1} > q_1 > q_{-2} > ...  The I, I3 and Id values, their noise
thresholds, and the large-d limit 32 * G / pi^2 (G = Catalan's constant)
all follow from these correlators.  `family_profile` gathers each
family's value, local bound and white-noise value without building a
(2, 2, d, d) table, and derives the noise threshold and the noisy value
from them; `reproduction_table` checks the paper's reference decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expressions import (
    CrossCheckError,
    JointDistribution,
    _check_dimension,
    _check_family,
    _check_setting,
    _own_distribution,
    _readonly_array,
    shift_interval,
)

__all__ = [
    "REFERENCE_ALICE_SLOPES",
    "REFERENCE_BOB_SLOPES",
    "REPRODUCTION_RTOL",
    "FamilyProfile",
    "MeasurementPhases",
    "QuantumSetup",
    "asymptotic_value",
    "born_rule_distribution",
    "catalan_constant",
    "closed_form_distribution",
    "family_profile",
    "noise_threshold",
    "ordered_shifts",
    "quantum_correlator",
    "quantum_correlators",
    "quantum_value",
    "quantum_value_I",
    "quantum_value_I3",
    "reproduction_table",
]

REFERENCE_ALICE_SLOPES = (0.0, 0.5)
REFERENCE_BOB_SLOPES = (0.25, -0.25)

STATE_NORM_ATOL = 1e-12

# Reference decimals are checked at this relative tolerance.
REPRODUCTION_RTOL = 5e-5


def _phase_vectors(vectors, d: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    if len(vectors) != 2:
        raise ValueError(f"{name} needs one phase vector per setting, got {len(vectors)}")
    return tuple(
        _readonly_array(vec, (d,), f"{name}[{setting}]") for setting, vec in enumerate(vectors)
    )


@dataclass(frozen=True, eq=False)
class MeasurementPhases:
    """Per-setting measurement phases for both parties.

    ``alice_vectors`` and ``bob_vectors`` hold one phase vector per
    setting, in radians and of length d: entry j is the phase of level
    j.  They are copied and stored read-only.  `reference` builds the
    linear phases (2 pi / d) * slope * j of the reference slopes.
    """

    dimension: int
    alice_vectors: tuple[np.ndarray, np.ndarray]
    bob_vectors: tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        d = self.dimension
        _check_dimension(d)
        for name in ("alice_vectors", "bob_vectors"):
            object.__setattr__(self, name, _phase_vectors(getattr(self, name), d, name))

    @classmethod
    def reference(cls, d: int) -> "MeasurementPhases":
        """The linear-phase construction behind the closed-form table."""
        _check_dimension(d)
        step, levels = 2.0 * math.pi / d, np.arange(d)
        alice, bob = (
            [step * slope * levels for slope in slopes]
            for slopes in (REFERENCE_ALICE_SLOPES, REFERENCE_BOB_SLOPES)
        )
        return cls(dimension=d, alice_vectors=alice, bob_vectors=bob)

    def alice_phase(self, setting: int) -> np.ndarray:
        _check_setting(setting, "setting")
        return self.alice_vectors[setting]

    def bob_phase(self, setting: int) -> np.ndarray:
        _check_setting(setting, "setting")
        return self.bob_vectors[setting]


@dataclass(frozen=True, eq=False)
class QuantumSetup:
    """Shared state (Schmidt weights) plus measurement phases."""

    dimension: int
    state_weights: np.ndarray
    phases: MeasurementPhases

    def __post_init__(self) -> None:
        d = self.dimension
        _check_dimension(d)
        weights = _readonly_array(self.state_weights, (d,), "state_weights", dtype=complex)
        norm = float(np.sum(np.abs(weights) ** 2))
        if abs(norm - 1.0) > STATE_NORM_ATOL:
            raise ValueError(f"state weights have squared norm {norm}, expected 1")
        object.__setattr__(self, "state_weights", weights)
        if self.phases.dimension != d:
            raise ValueError(
                f"phases built for d={self.phases.dimension}, setup has d={d}"
            )

    @classmethod
    def maximally_entangled(cls, d: int, phases: MeasurementPhases | None = None) -> "QuantumSetup":
        """Equal Schmidt weights 1/sqrt(d), reference phases by default."""
        _check_dimension(d)
        return cls(
            dimension=d,
            state_weights=np.full(d, 1.0 / math.sqrt(d)),
            phases=phases if phases is not None else MeasurementPhases.reference(d),
        )


def born_rule_distribution(setup: QuantumSetup) -> JointDistribution:
    """Joint outcome probabilities of a setup, from the Born rule.

    The outcome-pair amplitude depends on k - l only, so each setting
    pair is assembled from its d difference-class probabilities
    |sum_j w_j exp(i [phases(j) + 2 pi j m / d])|^2 / d^2 with
    m = (k - l) mod d.
    """
    d = setup.dimension
    levels = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(levels, levels) / d)  # [j, m]
    class_index = (levels[:, None] - levels[None, :]) % d        # [k, l] -> m
    table = np.empty((2, 2, d, d))
    for a in (0, 1):
        alice = setup.phases.alice_phase(a)
        for b in (0, 1):
            bob = setup.phases.bob_phase(b)
            weighted = setup.state_weights * np.exp(1j * (alice + bob))
            amplitudes = weighted @ fourier / d
            class_prob = np.abs(amplitudes) ** 2
            table[a, b] = class_prob[class_index]
    return _own_distribution(d, table)


def closed_form_distribution(d: int) -> JointDistribution:
    """Joint probabilities of the reference setup, in closed form.

    Cell (a, b, k, l) holds 1 / (2 d^3 sin^2[pi (m + alpha_a + beta_b) / d])
    with m = (k - l) mod d and the reference slopes alpha, beta.
    """
    _check_dimension(d)
    levels = np.arange(d)
    alpha = np.array(REFERENCE_ALICE_SLOPES)[:, None, None]
    beta = np.array(REFERENCE_BOB_SLOPES)[None, :, None]
    # (a, b, m): the (2, 2, d) class probabilities, expanded like `build_expression`
    class_prob = 1.0 / (2.0 * d ** 3 * np.sin(np.pi * (levels + alpha + beta) / d) ** 2)
    return _own_distribution(d, class_prob[:, :, (levels[:, None] - levels[None, :]) % d])


# `quantum_value`'s route: golden files pin its digits, and `threshold` needs
# its numpy speed at the 2**20 cap.  numpy's `sin` differs from `math.sin` in
# the last bits at large d, so the printed correlators are `_scalar_correlators`.
def _correlator_values(shifts: np.ndarray, d: int) -> np.ndarray:
    return 1.0 / (2.0 * d * d * np.sin(np.pi * (shifts + 0.25) / d) ** 2)


def _scalar_correlators(shifts, d: int) -> list[tuple[int, float]]:
    """The pairs (c, q_c) for the given shifts: one comprehension, no call per shift."""
    scale = 2.0 * d * d
    sin, pi = math.sin, math.pi
    return [(c, 1.0 / (scale * sin(pi * (c + 0.25) / d) ** 2)) for c in shifts]


def quantum_correlator(c: int, d: int) -> float:
    """Reference-setup correlator q_c = P(A1 = B1 + c).

    Closed form 1 / (2 d^2 sin^2[pi (c + 1/4) / d]); the shift must lie
    in the canonical interval.
    """
    lo, hi = shift_interval(d)
    if not lo <= c <= hi:
        raise ValueError(
            f"shift {c} outside the canonical interval [{lo}, {hi}] for d={d}"
        )
    return _scalar_correlators((c,), d)[0][1]


def quantum_correlators(d: int) -> list[tuple[int, float]]:
    """The pairs (c, q_c) for every canonical shift, in `ordered_shifts` order.

    The shifts come from one range check, and the values from the same
    scalar closed form as `quantum_correlator`, so each equals
    ``quantum_correlator(c, d)`` bit for bit.
    """
    return _scalar_correlators(ordered_shifts(d), d)


def ordered_shifts(d: int) -> tuple[int, ...]:
    """Canonical shifts in strictly decreasing order of `quantum_correlator`.

    That order is 0, -1, 1, -2, 2, ...: negative shifts at the odd
    positions, positive ones at the even positions.
    """
    lo, hi = shift_interval(d)
    out = [0] * d
    out[1::2] = range(-1, lo - 1, -1)
    out[2::2] = range(1, hi + 1)
    return tuple(out)


def quantum_value(d: int) -> float:
    """Id-family value of the reference setup, from the correlator form.

    Equals 4 * sum_k (1 - 2k/(d-1)) * (q_k - q_{-(k+1)}) over
    k = 0 .. floor(d/2)-1, which the tests pin against the direct
    tensor-contraction route.
    """
    _check_dimension(d)
    h = d // 2
    k = np.arange(h)
    weights = (d - 1 - 2 * k) / (d - 1)
    q = _correlator_values(np.arange(-h, h), d)  # q_{-h} .. q_{h-1}, one pass
    gaps = q[h:] - q[h - 1 :: -1]
    return float(4.0 * np.sum(weights * gaps))


def quantum_value_I(d: int) -> float:
    """I-family value of the reference setup: 4 * q_0; `CrossCheckError` unless above 3."""
    value = 4.0 * quantum_correlator(0, d)
    if not value > 3.0:
        raise CrossCheckError(f"reference I value {value} at d={d} fell to 3 or below")
    return value


def quantum_value_I3(d: int) -> float:
    """I3-family value of the reference setup: 4 * (q_0 - q_{-1}).

    I3 adds the coincidences P(A1 = B1), P(B1 = A2 + 1), P(A2 = B2),
    P(B2 = A1) and subtracts P(A1 = B1 - 1), P(B1 = A2), P(A2 = B2 - 1),
    P(B2 = A1 - 1).  On the reference setup the four correlator chains
    coincide (the tests check this on the closed-form table):
    P(A1 = B1 + c) = P(B1 = A2 + c + 1) = P(A2 = B2 + c) = P(B2 = A1 + c)
    = q_c.  Each added term is the c = 0 link of one chain and each
    subtracted term the c = -1 link of the same chain, so the value is
    4 q_0 - 4 q_{-1}.  O(1); the tests pin it against the dense tensor
    contraction.
    """
    return 4.0 * (quantum_correlator(0, d) - quantum_correlator(-1, d))


class FamilyProfile(NamedTuple):
    """A family's reference-setup value v, local bound b and white-noise value u.

    The mixture p * state + (1 - p) * white noise has value
    p * v + (1 - p) * u, which exceeds b for p above (b - u) / (v - u).
    """

    quantum_value: float
    local_bound: float
    uniform_value: float

    @property
    def noise_threshold(self) -> float:
        """Smallest entangled weight p whose mixture reaches the local bound."""
        return (self.local_bound - self.uniform_value) / (self.quantum_value - self.uniform_value)

    def noisy_value(self, p: float) -> float:
        """Value of the mixture with weight p on the reference state."""
        return p * self.quantum_value + (1.0 - p) * self.uniform_value


def family_profile(family: str, d: int) -> FamilyProfile:
    """The `FamilyProfile` of a family at dimension d.

    The quantum value is the reference setup's, from the correlator
    closed forms: `quantum_value_I`, `quantum_value_I3` or
    `quantum_value`.  The local bounds are 3 for I and 2 for I3 and Id.
    Under white noise every coincidence term P(X = Y + k) equals 1/d,
    so I takes the value 4/d and the signed families I3 and Id take 0.
    Raises `CrossCheckError` unless the reference setup violates the
    bound, since the noise threshold means nothing otherwise.
    """
    _check_family(family)
    if family == "I":
        profile = FamilyProfile(quantum_value_I(d), 3.0, 4.0 / d)
    elif family == "I3":
        profile = FamilyProfile(quantum_value_I3(d), 2.0, 0.0)
    else:
        profile = FamilyProfile(quantum_value(d), 2.0, 0.0)
    if not profile.quantum_value > profile.local_bound:
        raise CrossCheckError(f"reference setup does not violate family {family} at d={d}")
    return profile


def catalan_constant() -> float:
    """Catalan's constant G = sum_k (-1)^k / (2k+1)^2, from Ramanujan's series

        G = (pi/8) ln(2 + sqrt 3) + (3/8) sum_n (n!)^2 / ((2n)! (2n+1)^2).

    From one term to the next the ratio (n!)^2 / (2n)! shrinks by the
    factor (n+1) / (4n+2), which falls to 1/4, so the terms past the
    first 26 sum to below 1e-18; they are added smallest first.  The
    result is within one ulp of G.
    """
    ratio, terms = 1.0, []
    for n in range(26):
        terms.append(ratio / (2 * n + 1) ** 2)
        ratio *= (n + 1) / (4 * n + 2)
    return math.pi / 8.0 * math.log(2.0 + math.sqrt(3.0)) + 0.375 * sum(reversed(terms))


def asymptotic_value() -> float:
    """Large-d limit of `quantum_value`: 32 * G / pi^2 with G Catalan's constant."""
    return 32.0 * catalan_constant() / math.pi ** 2


def noise_threshold(d: int) -> float:
    """Smallest entangled weight p that still violates the local bound 2."""
    return family_profile("Id", d).noise_threshold


def reproduction_table() -> list[tuple[str, float, float, float, str]]:
    """The paper's reference decimals, recomputed and checked.

    Each row is (name, reference, computed, relative error, status); the
    status is ``"PASS"`` when the relative error is at most
    `REPRODUCTION_RTOL` and ``"FAIL"`` otherwise.
    """
    rows = []
    for name, reference, computed in (
        ("I3_quantum_value", 2.87293, quantum_value(3)),
        ("I4_quantum_value", 2.89624, quantum_value(4)),
        ("noise_threshold_d3", 0.69615, noise_threshold(3)),
        ("noise_threshold_d4", 0.69055, noise_threshold(4)),
        ("Id_quantum_value_limit", 2.96981, asymptotic_value()),
        ("noise_threshold_limit", 0.67344, 2.0 / asymptotic_value()),
    ):
        relative = abs(computed - reference) / abs(reference)
        status = "PASS" if relative <= REPRODUCTION_RTOL else "FAIL"
        rows.append((name, reference, computed, relative, status))
    return rows
