"""Output checks for every op the workloads run.

Checks run outside the timed region.  Each raises `CheckFailure` when an
output is wrong; `fail_ratio` counts those with non-zero exits and
exceptions.  Reference values come from routes independent of the code
under test: exact constants for local bounds, an mpmath sum of the
closed-form correlators for quantum values, and a replay through the dense
Born rule and the correlator encoding for optimizer results.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

from qudit_bell.expressions import build_expression, evaluate_via_correlators
from qudit_bell.local_models import ENUMERATION_CAP
from qudit_bell.quantum import MeasurementPhases, QuantumSetup, born_rule_distribution

from workloads import Op

LOCAL_BOUNDS = {"Id": 2.0, "I": 3.0}
QUANTUM_RTOL = 1e-12
# Table output prints 6 significant digits: half a unit in the 6th digit.
TABLE_RTOL = 5e-6 * (1 + 1e-9)
REPLAY_ATOL = 1e-9
HIT_ATOL = 1e-6


class CheckFailure(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(value: float, expected: float, rtol: float, what: str) -> None:
    _require(abs(value - expected) <= rtol * abs(expected),
             f"{what} = {value!r}, expected {expected!r} (rtol {rtol})")


def _key_values(text: str) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["key", "value"], f"unexpected csv header {rows[0]}")
    return {key: value for key, value in rows[1:]}


@lru_cache(maxsize=None)
def reference_correlators(d: int) -> tuple[dict[int, float], float]:
    """mpmath correlators q_c and the Id value 4 sum_k w_k (q_k - q_-(k+1))."""
    import mpmath

    with mpmath.workdps(30):
        quarter = mpmath.mpf(1) / 4
        q = {
            c: 1 / (2 * mpmath.mpf(d) ** 2 * mpmath.sin(mpmath.pi * (c + quarter) / d) ** 2)
            for c in range(-(d // 2), (d - 1) // 2 + 1)
        }
        value = 4 * mpmath.fsum(
            mpmath.mpf(d - 1 - 2 * k) / (d - 1) * (q[k] - q[-(k + 1)]) for k in range(d // 2)
        )
        return {c: float(v) for c, v in q.items()}, float(value)


def _check_correlators(pairs: list[tuple[int, float]], d: int, rtol: float) -> None:
    expected, _ = reference_correlators(d)
    _require(sorted(c for c, _ in pairs) == sorted(expected),
             f"correlator shifts do not cover the canonical interval for d={d}")
    for c, value in pairs:
        _close(value, expected[c], rtol, f"q_{c} at d={d}")
    values = [value for _, value in pairs]
    if rtol == QUANTUM_RTOL:
        _require(all(a > b for a, b in zip(values, values[1:])),
                 f"correlators not strictly decreasing at d={d}")
    else:  # rounded to 6 digits, neighbours may print equal
        _require(all(a >= b for a, b in zip(values, values[1:])),
                 f"printed correlators increase at d={d}")


def check_quantum(op: Op, out: str) -> None:
    d = op.dimension
    expected_q, expected_value = reference_correlators(d)
    if op.fmt == "json":
        payload = json.loads(out)
        _require(payload["dimension"] == d, "wrong dimension")
        _close(payload["quantum_value_Id"], expected_value, QUANTUM_RTOL, f"Id value at d={d}")
        _close(payload["quantum_value_I"], 4 * expected_q[0], QUANTUM_RTOL, f"I value at d={d}")
        pairs = [(row["shift"], row["value"]) for row in payload["correlators"]]
        _check_correlators(pairs, d, QUANTUM_RTOL)
    elif op.fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows[0] == ["shift", "correlator"], f"unexpected csv header {rows[0]}")
        pairs = [(int(c), float(v)) for c, v in rows[1:]]
        _check_correlators(pairs, d, QUANTUM_RTOL)
        q = dict(pairs)
        value = 4 * math.fsum((d - 1 - 2 * k) / (d - 1) * (q[k] - q[-(k + 1)])
                              for k in range(d // 2))
        _close(value, expected_value, QUANTUM_RTOL, f"Id value from csv correlators at d={d}")
    else:
        lines = out.splitlines()
        _require(lines[0] == f"d = {d}", f"unexpected first line {lines[0]!r}")
        value = float(lines[1].rpartition("=")[2])
        _close(value, expected_value, TABLE_RTOL, f"printed Id value at d={d}")
        pairs = []
        for line in lines[4:]:
            shift, _, number = line.strip().removeprefix("c =").partition(":")
            pairs.append((int(shift), float(number)))
        _check_correlators(pairs, d, TABLE_RTOL)


def check_bound(op: Op, out: str) -> None:
    if op.fmt == "json":
        payload = json.loads(out)
        bound, brute, cases = (payload["local_bound"], payload["bruteforce_value"],
                               payload["case_value"])
    else:
        rows = _key_values(out)
        bound = float(rows["local_bound"])
        brute = float(rows["bruteforce_value"]) if "bruteforce_value" in rows else None
        cases = float(rows["case_value"]) if "case_value" in rows else None
    expected = LOCAL_BOUNDS[op.family]
    _require(bound == expected, f"{op.family} bound at d={op.dimension} is {bound!r}")
    if op.dimension ** 4 <= ENUMERATION_CAP:
        _require(brute == expected, f"brute-force route gave {brute!r}")
    if op.family == "Id":
        _require(cases == expected, f"case-analysis route gave {cases!r}")
    if brute is not None and cases is not None:
        _require(brute == cases, f"routes disagree: {brute!r} vs {cases!r}")


def check_sweep(op: Op, out: str) -> None:
    if op.fmt == "json":
        rows = [(r["d"], r["local_bound"], r["quantum_value"], r["noise_threshold"])
                for r in json.loads(out)["rows"]]
    else:
        table = list(csv.reader(io.StringIO(out)))
        _require(table[0] == ["d", "local_bound", "quantum_value", "noise_threshold"],
                 f"unexpected csv header {table[0]}")
        rows = [(int(d), float(b), float(q), float(t)) for d, b, q, t in table[1:]]
    _require([row[0] for row in rows] == list(range(2, op.dimension + 1)), "wrong sweep rows")
    for d, bound, value, threshold in rows:
        _require(bound == 2.0, f"sweep bound at d={d} is {bound!r}")
        _close(value * threshold, 2.0, QUANTUM_RTOL, f"value * threshold at d={d}")


def check_threshold(op: Op, out: str) -> None:
    if op.fmt == "json":
        payload = json.loads(out)
        p, threshold, verdict = payload["noise_p"], payload["noise_threshold"], payload["verdict"]
    else:
        rows = _key_values(out)
        p, threshold, verdict = float(rows["noise_p"]), float(rows["noise_threshold"]), rows["verdict"]
    _require(p == op.noise_p, f"noise_p echoed as {p!r}, sent {op.noise_p!r}")
    expected = "violated" if p > threshold else "not violated"
    _require(verdict == expected,
             f"verdict {verdict!r} at p={p!r} with threshold {threshold!r}")


def check_reproduce(op: Op, out: str) -> None:
    if op.fmt == "json":
        _require(json.loads(out)["all_pass"] is True, "all_pass is not true")
    elif op.fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        _require(bool(rows) and all(row[-1] == "PASS" for row in rows), "a row is not PASS")
    else:
        _require(out.splitlines()[-1] == "all rows PASS", "table does not end in all rows PASS")


def check_optimize(op: Op, out: str) -> bool:
    """Replay the reported optimum; return whether it hit the reference value."""
    payload = json.loads(out)
    d, family = op.dimension, op.family
    _require((payload["dimension"], payload["family"]) == (d, family), "wrong problem echoed")
    phases = MeasurementPhases(dimension=d, alice_vectors=payload["best_alice_phases"],
                               bob_vectors=payload["best_bob_phases"])
    setup = QuantumSetup(dimension=d, state_weights=payload["best_state_weights"], phases=phases)
    replay = evaluate_via_correlators(build_expression(family, d), born_rule_distribution(setup))
    best = payload["best_value"]
    _require(abs(replay - best) <= REPLAY_ATOL, f"replay gives {replay!r}, reported {best!r}")
    with Path(payload["trace_path"]).open(newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["evaluation_index", "incumbent_value"], f"unexpected trace header {rows[0]}")
    incumbents = [float(value) for _, value in rows[1:]]
    _require(bool(incumbents), "empty trace")
    _require(all(a <= b for a, b in zip(incumbents, incumbents[1:])), "trace decreases")
    _require(abs(incumbents[-1] - best) <= REPLAY_ATOL, "trace does not end at best_value")
    return abs(best - payload["reference_value"]) <= HIT_ATOL


CHECKS = {
    "bound": check_bound,
    "sweep": check_sweep,
    "quantum": check_quantum,
    "threshold": check_threshold,
    "reproduce": check_reproduce,
    "optimize": check_optimize,
}


def check(op: Op, status: int, out: str):
    """Check one op's exit status and stdout; return the kind's check result."""
    _require(status == 0, f"exit status {status!r}")
    try:
        return CHECKS[op.kind](op, out)
    except CheckFailure:
        raise
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        raise CheckFailure(f"malformed {op.kind} output: {exc!r}") from exc
