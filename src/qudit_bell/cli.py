"""Command-line interface.

Subcommands: ``bound`` (local bounds by both routes), ``quantum``
(reference-setup values and correlators), ``threshold`` (noise
robustness and violation verdicts), ``sweep`` (per-dimension table),
``optimize`` (phase search), and ``reproduce`` (reference constants
recomputed and checked).

The module parses arguments, maps exceptions to exit codes and renders;
the library computes and cross-checks every number it prints.  Reports
print as aligned text by default; ``--format json`` and ``--format csv``
emit machine-readable versions whose floats round-trip at full
precision.  ``QUDIT_BELL_OUTPUT_DIR`` names the default directory for
files the CLI creates on its own (currently the optimizer trace).
``quantum -d`` accepts d up to ``QUANTUM_MAX_DIMENSION``, ``threshold``
up to ``THRESHOLD_MAX_DIMENSION``, ``bound`` and ``sweep`` up to
``BOUND_MAX_DIMENSION``, and ``optimize`` up to ``OPTIMIZE_MAX_DIMENSION``
with restarts times search parameters up to ``OPTIMIZE_MAX_SEARCH_SIZE``.
Exit codes: 0 success, 2 usage or validation error or an unwritable
output file, 3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .expressions import FAMILIES, SCHEMA_VERSION, CrossCheckError, _check_dimension
from .local_models import ENUMERATION_CAP, EnumerationCapError, local_bounds
from .optimize import OptimizationProblem, maximize, write_trace_csv
from .quantum import (
    REPRODUCTION_RTOL,
    family_profile,
    quantum_correlators,
    quantum_value,
    quantum_value_I,
    reproduction_table,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CROSS_CHECK = 3

OUTPUT_DIR_ENV = "QUDIT_BELL_OUTPUT_DIR"

# `optimize` flags a best value above the reference setup's by more than this.
EXCEEDS_REFERENCE_ATOL = 1e-6

# `quantum` prints one row per shift, about 60 bytes of JSON each; past this
# dimension it exits 2 before computing anything.
QUANTUM_MAX_DIMENSION = 2 ** 20

# `bound` and `sweep` run a case analysis of O(d) time and memory per d, 2.1 MiB
# at this cap (tracemalloc); a sweep is O(d^2) in its top d, about 4 s up to
# the cap.  Past it they exit 2 before computing anything.
BOUND_MAX_DIMENSION = 4096

# `quantum_value(d)`, behind `threshold --family Id`, holds about 24 bytes
# times d (22.9 MiB at d = 10^6), about 24 MiB at this cap; past it
# `threshold` exits 2 for every family, before computing anything.
THRESHOLD_MAX_DIMENSION = 2 ** 20

# `optimize` replays its best point through the dense Born-rule table, about
# 113 bytes times d^2 (tracemalloc at d = 1000 and 1024), and advances its
# restarts in lockstep, about 500 bytes per restart and search parameter
# (tracemalloc: 445 at d = 1000 with 104 restarts, 483 at d = 200 with 600,
# 514 at d = 20 with 6000).  The two caps hold these near 113 and 260 MiB,
# under 0.5 GiB together; past either, `optimize` exits 2 before computing
# anything.
OPTIMIZE_MAX_DIMENSION = 1024
OPTIMIZE_MAX_SEARCH_SIZE = 2 ** 19


class UsageError(ValueError):
    """Invalid argument values (exit code 2)."""


@dataclass(frozen=True)
class Report:
    """One command's result, rendered only in the format asked for.

    Each field is a zero-argument callable, and `_emit` calls just the one
    that ``--format`` selects: ``payload`` returns the JSON document,
    ``human`` the table lines (an entry may hold several lines) and
    ``csv_rows`` the CSV rows, header first.  CSV cells are strings, ints,
    bools or floats; ``csv`` writes a float as its ``repr``.
    """

    payload: Callable[[], dict]
    human: Callable[[], list[str]]
    csv_rows: Callable[[], Sequence[Sequence]]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_CONTAINERS = (dict, list, tuple)


def _json_column(values: Sequence) -> tuple[str, Sequence] | None:
    """A %-directive and its arguments that print each value as ``json.dumps``.

    None when a value is a container.  Exact ints print with ``%d`` and
    finite exact floats with ``%r``; every other scalar (bools, None,
    strings, NaN, float subclasses) is converted by ``json.dumps`` itself.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values
    if kinds == {float} and all(map(math.isfinite, values)):
        return "%r", values
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    return "%s", list(map(json.dumps, values))


def _json_rows(items: Sequence, indent: str) -> str | None:
    """The elements of a JSON array, one per line, from one %-template.

    Covers an array of scalars and an array of objects that share their
    keys, in order, and hold scalars only; returns None for any other.
    """
    if set(map(type, items)) == {dict}:
        key_orders = set(map(tuple, items))
        if len(key_orders) != 1:
            return None
        (keys,) = key_orders
        if not keys:
            return None
        fields = [_json_column(column) for column in zip(*map(dict.values, items))]
        if None in fields:
            return None
        inner = indent + "  "
        members = ",\n".join(
            f"{inner}{json.dumps(key).replace('%', '%%')}: {directive}"
            for key, (directive, _) in zip(keys, fields)
        )
        row = f"{indent}{{\n{members}\n{indent}}}"
        args = tuple(itertools.chain.from_iterable(zip(*(values for _, values in fields))))
    else:
        field = _json_column(items)
        if field is None:
            return None
        row = indent + field[0]
        args = tuple(field[1])
    return ",\n".join([row] * len(items)) % args


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` without the pure-Python encoder.

    ``json.dumps`` switches to its Python encoder whenever ``indent`` is
    set.  Here containers are walked in Python, but each array of scalars
    or of like records is formatted by one %-template over a flat tuple,
    at C speed; `_json_column` keeps every scalar's text as ``json.dumps``
    writes it.  Object keys must be strings.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        members = ",\n".join(
            f"{inner}{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items()
        )
        return f"{{\n{members}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        rows = _json_rows(value, inner)
        if rows is None:
            rows = ",\n".join(inner + _json_text(item, inner) for item in value)
        return f"[\n{rows}\n{indent}]"
    return json.dumps(value)


def _parse_dimension(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        raise UsageError(f"dimension must be an integer, got {text!r}") from None
    try:
        _check_dimension(d)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return d


def _check_max_dimension(d: int, cap: int, reason: str) -> None:
    if d > cap:
        raise UsageError(f"{reason}; d = {d} exceeds the cap {cap}")


def _parse_dimension_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = _parse_dimension(lo_text), _parse_dimension(hi_text)
        if hi < lo:
            raise UsageError(f"empty dimension range {text!r}")
        return lo, hi
    d = _parse_dimension(text)
    return d, d


def _output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _write_file(path: Path, write) -> None:
    """Create the parent directory and write ``path`` whole or not at all.

    ``write`` fills a temporary file beside the target, which then
    replaces it, so a failure leaves any existing file untouched and no
    temporary behind; a replaced file keeps its permission bits.  A
    device or pipe is written in place.  I/O failures map to exit 2.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            write(path)
            return
        target = Path(os.path.realpath(path))
        temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            write(temporary)
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


# How ``csv`` writes a cell of each type that needs no quoting.
_CSV_DIRECTIVES = {int: "%d", float: "%r"}


def _csv_text(rows: Sequence[Sequence]) -> str:
    """The rows as ``csv.writer`` writes them, header first.

    When every row below the header has the same length and each of their
    columns holds exact ints only or exact floats only, those rows are
    formatted by one %-template over a flat tuple, at C speed.
    """
    header, body = rows[0], rows[1:]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    kinds = [set(map(type, column)) for column in zip(*body)]
    directives = [_CSV_DIRECTIVES.get(kind.pop()) if len(kind) == 1 else None for kind in kinds]
    if kinds and None not in directives and set(map(len, body)) == {len(kinds)}:
        row = ",".join(directives) + "\r\n"
        buffer.write((row * len(body)) % tuple(itertools.chain.from_iterable(body)))
    else:
        writer.writerows(body)
    return buffer.getvalue()


def _emit(args: argparse.Namespace, report: Report) -> None:
    if args.format == "json":
        text = _json_text(report.payload()) + "\n"
    elif args.format == "csv":
        text = _csv_text(report.csv_rows())
    else:
        text = "\n".join(report.human()) + "\n"
    if args.output:
        path = Path(args.output)
        _write_file(path, lambda target: target.write_text(text))
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _base_payload(command: str, **extra) -> dict:
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    payload.update(extra)
    return payload


def cmd_bound(args: argparse.Namespace) -> tuple[Report, int]:
    d = _parse_dimension(args.dimension)
    _check_max_dimension(d, BOUND_MAX_DIMENSION, "bound takes O(d) memory, 2.1 MiB at the cap")
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    family = args.family
    try:
        bound, brute, cases = local_bounds(family, d, args.cap)
    except EnumerationCapError as exc:
        raise UsageError(str(exc)) from exc
    brute_value, maximizer_count = brute or (None, None)
    cases_value, attainable = (cases[0], sorted(cases[1], reverse=True)) if cases else (None, None)

    def payload() -> dict:
        return _base_payload(
            "bound",
            family=family,
            dimension=d,
            local_bound=bound,
            bruteforce_value=brute_value,
            bruteforce_maximizers=maximizer_count,
            case_value=cases_value,
            attainable_values=attainable,
        )

    def human() -> list[str]:
        lines = [f"family {family}, d = {d}", f"local bound = {_fmt(bound)}"]
        if brute_value is not None:
            lines.append(
                f"brute force over {d}^4 strategies: max = {_fmt(brute_value)} "
                f"({maximizer_count} maximizers)"
            )
        else:
            lines.append(f"brute force skipped: {d}^4 exceeds cap {args.cap}")
        if cases_value is not None:
            spectrum = ", ".join(_fmt(v) for v in attainable)
            lines.append(f"case analysis: max = {_fmt(cases_value)}")
            lines.append(f"attainable deterministic values: {spectrum}")
        return lines

    def csv_rows() -> list[list]:
        rows = [["key", "value"], ["family", family], ["dimension", d], ["local_bound", bound]]
        if brute_value is not None:
            rows.append(["bruteforce_value", brute_value])
            rows.append(["bruteforce_maximizers", maximizer_count])
        if cases_value is not None:
            rows.append(["case_value", cases_value])
            rows += [[f"attainable_{i}", v] for i, v in enumerate(attainable)]
        return rows

    return Report(payload, human, csv_rows), EXIT_OK


def cmd_quantum(args: argparse.Namespace) -> tuple[Report, int]:
    d = _parse_dimension(args.dimension)
    _check_max_dimension(d, QUANTUM_MAX_DIMENSION, "quantum prints one row per shift")
    value_id = quantum_value(d)
    value_i = quantum_value_I(d)
    correlators = quantum_correlators(d)

    def payload() -> dict:
        return _base_payload(
            "quantum",
            dimension=d,
            quantum_value_Id=value_id,
            quantum_value_I=value_i,
            correlators=[{"shift": c, "value": q} for c, q in correlators],
        )

    def human() -> list[str]:
        # One template for all d rows; %3d and %.6g print as {c:>3d} and _fmt.
        flat = tuple(itertools.chain.from_iterable(correlators))
        return [
            f"d = {d}",
            f"Id value at reference setup = {_fmt(value_id)}",
            f"I value at reference setup  = {_fmt(value_i)}",
            "correlators q_c (decreasing):",
            "\n".join(["  c = %3d: %.6g"] * d) % flat,
        ]

    return Report(payload, human, lambda: [("shift", "correlator"), *correlators]), EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> tuple[Report, int]:
    d = _parse_dimension(args.dimension)
    _check_max_dimension(d, THRESHOLD_MAX_DIMENSION, "threshold's Id value takes O(d) memory")
    family = args.family
    profile = family_profile(family, d)
    value, bound, _ = profile
    threshold = profile.noise_threshold
    summary = [
        ("family", family),
        ("dimension", d),
        ("quantum_value", value),
        ("local_bound", bound),
        ("noise_threshold", threshold),
    ]
    p = args.noise_p
    if p is not None:
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"--noise-p must lie in [0, 1], got {p}")
        noisy = profile.noisy_value(p)
        verdict = "violated" if noisy > bound else "not violated"
        summary += [("noise_p", p), ("noisy_value", noisy), ("verdict", verdict)]

    def human() -> list[str]:
        lines = [
            f"family {family}, d = {d}",
            f"quantum value at reference setup = {_fmt(value)}",
            f"local bound = {_fmt(bound)}",
            f"noise threshold p_min = {_fmt(threshold)}",
        ]
        if p is not None:
            lines.append(f"noisy value at p = {_fmt(p)}: {_fmt(noisy)} -> {verdict}")
        return lines

    return Report(
        lambda: _base_payload("threshold", **dict(summary)),
        human,
        lambda: [("key", "value"), *summary],
    ), EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> tuple[Report, int]:
    lo, hi = _parse_dimension_range(args.dimension)
    if args.family != "Id":
        raise UsageError("sweep reports the Id family; other families are not supported")
    _check_max_dimension(hi, BOUND_MAX_DIMENSION, "sweep takes O(d^2) time, about 4 s at the cap")
    rows = []
    for d in range(lo, hi + 1):
        bound = local_bounds("Id", d).bound
        profile = family_profile("Id", d)
        rows.append((d, bound, profile.quantum_value, profile.noise_threshold))
    header = ("d", "local_bound", "quantum_value", "noise_threshold")

    def human() -> list[str]:
        lines = [f"{'d':>4}  {'local_bound':>12}  {'quantum_value':>14}  {'noise_threshold':>16}"]
        lines += [
            f"{d:>4}  {_fmt(b):>12}  {_fmt(q):>14}  {_fmt(t):>16}" for d, b, q, t in rows
        ]
        return lines

    return Report(
        lambda: _base_payload("sweep", family="Id", rows=[dict(zip(header, row)) for row in rows]),
        human,
        lambda: [header, *rows],
    ), EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> tuple[Report, int]:
    d = _parse_dimension(args.dimension)
    _check_max_dimension(d, OPTIMIZE_MAX_DIMENSION, "optimize's replay takes O(d^2) memory")
    try:
        problem = OptimizationProblem(
            dimension=d,
            family=args.family,
            vary_state_weights=args.vary_state_weights,
            budget=args.budget,
            restarts=args.restarts,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    size = problem.restarts * problem.parameter_count
    if size > OPTIMIZE_MAX_SEARCH_SIZE:
        raise UsageError(
            "optimize's lockstep search takes O(restarts x parameters) memory; "
            f"{problem.restarts} restarts x {problem.parameter_count} parameters = {size} "
            f"exceeds the cap {OPTIMIZE_MAX_SEARCH_SIZE}"
        )
    result = maximize(problem)
    reference, _, _ = family_profile(args.family, d)
    excess = result.best_value - reference
    trace_path = Path(args.trace_out) if args.trace_out else (
        _output_dir() / f"optimize_trace_{args.family}_d{d}.csv"
    )
    _write_file(trace_path, lambda target: write_trace_csv(result, target))

    def payload() -> dict:
        return _base_payload(
            "optimize",
            family=args.family,
            dimension=d,
            seed=args.seed,
            budget=args.budget,
            restarts=args.restarts,
            vary_state_weights=args.vary_state_weights,
            best_value=result.best_value,
            reference_value=reference,
            excess_over_reference=excess,
            exceeds_reference=bool(excess > EXCEEDS_REFERENCE_ATOL),
            improved=result.improved,
            trace_path=str(trace_path),
            best_alice_phases=[result.best_phases.alice_phase(s).tolist() for s in (0, 1)],
            best_bob_phases=[result.best_phases.bob_phase(s).tolist() for s in (0, 1)],
            best_state_weights=[abs(w) for w in result.best_state_weights.tolist()],
        )

    def human() -> list[str]:
        lines = [
            f"family {args.family}, d = {d}, seed = {args.seed}, "
            f"budget = {args.budget}, restarts = {args.restarts}",
            f"best value found = {_fmt(result.best_value)}",
            f"reference-setup value = {_fmt(reference)} (difference {_fmt(excess)})",
            f"improved over first sample: {result.improved}",
            f"trace written to {trace_path}",
        ]
        # Free state weights are expected to beat the maximally entangled reference.
        if excess > EXCEEDS_REFERENCE_ATOL and not args.vary_state_weights:
            lines.insert(
                1,
                f"WARNING: search exceeded the reference value by {_fmt(excess)}; "
                "inspect the reported phases",
            )
        return lines

    def csv_rows() -> list[list]:
        return [
            ["key", "value"],
            ["family", args.family],
            ["dimension", d],
            ["best_value", result.best_value],
            ["reference_value", reference],
            ["excess_over_reference", excess],
            ["improved", result.improved],
            ["trace_path", str(trace_path)],
        ]

    return Report(payload, human, csv_rows), EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> tuple[Report, int]:
    rows = reproduction_table()
    all_pass = all(row[-1] == "PASS" for row in rows)
    header = ("name", "reference", "computed", "relative_error", "status")

    def human() -> list[str]:
        width = max(len(name) for name, *_ in rows)
        lines = [
            f"{name:<{width}}  reference {reference:<8.6g} computed {computed:<8.6g} "
            f"rel err {relative:.2e}  {status}"
            for name, reference, computed, relative, status in rows
        ]
        lines.append("all rows PASS" if all_pass else "some rows FAILED")
        return lines

    report = Report(
        lambda: _base_payload(
            "reproduce",
            tolerance=REPRODUCTION_RTOL,
            all_pass=all_pass,
            rows=[dict(zip(header, row)) for row in rows],
        ),
        human,
        lambda: [header, *rows],
    )
    return report, EXIT_OK if all_pass else EXIT_CROSS_CHECK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building it costs about 1 ms)."""
    parser = argparse.ArgumentParser(
        prog="qudit-bell",
        description="Bell expressions for two-party, two-setting, d-outcome scenarios",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, *, family: bool = True) -> None:
        if family:
            sub.add_argument("--family", choices=FAMILIES, default="Id")
        sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
        sub.add_argument("--output", default=None, help="write the report to this path")

    bound = subparsers.add_parser("bound", help="local bound by enumeration and case analysis")
    bound.add_argument("--dimension", "-d", required=True)
    bound.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                       help="strategy cap for the brute-force route")
    add_common(bound)
    bound.set_defaults(handler=cmd_bound)

    quantum = subparsers.add_parser("quantum", help="reference-setup values and correlators")
    quantum.add_argument("--dimension", "-d", required=True)
    add_common(quantum, family=False)
    quantum.set_defaults(handler=cmd_quantum)

    threshold = subparsers.add_parser("threshold", help="noise robustness of the violation")
    threshold.add_argument("--dimension", "-d", required=True)
    threshold.add_argument("--noise-p", type=float, default=None,
                           help="entangled weight p to evaluate and judge")
    add_common(threshold)
    threshold.set_defaults(handler=cmd_threshold)

    sweep = subparsers.add_parser("sweep", help="per-dimension table over a range")
    sweep.add_argument("--dimension", "-d", default="2..16",
                       help="single value or inclusive range like 2..16")
    add_common(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    optimize = subparsers.add_parser("optimize", help="random-restart phase search")
    optimize.add_argument("--dimension", "-d", required=True)
    optimize.add_argument("--seed", type=int, default=OptimizationProblem.seed)
    optimize.add_argument("--budget", type=int, default=OptimizationProblem.budget)
    optimize.add_argument("--restarts", type=int, default=OptimizationProblem.restarts)
    optimize.add_argument("--vary-state-weights", action="store_true",
                          help="search the Schmidt weights of the state too")
    optimize.add_argument("--trace-out", default=None,
                          help="trace CSV path (default: under the output dir)")
    add_common(optimize)
    optimize.set_defaults(handler=cmd_optimize)

    reproduce = subparsers.add_parser("reproduce", help="recompute the reference constants")
    add_common(reproduce, family=False)
    reproduce.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report, status = args.handler(args)
        _emit(args, report)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    return status
