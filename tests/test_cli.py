"""Command-line interface: formats, exit codes, cross-checks."""

import contextlib
import csv
import enum
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qudit_bell.cli as cli
import qudit_bell.local_models as local_models
import qudit_bell.quantum as quantum_module
from qudit_bell import (
    FAMILIES,
    OptimizationProblem,
    OptimizationResult,
    QuantumSetup,
    build_expression,
    closed_form_distribution,
    evaluate,
    family_profile,
    local_bound_bruteforce,
    local_bound_cases,
    maximize,
    noise_threshold,
    quantum_value,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_bad_dimension_values(capsys):
    for bad in ("1", "x", "0", "-3"):
        code, _, err = run(capsys, "bound", "-d", bad)
        assert code == 2
        assert "dimension" in err
    for small in ("1", "0", "-3"):
        code, _, err = run(capsys, "quantum", "-d", small)
        assert (code, err) == (2, f"error: dimension must be >= 2, got {small}\n")


def test_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "-d", "5..3")
    assert code == 2
    assert "range" in err


def test_optimize_defaults_are_the_problem_defaults():
    args = cli._parsers()[0].parse_args(["optimize", "-d", "2"])
    problem = OptimizationProblem(dimension=2)
    assert (args.budget, args.restarts, args.seed) == (
        problem.budget, problem.restarts, problem.seed
    )


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli._parsers() is cli._parsers()
    code, out, _ = run(capsys, "threshold", "-d", "3", "--noise-p", "0.9", "--format", "json")
    assert code == 0 and "verdict" in json.loads(out)
    code, out, _ = run(capsys, "threshold", "-d", "3", "--format", "json")
    assert code == 0 and "verdict" not in json.loads(out)


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qudit-bell", "threshold", "-d", "3", "--format", "json"])
    code = cli.main()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3


def test_bad_noise_p(capsys):
    code, _, err = run(capsys, "threshold", "-d", "3", "--noise-p", "1.5")
    assert code == 2
    assert "noise-p" in err


# ---------------------------------------------------------------- dispatch


def full_parse_main(argv):
    """The CLI as it ran before dispatch: the top-level parser parses every argv."""
    try:
        args = cli._parsers()[0].parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else cli.EXIT_USAGE
    try:
        report, status = args.handler(args)
        cli._emit(args, report)
    except (cli.UsageError, cli.EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except cli.CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return cli.EXIT_CROSS_CHECK
    return status


def outcome(entry, argv):
    """(exit code, stdout, stderr) of ``entry(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_dispatch_matches_full_parse(argv, directory):
    """`cli.main` and `full_parse_main` print and exit alike on ``argv``.

    ``{dir}`` in a token names ``directory``, which also receives default
    trace files, so both sides write the same paths.
    """
    argv = [token.replace("{dir}", str(directory)) for token in argv]
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(directory)}):
        assert outcome(cli.main, argv) == outcome(full_parse_main, argv), argv


COMMANDS = ("bound", "quantum", "threshold", "sweep", "optimize", "reproduce")
# Each option's values, good ones first; every command takes the first value of
# the options it has.
OPTION_VALUES = {
    "-d": ("3", "2", "5", "2..4", "4..2", "1", "x", ""),
    "--dimension": ("4", "1", "x"),
    "--family": ("Id", "I", "I3", "X"),
    "--format": ("json", "csv", "table", "xml"),
    "--output": ("{dir}/report.txt", "{dir}"),
    "--cap": ("625", "1", "0", "x"),
    "--noise-p": ("0.9", "0.3", "1.5", "-0.1", "x"),
    "--seed": ("7", "0", "x"),
    "--budget": ("40", "2", "x"),
    "--restarts": ("3", "1", "0"),
    "--trace-out": ("{dir}/trace.csv",),
}
STRAY_TOKENS = (
    "--", "-h", "--help", "--vary-state-weights", "--bogus", "-x", "extra", "--fam",
    "--dim=3", "-d3", "-d=4", "--format=json", "bound", "3",
)
OPTIONS = st.sampled_from(sorted(OPTION_VALUES))
ARGV_TOKENS = st.one_of(
    OPTIONS.map(lambda option: [option, OPTION_VALUES[option][0]]),
    OPTIONS.flatmap(
        lambda option: st.sampled_from(OPTION_VALUES[option]).map(lambda value: [option, value])
    ),
    st.sampled_from(STRAY_TOKENS).map(lambda token: [token]),
)
ARGVS = st.builds(
    lambda head, groups: [*head, *(token for group in groups for token in group)],
    st.sampled_from([[name, "-d", "3"] for name in COMMANDS] + [[name] for name in COMMANDS]
                    + [["frobnicate"], []]),
    st.lists(ARGV_TOKENS, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(ARGVS)
def test_dispatch_matches_a_full_parse(argv):
    with tempfile.TemporaryDirectory() as directory:
        assert_dispatch_matches_full_parse(argv, directory)


MALFORMED_AND_HELP_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["frobnicate", "-d", "3"],
    ["bound"],
    ["threshold", "--family", "I"],
    ["bound", "-d"],
    ["threshold", "-d", "3", "--noise-p"],
    ["quantum", "-d", "3", "extra"],
    ["reproduce", "extra", "more"],
    ["bound", "-d", "3", "--bogus"],
    ["quantum", "-d", "3", "--family", "Id"],
    ["threshold", "-d", "3", "--family", "X"],
    ["bound", "-d", "3", "--format", "xml"],
    ["bound", "--", "-d", "3"],
    ["bound", "-d", "3", "--"],
    ["-d", "3", "bound"],
    ["--format", "json", "quantum", "-d", "3"],
    ["bound", "-d=4"],
    ["quantum", "-d4", "--format", "csv"],
    ["threshold", "--dimension=4", "--format", "json"],
    ["bound", "-d", "4", "--fam", "I", "--format", "json"],
    ["threshold", "-d", "3", "-h", "--noise-p", "0.9"],
    ["sweep", "--help"],
    ["optimize", "-d", "2", "--budget", "40", "--restarts", "2", "--seed", "3",
     "--format", "json", "--trace-out", "{dir}/trace.csv"],
]


@pytest.mark.parametrize("argv", MALFORMED_AND_HELP_ARGVS, ids=" ".join)
def test_dispatch_matches_a_full_parse_on_fixed_argvs(argv, tmp_path):
    assert_dispatch_matches_full_parse(argv, tmp_path)


def test_a_command_argv_skips_the_top_level_parse(capsys, tmp_path):
    argvs = [
        ["bound", "-d", "3"],
        ["quantum", "-d", "3"],
        ["threshold", "-d", "3", "--noise-p", "0.9"],
        ["sweep", "-d", "2..3"],
        ["optimize", "-d", "2", "--budget", "40", "--restarts", "2",
         "--trace-out", str(tmp_path / "trace.csv")],
        ["reproduce"],
    ]
    refusal = AssertionError("the top-level parser parsed a command argv")
    with mock.patch.object(cli._parsers()[0], "parse_args", side_effect=refusal):
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0, argv


# ---------------------------------------------------------------- bound


def test_bound_table_output(capsys):
    code, out, _ = run(capsys, "bound", "-d", "3")
    assert code == 0
    assert "local bound = 2" in out
    assert "case analysis" in out


def test_bound_json_payload(capsys):
    code, out, _ = run(capsys, "bound", "-d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "bound"
    assert payload["local_bound"] == 2.0
    assert payload["bruteforce_value"] == 2.0
    assert payload["case_value"] == 2.0
    assert payload["attainable_values"][0] == 2.0


def test_bound_family_I(capsys):
    code, out, _ = run(capsys, "bound", "-d", "2", "--family", "I", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["local_bound"] == 3.0
    assert payload["case_value"] is None


def test_bound_cross_check_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(local_models, "local_bound_cases", lambda d: (2.5, {2.5}))
    code, _, err = run(capsys, "bound", "-d", "3")
    assert code == 3
    assert "cross-check" in err


def test_bound_beyond_cap_skips_bruteforce(capsys):
    code, out, _ = run(capsys, "bound", "-d", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bruteforce_value"] is None
    assert payload["local_bound"] == 2.0


def test_bound_rejects_cap_below_one(capsys):
    for cap in ("0", "-3"):
        code, out, err = run(capsys, "bound", "-d", "5", "--cap", cap)
        assert code == 2
        assert out == ""
        assert "--cap" in err


def test_bound_at_d_1000(capsys):
    code, out, _ = run(capsys, "bound", "-d", "1000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["local_bound"] == 2.0
    assert payload["bruteforce_value"] is None


def test_bound_past_the_cap_builds_no_expression(capsys, expression_builds):
    code, out, _ = run(capsys, "bound", "-d", "57")
    assert code == 0
    assert out == (
        "family Id, d = 57\n"
        "local bound = 2\n"
        "brute force skipped: 57^4 exceeds cap 10000000\n"
        "case analysis: max = 2\n"
        "attainable deterministic values: 2, -0.0357143, -2.07143\n"
    )
    code, out, _ = run(capsys, "bound", "-d", "57", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bruteforce_value"] is None
    assert payload["bruteforce_maximizers"] is None
    assert payload["attainable_values"] == sorted(local_bound_cases(57)[1], reverse=True)
    assert expression_builds == []


PAST_THE_CAP_57 = (
    "error: enumerating 57^4 = 10556001 strategies exceeds the cap 10000000; a larger cap "
    "admits d up to 300, and local_bound_cases bounds Id at any d\n"
)


def test_bound_family_I_past_the_cap_exits_2(capsys, expression_builds):
    code, out, err = run(capsys, "bound", "-d", "57", "--family", "I")
    assert code == 2
    assert out == ""
    assert err == PAST_THE_CAP_57
    assert expression_builds == []


def test_bound_below_a_small_cap_skips_bruteforce(capsys, expression_builds):
    code, out, _ = run(capsys, "bound", "-d", "8", "--cap", "100")
    assert code == 0
    assert "brute force skipped: 8^4 exceeds cap 100" in out
    assert expression_builds == []


def test_bound_at_the_cap_runs_both_routes(capsys, expression_builds):
    code, out, _ = run(capsys, "bound", "-d", "56", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bruteforce_value"] == payload["case_value"] == 2.0
    assert payload["bruteforce_maximizers"] == 1_727_936
    assert expression_builds == [("Id", 56)]


BOUND_CAP_REASON = "bound takes O(d) memory, 2.1 MiB at the cap"
SWEEP_CAP_REASON = "sweep takes O(d^2) time, about 4 s at the cap"


def test_bound_and_sweep_dimension_cap(capsys, monkeypatch):
    assert cli.BOUND_MAX_DIMENSION == 4096
    monkeypatch.setattr(cli, "BOUND_MAX_DIMENSION", 60)
    code, out, _ = run(capsys, "bound", "-d", "60", "--format", "json")
    assert code == 0
    assert json.loads(out)["local_bound"] == 2.0

    def computed(*args, **kwargs):
        raise AssertionError("computed past the cap")

    monkeypatch.setattr(local_models, "local_bound_cases", computed)
    monkeypatch.setattr(cli, "family_profile", computed)
    for argv, reason in (
        (("bound", "-d", "61"), BOUND_CAP_REASON),
        (("bound", "-d", "61", "--family", "I"), BOUND_CAP_REASON),
        (("sweep", "-d", "2..61"), SWEEP_CAP_REASON),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {reason}; d = 61 exceeds the cap 60\n"


def test_bound_at_the_real_cap_edge(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "bound", "-d", "4096", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    payload = json.loads(out)
    assert payload["local_bound"] == 2.0
    assert payload["attainable_values"] == [2.0, -2 / 4095, -2 * 4097 / 4095]
    assert peak < 16 * 2**20
    code, out, err = run(capsys, "bound", "-d", "4097")
    assert (code, out) == (2, "")
    assert err == f"error: {BOUND_CAP_REASON}; d = 4097 exceeds the cap 4096\n"


def test_bound_cap_admits_no_bruteforce_past_the_ceiling(capsys, monkeypatch, expression_builds):
    assert local_models.BRUTEFORCE_MAX_DIMENSION == 300
    for d in ("301", "1000"):
        code, out, err = run(capsys, "bound", "-d", d, "--cap", "1000000000000")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the brute force takes O(d^3) memory; d = {d} exceeds 300, "
            "the largest d any cap admits\n"
        )
    monkeypatch.setattr(local_models, "BRUTEFORCE_MAX_DIMENSION", 8)
    for family in FAMILIES:
        code, out, _ = run(capsys, "bound", "-d", "8", "--family", family,
                           "--cap", "1000000000000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bruteforce_value"] == payload["local_bound"]
        code, out, err = run(capsys, "bound", "-d", "9", "--family", family,
                             "--cap", "1000000000000")
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expression_builds == [(family, 8) for family in FAMILIES]


# ---------------------------------------------------------------- quantum


def test_quantum_json(capsys):
    code, out, _ = run(capsys, "quantum", "-d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantum_value_Id"] == quantum_value(3)
    shifts = [row["shift"] for row in payload["correlators"]]
    assert shifts == [0, -1, 1]
    values = [row["value"] for row in payload["correlators"]]
    assert values == sorted(values, reverse=True)


def test_quantum_dimension_cap(capsys, monkeypatch):
    assert cli.QUANTUM_MAX_DIMENSION == 2 ** 20
    code, out, err = run(capsys, "quantum", "-d", str(2 ** 20 + 1), "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1

    monkeypatch.setattr(cli, "QUANTUM_MAX_DIMENSION", 5)
    code, out, _ = run(capsys, "quantum", "-d", "5", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 6

    def computed(d):
        raise AssertionError(f"computed at d={d}, past the cap")

    for name in ("quantum_value", "quantum_value_I", "quantum_correlators"):
        monkeypatch.setattr(cli, name, computed)
    code, out, err = run(capsys, "quantum", "-d", "6")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cap 5" in lines[0]


# ---------------------------------------------------------------- json emitter

JSON_KEYS = st.text() | st.sampled_from(["shift", '"q"', "%d", "100%", "a\\b", "\u00e9"])
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats().map(np.float64),
    st.text(max_size=12),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f",
                     "caf\u00e9 \u20ac \U0001f600", "%s %d %r %%", ""]),
)
JSON_COLUMNS = st.sampled_from([
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.booleans(),
    JSON_SCALARS,
])


@st.composite
def json_records(draw):
    """A list of objects that share their keys, as `sweep` and `quantum` emit."""
    keys = draw(st.lists(JSON_KEYS, unique=True, max_size=4))
    columns = {key: draw(JSON_COLUMNS) for key in keys}
    count = draw(st.integers(min_value=0, max_value=6))
    return [{key: draw(column) for key, column in columns.items()} for _ in range(count)]


JSON_VALUES = st.recursive(
    JSON_SCALARS
    | json_records()
    | st.lists(st.lists(st.floats(allow_nan=False), max_size=5), max_size=3),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_json_emitter_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


class Real(float):
    """A float subclass: encoded by ``json.dumps``, not the exact-type table."""


class Shift(enum.IntEnum):
    THREE = 3


class Text(str):
    """A str subclass: encoded by ``json.dumps``, not the exact-type table."""


def test_json_emitter_matches_json_dumps_on_fixed_cases():
    cases = [
        {}, [], {"a": []}, {"a": {}}, [{}], [{}, {}], [[]],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],        # same keys, other order
        [{"a": 1}, {"a": 1, "b": 2}],                # different keys
        [{"a": [1.5, 2]}, {"a": [3]}],               # records holding containers
        [True, 1, 2], [1.0, np.float64(2.5), -0.0], [math.nan, 1.0],
        {"rows": [{"d": 2, "value": 2.8284271247461903, "ok": True, "name": None}]},
        [{"%d": 1, '"': "%s"}, {"%d": 2, '"': "\u00e9"}],
        # Top-level scalars of every type, exact and not.
        "text", 0, -7, 2 ** 70, -(2 ** 70), 1.5, -0.0, math.nan, math.inf, -math.inf,
        True, False, None, np.float64(2.5), np.float64(math.nan), Real(0.1), Real(-math.inf),
        Shift.THREE, Text("q\"uote"),
        {"ok": True, "failed": False, "missing": None, "big": 2 ** 70, "zero": -0.0},
        {"real": Real(2.5), "shift": Shift.THREE, "nan": math.nan, "inf": [math.inf, -math.inf]},
        # Keys that json.dumps escapes.
        {'"': 1, "\\": 2, "\x00\x1f\t\n\x7f": 3, "caf\u00e9 \u20ac": 4, "\U0001f600": 5,
         "\ud800": 6, "%s": 7},
        [{'"\\\U0001f600': 1.5, "\x01": "\u00e9"}, {'"\\\U0001f600': 2.5, "\x01": ""}],
    ]
    for value in cases:
        assert cli._json_text(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [
    np.int64(3), [np.int64(3)], {"d": np.int64(3)}, [{"d": np.int64(3)}], {"d": [1, np.int64(3)]},
])
def test_json_emitter_raises_json_dumps_type_error(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        cli._json_text(value)
    assert str(raised.value) == str(expected.value) == "Object of type int64 is not JSON serializable"


def test_json_emitter_encodes_exact_scalars_without_json_dumps(monkeypatch):
    payload = {
        "schema_version": 1, "command": "threshold", "family": "Id", "\u00e9\"\\\x00": "\U0001f600",
        "big": 2 ** 70, "value": 2.9105448080720775, "zero": -0.0, "special": [math.nan, math.inf],
        "flags": [True, False, None, 1, "x"], "rows": [{"d": 2, "ok": True, "name": None}],
    }
    expected = json.dumps(payload, indent=2)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called on an exact scalar")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dumps", refuse)
        text = cli._json_text(payload)
    assert text == expected
    argvs = [
        ["threshold", "-d", "5", "--noise-p", "0.9"],
        ["bound", "-d", "4"],
        ["quantum", "-d", "4"],
        ["sweep", "-d", "2..4"],
        ["reproduce"],
    ]
    for argv in argvs:
        argv += ["--format", "json"]
        expected = outcome(full_parse_main, argv)
        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", refuse)
            assert outcome(cli.main, argv) == expected, argv


CSV_CELLS = st.one_of(
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(max_size=8),
    st.sampled_from(["a,b", '"q"', "line\nbreak", "%d", ""]),
)
CSV_ROW_WIDTHS = st.integers(min_value=1, max_value=4)


@st.composite
def csv_tables(draw):
    """A header and rows: ragged ones, or rows of one width with a type per column."""
    width = draw(CSV_ROW_WIDTHS)
    columns = [draw(st.sampled_from([st.integers(), st.floats(), CSV_CELLS])) for _ in range(width)]
    header = draw(st.lists(st.text(max_size=6), min_size=width, max_size=width))
    row = st.lists(CSV_CELLS, max_size=5) if draw(st.booleans()) else st.tuples(*columns)
    return [header, *draw(st.lists(row, max_size=6))]


def csv_writer_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


@settings(max_examples=300, deadline=None)
@given(csv_tables())
def test_csv_text_matches_csv_writer(rows):
    assert cli._csv_text(rows) == csv_writer_text(rows)


# ---------------------------------------------------------------- threshold


def test_threshold_verdicts(capsys):
    code, out, _ = run(capsys, "threshold", "-d", "3", "--noise-p", "0.9")
    assert code == 0
    assert "violated" in out
    code, out, _ = run(capsys, "threshold", "-d", "3", "--noise-p", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "not violated"


def test_threshold_family_I_matches_Id_at_d2(capsys):
    code, out, _ = run(capsys, "threshold", "-d", "2", "--family", "I", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["noise_threshold"] == pytest.approx(noise_threshold(2), abs=1e-12)


def dense_I3_value(d):
    return evaluate(build_expression("I3", d), closed_form_distribution(d))


@pytest.mark.parametrize("d", [2, 3, 4, 9, 64, 257])
def test_threshold_family_I3_matches_dense_oracle(capsys, d):
    value = dense_I3_value(d)
    threshold = 2.0 / value
    p = 0.8
    argv = ("threshold", "-d", str(d), "--family", "I3", "--noise-p", str(p))

    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["family"], payload["dimension"], payload["local_bound"]) == ("I3", d, 2.0)
    assert payload["quantum_value"] == pytest.approx(value, rel=1e-12, abs=0)
    assert payload["noise_threshold"] == pytest.approx(threshold, rel=1e-12, abs=0)
    assert payload["noisy_value"] == pytest.approx(p * value, rel=1e-12, abs=0)

    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = dict(list(csv.reader(io.StringIO(out)))[1:])
    assert rows["local_bound"] == "2.0"
    for key, expected in (
        ("quantum_value", value), ("noise_threshold", threshold), ("noisy_value", p * value)
    ):
        assert float(rows[key]) == payload[key]
        assert float(rows[key]) == pytest.approx(expected, rel=1e-12, abs=0)

    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"family I3, d = {d}"
    assert lines[2] == "local bound = 2"
    printed = [float(line.rpartition("= ")[2]) for line in lines[1:4:2]]
    assert printed == pytest.approx([value, threshold], rel=5e-6, abs=0)
    assert lines[4].endswith("-> violated")


@pytest.mark.parametrize("d", [3, 50, 1000])
def test_threshold_family_I3_verdict_on_both_sides(capsys, d):
    threshold = 2.0 / dense_I3_value(d)
    for p, verdict in ((threshold + 1e-6, "violated"), (threshold - 1e-6, "not violated")):
        code, out, _ = run(
            capsys, "threshold", "-d", str(d), "--family", "I3",
            "--noise-p", repr(p), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == verdict
        assert (payload["noisy_value"] > 2.0) == (verdict == "violated")


def test_threshold_family_I3_at_a_million_outcomes(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "threshold", "-d", "1000000", "--family", "I3", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert 2.0 < json.loads(out)["quantum_value"] < 4.0


@pytest.mark.parametrize("family", FAMILIES)
def test_threshold_builds_no_dense_table(capsys, family):
    # one (2, 2, d, d) float table at d = 4096 is 512 MiB
    tracemalloc.start()
    try:
        code = cli.main(
            ["threshold", "-d", "4096", "--family", family, "--noise-p", "0.8", "--format", "json"]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * 2**20


def test_threshold_dimension_cap(capsys, monkeypatch):
    assert cli.THRESHOLD_MAX_DIMENSION == 2 ** 20
    monkeypatch.setattr(cli, "THRESHOLD_MAX_DIMENSION", 60)
    code, out, _ = run(capsys, "threshold", "-d", "60", "--format", "json")
    assert code == 0
    assert json.loads(out)["dimension"] == 60

    def computed(*args, **kwargs):
        raise AssertionError("computed past the cap")

    monkeypatch.setattr(cli, "family_profile", computed)
    for family in FAMILIES:
        code, out, err = run(capsys, "threshold", "-d", "61", "--family", family)
        assert (code, out) == (2, "")
        assert err == (
            "error: threshold's Id value takes O(d) memory; d = 61 exceeds the cap 60\n"
        )


# ---------------------------------------------------------------- sweep


def test_sweep_csv_contract(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "2..5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,local_bound,quantum_value,noise_threshold"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["2", "3", "4", "5"]
    for row in rows:
        d = int(row[0])
        assert float(row[1]) == 2.0
        # repr floats round-trip exactly
        assert float(row[2]) == quantum_value(d)
        assert float(row[3]) == noise_threshold(d)


@pytest.mark.parametrize("argv", [("bound", "-d", "56"), ("sweep", "-d", "2..56")])
def test_bruteforce_commands_peak_memory_up_to_the_cap(capsys, argv):
    # d = 56 is the largest brute force under the default cap: 1,727,936 maximizers
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * 2**20


def test_sweep_cross_check_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(local_models, "local_bound_cases", lambda d: (1.9, {1.9}))
    code, _, err = run(capsys, "sweep", "-d", "2..3")
    assert code == 3
    assert "cross-check" in err


def test_sweep_cross_checks_up_to_the_cap(capsys, monkeypatch):
    cases = local_models.local_bound_cases
    monkeypatch.setattr(
        local_models, "local_bound_cases", lambda d: (1.9, {1.9}) if d == 56 else cases(d)
    )
    code, _, err = run(capsys, "sweep", "-d", "56")
    assert code == 3
    assert "d=56" in err

    def no_bruteforce(expr, **kwargs):
        raise AssertionError("brute force beyond the cap")

    monkeypatch.setattr(local_models, "local_bound_bruteforce", no_bruteforce)
    code, out, _ = run(capsys, "sweep", "-d", "57", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["local_bound"] == 2.0


@pytest.mark.parametrize("family", ["I", "I3"])
def test_sweep_rows_of_a_family_without_a_case_analysis(capsys, family):
    code, out, _ = run(capsys, "sweep", "-d", "2..6", "--family", family, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == family
    assert [row["d"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
    for row in payload["rows"]:
        d = row["d"]
        profile = family_profile(family, d)
        assert row == {
            "d": d,
            "local_bound": 3.0 if family == "I" else 2.0,
            "quantum_value": profile.quantum_value,
            "noise_threshold": profile.noise_threshold,
        }
        assert local_bound_bruteforce(build_expression(family, d))[0] == row["local_bound"]


@pytest.mark.parametrize("family", ["I", "I3"])
def test_sweep_family_past_the_cap_exits_2_before_any_row(
    capsys, monkeypatch, expression_builds, family
):
    profiles = []
    monkeypatch.setattr(cli, "family_profile", lambda *args: profiles.append(args))
    code, out, err = run(capsys, "sweep", "-d", "2..57", "--family", family)
    assert (code, out, err) == (2, "", PAST_THE_CAP_57)
    assert expression_builds == [] and profiles == []


def test_sweep_single_dimension(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "7", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["d"] == 7


# ---------------------------------------------------------------- optimize


def test_optimize_writes_trace_and_reports(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "optimize", "-d", "2", "--budget", "600", "--restarts", "2",
        "--trace-out", str(trace), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert trace.exists()
    assert payload["best_value"] <= payload["reference_value"] + 1e-6
    assert payload["trace_path"] == str(trace)
    header = trace.read_text().splitlines()[0]
    assert header == "evaluation_index,incumbent_value"


def test_trace_csv_round_trip(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    argv = ("-d", "2", "--budget", "400", "--restarts", "2", "--seed", "1")
    assert run(capsys, "optimize", *argv, "--trace-out", str(trace))[0] == 0
    result = maximize(OptimizationProblem(dimension=2, budget=400, restarts=2, seed=1))
    # the bytes csv.writer gives for the header and each (index, repr(value)) row
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["evaluation_index", "incumbent_value"])
    writer.writerows([index, repr(value)] for index, value in result.trace)
    text = trace.read_bytes().decode()
    assert text == expected.getvalue()
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [(int(i), float(v)) for i, v in rows] == list(result.trace)


def test_optimize_warns_when_the_reference_is_exceeded_at_fixed_weights(
    capsys, tmp_path, monkeypatch
):
    def beyond_reference(problem):
        setup = QuantumSetup.maximally_entangled(problem.dimension)
        value = family_profile(problem.family, problem.dimension).quantum_value + 0.5
        return OptimizationResult(
            best_value=value, best_phases=setup.phases, best_state_weights=setup.state_weights,
            trace=((1, value),), improved=False, evaluations=1,
        )

    monkeypatch.setattr(cli, "maximize", beyond_reference)
    argv = ("optimize", "-d", "3", "--trace-out", str(tmp_path / "trace.csv"))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == (
        "WARNING: search exceeded the reference value by 0.5; inspect the reported phases"
    )
    code, out, _ = run(capsys, *argv, "--vary-state-weights")
    assert code == 0
    assert "WARNING" not in out and "(difference 0.5)" in out


def test_optimize_default_trace_respects_env_dir(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "runs"
    monkeypatch.setenv("QUDIT_BELL_OUTPUT_DIR", str(out_dir))
    code, out, _ = run(
        capsys, "optimize", "-d", "2", "--budget", "400", "--restarts", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace_path"] == str(out_dir / "optimize_trace_Id_d2.csv")
    assert (out_dir / "optimize_trace_Id_d2.csv").exists()


def test_optimize_caps(capsys, tmp_path, monkeypatch):
    assert cli.OPTIMIZE_MAX_DIMENSION == 1024
    assert cli.OPTIMIZE_MAX_SEARCH_SIZE == 2 ** 19
    trace = tmp_path / "trace.csv"
    searched = []
    monkeypatch.setattr(cli, "maximize", lambda problem: searched.append(problem))
    lockstep = "error: optimize's lockstep search takes O(restarts x parameters) memory; "
    for argv, message in (
        (("-d", "1025"), "error: optimize's replay takes O(d^2) memory; "
                         "d = 1025 exceeds the cap 1024"),
        (("-d", "1024", "--restarts", "129"),
         lockstep + "129 restarts x 4092 parameters = 527868 exceeds the cap 524288"),
        (("-d", "2", "--restarts", "131073", "--budget", "131073"),
         lockstep + "131073 restarts x 4 parameters = 524292 exceeds the cap 524288"),
    ):
        code, out, err = run(capsys, "optimize", *argv, "--trace-out", str(trace))
        assert (code, out, err) == (2, "", message + "\n")
    assert searched == []
    assert not trace.exists()

    monkeypatch.undo()
    # d = 3 with free weights searches 4 * 2 + 3 = 11 parameters per restart
    argv = ("optimize", "-d", "3", "--vary-state-weights", "--restarts", "2",
            "--budget", "40", "--trace-out", str(trace))
    for name, cap in (("OPTIMIZE_MAX_DIMENSION", 3), ("OPTIMIZE_MAX_SEARCH_SIZE", 22)):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, cap)
            assert run(capsys, *argv)[0] == 0
            patch.setattr(cli, name, cap - 1)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "Traceback" not in err
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert f"exceeds the cap {cap - 1}" in lines[0]


def assert_one_cross_check_line(err):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("cross-check failure: ")


def test_optimize_replay_mismatch_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("qudit_bell.optimize.evaluate", lambda expr, dist: 0.0)
    trace = tmp_path / "trace.csv"
    code, out, err = run(
        capsys, "optimize", "-d", "2", "--budget", "40", "--restarts", "2",
        "--trace-out", str(trace),
    )
    assert code == 3
    assert out == ""
    assert_one_cross_check_line(err)
    assert "re-verification mismatch" in err


def test_quantum_I_value_guard_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("qudit_bell.quantum.quantum_correlator", lambda c, d: 0.5)
    code, out, err = run(capsys, "quantum", "-d", "5")
    assert code == 3
    assert out == ""
    assert_one_cross_check_line(err)
    assert "fell to 3 or below" in err


def test_optimize_validates_budget(capsys):
    code, _, err = run(capsys, "optimize", "-d", "2", "--budget", "0")
    assert code == 2


@pytest.mark.parametrize(
    "settings",
    [
        ("--budget", "1", "--restarts", "5"),
        ("--budget", "10", "--restarts", "20"),
        ("--seed", "-1"),
    ],
    ids=["budget-1-restarts-5", "budget-10-restarts-20", "negative-seed"],
)
def test_optimize_rejects_bad_search_settings(capsys, tmp_path, settings):
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "optimize", "-d", "3", *settings, "--trace-out", str(trace))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not trace.exists()


def test_optimize_vary_state_weights_reaches_free_weight_optimum(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "optimize", "-d", "3", "--vary-state-weights", "--format", "json",
        "--trace-out", str(trace),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vary_state_weights"] is True
    assert payload["best_value"] == pytest.approx(1 + math.sqrt(11 / 3), abs=1e-9)
    assert payload["exceeds_reference"] is True
    # the excess is the expected result here, so the table carries no warning
    code, out, _ = run(
        capsys, "optimize", "-d", "3", "--vary-state-weights", "--budget", "3000",
        "--trace-out", str(trace),
    )
    assert code == 0
    assert "WARNING" not in out
    assert float(out.split("(difference ")[1].split(")")[0]) > 1e-6


# ---------------------------------------------------------------- reproduce


def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if "PASS" in line or "FAIL" in line]
    assert len(lines) >= 7  # six rows plus the summary line
    assert "FAIL" not in out


def test_reproduce_json_rows(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {row["name"] for row in payload["rows"]}
    assert "Id_quantum_value_limit" in names
    for row in payload["rows"]:
        assert row["status"] == "PASS"
        assert row["relative_error"] <= 5e-5


def test_reproduce_detects_regression(capsys, monkeypatch):
    monkeypatch.setattr(quantum_module, "quantum_value", lambda d: 2.5)
    code, out, _ = run(capsys, "reproduce")
    assert code == 3
    assert "FAIL" in out


def test_bound_sweep_and_reproduce_leave_numpy_ma_unloaded():
    script = (
        "import contextlib, io, sys\n"
        "from qudit_bell import cli\n"
        "for argv in (['bound', '-d', '3'], ['sweep', '-d', '2..4'], ['reproduce']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this source tree's package."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs_main_and_exits_with_its_code():
    proc = run_python("-m", "qudit_bell", "threshold", "-d", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (Path(__file__).parent / "golden" / "threshold_Id_d2.txt").read_text()
    proc = run_python("-m", "qudit_bell", "bound", "-d", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: dimension must be >= 2, got 1\n"


# ---------------------------------------------------------------- output file


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "bound", "-d", "3", "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert str(target) in out
    assert json.loads(target.read_text())["local_bound"] == 2.0


def assert_write_error(code, err, path):
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {path}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_full_device_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "quantum", "-d", "3", "--output", "/dev/full")
    assert_write_error(code, err, "/dev/full")
    code, _, err = run(
        capsys, "optimize", "-d", "2", "--budget", "20", "--restarts", "1",
        "--trace-out", str(tmp_path / "trace.csv"), "--output", "/dev/full",
    )
    assert_write_error(code, err, "/dev/full")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_a_device_writes_it_in_place(capsys):
    code, out, err = run(capsys, "threshold", "-d", "3", "--output", "/dev/null")
    assert (code, out, err) == (0, "wrote /dev/null\n", "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


def test_trace_out_under_regular_file_exits_2(capsys, tmp_path):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory\n")
    trace = blocker / "trace.csv"
    code, _, err = run(
        capsys, "optimize", "-d", "2", "--budget", "20", "--restarts", "1",
        "--trace-out", str(trace),
    )
    assert_write_error(code, err, trace)
    assert blocker.read_text() == "not a directory\n"


def test_a_write_that_fails_halfway_leaves_the_old_file(capsys, tmp_path, monkeypatch):
    trace = tmp_path / "trace.csv"
    trace.write_text("old trace\n")
    trace.chmod(0o640)

    def fail_halfway(path, text, **kwargs):
        with open(path, "w") as handle:
            handle.write("evaluation_index,")
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", fail_halfway)
    code, out, err = run(
        capsys, "optimize", "-d", "2", "--budget", "20", "--restarts", "1",
        "--trace-out", str(trace),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {trace}: No space left on device\n"
    assert trace.read_text() == "old trace\n"
    assert list(tmp_path.iterdir()) == [trace]

    monkeypatch.undo()
    code, _, _ = run(
        capsys, "optimize", "-d", "2", "--budget", "20", "--restarts", "1",
        "--trace-out", str(trace),
    )
    assert code == 0
    assert trace.read_text().startswith("evaluation_index,incumbent_value\n")
    assert trace.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [trace]
