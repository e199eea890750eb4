"""CLI output, byte for byte, against golden files.

Each file under ``tests/golden/`` is the standard output of one argv in one
format.  The optimizer's trace path is replaced by ``TRACE``.  The files
were captured before the CLI learned to render only the requested format;
regenerate them only for an intended change of the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

import qudit_bell.cli as cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = {"table": "txt", "json": "json", "csv": "csv"}
TRACE = "<trace>"

CASES = {
    **{f"quantum_d{d}": ("quantum", "-d", str(d)) for d in (2, 3, 7, 64, 1000, 8192)},
    "bound_Id_d3": ("bound", "-d", "3"),
    "bound_Id_d6": ("bound", "-d", "6", "--family", "Id"),
    "bound_I_d4": ("bound", "-d", "4", "--family", "I"),
    "bound_Id_d57_past_cap": ("bound", "-d", "57"),
    "threshold_I_d5": ("threshold", "-d", "5", "--family", "I"),
    "threshold_I3_d9": ("threshold", "-d", "9", "--family", "I3"),
    "threshold_Id_d2": ("threshold", "-d", "2"),
    "threshold_I_d7_noise": ("threshold", "-d", "7", "--family", "I", "--noise-p", "0.75"),
    "threshold_I3_d64_noise": ("threshold", "-d", "64", "--family", "I3", "--noise-p", "0.9"),
    "threshold_Id_d3_noise": ("threshold", "-d", "3", "--noise-p", "0.5"),
    "sweep_2_16": ("sweep", "-d", "2..16"),
    "sweep_d7": ("sweep", "-d", "7"),
    "sweep_I_2_8": ("sweep", "-d", "2..8", "--family", "I"),
    "sweep_I3_2_8": ("sweep", "-d", "2..8", "--family", "I3"),
    "reproduce": ("reproduce",),
    **{
        f"optimize_Id_d{d}": ("optimize", "-d", str(d), "--budget", "400",
                              "--restarts", "2", "--seed", str(10 + d))
        for d in (2, 3, 4)
    },
    "optimize_I_d3_weights": ("optimize", "-d", "3", "--family", "I", "--budget", "300",
                              "--restarts", "3", "--seed", "5", "--vary-state-weights"),
}


def render(argv: tuple[str, ...], fmt: str, trace_dir: Path) -> str:
    """Standard output of one CLI call, with the trace path normalised."""
    trace = str(trace_dir / "trace.csv")
    extra = ("--trace-out", trace) if argv[0] == "optimize" else ()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, *extra, "--format", fmt])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} --format {fmt} exited {code}")
    return out.getvalue().replace(trace, TRACE)


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, fmt, tmp_path):
    expected = golden_path(name, fmt).read_bytes().decode()
    assert render(CASES[name], fmt, tmp_path) == expected


def refuse(*args, **kwargs):
    raise AssertionError("rendered a format that was not asked for")


@pytest.mark.parametrize("fmt", FORMATS)
def test_only_the_requested_format_is_rendered(fmt, tmp_path, monkeypatch):
    if fmt != "table":
        monkeypatch.setattr(cli, "_fmt", refuse)
    if fmt != "json":
        monkeypatch.setattr(cli, "_base_payload", refuse)
        monkeypatch.setattr(cli, "_json_text", refuse)
    for name, argv in CASES.items():
        assert render(argv, fmt, tmp_path) == golden_path(name, fmt).read_bytes().decode(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            for fmt in FORMATS:
                golden_path(name, fmt).write_text(render(argv, fmt, Path(tmp)), newline="")
