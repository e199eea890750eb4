"""Smoke test of the benchmark: ``python3 -m pytest -q perfbench``.

A one-deck run of each workload, traced and untraced, must print every
metric named in BENCHMARK.json with its unit and fail no op.  Each output
check must count a deliberately wrong value as a failure.  Outside a
source checkout the benchmark must exit non-zero without a result.  Host-speed
scaling must use the kernel times near each op.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
from qudit_bell import cli  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace), "--min-ops", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
    if not trace:
        assert any(line.split() == ["fail_ratio", "0", "ratio"] for line in lines)


def test_outside_a_checkout_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for trace in (0, 1):
        proc = _bench("reference", trace, cwd=tmp_path)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _json_edit(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _csv_edit(text: str, key: str, value: str) -> str:
    rows = [[k, value if k == key else v] for k, v in csv.reader(io.StringIO(text))]
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _swap_correlators(payload: dict) -> None:
    rows = payload["correlators"]
    rows[1]["value"], rows[2]["value"] = rows[2]["value"], rows[1]["value"]


def _bound(d, family, fmt):
    return Op("bound", ("bound", "-d", str(d), "--family", family, "--format", fmt), fmt, d, family)


def _quantum(d, fmt):
    return Op("quantum", ("quantum", "-d", str(d), "--format", fmt), fmt, d)


def _threshold(fmt):
    argv = ("threshold", "-d", "5", "--family", "I3", "--noise-p", "0.9", "--format", fmt)
    return Op("threshold", argv, fmt, 5, "I3", 0.9)


def _sweep(fmt):
    return Op("sweep", ("sweep", "-d", "2..6", "--format", fmt), fmt, 6, "Id")


def _reproduce(fmt):
    return Op("reproduce", ("reproduce", "--format", fmt), fmt)


WRONG_OUTPUTS = {
    "bound-json-value": (_bound(4, "Id", "json"),
                         lambda t: _json_edit(t, lambda p: p.update(local_bound=2.0000001))),
    "bound-json-routes": (_bound(4, "Id", "json"),
                          lambda t: _json_edit(t, lambda p: p.update(bruteforce_value=1.9))),
    "bound-csv-I": (_bound(4, "I", "csv"), lambda t: _csv_edit(t, "local_bound", "3.0000001")),
    "quantum-json-value": (_quantum(7, "json"), lambda t: _json_edit(
        t, lambda p: p.update(quantum_value_Id=p["quantum_value_Id"] * (1 + 1e-11)))),
    "quantum-json-order": (_quantum(7, "json"), lambda t: _json_edit(t, _swap_correlators)),
    "quantum-csv": (_quantum(7, "csv"), lambda t: t.replace("\n0,", "\n0,1", 1)),
    "quantum-table": (_quantum(7, "table"), lambda t: t.replace(
        "reference setup = ", "reference setup = 1", 1)),
    "threshold-json": (_threshold("json"), lambda t: _json_edit(
        t, lambda p: p.update(verdict="not violated"))),
    "threshold-csv": (_threshold("csv"), lambda t: _csv_edit(t, "verdict", "not violated")),
    "sweep-json": (_sweep("json"), lambda t: _json_edit(
        t, lambda p: p["rows"][2].update(local_bound=2.5))),
    "reproduce-json": (_reproduce("json"), lambda t: _json_edit(
        t, lambda p: p.update(all_pass=False))),
    "reproduce-csv": (_reproduce("csv"), lambda t: t.replace("PASS", "FAIL", 1)),
    "reproduce-table": (_reproduce("table"), lambda t: t.replace("all rows PASS", "some rows FAILED")),
}


@pytest.mark.parametrize("case", sorted(WRONG_OUTPUTS))
def test_check_rejects_wrong_value(case):
    op, corrupt = WRONG_OUTPUTS[case]
    out = _run(op.argv)
    checks.check(op, 0, out)
    with pytest.raises(checks.CheckFailure):
        checks.check(op, 0, corrupt(out))
    with pytest.raises(checks.CheckFailure):
        checks.check(op, 2, out)


def _optimize(tmp_path) -> tuple[Op, str]:
    trace = tmp_path / "trace.csv"
    argv = ("optimize", "-d", "3", "--family", "Id", "--budget", "200", "--restarts", "2",
            "--seed", "5", "--format", "json", "--trace-out", str(trace))
    op = Op("optimize", argv, "json", 3, "Id")
    return op, _run(argv)


def test_optimize_check_rejects_wrong_best_value(tmp_path):
    op, out = _optimize(tmp_path)
    checks.check(op, 0, out)
    wrong = _json_edit(out, lambda p: p.update(best_value=p["best_value"] + 1e-8))
    with pytest.raises(checks.CheckFailure):
        checks.check(op, 0, wrong)


def test_optimize_check_rejects_decreasing_trace(tmp_path):
    op, out = _optimize(tmp_path)
    trace = Path(json.loads(out)["trace_path"])
    rows = trace.read_text().splitlines()
    rows.insert(1, "0,9.0")
    trace.write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckFailure):
        checks.check(op, 0, out)


def test_host_speed_uses_kernel_times_near_the_op():
    speed = hostspeed.HostSpeed()
    # a slow host (kernel 20 ms) for the first seconds, a fast one (10 ms) later
    speed.times = [0.0, 1.0, 2.0, 3.0, 10.0, 10.1, 10.2, 10.3, 10.4]
    speed.durations = [0.02] * 4 + [0.01] * 5
    reference = hostspeed.REFERENCE_S
    assert speed.scaled(0.1, 10.1, 10.2) == pytest.approx(0.1 * reference / 0.01)
    # fewer than NEAREST samples in the window: the nearest ones are used
    assert speed.scaled(0.1, 1.4, 1.6) == pytest.approx(0.1 * reference / 0.02)
    speed.sample()
    assert len(speed.durations) == 10 and speed.durations[-1] > 0
