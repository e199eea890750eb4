"""Benchmark of the qudit-bell CLI: closed loop, one client, in-process.

    python3 perfbench/run.py --workload {search,bounds,reference} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Ops from `workloads.decks` go to ``qudit_bell.cli.main(argv)``
one at a time, each starting when the previous one returns, in whole decks
until ``--seconds`` of op time and at least 100 ops have passed.  Every
op's output is checked outside the timed region (`checks`).

``--trace 0`` reports the end-to-end metrics, with every timing scaled to a
reference host speed by `hostspeed.HostSpeed`; the raw wall times are printed
too.  ``--trace 1`` runs each deck
twice, once with the layer modules wrapped by `spans.Tracer` and once
without, and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the lines before it are a readable report and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import LAYERS, Tracer
from workloads import WORKLOADS, decks, warmup_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
# At least 10 latency samples lie beyond p90.
MIN_OPS = 100
# Stop starting ops after this much wall time, so a run ends within 180 s.
WALL_LIMIT_S = 140.0
PROBE_TIMEOUT_S = 60.0
FAILURES_SHOWN = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _prepare_environment() -> None:
    """Single-threaded BLAS/OpenMP and the checkout's sources; before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _import_cli():
    from qudit_bell import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qudit_bell imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, argv) -> tuple[float, object, str, str]:
    """One timed call of the CLI: (seconds, exit status or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
    except Exception as exc:  # an op that raises counts as failed
        status = exc
    elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue(), err.getvalue()


def setup_probe(trace_dir: Path) -> None:
    """Import the program and run the warm-up ops, then exit at once."""
    _prepare_environment()
    cli = _import_cli()
    for op in warmup_ops(trace_dir):
        _, status, _, err = run_op(cli, op.argv)
        if status != 0:
            sys.stderr.write(f"warm-up {' '.join(op.argv)} failed: {status} {err}")
            sys.stderr.flush()
            os._exit(1)
    sys.stdout.flush()
    os._exit(0)


def measure_setup(count: int, trace_dir: Path, speed: HostSpeed) -> list[tuple[float, float, float]]:
    """(wall time, start, end) of `count` fresh interpreters from spawn to warmed-up exit."""
    times = []
    speed.sample()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", str(trace_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.perf_counter()
        times.append((end - start, start, end))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}: {err.strip()}")
        speed.sample()
    return times


def environment() -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cgroup = None
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        with contextlib.suppress(OSError):
            cgroup = Path(path).read_text().strip()
            break
    return {
        "git_sha": git_sha or None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


class Loop:
    """Closed loop: runs ops, times them, checks their outputs."""

    def __init__(self, cli, checks, tracer=None, speed=None) -> None:
        self.cli, self.checks, self.tracer, self.speed = cli, checks, tracer, speed
        self.failures: list[str] = []
        self.output_bytes = 0  # of traced ops, like the spans
        self.start_timing()

    def start_timing(self) -> None:
        """Forget the samples of the warm-up ops."""
        self.latencies = {True: [], False: []}  # keyed by "traced"
        self.intervals: list[tuple[float, float]] = []  # of untraced ops
        self.optimize_ops = 0
        self.hits = 0

    def run(self, op, traced: bool = False) -> None:
        if traced:
            self.tracer.install()
        try:
            elapsed, status, out, err = run_op(self.cli, op.argv)
            end = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        self.latencies[traced].append(elapsed)
        if traced:
            self.output_bytes += len(out.encode())
        else:
            self.intervals.append((end - elapsed, end))
        if self.speed is not None:
            self.speed.sample_if_due()
        try:
            hit = self.checks.check(op, status, out)
        except self.checks.CheckFailure as exc:
            self.failures.append(f"{' '.join(op.argv)}: {exc} {err.strip()}")
            return
        if op.kind == "optimize":
            self.optimize_ops += 1
            self.hits += bool(hit)

    @property
    def attempted(self) -> int:
        return len(self.latencies[True]) + len(self.latencies[False])


def end_to_end(latencies: list[float], setup_times: list[float]) -> dict[str, float]:
    latencies_ms = sorted(1000.0 * t for t in latencies)
    return {
        "ops_per_s": len(latencies_ms) / (sum(latencies_ms) / 1000.0),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def benchmark(args: argparse.Namespace) -> int:
    wall_start = time.monotonic()
    _prepare_environment()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        trace_dir = Path(tmp)
        os.environ["QUDIT_BELL_OUTPUT_DIR"] = tmp
        speed = None if args.trace else HostSpeed()
        setup_times = [] if args.trace else measure_setup(SETUP_PROBES, trace_dir, speed)
        cli = _import_cli()
        import checks

        tracer = Tracer() if args.trace else None
        loop = Loop(cli, checks, tracer, speed)
        for op in warmup_ops(trace_dir):
            loop.run(op, traced=bool(args.trace))
        if loop.failures:
            sys.stderr.write("warm-up failed:\n" + "\n".join(loop.failures) + "\n")
            return 1
        loop.start_timing()
        timed = 0.0
        for index, deck in enumerate(decks(args.workload, args.seed, trace_dir)):
            if timed >= args.seconds and (args.trace or loop.attempted >= args.min_ops):
                break
            if time.monotonic() - wall_start > WALL_LIMIT_S:
                sys.stderr.write(f"stopped after {WALL_LIMIT_S} s of wall time\n")
                break
            passes = ((True, False) if index % 2 == 0 else (False, True)) if args.trace else (False,)
            for traced in passes:
                for op in deck:
                    loop.run(op, traced)
            timed = sum(loop.latencies[True]) + sum(loop.latencies[False])
        env = environment()

    report = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}; closed loop, 1 client",
              "env " + json.dumps(env)]
    for failure in loop.failures[:FAILURES_SHOWN]:
        report.append(f"FAILED {failure}")
    attempted, failed = loop.attempted, len(loop.failures)
    if args.trace:
        metrics = trace_metrics(loop, tracer, report)
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        tracer.write(spans_path)
        report.append(f"spans written to {spans_path}")
    else:
        raw = end_to_end(loop.latencies[False], [t for t, _, _ in setup_times])
        scaled = [speed.scaled(t, *span) for t, span in zip(loop.latencies[False], loop.intervals)]
        values = end_to_end(scaled, [speed.scaled(*probe) for probe in setup_times])
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        beyond = sum(1000.0 * t > values["latency_p90_ms"] for t in scaled)
        report.append(f"latency samples {len(scaled)}, {beyond} beyond p90; "
                      f"setup_s is the median of {len(setup_times)} fresh interpreters")
        report.append(f"timings scaled to the reference host speed from {len(speed.durations)} "
                      f"kernel samples (median {1000 * statistics.median(speed.durations):.4g} ms)")
        report.append("raw wall times: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in END_TO_END_UNITS if name != "peak_rss_mb"))
        extra = {"fail_ratio": (failed / attempted, "ratio")}
        if loop.optimize_ops:
            extra["search_hit_ratio"] = (loop.hits / loop.optimize_ops, "ratio")
        for name, (value, unit) in {**metrics, **extra}.items():
            report.append(f"{name:<24} {value:>14.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_metrics(loop: Loop, tracer, report: list[str]) -> dict[str, tuple[float, str]]:
    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = (loop.output_bytes, "bytes")
    traced = len(loop.latencies[True]) / sum(loop.latencies[True])
    untraced = len(loop.latencies[False]) / sum(loop.latencies[False])
    metrics["tracing.traced_ops_per_s"] = (traced, "1/s")
    metrics["tracing.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["tracing.overhead_ratio"] = (untraced / traced - 1.0, "ratio")
    layers = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0]:.4g}"
                       for layer in LAYERS)
    report.append(f"self time by layer (s): {layers}")
    report.append(f"tracing overhead: {traced:.4g} ops/s traced vs {untraced:.4g} untraced "
                  f"({100 * metrics['tracing.overhead_ratio'][0]:+.1f}%)")
    for name, (value, unit) in metrics.items():
        report.append(f"{name:<48} {value:>14.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="fewest timed ops in an untraced run")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(Path(args.setup_probe))
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return benchmark(args)
    except (ImportError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
