#!/usr/bin/env python3
"""Search measurement phases and compare against the reference setup.

Runs the derivative-free optimizer per dimension and reports how close
the search lands to the reference-setup value, optionally varying the
state weights too.

    python3 scripts/phase_search.py --dimensions 2..8
    python3 scripts/phase_search.py --dimensions 3 --budget 200000 --restarts 40 \
        --vary-state-weights --trace-dir traces/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qudit_bell import (  # noqa: E402
    OptimizationProblem,
    maximize,
    quantum_value,
    write_trace_csv,
)


def parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    d = int(text)
    return d, d


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dimensions", default="2..8", help="range like 2..8")
    parser.add_argument("--budget", type=int, default=50_000)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-state-weights", action="store_true")
    parser.add_argument("--trace-dir", default=None, help="write per-d trace CSVs here")
    args = parser.parse_args()

    lo, hi = parse_range(args.dimensions)
    print(f"{'d':>4} {'reference':>14} {'found':>14} {'difference':>12} "
          f"{'evals':>7} {'time':>7}")
    worst = 0.0
    for d in range(lo, hi + 1):
        problem = OptimizationProblem(
            dimension=d,
            budget=args.budget,
            restarts=args.restarts,
            seed=args.seed,
            vary_state_weights=args.vary_state_weights,
        )
        start = time.perf_counter()
        result = maximize(problem)
        elapsed = time.perf_counter() - start
        reference = quantum_value(d)
        diff = result.best_value - reference
        worst = max(worst, abs(diff))
        print(f"{d:>4} {reference:>14.10f} {result.best_value:>14.10f} "
              f"{diff:>+12.2e} {result.evaluations:>7} {elapsed:>6.1f}s")
        if args.trace_dir:
            out = Path(args.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_trace_csv(result, out / f"trace_d{d}.csv")
    print(f"worst |difference| = {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
