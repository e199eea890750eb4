"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of decks.  A deck holds every slot of the
workload once, in seeded order, and each slot draws its dimension from its
own narrow range.  Any whole number of decks therefore has the same op mix
and reaches the same largest sizes, whichever seed drew the inputs.  In the
25-slot decks, the slots at the p50 and p90 ranks of the deck's cost order
are three like ops each, so those percentiles fall inside a cluster of like
ops rather than on the edge between two unlike ones.

This module imports nothing from the program: the program receives only the
argv lists built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# optimize: a small fixed budget keeps an op near 0.2 s, so a run holds more
# than 100 ops; at this budget d = 2, 3 reach the reference value and larger d
# mostly do not, which leaves room for a better optimizer to show.
SEARCH_DIMENSIONS = range(2, 13)
SEARCH_FAMILIES = ("Id", "I")
SEARCH_BUDGET = 1500
SEARCH_RESTARTS = 3

# bound slots (family, lo, hi), cheapest first; a sweep -d 2..16 makes 25.
# Id up to 32 runs both routes (32^4 is below the enumeration cap), Id from 57
# is past the cap and runs case analysis only, I runs brute force only.  The
# one op above the p90 cluster is Id at d = 32, the largest brute force.
BOUNDS_SLOTS = (
    ("I", 8, 16), ("I", 17, 24), ("Id", 8, 10), ("I", 25, 32), ("Id", 11, 12),
    ("Id", 57, 63), ("Id", 13, 13), ("Id", 71, 85), ("Id", 14, 14), ("I", 33, 40),
    ("Id", 15, 16),
    ("Id", 105, 105), ("Id", 105, 105), ("Id", 105, 105),  # p50: case analysis
    ("I", 48, 48), ("Id", 17, 18), ("Id", 125, 135), ("Id", 19, 20),
    ("Id", 145, 155), ("Id", 21, 22),
    ("Id", 180, 180), ("Id", 180, 180), ("Id", 180, 180),  # p90: case analysis
    ("Id", 32, 32),
)

# quantum: one slot per dimension ladder and format.  A fixed ladder bounds
# the number of mpmath reference values a run computes.
QUANTUM_LADDERS = (
    (2, 3, 4, 6, 8, 12),
    (16, 24, 32, 48, 64, 96),
    (128, 192, 256, 384, 512, 768),
    (1024, 1536, 2048, 3072, 4096, 6144, 8192),
)
FORMATS = ("table", "json", "csv")

# threshold slots (family, lo, hi).  I3 goes through the dense (2, 2, d, d)
# tensors: d = 1024 sits at p90, and d = 2048 sets the peak memory, near 0.5 GB.
THRESHOLD_SLOTS = (
    ("Id", 3, 64), ("Id", 65, 1024), ("Id", 4096, 4096),
    ("I", 3, 64), ("I", 65, 1024), ("I", 4096, 4096),
    ("I3", 3, 64), ("I3", 65, 512),
    ("I3", 1024, 1024), ("I3", 1024, 1024), ("I3", 1024, 1024),  # p90
    ("I3", 2048, 2048),
)
NOISE_P_RANGE = (0.5, 1.0)

WORKLOADS = ("search", "bounds", "reference")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output checks need to know."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    dimension: int | None = None
    family: str | None = None
    noise_p: float | None = None


def warmup_ops(trace_dir: Path) -> list[Op]:
    """One tiny op per code path, run before timing starts.

    They fill `catalan_constant`'s cache and numpy's lazy imports, and give
    every layer a span in the traced run.
    """
    return [
        Op("reproduce", ("reproduce", "--format", "json"), "json"),
        Op("bound", ("bound", "-d", "3", "--format", "json"), "json", 3, "Id"),
        Op("quantum", ("quantum", "-d", "3", "--format", "json"), "json", 3),
        Op("threshold", ("threshold", "-d", "3", "--family", "I3", "--noise-p", "0.9",
                         "--format", "json"), "json", 3, "I3", 0.9),
        _optimize(2, "Id", 0, trace_dir / "warmup.csv", budget=30, restarts=1),
    ]


def _optimize(d: int, family: str, seed: int, trace: Path, *,
              budget: int = SEARCH_BUDGET, restarts: int = SEARCH_RESTARTS) -> Op:
    argv = ("optimize", "-d", str(d), "--family", family, "--budget", str(budget),
            "--restarts", str(restarts), "--seed", str(seed), "--format", "json",
            "--trace-out", str(trace))
    return Op("optimize", argv, "json", d, family)


def _bound(d: int, family: str, fmt: str) -> Op:
    return Op("bound", ("bound", "-d", str(d), "--family", family, "--format", fmt),
              fmt, d, family)


def _search_deck(rng: random.Random, trace_dir: Path, deck: int) -> list[Op]:
    return [
        _optimize(d, family, rng.randrange(2 ** 31), trace_dir / f"trace-{deck}-{family}{d}.csv")
        for family in SEARCH_FAMILIES
        for d in SEARCH_DIMENSIONS
    ]


def _bounds_deck(rng: random.Random) -> list[Op]:
    ops = [_bound(rng.randint(lo, hi), family, rng.choice(("json", "csv")))
           for family, lo, hi in BOUNDS_SLOTS]
    fmt = rng.choice(("json", "csv"))
    ops.append(Op("sweep", ("sweep", "-d", "2..16", "--format", fmt), fmt, 16, "Id"))
    return ops


def _reference_deck(rng: random.Random) -> list[Op]:
    ops = [
        Op("quantum", ("quantum", "-d", str(d), "--format", fmt), fmt, d)
        for ladder in QUANTUM_LADDERS
        for fmt in FORMATS
        for d in (rng.choice(ladder),)
    ]
    for family, lo, hi in THRESHOLD_SLOTS:
        d = rng.randint(lo, hi)
        p = round(rng.uniform(*NOISE_P_RANGE), 6)
        fmt = rng.choice(("json", "csv"))
        argv = ("threshold", "-d", str(d), "--family", family, "--noise-p", repr(p),
                "--format", fmt)
        ops.append(Op("threshold", argv, fmt, d, family, p))
    fmt = rng.choice(FORMATS)
    ops.append(Op("reproduce", ("reproduce", "--format", fmt), fmt))
    return ops


def decks(workload: str, seed: int, trace_dir: Path) -> Iterator[list[Op]]:
    """Endless seeded decks of `workload`; the same seed gives the same decks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    deck = 0
    while True:
        if workload == "search":
            ops = _search_deck(rng, trace_dir, deck)
        elif workload == "bounds":
            ops = _bounds_deck(rng)
        else:
            ops = _reference_deck(rng)
        rng.shuffle(ops)
        yield ops
        deck += 1
