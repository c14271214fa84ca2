"""Seeded workload generator for the sobprod benchmark.

Every workload is an endless, deterministic stream of operations derived
from ``(workload, seed)``.  The runner consumes it in a closed loop (one
client, one op at a time) until the time budget is spent, so the stream is
built from short *cycles*: each cycle holds a fixed stratified mix and the
seed only moves values inside each stratum.  That keeps the cost of a run
nearly independent of the seed while every seed still sends different
inputs to the program.

An op is a plain dict:

    kind     "cli" (``sobprod.cli.main(argv, out)``) or "lib"
             (``sobprod.best_bounds(BoundQuery(n, a, d))``)
    argv     CLI arguments (kind "cli")
    n, a, d  query (kind "lib")
    expect   "ok": admissible, must exit 0 and pass every check;
             "edge": must end with an exit code in {0, 2, 3, 4}
    stratum  label used in reports
    rows     number of result rows the op must emit when it succeeds
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

WORKLOADS = {
    "bound-mix": (
        "independent bound queries a CLI user waits on; non-integer n puts the "
        "per-lambda hypergeometric quadrature at the centre"
    ),
    "crossover-sweep": (
        "integer-n sweeps across the Fourier/Bessel crossover; every row computes "
        "its lam-free moments, and Bessel work past the crossover is wasted"
    ),
    "large-n": (
        "best_bounds above bessel_max_n; only the lattice upper bound and the "
        "closed-form Fourier bound run, no hypergeometric calls"
    ),
    "oracle": (
        "grid/DFT oracle validate (d=1..3) and search (d=1,2); FFT norms, grid "
        "sampling and the only large memory footprint"
    ),
}

# the stated size that rows_per_s is reported with
SIZES = {
    "bound-mix": "one row per query; non-integer n in [2.7, 4.8], integer n in [2, 12], d = 1..3",
    "crossover-sweep": "two rows per sweep, n = k and k + 11 for k = 2..12, d = 1..3, every row's moments computed afresh; README sweep n = 2, 31, 60",
    "large-n": "one BoundReport per query; n log-uniform in (150, 3000], d = 1..3",
    "oracle": "one record per command; grids 16384 (d=1), 512^2 (d=2), 128^3 (d=3)",
    "edge": "known-defect queries, one row or an error each",
}

# Known defects at the time the benchmark was written.  Every op here fails
# (traceback, exit code or time limit) until the program is fixed, so this
# workload is kept out of BENCHMARK.json and run on demand.
EDGE_WORKLOAD = "edge"

DEFAULT_SEED = 0


def _num(x: float) -> str:
    """Stable decimal text for a generated float argument."""
    return repr(round(x, 4))


def _bound(n: float, a: float, d: int, stratum: str) -> dict:
    argv = ["bound", "--n", _num(n), "--a", _num(a), "--d", str(d), "--format", "json"]
    return {"kind": "cli", "argv": argv, "expect": "ok", "stratum": stratum, "rows": 1}


def _edge(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": argv + ["--format", "json"], "expect": "edge",
            "stratum": "edge", "rows": 0}


def _stratified(rng: random.Random, k: int) -> list[float]:
    """k points in [0, 1), one per equal-width stratum, in seeded order."""
    pts = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(pts)
    return pts


def _rotation(rng: random.Random, items: tuple) -> Iterator:
    """Endless stream of items in seeded shuffled rounds, so that every
    item is used equally often whatever the stream is cut at."""
    while True:
        yield from rng.sample(items, len(items))


# ---------------------------------------------------------------------------
# bound-mix
# ---------------------------------------------------------------------------

# Non-integer high-regime cells (d, n range, a range), visited in this order
# every cycle.  The cells are narrow so that an op's cost depends on its
# cell, not on the seed.  n - d/2 stays above 2: closer to d/2 the far tail
# of the hypergeometric integrand needs ~1e8 series terms per node and one
# query runs for minutes (see "edge").
_NONINT_CELLS = (
    (1, (2.7, 2.9), (1.0, 1.1)),   # d = 1 with a near 1
    (2, (3.3, 3.5), (1.4, 1.6)),
    (3, (3.8, 4.0), (1.9, 2.1)),
    (1, (3.1, 3.3), (1.4, 1.6)),
    (2, (3.6, 3.8), (1.9, 2.1)),
    (3, (4.6, 4.8), (2.4, 2.6)),
    (1, (3.6, 3.8), (1.8, 2.0)),
    (2, (4.2, 4.4), (2.2, 2.4)),
)

# inadmissible and non-finite inputs the CLI already rejects cleanly
_CLEAN_EDGES = (
    ["bound", "--n", "-1", "--a", "1", "--d", "1"],
    ["bound", "--n", "nan", "--a", "1", "--d", "1"],
    ["bound", "--n", "2", "--a", "nan", "--d", "2"],
    ["bound", "--n", "2", "--a", "1", "--d", "0"],
    ["bound", "--n", "2", "--a", "0.3", "--d", "1"],
    ["bound", "--n", "1.2", "--a", "2", "--d", "1"],
    ["bound", "--n", "-inf", "--a", "1", "--d", "1"],
    ["bound", "--n", "3", "--a", "inf", "--d", "1"],
    ["bound", "--n", "two", "--a", "1", "--d", "1"],
    ["bound", "--n", "2", "--a", "1", "--d", "1.5"],
)


def _off_integer(x: float) -> float:
    """x moved at least 0.05 away from the nearest integer, so a non-integer
    query never takes the integer-n moment path."""
    r = round(x)
    if abs(x - r) < 0.05:
        x = r + (0.05 if x >= r else -0.05)
    return x


def _bound_mix(rng: random.Random) -> Iterator[dict]:
    """Cycles of 12 in a fixed stratum order: the 8 non-integer cells, 2
    integer queries (the second repeats an earlier (n, d) at a new a), 1
    low-regime and 1 clean edge query.  Two thirds of the ops are
    non-integer, so the median op lies inside that stratum."""
    seen_integer: list[tuple[int, int]] = []
    edge_order = list(range(len(_CLEAN_EDGES)))
    rng.shuffle(edge_order)
    for cycle in itertools.count():
        nonint = [_bound(_off_integer(rng.uniform(*n_range)), rng.uniform(*a_range), d,
                         "non-integer")
                  for d, n_range, a_range in _NONINT_CELLS]
        d = rng.choice((1, 2, 3))
        n = rng.randint(max(2, d), 12)
        integer = _bound(n, rng.uniform(d / 2.0 + 0.2, min(n, d / 2.0 + 2.5)), d, "integer")
        seen_integer.append((n, d))
        n2, d2 = rng.choice(seen_integer)
        repeat = _bound(n2, rng.uniform(d2 / 2.0 + 0.2, min(n2, d2 / 2.0 + 2.5)), d2,
                        "integer-repeat")
        d = rng.choice((1, 2, 3))
        n = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, d / 2.0)
        low = _bound(n, rng.uniform(d / 2.0 + 0.1, d / 2.0 + 4.0), d, "low")
        edge = _edge(list(_CLEAN_EDGES[edge_order[cycle % len(edge_order)]]))
        yield from (nonint[0], nonint[1], integer, nonint[2], nonint[3], low,
                    nonint[4], nonint[5], repeat, nonint[6], nonint[7], edge)


# ---------------------------------------------------------------------------
# crossover-sweep
# ---------------------------------------------------------------------------

# Where the Fourier bound overtakes the Bessel bound at a of about 1.5 to 2:
# n = 6 (d = 1), 10 (d = 2), 12 (d = 3).  Every sweep op crosses it with a
# coarse step: rows at n = k and k + 11 for k = 2..12, so each op has one
# row at or below the crossover region and one past it, where the Bessel
# work is wasted.  A cycle visits every (k, d) once, in an order that
# alternates cheap (small k) and costly (large k) ops so that any prefix of
# the cycle has about the cycle's average cost: a slower host runs fewer
# ops of the same mix.  The 66 (n, d) pairs of a cycle (n = 2..23) exceed
# the 64 moment sets the program caches, and a cycle is longer than a run,
# so every row (bar n = 2, d = 2, which the README sweep computes first)
# computes its n + 1 lam-free moments and then reuses them across lam; rows
# per second stay the same from op to op.
_SWEEP_SPAN = 11
_SWEEP_K = (2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7)
_SWEEP_A = {1: (0.9, 1.1), 2: (1.5, 1.7), 3: (1.8, 2.0)}
_README_SWEEP_STEP = 29


def _sweep(a: float, d: int, n_from: int, n_to: int, step: int, stratum: str) -> dict:
    argv = ["sweep", "--a", _num(a), "--d", str(d), "--n-from", str(n_from),
            "--n-to", str(n_to), "--n-step", str(step), "--format", "json"]
    return {"kind": "cli", "argv": argv, "expect": "ok", "stratum": stratum,
            "rows": len(range(n_from, n_to + 1, step))}


def _crossover_sweep(rng: random.Random) -> Iterator[dict]:
    """The README sweep (a=2, d=2, n = 2..60) at every 29th n, then cycles
    of two-row sweeps across the crossover, d = 1, 2, 3 in turn, at seeded
    a."""
    yield _sweep(2.0, 2, 2, 60, _README_SWEEP_STEP, "readme")
    while True:
        for k in _SWEEP_K:
            for d, a_range in _SWEEP_A.items():
                yield _sweep(rng.uniform(*a_range), d, k, k + _SWEEP_SPAN, _SWEEP_SPAN,
                             f"sweep-d{d}")


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------

_LARGE_N_RANGE = (150.0, 3000.0)


def _large_n(rng: random.Random) -> Iterator[dict]:
    """Cycles of 15 log-stratified n in (150, 3000]; alternate integer and
    non-integer n, seeded (a, d).  Cost grows like n^2, so an odd stratum
    count keeps the median op inside the middle stratum instead of on the
    cost step between two."""
    lo, hi = _LARGE_N_RANGE
    while True:
        for i, u in enumerate(_stratified(rng, 15)):
            n = lo * (hi / lo) ** u
            n = float(max(151, round(n))) if i % 2 == 0 else _off_integer(n)
            d = rng.choice((1, 2, 3))
            a = rng.uniform(d / 2.0 + 0.1, d / 2.0 + 3.0)
            yield {"kind": "lib", "n": round(n, 4), "a": round(a, 4), "d": d,
                   "expect": "ok", "stratum": "large-n", "rows": 1}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# (n, a) pairs that pass validation on the default grids; (3, 3) at d = 3
# fails the grid decay check and is in "edge"
_VALIDATE_NA = {1: ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)),
                2: ((2, 2), (3, 2), (3, 3), (4, 2)),
                3: ((2, 2), (3, 2), (4, 2), (4, 3))}
_SEARCH_NA = {1: ((1, 1), (2, 1), (2, 2), (3, 2)), 2: ((2, 2), (3, 2), (3, 3))}


def _oracle_op(mode: str, n: int, a: int, d: int, extra: tuple[str, ...] = ()) -> dict:
    argv = ["oracle", "--n", str(n), "--a", str(a), "--d", str(d), "--mode", mode,
            *extra, "--format", "json"]
    return {"kind": "cli", "argv": argv, "expect": "ok", "stratum": f"{mode}-d{d}",
            "rows": 1}


def _oracle(rng: random.Random) -> Iterator[dict]:
    """Cycles of 6: validate at d = 1, 2, 3 and search at d = 1, 2, plus a
    second d = 3 validation.  The thirds of the latency range (d = 1 ops;
    d = 2 ops; d = 3 ops) then hold the median and the tail op in their
    middles.  (n, a) pairs rotate so each is used equally often."""
    pairs = {("validate", d): _rotation(rng, _VALIDATE_NA[d]) for d in (1, 2, 3)}
    pairs.update({("search", d): _rotation(rng, _SEARCH_NA[d]) for d in (1, 2)})
    budgets = _rotation(rng, tuple(range(30, 61, 5)))

    def op(mode: str, d: int) -> dict:
        extra = () if mode == "validate" else (
            "--seed", str(rng.randrange(1 << 16)), "--budget", str(next(budgets)))
        return _oracle_op(mode, *next(pairs[mode, d]), d, extra)

    while True:
        yield from (op("validate", 1), op("validate", 2), op("search", 1),
                    op("validate", 3), op("search", 2), op("validate", 3))


# ---------------------------------------------------------------------------
# edge: known defects
# ---------------------------------------------------------------------------


def _edge_workload(rng: random.Random) -> Iterator[dict]:
    """Crash list (tracebacks today), an admissible oracle query that fails
    its grid decay check, and one hang, last, so it ends at the per-op time
    limit after everything else has run."""
    n_overflow = rng.randint(93, 150)
    for argv in (
        ["bound", "--n", "inf", "--a", "1", "--d", "1"],
        ["bound", "--n", "0.5", "--a", "1e3", "--d", "1"],
        ["bound", "--n", "1500", "--a", "2", "--d", "2"],
        ["bound", "--n", "96", "--a", "96", "--d", "1"],
        ["bound", "--n", str(n_overflow), "--a", "2", "--d", "2"],
    ):
        yield _edge(argv)
    yield _oracle_op("validate", 3, 3, 3)
    yield _bound(1.2, 1.0, 1, "hang")


_GENERATORS = {
    "bound-mix": _bound_mix,
    "crossover-sweep": _crossover_sweep,
    "large-n": _large_n,
    "oracle": _oracle,
    EDGE_WORKLOAD: _edge_workload,
}


def generate(workload: str, seed: int) -> Iterator[dict]:
    """The op stream of a workload; the same (workload, seed) gives the same ops."""
    if workload not in _GENERATORS:
        raise KeyError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def op_key(op: dict) -> str:
    """Canonical text of an op, used to look up reference values."""
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return f"best_bounds n={op['n']!r} a={op['a']!r} d={op['d']}"
