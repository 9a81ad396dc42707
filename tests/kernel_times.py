"""Time the row kernels ``GF._gauss`` and ``GF._gram_rows`` per field and shape.

    python3 tests/kernel_times.py

For each field of ``FIELDS`` and each shape of ``SHAPES`` it draws one
dense random matrix (seeded, so every run times the same rows) and calls
each kernel on it:

- ``gauss``: ``_gauss(rows)``, the forward pass with the determinant;
- ``rref``: ``_gauss(rows, reduce=True)``, forward and back;
- ``gram-h``: ``_gram_rows(rows, m)`` at a Hermitian m, one with e | 2m,
  which computes the entries on and above the diagonal: m = e/2 for
  even e, else the Euclidean m = e;
- ``gram``: ``_gram_rows(rows, 1)``, a non-Hermitian m, which computes
  every entry; ``-`` where e <= 2, as every m is then Hermitian.

Each kernel gets at least ``SECONDS`` per field and shape, spread over
``ROUNDS`` passes through all of them, so a drift in the machine's speed
during a run reaches every kernel alike.
``_gauss`` eliminates in place, so each call gets a fresh copy of the
rows, made outside the timed span.  Prints one table row per (field,
shape) with the median microseconds per call of each kernel.

Each run is also appended to the trajectory in ``BENCH_kernels.json`` at
the repository root: the commit (``git describe --always --dirty``), the
Python version, the median of ``PROBES`` readings of the speed probe of
``perfbench/child.py`` (imported, never written), and one record per
(field, shape, kernel) with the median microseconds over all calls and
the least and greatest of its per-round medians.  It reads the ``src``
tree beside this directory and is not part of the tier-1 suite.
Standard library only.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lcdring.gf import GF  # noqa: E402

FIELDS = [(5, 1), (2, 8), (3, 4), (3, 5), (23, 2)]
SHAPES = [(10, 20), (16, 32), (64, 128)]
KERNELS = ("gauss", "rref", "gram-h", "gram")
SECONDS = 1.0
ROUNDS = 10
SEED = 48
BENCH = ROOT / "BENCH_kernels.json"
PROBES = 101


def calls(f: GF, rows: list[list[int]]) -> dict:
    """Each kernel of ``KERNELS`` the field has, as (call, prepare): the timed span is call(prepare())."""
    copy = lambda: [list(row) for row in rows]  # noqa: E731
    same = lambda: rows  # noqa: E731
    hermitian = f.e // 2 if f.e % 2 == 0 else f.e
    out = {
        "gauss": (f._gauss, copy),
        "rref": (lambda r: f._gauss(r, True), copy),
        "gram-h": (lambda r: f._gram_rows(r, hermitian), same),
    }
    if f.e > 2:
        out["gram"] = (lambda r: f._gram_rows(r, 1), same)
    return out


def probe_ms() -> float:
    """The median of ``PROBES`` readings of perfbench's speed probe, in milliseconds."""
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(ROOT / "perfbench"))
    from child import probe

    return statistics.median(probe() for _ in range(PROBES)) * 1e3


def commit() -> str:
    """The checkout's ``git describe --always --dirty``, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on the path
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    cases = {}
    for p, e in FIELDS:
        f = GF(p, e)
        rng = random.Random(f"{SEED} {p} {e}")
        for k, n in SHAPES:
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            cases[repr(f), f"{k}x{n}"] = calls(f, rows)
    times = {(case, name): [[] for _ in range(ROUNDS)] for case, kernels in cases.items() for name in kernels}
    for r in range(ROUNDS):
        for case, kernels in cases.items():
            for name, (call, prepare) in kernels.items():
                spent, stop = times[case, name][r], time.perf_counter() + SECONDS / ROUNDS
                while True:
                    arg = prepare()
                    start = time.perf_counter()
                    call(arg)
                    end = time.perf_counter()
                    spent.append(end - start)
                    if end >= stop:
                        break
    records = []
    for (field, shape), kernels in cases.items():
        for name in kernels:
            rounds = times[(field, shape), name]
            records.append({
                "field": field, "shape": shape, "kernel": name,
                "median_us": round(statistics.median(t for spent in rounds for t in spent) * 1e6, 2),
                "round_min_us": round(min(map(statistics.median, rounds)) * 1e6, 2),
                "round_max_us": round(max(map(statistics.median, rounds)) * 1e6, 2),
            })
    print(f"| field | shape | {' | '.join(KERNELS)} |")
    print(f"|---|---|{'---:|' * len(KERNELS)}")
    medians = {(r["field"], r["shape"], r["kernel"]): r["median_us"] for r in records}
    for field, shape in cases:
        shown = [f"{medians[field, shape, name]:.1f}" if (field, shape, name) in medians else "-" for name in KERNELS]
        print(f"| {field} | {shape} | {' | '.join(shown)} |")
    run = {"commit": commit(), "python": platform.python_version(), "probe_ms": round(probe_ms(), 4),
           "seconds": SECONDS, "rounds": ROUNDS, "records": records}
    runs = json.loads(BENCH.read_text(encoding="utf-8")) if BENCH.exists() else []
    BENCH.write_text(json.dumps(runs + [run], indent=1) + "\n", encoding="utf-8")
    print(f"appended run {len(runs) + 1} to {BENCH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
