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
shape) with the median microseconds per call of each kernel.  It reads
the ``src`` tree beside this directory and is not part of the tier-1
suite.  Standard library only.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lcdring.gf import GF  # noqa: E402

FIELDS = [(5, 1), (2, 8), (3, 4), (3, 5), (23, 2)]
SHAPES = [(10, 20), (16, 32), (64, 128)]
KERNELS = ("gauss", "rref", "gram-h", "gram")
SECONDS = 1.0
ROUNDS = 10
SEED = 48


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


def main() -> int:
    cases = {}
    for p, e in FIELDS:
        f = GF(p, e)
        rng = random.Random(f"{SEED} {p} {e}")
        for k, n in SHAPES:
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            cases[f"| {f!r} | {k}x{n} |"] = calls(f, rows)
    times = {(label, name): [] for label, kernels in cases.items() for name in kernels}
    for _ in range(ROUNDS):
        for label, kernels in cases.items():
            for name, (call, prepare) in kernels.items():
                spent, stop = times[label, name], time.perf_counter() + SECONDS / ROUNDS
                while True:
                    arg = prepare()
                    start = time.perf_counter()
                    call(arg)
                    end = time.perf_counter()
                    spent.append(end - start)
                    if end >= stop:
                        break
    print(f"| field | shape | {' | '.join(KERNELS)} |")
    print(f"|---|---|{'---:|' * len(KERNELS)}")
    for label, kernels in cases.items():
        shown = [f"{statistics.median(times[label, name]) * 1e6:.1f}" if name in kernels else "-" for name in KERNELS]
        print(f"{label} {' | '.join(shown)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
