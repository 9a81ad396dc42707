"""Reproduce the ROADMAP re-anchor probes through the benchmark's tracer.

Usage (from the repository root): python3 perfbench/probes.py

Each probe calls lcdring directly under ``tracer.Tracer`` and prints the
traced figure next to the figure the ROADMAP recorded, with their ratio.
These are a sanity check of the tracing, not benchmark metrics.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from lcdring import GF, FqCode, Matrix, construct, linalg  # noqa: E402


def _report(what: str, measured: float, base: float, unit: str) -> None:
    print(f"{what}: {measured:.4g} {unit} traced, ROADMAP {base:.4g} {unit}, "
          f"ratio {measured / base:.2f}")


def main() -> int:
    rng = random.Random(2206)

    t = tracing.Tracer()
    t.install()
    try:
        f5 = GF(5)
        rows = [[int(i == j) for j in range(8)] + [rng.randrange(5) for _ in range(8)]
                for i in range(8)]
        FqCode.from_rows(f5, 16, rows).min_dist()
    finally:
        t.uninstall()
    _report("min_dist on a GF(5) [16, 8] code, per word (390,624 words)",
            t.metrics()["fqcode.min_dist.us_per_word"], 9.5e6 / 5**8, "us")

    for k, base in ((12, 0.091), (15, 0.70)):
        t = tracing.Tracer()
        t.install()
        try:
            construct.minor_search(Matrix.zero(GF(5), k, k))
        finally:
            t.uninstall()
        _report(f"minor_search on a zero {k}x{k} Gram matrix over GF(5) ({2**k} sets)",
                t.total_s("construct.minor_search"), base, "s")

    t = tracing.Tracer()
    t.install(counting=True)
    try:
        GF(2, 8).mul(2, 3)
    finally:
        t.uninstall()
    _report("first arithmetic call on a fresh GF(2^8)", t.metrics()["gf.first_use_s"], 1.3, "s")

    f = GF(2, 10)
    m = Matrix.from_rows(f, [[rng.randrange(f.q) for _ in range(60)] for _ in range(30)])
    t = tracing.Tracer()
    t.install()
    try:
        linalg.rref(m)
    finally:
        t.uninstall()
    _report("rref of a random 30x60 matrix over GF(2^10)", t.total_s("linalg.rref"), 2.0, "s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
