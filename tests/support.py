"""Shared helpers for tests: random codes, an identity matrix and a reference matrix product."""

from __future__ import annotations

import random

from lcdring import GF, FqCode, Matrix, RCode, RingElement

FIELDS = {
    4: lambda: GF(2, 2),
    5: lambda: GF(5),
    9: lambda: GF(3, 2),
}


def make_field(q: int) -> GF:
    return FIELDS[q]()


def random_fqcode(rng: random.Random, field: GF, n: int, k_rows: int) -> FqCode:
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k_rows)]
    return FqCode.from_rows(field, n, rows)


def random_rcode(rng: random.Random, field: GF, n: int, k_max: int) -> RCode:
    comps = [random_fqcode(rng, field, n, rng.randint(0, k_max)) for _ in range(4)]
    return RCode.from_components(comps)


def random_ring_vector(rng: random.Random, field: GF, n: int) -> tuple[RingElement, ...]:
    return tuple(
        RingElement(field, tuple(rng.randrange(field.q) for _ in range(4)))
        for _ in range(n)
    )


def identity(field: GF, n: int) -> Matrix:
    return Matrix(field, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a·b from scalar ``GF.add``/``GF.mul``, independent of the row kernels."""
    f = a.field
    assert f == b.field and a.ncols == b.nrows
    out = []
    for r in range(a.nrows):
        for c in range(b.ncols):
            acc = 0
            for j in range(a.ncols):
                acc = f.add(acc, f.mul(a.entry(r, j), b.entry(j, c)))
            out.append(acc)
    return Matrix(f, a.nrows, b.ncols, tuple(out))
