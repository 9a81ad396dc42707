"""Shared test helpers: random codes, every code of a small space, cyclic codes by zero
set, every ring word as ``RingElement``s, an identity matrix, a reference matrix product,
Gauss-Jordan and kernel, a reference ring in the (1, u, v, uv) basis with its Frobenius
and Galois dual, a Gray-walk step counter, the ``kernel_work`` fixture, and CLI parser."""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from typing import Iterator, NoReturn

import pytest

from lcdring import GF, FqCode, Matrix, RCode, RingElement, fqcode, oracle
from lcdring.cli import _cmd_analyze, _cmd_construct, _cmd_dual, _cmd_gray, _cmd_mindist, _cmd_verify
from lcdring.errors import ConsistencyError
from lcdring.fqcode import DEFAULT_ENUM_CAP
from lcdring.linalg import rref

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
    return RCode(comps)


def all_codes(field: GF, n: int) -> Iterator[FqCode]:
    """Every subspace of GF(q)^n once, the zero code first, through the checked constructor.

    A subspace has one RREF generator: per pivot set, row i is e_(pivot i)
    plus any values in the non-pivot columns right of its pivot.
    """
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivots]
            for values in itertools.product(range(field.q), repeat=len(free)):
                rows = [[int(c == pc) for c in range(n)] for pc in pivots]
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                yield FqCode(Matrix.from_rows(field, rows, ncols=n))


# (field, n) with n | q - 1, so any zero set Z in Z_n gives a cyclic code: n <= 26 over GF(4) to GF(27)
CYCLIC = [(GF(2, 2), 3), (GF(5), 4), (GF(2, 3), 7), (GF(3, 2), 4), (GF(3, 2), 8), (GF(2, 4), 3),
          (GF(2, 4), 15), (GF(5, 2), 3), (GF(5, 2), 4), (GF(5, 2), 8), (GF(5, 2), 24), (GF(3, 3), 13),
          (GF(3, 3), 26)]


def cyclic(field: GF, n: int, zeros) -> FqCode:
    """The cyclic code of length n | q - 1 with zero set ``zeros`` in Z_n, by scalar field operations.

    Its generator polynomial is g(x) = prod over z of (x - beta^z), beta the first unit in
    encoding order of multiplicative order n, and its rows are the n - |zeros| shifts of g.
    """
    assert (field.q - 1) % n == 0

    def order(x: int) -> int:
        d, y = 1, x
        while y != 1:
            d, y = d + 1, field.mul(y, x)
        return d

    beta = next(x for x in field.units() if order(x) == n)
    g = [1]  # ascending coefficients
    for z in zeros:
        root = field.pow(beta, z)
        g = [field.sub(a, field.mul(root, b)) for a, b in zip([0] + g, g + [0])]
    k = n - len(g) + 1
    return FqCode.from_rows(field, n, [[0] * i + g + [0] * (k - 1 - i) for i in range(k)])


def ring_words(rc: RCode) -> Iterator[tuple[RingElement, ...]]:
    """Every word of a ring code as n ``RingElement``s, one word of each component
    code per ring word, slot 1 varying fastest."""
    f = rc.field
    comps = [list(oracle.codewords(c)) for c in rc.comps][::-1]
    for slots in itertools.product(*comps):
        yield tuple(RingElement(f, g) for g in zip(*slots[::-1]))


def random_ring_vector(rng: random.Random, field: GF, n: int) -> tuple[RingElement, ...]:
    return tuple(
        RingElement(field, tuple(rng.randrange(field.q) for _ in range(4)))
        for _ in range(n)
    )


def identity(field: GF, n: int) -> Matrix:
    return Matrix(field, n, [[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a·b from scalar ``GF.add``/``GF.mul``, independent of the row kernels."""
    f = a.field
    assert f == b.field and a.ncols == b.nrows
    out = []
    for r in range(a.nrows):
        out.append([])
        for c in range(b.ncols):
            acc = 0
            for j in range(a.ncols):
                acc = f.add(acc, f.mul(a.rows[r][j], b.rows[j][c]))
            out[r].append(acc)
    return Matrix(f, b.ncols, out)


# The paper's own coordinates: (a, b, c, d) is a + bu + cv + duv, multiplied by the
# written-out table below, with no RingElement arithmetic and no u_to_gamma, so a code
# built through the idempotent decomposition can be checked against its definition.
# U_TABLE[i][j] is basis[i] * basis[j] for basis = (1, u, v, uv), by u^2 = u, v^2 = v, uv = vu.
U_TABLE = (
    (0, 1, 2, 3),  # 1 * (1, u, v, uv) = (1, u, v, uv)
    (1, 1, 3, 3),  # u * (1, u, v, uv) = (u, u, uv, uv)
    (2, 3, 2, 3),  # v * (1, u, v, uv) = (v, uv, v, uv)
    (3, 3, 3, 3),  # uv * (1, u, v, uv) = (uv, uv, uv, uv)
)


def u_mul(field: GF, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two u-basis quadruples."""
    out = [0, 0, 0, 0]
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            s = U_TABLE[i][j]
            out[s] = field.add(out[s], field.mul(a, b))
    return tuple(out)


def u_span(field: GF, gens: list[list[tuple[int, ...]]]) -> set[tuple[tuple[int, ...], ...]]:
    """Every sum of r_i * g_i over r_i in R, for one or more rows of u-basis quadruples.

    R is the F_q-span of 1, u, v and uv, so this is the F_q-span of s * g_i
    for s in that basis, closed under one spanning vector at a time.
    """
    add, mul = field.add, field.mul
    basis = [tuple(int(i == s) for i in range(4)) for s in range(4)]  # 1, u, v, uv
    span = {((0, 0, 0, 0),) * len(gens[0])}
    for g in gens:
        for s in basis:
            b = tuple(u_mul(field, s, x) for x in g)
            if b in span:  # so is every multiple of it
                continue
            multiples = [tuple(tuple(mul(c, y) for y in x) for x in b) for c in range(field.q)]
            span = {tuple(tuple(map(add, a, y)) for a, y in zip(w, m)) for w in span for m in multiples}
    return span


def u_frobenius(field: GF, x: tuple[int, ...], l: int) -> tuple[int, ...]:
    """x^(p^l) for a u-basis quadruple: u and v are fixed, so each coefficient is twisted."""
    return tuple(field.frobenius(a, l) for a in x)


def u_dual(field: GF, n: int, words: set[tuple[tuple[int, ...], ...]], l: int) -> set[tuple[tuple[int, ...], ...]]:
    """The l-Galois dual by its definition: every y in R^n with sum_j x_j * y_j^(p^l) = 0
    for every word x, each pair of entries multiplied by the written-out table once."""
    ring = list(itertools.product(range(field.q), repeat=4))
    twisted = {y: u_frobenius(field, y, l) for y in ring}
    products: dict = {}
    zero = (0, 0, 0, 0)

    def pairs_to_zero(x, y) -> bool:
        acc = zero
        for a, b in zip(x, y):
            if (a, b) not in products:
                products[a, b] = u_mul(field, a, twisted[b])
            acc = tuple(map(field.add, acc, products[a, b]))
        return acc == zero

    return {y for y in itertools.product(ring, repeat=n) if all(pairs_to_zero(x, y) for x in words)}


class WalkSteps:
    """Counts the work of distance walks by wrapping ``fqcode._projective_steps``.

    ``walks`` is the number of Gray walks started and ``steps`` the number
    of words they visited; a walk that stops early is charged only the
    words it reached.  The wrapper is undone with ``monkeypatch``.
    """

    def __init__(self, monkeypatch) -> None:
        self.walks = self.steps = 0
        real = fqcode._projective_steps

        def counted(p: int, e: int, k: int):
            self.walks += 1
            for i in real(p, e, k):
                self.steps += 1
                yield i

        monkeypatch.setattr(fqcode, "_projective_steps", counted)


def gauss_jordan(field: GF, rows) -> tuple[list[list[int]], tuple[int, ...]]:
    """Textbook Gauss-Jordan by scalar field operations: (RREF rows, pivot columns)."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = field.inv(rows[r][c])
        rows[r] = [field.mul(s, v) for v in rows[r]]
        for i in range(len(rows)):
            a = rows[i][c]
            if i != r and a:
                rows[i] = [field.sub(v, field.mul(a, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


def reduced_as_given(field: GF, rows) -> bool:
    """Whether ``rows`` are already their own RREF: Gauss-Jordan leaves every row as it is, and none is zero."""
    want, pivots = gauss_jordan(field, rows)
    return want == [list(row) for row in rows] and len(pivots) == len(rows)


class KernelWork:
    """The work at the row kernels, recorded where lcdring calls them.

    Three class attributes are wrapped, so every count reads one record
    whichever module the call comes from: ``gauss`` holds (caller, reduce)
    for each ``GF._gauss`` call, ``grams`` (caller, m, code) for each
    ``GF._gram_rows`` call, the code being the ``FqCode`` whose P
    ``_build_gram`` builds (kept so its id stays unique) and None for any
    other caller, and ``spans`` (caller, field, rows) for each
    ``FqCode._span`` call, the one way a code module reaches the reduction
    route.  The wrappers are undone with ``monkeypatch``.
    """

    def __init__(self, monkeypatch) -> None:
        self.gauss: list = []
        self.grams: list = []
        self.spans: list = []
        real_gauss, real_gram_rows, real_span = GF._gauss, GF._gram_rows, FqCode._span

        def gauss(f, rows, reduce=False):
            self.gauss.append((sys._getframe(1).f_code.co_name, reduce))
            return real_gauss(f, rows, reduce)

        def gram_rows(f, rows, m):
            caller = sys._getframe(1)
            name = caller.f_code.co_name
            self.grams.append((name, m, caller.f_locals["self"] if name == "_build_gram" else None))
            return real_gram_rows(f, rows, m)

        def span(cls, field, n, rows):
            self.spans.append((sys._getframe(1).f_code.co_name, field, rows))
            return real_span(field, n, rows)

        monkeypatch.setattr(GF, "_gauss", gauss)
        monkeypatch.setattr(GF, "_gram_rows", gram_rows)
        monkeypatch.setattr(FqCode, "_span", classmethod(span))

    def unreduced(self) -> int:
        """How many of the row lists spanned are not already their own RREF: exactly those are eliminated."""
        return sum(not reduced_as_given(f, rows) for _, f, rows in self.spans)


@pytest.fixture
def kernel_work(monkeypatch) -> KernelWork:
    return KernelWork(monkeypatch)


# An independent kernel route (two rref passes, pivots found afresh); the
# reference FqCode.galois_dual is checked against.
def nullspace_basis(m: Matrix) -> Matrix:
    """A canonical (RREF) basis of the right kernel {x : m · x^T = 0}."""
    f = m.field
    r, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    rows = []
    for fc in free:
        v = [0] * m.ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(r.rows[i][fc])
        rows.append(v)
    basis = Matrix.from_rows(f, rows, ncols=m.ncols)
    canon, nullity, _ = rref(basis)
    # free-column construction is independent, so no rank can be lost
    if nullity != len(free):
        raise ConsistencyError(f"kernel basis of {len(free)} vectors has rank {nullity}")
    return canon


# The argparse parser the CLI used before its command table; the reference
# the table parser is checked against.
class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error), as 2 means a cap was exceeded; subparsers inherit this."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _enum_cap(text: str) -> int:
    """A ``--max-enum`` value: a non-negative int."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcdring",
        description="Analyze and transform linear codes over F_q + uF_q + vF_q + uvF_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameters, duals and predicate table")
    p.add_argument("file")
    p.add_argument("--l", type=int, action="append", help="twist to check (repeatable); default all")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.add_argument("--json", metavar="FILE", help="also write a JSON report ('-' for stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct-lcd", help="scale into an equivalent LCD code")
    p.add_argument("file")
    p.add_argument("--mode", choices=["euclid", "galois"], required=True)
    p.add_argument("--l", type=int, default=None, help="twist (galois mode)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", metavar="FILE", help="where to write the scaled code")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("dual", help="write the Galois dual code")
    p.add_argument("file")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gray", help="write the expanded field code")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_gray)

    p = sub.add_parser("mindist", help="exact Lee distance by enumeration")
    p.add_argument("file")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=_cmd_mindist)

    p = sub.add_parser("verify", help="cross-check fast paths against brute force")
    p.add_argument("file")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=_cmd_verify)

    return parser
