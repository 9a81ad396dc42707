"""Reference arithmetic that checks lcdring's outputs without using lcdring.

Nothing here imports the package under test.  Fields use exp/log/Zech
tables relative to a primitive element, linear algebra is plain Gauss
elimination on lists of rows, and minimum distances come from
Brouwer-Zimmermann enumeration over disjoint information sets.  Element
encodings match the on-disk format: the residue c0 + c1*x + ... is the
integer c0 + c1*p + ..., reduced by the modulus written into each file.
"""

from __future__ import annotations

import itertools
from typing import Sequence

Rows = list[list[int]]


def _polymulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Product of two length-e coefficient lists modulo a monic polynomial."""
    e = len(mod) - 1
    out = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for d in range(len(out) - 1, e - 1, -1):
        c = out[d]
        if c:
            for i in range(e + 1):
                out[d - e + i] = (out[d - e + i] - c * mod[i]) % p
    return out[:e]


def _divides(div: Sequence[int], poly: Sequence[int], p: int) -> bool:
    """Whether the monic ``div`` divides ``poly`` (ascending coefficients)."""
    rem = list(poly)
    dd = len(div) - 1
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d]
        if c:
            for i in range(dd + 1):
                rem[d - dd + i] = (rem[d - dd + i] - c * div[i]) % p
    return not any(rem[:dd])


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e with the smallest encoding, by trial division."""
    if e == 1:
        return (0, 1)

    def monic(deg: int, low: int) -> list[int]:
        coeffs = [(low // p**i) % p for i in range(deg)]
        return coeffs + [1]

    for low in range(p**e):
        poly = monic(e, low)
        if not any(
            _divides(monic(d, c), poly, p)
            for d in range(1, e // 2 + 1)
            for c in range(p**d)
        ):
            return tuple(poly)
    raise ValueError(f"no irreducible of degree {e} over GF({p})")


class Field:
    """GF(p^e) with the smallest irreducible modulus, as exp/log/Zech tables."""

    def __init__(self, p: int, e: int = 1):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = smallest_irreducible(p, e)
        q = self.q
        if e == 1:
            self.minus_one = p - 1
            return
        digits = [[(x // p**i) % p for i in range(e)] for x in range(q)]

        def enc(c: Sequence[int]) -> int:
            return sum(v * p**i for i, v in enumerate(c))

        for g in range(2, q):
            exp = [1]
            cur = digits[1]
            while True:
                cur = _polymulmod(cur, digits[g], self.modulus, p)
                x = enc(cur)
                if x == 1:
                    break
                exp.append(x)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        zech = [-1] * (q - 1)
        for i, x in enumerate(exp):
            s = enc([(a + b) % p for a, b in zip(digits[1], digits[x])])
            zech[i] = log[s] if s else -1
        self._exp, self._log, self._zech = exp, log, zech
        self.minus_one = exp[(q - 1) // 2] if p != 2 else 1

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        if not x:
            return y
        if not y:
            return x
        n = self.q - 1
        lx = self._log[x]
        z = self._zech[(self._log[y] - lx) % n]
        return 0 if z < 0 else self._exp[(lx + z) % n]

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return x * y % self.p
        if not x or not y:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def neg(self, x: int) -> int:
        return self.mul(self.minus_one, x)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def inv(self, x: int) -> int:
        if not x:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[-self._log[x] % (self.q - 1)]

    def frob(self, x: int, m: int) -> int:
        """x ** (p ** m); the identity when e divides m."""
        m %= self.e
        if not m or x < 2:
            return x
        return self._exp[self._log[x] * self.p**m % (self.q - 1)]

    def norm(self, x: int, m: int) -> int:
        """x * frob(x, m): the factor a column scaling by x puts on a twisted Gram."""
        return self.mul(x, self.frob(x, m))

    def field_doc(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


# ---------------------------------------------------------------------------
# Linear algebra on lists of rows.
# ---------------------------------------------------------------------------


def rref(f: Field, rows: Rows, ncols: int) -> tuple[Rows, list[int]]:
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = f.inv(rows[r][c])
        rows[r] = [f.mul(s, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = f.neg(rows[i][c])
                rows[i] = [f.add(v, f.mul(t, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(f: Field, rows: Rows, ncols: int) -> int:
    return len(rref(f, rows, ncols)[1])


def det(f: Field, rows: Rows) -> int:
    """Determinant by elimination; the empty matrix has determinant 1."""
    rows = [list(r) for r in rows]
    n = len(rows)
    acc = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            acc = f.neg(acc)
        piv = rows[c][c]
        acc = f.mul(acc, piv)
        pinv = f.inv(piv)
        for i in range(c + 1, n):
            if rows[i][c]:
                t = f.neg(f.mul(rows[i][c], pinv))
                rows[i] = [f.add(v, f.mul(t, w)) for v, w in zip(rows[i], rows[c])]
    return acc


def gram(f: Field, rows: Rows, m: int) -> Rows:
    """rows times the transpose of their entrywise (p^m)-th power."""
    tw = [[f.frob(v, m) for v in r] for r in rows]
    out = []
    for a in rows:
        line = []
        for b in tw:
            acc = 0
            for x, y in zip(a, b):
                if x and y:
                    acc = f.add(acc, f.mul(x, y))
            line.append(acc)
        out.append(line)
    return out


def nullspace(f: Field, rows: Rows, ncols: int) -> Rows:
    """The RREF basis of {x : rows @ x^T = 0}."""
    red, pivots = rref(f, rows, ncols)
    pset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pset:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(red[i][fc])
        basis.append(v)
    return rref(f, basis, ncols)[0]


def twisted_dual(f: Field, rows: Rows, ncols: int, l: int) -> Rows:
    """RREF basis of the Galois dual {s : sum t_i s_i^(p^l) = 0 for all t in the span}."""
    tw = [[f.frob(v, f.e - l) for v in r] for r in rows]
    return nullspace(f, tw, ncols)


def scale_cols(f: Field, rows: Rows, factors: Sequence[int]) -> Rows:
    return [[f.mul(v, a) for v, a in zip(r, factors)] for r in rows]


# ---------------------------------------------------------------------------
# Minimum distance.
# ---------------------------------------------------------------------------


def _info_sets(f: Field, rows: Rows, n: int) -> list[Rows]:
    """Generators systematic on up to two disjoint information sets."""
    k = len(rows)
    out = []
    used: set[int] = set()
    for _ in range(2):
        cols = [c for c in range(n) if c not in used] + sorted(used)
        perm_rows = [[r[c] for c in cols] for r in rows]
        red, piv = rref(f, perm_rows, n)
        if len(piv) < k or any(cols[c] in used for c in piv):
            break
        back = [0] * n
        for new, old in enumerate(cols):
            back[old] = new
        out.append([[r[back[c]] for c in range(n)] for r in red])
        used.update(cols[c] for c in piv)
    return out


def min_distance(f: Field, rows: Rows, n: int) -> int:
    """Exact minimum Hamming weight of the span of full-rank ``rows``.

    Brouwer-Zimmermann: after enumerating every message of weight <= t on
    each of m disjoint information sets, any word not yet seen has weight
    at least m * (t + 1), so the search stops once the best weight found
    is no larger than that bound.
    """
    k = len(rows)
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    gens = _info_sets(f, rows, n)
    units = range(1, f.q)
    best = n
    for t in range(1, k + 1):
        for g in gens:
            for support in itertools.combinations(range(k), t):
                for coeffs in itertools.product(units, repeat=t):
                    word = [0] * n
                    for i, c in zip(support, coeffs):
                        word = [f.add(a, f.mul(c, b)) for a, b in zip(word, g[i])]
                    w = sum(1 for v in word if v)
                    if w < best:
                        best = w
        if best <= len(gens) * (t + 1):
            return best
    return best
