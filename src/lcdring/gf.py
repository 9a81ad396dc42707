"""Exact arithmetic in GF(p^e).

Field elements are canonical integer encodings: the polynomial residue
c0 + c1*x + ... + c_{e-1}*x^{e-1} is stored as the integer
c0 + c1*p + ... + c_{e-1}*p^{e-1}, so elements range over [0, q) with
q = p^e.  Zero is 0 and the multiplicative identity is 1 in every field.

A ``GF`` instance validates its defining data on construction: ``p`` must
be prime and the modulus a monic irreducible polynomial of degree ``e``
given by ascending coefficients.  When no modulus is supplied, the monic
irreducible with the smallest integer encoding is selected, so a field is
reproducible from (p, e) alone.

Multiplication and inversion for extension fields are table backed up to
a size cutoff; larger fields fall back to per-call polynomial arithmetic.
Power-residue classification uses plain exponentiation, never discrete
logs, so no log tables exist anywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    BadBetaError,
    BadModulusError,
    BadRankError,
    EmptySetError,
    NotPrimeError,
)

# Above this order, extension fields compute products per call instead of
# building q-by-q tables.
_TABLE_LIMIT = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Coefficient lists are little endian and
# trimmed (no trailing zeros); [] is the zero polynomial.
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    rem = _trim(list(a))
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[i + shift] = (rem[i + shift] - factor * bi) % p
        _trim(rem)
    return _trim(quot), rem


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _pdivmod(a, b, p)[1]


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _ppowmod(base: Sequence[int], n: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, mod, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, acc, p), mod, p)
        acc = _pmod(_pmul(acc, acc, p), mod, p)
        n >>= 1
    return result


def _pinvmod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # extended Euclid; valid because mod is irreducible and a != 0 mod mod
    r0, r1 = _trim(list(mod)), _pmod(a, mod, p)
    s0: list[int] = []
    s1: list[int] = [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element has no inverse")
    inv_c = pow(r0[0], p - 2, p)
    return _pmod([(c * inv_c) % p for c in s0], mod, p)


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over F_p for a monic polynomial of degree >= 1.

    Root absence settles degrees up to 3; beyond that, any proper factor
    has degree d <= deg/2 and divides x^(p^d) - x, so gcd probes catch it.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    x = [0, 1]
    cur = x
    for _ in range(deg // 2):
        cur = _ppowmod(cur, p, coeffs, p)
        g = _pgcd(_psub(cur, x, p), coeffs, p)
        if len(g) - 1 >= 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        return (0, 1)
    for low in range(p**e):
        coeffs = []
        v = low
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise BadModulusError(f"no irreducible polynomial of degree {e} over GF({p})")


def _require_int(name: str, v: object) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an int, got {v!r}")
    return v


class GF:
    """The finite field GF(p^e); elements are ints in [0, p^e)."""

    __slots__ = ("p", "e", "q", "modulus", "_add_t", "_neg_t", "_mul_t", "_inv_t", "_frob_t")

    def __init__(self, p: int, e: int = 1, modulus: Iterable[int] | None = None):
        _require_int("p", p)
        _require_int("e", e)
        if p < 2 or not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            mod = _smallest_irreducible(p, e)
        else:
            mod = tuple(_require_int("modulus entry", c) for c in modulus)
            if len(mod) != e + 1:
                raise BadModulusError(f"modulus must have degree {e}, got {len(mod) - 1}")
            if any(not 0 <= c < p for c in mod):
                raise BadModulusError("modulus coefficients must lie in [0, p)")
            if mod[e] != 1:
                raise BadModulusError("modulus must be monic")
            if not _is_irreducible(mod, p):
                raise BadModulusError(f"modulus {list(mod)} is reducible over GF({p})")
        self.modulus = mod
        self._add_t: list[list[int]] | None = None
        self._neg_t: list[int] | None = None
        self._mul_t: list[list[int]] | None = None
        self._inv_t: list[int] | None = None
        self._frob_t: dict[int, list[int]] = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    # -- element encoding ---------------------------------------------------

    def check(self, x: int) -> int:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element encoding of {self!r}")
        return x

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Ascending-degree coefficient tuple of length e."""
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.e:
            raise ValueError(f"need exactly {self.e} coefficients")
        acc = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise ValueError("coefficient out of range")
            acc = acc * self.p + c
        return acc

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    @property
    def minus_one(self) -> int:
        return self.neg(1)

    # -- arithmetic ---------------------------------------------------------

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        mod = list(self.modulus)
        polys = [list(_trim(list(self.coeffs(x)))) for x in range(q)]
        enc = {}
        for x in range(q):
            enc[tuple(polys[x])] = x
        self._add_t = [[enc[tuple(_padd(polys[x], polys[y], p))] for y in range(q)] for x in range(q)]
        self._neg_t = [enc[tuple(_psub([], polys[x], p))] for x in range(q)]
        self._mul_t = [
            [enc[tuple(_pmod(_pmul(polys[x], polys[y], p), mod, p))] for y in range(q)]
            for x in range(q)
        ]
        inv = [0] * q
        for x in range(1, q):
            inv[x] = enc[tuple(_pinvmod(polys[x], mod, p))]
        self._inv_t = inv

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        if self._add_t is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._add_t is not None:
            return self._add_t[x][y]
        return self.encode(
            tuple((a + b) % self.p for a, b in zip(self.coeffs(x), self.coeffs(y)))
        )

    def neg(self, x: int) -> int:
        if self.e == 1:
            return -x % self.p
        if self._neg_t is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._neg_t is not None:
            return self._neg_t[x]
        return self.encode(tuple(-a % self.p for a in self.coeffs(x)))

    def sub(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x - y) % self.p
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x * y) % self.p
        if self._mul_t is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._mul_t is not None:
            return self._mul_t[x][y]
        prod = _pmod(
            _pmul(list(self.coeffs(x)), list(self.coeffs(y)), self.p),
            list(self.modulus),
            self.p,
        )
        prod = list(prod) + [0] * (self.e - len(prod))
        return self.encode(tuple(prod))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self.e == 1:
            return pow(x, self.p - 2, self.p)
        if self._inv_t is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._inv_t is not None:
            return self._inv_t[x]
        res = _pinvmod(list(self.coeffs(x)), list(self.modulus), self.p)
        res = list(res) + [0] * (self.e - len(res))
        return self.encode(tuple(res))

    def pow(self, x: int, m: int) -> int:
        """x**m by square and multiply; exponents reduce mod q - 1."""
        if m < 0:
            return self.pow(self.inv(x), -m)
        if x == 0:
            return 0 if m else 1
        if self.q > 2:
            m %= self.q - 1
        result = 1
        base = x
        while m:
            if m & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            m >>= 1
        return result

    def frobenius(self, x: int, l: int = 1) -> int:
        """x**(p**l); the identity when l is a multiple of e."""
        if l < 0:
            raise ValueError("frobenius iterate must be >= 0")
        l %= self.e
        if l == 0 or x < 2:
            return x
        if self.q <= _TABLE_LIMIT:
            table = self._frob_t.get(l)
            if table is None:
                table = [self.pow(v, self.p**l) for v in range(self.q)]
                self._frob_t[l] = table
            return table[x]
        return self.pow(x, self.p**l)

    # -- power residues -------------------------------------------------------

    def _check_beta(self, beta: int) -> int:
        beta = int(beta)
        if beta < 1 or (self.q - 1) % beta != 0:
            raise BadBetaError(f"beta={beta} does not divide q-1={self.q - 1}")
        return beta

    def is_beta_power(self, x: int, beta: int) -> bool:
        """True when x lies in the image of the beta-power map on units.

        Decided by x**((q-1)/beta) == 1, so no log tables are needed.
        """
        beta = self._check_beta(beta)
        if x == 0:
            raise ZeroDivisionError("0 is not a unit")
        return self.pow(x, (self.q - 1) // beta) == 1

    def beta_nonresidue(self, beta: int, rank: int = 0) -> int:
        """The rank-th smallest unit (by encoding) outside the beta powers."""
        beta = self._check_beta(beta)
        if beta == 1:
            raise EmptySetError("every unit is a first power; the complement is empty")
        seen = 0
        for x in range(1, self.q):
            if not self.is_beta_power(x, beta):
                if seen == rank:
                    return x
                seen += 1
        raise BadRankError(f"rank {rank} out of range; only {seen} non-residues exist")
