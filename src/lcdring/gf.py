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

Prime fields compute with ints mod p.  Every extension field builds, once
on construction, exp/log/Zech tables relative to its smallest primitive
encoding g: exp[i] = g^i, log[g^i] = i and zech[k] = log(1 + g^k), O(q)
entries in all.  Each product, inverse, power and Frobenius image is then
one or two lookups in exp/log, and each sum one more in zech.  Orders are
capped at ``MAX_FIELD_ORDER`` before any primality, irreducibility or
table work.

Linear algebra runs on three row kernels: ``dot`` (the sum of products
of two rows), ``sub_scaled`` (the row update xs - c*ys) and
``frobenius_row`` (the entrywise x -> x^(p^m) of a row).  A prime field
computes them with ints and one reduction mod p, and its Frobenius map
is the identity; an extension field runs one loop over the same
exp/log/Zech tables, with no method call per entry.
"""

from __future__ import annotations

from operator import mul as _imul
from typing import Iterable, Sequence

from .errors import BadLError, BadModulusError, NotPrimeError

# Largest field order GF accepts (the README's desk scale); every
# extension field holds O(q) table entries.
MAX_FIELD_ORDER = 2**20


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up to sqrt(n); [n] iff n is prime."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Coefficient lists are little endian and
# trimmed (no trailing zeros); [] is the zero polynomial.
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    rem = _trim(list(a))
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        for i, bi in enumerate(b):
            rem[i + shift] = (rem[i + shift] - factor * bi) % p
        _trim(rem)
    return rem


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


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over F_p for a monic polynomial of degree >= 1.

    A reducible polynomial has an irreducible factor of degree d <= deg/2,
    which divides x^(p^d) - x, so one gcd probe per d decides every degree;
    the d = 1 probe is the root test.
    """
    deg = len(coeffs) - 1
    x = [0, 1]
    cur = x
    for _ in range(deg // 2):
        cur = _ppowmod(cur, p, coeffs, p)
        g = _pgcd(_psub(cur, x, p), coeffs, p)
        if len(g) - 1 >= 1:
            return False
    return True


def _smallest_irreducible(field: GF) -> tuple[int, ...]:
    """The monic irreducible of degree e with the smallest encoding; one of every degree exists."""
    if field.e == 1:
        return (0, 1)
    mods = (field.coeffs(low) + (1,) for low in range(1, field.q))
    # a constant term 0 means x divides it
    return next(mod for mod in mods if mod[0] and _is_irreducible(mod, field.p))


def _require_int(name: str, v: object) -> int:
    if type(v) is not int:
        raise ValueError(f"{name} must be an int, got {v!r}")
    return v


class GF:
    """The finite field GF(p^e); elements are ints in [0, p^e)."""

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log", "_zech", "_log_neg1")

    def __init__(self, p: int, e: int = 1, modulus: Iterable[int] | None = None):
        _require_int("p", p)
        _require_int("e", e)
        if p < 2:
            raise NotPrimeError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        # bound q = p^e one factor at a time, so a huge p fails before the
        # primality test and a huge e is never used as an exponent
        q = 1
        for _ in range(e):
            q *= p
            if q > MAX_FIELD_ORDER:
                raise ValueError(f"field order {p}^{e} exceeds {MAX_FIELD_ORDER}")
        if _prime_divisors(p) != [p]:
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        if modulus is None:
            mod = _smallest_irreducible(self)
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
        # prime fields compute mod p and leave the tables empty
        self._exp, self._log, self._zech = self._log_tables() if e > 1 else ([], [], [])
        self._log_neg1 = self._log[p - 1] if e > 1 else 0

    def _log_tables(self) -> tuple[list[int], list[int | None], list[int | None]]:
        """exp (doubled, so log sums need no reduction), log and zech.

        Multiplying an encoding by x shifts its digits and folds the top
        digit t back in as t * x^e, which touches only the digits where the
        modulus has a nonzero coefficient.  So the build walks x-orbits:
        the subgroup <x> of order d, then its cosets g^a <x> for a < m =
        (q - 1) / d, where g^a x^b = g^(a + b*s) for x = g^s.
        """
        p, e, q = self.p, self.e, self.q
        n = q - 1
        mod = list(self.modulus)
        primes = _prime_divisors(n)
        g = next(
            g for g in range(p, q)
            if all(_ppowmod(self.coeffs(g), n // r, mod, p) != [1] for r in primes)
        )
        top = p ** (e - 1)
        # t * x^e == -t * (mod[0] + mod[1] x + ... + mod[e-1] x^(e-1)): for
        # each top digit t, the digits to add and their place values
        fold = [[]] + [
            [(-t * c % p, p**j) for j, c in enumerate(mod[:e]) if c] for t in range(1, p)
        ]

        def x_orbit(start: int) -> list[int]:
            out, v = [], start
            while True:
                out.append(v)
                t, rest = divmod(v, top)
                v = rest * p
                for c, place in fold[t]:
                    digit = v // place % p
                    v += ((digit + c) % p - digit) * place
                if v == start:
                    return out

        def encode(poly: list[int]) -> int:
            return sum(c * p**i for i, c in enumerate(poly))

        sub = x_orbit(1)
        d = len(sub)
        m = n // d
        # g^m generates <x>, so g^m = x^u with u a unit mod d
        s = m * pow(sub.index(encode(_ppowmod(self.coeffs(g), m, mod, p))), -1, d)
        exp = [0] * (2 * n)
        log: list[int | None] = [None] * q
        rep = [1]
        for a in range(m):
            i = a
            for v in x_orbit(encode(rep)) if a else sub:
                exp[i] = exp[i + n] = v
                log[v] = i
                i = (i + s) % n
            rep = _pmod(_pmul(rep, self.coeffs(g), p), mod, p)
        # 1 + v bumps the constant digit; it is 0 exactly when v = -1
        zech = [log[v + 1 - p if v % p == p - 1 else v + 1] for v in exp[:n]]
        return exp, log, zech

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
        if type(x) is not int or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element encoding of {self!r}")
        return x

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Ascending-degree coefficient tuple of length e."""
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        if not x or not y:
            return x or y
        log = self._log
        a = log[x]
        # x + y = g^a (1 + g^(log y - a)); a negative index wraps mod q - 1
        z = self._zech[log[y] - a]
        return 0 if z is None else self._exp[a + z]

    def neg(self, x: int) -> int:
        if self.e == 1:
            return -x % self.p
        return self._exp[self._log[x] + self._log_neg1] if x else 0

    def sub(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x - y) % self.p
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x * y) % self.p
        if not x or not y:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self.e == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[x]]

    def pow(self, x: int, m: int) -> int:
        """x**m for any int m; 0**0 is 1 and a negative m inverts x first.

        Prime fields use modular exponentiation; extension fields read
        g^(m * log x mod (q - 1)) from the exp table.
        """
        if m < 0:
            x, m = self.inv(x), -m
        if self.e == 1:
            return pow(x, m, self.p)
        if x == 0:
            return 0 if m else 1
        return self._exp[self._log[x] * m % (self.q - 1)]

    def check_twist(self, l: int) -> int:
        """l, if it is an int in [0, e - 1] naming the twist x -> x^(p^l); BadLError otherwise."""
        if type(l) is not int or not 0 <= l < self.e:
            raise BadLError(f"l must lie in [0, {self.e - 1}], got {l!r}")
        return l

    def frobenius(self, x: int, l: int = 1) -> int:
        """x**(p**l); the identity when l is a multiple of e."""
        if l < 0:
            raise ValueError("frobenius iterate must be >= 0")
        if self.e == 1 or x == 0:
            return x
        return self._exp[self._log[x] * self.p ** (l % self.e) % (self.q - 1)]

    # -- row kernels ----------------------------------------------------------

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """sum(x_i * y_i) over two rows of equal length."""
        if self.e == 1:
            return sum(map(_imul, xs, ys)) % self.p
        log, zech, n = self._log, self._zech, self.q - 1
        # acc is the log of the running sum, -1 while that sum is 0;
        # g^acc + g^t = g^(acc + zech[t - acc]), and a negative index wraps
        acc = -1
        for x, y in zip(xs, ys):
            if x and y:
                t = log[x] + log[y]
                if t >= n:
                    t -= n
                if acc < 0:
                    acc = t
                else:
                    z = zech[t - acc]
                    if z is None:
                        acc = -1
                    else:
                        acc += z
                        if acc >= n:
                            acc -= n
        return 0 if acc < 0 else self._exp[acc]

    def sub_scaled(self, xs: Sequence[int], c: int, ys: Sequence[int]) -> list[int]:
        """The row xs - c*ys, for rows of equal length."""
        if self.e == 1:
            p = self.p
            return [(x - c * y) % p for x, y in zip(xs, ys)]
        if not c:
            return list(xs)
        log, exp, zech, n = self._log, self._exp, self._zech, self.q - 1
        # -c*y = g^(lc + log y); each log stays below n, so every sum of two
        # fits the doubled exp table
        lc = log[c] + self._log_neg1
        if lc >= n:
            lc -= n
        out = []
        for x, y in zip(xs, ys):
            if not y:
                out.append(x)
                continue
            t = lc + log[y]
            if not x:
                out.append(exp[t])
                continue
            if t >= n:
                t -= n
            a = log[x]
            z = zech[t - a]
            out.append(0 if z is None else exp[a + z])
        return out

    def frobenius_row(self, xs: Sequence[int], m: int) -> list[int]:
        """The row of x**(p**m) for each entry x of xs, for m >= 0."""
        if self.e == 1:
            return list(xs)
        n = self.q - 1
        k = pow(self.p, m, n)  # x^(p^m) = g^(log x * k), as g^(q-1) = 1
        if k == 1:
            return list(xs)
        log, exp = self._log, self._exp
        return [exp[log[x] * k % n] if x else 0 for x in xs]
