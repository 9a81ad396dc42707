"""Exact arithmetic in GF(p^e).

An element is the integer c0 + c1*p + ... + c_{e-1}*p^{e-1} encoding the
residue c0 + c1*x + ... + c_{e-1}*x^{e-1}, so elements are [0, q) with
q = p^e; zero is 0 and one is 1.  ``GF`` caps q at ``MAX_FIELD_ORDER``,
then checks that p is prime and the modulus (ascending coefficients) a
monic irreducible of degree e; a prime field's one modulus is x, [0, 1].
Without a modulus it takes the monic irreducible of smallest encoding, so
(p, e) alone fixes the field.  A field is a frozen ``Value``, equal and
hashed by (p, e, modulus).

Prime fields compute with ints mod p.  An extension field builds, on
construction, exp/log tables for its smallest primitive encoding g:
exp[i] = g^i and log[g^i] = i, O(q) entries, walking the cosets of <x>
and deciding g in the quotient.  Products, inverses, powers and
Frobenius images are one or two lookups in exp/log.  In characteristic 2
a sum is the XOR of the encodings; for odd p it is one more lookup in a
Zech table zech[k] = log(1 + g^k).  exp and zech hold two periods, so
sums and differences of logs index them unreduced; only a log times an
int (a power, a Frobenius twist) or one fed on into a sum is reduced.

Linear algebra runs on one elimination kernel and one Gram kernel,
``_gauss`` and ``_gram_rows``, plus ``frobenius_row``.  ``_gauss`` runs
a whole Gauss loop, forward and, when asked, back to the reduced form,
with the field class chosen once per call.  ``_gram_rows`` returns the
whole Gram matrix, and when F^(2m) is the identity it reads the entries
below the diagonal from those above.  Both kernels read a row
through a view built in the kernel and never stored: its nonzero entries
as (column, value) pairs in a prime field and (column, log value) pairs
in an extension field, so an elimination step or a product walks the
nonzero entries only and reads logs without converting each entry again.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter, mul as _imul
from typing import Iterable, Sequence

from .errors import BadLError, BadModulusError, NotPrimeError
from .value import Value

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


class GF(Value):
    """The finite field GF(p^e), a frozen value keyed by (p, e, modulus); elements are ints in [0, p^e)."""

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log", "_zech", "_log_neg1")
    _key = attrgetter("p", "e", "modulus")

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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", q)
        if modulus is None:
            mod = _smallest_irreducible(self)
        else:
            mod = tuple(_require_int("modulus entry", c) for c in modulus)
            if e == 1 and mod != (0, 1):
                raise BadModulusError(f"the modulus of a prime field is x = [0, 1], got {list(mod)}")
            if len(mod) != e + 1:
                raise BadModulusError(f"modulus must have degree {e}, got {len(mod) - 1}")
            if any(not 0 <= c < p for c in mod):
                raise BadModulusError("modulus coefficients must lie in [0, p)")
            if mod[e] != 1:
                raise BadModulusError("modulus must be monic")
            if not _is_irreducible(mod, p):
                raise BadModulusError(f"modulus {list(mod)} is reducible over GF({p})")
        object.__setattr__(self, "modulus", mod)
        # prime fields compute mod p and leave the tables empty
        exp, log, zech = self._log_tables() if e > 1 else ([], [], [])
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_zech", zech)
        object.__setattr__(self, "_log_neg1", log[p - 1] if e > 1 else 0)

    def _log_tables(self) -> tuple[list[int], list[int | None], list[int | None]]:
        """exp and zech in two periods, so log sums index them unreduced, and log; zech is [] for p = 2.

        Multiplying an encoding by x shifts its digits and folds the top
        digit t back in as t * x^e, touching only the digits where the
        modulus is nonzero.  So the build walks x-orbits into exp and log:
        <x> first, of order d and index m, at places 0, 1, ...  As g^m lies
        in <x>, g is primitive iff g^m = x^u, gcd(u, d) = 1, and no g^(m/r)
        for a prime r | m lies in <x>.  Then x = g^s: x^b moves to place
        b*s, and coset g^a <x> fills places a, a + s, ... from g^a =
        sum_j g_j * x^j g^(a-1), a digit sum per place over coset a - 1.
        """
        p, e, q = self.p, self.e, self.q
        n, mod, top = q - 1, self.modulus, p ** (e - 1)
        # t * x^e == -t * (mod[0] + mod[1] x + ... + mod[e-1] x^(e-1)): for
        # each top digit t, the digits to add and their place values
        fold = [[]] + [
            [(-t * c % p, p**j) for j, c in enumerate(mod[:e]) if c] for t in range(1, p)
        ]
        exp, log = [0] * n, [None] * q

        def walk(v: int, i: int, s: int) -> int:
            start = v
            while True:
                exp[i], log[v] = v, i
                t, rest = divmod(v, top)
                v = rest * p
                for c, place in fold[t]:
                    digit = v // place % p
                    v += ((digit + c) % p - digit) * place
                if v == start:
                    return i + s
                i = (i + s) % n

        def power(g: int, k: int) -> int:
            return sum(c * p**i for i, c in enumerate(_ppowmod(self.coeffs(g), k, mod, p)))

        d = walk(1, 0, 1)
        m = n // d
        primes = _prime_divisors(m)
        for g in range(p, q):  # log is None off <x> so far
            u = log[power(g, m)]
            if gcd(u, d) == 1 and all(log[power(g, m // r)] is None for r in primes):
                break
        s = m * pow(u, -1, d)
        if m > 1:
            for b, v in enumerate(exp[:d]):
                i = b * s % n
                exp[i], log[v] = v, i
        terms = [(c, j * s) for j, c in enumerate(self.coeffs(g)) if c]
        places = [p**j for j in range(e)]
        for a in range(1, m):
            rep = 0
            for place in places:
                acc = 0
                for c, shift in terms:
                    acc += c * (exp[(a - 1 + shift) % n] // place)
                rep += acc % p * place
            walk(rep, a, s)
        # 1 + v bumps the constant digit; it is 0 exactly when v = -1.  In
        # characteristic 2 a sum is an XOR of encodings and reads no zech.
        zech = [log[v + 1 - p if v % p == p - 1 else v + 1] for v in exp] if p > 2 else []
        exp *= 2  # in place, so the build never holds a table twice
        zech *= 2
        return exp, log, zech

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    # -- element encoding ---------------------------------------------------

    def check(self, x: int) -> int:
        return self.check_row((x,))[0]

    def check_row(self, xs: Iterable[int]) -> tuple[int, ...]:
        """xs as a tuple, if each entry is a plain int in [0, q): the one rule for a field value."""
        xs, q = tuple(xs), self.q
        for x in xs:
            if type(x) is not int or not 0 <= x < q:
                raise ValueError(f"{x!r} is not an element encoding of {self!r}")
        return xs

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
        if self.p == 2:  # digits add mod 2
            return x ^ y
        if self.e == 1:
            return (x + y) % self.p
        if not x or not y:
            return x or y
        log = self._log
        a = log[x]
        # x + y = g^a (1 + g^(log y - a)); a difference of logs indexes zech unreduced
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

    def _gram_power(self, l: int) -> tuple[int, int]:
        """(m, p^m + 1) for the checked twist l, m = e - l: the l-dual is F^m of the Euclidean dual,
        P = G * F^m(G)^T, and scaling pivot column j of G by a adds a^(p^m + 1) - 1 to P[j][j]."""
        m = self.e - self.check_twist(l)
        return m, self.p**m + 1

    def frobenius(self, x: int, l: int = 1) -> int:
        """x**(p**l); the identity when l is a multiple of e."""
        if l < 0:
            raise ValueError("frobenius iterate must be >= 0")
        if self.e == 1 or x == 0:
            return x
        return self._exp[self._log[x] * self.p ** (l % self.e) % (self.q - 1)]

    # -- row kernels ----------------------------------------------------------

    def _gauss(self, rows: list[list[int]], reduce: bool = False) -> tuple[tuple[int, ...], int]:
        """(pivot columns, determinant) of list rows, eliminated in place.

        The forward pass takes the first nonzero entry of each column at or
        below the next pivot row, swaps its row up and clears the column
        below it, so the rows end in a row echelon form: row r is zero left
        of pivot column r and every row below it is zero in that column.
        With ``reduce``, the back pass clears each pivot column above its
        pivot, last pivot first, and scales every pivot row to a leading 1:
        the unique reduced row echelon form.  The determinant is 0 unless
        the rows form a square matrix of full rank; no rows at all give
        ((), 1).

        ``clear`` is chosen once per call by field class.  It reads the
        pivot row through a view of its nonzero entries past the pivot,
        (column, value) pairs in a prime field and (column, log value) in an
        extension field, built once per pivot and only when some row needs
        it.  The determinant is the product of the pivots, negated when the
        rows were swapped an odd number of times.
        """
        n = len(rows)
        ncols = len(rows[0]) if rows else 0
        p, e = self.p, self.e
        log, exp, nq = self._log, self._exp, self.q - 1
        if e == 1:

            def clear(row: list[int], c: int, lo: int, hi: int) -> None:
                s = p - pow(row[c], p - 2, p)  # x - (x / pivot) * y = x + (x * s) * y
                view = None
                for i in range(lo, hi):
                    other = rows[i]
                    x = other[c]
                    if x:
                        if view is None:
                            view = [(j, y) for j, y in enumerate(row[c + 1:], c + 1) if y]
                        k = x * s % p
                        other[c] = 0
                        for j, y in view:
                            other[j] = (other[j] + k * y) % p

        elif p == 2:

            def clear(row: list[int], c: int, lo: int, hi: int) -> None:
                # -(x / pivot) * y = g^(lc + log y) with lc = log x - log pivot
                # mod (q - 1); both logs stay below q - 1, so their sum fits
                # the doubled exp table
                s = nq - log[row[c]]
                view = None
                for i in range(lo, hi):
                    other = rows[i]
                    x = other[c]
                    if x:
                        if view is None:
                            view = [(j, log[y]) for j, y in enumerate(row[c + 1:], c + 1) if y]
                        lc = (log[x] + s) % nq
                        other[c] = 0
                        for j, ly in view:
                            other[j] ^= exp[lc + ly]

        else:
            zech = self._zech

            def clear(row: list[int], c: int, lo: int, hi: int) -> None:
                s = self._log_neg1 - log[row[c]]  # -1 / pivot = g^s
                view = None
                for i in range(lo, hi):
                    other = rows[i]
                    x = other[c]
                    if x:
                        if view is None:
                            view = [(j, log[y]) for j, y in enumerate(row[c + 1:], c + 1) if y]
                        # lc is reduced once per row, so t = lc + ly and t - a index as they are
                        lc = (log[x] + s) % nq
                        other[c] = 0
                        for j, ly in view:
                            t = lc + ly
                            v = other[j]
                            if v:
                                # g^a + g^t = g^(a + zech[t - a])
                                a = log[v]
                                z = zech[t - a]
                                other[j] = 0 if z is None else exp[a + z]
                            else:
                                other[j] = exp[t]

        pivots: list[int] = []
        swaps = r = 0
        for c in range(ncols):
            if r == n:
                break
            i = r
            while i < n and not rows[i][c]:
                i += 1
            if i == n:
                continue
            if i != r:
                rows[r], rows[i] = rows[i], rows[r]
                swaps += 1
            pivots.append(c)
            clear(rows[r], c, r + 1, n)
            r += 1
        if r < n or r < ncols:
            det = 0
        else:
            det = 1
            for i, c in enumerate(pivots):
                det = self.mul(det, rows[i][c])
            if swaps % 2:
                det = self.neg(det)
        if reduce:
            # clearing with an unscaled pivot row and scaling it afterwards
            # writes the same entries as scaling it first
            for i in range(r - 1, 0, -1):
                clear(rows[i], pivots[i], 0, i)
            if e == 1:
                for i, c in enumerate(pivots):
                    row = rows[i]
                    if row[c] != 1:
                        s = pow(row[c], p - 2, p)
                        row[c:] = [x * s % p for x in row[c:]]
            else:
                for i, c in enumerate(pivots):
                    row = rows[i]
                    if row[c] != 1:
                        s = nq - log[row[c]]  # 1 / pivot = g^s
                        row[c:] = [exp[log[x] + s] if x else 0 for x in row[c:]]
        return tuple(pivots), det

    def _gram_rows(self, rows: Sequence[Sequence[int]], m: int) -> list[list[int]]:
        """The Gram matrix of rows at twist m: row i is [sum(a_j * b_j^(p^m)) for each row b]
        for row a = rows[i].

        When e divides 2m, F^(2m) is the identity, so entry (j, i) is the
        (p^m)-power of entry (i, j): only the entries with j >= i are dot
        products, and the rest are read from them.  In a prime field that
        always holds.  An extension field reads each row's view against the
        twisted rows as dense log rows, log b * p^m mod (q - 1) and None at
        a zero.
        """
        p, half = self.p, not 2 * m % self.e
        if self.e == 1:
            out = [[0] * i + [sum(map(_imul, a, b)) % p for b in rows[i:]] for i, a in enumerate(rows)]
        else:
            log, exp, n = self._log, self._exp, self.q - 1
            k = pow(p, m, n)
            views = [[(j, log[x]) for j, x in enumerate(a) if x] for a in rows]
            twisted = []
            for view in views:
                b = [None] * len(rows[0])
                for j, la in view:
                    b[j] = la * k % n
                twisted.append(b)
            out = []
            if p == 2:
                for i, view in enumerate(views):
                    start = i if half else 0
                    out_row = [0] * start
                    for b in twisted[start:]:
                        acc = 0
                        for j, la in view:
                            lb = b[j]
                            if lb is not None:
                                acc ^= exp[la + lb]
                        out_row.append(acc)
                    out.append(out_row)
            else:
                zech = self._zech
                for i, view in enumerate(views):
                    start = i if half else 0
                    out_row = [0] * start
                    for b in twisted[start:]:
                        # acc is the log of the running sum, below 2(q - 1), or -1 while it
                        # is 0; g^acc + g^t = g^(acc + zech[t - acc]), t = la + lb unreduced
                        acc = -1
                        for j, la in view:
                            lb = b[j]
                            if lb is not None:
                                if acc < 0:
                                    acc = la + lb
                                else:
                                    z = zech[la + lb - acc]
                                    if z is None:
                                        acc = -1
                                    else:
                                        acc += z
                                        if acc >= n:
                                            acc -= n
                        out_row.append(0 if acc < 0 else exp[acc])
                    out.append(out_row)
        if half:
            for i, row in enumerate(out):
                for j, v in enumerate(self.frobenius_row(row[i + 1:], m), i + 1):
                    out[j][i] = v
        return out

    def frobenius_row(self, xs: Sequence[int], m: int) -> list[int]:
        """The row of x**(p**m) for each entry x of xs, for m >= 0."""
        if not m % self.e:  # p^m = 1 mod (q - 1) exactly when e divides m
            return list(xs)
        n = self.q - 1
        k = pow(self.p, m, n)  # x^(p^m) = g^(log x * k), as g^(q-1) = 1
        log, exp = self._log, self._exp
        return [exp[log[x] * k % n] if x else 0 for x in xs]
