"""Brute-force ground truth for the fast-path predicates.

Everything here works from first principles on enumerated codewords and
shares no dual, kernel or echelon machinery with the rest of the package;
agreement between the two routes is the evidence the test suite relies
on.  Enumeration order is fixed (message encodings ascending) so streams
are reproducible.  Budgets are hard errors, never silent skips.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from .errors import CapExceededError, MismatchError, NonIntegralLogError, ZeroCodeError
from .fqcode import FqCode
from .rcode import RCode
from .ring import RingElement

DEFAULT_BUDGET = 1_000_000

Code = Union[FqCode, RCode]


def _fq_words(code: FqCode) -> Iterator[tuple[int, ...]]:
    """All codewords, ordered by message encoding (row 0 least significant)."""
    f = code.field
    q = f.q
    add, mul = f.add, f.mul
    rows = [code.gen.row(r) for r in range(code.k)]
    scaled = [[tuple(mul(d, v) for v in row) for d in range(q)] for row in rows]

    def walk(i: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i < 0:
            yield acc
            return
        for d in range(q):
            if d:
                nxt = tuple(add(a, b) for a, b in zip(acc, scaled[i][d]))
            else:
                nxt = acc
            yield from walk(i - 1, nxt)

    yield from walk(code.k - 1, (0,) * code.n)


def _r_words(code: RCode) -> Iterator[tuple[RingElement, ...]]:
    """All ring codewords; component 1 varies fastest."""
    f = code.field
    comp_words = [list(_fq_words(c)) for c in code.comps]
    for w4 in comp_words[3]:
        for w3 in comp_words[2]:
            for w2 in comp_words[1]:
                for w1 in comp_words[0]:
                    yield tuple(
                        RingElement(f, (a, b, c, d))
                        for a, b, c, d in zip(w1, w2, w3, w4)
                    )


def count(code: Code) -> int:
    return code.field.q**code.k


def codewords(code: Code, budget: int = DEFAULT_BUDGET) -> Iterator:
    """Stream every codeword exactly once; errors out above the budget."""
    if count(code) > budget:
        raise CapExceededError(f"{count(code)} codewords exceed the budget of {budget}")
    if isinstance(code, FqCode):
        return _fq_words(code)
    return _r_words(code)


def min_distance(code: Code, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming (field) or Lee (ring) weight over nonzero words."""
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    best = None
    for i, word in enumerate(codewords(code, budget)):
        if i == 0:
            continue
        if isinstance(code, FqCode):
            w = sum(1 for v in word if v)
        else:
            w = sum(1 for x in word for v in x.g if v)
        if best is None or w < best:
            best = w
    return best


def _fq_pair(field, t: Sequence[int], s_frob: Sequence[int]) -> int:
    add, mul = field.add, field.mul
    acc = 0
    for a, b in zip(t, s_frob):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def is_dual_pair(code: Code, dual: Code, l: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Definition-level dual check: every pair is orthogonal and sizes match.

    The pair budget bounds the product of the two cardinalities.
    """
    if type(code) is not type(dual) or code.field != dual.field or code.n != dual.n:
        raise MismatchError("dual check needs two codes in one ambient space")
    f = code.field
    pairs = count(code) * count(dual)
    if pairs > budget:
        raise CapExceededError(f"{pairs} pairings exceed the budget of {budget}")
    if isinstance(code, FqCode):
        if count(code) * count(dual) != f.q**code.n:
            return False
        frob = f.frobenius
        dual_tw = [tuple(frob(v, l) for v in s) for s in _fq_words(dual)]
        for t in _fq_words(code):
            for s in dual_tw:
                if _fq_pair(f, t, s) != 0:
                    return False
        return True
    if count(code) * count(dual) != f.q ** (4 * code.n):
        return False
    frob = f.frobenius
    dual_tw = [
        tuple(tuple(frob(v, l) for v in x.g) for x in s) for s in _r_words(dual)
    ]
    add, mul = f.add, f.mul
    for t in _r_words(code):
        tg = [x.g for x in t]
        for s in dual_tw:
            for slot in range(4):
                acc = 0
                for a, b in zip(tg, s):
                    if a[slot] and b[slot]:
                        acc = add(acc, mul(a[slot], b[slot]))
                if acc != 0:
                    return False
    return True


def hull_dim(code: Code, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """log_q of the number of codewords orthogonal to the whole code.

    Membership in the dual is decided against the generators, which is
    the definition reduced by linearity of the pairing in its first slot.
    A non-power-of-q count means a bug somewhere and raises.
    """
    f = code.field
    frob = f.frobenius
    hits = 0
    if isinstance(code, FqCode):
        gens = [code.gen.row(r) for r in range(code.k)]
        for s in codewords(code, budget):
            s_tw = tuple(frob(v, l) for v in s)
            if all(_fq_pair(f, g, s_tw) == 0 for g in gens):
                hits += 1
    else:
        slot_gens = [
            [(i, c.gen.row(r)) for r in range(c.k)] for i, c in enumerate(code.comps)
        ]
        gens = [pair for group in slot_gens for pair in group]
        for s in codewords(code, budget):
            s_tw = [tuple(frob(v, l) for v in x.g) for x in s]
            ok = True
            for slot, g in gens:
                acc = 0
                for a, x in zip(g, s_tw):
                    if a and x[slot]:
                        acc = f.add(acc, f.mul(a, x[slot]))
                if acc != 0:
                    ok = False
                    break
            if ok:
                hits += 1
    h = 0
    rest = hits
    while rest and rest % f.q == 0:
        rest //= f.q
        h += 1
    if rest != 1:
        raise NonIntegralLogError(f"hull count {hits} is not a power of q = {f.q}")
    return h
