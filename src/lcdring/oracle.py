"""Brute-force ground truth for the fast-path predicates.

Everything here works from first principles on enumerated codewords and
shares no dual, kernel or echelon machinery with the rest of the package;
agreement between the two routes is the evidence the test suite relies
on.  Enumeration order is fixed (message encodings ascending) so streams
are reproducible.  Budgets are hard errors, never silent skips.

Field and ring codes share one path through a word's slot vectors: (w,)
for a field word, one word of each of the four component codes for a ring
word.  The ring pairing acts slotwise, so it vanishes exactly when every
slot's field pairing does: a generator of slot code i pairs with slot i
of a word alone.  The Lee weight counts nonzeros over all slots.  Ring
words become ``RingElement``s only where ``codewords`` yields them.

Dual and hull checks share one count: how many words of a stream pair to
zero with every generator of a code.  The pairing is linear in its first
argument, so that is orthogonality to the whole code, and the dual check
pairs each dual word with k generators instead of |C| codewords.  Its
budget still counts the |C| * |D| pairs of the definition.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, MismatchError, NonIntegralLogError, ZeroCodeError
from .fqcode import FqCode, count_text
from .rcode import RCode
from .ring import RingElement

DEFAULT_BUDGET = 1_000_000

Code = Union[FqCode, RCode]
Slots = tuple[Sequence[int], ...]


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
            yield from walk(i - 1, tuple(map(add, acc, scaled[i][d])) if d else acc)

    yield from walk(code.k - 1, (0,) * code.n)


def count(code: Code) -> int:
    return code.field.q**code.k


def _check_budget(code: Code, budget: int) -> None:
    if count(code) > budget:
        raise CapExceededError(
            f"{count_text(code.field.q, code.k)} codewords exceed the budget of {budget}"
        )


def codewords(code: Code, budget: int = DEFAULT_BUDGET) -> Iterator:
    """Stream every codeword exactly once; errors out above the budget.

    The only place here that builds ``RingElement``s: a ring word is the
    tuple of n elements read off its four slot vectors.
    """
    if isinstance(code, FqCode):
        _check_budget(code, budget)
        return _fq_words(code)
    f = code.field
    return (tuple(RingElement(f, g) for g in zip(*s)) for s in _slot_words(code, budget))


def _slot_words(code: Code, budget: int) -> Iterator[Slots]:
    """Every word of ``code`` as its slot vectors, in the order of ``codewords``.

    A field word streams from ``codewords`` as (w,).  A ring word is one
    word of each component code, slot 1 varying fastest; the component
    lists are small, since their product is within the budget.
    """
    if isinstance(code, FqCode):
        return ((w,) for w in codewords(code, budget))
    _check_budget(code, budget)
    lists = [list(codewords(c, budget)) for c in reversed(code.comps)]
    return (s[::-1] for s in product(*lists))


def min_distance(code: Code, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming (field) or Lee (ring) weight over nonzero words."""
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    words = _slot_words(code, budget)
    next(words)  # the zero word
    return min(sum(len(v) - v.count(0) for v in s) for s in words)


def _orthogonal_count(code: Code, words: Iterable[Slots], l: int) -> int:
    """How many of ``words`` pair to zero, under twist l, with every generator of ``code``.

    A generator g of slot code i pairs only with slot i of a word w, as
    sum_j g_j * w_j^(p^l); a slot whose code has no rows is never twisted.
    """
    f = code.field
    frob, add, mul = f.frobenius, f.add, f.mul
    slots = (code,) if isinstance(code, FqCode) else code.comps
    gens = [(i, [c.gen.row(r) for r in range(c.k)]) for i, c in enumerate(slots) if c.k]

    def orthogonal(s: Slots) -> bool:
        for i, rows in gens:
            t = [frob(v, l) for v in s[i]]
            for g in rows:
                acc = 0
                for x, y in zip(g, t):
                    if x and y:
                        acc = add(acc, mul(x, y))
                if acc:
                    return False
        return True

    return sum(map(orthogonal, words))


def is_dual_pair(code: Code, dual: Code, l: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``dual`` is the l-dual of ``code``: sizes match and every pair is orthogonal.

    By linearity of the pairing in its first argument, a dual word is
    orthogonal to all of ``code`` exactly when it is orthogonal to every
    generator, so each dual word is paired with the k generators only.
    The budget still bounds the |C| * |D| pairs of the definition.
    """
    if type(code) is not type(dual) or code.field != dual.field or code.n != dual.n:
        raise MismatchError("dual check needs two codes in one ambient space")
    f = code.field
    f.check_twist(l)
    pairs = count(code) * count(dual)
    if pairs > budget:
        raise CapExceededError(
            f"{count_text(f.q, code.k + dual.k)} pairings exceed the budget of {budget}"
        )
    if pairs != f.q ** ((1 if isinstance(code, FqCode) else 4) * code.n):
        return False
    return _orthogonal_count(code, _slot_words(dual, budget), l) == count(dual)


def hull_dim(code: Code, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """log_q of the number of codewords orthogonal to the whole code.

    Membership in the dual is decided against the generators, the
    definition reduced by linearity of the pairing in its first argument.
    A non-power-of-q count means a bug somewhere and raises.
    """
    f = code.field
    f.check_twist(l)
    hits = _orthogonal_count(code, _slot_words(code, budget), l)
    h, rest = 0, hits
    while rest and rest % f.q == 0:
        rest //= f.q
        h += 1
    if rest != 1:
        raise NonIntegralLogError(f"hull count {hits} is not a power of q = {f.q}")
    return h
