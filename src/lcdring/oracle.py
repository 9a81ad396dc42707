"""Brute-force ground truth for the fast-path predicates.

Everything here works from first principles on enumerated codewords and
shares no dual, kernel or echelon machinery with the rest of the package;
agreement between the two routes is the evidence the test suite relies
on.  Enumeration order is fixed (message encodings ascending) so streams
are reproducible.  Budgets are hard errors, never silent skips.

Field and ring codes share one path through a word's slot vectors: (w,)
for a field word, the four idempotent coordinate vectors for a ring word.
The ring pairing acts slotwise, so it vanishes exactly when every slot's
field pairing does, and the Lee weight counts nonzeros over all slots.

Dual and hull checks share one count: how many words of a stream pair to
zero with every generator of a code.  The pairing is linear in its first
argument, so that is orthogonality to the whole code, and the dual check
pairs each dual word with k generators instead of |C| codewords.  Its
budget still counts the |C| * |D| pairs of the definition.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Sequence, Union

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
            if d:
                nxt = tuple(add(a, b) for a, b in zip(acc, scaled[i][d]))
            else:
                nxt = acc
            yield from walk(i - 1, nxt)

    yield from walk(code.k - 1, (0,) * code.n)


def _r_words(code: RCode) -> Iterator[tuple[RingElement, ...]]:
    """All ring codewords; component 1 varies fastest."""
    f = code.field
    comp_words = [list(_fq_words(c)) for c in reversed(code.comps)]
    for w4, w3, w2, w1 in product(*comp_words):
        yield tuple(RingElement(f, g) for g in zip(w1, w2, w3, w4))


def _words(code: Code) -> Iterator:
    return _fq_words(code) if isinstance(code, FqCode) else _r_words(code)


def _slot_view(code: Code) -> tuple[tuple[FqCode, ...], Callable[[Sequence], Slots]]:
    """The slot codes of ``code`` and the map from its words to slot vectors."""
    if isinstance(code, FqCode):
        return (code,), lambda w: (w,)
    return code.comps, lambda w: tuple(zip(*(x.g for x in w)))


def _pairs_to_zero(add: Callable, mul: Callable, t: Slots, s: Slots) -> bool:
    """Whether sum_j t_j * s_j vanishes in every slot, in the field of ``add`` and ``mul``."""
    for a, b in zip(t, s):
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc = add(acc, mul(x, y))
        if acc:
            return False
    return True


def count(code: Code) -> int:
    return code.field.q**code.k


def codewords(code: Code, budget: int = DEFAULT_BUDGET) -> Iterator:
    """Stream every codeword exactly once; errors out above the budget."""
    if count(code) > budget:
        raise CapExceededError(
            f"{count_text(code.field.q, code.k)} codewords exceed the budget of {budget}"
        )
    return _words(code)


def min_distance(code: Code, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming (field) or Lee (ring) weight over nonzero words."""
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    _, view = _slot_view(code)
    words = codewords(code, budget)
    next(words)  # the zero word
    return min(sum(len(v) - v.count(0) for v in view(w)) for w in words)


def _orthogonal_count(code: Code, words: Iterable, l: int) -> int:
    """How many of ``words`` pair to zero, under twist l, with every generator of ``code``.

    Each slot code's rows are embedded in their own slot, and a word w
    pairs with a generator g as sum_j g_j * w_j^(p^l), slot by slot.
    """
    f = code.field
    frob, add, mul = f.frobenius, f.add, f.mul
    slots, view = _slot_view(code)
    zero = (0,) * code.n
    gens = [tuple(c.gen.row(r) if j == i else zero for j in range(len(slots)))
            for i, c in enumerate(slots) for r in range(c.k)]
    twisted = (tuple(tuple(frob(v, l) for v in x) for x in view(s)) for s in words)
    return sum(all(_pairs_to_zero(add, mul, g, s) for g in gens) for s in twisted)


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
    pairs = count(code) * count(dual)
    if pairs > budget:
        raise CapExceededError(
            f"{count_text(f.q, code.k + dual.k)} pairings exceed the budget of {budget}"
        )
    slots, _ = _slot_view(code)
    if pairs != f.q ** (len(slots) * code.n):
        return False
    return _orthogonal_count(code, _words(dual), l) == count(dual)


def hull_dim(code: Code, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """log_q of the number of codewords orthogonal to the whole code.

    Membership in the dual is decided against the generators, the
    definition reduced by linearity of the pairing in its first argument.
    A non-power-of-q count means a bug somewhere and raises.
    """
    f = code.field
    hits = _orthogonal_count(code, codewords(code, budget), l)
    h, rest = 0, hits
    while rest and rest % f.q == 0:
        rest //= f.q
        h += 1
    if rest != 1:
        raise NonIntegralLogError(f"hull count {hits} is not a power of q = {f.q}")
    return h
