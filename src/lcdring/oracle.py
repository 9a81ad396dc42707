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

Each oracle call decides every slot word once, then passes over every
ring word.  Dual and hull checks share one count: how many words pair to
zero with every generator of a code.  Each slot word is twisted and
paired with its slot's generators once, and a ring word counts when all
its slots pass.  The pairing is linear in its first argument, so that is
orthogonality to the whole code; the dual check's budget still counts the
|C| * |D| pairs of the definition.  Distances weigh each slot word once.
"""

from __future__ import annotations

from functools import reduce
from itertools import product, repeat
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, MismatchError, NonIntegralLogError, ZeroCodeError
from .fqcode import FqCode, count_text
from .rcode import RCode
from .ring import RingElement

DEFAULT_BUDGET = 1_000_000

Code = Union[FqCode, RCode]
Word = tuple[int, ...]


def _fq_words(code: FqCode) -> Iterator[Word]:
    """All codewords, ordered by message encoding (row 0 least significant).

    The message digits count up like an odometer.  When digit i steps from
    d to d + 1, every lower digit wraps from q - 1 to 0, so the word changes
    by a fixed vector: (d + 1 - d) * row i - (q - 1) * (rows 0..i-1), digits
    read as field elements.  Each word is the last one plus that step.
    """
    f = code.field
    q, k = f.q, code.k
    add, sub, mul = f.add, f.sub, f.mul
    wrap = (0,) * code.n  # -(q - 1) * (rows 0..i-1)
    steps = []
    for row in (code.gen.row(r) for r in range(k)):
        steps.append([tuple(map(add, wrap, [mul(sub(d + 1, d), v) for v in row])) for d in range(q - 1)])
        wrap = tuple(map(sub, wrap, [mul(q - 1, v) for v in row]))
    digits = [0] * k + [None]  # the sentinel ends every carry
    word = (0,) * code.n
    while True:
        yield word
        i = 0
        while digits[i] == q - 1:
            digits[i] = 0
            i += 1
        if i == k:
            return
        word = tuple(map(add, word, steps[i][digits[i]]))
        digits[i] += 1


def _check_budget(code: Code, budget: int) -> None:
    if code.size > budget:
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
    comps = _slot_lists(code, budget)[::-1]  # slot 1 varies fastest
    return (tuple(RingElement(f, g) for g in zip(*s[::-1])) for s in product(*comps))


def _slot_lists(code: Code, budget: int) -> list[Iterable[Word]]:
    """Each slot code's words once the budget allows ``code``: a field code
    streams as its one slot, and a ring code's four component lists are small.
    """
    if isinstance(code, FqCode):
        return [codewords(code, budget)]
    _check_budget(code, budget)
    return [list(codewords(c, budget)) for c in code.comps]


def _per_word(values: Sequence[Iterable]) -> Iterator[tuple]:
    """The tuple of slot values of every word, the zero word first; one slot streams."""
    return zip(*values) if len(values) == 1 else product(*values)


def min_distance(code: Code, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming (field) or Lee (ring) weight over nonzero words."""
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    weights = [(len(v) - v.count(0) for v in ws) for ws in _slot_lists(code, budget)]
    sums = map(sum, _per_word(weights))
    next(sums)  # the zero word
    return min(sums)


def _orthogonal_count(code: Code, slot_words: list[Iterable[Word]], l: int) -> int:
    """How many words pair to zero, under twist l, with every generator of ``code``.

    ``slot_words`` holds each slot code's words.  A generator g of slot code i
    pairs with slot i of a word w alone, as sum_j g_j * w_j^(p^l), so each slot
    word is twisted once; a slot whose code has no rows is never twisted.
    """
    f = code.field
    frob, add, mul = f.frobenius, f.add, f.mul
    slots = (code,) if isinstance(code, FqCode) else code.comps

    def orthogonal(rows: list[Word], w: Word) -> bool:
        t = [frob(v, l) for v in w] if rows else w
        return not any(reduce(add, [mul(x, y) for x, y in zip(g, t) if x and y], 0) for g in rows)

    gens = [[c.gen.row(r) for r in range(c.k)] for c in slots]
    verdicts = [map(orthogonal, repeat(rows), ws) for rows, ws in zip(gens, slot_words)]
    return sum(map(all, _per_word(verdicts)))


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
    pairs = code.size * dual.size
    if pairs > budget:
        raise CapExceededError(
            f"{count_text(f.q, code.k + dual.k)} pairings exceed the budget of {budget}"
        )
    if pairs != f.q ** ((1 if isinstance(code, FqCode) else 4) * code.n):
        return False
    return _orthogonal_count(code, _slot_lists(dual, budget), l) == dual.size


def hull_dim(code: Code, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """log_q of the number of codewords orthogonal to the whole code.

    Membership in the dual is decided against the generators, the
    definition reduced by linearity of the pairing in its first argument.
    A non-power-of-q count means a bug somewhere and raises.
    """
    f = code.field
    f.check_twist(l)
    hits = _orthogonal_count(code, _slot_lists(code, budget), l)
    h, rest = 0, hits
    while rest and rest % f.q == 0:
        rest //= f.q
        h += 1
    if rest != 1:
        raise NonIntegralLogError(f"hull count {hits} is not a power of q = {f.q}")
    return h
