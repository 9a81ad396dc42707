"""Brute-force ground truth for the fast-path predicates.

Everything here works from first principles on enumerated codewords and
shares no dual, kernel or echelon machinery with the rest of the package;
agreement between the two routes is the evidence the test suite relies
on.  Enumeration order is fixed (message encodings ascending) so streams
are reproducible.  Budgets are hard errors, never silent skips.

A field code's words stream in blocks: the words of its low generator
rows are tabulated once, entry by entry, into per-position columns of at
most ``TABLE_ENTRIES`` entries, and each word of the remaining rows
yields the block of words ``zip`` reads off those columns shifted by its
entries.  Only the tables and the walk over the high rows call the field.

Field and ring codes share one path through a word's slot vectors: (w,)
for a field word, one word of each of the four component codes for a ring
word.  The ring pairing acts slotwise, so it vanishes exactly when every
slot's field pairing does: a generator of slot code i pairs with slot i
of a word alone.  The Lee weight counts nonzeros over all slots.  Ring
words become ``RingElement``s only where ``codewords`` yields them;
``expansions`` reads the same slot words straight into each ring word's
length-4n expansion, in the same order.

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
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, ConsistencyError, MismatchError, ZeroCodeError
from .fqcode import FqCode, count_text
from .gf import GF
from .rcode import RCode
from .ring import RingElement

DEFAULT_BUDGET = 1_000_000

# Entries a position's low-row tables may hold in ``_fq_words``: the column of
# every low word, or its up to q shifts.  Any q <= 64 gets r >= 1, so each
# block's n column lookups serve at least q words, while the tables stay
# within 32 KB a position.  An unbounded split (r = k // 2) was no faster and
# held n * |C| entries at k = 2.
TABLE_ENTRIES = 4096

Code = Union[FqCode, RCode]
Word = tuple[int, ...]


def _fq_words(code: FqCode) -> Iterator[Word]:
    """All codewords, ordered by message encoding (row 0 least significant), in blocks.

    The word of message low + q^r * high is the sum of the words the low
    r rows and the high k - r rows give.  The low rows are enumerated once
    into per-position columns, entry j of every low word in message order;
    each high word b then yields the block of q^r words read by ``zip``
    from column j shifted by b_j, so most entries cost no field call.  r
    is the most rows whose tables fit ``TABLE_ENTRIES`` per position: the
    q^k-entry column itself when every row fits (r = k), else q^r entries
    and their up to q shifts.  With r = 0 every block is one word.
    """
    f = code.field
    q, k, n, rows = f.q, code.k, code.n, code.gen.rows
    if q**k <= TABLE_ENTRIES:
        r = k
    else:
        r = 0
        while q ** (r + 2) <= TABLE_ENTRIES:
            r += 1
    if r == 0:
        return _odometer(f, rows, n)
    return chain.from_iterable(_blocks(f, rows, n, r))


def _blocks(f: GF, rows: Sequence[Word], n: int, r: int) -> Iterator[Iterator[Word]]:
    """``_fq_words``' blocks, its tables built on the first ``next``."""
    q, add, mul = f.q, f.add, f.mul
    cols = []
    for j in range(n):
        col = [0]
        for row in rows[:r]:
            v = row[j]
            # a zero entry adds nothing, so the column repeats once per digit
            col = col * q if v == 0 else [add(x, m) for m in [mul(d, v) for d in range(q)] for x in col]
        cols.append(col)
    if r == len(rows):
        yield zip(*cols)
        return
    shifts = [{0: col} for col in cols]  # column j shifted by v, made on first use

    def shifted(memo: dict[int, list[int]], v: int) -> list[int]:
        col = memo.get(v)
        if col is None:
            col = memo[v] = [add(x, v) for x in memo[0]]
        return col

    for b in _odometer(f, rows[r:], n):
        yield zip(*map(shifted, shifts, b))


def _odometer(f: GF, rows: Sequence[Word], n: int) -> Iterator[Word]:
    """Every word of ``rows``' span, in message order, each the last one plus a step.

    The message digits count up like an odometer.  When digit i steps from
    d to d + 1, every lower digit wraps from q - 1 to 0, so the word changes
    by a fixed vector: (d + 1 - d) * row i - (q - 1) * (rows 0..i-1), digits
    read as field elements.  The step depends on d only through the scalar
    d + 1 - d, which is 1 + x + ... + x^t when d ends in t digits p - 1; so
    at most e scalars, and -(q - 1) is among them (d = p^(e-1) - 1).
    """
    q, k = f.q, len(rows)
    add, sub, mul = f.add, f.sub, f.mul
    scalars = [sub(d + 1, d) for d in range(q - 1)]
    carry = sub(0, q - 1)
    wrap = (0,) * n  # -(q - 1) * (rows 0..i-1)
    steps = []
    for row in rows:
        multiples = {s: [mul(s, v) for v in row] for s in set(scalars)}
        by_scalar = {s: tuple(map(add, wrap, m)) for s, m in multiples.items()}
        steps.append([by_scalar[s] for s in scalars])
        wrap = tuple(map(add, wrap, multiples[carry]))
    digits = [0] * k + [None]  # the sentinel ends every carry
    word = (0,) * n
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


def expansions(code: RCode, budget: int = DEFAULT_BUDGET) -> Iterator[Word]:
    """The F_q^(4n) expansion of every ring word, in ``codewords`` order.

    Entry j of slot i lands at position 4j + i, as ``ring.gray`` places it,
    read with one ``itemgetter`` from the four slot words joined slot 4
    first, the order ``product`` draws them in.  No ``RingElement`` is built.
    """
    n = code.n
    comps = _slot_lists(code, budget)[::-1]  # slot 1 varies fastest
    if n == 0:  # itemgetter needs an index; the one word is empty
        return repeat((), code.size)
    pick = itemgetter(*[(3 - i) * n + j for j in range(n) for i in range(4)])
    return (pick(w4 + w3 + w2 + w1) for w4, w3, w2, w1 in product(*comps))


def _slot_lists(code: Code, budget: int) -> list[Iterable[Word]]:
    """Each slot code's words once the budget allows ``code``: a field code
    streams in blocks as its one slot, and a ring code's four component lists are small.
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

    def orthogonal(rows: Sequence[Word], w: Word) -> bool:
        t = [frob(v, l) for v in w] if rows else w
        return not any(reduce(add, [mul(x, y) for x, y in zip(g, t) if x and y], 0) for g in rows)

    gens = [c.gen.rows for c in slots]
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
        raise ConsistencyError(f"hull count {hits} is not a power of q = {f.q}")
    return h
