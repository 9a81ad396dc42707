"""Brute-force ground truth for the fast-path predicates.

Everything here works from first principles on enumerated words and
generator rows and shares no dual, kernel or echelon machinery with the
rest of the package; agreement between the two routes is the evidence
the test suite relies on.  Budgets are hard errors, never silent skips,
and count one slot code's words.  No result depends on the order words
come in, but that order is fixed, so streams are reproducible.

A field code's words stream in blocks: the words of its low generator
rows are tabulated once, entry by entry, into per-position columns of at
most ``TABLE_ENTRIES`` entries, and each word of the remaining rows
yields the block of words ``zip`` reads off those columns shifted by its
entries.  Blocks come in the p-ary Gray order of the high rows' messages
(``_walk``), and words within a block in message order, so the whole
stream is in message order only when q^k <= ``TABLE_ENTRIES``.  Only the
tables and the walk over the high rows call the field.

Field and ring codes share one path through their slot codes (``_slots``):
a field code is its own one slot, a ring code C = gamma_1 C_1 + ... +
gamma_4 C_4 has its four components, and a ring word is a tuple of slot
words.  A generator of slot code i pairs with slot i of a word alone, and
the Lee weight counts nonzeros over all slots.  No ``RingElement`` is
built: the expansion R^n -> F_q^(4n), which puts entry j of slot i at
position 4j + i, is checked on the image's generator rows alone: slot
i is read back off each, and their leading positions are counted.

Each oracle call decides every slot word once and combines the slot
results; no call passes over ring words.  A ring word is orthogonal to
the code when each slot is, so the hull dimension sums the log_q of each
slot's count of words orthogonal to its slot code's generators (linearity
in the first argument makes that the whole slot code).  The lightest
nonzero ring word has one nonzero slot, so the distance is the least
nonzero slot weight.  The dual check counts with the same function.

``survey`` makes one pass per slot code for all of ``verify``: each slot's
words are drawn once, held as the set ``is_expansion`` holds, and read by
the helpers the single calls use on their streams.  A pairing
sum_j g_j * w_j^(p^l) is zero exactly when its F^(e-l) image
sum_j F^(e-l)(g_j) * w_j is, so a generator row is twisted once per twist
and no word entry is twisted.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import prod
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, ConsistencyError, MismatchError, ZeroCodeError
from .fqcode import DEFAULT_ENUM_CAP, FqCode, count_text
from .gf import GF
from .rcode import RCode

# Entries a position's low-row tables may hold in ``_fq_words``: the column of
# every low word, or its up to q shifts.  Any q <= 64 gets r >= 1, so each
# block's n column lookups serve at least q words, while the tables stay
# within 32 KB a position.  An unbounded split (r = k // 2) was no faster and
# held n * |C| entries at k = 2.
TABLE_ENTRIES = 4096

Code = Union[FqCode, RCode]
Word = tuple[int, ...]


def _fq_words(code: FqCode) -> Iterator[Word]:
    """All codewords once, the zero word first, in blocks.

    The word of message low + q^r * high is the sum of the words the low
    r rows and the high k - r rows give.  The low rows are enumerated once
    into per-position columns, entry j of every low word in message order
    (row 0 least significant); each high word b, in ``_walk``'s order, then
    yields the block of q^r words read by ``zip`` from column j shifted by
    b_j, so most entries cost no field call.  r is the most rows whose
    tables fit ``TABLE_ENTRIES`` per position: the q^k-entry column itself
    when every row fits (r = k), else q^r entries and their up to q shifts.
    With r = 0 the walk is the stream.
    """
    f = code.field
    q, k, n, rows = f.q, code.k, code.n, code.rows
    if q**k <= TABLE_ENTRIES:
        r = k
    else:
        r = 0
        while q ** (r + 2) <= TABLE_ENTRIES:
            r += 1
    if r == 0:
        return _walk(f, rows, n)
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
    shifts = [{0: col} for col in cols]  # column j shifted by v, made on first use

    def shifted(memo: dict[int, list[int]], v: int) -> list[int]:
        col = memo.get(v)
        if col is None:
            col = memo[v] = [add(x, v) for x in memo[0]]
        return col

    for b in _walk(f, rows[r:], n):
        yield zip(*map(shifted, shifts, b))


def _walk(f: GF, rows: Sequence[Word], n: int) -> Iterator[Word]:
    """The word of every message to ``rows`` once, the zero word first, each the last one plus a step.

    A message is k * e digits over F_p: digit j * e + t is the coefficient
    of x^t in the scalar of row j, and stepping it by 1 adds x^t * row j.
    Step s = 1, 2, ... steps digit v_p(s), the number of times p divides s,
    so after s steps digit i holds s_i - s_(i+1) mod p, s_i the base-p
    digits of s: a p-ary Gray order, one word per s, and no digit carries.
    """
    p, add, mul = f.p, f.add, f.mul
    steps = [[mul(p**t, v) for v in row] for row in rows for t in range(f.e)]
    word = (0,) * n
    yield word
    for s in range(1, p ** len(steps)):
        i = 0
        while s % p == 0:
            s //= p
            i += 1
        word = tuple(map(add, word, steps[i]))
        yield word


def _check_budget(code: Code, budget: int) -> None:
    """Refuse a code one of whose slot codes has more than ``budget`` words, naming the first."""
    for c in _slots(code):
        if c.size > budget:
            raise CapExceededError(f"{count_text(c.field.q, c.k)} codewords exceed the budget of {budget}")


def codewords(code: FqCode, budget: int = DEFAULT_ENUM_CAP) -> Iterator[Word]:
    """Stream every codeword of a field code exactly once; errors out above the budget."""
    if len(_slots(code)) != 1:
        raise MismatchError("codewords takes a field code")
    _check_budget(code, budget)
    return _fq_words(code)


def _slots(code: Code) -> tuple[FqCode, ...]:
    """The slot codes: a field code is its own one slot, a ring code's are its four components."""
    return (code,) if isinstance(code, FqCode) else code.comps


def _least(weights: Iterable[int]) -> int:
    """The least nonzero of ``weights``, 0 when none is."""
    return min(filter(None, weights), default=0)


def _weight(words: Iterable[Word]) -> int:
    """The least nonzero Hamming weight of ``words``, 0 when only the zero word is among them."""
    return _least(len(w) - w.count(0) for w in words)


def min_distance(code: Code, budget: int = DEFAULT_ENUM_CAP) -> int:
    """Exact minimum Hamming (field) or Lee (ring) weight over nonzero words.

    A ring word weighs the sum of its slots' weights, so the lightest
    nonzero one has a single nonzero slot: the least nonzero slot weight.
    """
    if code.k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    _check_budget(code, budget)
    return _least(_weight(codewords(c, budget)) for c in _slots(code))


def _orthogonal_count(code: FqCode, words: Iterable[Word], l: int) -> int:
    """How many of ``words`` pair to zero, under twist l, with every generator of the field code ``code``.

    A generator g pairs with a word w as sum_j g_j * w_j^(p^l).  The field
    automorphism F^(e-l) maps that sum to sum_j F^(e-l)(g_j) * w_j (F^e is
    the identity), and only 0 to 0, so only generator entries are twisted.
    """
    f = code.field
    add, mul = f.add, f.mul
    rows = [[f.frobenius(x, f.e - l) for x in g] for g in code.rows]

    def orthogonal(w: Word) -> bool:
        return not any(reduce(add, [mul(x, y) for x, y in zip(g, w) if x and y], 0) for g in rows)

    return sum(map(orthogonal, words))


def is_dual_pair(code: Code, dual: Code, l: int) -> bool:
    """Whether ``dual`` is the l-dual of ``code``: dimensions fill the space and every pair is orthogonal.

    The pairing sum_j x_j * y_j^(p^l) is linear in x and additive and
    Frobenius-semilinear in y, so it vanishes on all |C| * |D| pairs of a
    slot exactly when it vanishes on its k * k_dual generator pairs: every
    generator row of the dual's slot code must count as orthogonal to the
    code's.
    """
    if type(code) is not type(dual) or code.field != dual.field or code.n != dual.n:
        raise MismatchError("dual check needs two codes in one ambient space")
    code.field.check_twist(l)
    slots = list(zip(_slots(code), _slots(dual)))
    if code.k + dual.k != len(slots) * code.n:
        return False
    return all(_orthogonal_count(c, d.rows, l) == d.k for c, d in slots)


def _hull(i: int, code: FqCode, words: Iterable[Word], l: int) -> int:
    """log_q of how many of slot code i's ``words`` are orthogonal to its generators under twist l."""
    q = code.field.q
    hits = rest = _orthogonal_count(code, words, l)
    h = 0
    while rest and rest % q == 0:
        rest //= q
        h += 1
    if rest != 1:
        raise ConsistencyError(f"slot {i}: hull count {hits} is not a power of q = {q}")
    return h


def hull_dim(code: Code, l: int, budget: int = DEFAULT_ENUM_CAP) -> int:
    """log_q of the number of codewords orthogonal to the whole code: the sum of each slot's.

    Membership in a slot code's dual is decided against its generators,
    the definition reduced by linearity of the pairing in its first
    argument.  A slot count that is not a power of q means a bug somewhere
    and raises, naming the slot.
    """
    code.field.check_twist(l)
    _check_budget(code, budget)
    return sum(_hull(i, c, codewords(c, budget), l) for i, c in enumerate(_slots(code), 1))


def _expansion(code: RCode, image: FqCode, slots: Iterable[set[Word]]) -> bool:
    """``is_expansion`` on the sets of slot words, which are read only if ``image`` has the field and length."""
    if image.field != code.field or image.n != len(_slots(code)) * code.n:
        return False
    slots = list(slots)
    rows, count = image.rows, len(slots)
    if any(g[i::count] not in s for g in rows for i, s in enumerate(slots)):
        return False
    leads = {next(j for j, v in enumerate(g) if v) for g in rows if any(g)}
    return code.field.q ** len(leads) >= prod(map(len, slots))


def is_expansion(code: RCode, image: FqCode, budget: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether ``image``'s words are exactly the F_q^(4n) expansions of ``code``'s words.

    Entry j of slot i lands at position 4j + i, so a field word is an
    expansion when each w[i::4] is a word of slot code i; the expansions
    make a space E of prod |S_i| words.  If every generator row of the
    image is one, its span lies in E, and rows with L distinct leading
    positions span at least q^L words, so q^L >= |E| means the sets are
    equal.  That is exact for rows in echelon form; rows sharing a
    leading position may read False on equal sets.  No image word is drawn.
    """
    if len(_slots(code)) == 1 or len(_slots(image)) != 1:
        raise MismatchError("expansion check needs a ring code and a field code")
    _check_budget(code, budget)
    return _expansion(code, image, (set(codewords(c, budget)) for c in code.comps))


def survey(
    code: RCode, image: FqCode, budget: int = DEFAULT_ENUM_CAP
) -> tuple[int, tuple[int, ...], tuple[int, ...], bool]:
    """The oracle's answers about a ring code, from one pass per slot code.

    In order: ``min_distance`` of the code and of each component (0 for a
    zero code), ``hull_dim`` at each twist l = 0, ..., e - 1 and
    ``is_expansion`` of ``image``.  The arguments and the budget are checked
    before any word is drawn.  Each slot code's words are drawn once and held
    as the set ``is_expansion`` holds, and the helpers of the single calls
    read every answer off the four sets.
    """
    if len(_slots(code)) == 1 or len(_slots(image)) != 1:
        raise MismatchError("survey needs a ring code and a field code")
    _check_budget(code, budget)
    slots = [set(codewords(c, budget)) for c in code.comps]
    weights = tuple(map(_weight, slots))
    hulls = tuple(
        sum(_hull(i, c, s, l) for i, (c, s) in enumerate(zip(code.comps, slots), 1)) for l in range(code.field.e)
    )
    return _least(weights), weights, hulls, _expansion(code, image, slots)
