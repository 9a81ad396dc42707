"""The brute-force reference implementations themselves."""

import random
import tracemalloc
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, RCode, RingElement
from lcdring import oracle
from lcdring.errors import BadLError, CapExceededError, ZeroCodeError
from lcdring.ring import galois_inner, gray

F5 = GF(5)
F9 = GF(3, 2, [1, 0, 1])


ENUM_FIELDS = {4: GF(2, 2), 5: F5, 9: F9, 101: GF(101)}


def product_words(c):
    """Every word as the sum of d_i * row i, messages d_0 + d_1 q + ... ascending."""
    f = c.field
    multiples = [[[f.mul(d, v) for v in row] for d in range(f.q)] for row in c.gen.rows]
    want = []
    for msg in product(range(f.q), repeat=c.k):  # msg[0] is the most significant digit
        word = [0] * c.n
        for d, row in zip(msg[::-1], multiples):
            word = list(map(f.add, word, row[d]))
        want.append(tuple(word))
    return want


def line():
    return FqCode.from_rows(F5, 2, [[1, 2]])


@pytest.mark.parametrize("l", [2, -1, True, False, 1.0, "1", None], ids=repr)
def test_twist_checks_refuse(l):
    # Frobenius wraps l mod e, so an unchecked l = 2 on GF(9) would answer for l = 0
    c = FqCode.from_rows(F9, 2, [[1, 4]])
    rc = RCode([c] * 4)
    for code in (c, rc):
        with pytest.raises(BadLError):
            oracle.hull_dim(code, l)
        with pytest.raises(BadLError):
            oracle.is_dual_pair(code, code.galois_dual(1), l)


class TestEnumeration:
    def test_diagonal_code(self):
        c = FqCode.from_rows(F5, 2, [[1, 1]])
        words = list(oracle.codewords(c))
        assert words == [(d, d) for d in range(5)]

    def test_zero_code_single_word(self):
        words = list(oracle.codewords(FqCode.zero(F5, 3)))
        assert words == [(0, 0, 0)]

    def test_encoding_order_two_rows(self):
        c = FqCode.from_rows(F5, 2, [[1, 0], [0, 1]])
        words = list(oracle.codewords(c))
        # message m = d0 + 5*d1 scales row0 by d0 and row1 by d1
        assert words[:6] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]
        assert len(set(words)) == 25

    @pytest.mark.parametrize("field, rows", [
        (GF(2, 2), [[1, 2, 0, 3], [0, 1, 3, 2], [0, 0, 1, 1]]),
        (F5, [[1, 0, 2, 4], [0, 1, 3, 3], [0, 0, 1, 2]]),
    ], ids=["GF(4)", "GF(5)"])
    def test_encoding_order_matches_product(self, field, rows):
        """Message d_0 + d_1 q + d_2 q^2 gives the word sum of d_i * row i, messages ascending."""
        c = FqCode.from_rows(field, 4, rows)
        words = oracle.codewords(c)
        assert iter(words) is words  # a stream, not a list of all q^k words
        assert list(words) == product_words(c)

    # r = k when q^k fits the table (GF(4) at the bound, GF(5), the zero code),
    # 0 < r < k for GF(9) at k = 4, and r = 0 for GF(101) at k = 2
    @pytest.mark.parametrize("q, k", [(4, 6), (5, 5), (5, 0), (9, 4), (101, 2)])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_blocks_match_product(self, q, k, data):
        """Every regime of the blocked enumeration gives ``product``'s words in its order."""
        assert 4**6 <= oracle.TABLE_ENTRIES < min(9**4, 101**2)
        f = ENUM_FIELDS[q]
        n = data.draw(st.integers(k, k + 2), label="n")
        pivots = data.draw(st.permutations(range(n)), label="columns")[:k]
        zero = data.draw(st.sets(st.sampled_from(range(n))), label="zero columns") if n else set()
        rows = []
        for pc in pivots:  # unit pivot columns, as in the RREF generator, keep the rank k
            row = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), label="row")
            rows.append([int(c == pc) if c in pivots or c in zero else v for c, v in enumerate(row)])
        c = FqCode.from_rows(f, n, rows)
        assert c.k == k
        words = oracle.codewords(c)
        assert iter(words) is words
        assert list(words) == product_words(c)

    @pytest.mark.parametrize("field, walk_mb", [(GF(101), 0.12), (GF(4099), 2.56), (GF(31), 0.04)], ids=repr)
    def test_first_words_take_little_memory(self, field, walk_mb):
        """The tables built before the tenth word stay within 1 MB of the peak the word-by-word walk
        reached on these codes (walk_mb, measured before enumeration went by blocks)."""
        n, k = {101: (64, 2), 4099: (16, 1), 31: (32, 4)}[field.q]
        rng = random.Random(field.q)
        c = FqCode.from_rows(field, n, [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)])
        tracemalloc.start()
        try:
            first = list(islice(oracle.codewords(c), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [tuple(field.mul(d, v) for v in c.gen.rows[0]) for d in range(10)]  # q > 10
        assert peak <= (walk_mb + 1) * 2**20

    @pytest.mark.parametrize("field", [GF(4099), GF(2, 13)], ids=repr)
    def test_steps_are_keyed_by_scalar(self, field, monkeypatch):
        """Before the first word, a row's steps cost e * n products, not (q - 1) * n.

        Digit d steps to d + 1 by the scalar (d + 1) - d, one of e values.
        """
        n = 16
        c = FqCode.from_rows(field, n, [[1] + [field.q - 1 - j for j in range(1, n)]])
        calls = 0
        real = GF.mul

        def mul(self, x, y):
            nonlocal calls
            calls += 1
            return real(self, x, y)

        monkeypatch.setattr(GF, "mul", mul)
        assert next(oracle.codewords(c)) == (0,) * n
        assert calls <= field.e * n * c.k

    def test_ring_scalars(self):
        rc = RCode([FqCode.from_rows(F5, 1, [[1]])] * 4)
        words = list(oracle.codewords(rc))
        assert len(words) == 5**4
        assert len(set(words)) == 5**4

    def test_ring_order_component_one_fastest(self):
        rows = [[[1, 2]], [[0, 1]], [], [[1, 1]]]
        rc = RCode([FqCode.from_rows(F5, 2, r) for r in rows])
        # d1 * (1, 2) in slot 1, d2 * (0, 1) in slot 2, d4 * (1, 1) in slot 4
        want = [
            ((d1, 0, 0, d4), (2 * d1 % 5, d2, 0, d4))
            for d4 in range(5)
            for d2 in range(5)
            for d1 in range(5)
        ]
        assert [tuple(x.g for x in w) for w in oracle.codewords(rc)] == want

    def test_budget(self):
        c = FqCode.zero(F5, 6).galois_dual(0)
        with pytest.raises(CapExceededError):
            list(oracle.codewords(c, budget=100))

    def test_budget_messages_past_the_int_str_limit(self):
        # 1048573^716 has more than 4300 digits
        big = FqCode.zero(GF(1048573), 716).galois_dual(0)
        with pytest.raises(CapExceededError, match=r"^1048573\^716 codewords exceed"):
            oracle.codewords(big)
        zero = FqCode.zero(big.field, 716)
        with pytest.raises(CapExceededError, match=r"^1048573\^716 pairings exceed"):
            oracle.is_dual_pair(zero, big, 0)


class TestMinDistance:
    def test_repetition(self):
        assert oracle.min_distance(FqCode.from_rows(F5, 3, [[1, 1, 1]])) == 3

    def test_ring_repetition(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        assert oracle.min_distance(RCode([rep] * 4)) == 3

    def test_ring_weight_counts_every_slot(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        par = rep.galois_dual(0)  # [3, 2, 2]
        for i in range(4):
            comps = [rep] * 4
            comps[i] = par
            assert oracle.min_distance(RCode(comps)) == 2
        light = FqCode.from_rows(F5, 3, [[0, 1, 0]])
        assert oracle.min_distance(RCode([rep, light, rep, rep])) == 1

    def test_weight_reached_only_in_slot_4(self):
        # over GF(2) the only weight-1 ring word has its one nonzero entry
        # in slot 4, and every other nonzero word weighs at least 3
        f = GF(2)
        rep = FqCode.from_rows(f, 3, [[1, 1, 1]])
        rc = RCode([rep, rep, rep, FqCode.from_rows(f, 3, [[0, 1, 0]])])
        assert oracle.min_distance(rc) == 1
        assert sorted(sum(x.lee_weight for x in w) for w in oracle.codewords(rc))[:3] == [0, 1, 3]

    def test_matches_fast_path(self):
        import random

        from support import random_fqcode

        rng = random.Random(51)
        for _ in range(20):
            c = random_fqcode(rng, F5, 4, rng.randint(1, 2))
            if c.k == 0:
                continue
            assert oracle.min_distance(c) == c.min_dist()

    def test_zero_code(self):
        with pytest.raises(ZeroCodeError):
            oracle.min_distance(FqCode.zero(F5, 2))


class TestDualPair:
    def test_line_and_its_dual(self):
        c = line()
        assert oracle.is_dual_pair(c, c.galois_dual(0), 0)

    def test_not_a_dual(self):
        c = FqCode.from_rows(F5, 2, [[1, 1]])
        assert not oracle.is_dual_pair(c, c, 0)

    def test_ring_dual(self):
        rc = RCode([line()] * 4)
        for l in range(1):
            assert oracle.is_dual_pair(rc, rc.galois_dual(l), l)

    def test_ring_dual_with_one_wrong_component(self):
        # distinct components, so pairing the wrong slots cannot pass
        comps = [
            FqCode.from_rows(F5, 2, [[1, 2]]),
            FqCode.from_rows(F5, 2, [[1, 1]]),
            FqCode.zero(F5, 2),
            FqCode.from_rows(F5, 2, [[0, 1]]),
        ]
        rc = RCode(comps)
        dual = rc.galois_dual(0)
        assert oracle.is_dual_pair(rc, dual, 0)
        wrong = FqCode.from_rows(F5, 2, [[1, 3]])
        for i, c in enumerate(dual.comps):
            if c.k != 1:
                continue
            swapped = list(dual.comps)
            swapped[i] = wrong
            assert not oracle.is_dual_pair(rc, RCode(swapped), 0)

    def test_twisted_field_dual(self):
        c = FqCode.from_rows(F9, 2, [[1, 4]])
        assert oracle.is_dual_pair(c, c.galois_dual(1), 1)
        assert not oracle.is_dual_pair(c, c.galois_dual(0), 1)


def definition_dual_pair(code, dual, l):
    """The dual by definition: sizes multiply to q^(slots * n) and all |C| * |D| pairs vanish."""
    f = code.field
    ring = isinstance(code, RCode)
    if code.size * dual.size != f.q ** ((4 if ring else 1) * code.n):
        return False
    if ring:
        zero = RingElement.zero(f)

        def orthogonal(t, s):
            return galois_inner(t, s, l) == zero

    else:

        def orthogonal(t, s):
            acc = 0
            for a, b in zip(t, s):
                acc = f.add(acc, f.mul(a, f.frobenius(b, l)))
            return acc == 0

    dual_words = list(oracle.codewords(dual))
    return all(orthogonal(t, s) for t in oracle.codewords(code) for s in dual_words)


DIFF_FIELDS = {2: GF(2), 4: GF(2, 2), 5: F5, 8: GF(2, 3), 9: F9}
DIFF_PAIR_CAP = 9**4  # every GF(9) ring code of length 1 fits


def miss_one_generator(comp, dual_comp, l, i):
    """A code of the dual's size orthogonal to every generator of ``comp`` but row i."""
    f, n = comp.field, comp.n
    rest = FqCode.from_rows(f, n, [comp.gen.row(r) for r in range(comp.k) if r != i])
    basis = dual_comp.gen.to_rows()
    w = next(
        r for r in rest.galois_dual(l).gen.to_rows()
        if FqCode.from_rows(f, n, basis + [r]).k > dual_comp.k
    )
    basis[0] = [f.add(a, b) for a, b in zip(basis[0], w)]
    out = FqCode.from_rows(f, n, basis)
    assert out.k == dual_comp.k
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_dual_pair_matches_the_definition(data):
    q = data.draw(st.sampled_from(sorted(DIFF_FIELDS)), label="q")
    f = DIFF_FIELDS[q]
    ring = data.draw(st.booleans(), label="ring")
    slots = 4 if ring else 1
    n = data.draw(
        st.integers(1, max(n for n in range(1, 13) if q ** (slots * n) <= DIFF_PAIR_CAP)),
        label="n",
    )
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    comps = [
        FqCode.from_rows(f, n, data.draw(st.lists(row, max_size=n), label=f"slot {i} rows"))
        for i in range(slots)
    ]
    if ring:
        assume(len(set(comps)) > 1)
        code = RCode(comps)
    else:
        code = comps[0]
    l = data.draw(st.integers(0, f.e - 1), label="l")
    dual = code.galois_dual(l)
    dual_comps = dual.comps if ring else (dual,)

    def with_slot(i, c):
        cs = list(dual_comps)
        cs[i] = c
        return RCode(cs) if ring else cs[0]

    candidates = [dual]
    partial = [i for i, c in enumerate(comps) if 0 < c.k < n]
    if partial:
        i = data.draw(st.sampled_from(partial), label="slot missing a generator")
        r = data.draw(st.integers(0, comps[i].k - 1), label="missed row")
        candidates.append(with_slot(i, miss_one_generator(comps[i], dual_comps[i], l, r)))
    i = data.draw(st.sampled_from(partial or list(range(slots))), label="wrong slot")
    k = dual_comps[i].k
    other = FqCode.from_rows(f, n, data.draw(st.lists(row, max_size=k), label="wrong slot rows"))
    for j in range(n):  # pad with unit vectors up to the dual's dimension
        if other.k < k:
            unit = [int(c == j) for c in range(n)]
            other = FqCode.from_rows(f, n, other.gen.to_rows() + [unit])
    candidates.append(with_slot(i, other))
    if ring:
        # the right components in the wrong slots
        i, j = next((i, j) for i in range(4) for j in range(i) if dual_comps[i] != dual_comps[j])
        swapped = list(dual_comps)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        candidates.append(RCode(swapped))
    nonzero = [i for i, c in enumerate(dual_comps) if c.k]
    if nonzero:
        # a proper subcode of the dual: every pair vanishes but the size is short
        i = nonzero[0]
        candidates.append(with_slot(i, FqCode.from_rows(f, n, dual_comps[i].gen.to_rows()[1:])))

    assert oracle.is_dual_pair(code, dual, l) and definition_dual_pair(code, dual, l)
    for cand in candidates[1:]:
        want = definition_dual_pair(code, cand, l)
        assert oracle.is_dual_pair(code, cand, l) == want
        assert want == (cand == dual)


RING_WORD_CAP = 125  # |C| words, so |C|^2 galois_inner pairs per definitional hull


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ring_hull_and_distance_match_the_definitions(data):
    """Ring hull_dim and min_distance against all-pairs galois_inner and the least lee_weight."""
    q = data.draw(st.sampled_from([4, 5, 9]), label="q")
    f = DIFF_FIELDS[q]
    n = data.draw(st.integers(1, 3), label="n")
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    room = max(k for k in range(n * 4 + 1) if q**k <= RING_WORD_CAP)
    comps = []
    for i in range(4):  # later slots get what is left, so zero components are common
        rows = data.draw(st.lists(row, max_size=min(n, room)), label=f"slot {i} rows")
        comps.append(FqCode.from_rows(f, n, rows))
        room -= comps[-1].k
    rc = RCode(comps)
    words = list(oracle.codewords(rc))
    assert len(words) == q**rc.k
    zero = RingElement.zero(f)
    for l in range(f.e):
        hull = sum(all(galois_inner(t, w, l) == zero for t in words) for w in words)
        assert q ** oracle.hull_dim(rc, l) == hull
    if rc.k == 0:
        with pytest.raises(ZeroCodeError):
            oracle.min_distance(rc)
    else:
        want = min(sum(x.lee_weight for x in w) for w in words if any(not x.is_zero for x in w))
        assert oracle.min_distance(rc) == want


def test_ring_oracles_build_no_ring_element(monkeypatch):
    comps = [
        FqCode.from_rows(F5, 2, [[1, 2]]),
        FqCode.from_rows(F5, 2, [[1, 1]]),
        FqCode.zero(F5, 2),
        FqCode.from_rows(F5, 2, [[0, 1]]),
    ]
    rc = RCode(comps)
    dual = rc.galois_dual(0)

    def refuse(self, *args):
        raise AssertionError("the oracle built a RingElement")

    monkeypatch.setattr(RingElement, "__init__", refuse)
    assert oracle.min_distance(rc) == 1
    assert oracle.hull_dim(rc, 0) == 1
    assert oracle.is_dual_pair(rc, dual, 0)
    assert len(set(oracle.expansions(rc))) == rc.size
    with pytest.raises(AssertionError, match="built a RingElement"):
        next(oracle.codewords(rc))


@pytest.fixture
def tally(monkeypatch):
    """Run one oracle call; return its result and what it did per slot word and ring word.

    ``twists`` counts ``GF.frobenius`` calls, ``weighed`` the zero counts
    taken on slot words (one per weight), and ``ring_words`` the tuples
    the ring pass draws from ``itertools.product``.
    """
    work = Counter()
    real_frob, real_words, real_product = GF.frobenius, oracle.codewords, oracle.product

    class Weighed(tuple):
        def count(self, x):
            work["weighed"] += 1
            return tuple.count(self, x)

    def frobenius(self, x, l):
        work["twists"] += 1
        return real_frob(self, x, l)

    def product(*values):
        for s in real_product(*values):
            work["ring_words"] += 1
            yield s

    monkeypatch.setattr(GF, "frobenius", frobenius)
    monkeypatch.setattr(oracle, "codewords", lambda code, budget: map(Weighed, real_words(code, budget)))
    monkeypatch.setattr(oracle, "product", product)

    def run(call, *args):
        work.clear()
        return call(*args), {key: work[key] for key in ("twists", "weighed", "ring_words")}

    return run


def test_each_slot_word_is_decided_once_and_every_ring_word_counted(tally):
    """Twists and weights scale with the slot codes' sizes, the ring pass with |C|.

    Slot 2 has no rows, so its words are never twisted; the dual's slot 4
    has dimension 0, so only its zero word is paired.
    """
    comps = [
        FqCode.from_rows(F9, 2, [[1, 4]]),
        FqCode.zero(F9, 2),
        FqCode.from_rows(F9, 2, [[1, 1]]),
        FqCode.from_rows(F9, 2, [[1, 0], [0, 1]]),
    ]
    rc = RCode(comps)
    dual = rc.galois_dual(1)
    assert [c.k for c in dual.comps] == [1, 2, 1, 0]
    hull = sum(c.hull_dim(1) for c in comps)
    # twisted: slots 1, 3 and 4 of each word, 9 + 9 + 81 words of n = 2 entries
    assert tally(oracle.hull_dim, rc, 1) == (hull, {"twists": 2 * 99, "weighed": 0, "ring_words": 9**4})
    # the dual's words in slots 1, 3 and 4: 9 + 9 + 1; the budget bounds |C| * |D| = 9^8 pairs
    want = {"twists": 2 * 19, "weighed": 0, "ring_words": 9**4}
    assert tally(oracle.is_dual_pair, rc, dual, 1, 9**8) == (True, want)
    d = rc.params().d_lee
    assert tally(oracle.min_distance, rc) == (d, {"twists": 0, "weighed": 100, "ring_words": 9**4})


def test_field_code_streams_through_one_slot(tally):
    c = FqCode.from_rows(F9, 3, [[1, 4, 0], [0, 1, 1]])
    dual = c.galois_dual(1)
    hull, d = c.hull_dim(1), c.min_dist()
    assert tally(oracle.hull_dim, c, 1) == (hull, {"twists": 3 * 81, "weighed": 0, "ring_words": 0})
    assert tally(oracle.is_dual_pair, c, dual, 1) == (True, {"twists": 3 * 9, "weighed": 0, "ring_words": 0})
    assert tally(oracle.min_distance, c) == (d, {"twists": 0, "weighed": 81, "ring_words": 0})
    zero = FqCode.zero(F9, 3)
    assert tally(oracle.hull_dim, zero, 1) == (0, {"twists": 0, "weighed": 0, "ring_words": 0})


class TestHull:
    def test_self_orthogonal_line(self):
        assert oracle.hull_dim(line(), 0) == 1

    def test_lcd_line(self):
        assert oracle.hull_dim(FqCode.from_rows(F5, 2, [[1, 1]]), 0) == 0

    def test_zero_code(self):
        assert oracle.hull_dim(FqCode.zero(F5, 2), 0) == 0

    def test_ring_hull_splits(self):
        rc = RCode([line()] * 4)
        assert oracle.hull_dim(rc, 0) == 4

    def test_ring_hull_with_distinct_components(self):
        comps = [
            FqCode.from_rows(F9, 2, [[1, 1]]),
            FqCode.from_rows(F9, 2, [[1, 4]]),
            FqCode.zero(F9, 2),
            FqCode.from_rows(F9, 2, [[1, 3]]),
        ]
        rc = RCode(comps)
        assert [c.hull_dim(0) for c in comps] == [0, 0, 0, 1]
        assert [c.hull_dim(1) for c in comps] == [0, 1, 0, 0]
        assert oracle.hull_dim(rc, 0) == 1
        assert oracle.hull_dim(rc, 1) == 1

    def test_agrees_with_fast_path(self):
        import random

        from support import random_fqcode

        rng = random.Random(52)
        for _ in range(25):
            c = random_fqcode(rng, F9, rng.randint(1, 4), rng.randint(0, 2))
            for l in range(2):
                assert oracle.hull_dim(c, l) == c.hull_dim(l)


EXPANSION_FIELDS = {3: GF(3), **DIFF_FIELDS}
EXPANSION_WORD_CAP = 2_000


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_expansions_match_gray_of_codewords(data):
    """``expansions`` is ``gray`` of each ring word, in ``codewords`` order, under the same budget."""
    q = data.draw(st.sampled_from(sorted(EXPANSION_FIELDS)), label="q")
    f = EXPANSION_FIELDS[q]
    n = data.draw(st.integers(0, 3), label="n")
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    room = max(k for k in range(4 * n + 1) if q**k <= EXPANSION_WORD_CAP)
    comps = []
    for i in range(4):
        kind = data.draw(st.sampled_from(["zero", "full", "rows"]), label=f"slot {i} kind")
        if kind == "full" and n <= room:
            rows = [[int(c == r) for c in range(n)] for r in range(n)]
        elif kind == "rows":
            rows = data.draw(st.lists(row, max_size=min(n, room)), label=f"slot {i} rows")
        else:
            rows = []
        comps.append(FqCode.from_rows(f, n, rows))
        room -= comps[-1].k
    rc = RCode(comps)
    assert list(oracle.expansions(rc)) == [gray(w) for w in oracle.codewords(rc)]
    for stream in (oracle.expansions, oracle.codewords):
        with pytest.raises(CapExceededError):
            stream(rc, rc.size - 1)  # refused on the call, before any word


def test_expansions_of_length_zero():
    rc = RCode([FqCode.zero(F5, 0)] * 4)
    assert list(oracle.expansions(rc)) == [()] == [gray(w) for w in oracle.codewords(rc)]


class TestGrayConsistency:
    def test_enumerated_expansion_matches_image(self):
        import random

        from support import make_field, random_rcode

        rng = random.Random(53)
        for _ in range(10):
            rc = random_rcode(rng, F5, 2, 1)
            expanded = {gray(w) for w in oracle.codewords(rc)}
            image = set(oracle.codewords(rc.gray_image()))
            assert expanded == image
        # the slot-by-slot image is the span of the expanded ring generators
        for q in (4, 5, 9):
            f = make_field(q)
            for n in range(1, 5):
                rc = random_rcode(rng, f, n, n)
                rows = [gray(r) for r in rc.generator_rows()]
                assert rc.gray_image() == FqCode.from_rows(f, 4 * n, rows)
