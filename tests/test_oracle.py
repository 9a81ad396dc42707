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
from lcdring.errors import BadLError, CapExceededError, ConsistencyError, MismatchError, ZeroCodeError
from lcdring.fqcode import DEFAULT_ENUM_CAP
from lcdring.ring import galois_inner, gray

from support import ring_words

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
        """Every regime of the blocked enumeration gives ``product``'s words once each, the zero
        word first, and in ``product``'s order whenever q^k fits the tables."""
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
        words, want = list(words), product_words(c)
        assert len(set(want)) == q**k
        assert words[0] == (0,) * n
        assert sorted(words) == sorted(want)
        if q**k <= oracle.TABLE_ENTRIES:
            assert words == want

    @pytest.mark.parametrize("field, k", [(GF(2), 3), (GF(2, 2), 3), (F5, 2), (F5, 3), (GF(2, 3), 3), (F9, 3), (F9, 0)],
                             ids=repr)
    def test_walk_is_a_gray_order(self, field, k):
        """After s steps, F_p digit i of the message is s_i - s_(i+1) mod p, s_i the base-p digits of s:
        digit j * e + t is the coefficient of x^t in row j's scalar."""
        p, e, n = field.p, field.e, 3
        rng = random.Random(field.q * 10 + k)
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        words = list(oracle._walk(field, rows, n))
        assert len(words) == field.q**k
        for s, word in enumerate(words):
            base_p = [s // p**i % p for i in range(k * e + 1)]
            digits = [(base_p[i] - base_p[i + 1]) % p for i in range(k * e)]
            want = (0,) * n
            for j, row in enumerate(rows):
                scalar = sum(d * p**t for t, d in enumerate(digits[j * e:(j + 1) * e]))
                want = tuple(map(field.add, want, [field.mul(scalar, v) for v in row]))
            assert word == want

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

        Each F_p digit of the message steps by 1, so the steps of row j are its e multiples x^t * row j.
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
        words = list(ring_words(rc))
        assert len(words) == 5**4
        assert len(set(words)) == 5**4

    def test_budget(self):
        c = FqCode.zero(F5, 6).galois_dual(0)
        with pytest.raises(CapExceededError):
            list(oracle.codewords(c, budget=100))

    def test_ring_code_refused(self, monkeypatch):
        """A ring code is refused as such, before any budget is read."""
        monkeypatch.setattr(oracle, "_check_budget", None)
        with pytest.raises(MismatchError, match="^codewords takes a field code$"):
            oracle.codewords(RCode([line()] * 4), budget=0)

    def test_budget_messages_past_the_int_str_limit(self):
        # 1048573^716 has more than 4300 digits
        big = FqCode.zero(GF(1048573), 716).galois_dual(0)
        with pytest.raises(CapExceededError, match=r"^1048573\^716 codewords exceed"):
            oracle.codewords(big)


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
        assert sorted(sum(x.lee_weight for x in w) for w in ring_words(rc))[:3] == [0, 1, 3]

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

    def test_word_order_does_not_matter(self, monkeypatch):
        """The distance is the least nonzero weight, wherever the zero word comes in the stream."""
        real = oracle._fq_words
        monkeypatch.setattr(oracle, "_fq_words", lambda c: reversed(list(real(c))))
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        assert oracle.min_distance(rep) == 3
        assert oracle.min_distance(RCode([rep, rep, rep, FqCode.from_rows(F5, 3, [[0, 1, 1]])])) == 2


def test_hull_count_must_be_a_power_of_q(monkeypatch):
    monkeypatch.setattr(oracle, "_orthogonal_count", lambda code, words, l: 10)
    with pytest.raises(ConsistencyError, match="hull count 10 is not a power of q = 5"):
        oracle.hull_dim(line(), 0)


def test_each_slot_hull_count_must_be_a_power_of_q(monkeypatch):
    """Two wrong slot counts of 2 over GF(4) multiply to a power of q; each slot is checked on its own."""
    f = GF(2, 2)
    comps = [FqCode.from_rows(f, 2, [[1, 1]]), FqCode.zero(f, 2), FqCode.zero(f, 2), FqCode.from_rows(f, 2, [[1, 0]])]
    rc = RCode(comps)
    assert oracle.hull_dim(rc, 0) == 1
    real = oracle._orthogonal_count
    monkeypatch.setattr(oracle, "_orthogonal_count", lambda c, words, l: 2 if c.k == 0 else real(c, words, l))
    with pytest.raises(ConsistencyError, match=r"^slot 2: hull count 2 is not a power of q = 4$"):
        oracle.hull_dim(rc, 0)


class TestDualPair:
    def test_decided_past_the_int_str_limit(self):
        # |C| * |D| = 1048573^716 has more than 4300 digits; only generator rows are paired
        f = GF(1048573)
        zero = FqCode.zero(f, 716)
        full = zero.galois_dual(0)
        assert oracle.is_dual_pair(zero, full, 0)
        assert not oracle.is_dual_pair(zero, FqCode.from_rows(f, 716, full.gen.to_rows()[1:]), 0)

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

    def test_field_and_ring_code_refused(self):
        c = line()
        for code, dual in ((c, RCode([c] * 4)), (RCode([c] * 4), c)):
            with pytest.raises(MismatchError, match="two codes in one ambient space"):
                oracle.is_dual_pair(code, dual, 0)

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

    words = ring_words if ring else oracle.codewords
    dual_words = list(words(dual))
    return all(orthogonal(t, s) for t in words(code) for s in dual_words)


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


def same_k(data, f, n, k, label):
    """A drawn code of length n and dimension k, padded with unit vectors."""
    row = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
    c = FqCode.from_rows(f, n, data.draw(st.lists(row, max_size=k), label=label))
    for j in range(n):
        if c.k < k:
            c = FqCode.from_rows(f, n, c.gen.to_rows() + [[int(i == j) for i in range(n)]])
    return c


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
    candidates.append(with_slot(i, same_k(data, f, n, dual_comps[i].k, "wrong slot rows")))
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
    words = list(ring_words(rc))
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
    dual, image = rc.galois_dual(0), rc.gray_image()

    def refuse(self, *args):
        raise AssertionError("the oracle built a RingElement")

    monkeypatch.setattr(RingElement, "__init__", refuse)
    assert oracle.min_distance(rc) == 1
    assert oracle.hull_dim(rc, 0) == 1
    assert oracle.is_dual_pair(rc, dual, 0)
    assert oracle.is_expansion(rc, image)
    with pytest.raises(AssertionError, match="built a RingElement"):
        next(ring_words(rc))


@pytest.fixture
def tally(monkeypatch):
    """Run one oracle call; return its result and what it did per slot word.

    ``twists`` counts ``GF.frobenius`` calls and ``weighed`` the zero
    counts taken on slot words (one per weight).
    """
    work = Counter()
    real_frob, real_words = GF.frobenius, oracle.codewords

    class Weighed(tuple):
        def count(self, x):
            work["weighed"] += 1
            return tuple.count(self, x)

    def frobenius(self, x, l):
        work["twists"] += 1
        return real_frob(self, x, l)

    monkeypatch.setattr(GF, "frobenius", frobenius)
    monkeypatch.setattr(oracle, "codewords", lambda code, budget: map(Weighed, real_words(code, budget)))

    def run(call, *args):
        work.clear()
        return call(*args), {key: work[key] for key in ("twists", "weighed")}

    return run


def test_each_slot_word_is_decided_once(tally):
    """Weights scale with the slot codes' sizes, not with |C| = 9^4, and twists with the slot
    codes' generator entries: each call twists every entry of every slot code's generator rows
    once, and no word entry.

    Slot 2 has no rows, so nothing is twisted there; the dual's slot 4 has dimension 0, so the
    dual check pairs no word there, but still twists slot code 4's rows.
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
    # twisted: the generator entries of slots 1, 3 and 4, 1 + 1 + 2 rows of n = 2 entries
    assert tally(oracle.hull_dim, rc, 1) == (hull, {"twists": 2 * 4, "weighed": 0})
    assert tally(oracle.is_dual_pair, rc, dual, 1) == (True, {"twists": 2 * 4, "weighed": 0})
    d = rc.params().d_lee
    # weighed: 9 + 1 + 9 + 81 slot words
    assert tally(oracle.min_distance, rc) == (d, {"twists": 0, "weighed": 100})


def test_field_code_streams_through_one_slot(tally):
    c = FqCode.from_rows(F9, 3, [[1, 4, 0], [0, 1, 1]])
    dual = c.galois_dual(1)
    hull, d = c.hull_dim(1), c.min_dist()
    # twisted: the 2 generator rows of n = 3 entries, whatever the number of words paired
    assert tally(oracle.hull_dim, c, 1) == (hull, {"twists": 3 * 2, "weighed": 0})
    assert tally(oracle.is_dual_pair, c, dual, 1) == (True, {"twists": 3 * 2, "weighed": 0})
    assert tally(oracle.min_distance, c) == (d, {"twists": 0, "weighed": 81})
    zero = FqCode.zero(F9, 3)
    assert tally(oracle.hull_dim, zero, 1) == (0, {"twists": 0, "weighed": 0})


PAIRING_FIELDS = {4: GF(2, 2), 8: GF(2, 3), 9: F9, 25: GF(5, 2), 27: GF(3, 3)}


def pairs_to_zero(f, g, w, l):
    """The definition: sum_j g_j * w_j^(p^l) is zero, each word entry raised to the power."""
    total = 0
    for x, y in zip(g, w):
        total = f.add(total, f.mul(x, f.pow(y, f.p**l)))
    return total == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generator_side_pairing_matches_the_definition(data):
    """Twisting each generator by F^(e-l) and pairing it with the untwisted word decides what
    sum_j g_j * w_j^(p^l) decides, at every l: on arbitrary words, on every slot word, and so
    for ``hull_dim`` and ``survey``, including the zero code and codes with empty slots."""
    q = data.draw(st.sampled_from(sorted(PAIRING_FIELDS)), label="q")
    f = PAIRING_FIELDS[q]
    n = data.draw(st.integers(0, 3), label="n")
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    comps = [FqCode.from_rows(f, n, data.draw(st.lists(row, max_size=2), label=f"slot {i} rows")) for i in range(4)]
    words = data.draw(st.lists(row.map(tuple), max_size=8), label="words")
    codes = [RCode(comps), RCode([FqCode.zero(f, n)] * 4)]
    for rc in codes:
        hulls = []
        for l in range(f.e):
            h = 0
            for c in rc.comps:
                rows = c.gen.rows
                for w in words:
                    want = all(pairs_to_zero(f, g, w, l) for g in rows)
                    assert oracle._orthogonal_count(c, [w], l) == want
                hits = sum(all(pairs_to_zero(f, g, w, l) for g in rows) for w in oracle.codewords(c))
                h += next(i for i in range(n + 1) if q**i == hits)
            assert oracle.hull_dim(rc, l) == h
            hulls.append(h)
        image = rc.gray_image()
        weights = tuple(oracle.min_distance(c) if c.k else 0 for c in rc.comps)
        distance = oracle.min_distance(rc) if rc.k else 0
        want = (distance, weights, tuple(hulls), oracle.is_expansion(rc, image))
        assert oracle.survey(rc, image) == want


def test_survey_checks_its_arguments_and_budget_before_drawing(monkeypatch):
    """Codes of the wrong kinds, or a slot code past the budget, are refused before any word is drawn."""
    rc = gf9_ring_code()
    image = rc.gray_image()
    monkeypatch.setattr(oracle, "_fq_words", None)
    for code, img in ((rc.comps[0], image), (rc, rc), (image, image)):
        with pytest.raises(MismatchError, match="^survey needs a ring code and a field code$"):
            oracle.survey(code, img)
    with pytest.raises(CapExceededError, match=r"^81 codewords exceed the budget of 80$"):
        oracle.survey(rc, image, 80)


def test_survey_reads_a_wrong_image_as_no_expansion():
    rc = gf9_ring_code()
    for image in (FqCode.zero(F9, 4 * rc.n), FqCode.zero(GF(3, 2, [2, 2, 1]), 4 * rc.n), FqCode.zero(F9, 3)):
        assert oracle.survey(rc, image)[3] is False
    assert oracle.survey(rc, rc.gray_image())[3] is True


def gf9_ring_code():
    """Components of 9, 81, 9 and 81 words over GF(9) at n = 3: |C| = 9^6."""
    rows = [[[1, 4, 2]], [[1, 0, 3], [0, 1, 5]], [[1, 1, 1]], [[1, 0, 7], [0, 1, 2]]]
    return RCode([FqCode.from_rows(F9, 3, r) for r in rows])


def test_budget_counts_one_component():
    """A ring code past the budget whose components each fit gets the answers of the default budget."""
    rc = gf9_ring_code()
    image = rc.gray_image()
    assert rc.size == 9**6 > 81 == max(c.size for c in rc.comps)

    def answers(budget):
        hulls = [oracle.hull_dim(rc, l, budget) for l in range(F9.e)]
        return oracle.min_distance(rc, budget), hulls, oracle.is_expansion(rc, image, budget)

    hulls = [sum(c.hull_dim(l) for c in rc.comps) for l in range(F9.e)]
    assert answers(81) == answers(DEFAULT_ENUM_CAP) == (rc.params().d_lee, hulls, True)


@pytest.mark.parametrize("call", ["min_distance", "hull_dim", "is_expansion"])
def test_budget_names_the_first_component_past_it(call):
    rc = gf9_ring_code()
    assert [c.size for c in rc.comps] == [9, 81, 9, 81]  # slot 2 is the first past 80
    args = {"min_distance": (), "hull_dim": (0,), "is_expansion": (rc.gray_image(),)}[call]
    with pytest.raises(CapExceededError, match=r"^81 codewords exceed the budget of 80$"):
        getattr(oracle, call)(rc, *args, 80)


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


EXPANSION_FIELDS = {3: GF(3), 4: GF(2, 2), 5: F5, 9: F9}
EXPANSION_WORD_CAP = 2_000


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_expansion_matches_the_expanded_set(data):
    """``is_expansion`` decides the set equality of ``gray`` of every ring word with the image's words."""
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
    image = rc.gray_image()
    rows = image.gen.to_rows()
    candidates = [image, FqCode.from_rows(f, 4 * n + 1, [r + [0] for r in rows])]
    if n:
        a, b = data.draw(st.lists(st.integers(0, 4 * n - 1), min_size=2, max_size=2, unique=True), label="swap")
        for r in rows:
            r[a], r[b] = r[b], r[a]
        candidates.append(FqCode.from_rows(f, 4 * n, rows))
        i = data.draw(st.integers(0, 3), label="replaced slot")
        other = list(comps)
        other[i] = same_k(data, f, n, comps[i].k, "replacement rows")
        candidates.append(RCode(other).gray_image())
    if image.k:
        candidates.append(FqCode.from_rows(f, 4 * n, image.gen.to_rows()[1:]))
    expanded = {gray(w) for w in ring_words(rc)}
    assert oracle.is_expansion(rc, image)
    for cand in candidates:
        assert oracle.is_expansion(rc, cand) == (expanded == set(oracle.codewords(cand)))
    # the budget counts one component: the first past it is named before any word is drawn,
    # and the image is neither budgeted nor drawn, whatever its size
    full = FqCode.zero(f, 4 * n).galois_dual(0)
    top = max(c.size for c in comps)
    first = next(c for c in comps if c.size == top)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_fq_words", None)
        with pytest.raises(CapExceededError, match=rf"^{q ** first.k} codewords exceed the budget of {top - 1}$"):
            oracle.is_expansion(rc, full, top - 1)
    checked, drawn = [], []
    real_check, real_words = oracle._check_budget, oracle._fq_words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_check_budget", lambda c, budget: (checked.append(c), real_check(c, budget))[1])
        mp.setattr(oracle, "_fq_words", lambda c: (drawn.append(c), real_words(c))[1])
        assert oracle.is_expansion(rc, full, top) == (rc.k == 4 * n)
    assert checked and drawn == list(comps)
    assert all(c is not full for c in checked)


def test_is_expansion_needs_the_field_and_the_length():
    """Words of one field or length are never the expansion over another, even where the ints agree."""
    rc = RCode([FqCode.zero(F5, 1)] * 4)
    assert oracle.is_expansion(rc, FqCode.zero(F5, 4))
    assert not oracle.is_expansion(rc, FqCode.zero(GF(7), 4))
    assert not oracle.is_expansion(rc, FqCode.zero(F5, 3))
    empty = RCode([FqCode.zero(F5, 0)] * 4)
    assert oracle.is_expansion(empty, FqCode.zero(F5, 0))
    assert not oracle.is_expansion(empty, FqCode.zero(F5, 4))


def test_is_expansion_needs_a_ring_code_and_a_field_code():
    c = FqCode.zero(F5, 1)
    rc = RCode([c] * 4)
    for code, image in ((c, FqCode.zero(F5, 4)), (rc, rc), (c, rc)):
        with pytest.raises(MismatchError, match="^expansion check needs a ring code and a field code$"):
            oracle.is_expansion(code, image)


def test_is_expansion_counts_each_word_once():
    """A generator with a repeated row, as a faulty derivation could build, lists each word q
    times; the verdict is still the set equality."""
    line = FqCode.from_rows(F5, 1, [[1]])
    zero = FqCode.zero(F5, 1)

    def repeated(rows):
        return FqCode._derived(F5, 4, rows, (0,) * len(rows))

    one, two = RCode([line, zero, zero, zero]), RCode([line, line, zero, zero])
    cases = [
        (one, repeated([(1, 0, 0, 0)] * 2), True),
        (two, repeated([(1, 0, 0, 0)] * 2), False),  # q^2 words, but only q distinct
        (two, repeated([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]), True),
        (two, repeated([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]), False),
    ]
    for rc, image, want in cases:
        assert want == ({gray(w) for w in ring_words(rc)} == set(oracle.codewords(image)))
        assert oracle.is_expansion(rc, image) == want


def test_is_expansion_needs_distinct_leading_positions():
    """Rows sharing a leading position, as no code the package builds has, can read False on
    equal sets: (1, 1, 0, 0) and (1, 0, 0, 0) span all q^2 expansions of ``two``, but their one
    leading position certifies only q words.  The verdict is sound, never exact past echelon form."""
    line = FqCode.from_rows(F5, 1, [[1]])
    zero = FqCode.zero(F5, 1)
    two = RCode([line, line, zero, zero])
    image = FqCode._derived(F5, 4, [(1, 1, 0, 0), (1, 0, 0, 0)], (0, 0))
    assert {gray(w) for w in ring_words(two)} == set(oracle.codewords(image))
    assert not oracle.is_expansion(two, image)


def test_is_expansion_draws_no_image_word(monkeypatch):
    """The image's generator rows decide the check: ``codewords`` is only asked for slot codes."""
    comps = [
        FqCode.from_rows(F9, 2, [[1, 4]]),
        FqCode.zero(F9, 2),
        FqCode.from_rows(F9, 2, [[1, 1]]),
        FqCode.from_rows(F9, 2, [[1, 0], [0, 1]]),
    ]
    rc = RCode(comps)
    image = rc.gray_image()
    real = oracle.codewords

    def slot_words(code, budget):
        assert code.n != 4 * rc.n, "drew an image word"
        return real(code, budget)

    monkeypatch.setattr(oracle, "codewords", slot_words)
    assert oracle.is_expansion(rc, image)
    assert not oracle.is_expansion(rc, FqCode.from_rows(F9, 8, image.gen.to_rows()[1:]))


def test_is_expansion_holds_slot_words_only():
    """The check holds the four sets of slot words, never a set of image or ring words."""
    f = GF(2)
    rng = random.Random(16)
    comps = [
        FqCode.from_rows(f, 16, [[int(c == r) if c < k else rng.randrange(2) for c in range(16)] for r in range(k)])
        for k in (4, 4, 3, 3)
    ]
    rc = RCode(comps)
    image = rc.gray_image()
    assert image.k == 14
    tracemalloc.start()
    try:
        assert oracle.is_expansion(rc, image)
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert len(set(oracle.codewords(image))) == rc.size
        _, held = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamed <= 4 * 2**20 < held


class TestGrayConsistency:
    def test_enumerated_expansion_matches_image(self):
        import random

        from support import make_field, random_rcode

        rng = random.Random(53)
        for _ in range(10):
            rc = random_rcode(rng, F5, 2, 1)
            expanded = {gray(w) for w in ring_words(rc)}
            image = set(oracle.codewords(rc.gray_image()))
            assert expanded == image
        # the slot-by-slot image is the span of the expanded ring generators
        for q in (4, 5, 9):
            f = make_field(q)
            for n in range(1, 5):
                rc = random_rcode(rng, f, n, n)
                rows = [gray(r) for r in rc.generator_rows()]
                assert rc.gray_image() == FqCode.from_rows(f, 4 * n, rows)
