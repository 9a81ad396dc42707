"""Acceptance gate: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All expected values are exact; the only tolerances are wall-clock limits.
"""

import random
import time

import pytest

from lcdring import FqCode, GF, Matrix, RCode, RingElement, oracle
from lcdring.construct import (
    MinorCertificate,
    euclid_lcd_scaling,
    galois_lcd_scaling,
    lemma_det_check,
    minor_search,
    ring_lcd_equivalent,
)
from lcdring.errors import FieldTooSmallError
from lcdring.linalg import minor_det
from lcdring.ring import gray, lee_distance

from support import make_field, matmul, random_fqcode, random_rcode, random_ring_vector

# the definitional dual check costs |C| * |dual| pairings; instances whose
# pairing count fits this budget get the brute-force check on top of the
# structural ones
PAIR_BUDGET = 400_000


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def dual_instances():
    """210 random ring codes over q in {4, 5, 9} with n <= 6, k_i <= 3."""
    rng = random.Random(0xD0A1)
    out = []
    for q in (4, 5, 9):
        field = make_field(q)
        for _ in range(70):
            n = rng.randint(1, 6)
            out.append(random_rcode(rng, field, n, 3))
    return out


def test_criterion_1_gray_isometry():
    rng = random.Random(101)
    start = time.monotonic()
    pairs = 0
    for q in (4, 5, 9):
        field = make_field(q)
        for _ in range(340):
            n = rng.randint(1, 8)
            x = random_ring_vector(rng, field, n)
            y = random_ring_vector(rng, field, n)
            hamming = sum(1 for a, b in zip(gray(x), gray(y)) if a != b)
            assert lee_distance(x, y) == hamming
            pairs += 1
    elapsed = time.monotonic() - start
    assert pairs >= 1000
    assert elapsed < 10.0
    _report(1, f"Lee distance equals Hamming distance of expansions on {pairs} pairs ({elapsed:.1f}s)")


def _components_from_expansion(image: FqCode, n: int) -> RCode:
    """Pull a ring code back out of its expansion.

    The expansion is a direct sum over the four position classes mod 4,
    so restricting every generator row to one class spans that slot's
    component.  This is an independent route to the components: it never
    touches the componentwise machinery.
    """
    rows = image.gen.to_rows()
    comps = [
        FqCode.from_rows(image.field, n, [row[i::4] for row in rows]) for i in range(4)
    ]
    return RCode.from_components(comps)


def test_criterion_2_duality_decomposition(dual_instances):
    start = time.monotonic()
    checked_bf = {4: 0, 5: 0, 9: 0}
    for rc in dual_instances:
        for l in range(rc.field.e):
            dual = rc.galois_dual(l)
            # second route: dualize the whole 4n-dimensional expansion and
            # split it back into slots
            via_expansion = _components_from_expansion(
                rc.gray_image().galois_dual(l), rc.n
            )
            assert dual == via_expansion
            if rc.size * dual.size <= PAIR_BUDGET:
                assert oracle.is_dual_pair(rc, dual, l, PAIR_BUDGET)
                checked_bf[rc.field.q] += 1
    elapsed = time.monotonic() - start
    assert len(dual_instances) >= 200
    assert all(v > 0 for v in checked_bf.values()), "brute-force coverage missing for some q"
    assert elapsed < 60.0
    _report(
        2,
        f"dual decomposes componentwise on {len(dual_instances)} codes "
        f"(checked against the expansion route); "
        f"{sum(checked_bf.values())} brute-force pair checks ({elapsed:.1f}s)",
    )


def test_criterion_3_lcd_triple_agreement():
    rng = random.Random(103)
    start = time.monotonic()
    cap = 5**6
    k_cap = {4: 6, 5: 6, 9: 4}  # largest k with q^k <= 5^6
    codes = 0
    for q in (4, 5, 9):
        field = make_field(q)
        for _ in range(70):
            n = rng.randint(1, 8)
            c = random_fqcode(rng, field, n, rng.randint(0, min(n, k_cap[q])))
            assert field.q**c.k <= cap
            for l in range(field.e):
                flag = c.is_lcd(l)
                assert flag == (c.hull_dim(l) == 0)
                assert flag == (oracle.hull_dim(c, l, cap) == 0)
            codes += 1
    elapsed = time.monotonic() - start
    assert codes >= 200
    assert elapsed < 60.0
    _report(3, f"LCD flag, hull dimension and brute-force hull agree on {codes} codes ({elapsed:.1f}s)")


def test_criterion_4_minor_determinant_identity():
    rng = random.Random(104)
    instances = 0
    for q in (4, 5, 9):
        field = make_field(q)
        for trial in range(40):
            m = rng.randint(1, 5)
            if trial % 2 == 0:
                rows = [[rng.randrange(field.q) for _ in range(m)] for _ in range(m)]
            else:
                # rank-deficient products make larger deletion sets likely
                r = rng.randint(0, m - 1)
                a = Matrix.from_rows(field, [[rng.randrange(field.q) for _ in range(r)] for _ in range(m)], ncols=r)
                b = Matrix.from_rows(field, [[rng.randrange(field.q) for _ in range(m)] for _ in range(r)], ncols=m)
                rows = matmul(a, b).to_rows()
            p = Matrix.from_rows(field, rows, ncols=m)
            cert = minor_search(p)
            b_vec = [0] * m
            for j in cert.r_set:
                b_vec[j] = rng.randint(1, field.q - 1)
            assert lemma_det_check(p, b_vec, cert)
            instances += 1
    assert instances >= 100
    _report(4, f"det(P + diag(b)) = prod(b) * det(P_S) on {instances} random instances")


def test_criterion_5_construction_end_to_end():
    start = time.monotonic()
    dist_cap = 100_000
    runs = []
    for q, mode, l in ((5, "euclid", 0), (9, "galois", 1)):
        rng = random.Random(1050 + q)
        field = make_field(q)
        done = 0
        while done < 100:
            n = rng.randint(2, 5)
            rc = random_rcode(rng, field, n, 2)
            if rc.is_lcd(l):
                continue
            alpha, out, cert = ring_lcd_equivalent(rc, l)
            assert all(a.is_unit for a in alpha)
            assert out == rc.scale(alpha)
            assert out.is_lcd(l)
            assert out.n == rc.n and out.k == rc.k
            din = min(
                oracle.min_distance(c, dist_cap) for c in rc.comps if c.k > 0
            )
            dout = min(
                oracle.min_distance(c, dist_cap) for c in out.comps if c.k > 0
            )
            assert din == dout
            done += 1
        runs.append((q, mode, done))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        5,
        "equivalent LCD codes preserve [n, k, d] on "
        + ", ".join(f"{d} codes (q={q}, {m})" for q, m, d in runs)
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_6_negative_gate():
    """The twists where every unit a has a^(p^(e-l)+1) = 1 refuse: GF(4) at l = 1, GF(2)/GF(3) at l = 0."""
    f4 = make_field(4)
    rc4 = RCode.from_components([FqCode.from_rows(f4, 2, [[1, 2]])] * 4)
    with pytest.raises(FieldTooSmallError):
        ring_lcd_equivalent(rc4, 1)
    with pytest.raises(FieldTooSmallError):
        galois_lcd_scaling(FqCode.from_rows(f4, 2, [[1, 2]]), 1)
    for p in (2, 3):
        field = GF(p)
        rc = RCode.from_components([FqCode.from_rows(field, 2, [[1, 1]])] * 4)
        with pytest.raises(FieldTooSmallError):
            ring_lcd_equivalent(rc)
        with pytest.raises(FieldTooSmallError):
            euclid_lcd_scaling(FqCode.from_rows(field, 2, [[1, 1]]))
    _report(6, "GF(4) twist 1 and GF(2)/GF(3) at twist 0 refuse with FieldTooSmall")


def test_criterion_7_mds_equivalences():
    families = 0
    for q in (5, 9):
        field = make_field(q)
        for n in range(2, 7):
            repetition = FqCode.from_rows(field, n, [[1] * n])
            parity = repetition.galois_dual(0)
            assert (parity.n, parity.k) == (n, n - 1)
            for comp in (repetition, parity):
                rc = RCode.from_components([comp] * 4)
                flags = [rc.is_mds()]
                for l in range(field.e):
                    flags.append(rc.galois_dual(l).is_mds())
                assert all(flags)
                families += 1
    # mixed parameters break the Singleton equality, on both sides of duality
    f5 = make_field(5)
    rep3 = FqCode.from_rows(f5, 3, [[1, 1, 1]])
    par3 = rep3.galois_dual(0)
    mixed = RCode.from_components([par3, rep3, rep3, rep3])
    assert not mixed.is_mds()
    assert not mixed.galois_dual(0).is_mds()
    _report(7, f"MDS passes to Euclidean and twisted duals on {families} families; mixed counterexample rejected")


def test_criterion_8_cardinality_identity(dual_instances):
    checks = 0
    for rc in dual_instances:
        for l in range(rc.field.e):
            dual = rc.galois_dual(l)
            assert rc.k + dual.k == 4 * rc.n
            checks += 1
    _report(8, f"|C| * |dual| = q^(4n) on {checks} (code, l) pairs")


def test_criterion_9_gray_transfer(dual_instances):
    for rc in dual_instances:
        image = rc.gray_image()
        for l in range(rc.field.e):
            assert rc.is_lcd(l) == image.is_lcd(l)
            assert rc.galois_dual(l).gray_image() == image.galois_dual(l)
    _report(9, f"LCD transfers through the expansion and duals commute with it on {len(dual_instances)} codes")


def test_criterion_10_worked_micro_examples():
    f5 = GF(5)
    c5 = FqCode.from_rows(f5, 2, [[1, 2]])
    assert c5.hull_dim(0) == 1
    alpha5, out5, cert5 = euclid_lcd_scaling(c5)
    assert alpha5 == (2, 1)
    assert cert5.minor == MinorCertificate(0, (0,), 1)
    assert cert5.gram_det == 3
    assert out5 == FqCode.from_rows(f5, 2, [[1, 1]])

    f9 = GF(3, 2, [1, 0, 1])
    c9 = FqCode.from_rows(f9, 2, [[1, 4]])  # second coordinate is x + 1
    assert c9.lcd_status(1) == (False, 0)
    alpha9, out9, cert9 = galois_lcd_scaling(c9, 1)
    assert alpha9 == (4, 1)
    assert cert9.beta == 2
    assert cert9.gram_det == 1
    assert out9.is_lcd(1)
    _report(10, "GF(5) and GF(9) pipelines reproduce hull 1, alpha (2,1), gram 3 and gram 0, alpha (x+1,1), gram 1")
