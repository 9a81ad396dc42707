"""Scaling constructions that turn any code into an equivalent LCD code.

There is one construction, with one parameter, the twist l; the
Euclidean case is l = 0.  Its engine is a determinant identity: if every
minor of a square matrix P obtained by deleting up to t matching rows
and columns vanishes, then for any perturbation b supported on at most
t+1 diagonal positions,

    det(P + diag(b)) = (prod of the b_j) * det(P with support deleted).

The first nonvanishing deletion minor, by size and then lexicographically,
comes from one greedy row basis of P:

* every principal minor of order above rank P vanishes, so no deletion
  set smaller than k - rank P works;
* if P[K, K] is nonsingular and |K| = rank P, the rows K of P are
  independent, so K is a row basis;
* scanning rows from k - 1 down to 0 and keeping each row independent of
  those kept picks the basis whose complement is the lexicographically
  first complement of any row basis (the matroid greedy property).

So if P[K, K] is nonsingular for that greedy K, its complement is the
answer, at the cost of one elimination and one determinant.  For a
Hermitian twist, 2(e - l) = 0 mod e (l = 0 or l = e/2), P^T = F^m(P), so
column j of P is the conjugate of row j, the columns K span the column
space as well, and P[K, K] is always nonsingular, so the deletion set
has the size k - rank P of the hull.  Only other twists can leave it
singular; then an exhaustive scan takes over from size k - rank P, and
the set it finds can be larger than the hull (P = [[0, 0], [x, 0]] has
hull 1 and needs both rows deleted).  Placing suitable column scalings
on the deletion positions makes the twisted Gram determinant of the
scaled generator equal a product of nonzero factors, hence nonzero,
which is exactly the complementary-dual criterion.  Scaling by nonzero
constants is a monomial equivalence, so length, dimension and distance
are untouched.

The twist is any 0 <= l < e.  With m = e - l (F^e is the identity), pivot
column j of the RREF generator G is the unit vector e_j, so scaling it by
a adds a^(p^m + 1) - 1 to diagonal entry j of the twisted Gram matrix
P = G F^m(G)^T, the one every hull predicate reads.  Positions off the
deletion set keep factor 1; positions on it draw from the units outside
the subgroup of (p^m + 1)-th roots of unity.  A factor exists exactly when
that subgroup is proper, that is when q - 1 does not divide p^m + 1: at
l = 0 when q > 3, and at 0 < l < e unless q = 4, since q - 1 <= p^m + 1
forces p^(e-1)(p - 1) <= 2.  The paper's condition, p^m + 1 | q - 1 with
beta = (q - 1) / (p^m + 1) > 1, is the case where the subgroup is the
beta-th powers.  The rule is sharp: if every unit has a^(p^m + 1) = 1,
every permutation and column scaling leaves P unchanged, so the hull
dimension k - rank P is a monomial invariant.

The scaled code's memoized Gram matrix P_out gives that determinant
without a second Gram product: G diag(alpha) = D G_out, D = diag(alpha at
the pivot columns), so with Gram_m(X) = X F^m(X)^T and b_j + 1 =
alpha_j^(p^m + 1), det Gram_m(G diag(alpha)) = det P_out * prod_j (b_j + 1).
Scaling over R acts slot by slot, so the ring code is assembled from the
component codes the field construction has already checked.

Everything is deterministic: the deletion set is the lexicographically
first one of its size, and factors default to the smallest valid
encoding; a seed switches the factor choice to a reproducible random
draw.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Sequence

from .errors import (
    CapExceededError,
    ConsistencyError,
    FieldTooSmallError,
    NotSquareError,
    SupportMismatchError,
    ZeroCodeError,
)
from .fqcode import FqCode
from .gf import GF
from .linalg import Matrix, minor_det
from .rcode import RCode
from .ring import RingElement

DEFAULT_DIM_CAP = 20


class MinorCertificate(NamedTuple):
    """First nonvanishing minor of a square matrix, by deletion size.

    ``t`` is the largest size at which every deletion minor vanishes, so
    ``t == -1`` means the matrix itself is nonsingular.  ``r_set`` is the
    lexicographically first deletion set of size t+1 with nonzero minor,
    and ``det`` is that minor's value.
    """

    t: int
    r_set: tuple[int, ...]
    det: int


class FieldScalingCertificate(NamedTuple):
    """Replayable record of one field-level LCD scaling.

    ``perm`` lists the RREF generator's pivot columns, then the remaining
    columns in ascending order.  A deletion index j in ``minor.r_set``
    names row j of P, and its factor lands on column perm[j].
    ``gram_det`` is det Gram_m(G diag(alpha)) = det P_out * prod_j (b_j + 1)
    (see the module docstring), which must equal ``minor.det`` * prod_j b_j.
    """

    l: int
    beta: int | None
    perm: tuple[int, ...]
    minor: MinorCertificate
    alpha: tuple[int, ...]
    gram_det: int


class RingScalingCertificate(NamedTuple):
    """The twist, beta, and one record per component (None if already LCD)."""

    l: int
    beta: int | None
    components: tuple[FieldScalingCertificate | None, ...]


def minor_search(p: Matrix) -> MinorCertificate:
    """The first deletion set with a nonzero minor, by size, then lexicographically.

    The complement of P's greedy row basis K, rows scanned from k - 1 down
    to 0, is tried first; a nonsingular P[K, K] makes it exactly that set
    (see the module docstring), and for the Gram matrix of a Hermitian
    twist it always is, at O(k^3) cost.  A singular P[K, K] falls back to
    the exhaustive scan from size k - rank P, refused above
    ``DEFAULT_DIM_CAP`` rows.  The scan stops below size m: deleting
    every row leaves the empty matrix, whose determinant is 1.
    """
    if not p.is_square:
        raise NotSquareError("minor search needs a square matrix")
    m = p.nrows
    # entry (c, j) of these rows is P[m - 1 - j][c]: column j is row m - 1 - j
    # of P, so the pivot columns pick the greedy row basis from the last row up
    pivots, _ = p.field._gauss([list(col) for col in zip(*reversed(p.rows))])
    basis = {m - 1 - j for j in pivots}
    drop = tuple(i for i in range(m) if i not in basis)
    d = minor_det(p, drop)
    if d != 0:
        return MinorCertificate(len(drop) - 1, drop, d)
    if m > DEFAULT_DIM_CAP:
        raise CapExceededError(f"matrix size {m} exceeds the search cap of {DEFAULT_DIM_CAP}")
    for w in range(m - len(pivots), m):
        for drop in itertools.combinations(range(m), w):
            d = minor_det(p, drop)
            if d != 0:
                return MinorCertificate(w - 1, drop, d)
    return MinorCertificate(m - 1, tuple(range(m)), 1)


def lemma_det_check(p: Matrix, b: Sequence[int], cert: MinorCertificate) -> bool:
    """Verify det(p + diag(b)) against the certified minor identity.

    ``b`` must hold field encodings supported exactly on the certificate's
    deletion set.
    """
    if not p.is_square or len(b) != p.nrows:
        raise NotSquareError("perturbation must match a square matrix")
    f = p.field
    b = f.check_row(b)
    support = tuple(j for j, v in enumerate(b) if v)
    if set(support) != set(cert.r_set):
        raise SupportMismatchError(
            f"support {support} differs from certified set {cert.r_set}"
        )
    rows = p.to_rows()
    for j, row in enumerate(rows):
        row[j] = f.add(row[j], b[j])
    lhs = f._gauss(rows)[1]
    rhs = cert.det
    for j in support:
        rhs = f.mul(rhs, b[j])
    return lhs == rhs


def _beta(field: GF, l: int) -> int | None:
    """beta of the twist 0 <= l < e, or None off the paper's condition.

    Scaling needs a unit a with a^(p^(e-l) + 1) != 1, which exists exactly
    when q - 1 does not divide p^(e-l) + 1; otherwise FieldTooSmallError.
    beta = (q - 1) / (p^(e-l) + 1) where that division is exact (the
    paper's condition), else None.
    """
    base = field._gram_power(l)[1]
    if base % (field.q - 1) == 0:
        raise FieldTooSmallError(
            f"q - 1 = {field.q - 1} divides p^(e-l) + 1 = {base}: at l = {l} "
            f"every unit a of GF({field.q}) has a^{base} = 1, nothing to scale by"
        )
    return (field.q - 1) // base if (field.q - 1) % base == 0 else None


def _roots_of_unity(field: GF, b_exp: int) -> list[int]:
    """The b_exp-th roots of unity, ascending: the d = gcd(b_exp, q - 1) values x^((q - 1) / d)."""
    d = math.gcd(b_exp, field.q - 1)
    roots: set[int] = set()
    for x in field.units():
        roots.add(field.pow(x, (field.q - 1) // d))
        if len(roots) == d:
            break
    return sorted(roots)


def _factor(roots: Sequence[int], i: int) -> int:
    """The unit at index i, in encoding order, among the units outside ``roots`` (ascending).

    No list of the units is built: unit i + 1 moves one further for each
    root at or below it.
    """
    a = i + 1
    for r in roots:
        if r > a:
            break
        a += 1
    return a


def galois_lcd_scaling(
    code: FqCode, l: int, seed: int | None = None
) -> tuple[tuple[int, ...], FqCode, FieldScalingCertificate]:
    """A nonzero column scaling making the code LCD for the twist l.

    Perturbation entries are a_j^(p^(e-l)+1) - 1, which vanish exactly on
    the (p^(e-l)+1)-th roots of unity; factors are drawn from the other
    units.  l = 0 is the Euclidean twist.
    """
    f = code.field
    beta = _beta(f, l)
    if code.k == 0:
        raise ZeroCodeError("nothing to scale in the zero code")
    b_exp = f._gram_power(l)[1]
    # code.rows is the RREF generator: column pivots[j] is the unit vector e_j
    pivots = code.pivots
    # the memo's P, built and checked once for the public minor_search and lemma_det_check
    p = Matrix(f, code.k, code._gram(l))
    cert = minor_search(p)
    alpha = [1] * code.n
    if cert.t >= 0:
        roots = _roots_of_unity(f, b_exp)
        rng = random.Random(seed) if seed is not None else None
        for j in cert.r_set:
            # the smallest factor, or the one rng.choice would draw from the list of all of them
            i = rng.randrange(f.q - 1 - len(roots)) if rng is not None else 0
            alpha[pivots[j]] = _factor(roots, i)
    b = [f.sub(f.pow(alpha[c], b_exp), 1) for c in pivots]
    if not lemma_det_check(p, b, cert):
        raise ConsistencyError("minor determinant identity failed")
    out = code.scale(alpha)
    # det Gram_m(G diag(alpha)) = det P_out * prod (b_j + 1): see the module docstring
    gram_det = out.lcd_status(l)[1]
    expected = cert.det
    for j in cert.r_set:
        gram_det = f.mul(gram_det, f.add(b[j], 1))
        expected = f.mul(expected, b[j])
    if gram_det != expected or gram_det == 0:
        raise ConsistencyError(
            f"scaled Gram determinant {gram_det} does not match certificate {expected}"
        )
    if not out.is_lcd(l):
        raise ConsistencyError("scaled code failed the complementary-dual check")
    fc = FieldScalingCertificate(
        l=l,
        beta=beta,
        perm=pivots + code._free_columns(),
        minor=cert,
        alpha=tuple(alpha),
        gram_det=gram_det,
    )
    return tuple(alpha), out, fc


def euclid_lcd_scaling(
    code: FqCode, seed: int | None = None
) -> tuple[tuple[int, ...], FqCode, FieldScalingCertificate]:
    """A nonzero column scaling making the code Euclidean LCD.

    Needs q > 3 so that units other than 1 and -1 exist.  Parameters
    [n, k, d] are preserved; an already-LCD code comes back unchanged
    with the all-ones scaling.
    """
    return galois_lcd_scaling(code, 0, seed)


def ring_lcd_equivalent(
    code: RCode, l: int = 0, seed: int | None = None
) -> tuple[tuple[RingElement, ...], RCode, RingScalingCertificate]:
    """An equivalent code over R that is LCD for the twist l, built componentwise.

    Components that are already LCD keep the identity scaling; the rest
    go through the field-level construction.  The result, equal to
    ``code.scale(alpha)``, is the ring code of the four resulting
    components, and the per-coordinate unit is assembled from the four
    slot factors, so it has the same length, dimension and Lee distance
    as the input.
    """
    f = code.field
    beta = _beta(f, l)

    # the P each is_lcd builds is memoized on comp, so galois_lcd_scaling reuses it
    slot_alphas, comps, certs = zip(*(
        ((1,) * code.n, comp, None) if comp.is_lcd(l)
        else galois_lcd_scaling(comp, l, seed)
        for comp in code.comps
    ))
    alpha = tuple(RingElement(f, g) for g in zip(*slot_alphas))
    out = RCode(comps)
    if not out.is_lcd(l):
        raise ConsistencyError("assembled scaling failed the complementary-dual check")
    return alpha, out, RingScalingCertificate(l, beta, certs)
