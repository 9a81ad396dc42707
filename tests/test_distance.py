"""Distances decided from the RREF rows: the weight-1/weight-2 floors, early stops and the cap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, RCode, oracle
from lcdring.errors import CapExceededError

from support import WalkSteps

FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]
RING_WORDS = 1 << 14  # the most ring words one oracle call may enumerate
F5, F7 = GF(5), GF(7)

# GF(7) Reed-Solomon [6, 3, 4]: every generator row weighs 4
RS = [[pow(a, j, 7) for a in range(1, 7)] for j in range(3)]
# GF(7) [6, 2]: rows of weight 6 whose difference weighs 2
PAIR = [[1, 0, 1, 2, 3, 4], [0, 1, 1, 2, 3, 4]]


def _rows(data, f, n, k):
    """k rows over ``f``: random, all-nonzero, or with one row of weight 1 or 2 planted."""
    nonzero = data.draw(st.sampled_from(["random", "dense", "weight1", "weight2"]))
    entries = st.integers(1 if nonzero == "dense" else 0, f.q - 1)
    rows = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    weight = {"weight1": 1, "weight2": 2}.get(nonzero, 0)
    if k and 0 < weight <= n:
        row = [0] * n
        for c in data.draw(st.lists(st.integers(0, n - 1), min_size=weight, max_size=weight, unique=True)):
            row[c] = data.draw(st.integers(1, f.q - 1))
        rows[data.draw(st.integers(0, k - 1))] = row
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_min_dist_matches_oracle_with_planted_light_rows(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 6))
    c = FqCode.from_rows(f, n, _rows(data, f, n, data.draw(st.integers(1, 3))))
    if c.k == 0:
        return
    d = c.min_dist()
    assert d == oracle.min_distance(c)
    assert (d == 1) == any(n - row.count(0) == 1 for row in c.gen.to_rows())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lee_min_dist_matches_oracle_with_planted_light_rows(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 6))
    comps, used = [], 0
    for _ in range(4):
        k_max = 0
        while k_max < 3 and f.q ** (used + k_max + 1) <= RING_WORDS:
            k_max += 1
        k = data.draw(st.integers(0, k_max))
        used += k
        comps.append(FqCode.from_rows(f, n, _rows(data, f, n, k)))
    comps = [comps[i] for i in data.draw(st.permutations(range(4)))]
    rc = RCode.from_components(comps)
    if rc.k == 0:
        return
    assert rc.lee_min_dist() == oracle.min_distance(rc)


def test_light_row_decides_without_a_walk(monkeypatch):
    steps = WalkSteps(monkeypatch)
    assert FqCode.from_rows(F7, 6, RS + [[0, 0, 0, 0, 3, 5]]).min_dist() == 2
    rc = RCode.from_components([FqCode.from_rows(F7, 6, rows) for rows in (RS, PAIR, [[0, 6, 0, 0, 1, 0]], [])])
    assert rc.lee_min_dist() == 2
    assert steps.walks == 0


def test_walk_stops_at_the_first_weight_two_word(monkeypatch):
    # row 1 - row 0 weighs 2; the walk meets it while digit 1 is the top
    # digit, before row 2's 1 + 5^2 - 1 messages, so at most 6 of 31 words
    c = FqCode.from_rows(F5, 6, [[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 2, 3], [0, 0, 1, 4, 4, 1]])
    steps = WalkSteps(monkeypatch)
    assert c.min_dist() == 2 == oracle.min_distance(c)
    assert steps.walks == 1 and steps.steps <= 6


def test_walk_without_a_weight_two_word_visits_every_projective_message(monkeypatch):
    c = FqCode.from_rows(F7, 6, RS)
    steps = WalkSteps(monkeypatch)
    assert c.min_dist() == 4 == oracle.min_distance(c)
    assert steps.steps == (7**3 - 1) // (7 - 1)


def test_lee_walks_the_cheapest_component_first_and_stops_at_two(monkeypatch):
    # both floors exceed 2; the [6, 2] component is walked first and reaches
    # 2, so the [6, 3] component is never walked
    big, small = FqCode.from_rows(F7, 6, RS), FqCode.from_rows(F7, 6, PAIR)
    rc = RCode.from_components([big, small, FqCode.zero(F7, 6), small])
    steps = WalkSteps(monkeypatch)
    assert rc.lee_min_dist() == 2
    assert steps.walks == 1 and steps.steps <= (7**2 - 1) // (7 - 1)
    assert big._dist is None
    assert RCode.from_components([big] * 4).lee_min_dist() == 4


def test_lee_cap_refuses_the_first_component_in_slot_order_unless_memoized():
    # the weight-1 row fixes d_Lee = 1, but every component's q^k still counts
    light = FqCode.from_rows(F5, 4, [[0, 1, 0, 0]])
    c125 = FqCode.from_rows(F5, 4, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    c25 = FqCode.from_rows(F5, 4, [[1, 0, 1, 1], [0, 1, 1, 2]])
    rc = RCode.from_components([light, c125, c25, FqCode.zero(F5, 4)])
    with pytest.raises(CapExceededError, match=r"^125 codewords exceed the cap of 24$"):
        rc.lee_min_dist(cap=24)
    assert c125.min_dist() == 2
    with pytest.raises(CapExceededError, match=r"^25 codewords exceed the cap of 24$"):
        rc.lee_min_dist(cap=24)
    assert c25.min_dist() == 3
    assert rc.lee_min_dist(cap=24) == 1
