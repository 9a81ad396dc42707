"""Seeded inputs, job lists and output checks for the benchmark's workloads.

Every input is a ring code over R = F_q + uF_q + vF_q + uvF_q written as
four GF(q) component generator matrices.  The shape of each job (field,
length, component dimensions, planted hull dimension, early-exit row) is
fixed by the templates below, so the amount of work per job does not
depend on the seed; the seed draws the matrix entries, column
permutations and scalings.  Expected outputs come from ``ref``, which
shares no code with lcdring.

Why each workload exists:

* analyze-ext: extension-field arithmetic, Gauss elimination and the
  hull/LCD predicates.  Every nonzero component has q^k above the
  enumeration cap, so ``min_dist`` returns early and enumeration is
  bypassed.  Fields sit on both sides of lcdring's q <= 256 table limit.
* mindist-enum: codeword enumeration in ``FqCode.min_dist`` does nearly
  all the work.  Some components hold a weight-1 row at a fixed message
  index, so enumeration stops after exactly q^r words.
* construct-hull: ``minor_search`` behind ``construct-lcd``.  Components
  carry a planted hull of dimension h, which fixes the deletion sets the
  search scans; components with h = k have a zero Gram matrix and scan
  all 2^k sets.
* verify-oracle: the brute-force oracles on codes small enough that the
  definitional pairing check (q^(4n) pairs) fits the default budget.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import ref
from ref import Field, Rows

WORKLOADS = ("analyze-ext", "mindist-enum", "construct-hull", "verify-oracle")

ENUM_CAP = 1_000_000  # lcdring's default --max-enum

# Every job list has an odd length.  A run makes three passes, so the
# median job and the tail job (ten jobs beyond it) each land on the middle
# copy of one job, rather than between two jobs of different cost.

# analyze-ext codes: (p, e, n, components), a component being (k, h, l0):
# h rows of a self-orthogonal block for twist l0 direct-summed with an LCD
# part, or h = None for k random rows.
ANALYZE_CODES = {
    "a81": (3, 4, 32, [(16, None, 0), (16, 6, 0), (16, None, 0), (16, 4, 2)]),
    "a64": (2, 6, 28, [(14, None, 0), (14, 6, 3), (14, None, 0), (14, None, 0)]),
    "a243s": (3, 5, 12, [(6, None, 0), (6, 2, 0), (6, None, 0), (6, None, 0)]),
    "a243": (3, 5, 20, [(10, None, 0), (10, 3, 0), (10, None, 0), (10, None, 0)]),
    "a256s": (2, 8, 12, [(6, None, 0), (6, 2, 4), (6, None, 0), (6, None, 0)]),
    "a256": (2, 8, 20, [(10, None, 0), (10, 3, 4), (10, None, 0), (10, None, 0)]),
    "a289": (17, 2, 16, [(8, None, 0), (8, 3, 0), (8, None, 0), (8, 2, 1)]),
    "a529": (23, 2, 14, [(7, 2, 0), (7, None, 0), (7, None, 0), (7, 3, 1)]),
    "a625": (5, 4, 10, [(5, None, 0), (5, 2, 1), (5, None, 0), (5, None, 0)]),
}
# (kind, code, twist) for analyze / dual / gray jobs over those codes.  By
# cost: four small jobs, three analyze jobs of about equal cost where the
# median falls, then a GF(3^5) job whose cost is mostly the fixed table
# build, where the tail falls, clearly apart from its neighbours.
ANALYZE_JOBS = [
    ("analyze", "a81", None),
    ("dual", "a289", 1),
    ("analyze", "a256", None),
    ("analyze", "a625", None),
    ("gray", "a289", None),
    ("analyze", "a243s", None),
    ("analyze", "a64", None),
    ("dual", "a625", 2),
    ("analyze", "a243", None),
    ("analyze", "a529", None),
    ("analyze", "a256s", None),
]

# mindist-enum codes: (p, e, n, components), a component being (k, r):
# systematic [I | A] with random A, and when r is not None row r of A is
# zero, so enumeration meets a weight-1 word at message q^r and stops.
# Every code enumerates 4.7e4 to 6.7e4 words in all, so the jobs cost about
# the same and neither the median nor the tail sits between two clusters.
MINDIST_CODES = [
    (5, 1, 10, [(6, None), (7, 4), (6, None), (6, None)]),
    (7, 1, 12, [(5, None), (5, None), (5, None), (5, None)]),
    (5, 1, 14, [(7, 5), (6, None), (6, None), (6, None)]),
    (2, 2, 10, [(7, None), (7, None), (7, None), (7, None)]),
    (7, 1, 12, [(6, 4), (5, None), (5, None), (5, None)]),
    (5, 1, 16, [(8, 6), (6, None), (6, 2), (6, None)]),
    (2, 3, 10, [(5, None), (5, None), (5, 3), (6, 2)]),
    (5, 1, 12, [(6, None), (6, None), (7, 4), (6, None)]),
    (7, 1, 10, [(5, None), (6, 3), (5, None), (5, None)]),
]

# construct-hull codes: (mode, l, p, e, n, components), a component being
# (k, h) with a hull of dimension exactly h for the requested twist.  By
# cost: three small jobs, five with a zero Gram matrix of size 13 (2^13
# deletion sets) where the median falls, four of size 14 where the tail
# falls, and one of size 15.  The median and the tail each sit inside a
# cluster of jobs of about equal cost, so neither rests on one job's copies.
CONSTRUCT_CODES = [
    ("euclid", 0, 5, 1, 30, [(15, 15), (10, 2), (9, 0), (10, 1)]),
    ("euclid", 0, 7, 1, 30, [(10, 4), (9, 0), (12, 3), (8, 8)]),
    ("galois", 2, 2, 4, 28, [(13, 13), (8, 0), (10, 2), (6, 6)]),
    ("euclid", 0, 3, 2, 32, [(14, 14), (9, 0), (10, 2), (8, 3)]),
    ("galois", 1, 5, 2, 36, [(17, 1), (13, 13), (5, 0), (9, 1)]),
    ("euclid", 0, 5, 1, 32, [(14, 14), (10, 0), (9, 1), (10, 2)]),
    ("galois", 1, 3, 2, 30, [(13, 13), (7, 0), (9, 2), (7, 7)]),
    ("galois", 2, 2, 4, 34, [(14, 14), (9, 0), (8, 2), (5, 5)]),
    ("euclid", 0, 5, 1, 36, [(17, 1), (13, 13), (9, 9), (9, 0)]),
    ("galois", 1, 3, 2, 32, [(14, 14), (8, 1), (7, 0), (9, 9)]),
    ("galois", 1, 5, 2, 30, [(11, 11), (6, 0), (8, 3), (5, 5)]),
    ("euclid", 0, 3, 2, 36, [(13, 13), (9, 0), (12, 1), (8, 8)]),
    ("euclid", 0, 7, 1, 36, [(11, 11), (9, 0), (8, 2), (10, 3)]),
]

# verify-oracle codes: (p, e, n, components), a component being (k, h)
# with h the dimension of its Euclidean hull; q^(4n) <= 10^6.  Every entry
# is nonzero and h is fixed, so the oracles' zero skips and early exits
# take the same path on every seed.  By cost: five GF(9) codes of length 1,
# six GF(4) codes of length 2 and one shape, where both the median and the
# tail fall, and two GF(5) codes of length 2.
_GF4_N2 = (2, 2, 2, [(1, 1), (1, 0), (1, 0), (1, 1)])
VERIFY_CODES = [
    (5, 1, 2, [(1, 1), (1, 0), (1, 1), (1, 0)]),
    _GF4_N2,
    (3, 2, 1, [(1, 0), (0, 0), (1, 0), (1, 0)]),
    _GF4_N2,
    (3, 2, 1, [(1, 0), (1, 0), (0, 0), (1, 0)]),
    _GF4_N2,
    (3, 2, 1, [(1, 0), (1, 0), (1, 0), (1, 0)]),
    _GF4_N2,
    (5, 1, 2, [(1, 0), (1, 0), (1, 1), (1, 1)]),
    (3, 2, 1, [(1, 0), (1, 0), (1, 0), (1, 0)]),
    _GF4_N2,
    (3, 2, 1, [(0, 0), (1, 0), (1, 0), (1, 0)]),
    _GF4_N2,
]


@dataclass
class Job:
    """One CLI call: its arguments and a check of what it printed and wrote."""

    name: str
    argv: list[str]
    # check(exit code, stdout, work dir) -> None when correct, else a reason
    check: Callable[[int, str, str], Optional[str]]
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    files: dict[str, str]
    jobs: list[Job]


# ---------------------------------------------------------------------------
# Planted structure.
# ---------------------------------------------------------------------------


class _Planter:
    """Self-orthogonal blocks and norm-1 scalings for one (field, m)."""

    def __init__(self, f: Field, m: int):
        self.f, self.m = f, m
        norms = [f.norm(x, m) for x in range(f.q)]
        self.norm1 = [x for x in range(1, f.q) if norms[x] == 1]
        target = f.minus_one
        self.singles = [x for x in range(1, f.q) if norms[x] == target]
        self.by_norm: dict[int, list[int]] = {}
        for x in range(1, f.q):
            self.by_norm.setdefault(norms[x], []).append(x)
        self.norms = norms
        self.width = 1 if self.singles else 2

    def block_vector(self, rng: random.Random) -> list[int]:
        """v with sum v_i * v_i^(p^m) = -1, so [1 | v] pairs to zero with itself."""
        if self.singles:
            return [rng.choice(self.singles)]
        f = self.f
        for _ in range(10_000):
            x = rng.randrange(1, f.q)
            ys = self.by_norm.get(f.sub(f.minus_one, self.norms[x]))
            if ys:
                return [x, rng.choice(ys)]
        raise RuntimeError(f"no two-term norm solution in GF({f.q}) for m={self.m}")


def _random_rows(f: Field, rng: random.Random, k: int, n: int) -> Rows:
    while True:
        rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
        if ref.rank(f, rows, n) == k:
            return rows


def _planted(f: Field, rng: random.Random, n: int, k: int, h: int, m: int) -> Rows:
    """k rows spanning a code whose hull for the Gram twist m has dimension h.

    A self-orthogonal [I_h | diag(v)] block sits beside an LCD part on
    disjoint columns; a column permutation and norm-1 scalings, which keep
    every twisted Gram matrix, then hide the layout.
    """
    pl = _Planter(f, m)
    so_cols = h * (1 + pl.width)
    rest_k, rest_n = k - h, n - so_cols
    if rest_n < rest_k:
        raise ValueError(f"n={n} too short for k={k}, h={h}")
    rows = []
    for i in range(h):
        row = [0] * n
        row[i] = 1
        for j, v in enumerate(pl.block_vector(rng)):
            row[h + pl.width * i + j] = v
        rows.append(row)
    if rest_k:
        while True:
            rest = _random_rows(f, rng, rest_k, rest_n)
            if ref.det(f, ref.gram(f, rest, m)):
                break
        rows += [[0] * so_cols + r for r in rest]
    perm = rng.sample(range(n), n)
    scale = [rng.choice(pl.norm1) for _ in range(n)]
    rows = [[f.mul(row[perm[j]], scale[j]) for j in range(n)] for row in rows]
    got = k - ref.rank(f, ref.gram(f, rows, m), k)
    if got != h:
        raise RuntimeError(f"planted hull {h} came out as {got}")
    return rows


def _nonzero_rows(f: Field, rng: random.Random, n: int, k: int, h: int) -> Rows:
    """k rows with no zero entry spanning a code whose Euclidean hull has dimension h."""
    while True:
        rows = [[rng.randrange(1, f.q) for _ in range(n)] for _ in range(k)]
        if ref.rank(f, rows, n) == k and k - ref.rank(f, ref.gram(f, rows, 0), k) == h:
            return rows


def _systematic(f: Field, rng: random.Random, n: int, k: int, r: Optional[int]) -> Rows:
    """[I_k | A]; row r of A is zero when r is given, every other row is not."""
    rows = []
    for i in range(k):
        tail = [0] * (n - k)
        while i != r and not any(tail):
            tail = [rng.randrange(f.q) for _ in range(n - k)]
        rows.append([1 if j == i else 0 for j in range(k)] + tail)
    return rows


def _code_text(f: Field, n: int, comps: list[Rows]) -> str:
    return json.dumps({"field": f.field_doc(), "n": n, "components": comps}) + "\n"


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _load(work: str, name: str):
    with open(os.path.join(work, name), encoding="utf-8") as fh:
        return json.load(fh)


def _gram_facts(f: Field, red: Rows, l: int) -> tuple[int, int, bool]:
    """(determinant, hull dimension, self-orthogonal) for twist l of an RREF basis."""
    p = ref.gram(f, red, f.e - l)
    k = len(red)
    return ref.det(f, p), k - ref.rank(f, p, k), not any(any(r) for r in p)


def _analysis(f: Field, n: int, comps: list[Rows]) -> dict:
    reds = [ref.rref(f, c, n)[0] for c in comps]
    ks = [len(r) for r in reds]
    k = sum(ks)
    for r in reds:
        if r and f.q ** len(r) <= ENUM_CAP:
            raise ValueError("analyze-ext components must exceed the enumeration cap")
    preds = []
    for l in range(f.e):
        facts = [_gram_facts(f, r, l) for r in reds]
        entry = {
            "l": l,
            "lcd": all(d != 0 for d, _, _ in facts),
            "gram_dets": [d for d, _, _ in facts],
            "hull_dims": [h for _, h, _ in facts],
            "self_orthogonal": all(so for _, _, so in facts),
        }
        if l == 0:
            entry["self_dual"] = all(so and 2 * len(r) == n for (_, _, so), r in zip(facts, reds))
        preds.append(entry)
    return {
        "field": f.field_doc(),
        "n": n,
        "k": k,
        "components": [[n, kk, None] for kk in ks],
        "d_lee": None,
        "singleton_bound_x4": 4 * n - k + 4,
        "mds": None,
        "predicates": preds,
    }


def _check_analyze(expected: dict, out: str) -> Callable[[int, str, str], Optional[str]]:
    def check(rc: int, stdout: str, work: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        got = _load(work, out)
        for key, want in expected.items():
            if key == "predicates":
                have = [{k2: e.get(k2) for k2 in w} for e, w in zip(got.get(key, []), want)]
                if len(got.get(key, [])) != len(want) or have != want:
                    return "predicate table differs from the reference"
            elif got.get(key) != want:
                return f"{key}: got {got.get(key)!r}, want {want!r}"
        return None

    return check


def _check_doc(expected: dict, out: str) -> Callable[[int, str, str], Optional[str]]:
    def check(rc: int, stdout: str, work: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        got = _load(work, out)
        for key, want in expected.items():
            if got.get(key) != want:
                return f"{key} differs from the reference"
        return None

    return check


def _check_mindist(d: int) -> Callable[[int, str, str], Optional[str]]:
    def check(rc: int, stdout: str, work: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if stdout.strip() != f"lee distance: {d}":
            return f"printed {stdout.strip()!r}, reference distance {d}"
        return None

    return check


def _check_construct(
    f: Field, n: int, l: int, comps: list[Rows], out: str, report: str
) -> Callable[[int, str, str], Optional[str]]:
    """Checked by meaning, not bytes: any LCD scaling of the input is accepted."""
    reds = [ref.rref(f, c, n)[0] for c in comps]

    def check(rc: int, stdout: str, work: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        doc, rep = _load(work, out), _load(work, report)
        if doc.get("field") != f.field_doc() or doc.get("n") != n:
            return "output changed the field or the length"
        alpha = rep.get("alpha_gamma")
        if not isinstance(alpha, list) or len(alpha) != n or any(0 in a for a in alpha):
            return "report has no unit scaling vector"
        out_comps = doc.get("components")
        if not isinstance(out_comps, list) or len(out_comps) != 4:
            return "output lacks four components"
        for i, (red, got) in enumerate(zip(reds, out_comps)):
            got_red = ref.rref(f, got, n)[0] if got else []
            if len(got_red) != len(red):
                return f"component {i + 1} dimension changed"
            if ref.det(f, ref.gram(f, got_red, f.e - l)) == 0:
                return f"component {i + 1} is not LCD for l={l}"
            scaled = ref.rref(f, ref.scale_cols(f, red, [a[i] for a in alpha]), n)[0]
            if scaled != got_red:
                return f"component {i + 1} is not the input scaled by alpha"
        return None

    return check


def _check_verify(rc: int, stdout: str, work: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    if "MISMATCH" in stdout or not stdout.rstrip().endswith("all checks agree"):
        return "verify did not report agreement"
    return None


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def _analyze_ext(rng: random.Random) -> Workload:
    files, jobs = {}, []
    codes = {}
    for name, (p, e, n, spec) in ANALYZE_CODES.items():
        f = Field(p, e)
        comps = [
            _random_rows(f, rng, k, n) if h is None else _planted(f, rng, n, k, h, f.e - l0)
            for k, h, l0 in spec
        ]
        files[f"{name}.json"] = _code_text(f, n, comps)
        codes[name] = (f, n, comps, _analysis(f, n, comps))
    for i, (kind, name, l) in enumerate(ANALYZE_JOBS):
        f, n, comps, expected = codes[name]
        out = f"out-{i:02d}.json"
        singular = sum(d == 0 for pred in expected["predicates"] for d in pred["gram_dets"])
        props = {
            "q_over_256": f.q > 256,
            "dual_or_gray": kind != "analyze",
            "non_lcd_components": singular / (4 * f.e),
        }
        if kind == "analyze":
            argv = ["analyze", f"{name}.json", "--json", out]
            check = _check_analyze(expected, out)
        elif kind == "dual":
            duals = [ref.twisted_dual(f, c, n, l) for c in comps]
            argv = ["dual", f"{name}.json", "--l", str(l), "-o", out]
            check = _check_doc({"field": f.field_doc(), "n": n, "components": duals}, out)
        else:
            rows = []
            for slot, c in enumerate(comps):
                for r in ref.rref(f, c, n)[0]:
                    wide = [0] * (4 * n)
                    for j, v in enumerate(r):
                        wide[4 * j + slot] = v
                    rows.append(wide)
            image = ref.rref(f, rows, 4 * n)[0]
            argv = ["gray", f"{name}.json", "-o", out]
            check = _check_doc(
                {"kind": "field", "field": f.field_doc(), "n": 4 * n, "rows": image}, out
            )
        jobs.append(Job(f"{kind}-{name}-{i:02d}", argv, check, props))
    return Workload(files, jobs)


def _mindist_enum(rng: random.Random) -> Workload:
    files, jobs = {}, []
    for i, (p, e, n, spec) in enumerate(MINDIST_CODES):
        f = Field(p, e)
        comps = [_systematic(f, rng, n, k, r) for k, r in spec]
        early = any(r is not None for _, r in spec)
        d = 1 if early else min(ref.min_distance(f, c, n) for c in comps)
        name = f"m{i:02d}.json"
        files[name] = _code_text(f, n, comps)
        props = {"early_exit": early, "q_over_256": False}
        jobs.append(Job(f"mindist-{i:02d}", ["mindist", name], _check_mindist(d), props))
    return Workload(files, jobs)


def _construct_hull(rng: random.Random) -> Workload:
    files, jobs = {}, []
    for i, (mode, l, p, e, n, spec) in enumerate(CONSTRUCT_CODES):
        f = Field(p, e)
        comps = []
        for k, h in spec:
            if f.q**k <= ENUM_CAP:
                raise ValueError("construct-hull components must exceed the enumeration cap")
            comps.append(_planted(f, rng, n, k, h, f.e - l))
        name, out, rep = f"c{i:02d}.json", f"out-{i:02d}.json", f"rep-{i:02d}.json"
        files[name] = _code_text(f, n, comps)
        argv = ["construct-lcd", name, "--mode", mode, "-o", out, "--json", rep]
        if mode == "galois":
            argv += ["--l", str(l)]
        props = {
            "non_lcd_components": sum(1 for _, h in spec if h) / 4,
            "zero_gram_components": sum(1 for k, h in spec if h == k) / 4,
            "q_over_256": False,
        }
        check = _check_construct(f, n, l, comps, out, rep)
        jobs.append(Job(f"construct-{mode}-{i:02d}", argv, check, props))
    return Workload(files, jobs)


def _verify_oracle(rng: random.Random) -> Workload:
    files, jobs = {}, []
    for i, (p, e, n, spec) in enumerate(VERIFY_CODES):
        f = Field(p, e)
        if f.q ** (4 * n) > ENUM_CAP:
            raise ValueError("verify-oracle pairing count must fit the default budget")
        comps = [_nonzero_rows(f, rng, n, k, h) for k, h in spec]
        name = f"v{i:02d}.json"
        files[name] = _code_text(f, n, comps)
        props = {"q_over_256": False, "pairings": f.q ** (4 * n)}
        jobs.append(Job(f"verify-{i:02d}", ["verify", name], _check_verify, props))
    return Workload(files, jobs)


_BUILDERS = {
    "analyze-ext": _analyze_ext,
    "mindist-enum": _mindist_enum,
    "construct-hull": _construct_hull,
    "verify-oracle": _verify_oracle,
}


def build(workload: str, seed: int) -> Workload:
    """Input files and job list for one workload; the same seed gives the same bytes."""
    rng = random.Random(f"lcdring-perfbench/{workload}/{seed}")
    return _BUILDERS[workload](rng)


def write_files(wl: Workload, work: str) -> None:
    os.makedirs(work, exist_ok=True)
    for name, text in wl.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
