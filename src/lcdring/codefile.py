"""The on-disk code format.

A ring code is a JSON document:

    {
      "kind": "ring",                       // optional, default "ring"
      "field": {"p": 5, "e": 1, "modulus": [0, 1]},   // modulus optional
      "n": 2,
      "basis": "gamma",                     // or "u"; default "gamma"
      "components": [rows, rows, rows, rows]
      // or instead:
      "generators": [[[r1,r2,r3,r4], ...n entries], ...]
    }

Exactly one of "components"/"generators" must be present.  All field
elements are canonical integer encodings.  "basis" applies to the
generators representation: with "u" every 4-tuple is read as coefficients
of (1, u, v, uv) and converted on load; components are always the four
idempotent-slot codes, so they require the "gamma" basis.

The expanded image of a ring code is written as a field code:

    {"kind": "field", "field": {...}, "n": 8, "rows": [[...], ...]}
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError
from .fqcode import FqCode
from .gf import GF, MAX_FIELD_ORDER
from .rcode import RCode
from .ring import RingElement

FORMAT_VERSION = 1

# Largest code length a file may declare, checked before any matrix is
# built: the zero code's dual at this length is four n-by-n identities.
# It also bounds the rows of each component, and 4 * MAX_LENGTH bounds the
# generator rows (a full code written as generators has 4n), since parse
# time grows with the number of rows.
MAX_LENGTH = 512


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_int(v: Any) -> bool:
    """A JSON integer; ``true``/``false`` parse to bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


def _load_field(doc: dict[str, Any]) -> GF:
    spec = doc.get("field")
    _require(isinstance(spec, dict), "missing or malformed 'field' object")
    _require("p" in spec, "'field' needs a prime 'p'")
    p = spec["p"]
    e = spec.get("e", 1)
    modulus = spec.get("modulus")
    _require(_is_int(p) and _is_int(e), "'p' and 'e' must be integers")
    # bound q = p^e before any primality or irreducibility work, one
    # factor at a time so a huge e is never used as an exponent
    _require(2 <= p <= MAX_FIELD_ORDER, f"'p' must lie in [2, {MAX_FIELD_ORDER}], got {p}")
    _require(e >= 1, f"'e' must be a positive integer, got {e}")
    q = 1
    for _ in range(e):
        q *= p
        _require(q <= MAX_FIELD_ORDER, f"field order {p}^{e} exceeds {MAX_FIELD_ORDER}")
    if modulus is not None:
        _require(isinstance(modulus, list) and all(_is_int(c) for c in modulus),
                 "'modulus' must be a list of integers")
    return GF(p, e, modulus)


def _check_int_rows(field: GF, rows: Any, n: int, what: str) -> list[list[int]]:
    _require(isinstance(rows, list), f"{what} must be a list of rows")
    _require(len(rows) <= MAX_LENGTH, f"{what} has {len(rows)} rows, more than {MAX_LENGTH}")
    out = []
    for r, row in enumerate(rows):
        _require(isinstance(row, list), f"{what} row {r} is not a list")
        _require(len(row) == n, f"{what} row {r} has width {len(row)}, expected {n}")
        for v in row:
            _require(_is_int(v) and 0 <= v < field.q,
                     f"{what} row {r} entry {v!r} is not an encoding in [0, {field.q})")
        out.append(list(row))
    return out


def parse_code(text: str) -> RCode:
    """Parse and validate a ring-code document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    kind = doc.get("kind", "ring")
    _require(kind == "ring", f"expected a ring-code document, got kind={kind!r}")
    field = _load_field(doc)
    n = doc.get("n")
    _require(_is_int(n) and n >= 1, "'n' must be a positive integer")
    _require(n <= MAX_LENGTH, f"'n' must be at most {MAX_LENGTH}, got {n}")
    basis = doc.get("basis", "gamma")
    _require(basis in ("gamma", "u"), f"unknown basis {basis!r}")
    has_comp = "components" in doc
    has_gen = "generators" in doc
    _require(has_comp != has_gen,
             "exactly one of 'components' and 'generators' must be present")
    if has_comp:
        _require(basis == "gamma", "component matrices are only meaningful in the gamma basis")
        comps = doc["components"]
        _require(isinstance(comps, list) and len(comps) == 4,
                 "'components' must list exactly four generator matrices")
        rows = [_check_int_rows(field, comp, n, f"component {i + 1}") for i, comp in enumerate(comps)]
        return RCode.from_components([FqCode.from_rows(field, n, r) for r in rows])
    gens = doc["generators"]
    _require(isinstance(gens, list), "'generators' must be a list of rows")
    _require(len(gens) <= 4 * MAX_LENGTH,
             f"'generators' has {len(gens)} rows, more than {4 * MAX_LENGTH}")
    rows = []
    for r, row in enumerate(gens):
        _require(isinstance(row, list) and len(row) == n,
                 f"generator row {r} must list {n} ring elements")
        entries = []
        for j, quad in enumerate(row):
            _require(isinstance(quad, list) and len(quad) == 4,
                     f"generator row {r} entry {j} must be a 4-list")
            for v in quad:
                _require(_is_int(v) and 0 <= v < field.q,
                         f"generator row {r} entry {j} holds {v!r}, not an encoding")
            if basis == "u":
                entries.append(RingElement.from_u(field, quad))
            else:
                entries.append(RingElement(field, tuple(quad)))
        rows.append(entries)
    return RCode.from_generators(field, n, rows)


def field_document(field: GF) -> dict[str, Any]:
    """The "field" entry of every document: p, e and the modulus coefficients."""
    return {"p": field.p, "e": field.e, "modulus": list(field.modulus)}


def code_document(
    code: RCode, representation: str = "components", basis: str = "gamma"
) -> dict[str, Any]:
    """Serialize a ring code back into the document shape."""
    if representation not in ("components", "generators"):
        raise ValueError(f"unknown representation {representation!r}")
    if basis not in ("gamma", "u"):
        raise ValueError(f"unknown basis {basis!r}")
    doc: dict[str, Any] = {
        "kind": "ring",
        "field": field_document(code.field),
        "n": code.n,
        "basis": basis,
    }
    if representation == "components":
        if basis != "gamma":
            raise ValueError("component matrices are only meaningful in the gamma basis")
        doc["components"] = [c.gen.to_rows() for c in code.comps]
    else:
        rows = []
        for row in code.generator_rows():
            if basis == "u":
                rows.append([list(x.to_u()) for x in row])
            else:
                rows.append([list(x.g) for x in row])
        doc["generators"] = rows
    return doc


def field_code_document(code: FqCode) -> dict[str, Any]:
    return {
        "kind": "field",
        "field": field_document(code.field),
        "n": code.n,
        "rows": code.gen.to_rows(),
    }


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"
