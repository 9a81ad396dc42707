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

The reader checks the document's shape: JSON types and keys, the length
and row caps, row widths and the 4-lists of generator entries.  The values
are checked once, by the constructors it calls: ``GF`` for the field,
``Matrix`` for component entries and ``RingElement`` for generator
entries, both through ``GF.check_row``, whose ``ValueError`` it re-raises
as ``ParseError`` after the entry's place; ``RCode.from_generators`` does
not check the generators' slot rows again.  All four component matrices
are built, so every entry is checked, before any is reduced.  The writer
emits the one form the CLI needs: components, in the gamma basis.

``dumps`` writes every document the CLI writes, byte for byte as
``json.dumps(doc, indent=2)`` plus a newline.  With an indent, json's
encoder runs in Python, one call per matrix entry; ``dumps`` joins each
list of plain ints in C with ``int.__repr__`` and leaves strings, floats,
bools and None to json's C encoder.

The expanded image of a ring code is written as a field code:

    {"kind": "field", "field": {...}, "n": 8, "rows": [[...], ...]}
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError
from .fqcode import FqCode
from .gf import GF
from .linalg import Matrix
from .rcode import RCode
from .ring import SLOTS, RingElement

FORMAT_VERSION = 1

# Largest code length a file may declare, checked before any matrix is
# built: the zero code's dual at this length is four n-by-n identities.
# It also bounds the rows of each component, and SLOTS * MAX_LENGTH the
# generator rows (a full code written as generators has 4n), since parse
# time grows with the number of rows.
MAX_LENGTH = 512


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _load_field(doc: dict[str, Any]) -> GF:
    spec = doc.get("field")
    _require(isinstance(spec, dict), "missing or malformed 'field' object")
    _require("p" in spec, "'field' needs a prime 'p'")
    modulus = spec.get("modulus")
    _require(modulus is None or isinstance(modulus, list), "'modulus' must be a list of integers")
    # GF refuses non-integers and bounds q = p^e before any primality or
    # irreducibility work
    try:
        return GF(spec["p"], spec.get("e", 1), modulus)
    except ValueError as exc:
        raise ParseError(f"bad 'field': {exc}") from exc


def _check_rows(rows: Any, n: int, what: str) -> None:
    _require(isinstance(rows, list), f"{what} must be a list of rows")
    _require(len(rows) <= MAX_LENGTH, f"{what} has {len(rows)} rows, more than {MAX_LENGTH}")
    # per-row messages are formatted only for a row that fails
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{what} row {r} is not a list")
        if len(row) != n:
            raise ParseError(f"{what} row {r} has width {len(row)}, expected {n}")


def parse_code(text: str) -> RCode:
    """Parse a ring-code document; its values are checked as the code is built."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    kind = doc.get("kind", "ring")
    _require(kind == "ring", f"expected a ring-code document, got kind={kind!r}")
    field = _load_field(doc)
    n = doc.get("n")
    _require(type(n) is int and n >= 1, "'n' must be a positive integer")
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
        _require(isinstance(comps, list) and len(comps) == SLOTS,
                 "'components' must list exactly four generator matrices")
        # all four shapes are checked before any matrix is built, and all
        # four matrices (so every entry) before any is reduced
        for i, rows in enumerate(comps):
            _check_rows(rows, n, f"component {i + 1}")
        mats = []
        for i, rows in enumerate(comps):
            try:
                mats.append(Matrix.from_rows(field, rows, ncols=n))
            except ValueError as exc:
                raise ParseError(f"component {i + 1}: {exc}") from exc
        return RCode(FqCode.from_rows(field, n, m) for m in mats)
    gens = doc["generators"]
    _require(isinstance(gens, list), "'generators' must be a list of rows")
    _require(len(gens) <= SLOTS * MAX_LENGTH,
             f"'generators' has {len(gens)} rows, more than {SLOTS * MAX_LENGTH}")
    element = RingElement.from_u if basis == "u" else RingElement
    rows = []
    for r, row in enumerate(gens):
        if not (isinstance(row, list) and len(row) == n):
            raise ParseError(f"generator row {r} must list {n} ring elements")
        entries = []
        for j, quad in enumerate(row):
            if not (isinstance(quad, list) and len(quad) == SLOTS):
                raise ParseError(f"generator row {r} entry {j} must be a 4-list")
            try:
                entries.append(element(field, quad))
            except ValueError as exc:
                raise ParseError(f"generator row {r} entry {j}: {exc}") from exc
        rows.append(entries)
    return RCode.from_generators(field, n, rows)


def field_document(field: GF) -> dict[str, Any]:
    """The "field" entry of every document: p, e and the modulus coefficients."""
    return {"p": field.p, "e": field.e, "modulus": list(field.modulus)}


def code_document(code: RCode) -> dict[str, Any]:
    """A ring code as its four component generator matrices, in the gamma basis."""
    return {
        "kind": "ring",
        "field": field_document(code.field),
        "n": code.n,
        "basis": "gamma",
        "components": [c.rows for c in code.comps],
    }


def field_code_document(code: FqCode) -> dict[str, Any]:
    return {
        "kind": "field",
        "field": field_document(code.field),
        "n": code.n,
        "rows": code.rows,
    }


_encode = json.JSONEncoder().encode


def _write(v: Any, pad: str) -> str:
    """``v`` as ``json.dumps(v, indent=2)`` writes it at the indent ``pad`` (a newline and spaces)."""
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = pad + "  "
        # bools are ints to isinstance, but json writes them as true/false
        items = map(int.__repr__, v) if set(map(type, v)) == {int} else (_write(x, inner) for x in v)
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = pad + "  "
        parts = []
        for key, x in v.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
            parts.append(f"{_encode(key)}: {_write(x, inner)}")
        return f"{{{inner}{(',' + inner).join(parts)}{pad}}}"
    return _encode(v)


def dumps(doc: dict[str, Any]) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it, plus a newline; keys must be str."""
    return _write(doc, "\n") + "\n"
