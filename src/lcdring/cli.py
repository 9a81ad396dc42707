"""Command-line front end.

Subcommands: analyze, construct-lcd, dual, gray, mindist, verify.
Exit codes: 0 success, 1 input error, 2 budget or size cap exceeded,
3 internal consistency failure.  Reports are deterministic for a fixed
input and seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, NoReturn, Sequence

from . import codefile, construct, oracle
from .errors import (
    BadLError,
    CapExceededError,
    ConsistencyError,
    LcdringError,
    SizeCapError,
)
from .fqcode import DEFAULT_ENUM_CAP, count_text
from .rcode import RCode
from .ring import gamma_to_u, gray


def _load(path: str) -> RCode:
    with open(path, "r", encoding="utf-8") as fh:
        return codefile.parse_code(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_params(triple: Sequence[int | None]) -> str:
    n, k, d = triple
    return f"[{n}, {k}, {d if d is not None else '?'}]"


def _predicate_block(code: RCode, ls: list[int]) -> list[dict[str, Any]]:
    out = []
    for l in ls:
        flag, dets = code.lcd_status(l)
        hulls = [c.hull_dim(l) for c in code.comps]
        entry: dict[str, Any] = {
            "l": l,
            "lcd": flag,
            "gram_dets": list(dets),
            "hull_dims": hulls,
            "self_orthogonal": code.is_self_orthogonal(l),
        }
        if l == 0:
            entry["self_dual"] = code.is_self_dual()
        out.append(entry)
    return out


def _analysis(code: RCode, ls: list[int], cap: int) -> dict[str, Any]:
    params = code.params(cap)
    bound_x4 = 4 * code.n - code.k + 4
    # the component distances are cached on code.comps, so is_mds enumerates nothing
    mds = None if code.k == 0 or params.d_lee is None else code.is_mds(cap)
    return {
        "version": codefile.FORMAT_VERSION,
        "field": codefile.field_document(code.field),
        "n": code.n,
        "k": code.k,
        "components": [list(t) for t in params.components],
        "d_lee": params.d_lee,
        "singleton_bound_x4": bound_x4,
        "mds": mds,
        "predicates": _predicate_block(code, ls),
    }


def _print_analysis(report: dict[str, Any]) -> None:
    f = report["field"]
    base = f"GF({f['p']})" if f["e"] == 1 else f"GF({f['p']}^{f['e']})"
    print(f"field: {base}, modulus={f['modulus']}")
    print(f"ring code: n={report['n']}, k={report['k']}")
    print("components [n, k, d]:")
    for i, t in enumerate(report["components"]):
        print(f"  C{i + 1} = {_fmt_params(t)}")
    d = report["d_lee"]
    print(f"lee distance: {d if d is not None else 'unknown'}")
    print(f"singleton bound: {report['singleton_bound_x4'] / 4:g}")
    mds = report["mds"]
    print(f"mds: {'unknown' if mds is None else ('yes' if mds else 'no')}")
    for pred in report["predicates"]:
        bits = [
            f"l={pred['l']}:",
            f"lcd={'yes' if pred['lcd'] else 'no'}",
            f"hull_dims={pred['hull_dims']}",
            f"self_orthogonal={'yes' if pred['self_orthogonal'] else 'no'}",
        ]
        if "self_dual" in pred:
            bits.append(f"self_dual={'yes' if pred['self_dual'] else 'no'}")
        print(" ".join(bits))


def _resolve_ls(code: RCode, ls: list[int] | None) -> list[int]:
    if not ls:
        return list(range(code.field.e))
    for l in ls:
        if not 0 <= l <= code.field.e - 1:
            raise BadLError(f"l={l} outside [0, {code.field.e - 1}]")
    return list(dict.fromkeys(ls))  # each twist once, in the order first given


def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _load(args.file)
    report = _analysis(code, _resolve_ls(code, args.l), args.max_enum)
    _print_analysis(report)
    if args.json:
        _write_text(args.json, codefile.dumps(report))
    return 0


def _print_construction(report: dict[str, Any]) -> None:
    beta = f", beta={report['beta']}" if report["beta"] else ""
    print(f"mode: {report['mode']} (l={report['l']}{beta})")
    print(f"alpha (gamma basis): {report['alpha_gamma']}")
    print(f"alpha (u basis):     {report['alpha_u']}")
    for i, fc in enumerate(report["components"]):
        if fc is None:
            print(f"  C{i + 1}: already lcd, identity scaling")
        else:
            print(f"  C{i + 1}: t={fc['t']}, set={fc['r_set']}, "
                  f"minor_det={fc['minor_det']}, gram_det={fc['gram_det']}")
    print(f"result: lcd={'yes' if report['lcd'] else 'no'} gram_dets={report['gram_dets']}")
    print(f"input  parameters: {_fmt_params(report['input'])}")
    print(f"output parameters: {_fmt_params(report['output'])}")


def _cmd_construct(args: argparse.Namespace) -> int:
    code = _load(args.file)
    alpha, out, cert = construct.ring_lcd_equivalent(
        code, mode=args.mode, l=args.l, seed=args.seed
    )
    flag, dets = out.lcd_status(cert.l)
    report = {
        "version": codefile.FORMAT_VERSION,
        "mode": args.mode,
        "l": cert.l,
        "beta": cert.beta,
        "alpha_gamma": [list(x.g) for x in alpha],
        "alpha_u": [list(gamma_to_u(code.field, x.g)) for x in alpha],
        "components": [
            None if fc is None else {
                "t": fc.minor.t, "r_set": list(fc.minor.r_set), "minor_det": fc.minor.det,
                "perm": list(fc.perm), "alpha": list(fc.alpha), "gram_det": fc.gram_det,
            }
            for fc in cert.components
        ],
        "lcd": flag,
        "gram_dets": list(dets),
        # (n, k, d_lee), the first three fields of RCodeParams
        "input": list(code.params(args.max_enum)[:3]),
        "output": list(out.params(args.max_enum)[:3]),
    }
    _print_construction(report)
    _write_text(args.output, codefile.dumps(codefile.code_document(out)))
    if args.json:
        _write_text(args.json, codefile.dumps(report))
    if not flag:
        raise ConsistencyError("construction produced a non-LCD code")
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    code = _load(args.file)
    dual = code.galois_dual(args.l)
    _write_text(args.output, codefile.dumps(codefile.code_document(dual)))
    return 0


def _cmd_gray(args: argparse.Namespace) -> int:
    code = _load(args.file)
    image = code.gray_image()
    _write_text(args.output, codefile.dumps(codefile.field_code_document(image)))
    return 0


def _cmd_mindist(args: argparse.Namespace) -> int:
    code = _load(args.file)
    d = code.lee_min_dist(args.max_enum)
    print(f"lee distance: {d}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _load(args.file)
    budget = args.max_enum
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"{name}: {'agree' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(name)

    def pairing_check(name: str, dual: RCode, l: int) -> None:
        # the dual check pairs each dual word with the k generators only,
        # but its budget counts the |C| * |dual| pairs of the definition;
        # report an explicit skip instead of erroring when that cannot fit
        pairings = oracle.count(code) * oracle.count(dual)
        if pairings > budget:
            shown = count_text(code.field.q, code.k + dual.k)
            print(f"{name}: skipped ({shown} pairings exceed --max-enum {budget})")
            return
        check(name, oracle.is_dual_pair(code, dual, l, budget))

    params = code.params(budget)
    if code.k > 0:
        check(
            "lee distance (enumeration vs component minimum)",
            oracle.min_distance(code, budget) == params.d_lee,
        )
    for i, comp in enumerate(code.comps):
        if comp.k > 0:
            check(
                f"component {i + 1} distance",
                oracle.min_distance(comp, budget) == comp.min_dist(budget),
            )
    gray_code = code.gray_image()
    enumerated = {gray(w) for w in oracle.codewords(code, budget)}
    spanned = set(oracle.codewords(gray_code, budget))
    check("expansion image matches enumerated expansion", enumerated == spanned)
    for l in range(code.field.e):
        dual = code.galois_dual(l)
        check(f"l={l} cardinality", code.k + dual.k == 4 * code.n)
        bf_hull = oracle.hull_dim(code, l, budget)
        fast_hull = sum(c.hull_dim(l) for c in code.comps)
        check(f"l={l} hull dimension", bf_hull == fast_hull)
        check(f"l={l} lcd flag", code.is_lcd(l) == (bf_hull == 0))
        pairing_check(f"l={l} dual pairing", dual, l)
        check(
            f"l={l} expansion of dual",
            dual.gray_image() == gray_code.galois_dual(l),
        )
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 3
    print("all checks agree")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error), as 2 means a cap was exceeded; subparsers inherit this."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _enum_cap(text: str) -> int:
    """A ``--max-enum`` value: a non-negative int."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcdring",
        description="Analyze and transform linear codes over F_q + uF_q + vF_q + uvF_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameters, duals and predicate table")
    p.add_argument("file")
    p.add_argument("--l", type=int, action="append", help="twist to check (repeatable); default all")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.add_argument("--json", metavar="FILE", help="also write a JSON report ('-' for stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct-lcd", help="scale into an equivalent LCD code")
    p.add_argument("file")
    p.add_argument("--mode", choices=[construct.MODE_EUCLID, construct.MODE_GALOIS], required=True)
    p.add_argument("--l", type=int, default=None, help="twist (galois mode)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", metavar="FILE", help="where to write the scaled code")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("dual", help="write the Galois dual code")
    p.add_argument("file")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gray", help="write the expanded field code")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_gray)

    p = sub.add_parser("mindist", help="exact Lee distance by enumeration")
    p.add_argument("file")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=_cmd_mindist)

    p = sub.add_parser("verify", help="cross-check fast paths against brute force")
    p.add_argument("file")
    p.add_argument("--max-enum", type=_enum_cap, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (LcdringError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
