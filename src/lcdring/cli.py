"""Command-line front end.

Subcommands: analyze, construct-lcd, dual, gray, mindist, verify.
Exit codes: 0 success, 1 input error, 2 budget or size cap exceeded,
3 internal consistency failure.  Reports are deterministic for a fixed
input and seed.  The grammar is one table, ``COMMANDS``: both parsers, the
usage lines and the ``--help`` text are read from it.  A plain
``CMD FILE --opt value ...`` line is read directly, without importing
argparse; argparse, built from the same table, reads every other line.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

from . import codefile, construct, oracle
from .errors import BadLError, CapExceededError, ConsistencyError, LcdringError
from .fqcode import DEFAULT_ENUM_CAP
from .rcode import RCode
from .ring import SLOTS, gamma_to_u


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
    # is_mds decides unequal dimensions without distances; otherwise every
    # component distance is memoized once d_lee is known, so it walks nothing
    equal = len({c.k for c in code.comps}) == 1
    mds = None if params.d_lee is None and equal else code.is_mds(cap)
    return {
        "version": codefile.FORMAT_VERSION,
        "field": codefile.field_document(code.field),
        "n": code.n,
        "k": code.k,
        "components": [list(t) for t in params.components],
        "d_lee": params.d_lee,
        "singleton_bound_x4": SLOTS * code.n - code.k + SLOTS,
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
    print(f"singleton bound: {report['singleton_bound_x4'] / SLOTS:g}")
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
        code.field.check_twist(l)
    return list(dict.fromkeys(ls))  # each twist once, in the order first given


def _cmd_analyze(args: SimpleNamespace) -> int:
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


def _cmd_construct(args: SimpleNamespace) -> int:
    code = _load(args.file)
    # --mode is sugar for the twist: euclid is l = 0, galois names its l
    if args.mode == "euclid" and args.l not in (None, 0):
        raise BadLError("the Euclidean mode fixes l = 0")
    if args.mode == "galois" and args.l is None:
        raise BadLError("the Galois mode requires a twist l")
    alpha, out, cert = construct.ring_lcd_equivalent(code, args.l or 0, args.seed)
    flag, dets = out.lcd_status(cert.l)
    # checked before anything is printed or written, so exit 3 leaves no file
    if not flag:
        raise ConsistencyError("construction produced a non-LCD code")
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
    return 0


def _cmd_dual(args: SimpleNamespace) -> int:
    code = _load(args.file)
    dual = code.galois_dual(args.l)
    _write_text(args.output, codefile.dumps(codefile.code_document(dual)))
    return 0


def _cmd_gray(args: SimpleNamespace) -> int:
    code = _load(args.file)
    image = code.gray_image()
    _write_text(args.output, codefile.dumps(codefile.field_code_document(image)))
    return 0


def _cmd_mindist(args: SimpleNamespace) -> int:
    code = _load(args.file)
    d = code.lee_min_dist(args.max_enum)
    print(f"lee distance: {d}")
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    code = _load(args.file)
    budget = args.max_enum
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"{name}: {'agree' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(name)

    gray_code = code.gray_image()
    # every brute-force answer, or the budget refusal, before any fast-path distance or line
    distance, distances, hulls, expansion = oracle.survey(code, gray_code, budget)
    params = code.params(budget)
    if code.k > 0:
        check("lee distance (enumeration vs component minimum)", distance == params.d_lee)
    for i, comp in enumerate(code.comps):
        if comp.k > 0:
            check(f"component {i + 1} distance", distances[i] == comp.min_dist(budget))
    check("expansion image matches enumerated expansion", expansion)
    for l, bf_hull in enumerate(hulls):
        dual = code.galois_dual(l)
        check(f"l={l} cardinality", code.k + dual.k == SLOTS * code.n)
        fast_hull = sum(c.hull_dim(l) for c in code.comps)
        check(f"l={l} hull dimension", bf_hull == fast_hull)
        check(f"l={l} lcd flag", code.is_lcd(l) == (bf_hull == 0))
        check(f"l={l} dual pairing", oracle.is_dual_pair(code, dual, l))
        check(
            f"l={l} expansion of dual",
            dual.gray_image() == gray_code.galois_dual(l),
        )
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 3
    print("all checks agree")
    return 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _enum_cap(text: str) -> int:
    """A ``--max-enum`` value: a non-negative int."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"expected a non-negative int, got {text!r}")


class Option(NamedTuple):
    """One option of a subcommand; each takes one value, which ``convert`` reads."""

    flags: tuple[str, ...]
    dest: str
    metavar: str
    convert: Callable[[str], Any] = str
    default: Any = None
    repeats: bool = False  # each use appends its value to a list
    required: bool = False
    choices: tuple[str, ...] = ()


_OUTPUT = Option(("-o", "--output"), "output", "FILE")
_MAX_ENUM = Option(("--max-enum",), "max_enum", "N", _enum_cap, DEFAULT_ENUM_CAP)
_JSON = Option(("--json",), "json", "OUT")

# The grammar: name -> (handler, help line, options).  Every command also
# takes one positional FILE.  Both parsers, the usage lines and the --help
# text (the README's CLI synopsis) are read from this table.
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], str, tuple[Option, ...]]] = {
    "analyze": (_cmd_analyze, "parameters, duals and predicate table", (
        Option(("--l",), "l", "L", _int, repeats=True), _MAX_ENUM, _JSON)),
    "construct-lcd": (_cmd_construct, "scale into an equivalent LCD code", (
        Option(("--mode",), "mode", "", required=True, choices=("euclid", "galois")),
        Option(("--l",), "l", "L", _int), Option(("--seed",), "seed", "S", _int),
        _OUTPUT, _MAX_ENUM, _JSON)),
    "dual": (_cmd_dual, "write the Galois dual code", (Option(("--l",), "l", "L", _int, 0), _OUTPUT)),
    "gray": (_cmd_gray, "write the expanded field code", (_OUTPUT,)),
    "mindist": (_cmd_mindist, "exact Lee distance by enumeration", (_MAX_ENUM,)),
    "verify": (_cmd_verify, "cross-check fast paths against brute force", (_MAX_ENUM,)),
}


def _synopsis(name: str) -> str:
    """The command's line of the CLI synopsis."""
    words = [f"lcdring {name} FILE"]
    for opt in COMMANDS[name][2]:
        word = f"{opt.flags[0]} {'|'.join(opt.choices) or opt.metavar}{' ...' if opt.repeats else ''}"
        words.append(word if opt.required else f"[{word}]")
    return " ".join(words)


def _plain_value(token: str) -> bool:
    """Whether a plain line reads ``token`` as a value: it starts with no "-" or is "-"."""
    return token == "-" or not token.startswith("-")


def _plain(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace] | None:
    """The handler and arguments of a plain ``CMD FILE --opt value ...`` line, else None.

    FILE follows the command.  Each option is spelt in full, as ``--opt value``,
    ``--opt=value``, ``-o VALUE`` or ``-oVALUE``, where a separate value starts
    with no "-" unless it is "-".  Every value converts and every required
    option is given.  argparse reads any such line the same way, except that
    it drops an attached "--".
    """
    if len(argv) < 2 or argv[0] not in COMMANDS or not _plain_value(argv[1]):
        return None
    handler, _, options = COMMANDS[argv[0]]
    flags = {flag: opt for opt in options for flag in opt.flags}
    given: dict[str, Any] = {}
    rest = iter(argv[2:])
    for token in rest:
        head, eq, value = token.partition("=")
        if token in flags:
            opt, value = flags[token], next(rest, None)
            if value is None or not _plain_value(value):
                return None
        elif eq and head in flags:
            opt = flags[head]
        elif len(token) > 2 and token[:2] in flags:  # -oVALUE
            opt, value = flags[token[:2]], token[2:]
        else:
            return None
        try:
            value = opt.convert(value)
        except ValueError:
            return None
        if opt.choices and value not in opt.choices:
            return None
        given[opt.dest] = [*given.get(opt.dest, ()), value] if opt.repeats else value
    if any(opt.required and opt.dest not in given for opt in options):
        return None
    return handler, SimpleNamespace(file=argv[1], **{opt.dest: given.get(opt.dest, opt.default) for opt in options})


def _argparse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """Every other command line (help, usage errors, prefixes, "--"), read by argparse built from ``COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            # usage errors exit 1 (input error), as 2 means a cap was exceeded
            self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")

        def format_help(self) -> str:
            return self.description or ""

    class Store(argparse.Action):
        repeats = False

        def __call__(self, parser: Any, namespace: Any, value: Any, option_string: Any = None) -> None:
            if value == []:  # argparse drops an attached "--" (--output=--) and passes no value
                raise argparse.ArgumentError(self, "expected one argument")
            if self.repeats:
                value = [*(getattr(namespace, self.dest) or ()), value]
            setattr(namespace, self.dest, value)

    class Append(Store):
        repeats = True

    def typed(convert: Callable[[str], Any]) -> Callable[[str], Any]:
        def read(text: str) -> Any:
            try:
                return convert(text)
            except ValueError as exc:  # keeps the converter's text, not "invalid _int value"
                raise argparse.ArgumentTypeError(str(exc)) from None
        return read

    parser = Parser(prog="lcdring", usage=f"lcdring {{{','.join(COMMANDS)}}} ...",
                    description="".join(f"{_synopsis(name)}\n" for name in COMMANDS))
    # without prog, argparse would build each command's prog from the usage above
    sub = parser.add_subparsers(dest="command", required=True, prog="lcdring")
    for name, (handler, text, options) in COMMANDS.items():
        p = sub.add_parser(name, usage=_synopsis(name), description=f"{_synopsis(name)}\n  {text}\n")
        p.add_argument("file")
        for opt in options:
            p.add_argument(*opt.flags, dest=opt.dest, type=typed(opt.convert), default=opt.default,
                           action=Append if opt.repeats else Store, required=opt.required,
                           choices=opt.choices or None)
        p.set_defaults(func=handler)
    args = vars(parser.parse_args(argv))
    del args["command"]
    return args.pop("func"), SimpleNamespace(**args)


def parse_args(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler and arguments of a command line, read from ``COMMANDS``.

    A plain line is read directly and never imports argparse; argparse
    reads every other one.  Help exits 0 and a usage error exits 1, each
    through ``SystemExit``.
    """
    argv = list(argv)
    return _plain(argv) or _argparse(argv)


def main(argv: list[str] | None = None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except CapExceededError as exc:
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
