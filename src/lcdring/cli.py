"""Command-line front end.

Subcommands: analyze, construct-lcd, dual, gray, mindist, verify.
Exit codes: 0 success, 1 input error, 2 budget or size cap exceeded,
3 internal consistency failure.  Reports are deterministic for a fixed
input and seed.  The grammar is one table, ``COMMANDS``: the parser, the
usage lines and the ``--help`` text are all read from it.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

from . import codefile, construct, oracle
from .errors import (
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
    mds = None if params.d_lee is None else 4 * params.d_lee == bound_x4
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


_HELP = Option(("-h", "--help"), "help", "")
_OUTPUT = Option(("-o", "--output"), "output", "FILE")
_MAX_ENUM = Option(("--max-enum",), "max_enum", "N", _enum_cap, DEFAULT_ENUM_CAP)
_JSON = Option(("--json",), "json", "OUT")

# The grammar: name -> (handler, help line, options).  Every command also
# takes one positional FILE.  The parser, the usage lines and the --help
# text (the README's CLI synopsis) are all read from this table.
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], str, tuple[Option, ...]]] = {
    "analyze": (_cmd_analyze, "parameters, duals and predicate table", (
        Option(("--l",), "l", "L", _int, repeats=True), _MAX_ENUM, _JSON)),
    "construct-lcd": (_cmd_construct, "scale into an equivalent LCD code", (
        Option(("--mode",), "mode", "", required=True,
               choices=(construct.MODE_EUCLID, construct.MODE_GALOIS)),
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


class _UsageError(Exception):
    """A refused command line; the message follows ``<prog>: error:``."""


def _refuse(prog: str, usage: str, exc: _UsageError) -> NoReturn:
    """Usage errors exit 1 (input error), as 2 means a cap was exceeded."""
    sys.stderr.write(f"usage: {usage}\n{prog}: error: {exc}\n")
    raise SystemExit(1)


def _help(text: str) -> NoReturn:
    sys.stdout.write(text)
    raise SystemExit(0)


# How a token is read, by the rules argparse applied when it parsed this
# CLI: None for a positional, _END for the first "--" (every later token is a
# positional), else (option or None if unknown, flag, attached value or None).
_END = "--"


def _classify(token: str, flags: dict[str, Option]) -> tuple[Option | None, str, str | None] | None:
    """Read one token: unique prefixes of long flags, ``--flag=value`` and ``-oVALUE`` count."""
    if not token.startswith("-"):
        return None
    if token in flags:
        return flags[token], token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in flags:
        return flags[head], head, value
    if token[1] == "-":
        hits = [flag for flag in flags if flag.startswith(head)]
        attached = value if eq else None
    else:
        hits = [token[:2]] if token[:2] in flags else []
        attached = token[2:]
    if len(hits) > 1:
        raise _UsageError(f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return flags[hits[0]], hits[0], attached
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or text that is no flag
    return None, token, None


def _classify_all(argv: list[str], flags: dict[str, Option]) -> list[Any]:
    kinds: list[Any] = []
    for i, token in enumerate(argv):
        if token == "--":
            return kinds + [_END] + [None] * (len(argv) - i - 1)
        kinds.append(_classify(token, flags))
    return kinds


def _option_at(argv: list[str], kinds: list[Any], i: int, flags: dict[str, Option]) -> tuple[Option, str | None, int]:
    """(option, its raw value, index past both) for the option token at ``argv[i]``.

    ``-h`` may carry more one-letter flags (``-hoFILE``); help wins once
    the whole token has been read without error.
    """
    opt, flag, value = kinds[i]
    chained = False
    while opt is _HELP and value is not None:
        if flag[1] == "-" or not value or "-" + value[0] not in flags:
            raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
        chained, flag = True, "-" + value[0]
        opt, value = flags[flag], value[1:] or None
    i += 1
    if opt is not _HELP and value is None:
        if i == len(argv) or kinds[i] is not None:
            raise _UsageError(f"argument {'/'.join(opt.flags)}: expected one argument")
        value, i = argv[i], i + 1
    return (_HELP if chained else opt), value, i


def _parse_command(name: str, argv: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """The arguments of one command and the tokens it did not use."""
    _, text, options = COMMANDS[name]
    flags = {flag: opt for opt in (_HELP, *options) for flag in opt.flags}
    values = {opt.dest: opt.default for opt in options}
    seen: set[str] = set()
    path, extras = None, []
    try:
        kinds = _classify_all(argv, flags)
        i = 0
        while i < len(argv):
            kind = kinds[i]
            if type(kind) is tuple and kind[0] is not None:
                opt, raw, i = _option_at(argv, kinds, i, flags)
                if opt is _HELP:
                    _help(f"{_synopsis(name)}\n  {text}\n")
                try:
                    value = opt.convert(raw)
                except ValueError as exc:
                    raise _UsageError(f"argument {'/'.join(opt.flags)}: {exc}") from None
                if opt.choices and value not in opt.choices:
                    raise _UsageError(f"argument {'/'.join(opt.flags)}: invalid choice: {value!r} "
                                      f"(choose from {', '.join(map(repr, opt.choices))})")
                seen.add(opt.dest)
                values[opt.dest] = [*(values[opt.dest] or ()), value] if opt.repeats else value
                continue
            j = i + (kind == _END)
            if path is None and type(kind) is not tuple and j < len(argv):
                # FILE is the first positional, with the "--" before or after it
                path, i = argv[j], j + 1
                if i < len(argv) and kinds[i] == _END:
                    i += 1
                continue
            extras.append(argv[i])
            i += 1
        missing = ["file"] if path is None else []
        missing += ["/".join(opt.flags) for opt in options if opt.required and opt.dest not in seen]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    except _UsageError as exc:
        _refuse(f"lcdring {name}", _synopsis(name), exc)
    return SimpleNamespace(file=path, **values), extras


def parse_args(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler and arguments of a command line, read from ``COMMANDS``.

    Help exits 0 and a usage error exits 1, each through ``SystemExit``.
    """
    argv = list(argv)
    flags = dict.fromkeys(_HELP.flags, _HELP)
    extras: list[str] = []
    try:
        kinds = _classify_all(argv, flags)
        for i, (token, kind) in enumerate(zip(argv, kinds)):
            if type(kind) is tuple and kind[0] is None:
                extras.append(token)
            elif type(kind) is tuple:
                _option_at(argv, kinds, i, flags)
                _help("".join(f"{_synopsis(name)}\n" for name in COMMANDS))
            elif kind == _END and i == len(argv) - 1:
                break
            elif token not in COMMANDS:
                raise _UsageError(f"argument command: invalid choice: {token!r} "
                                  f"(choose from {', '.join(map(repr, COMMANDS))})")
            else:
                args, rest = _parse_command(token, argv[i + 1 :])
                if extras + rest:
                    raise _UsageError(f"unrecognized arguments: {' '.join(extras + rest)}")
                return COMMANDS[token][0], args
        raise _UsageError("the following arguments are required: command")
    except _UsageError as exc:
        _refuse("lcdring", f"lcdring {{{','.join(COMMANDS)}}} ...", exc)


def main(argv: list[str] | None = None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
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
