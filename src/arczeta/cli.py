"""Command line surface.

Every command accepts --json for machine output (byte-stable: canonical
ordering everywhere) and prints human-readable text otherwise.  Exit
codes: 0 success, 1 domain error (reported as the JSON envelope
{"error": name, "detail": ...}), 2 usage error.  Wherever a file is
accepted, "-" reads standard input.  All state lives in argv: there are
no configuration files or environment variables.
"""

import json
import sys
from collections import namedtuple
from types import MappingProxyType, SimpleNamespace

# germ, and fractions with it, is imported by the commands that use it: zeta
# and beta never build a rational number
from . import arcspace, scissor
from .algebra import LaurentPolynomial
from .errors import MAX_GERM_VARIABLES, MAX_SPLIT_VARIABLES, ArcZetaError, MalformedExpression

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _read_source(value: str) -> str:
    """Resolve an argument that may be literal text, a file path, or '-'."""
    if value == "-":
        return sys.stdin.read()
    try:
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError):
        return value


def _load_json(value: str, what: str):
    try:
        return json.loads(_read_source(value))
    except json.JSONDecodeError as exc:
        raise MalformedExpression(f"invalid {what} JSON: {exc.msg}")
    except ValueError:  # an integer longer than the interpreter's digit limit
        raise MalformedExpression(f"invalid {what} JSON: an integer has too many digits") from None
    except RecursionError:
        raise MalformedExpression(f"invalid {what} JSON: nested too deeply") from None


def _load_polynomial(value: str) -> LaurentPolynomial:
    data = _load_json(value, "polynomial")
    try:
        return LaurentPolynomial.from_json(data)
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an infinite float
        raise MalformedExpression(str(exc))


def _emit(args, payload, text: str) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


# beta kind -> (help, argument names, closed form)
_CLOSED_FORMS = {
    "x0": ("affine cone {q = 0}", ("m", "M"), lambda m, M: scissor.beta_cone(m, M)),
    "x1": ("level set {q = +1}", ("s", "t"), lambda s, t: scissor.beta_level(s, t, 1)),
    "xneg1": ("level set {q = -1}", ("s", "t"), lambda s, t: scissor.beta_level(s, t, -1)),
    "z": ("projective quadric", ("m", "M"), lambda m, M: scissor.beta_projective_quadric(m, M)),
}


def _cmd_beta_closed(args) -> int:
    _, names, closed_form = _CLOSED_FORMS[args.kind]
    value = closed_form(*(getattr(args, name) for name in names))
    return _emit(args, value.to_json(), value.to_text())


def _cmd_beta_expr(args) -> int:
    expression = scissor.expression_from_json(_load_json(args.source, "expression"))
    value = scissor.beta_eval(expression)
    return _emit(args, value.to_json(), value.to_text())


def _write_strata_json(series, reports, write) -> None:
    """Write, in pieces, the text json.dumps(..., sort_keys=True) gives for the
    zeta --strata payload: the series head, each report in turn, and the tail.

    The expressions are written under one memo for the request, every
    polynomial by its own json_text, and every str by
    encode_basestring_ascii, as json.dumps writes one by default.
    """
    memo: dict = {}
    quote = json.encoder.encode_basestring_ascii
    terms = ", ".join(f"[{n}, {poly.json_text()}]" for n, poly in series.coefficients().items())
    write(f'{{"series": {{"order": {series.order}, "terms": [{terms}]}}, "strata": [')
    separator = ""
    for report in reports:
        strata = ", ".join(
            f'{{"beta": {beta.json_text()}, "description": {quote(description)}, '
            f'"expression": {scissor.expression_json_text(expression, memo)}}}'
            for (description, expression), beta in zip(report.strata, report.betas)
        )
        write(
            f'{separator}{{"n": {report.n}, "selector": {quote(report.selector)}, '
            f'"strata": [{strata}], "total_beta": {report.total_beta.json_text()}}}'
        )
        separator = ", "
    write("]}\n")


def _cmd_zeta(args) -> int:
    germ = arcspace.QuadraticGerm(dim=args.dim, plus=args.plus, minus=args.minus)
    if not args.strata:
        # the series from its rational form; only --strata runs the engine
        series = arcspace.zeta_closed_form(germ, args.selector, args.order)
        return _emit(args, series.to_json(), series.to_text())
    # one pass: the series and the dump both come from these reports, every
    # order stratified before anything is written, so an error prints only
    # its envelope
    reports = arcspace.stratify_series(germ, args.selector, args.order)
    series = arcspace.series_from_reports(germ, reports)
    if args.json:
        _write_strata_json(series, reports, sys.stdout.write)
        return 0
    # the text is built only when it is printed
    lines = [series.to_text()]
    for report in reports:
        lines.append(f"T^{report.n} strata ({report.selector}):")
        if not report.strata:
            lines.append("  (empty: no admissible block order)")
        for (description, _), beta in zip(report.strata, report.betas):
            lines.append(f"  {description}: beta = {beta.to_text()}")
        lines.append(f"  total: {report.total_beta.to_text()}")
    print("\n".join(lines))
    return 0


def _cmd_recover(args) -> int:
    from . import germ as germs

    c_plus = _load_polynomial(args.plus_coeff)
    c_minus = _load_polynomial(args.minus_coeff)
    plus, minus = germs.recover_signature(c_plus, c_minus)
    return _emit(args, {"s": plus, "t": minus}, f"s = {plus}, t = {minus}")


def _cmd_recover_naive(args) -> int:
    from . import germ as germs

    coefficient = _load_polynomial(args.coeff)
    outcome = germs.recover_minmax(coefficient)
    if outcome.status == "determined":
        text = f"determined: m = {outcome.m}, M = {outcome.M}"
    else:
        text = f"ambiguous: {outcome.reason}"
    return _emit(args, outcome.to_json(), text)


def _cmd_inertia(args) -> int:
    from . import germ as germs

    inertia = germs.hessian_inertia(germs.parse_germ(_read_source(args.poly), nvars=args.dim))
    text = (
        f"s = {inertia.plus}, t = {inertia.minus}, rank = {inertia.rank}, "
        f"corank = {inertia.corank}, index = {inertia.index}"
    )
    return _emit(args, inertia.to_json(), text)


def _cmd_split(args) -> int:
    from . import germ as germs

    germ = germs.parse_germ(_read_source(args.poly), nvars=args.dim)
    result = germs.split_jet(germ, args.jet)
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
        return 0
    # the text is built only when it is printed
    lines = [
        f"inertia: s = {result.inertia.plus}, t = {result.inertia.minus}, "
        f"corank = {result.inertia.corank} (jet order {result.jet_order})"
    ]
    for i, component in enumerate(result.change):
        lines.append(f"x{i + 1} -> {component.to_text()}")
    lines.append(f"Q = {result.quadratic_part.to_text()}")
    lines.append(f"F = {result.remainder.to_text()}")
    print("\n".join(lines))
    return 0


def _cmd_discriminate(args) -> int:
    from . import germ as germs

    f = germs.parse_germ(_read_source(args.f))
    g = germs.parse_germ(_read_source(args.g))
    result = germs.discriminate(f, g, args.order)
    if result.distinguished:
        text = (
            f"distinguished: {result.selector} zeta coefficients differ at T^{result.n}"
        )
    else:
        text = f"not distinguished up to T^{result.order}"
    if result.conditional:
        text += " (conditional on the reduction to the quadratic part)"
    return _emit(args, result.to_json(), text)


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck  # imported by the one command that runs it

    checks, ok = run_selfcheck(args.max)
    if args.json:
        payload = {
            "ok": ok,
            "checks": [
                {"name": name, "count": count, "failures": failures}
                for name, count, failures in checks
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for name, count, failures in checks:
            if failures:
                shown = ", ".join(failures[:5])
                extra = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
                print(f"{name}: FAILED at {shown}{extra} out of {count} identities")
            else:
                print(f"{name}: {count} identities OK")
        print("all checks passed" if ok else "SELFCHECK FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    """An argparse type for ASCII -?[0-9]+, the integers of germ text and of the
    JSON readers: " 1", "+1", "1_0" and "٣" are usage errors."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # argparse names the type in its "invalid int value" message


def _int_at_least(low: int, high: int | None = None):
    """An argparse type for _integer values >= low, and <= high if it is given;
    anything else is a usage error."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low or high is not None and value > high:
            from argparse import ArgumentTypeError  # the usage error argparse reports

            bound = f"at least {low}" if value < low else f"at most {high}"
            raise ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


# One add_argument call as data, read by argparse and by _parse_canonical
# alike.  A flag without dashes is a positional, which argparse takes with
# its help line only; store_true options take no type or choices.
_Option = namedtuple(
    "_Option",
    "flag dest type default required choices help store_true",
    defaults=(None, None, False, None, None, False),
)
# A command: its help line, its handler and its options, or for beta (no
# handler) the table of its kinds.
_Command = namedtuple("_Command", "help func options")

_JSON = _Option("--json", "json", default=False, help="machine-readable output", store_true=True)
_ORDER = _Option("--order", "order", _int_at_least(1), 6)


def _poly_options(cap: int) -> tuple:
    """The options of a command that reads one germ, whose --dim is at most cap."""
    return (
        _JSON,
        _Option("--poly", "poly", required=True, help="germ text, file, or -"),
        _Option("--dim", "dim", _int_at_least(1, cap), help="override variable count (>= 1)"),
    )


_COMMANDS = MappingProxyType({
    "beta": _Command("virtual Poincare polynomials", None, MappingProxyType({
        **{
            kind: _Command(help_text, _cmd_beta_closed, (_JSON, *(
                _Option(f"--{name}", name, _int_at_least(0), required=True) for name in names
            )))
            for kind, (help_text, names, _) in _CLOSED_FORMS.items()
        },
        "expr": _Command(
            "evaluate beta of a set-expression JSON file",
            _cmd_beta_expr,
            (_JSON, _Option("source", "source", required=True,
                            help="path to expression JSON, or - for stdin")),
        ),
    })),
    "zeta": _Command("zeta series of a diagonal quadratic germ", _cmd_zeta, (
        _JSON,
        _Option("--dim", "dim", _integer, required=True),
        _Option("--plus", "plus", _integer, required=True),
        _Option("--minus", "minus", _integer, required=True),
        _Option("--selector", "selector", default=arcspace.NAIVE, choices=arcspace.SELECTORS),
        _ORDER,
        _Option("--strata", "strata", default=False, help="dump the stratum reports",
                store_true=True),
    )),
    "recover": _Command("square counts from signed T^2 coefficients", _cmd_recover, (
        _JSON,
        _Option("--plus-coeff", "plus_coeff", required=True),
        _Option("--minus-coeff", "minus_coeff", required=True),
    )),
    "recover-naive": _Command("min/max from a naive T^2 coefficient", _cmd_recover_naive, (
        _JSON, _Option("--coeff", "coeff", required=True),
    )),
    "inertia": _Command(
        "Hessian inertia of a polynomial germ", _cmd_inertia, _poly_options(MAX_GERM_VARIABLES),
    ),
    "split": _Command("jet-level splitting of a singular germ", _cmd_split, (
        *_poly_options(MAX_SPLIT_VARIABLES),
        _Option("--jet", "jet", _int_at_least(3), 3, help="jet order (>= 3)"),
    )),
    "discriminate": _Command("compare zeta data of two germs", _cmd_discriminate, (
        _JSON,
        _Option("--f", "f", required=True, help="first germ text, file, or -"),
        _Option("--g", "g", required=True, help="second germ text, file, or -"),
        _ORDER,
    )),
    "selfcheck": _Command("run the identity grids", _cmd_selfcheck, (
        _JSON, _Option("--max", "max", _int_at_least(2), 12),
    )),
})


def _parse_canonical(argv: list[str]):
    """A namespace of the attributes argparse gives argv, if argv is canonical; else None.

    Canonical is an exact command (and beta kind), then known long options,
    each at most once, as --opt value or --opt=value, with every required
    option given.  A value passes the option's type and choices.  Anything
    argparse might read another way (help, abbreviations, repeats, values
    that are empty or start with "-", positionals, errors) is left to it.
    """
    names = {"command": argv[0] if argv else None}
    command = _COMMANDS.get(names["command"])
    if command is not None and command.func is None:
        names["kind"] = argv[1] if len(argv) > 1 else None
        command = command.options.get(names["kind"])
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    values = {}
    words = iter(argv[len(names):])
    for word in words:
        flag, eq, text = word.partition("=")
        option = options.get(flag)
        if option is None or not flag.startswith("--") or option.dest in values:
            return None
        if option.store_true and not eq:
            values[option.dest] = True
            continue
        if not eq:
            text = next(words, "-")
        if option.store_true or not text or (not eq and text[0] == "-"):
            return None
        try:
            value = text if option.type is None else option.type(text)
        except Exception:  # the fallback calls the type again: argparse reports or raises it
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if any(option.required and option.dest not in values for option in command.options):
        return None
    defaults = {option.dest: option.default for option in command.options}
    return SimpleNamespace(**names, **{**defaults, **values}, func=command.func)


def _add_commands(parser, dest: str, commands) -> None:
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, command in commands.items():
        _add_options(command, subparsers.add_parser(name, help=command.help))


def _add_options(command: _Command, parser) -> None:
    if command.func is None:
        _add_commands(parser, "kind", command.options)
        return
    for option in command.options:
        if not option.flag.startswith("-"):
            parser.add_argument(option.flag, help=option.help)
        elif option.store_true:
            parser.add_argument(
                option.flag, action="store_true", dest=option.dest, default=option.default,
                help=option.help,
            )
        else:
            parser.add_argument(
                option.flag, dest=option.dest, type=option.type, default=option.default,
                required=option.required, choices=option.choices, help=option.help,
            )
    parser.set_defaults(func=command.func)


def _build_parser():
    """The fallback's parser; argparse is imported when one is built."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="arczeta",
        description=(
            "Exact virtual Poincare polynomials of signature quadrics and "
            "zeta functions of quadratic germs"
        ),
    )
    _add_commands(parser, "command", _COMMANDS)
    return parser


def run(argv: list[str]) -> int:
    args = _parse_canonical(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ArcZetaError as exc:
        error, detail = type(exc).__name__, str(exc)
    except MemoryError:  # the last guard: work that outgrew the memory
        error, detail = "MemoryError", "the command ran out of memory"
    print(json.dumps({"error": error, "detail": detail}, sort_keys=True))
    return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        # flushed here, so that a closed pipe is met inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`arczeta ... | head`): what is left of the
        # output goes to devnull, so the flush at exit fails no more, and the
        # exit is 1 with nothing on stderr
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
