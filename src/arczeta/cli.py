"""Command line surface.

Every command accepts --json for machine output (byte-stable: canonical
ordering everywhere) and prints human-readable text otherwise.  Exit
codes: 0 success, 1 domain error (reported as the JSON envelope
{"error": name, "detail": ...}), 2 usage error.  Wherever a file is
accepted, "-" reads standard input.  All state lives in argv: there are
no configuration files or environment variables.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arcspace, germ as germs, scissor
from .algebra import LaurentPolynomial
from .errors import ArcZetaError, MalformedExpression
from .selfcheck import run_selfcheck

__all__ = ["run", "main", "run_selfcheck"]


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


def _strata_json(series, reports) -> str:
    """The text json.dumps(..., sort_keys=True) gives for the zeta --strata payload.

    The strata of one request share most of their nodes, so the expressions
    are written by scissor.expression_json_text with one memo for the whole
    request; the wrappers below spell out the keys in sorted order.
    """
    memo: dict = {}
    dumps = json.dumps
    texts = []
    for report in reports:
        strata = ", ".join(
            f'{{"beta": {dumps(beta.to_json())}, "description": {dumps(description)}, '
            f'"expression": {scissor.expression_json_text(expression, memo)}}}'
            for (description, expression), beta in zip(report.strata, report.betas)
        )
        texts.append(
            f'{{"n": {report.n}, "selector": {dumps(report.selector)}, "strata": [{strata}], '
            f'"total_beta": {dumps(report.total_beta.to_json())}}}'
        )
    return f'{{"series": {dumps(series.to_json(), sort_keys=True)}, "strata": [{", ".join(texts)}]}}'


def _cmd_zeta(args) -> int:
    germ = arcspace.QuadraticGerm(dim=args.dim, plus=args.plus, minus=args.minus)
    if not args.strata:
        # the series from its rational form; only --strata runs the engine
        series = arcspace.zeta_closed_form(germ, args.selector, args.order)
        return _emit(args, series.to_json(), series.to_text())
    # one pass: the series and the dump both come from these reports
    reports = [arcspace.stratify(germ, n, args.selector) for n in range(1, args.order + 1)]
    series = arcspace.series_from_reports(germ, reports)
    if args.json:
        print(_strata_json(series, reports))
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
    c_plus = _load_polynomial(args.plus_coeff)
    c_minus = _load_polynomial(args.minus_coeff)
    plus, minus = germs.recover_signature(c_plus, c_minus)
    return _emit(args, {"s": plus, "t": minus}, f"s = {plus}, t = {minus}")


def _cmd_recover_naive(args) -> int:
    coefficient = _load_polynomial(args.coeff)
    outcome = germs.recover_minmax(coefficient)
    if outcome.status == "determined":
        text = f"determined: m = {outcome.m}, M = {outcome.M}"
    else:
        text = f"ambiguous: {outcome.reason}"
    return _emit(args, outcome.to_json(), text)


def _parse_poly_arg(args) -> germs.PolynomialGerm:
    return germs.parse_germ(_read_source(args.poly), nvars=args.dim)


def _cmd_inertia(args) -> int:
    inertia = germs.hessian_inertia(_parse_poly_arg(args))
    text = (
        f"s = {inertia.plus}, t = {inertia.minus}, rank = {inertia.rank}, "
        f"corank = {inertia.corank}, index = {inertia.index}"
    )
    return _emit(args, inertia.to_json(), text)


def _cmd_split(args) -> int:
    result = germs.split_jet(_parse_poly_arg(args), args.jet)
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


def _int_at_least(low: int):
    """An argparse type for integers >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


class _Deferred:
    """A command's parser, built only when argparse hands it the rest of argv.

    argparse parses a command's options with the one subparser whose name it
    reads, while top-level usage, --help and the error for an unknown command
    use only the names and help lines given to add_parser.  So a request
    builds the top-level parser and the parser of its own command instead of
    all sixteen, which cost several times the work of a median germ request.
    It is the parser_class of every add_subparsers below: add_parser passes
    its options= keyword on to it, a function that adds the command's
    options to the parser built here.
    """

    def __init__(self, options, **kwargs):
        self._options = options
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._options(parser)
        return parser.parse_known_args(args, namespace)


def _commands(parser: argparse.ArgumentParser, dest: str):
    return parser.add_subparsers(dest=dest, required=True, parser_class=_Deferred)


def _json_option(parser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _beta_options(parser) -> None:
    kinds = _commands(parser, "kind")
    for kind, (help_text, names, _) in _CLOSED_FORMS.items():
        kinds.add_parser(kind, options=_closed_form_options(names), help=help_text)
    kinds.add_parser(
        "expr", options=_expr_options, help="evaluate beta of a set-expression JSON file"
    )


def _closed_form_options(names):
    def options(parser) -> None:
        _json_option(parser)
        for name in names:
            parser.add_argument(f"--{name}", type=_int_at_least(0), required=True)
        parser.set_defaults(func=_cmd_beta_closed)

    return options


def _expr_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("source", help="path to expression JSON, or - for stdin")
    parser.set_defaults(func=_cmd_beta_expr)


def _zeta_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--plus", type=int, required=True)
    parser.add_argument("--minus", type=int, required=True)
    parser.add_argument(
        "--selector", choices=list(arcspace.SELECTORS), default=arcspace.NAIVE
    )
    parser.add_argument("--order", type=_int_at_least(1), default=6)
    parser.add_argument("--strata", action="store_true", help="dump the stratum reports")
    parser.set_defaults(func=_cmd_zeta)


def _recover_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--plus-coeff", required=True, dest="plus_coeff")
    parser.add_argument("--minus-coeff", required=True, dest="minus_coeff")
    parser.set_defaults(func=_cmd_recover)


def _recover_naive_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--coeff", required=True)
    parser.set_defaults(func=_cmd_recover_naive)


def _poly_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--poly", required=True, help="germ text, file, or -")
    parser.add_argument(
        "--dim", type=_int_at_least(1), default=None, help="override variable count (>= 1)"
    )


def _inertia_options(parser) -> None:
    _poly_options(parser)
    parser.set_defaults(func=_cmd_inertia)


def _split_options(parser) -> None:
    _poly_options(parser)
    parser.add_argument("--jet", type=_int_at_least(3), default=3, help="jet order (>= 3)")
    parser.set_defaults(func=_cmd_split)


def _discriminate_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--f", required=True, help="first germ text, file, or -")
    parser.add_argument("--g", required=True, help="second germ text, file, or -")
    parser.add_argument("--order", type=_int_at_least(1), default=6)
    parser.set_defaults(func=_cmd_discriminate)


def _selfcheck_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--max", type=_int_at_least(2), default=12)
    parser.set_defaults(func=_cmd_selfcheck)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arczeta",
        description=(
            "Exact virtual Poincare polynomials of signature quadrics and "
            "zeta functions of quadratic germs"
        ),
    )
    commands = _commands(parser, "command")
    commands.add_parser("beta", options=_beta_options, help="virtual Poincare polynomials")
    commands.add_parser(
        "zeta", options=_zeta_options, help="zeta series of a diagonal quadratic germ"
    )
    commands.add_parser(
        "recover", options=_recover_options, help="square counts from signed T^2 coefficients"
    )
    commands.add_parser(
        "recover-naive",
        options=_recover_naive_options,
        help="min/max from a naive T^2 coefficient",
    )
    commands.add_parser(
        "inertia", options=_inertia_options, help="Hessian inertia of a polynomial germ"
    )
    commands.add_parser(
        "split", options=_split_options, help="jet-level splitting of a singular germ"
    )
    commands.add_parser(
        "discriminate", options=_discriminate_options, help="compare zeta data of two germs"
    )
    commands.add_parser("selfcheck", options=_selfcheck_options, help="run the identity grids")
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ArcZetaError as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "detail": str(exc)}, sort_keys=True
            )
        )
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
