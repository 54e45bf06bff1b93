"""Command-line front end.

Three commands over presentation/form inputs, from files or the built-in
example registry, all emitting deterministic JSON:

* ``germlin certify``    irreducibility certification of a presentation,
* ``germlin linearize``  the order-by-order linearization algorithm,
* ``germlin forms``      integrability / tangent-cone / Kupka / first-integral
                         / blow-up pullback checks on polynomial 1-forms.

Exit codes: 0 when every check resolves positively, 1 when some check is
refuted or unresolved, 2 for input errors (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Optional

from .cyclotomic import _CYCLO_RE, format_scalar, parse_scalar
from .expressions import ExpressionError
from .group_cert import (
    DEFAULT_MAX_WORD_LEN,
    MAX_CONDUCTOR,
    MAX_WORD_LEN,
    LoadedPresentation,
    PresentationError,
    certify_roots,
    load_presentation_file,
)
from .jets import DEFAULT_ORDER
from .linearizer import group_order, linearize
from .pforms import (
    PForm1,
    _cone_matches_restriction,
    blowup_chart_pullback,
    check_form_degree,
    first_integral_check,
    form_from_string,
    form_to_string,
    integrability_check,
    kupka_test,
    meromorphic_first_integral_check,
    poly_from_string,
    poly_to_string,
    restrict_to_exceptional,
    tangent_cone,
    total_degree,
)
from .registry import (
    FORM_EXAMPLES,
    GROUP_EXAMPLES,
    FormExample,
    RegistryError,
    build_form_example,
    build_group_example,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Any problem with the provided input (exit code 2)."""


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _select(args, kind: str, examples: tuple, build, load):
    """(source, value): ``build(args.example)`` or ``load(args.input)``."""
    if args.example is not None and args.input is not None:
        raise InputError("give either --example or an input file, not both")
    if args.example is not None:
        if args.example not in examples:
            raise InputError(
                f"unknown example {args.example!r}; {kind} examples: " + ", ".join(examples)
            )
        return args.example, build(args.example)
    if args.input is None:
        raise InputError("an input file or --example is required")
    return args.input, load(args.input)


def _only_for(args, example: str, *options: str) -> None:
    """Refuse an option that every input but ``--example example`` ignores."""
    for option in options:
        if getattr(args, option) is not None and args.example != example:
            raise InputError(f"--{option} applies only to --example {example}")


def _load_presentations(args) -> tuple[str, list[LoadedPresentation]]:
    _only_for(args, "ex4.3", "p")
    return _select(
        args,
        "group",
        GROUP_EXAMPLES,
        lambda example: build_group_example(example, order=args.order, p=args.p),
        lambda path: load_presentation_file(path, order=args.order),
    )


def _scalars_json(scalars: dict) -> dict:
    return {name: format_scalar(value) for name, value in sorted(scalars.items())}


def cmd_certify(args) -> int:
    if not 0 <= args.max_word_len <= MAX_WORD_LEN:
        raise InputError(
            f"--max-word-len must be between 0 and {MAX_WORD_LEN}, got {args.max_word_len}"
        )
    source, loaded = _load_presentations(args)
    reports = certify_roots(loaded, args.max_word_len)
    solutions = []
    all_ok = True
    for item, report in zip(loaded, reports):
        all_ok = all_ok and report.certified
        solutions.append(
            {
                "label": item.label,
                "scalars": _scalars_json(item.scalars),
                "report": report.to_json(),
            }
        )
    payload = {
        "command": "certify",
        "input": source,
        "order": loaded[0].presentation.order,
        "max_word_len": args.max_word_len,
        "solutions": solutions,
        "certified": all_ok,
    }
    _emit(payload, args.pretty)
    return EXIT_OK if all_ok else EXIT_REFUTED


def cmd_linearize(args) -> int:
    source, loaded = _load_presentations(args)
    solutions = []
    all_ok = True
    for item in loaded:
        pres = item.presentation
        mults = {g.multiplier for g in pres.gens}
        if len(mults) > 1:
            raise InputError(
                f"{source}: generators have unequal multipliers; certify first"
            )
        result = linearize(pres)
        ok = result.succeeded
        all_ok = all_ok and ok
        entry = {
            "label": item.label,
            "scalars": _scalars_json(item.scalars),
            "result": result.to_json(),
            "group_order": group_order(result),
        }
        solutions.append(entry)
    payload = {
        "command": "linearize",
        "input": source,
        "order": loaded[0].presentation.order,
        "solutions": solutions,
        "linearized": all_ok,
    }
    _emit(payload, args.pretty)
    return EXIT_OK if all_ok else EXIT_REFUTED


def _parse_point(text: str, nvars: int) -> tuple:
    # a comma inside the brackets of cyclo(n)[c0,c1,...] does not split
    parts = [p for p in re.split(r",(?![^\[]*\])", text) if p.strip()]
    if len(parts) != nvars:
        raise InputError(f"--point needs {nvars} comma-separated coordinates")
    try:
        # bounded before any field is built: a field factors its conductor
        texts = [p.strip().replace(" ", "") for p in parts]
        conductors = [int(m.group(1)) for m in map(_CYCLO_RE.match, texts) if m]
        if min(conductors, default=1) < 1:
            raise InputError(f"the --point conductors must be at least 1, got {min(conductors)}")
        if lcm(*conductors) > MAX_CONDUCTOR:
            raise InputError(f"the lcm of the --point conductors must be at most {MAX_CONDUCTOR}")
        return tuple(parse_scalar(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --point entry: {exc}") from exc


def _parse_params(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 6:
        raise InputError("--params needs six values a,b,c,alpha,beta,gamma")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --params entry: {exc}") from exc


def _load_form(args) -> tuple[str, FormExample]:
    def build(example: str) -> FormExample:
        params = _parse_params(args.params) if args.params else None
        return build_form_example(example, k=args.k, params=params)

    _only_for(args, "ex6.1", "k", "params")
    return _select(args, "form", FORM_EXAMPLES, build, _read_form_file)


def _read_form_file(path: str) -> FormExample:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    variables = data.get("vars", ["x", "y", "z"])
    if not (
        isinstance(variables, list)
        and 2 <= len(variables) <= 4
        and all(isinstance(v, str) for v in variables)
        and len(set(variables)) == len(variables)
    ):
        raise InputError(f'{path}: field "vars" must list 2 to 4 distinct names')
    for name in variables:
        if name[:1] == "d" and name[1:] in variables:
            raise InputError(
                f'{path}: field "vars": {name!r} clashes with '
                f"the differential of {name[1:]!r}"
            )
    variables = tuple(variables)
    form_text = data.get("form")
    if not isinstance(form_text, str):
        raise InputError(f'{path}: field "form" must be an expression string')
    try:
        omega = form_from_string(form_text, variables=variables)
    except ExpressionError as exc:
        raise InputError(f'{path}: field "form": {exc}') from exc
    if not isinstance(omega, PForm1):
        raise InputError(f'{path}: field "form" must be a 1-form')
    polys = {}
    for key in ("integral", "numerator", "denominator"):
        if key in data:
            if not isinstance(data[key], str):
                raise InputError(f'{path}: field "{key}" must be an expression string')
            try:
                polys[key] = poly_from_string(data[key], variables=variables)
            except ExpressionError as exc:
                raise InputError(f'{path}: field "{key}": {exc}') from exc
    if "numerator" in polys and "denominator" in polys:
        # the meromorphic check builds Q dP - P dQ
        degree = total_degree(polys["numerator"]) + total_degree(polys["denominator"]) - 1
        try:
            check_form_degree(degree)
        except ExpressionError as exc:
            raise InputError(
                f'{path}: fields "numerator" and "denominator": Q dP - P dQ: {exc}'
            ) from exc
    return FormExample(
        variables=variables,
        omega=omega,
        first_integral=polys.get("integral"),
        mero_numerator=polys.get("numerator"),
        mero_denominator=polys.get("denominator"),
    )


def cmd_forms(args) -> int:
    source, form = _load_form(args)
    variables, omega = form.variables, form.omega
    payload = {
        "command": f"forms {args.subcommand}",
        "input": source,
        "vars": list(variables),
    }
    verdict: bool

    if args.subcommand == "integrable":
        verdict = integrability_check(omega)
        payload["integrable"] = verdict

    elif args.subcommand == "cone":
        cone = tangent_cone(omega)
        payload["dicritical"] = cone.dicritical
        payload["cone"] = (
            None if cone.cone is None else poly_to_string(cone.cone, variables)
        )
        verdict = not cone.dicritical

    elif args.subcommand == "kupka":
        if args.point:
            point = _parse_point(args.point, len(variables))
        elif form.kupka_point is not None:
            point = form.kupka_point
        else:
            raise InputError("kupka needs --point x,y,... coordinates")
        verdict = kupka_test(omega, point)
        payload["point"] = [format_scalar(v) for v in point]
        payload["kupka"] = verdict

    elif args.subcommand == "first-integral":
        integral, num, den = form.first_integral, form.mero_numerator, form.mero_denominator
        if integral is not None:
            verdict = first_integral_check(omega, integral)
            payload["kind"] = "holomorphic"
            payload["integral"] = poly_to_string(integral, variables)
        elif num is not None and den is not None:
            verdict = meromorphic_first_integral_check(omega, num, den)
            payload["kind"] = "meromorphic"
            payload["numerator"] = poly_to_string(num, variables)
            payload["denominator"] = poly_to_string(den, variables)
        else:
            raise InputError(
                'first-integral needs "integral" or "numerator"/"denominator"'
            )
        payload["first_integral"] = verdict

    elif args.subcommand == "pullback":
        chart = args.chart or variables[0]
        if chart not in variables:
            raise InputError(f"--chart must be one of {', '.join(variables)}")
        c = variables.index(chart)  # the file's names, not the default x, y, z, w
        m, reduced = blowup_chart_pullback(omega, c)
        payload["chart"] = chart
        payload["exceptional_multiplicity"] = m
        restricted = restrict_to_exceptional(reduced, c)
        payload["reduced"] = form_to_string(reduced, variables)
        payload["restriction"] = form_to_string(restricted, variables)
        verdict = _cone_matches_restriction(omega, c, restricted)
        payload["matches_tangent_cone"] = verdict

    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown forms subcommand {args.subcommand!r}")

    _emit(payload, args.pretty)
    return EXIT_OK if verdict else EXIT_REFUTED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors follow the exit-code contract: one
    stderr line, ``germlin: error: ...``, and exit 2, without the usage
    block.  Subparsers inherit the class."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"germlin: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, with_search: bool = False):
    parser.add_argument("input", nargs="?", help="presentation JSON file")
    parser.add_argument("--example", help="built-in example id")
    parser.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"truncation order N (default {DEFAULT_ORDER} or the file's)",
    )
    parser.add_argument(
        "--p", type=int, default=None, help="parameter p for ex4.3"
    )
    if with_search:
        parser.add_argument(
            "--max-word-len",
            type=int,
            default=DEFAULT_MAX_WORD_LEN,
            help="bound for the conjugator word search",
        )
    parser.add_argument(
        "--pretty", action="store_true", help="indented JSON output"
    )


def _add_form_options(parser: argparse.ArgumentParser, default=None):
    # the forms parser and each subcommand parser take the same options;
    # default=SUPPRESS on a subcommand keeps a value given before its name
    parser.add_argument("--example", default=default, help="built-in example id")
    parser.add_argument("--k", type=int, default=default, help="degree for ex6.1")
    parser.add_argument(
        "--params", default=default, help="six values a,b,c,alpha,beta,gamma for ex6.1"
    )
    parser.add_argument(
        "--point", default=default, help="comma-separated point coordinates"
    )
    parser.add_argument("--chart", default=default, help="blow-up chart variable name")
    parser.add_argument("--pretty", action="store_true", default=default or False)


@functools.cache  # one parser per process: building it costs more than a forms check
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="germlin",
        description="Exact certification and linearization of germ groups, "
        "and polynomial differential-form checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="irreducibility certification")
    _add_common(p_cert, with_search=True)
    p_cert.set_defaults(func=cmd_certify)

    p_lin = sub.add_parser("linearize", help="order-by-order linearization")
    _add_common(p_lin)
    p_lin.set_defaults(func=cmd_linearize)

    p_forms = sub.add_parser("forms", help="polynomial 1-form checks")
    _add_form_options(p_forms)
    p_forms.set_defaults(func=cmd_forms)
    forms_sub = p_forms.add_subparsers(dest="subcommand", required=True)
    for name in ("integrable", "cone", "kupka", "first-integral", "pullback"):
        p_sub = forms_sub.add_parser(name)
        p_sub.add_argument("input", nargs="?", help="form JSON file")
        _add_form_options(p_sub, argparse.SUPPRESS)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"germlin: error: {exc}\n")
        return EXIT_INPUT
    except (
        ExpressionError,
        PresentationError,
        RegistryError,
        ValueError,
        ZeroDivisionError,
        OSError,
    ) as exc:
        # the exit-code contract is total: any input-triggered failure is 2
        sys.stderr.write(f"germlin: error: {exc}\n")
        return EXIT_INPUT
    except RecursionError:
        # deeply nested input (parentheses, or long sums whose AST is left-deep)
        sys.stderr.write("germlin: error: input nested too deeply to evaluate\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
