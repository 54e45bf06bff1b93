"""Command-line front end.

Three commands over presentation/form inputs, from files or the built-in
example registry, all emitting deterministic JSON:

* ``germlin certify``    irreducibility certification of a presentation,
* ``germlin linearize``  the order-by-order linearization algorithm,
* ``germlin forms``      integrability / tangent-cone / Kupka / first-integral
                         / blow-up pullback checks on polynomial 1-forms.

Exit codes: 0 when every check resolves positively, 1 when some check is
refuted or unresolved, 2 for input errors (with a diagnostic on stderr).

Output is compact JSON, or with ``--pretty`` the same document indented by
two spaces, always as ``json.dumps`` writes the payload.  ``certify`` lists
every pair of generators at every root, though each root holds only a few
distinct resolution objects and a Galois image holds its first root's.  So
it writes each report's ``"conjugacy"`` value itself, in one way for every
report: it sorts the pairs, encodes each distinct resolution object once,
and reuses the text of a value whose pairs hold the same objects; ``json``
writes the rest (:func:`_certify_document`).
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


# the encoders of json.dumps(payload, separators=(",", ":")) and of
# json.dumps(payload, indent=2), built once
_ENCODERS = {
    False: json.JSONEncoder(separators=(",", ":")),
    True: json.JSONEncoder(indent=2),
}


def _encode(payload: dict, pretty: bool) -> str:
    return _ENCODERS[pretty].encode(payload)


def _emit(payload: dict, pretty: bool) -> None:
    sys.stdout.write(_encode(payload, pretty) + "\n")


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


# the depth of a report's "conjugacy" object in the certify document:
# document, "solutions", solution, "report", "conjugacy"
_CONJUGACY_DEPTH = 4


def _conjugacy_text(
    conjugacy: dict, encoder: json.JSONEncoder, memo: dict
) -> tuple[str, bool]:
    """The text of a report's ``"conjugacy"`` value, its pairs sorted, as
    ``encoder`` lays it out at its depth, and whether each of its
    resolutions is positive.

    Each distinct resolution object is encoded once.  ``memo`` keeps the
    text by the pairs and the identities of their resolutions, so a Galois
    image, whose report holds its first root's resolution objects, reuses
    that root's text.  The reports outlive ``memo``, so no identity in it
    passes to another object.
    """
    pairs = tuple(sorted(conjugacy))
    resolutions = [conjugacy[pair] for pair in pairs]
    ids = tuple(map(id, resolutions))
    found = memo.get((pairs, ids))
    if found is None:
        distinct = dict(zip(ids, resolutions))
        encoded = {key: encoder.encode(r.to_json()) for key, r in distinct.items()}
        indent, colon = encoder.indent, encoder.key_separator
        inner = close = ""
        if indent is not None and pairs:
            # laid out as json lays out an object at this depth: each pair,
            # and so each line of its resolution, one level further in
            inner = "\n" + " " * (indent * (_CONJUGACY_DEPTH + 1))
            close = inner[:-indent]
            encoded = {key: text.replace("\n", inner) for key, text in encoded.items()}
        items = [f'"({i},{j})"{colon}{encoded[key]}' for (i, j), key in zip(pairs, ids)]
        text = "{" + inner + ("," + inner).join(items) + close + "}"
        found = memo[pairs, ids] = (text, all(r.positive for r in distinct.values()))
    return found


# While the certify payload is encoded, each report's "conjugacy" value is
# _PLACEHOLDER; the value's text then replaces the encoded placeholder.  Only
# a string holding a NUL encodes to text containing _PLACEHOLDER_TEXT, and no
# other string of the document holds one: the input is a registry name or a
# path, and a path with a NUL exits 2 ("embedded null byte"); keys are fixed
# or names matching ``group_cert._NAME_RE``; labels and scalars are
# ``format_scalar`` text.
_PLACEHOLDER = "\x00"
_PLACEHOLDER_TEXT = json.dumps(_PLACEHOLDER)


def _certify_document(source: str, loaded, reports, max_len: int, indent: Optional[int]):
    """(text, certified): the certify document of ``reports``, byte for byte
    ``json.dumps`` of the payload that holds each report's ``to_json()``,
    compact (``indent=None``) or indented by two spaces (``indent=2``).

    The payload is encoded by :func:`_encode` with ``_PLACEHOLDER`` for each
    report's ``"conjugacy"`` value; the text of that value
    (:func:`_conjugacy_text`) then takes the placeholder's place."""
    pretty = indent is not None
    encoder = _ENCODERS[pretty]
    memo: dict = {}
    texts, solutions = [], []
    certified = True
    for item, report in zip(loaded, reports):
        text, positive = _conjugacy_text(report.conjugacy, encoder, memo)
        ok = report.product_ok and positive
        certified = certified and ok
        texts.append(text)
        solutions.append(
            {
                "label": item.label,
                "scalars": _scalars_json(item.scalars),
                "report": report._json(_PLACEHOLDER, ok),
            }
        )
    payload = {
        "command": "certify",
        "input": source,
        "order": loaded[0].presentation.order,
        "max_word_len": max_len,
        "solutions": solutions,
        "certified": certified,
    }
    parts = _encode(payload, pretty).split(_PLACEHOLDER_TEXT)
    return "".join(map(str.__add__, parts, texts + [""])), certified


def cmd_certify(args) -> int:
    if not 0 <= args.max_word_len <= MAX_WORD_LEN:
        raise InputError(
            f"--max-word-len must be between 0 and {MAX_WORD_LEN}, got {args.max_word_len}"
        )
    source, loaded = _load_presentations(args)
    reports = certify_roots(loaded, args.max_word_len)
    text, certified = _certify_document(
        source, loaded, reports, args.max_word_len, 2 if args.pretty else None
    )
    sys.stdout.write(text + "\n")
    return EXIT_OK if certified else EXIT_REFUTED


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
    # every other subcommand would ignore these options
    for option, subcommand in (("point", "kupka"), ("chart", "pullback")):
        if getattr(args, option) is not None and args.subcommand != subcommand:
            raise InputError(f"--{option} applies only to forms {subcommand}")
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
