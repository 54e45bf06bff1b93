"""Built-in registry of the bundled group and foliation examples.

Each group entry is a presentation spec, the dict a presentation file holds
(``field.conductor``, ``field.constraints``, ``generators`` and optional
``witnesses``), and loads through the file loader of :mod:`germlin.group_cert`
with the same checks and limits.  Where a scalar is pinned by polynomial
constraints, every root of unity satisfying them yields its own presentation,
and callers are expected to run their checks against all of them.

Group ids:

* ``ex4.1``          six generators z/a (x4), z/(a+z), z/(a - a^5 z) with
                     a^6 = 1 and a = 1/(1-a); ships the known conjugacy
                     witness for the pair (5,1).
* ``g10`` ``g12`` ``g12p`` ``g14`` ``g18`` ``g18p``
                     the analogous families with 10/12/12/14/18/18
                     generators and the constraints a^3+a, a, a^3+a^2,
                     a^5+a^3+a, a, a^5+a^4+a^3 = 1/(1-a) respectively.
* ``ex4.3``          the pair f = z/(1-z^p)^(1/p), f^-1 = z/(1+z^p)^(1/p),
                     parameterized by p (default 1); the rotation
                     h(z) = zeta_{2p} z conjugating f^-1 to f in the ambient
                     group and the closed form of the iterates are
                     ex43_ambient_conjugator and ex43_iterate_expr.

Form ids:

* ``ex6.1``          the degree-k family in four variables with parameters
                     (a, b, c, alpha, beta, gamma); it carries the
                     meromorphic first integral Q / x^(k+1), where
                     Omega = -(k+1) Q dx + x dQ.  The default
                     parameter sets pin beta = (-1)^k alpha so that
                     (0, 1, -1, 0) is a singular point for every k.
* ``ex6.2``          the three-variable integrable form with polynomial
                     first integral x^2(y^2+z^2)/2 - x^4 y^4/4 - x^4 z^4/4
                     and tangent cone 2x(y^2+z^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cyclotomic import zeta
from .germs import Germ
from .group_cert import LoadedPresentation, _load_presentation_data
from .jets import DEFAULT_ORDER, Jet
from .pforms import MultiPoly, PForm1, form_from_string, poly_from_string

__all__ = [
    "GROUP_EXAMPLES",
    "FORM_EXAMPLES",
    "RegistryError",
    "build_group_example",
    "build_form_example",
    "ex43_ambient_conjugator",
    "ex43_iterate_expr",
    "FormExample",
    "default_parameter_sets",
]


class RegistryError(ValueError):
    """Raised for unknown example ids or bad example parameters."""


def _family(count: int, constraint: str) -> dict:
    """count generators z/a (count - 2 times), z/(a + z), z/(a - a^(count-1) z)
    over the roots a of unity of conductor count pinned by the constraint."""
    return {
        "field": {"conductor": count, "constraints": [constraint]},
        "generators": ["z/a"] * (count - 2) + ["z/(a + z)", f"z/(a - a^{count - 1}*z)"],
    }


_FAMILIES = {
    "ex4.1": {
        **_family(6, "a = 1/(1 - a)"),
        # g_1 = f_1 o f_5 o f_1^4 conjugates the pair (5, 1)
        "witnesses": {"(5,1)": [[1, 1], [5, 1], [1, 4]]},
    },
    "g10": _family(10, "a^3 + a = 1/(1 - a)"),
    "g12": _family(12, "a = 1/(1 - a)"),
    "g12p": _family(12, "a^3 + a^2 = 1/(1 - a)"),
    "g14": _family(14, "a^5 + a^3 + a = 1/(1 - a)"),
    "g18": _family(18, "a = 1/(1 - a)"),
    "g18p": _family(18, "a^5 + a^4 + a^3 = 1/(1 - a)"),
}

GROUP_EXAMPLES = tuple(list(_FAMILIES) + ["ex4.3"])
FORM_EXAMPLES = ("ex6.1", "ex6.2")


def build_group_example(
    example_id: str, order: Optional[int] = None, p: Optional[int] = None
) -> list[LoadedPresentation]:
    """Load a registry group example; one presentation per pinned root.

    ``order`` defaults to DEFAULT_ORDER, as in a presentation file.
    """
    if example_id == "ex4.3":
        p = 1 if p is None else p
        if p < 1:
            raise RegistryError("ex4.3 needs p >= 1")
        spec = {"generators": [f"z / pow(1 {sign} z^{p}, 1/{p})" for sign in "-+"]}
    elif example_id in _FAMILIES:
        spec = _FAMILIES[example_id]
    else:
        raise RegistryError(f"unknown group example {example_id!r}")
    loaded = _load_presentation_data(spec, order)
    if example_id == "ex4.3":
        loaded[0].label = f"p={p}"
    return loaded


def ex43_ambient_conjugator(p: int, order: int = DEFAULT_ORDER) -> Germ:
    """The rotation h(z) = zeta_{2p} z with h o f^-1 o h^-1 = f for ex4.3."""
    mu = zeta(2 * p)
    return Germ(Jet([0, mu] + [0] * (order - 1), order=order))


def ex43_iterate_expr(p: int, n: int) -> str:
    """Closed form of the n-th iterate of the ex4.3 generator."""
    return f"z / pow(1 - {n}*z^{p}, 1/{p})"


@dataclass
class FormExample:
    variables: tuple[str, ...]
    omega: PForm1
    first_integral: Optional[MultiPoly] = None
    mero_numerator: Optional[MultiPoly] = None
    mero_denominator: Optional[MultiPoly] = None
    kupka_point: Optional[tuple] = None
    expected_cone: Optional[MultiPoly] = None


def default_parameter_sets(k: int) -> list[tuple]:
    """Two parameter tuples (a, b, c, alpha, beta, gamma) per degree k.

    beta = (-1)^k * alpha keeps the reference point (0, 1, -1, 0) on the
    singular locus for every k.
    """
    sign = (-1) ** k
    return [(1, 1, 1, 1, sign, 1), (2, 3, 5, 7, 7 * sign, 11)]


def _kupka_family(k: int, params: tuple) -> tuple[PForm1, MultiPoly]:
    if k < 2:
        raise RegistryError("ex6.1 needs k >= 2")
    if len(params) != 6:
        raise RegistryError("ex6.1 takes six parameters a,b,c,alpha,beta,gamma")
    a, b, c, al, be, ga = (Fraction(v) for v in params)
    if any(v == 0 for v in (a, b, c, al, be, ga)):
        raise RegistryError("ex6.1 parameters must be nonzero")
    n = 4
    x = MultiPoly.variable(n, 0)
    y = MultiPoly.variable(n, 1)
    z = MultiPoly.variable(n, 2)
    w = MultiPoly.variable(n, 3)
    dx_coeff = (
        -(x**2) * (y ** (k - 1) * a + z ** (k - 1) * b + w ** (k - 1) * c)
        + y ** (k + 1) * al
        + z ** (k + 1) * be
        + w ** (k + 1) * ga
    )
    omega = PForm1(
        n,
        [
            dx_coeff,
            x * y ** (k - 2) * (x**2 * a - y**2 * al),
            x * z ** (k - 2) * (x**2 * b - z**2 * be),
            x * w ** (k - 2) * (x**2 * c - w**2 * ga),
        ],
    )
    q = (
        x**2
        * (
            y ** (k - 1) * Fraction(a, k - 1)
            + z ** (k - 1) * Fraction(b, k - 1)
            + w ** (k - 1) * Fraction(c, k - 1)
        )
        - y ** (k + 1) * Fraction(al, k + 1)
        - z ** (k + 1) * Fraction(be, k + 1)
        - w ** (k + 1) * Fraction(ga, k + 1)
        + x ** (k + 1)
    )
    return omega, q


def build_form_example(
    example_id: str, k: Optional[int] = None, params: Optional[tuple] = None
) -> FormExample:
    if example_id == "ex6.1":
        if k is None:
            k = 2
        if params is None:
            params = default_parameter_sets(k)[0]
        omega, q = _kupka_family(k, tuple(params))
        x = MultiPoly.variable(4, 0)
        return FormExample(
            variables=("x", "y", "z", "w"),
            omega=omega,
            mero_numerator=q,
            mero_denominator=x ** (k + 1),
            kupka_point=(0, 1, -1, 0),
        )
    if example_id == "ex6.2":
        variables = ("x", "y", "z")
        omega = form_from_string(
            "((y^2 + z^2) - x^2*(y^4 + z^4))*dx"
            " + x*y*(1 - x^2*y^2)*dy + z*x*(1 - x^2*z^2)*dz",
            variables=variables,
        )
        integral = poly_from_string(
            "x^2*(y^2 + z^2)/2 - x^4*y^4/4 - x^4*z^4/4", variables=variables
        )
        cone = poly_from_string("2*x*(y^2 + z^2)", variables=variables)
        return FormExample(
            variables=variables,
            omega=omega,
            first_integral=integral,
            expected_cone=cone,
        )
    raise RegistryError(f"unknown form example {example_id!r}")
