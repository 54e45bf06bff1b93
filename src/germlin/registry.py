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
                     Every series here is z u(z^p), so ``certify`` runs
                     on the quotient by z -> z^p, which maps f and f^-1
                     to the Mobius w/(1 - w) and w/(1 + w), and so at
                     order 2 (see :mod:`germlin.group_cert`); the test
                     reads the generators' rows, not this id.

Form ids:

* ``ex6.1``          the degree-k family in four variables, 2 <= k <=
                     MAX_EX61_K, with parameters (a, b, c, alpha, beta,
                     gamma); it carries the meromorphic first integral
                     Q / x^(k+1), where Omega = -(k+1) Q dx + x dQ.  The
                     default parameter sets pin beta = (-1)^k alpha so that
                     (0, 1, -1, 0) is a singular point for every k.  Omega
                     and Q are written from their monomials straight into
                     the integer form of their coefficients.
* ``ex6.2``          the three-variable integrable form with polynomial
                     first integral x^2(y^2+z^2)/2 - x^4 y^4/4 - x^4 z^4/4
                     and tangent cone 2x(y^2+z^2), written from their
                     monomials as well; the expression strings they equal
                     are in the docstring of ``_ex62``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .cyclotomic import zeta
from .germs import Germ
from .group_cert import LoadedPresentation, _load_presentation_data
from .jets import DEFAULT_ORDER, Jet
from .pforms import MultiPoly, PForm1, _integer_poly, _pack

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

# The largest degree k of ex6.1 (``--k``).  Its cost grows with k through the
# powers of the point that ``forms kupka`` evaluates: at four 4000-digit
# coordinates it takes about 1.2 s at k = 64, 2 s at k = 96 and 3 s at
# k = 128 (2-vCPU Xeon, Python 3.11).
MAX_EX61_K = 64


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
    """omega and Q of ex6.1, written term by term in their integer form.  With
    (u, s, t) running over (y, a, alpha), (z, b, beta) and (w, c, gamma):

        omega = sum (t u^(k+1) - s x^2 u^(k-1)) dx + sum x u^(k-2) (s x^2 - t u^2) du,
        Q     = x^(k+1) + sum (s x^2 u^(k-1) / (k-1) - t u^(k+1) / (k+1)).

    No two terms of one coefficient share a monomial, so none cancels, and
    every numerator below is nonzero.  The six parameters are written over
    their common denominator D, and Q over D lcm(k-1, k+1).
    """
    if k < 2:
        raise RegistryError("ex6.1 needs k >= 2")
    if k > MAX_EX61_K:
        raise RegistryError(f"ex6.1 needs k <= {MAX_EX61_K}, got {k}")
    if len(params) != 6:
        raise RegistryError("ex6.1 takes six parameters a,b,c,alpha,beta,gamma")
    values = [Fraction(v) for v in params]
    if any(v == 0 for v in values):
        raise RegistryError("ex6.1 parameters must be nonzero")
    den = lcm(*[v.denominator for v in values])
    a, b, c, al, be, ga = (v.numerator * (den // v.denominator) for v in values)
    q_den = den * lcm(k - 1, k + 1)
    s_scale, t_scale = q_den // (den * (k - 1)), q_den // (den * (k + 1))

    def mono(ex: int, u: int, eu: int) -> int:
        """The key of x^ex * (variable u)^eu, u = 1, 2, 3."""
        exps = [ex, 0, 0, 0]
        exps[u] = eu
        return _pack(exps)

    dx: dict = {}
    du = []
    q = {mono(k + 1, 1, 0): q_den}
    for u, (s, t) in enumerate(((a, al), (b, be), (c, ga)), start=1):
        dx[mono(2, u, k - 1)] = -s
        dx[mono(0, u, k + 1)] = t
        du.append(_integer_poly(4, den, {mono(3, u, k - 2): s, mono(1, u, k): -t}))
        q[mono(2, u, k - 1)] = s * s_scale
        q[mono(0, u, k + 1)] = -t * t_scale
    omega = PForm1(4, [_integer_poly(4, den, dx)] + du)
    return omega, _integer_poly(4, q_den, q)


def _ex62() -> FormExample:
    """ex6.2 from its monomials: the form, the first integral and the cone are

        ((y^2 + z^2) - x^2*(y^4 + z^4))*dx + x*y*(1 - x^2*y^2)*dy + z*x*(1 - x^2*z^2)*dz,
        x^2*(y^2 + z^2)/2 - x^4*y^4/4 - x^4*z^4/4,
        2*x*(y^2 + z^2).
    """
    def poly(den: int, nums: dict) -> MultiPoly:
        return _integer_poly(3, den, {_pack(e): v for e, v in nums.items()})
    omega = PForm1(3, [
        poly(1, {(0, 2, 0): 1, (0, 0, 2): 1, (2, 4, 0): -1, (2, 0, 4): -1}),
        poly(1, {(1, 1, 0): 1, (3, 3, 0): -1}),
        poly(1, {(1, 0, 1): 1, (3, 0, 3): -1}),
    ])
    integral = poly(4, {(2, 2, 0): 2, (2, 0, 2): 2, (4, 4, 0): -1, (4, 0, 4): -1})
    cone = poly(1, {(1, 2, 0): 2, (1, 0, 2): 2})
    return FormExample(
        variables=("x", "y", "z"), omega=omega, first_integral=integral, expected_cone=cone
    )


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
        return _ex62()
    raise RegistryError(f"unknown form example {example_id!r}")
