"""Exact polynomial differential forms in up to four variables.

Polynomials are sparse maps from exponent multi-indices to exact scalars
(Fractions or cyclotomic elements).  A k-form (k = 1, 2, 3) is one type,
:class:`Form`: a sparse map from strictly increasing index tuples I to nonzero
polynomials, the coefficients of dx_I = dx_i1 ^ ... ^ dx_ik.  ``PForm1``,
``PForm2`` and ``PForm3`` only fix k.  The exterior derivative and the wedge
product each have one body for every degree.  On top of them this module
implements the checks used for integrable one-forms at a singular point:

* integrability            w ^ dw = 0,
* radial contraction       sum x_i a_i  (the pairing with the radial field),
* lowest homogeneous part  and the induced tangent-cone polynomial,
* one-chart blow-up pullback with extraction of the exceptional multiplicity,
* the Kupka test           w(q) = 0, dw(q) != 0,
* holomorphic and meromorphic first-integral verification.

Dicriticality is decided by the radial contraction of the lowest homogeneous
part (identically zero iff the exceptional divisor is not invariant); the
chart pullback offers an independent route, and the two are cross-checked on
the built-in examples by :func:`cone_matches_chart_pullback`.

Forms parse from expression strings such as ``"y*dx - x*dy"`` over the
variables x, y, z, w (or any given names), with ``d<name>`` the differential
of a variable and ``*`` acting as the wedge on forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .cyclotomic import CycloElem, format_scalar
from .expressions import ExpressionError, parse_expression

__all__ = [
    "MultiPoly",
    "PForm1",
    "PForm2",
    "PForm3",
    "DEFAULT_VARS",
    "exterior_d",
    "wedge",
    "integrability_check",
    "radial_contraction",
    "lowest_jet",
    "TangentCone",
    "tangent_cone",
    "blowup_chart_pullback",
    "restrict_to_exceptional",
    "cone_matches_chart_pullback",
    "kupka_test",
    "first_integral_check",
    "meromorphic_first_integral_check",
    "eval_form",
    "form_from_string",
    "poly_from_string",
    "poly_to_string",
    "form_to_string",
]

DEFAULT_VARS = ("x", "y", "z", "w")

Scalar = Union[Fraction, CycloElem]


def _sc(value) -> Scalar:
    if isinstance(value, (int, str)):
        return Fraction(value)
    return value


def _is_zero(value) -> bool:
    """Zero test for scalars and polynomials alike."""
    if isinstance(value, (CycloElem, MultiPoly)):
        return value.is_zero
    return value == 0


def _accumulate(out: dict, key, value, sign: int = 1) -> None:
    """out[key] += sign * value, dropping the key when the sum is zero."""
    s = out.get(key)
    if s is None:
        s = value if sign > 0 else -value
    else:
        s = s + value if sign > 0 else s - value
    if _is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


class MultiPoly:
    """A sparse exact polynomial: exponent tuples -> nonzero scalars."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        if not (2 <= nvars <= 4):
            raise ValueError("polynomials support 2 to 4 variables")
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            coef = _sc(coef)
            if not _is_zero(coef):
                clean[exps] = coef
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _clean(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Wraps a dict already in the checked form: exponent tuples of length
        nvars to nonzero scalars.  Arithmetic results come through here."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps, coef=1) -> "MultiPoly":
        return cls(nvars, {tuple(exps): coef})

    # -- predicates ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -------------------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def _combine(self, other, sign: int):
        if isinstance(other, (int, Fraction, CycloElem)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c, sign)
        return MultiPoly._clean(self.nvars, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            if _is_zero(_sc(other)):
                return MultiPoly.zero(self.nvars)
            return MultiPoly._clean(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if _is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly._clean(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and (self - other).is_zero

    __hash__ = None

    # -- calculus helpers ---------------------------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MultiPoly._clean(self.nvars, out)

    def evaluate(self, point: Sequence) -> Scalar:
        total: Scalar = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                if ei:
                    v = v * (_sc(xi) ** ei)
            total = total + v
        return total

    def substitute(self, i: int, value) -> "MultiPoly":
        """Replace variable i by a scalar value (the variable slot remains)."""
        value = _sc(value)
        out: dict = {}
        for e, c in self.terms.items():
            key = e[:i] + (0,) + e[i + 1 :]
            _accumulate(out, key, c * value ** e[i] if e[i] else c)
        return MultiPoly._clean(self.nvars, out)

    def min_total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly._clean(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def min_exponent(self, i: int) -> Optional[int]:
        if not self.terms:
            return None
        return min(e[i] for e in self.terms)

    def shift_down(self, i: int, m: int) -> "MultiPoly":
        """Exact division by the m-th power of variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] < m:
                raise ValueError("polynomial is not divisible by that power")
            ne = list(e)
            ne[i] -= m
            out[tuple(ne)] = c
        return MultiPoly._clean(self.nvars, out)

    def __repr__(self):
        return poly_to_string(self)


class Form:
    """A polynomial k-form  sum_I a_I dx_I  over strictly increasing index
    tuples I of length k; only nonzero coefficients are stored."""

    __slots__ = ("nvars", "coeffs")
    degree: int  # k, set by each subclass

    def __init__(self, nvars: int, coeffs: Optional[dict] = None):
        clean = {}
        for key, p in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != self.degree or list(key) != sorted(set(key)):
                raise ValueError(f"basis indices must be strictly increasing: {key}")
            if any(not (0 <= i < nvars) for i in key):
                raise ValueError(f"index out of range in {key}")
            if not isinstance(p, MultiPoly):
                p = MultiPoly.constant(nvars, p)
            if p.nvars != nvars:
                raise ValueError("variable-count mismatch")
            if not p.is_zero:
                clean[key] = p
        self.nvars = nvars
        self.coeffs = clean

    @classmethod
    def zero(cls, nvars: int) -> "Form":
        return cls(nvars, {})

    @classmethod
    def basis(cls, nvars: int, *key: int) -> "Form":
        """The basis form dx_I for the strictly increasing indices I."""
        return cls(nvars, {key: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> MultiPoly:
        return self.coeffs.get(tuple(key), MultiPoly.zero(self.nvars))

    def _combine(self, other, sign: int):
        if type(other) is not type(self) or other.nvars != self.nvars:
            return NotImplemented
        out = dict(self.coeffs)
        for key, p in other.coeffs.items():
            _accumulate(out, key, p, sign)
        return type(self)(self.nvars, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.map_coeffs(lambda p: -p)

    def scale(self, p):
        return self.map_coeffs(lambda q: q * p)

    def map_coeffs(self, fn):
        return type(self)(self.nvars, {k: fn(p) for k, p in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and (self - other).is_zero

    __hash__ = None

    def evaluate(self, point) -> dict:
        return {k: p.evaluate(point) for k, p in self.coeffs.items()}

    def __repr__(self):
        return form_to_string(self)


class PForm1(Form):
    """A polynomial 1-form  sum a_i dx_i; also built from the list [a_0, ...]."""

    degree = 1

    def __init__(self, nvars: int, coeffs=None):
        if coeffs is not None and not isinstance(coeffs, dict):
            coeffs = list(coeffs)
            if len(coeffs) != nvars:
                raise ValueError("a 1-form needs one coefficient per variable")
            coeffs = {(i,): p for i, p in enumerate(coeffs)}
        super().__init__(nvars, coeffs)


class PForm2(Form):
    """A polynomial 2-form  sum a_ij dx_i ^ dx_j, i < j."""

    degree = 2


class PForm3(Form):
    """A polynomial 3-form  sum a_ijl dx_i ^ dx_j ^ dx_l, i < j < l."""

    degree = 3


AnyForm = Union[MultiPoly, Form]


def _form_type(degree: int) -> type:
    if not 1 <= degree <= 3:
        raise ValueError(f"{degree}-forms are out of range")
    return (PForm1, PForm2, PForm3)[degree - 1]


# -- exterior calculus ---------------------------------------------------------------


def exterior_d(form: AnyForm) -> Form:
    """The exterior derivative of a polynomial (0-form), 1-form or 2-form.

    d(a dx_I) = sum_{i not in I} d_i a dx_i ^ dx_I; moving dx_i to its
    sorted place in I passes the indices of I below i, one sign each.
    """
    if isinstance(form, MultiPoly):
        return PForm1(form.nvars, [form.partial(i) for i in range(form.nvars)])
    if not isinstance(form, Form):
        raise TypeError("exterior_d takes a polynomial or a form")
    cls = _form_type(form.degree + 1)
    out: dict = {}
    for key, p in form.coeffs.items():
        for i in range(form.nvars):
            if i in key:
                continue
            dp = p.partial(i)
            if dp.is_zero:
                continue
            below = sum(1 for j in key if j < i)
            sign = -1 if below & 1 else 1
            _accumulate(out, key[:below] + (i,) + key[below:], dp, sign)
    return cls(form.nvars, out)


def wedge(u: Form, v: Form) -> Form:
    """The wedge u ^ v of a p-form and a q-form, p + q <= 3.

    a dx_I ^ b dx_J = (-1)^inv ab dx_(I+J sorted) for disjoint I, J, where
    inv counts the pairs i in I, j in J with i > j.
    """
    if not (isinstance(u, Form) and isinstance(v, Form)):
        raise TypeError("wedge expects two forms")
    if v.nvars != u.nvars:
        raise ValueError("variable-count mismatch")
    cls = _form_type(u.degree + v.degree)
    out: dict = {}
    for I, p in u.coeffs.items():
        for J, q in v.coeffs.items():
            if any(j in I for j in J):
                continue
            inv = sum(1 for i in I for j in J if i > j)
            _accumulate(out, tuple(sorted(I + J)), p * q, -1 if inv & 1 else 1)
    return cls(u.nvars, out)


def integrability_check(omega: PForm1) -> bool:
    """True iff omega ^ d(omega) vanishes identically (always true in 2 vars)."""
    if omega.nvars == 2:
        return True
    return wedge(omega, exterior_d(omega)).is_zero


def radial_contraction(omega: PForm1) -> MultiPoly:
    """The pairing sum x_i a_i of omega with the radial vector field."""
    total = MultiPoly.zero(omega.nvars)
    for (i,), p in omega.coeffs.items():
        total = total + MultiPoly.variable(omega.nvars, i) * p
    return total


def lowest_jet(omega: PForm1) -> tuple[int, PForm1]:
    """The minimal total degree nu among all coefficients and the degree-nu part."""
    if omega.is_zero:
        raise ValueError("the zero form has no lowest jet")
    nu = min(p.min_total_degree() for p in omega.coeffs.values())
    return nu, omega.map_coeffs(lambda p: p.homogeneous_part(nu))


class TangentCone(tuple):
    """(dicritical, cone): cone is the defining polynomial, None if dicritical."""

    __slots__ = ()

    def __new__(cls, dicritical: bool, cone: Optional[MultiPoly]):
        return super().__new__(cls, (dicritical, cone))

    @property
    def dicritical(self) -> bool:
        return self[0]

    @property
    def cone(self) -> Optional[MultiPoly]:
        return self[1]


def tangent_cone(omega: PForm1) -> TangentCone:
    """Radial contraction of the lowest homogeneous part of omega.

    An identically zero contraction means the exceptional divisor of the
    punctual blow-up is not invariant (dicritical).  Otherwise the homogeneous
    polynomial returned cuts out the codimension-one part of the singular
    locus of the lifted foliation on the divisor.
    """
    _, low = lowest_jet(omega)
    cone = radial_contraction(low)
    if cone.is_zero:
        return TangentCone(True, None)
    return TangentCone(False, cone)


def _chart_index(omega_nvars: int, chart, variables=DEFAULT_VARS) -> int:
    if isinstance(chart, str):
        names = list(variables[:omega_nvars])
        if chart not in names:
            raise ValueError(f"unknown chart variable {chart!r}")
        return names.index(chart)
    c = int(chart)
    if not (0 <= c < omega_nvars):
        raise ValueError(f"chart index {c} out of range")
    return c


def _blowup_substitute(p: MultiPoly, c: int) -> MultiPoly:
    # x_j -> x_c * u_j for j != c; the slot j now holds u_j.
    out: dict = {}
    for e, coef in p.terms.items():
        _accumulate(out, e[:c] + (sum(e),) + e[c + 1 :], coef)
    return MultiPoly._clean(p.nvars, out)


def blowup_chart_pullback(omega: PForm1, chart) -> tuple[int, PForm1]:
    """Pull omega back through x_j = x_c u_j and strip the x_c power.

    Returns (m, reduced) where m is the largest power of the chart variable
    dividing every coefficient of the pullback and reduced is the quotient
    form.  Slot c of the result is the chart variable; slot j != c is u_j.
    """
    if omega.is_zero:
        raise ValueError("cannot pull back the zero form")
    n = omega.nvars
    c = _chart_index(n, chart)
    t = MultiPoly.variable(n, c)
    pulled: dict = {}
    for (j,), p in omega.coeffs.items():
        subbed = _blowup_substitute(p, c)
        if j == c:
            _accumulate(pulled, (c,), subbed)
        else:
            # d(x_c u_j) = u_j dx_c + x_c du_j
            _accumulate(pulled, (c,), MultiPoly.variable(n, j) * subbed)
            pulled[(j,)] = t * subbed
    m = min(p.min_exponent(c) for p in pulled.values())
    return m, PForm1(n, pulled).map_coeffs(lambda p: p.shift_down(c, m))


def restrict_to_exceptional(form: PForm1, chart) -> PForm1:
    """Set the chart variable to zero in every coefficient."""
    c = _chart_index(form.nvars, chart)
    return form.map_coeffs(lambda p: p.substitute(c, 0))


def cone_matches_chart_pullback(omega: PForm1, chart) -> bool:
    """Cross-check of the two dicriticality routes in one chart.

    The exceptional divisor is invariant iff the du_j components of the
    reduced pullback vanish on it.  Non-dicritical case: the restriction must
    then equal (dehomogenized cone) * dx_c exactly.  Dicritical case: some
    du_j component must survive on the divisor instead.
    """
    n = omega.nvars
    c = _chart_index(n, chart)
    dicritical, cone = tangent_cone(omega)
    _, reduced = blowup_chart_pullback(omega, chart)
    restricted = restrict_to_exceptional(reduced, chart)
    if dicritical:
        return any(key != (c,) for key in restricted.coeffs)
    expected = PForm1(n, {(c,): _blowup_substitute(cone, c).substitute(c, 1)})
    return restricted == expected


def kupka_test(omega: PForm1, q: Sequence) -> bool:
    """True iff q is a singular point of omega where d(omega) does not vanish."""
    if len(q) != omega.nvars:
        raise ValueError(
            f"point has {len(q)} coordinates for {omega.nvars} variables"
        )
    if any(not _is_zero(v) for v in omega.evaluate(q).values()):
        return False
    d = exterior_d(omega)
    return any(not _is_zero(v) for v in d.evaluate(q).values())


def first_integral_check(omega: PForm1, f: MultiPoly) -> bool:
    """True iff df ^ omega = 0 exactly."""
    if f.nvars != omega.nvars:
        raise ValueError("variable-count mismatch")
    return wedge(exterior_d(f), omega).is_zero


def meromorphic_first_integral_check(
    omega: PForm1, P: MultiPoly, Q: MultiPoly
) -> bool:
    """True iff omega ^ (Q dP - P dQ) = 0 exactly (d(P/Q) ^ omega = 0 cleared
    of denominators)."""
    if Q.is_zero:
        raise ValueError("the denominator must be nonzero")
    num = exterior_d(P).scale(Q) - exterior_d(Q).scale(P)
    return wedge(omega, num).is_zero


# -- expression input and canonical text output ----------------------------------------


def eval_form(node, env: dict, variables: Sequence[str]):
    """Evaluate an AST in the forms domain over the given variable names."""
    nvars = len(variables)
    op = node[0]
    if op == "num":
        return MultiPoly.constant(nvars, node[1])
    if op == "name":
        name = node[1]
        if name in variables:
            return MultiPoly.variable(nvars, list(variables).index(name))
        if name[:1] == "d" and name[1:] in variables:
            return PForm1.basis(nvars, list(variables).index(name[1:]))
        if name in env:
            return MultiPoly.constant(nvars, env[name])
        raise ExpressionError(f"unknown name {name!r} in form expression")
    if op == "neg":
        return -eval_form(node[1], env, variables)
    if op in ("add", "sub"):
        a = eval_form(node[1], env, variables)
        b = eval_form(node[2], env, variables)
        try:
            return a + b if op == "add" else a - b
        except TypeError:
            raise ExpressionError("cannot add forms of different degrees") from None
    if op == "mul":
        a = eval_form(node[1], env, variables)
        b = eval_form(node[2], env, variables)
        if isinstance(a, MultiPoly) and isinstance(b, MultiPoly):
            return a * b
        if isinstance(a, MultiPoly):
            return b.scale(a)
        if isinstance(b, MultiPoly):
            return a.scale(b)
        if a.degree + b.degree > 3:
            raise ExpressionError("wedge products beyond 3-forms are out of range")
        return wedge(a, b)
    if op == "div":
        a = eval_form(node[1], env, variables)
        b = eval_form(node[2], env, variables)
        if not isinstance(b, MultiPoly) or len(b.terms) != 1 or any(
            any(e) for e in b.terms
        ):
            raise ExpressionError("division is only defined by nonzero constants")
        ((_, coef),) = b.terms.items()
        inv = 1 / coef if isinstance(coef, Fraction) else coef.inverse()
        return a * inv if isinstance(a, MultiPoly) else a.scale(
            MultiPoly.constant(a.nvars, inv)
        )
    if op == "ipow":
        a = eval_form(node[1], env, variables)
        if not isinstance(a, MultiPoly):
            raise ExpressionError("only polynomials take integer powers")
        if node[2] < 0:
            raise ExpressionError("polynomial powers must be nonnegative")
        return a ** node[2]
    if op == "rpow":
        raise ExpressionError("pow(..., p/q) is only defined for series")
    raise ExpressionError(f"bad AST node {op!r}")


def form_from_string(text: str, env: dict | None = None, variables=None):
    variables = tuple(variables) if variables else DEFAULT_VARS[:3]
    return eval_form(parse_expression(text), env or {}, variables)


def poly_from_string(text: str, env: dict | None = None, variables=None) -> MultiPoly:
    value = form_from_string(text, env, variables)
    if not isinstance(value, MultiPoly):
        raise ExpressionError("expected a polynomial, got a differential form")
    return value


def _monomial_str(e: tuple[int, ...], variables) -> str:
    parts = []
    for name, exp in zip(variables, e):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def poly_to_string(p: MultiPoly, variables=None) -> str:
    """Canonical text: terms in descending lexicographic exponent order."""
    variables = tuple(variables) if variables else DEFAULT_VARS[: p.nvars]
    if p.is_zero:
        return "0"
    parts = []
    for e in sorted(p.terms, key=lambda exps: tuple(-x for x in exps)):
        c = p.terms[e]
        mono = _monomial_str(e, variables)
        cs = format_scalar(c)
        if mono:
            piece = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
        else:
            piece = cs
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _wrap(p: MultiPoly, variables) -> str:
    s = poly_to_string(p, variables)
    return s if (" " not in s and not s.startswith("-")) else f"({s})"


def form_to_string(form: AnyForm, variables=None) -> str:
    """Canonical text for forms; the wedge renders as ``*`` between basis
    1-forms, matching the expression grammar."""
    if isinstance(form, MultiPoly):
        return poly_to_string(form, variables)
    variables = tuple(variables) if variables else DEFAULT_VARS[: form.nvars]
    pieces = []
    for key in sorted(form.coeffs):
        basis = "*".join(f"d{variables[i]}" for i in key)
        pieces.append(f"{_wrap(form.coeffs[key], variables)}*{basis}")
    return " + ".join(pieces) if pieces else "0"
