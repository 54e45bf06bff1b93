"""Exact polynomial differential forms in up to four variables.

Polynomials are sparse maps from exponent multi-indices to exact scalars in Q
or Q(zeta_n), stored as integral numerators over one int denominator
(:class:`MultiPoly`).  A k-form (k = 1, 2, 3) is one type,
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

Every product of two polynomials goes through one kernel, a signed sum of
products  sum +-p*q  (``_product_sum``): ``MultiPoly.__mul__`` is its one-term
case, :func:`wedge` makes one call per output basis index with every signed
product that lands there, and the meromorphic check builds each coefficient
Q d_iP - P d_iQ in one call.  Every polynomial has one stored form: numerators
over a denominator D, ints for a rational polynomial and CycloElems over 1
for coefficients in Q(zeta_n).  The kernel adds every product into one
accumulator of numerators over the lcm L of the D_p D_q, and returns that sum
divided by the common factor of L and all its coordinates; CycloElem
numerators take the same loop in their own arithmetic.  Sums, negation,
scaling by a scalar, partial derivatives, homogeneous parts, shifts,
evaluation, substitution and the blow-up substitution stay on the stored
form too, so the checks on rational forms build no Fraction but the value
that ``evaluate`` returns; ``MultiPoly.terms`` builds the coefficients for
output.  A power of a one-term polynomial is written down,
(c x^a)^e = c^e x^(e a), without products.

The checks that only ask whether a wedge vanishes (integrability and both
first-integral checks) build part of it.  For a 1-form omega != 0 and a
k-form v, ``_wedge_vanishes`` takes a pivot p with omega_p != 0 and builds
only the components (omega ^ v)_K with p in K.  This is exact: omega ^ omega
= 0 gives omega ^ (omega ^ v) = 0, and for p not in K its component at
K + {p} is +-omega_p (omega ^ v)_K plus a signed sum of terms
omega_j (omega ^ v)_(K + {p} - {j}), each at an index that contains p.  Once
those vanish, omega_p (omega ^ v)_K = 0, and polynomials over Q(zeta_n) have
no zero divisors, so (omega ^ v)_K = 0.  In four variables this builds 3 of
the 6 components of the wedge of two 1-forms, and 3 of the 4 components of
omega ^ d(omega).

Forms parse from expression strings such as ``"y*dx - x*dy"`` over the
variables x, y, z, w (or any given names), with ``d<name>`` the differential
of a variable and ``*`` acting as the wedge on forms.  Every product and
power an expression builds is checked against MAX_FORM_DEGREE first, and
every power also against ``expressions.MAX_POWER_BITS``, which bounds the
powers of constants that the degree limit cannot see.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import NamedTuple, Optional, Sequence, Union

from .cyclotomic import CycloElem, _element, _power, format_scalar
from .expressions import ExpressionError, check_power_bits, parse_expression

__all__ = [
    "MultiPoly",
    "PForm1",
    "PForm2",
    "PForm3",
    "DEFAULT_VARS",
    "MAX_FORM_DEGREE",
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
    "total_degree",
    "check_form_degree",
    "eval_form",
    "form_from_string",
    "poly_from_string",
    "poly_to_string",
    "form_to_string",
]

DEFAULT_VARS = ("x", "y", "z", "w")

# the largest total degree of a coefficient that a form expression may build:
# eval_form checks each product and power before forming it, and the form
# file loader checks deg P + deg Q - 1 of a meromorphic pair P/Q
MAX_FORM_DEGREE = 8

Scalar = Union[Fraction, CycloElem]


def _split(value) -> tuple:
    """A scalar as (a, d) with value = a / d: a an integral numerator (an int,
    or a CycloElem over 1) and d a positive int with no common factor."""
    if isinstance(value, CycloElem):
        return _element(value.n, value.num, 1), value.den
    if isinstance(value, str):
        value = Fraction(value)
    return value.numerator, value.denominator


def _over(a, d: int) -> Scalar:
    """The scalar a / d for an integral numerator a and an int d > 0."""
    return Fraction(a, d) if type(a) is int else a * Fraction(1, d)


def _accumulate(out: dict, key, value, sign: int = 1) -> None:
    """out[key] += sign * value, dropping the key when the sum is zero."""
    s = out.get(key)
    if s is None:
        s = value if sign > 0 else -value
    else:
        s = s + value if sign > 0 else s - value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class MultiPoly:
    """A sparse exact polynomial over Q or Q(zeta_n).

    Every polynomial is stored in one form: a positive int ``den`` and a dict
    ``nums`` from exponent tuples to nonzero integral numerators, each an int
    or a CycloElem over 1, with no common factor of ``den`` and all their
    coordinates; zero is {} over 1.  A rational polynomial has int numerators
    only.  ``terms`` maps exponents to the coefficients num / den (Fractions,
    or CycloElems for CycloElem numerators); it is built on first use, for
    output, and kept.  Treat it as read only.
    """

    __slots__ = ("nvars", "den", "nums", "_terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        if not (2 <= nvars <= 4):
            raise ValueError("polynomials support 2 to 4 variables")
        split = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            a, d = _split(coef)
            if a:
                split[exps] = a, d
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*[d for _, d in split.values()])
        self.nvars, self.den, self._terms = nvars, den, None
        self.nums = {e: a * (den // d) for e, (a, d) in split.items()}

    @property
    def terms(self) -> dict:
        if self._terms is None:
            den = self.den
            self._terms = {e: _over(v, den) for e, v in self.nums.items()}
        return self._terms

    def _like(self, nums: dict) -> "MultiPoly":
        """The polynomial of nonzero numerators over this one's ``den``."""
        return _integer_poly(self.nvars, self.den, nums)

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
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

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
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {e: a * v for e, v in self.nums.items()}
        for e, v in other.nums.items():
            s = out.get(e, 0) + b * v
            if s:
                out[e] = s
            else:
                del out[e]
        return _integer_poly(self.nvars, den, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.nums.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            a, d = _split(other)
            if not a:
                return MultiPoly.zero(self.nvars)
            return _integer_poly(
                self.nvars, self.den * d, {e: a * v for e, v in self.nums.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        return _product_sum(self.nvars, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self.nums) == 1:  # (c x^a)^e = c^e x^(e a)
            ((exps, c),) = self.nums.items()
            return _integer_poly(self.nvars, self.den**e, {tuple(x * e for x in exps): c**e})
        return _power(self, e, MultiPoly.constant(self.nvars, 1))

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
        for e, c in self.nums.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return self._like(out)

    def evaluate(self, point: Sequence) -> Scalar:
        """The value at a point.  With each coordinate an integral numerator
        p_i over an int, and q the lcm of those ints, it sums
        num_e * prod p_i^e_i * q^(deg - |e|) and divides once by den * q^deg."""
        split = [_split(x) for x in point]
        q = lcm(*[d for _, d in split])
        p = [a * (q // d) for a, d in split]
        deg = max(map(sum, self.nums), default=0)
        power = cache(pow)
        total = 0
        for e, c in self.nums.items():
            for pi, ei in zip(p, e):
                if ei:
                    c *= power(pi, ei)
            total += c * power(q, deg - sum(e))
        return _over(total, self.den * q**deg)

    def substitute(self, i: int, value) -> "MultiPoly":
        """Replace variable i by a scalar a/q (the variable slot remains): with
        m the largest exponent of x_i, num_e gains a^e_i q^(m - e_i) over
        den * q^m."""
        a, q = _split(value)
        m = max((e[i] for e in self.nums), default=0)
        out: dict = {}
        for e, c in self.nums.items():
            k = e[i]
            if k:
                c = c * a**k
            if k != m:
                c = c * q ** (m - k)
            _accumulate(out, e[:i] + (0,) + e[i + 1 :], c)
        return _integer_poly(self.nvars, self.den * q**m, out)

    def min_total_degree(self) -> Optional[int]:
        if not self.nums:
            return None
        return min(sum(e) for e in self.nums)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return self._like({e: c for e, c in self.nums.items() if sum(e) == d})

    def min_exponent(self, i: int) -> Optional[int]:
        if not self.nums:
            return None
        return min(e[i] for e in self.nums)

    def shift_down(self, i: int, m: int) -> "MultiPoly":
        """Exact division by the m-th power of variable i."""
        out = {}
        for e, c in self.nums.items():
            if e[i] < m:
                raise ValueError("polynomial is not divisible by that power")
            ne = list(e)
            ne[i] -= m
            out[tuple(ne)] = c
        return self._like(out)

    def __repr__(self):
        return poly_to_string(self)


def _integer_poly(nvars: int, den: int, nums: dict) -> MultiPoly:
    """The polynomial sum nums[e] x^e / den for nonzero integral numerators
    (ints or CycloElems over 1) and den > 0: the common factor of den and
    all their coordinates is divided out."""
    g = den
    for v in nums.values():
        if g == 1:
            break
        g = gcd(g, v) if type(v) is int else gcd(g, *v.num)
    if g != 1:
        den //= g
        nums = {e: v // g if type(v) is int else v * Fraction(1, g) for e, v in nums.items()}
    p = object.__new__(MultiPoly)
    p.nvars, p.den, p.nums, p._terms = nvars, den, nums, None
    return p


def _product_sum(nvars: int, products) -> MultiPoly:
    """The signed sum of products  sum sign * p * q  over the (sign, p, q) in
    products, sign = +1 or -1: the one place where this module multiplies
    polynomials.

    Each product adds sign * (L / (D_p D_q)) * a * b into one dict of
    numerators, L the lcm of the D_p D_q, and the sum is that dict over L.
    Rational polynomials multiply and add ints; a CycloElem numerator takes
    the same loop in its own arithmetic.
    """
    den = lcm(*[p.den * q.den for _, p, q in products])
    acc: dict = {}
    get = acc.get
    for sign, p, q in products:
        scale = sign * (den // (p.den * q.den))
        tp, tq = p.nums, q.nums
        if len(tp) > len(tq):  # the longer operand in the inner loop
            tp, tq = tq, tp
        tq = tq.items()
        for e1, a in tp.items():
            sa = scale * a
            for e2, b in tq:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + sa * b
    return _integer_poly(nvars, den, {e: v for e, v in acc.items() if v})


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
    products: dict = {}
    for I, p in u.coeffs.items():
        for J, q in v.coeffs.items():
            if any(j in I for j in J):
                continue
            inv = sum(1 for i in I for j in J if i > j)
            products.setdefault(tuple(sorted(I + J)), []).append(
                (-1 if inv & 1 else 1, p, q)
            )
    return cls(
        u.nvars, {K: _product_sum(u.nvars, terms) for K, terms in products.items()}
    )


def _wedge_vanishes(omega: PForm1, v: Form) -> bool:
    """True iff omega ^ v = 0 for a 1-form omega and a k-form v, decided from
    the components of omega ^ v at the indices that contain one pivot p.

    p is the index of the nonzero coefficient of omega with the fewest terms.
    The component at K is sum_i (-1)^pos(i) omega_i v_(K - i) over the i in K,
    pos(i) the place of i in K; each is built with one kernel call, and the
    first nonzero one decides.
    """
    if not omega.coeffs:
        return True
    (p,), _ = min(omega.coeffs.items(), key=lambda item: len(item[1].nums))
    n, get_a, get_b = omega.nvars, omega.coeffs.get, v.coeffs.get
    for K in combinations(range(n), v.degree + 1):
        if p not in K:
            continue
        products = []
        for pos, i in enumerate(K):
            a, b = get_a((i,)), get_b(K[:pos] + K[pos + 1 :])
            if a is not None and b is not None:
                products.append((-1 if pos & 1 else 1, a, b))
        if _product_sum(n, products):
            return False
    return True


def integrability_check(omega: PForm1) -> bool:
    """True iff omega ^ d(omega) vanishes identically (always true in 2 vars)."""
    if omega.nvars == 2:
        return True
    return _wedge_vanishes(omega, exterior_d(omega))


def radial_contraction(omega: PForm1) -> MultiPoly:
    """The pairing sum x_i a_i of omega with the radial vector field."""
    n = omega.nvars
    return _product_sum(
        n, [(1, MultiPoly.variable(n, i), p) for (i,), p in omega.coeffs.items()]
    )


def lowest_jet(omega: PForm1) -> tuple[int, PForm1]:
    """The minimal total degree nu among all coefficients and the degree-nu part."""
    if omega.is_zero:
        raise ValueError("the zero form has no lowest jet")
    nu = min(p.min_total_degree() for p in omega.coeffs.values())
    return nu, omega.map_coeffs(lambda p: p.homogeneous_part(nu))


class TangentCone(NamedTuple):
    """(dicritical, cone): cone is the defining polynomial, None if dicritical."""

    dicritical: bool
    cone: Optional[MultiPoly]


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
    # x_j -> x_c * u_j for j != c; the slot j now holds u_j.  The exponents
    # map one to one (e_c becomes |e|), so no two terms meet.
    return p._like({e[:c] + (sum(e),) + e[c + 1 :]: v for e, v in p.nums.items()})


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
    _, reduced = blowup_chart_pullback(omega, chart)
    return _cone_matches_restriction(omega, chart, restrict_to_exceptional(reduced, chart))


def _cone_matches_restriction(omega: PForm1, chart, restricted: PForm1) -> bool:
    """:func:`cone_matches_chart_pullback` for the restriction to the
    exceptional divisor of the reduced pullback, already built."""
    n = omega.nvars
    c = _chart_index(n, chart)
    dicritical, cone = tangent_cone(omega)
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
    if any(omega.evaluate(q).values()):
        return False
    return any(exterior_d(omega).evaluate(q).values())


def first_integral_check(omega: PForm1, f: MultiPoly) -> bool:
    """True iff df ^ omega = 0 exactly."""
    if f.nvars != omega.nvars:
        raise ValueError("variable-count mismatch")
    return _wedge_vanishes(omega, exterior_d(f))


def meromorphic_first_integral_check(
    omega: PForm1, P: MultiPoly, Q: MultiPoly
) -> bool:
    """True iff omega ^ (Q dP - P dQ) = 0 exactly (d(P/Q) ^ omega = 0 cleared
    of denominators)."""
    if Q.is_zero:
        raise ValueError("the denominator must be nonzero")
    n = omega.nvars
    if P.nvars != n or Q.nvars != n:
        raise ValueError("variable-count mismatch")
    num = PForm1(
        n,
        [
            _product_sum(n, ((1, Q, P.partial(i)), (-1, P, Q.partial(i))))
            for i in range(n)
        ],
    )
    return _wedge_vanishes(omega, num)


# -- expression input and canonical text output ----------------------------------------


def total_degree(value: AnyForm) -> int:
    """The largest total degree among the terms of a polynomial or of a
    form's coefficients, 0 for zero."""
    polys = [value] if isinstance(value, MultiPoly) else value.coeffs.values()
    return max((sum(e) for p in polys for e in p.nums), default=0)


def check_form_degree(degree: int) -> None:
    """ExpressionError if a coefficient of this total degree is above
    MAX_FORM_DEGREE."""
    if degree > MAX_FORM_DEGREE:
        raise ExpressionError(
            f"total degree {degree} is above the limit of {MAX_FORM_DEGREE}"
        )


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
        check_form_degree(total_degree(a) + total_degree(b))
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
        if not isinstance(b, MultiPoly) or list(b.nums) != [(0,) * nvars]:
            raise ExpressionError("division is only defined by nonzero constants")
        ((_, c),) = b.nums.items()
        inv = Fraction(b.den, c) if type(c) is int else c.inverse() * b.den
        return a * inv if isinstance(a, MultiPoly) else a.scale(
            MultiPoly.constant(a.nvars, inv)
        )
    if op == "ipow":
        a = eval_form(node[1], env, variables)
        if not isinstance(a, MultiPoly):
            raise ExpressionError("only polynomials take integer powers")
        if node[2] < 0:
            raise ExpressionError("polynomial powers must be nonnegative")
        check_form_degree(node[2] * total_degree(a))
        check_power_bits(a.terms.values(), node[2])
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
