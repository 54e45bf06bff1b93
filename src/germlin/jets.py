"""Truncated formal power series in one variable with exact coefficients.

A jet of order N stores the coefficients of z^0 .. z^N; terms beyond z^N are
unknown rather than zero, and every operation is exact in the quotient ring of
series modulo z^(N+1).  No operation silently extends the order; binary
operations require equal orders (truncate the longer operand first).

Coefficients are :class:`~germlin.cyclotomic.CycloElem` values at a single
conductor per jet.  Construction accepts ints, Fractions and mixed-conductor
elements and lifts everything to the lcm conductor, so rational jets live at
conductor 1.

Products, powers, composition and rational powers share one kernel, the
triangular weighted sum  sum_e w_e P_e  over rows P_e that vanish below
degree e.  A product a*b weighs the shifts z^i b by a_i; the composition f(g)
and the compositional inverse weigh a table of truncated powers of g by f_e;
(1 + u)^r weighs the powers of u by the binomial coefficients C(r, e).
Integer powers square through the product.

Every sum of coefficient products goes through one accumulator,
``cyclotomic._sum_of_products``: the kernel scatters the products of each
output degree into one list, and the triangular solves of the two inverses
(jet_mul_inverse, RightComposer.inverse) gather one list per coefficient.  The
accumulator adds unreduced integer products over a common denominator and
reduces modulo Phi_n and normalizes once per coefficient, not once per
product.

The textual form is ``jet(N=4)[0, 1, 1, 0, 0]``, meaning z + z^2 at order 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import (
    CycloElem,
    _power,
    _sum_of_products,
    cyclo_embed,
    format_scalar,
    parse_scalar,
)

__all__ = [
    "Jet",
    "DEFAULT_ORDER",
    "jet_ring",
    "jet_compose",
    "jet_comp_inverse",
    "jet_mul_inverse",
    "jet_derivative",
    "jet_rational_power",
    "RightComposer",
]

DEFAULT_ORDER = 32


def _as_cyclo(value, n: int) -> CycloElem:
    if isinstance(value, CycloElem):
        return value.lift(n) if value.n != n else value
    return cyclo_embed(value, n)


def _zero(n: int) -> CycloElem:
    return cyclo_embed(0, n)


def _mul_coeffs(a: list, b: list, N: int, n: int) -> list:
    """Coefficients of a*b truncated at degree N, for a and b of N+1
    coefficients: the weighted sum of the shifts z^i b over the nonzero a_i."""
    zero = _zero(n)
    shifts = [
        None if ai.is_zero else [zero] * i + list(b[: N + 1 - i])
        for i, ai in enumerate(a)
    ]
    return _weighted_sum(a, shifts, N, n)


def _power_table(g, d: int, N: int, n: int) -> list:
    """[g^0, g^1, .., g^d] truncated at degree N, each power from the last."""
    table = [[cyclo_embed(1, n)] + [_zero(n)] * N, list(g)]
    for _ in range(2, d + 1):
        table.append(_mul_coeffs(table[-1], g, N, n))
    return table[: d + 1]


def _weighted_sum(w, powers, N: int, n: int) -> list:
    """sum_e w_e * powers[e] truncated at degree N, for rows powers[e] that
    vanish below degree e (g^e with g(0) = 0, or a shift z^e b); powers must
    reach the last e with w_e != 0.  Products, powers and compositions all
    accumulate here: the products w_e * powers[e][t] are scattered to the
    terms of degree t, and each degree is summed by the one accumulator
    _sum_of_products, reduced and normalized once."""
    terms = [[] for _ in range(N + 1)]
    for e, we in enumerate(w):
        if we.is_zero:
            continue
        pw = powers[e]
        for t in range(e, N + 1):
            pt = pw[t]
            if any(pt.num):  # is_zero without the property call: the inner loop
                terms[t].append((we, pt))
    return [_sum_of_products(n, pairs) for pairs in terms]


class Jet:
    """A truncated series c0 + c1 z + ... + cN z^N, exact modulo z^(N+1)."""

    __slots__ = ("order", "conductor", "coeffs")

    def __init__(self, coeffs, order: int | None = None, conductor: int = 1):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError(
                f"got {len(coeffs)} coefficients for order {order}; truncate first"
            )
        n = conductor
        for c in coeffs:
            if isinstance(c, CycloElem):
                n = n * c.n // gcd(n, c.n)
        coeffs = [_as_cyclo(c, n) for c in coeffs]
        coeffs.extend(_zero(n) for _ in range(order + 1 - len(coeffs)))
        self.order = order
        self.conductor = n
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, order: int, conductor: int = 1) -> "Jet":
        return cls([], order=order, conductor=conductor)

    @classmethod
    def identity(cls, order: int, conductor: int = 1) -> "Jet":
        """The series z."""
        if order < 1:
            raise ValueError("the identity jet needs order >= 1")
        return cls([0, 1], order=order, conductor=conductor)

    @classmethod
    def constant(cls, value, order: int, conductor: int = 1) -> "Jet":
        return cls([value], order=order, conductor=conductor)

    # -- simple accessors --------------------------------------------------------

    @property
    def constant_term(self) -> CycloElem:
        return self.coeffs[0]

    @property
    def linear_term(self) -> CycloElem:
        if self.order < 1:
            raise ValueError("order-0 jet has no linear term")
        return self.coeffs[1]

    def coefficient(self, k: int) -> CycloElem:
        return self.coeffs[k]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet; compose at the lower order")
        return Jet(self.coeffs[: order + 1], order=order, conductor=self.conductor)

    def lift(self, conductor: int) -> "Jet":
        if conductor == self.conductor:
            return self
        return Jet(self.coeffs, order=self.order, conductor=conductor)

    def key(self):
        """Hashable identity for dedup among jets of one order and conductor."""
        return self.coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    # -- ring structure -----------------------------------------------------------

    def _common(self, other: "Jet") -> tuple["Jet", "Jet"]:
        if not isinstance(other, Jet):
            raise TypeError(f"expected a Jet, got {type(other).__name__}")
        if other.order != self.order:
            raise ValueError(
                f"jet orders differ ({self.order} vs {other.order}); truncate first"
            )
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] + other
            return Jet(coeffs, order=self.order, conductor=self.conductor)
        a, b = self._common(other)
        return Jet(
            [x + y for x, y in zip(a.coeffs, b.coeffs)],
            order=a.order,
            conductor=a.conductor,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            return self + (-1 * other)
        a, b = self._common(other)
        return Jet(
            [x - y for x, y in zip(a.coeffs, b.coeffs)],
            order=a.order,
            conductor=a.conductor,
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet([-c for c in self.coeffs], order=self.order, conductor=self.conductor)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            return Jet(
                [c * other for c in self.coeffs],
                order=self.order,
                conductor=self.conductor,
            )
        a, b = self._common(other)
        return Jet(
            _mul_coeffs(list(a.coeffs), list(b.coeffs), a.order, a.conductor),
            order=a.order,
            conductor=a.conductor,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return jet_mul_inverse(self) ** (-e)
        return _power(self, e, Jet.constant(1, self.order, self.conductor))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if self.order != other.order:
            return False
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # jets are compared by value across conductors; use .key()

    def __repr__(self):
        inner = ", ".join(format_scalar(c) for c in self.coeffs)
        return f"jet(N={self.order})[{inner}]"

    __str__ = __repr__

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "conductor": self.conductor,
            "coeffs": [format_scalar(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Jet":
        return cls(
            [parse_scalar(s) for s in data["coeffs"]],
            order=data["order"],
            conductor=data.get("conductor", 1),
        )


# -- ring and composition operations -----------------------------------------------


def jet_ring(op: str, f: Jet, g: Jet) -> Jet:
    """Ring arithmetic on same-order jets: op in {add, sub, mul}."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown ring operation {op!r}")


def jet_compose(f: Jet, g: Jet) -> Jet:
    """The composition f(g(z)) truncated at the common order.

    g must have zero constant term, otherwise the truncated composition is not
    well defined.  The result is the triangular sum  sum_e f_e g^e  over the
    powers of g up to the degree of f.
    """
    a, b = f._common(g)
    if not b.coeffs[0].is_zero:
        raise ValueError("inner series must have zero constant term")
    N, n = a.order, a.conductor
    degree = max((e for e, c in enumerate(a.coeffs) if not c.is_zero), default=0)
    powers = _power_table(b.coeffs, degree, N, n)
    return Jet(_weighted_sum(a.coeffs, powers, N, n), order=N, conductor=n)


def jet_comp_inverse(f: Jet) -> Jet:
    """The compositional inverse g with f(g(z)) = g(f(z)) = z to order N.

    See :meth:`RightComposer.inverse`; a one-sided inverse in the truncated
    composition group is automatically two-sided.
    """
    if f.order < 1 or not f.coeffs[0].is_zero:
        raise ValueError("compositional inverse needs zero constant term")
    return RightComposer(f).inverse()


def jet_mul_inverse(f: Jet) -> Jet:
    """The reciprocal series g with f*g = 1 to order N (nonzero constant term)."""
    N, n = f.order, f.conductor
    a0 = f.coeffs[0]
    if a0.is_zero:
        raise ValueError("reciprocal needs a nonzero constant term")
    inv0 = cyclo_embed(1, n) / a0
    b = [inv0] + [_zero(n)] * N
    a = f.coeffs
    for m in range(1, N + 1):
        s = _sum_of_products(
            n,
            [
                (a[k], b[m - k])
                for k in range(1, m + 1)
                if not a[k].is_zero and not b[m - k].is_zero
            ],
        )
        b[m] = -s * inv0
    return Jet(b, order=N, conductor=n)


def jet_derivative(f: Jet) -> Jet:
    """Term-wise derivative; the order drops to N-1 (z^N's image is unknown)."""
    if f.order == 0:
        raise ValueError("cannot differentiate an order-0 jet to a valid order")
    return Jet(
        [f.coeffs[i + 1] * (i + 1) for i in range(f.order)],
        order=f.order - 1,
        conductor=f.conductor,
    )


def jet_rational_power(f: Jet, r) -> Jet:
    """f**r for rational r via the binomial series on f = 1 + u.

    Requires constant term exactly 1; the result is the weighted sum
    sum_k C(r, k) u^k with generalized binomial coefficients, exact because
    u has positive valuation v: u^k vanishes for k > N // v, and the sum
    stops at the first C(r, k) = 0 (r a nonnegative integer).
    """
    r = Fraction(r)
    N, n = f.order, f.conductor
    if not f.coeffs[0].is_one:
        raise ValueError("rational powers require constant term 1")
    u = [_zero(n)] + list(f.coeffs[1:])
    v = next((t for t, c in enumerate(u) if not c.is_zero), None)
    binoms = [cyclo_embed(1, n)]
    binom = Fraction(1)
    for k in range(1, 0 if v is None else N // v + 1):
        binom *= Fraction(r.numerator - (k - 1) * r.denominator, k * r.denominator)
        if binom == 0:
            break
        binoms.append(cyclo_embed(binom, n))
    powers = _power_table(u, len(binoms) - 1, N, n)
    return Jet(_weighted_sum(binoms, powers, N, n), order=N, conductor=n)


class RightComposer:
    """Right composition w -> w(g) against a fixed inner series g.

    Holds the power table g^0 .. g^N, so each call is the triangular sum
    sum_e w_e g^e with no further products; this pays off when many
    compositions share the same inner series (word evaluation, conjugator
    search).  The same table gives the compositional inverse of g, and its
    first K + 1 rows read to degree K give w(g) to degree K (:meth:`prefix`).
    """

    def __init__(self, g: Jet):
        if not g.coeffs[0].is_zero:
            raise ValueError("inner series must have zero constant term")
        self.order = g.order
        self.conductor = g.conductor
        self.powers = _power_table(g.coeffs, g.order, g.order, g.conductor)

    def __call__(self, w: Jet) -> Jet:
        if w.order != self.order:
            raise ValueError("order mismatch in right composition")
        wl = w.lift(self.conductor) if w.conductor != self.conductor else w
        N, n = self.order, self.conductor
        return Jet(_weighted_sum(wl.coeffs, self.powers, N, n), order=N, conductor=n)

    def prefix(self, w: list) -> list:
        """The coefficients of w(g) through degree K, from those of w through
        degree K = len(w) - 1 <= N.  Since g(0) = 0, the powers g^e with
        e > K and the terms of w beyond z^K add nothing below z^(K+1), so this
        is the weighted sum over the first K + 1 rows of the table, read to
        degree K: O(K^2) products."""
        return _weighted_sum(w, self.powers, len(w) - 1, self.conductor)

    def inverse(self) -> Jet:
        """The compositional inverse of g from the triangular system
        sum_m b_m [z^t] g^m = [t == 1], whose diagonal [z^m] g^m = a1^m needs
        a single inversion of the linear coefficient a1."""
        N, n = self.order, self.conductor
        powers = self.powers
        if N < 1 or powers[1][1].is_zero:
            raise ValueError("compositional inverse needs an invertible linear term")
        inv_a1 = cyclo_embed(1, n) / powers[1][1]
        inv_pow = inv_a1  # a1^(-m), maintained incrementally
        b = [_zero(n)] * (N + 1)
        b[1] = inv_a1
        for m in range(2, N + 1):
            inv_pow = inv_pow * inv_a1
            s = _sum_of_products(
                n,
                [
                    (b[j], powers[j][m])
                    for j in range(1, m)
                    if not b[j].is_zero and not powers[j][m].is_zero
                ],
            )
            b[m] = -s * inv_pow
        return Jet(b, order=N, conductor=n)
