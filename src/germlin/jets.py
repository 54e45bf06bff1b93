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
weighted sum  sum w * z^s * P  over (weight, shift, row) terms.  A row is
sparse: the list of its nonzero coefficients as (degree, integer coordinates,
denominator) in increasing degree.  A product a*b weighs one sparse copy of b
by a_i at shift i; the composition f(g) and the compositional inverse weigh
the sparse rows of a table of truncated powers of g by f_e; (1 + u)^r weighs
the powers of u by the binomial coefficients C(r, e).  Integer powers square
through the product.

The kernel scatters: each product of a weight with a row entry is added, as
an unreduced integer product of coordinate vectors, in place into the one
accumulator of its output degree, over that degree's running common
denominator, and a row is read no further than degree N.  No product is
formed as a field element.  The triangular solves of the two inverses
(jet_mul_inverse, RightComposer.inverse) gather instead: one list of pairs
per coefficient, summed by ``cyclotomic._sum_of_products`` with the same
in-place integer accumulation.  Either way each coefficient is reduced
modulo Phi_n and normalized once, not once per product.

The textual form is ``jet(N=4)[0, 1, 1, 0, 0]``, meaning z + z^2 at order 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd

from .cyclotomic import (
    CycloElem,
    _normalize,
    _power,
    _reduce_product,
    _sum_of_products,
    cyclo_embed,
    euler_phi,
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


@lru_cache(maxsize=None)
def _zero(n: int) -> CycloElem:
    return cyclo_embed(0, n)


@lru_cache(maxsize=None)
def _one(n: int) -> CycloElem:
    return cyclo_embed(1, n)


def _sparse_row(coeffs) -> list:
    """The nonzero entries of a coefficient list as (degree, integer
    coordinates, denominator), in increasing degree: the row format of
    :func:`_weighted_sum`.  The coordinates are the (index, value) pairs of
    the nonzero power-basis coordinates of the numerator."""
    return [
        (t, [(j, b) for j, b in enumerate(c.num) if b], c.den)
        for t, c in enumerate(coeffs)
        if any(c.num)
    ]


def _mul_coeffs(a, b, N: int, n: int) -> list:
    """Coefficients of a*b truncated at degree N, for a and b of N+1
    coefficients: the weighted sum of the shifts z^i b over the nonzero a_i,
    all reading one sparse copy of b."""
    row = _sparse_row(b)
    return _weighted_sum([(ai, i, row) for i, ai in enumerate(a)], N, n)


def _power_table(g, d: int, N: int, n: int) -> list:
    """[g^0, g^1, .., g^d] truncated at degree N, each power from the last."""
    table = [[_one(n)] + [_zero(n)] * N, list(g)]
    row = _sparse_row(g)
    for e in range(2, d + 1):  # g^(e-1) vanishes below degree e - 1
        terms = [(c, i, row) for i, c in enumerate(table[-1][e - 1 :], e - 1)]
        table.append(_weighted_sum(terms, N, n))
    return table[: d + 1]


def _power_sum(weights, g, N: int, n: int) -> list:
    """sum_e weights[e] g^e truncated at degree N, over the sparse rows of the
    power table of g up to the last weight."""
    powers = _power_table(g, len(weights) - 1, N, n)
    return _weighted_sum([(w, 0, _sparse_row(p)) for w, p in zip(weights, powers)], N, n)


def _weighted_sum(terms, N: int, n: int) -> list:
    """sum weight * z^shift * row over the (weight, shift, row) terms,
    truncated at degree N, for sparse rows (:func:`_sparse_row`).

    Products, powers and compositions all accumulate here.  Each product of
    the weight with a row entry is added, as an unreduced integer product of
    coordinate vectors, into the accumulator of its output degree in place;
    each accumulator keeps a running denominator, rescaled to the lcm when a
    product's denominator does not divide it.  A row is read only up to
    degree N - shift, and each output degree is reduced modulo Phi_n and
    normalized once.  Where phi(n) = 1 (conductors 1 and 2) every
    coefficient is rational, and each degree accumulates one integer
    numerator in place of a coordinate list.
    """
    width = 2 * euler_phi(n) - 1
    zero = _zero(n)
    if width == 1:  # rational coordinates: one integer numerator per degree
        nums = [0] * (N + 1)
        dens = [0] * (N + 1)
        for w, shift, row in terms:
            (c,) = w.num
            if not c:
                continue
            wd = w.den
            for t, ((_, b),), bd in row:  # the one coordinate, index 0
                t += shift
                if t > N:
                    break
                d = wd * bd
                den = dens[t]
                if d == den:
                    nums[t] += c * b
                elif not den:
                    nums[t] = c * b
                    dens[t] = d
                else:
                    g = gcd(den, d)
                    if g != d:  # d does not divide den: scale up to the lcm
                        up = d // g
                        nums[t] *= up
                        dens[t] = den = den * up
                    nums[t] += c * b * (den // d)
        return [
            _normalize(n, [num], den) if den else zero for num, den in zip(nums, dens)
        ]
    accs = [None] * (N + 1)
    dens = [1] * (N + 1)
    for w, shift, row in terms:
        wnz = [(i, c) for i, c in enumerate(w.num) if c]
        if not wnz:
            continue
        wd = w.den
        for t, bn, bd in row:
            t += shift
            if t > N:
                break
            acc = accs[t]
            d = wd * bd
            if acc is None:
                acc = accs[t] = [0] * width
                dens[t] = d
            elif d != dens[t]:
                den = dens[t]
                g = gcd(den, d)
                if g != d:  # d does not divide den: scale up to the lcm
                    up = d // g
                    for j in range(width):
                        acc[j] *= up
                    dens[t] = den = den * up
                if den != d:
                    scale = den // d
                    for i, c in wnz:
                        c *= scale
                        for j, bj in bn:
                            acc[i + j] += c * bj
                    continue
            for i, c in wnz:
                for j, bj in bn:
                    acc[i + j] += c * bj
    return [
        zero if acc is None else _normalize(n, _reduce_product(n, acc), den)
        for acc, den in zip(accs, dens)
    ]


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
            _mul_coeffs(a.coeffs, b.coeffs, a.order, a.conductor),
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
    coeffs = _power_sum(a.coeffs[: degree + 1], b.coeffs, N, n)
    return Jet(coeffs, order=N, conductor=n)


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
    inv0 = _one(n) / a0
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
    binoms = [_one(n)]
    binom = Fraction(1)
    for k in range(1, 0 if v is None else N // v + 1):
        binom *= Fraction(r.numerator - (k - 1) * r.denominator, k * r.denominator)
        if binom == 0:
            break
        binoms.append(cyclo_embed(binom, n))
    return Jet(_power_sum(binoms, u, N, n), order=N, conductor=n)


class RightComposer:
    """Right composition w -> w(g) against a fixed inner series g.

    Holds the power table g^0 .. g^N (``powers``) and its sparse rows
    (``rows``), so each call is the weighted sum  sum_e w_e g^e  over the
    rows with no further products; this pays off when many compositions share
    the same inner series (word evaluation, conjugator search).  The dense
    table gives the compositional inverse of g, and the first K + 1 rows read
    to degree K give w(g) to degree K (:meth:`prefix`).
    """

    def __init__(self, g: Jet):
        if not g.coeffs[0].is_zero:
            raise ValueError("inner series must have zero constant term")
        self.order = g.order
        self.conductor = g.conductor
        self.powers = _power_table(g.coeffs, g.order, g.order, g.conductor)
        self.rows = [_sparse_row(p) for p in self.powers]

    def __call__(self, w: Jet) -> Jet:
        if w.order != self.order:
            raise ValueError("order mismatch in right composition")
        wl = w.lift(self.conductor) if w.conductor != self.conductor else w
        N, n = self.order, self.conductor
        terms = zip(wl.coeffs, repeat(0), self.rows)
        return Jet(_weighted_sum(terms, N, n), order=N, conductor=n)

    def prefix(self, w: list) -> list:
        """The coefficients of w(g) through degree K, from those of w through
        degree K = len(w) - 1 <= N.  Since g(0) = 0, the powers g^e with
        e > K and the terms of w beyond z^K add nothing below z^(K+1), so this
        is the weighted sum over the first K + 1 rows of the table, read to
        degree K: O(K^2) products."""
        return _weighted_sum(zip(w, repeat(0), self.rows), len(w) - 1, self.conductor)

    def inverse(self) -> Jet:
        """The compositional inverse of g from the triangular system
        sum_m b_m [z^t] g^m = [t == 1], whose diagonal [z^m] g^m = a1^m needs
        a single inversion of the linear coefficient a1."""
        N, n = self.order, self.conductor
        powers = self.powers
        if N < 1 or powers[1][1].is_zero:
            raise ValueError("compositional inverse needs an invertible linear term")
        inv_a1 = _one(n) / powers[1][1]
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
