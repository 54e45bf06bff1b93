"""Truncated formal power series in one variable with exact coefficients.

A jet of order N stands for the coefficients of z^0 .. z^N; terms beyond z^N
are unknown rather than zero, and every operation is exact in the quotient
ring of series modulo z^(N+1).  No operation silently extends the order;
binary operations require equal orders (truncate the longer operand first).

Coefficients lie in Q(zeta_n) for a single conductor n per jet.
Construction accepts ints, Fractions and mixed-conductor
:class:`~germlin.cyclotomic.CycloElem` values and lifts everything to the lcm
conductor, so rational jets live at conductor 1.

A jet is its row.  A row is the tuple of the nonzero coefficients of a series
as (degree, coordinates, denominator) entries in increasing degree; the
coordinates are the (index, value) pairs of the nonzero integer power-basis
coordinates of the numerator.  Every row is canonical: each entry reduced
modulo Phi_n, without a common factor and over a positive denominator, and
zero entries left out.  So equal series at one conductor have equal rows, and
a row is hashable and serves as its own key (:meth:`Jet.key`).  ``Jet.row``
is the one stored form: equality, the accessors and every operation read it,
and rows cross module boundaries only as ``Jet.row``.  Field elements are
built only where a value leaves as a scalar: a single coefficient
(:meth:`Jet.coefficient`), or the coefficient tuple ``Jet.coeffs``, made on
first use for printing, serialization and callers that want the list.

Sums, products, powers, composition and rational powers share one kernel,
the weighted sum  sum w * z^s * P  over (weight, shift, row) terms; a weight
is a row entry without its degree.  A sum a + b weighs both rows by 1; a
product a*b weighs the row of b by a_i at shift i; the composition f(g)
weighs the rows of a table of truncated powers of g by f_e; (1 + u)^r
weighs the powers of u by the binomial coefficients C(r, e).  Integer powers
square through the product.  Lifting to a larger conductor and the Galois
automorphisms sigma_u: zeta -> zeta^u map each entry through the one
re-indexing loop of :mod:`germlin.cyclotomic`.

The kernel scatters: each product of a weight with a row entry is added, as
an unreduced integer product of coordinate vectors, in place into the one
accumulator of its output degree, over that degree's running common
denominator, and a row is read no further than degree N.  No product is
formed as a field element.  Triangular solves gather through the same
kernel, one coefficient per call at degree 0 over one-entry rows: the
compositional inverse (RightComposer.inverse) over the entries of one column
of the power table, the reciprocal (jet_mul_inverse) over the entries of
-f/f_0.  Either way each coefficient is reduced modulo Phi_n and normalized
once, not once per product.

A power table builds each even power as the square of its half,
g^(2j) = (g^j)^2, in one kernel call in which entry i of g^j weighs itself
and, doubled, the entries after it, read only while 2 t_i <= N: about half
the pairs of a product.  Each odd power is the one before times g.  The
kernel finishes each output degree in place: the coordinates of zeta^e for
e >= phi(n) fold in through one cached sparse table of the nonzero
coordinates of zeta_n^e, read at e mod n, which also serves the reduction
of scalar products and the re-indexing of rows; the gcd is taken only over
a denominator other than 1.

The textual form is ``jet(N=4)[0, 1, 1, 0, 0]``, meaning z + z^2 at order 4.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import (
    CycloElem,
    _element,
    _power,
    _reindex_coords,
    _sparse_monomials,
    cyclo_embed,
    euler_phi,
    format_scalar,
    parse_scalar,
)

__all__ = [
    "Jet",
    "DEFAULT_ORDER",
    "jet_compose",
    "jet_comp_inverse",
    "jet_mul_inverse",
    "jet_derivative",
    "jet_rational_power",
    "RightComposer",
]

DEFAULT_ORDER = 32

_UNIT = ((0, 1),), 1  # the weight 1
_MINUS = ((0, -1),), 1  # the weight -1
_ONE_ROW = ((0, ((0, 1),), 1),)  # the row of the constant 1
_Z_ROW = ((1, ((0, 1),), 1),)  # the row of z


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


def _entry(c: CycloElem) -> tuple:
    """(coordinates, denominator) of c: the (index, value) pairs of the
    nonzero power-basis coordinates of its numerator, over its denominator."""
    return tuple((j, b) for j, b in enumerate(c.num) if b), c.den


def _sparse_row(coeffs) -> tuple:
    """The row of a coefficient list: its nonzero entries as (degree,
    coordinates, denominator) in increasing degree (see :func:`_entry`)."""
    return tuple((t,) + _entry(c) for t, c in enumerate(coeffs) if any(c.num))


def _entry_elem(n: int, coords, den: int) -> CycloElem:
    """The element of Q(zeta_n) of a row entry's coordinates and denominator;
    entries are normalized, so no gcd is taken."""
    phi_n = euler_phi(n)
    if phi_n == 1:
        return _element(n, (coords[0][1],), den)
    num = [0] * phi_n
    for j, b in coords:
        num[j] = b
    return _element(n, tuple(num), den)


def _row_coeffs(row, N: int, n: int) -> list:
    """The N + 1 coefficients of a row over Q(zeta_n)."""
    out = [_zero(n)] * (N + 1)
    for t, coords, den in row:
        out[t] = _entry_elem(n, coords, den)
    return out


def _row_coefficient(row, t: int, n: int) -> CycloElem:
    """The coefficient of z^t in a row over Q(zeta_n)."""
    i = bisect_left(row, (t,))
    return _entry_elem(n, *row[i][1:]) if i < len(row) and row[i][0] == t else _zero(n)


def _has_constant(row) -> bool:
    """Whether the series of a row has a nonzero constant term."""
    return bool(row) and row[0][0] == 0


def _map_row(row, m: int, step: int) -> tuple:
    """The row over Q(zeta_m) with zeta^i replaced by zeta_m^(i*step) in every
    entry: with m a multiple of the row's conductor n and step = m/n the
    embedding Q(zeta_n) -> Q(zeta_m), with m = n and step = u coprime to n
    the Galois automorphism sigma_u.  Each entry's coordinates map through
    ``cyclotomic._reindex_coords``, which keeps the entry canonical without
    a gcd; rational entries are fixed."""
    if step % m == 1:
        return row
    out = []
    for t, coords, den in row:
        if coords[0][0] == 0 and len(coords) == 1:  # rational: fixed
            out.append((t, coords, den))
            continue
        num = _reindex_coords(coords, m, step)
        out.append((t, tuple((j, b) for j, b in enumerate(num) if b), den))
    return tuple(out)


def _power_rows(g, d: int, N: int, n: int) -> list:
    """The rows of g^0, g^1, .., g^d truncated at degree N, for the row g (to
    degree N) of a series with g(0) = 0.  An odd power is the weighted sum of
    the shifts of g by the entries of the power before it; an even power is
    the square of its half (:func:`_square`)."""
    rows = [_ONE_ROW, g]
    for e in range(2, d + 1):
        if e % 2:
            rows.append(_weighted_sum([((c, den), t, g) for t, c, den in rows[-1]], N, n))
        else:
            rows.append(_square(rows[e // 2], N, n))
    return rows[: d + 1]


def _square(h, N: int, n: int) -> tuple:
    """The row of h^2 truncated at degree N: sum_i h_i^2 z^(2 t_i) plus
    sum_(i<k) 2 h_i h_k z^(t_i + t_k), so entry i weighs itself and, doubled,
    the entries after it.  Since t_i < t_k, nothing is left once 2 t_i > N, and
    about half the pairs of the product h * h are read."""
    terms = []
    for i, (t, coords, den) in enumerate(h):
        if 2 * t > N:
            break
        terms.append(((coords, den), t, h[i : i + 1]))
        terms.append(((tuple((j, 2 * b) for j, b in coords), den), t, h[i + 1 :]))
    return _weighted_sum(terms, N, n)


def _substitute(w, rows, N: int, n: int) -> tuple:
    """The row of sum_e w_e g^e truncated at degree N, for the row w and the
    power rows of g (:func:`_power_rows`) up to the degree of w."""
    return _weighted_sum([((c, d), 0, rows[e]) for e, c, d in w], N, n)


def _compose_rows(w, g, N: int, n: int) -> tuple:
    """The row of w(g) truncated at degree N, for rows w and g with g(0) = 0,
    over the powers of g up to the degree of w."""
    return _substitute(w, _power_rows(g, w[-1][0] if w else 0, N, n), N, n)


def _weighted_sum(terms, N: int, n: int) -> tuple:
    """The row of sum weight * z^shift * row over the (weight, shift, row)
    terms, truncated at degree N.  A weight is a row entry without its degree,
    (coordinates, denominator).

    Sums, products, powers and compositions all accumulate here.  Each product
    of the weight with a row entry is added, as an unreduced integer product
    of coordinate vectors, into the accumulator of its output degree in place;
    each accumulator keeps a running denominator, rescaled to the lcm when a
    product's denominator does not divide it.  A row is read only up to
    degree N - shift.  Each output degree is reduced modulo Phi_n and
    normalized once, and the result is a canonical row: every entry without
    a common factor and over a positive denominator, zero entries left out,
    in increasing degree.  Where phi(n) = 1 (conductors 1 and 2) every
    coefficient is rational, and each degree accumulates one integer
    numerator in place of a coordinate list.
    """
    phi_n = euler_phi(n)
    width = 2 * phi_n - 1
    if width == 1:  # rational coordinates: one integer numerator per degree
        nums = [0] * (N + 1)
        dens = [0] * (N + 1)
        for (wc, wd), shift, row in terms:
            if not wc:
                continue
            ((_, c),) = wc
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
        out = []
        for t, num in enumerate(nums):
            if num:
                den = dens[t]
                g = gcd(num, den)
                out.append((t, ((0, num // g),), den // g))
        return tuple(out)
    accs = [None] * (N + 1)
    dens = [1] * (N + 1)
    for (wc, wd), shift, row in terms:
        if not wc:
            continue
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
                    for i, c in wc:
                        c *= scale
                        for j, bj in bn:
                            acc[i + j] += c * bj
                    continue
            for i, c in wc:
                for j, bj in bn:
                    acc[i + j] += c * bj
    # each degree: zeta^e for e >= phi(n) folds in through the nonzero
    # coordinates of its reduction, read at e mod n (2 phi(n) - 2 may reach n)
    mons = _sparse_monomials(n)
    out = []
    for t, acc in enumerate(accs):
        if acc is None:
            continue
        num = acc[:phi_n]
        for e in range(phi_n, width):
            c = acc[e]
            if c:
                for j, r in mons[e % n]:
                    num[j] += c * r
        if not any(num):
            continue
        den = dens[t]
        if den != 1:  # over 1 the entry has no common factor to take out
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = [c // g for c in num]
        out.append((t, tuple((j, c) for j, c in enumerate(num) if c), den))
    return tuple(out)


class Jet:
    """A truncated series c0 + c1 z + ... + cN z^N, exact modulo z^(N+1),
    stored as its canonical row (``row``) at one order and conductor."""

    __slots__ = ("order", "conductor", "row", "_coeffs")

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
        self._coeffs = tuple(coeffs)
        self.row = _sparse_row(coeffs)

    @classmethod
    def _of(cls, row: tuple, order: int, conductor: int) -> "Jet":
        """The jet of a canonical row (to degree ``order``), as the kernel
        returns it; nothing is checked or converted."""
        jet = object.__new__(cls)
        jet.order = order
        jet.conductor = conductor
        jet.row = row
        jet._coeffs = None
        return jet

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, order: int, conductor: int = 1) -> "Jet":
        """The series z."""
        if order < 1:
            raise ValueError("the identity jet needs order >= 1")
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        return cls._of(_Z_ROW, order, conductor)

    @classmethod
    def constant(cls, value, order: int, conductor: int = 1) -> "Jet":
        if order < 0:
            raise ValueError("jet order must be >= 0")
        c = cls([value], order=0, conductor=conductor)
        return cls._of(c.row, order, c.conductor)

    # -- simple accessors --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The N + 1 coefficients as field elements, built from the row on
        first use."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = tuple(_row_coeffs(self.row, self.order, self.conductor))
        return coeffs

    @property
    def constant_term(self) -> CycloElem:
        return self.coefficient(0)

    @property
    def linear_term(self) -> CycloElem:
        if self.order < 1:
            raise ValueError("order-0 jet has no linear term")
        return self.coefficient(1)

    def coefficient(self, k: int) -> CycloElem:
        if self._coeffs is not None or not 0 <= k <= self.order:
            return self.coeffs[k]
        return _row_coefficient(self.row, k, self.conductor)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet; compose at the lower order")
        if order < 0:
            raise ValueError("jet order must be >= 0")
        row = self.row
        return Jet._of(row[: bisect_left(row, (order + 1,))], order, self.conductor)

    def lift(self, conductor: int) -> "Jet":
        """The jet at the lcm of its conductor and ``conductor``."""
        n = self.conductor
        if conductor == n:
            return self
        m = conductor * n // gcd(conductor, n)
        return Jet._of(_map_row(self.row, m, m // n), self.order, m)

    def _galois(self, u: int) -> "Jet":
        """sigma_u of every coefficient, for the automorphism
        zeta_n -> zeta_n^u of its field, gcd(u, n) = 1."""
        n = self.conductor
        return Jet._of(_map_row(self.row, n, u % n), self.order, n)

    def key(self):
        """Hashable identity for dedup among jets of one order and conductor:
        the canonical row."""
        return self.row

    def is_zero(self) -> bool:
        return not self.row

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

    def _with_scalar(self, value) -> tuple["Jet", tuple]:
        """The jet and a scalar as a weight at one conductor, the lcm."""
        a = self.lift(value.n) if isinstance(value, CycloElem) else self
        return a, _entry(_as_cyclo(value, a.conductor))

    def _sum(self, terms) -> "Jet":
        """The jet of the kernel's weighted sum at this order and conductor."""
        N, n = self.order, self.conductor
        return Jet._of(_weighted_sum(terms, N, n), N, n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            a, w = self._with_scalar(other)
            return a._sum([(_UNIT, 0, a.row), (w, 0, _ONE_ROW)])
        a, b = self._common(other)
        return a._sum([(_UNIT, 0, a.row), (_UNIT, 0, b.row)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            return self + (-1 * other)
        a, b = self._common(other)
        return a._sum([(_UNIT, 0, a.row), (_MINUS, 0, b.row)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        row = tuple((t, tuple((j, -b) for j, b in coords), d) for t, coords, d in self.row)
        return Jet._of(row, self.order, self.conductor)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            a, w = self._with_scalar(other)
            return a._sum([(w, 0, a.row)])
        a, b = self._common(other)
        return a._sum([((c, d), t, b.row) for t, c, d in a.row])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return jet_mul_inverse(self) ** (-e)
        if e == 0:
            return Jet.constant(1, self.order, self.conductor)
        return _power(self, e, None)  # the identity is returned only for e == 0

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if self.order != other.order:
            return False
        if self.conductor == other.conductor:
            return self.row == other.row
        a, b = self._common(other)
        return a.row == b.row

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


def jet_compose(f: Jet, g: Jet) -> Jet:
    """The composition f(g(z)) truncated at the common order.

    g must have zero constant term, otherwise the truncated composition is not
    well defined.  The result is the triangular sum  sum_e f_e g^e  over the
    powers of g up to the degree of f.
    """
    a, b = f._common(g)
    if _has_constant(b.row):
        raise ValueError("inner series must have zero constant term")
    N, n = a.order, a.conductor
    return Jet._of(_compose_rows(a.row, b.row, N, n), N, n)


def jet_comp_inverse(f: Jet) -> Jet:
    """The compositional inverse g with f(g(z)) = g(f(z)) = z to order N.

    See :meth:`RightComposer.inverse`; a one-sided inverse in the truncated
    composition group is automatically two-sided.
    """
    if f.order < 1 or _has_constant(f.row):
        raise ValueError("compositional inverse needs zero constant term")
    return RightComposer(f).inverse()


def _in_power_of_z(f: Jet, op) -> Jet | None:
    """op(f) through w = z^g, or None when g < 2, for g the gcd of every
    degree of f's row and an op that maps series in z^g to series in z^g
    (the reciprocal and rational powers of a series with constant term).

    f(z) = F(z^g), and op(f) to degree N is op(F) to degree N // g with
    every degree multiplied by g, so the op runs on F at order N // g and
    pays for no zero coefficient of f."""
    g = 0
    for t, _, _ in f.row:
        g = gcd(g, t)
    if g < 2:
        return None
    N, n = f.order, f.conductor
    inner = op(Jet._of(tuple((t // g, c, d) for t, c, d in f.row), N // g, n))
    return Jet._of(tuple((t * g, c, d) for t, c, d in inner.row), N, n)


def jet_mul_inverse(f: Jet) -> Jet:
    """The reciprocal series g with f*g = 1 to order N (nonzero constant term).

    g_0 = 1/f_0, and g_m = sum_k g_(m-k) (-f_k/f_0) over k = 1 .. m: each g_m
    is gathered by the kernel from the entries of the row of -f/f_0, each as
    a one-entry row at degree 0, weighted by the g_j found before it.  A
    series in z^g, g >= 2, is solved in w = z^g (:func:`_in_power_of_z`)."""
    N, n = f.order, f.conductor
    row = f.row
    if not _has_constant(row):
        raise ValueError("reciprocal needs a nonzero constant term")
    spread = _in_power_of_z(f, jet_mul_inverse)
    if spread is not None:
        return spread
    inv0 = _one(n) / _entry_elem(n, *row[0][1:])
    scaled = _weighted_sum([(_entry(-inv0), 0, row)], N, n)  # -f/f_0
    cells = [(k, ((0, coords, den),)) for k, coords, den in scaled[1:]]
    weights = [_entry(inv0)] + [None] * N  # the nonzero g_j as weights
    for m in range(1, N + 1):
        terms = [(weights[m - k], 0, cell) for k, cell in cells if k <= m and weights[m - k]]
        for _, coords, den in _weighted_sum(terms, 0, n):  # none if the sum is 0
            weights[m] = coords, den
    return Jet._of(tuple((m, *w) for m, w in enumerate(weights) if w), N, n)


def jet_derivative(f: Jet) -> Jet:
    """Term-wise derivative; the order drops to N-1 (z^N's image is unknown).

    An entry's coordinates have no common factor with its denominator, so
    t * c_t / d keeps none once gcd(t, d) is divided out."""
    if f.order == 0:
        raise ValueError("cannot differentiate an order-0 jet to a valid order")
    row = []
    for t, coords, den in f.row:
        if t:
            g = gcd(t, den)
            row.append((t - 1, tuple((j, b * (t // g)) for j, b in coords), den // g))
    return Jet._of(tuple(row), f.order - 1, f.conductor)


def jet_rational_power(f: Jet, r) -> Jet:
    """f**r for rational r via the binomial series on f = 1 + u.

    Requires constant term exactly 1; the result is the weighted sum
    sum_k C(r, k) u^k with generalized binomial coefficients, exact because
    u has positive valuation v: u^k vanishes for k > N // v, and the sum
    stops at the first C(r, k) = 0 (r a nonnegative integer).  A series in
    z^g, g >= 2, is raised in w = z^g (:func:`_in_power_of_z`).
    """
    r = Fraction(r)
    N, n = f.order, f.conductor
    if f.row[:1] != _ONE_ROW:
        raise ValueError("rational powers require constant term 1")
    spread = _in_power_of_z(f, lambda h: jet_rational_power(h, r))
    if spread is not None:
        return spread
    u = f.row[1:]
    binoms = [_ONE_ROW[0]]  # the row of sum_k C(r, k) w^k
    binom = Fraction(1)
    for k in range(1, N // u[0][0] + 1 if u else 1):
        binom *= Fraction(r.numerator - (k - 1) * r.denominator, k * r.denominator)
        if binom == 0:
            break
        binoms.append((k, ((0, binom.numerator),), binom.denominator))
    return Jet._of(_compose_rows(tuple(binoms), u, N, n), N, n)


class RightComposer:
    """Right composition w -> w(g) against a fixed inner series g.

    Holds the rows of the power table g^0 .. g^N (``rows``), so each
    composition is the weighted sum  sum_e w_e g^e  over the rows with no
    further products; this pays off when many compositions share the same
    inner series (word evaluation, conjugator search).  :meth:`compose` and
    :meth:`prefix` take and return rows; calling the composer on a jet
    composes its row.  The rows also give the compositional inverse of g
    (:meth:`inverse`).
    """

    def __init__(self, g: Jet):
        if _has_constant(g.row):
            raise ValueError("inner series must have zero constant term")
        self.order = g.order
        self.conductor = g.conductor
        self.rows = _power_rows(g.row, g.order, g.order, g.conductor)

    def _galois(self, u: int) -> "RightComposer":
        """The composer of sigma_u(g), gcd(u, n) = 1: sigma_u commutes with
        products, so its power table is this one mapped row by row."""
        n = self.conductor
        comp = object.__new__(RightComposer)
        comp.order, comp.conductor = self.order, n
        comp.rows = [_map_row(row, n, u % n) for row in self.rows]
        return comp

    def __call__(self, w: Jet) -> Jet:
        if w.order != self.order:
            raise ValueError("order mismatch in right composition")
        N, n = self.order, self.conductor
        return Jet._of(self.compose(w.lift(n).row), N, n)

    def compose(self, w) -> tuple:
        """The row of w(g) to degree N, for the row w of an order-N jet."""
        return _substitute(w, self.rows, self.order, self.conductor)

    def prefix(self, w, K: int) -> tuple:
        """The row of w(g) to degree K <= N, for the row w of a jet to degree
        K.  Since g(0) = 0, the powers g^e with e > K and the terms of w
        beyond z^K add nothing below z^(K+1), so this is the weighted sum
        over the first K + 1 rows of the table, read to degree K: O(K^2)
        products."""
        return _substitute(w, self.rows, K, self.conductor)

    def inverse(self) -> Jet:
        """The compositional inverse of g from the triangular system
        sum_j b_j [z^m] g^j = [m == 1], whose diagonal [z^j] g^j = a1^j needs
        a single inversion of the linear coefficient a1.  Each b_m is
        gathered by the kernel from the entries [z^m] g^j, j < m, of the
        rows, weighted by the b_j found before it."""
        N, n = self.order, self.conductor
        rows = self.rows
        if N < 1 or not rows[1] or rows[1][0][0] != 1:
            raise ValueError("compositional inverse needs an invertible linear term")
        # column m: the entries [z^m] g^j of the rows j = 1 .. m - 1 (after
        # the diagonal one at degree j), each as a one-entry row at degree 0
        cols = [[] for _ in range(N + 1)]
        for j in range(1, N):
            for t, coords, den in rows[j][1:]:
                cols[t].append((j, ((0, coords, den),)))
        _, coords, den = rows[1][0]
        inv_a1 = _one(n) / _entry_elem(n, coords, den)
        inv_pow = inv_a1  # a1^(-m), maintained incrementally
        weights = [None, _entry(inv_a1)] + [None] * (N - 1)  # the nonzero b_j as weights
        for m in range(2, N + 1):
            inv_pow = inv_pow * inv_a1
            terms = [(weights[j], 0, cell) for j, cell in cols[m] if weights[j]]
            for _, coords, den in _weighted_sum(terms, 0, n):  # none if the sum is 0
                weights[m] = _entry(-_entry_elem(n, coords, den) * inv_pow)
        return Jet._of(tuple((m, *w) for m, w in enumerate(weights) if w), N, n)
