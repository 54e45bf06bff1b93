"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_n).

An element of Q(zeta_n) is stored in the power basis 1, zeta, ..., zeta^(phi(n)-1)
(phi = Euler totient), fully reduced modulo the n-th cyclotomic polynomial.
Internally the coordinates are a tuple of integers over a single positive
denominator with all common factors removed, so equality of values at the same
conductor is equality of representations.

One cached table of zeta_n^e, e = 0 .. n-1, is the only place that multiplies
by zeta and reduces modulo Phi_n.  Products read their reduction rows from
its sparse form (the nonzero coordinates of each zeta_n^e, indexed by e mod
n).  The embedding into Q(zeta_m) and the Galois automorphisms
sigma_u: zeta -> zeta^u re-index into it through one loop,
:func:`_reindex_coords`, which serves field elements and jet rows alike.
The inverse of x is the product of its other conjugates sigma_u(x), u != 1,
divided by the rational norm x * prod sigma_u(x); no linear system is solved.

Roots of unity skip that product and repeated squaring.  The roots of unity
of Q(zeta_n) are +-zeta_n^k, each zeta_(2n)^e for an exponent e in Z/2n, and
one cached table per conductor maps each to its exponent and back.  So a
root of unity inverts to exponent -e, its k-th power (any sign of k) is
exponent k e, and its order is 2n / gcd(2n, e), with no field product.

One helper forms the unreduced integer product of two coordinate vectors (of
length 2 phi(n) - 1), which a single product reduces and normalizes at once.
Sums of products (every jet product, composition and triangular solve) do
not come here: the jet kernel ``jets._weighted_sum`` adds unreduced products
over a running common denominator and reduces and normalizes once per sum.

Rationals are plain ``fractions.Fraction`` values.
A CycloElem is falsy exactly when it is zero, as a Fraction is.
Mixed arithmetic coerces ints and Fractions into the cyclotomic operand's
field, and operands at different conductors are lifted to the lcm conductor.

Scalars serialize as ``p/q`` for rationals and ``cyclo(n)[c0,c1,...]`` for
field elements; :func:`format_scalar` / :func:`parse_scalar` round-trip both.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CycloElem",
    "ConductorError",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta",
    "cyclo_embed",
    "root_of_unity_order",
    "prime_power_order",
    "factorize",
    "solve_root_constraints",
    "solve_root_orbits",
    "format_scalar",
    "parse_scalar",
]


class ConductorError(ValueError):
    """Raised when an operation requires operands at one common conductor."""


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 by trial division."""
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the degree of Q(zeta_n).  Building a field element or table
    asks for it first, so a conductor below 1 is named here, before it is
    factored."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_exact_div(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Exact division of integer polynomials with monic-up-to-sign divisor.
    num_l = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = num_l[i + dd]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[i] = q
        if q:
            for j, dj in enumerate(den):
                num_l[i + j] -= q * dj
    if any(num_l[: dd]):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the monic cyclotomic polynomial Phi_n.

    Computed by the recursion x^n - 1 = prod_{d | n} Phi_d.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(1)
    (-1, 1)
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in _divisors(n):
        if d != n:
            num = _poly_exact_div(num, cyclotomic_polynomial(d))
    return num


@lru_cache(maxsize=None)
def _monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced power-basis coordinates of zeta_n^e for e = 0 .. n-1.

    The one loop that multiplies by zeta and reduces modulo Phi_n: products
    read their reduction rows here, and lifting and Galois conjugation
    re-index into this table.
    """
    phi_n = euler_phi(n)
    top = cyclotomic_polynomial(n)
    mon = [1] + [0] * (phi_n - 1)
    out = [tuple(mon)]
    for _ in range(n - 1):
        carry = mon[-1]
        mon = [0] + mon[:-1]
        if carry:
            for i in range(phi_n):
                mon[i] -= carry * top[i]
        out.append(tuple(mon))
    return tuple(out)


@lru_cache(maxsize=None)
def _torsion(n: int) -> tuple[dict, tuple]:
    """The roots of unity +-zeta_n^k of Q(zeta_n) as powers zeta_(2n)^e, e in
    Z/2n: the map from the numerator tuple of each (over denominator 1) to
    its exponent e, and the numerator tuple of each exponent, None where
    zeta_(2n)^e is not in the field (odd e for even n).

    zeta_n^k is zeta_(2n)^(2k) and -zeta_n^k is zeta_(2n)^(n+2k), so these
    exponents form a subgroup of Z/2n: inverses and powers of a root of
    unity are exponent arithmetic, and its order is 2n / gcd(2n, e).
    """
    units = [None] * (2 * n)
    for k, mon in enumerate(_monomials(n)):
        units[2 * k] = mon
        units[(n + 2 * k) % (2 * n)] = tuple(-c for c in mon)
    return {num: e for e, num in enumerate(units) if num is not None}, tuple(units)


def _torsion_exponent(x: "CycloElem") -> int | None:
    """The e in Z/2n with x = zeta_(2n)^e, or None if x is not a root of unity."""
    return _torsion(x.n)[0].get(x.num) if x.den == 1 else None


def _root_of_unity(n: int, e: int) -> "CycloElem":
    """zeta_(2n)^e in Q(zeta_n), for an e in the subgroup of :func:`_torsion`."""
    return _element(n, _torsion(n)[1][e % (2 * n)], 1)


@lru_cache(maxsize=None)
def _trace_vector(n: int) -> tuple[int, ...]:
    """Traces over Q of the basis monomials zeta_n^i, i = 0 .. phi(n)-1."""
    phi_n = euler_phi(n)
    out = []
    for i in range(phi_n):
        d = n // gcd(n, i)  # order of zeta^i
        out.append(_mobius(d) * (phi_n // euler_phi(d)))
    return tuple(out)


def _normalize(n: int, num: list[int], den: int) -> "CycloElem":
    if den == 0:
        raise ZeroDivisionError("zero denominator in cyclotomic element")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = den
    for c in num:
        if c:
            g = gcd(g, c)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [c // g for c in num]
    return _element(n, tuple(num), den)


def _element(n: int, num: tuple, den: int) -> "CycloElem":
    """The element num / den of Q(zeta_n) for reduced coordinates that are
    already normalized (no common factor with den > 0): no gcd is taken."""
    el = CycloElem.__new__(CycloElem)
    el.n = n
    el.den = den
    el.num = num
    el._hash = None
    return el


def _add_product(acc: list[int], an, bn) -> list[int]:
    """Add the unreduced integer product of the coordinate vectors an and bn,
    the coefficients of sum_{i,j} a_i b_j zeta^(i+j), into acc of length
    2 phi(n) - 1, and return acc."""
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn, i):
                if bj:
                    acc[j] += ai * bj
    return acc


@lru_cache(maxsize=None)
def _sparse_monomials(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero coordinates of zeta_n^e as (index, value) pairs, for
    e = 0 .. n-1: the rows of :func:`_monomials` without their zeros, which
    every reduction and re-indexing reads, always at e mod n."""
    return tuple(tuple((j, r) for j, r in enumerate(mon) if r) for mon in _monomials(n))


def _reduce_product(n: int, prod: list[int]) -> list[int]:
    """Reduce sum_e prod[e] zeta_n^e (any length) to the power basis."""
    mons = _sparse_monomials(n)
    phi_n = euler_phi(n)
    out = prod[:phi_n]
    for e in range(phi_n, len(prod)):
        c = prod[e]
        if c:
            for t, rt in mons[e % n]:
                out[t] += c * rt
    return out


def _reindex_coords(coords, m: int, step: int) -> list[int]:
    """The power-basis coordinates of sum_i b_i zeta_m^(i*step) in Q(zeta_m),
    for the (index, value) pairs (i, b) of coords: with m a multiple of the
    conductor n of coords and step = m/n the embedding Q(zeta_n) -> Q(zeta_m),
    with m = n and step = u coprime to n the Galois automorphism sigma_u.

    The one re-indexing loop: field elements (:func:`_reindex`) and jet rows
    (``jets._map_row``) map here.  Neither map creates a common factor, so an
    image over the denominator of its source is normalized without a gcd:
    both send Z[zeta_n] into Z[zeta_m], and Q(zeta_n) meets Z[zeta_m] only in
    Z[zeta_n], so a prime divides every image coordinate only if it divides
    every coordinate it came from.
    """
    mons = _sparse_monomials(m)
    num = [0] * euler_phi(m)
    for i, b in coords:
        for j, r in mons[i * step % m]:
            num[j] += b * r
    return num


def _reindex(x: "CycloElem", m: int, step: int) -> "CycloElem":
    """x under the embedding or automorphism of :func:`_reindex_coords`."""
    coords = [(i, c) for i, c in enumerate(x.num) if c]
    return _element(m, tuple(_reindex_coords(coords, m, step)), x.den)


def _rational_hash(p: int, q: int) -> int:
    """hash(Fraction(p, q)) for coprime p and q > 0, without the Fraction: the
    numeric-hash rule of the Python reference (modulus P, inf when P | q)."""
    P = sys.hash_info.modulus
    if q % P == 0:
        h = sys.hash_info.inf
    else:
        h = abs(p) % P * pow(q, -1, P) % P
    if p < 0:
        h = -h
    return -2 if h == -1 else h


def _power(base, e: int, one):
    """base ** e for an integer e >= 0 by repeated squaring, for any type with
    an associative ``*`` whose identity is ``one`` (returned for e == 0).

    The one repeated-squaring loop: cyclotomic scalars, jets, polynomials and
    germs under composition all take their powers here.
    """
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


class CycloElem:
    """An element of Q(zeta_n) in reduced power-basis coordinates.

    ``CycloElem(n, coeffs)`` takes phi(n) rational coordinates.  Arithmetic
    accepts ints and Fractions, and lifts mixed conductors to their lcm.
    Instances are immutable and hashable; hashing agrees with ``Fraction``
    for rational-valued elements, so they can share dict keys.
    """

    __slots__ = ("n", "den", "num", "_hash")

    def __init__(self, n: int, coeffs) -> None:
        phi_n = euler_phi(n)
        coeffs = list(coeffs)
        if len(coeffs) != phi_n:
            raise ValueError(
                f"Q(zeta_{n}) needs {phi_n} coordinates, got {len(coeffs)}"
            )
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        norm = _normalize(
            n, [f.numerator * (den // f.denominator) for f in fracs], den
        )
        self.n = n
        self.den = norm.den
        self.num = norm.num
        self._hash = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rational(q, n: int = 1) -> "CycloElem":
        q = Fraction(q)
        phi_n = euler_phi(n)
        num = [0] * phi_n
        num[0] = q.numerator
        return _normalize(n, num, q.denominator)

    # -- basic predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- conductor handling ----------------------------------------------------

    def lift(self, m: int) -> "CycloElem":
        """The image of self under the embedding Q(zeta_n) -> Q(zeta_m), n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ConductorError(f"cannot lift conductor {self.n} into {m}")
        return _reindex(self, m, m // self.n)

    def _galois(self, u: int) -> "CycloElem":
        """sigma_u(self) for the automorphism zeta_n -> zeta_n^u, gcd(u, n) = 1."""
        return _reindex(self, self.n, u)

    def _pair(self, other) -> tuple["CycloElem", "CycloElem"]:
        if isinstance(other, CycloElem):
            if other.n == self.n:
                return self, other
            m = self.n * other.n // gcd(self.n, other.n)
            return self.lift(m), other.lift(m)
        if isinstance(other, (int, Fraction)):
            return self, CycloElem.from_rational(other, self.n)
        return self, NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _normalize(a.n, [x + y for x, y in zip(a.num, b.num)], da)
        return _normalize(a.n, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _normalize(a.n, [x - y for x, y in zip(a.num, b.num)], da)
        return _normalize(a.n, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _normalize(self.n, [-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # scale: no product to reduce
            return _normalize(
                self.n, [c * other.numerator for c in self.num], self.den * other.denominator
            )
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        an, bn = a.num, b.num
        if len(an) == 1:
            return _normalize(a.n, [an[0] * bn[0]], a.den * b.den)
        prod = _add_product([0] * (2 * len(an) - 1), an, bn)
        return _normalize(a.n, _reduce_product(a.n, prod), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """The multiplicative inverse.

        A root of unity zeta_(2n)^e inverts to zeta_(2n)^(-e), read from the
        table of its conductor (:func:`_torsion`).  Otherwise, for the
        integral multiple a = den * self, the product y of the other
        conjugates sigma_u(a), u in (Z/n)^*, u != 1, makes a * y the norm of
        a, a nonzero integer (Phi_n is irreducible), so 1/self = den * y / (a*y).
        """
        e = _torsion_exponent(self)
        if e is not None:
            return _root_of_unity(self.n, -e)
        if self.is_zero:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational:
            q = self.to_fraction()
            return CycloElem.from_rational(1 / q, self.n)
        n = self.n
        a = _normalize(n, list(self.num), 1)
        conjugates = [a._galois(u) for u in range(2, n) if gcd(u, n) == 1]
        y = conjugates[0]
        for s in conjugates[1:]:
            y = y * s
        norm = (a * y).num[0]
        return _normalize(n, [c * self.den for c in y.num], norm)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(other, self.n) * self.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        """self ** k; a root of unity zeta_(2n)^e gives zeta_(2n)^(k e) for
        any sign of k, and other elements square repeatedly."""
        if not isinstance(k, int):
            return NotImplemented
        e = _torsion_exponent(self)
        if e is not None:
            return _root_of_unity(self.n, k * e)
        one = CycloElem.from_rational(1, self.n)
        if k < 0:
            return _power(self.inverse(), -k, one)
        return _power(self, k, one)

    # -- comparison and hashing -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            if other.n == self.n:
                return self.den == other.den and self.num == other.num
            a, b = self._pair(other)
            return a.den == b.den and a.num == b.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.to_fraction() == other
        return NotImplemented

    def __hash__(self):
        # The normalized trace p/q is invariant under conductor lifting and
        # equals the value itself on rationals, so hashing it as Python hashes
        # the rational p/q keeps hash consistent with __eq__.
        h = self._hash
        if h is None:
            p = sum(c * t for c, t in zip(self.num, _trace_vector(self.n)))
            q = self.den * euler_phi(self.n)
            g = gcd(p, q)
            h = _rational_hash(p // g, q // g)
            self._hash = h
        return h

    def __repr__(self):
        return format_scalar(self)

    __str__ = __repr__


# -- module-level operations ---------------------------------------------------


def zeta(n: int) -> CycloElem:
    """The distinguished primitive n-th root of unity generating Q(zeta_n)."""
    return _normalize(n, list(_monomials(n)[1 % n]), 1)


def cyclo_embed(q, n: int) -> CycloElem:
    """Embed the rational q as q*1 in Q(zeta_n)."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return CycloElem.from_rational(q, n)


def root_of_unity_order(x: CycloElem) -> int | None:
    """The order of x in the unit group, or None if x is not a root of unity.

    The torsion units of Q(zeta_n) are exactly +-zeta_n^k, each some
    zeta_(2n)^e, so the order 2n / gcd(2n, e) is read from the exponent table
    of the conductor (:func:`_torsion`) instead of iterating powers.
    """
    if not isinstance(x, CycloElem):
        x = CycloElem.from_rational(x)
    e = _torsion_exponent(x)
    return None if e is None else 2 * x.n // gcd(2 * x.n, e)


def prime_power_order(m: int) -> tuple[int | None, int] | None:
    """(p, s) with m = p^s, the flat flag (None, 0) for m = 1, or None.

    None means m has at least two distinct prime factors.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return (None, 0)
    f = factorize(m)
    if len(f) == 1:
        ((p, s),) = f.items()
        return (p, s)
    return None


def solve_root_orbits(m: int, constraints, var: str = "a") -> list[tuple[int, int, int]]:
    """(k, d, u) for each m-th root of unity zeta_m^k satisfying the
    constraints, in increasing k: zeta^k = sigma_u(zeta^d), where d = gcd(k, m)
    mod m is the least exponent of its Galois orbit, and u = 1 when k = d.

    Each constraint is an equation string such as ``"a = 1/(1 - a)"``; a root
    at which some side is undefined (division by zero) fails it.  They are
    tested at zeta^d alone, one candidate per divisor of m.  This is exact:
    with integer literals and the one name ``var``, each side at sigma_u(x) is
    sigma_u of the side at x, so it is defined, and equal, exactly when that is.
    """
    from . import expressions  # deferred: expressions builds on this module

    if isinstance(constraints, str):
        constraints = [constraints]
    parsed = [expressions.parse_constraint(c) for c in constraints]
    ev = expressions.eval_scalar
    roots: dict[int, tuple[int, int]] = {}  # k -> (d, u)
    for d in (g % m for g in _divisors(m)):
        env = {var: _normalize(m, list(_monomials(m)[d]), 1)}
        try:
            if any(ev(lhs, env) != ev(rhs, env) for lhs, rhs in parsed):
                continue
        except ZeroDivisionError:
            continue
        # units in descending order, so that each k keeps its least u
        roots.update({u * d % m: (d, u) for u in range(m, 0, -1) if gcd(u, m) == 1})
    return [(k, *roots[k]) for k in sorted(roots)]


def solve_root_constraints(m: int, constraints, var: str = "a") -> list[CycloElem]:
    """All m-th roots of unity zeta_m^k in Q(zeta_m) satisfying the
    constraints, in increasing k (see :func:`solve_root_orbits`)."""
    roots = solve_root_orbits(m, constraints, var)
    return [_normalize(m, list(_monomials(m)[k]), 1) for k, _, _ in roots]


# -- serialization ---------------------------------------------------------------


def _format_ratio(p: int, q: int) -> str:
    """p/q in lowest terms, for q > 0: ``p`` when q divides p, else ``p/q``."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def format_scalar(x) -> str:
    """Canonical string form: ``p/q`` for rational values (including
    rational-valued field elements), ``cyclo(n)[...]`` otherwise.  A field
    element's coordinates are reduced from its integer numerators and common
    denominator, one gcd each, without building a Fraction."""
    try:
        if isinstance(x, int):
            return str(x)
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, CycloElem):
            num, den = x.num, x.den
            if not any(num[1:]):
                return _format_ratio(num[0], den)
            if den == 1:
                inner = ",".join(map(str, num))
            else:
                inner = ",".join([_format_ratio(c, den) for c in num])
            return f"cyclo({x.n})[{inner}]"
    except ValueError:  # the interpreter's digit limit, kept: the conversion is quadratic
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a number to print has more than {limit} decimal digits") from None
    raise TypeError(f"not a scalar: {x!r}")


_CYCLO_RE = re.compile(r"^cyclo\((\d+)\)\[([^\]]*)\]$")
_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_scalar(s: str):
    """Inverse of :func:`format_scalar`."""
    s = s.strip().replace(" ", "")
    m = _CYCLO_RE.match(s)
    if m:
        n = int(m.group(1))
        parts = m.group(2).split(",") if m.group(2) else []
        coeffs = []
        for p in parts:
            r = _RAT_RE.match(p)
            if not r:
                raise ValueError(f"bad rational entry {p!r} in {s!r}")
            coeffs.append(Fraction(int(r.group(1)), int(r.group(2) or 1)))
        return CycloElem(n, coeffs)
    r = _RAT_RE.match(s)
    if not r:
        raise ValueError(f"bad scalar literal {s!r}")
    return Fraction(int(r.group(1)), int(r.group(2) or 1))
