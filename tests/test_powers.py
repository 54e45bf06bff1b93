"""The one repeated-squaring loop and the one jet product kernel.

``cyclotomic._power`` computes every integer power in the library: scalars,
jets, polynomials and germs under composition.  Each power is checked against
the e-fold product built one factor at a time, and jet products against the
schoolbook product of ``oracles``, so a fault in the shared kernels cannot
hide behind itself.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from germlin.cyclotomic import CycloElem, _power, cyclo_embed, zeta
from germlin.germs import Germ, identity_germ, iterate
from germlin.jets import Jet, jet_mul_inverse
from germlin.pforms import MultiPoly

from oracles import lagrange_inverse, naive_jet_product, naive_poly_compose, random_jet

EXPONENTS = range(10)


def _fold(op, x, e, one):
    return reduce(op, [x] * e, one)


class _Exponent:
    """An exponent e of the additive monoid written multiplicatively; every
    product taken is appended to the log its factors share."""

    def __init__(self, e, log):
        self.e, self.log = e, log

    def __mul__(self, other):
        self.log.append((self.e, other.e))
        return _Exponent(self.e + other.e, self.log)


@pytest.mark.parametrize("e", range(40))
def test_power_squares_as_few_times_as_binary_powering_needs(e):
    log = []
    assert _power(_Exponent(1, log), e, _Exponent(0, log)).e == e
    # floor(log2 e) squarings plus one product per further set bit
    expected = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
    assert len(log) == expected


@pytest.mark.parametrize("n", [1, 6, 9])
def test_cyclotomic_powers_are_repeated_products(n):
    one = cyclo_embed(1, n)
    x = cyclo_embed(Fraction(2, 3), n) + (zeta(n) * Fraction(-1, 2) if n > 1 else 0)
    for e in EXPONENTS:
        assert x ** e == _fold(CycloElem.__mul__, x, e, one)
        assert x ** -e == _fold(CycloElem.__mul__, one / x, e, one)


def test_polynomial_powers_are_repeated_products():
    x = MultiPoly.monomial(3, (1, 0, 0), 1)
    p = x * 2 + MultiPoly.monomial(3, (0, 1, 1), Fraction(-1, 3)) + 1
    one = MultiPoly.constant(3, 1)
    # one-term bases take their power in closed form, c^e x^(e a)
    one_term = [
        x,
        MultiPoly.constant(3, Fraction(-3, 2)),
        MultiPoly.monomial(3, (2, 0, 3), Fraction(5, -4)),
        MultiPoly.monomial(3, (0, 1, 1), zeta(6) * Fraction(2, 3) - 1),
    ]
    for base in [p] + one_term:
        for e in EXPONENTS:
            got, want = base ** e, _fold(MultiPoly.__mul__, base, e, one)
            assert got == want and got.terms == want.terms
        with pytest.raises(ValueError):
            base ** -1


@pytest.mark.parametrize("conductor", [1, 6])
@pytest.mark.parametrize("c0", [0, 1, 2])
def test_jet_powers_are_repeated_schoolbook_products(c0, conductor):
    rng = random.Random(41 + c0)
    N = 8
    f = random_jet(rng, N, conductor=conductor, zero_constant=True) + c0
    one = Jet.constant(1, N, conductor)
    for e in EXPONENTS:
        assert f ** e == _fold(naive_jet_product, f, e, one)
        if c0:
            assert f ** -e == _fold(naive_jet_product, jet_mul_inverse(f), e, one)


def test_jet_products_are_schoolbook_products():
    rng = random.Random(43)
    for N, conductor in ((0, 1), (1, 1), (6, 1), (9, 6), (7, 9)):
        for _ in range(4):
            a = random_jet(rng, N, conductor=conductor)
            b = random_jet(rng, N, conductor=conductor)
            assert a * b == naive_jet_product(a, b)
    sparse = Jet([0, 0, 3, 0, 0, 0, 1], order=6)
    assert sparse * sparse == Jet([0, 0, 0, 0, 9, 0, 0], order=6)


def test_iterates_are_repeated_compositions():
    rng = random.Random(47)
    N = 7
    f = random_jet(rng, N, conductor=6, zero_constant=True, unit_linear=True)
    f = f + Jet([0, zeta(6) - 1], order=N)
    identity = identity_germ(N, 6).jet
    inverse = lagrange_inverse(f)
    for e in EXPONENTS:
        assert iterate(Germ(f), e).jet == _fold(naive_poly_compose, f, e, identity)
        assert iterate(Germ(f), -e).jet == _fold(naive_poly_compose, inverse, e, identity)
    assert Germ(f) ** 3 == iterate(Germ(f), 3)
