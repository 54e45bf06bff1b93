import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlin.cyclotomic import cyclo_embed, zeta
from germlin.jets import (
    Jet,
    RightComposer,
    jet_comp_inverse,
    jet_compose,
    jet_derivative,
    jet_mul_inverse,
    jet_rational_power,
    jet_ring,
)

from oracles import (
    faa_di_bruno_derivative,
    geometric_quotient,
    lagrange_inverse,
    naive_poly_compose,
    random_jet,
)


def test_ring_examples():
    z = Jet.identity(4)
    assert jet_ring("add", z, z) == Jet([0, 2, 0, 0, 0])
    assert jet_ring("mul", Jet.identity(3), Jet.identity(3)) == Jet([0, 0, 1, 0])
    assert jet_ring("mul", Jet([1, 1], order=4), Jet([1, -1], order=4)) == Jet(
        [1, 0, -1, 0, 0]
    )
    assert jet_ring("sub", z, z).is_zero()


def test_ring_order_mismatch():
    with pytest.raises(ValueError):
        jet_ring("add", Jet.identity(4), Jet.identity(5))
    assert jet_ring("add", Jet.identity(4), Jet.identity(5).truncate(4)) == Jet(
        [0, 2, 0, 0, 0]
    )


def test_compose_identity_neutral():
    rng = random.Random(3)
    for _ in range(10):
        f = random_jet(rng, 8)
        assert jet_compose(f, Jet.identity(8)) == f


def test_compose_quadratic_example():
    f = Jet([0, 1, 1, 0, 0])
    assert jet_compose(f, f) == Jet([0, 1, 2, 2, 1])


def _outer_series(rng, N, conductor):
    """Outer series for both branches of jet_compose: dense of full degree,
    dense of degree < N, sparse with at most four terms, the step conjugators
    z + c z^(k+1) for k = 1 .. N-1, and series with coefficients exactly 1."""
    yield random_jet(rng, N, conductor=conductor)
    for degree in (4, N - 1):
        dense = random_jet(rng, degree, conductor=conductor)
        yield Jet(dense.coeffs, order=N, conductor=conductor)
    for terms in (1, 2, 3, 4):
        coeffs = [0] * (N + 1)
        for e in rng.sample(range(N + 1), terms):
            coeffs[e] = random_jet(rng, 0, conductor=conductor).coeffs[0] + 1
        yield Jet(coeffs, order=N, conductor=conductor)
    c = random_jet(rng, 0, conductor=conductor).coeffs[0] + zeta(conductor)
    for k in range(1, N):
        yield Jet([0, 1] + [0] * (k - 1) + [c], order=N, conductor=conductor)
    yield Jet([1] * (N + 1), order=N, conductor=conductor)
    yield Jet([0, 1, 0, 1, 1], order=N, conductor=conductor)


def test_compose_matches_naive_substitution():
    rng = random.Random(17)
    N = 9
    for conductor in (1, 6):
        for f in _outer_series(rng, N, conductor):
            g = random_jet(rng, N, conductor=conductor, zero_constant=True)
            assert jet_compose(f, g) == naive_poly_compose(f, g)


def test_compose_cyclotomic_example():
    a = zeta(6)
    quotient = geometric_quotient(a, 3)  # z/(a+z)
    scale = Jet([0, 1 / a, 0, 0])  # z/a
    expected = Jet([0, a ** (-2), -(a ** (-3)), a ** (-4)])
    assert jet_compose(scale, quotient) == expected


def test_compose_lifts_mixed_conductors():
    rng = random.Random(53)
    f = random_jet(rng, 8)  # rational
    g = random_jet(rng, 8, conductor=4, zero_constant=True)
    got = jet_compose(f, g)
    assert got.conductor == 4
    assert got == naive_poly_compose(f, g)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        jet_compose(Jet.identity(4), Jet([1, 1, 0, 0, 0]))


def test_comp_inverse_examples():
    assert jet_comp_inverse(Jet.identity(6)) == Jet.identity(6)
    g = jet_comp_inverse(Jet([0, 1, 1, 0, 0]))
    assert g == Jet([0, 1, -1, 2, -5])


def test_comp_inverse_against_lagrange_and_round_trip():
    rng = random.Random(23)
    for conductor in (1, 4, 9):
        for _ in range(6):
            f = random_jet(rng, 10, conductor=conductor, zero_constant=True)
            if f.linear_term.is_zero:
                continue
            g = jet_comp_inverse(f)
            assert g == lagrange_inverse(f)
            assert jet_compose(f, g) == Jet.identity(10, f.conductor)
            assert jet_compose(g, f) == Jet.identity(10, f.conductor)


def test_comp_inverse_radical_pair():
    # inverse of z/(1-z^2)^(1/2) equals z/(1+z^2)^(1/2) at order 8
    N = 8
    minus = Jet([1, 0, -1] + [0] * (N - 2), order=N)
    plus = Jet([1, 0, 1] + [0] * (N - 2), order=N)
    f = Jet.identity(N) * jet_rational_power(minus, Fraction(-1, 2))
    finv = Jet.identity(N) * jet_rational_power(plus, Fraction(-1, 2))
    assert jet_comp_inverse(f) == finv


def test_comp_inverse_domain_errors():
    with pytest.raises(ValueError):
        jet_comp_inverse(Jet([1, 1, 0, 0]))  # nonzero constant term
    with pytest.raises(ValueError):
        jet_comp_inverse(Jet([0, 0, 1, 0]))  # zero linear coefficient


def test_mul_inverse_examples():
    assert jet_mul_inverse(Jet([1, 0, 0])) == Jet([1, 0, 0])
    assert jet_mul_inverse(Jet([1, -1, 0, 0])) == Jet([1, 1, 1, 1])
    a = zeta(6)
    assert jet_mul_inverse(Jet([a, 1], order=2)) == Jet(
        [1 / a, -(a ** (-2)), a ** (-3)], order=2
    )
    with pytest.raises(ValueError):
        jet_mul_inverse(Jet([0, 1, 0]))


def test_mul_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        f = random_jet(rng, 12)
        if f.constant_term.is_zero:
            continue
        assert f * jet_mul_inverse(f) == Jet.constant(1, 12, f.conductor)


def test_derivative_examples():
    assert jet_derivative(Jet.identity(3)) == Jet([1, 0, 0], order=2)
    assert jet_derivative(Jet([0, 1, 0, 1])) == Jet([1, 0, 3], order=2)
    with pytest.raises(ValueError):
        jet_derivative(Jet([5], order=0))


def test_chain_rule():
    rng = random.Random(11)
    for _ in range(10):
        N = 10
        f = random_jet(rng, N)
        g = random_jet(rng, N, zero_constant=True)
        lhs = jet_derivative(jet_compose(f, g))
        rhs = jet_compose(jet_derivative(f), g.truncate(N - 1)) * jet_derivative(g)
        assert lhs == rhs


def test_rational_power_examples():
    assert jet_rational_power(Jet([1, 0, 0]), Fraction(1, 2)) == Jet([1, 0, 0])
    assert jet_rational_power(Jet([1, 0, -1, 0, 0]), Fraction(-1, 2)) == Jet(
        [1, 0, Fraction(1, 2), 0, Fraction(3, 8)]
    )
    got = Jet.identity(5) * jet_rational_power(
        Jet([1, 0, -1, 0, 0, 0]), Fraction(-1, 2)
    )
    assert got == Jet([0, 1, 0, Fraction(1, 2), 0, Fraction(3, 8)])
    with pytest.raises(ValueError):
        jet_rational_power(Jet([2, 0, 0]), Fraction(1, 2))


def test_rational_power_is_consistent_with_squaring():
    # independent algebraic check: g = f^(1/2) must satisfy g*g = f
    rng = random.Random(29)
    for _ in range(8):
        f = random_jet(rng, 10)
        coeffs = list(f.coeffs)
        coeffs[0] = cyclo_embed(1, f.conductor)
        f = Jet(coeffs, order=10, conductor=f.conductor)
        g = jet_rational_power(f, Fraction(1, 2))
        assert g * g == f


def test_rational_power_addition_law():
    rng = random.Random(31)
    for _ in range(6):
        f = random_jet(rng, 9)
        coeffs = list(f.coeffs)
        coeffs[0] = cyclo_embed(1, f.conductor)
        f = Jet(coeffs, order=9, conductor=f.conductor)
        p, q = Fraction(1, 3), Fraction(-3, 2)
        assert jet_rational_power(f, p) * jet_rational_power(f, q) == (
            jet_rational_power(f, p + q)
        )


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=6,
        max_size=6,
    ),
    extra=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=6,
        max_size=6,
    ),
)
def test_composition_associative(data, extra):
    N = 8
    f = Jet([0, 1] + data, order=N)
    g = Jet([0, 1] + extra, order=N)
    h = Jet([0, 1] + [a + b for a, b in zip(data, extra)], order=N)
    assert jet_compose(jet_compose(f, g), h) == jet_compose(f, jet_compose(g, h))


def test_faa_di_bruno_consistency():
    rng = random.Random(41)
    from math import factorial

    for _ in range(12):
        N = 10
        phi = random_jet(rng, N)
        psi = random_jet(rng, N, zero_constant=True)
        comp = jet_compose(phi, psi)
        for n in range(1, N + 1):
            direct = comp.coefficient(n) * factorial(n)
            assert faa_di_bruno_derivative(phi, psi, n) == direct


def test_right_composer_matches_compose():
    rng = random.Random(43)
    g = random_jet(rng, 12, conductor=6, zero_constant=True)
    rc = RightComposer(g)
    for _ in range(5):
        w = random_jet(rng, 12, conductor=6)
        assert rc(w) == jet_compose(w, g)


def test_truncation_and_no_silent_extension():
    f = Jet([1, 2, 3, 4])
    assert f.truncate(2) == Jet([1, 2, 3])
    with pytest.raises(ValueError):
        f.truncate(5)
    with pytest.raises(ValueError):
        Jet([1, 2, 3], order=1)


def test_serialization():
    f = Jet([0, 1, 1, 0, 0])
    assert str(f) == "jet(N=4)[0, 1, 1, 0, 0]"
    assert Jet.from_json(f.to_json()) == f
    g = Jet([0, zeta(6)], order=3)
    assert Jet.from_json(g.to_json()) == g
