import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlin.cyclotomic import CycloElem, cyclo_embed, euler_phi, format_scalar, zeta
from germlin.jets import (
    Jet,
    RightComposer,
    _compose_rows,
    _entry,
    _in_power_of_z,
    _power_rows,
    _row_coeffs,
    _sparse_row,
    _weighted_sum,
    jet_comp_inverse,
    jet_compose,
    jet_derivative,
    jet_mul_inverse,
    jet_rational_power,
)

from oracles import (
    cyclotomic_remainder,
    faa_di_bruno_derivative,
    geometric_quotient,
    lagrange_inverse,
    naive_jet_product,
    naive_binomial_power,
    naive_poly_compose,
    naive_reciprocal,
    random_jet,
    successive_powers,
)


def test_ring_examples():
    z = Jet.identity(4)
    assert z + z == Jet([0, 2, 0, 0, 0])
    assert Jet.identity(3) * Jet.identity(3) == Jet([0, 0, 1, 0])
    assert Jet([1, 1], order=4) * Jet([1, -1], order=4) == Jet([1, 0, -1, 0, 0])
    assert (z - z).is_zero()


def test_ring_order_mismatch():
    with pytest.raises(ValueError):
        Jet.identity(4) + Jet.identity(5)
    assert Jet.identity(4) + Jet.identity(5).truncate(4) == Jet([0, 2, 0, 0, 0])


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
    # (1 - z^2)^2 and (1 + z^3)^(1/3): the sums end at C(2, 3) = 0 and at N // 3
    assert jet_rational_power(Jet([1, 0, -1, 0, 0, 0]), 2) == Jet([1, 0, -2, 0, 1, 0])
    assert jet_rational_power(Jet([1, 0, 0, 1, 0, 0, 0]), Fraction(1, 3)) == Jet(
        [1, 0, 0, Fraction(1, 3), 0, 0, Fraction(-1, 9)]
    )
    with pytest.raises(ValueError):
        jet_rational_power(Jet([2, 0, 0]), Fraction(1, 2))


def test_rational_power_at_integers_is_the_integer_power():
    # f == 1 has no u, and f - 1 of valuation v bounds the binomial sum at
    # N // v; a nonnegative k stops it at C(k, k + 1) = 0
    N = 9
    rng = random.Random(37)
    fs = [Jet.constant(1, N), Jet.constant(1, N, conductor=6)]
    for v, conductor in ((1, 1), (2, 1), (3, 6), (2, 9)):
        tail = random_jet(rng, N, conductor=conductor).coeffs[v + 1 :]
        fs.append(Jet([1] + [0] * (v - 1) + [Fraction(-2, v)] + list(tail), order=N))
    fs.append(Jet([1, 0, 0, 0, 0, Fraction(1, 3)], order=N))
    for f in fs:
        for k in range(-3, 6):
            assert jet_rational_power(f, k) == f ** k, (f, k)
            assert jet_rational_power(f, Fraction(k)) == f ** k


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


# -- the accumulator against the oracles at conductors 1, 6, 9, 10, 18 and beyond -----

ORACLE_CONDUCTORS = (1, 6, 9, 10, 18)
ORACLE_ORDER = 8
# the row tests also run across the loader's conductor range, at a lower
# order: a prime, a power of 2, the first Phi_n with a coefficient -2
# (n = 105) and the largest conductor, 360, where phi = 96
WIDE_CONDUCTORS = (7, 8, 105, 360)
WIDE_ORDER = 6


def _row_order(n):
    return ORACLE_ORDER if n in ORACLE_CONDUCTORS else WIDE_ORDER


def _mixed_jet(rng, N, n, zero_constant=False, unit_linear=False):
    """A jet over Q(zeta_n) whose coordinates carry distinct denominators,
    with about a quarter of its coefficients zero and some exactly 1, so the
    weighted sums see unit weights, zero row entries and the lcm path."""
    phi_n = euler_phi(n)
    coeffs = []
    for _ in range(N + 1):
        r = rng.random()
        if r < 0.25:
            coeffs.append(0)
        elif r < 0.4:
            coeffs.append(1)
        else:
            coords = [
                Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7, 9)))
                for _ in range(phi_n)
            ]
            coeffs.append(CycloElem(n, coords))
    if zero_constant:
        coeffs[0] = 0
    if unit_linear:
        coeffs[1] = 1
    return Jet(coeffs, order=N, conductor=n)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_products_match_schoolbook_at_each_conductor(n):
    rng = random.Random(700 + n)
    for _ in range(4):
        f, g = _mixed_jet(rng, ORACLE_ORDER, n), _mixed_jet(rng, ORACLE_ORDER, n)
        assert f * g == naive_jet_product(f, g)
        assert f * f == naive_jet_product(f, f)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_compose_and_right_composer_match_substitution_at_each_conductor(n):
    rng = random.Random(710 + n)
    for _ in range(3):
        g = _mixed_jet(rng, ORACLE_ORDER, n, zero_constant=True)
        rc = RightComposer(g)
        for f in (_mixed_jet(rng, ORACLE_ORDER, n), Jet([1] * (ORACLE_ORDER + 1), conductor=n)):
            expected = naive_poly_compose(f, g)
            assert jet_compose(f, g) == expected
            assert rc(f) == expected


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_right_composer_prefix_is_the_head_of_the_full_composition(n):
    rng = random.Random(715 + n)
    for _ in range(2):
        rc = RightComposer(_mixed_jet(rng, ORACLE_ORDER, n, zero_constant=True))
        w = _mixed_jet(rng, ORACLE_ORDER, n)
        full = list(rc(w).coeffs)
        for K in range(ORACLE_ORDER + 1):
            head = rc.prefix(_sparse_row(w.coeffs[: K + 1]), K)
            assert _row_coeffs(head, K, n) == full[: K + 1]


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_inverses_match_oracles_at_each_conductor(n):
    rng = random.Random(720 + n)
    N = _row_order(n)
    identity = Jet.identity(N, n)
    for unit_linear in (True, False, False):
        if n in ORACLE_CONDUCTORS:
            g = _mixed_jet(rng, N, n, zero_constant=True, unit_linear=unit_linear)
            if not g.linear_term.is_zero:
                inverse = RightComposer(g).inverse()
                assert inverse == lagrange_inverse(g)
                assert naive_poly_compose(g, inverse) == identity
            f = _mixed_jet(rng, N, n)
        else:
            # the reciprocal only, of 1 - zeta_n plus a random tail: a dense
            # constant term would spend the time in CycloElem.inverse
            f = Jet([1 - zeta(n)] + list(_mixed_jet(rng, N, n).coeffs[1:]), conductor=n)
        if not f.constant_term.is_zero:
            reciprocal = jet_mul_inverse(f)
            assert reciprocal == naive_reciprocal(f)
            assert naive_jet_product(f, reciprocal) == Jet.constant(1, N, n)


@pytest.mark.parametrize("n", (1, 6, 10))
@pytest.mark.parametrize("g", (2, 3, 5))
def test_series_in_a_power_of_z_match_the_oracles(n, g):
    # f = F(z^g) is solved in w = z^g at order N // g; at N = g - 1 the row is
    # its constant alone, so the gcd of its degrees is 0 and no w is taken
    rng = random.Random(740 + 10 * n + g)
    for N in (g - 1, g, 17, 48):
        F = _mixed_jet(rng, N // g, n, unit_linear=N >= g).coeffs
        spread = [0] * (N + 1)
        for t, c in enumerate(F):
            spread[g * t] = c
        spread[0] = 1 - zeta(n) if n > 2 else Fraction(-3, 7)
        f = Jet(spread, order=N, conductor=n)
        reciprocal = naive_reciprocal(f)
        assert jet_mul_inverse(f) == reciprocal
        assert _in_power_of_z(f, jet_mul_inverse) == (reciprocal if N >= g else None)
        spread[0] = 1
        f = Jet(spread, order=N, conductor=n)
        for r in (Fraction(-1, 2), Fraction(2, 3)):
            power = naive_binomial_power(f, r)
            assert jet_rational_power(f, r) == power
            in_w = _in_power_of_z(f, lambda h: jet_rational_power(h, r))
            assert in_w == (power if N >= g else None)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_rational_powers_match_schoolbook_products_at_each_conductor(n):
    rng = random.Random(730 + n)
    one = Jet.constant(1, ORACLE_ORDER, n)
    for _ in range(2):
        f = Jet([1] + list(_mixed_jet(rng, ORACLE_ORDER, n).coeffs[1:]), conductor=n)
        assert jet_rational_power(f, 3) == naive_jet_product(naive_jet_product(f, f), f)
        assert naive_jet_product(jet_rational_power(f, -2), naive_jet_product(f, f)) == one
        half = jet_rational_power(f, Fraction(1, 2))
        assert naive_jet_product(half, half) == f
        third = jet_rational_power(f, Fraction(-1, 3))
        assert naive_jet_product(naive_jet_product(third, third), naive_jet_product(third, f)) == one


# -- the sparse-row kernel against the schoolbook oracles ----------------------------

SPARSE_ORDER = 48


def _naive_weighted_sum(terms, N, n):
    """sum weight * z^shift * row by schoolbook products of dense jets."""
    total = Jet.constant(0, N, n)
    for weight, shift, row in terms:
        if shift <= N:
            monomial = Jet([0] * shift + [weight], order=N, conductor=n)
            total = total + naive_jet_product(monomial, Jet(row, order=N, conductor=n))
    return list(total.coeffs)


@pytest.mark.parametrize("p", (2, 3, 4, 5))
def test_sparse_rows_of_the_ex43_generator(p):
    # f = z (1 - z^p)^(-1/p): every power f^e is nonzero only at degrees
    # congruent to e mod p, so its sparse row keeps about 1/p of the entries
    N = SPARSE_ORDER
    z = Jet.identity(N)
    f = z * jet_rational_power(Jet.constant(1, N) - z**p, Fraction(-1, p))
    power = Jet.constant(1, N)
    for _ in range(p):
        power = naive_jet_product(power, f)
    assert naive_jet_product(power, Jet.constant(1, N) - z**p) == z**p
    rng = random.Random(740 + p)
    for n in (1, 2 * p):
        g = f.lift(n)
        rc = RightComposer(g)
        w = _mixed_jet(rng, N, n)
        power, expected = Jet.constant(1, N, n), Jet.constant(0, N, n)
        for e, row in enumerate(rc.rows):
            assert row == _sparse_row(power.coeffs)
            assert all((t - e) % p == 0 for t, _, _ in row)
            expected = expected + power * w.coeffs[e]
            power = naive_jet_product(power, g)
        assert rc(w) == expected
        assert g * w == naive_jet_product(g, w)
        assert g * g == naive_jet_product(g, g)
        head = Jet(list(w.coeffs[:7]), order=N, conductor=n)
        assert rc(head) == naive_poly_compose(head, g)
        assert jet_compose(head, g) == naive_poly_compose(head, g)


def _terms(rng, n, N, shifts, weights):
    """(weight, shift, dense row) terms with random rows over Q(zeta_n)."""
    return [
        (cyclo_embed(1, n) * w, s, list(_mixed_jet(rng, N, n).coeffs))
        for w, s in zip(weights, shifts)
    ]


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_weighted_sum_truncates_shifted_rows_and_skips_zero_weights(n):
    rng = random.Random(750 + n)
    N = ORACLE_ORDER
    w = _mixed_jet(rng, 3, n).coeffs
    # every entry of the second and third rows lands past N, and only the
    # constant entry of the fourth reaches degree N
    terms = _terms(rng, n, N, (0, N + 1, 2 * N, N, 3, 1), (w[1], w[2], 1, w[3], 0, w[0]))
    sparse = [(_entry(we), s, _sparse_row(row)) for we, s, row in terms]
    assert _row_coeffs(_weighted_sum(sparse, N, n), N, n) == _naive_weighted_sum(terms, N, n)
    beyond = [t for t in sparse if t[1] > N]
    assert _row_coeffs(_weighted_sum(beyond, N, n), N, n) == [cyclo_embed(0, n)] * (N + 1)
    zero_weights = [(_entry(cyclo_embed(0, n)), s, row) for _, s, row in sparse]
    assert _row_coeffs(_weighted_sum(zero_weights, N, n), N, n) == [cyclo_embed(0, n)] * (N + 1)
    assert _row_coeffs(_weighted_sum([], N, n), N, n) == [cyclo_embed(0, n)] * (N + 1)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_weighted_sum_rescales_to_the_lcm_of_denominators(n):
    # weights over 2, 3, 6 and 4 on integral rows that share every degree:
    # 3 does not divide 2 (rescale to 6), 6 divides 6, 4 does not (to 12)
    N = 6
    x = zeta(n) if n > 2 else cyclo_embed(5, n)  # 5/6 * x keeps denominator 6
    row = [cyclo_embed(0, n)] + [x + k for k in range(1, N + 1)]
    weights = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6) * x, Fraction(3, 4)]
    terms = [(cyclo_embed(1, n) * q, 0, row) for q in weights]
    assert [we.den for we, _, _ in terms] == [2, 3, 6, 4]
    sparse = [(_entry(we), s, _sparse_row(r)) for we, s, r in terms]
    got = _row_coeffs(_weighted_sum(sparse, N, n), N, n)
    assert got == _naive_weighted_sum(terms, N, n)


# -- the row format at conductors 1, 6, 9, 10 and 18 ---------------------------------


def _ex43_generator(p, N):
    """z (1 - z^p)^(-1/p): its powers are nonzero only at degrees congruent
    to the exponent mod p."""
    z = Jet.identity(N)
    return z * jet_rational_power(Jet.constant(1, N) - z**p, Fraction(-1, p))


def _assert_canonical(row, N, n):
    """Entries in increasing degree <= N; in each, the nonzero coordinates in
    increasing index below phi(n) over a positive denominator, with no
    common factor."""
    degrees = [t for t, _, _ in row]
    assert degrees == sorted(set(degrees)) and all(0 <= t <= N for t in degrees)
    for _, coords, den in row:
        index = [j for j, _ in coords]
        assert coords and den > 0 and all(b for _, b in coords)
        assert index == sorted(set(index)) and index[-1] < euler_phi(n)
        assert gcd(den, *(b for _, b in coords)) == 1


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_rows_are_canonical_at_each_conductor(n):
    rng = random.Random(760 + n)
    N = _row_order(n)
    f = _mixed_jet(rng, N, n)
    g, h = (_mixed_jet(rng, N, n, zero_constant=True) for _ in range(2))
    fr, gr, hr = (_sparse_row(x.coeffs) for x in (f, g, h))
    # one value reached along two paths, f o (g o h) and (f o g) o h
    gh = _compose_rows(gr, hr, N, n)
    inner = _compose_rows(fr, gh, N, n)
    outer = _compose_rows(_compose_rows(fr, gr, N, n), hr, N, n)
    assert inner == outer
    assert _row_coeffs(inner, N, n) == list(naive_poly_compose(f, naive_poly_compose(g, h)).coeffs)
    # sums that cancel in whole or in part, and two halves of a unit weight
    one, minus = _entry(cyclo_embed(1, n)), _entry(cyclo_embed(-1, n))
    half = _entry(cyclo_embed(Fraction(1, 2), n))
    partial = _weighted_sum([(one, 0, gr), (one, 0, hr), (minus, 0, hr)], N, n)
    halves = _weighted_sum([(half, 0, gr), (half, 0, gr)], N, n)
    cancelled = _weighted_sum([(one, 1, gr), (minus, 1, gr)], N, n)
    assert partial == halves == gr and cancelled == ()
    rows = [fr, gr, hr, gh, _compose_rows(hr, gr, N, n), inner, outer, partial, halves, cancelled]
    for row in rows:
        _assert_canonical(row, N, n)
    for a, b in product(rows, repeat=2):
        assert (a == b) == (_row_coeffs(a, N, n) == _row_coeffs(b, N, n))


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_power_rows_match_schoolbook_powers_at_each_conductor(n):
    rng = random.Random(770 + n)
    N = _row_order(n)
    inner = [_mixed_jet(rng, N, n, zero_constant=True), _ex43_generator(3, N).lift(n)]
    # valuation k > 1, as the linearizer's v = g/z - mu at step k
    for k in (2, 3):
        tail = _mixed_jet(rng, N - k, n).coeffs
        inner.append(Jet([0] * k + [1] + list(tail[1:]), order=N, conductor=n))
    for g in inner:
        rows = _power_rows(_sparse_row(g.coeffs), N, N, n)
        assert RightComposer(g).rows == rows
        power = Jet.constant(1, N, n)
        for row in rows:
            _assert_canonical(row, N, n)
            assert row == _sparse_row(power.coeffs)
            power = naive_jet_product(power, g)


@pytest.mark.parametrize("N", (16, 32, 64))
@pytest.mark.parametrize("n", (1, 9, 10, 18))
def test_power_rows_by_squares_equal_successive_products(n, N):
    # each even power is the square of its half, each odd one a product by g;
    # the table must equal the one of successive schoolbook products
    rng = random.Random(800 + n + N)
    unit = zeta(n) if n > 2 else 2
    series = [
        # coordinates over 1, 2, 3, 5, 7 and 9, so rows with denominators
        _mixed_jet(rng, N, n, zero_constant=True),
        # sparse: degrees congruent to 1 mod 3, denominators powers of 3
        _ex43_generator(3, N).lift(n),
        # every entry over 1, where the finish takes no gcd
        Jet([0, 1, unit, 0, -1, 0, 0, 3 * unit], order=N, conductor=n),
        # valuation 2, as the linearizer's v = g/z - mu
        Jet([0, 0, 1] + list(_mixed_jet(rng, N - 3, n).coeffs), order=N, conductor=n),
    ]
    d = N if N < 64 else 12  # at N = 64 a table to 12 holds squares of both parities
    for g in series:
        rows = _power_rows(g.row, d, N, n)
        expected = successive_powers(g, d)
        assert len(rows) == len(expected) == d + 1
        for row, coeffs in zip(rows, expected):
            _assert_canonical(row, N, n)
            assert _row_coeffs(row, N, n) == coeffs


@pytest.mark.parametrize("n", (7, 9, 25, 105))
def test_sparse_finish_equals_dense_reduction(n):
    # at 7, 9 and 25, 2 phi(n) - 2 >= n: the top powers zeta^e of an
    # unreduced product pass zeta^n, so the kernel's finish, CycloElem
    # products and sigma_u must read the table of reduced powers at e mod n;
    # Phi_105 has a coefficient -2
    phi = euler_phi(n)
    assert (2 * phi - 2 >= n) == (n != 105)
    rng = random.Random(790 + n)
    units = [u for u in range(2, n) if gcd(u, n) == 1]
    for _ in range(12):
        da, db = rng.choice((1, 2, 6)), rng.choice((1, 3, 4))
        a = [rng.randint(-5, 5) for _ in range(phi - 1)] + [rng.choice((-2, 1, 3))]
        b = [rng.randint(-5, 5) for _ in range(phi - 1)] + [rng.choice((-1, 2, 5))]
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        x = CycloElem(n, [Fraction(c, da) for c in a])
        y = CycloElem(n, [Fraction(c, db) for c in b])
        xy = CycloElem(n, [Fraction(c, da * db) for c in cyclotomic_remainder(n, prod)])
        assert x * y == xy
        assert _weighted_sum([(_entry(x), 0, _sparse_row([y]))], 0, n) == _sparse_row([xy])
        # the series x z + y z^2, squared and times itself, over one finish per degree
        g = Jet([0, x, y], order=4, conductor=n)
        square = Jet([0, 0, x * x, 2 * xy, y * y], order=4, conductor=n).row
        assert _power_rows(g.row, 2, 4, n)[2] == (g * g).row == square
        u = rng.choice(units)
        image = [0] * n
        for i, c in enumerate(a):
            image[i * u % n] += c
        expected = CycloElem(n, [Fraction(c, da) for c in cyclotomic_remainder(n, image)])
        assert Jet([x], order=0)._galois(u).row == _sparse_row([expected])


def _reindex_oracle(x, m, step):
    """(num, den) of sum_i x_i zeta_m^(i*step) for x over Q(zeta_n): the
    re-indexed coordinates reduced by long division by Phi_m, then divided by
    their common factor with the denominator."""
    image = [0] * m
    for i, c in enumerate(x.num):
        image[i * step % m] += c
    num = cyclotomic_remainder(m, image)
    g = gcd(x.den, *num)
    return tuple(c // g for c in num), x.den // g


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_lift_and_galois_match_the_remainder_oracle_at_each_conductor(n):
    # the embeddings by 2, 3 and 5 and up to six automorphisms sigma_u take
    # no gcd, so every image must already be normalized
    rng = random.Random(810 + n)
    N = _row_order(n)
    others = [u for u in range(2, n) if gcd(u, n) == 1]
    units = [1] + rng.sample(others, min(5, len(others)))
    for _ in range(3):
        jet = _mixed_jet(rng, N, n)
        maps = [(k * n, k, jet.lift(k * n)) for k in (2, 3, 5)]
        maps += [(n, u, jet._galois(u)) for u in units]
        for m, step, image in maps:
            assert image.conductor == m
            _assert_canonical(image.row, N, m)
            for x, y in zip(jet.coeffs, image.coeffs):
                z = x.lift(m) if m != n else x._galois(step)
                assert (z.num, z.den) == (y.num, y.den) == _reindex_oracle(x, m, step)
                assert gcd(z.den, *z.num) == 1


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_inverse_read_from_rows_matches_oracles_at_each_conductor(n):
    rng = random.Random(780 + n)
    N = _row_order(n)
    identity = Jet.identity(N, n)
    sparse = [_ex43_generator(p, N).lift(n) for p in (2, 3)]
    scaled = Jet([0, zeta(n) if n > 2 else 3, 0, 0, Fraction(1, 2)], order=N, conductor=n)
    for g in sparse + [scaled, _mixed_jet(rng, N, n, zero_constant=True, unit_linear=True)]:
        rc = RightComposer(g)
        assert not hasattr(rc, "powers")
        inverse = rc.inverse()
        assert inverse == lagrange_inverse(g)
        assert naive_poly_compose(g, inverse) == identity == naive_poly_compose(inverse, g)
    with pytest.raises(ValueError):
        RightComposer(Jet([0, 0, 1], order=N, conductor=n)).inverse()


# -- the Jet contract: a jet is its row, and its coefficients follow from it -----------

_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _elements(n):
    """Zero, one or an element of Q(zeta_n) with small coordinates."""
    phi_n = euler_phi(n)
    return st.one_of(
        st.just(0),
        st.just(1),
        st.lists(_SMALL, min_size=phi_n, max_size=phi_n).map(lambda c: CycloElem(n, c)),
    )


@st.composite
def _coefficient_lists(draw, conductors=ORACLE_CONDUCTORS):
    """(n, coefficients) of a jet of order 0 .. 6 over Q(zeta_n)."""
    n = draw(st.sampled_from(conductors))
    size = draw(st.integers(1, 7))
    return n, draw(st.lists(_elements(n), min_size=size, max_size=size))


def _in_field(coeffs, n):
    """The coefficients as elements of Q(zeta_n), one at a time."""
    return tuple(cyclo_embed(c, n) if isinstance(c, int) else c for c in coeffs)


def _row_only(jet):
    """The same jet holding only its row, as the operations return jets."""
    return Jet._of(jet.row, jet.order, jet.conductor)


@settings(max_examples=80, deadline=None)
@given(_coefficient_lists())
def test_jet_coefficients_round_trip_through_the_row(case):
    n, coeffs = case
    expected = _in_field(coeffs, n)
    jet = Jet(coeffs, conductor=n)
    assert jet.coeffs == expected == _row_only(jet).coeffs
    assert jet.row == _sparse_row(expected)
    _assert_canonical(jet.row, jet.order, n)


@settings(max_examples=80, deadline=None)
@given(_coefficient_lists(), st.data())
def test_jet_keys_are_equal_exactly_when_the_coefficients_are(case, data):
    n, coeffs = case
    other = list(coeffs)
    if data.draw(st.booleans()):  # change one coefficient, perhaps to an equal value
        k = data.draw(st.integers(0, len(coeffs) - 1))
        other[k] = data.draw(_elements(n))
    a, b = Jet(coeffs, conductor=n), Jet(other, conductor=n)
    same = _in_field(coeffs, n) == _in_field(other, n)
    assert (a.key() == b.key()) == same == (a == b)
    assert (_row_only(a) == _row_only(b)) == same


@settings(max_examples=80, deadline=None)
@given(_coefficient_lists(conductors=(1,)), _coefficient_lists(), st.integers(1, 40))
def test_jet_equals_its_lift_and_its_galois_images_map_each_coefficient(rational, case, u):
    _, coeffs = rational
    n, field_coeffs = case
    jet = Jet(coeffs)
    lifted = jet.lift(n)
    assert lifted == jet and jet == lifted and lifted.conductor == n
    assert lifted.coeffs == _in_field(coeffs, n)
    # a jet over Q(zeta_n) lifted to 18 n reduces through Phi_(18 n)
    wide = Jet(field_coeffs, conductor=n)
    assert wide.lift(18 * n).coeffs == tuple(c.lift(18 * n) for c in wide.coeffs)
    assert wide.lift(18 * n) == wide
    if gcd(u, n) == 1:
        assert wide._galois(u).coeffs == tuple(c._galois(u) for c in wide.coeffs)
        _assert_canonical(wide._galois(u).row, wide.order, n)


@settings(max_examples=80, deadline=None)
@given(_coefficient_lists())
def test_jet_accessors_read_the_row_as_the_coefficient_list(case):
    n, coeffs = case
    expected = _in_field(coeffs, n)
    jet = _row_only(Jet(coeffs, conductor=n))
    N = jet.order
    assert jet.is_zero() == all(c.is_zero for c in expected)
    assert jet.constant_term == expected[0]
    if N >= 1:
        assert jet.linear_term == expected[1]
    assert [jet.coefficient(k) for k in range(N + 1)] == list(expected)
    for K in range(N + 1):
        assert jet.truncate(K).coeffs == expected[: K + 1]
    data = jet.to_json()
    assert data["coeffs"] == [format_scalar(c) for c in expected]
    assert Jet.from_json(data) == jet and Jet.from_json(data).coeffs == expected
