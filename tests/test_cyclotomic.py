import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlin.cyclotomic import (
    ConductorError,
    CycloElem,
    cyclo_embed,
    cyclotomic_polynomial,
    euler_phi,
    format_scalar,
    parse_scalar,
    prime_power_order,
    root_of_unity_order,
    solve_root_constraints,
    solve_root_orbits,
    zeta,
)
from germlin.cyclotomic import _monomials
from germlin.jets import _entry, _row_coeffs, _sparse_row, _weighted_sum

from oracles import (
    conjugate_product_inverse,
    fraction_format_scalar,
    naive_root_scan,
    repeated_product_power,
    successive_powers_to_one,
)
from test_jets import ORACLE_CONDUCTORS, WIDE_CONDUCTORS


KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    18: (1, 0, 0, -1, 0, 0, 1),
}


def test_cyclotomic_polynomial_table():
    for n, expected in KNOWN_PHI.items():
        assert cyclotomic_polynomial(n) == expected


def test_cyclotomic_polynomial_product_recursion():
    # prod_{d | n} Phi_d = x^n - 1, checked by brute polynomial multiplication
    for n in range(1, 19):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_embed_examples():
    assert cyclo_embed(0, 6).is_zero
    assert cyclo_embed(1, 6).is_one
    assert cyclo_embed(Fraction(3, 2), 4).coeffs == (Fraction(3, 2), Fraction(0))


def test_sixth_root_defining_relations():
    a = zeta(6)
    assert a * a == a - 1  # reduction mod x^2 - x + 1
    assert (1 - a) * a == 1
    assert 1 + a * a == a


def test_same_conductor_product_and_division():
    a, b = zeta(6), zeta(12)
    assert a.lift(12) * b == b**3
    assert (b / b).is_one
    with pytest.raises(ZeroDivisionError):
        a / cyclo_embed(0, 6)


def _random_elem(rng, n, num_height=5, den_height=4):
    return CycloElem(
        n,
        [
            Fraction(rng.randint(-num_height, num_height), rng.randint(1, den_height))
            for _ in range(euler_phi(n))
        ],
    )


def _units(n):
    return [u for u in range(1, n) if gcd(u, n) == 1]


@pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10, 12, 14, 18, 30])
def test_field_axioms(n):
    rng = random.Random(100 + n)
    one = cyclo_embed(1, n)
    for i in range(40):
        heights = (10**20, 10**20) if i % 4 == 0 else (5, 4)
        x, y, z = (_random_elem(rng, n, *heights) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == one


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_zero_is_the_one_falsy_element(n):
    rng = random.Random(150 + n)
    zero = cyclo_embed(0, n)
    assert not zero and zero.is_zero and not -zero and not zero * zeta(n)
    elems = [zero, cyclo_embed(1, n), zeta(n), zeta(n) - zeta(n)]
    # height 1 over small denominators, so that some draws are zero at n = 1
    elems += [_random_elem(rng, n, 1, 3) for _ in range(20)]
    for x in elems:
        assert bool(x) is (not x.is_zero)
        assert bool(x) is (x != 0)


def test_canonical_idempotence():
    x = CycloElem(12, [Fraction(2, 4), Fraction(6, 3), 0, Fraction(-10, 5)])
    again = CycloElem(x.n, x.coeffs)
    assert again.num == x.num and again.den == x.den
    assert x * cyclo_embed(1, 12) == x


@pytest.mark.parametrize("n", range(2, 19))
def test_zeta_orders(n):
    z = zeta(n)
    assert (z**n).is_one
    assert root_of_unity_order(z) == n


def test_root_of_unity_order_examples():
    assert root_of_unity_order(cyclo_embed(1, 6)) == 1
    assert root_of_unity_order(zeta(6) ** 3) == 2
    assert root_of_unity_order(zeta(12) ** 2) == 6
    # 1 + zeta_6 is outside the candidate set +-zeta^k: enumerate all 12
    x = 1 + zeta(6)
    mons = _monomials(6)
    for k in range(6):
        assert x.num != mons[k]
        assert any(a != -b for a, b in zip(x.num, mons[k]))
    assert root_of_unity_order(x) is None
    assert root_of_unity_order(cyclo_embed(Fraction(1, 2), 4)) is None


# odd conductors, where -zeta^k is a root of unity that is no power of zeta
TORSION_CONDUCTORS = ORACLE_CONDUCTORS + WIDE_CONDUCTORS + (15, 21)
TORSION_EXPONENTS = tuple(range(-9, 10)) + (2**70 + 5,)


def _roots_of_unity(n):
    """+-zeta_n^k for every k, built from the coordinates of zeta^k."""
    for mon in _monomials(n):
        x = CycloElem(n, mon)
        yield x
        yield -x


@pytest.mark.parametrize("n", TORSION_CONDUCTORS)
def test_roots_of_unity_invert_and_raise_by_their_exponent(n):
    distinct = set()
    for x in _roots_of_unity(n):
        distinct.add(x)
        powers = successive_powers_to_one(x)
        assert root_of_unity_order(x) == len(powers)
        assert x.inverse() == conjugate_product_inverse(x) == powers[-1]
        for e in TORSION_EXPONENTS:
            assert x**e == powers[e % len(powers)]
    # -zeta^k is a power of zeta exactly when n is even
    assert len(distinct) == (n if n % 2 == 0 else 2 * n)


# not at n = 360, where each generic inverse of these takes about 0.1 s
@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + (7, 8, 105, 15, 21))
def test_other_integral_elements_keep_the_generic_inverse_and_power(n):
    z = CycloElem(n, _monomials(n)[1 % n])
    for x in (1 + z, 2 * z, z + z * z):
        assert root_of_unity_order(x) is successive_powers_to_one(x) is None
        assert x.inverse() == conjugate_product_inverse(x)
        for e in range(-9, 10):
            assert x**e == repeated_product_power(x, e)


def test_prime_power_order():
    assert prime_power_order(8) == (2, 3)
    assert prime_power_order(6) is None
    assert prime_power_order(1) == (None, 0)
    assert prime_power_order(9) == (3, 2)
    assert prime_power_order(10) is None
    assert prime_power_order(13) == (13, 1)
    with pytest.raises(ValueError):
        prime_power_order(0)


def test_lifting_is_field_embedding():
    rng = random.Random(7)
    for _ in range(25):
        x, y = _random_elem(rng, 6), _random_elem(rng, 6)
        assert (x + y).lift(12) == x.lift(12) + y.lift(12)
        assert (x * y).lift(12) == x.lift(12) * y.lift(12)
        assert x == x.lift(12) and hash(x) == hash(x.lift(12))
    with pytest.raises(ConductorError):
        zeta(6).lift(9)


@pytest.mark.parametrize("n", [5, 9, 10, 12, 18])
def test_galois_conjugation_is_field_automorphism(n):
    rng = random.Random(200 + n)
    units = _units(n)
    for u in units:
        assert zeta(n)._galois(u) == zeta(n) ** u
    for _ in range(20):
        x, y = _random_elem(rng, n), _random_elem(rng, n)
        u = rng.choice(units)
        assert (x * y)._galois(u) == x._galois(u) * y._galois(u)
        assert (x + y)._galois(u) == x._galois(u) + y._galois(u)
        assert x._galois(1) == x


@pytest.mark.parametrize("n", [5, 9, 10, 12, 14, 18, 30])
def test_norm_is_rational(n):
    rng = random.Random(300 + n)
    for i in range(10):
        height = 10**20 if i % 2 else 9
        x = _random_elem(rng, n, height, height)
        if x.is_zero:
            continue
        others = cyclo_embed(1, n)
        for u in _units(n)[1:]:
            others = others * x._galois(u)
        norm = x * others
        assert norm.is_rational and not norm.is_zero
        assert x.inverse() == others / norm.to_fraction()


def test_mixed_conductor_operators_lift():
    a, b = zeta(6), zeta(4)
    prod = a * b
    assert prod.n == 12
    assert prod == zeta(12) ** 2 * zeta(12) ** 3


HASH_CONDUCTORS = (1, 6, 9, 10, 18)


def test_rational_hash_agreement():
    q = Fraction(-7, 3)
    assert cyclo_embed(q, 6) == q
    assert hash(cyclo_embed(q, 6)) == hash(q)
    # the hash follows Python's numeric-hash rule, including the inf case of
    # a denominator divisible by the hash modulus and the -1 -> -2 case
    P = sys.hash_info.modulus
    rng = random.Random(41)
    qs = [Fraction(0), Fraction(-1), Fraction(1, P), Fraction(-3, 2 * P), Fraction(P + 1, P - 1)]
    qs += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(30)]
    for n in HASH_CONDUCTORS:
        for q in qs:
            assert hash(CycloElem.from_rational(q, n)) == hash(q)
        for _ in range(10):
            x = _random_elem(rng, n, 10**20, 10**20)
            for m in (2 * n, 3 * n):
                assert x.lift(m) == x and hash(x.lift(m)) == hash(x)
    # one value built at three conductors
    half_i = zeta(4) / 2
    for other in (half_i.lift(12), CycloElem(36, [0] * 9 + [Fraction(1, 2)] + [0] * 2)):
        assert other == half_i and hash(other) == hash(half_i)
    assert hash(zeta(18) ** 3) == hash(zeta(6)) and hash(zeta(9)) == hash(zeta(18) ** 2)


@pytest.mark.parametrize("n", HASH_CONDUCTORS)
def test_scaling_by_a_rational_is_the_field_product(n):
    rng = random.Random(500 + n)
    scalars = [0, 1, -1, 7, -12, Fraction(-5, 3), Fraction(9, 4), Fraction(-1, 10**20 + 3), True]
    for _ in range(10):
        x = _random_elem(rng, n, 10**12, 10**6)
        for q in scalars:
            expected = x * CycloElem.from_rational(q, n)
            for got in (x * q, q * x):
                assert got == expected
                assert (got.num, got.den) == (expected.num, expected.den)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(-30, 30),
    q=st.integers(1, 12),
    n=st.sampled_from([1, 2, 4, 6, 12]),
)
def test_serialization_round_trip_rationals(p, q, n):
    x = cyclo_embed(Fraction(p, q), n)
    assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar(format_scalar(Fraction(p, q))) == Fraction(p, q)


def _scalars_to_print(rng, n):
    """Elements of Q(zeta_n) with zero, negative and large coordinates, over
    1 and over larger denominators, rational ones among them, and ints and
    Fractions."""
    phi = euler_phi(n)
    for _ in range(12):
        den = rng.choice([1, 1, 2, 6, 35, 2**40 + 1])
        span = rng.choice([3, 10**30])
        coeffs = [
            Fraction(rng.randint(-span, span), den) if rng.random() < 0.7 else 0
            for _ in range(phi)
        ]
        yield CycloElem(n, coeffs)
        yield cyclo_embed(coeffs[0], n)
        yield coeffs[-1]
        yield rng.randint(-span, span)
    yield CycloElem(n, [0] * phi)
    yield -CycloElem(n, _monomials(n)[1 % n]) / 3


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS + WIDE_CONDUCTORS)
def test_format_scalar_matches_the_fraction_formatter(n):
    rng = random.Random(n)
    for x in _scalars_to_print(rng, n):
        assert format_scalar(x) == fraction_format_scalar(x)
        assert parse_scalar(format_scalar(x)) == x


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter does not limit int-to-string conversion",
)
def test_format_scalar_past_the_digit_limit_keeps_its_message():
    big = 3**20000
    for x in (big, Fraction(1, big), CycloElem(6, [1, big]), CycloElem(6, [Fraction(1, 2), big])):
        with pytest.raises(ValueError) as ours:
            format_scalar(x)
        with pytest.raises(ValueError) as theirs:
            fraction_format_scalar(x)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value).startswith("a number to print has more than ")


def test_serialization_round_trip_cyclo():
    x = CycloElem(12, [Fraction(1, 2), -3, 0, Fraction(7, 5)])
    s = format_scalar(x)
    assert s == "cyclo(12)[1/2,-3,0,7/5]"
    assert parse_scalar(s) == x
    with pytest.raises(ValueError):
        parse_scalar("cyclo(6)[1,oops]")
    with pytest.raises(ValueError):
        parse_scalar("not-a-scalar")


def test_solve_root_constraints_conductor_six():
    sols = solve_root_constraints(6, ["a = 1/(1 - a)"])
    assert len(sols) == 2
    for a in sols:
        assert (a**6).is_one
        assert a * (1 - a) == 1
        assert root_of_unity_order(a) == 6
    # a = 1 makes 1/(1-a) undefined and must simply be filtered out
    assert cyclo_embed(1, 6) not in sols


def test_solve_root_constraints_example_families():
    # each constraint pins exactly the primitive roots of the stated order
    cases = {
        (10, "a^3 + a = 1/(1 - a)"): 10,
        (12, "a^3 + a^2 = 1/(1 - a)"): 12,
        (14, "a^5 + a^3 + a = 1/(1 - a)"): 14,
        (18, "a^5 + a^4 + a^3 = 1/(1 - a)"): 18,
    }
    for (m, constraint), order in cases.items():
        sols = solve_root_constraints(m, [constraint])
        assert sols, (m, constraint)
        assert all(root_of_unity_order(a) == order for a in sols)
        assert len(sols) == euler_phi(order)


@pytest.mark.parametrize("m", list(range(1, 61)) + [120, 360])
def test_solve_root_constraints_equals_a_scan_of_every_root(m):
    cases = [
        ["a^4 = 1"],
        ["a^6 = 1", "a^2 + a + 1 = 0"],
        ["a + 1/a = 1"],
        # undefined where a^180 = -1
        ["1/(a^180 + 1) = 1/2"],
        ["1 = 1"],
    ]
    if m < 360:  # at 360 the scan inverts these dense divisors at 360 roots: 13 s
        # the second is undefined at a = 1 and at a = -1
        cases += [["a^3 + a = 1/(1 - a)"], ["1/(a - 1) = 1/(a^2 - 1)"]]
    for constraints in cases:
        assert solve_root_constraints(m, constraints) == naive_root_scan(m, constraints)


@pytest.mark.parametrize("m", [1, 2, 12, 18, 30, 360])
def test_solve_root_orbits_names_each_root_an_image(m):
    roots = solve_root_orbits(m, [])
    assert [k for k, _, _ in roots] == list(range(m))
    z = zeta(m)
    for k, d, u in roots:
        assert d == gcd(k, m) % m and gcd(u, m) == 1
        assert (z**d)._galois(u) == z**k
        # the least such unit, so u = 1 when k = d
        assert all(u2 * d % m != k for u2 in range(1, u) if gcd(u2, m) == 1)


# -- the jet kernel as a gather: one output degree, one-entry rows ------------------


def _gather(n, pairs):
    """sum a * b over the pairs (a, b) of elements of Q(zeta_n), through the
    jet kernel at degree 0: each b as a one-entry row weighted by a."""
    row = _weighted_sum([(_entry(a), 0, _sparse_row([b])) for a, b in pairs], 0, n)
    return _row_coeffs(row, 0, n)[0]


@st.composite
def _product_sums(draw):
    """(n, pairs): up to six products at one conductor, with coordinate
    denominators up to 12 so that terms of coprime denominators take the lcm
    path; half the time each product is followed, somewhere, by its negation,
    so the sum cancels to exactly zero."""
    n = draw(st.sampled_from([1, 2, 6, 9, 10, 12, 18]))
    height = draw(st.sampled_from([9, 10**20]))
    coord = st.fractions(min_value=-height, max_value=height, max_denominator=12)
    elem = st.lists(coord, min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda cs: CycloElem(n, cs)
    )
    pairs = draw(st.lists(st.tuples(elem, elem), max_size=6))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs + [(-a, b) for a, b in pairs]))
    return n, pairs


@settings(max_examples=100, deadline=None)
@given(_product_sums())
def test_kernel_gather_sums_the_products(case):
    n, pairs = case
    expected = cyclo_embed(0, n)
    for a, b in pairs:
        expected = expected + a * b
    got = _gather(n, pairs)
    assert got.n == n
    assert (got.num, got.den) == (expected.num, expected.den)  # both normalized
    if expected.is_zero:
        assert got.den == 1 and got.num == (0,) * euler_phi(n)


def test_accumulator_scales_to_the_lcm_of_denominators():
    # denominators 4, 6 and 9: neither divides the running one, so the
    # accumulator scales up twice; the zero operand and the cancelling pair
    # change the denominator without changing the value
    x, y = zeta(9) + Fraction(1, 4), zeta(9) ** 2 * Fraction(5, 6) - 1
    z = CycloElem(9, [Fraction(1, 9), 0, 0, 2, 0, Fraction(-7, 9)])
    zero = cyclo_embed(0, 9)
    pairs = [(x, x), (y, x), (z, y), (zero, z), (z, z), (-z, z)]
    assert _gather(9, pairs) == x * x + y * x + z * y
    assert _gather(9, [(x, y), (-x, y)]) == zero
    assert _gather(9, []).den == 1 and _gather(9, []) == zero


def test_a_conductor_below_1_is_named_before_it_is_factored():
    for build in (
        lambda: CycloElem(0, [1]),
        lambda: CycloElem(-2, [1]),
        lambda: zeta(0),
        lambda: parse_scalar("cyclo(0)[1]"),
        lambda: cyclo_embed(1, 0),
        lambda: euler_phi(0),
    ):
        with pytest.raises(ValueError, match=r"^conductor must be >= 1$"):
            build()
