import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import germlin.pforms
from germlin.cyclotomic import CycloElem, zeta
from germlin.pforms import (
    MultiPoly,
    PForm1,
    PForm2,
    PForm3,
    blowup_chart_pullback,
    cone_matches_chart_pullback,
    exterior_d,
    first_integral_check,
    form_from_string,
    form_to_string,
    integrability_check,
    kupka_test,
    lowest_jet,
    meromorphic_first_integral_check,
    poly_from_string,
    poly_to_string,
    radial_contraction,
    restrict_to_exceptional,
    tangent_cone,
    wedge,
    _product_sum,
)
from germlin.registry import build_form_example, default_parameter_sets

from oracles import (
    naive_poly_product,
    naive_poly_sum,
    terms_evaluate,
    terms_substitute,
    wedge_minors,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")


def _random_poly(rng, nvars, max_deg=3, terms=4):
    out = MultiPoly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + MultiPoly.monomial(
            nvars, exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        )
    return out


def _random_form(rng, nvars, **kw):
    return PForm1(nvars, [_random_poly(rng, nvars, **kw) for _ in range(nvars)])


def _random_kform(rng, nvars, k, **kw):
    cls = (PForm1, PForm2, PForm3)[k - 1]
    keys = combinations(range(nvars), k)
    return cls(nvars, {key: _random_poly(rng, nvars, **kw) for key in keys})


def test_multipoly_basics():
    p = poly_from_string("x^2*y - 2*y + 1/2", variables=V3)
    q = poly_from_string("x^2*y", variables=V3)
    assert p + 2 * MultiPoly.variable(3, 1) - Fraction(1, 2) == q
    assert p.evaluate((1, 2, 0)) == Fraction(2 - 4) + Fraction(1, 2)
    assert (p * q).partial(0) == p.partial(0) * q + p * q.partial(0)
    with pytest.raises(ValueError):
        MultiPoly(5, {})
    with pytest.raises(ValueError):
        MultiPoly(3, {(1, 2): 1})


def test_arithmetic_results_are_what_the_checking_constructor_builds():
    # results skip the public constructor's checks; they must not need them
    from germlin.cyclotomic import zeta

    rng = random.Random(41)
    for nvars in (2, 3, 4):
        for _ in range(20):
            p = _random_poly(rng, nvars)
            q = _random_poly(rng, nvars) * rng.choice((1, Fraction(2, 3), zeta(6)))
            i = rng.randrange(nvars)
            results = [
                p + q, p - q, p - p, -q, 3 - p, p * q, p * 0, p * Fraction(-1, 2),
                q * zeta(3), p.partial(i), q.substitute(i, rng.randint(-2, 2)),
                p.homogeneous_part(rng.randint(0, 6)),
                (p * MultiPoly.variable(nvars, i) ** 2).shift_down(i, 2),
                MultiPoly.monomial(nvars, (1,) * nvars, rng.choice((Fraction(-7, 3), zeta(6) - 2)))
                ** rng.randint(0, 4),
            ]
            results += blowup_chart_pullback(PForm1(nvars, [p] * nvars), i)[1].coeffs.values()
            for r in results:
                checked = MultiPoly(r.nvars, r.terms)
                assert r.terms == checked.terms
                assert all(type(e) is tuple and len(e) == nvars for e in r.terms)
                assert all(type(c) is type(checked.terms[e]) for e, c in r.terms.items())
                _assert_canonical(r)
                assert (r.den, r.nums) == (checked.den, checked.nums)


def _assert_canonical(p):
    """p is in the one stored form: den a positive int, nonzero numerators
    that are ints or CycloElems over 1, no common factor of den and all
    their coordinates, and zero is {} over 1."""
    assert type(p.den) is int and p.den > 0
    coordinates = []
    for v in p.nums.values():
        if type(v) is CycloElem:
            assert v.den == 1 and v
            coordinates += v.num
        else:
            assert type(v) is int and v
            coordinates.append(v)
    assert math.gcd(p.den, *coordinates) == 1
    assert p.nums or p.den == 1
    for e, v in p.nums.items():
        c = p.terms[e]
        assert c * p.den == v and type(c) is (Fraction if type(v) is int else CycloElem)


def test_exterior_d_examples():
    const = MultiPoly.constant(3, Fraction(7))
    assert exterior_d(const).is_zero
    xy = poly_from_string("x*y", variables=V3)
    assert exterior_d(xy) == form_from_string("y*dx + x*dy", variables=V3)


def test_dd_zero_random():
    rng = random.Random(61)
    for _ in range(25):
        p = _random_poly(rng, 3)
        assert exterior_d(exterior_d(p)).is_zero
        w = _random_form(rng, 3)
        ddw = exterior_d(exterior_d(w))
        assert ddw.is_zero


def test_wedge_examples():
    rng = random.Random(63)
    u = _random_form(rng, 3)
    assert wedge(u, u).is_zero
    dx = PForm1.basis(3, 0)
    dy = PForm1.basis(3, 1)
    got = wedge(dx, dy)
    assert got.coefficient((0, 1)) == MultiPoly.constant(3, 1)
    # bilinearity
    v, w2 = _random_form(rng, 3), _random_form(rng, 3)
    p = _random_poly(rng, 3)
    lhs = wedge(u, v.scale(p) + w2)
    rhs = wedge(u, v).scale(p) + wedge(u, w2)
    assert lhs == rhs


def test_leibniz_random():
    rng = random.Random(65)
    for _ in range(25):
        p = _random_poly(rng, 3)
        w = _random_form(rng, 3)
        assert exterior_d(w.scale(p)) == wedge(exterior_d(p), w) + exterior_d(w).scale(p)


def test_integrability_examples():
    rng = random.Random(67)
    f = _random_poly(rng, 3)
    assert integrability_check(exterior_d(f))
    ex62 = build_form_example("ex6.2")
    assert integrability_check(ex62.omega)
    bad = form_from_string("y*dx + x*z*dy + dz", variables=V3)
    assert not integrability_check(bad)
    assert integrability_check(form_from_string("y*dx - x*dy", variables=V2))


def test_radial_contraction_examples():
    # Euler identity on homogeneous polynomials
    f = poly_from_string("x^2*y + 3*y^2*z - z^3", variables=V3)
    assert radial_contraction(exterior_d(f)) == f * 3
    assert radial_contraction(form_from_string("y*dx - x*dy", variables=V2)).is_zero
    for k in (2, 3):
        ex = build_form_example("ex6.1", k=k, params=(1, 2, 3, 4, 5, 6))
        assert radial_contraction(ex.omega).is_zero


def test_lowest_jet_examples():
    ex62 = build_form_example("ex6.2")
    nu, low = lowest_jet(ex62.omega)
    assert nu == 2
    assert low == form_from_string(
        "(y^2 + z^2)*dx + x*y*dy + x*z*dz", variables=V3
    )
    nu2, low2 = lowest_jet(form_from_string("dx + x*dy", variables=V2))
    assert nu2 == 0 and low2 == form_from_string("dx", variables=V2)
    homog = form_from_string("x*y*dx + y^2*dy", variables=V2)
    assert lowest_jet(homog) == (2, homog)
    with pytest.raises(ValueError):
        lowest_jet(PForm1.zero(3))


def test_tangent_cone_examples():
    dic = tangent_cone(form_from_string("y*dx - x*dy", variables=V2))
    assert dic.dicritical and dic.cone is None
    ex62 = build_form_example("ex6.2")
    tc = tangent_cone(ex62.omega)
    assert not tc.dicritical
    assert tc.cone == ex62.expected_cone
    dicritical, cone = tc
    assert dicritical is False and cone is tc.cone and tc == (False, cone)
    f = poly_from_string("x^2 + y^2 + z^2", variables=V3)
    tcf = tangent_cone(exterior_d(f))
    assert not tcf.dicritical and tcf.cone == f * 2


def test_blowup_chart_pullback_examples():
    m, red = blowup_chart_pullback(form_from_string("dx", variables=V2), "x")
    assert m == 0 and red == form_from_string("dx", variables=V2)
    m2, red2 = blowup_chart_pullback(
        form_from_string("x*dy - y*dx", variables=V2), "x"
    )
    assert m2 == 2
    assert red2 == PForm1(2, [MultiPoly.zero(2), MultiPoly.constant(2, 1)])


def test_pullback_commutes_with_d():
    # before reduction, the pullback of d(omega) equals d of the pullback;
    # with the 1-form pulled back as t^m * reduced, compare dw against
    # d(t^m * reduced) computed through the Leibniz rule
    rng = random.Random(71)
    for _ in range(10):
        w = _random_form(rng, 3, max_deg=2, terms=3)
        if w.is_zero:
            continue
        m, red = blowup_chart_pullback(w, 0)
        t = MultiPoly.variable(3, 0)
        tm = t**m
        full = red.scale(tm)
        dw = exterior_d(w)
        # pull the 2-form back coefficient-wise through the same substitution
        from germlin.pforms import _blowup_substitute

        n = 3
        c = 0
        subbed = {key: _blowup_substitute(p, c) for key, p in dw.coeffs.items()}
        # d(x_j) = u_j dt + t du_j for j != c, dt in slot c
        acc = PForm2(n, {})
        for (i, j), p in subbed.items():

            def oneform(idx):
                if idx == c:
                    return PForm1.basis(n, c)
                return PForm1.basis(n, c).scale(
                    MultiPoly.variable(n, idx)
                ) + PForm1.basis(n, idx).scale(t)

            acc = acc + wedge(oneform(i), oneform(j)).scale(p)
        assert acc == exterior_d(full)


def test_cone_agreement_on_examples():
    ex62 = build_form_example("ex6.2")
    for chart in V3:
        assert cone_matches_chart_pullback(ex62.omega, chart)
    for k in (2, 3):
        ex61 = build_form_example("ex6.1", k=k)
        assert cone_matches_chart_pullback(ex61.omega, "x")
    assert cone_matches_chart_pullback(
        form_from_string("y*dx - x*dy", variables=V2), "x"
    )


def test_restriction_matches_dehomogenized_cone():
    ex62 = build_form_example("ex6.2")
    m, red = blowup_chart_pullback(ex62.omega, "x")
    assert m == 2
    restricted = restrict_to_exceptional(red, "x")
    assert poly_to_string(restricted.coefficient((0,))) == "2*y^2 + 2*z^2"
    assert restricted.coefficient((1,)).is_zero and restricted.coefficient((2,)).is_zero


def test_kupka_examples():
    fm = poly_from_string("x^2 + y^2 + z^2", variables=V3)
    assert not kupka_test(exterior_d(fm), (0, 0, 0))
    ex61 = build_form_example("ex6.1", k=2, params=(1, 1, 1, 1, 1, 1))
    assert kupka_test(ex61.omega, (0, 1, -1, 0))
    assert not kupka_test(ex61.omega, (0, 1, 1, 0))
    assert not kupka_test(form_from_string("y*dx + x*dy", variables=V3), (0, 0, 0))
    with pytest.raises(ValueError):
        kupka_test(ex61.omega, (0, 1))


def test_evaluate_on_ints_matches_the_terms():
    # a rational polynomial at a rational point sums ints over den * q^deg;
    # a CycloElem coefficient or coordinate keeps the term-by-term path
    rng = random.Random(41)
    w = zeta(6)
    for nvars in (2, 3, 4):
        points = [
            (0,) * nvars,
            tuple(range(1, nvars + 1)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(nvars)),
            (Fraction(-3, 4),) + (0,) * (nvars - 1),
            (w,) + (Fraction(1, 2),) * (nvars - 1),
        ]
        for kind in KERNEL_KINDS:
            for _ in range(3):
                p = _kernel_poly(rng, nvars, kind, max_deg=3)
                for point in points:
                    got, want = p.evaluate(point), terms_evaluate(p, point)
                    assert got == want and type(got) is type(want)
    for k in range(2, 9):
        for params in default_parameter_sets(k):
            ex = build_form_example("ex6.1", k=k, params=params)
            for point in ((0, 1, -1, 0), (Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 9))):
                for form in (ex.omega, exterior_d(ex.omega)):
                    for p in form.coeffs.values():
                        assert p.evaluate(point) == terms_evaluate(p, point)


def test_substitute_matches_the_terms():
    # each numerator gains a^e_i q^(m - e_i) over den q^m for a value a/q
    rng = random.Random(43)
    for nvars in (2, 3, 4):
        for kind in KERNEL_KINDS:
            for _ in range(3):
                p = _kernel_poly(rng, nvars, kind, max_deg=3)
                for value in (0, 1, Fraction(-3, 4), zeta(6)):
                    for i in range(nvars):
                        got, want = p.substitute(i, value), terms_substitute(p, i, value)
                        _assert_canonical(got)
                        assert got == want and got.terms == want.terms
                        assert got.min_exponent(i) in (None, 0)


def test_first_integral_examples():
    rng = random.Random(73)
    f = _random_poly(rng, 3)
    assert first_integral_check(exterior_d(f), f + 17)
    ex62 = build_form_example("ex6.2")
    assert first_integral_check(ex62.omega, ex62.first_integral)
    assert not first_integral_check(
        form_from_string("x*dy", variables=V2), poly_from_string("x", variables=V2)
    )


def test_meromorphic_first_integral():
    rng = random.Random(79)
    f = _random_poly(rng, 3)
    one = MultiPoly.constant(3, 1)
    assert meromorphic_first_integral_check(exterior_d(f), f, one)
    for k in (2, 3):
        ex = build_form_example("ex6.1", k=k)
        assert meromorphic_first_integral_check(
            ex.omega, ex.mero_numerator, ex.mero_denominator
        )
    with pytest.raises(ValueError):
        meromorphic_first_integral_check(exterior_d(f), f, MultiPoly.zero(3))


def test_family_structure_identities():
    # Omega = -(k+1) Q dx + x dQ and dOmega = -(k+2) dQ ^ dx, two param sets
    x = MultiPoly.variable(4, 0)
    for k in (2, 3, 4):
        for params in default_parameter_sets(k):
            ex = build_form_example("ex6.1", k=k, params=params)
            q = ex.mero_numerator
            lhs = exterior_d(q).scale(x) - PForm1(
                4,
                [q * (k + 1), MultiPoly.zero(4), MultiPoly.zero(4), MultiPoly.zero(4)],
            )
            assert ex.omega == lhs
            assert exterior_d(ex.omega) == wedge(
                exterior_d(q), PForm1.basis(4, 0)
            ).scale(MultiPoly.constant(4, -(k + 2)))
            assert kupka_test(ex.omega, (0, 1, -1, 0))


def test_strings_round_trip():
    p = poly_from_string("x^2*y - 2*y + 1/2", variables=V3)
    assert poly_from_string(poly_to_string(p), variables=V3) == p
    w = form_from_string("(y^2 + z^2)*dx + x*y*dy", variables=V3)
    assert form_from_string(form_to_string(w), variables=V3) == w
    assert poly_to_string(MultiPoly.zero(3)) == "0"


SMALL = {"max_deg": 2, "terms": 3}


def test_wedge_matches_minor_oracle_4vars():
    rng = random.Random(83)
    for _ in range(10):
        u = [_random_form(rng, 4, **SMALL) for _ in range(3)]
        assert wedge(u[0], u[1]) == PForm2(4, wedge_minors(u[:2]))
        assert wedge(wedge(u[0], u[1]), u[2]) == PForm3(4, wedge_minors(u))
        assert wedge(u[0], wedge(u[1], u[2])) == PForm3(4, wedge_minors(u))


def test_wedge_graded_commutativity_4vars():
    rng = random.Random(89)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        for _ in range(5):
            u = _random_kform(rng, 4, p, **SMALL)
            v = _random_kform(rng, 4, q, **SMALL)
            swapped = wedge(v, u)
            assert wedge(u, v) == (swapped if p * q % 2 == 0 else -swapped)


def test_wedge_associativity_4vars():
    rng = random.Random(97)
    for _ in range(10):
        u, v, w = (_random_form(rng, 4, **SMALL) for _ in range(3))
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


def test_leibniz_and_dd_zero_4vars():
    rng = random.Random(101)
    for _ in range(10):
        f = _random_poly(rng, 4, **SMALL)
        u, v = _random_form(rng, 4, **SMALL), _random_form(rng, 4, **SMALL)
        beta = _random_kform(rng, 4, 2, **SMALL)
        # d(u ^ v) = du ^ v - u ^ dv for 1-forms; d(f beta) = df ^ beta + f dbeta
        assert exterior_d(wedge(u, v)) == wedge(exterior_d(u), v) - wedge(u, exterior_d(v))
        assert exterior_d(beta.scale(f)) == wedge(exterior_d(f), beta) + exterior_d(beta).scale(f)
        assert exterior_d(exterior_d(f)).is_zero
        assert exterior_d(exterior_d(u)).is_zero


def test_higher_forms_round_trip_through_strings():
    rng = random.Random(103)
    for variables in (V3, V4):
        n = len(variables)
        for k in (2, 3):
            for _ in range(5):
                form = _random_kform(rng, n, k, **SMALL)
                text = form_to_string(form, variables)
                assert form_from_string(text, variables=variables) == form
    assert form_from_string("(dy*dz)*dx", variables=V3) == form_from_string(
        "dx*dy*dz", variables=V3
    )


def test_multi_letter_variable_differentials():
    names = ("x1", "x2")
    omega = form_from_string("x2*dx1 - x1*dx2", variables=names)
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert omega == PForm1(2, [x2, -x1])
    assert form_from_string(form_to_string(omega, names), variables=names) == omega


# -- the integer product kernel against the schoolbook oracle ------------------------

KERNEL_DENOMINATORS = (4, 6, 9)  # pairwise lcms 12, 36, 18: every product rescales


def _kernel_poly(rng, nvars, kind, terms=4, max_deg=2):
    """A polynomial whose coefficients are Fractions over 4, 6 and 9
    ("fraction"), cyclotomic ("cyclo"), both ("mixed"), or no terms ("zero")."""
    if kind == "zero":
        return MultiPoly.zero(nvars)
    out = {}
    for t in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.choice(KERNEL_DENOMINATORS))
        if kind == "cyclo" or (kind == "mixed" and t % 2):
            c = c * zeta(rng.choice((3, 6))) + rng.randint(-1, 1)
        out[exps] = c
    return MultiPoly(nvars, out)


KERNEL_KINDS = ("fraction", "zero", "cyclo", "mixed")


def _assert_same_poly(got, want):
    assert got == want and got.terms == want.terms
    assert all(type(c) is type(want.terms[e]) for e, c in got.terms.items())


@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_products_match_the_schoolbook_oracle(nvars):
    rng = random.Random(900 + nvars)
    for kp in KERNEL_KINDS:
        for kq in KERNEL_KINDS:
            p, q = _kernel_poly(rng, nvars, kp), _kernel_poly(rng, nvars, kq)
            want = naive_poly_product(p, q)
            _assert_same_poly(p * q, want)
            _assert_same_poly(q * p, want)
            if "fraction" == kp == kq:
                assert all(type(c) is Fraction for c in want.terms.values())
                assert any(c.denominator > 1 for c in want.terms.values())


@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_signed_product_sums_match_the_schoolbook_oracle(nvars):
    rng = random.Random(910 + nvars)
    minus = MultiPoly.constant(nvars, -1)
    for kinds in (("fraction",) * 4, ("fraction", "zero", "fraction", "cyclo"),
                  ("mixed", "fraction", "cyclo", "mixed")):
        p, q, r, s = (_kernel_poly(rng, nvars, k) for k in kinds)
        # sums that cancel to the empty dict, in whole and by pairs
        assert _product_sum(nvars, [(1, p, q), (-1, q, p)]).terms == {}
        assert _product_sum(nvars, [(1, p, p), (-1, p, p), (1, r, s), (-1, s, r)]).terms == {}
        assert _product_sum(nvars, []).terms == {}
        signed = [(1, p, q), (-1, r, s), (1, p, p), (-1, q, s)]
        want = naive_poly_sum(
            nvars,
            [
                naive_poly_product(a, b) if sign > 0
                else naive_poly_product(minus, naive_poly_product(a, b))
                for sign, a, b in signed
            ],
        )
        assert _product_sum(nvars, signed) == want


def _checked(nvars, pairs):
    """The checking constructor on (exponents, coefficient) pairs, with the
    coefficients of equal exponents added in their own arithmetic."""
    out = {}
    for e, c in pairs:
        out[e] = out[e] + c if e in out else c
    return MultiPoly(nvars, out)


def _lowered(e, i, m):
    return e[:i] + (e[i] - m,) + e[i + 1 :]


@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_integer_forms_match_the_fraction_oracles(nvars):
    # every result is canonical, and its terms are those that the Fraction-dict
    # oracles build, sums that cancel included
    rng = random.Random(960 + nvars)
    minus, zero = MultiPoly.constant(nvars, -1), MultiPoly.zero(nvars)
    blowup = germlin.pforms._blowup_substitute
    for kp in KERNEL_KINDS:
        for kq in KERNEL_KINDS:
            p, q = _kernel_poly(rng, nvars, kp), _kernel_poly(rng, nvars, kq)
            i, d = rng.randrange(nvars), rng.randint(0, 4)
            pq, neg_q = naive_poly_product(p, q), naive_poly_product(minus, q)
            m = p.min_exponent(i) or 0
            cases = [
                (p * q, pq),
                (_product_sum(nvars, [(1, p, q), (-1, q, p)]), zero),
                (_product_sum(nvars, [(1, p, q), (-1, p, p), (1, q, q)]), naive_poly_sum(
                    nvars, [pq, naive_poly_product(minus, naive_poly_product(p, p)),
                            naive_poly_product(q, q)])),
                (p + q, naive_poly_sum(nvars, [p, q])),
                (p - q, naive_poly_sum(nvars, [p, neg_q])),
                (p - p, zero),
                (-q, neg_q),
                (q + -q, zero),
                (p.partial(i), _checked(nvars, [(_lowered(e, i, 1), c * e[i])
                                                for e, c in p.terms.items() if e[i]])),
                (p.homogeneous_part(d), _checked(nvars, [(e, c) for e, c in p.terms.items()
                                                         if sum(e) == d])),
                (p.shift_down(i, m), _checked(nvars, [(_lowered(e, i, m), c)
                                                      for e, c in p.terms.items()])),
                (blowup(p, i), _checked(nvars, [(e[:i] + (sum(e),) + e[i + 1 :], c)
                                                for e, c in p.terms.items()])),
            ]
            for s in (3, -2, 0, Fraction(-4, 9), Fraction(6, 5)):
                want = _checked(nvars, [(e, c * s) for e, c in p.terms.items()])
                cases += [(p * s, want), (s * p, want)]
            for got, want in cases:
                _assert_canonical(got)
                _assert_same_poly(got, want)
    # common factors that the result must divide out
    p = poly_from_string("x^2/2 + 3*y/4 + z^3/3", variables=V3)
    z3 = poly_from_string("z^3/3", variables=V3)
    assert (p.den, p.nums) == (12, {(2, 0, 0): 6, (0, 1, 0): 9, (0, 0, 3): 4})
    for got, den in ((p.partial(0), 1), (p.partial(2), 1), (p.homogeneous_part(1), 4),
                     (p * 6, 2), (p * Fraction(4, 3), 9), (p - z3, 4)):
        _assert_canonical(got)
        assert got.den == den


def test_every_coefficient_kind_takes_the_one_product_loop(monkeypatch):
    # every pair of kinds multiplies in the one loop of _product_sum, and the
    # result comes back in the one stored form
    calls = []
    integer_poly = germlin.pforms._integer_poly

    def spy(nvars, den, nums):
        calls.append(nums)
        return integer_poly(nvars, den, nums)

    monkeypatch.setattr(germlin.pforms, "_integer_poly", spy)
    rng = random.Random(970)
    for kp in KERNEL_KINDS:
        for kq in KERNEL_KINDS:
            p, q = _kernel_poly(rng, 3, kp), _kernel_poly(rng, 3, kq)
            for make, want in ((lambda: p * q, naive_poly_product(p, q)),
                               (lambda: _product_sum(3, [(1, p, p), (-1, q, q)]),
                                naive_poly_product(p, p) - naive_poly_product(q, q))):
                calls.clear()
                got = make()
                assert len(calls) == 1, (kp, kq)
                _assert_canonical(got)
                assert got == want


@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_wedge_matches_the_minor_oracle_on_every_coefficient_kind(nvars):
    rng = random.Random(920 + nvars)
    for kinds in (("fraction",) * 4, ("zero", "fraction"), ("cyclo", "mixed"),
                  ("mixed", "fraction", "zero", "cyclo")):
        forms = [
            PForm1(nvars, [_kernel_poly(rng, nvars, kinds[(r + i) % len(kinds)])
                           for i in range(nvars)])
            for r in range(3)
        ]
        assert wedge(forms[0], forms[1]) == PForm2(nvars, wedge_minors(forms[:2]))
        assert wedge(forms[0], forms[0]).is_zero
        if nvars > 2:
            want = PForm3(nvars, wedge_minors(forms))
            assert wedge(wedge(forms[0], forms[1]), forms[2]) == want
            assert wedge(forms[0], wedge(forms[1], forms[2])) == want


@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_pivot_components_decide_the_wedge(nvars):
    # omega ^ v vanishes iff its components at the indices holding the pivot do
    vanishes = germlin.pforms._wedge_vanishes
    rng = random.Random(940 + nvars)
    lam = _kernel_poly(rng, nvars, "mixed", terms=2, max_deg=1)
    for kinds in (("fraction",), ("cyclo",), ("mixed", "fraction"), ("zero",),
                  ("fraction", "zero"), ("cyclo", "zero", "zero"), ("zero", "mixed", "cyclo")):
        omega, u, t = (
            PForm1(nvars, [_kernel_poly(rng, nvars, kinds[(r + i) % len(kinds)])
                           for i in range(nvars)])
            for r in range(3)
        )
        # u and t cut down to omega's support, where every component of
        # omega ^ u at an index outside it vanishes but others need not
        u_on, t_on = (PForm1(nvars, {key: c for key, c in f.coeffs.items() if key in omega.coeffs})
                      for f in (u, t))
        # 1-forms, against the 2x2 minors: v = u, v = lambda omega, v = omega
        for v in (u, u_on, omega.scale(lam), omega):
            want = not wedge_minors([omega, v])
            assert vanishes(omega, v) is want is wedge(omega, v).is_zero
        # 2-forms: u ^ t against the 3x3 minors, (lambda omega) ^ u, d(omega)
        # and a random 2-form
        for a, b in ((u, t), (u_on, t_on)):
            ab = wedge(a, b)
            want = not wedge_minors([omega, a, b])
            assert vanishes(omega, ab) is want is wedge(omega, ab).is_zero
        assert vanishes(omega, wedge(omega.scale(lam), u))
        for v in (exterior_d(omega), _random_kform(rng, nvars, 2)):
            assert vanishes(omega, v) is wedge(omega, v).is_zero
        assert vanishes(omega, PForm2.zero(nvars)) and vanishes(PForm1.zero(nvars), u)
    # an integrable omega = Q dP - P dQ, where every pivot component is built
    P, Q = _kernel_poly(rng, nvars, "fraction"), _kernel_poly(rng, nvars, "mixed", max_deg=1)
    omega = PForm1(nvars, [Q * P.partial(i) - P * Q.partial(i) for i in range(nvars)])
    assert vanishes(omega, exterior_d(omega)) and wedge(omega, exterior_d(omega)).is_zero


# building a Fraction, and Fraction arithmetic (whose results are built too)
FRACTION_METHODS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def _forbid_fractions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction on the integer product path")

    for name in FRACTION_METHODS:
        monkeypatch.setattr(Fraction, name, forbidden)


def test_fraction_wedges_stay_on_integers(monkeypatch):
    rng = random.Random(931)
    u, v = (PForm1(4, [_kernel_poly(rng, 4, "fraction") for _ in range(4)]) for _ in range(2))
    P, Q = _kernel_poly(rng, 4, "fraction"), _kernel_poly(rng, 4, "fraction", max_deg=1)
    integrable = PForm1(4, [Q * P.partial(i) - P * Q.partial(i) for i in range(4)])
    want_uv = PForm2(4, wedge_minors([u, v]))
    # omega ^ d(omega) = sum_i omega ^ d(a_i) ^ dx_i
    want_int = {}
    for omega in (u, integrable):
        parts = [wedge_minors([omega, exterior_d(a), PForm1.basis(4, i)])
                 for (i,), a in omega.coeffs.items()]
        keys = {key for part in parts for key in part}
        want_int[id(omega)] = PForm3(4, {
            key: naive_poly_sum(4, [part[key] for part in parts if key in part])
            for key in keys
        })
    vanishes, verdicts = germlin.pforms._wedge_vanishes, []

    def banned(fn, *args):
        with monkeypatch.context() as m:
            _forbid_fractions(m)
            return fn(*args)

    def guarded_vanishes(omega, v):
        verdicts.append(banned(vanishes, omega, v))
        return verdicts[-1]

    assert banned(wedge, u, v) == want_uv
    for omega in (u, integrable):
        assert banned(wedge, omega, exterior_d(omega)) == want_int[id(omega)]
    # the four checks build no Fraction on integer forms: ex6.1 at k = 8 and
    # the random forms, against the same checks on copies whose numerators
    # are CycloElems
    ex = build_form_example("ex6.1", k=8)
    one = zeta(1)
    for omega, num, den, verdict in ((ex.omega, ex.mero_numerator, ex.mero_denominator, True),
                                     (integrable, P, Q, True), (u, P, Q, False), (v, Q, P, False)):
        assert all(type(v) is int for a in (num, den, *omega.coeffs.values())
                   for v in a.nums.values())
        copies = (omega.map_coeffs(lambda a: a * one), num * one, den * one)
        assert all(type(v) is CycloElem for a in (copies[1], copies[2], *copies[0].coeffs.values())
                   for v in a.nums.values())
        results = []
        for run, (w, n_, d_) in ((banned, (omega, num, den)), (lambda fn, *a: fn(*a), copies)):
            results.append([
                run(integrability_check, w),
                run(meromorphic_first_integral_check, w, n_, d_),
                run(tangent_cone, w),
                *(run(blowup_chart_pullback, w, c) for c in range(4)),
            ])
        assert results[0][:2] == [verdict, verdict]
        assert results[0] == results[1]
    # the checks decide the wedge from its pivot components, on integers too
    monkeypatch.setattr(germlin.pforms, "_wedge_vanishes", guarded_vanishes)
    assert integrability_check(u) is False
    assert integrability_check(integrable) is True
    assert verdicts == [False, True]
    assert want_int[id(integrable)].is_zero and not want_int[id(u)].is_zero
