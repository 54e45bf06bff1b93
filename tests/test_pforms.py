import random
from fractions import Fraction
from itertools import combinations

import pytest

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
)
from germlin.registry import build_form_example, default_parameter_sets

from oracles import wedge_minors

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
            ]
            results += blowup_chart_pullback(PForm1(nvars, [p] * nvars), i)[1].coeffs.values()
            for r in results:
                checked = MultiPoly(r.nvars, r.terms)
                assert r.terms == checked.terms
                assert all(type(e) is tuple and len(e) == nvars for e in r.terms)
                assert all(type(c) is type(checked.terms[e]) for e, c in r.terms.items())


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
