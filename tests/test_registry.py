from fractions import Fraction

import pytest

from germlin import registry
from germlin.group_cert import check_product_identity
from germlin.pforms import (
    MultiPoly,
    form_from_string,
    integrability_check,
    poly_from_string,
    radial_contraction,
)
from germlin.registry import (
    FORM_EXAMPLES,
    GROUP_EXAMPLES,
    MAX_EX61_K,
    RegistryError,
    build_form_example,
    build_group_example,
    default_parameter_sets,
)

from oracles import kupka_family_by_constructor, kupka_family_by_products


def test_every_group_example_constructs():
    for example_id in GROUP_EXAMPLES:
        loaded = build_group_example(example_id, order=8)
        assert loaded
        for item in loaded:
            assert len(item.presentation.gens) >= 2
            assert check_product_identity(item.presentation)


def test_every_form_example_constructs():
    for example_id in FORM_EXAMPLES:
        ex = build_form_example(example_id)
        assert integrability_check(ex.omega)
        if example_id == "ex6.1":
            assert radial_contraction(ex.omega).is_zero


def test_group_example_errors():
    with pytest.raises(RegistryError):
        build_group_example("nope")
    with pytest.raises(RegistryError):
        build_group_example("ex4.3", p=0)


def test_form_example_errors():
    with pytest.raises(RegistryError):
        build_form_example("nope")
    with pytest.raises(RegistryError):
        build_form_example("ex6.1", k=1)
    for k in (MAX_EX61_K + 1, 10**7):
        with pytest.raises(RegistryError, match=f"k <= {MAX_EX61_K}"):
            build_form_example("ex6.1", k=k)
    with pytest.raises(RegistryError):
        build_form_example("ex6.1", k=2, params=(1, 2, 3))
    with pytest.raises(RegistryError):
        build_form_example("ex6.1", k=2, params=(0, 1, 1, 1, 1, 1))


def test_default_parameter_sets_put_reference_point_on_singular_locus():
    from germlin.pforms import kupka_test

    for k in (2, 3, 4, 5):
        for params in default_parameter_sets(k):
            ex = build_form_example("ex6.1", k=k, params=params)
            assert kupka_test(ex.omega, (0, 1, -1, 0)), (k, params)


@pytest.mark.parametrize("k", range(2, 13))
def test_ex61_closed_form_matches_its_products(k):
    # written from its monomials, ex6.1 must equal the product-built example
    # term for term, Fraction for Fraction
    odd = [(Fraction(1, 2), -3, Fraction(-5, 7), 2, Fraction(1, 3), -1),
           (-1, Fraction(2, 9), 4, Fraction(-3, 4), -6, Fraction(7, 5))]
    for params in default_parameter_sets(k) + odd:
        ex = build_form_example("ex6.1", k=k, params=params)
        omega, q, denominator = kupka_family_by_products(k, params)
        got = [ex.mero_numerator, ex.mero_denominator] + [
            ex.omega.coefficient((i,)) for i in range(4)
        ]
        want = [q, denominator] + [omega.coefficient((i,)) for i in range(4)]
        for g, w in zip(got, want):
            assert g.terms == w.terms
            assert all(type(c) is Fraction for c in g.terms.values())
        assert set(ex.omega.coeffs) == set(omega.coeffs) == {(0,), (1,), (2,), (3,)}


def _same_integer_form(got, want):
    assert (got.den, got.nums) == (want.den, want.nums)
    assert got.den is not None and got.terms == want.terms


@pytest.mark.parametrize("k", range(2, 9))
def test_ex61_integer_form_is_what_the_checking_constructor_builds(k):
    for params in default_parameter_sets(k) + [(Fraction(1, 2), 2, 3, 4, 5, 6)]:
        ex = build_form_example("ex6.1", k=k, params=params)
        omega, q = kupka_family_by_constructor(k, params)
        assert set(ex.omega.coeffs) == set(omega.coeffs) == {(0,), (1,), (2,), (3,)}
        for key, want in omega.coeffs.items():
            _same_integer_form(ex.omega.coeffs[key], want)
        _same_integer_form(ex.mero_numerator, q)
        _same_integer_form(ex.mero_denominator, MultiPoly.variable(4, 0) ** (k + 1))


def test_ex62_monomials_are_its_expression_strings():
    # the three strings stay in the docstring of the builder
    texts = (
        "((y^2 + z^2) - x^2*(y^4 + z^4))*dx + x*y*(1 - x^2*y^2)*dy + z*x*(1 - x^2*z^2)*dz",
        "x^2*(y^2 + z^2)/2 - x^4*y^4/4 - x^4*z^4/4",
        "2*x*(y^2 + z^2)",
    )
    assert all(text in registry._ex62.__doc__ for text in texts)
    variables = ("x", "y", "z")
    omega = form_from_string(texts[0], variables=variables)
    integral, cone = (poly_from_string(text, variables=variables) for text in texts[1:])
    ex = build_form_example("ex6.2")
    assert ex.variables == variables
    assert set(ex.omega.coeffs) == set(omega.coeffs) == {(0,), (1,), (2,)}
    for key, want in omega.coeffs.items():
        _same_integer_form(ex.omega.coeffs[key], want)
    _same_integer_form(ex.first_integral, integral)
    _same_integer_form(ex.expected_cone, cone)
    assert ex.mero_numerator is ex.mero_denominator is ex.kupka_point is None
