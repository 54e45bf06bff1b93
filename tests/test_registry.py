from fractions import Fraction

import pytest

from germlin.group_cert import check_product_identity
from germlin.pforms import integrability_check, radial_contraction
from germlin.registry import (
    FORM_EXAMPLES,
    GROUP_EXAMPLES,
    RegistryError,
    build_form_example,
    build_group_example,
    default_parameter_sets,
)

from oracles import kupka_family_by_products


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
