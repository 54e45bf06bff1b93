import random
from fractions import Fraction

import pytest

from germlin.affine import AffineMap, lemma_predicate
from germlin.cyclotomic import cyclo_embed, zeta


def test_compose_and_inverse():
    eta = zeta(6)
    b1, b2 = cyclo_embed(Fraction(1, 2), 6), cyclo_embed(3, 6)
    f = AffineMap(eta, b1)
    g = AffineMap(eta, b2)
    assert f.compose(g) == AffineMap(eta * eta, eta * b2 + b1)
    assert AffineMap.identity().compose(f) == f
    assert f.compose(f.inverse()) == AffineMap.identity()
    assert f.inverse().compose(f) == AffineMap.identity()
    with pytest.raises(ValueError):
        AffineMap(Fraction(0), Fraction(1))


def test_group_axioms_random():
    rng = random.Random(51)
    maps = []
    for _ in range(6):
        a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        maps.append(AffineMap(a, b))
    for f in maps:
        for g in maps:
            for h in maps:
                assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_lemma_predicate():
    assert lemma_predicate(6, [0, 0, 0, 0, Fraction(5), Fraction(7)])
    assert not lemma_predicate(4, [Fraction(1), Fraction(2)])
    assert lemma_predicate(4, [Fraction(2), Fraction(2)])
    assert lemma_predicate(12, [Fraction(1), Fraction(2)])
    assert not lemma_predicate(9, [Fraction(1), Fraction(2)])
    # distinct cyclotomic translations: 6 has two prime divisors, 4 is a prime power
    assert lemma_predicate(6, [cyclo_embed(0, 6), cyclo_embed(1, 6)])
    assert not lemma_predicate(4, [cyclo_embed(0, 4), cyclo_embed(1, 4)])
    with pytest.raises(ValueError):
        lemma_predicate(1, [Fraction(0)])

