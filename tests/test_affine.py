import random
from fractions import Fraction

import pytest

from germlin.affine import AffineMap, affine_conjugator_search, lemma_predicate
from germlin.cyclotomic import cyclo_embed, zeta
from germlin.germs import Word


def _word_value(word: Word, gens):
    acc = AffineMap.identity()
    for idx, exp in word.letters:
        g = gens[idx - 1] if exp == 1 else gens[idx - 1].inverse()
        acc = acc.compose(g)
    return acc


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
    with pytest.raises(ValueError):
        lemma_predicate(1, [Fraction(0)])


def test_search_self_pair():
    eta = zeta(4)
    gens = [AffineMap(eta, cyclo_embed(0, 4)), AffineMap(eta, cyclo_embed(1, 4))]
    assert affine_conjugator_search(gens, 1, 1, 4) == Word.empty()
    with pytest.raises(ValueError):
        affine_conjugator_search(gens, 1, 2, -1)


def test_search_two_prime_divisors_finds_witness():
    # order six linear part: the generators must be conjugate inside the group
    eta = zeta(6)
    gens = [AffineMap(eta, cyclo_embed(0, 6)), AffineMap(eta, cyclo_embed(1, 6))]
    w = affine_conjugator_search(gens, 1, 2, 6)
    assert w is not None
    h = _word_value(w, gens)
    assert gens[0].compose(h) == h.compose(gens[1])
    assert lemma_predicate(6, [g.translation for g in gens])


def test_search_prime_power_distinct_translations_absent():
    eta = zeta(4)
    gens = [AffineMap(eta, cyclo_embed(0, 4)), AffineMap(eta, cyclo_embed(1, 4))]
    assert affine_conjugator_search(gens, 1, 2, 6) is None
    assert not lemma_predicate(4, [g.translation for g in gens])


def test_found_words_always_verify():
    rng = random.Random(77)
    eta = zeta(12)
    gens = [
        AffineMap(eta, cyclo_embed(0, 12)),
        AffineMap(eta, cyclo_embed(1, 12)),
        AffineMap(eta, zeta(12) ** 2),
    ]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w = affine_conjugator_search(gens, i, j, 5)
            if w is not None:
                h = _word_value(w, gens)
                assert gens[i - 1].compose(h) == h.compose(gens[j - 1])
