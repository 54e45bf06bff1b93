import random
from fractions import Fraction

import pytest

from germlin.cyclotomic import cyclo_embed, root_of_unity_order, zeta
from germlin.expressions import series_from_string
from germlin.germs import (
    Germ,
    Word,
    conjugate,
    evaluate_word,
    identity_germ,
    iterate,
    tangency_data,
)
from germlin.jets import Jet

from oracles import geometric_quotient, random_jet


def _germ(coeffs, order=None, conductor=1):
    return Germ(Jet(coeffs, order=order, conductor=conductor))


def _random_germ(rng, order, conductor=1):
    f = random_jet(rng, order, conductor=conductor, zero_constant=True)
    if f.linear_term.is_zero:
        coeffs = list(f.coeffs)
        coeffs[1] = cyclo_embed(1, f.conductor)
        f = Jet(coeffs, order=order, conductor=f.conductor)
    return Germ(f)


def test_germ_invariants():
    with pytest.raises(ValueError):
        _germ([1, 1, 0])  # fixed point moved
    with pytest.raises(ValueError):
        _germ([0, 0, 1])  # vanishing linear part


def test_multiplier_examples():
    assert identity_germ(8).multiplier.is_one
    a = zeta(6)
    f5 = Germ(geometric_quotient(a, 8))
    assert f5.multiplier == 1 / a
    mu = zeta(4)
    assert _germ([0, mu, 1], order=4).multiplier == mu


def test_tangency_examples():
    mu = zeta(4)
    lin = _germ([0, mu], order=8)
    assert tangency_data(lin) == (False, None, None)
    assert tangency_data(identity_germ(8)) == (True, None, None)
    flat = _germ([0, 1, 0, 5], order=6)
    assert tangency_data(flat) == (True, 2, Fraction(5))
    a = zeta(6)
    f5 = Germ(geometric_quotient(a, 8))
    data = tangency_data(f5)
    assert (data.flat, data.k) == (False, 1)
    assert data.t == -(a ** (-2))


def test_conjugation_examples():
    rng = random.Random(2)
    f = _random_germ(rng, 10)
    assert conjugate(identity_germ(10), f) == f
    h = _germ([0, 1, 1], order=3)
    mu = cyclo_embed(-1, 1)
    rot = _germ([0, mu], order=3)
    assert conjugate(h, rot).multiplier == mu


def test_conjugation_preserves_multiplier_and_flat_order():
    rng = random.Random(9)
    for _ in range(8):
        h = _random_germ(rng, 10)
        f = _random_germ(rng, 10)
        conj = conjugate(h, f)
        assert conj.multiplier == f.multiplier
        if tangency_data(f).flat:
            assert tangency_data(conj).k == tangency_data(f).k


def test_radical_conjugation_identity():
    # h(z) = zeta_{2p} z maps the inverse generator back to the generator
    for p in (1, 2):
        N = 10
        f = Germ(series_from_string(f"z / pow(1 - z^{p}, 1/{p})", {}, order=N))
        finv = Germ(series_from_string(f"z / pow(1 + z^{p}, 1/{p})", {}, order=N))
        mu = zeta(2 * p)
        h = _germ([0, mu], order=N)
        assert conjugate(h, finv) == f


def test_group_axioms_random():
    rng = random.Random(13)
    for conductor in (1, 6):
        f = _random_germ(rng, 10, conductor)
        g = _random_germ(rng, 10, conductor)
        h = _random_germ(rng, 10, conductor)
        assert (f * g) * h == f * (g * h)
        assert f * ~f == identity_germ(10, f.conductor)
        assert ~f * f == identity_germ(10, f.conductor)
        assert (f * g).multiplier == f.multiplier * g.multiplier


def test_word_basics():
    w = Word.from_list([[1, 1], [2, -1], [1, 2]])
    assert w.letters == ((1, 1), (2, -1), (1, 1), (1, 1))
    assert w.inverse().letters == ((1, -1), (1, -1), (2, 1), (1, -1))
    assert len(Word.empty()) == 0
    with pytest.raises(ValueError):
        Word(((0, 1),))
    with pytest.raises(ValueError):
        Word(((1, 2),))
    # letters are [index, exponent] pairs of ints: nothing is truncated
    for bad in ([[1.7, 1]], [[1, 0.5]], [[True, 1]], [[1, "1"]], [[1, 1, 1]], [5], "f1"):
        with pytest.raises(ValueError):
            Word.from_list(bad)


def test_word_letter_limit():
    from germlin.germs import MAX_WORD_LETTERS

    assert len(Word.from_list([[1, MAX_WORD_LETTERS - 1], [2, -1]])) == MAX_WORD_LETTERS
    for letters in ([[1, MAX_WORD_LETTERS + 1]], [[1, MAX_WORD_LETTERS], [2, -1]]):
        with pytest.raises(ValueError, match="at most"):
            Word.from_list(letters)


def test_evaluate_word_examples():
    rng = random.Random(19)
    gens = [_random_germ(rng, 10) for _ in range(3)]
    assert evaluate_word(Word.empty(), gens) == identity_germ(10)
    assert evaluate_word(Word.from_list([[1, 1]]), gens) == gens[0]
    assert evaluate_word(Word.from_list([[2, 1], [2, -1]]), gens) == identity_germ(10)
    with pytest.raises(ValueError):
        evaluate_word(Word.from_list([[4, 1]]), gens)


def test_evaluate_word_known_witness():
    # f1 o f5 o f1^4 = z/(1 + a z) over the six-generator family
    N = 16
    for a in (zeta(6), 1 - zeta(6)):
        env = {"a": a}
        gens = [
            Germ(series_from_string(e, env, order=N))
            for e in ["z/a"] * 4 + ["z/(a + z)", "z/(a - a^5*z)"]
        ]
        w = Word.from_list([[1, 1], [5, 1], [1, 4]])
        expected = series_from_string("z/(1 + a*z)", env, order=N)
        assert evaluate_word(w, gens).jet == expected


def test_iterate_examples():
    rng = random.Random(21)
    f = _random_germ(rng, 10)
    assert iterate(f, 1) == f
    assert iterate(f, 0) == identity_germ(10)
    N = 10
    f43 = Germ(series_from_string("z / pow(1 - z^2, 1/2)", {}, order=N))
    assert iterate(f43, 3).jet == series_from_string(
        "z / pow(1 - 3*z^2, 1/2)", {}, order=N
    )
    mu = zeta(4)
    rot = _germ([0, mu], order=6)
    assert iterate(rot, root_of_unity_order(mu)) == identity_germ(6, 4)


def test_iterate_matches_word_evaluation():
    rng = random.Random(27)
    f = _random_germ(rng, 8)
    for n in range(1, 9):
        word = Word.from_list([[1, n]])
        assert iterate(f, n) == evaluate_word(word, [f])
    assert iterate(f, -2) == ~f * ~f
