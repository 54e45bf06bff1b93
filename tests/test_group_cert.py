import itertools
import json
import random
from fractions import Fraction

import pytest

from germlin.cyclotomic import solve_root_constraints, zeta
from germlin.expressions import series_from_string
from germlin import germs, group_cert, jets
from germlin.germs import Germ, Word, evaluate_word, identity_germ
from germlin.group_cert import (
    GroupPresentation,
    PresentationError,
    certify,
    check_conjugacy_witness,
    check_product_identity,
    load_presentation_text,
    search_conjugator,
)
from germlin.jets import Jet

from oracles import lagrange_inverse, random_jet
from test_golden import _golden_path, _run


def _germ(coeffs, order, conductor=1):
    return Germ(Jet(coeffs, order=order, conductor=conductor))


def _ex41(order=24):
    out = []
    for a in solve_root_constraints(6, ["a = 1/(1 - a)"]):
        env = {"a": a}
        gens = [
            Germ(series_from_string(e, env, order=order))
            for e in ["z/a"] * 4 + ["z/(a + z)", "z/(a - a^5*z)"]
        ]
        out.append((a, GroupPresentation(gens, order=order)))
    return out


def _ex43(p=2, order=16):
    f = Germ(series_from_string(f"z / pow(1 - z^{p}, 1/{p})", {}, order=order))
    fi = Germ(series_from_string(f"z / pow(1 + z^{p}, 1/{p})", {}, order=order))
    return GroupPresentation([f, fi], order=order)


def test_presentation_validation():
    with pytest.raises(PresentationError):
        GroupPresentation([identity_germ(8)])
    with pytest.raises(PresentationError):
        GroupPresentation([identity_germ(8), identity_germ(9)])
    with pytest.raises(PresentationError):
        GroupPresentation(
            [identity_germ(8), identity_germ(8)],
            witnesses={(1, 5): Word.empty()},
        )


def test_product_identity_inverse_pair():
    N = 16
    f = _germ([0, 1, 1] + [0] * (N - 2), N)
    pres = GroupPresentation([f, ~f], order=N)
    assert check_product_identity(pres)


def test_product_identity_counterexample():
    # f o f for f = -z + z^3 keeps a z^3 term: direct composition shows it
    N = 8
    f = _germ([0, -1, 0, 1] + [0] * (N - 3), N)
    square = f * f
    assert square.coefficient(3) == Fraction(-2)
    pres = GroupPresentation([f, f], order=N)
    assert not check_product_identity(pres)


def test_product_identity_six_generator_family():
    for _, pres in _ex41(order=20):
        assert check_product_identity(pres)
        for i in (1, 5, 6):
            expected = lagrange_inverse(pres.generator(i).jet)
            assert pres.inverse_generator(i).jet == expected


def test_witness_checks():
    N = 20
    rng = random.Random(3)
    f = Germ(random_jet(rng, N, zero_constant=True, unit_linear=True))
    pres = GroupPresentation([f, f], order=N)
    assert check_conjugacy_witness(pres, 1, 2, Word.empty())
    for a, pres41 in _ex41():
        w = Word.from_list([[1, 1], [5, 1], [1, 4]])
        assert check_conjugacy_witness(pres41, 5, 1, w)
        # and the inverted word certifies the transposed pair
        assert check_conjugacy_witness(pres41, 1, 5, w.inverse())


def test_witness_check_matches_word_evaluation():
    # the cached-composer evaluation agrees with evaluate_word on random
    # words, true and false witnesses alike
    rng = random.Random(11)
    for _, pres in _ex41(order=12):
        m = len(pres.gens)
        for _ in range(12):
            w = Word.from_list(
                [[rng.randint(1, m), rng.choice((-2, -1, 1, 2))] for _ in range(rng.randint(0, 5))]
            )
            i, j = rng.randint(1, m), rng.randint(1, m)
            g = evaluate_word(w, pres.gens)
            expected = pres.generator(i) * g == g * pres.generator(j)
            assert check_conjugacy_witness(pres, i, j, w) == expected


def test_witness_check_computes_no_inverse(monkeypatch):
    # certify on ex4.1 checks the registry witness for (5,1) with the cached
    # inverses: no jet_comp_inverse call inside the check, same output
    state = {"inside": False, "checks": 0, "inverses": 0}
    real_check = group_cert.check_conjugacy_witness
    real_inverse = jets.jet_comp_inverse

    def check(*args):
        state["inside"] = True
        state["checks"] += 1
        try:
            return real_check(*args)
        finally:
            state["inside"] = False

    def inverse(f):
        state["inverses"] += state["inside"]
        return real_inverse(f)

    monkeypatch.setattr(group_cert, "check_conjugacy_witness", check)
    for module in (jets, germs):
        monkeypatch.setattr(module, "jet_comp_inverse", inverse)
    command = "certify --example ex4.1 --order 12 --max-word-len 3"
    with open(_golden_path(command), encoding="utf-8") as fh:
        assert _run(command) == fh.read()
    assert state["checks"] == 2  # one witness check per root of the constraint
    assert state["inverses"] == 0


def test_no_short_witness_for_radical_pair():
    # exhaustive check over all freely reduced words of length <= 4
    pres = _ex43(p=2, order=12)
    letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
    words = [()]
    frontier = [()]
    for _ in range(4):
        new = []
        for w in frontier:
            for l in letters:
                if w and l == (w[-1][0], -w[-1][1]):
                    continue
                new.append(w + (l,))
        words.extend(new)
        frontier = new
    for letters_tuple in words:
        assert not check_conjugacy_witness(pres, 1, 2, Word(letters_tuple))


def test_search_conjugator_basics():
    for a, pres in _ex41(order=16):
        assert search_conjugator(pres, 1, 1, 4) == Word.empty()
        found = search_conjugator(pres, 1, 6, 8)
        assert found is not None
        assert check_conjugacy_witness(pres, 1, 6, found)
        found56 = search_conjugator(pres, 5, 6, 8)
        assert found56 is not None
        assert check_conjugacy_witness(pres, 5, 6, found56)


def test_search_conjugator_negative():
    pres = _ex43(p=2, order=16)
    assert search_conjugator(pres, 1, 2, 8) is None
    with pytest.raises(ValueError):
        search_conjugator(pres, 1, 2, -1)


def test_certify_rotation_group():
    N = 12
    mu = zeta(4)
    rot = _germ([0, mu] + [0] * (N - 1), N)
    pres = GroupPresentation([rot] * 4, order=N)
    rep = certify(pres, max_len=4)
    assert rep.product_ok
    assert rep.multiplier_order == 4
    assert rep.multipliers_all_equal
    assert rep.theorem_a_applicable and rep.prime_power == (2, 2)
    assert rep.certified


def test_certify_first_family():
    for a, pres in _ex41(order=24):
        rep = certify(pres, max_len=8)
        assert rep.product_ok
        assert rep.multiplier == 1 / a
        assert rep.multiplier_order == 6
        assert not rep.theorem_a_applicable
        assert rep.certified
        for (i, j), res in rep.conjugacy.items():
            assert res.positive
            if res.word is not None:
                assert check_conjugacy_witness(pres, i, j, res.word)


def test_certify_ten_generator_family():
    a = solve_root_constraints(10, ["a^3 + a = 1/(1 - a)"])[0]
    env = {"a": a}
    N = 16
    gens = [
        Germ(series_from_string(e, env, order=N))
        for e in ["z/a"] * 8 + ["z/(a + z)", "z/(a - a^9*z)"]
    ]
    pres = GroupPresentation(gens, order=N)
    rep = certify(pres, max_len=4)
    assert rep.product_ok
    assert rep.multiplier_order == 10
    assert not rep.theorem_a_applicable


def test_invalid_witness_falls_back_to_search():
    N = 12
    rng = random.Random(4)
    f = Germ(random_jet(rng, N, zero_constant=True, unit_linear=True))
    # a wrong witness word: certify must ignore it and resolve by search
    bogus = {(1, 2): Word.from_list([[1, 1]])}
    pres = GroupPresentation([f, ~f], order=N, witnesses=bogus)
    if not check_conjugacy_witness(pres, 1, 2, bogus[(1, 2)]):
        rep = certify(pres, max_len=2)
        assert rep.conjugacy[(1, 2)].status in ("found-by-search", "not-found-up-to")


def test_report_determinism():
    _, pres = _ex41(order=16)[0]
    rep1 = certify(pres, max_len=6)
    rep2 = certify(pres, max_len=6)
    assert json.dumps(rep1.to_json()) == json.dumps(rep2.to_json())


def test_search_soundness_invariant():
    # any word the search returns passes the witness check, by construction
    for a, pres in _ex41(order=16)[:1]:
        for i, j in itertools.combinations(range(1, 7), 2):
            w = search_conjugator(pres, i, j, 4)
            if w is not None:
                assert check_conjugacy_witness(pres, i, j, w)


def test_multiplier_consistency_invariants():
    # with all conjugacies verified the multipliers agree, and with the
    # product identity the common multiplier has finite order dividing nu+1
    for a, pres in _ex41(order=16):
        rep = certify(pres, max_len=8)
        if rep.all_conjugacies_positive:
            assert rep.multipliers_all_equal
        if rep.product_ok and rep.multipliers_all_equal:
            assert (rep.multiplier ** len(pres.gens)).is_one


PRESENTATION_JSON = """
{
  "field": {"conductor": 6, "constraints": ["a = 1/(1 - a)"]},
  "order": 12,
  "generators": ["z/a", "z/a", "z/a", "z/a", "z/(a + z)", "z/(a - a^5*z)"],
  "witnesses": {"(5,1)": [[1, 1], [5, 1], [1, 4]]}
}
"""


def test_load_presentation_text():
    loaded = load_presentation_text(PRESENTATION_JSON)
    assert len(loaded) == 2
    for item in loaded:
        assert item.presentation.order == 12
        assert len(item.presentation.gens) == 6
        assert (5, 1) in item.presentation.witnesses
        assert check_product_identity(item.presentation)
    # order override wins over the file's order
    loaded16 = load_presentation_text(PRESENTATION_JSON, order=16)
    assert loaded16[0].presentation.order == 16


def test_load_presentation_errors():
    with pytest.raises(PresentationError):
        load_presentation_text("not json")
    with pytest.raises(PresentationError):
        load_presentation_text('{"generators": ["z"]}')
    with pytest.raises(PresentationError):
        load_presentation_text('{"generators": ["z + q", "z"]}')
    with pytest.raises(PresentationError):
        load_presentation_text(
            '{"generators": ["z", "z"], "witnesses": {"bad": []}}'
        )
    with pytest.raises(PresentationError):
        load_presentation_text(
            '{"field": {"conductor": 4, "constraints": ["a = 3"]},'
            ' "generators": ["a*z", "a*z"]}'
        )
