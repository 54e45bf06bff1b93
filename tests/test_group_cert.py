import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import re
from fractions import Fraction

import pytest

from germlin.cyclotomic import solve_root_constraints, zeta
from germlin.expressions import series_from_string
from germlin import germs, group_cert, jets, registry
from germlin.cli import main
from germlin.expressions import ExpressionError
from germlin.germs import Germ, Word, evaluate_word, identity_germ
from germlin.group_cert import (
    ConjugacyResolution,
    GroupPresentation,
    PresentationError,
    certify,
    certify_roots,
    check_conjugacy_witness,
    check_product_identity,
    load_presentation_text,
    search_conjugator,
)
from germlin.jets import Jet
from germlin.registry import GROUP_EXAMPLES, build_group_example

from oracles import lagrange_inverse, naive_classes, per_root_presentations, random_jet
from test_golden import GOLDEN_DIR, _golden_path, _run
from test_jets import WIDE_CONDUCTORS


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
    # one witness check per root of the constraint, plus one re-check of each
    # of the 4 found words the second root (a Galois image of the first)
    # takes over from the first root's searches
    assert state["checks"] == 6
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


def _reports_json(reports):
    return [json.dumps(r.to_json()) for r in reports]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(group_cert, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(group_cert, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "example, order, max_len",
    [(ex, 4, 1) for ex in GROUP_EXAMPLES] + [("ex4.1", 12, 3)],
)
def test_orbit_transfer_equals_independent_certify(example, order, max_len):
    loaded = build_group_example(example, order=order)
    alone = [certify(item.presentation, max_len) for item in loaded]
    assert _reports_json(certify_roots(loaded, max_len)) == _reports_json(alone)


@pytest.mark.parametrize("example", GROUP_EXAMPLES)
def test_image_roots_map_their_tables_from_the_first_root(monkeypatch, example):
    # an image root's composers and inverse generators are sigma_u of its
    # first root's, built by no RightComposer of its own; they equal the
    # tables built afresh from its generators, and so do the reports
    built = []
    init = jets.RightComposer.__init__
    monkeypatch.setattr(
        jets.RightComposer, "__init__", lambda self, g: built.append(self) or init(self, g)
    )
    loaded = build_group_example(example, order=6)
    reports = certify_roots(loaded, 1)
    for item, report in zip(loaded, reports):
        pres = item.presentation
        fresh = GroupPresentation(pres.gens, pres.witnesses, order=pres.order)
        assert _reports_json([report]) == _reports_json([certify(fresh, 1)])
        if item.image_of is None:
            continue
        for idx in range(1, len(pres) + 1):
            assert pres.inverse_generator(idx).jet.row == fresh.inverse_generator(idx).jet.row
            for sign in (1, -1):
                comp = pres.letter_composer(idx, sign)
                assert comp.rows == fresh.letter_composer(idx, sign).rows
                assert all(comp is not b for b in built)
        # the letters keep one per value, as they do on the fresh tables
        assert [letter for letter, _ in pres.letters()] == [
            letter for letter, _ in fresh.letters()
        ]
    assert any(item.image_of is not None for item in loaded) == (example != "ex4.3")


def test_one_search_per_orbit_of_roots(monkeypatch):
    # the six roots of g18p are one Galois orbit: 4 searches, not 6 x 4
    loaded = build_group_example("g18p", order=4)
    assert len(loaded) == 6
    searches = _counting(monkeypatch, "search_conjugator")
    certify_roots(loaded, 1)
    assert len(searches) == 4


def test_two_orbits_file_transfers_only_within_an_orbit(monkeypatch):
    # a^4 = 1 at conductor 12: roots 1, i, -1, -i; only -i is sigma_7(i)
    with open(os.path.join(GOLDEN_DIR, "two_orbits.json"), encoding="utf-8") as fh:
        loaded = load_presentation_text(fh.read())
    assert [item.label for item in loaded] == [
        "a=1", "a=cyclo(12)[0,0,0,1]", "a=-1", "a=cyclo(12)[0,0,0,-1]"
    ]
    assert [item.image_of for item in loaded] == [None, None, None, 1]
    _assert_image_roots_share_classes(loaded)
    calls = _counting(monkeypatch, "certify")
    certify_roots(loaded, 3)
    assert [kwargs["transferred"] is not None for _, kwargs in calls] == [
        False, False, False, True
    ]


def _assert_equals_per_root_evaluation(spec, order):
    """The loader's presentations, the later roots of each orbit built by
    sigma_u, equal those of evaluating every generator at every root over
    coefficient lists (``oracles.naive_series``), as rows and as
    coefficients."""
    try:
        expected = per_root_presentations(spec, order)
    except ExpressionError as exc:
        # the first failing root and generator, and the message, are the same
        with pytest.raises(PresentationError, match=re.escape(f"): {exc}")):
            group_cert._load_presentation_data(spec, order)
        return False
    loaded = group_cert._load_presentation_data(spec, order)
    assert [(item.label, item.scalars) for item in loaded] == [
        (label, scalars) for label, scalars, _ in expected
    ]
    for item, (_, _, jets) in zip(loaded, expected):
        pres = item.presentation
        n = pres.conductor
        coeffs = [tuple(c.lift(n) for c in j.coeffs) for j in jets]
        assert [g.jet.coeffs for g in pres.gens] == coeffs
        assert [g.jet.row for g in pres.gens] == [Jet(c, conductor=n).row for c in coeffs]
        assert pres.classes == naive_classes(jets)
    _assert_image_roots_share_classes(loaded)
    return True


def _assert_image_roots_share_classes(loaded):
    """certify_roots reads pair (i, j) of an image root from pair (i, j) of
    its first root, which needs the same classes at both."""
    for item in loaded:
        if item.image_of is not None:
            assert item.presentation.classes == loaded[item.image_of].presentation.classes


@pytest.mark.parametrize("order", [4, 12])
@pytest.mark.parametrize("example", GROUP_EXAMPLES)
def test_orbit_loader_equals_per_root_evaluation(monkeypatch, example, order):
    specs = []
    load = registry._load_presentation_data
    monkeypatch.setattr(
        registry, "_load_presentation_data", lambda spec, n: specs.append(spec) or load(spec, n)
    )
    build_group_example(example, order=order)
    assert _assert_equals_per_root_evaluation(specs[0], order)


# ex4.1's generators with 7 in place of 6, at conductor 105: the first
# cyclotomic polynomial with a coefficient -2, so the loader's sigma_u and
# the row kernel reduce through Phi_105 itself
CONDUCTOR_105_SPEC = {
    "field": {"conductor": 105, "constraints": ["a^7 = 1"]},
    "generators": ["z/a", "z/a", "z/(a + z)", "z/(a - a^6*z)"],
}


@pytest.mark.parametrize("n", WIDE_CONDUCTORS)
def test_loader_equals_per_root_evaluation_across_the_conductor_range(n):
    # the roots of a^m = 1 for m = 7 or 8 dividing n: two to four Galois
    # orbits, the later roots built by sigma_u through Phi_n's reduction
    m = 7 if n % 7 == 0 else 8
    spec = {
        "field": {"conductor": n, "constraints": [f"a^{m} = 1"]},
        "generators": ["z/a", "z/(a + z)", "a*z/(1 - a^3*z)", "z*pow(1 + a*z, 1/2)"],
    }
    assert _assert_equals_per_root_evaluation(spec, 4)


@pytest.mark.parametrize("order", [4, 8])
def test_conductor_105_presentation_certifies_with_checked_witnesses(order):
    # seven roots in two Galois orbits, 1 and the primitive 7th roots
    assert _assert_equals_per_root_evaluation(CONDUCTOR_105_SPEC, order)
    loaded = load_presentation_text(json.dumps(CONDUCTOR_105_SPEC), order)
    assert [item.image_of for item in loaded] == [None, None, 1, 1, 1, 1, 1]
    found = 0
    for item, report in zip(loaded, certify_roots(loaded, 2)):
        pres = item.presentation
        for (i, j), resolution in report.conjugacy.items():
            if resolution.word is None:
                continue
            found += 1
            assert check_conjugacy_witness(pres, i, j, resolution.word)
            g = evaluate_word(resolution.word, pres.gens)
            assert pres.generator(i) * g == g * pres.generator(j)
    assert found


# generators over the scalar {v}: zero constant term, nonzero linear term
_TEMPLATES = (
    "{c}*{v}^{e}*z",
    "{v}^{e}*z/(1 + {c}*{v}*z)",
    "z/({v}^{e} + {c}*z)",
    "{v}^{e}*z + {c}*{v}^{f}*z^2",
    "{v}^{e}*z*pow(1 + {c}*{v}^{f}*z, 1/2)",
    "z/({v}^{e} + 1)",  # undefined where v^e = -1
    # the scalar-first paths: a scalar divisor, vanishing where v^e = v^f,
    # a negative power of a scalar, and pow of a scalar
    "z/({v}^{e} - {v}^{f})",
    "{v}^-{e}*z",
    "z*pow(1, 1/2)",
)


@pytest.mark.parametrize("seed", range(8))
def test_orbit_loader_equals_per_root_evaluation_on_random_files(seed):
    # 3 to 6 Galois orbits of roots per file
    rng = random.Random(seed)
    conductor, constraint = rng.choice(
        [(12, "a^4 = 1"), (18, "a^6 = 1"), (12, "a^12 = 1"), (20, "a^10 = 1")]
    )
    v = rng.choice(["a", "t"])
    gens = [
        rng.choice(_TEMPLATES).format(
            v=v, c=rng.choice([-2, -1, 1, 3]), e=rng.randint(0, 5), f=rng.randint(1, 5)
        )
        for _ in range(rng.randint(2, 4))
    ]
    spec = {
        "field": {"conductor": conductor, "constraints": [constraint.replace("a", v)], "var": v},
        "generators": gens + [rng.choice(gens)],
    }
    _assert_equals_per_root_evaluation(spec, 6)


def test_transferred_word_failing_its_check_is_searched_again(monkeypatch):
    # a transferred found word that is no witness here is re-searched; a
    # transferred not-found-up-to stands, unchecked, though a search finds a
    # word.  (1, 6) is the first pair of its classes (0, 5), which (2, 6),
    # (3, 6) and (4, 6) share.
    pres = _ex41(order=8)[0][1]
    assert pres.classes == (0, 0, 0, 0, 4, 5)
    bogus = Word.from_list([[6, 1]])
    assert not check_conjugacy_witness(pres, 1, 6, bogus)
    alone = certify(pres, 2)
    assert alone.conjugacy[(1, 6)].status == "found-by-search"

    def first_root(resolution):
        return dataclasses.replace(alone, conjugacy={**alone.conjugacy, (1, 6): resolution})

    searches = _counting(monkeypatch, "search_conjugator")
    rep = certify(pres, 2, transferred=first_root(ConjugacyResolution("found-by-search", bogus)))
    assert _reports_json([rep]) == _reports_json([alone])
    assert [args[1:3] for args, _ in searches] == [(1, 6)]
    del searches[:]
    rep = certify(pres, 2, transferred=first_root(ConjugacyResolution("not-found-up-to", max_len=2)))
    assert [rep.conjugacy[(i, 6)].status for i in range(1, 5)] == ["not-found-up-to"] * 4
    assert searches == []


def test_loader_evaluates_each_distinct_expression_once(monkeypatch):
    evaluations = _counting(monkeypatch, "series_from_string")
    loaded = build_group_example("g10", order=4)
    # z/a (8 times), z/(a + z) and z/(a - a^9*z), at the first of the 4 roots:
    # the 4 roots are one Galois orbit
    assert len(loaded) == 4 and len(evaluations) == 3
    for item in loaded:
        gens = item.presentation.gens
        assert all(g.jet == gens[0].jet for g in gens[:8])
    # a^4 = 1 at conductor 12: 3 expressions at the first root of each of the
    # 3 orbits {1}, {i, -i} and {-1}
    del evaluations[:]
    with open(os.path.join(GOLDEN_DIR, "two_orbits.json"), encoding="utf-8") as fh:
        assert len(load_presentation_text(fh.read())) == 4
    assert len(evaluations) == 9
    with pytest.raises(PresentationError, match="generator 2 "):
        load_presentation_text('{"generators": ["z", "z + q", "z", "z + q"]}')


def test_pairs_of_one_class_pair_share_one_resolution_and_its_json():
    # g18p: generators 1..16 are equal, so 153 pairs fall into 4 class pairs
    pres = build_group_example("g18p", order=4)[0].presentation
    report = certify(pres, 1)
    out = report.to_json()["conjugacy"]
    first: dict = {}
    for (i, j), r in report.conjugacy.items():
        pair = (pres.classes[i - 1], pres.classes[j - 1])
        i0, j0 = first.setdefault(pair, (i, j))
        assert r is report.conjugacy[(i0, j0)]
        assert out[f"({i},{j})"] is out[f"({i0},{j0})"]
    assert len(report.conjugacy) == 153 and len(first) == 4
    # the shared dicts serialize as separate copies would
    copies = {key: dict(value) for key, value in out.items()}
    assert json.dumps(out, sort_keys=True) == json.dumps(copies, sort_keys=True)


# -- the order-2 model of Mobius presentations ---------------------------------------


def _reference_json(pres, max_len):
    """The report of :func:`certify` as the order-N checks give it: the
    product identity, the witness check and one search per pair of classes,
    all on the order-N presentation itself."""
    conj = {}
    found = {}
    m = len(pres)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            w = group_cert._lookup_witness(pres, i, j)
            if w is not None and check_conjugacy_witness(pres, i, j, w):
                conj[f"({i},{j})"] = {"status": "verified-by-witness", "word": w.to_json()}
                continue
            pair = (pres.classes[i - 1], pres.classes[j - 1])
            if pair not in found:
                found[pair] = search_conjugator(pres, i, j, max_len)
            word = found[pair]
            conj[f"({i},{j})"] = (
                {"status": "not-found-up-to", "max_len": max_len}
                if word is None
                else {"status": "found-by-search", "word": word.to_json()}
            )
    product_ok = check_product_identity(pres)
    mults = [g.multiplier for g in pres.gens]
    order = group_cert.root_of_unity_order(mults[0])
    pp = group_cert.prime_power_order(order) if order is not None else None
    applicable = (
        product_ok
        and all(x == mults[0] for x in mults)
        and all(r["status"] != "not-found-up-to" for r in conj.values())
        and pp is not None
    )
    return {
        "product_ok": product_ok,
        "multiplier": group_cert.format_scalar(mults[0]),
        "multiplier_order": order,
        "multipliers_all_equal": all(x == mults[0] for x in mults),
        "conjugacy": conj,
        "theorem_a_applicable": applicable,
        "prime_power": {"p": pp[0], "s": pp[1]} if applicable else None,
        "certified": product_ok and all(r["status"] != "not-found-up-to" for r in conj.values()),
    }


def _certified_orders(monkeypatch):
    """The orders of the presentations certify runs its checks on."""
    calls = _counting(monkeypatch, "check_product_identity")
    return lambda: [args[0].order for args, _ in calls]


def _assert_model_changes_no_report(monkeypatch, loaded, max_len):
    orders = _certified_orders(monkeypatch)
    reports = certify_roots(loaded, max_len)
    N = loaded[0].presentation.order
    assert orders() == [2 if N > 2 else N] * len(loaded)
    for item, report in zip(loaded, reports):
        assert report.to_json() == _reference_json(item.presentation, max_len)


@pytest.mark.parametrize("order, max_len", [(2, 4), (4, 3), (16, 3), (32, 2)])
@pytest.mark.parametrize("example", GROUP_EXAMPLES)
def test_mobius_model_changes_no_report(monkeypatch, example, order, max_len):
    # every registry family is Mobius, and so is ex4.3 at p = 1, z/(1 - z)
    _assert_model_changes_no_report(monkeypatch, build_group_example(example, order=order), max_len)


def _random_mobius(rng, v):
    """The text of a z / (1 + g z) with a and g from small integers and the
    scalar v, and that of its inverse z / (a - g z); a is never 0 at a root
    of unity v, so both are germs at every root."""
    a = rng.choice(["1", "-1", "2", f"{v}", f"{v}^{rng.randint(2, 5)}", f"(2 - {v})"])
    g = rng.choice(["0", "1", "-2", f"{v}", f"3*{v}^{rng.randint(2, 5)}", f"({v} + 1)/2"])
    return f"({a})*z/(1 + ({g})*z)", f"z/(({a}) - ({g})*z)"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("conductor, constraint", [(1, None), (6, "a^6 = 1"), (12, "a^4 = 1")])
def test_mobius_model_changes_no_report_on_random_files(monkeypatch, seed, conductor, constraint):
    # pairs (f, f^-1), so that the product identity holds before a shuffle,
    # and repeated generators, over one or several Galois orbits of roots
    rng = random.Random(seed * 1000 + conductor)
    v = "a" if constraint else "1"
    gens = []
    for _ in range(rng.randint(1, 3)):
        gens.extend(_random_mobius(rng, v))
    gens.append(rng.choice(gens))
    gens.append(rng.choice(gens))
    if rng.random() < 0.5:
        rng.shuffle(gens)
    spec = {"order": rng.choice([3, 8, 16]), "generators": gens}
    if constraint:
        spec["field"] = {"conductor": conductor, "constraints": [constraint]}
    loaded = load_presentation_text(json.dumps(spec))
    assert all(item.presentation._order2_model is not None for item in loaded)
    _assert_model_changes_no_report(monkeypatch, loaded, 3)


def test_mobius_test_matches_the_coefficient_identity():
    # a_(k+1) a_1 == a_k a_2 for k = 1 .. N - 1, over the coefficient lists
    rng = random.Random(5)
    for n in (1, 6, 12):
        for _ in range(12):
            N = rng.randint(2, 10)
            a = zeta(n) ** rng.randrange(n) if n > 1 else Fraction(rng.choice([1, -2, 3]))
            g = rng.choice([0, 1, Fraction(-1, 2)]) * (zeta(n) ** rng.randrange(n) if n > 1 else 1)
            jet = series_from_string("a*z/(1 + g*z)", {"a": a, "g": g}, order=N)
            if rng.random() < 0.5:
                k = rng.randint(2, N)
                jet = jet + Jet([0] * k + [rng.choice([1, -1, 3])], order=N)
            c = jet.lift(n).coeffs
            expected = all(c[k + 1] * c[1] == c[k] * c[2] for k in range(1, N))
            assert group_cert._is_mobius(jet.lift(n).row, N, n) == expected


def test_non_mobius_at_order_n_takes_the_order_n_path(monkeypatch):
    # c z^N added to one generator of g10: Mobius to order N - 1, not to N
    N = 8
    base = build_group_example("g10", order=N)[0].presentation
    bump = Jet([0] * N + [Fraction(-1, 3)], order=N)
    gens = list(base.gens)
    gens[-1] = Germ(gens[-1].jet + bump)
    pres = GroupPresentation(gens, order=N)
    lower = GroupPresentation([Germ(g.jet.truncate(N - 1)) for g in gens], order=N - 1)
    assert lower._order2_model is not None and pres._order2_model is None
    orders = _certified_orders(monkeypatch)
    assert certify(pres, 2).to_json() == _reference_json(pres, 2)
    assert orders() == [N]


def test_ex43_above_p1_and_order_1_take_the_order_n_path(monkeypatch):
    for p in range(2, 6):
        (item,) = build_group_example("ex4.3", order=8, p=p)
        assert item.presentation._order2_model is None
    for example in GROUP_EXAMPLES:
        for item in build_group_example(example, order=1):
            assert item.presentation._order2_model is None
    calls = _counting(monkeypatch, "check_product_identity")
    for argv, order in ((["--p", "3", "--order", "8"], 8), (["--order", "1"], 1)):
        for example in ("ex4.3", "g14") if order == 1 else ("ex4.3",):
            del calls[:]
            with contextlib.redirect_stdout(io.StringIO()):
                main(["certify", "--example", example, *argv, "--max-word-len", "2"])
            assert calls and {args[0].order for args, _ in calls} == {order}


def test_image_models_map_from_the_first_roots_model(monkeypatch):
    # the test runs once per class of each first root; an image's model is
    # sigma_u of its first root's model
    tests = _counting(monkeypatch, "_is_mobius")
    loaded = build_group_example("g18p", order=6)
    models = [item.presentation._order2_model for item in loaded]
    assert len(tests) == len(set(loaded[0].presentation.classes))
    for item, model in zip(loaded, models):
        assert model.order == 2 and model.classes == item.presentation.classes
        assert [g.jet.row for g in model.gens] == [
            g.jet.truncate(2).row for g in item.presentation.gens
        ]
        if item.image_of is not None:
            assert model._galois_of[0] is models[item.image_of]
