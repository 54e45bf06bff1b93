"""The reduced-word search against a naive reference BFS.

The library searches over value-deduplicated letters, composes a node only
when it is popped or when its low-degree prefixes pass the witness filter,
and grows one tree for all the goals (i, j) of a root, one goal per pair of
values of f_i and f_j; the oracle in ``oracles.naive_conjugator_search``
uses all 2m letters and composes every word in full; its searches on one
presentation share only the power tables of the jets they compose with.
Both must return the same words.
"""

import os
import random
from fractions import Fraction

import pytest

import germlin.group_cert as group_cert
from germlin.cyclotomic import CycloElem
from germlin.germs import Germ, Word, distinct_letters, reduced_word_search
from germlin.group_cert import (
    GroupPresentation,
    certify,
    check_conjugacy_witness,
    load_presentation_file,
    search_conjugator,
)
from germlin.jets import (
    Jet,
    RightComposer,
    _power_rows,
    _sparse_row,
    _substitute,
    jet_compose,
)
from germlin.registry import GROUP_EXAMPLES, build_group_example

from oracles import (
    lagrange_inverse,
    naive_classes,
    naive_conjugator_search,
    random_fraction,
    random_jet,
)
from test_golden import GOLDEN_DIR


def _oracle(pres: GroupPresentation):
    """The reference search on ``pres``: (i, j, max_len) -> the word of
    ``oracles.naive_conjugator_search``, or None.  Each composition f o g
    substitutes f into the power table of g (``_power_rows``, ``_substitute``,
    as ``jet_compose`` does), and one table per inner jet, keyed by its row,
    order and conductor, serves every search on ``pres``."""
    gens = [g.jet for g in pres.gens]
    inverses = [lagrange_inverse(g) for g in gens]
    identity = Jet.identity(pres.order, pres.conductor)
    tables: dict = {}

    def compose(f: Jet, g: Jet) -> Jet:
        key = (g.row, g.order, g.conductor)
        assert (f.order, f.conductor) == key[1:]
        rows = tables.get(key)
        if rows is None:
            rows = tables[key] = _power_rows(g.row, g.order, g.order, g.conductor)
        return Jet._of(_substitute(f.row, rows, g.order, g.conductor), g.order, g.conductor)

    def search(i: int, j: int, max_len: int):
        found = naive_conjugator_search(
            gens, inverses, i, j, max_len, identity=identity, compose=compose, key=Jet.key
        )
        return None if found is None else Word(found)

    return search


def _oracle_conjugacy(pres: GroupPresentation, max_len: int) -> dict:
    """The conjugacy part of a report, with every search done by the oracle."""
    out = {}
    oracle = _oracle(pres)
    m = len(pres.gens)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            w = pres.witnesses.get((i, j))
            if w is None and (j, i) in pres.witnesses:
                w = pres.witnesses[(j, i)].inverse()
            if w is not None and check_conjugacy_witness(pres, i, j, w):
                out[f"({i},{j})"] = {"status": "verified-by-witness", "word": w.to_json()}
                continue
            found = oracle(i, j, max_len)
            if found is None:
                out[f"({i},{j})"] = {"status": "not-found-up-to", "max_len": max_len}
            else:
                out[f"({i},{j})"] = {"status": "found-by-search", "word": found.to_json()}
    return out


def _random_presentation(seed: int, N: int = 5) -> GroupPresentation:
    """Repeated generators and inverse pairs: f, g, f^-1, g f g^-1, f, g^-1
    in a seeded order, with f tangent to the identity and g'(0) = -1."""
    rng = random.Random(seed)
    f = Germ(random_jet(rng, N, zero_constant=True, unit_linear=True))
    coeffs = [Fraction(0), Fraction(-1)] + [random_fraction(rng, 2) for _ in range(N - 1)]
    g = Germ(Jet(coeffs, order=N))
    gens = [f, g, ~f, g * f * ~g, f, ~g]
    rng.shuffle(gens)
    return GroupPresentation(gens, order=N)


@pytest.mark.parametrize("seed", range(6))
def test_classes_match_pairwise_equality(seed):
    # f twice among six generators: five classes, the second f in the first's
    pres = _random_presentation(seed)
    assert pres.classes == naive_classes([g.jet for g in pres.gens])
    assert len(set(pres.classes)) == 5


@pytest.mark.parametrize(
    "example, N, L, p",
    [
        ("ex4.1", 8, 3, None),
        ("g10", 4, 2, None),
        ("g18p", 4, 1, None),
        ("ex4.3", 16, 8, 2),
        ("ex4.3", 16, 8, 3),
    ],
)
def test_certify_matches_oracle(example, N, L, p):
    for item in build_group_example(example, order=N, p=p):
        rep = certify(item.presentation, L).to_json()
        assert rep["conjugacy"] == _oracle_conjugacy(item.presentation, L)


@pytest.mark.parametrize(
    "example, N, L, p, pairs",
    [
        ("ex4.1", 8, 3, None, [(1, 6), (6, 1), (5, 6), (6, 5), (2, 5), (1, 1)]),
        ("ex4.1", 4, 3, None, [(1, 5), (5, 1), (6, 2)]),
        ("g10", 4, 2, None, [(1, 9), (9, 10), (10, 1), (10, 9)]),
        ("g18p", 4, 2, None, [(1, 17), (17, 18), (18, 2)]),
        ("ex4.3", 16, 8, 2, [(1, 2), (2, 1), (2, 2)]),
        ("ex4.3", 12, 6, 3, [(1, 2), (2, 1)]),
    ],
)
def test_search_conjugator_matches_oracle(example, N, L, p, pairs):
    for item in build_group_example(example, order=N, p=p):
        pres = item.presentation
        oracle = _oracle(pres)
        for i, j in pairs:
            assert search_conjugator(pres, i, j, L) == oracle(i, j, L)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_presentations_match_oracle(seed):
    pres = _random_presentation(seed)
    L = 3
    oracle = _oracle(pres)
    # certify covers the pairs i < j
    for i in range(1, 7):
        for j in range(1, i + 1):
            assert search_conjugator(pres, i, j, L) == oracle(i, j, L)
    rep = certify(pres, L).to_json()
    assert rep["conjugacy"] == _oracle_conjugacy(pres, L)
    # the conjugate g f g^-1 and the repeated f make some words non-empty
    assert any(r.get("word") for r in rep["conjugacy"].values())


@pytest.mark.parametrize(
    "example, N, L, goals",
    [("g18p", 4, 1, 4), ("ex4.1", 12, 3, 4)],
)
def test_one_search_per_distinct_value_pair(monkeypatch, example, N, L, goals):
    # one tree per root, with one goal per distinct value pair
    trees = []
    original = group_cert._search_tree

    def counting(pres, pairs, max_len):
        trees.append(list(pairs))
        return original(pres, pairs, max_len)

    monkeypatch.setattr(group_cert, "_search_tree", counting)
    for item in build_group_example(example, order=N):
        pres = item.presentation
        trees.clear()
        rep = certify(pres, L)
        keys = [g.jet.key() for g in pres.gens]
        unwitnessed = {
            (keys[i - 1], keys[j - 1])
            for (i, j), res in rep.conjugacy.items()
            if res.status != "verified-by-witness"
        }
        assert len(trees) == 1
        assert {(keys[i - 1], keys[j - 1]) for i, j in trees[0]} == unwitnessed
        assert len(trees[0]) == len(unwitnessed) == goals
        # z/a, its inverse a z, and the last two generators with their inverses
        assert len(pres.letters()) == 6
        # f_1 = f_2 = z/a: one inverse serves both
        assert pres.inverse_generator(1) is pres.inverse_generator(2)


def _flat(rng: random.Random, k: int, N: int) -> Germ:
    """z + c z^(k+1) + random higher terms, c != 0: flat of tangency order k."""
    c = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    higher = [random_fraction(rng, 2) for _ in range(N - k - 1)]
    return Germ(Jet([0, 1] + [0] * (k - 1) + [c] + higher, order=N))


def _flat_presentation(seed: int, N: int = 5) -> GroupPresentation:
    """Flat f and g of tangency orders 3 and 2, r with multiplier -1, and the
    conjugates g f g^-1 and r f r^-1, in a seeded order."""
    rng = random.Random(seed)
    f, g = _flat(rng, 3, N), _flat(rng, 2, N)
    r = Germ(Jet([0, -1] + [random_fraction(rng, 2) for _ in range(N - 1)], order=N))
    gens = [f, g, r, g * f * ~g, r * f * ~r]
    rng.shuffle(gens)
    return GroupPresentation(gens, order=N)


@pytest.mark.parametrize("seed", [3, 4])
def test_flat_presentations_match_oracle(seed):
    # tangency orders k = 2, 3 give filter degrees K = 3, 4; r alone gives 2
    pres = _flat_presentation(seed)
    m = len(pres)
    degrees = {
        group_cert._filter_degree(pres.generator(i), pres.generator(j))
        for i in range(1, m + 1)
        for j in range(1, m + 1)
    }
    assert degrees == {2, 3, 4}
    L = 3
    oracle = _oracle(pres)
    found = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            w = search_conjugator(pres, i, j, L)
            assert w == oracle(i, j, L)
            found.append(w)
    # g and r conjugate f to g f g^-1 and r f r^-1: some words are non-empty
    assert any(w for w in found)


def _counting_search(monkeypatch) -> dict:
    """Counts, over the searches that follow, of popped nodes (``key`` is
    asked once per pop), filter passes of every goal and full right
    compositions (``RightComposer.compose``), and the values (rows) given
    the exact tests."""
    counts = {"popped": 0, "passed": 0, "composed": 0, "exact": []}
    engine = group_cert.reduced_word_search

    def counting_engine(start, letters, key, goals, max_len, inverse, value_of=None):
        def counted_key(value):
            counts["popped"] += 1
            return key(value)

        def counted_goal(may_be_witness, is_witness):
            def counted_filter(sketch):
                passed = may_be_witness(sketch)
                counts["passed"] += passed
                return passed

            def counted_exact(value):
                counts["exact"].append(value)
                return is_witness(value)

            return counted_filter, counted_exact

        goals = [counted_goal(*goal) for goal in goals]
        return engine(start, letters, counted_key, goals, max_len, inverse, value_of)

    compose = RightComposer.compose

    def counting_compose(self, w):
        counts["composed"] += 1
        return compose(self, w)

    monkeypatch.setattr(group_cert, "reduced_word_search", counting_engine)
    monkeypatch.setattr(RightComposer, "compose", counting_compose)
    return counts


def test_prefix_match_is_completed_exactly(monkeypatch):
    # f = z + z^3 and g = z + z^3 + z^5 are flat with k = 2, so K = 3.  At
    # the node h = f, f o f = z + 2z^3 + 3z^5 + .. and f o g = z + 2z^3 +
    # 4z^5 + .. agree through z^4: the filter passes and only the exact test
    # rejects the node.
    N = 6
    f = Germ(Jet([0, 1, 0, 1], order=N))
    g = Germ(Jet([0, 1, 0, 1, 0, 1], order=N))
    pres = GroupPresentation([f, g], order=N)
    assert group_cert._filter_degree(f, g) == 3
    assert jet_compose(f.jet, f.jet).coeffs[:5] == jet_compose(f.jet, g.jet).coeffs[:5]
    assert jet_compose(f.jet, f.jet) != jet_compose(f.jet, g.jet)
    pres.letters()
    counts = _counting_search(monkeypatch)
    for L in (1, 3):
        counts.update(passed=0, exact=[])
        assert search_conjugator(pres, 1, 2, L) == _oracle(pres)(1, 2, L)
        assert _sparse_row(f.jet.coeffs) in counts["exact"]
        assert len(counts["exact"]) == counts["passed"]


def test_one_full_composition_per_popped_node(monkeypatch):
    pres = build_group_example("g14", order=8)[0].presentation
    pres.letters()  # build the letters and their composers before counting
    counts = _counting_search(monkeypatch)
    assert search_conjugator(pres, 1, 13, 3) is None
    assert counts["composed"] <= counts["popped"] + counts["passed"]
    # 1 + 6 + 6 x 5 nodes are popped; the 150 children of length 3 are tested
    # by their prefixes only
    assert counts["popped"] == 37
    # at max_len 1 every child has length max_len and fails the filter, as
    # does the start node: nothing is composed
    counts.update(popped=0, passed=0, composed=0, exact=[])
    assert search_conjugator(pres, 1, 13, 1) is None
    assert counts == {"popped": 1, "passed": 0, "composed": 0, "exact": []}


def test_search_never_hashes_field_elements(monkeypatch):
    # nodes, their dedup keys and the exact test are rows of integers: once
    # the letters are built, no field element is hashed
    pres = build_group_example("ex4.1", order=8)[0].presentation
    cases = [(i, j, L) for i, j in ((1, 6), (5, 6), (2, 5), (1, 1)) for L in (1, 3)]
    oracle = _oracle(pres)
    expected = [oracle(i, j, L) for i, j, L in cases]
    assert None in expected and any(expected)
    pres.letters()

    def unhashable(self):
        raise AssertionError("CycloElem.__hash__ called")

    monkeypatch.setattr(CycloElem, "__hash__", unhashable)
    for (i, j, L), word in zip(cases, expected):
        assert search_conjugator(pres, i, j, L) == word
        if word is not None:
            assert check_conjugacy_witness(pres, i, j, word)


# -- one tree for many goals ----------------------------------------------------------


def _class_pairs(pres: GroupPresentation) -> list:
    """One (i, j) per ordered pair of classes, f_i = f_j included: the goals
    of a tree that holds every class on both sides of its sketch."""
    firsts = sorted(set(pres.classes))
    return [(a + 1, b + 1) for a in firsts for b in firsts]


def _assert_tree_matches_single_searches(pres, pairs, max_len) -> list:
    """Each goal's word in one tree equals the word of search_conjugator for
    its pair alone and that of the oracle, and passes the witness check.
    Where f_i = f_j that word is the empty word, without asking the oracle."""
    words = group_cert._search_tree(pres, pairs, max_len)
    oracle = _oracle(pres)
    assert len(words) == len(pairs)
    for (i, j), word in zip(pairs, words):
        assert word == search_conjugator(pres, i, j, max_len)
        if pres.classes[i - 1] == pres.classes[j - 1]:
            assert word == Word.empty()
        else:
            assert word == oracle(i, j, max_len)
        if word is not None:
            assert check_conjugacy_witness(pres, i, j, word)
    return words


@pytest.mark.parametrize("N", [2, 4, 16, 32])
@pytest.mark.parametrize("example", GROUP_EXAMPLES)
def test_tree_goals_match_single_searches_on_registry_examples(example, N):
    # the first root, and at N <= 4 also the last, except for ex4.3, whose
    # one root is rational.  The last root is a Galois image: the loader maps
    # its generators from the first root's, and certify never searches it,
    # so this case checks a tree with its own tables on mapped generators.
    # The oracle composes every word in full, so the families of 20 to 36
    # letters search one letter deep above N = 4.
    loaded = build_group_example(example, order=N)
    L = 3 if len(loaded[0].presentation.letters()) <= 6 else 1 if N > 4 else 2
    for item in (loaded[0], loaded[-1]) if N <= 4 else loaded[:1]:
        pres = item.presentation
        _assert_tree_matches_single_searches(pres, _class_pairs(pres), L)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_tree_goals_match_single_searches_on_ex43(p):
    # at order 12 the two generators are distinct for every p, and no word up
    # to length 4 conjugates one to the other
    pres = build_group_example("ex4.3", order=12, p=p)[0].presentation
    words = _assert_tree_matches_single_searches(pres, _class_pairs(pres), 4)
    assert words == [Word.empty(), None, None, Word.empty()]


@pytest.mark.parametrize("seed", [3, 4])
def test_tree_goals_of_three_filter_degrees_match_single_searches(seed):
    # one tree holds goals with K = 2, 3 and 4, and runs at K = 4 < N
    pres = _flat_presentation(seed)
    pairs = [(i, j) for i in range(1, len(pres) + 1) for j in range(1, len(pres) + 1)]
    degrees = {group_cert._filter_degree(pres.generator(i), pres.generator(j)) for i, j in pairs}
    assert degrees == {2, 3, 4}
    words = _assert_tree_matches_single_searches(pres, pairs, 3)
    assert any(words)


@pytest.mark.parametrize("name, L", [("involution_triple.json", 6), ("roundtrip3.json", 8)])
def test_tree_goals_match_single_searches_at_order_n(name, L):
    # neither Mobius nor symmetric: the tree runs at order N, with K = 2 < N
    for item in load_presentation_file(os.path.join(GOLDEN_DIR, name)):
        pres = item.presentation
        assert pres._model is None
        degrees = [group_cert._filter_degree(f, g) for f in pres.gens for g in pres.gens]
        assert max(degrees) < pres.order
        _assert_tree_matches_single_searches(pres, _class_pairs(pres), L)


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_goals_match_single_searches_on_random_presentations(seed):
    pres = _random_presentation(seed)
    pairs = [(i, j) for i in range(1, 7) for j in range(1, 7)]
    words = _assert_tree_matches_single_searches(pres, pairs, 3)
    assert any(words) and None in words


def _conjugates_presentation(N: int = 5) -> GroupPresentation:
    """f tangent to the identity, g and r with multipliers -1 and 2, and the
    conjugates of f by g, g r and g r g: the goals (4,1), (5,1) and (6,1)
    have witnesses of lengths 1, 2 and 3, and g and r are never conjugate,
    their multipliers differ."""
    rng = random.Random(11)
    f = Germ(random_jet(rng, N, zero_constant=True, unit_linear=True))
    g = Germ(Jet([0, -1] + [random_fraction(rng, 2) for _ in range(N - 1)], order=N))
    r = Germ(Jet([0, 2] + [random_fraction(rng, 2) for _ in range(N - 1)], order=N))
    return GroupPresentation(
        [f, g, r] + [h * f * ~h for h in (g, g * r, g * r * g)], order=N
    )


def test_tree_goals_resolve_at_different_depths(monkeypatch):
    pres = _conjugates_presentation()
    pairs = [(1, 1), (4, 1), (5, 1), (6, 1), (2, 3)]
    words = _assert_tree_matches_single_searches(pres, pairs, 3)
    assert [None if w is None else len(w) for w in words] == [0, 1, 2, 3, None]
    # at max_len 2 the tree is cut with (6,1) and (2,3) still open
    words = _assert_tree_matches_single_searches(pres, pairs, 2)
    assert [None if w is None else len(w) for w in words] == [0, 1, 2, None, None]
    # once its last goal resolves the tree stops: without (2,3), it pops no
    # more nodes than the search for (6,1) alone, and fewer than the tree cut
    # by max_len with (2,3) open
    pres.letters()
    counts = _counting_search(monkeypatch)
    popped = []
    for goals in ([(6, 1)], pairs[:4], pairs):
        counts["popped"] = 0
        assert group_cert._search_tree(pres, goals, 3)[3 if len(goals) > 1 else 0]
        popped.append(counts["popped"])
    assert popped[0] == popped[1] < popped[2]


def _cyclic_search(targets, max_len, *, exact_sketch=False):
    """The engine on Z/13 with the letters +-2 and +-5; the goal t asks for a
    word of value t.  The sketch is None, which no filter can rule out, or,
    with ``exact_sketch``, the value itself.  Returns the words and the
    (value, step) pairs that ``act`` composed."""
    n = 13
    composed = []

    def step(d):
        def act(h):
            composed.append((h, d))
            return (h + d) % n

        return act

    def advance(d):
        return (lambda v: (v + d) % n) if exact_sketch else (lambda v: None)

    letters = [
        ((idx, sign), step(sign * s), advance(sign * s))
        for idx, s in enumerate((2, 5), start=1)
        for sign in (1, -1)
    ]
    goals = [(lambda sketch: True, lambda h, t=t: h == t) for t in targets]
    words = reduced_word_search(
        (0, 0 if exact_sketch else None),
        letters,
        lambda h: h,
        goals,
        max_len,
        {(idx, sign): (idx, -sign) for (idx, sign), _, _ in letters},
        value_of=(lambda v: v) if exact_sketch else None,
    )
    return words, composed


def test_engine_composes_each_node_once_for_all_goals():
    # 0, 11 = -2, 7 = 2 + 5 and 1 = 5 - 2 - 2 lie at depths 0, 1, 2 and 3
    targets = [7, 0, 11, 1]
    words, composed = _cyclic_search(targets, 4)
    assert [len(w) for w in words] == [2, 0, 1, 3]
    singles = [_cyclic_search([t], 4) for t in targets]
    assert words == [w for (w,), _ in singles]
    # every filter passes, so each child is composed as it is generated, once
    # for all four goals, and never again when it is popped; the tree stops
    # with its last goal, where the search for 1 alone stops
    assert len(composed) == len(set(composed))
    assert composed == singles[3][1]
    # cut at max_len 2 with 1 still open: the whole tree to depth 2
    words, composed = _cyclic_search(targets, 2)
    assert [None if w is None else len(w) for w in words] == [2, 0, 1, None]
    assert len(composed) == len(set(composed)) == 4 + 4 * 3


def test_engine_reads_exact_sketches_and_composes_nothing():
    targets = [7, 0, 11, 1, 12]
    words, composed = _cyclic_search(targets, 3, exact_sketch=True)
    assert words == _cyclic_search(targets, 3)[0]
    assert composed == []


def test_tree_at_k_equal_n_composes_only_for_its_exact_tests(monkeypatch):
    # at N = 2 the filter degree is N: the row of h in a node's sketch is its
    # value, so the only full compositions are the h o f_j of the exact tests
    pres = build_group_example("ex4.1", order=2)[0].presentation
    pairs = _class_pairs(pres)
    degrees = {group_cert._filter_degree(pres.generator(i), pres.generator(j)) for i, j in pairs}
    assert degrees == {2}
    pres.letters()
    counts = _counting_search(monkeypatch)
    words = group_cert._search_tree(pres, pairs, 3)
    tree = dict(counts, exact=len(counts["exact"]))
    assert words == [search_conjugator(pres, i, j, 3) for i, j in pairs]
    assert None not in words and tree["popped"] > 1 and tree["exact"] >= len(pairs)
    assert tree["composed"] == tree["exact"] == tree["passed"]


# -- a letter is never followed by the letter of its inverse ---------------------------


def test_letter_map_names_each_letters_inverse():
    # values in Z/8: 4 is an involution, 2 and 6 are inverse, and so are 3
    # and 5; the third pair repeats the second, so it keeps no letter
    pairs = [(4, 4), (2, 6), (6, 2), (3, 5)]
    letters, inverse = distinct_letters(pairs, lambda v: v)
    assert letters == [((1, 1), 4), ((2, 1), 2), ((2, -1), 6), ((4, 1), 3), ((4, -1), 5)]
    assert inverse == {
        (1, 1): (1, 1),
        (2, 1): (2, -1),
        (2, -1): (2, 1),
        (4, 1): (4, -1),
        (4, -1): (4, 1),
    }


def _popping_engine(monkeypatch) -> list:
    """Wrap ``group_cert.reduced_word_search`` with a counting ``key``: the
    list gets one entry per popped node."""
    popped = []
    engine = group_cert.reduced_word_search

    def counting_engine(start, letters, key, goals, max_len, inverse, value_of=None):
        def counted_key(value):
            popped.append(value)
            return key(value)

        return engine(start, letters, counted_key, goals, max_len, inverse, value_of)

    monkeypatch.setattr(group_cert, "reduced_word_search", counting_engine)
    return popped


@pytest.mark.parametrize(
    "name, L, pops",
    [("involution_triple.json", 6, 34), ("repeated_letters.json", 4, 194)],
)
def test_tree_skips_a_letter_after_its_inverse_value(monkeypatch, name, L, pops):
    # involution_triple.json has three involution letters; repeated_letters.json
    # has one, -z, among seven letters.  The child h.l.l of an involution l
    # has the value of h, so the tree skips it: skipping only (i, -s) after
    # (i, s), it would pop 49 and 197 nodes.  The words are the oracle's
    (item,) = load_presentation_file(os.path.join(GOLDEN_DIR, name))
    pres = item.presentation
    model = pres._model or pres
    letters, inverse = model._letter_table()
    involutions = [letter for letter, _ in letters if inverse[letter] == letter]
    assert involutions and all(sign == 1 for _, sign in involutions)
    pairs = _class_pairs(model)
    popped = _popping_engine(monkeypatch)
    words = group_cert._search_tree(model, pairs, L)
    del popped[:]
    certify(pres, L)
    assert len(popped) == pops  # the pops of certify's one tree
    oracle = _oracle(model)
    for (i, j), word in zip(pairs, words):
        if model.classes[i - 1] != model.classes[j - 1]:
            assert word == oracle(i, j, L)
