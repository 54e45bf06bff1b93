"""The reduced-word search against a naive reference BFS.

The library searches over value-deduplicated letters, composes a node only
when it is popped or when its low-degree prefixes pass the witness filter,
and shares one search between all pairs (i, j) with equal values of f_i and
f_j; the oracle in ``oracles.naive_conjugator_search`` uses all 2m letters,
composes every word in full and shares nothing.  Both must return the same
words.
"""

import random
from fractions import Fraction

import pytest

import germlin.group_cert as group_cert
from germlin.affine import AffineMap, affine_compose, affine_conjugator_search, affine_inverse
from germlin.cyclotomic import cyclo_embed, zeta
from germlin.germs import Germ, Word
from germlin.group_cert import (
    GroupPresentation,
    certify,
    check_conjugacy_witness,
    search_conjugator,
)
from germlin.jets import Jet, RightComposer, jet_compose
from germlin.registry import build_group_example

from oracles import lagrange_inverse, naive_conjugator_search, random_fraction, random_jet


def _inverses(pres: GroupPresentation) -> list:
    return [lagrange_inverse(g.jet) for g in pres.gens]


def _oracle(pres: GroupPresentation, i: int, j: int, max_len: int, inverses=None):
    found = naive_conjugator_search(
        [g.jet for g in pres.gens],
        inverses or _inverses(pres),
        i,
        j,
        max_len,
        identity=Jet.identity(pres.order, pres.conductor),
        compose=jet_compose,
        key=Jet.key,
    )
    return None if found is None else Word(found)


def _oracle_conjugacy(pres: GroupPresentation, max_len: int) -> dict:
    """The conjugacy part of a report, with every search done by the oracle."""
    out = {}
    inverses = _inverses(pres)
    m = len(pres.gens)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            w = pres.witnesses.get((i, j))
            if w is None and (j, i) in pres.witnesses:
                w = pres.witnesses[(j, i)].inverse()
            if w is not None and check_conjugacy_witness(pres, i, j, w):
                out[f"({i},{j})"] = {"status": "verified-by-witness", "word": w.to_json()}
                continue
            found = _oracle(pres, i, j, max_len, inverses)
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
        inverses = _inverses(pres)
        for i, j in pairs:
            assert search_conjugator(pres, i, j, L) == _oracle(pres, i, j, L, inverses)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_presentations_match_oracle(seed):
    pres = _random_presentation(seed)
    L = 3
    inverses = _inverses(pres)
    # certify covers the pairs i < j
    for i in range(1, 7):
        for j in range(1, i + 1):
            assert search_conjugator(pres, i, j, L) == _oracle(pres, i, j, L, inverses)
    rep = certify(pres, L).to_json()
    assert rep["conjugacy"] == _oracle_conjugacy(pres, L)
    # the conjugate g f g^-1 and the repeated f make some words non-empty
    assert any(r.get("word") for r in rep["conjugacy"].values())


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_affine_search_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 6, 12])
    eta = zeta(n)
    base = [AffineMap(eta, cyclo_embed(random_fraction(rng, 3), n)) for _ in range(2)]
    gens = [base[0], base[1], base[0], affine_inverse(base[1]), AffineMap(eta ** 2, zeta(n))]
    rng.shuffle(gens)
    inverses = [affine_inverse(g) for g in gens]
    for i in range(1, len(gens) + 1):
        for j in range(1, len(gens) + 1):
            expected = naive_conjugator_search(
                gens,
                inverses,
                i,
                j,
                4,
                identity=AffineMap.identity(),
                compose=affine_compose,
                key=AffineMap.key,
            )
            found = affine_conjugator_search(gens, i, j, 4)
            assert found == (None if expected is None else Word(expected))


@pytest.mark.parametrize(
    "example, N, L, searches",
    [("g18p", 4, 1, 4), ("ex4.1", 12, 3, 4)],
)
def test_one_search_per_distinct_value_pair(monkeypatch, example, N, L, searches):
    calls = []
    original = group_cert.search_conjugator

    def counting(pres, i, j, max_len):
        calls.append((i, j))
        return original(pres, i, j, max_len)

    monkeypatch.setattr(group_cert, "search_conjugator", counting)
    for item in build_group_example(example, order=N):
        pres = item.presentation
        calls.clear()
        rep = certify(pres, L)
        keys = [g.jet.key() for g in pres.gens]
        unwitnessed = {
            (keys[i - 1], keys[j - 1])
            for (i, j), res in rep.conjugacy.items()
            if res.status != "verified-by-witness"
        }
        assert len(calls) == len(unwitnessed) == searches
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
    inverses = _inverses(pres)
    found = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            w = search_conjugator(pres, i, j, L)
            assert w == _oracle(pres, i, j, L, inverses)
            found.append(w)
    # g and r conjugate f to g f g^-1 and r f r^-1: some words are non-empty
    assert any(w for w in found)


def _counting_search(monkeypatch) -> dict:
    """Counts, over the searches that follow, of popped nodes (``key`` is
    asked once per pop), filter passes and full right compositions
    (``RightComposer.__call__``), and the values given the exact test."""
    counts = {"popped": 0, "passed": 0, "composed": 0, "exact": []}
    engine = group_cert.reduced_word_search

    def counting_engine(start, letters, key, may_be_witness, is_witness, max_len):
        def counted_key(value):
            counts["popped"] += 1
            return key(value)

        def counted_filter(sketch):
            passed = may_be_witness(sketch)
            counts["passed"] += passed
            return passed

        def counted_exact(value):
            counts["exact"].append(value)
            return is_witness(value)

        return engine(start, letters, counted_key, counted_filter, counted_exact, max_len)

    compose = RightComposer.__call__

    def counting_compose(self, w):
        counts["composed"] += 1
        return compose(self, w)

    monkeypatch.setattr(group_cert, "reduced_word_search", counting_engine)
    monkeypatch.setattr(RightComposer, "__call__", counting_compose)
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
        assert search_conjugator(pres, 1, 2, L) == _oracle(pres, 1, 2, L)
        assert f.jet in counts["exact"]
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
