import os
import random
from fractions import Fraction

import pytest

from germlin.affine import AffineMap, lemma_predicate
from germlin.cyclotomic import cyclo_embed, root_of_unity_order, solve_root_constraints, zeta
from germlin.expressions import series_from_string
from germlin.germs import Germ, conjugate, identity_germ
from germlin import linearizer
from germlin.group_cert import GroupPresentation, load_presentation_file
from germlin.jets import Jet, _row_coefficient, _row_coeffs
from germlin.linearizer import (
    flat_case_check,
    group_order,
    linearize,
    linearize_step,
    phi_morphism,
    psi_morphism,
)

from oracles import (
    full_row_conjugation,
    full_row_fold,
    lagrange_inverse,
    naive_poly_compose,
    random_fraction,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _germ(coeffs, order, conductor=1):
    return Germ(Jet(coeffs, order=order, conductor=conductor))


def _rotation(mu, order):
    return _germ([0, mu] + [0] * (order - 1), order)


def _admissible(rng, mu, k, order, conductor):
    """Random germ a z + b z^(k+1) + h.o.t. linear below order k+1."""
    coeffs = [cyclo_embed(0, conductor)] * (order + 1)
    coeffs[1] = mu
    for idx in range(k + 1, order + 1):
        coeffs[idx] = cyclo_embed(random_fraction(rng), conductor)
    return Germ(Jet(coeffs, order=order, conductor=conductor))


def test_phi_morphism_examples():
    N = 12
    mu = zeta(4)
    assert phi_morphism(_rotation(mu, N), 4).is_zero
    rng = random.Random(1)
    k = 4
    f = _admissible(rng, mu, k, N, 4)
    g = _admissible(rng, mu, k, N, 4)
    assert phi_morphism(f * g, k) == phi_morphism(f, k) + phi_morphism(g, k)
    with pytest.raises(ValueError):
        phi_morphism(f, 3)  # mu^3 != 1
    bad = _germ([0, mu, 5] + [0] * (N - 2), N)
    with pytest.raises(ValueError):
        phi_morphism(bad, 4)  # not linear below order 5


def test_phi_sum_vanishes_on_product_relations():
    # generators with f_{nu+1} = (f_1 o ... o f_nu)^(-1) satisfy the identity,
    # so the additive invariants must sum to zero
    rng = random.Random(5)
    N = 12
    mu = zeta(2)
    k = 4
    gens = [_admissible(rng, mu, k, N, 2) for _ in range(3)]
    prod = gens[0] * gens[1] * gens[2]
    gens.append(~prod)
    total = cyclo_embed(0, 2)
    for g in gens:
        total = total + phi_morphism(g, k)
    assert total.is_zero


def test_psi_morphism_examples():
    N = 12
    mu = zeta(4)
    k = 3
    assert psi_morphism(_rotation(mu, N), k) == AffineMap(mu ** (-k), cyclo_embed(0, 4))
    rng = random.Random(7)
    f = _admissible(rng, mu, k, N, 4)
    g = _admissible(rng, mu, k, N, 4)
    assert psi_morphism(f * g, k) == psi_morphism(f, k).compose(psi_morphism(g, k))


def test_linearize_step_all_zero():
    N = 10
    mu = zeta(3)
    gens = [_rotation(mu, N)] * 3
    conj, rec = linearize_step(gens, 1)
    assert conj is None and rec.action == "all-zero"
    assert rec.branch == "mu_power_nonidentity"


def test_linearize_step_conjugates_equal_tails():
    N = 12
    mu = zeta(4)
    k = 2
    rng = random.Random(11)
    c = cyclo_embed(Fraction(3, 7), 4)
    gens = []
    for _ in range(3):
        g = _admissible(rng, mu, k, N, 4)
        coeffs = list(g.jet.coeffs)
        coeffs[k + 1] = c
        gens.append(Germ(Jet(coeffs, order=N, conductor=4)))
    conj, rec = linearize_step(gens, k)
    assert rec.action == "conjugated"
    assert conj is not None
    expected = c / (mu - mu ** (k + 1))
    assert conj.jet.coefficient(k + 1) == expected
    for g in gens:
        after = conjugate(conj, g)
        for idx in range(2, k + 2):
            assert after.coefficient(idx).is_zero


def test_linearize_step_obstruction_on_unequal_tails():
    N = 8
    mu = zeta(4)
    a = _germ([0, mu, 1] + [0] * (N - 2), N)
    b = _germ([0, mu, 2] + [0] * (N - 2), N)
    conj, rec = linearize_step([a, b], 1)
    assert conj is None and rec.action == "obstruction"
    assert rec.t == (cyclo_embed(1, 4), cyclo_embed(2, 4))


def test_linearize_step_identity_branch():
    N = 8
    mu = zeta(2)  # mu^2 = 1
    a = _germ([0, mu, 0, 5] + [0] * (N - 3), N)
    conj, rec = linearize_step([a, a], 2)
    assert conj is None and rec.action == "obstruction"
    assert rec.branch == "mu_power_identity"
    assert rec.phi_sum == (5 / mu) * 2


def test_linearize_already_linear():
    N = 16
    mu = zeta(5)
    pres = GroupPresentation([_rotation(mu, N)] * 5, order=N)
    res = linearize(pres)
    assert res.outcome == "linearized"
    assert res.conjugator == identity_germ(N, res.conjugator.conductor)
    assert group_order(res) == 5


def test_linearize_constructed_finite_group():
    N = 32
    mu = zeta(8)
    h = _germ([0, 1, 1, 0, 0, 3] + [0] * (N - 5), N, conductor=8)
    f = conjugate(h, _rotation(mu, N))
    pres = GroupPresentation([f] * 8, order=N)
    res = linearize(pres)
    assert res.outcome == "linearized"
    H = res.conjugator
    target = _rotation(mu, N)
    for g in pres.gens:
        assert conjugate(H, g) == target
    assert group_order(res) == 8
    # step preservation: after each conjugated step the held order grows
    for rec in res.steps:
        assert rec.action in ("all-zero", "conjugated")


def test_linearize_obstruction_first_family():
    N = 16
    for a in solve_root_constraints(6, ["a = 1/(1 - a)"]):
        env = {"a": a}
        gens = [
            Germ(series_from_string(e, env, order=N))
            for e in ["z/a"] * 4 + ["z/(a + z)", "z/(a - a^5*z)"]
        ]
        pres = GroupPresentation(gens, order=N)
        res = linearize(pres)
        assert res.outcome == "obstruction"
        rec = res.steps[-1]
        assert rec.k == 1 and rec.branch == "mu_power_nonidentity"
        zero = cyclo_embed(0, 6)
        assert rec.t == (zero, zero, zero, zero, -(a**4), cyclo_embed(-1, 6))
        assert group_order(res) is None


def test_obstruction_lemma_crosscheck():
    # at the first-family obstruction the affine images have linear part of
    # order 6 = 2*3, so the rigidity predicate says witnesses exist
    N = 16
    a = solve_root_constraints(6, ["a = 1/(1 - a)"])[0]
    env = {"a": a}
    gens = [
        Germ(series_from_string(e, env, order=N))
        for e in ["z/a"] * 4 + ["z/(a + z)", "z/(a - a^5*z)"]
    ]
    k = 1
    images = [psi_morphism(g, k) for g in gens]
    eta = gens[0].multiplier ** (-k)
    l = root_of_unity_order(eta)
    assert l == 6
    betas = [m.translation for m in images]
    assert lemma_predicate(l, betas)


def test_flat_trivial_and_inconsistent():
    N = 16
    pres = GroupPresentation([identity_germ(N), identity_germ(N)], order=N)
    res = flat_case_check(pres)
    assert res.outcome == "flat_trivial"
    assert group_order(res) == 1

    f = _germ([0, 1, 1] + [0] * (N - 2), N)
    pres_bad = GroupPresentation([f, ~f], order=N)
    res_bad = linearize(pres_bad)
    assert res_bad.outcome == "flat_inconsistent"
    rec = res_bad.steps[-1]
    assert rec.k == 1  # the coefficients of z^2 disagree: +1 vs -1
    assert rec.t[0] == 1 and rec.t[1] == -1
    with pytest.raises(ValueError):
        flat_case_check(GroupPresentation([_rotation(zeta(3), N)] * 3, order=N))


def test_flat_passing_presentations_are_trivial():
    # multiplier-1 presentations built to satisfy the product identity with
    # equal generators: only the identity tuple survives the scan
    N = 12
    pres = GroupPresentation([identity_germ(N)] * 4, order=N)
    assert flat_case_check(pres).outcome == "flat_trivial"


def test_group_order_values():
    N = 12
    for m in (4, 9):
        pres = GroupPresentation([_rotation(zeta(m), N)] * m, order=N)
        res = linearize(pres)
        assert res.outcome == "linearized"
        assert group_order(res) == m


def test_linearize_requires_equal_multipliers():
    N = 8
    pres = GroupPresentation(
        [_rotation(zeta(3), N), _rotation(zeta(3) ** 2, N)], order=N
    )
    with pytest.raises(ValueError):
        linearize(pres)


def test_partial_conjugator_on_late_obstruction():
    # one successful step, then an obstruction: the partial conjugator must
    # hold the generators linear through the order it cleared
    N = 10
    mu = zeta(4)
    a = _germ([0, mu, 1, 2] + [0] * (N - 3), N)
    b = _germ([0, mu, 1, 5] + [0] * (N - 3), N)
    pres = GroupPresentation([a, b], order=N)
    res = linearize(pres)
    assert res.outcome == "obstruction"
    assert [rec.action for rec in res.steps] == ["conjugated", "obstruction"]
    assert res.steps[-1].k == 2
    H = res.conjugator
    assert H is not None and H != identity_germ(N, H.conductor)
    for g in pres.gens:
        assert conjugate(H, g).coefficient(2).is_zero


def test_linearize_records_match_step_operation():
    N = 10
    mu = zeta(4)
    gens = [_germ([0, mu, 1] + [0] * (N - 2), N) for _ in range(2)]
    conj, rec = linearize_step(gens, 1)
    assert rec.action == "conjugated" and conj is not None
    res = linearize(GroupPresentation(gens, order=N))
    assert res.steps[0].to_json() == rec.to_json()


@pytest.mark.parametrize(
    "classes, outcome, conjugated",
    [
        # equal through z^4, unequal at z^5: conjugated at k = 1, 2, 3, then
        # an obstruction at k = 4 (mu^4 != 1)
        ((0, 1, 0, 0, 1), "obstruction", [1, 2, 3]),
        # one round trip f = h o (zeta_5 z) o h^-1, three times; mu^5 = 1 at k = 5
        ((0, 0, 0), "linearized", [1, 2, 3, 4, 6]),
    ],
)
def test_scan_conjugates_one_jet_per_class(monkeypatch, classes, outcome, conjugated):
    N = 7
    mu = zeta(5)
    if outcome == "obstruction":
        f = _germ([0, mu, 1, 1, 1, 1], N, 5)
        g = _germ([0, mu, 1, 1, 1, 2], N, 5)
        gens = [(f, g)[c] for c in classes]
    else:
        h = _germ([0, 1, 1, -2, 3], N)
        gens = [conjugate(h, _rotation(mu, N))] * 3
    pres = GroupPresentation(gens, order=N)
    assert pres.classes == classes
    res, calls = _linearize_with_steps(monkeypatch, pres)
    assert res.outcome == outcome
    steps = [rec.k for rec in res.steps if rec.action == "conjugated"]
    assert steps == conjugated
    assert sorted(k for k, _, _ in calls) == sorted(steps * len(set(classes)))
    # the t-vector still has one entry per generator
    assert all(len(rec.t) == len(gens) for rec in res.steps)


def test_result_serialization():
    N = 10
    mu = zeta(4)
    pres = GroupPresentation([_rotation(mu, N)] * 4, order=N)
    res = linearize(pres)
    data = res.to_json()
    assert data["outcome"] == "linearized"
    assert isinstance(data["steps"], list) and len(data["steps"]) == N - 1
    assert data["conjugator"][1] == "1"


# -- the scan against naive composition ------------------------------------------


def _round_trip(rng, m, N):
    """f = h o (zeta_m z) o h^-1 for a random rational h, as two equal generators."""
    h = _germ([0, 1] + [random_fraction(rng) for _ in range(3)], N)
    f = conjugate(h, _rotation(zeta(m), N))
    return GroupPresentation([f, f], order=N)


def _linearize_with_steps(monkeypatch, pres):
    """linearize(pres) plus every (k, g, h_k o g o h_k^-1) the scan computed,
    with the rows it conjugated turned into jets."""
    calls = []
    conjugate_step = linearizer._conjugate_by_elementary
    N, n = pres.order, pres.conductor

    def spy(g, k, *args):
        x = conjugate_step(g, k, *args)
        calls.append((k, *(Jet(_row_coeffs(row, N, n), order=N, conductor=n) for row in (g, x))))
        return x

    monkeypatch.setattr(linearizer, "_conjugate_by_elementary", spy)
    return linearize(pres), calls


def _check_scan_against_oracles(monkeypatch, pres, max_k):
    """The conjugator is the naive fold of the step conjugators that
    linearize_step gives on the scan's generators, and every conjugated
    generator with k <= max_k is h o g o h^-1 by naive composition and
    Lagrange inversion."""
    res, calls = _linearize_with_steps(monkeypatch, pres)
    N, n = pres.order, pres.conductor
    orders = sorted({k for k, _, _ in calls})
    assert orders == [rec.k for rec in res.steps if rec.action == "conjugated"]
    current = {g.jet.key() for g in pres.gens}
    H = Jet.identity(N, n)  # folded newest first: H o h_k
    for k in orders:
        step = [(g, x) for kk, g, x in calls if kk == k]
        assert {g.key() for g, _ in step} == current  # the calls chain step to step
        current = {x.key() for _, x in step}
        h, rec = linearize_step([Germ(g) for g, _ in step], k)
        scanned = res.steps[k - 1]  # its t holds one entry per generator, not per value
        assert (rec.k, rec.branch, rec.action) == (k, scanned.branch, scanned.action)
        assert set(rec.t) == set(scanned.t)
        if k <= max_k:
            h_inv = lagrange_inverse(h.jet)
            for g, x in step:
                assert x == naive_poly_compose(naive_poly_compose(h.jet, g), h_inv)
    for k in reversed(orders):
        h, _ = linearize_step([Germ(g) for kk, g, _ in calls if kk == k], k)
        H = naive_poly_compose(H, h.jet)
    assert res.conjugator.jet == H
    return res


@pytest.mark.parametrize(
    "m, N",
    [(m, N) for N in (16, 24) for m in (2, 3, 4, 5, 8, 9)] + [(m, 16) for m in (6, 10, 18)],
)
def test_scan_matches_naive_composition_on_round_trips(monkeypatch, m, N):
    # at N = 24 the naive h o g needs the untruncated power g^(k+1), about
    # (k+1)^2 N^2 products, so the per-step check stops at k = (N-1)/3, the
    # last order where g^(k+1) needs the square of g - mu*z; the fold covers
    # every order.  Multipliers of order 6, 10 and 18, the oracle conductors
    # the other cases miss, run at N = 16 only, to bound the test time
    pres = _round_trip(random.Random(100 * N + m), m, N)
    max_k = N if N <= 16 else (N - 1) // 3
    res = _check_scan_against_oracles(monkeypatch, pres, max_k)
    assert res.outcome == "linearized"
    assert group_order(res) == m


def test_scan_matches_naive_composition_on_obstruction_file(monkeypatch):
    # the golden obstruction file read at N = 16: the z^12 term still stops
    # the scan at k = 11 after seven conjugated orders
    path = os.path.join(GOLDEN_DIR, "roundtrip3_obstruction.json")
    for loaded in load_presentation_file(path, order=16):
        res = _check_scan_against_oracles(monkeypatch, loaded.presentation, 16)
        assert res.outcome == "obstruction" and res.steps[-1].k == 11
        assert [rec.k for rec in res.steps if rec.action == "conjugated"] == [
            1, 2, 4, 5, 7, 8, 10,
        ]


# -- the step against the full-row step ------------------------------------------


def _check_steps_against_full_rows(monkeypatch, pres):
    """Every conjugated row is the full-row step's, with c from the row's own
    t and mu, and H is the full-row fold of those steps."""
    conjugate_step = linearizer._conjugate_by_elementary
    steps = {}

    def spy(g, k, coef, cell, N, n):
        y = conjugate_step(g, k, coef, cell, N, n)
        mu, t = _row_coefficient(g, 1, n), _row_coefficient(g, k + 1, n)
        c = t / (mu - mu ** (k + 1))
        assert steps.setdefault(k, c) == c  # one conjugator per order
        assert y == full_row_conjugation(g, k, c, N, n)
        return y

    monkeypatch.setattr(linearizer, "_conjugate_by_elementary", spy)
    res = linearize(pres)
    assert sorted(steps) == [rec.k for rec in res.steps if rec.action == "conjugated"]
    fold = full_row_fold(sorted(steps.items()), pres.order, pres.conductor)
    assert res.conjugator.jet.row == fold
    return res


@pytest.mark.parametrize("N", [16, 32, 48])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 10, 18])
def test_step_equals_full_row_step_on_round_trips(monkeypatch, m, N):
    pres = _round_trip(random.Random(7 * N + m), m, N)
    res = _check_steps_against_full_rows(monkeypatch, pres)
    assert res.outcome == "linearized" and group_order(res) == m


def test_step_equals_full_row_step_on_two_classes(monkeypatch):
    # f = h o R o h^-1 and g = h o (R + z^N) o h^-1 for the rotation R by
    # zeta_5: two classes that agree below z^N, so every order up to N - 2
    # conjugates both rows, late ones included, and N - 1 is an obstruction
    N = 32
    rng = random.Random(3)
    h = _germ([0, 1] + [random_fraction(rng) for _ in range(3)], N)
    R = _rotation(zeta(5), N)
    bent = Germ(Jet([0, zeta(5)] + [0] * (N - 2) + [1], order=N, conductor=5))
    pres = GroupPresentation([conjugate(h, R), conjugate(h, bent)], order=N)
    assert pres.classes == (0, 1)
    res = _check_steps_against_full_rows(monkeypatch, pres)
    assert res.outcome == "obstruction" and res.steps[-1].k == N - 1
    assert max(rec.k for rec in res.steps if rec.action == "conjugated") > (N - 1) // 2


@pytest.mark.parametrize("N", [16, 32])
def test_step_equals_full_row_step_on_obstruction_file(monkeypatch, N):
    path = os.path.join(GOLDEN_DIR, "roundtrip3_obstruction.json")
    for loaded in load_presentation_file(path, order=N):
        res = _check_steps_against_full_rows(monkeypatch, loaded.presentation)
        assert res.outcome == "obstruction"


def test_step_copies_the_degrees_it_does_not_change(monkeypatch):
    # degrees k+2 .. 2k are copied, degree k+1 is dropped, and a step with
    # 2k + 1 > N makes no kernel call
    N = 16
    conjugate_step = linearizer._conjugate_by_elementary
    kernel = linearizer._weighted_sum
    calls, late = [0], []

    def counting(*args):
        calls[0] += 1
        return kernel(*args)

    def spy(g, k, *args):
        before = calls[0]
        y = conjugate_step(g, k, *args)
        middle = [e for e in g if k + 2 <= e[0] <= 2 * k]
        assert [e for e in y if e[0] <= 2 * k] == [g[0]] + middle
        if 2 * k + 1 > N:
            assert calls[0] == before and y == (g[0],) + tuple(middle)
            late.append(k)
        return y

    monkeypatch.setattr(linearizer, "_weighted_sum", counting)
    monkeypatch.setattr(linearizer, "_conjugate_by_elementary", spy)
    res = linearize(_round_trip(random.Random(5), 3, N))
    assert res.outcome == "linearized"
    assert late and min(late) == (N + 1) // 2
