"""Acceptance suite: every criterion runs at its stated (exact) tolerance and
prints one pass line; run with ``pytest tests/test_acceptance.py -v``."""

import random
import time
from fractions import Fraction
from math import factorial

from germlin.affine import lemma_predicate
from germlin.cyclotomic import cyclo_embed, root_of_unity_order, zeta
from germlin.expressions import scalar_from_string, series_from_string
from germlin.germs import Germ, Word, conjugate, identity_germ, iterate
from germlin.group_cert import (
    GroupPresentation,
    certify,
    check_conjugacy_witness,
    check_product_identity,
    search_conjugator,
)
from germlin.jets import Jet, jet_compose
from germlin.linearizer import (
    flat_case_check,
    group_order,
    linearize,
    phi_morphism,
    psi_morphism,
)
from germlin.pforms import (
    MultiPoly,
    PForm1,
    cone_matches_chart_pullback,
    exterior_d,
    first_integral_check,
    integrability_check,
    kupka_test,
    meromorphic_first_integral_check,
    radial_contraction,
    tangent_cone,
    wedge,
)
from germlin.registry import (
    build_form_example,
    build_group_example,
    default_parameter_sets,
    ex43_ambient_conjugator,
    ex43_iterate_expr,
)

from oracles import faa_di_bruno_derivative, random_fraction, random_jet


class _Clock:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"[acceptance] {self.name}: PASS in {elapsed:.2f}s (limit {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s ({elapsed:.2f}s)"


def test_criterion_1_first_family_certification():
    clock = _Clock("criterion 1: six-generator family certification", 10.0)
    loaded = build_group_example("ex4.1", order=32)
    assert len(loaded) == 2  # both primitive roots satisfying a = 1/(1-a)
    witness = Word.from_list([[1, 1], [5, 1], [1, 4]])
    for item in loaded:
        pres = item.presentation
        assert check_product_identity(pres)
        assert check_conjugacy_witness(pres, 5, 1, witness)
        report = certify(pres, max_len=8)
        assert report.product_ok
        assert report.multipliers_all_equal
        assert report.multiplier_order == 6
        assert report.theorem_a_applicable is False
        assert report.all_conjugacies_positive  # search resolves every pair
        assert report.conjugacy[(1, 5)].status == "verified-by-witness"
    clock.done()


def test_criterion_2_first_family_obstruction():
    clock = _Clock("criterion 2: six-generator family obstruction at k=1", 5.0)
    for item in build_group_example("ex4.1", order=32):
        a = item.scalars["a"]
        result = linearize(item.presentation)
        assert result.outcome == "obstruction"
        record = result.steps[-1]
        assert record.k == 1
        zero = cyclo_embed(0, 6)
        assert record.t == (zero, zero, zero, zero, -(a**4), cyclo_embed(-1, 6))
    clock.done()


def test_criterion_3_larger_families():
    clock = _Clock("criterion 3: ten-to-eighteen generator families", 60.0)
    constraints = {
        "g10": (10, "a^3 + a"),
        "g12": (12, "a"),
        "g12p": (12, "a^3 + a^2"),
        "g14": (14, "a^5 + a^3 + a"),
        "g18": (18, "a"),
        "g18p": (18, "a^5 + a^4 + a^3"),
    }
    for example_id, (conductor, lhs) in constraints.items():
        loaded = build_group_example(example_id, order=32)
        assert loaded
        for item in loaded:
            a = item.scalars["a"]
            assert (a**conductor).is_one
            lhs_value = scalar_from_string(lhs, {"a": a})
            rhs_value = scalar_from_string("1/(1 - a)", {"a": a})
            assert lhs_value == rhs_value
            assert check_product_identity(item.presentation)
            result = linearize(item.presentation)
            assert result.outcome == "obstruction", example_id
    clock.done()


def test_criterion_4_radical_pair():
    clock = _Clock("criterion 4: radical pair iterates and ambient conjugacy", 20.0)
    N = 24
    for p in (1, 2, 3):
        item = build_group_example("ex4.3", order=N, p=p)[0]
        f, finv = item.presentation.gens
        assert f * finv == identity_germ(N, f.conductor)
        for n in range(1, 11):
            closed = series_from_string(ex43_iterate_expr(p, n), {}, order=N)
            assert iterate(f, n).jet == closed
        h = ex43_ambient_conjugator(p, order=N)
        assert conjugate(h, finv) == f
        assert search_conjugator(item.presentation, 1, 2, 8) is None
    clock.done()


def test_criterion_5_randomized_round_trips():
    clock = _Clock("criterion 5: 100 randomized linearization round trips", 120.0)
    rng = random.Random(20260810)
    N = 32
    orders = (2, 3, 4, 5, 8, 9)
    successes = 0
    for trial in range(100):
        m = orders[trial % len(orders)]
        mu = zeta(m)
        coeffs = [Fraction(0), Fraction(1)] + [random_fraction(rng) for _ in range(5)]
        h = Germ(Jet(coeffs + [0] * (N + 1 - len(coeffs)), order=N))
        rotation = Germ(Jet([0, mu] + [0] * (N - 1), order=N))
        f = conjugate(h, rotation)
        pres = GroupPresentation([f] * m, order=N)
        result = linearize(pres)
        assert result.outcome == "linearized"
        H = result.conjugator
        # conjugation is a function of the jet value: verify each distinct
        # generator value once and pin every generator to a verified value
        verified = {}
        for g in pres.gens:
            key = g.jet.key()
            if key not in verified:
                verified[key] = conjugate(H, g)
            assert verified[key] == rotation
        assert group_order(result) == m == root_of_unity_order(mu)
        successes += 1
    assert successes == 100
    clock.done()


def test_criterion_6_flat_case():
    clock = _Clock("criterion 6: flat-case triviality", 30.0)
    N = 24
    trivial = GroupPresentation([identity_germ(N)] * 3, order=N)
    report = certify(trivial, max_len=4)
    assert report.certified
    assert flat_case_check(trivial).outcome == "flat_trivial"

    f = Germ(Jet([0, 1, 1] + [0] * (N - 2), order=N))
    pair = GroupPresentation([f, ~f], order=N)
    report_bad = certify(pair, max_len=6)
    assert report_bad.product_ok
    assert not report_bad.all_conjugacies_positive  # no in-group witness exists
    result = flat_case_check(pair)
    assert result.outcome == "flat_inconsistent"
    failing = result.steps[-1]
    assert failing.k == 1  # the order-2 coefficients +1 and -1 disagree
    assert failing.t[0] == 1 and failing.t[1] == -1
    clock.done()


def _random_admissible(rng, mu, k, order, conductor):
    coeffs = [cyclo_embed(0, conductor)] * (order + 1)
    coeffs[1] = mu
    for idx in range(k + 1, order + 1):
        coeffs[idx] = cyclo_embed(random_fraction(rng), conductor)
    return Germ(Jet(coeffs, order=order, conductor=conductor))


def test_criterion_7_morphism_suite():
    clock = _Clock("criterion 7: morphism suite and rigidity predicate", 60.0)
    rng = random.Random(14071789)
    N = 12
    divisors = {1: (1,), 2: (1, 2), 3: (1, 3), 4: (1, 2, 4), 6: (1, 2, 3, 6)}
    for _ in range(500):
        k = rng.choice((1, 2, 3, 4, 6))
        conductor = 12
        d1 = rng.choice(divisors[k])
        d2 = rng.choice(divisors[k])
        mu1 = zeta(12) ** (12 // d1)
        mu2 = zeta(12) ** (12 // d2)
        f = _random_admissible(rng, mu1, k, N, conductor)
        g = _random_admissible(rng, mu2, k, N, conductor)
        assert phi_morphism(f * g, k) == phi_morphism(f, k) + phi_morphism(g, k)
        psi_fg = psi_morphism(f * g, k)
        assert psi_fg == psi_morphism(f, k).compose(psi_morphism(g, k))
    for l in (4, 6, 8, 9, 12):
        distinct = [cyclo_embed(0, l), cyclo_embed(1, l)]
        # pairwise conjugate iff l has two prime divisors or the betas agree
        assert lemma_predicate(l, distinct) == (l in (6, 12))
        assert lemma_predicate(l, [cyclo_embed(1, l), cyclo_embed(1, l)])
    clock.done()


def test_criterion_8_chain_rule_consistency():
    clock = _Clock("criterion 8: composition vs chain-rule differentiation", 60.0)
    rng = random.Random(271828)
    N = 10
    for trial in range(200):
        conductor = 6 if trial % 5 == 0 else 1
        phi = random_jet(rng, N, conductor=conductor)
        psi = random_jet(rng, N, conductor=conductor, zero_constant=True)
        comp = jet_compose(phi, psi)
        for n in range(1, 11):
            direct = comp.coefficient(n) * factorial(n)
            assert faa_di_bruno_derivative(phi, psi, n) == direct
    clock.done()


def test_criterion_9_forms_suite():
    clock = _Clock("criterion 9: foliation forms suite", 30.0)
    x = MultiPoly.variable(4, 0)
    for k in (2, 3, 4):
        for params in default_parameter_sets(k):
            ex = build_form_example("ex6.1", k=k, params=params)
            omega, q = ex.omega, ex.mero_numerator
            assert radial_contraction(omega).is_zero
            lhs = exterior_d(q).scale(x) - PForm1(
                4, [q * (k + 1), MultiPoly.zero(4), MultiPoly.zero(4), MultiPoly.zero(4)]
            )
            assert omega == lhs
            assert exterior_d(omega) == wedge(exterior_d(q), PForm1.basis(4, 0)).scale(
                MultiPoly.constant(4, -(k + 2))
            )
            assert meromorphic_first_integral_check(omega, q, ex.mero_denominator)
            assert kupka_test(omega, (0, 1, -1, 0))

    ex62 = build_form_example("ex6.2")
    assert integrability_check(ex62.omega)
    cone = tangent_cone(ex62.omega)
    assert not cone.dicritical
    assert cone.cone == ex62.expected_cone
    assert first_integral_check(ex62.omega, ex62.first_integral)
    for chart in ("x", "y", "z"):
        assert cone_matches_chart_pullback(ex62.omega, chart)

    rng = random.Random(1618)
    for _ in range(200):
        p = MultiPoly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            p = p + MultiPoly.monomial(3, exps, random_fraction(rng))
        w = PForm1(
            3,
            [
                MultiPoly.monomial(3, (rng.randint(0, 2),) * 3, random_fraction(rng))
                + MultiPoly.constant(3, random_fraction(rng))
                for _ in range(3)
            ],
        )
        assert exterior_d(exterior_d(p)).is_zero
        assert exterior_d(exterior_d(w)).is_zero
        assert exterior_d(w.scale(p)) == wedge(exterior_d(p), w) + exterior_d(w).scale(p)
    clock.done()
