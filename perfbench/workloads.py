"""The three benchmark workloads: their seeded inputs, their jobs and the
checks that every job's output is right.

A job is the user's unit of work: one ``germlin`` CLI command run through
``germlin.cli.main(argv)`` in-process, or one public API call on one
presentation or form.  Every job has a check, run outside the timed loop,
that returns ``None`` or a description of the mismatch.

Inputs come only from ``random.Random(seed)``; the program sees only the
generated inputs.  Each workload hands out its jobs in rounds; a round holds
every kind of job the workload has, in a seeded order, so that any whole
number of rounds has the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import germlin.cli
import germlin.linearizer
import germlin.pforms
from germlin.cyclotomic import zeta
from germlin.germs import Germ
from germlin.group_cert import GroupPresentation
from germlin.jets import Jet, jet_comp_inverse, jet_compose
from germlin.pforms import MultiPoly, PForm1
from germlin.registry import build_form_example, build_group_example

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _rounds(make_round: Callable[[], list[Job]]) -> Iterator[list[Job]]:
    """Rounds made on demand from the seeded generator; the first one is made
    at once, as part of set-up."""
    first = make_round()

    def rounds():
        yield first
        while True:
            yield make_round()

    return rounds()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One CLI command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = germlin.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cli_job(argv: list[str], expected: dict, known: Callable[[dict], Optional[str]]) -> Job:
    """A CLI job whose exit code and exact stdout must equal the stored
    capture, and whose parsed output must pass the known-answer check."""
    key = argv_key(argv)
    want = expected.get(key)

    def check(output) -> Optional[str]:
        if want is None:
            return "no expected output stored for this command"
        code, out, err = output
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        if out != want["stdout"]:
            return "stdout differs from the stored expected output"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        return known(json.loads(out))

    return Job(key, lambda: run_cli(argv), check)


# -- certify-families ----------------------------------------------------------------

# (example id, N, L, p): each job takes about 0.05-1 s at the seed commit on a
# 2-core Xeon.  The g-families run at N=4 because their cost is the number of
# pairs times the search, not the order: g14 and g18p already take 0.6-0.9 s
# there, and g14 at N=12, L=2 takes 11 s.  Fifteen jobs of distinct cost put
# the p50 and the p90 of whole rounds inside one job's samples (the 8th and
# the 2nd dearest), not on the edge between two.
CERTIFY_POOL = (
    ("ex4.1", 4, 2, None),
    ("ex4.1", 8, 2, None),
    ("ex4.1", 12, 3, None),
    ("ex4.1", 16, 4, None),
    ("g10", 4, 1, None),
    ("g12", 4, 2, None),
    ("g12p", 4, 1, None),
    ("g14", 4, 1, None),
    ("g18", 4, 2, None),
    ("g18p", 4, 1, None),
    ("ex4.3", 32, 8, 2),
) + tuple(("ex4.3", 48, 10, p) for p in (2, 3, 4, 5))

CERTIFY_POOL_TINY = (("ex4.1", 4, 2, None), ("ex4.3", 16, 6, 2))

CERTIFY_FAMILIES = ("ex4.1", "g10", "g12", "g12p", "g14", "g18", "g18p", "ex4.3")


def certify_argv(example: str, N: int, L: int, p: Optional[int]) -> list[str]:
    argv = ["certify", "--example", example, "--order", str(N), "--max-word-len", str(L)]
    if p is not None:
        argv += ["--p", str(p)]
    return argv


def _known_certify(example: str) -> Callable[[dict], Optional[str]]:
    def known(payload: dict) -> Optional[str]:
        if example == "ex4.1":
            if not payload["certified"]:
                return "ex4.1 must be certified"
            orders = {s["report"]["multiplier_order"] for s in payload["solutions"]}
            if orders != {6}:
                return f"ex4.1 multiplier orders {sorted(orders)}, expected 6"
        elif example == "ex4.3":
            if payload["certified"]:
                return "ex4.3 must not be certified"
            status = payload["solutions"][0]["report"]["conjugacy"]["(1,2)"]["status"]
            if status != "not-found-up-to":
                return f"ex4.3 pair (1,2) is {status}, expected not-found-up-to"
        return None

    return known


def certify_families(seed: int, tiny: bool = False) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    expected = load_expected("certify-families")
    pool = CERTIFY_POOL_TINY if tiny else CERTIFY_POOL
    # fill the scalar-field tables of every conductor the families use
    for example in CERTIFY_FAMILIES:
        build_group_example(example, order=2, p=2 if example == "ex4.3" else None)
    jobs = [
        cli_job(certify_argv(*entry), expected, _known_certify(entry[0]))
        for entry in pool
    ]

    def make_round() -> list[Job]:
        order = list(jobs)
        rng.shuffle(order)
        return order

    return _rounds(make_round)


# -- linearize-roundtrip -------------------------------------------------------------

ROUNDTRIP_ORDER = 32
ROUNDTRIP_ORDER_TINY = 8
ROUNDTRIP_MS = (2, 3, 4, 5, 8, 9)


def random_fraction(rng: random.Random, height: int = 9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))


@dataclass
class RoundTrip:
    """f = h o (zeta_m z) o h^-1 for a random rational h, as m equal generators."""

    m: int
    h: Jet
    presentation: GroupPresentation


def make_roundtrip(rng: random.Random, m: int, order: int) -> RoundTrip:
    coeffs = [0, 1] + [random_fraction(rng) for _ in range(5)]
    h = Jet(coeffs + [0] * (order + 1 - len(coeffs)), order=order)
    mu = zeta(m)
    rotated_inverse = Jet([mu * c for c in jet_comp_inverse(h).coeffs], order=order)
    f = Germ(jet_compose(h, rotated_inverse))
    return RoundTrip(m, h, GroupPresentation([f] * m, order=order))


def check_roundtrip(trip: RoundTrip, result) -> Optional[str]:
    """The linearizer's answer against the construction.

    H o f = zeta_m H holds iff G = H o h commutes with the rotation, that is,
    iff G has no term z^k with k != 1 (mod m).  The check composes jets and
    never calls the linearizer.
    """
    if result.outcome != "linearized":
        return f"outcome {result.outcome}, expected linearized"
    got = germlin.linearizer.group_order(result)
    if got != trip.m:
        return f"group_order {got}, expected {trip.m}"
    G = jet_compose(result.conjugator.jet, trip.h)
    bad = [k for k, c in enumerate(G.coeffs) if not c.is_zero and k % trip.m != 1]
    if bad:
        return f"H o f != zeta_{trip.m} H: H o h has a term z^{bad[0]}"
    return None


def _roundtrip_job(trip: RoundTrip) -> Job:
    return Job(
        f"linearize round trip m={trip.m}",
        lambda: germlin.linearizer.linearize(trip.presentation),
        lambda result: check_roundtrip(trip, result),
    )


def _known_linearize_ex41(payload: dict) -> Optional[str]:
    if payload["linearized"]:
        return "ex4.1 must not linearize"
    for sol in payload["solutions"]:
        result = sol["result"]
        if result["outcome"] != "obstruction" or result["steps"][-1]["k"] != 1:
            return "ex4.1 must obstruct at k = 1"
    return None


def linearize_roundtrip(seed: int, tiny: bool = False) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    expected = load_expected("linearize-roundtrip")
    order = ROUNDTRIP_ORDER_TINY if tiny else ROUNDTRIP_ORDER
    cli = cli_job(
        ["linearize", "--example", "ex4.1", "--order", str(order)],
        expected,
        _known_linearize_ex41,
    )
    build_group_example("ex4.1", order=2)

    def make_round() -> list[Job]:
        jobs = [_roundtrip_job(make_roundtrip(rng, m, order)) for m in ROUNDTRIP_MS]
        jobs.append(cli)
        rng.shuffle(jobs)
        return jobs

    return _rounds(make_round)


# -- forms-integrability -------------------------------------------------------------

NVARS = 4
VARIABLES = ("x", "y", "z", "w")
FORM_DEGREES = (4, 5, 6)
FORMS_PER_ROUND = 6  # of each kind


def _random_exponents(rng: random.Random, degree: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, degree) for _ in range(NVARS - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (degree,)))


def random_poly(rng: random.Random, low: int, high: int, nterms: int) -> MultiPoly:
    """At least one term of degree ``low``, the rest of degree low..high."""
    terms = {_random_exponents(rng, low): random_fraction(rng)}
    for _ in range(nterms - 1):
        terms[_random_exponents(rng, rng.randint(low, high))] = random_fraction(rng)
    return MultiPoly(NVARS, terms)


@dataclass
class RandomForm:
    """A 1-form whose verdicts are fixed by its construction.

    kind "quotient": omega = Q dP - P dQ with lowest degrees a != b of P, Q.
    It is integrable, P/Q is a meromorphic first integral, its tangent cone is
    (a - b) P_a Q_b and the blow-up multiplicity is a + b - 1.
    kind "contact": omega = g (dx_i - x_j dx_k) with g of lowest degree d.
    It is not integrable, P/Q (not constant) is no first integral, its tangent
    cone is x_i g_d and the blow-up multiplicity is d.
    """

    kind: str
    omega: PForm1
    P: MultiPoly
    Q: MultiPoly
    cone: MultiPoly
    multiplicity: int
    chart: str


def make_quotient_form(rng: random.Random, degree: int, tiny: bool) -> RandomForm:
    dq = rng.randint(1, degree // 2)
    dp = degree + 1 - dq
    a = rng.randint(1, dp)
    b = 0 if a == 1 else rng.randint(1, min(dq, a - 1))
    nterms = 3 if tiny else rng.randint(6, 10)
    P = random_poly(rng, a, dp, nterms)
    Q = random_poly(rng, b, dq, nterms)
    omega = PForm1(NVARS, [Q * P.partial(i) - P * Q.partial(i) for i in range(NVARS)])
    cone = P.homogeneous_part(a) * Q.homogeneous_part(b) * (a - b)
    return RandomForm("quotient", omega, P, Q, cone, a + b - 1, rng.choice(VARIABLES))


def make_contact_form(rng: random.Random, degree: int, tiny: bool) -> RandomForm:
    d = degree - 1 - rng.randint(0, 2)
    g = random_poly(rng, d, degree - 1, 3 if tiny else rng.randint(8, 16))
    i, j, k = rng.sample(range(NVARS), 3)
    coeffs = [MultiPoly.zero(NVARS)] * NVARS
    coeffs[i] = g
    coeffs[k] = -(MultiPoly.variable(NVARS, j) * g)
    P = random_poly(rng, 1, 3, 3)
    Q = random_poly(rng, 2, 3, 3)
    cone = MultiPoly.variable(NVARS, i) * g.homogeneous_part(d)
    return RandomForm("contact", PForm1(NVARS, coeffs), P, Q, cone, d, rng.choice(VARIABLES))


def _form_jobs(form: RandomForm) -> list[Job]:
    integrable = form.kind == "quotient"
    pf = germlin.pforms

    def expect(value, want, what):
        return None if value == want else f"{form.kind} form: {what} {value}, expected {want}"

    def check_cone(cone):
        if cone.dicritical:
            return f"{form.kind} form: dicritical, expected a tangent cone"
        return None if cone.cone == form.cone else f"{form.kind} form: wrong tangent cone"

    def check_pullback(out):
        return expect(out[0], form.multiplicity, "exceptional multiplicity")

    return [
        Job(
            f"integrability_check ({form.kind})",
            lambda: pf.integrability_check(form.omega),
            lambda v: expect(v, integrable, "integrable"),
        ),
        Job(
            f"meromorphic_first_integral_check ({form.kind})",
            lambda: pf.meromorphic_first_integral_check(form.omega, form.P, form.Q),
            lambda v: expect(v, integrable, "first integral"),
        ),
        Job(f"tangent_cone ({form.kind})", lambda: pf.tangent_cone(form.omega), check_cone),
        Job(
            f"blowup_chart_pullback ({form.kind})",
            lambda: pf.blowup_chart_pullback(form.omega, form.chart),
            check_pullback,
        ),
    ]


FORMS_CLI_TINY = (["forms", "integrable", "--example", "ex6.1", "--k", "2"],)


def forms_cli_argvs() -> list[list[str]]:
    argvs = []
    for k in range(2, 9):
        for sub in ("integrable", "cone", "kupka", "first-integral", "pullback"):
            argvs.append(["forms", sub, "--example", "ex6.1", "--k", str(k)])
    for sub in ("integrable", "cone", "first-integral"):
        argvs.append(["forms", sub, "--example", "ex6.2"])
    for chart in ("x", "y", "z"):
        argvs.append(["forms", "pullback", "--example", "ex6.2", "--chart", chart])
    return argvs


def _known_forms(payload: dict) -> Optional[str]:
    # ex6.1 and ex6.2 are integrable with a (meromorphic) first integral by
    # construction, and ex6.1 has a Kupka point at (0, 1, -1, 0)
    for key in ("integrable", "first_integral", "kupka"):
        if key in payload and payload[key] is not True:
            return f"{payload['input']}: {key} is {payload[key]}, expected true"
    return None


def forms_integrability(seed: int, tiny: bool = False) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    expected = load_expected("forms-integrability")
    argvs = list(FORMS_CLI_TINY) if tiny else forms_cli_argvs()
    cli_jobs = [cli_job(argv, expected, _known_forms) for argv in argvs]
    per_round = 1 if tiny else FORMS_PER_ROUND
    build_form_example("ex6.1", k=2)
    build_form_example("ex6.2")

    def make_round() -> list[Job]:
        jobs = list(cli_jobs)
        for _ in range(per_round):
            for make in (make_quotient_form, make_contact_form):
                jobs += _form_jobs(make(rng, rng.choice(FORM_DEGREES), tiny))
        rng.shuffle(jobs)
        return jobs

    return _rounds(make_round)


# workload name -> function(seed, tiny) that makes its seeded rounds of jobs
ROUNDS = {
    "certify-families": certify_families,
    "linearize-roundtrip": linearize_roundtrip,
    "forms-integrability": forms_integrability,
}

# Why each workload is in the benchmark, and which layers it should and
# should not move.  Printed into every result.
NOTES = {
    "certify-families": {
        "why": "the paper's main command: product identity plus bounded BFS "
        "for conjugators in the registry families ex4.1, g10..g18p and ex4.3 "
        "(p = 2..5); generators repeat values and roots form Galois orbits",
        "moves": "group_cert search, jets.right_compose, scalar mul at "
        "conductors 6-18; the tail is not-found-up-to pairs",
        "should_not_move": "pforms-only changes",
    },
    "linearize-roundtrip": {
        "why": "order-by-order conjugation of f = h o (zeta_m z) o h^-1 at "
        "N=32, m in {2,3,4,5,8,9}, plus the CLI linearize of ex4.1; no search",
        "moves": "linearizer, one-shot jet products and powers, one CycloElem "
        "division per conjugated order",
        "should_not_move": "search-only changes",
    },
    "forms-integrability": {
        "why": "the third pillar: integrability, first-integral, tangent-cone "
        "and blow-up checks on seeded random 4-variable forms of degree 4-6 "
        "and the bundled ex6.1 (k = 2..8) and ex6.2 through the CLI",
        "moves": "pforms: Fraction arithmetic in dict polynomials, wedge",
        "should_not_move": "every jet or cyclotomic scalar change",
    },
}
