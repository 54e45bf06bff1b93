"""Order-by-order linearization of germ-group presentations.

Given generators that share a multiplier mu, the algorithm walks the orders
k = 1 .. N-1 keeping every generator equal to mu*z through order k and
inspecting the coefficients t_i of z^(k+1):

* if mu^k = 1 the only way forward is t_i = 0 for all i; otherwise the step
  is an obstruction (reported with the additive-morphism sum of t_i/mu as a
  diagnostic),
* if mu^k != 1 and all the t_i agree, conjugating every generator by
  h_k(z) = z + c_k z^(k+1), c_k = t_1/(mu - mu^(k+1)), clears the order;
  unequal t_i are an obstruction.

The branch condition is mu^k = 1 exactly (the hypothesis the additive
morphism needs), recorded per step so coarser divisibility conditions can be
audited.

The scan never reads the accumulated conjugator, so it only records each
conjugated step (k, c_k).  When the scan returns, on the linearized and on the
obstruction path, H = h_K o ... o h_1 is built once: starting from z, right
composition by each h_k, newest first.  Right composition by h_k needs no jet
product, because the powers of h_k are binomials,
h_k^e = sum_i C(e,i) c_k^i z^(e + ik).  Composition of jets with zero constant
term is exactly associative, so H equals the jet that accumulating
H <- h_k o H would give.  A "linearized" outcome means conjugation by H maps
every generator to mu*z.

An obstruction certifies only that this algorithm halts on this presentation
at this order; it is not a proof about the abstract group.

For multiplier exactly 1 ("flat" generators), the same scan degenerates to
checking that each next coefficient vanishes; a presentation whose generators
are not the identity is reported flat_inconsistent at the first bad order
(such input cannot carry valid in-group witnesses together with the product
identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Optional, Sequence

from .affine import AffineMap
from .cyclotomic import (
    CycloElem,
    _sum_of_products,
    cyclo_embed,
    format_scalar,
    root_of_unity_order,
)
from .germs import Germ
from .group_cert import GroupPresentation
from .jets import Jet, _power_sum, _zero

__all__ = [
    "StepRecord",
    "LinearizationResult",
    "phi_morphism",
    "psi_morphism",
    "linearize_step",
    "linearize",
    "flat_case_check",
    "group_order",
]

BRANCH_IDENTITY = "mu_power_identity"
BRANCH_NONIDENTITY = "mu_power_nonidentity"

ACTION_ALL_ZERO = "all-zero"
ACTION_CONJUGATED = "conjugated"
ACTION_OBSTRUCTION = "obstruction"

OUTCOME_LINEARIZED = "linearized"
OUTCOME_OBSTRUCTION = "obstruction"
OUTCOME_FLAT_TRIVIAL = "flat_trivial"
OUTCOME_FLAT_INCONSISTENT = "flat_inconsistent"


def _require_linear_below(f: Germ, k: int, what: str):
    for idx in range(2, k + 1):
        if not f.coefficient(idx).is_zero:
            raise ValueError(f"{what} requires a germ linear below order {k + 1}")


def phi_morphism(f: Germ, k: int) -> CycloElem:
    """The additive invariant b/a of f = a z + b z^(k+1) + h.o.t.

    Requires a^k = 1 (which makes the map a morphism into (C, +)) and f linear
    below order k+1.
    """
    a = f.multiplier
    if not (a**k).is_one:
        raise ValueError("phi_morphism requires multiplier^k = 1")
    _require_linear_below(f, k, "phi_morphism")
    return f.coefficient(k + 1) / a


def psi_morphism(f: Germ, k: int) -> AffineMap:
    """The affine invariant z -> (a z + b)/a^(k+1) of f = a z + b z^(k+1) + h.o.t.

    A morphism into the affine group for any invertible multiplier.
    """
    _require_linear_below(f, k, "psi_morphism")
    a = f.multiplier
    b = f.coefficient(k + 1)
    return AffineMap(a ** (-k), b / a ** (k + 1))


@dataclass(frozen=True)
class StepRecord:
    k: int
    t: tuple[CycloElem, ...]
    branch: str  # mu_power_identity iff mu^k = 1
    action: str  # all-zero | conjugated | obstruction
    phi_sum: Optional[CycloElem] = None  # diagnostic in the identity branch

    def to_json(self) -> dict:
        out = {
            "k": self.k,
            "t": [format_scalar(c) for c in self.t],
            "branch": self.branch,
            "action": self.action,
        }
        if self.phi_sum is not None:
            out["phi_sum"] = format_scalar(self.phi_sum)
        return out


@dataclass
class LinearizationResult:
    outcome: str
    final_multiplier: CycloElem
    steps: list[StepRecord]
    conjugator: Optional[Germ]  # composition of all step conjugators

    @property
    def succeeded(self) -> bool:
        return self.outcome in (OUTCOME_LINEARIZED, OUTCOME_FLAT_TRIVIAL)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "multiplier": format_scalar(self.final_multiplier),
            "steps": [s.to_json() for s in self.steps],
            "conjugator": None
            if self.conjugator is None
            else [format_scalar(c) for c in self.conjugator.jet.coeffs],
        }


def _step(
    k: int, t: tuple[CycloElem, ...], mu: CycloElem, mu_k: CycloElem
) -> tuple[Optional[CycloElem], StepRecord]:
    """One order from the t-vector, mu and mu^k: the constant c of the step
    conjugator z + c z^(k+1) (None if no conjugation) and the step record."""
    identity_branch = mu_k.is_one
    branch = BRANCH_IDENTITY if identity_branch else BRANCH_NONIDENTITY
    if all(c.is_zero for c in t):
        return None, StepRecord(k, t, branch, ACTION_ALL_ZERO)
    if identity_branch:
        phi_sum = sum((c / mu for c in t), cyclo_embed(0, mu.n))
        return None, StepRecord(k, t, branch, ACTION_OBSTRUCTION, phi_sum=phi_sum)
    first = t[0]
    if all(c == first for c in t[1:]):
        return first / (mu - mu * mu_k), StepRecord(k, t, branch, ACTION_CONJUGATED)
    return None, StepRecord(k, t, branch, ACTION_OBSTRUCTION)


def _elementary(k: int, c: CycloElem, order: int, conductor: int) -> Jet:
    """The step conjugator z + c z^(k+1)."""
    coeffs = [0] * (order + 1)
    coeffs[1] = 1
    coeffs[k + 1] = c
    return Jet(coeffs, order=order, conductor=conductor)


def linearize_step(
    gens: Sequence[Germ], k: int
) -> tuple[Optional[Germ], StepRecord]:
    """One order of the algorithm on generators already linear to order k.

    Returns the step conjugator (None when no conjugation is needed or
    possible) together with the step record.
    """
    mu = gens[0].multiplier
    for g in gens:
        if g.multiplier != mu:
            raise ValueError("linearize_step requires equal multipliers")
        _require_linear_below(g, k, "linearize_step")
    t = tuple(g.coefficient(k + 1) for g in gens)
    c, record = _step(k, t, mu, mu**k)
    if c is None:
        return None, record
    return Germ(_elementary(k, c, gens[0].order, gens[0].conductor)), record


def _binomials(k: int, c: CycloElem, N: int) -> Callable[[int, int], CycloElem]:
    """term(j, i) = C(j,i) c^i, the coefficient of z^(j+ik) in h^j for the
    step conjugator h = z + c z^(k+1); each term is computed on first use."""
    cpow = [cyclo_embed(1, c.n)]
    for _ in range(N // (k + 1)):  # i <= j and j + ik <= N give i <= N/(k+1)
        cpow.append(cpow[-1] * c)
    return cache(lambda j, i: cpow[i] * comb(j, i))


def _right_compose_elementary(x: list, k: int, term: Callable) -> list:
    """x o h for the step conjugator h = z + c z^(k+1), ``term`` from
    :func:`_binomials`: sum_e x_e sum_i C(e,i) c^i z^(e+ik)."""
    N, n = len(x) - 1, x[0].n
    terms = [[] for _ in x]
    for e, xe in enumerate(x):
        if xe.is_zero:
            continue
        for i in range(1, min(e, (N - e) // k) + 1):
            terms[e + i * k].append((xe, term(e, i)))
    return [xt + _sum_of_products(n, pairs) if pairs else xt for xt, pairs in zip(x, terms)]


def _conjugate_by_elementary(g: Jet, k: int, coef: list, term: Callable) -> Jet:
    """h o g o h^{-1} for the step conjugator h = z + c z^(k+1), where g is
    mu*z through order k.

    A = h o g = g + c g^(k+1) needs no dense power of g: with v = g/z - mu of
    valuation >= k, g^(k+1) = z^(k+1) sum_i C(k+1,i) mu^(k+1-i) v^i, and only
    the terms with ik <= N-k-1, so i <= min(k+1, (N-k-1)/k), survive
    truncation (none with i >= 1 once k > (N-1)/2).  ``coef`` holds
    c C(k+1,i) mu^(k+1-i) for those i.  Then, without forming h^{-1},
    x o h = A is solved coefficient by coefficient: over the terms
    C(j,i) c^i of the powers of h (shared with the right composition that
    builds H) the system is triangular with unit diagonal.
    """
    N, n = g.order, g.conductor
    M = N - k - 1  # g^(k+1)/z^(k+1) is needed through degree M
    v = [_zero(n)] + list(g.coeffs[2 : M + 2])
    tail = _power_sum(coef, v, M, n)
    A = list(g.coeffs)
    for d, s in enumerate(tail):
        if not s.is_zero:
            A[k + 1 + d] = A[k + 1 + d] + s
    x = [_zero(n)] * (N + 1)
    x[0] = A[0]
    for m in range(1, N + 1):
        pairs = []
        j, i = m - k, 1
        while j >= i:  # C(j,i) = 0 once i > j
            if not x[j].is_zero:
                pairs.append((x[j], term(j, i)))
            j -= k
            i += 1
        x[m] = A[m] - _sum_of_products(n, pairs) if pairs else A[m]
    return Jet(x, order=N, conductor=n)


def linearize(pres: GroupPresentation) -> LinearizationResult:
    """Run the order-by-order algorithm over k = 1 .. N-1.

    Generators with multiplier exactly 1 are handled by the flat scan (the
    two flat outcomes); otherwise the result is linearized, with a conjugator
    H taking every generator to mu*z, or the first obstruction.
    """
    mults = [g.multiplier for g in pres.gens]
    mu = mults[0]
    if any(m != mu for m in mults[1:]):
        raise ValueError("linearize requires generators with equal multipliers")
    if mu.is_one:
        return flat_case_check(pres)
    return _scan(pres, mu)


def _scan(pres: GroupPresentation, mu: CycloElem) -> LinearizationResult:
    """The loop over k = 1 .. N-1: outcome linearized or obstruction.

    Conjugation keeps equal generators equal and unequal ones unequal, so
    one jet per class of ``pres.classes`` is carried and conjugated.
    """
    order = pres.order
    classes = pres.classes
    current: dict[int, Jet] = {rep: pres.gens[rep].jet for rep in classes}  # by class
    steps: list[StepRecord] = []
    recorded: list[tuple[int, Callable]] = []  # (k, binomial terms) per conjugated step
    mu_pow = [cyclo_embed(1, mu.n), mu]  # mu^0 .. mu^(k+1), extended as k grows
    outcome = OUTCOME_LINEARIZED
    for k in range(1, order):
        mu_pow.append(mu_pow[-1] * mu)
        t = tuple(current[rep].coeffs[k + 1] for rep in classes)
        c, record = _step(k, t, mu, mu_pow[k])
        steps.append(record)
        if record.action == ACTION_OBSTRUCTION:
            outcome = OUTCOME_OBSTRUCTION
            break
        if c is not None:
            term = _binomials(k, c, order)
            recorded.append((k, term))
            top = min(k + 1, (order - k - 1) // k)
            coef = [c * comb(k + 1, i) * mu_pow[k + 1 - i] for i in range(top + 1)]
            current = {
                rep: _conjugate_by_elementary(jet, k, coef, term) for rep, jet in current.items()
            }
    H = list(Jet.identity(order, pres.conductor).coeffs)
    for k, term in reversed(recorded):
        H = _right_compose_elementary(H, k, term)
    H = Germ(Jet(H, order=order, conductor=pres.conductor))
    return LinearizationResult(outcome, mu, steps, H)


def flat_case_check(pres: GroupPresentation) -> LinearizationResult:
    """Scan a multiplier-1 presentation for the forced triviality.

    At each order the next coefficients of all generators must agree and sum
    to zero against the product identity, which forces them all to vanish.
    With mu = 1 every order is in the identity branch, so the common scan
    demands zeros outright and stops at the first failure, reported
    flat_inconsistent (the t-vector of the failing order shows whether
    equality or the zero-sum broke); the conjugator stays the identity.
    """
    one = cyclo_embed(1, pres.conductor)
    for g in pres.gens:
        if g.multiplier != one:
            raise ValueError("flat_case_check requires multiplier exactly 1")
    result = _scan(pres, one)
    if result.outcome == OUTCOME_LINEARIZED:
        result.outcome = OUTCOME_FLAT_TRIVIAL
    else:
        result.outcome = OUTCOME_FLAT_INCONSISTENT
    return result


def group_order(result: LinearizationResult) -> Optional[int]:
    """The order of the linearized rotation group: ord(mu), or 1 when flat.

    None for obstruction outcomes (and for a multiplier of infinite order).
    """
    if result.outcome == OUTCOME_FLAT_TRIVIAL:
        return 1
    if result.outcome == OUTCOME_LINEARIZED:
        return root_of_unity_order(result.final_multiplier)
    return None
