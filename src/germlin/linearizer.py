"""Order-by-order linearization of germ-group presentations.

Given generators that share a multiplier mu, the algorithm walks the orders
k = 1 .. N-1 keeping every generator equal to mu*z through order k and
inspecting the coefficients t_i of z^(k+1):

* if mu^k = 1 the only way forward is t_i = 0 for all i; otherwise the step
  is an obstruction (reported with the additive-morphism sum of t_i/mu as a
  diagnostic),
* if mu^k != 1 and all the t_i agree, conjugating every generator by
  h_k(z) = z + t_1/(mu - mu^(k+1)) z^(k+1) clears the order; unequal t_i are
  an obstruction.

The branch condition is mu^k = 1 exactly (the hypothesis the additive
morphism needs), recorded per step so coarser divisibility conditions can be
audited.  Step conjugators accumulate newest-outermost, H <- h_k o H, so a
"linearized" outcome means conjugation by H maps every generator to mu*z.

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
from math import comb
from typing import Optional, Sequence

from .affine import AffineMap
from .cyclotomic import CycloElem, cyclo_embed, format_scalar, root_of_unity_order
from .germs import Germ, identity_germ
from .group_cert import GroupPresentation
from .jets import Jet, _zero, jet_compose

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


def _conjugate_by_elementary(g: Jet, h: Jet, k: int, c: CycloElem) -> Jet:
    """h o g o h^{-1} for the step conjugator h = z + c z^(k+1).

    A = h o g comes from :func:`jet_compose`; then, without forming h^{-1},
    x o h = A is solved coefficient by coefficient: the powers of h are
    binomials, h^j = sum_i C(j,i) c^i z^(j+ik), so the system is triangular
    with unit diagonal.
    """
    N, n = g.order, g.conductor
    A = jet_compose(h, g).coeffs
    cpow = [cyclo_embed(1, n)]
    for _ in range(N // k + 1):
        cpow.append(cpow[-1] * c)
    x = [_zero(n)] * (N + 1)
    x[0] = A[0]
    for m in range(1, N + 1):
        s = A[m]
        j = m - k
        i = 1
        while j >= 1:
            if not x[j].is_zero:
                s = s - x[j] * (cpow[i] * comb(j, i))
            j -= k
            i += 1
        x[m] = s
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
    """The loop over k = 1 .. N-1: outcome linearized or obstruction."""
    order = pres.order
    current: list[Jet] = [g.jet for g in pres.gens]
    H = identity_germ(order, pres.conductor)
    steps: list[StepRecord] = []
    mu_k = mu  # mu^k, maintained incrementally
    for k in range(1, order):
        c, record = _step(k, tuple(jet.coeffs[k + 1] for jet in current), mu, mu_k)
        steps.append(record)
        if record.action == ACTION_OBSTRUCTION:
            return LinearizationResult(OUTCOME_OBSTRUCTION, mu, steps, H)
        if c is not None:
            h_k = _elementary(k, c, order, pres.conductor)
            cache: dict = {}
            new: list[Jet] = []
            for jet in current:
                key = jet.key()
                res = cache.get(key)
                if res is None:
                    res = _conjugate_by_elementary(jet, h_k, k, c)
                    cache[key] = res
                new.append(res)
            current = new
            H = Germ(jet_compose(h_k, H.jet))
        mu_k = mu_k * mu
    return LinearizationResult(OUTCOME_LINEARIZED, mu, steps, H)


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
