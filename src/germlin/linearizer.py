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

The scan carries the generators as rows of the kernel ``jets._weighted_sum``
and hands it only the degrees a step changes.  Conjugating g = mu z +
t z^(k+1) + ... by h_k sets degree k+1 to 0 and leaves degrees k+2 .. 2k
exactly as they were: in h_k o g = g + c_k g^(k+1) every term past
c_k mu^(k+1) z^(k+1) starts at degree 2k+1, and in y o h_k =
y + sum_j sum_(i>=1) C(j,i) c_k^i y_j z^(j+ik) every coefficient y_j with
j >= k+2 reaches only degrees >= 2k+2.  So a step copies its head and its
middle and solves the degrees >= 2k+1 in blocks of k, each one kernel call;
a step with 2k+1 > N, every k > (N-1)/2, only copies
(:func:`_conjugate_by_elementary`).

The scan never reads the accumulated conjugator, so it only records each
conjugated step (k, c_k).  When it returns, on the linearized and on the
obstruction path, H = h_K o ... o h_1 is built once: from z, right
composition by each h_k, newest first.  The powers of h_k are binomials,
h_k^e = sum_i C(e,i) c_k^i z^(e + ik), with each C(e,i) c_k^i a one-entry
row.  Before h_k is folded in, H = z + O(z^(k+2)), so H o h_k inserts c_k at
degree k+1 and changes otherwise only degrees >= 2k+2, in one kernel call;
for 2k+2 > N the fold is the insertion alone.  Composition of jets with zero
constant term is exactly associative, so H equals the jet that accumulating
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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Optional, Sequence

from .affine import AffineMap
from .cyclotomic import CycloElem, cyclo_embed, format_scalar, root_of_unity_order
from .germs import Germ
from .group_cert import GroupPresentation
from .jets import Jet, _UNIT, _Z_ROW, _entry, _power_rows, _row_coefficient, _weighted_sum

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
    k: int, t: tuple[CycloElem, ...], mu: CycloElem, mu_k: CycloElem, recips: dict
) -> tuple[Optional[CycloElem], StepRecord]:
    """One order from the t-vector, mu and mu^k: the constant c of the step
    conjugator z + c z^(k+1) (None if no conjugation) and the step record.
    ``recips`` caches 1/(mu - mu^(k+1)) by the value of mu^k."""
    identity_branch = mu_k.is_one
    branch = BRANCH_IDENTITY if identity_branch else BRANCH_NONIDENTITY
    if all(c.is_zero for c in t):
        return None, StepRecord(k, t, branch, ACTION_ALL_ZERO)
    if identity_branch:
        phi_sum = sum((c / mu for c in t), cyclo_embed(0, mu.n))
        return None, StepRecord(k, t, branch, ACTION_OBSTRUCTION, phi_sum=phi_sum)
    first = t[0]
    if all(c == first for c in t[1:]):
        r = recips.get(mu_k)
        if r is None:
            r = recips[mu_k] = (mu - mu * mu_k).inverse()
        return first * r, StepRecord(k, t, branch, ACTION_CONJUGATED)
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
    c, record = _step(k, t, mu, mu**k, {})
    if c is None:
        return None, record
    return Germ(_elementary(k, c, gens[0].order, gens[0].conductor)), record


def _binomials(k: int, c: CycloElem, N: int) -> Callable[[int, int], tuple]:
    """cell(j, i): C(j,i) c^i, the coefficient of z^(j+ik) in h^j for the
    step conjugator h = z + c z^(k+1), as a one-entry row at degree 0 (not
    reduced: the kernel normalizes its sums); each is built on first use."""
    cpow = [cyclo_embed(1, c.n)]
    for _ in range(N // (k + 1)):  # i <= j and j + ik <= N give i <= N/(k+1)
        cpow.append(cpow[-1] * c)
    cpow = [_entry(x) for x in cpow]

    def cell(j: int, i: int) -> tuple:
        (coords, den), b = cpow[i], comb(j, i)
        return ((0, tuple((x, y * b) for x, y in coords), den),)

    return cache(cell)


def _conjugate_by_elementary(g: tuple, k: int, coef: list, cell, N: int, n: int) -> tuple:
    """The row of y = h o g o h^{-1} for the step conjugator h = z + c z^(k+1),
    where g is the row (to degree N) of mu z + t z^(k+1) + ..., t != 0, and
    ``cell`` is from :func:`_binomials`.

    y solves y o h = h o g.  With v = g/z - mu of valuation k,
    h o g = g + c g^(k+1) = g + c mu^(k+1) z^(k+1) + z^(k+1) sum_(i>=1)
    C(k+1,i) c mu^(k+1-i) v^i, where the i-th term starts at degree
    k+1+ik >= 2k+1; and y o h = y + sum_j sum_(i>=1) C(j,i) c^i y_j z^(j+ik).
    So y_1 = mu, y_(k+1) = t + c mu^(k+1) - c mu = 0, y is zero at degrees
    2 .. k, and each y_j with j >= k+2 reaches only degrees >= 2k+2: at the
    degrees k+2 .. 2k neither sum has a term, and y copies g there.  The
    step changes degree k+1 (to 0) and the degrees >= 2k+1.

    Those are solved in blocks lo .. lo + k - 1 from lo = 2k+1: each block
    is one kernel call over that block of g, of the rows of the v^i shifted
    by k+1 and weighted by ``coef`` (the c C(k+1,i) mu^(k+1-i) for i = 1 ..
    min(k+1, (N-k-1)/k)), and of the cells weighted by the -y_j found before
    it, the copied ones first.  A step with 2k+1 > N (every k > (N-1)/2) is
    the copy alone and makes no kernel call.
    """
    start = 2 * k + 1
    y = list(g[:1] + g[bisect_left(g, (k + 2,)) : bisect_left(g, (start,))])  # mu z, k+2 .. 2k
    if start > N:
        return tuple(y)
    M = N - k - 1  # v^i is needed through degree M
    v = tuple((t - 1, coords, den) for t, coords, den in g if 2 <= t <= M + 1)
    powers = _power_rows(v, len(coef), M, n)[1:]
    minus = [(j, (tuple((x, -b) for x, b in c), d)) for j, c, d in y[1:]]  # (j, -y_j)
    for lo in range(start, N + 1, k):
        hi = min(lo + k, N + 1)
        terms = [(_UNIT, 0, g[bisect_left(g, (lo,)) : bisect_left(g, (hi,))])]
        for w, p in zip(coef, powers):  # z^(k+1) v^i at lo .. hi - 1
            a, b = bisect_left(p, (lo - k - 1,)), bisect_left(p, (hi - k - 1,))
            terms.append((w, k + 1, p[a:b]))
        for j, w in minus:
            i = (lo - j + k - 1) // k  # the one i >= 1 with lo <= j + ik < lo + k
            if i <= j and j + i * k < hi:
                terms.append((w, j + i * k, cell(j, i)))
        block = _weighted_sum(terms, hi - 1, n)
        y += block
        minus += [(j, (tuple((x, -b) for x, b in c), d)) for j, c, d in block]
    return tuple(y)


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
    one row per class of ``pres.classes`` is carried and conjugated.
    """
    order, n = pres.order, pres.conductor
    classes = pres.classes
    current = {rep: pres.gens[rep].jet.row for rep in classes}  # by class
    steps: list[StepRecord] = []
    recorded: list[tuple] = []  # (k, the entry of c, binomial cells) per conjugated step
    mu_pow = [cyclo_embed(1, mu.n), mu]  # mu^0 .. mu^(k+1), extended as k grows
    recips: dict = {}
    outcome = OUTCOME_LINEARIZED
    for k in range(1, order):
        mu_pow.append(mu_pow[-1] * mu)
        t = tuple(_row_coefficient(current[rep], k + 1, n) for rep in classes)
        c, record = _step(k, t, mu, mu_pow[k], recips)
        steps.append(record)
        if record.action == ACTION_OBSTRUCTION:
            outcome = OUTCOME_OBSTRUCTION
            break
        if c is not None:
            cell = _binomials(k, c, order)
            recorded.append((k, _entry(c), cell))
            top = min(k + 1, (order - k - 1) // k)
            coef = [_entry(c * comb(k + 1, i) * mu_pow[k + 1 - i]) for i in range(1, top + 1)]
            current = {
                rep: _conjugate_by_elementary(row, k, coef, cell, order, n)
                for rep, row in current.items()
            }
    # H = h_K o ... o h_1 from z, newest first: H o h_k inserts c at degree
    # k+1 and adds the kernel's terms at degrees >= 2k+2 (module docstring)
    H = _Z_ROW
    for k, c, cell in reversed(recorded):
        lo = bisect_left(H, (2 * k + 2,))
        tail = ()
        if 2 * k + 2 <= order:
            terms = [(_UNIT, 0, H[lo:])]
            for j, x, d in H[1:]:
                top = min(j, (order - j) // k)
                terms += [((x, d), j + i * k, cell(j, i)) for i in range(1, top + 1)]
            tail = _weighted_sum(terms, order, n)
        H = H[:1] + ((k + 1,) + c,) + H[1:lo] + tail
    H = Germ(Jet._of(H, order, n))
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
