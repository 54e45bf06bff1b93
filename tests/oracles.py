"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results along a different route than the library
kernels: schoolbook products over coefficient lists instead of weighted sums
of shifted rows, the geometric series instead of the reciprocal recurrence,
generator expressions evaluated over coefficient lists instead of rows, naive
polynomial substitution instead of power-table composition,
Lagrange inversion instead of the triangular inverse solve, symbolic
chain-rule differentiation instead of series composition, and a reduced-word
search over all 2m letters with direct witness checks instead of the shared
search engine with value-deduplicated letters and results shared between
pairs, a scan of the constraints over every root of unity and evaluation of
every generator at every root instead of one evaluation per Galois orbit,
pairwise jet equality instead of a table of keys for the classes of equal
generators, the linearizer's step over every degree of the row (h o g in
full, then the solve of y o h = h o g from degree 0) instead of over the
degrees the step changes, and determinants of coefficient matrices, expanded with schoolbook
polynomial products over the term dicts, instead of the integer product
kernel of the wedge and the pivot components of the form checks, ex6.1
built from its defining products and powers instead of its closed-form
monomials, power tables of successive schoolbook products instead of squares
of half powers, and long division by Phi_n instead of the table of the
reduced powers of zeta.
"""

from __future__ import annotations

import random
from collections import deque
from functools import reduce
from fractions import Fraction
from itertools import combinations, permutations
from bisect import bisect_left
from math import comb, factorial, gcd

from germlin.cyclotomic import (
    CycloElem,
    cyclo_embed,
    cyclotomic_polynomial,
    format_scalar,
    zeta,
)
from germlin.expressions import (
    ExpressionError,
    check_power_bits,
    eval_scalar,
    parse_constraint,
    parse_expression,
)
from germlin.jets import (
    _UNIT,
    Jet,
    _entry,
    _power_rows,
    _row_coefficient,
    _weighted_sum,
    jet_mul_inverse,
)
from germlin.linearizer import _binomials
from germlin.pforms import MultiPoly, PForm1


def naive_poly_compose(f: Jet, g: Jet) -> Jet:
    """f(g) by expanding full polynomial powers of g, then truncating.

    Zero coefficients are skipped and powers stop at the degree of f, so a
    sparse f or g (a step conjugator z + c z^(k+1)) stays cheap.
    """
    N = f.order
    n = f.conductor * g.conductor // gcd(f.conductor, g.conductor)
    fl = [c.lift(n) if c.n != n else c for c in f.lift(n).coeffs]
    gl = list(g.lift(n).coeffs)
    zero = cyclo_embed(0, n)
    degree = max((e for e, c in enumerate(fl) if not c.is_zero), default=0)
    # full (untruncated) powers of g as plain lists, then cut
    power = [cyclo_embed(1, n)]
    acc = [zero] * (N + 1)
    for e, ce in enumerate(fl[: degree + 1]):
        if e > 0:
            new = [zero] * (len(power) + len(gl) - 1)
            for i, a in enumerate(power):
                if a.is_zero:
                    continue
                for j, b in enumerate(gl):
                    if not b.is_zero:
                        new[i + j] = new[i + j] + a * b
            power = new
        for t in range(min(N + 1, len(power))):
            acc[t] = acc[t] + ce * power[t]
    return Jet(acc, order=N, conductor=n)


def _lifted(jets) -> tuple:
    """The lcm conductor of the jets and their coefficient lists lifted to
    it one coefficient at a time, in the field's own lift."""
    n = 1
    for a in jets:
        n = n * a.conductor // gcd(n, a.conductor)
    return n, [[c.lift(n) for c in a.coeffs] for a in jets]


def naive_jet_product(a: Jet, b: Jet) -> Jet:
    """a*b by the full schoolbook product of the coefficient lists, then
    truncating, instead of the weighted sum of shifted rows."""
    n, (al, bl) = _lifted((a, b))
    full = [cyclo_embed(0, n)] * (len(al) + len(bl) - 1)
    for i, x in enumerate(al):
        if x.is_zero:
            continue
        for j, y in enumerate(bl):
            full[i + j] = full[i + j] + x * y
    return Jet(full[: a.order + 1], order=a.order, conductor=n)


def successive_powers(g: Jet, d: int) -> list:
    """The coefficient lists of g^0, g^1, .., g^d truncated at the order of
    g, each the schoolbook product of the one before with g: no squares and
    no rows.  Zero coefficients and degrees beyond the order are skipped."""
    N, n = g.order, g.conductor
    terms = [(j, c) for j, c in enumerate(g.coeffs) if not c.is_zero]
    zero = cyclo_embed(0, n)
    powers = [[cyclo_embed(1, n)] + [zero] * N]
    for _ in range(d):
        new = [zero] * (N + 1)
        for i, x in enumerate(powers[-1]):
            if x.is_zero:
                continue
            for j, y in terms:
                if i + j <= N:
                    new[i + j] = new[i + j] + x * y
        powers.append(new)
    return powers


def cyclotomic_remainder(n: int, prod: list) -> list:
    """The power-basis coordinates of sum_e prod[e] zeta_n^e: the remainder of
    the integer polynomial sum_e prod[e] x^e by long division by the monic
    Phi_n, instead of the table of reduced powers of zeta."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(prod) + [0] * max(0, deg - len(prod))
    for top in range(len(rem) - 1, deg - 1, -1):
        q = rem[top]
        if q:
            for i, c in enumerate(phi):
                rem[top - deg + i] -= q * c
    return rem[:deg]


def naive_jet_sum(a: Jet, b: Jet, sign: int = 1) -> Jet:
    """a + sign*b coefficient by coefficient."""
    n, (al, bl) = _lifted((a, b))
    return Jet([x + sign * y for x, y in zip(al, bl)], order=a.order, conductor=n)


def naive_reciprocal(f: Jet) -> Jet:
    """1/f as the geometric series (1/a0) sum_k (-u)^k in u = f/a0 - 1, with
    schoolbook products, instead of the triangular recurrence."""
    N, n = f.order, f.conductor
    inv0 = cyclo_embed(1, n) / f.coeffs[0]
    minus_u = Jet([0] + [-c * inv0 for c in f.coeffs[1:]], order=N, conductor=n)
    total = power = Jet([1], order=N, conductor=n)
    for _ in range(N):
        power = naive_jet_product(power, minus_u)
        total = naive_jet_sum(total, power)
    return Jet([c * inv0 for c in total.coeffs], order=N, conductor=n)


def naive_binomial_power(f: Jet, r: Fraction) -> Jet:
    """f^r = sum_k C(r, k) u^k for f = 1 + u, each u^k a schoolbook product
    of the one before, instead of the weighted sum over a power table."""
    N, n = f.order, f.conductor
    if f.coeffs[0] != 1:
        raise ValueError("rational powers require constant term 1")
    u = Jet([0] + list(f.coeffs[1:]), order=N, conductor=n)
    total = power = Jet([1], order=N, conductor=n)
    binom = Fraction(1)
    for k in range(1, N + 1):
        binom = binom * (r - k + 1) / k
        power = naive_jet_product(power, u)
        total = naive_jet_sum(total, Jet([binom * c for c in power.coeffs], order=N, conductor=n))
    return total


def naive_series(node, env: dict, order: int) -> Jet:
    """A parsed series expression evaluated over coefficient lists: sums
    coefficient by coefficient, :func:`naive_jet_product`,
    :func:`naive_reciprocal` for division and negative powers, integer powers
    as repeated products and pow(f, r) by :func:`naive_binomial_power`.  It
    raises the errors of ``expressions.eval_series``, with its messages."""
    op = node[0]
    if op == "num":
        return Jet([node[1]], order=order)
    if op == "name":
        if node[1] == "z":
            return Jet([0, 1], order=order)
        if node[1] not in env:
            raise ExpressionError(f"unknown name {node[1]!r} in series expression")
        return Jet([env[node[1]]], order=order)
    if op == "neg":
        a = naive_series(node[1], env, order)
        return Jet([-c for c in a.coeffs], order=order, conductor=a.conductor)
    if op in ("add", "sub", "mul", "div"):
        a = naive_series(node[1], env, order)
        b = naive_series(node[2], env, order)
        if op == "mul":
            return naive_jet_product(a, b)
        if op == "div":
            if b.coeffs[0].is_zero:
                raise ExpressionError("series division needs a divisor with nonzero constant term")
            return naive_jet_product(a, naive_reciprocal(b))
        return naive_jet_sum(a, b, 1 if op == "add" else -1)
    if op == "ipow":
        base = naive_series(node[1], env, order)
        e = node[2]
        check_power_bits((base,), e)
        if e < 0:
            if base.coeffs[0].is_zero:
                raise ExpressionError("negative powers need a nonzero constant term")
            base = naive_reciprocal(base)
        out = Jet([1], order=order, conductor=base.conductor)
        for _ in range(abs(e)):
            out = naive_jet_product(out, base)
        return out
    if op == "rpow":
        return naive_binomial_power(naive_series(node[1], env, order), node[2])
    raise ExpressionError(f"bad AST node {op!r}")


def geometric_quotient(a, N: int) -> Jet:
    """Expansion of z/(a + z) = sum_{j>=1} (-1)^(j+1) z^j / a^j."""
    if isinstance(a, CycloElem):
        n = a.n
    else:
        n = 1
    coeffs = [cyclo_embed(0, n)]
    for j in range(1, N + 1):
        coeffs.append((-1) ** (j + 1) * (a ** (-j) if isinstance(a, CycloElem) else cyclo_embed(Fraction(1, a) ** j, 1)))
    return Jet(coeffs, order=N, conductor=n)


def lagrange_inverse(f: Jet) -> Jet:
    """Compositional inverse via Lagrange inversion:
    [z^m] g = (1/m) [w^(m-1)] (w / f(w))^m."""
    N, n = f.order, f.conductor
    u = Jet(list(f.coeffs[1:]) + [cyclo_embed(0, n)], order=N, conductor=n)  # f/z
    v = jet_mul_inverse(u)  # z/f
    coeffs = [cyclo_embed(0, n)] * (N + 1)
    vpow = Jet.constant(1, N, n)
    for m in range(1, N + 1):
        vpow = vpow * v
        coeffs[m] = vpow.coefficient(m - 1) * Fraction(1, m)
    return Jet(coeffs, order=N, conductor=n)


def faa_di_bruno_derivative(phi: Jet, psi: Jet, n: int):
    """The n-th derivative of phi(psi) at 0 by symbolic chain-rule expansion.

    Terms are coef * phi^(m)(psi) * prod psi^(d_i); differentiation applies
    the chain rule to the first factor and the product rule to the rest.
    Evaluation at 0 uses psi(0) = 0, so phi^(m)(psi(0)) = m! * [z^m] phi.
    """
    if psi.coeffs[0] != cyclo_embed(0, psi.conductor):
        raise ValueError("the oracle needs psi(0) = 0")
    terms: dict[tuple[int, tuple[int, ...]], int] = {(1, (1,)): 1}
    for _ in range(n - 1):
        new: dict[tuple[int, tuple[int, ...]], int] = {}

        def add(key, c):
            new[key] = new.get(key, 0) + c

        for (m, ds), c in terms.items():
            add((m + 1, tuple(sorted(ds + (1,)))), c)
            for d in set(ds):
                mult = ds.count(d)
                lst = list(ds)
                lst.remove(d)
                add((m, tuple(sorted(lst + [d + 1]))), c * mult)
        terms = new
    total = cyclo_embed(0, phi.conductor * psi.conductor)
    for (m, ds), c in terms.items():
        if m > phi.order or any(d > psi.order for d in ds):
            raise ValueError("jet order too small for the requested derivative")
        val = phi.coefficient(m) * factorial(m) * c
        for d in ds:
            val = val * (psi.coefficient(d) * factorial(d))
        total = total + val
    return total


def random_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_jet(
    rng: random.Random,
    order: int,
    conductor: int = 1,
    zero_constant: bool = False,
    unit_linear: bool = False,
) -> Jet:
    coeffs = [random_fraction(rng) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    if unit_linear:
        coeffs[1] = Fraction(1)
    if conductor > 1:
        mixed = []
        zc = zeta(conductor)
        for c in coeffs:
            mixed.append(c + zc * random_fraction(rng) if rng.random() < 0.5 else c)
        coeffs = mixed
        if zero_constant:
            coeffs[0] = Fraction(0)
        if unit_linear:
            coeffs[1] = Fraction(1)
    return Jet(coeffs, order=order, conductor=conductor)


def naive_conjugator_search(gens, inverses, i, j, max_len, identity, compose, key):
    """Reference reduced-word BFS for a word h with f_i o h = h o f_j.

    ``inverses[k]`` is the inverse of ``gens[k]``.  Uses all 2m letters
    (f_1, f_1^-1, f_2, ...) even where values repeat,
    enumerates words shortest first and then by (index, sign), skips a letter
    right after its own inverse, extends only the first word of each value,
    and tests every new word directly by ``compose``.  Returns the first
    witness word as a tuple of letters, or None.
    """
    letters = []
    for idx, (g, g_inv) in enumerate(zip(gens, inverses), start=1):
        letters.append(((idx, 1), g))
        letters.append(((idx, -1), g_inv))
    fi, fj = gens[i - 1], gens[j - 1]

    def is_witness(h):
        return compose(fi, h) == compose(h, fj)

    if is_witness(identity):
        return ()
    seen = {key(identity)}
    queue = deque([((), identity)])
    while queue:
        word, h = queue.popleft()
        if len(word) == max_len:
            continue
        for letter, g in letters:
            if word and letter == (word[-1][0], -word[-1][1]):
                continue
            child = compose(h, g)
            if key(child) in seen:
                continue
            seen.add(key(child))
            if is_witness(child):
                return word + (letter,)
            queue.append((word + (letter,), child))
    return None


def naive_classes(jets) -> tuple:
    """For each jet, the 0-based index of the first jet equal to it."""
    return tuple(next(k for k, other in enumerate(jets) if other == jet) for jet in jets)


def naive_root_scan(m: int, constraints, var: str = "a") -> list[CycloElem]:
    """The roots zeta_m^k, k = 0 .. m-1, at which every constraint is defined
    and holds, each candidate evaluated on its own."""
    parsed = [parse_constraint(c) for c in constraints]
    out = []
    for k in range(m):
        env = {var: zeta(m) ** k}
        try:
            if all(eval_scalar(lhs, env) == eval_scalar(rhs, env) for lhs, rhs in parsed):
                out.append(env[var])
        except ZeroDivisionError:
            pass
    return out


def per_root_presentations(spec: dict, order: int) -> list:
    """(label, scalars, generator jets) of a presentation spec, one per root
    of :func:`naive_root_scan`, every generator evaluated at every root by
    :func:`naive_series` (a repeated expression once per root)."""
    field = spec.get("field") or {}
    var = field.get("var", "a")
    constraints = field.get("constraints", [])
    envs = [({}, "")]
    if constraints:
        roots = naive_root_scan(field.get("conductor", 1), constraints, var)
        envs = [({var: a}, f"{var}={format_scalar(a)}") for a in roots]
    out = []
    for env, label in envs:
        jets: dict = {}
        for e in spec["generators"]:
            if e not in jets:
                jets[e] = naive_series(parse_expression(e), env, order)
        out.append((label, env, [jets[e] for e in spec["generators"]]))
    return out


def naive_poly_product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The schoolbook product of two polynomials over their term dicts, in
    the coefficients' own + and * and never in MultiPoly arithmetic; the
    checking constructor drops the sums that cancel."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return MultiPoly(p.nvars, out)


def naive_poly_sum(nvars: int, polys) -> MultiPoly:
    """The sum of polynomials, term by term in the coefficients' own +."""
    out = {}
    for p in polys:
        for e, c in p.terms.items():
            out[e] = out[e] + c if e in out else c
    return MultiPoly(nvars, out)


def wedge_minors(forms) -> dict:
    """Coefficients of u_1 ^ ... ^ u_k for 1-forms u_r: the coefficient at
    the index tuple I is the I-minor det [a_(r, I_c)] of the coefficient
    matrix, expanded by the Leibniz formula over all permutations, with
    products and sums from :func:`naive_poly_product` and
    :func:`naive_poly_sum`."""
    nvars = forms[0].nvars
    k = len(forms)
    out = {}
    for key in combinations(range(nvars), k):
        terms = []
        for perm in permutations(range(k)):
            inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
            term = MultiPoly.constant(nvars, (-1) ** inversions)
            for row, col in enumerate(perm):
                term = naive_poly_product(term, forms[row].coefficient((key[col],)))
            terms.append(term)
        total = naive_poly_sum(nvars, terms)
        if not total.is_zero:
            out[key] = total
    return out


def kupka_family_by_products(k: int, params) -> tuple:
    """(omega, Q, x^(k+1)) of the registry example ex6.1, built from its
    defining formulas as schoolbook products and sums of polynomials, each
    power a repeated product, instead of from its closed-form monomials."""
    n = 4
    a, b, c, al, be, ga = (Fraction(v) for v in params)
    x, y, z, w = (MultiPoly.variable(n, i) for i in range(n))

    def mul(*factors):
        return reduce(naive_poly_product, factors, MultiPoly.constant(n, 1))

    def pw(p, e):
        return mul(*[p] * e)

    def add(*terms):
        return naive_poly_sum(n, terms)

    def sc(coef, p):
        return naive_poly_product(MultiPoly.constant(n, coef), p)

    dx_coeff = add(
        sc(-1, mul(pw(x, 2), add(sc(a, pw(y, k - 1)), sc(b, pw(z, k - 1)), sc(c, pw(w, k - 1))))),
        sc(al, pw(y, k + 1)),
        sc(be, pw(z, k + 1)),
        sc(ga, pw(w, k + 1)),
    )
    omega = PForm1(
        n,
        [
            dx_coeff,
            mul(x, pw(y, k - 2), add(sc(a, pw(x, 2)), sc(-al, pw(y, 2)))),
            mul(x, pw(z, k - 2), add(sc(b, pw(x, 2)), sc(-be, pw(z, 2)))),
            mul(x, pw(w, k - 2), add(sc(c, pw(x, 2)), sc(-ga, pw(w, 2)))),
        ],
    )
    q = add(
        mul(
            pw(x, 2),
            add(
                sc(Fraction(a, k - 1), pw(y, k - 1)),
                sc(Fraction(b, k - 1), pw(z, k - 1)),
                sc(Fraction(c, k - 1), pw(w, k - 1)),
            ),
        ),
        sc(-Fraction(al, k + 1), pw(y, k + 1)),
        sc(-Fraction(be, k + 1), pw(z, k + 1)),
        sc(-Fraction(ga, k + 1), pw(w, k + 1)),
        pw(x, k + 1),
    )
    return omega, q, pw(x, k + 1)


def kupka_family_by_constructor(k: int, params) -> tuple:
    """(omega, Q) of ex6.1 from its closed-form monomials, each coefficient a
    dict of Fractions passed through the checking ``MultiPoly`` constructor."""
    a, b, c, al, be, ga = (Fraction(v) for v in params)

    def mono(ex: int, u: int, eu: int) -> tuple:
        exps = [ex, 0, 0, 0]
        exps[u] = eu
        return tuple(exps)

    dx: dict = {}
    coeffs = [dx]
    q = {(k + 1, 0, 0, 0): Fraction(1)}
    for u, (s, t) in enumerate(((a, al), (b, be), (c, ga)), start=1):
        dx[mono(2, u, k - 1)] = -s
        dx[mono(0, u, k + 1)] = t
        coeffs.append({mono(3, u, k - 2): s, mono(1, u, k): -t})
        q[mono(2, u, k - 1)] = s / (k - 1)
        q[mono(0, u, k + 1)] = -t / (k + 1)
    return PForm1(4, [MultiPoly(4, terms) for terms in coeffs]), MultiPoly(4, q)


def _compose_elementary(a: tuple, k: int, cell, N: int, n: int, solve=False) -> tuple:
    """The row of a o h, or with ``solve`` the row of the y with y o h = a,
    for a row a to degree N and h = z + c z^(k+1) with its binomial
    ``cell``s: every degree of a goes through the kernel."""
    if not solve:
        terms = [(_UNIT, 0, a)]
        for j, c, d in a:
            terms += [((c, d), j + i * k, cell(j, i)) for i in range(1, min(j, (N - j) // k) + 1)]
        return _weighted_sum(terms, N, n)
    y, minus = [], []  # minus: the (j, -y_j as a weight) found so far
    for lo in range(0, N + 1, k):
        hi = min(lo + k, N + 1)
        terms = [(_UNIT, 0, a[bisect_left(a, (lo,)) : bisect_left(a, (hi,))])]
        for j, w in minus:
            i = (lo - j + k - 1) // k
            if i <= j and j + i * k < hi:
                terms.append((w, j + i * k, cell(j, i)))
        block = _weighted_sum(terms, hi - 1, n) if len(terms) > 1 else terms[0][2]
        y += block
        minus += [(j, (tuple((x, -b) for x, b in c), d)) for j, c, d in block]
    return tuple(y)


def full_row_conjugation(g: tuple, k: int, c: CycloElem, N: int, n: int) -> tuple:
    """The row of h o g o h^-1 for h = z + c z^(k+1) and the row g of a
    series mu z + O(z^(k+1)), over every degree: A = h o g = g + c g^(k+1)
    with g^(k+1) = z^(k+1) sum_i C(k+1,i) mu^(k+1-i) v^i, v = g/z - mu, all
    i from 0 in one kernel call, then y o h = A solved from degree 0."""
    mu = _row_coefficient(g, 1, n)
    top = min(k + 1, (N - k - 1) // k)
    coef = [_entry(c * comb(k + 1, i) * mu ** (k + 1 - i)) for i in range(top + 1)]
    M = N - k - 1
    v = tuple((t - 1, coords, den) for t, coords, den in g if 2 <= t <= M + 1)
    powers = _power_rows(v, top, M, n)
    terms = [(_UNIT, 0, g)] + [(w, k + 1, powers[i]) for i, w in enumerate(coef)]
    cell = _binomials(k, c, N)
    return _compose_elementary(_weighted_sum(terms, N, n), k, cell, N, n, solve=True)


def full_row_fold(steps, N: int, n: int) -> tuple:
    """The row of h_K o ... o h_1 for the (k, c) of the steps h_k = z + c
    z^(k+1), in increasing k: from z, right composition by each h_k, newest
    first, every degree through the kernel."""
    H = ((1, ((0, 1),), 1),)
    for k, c in reversed(steps):
        H = _compose_elementary(H, k, _binomials(k, c, N), N, n)
    return H


def terms_evaluate(p: MultiPoly, point) -> object:
    """The value of p at a point, term by term in the arithmetic of its
    Fraction or CycloElem coefficients and of the coordinates."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for x, k in zip(point, e):
            c = c * (Fraction(x) if isinstance(x, int) else x) ** k
        total = total + c
    return total


def terms_substitute(p: MultiPoly, i: int, value) -> MultiPoly:
    """p with variable i replaced by a scalar, term by term in the arithmetic
    of its Fraction or CycloElem coefficients and of the value; the checking
    constructor drops the sums that cancel."""
    out = {}
    for e, c in p.terms.items():
        key = e[:i] + (0,) + e[i + 1 :]
        c = c * (Fraction(value) if isinstance(value, int) else value) ** e[i]
        out[key] = out[key] + c if key in out else c
    return MultiPoly(p.nvars, out)
