"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results along a different route than the library
kernels: naive polynomial substitution instead of power-table composition,
Lagrange inversion instead of the triangular inverse solve, symbolic
chain-rule differentiation instead of series composition, and a reduced-word
search over all 2m letters with direct witness checks instead of the shared
search engine with value-deduplicated letters and results shared between
pairs, and determinants of coefficient matrices instead of the wedge kernel.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from math import factorial

from germlin.cyclotomic import CycloElem, cyclo_embed, zeta
from germlin.jets import Jet, jet_mul_inverse
from germlin.pforms import MultiPoly


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


def wedge_minors(forms) -> dict:
    """Coefficients of u_1 ^ ... ^ u_k for 1-forms u_r: the coefficient at
    the index tuple I is the I-minor det [a_(r, I_c)] of the coefficient
    matrix, expanded by the Leibniz formula over all permutations."""
    nvars = forms[0].nvars
    k = len(forms)
    out = {}
    for key in combinations(range(nvars), k):
        total = MultiPoly.zero(nvars)
        for perm in permutations(range(k)):
            inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
            term = MultiPoly.constant(nvars, (-1) ** inversions)
            for row, col in enumerate(perm):
                term = term * forms[row].coefficient((key[col],))
            total = total + term
        if not total.is_zero:
            out[key] = total
    return out
