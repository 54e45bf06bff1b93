"""Certification of irreducible presentations of germ groups.

A presentation is an ordered tuple of basic generators at one truncation
order, optionally with conjugacy witness words.  Certification checks

* the product identity  f_1 o f_2 o ... o f_m = id  (to order N),
* equality of multipliers and the order of the common multiplier,
* pairwise conjugacy inside the group: supplied witness words first, then a
  bounded breadth-first search over reduced words (value-deduplicated at
  order N).  The search letters keep one letter per distinct value of the
  generators and their inverses, and no letter follows the letter of its
  inverse, so an involution never follows itself.  Generators with equal
  order-N values form one class, numbered by its first generator
  (``classes``), and pairs are resolved per pair of classes: one word serves
  every pair (i, j) in the same pair of classes, and so does one resolution.
  One pass over the pairs (i, j), i < j, settles each pair of classes at
  its first pair without a passing witness.  The tree of reduced words
  depends only on the letters, so a presentation grows one tree, with one
  goal per pair of classes still open, and each goal gets the first witness
  word in the tree's order, the word of a search for its pair alone.  The
  search, the witness check and the product identity compose in the
  canonical sparse rows of ``jets``, so a node's value is a row, which is
  also its dedup key, and no field element is built on the way.  A node h
  carries its coefficients of degree <= K and those of f_c o h and h o f_d
  for the classes c and d of the goals, which come from the parent's through
  the first K + 1 rows of the power tables; as h(0) = 0 these are the jets'
  own low coefficients, so a mismatch there is exact.  h is composed in full,
  at most once, only when it is expanded or when the two sides of a goal
  agree to degree K; where K = N its row to degree K is its value, and
  nothing is composed.  K is the largest min(N, max(2, k_i + 1, k_j + 1))
  over the goals, with k the tangency order of f_i or f_j where it is flat.
  A failed search is recorded as "not-found-up-to", never as a proof of
  non-conjugacy,
* applicability of the finiteness criterion (multiplier order 1 or a prime
  power, with every other check positive).

Every bundled family is generated by Mobius germs z -> a z / (1 + g z), and
such a germ is determined by its 2-jet.  An N-jet g = a_1 z + a_2 z^2 + ...
is that of a Mobius germ iff a_1 g - a_2 z g == a_1^2 z to order N, one
kernel product that divides nothing.  When every generator passes this test
and N > 2, :func:`certify` runs every check on the presentation truncated to
order 2.  Every word in Mobius germs is a Mobius germ, so two words have equal
N-jets iff they have equal 2-jets, and f_i o h = h o f_j holds to order N
iff it holds to order 2.  Hence the product identity, the classes, the
distinct letters, the search's nodes, their order and dedup, its first
witness word, every "not-found-up-to" and every witness check are those of
the order-N run, and so is the report.  At N = 1 the truncation is not
faithful.

A presentation whose generators are all rotation symmetric, each
f = z u(z^p), first runs on its quotient by z -> z^p: f maps to
F = w u(w)^p at order K + 1, K = (N - 1) // p.  p is the gcd of t - 1 over
the degrees t of every class's row, without the primes of l, the lcm of the
multiplier orders; every multiplier must be a root of unity, p >= 2 and
K + 1 < N.  The quotient is faithful:

* it is a homomorphism: for g = z v(z^p), f o g = z r(z^p) with
  r = v u(G), so the quotient of f o g is G u(G)^p = F o G;
* it respects truncation: the N-jet of such a series is its u to degree K,
  which gives the (K + 1)-jet of F; and F's (K + 1)-jet gives u to degree K
  up to a factor zeta with zeta^p = 1, the p-th root of F/w;
* its kernel in the group is the rotations zeta z with zeta^p = 1, and the
  multiplier of every word has order dividing l, so with p prime to l two
  words whose quotients agree have the same multiplier, zeta = 1.

Hence two words have equal N-jets iff their quotients have equal
(K + 1)-jets, and the report is again that of the order-N run.  The
quotient is then truncated to order 2 if it is Mobius: ex4.3 maps to
w/(1 -+ w), so it runs at order 2 for every p.  Other presentations run at
order N.

Presentation files are JSON::

    { "field": {"conductor": n, "constraints": ["a = 1/(1 - a)"]},
      "order": 32,
      "generators": ["z/a", "z/(a + z)"],
      "witnesses": {"(2,1)": [[1, 1], [2, 1]]} }

Constraints pin the scalar ``a`` (``field.var``) to roots of unity zeta^k of
the conductor; every solution yields its own presentation, and reports are
produced per solution.  The bundled examples of :mod:`germlin.registry` are
such specs and load through the same checks, including the limits MAX_ORDER,
MAX_CONDUCTOR and MAX_WORD_LETTERS.

The solutions fall into Galois orbits: zeta^k = sigma_u(zeta^d) for the
automorphism sigma_u: zeta -> zeta^u, with d the least exponent of the orbit.
The loader evaluates each distinct generator expression once, at the first
root of each orbit, and builds every other root's generators as sigma_u of
those.  sigma_u maps a jet's row entry by entry: coordinate i of an entry,
the coefficient of zeta^i, moves to zeta^(iu), read from the cached table of
the powers of zeta, and each entry is reduced once; no field element is
built.  Since the expressions have only integer literals and the one scalar,
that is what evaluating at zeta^k would give.  It records the orbit's first
root as ``image_of``.

:func:`certify_roots` certifies only the first root of each orbit.  Every
other root's report is sigma_u of its first root's, which is that report
with the image's own multiplier, and nothing is checked on the image.
That is exact: generator i of the image is sigma_u of generator i of the
first root, the witness words are the same at both, and sigma_u is an
injective field automorphism that commutes with composition and inversion
of jets.  So it maps the first root's product identity, classes, witness
checks, letters, reduced-word tree and its deduplication onto the image's,
node for node, and every verdict and word carries over.  It maps the
multiplier to one of the same order, or to no root of unity if it is none,
so the multiplier order and the prime-power test carry over too.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence

from .cyclotomic import (
    CycloElem,
    format_scalar,
    prime_power_order,
    root_of_unity_order,
    solve_root_orbits,
    zeta,
)
from .expressions import ExpressionError, series_from_string
from .germs import (
    Germ,
    Word,
    distinct_letters,
    reduced_word_search,
    tangency_data,
)
from .jets import (
    DEFAULT_ORDER,
    Jet,
    RightComposer,
    _Z_ROW,
    _compose_rows,
    _weighted_sum,
)

__all__ = [
    "GroupPresentation",
    "IrreducibilityReport",
    "ConjugacyResolution",
    "PresentationError",
    "check_product_identity",
    "check_conjugacy_witness",
    "search_conjugator",
    "certify",
    "certify_roots",
    "load_presentation_text",
    "load_presentation_file",
    "LoadedPresentation",
]

DEFAULT_MAX_WORD_LEN = 8
# The word-length bound of the command line: an unresolved search grows
# exponentially with it.
MAX_WORD_LEN = 12
# Input limits of the presentation loader: the truncation order N, and the
# conductor n, for which the field tables hold n x phi(n) integers.
MAX_ORDER = 256
MAX_CONDUCTOR = 360


class PresentationError(ValueError):
    """Raised for malformed presentation input."""


class GroupPresentation:
    """Ordered basic generators plus optional conjugacy witness words.

    The loader's Galois images are presentations like any other, but
    :func:`certify_roots` checks nothing on them: an image's report is
    sigma_u of its first root's, which is exact (see the module docstring).
    """

    def __init__(
        self,
        gens: Sequence[Germ],
        witnesses: Optional[dict[tuple[int, int], Word]] = None,
        order: Optional[int] = None,
    ):
        gens = list(gens)
        if len(gens) < 2:
            raise PresentationError("a presentation needs at least two generators")
        if order is None:
            order = gens[0].order
        conductor = 1
        for g in gens:
            if g.order != order:
                raise PresentationError("all generators must share the order")
            c = g.conductor
            conductor = conductor * c // gcd(conductor, c)
        self.order = order
        self.gens: tuple[Germ, ...] = tuple(g.lift(conductor) for g in gens)
        self.conductor = conductor
        # classes[i]: the 0-based index of the first generator whose order-N
        # value equals that of generator i + 1
        first: dict = {}
        self.classes: tuple[int, ...] = tuple(
            first.setdefault(g.jet.row, idx) for idx, g in enumerate(self.gens)
        )
        self.witnesses: dict[tuple[int, int], Word] = dict(witnesses or {})
        for (i, j), w in self.witnesses.items():
            self._check_index(i)
            self._check_index(j)
            if not isinstance(w, Word):
                raise PresentationError("witnesses must be Word values")
            for idx, _ in w.letters:
                self._check_index(idx)
        self._composers: dict = {}  # by row
        self._letter_composers: dict = {}  # by (class, sign)
        self._inverses: dict = {}  # by class
        self._letters: Optional[tuple[tuple, dict]] = None

    def _check_index(self, i: int):
        if not (1 <= i <= len(self.gens)):
            raise PresentationError(
                f"generator index {i} out of range 1..{len(self.gens)}"
            )

    def __len__(self) -> int:
        return len(self.gens)

    def generator(self, i: int) -> Germ:
        self._check_index(i)
        return self.gens[i - 1]

    def inverse_generator(self, i: int) -> Germ:
        """f_i^-1, cached by class: equal generators share one inverse."""
        self._check_index(i)
        c = self.classes[i - 1]
        inv = self._inverses.get(c)
        if inv is None:
            inv = self._inverses[c] = Germ(self.composer(self.gens[c]).inverse())
        return inv

    def letters(self) -> tuple:
        """(letter, right composer) for f_1, f_1^-1, f_2, f_2^-1, ..., keeping
        only the first letter of each distinct order-N value; built once,
        together with the composer of every letter."""
        return self._letter_table()[0]

    def _letter_table(self) -> tuple[tuple, dict]:
        """:meth:`letters` and the map from each letter to the letter of its
        inverse's value (:func:`distinct_letters`)."""
        if self._letters is None:
            pairs = [
                (self.letter_composer(idx, 1), self.letter_composer(idx, -1))
                for idx in range(1, len(self.gens) + 1)
            ]
            # composer() keeps one composer per order-N value, so the
            # composers' identities tell the values apart
            letters, inverse = distinct_letters(pairs, id)
            self._letters = (tuple(letters), inverse)
        return self._letters

    def letter_composer(self, idx: int, sign: int) -> RightComposer:
        """The right composer of f_idx (sign 1) or f_idx^-1 (sign -1), cached
        by class and sign."""
        self._check_index(idx)
        key = (self.classes[idx - 1], sign)
        comp = self._letter_composers.get(key)
        if comp is None:
            letter = self.gens[key[0]] if sign == 1 else self.inverse_generator(idx)
            comp = self._letter_composers[key] = self.composer(letter)
        return comp

    def composer(self, germ: Germ) -> RightComposer:
        """Cached right-composition operator for a fixed inner germ."""
        row = germ.jet.row
        comp = self._composers.get(row)
        if comp is None:
            comp = self._composers[row] = RightComposer(germ.jet)
        return comp

    @cached_property
    def _model(self) -> Optional["GroupPresentation"]:
        """The smallest exact model of this presentation that :func:`certify`
        knows, or None if it knows none.  First the quotient by z -> z^p when
        every generator is p-symmetric (:func:`_quotient`), then the order-2
        truncation of that quotient, or of this presentation, when every
        generator's jet, at an order above 2, is that of a Mobius germ
        (:func:`_is_mobius`, one test per class).  Each step maps words and
        jets one to one, so :func:`certify` reports the same on the model (see
        the module docstring)."""
        model = _quotient(self)
        base = self if model is None else model
        N, n = base.order, base.conductor
        if N > 2 and all(_is_mobius(base.gens[c].jet.row, N, n) for c in set(base.classes)):
            model = GroupPresentation(
                [Germ(g.jet.truncate(2)) for g in base.gens], self.witnesses, order=2
            )
        return model


def _quotient(pres: GroupPresentation) -> Optional[GroupPresentation]:
    """The quotient of a presentation by z -> z^p, or None where it does not
    apply.  p is the gcd of t - 1 over the degrees t of every class's row,
    with every prime of the lcm of the multiplier orders taken out; the
    quotient applies when p >= 2, every multiplier is a root of unity and its
    order K + 1 = (N - 1) // p + 1 is below N.  A generator f = z u(z^p), with
    u(w) = sum f_(1+pk) w^k over k <= K, maps to F = w u(w)^p at order K + 1,
    one power of u in the kernel."""
    N, n = pres.order, pres.conductor
    gens = {c: pres.gens[c] for c in set(pres.classes)}  # one per class
    p = 0
    for g in gens.values():
        for t, _, _ in g.jet.row:
            p = gcd(p, t - 1)
    if p < 2:
        return None
    ell = 1
    for g in gens.values():
        order = root_of_unity_order(g.multiplier)
        if order is None:
            return None
        ell = lcm(ell, order)
    common = gcd(p, ell)
    while common > 1:
        p //= common
        common = gcd(p, common)
    K = (N - 1) // p
    if p < 2 or K + 1 >= N:
        return None
    quotients = {}
    for c, g in gens.items():
        u = Jet._of(tuple(((t - 1) // p, coords, den) for t, coords, den in g.jet.row), K, n)
        row = tuple((k + 1, coords, den) for k, coords, den in (u**p).row)
        quotients[c] = Germ(Jet._of(row, K + 1, n))
    return GroupPresentation(
        [quotients[c] for c in pres.classes], pres.witnesses, order=K + 1
    )


def _is_mobius(row, N: int, n: int) -> bool:
    """Whether the row of a germ's N-jet g = a_1 z + a_2 z^2 + ... is that
    of a Mobius germ a_1 z / (1 - (a_2/a_1) z): the test a_1 g - a_2 z g ==
    a_1^2 z to order N, that is a_(k+1) a_1 = a_k a_2 for k = 1 .. N - 1.
    The degree-1 coefficient of the left side is a_1^2, so the test asks
    that the kernel's row of the sum holds no other entry; nothing is
    divided."""
    (_, c1, d1), *rest = row
    terms = [((c1, d1), 0, row)]
    if rest and rest[0][0] == 2:
        _, c2, d2 = rest[0]
        terms.append(((tuple((j, -b) for j, b in c2), d2), 1, row))
    return len(_weighted_sum(terms, N, n)) == 1


def check_product_identity(pres: GroupPresentation) -> bool:
    """True iff the ordered composition of all generators is z to order N."""
    acc = pres.gens[0].jet.row
    for idx in range(2, len(pres.gens) + 1):
        acc = pres.letter_composer(idx, 1).compose(acc)
    return acc == _Z_ROW


def check_conjugacy_witness(
    pres: GroupPresentation, i: int, j: int, w: Word
) -> bool:
    """True iff f_i o g = g o f_j to order N, where g is the word's value.

    The word is evaluated left to right, as a row, with the presentation's
    cached right composers, so no inverse is recomputed.
    """
    pres._check_index(i)
    pres._check_index(j)
    if not isinstance(w, Word):
        w = Word.from_list(w)
    g = _Z_ROW
    for idx, exp in w.letters:
        g = pres.letter_composer(idx, exp).compose(g)
    fi = pres.generator(i).jet.row
    N, n = pres.order, pres.conductor
    return _compose_rows(fi, g, N, n) == pres.letter_composer(j, 1).compose(g)


def search_conjugator(
    pres: GroupPresentation, i: int, j: int, max_len: int = DEFAULT_MAX_WORD_LEN
) -> Optional[Word]:
    """Breadth-first search for a witness word of length <= max_len.

    Words are enumerated shortest first and lexicographically by
    (generator index, sign) over :meth:`GroupPresentation.letters`, which
    keeps one letter per distinct value; candidates are deduplicated by their
    order-N value, so only one word per group-element value is ever expanded.
    The result depends only on the values of f_i and f_j.  This is the tree
    of :func:`_search_tree` with the one goal (i, j); :func:`certify` grows
    one tree for all of a root's open pairs of classes, and each of its goals
    gets the word that this search returns.  The returned word satisfies
    :func:`check_conjugacy_witness` by construction; None means only "not
    found up to max_len".
    """
    (found,) = _search_tree(pres, [(i, j)], max_len)
    return found


def _search_tree(
    pres: GroupPresentation, pairs: Sequence[tuple[int, int]], max_len: int
) -> list[Optional[Word]]:
    """One :func:`reduced_word_search` with one goal per pair (i, j) of
    ``pairs``, f_i o h == h o f_j to order N: the word of each goal, as
    :func:`search_conjugator` finds it for that pair alone.

    Nodes are the canonical rows of their order-N values (``jets``), so a
    row is its own dedup key and the exact test compares rows.  A node h
    carries the rows to degree K of h, of f_c o h for each class c on the i
    side of a goal, and of h o f_d for each class d on its j side; a child
    h o l gets all of them from its parent's through the first K + 1 rows of
    the power tables of l and of f_d (:meth:`RightComposer.prefix`), so h o
    f_d is composed once per node and class, whatever the number of goals.
    Since h(0) = f_d(0) = 0, these are the exact coefficients of degree <= K
    of the order-N jets, so a mismatch of the two rows of a goal is a
    mismatch of its jets and rules the node out for that goal.  Only where
    they agree is h composed in full and the goal's test completed exactly.
    K is the largest :func:`_filter_degree` of the pairs, never above N, so
    the filter holds for every witness of every goal.  Where K = N the row of
    h in the sketch is the node's value, and nothing is composed.  A goal
    with f_i = f_j needs no rows: the empty word is its witness, which the
    test of the start node finds before any child is made.
    """
    for i, j in pairs:
        pres._check_index(i)
        pres._check_index(j)
    N, n = pres.order, pres.conductor
    classes = pres.classes
    K = max(_filter_degree(pres.generator(i), pres.generator(j)) for i, j in pairs)
    left: dict[int, int] = {}  # class on the i side -> its slot in the sketch
    right: dict[int, int] = {}  # class on the j side -> its slot
    for i, j in pairs:
        if classes[i - 1] != classes[j - 1]:
            left.setdefault(classes[i - 1], len(left))
            right.setdefault(classes[j - 1], len(right))
    right_prefixes = [pres.letter_composer(d + 1, 1).prefix for d in right]

    def advance_by(prefix):
        # a sketch is (h, the rows f_c o h, the rows h o f_d), all to degree K
        def advance(s):
            h = prefix(s[0], K)
            return (
                h,
                tuple([prefix(row, K) for row in s[1]]),
                tuple([right_prefix(h, K) for right_prefix in right_prefixes]),
            )

        return advance

    goals = []
    for i, j in pairs:
        ci, cj = classes[i - 1], classes[j - 1]
        if ci == cj:
            may_be_witness = _always
        else:
            may_be_witness = lambda s, a=left[ci], b=right[cj]: s[1][a] == s[2][b]
        fi, compose_fj = pres.gens[ci].jet.row, pres.letter_composer(j, 1).compose
        goals.append(
            (
                may_be_witness,
                lambda h, fi=fi, fj=compose_fj: _compose_rows(fi, h, N, n) == fj(h),
            )
        )
    start = (
        _Z_ROW,
        tuple(pres.gens[c].jet.truncate(K).row for c in left),
        tuple(pres.gens[d].jet.truncate(K).row for d in right),
    )
    letters, inverse = pres._letter_table()
    return reduced_word_search(
        (_Z_ROW, start),
        [(letter, comp.compose, advance_by(comp.prefix)) for letter, comp in letters],
        _row_key,
        goals,
        max_len,
        inverse,
        value_of=itemgetter(0) if K == N else None,
    )


def _always(sketch) -> bool:
    return True


def _row_key(row: tuple) -> tuple:
    """A canonical row is its own dedup key."""
    return row


def _filter_degree(fi: Germ, fj: Germ) -> int:
    """K = min(N, max(2, k_i + 1, k_j + 1)), counting only the tangency
    orders k of flat generators (multiplier 1).

    A flat f = z + t z^(k+1) + ... gives f o h = h and h o f = h through
    degree k for every h, so the two sides of the witness test can first
    differ at degree k_i + 1 or k_j + 1; a smaller K would pass every node.
    """
    ks = [t.k + 1 for t in map(tangency_data, (fi, fj)) if t.flat and t.k is not None]
    return min(fi.order, max([2] + ks))


@dataclass(frozen=True)
class ConjugacyResolution:
    status: str  # "verified-by-witness" | "found-by-search" | "not-found-up-to"
    word: Optional[Word] = None
    max_len: Optional[int] = None

    @property
    def positive(self) -> bool:
        return self.status in ("verified-by-witness", "found-by-search")

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.word is not None:
            out["word"] = self.word.to_json()
        if self.max_len is not None:
            out["max_len"] = self.max_len
        return out


@dataclass
class IrreducibilityReport:
    product_ok: bool
    multiplier: CycloElem
    multiplier_order: Optional[int]
    multipliers_all_equal: bool
    conjugacy: dict[tuple[int, int], ConjugacyResolution]
    theorem_a_applicable: bool
    prime_power: Optional[tuple[Optional[int], int]] = None

    @property
    def all_conjugacies_positive(self) -> bool:
        return all(r.positive for r in self.conjugacy.values())

    @property
    def certified(self) -> bool:
        """The exit-code condition: product identity plus every pair resolved."""
        return self.product_ok and self.all_conjugacies_positive

    def to_json(self) -> dict:
        """The report as a JSON object, its pairs in sorted order.  This is
        the public form of a report: ``germlin certify`` prints each root's
        object as ``json`` encodes it, encoding each distinct resolution
        object of its ``"conjugacy"`` value once (``cli._certify_document``)."""
        conjugacy = {f"({i},{j})": r.to_json() for (i, j), r in sorted(self.conjugacy.items())}
        return self._json(conjugacy, self.certified)

    def _json(self, conjugacy, certified: bool) -> dict:
        """The report's JSON object with the given ``"conjugacy"`` value and
        ``"certified"`` flag: the one spelling of the report's layout."""
        pp = None
        if self.prime_power is not None:
            pp = {"p": self.prime_power[0], "s": self.prime_power[1]}
        return {
            "product_ok": self.product_ok,
            "multiplier": format_scalar(self.multiplier),
            "multiplier_order": self.multiplier_order,
            "multipliers_all_equal": self.multipliers_all_equal,
            "conjugacy": conjugacy,
            "theorem_a_applicable": self.theorem_a_applicable,
            "prime_power": pp,
            "certified": certified,
        }


def _witness_words(pres: GroupPresentation) -> dict[tuple[int, int], Word]:
    """The witness word of each pair (i, j), i < j, that has one: that of
    (i, j), else the inverse of that of (j, i), since g conjugates f_j to f_i
    iff g^-1 conjugates f_i to f_j."""
    words = {}
    for (i, j), w in pres.witnesses.items():
        if i < j:
            words[(i, j)] = w
        elif i > j and (j, i) not in pres.witnesses:
            words[(j, i)] = w.inverse()
    return words


def certify(
    pres: GroupPresentation, max_len: int = DEFAULT_MAX_WORD_LEN
) -> IrreducibilityReport:
    """Run all certification checks and assemble the report.

    Witnesses are consulted first; bounded search is the fallback.  Pairs
    are resolved per pair of classes (:attr:`GroupPresentation.classes`):
    the pairs without a passing witness share their class pair's
    resolution, which is settled once, at the first of them, in one pass
    over the pairs (i, j), i < j.  One search tree serves the presentation
    (:func:`_search_tree`), with one goal per class pair still open.  The
    finiteness criterion is marked applicable only when the product
    identity, multiplier equality, every conjugacy, and the prime-power
    condition on the multiplier order all hold.  :func:`certify_roots` runs
    it on the first root of each Galois orbit only; the other roots'
    reports are sigma_u of that one's and are not checked again.

    When the presentation has an exact smaller model
    (:attr:`GroupPresentation._model`: its quotient by z -> z^p, its order-2
    truncation, or both), every check but those of the multipliers runs on
    the model, which gives the same report: the same classes, letters,
    search trees, words and verdicts as at order N.  The multipliers are
    read from ``pres`` itself, one per class, as the quotient raises them to
    the p-th power.
    """
    # the quotient raises multipliers to the p-th power, so they are read
    # here, one per class; class 0 is that of the first generator
    mult = pres.gens[0].multiplier
    all_equal = all(pres.gens[c].multiplier == mult for c in set(pres.classes) - {0})
    order = root_of_unity_order(mult)
    model = pres._model
    if model is not None:
        pres = model
    product_ok = check_product_identity(pres)

    verified = {
        (i, j): ConjugacyResolution("verified-by-witness", word=w)
        for (i, j), w in sorted(_witness_words(pres).items())
        if check_conjugacy_witness(pres, i, j, w)
    }
    m, classes = len(pres.gens), pres.classes
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    class_pairs = [(classes[i - 1], classes[j - 1]) for i, j in pairs]
    # each class pair is settled at its first pair without a passing witness
    firsts: dict = {}
    for pair, class_pair in zip(pairs, class_pairs):
        if pair not in verified:
            firsts.setdefault(class_pair, pair)
    # one tree, with a goal at the first open pair of each class pair
    words = _search_tree(pres, list(firsts.values()), max_len) if firsts else []
    resolved = {
        class_pair: ConjugacyResolution("found-by-search", word=word)
        if word is not None
        else ConjugacyResolution("not-found-up-to", max_len=max_len)
        for class_pair, word in zip(firsts, words)
    }
    conjugacy = {
        pair: verified[pair] if pair in verified else resolved[class_pair]
        for pair, class_pair in zip(pairs, class_pairs)
    }

    pp = prime_power_order(order) if order is not None else None
    applicable = (
        product_ok
        and all_equal
        and all(r.positive for r in resolved.values())
        and pp is not None
    )
    return IrreducibilityReport(
        product_ok=product_ok,
        multiplier=mult,
        multiplier_order=order,
        multipliers_all_equal=all_equal,
        conjugacy=conjugacy,
        theorem_a_applicable=applicable,
        prime_power=pp if applicable else None,
    )


def certify_roots(
    loaded: Sequence["LoadedPresentation"], max_len: int = DEFAULT_MAX_WORD_LEN
) -> list[IrreducibilityReport]:
    """:func:`certify` on the first root of each Galois orbit; every other
    root's report is its first root's with its own multiplier.

    A presentation with ``image_of`` set is sigma_u of that earlier one,
    generator by generator, as the loader builds it, and nothing is checked
    on it: sigma_u is an injective field automorphism that commutes with
    composition and inversion of jets, so it maps every check of the first
    root onto the same check of the image (see the module docstring).  The
    reports equal those of :func:`certify` run on each presentation alone.
    """
    reports: list[IrreducibilityReport] = []
    for item in loaded:
        if item.image_of is None:
            report = certify(item.presentation, max_len)
        else:
            first = reports[item.image_of]
            multiplier = item.presentation.gens[0].multiplier
            report = replace(first, multiplier=multiplier, conjugacy=dict(first.conjugacy))
        reports.append(report)
    return reports


# -- presentation files ---------------------------------------------------------


@dataclass
class LoadedPresentation:
    label: str
    scalars: dict[str, CycloElem]
    presentation: GroupPresentation
    # index of the first root of this root's Galois orbit; None for a first root
    image_of: Optional[int] = None


_PAIR_RE = re.compile(r"^\((\d+),(\d+)\)$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _bounded_int(value, name: str, cap: int) -> int:
    # JSON true and false load as bool, a subclass of int
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise PresentationError(f'field "{name}" must be a positive integer')
    if value > cap:
        raise PresentationError(f'field "{name}" must be at most {cap}')
    return value


def _parse_witnesses(raw: dict) -> dict[tuple[int, int], Word]:
    out: dict[tuple[int, int], Word] = {}
    for key, letters in raw.items():
        m = _PAIR_RE.match(key.replace(" ", ""))
        if not m:
            raise PresentationError(f"bad witness key {key!r}; expected \"(i,j)\"")
        try:
            word = Word.from_list(letters)
        except (TypeError, ValueError) as exc:
            raise PresentationError(f"bad witness word for {key}: {exc}") from exc
        out[(int(m.group(1)), int(m.group(2)))] = word
    return out


def load_presentation_text(
    text: str, order: Optional[int] = None
) -> list[LoadedPresentation]:
    """Parse presentation JSON; one result per solution of the constraints."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationError(f"invalid JSON: {exc}") from exc
    return _load_presentation_data(data, order)


def _load_presentation_data(data, order: Optional[int]) -> list[LoadedPresentation]:
    """The presentations of a decoded file or registry spec; a given
    ``order`` overrides the spec's."""
    if not isinstance(data, dict):
        raise PresentationError("presentation file must hold a JSON object")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list) or len(gens_raw) < 2:
        raise PresentationError('field "generators" must list at least two expressions')
    n_order = order if order is not None else data.get("order", DEFAULT_ORDER)
    _bounded_int(n_order, "order", MAX_ORDER)

    field_spec = data.get("field") or {}
    if not isinstance(field_spec, dict):
        raise PresentationError('field "field" must be a JSON object')
    conductor = _bounded_int(field_spec.get("conductor", 1), "field.conductor", MAX_CONDUCTOR)
    constraints = field_spec.get("constraints", [])
    if isinstance(constraints, str):
        constraints = [constraints]
    if not isinstance(constraints, list) or not all(isinstance(c, str) for c in constraints):
        raise PresentationError('field "field.constraints" must list equation strings')
    var = field_spec.get("var", "a")
    # z is the series variable, so a scalar named z would never reach a generator
    if not (isinstance(var, str) and _NAME_RE.fullmatch(var)) or var == "z":
        raise PresentationError('field "field.var" must be a name other than "z"')
    if constraints:
        roots = solve_root_orbits(conductor, constraints, var=var)
        if not roots:
            raise PresentationError(
                f"no root of unity of conductor {conductor} satisfies the constraints"
            )
    else:
        roots = [(None, None, 1)]  # one presentation, no scalar

    raw_witnesses = data.get("witnesses") or {}
    if not isinstance(raw_witnesses, dict):
        raise PresentationError('field "witnesses" must be a JSON object')
    witnesses = _parse_witnesses(raw_witnesses)
    out: list[LoadedPresentation] = []
    orbits: dict = {}  # least exponent d -> (index of its first root, its germs)
    for k, d, u in roots:
        env = {} if k is None else {var: zeta(conductor) ** k}
        if k != d:
            image_of, first = orbits[d]
            germs = {expr: Germ(g.jet._galois(u)) for expr, g in first.items()}
        else:
            image_of, germs = None, {}  # by expression: repeats are evaluated once
            orbits[d] = (len(out), germs)
            for idx, expr in enumerate(gens_raw, start=1):
                if not isinstance(expr, str):
                    raise PresentationError(f"generator {idx} must be an expression string")
                if expr in germs:
                    continue
                try:
                    germs[expr] = Germ(series_from_string(expr, env, order=n_order))
                except (ExpressionError, ValueError) as exc:
                    raise PresentationError(f"generator {idx} ({expr!r}): {exc}") from exc
        label = f"{var}={format_scalar(env[var])}" if env else ""
        pres = GroupPresentation([germs[expr] for expr in gens_raw], witnesses, order=n_order)
        out.append(LoadedPresentation(label, env, pres, image_of))
    return out


def load_presentation_file(
    path: str, order: Optional[int] = None
) -> list[LoadedPresentation]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PresentationError(f"cannot read {path}: {exc}") from exc
    return load_presentation_text(text, order=order)
