"""Certification of irreducible presentations of germ groups.

A presentation is an ordered tuple of basic generators at one truncation
order, optionally with conjugacy witness words.  Certification checks

* the product identity  f_1 o f_2 o ... o f_m = id  (to order N),
* equality of multipliers and the order of the common multiplier,
* pairwise conjugacy inside the group: supplied witness words first, then a
  bounded breadth-first search over reduced words (value-deduplicated at
  order N).  The search letters keep one letter per distinct value of the
  generators and their inverses.  Generators with equal order-N values form
  one class, numbered by its first generator (``classes``), and one search
  result serves every pair (i, j) in the same pair of classes, and so does
  one resolution and its JSON.  The search, the witness check and the
  product identity compose in the canonical sparse rows of ``jets``, so a
  node's value is a row, which is also its dedup key, and no field element
  is built on the way.  A node h is composed in full only when it is
  expanded or when f_i o h and h o f_j agree in their coefficients of
  degree <= K, which come from the parent's through the first K + 1 rows of
  the power tables; as h(0) = 0 these are the jets' own low coefficients,
  so a mismatch there is exact.  K = min(N, max(2, k_i + 1, k_j + 1)), with
  k the tangency order of f_i or f_j where it is flat.  A failed search is
  recorded as "not-found-up-to", never as a proof of non-conjugacy,
* applicability of the finiteness criterion (multiplier order 1 or a prime
  power, with every other check positive).

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

:func:`certify_roots` searches only the first root of each orbit.  Every
other root takes over its search outcomes position by position: sigma_u maps
generator i of the first root to generator i of the image, and since it is
injective the two roots have the same ``classes``, so pair (i, j) of the
image reads pair (i, j) of the first root's report.  Each transferred found
word is checked again with :func:`check_conjugacy_witness`, and the pair is
searched if the check fails.  A transferred "not-found-up-to" is exact as it
stands: sigma_u is a field automorphism that commutes with composition and
inversion of jets and is injective, so it maps the letters, the reduced-word
tree and its deduplication of the first root's search onto those of the
image node for node.  Witnesses and the product identity are still checked
on every solution.

The image also takes its tables from the first root: its right composers and
inverse generators are the sigma_u images of the first root's, mapped row by
row (``jets._map_row``), since sigma_u commutes with products and inversion.
Its product identity and witness checks run on those mapped tables.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd
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
from .jets import DEFAULT_ORDER, RightComposer, _Z_ROW, _compose_rows, _map_row

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

    ``galois_of=(first, u)`` states that generator i is sigma_u of generator
    i of the presentation ``first``, as the loader builds a Galois image; the
    right composers and inverse generators are then sigma_u of first's.
    """

    def __init__(
        self,
        gens: Sequence[Germ],
        witnesses: Optional[dict[tuple[int, int], Word]] = None,
        order: Optional[int] = None,
        *,
        galois_of: Optional[tuple["GroupPresentation", int]] = None,
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
        self._composers: dict = {}  # by row
        self._letter_composers: dict = {}  # by (class, sign)
        self._inverses: dict = {}  # by class
        self._letters: Optional[tuple] = None
        self._galois_of = (
            None if galois_of is None else (galois_of[0], galois_of[1] % conductor)
        )

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
        """f_i^-1, cached by class: equal generators share one inverse.  On a
        Galois image it is sigma_u of the first root's inverse."""
        self._check_index(i)
        c = self.classes[i - 1]
        inv = self._inverses.get(c)
        if inv is None:
            if self._galois_of is None:
                inv = Germ(self.composer(self.gens[c]).inverse())
            else:
                first, u = self._galois_of
                inv = Germ(first.inverse_generator(i).jet._galois(u))
            self._inverses[c] = inv
        return inv

    def letters(self) -> tuple:
        """(letter, right composer) for f_1, f_1^-1, f_2, f_2^-1, ..., keeping
        only the first letter of each distinct order-N value; built once,
        together with the composer of every letter."""
        if self._letters is None:
            pairs = [
                (self.letter_composer(idx, 1), self.letter_composer(idx, -1))
                for idx in range(1, len(self.gens) + 1)
            ]
            # composer() keeps one composer per order-N value, so the
            # composers' identities tell the values apart
            self._letters = tuple(distinct_letters(pairs, id))
        return self._letters

    def letter_composer(self, idx: int, sign: int) -> RightComposer:
        """The right composer of f_idx (sign 1) or f_idx^-1 (sign -1), cached
        by class and sign.  On a Galois image its power table is that of the
        first root's composer, mapped by sigma_u row by row."""
        self._check_index(idx)
        key = (self.classes[idx - 1], sign)
        comp = self._letter_composers.get(key)
        if comp is None:
            if self._galois_of is None:
                letter = self.gens[key[0]] if sign == 1 else self.inverse_generator(idx)
                comp = self.composer(letter)
            else:
                first, u = self._galois_of
                source = first.letter_composer(idx, sign)
                row = _map_row(source.rows[1], self.conductor, u)  # the letter's own row
                comp = self._composers.get(row)
                if comp is None:
                    comp = self._composers[row] = source._galois(u)
            self._letter_composers[key] = comp
        return comp

    def composer(self, germ: Germ) -> RightComposer:
        """Cached right-composition operator for a fixed inner germ."""
        row = germ.jet.row
        comp = self._composers.get(row)
        if comp is None:
            comp = self._composers[row] = RightComposer(germ.jet)
        return comp


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
    The result depends only on the values of f_i and f_j, so :func:`certify`
    shares it between pairs with equal classes.

    Nodes are the canonical rows of their order-N values (``jets``), so a
    row is its own dedup key and the exact test compares rows.  Each node h
    carries the rows to degree K of h and of f_i o h; a child h o l gets
    both from its parent's through the first K + 1 rows of the letter's
    power table (:meth:`RightComposer.prefix`).  The witness side h o f_j to
    degree K comes the same way from f_j's table.  Since h(0) = f_j(0) = 0,
    these are the exact coefficients of degree <= K of the order-N jets, so
    a mismatch of the two rows is a mismatch of the jets and rules the node
    out.  Only where they agree is h composed in full and the test completed
    exactly, f_i o h == h o f_j to order N.  K is the :func:`_filter_degree`
    of f_i and f_j.  The returned word satisfies
    :func:`check_conjugacy_witness` by construction; None means only "not
    found up to max_len".
    """
    pres._check_index(i)
    pres._check_index(j)
    N, n = pres.order, pres.conductor
    K = _filter_degree(pres.generator(i), pres.generator(j))
    fi = pres.generator(i).jet
    compose_fj = pres.letter_composer(j, 1)
    # a sketch is the pair of rows (h, f_i o h) to degree K
    letters = [
        (letter, comp.compose, lambda s, c=comp: (c.prefix(s[0], K), c.prefix(s[1], K)))
        for letter, comp in pres.letters()
    ]
    return reduced_word_search(
        (_Z_ROW, (_Z_ROW, fi.truncate(K).row)),
        letters,
        _row_key,
        lambda s: s[1] == compose_fj.prefix(s[0], K),
        lambda h: _compose_rows(fi.row, h, N, n) == compose_fj.compose(h),
        max_len,
    )


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
        # pairs that share a resolution object share its JSON dict too
        shared: dict[int, dict] = {}
        conj = {}
        for i, j in sorted(self.conjugacy):
            r = self.conjugacy[(i, j)]
            out = shared.get(id(r))
            if out is None:
                out = shared[id(r)] = r.to_json()
            conj[f"({i},{j})"] = out
        pp = None
        if self.prime_power is not None:
            pp = {"p": self.prime_power[0], "s": self.prime_power[1]}
        return {
            "product_ok": self.product_ok,
            "multiplier": format_scalar(self.multiplier),
            "multiplier_order": self.multiplier_order,
            "multipliers_all_equal": self.multipliers_all_equal,
            "conjugacy": conj,
            "theorem_a_applicable": self.theorem_a_applicable,
            "prime_power": pp,
            "certified": self.certified,
        }


def _lookup_witness(pres: GroupPresentation, i: int, j: int) -> Optional[Word]:
    w = pres.witnesses.get((i, j))
    if w is not None:
        return w
    w = pres.witnesses.get((j, i))
    if w is not None:
        # g conjugates f_j to f_i iff g^{-1} conjugates f_i to f_j
        return w.inverse()
    return None


def certify(
    pres: GroupPresentation,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    *,
    transferred: Optional[IrreducibilityReport] = None,
) -> IrreducibilityReport:
    """Run all certification checks and assemble the report.

    Witnesses are consulted first; bounded search is the fallback, run once
    per pair of classes (:attr:`GroupPresentation.classes`) and shared by
    every pair (i, j) in those classes.  The finiteness criterion is marked
    applicable only when the product identity, multiplier equality, every
    conjugacy, and the prime-power condition on the multiplier order all
    hold.

    ``transferred`` is the report at ``max_len`` of a presentation of which
    ``pres`` is a Galois image, generator by generator (see
    :func:`certify_roots`); the outcome of pair (i, j) is read from its pair
    (i, j).  A transferred word is used only if it passes the witness check
    here, else the pair is searched; a transferred "not-found-up-to" stands.
    """
    product_ok = check_product_identity(pres)
    mults = [g.multiplier for g in pres.gens]
    mult = mults[0]
    all_equal = all(m == mult for m in mults[1:])
    order = root_of_unity_order(mult)

    conjugacy: dict[tuple[int, int], ConjugacyResolution] = {}
    classes = pres.classes
    # one resolution per (class of i, class of j), shared by its pairs
    resolved: dict[tuple[int, int], ConjugacyResolution] = {}
    m = len(pres.gens)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            w = _lookup_witness(pres, i, j)
            if w is not None and check_conjugacy_witness(pres, i, j, w):
                conjugacy[(i, j)] = ConjugacyResolution("verified-by-witness", word=w)
                continue
            pair = (classes[i - 1], classes[j - 1])
            resolution = resolved.get(pair)
            if resolution is None:
                prior = transferred.conjugacy[(i, j)] if transferred else None
                # a transferred word counts only if it passes the check here;
                # a transferred not-found-up-to (no word) stands
                if prior is not None and (
                    prior.word is None or check_conjugacy_witness(pres, i, j, prior.word)
                ):
                    found = prior.word
                else:
                    found = search_conjugator(pres, i, j, max_len)
                if found is not None:
                    resolution = ConjugacyResolution("found-by-search", word=found)
                else:
                    resolution = ConjugacyResolution("not-found-up-to", max_len=max_len)
                resolved[pair] = resolution
            conjugacy[(i, j)] = resolution

    pp = prime_power_order(order) if order is not None else None
    applicable = (
        product_ok
        and all_equal
        and all(r.positive for r in conjugacy.values())
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
    """:func:`certify` on each loaded presentation, searching each Galois orbit
    of roots once.

    A presentation with ``image_of`` set is sigma_u of that earlier one,
    generator by generator, as the loader builds it; it takes over that one's
    search outcomes pair by pair.  The reports equal those of :func:`certify`
    run on each presentation alone.
    """
    reports: list[IrreducibilityReport] = []
    for item in loaded:
        first = None if item.image_of is None else reports[item.image_of]
        reports.append(certify(item.presentation, max_len, transferred=first))
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
        source = None if image_of is None else (out[image_of].presentation, u)
        pres = GroupPresentation(
            [germs[expr] for expr in gens_raw], witnesses, order=n_order, galois_of=source
        )
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
