"""Certification of irreducible presentations of germ groups.

A presentation is an ordered tuple of basic generators at one truncation
order, optionally with conjugacy witness words.  Certification checks

* the product identity  f_1 o f_2 o ... o f_m = id  (to order N),
* equality of multipliers and the order of the common multiplier,
* pairwise conjugacy inside the group: supplied witness words first, then a
  bounded breadth-first search over reduced words (value-deduplicated at
  order N).  The search letters keep one letter per distinct value of the
  generators and their inverses, and one search result serves every pair
  (i, j) with the same values of f_i and f_j.  A failed search is recorded as
  "not-found-up-to", never as a proof of non-conjugacy,
* applicability of the finiteness criterion (multiplier order 1 or a prime
  power, with every other check positive).

Presentation files are JSON::

    { "field": {"conductor": n, "constraints": ["a = 1/(1 - a)"]},
      "order": 32,
      "generators": ["z/a", "z/(a + z)"],
      "witnesses": {"(2,1)": [[1, 1], [2, 1]]} }

Constraints are solved by enumerating roots of unity; every solution yields
its own presentation, and reports are produced per solution.  The bundled
examples of :mod:`germlin.registry` are such specs and load through the same
checks, including the limits MAX_ORDER, MAX_CONDUCTOR and MAX_WORD_LETTERS.
The loader evaluates each distinct generator expression once per solution.

:func:`certify_roots` certifies the presentations of all the solutions and
searches each Galois orbit of them once.  A presentation is taken for the
image of an earlier searched one under sigma_u: zeta -> zeta^u only when
every generator equals sigma_u of the earlier generator in its position,
coefficient for coefficient.  Then the earlier search outcomes transfer, keyed
by the value pairs of the new presentation.  Each transferred found word is
checked again with :func:`check_conjugacy_witness`, and the pair is searched
if the check fails.  A transferred "not-found-up-to" is exact as it stands:
sigma_u is a field automorphism that commutes with composition and inversion
of jets and is injective, so it maps the letters, the reduced-word tree and
its deduplication of the earlier search onto those of the new one node for
node.  Witnesses and the product identity are still checked on every
solution.
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
    solve_root_constraints,
)
from .expressions import ExpressionError, series_from_string
from .germs import (
    Germ,
    Word,
    distinct_letters,
    identity_germ,
    reduced_word_search,
)
from .jets import DEFAULT_ORDER, Jet, RightComposer, jet_compose

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
# Input limits of the presentation loader: the truncation order N, and the
# conductor n, for which the field tables hold n x phi(n) integers.
MAX_ORDER = 256
MAX_CONDUCTOR = 360


class PresentationError(ValueError):
    """Raised for malformed presentation input."""


class GroupPresentation:
    """Ordered basic generators plus optional conjugacy witness words."""

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
        self.witnesses: dict[tuple[int, int], Word] = dict(witnesses or {})
        for (i, j), w in self.witnesses.items():
            self._check_index(i)
            self._check_index(j)
            if not isinstance(w, Word):
                raise PresentationError("witnesses must be Word values")
        self._composers: dict = {}
        self._inverses: dict = {}  # by generator value
        self._letters: Optional[tuple] = None

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
        """f_i^-1, cached by value: equal generators share one inverse."""
        self._check_index(i)
        g = self.gens[i - 1]
        key = g.jet.key()
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = Germ(self.composer(g).inverse())
        return inv

    def letters(self) -> tuple:
        """(letter, right composer) for f_1, f_1^-1, f_2, f_2^-1, ..., keeping
        only the first letter of each distinct order-N value; built once."""
        if self._letters is None:
            pairs = [
                (g, self.inverse_generator(idx))
                for idx, g in enumerate(self.gens, start=1)
            ]
            self._letters = tuple(
                (letter, self.composer(value))
                for letter, value in distinct_letters(pairs, lambda g: g.jet.key())
            )
        return self._letters

    def composer(self, germ: Germ) -> RightComposer:
        """Cached right-composition operator for a fixed inner germ."""
        key = germ.jet.key()
        comp = self._composers.get(key)
        if comp is None:
            comp = RightComposer(germ.jet)
            self._composers[key] = comp
        return comp


def check_product_identity(pres: GroupPresentation) -> bool:
    """True iff the ordered composition of all generators is z to order N."""
    acc = pres.gens[0].jet
    for g in pres.gens[1:]:
        acc = pres.composer(g)(acc)
    return acc == Jet.identity(pres.order, pres.conductor)


def check_conjugacy_witness(
    pres: GroupPresentation, i: int, j: int, w: Word
) -> bool:
    """True iff f_i o g = g o f_j to order N, where g is the word's value.

    The word is evaluated left to right with the presentation's cached
    inverses and right composers, so no inverse is recomputed.
    """
    pres._check_index(i)
    pres._check_index(j)
    if not isinstance(w, Word):
        w = Word.from_list(w)
    g = identity_germ(pres.order, pres.conductor).jet
    for idx, exp in w.letters:
        letter = pres.generator(idx) if exp == 1 else pres.inverse_generator(idx)
        g = pres.composer(letter)(g)
    return jet_compose(pres.generator(i).jet, g) == pres.composer(pres.generator(j))(g)


def search_conjugator(
    pres: GroupPresentation, i: int, j: int, max_len: int = DEFAULT_MAX_WORD_LEN
) -> Optional[Word]:
    """Breadth-first search for a witness word of length <= max_len.

    Words are enumerated shortest first and lexicographically by
    (generator index, sign) over :meth:`GroupPresentation.letters`, which
    keeps one letter per distinct value; candidates are deduplicated by their
    order-N jet, so only one word per group-element value is ever expanded.
    The result depends only on the values of f_i and f_j, so :func:`certify`
    shares it between pairs with equal values.  The returned word satisfies
    :func:`check_conjugacy_witness` by construction; None means only "not
    found up to max_len".
    """
    pres._check_index(i)
    pres._check_index(j)
    compose_fj = pres.composer(pres.generator(j))
    ident = identity_germ(pres.order, pres.conductor).jet
    # the payload a = f_i o h follows each node h, one right composition per node
    return reduced_word_search(
        (ident, pres.generator(i).jet),
        pres.letters(),
        Jet.key,
        lambda h, a: a == compose_fj(h),
        max_len,
    )


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
        conj = {
            f"({i},{j})": self.conjugacy[(i, j)].to_json()
            for (i, j) in sorted(self.conjugacy)
        }
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
    transferred: Optional[dict[tuple, Optional[Word]]] = None,
) -> IrreducibilityReport:
    """Run all certification checks and assemble the report.

    Witnesses are consulted first; bounded search is the fallback, run once
    per distinct (value of f_i, value of f_j) and shared by every pair with
    those values.  The finiteness criterion is marked applicable only when
    the product identity, multiplier equality, every conjugacy, and the
    prime-power condition on the multiplier order all hold.

    ``transferred`` maps such value pairs to the outcome of a search at
    ``max_len`` in a presentation of which ``pres`` is a Galois image,
    generator by generator (see :func:`certify_roots`); those pairs are not
    searched again.  A transferred word is used only if it passes the
    witness check here, and None stands as "not-found-up-to".
    """
    product_ok = check_product_identity(pres)
    mults = [g.multiplier for g in pres.gens]
    mult = mults[0]
    all_equal = all(m == mult for m in mults[1:])
    order = root_of_unity_order(mult)

    conjugacy: dict[tuple[int, int], ConjugacyResolution] = {}
    keys = [g.jet.key() for g in pres.gens]
    searched: dict[tuple, Optional[Word]] = {}  # by (value of f_i, value of f_j)
    m = len(pres.gens)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            w = _lookup_witness(pres, i, j)
            if w is not None and check_conjugacy_witness(pres, i, j, w):
                conjugacy[(i, j)] = ConjugacyResolution("verified-by-witness", word=w)
                continue
            pair = (keys[i - 1], keys[j - 1])
            if pair not in searched:
                searched[pair] = _transfer_or_search(pres, i, j, max_len, pair, transferred)
            found = searched[pair]
            if found is not None:
                conjugacy[(i, j)] = ConjugacyResolution("found-by-search", word=found)
            else:
                conjugacy[(i, j)] = ConjugacyResolution(
                    "not-found-up-to", max_len=max_len
                )

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


def _transfer_or_search(
    pres: GroupPresentation, i: int, j: int, max_len: int, pair, transferred
) -> Optional[Word]:
    if transferred and pair in transferred:
        w = transferred[pair]
        if w is None or check_conjugacy_witness(pres, i, j, w):
            return w
    return search_conjugator(pres, i, j, max_len)


def _galois_unit(earlier: GroupPresentation, pres: GroupPresentation) -> Optional[int]:
    """A unit u mod the conductor of ``pres`` such that each generator of
    ``pres`` is sigma_u of the generator of ``earlier`` in its position,
    coefficient for coefficient, or None.  Each distinct value is compared
    once."""
    n = pres.conductor
    if earlier.order != pres.order or len(earlier) != len(pres) or n % earlier.conductor:
        return None
    images: dict = {}  # earlier value -> value in pres at the same positions
    for f, g in zip(earlier.gens, pres.gens):
        if images.setdefault(f.jet.key(), g.jet.key()) != g.jet.key():
            return None
    lifted = [(tuple(c.lift(n) for c in k), image) for k, image in images.items()]
    for u in range(1, n + 1):
        if gcd(u, n) == 1 and all(
            all(c._galois(u) == d for c, d in zip(k, image)) for k, image in lifted
        ):
            return u
    return None


def certify_roots(
    presentations: Sequence[GroupPresentation], max_len: int = DEFAULT_MAX_WORD_LEN
) -> list[IrreducibilityReport]:
    """:func:`certify` on each presentation, searching each Galois orbit once.

    A presentation that is sigma_u of an earlier searched one, generator by
    generator, takes over that one's search outcomes by value pair; any
    other presentation is searched.  The reports equal those of
    :func:`certify` run on each presentation alone.
    """
    reports: list[IrreducibilityReport] = []
    searched: list[tuple[GroupPresentation, IrreducibilityReport]] = []
    for pres in presentations:
        transferred = None
        for earlier, report in searched:
            if _galois_unit(earlier, pres) is not None:
                # the value pairs of pres are the sigma_u images of the
                # earlier ones, position by position
                keys = [g.jet.key() for g in pres.gens]
                transferred = {
                    (keys[i - 1], keys[j - 1]): res.word
                    for (i, j), res in report.conjugacy.items()
                    if res.status != "verified-by-witness"
                }
                break
        report = certify(pres, max_len, transferred=transferred)
        if transferred is None:
            searched.append((pres, report))
        reports.append(report)
    return reports


# -- presentation files ---------------------------------------------------------


@dataclass
class LoadedPresentation:
    label: str
    scalars: dict[str, CycloElem]
    presentation: GroupPresentation


_PAIR_RE = re.compile(r"^\((\d+),(\d+)\)$")


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
    if not isinstance(var, str):
        raise PresentationError('field "field.var" must be a string')
    if constraints:
        solutions = solve_root_constraints(conductor, constraints, var=var)
        if not solutions:
            raise PresentationError(
                f"no root of unity of conductor {conductor} satisfies the constraints"
            )
        envs = [({var: sol}, f"{var}={format_scalar(sol)}") for sol in solutions]
    else:
        envs = [({}, "")]

    raw_witnesses = data.get("witnesses") or {}
    if not isinstance(raw_witnesses, dict):
        raise PresentationError('field "witnesses" must be a JSON object')
    witnesses = _parse_witnesses(raw_witnesses)
    out = []
    for env, label in envs:
        germs: dict[str, Germ] = {}  # by expression: repeats are evaluated once
        for idx, expr in enumerate(gens_raw, start=1):
            if not isinstance(expr, str):
                raise PresentationError(f"generator {idx} must be an expression string")
            if expr in germs:
                continue
            try:
                germs[expr] = Germ(series_from_string(expr, env, order=n_order))
            except (ExpressionError, ValueError) as exc:
                raise PresentationError(f"generator {idx} ({expr!r}): {exc}") from exc
        gens = [germs[expr] for expr in gens_raw]
        out.append(
            LoadedPresentation(
                label=label,
                scalars=dict(env),
                presentation=GroupPresentation(gens, witnesses, order=n_order),
            )
        )
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
