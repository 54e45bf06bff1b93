"""The group of germs of formal diffeomorphisms fixing 0, truncated at order N.

A germ is a jet with zero constant term and invertible linear coefficient; the
linear coefficient is the multiplier, invariant under conjugation.  Germs form
a group under composition modulo z^(N+1):

* ``f * g``   is the composition f(g(z)),
* ``~f``      is the compositional inverse,
* ``f ** n``  iterates by repeated squaring (negative n through the inverse).

All equality statements are congruences to the shared order N.

Words over the generators and one breadth-first enumerator of reduced words
(:func:`reduced_word_search`) live here too; the conjugator searches of
``group_cert`` and ``affine`` are thin wrappers around it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

from .cyclotomic import CycloElem, _power
from .jets import Jet, jet_comp_inverse, jet_compose

__all__ = [
    "Germ",
    "Word",
    "identity_germ",
    "multiplier",
    "TangencyData",
    "tangency_data",
    "conjugate",
    "evaluate_word",
    "iterate",
    "distinct_letters",
    "reduced_word_search",
]


class Germ:
    """A formal diffeomorphism germ, represented by its order-N jet."""

    __slots__ = ("jet",)

    def __init__(self, jet: Jet):
        if jet.order < 1:
            raise ValueError("a germ needs order >= 1")
        if not jet.constant_term.is_zero:
            raise ValueError("a germ must fix the origin (zero constant term)")
        if jet.linear_term.is_zero:
            raise ValueError("a germ needs an invertible linear coefficient")
        self.jet = jet

    @property
    def order(self) -> int:
        return self.jet.order

    @property
    def conductor(self) -> int:
        return self.jet.conductor

    @property
    def multiplier(self) -> CycloElem:
        return self.jet.linear_term

    def coefficient(self, k: int) -> CycloElem:
        return self.jet.coefficient(k)

    def lift(self, conductor: int) -> "Germ":
        return Germ(self.jet.lift(conductor))

    def truncate(self, order: int) -> "Germ":
        return Germ(self.jet.truncate(order))

    def is_identity(self) -> bool:
        return self.jet == Jet.identity(self.order, self.conductor)

    def __mul__(self, other: "Germ") -> "Germ":
        if not isinstance(other, Germ):
            return NotImplemented
        return Germ(jet_compose(self.jet, other.jet))

    def __invert__(self) -> "Germ":
        return Germ(jet_comp_inverse(self.jet))

    def __pow__(self, n: int) -> "Germ":
        if not isinstance(n, int):
            return NotImplemented
        return iterate(self, n)

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.jet == other.jet

    __hash__ = None  # compare across conductors; use jet.key() for dedup

    def __repr__(self):
        return f"Germ({self.jet!r})"


def identity_germ(order: int, conductor: int = 1) -> Germ:
    return Germ(Jet.identity(order, conductor))


def multiplier(f: Germ) -> CycloElem:
    """The linear coefficient f'(0)."""
    return f.multiplier


class TangencyData(NamedTuple):
    flat: bool
    k: Optional[int]
    t: Optional[CycloElem]


def tangency_data(f: Germ) -> TangencyData:
    """(flat, k, t): flat iff the multiplier is 1; k is the first index with a
    term beyond the linear part (the coefficient of z^(k+1) is t), absent when
    f is linear to its full order."""
    flat = f.multiplier.is_one
    for k in range(1, f.order):
        c = f.coefficient(k + 1)
        if not c.is_zero:
            return TangencyData(flat, k, c)
    return TangencyData(flat, None, None)


def conjugate(g: Germ, f: Germ) -> Germ:
    """g o f o g^{-1} at the common order."""
    return g * f * ~g


def iterate(f: Germ, n: int) -> Germ:
    """The n-fold composition of f, by repeated squaring."""
    if n < 0:
        return iterate(~f, -n)
    return _power(f, n, identity_germ(f.order, f.conductor))


# The most letters Word.from_list expands an input word to.
MAX_WORD_LETTERS = 1024


@dataclass(frozen=True)
class Word:
    """A word over 1-based generator indices with exponents +1 or -1."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for idx, exp in self.letters:
            if idx < 1:
                raise ValueError(f"generator indices are 1-based, got {idx}")
            if exp not in (1, -1):
                raise ValueError(f"letter exponents must be +-1, got {exp}")

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((idx, -exp) for idx, exp in reversed(self.letters)))

    @classmethod
    def empty(cls) -> "Word":
        return cls(())

    @classmethod
    def from_list(cls, letters) -> "Word":
        """A word from [index, exponent] pairs; exponent e stands for |e|
        letters of its sign.  Both entries must be ints (not bools), and the
        letters number at most MAX_WORD_LETTERS, counted before expanding."""
        if not isinstance(letters, (list, tuple)):
            raise ValueError("a word must be a list of [index, exponent] pairs")
        for letter in letters:
            if not (
                isinstance(letter, (list, tuple))
                and len(letter) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in letter)
            ):
                raise ValueError(f"letter {letter!r} is not an [index, exponent] integer pair")
        total = sum(abs(exp) for _, exp in letters)
        if total > MAX_WORD_LETTERS:
            raise ValueError(f"a word has at most {MAX_WORD_LETTERS} letters, got {total}")
        out = []
        for idx, exp in letters:
            out.extend([(idx, 1 if exp > 0 else -1)] * abs(exp))
        return cls(tuple(out))

    def to_json(self) -> list[list[int]]:
        return [[idx, exp] for idx, exp in self.letters]

    def __str__(self):
        if not self.letters:
            return "<empty>"
        return " ".join(f"f{idx}" if exp == 1 else f"f{idx}^-1" for idx, exp in self.letters)


def distinct_letters(pairs: Sequence, key: Callable[[object], Hashable]) -> list:
    """The letters (1, 1), (1, -1), (2, 1), ... paired with their values,
    keeping only the first letter of each distinct value.

    ``pairs`` holds (f_i, f_i^-1) for i = 1, 2, ...; ``key`` must be equal
    exactly for equal values.  A dropped letter can never change a
    :func:`reduced_word_search`: its child always has the value of a child
    made by the earlier letter, which is already seen or, when that letter was
    skipped as a cancellation, equals the grandparent.
    """
    out = []
    keys = set()
    for idx, pair in enumerate(pairs, start=1):
        for sign, value in zip((1, -1), pair):
            k = key(value)
            if k not in keys:
                keys.add(k)
                out.append(((idx, sign), value))
    return out


def reduced_word_search(
    start: tuple,
    letters: Sequence[tuple[tuple[int, int], Callable]],
    key: Callable[[object], Hashable],
    is_witness: Callable[[object, object], bool],
    max_len: int,
) -> Optional[Word]:
    """Breadth-first search for the first reduced word whose node is a witness.

    A node is (value, payload); ``start`` is the node of the empty word.
    ``letters`` holds (letter, act) pairs, ``act`` taking a value to its
    composition with the letter on the right; the payload is carried by the
    same act, so a payload u o v follows the node of value v for a fixed u.
    Words are enumerated shortest first, then in the order of ``letters``,
    skipping a letter right after its own inverse.  Nodes are deduplicated by
    ``key(value)``: the payload and ``is_witness(value, payload)`` are
    computed once per distinct value.  Returns the first witness word of
    length <= max_len; None means only "not found up to max_len".
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    value, payload = start
    if is_witness(value, payload):
        return Word.empty()
    seen = {key(value)}
    queue = deque([((), value, payload)])
    while queue:
        word, value, payload = queue.popleft()
        if len(word) >= max_len:
            continue
        last = word[-1] if word else None
        for letter, act in letters:
            if last is not None and letter == (last[0], -last[1]):
                continue  # skip immediate cancellation: reduced words only
            child = act(value)
            k = key(child)
            if k in seen:
                continue
            seen.add(k)
            child_payload = act(payload)
            new_word = word + (letter,)
            if is_witness(child, child_payload):
                return Word(new_word)
            queue.append((new_word, child, child_payload))
    return None


def evaluate_word(word: Word, gens: Sequence[Germ]) -> Germ:
    """Left-to-right composition of the indicated generators and inverses.

    The empty word is the identity germ.
    """
    if not isinstance(word, Word):
        word = Word.from_list(word)
    order = gens[0].order
    for g in gens:
        if g.order != order:
            raise ValueError("all generators must share one order")
    inverses: dict[int, Germ] = {}
    result = identity_germ(order, gens[0].conductor)
    for idx, exp in word.letters:
        if idx > len(gens):
            raise ValueError(f"word references generator {idx} of {len(gens)}")
        if exp == 1:
            g = gens[idx - 1]
        else:
            if idx not in inverses:
                inverses[idx] = ~gens[idx - 1]
            g = inverses[idx]
        result = result * g
    return result
