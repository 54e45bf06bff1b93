"""The group of germs of formal diffeomorphisms fixing 0, truncated at order N.

A germ is a jet with zero constant term and invertible linear coefficient; the
linear coefficient is the multiplier, invariant under conjugation.  Germs form
a group under composition modulo z^(N+1):

* ``f * g``   is the composition f(g(z)),
* ``~f``      is the compositional inverse,
* ``f ** n``  iterates by repeated squaring (negative n through the inverse).

All equality statements are congruences to the shared order N.

Words over the generators and one breadth-first enumerator of reduced words
(:func:`reduced_word_search`) live here too; the conjugator search of
``group_cert`` is its one client.  It takes a list of goals and grows one
tree for all of them, since the tree depends only on the letters:
``group_cert.certify`` runs one tree per root, with one goal per open pair
of classes.  Its nodes are lazy: a child is tested through a cheap
sketch when it is generated, and its full value is composed, at most once,
only when the sketch cannot rule it out for some goal or when the child is
popped from the FIFO queue, where it is deduplicated.  Where the sketch
determines the value, nothing is composed at all.
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
        lowest = jet.row[0][0] if jet.row else None  # the degree of the first term
        if lowest == 0:
            raise ValueError("a germ must fix the origin (zero constant term)")
        if lowest != 1:
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
        """The linear coefficient f'(0)."""
        return self.jet.linear_term

    def coefficient(self, k: int) -> CycloElem:
        return self.jet.coefficient(k)

    def lift(self, conductor: int) -> "Germ":
        return self if conductor == self.conductor else Germ(self.jet.lift(conductor))

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


def distinct_letters(
    pairs: Sequence, key: Callable[[object], Hashable]
) -> tuple[list, dict]:
    """The letters (1, 1), (1, -1), (2, 1), ... paired with their values,
    keeping only the first letter of each distinct value, and the map that
    takes each kept letter to the kept letter of its inverse's value.

    ``pairs`` holds (f_i, f_i^-1) for i = 1, 2, ...; ``key`` must be equal
    exactly for equal values.  An involution is its own inverse letter.  A
    dropped letter can never change a :func:`reduced_word_search`: its child
    always has the value of a child made by the earlier letter, which is
    already seen or, when that letter was skipped as a cancellation, equals
    the grandparent.
    """
    out = []
    first: dict = {}  # key -> the first letter of that value
    inverse: dict = {}
    for idx, (f, f_inv) in enumerate(pairs, start=1):
        k, k_inv = key(f), key(f_inv)
        if k not in first:
            first[k] = (idx, 1)
            out.append(((idx, 1), f))
        if k_inv not in first:
            first[k_inv] = (idx, -1)
            out.append(((idx, -1), f_inv))
        # equal values have equal inverses, so the first pair decides
        inverse.setdefault(first[k], first[k_inv])
        inverse.setdefault(first[k_inv], first[k])
    return out, inverse


def reduced_word_search(
    start: tuple,
    letters: Sequence[tuple[tuple[int, int], Callable, Callable]],
    key: Callable[[object], Hashable],
    goals: Sequence[tuple[Callable[[object], bool], Callable[[object], bool]]],
    max_len: int,
    inverse: dict,
    value_of: Optional[Callable[[object], object]] = None,
) -> list[Optional[Word]]:
    """Breadth-first search for the first reduced word of each goal.

    A node is (value, sketch); ``start`` is the node of the empty word.
    ``letters`` holds (letter, act, advance) triples: ``act`` takes a value to
    its composition with the letter on the right, and ``advance`` takes a
    node's sketch to that of its child by the letter.  A sketch is a cheap
    summary of a node.  ``goals`` holds (may_be_witness, is_witness) pairs: a
    witness of a goal is a value for which ``is_witness(value)`` holds, and
    ``may_be_witness(sketch)`` must hold for every witness; only where it
    holds, at the start node as at any other, is the node's value composed
    and ``is_witness(value)`` asked.  Words are enumerated shortest first,
    then in the order of ``letters``, skipping a letter right after its own
    inverse: ``inverse`` maps each letter to the letter of its inverse's
    value (:func:`distinct_letters`).  Such a child has its grandparent's
    value, which was tested and seen before, so the skip changes no word.  The tree depends only on
    the letters, so all goals share it: every generated node is tested
    against every open goal, a goal is dropped once it has its word, and the
    search stops when no goal is open.

    Nodes are lazy.  Every child is tested when it is generated, but it is
    queued as (word, parent value, act, sketch) and its value is composed
    when it is popped; a child composed for an exact test is queued with its
    value, so each node is composed at most once, whatever the number of
    goals.  Where every sketch determines its node's value, ``value_of``
    reads it (``act`` is then never called) and nothing is composed.  A
    popped node is deduplicated by ``key(value)`` and expanded only if its
    value is new; a child of length ``max_len`` is never queued.  Each goal's
    word equals that of the eager search that composes and deduplicates
    each child as it is generated, with that goal alone: the queue is FIFO,
    so of several equal values the first generated is the first popped, and
    the verdict depends only on the value, so a later copy's verdict is that
    of its first copy, which was tested earlier.  Returns, goal by goal, the
    first witness word of length <= max_len; None means only "not found up
    to max_len".
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    found: list[Optional[Word]] = [None] * len(goals)
    value, sketch = start
    open_goals = []  # (index, may_be_witness, is_witness), in the order of goals
    for g, (may_be_witness, is_witness) in enumerate(goals):
        if may_be_witness(sketch) and is_witness(value):
            found[g] = Word.empty()
        else:
            open_goals.append((g, may_be_witness, is_witness))
    seen: set = set()
    queue = deque([((), value, None, sketch)] if open_goals and max_len else [])
    while queue:
        word, value, pending, sketch = queue.popleft()
        if pending is not None:
            value = pending(value)  # the one full composition of the node
        k = key(value)
        if k in seen:
            continue
        seen.add(k)
        queue_children = len(word) + 1 < max_len
        cancel = inverse[word[-1]] if word else None
        for letter, act, advance in letters:
            if letter == cancel:
                continue  # skip immediate cancellation: reduced words only
            child_sketch = advance(sketch)
            new_word = word + (letter,)
            child = None if value_of is None else value_of(child_sketch)
            resolved = False
            for g, may_be_witness, is_witness in open_goals:
                if may_be_witness(child_sketch):
                    if child is None:
                        child = act(value)
                    if is_witness(child):
                        found[g] = Word(new_word)
                        resolved = True
            if resolved:
                open_goals = [goal for goal in open_goals if found[goal[0]] is None]
                if not open_goals:
                    return found
            if queue_children:
                if child is None:
                    queue.append((new_word, value, act, child_sketch))
                else:
                    queue.append((new_word, child, None, child_sketch))
    return found


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
