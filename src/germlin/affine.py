"""The affine group of the complex line over exact scalars.

Maps z -> a z + b with a != 0, composed exactly; the conjugacy-rigidity
predicate for finitely generated subgroups whose linear parts are a fixed
root of unity; and a bounded breadth-first witness search.

The predicate decides the following dichotomy for generators
h_i = eta z + beta_i with eta of order l > 1: the h_i are pairwise conjugate
inside the group they generate iff either l has two distinct prime divisors,
or l is a prime power and all beta_i coincide.  The search never decides;
it only produces explicit witnesses (absence is inconclusive).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import factorize, format_scalar
from .germs import Word, distinct_letters, reduced_word_search

__all__ = [
    "AffineMap",
    "lemma_predicate",
    "affine_conjugator_search",
]


@dataclass(frozen=True)
class AffineMap:
    """The map z -> linear*z + translation, linear != 0."""

    linear: object
    translation: object

    def __post_init__(self):
        if not self.linear:
            raise ValueError("an affine map needs a nonzero linear part")

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(Fraction(1), Fraction(0))

    def __call__(self, value):
        return self.linear * value + self.translation

    def compose(self, other: "AffineMap") -> "AffineMap":
        # (a, b) o (c, d) : z -> a(cz + d) + b
        return AffineMap(
            self.linear * other.linear,
            self.linear * other.translation + self.translation,
        )

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.linear, -self.translation / self.linear)

    def key(self):
        return (self.linear, self.translation)

    def __repr__(self):
        return f"AffineMap({format_scalar(self.linear)}, {format_scalar(self.translation)})"


def lemma_predicate(l: int, betas: Sequence) -> bool:
    """Conjugacy-rigidity test for generators eta z + beta_i, ord(eta) = l > 1.

    True iff l has at least two distinct prime divisors, or l is a prime power
    and all betas are equal.
    """
    if l <= 1:
        raise ValueError("the predicate needs l > 1")
    if len(factorize(l)) >= 2:
        return True
    first = betas[0]
    return all(b == first for b in betas[1:])


def affine_conjugator_search(
    gens: Sequence[AffineMap], i: int, j: int, max_len: int
) -> Optional[Word]:
    """Bounded BFS for a word h over the generators with h_i o h = h o h_j.

    Indices are 1-based.  Words are explored shortest first, lexicographically
    by (index, sign), deduplicated by exact map value; of letters with equal
    values only the first is used, and a letter never follows the letter of
    its inverse, so an involution never follows itself.  The first witness
    found is returned.  Returning None proves nothing.
    """
    if not (1 <= i <= len(gens) and 1 <= j <= len(gens)):
        raise ValueError("generator index out of range")
    fi, fj = gens[i - 1], gens[j - 1]
    pairs = [(g, g.inverse()) for g in gens]
    # an affine composition is two scalar products: no sketch, every child
    # is composed and tested when it is generated
    distinct, inverse = distinct_letters(pairs, AffineMap.key)
    letters = [(letter, lambda h, g=g: h.compose(g), lambda s: None) for letter, g in distinct]
    (found,) = reduced_word_search(
        (AffineMap.identity(), None),
        letters,
        AffineMap.key,
        [(lambda s: True, lambda h: fi.compose(h) == h.compose(fj))],
        max_len,
        inverse,
    )
    return found
