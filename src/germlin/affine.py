"""The affine group of the complex line over exact scalars.

Maps z -> a z + b with a != 0, composed exactly, and the conjugacy-rigidity
predicate for finitely generated subgroups whose linear parts are a fixed
root of unity.

The predicate decides the following dichotomy for generators
h_i = eta z + beta_i with eta of order l > 1: the h_i are pairwise conjugate
inside the group they generate iff either l has two distinct prime divisors,
or l is a prime power and all beta_i coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import factorize, format_scalar

__all__ = [
    "AffineMap",
    "lemma_predicate",
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
