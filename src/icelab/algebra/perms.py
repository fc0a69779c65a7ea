"""Signed permutations and the antisymmetrizer.

The antisymmetrizer of a function f over an ordered argument tuple is
sum_sigma sign(sigma) * f(args permuted by sigma); it is the workhorse of
every identity check, so the permutation stream is generated once per
size and cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

MAX_SIZE = 7  # 7! = 5040 summands


@dataclass(frozen=True)
class Permutation:
    """Images of 1..s under a bijection, with its parity sign."""

    images: tuple
    sign: int

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images must be a bijection of 1..s")
        if self.sign != parity(self.images):
            raise ValueError("sign does not match the permutation parity")

    def apply(self, values: Sequence):
        return tuple(values[i - 1] for i in self.images)


def parity(images: Sequence[int]) -> int:
    """(-1)**inversions; images may be 1-based or 0-based."""
    inv = 0
    for a, b in itertools.combinations(images, 2):
        if a > b:
            inv += 1
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(s: int) -> tuple:
    """All (images, sign) pairs for S_s, in lexicographic image order."""
    return tuple(
        Permutation(images, parity(images))
        for images in itertools.permutations(range(1, s + 1))
    )


def antisymmetrize(f: Callable, values: Sequence):
    """sum over sigma of sign(sigma) * f(*values permuted by sigma).

    Works for any value type with ring arithmetic: scalars, polynomials,
    or truncated series.
    """
    s = len(values)
    if s > MAX_SIZE:
        raise ValueError(f"antisymmetrization over {s} > {MAX_SIZE} variables")
    perms = signed_permutations(s)
    total = None
    for perm in perms:
        term = f(*perm.apply(values))
        if perm.sign < 0:
            term = -term
        total = term if total is None else total + term
    return total
