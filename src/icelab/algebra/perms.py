"""Signed permutation sums: the literal antisymmetrizer and the subset DP.

The antisymmetrizer of a function f over an ordered argument tuple is
sum_sigma sign(sigma) * f(args permuted by sigma).  ``antisymmetrize``
evaluates it literally, s! calls of f in the lexicographic order of
``itertools.permutations``; it works for any kernel and keeps that
summation order, which float sums depend on.

Every exact identity kernel has a shape that lets the sum be taken over
sets instead of orderings.  ``subset_antisymmetrize`` takes the signed
sum over one ordering of 0..s-1 per index set (one or two sets) of a
product of position factors, ordered pair factors and prefix factors.
It walks a dynamic program over the bitmasks of used indices, in the
manner of Held & Karp (1962): C(2s, s) states for two sets and 2^s for
one, against (s!)^2 and s! terms.  ``subset_products`` indexes the
product of every subset by its bitmask, for prefix factors and for
``identities.subset_products_avoid_one``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .field import ONE

MAX_SIZE = 7  # 7! = 5040 summands


def parity(images: Sequence[int]) -> int:
    """(-1)**inversions; images may be 1-based or 0-based."""
    inv = 0
    for a, b in itertools.combinations(images, 2):
        if a > b:
            inv += 1
    return -1 if inv % 2 else 1


def antisymmetrize(f: Callable, values: Sequence):
    """sum over sigma of sign(sigma) * f(*values permuted by sigma), with
    sigma in lexicographic order.

    Works for any value type with ring arithmetic: scalars, polynomials,
    or truncated series.
    """
    s = len(values)
    if s > MAX_SIZE:
        raise ValueError(f"antisymmetrization over {s} > {MAX_SIZE} variables")
    total = None
    for images in itertools.permutations(range(s)):
        term = f(*(values[i] for i in images))
        if parity(images) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def subset_antisymmetrize(tables: Sequence, prefix: Callable | None = None):
    """The signed sum over one ordering sigma_i of 0..s-1 per index set i
    of the product of

    * position factors ``position_i[j][sigma_i(j)]`` for every j,
    * ordered pair factors ``pair_i[sigma_i(j)][sigma_i(k)]`` for j < k,
    * ``prefix(S_1, ..., S_m)`` for every j, where S_i is the bitmask of
      sigma_i(0..j) (omitted when ``prefix`` is None),

    each ordering counted with its sign.  ``tables`` holds one
    ``(position, pair)`` pair of s x s tables per set.

    The state after j positions is the tuple of used-index masks; its
    value is the signed sum over the orderings of those indices.  A
    position is filled one set at a time: placing v after the indices of
    mask S multiplies by position[j][v], by pair[u][v] for u in S, and by
    -1 for each u in S above v (the inversions v adds).  ``prefix`` then
    multiplies each full state once.  The sum starts from ``ONE``, so
    int entries give ``Fraction`` values, as the literal sum does."""
    s = len(tables[0][0])
    weights = [_placement_weights(position, pair) for position, pair in tables]
    values = {(0,) * len(tables): ONE}
    for _ in range(s):
        for i, weight in enumerate(weights):
            placed = {}
            for masks, value in values.items():
                mask = masks[i]
                for v, w in weight[mask].items():
                    key = masks[:i] + (mask | 1 << v,) + masks[i + 1:]
                    term = value * w
                    placed[key] = placed[key] + term if key in placed else term
            values = placed
        if prefix is not None:
            values = {masks: value * prefix(*masks) for masks, value in values.items()}
    return values[(2 ** s - 1,) * len(tables)]


def _placement_weights(position: Sequence, pair: Sequence) -> list:
    """For each mask S of placed indices, {v: the signed factor of placing
    v next}: position[|S|][v] times pair[u][v] for each u in S, negated
    when an odd number of u in S exceed v."""
    s = len(position)
    pairs = [dict.fromkeys(range(s), ONE)]       # prod of pair[u][v], u in S
    for mask in range(1, 2 ** s):
        u = mask.bit_length() - 1
        below = pairs[mask ^ 1 << u]
        pairs.append({v: p * pair[u][v] for v, p in below.items() if v != u})
    weights = []
    for mask, products in enumerate(pairs[:-1]):   # the full mask places nothing
        row = position[bin(mask).count("1")]
        weights.append({v: -(row[v] * p) if bin(mask >> v).count("1") % 2
                        else row[v] * p for v, p in products.items()})
    return weights


def subset_products(values: Sequence) -> list:
    """The product of the values in every subset, indexed by its bitmask
    (the empty product is ``ONE``)."""
    products = [ONE]
    for mask in range(1, 2 ** len(values)):
        low = mask & -mask
        products.append(products[mask ^ low] * values[low.bit_length() - 1])
    return products
