"""Deterministic parameter sampling for the verification suites.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX constants,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

and every derived draw is documented here so that a report produced from
a given seed can be reproduced by any implementation:

* ``below(n)``   = (state >> 33) mod n  after one step;
* ``rational()`` = (1 + below(50)) / (1 + below(50)), reduced;
* ``uniform(a, b)`` = a + (b - a) * (state >> 11) / 2^53  after one step.

Draws that violate a pole or distinctness predicate are rejected and
logged; more than 1000 rejections for a single draw is an error.
"""

from __future__ import annotations

import logging
from typing import Callable

import mpmath

from .algebra.field import rational
from .errors import SamplingExhausted
from .identities import subset_products_avoid_one
from .lattice import HomogeneousWeights

log = logging.getLogger(__name__)

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class DeterministicRng:
    """The documented LCG; deterministic given the seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        return (self.next_u64() >> 33) % n

    def rational(self, bound: int = 50):
        """Reduced positive rational with numerator and denominator
        uniform in 1..bound."""
        return rational(1 + self.below(bound), 1 + self.below(bound))

    def uniform(self, lo, hi):
        frac = mpmath.mpf(self.next_u64() >> 11) / mpmath.mpf(1 << 53)
        return lo + (hi - lo) * frac

    def sample_until(self, draw: Callable, accept: Callable, what: str = "draw",
                     max_tries: int = 1000):
        for attempt in range(max_tries):
            value = draw()
            if accept(value):
                if attempt:
                    log.debug("%s accepted after %d rejections", what, attempt)
                return value
            log.debug("%s rejected (attempt %d)", what, attempt + 1)
        raise SamplingExhausted(f"no admissible {what} in {max_tries} tries")


def weight_triple(rng: DeterministicRng) -> HomogeneousWeights:
    """Positive rational (a, b, c) with a != b (so t != 1)."""

    def draw():
        return (rng.rational(), rng.rational(), rng.rational())

    def accept(abc):
        a, b, _ = abc
        return a != b

    a, b, c = rng.sample_until(draw, accept, "weight triple")
    return HomogeneousWeights(a, b, c)


def float_weight_triple(rng: DeterministicRng) -> HomogeneousWeights:
    """Positive real (a, b, c) in [1/2, 2] with a, b well separated."""

    def draw():
        return tuple(rng.uniform(mpmath.mpf("0.5"), mpmath.mpf(2)) for _ in range(3))

    def accept(abc):
        return abs(abc[0] - abc[1]) > mpmath.mpf("1e-2")

    a, b, c = rng.sample_until(draw, accept, "float weight triple")
    return HomogeneousWeights(a, b, c)


def distinct_rationals(rng: DeterministicRng, count: int,
                       accept_each: Callable = None,
                       accept_tuple: Callable = None) -> tuple:
    """Pairwise distinct rationals, with optional per-value and whole-tuple
    admissibility predicates."""
    values: list = []

    def draw():
        return rng.rational()

    def accept(v):
        return v not in values and (accept_each is None or accept_each(v))

    def make():
        values.clear()
        for _ in range(count):
            values.append(rng.sample_until(draw, accept, "rational value"))
        return tuple(values)

    if accept_tuple is None:
        return make()
    return rng.sample_until(make, accept_tuple, "rational tuple")


_MARGIN = mpmath.mpf("0.05")


def trig_parameters(rng: DeterministicRng, s: int, *, with_zeta: bool = False):
    """(lambdas, nus, eta[, zeta]) keeping every weight function used by
    the determinant checks away from its zeros by the documented margin."""

    def draw():
        eta = rng.uniform(mpmath.mpf("0.15"), mpmath.mpf("0.6"))
        nus = tuple(rng.uniform(mpmath.mpf("-0.3"), mpmath.mpf("0.3"))
                    for _ in range(s))
        lams = tuple(rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("2.0"))
                     for _ in range(s))
        zeta = rng.uniform(mpmath.mpf("0.1"), mpmath.mpf("0.5"))
        return lams, nus, eta, zeta

    # the separation keeps every parameter difference away from zero, but
    # it does not bound the cancellation in the determinant: det[phi]
    # shrinks to the product of all sine differences, up to 20 bits below
    # its entries at s = 5, and ik_inhomogeneous adds those bits itself
    separation = mpmath.mpf("1e-2")

    def accept(parms):
        lams, nus, eta, zeta = parms
        pi = mpmath.pi
        for j in range(s):
            for k in range(j + 1, s):
                if abs(lams[j] - lams[k]) < separation:
                    return False
                if abs(nus[j] - nus[k]) < separation:
                    return False
                for diff in (lams[k] - lams[j], lams[j] - lams[k]):
                    if abs(mpmath.sin(diff + 2 * eta)) < separation:
                        return False
        for lam in lams:
            for nu in nus:
                for arg in (lam - nu + eta, lam - nu - eta):
                    if not _MARGIN < arg < pi - _MARGIN:
                        return False
            if with_zeta:
                if abs(mpmath.sin(lam - zeta - 2 * eta)) < _MARGIN:
                    return False
        if with_zeta:
            for nu in nus:
                if abs(mpmath.sin(zeta - nu - eta)) < _MARGIN:
                    return False
        return True

    lams, nus, eta, zeta = rng.sample_until(draw, accept, "trig parameters")
    if with_zeta:
        return lams, nus, eta, zeta
    return lams, nus, eta


def asep_parameters(rng: DeterministicRng, s: int):
    """(p, z_1..z_s) with q/p a perfect rational square (t rational) and
    all subset products of the z's away from 1."""

    def draw_t():
        return rng.rational()

    t = rng.sample_until(draw_t, lambda v: v != 1, "rational t")
    p = rational(1) / (1 + t * t)

    zs = distinct_rationals(rng, s, accept_each=lambda v: v != 1,
                            accept_tuple=subset_products_avoid_one)
    return p, zs
