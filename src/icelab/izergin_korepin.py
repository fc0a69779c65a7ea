"""Determinant formulas for the DWBC partition function.

The fully inhomogeneous partition function is a prefactor times the
determinant of the matrix phi(lam_j, nu_k) = c / (a b); the homogeneous
one replaces the matrix by the tower of derivatives of phi(., 0), which
is produced here by jet arithmetic rather than symbolic differentiation.
All functions in this module work in the float backend (the entries are
sines of free parameters); callers choose the working precision with
``icelab.algebra.float_precision``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath

from .algebra.series import SeriesRing, series_sin, jet_derivative
from .errors import CoincidingParameters, PoleInPhi
from .lattice import InhomogeneousWeights, partition_function
from .report import CheckReport


@dataclass(frozen=True)
class TrigWeights:
    """The trigonometric weight functions at crossing parameter eta."""

    eta: object

    def a(self, lam, nu):
        return mpmath.sin(lam - nu + self.eta)

    def b(self, lam, nu):
        return mpmath.sin(lam - nu - self.eta)

    def c(self):
        return mpmath.sin(2 * self.eta)

    def d(self, lam, lam2):
        return mpmath.sin(lam - lam2)

    def e(self, lam, lam2):
        return mpmath.sin(lam - lam2 + 2 * self.eta)

    def phi(self, lam, nu):
        a = self.a(lam, nu)
        b = self.b(lam, nu)
        if a == 0 or b == 0:
            raise PoleInPhi(f"a or b vanishes at ({lam}, {nu})")
        return self.c() / (a * b)

    def gamma(self, xi, lam):
        """The boundary variable change; gamma(0, lam) == 1 identically."""
        return (self.a(lam, 0) * self.b(lam + xi, 0)) / \
            (self.b(lam, 0) * self.a(lam + xi, 0))


def ik_inhomogeneous(lambdas: Sequence, nus: Sequence, eta):
    """The N x N determinant representation of Z_N, evaluated as written:
    prod(a b) / (prod d(lam_k, lam_j) * prod d(nu_j, nu_k)) * det[phi].

    det[phi] cancels down to the size of the sine-difference product, so
    it is evaluated with as many extra bits as that product is small, and
    the result is rounded back to the working precision."""
    n = len(lambdas)
    if len(nus) != n:
        raise CoincidingParameters("need as many nus as lambdas")
    w = TrigWeights(eta)
    pref = mpmath.mpf(1)
    for lam in lambdas:
        for nu in nus:
            a = w.a(lam, nu)
            b = w.b(lam, nu)
            if a == 0 or b == 0:
                raise PoleInPhi(f"weight vanishes at ({lam}, {nu})")
            pref *= a * b
    spread = mpmath.mpf(1)
    for j in range(n):
        for k in range(j + 1, n):
            dl = w.d(lambdas[k], lambdas[j])
            dn = w.d(nus[j], nus[k])
            if dl == 0:
                raise CoincidingParameters(f"lambda_{j+1} == lambda_{k+1}")
            if dn == 0:
                raise CoincidingParameters(f"nu_{j+1} == nu_{k+1}")
            spread *= dl * dn
    with mpmath.extraprec(-int(mpmath.floor(mpmath.log(abs(spread), 2)))):
        matrix = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                matrix[j, k] = w.phi(lambdas[j], nus[k])
        value = pref / spread * mpmath.det(matrix)
    return +value


def phi_jet(lam, eta, order: int):
    """Taylor jet of phi(., 0) around lam: sin 2 eta / (sin(.+eta) sin(.-eta))."""
    ring = SeriesRing(("_d",), (order,))
    x = ring.var("_d") + lam
    den = series_sin(x + eta) * series_sin(x - eta)
    if den.constant_term() == 0:
        raise PoleInPhi(f"a or b vanishes at lambda={lam}")
    return den.invert() * mpmath.sin(2 * eta)


def ik_homogeneous(lam, eta, n: int):
    """Z_N of the homogeneous model: (ab)^(N^2) / prod (j!)^2 times the
    determinant of the derivative tower phi^(j+k-2)."""
    a = mpmath.sin(lam + eta)
    b = mpmath.sin(lam - eta)
    if a == 0 or b == 0:
        raise PoleInPhi(f"a or b vanishes at lambda={lam}")
    jet = phi_jet(lam, eta, 2 * n - 2)
    derivs = [jet_derivative(jet, m) for m in range(2 * n - 1)]
    matrix = mpmath.matrix(n, n)
    for j in range(n):
        for k in range(n):
            matrix[j, k] = derivs[j + k]
    pref = (a * b) ** (n * n)
    for j in range(1, n):
        pref /= mpmath.mpf(math.factorial(j)) ** 2
    return pref * mpmath.det(matrix)


def partial_inhomogeneous_relation(lambdas: Sequence, lam0, eta,
                                   tolerance: float = 1e-8) -> CheckReport:
    """Verify that the partition function with nus all zero factors into
    the homogeneous one times boundary generating data evaluated at the
    gamma-transformed spectral parameters.

    The left side comes from the transfer-matrix oracle (the determinant
    formula is singular at coinciding nus); the right side combines the
    homogeneous determinant formula with the generating polynomial built
    from boundary correlations at lam0.
    """
    from .correlations import sym_generating_at  # cycle: correlations uses lattice

    n = len(lambdas)
    w = TrigWeights(eta)
    lhs = partition_function(
        n, InhomogeneousWeights(tuple(lambdas), (mpmath.mpf(0),) * n, eta))
    gammas = tuple(w.gamma(lam - lam0, lam0) for lam in lambdas)
    if len(set(gammas)) != n:
        raise CoincidingParameters("gamma values coincide; redraw lambdas")
    from .lattice import weights_from_trig

    hom = weights_from_trig(lam0, eta)
    rhs = ik_homogeneous(lam0, eta, n)
    a0 = w.a(lam0, 0)
    for lam in lambdas:
        rhs *= (w.a(lam, 0) / a0) ** (n - 1)
    rhs *= sym_generating_at(n, n, gammas, hom)
    return CheckReport.from_comparison(
        "partition.partial_inhomogeneous_factorization",
        {"n": n, "lam0": lam0, "lambdas": lambdas},
        lhs, rhs, exact=False, tolerance=tolerance)
