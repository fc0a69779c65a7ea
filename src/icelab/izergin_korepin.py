"""Determinant formulas for the DWBC partition function.

The fully inhomogeneous partition function is a prefactor times the
determinant of the matrix phi(lam_j, nu_k) = c / (a b); the homogeneous
one replaces the matrix by the tower of derivatives of phi(., 0), which
is produced here by jet arithmetic rather than symbolic differentiation.

Every function takes its parameters in either form of
``lattice.TrigWeights``, which this module re-exports.  Exponentials
(rationals X, Y, Q) give the sigma-weights, where each formula holds
verbatim and is evaluated exactly: ``poly.det`` over the rationals, and
the derivative tower as the coefficients of an exact jet in epsilon at X
= X0 e^epsilon.  Angles (mpmath floats) give the sines, evaluated in the
float backend at the precision that callers choose with
``icelab.algebra.float_precision``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .algebra.field import mpmath, qdiv, rational
from .algebra.poly import det
from .algebra.series import SeriesRing, TruncatedSeries, series_sin, jet_derivative
from .errors import CoincidingParameters, PoleInPhi
from .lattice import (InhomogeneousWeights, TrigWeights, partition_function,
                      weights_from_trig)


def ik_inhomogeneous(lambdas: Sequence, nus: Sequence, eta):
    """The N x N determinant representation of Z_N, evaluated as written:
    prod(a b) / (prod d(lam_k, lam_j) * prod d(nu_j, nu_k)) * det[phi].

    Exact parameters give det[phi] over the rationals.  For floats det[phi]
    cancels down to the size of the sine-difference product, so it is
    evaluated with as many extra bits as that product is small, and the
    result is rounded back to the working precision."""
    n = len(lambdas)
    if len(nus) != n:
        raise CoincidingParameters("need as many nus as lambdas")
    w = TrigWeights(eta)
    pref = w.one
    products = []   # a b by (lam, nu), for the exact phi
    for lam in lambdas:
        for nu in nus:
            a = w.a(lam, nu)
            b = w.b(lam, nu)
            if a == 0 or b == 0:
                raise PoleInPhi(f"weight vanishes at ({lam}, {nu})")
            products.append(a * b)
            pref *= products[-1]
    spread = w.one
    for j in range(n):
        for k in range(j + 1, n):
            dl = w.d(lambdas[k], lambdas[j])
            dn = w.d(nus[j], nus[k])
            if dl == 0:
                raise CoincidingParameters(f"lambda_{j+1} == lambda_{k+1}")
            if dn == 0:
                raise CoincidingParameters(f"nu_{j+1} == nu_{k+1}")
            spread *= dl * dn
    if w.exact:
        c = w.c()
        return pref / spread * det([[c / ab for ab in products[j * n:(j + 1) * n]]
                                    for j in range(n)])
    with mpmath.extraprec(-int(mpmath.floor(mpmath.log(abs(spread), 2)))):
        matrix = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                matrix[j, k] = w.phi(lambdas[j], nus[k])
        value = pref / spread * mpmath.det(matrix)
    return +value


def phi_jet(lam, eta, order: int):
    """Taylor jet of phi(., 0) around lam: sin 2 eta / (sin(.+eta) sin(.-eta)).

    For an exponential X0 = lam it is the jet of f(X) = sigma(Q^2) /
    (sigma(X Q) sigma(X / Q)) at X = X0 e^epsilon, whose coefficient of
    epsilon^m is theta^m f / m! with theta = X d/dX.  Its denominator is
    X^2 + X^-2 + tau, with tau = -(Q^2 + Q^-2), and e^(2 epsilon) and
    e^(-2 epsilon) have rational coefficients, so one inversion remains."""
    w = TrigWeights(eta)
    ring = SeriesRing(("_d",), (order,))
    if w.exact:
        def exp(k, scale):   # scale e^(k epsilon)
            return TruncatedSeries(ring, {(m,): scale * rational(k ** m, math.factorial(m))
                                          for m in range(order + 1)})
        den = exp(2, lam * lam) + exp(-2, qdiv(1, lam * lam)) + w.tau()
    else:
        x = ring.var("_d") + lam
        den = series_sin(x + eta) * series_sin(x - eta)
    if den.constant_term() == 0:
        raise PoleInPhi(f"a or b vanishes at lambda={lam}")
    return den.invert() * w.c()


def ik_homogeneous(lam, eta, n: int):
    """Z_N of the homogeneous model: (ab)^(N^2) / prod (j!)^2 times the
    determinant of the derivative tower phi^(j+k-2).

    In sigma-weights d/dlam = i theta and phi = 2i f, so the tower is
    theta^(j+k-2) f and the powers of i leave 2^(N - N^2)."""
    w = TrigWeights(eta)
    a = w.a(lam, w.origin)
    b = w.b(lam, w.origin)
    if a == 0 or b == 0:
        raise PoleInPhi(f"a or b vanishes at lambda={lam}")
    jet = phi_jet(lam, eta, 2 * n - 2)
    derivs = [jet_derivative(jet, m) for m in range(2 * n - 1)]
    if w.exact:
        scale = 2 ** (n * n - n) * math.prod(map(math.factorial, range(1, n))) ** 2
        return det([derivs[j:j + n] for j in range(n)]) * (a * b) ** (n * n) / scale
    matrix = mpmath.matrix(n, n)
    for j in range(n):
        for k in range(n):
            matrix[j, k] = derivs[j + k]
    pref = (a * b) ** (n * n)
    for j in range(1, n):
        pref /= mpmath.mpf(math.factorial(j)) ** 2
    return pref * mpmath.det(matrix)


def partial_inhomogeneous_relation(lambdas: Sequence, lam0, eta):
    """The two sides of the factorization of the partition function with
    nus all at the origin into the homogeneous one times boundary
    generating data evaluated at the gamma-transformed spectral parameters.

    The left side comes from the transfer-matrix oracle (the determinant
    formula is singular at coinciding nus); the right side combines the
    homogeneous determinant formula with the generating polynomial built
    from boundary correlations at lam0.
    """
    from .correlations import sym_generating_at  # cycle: correlations uses lattice

    n = len(lambdas)
    w = TrigWeights(eta)
    lhs = partition_function(
        n, InhomogeneousWeights(tuple(lambdas), (w.origin,) * n, eta))
    gammas = tuple(w.gamma(w.minus(lam, lam0), lam0) for lam in lambdas)
    if len(set(gammas)) != n:
        raise CoincidingParameters("gamma values coincide; redraw lambdas")
    hom = weights_from_trig(lam0, eta)
    rhs = ik_homogeneous(lam0, eta, n)
    a0 = w.a(lam0, w.origin)
    for lam in lambdas:
        rhs *= (w.a(lam, w.origin) / a0) ** (n - 1)
    rhs *= sym_generating_at(n, n, gammas, hom)
    return lhs, rhs
