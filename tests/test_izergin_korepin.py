"""Determinant formulas against the transfer-matrix oracle."""

import mpmath
import pytest

from icelab.cli import SuiteConfig, run, summarize
from icelab.algebra.field import rel_err
from icelab.errors import CoincidingParameters, PoleInPhi
from icelab.izergin_korepin import (TrigWeights, ik_homogeneous,
                                    ik_inhomogeneous,
                                    partial_inhomogeneous_relation)
from icelab.lattice import (InhomogeneousWeights, partition_function,
                            weights_from_trig)
from icelab.sampling import DeterministicRng, trig_parameters

ETA = mpmath.mpf("0.3")


def test_single_site_is_c():
    z = ik_inhomogeneous([mpmath.mpf("0.8")], [mpmath.mpf("0.1")], ETA)
    assert abs(z - mpmath.sin(2 * ETA)) < mpmath.mpf("1e-15")


def test_trig_weight_function_identities():
    rng = DeterministicRng(2)
    w = TrigWeights(ETA)
    for _ in range(20):
        lam = rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("2.0"))
        nu = rng.uniform(mpmath.mpf("-0.3"), mpmath.mpf("0.3"))
        value = w.phi(lam, nu) * w.a(lam, nu) * w.b(lam, nu)
        assert abs(value - w.c()) < mpmath.mpf("1e-15")
        assert abs(w.gamma(mpmath.mpf(0), lam) - 1) < mpmath.mpf("1e-14")


def test_inhomogeneous_matches_transfer_matrix():
    # worst observed error at 53 bits is a few 1e-9 when a lambda pair sits
    # near the documented 1e-3 separation floor; the acceptance tolerance
    # is 1e-8
    rng = DeterministicRng(31)
    for _ in range(10):
        lams, nus, eta = trig_parameters(rng, 5)
        for n in (2, 3, 4, 5):
            det_val = ik_inhomogeneous(lams[:n], nus[:n], eta)
            tm_val = partition_function(
                n, InhomogeneousWeights(lams[:n], nus[:n], eta))
            assert abs(det_val - tm_val) / abs(tm_val) < mpmath.mpf("1e-8")


def test_inhomogeneous_symmetry_under_lambda_swap():
    rng = DeterministicRng(33)
    lams, nus, eta = trig_parameters(rng, 3)
    z1 = ik_inhomogeneous(lams, nus, eta)
    z2 = ik_inhomogeneous((lams[1], lams[0], lams[2]), nus, eta)
    assert abs(z1 - z2) / abs(z1) < mpmath.mpf("1e-12")


def test_inhomogeneous_rejects_coinciding_parameters():
    lam = mpmath.mpf("0.8")
    with pytest.raises(CoincidingParameters):
        ik_inhomogeneous([lam, lam], [mpmath.mpf("0.1"), mpmath.mpf("0.2")], ETA)


def test_inhomogeneous_pole_in_phi():
    # binary-exact parameters with lambda - nu - eta = 0 make b vanish
    with pytest.raises(PoleInPhi):
        ik_inhomogeneous([mpmath.mpf("0.5")], [mpmath.mpf("0.25")],
                         mpmath.mpf("0.25"))


def test_homogeneous_pole_in_phi():
    # binary-exact lambda == eta makes b = sin(lambda - eta) vanish; the
    # guard raises PoleInPhi, not the DegenerateWeights of weights_from_trig
    with pytest.raises(PoleInPhi):
        ik_homogeneous(mpmath.mpf("0.25"), mpmath.mpf("0.25"), 2)


def test_homogeneous_single_site():
    lam = mpmath.mpf("0.7")
    assert abs(ik_homogeneous(lam, ETA, 1) - mpmath.sin(2 * ETA)) \
        < mpmath.mpf("1e-15")


def test_homogeneous_matches_transfer_matrix():
    rng = DeterministicRng(37)
    for _ in range(10):
        eta = rng.uniform(mpmath.mpf("0.15"), mpmath.mpf("0.6"))
        lam = rng.uniform(eta + mpmath.mpf("0.1"), mpmath.pi - eta - mpmath.mpf("0.1"))
        w = weights_from_trig(lam, eta)
        for n in range(1, 7):
            det_val = ik_homogeneous(lam, eta, n)
            tm_val = partition_function(n, w)
            assert abs(det_val - tm_val) / abs(tm_val) < mpmath.mpf("1e-8")


def test_homogeneous_limit_of_inhomogeneous():
    # shrinking parameter spacings converge to the homogeneous value;
    # high precision absorbs the Vandermonde cancellations
    lam, eta = mpmath.mpf("0.9"), mpmath.mpf("0.3")
    with mpmath.workprec(300):
        target = ik_homogeneous(lam, eta, 4)
        errs = []
        for spacing in (mpmath.mpf("1e-3"), mpmath.mpf("1e-4")):
            lams = [lam + j * spacing for j in range(4)]
            nus = [j * spacing for j in range(4)]
            approx = ik_inhomogeneous(lams, nus, eta)
            errs.append(abs(approx - target) / abs(target))
        assert errs[1] < errs[0] / 2
        assert errs[1] < mpmath.mpf("1e-3")


def test_partial_inhomogeneous_relation_trivial_and_random():
    rng = DeterministicRng(41)
    lam0 = mpmath.mpf("0.8")
    near = [lam0 + j * mpmath.mpf("1e-9") for j in range(3)]
    assert rel_err(*partial_inhomogeneous_relation(near, lam0, ETA)) <= 1e-8
    for _ in range(5):
        lams, _, eta = trig_parameters(rng, 3)
        for n in (2, 3):
            err = rel_err(*partial_inhomogeneous_relation(lams[:n], lam0, eta))
            assert err <= 1e-8, (n, err)


def test_ill_conditioned_draw_meets_the_transfer_fold():
    # the draws of seed 204 make det[phi] cancel by about 20 bits; at the
    # working precision alone the determinant missed the fold by 6.6e-7
    code, reports = run(SuiteConfig(suites=("partition",), n_max=5, s_max=4,
                                    draws=4, seed=204))
    assert code == 0, summarize(reports)
