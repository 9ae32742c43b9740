import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from artifact.specfun import (AlphaParams, eta_integral, eta_riemann,
                              find_alpha_star, make_alpha_params, zeta,
                              zeta_gap)

# classical reference values
ZETA_32 = 2.6123753486854883
ZETA_2 = math.pi ** 2 / 6.0
ZETA_3 = 1.2020569031595943
ETA_2 = math.pi / 6.0


def test_zeta_known_values():
    assert abs(zeta(1.5) - ZETA_32) < 1e-9
    assert abs(zeta(2.0) - ZETA_2) < 1e-9
    assert abs(zeta(3.0) - ZETA_3) < 1e-9
    assert abs(zeta(4.0) - math.pi ** 4 / 90.0) < 1e-9


@pytest.mark.parametrize("s", [1.0001, 1.01, 1.4788, 2.0, 2.5, 3.0, 4.0, 4.99])
def test_zeta_matches_mpmath(s):
    # the fixed-order Euler-Maclaurin sum is good to rounding, from next to
    # the pole to past the largest argument alpha + 2 that a sweep takes
    with mpmath.workdps(40):
        assert abs(zeta(s) / mpmath.zeta(s) - 1) <= 1e-15


def test_zeta_matches_brute_force_with_tail_bracket():
    # sum_{m<=M} m^-s + integral bracket: the true value lies between the
    # partial sum plus each of the two tail integrals
    s = 2.4
    M = 200000
    partial = math.fsum(m ** -s for m in range(1, M + 1))
    lo = partial + (M + 1) ** (1 - s) / (s - 1)
    hi = partial + M ** (1 - s) / (s - 1)
    val = zeta(s)
    assert lo - 2e-10 <= val <= hi + 2e-10


def test_zeta_monotone_decreasing():
    vals = [zeta(s) for s in (1.2, 1.5, 2.0, 2.5, 2.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_zeta_domain_errors():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def test_eta_integral_alpha2_analytic():
    # integration by parts of the defining integral gives pi/6 exactly
    assert abs(eta_integral(2.0) - ETA_2) < 1e-9


@pytest.mark.parametrize("alpha", [1.3, 1.6, 2.0, 2.3, 2.7])
def test_eta_integral_against_alternative_split(alpha):
    # independent quadrature of the same improper integral with the split
    # point at s = 1 instead of 2 and no hand desingularization
    def head(s):
        return (1.0 - np.sinc(s / (2.0 * np.pi)) ** 2) / s ** alpha

    head_val, head_err = integrate.quad(head, 0.0, 1.0, limit=200)
    tail_cos, tail_err = integrate.quad(
        lambda s: s ** -(alpha + 2.0), 1.0, np.inf,
        weight="cos", wvar=1.0, limit=200)
    oracle = (head_val + 1.0 / (alpha - 1.0) - 2.0 / (alpha + 1.0)
              + 2.0 * tail_cos)
    assert head_err + tail_err < 1e-7
    assert abs(eta_integral(alpha) - oracle) < 1e-7


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 2.0, 2.5, 2.9])
def test_eta_integral_matches_mpmath(alpha):
    # the defining integral at 30 digits.  On [0, 2] the integrand is a
    # power series, 1 - sinc(s/2)^2 = 2 sum_{k>=2} (-1)^k s^(2k-2)/(2k)!,
    # whose leading s^(2-alpha)/12 is integrated in closed form; on
    # [2, inf) the power-law parts are exact and 2 cos(s)/s^(alpha+2) is
    # summed period by period
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        terms = [2 * (-1) ** k / mpmath.factorial(2 * k)
                 for k in range(3, 32)]

        def head(s):
            return mpmath.fsum(t * s ** (2 * k - 2 - a)
                               for k, t in enumerate(terms, 3))

        two = mpmath.mpf(2)
        oracle = (two ** (3 - a) / (12 * (3 - a))
                  + mpmath.quad(head, [0, 1, 2])
                  + two ** (1 - a) / (a - 1) - 2 * two ** (-1 - a) / (a + 1)
                  + mpmath.quadosc(lambda s: 2 * mpmath.cos(s) / s ** (a + 2),
                                   [2, mpmath.inf], omega=1))
        assert abs(eta_integral(alpha) / oracle - 1) < 1e-13


def test_eta_integral_alpha2_is_pi_over_6_to_the_last_bit():
    assert eta_integral(2.0) == math.pi / 6.0


def test_eta_integral_domain_errors():
    with pytest.raises(ValueError):
        eta_integral(1.0)
    with pytest.raises(ValueError):
        eta_integral(3.0)


def test_eta_riemann_alpha2_step_law():
    # at alpha = 2 the discretized window constant misses the integral by
    # exactly h/24 (trapezoid-like defect of the quadratic branch)
    for h in (0.4, 0.2, 0.1, 0.05, 0.025):
        err = abs(eta_riemann(2.0, h) - ETA_2)
        assert abs(err - h / 24.0) < 1e-12 * (h / 24.0)


@pytest.mark.parametrize("alpha", [1.2, 1.6, 2.0, 2.3, 2.7])
def test_eta_riemann_matches_mpmath(alpha):
    # the rectangle rule h sum_m f(hm) written with zeta values and the
    # cosine sum Re Li_(alpha+2)(e^(ih)), at 40 digits
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for h in (math.pi, 1.0, 0.4, 0.025, 1e-3):
            x = mpmath.mpf(h)
            cos_sum = mpmath.re(mpmath.polylog(a + 2, mpmath.expj(x)))
            oracle = (x ** (1 - a) * mpmath.zeta(a)
                      - 2 * x ** (-a - 1) * (mpmath.zeta(a + 2) - cos_sum))
            assert abs(eta_riemann(alpha, h) / oracle - 1) <= 1e-13


def test_eta_riemann_converges_monotonically():
    eta = eta_integral(2.3)
    errs = [abs(eta_riemann(2.3, h) - eta) for h in (0.4, 0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_eta_riemann_domain_errors():
    with pytest.raises(ValueError):
        eta_riemann(2.0, 0.0)
    with pytest.raises(ValueError):
        eta_riemann(2.0, -0.1)
    # past pi the grid aliases: h and 2 pi - h give the same cosine sum
    eta_riemann(2.0, math.pi)
    with pytest.raises(ValueError, match="pi"):
        eta_riemann(2.0, math.pi + 1e-9)
    with pytest.raises(ValueError):
        eta_riemann(3.2, 0.1)


def test_zeta_gap_signs_and_root():
    assert zeta_gap(1.4) < 0.0
    assert zeta_gap(1.6) > 0.0
    root = find_alpha_star()
    assert 1.45 < root < 1.5
    # the 40-digit mpmath root, 1.47875078573396026..., rounded
    assert abs(root - 1.4787507857339603) < 1e-15
    assert abs(2.0 * zeta(root + 1.0) - zeta(root)) < 1e-9
    assert zeta_gap(root - 1e-4) < 0.0 < zeta_gap(root + 1e-4)


def test_make_alpha_params_identities():
    rng = np.random.default_rng(7)
    for alpha in 1.0 + 1.9 * rng.random(6):
        p = make_alpha_params(float(alpha))
        za = zeta(float(alpha))
        assert abs(p.c ** 2 - alpha * (alpha + 1.0) * za) < 1e-10 * p.c ** 2
        assert p.kappa1 == 2.0 * p.c
        assert abs(p.kappa2 - alpha * (alpha + 1.0) * (alpha + 2.0) * za) < 1e-8
        assert abs(p.kappa3 - alpha * (alpha + 1.0) * p.eta) < 1e-8
        assert p.beta == p.gamma + p.alpha


def test_make_alpha_params_exponent_branches():
    assert abs(make_alpha_params(1.8).gamma - 1.1) < 1e-12
    assert abs(make_alpha_params(2.0).gamma - 1.5) < 1e-12
    assert abs(make_alpha_params(2.5).gamma - 1.5) < 1e-12
    assert abs(make_alpha_params(1.8).beta - 2.9) < 1e-12
    assert abs(make_alpha_params(2.0).beta - 3.5) < 1e-12
    assert abs(make_alpha_params(2.5).beta - 4.0) < 1e-12


def test_make_alpha_params_alpha2_closed_forms():
    p = make_alpha_params(2.0)
    assert abs(p.c - math.pi) < 1e-10
    assert abs(p.kappa1 - 2.0 * math.pi) < 1e-9
    assert abs(p.kappa2 - 4.0 * math.pi ** 2) < 1e-8
    assert abs(p.kappa3 - math.pi) < 1e-9
    assert abs(p.eta - ETA_2) < 1e-10


def test_make_alpha_params_domain():
    for bad in (1.0, 3.0, 0.5, 3.5):
        with pytest.raises(ValueError):
            make_alpha_params(bad)


def test_alpha_params_frozen():
    p = make_alpha_params(2.0)
    assert isinstance(p, AlphaParams)
    with pytest.raises(AttributeError):
        p.c = 1.0
