"""Scalar constants of the long-range chain and its long-wave limit.

Everything in this module is a plain function of the interaction exponent
alpha: zeta-type lattice sums, the dispersion constant eta defined by a
singular integral (evaluated in closed form), its rectangle-rule
approximant, the wave speed, the three coefficients of the effective
dispersive equation, and the exponent tables used by the scaling
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# zeta's Euler-Maclaurin cutoff M, the exactly summed m < M, and
# B_2k / (2k)! for k = 1..5
_ZETA_CUTOFF = 24
_ZETA_HEAD = np.arange(1.0, _ZETA_CUTOFF)
_EM_COEFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
# terms k = 2.._ETA_TERMS of eta_riemann's series
_ETA_TERMS = 30


def zeta(s: float) -> float:
    """Sum of m**(-s) over m >= 1, for s > 1, good to rounding."""
    if s <= 1.0:
        raise ValueError(f"sum diverges for s <= 1 (got s={s})")
    return _zeta_em(s)


def _zeta_em(s: float) -> float:
    """zeta(s) as the terms m < M = 24 summed exactly, plus the
    Euler-Maclaurin tail M**(1-s)/(s-1) + M**(-s)/2 + sum_k B_2k/(2k)!
    s(s+1)...(s+2k-2) M**(-s-2k+1) through B_10.

    The first dropped term is below 1e-21 for every s > 1, so the value is
    good to rounding there.  The sum continues zeta analytically past
    s = 1; on (-1, 1) the head and tail cancel, and it is within 1.5e-12
    relative of mpmath.
    """
    M = _ZETA_CUTOFF
    head = math.fsum(_ZETA_HEAD ** -s)
    tail = M ** (1 - s) / (s - 1) + M ** -s / 2
    rising = s      # s(s+1)...(s+2k-2)
    for k, coef in enumerate(_EM_COEFS, 1):
        tail += coef * rising * M ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return head + tail


def eta_integral(alpha: float) -> float:
    """Integral of (1 - sinc(s/2)**2) / s**alpha over (0, inf), alpha in (1, 3).

    In closed form, eta = -pi / (Gamma(alpha + 2) cos(pi alpha / 2)).  Write
    1 - sinc(s/2)**2 = 1 - 2(1 - cos s)/s**2 and integrate termwise, each
    term continued analytically in alpha: s**-alpha gives 0, and the Mellin
    transform of 1 - cos s, -Gamma(-mu) cos(pi mu / 2) on 0 < mu < 2, is
    continued to mu = alpha + 1.  The reflection formula turns
    Gamma(-alpha - 1) into the form above.  At alpha = 2 it is pi/6.
    """
    if not 1.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (1, 3), got {alpha}")
    return -math.pi / (math.gamma(alpha + 2.0) * math.cos(math.pi * alpha / 2.0))


def eta_riemann(alpha: float, h: float) -> float:
    """Right-endpoint rectangle-rule value of the eta integral on the grid
    h*m, 0 < h <= pi, by its converged Euler-Maclaurin series (Navot 1961):
    eta_h = eta + 2 sum_{k>=2} (-1)^k zeta(alpha+2-2k) h**(2k-alpha-1)/(2k)!.

    zeta(alpha - 2) comes from the continued Euler-Maclaurin sum, every
    later argument s <= -1 by reflection, zeta(s) = 2**s pi**(s-1)
    sin(pi s/2) Gamma(1-s) zeta(1-s).  Each term is about (h/2pi)**2 of the
    last, so _ETA_TERMS reach rounding: within 1e-13 relative of 40-digit
    mpmath for alpha up to 2.95.  Towards alpha = 3, eta and zeta(alpha-2)
    diverge and cancel (2e-10 off at 2.999).  Past pi the grid aliases, as
    h and 2pi - h give the same cosine sum, so such h is refused.
    """
    if not 1.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (1, 3), got {alpha}")
    if not 0.0 < h <= math.pi:
        raise ValueError(f"h must lie in (0, pi], got {h}")
    series = _zeta_em(alpha - 2.0) * h ** (3.0 - alpha) / 12.0
    # by reflection, with n = 1 - s: (-1)**k sin(pi s / 2) is
    # -sin(pi alpha / 2) and 2**s pi**(s-1) h**(2k - alpha - 1) is
    # 2 (h / 2 pi)**n
    sin_a = math.sin(math.pi * alpha / 2.0)
    for k in range(3, _ETA_TERMS + 1):
        n = 2 * k - 1 - alpha
        series -= (4.0 * sin_a * math.gamma(n) * zeta(n)
                   * (h / (2.0 * math.pi)) ** n / math.factorial(2 * k))
    return eta_integral(alpha) + series


def zeta_gap(alpha: float) -> float:
    """The coercivity gap 2*zeta(alpha+1) - zeta(alpha).

    Negative below the threshold root, positive above it; its sign decides
    whether the quadratic window form is equivalent to the plain norm.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return 2.0 * zeta(alpha + 1.0) - zeta(alpha)


def find_alpha_star() -> float:
    """Root of zeta_gap, by bisection on [1.3, 1.6], where the gap is -1.07
    and +0.325, until the midpoint is one of its ends."""
    lo, hi = 1.3, 1.6
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if zeta_gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return mid


@dataclass(frozen=True)
class AlphaParams:
    """Frozen bundle of every alpha-dependent scalar used downstream.

    c is the long-wave speed, kappa1..kappa3 the coefficients of the
    effective dispersive equation, gamma the approximation-error exponent
    and beta the residual exponent; beta - alpha = gamma always.
    """

    alpha: float
    zeta_a: float
    zeta_a1: float
    c: float
    kappa1: float
    kappa2: float
    kappa3: float
    eta: float
    gamma: float
    beta: float


def make_alpha_params(alpha: float) -> AlphaParams:
    """Evaluate every derived constant for one exponent alpha in (1, 3).

    The exponent tables are piecewise: gamma = 2*alpha - 5/2 up to and
    including alpha = 2, and 3/2 above it; beta = gamma + alpha.
    """
    if not 1.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (1, 3), got {alpha}")
    za = zeta(alpha)
    za1 = zeta(alpha + 1.0)
    eta = eta_integral(alpha)
    c = math.sqrt(alpha * (alpha + 1.0) * za)
    gamma = 2.0 * alpha - 2.5 if alpha <= 2.0 else 1.5
    return AlphaParams(
        alpha=alpha,
        zeta_a=za,
        zeta_a1=za1,
        c=c,
        kappa1=2.0 * c,
        kappa2=alpha * (alpha + 1.0) * (alpha + 2.0) * za,
        kappa3=alpha * (alpha + 1.0) * eta,
        eta=eta,
        gamma=gamma,
        beta=gamma + alpha,
    )
