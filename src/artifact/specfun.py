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

DEFAULT_TOL = 1e-10

# hard cap on series lengths so bad tolerances cannot hang the process
_MAX_TERMS = 5_000_000


# zeta's Euler-Maclaurin cutoff M, the exactly summed m < M, and
# B_2k / (2k)! for k = 1..5
_ZETA_CUTOFF = 24
_ZETA_HEAD = np.arange(1.0, _ZETA_CUTOFF)
_EM_COEFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def zeta(s: float) -> float:
    """Sum of m**(-s) over m >= 1, for s > 1.

    The terms m < M = 24 summed exactly, plus the Euler-Maclaurin tail
    M**(1-s)/(s-1) + M**(-s)/2 + sum_k B_2k/(2k)! s(s+1)...(s+2k-2)
    M**(-s-2k+1) through B_10.  The first dropped term is below 1e-21 for
    every s > 1, so the value is good to rounding.
    """
    if s <= 1.0:
        raise ValueError(f"sum diverges for s <= 1 (got s={s})")
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


def eta_riemann(alpha: float, h: float, tol: float = DEFAULT_TOL) -> float:
    """Right-endpoint rectangle-rule value of the eta integral on the grid h*m.

    Writing 1 - sinc(hm/2)**2 = 1 - 2(1 - cos(hm))/(hm)**2 termwise turns the
    sum into two zeta values plus a cosine-weighted sum, which is truncated
    where its power-law tail bound drops below tol/2.  Only the truncation is
    approximate; the identity itself is exact.
    """
    if not 1.0 < alpha < 3.0:
        raise ValueError(f"alpha must lie in (1, 3), got {alpha}")
    if h <= 0.0:
        raise ValueError("h must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lead = h ** (1.0 - alpha)
    pref = 2.0 * h ** (-alpha - 1.0)
    # sum_{m>m*} m^(-alpha-2) <= m*^(-alpha-1)/(alpha+1)
    mstar = int(math.ceil((2.0 * pref / ((alpha + 1) * tol)) ** (1.0 / (alpha + 1))))
    mstar = max(16, min(mstar, _MAX_TERMS))
    m = np.arange(1, mstar + 1, dtype=float)
    cos_sum = math.fsum(np.cos(h * m) * m ** (-alpha - 2.0))
    return lead * zeta(alpha) - pref * (zeta(alpha + 2.0) - cos_sum)


def zeta_gap(alpha: float) -> float:
    """The coercivity gap 2*zeta(alpha+1) - zeta(alpha).

    Negative below the threshold root, positive above it; its sign decides
    whether the quadratic window form is equivalent to the plain norm.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return 2.0 * zeta(alpha + 1.0) - zeta(alpha)


def find_alpha_star(lo: float = 1.3, hi: float = 1.6) -> float:
    """Root of zeta_gap, located by bisection on a sign-checked bracket
    until the midpoint is one of its ends."""
    flo = zeta_gap(lo)
    fhi = zeta_gap(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]: {flo:+.3e}, {fhi:+.3e}")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        fmid = zeta_gap(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (fhi > 0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
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
