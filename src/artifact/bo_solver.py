"""Pseudo-spectral solver for the dispersive long-wave equation.

Evolves kappa1 du/dtau + kappa2 u du/dX + kappa3 H|D|^alpha u = 0 on a
periodic grid.  The linear part is diagonal in Fourier space and is applied
exactly through an integrating factor; the quadratic term is formed in
physical space under the 2/3 dealiasing rule; time stepping is classical
four-stage Runge-Kutta on the filtered variable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .specfun import AlphaParams
from .spectral import PeriodicGrid, SpectralField, dealias_mask, sobolev_norm


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time integration."""

    def __init__(self, message, tau=None, t=None, alpha=None, epsilon=None):
        super().__init__(message)
        self.tau = tau
        self.t = t
        self.alpha = alpha
        self.epsilon = epsilon


@dataclass(frozen=True)
class BOState:
    """Solution snapshot: the field u and its slow time tau."""

    u: SpectralField
    tau: float


@dataclass(frozen=True)
class BOConfig:
    """Stepping parameters; dtau is a magnitude, direction comes from run_to."""

    params: AlphaParams
    dtau: float
    dealias_fraction: float = 2.0 / 3.0
    t_checkpoint: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.dtau <= 0.0:
            raise ValueError("dtau must be positive")
        if not 0.5 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0.5, 1]")


def _linear_symbol(k: np.ndarray, params: AlphaParams) -> np.ndarray:
    # du/dtau = L u for the linear part, with purely imaginary symbol
    return 1j * (params.kappa3 / params.kappa1) * np.sign(k) * np.abs(k) ** params.alpha


def _nonlinear_spec(c: np.ndarray, k: np.ndarray, mask: np.ndarray,
                    coef: float) -> np.ndarray:
    # coef * u u_X in spectral space, both factors and the product filtered;
    # the zero mode is projected out so the mean is conserved exactly
    n = k.size
    u = np.fft.ifft(c * mask).real * n
    ux = np.fft.ifft(1j * k * c * mask).real * n
    nl = np.fft.fft(u * ux) / n * mask
    nl[0] = 0.0
    return coef * nl


def _rhs_spectrum(c: np.ndarray, k: np.ndarray, params: AlphaParams,
                  mask: np.ndarray) -> np.ndarray:
    """du/dtau in spectral space on an arbitrary even-length ring."""
    return (_nonlinear_spec(c, k, mask, -(params.kappa2 / params.kappa1))
            + _linear_symbol(k, params) * c)


def _dtau2_v_spectrum(c: np.ndarray, k: np.ndarray, params: AlphaParams,
                      mask: np.ndarray) -> np.ndarray:
    """Second tau-derivative of the primitive v (dX v = -u, v(0) = 0).

    Differentiating the evolution equation in tau and integrating in X gives
    (kappa2/kappa1) u du/dtau - (kappa3/kappa1) |D|^(alpha-1) du/dtau, up to
    a constant fixed by anchoring the value at X = 0 to zero.
    """
    n = k.size
    ut_hat = _rhs_spectrum(c, k, params, mask)
    u = np.fft.ifft(c * mask).real * n
    ut = np.fft.ifft(ut_hat * mask).real * n
    g = ((params.kappa2 / params.kappa1) * np.fft.fft(u * ut) / n * mask
         - (params.kappa3 / params.kappa1) * np.abs(k) ** (params.alpha - 1.0) * ut_hat)
    g[0] -= np.sum(g)
    return g


def _check_cfl(c: np.ndarray, k: np.ndarray, params: AlphaParams, dtau: float):
    umax = float(np.max(np.abs(np.fft.ifft(c).real * k.size)))
    kmax = float(np.max(np.abs(k)))
    if dtau * abs(params.kappa2 / params.kappa1) * umax * kmax > 1.0:
        warnings.warn(
            f"advective step number {dtau * abs(params.kappa2 / params.kappa1) * umax * kmax:.2f} "
            "exceeds 1; results may be inaccurate", RuntimeWarning, stacklevel=3)


def _run_spectrum(c: np.ndarray, k: np.ndarray, params: AlphaParams,
                  mask: np.ndarray, dtau: float, nsteps: int,
                  tau_origin: float = 0.0) -> np.ndarray:
    """Integrating-factor RK4 for nsteps of (possibly negative) dtau."""
    L = _linear_symbol(k, params)
    E = np.exp(L * (dtau / 2.0))
    E2 = E * E
    coef = -(params.kappa2 / params.kappa1)

    def nonlin(ch):
        return _nonlinear_spec(ch, k, mask, coef)

    for i in range(nsteps):
        s1 = nonlin(c)
        s2 = nonlin(E * (c + (dtau / 2.0) * s1))
        s3 = nonlin(E * c + (dtau / 2.0) * s2)
        s4 = nonlin(E2 * c + E * (dtau * s3))
        c = E2 * c + (dtau / 6.0) * (E2 * s1 + 2.0 * E * (s2 + s3) + s4)
        if not np.all(np.isfinite(c)):
            raise BlowUpError("non-finite spectrum during time stepping",
                              tau=tau_origin + (i + 1) * dtau,
                              alpha=params.alpha)
    return c


def _monitor_row(c: np.ndarray, grid: PeriodicGrid, tau: float) -> tuple:
    f = SpectralField.from_spectrum(grid, c)
    return (tau, float(c[0].real), sobolev_norm(f, 0.0), sobolev_norm(f, 6.0))


def run_to(state: BOState, tau_end: float, config: BOConfig):
    """Integrate to tau_end (either direction); returns (state, monitor trace).

    The trace holds (tau, mean, L2 norm, H6 norm) rows at the start, at every
    configured checkpoint inside the span, and at tau_end.  Step counts per
    span are integers, so the final time is hit exactly.
    """
    grid = state.u.grid
    k = grid.wavenumbers
    mask = dealias_mask(grid.n, config.dealias_fraction)
    c = state.u.spectrum.copy()
    trace = [_monitor_row(c, grid, state.tau)]
    gap = tau_end - state.tau
    if gap == 0.0:
        return state, trace
    direction = 1.0 if gap > 0 else -1.0
    inside = [t for t in config.t_checkpoint
              if (t - state.tau) * direction > 0 and (tau_end - t) * direction > 0]
    targets = sorted(inside, reverse=(direction < 0)) + [tau_end]
    _check_cfl(c, k, config.params, config.dtau)
    tau = state.tau
    for target in targets:
        span = target - tau
        nsteps = max(1, math.ceil(abs(span) / config.dtau - 1e-9))
        c = _run_spectrum(c, k, config.params, mask, span / nsteps, nsteps,
                          tau_origin=tau)
        tau = target
        trace.append(_monitor_row(c, grid, tau))
    return BOState(u=SpectralField.from_spectrum(grid, c), tau=tau), trace


def gaussian_profile(grid: PeriodicGrid, amplitude: float = 1.0,
                     width_fraction: float = 20.0) -> SpectralField:
    """Mean-zero Gaussian bump centered mid-period, width period/width_fraction."""
    w = grid.period / width_fraction
    u = amplitude * np.exp(-((grid.nodes - grid.period / 2.0) / w) ** 2)
    u -= u.mean()
    return SpectralField.from_values(grid, u)
