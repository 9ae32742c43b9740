"""Pseudo-spectral solver for the dispersive long-wave equation.

Evolves kappa1 du/dtau + kappa2 u du/dX + kappa3 H|D|^alpha u = 0 on a
periodic grid.  The linear part is diagonal in Fourier space and is applied
exactly through an integrating factor; the quadratic term is formed in
physical space as 1/2 dX u^2 under the 2/3 dealiasing rule; time stepping is
classical four-stage Runge-Kutta on the filtered variable.  The state is the
half spectrum of the real field (bins j = 0..n/2), so each right-hand side
takes one inverse and one forward real FFT.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .specfun import AlphaParams
from .spectral import PeriodicGrid, SpectralField, dealias_mask


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
        if not 0.0 < self.dtau < math.inf:
            raise ValueError(f"dtau must be positive and finite, got "
                             f"{self.dtau}")
        if not 0.5 < self.dealias_fraction <= 2.0 / 3.0:
            raise ValueError("dealias_fraction must lie in (0.5, 2/3]")


def _linear_symbol(k: np.ndarray, params: AlphaParams) -> np.ndarray:
    # du/dtau = L u for the linear part on the half-spectrum bins (k >= 0),
    # with purely imaginary symbol i (kappa3/kappa1) k^alpha
    return 1j * (params.kappa3 / params.kappa1) * k ** params.alpha


def _advection_symbol(k: np.ndarray, mask: np.ndarray, coef: float) -> np.ndarray:
    # coef * (1/2) i k on the kept bins, times n for the unnormalised
    # transforms of the quadratic term; 0 at k = 0, so the mean is conserved
    n = 2 * (k.size - 1)
    return (0.5j * coef * n) * k * mask


def _filtered(c: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # the filtered field u, unnormalised, from its half spectrum c on a ring
    # of 2*(c.shape[-1] - 1) points, along the last axis
    return np.fft.irfft(c * mask, 2 * (c.shape[-1] - 1))


def _rhs_spectrum(c: np.ndarray, k: np.ndarray, params: AlphaParams,
                  mask: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """du/dtau on the half spectrum of an arbitrary even-length ring, along
    the last axis of c; leading axes stack spectra.  u is the filtered field
    _filtered(c, mask), formed here where the caller does not hold it."""
    # coef * P(u u_X) in the conservative form coef * P(1/2 dX u^2), with
    # d = _advection_symbol(k, mask, coef): the mask keeps 3|j| < n, so no
    # alias of u^2 lands on a kept bin and the two forms agree
    d = _advection_symbol(k, mask, -(params.kappa2 / params.kappa1))
    if u is None:
        u = _filtered(c, mask)
    return d * np.fft.rfft(u * u) + _linear_symbol(k, params) * c


def _dtau2_v_spectrum(u: np.ndarray, ut_hat: np.ndarray, k: np.ndarray,
                      params: AlphaParams, mask: np.ndarray) -> np.ndarray:
    """Half spectrum of the second tau-derivative of the primitive v
    (dX v = -u, v(0) = 0), given the filtered field u = _filtered(c, mask)
    of the profile's half spectrum c and ut_hat = _rhs_spectrum(c, k, params,
    mask), along the last axis; leading axes stack spectra.

    Differentiating the evolution equation in tau and integrating in X gives
    (kappa2/kappa1) u du/dtau - (kappa3/kappa1) |D|^(alpha-1) du/dtau, up to
    a constant fixed by anchoring the value at X = 0 to zero.
    """
    n = u.shape[-1]
    ut = _filtered(ut_hat, mask)
    g = ((params.kappa2 / params.kappa1) * n * np.fft.rfft(u * ut) * mask
         - (params.kappa3 / params.kappa1) * k ** (params.alpha - 1.0) * ut_hat)
    # the value at X = 0: bin 0 and the Nyquist bin once, the others twice
    g[..., 0] -= (g[..., 0].real + 2.0 * np.sum(g[..., 1:-1].real, axis=-1)
                  + g[..., -1].real)
    return g


def _check_cfl(c: np.ndarray, k: np.ndarray, params: AlphaParams, dtau: float):
    n = 2 * (c.size - 1)
    umax = float(np.max(np.abs(np.fft.irfft(c, n)))) * n
    number = dtau * abs(params.kappa2 / params.kappa1) * umax * float(k[-1])
    if number > 1.0:
        warnings.warn(f"advective step number {number:.2f} exceeds 1; "
                      "results may be inaccurate", RuntimeWarning, stacklevel=3)


def _run_spectrum(c: np.ndarray, k: np.ndarray, params: AlphaParams,
                  mask: np.ndarray, dtau: float, nsteps: int,
                  tau_origin: float = 0.0) -> np.ndarray:
    """Integrating-factor RK4 on the half spectrum for nsteps of (possibly
    negative) dtau; returns a new spectrum.

    The stages run on the kept bins, which dealias_mask makes a prefix, in
    held arrays: past them the advection symbol is 0, so every stage is 0
    there and a step multiplies those bins by E2 alone.  Each stage keeps
    the operations and operand order of
      s1 = N(c), s2 = N(E (c + dtau/2 s1)), s3 = N(E c + dtau/2 s2),
      s4 = N(E2 c + E (dtau s3)),
      c <- E2 c + dtau/6 (E2 s1 + 2 E (s2 + s3) + s4),
    N the nonlinear term of the filtered field, so the bits are the same."""
    n = 2 * (c.size - 1)
    K = int(np.count_nonzero(mask))
    L = _linear_symbol(k, params)
    E = np.exp(L * (dtau / 2.0))
    E2 = E * E
    d = _advection_symbol(k, mask, -(params.kappa2 / params.kappa1))[:K]
    E1, E2k, E2x = E[:K], E2[:K], 2.0 * E[:K]
    h, h6 = dtau / 2.0, dtau / 6.0
    c = np.array(c, dtype=complex)
    x = np.empty_like(c)            # E2 c, the next state
    pad = np.zeros_like(c)          # a stage's input, zero past the kept bins
    s1, s2, s3, s4, t = np.empty((5, K), dtype=complex)
    ck, xk, padk = c[:K], x[:K], pad[:K]

    def nonlin(out):
        # the quadratic term of _rhs_spectrum at the stage input in pad
        u = np.fft.irfft(pad, n)
        np.multiply(u, u, out=u)
        np.multiply(d, np.fft.rfft(u)[:K], out=out)

    for i in range(nsteps):
        padk[:] = ck
        nonlin(s1)
        np.multiply(h, s1, out=t)
        np.add(ck, t, out=t)
        np.multiply(E1, t, out=padk)
        nonlin(s2)
        np.multiply(E1, ck, out=padk)
        np.multiply(h, s2, out=t)
        np.add(padk, t, out=padk)
        nonlin(s3)
        np.multiply(E2, c, out=x)
        np.multiply(dtau, s3, out=t)
        np.multiply(E1, t, out=t)
        np.add(xk, t, out=padk)
        nonlin(s4)
        np.add(s2, s3, out=t)
        np.multiply(E2x, t, out=t)
        np.multiply(E2k, s1, out=s1)
        np.add(s1, t, out=s1)
        np.add(s1, s4, out=s1)
        np.multiply(h6, s1, out=s1)
        np.add(xk, s1, out=xk)
        c, x = x, c
        ck, xk = xk, ck
        if not np.all(np.isfinite(c)):
            raise BlowUpError("non-finite spectrum during time stepping",
                              tau=tau_origin + (i + 1) * dtau,
                              alpha=params.alpha)
    return c


def span_plan(tau: float, tau_end: float, config: BOConfig) -> list:
    """(target, steps) of each span run_to takes from tau to tau_end: one
    span to every configured checkpoint strictly between them, then one to
    tau_end.  Step counts are integers, so every target is hit exactly."""
    if not math.isfinite(tau_end):
        raise ValueError(f"tau_end must be finite, got {tau_end}")
    gap = tau_end - tau
    if gap == 0.0:
        return []
    direction = 1.0 if gap > 0 else -1.0
    inside = [t for t in config.t_checkpoint
              if (t - tau) * direction > 0 and (tau_end - t) * direction > 0]
    plan = []
    for target in sorted(inside, reverse=(direction < 0)) + [tau_end]:
        plan.append((target, max(1, math.ceil(abs(target - tau) / config.dtau
                                              - 1e-9))))
        tau = target
    return plan


def run_to(state: BOState, tau_end: float, config: BOConfig) -> list:
    """Integrate to tau_end (either direction); returns the state at the
    end of every span of span_plan, in order, none for tau_end == tau.
    The advective step number is checked at the start of every span."""
    grid = state.u.grid
    k = grid.wavenumbers
    mask = dealias_mask(grid.n, config.dealias_fraction)
    c = state.u.spectrum
    tau = state.tau
    states = []
    for target, nsteps in span_plan(state.tau, tau_end, config):
        span = target - tau
        _check_cfl(c, k, config.params, abs(span) / nsteps)
        c = _run_spectrum(c, k, config.params, mask, span / nsteps, nsteps,
                          tau_origin=tau)
        tau = target
        states.append(BOState(u=SpectralField.from_spectrum(grid, c),
                              tau=tau))
    return states


def gaussian_profile(grid: PeriodicGrid, amplitude: float = 1.0,
                     width_fraction: float = 20.0) -> SpectralField:
    """Mean-zero Gaussian bump centered mid-period, width period/width_fraction."""
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if not 0.0 < width_fraction < math.inf:
        raise ValueError(f"width_fraction must be finite and positive, got "
                         f"{width_fraction}")
    w = grid.period / width_fraction
    u = amplitude * np.exp(-((grid.nodes - grid.period / 2.0) / w) ** 2)
    u -= u.mean()
    return SpectralField.from_values(grid, u)
