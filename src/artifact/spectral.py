"""Real periodic fields held as discrete spectra, spectral resampling and
the window-mean symbol.

A spectrum is the half spectrum rfft(values)/n: bins j = 0..n/2 at the
wavenumbers k_j = 2*pi*j/period >= 0, so a unit constant field has spectrum
(1, 0, ..., 0).  Bin j stands for the mode pair exp(+-i*k_j*X) of the real
field; the top bin j = n/2 is the unpaired mode, which resample_spectrum
splits half-and-half between +n/2 and -n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def wavenumbers(n: int, period: float) -> np.ndarray:
    """Wavenumbers 2*pi*j/period of the half-spectrum bins j = 0..n/2."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)


def dealias_mask(n: int, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean mask over the half-spectrum bins j = 0..n/2 keeping
    j <= fraction*(n/2) and 3j < n.

    The cap makes the quadratic product alias-free: with every kept
    |j| <= K and 3K < n, each alias of a product lands at |j| >= n - 2K > K,
    outside the mask.
    """
    j = np.arange(n // 2 + 1)
    return (j <= fraction * (n // 2)) & (3 * j < n)


def resample_spectrum(c: np.ndarray, num: int) -> np.ndarray:
    """Half spectrum on num points (num even) of the field with half
    spectrum c on n = 2*(c.shape[-1] - 1) points, along the last axis of c;
    leading axes stack fields, each resampled as on its own.

    Each bin j < n/2 stands for the modes +j and -j, and the top bin for
    +n/2 and -n/2 with half its weight each.  The modes land on their bins
    modulo num: refining zero-pads, and coarsening aliases, which is exact
    at the num points.  At num >= n no two modes share a bin but the top
    pair at num = n, so the bins are added into zeros directly, in the
    order a scatter adds them, to the last bit and signed zero.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim == 0 or c.shape[-1] < 2 or num < 2 or num % 2:
        raise ValueError("spectrum lengths must be even and at least 2")
    half = c.shape[-1] - 1
    out = np.zeros(c.shape[:-1] + (num // 2 + 1,), dtype=complex)
    if num >= 2 * half:
        out[..., :half] += c[..., :half]
        out[..., half] += c[..., half] * 0.5
        if num == 2 * half:
            out[..., half] += np.conj(c[..., half]) * 0.5
        return out
    modes = np.concatenate([np.arange(half + 1), -np.arange(1, half + 1)])
    weights = np.concatenate([c, np.conj(c[..., 1:])], axis=-1)
    weights[..., half] *= 0.5
    weights[..., -1] *= 0.5
    bins = modes % num
    kept = bins <= num // 2
    np.add.at(out, (..., bins[kept]), weights[..., kept])
    return out


def sample_spectrum(c: np.ndarray, period: float, num: int, shift=0.0
                    ) -> np.ndarray:
    """Values of the field with half spectrum c at the num uniform points
    j*period/num + shift (num even), along the last axis of c; a shift with
    the leading shape of c shifts each stacked field by its own."""
    c = np.asarray(c, dtype=complex)
    shift = np.asarray(shift, dtype=float)
    if np.any(shift != 0.0):
        c = c * np.exp(1j * wavenumbers(2 * (c.shape[-1] - 1), period)
                       * shift[..., None])
    return np.fft.irfft(resample_spectrum(c, num), num) * num


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of n nodes (a power of two, at least 8) on [0, period)."""

    period: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be finite and positive, got "
                             f"{self.period}")
        if self.n < 8 or not _is_pow2(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.period / self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return wavenumbers(self.n, self.period)


class SpectralField:
    """A real field on a PeriodicGrid, held as its half spectrum; values
    are transformed from it on access.

    Construct through from_values or from_spectrum and treat instances as
    immutable.
    """

    __slots__ = ("grid", "spectrum")

    def __init__(self, grid: PeriodicGrid, spectrum: np.ndarray):
        self.grid = grid
        self.spectrum = spectrum

    @classmethod
    def from_values(cls, grid: PeriodicGrid, values) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"values must have shape ({grid.n},), got {values.shape}")
        return cls(grid, np.fft.rfft(values) / grid.n)

    @classmethod
    def from_spectrum(cls, grid: PeriodicGrid, spectrum) -> "SpectralField":
        """The field with this half spectrum; leading axes stack fields on
        one grid, as residual_fields takes them."""
        spectrum = np.asarray(spectrum, dtype=complex)
        shape = (grid.n // 2 + 1,)
        if spectrum.shape[-1:] != shape:
            raise ValueError(f"spectrum must end in shape {shape}, got "
                             f"{spectrum.shape}")
        return cls(grid, spectrum)

    @property
    def values(self) -> np.ndarray:
        return np.fft.irfft(self.spectrum, self.grid.n) * self.grid.n

    def mean(self) -> float:
        return float(self.spectrum[0].real)


def average_multiplier(k: np.ndarray, h: float) -> np.ndarray:
    """Symbol of the sliding window mean (1/h) * integral over [X, X+h]."""
    kh = k * h
    return np.where(kh == 0.0, 1.0 + 0j,
                    (np.exp(1j * kh) - 1.0) / np.where(kh == 0.0, 1.0, 1j * kh))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Discrete Sobolev norm sqrt(P * sum (1 + k^2)^s |c_k|^2) over the
    modes -n/2+1..n/2; the half spectrum holds each bin 0 < j < n/2 once.

    s = 0 recovers the continuum L2 norm of the trigonometric interpolant.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    k = f.grid.wavenumbers
    terms = (1.0 + k * k) ** s * np.abs(f.spectrum) ** 2
    total = terms[0] + 2.0 * np.sum(terms[1:-1]) + terms[-1]
    return math.sqrt(f.grid.period * float(total))


def write_field_binary(f: SpectralField, path):
    """Little-endian float64 dump: period, n, then the n values."""
    header = np.array([f.grid.period, float(f.grid.n)])
    np.concatenate([header, f.values]).astype("<f8").tofile(path)
