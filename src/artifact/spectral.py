"""Real periodic fields with cached discrete spectra, spectral resampling and
the window-mean symbol.

The spectrum convention is spectrum = fft(values)/n, so spectrum[j] is the
coefficient of exp(i*k_j*X) and a unit constant field has spectrum
(1, 0, ..., 0).  Wavenumbers follow the usual FFT layout with the unpaired
-n/2 mode last in the negative block; resampling splits that bin
half-and-half between +n/2 and -n/2 to keep fields real.  The half
spectrum rfft(values)/n holds the bins j = 0..n/2 that determine a real
field; the surrogate is stepped on it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def wavenumbers(n: int, period: float) -> np.ndarray:
    """FFT-ordered wavenumbers 2*pi*j/period for j = 0..n/2-1, -n/2..-1."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)


def rfft_wavenumbers(n: int, period: float) -> np.ndarray:
    """Wavenumbers 2*pi*j/period of the half-spectrum bins j = 0..n/2."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """FFT-ordered spectrum of the real field with half spectrum half
    (bins j = 0..n/2): the conjugate mirror completes the bins -n/2+1..-1."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def dealias_mask(n: int, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean mask over the half-spectrum bins j = 0..n/2 keeping
    j <= fraction*(n/2) and 3j < n.

    The cap makes the quadratic product alias-free: with every kept
    |j| <= K and 3K < n, each alias of a product lands at |j| >= n - 2K > K,
    outside the mask.
    """
    j = np.arange(n // 2 + 1)
    return (j <= fraction * (n // 2)) & (3 * j < n)


def pad_spectrum(c: np.ndarray, num: int) -> np.ndarray:
    """Zero-pad FFT-ordered coefficients from even length n to even num >= n.

    The unpaired top mode of the source is split half-and-half between the
    +n/2 and -n/2 bins of the target so the padded spectrum is conjugate
    symmetric (when num == n this reassembles the original bin exactly).
    """
    n = c.size
    if n % 2 or num % 2:
        raise ValueError("spectrum lengths must be even")
    if num < n:
        raise ValueError(f"cannot pad length {n} down to {num}")
    half = n // 2
    out = np.zeros(num, dtype=complex)
    out[:half] = c[:half]
    out[num - half + 1:] = c[half + 1:]
    out[half] += 0.5 * c[half]
    out[num - half] += 0.5 * c[half]
    return out


def sample_spectrum(c: np.ndarray, period: float, num: int, shift: float = 0.0
                    ) -> np.ndarray:
    """Values of the interpolant at the num uniform points j*period/num + shift.

    Works for any even num: refining zero-pads, coarsening aliases bins
    modulo num, which is exact for point evaluation.  The unpaired top mode
    is split half-and-half between +n/2 and -n/2 and the shift phases act at
    the true signed wavenumbers.
    """
    c = np.asarray(c, dtype=complex)
    n = c.size
    if n % 2 or num % 2:
        raise ValueError("spectrum lengths must be even")
    half = n // 2
    modes = np.concatenate([np.arange(0, half), (half, -half),
                            np.arange(-half + 1, 0)])
    weights = np.concatenate([c[:half], (0.5 * c[half], 0.5 * c[half]),
                              c[half + 1:]])
    if shift != 0.0:
        weights = weights * np.exp(2j * np.pi * modes * shift / period)
    out = np.zeros(num, dtype=complex)
    np.add.at(out, np.mod(modes, num), weights)
    return np.fft.ifft(out).real * num


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of n nodes (a power of two, at least 8) on [0, period)."""

    period: float
    n: int

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.n < 8 or not _is_pow2(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.period / self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return wavenumbers(self.n, self.period)


class SpectralField:
    """A real field on a PeriodicGrid together with its discrete spectrum.

    values and spectrum are kept consistent; construct through from_values
    or from_spectrum and treat instances as immutable.
    """

    __slots__ = ("grid", "values", "spectrum")

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, spectrum: np.ndarray):
        self.grid = grid
        self.values = values
        self.spectrum = spectrum

    @classmethod
    def from_values(cls, grid: PeriodicGrid, values) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"values must have shape ({grid.n},), got {values.shape}")
        return cls(grid, values, np.fft.fft(values) / grid.n)

    @classmethod
    def from_spectrum(cls, grid: PeriodicGrid, spectrum) -> "SpectralField":
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape != (grid.n,):
            raise ValueError(f"spectrum must have shape ({grid.n},), got {spectrum.shape}")
        return cls(grid, np.fft.ifft(spectrum).real * grid.n, spectrum)

    def mean(self) -> float:
        return float(self.spectrum[0].real)


def average_multiplier(k: np.ndarray, h: float) -> np.ndarray:
    """Symbol of the sliding window mean (1/h) * integral over [X, X+h]."""
    kh = k * h
    return np.where(kh == 0.0, 1.0 + 0j,
                    (np.exp(1j * kh) - 1.0) / np.where(kh == 0.0, 1.0, 1j * kh))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Discrete Sobolev norm sqrt(P * sum (1 + k^2)^s |c_k|^2).

    s = 0 recovers the continuum L2 norm of the trigonometric interpolant.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    k = f.grid.wavenumbers
    return math.sqrt(f.grid.period
                     * float(np.sum((1.0 + k * k) ** s * np.abs(f.spectrum) ** 2)))


def l2_norm(f: SpectralField) -> float:
    return sobolev_norm(f, 0.0)


def write_field_csv(f: SpectralField, path):
    """Serialize as rows X,value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["X", "value"])
        for x, v in zip(f.grid.nodes, f.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def write_field_binary(f: SpectralField, path):
    """Little-endian float64 dump: period, n, then the n values."""
    header = np.array([f.grid.period, float(f.grid.n)])
    np.concatenate([header, f.values]).astype("<f8").tofile(path)
