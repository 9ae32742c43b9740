import math

import numpy as np
import pytest

from artifact.bo_solver import (_dtau2_v_spectrum, _filtered, _linear_symbol,
                                _rhs_spectrum)
from artifact.harness import ansatz_fields
from artifact.specfun import make_alpha_params
from artifact.spectral import (PeriodicGrid, SpectralField, average_multiplier,
                               dealias_mask, resample_spectrum,
                               sample_spectrum, sobolev_norm, wavenumbers,
                               write_field_binary)


def _trig_sum(c, period, x):
    """The real field with half spectrum c at arbitrary points, summed mode
    by mode: sum over j of w_j Re(c_j exp(2 pi i j x / period)), with
    w_j = 2 for the paired bins 0 < j < n/2 and 1 for bins 0 and n/2.  The
    independent oracle for the FFT resampling."""
    c = np.asarray(c, dtype=complex)
    j = np.arange(c.size)
    w = np.where((j == 0) | (j == c.size - 1), 1.0, 2.0)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return (np.exp(2j * np.pi * xs[:, None] * j[None, :] / period) @ (w * c)).real


def eval_at(f, x):
    """Trigonometric interpolation of a field at arbitrary points."""
    vals = _trig_sum(f.spectrum, f.grid.period, x)
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def _apply(f, symbol):
    # values of the field whose half spectrum is symbol * f.spectrum
    return np.fft.irfft(symbol * f.spectrum, f.grid.n) * f.grid.n


def _random_field(grid, seed, modes=10):
    rng = np.random.default_rng(seed)
    k0 = 2.0 * np.pi / grid.period
    x = grid.nodes
    vals = np.zeros(grid.n)
    for m in range(1, modes + 1):
        vals += rng.normal() * np.cos(m * k0 * x) + rng.normal() * np.sin(m * k0 * x)
    return SpectralField.from_values(grid, vals)


def test_wavenumbers_match_fftfreq():
    # the half-spectrum bins j = 0..n/2 at k_j = 2 pi j/period >= 0; fftfreq
    # puts the top bin at -n/2
    n, period = 64, 10.0
    k = wavenumbers(n, period)
    assert k.shape == (n // 2 + 1,)
    assert np.allclose(k, np.abs(2.0 * np.pi * np.fft.fftfreq(n, period / n)
                                 [:n // 2 + 1]))
    assert k[0] == 0.0
    assert k[1] == pytest.approx(2.0 * np.pi / period)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(10.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(10.0, 4)  # too small
    for period in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="period must be finite and "
                                             f"positive, got {period}"):
            PeriodicGrid(period, 64)
    g = PeriodicGrid(10.0, 64)
    assert g.nodes[1] - g.nodes[0] == pytest.approx(10.0 / 64)


def test_round_trip_and_mean():
    grid = PeriodicGrid(17.0, 128)
    f = _random_field(grid, 0)
    assert f.spectrum.shape == (65,)
    g = SpectralField.from_spectrum(grid, f.spectrum)
    assert np.allclose(f.values, g.values, atol=1e-13)
    with pytest.raises(ValueError):
        SpectralField.from_spectrum(grid, np.fft.fft(f.values) / 128)
    assert abs(f.mean()) < 1e-14
    h = SpectralField.from_values(grid, f.values + 3.0)
    assert h.mean() == pytest.approx(3.0)


def test_from_spectrum_makes_no_transform(monkeypatch):
    # a field built from a spectrum transforms only when its values are read
    grid = PeriodicGrid(17.0, 128)
    spectrum = _random_field(grid, 1).spectrum
    expected = np.fft.irfft(spectrum, grid.n) * grid.n

    def no_transform(*args, **kwargs):
        raise AssertionError("from_spectrum ran an FFT")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_transform)
    f = SpectralField.from_spectrum(grid, spectrum)
    monkeypatch.undo()
    assert np.array_equal(f.spectrum, spectrum)
    assert np.array_equal(f.values, expected)


def test_hilbert_of_sine_is_minus_cosine():
    # the surrogate's dispersive term is -(kappa3/kappa1) H|D|^alpha with the
    # Hilbert transform H sin = -cos; its symbol is _linear_symbol
    grid = PeriodicGrid(2.0 * np.pi, 64)
    params = make_alpha_params(2.0)
    coef = params.kappa3 / params.kappa1
    k0 = 3.0
    f = SpectralField.from_values(grid, np.sin(k0 * grid.nodes))
    L = _linear_symbol(wavenumbers(grid.n, grid.period), params)
    assert np.allclose(_apply(f, L), coef * k0 ** 2 * np.cos(k0 * grid.nodes),
                       atol=1e-11 * coef * k0 ** 2)
    # H^2 = -1 on mean-zero fields, so L^2 = -coef^2 |D|^(2 alpha)
    assert np.allclose(_apply(f, L * L), -(coef * k0 ** 2) ** 2 * f.values,
                       atol=1e-11 * (coef * k0 ** 2) ** 2)


def test_frac_deriv_single_mode():
    # |D|^alpha and H|D|^alpha on one cosine mode, through the symbol the
    # solver integrates: L cos(k0 X) = -coef k0^alpha sin(k0 X)
    grid = PeriodicGrid(8.0, 128)
    k0 = 2.0 * np.pi / 8.0 * 5.0
    f = SpectralField.from_values(grid, np.cos(k0 * grid.nodes))
    for alpha in (1.2, 1.7, 2.0, 2.6):
        params = make_alpha_params(alpha)
        coef = params.kappa3 / params.kappa1
        got = _apply(f, _linear_symbol(wavenumbers(grid.n, grid.period),
                                            params))
        assert np.allclose(got, -coef * k0 ** alpha * np.sin(k0 * grid.nodes),
                           atol=1e-11 * coef * k0 ** alpha)


def test_frac_deriv_zero_mode_and_domain():
    # the fractional powers the solver uses, |k|^alpha in the dispersive
    # symbol and |k|^(alpha-1) in v_tt, vanish on the zero mode for every
    # alpha in (1, 3): constants are steady, with no 0^0 = 1 or 0^-x = inf
    k = wavenumbers(64, 8.0)
    mask = dealias_mask(64)
    const = np.zeros(33, dtype=complex)
    const[0] = 4.0
    for alpha in (1.01, 2.0, 2.99):
        params = make_alpha_params(alpha)
        assert _linear_symbol(k, params)[0] == 0.0
        assert np.all(_rhs_spectrum(const, k, params, mask) == 0.0)
        ut = _rhs_spectrum(const, k, params, mask)
        assert np.all(_dtau2_v_spectrum(_filtered(const, mask), ut, k, params,
                                        mask) == 0.0)
    with pytest.raises(ValueError):
        make_alpha_params(1.0)
    with pytest.raises(ValueError):
        make_alpha_params(3.0)


def test_average_op_matches_window_mean():
    # A_h f(x) = (1/h) * integral_0^h f(x+s) ds, checked per mode
    grid = PeriodicGrid(12.0, 256)
    k0 = 2.0 * np.pi / 12.0 * 4.0
    f = SpectralField.from_values(grid, np.cos(k0 * grid.nodes))
    h = 0.37
    x = grid.nodes
    k = grid.wavenumbers
    exact = (np.sin(k0 * (x + h)) - np.sin(k0 * x)) / (k0 * h)
    assert np.allclose(_apply(f, average_multiplier(k, h)), exact, atol=1e-12)
    # negative window (the backward mean the residual uses) and constants
    exact_m = (np.sin(k0 * x) - np.sin(k0 * (x - h))) / (k0 * h)
    assert np.allclose(_apply(f, average_multiplier(k, -h)), exact_m,
                       atol=1e-12)
    const = SpectralField.from_values(grid, np.full(256, 2.5))
    assert np.allclose(_apply(const, average_multiplier(k, h)), 2.5)


def test_average_multiplier_simpson_oracle():
    # independent quadrature of (1/h) int_0^h e^{iks} ds
    k = np.array([0.0, 0.7, -2.3, 5.0])
    h = 0.29
    s = np.linspace(0.0, h, 4001)
    for i, kk in enumerate(k):
        from scipy.integrate import simpson
        val = simpson(np.exp(1j * kk * s), x=s) / h
        assert abs(average_multiplier(k, h)[i] - val) < 1e-10


def test_antiderivative_meanzero_properties():
    # the one primitive the system takes: the v_tau term of the validation
    # velocity, p = c eps^(alpha-1) u + eps^(2 alpha - 2) v_tau with
    # dX v_tau = -du/dtau, built by ansatz_fields for mean-zero u only
    params = make_alpha_params(2.0)
    period, N = 15.0, 128
    grid = PeriodicGrid(period, N)
    f = _random_field(grid, 4)
    eps = period / N
    _, p = ansatz_fields(f.spectrum, period, N, params)
    vt = (p - params.c * eps ** (params.alpha - 1.0) * f.values) \
        / eps ** (2.0 * params.alpha - 2.0)
    k = grid.wavenumbers
    ut = np.fft.irfft(_rhs_spectrum(f.spectrum, k, params, dealias_mask(N)),
                      N) * N
    dvt = np.fft.irfft(1j * k * np.fft.rfft(vt), N)
    assert np.allclose(dvt, -ut, atol=1e-10 * np.max(np.abs(ut)))
    # the mean-zero primitive, so the ansatz carries no net momentum
    assert abs(float(np.sum(vt))) < 1e-10 * N * np.max(np.abs(vt))
    bad = SpectralField.from_values(grid, f.values + 1.0)
    with pytest.raises(ValueError):
        ansatz_fields(bad.spectrum, period, N, params)


def test_eval_at_matches_nodes_and_interpolates():
    grid = PeriodicGrid(9.0, 64)
    f = _random_field(grid, 5)
    assert np.allclose(eval_at(f, grid.nodes), f.values, atol=1e-12)
    # band-limited: midpoint values must agree with a double-resolution grid
    fine = sample_spectrum(f.spectrum, grid.period, 128)
    mid = eval_at(f, grid.nodes + grid.period / 128.0)
    assert np.allclose(mid, fine[1::2], atol=1e-12)
    assert np.isscalar(eval_at(f, 1.234)) or np.ndim(eval_at(f, 1.234)) == 0


def test_eval_at_periodicity():
    grid = PeriodicGrid(9.0, 64)
    f = _random_field(grid, 6)
    xs = np.array([0.1, 3.3, 8.9])
    assert np.allclose(eval_at(f, xs), eval_at(f, xs + 9.0), atol=1e-11)


def test_pad_spectrum_preserves_band_limited_values():
    grid = PeriodicGrid(10.0, 32)
    f = _random_field(grid, 7, modes=8)
    big = resample_spectrum(f.spectrum, 128)
    assert big.shape == (65,)
    vals = np.fft.irfft(big, 128) * 128
    x = np.arange(128) * 10.0 / 128.0
    assert np.allclose(vals, eval_at(f, x), atol=1e-12)
    for num in (33, 0):
        with pytest.raises(ValueError):
            resample_spectrum(f.spectrum, num)


def test_pad_spectrum_nyquist_split_keeps_reality_and_energy():
    n = 16
    c = np.zeros(n // 2 + 1, dtype=complex)
    c[n // 2] = 1.0  # pure unpaired mode
    big = resample_spectrum(c, 64)
    # half the top bin goes to +n/2, the other half to its mirror -n/2
    assert big[n // 2] == 0.5
    assert np.count_nonzero(big) == 1
    # the split halves carry the energy of cos(pi x), mean square 1/2
    assert abs(2.0 * np.sum(np.abs(big) ** 2) - 0.5) < 1e-14
    vals = np.fft.irfft(big, 64) * 64
    x = np.arange(64) / 64.0 * 16.0  # unit spacing grid, period 16
    k_nyq = np.pi
    assert np.allclose(vals, np.cos(k_nyq * x), atol=1e-13)


def _random_half_spectrum(n, seed):
    # every bin random and complex, the top bin included; bin 0, the mean,
    # is real
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    c[0] = c[0].real
    return c


@pytest.mark.parametrize("num", [12, 16, 32, 48, 96])
@pytest.mark.parametrize("shift", [0.0, 1.3, -4.05])
def test_resample_and_sample_match_direct_sum(num, shift):
    # coarser, equal and finer rings against the direct trigonometric sum,
    # with a complex, nonzero top bin; the top bin's sine part vanishes at
    # the nodes of the source grid but not between them
    n, period = 32, 7.3
    c = _random_half_spectrum(n, seed=num)
    x = np.arange(num) * period / num
    scale = np.sum(np.abs(c))
    vals = sample_spectrum(c, period, num, shift)
    assert np.max(np.abs(vals - _trig_sum(c, period, x + shift))) \
        <= 1e-13 * scale
    # the resampled half spectrum is the one of those values
    ref = np.fft.rfft(_trig_sum(c, period, x)) / num
    assert np.max(np.abs(resample_spectrum(c, num) - ref)) <= 1e-14 * scale


def test_resample_round_trip_is_exact():
    # padding and then coarsening back returns a real field's spectrum bit
    # for bit, the top bin's two halves included
    grid = PeriodicGrid(9.0, 64)
    f = _random_field(grid, 11, modes=32)
    assert f.spectrum[-1] != 0.0
    assert np.array_equal(resample_spectrum(f.spectrum, 64), f.spectrum)
    for num in (66, 128, 724):
        back = resample_spectrum(resample_spectrum(f.spectrum, num), 64)
        assert np.array_equal(back, f.spectrum)


def test_sample_spectrum_shift():
    grid = PeriodicGrid(11.0, 64)
    f = _random_field(grid, 8)
    shift = 1.77
    vals = sample_spectrum(f.spectrum, grid.period, 256, shift)
    x = np.arange(256) * 11.0 / 256.0
    assert np.allclose(vals, eval_at(f, x + shift), atol=1e-11)


def test_sample_spectrum_downsamples_exactly():
    # coarsening aliases bins; for point evaluation that is exact
    grid = PeriodicGrid(11.0, 64)
    f = _random_field(grid, 8)
    for num, shift in ((32, 0.0), (16, 0.0), (32, 2.3)):
        vals = sample_spectrum(f.spectrum, grid.period, num, shift)
        x = np.arange(num) * 11.0 / num
        assert np.allclose(vals, eval_at(f, x + shift), atol=1e-11)
    with pytest.raises(ValueError):
        sample_spectrum(f.spectrum, grid.period, 15)


def _resample_by_scatter(c, num):
    # resample_spectrum as it was written for every num: every mode's
    # weight scattered onto its bin modulo num by np.add.at
    c = np.asarray(c, dtype=complex)
    half = c.shape[-1] - 1
    modes = np.concatenate([np.arange(half + 1), -np.arange(1, half + 1)])
    weights = np.concatenate([c, np.conj(c[..., 1:])], axis=-1)
    weights[..., half] *= 0.5
    weights[..., -1] *= 0.5
    bins = modes % num
    kept = bins <= num // 2
    out = np.zeros(c.shape[:-1] + (num // 2 + 1,), dtype=complex)
    np.add.at(out, (..., bins[kept]), weights[..., kept])
    return out


def test_resample_equals_the_scatter_to_the_last_bit():
    # stacked rows with -0.0 in either part of some bins, the top bin's
    # among them, and a complex top bin: refining, at equal length and
    # coarsening, the same bits as the scatter, signed zeros included
    n = 64
    stack = np.array([_random_half_spectrum(n, seed) for seed in (4, 5, 6)])
    stack[0, 3] = complex(-0.0, 1.5)
    stack[1, 5] = complex(0.25, -0.0)
    stack[2, 7] = complex(-0.0, -0.0)
    stack[0, -1] = complex(-0.0, 2.0)
    stack[1, -1] = complex(-3.0, -0.0)
    for num in (16, 62, 64, 66, 128, 1000):
        for c in (stack, stack[:, None], stack[2]):
            got, want = resample_spectrum(c, num), _resample_by_scatter(c,
                                                                        num)
            assert got.shape == want.shape
            for part, ref in ((got.real, want.real), (got.imag, want.imag)):
                assert np.array_equal(part, ref)
                assert np.array_equal(np.signbit(part), np.signbit(ref))


def test_spectral_helpers_take_stacks_row_by_row():
    # spectra stacked along a leading axis give, row by row, the 1-d call's
    # result to the last bit: resampling onto coarser (num < n), equal and
    # finer rings with a complex top bin, sampling with one shift for all
    # rows and a shift per row, and the surrogate's du/dtau and v_tautau
    n, period = 64, 9.0
    stack = np.array([_random_half_spectrum(n, seed) for seed in (1, 2, 3)])
    assert np.all(stack[:, -1].imag != 0.0)
    for num in (16, 32, 64, 66, 256):
        out = resample_spectrum(stack, num)
        deep = resample_spectrum(stack.reshape(3, 1, -1), num)
        for i, c in enumerate(stack):
            assert np.array_equal(out[i], resample_spectrum(c, num))
            assert np.array_equal(deep[i, 0], out[i])
    for num in (32, 128):
        for shifts in (np.zeros(3), np.full(3, 1.3),
                       np.array([0.0, 1.3, -4.05])):
            vals = sample_spectrum(stack, period, num, shifts)
            for row, c, shift in zip(vals, stack, shifts):
                assert np.array_equal(row, sample_spectrum(c, period, num,
                                                           shift))
            if np.all(shifts == shifts[0]):
                assert np.array_equal(
                    vals, sample_spectrum(stack, period, num, shifts[0]))
    params = make_alpha_params(1.8)
    k, mask = wavenumbers(n, period), dealias_mask(n)
    ut = _rhs_spectrum(stack, k, params, mask)
    vtt = _dtau2_v_spectrum(_filtered(stack, mask), ut, k, params, mask)
    for c, ut_row, vtt_row in zip(stack, ut, vtt):
        assert np.array_equal(ut_row, _rhs_spectrum(c, k, params, mask))
        assert np.array_equal(vtt_row, _dtau2_v_spectrum(
            _filtered(c, mask), ut_row, k, params, mask))


def test_parseval_and_sobolev():
    grid = PeriodicGrid(21.0, 128)
    f = _random_field(grid, 9)
    direct = math.sqrt(grid.period / grid.n * float(np.sum(f.values ** 2)))
    assert sobolev_norm(f, 0.0) == pytest.approx(direct, rel=1e-12)
    assert sobolev_norm(f, 2.0) > sobolev_norm(f, 1.0) > sobolev_norm(f, 0.0)


def test_dealias_mask_symmetry_and_width():
    # one entry per half-spectrum bin j = 0..n/2, which stands for both +j
    # and -j, so the filter it applies to a real field is symmetric
    mask = dealias_mask(64)
    assert mask.shape == (33,)
    assert np.array_equal(np.flatnonzero(mask), np.arange(22))
    f = _random_field(PeriodicGrid(10.0, 64), 3, modes=30)
    full = np.abs(np.fft.fftfreq(64, 1.0 / 64)) <= 21
    ref = np.fft.ifft(full * np.fft.fft(f.values)).real
    assert np.allclose(_apply(f, mask), ref, atol=1e-13)
    # 2/3 of the half width at fraction 2/3; less at a smaller fraction
    assert np.flatnonzero(dealias_mask(64, 0.55))[-1] == 17


@pytest.mark.parametrize("n", [96, 1026, 2046])
def test_dealias_mask_is_alias_free_when_n_is_a_multiple_of_three(n):
    # fraction * (n/2) = n/3 exactly: the bin j = n/3 would make the product
    # of two kept modes alias onto a kept mode, (n/3 + n/3) - n = -n/3
    mask = dealias_mask(n)
    K = np.flatnonzero(mask)[-1]
    assert K == n // 3 - 1
    assert 3 * K < n
    # every alias of a product of two kept modes misses the kept band
    j = np.arange(-K, K + 1)
    sums = (j[:, None] + j[None, :]).ravel()
    aliases = sums[np.abs(sums) > n // 2]
    aliases = aliases - np.sign(aliases) * n
    assert np.all(np.abs(aliases) > K)


def test_field_io_round_trip(tmp_path):
    grid = PeriodicGrid(13.0, 64)
    f = _random_field(grid, 10)
    binpath = tmp_path / "field.bin"
    write_field_binary(f, binpath)
    raw = np.fromfile(binpath, dtype="<f8")
    assert raw.size == 2 + grid.n
    assert raw[0] == f.grid.period
    assert raw[1] == f.grid.n
    assert np.array_equal(raw[2:], f.values)
