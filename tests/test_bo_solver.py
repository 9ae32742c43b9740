import math

import numpy as np
import pytest

from artifact import bo_solver
from artifact.bo_solver import (BOConfig, BOState, BlowUpError,
                                _dtau2_v_spectrum, _filtered, _rhs_spectrum,
                                gaussian_profile, run_to, span_plan)
from artifact.harness import ansatz_fields
from artifact.specfun import make_alpha_params
from artifact.spectral import (PeriodicGrid, SpectralField, dealias_mask,
                               sobolev_norm, wavenumbers)

PARAMS = make_alpha_params(2.0)


def _rhs(u, params=PARAMS):
    # du/dtau on u's own grid, as a field
    grid = u.grid
    return SpectralField.from_spectrum(grid, _rhs_spectrum(
        u.spectrum, grid.wavenumbers, params, dealias_mask(grid.n)))


def _full_wavenumbers(n, period):
    # FFT-ordered wavenumbers of the full spectrum, -n/2 in the top bin
    return 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)


def _product_form_rhs(c, k, params):
    # the oracle: du/dtau on the full complex spectrum fft(u)/n at the
    # FFT-ordered wavenumbers k, with the quadratic term as the filtered
    # product u * u_X (two inverse and one forward complex FFT) and a
    # symmetric 2/3 mask, |j| <= n/3 and 3|j| < n; returns (quadratic term,
    # linear symbol)
    n = k.size
    j = np.abs(np.fft.fftfreq(n, 1.0 / n))
    mask = (j <= 2.0 / 3.0 * (n // 2)) & (3 * j < n)
    u = np.fft.ifft(c * mask).real * n
    ux = np.fft.ifft(1j * k * c * mask).real * n
    nl = np.fft.fft(u * ux) / n * mask
    nl[0] = 0.0
    lin = 1j * (params.kappa3 / params.kappa1) * np.sign(k) * np.abs(k) ** params.alpha
    return -(params.kappa2 / params.kappa1) * nl, lin


def _band_limited(n, seed):
    # random mean-zero real field with modes up to n/4, as a full spectrum
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=complex)
    m = n // 4
    c[1:m + 1] = (rng.normal(size=m) + 1j * rng.normal(size=m)) / np.arange(1, m + 1)
    c[n - m:] = np.conj(c[m:0:-1])
    return c


def _primitive(u):
    # v with dX v = -u and v(0) = 0, for mean-zero u
    k = u.grid.wavenumbers
    w = np.zeros_like(u.spectrum)
    w[1:-1] = -u.spectrum[1:-1] / (1j * k[1:-1])
    v = np.fft.irfft(w, u.grid.n) * u.grid.n
    return v - v[0]


def _gauss_state(n=128, period=51.2, amplitude=0.5):
    grid = PeriodicGrid(period, n)
    return BOState(u=gaussian_profile(grid, amplitude), tau=0.0)


def test_gaussian_profile_shape():
    grid = PeriodicGrid(51.2, 256)
    u = gaussian_profile(grid, 0.7, 20.0)
    assert abs(u.mean()) < 1e-15
    peak = np.argmax(u.values)
    assert abs(grid.nodes[peak] - 25.6) < 0.3
    # width parameter moves mass: wider bump has larger l2 for same height
    wide = gaussian_profile(grid, 0.7, 10.0)
    assert sobolev_norm(wide, 0.0) > sobolev_norm(u, 0.0)


def test_rhs_linear_symbol_on_small_amplitude():
    # at negligible amplitude the rhs reduces to the dispersive symbol
    grid = PeriodicGrid(16.0, 64)
    k0 = 2.0 * np.pi / 16.0 * 3.0
    amp = 1e-8
    u = SpectralField.from_values(grid, amp * np.cos(k0 * grid.nodes))
    rhs = _rhs(u)
    coef = PARAMS.kappa3 / PARAMS.kappa1
    j = 3
    expected = 1j * coef * k0 ** PARAMS.alpha * u.spectrum[j]
    assert abs(rhs.spectrum[j] - expected) < 1e-6 * abs(expected)


def test_rhs_nonlinear_term_quadratic_scaling():
    # doubling the amplitude quadruples the quadratic part of the rhs
    grid = PeriodicGrid(25.6, 128)
    base = gaussian_profile(grid, 0.5)

    def scaled(a):
        return SpectralField.from_values(grid, a * base.values)

    lin = _rhs(base)
    dbl = _rhs(scaled(2.0))
    quad = dbl.values - 2.0 * lin.values  # 4q + 2l - 2(q + l) = 2q
    state4 = _rhs(scaled(4.0))
    quad4 = state4.values - 4.0 * lin.values  # 16q + 4l - 4(q + l) = 12q
    assert np.allclose(quad4, 6.0 * quad, rtol=1e-9, atol=1e-12)


def test_step_advances_and_conserves():
    # one IF-RK4 step: run_to over exactly one dtau
    state = _gauss_state()
    cfg = BOConfig(params=PARAMS, dtau=1e-3)
    [out] = run_to(state, 1e-3, cfg)
    assert out.tau == pytest.approx(1e-3)
    assert abs(out.u.mean()) < 1e-14
    assert abs(sobolev_norm(out.u, 0.0) - sobolev_norm(state.u, 0.0)) < 1e-12


def test_run_to_conservation_and_trace():
    state = _gauss_state()
    cfg = BOConfig(params=PARAMS, dtau=1e-3,
                   t_checkpoint=(0.02, 0.05))
    # one state at the end of each span, in order
    states = run_to(state, 0.1, cfg)
    assert [s.tau for s in states[:2]] == [0.02, 0.05]
    assert len(states) == 3 and states[-1].tau == pytest.approx(0.1)
    l2s = [sobolev_norm(s.u, 0.0) for s in [state, *states]]
    assert max(abs(v - l2s[0]) for v in l2s) < 1e-11
    means = [s.u.mean() for s in [state, *states]]
    assert max(abs(m) for m in means) < 1e-14


def test_run_to_zero_gap_is_identity():
    state = _gauss_state()
    cfg = BOConfig(params=PARAMS, dtau=1e-3)
    # no span, so no state: the caller's state stands
    assert run_to(state, 0.0, cfg) == []


def test_backward_evolution_inverts_forward():
    state = _gauss_state()
    cfg = BOConfig(params=PARAMS, dtau=5e-4)
    [fwd] = run_to(state, 0.2, cfg)
    [back] = run_to(fwd, 0.0, cfg)
    assert np.max(np.abs(back.u.values - state.u.values)) < 1e-8


def test_dtau_u_matches_finite_difference():
    state = _gauss_state(n=256, period=102.4, amplitude=0.7)
    cfg = BOConfig(params=PARAMS, dtau=1e-4)
    delta = 2e-3
    [plus] = run_to(state, delta, cfg)
    [minus] = run_to(state, -delta, cfg)
    fd = (plus.u.values - minus.u.values) / (2.0 * delta)
    ut = _rhs(state.u).values
    scale = np.max(np.abs(ut))
    assert np.max(np.abs(fd - ut)) < 1e-5 * scale


def test_dtau2_v_matches_finite_difference():
    state = _gauss_state(n=256, period=102.4, amplitude=0.7)
    cfg = BOConfig(params=PARAMS, dtau=1e-4)
    delta = 2e-3
    [plus] = run_to(state, delta, cfg)
    [minus] = run_to(state, -delta, cfg)

    fd = (_primitive(plus.u) - 2.0 * _primitive(state.u)
          + _primitive(minus.u)) / delta ** 2
    grid = state.u.grid
    k, mask = grid.wavenumbers, dealias_mask(grid.n)
    c = state.u.spectrum
    vtt_hat = _dtau2_v_spectrum(_filtered(c, mask),
                                _rhs_spectrum(c, k, PARAMS, mask), k, PARAMS,
                                mask)
    vtt = np.fft.irfft(vtt_hat, grid.n) * grid.n
    scale = np.max(np.abs(vtt))
    assert np.max(np.abs(fd - vtt)) < 1e-4 * scale
    # the anchor v(0) = 0 holds for every tau, so v_tautau(0) = 0; checked
    # on a random profile, where no symmetry makes it hold by accident
    c = 0.01 * _band_limited(grid.n, seed=7)[:grid.n // 2 + 1]
    w = np.fft.irfft(_dtau2_v_spectrum(_filtered(c, mask),
                                       _rhs_spectrum(c, k, PARAMS, mask),
                                       k, PARAMS, mask), grid.n)
    assert abs(w[0]) <= 1e-12 * np.max(np.abs(w))


def test_dtau2_v_requires_mean_zero():
    # the primitives of u and u_tau are periodic only for mean-zero u; the
    # guard sits where the system builds them from a profile, ansatz_fields
    grid = PeriodicGrid(51.2, 128)
    u = SpectralField.from_values(grid, np.ones(128))
    with pytest.raises(ValueError):
        ansatz_fields(u.spectrum, grid.period, 128, PARAMS)


def test_blow_up_raises_with_location():
    state = _gauss_state(n=64, period=25.6, amplitude=200.0)
    cfg = BOConfig(params=PARAMS, dtau=0.5)
    with pytest.raises(BlowUpError) as info:
        with pytest.warns(RuntimeWarning):
            run_to(state, 50.0, cfg)
    assert info.value.tau is not None


def test_cfl_warning_on_coarse_step():
    state = _gauss_state(n=128, period=25.6, amplitude=2.0)
    cfg = BOConfig(params=PARAMS, dtau=0.2)
    with pytest.warns(RuntimeWarning):
        run_to(state, 0.2, cfg)


def test_config_validation():
    for dtau in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dtau must be positive and "
                                             "finite"):
            BOConfig(params=PARAMS, dtau=dtau)
    with pytest.raises(ValueError):
        BOConfig(params=PARAMS, dtau=1e-3, dealias_fraction=0.4)
    with pytest.raises(ValueError):
        BOConfig(params=PARAMS, dtau=1e-3, dealias_fraction=1.2)
    # above 2/3 the quadratic term would alias by design
    with pytest.raises(ValueError):
        BOConfig(params=PARAMS, dtau=1e-3, dealias_fraction=0.7)
    BOConfig(params=PARAMS, dtau=1e-3, dealias_fraction=2.0 / 3.0)


@pytest.mark.parametrize("alpha", [1.6, 2.5])
def test_other_exponents_run(alpha):
    params = make_alpha_params(alpha)
    grid = PeriodicGrid(51.2, 128)
    state = BOState(u=gaussian_profile(grid, 0.3), tau=0.0)
    cfg = BOConfig(params=params, dtau=1e-3)
    [out] = run_to(state, 0.05, cfg)
    assert np.all(np.isfinite(out.u.values))
    assert abs(sobolev_norm(out.u, 0.0) - sobolev_norm(state.u, 0.0)) < 1e-11


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_rhs_matches_complex_product_form(n, alpha):
    # the half-spectrum right-hand side, with coef * P(1/2 dX u^2), against
    # the full complex spectrum with coef * P(u u_X): equal in exact
    # arithmetic, since no alias of the product lands inside the mask
    params = make_alpha_params(alpha)
    period = 0.1 * n
    c = _band_limited(n, seed=n + int(10 * alpha))
    nl, lin = _product_form_rhs(c, _full_wavenumbers(n, period), params)
    h = n // 2 + 1
    got = _rhs_spectrum(c[:h], wavenumbers(n, period), params, dealias_mask(n))
    assert np.max(np.abs(got - (nl + lin * c)[:h])) <= 1e-13 * np.max(np.abs(nl))


def test_run_to_matches_full_complex_if_rk4():
    # 200 IF-RK4 steps on the half spectrum against the same scheme written
    # on the full complex spectrum with the product-form quadratic term
    state = _gauss_state(n=256, period=51.2, amplitude=0.7)
    grid = state.u.grid
    dtau, nsteps = 5e-4, 200
    k = _full_wavenumbers(grid.n, grid.period)
    c = np.fft.fft(state.u.values) / grid.n
    lin = _product_form_rhs(c, k, PARAMS)[1]
    E = np.exp(lin * (dtau / 2.0))
    E2 = E * E

    def nonlin(ch):
        return _product_form_rhs(ch, k, PARAMS)[0]

    for _ in range(nsteps):
        s1 = nonlin(c)
        s2 = nonlin(E * (c + (dtau / 2.0) * s1))
        s3 = nonlin(E * c + (dtau / 2.0) * s2)
        s4 = nonlin(E2 * c + E * (dtau * s3))
        c = E2 * c + (dtau / 6.0) * (E2 * s1 + 2.0 * E * (s2 + s3) + s4)
    ref = np.fft.ifft(c).real * grid.n
    [out] = run_to(state, nsteps * dtau, BOConfig(params=PARAMS, dtau=dtau))
    assert np.max(np.abs(out.u.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def _run_spectrum_on_every_bin(c, k, params, mask, dtau, nsteps):
    # _run_spectrum as it was written on whole arrays: every stage on every
    # bin, each operation in a fresh array
    L = bo_solver._linear_symbol(k, params)
    E = np.exp(L * (dtau / 2.0))
    E2 = E * E
    d = bo_solver._advection_symbol(k, mask, -(params.kappa2 / params.kappa1))
    n = 2 * (c.size - 1)

    def nonlin(ch):
        u = np.fft.irfft(ch * mask, n)
        return d * np.fft.rfft(u * u)

    for _ in range(nsteps):
        s1 = nonlin(c)
        s2 = nonlin(E * (c + (dtau / 2.0) * s1))
        s3 = nonlin(E * c + (dtau / 2.0) * s2)
        s4 = nonlin(E2 * c + E * (dtau * s3))
        c = E2 * c + (dtau / 6.0) * (E2 * s1 + 2.0 * E * (s2 + s3) + s4)
    return c


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("n, amplitude, dtau", [(512, 0.1, 1.25e-3),
                                                (4096, 1.0, 1e-4)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_run_spectrum_equals_the_whole_array_loop_bit_for_bit(
        sign, n, amplitude, dtau, alpha):
    # the stages on the kept bins in held arrays, the bins past them
    # flowed by E2 alone, keep every operation and its operand order: 30
    # steps either way at validate's surrogate (512 modes, its dtau) and
    # solve-bo's in the direct workload (4096 modes, dtau 1e-4) give the
    # same bits, and the given spectrum is left as it was
    params = make_alpha_params(alpha)
    state = _gauss_state(n=n, period=102.4, amplitude=amplitude)
    grid = state.u.grid
    c = state.u.spectrum.copy()
    mask = dealias_mask(n)
    got = bo_solver._run_spectrum(c, grid.wavenumbers, params, mask,
                                  sign * dtau, 30)
    assert np.array_equal(c, state.u.spectrum)
    want = _run_spectrum_on_every_bin(c, grid.wavenumbers, params, mask,
                                      sign * dtau, 30)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, c)


def test_cfl_checked_at_every_span(monkeypatch):
    # one check per span between the start, the checkpoints and the end,
    # each on the spectrum the span starts from
    seen = []
    check = bo_solver._check_cfl

    def counted(c, k, params, dtau):
        seen.append(c.copy())
        return check(c, k, params, dtau)

    monkeypatch.setattr(bo_solver, "_check_cfl", counted)
    state = _gauss_state()
    cfg = BOConfig(params=PARAMS, dtau=1e-3, t_checkpoint=(0.02, 0.05))
    run_to(state, 0.1, cfg)
    assert len(seen) == 3
    [mid] = run_to(state, 0.02, BOConfig(params=PARAMS, dtau=1e-3))
    assert np.array_equal(seen[0], state.u.spectrum)
    assert np.allclose(seen[1], mid.u.spectrum, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("tau_end", [math.nan, math.inf, -math.inf])
def test_span_plan_refuses_a_non_finite_end(tau_end):
    cfg = BOConfig(params=PARAMS, dtau=1e-3, t_checkpoint=(0.5,))
    with pytest.raises(ValueError, match="tau_end must be finite"):
        span_plan(0.0, tau_end, cfg)
