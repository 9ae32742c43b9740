"""Release gates: one test per gate in the README checklist, each printing a
summary line with the measured numbers.  Gates that the implementation cannot
honestly reach stay red; see README for the analysis."""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta as hurwitz_zeta

from artifact import harness
from artifact.bo_solver import BOConfig, BOState, gaussian_profile, run_to
from artifact.harness import (DEFAULT_VALIDATION_AMPLITUDE, ValidationConfig, ansatz_fields,
                              run_residual_sweep, run_validation)
from artifact.lattice import LatticeConfig, LatticeState, energy, force, p2_functional, run_steps
from artifact.specfun import eta_integral, eta_riemann, find_alpha_star, make_alpha_params, zeta, zeta_gap
from artifact.spectral import PeriodicGrid, SpectralField, dealias_mask, sobolev_norm, wavenumbers
from conftest import record


# ---------------------------------------------------------------------------
# gate 1: constants at the classical exponent


def _eta2_ibp_quadrature():
    """Window-defect integral at exponent 2, reduced by two integrations by
    parts to the Dirichlet form: eta_2 = (1/3) * int_0^inf (1 - cos u)/u^2 du.
    Returns (value, quadrature error estimate)."""
    def head(u):
        if u < 1e-6:
            return 0.5 - u * u / 24.0
        return (1.0 - math.cos(u)) / (u * u)

    h, herr = quad(head, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    ct, cerr = quad(lambda u: u ** -2.0, 1.0, np.inf, weight="cos", wvar=1.0)
    return (h + 1.0 - ct) / 3.0, herr + cerr


def test_gate1_constants():
    t0 = time.perf_counter()
    params = make_alpha_params(2.0)
    c_dev = abs(params.c - math.pi)
    k3_dev = abs(params.kappa3 - math.pi)
    eta_q, q_err = _eta2_ibp_quadrature()
    q_dev = abs(eta_q - math.pi / 6.0)
    elapsed = time.perf_counter() - t0
    status = "PASS" if c_dev <= 1e-8 and k3_dev <= 1e-8 and q_dev <= 1e-8 else "FAIL"
    record(f"[gate 1] constants: |c-pi|={c_dev:.2e} |k3-pi|={k3_dev:.2e} "
           f"quadrature |eta2-pi/6|={q_dev:.2e} ({elapsed:.2f}s) -> {status}")
    assert c_dev <= 1e-8
    assert k3_dev <= 1e-8
    assert q_dev <= 1e-8
    assert q_err < 1e-8
    assert abs(6.0 * eta_q - params.kappa3) <= 2e-8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# gate 2: threshold root of the equivalence gap


def test_gate2_threshold_root():
    t0 = time.perf_counter()
    root = find_alpha_star()
    below = zeta_gap(root - 0.01)
    above = zeta_gap(root + 0.01)
    elapsed = time.perf_counter() - t0
    status = "PASS" if 1.45 < root < 1.5 and below < 0.0 < above else "FAIL"
    record(f"[gate 2] threshold root: {root:.10f} in (1.45,1.5), gap "
           f"{below:+.3e} -> {above:+.3e} ({elapsed:.2f}s) -> {status}")
    assert 1.45 < root < 1.5
    assert below < 0.0 < above
    assert abs(zeta_gap(root)) < 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# gate 3: window-mean convergence rate


GATE3_ALPHAS = (1.6, 2.0, 2.3, 2.7)
GATE3_RATE_BAND = 0.15
GATE3_COEF_TOL = 1e-3


def test_gate3_window_rate():
    # f(s) = (1 - sinc(s/2)^2)/s^alpha ~ s^(2-alpha)/12 near 0, so the
    # generalised Euler-Maclaurin expansion of the rectangle rule gives
    # eta(alpha, h) - eta = zeta(alpha-2)/12 h^(3-alpha) + O(h^(5-alpha))
    t0 = time.perf_counter()
    hs = (0.4, 0.2, 0.1, 0.05, 0.025)
    outcomes = []
    for alpha in GATE3_ALPHAS:
        eta = eta_integral(alpha)
        errs = np.array([eta_riemann(alpha, h) - eta for h in hs])
        logs = np.log(np.column_stack([hs, np.abs(errs)]))
        A = np.vstack([logs[:, 0], np.ones(len(hs))]).T
        slope = float(np.linalg.lstsq(A, logs[:, 1], rcond=None)[0][0])
        lo = 3.0 - alpha - GATE3_RATE_BAND
        hi = 3.0 - alpha + GATE3_RATE_BAND
        lead = float(hurwitz_zeta(alpha - 2.0)) / 12.0 * np.power(hs, 3.0 - alpha)
        coef_dev = float(np.max(np.abs(errs / lead - 1.0)))
        ok = lo <= slope <= hi and coef_dev <= GATE3_COEF_TOL
        outcomes.append((alpha, slope, lo, hi, coef_dev, ok))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"a={a}: {s:.3f} in [{lo:.2f},{hi:.2f}] coef dev "
                       f"{d:.1e} {'ok' if ok else 'OUT'}"
                       for a, s, lo, hi, d, ok in outcomes)
    status = "PASS" if all(o[5] for o in outcomes) else "FAIL"
    record(f"[gate 3] window rate: {detail} ({elapsed:.2f}s) -> {status}")
    assert elapsed < 10.0
    bad = [o for o in outcomes if not o[5]]
    if bad:
        pytest.fail("rectangle-rule error departs from "
                    "zeta(alpha-2)/12 h^(3-alpha): rate outside "
                    f"3-alpha+-{GATE3_RATE_BAND} or leading coefficient off "
                    f"by more than {GATE3_COEF_TOL}: {bad}")


# ---------------------------------------------------------------------------
# gate 4: quadratic window form bounds


def _p2_exact_meanzero(eta, alpha):
    """Full window series for a mean-zero ring vector: windows wrap with
    period N, so the infinite sum collapses to N Hurwitz-weighted terms.
    The window sums grow one rolled copy at a time, apart from the
    prefix sums the package uses."""
    N = eta.size
    s_vals = np.arange(1, N + 1, dtype=float)
    w = hurwitz_zeta(alpha + 2.0, s_vals / N) * N ** (-(alpha + 2.0))
    g = np.zeros(N)
    g2 = np.empty(N)
    for s in range(N):
        g += np.roll(eta, -s)
        g2[s] = float(np.sum(g * g))
    return float(np.sum(w * g2))


def test_gate4_quadratic_form_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_vectors = 1000
    for alpha in (1.6, 2.0, 2.5):
        lo = 2.0 * zeta(alpha + 1.0) - zeta(alpha)
        hi = zeta(alpha)
        assert lo > 0.0
        for _ in range(n_vectors):
            eta = rng.standard_normal(128)
            val, tail = p2_functional(eta, alpha, 63)
            n2 = float(eta @ eta)
            # val underestimates the series, val + tail overestimates it,
            # so both checks are conservative
            assert val + tail <= hi * n2 * (1.0 + 1e-12)
            assert val >= lo * n2 * (1.0 - 1e-12)
    gap = zeta_gap(1.2)
    below = 0
    for _ in range(n_vectors):
        eta = rng.standard_normal(128)
        eta -= eta.mean()
        p2 = _p2_exact_meanzero(eta, 1.2)
        val, tail = p2_functional(eta, 1.2, 128)
        assert val - 1e-9 <= p2 <= val + tail + 1e-9
        if p2 < abs(gap) * float(eta @ eta):
            below += 1
    elapsed = time.perf_counter() - t0
    status = "PASS" if gap < 0.0 and below >= 1 else "FAIL"
    record(f"[gate 4] window form bounds: 3000/3000 supercritical vectors "
           f"bracketed; at a=1.2 coefficient {gap:+.3f} < 0 and {below}/"
           f"{n_vectors} vectors fall below its magnitude ({elapsed:.2f}s) "
           f"-> {status}")
    # below the threshold the lower-bound coefficient is negative: it no
    # longer bounds anything (the form stays positive), and its magnitude
    # fails as a bound for essentially every vector
    assert gap < 0.0
    assert below >= 1
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# gate 5: lattice physics


def test_gate5_lattice_physics():
    t0 = time.perf_counter()
    params = make_alpha_params(2.0)
    grid = PeriodicGrid(102.4, 512)
    u0 = gaussian_profile(grid, 0.1, 8.0)
    r0, p0 = ansatz_fields(u0.spectrum, grid.period, 512, params)
    state = LatticeState(r=r0, p=p0, t=0.0)
    cfg = LatticeConfig(N=512, alpha=2.0, cutoff=40, dt=0.05)
    E0 = energy(state, cfg)
    mom0 = float(np.sum(state.p))
    sup_e = 0.0
    sup_m = 0.0
    for state in run_steps(state, cfg, 10000, 500):
        sup_e = max(sup_e, abs(energy(state, cfg) - E0) / abs(E0))
        sup_m = max(sup_m, abs(float(np.sum(state.p)) - mom0))

    rng = np.random.default_rng(7)
    small = LatticeState(r=0.05 * rng.standard_normal(32),
                         p=0.05 * rng.standard_normal(32), t=0.0)
    oracle_cfg = LatticeConfig(N=32, alpha=2.0, cutoff=10, dt=0.05)
    f = force(small.r, oracle_cfg)
    # pair slope -alpha((m+g)^-(alpha+1) - m^-(alpha+1)) in long double,
    # apart from the expm1/log1p kernel that force uses
    r_ld = small.r.astype(np.longdouble)
    a = np.longdouble(oracle_cfg.alpha)

    def slope(g, m):
        m = np.longdouble(m)
        return -a * ((m + g) ** -(a + 1) - m ** -(a + 1))

    brute = np.zeros(32)
    for j in range(32):
        acc = np.longdouble(0.0)
        for m in range(1, 11):
            gj = np.sum(r_ld[(j + np.arange(m)) % 32])
            gjm = np.sum(r_ld[(j - m + np.arange(m)) % 32])
            acc += slope(gj, m) - slope(gjm, m)
        brute[j] = float(acc)
    force_dev = float(np.max(np.abs(f - brute)))
    elapsed = time.perf_counter() - t0
    status = ("PASS" if sup_e <= 1e-6 and sup_m <= 1e-10
              and force_dev <= 1e-12 else "FAIL")
    record(f"[gate 5] lattice physics: energy drift {sup_e:.2e} over 1e4 "
           f"steps, momentum {sup_m:.2e}, force oracle {force_dev:.2e} "
           f"({elapsed:.1f}s) -> {status}")
    assert sup_e <= 1e-6
    assert sup_m <= 1e-10
    assert force_dev <= 1e-12
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# gate 6: dispersive surrogate solver


def _hamiltonian_drift(alpha, kappa2_factor=1.0):
    """Largest relative change of the surrogate's Hamiltonian
    H = int [(kappa3/2kappa1) u |D|^(alpha-1) u - (kappa2/6kappa1) u^3] dX,
    on the kept bins, whose Galerkin truncation conserves it, along the
    default validation surrogate over tau0, run with kappa2 times
    kappa2_factor.  u^3 has bins up to 3 times the top kept one, below n,
    so the grid sum gives its integral exactly."""
    cfg = ValidationConfig(alpha=alpha)
    params = make_alpha_params(alpha)
    run = dataclasses.replace(params, kappa2=params.kappa2 * kappa2_factor)
    u0 = harness._initial_profile(cfg, DEFAULT_VALIDATION_AMPLITUDE)
    states, _ = harness._bo_checkpoint_states(cfg, run, u0)
    n = cfg.bo_modes
    mask = dealias_mask(n, cfg.dealias_fraction)
    k = wavenumbers(n, cfg.period)

    def hamiltonian(spectrum):
        c = spectrum * mask
        u = np.fft.irfft(c, n) * n
        quadratic = 2.0 * cfg.period * np.sum(np.abs(c) ** 2 * k ** (alpha - 1.0))
        cubic = cfg.period / n * np.sum(u ** 3)
        return (params.kappa3 * quadratic / 2.0 - params.kappa2 * cubic / 6.0) / params.kappa1

    H = [hamiltonian(state.u.spectrum) for state in states]
    return max(abs(h - H[0]) for h in H) / abs(H[0])


def test_gate6_surrogate_solver():
    t0 = time.perf_counter()
    period, n = 32.0, 128
    grid = PeriodicGrid(period, n)
    tau = 0.2
    worst_phase = 0.0
    for alpha in (1.6, 2.0, 2.5):
        params = make_alpha_params(alpha)
        for mode in (2, 5, 11):
            k = 2.0 * math.pi * mode / period
            spec = np.zeros(n // 2 + 1, dtype=complex)
            spec[mode] = 0.5e-8
            u0 = SpectralField.from_spectrum(grid, spec)
            cfg = BOConfig(params=params, dtau=2e-3)
            [out] = run_to(BOState(u=u0, tau=0.0), tau, cfg)
            omega = -cmath.phase(out.u.spectrum[mode] / spec[mode]) / tau
            target = -(params.kappa3 / params.kappa1) * abs(k) ** alpha
            worst_phase = max(worst_phase, abs(omega - target) / abs(target))

    params2 = make_alpha_params(2.0)
    pulse = gaussian_profile(PeriodicGrid(25.6, 128), 0.5, 8.0)

    def final(dtau):
        [out] = run_to(BOState(u=pulse, tau=0.0), 0.1,
                       BOConfig(params=params2, dtau=dtau))
        return out.u.values

    ref = final(0.1 / 512)
    e_coarse = float(np.linalg.norm(final(0.1 / 32) - ref))
    e_fine = float(np.linalg.norm(final(0.1 / 64) - ref))
    ratio = e_coarse / e_fine

    [out] = run_to(BOState(u=pulse, tau=0.0), 0.5,
                   BOConfig(params=params2, dtau=1e-3))
    mean_dev = abs(float(out.u.spectrum[0].real))
    l2_dev = (abs(sobolev_norm(out.u, 0.0) - sobolev_norm(pulse, 0.0))
              / sobolev_norm(pulse, 0.0))

    # H's drift, which the L2 norm cannot show: it weighs the nonlinear term
    # against the dispersive one, so a kappa2 1e-6 off must pass the bound
    h_drift = max(_hamiltonian_drift(alpha) for alpha in (1.6, 2.0, 2.5))
    h_off = min(_hamiltonian_drift(alpha, 1.0 + 1e-6) for alpha in (1.6, 2.0, 2.5))
    elapsed = time.perf_counter() - t0
    status = ("PASS" if worst_phase <= 1e-6 and 12.0 <= ratio <= 20.0
              and mean_dev <= 1e-12 and l2_dev <= 1e-10
              and h_drift <= 1e-12 < h_off else "FAIL")
    record(f"[gate 6] surrogate solver: dispersion {worst_phase:.2e}, order "
           f"ratio {ratio:.2f}, mean {mean_dev:.1e}, l2 drift {l2_dev:.1e}, "
           f"H drift {h_drift:.1e} (kappa2 1e-6 off {h_off:.1e}) "
           f"({elapsed:.1f}s) -> {status}")
    assert worst_phase <= 1e-6
    assert 12.0 <= ratio <= 20.0
    assert mean_dev <= 1e-12
    assert l2_dev <= 1e-10
    assert h_drift <= 1e-12
    assert h_off > 1e-12
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# gates 7-9: scaling sweeps and determinism


SWEEP_ALPHAS = (1.8, 2.0, 2.5)
# The gate ladders step epsilon down by sqrt(2) from 0.2: gate 7 over a
# factor of 32 (rings of 512 to 16384 sites), gate 8 over a factor of 8
# (512 to 4096), where the chain's steps stay affordable.
GATE7_EPSILONS = (0.2, 0.1414, 0.1, 0.0707, 0.05, 0.0354, 0.025, 0.0177,
                  0.0125, 0.00884, 0.00625)
GATE8_EPSILONS = GATE7_EPSILONS[:7]


def _local_slopes(report):
    return " ".join(f"{v:.2f}" for v in report.local_slopes)


@pytest.fixture(scope="module")
def residual_runs(tmp_path_factory):
    runs = {}
    for alpha in SWEEP_ALPHAS:
        out = tmp_path_factory.mktemp(f"res{int(10 * alpha)}")
        cfg = ValidationConfig(alpha=alpha, epsilons=GATE7_EPSILONS,
                               output=str(out))
        t0 = time.perf_counter()
        _, report = run_residual_sweep(cfg)
        runs[alpha] = {
            "config": cfg,
            "report": report,
            "elapsed": time.perf_counter() - t0,
            "csv": (out / "residual_sweep.csv").read_bytes(),
            "dat": (out / "residual_sweep.dat").read_bytes(),
        }
    return runs


@pytest.fixture(scope="module")
def validation_runs(tmp_path_factory):
    runs = {}
    for alpha in SWEEP_ALPHAS:
        out = tmp_path_factory.mktemp(f"val{int(10 * alpha)}")
        cfg = ValidationConfig(alpha=alpha, epsilons=GATE8_EPSILONS,
                               output=str(out))
        t0 = time.perf_counter()
        result = run_validation(cfg)
        runs[alpha] = {
            "config": cfg,
            "result": result,
            "elapsed": time.perf_counter() - t0,
            "csv": (out / "validation.csv").read_bytes(),
            "dat": (out / "validation.dat").read_bytes(),
        }
    return runs


def test_gate7_residual_scaling(residual_runs):
    outcomes = []
    for alpha in SWEEP_ALPHAS:
        report = residual_runs[alpha]["report"]
        dev = abs(report.slope - report.target_exponent)
        outcomes.append((alpha, report.slope, report.target_exponent, dev,
                         _local_slopes(report)))
    elapsed = sum(residual_runs[a]["elapsed"] for a in SWEEP_ALPHAS)
    detail = ", ".join(f"a={a}: {s:.3f} vs {t:.2f} (dev {d:.3f}; local "
                       f"{local})" for a, s, t, d, local in outcomes)
    status = "PASS" if all(o[3] <= 0.3 for o in outcomes) else "FAIL"
    record(f"[gate 7] residual scaling over {len(GATE7_EPSILONS)} epsilons: "
           f"{detail} ({elapsed:.0f}s) -> {status}")
    for alpha, slope, target, dev, _ in outcomes:
        assert dev <= 0.3, (alpha, slope, target)
    assert elapsed < 600.0


def test_gate8_error_scaling(validation_runs):
    outcomes, local = [], []
    law_ok = True
    for alpha in SWEEP_ALPHAS:
        result = validation_runs[alpha]["result"]
        gamma = result.mu_report.target_exponent
        for report in (result.mu_report, result.nu_report):
            for eps, sup in report.pairs:
                law_ok &= sup <= 10.0 * math.exp(report.intercept) * eps ** report.slope
        outcomes.append((alpha, result.mu_report.slope,
                         result.nu_report.slope, gamma))
        local.append(f"a={alpha}: mu {_local_slopes(result.mu_report)} nu "
                     f"{_local_slopes(result.nu_report)}")
    elapsed = sum(validation_runs[a]["elapsed"] for a in SWEEP_ALPHAS)
    detail = ", ".join(f"a={a}: mu {ms:.3f} nu {ns:.3f} vs {g}"
                       for a, ms, ns, g in outcomes)
    ok = law_ok and all(abs(ms - g) <= 0.3 and abs(ns - g) <= 0.3
                        for _, ms, ns, g in outcomes)
    record(f"[gate 8] error scaling over {len(GATE8_EPSILONS)} epsilons: "
           f"{detail} (local {'; '.join(local)}); 10x law "
           f"{'ok' if law_ok else 'VIOLATED'} ({elapsed:.0f}s) "
           f"-> {'PASS' if ok else 'FAIL'}")
    assert law_ok
    assert elapsed < 1800.0
    bad = [(a, ms, ns, g) for a, ms, ns, g in outcomes
           if abs(ms - g) > 0.3 or abs(ns - g) > 0.3]
    if bad:
        pytest.fail("measured error decay is steeper than the guaranteed "
                    f"exponent band at: {bad}")


def test_gate9_determinism(residual_runs, validation_runs, tmp_path_factory):
    t0 = time.perf_counter()
    for alpha in SWEEP_ALPHAS:
        out = tmp_path_factory.mktemp(f"rres{int(10 * alpha)}")
        cfg = dataclasses.replace(residual_runs[alpha]["config"],
                                  output=str(out))
        run_residual_sweep(cfg)
        assert (out / "residual_sweep.csv").read_bytes() == residual_runs[alpha]["csv"]
        assert (out / "residual_sweep.dat").read_bytes() == residual_runs[alpha]["dat"]

        out = tmp_path_factory.mktemp(f"rval{int(10 * alpha)}")
        cfg = dataclasses.replace(validation_runs[alpha]["config"],
                                  output=str(out))
        run_validation(cfg)
        assert (out / "validation.csv").read_bytes() == validation_runs[alpha]["csv"]
        assert (out / "validation.dat").read_bytes() == validation_runs[alpha]["dat"]
    elapsed = time.perf_counter() - t0
    record(f"[gate 9] determinism: reruns of gates 7-8 reproduced every CSV "
           f"byte-identically ({elapsed:.0f}s) -> PASS")
