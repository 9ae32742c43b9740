import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from artifact import bo_solver, harness, lattice
from artifact.bo_solver import (BOConfig, BOState, BlowUpError, _rhs_spectrum,
                                gaussian_profile, run_to, span_plan)
from artifact.cli import main
from artifact.harness import (ConfigError, ScalingReport, ValidationConfig,
                              _ring_size, _scaling_report, ansatz_fields,
                              describe_plan,
                              default_residual_amplitude, error_energy_trace,
                              fit_slope, residual_fields,
                              run_residual_sweep, run_validation)
from artifact.lattice import (CollisionError, LatticeConfig, LatticeState,
                              _window_sums, energy, run_steps)
from artifact.specfun import make_alpha_params
from artifact.spectral import (PeriodicGrid, SpectralField, average_multiplier,
                               dealias_mask, resample_spectrum, wavenumbers)

PARAMS2 = make_alpha_params(2.0)


def _smoke_config(**kw):
    base = dict(alpha=2.0, epsilons=(0.4, 0.32, 0.25), period=102.4,
                tau0=0.05, checkpoints=2, amplitude=0.1, bo_modes=256)
    base.update(kw)
    return ValidationConfig(**base)


# ---------------------------------------------------------------------------
# configuration and fits


def test_config_validation():
    with pytest.raises(ConfigError):
        ValidationConfig(alpha=3.2)
    with pytest.raises(ConfigError):
        ValidationConfig(epsilons=())
    with pytest.raises(ConfigError):
        ValidationConfig(epsilons=(0.2, 0.1414))  # too few to fit a slope
    with pytest.raises(ConfigError):
        ValidationConfig(epsilons=(0.1, 0.2, 0.3))  # ascending
    with pytest.raises(ConfigError):
        ValidationConfig(epsilons=(0.6, 0.2, 0.1))  # out of range
    with pytest.raises(ConfigError):
        ValidationConfig(tau0=0.0)
    with pytest.raises(ConfigError):
        ValidationConfig(checkpoints=0)
    # a sweep runs its epsilons serially: jobs admits the int 1 alone
    for value in (0, 2, 1.0, True):
        with pytest.raises(ConfigError, match="jobs must be 1"):
            ValidationConfig(jobs=value)
    with pytest.raises(ConfigError):
        ValidationConfig(dealias_fraction=0.7)  # would alias by design
    # an output that is not a directory name passed the dry run and died
    # in the run's os.makedirs with a TypeError, after every epsilon ran
    for value in (5, 1.5, True, b"runs", ["runs"]):
        with pytest.raises(ConfigError, match="output must be a directory"):
            ValidationConfig(output=value)
    assert ValidationConfig(output="runs").output == "runs"
    assert ValidationConfig(output=None).output is None
    # each of these once passed the dry run and died in the run, one of
    # them with a ZeroDivisionError
    for field in ("width_fraction", "residual_cutoff_coef"):
        with pytest.raises(ConfigError, match=field):
            ValidationConfig(**{field: 0})
    # inf passed a "> 0" check and died in the planner with a
    # ZeroDivisionError or an OverflowError
    for field in ("tau0", "period", "width_fraction", "lattice_dt",
                  "residual_cutoff_coef"):
        for value in (math.inf, math.nan, -1.0):
            with pytest.raises(ConfigError, match=field):
                ValidationConfig(**{field: value})
    # a zero amplitude ran every epsilon and then failed the fit
    for value in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="amplitude"):
            ValidationConfig(amplitude=value)
    assert ValidationConfig(amplitude=-0.1).amplitude == -0.1
    with pytest.raises(ConfigError, match="bo_modes"):
        ValidationConfig(bo_modes=500)  # no surrogate grid of that size
    # a count that is not an int died in the run with a TypeError, or
    # (True) ran as 1
    for field, value in (("checkpoints", 2.5), ("checkpoints", True),
                         ("bo_modes", 512.0), ("jobs", 2.0)):
        with pytest.raises(ConfigError, match=field):
            ValidationConfig(**{field: value})
    # at or below alpha* ~ 1.479 the window form is not coercive (gate 4)
    with pytest.raises(ConfigError, match=r"alpha\* = 1\.4788"):
        ValidationConfig(alpha=1.4)
    assert ValidationConfig(alpha=1.5).alpha == 1.5


@pytest.mark.parametrize("pipeline", ["residual", "validation"])
def test_epsilons_on_one_ring_are_refused(pipeline):
    # equal epsilons are refused by the config; distinct ones that snap to
    # one ring by the plan, naming both and the ring
    with pytest.raises(ConfigError, match="distinct"):
        ValidationConfig(epsilons=(0.2, 0.1, 0.1))
    cfg = ValidationConfig(epsilons=(0.2, 0.1414, 0.1001, 0.1))
    with pytest.raises(ConfigError, match=r"0\.1001 and 0\.1 .*N = 1024"):
        describe_plan(cfg, pipeline)


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_checkpoint_states_equal_a_run_to_call_per_checkpoint(alpha):
    # one run_to call through the checkpoints gives, at either default
    # amplitude, the spectra and IF-RK4 steps of one call per checkpoint,
    # to the last bit
    params = make_alpha_params(alpha)
    for amplitude in {default_residual_amplitude(alpha),
                      harness.DEFAULT_VALIDATION_AMPLITUDE}:
        cfg = ValidationConfig(alpha=alpha, amplitude=amplitude)
        u0 = harness._initial_profile(cfg, amplitude)
        states, record = harness._bo_checkpoint_states(cfg, params, u0)
        bo_cfg = BOConfig(params=params, dtau=harness._surrogate_dtau(cfg))
        state, steps = states[0], 0
        assert state.u is u0 and state.tau == 0.0
        for i in range(1, cfg.checkpoints + 1):
            tau = i * cfg.tau0 / cfg.checkpoints
            steps += sum(n for _, n in span_plan(state.tau, tau, bo_cfg))
            [state] = run_to(state, tau, bo_cfg)
            assert states[i].tau == state.tau
            assert np.array_equal(states[i].u.spectrum, state.u.spectrum)
        assert len(states) == cfg.checkpoints + 1
        assert record["rk4_steps"] == steps == 200


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_default_surrogate_step_sits_at_the_rounding_floor(alpha,
                                                           monkeypatch):
    # at the default 10 steps per checkpoint the checkpoint spectra match a
    # 4x finer run within 1e-11 of their max, at each sweep's default
    # amplitude; 2 steps per checkpoint miss that bound at amplitude 0.7
    params = make_alpha_params(alpha)
    steps = harness.BO_STEPS_PER_CHECKPOINT
    assert steps == 10

    def spectra(amplitude, m):
        monkeypatch.setattr(harness, "BO_STEPS_PER_CHECKPOINT", m)
        return [s.u.spectrum for s in harness._bo_checkpoint_states(
            ValidationConfig(alpha=alpha, amplitude=amplitude), params,
            gaussian_profile(PeriodicGrid(102.4, 512), amplitude))[0]]

    def deviation(amplitude, n):
        coarse, fine = (spectra(amplitude, m) for m in (n, 4 * n))
        return max(np.max(np.abs(a - b)) / np.max(np.abs(b))
                   for a, b in zip(coarse, fine))

    for amplitude in {default_residual_amplitude(alpha),
                      harness.DEFAULT_VALIDATION_AMPLITUDE}:
        assert deviation(amplitude, steps) < 1e-11
    if default_residual_amplitude(alpha) == 0.7:
        assert deviation(0.7, 2) > 1e-11


def test_surrogate_record_takes_the_largest_top_third_share():
    # 64 modes keep bins 0..21 (3j < 64); the top third is bins 15..21.
    # Bins 1..31 count twice in the L2 energy, bin 0 and the Nyquist once.
    cfg = _smoke_config(bo_modes=64)
    low = np.zeros(33, dtype=complex)
    low[1] = 1.0
    mixed = low.copy()
    mixed[0] = 2.0
    mixed[14] = 1.0   # just below the top third
    mixed[15] = 0.5j
    mixed[25] = 2.0   # dropped by the mask, but part of the energy
    mixed[32] = 3.0
    record = harness._surrogate_record(cfg, 7, [low, mixed, low])
    assert record["rk4_steps"] == 7
    assert record["dtau"] == 0.05 / 2 / harness.BO_STEPS_PER_CHECKPOINT
    share = 2 * 0.25 / (4.0 + 2 * (1.0 + 1.0 + 0.25 + 4.0) + 9.0)
    assert record["max_top_third_share"] == pytest.approx(share, rel=1e-15)
    assert harness._surrogate_record(cfg, 7, [low])[
        "max_top_third_share"] == 0.0


def test_default_amplitude_policy():
    assert default_residual_amplitude(1.8) == 0.7
    assert default_residual_amplitude(2.0) == 0.7
    assert default_residual_amplitude(2.5) == 0.1


def test_fit_slope_exact_power_law():
    eps = [0.2, 0.1, 0.05, 0.025]
    pairs = [(e, 3.7 * e ** 2.5) for e in eps]
    slope, intercept, r2, stderr = fit_slope(pairs)
    assert abs(slope - 2.5) < 1e-12
    assert abs(math.exp(intercept) - 3.7) < 1e-12
    assert r2 == pytest.approx(1.0)
    assert stderr < 1e-12
    report = _scaling_report(pairs, 2.5)
    assert report.slope_stderr == stderr
    assert len(report.local_slopes) == 3
    assert all(abs(s - 2.5) < 1e-12 for s in report.local_slopes)


def test_fit_slope_with_jitter():
    rng = np.random.default_rng(21)
    eps = [0.2, 0.141, 0.1, 0.0707, 0.05]
    pairs = [(e, 2.0 * e ** 1.5 * float(np.exp(0.01 * rng.standard_normal())))
             for e in eps]
    slope, intercept, r2, stderr = fit_slope(pairs)
    assert abs(slope - 1.5) < 0.05
    assert r2 > 0.999
    # numpy's covariance is scaled by the residual variance over n - 2
    x, y = np.log([p[0] for p in pairs]), np.log([p[1] for p in pairs])
    coef, cov = np.polyfit(x, y, 1, cov=True)
    assert slope == pytest.approx(coef[0], rel=1e-12)
    assert intercept == pytest.approx(coef[1], rel=1e-12)
    assert stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-10)
    report = _scaling_report(pairs, 1.5)
    assert report.local_slopes == pytest.approx(tuple(np.diff(y) / np.diff(x)),
                                                rel=1e-12)


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([(0.2, 1.0), (0.1, 0.5)])
    with pytest.raises(ValueError):
        fit_slope([(0.2, 1.0), (0.1, 0.5), (0.05, -0.1)])
    with pytest.raises(ValueError):
        fit_slope([(0.2, 1.0), (0.1, 0.5), (0.0, 0.2)])
    with pytest.raises(ValueError):
        fit_slope([(0.2, 1.0), (0.1, 0.5), (0.1, 0.4)])


def test_scaling_report_validation():
    with pytest.raises(ValueError):
        ScalingReport(pairs=((0.2, 1.0), (0.1, 0.5)), slope=1.0,
                      intercept=0.0, target_exponent=1.0, r_squared=1.0,
                      slope_stderr=0.0, local_slopes=(1.0,))


def test_describe_plan_default_ring_sizes():
    cfg = ValidationConfig(alpha=2.0)
    plan = describe_plan(cfg, "residual")
    sizes = [entry["N"] for entry in plan]
    assert sizes == [512, 724, 1024, 1448]
    eps = [entry["epsilon"] for entry in plan]
    assert eps[0] == pytest.approx(0.2)
    assert eps[1] == pytest.approx(102.4 / 724)
    cuts = [entry["cutoff"] for entry in plan]
    assert cuts[0] == min(255, math.ceil(3.0 / eps[0] ** 2))
    assert all(c <= n // 2 - 1 for c, n in zip(cuts, sizes))
    vplan = describe_plan(cfg, "validation")
    # the step grows below STEP_GROWTH_EPS (see test_chain_step_law), where
    # dt <= lattice_dt took 80, 140, 260 and 500 steps
    assert [entry["total_steps"] for entry in vplan] == [80, 120, 120, 120]
    assert [entry["dt"] for entry in vplan] == pytest.approx(
        [0.078125, 0.10414441426595, 0.20833333333333333, 0.416577657063802],
        rel=1e-12)
    # on the infinite lattice at alpha 2, omega_max^2 = pi^4/4, so the
    # limit 0.9 pi / omega_max is 1.8/pi; the ring cap lowers omega_max
    assert all(1.8 / math.pi < entry["step_limit"]
               < 1.8 / math.pi * (1.0 + 1e-8) for entry in vplan)
    # the plan gives each ring's cutoff; how each force splits its ranges
    # follows its state, and report.json records it as the run took it
    assert all(set(entry) == {"epsilon", "N", "checkpoints", "cutoff",
                              "band"} for entry in plan)
    assert all(set(entry) == {"epsilon", "N", "checkpoints", "cutoff",
                              "band", "horizon", "dt", "step_limit",
                              "steps_per_checkpoint", "total_steps"}
               for entry in vplan)
    # the chain runs on the surrogate's grid of bo_modes points wherever
    # the ring is larger, on the ring itself at eps 0.2; the residual on the
    # profile's grid, which its ring may not be smaller than
    assert [entry["band"] for entry in vplan] == [512, 512, 512, 512]
    assert [entry["band"] for entry in describe_plan(
        ValidationConfig(alpha=2.0, bo_modes=1024), "validation")] \
        == [512, 724, 1024, 1024]
    assert [entry["band"] for entry in plan] == [512, 512, 512, 512]
    # the residual's cutoff is ceil(coef/eps^2), within the ring cap
    short = describe_plan(ValidationConfig(alpha=2.0,
                                           residual_cutoff_coef=0.5), "residual")
    assert [e["cutoff"] for e in short] == [13, 25, 50, 100]


# per-checkpoint steps on eps 0.4 ... 0.025, and how many of the smallest
# epsilons take the capped step
_LAW_STEPS = {1.8: ([1, 3, 4, 4, 4, 6, 11, 20], 3),
              2.0: ([1, 4, 6, 6, 6, 11, 22, 44], 3),
              2.5: ([2, 7, 15, 18, 25, 59, 140, 333], 4)}


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_chain_step_law(alpha):
    # the chain's nominal step is lattice_dt down to eps 0.15, grows as
    # lattice_dt * (0.15/eps)^2 below it up to 0.8 of the stability limit,
    # and is never below lattice_dt; each checkpoint interval is cut into
    # the fewest whole steps no longer than the nominal one
    eps = (0.4, 0.2, 0.1414, 0.1, 0.0707, 0.05, 0.0354, 0.025)
    cfg = ValidationConfig(alpha=alpha, epsilons=eps)
    plan = describe_plan(cfg, "validation")
    steps, capped = _LAW_STEPS[alpha]
    assert [e["steps_per_checkpoint"] for e in plan] == steps

    def cut_from(e, nominal):
        n = e["steps_per_checkpoint"]
        return nominal * (n - 1) / n < e["dt"] <= nominal * (1.0 + 1e-15)

    for e in plan:
        assert e["step_limit"] == lattice.step_limit(e["N"], alpha, e["cutoff"])
        assert e["steps_per_checkpoint"] * e["dt"] == pytest.approx(
            e["horizon"] / e["checkpoints"], rel=1e-14)
    # flat down to eps 0.15, then as eps^-2 until the cap takes over
    assert all(cut_from(e, cfg.lattice_dt) for e in plan[:2])
    grown = plan[2:len(plan) - capped]
    assert all(cut_from(e, cfg.lattice_dt * (0.15 / e["epsilon"]) ** 2)
               for e in grown)
    assert all(cut_from(e, 0.8 * e["step_limit"]) for e in plan[-capped:])
    assert all(cfg.lattice_dt * (0.15 / e["epsilon"]) ** 2
               > 0.8 * e["step_limit"] for e in plan[-capped:])
    # a lattice_dt above the cap is taken at every epsilon
    big = ValidationConfig(alpha=alpha, epsilons=eps,
                           lattice_dt=0.9 * plan[-1]["step_limit"])
    assert all(cut_from(e, big.lattice_dt)
               for e in describe_plan(big, "validation"))


@pytest.mark.parametrize("alpha, eps", [(1.8, 0.1), (2.0, 0.0707)])
def test_chain_step_within_the_step_laws_accuracy_bound(alpha, eps):
    # the grown step against a dt/4 run: sup mu and sup nu over the horizon
    # move by at most 0.45%, the step error at eps 0.2 (alpha 2), where the
    # step has not grown; here they move by 0.36% / 0.04% and
    # 0.04% / 0.19%, and the energy drifts by less than 1e-10
    cfg = ValidationConfig(alpha=alpha)
    params = make_alpha_params(alpha)
    surrogate, _ = harness._bo_checkpoint_states(
        cfg, params, harness._initial_profile(
            cfg, harness.DEFAULT_VALIDATION_AMPLITUDE))
    [entry] = [e for e in describe_plan(cfg, "validation")
               if abs(e["epsilon"] - eps) < 1e-3]
    fine = dict(entry, dt=entry["dt"] / 4,
                steps_per_checkpoint=4 * entry["steps_per_checkpoint"])
    (_, mu, nu, _, health), (_, mu4, nu4, _, _) = (
        harness._validation_eps_task(cfg, params, surrogate, e)
        for e in (entry, fine))
    assert abs(mu[1] / mu4[1] - 1.0) <= 4.5e-3
    assert abs(nu[1] / nu4[1] - 1.0) <= 4.5e-3
    assert health["energy_rel_drift"] < 1e-10


def test_cutoff_policies():
    # the validation chain runs at the ring cap N/2 - 1
    cfg = ValidationConfig(alpha=2.5, epsilons=(0.4, 0.2, 0.1))
    plan = describe_plan(cfg, "validation")
    assert [entry["N"] for entry in plan] == [256, 512, 1024]
    assert [entry["cutoff"] for entry in plan] == [127, 255, 511]
    # the residual range is ceil(coef/eps^2), capped at the ring cap
    plan = describe_plan(ValidationConfig(alpha=2.0), "residual")
    assert [entry["cutoff"] for entry in plan] == [75, 150, 300, 600]
    plan = describe_plan(ValidationConfig(alpha=2.0, period=12.8,
                                          bo_modes=64,
                                          epsilons=(0.2, 0.1, 0.05)),
                         "residual")
    assert [entry["N"] for entry in plan] == [64, 128, 256]
    assert [entry["cutoff"] for entry in plan] == [31, 63, 127]


def test_clock_consistency_across_checkpoints():
    # lattice time i*seg must land on the surrogate checkpoint tau_i/eps^a
    for alpha in (1.8, 2.0, 2.5):
        for eps in (0.2, 102.4 / 724, 0.1, 102.4 / 1448):
            tau0, K = 0.25, 20
            T = tau0 / eps ** alpha
            seg = T / K
            for i in range(1, K + 1):
                tau_i = i * tau0 / K
                t_i = i * seg
                err = abs(t_i * eps ** alpha - tau_i)
                assert err <= 4.0 * np.spacing(tau_i)


# ---------------------------------------------------------------------------
# ansatz and residual


@pytest.mark.parametrize("alpha,shift", [(1.8, 0.0), (2.0, 0.0), (2.5, -3.7)])
def test_ansatz_fields_match_residual_ansatz(alpha, shift):
    # the validation state is the displacement ansatz whose residual
    # residual_fields measures: gaps are cell means of -eps^(alpha-1) u, and
    # the velocity difference across a gap is that gap's time derivative
    params = make_alpha_params(alpha)
    period, N = 102.4, 320
    eps = period / N
    u0 = gaussian_profile(PeriodicGrid(period, 256), 0.1)
    r, p = ansatz_fields(u0.spectrum, period, N, params, shift)
    scale = eps ** (alpha - 1.0)
    kN = wavenumbers(N, period)
    cN = resample_spectrum(u0.spectrum, N)
    ut = _rhs_spectrum(cN, kN, params, dealias_mask(N))
    cN, ut = (x * np.exp(1j * kN * shift) for x in (cN, ut))
    for ms, G in _window_sums(r, 17):
        for m, Gm in zip(ms[:, 0], G):
            window = np.fft.irfft(average_multiplier(kN, eps * m) * cN, N) * N
            assert np.max(np.abs(Gm / m + scale * window)) \
                <= 1e-12 * np.max(np.abs(r))
    # r_j = -eps^(alpha-1) A_eps u(eps*(j - c t) + shift, eps^alpha t)
    A = average_multiplier(kN, eps)
    drdt = -scale * np.fft.irfft(A * (-eps * params.c * 1j * kN * cN
                                      + eps ** alpha * ut), N) * N
    assert np.max(np.abs((np.roll(p, -1) - p) - drdt)) \
        <= 1e-12 * np.max(np.abs(p))
    assert abs(float(np.sum(p))) <= 1e-12 * N * np.max(np.abs(p))


@pytest.mark.parametrize("N", [128, 256])
def test_ansatz_fields_on_a_ring_coarser_than_the_profile(N):
    # N < bo_modes: the fields are formed on the profile's own grid and
    # sampled onto the ring, so they equal the ansatz formula evaluated on
    # that grid at every (n/N)-th point
    params = make_alpha_params(2.0)
    period, n, shift = 102.4, 512, -1.3
    eps = period / N
    u0 = gaussian_profile(PeriodicGrid(period, n), 0.1)
    r, p = ansatz_fields(u0.spectrum, period, N, params, shift)
    k = wavenumbers(n, period)
    ut = _rhs_spectrum(u0.spectrum, k, params, dealias_mask(n))
    vt = np.zeros_like(ut)
    vt[1:] = -ut[1:] / (1j * k[1:])
    phase = np.exp(1j * k * shift)

    def on_ring(c):
        return (np.fft.irfft(c * phase, n) * n)[::n // N]

    scale = eps ** (params.alpha - 1.0)
    r_ref = -scale * on_ring(average_multiplier(k, eps) * u0.spectrum)
    p_ref = (params.c * scale * on_ring(u0.spectrum)
             + eps ** (2.0 * params.alpha - 2.0) * on_ring(vt))
    assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
    assert np.max(np.abs(p - p_ref)) <= 1e-13 * np.max(np.abs(p_ref))


def test_ring_size_and_ansatz_fields_reject_bad_input():
    # the ansatz ring comes from _ring_size, which rejects rings that are
    # too small or epsilons too far from any even ring; the profile must
    # be mean-zero
    grid = PeriodicGrid(102.4, 256)
    u0 = gaussian_profile(grid, 0.2)
    assert _ring_size(102.4, 0.4) == (256, 0.4)
    # up to MAX_RING sites, and no ring past it
    assert _ring_size(harness.MAX_RING * 0.5, 0.5) == (harness.MAX_RING, 0.5)
    with pytest.raises(ConfigError, match="past the largest"):
        _ring_size((harness.MAX_RING + 2) * 0.5, 0.5)
    with pytest.raises(ConfigError):
        _ring_size(12.8, 0.9)  # 14 sites
    with pytest.raises(ConfigError):
        _ring_size(12.8, 0.35)  # nearest even ring is 4% off
    biased = SpectralField.from_values(grid, u0.values + 1.0)
    with pytest.raises(ValueError):
        ansatz_fields(biased.spectrum, 102.4, 256, PARAMS2)


def test_residual_cancellation_between_parts():
    # the interaction part must cancel the wave-operator part to leading
    # order; the sum sits far below either term
    grid = PeriodicGrid(102.4, 512)
    u0 = gaussian_profile(grid, 0.7)
    eps = 0.05
    cutoff = min(255, math.ceil(3.0 / eps ** 2))
    accel, fpart = residual_fields(u0, eps, PARAMS2, cutoff)
    total = np.linalg.norm(accel + fpart)
    assert total < 0.02 * np.linalg.norm(accel)
    assert total < 0.02 * np.linalg.norm(fpart)


def test_residual_eval_decreases_with_epsilon():
    grid = PeriodicGrid(102.4, 512)
    u0 = gaussian_profile(grid, 0.7)
    plan = describe_plan(ValidationConfig(alpha=2.0,
                                          epsilons=(0.2, 0.1414, 0.1)),
                         "residual")
    norms = []
    for entry in (plan[0], plan[2]):
        accel, fpart = residual_fields(u0, entry["epsilon"], PARAMS2,
                                       entry["cutoff"])
        norms.append(np.linalg.norm(accel + fpart))
    local_slope = math.log(norms[0] / norms[1]) / math.log(2.0)
    assert 2.8 < local_slope < 4.2  # near beta = 3.5 already at two points


def test_residual_fields_evaluates_the_surrogate_rhs_once(monkeypatch):
    # u_tau, the v_tautau term and the ansatz gaps share one du/dtau
    calls = []
    rhs = bo_solver._rhs_spectrum

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(bo_solver, "_rhs_spectrum", counted)
    monkeypatch.setattr(harness, "_rhs_spectrum", counted)
    u0 = gaussian_profile(PeriodicGrid(102.4, 256), 0.5)
    for eps in (0.4, 0.2):
        calls.clear()
        residual_fields(u0, eps, PARAMS2, 20)
        assert len(calls) == 1


def test_residual_eval_rejects_incommensurate():
    grid = PeriodicGrid(102.4, 256)
    u0 = gaussian_profile(grid, 0.5)
    with pytest.raises(ConfigError):
        residual_fields(u0, 0.117, PARAMS2, 10)


def _interaction_longdouble(u_tau, eps, params, cutoff):
    # the residual's interaction part as the per-range spectral formula
    # evaluates it, in long double: per range m the forward and backward
    # window means of -eps^(alpha-1) u, xp and xm, and the pair-slope
    # difference alpha m^-(alpha+1) ((1+xp)^-(alpha+1) - (1+xm)^-(alpha+1)),
    # anchored at xm so that it survives xp - xm far below xm
    period = u_tau.grid.period
    N = int(round(period / eps))
    n = u_tau.grid.n
    src = np.fft.fft(u_tau.values).astype(np.clongdouble) / n
    # zero-padded to N, the unpaired top mode split between +n/2 and -n/2
    c = np.zeros(N, dtype=np.clongdouble)
    c[:n // 2] = src[:n // 2]
    c[N - n // 2 + 1:] = src[n // 2 + 1:]
    c[n // 2] += src[n // 2] / 2
    c[N - n // 2] += src[n // 2] / 2
    k = 2 * np.pi * np.fft.fftfreq(N).astype(np.longdouble) \
        * (N / np.longdouble(period))
    alpha = np.longdouble(params.alpha)
    b = alpha + 1
    e = np.longdouble(period) / N
    scale = e ** (alpha - 1)

    def window(h):
        # symbol of the window mean over [X, X + h]
        kh = k * h
        safe = np.where(kh == 0, 1, kh)
        return np.where(kh == 0, 1, (np.exp(1j * safe) - 1) / (1j * safe))

    def field(symbol):
        return -scale * np.fft.ifft(symbol * c).real * N

    total = np.zeros(N, dtype=np.longdouble)
    for m in range(1, cutoff + 1):
        ap, am = window(e * m), window(-e * m)
        xp, xm, dx = field(ap), field(am), field(ap - am)
        base = 1 + xm
        total += alpha * np.longdouble(m) ** -b * base ** -b \
            * np.expm1(-b * np.log1p(dx / base))
    return total


def test_interaction_part_matches_longdouble_window_formula():
    # the interaction part is minus the chain force at the ansatz gaps; it
    # must equal the spectral window-mean formula of the residual, evaluated
    # in long double, to far below the residual it enters (measured 8e-12
    # and 1e-10 of the residual norm; the per-range double-precision form
    # read 6e-12 and 1.2e-10)
    params = make_alpha_params(2.5)
    u0 = gaussian_profile(PeriodicGrid(51.2, 128), 0.1)
    for eps, cutoff in ((0.2, 75), (0.1, 255)):
        accel, fpart = residual_fields(u0, eps, params, cutoff)
        ref = _interaction_longdouble(u0, eps, params, cutoff)
        gap = float(np.linalg.norm(fpart - ref)) \
            / float(np.linalg.norm(accel + fpart))
        assert gap < 1e-9, (eps, gap)


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_band_interaction_part_matches_longdouble_window_formula(alpha):
    # on rings larger than the profile's 512-point band, at the sweep's
    # profile and ranges: measured 3e-13 to 1.4e-10 of the residual norm,
    # where the ring's force reads 3.9e-13 to 1.6e-10
    params = make_alpha_params(alpha)
    u0 = gaussian_profile(PeriodicGrid(102.4, 512),
                          default_residual_amplitude(alpha))
    for N in (724, 1024):
        eps = 102.4 / N
        cutoff = math.ceil(3.0 / eps ** 2)
        band = lattice.Band(512)
        accel, fpart = residual_fields(u0, eps, params, cutoff, band=band)
        ref = _interaction_longdouble(u0, eps, params, cutoff)
        gap = float(np.linalg.norm(fpart - ref)) \
            / float(np.linalg.norm(accel + fpart))
        assert gap < 1e-9, (N, gap)
        # no content past the band's bin Q/2 but the transforms' rounding
        F = np.abs(np.fft.rfft(fpart))
        assert np.max(F[257:]) <= 1e-14 * np.max(F)
        assert band.fallbacks == 0


def test_residual_on_the_ring_where_the_band_reaches_it():
    # a band of Q >= N points leaves the interaction part on the ring: minus
    # the ring's force at the ansatz gaps, bit for bit, with nothing
    # recorded on the band
    cfg, params, field = _stacked_checkpoints(2.0, checkpoints=2)
    for N, Q in ((512, None), (724, 724), (724, 1024)):
        eps = 102.4 / N
        cutoff = min(N // 2 - 1, math.ceil(3.0 / eps ** 2))
        band = None if Q is None else lattice.Band(Q)
        _, fpart = residual_fields(field, eps, params, cutoff, band=band)
        lat_cfg = LatticeConfig(N=N, alpha=2.0, cutoff=cutoff, dt=1.0)
        k = wavenumbers(N, 102.4)
        for f, c in zip(fpart, resample_spectrum(field.spectrum, N)):
            r = harness._ansatz_gaps(c, k, 102.4, N, 2.0)
            assert np.array_equal(f, -lattice.force(r, lat_cfg))
        if band is not None:
            assert (band.dropped_share, band.top_share, band.fallbacks) \
                == (0.0, 0.0, 0)


@pytest.mark.parametrize("what", ["gaps", "force"])
def test_band_residual_takes_the_ring_past_its_bins(what):
    # a profile with a wave of 1e-8 of it at bin 200, past the 171 bins of
    # its 512-point band, second in a stack, or the 128-mode profile whose
    # force passes the 43 bins of its own band by 2.7e-19: that profile
    # takes the ring's interaction part, bit for bit, counted as a
    # fallback, and the band's shares are those of the forces it formed
    if what == "gaps":
        alpha, eps, cutoff = 2.0, 0.1, 300
        u0 = gaussian_profile(PeriodicGrid(102.4, 512), 0.7)
        wave = np.zeros_like(u0.spectrum)
        wave[200] = 1e-8 * np.max(np.abs(u0.spectrum))
        spectra, profile = [u0.spectrum, u0.spectrum + wave], 1
    else:
        alpha, eps, cutoff = 2.5, 0.2, 75
        u0 = gaussian_profile(PeriodicGrid(51.2, 128), 0.1)
        spectra, profile = [u0.spectrum], 0
    field = SpectralField.from_spectrum(u0.grid, spectra)
    params = make_alpha_params(alpha)
    band = lattice.Band(field.grid.n)
    _, fpart = residual_fields(field, eps, params, cutoff, band=band)
    _, ring = residual_fields(field, eps, params, cutoff)
    assert np.array_equal(fpart[profile], ring[profile])
    assert band.fallbacks == 1
    assert 0.0 < band.top_share <= lattice.BAND_TOL if what == "gaps" \
        else band.top_share == 0.0
    assert band.dropped_share <= lattice.BAND_TOL


def test_residual_collision_names_the_run(monkeypatch):
    # an ansatz gap deviation of 1 or more means the ansatz chain has lost
    # its ordering; the residual refuses it with alpha and epsilon, and the
    # sweep adds the t of the first checkpoint, in stack order, that reached
    # it, whether the stack goes through in one chunk or two profiles a
    # chunk, on the ring of 256 sites and on the profile's band of 256
    # points within the ring of 320, which forms the force itself
    u0 = gaussian_profile(PeriodicGrid(102.4, 256), 5.0)
    small = gaussian_profile(PeriodicGrid(102.4, 256), 0.1)
    cfg = _smoke_config(checkpoints=6)
    for N, band in ((256, None), (320, lattice.Band(256))):
        r, _ = ansatz_fields(u0.spectrum, 102.4, N, PARAMS2)
        assert np.max(np.abs(r)) >= 1.0
        with pytest.raises(CollisionError) as info:
            residual_fields(SpectralField.from_spectrum(
                u0.grid, [small.spectrum, u0.spectrum]), 102.4 / N, PARAMS2,
                50, band=band)
        assert (info.value.alpha, info.value.epsilon, info.value.profile) \
            == (2.0, 102.4 / N, 1)
    assert band.fallbacks == 0
    states = [BOState(u=u, tau=i * cfg.tau0 / 6) for i, u in enumerate(
        [small] * 3 + [u0, small, u0, small])]
    for entry in describe_plan(cfg, "residual")[:2]:
        for block in (lattice._BLOCK_ELEMENTS, 2 * entry["N"]):
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", block)
            with pytest.raises(CollisionError) as info:
                harness._residual_eps_task(cfg, PARAMS2, states, entry)
            assert (info.value.alpha, info.value.epsilon) \
                == (2.0, entry["epsilon"])
            assert info.value.t \
                == (3 * cfg.tau0 / 6) / entry["epsilon"] ** 2.0
    with pytest.raises(CollisionError) as info:
        run_residual_sweep(_smoke_config(amplitude=5.0))
    assert (info.value.alpha, info.value.epsilon, info.value.t) \
        == (2.0, 102.4 / 256, 0.0)


def _stacked_checkpoints(alpha, **overrides):
    # a residual sweep's checkpoint profiles as one stacked field
    cfg = ValidationConfig(alpha=alpha, **overrides)
    params = make_alpha_params(alpha)
    u0 = harness._initial_profile(cfg, default_residual_amplitude(alpha))
    states, _ = harness._bo_checkpoint_states(cfg, params, u0)
    return cfg, params, SpectralField.from_spectrum(
        u0.grid, [s.u.spectrum for s in states])


def _assert_rows_are_single_calls(field, eps, params, cutoff, monkeypatch,
                                  Q=None):
    # the stacked call builds the far weights, through FAR_ORDER, past a
    # cutoff of twice NEAR_RANGE, and none within it, anew only where a
    # profile's near range differs from the one before; every row equals
    # the one-profile call to the last bit, on the ring or on a band of Q
    # points.  Returns the near ranges the stacked call built weights for
    built = []
    real = lattice._held_far_weights

    def counted(config, M0):
        b = real(config, M0)
        assert len(b) == lattice.FAR_ORDER + 1
        built.append(M0)
        return b

    def band():
        return None if Q is None else lattice.Band(Q)

    monkeypatch.setattr(lattice, "_held_far_weights", counted)
    accel, fpart = residual_fields(field, eps, params, cutoff, band=band())
    assert bool(built) == (cutoff > 2 * lattice.NEAR_RANGE)
    assert all(a != b for a, b in zip(built, built[1:]))
    stacked = list(built)
    assert accel.shape == fpart.shape == (len(field.spectrum), accel.shape[1])
    for i, c in enumerate(field.spectrum):
        a, f = residual_fields(SpectralField.from_spectrum(field.grid, c), eps,
                               params, cutoff, band=band())
        assert np.array_equal(accel[i], a), i
        assert np.array_equal(fpart[i], f), i
    return stacked


@pytest.mark.parametrize("alpha", [1.8, 2.5])
def test_stacked_residual_rows_equal_single_profile_calls(alpha,
                                                          monkeypatch):
    # the sweep's 21 checkpoints on its four default rings, 512 to 1448
    # sites, one to two chunks of profiles, on the ring and on the band the
    # sweep takes; every checkpoint of an epsilon takes one near range, so
    # one set of weights is built: 14 to 17 at alpha 1.8, 8 at 2.5
    cfg, params, field = _stacked_checkpoints(alpha)
    assert field.spectrum.shape == (cfg.checkpoints + 1,
                                    cfg.bo_modes // 2 + 1)
    for entry in describe_plan(cfg, "residual"):
        for Q in (None, entry["band"]):
            [M0] = _assert_rows_are_single_calls(
                field, entry["epsilon"], params, entry["cutoff"],
                monkeypatch, Q)
            assert (14 <= M0 <= 17) if alpha == 1.8 else M0 == 8


def test_stacked_residual_rows_at_a_short_cutoff(monkeypatch):
    # a cutoff within twice the near range sums every range directly, and
    # no weights are built
    u = [gaussian_profile(PeriodicGrid(102.4, 256), a).spectrum
         for a in (0.1, 0.5, 0.9)]
    field = SpectralField.from_spectrum(PeriodicGrid(102.4, 256), u)
    for cutoff in (20, 2 * lattice.NEAR_RANGE):
        _assert_rows_are_single_calls(field, 0.4, PARAMS2, cutoff,
                                      monkeypatch)


def test_stacked_residual_rows_at_their_own_near_ranges(monkeypatch):
    # alpha 1.5 at eps 0.05: at amplitudes 0.5, 0.7 and 0.3 the gaps'
    # scaled primitive has 2 max|s| = 16.6, 23.2 and 9.9, past the old
    # guard's 17 at 0.7, so the rows take near ranges 33, 46 and 19, each
    # its own, on the ring and on the band, which falls back for none and
    # records the largest
    grid = PeriodicGrid(102.4, 512)
    params = make_alpha_params(1.5)
    N, cutoff = 2048, 300
    cfg = LatticeConfig(N=N, alpha=1.5, cutoff=cutoff, dt=1.0)
    k = wavenumbers(N, grid.period)
    u = [gaussian_profile(grid, a).spectrum for a in (0.5, 0.7, 0.3)]
    for c, M0 in zip(u, (33, 46, 19)):
        r = harness._ansatz_gaps(resample_spectrum(c, N), k, grid.period, N,
                                 1.5)
        assert lattice._far_split(r, cfg)[3] == M0
    field = SpectralField.from_spectrum(grid, u)
    for Q in (None, 512):
        assert _assert_rows_are_single_calls(
            field, grid.period / N, params, cutoff, monkeypatch, Q) \
            == [33, 46, 19]
    band = lattice.Band(512)
    residual_fields(field, grid.period / N, params, cutoff, band=band)
    assert band.fallbacks == 0 and band.near_range == 46


def test_ansatz_gaps_take_stacks_row_by_row():
    # stacked profiles; the shifted ansatz is ansatz_fields', whose stacks
    # test_stacked_ansatz_rows_equal_single_calls checks
    grid = PeriodicGrid(102.4, 256)
    c = np.array([gaussian_profile(grid, a).spectrum for a in (0.1, 0.7)])
    for N in (128, 256, 724):
        cN = resample_spectrum(c, N)
        k = wavenumbers(N, grid.period)
        r = harness._ansatz_gaps(cN, k, grid.period, N, 1.8)
        for i, row in enumerate(r):
            one = harness._ansatz_gaps(cN[i], k, grid.period, N, 1.8)
            assert np.array_equal(row, one), (N, i)


def _validation_checkpoints(alpha=2.0):
    # a default validation's checkpoint profiles, stacked
    cfg = ValidationConfig(alpha=alpha)
    params = make_alpha_params(alpha)
    u0 = harness._initial_profile(cfg, harness.DEFAULT_VALIDATION_AMPLITUDE)
    states, _ = harness._bo_checkpoint_states(cfg, params, u0)
    return cfg, params, np.array([s.u.spectrum for s in states])


@pytest.mark.parametrize("N", [256, 512, 1448])
def test_stacked_ansatz_rows_equal_single_calls(N):
    # the validation's 21 checkpoint profiles on rings coarser than, equal
    # to and finer than their 512-point grid: row i of a stacked call
    # equals the call on profile i alone to the last bit, with a shift per
    # row (the moving frame's -eps c t, -0.0 at t = 0), one shift for all,
    # and none
    cfg, params, spectra = _validation_checkpoints()
    eps = cfg.period / N
    ts = np.arange(len(spectra)) * 3.7
    for shifts in (-eps * params.c * ts, np.full(len(spectra), 1.3),
                   np.zeros(len(spectra))):
        r, p = ansatz_fields(spectra, cfg.period, N, params, shifts)
        assert r.shape == p.shape == (len(spectra), N)
        for i, (c, shift) in enumerate(zip(spectra, shifts)):
            one_r, one_p = ansatz_fields(c, cfg.period, N, params, shift)
            assert np.array_equal(r[i], one_r), (N, i)
            assert np.array_equal(p[i], one_p), (N, i)
        if np.all(shifts == shifts[0]):
            both = ansatz_fields(spectra, cfg.period, N, params, shifts[0])
            assert np.array_equal(both[0], r) and np.array_equal(both[1], p)


def test_validation_rows_do_not_depend_on_the_ansatz_chunks(monkeypatch):
    # _validation_eps_task forms the checkpoints' ansatz _BLOCK_ELEMENTS // N
    # at a time, after the t = 0 call; one, two or every checkpoint a call
    # give the same rows, energy rows and health to the last bit
    cfg = _smoke_config(checkpoints=5, energy_trace=True)
    params = make_alpha_params(cfg.alpha)
    u0 = harness._initial_profile(cfg, harness.DEFAULT_VALIDATION_AMPLITUDE)
    states, _ = harness._bo_checkpoint_states(cfg, params, u0)
    entry = describe_plan(cfg, "validation")[1]
    shapes = []
    real = harness.ansatz_fields

    def recorded(spectrum, *args, **kwargs):
        shapes.append(np.shape(spectrum)[:-1])
        return real(spectrum, *args, **kwargs)

    monkeypatch.setattr(harness, "ansatz_fields", recorded)
    results = []
    for per_call, chunks in ((1, [1] * 5), (2, [2, 2, 1]), (64, [5])):
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", per_call * entry["N"])
        shapes.clear()
        results.append(harness._validation_eps_task(cfg, params, states,
                                                    entry))
        assert shapes == [()] + [(n,) for n in chunks]
    assert results[0] == results[1] == results[2]
    assert len(results[0][0]) == len(results[0][3]) + 1 == 6


def test_stacked_ansatz_peak_memory_stays_bounded():
    # one chunk of the validation's checkpoints on its largest ring, 11
    # profiles (_BLOCK_ELEMENTS // 1448) of 1448 sites with their shifts:
    # the peak measured 1.33 MB, and the bound allows 11% over it, 1.48 MB.
    # With the shifted spectra formed beside the unshifted ones and u_tau
    # alive through the sampling, the chunk peaked at 1.80 MB
    cfg, params, spectra = _validation_checkpoints()
    N = 1448
    B = lattice._BLOCK_ELEMENTS // N
    assert B == 11
    eps = cfg.period / N
    shifts = -eps * params.c * np.arange(1, B + 1) * 50.0

    def call():
        ansatz_fields(spectra[1:B + 1], cfg.period, N, params, shifts)

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_480_000


def test_stacked_residual_peak_memory_stays_bounded():
    # one 21-profile call on the sweep's largest ring, (1448, 600), alpha
    # 1.8: two chunks of at most 11 profiles through the transforms, the
    # held weights (25 rows, 145 KB) and both parts' 21 rows (486 KB); the
    # peak measured 1.62 MB on the ring and 1.73 MB on the sweep's band of
    # 512 points, and the bound allows 11% over the first, 1.8 MB.  Under
    # numpy 2.4 they read 1.76 and 1.75 MB, and 1.81 MB on the band with
    # _band_force's zero-padded window array held for the call.  With
    # u_X, u_tau and v_tautau formed side by side the call peaked at 1.83
    # MB, and with them and the chunk's spectra alive through the force
    # loop at 2.20 MB.  With each profile at its own near range (17 here)
    # and one set of weights held at a time, numpy 2.4 read 1.72 MB on the
    # ring and 1.76 MB on the band.  With the ring's force formed on its own
    # band of N points, whose near rows are formed per force and not held
    # past it, both read 1.75 MB, 2.7% and 2.5% under the bound; holding
    # the ring's window and difference rows across the profiles, as a
    # chain does, read 2.15 MB.  With each force's rows looked up in a
    # table of e^{2 pi i j/N} - 1 formed inside the call that needs them,
    # the ring reads 1.73 MB and the band 1.75 MB, 3.7% and 2.9% under it
    cfg, params, field = _stacked_checkpoints(1.8)
    eps = cfg.period / 1448
    for Q in (None, cfg.bo_modes):
        def call():
            band = None if Q is None else lattice.Band(Q)
            residual_fields(field, eps, params, 600, band=band)
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_800_000, Q


# ---------------------------------------------------------------------------
# pipelines (small but real)


def test_run_residual_sweep_smoke(tmp_path):
    cfg = _smoke_config(output=str(tmp_path / "res"))
    rows, report = run_residual_sweep(cfg)
    assert len(rows) == 3 * (cfg.checkpoints + 1)
    assert report.target_exponent == PARAMS2.beta
    assert report.slope > 1.5
    assert len(report.pairs) == 3
    for name in ("residual_sweep.csv", "residual_sweep.dat", "report.json"):
        assert (tmp_path / "res" / name).exists()
    with open(tmp_path / "res" / "report.json") as fh:
        payload = json.load(fh)
    assert payload["pipeline"] == "residual"
    assert payload["residual"]["slope"] == report.slope
    assert payload["residual"]["slope_stderr"] == report.slope_stderr
    assert payload["residual"]["local_slopes"] == list(report.local_slopes)
    # the plan it ran, as the dry run gives it
    plan = describe_plan(cfg, "residual")
    assert payload["plan"] == plan
    # per epsilon, the band it ran on, the ring itself at N = 256 and the
    # profile's 256 points within the larger rings, with what it dropped,
    # its top share and its fallbacks, as residual_fields records them on
    # the checkpoints
    u0 = harness._initial_profile(cfg, cfg.amplitude)
    states, _ = harness._bo_checkpoint_states(cfg, PARAMS2, u0)
    field = SpectralField.from_spectrum(u0.grid,
                                        [s.u.spectrum for s in states])
    assert len(payload["bands"]) == len(plan)
    for entry, record in zip(plan, payload["bands"]):
        band = lattice.Band(entry["band"])
        residual_fields(field, entry["epsilon"], PARAMS2, entry["cutoff"],
                        band=band)
        assert record == {"epsilon": entry["epsilon"], "N": entry["N"],
                          "band": 256,
                          "band_dropped_share": band.dropped_share,
                          "band_top_share": band.top_share,
                          "band_fallbacks": 0,
                          "max_near_range": band.near_range,
                          "max_far_order": band.far_order}
        assert (0.0 < band.top_share <= lattice.BAND_TOL) \
            == (entry["N"] > 256)
    # the surrogate's step, its steps and its resolution
    steps = harness.BO_STEPS_PER_CHECKPOINT
    assert payload["surrogate"]["dtau"] == 0.05 / 2 / steps
    assert payload["surrogate"]["rk4_steps"] == 2 * steps
    assert 0.0 < payload["surrogate"]["max_top_third_share"] < 1e-12


def test_run_residual_sweep_deterministic(tmp_path):
    cfg_a = _smoke_config(output=str(tmp_path / "a"))
    cfg_b = _smoke_config(output=str(tmp_path / "b"))
    run_residual_sweep(cfg_a)
    run_residual_sweep(cfg_b)
    a = (tmp_path / "a" / "residual_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "residual_sweep.csv").read_bytes()
    assert a == b


def test_run_validation_smoke(tmp_path):
    cfg = _smoke_config(output=str(tmp_path / "val"))
    result = run_validation(cfg)
    K = cfg.checkpoints
    assert len(result.rows) == 3 * (K + 1)
    for eps in (0.4, 0.32, 0.25):
        zero_rows = [row for row in result.rows
                     if abs(row[1] - eps) < 0.01 and row[2] == 0.0]
        assert len(zero_rows) == 1
        assert zero_rows[0][3] == 0.0 and zero_rows[0][4] == 0.0
    assert result.mu_report.slope == result.mu_report.slope  # finite
    assert (tmp_path / "val" / "validation.csv").exists()
    assert (tmp_path / "val" / "report.json").exists()
    with open(tmp_path / "val" / "report.json") as fh:
        payload = json.load(fh)
    assert payload["pipeline"] == "validation"


def test_run_validation_energy_trace(tmp_path):
    cfg = _smoke_config(energy_trace=True, output=str(tmp_path / "et"))
    result = run_validation(cfg)
    K = cfg.checkpoints
    assert len(result.rows) == 3 * (K + 1)
    assert all(row[2] >= 0.0 for row in result.rows)
    assert result.energy_rows
    assert all(bool(row[5]) for row in result.energy_rows)
    assert (tmp_path / "et" / "energy_trace.csv").exists()


def test_validation_report_records_fit_statistics_and_chain_health(tmp_path):
    cfg = _smoke_config(output=str(tmp_path / "h"))
    result = run_validation(cfg)
    with open(tmp_path / "h" / "report.json") as fh:
        payload = json.load(fh)
    for name, report in (("mu", result.mu_report), ("nu", result.nu_report)):
        assert payload[name]["slope_stderr"] == report.slope_stderr > 0.0
        assert payload[name]["local_slopes"] == list(report.local_slopes)
        assert len(report.local_slopes) == 2
    chain = payload["chain"]
    assert chain == result.chain_health
    # the surrogate was stepped forward to each checkpoint
    assert payload["surrogate"] == result.surrogate
    assert (result.surrogate["rk4_steps"]
            == 2 * harness.BO_STEPS_PER_CHECKPOINT)
    # the frozen plan of each epsilon, as the dry run gives it, then the
    # chain's health
    health_keys = {"energy_initial", "energy_final", "energy_rel_drift",
                   "min_collision_margin", "band_dropped_share",
                   "band_top_share", "max_near_range", "max_far_order"}
    assert [{k: v for k, v in e.items() if k not in health_keys}
            for e in chain] == describe_plan(cfg, "validation")
    params = make_alpha_params(cfg.alpha)
    u0 = gaussian_profile(PeriodicGrid(cfg.period, cfg.bo_modes),
                          cfg.amplitude, cfg.width_fraction)
    for entry in chain:
        # the chain again, from the ansatz at t = 0
        lat_cfg = LatticeConfig(N=entry["N"], alpha=cfg.alpha,
                                cutoff=entry["cutoff"], dt=entry["dt"])
        nsteps = entry["steps_per_checkpoint"]
        r0, p0 = ansatz_fields(u0.spectrum, cfg.period, entry["N"], params)
        state = LatticeState(r=r0, p=p0)
        assert entry["energy_initial"] == energy(state, lat_cfg)
        band = lattice.Band(entry["band"], cfg.dealias_fraction)
        states = run_steps(state, lat_cfg, nsteps * cfg.checkpoints, nsteps,
                           band)
        assert len(states) == cfg.checkpoints
        # the band's shares past its kept bins, recorded as the chain ran
        assert entry["band_dropped_share"] == band.dropped_share
        assert entry["band_top_share"] == band.top_share
        assert max(band.dropped_share, band.top_share) <= lattice.BAND_TOL
        # the default chain's states keep the floor, and take the far ranges
        # by moments
        assert entry["max_near_range"] == band.near_range \
            == lattice.NEAR_RANGE
        assert entry["max_far_order"] == band.far_order
        assert 1 <= band.far_order <= lattice.FAR_ORDER
        margin = 1.0 - np.max(np.abs(r0))
        for state in states:
            margin = min(margin, 1.0 - np.max(np.abs(state.r)))
        assert entry["energy_final"] == energy(state, lat_cfg)
        assert entry["min_collision_margin"] == margin
        assert entry["energy_rel_drift"] == pytest.approx(
            abs(entry["energy_final"] / entry["energy_initial"] - 1.0))
        assert entry["energy_rel_drift"] < 1e-8
        # the margin is taken over the checkpoints, t = 0 included
        assert 0.9 < entry["min_collision_margin"] <= 1.0 - np.max(np.abs(r0))


def test_max_far_order_is_the_highest_order_a_force_took(monkeypatch):
    # every far field a force forms records its order: a validation epsilon
    # on its band and a residual epsilon's stacked call on its band report
    # the highest of them, as no other record could (energy's far fields,
    # which the validation also forms, are not a force's)
    orders = []
    real_field, real_potential = lattice._far_field, lattice._far_potential
    monkeypatch.setattr(lattice, "_far_field", lambda s, rho, config, p, b:
                        orders.append(p) or real_field(s, rho, config, p, b))

    def potential(*args):
        n = len(orders)
        out = real_potential(*args)
        del orders[n:]
        return out

    monkeypatch.setattr(lattice, "_far_potential", potential)
    for alpha, pipeline in ((2.0, "validation"), (1.8, "residual")):
        cfg = ValidationConfig(alpha=alpha)
        params = make_alpha_params(alpha)
        amplitude = (harness.DEFAULT_VALIDATION_AMPLITUDE
                     if pipeline == "validation"
                     else harness.default_residual_amplitude(alpha))
        states, _ = harness._bo_checkpoint_states(
            cfg, params, harness._initial_profile(cfg, amplitude))
        entry = describe_plan(cfg, pipeline)[2]      # eps 0.1
        assert entry["band"] < entry["N"]
        orders.clear()
        if pipeline == "validation":
            health = harness._validation_eps_task(cfg, params, states,
                                                  entry)[4]
        else:
            health = harness._residual_eps_task(cfg, params, states,
                                                entry)[2]
        assert len(orders) >= len(states)
        assert health["max_far_order"] == max(orders)
        assert health["max_far_order"] == {2.0: 7, 1.8: 15}[alpha]


def test_each_epsilon_runs_its_plan_entry(monkeypatch):
    # both sweeps run every epsilon on the ring, range, step and step count
    # of its describe_plan entry
    cfg = _smoke_config()
    ran = []
    real_steps, real_fields = harness.run_steps, harness.residual_fields

    def recorded_steps(state, lat_cfg, nsteps, every=None, band=None):
        ran.append((lat_cfg.N, lat_cfg.cutoff, lat_cfg.dt, nsteps, every,
                    band.Q))
        return real_steps(state, lat_cfg, nsteps, every, band)

    def recorded_fields(u_tau, eps, params, cutoff, dealias_fraction, band):
        ran.append((round(u_tau.grid.period / eps), eps, cutoff,
                    len(u_tau.spectrum), band.Q))
        return real_fields(u_tau, eps, params, cutoff, dealias_fraction, band)

    monkeypatch.setattr(harness, "run_steps", recorded_steps)
    monkeypatch.setattr(harness, "residual_fields", recorded_fields)
    run_validation(cfg)
    plan = describe_plan(cfg, "validation")
    # one call per epsilon, through every checkpoint
    assert ran == [(e["N"], e["cutoff"], e["dt"], e["total_steps"],
                    e["steps_per_checkpoint"], e["band"]) for e in plan]
    assert all(e["total_steps"] == e["checkpoints"]
               * e["steps_per_checkpoint"] for e in plan)
    ran.clear()
    run_residual_sweep(cfg)
    # one call per epsilon, holding every checkpoint's profile, on its band
    assert ran == [(e["N"], e["epsilon"], e["cutoff"], cfg.checkpoints + 1,
                    e["band"]) for e in describe_plan(cfg, "residual")]


@pytest.mark.parametrize("sweep,overrides,match", [
    (run_residual_sweep, dict(period=4.0), "ring of only 10 sites"),
    (run_validation, dict(period=4.0), "ring of only 10 sites"),
    # the residual samples the profile on the ring; the chain's ansatz
    # also reads a profile finer than the ring
    (run_residual_sweep, dict(bo_modes=512), "cannot resolve a 512-mode"),
], ids=["residual-short-ring", "validation-short-ring",
        "residual-coarse-ring"])
def test_a_bad_ring_fails_before_the_surrogate_solve(sweep, overrides, match,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the surrogate solve started")

    monkeypatch.setattr(harness, "run_to", refuse)
    with pytest.raises(ConfigError, match=match):
        sweep(_smoke_config(**overrides))


@pytest.mark.parametrize("alpha", [1.8, 2.0])
def test_lattice_dt_halving_moves_sup_errors_below_one_percent(alpha):
    # the chain's time-step error at the default lattice_dt 0.1: sup mu and
    # sup nu at lattice_dt 0.1 and 0.05 agree within 1% at every epsilon,
    # eps 0.0707 included, where the step has grown most (Stormer-Verlet
    # at 0.05 against 0.025 moved sup mu by up to 3%)
    eps = (0.2, 0.1414, 0.1, 0.0707)
    coarse = run_validation(ValidationConfig(alpha=alpha, epsilons=eps,
                                             lattice_dt=0.1))
    fine = run_validation(ValidationConfig(alpha=alpha, epsilons=eps,
                                           lattice_dt=0.05))
    for a, b in ((coarse.mu_report, fine.mu_report),
                 (coarse.nu_report, fine.nu_report)):
        for (e, sup_coarse), (_, sup_fine) in zip(a.pairs, b.pairs):
            assert abs(sup_coarse / sup_fine - 1.0) < 0.01, (e, sup_coarse,
                                                              sup_fine)


def test_run_validation_all_runs_colliding_raises():
    cfg = _smoke_config(amplitude=10.0)
    with pytest.raises(CollisionError) as info:
        run_validation(cfg)
    assert info.value.alpha == 2.0
    assert info.value.epsilon == pytest.approx(102.4 / 256)


def test_shift_canary_moving_frame_matters():
    # comparing the lattice against the unshifted surrogate at the final
    # checkpoint must be strictly worse than the co-moving comparison
    params = PARAMS2
    period, n, eps = 102.4, 256, 0.4
    grid = PeriodicGrid(period, n)
    u0 = gaussian_profile(grid, 0.1)
    r0, p0 = ansatz_fields(u0.spectrum, period, n, params)
    state = LatticeState(r=r0, p=p0, t=0.0)
    tau_end = 0.05
    T = tau_end / eps ** params.alpha
    nsteps = math.ceil(T / 0.05)
    cfg = LatticeConfig(N=n, alpha=params.alpha, cutoff=30, dt=T / nsteps)
    [out] = run_steps(state, cfg, nsteps)
    bo_cfg = BOConfig(params=params, dtau=tau_end / 100.0)
    [bo] = run_to(BOState(u=u0, tau=0.0), tau_end, bo_cfg)
    shifted, _ = ansatz_fields(bo.u.spectrum, period, n, params,
                               -eps * params.c * T)
    plain, _ = ansatz_fields(bo.u.spectrum, period, n, params)
    mu_shifted = np.linalg.norm(out.r - shifted)
    mu_plain = np.linalg.norm(out.r - plain)
    assert mu_shifted < 0.5 * mu_plain


def test_validation_nan_error_raises_blow_up(monkeypatch, tmp_path, capsys):
    # a NaN chain state must not drop out of the sup as max(0, nan) = 0 would
    # let it: the run raises, and the CLI exits 2 naming it
    real = harness.run_steps

    def nan_steps(state, cfg, nsteps, every=None, band=None):
        return [LatticeState(r=out.r, p=np.full_like(out.p, np.nan), t=out.t)
                for out in real(state, cfg, nsteps, every, band)]

    monkeypatch.setattr(harness, "run_steps", nan_steps)
    with pytest.raises(BlowUpError) as info:
        run_validation(_smoke_config())
    assert "non-finite" in str(info.value)
    assert info.value.alpha == 2.0
    assert info.value.epsilon is not None and info.value.t is not None
    rc = main(["validate", "--alpha", "2.0", "--out", str(tmp_path / "v"),
               "--epsilons", "0.4,0.32,0.25", "--tau0", "0.05",
               "--checkpoints", "2", "--bo-modes", "256",
               "--amplitude", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha=2.0" in err and "epsilon=" in err and "t=" in err


def test_one_failing_epsilon_stops_the_validation(monkeypatch, tmp_path,
                                                  capsys):
    # NaN momenta on the smallest ring only: the sweep raises with that run's
    # alpha, epsilon and t at once, running no chain past it, and no fit
    # over the other epsilons is written
    real = harness.run_steps
    ran = []

    def nan_on_smallest_ring(state, cfg, nsteps, every=None, band=None):
        ran.append(cfg.N)
        states = real(state, cfg, nsteps, every, band)
        if cfg.N == 256:
            return [LatticeState(r=out.r, p=np.full_like(out.p, np.nan),
                                 t=out.t) for out in states]
        return states

    monkeypatch.setattr(harness, "run_steps", nan_on_smallest_ring)
    epsilons = "0.4,0.32,0.25,0.2,0.16"
    cfg = _smoke_config(epsilons=tuple(map(float, epsilons.split(","))))
    with pytest.raises(BlowUpError) as info:
        run_validation(cfg)
    assert info.value.alpha == 2.0
    assert info.value.epsilon == 102.4 / 256
    assert info.value.t == pytest.approx(0.05 / 0.4 ** 2 / 2)
    assert ran == [256]
    ran.clear()
    out = tmp_path / "v"
    rc = main(["validate", "--alpha", "2.0", "--out", str(out),
               "--epsilons", epsilons, "--tau0", "0.05", "--checkpoints", "2",
               "--bo-modes", "256", "--amplitude", "0.1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("blow-up:")
    assert f"alpha=2.0 epsilon={102.4 / 256} t=" in lines[0]
    assert not (out / "report.json").exists()
    assert ran == [256]


def test_validation_energy_drift_raises_blow_up(monkeypatch, tmp_path,
                                                capsys):
    # momenta scaled by 1.001 at the last checkpoint: the branch's relative
    # energy drift passes gate 5's 1e-6, the run raises with alpha, epsilon
    # and t, and the CLI exits 2 without writing anything
    real = harness.run_steps

    def drifting(state, cfg, nsteps, every=None, band=None):
        states = real(state, cfg, nsteps, every, band)
        last = states[-1]
        states[-1] = LatticeState(r=last.r, p=1.001 * last.p, t=last.t)
        return states

    monkeypatch.setattr(harness, "run_steps", drifting)
    cfg = _smoke_config()
    with pytest.raises(BlowUpError, match="energy drifted") as info:
        run_validation(cfg)
    assert info.value.alpha == 2.0
    assert info.value.epsilon == 102.4 / 256
    assert info.value.t == pytest.approx(cfg.tau0 / info.value.epsilon ** 2)
    out = tmp_path / "v"
    rc = main(["validate", "--alpha", "2.0", "--out", str(out),
               "--epsilons", "0.4,0.32,0.25", "--tau0", "0.05",
               "--checkpoints", "2", "--bo-modes", "256",
               "--amplitude", "0.1"])
    assert rc == 2
    assert "energy drifted" in capsys.readouterr().err
    assert not out.exists()


def test_validation_refuses_an_ansatz_past_the_band(tmp_path, capsys):
    # a profile of a third the default width on 256 modes: the ansatz's
    # momenta on the 320-site ring hold 1.8e-13 of their content past the
    # band's 86 bins, where BAND_TOL allows 1e-20, so the run raises at
    # t = 0 naming alpha and epsilon, and the CLI exits 2
    with pytest.raises(BlowUpError, match="of the state lies past the "
                       "band's 86 bins") as info:
        run_validation(_smoke_config(width_fraction=60.0))
    assert info.value.alpha == 2.0
    assert info.value.epsilon == 102.4 / 320
    assert info.value.t == 0.0
    rc = main(["validate", "--alpha", "2.0", "--out", str(tmp_path / "v"),
               "--epsilons", "0.4,0.32,0.25", "--tau0", "0.05",
               "--checkpoints", "2", "--bo-modes", "256",
               "--amplitude", "0.1", "--width-fraction", "60"])
    assert rc == 2
    assert (f"alpha=2.0 epsilon={102.4 / 320} t=0.0"
            in capsys.readouterr().err)


def test_residual_nan_raises_blow_up(monkeypatch):
    # a non-finite residual on the first ring stops the sweep there: no
    # residual is formed on a ring past it
    ran = []

    def nan_fields(u_tau, eps, params, cutoff, *args):
        shape = (len(u_tau.spectrum), int(round(u_tau.grid.period / eps)))
        ran.append(shape[1])
        return np.zeros(shape), np.full(shape, np.nan)

    monkeypatch.setattr(harness, "residual_fields", nan_fields)
    with pytest.raises(BlowUpError) as info:
        run_residual_sweep(_smoke_config())
    assert info.value.alpha == 2.0
    assert info.value.epsilon == pytest.approx(102.4 / 256)
    assert info.value.t == 0.0
    assert ran == [256]


def test_error_energy_trace_rows():
    params = PARAMS2
    rng = np.random.default_rng(33)
    samples = []
    for i in range(3):
        mu = 0.01 * rng.standard_normal(64)
        nu = 0.01 * rng.standard_normal(64)
        rt = 0.02 * rng.standard_normal(64)
        samples.append((0.5 * i, mu, nu, rt))
    rows = error_energy_trace(samples, params, cutoff=20)
    assert len(rows) == 3
    for (t, H, ok, ratio) in rows:
        assert H >= 0.0
        assert ok
