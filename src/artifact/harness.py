"""Experiment harness: long-wave ansatz, residual sweeps, matched lattice
versus surrogate evolutions, and log-log slope fits.

A run solves the dispersive surrogate once per exponent alpha on a fixed
checkpoint schedule tau_i = i*tau0/K, then for each epsilon evolves the
lattice on the matched clock t = tau/eps^alpha and compares against the
shifted, rescaled surrogate profile.  Everything is deterministic given the
configuration; there is no randomness anywhere in the pipeline.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bo_solver import (BOConfig, BOState, BlowUpError, _dtau2_v_spectrum,
                        _filtered, _rhs_spectrum, gaussian_profile, run_to,
                        span_plan)
from .lattice import (_BLOCK_ELEMENTS, BAND_TOL, Band, CollisionError,
                      LatticeConfig, LatticeState, _band_force, _FarWeights,
                      energy, error_energy, error_energy_constants, run_steps,
                      step_limit)
from .specfun import AlphaParams, find_alpha_star, make_alpha_params, zeta_gap
from .spectral import (PeriodicGrid, SpectralField, average_multiplier,
                       dealias_mask, resample_spectrum, sample_spectrum,
                       wavenumbers)

DEFAULT_EPSILONS = (0.2, 0.1414, 0.1, 0.0707)
RESIDUAL_CSV_HEADER = ("alpha", "epsilon", "t", "l2")
VALIDATION_CSV_HEADER = ("alpha", "epsilon", "t", "mu_l2", "nu_l2")
ENERGY_CSV_HEADER = ("alpha", "epsilon", "t", "H", "ratio", "within_bounds")
# largest relative energy drift a validation chain may show, gate 5's bound
ENERGY_DRIFT_TOL = 1e-6
# Below STEP_GROWTH_EPS the chain's nominal step grows as lattice_dt *
# (STEP_GROWTH_EPS / eps)^2, up to STEP_CAP of the stability limit
# step_limit; it is never below lattice_dt.  The chain's fields vary ever
# more slowly as eps shrinks, so the step's error falls fast.  Against a
# dt/4 reference at the defaults, sup mu / nu move by -0.45% / -0.31% at
# eps 0.2 (alpha 2), where the step has not grown, and under this law by
# at most 0.36% / 0.26% at alpha 1.8, 0.35% / 0.20% at alpha 2 and 0.01%
# at alpha 2.5 on eps 0.1414 ... 0.0707; the energy drifts by 4.5e-10 or
# less.  The cap binds below eps 0.05 (at 0.0707 for alpha 2.5).  Steps up
# to 0.97 of the limit moved no sup by more than 0.26%; the cap keeps
# dt * omega_max at or below 0.72 pi.
STEP_GROWTH_EPS = 0.15
STEP_CAP = 0.8
# IF-RK4 steps per surrogate checkpoint.  10 already sit at the rounding
# floor: at alpha 1.8, 2 and 2.5 and either sweep's default amplitude, the
# checkpoint spectra match a 4x finer run to 1e-13 of their max, where 100
# steps against 400 differ by 1e-12 (5 steps: 1.6e-12, 2: 6e-11).
BO_STEPS_PER_CHECKPOINT = 10
# The largest ring _ring_size plans, 2^17 sites: past twice the 64 000
# sites of eps 0.0016 at the default period, the smallest epsilon the
# residual law has been fitted at.  Far past it a run would exhaust memory
# before its first step (eps 1e-9 asks for 1e11 sites), or period/eps
# would not be finite.
MAX_RING = 131072


class ConfigError(ValueError):
    """Inconsistent or out-of-range experiment configuration."""


def default_residual_amplitude(alpha: float) -> float:
    """Profile amplitude for residual sweeps.

    Chosen per branch so both ends of the epsilon sweep sit inside the
    power-law window: large enough that the linear quadrature error of the
    window operators stays subdominant, small enough that quartic profile
    terms do not pollute the coarse end.
    """
    return 0.7 if alpha <= 2.0 else 0.1


DEFAULT_VALIDATION_AMPLITUDE = 0.1


def _is_number(val) -> bool:
    """A real number that is not a bool (True would pass for 1)."""
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


@dataclass(frozen=True)
class ValidationConfig:
    """Everything a residual or validation sweep needs.

    amplitude = None picks the pipeline default (see
    default_residual_amplitude and DEFAULT_VALIDATION_AMPLITUDE).
    epsilons are nominal, at least 3 so that a slope can be fitted; each
    is snapped to the nearest even ring size N = period/epsilon and the
    exact epsilon = period/N is what gets used and reported.  lattice_dt is
    the chain's nominal step down to eps STEP_GROWTH_EPS; it grows below.
    jobs admits only 1: a sweep runs its epsilons one after another.
    """

    alpha: float = 2.0
    epsilons: tuple = DEFAULT_EPSILONS
    period: float = 102.4
    tau0: float = 0.25
    checkpoints: int = 20
    amplitude: Optional[float] = None
    width_fraction: float = 20.0
    bo_modes: int = 512
    dealias_fraction: float = 2.0 / 3.0
    lattice_dt: float = 0.1
    residual_cutoff_coef: float = 3.0
    energy_trace: bool = False
    jobs: int = 1
    output: Optional[str] = None

    def __post_init__(self):
        for name in ("alpha", "tau0", "period", "width_fraction",
                     "dealias_fraction", "lattice_dt", "residual_cutoff_coef",
                     "amplitude"):
            val = getattr(self, name)
            if not (_is_number(val) or name == "amplitude" and val is None):
                raise ConfigError(f"{name} must be a number, got {val!r}")
        if not (isinstance(self.epsilons, (tuple, list))
                and all(map(_is_number, self.epsilons))):
            raise ConfigError("epsilons must be a list of numbers, got "
                              f"{self.epsilons!r}")
        if not 1.0 < self.alpha < 3.0:
            raise ConfigError(f"alpha must lie in (1, 3), got {self.alpha}")
        if zeta_gap(self.alpha) <= 0.0:
            raise ConfigError(
                f"alpha must exceed alpha* = {find_alpha_star():.4f}, where "
                "2 zeta(alpha+1) - zeta(alpha) turns positive and the window "
                f"form becomes coercive; got {self.alpha}")
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 3:
            raise ConfigError("need at least 3 epsilons to fit a slope")
        if any(not 0.0 < e < 0.5 for e in eps):
            raise ConfigError("every epsilon must lie in (0, 0.5)")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilons must be distinct and descending")
        object.__setattr__(self, "epsilons", eps)
        for name in ("tau0", "period", "width_fraction", "lattice_dt",
                     "residual_cutoff_coef"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if self.amplitude is not None and not (
                math.isfinite(self.amplitude) and self.amplitude != 0.0):
            raise ConfigError("amplitude must be finite and nonzero")
        for name in ("checkpoints", "bo_modes"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int) or val < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, "
                                  f"got {val!r}")
        if type(self.jobs) is not int or self.jobs != 1:
            raise ConfigError("jobs must be 1, as sweeps run their epsilons "
                              f"serially, got {self.jobs!r}")
        if not isinstance(self.energy_trace, bool):
            raise ConfigError("energy_trace must be true or false, got "
                              f"{self.energy_trace!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigError("output must be a directory name, got "
                              f"{self.output!r}")
        if not 0.5 < self.dealias_fraction <= 2.0 / 3.0:
            raise ConfigError("dealias_fraction must lie in (0.5, 2/3]")
        if self.bo_modes < 8 or self.bo_modes & (self.bo_modes - 1):
            raise ConfigError("bo_modes must be a power of two of at least "
                              f"8, got {self.bo_modes}")


@dataclass(frozen=True)
class ScalingReport:
    """Fitted log-log scaling of sup-over-time errors against epsilon, with
    the slope's standard error and the local slopes between neighbouring
    pairs, which show whether the fit is asymptotic."""

    pairs: tuple
    slope: float
    intercept: float
    target_exponent: float
    r_squared: float
    slope_stderr: float
    local_slopes: tuple

    def __post_init__(self):
        if len(self.pairs) < 3:
            raise ValueError("a scaling fit needs at least 3 pairs")
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")


@dataclass
class ValidationResult:
    rows: list
    mu_report: ScalingReport
    nu_report: ScalingReport
    energy_rows: list
    chain_health: list
    surrogate: dict


def fit_slope(pairs):
    """Ordinary least squares of log(value) against log(epsilon).

    Returns (slope, intercept, r_squared, slope_stderr), the last
    sqrt(SSR/(n - 2) / sum (x - mean x)^2); rejects nonpositive data.
    """
    pts = [(float(e), float(v)) for e, v in pairs]
    if len(pts) < 3:
        raise ValueError("need at least 3 pairs to fit a slope")
    if any(e <= 0.0 or v <= 0.0 or not math.isfinite(e) or not math.isfinite(v)
           for e, v in pts):
        raise ValueError("all pairs must be positive and finite")
    if len({e for e, _ in pts}) < len(pts):
        raise ValueError("the epsilons of a fit must be distinct")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    A = np.vstack([x, np.ones(x.size)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ssr = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ssr / ss_tot
    stderr = math.sqrt(ssr / (x.size - 2) / float(np.sum((x - x.mean()) ** 2)))
    return float(coef[0]), float(coef[1]), r2, stderr


def _scaling_report(pairs, target: float) -> ScalingReport:
    pairs = tuple(pairs)
    slope, intercept, r2, stderr = fit_slope(pairs)
    logs = np.log(pairs)
    local = np.diff(logs[:, 1]) / np.diff(logs[:, 0])
    return ScalingReport(pairs=pairs, slope=slope, intercept=intercept,
                         target_exponent=target, r_squared=r2,
                         slope_stderr=stderr,
                         local_slopes=tuple(float(v) for v in local))


def _ring_size(period: float, eps: float):
    """Snap epsilon to an even integer ring size, at most MAX_RING; returns
    (N, exact epsilon)."""
    for name, val in (("epsilon", eps), ("period", period)):
        if not 0.0 < val < math.inf:
            raise ConfigError(f"{name} must be finite and positive, got {val}")
    ratio = period / eps
    if not ratio <= MAX_RING:
        raise ConfigError(f"epsilon {eps} and period {period} give a ring of "
                          f"N = {ratio:.6g} sites, past the largest, "
                          f"{MAX_RING}")
    N = int(round(ratio))
    if N % 2:
        N += 1
    if N < 16:
        raise ConfigError(f"epsilon {eps} gives a ring of only {N} sites")
    exact = period / N
    if abs(exact - eps) > 0.02 * eps:
        raise ConfigError(f"epsilon {eps} is incommensurate with period {period}")
    return N, exact


def _gaps_symbol(k: np.ndarray, period: float, N: int, alpha: float):
    # the ansatz gaps' spectrum is -eps^(alpha-1) A(k, eps) times the
    # profile's, eps = period/N, with A the window mean's symbol; returns
    # the factor -eps^(alpha-1) and A apart
    eps = period / N
    return -eps ** (alpha - 1.0), average_multiplier(k, eps)


def _ansatz_gaps(c: np.ndarray, k: np.ndarray, period: float, N: int,
                 alpha: float) -> np.ndarray:
    # r_j = -eps^(alpha-1) * (mean of u over [X_j, X_j + eps]) for u with
    # half spectrum c at wavenumbers k, along the last axis of c as
    # sample_spectrum takes it
    scale, A = _gaps_symbol(k, period, N, alpha)
    return scale * sample_spectrum(A * c, period, N)


def ansatz_fields(spectrum: np.ndarray, period: float, N: int,
                  params: AlphaParams, shift=0.0,
                  dealias_fraction: float = 2.0 / 3.0):
    """Gaps and velocities (r, p) of the displacement ansatz on a ring of N
    sites, eps = period/N, for the surrogate profile u with this half
    spectrum.

    The ansatz is q_j = eps^(alpha-2) v(X_j, tau) with dX v = -u and
    X_j = eps*j + shift (shift = -eps*c*t in the moving frame); it is the
    one whose residual residual_fields evaluates.  Hence
      r_j = q_{j+1} - q_j = -eps^(alpha-1) * (mean of u over [X_j, X_j + eps]),
      p_j = c eps^(alpha-1) u(X_j) + eps^(2 alpha - 2) v_tau(X_j),
    with v_tau the mean-zero primitive of -du/dtau read off the surrogate
    equation, so the ansatz carries no net momentum.  The profile must be
    mean-zero, or its primitive v would not be periodic.

    A spectrum with leading axes stacks profiles, and r and p then stack
    their rows alike; a shift with the leading shape shifts each profile by
    its own, and row i equals the call on profile i and its shift alone to
    the last bit.  The shift's phase e^{ik shift} is formed once for the
    three samplings.
    """
    spectrum = np.asarray(spectrum)
    if np.any(np.abs(spectrum[..., 0]) > 1e-10):
        raise ValueError("the profile u must be mean-zero")
    eps = period / N
    alpha = params.alpha
    # fields are formed on the ring's grid, as in residual_fields, or on the
    # profile's own grid when the ring is coarser, then sampled onto the ring
    L = max(N, 2 * (spectrum.shape[-1] - 1))
    k = wavenumbers(L, period)
    c = resample_spectrum(spectrum, L)
    ut_hat = _rhs_spectrum(c, k, params, dealias_mask(L, dealias_fraction))
    vt_hat = np.zeros_like(c)
    vt_hat[..., 1:] = -ut_hat[..., 1:] / (1j * k[1:])
    del ut_hat
    scale, A = _gaps_symbol(k, period, N, alpha)
    gaps = A * c
    shift = np.asarray(shift, dtype=float)
    if np.any(shift != 0.0):
        phase = np.exp(1j * k * shift[..., None])
        for f in (gaps, c, vt_hat):
            f *= phase
    r = scale * sample_spectrum(gaps, period, N)
    p = (params.c * eps ** (alpha - 1.0) * sample_spectrum(c, period, N)
         + eps ** (2.0 * alpha - 2.0) * sample_spectrum(vt_hat, period, N))
    return r, p


def residual_fields(u_tau: SpectralField, eps: float, params: AlphaParams,
                    cutoff: int, dealias_fraction: float = 2.0 / 3.0,
                    band: Band | None = None):
    """Residual q'' - F(q) of the lattice equations under the long-wave
    ansatz, split as (acceleration part, interaction part), sampled on the
    ring X = eps*j.

    The acceleration part substitutes the surrogate equation for every time
    derivative (no numerical differencing); the interaction part is minus
    the chain force, truncated at cutoff, at the ansatz gaps of
    ansatz_fields, formed on a band as the chain's is (lattice._band_force).
    Given a band smaller than the ring, it is formed on that band from the
    gaps' ring spectrum on its kept bins, -eps^(alpha-1) N A c for the
    profile spectrum c and the window mean's symbol A, so no transform of
    the gaps at the ring's length is taken, and the interaction part has no
    content past bin Q/2.  Without one, and for a profile whose gaps or
    force the band cannot hold (either share past BAND_TOL), counted in
    band.fallbacks, it is minus force at the ring's gaps, from the ring's
    band (Band.ring); the band records the largest shares of the forces it
    formed, and a band given records the most ranges any force summed pair
    by pair and the highest far order any took (Band.record).

    A spectrum with leading axes stacks profiles, and both parts then stack
    their rows alike; row i equals the call on profile i alone to the last
    bit.  The profiles go max(1, _BLOCK_ELEMENTS // N) at a time through the
    transforms, and each profile's force takes its own near range, the far
    weights held for one near range at a time (lattice._FarWeights).  Gaps
    reaching 1 raise CollisionError with alpha, epsilon and `profile`, the
    index of the first profile in stack order whose gaps reach it.
    """
    period = u_tau.grid.period
    N, exact = _ring_size(period, eps)
    if abs(exact - eps) > 1e-9 * eps:
        raise ConfigError(
            f"period/epsilon = {period / eps} is not an even ring size")
    alpha = params.alpha
    if N < u_tau.grid.n:
        raise ConfigError(
            f"ring of {N} sites cannot resolve a {u_tau.grid.n}-mode profile; "
            "lower bo_modes or epsilon")
    lat_cfg = LatticeConfig(N=N, alpha=alpha, cutoff=cutoff, dt=1.0)
    spectra = u_tau.spectrum
    rows = spectra.reshape(-1, spectra.shape[-1])
    held = _FarWeights(lat_cfg)
    kN = wavenumbers(N, period)
    mask = dealias_mask(N, dealias_fraction)
    ring_force = None   # formed where a profile first takes the ring's force
    on_band = band is not None and band.Q < N
    if on_band:
        force_spectrum = _band_force(lat_cfg, held, band, hold_rows=True)
        scale, A = _gaps_symbol(kN, period, N, alpha)
        symbol = scale * N * A      # the gaps' ring spectrum over cN

        def band_force(gh):
            # the force spectrum at the gaps of ring spectrum gh, formed on
            # the band, or None, counted as a fallback, where the band cannot
            # hold the gaps or the force
            dropped = band.share(gh)
            if dropped <= BAND_TOL:
                F = force_spectrum(gh[:band.kept])
                top = band.share(F)
                if top <= BAND_TOL:
                    band.dropped_share = max(band.dropped_share, dropped)
                    band.top_share = max(band.top_share, top)
                    return F
            band.fallbacks += 1
            return None
    accel = np.empty((len(rows), N))
    fpart = np.empty((len(rows), N))
    B = max(1, _BLOCK_ELEMENTS // N)
    for i0 in range(0, len(rows), B):
        cN = resample_spectrum(rows[i0:i0 + B], N)
        u = _filtered(cN, mask)     # shared by u_tau and v_tautau
        ut_hat = _rhs_spectrum(cN, kN, params, mask, u)
        # -eps^alpha c^2 u_X + eps^(2 alpha-1) kappa1 u_tau
        # + eps^(3 alpha-2) v_tautau, summed in place and taken in one
        # transform
        a = _dtau2_v_spectrum(u, ut_hat, kN, params, mask)
        del u
        a *= eps ** (3 * alpha - 2)
        ut_hat *= eps ** (2 * alpha - 1) * params.kappa1
        a += ut_hat
        g = (symbol * cN if on_band
             else _ansatz_gaps(cN, kN, period, N, alpha))
        cN *= 1j * kN
        cN *= -eps ** alpha * params.c ** 2
        a += cN
        del ut_hat, cN
        accel[i0:i0 + B] = np.fft.irfft(a, N) * N
        del a               # so that the force's blocks reuse it
        for i, (f, row) in enumerate(zip(fpart[i0:i0 + B], g), i0):
            try:
                F = band_force(row) if on_band else None
                if F is None:
                    if on_band:     # the ring's gaps, as without a band
                        row = _ansatz_gaps(resample_spectrum(rows[i], N), kN,
                                           period, N, alpha)
                    if ring_force is None:
                        ring_force = _band_force(lat_cfg, held, Band.ring(N))
                    F = ring_force(np.fft.rfft(row))
                np.negative(np.fft.irfft(F, N), out=f)
            except CollisionError as err:
                err.alpha, err.epsilon, err.profile = alpha, eps, i
                raise
    if band is not None:
        band.record(held)
    shape = spectra.shape[:-1] + (N,)
    return accel.reshape(shape), fpart.reshape(shape)


def _initial_profile(config: ValidationConfig,
                     default_amplitude: float) -> SpectralField:
    amplitude = (default_amplitude if config.amplitude is None
                 else config.amplitude)
    return gaussian_profile(PeriodicGrid(config.period, config.bo_modes),
                            amplitude, config.width_fraction)


def _bo_checkpoint_states(config: ValidationConfig, params: AlphaParams,
                          u0: SpectralField):
    """Surrogate states at tau_i = i * tau0/K, i = 0..K, from one run_to
    call, and report.json's "surrogate" entry for them."""
    K = config.checkpoints
    taus = [i * config.tau0 / K for i in range(1, K + 1)]
    bo_cfg = BOConfig(params=params, dtau=_surrogate_dtau(config),
                      dealias_fraction=config.dealias_fraction,
                      t_checkpoint=tuple(taus[:-1]))
    state = BOState(u=u0, tau=0.0)
    steps = sum(n for _, n in span_plan(0.0, taus[-1], bo_cfg))
    states = [state, *run_to(state, taus[-1], bo_cfg)]
    return states, _surrogate_record(config, steps,
                                     [s.u.spectrum for s in states])


def _surrogate_dtau(config: ValidationConfig) -> float:
    return (config.tau0 / config.checkpoints) / BO_STEPS_PER_CHECKPOINT


def _surrogate_record(config: ValidationConfig, steps: int, spectra) -> dict:
    """report.json's "surrogate" entry: the step dtau, the IF-RK4 steps run
    and, over the checkpoints, the largest share of L2 energy in the top
    third of the kept modes, which stays small while the profile is
    resolved."""
    kept = np.flatnonzero(dealias_mask(config.bo_modes,
                                       config.dealias_fraction))
    top = kept[kept.size - kept.size // 3:]
    weight = np.full(config.bo_modes // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0  # bin 0 and the Nyquist bin appear once
    share = max(float(np.sum((weight * np.abs(c) ** 2)[top])
                      / np.sum(weight * np.abs(c) ** 2)) for c in spectra)
    return {"dtau": _surrogate_dtau(config), "rk4_steps": steps,
            "max_top_third_share": share}


# ---------------------------------------------------------------------------
# residual sweep


def _residual_eps_task(config, params, states, entry):
    """The residual at every checkpoint of a plan entry, from one
    residual_fields call on the stacked checkpoint spectra, on the entry's
    band; returns (rows, (eps, sup l2), health), health the entry's
    epsilon, N and band with the band's dropped_share, top_share and
    fallbacks, the most ranges a force summed pair by pair (max_near_range)
    and the highest order through which a force took the rest by moments
    (max_far_order, 0 where every force summed every range), as Band
    records them.  Gaps reaching 1 or a non-finite residual raise, naming
    alpha, epsilon and the t of the first checkpoint it reached."""
    eps = entry["epsilon"]
    ts = [s.tau / eps ** params.alpha for s in states]
    band = Band(entry["band"], config.dealias_fraction)
    try:
        accel, fpart = residual_fields(SpectralField.from_spectrum(
            states[0].u.grid, [s.u.spectrum for s in states]), eps, params,
            entry["cutoff"], config.dealias_fraction, band)
    except CollisionError as err:
        # the residual knows which profile, not the checkpoint's t
        err.t = ts[err.profile]
        raise
    rows = []
    for t, a, f in zip(ts, accel, fpart):
        l2 = float(np.linalg.norm(a + f))
        if not math.isfinite(l2):
            raise BlowUpError("non-finite ansatz residual", t=t,
                              alpha=params.alpha, epsilon=eps)
        rows.append((params.alpha, eps, t, l2))
    health = {"epsilon": eps, "N": entry["N"], "band": band.Q,
              "band_dropped_share": band.dropped_share,
              "band_top_share": band.top_share,
              "band_fallbacks": band.fallbacks,
              "max_near_range": band.near_range,
              "max_far_order": band.far_order}
    return rows, (eps, max(row[3] for row in rows)), health


def run_residual_sweep(config: ValidationConfig):
    """Sup-over-time residual norms across the epsilon sweep, plus the fit.

    Returns (rows, report): rows are (alpha, epsilon, t, l2) per checkpoint,
    the report fits sup_t l2 against epsilon with target exponent beta.  A
    bad ring at any epsilon raises ConfigError before any work.  The
    epsilons run in plan order, and the first to fail stops the sweep.
    """
    plan = describe_plan(config, "residual")
    params = make_alpha_params(config.alpha)
    u0 = _initial_profile(config, default_residual_amplitude(config.alpha))
    states, surrogate = _bo_checkpoint_states(config, params, u0)
    results = [_residual_eps_task(config, params, states, entry)
               for entry in plan]
    rows = [row for res in results for row in res[0]]
    report = _scaling_report([res[1] for res in results], params.beta)
    if config.output:
        write_residual_outputs(config.output, config, params, rows, report,
                               plan, surrogate,
                               [res[2] for res in results])
    return rows, report


# ---------------------------------------------------------------------------
# lattice-versus-surrogate validation


def _validation_eps_task(config, params, bo, entry):
    """March the chain of a plan entry from the ansatz at t = 0 and compare
    it with the surrogate at every checkpoint; returns (rows, (eps, sup mu),
    (eps, sup nu), energy_rows, health).

    health is the plan entry plus the chain's relative energy drift from
    t = 0 to the last checkpoint and its smallest collision margin
    1 - max|r| over the checkpoints, t = 0 included.  Where the plan's band
    is smaller than the ring, the chain runs on it, and health adds the
    band's dropped_share and top_share (Band); on the band or the ring it
    adds the most ranges a force summed pair by pair (max_near_range) and
    the highest order through which a force took the rest by moments
    (max_far_order, 0 where every force summed every range), as the chain
    recorded them (Band.record).  A drift past ENERGY_DRIFT_TOL raises
    BlowUpError.
    """
    alpha, eps = params.alpha, entry["epsilon"]
    lat_cfg = LatticeConfig(N=entry["N"], alpha=alpha,
                            cutoff=entry["cutoff"], dt=entry["dt"])
    nsteps = entry["steps_per_checkpoint"]
    seg = entry["horizon"] / entry["checkpoints"]
    r0, p0 = ansatz_fields(bo[0].u.spectrum, config.period, lat_cfg.N, params,
                           dealias_fraction=config.dealias_fraction)
    band = Band(entry["band"], config.dealias_fraction)
    try:
        state = LatticeState(r=r0, p=p0, t=0.0)
        states = run_steps(state, lat_cfg, nsteps * entry["checkpoints"],
                           nsteps, band)
    except BlowUpError as err:
        # a chain state knows its t but not the run's alpha and epsilon
        err.alpha, err.epsilon = alpha, eps
        raise
    E0 = energy(state, lat_cfg)
    margin = min(1.0 - float(np.max(np.abs(s.r))) for s in [state, *states])
    # the initial state is the ansatz itself, so both errors start at 0
    rows = [(alpha, eps, 0.0, 0.0, 0.0)]
    samples = []
    # the checkpoints' ansatz from one ansatz_fields call per chunk of
    # checkpoints, each shifted by its own -eps c t
    B = max(1, _BLOCK_ELEMENTS // lat_cfg.N)
    for i0 in range(0, len(states), B):
        chunk = range(i0 + 1, min(i0 + B, len(states)) + 1)
        ts = [i * seg for i in chunk]
        rts, pts = ansatz_fields(
            np.array([bo[i].u.spectrum for i in chunk]), config.period,
            lat_cfg.N, params, np.array([-eps * params.c * t for t in ts]),
            config.dealias_fraction)
        for t, state, rtilde, ptilde in zip(ts, states[i0:], rts, pts):
            mu = state.r - rtilde
            nu = state.p - ptilde
            mu_l2 = float(np.linalg.norm(mu))
            nu_l2 = float(np.linalg.norm(nu))
            if not (math.isfinite(mu_l2) and math.isfinite(nu_l2)):
                raise BlowUpError("non-finite chain-versus-surrogate error",
                                  t=t, alpha=alpha, epsilon=eps)
            rows.append((alpha, eps, t, mu_l2, nu_l2))
            if config.energy_trace:
                samples.append((t, mu, nu, rtilde))
    E1 = energy(state, lat_cfg)
    drift = abs(E1 - E0) / abs(E0) if E0 else abs(E1)
    if not drift <= ENERGY_DRIFT_TOL:
        raise BlowUpError(f"chain energy drifted by {drift:.3g} of its "
                          f"initial value, past {ENERGY_DRIFT_TOL:g}",
                          t=t, alpha=alpha, epsilon=eps)
    health = {**entry, "energy_initial": E0, "energy_final": E1,
              "energy_rel_drift": drift, "min_collision_margin": margin,
              "band_dropped_share": band.dropped_share,
              "band_top_share": band.top_share,
              "max_near_range": band.near_range,
              "max_far_order": band.far_order}
    energy_rows = [(alpha, eps, t, H, ratio, ok) for (t, H, ok, ratio)
                   in error_energy_trace(samples, params, lat_cfg.cutoff)]
    return (rows, (eps, max(row[3] for row in rows)),
            (eps, max(row[4] for row in rows)), energy_rows, health)


def run_validation(config: ValidationConfig) -> ValidationResult:
    """Evolve the lattice against the moving surrogate for every epsilon and
    fit the sup-over-time l2 errors of (mu, nu) against epsilon.

    Per checkpoint the comparison profile is the surrogate at tau = eps^alpha t
    evaluated at the shifted points eps*(j - c t).  A collision or a
    non-finite error or an energy drift past ENERGY_DRIFT_TOL at any epsilon
    raises, naming alpha, epsilon and t, and stops the sweep, whose epsilons
    run in plan order; nothing is fitted or written then.  An unstable
    chain step at any epsilon raises ValueError before any work.
    """
    plan = describe_plan(config, "validation")
    params = make_alpha_params(config.alpha)
    u0 = _initial_profile(config, DEFAULT_VALIDATION_AMPLITUDE)
    states, surrogate = _bo_checkpoint_states(config, params, u0)
    results = [_validation_eps_task(config, params, states, entry)
               for entry in plan]
    result = ValidationResult(
        rows=[row for res in results for row in res[0]],
        mu_report=_scaling_report([res[1] for res in results], params.gamma),
        nu_report=_scaling_report([res[2] for res in results], params.gamma),
        energy_rows=[row for res in results for row in res[3]],
        chain_health=[res[4] for res in results],
        surrogate=surrogate,
    )
    if config.output:
        write_validation_outputs(config.output, config, params, result)
    return result


def error_energy_trace(samples, params: AlphaParams, cutoff: int):
    """Modified-energy diagnostic along a run.

    samples: iterable of (t, mu, nu, rtilde) arrays.  Returns rows
    (t, H, within_bounds, ratio) where ratio = (H - kinetic)/||mu||^2 is
    checked against the two-sided equivalence coefficients.
    """
    lo, hi = error_energy_constants(params)
    rows = []
    for (t, mu, nu, rtilde) in samples:
        cfg = LatticeConfig(N=mu.size, alpha=params.alpha, cutoff=cutoff, dt=1.0)
        H = error_energy(nu, mu, rtilde, cfg)
        denom = float(np.dot(mu, mu))
        if denom == 0.0:
            rows.append((t, H, True, float("nan")))
            continue
        ratio = (H - 0.5 * float(np.dot(nu, nu))) / denom
        ok = lo * (1.0 - 1e-9) <= ratio <= hi * (1.0 + 1e-9)
        rows.append((t, H, ok, ratio))
    return rows


# ---------------------------------------------------------------------------
# plans and reports


def describe_plan(config: ValidationConfig, pipeline: str) -> list:
    """Resolved per-epsilon plan (ring size, cutoff and band; for
    validation also the chain's clock, step, step limit and steps) without
    running.  Each sweep runs every epsilon from its entry, so two epsilons
    that snap to one ring are refused here."""
    plan = [_plan_entry(config, e, pipeline) for e in config.epsilons]
    eps = config.epsilons
    for e0, e1, a, b in zip(eps, eps[1:], plan, plan[1:]):
        if a["N"] == b["N"]:
            raise ConfigError(f"epsilons {e0} and {e1} share the ring "
                              f"N = {a['N']}")
    return plan


def _plan_entry(config: ValidationConfig, eps_nominal: float, pipeline: str):
    N, eps = _ring_size(config.period, eps_nominal)
    entry = {"epsilon": eps, "N": N, "checkpoints": config.checkpoints}
    if pipeline == "residual":
        if N < config.bo_modes:
            raise ConfigError(
                f"ring of {N} sites cannot resolve a {config.bo_modes}-mode "
                "profile; lower bo_modes or epsilon")
        # ceil(coef/eps^2), capped at the ring cap N/2 - 1.  The range is
        # not converged: at the default profile and coef 3, the ring cap
        # instead moves the sup-over-time l2 residual by +0.75%, +0.62% and
        # +1.95% at eps 0.2 (M 75 against 255) and by +0.05%, +0.04% and
        # +0.07% at eps 0.0707 (M 600 against 723), for alpha 1.8, 2.0 and
        # 2.5, which would raise the slope between those two epsilons by
        # about 0.007, 0.006 and 0.018.  The ring cap itself still leaves
        # out every image of the periodic lattice.
        entry["cutoff"] = min(N // 2 - 1, int(math.ceil(
            config.residual_cutoff_coef / eps ** 2)))
        # the interaction part's grid (residual_fields): the profile's own
        entry["band"] = config.bo_modes
        return entry
    # The chain runs at the ring cap N/2 - 1.  A shorter range leaves the
    # truncated chain slower than c, and over the horizon T = tau0/eps^alpha
    # that speed deficit drifts the chain off the surrogate by an amount of
    # fixed relative size, independent of eps.
    horizon = config.tau0 / eps ** config.alpha
    seg = horizon / config.checkpoints
    limit = step_limit(N, config.alpha, N // 2 - 1)
    # never below lattice_dt, so a lattice_dt past the limit is refused
    nominal = max(config.lattice_dt,
                  min(config.lattice_dt * (STEP_GROWTH_EPS / eps) ** 2,
                      STEP_CAP * limit))
    nsteps = int(math.ceil(seg / nominal))
    dt = seg / nsteps
    if not dt < limit:
        raise ConfigError(
            f"lattice_dt {config.lattice_dt:.6g} plans dt {dt:.6g} on {N} "
            "sites, past the split step's stability limit 0.9 pi / omega_max "
            f"= {limit:.6g}")
    entry.update({
        "cutoff": N // 2 - 1,
        "horizon": horizon,
        "dt": dt,
        "step_limit": limit,
        "steps_per_checkpoint": nsteps,
        "total_steps": nsteps * config.checkpoints,
        # the chain's grid (lattice.Band): the surrogate's, where the ring
        # is larger; the ring itself otherwise
        "band": min(N, config.bo_modes),
    })
    return entry


def _fmt(x) -> str:
    """A CSV cell: a str as it is, a bool as True/False, any other number
    as the repr of its float."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    return repr(float(x))


def _fmt_column(values):
    """_fmt of each cell of a float array, lazily, at one repr a cell: the
    Python floats of its tolist are the floats _fmt would make."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_rows_csv(path, header, rows):
    """The header and each row's cells as _fmt makes them, by csv.writer;
    rows may come lazily, a table never held as strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def write_rows_dat(path, header, rows):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sweep_files(config: ValidationConfig, pipeline: str) -> list:
    """Names of the files a sweep writes into its output directory:
    <stem>.csv and <stem>.dat, energy_trace.csv for a validation with
    energy_trace, and report.json."""
    stem = "residual_sweep" if pipeline == "residual" else "validation"
    names = [stem + ".csv", stem + ".dat"]
    if pipeline == "validation" and config.energy_trace:
        names.append("energy_trace.csv")
    return names + ["report.json"]


def _write_sweep(outdir, config, params, pipeline, header, rows, report,
                 energy_rows=()):
    """Write the sweep_files: the rows as a table twice, the energy rows,
    and report.json, the report entries with the constants and the
    config."""
    os.makedirs(outdir, exist_ok=True)
    csv_path, dat_path, *energy_path, json_path = (
        os.path.join(outdir, name) for name in sweep_files(config, pipeline))
    write_rows_csv(csv_path, header, rows)
    write_rows_dat(dat_path, header, rows)
    for path in energy_path:
        write_rows_csv(path, ENERGY_CSV_HEADER, energy_rows)
    write_json(json_path, {**report, "constants": asdict(params),
                           "config": asdict(config)})


def write_residual_outputs(outdir, config, params, rows, report, plan,
                           surrogate, health):
    _write_sweep(outdir, config, params, "residual", RESIDUAL_CSV_HEADER,
                 rows, {"pipeline": "residual", "residual": asdict(report),
                        "plan": plan, "bands": health,
                        "surrogate": surrogate})


def write_validation_outputs(outdir, config, params, result: ValidationResult):
    _write_sweep(outdir, config, params, "validation",
                 VALIDATION_CSV_HEADER, result.rows,
                 {"pipeline": "validation",
                  "mu": asdict(result.mu_report),
                  "nu": asdict(result.nu_report),
                  "chain": result.chain_health,
                  "surrogate": result.surrogate},
                 result.energy_rows)
