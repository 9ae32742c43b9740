"""The benchmark's workloads: the CLI commands of one round, the work each
does, counted from its configuration, and the checks of its outputs.

A command's work is of one of three kinds; the traced run reports the rate
of each kind, its work over the wall time of the commands doing it:

  chain      N x Verlet steps       validate, simulate-lattice
  residual   N x M per checkpoint   residual-sweep
  surrogate  modes x IF-RK4 steps   solve-bo
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta as scipy_zeta

import artifact  # noqa: F401  (setup time includes importing the package)
from artifact.bo_solver import gaussian_profile
from artifact.harness import (ValidationConfig, ansatz_fields,
                              default_residual_amplitude, residual_fields)
from artifact.lattice import LatticeConfig, force
from artifact.specfun import make_alpha_params
from artifact.spectral import PeriodicGrid

import checks

WORKLOADS = ("validate", "residual", "direct")

RESIDUAL_ALPHAS = (1.8, 2.5)
DIRECT_ALPHA = 2.0
DIRECT_SITES = 2048
DIRECT_CUTOFF = 160               # 8/eps at eps = 0.05
DIRECT_STEPS = 300                # per simulate-lattice command
DIRECT_MODES = (1, 2, 3, 4)       # long-wave modes of the seeded chain data
DIRECT_BO = dict(n=4096, period=102.4, dtau=1e-4, tau_end=0.4)
FORCE_SAMPLE_SITES = 16
SNAPSHOTS = 11                    # simulate-lattice keeps steps // 10 apart


@dataclass(frozen=True)
class Command:
    label: str        # also the output directory inside the round
    argv: tuple       # "{round}" stands for the round's directory
    kind: str         # "chain", "residual" or "surrogate"
    work: int


@dataclass
class Plan:
    name: str
    commands: list
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# work counts, from the configurations alone


def ring(period, eps):
    """Even ring size nearest period/eps and the exact epsilon it gives."""
    N = int(round(period / eps))
    N += N % 2
    return N, period / N


def validation_counts(cfg: ValidationConfig):
    """Per epsilon: (N, exact eps, Verlet steps, final t) of a validate run."""
    out = []
    for e in cfg.epsilons:
        N, eps = ring(cfg.period, e)
        seg = cfg.tau0 / eps ** cfg.alpha / cfg.checkpoints
        steps = int(math.ceil(seg / cfg.lattice_dt))
        out.append((N, eps, steps * cfg.checkpoints, seg * cfg.checkpoints))
    return out


def residual_counts(cfg: ValidationConfig):
    """Per epsilon: (N, exact eps, range M, checkpoints evaluated)."""
    out = []
    for e in cfg.epsilons:
        N, eps = ring(cfg.period, e)
        M = min(N // 2 - 1, int(math.ceil(cfg.residual_cutoff_coef / eps ** 2)))
        out.append((N, eps, M, cfg.checkpoints + 1))
    return out


def direct_inputs(seed):
    """Seeded long-wave chain data: a few mean-zero modes with random
    amplitudes and phases, and the sites the force oracle samples."""
    rng = np.random.default_rng(seed)
    N = DIRECT_SITES
    x = 2.0 * np.pi * np.arange(N) / N
    r = np.zeros(N)
    p = np.zeros(N)
    for k in DIRECT_MODES:
        r += 2e-3 * rng.uniform(0.5, 1.0) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
        p += 6e-3 * rng.uniform(0.5, 1.0) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
    sites = np.sort(rng.choice(N, FORCE_SAMPLE_SITES, replace=False))
    return r, p, sites


def build(name: str, seed: int) -> Plan:
    """The workload's parameters, configurations, inputs and commands."""
    if name == "validate":
        cfg = ValidationConfig(alpha=2.0)
        params = make_alpha_params(cfg.alpha)
        counts = validation_counts(cfg)
        main = Command("validate", ("validate", "--alpha", repr(cfg.alpha), "--jobs", "1",
                                    "--out", "{round}/validate"),
                       "chain", sum(N * s for N, _, s, _ in counts))
        return Plan(name, [main], dict(cfg=cfg, params=params, counts=counts))
    if name == "residual":
        cfgs = {a: ValidationConfig(alpha=a) for a in RESIDUAL_ALPHAS}
        params = {a: make_alpha_params(a) for a in RESIDUAL_ALPHAS}
        cmds = [Command(f"residual-{a}",
                        ("residual-sweep", "--alpha", repr(a), "--jobs", "1",
                         "--out", f"{{round}}/residual-{a}"),
                        "residual", sum(N * M * k for N, _, M, k in residual_counts(cfgs[a])))
                for a in RESIDUAL_ALPHAS]
        return Plan(name, cmds, dict(cfgs=cfgs, params=params))
    if name == "direct":
        params = make_alpha_params(DIRECT_ALPHA)
        lat_cfg = LatticeConfig(N=DIRECT_SITES, alpha=DIRECT_ALPHA,
                                cutoff=DIRECT_CUTOFF, dt=0.05)
        r, p, sites = direct_inputs(seed)
        sim = ("simulate-lattice", "--alpha", repr(DIRECT_ALPHA), "--cutoff",
               str(DIRECT_CUTOFF), "--steps", str(DIRECT_STEPS), "--dt", repr(lat_cfg.dt))
        bo = DIRECT_BO
        bo_argv = ("solve-bo", "--alpha", repr(DIRECT_ALPHA), "--n", str(bo["n"]),
                   "--period", repr(bo["period"]), "--dtau", repr(bo["dtau"]),
                   "--tau-end", repr(bo["tau_end"]), "--out", "{round}/solve-bo")
        bo_steps = max(1, math.ceil(bo["tau_end"] / bo["dtau"] - 1e-9))
        work = DIRECT_SITES * DIRECT_STEPS
        cmds = [
            Command("solve-bo", bo_argv, "surrogate", bo["n"] * bo_steps),
            Command("simulate", sim + ("--init", "{round}/init.csv",
                                       "--out", "{round}/simulate/traj.csv"), "chain", work),
            Command("restart", sim + ("--init", "{round}/simulate/traj.csv",
                                      "--out", "{round}/restart/traj.csv"), "chain", work),
        ]
        return Plan(name, cmds,
                    dict(params=params, lat_cfg=lat_cfg, r=r, p=p, sites=sites))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def prepare(plan: Plan, round_dir: str):
    """Write the round's input files (only direct has any)."""
    if plan.name == "direct":
        with open(os.path.join(round_dir, "init.csv"), "w") as fh:
            fh.write("j,r,p\n")
            for j, (r, p) in enumerate(zip(plan.inputs["r"], plan.inputs["p"])):
                fh.write(f"{j},{float(r)!r},{float(p)!r}\n")


# ---------------------------------------------------------------------------
# checks


def _csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _l2(u, period):
    # continuum L2 norm of a grid field's trigonometric interpolant
    return math.sqrt(period * float(np.mean(u * u)))


def _check_solve_bo(rnd):
    n, period = DIRECT_BO["n"], DIRECT_BO["period"]
    # the initial profile from its formula: the CLI's default mean-zero
    # Gaussian bump of amplitude 1 and width period/20
    x = np.arange(n) * (period / n)
    u0 = np.exp(-((x - period / 2.0) / (period / 20.0)) ** 2)
    trace = _csv(rnd.path("solve-bo", "trace.csv"))
    fails = checks.check_surrogate_trace("solve-bo", trace, _l2(u0 - u0.mean(), period))
    final = _csv(rnd.path("solve-bo", "bo_final.csv"))[:, 1]
    fails += checks.check_finite("solve-bo field", final)
    if not fails and not abs(_l2(final, period) - trace[-1, 2]) <= 1e-9 * trace[-1, 2]:
        fails.append(f"solve-bo: bo_final.csv norm {_l2(final, period)!r} != "
                     f"the trace's {trace[-1, 2]!r}")
    return fails


def _check_residual_rows(label, rows, cfg, summary):
    expected = sum(k for *_, k in residual_counts(cfg))
    if rows.shape != (expected, 4):
        return [f"{label}: {rows.shape[0]} rows, expected {expected}"]
    fails = checks.check_finite(label, rows)
    if fails:
        return fails
    if not np.all(rows[:, 3] > 0.0):
        fails.append(f"{label}: a residual norm is not positive")
    fails += checks.check_scaling(label, checks.sup_by_epsilon(rows[:, 1], rows[:, 3]),
                                  checks.beta_exponent(cfg.alpha), summary.get("slope"))
    return fails


def _check_validate(plan, rnd):
    cfg, counts = plan.inputs["cfg"], plan.inputs["counts"]
    summary = rnd.summaries["validate"]
    fails = []
    if summary.get("aborted"):
        fails.append(f"validate: aborted runs {summary['aborted']}")
    rows = _csv(rnd.path("validate", "validation.csv"))
    expected = len(counts) * (cfg.checkpoints + 1)
    if rows.shape != (expected, 5):
        return fails + [f"validate: {rows.shape[0]} rows, expected {expected}"]
    fails += checks.check_finite("validate", rows)
    if fails:
        return fails
    for _, eps, _, horizon in counts:
        sel = rows[np.abs(rows[:, 1] - eps) <= 1e-12 * eps]
        if sel.shape[0] != cfg.checkpoints + 1:
            fails.append(f"validate: eps {eps}: {sel.shape[0]} rows")
            continue
        t0 = sel[sel[:, 2] == 0.0]
        if t0.shape[0] != 1 or t0[0, 3] != 0.0 or t0[0, 4] != 0.0:
            fails.append(f"validate: eps {eps}: the t = 0 row is not exactly 0")
        if not abs(sel[:, 2].max() - horizon) <= 1e-12 * horizon:
            fails.append(f"validate: eps {eps}: last t {sel[:, 2].max()!r}, horizon {horizon!r}")
    gamma = checks.gamma_exponent(cfg.alpha)
    for col, name in ((3, "mu"), (4, "nu")):
        fails += checks.check_scaling(f"validate {name}",
                                      checks.sup_by_epsilon(rows[:, 1], rows[:, col]),
                                      gamma, summary.get(f"{name}_slope"), law=True)
    return fails


def _interaction_fields(cfg, params):
    """On the largest ring at checkpoint 0: the residual's (accel, fpart)
    and the chain force of the ansatz gaps at the same cutoff."""
    N, eps, M, _ = residual_counts(cfg)[-1]
    u0 = gaussian_profile(PeriodicGrid(cfg.period, cfg.bo_modes),
                          default_residual_amplitude(cfg.alpha), cfg.width_fraction)
    accel, fpart = residual_fields(u0, eps, params, M, cfg.dealias_fraction)
    r, _ = ansatz_fields(u0.spectrum, cfg.period, N, params,
                         dealias_fraction=cfg.dealias_fraction)
    f = force(r, LatticeConfig(N=N, alpha=cfg.alpha, cutoff=M, dt=cfg.lattice_dt))
    return eps, accel, fpart, f


def _check_residual(plan, rnd, inputs):
    fails = []
    for a in RESIDUAL_ALPHAS:
        cfg = plan.inputs["cfgs"][a]
        label = f"residual-{a}"
        rows = _csv(rnd.path(label, "residual_sweep.csv"))
        fails += _check_residual_rows(label, rows, cfg, rnd.summaries[label])
        eps, accel, fpart, f = inputs[a]
        fails += checks.check_interaction(label, accel, fpart, f)
        row = rows[(np.abs(rows[:, 1] - eps) <= 1e-12 * eps) & (rows[:, 2] == 0.0)]
        l2 = float(np.linalg.norm(accel + fpart))
        if row.shape[0] != 1 or not abs(row[0, 3] - l2) <= 1e-9 * l2:
            fails.append(f"{label}: CSV residual at eps {eps}, t = 0 is not the "
                         f"norm {l2!r} of residual_fields")
    return fails


def verlet_energy_bound(alpha, sites, modes, dt):
    """(c kappa_max dt)^2: the relative energy error of kick-drift-kick on
    linear waves up to wavenumber kappa_max is about (omega dt)^2 / 4, and
    the chain's omega is at most c kappa."""
    c = math.sqrt(alpha * (alpha + 1.0) * float(scipy_zeta(alpha)))
    return (c * 2.0 * math.pi * max(modes) / sites * dt) ** 2


def _check_direct(plan, rnd, force0):
    inp = plan.inputs
    fails = _check_solve_bo(rnd)
    bound = verlet_energy_bound(DIRECT_ALPHA, DIRECT_SITES, DIRECT_MODES, inp["lat_cfg"].dt)
    trajs = {}
    for label in ("simulate", "restart"):
        fails += checks.check_chain_summary(label, rnd.summaries[label], bound)
        trajs[label] = _csv(rnd.path(label, "traj.csv"))
        fails += checks.check_trajectory(label, trajs[label], DIRECT_SITES, SNAPSHOTS)
    fails += checks.check_force_oracle(inp["r"], force0, DIRECT_ALPHA,
                                       DIRECT_CUTOFF, inp["sites"])
    first_r, first_p = checks.snapshot(trajs["simulate"], 0)
    if not (np.array_equal(first_r, inp["r"]) and np.array_equal(first_p, inp["p"])):
        fails.append("simulate: first snapshot is not the seeded input")
    fails += checks.check_restart(checks.snapshot(trajs["simulate"], -1),
                                  checks.snapshot(trajs["restart"], 0))
    return fails


def check_inputs(plan: Plan):
    """Library results the checks examine besides the CLI outputs, computed
    once per run, outside the timed region: for residual the interaction
    cross-check's fields, for direct the force at the initial state."""
    if plan.name == "residual":
        return {a: _interaction_fields(plan.inputs["cfgs"][a], plan.inputs["params"][a])
                for a in RESIDUAL_ALPHAS}
    if plan.name == "direct":
        return force(plan.inputs["r"], plan.inputs["lat_cfg"])
    return None


def check(plan: Plan, rnd, inputs):
    """All failures of one round's outputs; empty when every check passes."""
    if plan.name == "validate":
        return _check_validate(plan, rnd)
    if plan.name == "residual":
        return _check_residual(plan, rnd, inputs)
    return _check_direct(plan, rnd, inputs)
