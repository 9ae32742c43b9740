"""Checks of the program's outputs, each against a separate computation or a
property the method must have; never against a stored copy of an output.

Every check returns a list of failure messages, empty when it passes, so a
run can report all of them at once.  The functions take plain arrays and
numbers, which lets the tests feed them corrupted results.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE_BAND = 0.3                  # gates 7 and 8: |slope - exponent| <= 0.3
LAW_FACTOR = 10.0                 # gate 8: every sup within 10x of the fit
FORCE_ORACLE_RTOL = 1e-9          # force against the double loop, of max|f|
INTERACTION_RTOL = 1e-6           # residual interaction part against -force
SURROGATE_MEAN_ATOL = 1e-12       # gate 6: the mean is conserved exactly
SURROGATE_L2_RTOL = 1e-10         # gate 6: relative L2 drift
MOMENTUM_ATOL = 1e-10             # gate 5: momentum drift


def gamma_exponent(alpha: float) -> float:
    """Error exponent of the approximation theorem: 2 alpha - 5/2 up to
    alpha = 2, 3/2 above."""
    return 2.0 * alpha - 2.5 if alpha <= 2.0 else 1.5


def beta_exponent(alpha: float) -> float:
    """Residual exponent beta = gamma + alpha."""
    return gamma_exponent(alpha) + alpha


def fit_loglog(pairs):
    """Least-squares (slope, intercept) of log(value) against log(epsilon)."""
    x = np.log([e for e, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def sup_by_epsilon(eps_col, value_col):
    """(epsilon, max value) per distinct epsilon, in descending epsilon."""
    eps_col = np.asarray(eps_col, float)
    value_col = np.asarray(value_col, float)
    return [(float(e), float(np.max(value_col[eps_col == e])))
            for e in sorted(set(eps_col.tolist()), reverse=True)]


def check_scaling(label, pairs, target, reported_slope=None, law=False):
    """The fitted slope of sup values lies within SLOPE_BAND of target.

    With law=True every sup also lies within LAW_FACTOR of the fitted law
    (gate 8).  A reported slope, if given, must agree with the refit.
    """
    fails = []
    if len(pairs) < 3:
        return [f"{label}: {len(pairs)} epsilons, a fit needs 3"]
    if not all(math.isfinite(v) and v > 0.0 for _, v in pairs):
        return [f"{label}: sup values not all positive and finite: {pairs}"]
    slope, intercept = fit_loglog(pairs)
    if not abs(slope - target) <= SLOPE_BAND:
        fails.append(f"{label}: slope {slope:.4f} outside {target} +- {SLOPE_BAND}")
    if reported_slope is not None and not abs(reported_slope - slope) <= 1e-9 * max(1.0, abs(slope)):
        fails.append(f"{label}: reported slope {reported_slope!r} != refit {slope!r}")
    if law:
        for eps, sup in pairs:
            if not sup <= LAW_FACTOR * math.exp(intercept) * eps ** slope:
                fails.append(f"{label}: sup {sup:.3e} at eps {eps} exceeds "
                             f"{LAW_FACTOR}x the fitted law")
    return fails


def check_finite(label, values):
    if not np.all(np.isfinite(np.asarray(values, float))):
        return [f"{label}: non-finite values"]
    return []


def _kernel_prime(g, m, alpha):
    # slope of the renormalised pair potential at range m and window sum g:
    # -alpha*((m+g)^-(alpha+1) - m^-(alpha+1))
    b = alpha + 1.0
    m = np.asarray(m, dtype=float)
    return -alpha * m ** (-b) * np.expm1(-b * np.log1p(g / m))


def brute_force_at(r, alpha, cutoff, j):
    """Acceleration of site j by the double loop of gate 5: over ranges m,
    the pair slope of the window of m gaps starting at j minus that of the
    window ending at j - 1, each window summed outward from site j."""
    N = r.size
    ms = np.arange(1, cutoff + 1)
    ahead = np.cumsum(r[(j + np.arange(cutoff)) % N])
    behind = np.cumsum(r[(j - 1 - np.arange(cutoff)) % N])
    return float(np.sum(_kernel_prime(ahead, ms, alpha)
                        - _kernel_prime(behind, ms, alpha)))


def check_force_oracle(r, f, alpha, cutoff, sites):
    """lattice.force output f against the double loop at the given sites."""
    r = np.asarray(r, float)
    brute = np.array([brute_force_at(r, alpha, cutoff, j) for j in sites])
    got = np.asarray(f, float)[list(sites)]
    scale = max(float(np.max(np.abs(brute))), 1e-300)
    dev = float(np.max(np.abs(got - brute))) / scale
    if not dev <= FORCE_ORACLE_RTOL:
        return [f"force differs from the double loop by {dev:.3e} of max|f| "
                f"(bound {FORCE_ORACLE_RTOL})"]
    return []


def interaction_gap(accel, fpart, f):
    """||fpart + f|| / ||accel + fpart||: the residual's interaction part
    against minus the chain force, relative to the residual norm."""
    res = float(np.linalg.norm(np.asarray(accel) + np.asarray(fpart)))
    return float(np.linalg.norm(np.asarray(fpart) + np.asarray(f))) / res


def check_interaction(label, accel, fpart, f):
    gap = interaction_gap(accel, fpart, f)
    if not gap <= INTERACTION_RTOL:
        return [f"{label}: interaction part differs from -force by {gap:.3e} "
                f"of the residual norm (bound {INTERACTION_RTOL})"]
    return []


def check_surrogate_trace(label, rows, l2_initial):
    """trace.csv rows (tau, mean, l2, h6): mean and L2 norm conserved, and
    the first row's norm equal to l2_initial, computed from the profile's
    formula."""
    rows = np.asarray(rows, float)
    fails = check_finite(label, rows)
    if fails:
        return fails
    if not np.max(np.abs(rows[:, 1])) <= SURROGATE_MEAN_ATOL:
        fails.append(f"{label}: mean drifted to {np.max(np.abs(rows[:, 1])):.3e}")
    l2 = rows[:, 2]
    drift = float(np.max(np.abs(l2 - l2[0]))) / l2[0]
    if not drift <= SURROGATE_L2_RTOL:
        fails.append(f"{label}: relative L2 drift {drift:.3e} (bound {SURROGATE_L2_RTOL})")
    if not abs(l2[0] - l2_initial) <= 1e-12 * l2_initial:
        fails.append(f"{label}: initial L2 {l2[0]!r} != profile's {l2_initial!r}")
    return fails


def check_chain_summary(label, summary, energy_bound):
    """simulate-lattice summary: energy and momentum drifts within the
    Verlet bounds, every figure finite."""
    keys = ("energy_initial", "energy_final", "energy_rel_drift",
            "momentum_drift", "max_abs_r")
    vals = [summary.get(k) for k in keys]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
        return [f"{label}: non-finite summary {dict(zip(keys, vals))}"]
    fails = []
    if not summary["energy_rel_drift"] <= energy_bound:
        fails.append(f"{label}: energy drift {summary['energy_rel_drift']:.3e} "
                     f"(bound {energy_bound:.3e})")
    if not summary["momentum_drift"] <= MOMENTUM_ATOL:
        fails.append(f"{label}: momentum drift {summary['momentum_drift']:.3e}")
    return fails


def check_trajectory(label, traj, sites, snapshots):
    """traj.csv columns (t, j, r, p): shape and finiteness."""
    traj = np.asarray(traj, float)
    if traj.shape != (sites * snapshots, 4):
        return [f"{label}: trajectory shape {traj.shape}, expected "
                f"({sites * snapshots}, 4)"]
    return check_finite(label, traj)


def snapshot(traj, which):
    """(r, p) of the first (which=0) or last (which=-1) snapshot, by site."""
    traj = np.asarray(traj, float)
    times = np.unique(traj[:, 0])
    rows = traj[traj[:, 0] == times[which]]
    rows = rows[np.argsort(rows[:, 1], kind="stable")]
    return rows[:, 2], rows[:, 3]


def check_restart(last, first):
    """The restart's first snapshot equals the first run's last one, bit for
    bit; last and first are (r, p) pairs."""
    for name, a, b in zip(("r", "p"), last, first):
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if a.shape != b.shape or not np.array_equal(a.view(np.int64), b.view(np.int64)):
            return [f"restart: first snapshot's {name} differs from the last one written"]
    return []


def check_digests(rounds):
    """Every round of one invocation wrote byte-identical CSVs (gate 9)."""
    first = rounds[0]
    for k, other in enumerate(rounds[1:], start=2):
        if other != first:
            diff = sorted(n for n in set(first) | set(other)
                          if first.get(n) != other.get(n))
            return [f"round {k} CSVs differ from round 1: {diff}"]
    return []
