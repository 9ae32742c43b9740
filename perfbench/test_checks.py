"""Each of the benchmark's checks must reject a corrupted result.

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from artifact.bo_solver import gaussian_profile  # noqa: E402
from artifact.cli import main as cli_main  # noqa: E402
from artifact.harness import ansatz_fields, describe_plan, residual_fields  # noqa: E402
from artifact.lattice import LatticeConfig, force  # noqa: E402
from artifact.specfun import make_alpha_params  # noqa: E402
from artifact.spectral import PeriodicGrid  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EPS = (0.2, 0.1414, 0.1, 0.0707)


def test_force_oracle_rejects_one_perturbed_site():
    rng = np.random.default_rng(3)
    r = 0.02 * rng.standard_normal(96)
    r -= r.mean()
    f = force(r, LatticeConfig(N=96, alpha=2.0, cutoff=30, dt=0.05))
    sites = [0, 7, 50, 95]
    assert checks.check_force_oracle(r, f, 2.0, 30, sites) == []
    bad = f.copy()
    bad[50] += 1e-6 * np.max(np.abs(f))
    assert checks.check_force_oracle(r, bad, 2.0, 30, sites)


def test_force_oracle_on_the_direct_workload_data():
    r, _, sites = workloads.direct_inputs(11)
    cfg = LatticeConfig(N=workloads.DIRECT_SITES, alpha=2.0,
                        cutoff=workloads.DIRECT_CUTOFF, dt=0.05)
    assert checks.check_force_oracle(r, force(r, cfg), 2.0, cfg.cutoff, sites) == []


@pytest.mark.parametrize("slope,ok", [(1.5, True), (1.75, True), (1.85, False), (1.1, False)])
def test_slope_band(slope, ok):
    pairs = [(e, 3.0 * e ** slope) for e in EPS]
    assert (checks.check_scaling("mu", pairs, 1.5, law=True) == []) is ok


def test_scaling_rejects_a_wrong_report_and_a_broken_law():
    pairs = [(e, 3.0 * e ** 1.5) for e in EPS]
    assert checks.check_scaling("mu", pairs, 1.5, reported_slope=1.5) == []
    assert checks.check_scaling("mu", pairs, 1.5, reported_slope=1.6)
    # an outlier far off the law, with the target at the refit slope so
    # that only the law check can fail
    pairs[1] = (EPS[1], 1e4 * pairs[1][1])
    target = checks.fit_loglog(pairs)[0]
    assert checks.check_scaling("mu", pairs, target) == []
    assert checks.check_scaling("mu", pairs, target, law=True)


def test_nan_in_chain_state_is_rejected():
    traj = np.zeros((3 * 16, 4))
    traj[:, 1] = np.tile(np.arange(16), 3)
    assert checks.check_trajectory("chain", traj, 16, 3) == []
    traj[20, 3] = np.nan
    assert checks.check_trajectory("chain", traj, 16, 3)
    summary = {"energy_initial": 1.0, "energy_final": 1.0, "energy_rel_drift": 0.0,
               "momentum_drift": 0.0, "max_abs_r": 0.01}
    assert checks.check_chain_summary("chain", summary, 1e-6) == []
    assert checks.check_chain_summary("chain", dict(summary, energy_final=float("nan")), 1e-6)


def test_simulate_lattice_with_a_nan_momentum_fails_the_checks(tmp_path, capsys):
    # the CLI itself exits 0 here; the benchmark's checks must not pass it
    N = 64
    x = 2.0 * np.pi * np.arange(N) / N
    p = 1e-3 * np.cos(x)
    p[10] = np.nan
    init = tmp_path / "init.csv"
    init.write_text("j,r,p\n" + "".join(f"{j},{1e-3 * np.sin(x[j])!r},{p[j]!r}\n"
                                        for j in range(N)))
    out = tmp_path / "out" / "traj.csv"
    code = cli_main(["simulate-lattice", "--alpha", "2.0", "--init", str(init),
                     "--cutoff", "20", "--steps", "5", "--out", str(out)])
    summary = run._last_json(capsys.readouterr().out)
    traj = np.loadtxt(out, delimiter=",", skiprows=1)
    fails = (checks.check_chain_summary("chain", summary, 1e-6)
             + checks.check_trajectory("chain", traj, N, 6))
    assert code == 0
    assert fails


def test_restart_off_by_one_ulp_is_rejected():
    rng = np.random.default_rng(5)
    r, p = rng.standard_normal(32), rng.standard_normal(32)
    assert checks.check_restart((r, p), (r.copy(), p.copy())) == []
    p2 = p.copy()
    p2[9] = np.nextafter(p2[9], np.inf)
    assert checks.check_restart((r, p), (r, p2))


def test_snapshot_picks_first_and_last_times_by_site():
    traj = np.array([[0.0, 1, 1.0, 2.0], [0.0, 0, 3.0, 4.0],
                     [5.0, 1, 5.0, 6.0], [5.0, 0, 7.0, 8.0]])
    r, p = checks.snapshot(traj, -1)
    assert r.tolist() == [7.0, 5.0] and p.tolist() == [8.0, 6.0]
    assert checks.snapshot(traj, 0)[0].tolist() == [3.0, 1.0]


def test_interaction_part_against_force_rejects_a_perturbed_force():
    alpha, period, N, M = 2.5, 25.6, 128, 40
    params = make_alpha_params(alpha)
    u0 = gaussian_profile(PeriodicGrid(period, 64), 0.1, 8.0)
    accel, fpart = residual_fields(u0, period / N, params, M)
    r, _ = ansatz_fields(u0.spectrum, period, N, params)
    f = force(r, LatticeConfig(N=N, alpha=alpha, cutoff=M, dt=0.05))
    assert checks.check_interaction("res", accel, fpart, f) == []
    bad = f.copy()
    bad[17] += 1e-3 * np.max(np.abs(f))
    assert checks.check_interaction("res", accel, fpart, bad)


def test_surrogate_trace_rejects_drift():
    rows = [[0.0, 0.0, 2.0, 5.0], [0.1, 1e-16, 2.0, 5.1]]
    assert checks.check_surrogate_trace("bo", rows, 2.0) == []
    assert checks.check_surrogate_trace("bo", [rows[0], [0.1, 0.0, 2.0 * (1 + 1e-9), 5.1]], 2.0)
    assert checks.check_surrogate_trace("bo", [rows[0], [0.1, 1e-9, 2.0, 5.1]], 2.0)
    assert checks.check_surrogate_trace("bo", rows, 2.0 * (1 + 1e-9))


def test_digests_of_repeated_rounds_must_agree():
    a = {"x/traj.csv": "00", "y/trace.csv": "11"}
    assert checks.check_digests([a, dict(a)]) == []
    assert checks.check_digests([a, dict(a, **{"y/trace.csv": "12"})])
    assert checks.check_digests([a, {"x/traj.csv": "00"}])


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
def test_work_counts_agree_with_the_program_plan(alpha):
    cfg = workloads.ValidationConfig(alpha=alpha)
    plan = describe_plan(cfg, "validation")
    counts = workloads.validation_counts(cfg)
    assert [(c[0], c[2]) for c in counts] == [(e["N"], e["total_steps"]) for e in plan]
    plan = describe_plan(cfg, "residual")
    res = workloads.residual_counts(cfg)
    assert [(c[0], c[2]) for c in res] == [(e["N"], e["cutoff"]) for e in plan]
    assert all(c[3] == cfg.checkpoints + 1 for c in res)
