import argparse
import csv
import dataclasses
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from artifact import bo_solver, cli, harness
from artifact.cli import build_parser, config_fingerprint, main
from artifact.harness import ConfigError, ValidationConfig
from artifact.spectral import PeriodicGrid, SpectralField


def read_field_binary(path) -> SpectralField:
    """Decode the little-endian float64 dump of write_field_binary:
    period, n, then the n values."""
    raw = np.fromfile(path, dtype="<f8")
    if raw.size < 2:
        raise ValueError(f"truncated field dump: {path}")
    period, n = float(raw[0]), int(raw[1])
    if raw.size != 2 + n:
        raise ValueError(f"field dump length mismatch in {path}")
    return SpectralField.from_values(PeriodicGrid(period, n), raw[2:])


def _lines(text):
    return [ln for ln in text.strip().splitlines() if ln]


# ---------------------------------------------------------------------------
# small computations


def test_constants_stdout(capsys):
    assert main(["constants", "--alpha", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 2.0
    assert abs(payload["c"] - math.pi) < 1e-9
    assert abs(payload["kappa2"] - 4.0 * math.pi ** 2) < 1e-7
    assert abs(payload["zeta_a"] - math.pi ** 2 / 6.0) < 1e-10


def test_constants_out_dir_and_manifest(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["constants", "--alpha", "1.8", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "constants.json") as fh:
        payload = json.load(fh)
    assert payload["alpha"] == 1.8
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "constants"
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]
    assert any(p.endswith("constants.json") for p in manifest["outputs"])


def test_alpha_star_stdout(capsys):
    assert main(["alpha-star"]) == 0
    root = float(capsys.readouterr().out.strip())
    assert 1.45 < root < 1.5


@pytest.mark.parametrize("argv", [
    ["constants", "--alpha", "2.0", "--tol", "1e-12"],
    ["alpha-star", "--tol", "1e-12"],
    ["eta-rates", "--alpha", "2.0", "--tol", "1e-12"],
    ["residual-sweep", "--bo-steps-per-checkpoint", "20"],
    ["constants", "--alpha", "2.0", "--jobs", "1"],
    ["validate", "--bidirectional", "--dry-run"],
    ["eta-rates", "--alpha", "2.0", "--h-list", ""],
    ["eta-rates", "--alpha", "2.0", "--h-list", ","]])
def test_lattice_sums_take_no_tolerance(argv, tmp_path, capsys,
                                        monkeypatch):
    # zeta and eta_riemann are exact to rounding, so there is no --tol to
    # set; the surrogate's steps per checkpoint are fixed, --jobs is a
    # sweep flag only, and validation runs forward only; an empty --h-list
    # printed a bare header and exited 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err
    assert not os.listdir(tmp_path)


def test_eta_rates_stdout_csv(capsys):
    assert main(["eta-rates", "--alpha", "2.0",
                 "--h-list", "0.4,0.2,0.1"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0] == "h,eta_h,abs_err"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 3
    assert rows[0][0] == 0.4
    assert abs(rows[2][1] - math.pi / 6.0) < 0.01
    errs = [row[2] for row in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    # first-order rate at this exponent: halving h halves the error
    assert abs(errs[0] / errs[1] - 2.0) < 0.2
    assert abs(errs[1] / errs[2] - 2.0) < 0.2


def test_eta_rates_out_file(tmp_path, capsys):
    out = tmp_path / "er"
    assert main(["eta-rates", "--alpha", "2.3", "--h-list", "0.4,0.2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    saved = (out / "eta_rates.csv").read_text()
    assert saved.strip() == stdout.strip()
    assert (out / "manifest.json").exists()


def test_dry_run_prints_plan_without_output(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["eta-rates", "--alpha", "2.0", "--dry-run",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "eta-rates"
    assert not out.exists()


def test_seed_flag_accepted(capsys):
    # --seed set nothing (every pipeline is deterministic) and is gone
    assert main(["constants", "--alpha", "2.0", "--seed", "7"]) == 1
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solvers


def test_solve_bo_outputs(tmp_path, capsys):
    out = tmp_path / "bo"
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64", "--period", "12.8",
               "--dtau", "1e-3", "--tau-end", "0.02", "--checkpoints", "3",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tau"] == pytest.approx(0.02)
    assert summary["l2_drift"] < 1e-10
    lines = _lines((out / "trace.csv").read_text())
    assert lines[0] == "tau,mean,l2,h6"
    taus = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.02)
    assert any(abs(t - 0.005) < 1e-12 for t in taus)
    field = read_field_binary(str(out / "bo_final.bin"))
    assert field.values.size == 64
    # the CSV holds the dumped values to the last bit, on the grid's nodes
    rows = np.genfromtxt(out / "bo_final.csv", delimiter=",", names=True)
    assert rows.dtype.names == ("X", "value")
    raw = np.fromfile(out / "bo_final.bin", dtype="<f8")
    assert np.array_equal(rows["value"], raw[2:])
    assert np.array_equal(rows["X"], field.grid.nodes)
    assert (out / "manifest.json").exists()


def test_solve_bo_dry_run_plans_the_steps_run_to_takes(tmp_path, capsys,
                                                       monkeypatch):
    # two spans of ceil(0.05/0.04) = 2 steps each, not ceil(0.1/0.04) = 3
    argv = ["solve-bo", "--alpha", "2.0", "--n", "64", "--tau-end", "0.1",
            "--dtau", "0.04", "--checkpoints", "1"]
    assert main(argv + ["--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 4
    taken = []
    run_spectrum = bo_solver._run_spectrum

    def counted(c, k, params, mask, dtau, nsteps, tau_origin=0.0):
        taken.append(nsteps)
        return run_spectrum(c, k, params, mask, dtau, nsteps, tau_origin)

    monkeypatch.setattr(bo_solver, "_run_spectrum", counted)
    assert main(argv + ["--out", str(tmp_path / "bo")]) == 0
    capsys.readouterr()
    assert taken == [2, 2]


@pytest.mark.parametrize("dtau", ["0", "-0.01", "inf", "nan"])
def test_solve_bo_dry_run_rejects_a_bad_step(dtau, capsys):
    # the dry run builds the same BOConfig as the run, so it refuses the
    # same step, with exit code 1 and no traceback; inf once planned one
    # step a span and printed "dtau": Infinity, nan failed converting NaN
    # to an integer
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64", "--tau-end", "0.1",
               "--dtau", dtau, "--dry-run"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dtau must be positive" in captured.err


@pytest.mark.parametrize("tau_end", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("dry_run", [False, True])
def test_solve_bo_refuses_a_non_finite_end(dry_run, tau_end, tmp_path,
                                           capsys):
    # nan once failed converting NaN to an integer, and inf overflowed it
    out = tmp_path / "bo"
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64",
               f"--tau-end={tau_end}", "--out", str(out)]
              + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: tau_end must be finite, got {tau_end}\n"


_BAD_PROFILES = [("--width-fraction", "0", "width_fraction"),
                 ("--width-fraction", "-5", "width_fraction"),
                 ("--width-fraction", "nan", "width_fraction"),
                 ("--width-fraction", "inf", "width_fraction"),
                 ("--amplitude", "nan", "amplitude"),
                 ("--amplitude", "inf", "amplitude")]


@pytest.mark.parametrize("flag, value, name", _BAD_PROFILES + [
    ("--period", "nan", "period"), ("--period", "inf", "period")])
@pytest.mark.parametrize("dry_run", [False, True])
def test_solve_bo_refuses_a_bad_profile(dry_run, flag, value, name, tmp_path,
                                        capsys):
    # a zero width once raised ZeroDivisionError with a traceback, and a
    # negative one ran as its magnitude; a period of nan or inf was planned
    # by --dry-run, and nan then ran to a blow-up (exit 2)
    out = tmp_path / "bo"
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64", "--tau-end", "0.01",
               "--dtau", "1e-3", flag, value, "--out", str(out)]
              + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("dry_run", [False, True])
def test_solve_bo_refuses_a_negative_checkpoint_count(dry_run, tmp_path,
                                                      capsys, monkeypatch):
    # a negative count ran with no checkpoints and exited 0
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_to", refuse)
    monkeypatch.chdir(tmp_path)
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64", "--tau-end", "0.1",
               "--checkpoints", "-3"] + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--checkpoints" in captured.err
    assert os.listdir(tmp_path) == []


def test_solve_bo_out_csv_path(tmp_path, capsys):
    target = tmp_path / "d" / "mytrace.csv"
    rc = main(["solve-bo", "--alpha", "2.0", "--n", "64", "--period", "12.8",
               "--dtau", "1e-3", "--tau-end", "0.01", "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    assert target.exists()
    assert (tmp_path / "d" / "bo_final.csv").exists()


def _read_traj(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


def test_simulate_lattice_ansatz_run(tmp_path, capsys):
    out = tmp_path / "lat"
    rc = main(["simulate-lattice", "--alpha", "2.0", "--epsilon", "0.4",
               "--period", "12.8", "--steps", "40", "--dt", "0.05",
               "--cutoff", "15", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["sites"] == 32
    # coarse 32-site ring: the symmetric split step keeps the energy error
    # bounded at an oscillation scale rather than drifting
    assert summary["energy_rel_drift"] < 5e-4
    assert summary["momentum_drift"] < 1e-12
    data = _read_traj(out / "traj.csv")
    assert set(data.dtype.names) == {"t", "j", "r", "p"}
    t_values = np.unique(data["t"])
    assert t_values[0] == 0.0
    assert t_values[-1] == pytest.approx(40 * 0.05)
    assert data.size == t_values.size * 32
    # the site index is written as an integer, every other cell as a float
    lines = _lines((out / "traj.csv").read_text())
    assert lines[1] == f"0.0,0,{float(data['r'][0])!r},{float(data['p'][0])!r}"
    assert lines[32].split(",")[1] == "31"
    assert (out / "manifest.json").exists()


def test_simulate_lattice_restart_round_trip(tmp_path, capsys):
    first = tmp_path / "one"
    rc = main(["simulate-lattice", "--alpha", "2.0", "--epsilon", "0.4",
               "--period", "12.8", "--steps", "20", "--dt", "0.05",
               "--cutoff", "15", "--out", str(first)])
    assert rc == 0
    capsys.readouterr()
    second = tmp_path / "two"
    rc = main(["simulate-lattice", "--alpha", "2.0",
               "--init", str(first / "traj.csv"), "--cutoff", "15",
               "--steps", "4", "--dt", "0.05", "--out", str(second)])
    assert rc == 0
    capsys.readouterr()
    old = _read_traj(first / "traj.csv")
    new = _read_traj(second / "traj.csv")
    tail = old[old["t"] == old["t"].max()]
    head = new[new["t"] == 0.0]
    assert np.array_equal(np.sort(tail["j"]), np.sort(head["j"]))
    assert np.array_equal(tail[np.argsort(tail["j"])]["r"],
                          head[np.argsort(head["j"])]["r"])
    assert np.array_equal(tail[np.argsort(tail["j"])]["p"],
                          head[np.argsort(head["j"])]["p"])


def test_simulate_lattice_defaults_to_the_ring_cap(tmp_path, capsys):
    # without --cutoff the chain runs at the ring cap N/2 - 1, from the
    # ansatz as from a file, as validate's chain does
    init = tmp_path / "init.csv"
    init.write_text("j,r,p\n" + "\n".join(f"{j},0.01,0.0" for j in range(32)) + "\n")
    for start, N in ((["--epsilon", "0.1"], 1024), (["--init", str(init)], 32)):
        rc = main(["simulate-lattice", "--alpha", "2.0", "--steps", "2",
                   "--dry-run"] + start)
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert (plan["sites"], plan["cutoff"]) == (N, N // 2 - 1)


def test_simulate_lattice_requires_some_initial_data(capsys):
    rc = main(["simulate-lattice", "--alpha", "2.0", "--steps", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_lattice_collision_exit_code(tmp_path, capsys):
    # a collision is a BlowUpError: exit 2 naming t, whether the given state
    # has lost its ordering or the chain loses it on the way
    init = tmp_path / "bad.csv"
    init.write_text("j,r,p\n" + "\n".join(f"{j},1.5,0.0" for j in range(32)) + "\n")
    rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(init),
               "--cutoff", "8", "--steps", "2", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == ("blow-up: a gap deviation reached 1; "
                                       "ordering lost t=0.0\n")
    # two particles launched at each other hard
    p = {3: 4.0, 4: -4.0}
    init.write_text("j,r,p\n" + "".join(f"{j},0.0,{p.get(j, 0.0)}\n"
                                        for j in range(16)))
    rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(init),
               "--cutoff", "7", "--dt", "0.05", "--steps", "200",
               "--out", str(tmp_path / "y")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("blow-up: a gap deviation reached 1; ordering "
                          "lost alpha=2.0 t=")
    assert 0.0 < float(err.split("t=")[1]) <= 200 * 0.05
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_missing_init_file_is_a_config_error(tmp_path, capsys):
    rc = main(["simulate-lattice", "--alpha", "2.0",
               "--init", str(tmp_path / "nope.csv"), "--cutoff", "8"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _genfromtxt_lattice(path):
    """The --init loader's arrays as np.genfromtxt with a named header read
    them, the loader's earlier form."""
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    names = data.dtype.names
    if "t" in names:
        data = data[data["t"] == data["t"].max()]
    if "j" in names:
        data = data[np.argsort(data["j"], kind="stable")]
    return np.asarray(data["r"], float), np.asarray(data["p"], float)


def _init_text(header, rows, end="\n"):
    return end.join([",".join(header)] + [
        ",".join(repr(float(v)) for v in row) for row in rows]) + end


def _init_cases():
    rng = np.random.default_rng(23)
    j = rng.permutation(40).astype(float)
    r, p = 1e-3 * rng.standard_normal(40), 1e-3 * rng.standard_normal(40)
    r[3], p[5], r[7] = -0.0, 5e-324, 0.1 + 0.2
    # two snapshots, each with its j a permutation of 0..19
    t = np.repeat([0.0, 0.25], 20)
    jt = np.concatenate([j[j < 20], j[j >= 20] - 20])
    tjrp = ("t", "j", "r", "p")
    rows = list(zip(t, jt, r, p))
    return {
        "reordered": _init_text(("p", "j", "r"), zip(p, j, r)),
        "no-t": _init_text(("j", "r", "p"), zip(j, r, p)),
        "no-j": _init_text(("t", "r", "p"), zip(t, r, p)),
        "neither": _init_text(("r", "p"), zip(r, p)),
        "extra-column": _init_text(("t", "j", "q", "r", "p"),
                                   zip(t, jt, 10 * r, r, p)),
        "single-row": _init_text(tjrp, [(0.5, 0.0, r[0], p[0])]),
        "crlf": _init_text(tjrp, rows, end="\r\n"),
        # the header's forms np.genfromtxt(names=True) took: behind a '#',
        # as np.savetxt writes it, and after blank lines
        "savetxt": _savetxt_text(np.column_stack([t, jt, r, p]), tjrp),
        "hash-header": "#" + _init_text(("r", "p"), zip(r, p)),
        "blank-lines": "\n\n" + _init_text(tjrp, rows[:-1])
        + "\n# comment\n" + _init_text(tjrp, rows[-1:]).split("\n", 1)[1],
    }


def _savetxt_text(table, header):
    buf = io.StringIO()
    np.savetxt(buf, table, delimiter=",", header=",".join(header))
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(_init_cases()))
def test_init_loader_gives_the_genfromtxt_arrays(tmp_path, case):
    # the header read with csv and the columns with np.loadtxt give the
    # arrays np.genfromtxt gave, bit for bit: the last t's rows stably
    # sorted by j, whatever the columns' order or extra columns
    path = tmp_path / "init.csv"
    path.write_bytes(_init_cases()[case].encode())
    got = cli._load_lattice_csv(str(path))
    want = _genfromtxt_lattice(str(path))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == np.float64
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _bad_j_cases():
    # 32 sites whose last snapshot's j is not 0..31, each once
    r, p = np.full(32, 0.01), np.zeros(32)
    two = list(zip(np.repeat([0.0, 0.1], 32), np.tile(np.arange(32.0), 2),
                   np.tile(r, 2), np.tile(p, 2)))
    return {
        "duplicate": _init_text(("j", "r", "p"),
                                zip(np.arange(32) % 16, r, p)),
        "truncated": _init_text(("t", "j", "r", "p"), two[:32 + 22]),
        "out-of-range": _init_text(("j", "r", "p"),
                                   zip(np.arange(1, 33), r, p)),
    }


@pytest.mark.parametrize("case", sorted(_bad_j_cases()))
def test_init_refuses_a_last_snapshot_not_indexed_once_per_site(
        tmp_path, capsys, case):
    # a duplicate j ran as a ring of all its rows, and a snapshot cut short
    # as a smaller ring; both are refused, naming the file
    path = tmp_path / "init.csv"
    path.write_text(_bad_j_cases()[case])
    with pytest.raises(ConfigError, match=str(path)):
        cli._load_lattice_csv(str(path))
    rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(path),
               "--cutoff", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", [("t", "j", "x", "p"), ("j", "r"), ()])
def test_init_without_r_and_p_names_the_file(tmp_path, capsys, header):
    path = tmp_path / "init.csv"
    path.write_text(_init_text(header, [(0.0,) * len(header)] * 20)
                    if header else "")
    with pytest.raises(ConfigError, match=str(path)):
        cli._load_lattice_csv(str(path))
    rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(path),
               "--cutoff", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", [("t", "j", "r", "p"), ("j", "r", "p")])
def test_init_with_a_header_and_no_rows_names_the_file(tmp_path, capsys,
                                                       header):
    # with t, the last snapshot's t was taken from no rows; without it, the
    # empty ring reached LatticeState; either is refused, naming the file
    path = tmp_path / "init.csv"
    path.write_text(_init_text(header, []))
    with pytest.raises(ConfigError, match=f"{path} has a header but no rows"):
        cli._load_lattice_csv(str(path))
    rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(path),
               "--cutoff", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{path} has a header but no rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_init_loader_peak_memory_within_twice_its_table(tmp_path, capsys):
    # an 11-snapshot, 2048-site trajectory as simulate-lattice writes it:
    # the loader's traced peak stays below twice the float table it parses,
    # 22 528 rows of 4 cells (0.69 MiB), at 0.84 MiB; np.genfromtxt, which
    # built Python objects cell by cell, peaked at 11.4 MiB
    out = tmp_path / "traj.csv"
    assert main(["simulate-lattice", "--alpha", "2.0", "--epsilon", "0.05",
                 "--cutoff", "16", "--steps", "10", "--trace-every", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    table = 11 * 2048 * 4 * 8
    cli._load_lattice_csv(str(out))
    tracemalloc.start()
    try:
        r, p = cli._load_lattice_csv(str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.size == p.size == 2048
    assert peak < 2 * table


def test_trajectory_rows_are_csv_writer_rows_of_fmt(tmp_path, capsys):
    # the trajectory, written a snapshot at a time with each column
    # formatted at once, is byte for byte what csv.writer makes of _fmt's
    # cells, "\r\n" line ends included, at signed zeros, subnormals, huge
    # values, inexact sums, NaN, infinities and site indices past 9999
    N = 10010
    rng = np.random.default_rng(31)
    r, p = 1e-3 * rng.standard_normal(N), 1e-3 * rng.standard_normal(N)
    r[:4] = [-0.0, 5e-324, 0.1 + 0.2, math.nan]
    p[:5] = [1e300, math.inf, -math.inf, math.nan, -0.0]
    init = tmp_path / "init.csv"
    init.write_text(_init_text(("j", "r", "p"), zip(range(N), r, p)))
    out = tmp_path / "out" / "traj.csv"
    with np.errstate(all="ignore"):
        rc = main(["simulate-lattice", "--alpha", "2.0", "--init", str(init),
                   "--cutoff", "8", "--steps", "0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(("t", "j", "r", "p"))
    for row in zip([0.0] * N, map(str, range(N)), r, p):
        writer.writerow([harness._fmt(v) for v in row])
    assert out.read_bytes() == want.getvalue().encode()


# ---------------------------------------------------------------------------
# sweeps


_SWEEP_ARGS = ["--epsilons", "0.4,0.32,0.25", "--tau0", "0.05",
               "--checkpoints", "2", "--bo-modes", "256", "--amplitude", "0.1"]


def test_residual_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "res"
    rc = main(["residual-sweep", "--alpha", "2.0", "--out", str(out)]
              + _SWEEP_ARGS)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["target_exponent"] == pytest.approx(3.5)
    assert len(summary["pairs"]) == 3
    for name in ("residual_sweep.csv", "residual_sweep.dat",
                 "report.json", "manifest.json"):
        assert (out / name).exists()
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "residual-sweep"


def test_residual_sweep_deterministic_outputs(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["residual-sweep", "--alpha", "2.0", "--out", str(out_a)]
                + _SWEEP_ARGS) == 0
    assert main(["residual-sweep", "--alpha", "2.0", "--out", str(out_b)]
                + _SWEEP_ARGS) == 0
    capsys.readouterr()
    assert ((out_a / "residual_sweep.csv").read_bytes()
            == (out_b / "residual_sweep.csv").read_bytes())
    hashes = []
    for out in (out_a, out_b):
        with open(out / "manifest.json") as fh:
            hashes.append(json.load(fh)["config_sha256"])
    assert hashes[0] == hashes[1]


def test_validate_end_to_end(tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(["validate", "--alpha", "2.0", "--out", str(out), "--jobs", "1"]
              + _SWEEP_ARGS)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert math.isfinite(summary["mu_slope"])
    assert math.isfinite(summary["nu_slope"])
    lines = _lines((out / "validation.csv").read_text())
    assert lines[0] == "alpha,epsilon,t,mu_l2,nu_l2"
    assert len(lines) == 1 + 3 * 3  # header + (1 + checkpoints) rows per eps


@pytest.mark.parametrize("argv", [["residual-sweep"],
                                  ["validate", "--energy-trace"]])
def test_sweep_manifest_lists_the_files_written(argv, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(argv + ["--out", str(out)] + _SWEEP_ARGS) == 0
    capsys.readouterr()
    with open(out / "manifest.json") as fh:
        listed = json.load(fh)["outputs"]
    assert listed == sorted(set(os.listdir(out)) - {"manifest.json"})


def test_validate_blow_up_exit_code(tmp_path, capsys):
    rc = main(["validate", "--alpha", "2.0", "--out", str(tmp_path / "bu"),
               "--epsilons", "0.4,0.32,0.25", "--tau0", "0.05",
               "--checkpoints", "2", "--bo-modes", "256",
               "--amplitude", "10.0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("blow-up:")
    assert "epsilon=" in err


def test_residual_sweep_collision_exit_code_names_t(tmp_path, capsys):
    # at amplitude 6 the ansatz gaps at eps 0.2 reach 1 from t = 0 on: exit
    # 2 naming alpha, epsilon and the t of the first checkpoint reaching it
    out = tmp_path / "rs"
    rc = main(["residual-sweep", "--alpha", "2.0", "--amplitude", "6",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("blow-up: a gap deviation reached 1")
    assert "alpha=2.0 epsilon=0.2 t=0.0" in err
    assert not (out / "report.json").exists()


def test_residual_sweep_runs_a_profile_its_band_cannot_hold(tmp_path):
    # a 128-point profile's gaps and force pass the kept bins of its own
    # band: each such checkpoint takes the ring's force, and report.json
    # counts it, where the sweep once exited 2
    out = tmp_path / "rs"
    rc = main(["residual-sweep", "--alpha", "2.0", "--bo-modes", "128",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert [b["band"] for b in report["bands"]] == [128] * 4
    assert all(b["band_fallbacks"] > 0 for b in report["bands"])
    assert len((out / "residual_sweep.csv").read_text().splitlines()) \
        == 1 + 4 * 21


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1.8, "tau0": 0.1,
                                    "epsilons": [0.4, 0.32, 0.25]}))
    rc = main(["validate", "--config", str(cfg_path), "--tau0", "0.07",
               "--dry-run"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["alpha"] == 1.8
    assert payload["config"]["tau0"] == 0.07  # flag beats file
    assert len(payload["plan"]) == 3
    # the chain's band for each epsilon: every ring here is smaller than
    # the surrogate's 512 points, so each band is the ring itself
    assert [e["band"] for e in payload["plan"]] == [256, 320, 410]


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("field, value", [
    ("checkpoints", 2.5), ("checkpoints", True), ("bo_modes", 512.0),
    ("bo_steps_per_checkpoint", math.inf), ("bidirectional", True),
    ("tau0", True), ("amplitude", True), ("tau0", "0.1"), ("alpha", "2"),
    ("period", None), ("width_fraction", "20"), ("lattice_dt", True),
    ("residual_cutoff_coef", "3"), ("dealias_fraction", "0.6"),
    ("epsilons", 0.3), ("epsilons", [0.2, True, 0.1]),
    ("energy_trace", "no"), ("energy_trace", 1), ("jobs", 2)])
def test_config_file_non_integer_count_exits_before_any_work(
        field, value, dry_run, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "run_to", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    out = tmp_path / "bad"
    rc = main(["residual-sweep", "--config", str(cfg_path), "--out", str(out)]
              + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_bo_modes_not_a_power_of_two_is_named(via_config, tmp_path, capsys):
    # the surrogate grid's own refusal named its size n, not the field
    if via_config:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bo_modes": 500}))
        argv = ["validate", "--config", str(cfg_path), "--dry-run"]
    else:
        argv = ["validate", "--bo-modes", "500", "--dry-run"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bo_modes must be a power of two of at "
                            "least 8, got 500\n")


def test_config_file_unknown_field(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1.8, "wibble": 3}))
    rc = main(["validate", "--config", str(cfg_path), "--dry-run"])
    assert rc == 1
    assert "wibble" in capsys.readouterr().err


def test_sweep_flags_name_config_fields():
    # a sweep flag reaches the run only as the config field of its own name,
    # so a flag left without a field would be ignored silently
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    allowed = ({f.name for f in dataclasses.fields(ValidationConfig)}
               | {"config", "out", "dry_run"})
    for command in ("validate", "residual-sweep"):
        dests = {a.dest for a in sub.choices[command]._actions
                 if a.dest != "help"}
        assert dests <= allowed, (command, sorted(dests - allowed))


def test_sweep_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "dry"
    rc = main(["residual-sweep", "--alpha", "2.0", "--dry-run",
               "--out", str(out)] + _SWEEP_ARGS)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline"] == "residual"
    assert [entry["N"] for entry in payload["plan"]] == [256, 320, 410]
    assert not out.exists()


def test_domain_error_exit_code(capsys):
    rc = main(["validate", "--alpha", "3.5", "--dry-run"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "residual-sweep"])
def test_non_coercive_alpha_exits_before_any_work(command, tmp_path, capsys,
                                                  monkeypatch):
    # alpha 1.4 lies below alpha* ~ 1.479: the config is refused with exit
    # code 1, before the surrogate or any sweep runs and before any output
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("make_alpha_params", "run_validation", "run_residual_sweep"):
        monkeypatch.setattr(harness, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)
    out = tmp_path / "low"
    rc = main([command, "--alpha", "1.4", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha* = 1.4788" in err
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
def test_unstable_lattice_dt_exits_before_any_work(dry_run, tmp_path, capsys,
                                                   monkeypatch):
    # --lattice-dt 0.8 plans dt 0.625 at eps 0.1414 and 0.714 at eps 0.05,
    # past 0.9 pi / omega_max (0.573 at alpha 2): the run is refused with
    # exit code 1 before the surrogate solve, where it used to exit 0 with
    # an energy drift of 3e25 and a nu slope of -40
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "run_to", refuse)
    out = tmp_path / "unstable"
    argv = ["validate", "--alpha", "2.0", "--epsilons", "0.1414,0.1,0.05",
            "--lattice-dt", "0.8", "--out", str(out)]
    rc = main(argv + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "stability limit" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("command,flag,value", [
    ("validate", "--lattice-dt", "inf"),
    ("validate", "--tau0", "inf"),
    ("validate", "--period", "inf"),
    ("residual-sweep", "--residual-cutoff-coef", "inf"),
    ("validate", "--amplitude", "0"),
    ("residual-sweep", "--amplitude", "nan"),
    ("validate", "--jobs", "0"),
    ("residual-sweep", "--jobs", "2"),
])
def test_non_finite_sweep_settings_exit_before_any_work(
        command, flag, value, dry_run, tmp_path, capsys, monkeypatch):
    # these died with a ZeroDivisionError or OverflowError traceback, or
    # (amplitude 0) ran every epsilon before failing the fit; a sweep runs
    # its epsilons serially, and --jobs 2 once ran them in a process pool
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "run_to", refuse)
    out = tmp_path / "bad"
    rc = main([command, "--alpha", "2.0", flag, value, "--out", str(out)]
              + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert flag[2:].replace("-", "_") in captured.err
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("value", [5, ["runs"]])
@pytest.mark.parametrize("command", ["residual-sweep", "validate"])
def test_config_file_output_not_a_name_exits_before_any_work(
        command, value, dry_run, tmp_path, capsys, monkeypatch):
    # {"output": 5} passed the dry run (exit 0), and the run computed every
    # epsilon before os.makedirs died with a TypeError traceback (exit 1)
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "run_to", refuse)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output": value}))
    rc = main([command, "--config", str(cfg_path), "--epsilons",
               "0.4,0.32,0.25", "--bo-modes", "256"] + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output must be a directory name, got "
                            f"{value!r}\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("command", ["residual-sweep", "validate"])
def test_two_epsilons_on_one_ring_exit_before_any_work(
        command, dry_run, tmp_path, capsys, monkeypatch):
    # 0.1001 and 0.1 both snap to the 1024-site ring: the run used to sweep
    # every epsilon before its fit refused them, and the dry run listed the
    # ring twice
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "run_to", refuse)
    out = tmp_path / "shared"
    rc = main([command, "--alpha", "2.0", "--epsilons", "0.2,0.1414,0.1001,0.1",
               "--out", str(out)] + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert all(s in captured.err for s in ("0.1001", "0.1 ", "N = 1024"))
    assert not out.exists()


_SMALL_CHAIN = ["simulate-lattice", "--alpha", "2.0", "--epsilon", "0.4",
                "--period", "12.8", "--cutoff", "15"]


def _refused_simulate_lattice(argv, dry_run, tmp_path, capsys):
    # the dry run refuses what the run refuses: exit 1, nothing printed or
    # written
    out = tmp_path / "lat"
    rc = main(_SMALL_CHAIN + argv + ["--out", str(out)]
              + ["--dry-run"] * dry_run)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return captured.err


@pytest.mark.parametrize("argv, name, value", [
    (["--epsilon", "nan"], "epsilon", "nan"),
    (["--epsilon", "0"], "epsilon", "0.0"),
    (["--epsilon", "-0.4"], "epsilon", "-0.4"),
    (["--period", "inf"], "period", "inf"),
    (["--period", "nan"], "period", "nan"),
    (["--dt", "nan"], "dt", "nan"),
    (["--dt", "inf"], "dt", "inf")])
@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_a_bad_ring(dry_run, argv, name, value,
                                             tmp_path, capsys):
    # nan once failed converting NaN to an integer, 0 raised
    # ZeroDivisionError and an infinite period OverflowError, each with a
    # traceback, and -0.4 gave "a ring of only -32 sites"; a dt of nan or inf
    # was refused as past the split step's stability limit
    err = _refused_simulate_lattice(["--steps", "4"] + argv, dry_run,
                                    tmp_path, capsys)
    assert err == f"error: {name} must be finite and positive, got {value}\n"


@pytest.mark.parametrize("argv, ring", [
    (["--alpha", "2", "--epsilon", "1e-300", "--period", "1e10"],
     "epsilon 1e-300 and period 10000000000.0 give a ring of N = inf sites"),
    (["--epsilon", "1e-9", "--period", "102.4"],
     "epsilon 1e-09 and period 102.4 give a ring of N = 1.024e+11 sites")])
@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_a_ring_too_large(dry_run, argv, ring,
                                                   tmp_path, capsys):
    # period/eps overflowing to inf once raised OverflowError with a
    # traceback, and 1e11 sites died allocating 381 GiB
    err = _refused_simulate_lattice(["--steps", "4"] + argv, dry_run,
                                    tmp_path, capsys)
    assert err == (f"error: {ring}, past the largest, "
                   f"{harness.MAX_RING}\n")


@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_an_unstable_dt(dry_run, tmp_path, capsys):
    err = _refused_simulate_lattice(["--steps", "4", "--dt", "1.0"], dry_run,
                                    tmp_path, capsys)
    assert "stability limit" in err


@pytest.mark.parametrize("every", ["0", "-1"])
@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_a_negative_trace_every(dry_run, every,
                                                         tmp_path, capsys):
    # a negative interval once stepped the chain backwards in a loop that
    # never ended, and 0 was taken as unset; run_steps refuses both
    err = _refused_simulate_lattice(["--steps", "4", "--trace-every", every],
                                    dry_run, tmp_path, capsys)
    assert "every must be at least 1" in err


@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_negative_steps(dry_run, tmp_path, capsys):
    # --steps -3 once wrote a one-state trajectory with "steps": -3
    err = _refused_simulate_lattice(["--steps", "-3"], dry_run, tmp_path,
                                    capsys)
    assert "nsteps must be at least 0" in err


# ---------------------------------------------------------------------------
# dispatch


def test_unknown_subcommand_exit_code(capsys):
    rc = main(["frobnicate"])
    assert rc == 1
    assert "usage:" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    rc = main([])
    assert rc == 1
    assert "usage:" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_config_fingerprint_is_order_insensitive():
    a = config_fingerprint({"x": 1, "y": [1, 2]})
    b = config_fingerprint({"y": [1, 2], "x": 1})
    assert a == b
    assert a != config_fingerprint({"x": 2, "y": [1, 2]})


@pytest.mark.parametrize("flag, value, name", _BAD_PROFILES)
@pytest.mark.parametrize("dry_run", [False, True])
def test_simulate_lattice_refuses_a_bad_profile(dry_run, flag, value, name,
                                                tmp_path, capsys):
    # a zero width once raised ZeroDivisionError with a traceback, a
    # negative one ran as its magnitude, and a NaN wrote an all-NaN
    # trajectory and NaN energies, which are not JSON
    err = _refused_simulate_lattice(["--steps", "4", flag, value], dry_run,
                                    tmp_path, capsys)
    assert err.startswith(f"error: {name} must be finite")
