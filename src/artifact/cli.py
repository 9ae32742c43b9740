"""Command line entry point.

Subcommands map one-to-one onto the library surface:

  constants        derived coefficient set for one exponent, as JSON
  alpha-star       root of the interaction-sum gap
  eta-rates        window-constant quadrature error against step size
  solve-bo         integrate the dispersive surrogate, dump trace and field
  simulate-lattice evolve the particle chain, dump trajectory and drift stats
  residual-sweep   ansatz residual norms across an epsilon sweep, with fit
  validate         lattice-versus-surrogate error sweep, with fit

Exit codes: 0 success, 1 domain or configuration error, 2 numerical blow-up
(with the failing alpha, epsilon, time identified on standard error).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import sys
import warnings
from dataclasses import asdict, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bo_solver import (BOConfig, BOState, BlowUpError, gaussian_profile,
                        run_to, span_plan)
from .harness import (DEFAULT_VALIDATION_AMPLITUDE, ConfigError,
                      ValidationConfig, _fmt, _fmt_column, _ring_size,
                      ansatz_fields, describe_plan, run_residual_sweep,
                      run_validation, sweep_files, write_json,
                      write_rows_csv)
from .lattice import (LatticeConfig, LatticeState, check_steps, energy,
                      run_steps)
from .specfun import (eta_integral, eta_riemann, find_alpha_star,
                      make_alpha_params)
from .spectral import PeriodicGrid, sobolev_norm, write_field_binary

DEFAULT_H_LIST = (0.4, 0.2, 0.1, 0.05, 0.025)


# keys that change where or how a run executes without changing its numbers
_EXECUTION_KEYS = frozenset({"out", "output", "jobs", "dry_run"})


def config_fingerprint(config) -> str:
    """sha256 of the canonical JSON encoding; stable across reruns.

    Execution-only keys (output paths, worker counts) are excluded so the
    same numerical configuration hashes identically wherever it runs.
    """
    if isinstance(config, dict):
        config = {k: v for k, v in config.items() if k not in _EXECUTION_KEYS}
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _versions() -> dict:
    import scipy
    return {
        "artifact": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def write_manifest(outdir, command, config, outputs):
    """Reproducibility record dropped next to every output set."""
    write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "config_sha256": config_fingerprint(config),
        "versions": _versions(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    })


def _args_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for
    numerical blow-up, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_floats(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _resolve_out(out, command, default_name):
    """--out may be a directory or (for file-producing commands) a .csv path."""
    if out is None:
        out = os.path.join("runs", command)
    if out.endswith(".csv"):
        outdir = os.path.dirname(out) or "."
        return outdir, out
    return out, os.path.join(out, default_name)


def _write_out(args, command, name, payload) -> None:
    """With --out, write payload as <out>/<name> beside a manifest."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        write_json(path, payload)
        write_manifest(args.out, command, _args_config(args), [path])


# ---------------------------------------------------------------------------
# small computations


def cmd_constants(args) -> int:
    if args.dry_run:
        _emit({"command": "constants", "alpha": args.alpha})
        return 0
    params = make_alpha_params(args.alpha)
    payload = asdict(params)
    _emit(payload)
    _write_out(args, "constants", "constants.json", payload)
    return 0


def cmd_alpha_star(args) -> int:
    if args.dry_run:
        _emit({"command": "alpha-star"})
        return 0
    root = find_alpha_star()
    print(repr(root))
    _write_out(args, "alpha-star", "alpha_star.json", {"alpha_star": root})
    return 0


def cmd_eta_rates(args) -> int:
    if args.dry_run:
        _emit({"command": "eta-rates", "alpha": args.alpha,
               "h_list": list(args.h_list)})
        return 0
    eta = eta_integral(args.alpha)
    rows = []
    for h in args.h_list:
        val = eta_riemann(args.alpha, h)
        rows.append((h, val, abs(val - eta)))
    lines = ["h,eta_h,abs_err"]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    print("\n".join(lines))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "eta_rates.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        write_manifest(args.out, "eta-rates", _args_config(args), [path])
    return 0


# ---------------------------------------------------------------------------
# solvers


def cmd_solve_bo(args) -> int:
    k = args.checkpoints
    if k < 0:
        raise ConfigError(f"--checkpoints must be at least 0, got {k}")
    params = make_alpha_params(args.alpha)
    grid = PeriodicGrid(args.period, args.n)
    taus = tuple(i * args.tau_end / (k + 1) for i in range(1, k + 1))
    cfg = BOConfig(params=params, dtau=args.dtau, t_checkpoint=taus)
    u0 = gaussian_profile(grid, args.amplitude, args.width_fraction)
    if args.dry_run:
        steps = sum(n for _, n in span_plan(0.0, args.tau_end, cfg))
        _emit({"command": "solve-bo", "n": args.n, "period": args.period,
               "dtau": args.dtau, "tau_end": args.tau_end, "steps": steps,
               "checkpoints": list(taus)})
        return 0
    states = [BOState(u=u0, tau=0.0)]
    states += run_to(states[0], args.tau_end, cfg)
    trace = [(s.tau, s.u.mean(), sobolev_norm(s.u, 0.0),
              sobolev_norm(s.u, 6.0)) for s in states]
    state = states[-1]
    outdir, trace_path = _resolve_out(args.out, "solve-bo", "trace.csv")
    os.makedirs(outdir, exist_ok=True)
    write_rows_csv(trace_path, ("tau", "mean", "l2", "h6"), trace)
    field_csv = os.path.join(outdir, "bo_final.csv")
    field_bin = os.path.join(outdir, "bo_final.bin")
    write_rows_csv(field_csv, ("X", "value"),
                   zip(state.u.grid.nodes, state.u.values))
    write_field_binary(state.u, field_bin)
    write_manifest(outdir, "solve-bo", _args_config(args),
                   [trace_path, field_csv, field_bin])
    l2_initial = trace[0][2]
    l2_final = trace[-1][2]
    _emit({"tau": state.tau, "l2_initial": l2_initial, "l2_final": l2_final,
           "l2_drift": abs(l2_final - l2_initial), "trace": trace_path})
    return 0


def _init_cell(text) -> float:
    """A cell of a --init file as a float, NaN where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _load_lattice_csv(path):
    """(r, p) of a --init CSV: the header, read with csv, names r and p and
    may name t and j; the N rows of the last t, sorted by j, whose j must be
    0 ... N-1 once each, no j of the file past N-1.  np.loadtxt reads the
    named columns alone, a cell that is not a number as NaN; a file with
    no rows is refused.

    The header is the line np.genfromtxt(names=True) took: the first that
    is not blank once the '#' characters and whatever precedes the first
    of them are dropped, so that np.savetxt's '# t,j,r,p' reads as t,j,r,p."""
    header, skip = [], 0
    with open(path, newline="") as fh:
        for skip, line in enumerate(fh, 1):
            if "#" in line:
                line = "".join(line.split("#")[1:])
            if line.strip():
                header = [name.strip() for name in next(csv.reader([line]))]
                break
    if not {"r", "p"} <= set(header):
        raise ConfigError(f"{path} must have a CSV header with r and p columns")
    names = list(dict.fromkeys(name for name in header
                               if name in ("t", "j", "r", "p")))
    with warnings.catch_warnings():
        # a file of the header alone is refused below, naming the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2,
                          usecols=[header.index(name) for name in names],
                          converters=_init_cell)
    if not len(data):
        raise ConfigError(f"{path} has a header but no rows")
    at = {name: i for i, name in enumerate(names)}
    top = np.max(data[:, at["j"]], initial=-1.0) if "j" in at else 0.0
    if "t" in at:
        t = data[:, at["t"]]
        data = data[t == t.max()]
    if "j" in at:
        data = data[np.argsort(data[:, at["j"]])]
        if not (np.array_equal(data[:, at["j"]], np.arange(len(data)))
                and top < len(data)):
            raise ConfigError(f"{path}: the j of the last snapshot's N rows "
                              "must be 0 ... N-1 once each, none past N-1")
    return data[:, at["r"]], data[:, at["p"]]


def cmd_simulate_lattice(args) -> int:
    params = make_alpha_params(args.alpha)
    eps = None
    if args.init:
        r, p = _load_lattice_csv(args.init)
        N = r.size
    else:
        if args.epsilon is None:
            raise ConfigError("either --init or --epsilon is required")
        N, eps = _ring_size(args.period, args.epsilon)
        modes = min(512, 2 ** int(math.floor(math.log2(N))))
        amp = (args.amplitude if args.amplitude is not None
               else DEFAULT_VALIDATION_AMPLITUDE)
        u0 = gaussian_profile(PeriodicGrid(args.period, modes), amp,
                              args.width_fraction)
        r, p = ansatz_fields(u0.spectrum, args.period, N, params)
    state = LatticeState(r=r, p=p, t=0.0)
    cutoff = N // 2 - 1 if args.cutoff is None else args.cutoff
    cfg = LatticeConfig(N=N, alpha=args.alpha, cutoff=cutoff, dt=args.dt)
    every = (max(1, args.steps // 10) if args.trace_every is None
             else args.trace_every)
    if args.dry_run:
        check_steps(cfg, args.steps, every)
        _emit({"command": "simulate-lattice", "sites": N, "cutoff": cutoff,
               "dt": args.dt, "steps": args.steps, "trace_every": every,
               "epsilon": eps})
        return 0
    E0 = energy(state, cfg)
    mom0 = float(np.sum(state.p))
    states = [state, *run_steps(state, cfg, args.steps, every)]
    E1 = energy(states[-1], cfg)
    mom1 = float(np.sum(states[-1].p))
    max_r = max(float(np.max(np.abs(s.r))) for s in states)
    outdir, traj_path = _resolve_out(args.out, "simulate-lattice", "traj.csv")
    os.makedirs(outdir, exist_ok=True)
    sites = [str(j) for j in range(N)]
    write_rows_csv(traj_path, ("t", "j", "r", "p"),
                   (row for s in states for row in zip(
                       itertools.repeat(_fmt(s.t)), sites, _fmt_column(s.r),
                       _fmt_column(s.p))))
    write_manifest(outdir, "simulate-lattice", _args_config(args), [traj_path])
    _emit({"sites": N, "cutoff": cutoff, "dt": args.dt, "steps": args.steps,
           "energy_initial": E0, "energy_final": E1,
           "energy_rel_drift": abs(E1 - E0) / abs(E0) if E0 else abs(E1 - E0),
           "momentum_drift": abs(mom1 - mom0), "max_abs_r": max_r,
           "trajectory": traj_path})
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _sweep_config(args, pipeline) -> ValidationConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
        allowed = {f.name for f in fields(ValidationConfig)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    # a flag overrides the config field of its own name
    for f in fields(ValidationConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            data[f.name] = val
    if args.out is not None:
        data["output"] = args.out
    data.setdefault("output", os.path.join("runs", pipeline))
    try:
        return ValidationConfig(**data)
    except TypeError as err:
        raise ConfigError(str(err))


def _run_sweep(args, pipeline, command) -> int:
    cfg = _sweep_config(args, pipeline)
    if args.dry_run:
        _emit({"pipeline": pipeline, "plan": describe_plan(cfg, pipeline),
               "config": asdict(cfg)})
        return 0
    if pipeline == "residual":
        _, report = run_residual_sweep(cfg)
        summary = {"slope": report.slope,
                   "target_exponent": report.target_exponent,
                   "r_squared": report.r_squared,
                   "pairs": report.pairs,
                   "output": cfg.output}
    else:
        result = run_validation(cfg)
        summary = {"mu_slope": result.mu_report.slope,
                   "nu_slope": result.nu_report.slope,
                   "target_exponent": result.mu_report.target_exponent,
                   "output": cfg.output}
    write_manifest(cfg.output, command, asdict(cfg),
                   sweep_files(cfg, pipeline))
    _emit(summary)
    return 0


def cmd_residual_sweep(args) -> int:
    return _run_sweep(args, "residual", "residual-sweep")


def cmd_validate(args) -> int:
    return _run_sweep(args, "validation", "validate")


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artifact",
                     description="Long-range lattice and dispersive surrogate "
                                 "toolkit: constants, solvers, scaling sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="output directory (solve-bo/simulate-lattice also "
                             "accept a .csv path for the main table)")
    common.add_argument("--dry-run", action="store_true",
                        help="print the resolved plan without writing outputs")

    p = sub.add_parser("constants", parents=[common],
                       help="derived coefficient set for one exponent")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("alpha-star", parents=[common],
                       help="root of the interaction-sum gap")
    p.set_defaults(func=cmd_alpha_star)

    p = sub.add_parser("eta-rates", parents=[common],
                       help="window-constant quadrature error versus step size")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h-list", type=_csv_floats, default=DEFAULT_H_LIST,
                   metavar="H1,H2,...")
    p.set_defaults(func=cmd_eta_rates)

    p = sub.add_parser("solve-bo", parents=[common],
                       help="integrate the dispersive surrogate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--period", type=float, default=102.4)
    p.add_argument("--dtau", type=float, default=1e-4)
    p.add_argument("--tau-end", type=float, required=True)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--width-fraction", type=float, default=20.0)
    p.add_argument("--checkpoints", type=int, default=0,
                   help="interior monitor checkpoints")
    p.set_defaults(func=cmd_solve_bo)

    p = sub.add_parser("simulate-lattice", parents=[common],
                       help="evolve the particle chain")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cutoff", type=int,
                   help="interaction range (default the ring cap N/2 - 1)")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--init", metavar="FILE",
                   help="CSV with r and p columns (j, t optional)")
    p.add_argument("--epsilon", type=float,
                   help="long-wave ansatz scale when --init is absent")
    p.add_argument("--period", type=float, default=102.4)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--width-fraction", type=float, default=20.0)
    p.add_argument("--trace-every", type=int, metavar="K",
                   help="trajectory dump interval in steps")
    p.set_defaults(func=cmd_simulate_lattice)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--jobs", type=int, metavar="J",
                       help="worker count for per-epsilon runs")
    sweep.add_argument("--config", metavar="FILE",
                       help="JSON object with run settings; flags override")
    sweep.add_argument("--alpha", type=float)
    sweep.add_argument("--epsilons", type=_csv_floats, metavar="E1,E2,...")
    sweep.add_argument("--period", type=float)
    sweep.add_argument("--tau0", type=float)
    sweep.add_argument("--checkpoints", type=int)
    sweep.add_argument("--amplitude", type=float)
    sweep.add_argument("--width-fraction", type=float)
    sweep.add_argument("--bo-modes", type=int)
    sweep.add_argument("--lattice-dt", type=float)
    sweep.add_argument("--residual-cutoff-coef", type=float)

    p = sub.add_parser("residual-sweep", parents=[common, sweep],
                       help="ansatz residual norms across an epsilon sweep")
    p.set_defaults(func=cmd_residual_sweep)

    p = sub.add_parser("validate", parents=[common, sweep],
                       help="lattice-versus-surrogate error sweep")
    p.add_argument("--energy-trace", action=argparse.BooleanOptionalAction,
                   default=None, help="record the modified-energy diagnostic")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BlowUpError as err:
        parts = [str(err)]
        for name in ("alpha", "epsilon", "t", "tau"):
            val = getattr(err, name, None)
            if val is not None:
                parts.append(f"{name}={val}")
        print("blow-up: " + " ".join(parts), file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
