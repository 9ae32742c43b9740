"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process runs one workload as a
closed loop, one command at a time, through artifact.cli.main: rounds of
the workload's commands, untraced, until S seconds have passed (at least
one round).  Setup is timed separately in fresh processes.  After the
timed rounds the outputs are checked.  With --trace 1 the run does one
untraced round and then one traced round, and reports per-layer figures
and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run also writes its details, with the
sha256 of every output CSV, to .perfbench/results/, and with --trace 1 its
spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

RATE_METRICS = {"chain": "chain_site_steps_per_s",
                "residual": "residual_pair_terms_per_s",
                "surrogate": "surrogate_mode_steps_per_s"}

_SETUP_CODE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import workloads
workloads.build({name!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Round:
    """One round: per command its exit code, wall time and parsed summary."""

    directory: str
    codes: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    output_bytes: int = 0

    def path(self, *parts):
        return os.path.join(self.directory, *parts)

    @property
    def run_s(self):
        return sum(self.walls.values())


def measure_setup(name, seed):
    """Seconds to import artifact and build the workload's parameters and
    configurations, in a fresh interpreter; median of SETUP_SAMPLES."""
    code = _SETUP_CODE.format(src=SRC, here=HERE, name=name, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _last_json(text):
    # the CLI prints one indented JSON summary; NaN stays NaN for the checks
    start = text.rfind("\n{")
    start = 0 if start < 0 else start + 1
    try:
        return json.loads(text[start:]) if text.strip() else {}
    except json.JSONDecodeError:
        return {}


def run_round(plan, directory):
    """Run the plan's commands one after another, timing each."""
    import artifact.cli
    import workloads
    os.makedirs(directory)
    workloads.prepare(plan, directory)
    rnd = Round(directory)
    for cmd in plan.commands:
        argv = [a.format(round=directory) for a in cmd.argv]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = artifact.cli.main(argv)
        except Exception:             # a crash counts as a failed command
            traceback.print_exc()
            code = None
        rnd.walls[cmd.label] = time.perf_counter() - t0
        rnd.codes[cmd.label] = code
        rnd.summaries[cmd.label] = _last_json(buf.getvalue())
    for base, _, files in os.walk(directory):
        for f in files:
            path = os.path.join(base, f)
            rel = os.path.relpath(path, directory)
            if rel == "init.csv":         # the benchmark's input, not an output
                continue
            rnd.output_bytes += os.path.getsize(path)
            if f.endswith(".csv"):
                with open(path, "rb") as fh:
                    rnd.digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return rnd


def rates(plan, rnd):
    """Work of each kind over the wall time of the commands doing it; 0 for
    a kind the workload does not do."""
    out = {}
    for kind, metric in RATE_METRICS.items():
        cmds = [c for c in plan.commands if c.kind == kind]
        wall = sum(rnd.walls[c.label] for c in cmds)
        out[metric] = sum(c.work for c in cmds) / wall if cmds else 0.0
    return out


def layer_metrics(tracer, rnd_traced, rnd_plain, names):
    """Per-layer figures from the traced round, by BENCHMARK.json name, and
    the tracing overhead against the untraced round."""
    import tracing
    summary = tracer.summary()
    span_cost, count_cost = tracing.unit_costs()

    def get(key, stat):
        return float(summary[key][stat]) if key in summary else 0.0

    m = {
        "specfun.make_alpha_params.s": get("specfun.make_alpha_params", "s"),
        "bo_solver.run_to.s": get("bo_solver.run_to", "s"),
        "bo_solver.rk4_steps": get("bo_solver.run_to", "rk4_steps"),
        "lattice.run_steps.s": get("lattice.run_steps", "s"),
        "lattice.run_steps.user_s": get("lattice.run_steps", "user_s"),
        "lattice.run_steps.sys_s": get("lattice.run_steps", "sys_s"),
        "lattice.run_steps.minor_faults": get("lattice.run_steps", "minor_faults"),
        "lattice.energy.s": get("lattice.energy", "s"),
        "harness.residual_fields.s": get("harness.residual_fields", "s"),
        "harness.residual_fields.calls": get("harness.residual_fields", "calls"),
        "harness.residual_fields.ffts": get("harness.residual_fields", "ffts"),
        "harness.residual_fields.user_s": get("harness.residual_fields", "user_s"),
        "harness.residual_fields.sys_s": get("harness.residual_fields", "sys_s"),
        "harness.residual_fields.minor_faults": get("harness.residual_fields", "minor_faults"),
        "spectral.average_multiplier.s": get("spectral.average_multiplier", "s"),
        "spectral.average_multiplier.calls": get("spectral.average_multiplier", "calls"),
        "harness.ansatz_fields.s": get("harness.ansatz_fields", "s"),
        "spectral.sample_spectrum.s": get("spectral.sample_spectrum", "s"),
        "harness.run_validation.self_s": get("harness.run_validation", "self_s"),
        "harness.run_residual_sweep.self_s": get("harness.run_residual_sweep", "self_s"),
        "harness.write_outputs.s": get("harness.write_outputs", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.output_bytes": float(rnd_traced.output_bytes),
        "trace.overhead_s": rnd_traced.run_s - rnd_plain.run_s,
        "trace.overhead_frac": rnd_traced.run_s / rnd_plain.run_s - 1.0,
        "trace.spans": float(len(tracer.spans)),
        "trace.est_overhead_s": len(tracer.spans) * span_cost + tracer.fft_calls * count_cost,
        "numpy.fft.calls": float(tracer.fft_calls),
    }
    mode_steps = get("bo_solver.run_to", "mode_steps")
    m["bo_solver.us_per_mode_step"] = (1e6 * m["bo_solver.run_to.s"] / mode_steps
                                       if mode_steps else 0.0)
    for name in names:
        for prefix, span in (("lattice.force.", "lattice.force@"),
                             ("harness.residual_fields.ms_per_call.",
                              "harness.residual_fields@")):
            if name in m or not name.startswith(prefix):
                continue
            rest = name[len(prefix):]
            stat, key = rest.split(".", 1) if "." in rest else ("ms_per_call", rest)
            calls = get(span + key, "calls")
            m[name] = {"calls": calls,
                       "pair_terms": get(span + key, "pairs"),
                       "ms_per_call": 1e3 * get(span + key, "s") / calls if calls else 0.0}[stat]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import artifact
    if not os.path.abspath(artifact.__file__).startswith(SRC + os.sep):
        print(f"error: artifact imported from {artifact.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads
    from artifact.cli import _versions

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(STATE, f"work-{os.getpid()}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    plan = workloads.build(args.workload, args.seed)
    tracer = None
    rounds = []
    try:
        if args.trace:
            rounds.append(run_round(plan, os.path.join(work, "round1")))
            tracer = tracing.Tracer(tag)
            tracer.install()
            try:
                traced_plan = workloads.build(args.workload, args.seed)
                rounds.append(run_round(traced_plan, os.path.join(work, "round2")))
            finally:
                tracer.uninstall()
        else:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(plan, os.path.join(work, f"round{len(rounds) + 1}")))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        inputs = workloads.check_inputs(plan)
        failures = []
        for k, rnd in enumerate(rounds, start=1):
            try:
                fails = workloads.check(plan, rnd, inputs)
            except (OSError, ValueError, KeyError, IndexError) as err:
                fails = [f"outputs missing or malformed: {err!r}"]
            failures += [f"round {k}: {f}" for f in fails]
        failures += checks.check_digests([rnd.digests for rnd in rounds])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(rnd.codes) for rnd in rounds)
    failed = sum(1 for rnd in rounds for c in rnd.codes.values() if c != 0)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(tracer, rounds[1], rounds[0], names)
        values.update(rates(plan, rounds[0]))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        tracer.write(os.path.join(STATE, "traces", tag + ".json"))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib,
                  "run_s": statistics.median(rnd.run_s for rnd in rounds)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = sorted(set(names) - set(values))
    if missing:
        failures.append(f"metrics not measured: {missing}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "versions": _versions(), "nproc": os.cpu_count(),
                   "rounds": [{"codes": r.codes, "walls": r.walls, "digests": r.digests,
                               "output_bytes": r.output_bytes} for r in rounds],
                   "failures": failures, "metrics": metrics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
