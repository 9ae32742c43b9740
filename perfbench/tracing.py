"""Span tracing installed from outside the package.

Tracer.install puts a timing wrapper on each module attribute that callers
look up at call time (for example artifact.harness.run_steps, which
run_validation calls, and artifact.cli.run_steps, which simulate-lattice
calls), and a counter on numpy.fft.fft/ifft.  Spans stay in memory as
(name, start, end, parent, attributes) under the run's id and are written
out once, when the run ends.  Nothing is installed in an untraced run.
"""

from __future__ import annotations

import json
import math
import resource
import time
from collections import defaultdict

import numpy as np


def _force_attrs(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["config"]
    return {"key": f"N{cfg.N}_M{cfg.cutoff}", "pairs": cfg.N * cfg.cutoff}


def _residual_attrs(args, kwargs):
    u_tau, eps = args[0], args[1]
    return {"key": f"N{int(round(u_tau.grid.period / eps))}"}


def _run_to_attrs(args, kwargs):
    # IF-RK4 steps run_to takes: one integer step count per span between
    # the start, the interior checkpoints and the end
    state, tau_end, cfg = args[0], args[1], args[2]
    gap = tau_end - state.tau
    steps = 0
    if gap != 0.0:
        d = 1.0 if gap > 0 else -1.0
        inside = sorted((t for t in cfg.t_checkpoint
                         if (t - state.tau) * d > 0 and (tau_end - t) * d > 0),
                        reverse=d < 0)
        tau = state.tau
        for target in inside + [tau_end]:
            steps += max(1, math.ceil(abs(target - tau) / cfg.dtau - 1e-9))
            tau = target
    return {"rk4_steps": steps, "mode_steps": steps * state.u.grid.n}


# (module, attribute, span name, attribute function, take rusage deltas)
TARGETS = (
    ("artifact.cli", "main", "cli.main", None, False),
    ("artifact.specfun", "make_alpha_params", "specfun.make_alpha_params", None, False),
    ("artifact.cli", "make_alpha_params", "specfun.make_alpha_params", None, False),
    ("artifact.harness", "make_alpha_params", "specfun.make_alpha_params", None, False),
    ("artifact.cli", "run_to", "bo_solver.run_to", _run_to_attrs, False),
    ("artifact.harness", "run_to", "bo_solver.run_to", _run_to_attrs, False),
    ("artifact.cli", "run_steps", "lattice.run_steps", None, True),
    ("artifact.harness", "run_steps", "lattice.run_steps", None, True),
    ("artifact.lattice", "force", "lattice.force", _force_attrs, False),
    ("artifact.cli", "energy", "lattice.energy", None, False),
    ("artifact.cli", "run_validation", "harness.run_validation", None, False),
    ("artifact.cli", "run_residual_sweep", "harness.run_residual_sweep", None, False),
    ("artifact.harness", "residual_fields", "harness.residual_fields", _residual_attrs, True),
    ("artifact.harness", "ansatz_fields", "harness.ansatz_fields", None, False),
    ("artifact.harness", "average_multiplier", "spectral.average_multiplier", None, False),
    ("artifact.harness", "sample_spectrum", "spectral.sample_spectrum", None, False),
    ("artifact.harness", "write_residual_outputs", "harness.write_outputs", None, False),
    ("artifact.harness", "write_validation_outputs", "harness.write_outputs", None, False),
)


class Tracer:
    """Records spans and FFT counts while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []           # [name, start, end, parent, attrs]
        self._stack = []
        self.fft_calls = 0
        self._saved = []

    def _wrap(self, orig, name, attr_fn, rusage):
        spans, stack = self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = attr_fn(args, kwargs) if attr_fn else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            fft0 = tracer.fft_calls
            ru0 = resource.getrusage(resource.RUSAGE_SELF) if rusage else None
            span[1] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if ru0 is not None:
                    ru1 = resource.getrusage(resource.RUSAGE_SELF)
                    attrs["user_s"] = ru1.ru_utime - ru0.ru_utime
                    attrs["sys_s"] = ru1.ru_stime - ru0.ru_stime
                    attrs["minor_faults"] = ru1.ru_minflt - ru0.ru_minflt
                    attrs["ffts"] = tracer.fft_calls - fft0

        wrapper.__wrapped__ = orig
        return wrapper

    def _count(self, orig):
        tracer = self

        def counted(*args, **kwargs):
            tracer.fft_calls += 1
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        return counted

    def install(self):
        import importlib
        for modname, attr, name, attr_fn, rusage in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, attr_fn, rusage))
        for attr in ("fft", "ifft"):
            orig = getattr(np.fft, attr)
            self._saved.append((np.fft, attr, orig))
            setattr(np.fft, attr, self._count(orig))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self):
        """Per-name totals: s (inclusive), self_s, calls, and the sums of
        every numeric span attribute, the latter also per attribute key."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            dur = end - start
            for agg in (out[name], out[f"{name}@{attrs['key']}"] if "key" in attrs else None):
                if agg is None:
                    continue
                agg["s"] += dur
                agg["self_s"] += dur - child_time[i]
                agg["calls"] += 1
                for k, v in attrs.items():
                    if k != "key":
                        agg[k] += v
        return out


def unit_costs(n=20000):
    """Seconds one span and one counted FFT call add, timed on a no-op;
    times the span and FFT counts they estimate the tracing overhead
    without the run-to-run noise of the traced-minus-untraced figure."""
    def noop():
        return None

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    probe = Tracer("calibration")
    base = per_call(noop)
    return (per_call(probe._wrap(noop, "noop", None, False)) - base,
            per_call(probe._count(noop)) - base)
