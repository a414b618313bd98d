"""Spans around the calls into each chemoflow layer, for the traced run.

`install(tracer)` replaces the names that `chemoflow.solver`,
`chemoflow.cli` and `chemoflow.analysis` resolve at call time with
wrappers that record a span (name, start, end, parent) per call; the
program's source is untouched and an untraced process never installs
them.  Spans stay in memory until the sample ends.  `layer_metrics`
turns them into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time

# operators report seconds and calls; the groups below sum several spans
OPERATOR_SPANS = (
    "taxis_face_velocity", "advect_scalar", "taxis_flux_div", "advect_velocity",
    "helmholtz", "project", "poisson_solve",
)
ANALYSIS_GROUPS = {
    "analysis.log_hessian_s": ("analysis.log_hessian",),
    "analysis.trudinger_s": ("analysis.trudinger.gap", "analysis.trudinger.calibrate"),
    "analysis.sublevel_s": ("analysis.sublevel.gap", "analysis.sublevel.calibrate"),
    "analysis.poincare_s": ("analysis.poincare.gap", "analysis.poincare.calibrate"),
    "analysis.ode_envelope_s": ("analysis.ode_envelope",),
    "analysis.recursion_s": ("analysis.recursion",),
    "analysis.corpus_s": ("analysis.corpus",),
    "analysis.calibrate_s": ("analysis.trudinger.calibrate", "analysis.sublevel.calibrate",
                             "analysis.poincare.calibrate"),
    "analysis.holdout_s": ("analysis.trudinger.gap", "analysis.sublevel.gap",
                           "analysis.poincare.gap"),
}
TIMED_SPANS = {
    "config.parse_s": "config.parse",
    "model.build_truncations_s": "model.build_truncations",
    "operators.poisson_init_s": "operators.poisson_init",
    "solver.step_s": "solver.step",
    "solver.diffuse_n_s": "solver.diffuse_n",
    "diagnostics.record_s": "diagnostics.record",
    "diagnostics.envelope_s": "diagnostics.envelope",
    "io.emit_snapshot_s": "io.emit_snapshot",
    "io.emit_timeseries_s": "io.emit_timeseries",
    "io.write_s": "io.write",
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {
            "steps": 0, "substeps": 0, "clamped_mass": 0.0,
            "diffusion_number_max": 0.0, "bytes_written": 0,
        }
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` with a span named `name` around each call.

        `before(args)` and `after(result)` update counters outside the
        span, so their own cost shows as overhead, not as layer time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for name, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [(e - s) - _covered(children[i], s, e) for i, (_, s, e, _) in enumerate(spans)]


def coverage(spans, lo: float, hi: float) -> float:
    """Share of [lo, hi] that top-level spans cover."""
    if hi <= lo:
        return 0.0
    return _covered([(s, e) for _, s, e, parent in spans if parent < 0], lo, hi) / (hi - lo)


def layer_metrics(tracer: Tracer, window: tuple) -> dict:
    """Per-layer metrics of one traced sample; `window` is its wall interval."""
    spans = tracer.spans
    selfs = self_times(spans)
    total, calls, self_total = {}, {}, {}
    for (name, s, e, _), st in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (e - s)
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + st

    c = tracer.counters
    out = {key: total.get(name, 0.0) for key, name in TIMED_SPANS.items()}
    for op in OPERATOR_SPANS:
        out[f"operators.{op}_s"] = total.get(f"operators.{op}", 0.0)
        out[f"operators.{op}_calls"] = calls.get(f"operators.{op}", 0)
    for key, names in ANALYSIS_GROUPS.items():
        out[key] = sum(total.get(n, 0.0) for n in names)
    out["solver.steps"] = c["steps"]
    out["solver.substeps"] = c["substeps"]
    out["solver.substeps_per_step"] = c["substeps"] / c["steps"] if c["steps"] else 0.0
    out["solver.step_self_s"] = self_total.get("solver.step", 0.0)
    out["solver.diffuse_n_us_per_substep"] = (
        1e6 * out["solver.diffuse_n_s"] / c["substeps"] if c["substeps"] else 0.0)
    out["solver.diffusion_number_max"] = c["diffusion_number_max"]
    out["solver.clamped_mass"] = c["clamped_mass"]
    out["diagnostics.records"] = calls.get("diagnostics.record", 0)
    out["io.bytes_written"] = c["bytes_written"]
    out["trace.coverage"] = coverage(spans, *window)
    return out


def install(tracer: Tracer):
    """Wrap every layer entry point the CLI, solver and analysis call."""
    import pathlib

    import numpy as np

    from chemoflow import analysis, cli, model, operators, solver

    w = tracer.wrap
    c = tracer.counters

    cli.parse_config = w("config.parse", cli.parse_config)
    cli.build_truncations = w("model.build_truncations", cli.build_truncations)
    poisson_cls = cli.PoissonSolver
    cli.PoissonSolver = w("operators.poisson_init", lambda *a, **k: poisson_cls(*a, **k))
    cli.record = w("diagnostics.record", cli.record)
    cli.functional_envelope = w("diagnostics.envelope", cli.functional_envelope)
    cli.emit_snapshot = w("io.emit_snapshot", cli.emit_snapshot)
    cli.emit_timeseries = w("io.emit_timeseries", cli.emit_timeseries)

    def count_bytes(args):
        data = args[1]
        c["bytes_written"] += len(data.encode() if isinstance(data, str) else data)

    pathlib.Path.write_text = w("io.write", pathlib.Path.write_text, before=count_bytes)
    pathlib.Path.write_bytes = w("io.write", pathlib.Path.write_bytes, before=count_bytes)

    def count_step(result):
        info = result[1]
        c["steps"] += 1
        c["substeps"] += info.substeps
        c["clamped_mass"] += info.clamped_mass

    def diffusion_number(args):
        nv, spec, dt_sub, _substeps, g = args
        d = dt_sub * float(np.max(model.eval_D_eps(nv, spec))) * (2 / g.hx**2 + 2 / g.hy**2)
        c["diffusion_number_max"] = max(c["diffusion_number_max"], d)

    solver._step_impl = w("solver.step", solver._step_impl, after=count_step)
    solver._diffusion_substeps = w("solver.diffuse_n", solver._diffusion_substeps,
                                   before=diffusion_number)
    for op in ("taxis_face_velocity", "advect_scalar", "taxis_flux_div", "advect_velocity",
               "project"):
        setattr(solver, op, w(f"operators.{op}", getattr(solver, op)))
    ps = operators.PoissonSolver
    for meth in ("helmholtz_cells", "helmholtz_ux", "helmholtz_uy"):
        setattr(ps, meth, w("operators.helmholtz", getattr(ps, meth)))
    ps.solve = w("operators.poisson_solve", ps.solve)

    analysis.FieldCorpus.pairs = w("analysis.corpus", analysis.FieldCorpus.pairs)
    for attr, name in (
        ("log_hessian_identity_residual", "analysis.log_hessian"),
        ("trudinger_gap", "analysis.trudinger.gap"),
        ("_min_constant_trudinger", "analysis.trudinger.calibrate"),
        ("trudinger_sublevel_gap", "analysis.sublevel.gap"),
        ("_min_constant_sublevel", "analysis.sublevel.calibrate"),
        ("poincare_subset_gap", "analysis.poincare.gap"),
        ("_min_constant_poincare", "analysis.poincare.calibrate"),
        ("_ode_trajectory_margin", "analysis.ode_envelope"),
        ("mk_limit_check", "analysis.recursion"),
    ):
        setattr(analysis, attr, w(name, getattr(analysis, attr)))
