"""Command-line entry point.

Verbs:
    run           advance a configuration, writing the diagnostics CSV
                  (and snapshots when enabled); exit code 0 only if every
                  invariant monitor passed, 1 with "ERROR: step <i>: ..."
                  if a step fails, keeping what was recorded before it
    sweep-eps     Cauchy study over decreasing regularization strengths
    sweep-grid    refinement study with observed convergence orders
    verify-lemmas run the standalone inequality checks, write the report
    validate      parse + validate a configuration, print violations

For every verb, a configuration that fails validation prints
"VIOLATION: ..." lines, and any other rejected value (a ValueError), file
that cannot be read or written (an OSError) or failed step (a SolverError)
an "ERROR: ..." line on stderr, and the exit code is 1.

`main` first fixes glibc's malloc thresholds (mmap 32 MiB, trim 64 MiB,
both, as setting one switches off the dynamic pair; a no-op without
mallopt): by default freed numpy temporaries go back to the kernel, and
the next step, record or lemma check faults the same pages in again.

Each verb imports only the modules it runs: `run` and `validate` load
neither `analysis` (with the `numpy.random` it brings) nor `sweeps`.
The benchmark harness (perfbench/) replaces `run`, `run_lemma_checks`
and the layer entry points `_cmd_run` calls by name on this module
before `main` runs, so the verbs look them up in the module globals.
That is why `run_lemma_checks` is a module-level function importing
`analysis` on its first call, not a name imported inside the verb.
"""

from __future__ import annotations

import argparse
import ctypes
import pathlib
import sys

from .config import DIV_U_TOL, ConfigError, parse_config
from .diagnostics import functional_envelope, record, select_functional
from .grid import integrate
from .io import emit_snapshot, emit_timeseries, snapshot_name
from .model import build_truncations, threshold_s0
from .operators import PoissonSolver
from .solver import SolverError, run


def _hold_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library, or none with mallopt
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run_lemma_checks(corpus):
    """`analysis.run_lemma_checks`, importing `analysis` on the first call."""
    from .analysis import run_lemma_checks

    return run_lemma_checks(corpus)


def _load_config(path: str):
    text = pathlib.Path(path).read_text()
    return parse_config(text)


def _monitors(records, initial_mass: float):
    """Evaluate the always-on invariant monitors; returns list of failures."""
    failures = []
    mass_tol = 1e-10 * max(initial_mass, 1e-300)
    if any(abs(r.mass_n - initial_mass) > mass_tol for r in records):
        failures.append("mass conservation drift beyond 1e-10 relative")
    for a, b in zip(records, records[1:]):
        if b.c_max > a.c_max + 1e-12:
            failures.append("signal maximum increased beyond 1e-12")
            break
    if any(r.div_u_max > DIV_U_TOL for r in records):
        failures.append(f"incompressibility residual above {DIV_U_TOL:g}")
    if records and records[-1].clamp_mass > 1e-10 * max(initial_mass, 1e-300):
        failures.append("cumulative clamped mass above 1e-10 of initial mass")
    return failures


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    outdir = pathlib.Path(args.output or cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = cfg.spec
    table = build_truncations(spec, threshold_s0(spec))
    poisson = PoissonSolver(cfg.grid)
    initial = cfg.initial_state()
    initial_mass = integrate(initial.n)

    records = []

    def record_sink(state, clamp):
        records.append(record(state, spec, table, clamp_mass=clamp))

    def snapshot_sink(state, clamp):
        # written as recorded, so a run that fails later keeps its snapshots
        (outdir / snapshot_name(state.t)).write_bytes(emit_snapshot(state))

    sinks = [record_sink, snapshot_sink] if cfg.snapshots else [record_sink]
    error = None
    try:
        run(initial, spec, cfg.controls, poisson, sinks=sinks, cadence=cfg.cadence)
    except SolverError as exc:
        error = exc
    # written after a failed step too: the rows recorded before it remain
    (outdir / "timeseries.csv").write_text(emit_timeseries(records))
    if error is not None:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1

    functional = select_functional(spec)
    report = functional_envelope(records, functional=functional)
    print(f"wrote {outdir / 'timeseries.csv'} ({len(records)} records)")
    print(f"envelope[{functional}]: slope={report.slope:.4g} max/F0={report.ratio:.4g} ok={report.ok}")
    failures = _monitors(records, initial_mass)
    for f in failures:
        print(f"MONITOR FAIL: {f}", file=sys.stderr)
    if not failures:
        print("all invariant monitors passed")
    return 1 if failures else 0


def _cmd_sweep_eps(args) -> int:
    from .sweeps import eps_sweep

    cfg = _load_config(args.config)
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError:
        raise ValueError(f"--eps takes eps,eps,..., got {args.eps!r}") from None
    d = eps_sweep(cfg, eps_list, args.T)
    print("eps pairs:", [f"{a:g}->{b:g}" for a, b in zip(d.eps_list, d.eps_list[1:])])
    for key in ("n", "c", "u"):
        print(f"d_{key}:", " ".join(f"{v:.6e}" for v in getattr(d, key)))
    dec = all(b < a for seq in (d.n, d.c, d.u) for a, b in zip(seq, seq[1:]))
    print("strictly decreasing:", dec)
    return 0 if dec or len(d.n) < 2 else 1


def _cmd_sweep_grid(args) -> int:
    from .sweeps import refinement_sweep

    cfg = _load_config(args.config)
    grids = []
    for part in args.grids.split(";"):
        try:
            nx, ny = (int(v) for v in part.split(","))
        except ValueError:
            raise ValueError(f"--grids takes nx,ny;nx,ny;..., got {args.grids!r}") from None
        grids.append((nx, ny))
    rep = refinement_sweep(cfg, grids, args.T)
    print("grids:", rep.grids)
    for key, ords in rep.orders.items():
        print(f"observed order [{key}]:", " ".join("nan" if o != o else f"{o:.3f}" for o in ords))
    return 0


def _cmd_verify_lemmas(args) -> int:
    from .analysis import FieldCorpus, format_report

    rows = run_lemma_checks(FieldCorpus(n_members=args.members, seed=args.seed))
    text = format_report(rows)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    print(text, end="")
    return 0 if all(r.passed for r in rows) else 1


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    print(f"config OK: {cfg.grid.nx}x{cfg.grid.ny}, gamma={cfg.spec.gamma}, "
          f"epsilon={cfg.spec.epsilon}, t_end={cfg.controls.t_end}")
    return 0


def main(argv=None) -> int:
    _hold_heap()
    parser = argparse.ArgumentParser(prog="chemoflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run a configuration")
    p.add_argument("config")
    p.add_argument("--output", default=None, help="output directory (default: from config)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep-eps", help="regularization Cauchy study")
    p.add_argument("config")
    p.add_argument("--eps", default="0.1,0.05,0.025,0.0125")
    p.add_argument("--T", type=float, default=2.0)
    p.set_defaults(fn=_cmd_sweep_eps)

    p = sub.add_parser("sweep-grid", help="refinement study")
    p.add_argument("config")
    p.add_argument("--grids", default="16,16;32,32;64,64")
    p.add_argument("--T", type=float, default=0.1)
    p.set_defaults(fn=_cmd_sweep_grid)

    p = sub.add_parser("verify-lemmas", help="standalone inequality checks")
    p.add_argument("--members", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", default=None, help="report file path")
    p.set_defaults(fn=_cmd_verify_lemmas)

    p = sub.add_parser("validate", help="check a configuration only")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SolverError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
