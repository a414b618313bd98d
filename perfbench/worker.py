"""One benchmark sample: a single chemoflow CLI command in this process.

    python3 perfbench/worker.py JOB.json

`run.py` writes JOB.json and starts this script in a fresh process with
PYTHONPATH pointing at the checkout's `src` and every thread pool pinned
to one thread.  The sample is timed in two parts:

* setup_s  from the start of this script (before chemoflow is imported)
           to the first call of `solver.run` (or, for verify-lemmas,
           `analysis.run_lemma_checks`): import, parse and validate,
           truncation table, Poisson plans, initial state;
* wall_s   from there until the CLI verb returns: every step, the output
           files, the envelope fit and the monitors.

After the clock stops the outputs are checked, and the result is
written as JSON to the path the job names.  With `"trace": true` the
layer wrappers of tracing.py are installed first and the spans are
written next to the result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

# a changed integrator may move the final state, but by no more than this
FINAL_ERR_TOL = 1e-2


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_solver_outputs(job: dict, outdir: pathlib.Path) -> dict:
    """Counts, invariants, hashes and accuracy of one `chemoflow run`."""
    import numpy as np

    from chemoflow.io import parse_timeseries, read_snapshot

    def rel_l2(a, b) -> float:
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    res = {"problems": [], "hashes": {}, "final_err": None, "mass_drift": None, "div_u_max": None}
    csv = outdir / "timeseries.csv"
    final = outdir / job["final_snapshot"]
    for path in (csv, final):
        if not path.is_file():
            res["problems"].append(f"missing output {path.name}")
    if res["problems"]:
        return res
    rows = parse_timeseries(csv.read_text())
    snaps = sorted(outdir.glob("*.cns2"))
    if len(rows) != job["records"] or len(snaps) != job["records"]:
        res["problems"].append(
            f"expected {job['records']} records and snapshots, got {len(rows)} and {len(snaps)}")
    mass0 = rows[0].mass_n
    res["mass_drift"] = max(abs(r.mass_n - mass0) for r in rows) / mass0
    res["div_u_max"] = max(r.div_u_max for r in rows)
    res["hashes"] = {"timeseries.csv": _sha256(csv), "final_snapshot": _sha256(final)}
    if job["reference_state"]:
        got = read_snapshot(final.read_bytes())
        ref = read_snapshot(pathlib.Path(job["reference_state"]).read_bytes())
        res["final_err"] = {
            "n": rel_l2(got.n.values, ref.n.values),
            "c": rel_l2(got.c.values, ref.c.values),
            "u": rel_l2(np.concatenate([got.u.ux.ravel(), got.u.uy.ravel()]),
                         np.concatenate([ref.u.ux.ravel(), ref.u.uy.ravel()])),
        }
        for key, err in res["final_err"].items():
            if not err <= FINAL_ERR_TOL:
                res["problems"].append(f"final_err_{key} = {err:.3g} above {FINAL_ERR_TOL:g}")
    return res


def check_lemma_report(outdir: pathlib.Path) -> dict:
    res = {"problems": [], "hashes": {}, "final_err": None, "mass_drift": None, "div_u_max": None}
    report = outdir / "report.txt"
    if not report.is_file():
        res["problems"].append("missing output report.txt")
        return res
    rows = [ln for ln in report.read_text().splitlines() if ln.endswith(("PASS", "FAIL"))]
    if not rows:
        res["problems"].append("lemma report has no check rows")
    res["problems"] += [f"lemma FAIL: {ln.rsplit(None, 3)[0]}" for ln in rows if ln.endswith("FAIL")]
    res["hashes"] = {"report.txt": _sha256(report)}
    return res


def main(job_path: str) -> int:
    job = json.loads(pathlib.Path(job_path).read_text())
    outdir = pathlib.Path(job["outdir"])

    from chemoflow import cli

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # the wall clock starts where the program stops setting up
    window = {}
    entry = "run" if job["kind"] == "solver" else "run_lemma_checks"
    inner = getattr(cli, entry)

    def started(*args, **kwargs):
        window.setdefault("start", time.perf_counter())
        return inner(*args, **kwargs)

    setattr(cli, entry, started)

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    finally:
        sys.stderr.write(err.getvalue())
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "start" not in window:
        raise RuntimeError(f"chemoflow never called {entry}; rc={rc}")

    if job["kind"] == "solver":
        res = check_solver_outputs(job, outdir)
    else:
        res = check_lemma_report(outdir)
    if rc != 0:
        res["problems"].append(f"chemoflow exited with {rc}")
    res["problems"] += [ln for ln in err.getvalue().splitlines() if ln.startswith("MONITOR FAIL")]
    res.update(
        setup_s=window["start"] - T_START,
        wall_s=t_end - window["start"],
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, (window["start"], t_end))
        layers["solver.mass_drift"] = res["mass_drift"] or 0.0
        layers["operators.div_u_max"] = res["div_u_max"] or 0.0
        res["layers"] = layers
        pathlib.Path(job["spans"]).write_text(json.dumps(
            {"window": [window["start"], t_end], "spans": tracer.spans}))
    pathlib.Path(job["result"]).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
