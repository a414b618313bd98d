#!/usr/bin/env python3
"""The chemoflow benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's `src`
directly (pure Python, nothing to build).  Workloads are described in
workloads.py.

The run is a closed loop with one client: each sample is a fresh
`worker.py` process running one chemoflow CLI command with every
thread pool pinned to one thread, and the next sample starts only after
the previous one has exited.  Samples start until `--seconds` have
passed (at least MIN_SAMPLES), after one untimed process that imports
chemoflow so that bytecode and the file cache are warm.

--trace 0 reports the end-to-end metrics: the medians over the samples
of setup_s and peak_rss_mb, and wall_rel, the median wall_s over the
median time of a calibration process (a fresh interpreter importing
numpy and scipy) run before each sample.  --trace 1 alternates untraced
and traced samples and reports the per-layer metrics, medians over the
traced samples, plus the tracing overhead (traced minus untraced median
wall_s) and the share of the traced wall time that layer spans cover.

Every sample is checked: the CLI exit code, MONITOR FAIL lines, lemma
FAIL rows, the expected output files, the distance of the final
snapshot from the stored reference state (default seed only), and
byte-identical outputs across all samples of the run, traced or not.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_STATES = HERE / "reference_states"

MIN_SAMPLES = 3
LAST_START_S = 150  # start no sample later than this after the run began
TIME_LIMIT_S = 170  # and kill any sample still running at this point

END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}

# A fresh interpreter importing the libraries chemoflow is built on, and
# nothing of chemoflow.  Timed before every untraced sample; wall_rel is
# the median wall_s over its median (see README.md, Noise).
CALIBRATION = ("import time; t = time.perf_counter(); "
               "import numpy, scipy.fft, scipy.sparse, scipy.sparse.linalg; "
               "print(time.perf_counter() - t)")

PER_LAYER = {
    "config.parse_s": "s",
    "model.build_truncations_s": "s",
    "operators.poisson_init_s": "s",
    "solver.steps": "count",
    "solver.substeps": "count",
    "solver.substeps_per_step": "count",
    "solver.step_s": "s",
    "solver.step_self_s": "s",
    "solver.diffuse_n_s": "s",
    "solver.diffuse_n_us_per_substep": "us",
    "solver.diffusion_number_max": "ratio",
    "solver.clamped_mass": "mass",
    "solver.mass_drift": "ratio",
    **{f"operators.{op}_{kind}": unit
       for op in tracing.OPERATOR_SPANS for kind, unit in (("s", "s"), ("calls", "count"))},
    "operators.div_u_max": "1/s",
    "diagnostics.record_s": "s",
    "diagnostics.records": "count",
    "diagnostics.envelope_s": "s",
    "io.emit_snapshot_s": "s",
    "io.emit_timeseries_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    **{name: "s" for name in tracing.ANALYSIS_GROUPS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

THREAD_PINS = {
    "CHEMOFLOW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_sample(inputs, index: int, traced: bool, work: pathlib.Path, env: dict,
               timeout: float = TIME_LIMIT_S) -> dict:
    """Run one worker process; returns its result with a `problems` list."""
    outdir = work / f"sample{index:03d}"
    outdir.mkdir()
    if inputs.config_text:
        (outdir / "config.ini").write_text(inputs.config_text)
    reference = REFERENCE_STATES / f"{inputs.workload}.cns2"
    job = {
        "argv": [a.replace("{out}", str(outdir)) for a in inputs.argv],
        "kind": "solver" if inputs.is_solver else "lemmas",
        "trace": traced,
        "outdir": str(outdir),
        "records": inputs.records,
        "final_snapshot": inputs.final_snapshot,
        "reference_state": str(reference) if inputs.has_reference_state else None,
        "result": str(work / f"result{index:03d}.json"),
        "spans": str(work / f"spans{index:03d}.json"),
    }
    job_path = work / f"job{index:03d}.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"worker killed after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)  # outputs are large; hashes are kept
    result_path = pathlib.Path(job["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced,
                "problems": [f"worker exited with {proc.returncode}: {tail[0]}"]}
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    return result


def collect(inputs, seconds: float, trace: bool, work: pathlib.Path) -> list:
    begin = time.monotonic()

    def time_left():
        return max(1.0, TIME_LIMIT_S - (time.monotonic() - begin))

    env = worker_env()
    warm = subprocess.run([sys.executable, "-c", "import chemoflow.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=time_left())
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import chemoflow from {ROOT / 'src'}: {warm.stderr.strip()}")
    minimum = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    samples = []
    t0 = time.monotonic()
    while True:
        pair_open = trace and len(samples) % 2 == 1
        if time.monotonic() - begin >= LAST_START_S or (
                time.monotonic() - t0 >= seconds and len(samples) >= minimum and not pair_open):
            break
        traced = trace and len(samples) % 2 == 1
        calib_s = None if trace else float(subprocess.run(
            [sys.executable, "-c", CALIBRATION], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=time_left(), check=True).stdout)
        samples.append(run_sample(inputs, len(samples), traced, work, env, time_left()))
        samples[-1]["calib_s"] = calib_s
    reference_hashes = next((s["hashes"] for s in samples if s.get("hashes")), None)
    for s in samples:
        if s.get("hashes") and s["hashes"] != reference_hashes:
            s["problems"].append("outputs differ from the run's first sample")
    return samples


def median_of(values):
    """Median; for counts, the lower middle value, so a count stays a whole number."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chemoflow" / "__init__.py").is_file():
        print(f"no chemoflow sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        samples = collect(inputs, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    failed = [s for s in samples if s["problems"]]
    for i, s in enumerate(samples):
        for p in s["problems"]:
            print(f"sample {i} FAILED: {p}", file=sys.stderr)
    ok = [s for s in samples if not s["problems"]]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not untraced or (args.trace and not traced):
        print("no sample completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: median_of(s["layers"][name] for s in traced)
                   for name in PER_LAYER if name not in ("trace.wall_s", "trace.overhead_s")}
        metrics["trace.wall_s"] = median_of(s["wall_s"] for s in traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - median_of(s["wall_s"] for s in untraced))
        units = PER_LAYER
    else:
        calib_s = median_of(s["calib_s"] for s in samples)
        metrics = {name: median_of(s[name] for s in untraced)
                   for name in ("setup_s", "wall_s", "peak_rss_mb")}
        metrics["wall_rel"] = metrics["wall_s"] / calib_s
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} samples "
          f"({sum(s['traced'] for s in samples)} traced), {len(failed)} failed, "
          f"thread pins {' '.join(f'{k}={v}' for k, v in THREAD_PINS.items())}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  {'wall_s':<34} {metrics['wall_s']:.6g} s")
        print(f"  {'calibration_s':<34} {calib_s:.6g} s")
    print(f"  {'failed_frac':<34} {len(failed) / len(samples):.6g} ratio")
    if inputs.is_solver:  # worst sample, failed ones included
        errs = [s["final_err"] for s in samples if s.get("final_err")]
        for key in ("n", "c", "u"):
            shown = f"{max(e[key] for e in errs):.6g} ratio" if errs else (
                f"unavailable (stored state only for seed {workloads.DEFAULT_SEED})")
            print(f"  {'final_err_' + key:<34} {shown}")
        for key, unit in (("mass_drift", "ratio"), ("div_u_max", "1/s")):
            worst = max(s[key] for s in samples if s.get(key) is not None)
            print(f"  {key:<34} {worst:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
