#!/usr/bin/env python3
"""Record the benchmark's baseline: machine, software, and layer shares.

    python3 perfbench/record_baseline.py [--seconds 40]

Runs every workload at the default seed once untraced and once traced,
and writes perfbench/baseline.json with

* the machine and software the numbers were taken on, and the thread
  pins every sample runs under;
* the end-to-end metrics of each workload;
* LAYER_MAP: which end-to-end metric each per-layer metric should move,
  on which workloads, with the share of that metric the layer took here
  (setup layers against setup_s, the others against the traced wall_s,
  the wall time wall_rel is made from).

A change that claims a gain on one layer reads its prediction from this
map: the share is the most the end-to-end metric can improve.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import run
import tracing
import workloads

SOLVER = ["reference", "dilute_flow"]

# per-layer metric (or stem) -> (end-to-end metric it moves, workloads where it should)
LAYER_MAP = {
    "config.parse_s": ("setup_s", SOLVER),
    "model.build_truncations_s": ("setup_s", SOLVER),
    "operators.poisson_init_s": ("setup_s", SOLVER),
    "solver.step_s": ("wall_rel", SOLVER),
    "solver.step_self_s": ("wall_rel", SOLVER),
    "solver.diffuse_n_s": ("wall_rel", SOLVER),
    **{f"operators.{op}_s": ("wall_rel", SOLVER) for op in tracing.OPERATOR_SPANS},
    "diagnostics.record_s": ("wall_rel", SOLVER),
    "diagnostics.envelope_s": ("wall_rel", SOLVER),
    "io.emit_snapshot_s": ("wall_rel and peak_rss_mb", SOLVER),
    "io.emit_timeseries_s": ("wall_rel", SOLVER),
    "io.write_s": ("wall_rel and peak_rss_mb", SOLVER),
    **{name: ("wall_rel", ["lemmas"]) for name in tracing.ANALYSIS_GROUPS},
}


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "unknown",
            "caches": {}}
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True)
    for line in lscpu.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            info["caches"][key.strip()] = value.strip()
    return info


def _software() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "thread_pins": run.THREAD_PINS,
    }


def _bench(workload: str, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: benchmark outputs incorrect\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()

    end_to_end, layers = {}, {}
    for name in workloads.WORKLOADS:
        end_to_end[name] = _bench(name, 0, args.seconds)
        layers[name] = _bench(name, 1, args.seconds)
    layer_map = {}
    for metric, (moves, where) in LAYER_MAP.items():
        shares = {}
        for name in where:
            base = (end_to_end[name]["setup_s"] if moves == "setup_s"
                    else layers[name]["trace.wall_s"])
            shares[name] = round(layers[name][metric] / base, 4)
        layer_map[metric] = {"moves": moves, "on": where, "share": shares}
    baseline = {
        "seed": workloads.DEFAULT_SEED,
        "seconds": args.seconds,
        "machine": _machine(),
        "software": _software(),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "layer_map": layer_map,
    }
    target = run.HERE / "baseline.json"
    target.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
