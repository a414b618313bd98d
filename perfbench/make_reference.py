#!/usr/bin/env python3
"""Regenerate the stored final states the benchmark measures accuracy against.

    python3 perfbench/make_reference.py

Runs each solver workload at the default seed with the checkout's
`src`, single-threaded, and stores its final CNS2 snapshot as
perfbench/reference_states/<workload>.cns2.  Regenerate only when a
change is meant to move the solution, and say so in CHANGES.md.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    run.REFERENCE_STATES.mkdir(exist_ok=True)
    work = run.WORK / "make_reference"
    for name in workloads.WORKLOADS:
        inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        if not inputs.is_solver:
            continue
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "config.ini").write_text(inputs.config_text)
        argv = [a.replace("{out}", str(work)) for a in inputs.argv]
        subprocess.run([sys.executable, "-m", "chemoflow.cli", *argv], cwd=run.ROOT,
                       env=run.worker_env(), check=True, stdout=subprocess.DEVNULL)
        target = run.REFERENCE_STATES / f"{name}.cns2"
        shutil.copyfile(work / inputs.final_snapshot, target)
        print(f"wrote {target}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
