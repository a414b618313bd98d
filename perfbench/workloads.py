"""Workload inputs of the chemoflow benchmark, generated from a seed.

Each workload is one `chemoflow` CLI invocation.  This module writes the
inputs (the INI configuration, the CLI arguments) and the outputs a
correct run must leave behind; it imports nothing from the program, so
the inputs stay fixed while the program changes.

* reference   the acceptance configuration (64x64, m = 2, gamma = 1/2,
              eps = 0.05, buoyancy (0, -1), unit-mass Gaussian, cadence
              0.05) over a shortened horizon, snapshots on.  Dominated by
              the explicit n-diffusion substeps.
* dilute_flow 128x128, n0 mass 0.01, eps = 0.01, a vortex initial flow and
              dt_max = 0.001, with records and snapshots every 5 steps.
              Diffusion is cheap here; the per-step operators, records
              and output dominate, and every snapshot is held in memory.
* lemmas      `chemoflow verify-lemmas` on a seeded corpus: analysis and
              grid only, no solver code.

For the solver workloads the seed moves the initial bump by at most
0.025 in each direction, which keeps the work within about 1 % across
seeds; DEFAULT_SEED keeps it at the centre, which is
the acceptance configuration and the one with stored final states.  For
`lemmas` the seed is the corpus seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
REFERENCE_T_END = 0.5
DILUTE_T_END = 0.2
LEMMA_MEMBERS = 200
BUMP_SHIFT = 0.025

WORKLOADS = ("reference", "dilute_flow", "lemmas")

_INI = """\
[grid]
nx = {nx}
ny = {ny}
lx = 1.0
ly = 1.0

[model]
diffusion = porous_medium
m = 2.0
gamma = 0.5
s0_sensitivity = 1.0
sensitivity_kind = isotropic
phi_gradient = 0.0, -1.0
epsilon = {epsilon}
l = 2.0
m_bound = 1.5

[initial]
n0 = gaussian: mass={mass}, sigma=0.15, x0={x0!r}, y0={y0!r}
c0 = cosine: base=1.0, amp=0.5, kx=1, ky=1
u0 = {u0}

[time]
t_end = {t_end}
cfl = 0.4
dt_max = {dt_max}

[output]
cadence = {cadence}
directory = out
snapshots = true

[run]
seed = 0
"""

_SOLVER_PARAMS = {
    "reference": dict(nx=64, ny=64, epsilon=0.05, mass=1.0, u0="zero",
                      t_end=REFERENCE_T_END, dt_max=0.01, cadence=0.05),
    "dilute_flow": dict(nx=128, ny=128, epsilon=0.01, mass=0.01, u0="vortex: amp=0.5",
                        t_end=DILUTE_T_END, dt_max=0.001, cadence=0.005),
}


@dataclass(frozen=True)
class Inputs:
    """What one sample runs and what a correct run leaves behind.

    `argv` is the chemoflow command line; the literal `{out}` in it
    stands for the sample's output directory.  For solver workloads
    `config_text` is written to the file the command names, and the run
    must leave `records` rows in timeseries.csv and one snapshot file
    per record, the last named `final_snapshot`.
    """

    workload: str
    seed: int
    argv: tuple
    config_text: str = ""
    records: int = 0
    final_snapshot: str = ""

    @property
    def is_solver(self) -> bool:
        return self.workload != "lemmas"

    @property
    def has_reference_state(self) -> bool:
        return self.is_solver and self.seed == DEFAULT_SEED


def bump_centre(seed: int) -> tuple:
    if seed == DEFAULT_SEED:
        return 0.5, 0.5
    rng = random.Random(seed)
    return (round(0.5 + rng.uniform(-BUMP_SHIFT, BUMP_SHIFT), 6),
            round(0.5 + rng.uniform(-BUMP_SHIFT, BUMP_SHIFT), 6))


def snapshot_name(t: float) -> str:
    """File name `chemoflow run` gives the snapshot taken at time t."""
    return f"snapshot_t{t:012.6f}.cns2"


def make_inputs(workload: str, seed: int) -> Inputs:
    """Deterministic inputs of `workload` for `seed` (a non-negative int)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workload == "lemmas":
        return Inputs(workload, seed, ("verify-lemmas", "--members", str(LEMMA_MEMBERS),
                                       "--seed", str(seed), "--output", "{out}/report.txt"))
    if workload not in _SOLVER_PARAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    params = _SOLVER_PARAMS[workload]
    x0, y0 = bump_centre(seed)
    text = _INI.format(x0=x0, y0=y0, **params)
    records = round(params["t_end"] / params["cadence"]) + 1
    return Inputs(
        workload, seed, ("run", "{out}/config.ini", "--output", "{out}"),
        config_text=text, records=records, final_snapshot=snapshot_name(params["t_end"]),
    )
