"""Parameter sweeps: regularization-strength Cauchy study, grid refinement.

The epsilon sweep reruns one configuration with a strictly decreasing
list of regularization strengths and reports space-time L2 distances
between consecutive runs, sampled at the shared cadence ticks (and at T
when it falls between ticks) on the common grid.  No rate is asserted;
decreasing distances indicate Cauchy behavior of the regularized family.

The refinement sweep runs nested grids and reports observed convergence
orders per field from consecutive-grid differences (unbiased when the
error scales like C*h^p), each coarse run compared with the next finer
one restricted by cell-block averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig, validate_config
from .grid import State, make_grid
from .operators import PoissonSolver
from .solver import run

__all__ = ["SweepDistances", "RefinementReport", "eps_sweep", "refinement_sweep"]


@dataclass
class SweepDistances:
    eps_list: tuple
    n: list
    c: list
    u: list


def _collect_run(cfg: RunConfig, t_end: float):
    controls = dc_replace(cfg.controls, t_end=t_end)
    poisson = PoissonSolver(cfg.grid)
    frames = []

    def sink(state: State, clamp):
        frames.append((state.t, state.n.values, state.c.values, state.u.ux, state.u.uy))

    run(cfg.initial_state(), cfg.spec, controls, poisson, sinks=[sink], cadence=cfg.cadence)
    return frames


def _spacetime_l2(frames_a, frames_b, cadence, cell_area) -> tuple:
    """Space-time L2 distances, each frame weighted by the time it covers.

    That is the cadence for a frame on a tick; a final frame short of the
    next tick (T not a multiple of the cadence) covers T - t_prev only.
    """
    dn = dc = du = 0.0
    t_prev = None
    for (ta, na, ca, uxa, uya), (tb, nb, cb, uxb, uyb) in zip(frames_a, frames_b):
        if abs(ta - tb) > 1e-9:
            raise ValueError(f"sweep runs recorded at different times: {ta} vs {tb}")
        weight_t = cadence
        if t_prev is not None and ta < t_prev + cadence - 1e-12:
            weight_t = ta - t_prev
        t_prev = ta
        dn += float(((na - nb) ** 2).sum()) * cell_area * weight_t
        dc += float(((ca - cb) ** 2).sum()) * cell_area * weight_t
        du += (float(((uxa - uxb) ** 2).sum()) + float(((uya - uyb) ** 2).sum())) * cell_area * weight_t
    return math.sqrt(dn), math.sqrt(dc), math.sqrt(du)


def eps_sweep(base: RunConfig, eps_list: Sequence[float], T: float) -> SweepDistances:
    """Distances between runs at consecutive regularization strengths.

    Raises ConfigError, before any run, if a derived configuration fails
    validate_config.
    """
    eps_list = tuple(float(e) for e in eps_list)
    # equal consecutive entries are allowed (they replay deterministically
    # and must report distance 0); increases are not
    if any(e2 > e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be non-increasing")
    cfgs = [dc_replace(base, spec=dc_replace(base.spec, epsilon=eps)) for eps in eps_list]
    # every derived configuration is checked before the first run starts
    problems = [f"eps = {cfg.spec.epsilon:g}: {v}" for cfg in cfgs for v in validate_config(cfg)]
    if problems:
        raise ConfigError(problems)
    runs = [_collect_run(cfg, T) for cfg in cfgs]
    out = SweepDistances(eps_list, [], [], [])
    for fa, fb in zip(runs, runs[1:]):
        if len(fa) != len(fb):
            raise ValueError("sweep runs recorded different numbers of frames")
        dn, dc, du = _spacetime_l2(fa, fb, base.cadence, base.grid.cell_area)
        out.n.append(dn)
        out.c.append(dc)
        out.u.append(du)
    return out


@dataclass
class RefinementReport:
    grids: tuple
    consecutive_diffs: dict
    orders: dict


def _restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Block mean over factor x factor cells (exact for nested grids)."""
    nx, ny = values.shape
    return values.reshape(nx // factor, factor, ny // factor, factor).mean(axis=(1, 3))


def refinement_sweep(base: RunConfig, grids: Sequence[tuple], T: float) -> RefinementReport:
    """Run nested grids; report per-field observed orders.

    `grids` is a list of (nx, ny), coarse to fine, each refining both axes
    of the previous one by one integer factor r for the whole sweep (a
    repeated grid may appear anywhere).  Orders are log_r of ratios of
    consecutive-grid L2 differences; identical consecutive grids produce a
    zero difference and an undefined (nan) order, reported as such.
    Raises ConfigError, before any run, if the configuration fails
    validate_config on a grid of the sweep.
    """
    grids = tuple((int(a), int(b)) for a, b in grids)
    for (nxa, nya), (nxb, nyb) in zip(grids, grids[1:]):
        if min(nxa, nya) < 1 or nxb % nxa or nyb % nya or nxb // nxa != nyb // nya:
            raise ValueError(
                f"grids {nxa}x{nya} -> {nxb}x{nyb} are not nested: each grid must refine "
                "both axes of the previous one by the same integer factor"
            )
    factors = {nxb // nxa for (nxa, _), (nxb, _) in zip(grids, grids[1:])} - {1}
    if len(factors) > 1:
        raise ValueError(f"grids {' -> '.join(f'{nx}x{ny}' for nx, ny in grids)} mix refinement "
                         f"factors {sorted(factors)}: a sweep must use one")
    r = factors.pop() if factors else 1
    cfgs = {g: dc_replace(base, grid=make_grid(*g, base.grid.lx, base.grid.ly)) for g in grids}
    problems = [f"grid {nx}x{ny}: {v}" for (nx, ny), cfg in cfgs.items() for v in validate_config(cfg)]
    if problems:
        raise ConfigError(problems)
    controls = dc_replace(base.controls, t_end=T)
    finals = [run(cfgs[g].initial_state(), base.spec, controls, PoissonSolver(cfgs[g].grid), sinks=[])
              for g in grids]

    def l2(a, nx, ny):
        return float(np.sqrt((a**2).sum() * (base.grid.lx / nx) * (base.grid.ly / ny)))

    diffs = {"n": [], "c": []}
    for (nxa, nya), (nxb, nyb), sta, stb in zip(grids, grids[1:], finals, finals[1:]):
        if nxa == nxb and nya == nyb:
            diffs["n"].append(0.0)
            diffs["c"].append(0.0)
            continue
        diffs["n"].append(l2(sta.n.values - _restrict(stb.n.values, r), nxa, nya))
        diffs["c"].append(l2(sta.c.values - _restrict(stb.c.values, r), nxa, nya))

    # both differences are nonzero only if some grid is refined, so r > 1
    orders = {key: [math.log2(d1 / d2) / math.log2(r) if d1 > 0 and d2 > 0 else float("nan")
                    for d1, d2 in zip(d, d[1:])] for key, d in diffs.items()}
    return RefinementReport(grids, diffs, orders)
