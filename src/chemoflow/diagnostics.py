"""Monitored functionals of a run and the energy-functional bookkeeping.

Each record row collects the conserved mass, extrema, incompressibility
residual, kinetic energy and enstrophy, and the weighted gradient
integrals whose boundedness the solver is expected to reproduce.  Two
composite functionals are assembled, every term with unit weight:

    F = int D2_eps(n) + int n|grad c|^2/c + int |grad c|^4/c^3 + int Psi2(n)
    G = int D2_eps(n) + int |grad c|^4/c^3 + int Psi2(n)

F is the monitor for mild sensitivity singularities (gamma <= 1/2), G the
one for gamma in (1/2, 5/6].  The theorem bounds them; functional_envelope
reads that a posteriori off the held-out second half of the record, where
the least-squares slope of log F against t may not exceed SLOPE_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .grid import State, cell_gradients
from .model import ModelSpec, TruncationTable, eval_D2_eps, eval_D_eps
from .operators import div

__all__ = [
    "DiagnosticsRecord",
    "EnvelopeReport",
    "record",
    "functional_envelope",
    "select_functional",
]

# exponent of the signal integral I_cq = int |grad c|^2 / c^(2 - Q)
Q = 0.5

# envelope gate: largest held-out growth rate of log F, per unit time
SLOPE_TOL = 1e-3


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of every monitored quantity.

    Field order matches the CSV schema exactly.
    """

    t: float
    mass_n: float
    c_max: float
    c_min: float
    n_max: float
    div_u_max: float
    E_u: float
    enstrophy: float
    I_logn: float
    I_D2grad: float
    I_Dlog: float
    I_c4: float
    I_c6: float
    I_mix: float
    I_cq: float
    F: float
    G: float
    clamp_mass: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"non-finite diagnostics entry {f.name}")

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))


def record(
    state: State,
    spec: ModelSpec,
    table: TruncationTable,
    clamp_mass: float = 0.0,
) -> DiagnosticsRecord:
    """Evaluate every monitored integral on one state snapshot."""
    g = state.n.grid
    da = g.cell_area
    nv = state.n.values
    cv = state.c.values

    gx_c, gy_c = cell_gradients(cv, g)
    grad_c2 = gx_c**2 + gy_c**2
    gx_n, gy_n = cell_gradients(nv, g)
    grad_n2 = gx_n**2 + gy_n**2

    deps = eval_D_eps(nv, spec)
    d2eps = eval_D2_eps(nv, spec)

    uxc = 0.5 * (state.u.ux[:-1, :] + state.u.ux[1:, :])
    uyc = 0.5 * (state.u.uy[:, :-1] + state.u.uy[:, 1:])
    gxx, gxy = cell_gradients(uxc, g)
    gyx, gyy = cell_gradients(uyc, g)

    int_d2 = float(d2eps.sum() * da)
    i_ncc = float((nv * grad_c2 / cv).sum() * da)
    i_c4 = float((grad_c2**2 / cv**3).sum() * da)
    i_psi2 = float(table.eval_psi2(nv).sum() * da)

    return DiagnosticsRecord(
        t=state.t,
        mass_n=float(nv.sum() * da),
        c_max=float(cv.max()),
        c_min=float(cv.min()),
        n_max=float(nv.max()),
        div_u_max=float(np.abs(div(state.u).values).max()),
        E_u=float((uxc**2 + uyc**2).sum() * da),
        enstrophy=float((gxx**2 + gxy**2 + gyx**2 + gyy**2).sum() * da),
        I_logn=float((nv * np.log1p(nv)).sum() * da),
        I_D2grad=float((deps**2 * grad_n2).sum() * da),
        I_Dlog=float((deps * grad_n2 / (nv + 1.0) ** 2).sum() * da),
        I_c4=i_c4,
        I_c6=float((grad_c2**3 / cv**5).sum() * da),
        I_mix=float((nv**2 * grad_c2 / cv).sum() * da),
        I_cq=float((grad_c2 / cv ** (2.0 - Q)).sum() * da),
        F=int_d2 + i_ncc + i_c4 + i_psi2,
        G=int_d2 + i_c4 + i_psi2,
        clamp_mass=clamp_mass,
    )


def select_functional(spec: ModelSpec) -> str:
    """Pick the functional matching the sensitivity exponent: F for
    gamma <= 1/2, G for gamma in (1/2, 5/6] (the range ModelSpec admits).
    G's extra hypothesis ||n0||_1 <= M is checked by config.validate_config."""
    return "F" if spec.gamma <= 0.5 else "G"


@dataclass(frozen=True)
class EnvelopeReport:
    functional: str
    slope: float
    ratio: float
    ok: bool


def functional_envelope(
    series: Sequence[DiagnosticsRecord],
    functional: str = "F",
) -> EnvelopeReport:
    """Check that F (or G) stops growing: `slope` is the least-squares
    slope of log F against t on records m // 2 ... m of the m recorded
    intervals, sum (t - t_mean)(y - y_mean) / sum (t - t_mean)^2, `ratio`
    is max F / F(0) over the whole record and `ok` is slope <= SLOPE_TOL.
    A single record gives slope 0.  F <= 0 (where log F is undefined) and
    a slope that is not finite raise ValueError.
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    if functional not in ("F", "G"):
        raise ValueError(f"functional must be 'F' or 'G', got {functional!r}")
    ts = np.array([r.t for r in series])
    vals = np.array([getattr(r, functional) for r in series])
    if (np.diff(ts) <= 0).any():
        raise ValueError("series must be sorted by time")
    if (vals <= 0).any():
        k = int(np.argmax(vals <= 0))
        raise ValueError(f"{functional} = {vals[k]:.3g} <= 0 at t = {ts[k]:.6g}: log {functional} is undefined")
    slope = 0.0
    if len(ts) > 1:
        held = slice((len(ts) - 1) // 2, None)
        t, y = ts[held] - ts[held].mean(), np.log(vals[held])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = float((t * (y - y.mean())).sum() / (t * t).sum())
    if not math.isfinite(slope):
        raise ValueError(f"the slope of log {functional} is not finite (time steps down to {np.diff(ts).min():.3g})")
    return EnvelopeReport(functional, slope, float(vals.max() / vals[0]), slope <= SLOPE_TOL)
