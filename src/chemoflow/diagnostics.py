"""Monitored functionals of a run and the energy-functional bookkeeping.

Each record row collects the conserved mass, extrema, incompressibility
residual, kinetic energy and enstrophy, and the weighted gradient
integrals whose boundedness the solver is expected to reproduce.  Two
composite functionals are assembled, every term with unit weight:

    F = int D2_eps(n) + int n|grad c|^2/c + int |grad c|^4/c^3 + int Psi2(n)
    G = int D2_eps(n) + int |grad c|^4/c^3 + int Psi2(n)

F is the monitor for mild sensitivity singularities (gamma <= 1/2), G the
one for gamma in (1/2, 5/6].  Their dissipation inequality
dF/dt + mu*F <= Gamma is fitted a posteriori on the first half of the
recorded intervals and held out on the second (functional_envelope).
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

# envelope fit: N_MU rates mu geometric on MU_RANGE, a FEASIBILITY share
# of intervals within round-off (REL_TOL), the series within ENVELOPE_TOL
# of the implied bound
N_MU = 20
MU_RANGE = (1e-3, 1e2)
FEASIBILITY = 0.99
ENVELOPE_TOL = 0.05
REL_TOL = 1e-8


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
    feasible: bool
    mu: float
    Gamma: float
    residual_nonpos_fraction: float
    envelope_bound: float
    max_value: float
    envelope_ok: bool


def functional_envelope(
    series: Sequence[DiagnosticsRecord],
    functional: str = "F",
) -> EnvelopeReport:
    """Fit dF/dt + mu*F <= Gamma on the first h = m // 2 of the m recorded
    intervals, dF/dt = (F_{k+1} - F_k)/dt, and hold it out on the rest.

    Gamma(mu) is the ceil(FEASIBILITY * h)-th smallest dF/dt + mu*F_k of
    the first h; the mu with the smallest envelope max(F(0), Gamma/mu)
    is kept (ties toward larger mu), the forcing terms folded into Gamma.
    `residual_nonpos_fraction` is the held-out share with residual <=
    REL_TOL * (|dF/dt| + mu|F_k|), `feasible` that share >= FEASIBILITY,
    and `envelope_ok` whether F stayed within ENVELOPE_TOL of the
    envelope.  Fewer than two intervals give a trivial report; quotients
    that overflow float64 are rejected.
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    if functional not in ("F", "G"):
        raise ValueError(f"functional must be 'F' or 'G', got {functional!r}")
    ts = np.array([r.t for r in series])
    vals = np.array([getattr(r, functional) for r in series])
    dt = np.diff(ts)
    if (dt <= 0).any():
        raise ValueError("series must be sorted by time")

    mus = np.geomspace(MU_RANGE[0], MU_RANGE[1], N_MU)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        dfdt = np.diff(vals) / dt
        base = dfdt + mus * vals[:-1]
        tol = REL_TOL * (np.abs(dfdt) + mus * np.abs(vals[:-1]))
    if not np.isfinite(base).all():
        raise ValueError(f"dF/dt + mu*F overflows float64 (time steps down to {dt.min():.3g})")
    if len(dt) < 2:
        mu, gamma, frac, bound = 1.0, 1.0, 1.0, float(vals[0])
    else:
        half = len(dt) // 2
        rank = math.ceil(FEASIBILITY * half) - 1
        gammas = np.partition(base[:, :half], rank, axis=1)[:, rank]
        bounds = np.maximum(vals[0], gammas / mus[:, 0])
        i = N_MU - 1 - int(np.argmin(bounds[::-1]))
        mu, gamma, bound = float(mus[i, 0]), float(gammas[i]), float(bounds[i])
        frac = float(np.mean(base[i, half:] - gamma <= tol[i, half:]))
    ok = bool(vals.max() <= bound * (1.0 + ENVELOPE_TOL))
    return EnvelopeReport(functional, frac >= FEASIBILITY, mu, gamma, frac,
                          bound, float(vals.max()), ok)
