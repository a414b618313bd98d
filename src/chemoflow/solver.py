"""Time integration of the regularized chemotaxis-fluid system.

One step advances, in order:

1. density n: explicit conservative advection + taxis fluxes at the outer
   step, then explicit diffusion of the transported density in substeps
   n += dt_sub * Lap_h D1_eps(n), the Laplacian of the Kirchhoff potential
   D1_eps = int_0^n D_eps, for every diffusion law.  A face flux
   D1_eps(b) - D1_eps(a) is D_eps(xi) (b - a) with xi between the cell
   values, so dt_sub * sup D_eps * (2/hx^2 + 2/hy^2) <= DIFFUSION_NUMBER
   = 0.9, the sup over [min n, max n], makes every substep a convex
   combination of neighbouring values, which keeps n in that range.
   The substeps advance the shifted variable w = k (n + delta) of
   model.kirchhoff_units, in which an m = 2 substep is 7 array passes;
2. signal c: explicit upwind advection, implicit consumption via the
   factor 1/(1 + dt*n), implicit diffusion (cosine-transform solve);
3. velocity u: explicit upwind advection, implicit viscous solve
   (sine-transform), buoyancy force dt * n * grad(Phi), projection.

Every sub-update preserves the structure the monitors rely on: n >= 0
exactly under the CFL rule, total mass of n to round-off, the maximum
principle for c, and discrete incompressibility to solver accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, State, VectorField
from .model import ModelSpec, kirchhoff_units, sup_D_eps
from .operators import (
    PoissonSolver,
    advect_scalar,
    advect_velocity,
    div,
    project,
    taxis_face_velocity,
    taxis_flux_div,
)

__all__ = ["TimeControls", "SolverError", "StepInfo", "check_initial", "run"]

NEGATIVE_DENSITY_TOL = -1e-13
DIFFUSION_NUMBER = 0.9
MAX_CFL = 0.5
DT_MIN = 1e-12


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeControls:
    """Step-size policy.

    The outer dt obeys the advective CFL dt*(speed_x/hx + speed_y/hy) <= cfl,
    where the speed includes both the fluid velocity and the chemotactic
    drift (upwind positivity needs both), and never exceeds dt_max; a dt
    below DT_MIN is a stability failure, so dt_max >= DT_MIN is required
    up front.  cfl lies in (0, MAX_CFL]: the taxis drift is not
    solenoidal, so a cell can lose mass through all four faces in one
    step, and its upwind update stays nonnegative only for cfl <= 1/2.
    cfl does not scale the n-diffusion substeps.
    """

    t_end: float
    dt_max: float = 0.01
    cfl: float = 0.4

    def __post_init__(self):
        if not (0.0 < self.cfl <= MAX_CFL):
            raise ValueError(f"cfl must lie in (0, {MAX_CFL}], got {self.cfl}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not (math.isfinite(self.dt_max) and self.dt_max >= DT_MIN):
            raise ValueError(f"dt_max must be finite and >= DT_MIN = {DT_MIN:g}, got {self.dt_max}")


@dataclass
class StepInfo:
    dt: float
    substeps: int
    clamped_mass: float


def _advective_dt(state: State, wx, wy, controls: TimeControls) -> float:
    g = state.n.grid
    ux_max, uy_max = state.u.max_speed()
    sx = ux_max + float(np.abs(wx).max())
    sy = uy_max + float(np.abs(wy).max())
    rate = sx / g.hx + sy / g.hy
    dt = controls.dt_max if rate == 0.0 else min(controls.dt_max, controls.cfl / rate)
    return dt


def _diffusive_dt(n: ScalarField, spec: ModelSpec) -> float:
    """Largest substep with dt_sub * sup D_eps(n) * (2/hx^2 + 2/hy^2) <= DIFFUSION_NUMBER."""
    g = n.grid
    dmax = sup_D_eps(float(n.values.min()), float(n.values.max()), spec)
    if dmax == 0.0:
        return math.inf
    return DIFFUSION_NUMBER / (dmax * (2.0 / g.hx**2 + 2.0 / g.hy**2))


def _clamp_negative(n: ScalarField, t: float) -> float:
    """Zero tiny negative undershoots; returns the mass added by clamping."""
    v = n.values
    neg = v < 0.0
    if not neg.any():
        return 0.0
    worst = float(v.min())
    if worst < NEGATIVE_DENSITY_TOL:
        i, j = np.unravel_index(int(np.argmin(v)), v.shape)
        raise SolverError(
            f"density undershoot {worst:.3e} at cell ({i}, {j}), t={t:.6g}, exceeds "
            f"tolerance {NEGATIVE_DENSITY_TOL:.0e}; flux bug suspected"
        )
    clamped = -float(v[neg].sum()) * n.grid.cell_area
    v[neg] = 0.0
    return clamped


def _step_impl(state: State, spec: ModelSpec, controls: TimeControls, poisson: PoissonSolver, until=None):
    g = state.n.grid
    wx, wy = taxis_face_velocity(state.n, state.c, spec)
    dt_stab = _advective_dt(state, wx, wy, controls)
    if dt_stab < DT_MIN:
        raise SolverError(
            f"stability violation: dt={dt_stab:.3e} below DT_MIN at t={state.t}"
        )
    # clip onto the next record tick / final time without leaving slivers:
    # either land exactly, or split the remainder so dt >= dt_stab / 2
    target = controls.t_end if until is None else min(until, controls.t_end)
    remaining = target - state.t
    t_new = None
    if remaining <= dt_stab * (1.0 + 1e-9):
        dt = remaining
        t_new = target
    elif remaining <= 2.0 * dt_stab:
        dt = 0.5 * remaining
    else:
        dt = dt_stab
    if t_new is None:
        t_new = state.t + dt

    # --- (i) density update -------------------------------------------------
    # the operators return fresh arrays, so the updates accumulate in place
    tend = advect_scalar(state.n, state.u).values
    tend += taxis_flux_div(state.n, (wx, wy)).values
    tend *= dt
    n_new = ScalarField(g, np.subtract(state.n.values, tend, out=tend))
    clamped = _clamp_negative(n_new, t_new)

    substeps = max(1, int(math.ceil(dt / _diffusive_dt(n_new, spec))))
    _diffusion_substeps(n_new.values, spec, dt / substeps, substeps, g)
    clamped += _clamp_negative(n_new, t_new)

    # --- (ii) signal update ---------------------------------------------------
    c_mid = advect_scalar(state.c, state.u).values
    c_mid *= dt
    np.subtract(state.c.values, c_mid, out=c_mid)
    decay = n_new.values * dt
    decay += 1.0
    c_mid /= decay
    c_new = ScalarField(g, poisson.helmholtz_cells(c_mid, dt))

    # --- (iii) velocity update -------------------------------------------------
    adv = advect_velocity(state.u)
    ux_star, uy_star = adv.ux, adv.uy
    ux_star *= dt
    np.subtract(state.u.ux, ux_star, out=ux_star)
    uy_star *= dt
    np.subtract(state.u.uy, uy_star, out=uy_star)
    ux_star[1:-1, :] = poisson.helmholtz_ux(ux_star[1:-1, :], dt)
    uy_star[:, 1:-1] = poisson.helmholtz_uy(uy_star[:, 1:-1], dt)
    phx, phy = spec.phi_gradient
    nv = n_new.values
    if phx != 0.0:
        force = nv[:-1, :] + nv[1:, :]
        force *= dt * phx * 0.5
        ux_star[1:-1, :] += force
    if phy != 0.0:
        force = nv[:, :-1] + nv[:, 1:]
        force *= dt * phy * 0.5
        uy_star[:, 1:-1] += force
    u_star = VectorField(g, ux_star, uy_star)
    u_star.enforce_no_penetration()
    u_new, _pressure = project(u_star, poisson)

    new_state = State(n_new, c_new, u_new, t_new)
    return new_state, StepInfo(dt=dt, substeps=substeps, clamped_mass=clamped)


def _diffusion_substeps(nv: np.ndarray, spec: ModelSpec, dt_sub: float, substeps: int, g):
    """Explicit conservative diffusion substeps nv += dt_sub * Lap_h D1_eps(nv), in place.

    The only n-diffusion path, for every diffusion law; its plain form,
    nonlinear_diffuse in tests/naive_operators.py, is the 5-point
    Laplacian of D1_eps.  The face flux is the difference Phi(b) - Phi(a)
    of the Kirchhoff potential Phi = D1_eps at the two cell values, so the
    fluxes telescope exactly.  Written in numpy against preallocated
    buffers since this loop dominates the run time.

    The loop advances w = scale * n + shift (model.kirchhoff_units) in
    place and converts back once at the end: the x-face update is
    w_a += P(w_b) - P(w_a), with dt_sub / hx^2 folded into P, and y faces
    take one more factor (hx/hy)^2 off square cells.  For m = 2, P(w) = w^2,
    so a substep is 7 whole-array passes: one square, two differences and
    four updates.  Only round-off differs from stepping n itself.

    The loop runs on the flat C-order view f of nv, where cell (i, j) is
    f[i*ny + j], so every difference is one contiguous loop: x faces pair
    f[k] with f[k + ny], y faces pair f[k] with f[k + 1].  The nx - 1
    y-face entries k = i*ny + ny - 1 pair the last cell of row i with the
    first of row i + 1; they are not faces, and their flux is set to zero
    on every substep.  Each cell gets the operations of the 2-D loop in the
    same order, plus adding that zero flux at the row ends, so the result
    is the same to the bit (only a -0.0 in the last column turns into
    +0.0).  nv must be C-contiguous, since the update is in place on its
    view: any other layout raises ValueError rather than updating a copy.
    """
    if not nv.flags.c_contiguous:
        raise ValueError("n-diffusion substeps need a C-contiguous density array")
    f = nv.reshape(-1)
    ny = g.ny
    scale, shift, potential = kirchhoff_units(spec, dt_sub / g.hx**2)
    ratio = (g.hx / g.hy) ** 2
    phi = np.empty_like(f)
    ax = np.empty(f.size - ny)
    ay = np.empty(f.size - 1)
    phi_xl, phi_xu, phi_yl, phi_yu = phi[:-ny], phi[ny:], phi[:-1], phi[1:]
    f_xl, f_xu, f_yl, f_yu = f[:-ny], f[ny:], f[:-1], f[1:]
    row_ends = ay[ny - 1::ny]
    f *= scale
    f += shift
    for _ in range(substeps):
        potential(f, phi)
        np.subtract(phi_xu, phi_xl, out=ax)
        np.subtract(phi_yu, phi_yl, out=ay)
        if ratio != 1.0:
            ay *= ratio
        row_ends.fill(0.0)
        np.add(f_xl, ax, out=f_xl)
        np.subtract(f_xu, ax, out=f_xu)
        np.add(f_yl, ay, out=f_yl)
        np.subtract(f_yu, ay, out=f_yu)
    f -= shift
    f /= scale


def _check_finite(state: State):
    """Raise SolverError naming the field and the entry (i, j) of the first
    non-finite value, in the order n, c, ux, uy."""
    for name, a in (("n", state.n.values), ("c", state.c.values), ("ux", state.u.ux), ("uy", state.u.uy)):
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise SolverError(f"non-finite state at t={state.t:.6g}: {name}[{i}, {j}] = {a[i, j]}")


def check_initial(state: State):
    """Raise ValueError, naming the field (n, c or u), unless `state` is an
    admissible initial state: finite, n >= 0 and not identically 0, c > 0,
    u discretely solenoidal with zero boundary-normal entries.  `run` calls
    it, and config.validate_config calls it on the configured state, so
    `validate` accepts exactly the initial states `run` accepts."""
    state.validate()
    if not state.n.values.any():
        raise ValueError("initial density n must not vanish identically")
    d = div(state.u)
    scale = max(1.0, max(state.u.max_speed()))
    if np.abs(d.values).max() > 1e-10 * scale / min(state.n.grid.hx, state.n.grid.hy):
        raise ValueError("initial velocity u is not discretely solenoidal")


def run(
    initial: State,
    spec: ModelSpec,
    controls: TimeControls,
    poisson: PoissonSolver,
    sinks=(),
    cadence: float | None = None,
) -> State:
    """Advance to t_end, invoking sinks at the record cadence.

    Sinks are called as sink(snapshot, clamp_total), all with the same
    read-only copy; the first call happens at the initial time and the
    last at the final time.  Steps are clipped so records land exactly on cadence
    ticks, which keeps time series from different runs comparable; a
    final time between ticks gets one more record.  A SolverError is
    prefixed with the index of the step that raised it, counted from 0.
    Fully deterministic.
    """
    check_initial(initial)
    state = initial
    clamp_total = 0.0

    def emit():
        if sinks:
            frozen = state.copy()
            for sink in sinks:
                sink(frozen, clamp_total)
        return state.t

    recorded_t = emit()
    if controls.t_end <= state.t:
        return state

    tick = 0
    next_tick = None
    if cadence is not None:
        if not (math.isfinite(cadence) and cadence > 0):
            raise ValueError(f"cadence must be finite and > 0, got {cadence}")
        tick = int(math.floor(state.t / cadence + 1e-12)) + 1
        next_tick = tick * cadence

    index = 0
    while state.t < controls.t_end - 1e-14:
        try:
            state, info = _step_impl(state, spec, controls, poisson, until=next_tick)
            _check_finite(state)
        except SolverError as exc:
            raise SolverError(f"step {index}: {exc}") from exc
        index += 1
        clamp_total += info.clamped_mass
        if next_tick is not None and state.t >= next_tick - 1e-12:
            recorded_t = emit()
            tick += 1
            next_tick = tick * cadence
    if state.t > recorded_t:
        emit()
    return state
