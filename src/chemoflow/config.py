"""INI run configuration: parsing, hypothesis validation, initial data.

Sections: [grid], [model], [initial], [time], [output], optional [run]
(seed: checked to be an integer, then ignored; no RunConfig field holds
it).  Unknown sections or keys are rejected.  Validation names the
violated admissibility condition, and each hypothesis is checked once:
the ranges of gamma, epsilon and m by the model types that hold them
(model.ModelSpec, model.PorousMedium), the reach of the threshold level
L by model.threshold_s0, the time controls by solver.TimeControls, the
built initial state by solver.check_initial, the function `run` calls,
and here the bounds ||c0||_inf <= M, for gamma > 1/2 ||n0||_1 <= M,
min c0 >= C0_FLOOR, the first step's CFL dt (as the solver has it) >= DT_MIN
and max|div u0| <= DIV_U_TOL.

Initial data comes from a fixed catalogue instead of free-form
expressions, so the provenance of every test state is auditable:

    n0 = constant: value=1.0
    n0 = gaussian: mass=1.0, sigma=0.15, x0=0.5, y0=0.5   (sigma > 0;
         normalized to the requested discrete mass exactly, so the
         Gaussian must not vanish on every cell)
    c0 = constant: value=1.0
    c0 = cosine: base=1.0, amp=0.5, kx=1, ky=1
    u0 = zero
    u0 = vortex: amp=0.1, kx=1, ky=1    (stream-function curl; exactly
         solenoidal with no-penetration walls)
"""

from __future__ import annotations

import configparser
import io as _io
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, State, VectorField, integrate, make_grid
from .io import snapshot_name
from .model import ModelSpec, PorousMedium, TabulatedDiffusion, threshold_s0
from .operators import div, taxis_face_velocity
from .solver import DT_MIN, TimeControls, _advective_dt, check_initial

__all__ = ["ConfigError", "RunConfig", "parse_config", "validate_config", "reference_config_text"]


class ConfigError(ValueError):
    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


_SCHEMA = {
    "grid": {"nx", "ny", "lx", "ly"},
    "model": {
        "diffusion", "m", "table_knots", "table_values", "gamma",
        "s0_sensitivity", "sensitivity_kind", "rotation_angle",
        "phi_gradient", "epsilon", "l", "m_bound",
    },
    "initial": {"n0", "c0", "u0"},
    "time": {"t_end", "cfl", "dt_max"},
    "output": {"cadence", "directory", "snapshots"},
    "run": {"seed"},
}

# smallest admissible min c0: diagnostics.record divides by c**5, which
# underflows below tiny**(1/5) = 2.9e-62 (to 0, making the record nan, by 2e-65)
C0_FLOOR = float(np.finfo(float).tiny) ** 0.2

# largest max|div u| a record may read: cli._monitors fails a run above it,
# so validate_config refuses a u0 whose round-off already exceeds it
DIV_U_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    spec: ModelSpec
    controls: TimeControls
    n0_kind: str
    c0_kind: str
    u0_kind: str
    cadence: float
    directory: str
    snapshots: bool

    def initial_state(self) -> State:
        # an overflow or nan leaves non-finite entries, which check_initial names
        with np.errstate(over="ignore", invalid="ignore"):
            n0 = _build_scalar(self.grid, "n0", self.n0_kind, normalize_mass=True)
            c0 = _build_scalar(self.grid, "c0", self.c0_kind)
            u0 = _build_velocity(self.grid, self.u0_kind)
        return State(n0, c0, u0, 0.0)


def _parse_catalogue(field: str, text: str):
    head, _, rest = text.partition(":")
    kind = head.strip().lower()
    params = {}
    rest = rest.strip()
    if rest:
        for part in rest.split(","):
            k, _, v = part.partition("=")
            if not _:
                raise ConfigError(f"malformed catalogue parameter {part.strip()!r}")
            try:
                params[k.strip()] = float(v)
            except ValueError:
                raise ConfigError(f"{field} {kind} parameter {k.strip()} must be numeric; "
                                  f"got {v.strip()!r}") from None
    return kind, params


def _require_params(kind, params, allowed):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)} for initial kind {kind!r}")


def _build_scalar(grid: Grid, field: str, text: str, normalize_mass: bool = False) -> ScalarField:
    kind, p = _parse_catalogue(field, text)
    if kind == "constant":
        _require_params(kind, p, {"value"})
        return ScalarField.full(grid, p.get("value", 1.0))
    if kind == "gaussian":
        _require_params(kind, p, {"mass", "sigma", "x0", "y0"})
        mass = p.get("mass", 1.0)
        sigma = p.get("sigma", 0.15)
        x0 = p.get("x0", 0.5 * grid.lx)
        y0 = p.get("y0", 0.5 * grid.ly)
        if not sigma > 0.0:
            raise ConfigError(f"{field} gaussian parameter sigma must be > 0; got {sigma}")
        f = ScalarField.from_function(
            grid, lambda x, y: np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * sigma**2))
        )
        if normalize_mass:
            total = integrate(f)
            if total == 0.0:
                raise ConfigError(f"{field} gaussian with sigma={sigma} underflows to 0 on every "
                                  f"cell, so its discrete mass cannot be normalized")
            f.values *= mass / total
        else:
            f.values *= mass / (2.0 * math.pi * sigma**2)
        return f
    if kind == "cosine":
        _require_params(kind, p, {"base", "amp", "kx", "ky"})
        base = p.get("base", 1.0)
        amp = p.get("amp", 0.5)
        kx = p.get("kx", 1.0)
        ky = p.get("ky", 1.0)
        return ScalarField.from_function(
            grid,
            lambda x, y: base + amp * np.cos(kx * np.pi * x / grid.lx) * np.cos(ky * np.pi * y / grid.ly),
        )
    raise ConfigError(f"unknown scalar initial kind {kind!r}")


def _build_velocity(grid: Grid, text: str) -> VectorField:
    kind, p = _parse_catalogue("u0", text)
    if kind == "zero":
        _require_params(kind, p, set())
        return VectorField.zeros(grid)
    if kind == "vortex":
        _require_params(kind, p, {"amp", "kx", "ky"})
        amp = p.get("amp", 0.1)
        kx = p.get("kx", 1.0)
        ky = p.get("ky", 1.0)
        return VectorField.from_stream(
            grid,
            lambda x, y: amp * np.sin(kx * np.pi * x / grid.lx) * np.sin(ky * np.pi * y / grid.ly),
        )
    raise ConfigError(f"unknown velocity initial kind {kind!r}")


def _floats_list(text: str):
    return tuple(float(v) for v in text.replace(";", ",").split(","))


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError naming every violated condition."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_file(_io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    violations = []
    for section in parser.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                violations.append(f"unknown key {key!r} in section [{section}]")
    if violations:
        raise ConfigError(violations)

    def get(section, key, default=None, cast=float):
        if cast is None or not parser.has_option(section, key):
            return parser.get(section, key, fallback=default)
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be numeric; got {raw!r}") from None

    def get_int(section, key, default):
        value = get(section, key, default)
        if not float(value).is_integer():
            raise ConfigError(f"[{section}] {key} must be an integer; got {parser.get(section, key)!r}")
        return int(value)

    try:
        grid = make_grid(
            get_int("grid", "nx", 64), get_int("grid", "ny", 64),
            get("grid", "lx", 1.0), get("grid", "ly", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    diff_kind = get("model", "diffusion", "porous_medium", cast=None) or "porous_medium"
    try:
        if diff_kind.strip().lower() == "porous_medium":
            diffusion = PorousMedium(get("model", "m", 2.0))
        elif diff_kind.strip().lower() == "tabulated":
            diffusion = TabulatedDiffusion(
                get("model", "table_knots", (0.0, 1.0), cast=_floats_list),
                get("model", "table_values", (1.0, 1.0), cast=_floats_list),
            )
        else:
            raise ConfigError(f"unknown diffusion kind {diff_kind!r}")
        spec = ModelSpec(
            diffusion=diffusion,
            gamma=get("model", "gamma", 0.5),
            s0_sensitivity=get("model", "s0_sensitivity", 1.0),
            sensitivity_kind=(get("model", "sensitivity_kind", "isotropic", cast=None) or "isotropic").strip(),
            rotation_angle=get("model", "rotation_angle", 0.0),
            phi_gradient=get("model", "phi_gradient", (0.0, 0.0), cast=_floats_list),
            epsilon=get("model", "epsilon", 0.05),
            L=get("model", "l", 1.0),
            M=get("model", "m_bound", 1.0),
        )
        controls = TimeControls(
            t_end=get("time", "t_end", 1.0),
            dt_max=get("time", "dt_max", TimeControls.dt_max),
            cfl=get("time", "cfl", TimeControls.cfl),
        )
        get_int("run", "seed", 0)  # integer-checked, never read
        snapshots = get("output", "snapshots", "false", cast=None).lower()
        if snapshots not in parser.BOOLEAN_STATES:
            raise ConfigError(f"[output] snapshots must be one of 1/yes/true/on or 0/no/false/off; "
                              f"got {snapshots!r}")
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(
        grid=grid,
        spec=spec,
        controls=controls,
        n0_kind=get("initial", "n0", "constant: value=1.0", cast=None),
        c0_kind=get("initial", "c0", "constant: value=1.0", cast=None),
        u0_kind=get("initial", "u0", "zero", cast=None),
        cadence=get("output", "cadence", 0.05),
        directory=get("output", "directory", "out", cast=None) or "out",
        snapshots=parser.BOOLEAN_STATES[snapshots],
    )
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _snapshot_clash(cadence: float, t_end: float):
    """Two consecutive record times (0, the ticks k * cadence, t_end) whose
    snapshot names agree, or None.  Names keep six decimals, so ticks agree
    only if cadence < 1e-6, first at k = floor(0.5e-6 / (1e-6 - cadence))."""
    if cadence < 1e-6:
        k = math.floor(0.5e-6 / (1e-6 - cadence))
        a, b = k * cadence, (k + 1) * cadence
        if b <= t_end and snapshot_name(a) == snapshot_name(b):
            return a, b
    last = math.floor(t_end / cadence + 1e-12) * cadence
    if last < t_end and snapshot_name(last) == snapshot_name(t_end):
        return last, t_end
    return None


def validate_config(cfg: RunConfig):
    """Admissibility checks; returns a list of named violations (empty if OK)."""
    spec = cfg.spec
    violations = []
    if not (math.isfinite(cfg.cadence) and cfg.cadence > 0):
        violations.append(f"output cadence must be finite and > 0; got {cfg.cadence}")
    elif cfg.snapshots and (clash := _snapshot_clash(cfg.cadence, cfg.controls.t_end)):
        violations.append(f"snapshots at t={clash[0]!r} and t={clash[1]!r} would share the file "
                          f"{snapshot_name(clash[1])}; snapshot names resolve t to 1e-6")
    try:
        threshold_s0(spec)
    except ValueError as exc:
        violations.append(f"diffusion threshold condition failed: {exc}")
    try:
        state = cfg.initial_state()
        check_initial(state)
    except ValueError as exc:
        violations.append(f"initial data rejected: {exc}")
        return violations
    n0, c0 = state.n, state.c
    cmax = float(c0.values.max())
    if cmax > spec.M * (1.0 + 1e-12):
        violations.append(f"requires ||c0||_inf <= M; got {cmax:.6g} > M = {spec.M:.6g}")
    if (cmin := float(c0.values.min())) < C0_FLOOR:
        violations.append(f"requires min c0 >= {C0_FLOOR:.3g}, below which the record's c^5 "
                          f"underflows; got {cmin:.3g}")
    if (dt := _advective_dt(state, *taxis_face_velocity(n0, c0, spec), cfg.controls)) < DT_MIN:
        violations.append(f"the first step's CFL dt = {dt:.3e} is below DT_MIN = {DT_MIN:g}; "
                          f"the initial velocity or taxis drift is too fast for the grid")
    elif (d := float(np.abs(div(state.u).values).max())) > DIV_U_TOL:  # a u0 too fast is named once
        violations.append(f"requires max|div u0| <= {DIV_U_TOL:g}, the incompressibility monitor's bound; "
                          f"got {d:.3g}")
    if spec.gamma > 0.5:
        mass = integrate(n0)
        if mass > spec.M * (1.0 + 1e-12):
            violations.append(
                f"gamma > 1/2 additionally requires ||n0||_L1 <= M; got {mass:.6g} > M = {spec.M:.6g}"
            )
    return violations


def reference_config_text(
    gamma: float = 0.5,
    epsilon: float = 0.05,
    t_end: float = 10.0,
    nx: int = 64,
    ny: int = 64,
    n0: str = "gaussian: mass=1.0, sigma=0.15, x0=0.5, y0=0.5",
    c0: str = "cosine: base=1.0, amp=0.5, kx=1, ky=1",
    u0: str = "zero",
    cadence: float = 0.05,
    dt_max: float = 0.01,
) -> str:
    """Benchmark configuration: unit square, buoyancy (0, -1), M = 1.5."""
    return f"""\
[grid]
nx = {nx}
ny = {ny}
lx = 1.0
ly = 1.0

[model]
diffusion = porous_medium
m = 2.0
gamma = {gamma}
s0_sensitivity = 1.0
sensitivity_kind = isotropic
phi_gradient = 0.0, -1.0
epsilon = {epsilon}
l = 2.0
m_bound = 1.5

[initial]
n0 = {n0}
c0 = {c0}
u0 = {u0}

[time]
t_end = {t_end}
cfl = 0.4
dt_max = {dt_max}

[output]
cadence = {cadence}
directory = out
snapshots = false

[run]
seed = 0
"""
