"""INI run configuration: parsing, hypothesis validation, initial data.

Sections: [grid], [model], [initial], [time], [output], optional [run].
_KEYS declares each key once, with its cast and default, and parse_config
reads every key it declares.  An unknown section or key ([DEFAULT]
included: it is a section like any other), an empty value
and a key the configured kind would ignore (_READ_UNDER) are violations,
so an accepted key is a read key; the one exception is [run] seed,
checked to be an integer, then discarded.  Validation names the violated
admissibility condition, and each hypothesis is checked once: the ranges
of gamma, epsilon and m by the model types that hold them
(model.ModelSpec, model.PorousMedium), the reach of the threshold level
L by model.threshold_s0, the time controls by solver.TimeControls, the
built initial state by solver.check_initial, the function `run` calls,
and here the bounds ||c0||_inf <= M, for gamma > 1/2 ||n0||_1 <= M,
min c0 >= C0_FLOOR, the first step's CFL dt (as the solver has it) >= DT_MIN
and max|div u0| <= DIV_U_TOL.

Initial data comes from a fixed catalogue (_CATALOGUE, which holds each
parameter's default) instead of free-form expressions, so the provenance
of every test state is auditable:

    n0, c0 = constant: value=1.0
             gaussian: mass=1.0, sigma=0.15, x0, y0  (sigma > 0; x0, y0
                 default to the domain centre; n0 is normalized to the
                 requested discrete mass exactly, so it must not vanish
                 on every cell)
             cosine: base=1.0, amp=0.5, kx=1, ky=1
    u0     = zero
             vortex: amp=0.1, kx=1, ky=1  (stream-function curl; exactly
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


# section -> key -> (cast, default); a tuple cast reads a list of numbers,
# and str.casefold reads a kind word in any case
_KEYS = {
    "grid": {"nx": (int, 64), "ny": (int, 64), "lx": (float, 1.0), "ly": (float, 1.0)},
    "model": {
        "diffusion": (str.casefold, "porous_medium"),
        "m": (float, 2.0),
        "table_knots": (tuple, (0.0, 1.0)),
        "table_values": (tuple, (1.0, 1.0)),
        "gamma": (float, ModelSpec.gamma),
        "s0_sensitivity": (float, ModelSpec.s0_sensitivity),
        "sensitivity_kind": (str.casefold, ModelSpec.sensitivity_kind),
        "rotation_angle": (float, ModelSpec.rotation_angle),
        "phi_gradient": (tuple, ModelSpec.phi_gradient),
        "epsilon": (float, ModelSpec.epsilon),
        "l": (float, ModelSpec.L),
        "m_bound": (float, ModelSpec.M),
    },
    "initial": {"n0": (str, "constant: value=1.0"), "c0": (str, "constant: value=1.0"), "u0": (str, "zero")},
    "time": {"t_end": (float, 1.0), "cfl": (float, TimeControls.cfl), "dt_max": (float, TimeControls.dt_max)},
    "output": {"cadence": (float, 0.05), "directory": (str, "out"), "snapshots": (bool, False)},
    # read and discarded: no RunConfig field holds it, but the benchmark's INI still sets it
    "run": {"seed": (int, 0)},
}

# [model] key -> (setting, the one kind of it that reads the key)
_READ_UNDER = {"m": ("diffusion", "porous_medium"), "table_knots": ("diffusion", "tabulated"),
               "table_values": ("diffusion", "tabulated"), "rotation_angle": ("sensitivity_kind", "rotation")}

# family -> initial kind -> parameter -> default; a None centres the gaussian
_CATALOGUE = {
    "scalar": {"constant": {"value": 1.0},
               "gaussian": {"mass": 1.0, "sigma": 0.15, "x0": None, "y0": None},
               "cosine": {"base": 1.0, "amp": 0.5, "kx": 1.0, "ky": 1.0}},
    "velocity": {"zero": {}, "vortex": {"amp": 0.1, "kx": 1.0, "ky": 1.0}},
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


def _parse_catalogue(field: str, family: str, text: str):
    """(kind, parameters) of `text`: every parameter of the kind, in the catalogue's order."""
    head, _, rest = text.partition(":")
    kind = head.strip().lower()
    params = {}
    for part in rest.split(",") if rest.strip() else ():
        k, _, v = part.partition("=")
        k = k.strip()
        if not _:
            raise ConfigError(f"malformed catalogue parameter {part.strip()!r}")
        if k in params:
            raise ConfigError(f"{field} {kind} parameter {k} is given twice")
        try:
            params[k] = float(v)
        except ValueError:
            raise ConfigError(f"{field} {kind} parameter {k} must be numeric; got {v.strip()!r}") from None
    if kind not in _CATALOGUE[family]:
        raise ConfigError(f"unknown {family} initial kind {kind!r}")
    defaults = _CATALOGUE[family][kind]
    if unknown := set(params) - set(defaults):
        raise ConfigError(f"unknown parameters {sorted(unknown)} for initial kind {kind!r}")
    return kind, {**defaults, **params}


def _build_scalar(grid: Grid, field: str, text: str, normalize_mass: bool = False) -> ScalarField:
    kind, p = _parse_catalogue(field, "scalar", text)
    if kind == "constant":
        return ScalarField.full(grid, p["value"])
    if kind == "cosine":
        base, amp, kx, ky = p.values()
        return ScalarField.from_function(
            grid,
            lambda x, y: base + amp * np.cos(kx * np.pi * x / grid.lx) * np.cos(ky * np.pi * y / grid.ly),
        )
    mass, sigma, x0, y0 = p.values()
    x0 = 0.5 * grid.lx if x0 is None else x0
    y0 = 0.5 * grid.ly if y0 is None else y0
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


def _build_velocity(grid: Grid, text: str) -> VectorField:
    kind, p = _parse_catalogue("u0", "velocity", text)
    if kind == "zero":
        return VectorField.zeros(grid)
    amp, kx, ky = p.values()
    return VectorField.from_stream(
        grid,
        lambda x, y: amp * np.sin(kx * np.pi * x / grid.lx) * np.sin(ky * np.pi * y / grid.ly),
    )


def _read(section: str, key: str, raw: str):
    """`raw` cast as _KEYS declares it; ConfigError names a value it cannot take."""
    cast = _KEYS[section][key][0]
    if cast in (str, str.casefold):
        return cast(raw)
    if cast is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key} must be one of 1/yes/true/on or 0/no/false/off; "
                              f"got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    try:
        value = tuple(float(v) for v in raw.replace(";", ",").split(",")) if cast is tuple else float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be numeric; got {raw!r}") from None
    if cast is int:
        if not value.is_integer():
            raise ConfigError(f"[{section}] {key} must be an integer; got {raw!r}")
        return int(value)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError naming every violated condition."""
    # no INI line can name the section "\n", so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="\n")
    try:
        parser.read_file(_io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    violations = []
    for section in parser.sections():
        if section not in _KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser[section].items():
            if key not in _KEYS[section]:
                violations.append(f"unknown key {key!r} in section [{section}]")
            elif not raw:
                violations.append(f"[{section}] {key} has no value")
    if violations:
        raise ConfigError(violations)
    v = {section: {key: _read(section, key, parser[section][key]) if parser.has_option(section, key)
                   else default for key, (_, default) in keys.items()}
         for section, keys in _KEYS.items()}

    g, m, i, o = (v[section] for section in ("grid", "model", "initial", "output"))
    try:
        grid = make_grid(g["nx"], g["ny"], g["lx"], g["ly"])
        if m["diffusion"] == "porous_medium":
            diffusion = PorousMedium(m["m"])
        elif m["diffusion"] == "tabulated":
            diffusion = TabulatedDiffusion(m["table_knots"], m["table_values"])
        else:
            raise ConfigError(f"unknown diffusion kind {m['diffusion']!r}")
        spec = ModelSpec(diffusion, m["gamma"], m["s0_sensitivity"], m["sensitivity_kind"],
                         m["rotation_angle"], m["phi_gradient"], m["epsilon"], m["l"], m["m_bound"])
        controls = TimeControls(**v["time"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ignored = [f"[model] {key} is read only under {setting} = {kind}; got {setting} = {m[setting]}"
               for key, (setting, kind) in _READ_UNDER.items()
               if parser.has_option("model", key) and m[setting] != kind]
    cfg = RunConfig(grid, spec, controls, i["n0"], i["c0"], i["u0"], o["cadence"], o["directory"], o["snapshots"])
    problems = ignored + validate_config(cfg)
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
