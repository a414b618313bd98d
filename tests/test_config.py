import importlib
import math
import pathlib
import re
import tempfile
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemoflow.cli import main
from chemoflow.config import (
    _KEYS,
    C0_FLOOR,
    DIV_U_TOL,
    ConfigError,
    _snapshot_clash,
    parse_config,
    reference_config_text,
    validate_config,
)
from chemoflow.diagnostics import record
from chemoflow.grid import integrate
from chemoflow.io import snapshot_name
from chemoflow.model import PorousMedium, TabulatedDiffusion, build_truncations, threshold_s0
from chemoflow.operators import PoissonSolver, div
from chemoflow.solver import SolverError, run

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MINIMAL = """\
[grid]
nx = 16
ny = 16
lx = 1.0
ly = 1.0

[model]
diffusion = porous_medium
m = 2.0
gamma = 0.5
epsilon = 0.1
l = 1.0
m_bound = 2.0

[initial]
n0 = constant: value=1.0
c0 = constant: value=1.0
u0 = zero

[time]
t_end = 0.1
"""


class TestParse:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.nx == 16
        assert isinstance(cfg.spec.diffusion, PorousMedium)
        assert cfg.spec.gamma == 0.5
        assert cfg.controls.t_end == 0.1
        assert cfg.cadence == 0.05  # default

    def test_reference_text_valid(self):
        cfg = parse_config(reference_config_text(t_end=0.2))
        assert cfg.grid.nx == 64
        assert cfg.spec.M == 1.5

    @pytest.mark.parametrize("old, new, key", [
        ("nx = 64", "nx = 64.9", "nx"),
        ("seed = 0", "seed = 2.7", "seed"),
    ])
    def test_fractional_integer_key_rejected(self, old, new, key):
        with pytest.raises(ConfigError, match=rf"{key} must be an integer; got '{new.split()[-1]}'"):
            parse_config(reference_config_text(t_end=0.2).replace(old, new))

    @pytest.mark.parametrize("old, new", [
        ("gamma = 0.5", "gamma = abc"),
        ("cadence = 0.05", "cadence = x"),
        ("lx = 1.0", "lx = one"),
        ("nx = 64", "nx = many"),
        ("phi_gradient = 0.0, -1.0", "phi_gradient = 0.0, down"),
    ])
    def test_non_numeric_value_named(self, old, new):
        key, value = (part.strip() for part in new.split("="))
        section = {"gamma": "model", "cadence": "output", "lx": "grid", "nx": "grid",
                   "phi_gradient": "model"}[key]
        with pytest.raises(ConfigError) as info:
            parse_config(reference_config_text(t_end=0.2).replace(old, new))
        assert info.value.violations == [f"[{section}] {key} must be numeric; got {value!r}"]

    def test_integral_float_accepted_as_integer(self):
        cfg = parse_config(reference_config_text(t_end=0.2).replace("nx = 64", "nx = 32.0"))
        assert cfg.grid.nx == 32

    @pytest.mark.parametrize("word, value", [("on", True), ("Yes", True), ("1", True),
                                             ("off", False), ("no", False), ("0", False)])
    def test_snapshots_boolean_words(self, word, value):
        text = reference_config_text(t_end=0.2).replace("snapshots = false", f"snapshots = {word}")
        assert parse_config(text).snapshots is value

    def test_snapshots_unknown_word_rejected(self):
        text = reference_config_text(t_end=0.2).replace("snapshots = false", "snapshots = maybe")
        with pytest.raises(ConfigError, match="snapshots must be one of .*; got 'maybe'"):
            parse_config(text)

    def test_gamma_too_large(self):
        with pytest.raises(ConfigError, match=r"\[0, 5/6\]"):
            parse_config(reference_config_text(gamma=0.9))

    def test_large_gamma_needs_mass_bound(self):
        text = reference_config_text(gamma=0.7, n0="gaussian: mass=2.0, sigma=0.15")
        with pytest.raises(ConfigError, match="n0"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[output]\nwibble = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[physics]\nx = 1\n")

    def test_default_section_is_one_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config(reference_config_text(t_end=0.2) + "\n[DEFAULT]\ngamma = 0.3\n")
        assert info.value.violations == ["unknown section [DEFAULT]"]

    @pytest.mark.parametrize("old, new", [
        ("diffusion = porous_medium", "diffusion = Porous_Medium"),
        ("sensitivity_kind = isotropic", "sensitivity_kind = Isotropic"),
        ("diffusion = porous_medium\nm = 2.0",
         "diffusion = TABULATED\ntable_knots = 0, 10\ntable_values = 2, 2"),
        ("sensitivity_kind = isotropic", "sensitivity_kind = ROTATION\nrotation_angle = 0.7"),
    ], ids=["porous_medium", "isotropic", "tabulated", "rotation"])
    def test_kind_words_in_any_case(self, old, new):
        text = reference_config_text(t_end=0.2).replace(old, new)
        assert parse_config(text) == parse_config(text.replace(new, new.lower()))

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[grid\nnx = 4\n")

    def test_epsilon_out_of_range_for_run(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(MINIMAL.replace("epsilon = 0.1", "epsilon = 0.0"))

    def test_m_above_two_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("exponent must lie in (1, 2], got 2.5")):
            parse_config(MINIMAL.replace("m = 2.0", "m = 2.5"))

    @pytest.mark.parametrize("m", ["1.0", "nan", "inf"])
    def test_m_one_or_non_finite_rejected(self, m):
        # PorousMedium's one comparison 1 < m <= 2 also rejects nan and inf
        with pytest.raises(ConfigError, match=re.escape("exponent must lie in (1, 2]")):
            parse_config(MINIMAL.replace("m = 2.0", f"m = {m}"))

    def test_signal_bound_checked(self):
        bad = MINIMAL.replace("c0 = constant: value=1.0", "c0 = constant: value=5.0")
        with pytest.raises(ConfigError, match="c0"):
            parse_config(bad)

    @pytest.mark.parametrize("key,value", [
        ("t_end", "nan"), ("t_end", "inf"), ("dt_max", "nan"), ("dt_max", "1e-300"),
        ("cadence", "0"), ("cadence", "-1"), ("cadence", "nan"),
    ])
    def test_time_controls_and_cadence_checked(self, key, value):
        values = {"t_end": "0.1", "dt_max": "0.01", "cadence": "0.05", key: value}
        text = MINIMAL.replace("t_end = 0.1", "t_end = {t_end}\ndt_max = {dt_max}\n\n"
                               "[output]\ncadence = {cadence}".format(**values))
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    def test_cfl_above_half_rejected(self):
        # upwind transport with a non-solenoidal taxis drift stays
        # nonnegative only for cfl <= 1/2; the message names the bound
        assert parse_config(MINIMAL.replace("t_end = 0.1", "t_end = 0.1\ncfl = 0.5")).controls.cfl == 0.5
        with pytest.raises(ConfigError, match=r"cfl must lie in \(0, 0\.5\]"):
            parse_config(MINIMAL.replace("t_end = 0.1", "t_end = 0.1\ncfl = 0.6"))

    @pytest.mark.parametrize("t_end, cadence, first, second", [
        (0.1000004, 0.05, 0.1, 0.1000004),  # the final time beside the last tick
        (3e-6, 4e-7, 0.0, 4e-7),  # two ticks below the name resolution
        (3e-6, 8e-7, 2 * 8e-7, 3 * 8e-7),  # the first clash two ticks in
    ])
    def test_snapshot_name_clash_rejected(self, t_end, cadence, first, second):
        text = reference_config_text(t_end=t_end, nx=16, ny=16, cadence=cadence)
        parse_config(text)  # no snapshots, no names
        with pytest.raises(ConfigError, match=re.escape(f"snapshots at t={first!r} and t={second!r}")):
            parse_config(text.replace("snapshots = false", "snapshots = true"))

    @pytest.mark.parametrize("t_end, cadence", [(0.1000006, 0.05), (1e-3, 1e-6), (2.5e-5, 1.7e-6)])
    def test_distinct_snapshot_names_accepted(self, t_end, cadence):
        text = reference_config_text(t_end=t_end, nx=16, ny=16, cadence=cadence)
        assert parse_config(text.replace("snapshots = false", "snapshots = true")).snapshots

    def test_snapshot_clash_matches_every_record_name(self):
        # every record time a run takes: 0, the ticks up to t_end, t_end
        rng = np.random.default_rng(11)
        clashes = 0
        for _ in range(3000):
            cadence = float(rng.choice([rng.uniform(5e-8, 1e-6), rng.uniform(1e-6, 1e-3), 0.05]))
            t_end = float(rng.uniform(0.0, min(300 * cadence, 0.3)))
            if rng.random() < 0.5:
                t_end = max(0.0, round(t_end / cadence) * cadence + float(rng.uniform(-1e-6, 1e-6)))
            times = [0.0]
            while (len(times)) * cadence <= t_end + 1e-12:
                times.append(min(len(times) * cadence, t_end))
            if times[-1] < t_end:
                times.append(t_end)
            names = [snapshot_name(t) for t in times]
            clash = _snapshot_clash(cadence, t_end)
            assert (clash is not None) == (len(set(names)) < len(names)), (cadence, t_end)
            if clash is not None:
                clashes += 1
                assert set(clash) <= set(times) and snapshot_name(clash[0]) == snapshot_name(clash[1])
        assert clashes > 500

    def test_tabulated_diffusion(self):
        text = MINIMAL.replace(
            "diffusion = porous_medium\nm = 2.0",
            "diffusion = tabulated\ntable_knots = 0, 1, 10\ntable_values = 2, 2, 2",
        )
        cfg = parse_config(text)
        assert isinstance(cfg.spec.diffusion, TabulatedDiffusion)

    def test_threshold_failure_named(self):
        text = MINIMAL.replace(
            "diffusion = porous_medium\nm = 2.0",
            "diffusion = tabulated\ntable_knots = 0, 10\ntable_values = 0.5, 0.5",
        )
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(text)


# (section, key) -> (the lines that make a kind read the key, an admissible
# value other than the default); every other key is at its default
READ_UNDER_KIND = {
    ("grid", "nx"): ("", "32"),
    ("grid", "ny"): ("", "32"),
    ("grid", "lx"): ("", "2.0"),
    ("grid", "ly"): ("", "2.0"),
    ("model", "diffusion"): ("", "tabulated"),
    ("model", "m"): ("", "1.5"),
    ("model", "table_knots"): ("diffusion = tabulated", "0, 2"),
    ("model", "table_values"): ("diffusion = tabulated", "2, 2"),
    ("model", "gamma"): ("", "0.25"),
    ("model", "s0_sensitivity"): ("", "2.0"),
    ("model", "sensitivity_kind"): ("", "rotation"),
    ("model", "rotation_angle"): ("sensitivity_kind = rotation", "0.7"),
    ("model", "phi_gradient"): ("", "0.0, -1.0"),
    ("model", "epsilon"): ("", "0.1"),
    ("model", "l"): ("", "2.0"),
    ("model", "m_bound"): ("", "2.0"),
    ("initial", "n0"): ("", "constant: value=0.5"),
    ("initial", "c0"): ("", "constant: value=0.5"),
    ("initial", "u0"): ("", "vortex: amp=0.1"),
    ("time", "t_end"): ("", "0.5"),
    ("time", "cfl"): ("", "0.25"),
    ("time", "dt_max"): ("", "0.005"),
    ("output", "cadence"): ("", "0.1"),
    ("output", "directory"): ("", "elsewhere"),
    ("output", "snapshots"): ("", "on"),
    ("run", "seed"): ("", "5"),
}


class TestKeyTable:
    """Every key _KEYS declares is read: accepted means read."""

    def test_cases_cover_the_table(self):
        assert set(READ_UNDER_KIND) == {(s, k) for s, keys in _KEYS.items() for k in keys}

    @pytest.mark.parametrize("section, key", sorted(READ_UNDER_KIND))
    def test_non_default_value_reaches_the_config(self, section, key):
        kind, value = READ_UNDER_KIND[section, key]
        base = f"[{section}]\n{kind}\n"
        cfg = parse_config(f"{base}{key} = {value}\n")
        if (section, key) == ("run", "seed"):
            assert cfg == parse_config(base)  # the one key read and discarded
        else:
            assert cfg != parse_config(base)

    @pytest.mark.parametrize("section, key", sorted(READ_UNDER_KIND))
    def test_empty_value_is_a_violation(self, section, key):
        text = re.sub(rf"(?m)^{key} = .*\n", "", reference_config_text(t_end=0.2))
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} =\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == [f"[{section}] {key} has no value"]

    @pytest.mark.parametrize("old, new, setting", [
        ("sensitivity_kind = isotropic", "sensitivity_kind = isotropic\nrotation_angle = 0.7",
         "rotation_angle is read only under sensitivity_kind = rotation; got sensitivity_kind = isotropic"),
        ("diffusion = porous_medium", "diffusion = tabulated\ntable_knots = 0, 10\ntable_values = 2, 2",
         "m is read only under diffusion = porous_medium; got diffusion = tabulated"),
        ("m = 2.0", "m = 2.0\ntable_knots = 0, 10",
         "table_knots is read only under diffusion = tabulated; got diffusion = porous_medium"),
        ("m = 2.0", "m = 2.0\ntable_values = 2, 2",
         "table_values is read only under diffusion = tabulated; got diffusion = porous_medium"),
    ], ids=["rotation_angle-isotropic", "m-tabulated", "table_knots-porous", "table_values-porous"])
    def test_key_the_kind_ignores_is_a_violation(self, old, new, setting):
        text = reference_config_text(t_end=0.2).replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == [f"[model] {setting}"]

    @pytest.mark.parametrize("workload", ["reference", "dilute_flow"])
    def test_benchmark_ini_parses(self, workload, monkeypatch):
        # it sets [run] seed, and m under porous_medium, and no angle under isotropic
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        text = importlib.import_module("workloads").make_inputs(workload, 0).config_text
        assert "seed = 0" in text and "m = 2.0" in text and "rotation_angle" not in text
        assert parse_config(text).snapshots


class TestInitialData:
    def test_gaussian_mass_exact(self):
        cfg = parse_config(reference_config_text(t_end=0.1))
        state = cfg.initial_state()
        assert integrate(state.n) == pytest.approx(1.0, abs=1e-14)
        assert state.n.values.min() >= 0.0

    def test_cosine_signal(self):
        cfg = parse_config(reference_config_text(t_end=0.1))
        state = cfg.initial_state()
        assert state.c.values.max() <= 1.5
        assert state.c.values.min() > 0.4

    def test_vortex_solenoidal(self):
        cfg = parse_config(reference_config_text(t_end=0.1, u0="vortex: amp=0.2, kx=1, ky=1"))
        state = cfg.initial_state()
        assert np.abs(div(state.u).values).max() < 1e-12
        assert state.u.normal_boundary_is_zero()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown scalar initial"):
            parse_config(MINIMAL.replace("n0 = constant: value=1.0", "n0 = blob: q=1"))

    @pytest.mark.parametrize("field, text, message", [
        ("n0", "gaussian: mass=abc, sigma=0.15", "n0 gaussian parameter mass must be numeric; got 'abc'"),
        ("c0", "cosine: base=1.0, amp=half", "c0 cosine parameter amp must be numeric; got 'half'"),
        ("u0", "vortex: amp=x", "u0 vortex parameter amp must be numeric; got 'x'"),
    ])
    def test_non_numeric_parameter_named(self, field, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(reference_config_text(t_end=0.2, **{field: text}))
        assert info.value.violations == [f"initial data rejected: {message}"]

    def test_repeated_parameter_named(self):
        # configparser rejects a repeated key; a repeated parameter would keep only its last value
        with pytest.raises(ConfigError) as info:
            parse_config(reference_config_text(t_end=0.2, n0="gaussian: mass=1.0, mass=0.5"))
        assert info.value.violations == ["initial data rejected: n0 gaussian parameter mass is given twice"]

    def test_unknown_catalogue_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            parse_config(MINIMAL.replace("n0 = constant: value=1.0", "n0 = constant: mass=1"))

    @pytest.mark.parametrize("field", ["n0", "c0"])
    @pytest.mark.parametrize("sigma", ["0", "-0.15", "nan"])
    def test_gaussian_sigma_must_be_positive(self, field, sigma):
        # the Gaussian exp(-r^2 / (2 sigma^2)) needs sigma > 0 for n0 and c0 alike
        text = reference_config_text(t_end=0.1, nx=8, ny=8, **{field: f"gaussian: sigma={sigma}"})
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == [
            f"initial data rejected: {field} gaussian parameter sigma must be > 0; got {float(sigma)}"]

    def test_gaussian_vanishing_on_the_grid_rejected(self):
        # on 8^2 the nearest cell centre is 1/16 from each axis of the bump,
        # so exp(-(2/256)/(2 sigma^2)) underflows to 0 on every cell
        text = reference_config_text(t_end=0.1, nx=8, ny=8, n0="gaussian: mass=1.0, sigma=0.001")
        with pytest.raises(ConfigError, match="underflows to 0 on every cell"):
            parse_config(text)
        assert parse_config(text.replace("sigma=0.001", "sigma=0.01")).initial_state().n.values.any()


class TestValidateMatchesRun:
    """validate_config checks the built initial state with solver.check_initial,
    the check `run` starts with, so a configuration `validate` accepts never
    has its initial state refused by `run`, and each refusal names its field."""

    @pytest.mark.parametrize("field, kind, message", [
        ("c0", "cosine: base=1.0, amp=0.5, kx=nan, ky=1", "signal c contains non-finite entries"),
        ("c0", "cosine: base=0.4, amp=0.5", "signal c must be > 0 entrywise"),
        ("u0", "vortex: amp=1e308", "velocity u contains non-finite entries"),
        ("n0", "gaussian: mass=nan", "density n contains non-finite entries"),
        ("n0", "gaussian: mass=-1.0", "density n must be >= 0 entrywise"),
        ("n0", "constant: value=0", "initial density n must not vanish identically"),
    ])
    def test_same_refusal_as_run(self, field, kind, message):
        base = parse_config(reference_config_text(t_end=0.01, nx=8, ny=8))
        cfg = dc_replace(base, **{f"{field}_kind": kind})
        assert validate_config(cfg) == [f"initial data rejected: {message}"]
        with pytest.raises(ValueError) as info:
            run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid))
        assert str(info.value) == message


class TestValidateMatchesFirstStepAndRecord:
    """validate_config computes the first step's CFL dt as the solver does,
    bounds c0 below where the record's c^5 underflows and div u0 by the
    incompressibility monitor's DIV_U_TOL, so `run` can take the first step
    and pass the first record of every configuration `validate` accepts."""

    @pytest.mark.parametrize("amp", ["1e12", "1e200"])
    def test_too_fast_initial_velocity_rejected(self, amp):
        base = parse_config(reference_config_text(t_end=0.01, nx=8, ny=8))
        cfg = dc_replace(base, u0_kind=f"vortex: amp={amp}")
        (problem,) = validate_config(cfg)
        assert re.fullmatch(r"the first step's CFL dt = \S+ is below DT_MIN = 1e-12; "
                            r"the initial velocity or taxis drift is too fast for the grid", problem)
        with pytest.raises(SolverError, match="step 0: stability violation"):
            run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid))
        assert validate_config(dc_replace(base, u0_kind="vortex: amp=1e6")) == []

    def test_signal_below_record_floor_rejected(self):
        base = parse_config(reference_config_text(t_end=0.01, nx=8, ny=8))
        table = build_truncations(base.spec, threshold_s0(base.spec))

        def with_c0(value):
            return dc_replace(base, c0_kind=f"constant: value={value!r}")

        at_floor = with_c0(C0_FLOOR)
        assert validate_config(at_floor) == []
        assert np.isfinite(record(at_floor.initial_state(), at_floor.spec, table).I_c6)
        for value in (float(np.nextafter(C0_FLOOR, 0.0)), 1e-300):
            assert validate_config(with_c0(value)) == [
                f"requires min c0 >= 2.95e-62, below which the record's c^5 underflows; got {value:.3g}"]
        far_below = with_c0(1e-300)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite diagnostics entry I_c4"):
            record(far_below.initial_state(), far_below.spec, table)

    def test_initial_divergence_above_monitor_bound_rejected(self, tmp_path, capsys):
        # an exactly solenoidal stream-function vortex: the round-off of its
        # discrete divergence grows with the amplitude, 2.98e-8 at amp 1e7 on 8^2
        path = tmp_path / "run.ini"
        path.write_text(reference_config_text(t_end=0.01, nx=8, ny=8, u0="vortex: amp=1e7"))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "VIOLATION: requires max|div u0| <= 1e-08, the incompressibility monitor's bound; got 2.98e-08"]
        assert DIV_U_TOL == 1e-8

    def test_initial_divergence_below_monitor_bound_passes_every_monitor(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(reference_config_text(t_end=0.01, nx=8, ny=8, u0="vortex: amp=1e6"))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[-1] == "all invariant monitors passed" and out.err == ""

    def test_shrunk_fast_vortex_at_t0_rejected(self, tmp_path, capsys):
        # what TestValidatedConfigsRun shrinks to without the div u0 check:
        # a 4 x 4 run to t_end = 0 whose one record fails the monitor
        path = tmp_path / "run.ini"
        path.write_text(SHRUNK_FAST_VORTEX)
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "VIOLATION: requires max|div u0| <= 1e-08, the incompressibility monitor's bound; got 1.49e-08"]
        path.write_text(SHRUNK_FAST_VORTEX.replace("amp=3e6", "amp=1e6"))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0


SHRUNK_FAST_VORTEX = """\
[grid]
nx = 4
ny = 4
lx = 0.5
ly = 0.5

[model]
diffusion = tabulated
table_knots = 0, 1, 3
table_values = 0, 1.0, 1.0
gamma = 0.0
s0_sensitivity = 0.0
sensitivity_kind = isotropic
phi_gradient = 0.0, 0.0
epsilon = 0.5
l = 1.0
m_bound = 1.0

[initial]
n0 = gaussian: mass=1.0, sigma=0.5, x0=0.0, y0=0.0
c0 = constant: value=1.0
u0 = vortex: amp=3e6, kx=1, ky=1

[time]
t_end = 0.0
cfl = 0.5
dt_max = 0.0078125

[output]
cadence = 0.03125
snapshots = on
"""


def _num(lo, hi):
    return st.floats(lo, hi).map(repr)


# rotation_angle is read only under sensitivity_kind = rotation
_SENSITIVITY = st.just("sensitivity_kind = isotropic") | _num(-math.pi, math.pi).map(
    lambda angle: f"sensitivity_kind = rotation\nrotation_angle = {angle}")


@st.composite
def run_ini(draw):
    """INI text over every kind of key at <= 16^2 and t_end <= 0.02.  A fast
    vortex (amp >= 1e5) takes t_end = 0, so its one record is the t = 0 one."""
    lx, ly = draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        law = f"diffusion = porous_medium\nm = {draw(_num(1.05, 2.0))}"
        top = 2.0
    else:
        top = draw(st.floats(0.05, 2.0))
        law = (f"diffusion = tabulated\ntable_knots = 0, 1, 3\ntable_values = "
               f"{draw(st.sampled_from(['0', '0.01']))}, {draw(_num(0.01, 1.0))}, {top!r}")
    if draw(st.booleans()):
        value = draw(st.floats(0.01, 2.0))
        n0, mass = f"constant: value={value!r}", value * lx * ly
    else:
        mass = draw(st.floats(0.1, 2.0))
        n0 = (f"gaussian: mass={mass!r}, sigma={draw(_num(0.05, 0.5))}, "
              f"x0={draw(_num(0.0, lx))}, y0={draw(_num(0.0, ly))}")
    base = draw(st.floats(0.2, 2.0))
    amp = draw(st.sampled_from([0.0]) | st.floats(-0.9 * base, 0.9 * base))
    if amp == 0.0:
        c0 = f"constant: value={base!r}"
    else:
        c0 = f"cosine: base={base!r}, amp={amp!r}, kx={draw(st.integers(0, 3))}, ky={draw(st.integers(0, 3))}"
    # M from 5 % below to twice above sup c0 and ||n0||_1, so most draws are admissible
    m_bound = max(base + abs(amp), mass) * draw(st.floats(0.95, 2.0))
    t_end = draw(_num(0.001, 0.02))
    kind = draw(st.sampled_from(["zero", "slow", "slow", "fast"]))
    if kind == "zero":
        u0 = "zero"
    else:
        speed = draw(_num(-10.0, 10.0) if kind == "slow" else st.sampled_from(["1e5", "1e6", "3e6", "1e7", "1e8"]))
        u0 = f"vortex: amp={speed}, kx={draw(st.integers(1, 3))}, ky={draw(st.integers(1, 3))}"
        t_end = t_end if kind == "slow" else "0.0"
    return f"""\
[grid]
nx = {draw(st.integers(4, 16))}
ny = {draw(st.integers(4, 16))}
lx = {lx}
ly = {ly}

[model]
{law}
gamma = {draw(_num(0.0, 5.0 / 6.0))}
s0_sensitivity = {draw(_num(0.0, 5.0))}
{draw(_SENSITIVITY)}
phi_gradient = {draw(_num(-2.0, 2.0))}, {draw(_num(-2.0, 2.0))}
epsilon = {draw(_num(0.01, 0.5))}
l = {draw(_num(0.01, top))}
m_bound = {m_bound!r}

[initial]
n0 = {n0}
c0 = {c0}
u0 = {u0}

[time]
t_end = {t_end}
cfl = {draw(_num(0.05, 0.5))}
dt_max = {draw(_num(1e-3, 1e-2))}

[output]
cadence = {draw(_num(0.002, 0.05))}
snapshots = {draw(st.sampled_from(["on", "off"]))}
"""


class TestValidatedConfigsRun:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(text=run_ini())
    def test_accepted_config_passes_monitors_and_replays(self, text):
        # every configuration `validate` accepts runs, passes every monitor
        # of `run` and writes the same bytes twice
        try:
            parse_config(text)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "run.ini")
            path.write_text(text)
            outputs = []
            for name in ("a", "b"):
                assert main(["run", str(path), "--output", str(path.parent / name)]) == 0
                outputs.append({f.name: f.read_bytes() for f in (path.parent / name).iterdir()})
        assert outputs[0] == outputs[1] and "timeseries.csv" in outputs[0]


def test_readme_ini_block_is_the_reference_config():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0]) == parse_config(reference_config_text(t_end=10.0))


class TestValidateList:
    def test_collects_multiple_violations(self):
        cfg = parse_config(MINIMAL)
        bad = cfg.__class__(**{**cfg.__dict__, "c0_kind": "constant: value=9.0"})
        problems = validate_config(bad)
        assert any("c0" in p for p in problems)
