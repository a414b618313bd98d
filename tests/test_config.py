import re

import numpy as np
import pytest

from chemoflow.config import (
    ConfigError,
    _snapshot_clash,
    parse_config,
    reference_config_text,
    validate_config,
)
from chemoflow.grid import integrate
from chemoflow.io import snapshot_name
from chemoflow.model import PorousMedium, TabulatedDiffusion
from chemoflow.operators import div

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

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[grid\nnx = 4\n")

    def test_epsilon_out_of_range_for_run(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(MINIMAL.replace("epsilon = 0.1", "epsilon = 0.0"))

    def test_m_above_two_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("m = 2.0", "m = 2.5"))

    def test_signal_bound_checked(self):
        bad = MINIMAL.replace("c0 = constant: value=1.0", "c0 = constant: value=5.0")
        with pytest.raises(ConfigError, match="c0"):
            parse_config(bad)

    @pytest.mark.parametrize("key,value", [
        ("t_end", "nan"), ("t_end", "inf"), ("dt_max", "nan"),
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

    def test_unknown_catalogue_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            parse_config(MINIMAL.replace("n0 = constant: value=1.0", "n0 = constant: mass=1"))


class TestValidateList:
    def test_collects_multiple_violations(self):
        cfg = parse_config(MINIMAL)
        bad = cfg.__class__(**{**cfg.__dict__, "c0_kind": "constant: value=9.0"})
        problems = validate_config(bad)
        assert any("c0" in p for p in problems)
