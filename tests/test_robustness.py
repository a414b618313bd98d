"""Cross-cutting integration checks: non-square grids, rotated sensitivity,
the step's invariants for every diffusion law, unaligned cadences, and
CLI-level determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemoflow.config import parse_config
from chemoflow.grid import ScalarField, State, VectorField, integrate, make_grid
from chemoflow import solver
from chemoflow.model import ModelSpec, PorousMedium, TabulatedDiffusion, inf_D_eps
from chemoflow.operators import PoissonSolver, div
from chemoflow.solver import TimeControls, _diffusive_dt, _step_impl, run

RECT = """\
[grid]
nx = 48
ny = 32
lx = 1.5
ly = 1.0

[model]
diffusion = porous_medium
m = 1.8
gamma = 0.4
s0_sensitivity = 1.0
sensitivity_kind = {kind}{angle}
phi_gradient = 0.0, -1.0
epsilon = 0.08
l = 1.0
m_bound = 2.0

[initial]
n0 = gaussian: mass=1.2, sigma=0.2, x0=0.9, y0=0.5
c0 = cosine: base=1.2, amp=0.4, kx=1, ky=1
u0 = vortex: amp=0.05, kx=2, ky=1

[time]
t_end = 0.3
cfl = 0.4
dt_max = 0.01
"""


def _run_and_monitor(text):
    cfg = parse_config(text)
    poisson = PoissonSolver(cfg.grid)
    masses, cmaxes, divs = [], [], []

    def sink(state, clamp):
        masses.append(integrate(state.n))
        cmaxes.append(state.c.values.max())
        divs.append(np.abs(div(state.u).values).max())
        assert state.n.values.min() >= 0.0
        assert state.c.values.min() > 0.0

    final = run(cfg.initial_state(), cfg.spec, cfg.controls, poisson,
                sinks=[sink], cadence=0.05)
    return final, masses, cmaxes, divs


class TestRectangularGrid:
    def test_invariants_hold(self):
        final, masses, cmaxes, divs = _run_and_monitor(
            RECT.format(kind="isotropic", angle="")
        )
        assert final.t == pytest.approx(0.3, abs=1e-12)
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]
        assert all(b <= a + 1e-12 for a, b in zip(cmaxes, cmaxes[1:]))
        assert max(divs) < 1e-10

    def test_rotated_sensitivity(self):
        final_r, masses, cmaxes, divs = _run_and_monitor(
            RECT.format(kind="rotation", angle="\nrotation_angle = 0.5")
        )
        final_i, _, _, _ = _run_and_monitor(RECT.format(kind="isotropic", angle=""))
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]
        assert all(b <= a + 1e-12 for a, b in zip(cmaxes, cmaxes[1:]))
        # the rotated flux moves mass differently from the isotropic one
        assert np.abs(final_r.n.values - final_i.n.values).max() > 1e-6


LAWS = {
    "m2": PorousMedium(2.0),
    "m1.8": PorousMedium(1.8),
    # D(0) = 0 and a peak between cell values 0 and 1
    "tabulated": TabulatedDiffusion((0.0, 0.5, 1.0, 2.0), (0.0, 4.0, 0.5, 1.0)),
}
STEP_GRID = make_grid(20, 14, 1.25, 1.0)
STEP_POISSON = PoissonSolver(STEP_GRID)


class TestStepInvariantsEveryLaw:
    @given(st.sampled_from(sorted(LAWS)), st.integers(0, 2**31 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_one_step_at_largest_cfl(self, law, seed, zero_fraction):
        g = STEP_GRID
        rng = np.random.default_rng(seed)
        nv = rng.random((g.nx, g.ny)) * 2.0
        nv[rng.random((g.nx, g.ny)) < zero_fraction] = 0.0
        nv[0, 0] = 1.0  # never identically zero
        c = rng.random((g.nx, g.ny)) + 0.2
        amp = rng.uniform(0.0, 0.5)
        u = VectorField.from_stream(g, lambda x, y: amp * np.sin(np.pi * x / g.lx) * np.sin(np.pi * y / g.ly))
        state = State(ScalarField(g, nv), ScalarField(g, c), u, 0.0)
        spec = ModelSpec(diffusion=LAWS[law], gamma=0.5, s0_sensitivity=1.0,
                         phi_gradient=(0.0, -1.0), epsilon=0.05, L=1.0, M=2.0)
        out, info = _step_impl(state, spec, TimeControls(t_end=1.0, cfl=0.5), STEP_POISSON)
        assert out.n.values.min() >= 0.0
        assert info.clamped_mass == 0.0
        m0 = integrate(state.n)
        assert abs(integrate(out.n) - m0) <= 1e-13 * m0
        assert out.c.values.max() <= c.max()


class TestSplitWhereDensityVanishes:
    """The heat half-steps of the split diffusion keep n in its range only
    up to the transforms' round-off, about 1e-16 of max n; so a step whose
    min n does not clear solver.HEAT_ROUNDOFF * max n keeps lam = 0, even
    where the split would halve the substeps, and nothing is clamped."""

    @pytest.mark.parametrize("law, peak, dt", [
        # max n <= eps: sup D_eps <= 2 inf D_eps with n touching 0; split, it clamped 8e-19
        (PorousMedium(2.0), 0.04, 1e-3),
        # a peak near 1e3, where the undershoot scales with max n: split, it undershot
        # -1.1e-13 and raised SolverError
        (TabulatedDiffusion((0.0, 1.0), (1.0, 1.5)), None, 1e-4),
    ])
    def test_zero_density_keeps_lam_zero(self, law, peak, dt, monkeypatch):
        g = make_grid(64, 64, 1.0, 1.0)
        spec = ModelSpec(diffusion=law, epsilon=0.05)
        if peak is None:  # a unit-mass bump of width 0.005, zero where it underflows
            n = ScalarField.from_function(g, lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 5e-5))
            n.values /= integrate(n)
        else:  # a cone of radius 0.3, zero outside it
            n = ScalarField.from_function(
                g, lambda x, y: peak * np.clip(1 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.09, 0, None))
        assert n.values.min() == 0.0
        state = State(n, ScalarField.full(g, 1.0), VectorField.zeros(g), 0.0)
        hi = float(n.values.max())
        lam = inf_D_eps(0.0, hi, spec)
        halved = math.ceil(dt / _diffusive_dt(0.0, hi, g, spec, lam))
        assert 2 * halved <= math.ceil(dt / _diffusive_dt(0.0, hi, g, spec))
        lams = []
        substeps = solver._diffusion_substeps
        monkeypatch.setattr(solver, "_diffusion_substeps",
                            lambda *a, **split: lams.append(split["lam"]) or substeps(*a, **split))
        out, info = _step_impl(state, spec, TimeControls(t_end=1.0, dt_max=dt), PoissonSolver(g))
        assert lams == [0.0]
        assert out.n.values.min() >= 0.0
        assert info.clamped_mass == 0.0
        assert integrate(out.n) == pytest.approx(integrate(n), rel=1e-13)


class TestCadence:
    def test_unaligned_final_time(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.1, L=1.0, M=2.0)
        state = State(ScalarField.full(grid, 1.0), ScalarField.full(grid, 1.0),
                      VectorField.zeros(grid), 0.0)
        times = []
        final = run(state, spec, TimeControls(t_end=0.1), PoissonSolver(grid),
                    sinks=[lambda s, c: times.append(s.t)], cadence=0.03)
        assert times == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1], abs=1e-12)
        assert final.t == pytest.approx(0.1, abs=1e-12)


class TestCliDeterminism:
    def test_two_invocations_byte_identical(self, tmp_path):
        from chemoflow.cli import main
        from config_variants import reference_config

        cfg = tmp_path / "run.ini"
        cfg.write_text(reference_config(t_end=0.15, nx=16, ny=16, cadence=0.05))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--output", str(out1)]) == 0
        assert main(["run", str(cfg), "--output", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
