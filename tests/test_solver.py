import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemoflow.grid import ScalarField, State, VectorField, integrate, make_grid
from chemoflow.model import ModelSpec, PorousMedium, TabulatedDiffusion
from chemoflow.operators import PoissonSolver, div
from chemoflow.solver import SolverError, TimeControls, _clamp_negative, run, step


GRID = make_grid(32, 32, 1.0, 1.0)
SPEC = ModelSpec(
    diffusion=PorousMedium(2.0), gamma=0.5, s0_sensitivity=1.0,
    phi_gradient=(0.0, -1.0), epsilon=0.05, L=2.0, M=1.5,
)
POISSON = PoissonSolver(GRID)


def bump_state(grid=GRID, peak_sigma=0.15):
    n = ScalarField.from_function(
        grid, lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * peak_sigma**2))
    )
    n.values /= integrate(n)
    c = ScalarField.from_function(
        grid, lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
    )
    return State(n, c, VectorField.zeros(grid), 0.0)


def random_state(grid, seed):
    r = np.random.default_rng(seed)
    n = ScalarField(grid, r.random((grid.nx, grid.ny)) * 2.0)
    c = ScalarField(grid, r.random((grid.nx, grid.ny)) + 0.2)
    u = VectorField.from_stream(
        grid, lambda x, y: 0.1 * np.sin(np.pi * x / grid.lx) * np.sin(np.pi * y / grid.ly)
    )
    return State(n, c, u, 0.0)


class TestStep:
    def test_zero_density_fixed_point(self):
        st_ = State(ScalarField.zeros(GRID), ScalarField.full(GRID, 1.0), VectorField.zeros(GRID), 0.0)
        out = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
        assert out.t > 0
        assert not out.n.values.any()
        assert np.allclose(out.c.values, 1.0, atol=1e-14)
        assert not out.u.ux.any() and not out.u.uy.any()

    def test_homogeneous_state_reduction(self):
        # uniform n stays exactly uniform, buoyancy is absorbed by the
        # projection, and c follows the implicit consumption product
        controls = TimeControls(t_end=1.0, dt_max=0.01)
        st_ = State(ScalarField.full(GRID, 1.0), ScalarField.full(GRID, 1.0), VectorField.zeros(GRID), 0.0)
        nsteps = 100
        for _ in range(nsteps):
            st_ = step(st_, SPEC, controls, POISSON)
        assert st_.t == pytest.approx(1.0, abs=1e-12)
        assert np.abs(st_.n.values - 1.0).max() < 1e-12
        assert max(np.abs(st_.u.ux).max(), np.abs(st_.u.uy).max()) < 1e-10
        exact_product = (1.0 + 0.01) ** (-nsteps)
        assert np.abs(st_.c.values - exact_product).max() < 1e-12
        # product formula tracks the continuum decay to first order in dt
        assert abs(st_.c.values.max() / math.exp(-1.0) - 1.0) <= 5 * 0.01

    def test_one_step_mass_conservation(self):
        st_ = bump_state()
        out = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
        m0, m1 = integrate(st_.n), integrate(out.n)
        assert abs(m1 - m0) / m0 <= 1e-13

    def test_signal_max_principle_per_step(self):
        st_ = bump_state()
        for _ in range(20):
            out = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
            assert out.c.values.max() <= st_.c.values.max() + 1e-12
            lower = st_.c.values.min() / (1.0 + (out.t - st_.t) * st_.n.values.max())
            assert out.c.values.min() >= lower * (1.0 - 1e-12)
            st_ = out

    def test_density_stays_nonnegative(self):
        st_ = bump_state()
        for _ in range(30):
            st_ = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
            assert st_.n.values.min() >= 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_invariants_on_random_states(self, seed):
        st_ = random_state(GRID, seed)
        out = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
        assert out.n.values.min() >= 0.0
        assert out.c.values.max() <= st_.c.values.max() + 1e-12
        assert out.c.values.min() > 0.0
        m0 = integrate(st_.n)
        assert abs(integrate(out.n) - m0) <= 1e-13 * max(m0, 1.0)

    def test_divergence_after_step(self):
        st_ = bump_state()
        out = step(st_, SPEC, TimeControls(t_end=1.0), POISSON)
        scale = max(1e-30, max(out.u.max_speed()))
        assert np.abs(div(out.u).values).max() <= 10 * 1e-10 * max(scale, 1.0)

    def test_clamp_guard(self):
        f = ScalarField(GRID, np.full((32, 32), 1.0))
        f.values[0, 0] = -1e-16
        added = _clamp_negative(f)
        assert added == pytest.approx(1e-16 * GRID.cell_area)
        assert f.values.min() == 0.0
        f.values[0, 0] = -1e-9
        with pytest.raises(SolverError, match="undershoot"):
            _clamp_negative(f)


class TestRun:
    def test_zero_horizon_returns_initial(self):
        st_ = bump_state()
        out = run(st_, SPEC, TimeControls(t_end=0.0), POISSON)
        assert out is st_

    def test_pure_diffusion_decays_to_mean(self):
        spec = ModelSpec(diffusion=PorousMedium(2.0), gamma=0.5, s0_sensitivity=0.0,
                         phi_gradient=(0.0, 0.0), epsilon=0.05, L=2.0, M=1.5)
        st_ = bump_state()
        sups = []
        sink = lambda s, clamp: sups.append(np.abs(s.n.values - 1.0).max())
        run(st_, spec, TimeControls(t_end=0.4), POISSON, sinks=[sink], cadence=0.1)
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.05 * sups[0]

    def test_buoyancy_needs_inhomogeneity(self):
        def kinetic(state):
            return float(np.sum(state.u.ux**2) + np.sum(state.u.uy**2))

        uniform = State(ScalarField.full(GRID, 1.0), ScalarField.full(GRID, 1.0),
                        VectorField.zeros(GRID), 0.0)
        out_u = run(uniform, SPEC, TimeControls(t_end=0.05), POISSON)
        out_b = run(bump_state(), SPEC, TimeControls(t_end=0.05), POISSON)
        assert kinetic(out_u) < 1e-28
        assert kinetic(out_b) > 1e-12

    def test_deterministic_replay(self):
        frames1, frames2 = [], []
        for frames in (frames1, frames2):
            sink = lambda s, clamp, fr=frames: fr.append(
                (s.t, s.n.values.tobytes(), s.c.values.tobytes(), s.u.ux.tobytes())
            )
            run(bump_state(), SPEC, TimeControls(t_end=0.2), POISSON, sinks=[sink], cadence=0.05)
        assert frames1 == frames2

    def test_sink_snapshots_are_frozen(self):
        seen = []
        run(bump_state(), SPEC, TimeControls(t_end=0.05), POISSON,
            sinks=[lambda s, c: seen.append(s)], cadence=0.05)
        with pytest.raises(ValueError):
            seen[0].n.values[0, 0] = 9.0

    def test_initial_data_rejected(self):
        st_ = bump_state()
        st_.n.values[:] = 0.0
        with pytest.raises(ValueError, match="vanish identically"):
            run(st_, SPEC, TimeControls(t_end=0.1), POISSON)

    def test_explicit_cu_variant_matches_semi_implicit(self):
        # same dt cap for both; the treatments differ by the O(dt) splitting error
        a = run(bump_state(), SPEC,
                TimeControls(t_end=0.02, dt_max=5e-4, cu_diffusion="semi-implicit"), POISSON)
        b = run(bump_state(), SPEC,
                TimeControls(t_end=0.02, dt_max=5e-4, cu_diffusion="explicit"), POISSON)
        assert np.abs(a.c.values - b.c.values).max() < 5e-3
        assert np.abs(a.n.values - b.n.values).max() < 1e-2

    def test_records_land_on_ticks(self):
        times = []
        run(bump_state(), SPEC, TimeControls(t_end=0.2), POISSON,
            sinks=[lambda s, c: times.append(s.t)], cadence=0.05)
        assert times == pytest.approx([0.0, 0.05, 0.10, 0.15, 0.20], abs=1e-12)


class TestTimeControls:
    def test_cfl_range(self):
        with pytest.raises(ValueError):
            TimeControls(t_end=1.0, cfl=0.0)

    def test_unknown_cu_treatment(self):
        with pytest.raises(ValueError):
            TimeControls(t_end=1.0, cu_diffusion="imex")
