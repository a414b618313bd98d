import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from config_variants import reference_config
import naive_operators as naive
from chemoflow import solver
from chemoflow.config import parse_config
from chemoflow.grid import ScalarField, State, VectorField, integrate, make_grid
from chemoflow.model import (
    D_eps_range, ModelSpec, PorousMedium, TabulatedDiffusion, eval_D_eps, kirchhoff_units,
)
from chemoflow.operators import PoissonSolver, div
from chemoflow.solver import SolverError, TimeControls, _clamp_negative, run


def step(*args):
    """One step of the scheme, without its plan."""
    return solver._step_impl(*args)[0]


def unsplit_dt(n, spec):
    """The largest substep of an unsplit diffusion of n: sized on sup D_eps over [min n, max n]."""
    _, sup = D_eps_range(float(n.values.min()), float(n.values.max()), spec)
    return solver._diffusive_dt(sup, n.grid)


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
        st_ = State(ScalarField.full(GRID, 0.0), ScalarField.full(GRID, 1.0), VectorField.zeros(GRID), 0.0)
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
        added = _clamp_negative(f, 0.0)
        assert added == pytest.approx(1e-16 * GRID.cell_area)
        assert f.values.min() == 0.0
        f.values[0, 0] = -1e-9
        with pytest.raises(SolverError, match="undershoot"):
            _clamp_negative(f, 0.0)

    def test_undershoot_names_time_cell_and_value(self):
        f = ScalarField(GRID, np.full((32, 32), 1.0))
        f.values[3, 17] = -2.5e-9
        f.values[4, 4] = -1e-16
        with pytest.raises(SolverError, match=r"-2\.500e-09 at cell \(3, 17\), t=0\.125"):
            _clamp_negative(f, 0.125)

    def test_substeps_monotone_on_diffused_density(self, monkeypatch):
        # a 1D cone in c drives taxis toward x = 1/2; at cfl = 0.5 one step
        # raises max n from 1 to 1.71 before it is diffused, and substeps
        # sized on the density before transport reach a number of 1.39.  A
        # shallower cone and a short step leave n in [0.90, 1.24], and the
        # substeps take the remainder D_eps - lam above lam = inf D_eps
        # between two heat half-steps.  Every substep taken reads its own
        # number off the potential's input.
        g = make_grid(15, 15, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.05, L=1.0, M=2.0)
        numbers, lams = [], []
        units = solver.kirchhoff_units

        def watched_units(spec, cx, lam=0.0):
            scale, shift, potential = units(spec, cx, lam)
            lams.append(lam)

            def watched(w, out):
                dmax = float(np.max(eval_D_eps((w - shift) / scale, spec)))
                numbers.append(cx * g.hx**2 * (dmax - lam) * (2 / g.hx**2 + 2 / g.hy**2))
                potential(w, out)
            return scale, shift, watched

        monkeypatch.setattr(solver, "kirchhoff_units", watched_units)
        for cone, dt_max, split in ((5.0, 1.0, False), (1.0, 0.01, True)):
            numbers.clear()
            lams.clear()
            c = ScalarField.from_function(g, lambda x, y: 1.0 + cone * (0.5 - np.abs(x - 0.5)) + 0.0 * y)
            st_ = State(ScalarField.full(g, 1.0), c, VectorField.zeros(g), 0.0)
            controls = TimeControls(t_end=1.0, dt_max=dt_max, cfl=0.5)
            out, info = solver._step_impl(st_, spec, controls, PoissonSolver(g))
            assert len(numbers) == info.substeps and (lams[0] > 0.0) == split
            assert max(numbers) <= solver.DIFFUSION_NUMBER * (1.0 + 1e-12)
            assert out.n.values.min() >= 0.0
            assert integrate(out.n) == pytest.approx(1.0, rel=1e-13)

    def test_spike_stays_positive_at_largest_cfl(self):
        # c has its minimum at the spike, so taxis drains the spike cell
        # through all four faces at once; at cfl = 1/2 its upwind update
        # reaches 0 and no lower (at 0.6 it went to -0.2)
        x0, y0 = GRID.xc()[16], GRID.yc()[16]
        nv = np.full((32, 32), 1e-3)
        nv[16, 16] = 1.0
        c = ScalarField.from_function(GRID, lambda x, y: 0.2 + np.abs(x - x0) + np.abs(y - y0))
        st_ = State(ScalarField(GRID, nv), c, VectorField.zeros(GRID), 0.0)
        out, info = solver._step_impl(st_, SPEC, TimeControls(t_end=1.0, cfl=0.5), POISSON)
        assert out.n.values.min() > 0.0
        assert info.clamped_mass == 0.0
        assert integrate(out.n) == pytest.approx(integrate(st_.n), rel=1e-13)


class TestDiffusionSubsteps:
    @pytest.mark.parametrize("diffusion", [
        PorousMedium(2.0), PorousMedium(1.8), TabulatedDiffusion((0.0, 0.5, 2.0), (0.2, 1.5, 0.7)),
    ])
    def test_one_substep_matches_operator(self, diffusion):
        g = make_grid(24, 16, 1.5, 1.0)
        spec = ModelSpec(diffusion=diffusion, epsilon=0.05)
        n = ScalarField(g, np.random.default_rng(3).random((24, 16)) * 2.0)
        dt_sub = 0.9 * unsplit_dt(n, spec)
        expected = n.values + dt_sub * naive.nonlinear_diffuse(n, spec).values
        nv = n.values.copy()
        solver._diffusion_substeps(nv, spec, dt_sub, 1, g)
        assert np.abs(nv - expected).max() <= 1e-13 * np.abs(expected).max()
        assert abs(nv.sum() - n.values.sum()) <= 1e-14 * n.values.sum()
        assert nv.min() >= 0.0

    @given(
        law=st.sampled_from([
            PorousMedium(1.01), PorousMedium(1.5), PorousMedium(2.0),
            TabulatedDiffusion((0.0, 1.0, 2.0), (0.0, 1.0, 0.5)),  # D(0) = 0
            TabulatedDiffusion((0.0, 0.5, 1.0), (0.1, 10.0, 1.0)),  # D peaks between cell values 0 and 1
        ]),
        epsilon=st.floats(1e-5, 0.1),
        nx=st.integers(4, 24), ny=st.integers(4, 24), ly=st.floats(0.5, 2.0),
        substeps=st.integers(1, 8), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_substeps_keep_range_and_mass(self, law, epsilon, nx, ny, ly, substeps, seed):
        g = make_grid(nx, ny, 1.0, ly)
        assume(g.hx != g.hy)
        spec = ModelSpec(diffusion=law, epsilon=epsilon)
        rng = np.random.default_rng(seed)
        n = ScalarField(g, rng.random((nx, ny)) * 2.0)
        n.values[rng.random((nx, ny)) < 0.3] = 0.0
        lo, hi, mass = n.values.min(), n.values.max(), n.values.sum()
        dt_sub = unsplit_dt(n, spec)
        nv = n.values.copy()
        solver._diffusion_substeps(nv, spec, dt_sub, substeps, g)
        assert nv.min() >= solver.NEGATIVE_DENSITY_TOL
        assert lo - 1e-14 * hi <= nv.min() and nv.max() <= hi * (1.0 + 1e-14)
        assert abs(nv.sum() - mass) <= 1e-14 * mass
        one = n.values.copy()
        solver._diffusion_substeps(one, spec, dt_sub, 1, g)
        expected = n.values + dt_sub * naive.nonlinear_diffuse(n, spec).values
        assert np.abs(one - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_substeps_sized_on_peak_between_cell_values(self):
        # tabulated D peaks at n = 1/2, between the cell values 0 and 1, so
        # D_eps at the face averages is far above D_eps at every cell
        g = make_grid(16, 16, 1.0, 1.0)
        spec = ModelSpec(diffusion=TabulatedDiffusion((0.0, 0.5, 1.0), (0.1, 10.0, 1.0)), epsilon=0.05)
        nv = np.zeros((16, 16))
        nv[::2, :] = 1.0
        st_ = State(ScalarField(g, nv), ScalarField.full(g, 1.0), VectorField.zeros(g), 0.0)
        out = step(st_, spec, TimeControls(t_end=1.0), PoissonSolver(g))
        assert out.n.values.min() >= 0.0
        assert integrate(out.n) == pytest.approx(integrate(st_.n), rel=1e-13)



class TestSplitDiffusion:
    def test_near_flat_density_splits(self, monkeypatch):
        # n within 0.1 % of 1 under a flat signal: lam = inf D_eps is most of
        # D_eps, so the split takes at most half the substeps, and ends near
        # the lam = 0 path
        g = make_grid(32, 32, 1.0, 1.0)
        st_ = bump_state(g)
        st_.n.values[...] = 1.0 + 0.001 * st_.n.values / st_.n.values.max()
        st_.n.values /= integrate(st_.n)
        st_.c.values[...] = 1.0
        controls = TimeControls(t_end=0.05, dt_max=0.01)
        calls = []  # (lam, substeps) of every step
        substeps = solver._diffusion_substeps

        def watched(nv, spec, dt_sub, count, g, **split):
            calls.append((split["lam"], count))
            substeps(nv, spec, dt_sub, count, g, **split)

        monkeypatch.setattr(solver, "_diffusion_substeps", watched)
        split = run(st_, SPEC, controls, PoissonSolver(g))
        split_calls, calls[:] = list(calls), []
        monkeypatch.setattr(solver, "D_eps_range", lambda lo, hi, spec: (0.0, D_eps_range(lo, hi, spec)[1]))
        plain = run(st_, SPEC, controls, PoissonSolver(g))
        assert all(lam > 0.0 for lam, _ in split_calls) and all(lam == 0.0 for lam, _ in calls)
        assert len(calls) == len(split_calls)
        assert all(2 * a <= b for (_, a), (_, b) in zip(split_calls, calls))
        assert np.abs(split.n.values - plain.n.values).max() <= 1e-6
        assert split.n.values.min() >= 0.0
        assert integrate(split.n) == pytest.approx(1.0, rel=1e-13)

    def test_dilute_gaussian_stays_unsplit_bitwise(self, monkeypatch):
        # a dilute_flow-like bump: D_eps runs from eps to several eps, so the
        # split would not halve the substeps, and the loop runs as before
        g = make_grid(64, 64, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(2.0), phi_gradient=(0.0, -1.0), epsilon=0.01, L=2.0, M=1.5)
        st_ = bump_state(g)
        st_.n.values *= 0.01
        unsplit = []
        substeps = solver._diffusion_substeps

        def both(nv, spec, dt_sub, count, g, **split):
            plain = nv.copy()
            substeps(plain, spec, dt_sub, count, g)
            substeps(nv, spec, dt_sub, count, g, **split)
            unsplit.append(split["lam"] == 0.0 and plain.tobytes() == nv.tobytes())

        monkeypatch.setattr(solver, "_diffusion_substeps", both)
        for _ in range(5):
            st_ = step(st_, spec, TimeControls(t_end=1.0, dt_max=1e-3), PoissonSolver(g))
        assert unsplit == [True] * 5

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 0.3), (0.2, 0.7), (0.6, 0.9), (0.5, 0.5), (0.8, 3.0)])
    def test_inf_below_nonmonotone_table(self, lo, hi):
        # D peaks at the knot 0.5 between the ends 0.1 and 1: the infimum sits
        # at an end, and the maximum inside
        spec = ModelSpec(diffusion=TabulatedDiffusion((0.0, 0.5, 1.0), (0.1, 10.0, 1.0)), epsilon=0.05)
        lam, _ = D_eps_range(lo, hi, spec)
        values = eval_D_eps(np.linspace(lo, hi, 10001), spec)
        assert lam <= values.min() and lam == pytest.approx(values.min(), rel=1e-12)


def _substeps_2d(nv, spec, dt_sub, substeps, g):
    """The 2-D form of the substep loop: the reference the flat loop must match to the bit."""
    scale, shift, potential = kirchhoff_units(spec, dt_sub / g.hx**2)
    ratio = (g.hx / g.hy) ** 2
    ax = np.empty((g.nx - 1, g.ny))
    ay = np.empty((g.nx, g.ny - 1))
    phi = np.empty_like(nv)
    nv *= scale
    nv += shift
    for _ in range(substeps):
        potential(nv, phi)
        np.subtract(phi[1:, :], phi[:-1, :], out=ax)
        np.subtract(phi[:, 1:], phi[:, :-1], out=ay)
        if ratio != 1.0:
            ay *= ratio
        nv[:-1, :] += ax
        nv[1:, :] -= ax
        nv[:, :-1] += ay
        nv[:, 1:] -= ay
    nv -= shift
    nv /= scale


PIN_LAWS = (PorousMedium(2.0), PorousMedium(1.8), TabulatedDiffusion((0.0, 0.5, 2.0), (0.2, 1.5, 0.7)),
            PorousMedium(1.05))


class TestFlatSubstepLoop:
    @pytest.mark.parametrize("diffusion, epsilon", [
        pytest.param(law, eps, id=f"diffusion{i}" + ("" if eps == 0.05 else "-eps1e-05"))
        for eps in (0.05, 1e-5) for i, law in enumerate(PIN_LAWS)
    ])
    @pytest.mark.parametrize("nx, ny, lx, ly", [
        (4, 4, 1.0, 1.0), (4, 9, 1.0, 1.0), (9, 4, 1.0, 1.0), (24, 16, 1.5, 1.0), (33, 65, 1.0, 1.0),
    ])
    def test_matches_2d_loop_bitwise(self, diffusion, epsilon, nx, ny, lx, ly):
        g = make_grid(nx, ny, lx, ly)
        spec = ModelSpec(diffusion=diffusion, epsilon=epsilon)
        rng = np.random.default_rng(nx * 100 + ny)
        n = ScalarField(g, rng.random((nx, ny)) * 2.0)
        n.values[rng.random((nx, ny)) < 0.3] = 0.0
        dt_sub = unsplit_dt(n, spec)
        flat = n.values.copy()
        ref = n.values.copy()
        solver._diffusion_substeps(flat, spec, dt_sub, 40, g)
        _substeps_2d(ref, spec, dt_sub, 40, g)
        assert flat.tobytes() == ref.tobytes()
        assert not np.array_equal(flat, n.values)

    def test_non_contiguous_density_rejected(self):
        g = make_grid(8, 6, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.05)
        for nv in (np.ones((6, 8)).T, np.ones((8, 12))[:, ::2], np.asfortranarray(np.ones((8, 6)))):
            before = nv.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                solver._diffusion_substeps(nv, spec, 1e-3, 1, g)
            assert (nv == before).all()


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
        seen, also_seen = [], []
        run(bump_state(), SPEC, TimeControls(t_end=0.05), POISSON,
            sinks=[lambda s, c: seen.append(s), lambda s, c: also_seen.append(s)], cadence=0.05)
        # one copy per record, shared by every sink
        assert len(seen) == len(also_seen) == 2
        assert all(a is b for a, b in zip(seen, also_seen))
        for arr in (seen[0].n.values, seen[0].c.values, seen[0].u.ux, seen[0].u.uy):
            with pytest.raises(ValueError):
                arr[0, 0] = 9.0

    def test_initial_data_rejected(self):
        st_ = bump_state()
        st_.n.values[:] = 0.0
        with pytest.raises(ValueError, match="vanish identically"):
            run(st_, SPEC, TimeControls(t_end=0.1), POISSON)

    def test_explicit_cu_variant_matches_semi_implicit(self, monkeypatch):
        # The semi-implicit run steps at dt_max = 5e-4.  Explicit Euler for
        # c and u (unit diffusivity) is stable only for dt <= cfl * h^2 / 2
        # with 1/h^2 = 1/hx^2 + 1/hy^2, which is 0.4 / 4096 = 9.765625e-5 on
        # this 32^2 unit grid, so the explicit run steps at that dt.  The two
        # differ by their O(dt) time errors.
        a = run(bump_state(), SPEC, TimeControls(t_end=0.02, dt_max=5e-4), POISSON)
        explicit = PoissonSolver(GRID)
        for name, route in (("helmholtz_cells", naive.explicit_cells),
                            ("helmholtz_ux", naive.explicit_ux),
                            ("helmholtz_uy", naive.explicit_uy)):
            monkeypatch.setattr(explicit, name, lambda b, alpha, f=route: f(GRID, b, alpha))
        b = run(bump_state(), SPEC, TimeControls(t_end=0.02, dt_max=9.765625e-5), explicit)
        assert np.abs(a.c.values - b.c.values).max() < 5e-3
        assert np.abs(a.n.values - b.n.values).max() < 1e-2

    @pytest.mark.parametrize("t_end, ticks", [(0.12, [0.0, 0.05, 0.10]), (0.02, [0.0])])
    def test_final_state_recorded_between_ticks(self, t_end, ticks):
        g = make_grid(16, 16, 1.0, 1.0)
        seen = []
        final = run(bump_state(g), SPEC, TimeControls(t_end=t_end), PoissonSolver(g),
                    sinks=[lambda s, c: seen.append(s)], cadence=0.05)
        assert [s.t for s in seen] == pytest.approx(ticks + [t_end], abs=1e-12)
        assert final.t == seen[-1].t
        assert (final.n.values == seen[-1].n.values).all()

    def test_solver_error_names_step(self, monkeypatch):
        calls = []
        substeps = solver._diffusion_substeps

        def undershoot_on_third_step(nv, spec, dt_sub, count, g, **split):
            substeps(nv, spec, dt_sub, count, g, **split)
            calls.append(count)
            if len(calls) == 3:
                nv[5, 7] = -1e-6

        monkeypatch.setattr(solver, "_diffusion_substeps", undershoot_on_third_step)
        with pytest.raises(SolverError, match=r"^step 2: density undershoot -1\.000e-06 at cell \(5, 7\)"):
            run(bump_state(), SPEC, TimeControls(t_end=0.2), POISSON)

    def test_non_finite_state_names_field_and_entry(self, monkeypatch):
        step_impl = solver._step_impl

        def nan_in_uy(*args, **kwargs):
            state, info = step_impl(*args, **kwargs)
            state.u.uy[3, 5] = np.nan
            return state, info

        monkeypatch.setattr(solver, "_step_impl", nan_in_uy)
        with pytest.raises(SolverError, match=r"^step 0: non-finite state at t=[0-9.e-]+: uy\[3, 5\] = nan$"):
            run(bump_state(), SPEC, TimeControls(t_end=0.2), POISSON)

    def test_records_land_on_ticks(self):
        times = []
        run(bump_state(), SPEC, TimeControls(t_end=0.2), POISSON,
            sinks=[lambda s, c: times.append(s.t)], cadence=0.05)
        assert times == pytest.approx([0.0, 0.05, 0.10, 0.15, 0.20], abs=1e-12)


class TestTimeConvergence:
    """The Lie splitting is first order in dt (measured orders 1.14 and 1.12
    for n, 1.08 and 1.22 for c).  u is left out: by T = 0.5 it has decayed
    to about 1e-6, below the resolution of its own time error."""

    MIN_ORDER = 0.9

    @staticmethod
    def _final(dt_max):
        cfg = parse_config(reference_config(t_end=0.5, nx=16, ny=16, dt_max=dt_max))
        return run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid),
                   cadence=cfg.cadence)

    def test_first_order_in_dt(self):
        ref = self._final(6.25e-4)
        finals = [self._final(dt) for dt in (0.01, 0.005, 0.0025)]
        for field in ("n", "c"):
            exact = getattr(ref, field).values
            errors = [np.linalg.norm(getattr(s, field).values - exact) / np.linalg.norm(exact)
                      for s in finals]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            assert min(orders) >= self.MIN_ORDER, (field, errors, orders)


class TestTimeControls:
    def test_cfl_range(self):
        with pytest.raises(ValueError):
            TimeControls(t_end=1.0, cfl=0.0)

    def test_cfl_above_half_rejected(self):
        assert TimeControls(t_end=1.0, cfl=0.5).cfl == 0.5
        for cfl in (0.6, 1.0):
            with pytest.raises(ValueError, match=r"\(0, 0\.5\]"):
                TimeControls(t_end=1.0, cfl=cfl)

    def test_dt_max_below_dt_min_rejected(self):
        # every step would be a stability violation, so the controls refuse it
        assert TimeControls(t_end=1.0, dt_max=solver.DT_MIN).dt_max == solver.DT_MIN
        for dt_max in (1e-300, math.nextafter(solver.DT_MIN, 0.0)):
            with pytest.raises(ValueError, match="dt_max must be finite and >= DT_MIN"):
                TimeControls(t_end=1.0, dt_max=dt_max)
