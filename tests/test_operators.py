import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chemoflow.operators as ops
from config_variants import reference_config
import naive_operators as naive
from chemoflow.grid import MIN_CELLS, ScalarField, VectorField, integrate, make_grid
from chemoflow.model import ModelSpec, PorousMedium, TabulatedDiffusion, boundary_cutoff, density_cutoff
from chemoflow.operators import (
    PoissonSolver,
    advect_scalar,
    advect_velocity,
    div,
    project,
    taxis_face_velocity,
    taxis_flux_div,
)
from naive_operators import grad, laplace, nonlinear_diffuse


def random_facefield(grid, rng, scale=1.0):
    v = VectorField(
        grid,
        scale * rng.standard_normal((grid.nx + 1, grid.ny)),
        scale * rng.standard_normal((grid.nx, grid.ny + 1)),
    )
    v.enforce_no_penetration()
    return v


def face_mean(a, axis):
    return 0.5 * (a[:-1, :] + a[1:, :]) if axis == 0 else 0.5 * (a[:, :-1] + a[:, 1:])


class TestGrad:
    def test_constant(self):
        g = make_grid(16, 16, 1.0, 1.0)
        v = grad(ScalarField.full(g, 5.0))
        assert not v.ux.any() and not v.uy.any()

    def test_linear_exact_interior(self):
        g = make_grid(12, 8, 2.0, 1.0)
        v = grad(ScalarField.from_function(g, lambda x, y: 2 * x + 3 * y))
        assert np.allclose(v.ux[1:-1, :], 2.0)
        assert np.allclose(v.uy[:, 1:-1], 3.0)
        assert v.normal_boundary_is_zero()

    def test_quadratic_exact(self):
        # centered face differences of x^2 are exact, not merely second order
        g = make_grid(64, 64, 1.0, 1.0)
        v = grad(ScalarField.from_function(g, lambda x, y: x**2 + y**2))
        xf = g.xf()[1:-1][:, None]
        assert np.abs(v.ux[1:-1, :] - 2 * xf).max() < 1e-12

    def test_second_order_refinement(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, n, 1.0, 1.0)
            v = grad(ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x)))
            xf = g.xf()[1:-1][:, None]
            target = -np.pi * np.sin(np.pi * xf) * np.ones((1, n))
            errs.append(np.abs(v.ux[1:-1, :] - target).max())
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6


class TestDiv:
    def test_linear_solenoidal(self):
        g = make_grid(16, 16, 1.0, 1.0)
        v = VectorField.zeros(g)
        v.ux[:] = g.xf()[:, None]
        v.uy[:] = -g.yf()[None, :]
        v.enforce_no_penetration()
        assert np.abs(div(v).values[1:-1, 1:-1]).max() < 1e-13

    def test_uniform_with_zeroed_normals(self):
        # constant interior ux with pinned boundary faces: zero divergence
        # everywhere except the wall-adjacent cell columns
        g = make_grid(8, 8, 1.0, 1.0)
        v = VectorField.zeros(g)
        v.ux[1:-1, :] = 1.0
        d = div(v)
        assert np.abs(d.values[1:-1, :]).max() == 0.0
        assert (d.values[0, :] != 0.0).all() and (d.values[-1, :] != 0.0).all()

    def test_integral_vanishes_brute_force(self, rng):
        g = make_grid(4, 4, 1.0, 1.0)
        v = random_facefield(g, rng)
        d = div(v)
        # independent path: accumulate flux differences cell by cell
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += (v.ux[i + 1, j] - v.ux[i, j]) / g.hx + (v.uy[i, j + 1] - v.uy[i, j]) / g.hy
        total *= g.cell_area
        assert integrate(d) == pytest.approx(total, abs=1e-12)
        assert abs(integrate(d)) < 1e-13


class TestLaplace:
    def test_constant(self):
        g = make_grid(8, 8, 1.0, 1.0)
        assert not laplace(ScalarField.full(g, 3.3)).values.any()

    def test_quadratic_interior(self):
        g = make_grid(32, 32, 1.0, 1.0)
        l = laplace(ScalarField.from_function(g, lambda x, y: x**2 + y**2))
        assert np.allclose(l.values[1:-1, 1:-1], 4.0)

    def test_eigenfunction_refinement(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, n, 1.0, 1.0)
            f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x / g.lx))
            l = laplace(f)
            target = -((np.pi / g.lx) ** 2) * f.values
            errs.append(np.abs(l.values - target).max())
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6

    def test_matches_div_grad(self, rng):
        g = make_grid(12, 10, 1.5, 1.0)
        f = ScalarField(g, rng.standard_normal((12, 10)))
        assert np.allclose(laplace(f).values, div(grad(f)).values, atol=1e-12)


class TestAdvect:
    def test_constant_field_solenoidal_velocity(self):
        g = make_grid(16, 16, 1.0, 1.0)
        v = VectorField.from_stream(g, lambda x, y: 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y))
        out = advect_scalar(ScalarField.full(g, 2.5), v)
        assert np.abs(out.values).max() < 1e-12

    def test_zero_velocity(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        f = ScalarField(g, rng.random((8, 8)))
        assert not advect_scalar(f, VectorField.zeros(g)).values.any()

    def test_conservation_brute_force(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        for _ in range(5):
            f = ScalarField(g, rng.random((8, 8)))
            v = random_facefield(g, rng)
            out = advect_scalar(f, v)
            assert abs(integrate(out)) < 1e-13

    def test_upwind_direction(self):
        # uniform rightward wind moves mass right: tendency negative upstream
        g = make_grid(8, 8, 1.0, 1.0)
        f = ScalarField.full(g, 0.0)
        f.values[3, :] = 1.0
        v = VectorField.zeros(g)
        v.ux[1:-1, :] = 1.0
        out = advect_scalar(f, v)  # d/dt n = -out
        assert out.values[3, 0] > 0.0   # cell 3 loses mass
        assert out.values[4, 0] < 0.0   # downstream cell gains


class TestNonlinearDiffuse:
    def test_constant_density(self):
        g = make_grid(8, 8, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.1)
        assert not nonlinear_diffuse(ScalarField.full(g, 2.0), spec).values.any()

    def test_reduces_to_laplacian_for_constant_d(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        # D = 0.75 and eps = 0.25 are binary-exact, so D_eps == 1 exactly
        spec = ModelSpec(
            diffusion=TabulatedDiffusion((0.0, 100.0), (0.75, 0.75)), epsilon=0.25
        )
        n = ScalarField(g, rng.random((16, 16)) + 0.5)
        assert np.allclose(nonlinear_diffuse(n, spec).values, laplace(n).values, atol=1e-12)

    def test_conservation(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        spec = ModelSpec(diffusion=PorousMedium(1.6), epsilon=0.07)
        for _ in range(5):
            n = ScalarField(g, rng.random((8, 8)))
            assert abs(integrate(nonlinear_diffuse(n, spec))) < 1e-13


class TestTaxis:
    def _spec(self, **kw):
        return ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.05, gamma=0.5,
                         s0_sensitivity=1.0, **kw)

    def test_zero_for_constant_signal(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        n = ScalarField(g, rng.random((16, 16)))
        c = ScalarField.full(g, 2.0)
        out = taxis_flux_div(n, taxis_face_velocity(n, c, self._spec()))
        assert not out.values.any()

    def test_zero_for_zero_density(self):
        g = make_grid(16, 16, 1.0, 1.0)
        c = ScalarField.from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x))
        n = ScalarField.full(g, 0.0)
        out = taxis_flux_div(n, taxis_face_velocity(n, c, self._spec()))
        assert not out.values.any()

    def test_conservation(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        for kind, theta in (("isotropic", 0.0), ("rotation", 0.6)):
            spec = self._spec(sensitivity_kind=kind, rotation_angle=theta)
            n = ScalarField(g, rng.random((8, 8)))
            c = ScalarField(g, rng.random((8, 8)) + 0.5)
            assert abs(integrate(taxis_flux_div(n, taxis_face_velocity(n, c, spec)))) < 1e-13

    def test_faces_vanish_near_wall(self):
        g = make_grid(32, 32, 1.0, 1.0)
        spec = self._spec()
        n = ScalarField.full(g, 1.0)
        c = ScalarField.from_function(g, lambda x, y: 1.0 + x + y)
        wx, wy = taxis_face_velocity(n, c, spec)
        # faces within eps of the wall carry zero chemotactic velocity
        assert not wx[0, :].any() and not wx[-1, :].any()
        assert not wy[:, 0].any() and not wy[:, -1].any()

    def test_drift_points_up_gradient(self):
        g = make_grid(32, 32, 1.0, 1.0)
        spec = self._spec()
        n = ScalarField.full(g, 1.0)
        c = ScalarField.from_function(g, lambda x, y: 1.0 + x)
        wx, _ = taxis_face_velocity(n, c, spec)
        # away from the wall cutoff region the drift follows grad c
        assert (wx[10:20, 8:-8] > 0).all()

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["isotropic", "rotation"]),
           st.floats(0.0, 5.0 / 6.0), st.floats(-np.pi, np.pi), st.floats(0.0, 3.0 / 0.05))
    def test_face_velocity_bound(self, seed, kind, gamma, angle, n_top):
        # |w| <= rho_eps chi_eps S0 (c_face + eps)^(-gamma) |grad c|_face
        spec = ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.05, gamma=gamma, s0_sensitivity=1.3,
                         sensitivity_kind=kind, rotation_angle=angle)
        g = make_grid(9, 7, 1.3, 1.0)
        rng = np.random.default_rng(seed)
        nv, cv = n_top * rng.random((9, 7)), 5.0 * rng.random((9, 7))
        wx, wy = taxis_face_velocity(ScalarField(g, nv), ScalarField(g, cv), spec)
        pad = np.pad(cv, 1, mode="edge")
        dcdy_cells = (pad[1:-1, 2:] - pad[1:-1, :-2]) / (2 * g.hy)
        dcdx_cells = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / (2 * g.hx)
        faces = (
            (wx, 0, g.xf()[1:-1, None], g.yc()[None, :], np.diff(cv, axis=0) / g.hx, dcdy_cells),
            (wy, 1, g.xc()[:, None], g.yf()[None, 1:-1], np.diff(cv, axis=1) / g.hy, dcdx_cells),
        )
        for w, axis, x, y, normal, transverse_cells in faces:
            gradient = np.abs(normal)
            if kind == "rotation":
                gradient = np.hypot(normal, face_mean(transverse_cells, axis))
            bound = (boundary_cutoff(x, y, spec, g.lx, g.ly) * density_cutoff(face_mean(nv, axis), spec)
                     * spec.s0_sensitivity * (face_mean(cv, axis) + spec.epsilon) ** -gamma * gradient)
            assert (np.abs(w) <= bound * (1 + 1e-12) + 1e-300).all()


class TestIntegrationByParts:
    def test_discrete_adjointness(self, rng):
        # sum f * div(v) = -sum_faces grad(f) . v for no-penetration v
        g = make_grid(5, 6, 1.0, 1.3)
        f = ScalarField(g, rng.standard_normal((5, 6)))
        v = random_facefield(g, rng)
        lhs = integrate(ScalarField(g, f.values * div(v).values))
        gf = grad(f)
        rhs = -(np.sum(gf.ux * v.ux) + np.sum(gf.uy * v.uy)) * g.cell_area
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPoisson:
    def test_residual_dct(self, rng):
        g = make_grid(32, 24, 1.0, 1.5)
        solver = PoissonSolver(g)
        rhs = ScalarField(g, rng.standard_normal((32, 24)))
        p = solver.solve(rhs)
        assert naive.poisson_residual(p, rhs) <= 1e-10
        assert abs(p.values.mean()) < 1e-12

    def test_dct_vs_lu(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        rhs = ScalarField(g, rng.standard_normal((16, 16)))
        p1 = PoissonSolver(g).solve(rhs)
        p2 = naive.lu_solve(g, rhs)
        assert np.abs(p1.values - p2.values).max() < 1e-9

    def test_helmholtz_cells_residual(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        solver = PoissonSolver(g)
        b = rng.standard_normal((16, 16))
        x = solver.helmholtz_cells(b, 0.037)
        res = x - 0.037 * laplace(ScalarField(g, x)).values - b
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("layout", ["ux", "uy"])
    def test_helmholtz_face_residual(self, rng, layout):
        g = make_grid(20, 12, 1.0, 1.5)  # hx = 0.05, hy = 0.125
        solver = PoissonSolver(g)
        shape = (g.nx - 1, g.ny) if layout == "ux" else (g.nx, g.ny - 1)
        solve = solver.helmholtz_ux if layout == "ux" else solver.helmholtz_uy
        explicit = naive.explicit_ux if layout == "ux" else naive.explicit_uy
        b = rng.standard_normal(shape)
        x = solve(b, 0.037)
        assert np.abs(explicit(g, x, -0.037) - b).max() < 1e-12


def second_difference(n, layout):
    """-d2/dx2 at unit spacing: Neumann cells, interior faces, or no-slip cells."""
    m = n - 1 if layout == "face" else n
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    if layout != "face":
        t[0, 0] = t[-1, -1] = 1.0 if layout == "cell" else 3.0
    return t


class TestSpectralBases:
    @pytest.mark.parametrize("n", [MIN_CELLS, 5, 17, 64])
    @pytest.mark.parametrize("layout, k0, dk1", [("cell", 0, 0), ("face", 1, 0), ("offset", 1, 1)])
    def test_orthonormal_and_diagonalizing(self, n, layout, k0, dk1):
        a = ops._basis(n, k0, n + dk1)
        assert not a.flags.writeable
        assert np.abs(a @ a.T - np.eye(len(a))).max() <= 1e-12
        lam = ops._eigen(n, 1.0, k0, n + dk1)
        assert np.abs(a @ second_difference(n, layout) @ a.T - np.diag(lam)).max() <= 1e-12


FOLD = ops.FOLD_MIN
# (nx, ny, lx, ly): axes of FOLD_MIN - 1 unknowns (dense) and of FOLD_MIN on (folded), with
# odd and even folded lengths on each axis; the face layouts have one unknown fewer than nx or ny
FOLD_GRIDS = [(FOLD, FOLD + 1, 1.0, 1.3), (FOLD + 1, FOLD, 1.0, 1.0), (FOLD - 1, FOLD + 2, 1.0, 1.0)]


class TestFoldedBases:
    @pytest.mark.parametrize("shape", FOLD_GRIDS)
    def test_folds_exactly_the_axes_at_the_crossover(self, shape):
        nx, ny = shape[:2]
        solver = PoissonSolver(make_grid(*shape))
        lengths = {"cell": (nx, ny), "ux": (nx - 1, ny), "uy": (nx, ny - 1)}
        for layout, (bx, by) in solver._bases.items():
            for (e, o), size in zip((bx, by), lengths[layout]):
                assert (o is not None) == (size >= FOLD)
                assert len(e) + (0 if o is None else len(o)) == size

    @pytest.mark.parametrize("shape", FOLD_GRIDS)
    def test_solves_match_the_transforms(self, shape):
        g = make_grid(*shape)
        rng = np.random.default_rng(11)
        solver = PoissonSolver(g)
        for alpha in (1e-3, 0.25):
            b = rng.standard_normal((g.nx, g.ny))
            assert max_diff(solver.helmholtz_cells(b, alpha), naive.helmholtz_cells(g, b, alpha)) <= SPECTRAL_TOL
            b = rng.standard_normal((g.nx - 1, g.ny))
            assert max_diff(solver.helmholtz_ux(b, alpha), naive.helmholtz_ux(g, b, alpha)) <= SPECTRAL_TOL
            b = rng.standard_normal((g.nx, g.ny - 1))
            assert max_diff(solver.helmholtz_uy(b, alpha), naive.helmholtz_uy(g, b, alpha)) <= SPECTRAL_TOL
        rhs = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
        p = solver.solve(rhs)
        assert max_diff(p.values, naive.solve(g, rhs).values) <= SPECTRAL_TOL
        assert naive.poisson_residual(p, rhs) <= 1e-10

    def test_projection_at_128_is_solenoidal(self):
        # a step's v*: a vortex plus a perturbation whose divergence is about 1
        g = make_grid(128, 128, 1.0, 1.0)
        v = VectorField.from_stream(g, lambda x, y: 0.1 * np.sin(np.pi * x) * np.sin(np.pi * y))
        r = random_facefield(g, np.random.default_rng(0), scale=1e-3)
        v_star = VectorField(g, v.ux + r.ux, v.uy + r.uy)
        assert np.abs(div(v_star).values).max() > 0.5
        w, _ = project(v_star, PoissonSolver(g))
        assert np.abs(div(w).values).max() <= 1e-12

    def test_below_the_crossover_the_products_are_dense(self):
        # four dense products, the second axis reached through the transpose of the
        # first product, which the forward product takes as a contiguous copy
        g = make_grid(FOLD - 1, 64, 1.0, 1.5)
        rng = np.random.default_rng(3)
        solver = PoissonSolver(g)

        def dense(ax, ay, b, d):
            bh = ay @ np.ascontiguousarray((ax @ b).T)
            return ax.T @ (ay.T @ (bh / d)).T

        for solve, kx, ky in ((solver.helmholtz_cells, (0, g.nx), (0, g.ny)),
                              (solver.helmholtz_ux, (1, g.nx), (1, g.ny + 1)),
                              (solver.helmholtz_uy, (1, g.nx + 1), (1, g.ny))):
            ax, ay = ops._basis(g.nx, *kx), ops._basis(g.ny, *ky)
            lam = ops._eigen(g.ny, g.hy, *ky)[:, None] + ops._eigen(g.nx, g.hx, *kx)[None, :]
            b = rng.standard_normal((len(ax), len(ay)))
            assert same_bits(solve(b, 0.037), dense(ax, ay, b, 1.0 + 0.037 * lam))
            if solve == solver.helmholtz_cells:
                lam[0, 0] = np.inf
                rhs = ScalarField(g, b)
                assert same_bits(solver.solve(rhs).values, -dense(ax, ay, b, lam))

    @pytest.mark.parametrize("shape", [(64, 48, 1.0, 1.0), *FOLD_GRIDS])
    def test_solves_return_fresh_c_contiguous_arrays(self, shape):
        # a field built from a solve is C-contiguous like every other field
        # (the n-diffusion substeps, for one, refuse a density that is not)
        g = make_grid(*shape)
        rng = np.random.default_rng(7)
        solver = PoissonSolver(g)
        ux, uy = rng.standard_normal((g.nx + 1, g.ny)), rng.standard_normal((g.nx, g.ny + 1))
        b = rng.standard_normal((g.nx, g.ny))
        assert not uy[:, 1:-1].flags.c_contiguous
        for x, given in ((solver.helmholtz_cells(b, 0.01), b),
                         (solver.helmholtz_ux(ux[1:-1, :], 0.01), ux),
                         (solver.helmholtz_uy(uy[:, 1:-1], 0.01), uy),
                         (solver.solve(ScalarField(g, b)).values, b)):
            assert x.flags.c_contiguous and x.flags.owndata
            assert not np.shares_memory(x, given)


class TestProjection:
    def test_identity_on_solenoidal(self):
        g = make_grid(32, 32, 1.0, 1.0)
        solver = PoissonSolver(g)
        v = VectorField.from_stream(g, lambda x, y: 0.4 * np.sin(np.pi * x) * np.sin(2 * np.pi * y))
        w, p = project(v, solver)
        assert np.abs(w.ux - v.ux).max() < 1e-12
        assert np.abs(w.uy - v.uy).max() < 1e-12

    def test_annihilates_gradients(self, rng):
        g = make_grid(32, 32, 1.0, 1.0)
        solver = PoissonSolver(g)
        phi = ScalarField(g, rng.standard_normal((32, 32)))
        v_star = grad(phi)
        w, _ = project(v_star, solver)
        scale = max(np.abs(v_star.ux).max(), np.abs(v_star.uy).max())
        assert max(np.abs(w.ux).max(), np.abs(w.uy).max()) <= 1e-8 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        g = make_grid(16, 16, 1.0, 1.0)
        solver = PoissonSolver(g)
        v = random_facefield(g, np.random.default_rng(seed))
        w1, _ = project(v, solver)
        w2, _ = project(w1, solver)
        scale = max(1.0, np.abs(w1.ux).max())
        assert np.abs(w2.ux - w1.ux).max() < 1e-10 * scale
        assert np.abs(w2.uy - w1.uy).max() < 1e-10 * scale

    def test_divergence_after_projection(self, rng):
        g = make_grid(32, 32, 1.0, 1.0)
        solver = PoissonSolver(g)
        v = random_facefield(g, rng)
        w, _ = project(v, solver)
        scale = max(np.abs(v.ux).max(), np.abs(v.uy).max())
        assert np.abs(div(w).values).max() <= 10 * 1e-10 * scale

    def test_range_orthogonality(self, rng):
        # projected field is discretely orthogonal to every gradient
        g = make_grid(16, 16, 1.0, 1.0)
        solver = PoissonSolver(g)
        w, _ = project(random_facefield(g, rng), solver)
        phi = ScalarField(g, rng.standard_normal((16, 16)))
        gp = grad(phi)
        inner = (np.sum(w.ux * gp.ux) + np.sum(w.uy * gp.uy)) * g.cell_area
        assert abs(inner) < 1e-10 * max(1.0, np.abs(w.ux).max())

    def test_rejects_nonzero_normal(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        v = random_facefield(g, rng)
        v.ux[0, 3] = 0.5
        with pytest.raises(ValueError, match="boundary-normal"):
            project(v, PoissonSolver(g))

    def test_linear(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        solver = PoissonSolver(g)
        a, b = 1.7, -0.4
        v, w = random_facefield(g, rng), random_facefield(g, rng)
        combo = VectorField(g, a * v.ux + b * w.ux, a * v.uy + b * w.uy)
        pc, _ = project(combo, solver)
        pv, _ = project(v, solver)
        pw, _ = project(w, solver)
        assert np.abs(pc.ux - (a * pv.ux + b * pw.ux)).max() < 1e-11
        assert np.abs(pc.uy - (a * pv.uy + b * pw.uy)).max() < 1e-11


class TestBlasThreads:
    # On both grids the solves' products exceed 64^3 multiply-adds, above which
    # OpenBLAS splits a product across its threads; 96 x 80 is dense on both axes,
    # 128 x 112 folded on both.  Not every grid keeps its bits (module docstring).
    @pytest.mark.parametrize("nx, ny", [(96, 80), (128, 112)], ids=["96x80", "128x112"])
    def test_run_bits_do_not_depend_on_blas_threads(self, tmp_path, nx, ny):
        config = tmp_path / "run.ini"
        text = reference_config(t_end=0.02, nx=nx, ny=ny, cadence=0.01, dt_max=1e-3,
                                     u0="vortex: amp=0.5")
        config.write_text(text.replace("snapshots = false", "snapshots = true"))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(src),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "chemoflow.cli", "run", str(config),
                                   "--output", str(out)], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert "timeseries.csv" in outputs[0] and any(k.endswith(".cns2") for k in outputs[0])
        assert outputs[0] == outputs[1]


class TestAdvectVelocity:
    def test_zero_velocity(self):
        g = make_grid(12, 20, 1.5, 1.0)
        tend = advect_velocity(VectorField.zeros(g))
        assert not tend.ux.any() and not tend.uy.any()

    def test_boundary_normal_entries_stay_zero(self, rng):
        g = make_grid(33, 17, 1.0, 1.0)
        tend = advect_velocity(random_facefield(g, rng))
        for edge in (tend.ux[0, :], tend.ux[-1, :], tend.uy[:, 0], tend.uy[:, -1]):
            assert (edge == 0.0).all() and not np.signbit(edge).any()
        assert tend.ux[1:-1, :].any() and tend.uy[:, 1:-1].any()


# ----------------------------------------------------------------------
# bitwise pins against the one-expression-per-line forms
# ----------------------------------------------------------------------

PIN_GRIDS = [(12, 20, 1.5, 1.0), (33, 17, 1.0, 1.0)]


SPECTRAL_TOL = 1e-13


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def max_diff(a, b):
    assert a.shape == b.shape
    return float(np.abs(a - b).max())


def pin_fields(shape, seed, n_max=1.0):
    """Random n >= 0 (max n_max), c > 0 and a no-penetration velocity."""
    g = make_grid(*shape)
    rng = np.random.default_rng(seed)
    n = rng.random((g.nx, g.ny))
    n *= n_max / n.max()
    c = ScalarField(g, 0.2 + rng.random((g.nx, g.ny)))
    return g, ScalarField(g, n), c, random_facefield(g, rng)


def taxis_spec(kind):
    return ModelSpec(diffusion=PorousMedium(2.0), epsilon=0.05, gamma=0.5, s0_sensitivity=1.3,
                     sensitivity_kind=kind, rotation_angle=0.7 if kind == "rotation" else 0.0)


@pytest.mark.parametrize("shape", PIN_GRIDS)
class TestBitwisePins:
    def test_advect_velocity(self, shape):
        for seed in range(3):
            g, _, _, u = pin_fields(shape, seed)
            new, ref = advect_velocity(u), naive.advect_velocity(u)
            assert same_bits(new.ux, ref.ux) and same_bits(new.uy, ref.uy)

    def test_advect_scalar(self, shape):
        for seed in range(3):
            g, n, c, u = pin_fields(shape, seed)
            assert same_bits(advect_scalar(n, u).values, naive.advect_scalar(n, u).values)
            assert same_bits(advect_scalar(c, u).values, naive.advect_scalar(c, u).values)

    def test_div_and_grad(self, shape):
        g, n, _, u = pin_fields(shape, 0)
        assert same_bits(div(u).values, naive.div(u).values)
        # the face differences of the projection and the taxis drift
        ref = naive.grad(n)
        assert same_bits(ops._face_diff(n.values, 0, g.hx), ref.ux[1:-1, :])
        assert same_bits(ops._face_diff(n.values, 1, g.hy), ref.uy[:, 1:-1])

    @pytest.mark.parametrize("kind", ["isotropic", "rotation"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_taxis(self, shape, kind, dense, monkeypatch):
        spec = taxis_spec(kind)
        calls = []
        cutoff = ops.density_cutoff

        def counted_cutoff(n, spec):
            calls.append(1)
            return cutoff(n, spec)

        monkeypatch.setattr(ops, "density_cutoff", counted_cutoff)
        # max n * eps below 1 and exactly 1, or above 1: below 2 and beyond 2
        at_one = 1.0 / spec.epsilon
        assert at_one * spec.epsilon - 1.0 == 0.0
        tops = (1.5 * at_one, 2.5 * at_one) if dense else (0.5 * at_one, at_one)
        for seed, top in enumerate(tops):
            g, n, c, _ = pin_fields(shape, seed, n_max=top)
            new = taxis_face_velocity(n, c, spec)
            ref = naive.taxis_face_velocity(n, c, spec)
            assert same_bits(new[0], ref[0]) and same_bits(new[1], ref[1])
            assert same_bits(taxis_flux_div(n, taxis_face_velocity(n, c, spec)).values,
                             naive.taxis_flux_div(n, c, spec).values)
        # the cutoff is evaluated (twice per call) only when some n * eps > 1
        assert len(calls) == (8 if dense else 0)

    def test_taxis_nan_density_takes_full_path(self, shape):
        spec = taxis_spec("isotropic")
        g, n, c, _ = pin_fields(shape, 0)
        n.values[2, 3] = np.nan
        new = taxis_face_velocity(n, c, spec)
        ref = naive.taxis_face_velocity(n, c, spec)
        np.testing.assert_array_equal(new[0], ref[0])
        np.testing.assert_array_equal(new[1], ref[1])
        assert np.isnan(new[0]).any()

    # the spectral routes agree with scipy's transforms to round-off only
    def test_project(self, shape):
        for seed in range(3):
            g, _, _, u = pin_fields(shape, seed)
            (v, p), (v_ref, p_ref) = project(u, PoissonSolver(g)), naive.project(u)
            assert max_diff(p.values, p_ref.values) <= SPECTRAL_TOL
            assert max(max_diff(v.ux, v_ref.ux), max_diff(v.uy, v_ref.uy)) <= SPECTRAL_TOL

    def test_spectral_solves_with_alternating_alpha(self, shape):
        g = make_grid(*shape)
        rng = np.random.default_rng(5)
        solver = PoissonSolver(g)
        for alpha in (1e-3, 1e-3, 3.7e-4, 1e-3, 3.7e-4, 3.7e-4, 0.25, 1e-3):
            b = rng.standard_normal((g.nx, g.ny))
            assert max_diff(solver.helmholtz_cells(b, alpha), naive.helmholtz_cells(g, b, alpha)) <= SPECTRAL_TOL
            b = rng.standard_normal((g.nx - 1, g.ny))
            assert max_diff(solver.helmholtz_ux(b, alpha), naive.helmholtz_ux(g, b, alpha)) <= SPECTRAL_TOL
            b = rng.standard_normal((g.nx, g.ny - 1))
            assert max_diff(solver.helmholtz_uy(b, alpha), naive.helmholtz_uy(g, b, alpha)) <= SPECTRAL_TOL
            rhs = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
            assert max_diff(solver.solve(rhs).values, naive.solve(g, rhs).values) <= SPECTRAL_TOL


class TestFreshOutputs:
    """A second call with other inputs leaves the first result unchanged."""

    @staticmethod
    def _arrays(out):
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, VectorField):
                yield from (a.ux, a.uy)
            else:
                yield a.values if isinstance(a, ScalarField) else a

    def _check(self, call, first, second):
        arrays = list(self._arrays(call(*first)))
        kept = [a.copy() for a in arrays]
        call(*second)
        assert all(same_bits(a, k) for a, k in zip(arrays, kept))

    def test_operators(self):
        shape = PIN_GRIDS[1]
        g, n1, c1, u1 = pin_fields(shape, 1)
        _, n2, c2, u2 = pin_fields(shape, 2)
        solver = PoissonSolver(g)
        for kind in ("isotropic", "rotation"):
            spec = taxis_spec(kind)
            self._check(lambda n, c: taxis_face_velocity(n, c, spec), (n1, c1), (n2, c2))
            self._check(lambda n, c: taxis_flux_div(n, taxis_face_velocity(n, c, spec)), (n1, c1), (n2, c2))
        self._check(advect_velocity, (u1,), (u2,))
        self._check(advect_scalar, (n1, u1), (n2, u2))
        self._check(div, (u1,), (u2,))
        self._check(lambda u: project(u, solver), (u1,), (u2,))
        self._check(solver.solve, (n1,), (n2,))
        self._check(solver.helmholtz_cells, (n1.values, 1e-3), (n2.values, 1e-3))
        self._check(solver.helmholtz_ux, (u1.ux[1:-1, :], 1e-3), (u2.ux[1:-1, :], 1e-3))
        self._check(solver.helmholtz_uy, (u1.uy[:, 1:-1], 1e-3), (u2.uy[:, 1:-1], 1e-3))


class TestSpectralCaches:
    def test_read_only(self):
        g = make_grid(12, 20, 1.5, 1.0)
        solver = PoissonSolver(g)
        tables = [solver._gauged, *solver._lam.values()]
        assert sorted(solver._lam) == ["cell", "ux", "uy"]
        for lam in tables:
            assert not lam.flags.writeable
            with pytest.raises(ValueError):
                lam[0, 0] = 0.0
