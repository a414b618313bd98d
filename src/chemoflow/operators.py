"""Discrete differential operators on the MAC grid and the Helmholtz projection.

Conventions
-----------
* Scalars carry homogeneous Neumann walls, realized by mirror ghosts; the
  corresponding face gradient is zero on boundary faces.
* Divergence-form operators (advection, nonlinear diffusion, taxis) are
  written as face fluxes with exactly zero boundary flux, so their
  integral telescopes to zero: conservation holds to round-off.
* Upwinding on the advective and taxis fluxes keeps cell values of a
  nonnegative transported field nonnegative under the CFL bound
  dt * (max speed_x / hx + max speed_y / hy) <= 1/2: a field whose
  velocity is not solenoidal (the taxis drift) can leave a cell through
  all four faces at once.
* The pressure Poisson problem (pure Neumann) and the semi-implicit
  Helmholtz solves use the orthonormal eigenbases of the 1-D
  second-difference operators (cosines for Neumann unknowns, sines for
  no-slip and Dirichlet ones), whose tensor products diagonalize the
  5-point Laplacian on a uniform grid.  The solve is direct: the
  projected velocity is discretely solenoidal to round-off.

Performance rules
-----------------
* Every operator returns fresh arrays, never a shared workspace, so a
  caller may accumulate into a result in place.  Inside an operator the
  intermediates are computed in place (``out=``, ``+=``) with the same
  floating-point operations in the same order as the plain expressions,
  so results do not depend on how they are evaluated.
* Cached tables hold read-only arrays only, so a PoissonSolver stays
  immutable and safe to share: the module-level ``_face_cutoffs``
  (rho_eps at the faces, per grid and spec) and the solver's bases and
  eigenvalue sums lam, per layout.  Nothing is keyed on dt: each
  Helmholtz solve forms 1 + alpha * lam anew, two operations per entry
  that cost little beside the solve.  The denominator is divided by,
  never replaced by a reciprocal, which would change the last bit.
* Each spectral solve is four dense products with the 1-D bases that
  PoissonSolver builds once (Ax B Ay^T, divide, Ax^T Bh Ay), so it costs
  O(nx ny (nx + ny)) and needs numpy only: no verb imports scipy.  On one
  BLAS thread of an x86-64 Xeon, a Helmholtz solve at 64^2 takes
  45-65 us against 120-135 us for scipy's fast transforms; the two break
  even near 128 cells per axis, and at 256^2 the products are 2-2.3x
  slower.  OpenBLAS splits a product by blocks of its output, so the
  bits do not depend on OPENBLAS_NUM_THREADS or OMP_NUM_THREADS.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import Grid, ScalarField, VectorField
from .model import (
    ModelSpec,
    boundary_cutoff,
    density_cutoff,
    eval_D1_eps,
    sensitivity_scale,
)

__all__ = [
    "PoissonSolver",
    "grad",
    "div",
    "laplace",
    "advect_scalar",
    "advect_velocity",
    "nonlinear_diffuse",
    "taxis_flux_div",
    "taxis_face_velocity",
    "project",
]


# ----------------------------------------------------------------------
# basic calculus
# ----------------------------------------------------------------------

def _face_diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(a[k+1] - a[k]) / h along `axis`, as a fresh array."""
    if axis == 0:
        out = a[1:, :] - a[:-1, :]
    else:
        out = a[:, 1:] - a[:, :-1]
    out /= h
    return out


def _face_mean(a: np.ndarray, axis: int) -> np.ndarray:
    """0.5 * (a[k] + a[k+1]) along `axis`, as a fresh array."""
    if axis == 0:
        out = a[:-1, :] + a[1:, :]
    else:
        out = a[:, :-1] + a[:, 1:]
    out *= 0.5
    return out


def grad(f: ScalarField) -> VectorField:
    """Face gradient with homogeneous-Neumann ghosts (boundary faces 0)."""
    g = f.grid
    v = VectorField.zeros(g)
    v.ux[1:-1, :] = _face_diff(f.values, 0, g.hx)
    v.uy[:, 1:-1] = _face_diff(f.values, 1, g.hy)
    return v


def div(v: VectorField) -> ScalarField:
    """Conservative cell divergence of a face field."""
    g = v.grid
    out = _face_diff(v.ux, 0, g.hx)
    out += _face_diff(v.uy, 1, g.hy)
    return ScalarField(g, out)


def laplace(f: ScalarField) -> ScalarField:
    """5-point Laplacian with Neumann mirror ghosts (= div(grad(f)))."""
    g = f.grid
    p = np.pad(f.values, 1, mode="edge")
    out = (p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / g.hx**2 + (
        p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]
    ) / g.hy**2
    return ScalarField(g, out)


def _flux_div(fx: np.ndarray, fy: np.ndarray, g: Grid) -> ScalarField:
    """Cell divergence of interior-face fluxes; boundary faces carry none.

    fx and fy must be fresh arrays: they are divided by the spacing in place.
    """
    fx /= g.hx
    fy /= g.hy
    out = np.zeros((g.nx, g.ny))
    out[:-1, :] += fx
    out[1:, :] -= fx
    out[:, :-1] += fy
    out[:, 1:] -= fy
    return ScalarField(g, out)


def _upwind_flux(vel, left, right):
    # flux through a face from the upwind side; exact zero where vel == 0
    out = np.maximum(vel, 0.0)
    out *= left
    tmp = np.minimum(vel, 0.0)
    tmp *= right
    out += tmp
    return out


def advect_scalar(f: ScalarField, v: VectorField) -> ScalarField:
    """div(v f) in conservative flux form with upwind face values.

    Equals v . grad f for discretely solenoidal v; integrates to zero for
    any v with vanishing boundary-normal entries.
    """
    fx = _upwind_flux(v.ux[1:-1, :], f.values[:-1, :], f.values[1:, :])
    fy = _upwind_flux(v.uy[:, 1:-1], f.values[:, :-1], f.values[:, 1:])
    return _flux_div(fx, fy, f.grid)


def nonlinear_diffuse(n: ScalarField, spec: ModelSpec) -> ScalarField:
    """div(D_eps(n) grad n) as the Laplacian of the Kirchhoff potential D1_eps(n).

    The face flux D1_eps(b) - D1_eps(a) is D_eps(xi) (b - a) for some xi
    between the cell values.  Mirror ghosts give no-flux walls, so the
    result integrates to zero up to round-off.
    """
    return laplace(ScalarField(n.grid, eval_D1_eps(n.values, spec)))


@lru_cache(maxsize=16)
def _face_cutoffs(grid: Grid, spec: ModelSpec):
    """rho_eps sampled at interior x-faces and y-faces (cached per grid/spec)."""
    xf = grid.xf()[1:-1]
    yc = grid.yc()
    rho_x = boundary_cutoff(xf[:, None], yc[None, :], spec, grid.lx, grid.ly)
    xc = grid.xc()
    yf = grid.yf()[1:-1]
    rho_y = boundary_cutoff(xc[:, None], yf[None, :], spec, grid.lx, grid.ly)
    rho_x.flags.writeable = False
    rho_y.flags.writeable = False
    return rho_x, rho_y


def taxis_face_velocity(n: ScalarField, c: ScalarField, spec: ModelSpec):
    """Chemotactic face velocity w = S_eps(x, n, c) . grad c.

    Returns (wx, wy) on interior x- and y-faces, shapes (nx-1, ny) and
    (nx, ny-1).  Boundary faces carry w = 0 (rho_eps vanishes there).
    At every face |w| <= rho_eps chi_eps S0 (c_face + eps)^(-gamma)
    |grad c|_face, where grad c_face is the face difference plus, for a
    rotation, the reconstructed transverse component.

    While max(n) * eps - 1 <= 0 the density cutoff chi_eps is exactly 1 at
    every face: a face average never exceeds max(n) in floating point, so
    the smoothstep argument is <= 0 and clips to 0.  The cutoff is then
    skipped, since rho * 1.0 is rho to the bit; a NaN density fails the
    test and takes the full path.
    """
    g = n.grid
    nv, cv = n.values, c.values
    rho_x, rho_y = _face_cutoffs(g, spec)

    scale_x = sensitivity_scale(_face_mean(cv, 0), spec)
    scale_y = sensitivity_scale(_face_mean(cv, 1), spec)
    if float(nv.max()) * spec.epsilon - 1.0 <= 0.0:
        scale_x *= rho_x
        scale_y *= rho_y
    else:
        scale_x *= rho_x * density_cutoff(_face_mean(nv, 0), spec)
        scale_y *= rho_y * density_cutoff(_face_mean(nv, 1), spec)
    dcdx = _face_diff(cv, 0, g.hx)
    dcdy = _face_diff(cv, 1, g.hy)

    if spec.sensitivity_kind == "isotropic":
        scale_x *= dcdx
        scale_y *= dcdy
        return scale_x, scale_y

    # rotation: needs the transverse gradient component at each face
    ct, st = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
    pad = np.pad(cv, 1, mode="edge")
    # d c / dy at interior x-faces: average the four surrounding y-differences
    dy_cells = (pad[1:-1, 2:] - pad[1:-1, :-2]) / (2.0 * g.hy)
    dcdy_at_x = _face_mean(dy_cells, 0)
    dx_cells = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / (2.0 * g.hx)
    dcdx_at_y = _face_mean(dx_cells, 1)
    dcdx *= ct
    dcdx -= st * dcdy_at_x
    scale_x *= dcdx
    dcdx_at_y *= st
    dcdx_at_y += ct * dcdy
    scale_y *= dcdx_at_y
    return scale_x, scale_y


def taxis_flux_div(n: ScalarField, c: ScalarField, spec: ModelSpec, faces=None) -> ScalarField:
    """div(n S_eps grad c) with n upwinded by the sign of the face velocity."""
    wx, wy = taxis_face_velocity(n, c, spec) if faces is None else faces
    fx = _upwind_flux(wx, n.values[:-1, :], n.values[1:, :])
    fy = _upwind_flux(wy, n.values[:, :-1], n.values[:, 1:])
    return _flux_div(fx, fy, n.grid)


def _upwind_sum(out, a, back_a, fwd_a, b, back_b, fwd_b):
    """out = max(a,0)*back_a + min(a,0)*fwd_a + max(b,0)*back_b + min(b,0)*fwd_b.

    Summed left to right in place, with one scratch array.
    """
    tmp = np.empty_like(out)
    np.maximum(a, 0.0, out=out)
    out *= back_a
    np.minimum(a, 0.0, out=tmp)
    tmp *= fwd_a
    out += tmp
    np.maximum(b, 0.0, out=tmp)
    tmp *= back_b
    out += tmp
    np.minimum(b, 0.0, out=tmp)
    tmp *= fwd_b
    out += tmp


def advect_velocity(u: VectorField) -> VectorField:
    """(u . grad) u on the MAC layout, first-order upwind.

    Tangential walls use the no-slip ghost u_ghost = -u_interior; normal
    boundary faces are fixed at zero, so only interior faces get a
    tendency.  Each axis has one array of face differences d; the
    backward difference at a face is d[:-1] and the forward one d[1:].
    """
    g = u.grid
    ux, uy = u.ux, u.uy
    tend = VectorField.zeros(g)

    # --- ux faces (interior i = 1..nx-1) ---
    ay = uy[:-1, :-1] + uy[1:, :-1]
    ay += uy[:-1, 1:]
    ay += uy[1:, 1:]
    ay *= 0.25
    dx = _face_diff(ux, 0, g.hx)
    # no-slip ghost columns beside the interior rows
    uxp = np.empty((g.nx - 1, g.ny + 2))
    uxp[:, 1:-1] = ux[1:-1, :]
    np.negative(ux[1:-1, :1], out=uxp[:, :1])
    np.negative(ux[1:-1, -1:], out=uxp[:, -1:])
    dy = _face_diff(uxp, 1, g.hy)
    _upwind_sum(tend.ux[1:-1, :], ux[1:-1, :], dx[:-1], dx[1:], ay, dy[:, :-1], dy[:, 1:])

    # --- uy faces (interior j = 1..ny-1) ---
    bx = ux[:-1, :-1] + ux[:-1, 1:]
    bx += ux[1:, :-1]
    bx += ux[1:, 1:]
    bx *= 0.25
    dy = _face_diff(uy, 1, g.hy)
    # no-slip ghost rows beside the interior columns
    uyp = np.empty((g.nx + 2, g.ny - 1))
    uyp[1:-1, :] = uy[:, 1:-1]
    np.negative(uy[:1, 1:-1], out=uyp[:1, :])
    np.negative(uy[-1:, 1:-1], out=uyp[-1:, :])
    dx = _face_diff(uyp, 0, g.hx)
    _upwind_sum(tend.uy[:, 1:-1], bx, dx[:-1], dx[1:], uy[:, 1:-1], dy[:, :-1], dy[:, 1:])
    return tend


# ----------------------------------------------------------------------
# spectral plans
# ----------------------------------------------------------------------

def _eigen(n: int, h: float, k0: int, k1: int) -> np.ndarray:
    """(2 - 2 cos(pi k / n)) / h^2 for k in [k0, k1): the eigenvalues of
    -d2/dx2 on n cells of width h.

    k in [0, n): cell unknowns with mirror-ghost Neumann walls (DCT-II);
    k in [1, n): interior-face unknowns with Dirichlet end faces (DST-I);
    k in [1, n + 1): cell-offset unknowns with no-slip ghost walls (DST-II).
    """
    k = np.arange(k0, k1)
    return (2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


def _basis(n: int, k0: int, k1: int) -> np.ndarray:
    """Orthonormal eigenvectors, one per row, for _eigen(n, h, k0, k1).

    k in [0, n): cosines at the cell centres (DCT-II);
    k in [1, n): sines at the interior faces (DST-I);
    k in [1, n + 1): sines at the cell centres (DST-II).
    Read-only; the inverse is the transpose.
    """
    k = np.arange(k0, k1)
    # positions in half cells (n - 1 faces or n centres), so that each
    # phase pi k x / n is reduced exactly
    twice_x = np.arange(2, 2 * n, 2) if k.size < n else np.arange(1, 2 * n, 2)
    phase = (np.outer(k, twice_x) % (4 * n)) * (np.pi / (2 * n))
    a = np.cos(phase) if k0 == 0 else np.sin(phase)
    a *= math.sqrt(2.0 / n)
    a[k % n == 0] *= math.sqrt(0.5)  # the constant cosine and the alternating sine
    a.flags.writeable = False
    return a


class PoissonSolver:
    """Direct solver for the cell-centered Neumann Poisson problem.

    Diagonalization on the uniform grid by the 1-D eigenbases of each
    layout (Lynch, Rice & Thomas 1964), built once here together with the
    eigenvalue sums lam[i, j] = lam_x[i] + lam_y[j].  The same object
    carries the semi-implicit Helmholtz solves for the signal and the
    velocity components; it is immutable after construction and safe to
    share.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        self._bases, self._lam = {}, {}
        for layout, kx, ky in (
            ("cell", (0, nx), (0, ny)),
            ("ux", (1, nx), (1, ny + 1)),
            ("uy", (1, nx + 1), (1, ny)),
        ):
            self._bases[layout] = (_basis(nx, *kx), _basis(ny, *ky))
            lam = _eigen(nx, grid.hx, *kx)[:, None] + _eigen(ny, grid.hy, *ky)[None, :]
            lam.flags.writeable = False
            self._lam[layout] = lam
        gauged = self._lam["cell"].copy()
        gauged[0, 0] = np.inf  # gauge mode: its coefficient divides to zero in solve
        gauged.flags.writeable = False
        self._gauged = gauged

    def _diagonal_solve(self, layout: str, b: np.ndarray, alpha) -> np.ndarray:
        """Ax^T ((Ax b Ay^T) / d) Ay with the bases of `layout`, where
        d = 1 + alpha * lam, or the gauge-fixed lam if alpha is None."""
        ax, ay = self._bases[layout]
        bh = ax @ b @ ay.T
        if alpha is None:
            bh /= self._gauged
        else:
            bh /= 1.0 + alpha * self._lam[layout]
        return ax.T @ bh @ ay

    # -- pressure Poisson -------------------------------------------------
    def solve(self, rhs: ScalarField) -> ScalarField:
        """Solve laplace(p) = rhs - mean(rhs); returns zero-mean p."""
        p = self._diagonal_solve("cell", rhs.values, None)
        np.negative(p, out=p)  # laplace has the eigenvalues -lam
        return ScalarField(self.grid, p)

    def residual(self, p: ScalarField, rhs: ScalarField) -> float:
        """Relative 2-norm residual against the mean-free right-hand side."""
        b = rhs.values - rhs.values.mean()
        r = laplace(p).values - b
        denom = np.linalg.norm(b)
        return float(np.linalg.norm(r) / denom) if denom > 0 else float(np.linalg.norm(r))

    # -- semi-implicit Helmholtz solves -----------------------------------
    def helmholtz_cells(self, b: np.ndarray, alpha: float) -> np.ndarray:
        """(I - alpha * laplace) x = b on cell centers, Neumann walls."""
        return self._diagonal_solve("cell", b, alpha)

    def helmholtz_ux(self, b_interior: np.ndarray, alpha: float) -> np.ndarray:
        """(I - alpha * laplace) on interior x-faces, no-slip walls."""
        return self._diagonal_solve("ux", b_interior, alpha)

    def helmholtz_uy(self, b_interior: np.ndarray, alpha: float) -> np.ndarray:
        """(I - alpha * laplace) on interior y-faces, no-slip walls."""
        return self._diagonal_solve("uy", b_interior, alpha)


def project(v_star: VectorField, solver: PoissonSolver):
    """Helmholtz projection: returns (v, p) with v = v_star - grad p solenoidal.

    p has zero mean; compatibility of the pure-Neumann problem is enforced
    by removing the mean of div(v_star) (which is zero up to round-off for
    fields with no-penetration walls anyway).
    """
    v_star.check_finite()
    if not v_star.normal_boundary_is_zero():
        raise ValueError("projection input must have zero boundary-normal entries")
    g = v_star.grid
    p = solver.solve(div(v_star))
    v = v_star.copy()
    v.ux[1:-1, :] -= _face_diff(p.values, 0, g.hx)
    v.uy[:, 1:-1] -= _face_diff(p.values, 1, g.hy)
    v.enforce_no_penetration()
    return v, p
