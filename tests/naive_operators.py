"""One-expression-per-line forms of the per-step operators.

`chemoflow.operators` computes these with shared face differences and
in-place accumulation.  The forms below do the same floating-point
operations in the same order on fresh temporaries, so the tests can
require the two to agree to the bit.

The forms that no step or verb calls live only here: the face gradient
`grad`, the 5-point Neumann Laplacian `laplace`, the nonlinear diffusion
`nonlinear_diffuse` (the plain form of `solver._diffusion_substeps`) and
the relative Poisson residual `poisson_residual`.

The ODE trajectory margin of the lemma checks is here too, as a plain
loop that recomputes each invariant per piece, for the same bitwise pin
against `chemoflow.analysis._ode_trajectory_margin`.

The last section holds independent reference routes, which agree with
the package only to a tolerance: the Poisson and Helmholtz solves by
scipy's fast cosine and sine transforms and by a sparse LU solve,
explicit-Euler stand-ins for the semi-implicit Helmholtz solves, and the
pointwise sensitivity tensor S_eps.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sp_fft
from scipy import sparse
from scipy.sparse.linalg import splu

from chemoflow.analysis import ode_envelope
from chemoflow.grid import ScalarField, VectorField
from chemoflow.model import ModelSpec, boundary_cutoff, density_cutoff, eval_D1_eps, sensitivity_scale


def _lam(n, h, k):
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2 of -d2/dx2 on n cells."""
    return (2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


def _cell_lam(n, h):  # DCT-II: Neumann cells
    return _lam(n, h, np.arange(n))


def _face_lam(n, h):  # DST-I: interior faces, Dirichlet end faces
    return _lam(n, h, np.arange(1, n))


def _offset_lam(n, h):  # DST-II: cell-offset unknowns, no-slip ghosts
    return _lam(n, h, np.arange(1, n + 1))


def grad(f):
    g = f.grid
    v = VectorField.zeros(g)
    v.ux[1:-1, :] = (f.values[1:, :] - f.values[:-1, :]) / g.hx
    v.uy[:, 1:-1] = (f.values[:, 1:] - f.values[:, :-1]) / g.hy
    return v


def div(v):
    g = v.grid
    out = (v.ux[1:, :] - v.ux[:-1, :]) / g.hx + (v.uy[:, 1:] - v.uy[:, :-1]) / g.hy
    return ScalarField(g, out)


def _five_point(p, g):
    """5-point Laplacian of the interior of a ghost-padded array."""
    return (p[2:, 1:-1] - 2 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / g.hx**2 + (
        p[1:-1, 2:] - 2 * p[1:-1, 1:-1] + p[1:-1, :-2]
    ) / g.hy**2


def laplace(f):
    """5-point Laplacian with Neumann mirror ghosts (= div(grad(f)))."""
    return ScalarField(f.grid, _five_point(np.pad(f.values, 1, mode="edge"), f.grid))


def nonlinear_diffuse(n, spec):
    """div(D_eps(n) grad n) as the Laplacian of the Kirchhoff potential D1_eps(n).

    The face flux D1_eps(b) - D1_eps(a) is D_eps(xi) (b - a) for some xi
    between the cell values.  Mirror ghosts give no-flux walls, so the
    result integrates to zero up to round-off.
    """
    return laplace(ScalarField(n.grid, eval_D1_eps(n.values, spec)))


def poisson_residual(p, rhs):
    """Relative 2-norm residual of laplace(p) against the mean-free rhs."""
    b = rhs.values - rhs.values.mean()
    r = laplace(p).values - b
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(r) / denom) if denom > 0 else float(np.linalg.norm(r))


def _flux_div(fx, fy, g):
    qx = fx / g.hx
    qy = fy / g.hy
    out = np.zeros((g.nx, g.ny))
    out[:-1, :] += qx
    out[1:, :] -= qx
    out[:, :-1] += qy
    out[:, 1:] -= qy
    return ScalarField(g, out)


def _upwind_flux(vel, left, right):
    return np.maximum(vel, 0.0) * left + np.minimum(vel, 0.0) * right


def advect_scalar(f, v):
    fx = _upwind_flux(v.ux[1:-1, :], f.values[:-1, :], f.values[1:, :])
    fy = _upwind_flux(v.uy[:, 1:-1], f.values[:, :-1], f.values[:, 1:])
    return _flux_div(fx, fy, f.grid)


def taxis_face_velocity(n, c, spec):
    g = n.grid
    nv, cv = n.values, c.values
    xf, yc = g.xf()[1:-1], g.yc()
    rho_x = boundary_cutoff(xf[:, None], yc[None, :], spec, g.lx, g.ly)
    xc, yf = g.xc(), g.yf()[1:-1]
    rho_y = boundary_cutoff(xc[:, None], yf[None, :], spec, g.lx, g.ly)

    n_fx = 0.5 * (nv[:-1, :] + nv[1:, :])
    c_fx = 0.5 * (cv[:-1, :] + cv[1:, :])
    dcdx = (cv[1:, :] - cv[:-1, :]) / g.hx
    scale_x = rho_x * density_cutoff(n_fx, spec) * sensitivity_scale(c_fx, spec)

    n_fy = 0.5 * (nv[:, :-1] + nv[:, 1:])
    c_fy = 0.5 * (cv[:, :-1] + cv[:, 1:])
    dcdy = (cv[:, 1:] - cv[:, :-1]) / g.hy
    scale_y = rho_y * density_cutoff(n_fy, spec) * sensitivity_scale(c_fy, spec)

    if spec.sensitivity_kind == "isotropic":
        return scale_x * dcdx, scale_y * dcdy

    ct, st = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
    pad = np.pad(cv, 1, mode="edge")
    dy_cells = (pad[1:-1, 2:] - pad[1:-1, :-2]) / (2.0 * g.hy)
    dcdy_at_x = 0.5 * (dy_cells[:-1, :] + dy_cells[1:, :])
    dx_cells = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / (2.0 * g.hx)
    dcdx_at_y = 0.5 * (dx_cells[:, :-1] + dx_cells[:, 1:])
    wx = scale_x * (ct * dcdx - st * dcdy_at_x)
    wy = scale_y * (st * dcdx_at_y + ct * dcdy)
    return wx, wy


def taxis_flux_div(n, c, spec):
    wx, wy = taxis_face_velocity(n, c, spec)
    fx = _upwind_flux(wx, n.values[:-1, :], n.values[1:, :])
    fy = _upwind_flux(wy, n.values[:, :-1], n.values[:, 1:])
    return _flux_div(fx, fy, n.grid)


def advect_velocity(u):
    g = u.grid
    ux, uy = u.ux, u.uy
    tend = VectorField.zeros(g)

    ax = ux[1:-1, :]
    ay = 0.25 * (uy[:-1, :-1] + uy[1:, :-1] + uy[:-1, 1:] + uy[1:, 1:])
    back_x = (ux[1:-1, :] - ux[:-2, :]) / g.hx
    fwd_x = (ux[2:, :] - ux[1:-1, :]) / g.hx
    uxp = np.concatenate([-ux[:, :1], ux, -ux[:, -1:]], axis=1)
    back_y = (uxp[1:-1, 1:-1] - uxp[1:-1, :-2]) / g.hy
    fwd_y = (uxp[1:-1, 2:] - uxp[1:-1, 1:-1]) / g.hy
    tend.ux[1:-1, :] = (
        np.maximum(ax, 0.0) * back_x
        + np.minimum(ax, 0.0) * fwd_x
        + np.maximum(ay, 0.0) * back_y
        + np.minimum(ay, 0.0) * fwd_y
    )

    by = uy[:, 1:-1]
    bx = 0.25 * (ux[:-1, :-1] + ux[:-1, 1:] + ux[1:, :-1] + ux[1:, 1:])
    back_y2 = (uy[:, 1:-1] - uy[:, :-2]) / g.hy
    fwd_y2 = (uy[:, 2:] - uy[:, 1:-1]) / g.hy
    uyp = np.concatenate([-uy[:1, :], uy, -uy[-1:, :]], axis=0)
    back_x2 = (uyp[1:-1, 1:-1] - uyp[:-2, 1:-1]) / g.hx
    fwd_x2 = (uyp[2:, 1:-1] - uyp[1:-1, 1:-1]) / g.hx
    tend.uy[:, 1:-1] = (
        np.maximum(bx, 0.0) * back_x2
        + np.minimum(bx, 0.0) * fwd_x2
        + np.maximum(by, 0.0) * back_y2
        + np.minimum(by, 0.0) * fwd_y2
    )
    return tend


# ----------------------------------------------------------------------
# lemma checks
# ----------------------------------------------------------------------

def ode_trajectory_margin(seed: int) -> float:
    """Exact integration of y' + a y = h for piecewise-constant admissible h;
    returns min over time of (envelope - y)."""
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.2, 3.0))
    b = float(rng.uniform(0.1, 2.0))
    tau = float(rng.uniform(0.3, 2.0))
    y0 = float(rng.uniform(0.0, 3.0))
    t_end = 12.0
    n_pieces = 240
    dt = t_end / n_pieces
    h = rng.uniform(0.0, b, size=n_pieces)
    if rng.uniform() < 0.3:
        h[:] = b  # saturated forcing
    y = y0
    t = 0.0
    margin = ode_envelope(y0, a, b, tau, 0.0) - y0
    for k in range(n_pieces):
        decay = math.exp(-a * dt)
        y = y * decay + h[k] / a * (1.0 - decay)
        t += dt
        margin = min(margin, ode_envelope(y0, a, b, tau, t) - y)
    return margin


# ----------------------------------------------------------------------
# independent reference routes
# ----------------------------------------------------------------------

def solve(g, rhs):
    what = sp_fft.dctn(rhs.values, type=2, norm="ortho")
    lam = _cell_lam(g.nx, g.hx)[:, None] + _cell_lam(g.ny, g.hy)[None, :]
    lam[0, 0] = 1.0
    what = -what / lam
    what[0, 0] = 0.0
    return ScalarField(g, sp_fft.idctn(what, type=2, norm="ortho"))


def helmholtz_cells(g, b, alpha):
    bhat = sp_fft.dctn(b, type=2, norm="ortho")
    lam = _cell_lam(g.nx, g.hx)[:, None] + _cell_lam(g.ny, g.hy)[None, :]
    bhat /= 1.0 + alpha * lam
    return sp_fft.idctn(bhat, type=2, norm="ortho")


def helmholtz_ux(g, b_interior, alpha):
    bh = sp_fft.dst(b_interior, type=1, axis=0, norm="ortho")
    bh = sp_fft.dst(bh, type=2, axis=1, norm="ortho")
    lam = _face_lam(g.nx, g.hx)[:, None] + _offset_lam(g.ny, g.hy)[None, :]
    bh /= 1.0 + alpha * lam
    bh = sp_fft.idst(bh, type=2, axis=1, norm="ortho")
    return sp_fft.idst(bh, type=1, axis=0, norm="ortho")


def helmholtz_uy(g, b_interior, alpha):
    bh = sp_fft.dst(b_interior, type=2, axis=0, norm="ortho")
    bh = sp_fft.dst(bh, type=1, axis=1, norm="ortho")
    lam = _offset_lam(g.nx, g.hx)[:, None] + _face_lam(g.ny, g.hy)[None, :]
    bh /= 1.0 + alpha * lam
    bh = sp_fft.idst(bh, type=1, axis=1, norm="ortho")
    return sp_fft.idst(bh, type=2, axis=0, norm="ortho")


def project(v_star):
    g = v_star.grid
    p = solve(g, div(v_star))
    gp = grad(p)
    v = VectorField(g, v_star.ux - gp.ux, v_star.uy - gp.uy)
    v.enforce_no_penetration()
    return v, p


def _neumann_matrix(g):
    """Sparse 5-point Neumann Laplacian matching chemoflow.operators.laplace."""
    ex = np.ones(g.nx)
    ey = np.ones(g.ny)
    tx = sparse.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1], format="lil")
    tx[0, 0] = -1.0
    tx[-1, -1] = -1.0
    ty = sparse.diags([ey[:-1], -2.0 * ey, ey[:-1]], [-1, 0, 1], format="lil")
    ty[0, 0] = -1.0
    ty[-1, -1] = -1.0
    ix = sparse.identity(g.nx)
    iy = sparse.identity(g.ny)
    return (sparse.kron(tx / g.hx**2, iy) + sparse.kron(ix, ty / g.hy**2)).tocsr()


def lu_solve(g, rhs):
    """laplace(p) = rhs - mean(rhs) by sparse LU with cell (0, 0) pinned; zero-mean p."""
    a = _neumann_matrix(g).tolil()
    a[0, :] = 0.0
    a[0, 0] = 1.0
    b = rhs.values - rhs.values.mean()
    x = splu(a.tocsc()).solve(b.ravel().copy())
    p = x.reshape(g.nx, g.ny)
    return ScalarField(g, p - p.mean())


def explicit_cells(g, b, alpha):
    """b + alpha * laplace(b) on cell centers, Neumann mirror ghosts."""
    return b + alpha * _five_point(np.pad(b, 1, mode="edge"), g)


def explicit_ux(g, b_interior, alpha):
    """b + alpha * laplace(b) on interior x-faces: zero wall faces, no-slip ghosts."""
    p = np.zeros((g.nx + 1, g.ny + 2))
    p[1:-1, 1:-1] = b_interior
    p[1:-1, :1] = -b_interior[:, :1]
    p[1:-1, -1:] = -b_interior[:, -1:]
    return b_interior + alpha * _five_point(p, g)


def explicit_uy(g, b_interior, alpha):
    """b + alpha * laplace(b) on interior y-faces: zero wall faces, no-slip ghosts."""
    p = np.zeros((g.nx + 2, g.ny + 1))
    p[1:-1, 1:-1] = b_interior
    p[:1, 1:-1] = -b_interior[:1, :]
    p[-1:, 1:-1] = -b_interior[-1:, :]
    return b_interior + alpha * _five_point(p, g)


def _rotation(theta: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([[ct, -st], [st, ct]])


def eval_S_eps(x: float, y: float, n: float, c: float, spec: ModelSpec, lx: float, ly: float) -> np.ndarray:
    """Pointwise regularized sensitivity tensor, as a 2x2 matrix.

    S_eps = rho_eps(x) * chi_eps(n) * s(c + eps) * R, with R the identity
    (isotropic) or a rotation by the configured angle.  Its operator norm
    is bounded by S0 / (c + eps)^gamma, vanishes within eps of the wall
    and for densities beyond 2/eps.
    """
    if c < 0:
        raise ValueError("signal concentration must be >= 0")
    factor = float(boundary_cutoff(x, y, spec, lx, ly)) * float(density_cutoff(n, spec))
    factor *= float(sensitivity_scale(c, spec))
    base = np.eye(2) if spec.sensitivity_kind == "isotropic" else _rotation(spec.rotation_angle)
    return factor * base
