"""Rectangular MAC discretization and field containers.

Scalars (cell density n, signal c, pressure) live at cell centers
((i+1/2)*hx, (j+1/2)*hy).  Velocity components live on faces: ux on
x-faces (i*hx, (j+1/2)*hy) with shape (nx+1, ny), uy on y-faces with
shape (nx, ny+1).  All arrays are float64, axis 0 is x, axis 1 is y;
flattening is C-order: cell [i, j] maps to flat index i*ny + j.

The containers check shapes only.  What makes a State admissible
(finite, n >= 0 and not identically 0, c > 0, u solenoidal with no
penetration) is the solver's rule: solver.check_initial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "State",
    "make_grid",
    "integrate",
    "cell_derivative",
    "cell_gradients",
]

MIN_CELLS = 4


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid with MAC staggering."""

    nx: int
    ny: int
    lx: float
    ly: float

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    # coordinate arrays -------------------------------------------------
    def xc(self) -> np.ndarray:
        """x coordinates of cell centers, shape (nx,)."""
        return (np.arange(self.nx) + 0.5) * self.hx

    def yc(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.hy

    def xf(self) -> np.ndarray:
        """x coordinates of x-faces, shape (nx+1,)."""
        return np.arange(self.nx + 1) * self.hx

    def yf(self) -> np.ndarray:
        return np.arange(self.ny + 1) * self.hy

    def cell_mesh(self):
        return np.meshgrid(self.xc(), self.yc(), indexing="ij")


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a grid, rejecting undersized or non-finite arguments."""
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise ValueError(f"cell counts must be integers, got nx={nx!r}, ny={ny!r}")
    if nx < MIN_CELLS or ny < MIN_CELLS:
        raise ValueError(f"grid too small: need nx,ny >= {MIN_CELLS}, got {nx}x{ny}")
    lx = float(lx)
    ly = float(ly)
    if not (math.isfinite(lx) and math.isfinite(ly)) or lx <= 0 or ly <= 0:
        raise ValueError(f"domain extents must be finite and positive, got {lx}, {ly}")
    return Grid(int(nx), int(ny), lx, ly)


def _as_values(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


@dataclass
class ScalarField:
    """Cell-centered scalar field."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values, (self.grid.nx, self.grid.ny))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        x, y = grid.cell_mesh()
        return cls(grid, np.asarray(fn(x, y), dtype=np.float64))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Face-centered velocity field on the MAC layout.

    Boundary-normal entries (ux on the x=0 and x=lx walls, uy on the
    y walls) are pinned to exactly zero: no-penetration.
    """

    grid: Grid
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        g = self.grid
        self.ux = _as_values(self.ux, (g.nx + 1, g.ny))
        self.uy = _as_values(self.uy, (g.nx, g.ny + 1))

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def from_stream(cls, grid: Grid, psi_fn) -> "VectorField":
        """Curl of a node-sampled stream function; discretely solenoidal.

        psi_fn(x, y) is evaluated at grid nodes.  Fields built this way
        satisfy div == 0 to round-off and no-penetration exactly when
        psi vanishes on the boundary nodes.
        """
        xn, yn = np.meshgrid(grid.xf(), grid.yf(), indexing="ij")
        psi = np.asarray(psi_fn(xn, yn), dtype=np.float64)
        ux = (psi[:, 1:] - psi[:, :-1]) / grid.hy
        uy = -(psi[1:, :] - psi[:-1, :]) / grid.hx
        v = cls(grid, ux, uy)
        v.enforce_no_penetration()
        return v

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.ux.copy(), self.uy.copy())

    def enforce_no_penetration(self):
        self.ux[0, :] = 0.0
        self.ux[-1, :] = 0.0
        self.uy[:, 0] = 0.0
        self.uy[:, -1] = 0.0

    def normal_boundary_is_zero(self) -> bool:
        return (
            not self.ux[0, :].any()
            and not self.ux[-1, :].any()
            and not self.uy[:, 0].any()
            and not self.uy[:, -1].any()
        )

    def max_speed(self) -> tuple:
        """(max |ux|, max |uy|) over all faces."""
        return float(np.abs(self.ux).max()), float(np.abs(self.uy).max())


@dataclass
class State:
    """Full PDE state (cell density n, signal c, fluid velocity u) at time t."""

    n: ScalarField
    c: ScalarField
    u: VectorField
    t: float = 0.0

    def copy(self) -> "State":
        """A read-only copy: every array of it refuses writes."""
        st = State(self.n.copy(), self.c.copy(), self.u.copy(), self.t)
        st.n.values.flags.writeable = False
        st.c.values.flags.writeable = False
        st.u.ux.flags.writeable = False
        st.u.uy.flags.writeable = False
        return st


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the domain: sum f_ij * hx * hy."""
    return float(f.values.sum() * f.grid.cell_area)


def cell_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """d/d(axis) of cell-centered values with spacing h, bitwise equal to
    np.gradient(values, h, axis=axis, edge_order=2): the same operations in
    the same order.  The centered differences run on the flat view at the
    axis's stride; in y they also span row ends, which the wall stencils overwrite."""
    out = np.empty(values.shape)
    stride = values.shape[1] if axis == 0 else 1
    f, d = values.reshape(-1), out.reshape(-1)
    np.subtract(f[2 * stride:], f[:-2 * stride], out=d[stride:-stride])
    d[stride:-stride] /= 2.0 * h
    f, d = (values, out) if axis == 0 else (values.T, out.T)
    d[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
    d[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return out


def cell_gradients(values: np.ndarray, grid: Grid):
    """(d/dx, d/dy) of cell-centered values, bitwise equal to np.gradient."""
    return cell_derivative(values, grid.hx, 0), cell_derivative(values, grid.hy, 1)
