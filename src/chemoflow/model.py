"""Coefficient functions of the chemotaxis-fluid model.

Diffusivity D (porous-medium n^(m-1) or tabulated), its regularization
D_eps with the bracket D <= D_eps <= D + 2*eps and D_eps >= eps, the
primitives D1_eps (the Kirchhoff potential, whose Laplacian is the
n-diffusion) and D2_eps, the three factors of the cutoff sensitivity
S_eps (operators.taxis_face_velocity applies it at the faces), the threshold
density s0 above which D clears a configured level L, the small-density
ratio kappa = inf D(n)/n, and the truncated reciprocal-diffusion tables
Psi0/Psi1/Psi2.

Each hypothesis on the coefficients is checked once, by the type that
owns it: PorousMedium takes m in (1, 2], which for D = n^(m-1) is
liminf_{n->0} D(n)/n > 0 and so kappa > 0; TabulatedDiffusion takes D > 0
on (0, inf); ModelSpec takes gamma in [0, 5/6] and eps in (0, 1); and
threshold_s0 raises when D never clears L (liminf_{n->inf} D(n) > L).
The bounds by M involve the initial data; config.validate_config checks
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PorousMedium",
    "TabulatedDiffusion",
    "ModelSpec",
    "TruncationTable",
    "eval_D",
    "eval_D_eps",
    "eval_D1_eps",
    "eval_D2_eps",
    "kirchhoff_units",
    "D_eps_range",
    "sensitivity_scale",
    "boundary_cutoff",
    "density_cutoff",
    "threshold_s0",
    "kappa_of",
    "build_truncations",
]

GAMMA_MAX = 5.0 / 6.0


@dataclass(frozen=True)
class PorousMedium:
    """D(n) = n^(m-1) with m in (1, 2], checked here: m > 1 makes D
    degenerate at 0, and m <= 2 is the hypothesis liminf_{n->0} D(n)/n > 0
    (kappa > 0).  The one comparison also rejects nan and inf."""

    m: float

    def __post_init__(self):
        if not (1.0 < self.m <= 2.0):
            raise ValueError(f"porous-medium exponent must lie in (1, 2], got {self.m}")


@dataclass(frozen=True)
class TabulatedDiffusion:
    """Piecewise-linear D given by knots/values; constant beyond the last knot.

    Values must be positive on (0, inf); the knot at 0 may carry D(0) = 0.
    """

    knots: tuple
    values: tuple

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape or k.size < 2:
            raise ValueError("need matching 1D knots/values with at least 2 entries")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise ValueError("tabulated diffusion entries must be finite")
        if (np.diff(k) <= 0).any() or k[0] < 0:
            raise ValueError("knots must be strictly increasing and start at >= 0")
        positive_part = v[1:] if k[0] == 0 else v
        if (positive_part <= 0).any() or v[0] < 0:
            raise ValueError("tabulated diffusion must be positive on (0, inf)")
        object.__setattr__(self, "knots", tuple(float(x) for x in k))
        object.__setattr__(self, "values", tuple(float(x) for x in v))


@dataclass(frozen=True)
class ModelSpec:
    """All model coefficients for one run.

    gamma is the sensitivity singularity exponent (response ~ c^-gamma),
    s0_sensitivity the constant bound factor S0, phi_gradient the constant
    gravitational-potential gradient, epsilon the regularization strength,
    L the diffusion threshold level, and M the a-priori bound parameter
    (||c0||_inf <= M, and ||n0||_1 <= M when gamma > 1/2).  This type
    checks gamma in [0, 5/6] and epsilon in (0, 1); the bounds by M involve
    the initial data, which config.validate_config checks.
    """

    diffusion: object
    gamma: float = 0.5
    s0_sensitivity: float = 1.0
    sensitivity_kind: str = "isotropic"
    rotation_angle: float = 0.0
    phi_gradient: tuple = (0.0, 0.0)
    epsilon: float = 0.05
    L: float = 1.0
    M: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.gamma <= GAMMA_MAX):
            raise ValueError(f"gamma must lie in [0, 5/6], got {self.gamma}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.s0_sensitivity < 0 or not math.isfinite(self.s0_sensitivity):
            raise ValueError(f"S0 must be finite and >= 0, got {self.s0_sensitivity}")
        if self.sensitivity_kind not in ("isotropic", "rotation"):
            raise ValueError(f"unknown sensitivity kind {self.sensitivity_kind!r}")
        if not math.isfinite(self.rotation_angle):
            raise ValueError(f"rotation_angle must be finite, got {self.rotation_angle}")
        if self.L <= 0 or not math.isfinite(self.L):
            raise ValueError(f"L must be finite and > 0, got {self.L}")
        if self.M <= 0 or not math.isfinite(self.M):
            raise ValueError(f"M must be finite and > 0, got {self.M}")
        if len(self.phi_gradient) != 2 or not all(math.isfinite(g) for g in self.phi_gradient):
            raise ValueError("phi_gradient must be a finite 2-vector")
        object.__setattr__(self, "phi_gradient", tuple(float(g) for g in self.phi_gradient))
        if not isinstance(self.diffusion, (PorousMedium, TabulatedDiffusion)):
            raise ValueError("diffusion must be PorousMedium or TabulatedDiffusion")


# ----------------------------------------------------------------------
# diffusivity and primitives
# ----------------------------------------------------------------------

def eval_D(n, spec: ModelSpec):
    """D(n); accepts scalars or arrays, n >= 0."""
    n = np.asarray(n, dtype=float)
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        out = np.power(n, d.m - 1.0)
    else:
        out = np.interp(n, d.knots, d.values)
    return out if out.ndim else float(out)


def _eps_shift(spec: ModelSpec) -> float:
    # delta with (n + delta)^(m-1) = D_eps for porous-medium diffusion
    m = spec.diffusion.m
    return spec.epsilon ** (1.0 / (m - 1.0))


def eval_D_eps(n, spec: ModelSpec):
    """Regularized diffusivity.

    Porous medium: (n + eps^(1/(m-1)))^(m-1), the closed form satisfying
    the bracket exactly, floored at eps (the shift underflows for m close
    to 1; the floor keeps every bracket inequality intact).  Tabulated:
    D(n) + eps.
    """
    n = np.asarray(n, dtype=float)
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        out = np.maximum(np.power(n + _eps_shift(spec), d.m - 1.0), spec.epsilon)
    else:
        out = np.interp(n, d.knots, d.values) + spec.epsilon
    return out if out.ndim else float(out)


def D_eps_range(lo: float, hi: float, spec: ModelSpec) -> tuple:
    """(inf, sup) of D_eps over [lo, hi]: the ends for the increasing
    porous-medium D_eps, the ends and the knots inside for the
    piecewise-linear tabulated one.  The porous-medium inf is the
    unfloored (lo + delta)^(m-1), the slope of D1_eps, which is D_eps(lo)
    unless the eps floor of eval_D_eps binds (delta underflows for m
    close to 1), and then lies below it; the sup is floored."""
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        return float((lo + _eps_shift(spec)) ** (d.m - 1.0)), eval_D_eps(hi, spec)
    knots = np.asarray(d.knots)
    inside = knots[(knots > lo) & (knots < hi)]
    values = eval_D_eps(np.concatenate([[lo, hi], inside]), spec)
    return float(np.min(values)), float(np.max(values))


@lru_cache(maxsize=16)
def _tabulated_table(d: TabulatedDiffusion, epsilon: float):
    """Read-only knots k, D_eps values v, slopes, and the exact D1 = I1 and
    D2 = I2 at the knots of a tabulated law; segment j starts at k[j].

    A knot at 0 is prepended when the first knot is positive, and the
    segment past the last knot has slope 0 (D is constant beyond both).
    """
    k = np.asarray(d.knots)
    v = np.asarray(d.values) + epsilon
    if k[0] > 0:
        k = np.concatenate([[0.0], k])
        v = np.concatenate([[v[0]], v])
    dk = np.diff(k)
    slope = np.append(np.diff(v) / dk, 0.0)
    seg1 = 0.5 * (v[:-1] + v[1:]) * dk
    I1 = np.concatenate([[0.0], np.cumsum(seg1)])
    seg2 = I1[:-1] * dk + 0.5 * v[:-1] * dk**2 + slope[:-1] * dk**3 / 6.0
    I2 = np.concatenate([[0.0], np.cumsum(seg2)])
    for a in (k, v, slope, I1, I2):
        a.flags.writeable = False
    return k, v, slope, I1, I2


def _segments(n: np.ndarray, k: np.ndarray):
    """Segment index j of each density n >= 0 and its offset n - k[j]."""
    j = np.searchsorted(k[1:], n, side="right")
    return j, n - k[j]


def eval_D1_eps(n, spec: ModelSpec, out=None):
    """Kirchhoff potential D1_eps(n) = int_0^n D_eps for n >= 0, into `out` if given.

    Its Laplacian is div(D_eps(n) grad n).  Porous medium: the primitive
    ((n + delta)^m - delta^m)/m of (n + delta)^(m-1), whose eps floor in
    eval_D_eps binds only when delta underflows.  Tabulated: piecewise
    quadratic.
    """
    n = np.asarray(n, dtype=float)
    if out is None:
        out = np.empty_like(n)
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        delta = _eps_shift(spec)
        out[...] = ((n + delta) ** d.m - delta**d.m) / d.m
    else:
        k, v, slope, I1, _ = _tabulated_table(d, spec.epsilon)
        j, s = _segments(n, k)
        np.multiply(slope[j], 0.5, out=out)
        out *= s
        out += v[j]
        out *= s
        out += I1[j]
    return out if out.ndim else float(out)


def kirchhoff_units(spec: ModelSpec, cx: float, lam: float = 0.0):
    """(scale, shift, potential) for the shifted variable w = scale * n + shift.

    potential(w, out) writes P(w), with P(w_b) - P(w_a) = scale * cx *
    (D1_eps(b) - D1_eps(a) - lam (b - a)), so the substep
    n_a += cx (D1_eps(b) - D1_eps(a) - lam (b - a)) is w_a += P(w_b) - P(w_a):
    the full potential at lam = 0, and the remainder of the diffusivity
    above lam otherwise.  Porous medium: w = k (n + delta - lam), where
    k = cx/2 for m = 2 makes P(w) = w^2 (the lam term completes the
    square); other m keep k = 1, since (cx/m)^(1/(m-1)) underflows as
    m -> 1, w = n + delta and P(w) = cx/m w^m - cx lam w.  Tabulated: w = n
    and P = cx (D1_eps - lam n).
    """
    d = spec.diffusion
    if isinstance(d, PorousMedium) and d.m == 2.0:
        scale = 0.5 * cx
        return scale, scale * (_eps_shift(spec) - lam), np.square
    if isinstance(d, TabulatedDiffusion):
        shift = 0.0

        def full(w, out):
            eval_D1_eps(w, spec, out=out)
            out *= cx
    else:
        shift = _eps_shift(spec)

        def full(w, out):
            np.power(w, d.m, out=out)
            out *= cx / d.m
    if lam == 0.0:
        return 1.0, shift, full

    def potential(w, out):
        full(w, out)
        out -= (cx * lam) * w
    return 1.0, shift, potential


def eval_D2_eps(n, spec: ModelSpec):
    """D2_eps(n) = int_0^n D1_eps for n >= 0.

    The closed form for porous-medium diffusion and the exact piecewise
    cubic for tabulated diffusion.
    """
    n = np.asarray(n, dtype=float)
    if (n < 0).any():
        raise ValueError("density must be >= 0")
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        m = d.m
        delta = _eps_shift(spec)
        d2 = ((n + delta) ** (m + 1.0) - delta ** (m + 1.0)) / (m * (m + 1.0)) - delta**m * n / m
    else:
        k, v, slope, I1, I2 = _tabulated_table(d, spec.epsilon)
        j, s = _segments(n, k)
        d2 = I2[j] + I1[j] * s + 0.5 * v[j] * s**2 + slope[j] * s**3 / 6.0
    return d2 if n.ndim else float(d2)


# ----------------------------------------------------------------------
# sensitivity
# ----------------------------------------------------------------------

def _smoothstep(t):
    """C^1 ramp: 0 for t<=0, 1 for t>=1, t^2(3-2t) between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def boundary_cutoff(x, y, spec: ModelSpec, lx: float, ly: float):
    """rho_eps: 0 within distance eps of the wall, 1 beyond 2*eps."""
    dist = np.minimum(np.minimum(x, lx - x), np.minimum(y, ly - y))
    return _smoothstep((dist - spec.epsilon) / spec.epsilon)


def density_cutoff(n, spec: ModelSpec):
    """chi_eps: 1 on [0, 1/eps], 0 on [2/eps, inf), smoothstep between."""
    return 1.0 - _smoothstep(np.asarray(n, dtype=float) * spec.epsilon - 1.0)


def sensitivity_scale(c, spec: ModelSpec):
    """Scalar prototype factor S0 / (c + eps)^gamma."""
    c = np.asarray(c, dtype=float)
    return spec.s0_sensitivity * np.power(c + spec.epsilon, -spec.gamma)


# ----------------------------------------------------------------------
# threshold, kappa, truncations
# ----------------------------------------------------------------------

# smallest threshold density; sample count of the Psi tables
S0_FLOOR = 1e-3
PSI_SAMPLES = 4096


def threshold_s0(spec: ModelSpec) -> float:
    """Smallest density s0 >= S0_FLOOR with D(s) >= L for all s >= s0.

    Bisection for D = L: porous medium on [S0_FLOOR, first power of two
    where D >= L] (D is increasing), tabulated on the last segment where
    D dips below L (D is constant beyond the last knot), which gives the
    first double there at which the interpolated D reaches L.  Raises if
    the level L is never reached, which violates the liminf condition on D.
    """
    L = spec.L
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        if eval_D(S0_FLOOR, spec) >= L:
            return S0_FLOOR
        lo, hi = S0_FLOOR, max(1.0, S0_FLOOR * 2)
        for _ in range(200):
            if eval_D(hi, spec) >= L:
                break
            hi *= 2.0
        else:
            raise ValueError("L unreachable: diffusion never exceeds the threshold level")
    else:
        if d.values[-1] < L:
            raise ValueError("L unreachable: tabulated diffusion stays below the threshold level")
        below = [i for i, v in enumerate(d.values) if v < L]
        if not below:
            return S0_FLOOR
        lo, hi = d.knots[below[-1]], d.knots[below[-1] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eval_D(mid, spec) >= L:
            hi = mid
        else:
            lo = mid
    return max(hi, S0_FLOOR)


def kappa_of(s0: float, spec: ModelSpec) -> float:
    """kappa = inf over n in (0, 2*s0) of D(n)/n; must be positive.

    Analytic for porous-medium diffusion (the ratio n^(m-2) is monotone).
    Tabulated D is linear between knots, so D(n)/n is monotone there and
    the infimum is at a knot inside (0, 2*s0) or at 2*s0; when D(0) = 0,
    the ratio on the first segment is its constant slope, which the next
    knot or 2*s0 gives.  Positive for every law these types admit
    (PorousMedium keeps m <= 2, TabulatedDiffusion D > 0 on (0, inf)).
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    d = spec.diffusion
    if isinstance(d, PorousMedium):
        return float((2.0 * s0) ** (d.m - 2.0))
    k = np.asarray(d.knots)
    n = np.append(k[(k > 0) & (k < 2.0 * s0)], 2.0 * s0)
    return float((eval_D(n, spec) / n).min())


@dataclass(frozen=True)
class TruncationTable:
    """Sampled truncated reciprocal diffusion Psi0 and primitives Psi1, Psi2.

    Psi0 is 1/D_eps below s0, a linear ramp to zero on [s0, 2*s0], and 0
    beyond; Psi1(s) = -int_s^{2 s0} Psi0, Psi2(s) = -int_s^{2 s0} Psi1.
    Linear interpolation between samples; everything vanishes above 2*s0.
    """

    s0: float
    kappa: float
    s: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray

    def eval_psi2(self, x):
        return np.interp(np.asarray(x, dtype=float), self.s, self.psi2, right=0.0)

    @property
    def psi2_bound(self) -> float:
        return 3.0 * self.s0 / self.kappa


def build_truncations(spec: ModelSpec, s0: float) -> TruncationTable:
    """Tabulate Psi0/Psi1/Psi2 at PSI_SAMPLES points on [0, 2*s0] and verify
    0 <= Psi2 <= 3*s0/kappa."""
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    s = np.linspace(0.0, 2.0 * s0, PSI_SAMPLES)
    deps_s0 = float(eval_D_eps(s0, spec))
    psi0 = np.where(
        s < s0,
        1.0 / np.maximum(eval_D_eps(s, spec), 1e-300),
        (2.0 * s0 - s) / (s0 * deps_s0),
    )
    ds = s[1] - s[0]
    # Psi1(s) = -int_s^{2s0} Psi0: cumulative trapezoid from the right end
    tail0 = np.concatenate([[0.0], np.cumsum((0.5 * (psi0[1:] + psi0[:-1]) * ds)[::-1])])[::-1]
    psi1 = -tail0
    tail1 = np.concatenate([[0.0], np.cumsum((0.5 * (-psi1[1:] - psi1[:-1]) * ds)[::-1])])[::-1]
    psi2 = tail1
    kappa = kappa_of(s0, spec)
    table = TruncationTable(s0=float(s0), kappa=kappa, s=s, psi0=psi0, psi1=psi1, psi2=psi2)
    bound = table.psi2_bound
    if (psi2 < -1e-12 * max(bound, 1.0)).any() or (psi2 > bound * (1.0 + 1e-9) + 1e-12).any():
        raise ValueError(
            "truncation bound violated: Psi2 outside [0, 3*s0/kappa]; "
            "check kappa or the quadrature resolution"
        )
    return table
