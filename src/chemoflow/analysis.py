"""Standalone numerical checks of the self-contained integral inequalities.

These run on synthetic smooth fields, independent of the PDE solver:

* a pointwise log-Hessian identity and two integral estimates with the
  fixed constants (4+sqrt(2))^2 and (5+sqrt(2))^2;
* an entropy-weighted product bound of Trudinger type, its superlevel
  variant and a mean-on-a-subset Poincare inequality, whose existential
  constants K are calibrated on half of a field corpus and verified on
  the held-out half;
* a windowed-forcing ODE envelope and a doubling-exponent recursion
  limit, exercised on randomized admissible inputs.

Calibration sets K = SAFETY = 2 times the largest minimal constant on the
first half (1 if that is 0); every gap on the second half must then be
>= -REL_TOL * (its RHS scale), REL_TOL = 1e-8.  So the held-out check is
a falsifiable statement about a single constant working corpus-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Sequence

import numpy as np
from numpy.random import default_rng  # loaded with the module, not by the first corpus member

from .grid import ScalarField, cell_derivative, cell_gradients, integrate, make_grid

__all__ = [
    "FieldCorpus",
    "log_hessian_identity_residual",
    "trudinger_gap",
    "trudinger_sublevel_gap",
    "ode_envelope",
    "mk_limit_check",
    "equality_mk_sequence",
    "slack_mk_sequence",
    "poincare_subset_gap",
    "LemmaCheckRow",
    "run_lemma_checks",
    "format_report",
]

EST1_CONST = (4.0 + math.sqrt(2.0)) ** 2
EST2_CONST = (5.0 + math.sqrt(2.0)) ** 2

# the one parameter set the checks run at: exponents a of the product
# bound, the entropy weight eta, the threshold level L and superlevel
# shift s0t of the superlevel bound (whose dissipation weight is D(s) = s,
# linear growth clearing L above s0t), the Poincare exponent p and the
# last index of the doubling recursion
A_VALUES = np.array((0.5, 1.0, 2.0, 4.0))
A_VALUES.flags.writeable = False
ETA = 1.0
LEVEL = 1.0
S0_TILDE = 1.5
P = 2.0
K_MAX = 30

# run_lemma_checks: the calibration safety factor and the held-out relative tolerance
SAFETY = 2.0
REL_TOL = 1e-8
BATCH = 16  # members alive at once; checking a batch check by check is ~7 % faster than by member

# log_hessian_identity_residual: width of the excluded boundary rim, in cells
MARGIN = 2

# FieldCorpus: the grid of every member, highest cosine mode and spectral
# decay exponent of its series, lower bound of every positive field and
# range of its random span
GRID = make_grid(64, 64, 1.0, 1.0)
MAX_MODE = 4
DECAY = 2.0
FLOOR = 0.1
SPAN_LO, SPAN_HI = 0.5, 3.0


# ----------------------------------------------------------------------
# reproducible field corpus
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCorpus:
    """Seeded collection of smooth strictly positive fields on GRID.

    Fields are random cosine series (zero normal derivative on the walls)
    with a spectrum decaying as (1 + k^2 + m^2)^(-DECAY/2), shifted to sit
    above FLOOR and rescaled to a per-member random span in [SPAN_LO, SPAN_HI].
    Paired signed fields are available for the product-bound checks.

    The series sum_{k,m} a_km cos(k pi x/lx) cos(m pi y/ly), k, m <= MAX_MODE,
    is separable, so each field is built as Cx A Cy^T from two cosine
    tables of shape (nx, MAX_MODE+1) and (ny, MAX_MODE+1), made once per
    corpus, and the amplitude matrix A (A[0, 0] = 0), not as a sum of
    full-grid mode products.  The amplitudes are drawn in one call, in
    (k, m) row-major order.
    """

    n_members: int
    seed: int

    @cached_property
    def _tables(self):
        """(spectral weights of A, cx, cy), shared by every member."""
        g = GRID
        modes = np.arange(MAX_MODE + 1)
        weights = (1.0 + np.add.outer(modes**2, modes**2)) ** (DECAY / 2.0)
        cx = np.cos(modes * np.pi * g.xc()[:, None] / g.lx)
        cy = np.cos(modes * np.pi * g.yc()[:, None] / g.ly)
        weights.flags.writeable = cx.flags.writeable = cy.flags.writeable = False
        return weights, cx, cy

    def _raw(self, rng) -> np.ndarray:
        # two small BLAS products: the first costs OpenBLAS ~0.4 MB of peak RSS,
        # and each field then takes a tenth of the time of a broadcast contraction
        weights, cx, cy = self._tables
        amps = np.zeros(weights.shape)
        amps.flat[1:] = rng.standard_normal(amps.size - 1)  # (k, m) row-major, (0, 0) skipped
        amps /= weights
        return cx @ (amps @ cy.T)

    def member(self, index: int):
        """(phi, psi) pair for one member: phi > 0, psi signed."""
        rng = default_rng([self.seed, index])
        raw = self._raw(rng)
        span = rng.uniform(SPAN_LO, SPAN_HI)
        lo, hi = raw.min(), raw.max()
        phi = FLOOR + span * (raw - lo) / max(hi - lo, 1e-300)
        raw2 = self._raw(rng)
        amp = rng.uniform(0.3, 2.0)
        psi = raw2 * (amp / max(np.abs(raw2).max(), 1e-300))
        return ScalarField(GRID, phi), ScalarField(GRID, psi)

    def pairs(self):
        """The members in index order, each built when it is reached."""
        return (self.member(i) for i in range(self.n_members))


# ----------------------------------------------------------------------
# discrete calculus helpers (cell-centered, second order)
# ----------------------------------------------------------------------

def _hessian(gx, gy, grid):
    """(d2/dx2, d2/dxdy, d2/dy2) from the first derivatives gx, gy."""
    return (*cell_gradients(gx, grid), cell_derivative(gy, grid.hy, 1))


def _integral(values, grid) -> float:
    return float(values.sum() * grid.cell_area)


# ----------------------------------------------------------------------
# log-Hessian identity and estimates
# ----------------------------------------------------------------------

def log_hessian_identity_residual(phi: ScalarField):
    """Residual of the pointwise identity

        |D2 phi|^2 = phi^2 |D2 ln phi|^2 + (1/phi) grad|grad phi|^2 . grad phi
                     - (1/phi^2) |grad phi|^4

    over interior cells (a MARGIN-cell rim is excluded so one-sided
    boundary stencils never enter), together with the two integral gaps

        gap1 = (4+sqrt2)^2 int (|grad phi|^2/phi) |D2 ln phi|^2
               - int |grad phi|^6 / phi^5
        gap2 = (5+sqrt2)^2 int (|grad phi|^2/phi) |D2 ln phi|^2
               - int |D2 phi|^2 |grad phi|^2 / phi^3

    Returns (res_identity, gap1, gap2).
    """
    g = phi.grid
    v = phi.values
    if min(g.nx, g.ny) < 2 * MARGIN + 1:
        raise ValueError(f"need at least {2 * MARGIN + 1} cells per axis, got a {g.nx}x{g.ny} grid")
    if (v <= 0).any():
        raise ValueError("field must be strictly positive")
    gx, gy = cell_gradients(v, g)
    grad2 = gx**2 + gy**2
    hxx, hxy, hyy = _hessian(gx, gy, g)
    hess2 = hxx**2 + 2.0 * hxy**2 + hyy**2

    lxx, lxy, lyy = _hessian(*cell_gradients(np.log(v), g), g)
    lhess2 = lxx**2 + 2.0 * lxy**2 + lyy**2

    tx, ty = cell_gradients(grad2, g)
    transport = (tx * gx + ty * gy) / v

    rhs = v**2 * lhess2 + transport - grad2**2 / v**2
    sl = (slice(MARGIN, -MARGIN), slice(MARGIN, -MARGIN))
    res_identity = float(np.abs(hess2[sl] - rhs[sl]).max())

    weight = grad2 / v * lhess2
    gap1 = EST1_CONST * _integral(weight, g) - _integral(grad2**3 / v**5, g)
    gap2 = EST2_CONST * _integral(weight, g) - _integral(hess2 * grad2 / v**3, g)
    return res_identity, float(gap1), float(gap2)


# ----------------------------------------------------------------------
# Trudinger-type product bounds
# ----------------------------------------------------------------------

def _checked_mass(phi: ScalarField) -> float:
    pv = phi.values
    if (pv < 0).any() or not pv.any():
        raise ValueError("phi must be nonnegative and not identically zero")
    return integrate(phi)


def _trudinger_terms(phi: ScalarField, psi: ScalarField):
    """(int phi, entropy, int |grad psi|^2, int |psi|, int phi |psi|)."""
    g = phi.grid
    pv = phi.values
    mass = _checked_mass(phi)
    mean = mass / g.area
    entropy = _integral(np.where(pv > 0, pv * np.log(np.maximum(pv, 1e-300) / mean), 0.0), g)
    gx, gy = cell_gradients(psi.values, g)
    dirichlet = _integral(gx**2 + gy**2, g)
    l1_psi = _integral(np.abs(psi.values), g)
    lhs = _integral(pv * np.abs(psi.values), g)
    return mass, entropy, dirichlet, l1_psi, lhs


def trudinger_gap(phi: ScalarField, psi: ScalarField, K: float) -> np.ndarray:
    """RHS - LHS of

        int phi |psi| <= (1/a) int phi ln(phi/mean phi)
                         + (1+eta) a / (8 pi) (int phi) int |grad psi|^2
                         + K a (int phi) (int |psi|)^2 + (K/a) int phi

    with eta = ETA, one gap per exponent a of A_VALUES.
    """
    a = A_VALUES
    mass, entropy, dirichlet, l1_psi, lhs = _trudinger_terms(phi, psi)
    rhs = (
        entropy / a
        + (1.0 + ETA) * a / (8.0 * math.pi) * mass * dirichlet
        + K * a * mass * l1_psi**2
        + K / a * mass
    )
    return rhs - lhs


def _sublevel_terms(phi: ScalarField):
    """(int phi, mean phi, dissipation integral, superlevel entropy)."""
    g = phi.grid
    pv = phi.values
    mass = _checked_mass(phi)
    mean = mass / g.area
    mask = pv > S0_TILDE + 1.0
    lhs = _integral(np.where(mask, pv * np.log1p(pv), 0.0), g)
    gx, gy = cell_gradients(pv, g)
    dissip = _integral(pv * (gx**2 + gy**2) / (pv + 1.0) ** 2, g)
    return mass, mean, dissip, lhs


def trudinger_sublevel_gap(phi: ScalarField, K: float) -> float:
    """RHS - LHS of the superlevel-entropy bound

        int_{phi > s0t+1} phi ln(phi+1)
            <= (1+eta) K / L (int phi) int D(phi)|grad phi|^2/(phi+1)^2
               + K (int phi)^3 + (K - ln(mean phi)) int phi + K

    with s0t = S0_TILDE, L = LEVEL, eta = ETA and D(s) = s.
    """
    mass, mean, dissip, lhs = _sublevel_terms(phi)
    rhs = (1.0 + ETA) * K / LEVEL * mass * dissip + K * mass**3 + (K - math.log(mean)) * mass + K
    return float(rhs - lhs)


def _min_constant_trudinger(phi, psi) -> float:
    """Smallest K making the product bound an equality or better for every exponent."""
    a = A_VALUES
    mass, entropy, dirichlet, l1_psi, lhs = _trudinger_terms(phi, psi)
    slack = lhs - entropy / a - (1.0 + ETA) * a / (8.0 * math.pi) * mass * dirichlet
    denom = a * mass * l1_psi**2 + mass / a
    return float(np.fmax(slack / denom, 0.0).max())


def _min_constant_sublevel(phi) -> float:
    mass, mean, dissip, lhs = _sublevel_terms(phi)
    denom = (1.0 + ETA) / LEVEL * mass * dissip + mass**3 + mass + 1.0
    return max(0.0, (lhs + math.log(mean) * mass) / denom)


# ----------------------------------------------------------------------
# ODE envelope and recursion limit
# ----------------------------------------------------------------------

def ode_envelope(y0: float, a: float, b: float, tau: float, t: float) -> float:
    """Bound e^(-a t) y0 + b tau / (1 - e^(-a tau)) for y' + a y <= h with
    windowed forcing (1/tau) int_t^{t+tau} h <= b."""
    if a <= 0 or tau <= 0 or b < 0 or t < 0:
        raise ValueError("need a, tau > 0, b >= 0, t >= 0")
    return y0 * math.exp(-a * t) + b * tau / (1.0 - math.exp(-a * tau))


def equality_mk_sequence(a: float, b: float, logM0: float) -> np.ndarray:
    """log M_k, k <= K_MAX, for the recursion run at equality: M_k = a^k M_{k-1}^2 + b^(2^k)."""
    logs = [logM0]
    for k in range(1, K_MAX + 1):
        logs.append(np.logaddexp(k * math.log(a) + 2.0 * logs[-1], 2.0**k * math.log(b)))
    return np.array(logs)


def slack_mk_sequence(a: float, b: float, logM0: float, seed: int) -> np.ndarray:
    """Admissible sequence to K_MAX with random slack, clipped to stay in [1, inf)."""
    rng = default_rng(seed)
    logs = [logM0]
    for k in range(1, K_MAX + 1):
        cap = np.logaddexp(k * math.log(a) + 2.0 * logs[-1], 2.0**k * math.log(b))
        logs.append(max(0.0, cap + math.log(rng.uniform(0.2, 1.0))))
    return np.array(logs)


def mk_limit_check(M0: float, a: float, b: float, generator) -> tuple:
    """Check liminf_k M_k^(1/2^k) <= 2 sqrt(2) a^3 b M0 on a generated sequence.

    `generator(a, b, logM0)` must return log M_k values, k = 0..K_MAX,
    satisfying M_k <= a^k M_{k-1}^2 + b^(2^k); admissibility is verified
    here (in log space, so large k never overflows).  Returns (liminf_est,
    bound, ok) where liminf_est is the minimum of M_k^(1/2^k) over the
    tail quarter.
    """
    if a < 1.0 or b < 1.0 or M0 < 1.0:
        raise ValueError("need a >= 1, b >= 1, M0 >= 1")
    logs = np.asarray(generator(a, b, math.log(M0)), dtype=float)
    if logs.shape != (K_MAX + 1,):
        raise ValueError("generator must produce K_MAX + 1 log-values")
    if (logs < -1e-12).any():
        raise ValueError("sequence must stay in [1, inf)")
    for k in range(1, K_MAX + 1):
        cap = np.logaddexp(k * math.log(a) + 2.0 * logs[k - 1], 2.0**k * math.log(b))
        if logs[k] > cap + 1e-9:
            raise ValueError(f"generated sequence violates the recursion at k={k}")
    ks = np.arange(K_MAX + 1)
    roots = np.exp(logs / 2.0**ks)
    tail = roots[max(1, K_MAX * 3 // 4):]
    liminf_est = float(tail.min())
    bound = 2.0 * math.sqrt(2.0) * a**3 * b * M0
    return liminf_est, bound, bool(liminf_est <= bound * (1.0 + 1e-9))


# ----------------------------------------------------------------------
# subset-mean Poincare inequality
# ----------------------------------------------------------------------

def _poincare_terms(phi: ScalarField, B_mask: np.ndarray):
    """((int |phi - mean_B phi|^p)^(1/p), (int |grad phi|^p)^(1/p)) with p = P."""
    g = phi.grid
    mask = np.asarray(B_mask, dtype=bool)
    if mask.shape != phi.values.shape:
        raise ValueError("mask shape must match the field")
    nb = int(mask.sum())
    if nb == 0:
        raise ValueError("empty subset B")
    avg = float(phi.values[mask].sum() / nb)
    lhs = _integral(np.abs(phi.values - avg) ** P, g) ** (1.0 / P)
    gx, gy = cell_gradients(phi.values, g)
    rhs = _integral((gx**2 + gy**2) ** (P / 2.0), g) ** (1.0 / P)
    return lhs, rhs


def poincare_subset_gap(phi: ScalarField, B_mask: np.ndarray, C: float) -> float:
    """C * (int |grad phi|^p)^(1/p) - (int |phi - mean_B phi|^p)^(1/p) with p = P."""
    lhs, rhs = _poincare_terms(phi, B_mask)
    return float(C * rhs - lhs)


def _min_constant_poincare(phi, B_mask) -> float:
    lhs, rhs = _poincare_terms(phi, B_mask)
    return lhs / rhs if rhs != 0.0 else 0.0


# ----------------------------------------------------------------------
# calibrate-and-hold-out report
# ----------------------------------------------------------------------

@dataclass
class LemmaCheckRow:
    name: str
    constant: float
    worst_gap: float
    passed: bool


class _HeldOutCheck:
    """One check of the module docstring's protocol, fed argument tuples in order:
    `min_constant(*item)` raises kmin on the calibration half, then each gap of
    `gap(*item, K)` must be >= -REL_TOL * scale(*item, K, gap)."""

    def __init__(self, name: str, min_constant, gap, scale):
        self.name, self.min_constant, self.gap, self.scale = name, min_constant, gap, scale
        self.kmin, self.worst, self.ok = 0.0, float("inf"), True

    def feed(self, item, calibrating: bool):
        if calibrating:
            self.kmin = max(self.kmin, self.min_constant(*item))
            return
        self.K = K = SAFETY * self.kmin if self.kmin > 0 else 1.0  # kmin is final here
        for g in np.atleast_1d(self.gap(*item, K)).tolist():
            self.worst = min(self.worst, g)
            self.ok = self.ok and g >= -REL_TOL * self.scale(*item, K, g)


def run_lemma_checks(corpus: FieldCorpus) -> list:
    """Full verification pass over the corpus streamed in batches; one row per inequality check."""
    if corpus.n_members < 2:
        raise ValueError(
            f"need at least 2 corpus members to calibrate and hold out, got {corpus.n_members}"
        )
    if corpus.seed < 0:
        raise ValueError(f"the corpus seed must be non-negative, got {corpus.seed}")
    rows = []

    # --- log-Hessian identity convergence on an analytic field ---
    res = []
    for nn in (32, 64, 128):
        gg = make_grid(nn, nn, 1.0, 1.0)
        phi = ScalarField.from_function(gg, lambda x, y: np.exp(x))
        res.append(log_hessian_identity_residual(phi)[0])
    order = min(math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1))
    rows.append(LemmaCheckRow("log-hessian identity: convergence order", order, order, order >= 1.8))

    # --- subset-mean Poincare: one random mask per member, in member order ---
    rng = default_rng(corpus.seed + 99)
    varpi = 0.25 * GRID.area
    x, y = GRID.cell_mesh()

    def random_mask():
        while True:
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            r = rng.uniform(0.3, 0.45)
            m = (x - cx * GRID.lx) ** 2 + (y - cy * GRID.ly) ** 2 < (r * GRID.lx) ** 2
            if m.sum() * GRID.cell_area >= varpi:
                return m

    checks = [  # fed (phi, psi), (phi,) and (phi, mask)
        _HeldOutCheck("entropy-weighted product bound", _min_constant_trudinger, trudinger_gap,
                      lambda phi, psi, K, gap: abs(gap) + abs(integrate(phi)) * K),
        _HeldOutCheck("superlevel entropy bound", _min_constant_sublevel, trudinger_sublevel_gap,
                      lambda phi, K, gap: abs(gap) + K * max(integrate(phi) ** 3, 1.0)),
        _HeldOutCheck("subset-mean poincare bound", _min_constant_poincare, poincare_subset_gap,
                      lambda phi, mask, C, gap: C * _poincare_terms(phi, mask)[1] + 1e-30),
    ]

    # --- log-Hessian integral estimates over the whole corpus, in the same pass ---
    members = enumerate(corpus.pairs())
    worst1 = worst2 = float("inf")
    while batch := list(islice(members, BATCH)):
        gaps = [log_hessian_identity_residual(phi)[1:] for _, (phi, psi) in batch]
        worst1 = min(worst1, *(g1 for g1, _ in gaps))
        worst2 = min(worst2, *(g2 for _, g2 in gaps))
        alone = [(i, (phi,)) for i, (phi, psi) in batch]
        masked = [(i, (phi, random_mask())) for i, (phi, psi) in batch]
        for check, items in zip(checks, (batch, alone, masked)):
            for i, item in items:
                check.feed(item, calibrating=i < corpus.n_members // 2)
    rows.append(LemmaCheckRow("log-hessian gradient-power estimate", EST1_CONST, worst1, worst1 >= -REL_TOL))
    rows.append(LemmaCheckRow("log-hessian mixed-curvature estimate", EST2_CONST, worst2, worst2 >= -REL_TOL))
    rows += [LemmaCheckRow(c.name, c.K, c.worst, c.ok) for c in checks]

    # --- windowed-forcing ODE envelope ---
    violations = 0
    worst_margin = float("inf")
    for i in range(100):
        margin = _ode_trajectory_margin(seed=corpus.seed * 1000 + i)
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            violations += 1
    rows.append(LemmaCheckRow("windowed-forcing ode envelope", float(violations), worst_margin, violations == 0))

    # --- doubling-exponent recursion limit ---
    ok = True
    worst = float("inf")
    rng = default_rng(corpus.seed + 5)
    for i in range(100):
        a = float(rng.uniform(1.0, 3.0))
        b = float(rng.uniform(1.0, 2.0))
        m0 = float(rng.uniform(1.0, 4.0))
        gen = (equality_mk_sequence if i % 2 == 0
               else lambda aa, bb, l0: slack_mk_sequence(aa, bb, l0, seed=i))
        liminf_est, bound, passed = mk_limit_check(m0, a, b, gen)
        worst = min(worst, bound - liminf_est)
        ok = ok and passed
    rows.append(LemmaCheckRow("doubling-exponent recursion limit", 2.0 * math.sqrt(2.0), worst, ok))
    return rows


def _ode_trajectory_margin(seed: int) -> float:
    """Exact integration of y' + a y = h for piecewise-constant admissible h;
    returns min over time of (envelope - y)."""
    rng = default_rng(seed)
    a = float(rng.uniform(0.2, 3.0))
    b = float(rng.uniform(0.1, 2.0))
    tau = float(rng.uniform(0.3, 2.0))
    y0 = float(rng.uniform(0.0, 3.0))
    t_end = 12.0
    n_pieces = 240
    dt = t_end / n_pieces
    # pointwise h <= b implies every sliding window average <= b
    h = rng.uniform(0.0, b, size=n_pieces)
    if rng.uniform() < 0.3:
        h[:] = b  # saturated forcing
    forcing = b * tau / (1.0 - math.exp(-a * tau))  # ode_envelope's, hoisted
    decay = math.exp(-a * dt)
    y = y0
    t = 0.0
    margin = ode_envelope(y0, a, b, tau, 0.0) - y0
    for hk in h.tolist():
        y = y * decay + hk / a * (1.0 - decay)
        t += dt
        margin = min(margin, y0 * math.exp(-a * t) + forcing - y)
    return margin


def format_report(rows: Sequence[LemmaCheckRow]) -> str:
    """Plain-text table: check name, calibrated constant, worst gap, verdict."""
    name_w = max(len(r.name) for r in rows) + 2
    lines = [
        f"{'check':<{name_w}}{'constant':>14}{'worst gap':>16}{'result':>9}",
        "-" * (name_w + 39),
    ]
    for r in rows:
        lines.append(
            f"{r.name:<{name_w}}{r.constant:>14.6g}{r.worst_gap:>16.6g}"
            f"{'PASS' if r.passed else 'FAIL':>9}"
        )
    lines.append("")
    return "\n".join(lines)
