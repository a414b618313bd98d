"""Acceptance suite for the benchmark configuration.

One test per acceptance criterion, each printing a PASS/FAIL line.  The
benchmark run R: unit square, 64x64, quadratic porous-medium diffusion,
gamma = 0.5, unit isotropic sensitivity, buoyancy (0, -1), eps = 0.05,
c0 = 1 + 0.5 cos(pi x) cos(pi y), unit-mass Gaussian density bump,
u0 = 0, horizon T = 10, record cadence 0.05.
"""

import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from chemoflow.analysis import (
    FieldCorpus,
    log_hessian_identity_residual,
    run_lemma_checks,
)
from chemoflow.config import parse_config, reference_config_text
from chemoflow.diagnostics import SLOPE_TOL, functional_envelope, record, select_functional
from chemoflow.grid import ScalarField, State, VectorField, integrate, make_grid
from chemoflow.io import emit_snapshot, emit_timeseries
from chemoflow.model import ModelSpec, PorousMedium, build_truncations, threshold_s0
from chemoflow.operators import PoissonSolver
from chemoflow.solver import TimeControls, run
from chemoflow.sweeps import eps_sweep


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _execute_reference(gamma=0.5, t_end=10.0, **overrides):
    cfg = parse_config(reference_config_text(gamma=gamma, t_end=t_end, **overrides))
    spec = cfg.spec
    table = build_truncations(spec, threshold_s0(spec))
    poisson = PoissonSolver(cfg.grid)
    records = []
    snapshots = []

    def sink(state, clamp):
        records.append(record(state, spec, table, clamp_mass=clamp))
        if abs(state.t - round(state.t)) < 1e-9:  # one snapshot per unit time
            snapshots.append(emit_snapshot(state))

    run(cfg.initial_state(), spec, cfg.controls, poisson, sinks=[sink], cadence=cfg.cadence)
    return cfg, records, emit_timeseries(records), snapshots


@pytest.fixture(scope="module")
def reference(request):
    return _execute_reference()


@pytest.fixture(scope="module")
def reference_gamma07():
    return _execute_reference(gamma=0.7)


class TestReferenceRun:
    def test_mass_conservation(self, reference):
        _, records, _, _ = reference
        m0 = records[0].mass_n
        drift = max(abs(r.mass_n - m0) / m0 for r in records)
        clamped = records[-1].clamp_mass
        ok = drift <= 1e-10 and clamped <= 1e-10 * m0
        _report("mass-conservation", ok, f"max drift {drift:.3e}, clamped {clamped:.3e}")

    def test_signal_maximum_principle(self, reference):
        _, records, _, _ = reference
        worst = max(b.c_max - a.c_max for a, b in zip(records, records[1:]))
        _report("signal-max-principle", worst <= 1e-12, f"worst per-step increase {worst:.3e}")

    def test_signal_lower_bound(self, reference):
        _, records, _, _ = reference
        cmin0 = records[0].c_min
        kprime = 0.0
        ok = True
        margin = float("inf")
        for r in records:
            kprime = max(kprime, r.n_max)
            bound = cmin0 * math.exp(-kprime * r.t) * (1.0 - 1e-6)
            ok = ok and r.c_min >= bound
            margin = min(margin, r.c_min / bound)
        _report("signal-lower-bound", ok, f"min(c_min/bound) {margin:.6f}")

    def test_incompressibility(self, reference):
        _, records, _, _ = reference
        worst = max(r.div_u_max for r in records)
        _report("incompressibility", worst <= 1e-8, f"max divergence {worst:.3e}")

    def test_signal_gradient_quartic_bounded(self, reference):
        # boundedness of the quartic signal-gradient integral on the late
        # half of the run: running max grows < 1% past its value at t = 5,
        # or the quantity has decayed so far below its peak that relative
        # growth is below measurement precision
        _, records, _, _ = reference
        tail = [r for r in records if r.t >= 5.0 - 1e-9]
        base = tail[0].I_c4
        runmax = max(r.I_c4 for r in tail)
        peak = max(r.I_c4 for r in records)
        growth = (runmax - base) / base if base > 0 else 0.0
        decayed = runmax <= 1e-9 * peak
        _report(
            "signal-gradient-quartic-bounded",
            growth < 0.01 or decayed,
            f"growth {growth:.3e}, tail max {runmax:.3e} vs peak {peak:.3e}",
        )

    def test_density_bounded(self, reference):
        _, records, _, _ = reference
        tail = [r for r in records if r.t >= 5.0 - 1e-9]
        base = tail[0].n_max
        runmax = max(r.n_max for r in tail)
        growth = (runmax - base) / base
        _report("density-bounded", growth < 0.01, f"growth {growth:.3e}")

    def test_energy_envelope(self, reference, reference_gamma07):
        # F (gamma = 1/2) and G (gamma = 0.7) stop growing on the held-out half
        _, records, _, _ = reference
        rep = functional_envelope(records, functional="F")

        cfg7, records7, _, _ = reference_gamma07
        fn = select_functional(cfg7.spec)
        rep7 = functional_envelope(records7, functional=fn)
        _report(
            "energy-envelope",
            rep.ok and fn == "G" and rep7.ok,
            f"F: slope={rep.slope:.3g} max/F0={rep.ratio:.4g}; "
            f"G: slope={rep7.slope:.3g} max/G0={rep7.ratio:.4g}; SLOPE_TOL={SLOPE_TOL:g}",
        )

    def test_energy_envelope_rejects_growth(self, reference):
        # the reference F, made to grow by 20 % per unit time, must fail the hold-out
        _, records, _, _ = reference
        probe = [dc_replace(r, F=r.F * (1.0 + 0.2 * r.t)) for r in records]
        rep = functional_envelope(probe, functional="F")
        _report(
            "energy-envelope-rejects-growth",
            not rep.ok,
            f"F*(1+0.2t): slope={rep.slope:.3g} max/F0={rep.ratio:.4g}; SLOPE_TOL={SLOPE_TOL:g}",
        )

    def test_window_averaged_dissipation(self, reference):
        _, records, _, _ = reference
        ts = [r.t for r in records]
        details = []
        ok = True
        for key in ("I_cq", "I_Dlog"):
            vals = [getattr(r, key) for r in records]
            averages = []
            for i, t in enumerate(ts):
                if t < 1.0 - 1e-9:
                    continue
                idx = [j for j, tt in enumerate(ts) if t - 1.0 - 1e-12 < tt <= t + 1e-12]
                acc = sum(
                    0.5 * (vals[a] + vals[b]) * (ts[b] - ts[a]) for a, b in zip(idx, idx[1:])
                )
                averages.append((t, acc))
            t_mid = 0.5 * (averages[0][0] + averages[-1][0])
            runmax_mid = max(v for t, v in averages if t <= t_mid)
            runmax_end = max(v for _, v in averages)
            growth = (runmax_end - runmax_mid) / runmax_mid
            ok = ok and growth < 0.01
            details.append(f"{key} growth {growth:.3e}")
        _report("window-averaged-dissipation", ok, "; ".join(details))


def _barenblatt_l1_error(m, epsilon, nn):
    """L1 distance at t1 between the scheme and the Barenblatt solution.

    With S0 = 0 and no buoyancy, u stays 0 and n solves n_t =
    div(D_eps(n) grad n); for D = n^(m-1) and small eps that is nearly
    n(x, t) = U(x, t/m), with U the Barenblatt profile of u_t = Lap u^m
    (alpha = 1/m in 2-D), whose support grows from radius 0.15 to 0.35
    inside the square.  n on an nn x nn grid, dt_max = 1e-3.
    """
    alpha = 1.0 / m
    k = alpha * (m - 1.0) / (4.0 * m)
    r0, r1, peak = 0.15, 0.35, 1.3
    top = (k * peak * r1**2) ** ((m - 1.0) / m)
    tau1 = (top ** (1.0 / (m - 1.0)) / peak) ** m
    tau0 = tau1 * (r0 / r1) ** (2.0 * m)

    def cell_averages(g, tau, sub=8):
        s = (np.arange(sub) + 0.5) / sub
        x = (np.arange(g.nx)[:, None] + s).ravel() * g.hx - 0.5
        y = (np.arange(g.ny)[:, None] + s).ravel() * g.hy - 0.5
        r2 = x[:, None] ** 2 + y[None, :] ** 2
        u = tau**-alpha * np.maximum(top - k * r2 * tau**-alpha, 0.0) ** (1.0 / (m - 1.0))
        return u.reshape(g.nx, sub, g.ny, sub).mean(axis=(1, 3))

    spec = ModelSpec(diffusion=PorousMedium(m), s0_sensitivity=0.0, phi_gradient=(0.0, 0.0),
                     epsilon=epsilon, L=0.5, M=10.0)
    g = make_grid(nn, nn, 1.0, 1.0)
    initial = State(ScalarField(g, cell_averages(g, tau0)), ScalarField.full(g, 1.0),
                    VectorField.zeros(g), m * tau0)
    final = run(initial, spec, TimeControls(t_end=m * tau1, dt_max=1e-3), PoissonSolver(g))
    assert final.n.values.min() >= 0.0
    return float(np.abs(final.n.values - cell_averages(g, tau1)).sum()) * g.cell_area


class TestExactSolutions:
    def test_uniform_state(self):
        cfg = parse_config(
            reference_config_text(
                t_end=1.0,
                n0="constant: value=1.0",
                c0="constant: value=1.0",
                cadence=0.1,
            )
        )
        final = run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid))
        dt = cfg.controls.dt_max
        c_err = abs(final.c.values.max() / math.exp(-1.0) - 1.0)
        u_max = max(np.abs(final.u.ux).max(), np.abs(final.u.uy).max())
        n_err = np.abs(final.n.values - 1.0).max()
        ok = c_err <= 5 * dt and u_max <= 1e-10 and n_err <= 1e-12
        _report(
            "uniform-state-exact",
            ok,
            f"c rel err {c_err:.3e} (tol {5*dt:.2e}), |u| {u_max:.2e}, |n-1| {n_err:.2e}",
        )

    @pytest.mark.parametrize("m, epsilon", [(2.0, 1e-6), (1.5, 1e-3)])
    def test_barenblatt_spatial_order(self, m, epsilon):
        errors = [_barenblatt_l1_error(m, epsilon, nn) for nn in (32, 64, 128)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        _report(
            f"barenblatt-order-m{m:g}",
            min(orders) >= 1.75,
            "L1 " + " / ".join(f"{e:.3e}" for e in errors)
            + " on 32^2 / 64^2 / 128^2, orders " + ", ".join(f"{o:.2f}" for o in orders) + " (tol 1.75)",
        )

    def test_barenblatt_eps_bias_is_first_order(self):
        # at 64^2 the grid error (3.2e-4 at eps = 1e-6) is below the
        # regularisation bias for eps >= 0.005, so halving eps halves the
        # L1 distance from the eps = 0 Barenblatt solution
        eps_list = (0.04, 0.02, 0.01, 0.005)
        errors = [_barenblatt_l1_error(2.0, eps, 64) for eps in eps_list]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        _report(
            "barenblatt-eps-bias-order",
            all(abs(o - 1.0) <= 0.15 for o in orders),
            "L1 " + " / ".join(f"{e:.3e}" for e in errors)
            + " at eps " + " / ".join(f"{e:g}" for e in eps_list)
            + ", orders " + ", ".join(f"{o:.3f}" for o in orders) + " (tol 1 +- 0.15)",
        )


def _aggregation_config(nn, L, amp):
    """A uniform density n0 = 0.5 drawn up the gradient of
    c0 = 1 + amp cos(pi x) cos(pi y) by strong taxis (S0 = 20), with
    D = 0, 0.02, L at n = 0, 1, 3 (constant beyond) and threshold level L,
    to T = 0.2 at cadence 0.0025 on nn x nn."""
    text = reference_config_text(
        t_end=0.2, nx=nn, ny=nn, cadence=0.0025, n0="constant: value=0.5",
        c0=f"cosine: base=1.0, amp={amp}, kx=1, ky=1",
    )
    text = (text.replace("s0_sensitivity = 1.0", "s0_sensitivity = 20")
            .replace("diffusion = porous_medium\nm = 2.0",
                     f"diffusion = tabulated\ntable_knots = 0, 1, 3\ntable_values = 0, 0.02, {L}")
            .replace("l = 2.0", f"l = {L}"))
    return parse_config(text)


def _aggregation_peak(nn, L, amp):
    """sup over record ticks of n_max in the aggregation run of _aggregation_config."""
    cfg = _aggregation_config(nn, L, amp)
    peaks = []
    run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid),
        sinks=[lambda state, clamp: peaks.append(float(state.n.values.max()))], cadence=cfg.cadence)
    return max(peaks)


class TestThresholdMechanism:
    """The theorem's threshold: for ||c0||_inf <= M, large-density diffusion
    above a level L = L(M) keeps n bounded.  Here taxis drives n_max from 0.5
    to several times that, and the peak falls as L rises and as c0 (so M)
    shrinks.  Both orderings are gated on two grids."""

    @pytest.mark.parametrize("nn", [32, 64])
    def test_peak_ordered_in_threshold_level_and_signal_bound(self, nn):
        by_level = [_aggregation_peak(nn, L, 0.45) for L in (0.05, 0.5, 5.0)]
        weak_signal = _aggregation_peak(nn, 0.5, 0.2)
        ok = (by_level[0] > by_level[1] > by_level[2] and weak_signal < by_level[1]
              and min(by_level + [weak_signal]) >= 3 * 0.5)
        _report(
            f"threshold-mechanism-{nn}",
            ok,
            "peak n_max " + " / ".join(f"{p:.4f}" for p in by_level)
            + f" at L = 0.05 / 0.5 / 5 (amp 0.45), {weak_signal:.4f} at L = 0.5, amp 0.2;"
            " strictly decreasing in L and in amp, each >= 3 max n0 = 1.5",
        )

    def test_energy_envelope_where_F_moves(self):
        # the reference record is flat from t ~ 1; here F rises by 7 % while
        # taxis gathers n (23.58 -> 25.30 at t = 0.06), then falls to 22.28
        cfg = _aggregation_config(32, 0.5, 0.45)
        table = build_truncations(cfg.spec, threshold_s0(cfg.spec))
        records = []
        run(cfg.initial_state(), cfg.spec, cfg.controls, PoissonSolver(cfg.grid),
            sinks=[lambda state, clamp: records.append(record(state, cfg.spec, table, clamp_mass=clamp))],
            cadence=cfg.cadence)
        rep = functional_envelope(records, functional=select_functional(cfg.spec))
        _report(
            "energy-envelope-aggregation-32",
            rep.ok and rep.ratio > 1.05,
            f"F: slope={rep.slope:.3g} max/F0={rep.ratio:.4g}; SLOPE_TOL={SLOPE_TOL:g}, F must have risen by 5 %",
        )


class TestStandaloneInequalities:
    def test_log_hessian_identity(self):
        residuals = []
        for nn in (32, 64, 128):
            g = make_grid(nn, nn, 1.0, 1.0)
            phi = ScalarField.from_function(g, lambda x, y: np.exp(x))
            residuals.append(log_hessian_identity_residual(phi)[0])
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        worst1 = worst2 = float("inf")
        corpus = FieldCorpus(n_members=100)
        for phi in [corpus.member(i)[0] for i in range(corpus.n_members)]:
            _, g1, g2 = log_hessian_identity_residual(phi)
            worst1 = min(worst1, g1)
            worst2 = min(worst2, g2)
        ok = min(orders) >= 1.8 and worst1 >= -1e-8 and worst2 >= -1e-8
        _report(
            "log-hessian-identity",
            ok,
            f"orders {['%.2f' % o for o in orders]}, worst gaps {worst1:.3e}, {worst2:.3e}",
        )

    def test_ode_envelope_domination(self):
        from chemoflow.analysis import ode_envelope

        violations = 0
        for i in range(100):
            rng = np.random.default_rng(31000 + i)
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.1, 2.0)
            tau = rng.uniform(0.3, 2.0)
            y0 = rng.uniform(0.0, 3.0)
            n_pieces, t_end = 240, 12.0
            dt = t_end / n_pieces
            h = rng.uniform(0.0, b, size=n_pieces)
            if i % 4 == 0:
                h[:] = b
            y, t = y0, 0.0
            for k in range(n_pieces):
                decay = math.exp(-a * dt)
                y = y * decay + h[k] / a * (1.0 - decay)
                t += dt
                if y > ode_envelope(y0, a, b, tau, t) + 1e-9:
                    violations += 1
        _report("ode-envelope-domination", violations == 0, f"{violations} violations / 100 trajectories")

    def test_recursion_limit(self):
        from chemoflow.analysis import equality_mk_sequence, mk_limit_check, slack_mk_sequence

        closed = lambda a, b, l0, km: np.array([2.0**k * math.log(2.0) for k in range(km + 1)])
        liminf_est, bound, ok_closed = mk_limit_check(2.0, 1.0, 1.0, 40, closed)
        failures = 0 if ok_closed else 1
        rng = np.random.default_rng(88)
        for i in range(100):
            a = float(rng.uniform(1.0, 3.5))
            b = float(rng.uniform(1.0, 2.5))
            m0 = float(rng.uniform(1.0, 5.0))
            gen = (
                equality_mk_sequence
                if i % 2
                else (lambda aa, bb, l0, km: slack_mk_sequence(aa, bb, l0, km, seed=2000 + i))
            )
            if not mk_limit_check(m0, a, b, 30, gen)[2]:
                failures += 1
        _report(
            "recursion-limit",
            failures == 0,
            f"closed-form liminf {liminf_est:.3f} <= bound {bound:.3f}; failures {failures}",
        )

    def test_calibrated_inequality_gaps(self):
        rows = run_lemma_checks(FieldCorpus(n_members=100))
        wanted = ("entropy-weighted product bound", "superlevel entropy bound",
                  "subset-mean poincare bound")
        picked = [r for r in rows if r.name in wanted]
        assert len(picked) == len(wanted)
        ok = all(r.passed for r in picked)
        detail = "; ".join(f"{r.name}: K={r.constant:.3g} worst gap {r.worst_gap:.3e}" for r in picked)
        _report("calibrated-inequality-gaps", ok, detail)


class TestHarness:
    def test_eps_cauchy(self):
        base = parse_config(reference_config_text(t_end=10.0))
        d = eps_sweep(base, [0.1, 0.05, 0.025, 0.0125], T=10.0)
        ok = all(
            all(b < a for a, b in zip(seq, seq[1:])) and all(v > 0 for v in seq)
            for seq in (d.n, d.c, d.u)
        )
        _report(
            "eps-cauchy",
            ok,
            f"d_n {['%.3e' % v for v in d.n]}, d_c {['%.3e' % v for v in d.c]}, "
            f"d_u {['%.3e' % v for v in d.u]}",
        )

    def test_determinism(self, reference):
        _, _, csv_first, snaps_first = reference
        _, _, csv_second, snaps_second = _execute_reference()
        ok = csv_first == csv_second and snaps_first == snaps_second
        _report(
            "determinism",
            ok,
            f"CSV identical: {csv_first == csv_second}; "
            f"snapshots identical: {snaps_first == snaps_second} ({len(snaps_first)} blobs)",
        )
