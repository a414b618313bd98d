import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chemoflow.diagnostics import (
    SLOPE_TOL,
    DiagnosticsRecord,
    functional_envelope,
    record,
    select_functional,
)
from chemoflow.grid import ScalarField, State, VectorField, integrate, make_grid
from chemoflow.model import (
    ModelSpec,
    PorousMedium,
    build_truncations,
    eval_D2_eps,
    eval_D_eps,
    threshold_s0,
)


def setup_model(L=0.1, gamma=0.5, eps=0.05):
    spec = ModelSpec(diffusion=PorousMedium(2.0), gamma=gamma, s0_sensitivity=1.0,
                     phi_gradient=(0.0, -1.0), epsilon=eps, L=L, M=1.5)
    table = build_truncations(spec, threshold_s0(spec))
    return spec, table


class TestRecord:
    def test_homogeneous_above_truncation(self):
        # with s0 = L = 0.1 and n == 1 >= 2*s0, the truncation term vanishes
        spec, table = setup_model(L=0.1)
        g = make_grid(32, 32, 1.0, 1.0)
        st = State(ScalarField.full(g, 1.0), ScalarField.full(g, 1.2), VectorField.zeros(g), 0.0)
        r = record(st, spec, table)
        d2 = eval_D2_eps(1.0, spec)
        assert r.F == pytest.approx(d2 * g.area, rel=1e-12)
        assert r.G == pytest.approx(d2 * g.area, rel=1e-12)
        # constant signal: gradient terms at round-off level only
        assert r.I_c4 < 1e-25 and r.I_c6 < 1e-25 and r.I_mix < 1e-25
        assert r.mass_n == pytest.approx(1.0)
        assert r.E_u == 0.0 and r.div_u_max == 0.0

    def test_exponential_signal_injection(self):
        # c = e^x makes |grad c|^4 / c^3 = e^x with integral e - 1
        spec, table = setup_model()
        errs = []
        for nn in (32, 64):
            g = make_grid(nn, nn, 1.0, 1.0)
            st = State(
                ScalarField.full(g, 0.0),
                ScalarField.from_function(g, lambda x, y: np.exp(x)),
                VectorField.zeros(g),
                0.0,
            )
            r = record(st, spec, table)
            errs.append(abs(r.I_c4 - (math.e - 1.0)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3
        assert errs[0] / errs[1] > 3.0  # second-order quadrature + gradients

    def test_zero_density(self):
        spec, table = setup_model()
        g = make_grid(16, 16, 1.0, 1.0)
        st = State(
            ScalarField.full(g, 0.0),
            ScalarField.from_function(g, lambda x, y: 1.0 + 0.2 * np.cos(np.pi * x)),
            VectorField.zeros(g),
            0.0,
        )
        r = record(st, spec, table)
        assert r.mass_n == 0.0 and r.I_logn == 0.0 and r.n_max == 0.0
        expected_f = r.I_c4 + g.area * table.eval_psi2(0.0)
        extra_d2 = eval_D2_eps(0.0, spec) * g.area
        assert r.F == pytest.approx(expected_f + extra_d2, rel=1e-12)

    def test_brute_force_functional_recomputation(self, rng):
        # independent quadrature path: python loops straight from the raw state
        spec, table = setup_model(L=0.5)
        g = make_grid(12, 12, 1.0, 1.0)
        n = ScalarField(g, rng.random((12, 12)) * 1.5)
        c = ScalarField(g, rng.random((12, 12)) + 0.4)
        st = State(n, c, VectorField.zeros(g), 0.0)
        r = record(st, spec, table)

        gx, gy = np.gradient(c.values, g.hx, g.hy, edge_order=2)
        f_bf = 0.0
        g_bf = 0.0
        for i in range(12):
            for j in range(12):
                nv, cv = n.values[i, j], c.values[i, j]
                grad2 = gx[i, j] ** 2 + gy[i, j] ** 2
                d2 = eval_D2_eps(nv, spec)
                psi2 = float(table.eval_psi2(nv))
                cell = g.cell_area
                f_bf += (d2 + nv * grad2 / cv + grad2**2 / cv**3 + psi2) * cell
                g_bf += (d2 + grad2**2 / cv**3 + psi2) * cell
        assert r.F == pytest.approx(f_bf, rel=1e-12)
        assert r.G == pytest.approx(g_bf, rel=1e-12)

    def test_entries_nonnegative(self, rng):
        spec, table = setup_model()
        g = make_grid(16, 16, 1.0, 1.0)
        st = State(
            ScalarField(g, rng.random((16, 16))),
            ScalarField(g, rng.random((16, 16)) + 0.3),
            VectorField.zeros(g),
            0.0,
        )
        r = record(st, spec, table)
        for name in ("mass_n", "E_u", "enstrophy", "I_logn", "I_D2grad", "I_Dlog",
                     "I_c4", "I_c6", "I_mix", "I_cq", "F", "G"):
            assert getattr(r, name) >= 0.0


def synth_series(fn, ts):
    rows = []
    for t in ts:
        v = fn(t)
        rows.append(DiagnosticsRecord(
            t=t, mass_n=1.0, c_max=1.0, c_min=0.5, n_max=1.0, div_u_max=0.0,
            E_u=0.0, enstrophy=0.0, I_logn=0.0, I_D2grad=0.0, I_Dlog=0.0,
            I_c4=0.0, I_c6=0.0, I_mix=0.0, I_cq=0.0, F=v, G=v, clamp_mass=0.0,
        ))
    return rows


class TestEnvelope:
    def test_constant_series(self):
        rows = synth_series(lambda t: 2.0, np.linspace(0, 5, 51))
        rep = functional_envelope(rows)
        assert rep.ok and abs(rep.slope) < 1e-15 and rep.ratio == 1.0

    def test_exponential_decay(self):
        rows = synth_series(lambda t: 3.0 * math.exp(-t), np.linspace(0, 6, 121))
        rep = functional_envelope(rows)
        assert rep.ok and rep.slope == pytest.approx(-1.0, rel=1e-12)
        assert rep.ratio == 1.0

    @given(
        f_values=st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=200),
        t0=st.floats(0.0, 1e3),
        gaps=st.lists(st.floats(1e-9, 1e3), min_size=199, max_size=199),
    )
    def test_report_well_formed(self, f_values, t0, gaps):
        # gaps >= 1e-9 keep sum (t - t_mean)^2 positive; gaps near 1e-310
        # underflow it (see test_overflowing_quotient_rejected)
        ts = t0 + np.concatenate([[0.0], np.cumsum(gaps[: len(f_values) - 1])])
        values = iter(f_values)
        rep = functional_envelope(synth_series(lambda t: next(values), ts))
        assert math.isfinite(rep.slope)
        assert rep.ok == (rep.slope <= SLOPE_TOL)
        assert rep.ratio == max(f_values) / f_values[0]

    @pytest.mark.parametrize("series", [
        # a transient that settles like the reference F (8.0 to 1.55 in its
        # first interval of 0.05), then grows
        pytest.param(lambda t: (1.3 + 6.7 * math.exp(-66.0 * t)) * (1.0 + 0.2 * t), id="linear"),
        pytest.param(lambda t: (1.3 + 6.7 * math.exp(-66.0 * t)) * math.exp(0.05 * t), id="exponential"),
        # a slower transient, falling steeply through the first quarter second
        pytest.param(lambda t: (1.3 + 6.7 * math.exp(-20.0 * t)) * math.exp(0.05 * t),
                     id="exponential-slow-transient"),
        pytest.param(lambda t: math.exp(0.05 * t), id="exponential-no-transient"),
    ])
    def test_growth_past_calibration_rejected(self, series):
        # each probe grows at a rate of at least 0.05 on the held-out half,
        # and the slope reads it whatever the transient did before
        rep = functional_envelope(synth_series(series, np.linspace(0, 10, 201)))
        assert not rep.ok and rep.slope >= 0.05 * (1 - 1e-12)

    def test_round_off_noise_at_rest_feasible(self):
        # a state at rest: F constant up to +-9e-15 of round-off
        noise = iter(np.random.default_rng(0).uniform(-9e-15, 9e-15, 201))
        rows = synth_series(lambda t: 1.302172864557 + next(noise), np.linspace(0, 10, 201))
        rep = functional_envelope(rows)
        assert rep.ok and abs(rep.slope) < 1e-14

    def test_two_records_trivially_feasible(self):
        # with m = 1 interval the held-out records m // 2 ... m are both
        rep = functional_envelope(synth_series(lambda t: 2.0 - t, [0.0, 0.5]))
        assert rep.ok and rep.slope == pytest.approx(2.0 * math.log(0.75)) and rep.ratio == 1.0
        rep = functional_envelope(synth_series(lambda t: 2.0, [0.0]))
        assert rep.ok and rep.slope == 0.0 and rep.ratio == 1.0

    def test_overflowing_quotient_rejected(self):
        # (t - t_mean)^2 underflows to 0 on a gap of 1e-310
        rows = synth_series(lambda t: 1.0 if t == 0.0 else 1e6, [0.0, 1e-310])
        with pytest.raises(ValueError, match="slope of log F is not finite"):
            functional_envelope(rows)

    @pytest.mark.parametrize("functional", ["F", "G"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_value_rejected(self, functional, bad):
        rows = synth_series(lambda t: bad if t == 0.5 else 1.0, [0.0, 0.25, 0.5, 0.75])
        with pytest.raises(ValueError, match=rf"^{functional} = {bad:.3g} <= 0 at t = 0.5: "
                                             rf"log {functional} is undefined$"):
            functional_envelope(rows, functional=functional)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            functional_envelope([])

    def test_unsorted_rejected(self):
        rows = synth_series(lambda t: 1.0, [0.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="sorted"):
            functional_envelope(rows)


class TestSelectFunctional:
    def _spec(self, gamma):
        return ModelSpec(diffusion=PorousMedium(2.0), gamma=gamma, M=1.5,
                         epsilon=0.05, L=1.0)

    def test_small_gamma(self):
        assert select_functional(self._spec(0.3)) == "F"
        assert select_functional(self._spec(0.5)) == "F"

    def test_large_gamma(self):
        # the mass bound ||n0||_1 <= M that G needs is a config check
        # (test_config.py::TestParse::test_large_gamma_needs_mass_bound)
        assert select_functional(self._spec(0.8)) == "G"
        assert select_functional(self._spec(5.0 / 6.0)) == "G"

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            self._spec(0.85)
