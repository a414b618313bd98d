import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from chemoflow.model import (
    ModelSpec,
    PorousMedium,
    TabulatedDiffusion,
    build_truncations,
    eval_D,
    eval_D_eps,
    eval_D_primitives,
    kappa_of,
    threshold_s0,
)
from naive_operators import eval_S_eps


def porous(m, eps=0.05, **kw):
    return ModelSpec(diffusion=PorousMedium(m), epsilon=eps, **kw)


def tabulated(knots, values, eps=0.05, **kw):
    return ModelSpec(diffusion=TabulatedDiffusion(tuple(knots), tuple(values)), epsilon=eps, **kw)


class TestDiffusivity:
    def test_linear_case(self):
        assert eval_D(3.0, porous(2.0)) == 3.0

    def test_degenerate_at_zero(self):
        assert eval_D(0.0, porous(2.0)) == 0.0

    def test_sqrt_case(self):
        assert eval_D(4.0, porous(1.5)) == pytest.approx(2.0)

    def test_regularized_closed_form(self):
        spec = porous(2.0, eps=0.25)
        v = eval_D_eps(1.0, spec)
        assert v == pytest.approx(1.25)
        assert eval_D(1.0, spec) <= v <= eval_D(1.0, spec) + 2 * spec.epsilon

    def test_regularized_floor_at_zero(self):
        assert eval_D_eps(0.0, porous(3.0, eps=0.04)) == pytest.approx(0.04)

    def test_regularized_large_density(self):
        assert eval_D_eps(10.0, porous(2.0, eps=0.1)) == pytest.approx(10.1)

    @given(
        st.floats(0.0, 50.0),
        st.floats(1e-6, 0.999),
        st.floats(1.01, 2.0),
    )
    def test_bracket(self, n, eps, m):
        spec = porous(m, eps=eps)
        d = eval_D(n, spec)
        de = eval_D_eps(n, spec)
        assert de >= eps * (1 - 1e-12)
        assert d - 1e-12 <= de <= d + 2 * eps + 1e-12

    @given(st.floats(0.0, 20.0), st.floats(1e-3, 0.9))
    def test_bracket_tabulated(self, n, eps):
        spec = tabulated([0.0, 1.0, 5.0], [0.5, 2.0, 1.0], eps=eps)
        d = eval_D(n, spec)
        de = eval_D_eps(n, spec)
        assert de == pytest.approx(d + eps)


class TestPrimitives:
    def test_unregularized_m2(self):
        d1, d2 = eval_D_primitives(1.0, porous(2.0, eps=0.0))
        assert d1 == pytest.approx(0.5)
        assert d2 == pytest.approx(1.0 / 6.0)

    def test_zero_density(self):
        assert eval_D_primitives(0.0, porous(1.7, eps=0.3)) == (0.0, 0.0)

    def test_m2_with_eps(self):
        d1, d2 = eval_D_primitives(2.0, porous(2.0, eps=0.5))
        assert d1 == pytest.approx(3.0)       # n^2/2 + eps*n
        assert d2 == pytest.approx(7.0 / 3.0)  # n^3/6 + eps*n^2/2

    def test_tabulated_against_quadrature(self):
        spec = tabulated([0.0, 0.5, 2.0, 3.0], [0.2, 1.0, 0.7, 1.5], eps=0.1)

        def d_eps(s):
            return float(eval_D_eps(s, spec))

        for n in (0.3, 1.0, 2.7, 3.5, 6.0):
            d1_ref = quad(d_eps, 0.0, n, limit=200)[0]
            d1, d2 = eval_D_primitives(n, spec)
            assert d1 == pytest.approx(d1_ref, rel=1e-9)
            d2_ref = quad(lambda s: eval_D_primitives(s, spec)[0], 0.0, n, limit=200)[0]
            assert d2 == pytest.approx(d2_ref, rel=1e-8)

    @given(st.floats(1.05, 2.0), st.floats(0.0, 0.9), st.integers(0, 10**6))
    def test_second_primitive_convex(self, m, eps, seed):
        # D2'' = D_eps >= eps > 0, so second differences are nonnegative
        spec = porous(m, eps=max(eps, 1e-6))
        r = np.random.default_rng(seed)
        n = np.sort(r.uniform(0.0, 10.0, size=16))
        h = 1e-3
        _, lo = eval_D_primitives(n - np.minimum(n, h), spec)
        _, mid = eval_D_primitives(n, spec)
        _, hi = eval_D_primitives(n + h, spec)
        second = hi - 2 * mid + lo
        assert (second >= -1e-9).all()


class TestSensitivity:
    def test_isotropic_prototype(self):
        spec = porous(2.0, eps=0.1, gamma=0.5, s0_sensitivity=1.0)
        c = 4.0 - spec.epsilon  # so c + eps = 4
        s = eval_S_eps(0.5, 0.5, 1.0, c, spec, 1.0, 1.0)
        assert np.allclose(s, 0.5 * np.eye(2))

    def test_boundary_cutoff(self):
        spec = porous(2.0, eps=0.1)
        s = eval_S_eps(0.05, 0.5, 1.0, 1.0, spec, 1.0, 1.0)
        assert np.all(s == 0.0)

    def test_density_cutoff(self):
        spec = porous(2.0, eps=0.1)
        s = eval_S_eps(0.5, 0.5, 3.0 / spec.epsilon, 1.0, spec, 1.0, 1.0)
        assert np.all(s == 0.0)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 30.0),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0 / 6.0),
    )
    def test_norm_bound(self, x, y, n, c, gamma):
        spec = porous(2.0, eps=0.2, gamma=gamma, s0_sensitivity=1.5)
        s = eval_S_eps(x, y, n, c, spec, 1.0, 1.0)
        opnorm = np.linalg.norm(s, 2)
        bound = spec.s0_sensitivity / (c + spec.epsilon) ** gamma
        assert opnorm <= bound * (1 + 1e-12)

    def test_rotation_is_rotation_times_scalar(self):
        spec = porous(2.0, eps=0.1, sensitivity_kind="rotation", rotation_angle=0.7)
        s = eval_S_eps(0.5, 0.5, 0.5, 1.0, spec, 1.0, 1.0)
        r = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
        factor = s[0, 0] / r[0, 0]
        assert np.allclose(s, factor * r)


class TestThreshold:
    def test_linear(self):
        assert threshold_s0(porous(2.0, L=5.0)) == pytest.approx(5.0, rel=1e-9)

    def test_sqrt(self):
        assert threshold_s0(porous(1.5, L=2.0)) == pytest.approx(4.0, rel=1e-9)

    def test_unreachable(self):
        with pytest.raises(ValueError, match="L unreachable"):
            threshold_s0(tabulated([0.0, 10.0], [1.0, 1.0], L=2.0))

    def test_tabulated_crossing(self):
        spec = tabulated([0.0, 1.0, 2.0], [0.1, 0.1, 3.0], L=1.0)
        s0 = threshold_s0(spec)
        assert eval_D(s0, spec) >= 1.0
        assert 1.0 < s0 < 2.0

    def test_tabulated_crossing_solved_on_segment(self):
        # D crosses L = 1 on [1, 2] at 1 + 0.9/2.9; s0 is the first double
        # at which the interpolated D reaches L, within an ulp of it
        spec = tabulated([0.0, 1.0, 2.0], [0.1, 0.1, 3.0], L=1.0)
        s0 = threshold_s0(spec)
        assert abs(s0 - (1.0 + 0.9 / 2.9)) <= math.ulp(s0)
        assert eval_D(s0, spec) >= 1.0 > eval_D(math.nextafter(s0, 0.0), spec)
        assert threshold_s0(tabulated([0.0, 1.0], [2.0, 3.0], L=1.0)) == 1e-3


class TestKappa:
    def test_m2(self):
        assert kappa_of(1.0, porous(2.0)) == 1.0

    def test_m15(self):
        assert kappa_of(2.0, porous(1.5)) == pytest.approx(0.5)

    def test_m_above_2_degenerate(self):
        with pytest.raises(ValueError, match="degenerate near zero"):
            kappa_of(0.5, porous(2.5))

    def test_tabulated_positive(self):
        k = kappa_of(1.0, tabulated([0.0, 5.0], [1.0, 1.0]))
        assert k == pytest.approx(0.5, rel=1e-3)  # inf of 1/n on (0, 2)

    def test_tabulated_exact(self):
        # D(n)/n is monotone between knots, so the infimum sits at a knot
        # or at 2*s0: here at the knot 1, at 2*s0 = 4, and on a first
        # segment with D(0) = 0, where the ratio is the constant slope 3
        assert kappa_of(2.0, tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 4.0])) == 0.5
        assert kappa_of(2.0, tabulated([0.0, 1.0, 2.0], [0.0, 3.0, 3.0])) == 0.75
        assert kappa_of(0.25, tabulated([0.0, 1.0, 2.0], [0.0, 3.0, 3.0])) == 3.0


class TestTruncations:
    def _const_d_spec(self, d):
        # tabulated D == d with eps = 0 gives D_eps == d exactly
        return tabulated([0.0, 100.0], [d, d], eps=0.0)

    def test_branches(self):
        d = 2.0
        spec = self._const_d_spec(d)
        t = build_truncations(spec, 1.0)
        assert t.eval_psi0(0.5) == pytest.approx(1.0 / d, rel=1e-6)
        assert t.eval_psi0(1.5) == pytest.approx(0.5 / d, rel=1e-6)
        assert t.eval_psi0(3.0) == 0.0

    def test_vanishing_at_two_s0(self):
        t = build_truncations(self._const_d_spec(2.0), 1.0)
        assert abs(t.eval_psi1(2.0)) < 1e-12
        assert abs(t.eval_psi2(2.0)) < 1e-12

    def test_psi2_at_zero(self):
        d = 2.0
        t = build_truncations(self._const_d_spec(d), 1.0)
        # piecewise integration gives Psi2(0) = 7/(6d); bound is 3*s0/kappa = 6/d
        assert t.eval_psi2(0.0) == pytest.approx(7.0 / (6.0 * d), rel=1e-5)
        assert t.psi2_bound == pytest.approx(6.0 / d, rel=1e-3)
        assert t.eval_psi2(0.0) <= t.psi2_bound

    @given(st.floats(1.2, 2.0), st.floats(0.2, 3.0))
    def test_psi2_monotone_bounded(self, m, s0):
        spec = porous(m, eps=0.05)
        t = build_truncations(spec, s0)
        vals = t.eval_psi2(np.linspace(0, 3 * s0, 400))
        assert (np.diff(vals) <= 1e-12).all()
        assert (vals >= -1e-12).all()
        assert (vals <= t.psi2_bound * (1 + 1e-9)).all()
        assert t.eval_psi2(2.0 * s0 + 0.1) == 0.0


class TestModelSpecValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError, match=r"\[0, 5/6\]"):
            porous(2.0, gamma=0.9)

    def test_gamma_bound_is_exact(self):
        assert porous(2.0, gamma=5.0 / 6.0).gamma == 5.0 / 6.0
        with pytest.raises(ValueError, match=r"\[0, 5/6\]"):
            porous(2.0, gamma=math.nextafter(5.0 / 6.0, 1.0))

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            porous(2.0, eps=1.0)

    def test_tabulated_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TabulatedDiffusion((0.0, 1.0), (0.5, -1.0))

    def test_unknown_sensitivity(self):
        with pytest.raises(ValueError, match="sensitivity"):
            ModelSpec(diffusion=PorousMedium(2.0), sensitivity_kind="sideways")

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rotation_angle_must_be_finite(self, angle):
        with pytest.raises(ValueError, match="rotation_angle"):
            ModelSpec(diffusion=PorousMedium(2.0), sensitivity_kind="rotation", rotation_angle=angle)
