import numpy as np
import pytest
from hypothesis import given, strategies as st

from chemoflow.grid import (
    Grid,
    ScalarField,
    State,
    VectorField,
    cell_derivative,
    cell_gradients,
    integrate,
    make_grid,
)
from chemoflow.solver import check_initial


class TestMakeGrid:
    def test_square(self):
        g = make_grid(4, 4, 1.0, 1.0)
        assert g.hx == 0.25 and g.hy == 0.25

    def test_rectangle(self):
        g = make_grid(64, 32, 2.0, 1.0)
        assert g.hx == 0.03125 and g.hy == 0.03125

    def test_too_small(self):
        with pytest.raises(ValueError, match="grid too small"):
            make_grid(2, 4, 1.0, 1.0)

    @pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0)])
    def test_bad_extent(self, lx, ly):
        with pytest.raises(ValueError):
            make_grid(8, 8, lx, ly)

    def test_non_integer_counts(self):
        with pytest.raises(ValueError):
            make_grid(8.5, 8, 1.0, 1.0)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(16, 16, 1.0, 1.0)
        assert integrate(ScalarField.full(g, 2.0)) == pytest.approx(2.0, abs=1e-14)

    def test_zero(self):
        g = make_grid(8, 8, 3.0, 2.0)
        assert integrate(ScalarField.full(g, 0.0)) == 0.0

    def test_linear_exact(self):
        # midpoint rule integrates linear functions exactly
        g = make_grid(128, 128, 1.0, 1.0)
        f = ScalarField.from_function(g, lambda x, y: x)
        assert abs(integrate(f) - 0.5) <= 1e-12

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 2**31 - 1))
    def test_linearity(self, alpha, beta, seed):
        g = make_grid(8, 8, 1.0, 2.0)
        r = np.random.default_rng(seed)
        f = ScalarField(g, r.standard_normal((8, 8)))
        h = ScalarField(g, r.standard_normal((8, 8)))
        combo = ScalarField(g, alpha * f.values + beta * h.values)
        expected = alpha * integrate(f) + beta * integrate(h)
        assert integrate(combo) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        f = ScalarField(g, rng.random((8, 8)))
        assert integrate(f) >= 0.0


class TestCellGradients:
    @given(st.integers(4, 70), st.integers(4, 70), st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.integers(0, 2**31 - 1))
    def test_bitwise_equal_to_numpy_gradient(self, nx, ny, lx, ly, seed):
        g = make_grid(nx, ny, lx, ly)
        r = np.random.default_rng(seed)
        v = r.standard_normal((nx, ny)) * 10.0 ** r.uniform(-6, 6, (nx, ny))
        want = np.gradient(v, g.hx, g.hy, edge_order=2)
        got = cell_gradients(v, g)
        one_axis = (cell_derivative(v, g.hx, 0), cell_derivative(v, g.hy, 1))
        for w, a, b in zip(want, got, one_axis):
            assert a.tobytes() == w.tobytes() and b.tobytes() == w.tobytes()

    def test_strided_input(self, rng):
        g = make_grid(9, 6, 1.0, 2.0)
        v = rng.standard_normal((6, 9)).T  # a transposed, non-contiguous view
        for w, a in zip(np.gradient(v, g.hx, g.hy, edge_order=2), cell_gradients(v, g)):
            assert a.tobytes() == w.tobytes()


class TestVectorField:
    def test_stream_function_solenoidal(self):
        from chemoflow.operators import div

        g = make_grid(16, 24, 1.0, 2.0)
        v = VectorField.from_stream(
            g, lambda x, y: 0.3 * np.sin(np.pi * x / g.lx) * np.sin(np.pi * y / g.ly)
        )
        assert v.normal_boundary_is_zero()
        assert np.abs(div(v).values).max() < 1e-13

    def test_shape_rejected(self):
        g = make_grid(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            VectorField(g, np.zeros((4, 4)), np.zeros((4, 5)))


class TestState:
    """The admissibility rules of a State, which solver.check_initial holds."""

    def _state(self, g):
        return State(ScalarField.full(g, 1.0), ScalarField.full(g, 1.0), VectorField.zeros(g), 0.0)

    def test_valid(self):
        g = make_grid(4, 4, 1.0, 1.0)
        check_initial(self._state(g))

    def test_negative_density_rejected(self):
        g = make_grid(4, 4, 1.0, 1.0)
        st_ = self._state(g)
        st_.n.values[0, 0] = -1e-3
        with pytest.raises(ValueError, match="n must be >= 0"):
            check_initial(st_)

    def test_nonpositive_signal_rejected(self):
        g = make_grid(4, 4, 1.0, 1.0)
        st_ = self._state(g)
        st_.c.values[1, 1] = 0.0
        with pytest.raises(ValueError, match="c must be > 0"):
            check_initial(st_)

    @pytest.mark.parametrize("t", [-1e-3, float("nan"), float("inf")])
    def test_bad_time_rejected(self, t):
        g = make_grid(4, 4, 1.0, 1.0)
        st_ = self._state(g)
        st_.t = t
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            check_initial(st_)

    def test_boundary_normal_velocity_rejected(self):
        g = make_grid(4, 4, 1.0, 1.0)
        st_ = self._state(g)
        st_.u.ux[0, 0] = 0.1
        with pytest.raises(ValueError, match="boundary-normal"):
            check_initial(st_)

    def test_frozen_copy(self):
        g = make_grid(4, 4, 1.0, 1.0)
        snap = self._state(g).copy()
        with pytest.raises(ValueError):
            snap.n.values[0, 0] = 2.0
