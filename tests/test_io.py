import numpy as np
import pytest
from hypothesis import given, strategies as st

from chemoflow.diagnostics import DiagnosticsRecord
from chemoflow.grid import ScalarField, State, VectorField, make_grid
from chemoflow.io import (
    CSV_HEADER,
    SnapshotError,
    emit_snapshot,
    emit_timeseries,
    parse_timeseries,
    read_snapshot,
)


def random_record(rng, t):
    vals = rng.random(17) * np.logspace(-8, 8, 17)
    return DiagnosticsRecord(t, *vals)


def random_state(rng, nx=6, ny=5):
    g = make_grid(nx, ny, 1.25, 0.75)
    u = VectorField(g, rng.standard_normal((nx + 1, ny)), rng.standard_normal((nx, ny + 1)))
    u.enforce_no_penetration()
    return State(
        ScalarField(g, rng.random((nx, ny))),
        ScalarField(g, rng.random((nx, ny)) + 0.1),
        u,
        float(rng.random()),
    )


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "t,mass_n,c_max,c_min,n_max,div_u_max,E_u,enstrophy,I_logn,"
            "I_D2grad,I_Dlog,I_c4,I_c6,I_mix,I_cq,F,G,clamp_mass"
        )

    def test_empty_series(self):
        assert emit_timeseries([]) == CSV_HEADER + "\n"

    def test_single_row(self):
        row = DiagnosticsRecord(0.0, 1.0, 1.5, 0.5, 7.0, 0.0, 0.0, 0.0, 0.1,
                                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 0.0)
        text = emit_timeseries([row])
        assert text.splitlines()[1].startswith("0,1,1.5,0.5,7,")

    @given(st.integers(0, 2**31 - 1), st.integers(1, 20))
    def test_round_trip_bit_exact(self, seed, nrows):
        rng = np.random.default_rng(seed)
        rows = [random_record(rng, t=0.05 * k) for k in range(nrows)]
        back = parse_timeseries(emit_timeseries(rows))
        assert back == rows

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="header"):
            parse_timeseries("time,stuff\n1,2\n")

    def test_bad_row(self):
        with pytest.raises(ValueError, match="bad CSV row"):
            parse_timeseries(CSV_HEADER + "\n1,2,3\n")


class TestSnapshot:
    def test_zero_state_length(self):
        g = make_grid(4, 4, 1.0, 1.0)
        state = State(ScalarField.full(g, 0.0), ScalarField.full(g, 1.0), VectorField.zeros(g), 0.0)
        blob = emit_snapshot(state)
        # 40-byte header + 8 * (16 + 16 + 20 + 20) payload
        assert len(blob) == 616
        back = read_snapshot(blob)
        assert emit_snapshot(back) == blob

    def test_magic_and_version(self):
        g = make_grid(4, 4, 1.0, 1.0)
        blob = emit_snapshot(State(ScalarField.full(g, 0.0), ScalarField.full(g, 1.0),
                                   VectorField.zeros(g), 0.5))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(b"XXXX" + blob[4:])
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(blob[:4] + b"\x02\x00\x00\x00" + blob[8:])

    def test_truncation_detected(self):
        g = make_grid(4, 4, 1.0, 1.0)
        blob = emit_snapshot(State(ScalarField.full(g, 0.0), ScalarField.full(g, 1.0),
                                   VectorField.zeros(g), 0.0))
        with pytest.raises(SnapshotError, match="length"):
            read_snapshot(blob[:-8])

    @given(st.integers(0, 2**31 - 1))
    def test_round_trip_bit_exact(self, seed):
        state = random_state(np.random.default_rng(seed))
        blob = emit_snapshot(state)
        back = read_snapshot(blob)
        assert back.t == state.t
        assert (back.n.values == state.n.values).all()
        assert (back.c.values == state.c.values).all()
        assert (back.u.ux == state.u.ux).all()
        assert (back.u.uy == state.u.uy).all()
        assert emit_snapshot(back) == blob
