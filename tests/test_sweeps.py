import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from chemoflow.config import parse_config
from chemoflow.sweeps import _collect_run, eps_sweep, refinement_sweep

from config_variants import reference_config

SMALL_REF = reference_config(t_end=0.2, nx=16, ny=16, cadence=0.05)

PURE_DIFFUSION = """\
[grid]
nx = 16
ny = 16

[model]
diffusion = tabulated
table_knots = 0, 10
table_values = 1, 1
gamma = 0.0
s0_sensitivity = 0.0
epsilon = 0.05
l = 0.5
m_bound = 2.0

[initial]
n0 = gaussian: mass=1.0, sigma=0.15
c0 = constant: value=1.0
u0 = zero

[time]
t_end = 0.05
"""

ADVECTION_DOMINATED = """\
[grid]
nx = 16
ny = 16

[model]
diffusion = tabulated
table_knots = 0, 10
table_values = 0.000001, 0.000001
gamma = 0.0
s0_sensitivity = 0.0
epsilon = 0.001
l = 0.0000005
m_bound = 3.0

[initial]
n0 = gaussian: mass=1.0, sigma=0.15
c0 = constant: value=1.0
u0 = vortex: amp=0.8, kx=1, ky=1

[time]
t_end = 0.2
"""


class TestEpsSweep:
    def test_single_entry_empty(self):
        cfg = parse_config(SMALL_REF)
        d = eps_sweep(cfg, [0.05], T=0.1)
        assert d.n == [] and d.c == [] and d.u == []

    def test_identical_eps_replays_to_zero(self):
        cfg = parse_config(SMALL_REF)
        d = eps_sweep(cfg, [0.05, 0.05], T=0.1)
        assert d.n == [0.0] and d.c == [0.0] and d.u == [0.0]

    def test_increasing_rejected(self):
        cfg = parse_config(SMALL_REF)
        with pytest.raises(ValueError, match="non-increasing"):
            eps_sweep(cfg, [0.05, 0.1], T=0.1)

    def test_distances_decrease_with_eps(self):
        cfg = parse_config(SMALL_REF)
        d = eps_sweep(cfg, [0.1, 0.05, 0.025], T=0.2)
        assert all(b < a for a, b in zip(d.n, d.n[1:]))
        assert all(b < a for a, b in zip(d.c, d.c[1:]))
        assert all(v > 0 for v in d.n)


    @pytest.mark.parametrize("T, final_weight", [
        pytest.param(0.1, 0.05, id="aligned"), pytest.param(0.12, 0.12 - 0.10, id="unaligned"),
    ])
    def test_final_frame_weighted_by_time_it_covers(self, T, final_weight):
        # frames at 0, 0.05, 0.10 (and 0.12) each cover one cadence, the
        # unaligned final frame only the 0.02 since the last tick
        cfg = parse_config(SMALL_REF)
        d = eps_sweep(cfg, [0.1, 0.05], T=T)
        fa, fb = (_collect_run(dc_replace(cfg, spec=dc_replace(cfg.spec, epsilon=e)), T)
                  for e in (0.1, 0.05))
        weights = [0.05] * (len(fa) - 1) + [final_weight]
        dn = 0.0
        for a, b, w in zip(fa, fb, weights):
            dn += float(((a[1] - b[1]) ** 2).sum()) * cfg.grid.cell_area * w
        assert [f[0] for f in fa] == pytest.approx([0.0, 0.05, 0.10, T][: len(fa)], abs=1e-12)
        assert d.n[0] == pytest.approx(math.sqrt(dn), rel=1e-12)


class TestRefinement:
    def test_identical_grid_twice(self):
        cfg = parse_config(PURE_DIFFUSION)
        rep = refinement_sweep(cfg, [(16, 16), (16, 16), (32, 32)], T=0.02)
        assert rep.consecutive_diffs["n"][0] == 0.0
        assert math.isnan(rep.orders["n"][0])

    def test_diffusion_second_order(self):
        cfg = parse_config(PURE_DIFFUSION)
        rep = refinement_sweep(cfg, [(16, 16), (32, 32), (64, 64), (128, 128)], T=0.05)
        for order in rep.orders["n"]:
            assert 1.7 < order < 2.4

    def test_diffusion_second_order_refining_by_three(self):
        # orders are log base r of the difference ratios; log2 would read ~3.1
        cfg = parse_config(PURE_DIFFUSION)
        rep = refinement_sweep(cfg, [(8, 8), (24, 24), (72, 72)], T=0.05)
        for order in rep.orders["n"]:
            assert 1.7 < order < 2.4

    def test_mixed_factors_rejected(self):
        cfg = parse_config(PURE_DIFFUSION)
        with pytest.raises(ValueError, match=r"8x8 -> 16x16 -> 48x48 mix refinement factors \[2, 3\]"):
            refinement_sweep(cfg, [(8, 8), (16, 16), (48, 48)], T=0.02)

    def test_advection_first_order(self):
        cfg = parse_config(ADVECTION_DOMINATED)
        rep = refinement_sweep(cfg, [(16, 16), (32, 32), (64, 64), (128, 128)], T=0.2)
        for order in rep.orders["n"]:
            assert 0.5 < order < 1.5

    def test_non_nested_rejected(self):
        cfg = parse_config(PURE_DIFFUSION)
        for grids in ([(12, 12), (32, 32)], [(8, 8), (16, 32)], [(8, 8), (12, 12), (24, 24)]):
            with pytest.raises(ValueError, match="nested"):
                refinement_sweep(cfg, grids, T=0.02)
