import ast
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from chemoflow import analysis
from chemoflow.analysis import (
    A_VALUES,
    DECAY,
    EST1_CONST,
    EST2_CONST,
    FLOOR,
    GRID,
    K_MAX,
    MAX_MODE,
    FieldCorpus,
    equality_mk_sequence,
    format_report,
    log_hessian_identity_residual,
    mk_limit_check,
    ode_envelope,
    poincare_subset_gap,
    run_lemma_checks,
    slack_mk_sequence,
    trudinger_gap,
    trudinger_sublevel_gap,
)
from chemoflow.grid import ScalarField, make_grid

from config_variants import reference_config
import naive_operators as naive


class TestLogHessianIdentity:
    def test_constant_field(self):
        g = make_grid(32, 32, 1.0, 1.0)
        res, g1, g2 = log_hessian_identity_residual(ScalarField.full(g, 4.0))
        assert res == 0.0 and g1 == 0.0 and g2 == 0.0

    def test_exponential_convergence_order(self):
        # exp(x) kills the log-Hessian: identity reduces to e^2x = 2e^2x - e^2x
        res = []
        for nn in (32, 64, 128):
            g = make_grid(nn, nn, 1.0, 1.0)
            phi = ScalarField.from_function(g, lambda x, y: np.exp(x))
            res.append(log_hessian_identity_residual(phi)[0])
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) >= 1.8

    def test_corpus_integral_estimates(self):
        corpus = FieldCorpus(n_members=100, seed=7)
        for phi in [corpus.member(i)[0] for i in range(corpus.n_members)]:
            _, g1, g2 = log_hessian_identity_residual(phi)
            assert g1 >= -1e-8
            assert g2 >= -1e-8

    @pytest.mark.parametrize("nx, ny", [(4, 4), (4, 16), (16, 4)])
    def test_grid_without_interior_rejected(self, nx, ny):
        phi = ScalarField.full(make_grid(nx, ny, 1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match=rf"at least 5 cells per axis.* {nx}x{ny} grid"):
            log_hessian_identity_residual(phi)

    def test_smallest_grid_with_interior(self):
        g = make_grid(5, 5, 1.0, 1.0)
        res, _, _ = log_hessian_identity_residual(ScalarField.from_function(g, lambda x, y: 1.0 + x * y))
        assert math.isfinite(res)

    def test_positivity_required(self):
        g = make_grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_hessian_identity_residual(ScalarField.full(g, 0.0))

    def test_constants(self):
        assert EST1_CONST == pytest.approx((4 + math.sqrt(2)) ** 2)
        assert EST2_CONST == pytest.approx((5 + math.sqrt(2)) ** 2)


class TestTrudinger:
    def test_zero_psi(self):
        g = make_grid(32, 32, 1.0, 1.0)
        one = ScalarField.full(g, 1.0)
        gap = trudinger_gap(one, ScalarField.full(g, 0.0), K=2.0)
        assert gap == pytest.approx(2.0 / A_VALUES)  # K/a with all other terms zero

    def test_unit_fields(self):
        g = make_grid(32, 32, 1.0, 1.0)
        one = ScalarField.full(g, 1.0)
        for K in (0.5, 1.0, 3.0):
            gap = trudinger_gap(one, one, K=K)
            assert gap == pytest.approx(K * A_VALUES + K / A_VALUES - 1.0, abs=1e-10)

    def test_sublevel_all_below_threshold(self):
        g = make_grid(32, 32, 1.0, 1.0)
        one = ScalarField.full(g, 1.0)
        gap = trudinger_sublevel_gap(one, K=1.0)
        # empty superlevel set: gap = K*mass^3 + (K - ln 1)*mass + K = 3K
        assert gap == pytest.approx(3.0)

    def test_sublevel_constant_above_threshold(self):
        g = make_grid(32, 32, 1.0, 1.0)
        phi = ScalarField.full(g, 3.5)
        K = 1.0
        gap = trudinger_sublevel_gap(phi, K=K)
        mass = 3.5
        expected = K * mass**3 + (K - math.log(mass)) * mass + K - mass * math.log(4.5)
        assert gap == pytest.approx(expected, abs=1e-10)


class TestOdeEnvelope:
    def test_frozen_values(self):
        assert ode_envelope(1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(2.5819767068693265)
        assert ode_envelope(1.0, 1.0, 1.0, 1.0, 2.0) == pytest.approx(1.7173119901059392)

    def test_homogeneous_case(self):
        # b = 0 reduces to the exact decay of y' = -a y
        for a, t in ((0.5, 1.0), (2.0, 3.0)):
            assert ode_envelope(1.5, a, 0.0, 1.0, t) == pytest.approx(1.5 * math.exp(-a * t))

    def test_dominates_integrated_trajectories(self):
        # independent oracle: exact piecewise integration of y' + a y = h
        # with pointwise-bounded forcing (hence admissible on every window)
        violations = 0
        for i in range(100):
            rng = np.random.default_rng(9000 + i)
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.1, 2.0)
            tau = rng.uniform(0.3, 2.0)
            y0 = rng.uniform(0.0, 3.0)
            n_pieces, t_end = 200, 10.0
            dt = t_end / n_pieces
            h = rng.uniform(0.0, b, size=n_pieces)
            if i % 5 == 0:
                h[:] = b
            y, t = y0, 0.0
            for k in range(n_pieces):
                decay = math.exp(-a * dt)
                y = y * decay + h[k] / a * (1.0 - decay)
                t += dt
                if y > ode_envelope(y0, a, b, tau, t) + 1e-9:
                    violations += 1
        assert violations == 0

    def test_trajectory_margin_matches_loop_twin_bitwise(self):
        saturated = 0
        for seed in range(200):
            got = analysis._ode_trajectory_margin(seed)
            want = naive.ode_trajectory_margin(seed)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            rng = np.random.default_rng(seed)
            rng.uniform(size=4 + 240)  # a, b, tau, y0 and the forcing pieces
            saturated += rng.uniform() < 0.3
        assert 20 <= saturated <= 180  # both forcing kinds are pinned


class TestMkLimit:
    def test_closed_form_doubling(self):
        # M_k = 2^(2^k) satisfies M_k <= M_{k-1}^2 + 1 with a = b = 1, M0 = 2
        gen = lambda a, b, l0: np.array([2.0**k * math.log(2.0) for k in range(K_MAX + 1)])
        liminf_est, bound, ok = mk_limit_check(2.0, 1.0, 1.0, gen)
        assert ok
        assert liminf_est == pytest.approx(2.0)
        assert bound == pytest.approx(2 * math.sqrt(2) * 2.0)

    def test_equality_recursion_log_space(self):
        liminf_est, bound, ok = mk_limit_check(1.0, 2.0, 1.0, equality_mk_sequence)
        assert ok and math.isfinite(liminf_est)

    def test_randomized_slack_sequences(self):
        rng = np.random.default_rng(17)
        for i in range(100):
            a = float(rng.uniform(1.0, 4.0))
            b = float(rng.uniform(1.0, 3.0))
            m0 = float(rng.uniform(1.0, 5.0))
            gen = lambda aa, bb, l0: slack_mk_sequence(aa, bb, l0, seed=100 + i)
            _, _, ok = mk_limit_check(m0, a, b, gen)
            assert ok

    def test_inadmissible_sequence_rejected(self):
        bad = lambda a, b, l0: np.array([l0] + [1e3 * (k + 1) for k in range(K_MAX)])
        with pytest.raises(ValueError, match="violates the recursion"):
            mk_limit_check(1.0, 1.0, 1.0, bad)

    def test_hypothesis_bounds(self):
        with pytest.raises(ValueError):
            mk_limit_check(0.5, 1.0, 1.0, equality_mk_sequence)


class TestPoincare:
    def test_constant_field(self):
        g = make_grid(32, 32, 1.0, 1.0)
        mask = np.zeros((32, 32), dtype=bool)
        mask[:16] = True
        gap = poincare_subset_gap(ScalarField.full(g, 2.0), mask, 1.0)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_linear_field_left_half(self):
        g = make_grid(128, 128, 1.0, 1.0)
        phi = ScalarField.from_function(g, lambda x, y: x.copy())
        mask = np.zeros((128, 128), dtype=bool)
        mask[:64, :] = True  # left half: mean of x is 1/4
        gap = poincare_subset_gap(phi, mask, 1.0)
        lhs = math.sqrt(7.0 / 48.0)  # int (x - 1/4)^2 = 7/48
        assert gap == pytest.approx(1.0 - lhs, abs=1e-4)

    def test_empty_subset(self):
        g = make_grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError, match="empty"):
            poincare_subset_gap(ScalarField.full(g, 1.0), np.zeros((16, 16), bool), 1.0)


class TestCorpus:
    def test_reproducible(self):
        a = FieldCorpus(n_members=3, seed=11)
        b = FieldCorpus(n_members=3, seed=11)
        for (p1, s1), (p2, s2) in zip(a.pairs(), b.pairs()):
            assert (p1.values == p2.values).all()
            assert (s1.values == s2.values).all()

    def test_seed_changes_fields(self):
        a = FieldCorpus(n_members=1, seed=11).member(0)[0]
        b = FieldCorpus(n_members=1, seed=12).member(0)[0]
        assert not (a.values == b.values).all()

    def test_strictly_positive(self):
        corpus = FieldCorpus(n_members=10, seed=7)
        for phi in [corpus.member(i)[0] for i in range(corpus.n_members)]:
            assert phi.values.min() >= FLOOR


class _PerModeCorpus(FieldCorpus):
    """Reference: the series summed one full-grid mode product at a time."""

    def _raw(self, rng):
        x, y = GRID.cell_mesh()
        out = np.zeros((GRID.nx, GRID.ny))
        for k in range(MAX_MODE + 1):
            for m in range(MAX_MODE + 1):
                if k == 0 and m == 0:
                    continue
                amp = rng.standard_normal() / (1.0 + k**2 + m**2) ** (DECAY / 2.0)
                out += amp * np.cos(k * np.pi * x / GRID.lx) * np.cos(m * np.pi * y / GRID.ly)
        return out


class TestSeparableCorpus:
    def test_matches_per_mode_series(self):
        corpus = FieldCorpus(n_members=100, seed=7)
        reference = _PerModeCorpus(n_members=100, seed=7)
        for i in range(corpus.n_members):
            for got, want in zip(corpus.member(i), reference.member(i)):
                assert got.values.shape == (GRID.nx, GRID.ny)
                assert np.abs(got.values - want.values).max() <= 1e-14 * np.abs(want.values).max()


# format_report(run_lemma_checks(FieldCorpus(members, seed))) for seed 7, the
# CLI's default, recorded before the corpus was streamed, and for 200 members
# at seed 0, the benchmark's `lemmas` workload; any change to calibration
# order, hold-out order or the RNG streams shows here.  7 members has an odd
# split and a superlevel calibration half with kmin = 0 (K = 1).
_GOLDEN_HEAD = (
    "check                                          constant       worst gap   result\n"
    "--------------------------------------------------------------------------------\n"
    "log-hessian identity: convergence order         1.88808         1.88808     PASS\n"
)
_GOLDEN_TAIL = (
    "windowed-forcing ode envelope                         0       0.0356296     PASS\n"
    "doubling-exponent recursion limit               2.82843         2.74473     PASS\n"
)
GOLDEN_REPORTS = {
    (40, 7): _GOLDEN_HEAD + (
        "log-hessian gradient-power estimate             29.3137         19090.9     PASS\n"
        "log-hessian mixed-curvature estimate            41.1421         26292.3     PASS\n"
        "entropy-weighted product bound                 0.212555         0.10013     PASS\n"
        "superlevel entropy bound                       0.156482        0.619033     PASS\n"
        "subset-mean poincare bound                     0.542882        0.356305     PASS\n"
    ) + _GOLDEN_TAIL,
    (7, 7): _GOLDEN_HEAD + (
        "log-hessian gradient-power estimate             29.3137         45301.8     PASS\n"
        "log-hessian mixed-curvature estimate            41.1421         62715.4     PASS\n"
        "entropy-weighted product bound                 0.212555        0.256606     PASS\n"
        "superlevel entropy bound                              1         5.94001     PASS\n"
        "subset-mean poincare bound                     0.530413        0.728722     PASS\n"
    ) + _GOLDEN_TAIL,
    (200, 0): _GOLDEN_HEAD + (
        "log-hessian gradient-power estimate             29.3137         6105.09     PASS\n"
        "log-hessian mixed-curvature estimate            41.1421         8414.83     PASS\n"
        "entropy-weighted product bound                 0.242979       0.0558648     PASS\n"
        "superlevel entropy bound                       0.210272        0.647046     PASS\n"
        "subset-mean poincare bound                     0.772371         0.25544     PASS\n"
        "windowed-forcing ode envelope                         0       0.0277561     PASS\n"
        "doubling-exponent recursion limit               2.82843         2.93202     PASS\n"
    ),
}


class TestReport:
    @pytest.mark.parametrize("members, seed", [  # ids name a seed other than the CLI's 7
        pytest.param(m, s, id=f"{m}" if s == 7 else f"{m}-seed{s}") for m, s in GOLDEN_REPORTS])
    def test_report_matches_golden_text(self, members, seed):
        text = format_report(run_lemma_checks(FieldCorpus(n_members=members, seed=seed)))
        assert text == GOLDEN_REPORTS[members, seed]

    @pytest.mark.parametrize("members", [-3, 0, 1])
    def test_corpus_too_small_to_hold_out(self, members):
        with pytest.raises(ValueError, match="at least 2 corpus members"):
            run_lemma_checks(FieldCorpus(n_members=members, seed=7))

    def test_negative_seed_rejected_before_any_check(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("a check ran before the seed was checked")

        monkeypatch.setattr(analysis, "log_hessian_identity_residual", no_check)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_lemma_checks(FieldCorpus(n_members=4, seed=-1))

    def test_all_checks_pass(self):
        rows = run_lemma_checks(FieldCorpus(n_members=40, seed=7))
        assert all(r.passed for r in rows)
        text = format_report(rows)
        assert "PASS" in text and "FAIL" not in text
        assert "constant" in text and "worst gap" in text

    def test_peak_memory_does_not_grow_with_members(self):
        # the corpus is streamed, at most analysis.BATCH members alive at a time,
        # so 160 more members (about 11 MB of fields and masks if held) add nothing
        run_lemma_checks(FieldCorpus(n_members=2, seed=7))  # caches and lazy imports
        peaks = {}
        for members in (40, 200):
            tracemalloc.start()
            try:
                run_lemma_checks(FieldCorpus(n_members=members, seed=7))
                peaks[members] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] - peaks[40] <= 0.5e6, peaks

    def test_trudinger_terms_once_per_member(self, monkeypatch):
        terms = analysis._trudinger_terms
        calls = []

        def counted(*args):
            calls.append(1)
            return terms(*args)

        monkeypatch.setattr(analysis, "_trudinger_terms", counted)
        run_lemma_checks(FieldCorpus(n_members=40, seed=7))
        assert len(calls) == 40  # 20 calibration + 20 held-out pairs, all exponents at once


class TestBlasThreads:
    def test_report_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # the corpus fields are BLAS products; the report must not depend
        # on how many threads OpenBLAS splits them across
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.txt"
            env = {**os.environ, "PYTHONPATH": str(src),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "chemoflow.cli", "verify-lemmas",
                                   "--members", "12", "--output", str(out)],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            reports.append(out.read_bytes())
        assert b"PASS" in reports[0]
        assert reports[0] == reports[1]


# Replaces cli.run and cli.run_lemma_checks by counting wrappers after the
# tracer is installed, as perfbench/worker.py does to start its clock; a
# verb that bound either name in its own scope would bypass them.
_COUNT_ENTRIES = (
    "calls = {'run': 0, 'run_lemma_checks': 0}\n"
    "def counting(name, inner):\n"
    "    def wrapper(*args, **kwargs):\n"
    "        calls[name] += 1\n"
    "        return inner(*args, **kwargs)\n"
    "    return wrapper\n"
    "for name in calls:\n"
    "    setattr(cli, name, counting(name, getattr(cli, name)))\n"
)


class TestBenchmarkHooks:
    def test_traced_verify_lemmas_records_every_analysis_span(self, tmp_path):
        # the benchmark's tracer replaces module globals of chemoflow.analysis
        # by name; a fresh interpreter so the wrappers do not leak into other tests
        root = pathlib.Path(__file__).resolve().parents[1]
        code = (
            "import sys, tracing\n"
            "from chemoflow import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            + _COUNT_ENTRIES +
            "rc = cli.main(['verify-lemmas', '--members', '10', '--output', sys.argv[1]])\n"
            "seen = {span[0] for span in tracer.spans}\n"
            "wanted = {n for names in tracing.ANALYSIS_GROUPS.values() for n in names}\n"
            "print(repr((rc, sorted(wanted - seen), calls['run'], calls['run_lemma_checks'])))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.txt")],
                              env=env, capture_output=True, text=True, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert ast.literal_eval(done.stdout.splitlines()[-1]) == (0, [], 0, 1)

    def test_traced_run_records_every_solver_span(self, tmp_path):
        # the tracer wraps chemoflow.solver globals and the layer entry points
        # on chemoflow.cli by name, and reads the positional arguments of
        # _diffusion_substeps
        root = pathlib.Path(__file__).resolve().parents[1]
        config = tmp_path / "run.ini"
        config.write_text(reference_config(t_end=0.05, nx=16, ny=16, cadence=0.05)
                          .replace("snapshots = false", "snapshots = true"))
        code = (
            "import sys, tracing\n"
            "from chemoflow import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            + _COUNT_ENTRIES +
            "rc = cli.main(['run', sys.argv[1], '--output', sys.argv[2]])\n"
            "seen = {span[0] for span in tracer.spans}\n"
            "wanted = {'solver.step', 'solver.diffuse_n'}\n"
            "wanted |= {'operators.' + op for op in tracing.OPERATOR_SPANS}\n"
            "wanted |= {'config.parse', 'model.build_truncations', 'operators.poisson_init',\n"
            "           'diagnostics.record', 'diagnostics.envelope', 'io.emit_snapshot',\n"
            "           'io.emit_timeseries'}\n"
            "print(repr((rc, sorted(wanted - seen), calls['run'], calls['run_lemma_checks'],\n"
            "            tracer.counters['diffusion_number_max'])))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
        done = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        *result, number = ast.literal_eval(done.stdout.splitlines()[-1])
        assert result == [0, [], 1, 0]
        assert 0.0 < number <= 0.9
