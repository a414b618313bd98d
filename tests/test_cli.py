import ast
import ctypes
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

from chemoflow import cli, solver, sweeps
from chemoflow.cli import main
from chemoflow.io import CSV_HEADER, parse_timeseries, read_snapshot, snapshot_name
from chemoflow.solver import SolverError

from config_variants import reference_config


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(reference_config(t_end=0.1, nx=16, ny=16, cadence=0.05))
    return path


class TestValidate:
    def test_good_config(self, tiny_config, capsys):
        assert main(["validate", str(tiny_config)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(reference_config(gamma=0.9, t_end=0.1))
        assert main(["validate", str(path)]) == 1
        assert "VIOLATION" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, line", [
        ("gamma = 0.5", "gamma = abc", "VIOLATION: [model] gamma must be numeric; got 'abc'"),
        ("cadence = 0.05", "cadence = x", "VIOLATION: [output] cadence must be numeric; got 'x'"),
    ])
    def test_non_numeric_value_is_a_named_violation(self, tmp_path, capsys, old, new, line):
        path = tmp_path / "bad.ini"
        path.write_text(reference_config(t_end=0.1, nx=16, ny=16).replace(old, new))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("kw, line", [
        (dict(c0="cosine: base=1.0, amp=0.5, kx=nan, ky=1"),
         "initial data rejected: non-finite state at t=0: c[0, 0] = nan"),
        (dict(u0="vortex: amp=1e308"),
         "initial data rejected: non-finite state at t=0: ux[4, 0] = inf"),
        (dict(n0="gaussian: mass=1.0, sigma=0"),
         "initial data rejected: n0 gaussian parameter sigma must be > 0; got 0.0"),
        (dict(n0="gaussian: mass=1.0, sigma=0.001", nx=8, ny=8),
         "initial data rejected: n0 gaussian with sigma=0.001 underflows to 0 on every cell, "
         "so its discrete mass cannot be normalized"),
        (dict(dt_max=1e-300), "dt_max must be finite and >= DT_MIN = 1e-12, got 1e-300"),
    ], ids=["c0-nan", "u0-overflow", "sigma-zero", "gaussian-underflow", "dt_max-below-DT_MIN"])
    def test_what_run_rejects_is_a_named_violation(self, tmp_path, capsys, kw, line):
        # `run` refuses each of these, so `validate` names the refusal up front
        path = tmp_path / "bad.ini"
        path.write_text(reference_config(**{"t_end": 0.1, "nx": 16, "ny": 16, **kw}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"VIOLATION: {line}"]


class TestRun:
    def test_writes_csv_and_passes_monitors(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(tiny_config), "--output", str(out)])
        assert code == 0
        text = (out / "timeseries.csv").read_text()
        assert text.startswith(CSV_HEADER)
        assert len(text.splitlines()) == 4  # header + t = 0, 0.05, 0.1
        assert "all invariant monitors passed" in capsys.readouterr().out

    def test_final_time_before_first_tick_recorded(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(reference_config(t_end=0.02, nx=16, ny=16, cadence=0.05))
        out = tmp_path / "out"
        assert main(["run", str(path), "--output", str(out)]) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 3  # header + t = 0, 0.02
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.02, abs=1e-12)

    def test_snapshots_toggle(self, tmp_path):
        path = tmp_path / "run.ini"
        text = reference_config(t_end=0.05, nx=16, ny=16, cadence=0.05)
        path.write_text(text.replace("snapshots = false", "snapshots = true"))
        out = tmp_path / "snaps"
        assert main(["run", str(path), "--output", str(out)]) == 0
        blobs = sorted(out.glob("*.cns2"))
        assert len(blobs) == 2
        assert blobs[0].read_bytes()[:4] == b"CNS2"


    def test_snapshot_name_clash_refused_before_any_output(self, tmp_path, capsys):
        # t = 0.1 and t = 0.1000004 both map to snapshot_t00000.100000.cns2;
        # before, the second silently overwrote the first and the run exited 0
        path = tmp_path / "run.ini"
        text = reference_config(t_end=0.1000004, nx=16, ny=16, cadence=0.05)
        path.write_text(text.replace("snapshots = false", "snapshots = true"))
        out = tmp_path / "out"
        assert main(["run", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("VIOLATION: snapshots at t=0.1 and t=0.1000004 would share the file "
                              "snapshot_t00000.100000.cns2"), err
        assert not out.exists()

    def test_snapshots_on_disk_when_a_later_step_fails(self, tmp_path, monkeypatch, capsys):
        # a failed step, and a failed record: consumption takes c0 = 3e-62 below
        # C0_FLOOR, so the record's c^5 underflows at t = 7.5.  Either ends the run
        # with one ERROR line and keeps the rows and snapshots recorded before it
        step_impl = solver._step_impl

        def fail_after_first_tick(state, *args, **kwargs):
            if state.t >= 0.05 - 1e-12:
                raise SolverError("injected failure")
            return step_impl(state, *args, **kwargs)

        cases = [
            (dict(t_end=0.15, nx=16, ny=16, cadence=0.05), fail_after_first_tick, [0.0, 0.05],
             r"ERROR: step \d+: injected failure\n"),
            (dict(t_end=10, nx=8, ny=8, cadence=0.5, n0="constant: value=1.0", c0="constant: value=3e-62"),
             step_impl, [0.5 * k for k in range(15)], r"ERROR: non-finite diagnostics entry I_c6 at t=7\.5\n"),
        ]
        for k, (values, step, times, error) in enumerate(cases):
            path = tmp_path / f"run{k}.ini"
            path.write_text(reference_config(**values).replace("snapshots = false", "snapshots = true"))
            monkeypatch.setattr(solver, "_step_impl", step)
            out = tmp_path / f"out{k}"
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path), "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(error, err), err
            rows = parse_timeseries((out / "timeseries.csv").read_text())
            assert [r.t for r in rows] == pytest.approx(times, abs=1e-12)
            blobs = sorted(out.glob("*.cns2"))
            assert [b.name for b in blobs] == [snapshot_name(t) for t in times]
            assert [read_snapshot(b.read_bytes()).t for b in blobs] == pytest.approx(times, abs=1e-12)


class TestNonFiniteStep:
    """A value that turns non-finite inside a step ends the run with one line
    naming the step, the time and the first non-finite entry (in the order n,
    c, ux, uy), exit code 1 and no traceback.  Each operator result is
    spoiled on its third call counted from the start of `run` (validate's
    plan of the first step calls it once before), in step 2: the density
    cases before the substeps are sized, the velocity case by the check
    after the step."""

    @pytest.mark.parametrize("operator, array, cell, value, entry", [
        ("taxis_flux_div", "values", (5, 7), float("nan"), "n[5, 7] = nan"),
        ("taxis_flux_div", "values", (5, 7), -float("inf"), "n[5, 7] = inf"),  # transported n is +inf
        ("advect_velocity", "ux", (3, 4), float("nan"), "ux[1, 0] = nan"),  # the viscous solve spreads it
    ], ids=["nan-density", "inf-density", "nan-velocity-tendency"])
    def test_named_error_line_and_exit_1(self, tiny_config, tmp_path, monkeypatch, capsys,
                                         operator, array, cell, value, entry):
        calls = []
        original, run = getattr(solver, operator), cli.run

        def spoiled(*args):
            out = original(*args)
            calls.append(operator)
            if len(calls) == 3:
                getattr(out, array)[cell] = value
            return out

        def counted_run(*args, **kwargs):
            calls.clear()
            return run(*args, **kwargs)

        monkeypatch.setattr(solver, operator, spoiled)
        monkeypatch.setattr(cli, "run", counted_run)
        assert main(["run", str(tiny_config), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"ERROR: step 2: non-finite state at t=[0-9.e-]+: {re.escape(entry)}\n", err), err


class TestSweeps:
    def test_sweep_eps(self, tiny_config, capsys):
        code = main(["sweep-eps", str(tiny_config), "--eps", "0.1,0.05", "--T", "0.1"])
        assert code == 0
        assert "strictly decreasing" in capsys.readouterr().out

    def test_sweep_grid(self, tiny_config, capsys):
        code = main(["sweep-grid", str(tiny_config), "--grids", "16,16;32,32", "--T", "0.02"])
        assert code == 0
        assert "observed order" in capsys.readouterr().out


class TestBadArguments:
    @pytest.mark.parametrize("argv, names", [
        (["sweep-eps", "--eps", "0.1,-0.05"], "epsilon must lie in (0, 1)"),
        (["sweep-eps", "--eps", "0.05,0.1"], "non-increasing"),
        (["sweep-eps", "--eps", "0.1,abc"], "--eps takes eps,eps,..., got '0.1,abc'"),
        (["sweep-eps", "--eps", "0.1,0"], "epsilon must lie in (0, 1)"),
        (["sweep-grid", "--grids", "8,8;12,12"], "not nested"),
        (["sweep-grid", "--grids", "2,2;4,4"], "grid too small"),
        (["sweep-grid", "--grids", "8,8;16,16;48,48"], "mix refinement factors"),
        (["verify-lemmas", "--members", "4", "--seed", "-1"], "seed must be non-negative, got -1"),
    ], ids=["eps-negative", "eps-increasing", "eps-not-a-number", "eps-zero",
            "grids-not-nested", "grids-too-small", "grids-mixed-factors", "lemmas-negative-seed"])
    def test_error_line_and_exit_1(self, tiny_config, capsys, monkeypatch, argv, names):
        runs = []
        monkeypatch.setattr(sweeps, "run", lambda *a, **k: runs.append(a))
        if argv[0] != "verify-lemmas":  # the sweeps take a configuration and a horizon
            argv = [argv[0], str(tiny_config), *argv[1:], "--T", "0.02"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(r"^(ERROR|VIOLATION): ", err, re.M), err
        assert names in err
        assert "Traceback" not in err
        assert runs == []  # rejected before the first run, eps = 0 included


    def test_sweep_grid_validates_every_grid_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        # valid on 4x4, but on 64x64 the taxis drift's first CFL dt is below DT_MIN
        path = tmp_path / "fast.ini"
        path.write_text(reference_config(t_end=1e-10, nx=4, ny=4)
                        .replace("s0_sensitivity = 1.0", "s0_sensitivity = 3e9"))
        assert main(["validate", str(path)]) == 0
        runs = []
        monkeypatch.setattr(sweeps, "run", lambda *a, **k: runs.append(a))
        assert main(["sweep-grid", str(path), "--grids", "4,4;16,16;64,64", "--T", "1e-10"]) == 1
        assert capsys.readouterr().err == (
            "VIOLATION: grid 64x64: the first step fails: stability violation: the CFL dt = 6.961e-13 "
            "is below DT_MIN = 1e-12 at t=0; the velocity or taxis drift is too fast for the grid\n")
        assert runs == []

    @pytest.mark.parametrize("argv", [["sweep-eps", "--eps", "0.1,0.05"], ["sweep-grid", "--grids", "8,8;16,16"]])
    def test_failed_step_is_an_error_line(self, tiny_config, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise SolverError("step 3: injected failure")

        monkeypatch.setattr(sweeps, "run", fail)
        assert main([argv[0], str(tiny_config), *argv[1:], "--T", "0.02"]) == 1
        assert capsys.readouterr().err == "ERROR: step 3: injected failure\n"

    def test_missing_config_is_an_error_line(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nothere.ini")])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"ERROR: .*No such file or directory.*nothere\.ini'\n", err), err

    def test_grids_item_not_a_pair_names_the_option(self, tiny_config, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(sweeps, "run", lambda *a, **k: runs.append(a))
        code = main(["sweep-grid", str(tiny_config), "--grids", "8;8", "--T", "0.02"])
        assert code == 1
        assert capsys.readouterr().err == "ERROR: --grids takes nx,ny;nx,ny;..., got '8;8'\n"
        assert runs == []

class TestVerifyLemmas:
    def test_report_written(self, tmp_path, capsys):
        report = tmp_path / "lemmas.txt"
        code = main(["verify-lemmas", "--members", "12", "--output", str(report)])
        assert code == 0
        text = report.read_text()
        assert "PASS" in text and "FAIL" not in text

    @pytest.mark.parametrize("members", ["-3", "0", "1"])
    def test_corpus_too_small_rejected(self, tmp_path, capsys, members):
        report = tmp_path / "lemmas.txt"
        code = main(["verify-lemmas", "--members", members, "--output", str(report)])
        assert code != 0
        assert not report.exists()
        captured = capsys.readouterr()
        assert "at least 2 corpus members" in captured.err
        assert "PASS" not in captured.out


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    # fresh, so modules other tests imported do not count
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code += "\nimport sys; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def _scipy_loaded_after(code: str) -> list:
    return sorted(m for m in _modules_after(code) if m.startswith("scipy"))


def _verb_code(verb: str, tmp_path) -> str:
    """Code that runs one verb through `main` on an 8x8 config, asserting exit 0."""
    config = tmp_path / "run.ini"
    config.write_text(reference_config(t_end=0.02, nx=8, ny=8, cadence=0.01))
    argv = {
        "validate": ["validate", str(config)],
        "verify-lemmas": ["verify-lemmas", "--members", "12", "--output", str(tmp_path / "r.txt")],
        "run": ["run", str(config), "--output", str(tmp_path / "out")],
        "sweep-eps": ["sweep-eps", str(config), "--eps", "0.1,0.05", "--T", "0.02"],
    }[verb]
    return f"from chemoflow.cli import main\nassert main({argv!r}) == 0"


class TestImport:
    def test_cli_import_loads_no_scipy_sparse(self):
        assert _scipy_loaded_after("import chemoflow") == []
        assert _scipy_loaded_after("import chemoflow.cli") == []

    def test_package_import_loads_no_submodule(self):
        assert sorted(m for m in _modules_after("import chemoflow") if m.startswith("chemoflow.")) == []

    @pytest.mark.parametrize("verb", ["validate", "verify-lemmas", "run", "sweep-eps"])
    def test_no_verb_loads_scipy(self, tmp_path, verb):
        assert _scipy_loaded_after(_verb_code(verb, tmp_path)) == []

    @pytest.mark.parametrize("verb, unused", [
        ("validate", {"chemoflow.analysis", "chemoflow.sweeps", "numpy.random"}),
        ("run", {"chemoflow.analysis", "chemoflow.sweeps", "numpy.random"}),
        ("sweep-eps", {"chemoflow.analysis", "numpy.random"}),
        ("verify-lemmas", {"chemoflow.sweeps"}),
    ])
    def test_verb_loads_only_the_modules_it_runs(self, tmp_path, verb, unused):
        assert sorted(unused & _modules_after(_verb_code(verb, tmp_path))) == []

    def test_package_imports_and_every_export_resolves(self):
        # a fresh interpreter imports every submodule by name, so one that no
        # verb loads is checked too
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = (
            "import importlib, pkgutil, chemoflow\n"
            "for info in sorted(pkgutil.iter_modules(chemoflow.__path__)):\n"
            "    mod = importlib.import_module('chemoflow.' + info.name)\n"
            "    names = getattr(mod, '__all__', ())\n"
            "    missing = [n for n in names if not hasattr(mod, n)]\n"
            "    print(info.name, len(names), len(set(names)), missing)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        rows = [line.split(" ", 3) for line in done.stdout.splitlines()]
        assert {r[0] for r in rows} >= {"analysis", "diagnostics", "grid", "model", "operators", "sweeps"}
        for module, n_names, n_unique, missing in rows:
            assert n_names == n_unique, f"{module}.__all__ lists a name twice"
            assert missing == "[]", f"{module}.__all__ names undefined attributes {missing}"


class TestMallocThresholds:
    def test_no_mallopt_is_a_no_op(self, tiny_config, monkeypatch, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert main(["validate", str(tiny_config)]) == 0

    def test_unloadable_libc_is_a_no_op(self, tiny_config, monkeypatch, capsys):
        def unloadable(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", unloadable)
        assert main(["validate", str(tiny_config)]) == 0

    def test_set_on_every_call(self, tiny_config, monkeypatch, capsys):
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallopt"):
            pytest.skip("this C library has no mallopt")
        calls = []

        class Recording:
            def mallopt(self, option, value):
                calls.append((option, value, libc.mallopt(option, value)))

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Recording())
        assert main(["validate", str(tiny_config)]) == 0
        assert main(["validate", str(tiny_config)]) == 0
        # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD, and the second call fares as the first
        assert [c[:2] for c in calls] == 2 * [(-3, 32 << 20), (-1, 64 << 20)]
        assert calls[:2] == calls[2:]
        if platform.libc_ver()[0] == "glibc":
            assert all(c[2] == 1 for c in calls)  # both values accepted
