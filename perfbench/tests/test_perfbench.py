"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTimes:
    def test_children_subtracted_once_where_they_overlap(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 3.0, 0],
            ["b", 2.0, 4.0, 0],  # overlaps a: together they cover [1, 4]
            ["c", 5.0, 6.0, 0],
            ["c.child", 5.5, 5.8, 3],
            ["late", 11.0, 12.0, -1],
        ]
        got = tracing.self_times(spans)
        assert got == pytest.approx([10.0 - 3.0 - 1.0, 2.0, 2.0, 1.0 - 0.3, 0.3, 1.0])

    def test_child_outside_parent_is_clipped(self):
        spans = [["p", 0.0, 2.0, -1], ["q", 1.5, 3.0, 0]]
        assert tracing.self_times(spans) == pytest.approx([1.5, 1.5])

    def test_coverage_counts_top_level_spans_inside_the_window(self):
        spans = [["setup", -2.0, -1.0, -1], ["x", 1.0, 4.0, -1], ["x.in", 2.0, 3.0, 1],
                 ["y", 3.0, 6.0, -1], ["tail", 9.0, 12.0, -1]]
        assert tracing.coverage(spans, 0.0, 10.0) == pytest.approx((5.0 + 1.0) / 10.0)

    def test_tracer_records_nesting_and_counters(self):
        tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))
        seen = []
        inner = tracer.wrap("inner", lambda x: x + 1, before=lambda args: seen.append(args))
        outer = tracer.wrap("outer", lambda x: inner(x) * 2, after=seen.append)
        assert outer(1) == 4
        assert tracer.spans == [["outer", 0.0, 4.0, -1], ["inner", 1.0, 3.0, 0]]
        assert seen == [(1,), 4]
        assert tracing.self_times(tracer.spans) == [2.0, 2.0]


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, name):
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)

    def test_default_seed_is_the_acceptance_configuration(self):
        from chemoflow.config import parse_config, reference_config_text

        text = reference_config_text(t_end=workloads.REFERENCE_T_END)
        expected = parse_config(text.replace("snapshots = false", "snapshots = true"))
        got = parse_config(workloads.make_inputs("reference", workloads.DEFAULT_SEED).config_text)
        assert got == expected

    def test_bump_stays_near_the_centre(self):
        for seed in range(50):
            x0, y0 = workloads.bump_centre(seed)
            assert abs(x0 - 0.5) <= workloads.BUMP_SHIFT and abs(y0 - 0.5) <= workloads.BUMP_SHIFT

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            workloads.make_inputs("reference", -1)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path):
    inputs = workloads.make_inputs("reference", workloads.DEFAULT_SEED)
    env = run.worker_env()
    plain = run.run_sample(inputs, 0, False, tmp_path, env)
    traced = [run.run_sample(inputs, i, True, tmp_path, env) for i in (1, 2)]
    for res in [plain, *traced]:
        assert res["problems"] == []
        assert res["final_err"] == {"n": 0.0, "c": 0.0, "u": 0.0}
        assert res["hashes"] == plain["hashes"]
    counts = ("solver.steps", "solver.substeps", "diagnostics.records", "io.bytes_written")
    first, second = ({k: r["layers"][k] for k in counts} for r in traced)
    assert first == second
    assert first["diagnostics.records"] == inputs.records
    assert first["solver.substeps"] > first["solver.steps"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemmas",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
