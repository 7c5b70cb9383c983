"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at ``--size tiny`` (a 2,000-step
horizon), untraced and traced, through the same command line the full
benchmark uses.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_self_times_subtract_merged_children_clipped_to_parent():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a.child", 1, 2.0, 3.0],
        ["b", 0, 3.5, 6.0],  # overlaps a by 0.5: covered once
        ["c", 0, 9.0, 12.0],  # runs past the root: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def _trace(spans, attrs, wrapped):
    names = sorted({s[0] for s in spans})
    return {
        "names": names,
        "spans": [[names.index(n), p, a, b] for n, p, a, b in spans],
        "attrs": {str(k): v for k, v in attrs.items()},
        "wrapped": wrapped,
        "import_s": 0.25,
    }


def test_layer_metrics_on_a_synthetic_calibration():
    # Two trajectories: objective 0 (initial), gradient 0, one rejected
    # candidate, one accepted candidate, gradient 1; then one rom rollout.
    spans = [
        ["cli.main", -1, 0.0, 20.0],
        ["calibrate.build_calibration_problem", 0, 0.5, 1.0],
        ["calibrate.calibrate", 0, 1.0, 11.0],
        ["calibrate.objective", 2, 1.0, 2.0],
        ["calibrate.forward_rollout", 3, 1.0, 1.5],
        ["calibrate.forward_rollout", 3, 1.5, 2.0],
        ["calibrate.forward_rollout", 2, 2.0, 2.5],
        ["calibrate.forward_rollout", 2, 2.5, 3.0],
        ["calibrate.objective", 2, 3.0, 3.5],
        ["calibrate.forward_rollout", 8, 3.0, 3.5],
        ["calibrate.objective", 2, 4.0, 5.0],
        ["calibrate.forward_rollout", 10, 4.0, 4.5],
        ["calibrate.forward_rollout", 10, 4.5, 5.0],
        ["calibrate.forward_rollout", 2, 5.0, 5.5],
        ["calibrate.forward_rollout", 2, 5.5, 6.0],
        ["rom.simulate_rom", 0, 12.0, 14.0],
        ["calibrate.forward_rollout", 15, 12.0, 13.0],
    ]
    attrs = {1: {"trajectories": 2}, 2: {"iterations": 1}, 3: {"rejected": 0},
             8: {"rejected": 1}, 9: {"error": 1}, 10: {"rejected": 0}, 16: {"steps": 100}}
    for idx in (4, 5, 6, 7, 11, 12, 13, 14):
        attrs[idx] = {"steps": 10}
    wrapped = [f"{mod}.{fn}" for mod, fns in tracing.LAYER_FUNCTIONS.items() for fn in fns]
    m = tracing.layer_metrics([_trace(spans, attrs, wrapped)], traced_wall_s=12.0,
                              untraced_wall_s=10.0)
    value = {k: v["value"] for k, v in m.items()}
    assert value["calibrate.total_s"] == pytest.approx(10.0)
    assert value["calibrate.objective_calls"] == 3
    assert value["calibrate.rejected"] == 1
    assert value["calibrate.forward_calls"] == 9
    assert value["calibrate.gradient_evals"] == 2
    assert value["calibrate.iterations"] == 1
    assert value["calibrate.backtracks"] == 1
    assert value["calibrate.useful_ratio"] == pytest.approx(1 / 5)
    # calibrate's own time: 10 s minus objectives (2.5 s) and gradient rollouts (2 s)
    assert value["calibrate.self_s"] == pytest.approx(5.5)
    assert value["rom.rollout_calls"] == 1
    assert value["rom.rollout_step_us"] == pytest.approx(1e4)
    assert value["cli.self_s"] == pytest.approx(20.0 - 0.5 - 10.0 - 2.0)
    assert value["cli.import_s"] == 0.25
    assert value["trace.overhead_frac"] == pytest.approx(0.2)


def test_metrics_of_a_missing_function_are_absent():
    spans = [["cli.main", -1, 0.0, 1.0], ["fom.fom_integrate", 0, 0.0, 1.0]]
    m = tracing.layer_metrics([_trace(spans, {}, ["fom.fom_integrate"])], 1.0, 1.0)
    assert m["fom.integrate_s"]["value"] == 1.0
    assert "fom.rhs_calls" not in m and "fom.self_s" not in m


def test_traced_command_wraps_functions_imported_under_another_name(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "fixture-check"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    names = [trace["names"][s[0]] for s in trace["spans"]]
    parents = [trace["names"][trace["spans"][s[1]][0]] if s[1] >= 0 else None
               for s in trace["spans"]]
    # rom.simulate_rom reaches forward_rollout through rom's private alias
    assert ("calibrate.forward_rollout", "rom.simulate_rom") in set(zip(names, parents))
    assert names[0] == tracing.ROOT_SPAN


def test_seed_zero_is_bundled_and_other_seeds_draw_inside_the_range():
    assert workloads.draw_loads(0) == (workloads.BUNDLED_TRAIN_LOADS,
                                       workloads.BUNDLED_VALIDATION_LOADS)
    for seed in range(1, 200):
        train, validation = workloads.draw_loads(seed)
        assert (train, validation) == workloads.draw_loads(seed)
        loads = sorted(train + validation)
        assert 0.5 <= loads[0] and loads[-1] <= 1.5
        assert len({f"{v:g}" for v in loads}) == 5
        assert train[0] < validation[0] < train[1] < validation[1] < train[2]


def test_benchmark_spec_keeps_its_format_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"]) and len(w["why"]) <= 200
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_layer_map_and_benchmark_spec_agree():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert mapped == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for layer in layers.values():
        for move in layer["moves"]:
            assert move["metric"] in e2e and set(move["workloads"]) <= names
    assert names == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    record, result = _result(_run("--workload", workload, "--seed", "7", "--seconds", "0",
                                  "--trace", str(trace), "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(record["commands"]) + len(record["checks"])
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    checks = {c["check"] for c in record["checks"]}
    if trace:
        # the traced pass wrote the same bytes as the untraced one
        assert "traced_matches_untraced" in checks
    else:
        assert "pass_repeats_identical" in checks
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "calibrate", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
