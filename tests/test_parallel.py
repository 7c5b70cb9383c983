"""Per-load worker processes of `generate` and `evaluate`."""

import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morcal
from morcal import cli
from morcal.cli import main
from morcal.config import load_pipeline_config
from morcal.errors import DataError
from morcal.fom import fom_integrate
from morcal.parallel import ordered_map, usable_cpus
from morcal.rom import load_rom

SRC = str(Path(morcal.__file__).resolve().parents[1])

# Two training and two validation loads, so an `evaluate` failure at the
# third case leaves cases on both sides of it.
SCENARIO = """
grid_points = 16
coolant_velocity = 0.01
rho_cp_coolant = 1.0e6
rho_cp_solid = 2.0e6
arrhenius_prefactor = 3.0e4
dt = 0.5
t_end = 120.0
heat_times = 0.0, 60.0
heat_values = 1.0, 0.0
save_every = 20
train_loads = 0.5, 1.0
validation_loads = 0.75, 1.5
pod_rank = 4
deim_rank = 4
max_iterations = 20
"""
CASES = ["R0.5", "R1", "R0.75", "R1.5"]
COMMANDS = ("generate", "train", "evaluate")


def _config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return str(path)


def _square(x):
    if x < 0:
        raise DataError(f"negative item {x}")
    return x * x


def test_ordered_map_yields_in_submission_order():
    items = list(range(7, -1, -1))
    assert list(ordered_map(_square, items)) == [x * x for x in items]
    assert list(ordered_map(_square, [])) == []
    assert 1 <= usable_cpus() <= (os.cpu_count() or 1)


def test_ordered_map_raises_a_task_error_in_its_turn():
    results = ordered_map(_square, [1, 2, -3, 4])
    assert next(results) == 1
    assert next(results) == 4
    with pytest.raises(DataError, match="negative item -3"):
        next(results)


def _run_cli(config, out, affinity=None):
    """Run the three commands in a child process; return their stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    pin = (lambda: os.sched_setaffinity(0, affinity)) if affinity else None
    lines = []
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "morcal.cli", "--config", config, "--out", str(out), command],
            env=env, preexec_fn=pin, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines += proc.stdout.replace(str(out), "OUT").splitlines()
    return lines


def _tree(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
def test_one_cpu_and_all_cpus_write_identical_outputs(tmp_path):
    config = _config(tmp_path)
    one_cpu = {min(os.sched_getaffinity(0))}
    pinned = _run_cli(config, tmp_path / "pinned", affinity=one_cpu)
    free = _run_cli(config, tmp_path / "free")
    assert pinned == free
    pinned_files = _tree(tmp_path / "pinned")
    assert "summary.csv" in pinned_files and "snapshots/snapshots_R1.5.txt" in pinned_files
    assert pinned_files == _tree(tmp_path / "free")


def test_stdout_lines_appear_once_in_order(tmp_path, capfd, monkeypatch):
    config = _config(tmp_path)
    out = str(tmp_path / "out")
    # A block-buffered stdout, as when output goes to a pipe or a file:
    # text still buffered when workers fork must be written once, not per worker.
    stream = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        print("before the pool")
        for command in COMMANDS:
            assert main(["--config", config, "--out", out, command]) == 0
    finally:
        stream.close()
    lines = capfd.readouterr().out.splitlines()
    generated = [f"generate: R={case[1:]} -> {out}/snapshots/snapshots_{case}.txt (13 snapshots)"
                 for case in CASES]
    evaluated = [line for line in lines if line.startswith("evaluate: R")]
    assert lines[:5] == ["before the pool"] + generated
    assert [line.split()[1] for line in evaluated] == CASES
    assert len(lines) == len(set(lines))
    assert lines[-1] == f"evaluate: summary -> {out}/summary.csv"


def test_failing_case_keeps_earlier_csvs_and_writes_no_summary(tmp_path, capsys):
    config = _config(tmp_path)
    out = tmp_path / "out"
    for command in ("generate", "train"):
        assert main(["--config", config, "--out", str(out), command]) == 0
    path = out / "snapshots" / "snapshots_R0.75.txt"
    lines = path.read_text().splitlines()
    row = lines.index("data") + 2
    lines[row] = "x " + lines[row].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", config, "--out", str(out), "evaluate"]) == 3
    captured = capsys.readouterr()
    assert "error (data)" in captured.err and f"line {row + 1}: bad number" in captured.err
    assert [line.split()[1] for line in captured.out.splitlines()] == ["R0.5", "R1"]
    written = set(os.listdir(out))
    for case in ("R0.5", "R1"):
        assert {f"errors_{case}.csv", f"stats_{case}.csv"} <= written
    for case in ("R0.75", "R1.5"):
        assert not {f"errors_{case}.csv", f"stats_{case}.csv"} & written
    assert "summary.csv" not in written


def test_worker_tasks_survive_pickling(tmp_path):
    config = _config(tmp_path)
    out = tmp_path / "out"
    for command in ("generate", "train"):
        assert main(["--config", config, "--out", str(out), command]) == 0
    cfg = load_pipeline_config(config, output_override=str(out))
    models = {"opinf": load_rom(out / "rom_opinf.txt"),
              "calibrated": load_rom(out / "rom_calibrated.txt")}
    task = (models, "calibrated", cfg.snapshot_path(0.75), cfg.fom.solid_mask)
    copy_fn, copy_task = pickle.loads(pickle.dumps((cli._evaluate_case, task)))
    assert copy_fn is cli._evaluate_case
    assert copy_fn(copy_task) == cli._evaluate_case(task)

    trajectory = fom_integrate(cfg.fom, [cfg.control_signal(0.75)], cfg.save_every)[0]
    copy_fn, (copy_traj, path) = pickle.loads(
        pickle.dumps((cli._write_snapshot_file, (trajectory, str(tmp_path / "s.txt")))))
    assert copy_fn is cli._write_snapshot_file
    assert np.array_equal(copy_traj.data, trajectory.data)
    assert copy_fn((copy_traj, path)) == trajectory.m
    assert Path(path).read_bytes() == Path(cfg.snapshot_path(0.75)).read_bytes()


def test_importing_the_cli_loads_no_pool_machinery():
    code = ("import sys, morcal.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
