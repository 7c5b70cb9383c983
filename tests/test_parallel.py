"""Per-load worker processes of `generate`, and `evaluate` scoring every case in one process."""

import io
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morcal
from morcal import cli
from morcal import snapshots as snap_mod
from morcal.calibrate import forward_rollout
from morcal.cli import main
from morcal.config import load_pipeline_config
from morcal.fom import fom_integrate
from morcal.rom import load_rom, rom_vs_projected_error
from morcal.snapshots import apply_scaling, load_snapshots

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
    generated = [f"generate: {case} -> {out}/snapshots/snapshots_{case}.txt (13 snapshots)"
                 for case in CASES]
    evaluated = [line for line in lines if line.startswith("evaluate: R")]
    assert lines[:5] == ["before the pool"] + generated
    assert [line.split()[1] for line in evaluated] == CASES
    assert len(lines) == len(set(lines))
    assert lines[-1] == f"evaluate: summary -> {out}/summary.csv"


def test_a_failed_write_ends_generate_in_its_turn(tmp_path, capsys):
    """The cases before the failed write print their lines in order; the error is the
    worker's own, and ``generate`` exits 3."""
    config = _config(tmp_path)
    out = tmp_path / "out"
    blocked = out / "snapshots" / "snapshots_R0.75.txt"
    blocked.mkdir(parents=True)
    assert main(["--config", config, "--out", str(out), "generate"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"generate: {case} -> {out}/snapshots/snapshots_{case}.txt (13 snapshots)"
        for case in CASES[:2]]
    assert captured.err == f"error (data): [Errno 21] Is a directory: '{blocked}'\n"


def test_generate_writes_through_a_wrapped_save_snapshots(tmp_path, monkeypatch):
    """A local wrapper around ``save_snapshots``, as a tracer installs, cannot be pickled;
    the workers still write through it, and the files are those of an unwrapped run."""
    config = _config(tmp_path)
    assert main(["--config", config, "--out", str(tmp_path / "plain"), "generate"]) == 0
    original = snap_mod.save_snapshots

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(snap_mod, "save_snapshots", wrapped)
    assert main(["--config", config, "--out", str(tmp_path / "wrapped"), "generate"]) == 0
    plain = _tree(tmp_path / "plain")
    assert len(plain) == 2 * len(CASES)
    assert _tree(tmp_path / "wrapped") == plain


def test_failing_case_leaves_every_output_file_as_it_was(tmp_path, capsys):
    """Every case is scored before any is written, so a refused ``evaluate`` changes no file."""
    config = _config(tmp_path)
    out = tmp_path / "out"
    for command in ("generate", "train"):
        assert main(["--config", config, "--out", str(out), command]) == 0
    path = out / "snapshots" / "snapshots_R0.75.txt"
    lines = path.read_text().splitlines()
    row = lines.index("data") + 2
    lines[row] = "x " + lines[row].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    before = _tree(out)
    capsys.readouterr()
    assert main(["--config", config, "--out", str(out), "evaluate"]) == 3
    captured = capsys.readouterr()
    assert "error (data)" in captured.err and f"line {row + 1}: bad number" in captured.err
    assert not [line for line in captured.out.splitlines() if line.startswith("evaluate: R")]
    assert not [name for name in os.listdir(out)
                if name.startswith(("errors_", "stats_")) or name == "summary.csv"]
    assert _tree(out) == before


def test_stacked_scoring_equals_rolling_each_case_out_alone(tmp_path, monkeypatch):
    """Cases of equal length are rolled out as one stack; a case file from a shorter
    horizon forms a second length group, and ``evaluate`` accepts it."""
    config = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out), "generate"]) == 0
    monkeypatch.setenv("MORCAL_T_END", "80")
    assert main(["--config", config, "--out", str(tmp_path / "short"), "generate"]) == 0
    monkeypatch.delenv("MORCAL_T_END")
    for name in ("snapshots_R0.75.txt", "snapshots_R0.75.txt.bin"):
        shutil.copyfile(tmp_path / "short" / "snapshots" / name, out / "snapshots" / name)
    for command in ("train", "evaluate"):
        assert main(["--config", config, "--out", str(out), command]) == 0
    assert len((out / "errors_R0.75.csv").read_text().splitlines()) == 1 + 9

    cfg = load_pipeline_config(config, output_override=str(out))
    cases = [load_snapshots(case.path) for case in cfg.cases]
    assert [case.m for case in cases] == [13, 13, 9, 13]
    for name in ("opinf", "calibrated"):
        model = load_rom(out / f"rom_{name}.txt")
        reports = rom_vs_projected_error(model, cases)
        assert len(reports) == len(cases)
        for case, report in zip(cases, reports):
            projected = model.basis.basis.T @ apply_scaling(case, model.basis.scaling)
            alone = forward_rollout(model.operators, model.deim, projected[:, 0], case.controls,
                                    model.dt, case.m - 1)
            assert np.max(np.abs(report.rollout - alone)) <= 1e-13 * np.max(np.abs(alone))
            # an error is a small difference of states, so it keeps fewer digits
            errors = np.sum((alone - projected) ** 2, axis=0) / np.sum(projected ** 2, axis=0)
            np.testing.assert_allclose(report.step_errors, errors, rtol=1e-10, atol=0)


def test_worker_tasks_survive_pickling(tmp_path):
    config = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out), "generate"]) == 0
    cfg = load_pipeline_config(config, output_override=str(out))
    case = cfg.cases[CASES.index("R0.75")]
    trajectory = fom_integrate(cfg.fom, [case.signal], cfg.save_every)[0]
    copy_fn, (copy_traj, path) = pickle.loads(
        pickle.dumps((cli._write_snapshot_file, (trajectory, str(tmp_path / "s.txt")))))
    assert copy_fn is cli._write_snapshot_file
    assert np.array_equal(copy_traj.data, trajectory.data)
    assert copy_fn((copy_traj, path)) == trajectory.m
    assert Path(path).read_bytes() == Path(case.path).read_bytes()


def test_importing_the_cli_loads_no_pool_machinery(tmp_path):
    """Importing the CLI, and running ``evaluate``, load neither pool module."""
    config = _config(tmp_path)
    out = str(tmp_path / "out")
    for command in ("generate", "train"):
        assert main(["--config", config, "--out", out, command]) == 0
    report = ("print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
              "if m in sys.modules))")
    evaluate = f"assert morcal.cli.main({['--config', config, '--out', out, 'evaluate']!r}) == 0"
    env = dict(os.environ, PYTHONPATH=SRC)
    for step in ("pass", evaluate):
        code = f"import sys, morcal.cli\n{step}\n{report}"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", step
    assert (tmp_path / "out" / "summary.csv").exists()
