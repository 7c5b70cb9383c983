"""Configuration parsing, environment overrides, and the pipeline commands."""

import importlib
import importlib.util
import inspect
import logging
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import morcal
from morcal import config as config_mod
from morcal.cli import build_parser, main
from morcal.config import apply_env_overrides, load_pipeline_config, parse_config_file
from morcal.errors import ConfigError, NumericError
from morcal.rom import load_rom, save_rom
from morcal.snapshots import concat_snapshot_sets, load_snapshots, save_snapshots

TINY_SCENARIO = """
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
validation_loads = 1.5
pod_rank = 4
deim_rank = 4
max_iterations = 40
"""


def _write_tiny(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO)
    return str(path)


def _train_regression_only(cfg, out):
    """``train`` at ``max_iterations = 0``, where the calibrated model is the regression fit."""
    with mock.patch.dict(os.environ, {"MORCAL_MAX_ITERATIONS": "0"}):
        return main(["--config", cfg, "--out", out, "train"])


def test_parse_config_file_basics(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1\n# comment\nb = two words  # trailing\n\nc=3\n")
    values = parse_config_file(path)
    assert values == {"a": "1", "b": "two words", "c": "3"}


def test_parse_config_file_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    path.write_text("not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "absent.cfg")


def test_env_overrides_win(monkeypatch):
    monkeypatch.setenv("MORCAL_POD_RANK", "11")
    out = apply_env_overrides({"pod_rank": "8", "dt": "0.5"})
    assert out["pod_rank"] == "11"
    assert out["dt"] == "0.5"


def test_env_overrides_can_introduce_keys(monkeypatch):
    monkeypatch.setenv("MORCAL_SNAPSHOT_DIR", "/some/where")
    out = apply_env_overrides({})
    assert out["snapshot_dir"] == "/some/where"


def test_load_pipeline_config_defaults():
    cfg = load_pipeline_config(None)
    assert cfg.fom.grid_points == 200
    assert cfg.pod_rank == 8
    assert cfg.deim_rank == 8
    assert cfg.tikhonov_lambda == 1.0
    assert tuple(cfg.train_loads) == (0.5, 1.0, 1.5)
    assert tuple(cfg.validation_loads) == (0.75, 1.25)
    # solid occupies the middle half of the channel
    mask = cfg.fom.solid_mask
    assert mask[: cfg.fom.grid_points // 4].sum() == 0
    assert mask.sum() == pytest.approx(cfg.fom.grid_points / 2, abs=1)


def test_load_pipeline_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("grid_pionts = 100\n")
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(str(path))
    assert "grid_pionts" in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "seed = 0",
        "include_input = false",
        "history_size = 10",
        "initial_step = 1.0",
        "line_search_shrink = 0.5",
        "line_search_max_backtracks = 40",
        "enforce_symmetric_a = false",
        "include_quadratic = false",
        "include_quadratic = true",
    ],
)
def test_cli_rejects_removed_config_keys(tmp_path, capsys, line):
    path = tmp_path / "old.cfg"
    path.write_text(TINY_SCENARIO + line + "\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "error (config)" in err and line.split(" = ")[0] in err


def test_cli_has_no_seed_flag(capsys):
    for argv in (["--seed", "1", "generate"], ["generate", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module", ["morcal"] + [f"morcal.{m.name}" for m in pkgutil.iter_modules(morcal.__path__)]
)
def test_star_import_finds_every_exported_name(module):
    """``from <module> import *`` fails on an ``__all__`` entry that does not exist."""
    exec(f"from {module} import *", {})


PACKAGE_MODULES = ["calibrate", "config", "deim", "errors", "fom", "opinf", "pod", "rom",
                   "snapshots"]


def test_package_re_exports_the_public_names_of_each_module():
    """``morcal.__all__`` is the modules' ``__all__`` lists, each name bound to the same object."""
    found = sorted(m.name for m in pkgutil.iter_modules(morcal.__path__))
    assert found == sorted(PACKAGE_MODULES + ["cli", "textio"])
    modules = [importlib.import_module(f"morcal.{name}") for name in PACKAGE_MODULES]
    names = [name for module in modules for name in module.__all__]
    assert morcal.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(morcal, name) is getattr(module, name), f"morcal.{name}"


def test_every_function_the_benchmark_traces_exists():
    """perfbench/tracing.py wraps morcal functions by name and skips a missing one.

    Its span annotations read call arguments by parameter name, so a renamed
    parameter would first show up as a crashed traced run.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, functions in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"morcal.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"morcal.{module_name}.{name}"

    class Bound(dict):
        """Call arguments that record which names an annotation reads."""

        def __missing__(self, key):
            read.append(key)
            return mock.MagicMock(**{"__fspath__.return_value": os.devnull})

    checked = []
    for span, annotate in tracing._ANNOTATE.items():
        module_name, name = span.split(".")
        function = getattr(importlib.import_module(f"morcal.{module_name}"), name)
        read = []
        annotate(Bound(), mock.MagicMock())
        for key in read:
            assert key in inspect.signature(function).parameters, \
                f"perfbench reads {key!r} of morcal.{span}"
            checked.append(f"{span}({key})")
    assert {"pod.compute_pod(snapshot_matrix)", "snapshots.save_snapshots(path)",
            "snapshots.load_snapshots(path)", "calibrate.forward_rollout(k)",
            "rom.simulate_rom(k)"} <= set(checked)


def _readme_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([a-z_]+)`", section))


def test_readme_lists_exactly_the_bundled_config_keys():
    """README's "Configuration keys" names every key the bundled scenario sets, and no other."""
    bundled = resources.files("morcal").joinpath("data/reactor.cfg")
    with resources.as_file(bundled) as path:
        keys = set(parse_config_file(path))
    assert _readme_config_keys() == keys | {"snapshot_dir"}


def test_readme_lists_exactly_the_keys_the_loader_reads(monkeypatch):
    """A new dataclass field is a new key, and README's "Configuration keys" must name it."""
    read = []
    get = config_mod._Reader.get

    def spy(self, key, default):
        read.append(key)
        return get(self, key, default)

    monkeypatch.setattr(config_mod._Reader, "get", spy)
    load_pipeline_config(None)
    assert len(read) == len(set(read))  # each key is declared, and read, once
    assert _readme_config_keys() == set(read)


def _readme_commands():
    """Every ``morcal ...`` command in README's fenced ``sh`` blocks and inline code spans,
    as its arguments, without leading ``MORCAL_*=`` assignments or text after ``|`` or ``#``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.S | re.M)
    prose = re.sub(r"^```.*?^```$", "", readme, flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    lines += [span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", prose)]
    commands = []
    for line in lines:
        words = shlex.split(re.split(r"[|#]", line, maxsplit=1)[0])
        while words and re.fullmatch(r"MORCAL_\w+=.*", words[0]):
            words.pop(0)
        if len(words) > 1 and words[0] == "morcal":
            commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    """The documented CLI usage parses as written."""
    commands = _readme_commands()
    documented = {word for argv in commands for word in argv}
    assert {"generate", "train", "evaluate", "export-rom", "fixture-check"} <= documented
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's 'morcal {' '.join(argv)}' does not parse: "
                        f"{capsys.readouterr().err}")


def test_load_pipeline_config_rejects_overlapping_loads(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("train_loads = 1.0, 2.0\nvalidation_loads = 2.0\n")
    with pytest.raises(ConfigError):
        load_pipeline_config(str(path))


@pytest.mark.parametrize(
    "train, validation, shared",
    [
        ("0.5, 1.0000001, 1.0000002", "1.5", "1.0000001 (R1), 1.0000002 (R1)"),
        ("0.5, 0.5", "1.5", "0.5 (R0.5), 0.5 (R0.5)"),
        ("0.5, 1.0", "1.0000001", "1.0 (R1), 1.0000001 (R1)"),
    ],
)
def test_cli_refuses_loads_that_share_a_case_name(tmp_path, capsys, train, validation, shared):
    """Loads named alike would write, train on and score one snapshot file twice."""
    path = tmp_path / "c.cfg"
    path.write_text(TINY_SCENARIO.replace("train_loads = 0.5, 1.0", f"train_loads = {train}")
                    .replace("validation_loads = 1.5", f"validation_loads = {validation}"))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert f"error (config): {path}: heat loads {shared} share a case name" in err
    assert not list(tmp_path.rglob("snapshots_*"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("DT", "-1", "dt must be positive"),  # FomConfig.validate
        ("GRID_POINTS", "-3", "grid_points must be at least 3"),  # before the mask is built
        ("POD_RANK", "0", "pod_rank and deim_rank must be positive"),  # PipelineConfig
    ],
)
def test_config_validation_errors_name_their_source(tmp_path, monkeypatch, key, value, message):
    monkeypatch.setenv(f"MORCAL_{key}", value)
    path = _write_tiny(tmp_path)
    for source, name in ((None, "bundled reactor scenario"), (path, path)):
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(source)
        assert str(err.value) == f"{name}: {message}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("DT", "nan", "key 'dt' must be a number, got 'nan'"),
        ("TIKHONOV_LAMBDA", "nan", "key 'tikhonov_lambda' must be a number, got 'nan'"),
        ("GRADIENT_TOLERANCE", "inf", "key 'gradient_tolerance' must be a number, got 'inf'"),
        ("TRAIN_LOADS", "nan, 1", "key 'train_loads' must list numbers, got 'nan, 1'"),
        ("HEAT_TIMES", "0, -inf", "key 'heat_times' must list numbers, got '0, -inf'"),
    ],
)
def test_cli_refuses_non_finite_numbers(tmp_path, monkeypatch, capsys, key, value, message):
    monkeypatch.setenv(f"MORCAL_{key}", value)
    path = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "generate"]) == 2
    assert f"error (config): {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
@pytest.mark.parametrize("how", ["environment", "--out"])
def test_cli_refuses_an_empty_output_dir(tmp_path, monkeypatch, capsys, how, command):
    """An empty ``output_dir`` would put snapshots under the working folder and fail
    ``train`` only after its fit, so it is refused at load."""
    monkeypatch.chdir(tmp_path)
    if how == "environment":
        monkeypatch.setenv("MORCAL_OUTPUT_DIR", "")
        argv = [command]
    else:
        argv = ["--out", "", command]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error (config): bundled reactor scenario: "
                                       "output_dir (or --out) must not be empty\n")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("blank", [" ", " \t"])
def test_cli_strips_environment_values_and_out_as_file_values(tmp_path, monkeypatch, capsys,
                                                              blank):
    """A blank ``output_dir`` from the environment or ``--out`` is refused, and a blank
    ``snapshot_dir`` from the environment falls back to ``<output_dir>/snapshots``."""
    monkeypatch.chdir(tmp_path)
    refusal = ("error (config): bundled reactor scenario: output_dir (or --out) must not "
               "be empty\n")
    assert main(["--out", blank, "generate"]) == 2
    assert capsys.readouterr().err == refusal
    with monkeypatch.context() as env:
        env.setenv("MORCAL_OUTPUT_DIR", blank)
        assert main(["generate"]) == 2
    assert capsys.readouterr().err == refusal
    assert not os.listdir(tmp_path)
    monkeypatch.setenv("MORCAL_SNAPSHOT_DIR", blank)
    cfg = load_pipeline_config(_write_tiny(tmp_path), output_override="out")
    names = ("R0.5", "R1", "R1.5")
    assert [case.path for case in cfg.cases] == [
        os.path.join("out", "snapshots", f"snapshots_{name}.txt") for name in names]


def test_cli_refuses_a_solid_span_that_covers_no_grid_point(tmp_path, monkeypatch, capsys):
    """Without solid rows the model has no source to sample, and evaluation has no statistics."""
    monkeypatch.setenv("MORCAL_SOLID_SPAN", "0.1, 0.2")
    monkeypatch.setenv("MORCAL_GRID_POINTS", "5")
    out = tmp_path / "out"
    assert main(["--out", str(out), "generate"]) == 2
    assert ("error (config): bundled reactor scenario: solid_span 0.1, 0.2 covers none of "
            "the 5 grid points") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("HEAT_TIMES", "60, 0", "heat_times must be strictly increasing"),
        ("HEAT_TIMES", "100, 1500", "heat_times must start at or before t = 0, got 100"),
        ("HEAT_VALUES", "1, -1", "heat load values must be nonnegative"),
        ("TRAIN_LOADS", "-0.5, 1", "heat load values must be nonnegative"),  # scales the schedule
    ],
)
def test_cli_refuses_a_malformed_heat_schedule_naming_its_source(tmp_path, monkeypatch, capsys,
                                                                 command, key, value, message):
    """The schedule is checked when the config is loaded, not when ``generate`` runs it."""
    monkeypatch.setenv(f"MORCAL_{key}", value)
    path = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), command]) == 2
    assert capsys.readouterr().err == f"error (config): {path}: {message}\n"
    assert not out.exists()


def test_cases_list_training_then_validation_loads(tmp_path, monkeypatch):
    """One case per load, training first, with its scaled schedule, its role and its
    snapshot file under ``output_dir/snapshots``, or ``snapshot_dir`` if that is set."""
    path = _write_tiny(tmp_path)
    out = tmp_path / "out"
    cfg = load_pipeline_config(path, output_override=str(out))
    assert [(case.name, case.role) for case in cfg.cases] == [
        ("R0.5", "training"), ("R1", "training"), ("R1.5", "validation")]
    for case, load in zip(cfg.cases, (0.5, 1.0, 1.5)):
        assert np.array_equal(case.signal.heat_times, [0.0, 60.0])
        assert np.array_equal(case.signal.heat_values, [load, 0.0])
        assert case.path == str(out / "snapshots" / f"snapshots_{case.name}.txt")
    monkeypatch.setenv("MORCAL_SNAPSHOT_DIR", str(tmp_path / "shared"))
    cfg = load_pipeline_config(path, output_override=str(out))
    assert [case.path for case in cfg.cases] == [
        str(tmp_path / "shared" / f"snapshots_{name}.txt") for name in ("R0.5", "R1", "R1.5")]
    monkeypatch.setenv("MORCAL_CASES", "R2")  # derived, so not a key
    with pytest.raises(ConfigError, match="unknown configuration keys: cases"):
        load_pipeline_config(path)


def test_cli_exit_codes_for_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["--config", missing, "generate"]) == 2
    assert "error (config)" in capsys.readouterr().err
    # train without snapshots is a data error
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    assert "error (data)" in capsys.readouterr().err
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    assert main(["--config", cfg, "--out", out, "export-rom"]) == 3


@pytest.mark.parametrize(
    "command, env, code",
    [
        ("generate", {"MORCAL_T_END": "1"}, 2),  # shorter than one saved step
        ("train", {}, 3),  # no snapshots
        ("evaluate", {}, 3),  # no model
        ("export-rom", {}, 3),  # no model
    ],
)
def test_cli_refused_command_leaves_no_output_folder(tmp_path, monkeypatch, capsys, command,
                                                     env, code):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    assert main(["--config", _write_tiny(tmp_path), "--out", str(out), command]) == code
    assert not out.exists()


def test_cli_generate_writes_loadable_snapshots(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    snaps = load_snapshots(os.path.join(out, "snapshots", "snapshots_R0.5.txt"))
    assert snaps.n == 32
    assert snaps.controls[0] == 0.5


def test_cli_generate_files_keep_the_layout_the_benchmark_counts(tmp_path):
    """generate's files still carry the derivative section: ``check_snapshots`` in
    perfbench/run.py counts exactly 10 + 3m lines, so the section can go only after
    that check counts the layout a file's header declares (ROADMAP item 2)."""
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    texts = sorted((out / "snapshots").glob("snapshots_R*.txt"))
    assert len(texts) == 3
    for path in texts:
        lines = path.read_text().splitlines()
        m = load_snapshots(path).m
        assert "has_derivatives=1" in lines and "derivatives" in lines, path
        assert len(lines) == 10 + 3 * m, path


def test_cli_full_tiny_pipeline(tmp_path):
    """generate, train, evaluate, export-rom on a 16-point scenario."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert main(["--config", cfg, "--out", out, "train"]) == 0
    for name in ("rom_opinf.txt", "rom_calibrated.txt", "convergence.csv",
                 "pod_basis.txt", "pod_spectrum.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    # pod_basis.txt is write-only: it holds the model file's basis and spectrum
    basis = load_rom(os.path.join(out, "rom_opinf.txt")).basis
    lines = (tmp_path / "out" / "pod_basis.txt").read_text().splitlines()
    assert lines[0] == f"n={basis.n} r={basis.r}"
    assert np.array_equal(np.loadtxt(lines[1:-1], ndmin=2), basis.basis.T)
    assert np.array_equal(np.loadtxt(lines[-1:], ndmin=1), basis.singular_values)
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 0
    for name in ("summary.csv", "errors_R0.5.csv", "errors_R1.5.csv", "stats_R1.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == "case,model,mean_rel_mse_excl_switch_off,mean_rel_mse_all"
    assert any(line.startswith("ratio,calibrated_over_opinf") for line in summary)
    assert main(["--config", cfg, "--out", out, "export-rom"]) == 0
    assert os.path.exists(os.path.join(out, "rom_compact.txt"))


def test_cli_regression_only_run_is_zero_iterations(tmp_path, capsys):
    """At ``max_iterations = 0`` the calibrated model is the regression fit, byte for
    byte, and ``evaluate`` reads a ratio of 1; ``train`` has no flag to skip calibrating."""
    cfg, out = _trained_tiny(tmp_path)
    folder = tmp_path / "out"
    assert (folder / "rom_calibrated.txt").read_bytes() == (folder / "rom_opinf.txt").read_bytes()
    rows = (folder / "convergence.csv").read_text().splitlines()
    assert rows[0] == "iteration,objective,gradient_norm,damping"
    assert len(rows) == 2 and rows[1].startswith("0,")
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 0
    assert "ratio,calibrated_over_opinf,1,1" in (folder / "summary.csv").read_text().splitlines()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--out", out, "train", "--skip-calibration"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --skip-calibration" in capsys.readouterr().err


def test_cli_retrain_leaves_no_calibrated_model_of_an_earlier_run(tmp_path, monkeypatch,
                                                                  capsys):
    """A refused train touches nothing; one whose calibration fails leaves no calibrated
    model of an earlier run, and evaluate and export-rom then refuse, naming it."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    folder = tmp_path / "out"
    stale = [folder / "rom_calibrated.txt", folder / "convergence.csv"]
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert main(["--config", cfg, "--out", out, "train"]) == 0
    files = {path: path.read_bytes() for path in folder.iterdir() if path.is_file()}
    snapshot = folder / "snapshots" / "snapshots_R1.txt"
    os.replace(snapshot, tmp_path / "aside.txt")
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    assert {path: path.read_bytes() for path in folder.iterdir() if path.is_file()} == files
    os.replace(tmp_path / "aside.txt", snapshot)

    def fail(*args):
        raise NumericError("calibration diverged")

    monkeypatch.setattr(morcal.cli, "calibrate", fail)
    assert main(["--config", cfg, "--out", out, "train"]) == 4
    assert not any(path.exists() for path in stale)
    assert (folder / "rom_opinf.txt").exists()
    capsys.readouterr()
    refusal = f"error (data): missing {folder / 'rom_calibrated.txt'}; run 'train' first\n"
    for command in ("evaluate", "export-rom"):
        assert main(["--config", cfg, "--out", out, command]) == 3
        assert capsys.readouterr().err == refusal
    assert not (folder / "rom_compact.txt").exists()


def test_cli_refuses_a_deim_rank_above_the_source_rank(tmp_path, monkeypatch, capsys):
    """The tiny scenario's source snapshots have numerical rank 8, one per solid row."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    monkeypatch.setenv("MORCAL_DEIM_RANK", "8")
    capsys.readouterr()
    assert _train_regression_only(cfg, out) == 0
    rows = re.search(r"sample rows \[([0-9, ]+)\]", capsys.readouterr().out).group(1)
    solid_rows = load_pipeline_config(cfg).fom.solid_rows
    assert sorted(map(int, rows.split(","))) == solid_rows.tolist()  # at full rank, every one
    monkeypatch.setenv("MORCAL_DEIM_RANK", "9")
    capsys.readouterr()
    assert _train_regression_only(cfg, out) == 2
    assert ("error (config): deim_rank=9 exceeds the numerical rank 8 of the source "
            "snapshots") in capsys.readouterr().err
    monkeypatch.setenv("MORCAL_POD_RANK", "27")  # 26 training snapshots; refused before DEIM
    assert _train_regression_only(cfg, out) == 2
    assert capsys.readouterr().err == ("error (config): pod_rank=27 must satisfy "
                                       "1 <= pod_rank <= 26\n")


def test_cli_log_level_shows_the_package_log_once_and_changes_no_output(tmp_path, capsys):
    """--log-level INFO, before or after the command, adds log lines to stderr and nothing else."""
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    runs = []
    for argv in (["train"], ["train", "--log-level", "INFO"], ["--log-level", "INFO", "train"],
                 ["train"]):
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out)] + argv) == 0
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        runs.append((captured.out, captured.err, files))
    line = "INFO morcal.deim: deim interpolation block condition number: "
    assert runs[0][1] == runs[3][1] == ""
    for _, err, _ in runs[1:3]:
        assert err.count(line) == 1 and err.startswith(line)
        assert all(row.startswith("INFO morcal.") for row in err.splitlines())
    assert all(run[0] == runs[0][0] and run[2] == runs[0][2] for run in runs)


def _cli_env():
    """The environment of a ``python -m morcal.cli`` subprocess that imports this package."""
    src = str(Path(morcal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _closed_pipe_end():
    """The write end of a pipe whose read end is closed; the caller closes it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def test_cli_closed_stdout_costs_the_printed_lines_only(tmp_path):
    """``morcal train | head -1``: a reader that is gone loses lines, not outputs."""
    cfg = _write_tiny(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "generated"), "generate"]) == 0
    env = _cli_env()

    def train(out, stdout, unbuffered):
        shutil.copytree(tmp_path / "generated" / "snapshots", out / "snapshots")
        argv = [sys.executable] + ["-u"] * unbuffered + ["-m", "morcal.cli", "--config", cfg,
                                                           "--out", str(out), "train"]
        proc = subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
                              timeout=300)
        return proc.returncode, proc.stderr, {p.name: p.read_bytes() for p in out.iterdir()
                                              if p.is_file()}

    want = train(tmp_path / "open", subprocess.DEVNULL, False)
    assert want[:2] == (0, "") and "rom_calibrated.txt" in want[2]
    # Unbuffered, the first line fails; block-buffered, the flush of the first line does.
    for unbuffered in (True, False):
        write_end = _closed_pipe_end()
        try:
            got = train(tmp_path / f"closed{int(unbuffered)}", write_end, unbuffered)
        finally:
            os.close(write_end)
        assert got == want, unbuffered


def test_cli_closed_stderr_keeps_the_exit_code(tmp_path):
    """A refused command whose stderr reader is gone still exits with its documented code."""
    for unbuffered in (True, False):
        write_end = _closed_pipe_end()
        argv = [sys.executable] + ["-u"] * unbuffered + ["-m", "morcal.cli", "--out",
                                                       str(tmp_path / "empty"), "train"]
        try:
            proc = subprocess.run(argv, env=_cli_env(), stdout=subprocess.DEVNULL,
                                  stderr=write_end, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 3, unbuffered
    assert not (tmp_path / "empty").exists()


def test_cli_train_reads_the_numbers_generate_wrote_from_their_mirrors(tmp_path, caplog):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    texts = sorted((out / "snapshots").glob("snapshots_R*.txt"))
    assert sorted((out / "snapshots").iterdir()) == sorted(texts + [Path(f"{p}.bin") for p in texts])
    caplog.set_level(logging.DEBUG, logger="morcal.snapshots")
    assert _train_regression_only(cfg, str(out)) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "morcal.snapshots"] == [
        f"{out}/snapshots/snapshots_R{load}.txt: read from the mirror" for load in ("0.5", "1")]


def test_cli_non_finite_snapshot_value_is_a_data_error(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R0.5.txt"
    lines = path.read_text().splitlines()
    row = lines.index("data") + 3
    lines[row] = "nan " + lines[row].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and "non-finite" in err and f"line {row + 1}" in err


def test_cli_two_column_snapshot_controls_are_a_data_error(tmp_path, capsys):
    """A file from an older version, with (R, 0) control lines, must be regenerated."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R0.5.txt"
    lines = path.read_text().splitlines()
    first = lines.index("controls") + 1
    lines[first:] = [line + " 0" for line in lines[first:]]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and "found 2" in err and f"line {first + 1}:" in err


@pytest.mark.parametrize("section", ["H", "B"])
def test_cli_non_empty_input_operator_is_a_data_error(tmp_path, capsys, section):
    """The quadratic [H] and input [B] sections stay in the format but must be empty."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    path = tmp_path / "out" / "rom_opinf.txt"
    text = path.read_text()
    empty = f"[{section}]\nrows=0 cols=0 scale=1\n"
    assert text.count(empty) == 1
    path.write_text(text.replace(empty, f"[{section}]\nrows=4 cols=1 scale=1\n" + "0\n" * 4))
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and f"[{section}]" in err


def test_cli_model_without_sampled_source_is_a_data_error(tmp_path, capsys):
    """Every model carries its sampled source; empty [P1]/[P2] sections are refused."""
    cfg, out = _trained_tiny(tmp_path)
    model = tmp_path / "out" / "rom_calibrated.txt"
    text, count = re.subn(r"\[P1\]\n.*?(?=\[deim\]\n)",
                          "[P1]\nrows=0 cols=0 scale=1\n[P2]\nrows=0 cols=0 scale=1\n",
                          model.read_text(), flags=re.S)
    assert count == 1
    model.write_text(text)
    capsys.readouterr()
    for command in ("evaluate", "export-rom"):
        assert main(["--config", cfg, "--out", out, command]) == 3
        assert (f"error (data): {model}: a model needs its sampled source; [P1] and [P2] "
                "must not be empty") in capsys.readouterr().err


def _keep_one_snapshot(path):
    """Rewrite a one-trajectory snapshot file to hold its first snapshot only."""
    lines = path.read_text().splitlines()
    lines[1:4] = ["m=1", "l=1", "offsets=0,1"]
    kept = []
    for marker in ("data", "derivatives", "controls"):
        start = lines.index(marker)
        kept += lines[start:start + 2]
    path.write_text("\n".join(lines[:lines.index("data")] + kept) + "\n")
    assert load_snapshots(path).m == 1


def test_cli_one_snapshot_training_files_are_a_data_error(tmp_path, capsys):
    """A trajectory of one snapshot has no time step to train a model with."""
    # Ranks small enough for the two columns left, so that nothing else refuses the data.
    cfg = str(tmp_path / "one.cfg")
    Path(cfg).write_text(TINY_SCENARIO.replace("_rank = 4", "_rank = 2"))
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    for load in ("0.5", "1"):
        _keep_one_snapshot(tmp_path / "out" / "snapshots" / f"snapshots_R{load}.txt")
    capsys.readouterr()
    assert _train_regression_only(cfg, out) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and "spacing" in err


@pytest.mark.parametrize(
    "load, regenerate_with, message",
    [
        ("1", ("MORCAL_SAVE_EVERY", "10"),
         "{R1} and {R0_5}: all trajectories must share one snapshot spacing"),
        ("0.5", ("MORCAL_SAVE_EVERY", "10"),
         "{R1} and {R0_5}: all trajectories must share one snapshot spacing"),
        ("1", ("MORCAL_GRID_POINTS", "17"),
         "{R1}: the file has n=34 states, the configured grid has n=32"),
        ("1", None, "{R1}: a training trajectory of one snapshot has no snapshot spacing to step by"),
    ],
    ids=["other-spacing", "odd-file-first", "other-field-layout", "one-snapshot"],
)
def test_cli_train_refusals_name_the_training_file(tmp_path, monkeypatch, capsys,
                                                   load, regenerate_with, message):
    """A training file unlike the others is named in the refusal, and no model is written.
    The file is either replaced by its case generated with one more setting, or cut
    to its first snapshot.  With two files either may be the odd one, so a refusal
    that compares them names both."""
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    path = out / "snapshots" / f"snapshots_R{load}.txt"
    if regenerate_with is None:
        _keep_one_snapshot(path)
    else:
        monkeypatch.setenv(*regenerate_with)
        assert main(["--config", cfg, "--out", str(tmp_path / "other"), "generate"]) == 0
        monkeypatch.delenv(regenerate_with[0])
        for name in (path.name, path.name + ".bin"):
            shutil.copyfile(tmp_path / "other" / "snapshots" / name, path.parent / name)
    capsys.readouterr()
    assert main(["--config", cfg, "--out", str(out), "train"]) == 3
    names = {"R0_5": out / "snapshots" / "snapshots_R0.5.txt",
             "R1": out / "snapshots" / "snapshots_R1.txt"}
    assert capsys.readouterr().err == f"error (data): {message.format_map(names)}\n"
    assert not list(out.glob("rom_*.txt"))


def test_cli_evaluate_names_a_case_file_of_another_grid(tmp_path, monkeypatch, capsys):
    cfg, out = _trained_tiny(tmp_path)
    monkeypatch.setenv("MORCAL_GRID_POINTS", "17")
    assert main(["--config", cfg, "--out", str(tmp_path / "other"), "generate"]) == 0
    monkeypatch.delenv("MORCAL_GRID_POINTS")
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.5.txt"
    for name in (path.name, path.name + ".bin"):
        shutil.copyfile(tmp_path / "other" / "snapshots" / name, path.parent / name)
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    assert capsys.readouterr().err == (f"error (data): {path}: the file has n=34 states, the "
                                       "configured grid has n=32\n")
    assert not list((tmp_path / "out").glob("errors_*.csv"))


def test_cli_evaluate_refuses_a_two_trajectory_snapshot_file(tmp_path, capsys):
    """A case file holds one trajectory; scoring only the first of two would hide the second."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.5.txt"
    single = load_snapshots(path)
    save_snapshots(concat_snapshot_sets([single, single]), path)
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and str(path) in err and "found 2" in err


def test_cli_scaling_and_basis_row_mismatch_is_a_data_error(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    # The fields cover 16 rows; the basis keeps its 32.
    model = tmp_path / "out" / "rom_calibrated.txt"
    _edit_line(model, "fields", "T_c:0:8,T_s:8:16")
    capsys.readouterr()
    for command in ("evaluate", "export-rom"):
        assert main(["--config", cfg, "--out", out, command]) == 3
        err = capsys.readouterr().err
        assert "error (data)" in err and "scaling covers 16 rows, the basis has 32" in err
        assert f"{model}: " in err


def test_cli_snapshot_offsets_error_names_the_snapshot_file(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.5.txt"
    _edit_line(path, "offsets", f"0,{load_snapshots(path).m - 1}")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert f"error (data): {path}: trajectory offsets must increase from 0" in err


def test_cli_snapshot_fields_error_names_the_snapshot_file(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R0.5.txt"
    _edit_line(path, "fields", "T_c:0:16,T_s:16:31")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    err = capsys.readouterr().err
    assert f"error (data): {path}: field ranges cover 31 rows, state has 32" in err


def test_cli_model_value_errors_name_the_model_file(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    model = tmp_path / "out" / "rom_opinf.txt"
    _edit_line(model, "scale", "0 1")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and f"{model}: scales must be strictly positive" in err


def test_cli_maps_linear_algebra_failures_to_numeric_exit(monkeypatch, capsys):
    import morcal.cli

    def fail():
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(morcal.cli, "cmd_fixture_check", fail)
    assert main(["fixture-check"]) == 4
    assert "error (numeric)" in capsys.readouterr().err


def test_cli_fixture_check(capsys):
    assert main(["fixture-check"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_cli_rejects_unstable_dt(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_SCENARIO.replace("dt = 0.5", "dt = 1e9"))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "generate"]) == 4
    assert "error (numeric)" in capsys.readouterr().err


def test_cli_export_rom_names_a_missing_source(tmp_path, capsys):
    path = tmp_path / "absent" / "model.txt"
    assert main(["--out", str(tmp_path / "out"), "export-rom", str(path)]) == 3
    assert capsys.readouterr().err == f"error (data): missing model file {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "header", ["rows8 cols=8 scale=0.001", "cols=8 rows=8 scale=0.001", "rows=8 colz=8 scale=0.001"]
)
def test_cli_export_rom_rejects_a_malformed_matrix_header(tmp_path, capsys, header):
    bundled = resources.files("morcal").joinpath("data/reference_rom.txt")
    text = bundled.read_text()
    good = "[A]\nrows=8 cols=8 scale=0.001\n"
    assert text.count(good) == 1
    path = tmp_path / "rom.txt"
    path.write_text(text.replace(good, f"[A]\n{header}\n"))
    row = text.splitlines().index("[A]") + 2
    assert main(["--out", str(tmp_path / "out"), "export-rom", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and f"line {row}:" in err and repr(header) in err


def _edit_line(path, key, value):
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
    lines[row] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    return row


def test_cli_malformed_fields_token_is_a_data_error(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R0.5.txt"
    row = _edit_line(path, "fields", "T_c:0:1x6,T_s:16:32")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "train"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and "'1x6'" in err and f"line {row + 1}" in err


def test_cli_non_finite_rom_shift_is_a_data_error(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    row = _edit_line(tmp_path / "out" / "rom_opinf.txt", "shift", "nan 500")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert "error (data)" in err and "non-finite" in err and f"line {row + 1}" in err


def test_cli_generate_refuses_a_horizon_shorter_than_one_saved_step(tmp_path, capsys,
                                                                     monkeypatch):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("MORCAL_T_END", "9.5")  # save_every * dt is 10 s
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 2
    err = capsys.readouterr().err
    assert "error (config)" in err and "t_end=9.5" in err and "save_every=20" in err
    assert "dt=0.5" in err
    assert not list(out.rglob("snapshots_*"))


def test_cli_generate_writes_nothing_when_one_load_fails(tmp_path, capsys):
    # exp(1500 / T0) is just below overflow, so only the 1e12 load overflows.
    scenario = (
        TINY_SCENARIO.replace("rho_cp_solid = 2.0e6", "rho_cp_solid = 1.0")
        .replace("arrhenius_prefactor = 3.0e4", "arrhenius_prefactor = 1.0")
        .replace("validation_loads = 1.5", "validation_loads = 1e12")
    )
    scenario += (
        "conductivity_solid = 1e-9\nexchange_coefficient = 0.0\n"
        f"initial_temperature = {1500.0 / 690.0!r}\ninflow_temperature = {1500.0 / 690.0!r}\n"
    )
    path = tmp_path / "blowup.cfg"
    path.write_text(scenario)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "generate"]) == 4
    err = capsys.readouterr().err
    assert "error (numeric)" in err and "step 1 " in err and "heat load(s) 2 (R=1e+12)" in err
    assert not out.exists()


def test_cli_generate_refuses_a_step_count_that_cannot_be_allocated(tmp_path, capsys,
                                                                     monkeypatch):
    """1 s at dt=1e-300 is 1e300 steps; the refusal comes before any array is allocated."""
    monkeypatch.setenv("MORCAL_DT", "1e-300")
    monkeypatch.setenv("MORCAL_T_END", "1")
    out = tmp_path / "out"
    assert main(["--out", str(out), "generate"]) == 2
    err = capsys.readouterr().err
    assert ("error (config): t_end=1 s / dt=1e-300 s is 1e+300 steps, "
            "more than can be allocated") in err
    assert not list(out.rglob("snapshots_*"))


def test_cli_train_on_derivative_free_files_writes_the_same_models(tmp_path):
    """train computes the right-hand side from the states, so training files without
    the derivative section give the models that generate's files give, byte for byte."""
    cfg = _write_tiny(tmp_path)
    out, bare = tmp_path / "out", tmp_path / "bare"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    (bare / "snapshots").mkdir(parents=True)
    for load in ("0.5", "1"):
        name = f"snapshots/snapshots_R{load}.txt"
        save_snapshots(load_snapshots(out / name), bare / name)
        assert "has_derivatives=0" in (bare / name).read_text()
    for folder in (out, bare):
        assert main(["--config", cfg, "--out", str(folder), "train"]) == 0
    for name in ("rom_opinf.txt", "rom_calibrated.txt", "convergence.csv"):
        assert (bare / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("value", ["-1e308", "1e-320"])
def test_cli_train_names_a_file_whose_solid_temperature_it_cannot_use(tmp_path, value):
    """A solid temperature at which the source is undefined or overflows is a data error
    naming the training file, raised before the POD: no warning, no LAPACK line."""
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "generate"]) == 0
    path = out / "snapshots" / "snapshots_R1.txt"
    lines = path.read_text().splitlines()
    row = lines.index("data") + 2
    tokens = lines[row].split(" ")
    tokens[load_pipeline_config(cfg).fom.solid_rows[0]] = value
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    proc = subprocess.run([sys.executable, "-m", "morcal.cli", "--config", cfg, "--out",
                           str(out), "train"], env=_cli_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error (data): {path}: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not list(out.glob("rom_*.txt"))


def _trained_tiny(tmp_path):
    """The tiny scenario, generated and trained at ``max_iterations = 0``; returns the
    config path and output folder."""
    cfg = _write_tiny(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "generate"]) == 0
    assert _train_regression_only(cfg, out) == 0
    return cfg, out


def test_cli_evaluate_counts_the_derivative_lines(tmp_path, capsys):
    cfg, out = _trained_tiny(tmp_path)
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.5.txt"
    lines = path.read_text().splitlines()
    del lines[lines.index("derivatives") + 1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert f"error (data): {path}, line " in err and "'controls'" in err


def test_cli_evaluate_checks_the_derivatives_marker(tmp_path, capsys):
    cfg, out = _trained_tiny(tmp_path)
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.5.txt"
    lines = path.read_text().splitlines()
    row = lines.index("derivatives")
    lines[row] = "derivative"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert f"error (data): {path}, line {row + 1}: expected 'derivatives' section" in err


def test_cli_no_command_parses_the_derivative_numbers(tmp_path, capsys):
    """No command uses the derivative section's numbers: a malformed one changes no
    output of train or evaluate.  Its marker and line count are still checked."""
    cfg, out = _trained_tiny(tmp_path)
    folder = tmp_path / "out"

    def outputs():
        assert _train_regression_only(cfg, out) == 0
        assert main(["--config", cfg, "--out", out, "evaluate"]) == 0
        return {p.name: p.read_bytes() for p in folder.iterdir() if p.is_file()}

    want = outputs()
    path = folder / "snapshots" / "snapshots_R0.5.txt"
    lines = path.read_text().splitlines()
    row = lines.index("derivatives") + 2
    bad = list(lines)
    bad[row] = "x " + bad[row].split(" ", 1)[1]
    path.write_text("\n".join(bad) + "\n")
    assert outputs() == want

    marker = lines.index("derivatives")
    short = lines[:marker + 1] + lines[marker + 2:]  # one derivative row fewer
    refusals = [(lines[:marker] + ["derivative"] + lines[marker + 1:],
                 f"line {marker + 1}: expected 'derivatives' section"),
                (short, f"line {short.index('controls') + 2}: expected 'controls' section")]
    for edited, message in refusals:
        path.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert _train_regression_only(cfg, out) == 3
        assert capsys.readouterr().err == f"error (data): {path}, {message}\n"


def test_cli_evaluate_names_the_model_file_without_basis(tmp_path, capsys):
    """A compact export next to a full model is named before any case is scored."""
    cfg, out = _trained_tiny(tmp_path)
    assert main(["--config", cfg, "--out", out, "export-rom"]) == 0
    folder = tmp_path / "out"
    os.replace(folder / "rom_opinf.txt", folder / "rom_calibrated.txt")
    os.replace(folder / "rom_compact.txt", folder / "rom_opinf.txt")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    assert (f"error (data): {folder / 'rom_opinf.txt'}: error evaluation needs a model with "
            "basis and scaling") in capsys.readouterr().err
    assert not list(folder.glob("errors_*.csv"))


@pytest.mark.parametrize("name", ["rom_opinf.txt", "rom_calibrated.txt"])
def test_cli_evaluate_refuses_a_missing_model_naming_it(tmp_path, capsys, name):
    cfg, out = _trained_tiny(tmp_path)
    folder = tmp_path / "out"
    (folder / name).unlink()
    files = sorted(folder.iterdir())
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    assert capsys.readouterr().err == f"error (data): missing {folder / name}; run 'train' first\n"
    assert sorted(folder.iterdir()) == files


def test_cli_evaluate_names_a_model_trained_on_another_grid(tmp_path, monkeypatch, capsys):
    cfg, out = _trained_tiny(tmp_path)
    monkeypatch.setenv("MORCAL_GRID_POINTS", "12")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 3
    model = tmp_path / "out" / "rom_opinf.txt"
    assert (f"error (data): {model}: the model has n=32 states, the configured grid "
            "has n=24") in capsys.readouterr().err


def test_cli_evaluate_names_the_model_file_whose_rollout_diverges(tmp_path, capsys):
    cfg, out = _trained_tiny(tmp_path)
    folder = tmp_path / "out"
    model = load_rom(folder / "rom_opinf.txt")
    model.operators.a += 0.5
    save_rom(model, folder / "rom_calibrated.txt")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "evaluate"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error (numeric): {folder / 'rom_calibrated.txt'}: ")
    assert "at rollout step " in err
    assert not [name for name in os.listdir(folder)
                if name.startswith(("errors_", "stats_")) or name == "summary.csv"]


def _spoil_one_byte(path):
    """Start the middle line of ``path`` with a byte that no UTF-8 text holds."""
    lines = path.read_bytes().split(b"\n")
    lines[len(lines) // 2] = b"\xff" + lines[len(lines) // 2]
    path.write_bytes(b"\n".join(lines))


def _out_is_a_file(tmp_path, monkeypatch):
    (tmp_path / "afile").write_text("")
    return ["--out", str(tmp_path / "afile"), "generate"], f"Not a directory: '{tmp_path}/afile/"


def _snapshot_path_is_a_folder(tmp_path, monkeypatch):
    path = tmp_path / "out" / "snapshots" / "snapshots_R0.5.txt"
    path.mkdir(parents=True)
    return ["--out", str(tmp_path / "out"), "train"], f"Is a directory: '{path}'"


def _export_a_folder(tmp_path, monkeypatch):
    return ["--out", str(tmp_path / "out"), "export-rom", str(tmp_path)], f"'{tmp_path}'"


def _undecodable_snapshot_file(tmp_path, monkeypatch):
    assert main(["--config", _write_tiny(tmp_path), "--out", str(tmp_path / "out"),
                 "generate"]) == 0
    path = tmp_path / "out" / "snapshots" / "snapshots_R1.txt"
    _spoil_one_byte(path)
    return ["--out", str(tmp_path / "out"), "train"], f"{path}: cannot decode the file as "


def _undecodable_model_file(tmp_path, monkeypatch):
    _, out = _trained_tiny(tmp_path)
    path = tmp_path / "out" / "rom_opinf.txt"
    _spoil_one_byte(path)
    return ["--out", out, "evaluate"], f"{path}: cannot decode the file as "


def _undecodable_config_file(tmp_path, monkeypatch):
    path = Path(_write_tiny(tmp_path))
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    return ["--out", str(tmp_path / "out"), "generate"], f"cannot read config file {path}: "


def _grid_points(value):
    def prepare(tmp_path, monkeypatch):
        monkeypatch.setenv("MORCAL_GRID_POINTS", value)
        return (["--out", str(tmp_path / "out"), "generate"],
                f"grid_points={value} is more than can be allocated")
    return prepare


@pytest.mark.parametrize(
    "prepare, code",
    [
        (_out_is_a_file, 3),
        (_snapshot_path_is_a_folder, 3),
        (_export_a_folder, 3),
        (_undecodable_snapshot_file, 3),
        (_undecodable_model_file, 3),
        (_undecodable_config_file, 2),
        # NumPy refuses both sizes before it allocates: one exceeds its size
        # limit, the other wraps its arange to an empty array.
        (_grid_points("100000000000000000000"), 2),
        (_grid_points(str(2 ** 63)), 2),
    ],
    ids=["out-is-a-file", "snapshot-path-is-a-folder", "export-a-folder",
         "undecodable-snapshot-file", "undecodable-model-file", "undecodable-config-file",
         "grid-beyond-numpy-size-limit", "grid-beyond-int64"],
)
def test_cli_boundary_inputs_end_in_one_error_line(tmp_path, monkeypatch, capsys, prepare, code):
    """Unreadable paths, undecodable files and unallocatable grids end in an exit code."""
    cfg = _write_tiny(tmp_path)
    args, fragment = prepare(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(["--config", cfg, *args]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    kind = {2: "config", 3: "data"}[code]
    assert len(lines) == 1 and lines[0].startswith(f"error ({kind}): "), err
    assert fragment in lines[0]
