"""Command-line pipeline: generate, train, evaluate, export-rom, fixture-check.

All commands are deterministic given the configuration: re-running a
command on unchanged inputs reproduces its output files byte for byte, for
a fixed BLAS library, CPU and BLAS thread count (the QR of the POD rounds
differently with another thread count).
"""

import argparse
import contextlib
import logging
import os
import sys

import numpy as np

from morcal import deim as deim_mod
from morcal import pod as pod_mod
from morcal import rom as rom_mod
from morcal import snapshots as snap_mod
from morcal.calibrate import build_calibration_problem, calibrate
from morcal.config import PipelineConfig, load_pipeline_config
from morcal.errors import ConfigError, DataError, MorcalError, NumericError
from morcal.fom import fom_integrate, fom_rhs
from morcal.opinf import assemble_regression, solve_opinf
from morcal.textio import FLOAT_FMT, fmt_float, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Reduced-duration heating scenario for the published-matrix fixture: the
# heat load is held constant and then switched off partway through, mirroring
# the reference schedule at desk scale.  The step count and size were chosen
# so the rollout stays inside the trusted temperature range.
FIXTURE_STEPS_ON = 60
FIXTURE_STEPS_OFF = 30


def _say(line: str, err: bool = False) -> None:
    """Print one line to stdout (stderr if ``err``) at once.

    A reader that went away (``morcal train | head -1``) costs the lines
    still to come, not the command: the stream is pointed at the null
    device, as the Python documentation's note on SIGPIPE does, and the
    command goes on to write its outputs and exits with its usual code.
    Each line is flushed, so no text is left buffered to fail when the
    process exits.
    """
    stream = sys.stderr if err else sys.stdout
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _write_snapshot_file(task) -> int:
    """Worker task of ``generate``: write one case's snapshot file, return its size m.

    The file's derivative section holds the exact right-hand side at the
    saved states, computed here from the model ``fom``; no command reads it.
    """
    snapshots, fom, path = task
    rhs = fom_rhs(snapshots.data.T, snapshots.controls, fom).T
    # looked up in the worker: a wrapper need not pickle
    snap_mod.save_snapshots(snapshots, path, derivatives=rhs)
    return snapshots.m


def cmd_generate(cfg: PipelineConfig) -> int:
    """Run the full-order model for all cases at once and write one snapshot file per case.

    Worker processes of the platform's default start method write the files,
    at most one per case and per usable CPU.  Each case's line is printed in
    case order; a failed write is raised in its turn, cancelling those not begun.
    """
    # Imported here: the pool machinery costs ~1 MB in commands that never use it.
    from concurrent.futures import ProcessPoolExecutor

    sets = fom_integrate(cfg.fom, [case.signal for case in cfg.cases], cfg.save_every)
    for case in cfg.cases:
        os.makedirs(os.path.dirname(case.path), exist_ok=True)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    # Text still buffered here would be written again by every forked worker.
    sys.stdout.flush()
    sys.stderr.flush()
    tasks = [(snapshots, cfg.fom, case.path) for snapshots, case in zip(sets, cfg.cases)]
    with ProcessPoolExecutor(max_workers=min(len(cfg.cases), cpus)) as pool:
        for case, m in zip(cfg.cases, pool.map(_write_snapshot_file, tasks)):
            _say(f"generate: {case.name} -> {case.path} ({m} snapshots)")
    return EXIT_OK


def _case_snapshots(cases, n):
    """Yield each case with its snapshot set, refusing a case whose file is missing
    or holds another state size than the configured grid's ``n``."""
    for case in cases:
        if not os.path.exists(case.path):
            raise DataError(f"missing snapshot file {case.path}; run 'generate' first")
        snapshots = snap_mod.load_snapshots(case.path)
        if snapshots.n != n:
            raise DataError(f"{case.path}: the file has n={snapshots.n} states, the "
                            f"configured grid has n={n}")
        yield case, snapshots


def _load_training_set(cfg: PipelineConfig):
    """The training cases' snapshots, concatenated, and the exact right-hand side at
    their states, the regression target.

    The right-hand side is computed from ``cfg.fom`` one case at a time, so its
    temporaries are one file's size.  A state it cannot use, a non-positive solid
    temperature or one whose source overflows, is a data error naming the file.
    """
    cases = [case for case in cfg.cases if case.role == "training"]
    sets, rhs = [], []
    for case, snapshots in _case_snapshots(cases, cfg.fom.n):
        if np.diff(snapshots.trajectory_offsets).min() < 2:
            raise DataError(f"{case.path}: a training trajectory of one snapshot has no "
                            "snapshot spacing to step by")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rhs.append(fom_rhs(snapshots.data.T, snapshots.controls, cfg.fom).T)
            except NumericError as exc:
                raise DataError(f"{case.path}: {exc}") from None
        if not np.isfinite(rhs[-1]).all():
            raise DataError(f"{case.path}: the right-hand side at the snapshot states is "
                            "not finite")
        sets.append(snapshots)
    return snap_mod.concat_snapshot_sets(sets, names=[case.path for case in cases]), np.hstack(rhs)


def cmd_train(cfg: PipelineConfig) -> int:
    """Fit basis, sampling operators and reduced operators on training data, then calibrate
    them; at ``max_iterations = 0`` the calibrated model is the regression fit."""
    raw, rhs = _load_training_set(cfg)
    scaling = snap_mod.fit_scaling(raw)
    states = snap_mod.apply_scaling(raw, scaling)
    basis = pod_mod.compute_pod(states, cfg.pod_rank, scaling=scaling)
    _say(f"train: pod basis r={cfg.pod_rank} "
         f"(spectrum head {fmt_float(basis.singular_values[0])})")

    source = deim_mod.nonlinearity_snapshots(raw, cfg.fom)
    u_n, source_spectrum = deim_mod.nonlinearity_basis(source, cfg.deim_rank)
    points = deim_mod.deim_points(u_n)
    deim_ops = deim_mod.build_deim_operators(basis, u_n, points, cfg.fom)
    _say(f"train: deim rank s={cfg.deim_rank}, sample rows {list(map(int, deim_ops.indices))}")

    reduced_states = pod_mod.project(basis, states)
    reduced_derivs = pod_mod.project(basis, scaling.scale_derivative_array(rhs))
    design, target = assemble_regression(reduced_states, reduced_derivs, raw.controls, deim_ops)
    operators = solve_opinf(design, target, cfg.tikhonov_lambda)
    oi_model = rom_mod.RomModel(operators=operators, deim=deim_ops, basis=basis, dt=raw.dt)
    oi_path = os.path.join(cfg.output_dir, "rom_opinf.txt")
    os.makedirs(cfg.output_dir, exist_ok=True)
    rom_mod.save_rom(oi_model, oi_path)
    for stale in ("rom_calibrated.txt", "convergence.csv"):  # an earlier run's calibration
        if os.path.exists(path := os.path.join(cfg.output_dir, stale)):
            os.remove(path)
    _say(f"train: inferred operators -> {oi_path}")

    for name, values in (("pod_spectrum.csv", basis.singular_values),
                         ("deim_spectrum.csv", source_spectrum)):
        write_csv(os.path.join(cfg.output_dir, name), ["index", "singular_value"],
                  ["%d", FLOAT_FMT], enumerate(values.tolist()))
    pod_mod.save_basis(basis, os.path.join(cfg.output_dir, "pod_basis.txt"))

    problem = build_calibration_problem(raw, reduced_states, deim_ops)
    calibrated, report = calibrate(operators, problem, cfg.optimizer)
    cal_model = rom_mod.RomModel(operators=calibrated, deim=deim_ops, basis=basis, dt=raw.dt)
    cal_path = os.path.join(cfg.output_dir, "rom_calibrated.txt")
    rom_mod.save_rom(cal_model, cal_path)
    report.write_csv(os.path.join(cfg.output_dir, "convergence.csv"))
    _say(
        f"train: calibration {report.status} after {report.iterations} iterations, "
        f"objective {fmt_float(report.objective_history[0])} -> "
        f"{fmt_float(report.objective_history[-1])}"
    )
    _say(f"train: calibrated operators -> {cal_path}")
    return EXIT_OK


def _write_case_csvs(output_dir, case_name, snapshots, reports, calibrated, solid_rows):
    """Write one case's error and statistics CSVs; the statistics show the rollout of
    the ``calibrated`` model."""
    names = sorted(reports)
    base = reports[names[0]]
    steps = np.arange(len(base.times))
    table = np.column_stack([steps, base.times, base.switch_off]
                            + [reports[n].step_errors for n in names])
    write_csv(os.path.join(output_dir, f"errors_{case_name}.csv"),
              ["step", "time", "switch_off"] + [f"rel_mse_{n}" for n in names],
              ["%d", FLOAT_FMT, "%d"] + [FLOAT_FMT] * len(names), table.tolist())

    rom_stats = rom_mod.field_statistics(calibrated, reports["calibrated"].rollout, solid_rows)
    fom_stats = rom_mod.state_statistics(snapshots.data, snapshots.fields, solid_rows)
    fields = [name for name, _, _ in snapshots.fields]
    header = ["step", "time"] + [f"{kind}_{name}_{agg}" for name in fields
                                 for kind in ("fom", "rom") for agg in ("min", "mean", "max")]
    table = np.hstack([steps[:, None], base.times[:, None]]
                      + [stats[name] for name in fields for stats in (fom_stats, rom_stats)])
    write_csv(os.path.join(output_dir, f"stats_{case_name}.csv"), header,
              ["%d"] + [FLOAT_FMT] * (table.shape[1] - 1), table.tolist())


def cmd_evaluate(cfg: PipelineConfig) -> int:
    """Roll out both trained models against every case and write error CSVs.

    A missing model is refused, and every case is scored, before any file is
    written, so a refused command changes no file.  Only the states and
    heat loads are read; a parsed text's derivative section is checked for
    its marker and line count only.
    """
    paths = {name: os.path.join(cfg.output_dir, f"rom_{name}.txt")
             for name in ("opinf", "calibrated")}
    models = {}
    for name, path in paths.items():
        if not os.path.exists(path):
            raise DataError(f"missing {path}; run 'train' first")
        model = models[name] = rom_mod.load_rom(path)
        if model.basis is None:
            raise DataError(f"{path}: error evaluation needs a model with basis and scaling")
        if model.basis.n != cfg.fom.n:
            raise DataError(f"{path}: the model has n={model.basis.n} states, the "
                            f"configured grid has n={cfg.fom.n}")

    sets = [snapshots for _, snapshots in _case_snapshots(cfg.cases, cfg.fom.n)]
    reports = {}
    for name, model in models.items():
        try:
            reports[name] = rom_mod.rom_vs_projected_error(
                model, sets, names=[case.path for case in cfg.cases])
        except NumericError as exc:
            raise NumericError(f"{paths[name]}: {exc}") from None

    summary_rows = []
    for i, (case, snapshots) in enumerate(zip(cfg.cases, sets)):
        case_reports = {name: model_reports[i] for name, model_reports in reports.items()}
        summary_rows += [(case.name, name, report.mean_error, report.mean_error_all)
                         for name, report in case_reports.items()]
        _write_case_csvs(cfg.output_dir, case.name, snapshots, case_reports,
                         models["calibrated"], cfg.fom.solid_rows)
        shown = ", ".join(f"{name} {case_reports[name].mean_error:.3e}" for name in sorted(models))
        _say(f"evaluate: {case.name} mean rel mse (outside switch-off window): {shown}")

    overall = {}
    for name, model_reports in reports.items():
        excl = float(np.mean([report.mean_error for report in model_reports]))
        full = float(np.mean([report.mean_error_all for report in model_reports]))
        overall[name] = (excl, full)
        summary_rows.append(("overall", name, excl, full))
    ratio_excl = overall["calibrated"][0] / overall["opinf"][0]
    ratio_full = overall["calibrated"][1] / overall["opinf"][1]
    summary_rows.append(("ratio", "calibrated_over_opinf", ratio_excl, ratio_full))
    _say(f"evaluate: calibrated/opinf mean error ratio {ratio_excl:.4f} "
         f"(switch-off window excluded)")
    summary_path = os.path.join(cfg.output_dir, "summary.csv")
    write_csv(summary_path, ["case", "model", "mean_rel_mse_excl_switch_off", "mean_rel_mse_all"],
              ["%s", "%s", FLOAT_FMT, FLOAT_FMT], summary_rows)
    _say(f"evaluate: summary -> {summary_path}")
    return EXIT_OK


def cmd_export_rom(cfg: PipelineConfig, source: str | None = None) -> int:
    """Write a compact operator file (no basis) of ``source`` (default: the calibrated model)."""
    if source is None:
        source = os.path.join(cfg.output_dir, "rom_calibrated.txt")
        if not os.path.exists(source):
            raise DataError(f"missing {source}; run 'train' first")
    elif not os.path.exists(source):
        raise DataError(f"missing model file {source}")
    model = rom_mod.load_rom(source)
    out_path = os.path.join(cfg.output_dir, "rom_compact.txt")
    os.makedirs(cfg.output_dir, exist_ok=True)
    rom_mod.save_rom(model, out_path, include_basis=False)
    _say(f"export-rom: {source} -> {out_path}")
    return EXIT_OK


def cmd_fixture_check() -> int:
    """Validate the bundled published-matrix fixture and simulate it."""
    model = rom_mod.load_reference_fixture()
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        _say(f"fixture-check: {name}: {'ok' if ok else 'FAILED'}")

    ops = model.operators
    deim_ops = model.deim
    check("operator shapes 8x8 / 8x8 / 8x8",
          ops.a.shape == (8, 8)
          and deim_ops.p1.shape == (8, 8)
          and deim_ops.p2.shape == (8, 8))
    check("P1[1,1] = -0.840 (scale factor 10)", abs(deim_ops.p1[0, 0] - (-0.840)) < 1e-12)
    check("P1[2,3] = 29.940 (scale factor 10)", abs(deim_ops.p1[1, 2] - 29.940) < 1e-12)
    check("P2[1,1] = -0.00588 (scale factor 0.1)", abs(deim_ops.p2[0, 0] - (-0.00588)) < 1e-12)
    check("A[1,1] = -3.3e-6 (scale factor 0.001)", abs(ops.a[0, 0] - (-3.3e-6)) < 1e-15)

    # Start from reduced coordinates whose sampled temperatures equal the
    # reference initial temperature, then heat and switch off.
    s0 = np.linalg.solve(deim_ops.p2, np.full(8, 533.15))
    k = FIXTURE_STEPS_ON + FIXTURE_STEPS_OFF
    controls = np.zeros(k)
    controls[:FIXTURE_STEPS_ON] = 1.0
    try:
        rolled = rom_mod.simulate_rom(model, s0, controls, k)
        finite = bool(np.all(np.isfinite(rolled)))
    except NumericError as exc:
        _say(f"fixture-check: simulation aborted: {exc}")
        finite = False
    check(f"bounded simulation over {k} steps (heating then switch-off)", finite)

    if not all(ok for _, ok in checks):
        raise DataError("fixture check failed")
    _say("fixture-check: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    logging_options = argparse.ArgumentParser(add_help=False)  # before or after the command
    logging_options.add_argument(
        "--log-level", choices=("WARNING", "INFO", "DEBUG"), default=argparse.SUPPRESS,
        help="show the package's log records at this level and above on stderr "
             "(default WARNING)",
    )
    parser = argparse.ArgumentParser(
        prog="morcal",
        description="Reduced-order modeling pipeline for the 1D reactor testbed",
        parents=[logging_options],
    )
    parser.add_argument("--config", default=None, help="path to a key=value config file")
    parser.add_argument("--out", default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)
    common = {"parents": [logging_options]}
    sub.add_parser("generate", help="run the full-order model and write snapshots", **common)
    sub.add_parser("train", help="fit basis, sampling operators, and reduced operators",
                   **common)
    sub.add_parser("evaluate", help="compare stored models against snapshot data", **common)
    export = sub.add_parser("export-rom", help="write a compact operator file", **common)
    export.add_argument("source", nargs="?", default=None, help="model file to export")
    sub.add_parser("fixture-check", help="validate the bundled published-matrix fixture",
                   **common)
    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Show the package's log records at ``level`` and above on stderr for one command.

    At WARNING, the default, no handler is installed: warnings reach stderr
    through Python's last-resort handler, as they always have.
    """
    if level == "WARNING":
        yield
        return
    logger = logging.getLogger("morcal")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(getattr(args, "log_level", "WARNING")):
        return _run(args)


def _run(args) -> int:
    try:
        if args.command == "fixture-check":
            return cmd_fixture_check()
        cfg = load_pipeline_config(args.config, output_override=args.out)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "export-rom":
            return cmd_export_rom(cfg, source=args.source)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        _say(f"error (config): {exc}", err=True)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:  # an OSError's message names its path
        _say(f"error (data): {exc}", err=True)
        return EXIT_DATA
    except NumericError as exc:
        _say(f"error (numeric): {exc}", err=True)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as exc:
        _say(f"error (numeric): linear algebra failure: {exc}", err=True)
        return EXIT_NUMERIC
    except MorcalError as exc:
        _say(f"error: {exc}", err=True)
        return EXIT_DATA


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
