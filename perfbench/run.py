"""Benchmark of the morcal pipeline, run through its command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each morcal command runs as its own process, one at a time, the way a user
runs it (closed loop, one client).  Inputs are set only through documented
``MORCAL_<KEY>`` environment overrides, drawn from ``--seed``.  A run:

1. repeats rounds for about ``--seconds`` seconds and at least twice;
   each round sets up the workload's inputs (``morcal generate``) and then
   runs the timed pass of commands on them;
2. reports the median set-up time (``setup_s``) and pass times;
3. checks the outputs (exit codes, byte-identical repeats, snapshot counts
   and finiteness, and each workload's calibration properties).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the set-up runs once, traced, and the pass runs once
untraced and once with every layer traced in-process (``traced_cli.py``).
The two passes must write the same bytes, and the last line holds the
per-layer metrics of the traced set-up and pass.  The line before
it records the environment, inputs, commands and checks.  The program is
taken from ``src/`` next to this directory; without it the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_ROUNDS = 2  # repeats must exist to check that outputs are byte-identical
BLAS_THREADS = 1  # working sets fit in cache; one thread is the steadiest


class Run:
    """Runs morcal commands for one workload and records times and checks."""

    def __init__(self, workload, work_dir, deadline):
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.commands = []
        self.checks = []
        env = {k: v for k, v in os.environ.items() if not k.startswith("MORCAL_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env.update(workload.env)
        self.env = env

    def morcal(self, command, out_dir, traced=False, extra_env=None):
        """Run one morcal command into ``out_dir``; return its record."""
        args = ["--out", str(out_dir), command]
        if traced:
            spans = out_dir.parent / f"{out_dir.name}.{command}.spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + args
        else:
            spans = None
            argv = [sys.executable, "-m", "morcal.cli"] + args
        log = out_dir.parent / f"{out_dir.name}.{command}.log"
        env = dict(self.env, **(extra_env or {}))
        remaining = self.deadline - time.perf_counter()
        record = {"command": command, "out": out_dir.name, "traced": traced}
        if remaining <= 0:
            record.update(code=None, error="run time limit reached before start")
            return self._finish(record, log)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=self.work_dir, stdout=fh,
                                    stderr=subprocess.STDOUT)
            killed = threading.Event()
            timer = threading.Timer(remaining, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record.update(code=proc.returncode, seconds=seconds,
                      rss_mb=usage.ru_maxrss / 1024.0)
        if killed.is_set():
            record["error"] = "killed at the run time limit"
        if spans is not None and proc.returncode == 0:
            with open(spans) as fh:
                record["trace"] = json.load(fh)
        return self._finish(record, log)

    def _finish(self, record, log):
        self.commands.append(record)
        if record.get("code") != 0:
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            print(f"morcal {record['command']} failed (exit {record.get('code')}, "
                  f"{record.get('error', '')}) with inputs {self.workload.env}:\n{tail}",
                  file=sys.stderr)
        return record

    def sequence(self, commands, out_dir, traced=False, extra_env=None):
        """Run commands in order into ``out_dir``; None if one fails."""
        out_dir.mkdir(parents=True, exist_ok=True)
        total = 0.0
        for command in commands:
            record = self.morcal(command, out_dir, traced, extra_env)
            if record.get("code") != 0:
                return None
            total += record["seconds"]
        return total

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def times(self, command):
        return [c["seconds"] for c in self.commands
                if c["command"] == command and c.get("code") == 0 and not c["traced"]]


def tree_digest(path):
    """Relative path -> SHA-256 of every file under ``path``."""
    out = {}
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        out[str(file.relative_to(path))] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


def check_same_outputs(run, name, dirs):
    first, *others = [tree_digest(d) for d in dirs]
    differing = sorted({k for d in others for k in set(d) | set(first) if d.get(k) != first.get(k)})
    run.check(name, bool(first and others and not differing),
              f"{len(dirs)} directories; differing files: {differing[:5]}")


def check_snapshots(run, snap_dir):
    """Every load has its snapshot file with the expected count, all finite."""
    wl = run.workload
    m = wl.expected_snapshots()
    problems = []
    for load in wl.loads:
        path = snap_dir / f"snapshots_R{load:g}.txt"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        text = path.read_bytes()
        header, _, body = text.partition(b"\ndata\n")
        if f"\nm={m}\n".encode() not in header:
            problems.append(f"{path.name}: expected m={m}")
        # header (7 lines), 3 markers, then data, derivative and control rows
        lines = text.count(b"\n")
        if lines != 10 + 3 * m:
            problems.append(f"{path.name}: {lines} lines, expected {10 + 3 * m}")
        if b"nan" in body or b"inf" in body:
            problems.append(f"{path.name}: non-finite value")
    found = len(list(snap_dir.glob("snapshots_R*.txt")))
    if found != len(wl.loads):
        problems.append(f"{found} snapshot files, expected {len(wl.loads)}")
    run.check("snapshots_complete_and_finite", not problems, "; ".join(problems[:5]))


def read_summary(out_dir):
    """summary.csv as {(case, model): (mean excluding switch-off, mean over all)}."""
    rows = {}
    lines = (out_dir / "summary.csv").read_text().splitlines()
    for line in lines[1:]:
        case, model, excl, full = line.split(",")
        rows[(case, model)] = (float(excl), float(full))
    return rows


def read_objectives(out_dir):
    lines = (out_dir / "convergence.csv").read_text().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:]]


def check_model_outputs(run, out_dir):
    """The calibration properties each workload promises; returns quality metrics."""
    wl = run.workload
    summary = read_summary(out_dir)
    objectives = read_objectives(out_dir)
    ratio = summary[("ratio", "calibrated_over_opinf")][0]
    if wl.max_iterations == 0:
        run.check("error_ratio_is_1", ratio == 1.0, f"ratio {ratio!r}")
        same = ((out_dir / "rom_calibrated.txt").read_bytes()
                == (out_dir / "rom_opinf.txt").read_bytes())
        run.check("zero_iterations_keep_operators", same,
                  "rom_calibrated.txt differs from rom_opinf.txt")
    else:
        increases = [i for i in range(1, len(objectives)) if objectives[i] > objectives[i - 1]]
        run.check("objective_non_increasing", not increases, f"increases at {increases[:5]}")
        run.check("error_ratio_below_1", ratio < 1.0, f"ratio {ratio!r}")
    return {
        "error_ratio": (ratio, "ratio"),
        "objective_final": (objectives[-1], "1"),
        "opinf_error": (summary[("overall", "opinf")][0], "rel_mse"),
    }


def run_workload(run, seconds, trace):
    """Set up, run the passes, check outputs; return the metrics (name -> (value, unit))."""
    wl = run.workload
    work = run.work_dir
    if trace:
        # Set up once, traced, so set-up layers (the FOM) report too; then
        # run the pass untraced and traced on the same snapshots.
        if run.sequence(workloads.SETUP, work / "setup0", traced=True) is None:
            return {}
        pass_env = {"MORCAL_SNAPSHOT_DIR": str(work / "setup0" / "snapshots")}
        untraced_s = run.sequence(wl.passes, work / "pass0", extra_env=pass_env)
        traced_s = (run.sequence(wl.passes, work / "traced0", traced=True, extra_env=pass_env)
                    if untraced_s is not None else None)
        if traced_s is None:
            return {}
        check_same_outputs(run, "traced_matches_untraced", [work / "pass0", work / "traced0"])
    else:
        # Rounds of set-up then pass, so that set-up and pass times are both
        # sampled across the whole run and host speed drift hits them alike.
        setup_times, pass_times = [], []
        started = time.perf_counter()
        while True:
            setup_dir = work / f"setup{len(setup_times)}"
            setup_s = run.sequence(workloads.SETUP, setup_dir)
            if setup_s is None:
                return {}
            setup_times.append(setup_s)
            pass_env = {"MORCAL_SNAPSHOT_DIR": str(setup_dir / "snapshots")}
            pass_s = run.sequence(wl.passes, work / f"pass{len(pass_times)}",
                                  extra_env=pass_env)
            if pass_s is None:
                return {}
            pass_times.append(pass_s)
            # Stop where the run's length comes closest to ``seconds``.
            now = time.perf_counter()
            round_times = [s + p for s, p in zip(setup_times, pass_times)]
            if (len(round_times) >= MIN_ROUNDS
                    and now - started + statistics.mean(round_times) / 2 >= seconds):
                break
            if now + max(round_times) > run.deadline - 10.0:
                break
        rounds = len(round_times)
        check_same_outputs(run, "setup_repeats_identical",
                           [work / f"setup{i}" for i in range(rounds)])
        check_same_outputs(run, "pass_repeats_identical",
                           [work / f"pass{i}" for i in range(rounds)])
    try:
        check_snapshots(run, work / "setup0" / "snapshots")
        quality = check_model_outputs(run, work / "pass0")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        run.check("outputs_readable", False, repr(exc))
        return {}

    if trace:
        traces = [c["trace"] for c in run.commands if c["traced"]]
        return {k: (v["value"], v["unit"])
                for k, v in tracing.layer_metrics(traces, traced_s, untraced_s).items()}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "train_s": (statistics.median(run.times("train")), "s"),
        "evaluate_s": (statistics.median(run.times("evaluate")), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in run.commands if not c["traced"]), "MB"),
    }
    metrics.update(quality)
    return metrics


def host_probe_ms():
    """Median time of a fixed pure-Python loop, recorded to show host speed drift."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def source_digest():
    digest = hashlib.sha256()
    for file in sorted((SRC / "morcal").rglob("*")):
        if file.is_file() and "__pycache__" not in file.parts:
            digest.update(str(file.relative_to(SRC)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


def environment(args, wl, probes):
    """Machine, library and input facts recorded with every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "host_probe_ms": probes,
        "commit": commit,
        "source_sha256": source_digest(),
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "train_loads": wl.train_loads,
        "validation_loads": wl.validation_loads,
        "max_iterations": wl.max_iterations,
        "save_every": wl.save_every,
        "steps_per_load": wl.steps_per_load,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a short horizon for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "morcal" / "cli.py").is_file():
        print(f"error: no morcal source at {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make_workload(args.workload, args.seed, args.size)
    work_dir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    run = Run(wl, work_dir, deadline)
    probes = [host_probe_ms()]
    try:
        metrics = run_workload(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    probes.append(host_probe_ms())
    attempted = len(run.commands) + len(run.checks)
    failed = (sum(1 for c in run.commands if c.get("code") != 0)
              + sum(1 for c in run.checks if not c["ok"]))
    record = {
        "environment": environment(args, wl, probes),
        "commands": [{k: v for k, v in c.items() if k != "trace"} for c in run.commands],
        "checks": run.checks,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
