"""Outside-in span tracing of the morcal layers, and the per-layer metrics.

Spans are recorded only by wrappers this file installs around public
functions of the morcal modules; no morcal source is edited.  A span holds a
name, start, end and the index of the span that was open when it started.
Spans stay in memory until the traced command ends, then go to one JSON file.
``layer_metrics`` turns the span files of one traced run into the
per-layer metrics named in BENCHMARK.json.
"""

import inspect
import json
import math
import os
import sys
import time

# Module -> public functions wrapped in it.  A function that no longer
# exists is skipped, and the metrics that need it are reported as absent.
LAYER_FUNCTIONS = {
    "fom": ("fom_integrate", "fom_rhs"),
    "snapshots": ("save_snapshots", "load_snapshots", "fit_scaling", "apply_scaling"),
    "pod": ("compute_pod", "project", "save_basis"),
    "deim": ("nonlinearity_snapshots", "nonlinearity_basis", "deim_points",
             "build_deim_operators"),
    "opinf": ("assemble_regression", "solve_opinf"),
    "calibrate": ("build_calibration_problem", "calibrate", "objective", "forward_rollout"),
    "rom": ("save_rom", "load_rom", "rom_vs_projected_error", "simulate_rom",
            "field_statistics"),
}

ROOT_SPAN = "cli.main"


def _file_bytes(bound, result):
    return {"bytes": os.path.getsize(bound["path"])}


def _steps(bound, result):
    return {"steps": int(bound["k"])}


# Span attributes taken from a call's bound arguments and its result.
_ANNOTATE = {
    "snapshots.save_snapshots": _file_bytes,
    "snapshots.load_snapshots": _file_bytes,
    "pod.compute_pod": lambda b, r: {"cols": int(b["snapshot_matrix"].shape[1])},
    "calibrate.forward_rollout": _steps,
    "rom.simulate_rom": _steps,
    "calibrate.objective": lambda b, r: {"rejected": int(not math.isfinite(r))},
    "calibrate.calibrate": lambda b, r: {"iterations": int(r[1].iterations)},
    "calibrate.build_calibration_problem":
        lambda b, r: {"trajectories": len(r.reduced_trajectories)},
}


class Recorder:
    """In-memory span list with the stack of spans currently open."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent index or -1, start, end]
        self.attrs = {}
        self.wrapped = []
        self._name_ids = {}
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        annotate = _ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        spans, stack, attrs = self.spans, self._stack, self.attrs
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            result = None
            failed = True
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if failed:
                    attrs[idx] = {"error": 1}
                elif annotate is not None:
                    attrs[idx] = annotate(signature.bind(*args, **kwargs).arguments, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function in its module and wherever it was imported.

        Modules are looked up in ``sys.modules``: ``morcal.calibrate`` is
        shadowed on the package by the function of the same name.  Imports
        under another name (``rom`` imports ``forward_rollout`` as
        ``_forward_rollout``) are found by identity.
        """
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "morcal" or n.startswith("morcal."))]
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"morcal.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    continue
                traced = self.wrap(f"{module_name}.{fn_name}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                self.wrapped.append(f"{module_name}.{fn_name}")

    def run(self, fn, *args):
        """Call ``fn`` inside the root span and return its result."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "attrs": {str(k): v for k, v in self.attrs.items()},
                "wrapped": self.wrapped,
                "import_s": import_s,
            }, fh)


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a list of ``[name, parent, start, end]`` with every parent
    listed before its children.  Child intervals are clipped to the parent
    and merged, so overlapping children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for idx, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _totals(trace):
    """Sums over one traced command, keyed by what the metrics need."""
    names = trace["names"]
    spans = trace["spans"]
    attrs = {int(k): v for k, v in trace["attrs"].items()}
    own = self_times(spans)
    t = {"import_s": trace["import_s"]}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    in_calibrate = [False] * len(spans)
    for idx, (nid, parent, start, end) in enumerate(spans):
        name = names[nid]
        dur = end - start
        a = attrs.get(idx, {})
        in_calibrate[idx] = name == "calibrate.calibrate" or (parent >= 0 and in_calibrate[parent])
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        add(f"{name}:s", dur)
        add(f"{name}:n", 1)
        add(f"{name}:self", own[idx])
        for key, value in a.items():
            add(f"{name}:{key}", value)
        if name == "calibrate.forward_rollout":
            where = "cal" if in_calibrate[idx] else "rom"
            add(f"rollout_{where}:n", 1)
            add(f"rollout_{where}:s", dur)
            add(f"rollout_{where}:steps", a.get("steps", 0))
            if parent_name == "calibrate.calibrate":
                add("rollout_gradient:n", 1)
        if name == "calibrate.objective" and in_calibrate[idx]:
            add("objective_cal:n", 1)
            add("objective_cal:rejected", a.get("rejected", 0))
    t["wrapped"] = set(trace["wrapped"])
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of a traced run, from its commands' span files.

    Times are summed over the commands.  A metric whose wrapped function is
    missing is left out rather than reported as zero.
    """
    total = {}
    wrapped = set()
    for trace in traces:
        for key, value in _totals(trace).items():
            if key == "wrapped":
                wrapped |= value
            else:
                total[key] = total.get(key, 0) + value

    def g(key):
        return total.get(key, 0)

    fom_rhs_n = g("fom.fom_rhs:n")
    cal_iters = g("calibrate.calibrate:iterations")
    trajectories = g("calibrate.build_calibration_problem:trajectories")
    objective_calls = g("objective_cal:n")
    gradient_evals = _ratio(g("rollout_gradient:n"), trajectories)
    load_s = g("snapshots.load_snapshots:s")
    save_s = g("snapshots.save_snapshots:s")
    metrics = {
        "fom.integrate_s": (g("fom.fom_integrate:s"), "s", ["fom.fom_integrate"]),
        "fom.rhs_calls": (fom_rhs_n, "count", ["fom.fom_rhs"]),
        "fom.rhs_us": (1e6 * _ratio(g("fom.fom_rhs:s"), fom_rhs_n), "us", ["fom.fom_rhs"]),
        "fom.self_s": (g("fom.fom_integrate:self"), "s", ["fom.fom_integrate", "fom.fom_rhs"]),
        "snapshots.save_s": (save_s, "s", ["snapshots.save_snapshots"]),
        "snapshots.save_bytes": (g("snapshots.save_snapshots:bytes"), "B",
                                 ["snapshots.save_snapshots"]),
        "snapshots.save_mb_per_s": (_ratio(g("snapshots.save_snapshots:bytes") / 1e6, save_s),
                                    "MB/s", ["snapshots.save_snapshots"]),
        "snapshots.load_s": (load_s, "s", ["snapshots.load_snapshots"]),
        "snapshots.load_calls": (g("snapshots.load_snapshots:n"), "count",
                                 ["snapshots.load_snapshots"]),
        "snapshots.load_mb_per_s": (_ratio(g("snapshots.load_snapshots:bytes") / 1e6, load_s),
                                    "MB/s", ["snapshots.load_snapshots"]),
        "snapshots.scaling_s": (g("snapshots.fit_scaling:s") + g("snapshots.apply_scaling:s"),
                                "s", ["snapshots.fit_scaling", "snapshots.apply_scaling"]),
        "pod.compute_s": (g("pod.compute_pod:s"), "s", ["pod.compute_pod"]),
        "pod.snapshot_cols": (g("pod.compute_pod:cols"), "count", ["pod.compute_pod"]),
        "pod.project_s": (g("pod.project:s"), "s", ["pod.project"]),
        "pod.save_s": (g("pod.save_basis:s"), "s", ["pod.save_basis"]),
        "deim.basis_s": (g("deim.nonlinearity_snapshots:s") + g("deim.nonlinearity_basis:s"),
                         "s", ["deim.nonlinearity_snapshots", "deim.nonlinearity_basis"]),
        "deim.points_s": (g("deim.deim_points:s"), "s", ["deim.deim_points"]),
        "deim.build_s": (g("deim.build_deim_operators:s"), "s", ["deim.build_deim_operators"]),
        "opinf.assemble_s": (g("opinf.assemble_regression:s"), "s",
                             ["opinf.assemble_regression"]),
        "opinf.solve_s": (g("opinf.solve_opinf:s"), "s", ["opinf.solve_opinf"]),
        "calibrate.total_s": (g("calibrate.calibrate:s"), "s", ["calibrate.calibrate"]),
        "calibrate.self_s": (g("calibrate.calibrate:self"), "s",
                             ["calibrate.calibrate", "calibrate.objective",
                              "calibrate.forward_rollout"]),
        "calibrate.build_s": (g("calibrate.build_calibration_problem:s"), "s",
                              ["calibrate.build_calibration_problem"]),
        "calibrate.forward_calls": (g("rollout_cal:n"), "count",
                                    ["calibrate.calibrate", "calibrate.forward_rollout"]),
        "calibrate.forward_step_us": (1e6 * _ratio(g("rollout_cal:s"), g("rollout_cal:steps")),
                                      "us", ["calibrate.calibrate", "calibrate.forward_rollout"]),
        "calibrate.objective_calls": (objective_calls, "count",
                                      ["calibrate.calibrate", "calibrate.objective"]),
        "calibrate.gradient_evals": (gradient_evals, "count",
                                     ["calibrate.calibrate", "calibrate.forward_rollout",
                                      "calibrate.build_calibration_problem"]),
        "calibrate.iterations": (cal_iters, "count", ["calibrate.calibrate"]),
        "calibrate.iters_per_s": (_ratio(cal_iters, g("calibrate.calibrate:s")), "1/s",
                                  ["calibrate.calibrate"]),
        "calibrate.backtracks": (max(objective_calls - g("calibrate.calibrate:n") - cal_iters, 0),
                                 "count", ["calibrate.calibrate", "calibrate.objective"]),
        "calibrate.rejected": (g("objective_cal:rejected"), "count",
                               ["calibrate.calibrate", "calibrate.objective"]),
        "calibrate.useful_ratio": (_ratio(cal_iters, objective_calls + gradient_evals), "ratio",
                                   ["calibrate.calibrate", "calibrate.objective",
                                    "calibrate.forward_rollout",
                                    "calibrate.build_calibration_problem"]),
        "rom.load_s": (g("rom.load_rom:s"), "s", ["rom.load_rom"]),
        "rom.save_s": (g("rom.save_rom:s"), "s", ["rom.save_rom"]),
        "rom.rollout_calls": (g("rollout_rom:n"), "count", ["calibrate.forward_rollout"]),
        "rom.rollout_step_us": (1e6 * _ratio(g("rollout_rom:s"), g("rollout_rom:steps")), "us",
                                ["calibrate.forward_rollout"]),
        "rom.error_s": (g("rom.rom_vs_projected_error:s"), "s", ["rom.rom_vs_projected_error"]),
        "rom.stats_s": (g("rom.field_statistics:s"), "s", ["rom.field_statistics"]),
        "cli.import_s": (g("import_s"), "s", []),
        "cli.self_s": (g(f"{ROOT_SPAN}:self"), "s", []),
        "trace.overhead_frac": (_ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio", []),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, needs) in metrics.items()
            if all(fn in wrapped for fn in needs)}
