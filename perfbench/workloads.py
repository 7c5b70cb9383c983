"""The benchmark's workloads: which morcal commands run, with which inputs.

Inputs reach the program only through documented ``MORCAL_<KEY>``
environment overrides; every workload runs the bundled scenario otherwise.
"""

import random
from dataclasses import dataclass, field

BUNDLED_TRAIN_LOADS = (0.5, 1.0, 1.5)
BUNDLED_VALIDATION_LOADS = (0.75, 1.25)
BUNDLED_STEPS = 20000  # t_end / dt of the bundled scenario
BUNDLED_SAVE_EVERY = 100
LOAD_RANGE = (0.5, 1.5)
LOAD_JITTER = 0.02

# Calibration budget of the `calibrate` workload.  The bundled 5000
# iterations take minutes; this many keep calibration ~90% of `train` while
# a run stays within its time limit.
CALIBRATE_ITERATIONS = 100
# Snapshot cadence of the `dense` workload: 1,001 snapshots per load, so
# snapshot reads, not calibration, dominate `train` and `evaluate`.
DENSE_SAVE_EVERY = 20

# `--size tiny` shrinks every workload to a 2,000-step horizon (heat switched
# off halfway) so the benchmark's own tests can run each workload in seconds.
TINY_STEPS = 2000
TINY_ENV = {"MORCAL_T_END": "300", "MORCAL_HEAT_TIMES": "0, 150"}
TINY_SNAPSHOT_DIVISOR = 5  # five times fewer steps per saved snapshot
TINY_ITERATIONS = 5


# Every workload sets up its inputs with this command.
SETUP = ("generate",)


@dataclass(frozen=True)
class Workload:
    """One workload: the timed pass of commands and its inputs.

    Each round of a run sets up the inputs with ``SETUP`` into a directory
    of its own, then runs the ``passes`` commands on that round's snapshots.
    """

    name: str
    passes: tuple
    env: dict = field(default_factory=dict)
    save_every: int = BUNDLED_SAVE_EVERY
    max_iterations: int = 0
    steps_per_load: int = BUNDLED_STEPS
    train_loads: tuple = BUNDLED_TRAIN_LOADS
    validation_loads: tuple = BUNDLED_VALIDATION_LOADS

    @property
    def loads(self):
        return self.train_loads + self.validation_loads

    def expected_snapshots(self):
        return self.steps_per_load // self.save_every + 1


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    "calibrate": dict(
        passes=("train", "evaluate"),
        save_every=BUNDLED_SAVE_EVERY, max_iterations=CALIBRATE_ITERATIONS),
    "dense": dict(
        passes=("train", "evaluate"),
        save_every=DENSE_SAVE_EVERY, max_iterations=0),
}


def draw_loads(seed):
    """Training and validation heat loads for a workload seed.

    Seed 0 is the bundled scenario.  Any other seed moves each bundled load
    to a uniform draw within LOAD_JITTER of it, inside LOAD_RANGE (the
    bundled range), rounded to three decimals.  Every number the pipeline computes changes, while
    the work a run does and the accuracy it reaches stay comparable across
    seeds.
    """
    if seed == 0:
        return BUNDLED_TRAIN_LOADS, BUNDLED_VALIDATION_LOADS
    rng = random.Random(seed)

    def jitter(loads):
        lo, hi = LOAD_RANGE
        return tuple(round(rng.uniform(max(lo, v - LOAD_JITTER), min(hi, v + LOAD_JITTER)), 3)
                     for v in loads)

    return jitter(BUNDLED_TRAIN_LOADS), jitter(BUNDLED_VALIDATION_LOADS)


def _loads_text(loads):
    return ", ".join(f"{v:g}" for v in loads)


def make_workload(name, seed, size="full"):
    """The workload ``name`` with inputs drawn from ``seed``."""
    spec = dict(WORKLOADS[name])
    train, validation = draw_loads(seed)
    env = {}
    if seed != 0:
        env["MORCAL_TRAIN_LOADS"] = _loads_text(train)
        env["MORCAL_VALIDATION_LOADS"] = _loads_text(validation)
    if size == "tiny":
        env.update(TINY_ENV)
        spec["steps_per_load"] = TINY_STEPS
        spec["save_every"] = spec["save_every"] // TINY_SNAPSHOT_DIVISOR
        spec["max_iterations"] = min(spec["max_iterations"], TINY_ITERATIONS)
    env["MORCAL_SAVE_EVERY"] = str(spec["save_every"])
    env["MORCAL_MAX_ITERATIONS"] = str(spec["max_iterations"])
    return Workload(name=name, env=env, train_loads=train, validation_loads=validation, **spec)
