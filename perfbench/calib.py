"""Calibration sample: how fast the host runs fixed work right now.

On a shared host the same task list can take twice as long from one minute
to the next while the program has not changed.  So the benchmark runs,
between the tasks of every pass, a fixed calibration sample that does not
touch the package, and reports the pass time in units of the mean sample
time of that pass (``wall_norm``) next to the pass time in seconds
(``wall_s``).  A host slowdown stretches both; a change to the package moves
only the pass time.

The sample runs two kernels that stand for the two kinds of work in the
workloads: an interpreter loop over dicts, tuples and floats (the lazy
oracles, the dict-backed finite solvers and the scalar engine) and dense LU
solves (the truncation solves).
"""
from __future__ import annotations

import gc
import random
import time

import numpy as np

# Sized to take about 40 ms in all and to add little to the peak resident
# memory that the benchmark reports: a table of 3007 keys and a 400 x 400
# matrix built without numpy.random, which some workloads never import.
PY_ITERATIONS = 40_000
LU_SIZE = 400
LU_SOLVES = 6

_I = np.arange(LU_SIZE)
_LU = 1.0 / (1.0 + np.abs(_I[:, None] - _I[None, :])) + LU_SIZE * np.eye(LU_SIZE)
_RHS = np.ones(LU_SIZE)


def _interpreter() -> None:
    rng = random.Random(1)
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(PY_ITERATIONS):
        key = (i % 97, i % 31)
        table[key] = table.get(key, 0.0) + rng.random()
        acc += table[key] * 0.5


def _lu() -> None:
    for _ in range(LU_SOLVES):
        np.linalg.solve(_LU, _RHS)


class Calibrator:
    """Times calibration samples; one instance per pass."""

    def __init__(self) -> None:
        self.samples = 0
        self.seconds = 0.0

    def sample(self) -> None:
        # The collector would scan whatever the workload keeps alive, and the
        # sample's time would then depend on the workload's heap.
        gc.disable()
        try:
            t = time.perf_counter()
            _interpreter()
            _lu()
            self.seconds += time.perf_counter() - t
        finally:
            gc.enable()
        self.samples += 1

    def mean(self) -> float:
        return self.seconds / self.samples
