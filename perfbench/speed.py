"""The speed reference: every time the benchmark reports is scaled to a
machine of fixed speed.

The shared machines the benchmark runs on switch between a fast and a slow
state every few seconds, and the slow state runs interpreted code about 1.7
times slower. Raw op times therefore measure the state as much as the
program. So the benchmark times a fixed reference computation, the
benchmark's own formula generator and truth tables, every
REFERENCE_EVERY_S between ops, and scales each op's time by
REFERENCE_NOMINAL_S over the reference time measured around it. The
reference imports nothing from ``oddmax``, so a change to the program moves
the op times and not the reference.
"""

from __future__ import annotations

import random
import statistics
import time

from formulas import TruthTables, generate

#: Formulas generated by one reference computation (about 2 ms).
REFERENCE_FORMULAS = 40
#: The reference time all reported times are scaled to: a machine on which
#: one reference computation takes exactly this long.
REFERENCE_NOMINAL_S = 0.002
#: Time between reference computations during a timed run.
REFERENCE_EVERY_S = 0.1


def reference_work() -> int:
    """The fixed computation; returns a checksum so its result is used."""
    rng = random.Random(0)
    tables = TruthTables()
    checksum = 0
    for i in range(REFERENCE_FORMULAS):
        checksum += generate(rng, 1 + i % 8, tables).lexmax_index or 0
    return checksum


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale_now() -> float:
    """REFERENCE_NOMINAL_S over the median of five reference times, taken
    after five untimed ones, so the interpreter has specialised the
    reference's code as it has in a timed run."""
    for _ in range(5):
        reference_work()
    return REFERENCE_NOMINAL_S / statistics.median(time_reference() for _ in range(5))


class SpeedGauge:
    """Reference times taken between ops, and the scale they give each op."""

    def __init__(self) -> None:
        #: Ops timed before each reference computation.
        self.marks: list[int] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def probe(self, ops_done: int) -> None:
        self.seconds.append(time_reference())
        self.marks.append(ops_done)
        self._due = time.perf_counter() + REFERENCE_EVERY_S

    def between_ops(self, ops_done: int) -> None:
        if time.perf_counter() >= self._due:
            self.probe(ops_done)

    def scales(self, ops: int) -> list[float]:
        """Per op, REFERENCE_NOMINAL_S over the reference time around it: the
        mean of the references before and after the op, each first replaced
        by the median of itself and its neighbours so that one interrupted
        reference does not move the ops next to it. Needs a probe before the
        first op and one after the last."""
        if not self.marks or self.marks[0] != 0 or self.marks[-1] != ops:
            raise ValueError("the reference must be timed before the first op and after the last")
        s = self.seconds
        smooth = [statistics.median(s[max(0, k - 1):k + 2]) for k in range(len(s))]
        scales: list[float] = []
        for k in range(len(s) - 1):
            local = (smooth[k] + smooth[k + 1]) / 2
            scales.extend([REFERENCE_NOMINAL_S / local] * (self.marks[k + 1] - self.marks[k]))
        return scales
