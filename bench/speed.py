"""The machine's current speed, measured with a fixed yardstick.

On a shared host the same command can take twice as long from one minute to
the next, because other tenants' work slows the cores down (the process's
CPU time grows with its wall time, so it is not waiting: it runs slower).
The benchmark therefore measures, next to every command, how long a fixed
piece of work takes right then, and reports each command's time at a
reference speed:

    seconds = wall seconds * UNIT_REF_S / (mean yardstick unit time)

The yardstick is benchmark code, so no change to the program moves it; a
program that does more work still reads proportionally slower. Its work is
of the program's kind: an interpreter loop over dicts and floats, and
numpy calls on small matrices. The units are timed once before and once
after each command and, when sampling, every SAMPLE_EVERY_S during it from
a timer signal in the benchmark's own thread; the time those in-command
samples take is taken out of the command's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

UNIT_REF_S = 0.002     # one yardstick unit at the reference speed
BRACKET_UNITS = 8      # units timed before and after each command
SAMPLE_EVERY_S = 0.25  # in-command sampling period

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((8, 8)) + 8.0 * np.eye(8)
_B = _RNG.standard_normal(8)


def yardstick(units: int) -> float:
    """A fixed amount of work: `units` repetitions of the same mix."""
    total = 0.0
    for _ in range(units):
        table: dict[int, int] = {}
        for i in range(1000):
            table[i % 97] = table.get(i % 97, 0) + i
            total += (i * 0.5) ** 0.5
        for _ in range(100):
            x = np.linalg.solve(_A, _B)
            total += float(x @ _B) + float(np.maximum(_A @ x, 0.0).sum())
    return total


def _unit_time(units: int) -> float:
    t0 = time.perf_counter()
    yardstick(units)
    return (time.perf_counter() - t0) / units


class SpeedProbe:
    """Times one call at a time and scales it to the reference speed.

    With `ticks`, yardstick units also run during each call; traced passes
    leave them off so that no span contains them.
    """

    def __init__(self, ticks: bool):
        self.ticks = ticks
        self._before = _unit_time(BRACKET_UNITS)
        self._inside: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._inside.append(_unit_time(1))

    def time(self, fn, *args):
        """Call fn(*args) and return (its result, wall seconds outside the
        in-command samples, seconds at the reference speed)."""
        self._inside = []
        previous = None
        if self.ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        wall -= sum(inside)
        after = _unit_time(BRACKET_UNITS)
        unit = statistics.mean([self._before, after, *inside])
        self._before = after
        return result, wall, wall * UNIT_REF_S / unit
