"""The host's speed, sampled while the benchmark runs.

The benchmark's host is a few cores of a shared machine whose speed drifts:
a fixed loop takes from 1x to 1.5x its fastest time, in spells that last from
a fraction of a second to minutes.  A wall time alone then measures the host
as much as the program.  ``SpeedSampler`` runs a thread that, every
``INTERVAL_S``, times two small fixed probes: a pure-Python loop and small
numpy calls.  Each probe's speed is its
``NOMINAL_S`` over the time it took.  ``factor(start, end)`` is the geometric
mean over the probes of each probe's mean speed in that window, and an
operation's adjusted time is its wall time times that factor: the time it
would have taken on a host running the probes at their nominal speed.

The probes and the measured code share one core (``pin_to_one_core``), so the
probes see the speed the program saw.  A sample takes 0.45 ms or more of
every ``INTERVAL_S``, so the probes hold the core about 1% of the time, the
same on every commit.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

INTERVAL_S = 0.05
_SMALL_MATRIX, _SMALL_VECTOR = np.ones((4, 4)), np.ones(4)


def _python_loop() -> None:
    total = 0
    for i in range(4000):
        total += i * i


def _small_numpy() -> None:
    for _ in range(150):
        _SMALL_MATRIX.dot(_SMALL_VECTOR)


PROBES = (_python_loop, _small_numpy)
# each probe's fastest time on the reference machine (bench/README.md)
NOMINAL_S = np.array([0.31e-3, 0.135e-3])


def pin_to_one_core() -> int:
    """Keeps this process, its threads and its children on its first
    allowed core; returns that core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class SpeedSampler:
    """Times the probes every ``INTERVAL_S`` between ``__enter__`` and
    ``__exit__``."""

    def __init__(self):
        self.times: list[float] = []  # each sample's midpoint
        self.speeds: list[np.ndarray] = []  # each sample's per-probe speed
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        durations = np.empty(len(PROBES))
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            for i, probe in enumerate(PROBES):
                t = time.perf_counter()
                probe()
                durations[i] = time.perf_counter() - t
            self.times.append((start + time.perf_counter()) / 2)
            self.speeds.append(NOMINAL_S / durations)

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """The host's speed relative to nominal over ``[start, end]`` (times
        from ``time.perf_counter``), once the sampler has stopped.  A window
        too short to hold a sample takes the sample nearest its middle."""
        times = np.array(self.times)
        speeds = np.array(self.speeds)
        inside = (times >= start) & (times <= end)
        if not inside.any():
            inside = np.argmin(np.abs(times - (start + end) / 2))
        window = speeds[inside].reshape(-1, len(PROBES))
        return float(np.exp(np.log(window.mean(axis=0)).mean()))
