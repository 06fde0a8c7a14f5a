"""Machine-speed calibration for the bibench benchmark.

Shared machines change speed in phases, by up to a factor of two, and
CPU time slows with wall time, so the slowdown is the processor's, not
the scheduler's.  ``SpeedSampler`` measures it while a timed block runs:
a background thread times a fixed piece of pure-Python work
(``_chunk``, shaped like bibench's own but independent of it, so no change
to the program moves it) in its own CPU time every ``INTERVAL_S``, and
once at the start and end of the block.  ``scale`` is ``REFERENCE_S`` over
the median sample, the factor that turns the block's wall time into
seconds at the speed the machine had when ``REFERENCE_S`` was taken.

Each sample holds the interpreter lock for about 0.5 ms, about 1% of the
block's time; that share is the same on every commit.  Only the standard
library is used, so the set-up measurement can sample before bibench, and
with it numpy, is imported.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass

# Median thread CPU seconds of _chunk() sampled while a stage runs, with
# the machine at full speed: 2-vCPU x86_64 container, Python 3.11.  With
# it, a scaled time equals the raw time of a repeat in a fast phase.
REFERENCE_S = 0.00065
INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Point:
    u: float
    v: float


def _chunk() -> list[str]:
    lines = []
    acc = 0.0
    for i in range(300):
        p = _Point((i * 0.618033988749895) % 1.0, (i * 0.414213562373095) % 1.0)
        acc += math.hypot(p.u, p.v)
        lines.append(f"{p.u!r}\t{acc!r}")
    return lines


class SpeedSampler:
    """``with SpeedSampler() as speed: ...``; then ``speed.scale``."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.thread_time()
        _chunk()
        self._samples.append(time.thread_time() - start)

    def _run(self) -> None:
        self._sample()
        while not self._stop.wait(INTERVAL_S):
            self._sample()
        self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self._samples)
