"""Machine-speed probe that puts the end-to-end times on a fixed scale.

The benchmark's host is shared, and its speed drifts by up to 1.7x within
minutes: the same NumPy or pure-Python loop runs that much slower while the
neighbours are busy.  A `Probe` times a fixed piece of work that does not
touch the package: a large element-wise NumPy pass (memory-bound, like the
posterior predictive loss), small matrix products (BLAS) and an interpreter
loop (like the sampler's per-row Python).  The workloads sample it next to
the operations they time, and a time measured next to probe time ``p`` is
scaled by ``REFERENCE_S / p``: it reads what it would on the host at its
reference speed, and a change to the package moves it exactly as it moves
wall time, since the probe runs none of the package's code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's time in seconds on the reference machine (the 2-vCPU machine
# of the README's reference figures, at its usual speed).  Any fixed value
# would do: it only sets the scale on which the scaled times are read.
REFERENCE_S = 0.045

_N_ELEMENTWISE = 400 * 160 * 50  # one full-scale capture array
_MATMUL = np.linspace(0.0, 1.0, 150 * 150).reshape(150, 150)


def _once() -> tuple[float, float, float]:
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, _N_ELEMENTWISE)  # allocated per call: no resident memory between calls
    float(np.exp(-a).sum())
    del a
    t1 = time.perf_counter()
    for _ in range(20):
        _MATMUL @ _MATMUL
    t2 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def probe_seconds(samples) -> float:
    """The probe's time over `samples`: each part's median, summed."""
    return sum(statistics.median(part) for part in zip(*samples))


def to_reference(seconds: float, probe_s: float | None) -> float:
    """`seconds` measured next to probe time `probe_s`, on the reference scale
    (unchanged when no probe was taken)."""
    return seconds if probe_s is None else seconds * REFERENCE_S / probe_s


class Probe:
    """Probe samples of one run, and the time spent taking them."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.spent = 0.0  # seconds inside `sample`, to leave out of timings
        _once()  # warm-up: the first call also maps the array's memory

    def sample(self) -> float:
        """Take one sample; returns its time."""
        t0 = time.perf_counter()
        parts = _once()
        self.samples.append(parts)
        self.spent += time.perf_counter() - t0
        return sum(parts)

    def seconds_since(self, mark: int) -> float:
        """The probe's time over the samples taken since `len(samples)` was `mark`."""
        return probe_seconds(self.samples[mark:])
