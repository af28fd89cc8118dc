"""Machine-speed samples that put timings on a fixed reference speed.

The benchmark runs on shared machines, where the same work can take twice
as long from one second to the next.  ``sample`` times a fixed kernel of
interpreter and small-array work that never touches relot.  A timing
taken between two samples is multiplied by ``scale`` of them, which gives
the seconds it would have taken at the speed at which the kernel takes
``REF_S``.  A change to relot moves the timings but not the samples, so
it shows in full; a change of machine speed moves both and mostly cancels.

Not all work slows down as much as the kernel: large-array numpy calls
barely notice what nearly doubles the kernel's time.  So each operation's
factor is raised to the operation's ``speed_exponent``, the slope of log
operation time over log kernel time for its kind of work, fitted on the
baseline machine (see README).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_S = 0.015   # kernel seconds at the reference speed (see README)
EVERY_S = 0.2   # op time between two samples

_A = np.linspace(1.0, 2.0, 64)


def _kernel() -> float:
    acc = 0.0
    for i in range(1, 3000):
        x = math.sqrt(20.0 * i / 1.6) + (i % 7) / (i + 1.0)
        d = {"q": x, "r": 0.5 * x}
        acc += d["q"] - d["r"] + float(np.sum(_A * x)) * 1e-9
    return acc


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scale(*samples: float, exponent: float = 1.0) -> float:
    """Factor from seconds at the sampled speed to seconds at the reference speed."""
    return (REF_S * len(samples) / sum(samples)) ** exponent
