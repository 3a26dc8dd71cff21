"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared machine, whole stretches of tens of seconds run 20-50% slower
than others, so round times alone spread too widely between runs to resolve
a regression.  The worker times a reference kernel beside every op; dividing
a round's time by the kernel's time in the same round cancels most of the
slowdown.  The slowdown does not hit every kind of work alike, so each
workload names the kernel that matches the work it does:

* ``array``: arithmetic and transcendental functions on (N, 3) operands, like
  the half-line kernel that dominates ``xray_volume``;
* ``mixed``: the array part plus many small numpy calls (like per-point
  interpolation) and number formatting and parsing (like CSV I/O).

The kernels use only numpy and scipy, so no change to xradon can change their
cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import erfc

# Seconds a kernel run is scaled to: a round time t measured while the kernel
# took r seconds is reported as t * REFERENCE_S / r ("reference seconds").
# Both kernels take about this long on the 2-core 2.1 GHz Xeon VM the
# benchmark was tuned on, in its usual (neither fast nor slow) stretches.
REFERENCE_S = 0.02

_X = np.linspace(-3.0, 3.0, 3 * 8192).reshape(-1, 3)
_N = np.array([0.6, 0.0, 0.8])
_V = np.linspace(-1.0, 1.0, 1200)


def _array(repeats):
    for c in np.linspace(0.1, 0.6, repeats):
        rel = _X - c
        p = np.sum(rel * _N, axis=-1)
        d2 = np.sum(rel * rel, axis=-1) - p * p
        np.exp(-d2) * erfc(p)


def _calls():
    for s in _V:
        t = np.atleast_1d(s)
        np.floor(t).astype(int)
        (t - 1.0) * (t - 2.0)


def _text():
    text = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(_V, _V[::-1]))
    [float(f) for line in text.splitlines() for f in line.split(",")]


def _mixed():
    _array(10)
    _calls()
    _text()


KERNELS = {"array": lambda: _array(28), "mixed": _mixed}


def reference_s(kind, repeats=3):
    """Median wall time of `repeats` runs of the named reference kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
