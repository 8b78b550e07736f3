"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host: the same work runs up to
1.7x slower from one moment to the next, and for minutes at a time. So
timed work is interleaved with short runs of a kernel that never changes --
it uses none of the package's code -- and each timing is divided by the
host's slowdown at that moment: the kernel's duration then over its
nominal one. A change to the package moves the package's
timings but not the kernel's, so the normalised figures still show it; a
slow spell of the host moves both, and cancels.

The kernel copies the shape of the simulator's work, not its code: a
type-dispatching walk that hashes a nested state of small arrays (as the
round engine's state digests do), small dense solves (as the x-updates do)
and exact rational sums (as the exact lane does).
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import struct
import time
from fractions import Fraction

import numpy as np

# A nominal kernel duration, about its median on a 2-vCPU Xeon at 2.1 GHz
# with Python 3.11; only a scale, so that normalised times read as seconds
# on such a host.
REFERENCE_S = 2.0e-3
GROUP = 3            # kernel runs per sample
WINDOW_S = 1.0       # samples this close to a timing set its speed


def _state(rng):
    return {"round": 7, "nodes": [
        {"x": rng.random(3), "z": rng.random(3), "lam": rng.random(3),
         "w": float(rng.random()), "k": i, "tag": f"node{i}", "done": False}
        for i in range(8)]}


_RNG = np.random.default_rng(12345)
_STATE = _state(_RNG)
_MATS = [m @ m.T + 5.0 * np.eye(5) for m in _RNG.random((16, 5, 5))]
_RHS = _RNG.random(5)
_FRACS = [Fraction(int(v), 1 << 20) for v in _RNG.integers(1, 1 << 30, 24)]


def _walk(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(b"a" + str(obj.dtype).encode())
        h.update(struct.pack("<%dq" % obj.ndim, *obj.shape))
        h.update(obj.tobytes())
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        h.update(b"i" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode())
    elif isinstance(obj, list):
        h.update(b"l" + str(len(obj)).encode())
        for item in obj:
            _walk(h, item)
    else:
        h.update(b"d" + str(len(obj)).encode())
        for key in sorted(obj):
            _walk(h, key)
            _walk(h, obj[key])


def kernel() -> str:
    """One fixed unit of work; returns a digest so nothing is skipped."""
    h = hashlib.blake2b(digest_size=12)
    for _ in range(6):
        _walk(h, _STATE)
    for mat in _MATS:
        h.update(np.linalg.solve(mat, _RHS).tobytes())
    total = Fraction(0)
    for f in _FRACS:
        total = total * f + f
    h.update(str(total.denominator.bit_length()).encode())
    return h.hexdigest()


class Calibrator:
    """Interleaved kernel samples, and the host's slowdown at a given time."""

    def __init__(self):
        self.at: list[float] = []          # start of each sample
        self.took: list[float] = []        # its fastest kernel run

    def sample(self) -> None:
        """Run the kernel GROUP times and keep the fastest: the first run
        after timed work pays for the caches that work left cold."""
        start = time.perf_counter()
        took = []
        for _ in range(GROUP):
            t0 = time.perf_counter()
            kernel()
            took.append(time.perf_counter() - t0)
        self.at.append(start)
        self.took.append(min(took))

    def slowdown(self, t: float) -> float:
        """The host's slowdown at time ``t``: the median of the samples
        taken within WINDOW_S of it (at least the nearest one), over the
        kernel's quiet-host duration."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - t))
            hi = lo + 1
        return statistics.median(self.took[lo:hi]) / REFERENCE_S
