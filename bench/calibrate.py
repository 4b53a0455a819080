"""Host-speed reference kernels.

The benchmark host is shared: other tenants slow every process on it by
up to about 2x, in phases that last from under a second to minutes, so
raw wall times of identical runs spread by 30% and more.  Each round
therefore runs a fixed reference kernel, independent of stefansim, between
the timed segments of the run, and scales each segment by
``REFERENCE_S / kernel time``: the result is the time the segment would
have taken at the host speed at which the kernel takes REFERENCE_S.  Raw
wall times are reported next to the scaled ones.

``numeric_kernel`` mixes the operations a time step is made of (small
real FFTs along axis 0, elementwise arithmetic, a reduction, a Python
level recurrence over columns).  ``python_kernel`` is plain interpreter
work, used for set-up, which runs before numpy is imported.

    python3 bench/calibrate.py   # prints each kernel's fastest and median time
"""
from __future__ import annotations

import functools
import time

# Round values near the kernels' fastest times on the 2-core reference host
# (Xeon at 2 GHz, Python 3.11.7, numpy 2.4.6: 1.7 ms and 1.5 ms).  Any
# fixed values would do: they only set the scale of the reported seconds.
NUMERIC_REFERENCE_S = 2.0e-3
PYTHON_REFERENCE_S = 1.5e-3


@functools.cache
def _data():
    import numpy as np

    rng = np.random.default_rng(20080107)
    return rng.standard_normal((64, 65)), rng.standard_normal((33, 33))


def numeric_kernel(reps=16):
    """Seconds taken by a fixed batch of step-like numpy work."""
    import numpy as np

    a, b = _data()
    t0 = time.perf_counter()
    for _ in range(reps):
        h = np.fft.rfft(a, axis=0)
        a2 = np.fft.irfft(h * 1j, n=64, axis=0)
        np.linalg.norm(a2 * a2 + a)
        x = b.copy()
        for j in range(1, 33):
            x[:, j] = (x[:, j] - 0.1 * x[:, j - 1]) / 1.5
    return time.perf_counter() - t0


def python_kernel(n=6000):
    """Seconds taken by a fixed batch of plain interpreter work."""
    t0 = time.perf_counter()
    table = {}
    for i in range(n):
        table[f"k{i}"] = (i * i) % 97
    sum(len(k) + v for k, v in table.items())
    return time.perf_counter() - t0


if __name__ == "__main__":
    import statistics

    for name, fn in (("numeric", numeric_kernel), ("python", python_kernel)):
        samples = [fn() for _ in range(400)]
        print(f"{name}_kernel: fastest {min(samples) * 1e3:.3f} ms, "
              f"median {statistics.median(samples) * 1e3:.3f} ms")
