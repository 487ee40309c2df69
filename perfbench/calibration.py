"""A fixed calibration computation, timed between the measured work.

The host this benchmark runs on is shared: other tenants slow this
process's CPU, for stretches of seconds to minutes, by up to half, and
neither CPU time nor wall time can tell that slowdown from the program's
own cost.  The calibration chunk is a fixed mix of interpreter work,
small-array numpy calls and passes over a 512 KiB vector, the kinds of
work the program spends its time in.  Timed in the same stretches as the program, its CPU time follows the
host's speed, so a timing divided by it and multiplied by its nominal
`CHUNK_S` reads in seconds at a steady host speed.
"""

import math
import time

import numpy as np

# Nominal CPU seconds of one chunk: its median on a 2-vCPU Intel Xeon VM
# at 2.1 GHz with CPython 3.11 and numpy 2.4.
CHUNK_S = 3e-4

_VECTOR = np.linspace(0.5, 2.0, 64)
_LARGE = np.linspace(0.5, 2.0, 65536)
_BUFFER = np.empty_like(_LARGE)


def chunk():
    total = 0.0
    for i in range(700):
        total += math.sqrt(i * 0.5 + total % 3.0)
    x = _VECTOR
    for _ in range(50):
        x = np.maximum(x * 0.5, 0.1) + 1.0
    for _ in range(2):
        np.multiply(_LARGE, 0.5, out=_BUFFER)
        np.add(_BUFFER, _LARGE, out=_BUFFER)
    return total + float(x.sum()) + float(_BUFFER[-1])


def sample():
    """CPU seconds of one chunk, run right after an untimed one, so that
    the timed chunk finds its code and data in cache whatever ran before."""
    chunk()
    start = time.process_time()
    chunk()
    return time.process_time() - start
