"""Machine-speed probe: timings scaled to a reference speed.

On a shared VM the speed of the machine itself drifts by up to 1.7x over
tens of seconds, so the same code times differently from one run to the
next.  A fixed pure-Python kernel (dict lookups; no rogetsim code) is
timed between the workload's operations, outside their timed regions;
the median of those samples says how fast the machine ran meanwhile.
Each timing is reported as measured, times ``REFERENCE_S`` over that
median: the time it would have taken on a machine on which the probe
takes ``REFERENCE_S``.

The kernel allocates nothing while it runs (its keys and the small ints
it computes exist beforehand), so its time does not depend on the state
of the heap that rogetsim leaves behind, and a change to rogetsim's
memory use does not change the scale.
"""

import statistics
import time

REFERENCE_S = 0.0045       # probe time the scaled timings refer to
EVERY_S = 0.05             # least wall time between probes in a workload

_TABLE = {key: key & 255 for key in range(997)}
_KEYS = [key for _ in range(31) for key in _TABLE][:30000]


def probe():
    """Seconds three runs over the kernel's 30,000 lookups take."""
    table, acc = _TABLE, 0
    start = time.perf_counter()
    for _ in range(3):
        for key in _KEYS:
            acc ^= table[key]
    return time.perf_counter() - start


def scale(samples):
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
