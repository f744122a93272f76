"""The host-speed probe behind host-normalized seconds.

The container's speed drifts by a third and more within seconds (other
tenants share the machine), so the benchmark converts wall time into
*host-normalized seconds*: a fixed piece of interpreter work is timed
now and then, and the wall time around it is rescaled to the speed at
which that work takes its nominal duration.

Two choices keep the program's own cost in the rates:

* The probe is timed on the CPU clock of the thread that runs it
  (``time.thread_time``), not on the wall clock.  While the program's
  other threads hold the GIL (checkpoint writer, heartbeats, frame
  batcher, the coordinator) or its other processes hold the CPU, the
  probe thread is not running and its clock stands still.  So a
  slowdown in those parts lengthens the wall time but not the probe.
* The probe runs in the measured process itself, on the CPU that does
  the measured work.  A monitor process of its own would run on the
  other CPU, and on a 2-CPU container the two CPUs slow each other
  down: over 30 one-second windows a monitor's probe correlated at
  -0.21 with the speed of a busy loop in the measured process, the
  same probe run in that process at +0.99.
"""

from __future__ import annotations

import time
from typing import List

#: probe loop length, cadence, and the probe's duration on the
#: reference host (a 2-CPU container) when it is quiet
PROBE_LOOPS = 8_000
PROBE_EVERY_S = 0.2
PROBE_NOMINAL_S = 0.0025

_MEMORY = bytearray(1 << 18)
_TABLE = {key: key for key in range(1 << 12)}


def _step(value: int) -> int:
    return value + 1


def probe() -> float:
    """Thread CPU seconds for a fixed piece of interpreter work shaped
    like the simulator's own: scattered byte-array reads and writes,
    dict lookups and small function calls over a 256 KiB working set.
    Its duration tracks the host's current speed."""
    memory, table, step = _MEMORY, _TABLE, _step
    start = time.thread_time()
    address = 12345
    total = 0
    for _ in range(PROBE_LOOPS):
        address = (address * 1103515245 + 12345) & 0x3FFFF
        total += memory[address] + table.get(address & 0xFFF, 0) \
            + step(total & 0xFF)
        memory[address] = total & 0xFF
    return time.thread_time() - start


def normalized_seconds(wall_s: float, probes: List[float]) -> float:
    """``wall_s`` in seconds of the reference host.  Each probe stands
    for an equal slice of wall time in which the host ran at
    ``PROBE_NOMINAL_S / probe`` of its reference speed, so the slices
    are summed at those speeds."""
    if not probes:
        return wall_s
    return wall_s * PROBE_NOMINAL_S * sum(1.0 / p for p in probes) \
        / len(probes)
