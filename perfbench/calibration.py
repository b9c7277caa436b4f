"""Host-speed calibration, sampled while the workload runs.

On a shared host the speed of one core drifts by tens of percent within a
minute, and a wall-clock rate then measures the neighbours as much as the
program.  A workload process therefore interrupts itself every
``INTERVAL_S`` seconds (``SIGALRM``) and times a fixed pure-Python
reference loop on the same core, in thread CPU time, so that a sample the
scheduler preempts is not counted as slow.  The mean sample inside an
interval is the host's speed during that interval, and

    reference seconds = (wall - wall spent sampling) * REFERENCE_NS / mean sample

is the wall time the interval would have taken on a host that runs the
loop in exactly ``REFERENCE_NS``.  A faster program lowers it, including
one that runs on more cores; a slower host does not raise it.  On a
shared 2-vCPU Xeon (2.1 GHz) container host, five 13-15 s runs of one
workload varied by 19% in wall time and by about 1% in reference seconds.  The samples cost
about 1% of the run and read no program state.

Standard library only, so it can start before ``import repro``.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Tuple

INTERVAL_S = 0.05
#: Nominal CPU time of one reference loop: about its mean on the 2-vCPU
#: Xeon (2.1 GHz) container host the benchmark was written on.
REFERENCE_NS = 475_000

#: ``(monotonic time, wall ns, thread CPU ns)`` of every sample.
_samples: List[Tuple[float, int, int]] = []


def reference_loop() -> int:
    """Interpreter-bound work: integer arithmetic, a dict and a list."""
    table = {}
    items = []
    total = 0
    for i in range(2400):
        total += (i * i) % 7
        table[i & 127] = total
        items.append(table.get(i & 63, 0))
    return total + len(items)


def _sample(signum, frame) -> None:
    wall = time.perf_counter_ns()
    cpu = time.thread_time_ns()
    reference_loop()
    cpu = time.thread_time_ns() - cpu
    _samples.append((time.monotonic(), time.perf_counter_ns() - wall, cpu))


def start() -> None:
    """Begin sampling (system calls interrupted by a sample are restarted)."""
    signal.signal(signal.SIGALRM, _sample)
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(begin: float, end: float) -> Optional[dict]:
    """Wall and reference seconds of ``[begin, end]`` (monotonic clock)."""
    inside = [(wall, cpu) for stamp, wall, cpu in _samples if begin <= stamp <= end]
    if not inside:
        return None
    mean_ns = sum(cpu for _, cpu in inside) / len(inside)
    net = (end - begin) - sum(wall for wall, _ in inside) / 1e9
    return {
        "wall_s": end - begin,
        "reference_s": net * REFERENCE_NS / mean_ns,
        "samples": len(inside),
        "mean_sample_ns": mean_ns,
    }
