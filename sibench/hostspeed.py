"""How fast the host runs while the benchmark measures.

The benchmark shares its machine: over tens of seconds the same Python
code runs up to half again as slow, and a whole run can fall in a slow
stretch, so that even each step's least time over the rounds is slow.
:class:`HostSpeed` times a fixed pure-Python probe at many moments of a
run, between the steps it measures, never inside them.  The probe does
none of the system's work, so a change to the system can move it only
through the state it leaves behind, such as what it left in the caches.

The run's wall metrics are scaled by :meth:`HostSpeed.factor`, the ratio
of :data:`REFERENCE_S` to the probe's time at the quantile that matches
how they were taken: a step's least time over ``n`` rounds sits, on
average, at the ``1 / (n + 1)`` quantile of its times.  Scaled, they read
as seconds on a host where the probe takes ``REFERENCE_S``.  The raw
values stay in the run's report beside the factor.
"""

from __future__ import annotations

from array import array
from time import perf_counter

#: The probe's nominal time; close to its low percentiles on the 2-vCPU
#: x86-64 Linux host, Python 3.11, where the benchmark was written.
REFERENCE_S = 30e-6

#: Fewest samples a factor is taken from.
MIN_SAMPLES = 100


def probe_work() -> int:
    """The fixed work the probe times: small-int dict updates."""
    table: dict[int, int] = {}
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i
    return len(table)


class HostSpeed:
    """Probe times taken through a run."""

    def __init__(self) -> None:
        self.samples = array("d")

    def sample(self, times: int = 1) -> None:
        """Time the probe ``times`` times."""
        for _ in range(times):
            started = perf_counter()
            probe_work()
            self.samples.append(perf_counter() - started)

    def quantile(self, share: float) -> float:
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(share * len(ordered)))]

    def factor(self, rounds: int) -> float:
        """What a step's least time over ``rounds`` rounds is multiplied
        by to read as a time on the reference host."""
        if len(self.samples) < MIN_SAMPLES:
            raise ValueError(f"{len(self.samples)} probe samples, "
                             f"fewer than {MIN_SAMPLES}")
        return REFERENCE_S / self.quantile(1.0 / (rounds + 1))
