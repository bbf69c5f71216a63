"""Host-speed scaling: report timings in *reference* milliseconds.

The VM this benchmark was built on changes speed by up to 2x in phases
that last from a fraction of a second to several seconds, so two runs of
identical code can differ by 10-25% in raw wall time.  The benchmark
therefore owns a small fixed reference kernel (pure-Python object work,
blake2b over short strings and small numpy sorts -- the kinds of work the
service does) and times it before and after every timed step, on the
calling thread's own CPU clock so that service threads cannot inflate
it.  The benchmark runs on one CPU, so the kernel samples the CPU the
request ran on.  A host-speed sample is the median of a few kernel runs:
the first run after a request refills the caches the request evicted, so
its time depends on the request, not only on the host.  Every timing is
then reported as::

    wall * REFERENCE_KERNEL_S / local_kernel_s

that is, as the wall time the step would have taken on a host whose
kernel time is ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import Callable, List, Optional

import numpy as np

#: Median CPU time of one warm :meth:`ReferenceKernel.run` on the
#: reference host (2-vCPU x86-64 VM, Python 3.11, numpy 2.4), in seconds.
REFERENCE_KERNEL_S = 0.00045


class _Record:
    __slots__ = ("name", "value", "weight")

    def __init__(self, name: str, value: int, weight: int) -> None:
        self.name = name
        self.value = value
        self.weight = weight


class ReferenceKernel:
    """A fixed, deterministic ~0.45 ms mix shaped like the service's work.

    Small-object allocation, attribute access, dict lookups and a keyed
    sort (the interpreter-bound bulk of every layer), blake2b over short
    strings (the store's corpus fingerprint) and small numpy sorts and
    scans (the model kernels).  Of the candidates tried, this mix tracked
    the service's own speed changes most closely.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2009)
        self._arrays = [rng.random(300) for _ in range(6)]
        self._names = [f"doc-{i}" for i in range(400)]

    def run(self) -> int:
        records = [
            _Record(name, i, (i * 37) % 101) for i, name in enumerate(self._names)
        ]
        index = {record.name: record for record in records}
        total = 0
        for name in self._names[::3]:
            total += index[name].weight
        records.sort(key=lambda record: (record.weight, record.value))
        digest = hashlib.blake2b(digest_size=16)
        for record in records[:200]:
            digest.update(f"|{record.name}:{record.value}".encode())
        total += digest.digest()[0]
        for array in self._arrays:
            ordered = np.sort(array)
            total += int(np.searchsorted(np.cumsum(ordered), ordered.sum() / 2))
        return total


class HostScale:
    """Samples the reference kernel and converts wall time to reference time.

    ``cpu_clock`` and ``kernel`` are injectable so the arithmetic can be
    tested against a fake clock.
    """

    def __init__(
        self,
        kernel: Optional[Callable[[], object]] = None,
        cpu_clock: Callable[[], float] = time.thread_time,
        reference_s: float = REFERENCE_KERNEL_S,
    ) -> None:
        self._kernel = kernel if kernel is not None else ReferenceKernel().run
        self._cpu_clock = cpu_clock
        self.reference_s = reference_s
        #: every kernel time sampled, in seconds of thread CPU time
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns its thread CPU time in seconds.

        The cyclic garbage collector is off while the kernel runs: the
        kernel allocates more tracked objects than a young-generation
        collection waits for, and a collection's cost grows with the
        program's heap, which would make the kernel time track the
        program instead of the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self._cpu_clock()
            self._kernel()
            elapsed = self._cpu_clock() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def sample_median(self, repeats: int) -> float:
        """Median of ``repeats`` kernel samples (steadier around long steps)."""
        return statistics.median([self.sample() for _ in range(repeats)])

    def factor(self, before: float, after: float) -> float:
        """Reference-time multiplier for a step bracketed by two samples."""
        local = (before + after) / 2.0
        if local <= 0.0:
            raise ValueError("kernel samples must be positive")
        return self.reference_s / local

    def scaled(self, wall_s: float, before: float, after: float) -> float:
        """``wall_s`` expressed in reference seconds."""
        return wall_s * self.factor(before, after)

    def median_ms(self) -> float:
        """Median sampled kernel time in (local, unscaled) milliseconds."""
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0
