"""Host-speed sampler: a sibling process that times fixed probes on
the CPU where the benchmarked process runs.

The host is shared: the speed of each virtual CPU drifts by up to a
factor of two over tens of seconds, and the times of identical runs
drift with it.  The drift is per virtual CPU: probes on the other CPU
do not see it.  So ``run.py`` starts this sampler beside the benchmark's
runs and writes the pid of each run to its standard input, one line per
run.  Every ``PERIOD_S`` the sampler moves itself onto the CPU that pid
last ran on, times two fixed pure-Python probes there (dict building,
random reads of a table larger than the L2 cache), and keeps
``(time.monotonic(), t_dicts, t_reads, cpu)``.  When its standard input
closes it prints the samples as one JSON list and exits.

The probes run in their own interpreter, so their times do not depend
on the engine's heap, caches between ticks, or garbage collector: a
change that grows the engine's working set does not slow the probes
and so is not divided away.  While a probe runs, the engine may have
to wait for that CPU: at most about 2.5 ms of every 50 ms, or 5 % of
its wall time, and nothing of its CPU time.
:func:`factor` turns the samples of an interval into a host factor; a
time divided by it is the time on a CPU where each probe takes
``REFERENCE_S``.

Run by hand, it samples the CPU of the pids typed in, until Ctrl-D::

    python3 perfbench/hostspeed.py
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import statistics
import sys
import time

#: seconds between two ticks (each tick runs the two probes, about
#: 3 ms in all)
PERIOD_S = 0.05
#: the probe time that counts as factor 1 (each probe takes about this
#: long on an idle 2-vCPU Intel Xeon KVM guest)
REFERENCE_S = 0.001
#: an interval's factor uses at least this many ticks, the ones nearest
#: to it when fewer fall inside
MIN_TICKS = 15

TABLE, READS = 20_000, 3_000


class Probes:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = [(i, str(i)) for i in range(TABLE)]
        self.idx = [rng.randrange(TABLE) for _ in range(READS)]

    def dicts(self) -> None:
        d = {(i, i & 7): (i, str(i & 15)) for i in range(2000)}
        sum(k[0] + len(v[1]) for k, v in d.items())

    def reads(self) -> None:
        table = self.table
        sum(table[j][0] + len(table[j][1]) for j in self.idx)

    def tick(self) -> list[float]:
        out = [time.monotonic()]
        for probe in (self.dicts, self.reads):
            t0 = time.perf_counter()
            probe()
            out.append(time.perf_counter() - t0)
        return out


def cpu_of(pid: int) -> int | None:
    """The CPU *pid* last ran on (field 39 of ``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def factor(samples: list, start: float, end: float) -> float:
    """Host factor over ``[start, end]`` (``time.monotonic()`` values):
    the geometric mean, over the probes, of their median time over
    ``REFERENCE_S``."""
    ticks = [s for s in samples if start <= s[0] <= end]
    if len(ticks) < MIN_TICKS:
        ticks = sorted(samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
        ticks = ticks[:MIN_TICKS]
    if not ticks:
        raise ValueError("no host-speed samples")
    logs = [
        math.log(statistics.median(s[k] for s in ticks) / REFERENCE_S)
        for k in (1, 2)
    ]
    return math.exp(sum(logs) / len(logs))


def main() -> int:
    probes = Probes()
    samples = []
    stdin = sys.stdin.fileno()
    pending = b""
    pid = None
    while True:
        ready, _, _ = select.select([stdin], [], [], PERIOD_S)
        if ready:
            data = os.read(stdin, 4096)
            if not data:
                break
            *lines, pending = (pending + data).split(b"\n")
            if lines:
                pid = int(lines[-1])
        cpu = cpu_of(pid) if pid is not None else None
        if cpu is None:
            continue
        os.sched_setaffinity(0, {cpu})
        samples.append(probes.tick() + [cpu])
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
