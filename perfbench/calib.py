"""Machine-speed calibration: timings scaled to a reference speed.

On a small shared virtual machine the speed of a CPU drifts: the same
``call`` has taken 2.1 s and 5.1 s a few minutes apart, with no load of
our own, and the two vCPUs drift independently of each other.  Medians
over a run cannot remove a drift slower than the run, so every timing
the benchmark reports is scaled by calibration probes taken in the same
run, right before and right after the work they scale.

The probe is a fixed pure-Python loop that does not touch the program.
It runs on every CPU this process may use at once (one pinned process
per CPU, started once per run), and a probe's time is their mean,
because the program's threads and processes may run on any of them.
A pure-Python loop tracked the ``call``'s drift better than a mix of
``struct``, ``zlib`` and ``numpy`` work (see NOTES.md).

A timing ``t`` taken between probes ``p0`` and ``p1`` is reported as
``t * REFERENCE_PROBE_S / mean(p0, p1)``: seconds at the speed at which
the probe takes ``REFERENCE_PROBE_S``.  Raw timings and probe times
stay in each run's report.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence

#: Probe seconds at the reference speed: a round figure inside the
#: probe's range (0.2-0.5 s) on a 2-vCPU virtual machine, 2.0 GHz cores.
REFERENCE_PROBE_S = 0.35
#: Iterations of the probe's loop.
PROBE_LOOPS = 2_500_000


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _serve(cpu: int) -> None:
    """Probe process: pinned to ``cpu``, time one loop per input line."""
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        t0 = time.perf_counter()
        _loop(PROBE_LOOPS)
        print(time.perf_counter() - t0, flush=True)


class Prober:
    """One idle probe process per CPU; :meth:`probe` runs them all at
    once.  Use as a context manager: the processes end on exit."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(
                    subprocess.Popen(
                        [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.close()
            raise

    def probe(self) -> float:
        """Seconds the probe takes now, averaged over the CPUs."""
        for proc in self.procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        times = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration probe exited {proc.poll()}")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self) -> None:
        for proc in self.procs:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def factor(probes: Sequence[float]) -> float:
    """The scale for a timing taken between ``probes``: the reference
    probe time over their mean."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
