"""Host-speed reference for normalizing wall-clock times.

On a shared host the same code runs up to ~1.5x slower for seconds at a
time while neighbours are busy, and no amount of averaging inside one run
removes phases that last minutes.  Each run therefore times a fixed
pure-Python kernel (dict, tuple and sort work, like the analyzer's own
profile, and independent of ``repro``) next to the units it measures, and
reports each time scaled to the speed at which the kernel takes
:data:`REFERENCE_MS`: ``normalized = raw * REFERENCE_MS / local kernel
time``.  A change to the program cannot move the kernel, so a slowdown of
the program still shows; a slowdown of the host does not.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import subprocess
import sys
import threading
import time

#: The kernel's time at the reference speed (its median on the 2-CPU host
#: the baseline in README.md was measured on).
REFERENCE_MS = 1.25

#: How far around a unit the samples that scale it reach.  The host's
#: phases change within a second: on a 200-second symbolic trace, 0.25 s
#: kept 25-second windows' p50 within 1.5% of each other, 0.5 s 2.8%.
MARGIN_S = 0.25

#: Set-up is mostly interpreter start-up and imports in child processes,
#: which the kernel does not follow (scaling set-up by it widened its
#: spread).  Its reference is a fresh interpreter importing these standard
#: modules, timed just before each set-up; on ten runs of seven ``symbolic``
#: set-ups it cut the spread from 21% to 5%.
IMPORT_REFERENCE = (
    "import argparse, asyncio, dataclasses, decimal, email.mime.multipart, "
    "http.server, json, logging, sqlite3, typing, unittest, xml.dom.minidom"
)

#: The import reference's time at the reference speed (about its typical
#: time on the host the baseline in README.md was measured on).
IMPORT_REFERENCE_S = 0.17


def import_seconds() -> float:
    """One timed run of :data:`IMPORT_REFERENCE` in a fresh interpreter."""

    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], check=True)
    return time.perf_counter() - began


def kernel_seconds() -> float:
    """One timed run of the reference kernel (collector paused, so the
    program's heap size does not leak into the kernel's time)."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        table: dict = {}
        for i in range(600):
            terms = table.setdefault((i % 37, i % 11, f"v{i % 13}"), {})
            terms[i % 7] = terms.get(i % 7, 0) + i
        sorted(
            ((key, tuple(sorted(terms.items()))) for key, terms in table.items()),
            key=repr,
        )
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel samples over time, and the scale factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernels: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        seconds = kernel_seconds()
        self.times.append(started)
        self.kernels.append(seconds)

    def factor(self, began: float, ended: float) -> float:
        """``REFERENCE_MS / kernel time``, the kernel time being the median
        of the samples from :data:`MARGIN_S` before ``began`` to as long
        after ``ended`` (and at least two on either side)."""

        times = self.times
        low = min(
            bisect.bisect_left(times, began - MARGIN_S),
            bisect.bisect_left(times, began) - 2,
        )
        high = max(
            bisect.bisect_right(times, ended + MARGIN_S),
            bisect.bisect_right(times, ended) + 2,
        )
        nearby = self.kernels[max(0, low) : high]
        return REFERENCE_MS / 1000.0 / statistics.median(nearby)

    def normalized(self, began: float, ended: float) -> float:
        """``ended - began`` in reference seconds."""

        return (ended - began) * self.factor(began, ended)

    def median_ms(self) -> float:
        return statistics.median(self.kernels) * 1000.0


class SpeedProbe:
    """Samples the kernel every ``interval`` seconds into a :class:`SpeedLog`
    for the ``serve`` window, whose units run in the daemon.  The samples
    are taken in a child process: in this one the kernel would wait for the
    GIL behind the load generator's threads, and time our own load rather
    than the host.  ``perf_counter`` is the system-wide monotonic clock, so
    the child's sample times line up with this process's."""

    def __init__(self, log: SpeedLog, interval: float = 0.02):
        self.log = log
        self.interval = interval
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self.interval)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        # Closing its stdin stops the child, which then prints its samples.
        output, _ = self._process.communicate(b"", timeout=60)
        times, kernels = json.loads(output)
        samples = sorted(zip(self.log.times + times, self.log.kernels + kernels))
        self.log.times = [began for began, _seconds in samples]
        self.log.kernels = [seconds for _began, seconds in samples]


def _probe(interval: float) -> None:
    stopped = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        stopped.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    log = SpeedLog()
    while not stopped.is_set():
        log.sample()
        stopped.wait(interval)
    json.dump([log.times, log.kernels], sys.stdout)


if __name__ == "__main__":
    _probe(float(sys.argv[1]))
