"""Machine-speed reference that the end-to-end timings are normalised by.

On a small shared host the same pure-Python work runs up to twice as slow
from one minute to the next, and within a single run.  The benchmark
therefore times a fixed reference kernel (a sparse product of two
polynomials with `Fraction` coefficients, the same kind of interpreter work
as the program's) next to the commands it measures: once before and after
every command and, through a SIGALRM interval timer, every SAMPLE_EVERY_S
seconds while a long command runs.  A command's normalised time is its time
scaled by REF_S over the mean reference time of the samples taken while it
ran or within WINDOW_S seconds of it.  (The host switches between a fast
and a slow state, so the samples of one long command are often bimodal: the
mean weighs both states by the time spent in them, where a median would
jump from one to the other.)  It reads in seconds at the speed
at which the kernel takes REF_S, its usual time on a 2-vCPU x86-64 VM with
CPython 3.11, and it moves with the program exactly as the raw time does, but not with the
machine's drift.  The time spent in samples is taken out of the command's
raw time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.003
SAMPLE_EVERY_S = 0.25
WINDOW_S = 0.25

# Set-up time is mostly module loading: reading, unmarshalling and running
# module code, and loading extension libraries, which the kernel above
# tracks poorly.  It is normalised instead by a fresh interpreter that
# imports a fixed set of standard-library modules, several of them
# extension modules, and takes about REF_IMPORT_S at the same speed.
REF_IMPORT_S = 0.09
IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, asyncio, csv, ctypes, decimal, email.mime.multipart, fractions\n"
    "import http.client, json, sqlite3, ssl, statistics, tarfile, unittest\n"
    "import xml.etree.ElementTree, zipfile\n"
    "print(repr(time.perf_counter() - start))\n"
)


def kernel() -> dict:
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in a.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


def reference() -> tuple:
    """(wall, cpu) seconds of the faster of two kernel runs."""
    best = None
    for _ in range(2):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kernel()
        took = (time.perf_counter() - wall0, time.process_time() - cpu0)
        best = took if best is None or took < best else best
    return best


class Speedometer:
    """Reference samples around and inside the timed commands of one process."""

    def __init__(self):
        self.samples = []          # (start, wall, cpu) of each reference()
        self.spent = [0.0, 0.0]    # wall and cpu time taken by sampling

    def sample(self, *_signal_args):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append((wall0, *reference()))
        self.spent[0] += time.perf_counter() - wall0
        self.spent[1] += time.process_time() - cpu0

    def arm(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self, start=float("-inf"), end=float("inf")) -> tuple:
        """Scale factors (wall, cpu) for the span from `start` to `end`, from
        the samples that began within WINDOW_S of it; by default all."""
        lo = bisect.bisect_left(self.samples, start - WINDOW_S, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end + WINDOW_S, key=lambda s: s[0])
        window = self.samples[lo:hi]
        return (REF_S / statistics.fmean(w for _, w, _ in window),
                REF_S / statistics.fmean(c for _, _, c in window))
