"""Host-speed sampler: times a small fixed piece of work every PERIOD_S
seconds on the core the jobs run on, while they run.

Usage: python3 perfbench/sampler.py

The host this benchmark runs on is shared, and a core's speed flips between
a fast and a slow mode (about 1.6 times slower) several times a second, as
other tenants come and go; the share of slow time drifts over minutes.
``run.py`` pins itself, the workload process and this process to one core,
so each sample, which preempts the running job for well under a
millisecond, sees the speed the job sees at that moment. A job's seconds
times REFERENCE_S over the mean of the samples taken while it ran read as
seconds on the core in its fast mode. The work mixes interpreted Python and
small BLAS calls, as limitops does; nothing here imports limitops, so no
change to the program moves the samples.

It samples until its standard input closes, then prints the samples as one
JSON list of ``[monotonic start time, seconds]`` pairs.
"""

import json
import select
import sys
import time

import numpy as np

PERIOD_S = 0.02
# Sample time of the fast mode on the 2-vCPU x86-64 host the bounds in
# BENCHMARK.json were set on (its 5th percentile; the median is ~0.43 ms).
REFERENCE_S = 0.00029

_A = np.random.default_rng(20191).standard_normal((48, 48))


def _python():
    acc = {}
    for i in range(1500):
        acc[i & 63] = acc.get(i & 63, 0) + i


def _blas():
    for _ in range(8):
        _A @ _A


def sample():
    t0 = time.monotonic()
    _python()
    _blas()
    return t0, time.monotonic() - t0


def main():
    for _ in range(50):  # warm-up
        sample()
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append(sample())
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
