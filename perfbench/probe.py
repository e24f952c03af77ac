"""A fixed speed probe: for each line read, prints how long it takes, in seconds.

    echo | python3 perfbench/probe.py

run.py keeps it in an interpreter of its own and asks for a timing next
to each sample, so nothing the program under test leaves in the
benchmark's process (heap, allocator or garbage-collector state) changes
its time.  The probe runs the kind of work bgpconv's layers spend their
time on: interpreter loops and numpy calls on 300-element arrays, and
the kernel's draw buffer, millions of exponentials in fresh memory.
Each timing is the median of REPEATS runs.
"""

import statistics
import sys
import time

import numpy as np

REPEATS = 3
BUFFER_LEN = 1 << 21


def probe() -> float:
    rng = np.random.default_rng(12345)
    values = rng.random(300)
    counts = np.zeros(300, dtype=np.int64)
    idx = rng.integers(0, 300, 8)
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        nonzero = np.flatnonzero((values > 0.3) & (counts >= 0))
        acc += int(np.argmin(values[nonzero]))
        counts[idx] += 1
        table = {}
        for k in range(60):
            table[k] = k * i
            acc += table[k] & 7
    acc += int(-np.log1p(-rng.random(BUFFER_LEN)).sum())
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(statistics.median(probe() for _ in range(REPEATS)), flush=True)
