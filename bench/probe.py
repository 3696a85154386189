"""Host-speed probe: a fixed piece of pure-Python work, independent of ebwt.

The host this benchmark runs on changes speed by tens of percent within
seconds, and wall time and CPU time move together, so the drift is host
speed rather than waiting.  The probe is timed beside every operation and
each operation's time is rescaled by ``NOMINAL_S / probe time``.  Its mix
(tuple sort, dict counting, a permutation cycle walk over a few hundred KB of
objects) follows the allocation-heavy work of the library more closely than a
tight arithmetic loop, which tracked host slowdowns badly.

This module imports only ``time`` so that the set-up measurement, which runs
it in a fresh interpreter before importing ``ebwt.cli``, pre-imports nothing
that the CLI needs.
"""

import time

# Probe time on the reference host (2-CPU x86-64 container, CPython 3.11.7,
# fast state).  Normalised times read as seconds on that host.
NOMINAL_S = 0.010


def _work() -> int:
    x = 12345
    items = []
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        items.append((x >> 8, i, (i % 7, i % 3)))
    items.sort()
    counts = {}
    for a, b, c in items:
        counts[c] = counts.get(c, 0) + (a ^ b)
    perm = [item[1] for item in items]
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles + len(counts)


def probe_s() -> float:
    """Seconds one run of the probe takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
