"""A fixed amount of pure-Python work, timed to gauge how fast the host
runs Python at the moment.

The 2-core box this benchmark was built on is shared. For minutes at a
time, other tenants slow every process on it by up to 40%, and a
repetition's raw host times move with them. So each repetition times
this work just before and just after its timed phases, and ``run.py``
scales the repetition's host times by ``REFERENCE_S`` over the mean of
the two. They then read as seconds on a host that does this work in
``REFERENCE_S``. The work calls nothing of the program, so a faster
program still reads faster by the same factor.
"""

from __future__ import annotations

import time

#: host seconds :func:`calibrate` takes on the box the benchmark was
#: built on when no other tenant slows it; a fixed constant, so figures
#: stay comparable from one commit to the next
REFERENCE_S = 0.12

_TABLE = tuple((i * 0x1021) & 0xFFFF for i in range(256))
_DATA = bytes(range(256)) * 40


def _work() -> int:
    # Integer arithmetic in the interpreter loop, then a table-driven
    # CRC over bytes: the two kinds of work the simulator spends on.
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    crc = 0
    for _ in range(50):
        for b in _DATA:
            crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ b) & 0xFF]
    return x ^ crc


def calibrate() -> float:
    """Host seconds the fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
