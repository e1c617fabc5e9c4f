"""Timing, statistics and resource helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time

clock = time.perf_counter


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """90th percentile; falls back to the maximum below ten samples."""
    values = list(values)
    if len(values) < 10:
        return max(values)
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _square_multiply(base: int, exponent: int, modulus: int) -> int:
    """Left-to-right square-and-multiply in Python, shaped like ``group.double_exp``."""
    acc = 1
    for i in range(exponent.bit_length() - 1, -1, -1):
        acc = acc * acc % modulus
        if (exponent >> i) & 1:
            acc = acc * base % modulus
    return acc


class HostReference:
    """A fixed stdlib-only loop that tracks how fast the shared host runs now.

    One iteration is an interpreted 255-bit square-and-multiply (like
    ``group.double_exp``), a C ``pow`` (like ``group.exp``) and a BLAKE2s
    hash, the kinds of work the workloads spend their time in.  It runs in
    bursts of a few milliseconds interleaved with the timed work, and gives
    two figures for the host's speed during that work:

    - ``slowdown()`` compares its mean rate over all bursts with the nominal
      rate.  Like a throughput or a long set-up, it includes the time the
      host gave the CPU to someone else.
    - ``latency_slowdown()`` compares its median iteration time with the
      nominal one.  Like a median latency of short operations, it leaves most
      such gaps out.

    Both are > 1 when the host runs slower than nominal.  A rate multiplied
    by one, or a time divided by one, is the figure the nominal host would
    have shown.  The loop never touches the package, so no change to the
    program can move it.
    """

    MODULUS = (1 << 255) - 19
    EXPONENT = (1 << 254) + 0x5EED
    ITERATIONS = 24
    #: The rate (iterations/s) the time metrics are scaled to: about what this
    #: loop runs at on the machine in README.md ("Machine").
    NOMINAL_OPS_PER_S = 3000.0

    def __init__(self):
        self.iterations: list[float] = []  # seconds, one per iteration

    def burst(self) -> None:
        acc = 3
        last = clock()
        for _ in range(self.ITERATIONS):
            acc = _square_multiply(acc + 2, self.EXPONENT, self.MODULUS)
            acc = pow(acc + 2, self.EXPONENT, self.MODULUS)
            acc ^= int.from_bytes(hashlib.blake2s(acc.to_bytes(32, "big")).digest()[:4], "big")
            now = clock()
            self.iterations.append(now - last)
            last = now

    def ops_per_s(self) -> float:
        return len(self.iterations) / sum(self.iterations)

    def slowdown(self) -> float:
        return self.NOMINAL_OPS_PER_S / self.ops_per_s()

    def latency_slowdown(self) -> float:
        return median(self.iterations) * self.NOMINAL_OPS_PER_S


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
