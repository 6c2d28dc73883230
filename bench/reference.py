"""The machine's current speed, from fixed pure-Python kernels.

On a shared host each CPU has slow and fast phases, lasting from a fraction
of a second to minutes, in which the same code takes up to twice as long;
every op slows with them, though not all code alike. The benchmark runs a
kernel just before and just after each op, on the op's CPU, and takes its
*slowness*: its time over its time at the reference speed. The op's time is
scaled by ``slowness ** -exponent``, to about its time at the reference
speed. Each workload names the kernel closest to its own work and the
exponent with which its ops follow that kernel (see ``scale``). A change to
steinkit does not touch the kernels, so scaled times move with the program
much more than with the host.

``mixed`` does the kinds of work the fronts and handlebody layers and the
CLI do: parse lines of text, fill and walk lists of lists, walk a large
list out of order, update a dict, and do Fraction and big-int arithmetic.
``lattice`` does the work of the Brieskorn lattice count. Both use only the
standard library.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

TEXT = "\n".join(f"{'LXR'[i % 3]} {i % 13}" for i in range(3000))
# A fixed shuffle of 20,000 indices: a walk through memory out of order.
ORDER = random.Random(0).sample(range(20_000), 20_000)


def mixed() -> int:
    """A fixed amount of mixed work; returns a checksum so nothing is
    skipped."""
    positions = [int(line.split()[1]) for line in TEXT.splitlines() if line[0] != "R"]
    n = 70
    grid = [[(i * j) % 5 for j in range(n)] for i in range(n)]
    total = sum(x for row in grid for x in row if x)
    seen: dict[int, int] = {}
    for i, p in enumerate(positions):
        seen[p] = seen.get(p, 0) + i
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 17 + 1, i % 23 + 2)
    big = 3**2000
    for i in range(40):
        big = (big * 7 + i) % (10**1200 + 7)
    cells = [(i, i & 7) for i in range(20_000)]
    walked = sum(cells[i][1] for i in ORDER)
    return total + walked + len(seen) + acc.denominator % 97 + big % 97


def scale(kernel: float, exponent: float) -> float:
    """The factor that takes an op's seconds to the reference speed, from
    the kernel's mean seconds just before and just after the op.

    ``exponent`` is the slope of log(op time) over log(kernel time) across
    whole runs of one seed: ops that slow less than the kernel in a slow
    phase have an exponent below 1. Each workload states its own."""
    return (REF_S / kernel) ** exponent


def lattice() -> int:
    """A fixed signed count over the points of a box, the work of
    ``sigma_lattice``: three nested loops of products, a remainder and a
    comparison per point. About 20,000 points."""
    p1, p2, p3 = 5, 13, 421
    a23, a13, a12, volume = p2 * p3, p1 * p3, p1 * p2, p1 * p2 * p3
    count = 0
    for x1 in range(1, p1):
        for x2 in range(1, p2):
            t12 = x1 * a23 + x2 * a13
            for x3 in range(1, p3):
                total = t12 + x3 * a12
                if total % volume == 0:
                    count += 7
                if volume < total < 2 * volume:
                    count -= 1
                else:
                    count += 1
    return count


# Each kernel with about its median time between ops on the machine the
# benchmark was calibrated on (2 vCPUs of a shared host, Python 3.11): the
# reference speed, only a scale, that makes scaled times read roughly as
# times on that machine.
KERNELS = {"mixed": (mixed, 0.010), "lattice": (lattice, 0.004)}


def slowness(kernel: str) -> float:
    """The time one call of the kernel named ``kernel`` takes now, over its
    time at the reference speed."""
    run, reference_s = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) / reference_s


def scale(slow: float, exponent: float) -> float:
    """The factor that takes an op's time to the reference speed, from the
    kernel's mean slowness just before and just after the op.

    ``exponent`` is the slope of log(op time) over log(kernel time) across
    whole runs of one seed: ops that slow less than their kernel in a slow
    phase have an exponent below 1."""
    return slow ** -exponent
