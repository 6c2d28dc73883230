"""The triple loop ``brieskorn.sigma_lattice`` used before the interval
count, kept as its oracle.

``sigma_lattice`` below is unchanged: it visits every lattice point.
``check_agreement`` compares outcomes, a value or an
``InvariantViolation``, and raises ``AssertionError`` itself instead of
using ``assert``, so the check also runs under ``python -O``:

    PYTHONPATH=src python -O tests/brieskorn_oracle.py

runs both sweeps below and prints how many triples agreed and how many of
them raised on both sides.
"""

from __future__ import annotations

import itertools
import math
import random

from steinkit import brieskorn
from steinkit.brieskorn import BrieskornTriple
from steinkit.errors import InvariantViolation

NAMED = ((7, 11, 153), (11, 13, 285), (13, 17, 1104))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def sigma_lattice(t: BrieskornTriple) -> int:
    """Signature of the Milnor fiber by signed lattice-point count.

    Over integer points 0 < x_i < p_i, with T = x1*p2*p3 + x2*p1*p3 +
    x3*p1*p2 and A = p1*p2*p3: points with T in (0, A) or (2A, 3A) count
    +1, points with T in (A, 2A) count -1. T is never a multiple of A.
    """
    p1, p2, p3 = t.p1, t.p2, t.p3
    a23 = p2 * p3
    a13 = p1 * p3
    a12 = p1 * p2
    total_volume = p1 * p2 * p3
    positive = negative = 0
    for x1 in range(1, p1):
        t1 = x1 * a23
        for x2 in range(1, p2):
            t12 = t1 + x2 * a13
            for x3 in range(1, p3):
                total = t12 + x3 * a12
                if total % total_volume == 0:
                    raise InvariantViolation(
                        f"T = {total} divisible by {total_volume} at "
                        f"({x1}, {x2}, {x3})"
                    )
                if total_volume < total < 2 * total_volume:
                    negative += 1
                else:
                    positive += 1
    return positive - negative


def _outcome(count, t):
    try:
        return count(t)
    except InvariantViolation:
        return InvariantViolation


def check_agreement(t) -> bool:
    """Whether both counts raised; ``AssertionError`` when they disagree."""
    got = _outcome(brieskorn.sigma_lattice, t)
    want = _outcome(sigma_lattice, t)
    if got != want:
        raise AssertionError(f"sigma_lattice({t}) = {got}, oracle {want}")
    return got is InvariantViolation


def unchecked_triple(p1: int, p2: int, p3: int) -> BrieskornTriple:
    """A ``BrieskornTriple`` built past its validator, so it may share factors."""
    t = object.__new__(BrieskornTriple)
    for name, value in zip(("p1", "p2", "p3"), (p1, p2, p3)):
        object.__setattr__(t, name, value)
    return t


def _pairwise_coprime(ps) -> bool:
    return all(math.gcd(a, b) == 1 for a, b in itertools.combinations(ps, 2))


def sweep():
    """Every ordered pairwise-coprime triple with entries 2..23, the three
    named triples, then 16 seeded larger triples in a random order: eight
    (p, q, npq +- 1) and eight of three distinct primes below 72."""
    for ps in itertools.product(range(2, 24), repeat=3):
        if _pairwise_coprime(ps):
            yield BrieskornTriple(*ps)
    for ps in NAMED:
        yield BrieskornTriple(*ps)
    rng = random.Random(20111013)
    for _ in range(8):
        p, q = rng.sample(PRIMES[:9], 2)
        ps = (p, q, rng.randint(1, 6) * p * q + rng.choice((1, -1)))
        yield BrieskornTriple(*rng.sample(ps, 3))
    for _ in range(8):
        yield BrieskornTriple(*rng.sample(PRIMES, 3))


def shared_factor_sweep():
    """Every ordered triple with entries 2..12 that is not pairwise coprime."""
    for ps in itertools.product(range(2, 13), repeat=3):
        if not _pairwise_coprime(ps):
            yield unchecked_triple(*ps)


def main() -> None:
    agreed = 0
    for t in sweep():
        if check_agreement(t):
            raise AssertionError(f"both counts raised on the coprime {t}")
        agreed += 1
    raised = sum(map(check_agreement, shared_factor_sweep()))
    print(f"optimized={not __debug__} agreed={agreed} raised={raised}")


if __name__ == "__main__":
    main()
