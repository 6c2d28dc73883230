"""The two lattice-point counts ``brieskorn.sigma_lattice`` used before
the Dedekind-sum formula, the two definitions of D(h, k) = 12k*s(h, k)
that ``brieskorn._dedekind`` replaces, and the closed form of theta that
``brieskorn.milnor_invariants`` no longer compares with, kept as oracles.

``sigma_lattice`` below is Brieskorn's triple loop: it visits every
lattice point. ``sigma_intervals`` counts one interval of x3 per (x1, x2)
in (p1-1)*(p2-1) steps. ``check_agreement`` compares outcomes, a value or
an ``InvariantViolation``, and raises ``AssertionError`` itself instead of
using ``assert``, so the check also runs under ``python -O``:

    PYTHONPATH=src python -O tests/brieskorn_oracle.py

runs both sweeps below and prints how many triples agreed and how many of
them raised in both lattice counts.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

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


def sigma_intervals(t: BrieskornTriple) -> int:
    """The lattice count of ``sigma_lattice``, by intervals: sigma =
    b2 - 2*#negative, and with p3 the largest multiplicity the x3 with T in
    (A, 2A) form an interval for each (x1, x2), counted by two floor
    divisions in (p1-1)*(p2-1) steps."""
    p1, p2, p3 = sorted((t.p1, t.p2, t.p3))
    a23 = p2 * p3
    a13 = p1 * p3
    a12 = p1 * p2
    total_volume = a12 * p3
    negative = 0
    for x1 in range(1, p1):
        t1 = x1 * a23
        for x2 in range(1, p2):
            t12 = t1 + x2 * a13
            # T = A*(x1/p1 + x2/p2 + x3/p3) is a multiple of A for some x3
            # exactly when a12 | t12 and x3 = -t12/a12 mod p3 is not 0
            if t12 % a12 == 0 and (t12 // a12) % p3 != 0:
                x3 = -(t12 // a12) % p3
                raise InvariantViolation(
                    f"T = {t12 + x3 * a12} divisible by {total_volume} at "
                    f"({x1}, {x2}, {x3}) of {(p1, p2, p3)}"
                )
            # A < t12 + x3*a12 < 2A for lo <= x3 <= hi
            lo = max(1, (total_volume - t12) // a12 + 1)
            hi = min(p3 - 1, (2 * total_volume - t12 - 1) // a12)
            if hi >= lo:
                negative += hi - lo + 1
    return (p1 - 1) * (p2 - 1) * (p3 - 1) - 2 * negative


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def dedekind_fraction(h: int, k: int) -> int:
    """12k * s(h, k) from the definition s(h, k) = sum ((i/k))((hi/k))."""
    s = sum(_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k))
    value = 12 * k * s
    if value.denominator != 1:
        raise AssertionError(f"12k*s({h}, {k}) = {value} is not an integer")
    return value.numerator


def dedekind_reciprocity(h: int, k: int) -> int:
    """12k * s(h, k) for coprime 0 < h < k by reciprocity:
    D(h, k) = (h^2 + k^2 + 1 - 3hk - k*D(k mod h, h)) / h, D(1, k) =
    (k-1)(k-2), each division checked exact."""
    if h == 1:
        return (k - 1) * (k - 2)
    numerator = h * h + k * k + 1 - 3 * h * k - k * dedekind_reciprocity(k % h, h)
    if numerator % h != 0:
        raise AssertionError(f"reciprocity step at ({h}, {k}) is not exact")
    return numerator // h


def theta_closed_form(p: int, q: int, n: int) -> int:
    """Plane-field invariant 2l(4 - n(2l - 2)) - 2 of the (p, q, npq-1)
    Milnor fiber boundary, where 2l = (p-1)(q-1), so 2l - 2 = pq-p-q-1,
    for a valid (p, q, n).

    It is -3 * sigma_closed_form - 2 * chi, with chi = b2 + 1 of the fiber,
    so ``milnor_invariants``, which derives theta from sigma, compares only
    sigma with a closed form; ``handlebody.nucleus`` checks its theta
    against the nucleus instead."""
    two_l = (p - 1) * (q - 1)
    return two_l * (4 - n * (two_l - 2)) - 2


def _outcome(count, t):
    try:
        return count(t)
    except InvariantViolation:
        return InvariantViolation


def check_agreement(t) -> bool:
    """Whether both lattice counts raised; ``AssertionError`` when they
    disagree, or when ``brieskorn.sigma_lattice`` does not give their value
    on a pairwise-coprime triple or does not raise on any other."""
    loop = _outcome(sigma_lattice, t)
    intervals = _outcome(sigma_intervals, t)
    if intervals != loop:
        raise AssertionError(f"sigma_intervals({t}) = {intervals}, triple loop {loop}")
    got = _outcome(brieskorn.sigma_lattice, t)
    want = loop if _pairwise_coprime((t.p1, t.p2, t.p3)) else InvariantViolation
    if got != want:
        raise AssertionError(f"sigma_lattice({t}) = {got}, expected {want}")
    return loop is InvariantViolation


def unchecked_triple(p1: int, p2: int, p3: int) -> BrieskornTriple:
    """A ``BrieskornTriple`` built past its validator, so it may share factors."""
    return tuple.__new__(BrieskornTriple, (p1, p2, p3))


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
