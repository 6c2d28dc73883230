"""Brieskorn homology spheres and Milnor fiber invariants.

Everything here is exact integer arithmetic. The Milnor fiber signature
of Sigma(p, q, r) is 8 times its Casson invariant, which Neumann and Wahl
(1990) give in Dedekind sums. With a = pqr and D(h, k) = 12k*s(h, k), an
integer,

    3a*sigma = 1 - a^2 - 3a + p^2q^2 + q^2r^2 + p^2r^2
               - qr*D(qr, p) - pr*D(pr, q) - pq*D(pq, r).

Each D(h, k) is read off the continued fraction h/k = [0; a1, ..., an]
in one Euclid pass (Hickerson, 1977), so sigma costs O(log pqr) integer
steps and needs no work budget. Two lattice-point counts, Brieskorn's
triple loop and one interval of x3 per (x1, x2), are its test oracles.
At run time ``milnor_invariants`` checks sigma against its closed form,
|sigma| <= b2 and theta = 2 mod 4, and each division checks it is exact; a
failed check raises ``InvariantViolation``, so ``python -O`` keeps them.
The closed form of theta is a test oracle only (see ``milnor_invariants``).

The records are ``NamedTuple``s; ``BrieskornTriple`` and
``SurgeryDescription`` check their entries when built. ``OrientedBrieskorn``
is a ``StrictRecord``, not a tuple, so the CLI prints it through ``str``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParams, InvariantViolation, brief
from .legendrian import StrictRecord, TorusKnotParams


class _Triple(NamedTuple):
    p1: int
    p2: int
    p3: int


class BrieskornTriple(_Triple):
    __slots__ = ()

    def __new__(cls, p1: int, p2: int, p3: int):
        ps = (p1, p2, p3)
        if any(p < 2 for p in ps):
            raise InvalidParams(f"multiplicities must be >= 2, got {ps}")
        for a, b in ((p1, p2), (p1, p3), (p2, p3)):
            if math.gcd(a, b) != 1:
                raise InvalidParams(f"multiplicities {ps} not pairwise coprime")
        return tuple.__new__(cls, ps)


class OrientedBrieskorn(StrictRecord):
    """A Brieskorn sphere with a sign: +1 is the link-of-singularity
    orientation. Not a tuple, so that the CLI prints it through ``str``."""

    __slots__ = _key = ("triple", "sign")

    def __init__(self, triple: BrieskornTriple, sign: int):
        if sign not in (1, -1):
            raise InvalidParams(f"sign must be +-1, got {sign}")
        self.triple = triple
        self.sign = sign

    def __str__(self):
        t = self.triple
        prefix = "+" if self.sign == 1 else "-"
        return f"{prefix}Sigma({t.p1},{t.p2},{t.p3})"


class SeifertData(NamedTuple):
    q1: int
    q2: int
    q3: int


class MilnorInvariants(NamedTuple):
    b2: int
    chi: int
    sigma: int
    theta_boundary: int
    c1: int = 0


def _check_pqn(p: int, q: int, n: int) -> None:
    """The one check of the (p, q, n) that +-1/n surgery on T(p, q) and
    ``sigma_closed_form`` take."""
    TorusKnotParams(p, q)
    if n < 1:
        raise InvalidParams(f"n must be positive, got {n}")


class _Surgery(NamedTuple):
    p: int
    q: int
    n: int
    sign: int


class SurgeryDescription(_Surgery):
    """+-1/n surgery on the right-handed (p, q) torus knot."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, n: int, sign: int):
        _check_pqn(p, q, n)
        if sign not in (1, -1):
            raise InvalidParams(f"sign must be +-1, got {sign}")
        return tuple.__new__(cls, (p, q, n, sign))


def _min_abs_residue(residue: int, modulus: int) -> int:
    """The representative of ``residue`` mod ``modulus`` of least absolute
    value, the positive one when both signs achieve it."""
    r = residue % modulus
    return r if 2 * r <= modulus else r - modulus


def seifert_data(t: BrieskornTriple) -> SeifertData:
    """Minimal solution of q1*p2*p3 + p1*q2*p3 + p1*p2*q3 = +1.

    Every solution has q1 = (p2*p3)^-1 mod p1 and q2 = (p1*p3)^-1 mod p2, and
    any such pair gives an integer q3, so the lexicographic minimum of (|q1|,
    |q2|, |q3|), positive at ties, takes q1 and q2 least in absolute value.
    """
    p1, p2, p3 = t.p1, t.p2, t.p3
    q1 = _min_abs_residue(pow(p2 * p3, -1, p1), p1)
    q2 = _min_abs_residue(pow(p1 * p3, -1, p2), p2)
    remainder = 1 - q1 * p2 * p3 - q2 * p1 * p3
    if remainder % (p1 * p2) != 0:
        raise InvariantViolation(
            f"{brief(remainder)} not divisible by {brief(p1 * p2)}"
        )
    # q3 * p1 * p2 is then the remainder, so the three terms sum to 1
    return SeifertData(q1, q2, remainder // (p1 * p2))


def surgery_to_brieskorn(s: SurgeryDescription) -> OrientedBrieskorn:
    """+1/n surgery on T(p,q) yields -Sigma(p,q,npq-1); -1/n yields +Sigma(p,q,npq+1).

    A valid description has pq >= 6 and n >= 1, so npq -+ 1 >= 5."""
    third = s.n * s.p * s.q - s.sign
    return OrientedBrieskorn(
        triple=BrieskornTriple(s.p, s.q, third), sign=-s.sign
    )


def _dedekind(h: int, k: int) -> int:
    """D(h, k) = 12k*s(h, k) for coprime h and k >= 1.

    With h reduced mod k and h/k = [0; a1, ..., an] by Euclid's algorithm,
    D = k*(a1 - a2 + a3 - ...) + h + h' - k*(1 if n is even else 3),
    where h*h' = 1 mod k and 0 < h' < k; D(h, 1) = 0.
    """
    h %= k
    if k == 1:
        return 0
    inverse = pow(h, -1, k)
    alternating, sign = 0, 1
    num, den = k, h
    while den:
        quotient, rem = divmod(num, den)
        alternating += sign * quotient
        sign = -sign
        num, den = den, rem
    # sign is back to +1 exactly when n is even
    return k * alternating + h + inverse - k * (1 if sign == 1 else 3)


def sigma_lattice(t: BrieskornTriple) -> int:
    """Signature of the Milnor fiber, exactly, from three Dedekind sums.

    It equals Brieskorn's lattice-point count: over integer points
    0 < x_i < p_i, with T = x1*p2*p3 + x2*p1*p3 + x3*p1*p2 and
    A = p1*p2*p3, points with T in (0, A) or (2A, 3A) count +1 and points
    with T in (A, 2A) count -1. The count is the test oracle; here sigma
    comes from the module's Dedekind-sum formula in O(log A) steps.
    """
    p, q, r = t.p1, t.p2, t.p3
    for x, y in ((p, q), (p, r), (q, r)):
        if math.gcd(x, y) != 1:
            raise InvariantViolation(f"{brief((p, q, r))} is not pairwise coprime")
    a = p * q * r
    pq, pr, qr = p * q, p * r, q * r
    numerator = (
        1 - a * a - 3 * a + pq * pq + qr * qr + pr * pr
        - qr * _dedekind(qr, p) - pr * _dedekind(pr, q) - pq * _dedekind(pq, r)
    )
    if numerator % (3 * a) != 0:
        raise InvariantViolation(f"3a*sigma of {brief((p, q, r))} is not divisible by 3a")
    return numerator // (3 * a)


def sigma_closed_form(p: int, q: int, n: int) -> int:
    """Signature -n(p^2-1)(q^2-1)/3 of the (p, q, npq-1) Milnor fiber."""
    _check_pqn(p, q, n)
    numerator = -n * (p * p - 1) * (q * q - 1)
    if numerator % 3 != 0:
        raise InvariantViolation(f"{brief(numerator)} not divisible by 3")
    return numerator // 3


def milnor_invariants(t: BrieskornTriple) -> MilnorInvariants:
    """b2, chi, sigma and boundary theta of the Milnor fiber of ``t``.

    When the triple has the form (p, q, npq - 1), sigma is cross-checked
    against ``sigma_closed_form``; sigma is also checked against
    |sigma| <= b2, and theta against theta = 2 mod 4. Theta's closed form
    is a test oracle, as theta = -3 sigma - 2 chi restates the sigma check.
    """
    b2 = (t.p1 - 1) * (t.p2 - 1) * (t.p3 - 1)
    chi = b2 + 1
    sigma = sigma_lattice(t)
    # The fiber lies in a hypersurface of C^3, whose normal bundle is
    # trivial, so its tangent bundle is stably trivial and c1 = 0.
    c1 = 0
    theta = c1 * c1 - 3 * sigma - 2 * chi
    p, q, third = sorted((t.p1, t.p2, t.p3))
    if (third + 1) % (p * q) == 0:
        closed = sigma_closed_form(p, q, (third + 1) // (p * q))
        if sigma != closed:
            raise InvariantViolation(
                f"Sigma{brief(t)}: sigma = {brief(sigma)}, closed form gives {brief(closed)}"
            )
    if abs(sigma) > b2:
        raise InvariantViolation(
            f"Sigma{brief(t)}: |sigma| = {brief(abs(sigma))} exceeds b2 = {brief(b2)}"
        )
    if theta % 4 != 2:
        raise InvariantViolation(f"Sigma{brief(t)}: theta {brief(theta)} is not 2 mod 4")
    return MilnorInvariants(b2=b2, chi=chi, sigma=sigma, theta_boundary=theta, c1=c1)


def casson_harer_families(p_max: int, n_max: int) -> list[BrieskornTriple]:
    """Brieskorn triples bounding contractible 4-manifolds.

    Families: Sigma(p, np+e, np+2e) for p odd and e = +-1;
    Sigma(p, np-1, np+1) for p even and n odd; plus the sporadic
    Sigma(2, 3, 13). Entries sorted within each triple, output
    deduplicated and lexicographically ordered.
    """
    if p_max < 2 or n_max < 2:
        raise InvalidParams("need p_max, n_max >= 2")
    raw: set[tuple[int, int, int]] = {(2, 3, 13)}
    for p in range(2, p_max + 1):
        for n in range(1, n_max + 1):
            if p % 2 == 1:
                for eps in (1, -1):
                    raw.add(tuple(sorted((p, n * p + eps, n * p + 2 * eps))))
            elif n % 2 == 1:
                raw.add(tuple(sorted((p, n * p - 1, n * p + 1))))
    out = []
    for entry in sorted(raw):
        try:
            out.append(BrieskornTriple(*entry))
        except InvalidParams:
            continue
    return out
