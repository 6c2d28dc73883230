"""Decision procedures for embedding and filling criteria.

All checks work at the level of (tb, r) pairs: the hypotheses quantify over
Legendrian representatives, so a caller supplies a known representative
(e.g. via ``fronts.invariants``) and the procedures decide whether zig-zag
stabilization reaches the required target. Each check takes its inputs
as arguments and returns a verdict, a ``NamedTuple`` record or a bool.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ExcludedCase, InvalidParams, InvariantViolation, brief
from .legendrian import (
    LegendrianInvariants, StabilizationSchedule, TorusKnotParams, reachable,
    stabilize_invariants,
)


def __getattr__(name):
    # Only the two checks that name a Brieskorn sphere import ``brieskorn``;
    # its names still read here (the benchmark's tracer tests read
    # ``criteria.milnor_invariants``).
    if name in ("BrieskornTriple", "OrientedBrieskorn", "milnor_invariants"):
        from . import brieskorn
        return getattr(brieskorn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Intersection forms of the two pieces into which a brieskorn_embed_plan
# splits the ruled surface; every plan has the same two.
SPLIT_FORMS = ("<+1>", "<-1>")


class HirzVerdict(NamedTuple):
    embeddable: bool
    schedule: StabilizationSchedule | None


class EmbedPlan(NamedTuple):
    source: LegendrianInvariants
    schedule: StabilizationSchedule
    target: LegendrianInvariants
    framing: int
    boundary: brieskorn.OrientedBrieskorn


class ThetaReport(NamedTuple):
    theta_embed: int  # always -2
    theta_milnor: int
    homotopic: bool
    b2_mod3: int


class CaveVerdict(NamedTuple):
    feasible: bool
    target: LegendrianInvariants | None


class FlipVerdict(NamedTuple):
    feasible: bool
    flips: int | None


def hirz_check(inv0: LegendrianInvariants, n: int, m: int) -> HirzVerdict:
    """Can the n-framed handlebody on a knot with Legendrian representative
    ``inv0`` embed in the ruled surface of parity ``m`` as a section?

    Section embedding criterion: parity m = n mod 2 plus a Legendrian
    representative with tb = n + 1 and r = n + 2."""
    if (m - n) % 2 != 0:
        return HirzVerdict(embeddable=False, schedule=None)
    schedule = reachable(inv0, LegendrianInvariants(tb=n + 1, r=n + 2))
    return HirzVerdict(embeddable=schedule is not None, schedule=schedule)


def _check_pq_eps(p: int, q: int, eps: int) -> int:
    """l = (p-1)(q-1)/2 of T(p, q), once (p, q, eps) passes the checks of
    ``brieskorn_embed_plan`` and ``prop_theta_check``, in their order."""
    l = TorusKnotParams(p, q).l
    if eps not in (1, -1):
        raise InvalidParams(f"eps must be +-1, got {eps}")
    if eps == -1 and (p, q) in ((2, 3), (2, 5)):
        raise ExcludedCase(f"Sigma({p},{q},{p * q - 1}) is excluded")
    return l


def brieskorn_embed_plan(p: int, q: int, eps: int) -> EmbedPlan:
    """Stabilization schedule splitting a ruled surface along
    Sigma(p, q, pq + eps).

    eps = +1: stabilize the maximal torus-knot front to (0, 1) and frame
    with -1; eps = -1: stabilize to (2, 3) and frame with +1. The two
    excluded cases are Sigma(2,3,5) and Sigma(2,5,9).
    """
    from . import brieskorn
    l = _check_pq_eps(p, q, eps)
    source = LegendrianInvariants(tb=(p - 1) * q - p, r=0)
    if eps == 1:
        schedule = StabilizationSchedule(up=l - 1, down=l)
        target = LegendrianInvariants(tb=0, r=1)
        boundary_sign = 1
    else:
        schedule = StabilizationSchedule(up=l - 3, down=l)
        target = LegendrianInvariants(tb=2, r=3)
        boundary_sign = -1
    if stabilize_invariants(source, schedule) != target:
        raise InvariantViolation(
            f"(up, down) = {brief(schedule)} does not take (tb, r) = "
            f"{brief(source)} to {brief(target)}"
        )
    return EmbedPlan(
        source=source,
        schedule=schedule,
        target=target,
        framing=target.tb - 1,
        boundary=brieskorn.OrientedBrieskorn(
            triple=brieskorn.BrieskornTriple(p, q, p * q + eps), sign=boundary_sign
        ),
    )


def prop_theta_check(p: int, q: int, eps: int) -> ThetaReport:
    """Compare the plane field induced by the ruled-surface embedding
    (theta = -2) with the one induced by the Milnor fiber."""
    from . import brieskorn
    _check_pq_eps(p, q, eps)
    inv = brieskorn.milnor_invariants(brieskorn.BrieskornTriple(p, q, p * q + eps))
    return ThetaReport(
        theta_embed=-2,
        theta_milnor=inv.theta_boundary,
        homotopic=inv.theta_boundary == -2,
        b2_mod3=inv.b2 % 3,
    )


def cave_check(inv_mirror: LegendrianInvariants, k: int) -> CaveVerdict:
    """Pseudoconcave filling criterion for k-surgery: the mirror needs a
    representative with tb = 1 - k and r = +-(2 - k)."""
    for r_sign in (1, -1):
        target = LegendrianInvariants(tb=1 - k, r=r_sign * (2 - k))
        if reachable(inv_mirror, target) is not None:
            return CaveVerdict(feasible=True, target=target)
    return CaveVerdict(feasible=False, target=None)


def flip_reach(r0: int, up: int, down: int, r_target: int) -> FlipVerdict:
    """Can flipping zig-zags move r from r0 to r_target?

    Flipping one up zig-zag to down changes r by +2; down to up by -2, so
    the reachable values are r0 - 2*down .. r0 + 2*up in steps of 2.
    """
    StabilizationSchedule(up, down)  # validates the counts
    delta = r_target - r0
    if delta % 2 != 0 or not -2 * down <= delta <= 2 * up:
        return FlipVerdict(feasible=False, flips=None)
    return FlipVerdict(feasible=True, flips=delta // 2)


def slice_genus_check(inv: LegendrianInvariants, g: int) -> bool:
    """Slice-genus inequality tb + |r| <= 2g - 1."""
    if g < 0:
        raise InvalidParams("genus must be non-negative")
    return inv.tb + abs(inv.r) <= 2 * g - 1
