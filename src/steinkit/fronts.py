"""Combinatorial Legendrian front diagrams.

A front is stored as an ordered word of Morse events, read left to right
across the plane of the diagram:

* ``L i`` -- a left cusp inserting two new strands at heights ``i`` and
  ``i + 1`` (0 = topmost strand),
* ``R i`` -- a right cusp merging the strands at heights ``i`` and ``i + 1``,
* ``X i`` -- a transverse crossing swapping the strands at ``i`` and ``i + 1``.

Any word that keeps the strand count non-negative and ends with zero strands
describes a geometrically realizable front, so no slope or coordinate data
is stored. All arithmetic is exact integer arithmetic.

Orientation convention: each component is canonically oriented so that the
upper strand of its first-created left cusp points rightward; components
listed in ``orientation_flips`` are reversed. Orientation reverses across
every cusp and is preserved through crossings.

Tracing. A diagram is traced once, when it is built, as threads: an *arc*
is a piece of strand from a left cusp to a right cusp, and one sweep keeps
the list of arcs at each strand height. ``L`` inserts two new arcs, ``R``
joins the two it merges, ``X`` swaps two entries and records the pair.
Arcs meeting at a cusp run in opposite directions, so a union-find over
arcs with a parity bit per arc gives the components (numbered by their
creating left cusp) and every arc's direction. One pass over the recorded
crossings and cusps then gives every tb, every r and the whole linking
matrix; ``components``, ``invariants`` and ``linking_number`` only look
them up. The (gap, slot) segments of a component, which index
``stabilize_diagram``'s insertion points, take one more sweep and are built
only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    ComponentOutOfRange,
    EmptyDiagram,
    InvalidInsertionPoint,
    InvalidParams,
    InvalidPosition,
    InvariantViolation,
    MalformedToken,
    OddInterCrossingCount,
    SameComponent,
    UnbalancedDiagram,
)

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class FrontEvent:
    kind: str  # one of LEFT_CUSP, RIGHT_CUSP, CROSSING
    position: int

    def __post_init__(self):
        if self.kind not in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
            raise MalformedToken(f"unknown event kind {self.kind!r}")
        if self.position < 0:
            raise InvalidPosition(f"negative position {self.position}")


@dataclass(frozen=True)
class LegendrianInvariants:
    tb: int
    r: int


@dataclass(frozen=True)
class StabilizationSchedule:
    """Counts of upward and downward zig-zags.

    Effect on invariants: tb -> tb - up - down, r -> r - up + down.
    """

    up: int
    down: int

    def __post_init__(self):
        if self.up < 0 or self.down < 0:
            raise InvalidParams("schedule counts must be non-negative")


@dataclass(frozen=True)
class TorusKnotParams:
    p: int
    q: int

    def __post_init__(self):
        if not (2 <= self.p < self.q):
            raise InvalidParams(f"need 2 <= p < q, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidParams(f"({self.p}, {self.q}) not coprime")

    @property
    def l(self) -> int:
        # (p-1)(q-1) is even because p, q are coprime.
        return (self.p - 1) * (self.q - 1) // 2

    @property
    def genus(self) -> int:
        return self.l


@dataclass(frozen=True)
class FrontDiagram:
    events: tuple[FrontEvent, ...]
    orientation_flips: frozenset[int] = field(default_factory=frozenset)
    _threads: _Threads = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "orientation_flips", frozenset(self.orientation_flips)
        )
        if not self.events:
            raise EmptyDiagram("front has no events")
        strands = 0
        for k, ev in enumerate(self.events):
            if ev.kind == LEFT_CUSP:
                if ev.position > strands:
                    raise InvalidPosition(
                        f"event {k}: L {ev.position} with {strands} strands"
                    )
                strands += 2
            else:
                if ev.position > strands - 2:
                    raise InvalidPosition(
                        f"event {k}: {ev.kind} {ev.position} with {strands} strands"
                    )
                if ev.kind == RIGHT_CUSP:
                    strands -= 2
        if strands != 0:
            raise UnbalancedDiagram(f"{strands} strands left open")
        object.__setattr__(self, "_threads", _Threads(self))


@dataclass(frozen=True)
class Component:
    """One link component: its index and creating event.

    ``segments`` are its (gap, slot) pairs, sorted: gap g lies between
    events g-1 and g, and slot 0 is the topmost strand in that gap. They are
    built on first read.
    """

    index: int
    created_at: int  # index of the left-cusp event that first creates it
    _threads: _Threads = field(repr=False, compare=False)

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        return self._threads.segments(self.index)[0]


def _sweep(events):
    """Replay a valid event word: yield ``(event index, kind, upper arc,
    lower arc, heights)`` per event, where the arcs are the two the event
    touches (before a crossing swaps them) and ``heights`` lists the arc at
    each strand height after the event. Arcs are numbered 0, 1, 2, ... in the
    order their left cusps create them, upper arc first. The same list is
    yielded each time, updated in place."""
    heights: list[int] = []
    arcs = 0
    for g, ev in enumerate(events):
        i = ev.position
        if ev.kind == LEFT_CUSP:
            a, b = arcs, arcs + 1
            arcs += 2
            heights[i:i] = (a, b)
        else:
            a, b = heights[i], heights[i + 1]
            if ev.kind == RIGHT_CUSP:
                del heights[i : i + 2]
            else:
                heights[i], heights[i + 1] = b, a
        yield g, ev.kind, a, b, heights


class _Threads:
    """Components, orientations and invariants of one diagram, from one
    sweep over its events (see the module docstring)."""

    def __init__(self, diagram: FrontDiagram):
        parent: list[int] = []  # union-find forest over arcs
        parity: list[int] = []  # 1 if an arc runs opposite to its parent
        size: list[int] = []

        def find(a: int) -> tuple[int, int]:
            p = 0
            while parent[a] != a:
                p ^= parity[a]
                a = parent[a]
            return a, p

        def join(a: int, b: int) -> None:
            """Arcs ``a`` and ``b`` meet at a cusp: opposite directions."""
            (ra, pa), (rb, pb) = find(a), find(b)
            if ra == rb:
                if pa == pb:
                    raise InvariantViolation("front does not close up")
                return
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            parity[rb] = pa ^ pb ^ 1
            size[ra] += size[rb]

        lefts: list[tuple[int, int]] = []  # (event index, upper arc)
        rights: list[int] = []  # upper arc
        crossings: list[tuple[int, int]] = []  # (upper arc, lower arc)
        for g, kind, a, b, _heights in _sweep(diagram.events):
            if kind == CROSSING:
                crossings.append((a, b))
                continue
            if kind == LEFT_CUSP:
                parent += (a, b)
                parity += (0, 0)
                size += (1, 1)
                lefts.append((g, a))
            else:
                rights.append(a)
            join(a, b)
        if 2 * len(rights) != len(parent):
            raise InvariantViolation("untraced strands")

        # Number components by their creating left cusp and orient each so
        # that the upper arc of that cusp points rightward, then flip.
        roots = [find(a) for a in range(len(parent))]
        comp_of_root: dict[int, int] = {}
        sign_of_root: dict[int, int] = {}
        self.created_at: list[int] = []
        for g, a in lefts:
            root, p = roots[a]
            if root not in comp_of_root:
                comp_of_root[root] = len(self.created_at)
                sign_of_root[root] = -1 if p else 1
                self.created_at.append(g)
        k = len(self.created_at)
        for c in diagram.orientation_flips:
            if not 0 <= c < k:
                raise ComponentOutOfRange(f"flip {c} with {k} components")
        for root, c in comp_of_root.items():
            if c in diagram.orientation_flips:
                sign_of_root[root] = -sign_of_root[root]
        comp = [comp_of_root[root] for root, _p in roots]
        sign = [-sign_of_root[root] if p else sign_of_root[root] for root, p in roots]

        # One pass over crossings and cusps gives every tb, r and lk.
        signed = [[0] * k for _ in range(k)]  # by (upper, lower) component
        self.crossing_signs = tuple(sign[a] * sign[b] for a, b in crossings)
        for (a, b), s in zip(crossings, self.crossing_signs):
            signed[comp[a]][comp[b]] += s
        # A left cusp is traversed downward iff its upper arc points
        # leftward; a right cusp iff its upper arc points rightward.
        twice_r = [0] * k
        left_cusps = [0] * k
        for _g, u in lefts:
            twice_r[comp[u]] -= sign[u]
            left_cusps[comp[u]] += 1
        for u in rights:
            twice_r[comp[u]] += sign[u]
        self.invariants: list[LegendrianInvariants] = []
        for c in range(k):
            if twice_r[c] % 2 != 0:
                raise InvariantViolation(
                    f"component {c}: odd signed cusp count {twice_r[c]}"
                )
            self.invariants.append(LegendrianInvariants(
                tb=signed[c][c] - left_cusps[c], r=twice_r[c] // 2
            ))
        self.linking = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                lk2 = signed[i][j] + signed[j][i]
                if lk2 % 2 != 0:
                    raise OddInterCrossingCount(
                        f"odd inter-component crossing count {lk2}"
                    )
                self.linking[i][j] = self.linking[j][i] = lk2 // 2

        self._events = diagram.events
        self._comp = comp
        self.sign = sign
        self._segments: dict[int, tuple[tuple[tuple[int, int], ...], list[int]]] = {}

    def segments(self, c: int) -> tuple[tuple[tuple[int, int], ...], list[int]]:
        """Sorted (gap, slot) segments of component ``c`` and the arc on
        each; built by one more sweep on first request."""
        if c not in self._segments:
            comp = self._comp
            segs: list[tuple[int, int]] = []
            arcs: list[int] = []
            for g, _kind, _a, _b, heights in _sweep(self._events):
                for slot, arc in enumerate(heights):
                    if comp[arc] == c:
                        segs.append((g + 1, slot))
                        arcs.append(arc)
            self._segments[c] = (tuple(segs), arcs)
        return self._segments[c]


def components(diagram: FrontDiagram) -> list[Component]:
    """Components in canonical order (earliest creating event first)."""
    tr = diagram._threads
    return [Component(c, g, tr) for c, g in enumerate(tr.created_at)]


def _check_component(diagram: FrontDiagram, c: int) -> _Threads:
    tr = diagram._threads
    if not 0 <= c < len(tr.created_at):
        raise ComponentOutOfRange(
            f"component {c} with {len(tr.created_at)} components"
        )
    return tr


def invariants(diagram: FrontDiagram, c: int) -> LegendrianInvariants:
    """Thurston-Bennequin invariant and rotation number of component ``c``.

    tb is the signed count of self-crossings minus the count of left cusps;
    the sign of a crossing is the product of the two strands' horizontal
    orientation signs (+1 rightward). r is half the signed cusp count,
    counting a cusp positively when traversed downward.
    """
    return _check_component(diagram, c).invariants[c]


def linking_number(diagram: FrontDiagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between two distinct components."""
    if c1 == c2:
        raise SameComponent(f"component {c1} given twice")
    tr = _check_component(diagram, c1)
    _check_component(diagram, c2)
    return tr.linking[c1][c2]


def stabilize_invariants(
    inv: LegendrianInvariants, schedule: StabilizationSchedule
) -> LegendrianInvariants:
    """Apply a zig-zag schedule at the invariant level."""
    return LegendrianInvariants(
        tb=inv.tb - schedule.up - schedule.down,
        r=inv.r - schedule.up + schedule.down,
    )


def reachable(
    source: LegendrianInvariants, target: LegendrianInvariants
) -> StabilizationSchedule | None:
    """Zig-zag schedule from ``source`` to ``target``, or None.

    tb can only decrease; each zig-zag moves r by exactly 1, so the target
    is reachable iff the tb-drop dominates |Delta r| with matching parity.
    """
    dtb = source.tb - target.tb
    dr = target.r - source.r
    if (dtb - dr) % 2 != 0:
        return None
    up = (dtb - dr) // 2
    down = (dtb + dr) // 2
    if up < 0 or down < 0:
        return None
    return StabilizationSchedule(up=up, down=down)


def stabilize_diagram(
    diagram: FrontDiagram, c: int, direction: str, at: int
) -> FrontDiagram:
    """Insert one zig-zag on component ``c``.

    ``at`` indexes into the component's strand segments, ordered by
    (gap, slot); the two-event rewrite is inserted at that point. A down
    zig-zag yields tb - 1, r + 1; an up zig-zag yields tb - 1, r - 1.
    """
    if direction not in (UP, DOWN):
        raise InvalidParams(f"direction must be 'up' or 'down', got {direction!r}")
    tr = _check_component(diagram, c)
    segments, arcs = tr.segments(c)
    if not 0 <= at < len(segments):
        raise InvalidInsertionPoint(
            f"insertion point {at} with {len(segments)} segments"
        )
    gap, slot = segments[at]
    rightward = tr.sign[arcs[at]] > 0
    # On a rightward strand a down zig-zag dips below (left cusp under the
    # strand, right cusp merging into it); on a leftward strand the roles swap.
    if (direction == DOWN) == rightward:
        inserted = (
            FrontEvent(LEFT_CUSP, slot + 1),
            FrontEvent(RIGHT_CUSP, slot),
        )
    else:
        inserted = (
            FrontEvent(LEFT_CUSP, slot),
            FrontEvent(RIGHT_CUSP, slot + 1),
        )
    events = diagram.events[:gap] + inserted + diagram.events[gap:]
    return FrontDiagram(events, diagram.orientation_flips)


def torus_knot_front(
    params: TorusKnotParams, schedule: StabilizationSchedule | None = None
) -> FrontDiagram:
    """Standard front of the right-handed (p, q) torus knot.

    p left cusps, then q blocks of the positive braid word, then p right
    cusps: exactly (p-1)q crossings, all positive, with tb = (p-1)q - p
    and r = 0.

    A ``schedule`` splices its zig-zags in after the first left cusp, giving
    the word that ``stabilize_diagram(d, 0, UP, 0)`` applied ``up`` times and
    then ``stabilize_diagram(d, 0, DOWN, 0)`` applied ``down`` times give:
    segment 0 is always the rightward upper arc of that cusp.
    """
    p, q = params.p, params.q
    events = [FrontEvent(LEFT_CUSP, i) for i in range(p)]
    for _ in range(q):
        events.extend(FrontEvent(CROSSING, i) for i in range(p - 1))
    events.extend(FrontEvent(RIGHT_CUSP, i) for i in range(p - 1, -1, -1))
    if schedule is not None:
        down = (FrontEvent(LEFT_CUSP, 1), FrontEvent(RIGHT_CUSP, 0))
        up = (FrontEvent(LEFT_CUSP, 0), FrontEvent(RIGHT_CUSP, 1))
        events[1:1] = down * schedule.down + up * schedule.up
    return FrontDiagram(tuple(events))


def parse_front(text: str) -> FrontDiagram:
    """Parse the front file format.

    One event per line (``L i``, ``R i`` or ``X i``), optionally followed by
    ``flip k`` lines; ``#`` starts a comment, blank lines are ignored.
    """
    events: list[FrontEvent] = []
    flips: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedToken(f"line {lineno}: {raw.strip()!r}")
        tag, arg = parts
        digits = arg[1:] if arg.startswith("-") else arg
        if not (digits.isascii() and digits.isdigit()):  # -?[0-9]+
            raise MalformedToken(f"line {lineno}: bad integer {arg!r}")
        try:
            value = int(arg)
        except ValueError:  # more digits than int() converts
            raise MalformedToken(f"line {lineno}: integer too long") from None
        if tag == "flip":
            if value < 0:
                raise MalformedToken(f"line {lineno}: negative flip index")
            flips.add(value)
        elif tag in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
            if flips:
                raise MalformedToken(
                    f"line {lineno}: event after flip lines"
                )
            if value < 0:
                raise InvalidPosition(f"line {lineno}: negative position")
            events.append(FrontEvent(tag, value))
        else:
            raise MalformedToken(f"line {lineno}: unknown tag {tag!r}")
    if not events:
        raise EmptyDiagram("no events in front file")
    return FrontDiagram(tuple(events), frozenset(flips))


def serialize_front(diagram: FrontDiagram) -> str:
    """Inverse of parse_front, up to comments and whitespace."""
    lines = [f"{ev.kind} {ev.position}" for ev in diagram.events]
    lines.extend(f"flip {c}" for c in sorted(diagram.orientation_flips))
    return "\n".join(lines) + "\n"
