"""The segment-graph front trace and the three-check parser, kept as the
oracles of the thread trace and of its one-pass parse.

``_Trace`` below is the trace steinkit used before fronts were traced as
threads, unchanged: one graph node per (gap, slot) segment, components
found by depth-first search. ``invariants``, ``linking_number`` and
``stabilized_events`` are the old per-component rescans on top of it.
Everything is O(events x strands) or worse; it is kept only to check the
thread trace in ``steinkit.fronts`` against.

``parse_front`` below is the parser steinkit used before events became
plain records: it builds one validating ``CheckedEvent`` per line and
checks positions three times, in the parser (negative positions), in the
event and in ``CheckedFront``'s own loop. ``check_parse_agreement``
compares ``fronts.parse_front`` with it.

``check_agreement`` and ``check_parse_agreement`` raise ``AssertionError``
themselves instead of using ``assert``, so the checks also run under
``python -O``:

    PYTHONPATH=src python -O tests/trace_oracle.py

runs the seeded sweeps below and prints how many fronts and front texts
agreed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from steinkit import fronts
from steinkit.errors import (
    ComponentOutOfRange,
    EmptyDiagram,
    InvalidInsertionPoint,
    InvalidPosition,
    MalformedToken,
    UnbalancedDiagram,
    integer,
)
from steinkit.fronts import (
    CROSSING,
    DOWN,
    LEFT_CUSP,
    RIGHT_CUSP,
    UP,
    FrontDiagram,
    FrontEvent,
    LegendrianInvariants,
)


@dataclass(frozen=True)
class Component:
    """One link component: its index, creating event and strand segments."""

    index: int
    created_at: int  # index of the left-cusp event that first creates it
    segments: tuple[tuple[int, int], ...]  # (gap, slot) pairs, sorted


class _Trace:
    """Traversal data for one diagram: segments, components, orientations.

    A *segment* is a horizontal piece of strand between two consecutive
    events, identified by (gap, slot): gap g lies between events g-1 and g,
    slot 0 is the topmost strand in that gap. Every segment has exactly two
    incident connections (its two ends), so segments decompose into cycles,
    one per link component.
    """

    def __init__(self, diagram: FrontDiagram):
        events = diagram.events
        adj: dict[tuple[int, int], list[tuple[tuple[int, int], bool]]] = {}

        def link(a, b, is_cusp):
            adj.setdefault(a, []).append((b, is_cusp))
            adj.setdefault(b, []).append((a, is_cusp))

        # cusp/crossing records as (event_index, upper_segment, lower_segment)
        self.left_cusps: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
        self.right_cusps: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
        self.crossings: list[tuple[int, tuple[int, int], tuple[int, int]]] = []

        strands = 0
        for g, ev in enumerate(events):
            i = ev.position
            if ev.kind == LEFT_CUSP:
                for j in range(strands):
                    link((g, j), (g + 1, j if j < i else j + 2), False)
                link((g + 1, i), (g + 1, i + 1), True)
                self.left_cusps.append((g, (g + 1, i), (g + 1, i + 1)))
                strands += 2
            elif ev.kind == RIGHT_CUSP:
                link((g, i), (g, i + 1), True)
                self.right_cusps.append((g, (g, i), (g, i + 1)))
                for j in range(strands):
                    if j == i or j == i + 1:
                        continue
                    link((g, j), (g + 1, j if j < i else j - 2), False)
                strands -= 2
            else:
                self.crossings.append((g, (g, i), (g, i + 1)))
                for j in range(strands):
                    tgt = i + 1 if j == i else i if j == i + 1 else j
                    link((g, j), (g + 1, tgt), False)

        # Discover components in order of their creating left cusp; orient by
        # pointing the upper branch of that cusp rightward, then propagate
        # (direction flips across cusps, survives crossings and gaps).
        self.comp_of: dict[tuple[int, int], int] = {}
        self.direction: dict[tuple[int, int], int] = {}
        self.components: list[Component] = []
        for event_index, upper, _lower in self.left_cusps:
            if upper in self.comp_of:
                continue
            idx = len(self.components)
            stack = [upper]
            self.comp_of[upper] = idx
            self.direction[upper] = 1
            segs = [upper]
            while stack:
                u = stack.pop()
                for v, is_cusp in adj[u]:
                    d = -self.direction[u] if is_cusp else self.direction[u]
                    if v in self.comp_of:
                        assert self.comp_of[v] == idx
                        assert self.direction[v] == d, "front does not close up"
                        continue
                    self.comp_of[v] = idx
                    self.direction[v] = d
                    segs.append(v)
                    stack.append(v)
            self.components.append(
                Component(idx, event_index, tuple(sorted(segs)))
            )
        assert len(self.comp_of) == len(adj), "untraced strands"

        for c in diagram.orientation_flips:
            if c < len(self.components):
                for seg in self.components[c].segments:
                    self.direction[seg] = -self.direction[seg]


def invariants(tr: _Trace, c: int) -> LegendrianInvariants:
    signed_crossings = 0
    for _g, a, b in tr.crossings:
        if tr.comp_of[a] == c and tr.comp_of[b] == c:
            signed_crossings += tr.direction[a] * tr.direction[b]
    left_cusps = sum(1 for _g, u, _lo in tr.left_cusps if tr.comp_of[u] == c)
    down = up = 0
    for _g, u, _lo in tr.left_cusps:
        if tr.comp_of[u] == c:
            if tr.direction[u] < 0:
                down += 1
            else:
                up += 1
    for _g, u, _lo in tr.right_cusps:
        if tr.comp_of[u] == c:
            if tr.direction[u] > 0:
                down += 1
            else:
                up += 1
    _expect((down - up) % 2 == 0, f"component {c}: odd signed cusp count")
    return LegendrianInvariants(tb=signed_crossings - left_cusps, r=(down - up) // 2)


def linking_number(tr: _Trace, c1: int, c2: int) -> int:
    signed = 0
    for _g, a, b in tr.crossings:
        if {tr.comp_of[a], tr.comp_of[b]} == {c1, c2}:
            signed += tr.direction[a] * tr.direction[b]
    _expect(signed % 2 == 0, f"odd inter-component crossing count {signed}")
    return signed // 2


def stabilized_events(
    tr: _Trace, diagram: FrontDiagram, c: int, direction: str, at: int
) -> tuple[FrontEvent, ...]:
    gap, slot = tr.components[c].segments[at]
    rightward = tr.direction[(gap, slot)] > 0
    if (direction == DOWN) == rightward:
        inserted = (FrontEvent(LEFT_CUSP, slot + 1), FrontEvent(RIGHT_CUSP, slot))
    else:
        inserted = (FrontEvent(LEFT_CUSP, slot), FrontEvent(RIGHT_CUSP, slot + 1))
    return diagram.events[:gap] + inserted + diagram.events[gap:]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_agreement(d: FrontDiagram, stabilize_at=None) -> None:
    """Raise ``AssertionError`` unless the thread trace of ``d`` matches the
    oracle: component order, ``created_at``, crossing signs, tb, r, every
    linking number, the refusal of the insertion point one past each
    component's last segment with the oracle's segment count, and the word
    ``stabilize_diagram`` makes at each ``(c, direction, at)`` of
    ``stabilize_at`` (by default: both directions at the first, middle and
    last segment of every component)."""
    tr = _Trace(d)
    comps = fronts.components(d)
    _expect(
        [(c.index, c.created_at) for c in comps]
        == [(c.index, c.created_at) for c in tr.components],
        "components differ",
    )
    for c in tr.components:
        n = len(c.segments)
        try:
            fronts.stabilize_diagram(d, c.index, UP, n)
        except InvalidInsertionPoint as exc:
            _expect(
                str(exc) == f"insertion point {n} with {n} segments",
                f"component {c.index}: {exc}",
            )
        else:
            raise AssertionError(f"component {c.index}: insertion point {n} taken")
    _expect(
        [d._sign[a] * d._sign[b] for a, b in d._crossings]
        == [tr.direction[a] * tr.direction[b] for _g, a, b in tr.crossings],
        "crossing signs differ",
    )
    for c in range(len(comps)):
        got, want = fronts.invariants(d, c), invariants(tr, c)
        _expect(got == want, f"component {c}: {got} != {want}")
        for c2 in range(c + 1, len(comps)):
            got, want = fronts.linking_number(d, c, c2), linking_number(tr, c, c2)
            _expect(got == want, f"lk({c}, {c2}): {got} != {want}")
    if stabilize_at is None:
        stabilize_at = [
            (c.index, direction, at)
            for c in tr.components
            for at in sorted({0, len(c.segments) // 2, len(c.segments) - 1})
            for direction in (UP, DOWN)
        ]
    for c, direction, at in stabilize_at:
        got = fronts.stabilize_diagram(d, c, direction, at).events
        _expect(
            got == stabilized_events(tr, d, c, direction, at),
            f"stabilize_diagram({c}, {direction}, {at}) differs",
        )


@dataclass(frozen=True)
class CheckedEvent:
    """steinkit's ``FrontEvent`` before events became plain records."""

    kind: str  # one of LEFT_CUSP, RIGHT_CUSP, CROSSING
    position: int

    def __post_init__(self):
        if self.kind not in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
            raise MalformedToken(f"unknown event kind {self.kind!r}")
        if self.position < 0:
            raise InvalidPosition(f"negative position {self.position}")


@dataclass(frozen=True)
class CheckedFront:
    """steinkit's ``FrontDiagram`` validation before the trace sweep took
    it over: a loop over the events of its own, then the flip range, which
    the trace checked once it had counted the components."""

    events: tuple[CheckedEvent, ...]
    orientation_flips: frozenset[int] = field(default_factory=frozenset)

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
        k = len(_Trace(self).components)
        for c in self.orientation_flips:
            if not 0 <= c < k:
                raise ComponentOutOfRange(f"flip {c} with {k} components")


def parse_front(text: str) -> CheckedFront:
    """Parse the front file format.

    One event per line (``L i``, ``R i`` or ``X i``), optionally followed by
    ``flip k`` lines; ``#`` starts a comment, blank lines are ignored.
    """
    events: list[CheckedEvent] = []
    flips: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedToken(f"line {lineno}: {raw.strip()!r}")
        tag, arg = parts
        try:
            value = integer(arg)
        except ValueError as exc:
            raise MalformedToken(f"line {lineno}: {exc}") from None
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
            events.append(CheckedEvent(tag, value))
        else:
            raise MalformedToken(f"line {lineno}: unknown tag {tag!r}")
    if not events:
        raise EmptyDiagram("no events in front file")
    return CheckedFront(tuple(events), frozenset(flips))


# A position no front in random_front_text reaches.
OUT_OF_RANGE = 10**6
BAD_INTEGERS = ["+1", "1_0", "\u00b2", "\u0663", "0x1", "-", "--1", "", "1" * 5000]


def random_front_text(rng: random.Random) -> tuple[str, str]:
    """A front file and the same file with every negative position made
    ``OUT_OF_RANGE``.

    The word is a random front or braid closure, so lines repeat, written
    in one to three styles: runs of blanks and tabs, leading zeros, ``-0``,
    trailing comments, blank and comment lines, ``\\r\\n`` line ends. Flip
    lines follow, in range or not. Some texts are then broken: a dropped
    ``R``, a bumped position, an unknown tag, a negative position or flip
    index, a bad integer, a third token, an event after the flips, or no
    event at all.
    """
    from test_acceptance import random_front_word

    if rng.random() < 0.5:
        events = [tuple(ev) for ev in random_front_word(rng, max_events=40).events]
    else:
        m = rng.randint(2, 5)
        events = [(LEFT_CUSP, i) for i in range(m)]
        events += [(CROSSING, rng.randrange(m - 1)) for _ in range(rng.randint(0, 60))]
        events += [(RIGHT_CUSP, i) for i in range(m - 1, -1, -1)]
    lines = [[kind, pos] for kind, pos in events]
    lines += [["flip", rng.randint(0, 3)] for _ in range(rng.choice((0, 0, 1, 2)))]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        if not lines:
            break
        at = rng.randrange(len(lines))
        fault = rng.choice(
            ("drop-R", "bump", "tag", "negative", "integer", "tokens", "after-flip", "empty")
        )
        if fault == "drop-R":
            rights = [j for j, (tag, _v) in enumerate(lines) if tag == RIGHT_CUSP]
            if rights:
                del lines[rng.choice(rights)]
        elif fault == "bump" and isinstance(lines[at][1], int):
            lines[at][1] += rng.choice((1, 2, 5))
        elif fault == "tag":
            lines[at][0] = rng.choice(("Z", "l", "x", "LX", "flip", "#L"))
        elif fault == "negative":
            lines[at][1] = -rng.randint(1, 12)
        elif fault == "integer":
            lines[at][1] = rng.choice(BAD_INTEGERS)
        elif fault == "tokens":
            lines[at][1] = f"{lines[at][1]} {rng.randint(0, 3)}"
        elif fault == "after-flip":
            if lines[-1][0] != "flip":
                lines.append(["flip", 0])
            lines.append(list(rng.choice(events)))
        elif fault == "empty":
            lines = [["#", "no events"] for _ in range(rng.randint(0, 2))]
    styles = [
        (
            rng.choice(("", "", " ", "\t")),
            rng.choice((" ", " ", "  ", "\t", " \t ")),
            "0" * rng.choice((0, 0, 1, 3)),
            rng.choice(("", "", " ", "  # c", "#", " # X 9", "\t")),
        )
        for _ in range(rng.randint(1, 3))
    ]
    text, shifted = [], []
    for tag, value in lines:
        lead, gap, zeros, tail = rng.choice(styles)
        if rng.random() < 0.08:
            blank = rng.choice(("", "   ", "# comment", "\t# L 0"))
            text.append(blank)
            shifted.append(blank)
        if isinstance(value, str):
            args = (value, value)
        else:
            if value < 0 and tag in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
                moved = OUT_OF_RANGE
            else:
                moved = value
            minus_zero = value == 0 and rng.random() < 0.1
            args = tuple(
                ("-" if v < 0 or minus_zero else "") + zeros + str(abs(v))
                for v in (value, moved)
            )
        text.append(f"{lead}{tag}{gap}{args[0]}{tail}")
        shifted.append(f"{lead}{tag}{gap}{args[1]}{tail}")
    end = rng.choice(("\n", "\n", "\r\n"))
    last = rng.choice(("", end))
    return end.join(text) + last, end.join(shifted) + last


def _raised_in_parser(exc: BaseException) -> bool:
    """Whether ``exc`` was raised by ``fronts.parse_front`` itself, not by
    the diagram it builds. A bad integer is one: ``parse_front`` raises the
    ``MalformedToken`` for the ``ValueError`` of ``errors.integer``."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code is fronts.parse_front.__code__


def check_parse_agreement(text: str, shifted: str) -> str:
    """Raise ``AssertionError`` unless ``fronts.parse_front(text)`` and the
    oracle's ``parse_front(shifted)`` give the same events and flips, or
    raise errors of one class; returns that class's name, or "ok".

    The oracle read ``shifted``, in which each negative position of
    ``text`` is out of range instead: the trace sweep now reports negative
    positions like any other bad position, after every line is read,
    where the old parser stopped at the line. Messages must match too when
    the two texts are equal or when ``fronts.parse_front`` itself raised.
    """
    try:
        got = fronts.parse_front(text)
    except Exception as exc:  # compared with the oracle's below
        got = exc
    try:
        want = parse_front(shifted)
    except Exception as exc:
        want = exc
    if isinstance(got, Exception) or isinstance(want, Exception):
        _expect(type(got) is type(want), f"{text!r}: {got!r}, oracle {want!r}")
        if text == shifted or _raised_in_parser(got):
            _expect(str(got) == str(want), f"{text!r}: {got!r}, oracle {want!r}")
        return type(got).__name__
    _expect(
        [(ev.kind, ev.position) for ev in got.events]
        == [(ev.kind, ev.position) for ev in want.events],
        f"{text!r}: events differ",
    )
    _expect(got.orientation_flips == want.orientation_flips, f"{text!r}: flips differ")
    return "ok"


def acceptance_sweep():
    """The 200 fronts of acceptance criterion 8, with the stabilization it
    makes on each: yields ``(diagram, (c, direction, at))``. The seeded
    generator is consumed exactly as the criterion consumes it."""
    from test_acceptance import random_front_word

    rng = random.Random(20260825)
    for _ in range(200):
        d = random_front_word(rng)
        comps = _Trace(d).components
        c = rng.randrange(len(comps))
        at = rng.randrange(len(comps[c].segments))
        direction = rng.choice([UP, DOWN])
        rng.randint(0, 4), rng.randint(0, 4)
        yield d, (c, direction, at)


def braid_closures():
    """100 closures of seeded random braids, each with a random set of its
    components flipped."""
    rng = random.Random(1110)
    for _ in range(100):
        m = rng.randint(2, 9)
        events = [FrontEvent(LEFT_CUSP, i) for i in range(m)]
        events += [
            FrontEvent(CROSSING, rng.randrange(m - 1))
            for _ in range(rng.randint(0, 60))
        ]
        events += [FrontEvent(RIGHT_CUSP, i) for i in range(m - 1, -1, -1)]
        k = len(_Trace(FrontDiagram(tuple(events))).components)
        yield FrontDiagram(tuple(events), {c for c in range(k) if rng.random() < 0.4})


def main() -> None:
    checked = 0
    for d, op in acceptance_sweep():
        check_agreement(d)
        check_agreement(d, [op])
        checked += 1
    for d in braid_closures():
        check_agreement(d)
        checked += 1
    rng = random.Random(7707)
    parsed = 0
    for _ in range(2000):
        check_parse_agreement(*random_front_text(rng))
        parsed += 1
    print(f"optimized={not __debug__} agreed={checked} parsed={parsed}")


if __name__ == "__main__":
    main()
