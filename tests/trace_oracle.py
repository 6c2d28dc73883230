"""The segment-graph front trace, kept as the oracle of the thread trace.

``_Trace`` below is the trace steinkit used before fronts were traced as
threads, unchanged: one graph node per (gap, slot) segment, components
found by depth-first search. ``invariants``, ``linking_number`` and
``stabilized_events`` are the old per-component rescans on top of it.
Everything is O(events x strands) or worse; it is kept only to check the
thread trace in ``steinkit.fronts`` against.

``check_agreement`` raises ``AssertionError`` itself instead of using
``assert``, so the check also runs under ``python -O``:

    PYTHONPATH=src python -O tests/trace_oracle.py

runs the seeded sweeps below and prints how many fronts agreed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from steinkit import fronts
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
    oracle: component order, ``created_at``, ``segments``, crossing signs,
    tb, r, every linking number, and the word ``stabilize_diagram`` makes at
    each ``(c, direction, at)`` of ``stabilize_at`` (by default: both
    directions at the first, middle and last segment of every component)."""
    tr = _Trace(d)
    comps = fronts.components(d)
    _expect(
        [(c.index, c.created_at, c.segments) for c in comps]
        == [(c.index, c.created_at, c.segments) for c in tr.components],
        "components differ",
    )
    _expect(
        list(d._threads.crossing_signs)
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
    print(f"optimized={not __debug__} agreed={checked}")


if __name__ == "__main__":
    main()
