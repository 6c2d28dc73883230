"""Front diagram unit and property tests."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import fronts, legendrian
from steinkit.errors import (
    ComponentOutOfRange,
    EmptyDiagram,
    InvalidInsertionPoint,
    InvalidParams,
    InvalidPosition,
    MalformedToken,
    SameComponent,
    UnbalancedDiagram,
    WorkBudgetExceeded,
)
from steinkit.fronts import (
    FrontDiagram,
    FrontEvent,
    LegendrianInvariants,
    StabilizationSchedule,
    TorusKnotParams,
)

import trace_oracle

UNKNOT = "L 0\nR 0\n"
# Legendrian Hopf link: two clasped eyes, two positive inter-crossings.
HOPF = "L 0\nL 1\nX 0\nX 2\nR 1\nR 0\n"


@st.composite
def front_diagrams(draw, max_events=24):
    """Random valid front words: grow with weighted events, then close up."""
    events = []
    strands = 0
    for _ in range(draw(st.integers(1, max_events))):
        kinds = [fronts.LEFT_CUSP]
        if strands >= 2:
            kinds += [fronts.RIGHT_CUSP, fronts.CROSSING, fronts.CROSSING]
        kind = draw(st.sampled_from(kinds))
        if kind == fronts.LEFT_CUSP:
            events.append(FrontEvent(kind, draw(st.integers(0, strands))))
            strands += 2
        else:
            events.append(FrontEvent(kind, draw(st.integers(0, strands - 2))))
            if kind == fronts.RIGHT_CUSP:
                strands -= 2
    while strands > 0:
        events.append(FrontEvent(fronts.RIGHT_CUSP, draw(st.integers(0, strands - 2))))
        strands -= 2
    return FrontDiagram(tuple(events))


class TestParsing:
    def test_unknot(self):
        d = fronts.parse_front(UNKNOT)
        assert len(fronts.components(d)) == 1

    def test_hand_traced_word(self):
        d = fronts.parse_front("L 0\nL 1\nR 0\nR 0")
        assert len(fronts.components(d)) == 1

    def test_crossing_without_strands(self):
        with pytest.raises(InvalidPosition):
            fronts.parse_front("X 0")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedDiagram):
            fronts.parse_front("L 0")

    def test_empty(self):
        with pytest.raises(EmptyDiagram):
            fronts.parse_front("# just a comment\n")

    def test_malformed_line(self):
        with pytest.raises(MalformedToken):
            fronts.parse_front("L 0\nZ 1\nR 0")

    def test_event_after_flip(self):
        with pytest.raises(MalformedToken):
            fronts.parse_front("L 0\nR 0\nflip 0\nL 0\nR 0")

    def test_flip_out_of_range(self):
        with pytest.raises(ComponentOutOfRange):
            fronts.parse_front("L 0\nR 0\nflip 3")

    def test_comments_and_blank_lines(self):
        d = fronts.parse_front("# front\n\nL 0  # open\nR 0\n")
        assert fronts.invariants(d, 0) == LegendrianInvariants(-1, 0)

    @pytest.mark.parametrize(
        "arg", ["\u00b2", "--0", "-", "+1", "1_0", "\u0663", "0x1", "1" * 5000]
    )
    def test_bad_integer(self, arg):
        with pytest.raises(MalformedToken):
            fronts.parse_front(f"L 0\nR {arg}\n")

    def test_round_trip(self):
        d = fronts.parse_front(HOPF + "flip 1\n")
        assert fronts.parse_front(fronts.serialize_front(d)) == d

    def test_long_integer_under_a_lower_int_str_limit(self):
        """A caller whose process limits str-to-int conversion to 640 digits
        still has a 700-digit position read, and 4,301 digits refused."""
        script = (
            "from steinkit import fronts\n"
            "from steinkit.errors import MalformedToken\n"
            "d = fronts.parse_front('L 0\\nR ' + '0' * 700 + '\\n')\n"
            "print(fronts.invariants(d, 0))\n"
            "try:\n"
            "    fronts.parse_front('L 0\\nR ' + '0' * 4301 + '\\n')\n"
            "except MalformedToken as exc:\n"
            "    print(exc)\n"
        )
        src = Path(fronts.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS="640")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "LegendrianInvariants(tb=-1, r=0)\nline 2: integer too long\n"


class TestComponents:
    def test_unknot_single_component(self):
        assert len(fronts.components(fronts.parse_front(UNKNOT))) == 1

    def test_torus_knot_single_component(self):
        d = fronts.torus_knot_front(TorusKnotParams(2, 3))
        assert len(fronts.components(d)) == 1

    def test_two_disjoint_unknots(self):
        d = fronts.parse_front("L 0\nR 0\nL 0\nR 0")
        comps = fronts.components(d)
        assert len(comps) == 2
        assert comps[0].created_at == 0
        assert comps[1].created_at == 2

    def test_component_budget(self):
        """Up to ``COMPONENT_BUDGET`` components trace; one more is refused
        before the k x k table is built."""
        k = fronts.COMPONENT_BUDGET
        assert len(fronts.components(fronts.parse_front("L 0\nR 0\n" * k))) == k
        with pytest.raises(WorkBudgetExceeded, match=f"has {k + 1} components, more than {k}$"):
            fronts.parse_front("L 0\n" * (k + 1) + "R 0\n" * (k + 1))

    def test_trace_holds_one_table(self):
        """At the component budget the trace holds one k x k table of 8 MB
        (k lists of k pointers); a second table would take the peak to 16 MB."""
        text = "L 0\nR 0\n" * fronts.COMPONENT_BUDGET
        tracemalloc.start()
        try:
            fronts.parse_front(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6

    def test_event_budget(self):
        """Up to ``EVENT_BUDGET`` events trace; one more is refused before the
        sweep reads any, so even a first bad position is not reached."""
        n = fronts.EVENT_BUDGET
        eye = (FrontEvent(fronts.LEFT_CUSP, 0), FrontEvent(fronts.RIGHT_CUSP, 0))
        twists = (FrontEvent(fronts.CROSSING, 0),) * (n - 2)
        d = FrontDiagram(eye[:1] + twists + eye[1:])
        assert len(d.events) == n and len(fronts.components(d)) == 1
        for events in (eye[:1] + twists + twists[:1] + eye[1:], twists[:1] * (n + 1)):
            with pytest.raises(WorkBudgetExceeded, match=f"has {n + 1} events, more than {n}$"):
                FrontDiagram(events)


class TestInvariants:
    def test_unknot(self):
        d = fronts.parse_front(UNKNOT)
        assert fronts.invariants(d, 0) == LegendrianInvariants(tb=-1, r=0)

    def test_trefoil(self):
        d = fronts.torus_knot_front(TorusKnotParams(2, 3))
        assert fronts.invariants(d, 0) == LegendrianInvariants(tb=1, r=0)

    def test_stabilized_unknot_word(self):
        d = fronts.parse_front("L 0\nL 1\nR 0\nR 0")
        assert fronts.invariants(d, 0) == LegendrianInvariants(tb=-2, r=1)

    def test_component_out_of_range(self):
        with pytest.raises(ComponentOutOfRange):
            fronts.invariants(fronts.parse_front(UNKNOT), 1)


class TestLinking:
    def test_disjoint_unknots(self):
        d = fronts.parse_front("L 0\nR 0\nL 0\nR 0")
        assert fronts.linking_number(d, 0, 1) == 0

    def test_clasp(self):
        assert fronts.linking_number(fronts.parse_front(HOPF), 0, 1) == 1

    def test_symmetric(self):
        d = fronts.parse_front(HOPF)
        assert fronts.linking_number(d, 0, 1) == fronts.linking_number(d, 1, 0)

    def test_orientation_reversal_negates(self):
        d = fronts.parse_front(HOPF)
        flipped = FrontDiagram(d.events, frozenset({1}))
        assert fronts.linking_number(flipped, 0, 1) == -1

    def test_same_component(self):
        with pytest.raises(SameComponent):
            fronts.linking_number(fronts.parse_front(HOPF), 0, 0)

    def test_matrix_is_a_copy_of_every_pair(self):
        d = fronts.parse_front(HOPF + "L 0\nR 0\n")
        table = fronts.linking_matrix(d)
        assert table == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        table[0][1] = 7
        assert fronts.linking_matrix(d)[0][1] == fronts.linking_number(d, 0, 1) == 1


class TestStabilization:
    def test_down_then_up(self):
        d = fronts.parse_front(UNKNOT)
        down = fronts.stabilize_diagram(d, 0, fronts.DOWN, 0)
        assert fronts.invariants(down, 0) == LegendrianInvariants(-2, 1)
        up = fronts.stabilize_diagram(d, 0, fronts.UP, 0)
        assert fronts.invariants(up, 0) == LegendrianInvariants(-2, -1)

    def test_component_count_fixed(self):
        d = fronts.parse_front(HOPF)
        out = fronts.stabilize_diagram(d, 1, fronts.DOWN, 2)
        assert len(fronts.components(out)) == 2

    def test_bad_insertion_point(self):
        d = fronts.parse_front(UNKNOT)
        with pytest.raises(InvalidInsertionPoint):
            fronts.stabilize_diagram(d, 0, fronts.DOWN, 99)

    @pytest.mark.parametrize("at", [-1, 8, 10**20], ids=["negative", "one-past-last", "huge"])
    def test_insertion_point_message(self, at):
        """Component 1 of the Hopf front has 8 segments: ``at`` = -1, 8 and
        one past any index a sequence takes are refused with the count (7,
        the last, is taken below)."""
        d = fronts.parse_front(HOPF)
        assert len(trace_oracle._Trace(d).components[1].segments) == 8
        with pytest.raises(InvalidInsertionPoint, match=f"^insertion point {at} with 8 segments$"):
            fronts.stabilize_diagram(d, 1, fronts.DOWN, at)

    def test_last_insertion_point(self):
        d = fronts.parse_front(HOPF)
        gap, slot = trace_oracle._Trace(d).components[1].segments[-1]
        out = fronts.stabilize_diagram(d, 1, fronts.DOWN, 7)
        assert out.events[:gap] + out.events[gap + 2:] == d.events
        assert {ev.position for ev in out.events[gap : gap + 2]} == {slot, slot + 1}
        assert fronts.invariants(out, 1) == legendrian.stabilize_invariants(
            fronts.invariants(d, 1), StabilizationSchedule(0, 1)
        )

    def test_invariant_level(self):
        inv = LegendrianInvariants(1, 0)
        assert legendrian.stabilize_invariants(
            inv, StabilizationSchedule(0, 1)
        ) == LegendrianInvariants(0, 1)
        assert legendrian.stabilize_invariants(
            LegendrianInvariants(5, 0), StabilizationSchedule(0, 3)
        ) == LegendrianInvariants(2, 3)
        assert legendrian.stabilize_invariants(inv, StabilizationSchedule(0, 0)) == inv


class TestRecords:
    def test_value_records_are_tuples(self):
        assert LegendrianInvariants(tb=1, r=0) == (1, 0)
        assert StabilizationSchedule(up=0, down=1) == (0, 1)
        with pytest.raises(InvalidParams):
            StabilizationSchedule(up=-1, down=0)
        assert TorusKnotParams(q=3, p=2).l == 1

    def test_diagram_and_component_equal_only_their_own_type(self):
        d, again = fronts.parse_front(HOPF), fronts.parse_front(HOPF)
        assert d == again and hash(d) == hash(again)
        assert d != (d.events, d.orientation_flips)
        assert d != fronts.parse_front(HOPF + "flip 1\n")
        assert repr(d).startswith("FrontDiagram(events=(FrontEvent(kind='L', position=0)")
        first, second = fronts.components(d)
        assert first == fronts.components(again)[0] and first != second
        assert first != (0, 0) and repr(first) == "Component(index=0, created_at=0)"


class TestReachable:
    def test_paper_schedule(self):
        s = legendrian.reachable(LegendrianInvariants(1, 0), LegendrianInvariants(0, 1))
        assert s == StabilizationSchedule(0, 1)

    def test_tb_cannot_increase(self):
        assert legendrian.reachable(
            LegendrianInvariants(1, 0), LegendrianInvariants(2, 3)
        ) is None

    def test_reflexive(self):
        inv = LegendrianInvariants(-3, 2)
        assert legendrian.reachable(inv, inv) == StabilizationSchedule(0, 0)

    def test_parity_obstruction(self):
        assert legendrian.reachable(
            LegendrianInvariants(0, 0), LegendrianInvariants(-1, 0)
        ) is None


class TestTorusKnotFront:
    @pytest.mark.parametrize(
        "p,q", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]
    )
    def test_contract(self, p, q):
        d = fronts.torus_knot_front(TorusKnotParams(p, q))
        lefts = [e for e in d.events if e.kind == fronts.LEFT_CUSP]
        crossings = [e for e in d.events if e.kind == fronts.CROSSING]
        assert len(lefts) == p
        assert len(crossings) == (p - 1) * q
        assert len(fronts.components(d)) == 1
        inv = fronts.invariants(d, 0)
        assert inv == LegendrianInvariants(tb=(p - 1) * q - p, r=0)
        # maximal representative: slice-genus bound is sharp
        g = (p - 1) * (q - 1) // 2
        assert inv.tb + abs(inv.r) == 2 * g - 1

    def test_trefoil_word(self):
        d = fronts.torus_knot_front(TorusKnotParams(2, 3))
        word = [(e.kind, e.position) for e in d.events]
        assert word == [
            ("L", 0), ("L", 1), ("X", 0), ("X", 0), ("X", 0), ("R", 1), ("R", 0)
        ]

    def test_all_crossings_positive(self):
        d = fronts.torus_knot_front(TorusKnotParams(3, 4))
        signs = [d._sign[a] * d._sign[b] for a, b in d._crossings]
        assert len(signs) == (3 - 1) * 4
        assert all(s == 1 for s in signs)

    @pytest.mark.parametrize(
        "p,q", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]
    )
    def test_schedule_splice_matches_zigzag_loop(self, p, q):
        params = TorusKnotParams(p, q)
        for up in range(5):
            for down in range(5):
                d = fronts.torus_knot_front(params)
                for _ in range(up):
                    d = fronts.stabilize_diagram(d, 0, fronts.UP, 0)
                for _ in range(down):
                    d = fronts.stabilize_diagram(d, 0, fronts.DOWN, 0)
                spliced = fronts.torus_knot_front(
                    params, StabilizationSchedule(up, down)
                )
                assert spliced == d

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            TorusKnotParams(2, 4)
        with pytest.raises(InvalidParams):
            TorusKnotParams(3, 2)


class TestProperties:
    @given(front_diagrams())
    @settings(max_examples=150)
    def test_cusp_balance(self, d):
        lefts = sum(1 for e in d.events if e.kind == fronts.LEFT_CUSP)
        rights = sum(1 for e in d.events if e.kind == fronts.RIGHT_CUSP)
        assert lefts == rights

    @given(front_diagrams())
    @settings(max_examples=150)
    def test_tb_plus_r_odd(self, d):
        for c in fronts.components(d):
            inv = fronts.invariants(d, c.index)
            assert (inv.tb + inv.r) % 2 == 1

    @given(front_diagrams(), st.sampled_from([fronts.UP, fronts.DOWN]), st.data())
    @settings(max_examples=150)
    def test_stabilize_matches_invariant_arithmetic(self, d, direction, data):
        comps = fronts.components(d)
        c = data.draw(st.integers(0, len(comps) - 1))
        at = data.draw(st.integers(0, len(trace_oracle._Trace(d).components[c].segments) - 1))
        before = fronts.invariants(d, c)
        out = fronts.stabilize_diagram(d, c, direction, at)
        schedule = StabilizationSchedule(
            up=1 if direction == fronts.UP else 0,
            down=1 if direction == fronts.DOWN else 0,
        )
        assert fronts.invariants(out, c) == legendrian.stabilize_invariants(
            before, schedule
        )
        # other components untouched
        for other in comps:
            if other.index != c:
                assert fronts.invariants(out, other.index) == fronts.invariants(
                    d, other.index
                )

    @given(front_diagrams(), st.data())
    @settings(max_examples=150)
    def test_orientation_reversal(self, d, data):
        comps = fronts.components(d)
        c = data.draw(st.integers(0, len(comps) - 1))
        flipped = FrontDiagram(d.events, d.orientation_flips ^ {c})
        before = fronts.invariants(d, c)
        after = fronts.invariants(flipped, c)
        assert after.tb == before.tb
        assert after.r == -before.r
        for other in comps:
            if other.index != c:
                assert fronts.linking_number(
                    flipped, c, other.index
                ) == -fronts.linking_number(d, c, other.index)

    @given(
        st.integers(-8, 8), st.integers(-8, 8),
        st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 5), st.integers(0, 5),
    )
    def test_reachable_transitive(self, tb, r, a1, b1, a2, b2):
        start = LegendrianInvariants(tb, r)
        mid = legendrian.stabilize_invariants(start, StabilizationSchedule(a1, b1))
        end = legendrian.stabilize_invariants(mid, StabilizationSchedule(a2, b2))
        assert legendrian.reachable(start, mid) == StabilizationSchedule(a1, b1)
        assert legendrian.reachable(mid, end) == StabilizationSchedule(a2, b2)
        assert legendrian.reachable(start, end) == StabilizationSchedule(a1 + a2, b1 + b2)

    @given(front_diagrams())
    @settings(max_examples=100)
    def test_serialize_round_trip(self, d):
        assert fronts.parse_front(fronts.serialize_front(d)) == d
