"""Acceptance gate: ten end-to-end criteria.

Each test prints a single ``criterion N: PASS``/``FAIL`` line (visible with
``pytest -s``; the ``report`` fixture and its hook are in ``conftest.py``,
where pytest registers the hook) and asserts the criterion
exactly; all values are integer/rational, so tolerances are zero.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from steinkit import brieskorn, criteria, fronts, handlebody, legendrian, linalg
from steinkit.brieskorn import BrieskornTriple
from steinkit.errors import ExcludedCase
from steinkit.fronts import (
    FrontDiagram,
    FrontEvent,
    LegendrianInvariants,
    StabilizationSchedule,
)


def coprime_pairs(bound):
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def random_front_word(rng, max_events=30):
    """Seeded random generator of valid front words (independent of tests)."""
    events = []
    strands = 0
    for _ in range(rng.randint(1, max_events)):
        choices = ["L"]
        if strands >= 2:
            choices += ["R", "X", "X"]
        kind = rng.choice(choices)
        if kind == "L":
            events.append(FrontEvent(fronts.LEFT_CUSP, rng.randint(0, strands)))
            strands += 2
        elif kind == "R":
            events.append(FrontEvent(fronts.RIGHT_CUSP, rng.randint(0, strands - 2)))
            strands -= 2
        else:
            events.append(FrontEvent(fronts.CROSSING, rng.randint(0, strands - 2)))
    while strands > 0:
        events.append(FrontEvent(fronts.RIGHT_CUSP, rng.randint(0, strands - 2)))
        strands -= 2
    return FrontDiagram(tuple(events))


class TestAcceptance:
    def test_criterion_1(self, report):
        start = time.monotonic()
        for p, q in coprime_pairs(6):
            for n in (1, 2, 3):
                lattice = brieskorn.sigma_lattice(
                    BrieskornTriple(p, q, n * p * q - 1)
                )
                closed = -n * (p * p - 1) * (q * q - 1) // 3
                assert n * (p * p - 1) * (q * q - 1) % 3 == 0
                assert lattice == closed
        assert time.monotonic() - start < 5.0

    def test_criterion_2(self, report):
        for p, q in coprime_pairs(6):
            for n in (1, 2, 3):
                inv = brieskorn.milnor_invariants(
                    BrieskornTriple(p, q, n * p * q - 1)
                )
                theta = -2 * inv.chi - 3 * inv.sigma
                assert theta == brieskorn.theta_closed_form(p, q, n)
                assert theta % 4 == 2

    def test_criterion_3(self, report):
        inv = brieskorn.milnor_invariants(BrieskornTriple(2, 3, 5))
        assert (inv.b2, inv.chi, inv.sigma, inv.theta_boundary) == (8, 9, -8, 6)

    def test_criterion_4(self, report):
        for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]:
            d = fronts.torus_knot_front(fronts.TorusKnotParams(p, q))
            lefts = [e for e in d.events if e.kind == fronts.LEFT_CUSP]
            assert len(lefts) == p
            signs = [d._sign[a] * d._sign[b] for a, b in d._crossings]
            assert len(signs) == (p - 1) * q
            assert all(s == 1 for s in signs)
            assert len(fronts.components(d)) == 1
            inv = fronts.invariants(d, 0)
            assert inv == LegendrianInvariants((p - 1) * q - p, 0)
            g = (p - 1) * (q - 1) // 2
            assert inv.tb + abs(inv.r) == 2 * g - 1

    def test_criterion_5(self, report):
        homotopic = set()
        for p, q in coprime_pairs(10):
            if (p, q) in ((2, 3), (2, 5)):
                continue
            if criteria.prop_theta_check(p, q, -1).homotopic:
                homotopic.add((p, q))
        assert homotopic == {(2, 7), (3, 4)}
        for p, q in coprime_pairs(10):
            if p % 3 == 2 and q % 3 == 2:
                rep = criteria.prop_theta_check(p, q, 1)
                assert not rep.homotopic
                assert rep.b2_mod3 != 0

    def test_criterion_6(self, report):
        for p, q in coprime_pairs(7):
            for n in (2, 3, 4):
                data = handlebody.nucleus(p, q, n)
                analysis = handlebody.analyze(data.kirby)
                l = data.fiber_genus
                assert analysis.det == -1
                assert analysis.chi == 3
                assert analysis.signature == 0
                assert analysis.c1_squared == (2 - 2 * l) * (4 - 2 * n * l)
                assert analysis.theta_boundary == -brieskorn.theta_closed_form(p, q, n)

    def test_criterion_7(self, report):
        for p, q in coprime_pairs(10):
            l = (p - 1) * (q - 1) // 2
            plan = criteria.brieskorn_embed_plan(p, q, 1)
            assert plan.schedule == StabilizationSchedule(up=l - 1, down=l)
            assert plan.target == LegendrianInvariants(0, 1)
            if (p, q) not in ((2, 3), (2, 5)):
                plan = criteria.brieskorn_embed_plan(p, q, -1)
                assert plan.schedule == StabilizationSchedule(up=l - 3, down=l)
                assert plan.target == LegendrianInvariants(2, 3)
        with pytest.raises(ExcludedCase):
            criteria.brieskorn_embed_plan(2, 3, -1)
        with pytest.raises(ExcludedCase):
            criteria.brieskorn_embed_plan(2, 5, -1)

    def test_criterion_8(self, report):
        rng = random.Random(20260825)
        checked = 0
        while checked < 200:
            d = random_front_word(rng)
            lefts = sum(1 for e in d.events if e.kind == fronts.LEFT_CUSP)
            rights = sum(1 for e in d.events if e.kind == fronts.RIGHT_CUSP)
            assert lefts == rights
            comps = fronts.components(d)
            for c in comps:
                inv = fronts.invariants(d, c.index)
                assert (inv.tb + inv.r) % 2 == 1
            # stabilization delta on a random component / insertion point
            c = rng.randrange(len(comps))
            at = rng.randrange(len(comps[c].segments))
            direction = rng.choice([fronts.UP, fronts.DOWN])
            before = fronts.invariants(d, c)
            out = fronts.stabilize_diagram(d, c, direction, at)
            schedule = StabilizationSchedule(
                up=int(direction == fronts.UP), down=int(direction == fronts.DOWN)
            )
            assert fronts.invariants(out, c) == legendrian.stabilize_invariants(
                before, schedule
            )
            # orientation reversal negates r, fixes tb
            flipped = FrontDiagram(d.events, d.orientation_flips ^ {c})
            after = fronts.invariants(flipped, c)
            assert (after.tb, after.r) == (before.tb, -before.r)
            # reachable: reflexive and consistent with an explicit schedule
            assert legendrian.reachable(before, before) == StabilizationSchedule(0, 0)
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            stepped = legendrian.stabilize_invariants(
                before, StabilizationSchedule(a, b)
            )
            assert legendrian.reachable(before, stepped) == StabilizationSchedule(a, b)
            further = legendrian.stabilize_invariants(
                stepped, StabilizationSchedule(b, a)
            )
            assert legendrian.reachable(before, further) == StabilizationSchedule(
                a + b, a + b
            )
            checked += 1
        assert checked >= 200

    def test_criterion_9(self, report):
        rng = random.Random(41)
        for _ in range(100):
            diag = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            m = [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]
            det, sig, _ = linalg.form(m, [0] * len(diag))
            assert det == math.prod(diag)
            assert sig == sum((d > 0) - (d < 0) for d in diag)
        e8 = [
            [-2, 1, 0, 0, 0, 0, 0, 0],
            [1, -2, 1, 0, 0, 0, 0, 0],
            [0, 1, -2, 1, 0, 0, 0, 0],
            [0, 0, 1, -2, 1, 0, 0, 0],
            [0, 0, 0, 1, -2, 1, 0, 1],
            [0, 0, 0, 0, 1, -2, 1, 0],
            [0, 0, 0, 0, 0, 1, -2, 0],
            [0, 0, 0, 0, 1, 0, 0, -2],
        ]
        det, sig, _ = linalg.form(e8, [0] * 8)
        assert det == 1
        assert sig == -8
        # c1^2 == sigma (mod 8) for every unimodular form we can analyze
        unimodular_seen = 0
        for p, q in coprime_pairs(7):
            for n in (2, 3, 4):
                analysis = handlebody.analyze(handlebody.nucleus(p, q, n).kirby)
                if abs(analysis.det) == 1:
                    unimodular_seen += 1
                    assert isinstance(analysis.c1_squared, (int, Fraction))
                    assert (analysis.c1_squared - analysis.signature) % 8 == 0
        assert unimodular_seen > 0

    def test_criterion_10(self, report):
        import itertools

        for p1, p2, p3 in itertools.combinations(range(2, 31), 3):
            if (
                math.gcd(p1, p2) != 1
                or math.gcd(p1, p3) != 1
                or math.gcd(p2, p3) != 1
            ):
                continue
            s = brieskorn.seifert_data(BrieskornTriple(p1, p2, p3))
            assert s.q1 * p2 * p3 + p1 * s.q2 * p3 + p1 * p2 * s.q3 == 1
        assert brieskorn.seifert_data(BrieskornTriple(2, 3, 5)) == (
            brieskorn.SeifertData(1, 1, -4)
        )
        assert brieskorn.seifert_data(BrieskornTriple(2, 3, 7)) == (
            brieskorn.SeifertData(1, -1, -1)
        )

        def brute(p1, p2, p3, bound=40):
            best = None
            for q1 in range(-bound, bound + 1):
                for q2 in range(-bound, bound + 1):
                    rem = 1 - q1 * p2 * p3 - q2 * p1 * p3
                    if rem % (p1 * p2):
                        continue
                    q3 = rem // (p1 * p2)
                    key = (abs(q1), q1 < 0, abs(q2), q2 < 0, abs(q3), q3 < 0)
                    if best is None or key < best[0]:
                        best = (key, (q1, q2, q3))
            return best[1]

        for triple in [(2, 3, 5), (2, 3, 7)]:
            s = brieskorn.seifert_data(BrieskornTriple(*triple))
            assert (s.q1, s.q2, s.q3) == brute(*triple)
