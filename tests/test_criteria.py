"""Embedding and filling criteria tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinkit import brieskorn, criteria, handlebody, legendrian
from steinkit.errors import ExcludedCase, InvalidParams, InvariantViolation
from steinkit.legendrian import LegendrianInvariants, StabilizationSchedule


def coprime_pairs(bound):
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


@pytest.mark.parametrize("p,q", [(1, 3), (3, 3), (3, 2), (2, 4)])
def test_torus_knot_params_checked_in_one_place(p, q):
    """Every (p, q) taker rejects bad parameters through TorusKnotParams."""
    with pytest.raises(InvalidParams) as want:
        legendrian.TorusKnotParams(p, q)
    for call in (
        lambda: brieskorn.SurgeryDescription(p, q, 1, 1),
        lambda: brieskorn.sigma_closed_form(p, q, 1),
        lambda: handlebody.nucleus(p, q, 2),
        lambda: criteria.brieskorn_embed_plan(p, q, 1),
    ):
        with pytest.raises(InvalidParams) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [0, -1])
def test_surgery_params_checked_in_one_place(n):
    """Every (p, q, n) taker rejects n < 1 with one message, and flip_reach
    rejects negative counts through StabilizationSchedule."""
    with pytest.raises(InvalidParams) as want:
        brieskorn.SurgeryDescription(2, 3, n, 1)
    for call in (
        lambda: brieskorn.sigma_closed_form(2, 3, n),
        lambda: handlebody.nucleus(2, 3, n),
    ):
        with pytest.raises(InvalidParams) as got:
            call()
        assert str(got.value) == str(want.value) == f"n must be positive, got {n}"
    with pytest.raises(InvalidParams) as want:
        StabilizationSchedule(0, -1)
    with pytest.raises(InvalidParams) as got:
        criteria.flip_reach(0, -1, 1, 0)
    assert str(got.value) == str(want.value)


class TestHirz:
    def test_trefoil_section(self):
        v = criteria.hirz_check(LegendrianInvariants(1, 0), n=-1, m=1)
        assert v.embeddable
        assert v.schedule == StabilizationSchedule(0, 1)

    def test_unreachable_target(self):
        v = criteria.hirz_check(LegendrianInvariants(1, 0), n=1, m=1)
        assert not v.embeddable

    def test_parity_obstruction(self):
        v = criteria.hirz_check(LegendrianInvariants(1, 0), n=-1, m=2)
        assert not v.embeddable

    @given(
        st.integers(-6, 6), st.integers(-6, 6),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(-5, 5), st.integers(-5, 5),
    )
    def test_monotone_under_stabilization(self, tb, r, a, b, n, m):
        inv = LegendrianInvariants(tb, r)
        stabilized = legendrian.stabilize_invariants(inv, StabilizationSchedule(a, b))
        if criteria.hirz_check(stabilized, n, m).embeddable:
            assert criteria.hirz_check(inv, n, m).embeddable


class TestEmbedPlan:
    def test_positive_eps_trefoil(self):
        plan = criteria.brieskorn_embed_plan(2, 3, 1)
        assert plan.schedule == StabilizationSchedule(0, 1)
        assert plan.target == LegendrianInvariants(0, 1)
        assert str(plan.boundary) == "+Sigma(2,3,7)"

    def test_negative_eps(self):
        plan = criteria.brieskorn_embed_plan(2, 7, -1)
        assert plan.schedule == StabilizationSchedule(0, 3)
        assert plan.target == LegendrianInvariants(2, 3)
        assert str(plan.boundary) == "-Sigma(2,7,13)"

    def test_excluded_cases(self):
        with pytest.raises(ExcludedCase):
            criteria.brieskorn_embed_plan(2, 3, -1)
        with pytest.raises(ExcludedCase):
            criteria.brieskorn_embed_plan(2, 5, -1)

    def test_sweep(self):
        for p, q in coprime_pairs(10):
            plan = criteria.brieskorn_embed_plan(p, q, 1)
            assert legendrian.stabilize_invariants(plan.source, plan.schedule) == plan.target
            assert plan.framing == plan.target.tb - 1
            if (p, q) in ((2, 3), (2, 5)):
                with pytest.raises(ExcludedCase):
                    criteria.brieskorn_embed_plan(p, q, -1)
            else:
                plan = criteria.brieskorn_embed_plan(p, q, -1)
                assert legendrian.stabilize_invariants(plan.source, plan.schedule) == plan.target
                assert plan.framing == plan.target.tb - 1

    def test_schedule_cross_check_raises(self, monkeypatch):
        monkeypatch.setattr(
            criteria, "stabilize_invariants", lambda inv, s: LegendrianInvariants(9, 9)
        )
        with pytest.raises(InvariantViolation):
            criteria.brieskorn_embed_plan(2, 3, 1)


class TestPropTheta:
    def test_homotopic_cases(self):
        assert criteria.prop_theta_check(2, 7, -1).homotopic
        assert criteria.prop_theta_check(3, 4, -1).homotopic

    def test_negative_eps_sweep(self):
        homotopic = set()
        for p, q in coprime_pairs(10):
            if (p, q) in ((2, 3), (2, 5)):
                continue
            report = criteria.prop_theta_check(p, q, -1)
            assert report.theta_embed == -2
            if report.homotopic:
                homotopic.add((p, q))
            if report.theta_milnor == -2:
                assert report.b2_mod3 == 0
        assert homotopic == {(2, 7), (3, 4)}

    def test_positive_eps_two_mod_three(self):
        for p, q in coprime_pairs(10):
            if p % 3 == 2 and q % 3 == 2:
                report = criteria.prop_theta_check(p, q, 1)
                assert not report.homotopic
                assert report.b2_mod3 != 0


class TestCave:
    def test_k1(self):
        v = criteria.cave_check(LegendrianInvariants(1, 0), 1)
        assert v.feasible
        assert v.target in (LegendrianInvariants(0, 1), LegendrianInvariants(0, -1))

    def test_k2(self):
        v = criteria.cave_check(LegendrianInvariants(1, 0), 2)
        assert v.feasible
        assert v.target == LegendrianInvariants(-1, 0)

    def test_target_contract(self):
        for k in range(-3, 8):
            v = criteria.cave_check(LegendrianInvariants(1, 0), k)
            if v.feasible:
                assert v.target.tb + 1 in (v.target.r, -v.target.r)
                assert k == 1 - v.target.tb

    @given(st.integers(-1, 5), st.integers(-6, 6))
    def test_large_k_feasible_when_tb_at_least_minus_one(self, tb, r):
        if (tb + r) % 2 == 0:
            r += 1  # keep tb + r odd as for a genuine knot
        inv = LegendrianInvariants(tb, r)
        k0 = next(
            (k for k in range(-20, 60) if criteria.cave_check(inv, k).feasible), None
        )
        assert k0 is not None
        for k in range(k0, k0 + 30):
            assert criteria.cave_check(inv, k).feasible


class TestFlipReach:
    def test_paper_case(self):
        v = criteria.flip_reach(-3, 2, 0, 1)
        assert v.feasible
        assert v.flips == 2

    def test_parity_infeasible(self):
        assert not criteria.flip_reach(0, 2, 0, 3).feasible

    def test_identity(self):
        v = criteria.flip_reach(4, 0, 0, 4)
        assert v.feasible
        assert v.flips == 0

    def test_range(self):
        assert criteria.flip_reach(0, 1, 2, -4).feasible
        assert not criteria.flip_reach(0, 1, 2, -6).feasible


class TestSliceGenus:
    def test_torus_equality(self):
        for p, q in coprime_pairs(7):
            inv = LegendrianInvariants((p - 1) * q - p, 0)
            g = (p - 1) * (q - 1) // 2
            assert criteria.slice_genus_check(inv, g)
            assert inv.tb + abs(inv.r) == 2 * g - 1

    def test_violated_case(self):
        # the (2,5,9) exclusion: (tb, r) = (2, 3) against genus 2
        assert not criteria.slice_genus_check(LegendrianInvariants(2, 3), 2)

    def test_unknot_boundary_case(self):
        assert criteria.slice_genus_check(LegendrianInvariants(-1, 0), 0)
