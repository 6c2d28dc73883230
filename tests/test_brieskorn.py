"""Brieskorn sphere and Milnor fiber invariant tests."""

import itertools
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from brieskorn_oracle import theta_closed_form
from steinkit import brieskorn
from steinkit.brieskorn import (
    BrieskornTriple,
    MilnorInvariants,
    SurgeryDescription,
    seifert_data,
    sigma_closed_form,
    sigma_lattice,
    surgery_to_brieskorn,
)
from steinkit.errors import InvalidParams, InvariantViolation


def coprime_pairs(bound):
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def brute_force_seifert(p1, p2, p3, bound):
    """Independent search oracle for the minimal Seifert data solution."""
    best = None
    for q1 in range(-bound, bound + 1):
        for q2 in range(-bound, bound + 1):
            remainder = 1 - q1 * p2 * p3 - q2 * p1 * p3
            if remainder % (p1 * p2) != 0:
                continue
            q3 = remainder // (p1 * p2)
            key = (abs(q1), q1 < 0, abs(q2), q2 < 0, abs(q3), q3 < 0)
            if best is None or key < best[0]:
                best = (key, (q1, q2, q3))
    return best[1]


class TestTriples:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            BrieskornTriple(1, 2, 3)
        with pytest.raises(InvalidParams):
            BrieskornTriple(2, 4, 5)

    def test_oriented_str(self):
        ob = surgery_to_brieskorn(SurgeryDescription(2, 3, 1, 1))
        assert str(ob) == "-Sigma(2,3,5)"

    def test_record_equality(self):
        """A triple is a tuple record; an oriented sphere equals only its own type."""
        t = BrieskornTriple(p1=2, p2=3, p3=5)
        assert t == (2, 3, 5) and repr(t) == "BrieskornTriple(p1=2, p2=3, p3=5)"
        ob = surgery_to_brieskorn(SurgeryDescription(p=2, q=3, n=1, sign=1))
        assert ob == brieskorn.OrientedBrieskorn(t, -1)
        assert hash(ob) == hash(brieskorn.OrientedBrieskorn(t, -1))
        assert ob != (t, -1) and ob != brieskorn.OrientedBrieskorn(t, 1)
        assert repr(ob) == "OrientedBrieskorn(triple=" + repr(t) + ", sign=-1)"
        with pytest.raises(InvalidParams):
            brieskorn.OrientedBrieskorn(t, 0)
        with pytest.raises(InvalidParams):
            SurgeryDescription(p=2, q=3, n=0, sign=1)


class TestSeifertData:
    def test_spot_values(self):
        assert seifert_data(BrieskornTriple(2, 3, 5)) == brieskorn.SeifertData(1, 1, -4)
        assert seifert_data(BrieskornTriple(2, 3, 7)) == brieskorn.SeifertData(1, -1, -1)

    def test_against_brute_force(self):
        for triple in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 9), (3, 5, 7)]:
            got = seifert_data(BrieskornTriple(*triple))
            assert (got.q1, got.q2, got.q3) == brute_force_seifert(*triple, bound=40)

    def test_equation_holds_up_to_30(self):
        for p1, p2, p3 in itertools.combinations(range(2, 31), 3):
            if math.gcd(p1, p2) != 1 or math.gcd(p1, p3) != 1 or math.gcd(p2, p3) != 1:
                continue
            s = seifert_data(BrieskornTriple(p1, p2, p3))
            assert s.q1 * p2 * p3 + p1 * s.q2 * p3 + p1 * p2 * s.q3 == 1


class TestSurgery:
    def test_paper_cases(self):
        assert surgery_to_brieskorn(SurgeryDescription(2, 3, 1, -1)) == (
            brieskorn.OrientedBrieskorn(BrieskornTriple(2, 3, 7), 1)
        )
        assert surgery_to_brieskorn(SurgeryDescription(2, 3, 1, 1)) == (
            brieskorn.OrientedBrieskorn(BrieskornTriple(2, 3, 5), -1)
        )
        assert surgery_to_brieskorn(SurgeryDescription(2, 5, 2, 1)) == (
            brieskorn.OrientedBrieskorn(BrieskornTriple(2, 5, 19), -1)
        )

    def test_third_multiplicity_at_least_5(self):
        """pq >= 6 and n >= 1, so npq -+ 1 >= 5 for every valid description."""
        for p, q in coprime_pairs(30):
            for n in range(1, 6):
                for sign in (1, -1):
                    ob = surgery_to_brieskorn(SurgeryDescription(p, q, n, sign))
                    assert ob.triple == (p, q, n * p * q - sign)
                    assert ob.triple.p3 >= 5 and ob.sign == -sign


class TestSigmaLattice:
    def test_poincare_sphere(self):
        assert sigma_lattice(BrieskornTriple(2, 3, 5)) == -8

    def test_permutation_invariance(self):
        values = {
            sigma_lattice(BrieskornTriple(*perm))
            for perm in itertools.permutations((2, 3, 5))
        }
        assert values == {-8}
        values = {
            sigma_lattice(BrieskornTriple(*perm))
            for perm in itertools.permutations((3, 4, 7))
        }
        assert len(values) == 1

    def test_matches_closed_form_on_family(self):
        for p, q in coprime_pairs(6):
            for n in (1, 2, 3):
                assert sigma_lattice(
                    BrieskornTriple(p, q, n * p * q - 1)
                ) == sigma_closed_form(p, q, n)


class TestClosedForms:
    def test_sigma_spot_values(self):
        assert sigma_closed_form(2, 3, 1) == -8
        assert sigma_closed_form(2, 3, 2) == -16
        assert sigma_closed_form(3, 4, 1) == -40

    def test_theta_spot_values(self):
        for n in range(1, 6):
            assert theta_closed_form(2, 3, n) == 6
        assert theta_closed_form(2, 7, 1) == -2
        assert theta_closed_form(3, 4, 1) == -2

    @given(st.integers(2, 10**30), st.integers(1, 10**30), st.integers(1, 10**30))
    def test_theta_is_minus_three_sigma_minus_two_chi(self, p, step, n):
        """The identity that made a run-time comparison of theta with its
        closed form restate the comparison of sigma with its own."""
        q = p + step
        assume(math.gcd(p, q) == 1)
        chi = (p - 1) * (q - 1) * (n * p * q - 2) + 1
        theta = theta_closed_form(p, q, n)
        assert theta == -3 * sigma_closed_form(p, q, n) - 2 * chi
        assert theta % 4 == 2

    def test_divisibility(self):
        for p, q in coprime_pairs(12):
            assert (p * p - 1) * (q * q - 1) % 3 == 0


class TestMilnorInvariants:
    def test_poincare_sphere(self):
        inv = brieskorn.milnor_invariants(BrieskornTriple(2, 3, 5))
        assert inv == MilnorInvariants(b2=8, chi=9, sigma=-8, theta_boundary=6)

    def test_theta_minus_two_cases(self):
        assert brieskorn.milnor_invariants(BrieskornTriple(2, 7, 13)).theta_boundary == -2
        assert brieskorn.milnor_invariants(BrieskornTriple(3, 4, 11)).theta_boundary == -2

    def test_237(self):
        inv = brieskorn.milnor_invariants(BrieskornTriple(2, 3, 7))
        assert inv.b2 == 12
        assert inv.chi == 13
        assert abs(inv.sigma) <= inv.b2
        assert inv.theta_boundary == -2 * inv.chi - 3 * inv.sigma

    def test_theta_congruence(self):
        for triple in [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 13)]:
            theta = brieskorn.milnor_invariants(BrieskornTriple(*triple)).theta_boundary
            assert theta % 4 == 2

    @pytest.mark.parametrize(
        "triple,shift",
        [((2, 5, 7), 100), ((2, 3, 5), -8), ((2, 5, 7), 1)],
        ids=["sigma-above-b2", "closed-form", "theta-mod-4"],
    )
    def test_cross_checks_raise(self, monkeypatch, triple, shift):
        """A wrong lattice count is an internal fault, not bad input."""
        count = brieskorn.sigma_lattice
        monkeypatch.setattr(brieskorn, "sigma_lattice", lambda t: count(t) + shift)
        with pytest.raises(InvariantViolation):
            brieskorn.milnor_invariants(BrieskornTriple(*triple))

    def test_seifert_cross_check_raises(self, monkeypatch):
        monkeypatch.setattr(brieskorn, "_min_abs_residue", lambda r, m: r % m + 1)
        with pytest.raises(InvariantViolation):
            seifert_data(BrieskornTriple(2, 3, 7))


class TestCassonHarer:
    def test_known_members(self):
        triples = {
            (t.p1, t.p2, t.p3)
            for t in brieskorn.casson_harer_families(6, 4)
        }
        assert (3, 4, 5) in triples  # p=3, n=1, eps=+1
        assert (2, 5, 7) in triples  # p=2, n=3 odd
        assert (2, 3, 13) in triples  # sporadic

    def test_deterministic_and_sorted(self):
        a = brieskorn.casson_harer_families(8, 5)
        b = brieskorn.casson_harer_families(8, 5)
        assert a == b
        keys = [(t.p1, t.p2, t.p3) for t in a]
        assert keys == sorted(keys)
        for t in a:
            assert t.p1 < t.p2 < t.p3

    def test_validation(self):
        with pytest.raises(InvalidParams):
            brieskorn.casson_harer_families(1, 5)
