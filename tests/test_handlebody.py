"""Stein Kirby data and exact linking-form analysis tests."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinkit import brieskorn, fronts, handlebody, linalg
from steinkit.errors import (
    AsymmetricLinking,
    ExcludedCase,
    FramingMismatch,
    InvariantViolation,
    MalformedToken,
    ParityViolation,
    WorkBudgetExceeded,
)
from steinkit.handlebody import SteinKirbyData, TwoHandle

# Negative definite E8: chain 0..6 with node 7 attached to node 4.
E8 = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 1),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, 0, 0, -2),
)


def diagonal_data(*framings):
    handles = tuple(TwoHandle(tb=f + 1, r=f + 2, framing=f) for f in framings)
    linking = tuple(
        tuple(f if i == j else 0 for j in range(len(framings)))
        for i, f in enumerate(framings)
    )
    return SteinKirbyData(0, handles, linking)


def solve(matrix, rhs):
    """Q^-1 r read off ``linalg.form`` by polarization, or None if det Q = 0:
    x_i = ((e_i + r)^T Q^-1 (e_i + r) - e_i^T Q^-1 e_i - r^T Q^-1 r) / 2."""
    det, _, rqr = linalg.form(matrix, rhs)
    if det == 0:
        return None
    n = len(matrix)
    x = []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        both = linalg.form(matrix, [a + b for a, b in zip(e, rhs)])[2]
        x.append((both - linalg.form(matrix, e)[2] - rqr) / 2)
    return x


class TestLinalg:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_diagonal_oracle(self, diag):
        matrix = [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]
        det, sig, _ = linalg.form(matrix, [0] * len(diag))
        assert det == math.prod(diag)
        assert sig == sum(1 if d > 0 else -1 if d < 0 else 0 for d in diag)

    def test_e8(self):
        assert linalg.form(E8, [0] * 8) == (1, -8, 0)

    def test_hyperbolic_plane(self):
        h = [[0, 1], [1, 0]]
        assert linalg.form(h, [0, 0]) == (-1, 0, 0)

    def test_solve(self):
        x = solve([[0, 1], [1, -2]], [3, 1])
        assert x == [Fraction(7), Fraction(3)]
        assert linalg.form([[0, 1], [1, -2]], [3, 1]) == (-1, 0, 3 * 7 + 1 * 3)

    def test_solve_singular(self):
        assert solve([[1, 1], [1, 1]], [1, 0]) is None
        assert linalg.form([[1, 1], [1, 1]], [1, 0]) == (0, 1, None)

    def test_asymmetric_matrix(self):
        with pytest.raises(InvariantViolation):
            linalg.form([[0, 1], [2, 0]], [0, 0])

    def test_inexact_division_raises(self):
        # Only a non-integer entry can break Bareiss exactness.
        with pytest.raises(InvariantViolation):
            linalg.form([[Fraction(1, 2), 1], [1, 1]], [0, 0])

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    def test_signature_permutation_invariance(self, rows):
        n = len(rows)
        m = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        reversed_m = [[m[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
        v = list(range(1, n + 1))
        assert linalg.form(m, v) == linalg.form(reversed_m, v[::-1])


class TestValidation:
    def test_framing_rule(self):
        with pytest.raises(FramingMismatch):
            SteinKirbyData(0, (TwoHandle(tb=1, r=0, framing=1),), ((1,),))

    def test_diagonal_must_match(self):
        with pytest.raises(AsymmetricLinking):
            SteinKirbyData(0, (TwoHandle(tb=1, r=0, framing=0),), ((5,),))

    def test_symmetry(self):
        with pytest.raises(AsymmetricLinking):
            SteinKirbyData(
                0,
                (TwoHandle(1, 0, 0), TwoHandle(1, 0, 0)),
                ((0, 1), (2, 0)),
            )

    def test_parity(self):
        with pytest.raises(ParityViolation):
            SteinKirbyData(0, (TwoHandle(tb=1, r=1, framing=0),), ((0,),))

    def test_parity_skipped_with_one_handles(self):
        data = SteinKirbyData(1, (TwoHandle(tb=1, r=1, framing=0),), ((0,),))
        assert handlebody.analyze(data).chi == 1


class TestFromFront:
    def test_trefoil(self):
        data = handlebody.from_front(
            fronts.torus_knot_front(fronts.TorusKnotParams(2, 3))
        )
        assert data.two_handles == (TwoHandle(tb=1, r=0, framing=0),)
        assert data.linking == ((0,),)

    def test_unknot(self):
        data = handlebody.from_front(fronts.parse_front("L 0\nR 0"))
        assert data.two_handles == (TwoHandle(tb=-1, r=0, framing=-2),)
        assert data.linking == ((-2,),)

    def test_split_unknots(self):
        data = handlebody.from_front(fronts.parse_front("L 0\nR 0\nL 0\nR 0"))
        assert data.linking == ((-2, 0), (0, -2))


class TestAnalyze:
    def test_nucleus_232(self):
        analysis = handlebody.analyze(handlebody.nucleus(2, 3, 2).kirby)
        assert analysis.chi == 3
        assert analysis.det == -1
        assert analysis.signature == 0
        assert analysis.c1_squared == 0
        assert analysis.theta_boundary == -6
        assert -analysis.theta_boundary == brieskorn.theta_closed_form(2, 3, 2)

    def test_nucleus_342_c1_squared(self):
        analysis = handlebody.analyze(handlebody.nucleus(3, 4, 2).kirby)
        assert analysis.c1_squared == 32 == (2 - 6) * (4 - 12)

    def test_e8_with_zero_chern(self):
        handles = tuple(TwoHandle(tb=-1, r=0, framing=-2) for _ in range(8))
        data = SteinKirbyData(0, handles, E8)
        analysis = handlebody.analyze(data)
        assert analysis.det == 1
        assert analysis.signature == -8
        assert analysis.c1_squared == 0
        assert (analysis.c1_squared - analysis.signature) % 8 == 0

    @pytest.mark.parametrize("c1_squared", [Fraction(1, 2), Fraction(4)])
    def test_cross_checks_raise(self, monkeypatch, c1_squared):
        monkeypatch.setattr(linalg, "form", lambda q, v: (1, 0, c1_squared))
        with pytest.raises(InvariantViolation):
            handlebody.analyze(diagonal_data(-1))

    def test_degenerate_form_omits_optional_fields(self):
        analysis = handlebody.analyze(diagonal_data(0))
        assert analysis.det == 0
        assert analysis.c1_squared is None
        assert analysis.theta_boundary is None


class TestNucleus:
    def test_232(self):
        data = handlebody.nucleus(2, 3, 2)
        assert data.kirby.two_handles == (
            TwoHandle(1, 0, 0), TwoHandle(-1, 0, -2)
        )
        assert data.c1_pd == (0, 0)
        assert data.c1_squared == 0
        assert data.fiber_genus == 1
        assert data.singular_fibers == 12
        assert str(data.boundary) == "-Sigma(2,3,11)"

    def test_341_blown_down(self):
        data = handlebody.nucleus(3, 4, 1)
        assert data.kirby.two_handles == (TwoHandle(tb=2, r=-3, framing=1),)

    def test_231_excluded(self):
        with pytest.raises(ExcludedCase):
            handlebody.nucleus(2, 3, 1)

    def test_blown_down_family(self):
        """n = 1 builds one tb = 2 handle for every valid (p, q) but (2, 3):
        l >= 2 there, so T(p,q) reaches tb = 2 by 2l - 3 >= 1 zig-zags."""
        for p in range(2, 31):
            for q in range(p + 1, 31):
                if math.gcd(p, q) != 1 or (p, q) == (2, 3):
                    continue
                data = handlebody.nucleus(p, q, 1)
                l = data.fiber_genus
                assert 2 * l - 3 >= 1
                assert data.kirby.two_handles == (TwoHandle(tb=2, r=3 - 2 * l, framing=1),)
                assert str(data.boundary) == f"-Sigma({p},{q},{p * q - 1})"
                analysis = handlebody.analyze(data.kirby)
                assert analysis.theta_boundary == -brieskorn.theta_closed_form(p, q, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_consistency(self, n):
        for p in range(2, 8):
            for q in range(p + 1, 8):
                if math.gcd(p, q) != 1:
                    continue
                data = handlebody.nucleus(p, q, n)
                analysis = handlebody.analyze(data.kirby)
                l = data.fiber_genus
                assert analysis.det == -1
                assert analysis.chi == 3
                assert analysis.signature == 0
                assert analysis.c1_squared == (2 - 2 * l) * (4 - 2 * n * l)
                assert analysis.theta_boundary == -brieskorn.theta_closed_form(p, q, n)

    def test_gluing_identity(self):
        assert gluing_sweep() == (849, [(2, 3, 1)])

    def test_gluing_identity_under_optimize(self):
        """The sweep raises instead of asserting, so ``python -O`` keeps it."""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", "import test_handlebody as t; print(t.gluing_sweep())"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(849, [(2, 3, 1)])\n"


def gluing_sweep():
    """The nucleus N and the Milnor fiber M glue along Sigma(p, q, npq - 1),
    which bounds them with opposite orientations: theta of N's boundary,
    from the Bareiss form of its Kirby data, is minus theta of M's, from the
    Dedekind sums. Checked over coprime 2 <= p < q, p < 15, q < 30 and
    n = 1..5; returns the count that agreed and the (p, q, n) excluded."""
    agreed, excluded = 0, []
    for p in range(2, 15):
        for q in range(p + 1, 30):
            if math.gcd(p, q) != 1:
                continue
            for n in range(1, 6):
                try:
                    kirby = handlebody.nucleus(p, q, n).kirby
                except ExcludedCase:
                    excluded.append((p, q, n))
                    continue
                theta_n = handlebody.analyze(kirby).theta_boundary
                milnor = brieskorn.milnor_invariants(brieskorn.BrieskornTriple(p, q, n * p * q - 1))
                if theta_n != -milnor.theta_boundary:
                    raise AssertionError(
                        f"({p}, {q}, {n}): theta(dN) = {theta_n}, theta(dM) = {milnor.theta_boundary}"
                    )
                agreed += 1
    return agreed, excluded


class TestKirbyFiles:
    def test_handle_budget(self):
        """``HANDLE_BUDGET`` handles parse; one more is refused before the
        linking matrix is built."""
        k = handlebody.HANDLE_BUDGET
        assert len(handlebody.parse_kirby("handle tb=2 r=1 framing=1\n" * k).two_handles) == k
        with pytest.raises(WorkBudgetExceeded, match=f"^{k + 1} 2-handles, more than {k}$"):
            handlebody.parse_kirby("handle tb=2 r=1 framing=1\n" * (k + 1))

    @pytest.mark.parametrize(
        "last", ["handle tb={v1} r={v} framing={v}", "handle tb=2 r=1 framing=1\nlk 0 4 {v}"],
        ids=["framing", "lk"],
    )
    def test_bit_budget(self, last):
        """Five handles may have entries of ``BIT_BUDGET / 5`` bits, and not
        one bit more."""
        bits = handlebody.BIT_BUDGET // 5
        text = "handle tb=2 r=1 framing=1\n" * 4 + last + "\n"
        v = 2 ** (bits - 1)
        assert len(handlebody.parse_kirby(text.format(v=v, v1=v + 1)).two_handles) == 5
        with pytest.raises(WorkBudgetExceeded, match=f"^5 2-handles times {bits + 1}-bit"):
            handlebody.parse_kirby(text.format(v=2 * v, v1=2 * v + 1))

    def test_valid_file(self):
        data = handlebody.parse_kirby(
            "# a Stein trefoil handle\n1-handles 0\nhandle tb=1 r=0 framing=0\n"
        )
        assert data.two_handles == (TwoHandle(1, 0, 0),)

    def test_framing_mismatch(self):
        with pytest.raises(FramingMismatch):
            handlebody.parse_kirby("1-handles 0\nhandle tb=1 r=0 framing=1\n")

    def test_malformed(self):
        with pytest.raises(MalformedToken):
            handlebody.parse_kirby("1-handles zero\n")
        with pytest.raises(MalformedToken):
            handlebody.parse_kirby("handle tb=1 r=0\n")
        with pytest.raises(MalformedToken):
            handlebody.parse_kirby("1-handles 0\nlk 1 0 1\n")

    def test_repeated_lk_pair(self):
        """A second line for the same pair is refused, not a silent override."""
        text = "1-handles 0\nhandle tb=1 r=0 framing=0\nhandle tb=-1 r=0 framing=-2\n"
        assert handlebody.parse_kirby(text + "lk 0 1 7\n").linking[0][1] == 7
        with pytest.raises(MalformedToken, match="line 5: duplicate lk 0 1"):
            handlebody.parse_kirby(text + "lk 0 1 1\nlk 0 1 7\n")

    @pytest.mark.parametrize(
        "line",
        [
            "handle tb=1_0 r=0 framing=9",
            "handle tb=1 r=+1 framing=0",
            "handle tb=10 r=0 framing=\u0669",
            "1-handles " + "9" * 5000,
        ],
    )
    def test_integers_are_ascii_digits(self, line):
        with pytest.raises(MalformedToken):
            handlebody.parse_kirby(line + "\n")
