"""The interval count in ``brieskorn.sigma_lattice`` agrees exactly with
the triple loop it replaced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import brieskorn_oracle
from steinkit import brieskorn
from steinkit.brieskorn import BrieskornTriple
from steinkit.errors import WorkBudgetExceeded

TESTS = Path(__file__).resolve().parent
SWEPT = 2_965  # 2,946 ordered triples with entries 2..23, 3 named, 16 seeded
RAISED = 343


def test_coprime_sweep():
    """(7, 11, 153), (11, 13, 285) and (13, 17, 1104) are in the sweep."""
    checked = 0
    for t in brieskorn_oracle.sweep():
        assert brieskorn_oracle.check_agreement(t) is False, t
        checked += 1
    assert checked == SWEPT


def test_shared_factors_raise_on_both_sides():
    """Past the validator, both counts raise ``InvariantViolation`` on the
    same triples and agree on the rest."""
    raised = sum(map(brieskorn_oracle.check_agreement, brieskorn_oracle.shared_factor_sweep()))
    assert raised == RAISED


def test_agreement_under_optimize():
    """The cross-checks in ``sigma_lattice`` and in the agreement check are
    raises, not asserts, so ``python -O`` keeps them."""
    src = TESTS.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", str(TESTS / "brieskorn_oracle.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimized=True", f"agreed={SWEPT}", f"raised={RAISED}"]


def test_work_budget(monkeypatch):
    """The step count is (p1-1)(p2-1) of the two smallest multiplicities."""
    with pytest.raises(WorkBudgetExceeded):
        brieskorn.sigma_lattice(BrieskornTriple(1009, 1013, 1019))
    with pytest.raises(WorkBudgetExceeded):
        brieskorn.milnor_invariants(BrieskornTriple(10**7 + 19, 1009, 1013))
    monkeypatch.setattr(brieskorn, "WORK_BUDGET", 12)
    assert brieskorn_oracle.check_agreement(BrieskornTriple(11, 3, 7)) is False
    with pytest.raises(WorkBudgetExceeded):
        brieskorn.sigma_lattice(BrieskornTriple(11, 3, 8))
