"""The Dedekind-sum signature in ``brieskorn.sigma_lattice`` agrees
exactly with both lattice counts it replaced, and ``brieskorn._dedekind``
with both definitions of D(h, k) it replaced."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import brieskorn_oracle
from steinkit import brieskorn
from steinkit.brieskorn import BrieskornTriple
from steinkit.errors import InvariantViolation

TESTS = Path(__file__).resolve().parent
SWEPT = 2_965  # 2,946 ordered triples with entries 2..23, 3 named, 16 seeded
RAISED = 343
SHARED = 1_061  # ordered triples with entries 2..12 that share a factor


def test_coprime_sweep():
    """(7, 11, 153), (11, 13, 285) and (13, 17, 1104) are in the sweep."""
    checked = 0
    for t in brieskorn_oracle.sweep():
        assert brieskorn_oracle.check_agreement(t) is False, t
        checked += 1
    assert checked == SWEPT


def test_shared_factors_raise_on_both_sides():
    """Past the validator, both lattice counts raise ``InvariantViolation``
    on the same triples and agree on the rest; the Dedekind form raises
    ``InvariantViolation`` on every one, never a bare ``ValueError``."""
    triples = list(brieskorn_oracle.shared_factor_sweep())
    raised = sum(map(brieskorn_oracle.check_agreement, triples))
    assert (raised, len(triples)) == (RAISED, SHARED)
    for t in triples:
        with pytest.raises(InvariantViolation):
            brieskorn.sigma_lattice(t)


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


def test_former_budget_triple_exact():
    """(1009, 1013, 1019) took 1,020,096 interval steps, over the old budget
    of 10**6; the interval oracle, which has no budget, agrees."""
    t = BrieskornTriple(1009, 1013, 1019)
    assert brieskorn.milnor_invariants(t).sigma == -347_178_080
    assert brieskorn_oracle.sigma_intervals(t) == -347_178_080


def test_dedekind_against_definition():
    """Every coprime 1 <= h < k <= 60, and h = 0 at k = 1."""
    checked = 0
    for k in range(1, 61):
        for h in range(1 if k > 1 else 0, k):
            if math.gcd(h, k) == 1:
                assert brieskorn._dedekind(h, k) == brieskorn_oracle.dedekind_fraction(h, k), (h, k)
                checked += 1
    assert checked == 1_102


def test_dedekind_against_reciprocity():
    """Seeded coprime pairs below 10**6; h above k and negative h reduce mod k."""
    rng = random.Random(19770101)
    checked = 0
    while checked < 2_000:
        h, k = sorted(rng.sample(range(1, 10**6), 2))
        if math.gcd(h, k) != 1:
            continue
        want = brieskorn_oracle.dedekind_reciprocity(h, k)
        assert brieskorn._dedekind(h, k) == want, (h, k)
        assert brieskorn._dedekind(h + rng.randint(1, 10**6) * k, k) == want, (h, k)
        assert brieskorn._dedekind(h - rng.randint(1, 10**6) * k, k) == want, (h, k)
        checked += 1
