"""``linalg.form`` agrees exactly with the three eliminations it replaced."""

import os
import subprocess
import sys
from pathlib import Path

import linalg_oracle

TESTS = Path(__file__).resolve().parent
SWEPT = 20_018


def test_seeded_sweep():
    checked = 0
    for matrix, vector in linalg_oracle.sweep():
        linalg_oracle.check_agreement(matrix, vector)
        checked += 1
    assert checked == SWEPT


def test_agreement_under_optimize():
    """The cross-checks in ``form`` and in the agreement check are raises,
    not asserts, so ``python -O`` keeps them."""
    src = TESTS.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", str(TESTS / "linalg_oracle.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimized=True", f"agreed={SWEPT}"]
