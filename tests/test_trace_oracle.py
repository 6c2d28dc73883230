"""The thread trace agrees exactly with the segment-graph oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import fronts
from steinkit.fronts import FrontDiagram

import trace_oracle
from test_fronts import front_diagrams

TESTS = Path(__file__).resolve().parent


def test_acceptance_sweep():
    for d, op in trace_oracle.acceptance_sweep():
        trace_oracle.check_agreement(d)
        trace_oracle.check_agreement(d, [op])


def test_braid_closures_with_flips():
    for d in trace_oracle.braid_closures():
        trace_oracle.check_agreement(d)


@given(front_diagrams(), st.data())
@settings(max_examples=150)
def test_front_diagrams(d, data):
    k = len(fronts.components(d))
    flips = data.draw(st.frozensets(st.integers(0, k - 1)))
    trace_oracle.check_agreement(d)
    trace_oracle.check_agreement(FrontDiagram(d.events, flips))


def test_agreement_under_optimize():
    """The cross-checks in the trace and in the agreement check are raises,
    not asserts, so ``python -O`` keeps them."""
    src = TESTS.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", str(TESTS / "trace_oracle.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimized=True", "agreed=300"]


def test_no_assert_in_fronts():
    tree = ast.parse(Path(fronts.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
