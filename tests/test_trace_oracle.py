"""The thread trace agrees exactly with the segment-graph oracle, and the
one-pass parser with the three-check parser it replaced."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinkit
from steinkit import brieskorn, cli, criteria, errors, fronts, handlebody, legendrian, linalg
from steinkit.fronts import FrontDiagram, FrontEvent

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


def valid_words(max_events):
    """Every word of at most ``max_events`` events that closes up, with each
    event's position in range: ``L i`` for i <= strands, ``R i`` and ``X i``
    for i <= strands - 2."""

    def grow(word, strands):
        if word and not strands:
            yield word
        spare = max_events - len(word) - strands // 2  # events past the closing R's
        if spare >= 2:
            for i in range(strands + 1):
                yield from grow(word + (FrontEvent(fronts.LEFT_CUSP, i),), strands + 2)
        for i in range(strands - 1):
            yield from grow(word + (FrontEvent(fronts.RIGHT_CUSP, i),), strands - 2)
            if spare >= 1:
                yield from grow(word + (FrontEvent(fronts.CROSSING, i),), strands)

    return grow((), 0)


def test_every_small_front():
    """Every valid word of at most 6 events, under every flip set, stabilized
    at every segment of every component in both directions: 552 words,
    2,186 diagrams and 67,400 stabilizations."""
    words = diagrams = stabilizations = 0
    for events in valid_words(6):
        k = len(fronts.components(FrontDiagram(events)))
        for mask in range(2**k):
            d = FrontDiagram(events, {c for c in range(k) if mask >> c & 1})
            every = [
                (c.index, direction, at)
                for c in trace_oracle._Trace(d).components
                for at in range(len(c.segments))
                for direction in (fronts.UP, fronts.DOWN)
            ]
            trace_oracle.check_agreement(d, every)
            diagrams += 1
            stabilizations += len(every)
        words += 1
    assert (words, diagrams, stabilizations) == (552, 2186, 67400)


@given(front_diagrams(), st.data())
@settings(max_examples=150)
def test_front_diagrams(d, data):
    k = len(fronts.components(d))
    flips = data.draw(st.frozensets(st.integers(0, k - 1)))
    trace_oracle.check_agreement(d)
    trace_oracle.check_agreement(FrontDiagram(d.events, flips))


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_parse_agreement(rng):
    trace_oracle.check_parse_agreement(*trace_oracle.random_front_text(rng))


@pytest.mark.parametrize(
    "text,error",
    [
        ("L 0\nR 0\nflip 0\nL 0\nR 0\n", "MalformedToken"),
        ("L 0\nR 0\nL -1\nZ 0\n", "MalformedToken"),
        ("L 0\nX 1\nR 0\n", "InvalidPosition"),
        ("L 0\nL 1\nR 0\n", "UnbalancedDiagram"),
        ("X  3 # c\n", "InvalidPosition"),
        ("L -0\nL 001\nR 0\nR 0\nflip 0\n", "ok"),
    ],
    ids=["cached-line-after-flip", "negative-then-tag", "crossing", "open", "blanks", "zeros"],
)
def test_parse_agreement_cases(text, error):
    """Line-level faults are read before positions: for the second case the
    old parser stopped at the negative position, the new one at the tag."""
    shifted = text.replace("L -1", f"L {trace_oracle.OUT_OF_RANGE}")
    assert trace_oracle.check_parse_agreement(text, shifted) == error


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
    assert proc.stdout.split() == ["optimized=True", "agreed=300", "parsed=2000"]


@pytest.mark.parametrize(
    "module",
    [steinkit, fronts, legendrian, linalg, handlebody, brieskorn, criteria, cli, errors],
    ids=lambda m: m.__name__.split(".")[-1],
)
def test_no_assert(module):
    """Cross-checks in every ``src`` module raise, so ``python -O`` keeps them."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
