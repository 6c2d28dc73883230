"""Fuzz the CLI: every input ends in a typed exit.

Arbitrary bytes, and text built from the formats' own tokens, go into the
file of ``front stats``, ``front stabilize`` and ``handlebody analyze``,
with arbitrary ints for ``--component`` and ``--at``; arbitrary ints go on
the argv of ``brieskorn invariants``, ``seifert`` and ``surgery`` and of
``check prop-theta``, whose lattice count stops at its work budget. Each
run must exit 0, 1 or 2, print at most one stderr line on exits 0 and 1,
and never raise out of ``main`` or print a traceback. ``torus-knot`` and
``nucleus`` are left out: their work grows with p*q and has no budget, so
arbitrary ints would not finish.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import cli, fronts

from test_fronts import front_diagrams

INTS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.sampled_from(["", "x", "+1", "-0", "1_0", "²", "٩", "9" * 5000]),
)
KEYWORDS = ["L", "R", "X", "flip", "#", "1-handles", "handle", "lk", "tb", "r", "framing"]
WORD = st.one_of(
    INTS,
    st.sampled_from(KEYWORDS),
    st.builds("{}={}".format, st.sampled_from(["tb", "r", "framing", "x"]), INTS),
)
TEXT = st.lists(st.lists(WORD, max_size=5).map(" ".join), max_size=30).map("\n".join)
EXTRA = st.one_of(st.just(""), TEXT)
FRONT = st.builds(lambda d, extra: fronts.serialize_front(d) + extra, front_diagrams(), EXTRA)


def kirby_text(one_handles, handles, links, extra):
    lines = [f"1-handles {one_handles}"]
    # r = tb + 1 + 2k keeps tb + r odd, as a Stein handle needs
    lines += [f"handle tb={tb} r={tb + 1 + 2 * k} framing={tb - 1}" for tb, k in handles]
    lines += [f"lk {i} {i + gap} {v}" for i, gap, v in links]
    return "\n".join(lines) + "\n" + extra


SMALL = st.integers(-4, 4)
KIRBY = st.builds(
    kirby_text,
    st.integers(0, 2),
    st.lists(st.tuples(SMALL, SMALL), max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3), SMALL), max_size=8),
    EXTRA,
)
CONTENT = st.one_of(
    st.binary(max_size=200),
    st.one_of(TEXT, FRONT, KIRBY).map(lambda t: t.encode("utf-8")),
)
INDEX = st.one_of(st.integers(0, 3), st.integers())
ARGS = st.one_of(
    st.just(["front", "stats"]),
    st.just(["handlebody", "analyze"]),
    st.builds(
        lambda c, d, a: ["front", "stabilize", "--component", str(c), "--dir", d, "--at", str(a)],
        INDEX, st.sampled_from(["up", "down"]), INDEX,
    ),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code in (0, 1):
        assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@settings(max_examples=400, deadline=None)
@given(content=CONTENT, args=ARGS, as_json=st.booleans())
def test_typed_exit(content, args, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        run_main([*args[:2], path, *args[2:], *(["--json"] if as_json else [])])


# Distinct primes make valid triples and (p, q) pairs; two of 1009, 1013 and
# 1019, or two Mersenne primes, put the lattice count over its budget.
PRIME = st.sampled_from([2, 3, 5, 7, 11, 13, 23, 101, 1009, 1013, 1019, 2**61 - 1, 2**127 - 1])
ANY_INT = st.one_of(st.integers(-2, 40), st.integers(), PRIME)
PAIR = st.one_of(st.tuples(PRIME, PRIME), st.tuples(ANY_INT, ANY_INT))
SIGN = st.sampled_from(["+", "-", "+1", "-1", "0", "x"])
EPS = st.sampled_from([1, -1, 0, 2**70])
ARGV = st.one_of(
    st.tuples(st.sampled_from([["brieskorn", "invariants"], ["brieskorn", "seifert"]]),
              PAIR, st.tuples(st.one_of(PRIME, ANY_INT))),
    st.tuples(st.just(["brieskorn", "surgery"]), PAIR, st.tuples(ANY_INT, SIGN)),
    st.tuples(st.just(["check", "prop-theta"]), PAIR, st.tuples(EPS)),
).map(lambda t: [*t[0], *map(str, t[1] + t[2])])


@settings(max_examples=400, deadline=None)
@given(argv=ARGV, as_json=st.booleans())
def test_typed_exit_on_argv_ints(argv, as_json):
    run_main([*argv, *(["--json"] if as_json else [])])


def run_process(*argv):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "steinkit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=30,
    )


@pytest.mark.parametrize(
    "triple,code,line",
    [
        ((97, 101, 10001), 0, "sigma=-32653256"),
        ((97, 101, 97969), 0, "sigma=-319872000"),
        ((1009, 1013, 1019), 1, "WorkBudgetExceeded: "),
    ],
    ids=["generic", "n=10", "over-budget"],
)
def test_large_triples_end_typed(triple, code, line):
    """97 * 101 * 10 - 1 = 97969, so n=10 runs the closed-form check."""
    proc = run_process("brieskorn", "invariants", *map(str, triple))
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == "" and line in proc.stdout.splitlines()
    else:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(line)
