"""Fuzz the file-reading subcommands: every input ends in a typed exit.

Arbitrary bytes, and text built from the formats' own tokens, go into the
file of ``front stats``, ``front stabilize`` and ``handlebody analyze``,
with arbitrary ints for ``--component`` and ``--at``. Each run must exit
0, 1 or 2, print at most one stderr line on exits 0 and 1, and never
raise out of ``main`` or print a traceback. ``torus-knot`` and ``nucleus``
are left out: their work grows with p*q, so arbitrary ints would not
finish.
"""

import contextlib
import io
import os
import tempfile

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


@settings(max_examples=400, deadline=None)
@given(content=CONTENT, args=ARGS, as_json=st.booleans())
def test_typed_exit(content, args, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        argv = [*args[:2], path, *args[2:], *(["--json"] if as_json else [])]
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
