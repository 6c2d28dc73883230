"""Fuzz the CLI: every input ends in a typed exit.

Arbitrary bytes, and text built from the formats' own tokens, go into the
file of ``front stats``, ``front stabilize`` and ``handlebody analyze``,
with arbitrary ints for ``--component`` and ``--at``; arbitrary ints go on
the argv of ``brieskorn invariants``, ``seifert`` and ``surgery`` and of
``check prop-theta``, whose signature takes O(log pqr) steps, of
``torus-knot``, with and without ``--stabilize``, whose event count is
bounded before any work, of ``nucleus``, which does O(1) big-int work,
and of ``sigma-sweep``, ``casson-harer`` and ``theta-survey``, whose row
counts are bounded before any work. Each run must exit 0, 1 or 2, print
at most one stderr line on exits 0 and 1, and never raise out of ``main``
or print a traceback; the commands with a budget or O(1) work must also
end within 5 s. Fronts of large structure (many components, deep nesting,
wide components) go to ``front stats`` and ``front stabilize``, and Kirby
files of large structure (every lk pair of 150 or 151 handles, entries at
the edge of the bit budget, comment lines of up to 1 MiB) to ``handlebody
analyze``, under the same 5-s bound.
"""

import contextlib
import fractions
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinkit import brieskorn, cli, criteria, fronts, linalg
from steinkit.errors import InvariantViolation, brief

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


def wide_front(m):
    """One component of 2m strands: m left cusps, the top strand crossed down
    to the bottom, then m right cusps. It has 6m^2 - 2m segments."""
    return "L 0\n" * m + "".join(f"X {i}\n" for i in range(2 * m - 1)) + "R 0\n" * m


def up_to(low, high):
    """An int in [low, high], ``high`` itself about half the time."""
    return st.one_of(st.just(high), st.integers(low, high))


# (front text, segment count of each component), for the shapes that ran
# without bound: many disjoint unknots, deep nesting (component c of n has
# 2(2n - 1 - 2c) segments), one wide component, and a few hundred wide
# components side by side.
LARGE_FRONT = st.one_of(
    up_to(1, 1200).map(lambda k: ("L 0\nR 0\n" * k, [2] * k)),
    up_to(1, 50000).map(
        lambda n: ("L 0\n" * n + "R 0\n" * n, [2 * (2 * n - 1 - 2 * c) for c in range(n)])
    ),
    up_to(1, 25000).map(lambda m: (wide_front(m), [6 * m * m - 2 * m])),
    st.builds(
        lambda k, m: (wide_front(m) * k, [6 * m * m - 2 * m] * k),
        up_to(100, 400), up_to(2, 60),
    ),
)


@settings(max_examples=8, deadline=None)
@given(front=LARGE_FRONT, data=st.data())
def test_large_structure_typed_exit(front, data):
    """``front stats`` and ``front stabilize`` at an insertion point before
    the start, in range or past the end: each run ends in exit 0 or 1, on
    at most one stderr line, within 5 s."""
    text, counts = front
    c = data.draw(st.integers(0, len(counts) - 1))
    at = data.draw(st.one_of(
        st.integers(max_value=-1),
        st.integers(0, counts[c] - 1),
        st.integers(min_value=counts[c]),
    ))
    direction = data.draw(st.sampled_from(["up", "down"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "large.front")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (
            ["front", "stats", path],
            ["front", "stabilize", path, "--component", str(c), "--dir", direction,
             "--at", str(at)],
        ):
            start = time.perf_counter()
            proc = run_process(*argv)
            assert time.perf_counter() - start < 5
            assert proc.returncode in (0, 1), proc.stderr
            assert len(proc.stderr.splitlines()) <= 1 and "Traceback" not in proc.stderr


# Distinct primes make valid triples and (p, q) pairs; two of 1009, 1013 and
# 1019, or two Mersenne primes, would take a lattice count past any budget.
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


# 10**4200 once ended in an OverflowError traceback as a zig-zag count.
COUNT = st.one_of(ANY_INT, st.just(10**4200))
TORUS_ARGV = st.builds(
    lambda p, q, schedule: [
        "torus-knot", str(p), str(q),
        *([] if schedule is None else ["--stabilize", "{},{}".format(*schedule)]),
    ],
    ANY_INT, ANY_INT, st.one_of(st.none(), st.tuples(COUNT, COUNT)),
)


@settings(max_examples=300, deadline=None)
@given(argv=TORUS_ARGV, as_json=st.booleans())
def test_torus_knot_typed_exit(argv, as_json):
    """Fronts over ``fronts.EVENT_BUDGET`` events are refused before any
    is built, so every example ends within 5 s."""
    start = time.perf_counter()
    run_main([*argv, *(["--json"] if as_json else [])])
    assert time.perf_counter() - start < 5


BIG = 10**4300 - 1  # 4,300 digits, the most argparse reads
# Around BIG, nucleus results have over 4,300 digits.
WIDE_INT = st.one_of(ANY_INT, st.sampled_from([BIG - 2, BIG, -BIG]))
SWEEP_ARGV = st.one_of(
    st.builds(lambda *pqn: ["nucleus", *map(str, pqn)], WIDE_INT, WIDE_INT, WIDE_INT),
    st.builds(
        lambda name, pmax, nmax: ["brieskorn", name, "--pmax", str(pmax), "--nmax", str(nmax)],
        st.sampled_from(["sigma-sweep", "casson-harer"]), WIDE_INT, WIDE_INT,
    ),
    st.builds(lambda bound: ["check", "theta-survey", "--bound", str(bound)], WIDE_INT),
)


@settings(max_examples=300, deadline=None)
@given(argv=SWEEP_ARGV, as_json=st.booleans())
def test_sweep_and_nucleus_typed_exit(argv, as_json):
    """Sweeps over ``cli.WORK_BUDGET`` rows are refused before any work, and
    ``nucleus`` does O(1) big-int work, so every example ends within 5 s."""
    start = time.perf_counter()
    run_main([*argv, *(["--json"] if as_json else [])])
    assert time.perf_counter() - start < 5


def test_brief():
    """Numbers in error messages are formatted without int-to-str conversion
    above 10**100, where the conversion limit could refuse them."""
    assert brief(-12) == "-12"
    assert brief(fractions.Fraction(6, 4)) == "3/2"
    assert brief(fractions.Fraction(-4, 2)) == "-2"
    assert brief(brieskorn.BrieskornTriple(2, 3, 7)) == "(2, 3, 7)"
    huge = 10**5000
    assert brief(-huge) == f"-<integer of {huge.bit_length()} bits>"
    assert brief((2, fractions.Fraction(1, huge))) == (
        f"(2, 1/<integer of {huge.bit_length()} bits>)"
    )


def run_main_code(argv):
    """The exit status of ``main`` and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_failed_cross_check_on_huge_nucleus(monkeypatch):
    """c1^2 of nucleus(BIG - 2, BIG, 2) has about 17,200 digits. A failed
    cross-check of it ends in exit 3 on one stderr line, not in the
    ValueError of formatting it."""
    form = linalg.form

    def off_by_one(linking, rotation):
        det, sig, c1_squared = form(linking, rotation)
        return det, sig, c1_squared + 1

    monkeypatch.setattr(linalg, "form", off_by_one)
    code, out, err = run_main_code(["nucleus", str(BIG - 2), str(BIG), "2"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InvariantViolation: c1^2 = ")


def test_failed_cross_check_on_huge_embed_plan(monkeypatch):
    """The stabilization schedule of ``check embed BIG - 2 BIG 1`` has over
    8,000 digits; a failed check of it ends in exit 3 on one stderr line."""
    monkeypatch.setattr(
        criteria, "stabilize_invariants",
        lambda inv, s: fronts.LegendrianInvariants(inv.tb - s.up - s.down + 1, inv.r),
    )
    code, out, err = run_main_code(["check", "embed", str(BIG - 2), str(BIG), "1"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InvariantViolation: ")


def test_failed_cross_check_on_huge_sigma(monkeypatch):
    """A signature off by 8 on a triple whose sigma has over 4,300 digits
    raises InvariantViolation, not the ValueError of formatting it, and
    the CLI exits 3 with one stderr line."""
    p, q, n = 10**100 + 1, 10**100 + 3, 10**3999 + 7
    triple = (p, q, n * p * q - 1)
    sigma = brieskorn.sigma_lattice
    monkeypatch.setattr(brieskorn, "sigma_lattice", lambda t: sigma(t) + 8)
    with pytest.raises(InvariantViolation, match="closed form gives"):
        brieskorn.milnor_invariants(brieskorn.BrieskornTriple(*triple))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["brieskorn", "invariants", *map(str, triple)])
    assert code == 3 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("InvariantViolation: ")


def run_process(*argv):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "steinkit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=30,
    )


@pytest.fixture
def no_int_str_limit():
    """Results over 4,300 digits are read back with Python's limit on
    int-to-str conversion lifted, and the limit is restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def _digits(rng, count):
    return rng.randrange(10 ** (count - 1), 10**count)


def random_coprime_triple(seed, digits):
    """Three pairwise-coprime ints of ``digits`` digits."""
    rng = random.Random(seed)
    triple = [_digits(rng, digits)]
    while len(triple) < 3:
        x = _digits(rng, digits)
        if all(math.gcd(x, y) == 1 for y in triple):
            triple.append(x)
    return tuple(triple)


def fibonacci_triple(digits):
    """Consecutive Fibonacci numbers p < q below 10**digits and r = kp + 1
    coprime to q. Then qr = q mod p, so D(qr, p) runs through the continued
    fraction of F(n-1)/F(n), all ones: the longest of its size."""
    p, q = 1, 2
    while q + p < 10**digits:
        p, q = q, p + q
    r = p + 1
    while math.gcd(r, q) != 1:
        r += p
    return p, q, r


@pytest.mark.parametrize(
    "triple,line",
    [
        ((97, 101, 10001), "sigma=-32653256"),
        ((97, 101, 97969), "sigma=-319872000"),
        ((1009, 1013, 1019), "sigma=-347178080"),
        (random_coprime_triple(1, 4299), None),
        (fibonacci_triple(4299), None),
    ],
    ids=["generic", "n=10", "1009-1013-1019", "random-4299-digits", "fibonacci-4299-digits"],
)
def test_large_triples_end_typed(triple, line, no_int_str_limit):
    """97 * 101 * 10 - 1 = 97969, so n=10 runs the closed-form check;
    (1009, 1013, 1019) took 1,020,096 steps of the interval count. Each case
    ends within 5 s, interpreter start included, and prints the library's
    exact signature."""
    start = time.perf_counter()
    proc = run_process("brieskorn", "invariants", *map(str, triple))
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    sigma = brieskorn.milnor_invariants(brieskorn.BrieskornTriple(*triple)).sigma
    assert f"sigma={sigma}" in proc.stdout.splitlines()
    if line is not None:
        assert line == f"sigma={sigma}"


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_results_over_4300_digits_print(as_json, no_int_str_limit):
    """(p, q, npq - 1) with p, q of 101 digits and n of 4,000: every input is
    under argparse's 4,300-digit cap, sigma and b2 are over it."""
    p, q, n = 10**100 + 1, 10**100 + 3, 10**3999 + 7
    proc = run_process(
        "brieskorn", "invariants", str(p), str(q), str(n * p * q - 1),
        *(["--json"] if as_json else []),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    if as_json:
        sigma = json.loads(proc.stdout)["sigma"]
    else:
        (line,) = [x for x in proc.stdout.splitlines() if x.startswith("sigma=")]
        sigma = int(line.removeprefix("sigma="))
    assert sigma == brieskorn.sigma_closed_form(p, q, n)
    assert len(str(sigma)) > 4300


@pytest.mark.parametrize(
    "argv",
    [
        ["brieskorn", "surgery", str(BIG - 2), str(BIG), str(BIG), "-"],
        ["check", "embed", str(BIG - 2), str(BIG), "1"],
        ["check", "prop-theta", str(BIG - 2), str(BIG), "-1"],
        ["nucleus", "2", "3", str(BIG)],
    ],
    ids=["surgery", "embed", "prop-theta", "nucleus"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_other_results_over_4300_digits_print(argv, as_json):
    """Each of these prints an integer of more than 4,300 digits."""
    proc = run_process(*argv, *(["--json"] if as_json else []))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert re.search("[0-9]{4301}", proc.stdout)


def test_sigma_sweep_row_budget():
    """31,920,000 possible rows: refused before any work, on one line."""
    start = time.perf_counter()
    proc = run_process("brieskorn", "sigma-sweep", "--pmax", "400", "--nmax", "400")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("WorkBudgetExceeded: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "theta-survey", "--bound", "3000"],
        ["brieskorn", "casson-harer", "--pmax", "100000", "--nmax", "10000"],
        ["brieskorn", "sigma-sweep", "--pmax", "100000", "--nmax", "0"],
    ],
    ids=["theta-survey", "casson-harer", "sigma-sweep-no-n"],
)
def test_sweeps_end_within_5s(argv):
    """The first two once ran without bound and are now refused before any
    work, on one line; a sweep with no n once enumerated every pair."""
    start = time.perf_counter()
    proc = run_process(*argv)
    assert time.perf_counter() - start < 5
    if argv[-1] == "0":
        assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("WorkBudgetExceeded: ")


def dense_kirby(k, bits, rng):
    """A Kirby file of k 2-handles with every lk pair, whose largest entry
    has ``bits`` bits: Stein (framing = tb - 1) with r of the framing's
    parity, so it passes every check but the budgets."""
    def entry():
        return rng.randint(-(2**bits - 1), 2**bits - 1)

    def rotation(f):  # an entry of f's parity
        r = entry()
        return r if (r - f) % 2 == 0 else r - 1 if r > 0 else r + 1

    framings = [2**bits - 1] + [entry() for _ in range(k - 1)]
    lines = ["1-handles 0"]
    lines += [f"handle tb={f + 1} r={rotation(f)} framing={f}" for f in framings]
    lines += [f"lk {i} {j} {entry()}" for i in range(k) for j in range(i + 1, k)]
    return lines


# (handles k, entry bit length): 150 and 151 handles, the handle budget's
# edge; and k times the bit length at the bit budget's edge, 1,000 or 1,001
KIRBY_SHAPE = st.one_of(
    st.tuples(st.sampled_from([150, 151]), st.integers(0, 6)),
    st.sampled_from([(k, n // k) for n in (1000, 1001) for k in range(1, 152) if n % k == 0]),
)


@settings(max_examples=8, deadline=None)
@given(shape=KIRBY_SHAPE, seed=st.integers(0, 2**32), comment=up_to(0, 2**20 - 1),
       at=st.integers(0, 2**16))
@example(shape=(150, 6), seed=0, comment=2**20 - 1, at=1)
@example(shape=(151, 6), seed=0, comment=2**20 - 1, at=2**16)
@example(shape=(125, 8), seed=0, comment=2**20 - 1, at=0)
@example(shape=(143, 7), seed=0, comment=2**20 - 1, at=0)
def test_kirby_large_structure_typed_exit(shape, seed, comment, at):
    """``handlebody analyze`` of a Kirby file with every lk pair, at the edge
    of the handle and bit budgets, with a comment line of up to 1 MiB at
    line ``at`` (mod the line count): each run ends in exit 0 or 1, on at
    most one stderr line, within 5 s."""
    lines = dense_kirby(*shape, random.Random(seed))
    lines.insert(at % (len(lines) + 1), "#" + "c" * comment)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "large.kirby")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        start = time.perf_counter()
        proc = run_process("handlebody", "analyze", path)
        assert time.perf_counter() - start < 5
        assert proc.returncode in (0, 1), proc.stderr
        assert len(proc.stderr.splitlines()) <= 1 and "Traceback" not in proc.stderr


def test_kirby_handle_budget_within_5s(tmp_path):
    """A file of 10**5 handles (2.6 MB) would ask for a matrix of 10**10
    slots; it is refused before the matrix is built, on one line."""
    path = tmp_path / "many.kirby"
    path.write_text("1-handles 0\n" + "handle tb=1 r=0 framing=0\n" * 10**5)
    start = time.perf_counter()
    proc = run_process("handlebody", "analyze", str(path))
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "WorkBudgetExceeded: 100000 2-handles, more than 150\n"
