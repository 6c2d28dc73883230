"""Golden CLI outputs: exact stdout, first stderr line and exit code.

Every subcommand is pinned in table and ``--json`` form, with one domain
error and six usage errors, four of them integers that ``int()`` takes and
``errors.integer`` does not. The expected data is in ``cli_golden.json``;
``python tests/test_cli_golden.py`` rewrites it from the current code, so
run that only for an intended output change and say so in CHANGES. Every
case runs through ``cli.main`` in process, and once more through ``python -m
steinkit.cli``, which must print the same bytes.

``cli.main`` reads a well-formed argv with ``cli._read_argv``, without
``argparse``; the parser of every command, ``cli.build_parser()``, is its
oracle. Over the golden argv and ``PARSER_CASES``, ``main`` must print the
same stdout and whole stderr and exit the same with the reader as with
``argparse`` alone, and over generated argv the reader must give either
nothing or exactly the values ``argparse`` gives. Every ``--json`` payload
is written as ``json.dumps`` wrote it (``json_oracle.py``).
"""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_oracle import dumps
from steinkit import cli, handlebody
from steinkit.errors import InvalidParams, MalformedToken, integer

GOLDEN = Path(__file__).with_name("cli_golden.json")

TREFOIL = "L 0\nL 1\nX 1\nX 0\nX 1\nX 0\nR 1\nR 0\n"
HOPF = "# two unknots, flipped\nL 0\nL 1\nX 0\nX 0\nX 0\nX 0\nR 1\nR 0\nflip 1\n"
NUCLEUS = "1-handles 0\nhandle tb=1 r=0 framing=0\nhandle tb=-1 r=0 framing=-2\nlk 0 1 1\n"
RATIONAL = "1-handles 0\nhandle tb=3 r=0 framing=2\nhandle tb=4 r=1 framing=3\nlk 0 1 1\n"
ONE_HANDLE = "1-handles 1\nhandle tb=3 r=0 framing=2\n"

# (argv, files): "@name" in argv is the path of files[name]
CASES = [
    (["front", "stats", "@a.front"], {"a.front": TREFOIL}),
    (["front", "stats", "@a.front", "--json"], {"a.front": TREFOIL}),
    (["front", "stats", "@a.front"], {"a.front": HOPF}),
    (["front", "stats", "@a.front", "--json"], {"a.front": HOPF}),
    (["front", "stabilize", "@a.front", "--component", "1", "--dir", "up",
      "--at", "1"], {"a.front": HOPF}),
    (["front", "stabilize", "@a.front", "--component", "0", "--dir", "down",
      "--at", "0", "--json"], {"a.front": TREFOIL}),
    (["torus-knot", "2", "3"], {}),
    (["torus-knot", "3", "4", "--json"], {}),
    (["torus-knot", "3", "5", "--stabilize", "1,2"], {}),
    (["torus-knot", "2", "5", "--stabilize", "2,0", "--json"], {}),
    (["brieskorn", "invariants", "2", "3", "5"], {}),
    (["brieskorn", "invariants", "2", "3", "11", "--json"], {}),
    (["brieskorn", "seifert", "2", "3", "7"], {}),
    (["brieskorn", "seifert", "3", "5", "7", "--json"], {}),
    (["brieskorn", "surgery", "2", "3", "1", "+"], {}),
    (["brieskorn", "surgery", "2", "5", "2", "-1", "--json"], {}),
    (["brieskorn", "sigma-sweep", "--pmax", "4", "--nmax", "2"], {}),
    (["brieskorn", "sigma-sweep", "--pmax", "3", "--nmax", "1", "--json"], {}),
    (["brieskorn", "sigma-sweep", "--pmax", "1", "--nmax", "1"], {}),
    (["brieskorn", "casson-harer", "--pmax", "3", "--nmax", "3"], {}),
    (["brieskorn", "casson-harer", "--pmax", "2", "--nmax", "2", "--json"], {}),
    (["handlebody", "analyze", "@a.kirby"], {"a.kirby": NUCLEUS}),
    (["handlebody", "analyze", "@a.kirby", "--json"], {"a.kirby": NUCLEUS}),
    (["handlebody", "analyze", "@a.kirby"], {"a.kirby": RATIONAL}),
    (["handlebody", "analyze", "@a.kirby", "--json"], {"a.kirby": RATIONAL}),
    (["handlebody", "analyze", "@a.kirby"], {"a.kirby": ONE_HANDLE}),
    (["nucleus", "2", "3", "2"], {}),
    (["nucleus", "3", "4", "2", "--json"], {}),
    (["check", "hirz", "--tb", "1", "--r", "0", "--n", "-1", "--m", "1"], {}),
    (["check", "hirz", "--tb", "1", "--r", "0", "--n", "0", "--m", "1", "--json"], {}),
    (["check", "hirz", "--tb", "5", "--r", "0", "--n", "-1", "--m", "1", "--json"], {}),
    (["check", "embed", "2", "3", "1"], {}),
    (["check", "embed", "3", "7", "-1", "--json"], {}),
    (["check", "prop-theta", "2", "7", "-1"], {}),
    (["check", "prop-theta", "3", "4", "1", "--json"], {}),
    (["check", "cave", "--tb", "1", "--r", "0", "--k", "2"], {}),
    (["check", "cave", "--tb", "1", "--r", "0", "--k", "-3", "--json"], {}),
    (["check", "flip", "--r0", "-3", "--up", "2", "--down", "0", "--target", "1"], {}),
    (["check", "flip", "--r0", "0", "--up", "0", "--down", "0", "--target", "3",
      "--json"], {}),
    (["check", "slice", "--tb", "2", "--r", "3", "--g", "2"], {}),
    (["check", "slice", "--tb", "-3", "--r", "0", "--g", "0", "--json"], {}),
    (["check", "theta-survey", "--bound", "7"], {}),
    (["check", "theta-survey", "--bound", "5", "--json"], {}),
    # domain error, usage error from a command, usage error from argparse
    (["check", "embed", "2", "5", "-1"], {}),
    (["brieskorn", "surgery", "2", "3", "1", "x"], {}),
    (["brieskorn", "invariants", "2", "3"], {}),
    # integers that int() takes and the integer reader does not
    (["nucleus", "2", "3", "1_0"], {}),
    (["nucleus", "2", "3", "\u0663"], {}),
    (["nucleus", "2", "3", " 5"], {}),
    (["torus-knot", "2", "3", "--stabilize", "1_0,0"], {}),
]


def write_files(argv, files, workdir: Path) -> list:
    """Write ``files`` to ``workdir`` and return ``argv`` with their paths."""
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]


def run_main(argv, files, workdir: Path) -> tuple:
    """``cli.main``'s exit code, stdout and stderr."""
    argv = write_files(argv, files, workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_process(argv, files, workdir: Path) -> tuple:
    """The exit code, stdout and stderr of ``python -m steinkit.cli``."""
    argv = write_files(argv, files, workdir)
    proc = subprocess.run(
        [sys.executable, "-m", "steinkit.cli", *argv], capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def run_case(argv, files, workdir: Path, runner=run_main) -> dict:
    code, out, err = runner(argv, files, workdir)
    lines = err.splitlines()
    return {"exit": code, "stdout": out, "stderr": lines[0] if lines else ""}


def expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][0]))
def test_golden(index, tmp_path):
    argv, files = CASES[index]
    golden = expected()[index]
    assert golden["argv"] == argv
    assert run_case(argv, files, tmp_path) == {k: golden[k] for k in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][0]))
def test_golden_in_a_process(index, tmp_path):
    """A CLI process prints the same bytes as ``cli.main`` in process."""
    argv, files = CASES[index]
    got = run_case(argv, files, tmp_path, runner=run_process)
    assert got == {k: expected()[index][k] for k in ("exit", "stdout", "stderr")}


JSON_CASES = [i for i, (argv, _) in enumerate(CASES) if "--json" in argv]


@pytest.mark.parametrize("index", JSON_CASES, ids=lambda i: " ".join(CASES[i][0]))
def test_golden_json_matches_json_dumps(index, tmp_path, monkeypatch):
    """``emit_json`` writes each golden payload, and each value nested in
    it, as ``json.dumps`` wrote it, in a run of ``main``, under the int-to-str
    limit ``main`` lifts; the payload itself is the last value written."""
    write = cli.emit_json
    written = []

    def checked(payload):
        written.append(write(payload))
        assert written[-1] == dumps(payload)
        return written[-1]

    monkeypatch.setattr(cli, "emit_json", checked)
    argv, files = CASES[index]
    code, out, _ = run_main(argv, files, tmp_path)
    assert code == 0 and out == written[-1] + "\n"
    json.loads(out)


def _command_names(parser: argparse.ArgumentParser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_names(sub, (*prefix, name))
            return
    yield " ".join(prefix)


def test_every_command_is_pinned():
    """A new subcommand must add golden cases, table and ``--json``."""
    pinned = {}
    for argv, _ in CASES:
        pinned.setdefault(argv[0], set()).add("--json" in argv)
        pinned.setdefault(" ".join(argv[:2]), set()).add("--json" in argv)
    for name in _command_names(cli.build_parser()):
        assert pinned.get(name) == {False, True}, name


# argv the goldens leave out: help at each level, usage errors, and argv
# that names no command (unknown, abbreviated, an option first, or two
# words in one)
PARSER_CASES = [
    [], ["--help"], ["front"], ["front", "-h"], ["check", "--help"],
    ["front", "stats", "--help"], ["torus-knot", "-h"], ["check", "hirz", "--help"],
    ["check", "hirz", "--tb", "1"], ["nucleus", "2", "3"], ["front", "stabilize", "@a.front"],
    ["torus-knot", "2", "x"],
    ["check", "flip", "--r0", "1.5", "--up", "0", "--down", "0", "--target", "0"],
    ["frnt", "stats", "@a.front"], ["front", "stat", "@a.front"], ["torus"],
    ["brieskorn", "inv", "2", "3", "5"], ["front stats", "@a.front"],
    ["--json", "torus-knot", "2", "3"], ["--json"],
    ["torus-knot", "2", "3", "extra"], ["front", "stats", "@a.front", "extra"],
    ["check", "slice", "--tb", "2", "--r", "3", "--g", "2", "--bogus"],
]
ORACLE_CASES = CASES + [(argv, {"a.front": TREFOIL}) for argv in PARSER_CASES]


@pytest.mark.parametrize(
    "index", range(len(ORACLE_CASES)), ids=lambda i: shlex.join(ORACLE_CASES[i][0])
)
def test_command_parser_matches_full_parser(index, tmp_path, monkeypatch):
    """``main`` prints the same bytes and exits the same with the argv reader
    as with the parser of every command alone."""
    argv, files = ORACLE_CASES[index]
    got = run_main(argv, files, tmp_path)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert got == run_main(argv, files, tmp_path)


def test_reader_takes_every_golden_command():
    """Every golden argv that runs a command is read without ``argparse``;
    the one that ``argparse`` reports a usage error for is left to it."""
    for (argv, _), golden in zip(CASES, expected()):
        assert (cli._read_argv(argv) is None) == golden["stderr"].startswith("usage:"), argv


def test_usage_line_names_every_command(tmp_path):
    """The parser of every command, and the usage line under which it
    reports extra arguments, which names every top-level command."""
    assert list(_command_names(cli.build_parser())) == list(cli.COMMANDS)
    code, out, err = run_main(["torus-knot", "2", "3", "extra"], {}, tmp_path)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: steinkit [-h] {front,torus-knot,brieskorn,handlebody,nucleus,check} ...",
        "steinkit: error: unrecognized arguments: extra",
    ]


ODD_INTS = ["-0", "1_0", "\u0663", "-\u0663", "\u00b2", " -5", "-5 ", "-5\n", "1.5", "x",
            "", "9" * 5000, "-" + "9" * 5000]
PLAIN_INTS = ["10", "3", "-3", "-5"]  # what 1_0, \u0663, -\u0663 and " -5" spell in ASCII
MOSTLY = st.sampled_from([True] * 9 + [False])  # hypothesis favours the first
ODD_TOKENS = ["-h", "--help", "--", "--tb=1", "--json=1", "-", "-1,0", "front", "extra"]


def _values(kwargs: dict):
    """Values for an argument: well-formed mostly, and the odd ones that
    ``argparse`` reads in a way of its own."""
    if kwargs.get("type") is integer:
        return st.one_of(*[st.integers(-3, 9).map(str)] * 9, st.sampled_from(ODD_INTS))
    if "choices" in kwargs:
        return st.sampled_from([*kwargs["choices"], "side", "-1"])
    if "type" in kwargs:  # --stabilize a,b
        return st.sampled_from(["1,2", "0,0", "2,x", "1", "-1,0", "1_0,\u0663", " 1,2 "])
    return st.sampled_from(["f", "+", "-", "-1", "x", "", "--json"])


@st.composite
def argvs(draw):
    """A command's words, then its arguments shuffled, each option with a
    value, maybe ``--json`` and at times an odd or repeated token; or the
    words and a few tokens of any kind."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    specs = dict(map(cli._spec, cli.COMMANDS[name][1]))
    options = [*(n for n in specs if n.startswith("--")), "--json"]
    odd = st.sampled_from(
        [*ODD_TOKENS, *ODD_INTS, *options, *(o[:4] for o in options), *(f"{o}=1" for o in options)]
    )
    chunks = [
        [n, draw(_values(kw))] if n.startswith("--") else [draw(_values(kw))]
        for n, kw in specs.items()
        if draw(MOSTLY) or not kw.get("required", not n.startswith("--"))
    ]
    chunks.append(draw(st.sampled_from([[], ["--json"]])))
    rest = [t for chunk in draw(st.permutations(chunks)) for t in chunk]
    for _ in range(draw(st.sampled_from([0] * 5 + [1, 2]))):
        rest.insert(draw(st.integers(0, len(rest))), draw(odd))
    if not draw(MOSTLY):
        rest = draw(st.lists(odd, max_size=6))
    return name.split() + rest


PARSER = cli.build_parser()


def check_reader(argv) -> bool:
    """The reader gives None, or exactly what ``argparse`` gives; where
    ``argparse`` exits, for help or a usage error, it gives None. True if
    the reader took ``argv``."""
    read = cli._read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(PARSER.parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or vars(read) == parsed, (argv, vars(read), parsed)
    return read is not None


@settings(max_examples=2000, deadline=None)
@given(argvs())
def test_reader_matches_argparse(argv):
    check_reader(argv)


def test_reader_matches_argparse_on_one_edit():
    """Every golden command argv with one token replaced, inserted or
    deleted, over the odd tokens, plain integers and the command's own
    option names."""
    bases = {}  # the longest argv of each command, without the errors
    for (argv, _), golden in zip(CASES, expected()):
        if golden["exit"]:
            continue
        name = next(n for n in cli.COMMANDS if argv[: n.count(" ") + 1] == n.split())
        argv = [a[1:] if a[:1] == "@" else a for a in argv]
        bases[name] = max(bases.get(name, []), argv, key=len)
    taken = 0
    for name, argv in bases.items():
        words = name.count(" ") + 1
        options = [a for a in argv if a.startswith("--")]
        pool = [*ODD_TOKENS, *ODD_INTS, *PLAIN_INTS, *options, *(o[:4] for o in options)]
        pool += ["up", "1,2"]
        for at in range(words, len(argv) + 1):
            edits = [argv[:at] + [t] + argv[at:] for t in pool]
            if at < len(argv):
                edits += [argv[:at] + argv[at + 1:]]
                edits += [argv[:at] + [t] + argv[at + 1:] for t in pool]
            taken += sum(map(check_reader, edits))
    assert taken > 300  # of about 6,500 edits


# Tokens with no whitespace and no "#": mixtures of digits and the marks
# int() takes, signed integers with leading zeros, runs of digits at and
# over Python's 4,300-digit limit, and any short text.
TOKENS = st.one_of(
    st.text("0123456789_+-\u0663\u00b2x", max_size=8),
    st.builds(
        "{}{}{}".format, st.sampled_from(["", "-", "+"]), st.sampled_from(["", "0", "00"]),
        st.integers(0, 10**12),
    ),
    st.builds(
        "{}{}".format, st.sampled_from(["", "-", "1_", "\u0663"]),
        st.sampled_from(["9" * 4300, "9" * 4301, "1" * 5000]),
    ),
    st.text(st.characters(), max_size=6),
).filter(lambda token: not any(c.isspace() or c == "#" for c in token))


@settings(max_examples=300, deadline=None)
@given(TOKENS)
def test_files_and_argv_take_the_same_integers(token):
    """A Kirby file reads ``token`` exactly when ``argparse`` reads it as an
    int argument, and as the same integer."""
    try:
        read = handlebody.parse_kirby(f"1-handles {token}\n").one_handles
    except MalformedToken:
        read = None
    except InvalidParams:  # a negative count: read, then refused
        read = "negative"
    argv = ["check", "slice", "--tb", token, "--r", "0", "--g", "1"]
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = PARSER.parse_args(argv).tb
        except SystemExit:
            parsed = None
    assert read == (parsed if parsed is None or parsed >= 0 else "negative"), token


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = [{"argv": argv, **run_case(argv, files, Path(tmp))} for argv, files in CASES]
    GOLDEN.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {GOLDEN}", file=sys.stderr)
