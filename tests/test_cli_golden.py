"""Golden CLI outputs: exact stdout, first stderr line and exit code.

Every subcommand is pinned in table and ``--json`` form, with one domain
error and two usage errors. The expected data is in ``cli_golden.json``;
``python tests/test_cli_golden.py`` rewrites it from the current code, so
run that only for an intended output change and say so in CHANGES.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from steinkit import cli

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
]


def run_case(argv, files, workdir: Path) -> dict:
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return {"exit": code, "stdout": out.getvalue(), "stderr": lines[0] if lines else ""}


def expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][0]))
def test_golden(index, tmp_path):
    argv, files = CASES[index]
    golden = expected()[index]
    assert golden["argv"] == argv
    assert run_case(argv, files, tmp_path) == {k: golden[k] for k in ("exit", "stdout", "stderr")}


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = [{"argv": argv, **run_case(argv, files, Path(tmp))} for argv, files in CASES]
    GOLDEN.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {GOLDEN}", file=sys.stderr)
