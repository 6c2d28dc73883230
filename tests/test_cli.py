"""CLI contract tests: output shapes, determinism and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steinkit import cli
from steinkit.cli import emit_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmitJson:
    def test_invariant_pair(self):
        assert emit_json({"tb": 1, "r": 0}) == '{"r":0,"tb":1}'.replace(":", ": ").replace(",", ", ")

    def test_rational(self):
        from fractions import Fraction

        assert json.loads(emit_json({"x": Fraction(3, 2)})) == {
            "x": {"num": 3, "den": 2}
        }

    def test_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "brieskorn", "invariants", "2", "3", "5", "--json")
        _, out2, _ = run(capsys, "brieskorn", "invariants", "2", "3", "5", "--json")
        assert out1 == out2


class TestCommands:
    def test_brieskorn_invariants_table(self, capsys):
        code, out, _ = run(capsys, "brieskorn", "invariants", "2", "3", "5")
        assert code == 0
        assert "b2=8" in out and "chi=9" in out
        assert "sigma=-8" in out and "theta=6" in out

    def test_table_and_json_agree(self, capsys):
        _, out, _ = run(capsys, "brieskorn", "invariants", "2", "3", "5", "--json")
        data = json.loads(out)
        assert (data["b2"], data["chi"], data["sigma"], data["theta"]) == (8, 9, -8, 6)

    def test_torus_knot(self, capsys):
        code, out, _ = run(capsys, "torus-knot", "2", "3")
        assert code == 0
        assert "tb=1 r=0" in out
        assert out.startswith("L 0; L 1; X 0")

    def test_torus_knot_stabilized(self, capsys):
        _, out, _ = run(capsys, "torus-knot", "2", "3", "--stabilize", "0,1", "--json")
        data = json.loads(out)
        assert (data["tb"], data["r"]) == (0, 1)

    def test_seifert(self, capsys):
        _, out, _ = run(capsys, "brieskorn", "seifert", "2", "3", "7", "--json")
        data = json.loads(out)
        assert (data["q1"], data["q2"], data["q3"]) == (1, -1, -1)

    def test_surgery(self, capsys):
        code, out, _ = run(capsys, "brieskorn", "surgery", "2", "3", "1", "+")
        assert code == 0
        assert out.strip() == "-Sigma(2,3,5)"

    def test_sigma_sweep_sorted(self, capsys):
        _, out, _ = run(
            capsys, "brieskorn", "sigma-sweep", "--pmax", "4", "--nmax", "2", "--json"
        )
        rows = json.loads(out)["rows"]
        keys = [(r["p"], r["q"], r["n"]) for r in rows]
        assert keys == sorted(keys)
        assert all(r["sigma"] == r["closed"] for r in rows)

    def test_casson_harer(self, capsys):
        _, out, _ = run(capsys, "brieskorn", "casson-harer", "--pmax", "3", "--nmax", "4")
        assert "Sigma(2,3,13)" in out

    def test_nucleus(self, capsys):
        _, out, _ = run(capsys, "nucleus", "3", "4", "2", "--json")
        data = json.loads(out)
        assert data["c1_squared"] == 32
        assert data["analysis"]["det"] == -1

    def test_check_hirz(self, capsys):
        _, out, _ = run(
            capsys, "check", "hirz", "--tb", "1", "--r", "0", "--n", "-1", "--m", "1"
        )
        assert "embeddable=true" in out
        assert "schedule=(0, 1)" in out

    def test_check_embed(self, capsys):
        _, out, _ = run(capsys, "check", "embed", "2", "3", "1", "--json")
        data = json.loads(out)
        assert data["schedule"] == {"up": 0, "down": 1}
        assert data["boundary"] == "+Sigma(2,3,7)"

    def test_check_prop_theta(self, capsys):
        _, out, _ = run(capsys, "check", "prop-theta", "2", "7", "-1")
        assert "homotopic=true" in out

    def test_check_cave(self, capsys):
        _, out, _ = run(capsys, "check", "cave", "--tb", "1", "--r", "0", "--k", "2")
        assert "feasible=true" in out

    def test_check_flip(self, capsys):
        _, out, _ = run(
            capsys, "check", "flip", "--r0", "-3", "--up", "2", "--down", "0",
            "--target", "1",
        )
        assert "flips=2" in out

    def test_check_slice(self, capsys):
        _, out, _ = run(capsys, "check", "slice", "--tb", "2", "--r", "3", "--g", "2")
        assert "satisfied=false" in out


class TestFrontFiles:
    def test_stats(self, tmp_path, capsys):
        path = tmp_path / "unknot.front"
        path.write_text("L 0\nR 0\n")
        code, out, _ = run(capsys, "front", "stats", str(path))
        assert code == 0
        assert "component 0: tb=-1 r=0" in out

    def test_stabilize_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trefoil.front"
        _, word, _ = run(capsys, "torus-knot", "2", "3")
        # torus-knot prints the word with '; ' separators; rebuild the file
        path.write_text(word.splitlines()[0].replace("; ", "\n"))
        _, out, _ = run(
            capsys, "front", "stabilize", str(path),
            "--component", "0", "--dir", "down", "--at", "0",
        )
        stabilized = tmp_path / "stabilized.front"
        stabilized.write_text(out)
        _, stats, _ = run(capsys, "front", "stats", str(stabilized))
        assert "component 0: tb=0 r=1" in stats

    def test_handlebody_analyze(self, tmp_path, capsys):
        path = tmp_path / "nucleus.kirby"
        path.write_text(
            "1-handles 0\n"
            "handle tb=1 r=0 framing=0\n"
            "handle tb=-1 r=0 framing=-2\n"
            "lk 0 1 1\n"
        )
        _, out, _ = run(capsys, "handlebody", "analyze", str(path))
        assert "det=-1" in out
        assert "theta_boundary=-6" in out
        _, out, _ = run(capsys, "handlebody", "analyze", str(path), "--json")
        assert out == (
            '{"b2": 2, "c1_squared": {"den": 1, "num": 0}, "chi": 3, '
            '"det": -1, "signature": 0, "theta_boundary": -6}\n'
        )

    def test_handlebody_analyze_empty_form(self, tmp_path, capsys):
        """c1^2 of the empty form is the exact rational 0, like any other."""
        path = tmp_path / "ball.kirby"
        path.write_text("1-handles 0\n")
        _, out, _ = run(capsys, "handlebody", "analyze", str(path))
        assert out == (
            "chi=1\nb2=0\ndet=1\nsignature=0\nc1_squared=0\ntheta_boundary=-2\n"
        )
        _, out, _ = run(capsys, "handlebody", "analyze", str(path), "--json")
        assert out == (
            '{"b2": 0, "c1_squared": {"den": 1, "num": 0}, "chi": 1, '
            '"det": 1, "signature": 0, "theta_boundary": -2}\n'
        )


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "check", "embed", "2", "5", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("ExcludedCase")

    def test_validation_error_from_file(self, tmp_path, capsys):
        path = tmp_path / "bad.kirby"
        path.write_text("1-handles 0\nhandle tb=1 r=0 framing=1\n")
        code, _, err = run(capsys, "handlebody", "analyze", str(path))
        assert code == 1
        assert err.startswith("FramingMismatch")

    def test_invariant_violation(self, monkeypatch, capsys):
        from steinkit import brieskorn

        count = brieskorn.sigma_lattice
        monkeypatch.setattr(brieskorn, "sigma_lattice", lambda t: count(t) - 8)
        code, out, err = run(capsys, "brieskorn", "invariants", "2", "3", "5")
        assert code == 3
        assert out == ""
        assert err.startswith("InvariantViolation: ") and len(err.splitlines()) == 1

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["brieskorn", "invariants", "2", "3"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["torus-knot", "2", "3", "--bogus"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "front", "stats", "/nonexistent/file.front")
        assert code == 2
        assert "UsageError" in err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "steinkit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestTypedFailures:
    """Bad input ends in exit 1 with one typed line, never a traceback."""

    def assert_typed(self, proc, name):
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{name}: ")
        assert "Traceback" not in proc.stderr

    def test_non_ascii_digit_in_front(self, tmp_path):
        path = tmp_path / "bad.front"
        path.write_text("L 0\nR ²\n", encoding="utf-8")
        self.assert_typed(run_process("front", "stats", str(path)), "MalformedToken")

    @pytest.mark.parametrize(
        "command,suffix",
        [(("front", "stats"), ".front"), (("handlebody", "analyze"), ".kirby")],
    )
    def test_non_utf8_file(self, tmp_path, command, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"L 0\n\xff\xfe 1\nR 0\n")
        self.assert_typed(run_process(*command, str(path)), "MalformedToken")

    @pytest.mark.parametrize(
        "line",
        [
            "handle tb=1_0 r=0 framing=9",
            "handle tb=1 r=+1 framing=0",
            "handle tb=10 r=0 framing=\u0669",
            "lk 0 1 " + "9" * 5000,
        ],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "too-long"],
    )
    def test_kirby_integer_tokens(self, tmp_path, line):
        path = tmp_path / "bad.kirby"
        path.write_text(f"1-handles 0\n{line}\n", encoding="utf-8")
        proc = run_process("handlebody", "analyze", str(path))
        self.assert_typed(proc, "MalformedToken")

    def test_framing_mismatch_over_4300_digits(self, tmp_path):
        """tb - 1 of a 4,300-digit tb has 4,301 digits; the message still prints."""
        path = tmp_path / "big.kirby"
        path.write_text(f"1-handles 0\nhandle tb=-{'9' * 4300} r=0 framing=0\n")
        proc = run_process("handlebody", "analyze", str(path))
        self.assert_typed(proc, "FramingMismatch")

    def test_repeated_lk_pair(self, tmp_path):
        path = tmp_path / "twice.kirby"
        path.write_text(
            "1-handles 0\nhandle tb=1 r=0 framing=0\nhandle tb=-1 r=0 framing=-2\n"
            "lk 0 1 1\nlk 0 1 7\n"
        )
        proc = run_process("handlebody", "analyze", str(path))
        self.assert_typed(proc, "MalformedToken")
        assert proc.stderr == "MalformedToken: line 5: duplicate lk 0 1 line\n"

    def test_negative_stabilization_count(self):
        proc = run_process("torus-knot", "2", "3", "--stabilize=-1,0")
        self.assert_typed(proc, "InvalidParams")

    @pytest.mark.parametrize(
        "command, options",
        [("stats", ()), ("stabilize", ("--component", "0", "--dir", "up", "--at", "0"))],
        ids=["stats", "stabilize"],
    )
    def test_front_row_budget(self, tmp_path, command, options):
        """500 disjoint unknots would print 125,250 component and linking rows."""
        path = tmp_path / "unknots.front"
        path.write_text("L 0\nR 0\n" * 500, encoding="utf-8")
        proc = run_process("front", command, str(path), *options)
        self.assert_typed(proc, "WorkBudgetExceeded")
        assert proc.stderr == (
            f"WorkBudgetExceeded: a front of 500 components may emit over {cli.WORK_BUDGET} rows\n"
        )


def test_closed_stdout_exits_0():
    """A reader that stops after one line (``| head -1``) ends the run with
    exit 0 and nothing on stderr; the sweep prints about 3 MB, far more
    than a pipe holds."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinkit.cli", "brieskorn", "sigma-sweep", "--pmax", "80",
         "--nmax", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline() == "p=2 q=3 n=1 sigma=-8 closed=-8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def loaded_by(code):
    """The modules that ``code`` loads in a fresh interpreter, past those
    loaded at start-up. ``code`` may print; the list is the last line."""
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\n" + (
        "print(*sorted(set(sys.modules) - before))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


LAYERS = {
    f"steinkit.{m}"
    for m in ("brieskorn", "criteria", "fronts", "handlebody", "legendrian", "linalg")
}


def test_import_leaves_out_dataclasses_and_inspect():
    """The records are plain classes, so importing the CLI imports neither
    ``dataclasses`` nor the ``inspect`` it pulls in; and each command imports
    its own layers, so importing the CLI and building its parser imports no
    layer module, nor ``json``, ``fractions`` or ``decimal``."""
    loaded = loaded_by("import steinkit.cli; steinkit.cli.build_parser()")
    assert "steinkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "fractions", "decimal", *LAYERS}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["front", "stats", "{front}"], {"fronts", "legendrian"}),
        (["torus-knot", "2", "3"], {"fronts", "legendrian"}),
        (["brieskorn", "invariants", "2", "3", "5"], {"brieskorn", "legendrian"}),
        (["brieskorn", "invariants", "2", "3", "5", "--json"],
         {"brieskorn", "legendrian", "json"}),
        (["brieskorn", "seifert", "2", "3", "7"], {"brieskorn", "legendrian"}),
        (["handlebody", "analyze", "{kirby}"],
         {"handlebody", "legendrian", "linalg", "fractions"}),
        (["nucleus", "2", "3", "2"],
         {"brieskorn", "handlebody", "legendrian", "linalg", "fractions"}),
        (["check", "embed", "2", "3", "1"], {"brieskorn", "criteria", "legendrian"}),
        (["check", "flip", "--r0", "-3", "--up", "2", "--down", "0", "--target", "1"],
         {"criteria", "legendrian"}),
    ],
    ids=[
        "front-stats", "torus-knot", "brieskorn-table", "brieskorn-json", "brieskorn-seifert",
        "handlebody-analyze", "nucleus", "check-embed", "check-flip",
    ],
)
def test_command_imports_only_its_layers(tmp_path, argv, expected):
    """Of the layers, ``fractions`` and ``json``, a command loads exactly
    those it uses: only the commands that trace a diagram load ``fronts``."""
    front, kirby = tmp_path / "u.front", tmp_path / "h.kirby"
    front.write_text("L 0\nR 0\n", encoding="utf-8")
    kirby.write_text("1-handles 0\nhandle tb=1 r=0 framing=0\n", encoding="utf-8")
    argv = [a.format(front=front, kirby=kirby) for a in argv]
    loaded = loaded_by(f"from steinkit import cli; assert cli.main({argv!r}) == 0")
    watched = LAYERS | {"fractions", "json"}
    assert {m.removeprefix("steinkit.") for m in loaded & watched} == expected


def test_package_layers_are_lazy_attributes():
    """``import steinkit`` loads no layer; reading one as an attribute
    imports the module itself."""
    code = (
        "import steinkit\n"
        "assert not any(m.startswith('steinkit.') for m in sys.modules)\n"
        "names = ('brieskorn', 'criteria', 'errors', 'fronts', 'handlebody', 'legendrian',\n"
        "         'linalg')\n"
        "for name in names:\n"
        "    assert getattr(steinkit, name) is sys.modules[f'steinkit.{name}'], name"
    )
    assert LAYERS | {"steinkit", "steinkit.errors"} <= loaded_by(code)


def test_package_unknown_attribute():
    import steinkit

    with pytest.raises(AttributeError, match="nope"):
        steinkit.nope


def test_dir_choices_are_the_front_constants():
    """``build_parser`` spells the ``--dir`` choices out, so as not to import
    ``fronts``; they must stay ``fronts.UP`` and ``fronts.DOWN``."""
    from steinkit import fronts

    def sub(parser, name):
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    stabilize = sub(sub(cli.build_parser(), "front"), "stabilize")
    (action,) = (a for a in stabilize._actions if a.dest == "dir")
    assert tuple(action.choices) == (fronts.UP, fronts.DOWN)
