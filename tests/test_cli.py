"""CLI contract tests: output shapes, determinism and exit codes."""

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

    def test_negative_stabilization_count(self):
        proc = run_process("torus-knot", "2", "3", "--stabilize=-1,0")
        self.assert_typed(proc, "InvalidParams")
