"""Command-line surface.

``COMMANDS`` holds every command's name and argument list as data, and
the module that runs it: ``front`` and ``torus-knot`` run in
``cli_front``, ``brieskorn`` in ``cli_brieskorn``, ``handlebody`` and
``nucleus`` in ``cli_handlebody``, ``check`` in ``cli_check``. There a
command is the function of its name, spaces and dashes written as
underscores (``check theta-survey`` is ``cli_check.check_theta_survey``),
and it returns its payload: a dict, or the ``NamedTuple`` record its layer
returns, as it is. One renderer prints every payload, and it reads a
record, at any depth, as the dict of its fields that are not None:

- ``--json``: ``emit_json(payload)``, sorted keys, byte-identical across
  runs; exact rationals are emitted as ``{"den": ..., "num": ...}``.
- table (default): one ``key=value`` line per payload key, through one
  value formatter. Bools print as ``true``/``false``, an integral
  ``Fraction`` as an integer, a dict or record as ``(k=v, ...)``, a plain
  tuple or list as ``(a, b)`` and any other object through ``str``; a
  list of dicts or records prints one ``k=v k=v`` line per row.

A command whose table has another shape returns the pair ``(payload,
lines)``, a plain tuple. Inputs stay under Python's 4,300-digit limit on
int-to-str conversion, but an exact result, a polynomial in them, may
not; ``main`` lifts the limit for the whole run and restores it at the
end, so a command formats its lines as it likes.

A command is one short process, so it pays only for what it uses. Where
no bytecode is cached (``PYTHONDONTWRITEBYTECODE=1``, say), a process
compiles every module it imports from source, and compiling is most of the
program's own part of a run. So ``main`` imports only the command module
of the command it runs, a command module imports the layers its commands
call, and ``build_parser`` imports neither: a process compiles this module
(3.3 ms) and one command module (0.2-0.8 ms), where this module with the
commands of every group took 4.7 ms (medians of 60 ``compile`` calls;
Python 3.11, two-CPU x86-64 host). ``emit_json`` writes JSON itself, and
hands ``json.dumps`` only a string that is not printable ASCII free of
``"`` and ``\\``: importing ``json``, to write one line, took 2.2 ms (median
of 21 processes), most of it compiling its decoder's patterns. On a sweep's
3.8 MB of JSON the writer also takes less time than ``json.dumps`` did.
``python -m steinkit.cli`` runs this file as ``__main__``, which registers
itself as ``steinkit.cli``, so that a command module importing its helpers
does not compile and run it a second time.

``main`` reads a well-formed argv with ``_read_argv``, against
``COMMANDS`` and without ``argparse``. Help, usage errors and any argv the
reader does not take exactly as ``argparse`` would go to ``build_parser()``,
the parser of every command (``tests/test_cli_golden.py`` checks that both
paths print the same).

A run prints into memory: ``main`` swaps ``sys.stdout`` and ``sys.stderr``
for two ``io.StringIO`` buffers for the whole run, parsing included, so a
command's output, its error line and the parser's help and usage text all
land there. At the end, also when an exception propagates, ``main``
restores both streams and ``_deliver``, the only code that writes to them,
writes stdout's buffer and then stderr's, one write and one flush each. For
help or a usage error ``main`` then raises the parser's ``SystemExit`` again.
The largest output, a sweep at ``WORK_BUDGET`` rows, is about 4 MB.

Every integer, on argv or in a file, is ASCII ``-?[0-9]+`` of at most 4,300
digits, read by ``errors.integer``: a bad one on argv is a usage error
(exit 2), and in a file a ``MalformedToken`` (exit 1). A file over
``READ_BUDGET`` bytes (4 MiB) is refused before it is decoded.

Exit codes: 0 on success, 1 on domain errors (typed error name on stderr),
2 on usage errors, 3 on a failed internal cross-check (``InvariantViolation``).
A reader that closes stdout early (``| head``), or a stdout closed from the
start (``>&-``), ends the run with exit 0 and nothing on stderr; a write
that fails otherwise (``> /dev/full``) exits 1 with one typed line, such as
``OSError: [Errno 28] No space left on device``. Where stderr is closed
(``2>&-``) or a write to it fails (``2> /dev/full``), the exit code alone
reports an error. Help and usage text take the same paths.

``main`` returns the exit code and never ends the process, so tests and
the benchmark's traced launcher call it in process. ``run``, the entry of
``python -m steinkit.cli`` and of the ``steinkit`` script, ends the process
with ``os._exit`` once ``main`` has delivered its output, so ``atexit``
handlers (coverage's subprocess hook, say) do not run: interpreter teardown
takes longer than most commands' own work, about 9 ms of a 70 ms run
(Python 3.11, two-CPU x86-64 host). It ends help and usage errors the same
way, with the code of their ``SystemExit``.
"""

from __future__ import annotations

import io
import math
import os
import sys
import types

from .errors import (
    DomainError, InvariantViolation, MalformedToken, WorkBudgetExceeded, integer,
)

# Most rows ``brieskorn sigma-sweep``, ``brieskorn casson-harer`` and ``check
# theta-survey`` may emit, bounded from their arguments before any work. A
# row costs O(log) integer steps, so a run at the budget takes one to three
# seconds (Python 3.11 on one core of an x86-64 host). ``front`` commands
# stay under it through ``fronts.COMPONENT_BUDGET``.
WORK_BUDGET = 10**5

# Most bytes a front or Kirby file may have, checked before it is decoded.
# A front the other budgets take is at most about 1 MB but for padding
# (comments, blank lines, spaces, leading zeros, repeated flip lines).
READ_BUDGET = 2**22


def _parse_schedule(text: str) -> tuple[int, int]:
    try:
        up_s, down_s = text.split(",")
        return integer(up_s), integer(down_s)
    except ValueError:
        import argparse  # only argparse reports this error
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from None


# "name" or "group name" -> (command module, arguments), in help order. An
# argument is a bare name (a positional int), ``--name`` (a required int
# option) or ``(name, add_argument kwargs)``; ``_read_argv`` reads the kwargs
# ``type``, ``choices``, ``required`` and ``default``, and ``metavar`` and
# ``help`` only show in help.
COMMANDS: dict[str, tuple[str, tuple]] = {
    "front stats": ("cli_front", (("file", {}),)),
    "front stabilize": ("cli_front", (
        ("file", {}), "--component", ("--dir", {"choices": ("up", "down"), "required": True}),
        "--at",
    )),
    "torus-knot": ("cli_front", (
        "p", "q", ("--stabilize", {"type": _parse_schedule, "metavar": "a,b"}),
    )),
    "brieskorn invariants": ("cli_brieskorn", ("p1", "p2", "p3")),
    "brieskorn seifert": ("cli_brieskorn", ("p1", "p2", "p3")),
    "brieskorn surgery": ("cli_brieskorn", ("p", "q", "n", ("sign", {}))),
    "brieskorn sigma-sweep": ("cli_brieskorn", ("--pmax", "--nmax")),
    "brieskorn casson-harer": ("cli_brieskorn", ("--pmax", "--nmax")),
    "handlebody analyze": ("cli_handlebody", (("file", {}),)),
    "nucleus": ("cli_handlebody", ("p", "q", "n")),
    "check hirz": ("cli_check", ("--tb", "--r", "--n", "--m")),
    "check embed": ("cli_check", ("p", "q", "eps")),
    "check prop-theta": ("cli_check", ("p", "q", "eps")),
    "check cave": ("cli_check", ("--tb", "--r", "--k")),
    "check flip": ("cli_check", ("--r0", "--up", "--down", "--target")),
    "check slice": ("cli_check", ("--tb", "--r", "--g")),
    "check theta-survey": ("cli_check", ("--bound",)),
}
GROUPS = {
    "front": "front diagram operations",
    "brieskorn": "Brieskorn sphere operations",
    "handlebody": "Kirby data operations",
    "check": "embedding and filling criteria",
}


def _is_fraction(value) -> bool:
    """An exact rational that is not an ``int``, known without importing
    ``fractions``."""
    return not isinstance(value, int) and hasattr(value, "denominator")


def _items(value):
    """The (key, value) pairs of a dict, or the fields of a ``NamedTuple``
    record that are not None; None for anything else."""
    if isinstance(value, dict):
        return value.items()
    if hasattr(value, "_fields"):
        return [(k, v) for k, v in zip(value._fields, value) if v is not None]
    return None


def _string(text: str) -> str:
    """``text`` as a JSON string, escaped as ``json.dumps`` escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # only a string that needs escaping pays for the import
    return json.dumps(text)


def emit_json(value) -> str:
    """``value`` as one line of JSON, as ``json.dumps(value, sort_keys=True,
    default=str)`` writes it, where a record is the dict of its fields that
    are not None and an exact rational the dict ``{"den": ..., "num": ...}``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _string(value)
    if _is_fraction(value):
        value = {"num": value.numerator, "den": value.denominator}
    items = _items(value)
    if items is not None:
        return "{" + ", ".join(f"{_string(k)}: {emit_json(v)}" for k, v in sorted(items)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(emit_json, value)) + "]"
    return _string(str(value))


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if _is_fraction(value) and value.denominator == 1:
        return str(value.numerator)
    items = _items(value)
    if items is not None:
        return "(" + ", ".join(f"{k}={_format(v)}" for k, v in items) + ")"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(map(_format, value)) + ")"
    return str(value)


def _row(values) -> str:
    return " ".join(f"{k}={_format(v)}" for k, v in _items(values))


def _table(payload):
    """The table lines of a payload, a dict or a record."""
    for key, value in _items(payload):
        if isinstance(value, list) and all(_items(v) is not None for v in value):
            yield from map(_row, value)
        else:
            yield f"{key}={_format(value)}"


def _check_rows(rows: int, flags: str) -> None:
    """Refuse, before any work, a command that may emit ``rows`` rows."""
    if rows > WORK_BUDGET:
        raise WorkBudgetExceeded(f"{flags} may emit over {WORK_BUDGET} rows")


def _coprime_pairs(bound: int):
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


class UsageExit(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read(READ_BUDGET + 1)
    except OSError as exc:
        raise UsageExit(str(exc)) from None
    if len(data) > READ_BUDGET:
        raise WorkBudgetExceeded(f"{path} is over {READ_BUDGET} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedToken(
            f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def _spec(arg) -> tuple[str, dict]:
    """A command's argument as ``add_argument``'s name and keywords."""
    if isinstance(arg, tuple):
        return arg
    if arg.startswith("--"):
        return arg, {"type": integer, "required": True}
    return arg, {"type": integer}


def _is_value(token: str) -> bool:
    """``argparse`` reads ``token`` as a value, not as an option: it does not
    start with ``-``, or it is ``-`` alone or ``-`` and decimal digits (a
    parser with no option that looks like a negative number)."""
    return token[:1] != "-" or token == "-" or token[1:].isdecimal()


def _read_argv(argv):
    """The values ``build_parser().parse_args(argv)`` gives, read without
    ``argparse``, or None at the first token not taken exactly as
    ``argparse`` takes it: help, ``--``, ``--name=value``, an abbreviated,
    unknown, repeated or missing option, a wrong count of positionals or a
    value that does not convert."""
    for name, (_module, arguments) in COMMANDS.items():
        words = name.split()
        if list(argv[: len(words)]) == words:
            break
    else:
        return None
    specs = dict(map(_spec, arguments))
    given, positionals = {}, []  # argument name -> its token; positional tokens
    tokens = iter(argv[len(words):])
    for token in tokens:
        if _is_value(token):
            positionals.append(token)
        elif token in given or token != "--json" and token not in specs:
            return None  # a repeated, unknown or abbreviated option, help or ``--``
        elif token == "--json":
            given[token] = True
        else:
            given[token] = value = next(tokens, "--")
            if not _is_value(value):
                return None
    names = [n for n in specs if n[:1] != "-"]
    if len(positionals) != len(names):
        return None
    given.update(zip(names, positionals))
    # the command words under the dests of build_parser's two subparser levels
    values = dict(zip(("command", "subcommand"), words), json="--json" in given, name=name)
    for name, kwargs in specs.items():
        if name in given:
            try:
                value = kwargs.get("type", str)(given[name])
            except Exception:  # argparse reports the failed conversion
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        values[name.lstrip("-").replace("-", "_")] = value
    return types.SimpleNamespace(**values)


def build_parser():
    """The ``argparse`` parser of every command, for help and usage errors."""
    import argparse

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="steinkit",
        description="Exact invariants of Legendrian fronts, Brieskorn spheres "
        "and Stein handlebodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (_module, arguments) in COMMANDS.items():
        *group, leaf = name.split()
        parent = sub
        if group:
            if group[0] not in groups:
                groups[group[0]] = sub.add_parser(
                    group[0], help=GROUPS[group[0]]
                ).add_subparsers(dest="subcommand", required=True)
            parent = groups[group[0]]
        p = parent.add_parser(leaf, parents=[shared])
        for arg_name, kwargs in map(_spec, arguments):
            p.add_argument(arg_name, **kwargs)
        p.set_defaults(name=name)
    return parser


def _fail(name: str, exc: Exception, code: int) -> int:
    """Print a failed run's one typed line and return its exit code."""
    print(f"{name}: {exc}", file=sys.stderr)
    return code


def _run(argv) -> int:
    """Run the command ``argv`` names, print its output and return the exit
    code; ``argparse`` prints help and usage errors and raises ``SystemExit``."""
    # None for help, a usage error or an argv the reader leaves to argparse
    args = _read_argv(argv) or build_parser().parse_args(argv)
    from importlib import import_module
    module = import_module(f"steinkit.{COMMANDS[args.name][0]}")
    func = getattr(module, args.name.replace(" ", "_").replace("-", "_"))
    try:
        result = func(args)
    except DomainError as exc:
        return _fail(type(exc).__name__, exc, 1)
    except UsageExit as exc:
        return _fail("UsageError", exc, 2)
    except InvariantViolation as exc:
        return _fail("InvariantViolation", exc, 3)
    # a record is a tuple too, but not a plain one
    payload, lines = result if type(result) is tuple else (result, None)
    if args.json:
        lines = [emit_json(payload)]
    for line in _table(payload) if lines is None else lines:
        print(line)
    return 0


def _deliver(text: str, stream) -> OSError | None:
    """Write ``text`` to ``stream``, the real stdout or stderr, and flush it;
    return the error of a write that fails."""
    # a stream closed from the start (``>&-``) takes nothing; nor is empty text
    # written, since unbuffered (``-u``) even an empty write reaches the file
    if stream is None or not text:
        return None
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        # what is still buffered goes to /dev/null, so no later flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    streams, limit = (sys.stdout, sys.stderr), sys.get_int_max_str_digits()
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    # lifted for the whole run; ``errors.integer`` caps every input itself
    sys.set_int_max_str_digits(0)
    parsed = True
    try:
        code = _run(argv)
    except SystemExit as exc:  # help or a usage error
        code, parsed = exc.code, False
    finally:
        sys.stdout, sys.stderr = streams
        sys.set_int_max_str_digits(limit)
        failed = _deliver(out.getvalue(), streams[0])
        # a reader that went away (``| head``) ends the run
        if failed is not None and not isinstance(failed, BrokenPipeError):
            print(f"{type(failed).__name__}: {failed}", file=err)
            code = 1
        _deliver(err.getvalue(), streams[1])
    if not parsed:
        raise SystemExit(code)
    return code


def run():
    """Run ``main`` on ``sys.argv`` and end the process with its exit code,
    skipping interpreter teardown; ``main`` has flushed what it printed."""
    try:
        code = main()
    except SystemExit as exc:  # help or a usage error, already printed
        code = exc.code
    os._exit(code)


if __name__ == "__main__":
    # the command modules import their helpers from ``steinkit.cli``: this
    # module, not a second copy compiled again
    sys.modules["steinkit.cli"] = sys.modules[__name__]
    run()
