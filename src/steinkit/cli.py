"""Command-line surface.

Each subcommand is one function, registered with ``@command`` next to its
argument list, that returns its payload: a dict, or the ``NamedTuple``
record its layer returns, as it is. ``build_parser`` builds the argument
parser from that registry. One renderer prints every payload, and it
reads a record, at any depth, as the dict of its fields that are not None:

- ``--json``: ``emit_json(payload)``, sorted keys, byte-identical across
  runs; exact rationals are emitted as ``{"den": ..., "num": ...}``.
- table (default): one ``key=value`` line per payload key, through one
  value formatter. Bools print as ``true``/``false``, an integral
  ``Fraction`` as an integer, a dict or record as ``(k=v, ...)``, a plain
  tuple or list as ``(a, b)`` and any other object through ``str``; a
  list of dicts or records prints one ``k=v k=v`` line per row.

A subcommand whose table has another shape returns the pair ``(payload,
lines)``, a plain tuple. Inputs stay under Python's 4,300-digit limit on
int-to-str conversion, but an exact result, a polynomial in them, may
not; ``main`` lifts the limit for the whole run and restores it at the
end, so a command formats its lines as it likes.

A command is one short process, so it pays only for what it uses: it
imports the layers it calls inside its function (``emit_json`` imports
``json``; ``build_parser`` imports no layer). ``main`` reads a well-formed
argv with ``_read_argv``, against the same registry and without
``argparse``. Help, usage errors and any argv the reader does not take
exactly as ``argparse`` would go to ``build_parser()``, the parser of every
command, which prints them (``tests/test_cli_golden.py`` checks that both
paths print the same).

Every integer, on argv or in a file, is ASCII ``-?[0-9]+`` of at most 4,300
digits, read by ``errors.integer``: a bad one on argv is a usage error
(exit 2), and in a file a ``MalformedToken`` (exit 1). A file over
``READ_BUDGET`` bytes (4 MiB) is refused before it is decoded.

Exit codes: 0 on success, 1 on domain errors (typed error name on stderr),
2 on usage errors, 3 on a failed internal cross-check (``InvariantViolation``).
A reader that closes stdout early (``| head``), or a stdout closed from the
start (``>&-``), ends the run with exit 0 and nothing on stderr; a write
that fails otherwise (``> /dev/full``) exits 1 with one typed line, such as
``OSError: [Errno 28] No space left on device``. With stderr closed
(``2>&-``) the exit code alone reports an error.

``main`` returns the exit code and never ends the process, so tests and
the benchmark's traced launcher call it in process. ``run``, the entry of
``python -m steinkit.cli`` and of the ``steinkit`` script, ends the process
with ``os._exit`` once stdout and stderr are flushed, so ``atexit`` handlers
(coverage's subprocess hook, say) do not run: interpreter teardown takes
longer than most commands' own work, about 9 ms of a 70 ms run (Python 3.11,
two-CPU x86-64 host). Help and usage errors leave through
``argparse``'s ``SystemExit``, and end as any Python process does.
"""

from __future__ import annotations

import math
import os
import sys
import types

from .errors import (
    DomainError, ExcludedCase, InvariantViolation, MalformedToken, WorkBudgetExceeded, integer,
)

# Most rows ``brieskorn sigma-sweep``, ``brieskorn casson-harer`` and ``check
# theta-survey`` may emit, bounded from their arguments before any work. A
# row costs O(log) integer steps, so a run at the budget takes one to three
# seconds (Python 3.11 on one core of an x86-64 host).
WORK_BUDGET = 10**5

# Most bytes a front or Kirby file may have, checked before it is decoded.
# A front the other budgets take is at most about 1 MB but for padding
# (comments, blank lines, spaces, leading zeros, repeated flip lines).
READ_BUDGET = 2**22

# "name" or "group name" -> (function, arguments), in registration order
COMMANDS: dict[str, tuple] = {}
GROUPS = {
    "front": "front diagram operations",
    "brieskorn": "Brieskorn sphere operations",
    "handlebody": "Kirby data operations",
    "check": "embedding and filling criteria",
}


def command(name: str, *arguments):
    """Register a subcommand. An argument is a bare name (a positional int),
    ``--name`` (a required int option) or ``(name, add_argument kwargs)``;
    ``_read_argv`` reads the kwargs ``type``, ``choices``, ``required`` and
    ``default``, and ``metavar`` and ``help`` only show in help."""

    def register(func):
        COMMANDS[name] = (func, arguments)
        return func

    return register


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


def _canonical(value):
    if _is_fraction(value):
        return {"num": value.numerator, "den": value.denominator}
    items = _items(value)
    if items is not None:
        return {k: _canonical(v) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def emit_json(result) -> str:
    import json
    return json.dumps(_canonical(result), sort_keys=True, default=str)


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


def _schedule_table(payload):
    """The table shows a stabilization schedule as the pair (up, down)."""
    return _table({k: tuple(v) if k == "schedule" else v for k, v in _items(payload)})


def _events(diagram) -> list[list]:
    return [[ev.kind, ev.position] for ev in diagram.events]


def _front_payload(diagram) -> dict:
    from . import fronts
    comps = fronts.components(diagram)
    k = len(comps)
    _check_rows(k + k * (k - 1) // 2, f"a front of {k} components")
    per_comp = [
        {"index": c.index, **fronts.invariants(diagram, c.index)._asdict()} for c in comps
    ]
    table = fronts.linking_matrix(diagram)
    linking = [
        {"i": i, "j": j, "lk": table[i][j]} for i in range(k) for j in range(i + 1, k)
    ]
    return {"components": per_comp, "linking": linking}


def _check_rows(rows: int, flags: str) -> None:
    """Refuse, before any work, a command that may emit ``rows`` rows."""
    if rows > WORK_BUDGET:
        raise WorkBudgetExceeded(f"{flags} may emit over {WORK_BUDGET} rows")


def _coprime_pairs(bound: int):
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _triple(args):
    from . import brieskorn
    return brieskorn.BrieskornTriple(args.p1, args.p2, args.p3)


def _parse_schedule(text: str) -> tuple[int, int]:
    try:
        up_s, down_s = text.split(",")
        return integer(up_s), integer(down_s)
    except ValueError:
        import argparse  # only argparse reports this error
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from None


@command("front stats", ("file", {}))
def _front_stats(args):
    from . import fronts
    payload = _front_payload(fronts.parse_front(_read(args.file)))
    return payload, [
        f"components={len(payload['components'])}",
        *(f"component {c['index']}: tb={c['tb']} r={c['r']}" for c in payload["components"]),
        *(f"lk {e['i']} {e['j']} = {e['lk']}" for e in payload["linking"]),
    ]


@command(
    "front stabilize", ("file", {}), "--component",
    ("--dir", {"choices": ("up", "down"), "required": True}), "--at",
)
def _front_stabilize(args):
    from . import fronts
    diagram = fronts.parse_front(_read(args.file))
    out = fronts.stabilize_diagram(diagram, args.component, args.dir, args.at)
    payload = {
        "events": _events(out),
        "flips": sorted(out.orientation_flips),
        **_front_payload(out),
    }
    # table mode prints the front file format so the output round-trips
    return payload, fronts.serialize_front(out).splitlines()


@command("torus-knot", "p", "q", ("--stabilize", {"type": _parse_schedule, "metavar": "a,b"}))
def _torus_knot(args):
    from . import fronts
    params = fronts.TorusKnotParams(args.p, args.q)
    schedule = None if args.stabilize is None else fronts.StabilizationSchedule(*args.stabilize)
    diagram = fronts.torus_knot_front(params, schedule)
    inv = fronts.invariants(diagram, 0)
    payload = {"events": _events(diagram), "tb": inv.tb, "r": inv.r}
    word = "; ".join(f"{kind} {position}" for kind, position in payload["events"])
    return payload, [word, f"tb={inv.tb} r={inv.r}"]


@command("brieskorn invariants", "p1", "p2", "p3")
def _brieskorn_invariants(args):
    from . import brieskorn
    inv = brieskorn.milnor_invariants(_triple(args))
    payload = {"b2": inv.b2, "chi": inv.chi, "sigma": inv.sigma, "theta": inv.theta_boundary}
    # c1 is in the JSON only
    return {**payload, "c1": inv.c1}, _table(payload)


@command("brieskorn seifert", "p1", "p2", "p3")
def _brieskorn_seifert(args):
    from . import brieskorn
    return brieskorn.seifert_data(_triple(args))


@command("brieskorn surgery", "p", "q", "n", ("sign", {}))
def _brieskorn_surgery(args):
    from . import brieskorn
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise UsageExit(f"sign must be + or -, got {args.sign!r}")
    result = brieskorn.surgery_to_brieskorn(
        brieskorn.SurgeryDescription(p=args.p, q=args.q, n=args.n, sign=sign)
    )
    return {"sign": result.sign, **result.triple._asdict()}, [str(result)]


@command("brieskorn sigma-sweep", "--pmax", "--nmax")
def _sigma_sweep(args):
    from . import brieskorn
    pmax, nmax = max(args.pmax, 0), max(args.nmax, 0)
    _check_rows(pmax * (pmax - 1) // 2 * nmax, f"--pmax {args.pmax} --nmax {args.nmax}")
    rows = []
    # without an n there is no row, so the pairs are not enumerated
    for p, q in _coprime_pairs(pmax if nmax else 0):
        for n in range(1, nmax + 1):
            lattice = brieskorn.sigma_lattice(brieskorn.BrieskornTriple(p, q, n * p * q - 1))
            closed = brieskorn.sigma_closed_form(p, q, n)
            rows.append({"p": p, "q": q, "n": n, "sigma": lattice, "closed": closed})
    return {"rows": rows}


@command("brieskorn casson-harer", "--pmax", "--nmax")
def _casson_harer(args):
    from . import brieskorn
    pmax, nmax = max(args.pmax, 0), max(args.nmax, 0)
    # at most two triples per (p, n)
    _check_rows(2 * pmax * nmax, f"--pmax {args.pmax} --nmax {args.nmax}")
    triples = brieskorn.casson_harer_families(args.pmax, args.nmax)
    return {"triples": triples}, [f"Sigma({t.p1},{t.p2},{t.p3})" for t in triples]


@command("handlebody analyze", ("file", {}))
def _handlebody_analyze(args):
    from . import handlebody
    return handlebody.analyze(handlebody.parse_kirby(_read(args.file)))


@command("nucleus", "p", "q", "n")
def _nucleus(args):
    from . import handlebody
    data = handlebody.nucleus(args.p, args.q, args.n)
    # ``l`` and ``fiber_genus`` are one number; the payload keeps both keys
    head = {"l": data.fiber_genus, **data._asdict()}
    kirby, analysis = head.pop("kirby"), head.pop("analysis")
    handles = kirby.two_handles
    payload = {**head, "handles": handles, "linking": kirby.linking, "analysis": analysis}
    return payload, [*_table(head), *(f"handle {_row(h)}" for h in handles), *_table(analysis)]


@command("check hirz", "--tb", "--r", "--n", "--m")
def _check_hirz(args):
    from . import criteria, legendrian
    inv0 = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    verdict = criteria.hirz_check(inv0, args.n, args.m)
    return verdict, _schedule_table(verdict)


@command("check embed", "p", "q", "eps")
def _check_embed(args):
    from . import criteria
    plan = criteria.brieskorn_embed_plan(args.p, args.q, args.eps)
    payload = {**plan._asdict(), "split_forms": criteria.SPLIT_FORMS}
    return payload, _schedule_table({**payload, "split_forms": " ".join(criteria.SPLIT_FORMS)})


@command("check prop-theta", "p", "q", "eps")
def _check_prop_theta(args):
    from . import criteria
    return criteria.prop_theta_check(args.p, args.q, args.eps)


@command("check cave", "--tb", "--r", "--k")
def _check_cave(args):
    from . import criteria, legendrian
    inv = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    return criteria.cave_check(inv, args.k)


@command("check flip", "--r0", "--up", "--down", "--target")
def _check_flip(args):
    from . import criteria
    return criteria.flip_reach(args.r0, args.up, args.down, args.target)


@command("check slice", "--tb", "--r", "--g")
def _check_slice(args):
    from . import criteria, legendrian
    inv = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    return {"satisfied": criteria.slice_genus_check(inv, args.g)}


@command("check theta-survey", "--bound")
def _check_theta_survey(args):
    """``check prop-theta`` for eps = +1 then -1 over coprime 2 <= p < q <= bound."""
    from . import criteria
    bound = max(args.bound, 0)
    _check_rows(bound * (bound - 1), f"--bound {args.bound}")
    rows, excluded = [], []
    for eps in (1, -1):
        for p, q in _coprime_pairs(args.bound):
            try:
                report = criteria.prop_theta_check(p, q, eps)
            except ExcludedCase:
                excluded.append([p, q, eps])
                continue
            rows.append({"p": p, "q": q, "eps": eps, **report._asdict()})
    return {"rows": rows, "excluded": excluded}


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
    """A registered argument as ``add_argument``'s name and keywords."""
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
    for name, (func, arguments) in COMMANDS.items():
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
    values = dict(zip(("command", "subcommand"), words), json="--json" in given, func=func)
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
    for name, (func, arguments) in COMMANDS.items():
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
        p.set_defaults(func=func)
    return parser


def _fail(name: str, exc: Exception, code: int) -> int:
    """Print a failed run's one typed line and return its exit code."""
    if sys.stderr is not None:  # with stderr closed, print would write to stdout
        print(f"{name}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # lifted for the whole run; ``errors.integer`` caps every input itself
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _read_argv(argv)
        if args is None:  # help, a usage error or an argv the reader leaves to argparse
            args = build_parser().parse_args(argv)
        try:
            result = args.func(args)
        except DomainError as exc:
            return _fail(type(exc).__name__, exc, 1)
        except UsageExit as exc:
            return _fail("UsageError", exc, 2)
        except InvariantViolation as exc:
            return _fail("InvariantViolation", exc, 3)
        if sys.stdout is None:  # closed from the start (``>&-``): no reader to print to
            return 0
        # a record is a tuple too, but not a plain one
        payload, lines = result if type(result) is tuple else (result, None)
        try:
            if args.json:
                print(emit_json(payload))
            else:
                for line in _table(payload) if lines is None else lines:
                    print(line)
            sys.stdout.flush()
        except OSError as exc:
            # What is still buffered goes to /dev/null, so no later flush fails again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            # a reader that went away (``| head``) ends the run
            if not isinstance(exc, BrokenPipeError):
                return _fail(type(exc).__name__, exc, 1)
        return 0
    finally:
        sys.set_int_max_str_digits(limit)


def run():
    """Run ``main`` on ``sys.argv`` and end the process with its exit code
    once stdout and stderr are flushed, skipping interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
