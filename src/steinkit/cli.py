"""Command-line surface.

Each subcommand is one function, registered with ``@command`` next to its
argument list, that returns its payload dict; ``build_parser`` builds the
argument parser from that registry. One renderer prints every payload:

- ``--json``: ``emit_json(payload)``, sorted keys, byte-identical across
  runs; exact rationals are emitted as ``{"den": ..., "num": ...}``.
- table (default): one ``key=value`` line per payload key, through one
  value formatter. Bools print as ``true``/``false``, an integral
  ``Fraction`` as an integer, a dict as ``(k=v, ...)`` and a tuple or list
  as ``(a, b)``; a list of dicts prints one ``k=v k=v`` line per row.

A subcommand whose table has another shape returns ``(payload, lines)``.
Only the renderer lifts Python's 4,300-digit limit on int-to-str
conversion, so lines that can hold a big result are left for it to
format: they are lazy iterables such as ``_table``'s, and an object such
as an ``OrientedBrieskorn`` prints through ``str`` when it is rendered.

A command is one short process, so it pays only for what it uses: it
imports the layers it calls inside its function (``emit_json`` imports
``json``; ``build_parser`` imports no layer), and ``main`` builds the
parser of the one command argv starts with (``nucleus``, ``front stats``).
Other argv get ``build_parser()``'s parser of every command, which prints
the same (``tests/test_cli_golden.py`` checks it).

Exit codes: 0 on success, 1 on domain errors (typed error name on stderr),
2 on usage errors, 3 on a failed internal cross-check (``InvariantViolation``).
A reader that closes stdout early (``| head``) ends the run with exit 0.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .errors import (
    DomainError, ExcludedCase, InvariantViolation, MalformedToken, WorkBudgetExceeded,
)

# Most rows ``brieskorn sigma-sweep``, ``brieskorn casson-harer`` and ``check
# theta-survey`` may emit, bounded from their arguments before any work. A
# row costs O(log) integer steps, so a run at the budget takes one to three
# seconds (Python 3.11 on one core of an x86-64 host).
WORK_BUDGET = 10**5

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
    ``--name`` (a required int option) or ``(name, add_argument kwargs)``."""

    def register(func):
        COMMANDS[name] = (func, arguments)
        return func

    return register


def _is_fraction(value) -> bool:
    """An exact rational that is not an ``int``, known without importing
    ``fractions``."""
    return not isinstance(value, int) and hasattr(value, "denominator")


def _canonical(value):
    if _is_fraction(value):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
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
    if isinstance(value, dict):
        return "(" + ", ".join(f"{k}={_format(v)}" for k, v in value.items()) + ")"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(map(_format, value)) + ")"
    return str(value)


def _row(values: dict) -> str:
    return " ".join(f"{k}={_format(v)}" for k, v in values.items())


def _table(payload: dict):
    """The table lines of a payload, formatted lazily (see the module doc)."""
    for key, value in payload.items():
        if isinstance(value, list) and all(isinstance(v, dict) for v in value):
            yield from map(_row, value)
        else:
            yield f"{key}={_format(value)}"


def _asdict(value):
    """A ``NamedTuple`` record as a dict, and so on down into its fields
    and into tuples and lists; anything else as it is."""
    if hasattr(value, "_fields"):
        return {k: _asdict(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_asdict, value))
    return value


def _fields(record) -> dict:
    """A record result as a payload; fields that are None are left out."""
    return {k: v for k, v in _asdict(record).items() if v is not None}


def _schedule_table(payload: dict):
    """The table shows a stabilization schedule as the pair (up, down)."""
    s = payload.get("schedule")
    return _table(payload if s is None else {**payload, "schedule": (s["up"], s["down"])})


def _events(diagram) -> list[list]:
    return [[ev.kind, ev.position] for ev in diagram.events]


def _front_payload(diagram) -> dict:
    from . import fronts
    comps = fronts.components(diagram)
    k = len(comps)
    _check_rows(k + k * (k - 1) // 2, f"a front of {k} components")
    per_comp = [
        {"index": c.index, **_asdict(fronts.invariants(diagram, c.index))} for c in comps
    ]
    linking = [
        {"i": i, "j": j, "lk": fronts.linking_number(diagram, i, j)}
        for i in range(k)
        for j in range(i + 1, k)
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
        return int(up_s), int(down_s)
    except ValueError:
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
    return _fields(brieskorn.seifert_data(_triple(args)))


@command("brieskorn surgery", "p", "q", "n", ("sign", {}))
def _brieskorn_surgery(args):
    from . import brieskorn
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise UsageExit(f"sign must be + or -, got {args.sign!r}")
    result = brieskorn.surgery_to_brieskorn(
        brieskorn.SurgeryDescription(p=args.p, q=args.q, n=args.n, sign=sign)
    )
    return {"sign": result.sign, **_asdict(result.triple)}, [result]


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
    return (
        {"triples": _asdict(triples)},
        [f"Sigma({t.p1},{t.p2},{t.p3})" for t in triples],
    )


@command("handlebody analyze", ("file", {}))
def _handlebody_analyze(args):
    from . import handlebody
    return _fields(handlebody.analyze(handlebody.parse_kirby(_read(args.file))))


@command("nucleus", "p", "q", "n")
def _nucleus(args):
    from . import handlebody
    data = handlebody.nucleus(args.p, args.q, args.n)
    analysis = _fields(handlebody.analyze(data.kirby))
    head = _fields(data)
    kirby = head.pop("kirby")
    # ``l`` and ``fiber_genus`` are one number; the payload keeps both keys
    head = {"l": data.fiber_genus, **head}
    handles = kirby["two_handles"]
    payload = {**head, "handles": handles, "linking": kirby["linking"], "analysis": analysis}
    return payload, itertools.chain(
        _table(head), (f"handle {_row(h)}" for h in handles), _table(analysis)
    )


@command("check hirz", "--tb", "--r", "--n", "--m")
def _check_hirz(args):
    from . import criteria, legendrian
    inv0 = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    payload = _fields(criteria.hirz_check(inv0, args.n, args.m))
    return payload, _schedule_table(payload)


@command("check embed", "p", "q", "eps")
def _check_embed(args):
    from . import criteria
    plan = criteria.brieskorn_embed_plan(args.p, args.q, args.eps)
    payload = {
        "source": _asdict(plan.source),
        "schedule": _asdict(plan.schedule),
        "target": _asdict(plan.target),
        "framing": plan.framing,
        "boundary": plan.boundary,
        "split_forms": criteria.SPLIT_FORMS,
    }
    return payload, _schedule_table({**payload, "split_forms": " ".join(criteria.SPLIT_FORMS)})


@command("check prop-theta", "p", "q", "eps")
def _check_prop_theta(args):
    from . import criteria
    return _fields(criteria.prop_theta_check(args.p, args.q, args.eps))


@command("check cave", "--tb", "--r", "--k")
def _check_cave(args):
    from . import criteria, legendrian
    inv = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    return _fields(criteria.cave_check(inv, args.k))


@command("check flip", "--r0", "--up", "--down", "--target")
def _check_flip(args):
    from . import criteria
    return _fields(criteria.flip_reach(args.r0, args.up, args.down, args.target))


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
            rows.append({"p": p, "q": q, "eps": eps, **_fields(report)})
    return {"rows": rows, "excluded": excluded}


class UsageExit(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageExit(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedToken(
            f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command or, when ``argv`` starts with the words
    of one command, the parser of that command alone (see the module doc)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="steinkit",
        description="Exact invariants of Legendrian fronts, Brieskorn spheres "
        "and Stein handlebodies.",
    )
    commands, metavar = COMMANDS, None
    for name in COMMANDS:
        if name.split() == list(argv[: name.count(" ") + 1]):
            # argparse reports extra arguments under a usage line naming all
            metavar = "{%s}" % ",".join(dict.fromkeys(n.split()[0] for n in COMMANDS))
            commands = {name: COMMANDS[name]}
            break
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    groups = {}
    for name, (func, arguments) in commands.items():
        *group, leaf = name.split()
        parent = sub
        if group:
            if group[0] not in groups:
                groups[group[0]] = sub.add_parser(
                    group[0], help=GROUPS[group[0]]
                ).add_subparsers(dest="subcommand", required=True)
            parent = groups[group[0]]
        p = parent.add_parser(leaf, parents=[shared])
        for arg in arguments:
            if isinstance(arg, tuple):
                p.add_argument(arg[0], **arg[1])
            elif arg.startswith("--"):
                p.add_argument(arg, type=int, required=True)
            else:
                p.add_argument(arg, type=int)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        result = args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except UsageExit as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"InvariantViolation: {exc}", file=sys.stderr)
        return 3
    payload, lines = result if isinstance(result, tuple) else (result, None)
    # Inputs stay under the 4,300-digit limit on int(), but an exact result,
    # a polynomial in them, may not; the limit is lifted only to print it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(emit_json(payload))
        else:
            for line in _table(payload) if lines is None else lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``): that ends the run, and once
        # stdout is /dev/null the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
