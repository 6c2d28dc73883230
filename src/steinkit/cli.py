"""Command-line surface.

Every subcommand has a table mode (default, plain ``key=value`` lines) and
a ``--json`` mode with sorted keys, byte-identical across runs. Exact
rationals are emitted as ``{"den": ..., "num": ...}``. Exit codes: 0 on
success, 1 on domain errors (typed error name on stderr), 2 on usage
errors, 3 on a failed internal cross-check (``InvariantViolation``).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import brieskorn, criteria, fronts, handlebody
from .errors import DomainError, InvariantViolation, MalformedToken


def _canonical(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def emit_json(result) -> str:
    return json.dumps(_canonical(result), sort_keys=True)


def _scalar(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return str(value)


def _emit(args, data: dict, table_lines: list[str]) -> None:
    if args.json:
        print(emit_json(data))
    else:
        for line in table_lines:
            print(line)


def _front_payload(diagram: fronts.FrontDiagram) -> dict:
    comps = fronts.components(diagram)
    per_comp = []
    for c in comps:
        inv = fronts.invariants(diagram, c.index)
        per_comp.append({"index": c.index, "tb": inv.tb, "r": inv.r})
    linking = [
        {"i": i, "j": j, "lk": fronts.linking_number(diagram, i, j)}
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    ]
    return {"components": per_comp, "linking": linking}


def _cmd_front_stats(args) -> None:
    diagram = fronts.parse_front(_read(args.file))
    payload = _front_payload(diagram)
    lines = [f"components={len(payload['components'])}"]
    for c in payload["components"]:
        lines.append(f"component {c['index']}: tb={c['tb']} r={c['r']}")
    for entry in payload["linking"]:
        lines.append(f"lk {entry['i']} {entry['j']} = {entry['lk']}")
    _emit(args, payload, lines)


def _cmd_front_stabilize(args) -> None:
    diagram = fronts.parse_front(_read(args.file))
    out = fronts.stabilize_diagram(diagram, args.component, args.dir, args.at)
    payload = {
        "events": [[ev.kind, ev.position] for ev in out.events],
        "flips": sorted(out.orientation_flips),
        **_front_payload(out),
    }
    # table mode prints the front file format so the output round-trips
    _emit(args, payload, fronts.serialize_front(out).splitlines())


def _parse_schedule(text: str) -> tuple[int, int]:
    try:
        up_s, down_s = text.split(",")
        return int(up_s), int(down_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from None


def _cmd_torus_knot(args) -> None:
    params = fronts.TorusKnotParams(args.p, args.q)
    schedule = None
    if args.stabilize is not None:
        schedule = fronts.StabilizationSchedule(*args.stabilize)
    diagram = fronts.torus_knot_front(params, schedule)
    inv = fronts.invariants(diagram, 0)
    word = "; ".join(f"{ev.kind} {ev.position}" for ev in diagram.events)
    payload = {
        "events": [[ev.kind, ev.position] for ev in diagram.events],
        "tb": inv.tb,
        "r": inv.r,
    }
    _emit(args, payload, [word, f"tb={inv.tb} r={inv.r}"])


def _cmd_brieskorn_invariants(args) -> None:
    inv = brieskorn.milnor_invariants(
        brieskorn.BrieskornTriple(args.p1, args.p2, args.p3)
    )
    payload = {
        "b2": inv.b2, "chi": inv.chi, "sigma": inv.sigma,
        "theta": inv.theta_boundary, "c1": inv.c1,
    }
    _emit(args, payload, [
        f"b2={inv.b2}", f"chi={inv.chi}", f"sigma={inv.sigma}",
        f"theta={inv.theta_boundary}",
    ])


def _cmd_brieskorn_seifert(args) -> None:
    data = brieskorn.seifert_data(
        brieskorn.BrieskornTriple(args.p1, args.p2, args.p3)
    )
    payload = {"q1": data.q1, "q2": data.q2, "q3": data.q3}
    _emit(args, payload, [f"q1={data.q1}", f"q2={data.q2}", f"q3={data.q3}"])


def _cmd_brieskorn_surgery(args) -> None:
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise UsageExit(f"sign must be + or -, got {args.sign!r}")
    result = brieskorn.surgery_to_brieskorn(
        brieskorn.SurgeryDescription(p=args.p, q=args.q, n=args.n, sign=sign)
    )
    t = result.triple
    payload = {"sign": result.sign, "p1": t.p1, "p2": t.p2, "p3": t.p3}
    _emit(args, payload, [str(result)])


def _cmd_sigma_sweep(args) -> None:
    import math

    rows = []
    for p in range(2, args.pmax + 1):
        for q in range(p + 1, args.pmax + 1):
            if math.gcd(p, q) != 1:
                continue
            for n in range(1, args.nmax + 1):
                lattice = brieskorn.sigma_lattice(
                    brieskorn.BrieskornTriple(p, q, n * p * q - 1)
                )
                closed = brieskorn.sigma_closed_form(p, q, n)
                rows.append(
                    {"p": p, "q": q, "n": n, "sigma": lattice, "closed": closed}
                )
    lines = [
        f"p={r['p']} q={r['q']} n={r['n']} sigma={r['sigma']} closed={r['closed']}"
        for r in rows
    ]
    _emit(args, {"rows": rows}, lines)


def _cmd_casson_harer(args) -> None:
    triples = brieskorn.casson_harer_families(args.pmax, args.nmax)
    rows = [{"p1": t.p1, "p2": t.p2, "p3": t.p3} for t in triples]
    lines = [f"Sigma({t.p1},{t.p2},{t.p3})" for t in triples]
    _emit(args, {"triples": rows}, lines)


def _analysis_payload(analysis: handlebody.FormAnalysis) -> tuple[dict, list[str]]:
    payload = {
        "chi": analysis.chi, "b2": analysis.b2, "det": analysis.det,
        "signature": analysis.signature,
    }
    lines = [
        f"chi={analysis.chi}", f"b2={analysis.b2}", f"det={analysis.det}",
        f"signature={analysis.signature}",
    ]
    if analysis.c1_squared is not None:
        payload["c1_squared"] = analysis.c1_squared
        lines.append(f"c1_squared={_scalar(analysis.c1_squared)}")
    if analysis.theta_boundary is not None:
        payload["theta_boundary"] = analysis.theta_boundary
        lines.append(f"theta_boundary={analysis.theta_boundary}")
    return payload, lines


def _cmd_handlebody_analyze(args) -> None:
    data = handlebody.parse_kirby(_read(args.file))
    payload, lines = _analysis_payload(handlebody.analyze(data))
    _emit(args, payload, lines)


def _cmd_nucleus(args) -> None:
    data = handlebody.nucleus(args.p, args.q, args.n)
    analysis_payload, analysis_lines = _analysis_payload(
        handlebody.analyze(data.kirby)
    )
    payload = {
        "l": data.l,
        "fiber_genus": data.fiber_genus,
        "singular_fibers": data.singular_fibers,
        "c1_pd": list(data.c1_pd),
        "c1_squared": data.c1_squared,
        "boundary": str(data.boundary),
        "handles": [
            {"tb": h.tb, "r": h.r, "framing": h.framing}
            for h in data.kirby.two_handles
        ],
        "linking": [list(row) for row in data.kirby.linking],
        "analysis": analysis_payload,
    }
    lines = [
        f"l={data.l}",
        f"fiber_genus={data.fiber_genus}",
        f"singular_fibers={data.singular_fibers}",
        f"c1_pd=({data.c1_pd[0]}, {data.c1_pd[1]})",
        f"c1_squared={data.c1_squared}",
        f"boundary={data.boundary}",
    ]
    lines.extend(
        f"handle tb={h.tb} r={h.r} framing={h.framing}"
        for h in data.kirby.two_handles
    )
    lines.extend(analysis_lines)
    _emit(args, payload, lines)


def _cmd_check_hirz(args) -> None:
    verdict = criteria.hirz_check(
        criteria.HirzQuery(
            inv0=fronts.LegendrianInvariants(tb=args.tb, r=args.r),
            n=args.n, m=args.m,
        )
    )
    payload: dict = {"embeddable": verdict.embeddable}
    lines = [f"embeddable={str(verdict.embeddable).lower()}"]
    if verdict.schedule is not None:
        payload["schedule"] = {"up": verdict.schedule.up, "down": verdict.schedule.down}
        lines.append(f"schedule=({verdict.schedule.up}, {verdict.schedule.down})")
    _emit(args, payload, lines)


def _cmd_check_embed(args) -> None:
    plan = criteria.brieskorn_embed_plan(args.p, args.q, args.eps)
    payload = {
        "source": {"tb": plan.source.tb, "r": plan.source.r},
        "target": {"tb": plan.target.tb, "r": plan.target.r},
        "framing": plan.framing,
        "schedule": {"up": plan.schedule.up, "down": plan.schedule.down},
        "boundary": str(plan.boundary),
        "split_forms": list(plan.split_forms),
    }
    lines = [
        f"source=(tb={plan.source.tb}, r={plan.source.r})",
        f"schedule=({plan.schedule.up}, {plan.schedule.down})",
        f"target=(tb={plan.target.tb}, r={plan.target.r})",
        f"framing={plan.framing}",
        f"boundary={plan.boundary}",
        f"split_forms={plan.split_forms[0]} {plan.split_forms[1]}",
    ]
    _emit(args, payload, lines)


def _cmd_check_prop_theta(args) -> None:
    report = criteria.prop_theta_check(args.p, args.q, args.eps)
    payload = {
        "theta_embed": report.theta_embed,
        "theta_milnor": report.theta_milnor,
        "homotopic": report.homotopic,
        "b2_mod3": report.b2_mod3,
    }
    lines = [
        f"theta_embed={report.theta_embed}",
        f"theta_milnor={report.theta_milnor}",
        f"homotopic={str(report.homotopic).lower()}",
        f"b2_mod3={report.b2_mod3}",
    ]
    _emit(args, payload, lines)


def _cmd_check_cave(args) -> None:
    verdict = criteria.cave_check(
        fronts.LegendrianInvariants(tb=args.tb, r=args.r), args.k
    )
    payload: dict = {"feasible": verdict.feasible}
    lines = [f"feasible={str(verdict.feasible).lower()}"]
    if verdict.target is not None:
        payload["target"] = {"tb": verdict.target.tb, "r": verdict.target.r}
        lines.append(f"target=(tb={verdict.target.tb}, r={verdict.target.r})")
    _emit(args, payload, lines)


def _cmd_check_flip(args) -> None:
    verdict = criteria.flip_reach(args.r0, args.up, args.down, args.target)
    payload: dict = {"feasible": verdict.feasible}
    lines = [f"feasible={str(verdict.feasible).lower()}"]
    if verdict.flips is not None:
        payload["flips"] = verdict.flips
        lines.append(f"flips={verdict.flips}")
    _emit(args, payload, lines)


def _cmd_check_slice(args) -> None:
    ok = criteria.slice_genus_check(
        fronts.LegendrianInvariants(tb=args.tb, r=args.r), args.g
    )
    _emit(args, {"satisfied": ok}, [f"satisfied={str(ok).lower()}"])


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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="steinkit",
        description="Exact invariants of Legendrian fronts, Brieskorn spheres "
        "and Stein handlebodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    front = sub.add_parser("front", help="front diagram operations")
    front_sub = front.add_subparsers(dest="subcommand", required=True)
    p = front_sub.add_parser("stats", parents=[shared])
    p.add_argument("file")
    p.set_defaults(func=_cmd_front_stats)
    p = front_sub.add_parser("stabilize", parents=[shared])
    p.add_argument("file")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--dir", choices=[fronts.UP, fronts.DOWN], required=True)
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(func=_cmd_front_stabilize)

    p = sub.add_parser("torus-knot", parents=[shared])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--stabilize", type=_parse_schedule, metavar="a,b")
    p.set_defaults(func=_cmd_torus_knot)

    bries = sub.add_parser("brieskorn", help="Brieskorn sphere operations")
    bries_sub = bries.add_subparsers(dest="subcommand", required=True)
    p = bries_sub.add_parser("invariants", parents=[shared])
    for name in ("p1", "p2", "p3"):
        p.add_argument(name, type=int)
    p.set_defaults(func=_cmd_brieskorn_invariants)
    p = bries_sub.add_parser("seifert", parents=[shared])
    for name in ("p1", "p2", "p3"):
        p.add_argument(name, type=int)
    p.set_defaults(func=_cmd_brieskorn_seifert)
    p = bries_sub.add_parser("surgery", parents=[shared])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("sign")
    p.set_defaults(func=_cmd_brieskorn_surgery)
    p = bries_sub.add_parser("sigma-sweep", parents=[shared])
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_sigma_sweep)
    p = bries_sub.add_parser("casson-harer", parents=[shared])
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_casson_harer)

    hb = sub.add_parser("handlebody", help="Kirby data operations")
    hb_sub = hb.add_subparsers(dest="subcommand", required=True)
    p = hb_sub.add_parser("analyze", parents=[shared])
    p.add_argument("file")
    p.set_defaults(func=_cmd_handlebody_analyze)

    p = sub.add_parser("nucleus", parents=[shared])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_nucleus)

    check = sub.add_parser("check", help="embedding and filling criteria")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    p = check_sub.add_parser("hirz", parents=[shared])
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_check_hirz)
    p = check_sub.add_parser("embed", parents=[shared])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("eps", type=int)
    p.set_defaults(func=_cmd_check_embed)
    p = check_sub.add_parser("prop-theta", parents=[shared])
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("eps", type=int)
    p.set_defaults(func=_cmd_check_prop_theta)
    p = check_sub.add_parser("cave", parents=[shared])
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_check_cave)
    p = check_sub.add_parser("flip", parents=[shared])
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--up", type=int, required=True)
    p.add_argument("--down", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=_cmd_check_flip)
    p = check_sub.add_parser("slice", parents=[shared])
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=_cmd_check_slice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except UsageExit as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"InvariantViolation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
