"""The ``front`` and ``torus-knot`` commands, which trace and build front
diagrams; ``cli.main`` imports this module only to run one of them."""

from . import fronts
from .cli import _read


def _events(diagram) -> list[list]:
    return [[ev.kind, ev.position] for ev in diagram.events]


def _front_payload(diagram) -> dict:
    comps = fronts.components(diagram)
    k = len(comps)
    per_comp = [
        {"index": c.index, **fronts.invariants(diagram, c.index)._asdict()} for c in comps
    ]
    table = fronts.linking_matrix(diagram)
    linking = [
        {"i": i, "j": j, "lk": table[i][j]} for i in range(k) for j in range(i + 1, k)
    ]
    return {"components": per_comp, "linking": linking}


def front_stats(args):
    payload = _front_payload(fronts.parse_front(_read(args.file)))
    return payload, [
        f"components={len(payload['components'])}",
        *(f"component {c['index']}: tb={c['tb']} r={c['r']}" for c in payload["components"]),
        *(f"lk {e['i']} {e['j']} = {e['lk']}" for e in payload["linking"]),
    ]


def front_stabilize(args):
    diagram = fronts.parse_front(_read(args.file))
    out = fronts.stabilize_diagram(diagram, args.component, args.dir, args.at)
    payload = {
        "events": _events(out),
        "flips": sorted(out.orientation_flips),
        **_front_payload(out),
    }
    # table mode prints the front file format so the output round-trips
    return payload, fronts.serialize_front(out).splitlines()


def torus_knot(args):
    params = fronts.TorusKnotParams(args.p, args.q)
    schedule = None if args.stabilize is None else fronts.StabilizationSchedule(*args.stabilize)
    diagram = fronts.torus_knot_front(params, schedule)
    inv = fronts.invariants(diagram, 0)
    payload = {"events": _events(diagram), "tb": inv.tb, "r": inv.r}
    word = "; ".join(f"{kind} {position}" for kind, position in payload["events"])
    return payload, [word, f"tb={inv.tb} r={inv.r}"]
