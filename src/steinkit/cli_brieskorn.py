"""The ``brieskorn`` commands, on Brieskorn spheres and their Milnor
fibers; ``cli.main`` imports this module only to run one of them."""

from . import brieskorn
from .cli import UsageExit, _check_rows, _coprime_pairs, _table


def _triple(args):
    return brieskorn.BrieskornTriple(args.p1, args.p2, args.p3)


def brieskorn_invariants(args):
    inv = brieskorn.milnor_invariants(_triple(args))
    payload = {"b2": inv.b2, "chi": inv.chi, "sigma": inv.sigma, "theta": inv.theta_boundary}
    # c1 is in the JSON only
    return {**payload, "c1": inv.c1}, _table(payload)


def brieskorn_seifert(args):
    return brieskorn.seifert_data(_triple(args))


def brieskorn_surgery(args):
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise UsageExit(f"sign must be + or -, got {args.sign!r}")
    result = brieskorn.surgery_to_brieskorn(
        brieskorn.SurgeryDescription(p=args.p, q=args.q, n=args.n, sign=sign)
    )
    return {"sign": result.sign, **result.triple._asdict()}, [str(result)]


def brieskorn_sigma_sweep(args):
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


def brieskorn_casson_harer(args):
    pmax, nmax = max(args.pmax, 0), max(args.nmax, 0)
    # at most two triples per (p, n)
    _check_rows(2 * pmax * nmax, f"--pmax {args.pmax} --nmax {args.nmax}")
    triples = brieskorn.casson_harer_families(args.pmax, args.nmax)
    return {"triples": triples}, [f"Sigma({t.p1},{t.p2},{t.p3})" for t in triples]
