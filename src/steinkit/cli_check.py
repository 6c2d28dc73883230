"""The ``check`` commands, the embedding and filling criteria; ``cli.main``
imports this module only to run one of them."""

from . import criteria, legendrian
from .cli import _check_rows, _coprime_pairs, _items, _table
from .errors import ExcludedCase


def _schedule_table(payload):
    """The table shows a stabilization schedule as the pair (up, down)."""
    return _table({k: tuple(v) if k == "schedule" else v for k, v in _items(payload)})


def check_hirz(args):
    inv0 = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    verdict = criteria.hirz_check(inv0, args.n, args.m)
    return verdict, _schedule_table(verdict)


def check_embed(args):
    plan = criteria.brieskorn_embed_plan(args.p, args.q, args.eps)
    payload = {**plan._asdict(), "split_forms": criteria.SPLIT_FORMS}
    return payload, _schedule_table({**payload, "split_forms": " ".join(criteria.SPLIT_FORMS)})


def check_prop_theta(args):
    return criteria.prop_theta_check(args.p, args.q, args.eps)


def check_cave(args):
    inv = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    return criteria.cave_check(inv, args.k)


def check_flip(args):
    return criteria.flip_reach(args.r0, args.up, args.down, args.target)


def check_slice(args):
    inv = legendrian.LegendrianInvariants(tb=args.tb, r=args.r)
    return {"satisfied": criteria.slice_genus_check(inv, args.g)}


def check_theta_survey(args):
    """``check prop-theta`` for eps = +1 then -1 over coprime 2 <= p < q <= bound."""
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
