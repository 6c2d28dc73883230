"""The ``handlebody`` and ``nucleus`` commands, on Stein Kirby data;
``cli.main`` imports this module only to run one of them."""

from . import handlebody
from .cli import _read, _row, _table


def handlebody_analyze(args):
    return handlebody.analyze(handlebody.parse_kirby(_read(args.file)))


def nucleus(args):
    data = handlebody.nucleus(args.p, args.q, args.n)
    # ``l`` and ``fiber_genus`` are one number; the payload keeps both keys
    head = {"l": data.fiber_genus, **data._asdict()}
    kirby, analysis = head.pop("kirby"), head.pop("analysis")
    handles = kirby.two_handles
    payload = {**head, "handles": handles, "linking": kirby.linking, "analysis": analysis}
    return payload, [*_table(head), *(f"handle {_row(h)}" for h in handles), *_table(analysis)]
