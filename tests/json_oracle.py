"""The JSON that ``cli.emit_json`` wrote through ``json`` before it wrote
JSON itself, kept as its oracle: ``dumps(payload)`` is
``json.dumps(canonical(payload), sort_keys=True, default=str)``, where
``canonical`` reads a record as the dict of its fields that are not None
and an exact rational as ``{"num": ..., "den": ...}``."""

import json

from steinkit.cli import _is_fraction, _items


def canonical(value):
    if _is_fraction(value):
        return {"num": value.numerator, "den": value.denominator}
    items = _items(value)
    if items is not None:
        return {k: canonical(v) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def dumps(payload) -> str:
    return json.dumps(canonical(payload), sort_keys=True, default=str)
