"""Exact-arithmetic invariants of Legendrian fronts, Brieskorn spheres and
Stein handlebodies.

The layer modules are imported on first use: ``import steinkit`` loads none
of them, and ``steinkit.fronts`` (or any other layer) imports the module the
first time it is read, so a CLI process loads only what its command calls.
"""

__version__ = "0.1.0"

_MODULES = frozenset("brieskorn criteria errors fronts handlebody legendrian linalg".split())


def __getattr__(name):
    if name in _MODULES:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
