"""Shared fixtures and hooks of the test suite.

The acceptance gate's ``report`` fixture prints one ``criterion N:
PASS``/``FAIL`` line per criterion. It learns whether the test body failed
from ``pytest_runtest_makereport``, which pytest only registers from a
``conftest.py`` or a plugin, so both live here.
"""

import pytest

pytest_plugins = ["pytester"]


@pytest.fixture
def report(request, capsys):
    """Print one pass/fail line per criterion, after the test body runs."""
    number = int(request.node.name.rsplit("_", 1)[-1])
    yield
    failed = getattr(request.node, "_report_failed", False)
    with capsys.disabled():
        print(f"criterion {number}: {'FAIL' if failed else 'PASS'}")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed:
        item._report_failed = True
