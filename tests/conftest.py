"""Prints the acceptance-criteria table after the run, and shared fixtures."""

from collections import OrderedDict

import acceptance_log
import pytest

from concordia import ideals


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty Groebner basis cache, so the test builds every basis it reads."""
    cache = OrderedDict()
    monkeypatch.setattr(ideals, "_GB_CACHE", cache)
    return cache


def pytest_terminal_summary(terminalreporter):
    if not acceptance_log.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_log.RESULTS:
        terminalreporter.write_line(line)
