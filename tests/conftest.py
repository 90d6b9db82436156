"""Shared fixtures and the acceptance-criteria summary hook."""
from __future__ import annotations

from contextlib import contextmanager

import pytest

CRITERIA_KEY = pytest.StashKey[dict]()


def pytest_configure(config):
    config.stash[CRITERIA_KEY] = {}


@pytest.fixture
def criterion(request):
    """Record one acceptance criterion as PASS/FAIL for the terminal summary.

    Registers FAIL up front; flips to PASS only when the guarded block
    completes, so any assertion error inside leaves an honest FAIL line.
    """
    results = request.config.stash[CRITERIA_KEY]

    @contextmanager
    def _criterion(number: int, description: str):
        results[number] = (description, "FAIL")
        yield
        results[number] = (description, "PASS")

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = config.stash.get(CRITERIA_KEY, {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        description, status = results[number]
        terminalreporter.write_line(f"[criterion {number:2d}] {status}  {description}")
