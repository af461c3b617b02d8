"""Shared pytest hooks and the property-test settings.

Every ``hypothesis`` test runs under one profile: examples are derived from
the test itself (``derandomize``), no example database is read or written,
and there is no per-example deadline, so Tier-1 and CI draw the same cases
on every run and machine.

The acceptance tests collect one PASS/FAIL line per criterion; echo them in
the terminal summary so they survive output capture.
"""

import sys

from hypothesis import settings

settings.register_profile("wchip", derandomize=True, database=None, deadline=None)
settings.load_profile("wchip")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
