"""Shared test plumbing: the acceptance-criterion result registry, and a
fixture that makes densifying sparse input fail.

test_acceptance.py records one entry per criterion; the terminal summary
prints a single PASS/FAIL line for each so the gate is readable at a
glance even inside a long pytest run.
"""

import sys

import pytest


@pytest.fixture()
def refuse_to_dense(monkeypatch):
    """Make to_dense raise on sparse input in every loaded marginsparse
    module that binds it, so a test shows that a sparse route densifies
    nothing.  Dense input passes through."""
    from marginsparse import linalg

    to_dense = linalg.to_dense

    def refuse(M):
        if linalg.is_sparse(M):
            raise AssertionError("to_dense called on sparse input")
        return to_dense(M)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "marginsparse"
                and getattr(module, "to_dense", None) is to_dense):
            monkeypatch.setattr(module, "to_dense", refuse)

ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        tr.write_line(f"[criterion {number:02d}] {verdict} — {detail}")
