"""Shared fixtures: the machines/ corpus, runtime budgets and acceptance reporting.

Tests marked ``@pytest.mark.criterion(n, "...")`` get one PASS/FAIL line
each in a terminal summary section, so the acceptance status is readable
at a glance after a full run.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from tfsm import MachineDocument, parse_document

MACHINES = Path(__file__).resolve().parent.parent / "machines"

_RECORDS = []


def load_document(name: str) -> MachineDocument:
    return parse_document((MACHINES / name).read_text())


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, text): acceptance criterion checked by this test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        _RECORDS.append((marker.args[0], marker.args[1], report.outcome == "passed"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for num, text, passed in sorted(_RECORDS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {num:2d}. {text}")


@pytest.fixture(scope="session")
def guarded_pair():
    return load_document("guarded_pair.tfsm").body


@pytest.fixture(scope="session")
def guarded_pair_abstract():
    return load_document("guarded_pair_abstract.fsm").body


@pytest.fixture(scope="session")
def guarded_pair_rebuilt():
    return load_document("guarded_pair_rebuilt.tfsm").body


@pytest.fixture(scope="session")
def handover():
    return load_document("handover.tfsm").body


@pytest.fixture(scope="session")
def blinker():
    return load_document("blinker.tfsm").body


@pytest.fixture(scope="session")
def handover_blinker_product():
    return load_document("handover_blinker_product.fsm").body


@pytest.fixture(scope="session")
def handover_blinker_meet():
    return load_document("handover_blinker_meet.tfsm").body
