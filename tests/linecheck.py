"""Pytest plugin: every executable line of src/isci runs in some test.

    python -m pytest -p tests.linecheck

traces the suite with sys.settrace and fails the run if a line that compiles
to bytecode never ran, unless tests/unreached.json lists it, or if a listed
line did run.  An entry names the module, the line's stripped source text and
why no traced test can reach it.  Run it on the whole suite: a subset leaves
lines unreached.
"""

import json
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isci"
ALLOWED = Path(__file__).with_name("unreached.json")
_PREFIX = str(SRC)
_ran = set()
_problems = []


def _lines(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _lines(const)
    return lines


def _local(frame, event, arg):
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


sys.settrace(_global)  # before conftest imports isci, so import-time lines count


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    sys.settrace(_global)  # a RecursionError inside the tracer drops it
    yield


def pytest_sessionfinish(session):
    sys.settrace(None)
    unreached = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        unreached |= {(path.name, text[n - 1].strip())
                      for n in _lines(compile(source, str(path), "exec"))
                      if (str(path), n) not in _ran}
    allowed = {(entry["module"], entry["line"]) for entry in json.loads(ALLOWED.read_text())}
    _problems[:] = ([f"never ran: {module}: {line}" for module, line in sorted(unreached - allowed)]
                    + [f"listed in {ALLOWED.name} but ran: {module}: {line}"
                       for module, line in sorted(allowed - unreached)])
    if _problems:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for problem in _problems:
        terminalreporter.write_line(problem)
