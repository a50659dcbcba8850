"""Shared pytest wiring: one BLAS thread, a visible pass/fail line for every
acceptance criterion, and a guard that fails any test leaving a child process
running."""

import glob
import os
import signal

import pytest

# The suite's matrices are small (GP covariances up to 500 x 500, 256-wide
# dense layers), where OpenBLAS's thread pool gains nothing and degrades badly
# once another process competes for the cores: on a 2-core machine a 500 x 500
# Cholesky factorization takes 4 ms on one thread and 250 ms on two.  One BLAS
# thread keeps the suite's run time and its numerics independent of the core
# count and the machine's load.  It takes effect only if set before numpy is
# first imported; pytest loads this file before any test module.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _running_children() -> set[int]:
    """Pids of this process's children that have not exited."""
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:  # the thread ended meanwhile
            continue
    running = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):  # reaped meanwhile
            continue
        if state != "Z":
            running.add(pid)
    return running


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    before = _running_children()
    yield
    left = sorted(_running_children() - before)
    if left:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        pytest.fail(f"child processes left running after the test: {left}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid or "::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if outcome in ("failed", "error"):
                rows[name] = "FAIL"
            elif getattr(report, "when", "call") == "call":
                rows.setdefault(name, "PASS")
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name in sorted(rows):
            terminalreporter.write_line(f"  {name}: {rows[name]}")
