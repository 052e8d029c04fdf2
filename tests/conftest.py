"""Helpers shared by the test modules."""

import glob
import os
import signal
import subprocess
import sys

import pytest

from kaleido.algebra import primitive_element


def _power_walk(field, e, steps=None):
    """Class indices by their definition: g^k lies in class k mod e.

    Walks the first ``steps`` powers of the canonical primitive element g
    (all q - 1 of them by default). This is the reference that
    ``CyclotomicTable``, which reads classes off the power character, is
    checked against.
    """
    g = primitive_element(field)
    classes = {}
    x = field.one
    for k in range(field.order - 1 if steps is None else steps):
        classes[x] = k % e
        x = field.mul(x, g)
    return classes


@pytest.fixture
def power_walk():
    return _power_walk


# Put before a child's script: at exit the child writes the high-water mark
# of its own resident set, in KiB, as the last line of stderr. Its
# ru_maxrss would not do: at exec, Linux folds the resident size of the
# process it was spawned from into it, so under a test runner it reads the
# runner's size.
_REPORT_PEAK = """\
import atexit, sys

def _report_peak():
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    print("peak_kib", hwm.split()[1], file=sys.stderr)

atexit.register(_report_peak)
"""


def _run_with_peak(script, *args, **kwargs):
    """Run script with args in a fresh Python, text output captured.

    Returns the completed process, its stderr stripped of the peak line,
    and the child's own peak resident set in KiB (None if it wrote none).
    """
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK + script, *args],
        capture_output=True,
        text=True,
        **kwargs,
    )
    head, mark, tail = proc.stderr.rpartition("peak_kib ")
    if not mark:
        return proc, None
    proc.stderr = head
    return proc, int(tail)


@pytest.fixture
def run_with_peak():
    if not sys.platform.startswith("linux"):
        pytest.skip("reads VmHWM from /proc")
    return _run_with_peak


def _end_children():
    """End and reap this process's child processes; name the ones found.

    On Linux the children are listed in /proc/self/task/*/children, and
    each is killed and reaped. Elsewhere ``os.waitpid(-1, os.WNOHANG)``
    reaps the ones that have exited and tells whether any still run,
    though not which.
    """
    lists = glob.glob("/proc/self/task/*/children")
    if lists:
        pids = set()
        for name in lists:
            with open(name) as fh:
                pids.update(int(pid) for pid in fh.read().split())
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        return sorted(pids)
    found = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return found
        found.append(pid if pid else "running, pid unknown")
        if not pid:
            return found


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail a test that leaves a child process behind once it is done.

    The leftovers are ended first, so that the next test starts clean.
    """
    yield
    left = _end_children()
    assert not left, f"child processes left behind: {left}"


@pytest.fixture
def end_children():
    return _end_children


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        help="also run the tests marked slow, which take minutes",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes; skipped unless --run-slow is given"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; pass --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
