"""Shared fixtures."""

import faulthandler
import os
import signal
import sys

# numpy loads with one BLAS thread, as under the CLI, so that the tests which
# fork (the engine, QCOHERE_WORKERS, criterion 9) fork a one-thread process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from qcohere import linalg  # noqa: E402


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the matrices handed to the singular-value solver during the test.

    A stack of N matrices adds N entries, so the length counts matrices
    solved, not solver calls.
    """
    shapes = []
    original = linalg.singular_values

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        shapes.extend([shape[-2:]] * (shape[0] if len(shape) == 3 else 1))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "singular_values", counting)
    return shapes


@pytest.fixture
def kernel_inputs(monkeypatch):
    """(kernel name, matrix argument) of every call of the linalg kernels during the test.

    The kernels check nothing; this records what their callers hand them.
    """
    inputs = []

    def recording(name, original):
        def kernel(a, *args, **kwargs):
            inputs.append((name, a))
            return original(a, *args, **kwargs)

        return kernel

    for name in ("singular_values", "pivoted_cholesky", "induced_one_norm"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    return inputs


_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # stderr as it is while no test captures it: the deadline's tracebacks
    # reach the terminal even if the test's captured output is cut short
    config.stash[_TERMINAL_STDERR] = os.dup(2)


def pytest_collection_modifyitems(items):
    # criterion 9 forks four workers; the acceptance suite stays as its
    # criteria were stated, so its deadline is added here
    for item in items:
        if item.nodeid.endswith("test_acceptance.py::test_criterion_9_determinism"):
            item.fixturenames.append("deadline")


@pytest.fixture
def deadline(request):
    """Fail the test, with every thread's traceback, if it is still running after 60 s.

    For tests that wait on forked workers, where a fault would hang, not
    fail.  The failure is raised in the test's main thread, so the engine's
    ``finally`` still kills and reaps the workers it forked; ending the
    process instead would leave them running.  An indirect parameter sets
    another number of seconds.  The alarm starts no watchdog thread, so the
    test still forks from one.
    """
    if sys.platform == "linux":
        assert len(os.listdir("/proc/self/task")) == 1, "the test would fork a threaded process"
    seconds = getattr(request, "param", 60)

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    # the tracebacks come first, then the handler above
    stderr = request.config.stash[_TERMINAL_STDERR]
    faulthandler.register(signal.SIGALRM, file=stderr, all_threads=True, chain=True)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        faulthandler.unregister(signal.SIGALRM)
        signal.signal(signal.SIGALRM, previous)
