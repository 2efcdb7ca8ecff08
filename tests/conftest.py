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
    """Shapes of the matrices handed to the Jacobi eigensolver during the test.

    A stack of N matrices adds N entries, so the length counts matrices
    solved, not solver calls.
    """
    shapes = []
    original = linalg.hermitian_eigen

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        shapes.extend([shape[-2:]] * (shape[0] if len(shape) == 3 else 1))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigen", counting)
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

    for name in ("hermitian_eigen", "pivoted_cholesky", "induced_one_norm"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    return inputs


_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # stderr as it is while no test captures it: a test's captured output is
    # lost with the process that the deadline ends
    config.stash[_TERMINAL_STDERR] = os.dup(2)


@pytest.fixture
def deadline(request):
    """End the run, with every thread's traceback, if the test is still running after 60 s.

    For tests that wait on forked workers, where a fault would hang, not fail.
    The alarm starts no watchdog thread, so the test still forks from one.
    """
    if sys.platform == "linux":
        assert len(os.listdir("/proc/self/task")) == 1, "the test would fork a threaded process"
    stderr = request.config.stash[_TERMINAL_STDERR]
    faulthandler.register(signal.SIGALRM, file=stderr, all_threads=True, chain=True)
    signal.alarm(60)
    yield
    signal.alarm(0)
    faulthandler.unregister(signal.SIGALRM)
