"""Shared fixtures."""

import faulthandler

import numpy as np
import pytest

from qcohere import linalg


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
def deadline():
    """End the run, with every thread's traceback, if the test is still running after 60 s.

    For tests that wait on forked workers, where a fault would hang, not fail.
    """
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
