"""Shared fixtures."""

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
