"""Shared fixtures."""

import numpy as np
import pytest

from qcohere import linalg


@pytest.fixture
def solves(monkeypatch):
    """Shapes of every matrix handed to the Jacobi eigensolver during the test."""
    shapes = []
    original = linalg.hermitian_eigen

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigen", counting)
    return shapes
