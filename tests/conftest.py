"""Helpers shared by the test modules."""

import numpy as np
import pytest

from trigzeros.models import PolySample


@pytest.fixture
def tangent_draw():
    """A stand-in for sample_coefficients: T = 1 + cos x at degree n, whatever
    the model and seed.  Its double zero at pi is never certified."""

    def draw(model, n, seed):
        a = np.zeros(n + 1)
        a[:2] = 1.0
        return PolySample(model=model, n=n, seed=seed, a=a, b=np.zeros(n + 1))

    return draw
