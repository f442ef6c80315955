"""Helpers shared by the test modules."""

import numpy as np
import pytest

from trigzeros.models import PolySample


def unit_sample(sample):
    """The sample times 2^-e (e from PolySample.normalized), so that its
    largest coefficient lies in [1/2, 1): its normalized coefficients are
    the sample's c to the bit, at exponent 0, as the zero counter's
    coefficient records take them."""
    e = sample.normalized[1]
    return PolySample(sample.model, sample.n, sample.seed,
                      np.ldexp(sample.a, -e), np.ldexp(sample.b, -e))


@pytest.fixture
def tangent_draw():
    """A stand-in for sample_coefficients: T = 1 + cos x at degree n, whatever
    the model and seed.  Its double zero at pi is never certified."""

    def draw(model, n, seed):
        a = np.zeros(n + 1)
        a[:2] = 1.0
        return PolySample(model=model, n=n, seed=seed, a=a, b=np.zeros(n + 1))

    return draw
