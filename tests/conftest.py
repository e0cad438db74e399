import numpy as np
import pytest


def rand_spd(rng, d, lo=0.5, hi=4.0):
    """Random symmetric positive definite matrix with spectrum in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, size=d)
    return q @ np.diag(eigs) @ q.T


@pytest.fixture
def rng():
    return np.random.default_rng(20240111)
