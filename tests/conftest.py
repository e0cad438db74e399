import numpy as np
import pytest

from iqnlab.oracle import direct_sums


def rand_spd(rng, d, lo=0.5, hi=4.0):
    """Random symmetric positive definite matrix with spectrum in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, size=d)
    return q @ np.diag(eigs) @ q.T


def psd_dominates(g, a, tol):
    """True iff the smallest eigenvalue of ``G - A`` is >= -tol; ``eigvalsh``
    reads the lower triangles of G and A only."""
    return bool(np.linalg.eigvalsh(np.subtract(g, a, dtype=np.float64))[0] >= -tol)


def recompute_aggregates(solver):
    """(H, phi, g) rebuilt from the solver's tuples by direct evaluation:
    the inverse of ``direct_sums``' curvature sum, returned in full."""
    dbar, phi, g = direct_sums(solver)
    h = np.linalg.inv(dbar)
    return 0.5 * (h + h.T), phi, g


@pytest.fixture
def rng():
    return np.random.default_rng(20240111)
