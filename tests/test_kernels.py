"""The in-place BLAS update kernels against the oracle's textbook forms.

Every kernel overwrites its matrix argument and returns it; each is checked
across dimensions from the scalar case to one where BLAS blocking applies.
The oracle's formulas are full-matrix numpy expressions that share no code
with the kernels.
"""

import itertools

import numpy as np
import pytest

from iqnlab import matkernel as mk
from iqnlab.errors import DegenerateDirection, SingularUpdate
from iqnlab.oracle import _broyden_explicit
from iqnlab.solvers import _broyden_terms

from conftest import rand_spd

DIMS = (1, 2, 10, 60)


def sym_spd(rng, d):
    """SPD test matrix that is bit-symmetric, as the solvers keep theirs."""
    m = rand_spd(rng, d, lo=1.0, hi=4.0)
    return 0.5 * (m + m.T)


def rel_err(got, expected):
    return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))


def apply(kernel, args, m, in_place):
    """Run ``kernel(*args)`` on ``m`` itself or, as a caller that keeps its
    input does, on a fresh copy of it. Either way the kernel must return the
    matrix it was given and leave every other argument, and in the fresh
    mode ``m``, unchanged."""
    target = m if in_place else m.copy()
    args = [target if a is m else a for a in args]
    kept = [(a, a.copy()) for a in [*args, m] if isinstance(a, np.ndarray) and a is not target]
    assert kernel(*args) is target
    for a, before in kept:
        np.testing.assert_array_equal(a, before)
    return target


@pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in_place"])
@pytest.mark.parametrize("d", DIMS)
class TestAgainstTextbook:
    def test_sm_general_matches_explicit_inverse(self, rng, d, in_place):
        a = sym_spd(rng, d)
        u = rng.standard_normal(d)
        v = 0.3 * rng.standard_normal(d)
        expected = np.linalg.inv(a + np.outer(u, v))
        h = np.linalg.inv(a)
        got = apply(mk.sm_inverse_update, (h, u, v), h, in_place)
        assert rel_err(got, expected) < 1e-10

    def test_sm_symmetric_matches_explicit_inverse(self, rng, d, in_place):
        a = sym_spd(rng, d)
        u = rng.standard_normal(d)
        for v in (0.4 * u, -0.2 * u):
            expected = np.linalg.inv(a + np.outer(u, v))
            h = mk.symmetrize(np.linalg.inv(a))
            got = apply(mk.sm_inverse_update, (h, u, v), h, in_place)
            assert rel_err(got, expected) < 1e-10
            assert np.array_equal(got, got.T)

    def test_bfgs_matches_oracle(self, rng, d, in_place):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(0.0, b, ku, uku, u)
        got = apply(mk.bfgs_update, (b, ku, uku, u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)

    def test_dfp_matches_oracle(self, rng, d, in_place):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(1.0, b, ku, uku, u)
        got = apply(mk.dfp_update, (b, ku, uku, u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_broyden_matches_oracle(self, rng, d, in_place, tau):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(tau, b, ku, uku, u)
        got = apply(mk.broyden_update, (tau, b, ku, uku, u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)

    @staticmethod
    def update_args(rng, d):
        """(b, K u, <u, K u>, u) for SPD b and K."""
        b, k = sym_spd(rng, d), sym_spd(rng, d)
        u = rng.standard_normal(d)
        ku = k @ u
        return b, ku, float(u @ ku), u


@pytest.mark.parametrize("d", DIMS)
def test_fresh_and_in_place_agree_bitwise_on_symmetric_input(rng, d):
    # Byte-identical traces need a kernel's bits not to depend on which
    # buffer holds the matrix.
    b, k = sym_spd(rng, d), sym_spd(rng, d)
    u = rng.standard_normal(d)
    args = (0.5, b, k @ u, float(u @ k @ u), u)
    fresh = apply(mk.broyden_update, args, b, in_place=False)
    np.testing.assert_array_equal(apply(mk.broyden_update, args, b, in_place=True), fresh)

    h = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
    args = (h, u, 0.5 * u)
    fresh = apply(mk.sm_inverse_update, args, h, in_place=False)
    np.testing.assert_array_equal(apply(mk.sm_inverse_update, args, h, in_place=True), fresh)


@pytest.mark.parametrize("d", (1, 2, 10, 32, 33, 60, 130))
def test_in_place_symmetrize_is_bit_equal_to_fresh(rng, d):
    # The in-place sweep takes strips of 32 rows; 33, 60 and 130 end in a
    # partial one.
    m = rng.standard_normal((d, d))
    expected = 0.5 * (m + m.T)
    assert mk.symmetrize(m) is m
    np.testing.assert_array_equal(m, expected)
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("d", (2, 10, 60))
def test_symmetric_chain_stays_bit_symmetric(rng, d):
    h = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
    b = sym_spd(rng, d)
    for _ in range(50):
        u = rng.standard_normal(d)
        mk.sm_inverse_update(h, u, 0.01 * u)
        mk.bfgs_update(b, b @ u + 0.1 * u, float(u @ b @ u + 0.1 * u @ u), u)
    assert np.array_equal(h, h.T)
    assert np.array_equal(b, b.T)


@pytest.mark.parametrize("d", (2, 10, 60))
def test_tau_half_asymmetric_chain_matches_explicit_inverse(rng, d):
    # The classic-stage inverse chain of GSLIQN at tau = 0.5: two symmetric
    # terms, then the two cross terms whose intermediate is asymmetric.
    tau = 0.5
    b, k = sym_spd(rng, d), sym_spd(rng, d)
    s = rng.standard_normal(d)
    y = k @ s
    sy = float(s @ y)
    bu = b @ s
    expected = np.linalg.inv(_broyden_explicit(tau, b, y, sy, s))
    h = mk.symmetrize(np.linalg.inv(b))
    for u, v in _broyden_terms(tau, y, sy, bu, float(s @ bu), k_first=True):
        mk.sm_inverse_update(h, u, v)
    assert rel_err(h, expected) < 1e-10


# At d = 1 a singular update is always collinear.
@pytest.mark.parametrize("d, collinear", [
    pytest.param(d, collinear, id=f"{d}-{'collinear' if collinear else 'general'}")
    for d in DIMS for collinear in (False, True) if collinear or d > 1])
def test_sm_body_raises_like_kernel(d, collinear):
    # <v, H u> = -1 with H = I: A + u v^T is singular either way, and the
    # typed error comes before any write.
    u = np.eye(d)[0] if collinear else np.eye(d)[0] + np.eye(d)[1]
    h = np.eye(d)
    with pytest.raises(SingularUpdate, match="rank-one update denominator"):
        mk.sm_inverse_update(h, u, -np.eye(d)[0])
    np.testing.assert_array_equal(h, np.eye(d))


def test_guards_leave_out_untouched():
    labels = ((0.0, "BFGS"), (0.5, "Broyden\\(tau=0.5\\)"), (1.0, "DFP"))
    for d, (tau, label) in itertools.product(DIMS, labels):
        b = np.eye(d)
        with pytest.raises(DegenerateDirection, match=f"^{label} denominators"):
            mk.broyden_update(tau, b, np.zeros(d), 0.0, np.eye(d)[0])
        np.testing.assert_array_equal(b, np.eye(d))


def fortran(m):
    return np.asfortranarray(m)


def float32(m):
    return m.astype(np.float32)


def read_only(m):
    m.flags.writeable = False
    return m


def test_out_must_be_c_ordered_float64(rng):
    # The matrix a kernel writes is its output. dger would update a copy of
    # a Fortran-ordered or float32 one and write through a read-only one.
    d = 10
    u, v = rng.standard_normal(d), 0.3 * rng.standard_normal(d)
    ku = sym_spd(rng, d) @ u
    updates = (lambda m: mk.sm_inverse_update(m, u, v),
               lambda m: mk.sm_inverse_update(m, u, 0.3 * u),
               lambda m: mk.broyden_update(0.0, m, ku, float(u @ ku), u),
               lambda m: mk.broyden_update(0.5, m, ku, float(u @ ku), u))
    for layout, update in itertools.product((fortran, float32, read_only), updates):
        m = layout(sym_spd(rng, d))
        before = m.copy()
        with pytest.raises(ValueError, match="writeable C-ordered float64"):
            update(m)
        np.testing.assert_array_equal(m, before)
