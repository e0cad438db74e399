"""The in-place BLAS update kernels against the oracle's textbook forms.

Every kernel overwrites its matrix argument: ``sm_inverse_update`` returns
it, the curvature kernels return the rank-one terms they added. Each is
checked across dimensions from the scalar case to one where BLAS blocking
applies. The oracle's formulas are full-matrix numpy expressions that share
no code with the kernels.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iqnlab import matkernel as mk
from iqnlab.errors import DegenerateDirection, SingularUpdate
from iqnlab.oracle import _broyden_explicit
from iqnlab.solvers import _apply_chain

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
    input does, on a fresh copy of it, and return the updated matrix. Either
    way ``sm_inverse_update`` must return the matrix it was given, a
    curvature kernel its list of terms, and each must leave every other
    argument, and in the fresh mode ``m``, unchanged."""
    target = m if in_place else m.copy()
    args = [target if a is m else a for a in args]
    kept = [(a, a.copy()) for a in [*args, m] if isinstance(a, np.ndarray) and a is not target]
    out = kernel(*args)
    if kernel is mk.sm_inverse_update:
        assert out is target
    else:
        assert isinstance(out, list)
    for a, before in kept:
        np.testing.assert_array_equal(a, before)
    return target


@pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in_place"])
@pytest.mark.parametrize("d", DIMS)
class TestAgainstTextbook:
    def test_sm_symmetric_matches_explicit_inverse(self, rng, d, in_place):
        a = sym_spd(rng, d)
        u = rng.standard_normal(d)
        for c in (0.4, -0.2):
            expected = np.linalg.inv(a + c * np.outer(u, u))
            h = mk.symmetrize(np.linalg.inv(a))
            got = apply(mk.sm_inverse_update, (h, u, c), h, in_place)
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


@pytest.mark.parametrize("tau, count", [(0.0, 2), (0.3, 4), (1.0, 3)])
@pytest.mark.parametrize("d", DIMS)
def test_broyden_returns_the_terms_it_added(rng, d, tau, count):
    # The terms are what the solvers' inverse chain applies to H, so they
    # must add up to the change the kernel made to B.
    b, ku, uku, u = TestAgainstTextbook.update_args(rng, d)
    before = b.copy()
    terms = mk.broyden_update(tau, b, ku, uku, u)
    assert len(terms) == count
    assert rel_err(before + sum(c * np.outer(x, x) for x, c in terms), b) < 1e-13


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
    args = (h, u, 0.5)
    fresh = apply(mk.sm_inverse_update, args, h, in_place=False)
    np.testing.assert_array_equal(apply(mk.sm_inverse_update, args, h, in_place=True), fresh)


@pytest.mark.parametrize("d", (1, 2, 10, 32, 33, 60, 130))
def test_in_place_symmetrize_is_bit_equal_to_fresh(rng, d):
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
        mk.sm_inverse_update(h, u, 0.01)
        mk.bfgs_update(b, b @ u + 0.1 * u, float(u @ b @ u + 0.1 * u @ u), u)
    assert np.array_equal(h, h.T)
    assert np.array_equal(b, b.T)


@pytest.mark.parametrize("d", (2, 10, 60))
def test_tau_half_asymmetric_chain_matches_explicit_inverse(rng, d):
    # The classic-stage inverse chain of GSLIQN at tau = 0.5: the B and K
    # terms, and the asymmetric DFP cross term as a pair of symmetric terms.
    tau = 0.5
    b, k = sym_spd(rng, d), sym_spd(rng, d)
    s = rng.standard_normal(d)
    y = k @ s
    sy = float(s @ y)
    expected = np.linalg.inv(_broyden_explicit(tau, b, y, sy, s))
    h = mk.symmetrize(np.linalg.inv(b))
    assert _apply_chain(h, mk.broyden_update(tau, b.copy(), y, sy, s))
    assert rel_err(h, expected) < 1e-10
    assert np.array_equal(h, h.T)


@st.composite
def broyden_stage(draw):
    """(B, K, u, tau): SPD B and K = M M^T + I with entries of M in [-1, 1],
    so both spectra lie in [1, 1 + d^2], and a u with ||u||^2 > 0.01."""
    d = draw(st.integers(1, 12))
    entries = st.floats(-1.0, 1.0)
    b_half, k_half = (draw(hnp.arrays(np.float64, (d, d), elements=entries))
                      for _ in range(2))
    u = draw(hnp.arrays(np.float64, d, elements=entries).filter(lambda x: x.dot(x) > 1e-2))
    tau = draw(st.floats(0.0, 1.0))
    spd = [mk.symmetrize(m @ m.T + np.eye(d)) for m in (b_half, k_half)]
    return spd[0], spd[1], u, tau


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(broyden_stage())
def test_broyden_terms_chain_is_symmetric_and_inverts_the_update(stage):
    # The chain of the terms any Broyden(tau) stage adds passes no singular
    # intermediate, keeps H bit-symmetric and lands on the inverse of the
    # oracle's textbook update.
    b, k, u, tau = stage
    ku = k @ u
    uku = float(u @ ku)
    h = mk.symmetrize(np.linalg.inv(b))
    assert _apply_chain(h, mk.broyden_update(tau, b.copy(), ku, uku, u))
    assert np.array_equal(h, h.T)
    assert rel_err(h, np.linalg.inv(_broyden_explicit(tau, b, ku, uku, u))) < 1e-9


@pytest.mark.parametrize("d", [pytest.param(d, id=f"{d}-collinear") for d in DIMS])
def test_sm_body_raises_like_kernel(d):
    # c <u, H u> = -1 with H = I: A - u u^T is singular, and the typed error
    # comes before any write.
    u = np.eye(d)[0]
    h = np.eye(d)
    with pytest.raises(SingularUpdate, match="rank-one update denominator"):
        mk.sm_inverse_update(h, u, -1.0)
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
    u = rng.standard_normal(d)
    ku = sym_spd(rng, d) @ u
    updates = (lambda m: mk.sm_inverse_update(m, u, 0.3),
               lambda m: mk.broyden_update(0.0, m, ku, float(u @ ku), u),
               lambda m: mk.broyden_update(0.5, m, ku, float(u @ ku), u))
    for layout, update in itertools.product((fortran, float32, read_only), updates):
        m = layout(sym_spd(rng, d))
        before = m.copy()
        with pytest.raises(ValueError, match="writeable C-ordered float64"):
            update(m)
        np.testing.assert_array_equal(m, before)
