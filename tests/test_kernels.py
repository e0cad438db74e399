"""The in-place BLAS update kernels against the oracle's textbook forms.

Every kernel is checked with ``out=None`` (fresh result, input untouched)
and with ``out`` aliasing its input (updated in place), across dimensions
from the scalar case to one where BLAS blocking applies. The oracle's
formulas are full-matrix numpy expressions that share no code with the
kernels.
"""

import numpy as np
import pytest

from iqnlab import matkernel as mk
from iqnlab.errors import DegenerateDirection, SingularUpdate
from iqnlab.oracle import _bfgs_explicit, _broyden_explicit, _classic_explicit, _dfp_explicit
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
    """Run ``kernel(*args)`` on ``m``; in place or fresh, checking the
    contract of each mode."""
    if in_place:
        out = kernel(*args, out=m)
        assert out is m
        return out
    before = m.copy()
    out = kernel(*args)
    assert out is not m
    np.testing.assert_array_equal(m, before)
    return out


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
        b, k = sym_spd(rng, d), sym_spd(rng, d)
        u = rng.standard_normal(d)
        expected = _bfgs_explicit(b, k, u)
        got = apply(mk.bfgs_update, (b, k @ u, float(u @ k @ u), u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)

    def test_dfp_matches_oracle(self, rng, d, in_place):
        b, k = sym_spd(rng, d), sym_spd(rng, d)
        u = rng.standard_normal(d)
        expected = _dfp_explicit(b, k, u)
        got = apply(mk.dfp_update, (b, k @ u, float(u @ k @ u), u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_broyden_matches_oracle(self, rng, d, in_place, tau):
        b, k = sym_spd(rng, d), sym_spd(rng, d)
        u = rng.standard_normal(d)
        expected = _broyden_explicit(tau, b, k, u)
        got = apply(mk.broyden_update, (tau, b, k @ u, float(u @ k @ u), u), b, in_place)
        assert rel_err(got, expected) < 1e-12
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("d", DIMS)
def test_fresh_and_in_place_agree_bitwise_on_symmetric_input(rng, d):
    b, k = sym_spd(rng, d), sym_spd(rng, d)
    u = rng.standard_normal(d)
    args = (0.5, b, k @ u, float(u @ k @ u), u)
    fresh = mk.broyden_update(*args)
    np.testing.assert_array_equal(mk.broyden_update(*args, out=b), fresh)

    h = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
    fresh = mk.sm_inverse_update(h, u, 0.5 * u)
    np.testing.assert_array_equal(mk.sm_inverse_update(h, u, 0.5 * u, out=h), fresh)


@pytest.mark.parametrize("d", DIMS)
class TestPrivateBodies:
    """The unchecked in-place bodies the solvers call give the public
    kernels' bits, and raise the same typed error before any write."""

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_broyden_body_is_bit_equal_to_kernel(self, rng, d, tau):
        b, k = sym_spd(rng, d), sym_spd(rng, d)
        u = rng.standard_normal(d)
        ku, uku = k @ u, float(u @ k @ u)
        expected = mk.broyden_update(tau, b, ku, uku, u)
        got = b.copy()
        assert mk._broyden_inplace(tau, got, ku, uku, u, mk._broyden_label(tau)) is got
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("collinear", [False, True], ids=["general", "collinear"])
    def test_sm_body_is_bit_equal_to_kernel(self, rng, d, collinear):
        h = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
        u = rng.standard_normal(d)
        if collinear:
            v = -0.2 * u
        else:
            # At d = 1 every nonzero pair is collinear; v = 0 is not.
            v = 0.3 * rng.standard_normal(d) if d > 1 else np.zeros(1)
        assert (mk._collinear_ratio(u, v) is not None) == collinear
        expected = mk.sm_inverse_update(h, u, v, out=h.copy())
        got = h.copy()
        assert mk._sm_inplace(got, u, v) is got
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_broyden_body_raises_like_kernel(self, d, tau):
        u = np.eye(d)[0]
        b = np.eye(d)
        with pytest.raises(DegenerateDirection) as public:
            mk.broyden_update(tau, b, np.zeros(d), 0.0, u, out=b)
        with pytest.raises(DegenerateDirection) as private:
            mk._broyden_inplace(tau, b, np.zeros(d), 0.0, u, mk._broyden_label(tau))
        assert str(private.value) == str(public.value)
        np.testing.assert_array_equal(b, np.eye(d))


# At d = 1 a singular update is always collinear.
@pytest.mark.parametrize("d, collinear", [
    pytest.param(d, collinear, id=f"{d}-{'collinear' if collinear else 'general'}")
    for d in DIMS for collinear in (False, True) if collinear or d > 1])
def test_sm_body_raises_like_kernel(d, collinear):
    # <v, H u> = -1 with H = I: A + u v^T is singular either way.
    u = np.eye(d)[0] if collinear else np.eye(d)[0] + np.eye(d)[1]
    v = -np.eye(d)[0]
    h = np.eye(d)
    with pytest.raises(SingularUpdate) as public:
        mk.sm_inverse_update(h, u, v, out=h)
    with pytest.raises(SingularUpdate) as private:
        mk._sm_inplace(h, u, v)
    assert str(private.value) == str(public.value)
    np.testing.assert_array_equal(h, np.eye(d))


@pytest.mark.parametrize("d", (1, 2, 10, 32, 33, 60, 130))
def test_in_place_symmetrize_is_bit_equal_to_fresh(rng, d):
    # The in-place sweep takes strips of 32 rows; 33, 60 and 130 end in a
    # partial one.
    m = rng.standard_normal((d, d))
    expected = mk.symmetrize(m)
    assert mk.symmetrize(m, out=m) is m
    np.testing.assert_array_equal(m, expected)
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("d", (2, 10, 60))
def test_symmetric_chain_stays_bit_symmetric(rng, d):
    h = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
    b = sym_spd(rng, d)
    for _ in range(50):
        u = rng.standard_normal(d)
        mk.sm_inverse_update(h, u, 0.01 * u, out=h)
        mk.bfgs_update(b, b @ u + 0.1 * u, float(u @ b @ u + 0.1 * u @ u), u, out=b)
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
    expected = np.linalg.inv(_classic_explicit(tau, b, y, sy, s))
    h = mk.symmetrize(np.linalg.inv(b))
    for u, v in _broyden_terms(tau, y, sy, bu, float(s @ bu), k_first=True):
        mk.sm_inverse_update(h, u, v, out=h)
    assert rel_err(h, expected) < 1e-10


def test_guards_leave_out_untouched():
    h = np.eye(2)
    with pytest.raises(SingularUpdate):
        mk.sm_inverse_update(h, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), out=h)
    np.testing.assert_array_equal(h, np.eye(2))
    b = np.eye(2)
    with pytest.raises(DegenerateDirection):
        mk.bfgs_update(b, np.zeros(2), 0.0, np.array([1.0, 0.0]), out=b)
    np.testing.assert_array_equal(b, np.eye(2))


def test_out_must_be_c_ordered_float64():
    b = np.eye(3)
    u = np.array([1.0, 0.0, 0.0])
    for bad in (np.eye(3, order="F"), np.eye(3, dtype=np.float32), np.eye(2)):
        with pytest.raises(ValueError, match="out must be"):
            mk.bfgs_update(b, u, 1.0, u, out=bad)
