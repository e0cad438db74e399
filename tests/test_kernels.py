"""The in-place BLAS update kernels against the oracle's textbook forms.

Every kernel overwrites its matrix argument: ``sm_inverse_update`` returns
it, the curvature kernels return the product ``B u`` and the rank-one terms
they added. Each reads
and writes the lower triangle only, so a result is compared in full after
``full_matrix`` mirrors it. Each is checked across dimensions from the
scalar case to one where BLAS blocking applies. The oracle's formulas are
full-matrix numpy expressions that share no code with the kernels.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iqnlab import matkernel as mk
from iqnlab.errors import DegenerateDirection, SingularAggregate, SingularUpdate
from iqnlab.oracle import _broyden_explicit, full_matrix

from conftest import rand_spd

DIMS = (1, 2, 10, 60)


def sym_spd(rng, d):
    """SPD test matrix that is bit-symmetric, so that the textbook forms,
    which read all of it, and the kernels, which read its lower triangle,
    see the same matrix."""
    m = rand_spd(rng, d, lo=1.0, hi=4.0)
    return 0.5 * (m + m.T)


def rel_err(got, expected):
    return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))


def apply(kernel, args, m, in_place):
    """Run ``kernel(*args)`` on ``m`` itself or, as a caller that keeps its
    input does, on a fresh copy of it, and return the updated matrix. Either
    way ``sm_inverse_update`` must return the matrix it was given, a
    curvature kernel its ``(bu, terms)`` pair, and each must leave every other
    argument, and in the fresh mode ``m``, unchanged."""
    target = m if in_place else m.copy()
    args = [target if a is m else a for a in args]
    kept = [(a, a.copy()) for a in [*args, m] if isinstance(a, np.ndarray) and a is not target]
    out = kernel(*args)
    if kernel is mk.sm_inverse_update:
        assert out is target
    else:
        bu, terms = out
        assert isinstance(bu, np.ndarray) and isinstance(terms, list)
    for a, before in kept:
        np.testing.assert_array_equal(a, before)
    return target


# Every kernel overwrites the matrix it is given; the ids name that mode.
@pytest.mark.parametrize("d", DIMS, ids=lambda d: f"{d}-in_place")
class TestAgainstTextbook:
    def test_sm_symmetric_matches_explicit_inverse(self, rng, d):
        a = sym_spd(rng, d)
        u = rng.standard_normal(d)
        for c in (0.4, -0.2):
            expected = np.linalg.inv(a + c * np.outer(u, u))
            h = mk.symmetrize(np.linalg.inv(a))
            got = apply(mk.sm_inverse_update, (h, [(u, c)]), h, in_place=True)
            assert rel_err(full_matrix(got), expected) < 1e-10

    def test_bfgs_matches_oracle(self, rng, d):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(0.0, b, ku, uku, u)
        got = apply(mk.bfgs_update, (b, ku, uku, u), b, in_place=True)
        assert rel_err(full_matrix(got), expected) < 1e-12

    def test_dfp_matches_oracle(self, rng, d):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(1.0, b, ku, uku, u)
        got = apply(mk.dfp_update, (b, ku, uku, u), b, in_place=True)
        assert rel_err(full_matrix(got), expected) < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_broyden_matches_oracle(self, rng, d, tau):
        b, ku, uku, u = self.update_args(rng, d)
        expected = _broyden_explicit(tau, b, ku, uku, u)
        got = apply(mk.broyden_update, (tau, b, ku, uku, u), b, in_place=True)
        assert rel_err(full_matrix(got), expected) < 1e-12

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
    # must add up to the change the kernel made to B. B u is the old B's
    # product, and below tau = 1 it is the first term's x itself, which
    # the solvers' phi update relies on.
    b, ku, uku, u = TestAgainstTextbook.update_args(rng, d)
    before = b.copy()
    bu, terms = mk.broyden_update(tau, b, ku, uku, u)
    assert len(terms) == count
    np.testing.assert_allclose(bu, before @ u, rtol=1e-13, atol=1e-13)
    assert [x is bu for x, _ in terms] == [tau < 1.0] + [False] * (count - 1)
    added = before + sum(c * np.outer(x, x) for x, c in terms)
    assert rel_err(np.tril(added), np.tril(b)) < 1e-13


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
    args = (h, [(u, 0.5)])
    fresh = apply(mk.sm_inverse_update, args, h, in_place=False)
    np.testing.assert_array_equal(apply(mk.sm_inverse_update, args, h, in_place=True), fresh)


@pytest.mark.parametrize("d", (1, 2, 10, 32, 33, 60, 130))
def test_symmetrize_mirrors_the_lower_triangle(rng, d):
    # symmetrize mirrors the lower triangle, the stored matrix, into the
    # upper one.
    m = rng.standard_normal((d, d))
    expected = np.tril(m) + np.tril(m, -1).T
    assert mk.symmetrize(m) is m
    np.testing.assert_array_equal(m, expected)
    assert np.array_equal(m, m.T)


def poisoned(m):
    """A copy of m with NaN in its strict upper triangle, which no kernel
    may read."""
    m = m.copy()
    m[np.triu_indices(len(m), 1)] = np.nan
    return m


def assert_upper_kept(after, before):
    """No kernel may write the strict upper triangle either: its bits stay."""
    upper = np.triu_indices(len(before), 1)
    np.testing.assert_array_equal(after[upper], before[upper])


# Both memory orders: mk.symmetric_stack hands out C- and Fortran-ordered D_i,
# and the rank-one kernels take BLAS's triangle flag from the order.
@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d", DIMS)
def test_broyden_reads_and_writes_the_lower_triangle_only(rng, d, tau):
    b, ku, uku, u = TestAgainstTextbook.update_args(rng, d)
    expected = _broyden_explicit(tau, b, ku, uku, u)
    for start, order in itertools.product((b, poisoned(b)), "CF"):
        got = np.array(start, order=order)
        mk.broyden_update(tau, got, ku, uku, u)
        assert_upper_kept(got, start)
        assert rel_err(np.tril(got), np.tril(expected)) < 1e-12


def basis_stack(rng, d):
    """D_1 (Fortran-ordered) and D_2 (C-ordered) of a three-matrix stack,
    each SPD in its lower triangle with NaN in its strict upper one: D_0's
    lower triangle and the last buffer's spare triangle."""
    stack = mk.symmetric_stack(3, d)
    mk.copy_lower(stack[0], np.full((d, d), np.nan))
    stack[2].base[-1, :-1].T[np.tril_indices(d)] = np.nan  # the spare triangle
    for m in stack[1:]:
        mk.copy_lower(m, sym_spd(rng, d))
        assert np.isnan(m[np.triu_indices(d, 1)]).all()
    return stack[1:]


# The greedy stage passes e_k as the int k: B e_k is then read as B's
# column k, which must be the bits dsymv(B, e_k) gives.
@pytest.mark.parametrize("d", (1, 2, 10, 64, 65))
def test_basis_direction_reads_b_e_k_as_a_column(rng, d):
    for m, k in itertools.product(basis_stack(rng, d), sorted({0, d // 2, d - 1})):
        e_k = np.zeros(d)
        e_k[k] = 1.0
        expected = mk.symv(m, e_k)
        ku = sym_spd(rng, d)[:, k]
        before = m.copy()
        reference = np.array(m, order="F" if m.flags.f_contiguous else "C")
        bu, terms = mk.broyden_update(0.5, m, ku, float(ku[k]), k)
        np.testing.assert_array_equal(bu, expected)
        assert not np.isnan(bu).any()
        # The whole update is the array direction's, bit for bit.
        ref_bu, ref_terms = mk.broyden_update(0.5, reference, ku, float(ku[k]), e_k)
        np.testing.assert_array_equal(bu, ref_bu)
        assert [c for _, c in terms] == [c for _, c in ref_terms]
        np.testing.assert_array_equal(np.tril(m), np.tril(reference))
        assert_upper_kept(m, before)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("factor", [1.0, 0.5, 0.0, -1.0])
def test_basis_direction_guard_message_is_unchanged(rng, tau, factor):
    # B_kk at or below its guard GUARD_TOL * max|diag B| (here 4.0): the
    # int k raises the message the array e_k raises, with B untouched.
    d, k = 10, 3
    b = sym_spd(rng, d)
    b[np.diag_indices(d)] = 4.0
    b[k, k] = factor * mk.GUARD_TOL * 4.0
    e_k = np.eye(d)[k]
    ku = sym_spd(rng, d)[:, k]
    messages = []
    for u in (k, e_k):
        m = b.copy()
        with pytest.raises(DegenerateDirection) as info:
            mk.broyden_update(tau, m, ku, float(ku[k]), u)
        np.testing.assert_array_equal(m, b)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "<u,Bu>" in messages[0]


@pytest.mark.parametrize("d", DIMS)
def test_sm_reads_and_writes_the_lower_triangle_only(rng, d):
    a = sym_spd(rng, d)
    u = rng.standard_normal(d)
    expected = np.linalg.inv(a + 0.4 * np.outer(u, u))
    h = mk.symmetrize(np.linalg.inv(a))
    for start, order in itertools.product((h, poisoned(h)), "CF"):
        got = mk.sm_inverse_update(np.array(start, order=order), [(u, 0.4)])
        assert_upper_kept(got, start)
        assert rel_err(np.tril(got), np.tril(expected)) < 1e-10


# d = 64 is one of the writers' blocks; 65 and 130 cross block edges.
@pytest.mark.parametrize("d", (1, 2, 10, 64, 65, 130))
@pytest.mark.parametrize("order", "CF")
def test_lower_writers_touch_the_lower_triangle_only(rng, d, order):
    m = np.array(rng.standard_normal((d, d)), order=order)
    src = rng.standard_normal((d, d))
    start = m.copy()
    assert mk.scale_lower(m, 3.0) is m
    assert_upper_kept(m, start)
    np.testing.assert_array_equal(np.tril(m), np.tril(3.0 * start))
    assert mk.copy_lower(m, src) is m
    assert_upper_kept(m, start)
    np.testing.assert_array_equal(np.tril(m), np.tril(src))


@pytest.mark.parametrize("n", (1, 2, 3, 5))
@pytest.mark.parametrize("d", (1, 3, 10))
def test_symmetric_stack_pairs_disjoint_triangles(n, d):
    # ceil(n/2) buffers of (d + 1) x d doubles; D_2p is C-ordered and
    # D_2p+1 Fortran-ordered, and filling each one's lower triangle leaves
    # every other one's as it was written.
    stack = mk.symmetric_stack(n, d)
    assert stack[0].base.shape == ((n + 1) // 2, d + 1, d)
    for i, m in enumerate(stack):
        assert m.shape == (d, d) and m.base is stack[0].base
        assert m.flags.c_contiguous if i % 2 == 0 else m.flags.f_contiguous
        mk.copy_lower(m, np.full((d, d), i + 1.0))
    for i, m in enumerate(stack):
        np.testing.assert_array_equal(np.tril(m), np.tril(np.full((d, d), i + 1.0)))


@pytest.mark.parametrize("d", DIMS)
def test_cholesky_kernels_read_and_write_the_lower_triangle_only(rng, d):
    # Both factorize the stored triangle: a poisoned copy gives the clean
    # run's bits, and the results match numpy's inverse and solve.
    a = sym_spd(rng, d)
    b = rng.standard_normal(d)
    runs = []
    for start in (a, poisoned(a)):
        m, f = start.copy(), start.copy()
        assert mk.cholesky_inverse(m) is m
        x = mk.cholesky_solve(f, b)
        assert_upper_kept(m, start)
        assert_upper_kept(f, start)
        runs.append((m, x))
    (inv, x), (inv_nan, x_nan) = runs
    np.testing.assert_array_equal(np.tril(inv_nan), np.tril(inv))
    np.testing.assert_array_equal(x_nan, x)
    assert rel_err(full_matrix(inv), np.linalg.inv(a)) < 1e-10
    assert rel_err(x, np.linalg.solve(a, b)) < 1e-10


@pytest.mark.parametrize("d", DIMS)
def test_cholesky_kernels_raise_on_an_indefinite_matrix(rng, d):
    a = sym_spd(rng, d)
    a[0, 0] = -1.0  # e_0^T A e_0 < 0
    b = rng.standard_normal(d)
    kept = b.copy()
    with pytest.raises(SingularAggregate, match="singular"):
        mk.cholesky_inverse(a.copy())
    with pytest.raises(SingularAggregate, match="aggregate solve failed"):
        mk.cholesky_solve(a.copy(), b)
    np.testing.assert_array_equal(b, kept)


def test_only_matkernel_imports_scipy_linalg():
    # The lower-triangle storage contract has one owner: no other module of
    # the package hands a matrix to scipy's BLAS or LAPACK.
    importers = set()
    for path in sorted(Path(mk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
                importers.add(path.stem)
    assert importers == {"matkernel"}


@pytest.mark.parametrize("d", (2, 10, 60))
def test_chain_leaves_the_upper_triangle_untouched(rng, d):
    # 50 steps of both kernels write no upper entry, and on poisoned
    # matrices give the lower triangles of the clean run bit for bit.
    h0 = mk.symmetrize(np.linalg.inv(sym_spd(rng, d)))
    b0 = sym_spd(rng, d)
    runs = [(h0.copy(), b0.copy()), (poisoned(h0), poisoned(b0))]
    for _ in range(50):
        u = rng.standard_normal(d)
        for h, b in runs:
            mk.sm_inverse_update(h, [(u, 0.01)])
            bu = mk.symv(b, u)
            mk.bfgs_update(b, bu + 0.1 * u, float(u @ bu + 0.1 * u @ u), u)
    (h, b), (h_nan, b_nan) = runs
    assert_upper_kept(h, h0)
    assert_upper_kept(b, b0)
    assert np.isnan(h_nan[np.triu_indices(d, 1)]).all()
    np.testing.assert_array_equal(np.tril(h_nan), np.tril(h))
    np.testing.assert_array_equal(np.tril(b_nan), np.tril(b))


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
    assert mk.sm_inverse_update(h, mk.broyden_update(tau, b.copy(), y, sy, s)[1]) is h
    assert rel_err(full_matrix(h), expected) < 1e-10


def test_chain_applies_positive_then_negative_terms_in_stage_order(monkeypatch):
    # Kernels return c as np.float64 or a Python float; a NaN c sorts with
    # the positive ones. Each group keeps its stage order, and each term
    # takes one dsymv and one dsyr of H.
    applied, written = [], []

    def dsymv(alpha, a, x, *rest):
        applied.append(x)
        return np.zeros(len(x))

    def dsyr(alpha, x, *rest):
        written.append(alpha)
        return rest[-2]  # the operand a, updated in place
    monkeypatch.setattr(mk, "_dsymv", dsymv)
    monkeypatch.setattr(mk, "_dsyr", dsyr)
    cs = [np.float64(-1.0), 2.0, np.float64(3.0), -4.0, np.float64("nan"),
          np.float64(-5.0), 6.0]
    terms = [(np.full(2, float(k)), c) for k, c in enumerate(cs)]
    h = np.eye(2)
    assert mk.sm_inverse_update(h, terms) is h
    order = [1, 2, 4, 6, 0, 3, 5]
    assert len(applied) == len(written) == len(order)
    for x, alpha, k in zip(applied, written, order):
        # With w = 0 every denominator is 1 (NaN for the NaN c), so
        # dsyr's alpha is -c.
        assert x is terms[k][0]
        np.testing.assert_array_equal(alpha, -terms[k][1])


def test_chain_reports_a_singular_intermediate():
    # I - e_1 e_1^T is singular: the chain stops at that term, with the
    # positive term, which goes first, applied, and asks for a rebuild.
    h = np.eye(2)
    terms = [(np.array([1.0, 0.0]), -1.0), (np.array([0.0, 1.0]), 1.0)]
    with pytest.raises(SingularUpdate, match="rank-one update denominator"):
        mk.sm_inverse_update(h, terms)
    np.testing.assert_array_equal(np.tril(h), np.diag([1.0, 0.5]))


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
    # intermediate and lands on the inverse of the oracle's textbook update.
    b, k, u, tau = stage
    ku = k @ u
    uku = float(u @ ku)
    h = mk.symmetrize(np.linalg.inv(b))
    assert mk.sm_inverse_update(h, mk.broyden_update(tau, b.copy(), ku, uku, u)[1]) is h
    expected = np.linalg.inv(_broyden_explicit(tau, b, ku, uku, u))
    assert rel_err(full_matrix(h), expected) < 1e-9


@pytest.mark.parametrize("d", DIMS)
def test_sm_singular_term_raises_before_any_write(d):
    # c <u, H u> = -1 with H = I: A - u u^T is singular, and the typed error
    # comes before any write.
    u = np.eye(d)[0]
    h = np.eye(d)
    with pytest.raises(SingularUpdate, match="rank-one update denominator"):
        mk.sm_inverse_update(h, [(u, -1.0)])
    np.testing.assert_array_equal(h, np.eye(d))


def test_broyden_guards_leave_the_matrix_untouched():
    labels = ((0.0, "BFGS"), (0.5, "Broyden\\(tau=0.5\\)"), (1.0, "DFP"))
    for d, (tau, label) in itertools.product(DIMS, labels):
        b = np.eye(d)
        with pytest.raises(DegenerateDirection, match=f"^{label} denominators"):
            mk.broyden_update(tau, b, np.zeros(d), 0.0, np.eye(d)[0])
        np.testing.assert_array_equal(b, np.eye(d))


def fortran(m):
    return np.asfortranarray(m)


def strided(m):
    """A writeable view of m in neither memory order."""
    return np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2]


def float32(m):
    return m.astype(np.float32)


def read_only(m):
    m.flags.writeable = False
    return m


def test_matrix_must_be_writeable_float64_in_a_blas_order(rng):
    # The matrix a kernel writes is its output. dsyr and dpotrf would update
    # a copy of a float32 or strided one and write through a read-only one.
    # dpotrf, given m.T, would also update a copy of a Fortran-ordered one;
    # dsyr takes either order (test_broyden_reads_and_writes_...).
    d = 10
    u = rng.standard_normal(d)
    ku = sym_spd(rng, d) @ u
    updates = (lambda m: mk.sm_inverse_update(m, [(u, 0.3)]),
               lambda m: mk.broyden_update(0.0, m, ku, float(u @ ku), u),
               lambda m: mk.broyden_update(0.5, m, ku, float(u @ ku), u),
               mk.cholesky_inverse)
    cases = [*itertools.product((float32, read_only, strided), updates),
             (fortran, mk.cholesky_inverse)]
    for layout, update in cases:
        m = layout(sym_spd(rng, d))
        before = m.copy()
        with pytest.raises(ValueError, match="writeable C-( or Fortran-)?ordered float64"):
            update(m)
        np.testing.assert_array_equal(m, before)



@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d", DIMS)
def test_product_change_matches_the_updated_matrix(rng, d, tau):
    # B' x - B z for x = z + u from B u and the terms alone, at every tau:
    # below tau = 1 the first term's x is B u itself, at tau = 1 none is.
    b, ku, uku, u = TestAgainstTextbook.update_args(rng, d)
    z = rng.standard_normal(d)
    x = z + u
    before = full_matrix(b)
    bu, terms = mk.broyden_update(tau, b, ku, uku, u)
    y = rng.standard_normal(d)
    expected = y + full_matrix(b) @ x - before @ z
    assert mk.add_product_change(y, bu, terms, x) is y
    assert rel_err(y, expected) < 1e-12


def test_product_change_target_must_be_writeable_contiguous_float64(rng):
    # daxpy would add into a copy of a strided or float32 vector and write
    # through a read-only one.
    d = 6
    b, ku, uku, u = TestAgainstTextbook.update_args(rng, d)
    bu, terms = mk.broyden_update(0.5, b, ku, uku, u)
    for y in (rng.standard_normal(2 * d)[::2], rng.standard_normal(d).astype(np.float32),
              read_only(rng.standard_normal(d))):
        before = y.copy()
        with pytest.raises(ValueError, match="writeable contiguous float64"):
            mk.add_product_change(y, bu, terms, u)
        np.testing.assert_array_equal(y, before)
