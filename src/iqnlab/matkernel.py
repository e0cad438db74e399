"""Dense symmetric-matrix kernels for quasi-Newton curvature maintenance.

Matrices are plain float64 ``numpy`` arrays. Each update kernel
overwrites its matrix argument in place, through BLAS level-2 routines from
``scipy.linalg.blas``; a caller who wants the old matrix too passes a copy.
``sm_inverse_update`` returns the matrix, a curvature kernel the product
``B u`` it took along its direction and the list of terms ``(x, c)`` it
added, each meaning ``B += c x x^T``. An update costs a
few O(d^2) passes and allocates only vectors. Guards are checked before anything
is written, so a kernel that raises leaves its matrix as it was, with two
exceptions: a Cholesky kernel finds a singular matrix while factorizing it
and leaves a partial factor behind, and ``sm_inverse_update`` meets a
singular intermediate with the terms before it applied. A matrix the kernel cannot
update in place (not float64, read-only, or neither C- nor Fortran-ordered;
the Cholesky kernels take C order only) raises ``ValueError`` before any
write, also with the matrix untouched.

A symmetric matrix is stored as its lower triangle (``m[i, j]``, ``i >= j``);
nothing here reads or writes the strict upper one. Every update is a sum of
symmetric terms ``c x x^T``, and ``sm_inverse_update`` inverts a list of
them, one Sherman-Morrison update each: ``dsymv`` takes the products and
``dsyr`` writes each term. A kernel binds its matrix's BLAS operand and
triangle flag, picked from the memory order, once per call; ``symv`` does
the same for one product. A curvature kernel given the basis vector e_k as
the int k reads ``B e_k`` as B's column k, with no product. The
Cholesky kernels factorize the same triangle: ``cholesky_inverse``
(``dpotrf`` + ``dpotri``) rebuilds an inverse over it and ``cholesky_solve``
(``dposv``) solves with it. Only this module hands a stored matrix to
BLAS or LAPACK. ``symmetrize`` mirrors the full matrix for ``sigma_metric``,
whose SciPy solve reads all of it.

``symmetric_stack`` lays n matrices out two to a (d + 1) x d buffer: one
C-ordered view's lower triangle is the buffer's strictly lower part, and
a Fortran-ordered view's lower triangle is the rest, diagonal included.
So a matrix's strict upper triangle is its partner's lower one, and a
write that is not a rank-one term goes through ``scale_lower`` or
``copy_lower``, which touch the lower triangle only.

The curvature operators take the reference matrix K only through its action
``ku = K @ u`` and the scalar ``uku = <u, K u>``. The two call sites need
nothing more: along a step direction ``K u`` is a gradient difference, and
along a basis vector it is a single Hessian column. This is what keeps each
update at O(d^2).
"""

import functools
import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy as _daxpy
from scipy.linalg.blas import ddot as _ddot
from scipy.linalg.blas import dsymv as _dsymv
from scipy.linalg.blas import dsyr as _dsyr
from scipy.linalg.lapack import dposv as _dposv
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dpotri as _dpotri

from .errors import (
    DegenerateDirection,
    InvalidTau,
    NonPositiveDiagonal,
    SingularA,
    SingularAggregate,
    SingularUpdate,
)

# Recorded in run manifests; there is a single kernel implementation.
BACKEND = "scipy-blas"

GUARD_TOL = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of M into its upper one, in place; returns M."""
    i, j = np.triu_indices(len(m), 1)
    m[i, j] = m[j, i]
    return m


def symmetric_stack(n: int, d: int) -> list:
    """n zeroed d x d symmetric matrices in ceil(n / 2) buffers of
    (d + 1) x d doubles, half the memory of n full ones. Matrix 2p is
    ``buf[p, 1:]`` (C order, its lower triangle the buffer's strictly
    lower part) and matrix 2p + 1 is ``buf[p, :-1].T`` (Fortran order, its
    lower triangle the buffer's upper part, diagonal included)."""
    buf = np.zeros(((n + 1) // 2, d + 1, d))
    return [buf[i // 2, 1:] if i % 2 == 0 else buf[i // 2, :-1].T for i in range(n)]


# Lower-triangle masks for the diagonal blocks of scale_lower and
# copy_lower, in both memory orders: a mask of m's size would allocate
# d^2 bytes, and a loop over rows would make d calls.
_BLOCK = 64
_TRI = np.tri(_BLOCK, dtype=bool)
_TRI_F = np.asfortranarray(_TRI)
_TRI.flags.writeable = _TRI_F.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _lower_blocks(d, fortran):
    """(index, mask) pairs that cover a d x d lower triangle once, each
    block walked in the matrix's memory order; mask None means the whole
    block. Cached: at small d building them costs more than the write."""
    blocks = []
    for k0 in range(0, d, _BLOCK):
        k1 = min(k0 + _BLOCK, d)
        # Ellipsis indexes a one-block matrix at a third of two slices' cost.
        diagonal = ... if k1 - k0 == d else (slice(k0, k1), slice(k0, k1))
        if fortran:  # column blocks: the triangle, then below it
            blocks.append((diagonal, _TRI_F[:k1 - k0, :k1 - k0]))
            if k1 < d:
                blocks.append(((slice(k1, d), slice(k0, k1)), None))
        else:  # row blocks: left of the triangle, then the triangle
            if k0:
                blocks.append(((slice(k0, k1), slice(0, k0)), None))
            blocks.append((diagonal, _TRI[:k1 - k0, :k1 - k0]))
    return tuple(blocks)


def scale_lower(m: np.ndarray, f: float) -> np.ndarray:
    """``m *= f`` on the lower triangle only, in place; returns m."""
    for idx, mask in _lower_blocks(len(m), m.flags.f_contiguous):
        block = m[idx]
        if mask is None:  # where=True would take numpy's slower masked loop
            block *= f
        else:
            np.multiply(block, f, out=block, where=mask)
    return m


def copy_lower(m: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Copy src's lower triangle into m's, in place; returns m."""
    for idx, mask in _lower_blocks(len(m), m.flags.f_contiguous):
        if mask is None:
            m[idx] = src[idx]
        else:
            np.copyto(m[idx], src[idx], where=mask)
    return m


# BLAS and LAPACK take Fortran-ordered matrices. A C-ordered m is passed as
# its Fortran-ordered view m.T, since f2py would copy m itself on every
# call; the upper triangle of m.T, their default, is the lower triangle of
# m. A Fortran-ordered m is passed as it is, with the lower flag.
# Arguments go by position: as keywords they cost f2py ~0.4 us a call,
# which weighs at small d.

def symv(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for a symmetric ``m``, read from its lower triangle."""
    if m.flags.c_contiguous:
        return _dsymv(1.0, m.T, x)
    return _dsymv(1.0, m, x, 0.0, None, 0, 1, 0, 1, 1)


# f2py hands dsyr and dpotrf a copy of a view that is not a float64 Fortran
# array, daxpy one of a vector that is not a contiguous float64 one, and
# each writes through a read-only one. The update would then be lost, or
# land in memory the caller protected, so the in-place writes below check
# both and raise with their target untouched. A rank-one kernel binds its
# matrix's BLAS operand once per call (_operand) and checks each dsyr's
# result, which is that operand for every term or for none.
_NOT_IN_PLACE = "the matrix must be a writeable C-ordered float64 array"
_NOT_IN_PLACE_SYMMETRIC = "the matrix must be a writeable C- or Fortran-ordered float64 array"
_NOT_IN_PLACE_VECTOR = "the vector must be a writeable contiguous float64 array"


def _operand(m):
    """(a, lower) for a matrix a kernel is about to update: the
    Fortran-ordered array BLAS takes for m and its triangle flag."""
    if not m.flags.writeable:
        raise ValueError(_NOT_IN_PLACE_SYMMETRIC)
    return (m.T, 0) if m.flags.c_contiguous else (m, 1)


def add_product_change(y: np.ndarray, bu: np.ndarray, terms: list,
                       x: np.ndarray) -> np.ndarray:
    """``y += B' x - B z`` in place for ``x = z + u``, where ``B'`` is B
    plus the ``terms`` a curvature kernel added and ``bu = B u`` the
    product it returned: ``y += bu + sum_j c_j <x_j, x> x_j``; returns y.

    Each term costs one ``ddot`` and one ``daxpy`` on vectors, and no
    matrix is read. A term whose x_j is ``bu`` itself (the first one below
    tau = 1) takes bu's 1 into its own coefficient.

    Raises
    ------
    ValueError
        If ``y`` is not a writeable contiguous float64 vector (y is then
        untouched).
    """
    if not y.flags.writeable:
        raise ValueError(_NOT_IN_PLACE_VECTOR)
    # daxpy takes n and a positionally: as keywords they cost f2py ~0.15 us
    # per call, which weighs at small d.
    n = len(y)
    rest = 1.0  # bu's coefficient, until a term whose x_j is bu takes it
    for x_j, c_j in terms:
        a = c_j * _ddot(x_j, x)
        if x_j is bu:
            a, rest = a + rest, 0.0
        if _daxpy(x_j, y, n, a) is not y:
            raise ValueError(_NOT_IN_PLACE_VECTOR)
    if rest != 0.0 and _daxpy(bu, y, n, rest) is not y:
        raise ValueError(_NOT_IN_PLACE_VECTOR)
    return y


def cholesky_inverse(m: np.ndarray) -> np.ndarray:
    """Overwrite the SPD ``m`` (lower triangle) with its inverse, by
    Cholesky (``dpotrf``, then ``dpotri``); returns m.

    Raises
    ------
    SingularAggregate
        If m is singular or indefinite; m then holds a partial factor.
    ValueError
        If ``m`` cannot be updated in place (m is then untouched).
    """
    a = m.T
    # clean=0: the default clean=1 zeroes the strict upper triangle of m.
    c, info = _dpotrf(a, clean=0, overwrite_a=1) if m.flags.writeable else (None, 0)
    if c is not a:
        raise ValueError(_NOT_IN_PLACE)
    if info == 0:
        _, info = _dpotri(a, overwrite_c=1)
    if info != 0:
        raise SingularAggregate(f"summed curvature is singular or indefinite (info {info})")
    return m


def cholesky_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``M x = b`` for the SPD ``m`` (lower triangle), by
    ``dposv``. ``m`` is scratch: a C-ordered float64 one is overwritten with
    its Cholesky factor, so the solve allocates no copy; ``b`` is kept.
    scipy's LAPACK, not numpy's: a numpy solve leaves numpy's own OpenBLAS
    pool spinning on the shared cores, which stalls the next kernel.

    Raises
    ------
    SingularAggregate
        If m is singular or indefinite.
    """
    _, x, info = _dposv(m.T, b, overwrite_a=1)
    if info != 0:
        raise SingularAggregate(f"aggregate solve failed: dposv info {info}")
    return x


def sm_inverse_update(h: np.ndarray, terms: list) -> np.ndarray:
    """Overwrite ``h = A^{-1}`` with ``(A + sum_j c_j x_j x_j^T)^{-1}``, one
    Sherman-Morrison update per term.

    Parameters
    ----------
    h : (d, d) writeable C- or Fortran-ordered float64 array
        Inverse of the current matrix A (lower triangle); updated in place.
    terms : list of ((d,) float array, float)
        The added terms ``(x, c)``, each meaning ``A += c x x^T``, as the
        curvature kernels return them.

    Returns
    -------
    h
        Now the inverse of A plus every term. The positive c go first, then
        the negative, each group in list order (a NaN c counts as positive
        and reaches ``h``). Every intermediate then lies above the old or the
        new sum in the PSD order, so none is singular while both are
        definite. Each term is applied as the symmetric term
        ``-(c / den) w w^T`` with ``w = A^{-1} x`` and ``den = 1 + c <x, w>``
        for the A it meets.

    Raises
    ------
    SingularUpdate
        If some ``|1 + c <x, A^{-1} x>| < GUARD_TOL``: an intermediate is
        singular all the same. ``h`` then holds the terms before it and
        must be rebuilt.
    ValueError
        If ``h`` cannot be updated in place (h is then untouched).
    """
    a, lower = _operand(h)
    n = len(h)
    # dsymv's optional arguments cost f2py least when left out, as their
    # defaults (lower = 0) allow for a C-ordered h such as the solvers' H.
    optional = (0.0, None, 0, 1, 0, 1, 1) if lower else ()
    for negative in (False, True):
        for x, c in terms:
            if (c < 0.0) != negative:
                continue
            w = _dsymv(1.0, a, x, *optional)
            den = 1.0 + c * _ddot(x, w)
            if abs(den) < GUARD_TOL:
                raise SingularUpdate(
                    f"rank-one update denominator {den:.3e} below {GUARD_TOL:.1e}")
            if _dsyr(-c / den, w, lower, 1, 0, n, a, 1) is not a:
                raise ValueError(_NOT_IN_PLACE_SYMMETRIC)
    return h


def _curvature_guards(b, ku, u):
    # Each denominator is compared against its own operand scale:
    # <u, Bu> ~ ||u||^2 ||B|| and uku ~ ||u|| ||Ku||. Coupling them would
    # reject healthy updates whenever B and K live on different scales.
    # 2-norms as sqrt(x . x), numpy's norm formula without its call overhead;
    # the max as a[a.argmax()], the value a.max() returns (argmax stops at
    # the first NaN) at a third of the reduction's cost on a short diagonal.
    # An int u is the basis vector e_u, of norm 1.
    nu = 1.0 if isinstance(u, (int, np.integer)) else math.sqrt(_ddot(u, u))
    diag = np.abs(b.diagonal())
    return (GUARD_TOL * nu * nu * diag[diag.argmax()],
            GUARD_TOL * nu * math.sqrt(_ddot(ku, ku)))


def broyden_update(tau: float, b: np.ndarray, ku: np.ndarray, uku: float, u) -> tuple:
    """Overwrite B with its restricted Broyden update toward K along u,
    ``tau * DFP + (1 - tau) * BFGS``; returns ``(bu, terms)``: the product
    ``B u`` of the B it started from and the terms it added.

    ``b`` is a writeable C- or Fortran-ordered float64 array holding the
    symmetric B in its lower triangle, the only part read or written. K
    enters only as ``ku = K u`` and ``uku = <u, K u>``. ``u`` is a (d,)
    array or an int k for the basis vector e_k, whose ``B e_k`` is B's
    column k, read from the lower triangle with no d x d sweep (the bits of
    ``symv(b, e_k)``), ``||e_k|| = 1`` and ``<e_k, B e_k> = B_kk``. The update
    is applied as symmetric rank-one terms

        B - (1 - tau)/<u,Bu> bu bu^T + ((1 - tau) + tau c)/uku ku ku^T
          - tau/(2 uku) (ku + bu)(ku + bu)^T + tau/(2 uku) (ku - bu)(ku - bu)^T

    with ``bu = B u`` and ``c = 1 + <u,Bu>/uku``; the last two terms are the
    DFP cross term ``-(ku bu^T + bu ku^T) tau/uku`` written symmetrically.
    At ``tau == 0`` and ``tau == 1`` only the BFGS or DFP terms run, so the
    endpoints are exact. The result satisfies the secant property
    ``B_new @ u == ku``.

    The terms ``(x, c)`` come in the order applied: two for BFGS, three for
    DFP, four otherwise. The K-term's x is ``ku`` itself, and below tau = 1
    the first term's x is ``bu`` itself; at tau = 1 no term's x is ``bu``.

    Raises
    ------
    InvalidTau
        If tau is outside [0, 1].
    DegenerateDirection
        If ``<u, B u>`` falls below ``GUARD_TOL * ||u||^2 * max|diag B|``
        or ``uku`` below ``GUARD_TOL * ||u|| * ||ku||``.
    ValueError
        If ``b`` cannot be updated in place (b is then untouched).
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidTau(f"tau must lie in [0, 1], got {tau}")
    a, lower = _operand(b)
    # The guards read B's diagonal before the product B u: read after it,
    # quad-wide IQN steps took ~5% longer at two BLAS threads.
    guard_ubu, guard_uku = _curvature_guards(b, ku, u)
    # Python floats make the terms' c Python floats: numpy scalar
    # arithmetic costs their users ~0.15 us an operation at small d.
    if isinstance(u, (int, np.integer)):
        bu, ubu = np.concatenate((b[u, :u + 1], b[u + 1:, u])), float(b[u, u])
    else:
        bu = _dsymv(1.0, a, u, 0.0, None, 0, 1, 0, 1, lower)
        ubu = _ddot(u, bu)
    uku = float(uku)
    if ubu <= guard_ubu or uku <= guard_uku:
        label = "BFGS" if tau == 0.0 else "DFP" if tau == 1.0 else f"Broyden(tau={tau})"
        raise DegenerateDirection(
            f"{label} denominators <u,Bu>={ubu:.3e} (guard {guard_ubu:.3e}), "
            f"uku={uku:.3e} (guard {guard_uku:.3e})"
        )
    terms = [] if tau == 1.0 else [(bu, -(1.0 - tau) / ubu)]
    terms.append((ku, ((1.0 - tau) + tau * (1.0 + ubu / uku)) / uku))
    if tau != 0.0:
        half = 0.5 * tau / uku
        terms += [(ku + bu, -half), (ku - bu, half)]
    n = len(b)
    for x, c in terms:
        if _dsyr(c, x, lower, 1, 0, n, a, 1) is not a:
            raise ValueError(_NOT_IN_PLACE_SYMMETRIC)
    return bu, terms


def bfgs_update(b: np.ndarray, ku: np.ndarray, uku: float, u: np.ndarray) -> tuple:
    """Generalized BFGS update of B toward K along u, in place:
    ``B - B u u^T B / <u, B u> + ku ku^T / uku``. :func:`broyden_update`
    at tau = 0."""
    return broyden_update(0.0, b, ku, uku, u)


def dfp_update(b: np.ndarray, ku: np.ndarray, uku: float, u: np.ndarray) -> tuple:
    """DFP update of B toward K along u, in place:
    ``B - (ku u^T B + B u u^T ku^T)/uku + (1 + <u,Bu>/uku) ku ku^T/uku``.
    :func:`broyden_update` at tau = 1."""
    return broyden_update(1.0, b, ku, uku, u)


def greedy_vector(q_diag: np.ndarray, h_diag: np.ndarray) -> int:
    """Index of the basis direction maximizing ``<e_i, Q e_i> / <e_i, H e_i>``.

    For standard basis vectors the quadratic-form ratio reduces to the ratio
    of the float64 diagonals, which are only read. Ties break to the lowest
    index (0-based, indexing the diagonal arrays).

    Raises
    ------
    NonPositiveDiagonal
        If any reference diagonal entry is <= GUARD_TOL.
    """
    # The min as h_diag[h_diag.argmin()], a third of min()'s cost at small d.
    # It is NaN when any entry is, and then says nothing of the others. The
    # message takes min() itself: with both zeros present the two may differ
    # in the zero's sign.
    low = h_diag[h_diag.argmin()]
    if low <= GUARD_TOL or (low != low and np.any(h_diag <= GUARD_TOL)):
        raise NonPositiveDiagonal(
            f"reference diagonal has entries <= {GUARD_TOL:.1e} (min {h_diag.min():.3e})"
        )
    return int((q_diag / h_diag).argmax())


def sigma_metric(a: np.ndarray, g: np.ndarray) -> float:
    """Approximation error ``sigma(G, A) = tr(A^{-1} G) - d`` for PD A.

    Zero iff G == A when G dominates A in the PSD order; the value is
    returned regardless of domination. Both are read from their lower
    triangles, as the solvers keep D_i.

    Raises
    ------
    SingularA
        If the Cholesky factorization of A fails.
    """
    g = symmetrize(np.array(g, dtype=np.float64))  # cho_solve reads all of G
    try:
        cf = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularA(f"Cholesky factorization failed: {exc}") from exc
    return float(np.trace(scipy.linalg.cho_solve(cf, g, check_finite=False)) - len(g))
