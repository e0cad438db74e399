"""Dense symmetric-matrix kernels for quasi-Newton curvature maintenance.

Matrices are plain C-ordered float64 ``numpy`` arrays. The update kernels
work in place on BLAS level-2 routines from ``scipy.linalg.blas``, so an
update costs a few O(d^2) passes and allocates only vectors. Each takes a
numpy-style ``out``: ``None`` returns a fresh array, and ``out=<input>``
overwrites the input. Guards are checked before anything is written, so a
kernel that raises leaves ``out`` as it was.

Symmetric paths (every curvature update, and Sherman-Morrison updates with
u parallel to v) take their product from ``dsymv``, which reads one
triangle only, and apply each term ``c x x^T`` as ``dger(+-1, r, r)`` with
``r = sqrt(|c|) x``. Both triangles then receive bit-identical increments,
so a symmetric matrix stays exactly symmetric without a symmetrize pass.
Their input must be symmetric, as the solvers keep H and every D_i; with
``out=None`` they start from the input's symmetric part. General
Sherman-Morrison terms use ``dgemv`` for ``A u`` and ``A^T v`` and a
general ``dger``.

The curvature operators take the reference matrix K only through its action
``ku = K @ u`` and the scalar ``uku = <u, K u>``. The two call sites need
nothing more: along a step direction ``K u`` is a gradient difference, and
along a basis vector it is a single Hessian column. This is what keeps each
update at O(d^2).
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dger as _dger
from scipy.linalg.blas import dgemv as _dgemv
from scipy.linalg.blas import dsymv as _dsymv

from .errors import (
    DegenerateDirection,
    InvalidTau,
    NonPositiveDiagonal,
    SingularA,
    SingularUpdate,
)

# Recorded in run manifests; there is a single kernel implementation.
BACKEND = "scipy-blas"

DEFAULT_TOL = 1e-12


def _as_f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


def symmetrize(m: np.ndarray, out=None) -> np.ndarray:
    """Return the symmetric part 0.5 * (M + M^T); ``out=m`` replaces M by it."""
    if out is None:
        return 0.5 * (m + m.T)
    np.add(m, m.T, out=out)  # numpy buffers m.T when out overlaps it
    out *= 0.5
    return out


def _check_out(out, m):
    if (not isinstance(out, np.ndarray) or out.shape != m.shape
            or out.dtype != np.float64 or not out.flags.c_contiguous
            or not out.flags.writeable):
        raise ValueError(f"out must be a writeable C-ordered float64 array of shape {m.shape}")


# BLAS takes Fortran-ordered matrices; the C-ordered m is passed as its
# Fortran-ordered view m.T, since f2py would copy m itself on every call.

def _symv(m, x):
    """``m @ x`` for a symmetric ``m``, read from one triangle."""
    return _dsymv(1.0, m.T, x)


def _matvec(m, x):
    """``m @ x``."""
    return _dgemv(1.0, m.T, x, trans=1)


def _rmatvec(m, x):
    """``m.T @ x``."""
    return _dgemv(1.0, m.T, x)


def _add_outer(m, alpha, x, y):
    """``m += alpha x y^T`` in place."""
    _dger(alpha, y, x, a=m.T, overwrite_a=1)


def _add_symmetric(m, c, x):
    """``m += c x x^T`` in place with bit-identical increments to m[i, j]
    and m[j, i]."""
    r = math.sqrt(abs(c)) * x
    _dger(1.0 if c > 0.0 else -1.0, r, r, a=m.T, overwrite_a=1)


def sm_inverse_update(a_inv: np.ndarray, u: np.ndarray, v: np.ndarray,
                      tol: float = DEFAULT_TOL, out=None) -> np.ndarray:
    """Inverse of ``A + u v^T`` from ``a_inv = A^{-1}`` (Sherman-Morrison).

    Parameters
    ----------
    a_inv : (d, d) array
        Inverse of the current matrix A.
    u, v : (d,) arrays
        Rank-one factors of the additive update.
    tol : float
        Absolute threshold on the denominator ``1 + <v, A^{-1} u>``.
    out : (d, d) C-ordered float64 array, optional
        Where to write the result; may be ``a_inv`` itself.

    Returns
    -------
    (d, d) array
        ``(A + u v^T)^{-1}``. When u is collinear with v the update is the
        symmetric term ``-(lambda / den) w w^T`` with ``v = lambda u`` and
        ``w = A^{-1} u``; it keeps a symmetric ``a_inv`` exactly symmetric.
        Otherwise ``A^{-T} v`` is formed as well and the term is general.

    Raises
    ------
    SingularUpdate
        If ``|1 + <v, A^{-1} u>| < tol`` (the update destroys invertibility).
    """
    a_inv = _as_f64(a_inv)
    u = _as_f64(u)
    v = _as_f64(v)
    uu = float(u @ u)
    vv = float(v @ v)
    uv = float(u @ v)
    collinear = uu > 0.0 and vv > 0.0 and uv * uv >= (1.0 - 1e-12) * uu * vv
    if out is None:
        out = a_inv = symmetrize(a_inv) if collinear else a_inv.copy()
    else:
        _check_out(out, a_inv)
    w = _symv(a_inv, u) if collinear else _matvec(a_inv, u)
    den = 1.0 + float(v @ w)
    if abs(den) < tol:
        raise SingularUpdate(f"rank-one update denominator {den:.3e} below {tol:.1e}")
    wt = None if collinear else _rmatvec(a_inv, v)
    if out is not a_inv:
        np.copyto(out, a_inv)
    if collinear:
        _add_symmetric(out, -(uv / uu) / den, w)
    else:
        _add_outer(out, -1.0 / den, w, wt)
    return out


def _curvature_guards(b, ku, u, tol):
    # Each denominator is compared against its own operand scale:
    # <u, Bu> ~ ||u||^2 ||B|| and uku ~ ||u|| ||Ku||. Coupling them would
    # reject healthy updates whenever B and K live on different scales.
    # 2-norms as sqrt(x . x), numpy's norm formula without its call overhead.
    nu = math.sqrt(u.dot(u))
    return (tol * nu * nu * np.abs(b.diagonal()).max(),
            tol * nu * math.sqrt(ku.dot(ku)))


def _restricted_broyden(tau, b, ku, uku, u, tol, out, label):
    """``tau * DFP + (1 - tau) * BFGS`` as symmetric rank-one terms:

        B - (1 - tau)/<u,Bu> bu bu^T + ((1 - tau) + tau c)/uku ku ku^T
          - tau/(2 uku) (ku + bu)(ku + bu)^T + tau/(2 uku) (ku - bu)(ku - bu)^T

    with ``bu = B u`` and ``c = 1 + <u,Bu>/uku``; the last two terms are the
    DFP cross term ``-(ku bu^T + bu ku^T) tau/uku`` written symmetrically.
    """
    b = _as_f64(b)
    ku = _as_f64(ku)
    u = _as_f64(u)
    uku = float(uku)
    if out is None:
        out = b = symmetrize(b)
    else:
        _check_out(out, b)
    guard_ubu, guard_uku = _curvature_guards(b, ku, u, tol)
    bu = _symv(b, u)
    ubu = float(u @ bu)
    if ubu <= guard_ubu or uku <= guard_uku:
        raise DegenerateDirection(
            f"{label} denominators <u,Bu>={ubu:.3e} (guard {guard_ubu:.3e}), "
            f"uku={uku:.3e} (guard {guard_uku:.3e})"
        )
    if out is not b:
        np.copyto(out, b)
    if tau != 1.0:
        _add_symmetric(out, -(1.0 - tau) / ubu, bu)
    _add_symmetric(out, ((1.0 - tau) + tau * (1.0 + ubu / uku)) / uku, ku)
    if tau != 0.0:
        half = 0.5 * tau / uku
        _add_symmetric(out, -half, ku + bu)
        _add_symmetric(out, half, ku - bu)
    return out


def bfgs_update(b: np.ndarray, ku: np.ndarray, uku: float, u: np.ndarray,
                tol: float = DEFAULT_TOL, out=None) -> np.ndarray:
    """Generalized BFGS update of B toward K along direction u.

    Computes ``B - B u u^T B / <u, B u> + ku ku^T / uku`` where ``ku = K u``
    and ``uku = <u, K u>``, written to ``out`` (fresh when ``None``; may be
    ``b`` itself). The result satisfies the secant property
    ``B_new @ u == ku``; a symmetric B gives an exactly symmetric result.

    Raises
    ------
    DegenerateDirection
        If ``<u, B u>`` or ``uku`` falls below the scaled tolerance.
    """
    return _restricted_broyden(0.0, b, ku, uku, u, tol, out, "BFGS")


def dfp_update(b: np.ndarray, ku: np.ndarray, uku: float, u: np.ndarray,
               tol: float = DEFAULT_TOL, out=None) -> np.ndarray:
    """DFP update of B toward K along direction u.

    Computes ``B - (ku u^T B + B u u^T ku^T)/uku + (1 + <u,Bu>/uku) ku ku^T/uku``
    with the same access pattern, ``out`` semantics, secant property and
    error contract as :func:`bfgs_update`.
    """
    return _restricted_broyden(1.0, b, ku, uku, u, tol, out, "DFP")


def broyden_update(tau: float, b: np.ndarray, ku: np.ndarray, uku: float,
                   u: np.ndarray, tol: float = DEFAULT_TOL, out=None) -> np.ndarray:
    """Restricted Broyden update: ``tau * DFP + (1 - tau) * BFGS``.

    The endpoints are exact: ``tau == 0`` returns the BFGS output and
    ``tau == 1`` the DFP output, bit for bit. ``out`` as in
    :func:`bfgs_update`.

    Raises
    ------
    InvalidTau
        If tau is outside [0, 1].
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidTau(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return bfgs_update(b, ku, uku, u, tol, out=out)
    if tau == 1.0:
        return dfp_update(b, ku, uku, u, tol, out=out)
    return _restricted_broyden(tau, b, ku, uku, u, tol, out, f"Broyden(tau={tau})")


def greedy_vector(q_diag: np.ndarray, h_diag: np.ndarray,
                  tol: float = DEFAULT_TOL) -> int:
    """Index of the basis direction maximizing ``<e_i, Q e_i> / <e_i, H e_i>``.

    For standard basis vectors the quadratic-form ratio reduces to the ratio
    of diagonals, so only the two diagonals are needed. Ties break to the
    lowest index (0-based, indexing the diagonal arrays).

    Raises
    ------
    NonPositiveDiagonal
        If any reference diagonal entry is <= tol.
    """
    q_diag = np.asarray(q_diag, dtype=np.float64)
    h_diag = np.asarray(h_diag, dtype=np.float64)
    if np.any(h_diag <= tol):
        raise NonPositiveDiagonal(
            f"reference diagonal has entries <= {tol:.1e} (min {h_diag.min():.3e})"
        )
    return int(np.argmax(q_diag / h_diag))


def sigma_metric(a: np.ndarray, g: np.ndarray) -> float:
    """Approximation error ``sigma(G, A) = tr(A^{-1} G) - d`` for PD A.

    Zero iff G == A when G dominates A in the PSD order; the value is
    returned regardless of domination.

    Raises
    ------
    SingularA
        If the Cholesky factorization of A fails.
    """
    a = _as_f64(a)
    g = _as_f64(g)
    try:
        cf = scipy.linalg.cho_factor(a, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularA(f"Cholesky factorization failed: {exc}") from exc
    return float(np.trace(scipy.linalg.cho_solve(cf, g, check_finite=False)) - a.shape[0])


def psd_dominates(g: np.ndarray, a: np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue of ``G - A`` is >= -tol."""
    diff = symmetrize(_as_f64(g) - _as_f64(a))
    return bool(np.linalg.eigvalsh(diff)[0] >= -tol)
