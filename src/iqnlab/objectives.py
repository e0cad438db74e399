"""Finite-sum objectives: component value/gradient/Hessian access.

Two concrete families are provided. The synthetic quadratic family has
diagonal component matrices, so Hessian slices are trivial. The regularized
logistic family combines a per-sample logistic loss with a full copy of the
``(lam/2) * ||x||^p`` regularizer on every component, so that the average
over components reproduces the total objective while keeping each component
strictly convex away from the origin.

The logistic per-component oracles read the sample row z_i from
``LogisticObjective.rows``, a read-only, C-ordered dense copy of the
features made once at construction: row i is a view, and the margin
<z_i, x> is one dot of it with x, cheaper than rebuilding the row or
gathering the margin from the CSR arrays (``BENCH_rows.json``). The copy
holds N d doubles; every solver already keeps a curvature stack of
ceil(N/2) (d + 1) d, so the copy is at most 2/d of what the solver holds,
at any density, and no density switch is needed. The CSR arrays stay where
the work is O(nnz) at any density: ``full_gradient`` and
``gradients_at``'s margins, and ``estimate_constants``.
``newton_system`` reads both: Z^T diag(w) Z is one pass over Z's nonzeros,
each scaling a row of ``w[:, None] * rows``, O(nnz d) work. SciPy's sparse
product, O(sum_i nnz_i^2) plus its Python dispatch, won only at shapes
where every solver's curvature stack alone needs gigabytes
(``BENCH_setup.json``), so no switch selects it.

The logistic set-up and the stopping rule every iteration pays call the
compiled kernels of the private ``scipy.sparse._sparsetools`` directly:
``csr_matvec`` with the arguments ``csr_matrix @ x`` passes it, and
``csc_matvec`` and ``csc_matvecs`` on the same CSR arrays, read as the CSC
arrays of Z^T, for the transposed products. At the benchmark's shapes
``@`` spends longer in Python dispatch than in the kernels it calls
(``BENCH_stoprule.json``). A SciPy that changes those kernels'
arguments fails ``test_full_gradient_bit_equal_to_uncached_transpose``, or
for ``csc_matvecs`` ``test_newton_system_skips_scipys_sparse_product``; one
that drops the module fails this module's import.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools
from scipy.special import expit

from .errors import DegenerateProblem

# ||x||^p derivatives vanish for p > 2; below this radius they are returned
# as exact zeros (the analytic limit).
ORIGIN_GUARD = 1e-14

# max |sigma''(t)| = max |s(1-s)(1-2s)| over s in [0, 1]
_LOGIT_THIRD_DERIV_BOUND = 1.0 / (6.0 * np.sqrt(3.0))


@dataclass(frozen=True)
class SmoothnessConstants:
    """Strong convexity mu, smoothness L, Hessian Lipschitz L_tilde, and the
    strong self-concordance constant M = L_tilde * mu^(-3/2)."""

    mu: float
    L: float
    L_tilde: float = 0.0
    M: float = 0.0

    def __post_init__(self):
        if not self.mu > 0.0:
            raise DegenerateProblem(f"mu must be positive, got {self.mu}")
        if self.mu > self.L * (1.0 + 1e-12):
            raise DegenerateProblem(f"mu={self.mu} exceeds L={self.L}")
        if self.L_tilde < 0.0 or self.M < 0.0:
            raise DegenerateProblem("L_tilde and M must be non-negative")

    @classmethod
    def from_smoothness(cls, mu, L, L_tilde=0.0):
        try:
            m_const = L_tilde * mu ** (-1.5)
        except OverflowError as exc:
            raise DegenerateProblem(f"M = L_tilde * mu^(-3/2) overflows at mu={mu:.3e}") from exc
        return cls(mu=mu, L=L, L_tilde=L_tilde, M=m_const)


@dataclass(frozen=True)
class QuadraticComponents:
    """Diagonal quadratic components: f_i(x) = 0.5 <x, diag(a_i) x> + <b_i, x>."""

    a_diag: np.ndarray  # (n, d), strictly positive
    b: np.ndarray       # (n, d)

    def __post_init__(self):
        if self.a_diag.shape != self.b.shape or self.a_diag.ndim != 2:
            raise DegenerateProblem("a_diag and b must both have shape (n, d)")
        if not np.all(self.a_diag > 0.0):
            raise DegenerateProblem("all quadratic diagonals must be positive")


class FiniteSumObjective:
    """Interface shared by the problem families.

    Component indices are 0-based. ``full_gradient`` returns the *sum* of the
    component gradients; the stopping rule divides by n. Every result is a
    pure function of (i, x): the problem data are fixed at construction, and
    what an objective caches between calls (the constants, and
    :class:`LogisticObjective`'s memo of the last point: its norm, the
    regularizer coefficients and the last component's pieces there) never
    changes a bit of what it returns.
    """

    n: int
    d: int

    def value(self, i, x):
        raise NotImplementedError

    def gradient(self, i, x):
        raise NotImplementedError

    def hessian(self, i, x):
        raise NotImplementedError

    def hessian_diag(self, i, x):
        raise NotImplementedError

    def hessian_column(self, i, x, j):
        raise NotImplementedError

    def hessian_quad_form(self, i, x, s):
        """<s, hessian(i, x) s> as a float, in O(d) work: the direct
        solvers' scale stage reads this one scalar of the Hessian."""
        raise NotImplementedError

    def estimate_constants(self) -> SmoothnessConstants:
        raise NotImplementedError

    @property
    def constants(self) -> SmoothnessConstants:
        cached = getattr(self, "_constants", None)
        if cached is None:
            cached = self.estimate_constants()
            self._constants = cached
        return cached

    def full_gradient(self, x):
        """Sum of all component gradients at x."""
        raise NotImplementedError

    def gradients_at(self, x):
        """All component gradients at a single point, stacked (n, d)."""
        raise NotImplementedError


class QuadraticObjective(FiniteSumObjective):
    """f_i(x) = 0.5 <x, A_i x> + <b_i, x> with A_i = diag(a_i) > 0."""

    def __init__(self, components: QuadraticComponents):
        self.a = np.ascontiguousarray(components.a_diag, dtype=np.float64)
        self.b = np.ascontiguousarray(components.b, dtype=np.float64)
        self.n, self.d = self.a.shape
        # Summed once: the stopping rule evaluates full_gradient every iteration.
        self._a_sum = self.a.sum(axis=0)
        self._b_sum = self.b.sum(axis=0)

    def value(self, i, x):
        return float(0.5 * (x @ (self.a[i] * x)) + self.b[i] @ x)

    def gradient(self, i, x):
        return self.a[i] * x + self.b[i]

    def hessian(self, i, x):
        return np.diag(self.a[i])

    def hessian_diag(self, i, x):
        return self.a[i].copy()

    def hessian_column(self, i, x, j):
        col = np.zeros(self.d)
        col[j] = self.a[i, j]
        return col

    def hessian_quad_form(self, i, x, s):
        return float((self.a[i] * s).dot(s))

    def estimate_constants(self):
        return SmoothnessConstants(mu=float(self.a.min()), L=float(self.a.max()))

    def full_gradient(self, x):
        return self._a_sum * x + self._b_sum

    def gradients_at(self, x):
        return self.a * x[None, :] + self.b

    def exact_minimizer(self):
        """Closed-form x* = -(sum A_i)^{-1} sum b_i (diagonal solve)."""
        return -self._b_sum / self._a_sum


class _PointMemo:
    """Pieces of one point that the logistic oracles share; see
    :meth:`LogisticObjective._point`."""

    __slots__ = ("nx", "c1", "c2", "i", "s", "z", "w")

    def __init__(self):
        self.c2 = self.i = None


class LogisticObjective(FiniteSumObjective):
    """Regularized logistic regression components.

    f_i(x) = y_i log(1 + e^{-<x, z_i>}) + (1 - y_i) log(1 + e^{<x, z_i>})
             + (lam / 2) ||x||^p

    Every component carries the full regularizer; averaging over components
    reproduces the total objective (1/N) sum loss_i + (lam/2) ||x||^p.

    Parameters
    ----------
    features : (n, d) scipy CSR matrix
        Sparse sample rows z_i.
    labels : (n,) array of {0, 1}
    lam : float
        Regularization weight, must be positive and finite.
    p : float
        Regularizer exponent, must be finite and exceed 2 (2.1 in the
        benchmark setup).
    radius : float
        Positive outer radius of the ball on which L is certified; ||x||^p
        has unbounded Hessian growth. mu and L_tilde are certified on the
        annulus ``inner_radius = 1e-3 * radius <= ||x|| <= radius``: the
        regularizer Hessian vanishes at the origin and its derivative blows
        up there, so neither constant exists on a full ball.
    """

    def __init__(self, features, labels, lam, p=2.1, radius=10.0):
        if not 2.0 < p < np.inf:
            raise DegenerateProblem(f"regularizer exponent p must be finite and exceed 2, got {p}")
        if not 0.0 < lam < np.inf:
            raise DegenerateProblem(f"lam must be positive and finite, got {lam}")
        if not radius > 0.0:
            raise DegenerateProblem(f"radius must be positive, got {radius}")
        self.features = scipy.sparse.csr_matrix(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.shape != (self.features.shape[0],):
            raise DegenerateProblem("labels must have one entry per feature row")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise DegenerateProblem("labels must be 0/1 encoded")
        self.lam = float(lam)
        self.p = float(p)
        self.radius = float(radius)
        self.inner_radius = 1e-3 * self.radius
        self.n, self.d = self.features.shape
        # Row i of this array is z_i, read by every per-component oracle.
        self.rows = self.features.toarray()
        self.rows.flags.writeable = False
        self._memo_key = self._memo = None  # see _point

    # -- one point's pieces -------------------------------------------------
    # A greedy step asks for the gradient, the Hessian diagonal and a Hessian
    # column of one component at one iterate, and the stopping rule then
    # asks for the full gradient there. The pieces those share are computed
    # once and kept for the last point asked about: ||x|| and the
    # regularizer coefficients, and the logistic pieces of the last
    # component asked about at that point. The key is the point's value
    # (x's dtype, shape and bytes), never its identity: a caller may write
    # into x between two calls.
    #
    # ||x|| is sqrt(x . x), numpy's own 2-norm formula minus its call
    # overhead. It stays a numpy scalar: a Python float raises OverflowError
    # in nx ** p on a huge iterate, where numpy returns inf.

    def _point(self, x):
        """The memo of point x. ``nx`` = ||x|| and ``c1`` = 0.5 lam p
        ||x||^(p-2) come at once; ``c2``, and the component pieces ``s`` =
        expit(<x, z_i>), ``z`` = row i of ``rows`` and ``w`` = s (1 - s) of
        component ``i``, are filled in on first use."""
        key = (x.dtype, x.shape, x.tobytes())
        if key != self._memo_key:
            memo = _PointMemo()
            memo.nx = nx = np.sqrt(x.dot(x))
            memo.c1 = 0.0 if nx < ORIGIN_GUARD else 0.5 * self.lam * self.p * nx ** (self.p - 2.0)
            self._memo_key, self._memo = key, memo
        return self._memo

    def _component(self, i, x):
        """The memo of x with the pieces of component i."""
        memo = self._point(x)
        if memo.i != i:
            memo.z = z = self.rows[i]
            memo.s, memo.i, memo.w = expit(z.dot(x)), i, None
        return memo

    def _hessian_pieces(self, i, x):
        """(z, w, c1, c2), with H_i = w z z^T + c1 I + c2 x x^T. w is
        computed on the first Hessian-type call at (i, x), c2 on the first
        at x, so that a gradient-only caller pays nothing for them."""
        memo = self._component(i, x)
        if memo.w is None:
            s = memo.s
            memo.w = s * (1.0 - s)
        return memo.z, memo.w, memo.c1, self._c2(memo)

    def _c2(self, memo):
        """c2 = 0.5 lam p (p-2) ||x||^(p-4) of the memo's point, filled in
        on first use; 0 below ORIGIN_GUARD, like c1."""
        if memo.c2 is None:
            nx = memo.nx
            memo.c2 = (0.0 if nx < ORIGIN_GUARD
                       else 0.5 * self.lam * self.p * (self.p - 2.0) * nx ** (self.p - 4.0))
        return memo.c2

    def _reg_value(self, x):
        return 0.5 * self.lam * self._point(x).nx ** self.p

    def _reg_gradient(self, x, memo=None):
        """c1 x, from x's memo (the one given, or looked up); c1 is 0 below
        ORIGIN_GUARD."""
        if memo is None:
            memo = self._point(x)
        return memo.c1 * x

    def _margins(self, x):
        """<x, z_i> for every i, one (n,) array, from the compiled kernel
        ``features @ x`` calls (see the module docstring), given x as ``@``
        gives it: the kernel itself converts an x that is not a contiguous
        float64 array, but reads d values of it whatever its length, so the
        length is checked first as ``@`` does."""
        if x.shape != (self.d,):
            raise ValueError(f"x must have shape ({self.d},), got {x.shape}")
        f = self.features
        t = np.zeros(self.n)
        _sparsetools.csr_matvec(self.n, self.d, f.indptr, f.indices, f.data, x, t)
        return t

    def _residual(self, x):
        """expit(<x, z_i>) - y_i for every i, one (n,) array."""
        r = self._margins(x)
        expit(r, out=r)
        r -= self.labels
        return r

    # -- component interface -------------------------------------------------

    def value(self, i, x):
        t = self.rows[i].dot(x)
        sign = 1.0 - 2.0 * self.labels[i]
        return float(np.logaddexp(0.0, sign * t) + self._reg_value(x))

    def gradient(self, i, x):
        memo = self._component(i, x)
        return (memo.s - self.labels[i]) * memo.z + self._reg_gradient(x, memo)

    def hessian(self, i, x):
        z, w, c1, c2 = self._hessian_pieces(i, x)
        h = w * np.outer(z, z) + c2 * np.outer(x, x)
        h[np.diag_indices(self.d)] += c1
        return h

    def hessian_diag(self, i, x):
        z, w, c1, c2 = self._hessian_pieces(i, x)
        return w * z * z + c1 + c2 * x * x

    def hessian_column(self, i, x, j):
        z, w, c1, c2 = self._hessian_pieces(i, x)
        col = w * z[j] * z + c2 * x[j] * x
        col[j] += c1
        return col

    def hessian_quad_form(self, i, x, s):
        z, w, c1, c2 = self._hessian_pieces(i, x)
        zs, xs = z.dot(s), x.dot(s)
        return float(w * zs * zs + c1 * s.dot(s) + c2 * xs * xs)

    def estimate_constants(self):
        row_norms_sq = np.asarray(self.features.multiply(self.features).sum(axis=1)).ravel()
        zmax_sq = float(row_norms_sq.max()) if self.n else 0.0
        c = 0.5 * self.lam * self.p
        r_out, r_in = self.radius, self.inner_radius
        big_l = zmax_sq / 4.0 + c * (self.p - 1.0) * r_out ** (self.p - 2.0)
        mu = c * r_in ** (self.p - 2.0)
        if not mu > 0.0:
            raise DegenerateProblem("regularizer yields non-positive mu")
        l_tilde = (zmax_sq ** 1.5 * _LOGIT_THIRD_DERIV_BOUND
                   + c * (self.p - 2.0) * (7.0 - self.p) * r_in ** (self.p - 3.0))
        return SmoothnessConstants.from_smoothness(mu=mu, L=big_l, L_tilde=l_tilde)

    def full_gradient(self, x):
        """Sum of all component gradients at x: Z^T (expit(Z x) - y) through
        the compiled CSR kernels, Z^T's product as ``csc_matvec`` on Z's own
        arrays (what ``Z.T @ r`` runs), plus n times the regularizer gradient
        from the point memo, which the step's ``gradient(i, x)`` at the same
        x has usually filled."""
        return self._total_gradient(x, self._residual(x))

    def _total_gradient(self, x, residual):
        """Z^T residual + n c1 x, the total gradient at x from its residuals
        expit(<x, z_i>) - y_i."""
        f = self.features
        g = np.zeros(self.d)
        _sparsetools.csc_matvec(self.d, self.n, f.indptr, f.indices, f.data, residual, g)
        reg = self._reg_gradient(x)  # a fresh array: summed into in place
        reg *= self.n
        g += reg
        return g

    def newton_system(self, x):
        """(F(x), g, H) for the total objective F = sum_i f_i, which
        full-batch Newton needs: the value, the gradient g, bit for bit
        :meth:`full_gradient`'s from the same margins, and the Hessian
        H = Z^T diag(w) Z + n (c1 I + c2 x x^T), w = s (1 - s),
        s = expit(Z x), as a fresh C-ordered (d, d) array. Z^T diag(w) Z is
        one compiled ``csc_matvecs`` call: Z's CSR arrays, read as the CSC
        arrays of Z^T, times ``w[:, None] * rows``. Entry (j, k) sums
        z_ij (w_i z_ik) and entry (k, j) z_ik (w_i z_ij), so H is symmetric
        only up to rounding; ``matkernel.cholesky_solve`` reads its lower
        triangle. c1 and c2 come from x's memo, so both vanish below
        ORIGIN_GUARD as in :meth:`hessian`; Z^T diag(w) Z is then all there
        is, and singular when Z has rank below d."""
        t = self._margins(x)
        sign = 1.0 - 2.0 * self.labels
        value = float(np.logaddexp(0.0, sign * t).sum() + self.n * self._reg_value(x))
        s = expit(t)
        g = self._total_gradient(x, s - self.labels)
        f = self.features
        h = np.zeros((self.d, self.d))
        _sparsetools.csc_matvecs(self.d, self.n, self.d, f.indptr, f.indices, f.data,
                                 (s * (1.0 - s))[:, None] * self.rows, h)
        memo = self._point(x)
        h += (self.n * self._c2(memo)) * np.outer(x, x)
        h[np.diag_indices(self.d)] += self.n * memo.c1
        return value, g, h

    def gradients_at(self, x):
        grads = self.rows * self._residual(x)[:, None]
        grads += self._reg_gradient(x)
        return grads
