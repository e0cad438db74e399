"""Finite-sum objectives: component value/gradient/Hessian access.

Two concrete families are provided. The synthetic quadratic family has
diagonal component matrices, so Hessian slices are trivial. The regularized
logistic family combines a per-sample logistic loss with a full copy of the
``(lam/2) * ||x||^p`` regularizer on every component, so that the average
over components reproduces the total objective while keeping each component
strictly convex away from the origin.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
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
    :class:`LogisticObjective`'s pieces of the last point) never changes a
    bit of what it returns.
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

    def estimate_constants(self):
        return SmoothnessConstants(mu=float(self.a.min()), L=float(self.a.max()))

    def full_gradient(self, x):
        return self._a_sum * x + self._b_sum

    def gradients_at(self, x):
        return self.a * x[None, :] + self.b

    def exact_minimizer(self):
        """Closed-form x* = -(sum A_i)^{-1} sum b_i (diagonal solve)."""
        return -self._b_sum / self._a_sum


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
        Regularization weight, must be positive.
    p : float
        Regularizer exponent, must exceed 2 (2.1 in the benchmark setup).
    radius : float
        Positive outer radius of the ball on which L is certified; ||x||^p
        has unbounded Hessian growth. mu and L_tilde are certified on the
        annulus ``inner_radius = 1e-3 * radius <= ||x|| <= radius``: the
        regularizer Hessian vanishes at the origin and its derivative blows
        up there, so neither constant exists on a full ball.
    """

    def __init__(self, features, labels, lam, p=2.1, radius=10.0):
        if not p > 2.0:
            raise DegenerateProblem(f"regularizer exponent p must exceed 2, got {p}")
        if not lam > 0.0:
            raise DegenerateProblem(f"lam must be positive, got {lam}")
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
        # Built once: full_gradient runs every iteration for the stopping
        # rule. The CSC transpose shares the CSR arrays, so nothing is copied.
        self._features_t = self.features.T
        self._memo_key = self._memo = None  # see _point

    # -- sparse row access -------------------------------------------------

    def _row(self, i):
        """Dense copy of sample row i."""
        start, end = self.features.indptr[i], self.features.indptr[i + 1]
        z = np.zeros(self.d)
        z[self.features.indices[start:end]] = self.features.data[start:end]
        return z

    def _margin(self, i, x):
        start, end = self.features.indptr[i], self.features.indptr[i + 1]
        return float(x[self.features.indices[start:end]] @ self.features.data[start:end])

    # -- regularizer pieces ------------------------------------------------
    # ||x|| is sqrt(x . x), numpy's own 2-norm formula minus its call
    # overhead. It stays a numpy scalar: a Python float raises OverflowError
    # in nx ** p on a huge iterate, where numpy returns inf.

    def _reg_value(self, x):
        nx = np.sqrt(x.dot(x))
        return 0.5 * self.lam * nx ** self.p

    def _reg_gradient(self, x):
        nx = np.sqrt(x.dot(x))
        if nx < ORIGIN_GUARD:
            return np.zeros(self.d)
        return 0.5 * self.lam * self.p * nx ** (self.p - 2.0) * x

    def _reg_hessian_coeffs(self, x):
        """(c1, c2) with H_reg = c1 I + c2 x x^T."""
        nx = np.sqrt(x.dot(x))
        if nx < ORIGIN_GUARD:
            return 0.0, 0.0
        c = 0.5 * self.lam * self.p
        return c * nx ** (self.p - 2.0), c * (self.p - 2.0) * nx ** (self.p - 4.0)

    # -- shared pieces of one point -----------------------------------------
    # A greedy step asks for the gradient, the Hessian diagonal and a Hessian
    # column of one component at one iterate. The pieces those share are
    # computed once and kept for the last point asked about. The key is the
    # point's value (i and x's dtype, shape and bytes), never its identity:
    # a caller may write into x between two calls.

    def _point(self, i, x):
        """[s, z, hess] at (i, x): s = expit(<x, z_i>), z the dense row i,
        and hess = (s (1 - s), c1, c2) once :meth:`_hessian_pieces` asks."""
        key = (i, x.dtype, x.shape, x.tobytes())
        if key != self._memo_key:
            self._memo_key = key
            self._memo = [expit(self._margin(i, x)), self._row(i), None]
        return self._memo

    def _hessian_pieces(self, i, x):
        """(z, w, c1, c2): the loss weight w = s (1 - s) and the regularizer
        coefficients, computed on the first Hessian-type call at (i, x), so
        that a gradient-only caller pays nothing for them."""
        memo = self._point(i, x)
        if memo[2] is None:
            s = memo[0]
            memo[2] = (s * (1.0 - s),) + self._reg_hessian_coeffs(x)
        return (memo[1],) + memo[2]

    # -- component interface -------------------------------------------------

    def value(self, i, x):
        t = self._margin(i, x)
        sign = 1.0 - 2.0 * self.labels[i]
        return float(np.logaddexp(0.0, sign * t) + self._reg_value(x))

    def gradient(self, i, x):
        s, z, _ = self._point(i, x)
        return (s - self.labels[i]) * z + self._reg_gradient(x)

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
        margins = self.features @ x
        residual = expit(margins) - self.labels
        return self._features_t @ residual + self.n * self._reg_gradient(x)

    def gradients_at(self, x):
        margins = self.features @ x
        residual = expit(margins) - self.labels
        dense = self.features.multiply(residual[:, None]).toarray()
        return dense + self._reg_gradient(x)[None, :]
