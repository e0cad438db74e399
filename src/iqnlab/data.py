"""Problem sources: LIBSVM text parsing and the synthetic quadratic generator.

Randomness uses numpy's default PCG64 generator
(``np.random.default_rng(seed)``) so traces reproduce across platforms.
"""

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import EmptyDataset, InvalidSpec, MalformedLine
from .objectives import QuadraticComponents

# Accepted label tokens and their {0, 1} mapping. This single rule is
# consistent with the three common schemes {+1,-1}, {1,0} and {1,2}:
# 1 is always the positive class.
LABEL_MAP = {-1.0: 0, 0.0: 0, 1.0: 1, 2.0: 0}


@dataclass
class SparseRow:
    """One sample: strictly increasing 1-based indices, values, 0/1 label."""

    indices: np.ndarray
    values: np.ndarray
    label: int


def parse_libsvm(source):
    """Parse LIBSVM-format text: ``label (index:value)*`` per line.

    Parameters
    ----------
    source : file-like, str, or bytes
        Lines of ``label idx:val idx:val ...`` with 1-based strictly
        increasing indices. Blank lines and lines starting with '#' are
        skipped. Labels -1/0 map to 0, +1 to 1, 2 to 0.

    Returns
    -------
    (rows, dim) : list of SparseRow and the inferred dimension (max index).

    Raises
    ------
    MalformedLine
        On non-numeric tokens, bad label values, or non-increasing indices;
        carries the 1-based line number.
    EmptyDataset
        If no sample rows remain after skipping blanks and comments.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)

    rows = []
    dim = 0
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label_value = float(tokens[0])
        except ValueError:
            raise MalformedLine(line_no, f"label token {tokens[0]!r} is not numeric")
        if label_value not in LABEL_MAP:
            raise MalformedLine(line_no, f"unsupported label value {tokens[0]!r}")
        indices = []
        values = []
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise MalformedLine(line_no, f"feature token {tok!r} lacks ':'")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise MalformedLine(line_no, f"feature token {tok!r} is not numeric")
            if idx < 1:
                raise MalformedLine(line_no, f"index {idx} is not positive")
            if indices and idx <= indices[-1]:
                raise MalformedLine(
                    line_no, f"index {idx} not strictly increasing after {indices[-1]}")
            if not math.isfinite(val):
                raise MalformedLine(line_no, f"non-finite value in token {tok!r}")
            indices.append(idx)
            values.append(val)
        if indices:
            dim = max(dim, indices[-1])
        rows.append(SparseRow(indices=np.asarray(indices, dtype=np.int64),
                              values=np.asarray(values, dtype=np.float64),
                              label=LABEL_MAP[label_value]))
    if not rows:
        raise EmptyDataset("no sample rows found")
    return rows, dim


def serialize_libsvm(rows):
    """Render rows back to LIBSVM text. Inverse of :func:`parse_libsvm`
    under the {1, 0} label convention (labels emit as '1'/'0')."""
    lines = []
    for row in rows:
        parts = [str(int(row.label))]
        parts.extend(f"{int(i)}:{v:.17g}" for i, v in zip(row.indices, row.values))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_libsvm(path):
    """Parse a LIBSVM file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)


def rows_to_csr(rows, dim=None):
    """Stack SparseRows into a CSR matrix plus a 0/1 label vector."""
    if dim is None:
        dim = max((int(r.indices[-1]) for r in rows if len(r.indices)), default=0)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r.indices) for r in rows], out=indptr[1:])
    indices = np.concatenate([r.indices for r in rows]) if indptr[-1] else np.zeros(0, dtype=np.int64)
    indices -= 1
    data = np.concatenate([r.values for r in rows]) if indptr[-1] else np.zeros(0)
    labels = np.fromiter((r.label for r in rows), dtype=np.float64, count=len(rows))
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(rows), dim))
    return matrix, labels


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic quadratic family: n diagonal components in even dimension d.

    First-half diagonal entries are Unif[1, 10^(xi/2)], second-half entries
    Unif[10^(-xi/2), 1], so xi controls the condition number (10^xi in the
    large-d limit). Linear coefficients are Unif[0, b_max].
    """

    n: int
    d: int
    xi: float
    b_max: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 2 or self.d % 2 != 0:
            raise InvalidSpec(f"dimension must be even and >= 2, got {self.d}")
        if self.n < 1:
            raise InvalidSpec(f"need at least one component, got n={self.n}")
        if not 0.0 <= self.xi < math.inf:
            raise InvalidSpec(f"xi must be finite and non-negative, got {self.xi}")
        try:
            10.0 ** (self.xi / 2.0)  # the generator's upper diagonal bound
        except OverflowError:
            raise InvalidSpec(f"xi = {self.xi} overflows the diagonal bound 10^(xi/2)") from None
        if not 0.0 <= self.b_max < math.inf:
            raise InvalidSpec(f"b_max must be finite and non-negative, got {self.b_max}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


def generate_quadratic(spec: GeneratorSpec) -> QuadraticComponents:
    """Draw the diagonal quadratic components for a GeneratorSpec.

    Deterministic for a fixed spec: the same seed yields bit-identical
    arrays.
    """
    rng = np.random.default_rng(spec.seed)
    half = spec.d // 2
    hi = 10.0 ** (spec.xi / 2.0)
    lo = 10.0 ** (-spec.xi / 2.0)
    upper = rng.uniform(1.0, hi, size=(spec.n, half))
    lower = rng.uniform(lo, 1.0, size=(spec.n, spec.d - half))
    a_diag = np.concatenate([upper, lower], axis=1)
    b = rng.uniform(0.0, spec.b_max, size=(spec.n, spec.d))
    return QuadraticComponents(a_diag=a_diag, b=b)


def initial_point(d, alpha_scale, seed):
    """Seeded start x0 = alpha_scale * v with v ~ Unif[0, 1]^d."""
    rng = np.random.default_rng(seed)
    return alpha_scale * rng.uniform(0.0, 1.0, size=d)
