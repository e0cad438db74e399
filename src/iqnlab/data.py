"""Problem sources: LIBSVM text parsing and the synthetic quadratic generator.

LIBSVM text is parsed in bulk: :func:`parse_libsvm` converts every feature
index and every value with one ``np.array(strings, dtype)`` call each,
which applies ``int`` and ``float`` to each string in numpy's own loop,
into flat int64 and float64 arrays. It checks each token's single ':',
positivity, strict increase and finiteness with numpy, and hands out each
row as slices of the flat arrays. Text those checks do not fully accept
goes to :func:`_parse_lines`, the per-line parser. It is the reference the
bulk pass is tested against, and the only code that names a fault, so a
malformed line's error and line number do not depend on which pass met
it. A per-token Python loop cost more than the ``int`` and ``float``
conversions themselves; in bulk those conversions are most of the parse
(timings in ``BENCH_parse.json``).

Every source follows the newline rule of a file opened in text mode:
``"\\n"``, ``"\\r\\n"`` and ``"\\r"`` each end a line.

Randomness uses numpy's default PCG64 generator
(``np.random.default_rng(seed)``) so traces reproduce across platforms.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse

from .errors import EmptyDataset, InvalidSpec, MalformedLine
from .objectives import QuadraticComponents

# Accepted label tokens and their {0, 1} mapping. This single rule is
# consistent with the three common schemes {+1,-1}, {1,0} and {1,2}:
# 1 is always the positive class.
LABEL_MAP = {-1.0: 0, 0.0: 0, 1.0: 1, 2.0: 0}
# Indices are stored as int64; a larger one is a malformed token.
INDEX_MAX = int(np.iinfo(np.int64).max)
_COLON, _SPACE = ord(":"), ord(" ")


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
        skipped. Labels -1/0 map to 0, +1 to 1, 2 to 0. Bytes are UTF-8;
        ``"\\n"``, ``"\\r\\n"`` and ``"\\r"`` each end a line, whatever the
        source.

    Returns
    -------
    (rows, dim) : list of SparseRow and the inferred dimension (max index).
        A row's arrays are slices of two flat arrays shared by all rows.

    Raises
    ------
    MalformedLine
        On non-numeric tokens, bad label values, indices that are not
        positive, past int64 or not increasing, and non-finite values;
        carries the 1-based line number.
    EmptyDataset
        If no sample rows remain after skipping blanks and comments.
    """
    lines = _lines(source)
    parsed = _parse_bulk(lines)
    return parsed if parsed is not None else _parse_lines(lines)


def _lines(source):
    """The source's text split into lines by the rule a file opened in text
    mode follows: ``"\\n"``, ``"\\r\\n"`` and ``"\\r"`` each end one."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.split("\n")


def _parse_bulk(lines):
    """(rows, dim) of lines :func:`_parse_lines` accepts, converted in bulk;
    None for any other lines, which that function then parses or rejects."""
    # split() drops the whitespace strip() would, so a line is blank or a
    # comment exactly when it has no tokens or its first starts with '#'.
    kept = [tokens for tokens in map(str.split, lines)
            if tokens and not tokens[0].startswith("#")]
    if not kept:
        return None
    features = list(chain.from_iterable(tokens[1:] for tokens in kept))
    counts = np.fromiter(map(len, kept), np.int64, count=len(kept)) - 1
    ends = np.cumsum(counts)
    starts = ends - counts
    k = len(features)
    try:
        labels = [LABEL_MAP[float(tokens[0])] for tokens in kept]
        if k:
            text = " ".join(features)  # tokens hold no whitespace
            code = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
            # Exactly one ':' in every token: the separators read ': : ... :'.
            # A count of colons alone would take "1:2:3 4" as two pairs.
            seps = code[(code == _COLON) | (code == _SPACE)]
            if len(seps) != 2 * k - 1 or (seps[::2] != _COLON).any():
                return None
            pairs = text.replace(":", " ").split(" ")
            # numpy calls int() and float() on each string, in its own loop.
            indices = np.array(pairs[::2], dtype=np.int64)
            values = np.array(pairs[1::2], dtype=np.float64)
        else:
            indices, values = np.zeros(0, np.int64), np.zeros(0)
    except (KeyError, ValueError, OverflowError):  # a bad label, number or index
        return None
    # Each index must exceed the one before it in its row, a row's first 0.
    previous = np.empty_like(indices)
    previous[1:] = indices[:-1]
    previous[starts[starts < ends]] = 0
    if not ((indices > previous).all() and np.isfinite(values).all()):
        return None
    rows = [SparseRow(indices[a:b], values[a:b], label)
            for a, b, label in zip(starts.tolist(), ends.tolist(), labels)]
    return rows, int(indices.max()) if k else 0


def _parse_lines(lines):
    """The per-line parser: the reference :func:`_parse_bulk` is tested
    against, and the only code that names a malformed line."""
    rows = []
    dim = 0
    for line_no, raw in enumerate(lines, start=1):
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
            if idx > INDEX_MAX:
                raise MalformedLine(line_no, f"index in token {tok!r} is past int64's "
                                             f"largest value {INDEX_MAX}")
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
    """Parse a LIBSVM file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)


def rows_to_csr(rows, dim):
    """Stack SparseRows into an (N, dim) CSR matrix plus a 0/1 label vector."""
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
