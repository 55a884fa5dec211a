"""Matrix Market reader/writer.

Supports the coordinate (sparse) and array (dense) flavors with real or
integer fields and general or symmetric symmetry.  The parser reports the
offending line number on malformed input; the writer emits 17 significant
digits so round-trips are bit-exact for doubles.
"""

import numpy as np
import scipy.sparse

from .linalg import DenseMatrix, SparseMatrix, as_sparse, is_sparse


class MatrixMarketError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path = path
        self.lineno = lineno


_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")


def _walk(path, lines, ln, count, what, parse):
    """Parse the `count` lines after line `ln` one at a time, raising at the
    first bad one.  Runs only when the vectorised parse has failed."""
    out = []
    for off in range(count):
        if ln + off >= len(lines):
            raise MatrixMarketError(path, len(lines) + 1,
                                    "expected %d %s, file ended" % (count, what))
        try:
            out.append(parse(lines[ln + off]))
        except ValueError as exc:
            raise MatrixMarketError(path, ln + off + 1, str(exc)) from None
    return out


def _parse_value(line):
    try:
        return float(line)
    except ValueError:
        raise ValueError("unparseable value %r" % line.strip()) from None


def _parse_entry(m, n):
    def parse(line):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("entry needs 'row col value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError("unparseable entry %r" % line.strip()) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ValueError("index (%d, %d) out of range" % (i, j))
        return i, j, v
    return parse


def _values(body, count):
    """The array lines as doubles, parsed as float() parses them; ValueError
    when any line is missing or unparseable."""
    if len(body) < count:
        raise ValueError("file ended")
    return np.array(body, dtype=np.float64)


def _entries(body, nnz, m, n):
    """1-based (rows, cols, values) of the coordinate lines, parsed as int()
    and float() parse them; ValueError or OverflowError when any line is
    missing, malformed, unparseable or out of range."""
    if len(body) < nnz or not set(map(len, map(str.split, body))) <= {3}:
        raise ValueError("malformed entries")
    tokens = "".join(body).split()
    i = np.array(tokens[0::3], dtype=np.int64)
    j = np.array(tokens[1::3], dtype=np.int64)
    if np.any((i < 1) | (i > m) | (j < 1) | (j > n)):
        raise ValueError("index out of range")
    return i, j, np.array(tokens[2::3], dtype=np.float64)


def _check_size(path, ln, sym, dims):
    if min(dims) < 0:
        raise MatrixMarketError(path, ln, "negative size in size line")
    if sym == "symmetric" and dims[0] != dims[1]:
        raise MatrixMarketError(path, ln, "symmetric matrix must be square")


def read_matrix(path):
    """Parse a Matrix Market file; coordinate files come back sparse."""
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    banner = lines[0].split()
    if (len(banner) != 5 or banner[0] != "%%MatrixMarket"
            or banner[1].lower() != "matrix"):
        raise MatrixMarketError(path, 1, "malformed banner %r" % lines[0].strip())
    fmt, field, sym = (w.lower() for w in banner[2:5])
    if fmt not in _FORMATS:
        raise MatrixMarketError(path, 1, "unsupported format %r" % fmt)
    if field not in _FIELDS:
        raise MatrixMarketError(path, 1, "unsupported field %r" % field)
    if sym not in _SYMMETRIES:
        raise MatrixMarketError(path, 1, "unsupported symmetry %r" % sym)

    # skip comments
    ln = 1
    while ln < len(lines) and lines[ln].lstrip().startswith("%"):
        ln += 1
    if ln >= len(lines):
        raise MatrixMarketError(path, ln + 1, "missing size line")
    size = lines[ln].split()
    ln += 1

    if fmt == "coordinate":
        if len(size) != 3:
            raise MatrixMarketError(path, ln, "coordinate size line needs 3 fields")
        try:
            m, n, nnz = (int(w) for w in size)
        except ValueError:
            raise MatrixMarketError(path, ln, "non-integer size line")
        _check_size(path, ln, sym, (m, n, nnz))
        try:
            i, j, v = _entries(lines[ln:ln + nnz], nnz, m, n)
        except (ValueError, OverflowError):
            entries = _walk(path, lines, ln, nnz, "entries", _parse_entry(m, n))
            i, j, v = (np.array(col) for col in zip(*entries))
        if sym == "symmetric":
            # each off-diagonal entry is followed by its mirror image
            keep = np.ones(2 * v.size, dtype=bool)
            keep[1::2] = i != j
            i, j = (np.column_stack((i, j)).ravel()[keep],
                    np.column_stack((j, i)).ravel()[keep])
            v = np.repeat(v, 2)[keep]
        mat = scipy.sparse.coo_matrix((v, (i - 1, j - 1)), shape=(m, n))
        return SparseMatrix(mat.tocsr())

    if len(size) != 2:
        raise MatrixMarketError(path, ln, "array size line needs 2 fields")
    try:
        m, n = (int(w) for w in size)
    except ValueError:
        raise MatrixMarketError(path, ln, "non-integer size line")
    _check_size(path, ln, sym, (m, n))
    count = m * n if sym == "general" else m * (m + 1) // 2
    try:
        vals = _values(lines[ln:ln + count], count)
    except ValueError:
        vals = np.array(_walk(path, lines, ln, count, "values", _parse_value))
    if sym == "general":
        # column-major per the format spec
        return DenseMatrix(vals.reshape((n, m)).T)
    # the lower triangle column by column: (i, j) for i >= j, j = 0, 1, ...
    j, i = np.triu_indices(m)
    a = np.zeros((m, m))
    a[i, j] = vals
    a[j, i] = vals
    return DenseMatrix(a)


_CHUNK = 1 << 16  # values formatted per write: bounds the text held in memory


def write_matrix(path, mat):
    """Write dense matrices in array flavor, sparse in coordinate flavor."""
    if is_sparse(mat):
        coo = as_sparse(mat).tocoo()
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write("%d %d %d\n" % (coo.shape[0], coo.shape[1], coo.nnz))
            for s in range(0, coo.nnz, _CHUNK):
                t = min(s + _CHUNK, coo.nnz)
                flat = [None] * (3 * (t - s))
                flat[0::3] = (coo.row[s:t] + 1).tolist()
                flat[1::3] = (coo.col[s:t] + 1).tolist()
                flat[2::3] = coo.data[s:t].tolist()
                fh.write(("%d %d %.17g\n" * (t - s)) % tuple(flat))
        return
    a = np.asarray(mat, dtype=np.float64)
    m, n = a.shape
    step = max(1, _CHUNK // max(m, 1))  # whole columns per chunk
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write("%d %d\n" % a.shape)
        for j in range(0, n, step):
            chunk = a[:, j:j + step].T.ravel().tolist()
            fh.write(("%.17g\n" * len(chunk)) % tuple(chunk))
