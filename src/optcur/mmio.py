"""Matrix Market reader/writer.

Supports the coordinate (sparse) and array (dense) flavors with real or
integer fields and general or symmetric symmetry.  The parser reports the
offending line number on malformed input; the writer emits 17 significant
digits so round-trips are bit-exact for doubles.
"""

import itertools

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


_CHUNK = 1 << 16  # lines parsed or values formatted at a time


def _values(lines):
    """The array lines as doubles, parsed as float() parses them; ValueError
    when any line is unparseable."""
    return (np.array(lines, dtype=np.float64),)


def _entries(m, n):
    def parse(lines):
        """1-based (rows, cols, values) of the coordinate lines, parsed as
        int() and float() parse them; ValueError or OverflowError when any
        line is malformed, unparseable or out of range."""
        if not set(map(len, map(str.split, lines))) <= {3}:
            raise ValueError("entry needs 'row col value'")
        tokens = "".join(lines).split()
        i = np.array(tokens[0::3], dtype=np.int64)
        j = np.array(tokens[1::3], dtype=np.int64)
        if np.any((i < 1) | (i > m) | (j < 1) | (j > n)):
            raise ValueError("index out of range")
        return i, j, np.array(tokens[2::3], dtype=np.float64)
    return parse


def _first_bad_line(path, ln, lines, want, what, parse):
    """The error for a chunk that `parse` rejected, its first line being
    line ln + 1 of the file: at the first line that `parse` rejects on its
    own, or past the last when there are fewer than `want`."""
    for off, line in enumerate(lines):
        try:
            parse([line])
        except (ValueError, OverflowError) as exc:
            return MatrixMarketError(path, ln + off + 1,
                                     "%r: %s" % (line.strip(), exc))
    return MatrixMarketError(path, ln + len(lines) + 1,
                             "expected %s, file ended" % what)


def _read_body(fh, path, ln, count, what, parse, dtypes):
    """The `count` body lines of fh after line ln, as one preallocated array
    per dtype, parsed _CHUNK lines at a time, so a read holds the matrix and
    one chunk of text."""
    out = [np.empty(count, dtype=t) for t in dtypes]
    for s in range(0, count, _CHUNK):
        want = min(_CHUNK, count - s)
        lines = list(itertools.islice(fh, want))
        try:
            if len(lines) < want:
                raise ValueError("file ended")
            cols = parse(lines)
        except (ValueError, OverflowError):
            raise _first_bad_line(path, ln + s, lines, want,
                                  "%d %s" % (count, what), parse) from None
        del lines  # before the next chunk is read
        for o, c in zip(out, cols):
            o[s:s + want] = c
    return out


def read_matrix(path):
    """Parse a Matrix Market file; coordinate files come back sparse."""
    with open(path, "r") as fh:
        return _read(fh, path)


def _read(fh, path):
    first = fh.readline()
    if not first:
        raise MatrixMarketError(path, 1, "empty file")
    banner = first.split()
    if (len(banner) != 5 or banner[0] != "%%MatrixMarket"
            or banner[1].lower() != "matrix"):
        raise MatrixMarketError(path, 1, "malformed banner %r" % first.strip())
    fmt, field, sym = (w.lower() for w in banner[2:5])
    if fmt not in _FORMATS:
        raise MatrixMarketError(path, 1, "unsupported format %r" % fmt)
    if field not in _FIELDS:
        raise MatrixMarketError(path, 1, "unsupported field %r" % field)
    if sym not in _SYMMETRIES:
        raise MatrixMarketError(path, 1, "unsupported symmetry %r" % sym)

    # skip comments; ln counts the lines read before `line`
    ln = 1
    line = fh.readline()
    while line.lstrip().startswith("%"):
        ln += 1
        line = fh.readline()
    if not line:
        raise MatrixMarketError(path, ln + 1, "missing size line")
    size = line.split()
    ln += 1
    fields = 3 if fmt == "coordinate" else 2
    if len(size) != fields:
        raise MatrixMarketError(path, ln, "%s size line needs %d fields"
                                % (fmt, fields))
    try:
        dims = tuple(int(w) for w in size)
    except ValueError:
        raise MatrixMarketError(path, ln, "non-integer size line")
    if min(dims) < 0:
        raise MatrixMarketError(path, ln, "negative size in size line")
    if sym == "symmetric" and dims[0] != dims[1]:
        raise MatrixMarketError(path, ln, "symmetric matrix must be square")

    if fmt == "coordinate":
        m, n, nnz = dims
        i, j, v = _read_body(fh, path, ln, nnz, "entries", _entries(m, n),
                             (np.int64, np.int64, np.float64))
        if sym == "symmetric":
            # each off-diagonal entry is followed by its mirror image
            keep = np.ones(2 * v.size, dtype=bool)
            keep[1::2] = i != j
            i, j = (np.column_stack((i, j)).ravel()[keep],
                    np.column_stack((j, i)).ravel()[keep])
            v = np.repeat(v, 2)[keep]
        mat = scipy.sparse.coo_matrix((v, (i - 1, j - 1)), shape=(m, n))
        return SparseMatrix(mat.tocsr())

    m, n = dims
    count = m * n if sym == "general" else m * (m + 1) // 2
    vals, = _read_body(fh, path, ln, count, "values", _values, (np.float64,))
    if sym == "general":
        # column-major per the format spec
        return DenseMatrix(vals.reshape((n, m)).T)
    # the lower triangle column by column: (i, j) for i >= j, j = 0, 1, ...
    j, i = np.triu_indices(m)
    a = np.zeros((m, m))
    a[i, j] = vals
    a[j, i] = vals
    return DenseMatrix(a)


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
