"""Sparse CSR containers, Matrix Market I/O, graph utilities, and model problems.

Square matrices only; every operator in this library acts on vectors of the
same length it produces. Dense matrices and vectors are plain numpy arrays.
"""

from __future__ import annotations

import re
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import MatrixMarketError


@dataclass(frozen=True)
class SparseMatrix:
    """Square sparse matrix in CSR form over float64 or complex128 scalars.

    ``symmetry_flag`` declares that the matrix equals its conjugate
    transpose entry by entry in stored form. Instances are immutable and
    safe to share across threads. A float64 matrix whose rows all hold 1
    to _PADDED_MAX_ROW entries also keeps a padded copy for ``spmv``
    (``_padded_layout``). Both layouts are built here, from one count of
    the entries of each row, rather than on the first product.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    symmetry_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "row_ptr", np.asarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=np.int64))
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values.astype(np.result_type(values, np.float64), copy=False))
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        if self.row_ptr.shape != (self.n + 1,):
            raise ValueError("row_ptr must have length n+1")
        counts = np.diff(self.row_ptr)
        if self.row_ptr[0] != 0 or np.any(counts < 0):
            raise ValueError("row_ptr must start at 0 and be nondecreasing")
        if self.row_ptr[-1] != len(self.col_idx) or len(self.col_idx) != len(self.values):
            raise ValueError("row_ptr, col_idx and values are inconsistent")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        # the CSR sums' layout: (mask of the nonempty rows, or None when every
        # row is; storage offset of each nonempty row's first entry)
        nonempty = counts > 0
        object.__setattr__(self, "_nonempty_rows", (None if nonempty.all() else nonempty,
                                                    self.row_ptr[:-1][nonempty]))
        object.__setattr__(self, "_padded", _padded_layout(self, counts))

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @staticmethod
    def from_coo(n, rows, cols, vals, symmetry_flag=False) -> "SparseMatrix":
        """Builds CSR from triplets, sorting by row/column and summing duplicates."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        vals = vals.astype(np.result_type(vals, np.float64), copy=False)  # before duplicates are summed
        if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            keep = np.concatenate(([True], (np.diff(rows) != 0) | (np.diff(cols) != 0)))
            starts = np.flatnonzero(keep)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return SparseMatrix(n, row_ptr, cols, vals, symmetry_flag)

    @staticmethod
    def from_dense(dense, symmetry_flag=False) -> "SparseMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("square matrix required")
        rows, cols = np.nonzero(np.abs(dense) > 0.0)
        return SparseMatrix.from_coo(dense.shape[0], rows, cols, dense[rows, cols], symmetry_flag)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.values.dtype)
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        out[rows, self.col_idx] = self.values
        return out

    def conjugate_transpose(self) -> "SparseMatrix":
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        return SparseMatrix.from_coo(self.n, self.col_idx, rows, np.conj(self.values), self.symmetry_flag)

    def matvec(self, x) -> np.ndarray:
        return spmv(self, x)

    def entry(self, i, j):
        """Stored value at (i, j); zero if not stored."""
        _check_range("index", (i, j), self.n)
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        pos = np.searchsorted(self.col_idx[lo:hi], j)
        if pos < hi - lo and self.col_idx[lo + pos] == j:
            return self.values[lo + pos]
        return self.values.dtype.type(0)


def _check_range(what, indices, n) -> None:
    for k in indices:
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"{what} {k!r} is not an integer")
        if not 0 <= k < n:
            raise ValueError(f"{what} {k} outside 0..{n - 1} (n = {n})")


# Rows of at most this many entries are summed from the padded layout:
# np.add.reduceat sums a segment that short as p0 + ((p1 + p2) + ...), and
# longer ones pairwise, in an order the layout does not repeat.
_PADDED_MAX_ROW = 8


def _padded_layout(a: SparseMatrix, counts):
    """Position-major padded copy of a float64 matrix whose rows all hold 1
    to _PADDED_MAX_ROW entries (``counts``), or None: w x n column indices
    and values for the widest row's w entries, entry k of row r at [k, r].
    Padding has the value 0 and reads column n, where ``spmv`` puts -0.0,
    so it adds -0.0, which leaves every sum as it is, signed zeros included."""
    if a.values.dtype != np.float64 or not a.n or counts.min() < 1:
        return None
    width = int(counts.max())
    if width > _PADDED_MAX_ROW:
        return None
    rows = np.repeat(np.arange(a.n), counts)
    slot = np.arange(a.nnz) - a.row_ptr[rows]
    cols = np.full((width, a.n), a.n, dtype=np.int64)
    vals = np.zeros((width, a.n))
    cols[slot, rows] = a.col_idx
    vals[slot, rows] = a.values
    return cols, vals


def spmv(a: SparseMatrix, x) -> np.ndarray:
    """Matrix-vector product A @ x, summed row by row in storage order.

    A float64 product on a matrix with the padded layout sums each row in
    the order ``np.add.reduceat`` does, from w gathered rows of products;
    others sum the CSR products with ``np.add.reduceat``. Both give the
    same bits."""
    x = np.asarray(x)
    if x.shape != (a.n,):
        raise ValueError(f"dimension mismatch: matrix is {a.n}x{a.n}, vector has length {x.shape}")
    if a._padded is not None and np.result_type(a.values, x) == np.float64:
        cols, vals = a._padded
        xe = np.empty(a.n + 1)
        xe[:-1], xe[-1] = x, -0.0
        prod = xe[cols]
        np.multiply(vals, prod, out=prod)
        for k in range(2, len(prod)):
            prod[1] += prod[k]
        return prod[0] + prod[1] if len(prod) > 1 else prod[0]
    prod = a.values * x[a.col_idx]
    nonempty, starts = a._nonempty_rows
    if nonempty is None and prod.size:
        return np.add.reduceat(prod, starts)
    y = np.zeros(a.n, dtype=np.result_type(a.values, x))
    if prod.size:
        y[nonempty] = np.add.reduceat(prod, starts)
    return y


# -----------------------------------------------------------------------------
# Matrix Market input

_MM_FIELDS = {"real", "integer", "complex", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric", "hermitian"}


def loadtxt_quiet(source, ndmin=1, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, ndmin=ndmin, **kwargs)`` without numpy's warning
    on input that holds no data: an empty body or file is reported by the
    caller's own size checks."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, ndmin=ndmin, **kwargs)


@contextmanager
def open_ascii(path, error=ValueError, newline=None):
    """``open(path, "r", encoding="ascii", newline=newline)``, where a byte
    that is not ASCII, met while the block reads the file, raises ``error``
    naming the file and the 1-based line of its first such byte. The bytes
    are searched only once decoding has failed."""
    try:
        with open(path, "r", encoding="ascii", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        pos = re.search(rb"[\x80-\xff]", data).start()
        line = data.count(b"\n", 0, pos) + 1
        raise error(f"{path}, line {line}: byte 0x{data[pos]:02x} is not ASCII") from None


def _content_line(path, index, comments) -> int | None:
    """The 1-based line of ``path`` that is its line ``index`` (from 0)
    among the lines with content once ``comments`` (a string, or None for
    no comments) cuts them; None past the last."""
    with open(path, "r", encoding="ascii") as fh:
        lines = (k for k, ln in enumerate(fh, 1)
                 if (ln.partition(comments)[0] if comments else ln).strip())
        return next(islice(lines, index, None), None)


def _at_file_line(path, cause, comments="%", first=1) -> str:
    """numpy's ``loadtxt`` message ``cause``, less its advice on its API,
    with its "at row R" turned into the 1-based line of ``path`` that holds
    the entry. numpy counts entries, the lines with content once comments
    are cut, from 0 in conversion errors and from 1 in the others; in the
    file, the first entry is line ``first`` (from 0) with content, after a
    Matrix Market size line by default."""
    cause = cause.partition("; use `usecols`")[0]
    found = re.search(r"at row (\d+)", cause)
    if found is None:
        return cause
    entry = int(found[1]) + cause.startswith("could not convert") - 1 + first
    line = _content_line(path, entry, comments)
    return cause if line is None else cause.replace(found[0], f"at line {line}", 1)


def load_vector(path) -> np.ndarray:
    """Reads a vector file, one value per line, parsed as complex by
    ``np.loadtxt`` (blank lines skipped; real when every imaginary part is
    0). A line that holds no number or more than one is an input error
    naming its file line."""
    with open_ascii(path) as fh:
        try:
            vec = loadtxt_quiet(fh, ndmin=2, dtype=complex, comments=None)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            cause = _at_file_line(path, str(exc), comments=None, first=0)
            raise ValueError(f"{path}: {cause}") from None
    if vec.shape[1] != 1:  # numpy saw that many values on every line
        raise ValueError(f"{path}, line {_content_line(path, 0, None)}: {vec.shape[1]} values, "
                         "but a vector file holds one value per line")
    vec = vec[:, 0]
    return vec.real if np.all(vec.imag == 0) else vec


def load_matrix_market(path) -> SparseMatrix:
    """Reads a Matrix Market file into CSR storage.

    Coordinate and array formats are supported with real, integer, complex
    and pattern fields and general/symmetric/hermitian headers. Only square
    matrices are accepted since everything here is used as an operator.
    The body goes through one ``np.loadtxt`` call: ``%`` starts a comment
    anywhere in it, as on the size line, blank lines are skipped, numbers
    parse as Python's ``float`` does, digit-grouping underscores aside, and
    a malformed entry, like a byte that is not ASCII, is reported with its
    file line. Pattern entries get
    the value 1.0, and a complex file is stored as complex128 (the others
    as float64). Array bodies are column major, the symmetric ones the
    packed lower triangle, and their zeros are not stored. Symmetric and
    Hermitian files are expanded to full storage; a Hermitian diagonal
    entry must be real (NaN passes, to be caught as a non-finite operator).
    Repeated entries are summed in general files and rejected in the
    others, counting mirrors.
    """
    with open_ascii(path, MatrixMarketError) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) != 5 or tokens[1].lower() != "matrix":
            raise MatrixMarketError(f"malformed header: {header.strip()!r}")
        fmt, field, symmetry = (t.lower() for t in tokens[2:5])
        if fmt not in ("coordinate", "array"):
            raise MatrixMarketError(f"unsupported format {fmt!r}")
        if field not in _MM_FIELDS:
            raise MatrixMarketError(f"unsupported field {field!r}")
        if symmetry not in _MM_SYMMETRIES:
            raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")
        if fmt == "array" and field == "pattern":
            raise MatrixMarketError("array format cannot use the pattern field")

        size_line = next((ln for ln in fh if ln.partition("%")[0].strip()), None)
        if size_line is None:
            raise MatrixMarketError("missing size line")
        size_tokens = size_line.partition("%")[0].split()
        if fmt == "coordinate" and len(size_tokens) != 3:
            raise MatrixMarketError("coordinate size line must be 'rows cols nnz'")
        if fmt == "array" and len(size_tokens) != 2:
            raise MatrixMarketError("array size line must be 'rows cols'")
        if not all(t.isdigit() for t in size_tokens):
            raise MatrixMarketError(f"size line must hold nonnegative integers: {size_line.strip()!r}")
        nrows, ncols = (int(t) for t in size_tokens[:2])
        if nrows != ncols:
            raise MatrixMarketError(f"non-square matrix ({nrows}x{ncols}) cannot be used as an operator")
        n = nrows

        fields = [("i", np.int64), ("j", np.int64)] if fmt == "coordinate" else []
        fields += {"pattern": [], "complex": [("re", np.float64), ("im", np.float64)]}.get(
            field, [("re", np.float64)])
        try:
            body = loadtxt_quiet(fh, dtype=fields, comments="%")
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise MatrixMarketError(f"malformed body line: {_at_file_line(path, str(exc))}") from None

    if field == "pattern":
        vals = np.ones(len(body))
    elif field == "complex":
        vals = np.empty(len(body), dtype=np.complex128)
        vals.real, vals.imag = body["re"], body["im"]
    else:
        vals = body["re"]
    mirror = symmetry != "general"
    if fmt == "coordinate":
        rows, cols = body["i"] - 1, body["j"] - 1
        bad = np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))
        if bad.size:
            raise MatrixMarketError(f"index out of range in entry {bad[0] + 1}: "
                                    f"({rows[bad[0]] + 1}, {cols[bad[0]] + 1})")
        nnz = int(size_tokens[2])
        if len(body) != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {len(body)}")
    else:
        expected = n * (n + 1) // 2 if mirror else n * n
        if len(body) != expected:
            raise MatrixMarketError(f"array body has {len(body)} entries, expected {expected}")
        cols, rows = np.triu_indices(n) if mirror else np.divmod(np.arange(expected), n)
        stored = vals != 0
        rows, cols, vals = rows[stored], cols[stored], vals[stored]

    if symmetry == "hermitian":
        # mirrors are conjugates, so only the diagonal can break A = A^*;
        # a NaN imaginary part passes (abs(nan) > 0 is false)
        bad = np.flatnonzero((rows == cols) & (np.abs(vals.imag) > 0))
        if bad.size:
            k = rows[bad[0]] + 1
            raise MatrixMarketError(f"hermitian file has a diagonal entry with a nonzero "
                                    f"imaginary part at ({k}, {k})")
    if mirror:
        off = rows != cols
        mirrored = np.conj(vals[off]) if symmetry == "hermitian" else vals[off]
        rows, cols, vals = (np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off])),
                            np.concatenate((vals, mirrored)))
    flag = symmetry == "hermitian" or (symmetry == "symmetric" and field != "complex")
    out = SparseMatrix.from_coo(n, rows, cols, vals, symmetry_flag=flag)
    if mirror and out.nnz < len(rows):
        # from_coo merged a position the expanded triplets hold twice
        keys = np.sort(rows * n + cols)
        i, j = sorted(divmod(int(keys[np.flatnonzero(np.diff(keys) == 0)[0]]), n))
        raise MatrixMarketError(f"{symmetry} file gives position ({j + 1}, {i + 1}) "
                                "more than once, counting the mirror of each entry")
    return out


# -----------------------------------------------------------------------------
# Graph view of a sparse matrix

def _undirected_adjacency(a: SparseMatrix) -> list[np.ndarray]:
    """Sorted neighbor lists of the undirected graph with an edge wherever
    either a_ij or a_ji is stored nonzero; the diagonal is ignored."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    edge = (a.values != 0) & (rows != a.col_idx)
    rows, cols = rows[edge], a.col_idx[edge]
    keys = np.unique(np.concatenate((rows * a.n + cols, cols * a.n + rows)))
    return np.split(keys % a.n, np.searchsorted(keys, np.arange(1, a.n) * a.n))


def graph_distances(a: SparseMatrix, source: int) -> np.ndarray:
    """BFS distances from ``source`` in the graph of A; inf when unreachable."""
    _check_range("node", (source,), a.n)
    neighbors = _undirected_adjacency(a)
    dist = np.full(a.n, np.inf)
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        i = queue.popleft()
        for j in neighbors[i]:
            if np.isinf(dist[j]):
                dist[j] = dist[i] + 1.0
                queue.append(int(j))
    return dist


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph stored as a 0/1 adjacency matrix with zero diagonal."""

    adjacency: SparseMatrix

    def __post_init__(self):
        a = self.adjacency
        vals = a.values
        if np.iscomplexobj(vals) or not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError("adjacency values must be 0 or 1")
        rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
        if np.any((rows == a.col_idx) & (vals != 0)):
            raise ValueError("adjacency diagonal must be zero")
        ah = a.conjugate_transpose()
        if not (np.array_equal(a.row_ptr, ah.row_ptr) and np.array_equal(a.col_idx, ah.col_idx)
                and np.array_equal(vals, ah.values)):
            raise ValueError("adjacency must be symmetric")

    @property
    def n(self) -> int:
        return self.adjacency.n

    @staticmethod
    def from_edges(n, edges) -> "Graph":
        i, j = np.array(list(edges) or np.empty((0, 2)), dtype=np.int64).T
        if np.any(i == j):
            raise ValueError("self loops are not allowed")
        adj = SparseMatrix.from_coo(n, np.concatenate((i, j)), np.concatenate((j, i)),
                                    np.ones(2 * i.size), symmetry_flag=True)
        if np.any(adj.values > 1):
            raise ValueError("duplicate edges")
        return Graph(adj)

    def edges(self) -> list[tuple[int, int]]:
        a = self.adjacency
        rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
        mask = (a.values != 0) & (rows < a.col_idx)
        return list(zip(rows[mask].tolist(), a.col_idx[mask].tolist()))

    def has_edge(self, i, j) -> bool:
        _check_range("node", (i, j), self.n)
        return bool(self.adjacency.entry(i, j) == 1.0)

    def with_edge(self, i, j, present: bool) -> "Graph":
        """Copy of the graph with edge (i, j) set or cleared.

        Splices entries (i, j) and (j, i) into or out of copies of the CSR
        arrays, so an edit costs O(nnz) copying; the source graph is left
        untouched. A stored zero counts as absent: setting the edge stores
        1 in its place, clearing it deletes the entry. The splice keeps 0/1
        values, the zero diagonal and symmetry, so the result skips the
        validation of ``Graph(adjacency)``.
        """
        _check_range("node", (i, j), self.n)
        if i == j:
            raise ValueError("self loops are not allowed")
        a = self.adjacency
        row_ptr, col_idx, values = a.row_ptr, a.col_idx, a.values
        for r, c in ((i, j), (j, i)):
            lo, hi = row_ptr[r], row_ptr[r + 1]
            pos = lo + int(np.searchsorted(col_idx[lo:hi], c))
            stored = pos < hi and col_idx[pos] == c
            if present and stored:
                if values[pos] != 1.0:
                    values = values.copy()
                    values[pos] = 1.0
            elif present:
                col_idx = np.insert(col_idx, pos, c)
                values = np.insert(values, pos, 1.0)
                row_ptr = np.concatenate((row_ptr[:r + 1], row_ptr[r + 1:] + 1))
            elif stored:
                col_idx = np.delete(col_idx, pos)
                values = np.delete(values, pos)
                row_ptr = np.concatenate((row_ptr[:r + 1], row_ptr[r + 1:] - 1))
        spliced = object.__new__(Graph)
        object.__setattr__(spliced, "adjacency",
                           SparseMatrix(a.n, row_ptr, col_idx, values, symmetry_flag=True))
        return spliced


# -----------------------------------------------------------------------------
# Model problem generators

def gen_laplace2d(side: int) -> SparseMatrix:
    """Five-point stencil on a ``side`` x ``side`` grid (unscaled, diagonal 4).

    The result has dimension side**2 and is symmetric positive definite.
    """
    if side < 2:
        raise ValueError("side must be at least 2")
    n = side * side
    node = np.arange(n)
    east = node[node % side != side - 1]  # nodes with a neighbor at +1
    north = node[:n - side]  # nodes with a neighbor at +side
    lo = np.concatenate((east, north))
    hi = np.concatenate((east + 1, north + side))
    return SparseMatrix.from_coo(n, np.concatenate((node, lo, hi)), np.concatenate((node, hi, lo)),
                                 np.concatenate((np.full(n, 4.0), np.full(2 * lo.size, -1.0))),
                                 symmetry_flag=True)


def gen_convdiff1d(n: int, c: float, c_tilde: float, pos: int):
    """Discretized 1-D convection-diffusion operator u'' - c*u' plus a rank-1
    pair switching the convection coefficient to ``c_tilde`` at one grid row.

    Uses centered differences on ``n`` interior points of [0, 1] with
    homogeneous Dirichlet boundaries: the second derivative contributes the
    stencil (1, -2, 1)/h^2 and the convection term -c*u' contributes
    (c/(2h), 0, -c/(2h)). Returns ``(A, b, c_vec)`` with
    ``A + outer(b, c_vec)`` equal to the operator whose convection
    coefficient at row ``pos`` is ``c_tilde``.
    """
    if n < 3:
        raise ValueError("need at least 3 interior points")
    if not 0 <= pos < n:
        raise ValueError("invalid pos")
    h = 1.0 / (n + 1)
    sub = 1.0 / h**2 + c / (2.0 * h)
    dia = -2.0 / h**2
    sup = 1.0 / h**2 - c / (2.0 * h)
    i = np.arange(n)
    a = SparseMatrix.from_coo(n, np.concatenate((i, i[1:], i[:-1])), np.concatenate((i, i[:-1], i[1:])),
                              np.concatenate((np.full(n, dia), np.full(n - 1, sub), np.full(n - 1, sup))))
    b = np.zeros(n)
    b[pos] = 1.0
    c_vec = np.zeros(n)
    delta = (c_tilde - c) / (2.0 * h)
    if pos > 0:
        c_vec[pos - 1] = delta
    if pos < n - 1:
        c_vec[pos + 1] = -delta
    return a, b, c_vec
