"""Sparse CSR containers, Matrix Market I/O, graph utilities, and model problems.

Square matrices only; every operator in this library acts on vectors of the
same length it produces. Dense matrices and vectors are plain numpy arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import MatrixMarketError


@dataclass(frozen=True)
class SparseMatrix:
    """Square sparse matrix in CSR form over float64 or complex128 scalars.

    ``symmetry_flag`` declares that the matrix equals its conjugate
    transpose entry by entry in stored form. Instances are immutable and
    safe to share across threads.
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
        if values.dtype.kind not in "fc":
            values = values.astype(np.float64)
        object.__setattr__(self, "values", values)
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        if self.row_ptr.shape != (self.n + 1,):
            raise ValueError("row_ptr must have length n+1")
        if self.row_ptr[0] != 0 or np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must start at 0 and be nondecreasing")
        if self.row_ptr[-1] != len(self.col_idx) or len(self.col_idx) != len(self.values):
            raise ValueError("row_ptr, col_idx and values are inconsistent")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")

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
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
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
    def from_dense(dense, symmetry_flag=False, drop_tol=0.0) -> "SparseMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("square matrix required")
        rows, cols = np.nonzero(np.abs(dense) > drop_tol)
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
        if not 0 <= k < n:
            raise ValueError(f"{what} {k} outside 0..{n - 1} (n = {n})")


def spmv(a: SparseMatrix, x) -> np.ndarray:
    """CSR matrix-vector product A @ x, summed row by row in storage order."""
    x = np.asarray(x)
    if x.shape != (a.n,):
        raise ValueError(f"dimension mismatch: matrix is {a.n}x{a.n}, vector has length {x.shape}")
    prod = a.values * x[a.col_idx]
    y = np.zeros(a.n, dtype=np.result_type(a.values, x))
    counts = np.diff(a.row_ptr)
    nz = counts > 0
    if prod.size:
        y[nz] = np.add.reduceat(prod, a.row_ptr[:-1][nz])
    return y


def check_declared_symmetry(a: SparseMatrix) -> None:
    """Verifies that the stored pattern and values satisfy A = A^*.

    Raises ValueError on the first violation. Intended to run right after
    symmetric/Hermitian input files are expanded to full storage.
    """
    ah = a.conjugate_transpose()
    same = (
        np.array_equal(a.row_ptr, ah.row_ptr)
        and np.array_equal(a.col_idx, ah.col_idx)
        and np.array_equal(a.values, ah.values)
    )
    if not same:
        raise ValueError("matrix marked symmetric/Hermitian but storage is not")


# -----------------------------------------------------------------------------
# Matrix Market input

_MM_FIELDS = {"real", "integer", "complex", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric", "hermitian"}


def load_matrix_market(path) -> SparseMatrix:
    """Reads a Matrix Market file into CSR storage.

    Coordinate and array formats are supported with real, integer, complex
    and pattern fields and general/symmetric/hermitian headers. Symmetric
    and Hermitian files are expanded to full storage; pattern entries get
    the value 1.0. Only square matrices are accepted since everything here
    is used as an operator.
    """
    with open(path, "r", encoding="ascii") as fh:
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

        data_lines = (ln for ln in (raw.strip() for raw in fh) if ln and not ln.startswith("%"))
        try:
            size_tokens = next(data_lines).split()
        except StopIteration:
            raise MatrixMarketError("missing size line") from None

        if fmt == "coordinate":
            if len(size_tokens) != 3:
                raise MatrixMarketError("coordinate size line must be 'rows cols nnz'")
            nrows, ncols, nnz = (int(t) for t in size_tokens)
        else:
            if len(size_tokens) != 2:
                raise MatrixMarketError("array size line must be 'rows cols'")
            nrows, ncols = (int(t) for t in size_tokens)
            nnz = -1
        if nrows != ncols:
            raise MatrixMarketError(f"non-square matrix ({nrows}x{ncols}) cannot be used as an operator")
        n = nrows

        complex_values = field == "complex"
        mirror = symmetry in ("symmetric", "hermitian")
        conjugate = symmetry == "hermitian"
        rows, cols, vals = [], [], []

        if fmt == "coordinate":
            want = 2 if field == "pattern" else (4 if complex_values else 3)
            count = 0
            for ln in data_lines:
                parts = ln.split()
                if len(parts) != want:
                    raise MatrixMarketError(f"malformed body line: {ln!r}")
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                if not (0 <= i < n and 0 <= j < n):
                    raise MatrixMarketError(f"index out of range in line: {ln!r}")
                if field == "pattern":
                    v = 1.0
                elif complex_values:
                    v = complex(float(parts[2]), float(parts[3]))
                else:
                    v = float(parts[2])
                rows.append(i)
                cols.append(j)
                vals.append(v)
                if mirror and i != j:
                    rows.append(j)
                    cols.append(i)
                    vals.append(np.conj(v) if conjugate else v)
                count += 1
            if count != nnz:
                raise MatrixMarketError(f"expected {nnz} entries, found {count}")
        else:
            want = 2 if complex_values else 1
            entries = []
            for ln in data_lines:
                parts = ln.split()
                if len(parts) != want:
                    raise MatrixMarketError(f"malformed body line: {ln!r}")
                entries.append(complex(float(parts[0]), float(parts[1])) if complex_values else float(parts[0]))
            # column-major dense body; symmetric variants store the packed
            # lower triangle of each column
            if mirror:
                expected = n * (n + 1) // 2
            else:
                expected = n * n
            if len(entries) != expected:
                raise MatrixMarketError(f"array body has {len(entries)} entries, expected {expected}")
            pos = 0
            for j in range(n):
                i0 = j if mirror else 0
                for i in range(i0, n):
                    v = entries[pos]
                    pos += 1
                    if v == 0:
                        continue
                    rows.append(i)
                    cols.append(j)
                    vals.append(v)
                    if mirror and i != j:
                        rows.append(j)
                        cols.append(i)
                        vals.append(np.conj(v) if conjugate else v)

        flag = symmetry == "hermitian" or (symmetry == "symmetric" and not complex_values)
        out = SparseMatrix.from_coo(n, rows, cols, np.asarray(vals), symmetry_flag=flag)
        if flag:
            check_declared_symmetry(out)
        return out


# -----------------------------------------------------------------------------
# Graph view of a sparse matrix

def _undirected_adjacency(a: SparseMatrix) -> list[np.ndarray]:
    """Neighbor lists of the undirected graph with an edge wherever either
    a_ij or a_ji is stored nonzero; the diagonal is ignored."""
    at = a.conjugate_transpose()
    neighbors = []
    for i in range(a.n):
        fwd = a.col_idx[a.row_ptr[i]:a.row_ptr[i + 1]][a.values[a.row_ptr[i]:a.row_ptr[i + 1]] != 0]
        bwd = at.col_idx[at.row_ptr[i]:at.row_ptr[i + 1]][at.values[at.row_ptr[i]:at.row_ptr[i + 1]] != 0]
        nbr = np.union1d(fwd, bwd)
        neighbors.append(nbr[nbr != i])
    return neighbors


def graph_distances(a: SparseMatrix, source: int) -> np.ndarray:
    """BFS distances from ``source`` in the graph of A; inf when unreachable."""
    if not 0 <= source < a.n:
        raise ValueError("index out of range")
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


def graph_distance(a: SparseMatrix, i: int, j: int) -> float:
    """Shortest-path length between nodes i and j; inf when disconnected."""
    if not (0 <= i < a.n and 0 <= j < a.n):
        raise ValueError("index out of range")
    if i == j:
        return 0.0
    return float(graph_distances(a, i)[j])


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
        # Stored form equals its transpose iff the entries are strictly
        # sorted by (row, col) and the (row, col, value) keys are the sorted
        # (col, row, value) keys: one sort instead of building A^T.
        pos = rows * a.n + a.col_idx
        bit = (vals != 0).astype(np.int64)
        if np.any(np.diff(pos) <= 0) or not np.array_equal(
            pos * 2 + bit, np.sort((a.col_idx * a.n + rows) * 2 + bit)
        ):
            raise ValueError("adjacency must be symmetric")

    @property
    def n(self) -> int:
        return self.adjacency.n

    @staticmethod
    def from_edges(n, edges) -> "Graph":
        rows, cols = [], []
        for i, j in edges:
            if i == j:
                raise ValueError("self loops are not allowed")
            rows += [i, j]
            cols += [j, i]
        adj = SparseMatrix.from_coo(n, rows, cols, np.ones(len(rows)), symmetry_flag=True)
        if len(rows) and np.any(adj.values > 1):
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
        1 in its place, clearing it deletes the entry.
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
        return Graph(SparseMatrix(a.n, row_ptr, col_idx, values, symmetry_flag=True))


# -----------------------------------------------------------------------------
# Model problem generators

def gen_laplace2d(side: int) -> SparseMatrix:
    """Five-point stencil on a ``side`` x ``side`` grid (unscaled, diagonal 4).

    The result has dimension side**2 and is symmetric positive definite.
    """
    if side < 2:
        raise ValueError("side must be at least 2")
    rows, cols, vals = [], [], []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            rows.append(i)
            cols.append(i)
            vals.append(4.0)
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < side and 0 <= cc < side:
                    rows.append(i)
                    cols.append(rr * side + cc)
                    vals.append(-1.0)
    return SparseMatrix.from_coo(side * side, rows, cols, vals, symmetry_flag=True)


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
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(dia)
        if i > 0:
            rows.append(i)
            cols.append(i - 1)
            vals.append(sub)
        if i < n - 1:
            rows.append(i)
            cols.append(i + 1)
            vals.append(sup)
    a = SparseMatrix.from_coo(n, rows, cols, vals)
    b = np.zeros(n)
    b[pos] = 1.0
    c_vec = np.zeros(n)
    delta = (c_tilde - c) / (2.0 * h)
    if pos > 0:
        c_vec[pos - 1] = delta
    if pos < n - 1:
        c_vec[pos + 1] = -delta
    return a, b, c_vec
