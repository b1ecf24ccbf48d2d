import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funupdate import (Graph, MatrixMarketError, SparseMatrix, gen_convdiff1d,
                       gen_laplace2d, graph_distance, graph_distances, lanczos,
                       load_matrix_market, spmv)
from helpers import random_sparse, tridiag_sparse


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarket:
    def test_identity_coordinate(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
"""))
        assert a.n == 2 and a.nnz == 2
        assert not a.symmetry_flag
        np.testing.assert_allclose(a.to_dense(), np.eye(2))

    def test_symmetric_lower_triangle_expansion(self, tmp_path):
        # tridiag(-1, 3, -1) at n=4 stored as its lower triangle: 4 diagonal
        # plus 3 subdiagonal entries expand to 10 stored values
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
4 4 7
1 1 3.0
2 1 -1.0
2 2 3.0
3 2 -1.0
3 3 3.0
4 3 -1.0
4 4 3.0
"""))
        assert a.nnz == 10
        assert a.symmetry_flag
        np.testing.assert_allclose(a.to_dense(), tridiag_sparse(4, -1.0, 3.0, -1.0).to_dense())

    def test_array_with_wrong_column_count(self, tmp_path):
        path = write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0 2.0 3.0
4.0 5.0 6.0
""")
        with pytest.raises(MatrixMarketError, match="malformed body"):
            load_matrix_market(path)

    def test_array_general(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0
3.0
2.0
4.0
"""))
        np.testing.assert_allclose(a.to_dense(), [[1.0, 2.0], [3.0, 4.0]])

    def test_pattern_symmetric(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
"""))
        assert a.symmetry_flag
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[0, 1] = expect[2, 1] = expect[1, 2] = 1.0
        np.testing.assert_allclose(a.to_dense(), expect)

    def test_hermitian_complex(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate complex hermitian
2 2 2
1 1 2.0 0.0
2 1 1.0 -1.0
"""))
        assert a.symmetry_flag
        dense = a.to_dense()
        assert dense[0, 1] == 1.0 + 1.0j and dense[1, 0] == 1.0 - 1.0j

    def test_complex_symmetric_is_not_flagged(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate complex symmetric
2 2 1
2 1 0.0 1.0
"""))
        assert not a.symmetry_flag
        assert a.to_dense()[0, 1] == a.to_dense()[1, 0] == 1.0j

    def test_rejects_nonsquare(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="non-square"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 3 1
1 1 1.0
"""))

    def test_rejects_bad_header_and_skew(self, tmp_path):
        with pytest.raises(MatrixMarketError):
            load_matrix_market(write(tmp_path, "%%NotMatrixMarket\n1 1 0\n"))
        with pytest.raises(MatrixMarketError, match="unsupported symmetry"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 1.0
"""))

    def test_rejects_out_of_range_index(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="out of range"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
"""))


class TestSpmv:
    def test_identity(self):
        a = SparseMatrix.from_coo(3, range(3), range(3), np.ones(3))
        np.testing.assert_allclose(spmv(a, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_tridiagonal_hand_value(self):
        a = tridiag_sparse(3, -1.0, 3.0, -1.0)
        np.testing.assert_allclose(spmv(a, np.ones(3)), [2.0, 1.0, 2.0])

    def test_dimension_mismatch(self):
        a = SparseMatrix.from_coo(2, [0], [0], [1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(a, np.ones(3))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_dense_product(self, complex_):
        rng = np.random.default_rng(7)
        for n in (5, 40, 200):
            a = random_sparse(rng, n, density=0.08, complex_=complex_)
            x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0)
            got = spmv(a, x)
            want = a.to_dense() @ x
            scale = np.linalg.norm(a.to_dense(), np.inf) * np.linalg.norm(x, np.inf) + 1.0
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_empty_rows(self):
        a = SparseMatrix.from_coo(4, [0, 3], [1, 2], [2.0, 5.0])
        np.testing.assert_allclose(spmv(a, np.arange(4.0)), [2.0, 0.0, 0.0, 10.0])


class TestGraphDistance:
    def test_same_node(self):
        a = tridiag_sparse(6, -1.0, 3.0, -1.0)
        assert graph_distance(a, 3, 3) == 0.0

    def test_tridiagonal_distance_is_index_gap(self):
        a = tridiag_sparse(12, -1.0, 3.0, -1.0)
        assert graph_distance(a, 5, 9) == 4.0
        dists = graph_distances(a, 5)
        np.testing.assert_allclose(dists, np.abs(np.arange(12) - 5))

    def test_disconnected_blocks(self):
        a = SparseMatrix.from_coo(4, [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        assert graph_distance(a, 0, 3) == np.inf

    def test_symmetry_of_distances(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 30, density=0.06)
        for _ in range(20):
            i, j = rng.integers(0, 30, size=2)
            assert graph_distance(a, int(i), int(j)) == graph_distance(a, int(j), int(i))

    def test_index_out_of_range(self):
        a = tridiag_sparse(3, -1.0, 3.0, -1.0)
        with pytest.raises(ValueError):
            graph_distance(a, 0, 5)


class TestGenerators:
    def test_laplace2d_smallest_case(self):
        a = gen_laplace2d(2)
        dense = a.to_dense()
        assert dense.shape == (4, 4)
        np.testing.assert_allclose(np.diag(dense), 4.0)
        # 2x2 grid: every node has exactly two -1 neighbors on the 4-cycle
        assert np.count_nonzero(dense == -1.0) == 8
        eigs = np.linalg.eigvalsh(dense)
        np.testing.assert_allclose(eigs, [2.0, 4.0, 4.0, 6.0], atol=1e-12)

    def test_laplace2d_dimension(self):
        assert gen_laplace2d(20).n == 400

    def test_laplace2d_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_laplace2d(1)

    def test_laplace2d_positive_definite_by_lanczos(self):
        a = gen_laplace2d(12)
        rng = np.random.default_rng(0)
        dec = lanczos(a.matvec, rng.standard_normal(a.n), 20)
        ritz = np.linalg.eigvalsh(dec.compressed)
        assert np.all(ritz > 0)
        assert np.array_equal(a.to_dense(), a.to_dense().T)

    def test_convdiff_noop_when_coefficient_unchanged(self):
        _, b, c = gen_convdiff1d(16, 10.0, 10.0, 7)
        assert np.linalg.norm(np.outer(b, c)) == 0.0

    def test_convdiff_row_difference(self):
        n, pos = 256, 127
        a, b, c = gen_convdiff1d(n, 10.0, 20.0, pos)
        modified = a.to_dense() + np.outer(b, c)
        diff = modified - a.to_dense()
        nz = np.nonzero(diff)
        assert set(nz[0].tolist()) == {pos}
        assert set(nz[1].tolist()) == {pos - 1, pos + 1}
        h = 1.0 / (n + 1)
        np.testing.assert_allclose(diff[pos, pos - 1], 10.0 / (2 * h))
        np.testing.assert_allclose(diff[pos, pos + 1], -10.0 / (2 * h))

    def test_convdiff_modification_has_rank_one(self):
        a, b, c = gen_convdiff1d(16, 10.0, 60.0, 8)
        diff = np.outer(b, c)
        svals = np.linalg.svd(diff, compute_uv=False)
        assert svals[0] > 0 and np.all(svals[1:] <= 1e-12 * svals[0])

    def test_convdiff_invalid_pos(self):
        with pytest.raises(ValueError):
            gen_convdiff1d(16, 10.0, 20.0, 16)


class TestGraphType:
    def test_validation(self):
        adj = SparseMatrix.from_coo(3, [0, 1], [1, 0], [1.0, 1.0], symmetry_flag=True)
        g = Graph(adj)
        assert g.has_edge(0, 1) and not g.has_edge(1, 2)
        with pytest.raises(ValueError, match="symmetric"):
            Graph(SparseMatrix.from_coo(3, [0], [1], [1.0]))
        with pytest.raises(ValueError, match="diagonal"):
            Graph(SparseMatrix.from_coo(2, [0], [0], [1.0]))
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(SparseMatrix.from_coo(2, [0, 1], [1, 0], [2.0, 2.0]))

    def test_with_edge_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        g2 = g.with_edge(2, 3, True)
        assert g2.has_edge(2, 3) and not g.has_edge(2, 3)
        g3 = g2.with_edge(0, 1, False)
        assert not g3.has_edge(0, 1)
        assert sorted(g3.edges()) == [(1, 2), (2, 3)]

    def test_stored_zero_counts_as_absent(self):
        adj = SparseMatrix.from_coo(3, [0, 1, 1, 2], [1, 0, 2, 1], [0.0, 0.0, 1.0, 1.0],
                                    symmetry_flag=True)
        g = Graph(adj)
        assert not g.has_edge(0, 1)
        added = g.with_edge(1, 0, True)
        assert added.adjacency.nnz == 4
        assert_same_csr(added, Graph.from_edges(3, [(0, 1), (1, 2)]))
        removed = g.with_edge(0, 1, False)
        assert removed.adjacency.nnz == 2
        assert_same_csr(removed, Graph.from_edges(3, [(1, 2)]))
        np.testing.assert_array_equal(g.adjacency.values, [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("i, j", [(0, 5), (7, 1), (-1, 2)])
    def test_out_of_range_node_names_it(self, i, j):
        g = Graph.from_edges(3, [(0, 1)])
        bad = i if not 0 <= i < 3 else j
        with pytest.raises(ValueError, match=rf"node {bad} .*n = 3"):
            g.has_edge(i, j)
        for present in (True, False):
            with pytest.raises(ValueError, match=rf"node {bad} .*n = 3"):
                g.with_edge(i, j, present)


@pytest.mark.parametrize("i, j, bad", [(-1, 1, -1), (1, -1, -1), (3, 1, 3), (1, 3, 3)])
def test_entry_rejects_out_of_range_index(i, j, bad):
    a = SparseMatrix.from_coo(3, [2, 0], [1, 0], [4.0, 1.0])
    assert a.entry(2, 1) == 4.0 and a.entry(1, 2) == 0.0
    with pytest.raises(ValueError, match=rf"index {bad} outside 0\.\.2 \(n = 3\)"):
        a.entry(i, j)


def csr_arrays(g):
    a = g.adjacency
    return a.row_ptr, a.col_idx, a.values


def assert_same_csr(got, want):
    for x, y in zip(csr_arrays(got), csr_arrays(want)):
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype


@st.composite
def graphs_and_edits(draw):
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    edits = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans(), st.booleans()),
                          max_size=12))
    return n, edges, edits


@settings(deadline=None)
@given(graphs_and_edits())
def test_with_edge_matches_rebuild(case):
    """Every splice equals the canonical rebuild from the edited edge set
    and leaves its source graph as it was."""
    n, edges, edits = case
    edge_set = set(edges)
    g = Graph.from_edges(n, sorted(edge_set))
    for (i, j), present, flip in edits:
        if flip:
            i, j = j, i
        source = [x.copy() for x in csr_arrays(g)]
        was_present = g.has_edge(i, j)
        edited = g.with_edge(i, j, present)
        for x, y in zip(csr_arrays(g), source):
            np.testing.assert_array_equal(x, y)
        if was_present == present:
            assert_same_csr(edited, g)
        (edge_set.add if present else edge_set.discard)((min(i, j), max(i, j)))
        assert_same_csr(edited, Graph.from_edges(n, sorted(edge_set)))
        assert edited.has_edge(i, j) == present
        g = edited


def csr_of_entries(n, entries) -> SparseMatrix:
    """CSR arrays holding (row, col, value) entries in the order given;
    the entries must already be grouped by row."""
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return SparseMatrix(n, row_ptr, [e[1] for e in entries], [e[2] for e in entries])


def transpose_symmetric(a: SparseMatrix) -> bool:
    """The former symmetry check of ``Graph``: build A^* and compare the
    stored arrays."""
    ah = a.conjugate_transpose()
    return (np.array_equal(a.row_ptr, ah.row_ptr) and np.array_equal(a.col_idx, ah.col_idx)
            and np.array_equal(a.values, ah.values))


@st.composite
def zero_one_csr(draw):
    """0/1 matrices with a zero diagonal, stored symmetric and then
    perturbed: a value flip, a duplicate, a dropped or one-sided entry, or
    two columns of a row swapped out of order."""
    n = draw(st.integers(0, 5))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.sets(st.sampled_from(cells))) if cells else set()
    entries = []
    for i, j in sorted(chosen):
        v = 0.0 if i == j else draw(st.sampled_from([0.0, 1.0]))
        entries += [(i, j, v), (j, i, v)] if i != j else [(i, i, v)]
    entries.sort()
    for op in draw(st.lists(st.sampled_from(["flip", "dup", "drop", "extra", "swap"]),
                            max_size=2)):
        if op == "extra" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            bisect.insort(entries, (i, j, draw(st.sampled_from([0.0, 1.0]))))
        elif op != "extra" and entries:
            k = draw(st.integers(0, len(entries) - 1))
            i, j, v = entries[k]
            if op == "flip" and i != j:
                entries[k] = (i, j, 1.0 - v)
            elif op == "dup":
                entries.insert(k, entries[k])
            elif op == "drop":
                del entries[k]
            elif op == "swap" and k + 1 < len(entries) and entries[k + 1][0] == i:
                entries[k], entries[k + 1] = entries[k + 1], entries[k]
    return csr_of_entries(n, entries)


@settings(deadline=None, max_examples=300)
@given(zero_one_csr())
@example(csr_of_entries(0, []))
@example(csr_of_entries(3, [(0, 1, 0.0), (1, 0, 0.0), (2, 2, 0.0)]))  # stored zeros
@example(csr_of_entries(2, [(0, 1, 0.0), (1, 0, 1.0)]))  # stored zero against a one
@example(csr_of_entries(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)]))  # duplicate
@example(csr_of_entries(3, [(0, 2, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]))  # unsorted
@example(csr_of_entries(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)]))  # one-sided
def test_symmetry_check_matches_transpose_reference(a):
    if transpose_symmetric(a):
        Graph(a)
    else:
        with pytest.raises(ValueError, match="adjacency must be symmetric"):
            Graph(a)


def test_from_coo_sums_duplicates():
    a = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
    assert a.nnz == 2
    assert a.to_dense()[0, 1] == 3.0


def test_conjugate_transpose_complex():
    a = SparseMatrix.from_coo(2, [0], [1], [1.0 + 2.0j])
    np.testing.assert_allclose(a.conjugate_transpose().to_dense(), [[0, 0], [1.0 - 2.0j, 0]])
