import bisect
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funupdate import (Graph, LanczosProcess, MatrixMarketError, SparseMatrix, gen_convdiff1d,
                       gen_laplace2d, graph_distances, load_matrix_market, spmv)
from helpers import MIRRORED_DUPLICATES, random_sparse, tridiag_sparse


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

    @pytest.mark.parametrize("text,position", MIRRORED_DUPLICATES.values(),
                             ids=MIRRORED_DUPLICATES.keys())
    def test_rejects_position_given_twice(self, tmp_path, text, position):
        with pytest.raises(MatrixMarketError, match=re.escape(f"position {position} more than once")):
            load_matrix_market(write(tmp_path, text))

    def test_general_file_sums_repeated_entries(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 4.0
2 1 1.0
2 1 1.0
"""))
        np.testing.assert_array_equal(a.to_dense(), [[4.0, 0.0], [2.0, 0.0]])

    def test_rejects_out_of_range_index(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="out of range"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
"""))

    def test_entry_count_must_match_the_size_line(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="expected 3 entries, found 2"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
2 2 1.0
"""))

    def test_array_entry_count_must_match_the_size_line(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="array body has 4 entries, expected 3"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix array real symmetric
2 2
1.0
2.0
3.0
4.0
"""))

    def test_rejects_non_integer_index(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="malformed body line: .*'1.5'"):
            load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 1
1.5 1 2.0
"""))

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n3 3 0\n",
        "%%MatrixMarket matrix coordinate complex hermitian\n% none\n3 3 0\n% still none\n",
        "%%MatrixMarket matrix array real general\n0 0\n",
    ])
    def test_empty_body_loads_without_a_warning(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = load_matrix_market(write(tmp_path, text))
        assert a.nnz == 0 and a.values.dtype == (np.complex128 if "complex" in text else np.float64)

    def test_trailing_comments_are_skipped(self, tmp_path):
        a = load_matrix_market(write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0 % first
  % indented
2 2 -0.0%second
"""))
        _assert_same_bits(a.values, np.array([1.0, -0.0]))

    @pytest.mark.parametrize("fmt,size", [("coordinate", "2 2 2"), ("array", "2 2")])
    def test_size_line_comment_is_skipped(self, tmp_path, fmt, size):
        body = "1 1 1.0\n2 2 -1.0\n" if fmt == "coordinate" else "1.0\n0\n0\n-1.0\n"
        a = load_matrix_market(write(tmp_path, f"%%MatrixMarket matrix {fmt} real general\n"
                                               f"{size} % size\n{body}"))
        np.testing.assert_array_equal(a.to_dense(), [[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("fmt,size", [("coordinate", "2 2 2.5"), ("array", "2 x"),
                                          ("coordinate", "-2 -2 0"), ("array", "2 +2")])
    def test_size_line_of_nonnegative_integers(self, tmp_path, fmt, size):
        path = write(tmp_path, f"%%MatrixMarket matrix {fmt} real general\n{size} % size\n1 1 1.0\n")
        message = f"size line must hold nonnegative integers: '{size} % size'"
        with pytest.raises(MatrixMarketError, match=re.escape(message) + "$"):
            load_matrix_market(path)

    @pytest.mark.parametrize("entry,message", [
        ("2 x 1.0", "could not convert string 'x' to int64 at line 5, column 2."),
        ("2 2 1.0 5.0", "requires 3 columns but 4 were found at line 5"),
    ])
    def test_malformed_entry_names_its_file_line(self, tmp_path, entry, message):
        path = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                               f"2 2 2\n1 1 1.0\n% the bad entry follows\n{entry}\n")
        with pytest.raises(MatrixMarketError, match=re.escape(message) + "$"):
            load_matrix_market(path)

    @pytest.mark.parametrize("entries", [2, 3000], ids=["header-block", "body-block"])
    def test_non_ascii_byte_names_its_file_line(self, tmp_path, entries):
        """The byte is met while the header is read, or, past the first
        decoded block, while numpy reads the body."""
        lines = [f"{k} {k} 1.0" for k in range(1, entries + 1)]
        lines[-1] += " % caf\u00e9"
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{entries} {entries} {entries}\n" + "\n".join(lines) + "\n",
                        encoding="utf-8")
        message = f"{path}, line {entries + 2}: byte 0xc3 is not ASCII"
        with pytest.raises(MatrixMarketError, match=re.escape(message) + "$"):
            load_matrix_market(path)

    @pytest.mark.parametrize("body", ["1 1 2.0 1.0\n2 2 3.0 0.0", "2 2 3.0 0.0\n1 1 2.0 -inf"])
    def test_rejects_non_real_hermitian_diagonal(self, tmp_path, body):
        with pytest.raises(MatrixMarketError, match=re.escape("imaginary part at (1, 1)")):
            load_matrix_market(write(tmp_path, "%%MatrixMarket matrix coordinate complex hermitian\n"
                                               f"2 2 2\n{body}\n"))


# Every supported (format, field) pair, each written under every symmetry.
_MM_KINDS = ([("coordinate", f) for f in ("real", "integer", "complex", "pattern")]
             + [("array", f) for f in ("real", "integer", "complex")])
_MM_SPECIALS = ["0.0", "-0.0", "inf", "-inf", "nan", "5e-324", "1e308", "-1e308"]


def _mm_token(rng, field):
    """One number as written in a file of the field."""
    if field == "integer":
        return ["0", "-0", str(int(rng.integers(-2**60, 2**60)))][rng.integers(3)]
    if rng.random() < 0.5:
        return _MM_SPECIALS[rng.integers(len(_MM_SPECIALS))]
    return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-20, 21)))


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(_MM_KINDS), symmetry=st.sampled_from(["general", "symmetric", "hermitian"]),
       n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_matrix_market_round_trip(tmp_path_factory, kind, symmetry, n, seed):
    """A file written from random triplets loads, bit for bit, as from_coo of
    the triplets with each off-diagonal entry of a symmetric or Hermitian
    file mirrored (conjugated if Hermitian) and the zeros of an array body
    dropped; numbers parse as Python's float does, and a flagged result is
    its own conjugate transpose, NaN counting as equal to NaN."""
    fmt, field = kind
    rng = np.random.default_rng(seed)
    mirror = symmetry != "general"
    if fmt == "array":
        cells = [(i, j) for j in range(n) for i in range(j if mirror else 0, n)]
    elif mirror:
        lower = [(i, j) for i in range(n) for j in range(i + 1)]
        cells = [lower[k] for k in rng.permutation(len(lower))[:rng.integers(len(lower) + 1)]]
    else:  # positions may repeat, and their values are summed in file order
        cells = [tuple(c) for c in rng.integers(0, n, size=(rng.integers(2 * n * n + 1), 2))]
    lines, rows, cols, vals = [], [], [], []
    for i, j in cells:
        tokens = [] if field == "pattern" else [_mm_token(rng, field)]
        if field == "complex":
            tokens.append(["0.0", "-0.0", "nan"][rng.integers(3)]
                          if symmetry == "hermitian" and i == j else _mm_token(rng, field))
        if fmt == "array" and rng.random() < 0.3:
            tokens = ["-0.0"] * len(tokens)  # zeros of an array body are not stored
        v = 1.0 if field == "pattern" else float(tokens[0])
        if field == "complex":
            v = complex(v, float(tokens[1]))
        if fmt == "coordinate" or v != 0:
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if mirror and i != j:
                rows.append(j)
                cols.append(i)
                vals.append(np.conj(v) if symmetry == "hermitian" else v)
        if fmt == "coordinate":
            tokens = [str(i + 1), str(j + 1)] + tokens
        lines += ["% between entries"] * (rng.random() < 0.25) + [""] * (rng.random() < 0.1)
        lines.append(" ".join(tokens) + " % trailing" * (rng.random() < 0.1))
    size = f"{n} {n} {len(cells)}" if fmt == "coordinate" else f"{n} {n}"
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    path.write_text("\n".join([f"%%MatrixMarket matrix {fmt} {field} {symmetry}", "% header comment",
                                size] + lines) + "\n")
    flag = symmetry == "hermitian" or (symmetry == "symmetric" and field != "complex")
    with np.errstate(invalid="ignore", over="ignore"):  # repeated positions sum inf - inf
        got = load_matrix_market(path)
        want = SparseMatrix.from_coo(
            n, rows, cols, np.array(vals, dtype=np.complex128 if field == "complex" else np.float64),
            symmetry_flag=flag)
    assert got.symmetry_flag == flag
    np.testing.assert_array_equal(got.row_ptr, want.row_ptr)
    np.testing.assert_array_equal(got.col_idx, want.col_idx)
    _assert_same_bits(got.values, want.values)
    if flag:
        ah = got.conjugate_transpose()
        np.testing.assert_array_equal(got.row_ptr, ah.row_ptr)
        np.testing.assert_array_equal(got.col_idx, ah.col_idx)
        assert np.array_equal(got.values, ah.values, equal_nan=True)


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

    @pytest.mark.parametrize("density", [0.003, 0.05], ids=["empty-rows", "full-rows"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_bitwise_equal_to_row_sums_recomputed_per_call(self, density, complex_):
        # the reference recomputes the nonempty-row starts on every call;
        # spmv reads them once per matrix, the sums unchanged
        rng = np.random.default_rng(11)
        a = random_sparse(rng, 300, density=density, complex_=complex_)
        assert (np.diff(a.row_ptr) == 0).any() == (density < 0.01)
        for _ in range(3):
            x = rng.standard_normal(a.n)
            nz = np.diff(a.row_ptr) > 0
            want = np.zeros(a.n, dtype=a.values.dtype)
            want[nz] = np.add.reduceat(a.values * x[a.col_idx], a.row_ptr[:-1][nz])
            got = spmv(a, x)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _reduceat_reference(a, x):
    """The row sums of ``np.add.reduceat``, zero at empty rows."""
    y = np.zeros(a.n, dtype=np.result_type(a.values, x))
    nonempty = np.diff(a.row_ptr) > 0
    if nonempty.any():
        y[nonempty] = np.add.reduceat(a.values * x[a.col_idx], a.row_ptr[:-1][nonempty])
    return y


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(g, w, equal_nan=True)
        real = ~np.isnan(w)
        assert np.array_equal(np.signbit(g[real]), np.signbit(w[real]))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _sprinkled(rng, v, share):
    """v with a share of its entries replaced by signed zeros, infinities
    and NaN (in each part of a complex v)."""
    v = v.copy()
    for part in ((v.real, v.imag) if np.iscomplexobj(v) else (v,)):
        hit = rng.random(v.size) < share
        part[hit] = rng.choice(_SPECIAL, int(hit.sum()))
    return v


@settings(deadline=None, max_examples=200)
@given(n=st.integers(0, 24), rows=st.sampled_from([(1, 1), (1, 8), (9, 14), (0, 12)]),
       values=st.sampled_from(["float", "complex"]),
       vector=st.sampled_from(["float", "complex", "int"]),
       share=st.sampled_from([0.0, 0.2, 0.6]), seed=st.integers(0, 2**32 - 1))
@example(n=0, rows=(1, 8), values="float", vector="float", share=0.0, seed=0)
@example(n=1, rows=(1, 8), values="float", vector="float", share=0.6, seed=1)
def test_spmv_is_bitwise_the_reduceat_row_sums(n, rows, values, vector, share, seed):
    """Padded or CSR, every product has the bits of np.add.reduceat, signed
    zeros included, whatever the row lengths and special values."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(min(rows[0], n), min(rows[1], n) + 1, size=n)
    cols = [np.sort(rng.choice(n, k, replace=False)) for k in counts]
    vals = rng.standard_normal(int(counts.sum()))
    if values == "complex":
        vals = vals + 1j * rng.standard_normal(vals.size)
    a = SparseMatrix(n, np.concatenate(([0], np.cumsum(counts))),
                     np.concatenate([np.zeros(0, dtype=np.int64), *cols]),
                     _sprinkled(rng, vals, share))
    padded = values == "float" and n > 0 and 1 <= counts.min() and counts.max() <= 8
    assert (a._padded is not None) == padded
    x = {"float": lambda: _sprinkled(rng, rng.standard_normal(n), share),
         "complex": lambda: _sprinkled(rng, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                       share),
         "int": lambda: rng.integers(-3, 4, size=n)}[vector]()
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
        _assert_same_bits(spmv(a, x), _reduceat_reference(a, x))


class TestPaddedLayout:
    def test_negative_zero_rows_stay_negative(self):
        # numpy sums [-0.0, -0.0] to -0.0, and a one-entry row of -0.0,
        # padded to the widest row, stays -0.0
        a = SparseMatrix.from_coo(3, [0, 0, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2], np.ones(6))
        assert a._padded is not None and a._padded[0].shape == (3, 3)
        y = spmv(a, np.array([-0.0, -0.0, -0.0]))
        assert np.array_equal(y, np.zeros(3)) and np.signbit(y).all()

    def test_model_problems_take_the_layout(self):
        assert gen_laplace2d(12)._padded[0].shape == (5, 144)
        a, _, _ = gen_convdiff1d(50, 10.0, 20.0, 7)
        assert a._padded[0].shape == (3, 50) and a.conjugate_transpose()._padded is not None
        x = np.random.default_rng(3).standard_normal(144)
        _assert_same_bits(spmv(gen_laplace2d(12), x), _reduceat_reference(gen_laplace2d(12), x))

    def test_long_complex_and_empty_rows_keep_csr(self):
        star = Graph.from_edges(10, [(0, j) for j in range(1, 10)])
        assert star.adjacency._padded is None
        assert SparseMatrix.from_coo(3, [0, 1, 2], [0, 1, 2], np.ones(3) + 0j)._padded is None
        assert SparseMatrix.from_coo(3, [0, 2], [0, 2], np.ones(2))._padded is None

    def test_single_precision_values_are_promoted(self):
        a = SparseMatrix.from_coo(2, [0, 1], [0, 1], np.float32([1, 2]))
        assert a.values.dtype == np.float64 and a._padded is not None
        assert spmv(a, np.float32([1, 1])).dtype == np.float64
        direct = SparseMatrix(2, [0, 1, 2], [0, 1], np.float32([1, 2]))
        assert direct.values.dtype == np.float64 and direct._padded is not None
        # duplicates are summed after the promotion: in float32, 1 + 1e-8 reads 1
        dup = SparseMatrix.from_coo(1, [0, 0], [0, 0], np.float32([1.0, 1e-8]))
        assert dup.values.dtype == np.float64 and dup.values[0] == 1.0 + float(np.float32(1e-8))
        c = SparseMatrix.from_coo(2, [0, 1], [0, 1], np.complex64([1 + 1j, 2]))
        assert c.values.dtype == np.complex128 and c.values[0] == 1 + 1j

    def test_both_layouts_are_built_at_construction(self):
        a = SparseMatrix.from_coo(4, [0, 2, 2], [1, 0, 3], np.ones(3))
        built = dict(vars(a))
        mask, starts = built["_nonempty_rows"]
        assert mask.tolist() == [True, False, True, False] and starts.tolist() == [0, 1]
        assert built["_padded"] is None
        for x in (np.ones(4), np.ones(4) + 1j):
            spmv(a, x)
        assert vars(a).keys() == built.keys()  # no product adds a layout
        grid = gen_laplace2d(3)
        assert grid._nonempty_rows[0] is None
        assert np.array_equal(grid._nonempty_rows[1], grid.row_ptr[:-1])

    def test_edit_across_the_row_limit_keeps_the_bits(self):
        # node 0 has 8 neighbours; the edit (0, 9) gives it 9 and back
        g = Graph.from_edges(10, [(0, j) for j in range(1, 9)] + [(1, 9)])
        x = _sprinkled(np.random.default_rng(5), np.random.default_rng(6).standard_normal(10),
                       0.3)
        wide = g.with_edge(0, 9, True)
        back = wide.with_edge(0, 9, False)
        assert g.adjacency._padded is not None and wide.adjacency._padded is None
        assert back.adjacency._padded is not None
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
            for h in (g, wide, back):
                _assert_same_bits(spmv(h.adjacency, x), _reduceat_reference(h.adjacency, x))
            _assert_same_bits(spmv(back.adjacency, x), spmv(g.adjacency, x))


class TestGraphDistance:
    def test_same_node(self):
        a = tridiag_sparse(6, -1.0, 3.0, -1.0)
        assert graph_distances(a, 3)[3] == 0.0

    def test_tridiagonal_distance_is_index_gap(self):
        a = tridiag_sparse(12, -1.0, 3.0, -1.0)
        dists = graph_distances(a, 5)
        np.testing.assert_allclose(dists, np.abs(np.arange(12) - 5))

    def test_disconnected_blocks(self):
        a = SparseMatrix.from_coo(4, [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        assert graph_distances(a, 0)[3] == np.inf

    def test_symmetry_of_distances(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 30, density=0.06)
        for _ in range(20):
            i, j = rng.integers(0, 30, size=2)
            assert graph_distances(a, int(i))[j] == graph_distances(a, int(j))[i]

    def test_source_out_of_range(self):
        a = tridiag_sparse(3, -1.0, 3.0, -1.0)
        with pytest.raises(ValueError, match=r"node -1 outside 0\.\.2 \(n = 3\)"):
            graph_distances(a, -1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_breadth_first_search(self, seed):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix
        rng = np.random.default_rng(seed)
        a = random_sparse(rng, 40, density=0.03, complex_=seed % 2 == 1)
        values = a.values.copy()
        values[rng.random(values.size) < 0.2] = 0.0  # stored zeros are not edges
        a = SparseMatrix(a.n, a.row_ptr, a.col_idx, values)
        pattern = csr_matrix(((a.values != 0).astype(float), a.col_idx, a.row_ptr), shape=a.shape)
        pattern.eliminate_zeros()  # csgraph counts a stored zero as an edge
        want = csgraph.shortest_path(pattern, directed=False, unweighted=True, indices=[0, 7])
        for k, source in enumerate((0, 7)):
            np.testing.assert_array_equal(graph_distances(a, source), want[k])


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
        proc = LanczosProcess(a.matvec, rng.standard_normal(a.n))
        proc.advance(20)
        ritz = np.linalg.eigvalsh(proc.compressed())
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

    @pytest.mark.parametrize("side", [2, 3, 6])
    def test_laplace2d_is_the_kronecker_sum(self, side):
        t = 2.0 * np.eye(side) - np.eye(side, k=1) - np.eye(side, k=-1)
        a = gen_laplace2d(side)
        assert a.symmetry_flag
        assert np.array_equal(a.to_dense(), np.kron(np.eye(side), t) + np.kron(t, np.eye(side)))

    @pytest.mark.parametrize("n, pos", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 3), (9, 4)])
    def test_convdiff_matches_its_three_diagonals(self, n, pos):
        c, c_tilde = 10.0, 25.0
        a, b, c_vec = gen_convdiff1d(n, c, c_tilde, pos)
        h = 1.0 / (n + 1)
        want = (np.diag(np.full(n - 1, 1.0 / h**2 + c / (2.0 * h)), -1)
                + np.diag(np.full(n, -2.0 / h**2))
                + np.diag(np.full(n - 1, 1.0 / h**2 - c / (2.0 * h)), 1))
        assert not a.symmetry_flag and a.nnz == 3 * n - 2
        assert np.array_equal(a.to_dense(), want)
        delta = (c_tilde - c) / (2.0 * h)
        assert np.array_equal(b, np.eye(n)[pos])
        assert np.array_equal(c_vec, delta * (np.eye(n, k=-1)[pos] - np.eye(n, k=1)[pos]))

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

    def test_from_edges_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError, match="^self loops are not allowed$"):
            Graph.from_edges(3, [(0, 1), (2, 2)])
        for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 2), (1, 0)]):
            with pytest.raises(ValueError, match="^duplicate edges$"):
                Graph.from_edges(3, edges)
        assert Graph.from_edges(3, []).adjacency.nnz == 0
        assert sorted(Graph.from_edges(3, {(2, 0), (0, 1)}).edges()) == [(0, 1), (0, 2)]

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


def test_edit_sequence_matches_from_edges_without_revalidation(monkeypatch):
    """A remove/add sequence gives the CSR arrays of ``Graph.from_edges``
    of the final edge list, and no splice re-runs the graph validation."""
    rng = np.random.default_rng(7)
    n = 40
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {pairs[k] for k in rng.choice(len(pairs), 120, replace=False)}
    g = Graph.from_edges(n, sorted(edges))
    removals = sorted(edges)[::3]
    additions = [p for p in pairs if p not in edges][::17]
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self: pytest.fail("with_edge re-validated the graph"))
    for (i, j), present in [(e, False) for e in removals] + [(e, True) for e in additions]:
        g = g.with_edge(j, i, present) if (i + j) % 2 else g.with_edge(i, j, present)
        (edges.add if present else edges.discard)((i, j))
    monkeypatch.undo()
    assert_same_csr(g, Graph.from_edges(n, sorted(edges)))
    assert_same_csr(Graph(g.adjacency), g)


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


# Values of each kind of stored-Hermitian matrix; only real ones go on the
# diagonal, and 0/1 matrices keep a zero diagonal.
_KIND_VALUES = {"zero-one": [0.0, 1.0], "real": [0.0, 1.0, -2.5],
                "complex": [0.0, 1.0, -2.5, 1.0 + 2.0j, -0.5j]}


@st.composite
def hermitian_csr(draw):
    """0/1, real or complex matrices stored Hermitian and then perturbed: a
    value changed (for complex values possibly to its conjugate), a
    duplicate, a dropped or one-sided entry, or two columns of a row
    swapped out of order."""
    values = _KIND_VALUES[draw(st.sampled_from(sorted(_KIND_VALUES)))]
    diagonal = [0.0] if values == _KIND_VALUES["zero-one"] else [v for v in values if v == v.real]
    n = draw(st.integers(0, 5))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.sets(st.sampled_from(cells))) if cells else set()
    entries = []
    for i, j in sorted(chosen):
        v = draw(st.sampled_from(diagonal if i == j else values))
        entries += [(i, j, v), (j, i, np.conj(v))] if i != j else [(i, i, v)]
    entries.sort(key=lambda e: e[:2])
    for op in draw(st.lists(st.sampled_from(["flip", "dup", "drop", "extra", "swap"]),
                            max_size=2)):
        if op == "extra" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            bisect.insort(entries, (i, j, draw(st.sampled_from(values))), key=lambda e: e[:2])
        elif op != "extra" and entries:
            k = draw(st.integers(0, len(entries) - 1))
            i, j, v = entries[k]
            others = [w for w in values + [np.conj(v)] if w != v]
            if op == "flip" and (i != j or len(diagonal) > 1):
                entries[k] = (i, j, draw(st.sampled_from(others)))
            elif op == "dup":
                entries.insert(k, entries[k])
            elif op == "drop":
                del entries[k]
            elif op == "swap" and k + 1 < len(entries) and entries[k + 1][0] == i:
                entries[k], entries[k + 1] = entries[k + 1], entries[k]
    return csr_of_entries(n, entries)


def is_adjacency_apart_from_symmetry(a: SparseMatrix) -> bool:
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    return (not np.iscomplexobj(a.values) and bool(np.all((a.values == 0) | (a.values == 1)))
            and not np.any((rows == a.col_idx) & (a.values != 0)))


@settings(deadline=None, max_examples=300)
@given(hermitian_csr())
@example(csr_of_entries(0, []))
@example(csr_of_entries(3, [(0, 1, 0.0), (1, 0, 0.0), (2, 2, 0.0)]))  # stored zeros
@example(csr_of_entries(2, [(0, 1, 0.0), (1, 0, 1.0)]))  # stored zero against a one
@example(csr_of_entries(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)]))  # duplicate
@example(csr_of_entries(3, [(0, 2, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]))  # unsorted
@example(csr_of_entries(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)]))  # one-sided
@example(csr_of_entries(2, [(0, 1, 1 + 2j), (1, 0, 1 - 2j)]))  # Hermitian
@example(csr_of_entries(2, [(0, 1, 1 + 2j), (1, 0, 1 + 2j)]))  # complex symmetric
@example(csr_of_entries(1, [(0, 0, 1j)]))  # non-real diagonal
@example(csr_of_entries(2, [(0, 0, -2.5), (0, 1, -2.5), (1, 0, -2.5)]))  # real symmetric
def test_symmetry_check_matches_transpose_reference(a):
    if not is_adjacency_apart_from_symmetry(a):
        return
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


def _read_mm(text):
    return lambda tmp_path: load_matrix_market(write(tmp_path, text))


_MM = "%%MatrixMarket matrix "


@pytest.mark.parametrize("make, error, message", [
    (_read_mm(_MM + "coordinate real\n1 1 1\n1 1 1.0\n"), MatrixMarketError,
     "malformed header: '%%MatrixMarket matrix coordinate real'"),
    (_read_mm(_MM + "sparse real general\n1 1 1\n1 1 1.0\n"), MatrixMarketError,
     "unsupported format 'sparse'"),
    (_read_mm(_MM + "coordinate double general\n1 1 1\n1 1 1.0\n"), MatrixMarketError,
     "unsupported field 'double'"),
    (_read_mm(_MM + "array pattern general\n1 1\n1.0\n"), MatrixMarketError,
     "array format cannot use the pattern field"),
    (_read_mm(_MM + "coordinate real general\n% no size line\n\n"), MatrixMarketError,
     "missing size line"),
    (_read_mm(_MM + "coordinate real general\n2 2\n"), MatrixMarketError,
     "coordinate size line must be 'rows cols nnz'"),
    (_read_mm(_MM + "array real general\n2 2 4\n"), MatrixMarketError,
     "array size line must be 'rows cols'"),
    (lambda _: SparseMatrix(-1, [0], [], []), ValueError, "dimension must be nonnegative"),
    (lambda _: SparseMatrix(2, [0, 1], [0], [1.0]), ValueError, "row_ptr must have length n+1"),
    (lambda _: SparseMatrix(2, [0, 2, 1], [0], [1.0]), ValueError,
     "row_ptr must start at 0 and be nondecreasing"),
    (lambda _: SparseMatrix(2, [0, 1, 2], [0], [1.0]), ValueError,
     "row_ptr, col_idx and values are inconsistent"),
    (lambda _: SparseMatrix(2, [0, 1, 2], [0, 2], [1.0, 1.0]), ValueError,
     "column index out of range"),
    (lambda _: SparseMatrix.from_coo(2, [0], [2], [1.0]), ValueError, "index out of range"),
    (lambda _: SparseMatrix.from_dense(np.ones((2, 3))), ValueError, "square matrix required"),
    (lambda _: Graph.from_edges(3, [(0, 1)]).with_edge(1, 1, True), ValueError,
     "self loops are not allowed"),
    (lambda _: Graph.from_edges(3, [(0, 1)]).has_edge(0.5, 1), ValueError,
     "node 0.5 is not an integer"),
    (lambda _: Graph.from_edges(3, [(0, 1)]).has_edge(1, 2.0), ValueError,
     "node 2.0 is not an integer"),
    (lambda _: gen_convdiff1d(2, 1.0, 2.0, 0), ValueError, "need at least 3 interior points"),
], ids=["malformed-header", "format", "field", "array-pattern", "missing-size-line",
        "coordinate-size-arity", "array-size-arity", "negative-n", "row-ptr-length",
        "row-ptr-order", "inconsistent-lengths", "column-range", "coo-range", "non-square-dense",
        "self-loop-edit", "fractional-node", "float-node", "convdiff-too-small"])
def test_typed_input_errors(tmp_path, make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(tmp_path)
