import csv
import json
import os
import threading
import time

import numpy as np
import pytest

from funupdate import (FunctionSpec, Graph, OracleScaleError, SolveOptions, SparseMatrix, cli,
                       densefun, gen_convdiff1d)
from funupdate.cli import (_CSV_CHUNK_ROWS, EdgeOp, _fmt, _solve_options, build_parser, main,
                           subgraph_centrality_baseline, update_subgraph_centrality,
                           write_matrix_csv, write_rows_csv)
from funupdate.densefun import eval_matrix_function
from helpers import MIRRORED_DUPLICATES

IDENTITY3 = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 2 1.0
3 3 1.0
"""

GENERAL3 = """%%MatrixMarket matrix coordinate real general
3 3 4
1 1 2.0
1 2 1.0
2 2 2.0
3 3 2.0
"""

K2 = """%%MatrixMarket matrix coordinate pattern symmetric
2 2 1
2 1
"""

P3 = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestUpdateCommand:
    def test_identity_exponential_converges_at_one_step(self, tmp_path):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "e1", "--check", "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] and report["steps"] == 1
        assert report["algorithm"] == "hermitian"
        assert report["true_error"] <= 1e-12
        _, xrows = read_csv(out / "X.csv")
        assert float(xrows[0][0]) == pytest.approx(np.exp(2.0) - np.exp(1.0))
        _, urows = read_csv(out / "U.csv")
        assert [float(r[0]) for r in urows] == [1.0, 0.0, 0.0]

    def test_unknown_function_is_usage_error(self, tmp_path):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        with pytest.raises(SystemExit) as exc:
            main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "sinh",
                  "--b", "e1"])
        assert exc.value.code == 2

    def test_unreachable_tolerance_exits_3_but_writes_factor(self, tmp_path):
        n = 12
        lines = [f"%%MatrixMarket matrix coordinate real general", f"{n} {n} {3 * n - 2}"]
        for i in range(1, n + 1):
            lines.append(f"{i} {i} 2.0")
            if i < n:
                lines.append(f"{i} {i + 1} -1.5")
                lines.append(f"{i + 1} {i} -0.5")
        (tmp_path / "a.mtx").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--c", "e1", "--tol", "1e-30", "--max-m", "6",
                     "--lookahead", "1", "--output-dir", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert not report["converged"]
        assert (out / "U.csv").exists() and (out / "X.csv").exists() and (out / "V.csv").exists()

    def test_downdate_requires_symmetric_same_vectors(self, tmp_path):
        (tmp_path / "a.mtx").write_text(GENERAL3)
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "e1", "--sign", "minus"])
        assert code == 2

    @pytest.mark.parametrize("text,position", MIRRORED_DUPLICATES.values(),
                             ids=MIRRORED_DUPLICATES.keys())
    def test_position_given_twice_is_input_error(self, tmp_path, capsys, text, position):
        (tmp_path / "a.mtx").write_text(text)
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "e1", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"position {position} more than once" in err

    def test_domain_error_exits_4(self, tmp_path):
        # downdating the identity by ones ones^T drags the spectrum to -2,
        # where the inverse square root is undefined
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "invsqrt",
                     "--b", "ones", "--sign", "minus",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 4

    def test_non_finite_operator_output_exits_4(self, tmp_path, capsys):
        (tmp_path / "a.mtx").write_text(GENERAL3.replace("2 2 2.0", "2 2 nan"))
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--output-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "NonFiniteOperatorError" in err and "ArnoldiProcess step 1" in err

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_huge_finite_entries_reach_the_domain_check(self, tmp_path, capsys, symmetry):
        # |A b| is about 2e308: the Krylov step must not report it as a
        # non-finite operator output; invsqrt then fails on -1.5e308 and
        # exp overflows on 1.5e308, neither writing a factor
        (tmp_path / "a.mtx").write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                                        "2 2 2\n1 1 1.5e308\n2 2 -1.5e308\n")
        for function in ("invsqrt", "exp"):
            out = tmp_path / function
            with np.errstate(all="ignore"):
                code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function",
                             function, "--b", "ones", "--output-dir", str(out)])
            assert code == 4 and not (out / "X.csv").exists()
            err = capsys.readouterr().err
            assert "NonFiniteOperatorError" not in err
            if function == "exp":
                assert "exp of the compressed matrix is not finite" in err
            else:
                assert "invsqrt undefined" in err
                closest = float(err.split("closest: ")[1].rstrip(")\n"))
                assert closest == pytest.approx(-1.5e308, rel=1e-12)

    def test_general_against_dense_check(self, tmp_path):
        (tmp_path / "a.mtx").write_text(GENERAL3)
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--c", "e2", "--tol", "1e-10", "--check",
                     "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "general"
        assert report["true_error"] <= 1e-9

    def test_random_vectors_check_uses_solved_pair(self, tmp_path):
        # the trailing space makes --c a distinct spec, so b and c are two
        # consecutive draws from the seeded stream; the dense check must
        # compare against the same pair the solver used
        (tmp_path / "a.mtx").write_text(GENERAL3)
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "randn", "--c", "randn ", "--seed", "9", "--tol", "1e-10",
                     "--check", "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "general"
        assert report["true_error"] <= 1e-9

    def test_hermitian_v_file_equals_u_file(self, tmp_path):
        n = 8
        lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {2 * n - 1}"]
        for i in range(1, n + 1):
            lines.append(f"{i} {i} 2.0")
            if i < n:
                lines.append(f"{i + 1} {i} -1.0")
        (tmp_path / "a.mtx").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "invsqrt",
                     "--b", "randn", "--seed", "3", "--tol", "1e-10", "--output-dir", str(out)])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["algorithm"] == "hermitian"
        u_bytes = (out / "U.csv").read_bytes()
        assert u_bytes.count(b"\r\n") == n + 1
        assert (out / "V.csv").read_bytes() == u_bytes

    @pytest.mark.parametrize("function", ["invsqrt", "invpower:0.5"])
    def test_real_nonnormal_problem_writes_real_x(self, tmp_path, function):
        """-A of a 1-D convection-diffusion operator at cell Peclet 3.9: the
        compressed block has complex eigenvalues and eigenvector condition
        above 1e6. f(M) of a real M is real, so X.csv holds no complex
        values, whichever dense path evaluates it."""
        a, _, _ = gen_convdiff1d(40, 200.0, 100.0, 19)
        rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr)).tolist()
        (tmp_path / "a.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"{a.n} {a.n} {a.nnz}\n"
            + "".join(f"{i + 1} {j + 1} {-v!r}\n"
                      for i, j, v in zip(rows, a.col_idx.tolist(), a.values.tolist())))
        rng = np.random.default_rng(0)
        for name in ("b", "c"):
            (tmp_path / f"{name}.txt").write_text(
                "".join(f"{v!r}\n" for v in rng.standard_normal(a.n).tolist()))
        out = tmp_path / "out"
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", function,
                     "--b", str(tmp_path / "b.txt"), "--c", str(tmp_path / "c.txt"),
                     "--tol", "1e-8", "--max-m", "40", "--check", "--output-dir", str(out)]) == 0
        assert "j" not in (out / "X.csv").read_text()
        x = np.loadtxt(out / "X.csv", delimiter=",", skiprows=1, ndmin=2)
        assert x.shape == (40, 40) and np.all(np.isfinite(x))
        report = json.loads((out / "report.json").read_text())
        assert report["true_error_relative"] <= 1e-6


def reference_matrix_csv(path, m):
    """The csv-module writer that ``write_matrix_csv`` must match byte for byte."""
    m = np.atleast_2d(np.asarray(m))
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(m.shape[1])])
        for row in m.tolist():
            writer.writerow([_fmt(v) for v in row])


def _special_floats():
    return np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1e308], [0.1, 1.0, -2.5e-17]])


def _long_block():
    rng = np.random.default_rng(4)
    return rng.standard_normal((2 * _CSV_CHUNK_ROWS + 7, 3)) * 10.0 ** rng.integers(-30, 30, 3)


class TestMatrixCsvWriter:
    @pytest.mark.parametrize("block", [
        _special_floats(),
        np.array([[1 + 2j, -0.0 - 1e-300j], [complex(np.nan, np.inf), 3j]]),
        np.array([[0, -1, 2**62], [7, 8, -(2**63)]], dtype=np.int64),
        np.linspace(-1.0, 1.0, 9),
        np.zeros((0, 4)),
        _long_block(),
        _long_block().astype(np.float32),
        _special_floats() > 0.5,
        _special_floats().astype(np.longdouble),
        (_special_floats() + 1j).astype(np.clongdouble),
    ], ids=["float64-special", "complex128", "int64", "vector", "zero-rows",
            "chunk-crossing", "float32", "bool", "longdouble", "clongdouble"])
    def test_bytes_match_csv_module_writer(self, tmp_path, block):
        write_matrix_csv(tmp_path / "new.csv", block)
        reference_matrix_csv(tmp_path / "ref.csv", block)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_loadtxt_reads_float64_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(8)
        block = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-300, 300, (300, 5))
        write_matrix_csv(tmp_path / "m.csv", block)
        back = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back.view(np.uint64), block.view(np.uint64))

    @pytest.mark.parametrize("block", [np.zeros((2, 2, 2)), np.array([["a", "b"]])])
    def test_rejects_non_matrix_input(self, tmp_path, block):
        with pytest.raises(ValueError, match="numeric block required"):
            write_matrix_csv(tmp_path / "m.csv", block)


class TestRowsCsvWriter:
    def test_bytes_match_csv_module_writer(self, tmp_path):
        header = ["kind", "i", "value", "z"]
        rows = [("add", 3, 0.1, 1 + 2j), ("NA", np.int64(-7), np.float32(2.5), np.complex64(-1j)),
                ("remove", 0, -0.0, complex(np.nan, np.inf)), (True, 2**70, 1e-300, "x")]
        write_rows_csv(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "two\nlines"])
    def test_rejects_field_that_needs_quoting(self, tmp_path, field):
        with pytest.raises(ValueError, match="would need quoting"):
            write_rows_csv(tmp_path / "r.csv", ["h"], [(field,)])


class TestCentralityCommand:
    def test_single_edge_removal(self, tmp_path):
        (tmp_path / "g.mtx").write_text(K2)
        (tmp_path / "edits.csv").write_text("remove,0,1\n")
        out = tmp_path / "out"
        code = main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"), "--output-dir", str(out)])
        assert code == 0
        header, rows = read_csv(out / "centrality.csv")
        assert header == ["node", "centrality_before", "centrality_after"]
        for row in rows:
            assert float(row[1]) == pytest.approx(0.5, abs=1e-12)
            assert float(row[2]) == pytest.approx(0.5, abs=1e-9)
        report = json.loads((out / "report.json").read_text())
        assert report["trace_before"] == pytest.approx(2.0 * np.cosh(1.0))
        assert report["trace_after"] == pytest.approx(2.0, abs=1e-8)

    def test_path_graph_closed_into_triangle(self, tmp_path):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "edits.csv").write_text("add,0,2\n")
        out = tmp_path / "out"
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--tol", "1e-10", "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "centrality.csv")
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_no_edits_is_normalized_baseline(self, tmp_path):
        (tmp_path / "g.mtx").write_text(P3)
        out = tmp_path / "out"
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "centrality.csv")
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(r[1] == r[2] for r in rows)

    def test_invalid_edit_is_input_error(self, tmp_path):
        (tmp_path / "g.mtx").write_text(K2)
        (tmp_path / "edits.csv").write_text("add,0,1\n")  # edge already present
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("row", ["add,0,5", "remove,7,1"])
    def test_out_of_range_node_is_input_error(self, tmp_path, capsys, row):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "edits.csv").write_text(row + "\n")
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        bad = max(int(v) for v in row.split(",")[1:])
        assert f"node {bad} " in capsys.readouterr().err


class TestCentralityBaseline:
    def test_matches_dense_exponential_diagonal(self):
        rng = np.random.default_rng(7)
        # nodes 250..299 stay isolated
        pairs = {tuple(sorted(p)) for p in rng.integers(0, 250, size=(900, 2)) if p[0] != p[1]}
        graph = Graph.from_edges(300, sorted(pairs))
        ref = np.diag(eval_matrix_function(graph.adjacency.to_dense(), FunctionSpec.exp()))
        got = subgraph_centrality_baseline(graph)
        assert got.shape == (300,) and got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * ref.max())

    def test_oracle_scale_guard_precedes_dense_work(self, monkeypatch):
        graph = Graph.from_edges(2001, [(0, 1), (5, 2000), (17, 42)])

        def no_dense(*args, **kwargs):
            raise AssertionError("dense work before the scale guard")

        monkeypatch.setattr(SparseMatrix, "to_dense", no_dense)
        monkeypatch.setattr(densefun, "eigen_decompose", no_dense)
        with pytest.raises(OracleScaleError):
            subgraph_centrality_baseline(graph)


def sequential_centrality(graph, edits, opts):
    """Reference order of work: the whole baseline first, then each edit's
    correction added to the running diagonal."""
    diag = subgraph_centrality_baseline(graph)
    baseline = diag.copy()
    current = graph
    records = []
    for op in edits:
        factors = cli.rank_k_update(current.adjacency.matvec, current.adjacency.matvec,
                                    cli.edge_modification(op, current.n), FunctionSpec.exp(),
                                    opts)
        delta = np.zeros(current.n)
        for fac in factors:
            delta += cli.extract_diagonal(fac).real
        diag = diag + delta
        current = current.with_edge(op.i, op.j, op.kind == "add")
        records.append({
            "kind": op.kind, "i": op.i, "j": op.j,
            "steps": [int(f.m) for f in factors],
            "estimates": [float(f.estimate_history[-1][1]) if f.estimate_history else 0.0
                          for f in factors],
            "converged": all(f.converged for f in factors),
        })
    return baseline, diag, records


def random_graph_and_edits(n=300, count=20, seed=5):
    """Random graph with ~4n edges and edits alternating remove and add."""
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(4 * n, 2)) if p[0] != p[1]}
    graph = Graph.from_edges(n, sorted(pairs))
    present = sorted(pairs)
    edits = []
    while len(edits) < count:
        if len(edits) % 2 == 0:
            i, j = present.pop(int(rng.integers(len(present))))
            edits.append(EdgeOp("remove", i, j))
        else:
            i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
            if i != j and (i, j) not in pairs:
                pairs.add((i, j))
                edits.append(EdgeOp("add", i, j))
    return graph, edits


def write_graph_mtx(path, graph):
    lines = [f"{j + 1} {i + 1}" for i, j in graph.edges()]
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                    f"{graph.n} {graph.n} {len(lines)}\n" + "\n".join(lines) + "\n")


class TestCentralityOverlap:
    """The baseline runs on a worker thread while the edits are solved."""

    @pytest.mark.parametrize("release_at", [None, 1, 10, 20])
    def test_bitwise_equal_to_sequential(self, monkeypatch, release_at):
        """Same diagonals and records whichever edit the baseline finishes
        during; release_at holds the baseline until that many solves ran."""
        graph, edits = random_graph_and_edits()
        opts = SolveOptions(tol=1e-8)
        want_base, want_diag, want_records = sequential_centrality(graph, edits, opts)
        start = threading.active_count()
        if release_at is not None:
            # a held baseline needs the concurrent path, taken on two cores
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            release, solves = threading.Event(), []
            real_baseline, real_solve = cli.subgraph_centrality_baseline, cli.rank_k_update

            def held_baseline(g):
                assert release.wait(timeout=60)
                return real_baseline(g)

            def counted_solve(*args):
                solves.append(1)
                if len(solves) == release_at:
                    release.set()
                return real_solve(*args)

            monkeypatch.setattr(cli, "subgraph_centrality_baseline", held_baseline)
            monkeypatch.setattr(cli, "rank_k_update", counted_solve)
        got = update_subgraph_centrality(graph, edits, opts)
        assert threading.active_count() == start
        for key, want in (("baseline_diag", want_base), ("diag", want_diag)):
            assert got[key].dtype == np.float64
            np.testing.assert_array_equal(got[key].view(np.uint64), want.view(np.uint64))
        assert got["edits"] == want_records
        assert got["diag"] is not got["baseline_diag"]

    def test_one_core_waits_for_the_baseline(self, monkeypatch):
        """With one usable core the baseline is finished before the first
        solve, and the diagonal is bit for bit the concurrent path's."""
        graph, edits = random_graph_and_edits(n=120, count=6)
        opts = SolveOptions(tol=1e-8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        concurrent = update_subgraph_centrality(graph, edits, opts)
        real_baseline, real_solve = cli.subgraph_centrality_baseline, cli.rank_k_update
        finished, done_at_solve = [], []

        def marked_baseline(g):
            out = real_baseline(g)
            finished.append(1)
            return out

        def checked_solve(*args):
            done_at_solve.append(bool(finished))
            return real_solve(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "subgraph_centrality_baseline", marked_baseline)
        monkeypatch.setattr(cli, "rank_k_update", checked_solve)
        one_core = update_subgraph_centrality(graph, edits, opts)
        assert done_at_solve == [True] * len(edits)
        for key in ("baseline_diag", "diag"):
            assert np.array_equal(one_core[key], concurrent[key])
        assert one_core["edits"] == concurrent["edits"]

    def test_invalid_edit_while_baseline_runs_is_input_error(self, tmp_path, monkeypatch,
                                                             capsys):
        graph, edits = random_graph_and_edits(n=60, count=6)
        bad = edits[1]  # an add, repeated below once the edge exists
        write_graph_mtx(tmp_path / "g.mtx", graph)
        rows = [f"{op.kind},{op.i},{op.j}" for op in edits[:3]]
        rows.insert(2, f"add,{bad.i},{bad.j}")
        (tmp_path / "edits.csv").write_text("\n".join(rows) + "\n")
        real_baseline = cli.subgraph_centrality_baseline
        finished = []

        def slow_baseline(g):
            time.sleep(0.5)
            finished.append(1)
            return real_baseline(g)

        monkeypatch.setattr(cli, "subgraph_centrality_baseline", slow_baseline)
        start = threading.active_count()
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert threading.active_count() == start
        assert finished  # the worker was joined, not abandoned
        assert f"error: cannot add existing edge ({bad.i}, {bad.j})" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_scale_guard_precedes_any_solve(self, monkeypatch):
        graph = Graph.from_edges(2001, [(0, 1), (5, 2000), (17, 42)])

        def no_solve(*args, **kwargs):
            raise AssertionError("solve before the scale guard")

        monkeypatch.setattr(cli, "rank_k_update", no_solve)
        monkeypatch.setattr(cli, "subgraph_centrality_baseline", no_solve)
        start = threading.active_count()
        with pytest.raises(OracleScaleError):
            update_subgraph_centrality(graph, [EdgeOp("remove", 0, 1)], SolveOptions())
        assert threading.active_count() == start

    def test_baseline_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        graph, edits = random_graph_and_edits(n=60, count=4)
        write_graph_mtx(tmp_path / "g.mtx", graph)
        (tmp_path / "edits.csv").write_text(
            "".join(f"{op.kind},{op.i},{op.j}\n" for op in edits))

        real_decompose = densefun.eigen_decompose

        def no_convergence_on_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_decompose(*args, **kwargs)

        monkeypatch.setattr(densefun, "eigen_decompose", no_convergence_on_worker)
        start = threading.active_count()
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 4
        assert threading.active_count() == start
        assert "error: Eigenvalues did not converge" in capsys.readouterr().err


def test_edge_op_validation():
    from funupdate.cli import EdgeOp

    with pytest.raises(ValueError):
        EdgeOp("toggle", 0, 1)
    with pytest.raises(ValueError):
        EdgeOp("add", 3, 3)
    with pytest.raises(ValueError):
        EdgeOp("remove", -1, 2)


class TestBoundsCommand:
    def test_hpd_table_is_geometric(self, tmp_path):
        spec = {"kind": "markov-hpd", "kappa_star": 101.0, "function": "invsqrt",
                "omega": 0.1, "m_min": 1, "m_max": 60}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["m", "bound", "rate"] and len(rows) == 60
        bounds = [float(r[1]) for r in rows]
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(abs(r - 0.8197) <= 1e-3 for r in ratios)

    def test_wedge_below_window_marked_na(self, tmp_path):
        spec = {"kind": "exp-wedge", "psi1": 0.0, "rho": 101.0, "alpha": 1.5,
                "m_min": 1, "m_max": 10}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(r[1] == "NA" for r in rows)

    def test_chebyshev_polynomial_rows_are_zero(self, tmp_path):
        spec = {"kind": "chebyshev", "function": "poly:1,2,0.5", "interval": [-1.0, 1.0],
                "m_min": 2, "m_max": 6}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "b.csv"
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "exp-superlinear", "rho": 2.0}, "missing the key 'psi1'"),
        ([{"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0}], "must be a JSON object"),
        ({"kind": "markov", "interval": [0.1], "beta": 0.05, "function": "invsqrt"},
         "key 'interval' must be a list of 2 numbers"),
        ({"kind": "exp-superlinear", "psi1": 0.0, "rho": [2.0]}, "key 'rho' must be a number"),
        ({"kind": "chebyshev", "function": "exp", "interval": 3},
         "key 'interval' must be a list of 2 numbers"),
        ({"kind": "chebyshev", "function": 3, "interval": [1, 2]},
         "key 'function' must be a string"),
        # spec text as written: json reads 1e400 as inf
        ('{"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0, "m_max": 1e400}',
         "key 'm_max' must be a finite integer"),
        ({"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0, "m_min": 2.5},
         "key 'm_min' must be a finite integer"),
    ], ids=["missing-key", "array", "short-interval", "list-for-number", "number-for-interval",
            "number-for-function", "infinite-m-max", "fractional-m-min"])
    def test_bad_spec_is_input_error(self, tmp_path, capsys, spec, message):
        text = spec if isinstance(spec, str) else json.dumps(spec)
        (tmp_path / "spec.json").write_text(text)
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "b.csv").exists()


def test_update_and_centrality_share_solve_options():
    parser = build_parser()
    update = ["update", "--matrix", "a.mtx", "--function", "exp", "--b", "e1"]
    centrality = ["centrality", "--graph", "g.mtx"]
    assert _solve_options(parser.parse_args(update)) == SolveOptions()
    assert _solve_options(parser.parse_args(centrality)) == SolveOptions()
    flags = ["--tol", "1e-9", "--lookahead", "3", "--max-m", "77", "--batch", "4"]
    want = SolveOptions(tol=1e-9, lookahead_d=3, max_m=77, batch=4)
    assert _solve_options(parser.parse_args(update + flags)) == want
    assert _solve_options(parser.parse_args(centrality + flags)) == want


class TestDemoCommand:
    def test_exp_interval_dominance(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "exp-interval", "--seed", "3",
                     "--size", "60", "--max-m", "24", "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "exp_interval.csv")
        applicable = [(float(r[1]), float(r[2])) for r in rows if r[2] != "NA"]
        assert applicable
        assert all(err <= bound for err, bound in applicable)

    def test_markov_demo_dominance(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "markov-invsqrt", "--seed", "5",
                     "--size", "50", "--max-m", "30", "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "markov_invsqrt.csv")
        assert all(float(r[1]) <= float(r[2]) for r in rows)

    def test_estimator_demo_columns(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "estimator-invsqrt", "--seed", "1",
                     "--size", "6", "--max-m", "18", "--output-dir", str(out)]) == 0
        header, rows = read_csv(out / "estimator_invsqrt.csv")
        assert header == ["m", "true_error", "estimate_d1", "estimate_d2", "estimate_d3"]
        assert len(rows) >= 10

    def test_reorth_demo(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "reorth-comparison", "--seed", "2",
                     "--size", "40", "--max-m", "25", "--output-dir", str(out)]) == 0
        header, rows = read_csv(out / "reorth_comparison.csv")
        assert len(rows) == 25

    def test_exp_wedge_smoke(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "exp-wedge", "--seed", "4",
                     "--size", "100", "--max-m", "48", "--output-dir", str(out)]) == 0
        _, rows = read_csv(out / "exp_wedge.csv")
        assert any(r[2] != "NA" for r in rows)

    def test_convdiff_smoke(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "convdiff", "--seed", "6",
                     "--size", "64", "--max-m", "60", "--output-dir", str(out)]) == 0
        report = json.loads((out / "convdiff.json").read_text())
        assert set(report["steps_to_1e-6"]) == {"20", "40", "60"}

    def test_decay_smoke_confined(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--name", "decay", "--seed", "7",
                     "--size", "120", "--output-dir", str(out)]) == 0
        report = json.loads((out / "decay.json").read_text())
        assert report["confined"]
        assert report["max_entry_outside_level_set"] < 1e-10

    def test_seeded_runs_are_bitwise_reproducible(self, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"demo{run}"
            assert main(["demo", "--name", "markov-invsqrt", "--seed", "11",
                         "--size", "30", "--max-m", "15", "--output-dir", str(out)]) == 0
            outs.append((out / "markov_invsqrt.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_demo_name(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--name", "nope", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
