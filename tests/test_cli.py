import csv
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import funupdate
from funupdate import (FunctionSpec, GeneralProblem, Graph, OracleScaleError, SolveOptions,
                       SparseMatrix, cli, decay_params_from_matrix, dense_update_reference,
                       densefun, gen_convdiff1d, gen_laplace2d, graph_distances,
                       stieltjes_update_decay)
from funupdate.cli import (_CSV_CHUNK_ROWS, EdgeOp, _fmt, _solve_options, build_parser, main,
                           subgraph_centrality_baseline, update_subgraph_centrality,
                           write_matrix_csv, write_rows_csv)
from funupdate.densefun import eval_matrix_function
from helpers import MIRRORED_DUPLICATES, tridiag_sparse

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


# The CSV of each demo that holds one row per swept step or distance.
DEMO_CSVS = {"reorth-comparison": "reorth_comparison.csv",
             "estimator-invsqrt": "estimator_invsqrt.csv", "exp-interval": "exp_interval.csv",
             "exp-wedge": "exp_wedge.csv", "markov-invsqrt": "markov_invsqrt.csv",
             "convdiff": "convdiff.csv", "decay": "decay_profile.csv"}


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

    @pytest.mark.parametrize("name", ["exp:5", "invsqrt:abc", "inverse:", "log1p-over-z:2",
                                      "resolvent:nan", "resolvent:inf"])
    def test_function_name_with_a_bad_parameter_is_usage_error(self, tmp_path, capsys, name):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        with pytest.raises(SystemExit) as exc:
            main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", name,
                  "--b", "e1", "--output-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert repr(name) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,reason", [
        ("exp:5", "function 'exp' takes no parameter, got 'exp:5'"),
        ("resolvent:nan", "resolvent needs a finite shift"),
    ])
    def test_rejected_function_name_states_the_reason(self, tmp_path, capsys, name, reason):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        with pytest.raises(SystemExit) as exc:
            main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", name, "--b", "e1"])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err

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
                     "--output-dir", str(out)])
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

    def test_nan_in_symmetric_file_is_non_finite_operator_output(self, tmp_path, capsys):
        (tmp_path / "a.mtx").write_text(IDENTITY3.replace("2 2 1.0", "2 2 nan"))
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--output-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "NonFiniteOperatorError" in err and "step 1" in err

    def test_non_real_hermitian_diagonal_is_input_error(self, tmp_path, capsys):
        (tmp_path / "a.mtx").write_text("%%MatrixMarket matrix coordinate complex hermitian\n"
                                        "2 2 2\n1 1 2.0 1.0\n2 2 3.0 0.0\n")
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(1, 1)" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_overflow_prints_only_the_typed_error(self, tmp_path, symmetry):
        # the console script, so that numpy warnings would reach stderr
        (tmp_path / "a.mtx").write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                                        "2 2 2\n1 1 1.5e308\n2 2 -1.5e308\n")
        src = str(Path(funupdate.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "funupdate.cli", "update", "--matrix",
                              str(tmp_path / "a.mtx"), "--function", "exp", "--b", "ones",
                              "--output-dir", str(tmp_path / "out")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 4
        assert run.stderr == ("error: exp of the compressed matrix is not finite at m = 2: "
                              "f overflows on its spectrum\n")

    def test_report_counts_the_basis_built_past_the_stop(self, tmp_path):
        a = gen_laplace2d(20)
        rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
        lower = rows >= a.col_idx
        (tmp_path / "a.mtx").write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            f"{a.n} {a.n} {int(lower.sum())}\n"
            + "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in
                      zip(rows[lower].tolist(), a.col_idx[lower].tolist(),
                          a.values[lower].tolist())))
        out = tmp_path / "out"
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "invsqrt",
                     "--b", "e1", "--tol", "1e-10", "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        ms = [h["m"] for h in report["history"]]
        assert ms == sorted(ms) and ms[-1] == report["steps"] - report["lookahead"]
        assert report["history"][-1]["estimate"] <= 1e-10
        assert report["basis_dimension"] > report["steps"]

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

    def test_check_scale_guard_precedes_the_solve(self, tmp_path, monkeypatch, capsys):
        n = 2001
        (tmp_path / "a.mtx").write_text(
            f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n}\n"
            + "".join(f"{i} {i} 2.0\n" for i in range(1, n + 1)))

        def no_solve(*args, **kwargs):
            raise AssertionError("solve before the --check scale guard")

        monkeypatch.setattr(cli, "hermitian_update", no_solve)
        monkeypatch.setattr(cli, "general_update", no_solve)
        out = tmp_path / "out"
        code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "invsqrt",
                     "--b", "e1", "--check", "--output-dir", str(out)])
        assert code == 4
        assert "matrix too large for --check" in capsys.readouterr().err
        assert not any((out / name).exists() for name in ("U.csv", "X.csv", "V.csv", "report.json"))

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


class TestVectorFile:
    def test_values_parse_as_python_complex(self, tmp_path):
        tokens = ["1.5", "-0.0", "(3-4j)", "nan", "-inf+1j", "5e-324", "1e308", "-2j"]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens[:4]) + "\n\n  " + "\n".join(tokens[4:]) + "\n")
        vec = cli.parse_vector_spec(str(path), len(tokens), None)
        assert vec.tobytes() == np.array([complex(t) for t in tokens]).tobytes()

    def test_real_file_gives_a_real_vector(self, tmp_path):
        tokens = ["0.1", "-0.0", "inf", "1e-310"]
        (tmp_path / "v.txt").write_text("".join(f"{t}\n" for t in tokens))
        vec = cli.parse_vector_spec(str(tmp_path / "v.txt"), 4, None)
        assert vec.dtype == np.float64 and vec.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    @pytest.mark.parametrize("text, message", [("1.0 2.0\n3.0 4.0\n", "one value per line"),
                                               ("1.0\n2.0\n", "length 2, expected 3"),
                                               ("", "length 0, expected 3"),
                                               ("1.0\nabc\n2.0\n", "could not convert")])
    def test_bad_file_is_input_error(self, tmp_path, capsys, text, message):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        (tmp_path / "v.txt").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                         "--b", str(tmp_path / "v.txt"), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("text, where", [
        ("1.0 2.0 3.0\n", "v.txt, line 1: 3 values, but a vector file holds one value per line"),
        ("\n1.0\n2.0, 3.0\n3.0\n", "the number of columns changed from 1 to 2 at line 3"),
        ("1.0\n\n2.0\n3.0,\n", "could not convert string '3.0,' to complex128 at line 4")],
        ids=["three-on-one-line", "two-on-a-later-line", "trailing-comma"])
    def test_line_not_holding_one_value_is_named(self, tmp_path, capsys, text, where):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        (tmp_path / "v.txt").write_text(text)
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", str(tmp_path / "v.txt"), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'v.txt'}") and where in err
        assert "usecols" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", ["e0", "e4"])
    def test_unit_vector_index_out_of_range_is_input_error(self, tmp_path, capsys, spec):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", spec, "--output-dir", str(tmp_path / "o")]) == 2
        assert f"error: unit vector index {spec[1:]} outside 1..3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestNonAsciiInput:
    """A byte that is not ASCII in any input file is an input error that
    names the file and the line of the first such byte."""

    @pytest.mark.parametrize("argv, name, text, line", [
        (["update", "--matrix", "{bad}", "--function", "exp", "--b", "ones",
          "--output-dir", "{out}"],
         "bad.mtx", IDENTITY3.replace("2 2 1.0", "2 2 1.0 % caf\u00e9"), 4),
        (["centrality", "--graph", "{p3}", "--edits", "{bad}", "--output-dir", "{out}"],
         "bad.csv", "add,0,2\n# caf\u00e9\n", 2),
        (["update", "--matrix", "{identity}", "--function", "exp", "--b", "{bad}",
          "--output-dir", "{out}"],
         "bad.txt", "1.0\n2.0\n3.0 \u00e9\n", 3),
        (["bounds", "--spec", "{bad}", "--output", "{out}/b.csv"],
         "bad.json", '{"kind": "chebyshev",\n "function": "exp\u00e9", "interval": [1, 2]}\n', 2),
    ], ids=["matrix", "edits", "vector", "spec"])
    def test_names_the_file_and_line(self, tmp_path, capsys, argv, name, text, line):
        (tmp_path / "p3.mtx").write_text(P3)
        (tmp_path / "identity.mtx").write_text(IDENTITY3)
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths = {k: str(tmp_path / f) for k, f in
                 (("bad", name), ("p3", "p3.mtx"), ("identity", "identity.mtx"), ("out", "o"))}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / name}, line {line}: "
                                           "byte 0xc3 is not ASCII\n")
        assert not (tmp_path / "o").exists()


def _general_update(tmp_path, out):
    """``funupdate update`` of exp on a 30x30 nonsymmetric tridiagonal matrix
    with b = ones and a seeded random c."""
    mtx = tmp_path / "general.mtx"
    if not mtx.exists():
        n = 30
        entries = [(i, i, 2.0) for i in range(n)]
        entries += [(i + 1, i, -1.2) for i in range(n - 1)] + [(i, i + 1, -0.8) for i in range(n - 1)]
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"{n} {n} {len(entries)}\n"
                       + "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in entries))
    return main(["update", "--matrix", str(mtx), "--function", "exp", "--b", "ones",
                 "--c", "randn", "--seed", "4", "--tol", "1e-10", "--output-dir", str(out)])


def _factor_bytes(out):
    return [(out / f"{k}.csv").read_bytes() for k in "UXV"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls, with two usable cores whatever the machine has."""
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def _no_fork():
    raise AssertionError("os.fork called")


class TestUpdateFactorCsvs:
    """V.csv of a general factor is written by a forked child while the
    parent writes U.csv and X.csv, when a second core is usable."""

    def test_forked_bytes_equal_serial_bytes(self, tmp_path, monkeypatch, forks):
        assert _general_update(tmp_path, tmp_path / "forked") == 0
        # the solve starts no thread, so the general path forks
        assert forks == [1]
        _assert_no_child_left()
        forked = _factor_bytes(tmp_path / "forked")
        assert json.loads((tmp_path / "forked" / "report.json").read_text())["algorithm"] == "general"
        assert forked[0].count(b"\r\n") == 31 and forked[0] != forked[2]

        monkeypatch.setattr(os, "fork", _no_fork)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        assert _general_update(tmp_path, tmp_path / "one_core") == 0
        assert _factor_bytes(tmp_path / "one_core") == forked

        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert _general_update(tmp_path, tmp_path / "no_fork") == 0
        assert _factor_bytes(tmp_path / "no_fork") == forked

    def test_live_thread_means_no_fork(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "fork", _no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert _general_update(tmp_path, tmp_path / "out") == 0
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (tmp_path / "out" / "V.csv").stat().st_size > 0

    @pytest.mark.parametrize("cores", [1, 2])
    def test_unwritable_v_is_input_error(self, tmp_path, monkeypatch, capsys, forks, cores):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        (tmp_path / "out" / "V.csv").mkdir(parents=True)
        assert _general_update(tmp_path, tmp_path / "out") == 2
        assert len(forks) == (cores > 1)
        _assert_no_child_left()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "V.csv" in err.splitlines()[-1]
        assert "Traceback" not in err
        assert (tmp_path / "out" / "X.csv").stat().st_size > 0

    def test_failing_u_write_still_reaps_the_child(self, tmp_path, monkeypatch, capsys, forks):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        assert _general_update(tmp_path, tmp_path / "serial") == 0
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        (tmp_path / "out" / "U.csv").mkdir(parents=True)
        assert _general_update(tmp_path, tmp_path / "out") == 2
        assert forks == [1]
        _assert_no_child_left()
        assert "U.csv" in capsys.readouterr().err
        assert (tmp_path / "out" / "V.csv").read_bytes() == (tmp_path / "serial" / "V.csv").read_bytes()

    def test_hermitian_path_copies_u_without_forking(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "fork", _no_fork)
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        out = tmp_path / "out"
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--output-dir", str(out)]) == 0
        assert (out / "V.csv").read_bytes() == (out / "U.csv").read_bytes()

    def test_unwritable_hermitian_v_is_input_error(self, tmp_path, capsys):
        (tmp_path / "a.mtx").write_text(IDENTITY3)
        (tmp_path / "out" / "V.csv").mkdir(parents=True)
        assert main(["update", "--matrix", str(tmp_path / "a.mtx"), "--function", "exp",
                     "--b", "ones", "--output-dir", str(tmp_path / "out")]) == 2
        assert "V.csv" in capsys.readouterr().err

    def test_threaded_fork_warning_is_not_raised(self, tmp_path, monkeypatch, forks):
        # Python 3.12 warns thus from os.fork when the process has other OS
        # threads, such as the BLAS pool; the writer child runs no BLAS
        counted_fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return counted_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _general_update(tmp_path, tmp_path / "out") == 0
        assert forks == [1]
        _assert_no_child_left()


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

    def test_comment_and_blank_rows_are_skipped(self, tmp_path):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "plain.csv").write_text("add,0,2\nremove,0,1\n")
        (tmp_path / "commented.csv").write_text("# kind,i,j\n\nadd,0,2\n  # between\n\n"
                                                "remove,0,1\n")
        outputs = []
        for name in ("plain", "commented"):
            out = tmp_path / name
            assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                         "--edits", str(tmp_path / f"{name}.csv"), "--output-dir", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("centrality.csv", "edit_report.csv")])
        assert outputs[0] == outputs[1]
        _, rows = read_csv(tmp_path / "commented" / "edit_report.csv")
        assert [r[:3] for r in rows] == [["add", "0", "2"], ["remove", "0", "1"]]

    @pytest.mark.parametrize("text, line, message", [
        ("add,0,2\n\n# next\nadd,1,2,\n", 4,
         "edit rows must be kind,i,j; got ['add', '1', '2', '']"),
        ("add,0\n", 1, "edit rows must be kind,i,j; got ['add', '0']"),
        ("# header\nadd,x,2\n", 2, "invalid literal for int() with base 10: 'x'"),
        ("remove,0,1\ntoggle,0,2\n", 2, "unknown edit kind 'toggle'"),
    ], ids=["extra-field", "missing-field", "non-integer-node", "unknown-kind"])
    def test_malformed_row_names_its_file_line(self, tmp_path, capsys, text, line, message):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "edits.csv").write_text(text)
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'edits.csv'}, line {line}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("add,0,2\nremove,0,2\nremove,0,2\n", "cannot remove missing edge (0, 2)"),
        ("remove,0,1\nadd,1,0\nadd,0,1\n", "cannot add existing edge (0, 1)"),
        ("add,0,2\nadd,0,5\n", "node 5 outside 0..2 (n = 3)"),
    ], ids=["remove-after-add-and-remove", "add-after-remove-and-add", "node-out-of-range"])
    def test_invalid_edit_is_reported_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                      text, message):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "edits.csv").write_text(text)
        ran = []
        monkeypatch.setattr(cli, "subgraph_centrality_baseline", lambda g: ran.append("baseline"))
        monkeypatch.setattr(cli, "rank_k_update", lambda *args: ran.append("solve"))
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert ran == [] and not (tmp_path / "o").exists()

    def test_removing_a_missing_edge_is_input_error(self, tmp_path, capsys):
        (tmp_path / "g.mtx").write_text(P3)
        (tmp_path / "edits.csv").write_text("remove,0,2\n")
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "error: cannot remove missing edge (0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
    """Reference order of work: the whole baseline first, then each factor's
    diagonal correction summed in edit order, and the sum added to the
    baseline once."""
    baseline = subgraph_centrality_baseline(graph)
    correction = np.zeros(graph.n)
    current = graph
    records = []
    for op in edits:
        factors = cli.rank_k_update(current.adjacency.matvec, current.adjacency.matvec,
                                    cli.edge_modification(op, current.n), FunctionSpec.exp(),
                                    opts)
        for fac in factors:
            correction += cli.extract_diagonal(fac).real
        current = current.with_edge(op.i, op.j, op.kind == "add")
        records.append({
            "kind": op.kind, "i": op.i, "j": op.j,
            "steps": [int(f.m) for f in factors],
            "estimates": [float(f.estimate_history[-1][1]) if f.estimate_history else 0.0
                          for f in factors],
            "converged": all(f.converged for f in factors),
        })
    return baseline, baseline + correction, records


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
        ran = []

        def recorded(name):
            return lambda *args: ran.append(name)

        # the whole sequence is checked before the baseline or any solve starts
        monkeypatch.setattr(cli, "subgraph_centrality_baseline", recorded("baseline"))
        monkeypatch.setattr(cli, "rank_k_update", recorded("solve"))
        start = threading.active_count()
        assert main(["centrality", "--graph", str(tmp_path / "g.mtx"),
                     "--edits", str(tmp_path / "edits.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert threading.active_count() == start
        assert ran == []
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


def _value_or_na(r):
    """A ``BoundValue`` as the bounds table writes it: (bound or "NA", rate)."""
    return (r.value if r.applicable else "NA"), r.rate


def _markov_ellipse_row(m, region, beta, c_norm):
    fp = abs(funupdate.scalar_derivative(FunctionSpec.inverse_sqrt(),
                                         funupdate.leftmost_real_point(region)))
    return _value_or_na(funupdate.bound_markov(region, beta, fp, m, 1.0, c_norm))


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

    @pytest.mark.parametrize("spec, want", [
        ({"kind": "exp-superlinear", "psi1": -0.5, "rho": 2.0, "b_norm": 2.0, "c_norm": 0.5,
          "m_max": 12},
         lambda m: _value_or_na(funupdate.bound_exp_superlinear(-0.5, 2.0, m, 2.0, 0.5))),
        ({"kind": "markov", "ellipse": [3.0, 1.0, 2.0], "beta": 0.5, "function": "invsqrt",
          "c_norm": 3.0, "m_min": 2, "m_max": 9},
         lambda m: _markov_ellipse_row(m, funupdate.Ellipse(3.0, 1.0, 2.0), 0.5, 3.0)),
        ({"kind": "markov-hpd", "kappa_star": 50.0, "f_prime": -0.7, "b_norm": 1.5,
          "m_max": 8},
         lambda m: _value_or_na(funupdate.bound_markov_hpd(50.0, 0.7, 1.5, m))),
    ], ids=["exp-superlinear", "markov-ellipse", "markov-hpd-f-prime"])
    def test_rows_match_the_bound_functions(self, tmp_path, spec, want):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "b.csv"
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        m_range = range(spec.get("m_min", 1), spec["m_max"] + 1)
        assert [int(r[0]) for r in rows] == list(m_range)
        for m, row in zip(m_range, rows):
            bound, rate = want(m)
            assert row[1] == (bound if bound == "NA" else repr(bound))
            assert row[2] == repr(rate)
        if spec["kind"] == "exp-superlinear":  # rows on both sides of m + 1 >= e rho
            assert "NA" in [r[1] for r in rows] and rows[-1][1] != "NA"

    def test_unknown_kind_is_input_error(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({"kind": "cauchy", "m_max": 3}))
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == "error: unknown bound kind 'cauchy'\n"
        assert not (tmp_path / "b.csv").exists()

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
        ({"kind": "chebyshev", "function": "exp:5", "interval": [1, 2]},
         "function 'exp' takes no parameter, got 'exp:5'"),
        ({"kind": "markov", "interval": [0.1, 10.1], "beta": 0.0, "function": "resolvent:inf"},
         "invalid function 'resolvent:inf'"),
        ({"kind": "markov", "interval": [0.1, 10.1], "beta": 5.0, "function": "invsqrt"},
         "support endpoint must lie strictly left of the region"),
        ({"kind": "markov-hpd", "kappa_star": -2.0, "f_prime": 0.7},
         "kappa_star must be at least 1"),
    ], ids=["missing-key", "array", "short-interval", "list-for-number", "number-for-interval",
            "number-for-function", "infinite-m-max", "fractional-m-min", "exp-parameter",
            "infinite-resolvent-shift", "beta-inside-region", "negative-kappa"])
    def test_bad_spec_is_input_error(self, tmp_path, capsys, spec, message):
        text = spec if isinstance(spec, str) else json.dumps(spec)
        (tmp_path / "spec.json").write_text(text)
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "markov-hpd", "kappa_star": 50.0, "f_prime": 0.7, "c_norm": 100.0},
         "kind 'markov-hpd' does not read the key 'c_norm'"),
        ({"kind": "chebyshev", "function": "exp", "interval": [1, 2], "b_norm": 2.0},
         "kind 'chebyshev' does not read the key 'b_norm'"),
        ({"kind": "chebyshev", "function": "exp", "interval": [1, 2], "c_norm": 2.0},
         "kind 'chebyshev' does not read the key 'c_norm'"),
        ({"kind": "markov", "interval": [0.1, 10.1], "ellipse": [3.0, 1.0, 2.0], "beta": 0.0,
          "function": "invsqrt"}, "kind 'markov' does not read the key 'ellipse'"),
        ({"kind": "markov-hpd", "kappa_star": 50.0, "f_prime": 0.7, "function": "invsqrt"},
         "kind 'markov-hpd' does not read the key 'function'"),
        ({"kind": "markov-hpd", "kappa_star": 50.0, "f_prime": 0.7, "omega": 0.1},
         "kind 'markov-hpd' does not read the key 'omega'"),
        ({"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0, "m_mx": 5, "bogus_key": 1},
         "kind 'exp-superlinear' does not read the keys 'm_mx', 'bogus_key'"),
        ({"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0, "m_min": 10, "m_max": 3},
         "needs 0 <= m_min <= m_max, got m_min 10 and m_max 3"),
        ({"kind": "exp-superlinear", "psi1": 0.0, "rho": 2.0, "m_min": -3},
         "needs 0 <= m_min <= m_max, got m_min -3 and m_max 60"),
    ], ids=["c-norm-on-markov-hpd", "b-norm-on-chebyshev", "c-norm-on-chebyshev",
            "ellipse-beside-interval", "function-beside-f-prime", "omega-beside-f-prime",
            "misspelled-keys", "m-min-above-m-max", "negative-m-min"])
    def test_unread_key_or_empty_m_range_is_input_error(self, tmp_path, capsys, spec, message):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == f"error: bounds spec {message}\n"
        assert not (tmp_path / "b.csv").exists()

    def test_m_min_zero_is_a_row(self, tmp_path):
        spec = {"kind": "markov-hpd", "kappa_star": 50.0, "f_prime": 0.7, "m_min": 0, "m_max": 0}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["bounds", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "b.csv")]) == 0
        bound = funupdate.bound_markov_hpd(50.0, 0.7, 1.0, 0)
        assert read_csv(tmp_path / "b.csv")[1] == [["0", repr(bound.value), repr(bound.rate)]]
        assert bound.rate == 1.0


def test_update_and_centrality_share_solve_options():
    parser = build_parser()
    update = ["update", "--matrix", "a.mtx", "--function", "exp", "--b", "e1"]
    centrality = ["centrality", "--graph", "g.mtx"]
    assert _solve_options(parser.parse_args(update)) == SolveOptions()
    assert _solve_options(parser.parse_args(centrality)) == SolveOptions()
    flags = ["--tol", "1e-9", "--max-m", "77"]
    want = SolveOptions(tol=1e-9, max_m=77)
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

    def test_wedge_error_norm_matches_the_dense_norm(self):
        # at these m a fixed count of power iterations misses by over 1e-6
        rng = np.random.default_rng(1)
        n = 300
        eigs = cli._wedge_samples(rng, n, 1.5, 100.0)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        ref = dense_update_reference(np.diag(eigs), -b[:, None], b[:, None], cli._EXP)
        prob = GeneralProblem(lambda x: eigs * x, lambda x: np.conj(eigs) * x, -b, b, cli._EXP)
        prob.grow(85)
        for m in (80, 85):
            fac = prob.factor(m)
            want = densefun.spectral_norm(ref - fac.U @ fac.X @ fac.V.conj().T)
            assert abs(cli._norm2_implicit(ref, fac.U, fac.X, fac.V) - want) <= 1e-9 * want

    def test_decay_smoke_confined(self, tmp_path):
        out = tmp_path / "demo"
        n = 120
        assert main(["demo", "--name", "decay", "--seed", "7",
                     "--size", str(n), "--output-dir", str(out)]) == 0
        report = json.loads((out / "decay.json").read_text())
        assert report["confined"]
        assert report["max_entry_outside_level_set"] < 1e-10
        # the level set of the entrywise bound, one bound call per entry
        k, l = n // 2, n // 2 - 1
        a = tridiag_sparse(n, -1.0, 3.0, -1.0)
        f = FunctionSpec.inverse_sqrt()
        params = decay_params_from_matrix(a.to_dense(), f, k, l)
        dist_k, dist_l = graph_distances(a, k), graph_distances(a, l)
        bound = np.array([[stieltjes_update_decay(params, int(dk), int(dl)) for dl in dist_l]
                          for dk in dist_k])
        level = bound > 1e-10
        assert level.any() and not level.all()
        unit = np.eye(n)
        fmat = dense_update_reference(a.to_dense(), unit[:, [k]], unit[:, [l]], f)
        assert report["max_entry_outside_level_set"] == np.abs(fmat[~level]).max()
        _, rows = read_csv(out / "decay_profile.csv")
        assert [float(r[2]) for r in rows] == [stieltjes_update_decay(params, s, 0)
                                               for s in range(61)]

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

    @pytest.mark.parametrize("flags", [
        ["--name", "reorth-comparison", "--max-m", "-3"],
        ["--name", "convdiff", "--max-m", "-1"],
        ["--name", "reorth-comparison", "--size", "10", "--max-m", "0"],
        ["--name", "decay", "--size", "0"], ["--name", "decay", "--size", "abc"]],
        ids=["negative", "convdiff", "zero", "zero-size", "not-a-number"])
    def test_flag_that_is_not_positive_is_usage_error(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["demo", *flags, "--output-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flags[-2]}: must be a positive integer, got '{flags[-1]}'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--name", "exp-wedge", "--size", "10"], "--size must be at least 26"),
        (["--name", "exp-wedge", "--size", "30", "--max-m", "5"], "--max-m must be at least 25"),
        (["--name", "estimator-invsqrt", "--size", "2"], "--size must be at least 3"),
        (["--name", "decay", "--size", "1"], "--size must be at least 2")],
        ids=["wedge-size", "wedge-max-m", "estimator-size", "decay-size"])
    def test_sweep_without_rows_is_input_error(self, tmp_path, capsys, flags, message):
        assert main(["demo", *flags, "--seed", "1", "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message} for this demo, got ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", sorted(cli._DEMOS))
    def test_least_flags_write_a_row(self, tmp_path, name):
        _, _, least_size, _, least_max_m = cli._DEMOS[name]
        flags = ["--size", str(least_size)]
        if least_max_m is not None:
            flags += ["--max-m", str(least_max_m)]
        assert main(["demo", "--name", name, "--seed", "1", *flags,
                     "--output-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / DEMO_CSVS[name])
        assert rows

    @pytest.mark.parametrize("name, flag, least, value", [
        (name, flag, least, value)
        for name, (_, _, least_size, _, least_max_m) in sorted(cli._DEMOS.items())
        for flag, least in (("--size", least_size), ("--max-m", least_max_m))
        if least is not None and least > 1
        for value in sorted({1, least - 1})])
    def test_flag_below_its_least_writes_nothing(self, tmp_path, capsys, name, flag, least,
                                                 value):
        out = tmp_path / "o"
        assert main(["demo", "--name", name, "--seed", "1", flag, str(value),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be at least {least} for this demo, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_m", ["1", "60", "400"])
    def test_decay_rejects_max_m(self, tmp_path, capsys, max_m):
        out = tmp_path / "o"
        assert main(["demo", "--name", "decay", "--seed", "1", "--size", "5",
                     "--max-m", max_m, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: --max-m is not read by the decay demo\n"
        assert not out.exists()

    def test_readme_table_states_the_least_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### demo\n", 1)[1].split("\n## ", 1)[0]
        stated = {name.strip("`"): (size, max_m) for name, size, max_m in re.findall(
            r"^\| (`[a-z-]+`|the others) +\| (\S+) +\| (\S+) +\|$", section, re.M)}
        others = stated.pop("the others")
        assert set(stated) <= set(cli._DEMOS) and len(stated) < len(cli._DEMOS)
        for name, (_, _, least_size, _, least_max_m) in cli._DEMOS.items():
            want = (str(least_size), "rejected" if least_max_m is None else str(least_max_m))
            assert stated.get(name, others) == want, name

    def test_wedge_sweep_starts_ten_steps_before_the_window(self):
        region = funupdate.Wedge(0.0, cli._WEDGE_RHO + 1.0, cli._WEDGE_ALPHA)
        assert funupdate.bound_exp_wedge(region, cli._WEDGE_M_LO).applicable
        assert not funupdate.bound_exp_wedge(region, cli._WEDGE_M_LO - 1).applicable
        assert cli._DEMOS["exp-wedge"][2:] == (26, 95, 25)

    @pytest.mark.parametrize("n", [60, 80])
    def test_decay_window_is_clipped_to_the_matrix(self, tmp_path, n):
        assert main(["demo", "--name", "decay", "--seed", "1", "--size", str(n),
                     "--output-dir", str(tmp_path)]) == 0
        k, l = n // 2, n // 2 - 1
        a = tridiag_sparse(n, -1.0, 3.0, -1.0).to_dense()
        unit = np.eye(n)
        fmat = np.abs(dense_update_reference(a, unit[:, [k]], unit[:, [l]],
                                             FunctionSpec.inverse_sqrt()))
        window = np.loadtxt(tmp_path / "decay_window.csv", delimiter=",", skiprows=1, ndmin=2)
        rows, cols = slice(max(k - 40, 0), k + 41), slice(max(l - 40, 0), l + 41)
        assert window.shape == fmat[rows, cols].shape
        np.testing.assert_allclose(window, fmat[rows, cols], rtol=1e-12, atol=0)
        assert window.max() == pytest.approx(fmat.max(), rel=1e-12)
        assert window[k - rows.start, l - cols.start] >= 0.1 * window.max()
