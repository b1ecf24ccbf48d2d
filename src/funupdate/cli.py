"""Command-line front end.

Subcommands: ``update`` (one low-rank solve against a Matrix Market file),
``centrality`` (subgraph-centrality up/downdating under edge edits),
``bounds`` (tabulate a-priori bounds from a JSON description), and ``demo``
(synthetic experiments emitting CSV bundles). Everything machine-readable
lands as CSV plus a JSON report. Exit codes: 0 success, 2 usage or input
error, 3 non-convergence, 4 numeric-domain error or non-finite operator
output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import densefun
from .densefun import (FunctionSpec, function_from_name,
                       scalar_derivative, scalar_values, spectral_norm)
from .errors import (DomainError, MatrixMarketError, NonFiniteOperatorError,
                     OracleScaleError)
from .krylov import LanczosProcess
from .oracle import DENSE_UPDATE_LIMIT, dense_update_reference
from .sparse import (Graph, SparseMatrix, gen_convdiff1d, gen_laplace2d,
                     graph_distances, load_matrix_market, load_vector, open_ascii)
from .update import (LOOKAHEAD, GeneralProblem, HermitianProblem, LowRankModification,
                     SolveOptions, error_estimate, extract_diagonal, general_update,
                     hermitian_update, rank_k_update)

_EXP = FunctionSpec.exp()


# -----------------------------------------------------------------------------
# Small I/O helpers

def _fmt(v) -> str:
    if isinstance(v, str):
        if any(ch in v for ch in ',"\r\n'):
            raise ValueError(f"CSV field {v!r} would need quoting")
        return v
    if isinstance(v, (complex, np.complexfloating)):
        return repr(complex(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, blocks) -> None:
    """Writes the header and the rows of each block, one write per block, as
    ``csv.writer`` writes fields that need no quoting: comma-joined, CRLF."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write("".join(",".join(row) + "\r\n" for row in block))


def write_rows_csv(path, header, rows) -> None:
    _write_csv(path, map(_fmt, header), [(map(_fmt, row) for row in rows)])


# Rows formatted per write; bounds the Python lists alive at once.
_CSV_CHUNK_ROWS = 256
# The dtype each numeric kind is written as; ``tolist`` of these yields
# Python int, float and complex, whose ``repr`` is what ``_fmt`` writes.
_CSV_DTYPES = {"b": np.int64, "i": np.int64, "u": np.uint64,
               "f": np.float64, "c": np.complex128}


def write_matrix_csv(path, m) -> None:
    """Writes a dense block with one CSV column per matrix column.

    The header is ``c0,...,c{k-1}`` and every line ends in CRLF. Values are
    the shortest round-trip ``repr`` of a float, int or complex, the latter
    as ``(a+bj)``, so the file is byte for byte what ``write_rows_csv``
    writes for ``m.tolist()``. A 1-D vector is written as one row.
    """
    m = np.atleast_2d(np.asarray(m))
    if m.ndim != 2 or m.dtype.kind not in _CSV_DTYPES:
        raise ValueError(f"numeric block required, got {m.dtype} of shape {m.shape}")
    m = m.astype(_CSV_DTYPES[m.dtype.kind], copy=False)
    _write_csv(path, (f"c{j}" for j in range(m.shape[1])),
               ((map(repr, row) for row in m[s:s + _CSV_CHUNK_ROWS].tolist())
                for s in range(0, m.shape[0], _CSV_CHUNK_ROWS)))


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_vector_spec(text, n, rng) -> np.ndarray:
    """Vector argument: 'e<k>' (1-based unit vector), 'ones', 'randn', or a
    path to a file with one value per line (``load_vector``)."""
    text = text.strip()
    if text == "ones":
        return np.ones(n)
    if text == "randn":
        return rng.standard_normal(n)
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if not 1 <= k <= n:
            raise ValueError(f"unit vector index {k} outside 1..{n}")
        v = np.zeros(n)
        v[k - 1] = 1.0
        return v
    vec = load_vector(text)
    if vec.shape != (n,):
        raise ValueError(f"vector file has length {vec.shape[0]}, expected {n}")
    return vec


# -----------------------------------------------------------------------------
# update subcommand

def _usable_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_csv_writer(path, m):
    """Forks a child that writes ``m`` to ``path`` and leaves through
    ``os._exit``: 0 once written, 1 after reporting its error on standard
    error. Returns the child's pid, or None without forking where ``os.fork``
    is missing, one core is usable or another Python thread is alive (the
    solvers start no thread, so none is on this path)."""
    if (not hasattr(os, "fork") or _usable_cores() < 2
            or threading.active_count() > 1):
        return None
    with warnings.catch_warnings():
        # Python 3.12 warns when native threads such as the BLAS pool exist.
        # The child runs no BLAS, and OpenBLAS stops its pool across a fork.
        warnings.filterwarnings("ignore", r"This process .*multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        write_matrix_csv(path, m)
        code = 0
    except Exception as exc:
        os.write(2, f"error: {exc}\n".encode("ascii", "backslashreplace"))
    finally:
        os._exit(code)  # never returns into the parent's stack, handlers or buffers


def _write_factor_csvs(outdir, fac) -> None:
    """Writes U.csv, X.csv and V.csv of a factor to the Path ``outdir``. On the
    Hermitian path V.csv is a byte copy of U.csv. Otherwise a forked child
    writes V.csv while this process writes U.csv and X.csv, the bytes those
    of writing the three in turn; an unwritten V.csv raises OSError."""
    u_path, x_path, v_path = (outdir / f"{k}.csv" for k in "UXV")
    child = None if fac.V is fac.U else _fork_csv_writer(v_path, fac.V)
    try:
        write_matrix_csv(u_path, fac.U)
        write_matrix_csv(x_path, fac.X)
    finally:
        status = os.waitpid(child, 0)[1] if child is not None else 0
    if fac.V is fac.U:
        shutil.copyfile(u_path, v_path)
    elif child is None:
        write_matrix_csv(v_path, fac.V)
    elif status:
        raise OSError(f"{v_path} not written: its writer process exited with "
                      f"status {os.waitstatus_to_exitcode(status)}")


def _cmd_update(args) -> int:
    rng = np.random.default_rng(args.seed)
    a = load_matrix_market(args.matrix)
    f = args.function
    b = parse_vector_spec(args.b, a.n, rng)
    c_spec = args.c if args.c is not None else args.b
    same_vectors = c_spec == args.b
    sign = -1 if args.sign == "minus" else 1
    if sign == -1 and not (a.symmetry_flag and same_vectors):
        print("error: --sign minus requires a symmetric matrix and c = b", file=sys.stderr)
        return 2
    if args.check and a.n > DENSE_UPDATE_LIMIT:
        raise OracleScaleError("matrix too large for --check")
    opts = _solve_options(args)

    c = b if same_vectors else parse_vector_spec(c_spec, a.n, rng)
    t0 = time.perf_counter()
    if a.symmetry_flag and same_vectors:
        algorithm = "hermitian"
        fac = hermitian_update(a.matvec, b, f, sign=sign, opts=opts)
    else:
        algorithm = "general"
        fac = general_update(a.matvec, a.conjugate_transpose().matvec, b, c, f, opts)
    wall = time.perf_counter() - t0

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_factor_csvs(outdir, fac)
    report = {
        "function": f.label(),
        "algorithm": algorithm,
        "matrix": {"n": a.n, "nnz": a.nnz, "symmetric": bool(a.symmetry_flag)},
        "sign": sign,
        "tol": opts.tol,
        "lookahead": LOOKAHEAD,
        "max_m": opts.max_m,
        "steps": int(fac.m),
        "basis_dimension": int(fac.basis_dimension),
        "converged": bool(fac.converged),
        "wall_time_s": wall,
        "history": [{"m": int(m), "estimate": float(e)} for m, e in fac.estimate_history],
    }
    if args.check:
        b_fac = (sign * b if algorithm == "hermitian" else b).reshape(-1, 1)
        ref = dense_update_reference(a.to_dense(), b_fac, c.reshape(-1, 1), f)
        err = float(spectral_norm(ref - fac.densify()))
        scale = float(spectral_norm(ref))
        report["update_norm"] = scale
        report["true_error"] = err
        report["true_error_relative"] = err / scale if scale > 0 else 0.0
    write_report(outdir / "report.json", report)
    return 0 if fac.converged else 3


# -----------------------------------------------------------------------------
# centrality subcommand

@dataclass(frozen=True)
class EdgeOp:
    """One edge edit; adding requires the edge absent, removing present."""

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("add", "remove"):
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if self.i == self.j:
            raise ValueError("edge endpoints must differ")
        if self.i < 0 or self.j < 0:
            raise ValueError("node indices must be nonnegative")


def edge_modification(op: EdgeOp, n) -> LowRankModification:
    """Rank-2 adjacency modification of an edge edit as B C^* factors."""
    b = np.zeros((n, 2))
    c = np.zeros((n, 2))
    b[op.i, 0] = 1.0
    b[op.j, 1] = 1.0
    sign = 1.0 if op.kind == "add" else -1.0
    c[op.j, 0] = sign
    c[op.i, 1] = sign
    return LowRankModification(b, c, hermitian_flag=True)


def read_edits_csv(path) -> list:
    """Edge edits from CSV rows kind,i,j, skipping blank rows and rows whose
    first field starts with '#'; a malformed row is an input error that
    names its file line."""
    edits = []
    with open_ascii(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"edit rows must be kind,i,j; got {row!r}")
                edits.append(EdgeOp(row[0].strip(), int(row[1]), int(row[2])))
            except ValueError as exc:
                raise ValueError(f"{path}, line {rows.line_num}: {exc}") from None
    return edits


def _check_baseline_scale(graph: Graph) -> None:
    if graph.n > DENSE_UPDATE_LIMIT:
        raise OracleScaleError(f"baseline restricted to n <= {DENSE_UPDATE_LIMIT}")


def subgraph_centrality_baseline(graph: Graph) -> np.ndarray:
    """diag(exp(A)) = (Q o Q) exp(lambda) from one dense symmetric
    eigendecomposition A = Q diag(lambda) Q^T; guarded to the oracle scale."""
    _check_baseline_scale(graph)
    dec = densefun.eigen_decompose(graph.adjacency.to_dense(), hermitian=True)
    q = dec.eigenvectors
    return (q * q) @ scalar_values(_EXP, dec.eigenvalues)


def _check_edits(graph: Graph, edits) -> None:
    """Replays the edits on the graph's edge set and rejects the first that
    adds an existing edge, removes a missing one or names a node outside
    the graph."""
    toggled = set()
    for op in edits:
        edge = frozenset((op.i, op.j))
        present = graph.has_edge(op.i, op.j) != (edge in toggled)
        if op.kind == "add" and present:
            raise ValueError(f"cannot add existing edge ({op.i}, {op.j})")
        if op.kind == "remove" and not present:
            raise ValueError(f"cannot remove missing edge ({op.i}, {op.j})")
        toggled ^= {edge}


def update_subgraph_centrality(graph: Graph, edits, opts: SolveOptions) -> dict:
    """Applies edge edits to the subgraph-centrality vector.

    The whole edit sequence is checked (``_check_edits``) before any dense
    or Krylov work starts. The baseline diag(exp(A)) is computed once, on a worker thread while
    the edits are solved in the calling thread (the dense eigensolver
    releases the interpreter lock). With one usable core the two would
    only time-slice it, so the edits then wait for the baseline. Every edit
    contributes its diagonal correction through two signed Hermitian rank-1
    solves. The corrections are summed in edit order and added to the
    baseline once, so the result does not depend on when the baseline
    finishes. Centralities are renormalized by the updated trace.
    """
    _check_baseline_scale(graph)
    _check_edits(graph, edits)
    current = graph
    records = []
    engine_seconds = 0.0
    correction = np.zeros(graph.n)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(subgraph_centrality_baseline, graph)
        if _usable_cores() == 1:
            pending.result()
        for op in edits:
            mod = edge_modification(op, current.n)
            matvec = current.adjacency.matvec
            t0 = time.perf_counter()
            factors = rank_k_update(matvec, matvec, mod, _EXP, opts)
            for fac in factors:
                correction += extract_diagonal(fac).real
            engine_seconds += time.perf_counter() - t0
            current = current.with_edge(op.i, op.j, op.kind == "add")
            records.append({
                "kind": op.kind,
                "i": op.i,
                "j": op.j,
                "steps": [int(f.m) for f in factors],
                "estimates": [float(f.estimate_history[-1][1]) for f in factors],
                "converged": all(f.converged for f in factors),
            })
        baseline = pending.result()
    diag = baseline + correction
    return {
        "baseline_diag": baseline,
        "diag": diag,
        "baseline_centrality": baseline / baseline.sum(),
        "centrality": diag / diag.sum(),
        "edits": records,
        "engine_seconds": engine_seconds,
    }


def _cmd_centrality(args) -> int:
    adjacency = load_matrix_market(args.graph)
    graph = Graph(adjacency)
    edits = read_edits_csv(args.edits) if args.edits else []
    opts = _solve_options(args)
    result = update_subgraph_centrality(graph, edits, opts)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(outdir / "centrality.csv",
                   ["node", "centrality_before", "centrality_after"],
                   [(i, result["baseline_centrality"][i], result["centrality"][i])
                    for i in range(graph.n)])
    write_rows_csv(outdir / "edit_report.csv",
                   ["kind", "i", "j", "steps_1", "steps_2", "estimate_1", "estimate_2"],
                   [(r["kind"], r["i"], r["j"], *r["steps"], *r["estimates"])
                    for r in result["edits"]])
    write_report(outdir / "report.json", {
        "n": graph.n,
        "edits": len(edits),
        "tol": opts.tol,
        "lookahead": LOOKAHEAD,
        "engine_seconds": result["engine_seconds"],
        "trace_before": float(result["baseline_diag"].sum()),
        "trace_after": float(result["diag"].sum()),
        "all_converged": all(r["converged"] for r in result["edits"]),
    })
    return 0 if all(r["converged"] for r in result["edits"]) else 3


# -----------------------------------------------------------------------------
# bounds subcommand

class _BoundsSpec(dict):
    """A bounds spec whose missing required key, numeric field of the wrong
    type or shape, or key that its kind does not read is an input error.
    ``read`` collects the keys looked up."""

    def __init__(self, spec):
        super().__init__(spec)
        self.read = set()

    def __missing__(self, key):
        raise ValueError(f"bounds spec is missing the key {key!r}")

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def num(self, key, default=None, size=None):
        """Field ``key`` as a float, or as a tuple of ``size`` floats."""
        value = self[key] if default is None or key in self else default
        items = value if size else [value]
        if not (isinstance(items, list) and len(items) == (size or 1)
                and all(type(v) in (int, float) for v in items)):
            want = f"a list of {size} numbers" if size else "a number"
            raise ValueError(f"bounds spec key {key!r} must be {want}, got {value!r}")
        return tuple(float(v) for v in items) if size else float(value)

    def count(self, key, default) -> int:
        """Field ``key`` as a finite integer."""
        value = self.num(key, default)
        if not (np.isfinite(value) and value.is_integer()):
            raise ValueError(f"bounds spec key {key!r} must be a finite integer, "
                             f"got {self[key]!r}")
        return int(value)

    def norms(self) -> tuple:
        """The ``b_norm`` and ``c_norm`` fields, 1 by default."""
        return self.num("b_norm", 1.0), self.num("c_norm", 1.0)

    def function(self) -> FunctionSpec:
        """The ``function`` field, a name as ``--function`` takes it."""
        name = self["function"]
        if not isinstance(name, str):
            raise ValueError(f"bounds spec key 'function' must be a string, got {name!r}")
        return function_from_name(name)


def _bound_cells(r: bnd.BoundValue) -> tuple:
    """A bound's CSV cells: its value, or "NA" outside the formula's window,
    and its rate, or "NA" for a bound without one."""
    return (r.value if r.applicable else "NA", "NA" if r.rate is None else r.rate)


def _bounds_rows(spec: _BoundsSpec):
    """The (m, bound, rate) rows of a spec for m_min <= m <= m_max; a key
    the spec's kind did not read is rejected once the rows are formed."""
    kind = spec["kind"]
    m_min, m_max = spec.count("m_min", 1), spec.count("m_max", 60)
    if not 0 <= m_min <= m_max:
        raise ValueError(f"bounds spec needs 0 <= m_min <= m_max, got m_min {m_min} "
                         f"and m_max {m_max}")
    if kind == "exp-superlinear":
        psi1, rho, (b_norm, c_norm) = spec.num("psi1"), spec.num("rho"), spec.norms()
        bound = partial(bnd.bound_exp_superlinear, psi1, rho, b_norm=b_norm, c_norm=c_norm)
    elif kind == "exp-wedge":
        region = bnd.Wedge(spec.num("psi1"), spec.num("rho"), spec.num("alpha"))
        b_norm, c_norm = spec.norms()
        bound = partial(bnd.bound_exp_wedge, region, b_norm=b_norm, c_norm=c_norm)
    elif kind == "markov-hpd":
        if "f_prime" in spec:
            fp = spec.num("f_prime")
        else:
            fp = abs(scalar_derivative(spec.function(), spec.num("omega")))
        bound = partial(bnd.bound_markov_hpd, spec.num("kappa_star"), fp, spec.num("b_norm", 1.0))
    elif kind == "markov":
        if "interval" in spec:
            region = bnd.Interval(*spec.num("interval", size=2))
        else:
            region = bnd.Ellipse(*spec.num("ellipse", size=3))
        beta, (b_norm, c_norm) = spec.num("beta"), spec.norms()
        fp = abs(scalar_derivative(spec.function(), bnd.leftmost_real_point(region)))
        bound = partial(bnd.bound_markov, region, beta, fp, b_norm=b_norm, c_norm=c_norm)
    elif kind == "chebyshev":
        bound = partial(bnd.chebyshev_poly_bound, spec.function(), spec.num("interval", size=2))
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    rows = [(m, *_bound_cells(bound(m))) for m in range(m_min, m_max + 1)]
    unread = [key for key in spec if key not in spec.read]
    if unread:
        raise ValueError(f"bounds spec kind {kind!r} does not read the key"
                         f"{'s' * (len(unread) > 1)} {', '.join(map(repr, unread))}")
    return rows


def _cmd_bounds(args) -> int:
    with open_ascii(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"bounds spec must be a JSON object, got {type(spec).__name__}")
    rows = _bounds_rows(_BoundsSpec(spec))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rows_csv(out, ["m", "bound", "rate"], rows)
    return 0


# -----------------------------------------------------------------------------
# Demos

def _norm2_implicit(ref, u, x, v) -> float:
    """Spectral norm of E = ref - U X V^*, without forming E: the square
    root of the largest Ritz value of Lanczos on E^* E, grown until that
    value, nondecreasing in exact arithmetic, stops increasing or the
    process breaks down."""
    n = ref.shape[0]
    vec = np.full(n, 1.0 / np.sqrt(n), dtype=complex if np.iscomplexobj(ref) or np.iscomplexobj(u) else float)
    vec += 1e-3 * np.cos(np.arange(n))
    refh, uh, vh, xh = ref.conj().T, u.conj().T, v.conj().T, x.conj().T

    def normal(t):
        w = ref @ t - u @ (x @ (vh @ t))
        return refh @ w - v @ (xh @ (uh @ w))

    proc = LanczosProcess(normal, vec)
    top = 0.0
    while not proc.breakdown:
        proc.advance(1)
        ritz = float(np.linalg.eigvalsh(proc.compressed())[-1])
        if ritz <= top:
            break
        top = ritz
    return float(np.sqrt(top))


def _unit_draw(rng, n) -> np.ndarray:
    """A standard normal draw of length n, scaled to unit norm."""
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def _diagonal_errors(eigs, b, f, sign, m_max, reorth="full") -> list:
    """Spectral-norm errors against the dense f(A + sign b b^*) - f(A), for
    A = diag(eigs), of the Lanczos factors at m = 1, 2, ... up to ``m_max``,
    or to the Krylov dimension once exhausted."""
    ref = dense_update_reference(np.diag(eigs), sign * b.reshape(-1, 1), b.reshape(-1, 1), f)
    prob = HermitianProblem(lambda x: eigs * x, b, f, sign=sign, reorth=reorth)
    prob.grow(m_max)
    return [spectral_norm(ref - prob.factor(m).densify()) for m in range(1, prob.dimension + 1)]


def _demo_reorth(outdir, rng, n, m_max):
    """Plain vs fully reorthogonalized Lanczos on diagonal spectra that are
    benign (equispaced) and adversarial (logarithmically spaced)."""
    b = _unit_draw(rng, n)
    # error curves in the order of the header, exp(-z) as exp of -diag(eigs)
    columns = [_diagonal_errors(-eigs, b, _EXP, -1, m_max, reorth)
               for eigs in (np.linspace(1e-3, 1e3, n), np.logspace(-3, 3, n))
               for reorth in ("none", "full")]
    rows = [[m, *errs] for m, errs in
            enumerate(zip_longest(*columns, fillvalue="NA"), start=1)]
    write_rows_csv(outdir / "reorth_comparison.csv",
                   ["m", "err_equispaced_plain", "err_equispaced_full",
                    "err_logspaced_plain", "err_logspaced_full"], rows)


def _demo_estimator_invsqrt(outdir, rng, side, m_cap):
    """Lookahead estimates against the true error for the inverse square
    root of a 2-D grid Laplacian under a random rank-1 modification."""
    a = gen_laplace2d(side)
    n = a.n
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    b *= 0.1 / np.linalg.norm(b)
    c *= 0.1 / np.linalg.norm(c)
    f = FunctionSpec.inverse_sqrt()
    ref = dense_update_reference(a.to_dense(), b.reshape(-1, 1), c.reshape(-1, 1), f)
    prob = GeneralProblem(a.matvec, a.conjugate_transpose().matvec, b, c, f)
    prob.grow(m_cap + 3)
    facs = [prob.factor(m) for m in range(1, prob.dimension + 1)]
    rows = [[fac.m, spectral_norm(ref - fac.densify())]
            + [error_estimate(fac.X, later.X) for later in facs[i + 1:i + 4]]
            for i, fac in enumerate(facs[:-3])]
    write_rows_csv(outdir / "estimator_invsqrt.csv",
                   ["m", "true_error", "estimate_d1", "estimate_d2", "estimate_d3"],
                   rows)


def _demo_exp_interval(outdir, rng, n, m_max):
    """Superlinear bound against the measured error for a downdated
    exponential on a negative real interval."""
    eigs = np.linspace(-20.0, 0.0, n)
    b = _unit_draw(rng, n)
    errs = _diagonal_errors(eigs, b, _EXP, -1, m_max)
    lo = float(min(eigs.min(), np.linalg.eigvalsh(np.diag(eigs) - np.outer(b, b)).min()))
    rho = (0.0 - lo) / 4.0
    rows = [(m, err, *_bound_cells(bnd.bound_exp_superlinear(0.0, rho, m, 1.0, 1.0)))
            for m, err in enumerate(errs, start=1)]
    write_rows_csv(outdir / "exp_interval.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "exp_interval.json", {"n": n, "rho": rho, "psi1": 0.0})


def _wedge_samples(rng, n, alpha, rho):
    """Eigenvalue samples inside the wedge region: boundary images of
    shrunken copies, which stay inside by convexity."""
    theta = rng.uniform(0.05, 2.0 * np.pi - 0.05, size=n)
    shrink = rng.uniform(0.15, 0.95, size=n)
    w = np.exp(1j * theta)
    return shrink * rho * w * (1.0 - 1.0 / w) ** alpha


# The exp-wedge eigenvalues fill a wedge of angle parameter alpha and size
# rho (``_wedge_samples``) inside the bound's region of capacity rho + 1.
# The bound's window starts at m_lo = ceil(alpha (rho + 1)^(1/alpha) +
# 4/alpha - 1), and the sweep 10 steps before it.
_WEDGE_ALPHA, _WEDGE_RHO, _WEDGE_M_LO = 1.5, 100.0, 35


def _demo_exp_wedge(outdir, rng, n, m_max):
    """Wedge bound against the measured error for a downdated exponential
    with eigenvalues in a corner region of the left half-plane."""
    eigs = _wedge_samples(rng, n, _WEDGE_ALPHA, _WEDGE_RHO)
    b = _unit_draw(rng, n)
    ref = dense_update_reference(np.diag(eigs), -b.reshape(-1, 1), b.reshape(-1, 1), _EXP)
    prob = GeneralProblem(lambda x: eigs * x, lambda x: np.conj(eigs) * x, -b, b, _EXP)
    region = bnd.Wedge(0.0, _WEDGE_RHO + 1.0, _WEDGE_ALPHA)
    m_hi = min(m_max, n - 1)
    prob.grow(m_hi)
    rows = []
    for m in range(_WEDGE_M_LO - 10, min(m_hi, prob.dimension) + 1):
        fac = prob.factor(m)
        err = _norm2_implicit(ref, fac.U, fac.X, fac.V)
        rows.append((m, err, *_bound_cells(bnd.bound_exp_wedge(region, m))))
    write_rows_csv(outdir / "exp_wedge.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "exp_wedge.json",
                 {"n": n, "alpha": _WEDGE_ALPHA, "rho": _WEDGE_RHO + 1.0, "psi1": 0.0})


def _demo_markov_invsqrt(outdir, rng, n, m_max):
    """Conjugate-gradient style bound against the measured error for an
    updated inverse square root on a positive interval."""
    eigs = np.linspace(0.1, 10.0, n)
    b = _unit_draw(rng, n)
    f = FunctionSpec.inverse_sqrt()
    lmax_up = float(np.linalg.eigvalsh(np.diag(eigs) + np.outer(b, b)).max())
    kappa_star = lmax_up / 0.1
    fp = abs(scalar_derivative(f, 0.1))
    errs = _diagonal_errors(eigs, b, f, 1, m_max)
    rows = [(m, err, *_bound_cells(bnd.bound_markov_hpd(kappa_star, fp, 1.0, m)))
            for m, err in enumerate(errs, start=1)]
    write_rows_csv(outdir / "markov_invsqrt.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "markov_invsqrt.json", {"n": n, "kappa_star": kappa_star})


def _demo_convdiff(outdir, rng, n, m_cap):
    """Convergence of the exponential update when the convection coefficient
    of a 1-D convection-diffusion operator changes at one grid point.

    The raw discretization carries a 1/h^2 stiffness factor that damps the
    whole exponential update below any practical tolerance, so the emitted
    curves use the unit-diffusion rescaling h^2 A (same stencil without the
    1/h^2 factor); the stiff-operator counts are reported alongside.
    Counts read the full estimate curve and take the last crossing of 1e-6,
    which is robust against spurious early dips while the iteration
    stagnates.
    """
    pos = n // 2 - 1
    h2 = (1.0 / (n + 1)) ** 2

    def last_crossing(estimates):
        above = [m for m, e in estimates.items() if e > 1e-6]
        return (max(above) + 1) if above else 1

    columns = []  # estimate and error curves, per coefficient in turn
    counts, counts_stiff = {}, {}
    for c_tilde in (20.0, 40.0, 60.0):
        a, b, c_vec = gen_convdiff1d(n, 10.0, c_tilde, pos)
        at = a.conjugate_transpose()

        prob = GeneralProblem(a.matvec, at.matvec, b, c_vec, _EXP)
        xs = {m: prob.x(m) for m in range(1, m_cap + LOOKAHEAD + 1)}
        counts_stiff[str(int(c_tilde))] = last_crossing(
            {m: error_estimate(xs[m], xs[m + LOOKAHEAD]) for m in range(1, m_cap + 1)})

        c_s = h2 * c_vec
        ref = dense_update_reference(h2 * a.to_dense(), b.reshape(-1, 1), c_s.reshape(-1, 1), _EXP)
        prob = GeneralProblem(lambda x: h2 * a.matvec(x), lambda x: h2 * at.matvec(x),
                              b, c_s, _EXP)
        facs = [prob.factor(m) for m in range(1, m_cap + LOOKAHEAD + 1)]
        ests = [error_estimate(fac.X, ahead.X) for fac, ahead in zip(facs, facs[LOOKAHEAD:])]
        errs = [spectral_norm(ref - fac.densify()) for fac in facs[:m_cap]]
        columns += [ests, errs]
        counts[str(int(c_tilde))] = last_crossing(dict(enumerate(ests, start=1)))

    rows = [[m, *vals] for m, vals in enumerate(zip(*columns), start=1)]
    write_rows_csv(outdir / "convdiff.csv",
                   ["m", "estimate_c20", "error_c20", "estimate_c40", "error_c40",
                    "estimate_c60", "error_c60"], rows)
    write_report(outdir / "convdiff.json", {"n": n, "steps_to_1e-6": counts,
                                            "steps_to_1e-6_stiff": counts_stiff})


def _demo_decay(outdir, rng, n, _max_m):
    """Entrywise decay of an inverse-square-root update of a tridiagonal
    operator after a single unit-entry modification near the center."""
    k = n // 2
    l = n // 2 - 1
    f = FunctionSpec.inverse_sqrt()
    eye = np.eye(n)
    a_dense = 3.0 * eye - np.eye(n, k=1) - np.eye(n, k=-1)
    a = SparseMatrix.from_dense(a_dense, symmetry_flag=True)
    fmat = dense_update_reference(a_dense, eye[:, [k]], eye[:, [l]], f)
    params = bnd.decay_params_from_matrix(a_dense, f, k, l)
    # the operator is a connected path, so every distance is finite, and the
    # bound depends on a pair of distances only through their sum
    dist_sum = graph_distances(a, k).astype(int)[:, None] + graph_distances(a, l).astype(int)
    profile = np.array([bnd.stieltjes_update_decay(params, s, 0)
                        for s in range(max(int(dist_sum.max()), 60) + 1)])
    level = profile[dist_sum] > 1e-10
    outside_max = float(np.abs(fmat[~level]).max(initial=0.0))
    half = 40  # the window is clipped to the matrix below size 82
    window = np.abs(fmat[max(k - half, 0):k + half + 1, max(l - half, 0):l + half + 1])
    write_matrix_csv(outdir / "decay_window.csv", window)
    write_rows_csv(outdir / "decay_profile.csv", ["distance_sum", "max_entry", "bound"],
                   [(s, np.abs(fmat[dist_sum == s]).max(initial=0.0), profile[s])
                    for s in range(61)])
    write_report(outdir / "decay.json", {
        "n": n, "k": k, "l": l,
        "lmin": params.lmin, "lmax": params.lmax,
        "resolvent_floor": params.resolvent_floor,
        "decay_rate": params.decay_rate,
        "max_entry_outside_level_set": outside_max,
        "confined": bool(outside_max < 1e-10),
    })


# Each demo's flag contract: (function, default --size, least --size,
# default --max-m, least --max-m). A least value is the smallest that builds
# the demo's operator and, for a sweep, writes a row; a least --max-m of
# None means the demo reads no --max-m.
_DEMOS = {
    "reorth-comparison": (_demo_reorth, 100, 1, 80, 1),
    "estimator-invsqrt": (_demo_estimator_invsqrt, 20, 3, 120, 1),  # 2 x 2 grid: Krylov space of 3
    "exp-interval": (_demo_exp_interval, 100, 1, 32, 1),
    "exp-wedge": (_demo_exp_wedge, 1000, _WEDGE_M_LO - 9, _WEDGE_M_LO + 60, _WEDGE_M_LO - 10),
    "markov-invsqrt": (_demo_markov_invsqrt, 100, 1, 60, 1),
    "convdiff": (_demo_convdiff, 256, 3, 60, 1),
    "decay": (_demo_decay, 400, 2, None, None),
}


def _demo_flag(flag, value, default, least, name):
    """The flag's value, or ``default`` when it is not given. A value below
    ``least``, or any value where ``least`` is None, is an input error."""
    if value is None:
        return default
    if least is None:
        raise ValueError(f"{flag} is not read by the {name} demo")
    if value < least:
        raise ValueError(f"{flag} must be at least {least} for this demo, got {value}")
    return value


def _cmd_demo(args) -> int:
    demo, size, least_size, max_m, least_max_m = _DEMOS[args.name]
    size = _demo_flag("--size", args.size, size, least_size, args.name)
    max_m = _demo_flag("--max-m", args.max_m, max_m, least_max_m, args.name)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(np.random.SeedSequence().entropy % (2**32))
    rng = np.random.default_rng(seed)
    write_report(outdir / "meta.json", {"demo": args.name, "seed": seed,
                                        "size": args.size, "max_m": args.max_m})
    demo(outdir, rng, size, max_m)
    return 0


# -----------------------------------------------------------------------------
# Parser

def _solve_options(args) -> SolveOptions:
    """The stopping-rule flags shared by ``update`` and ``centrality``."""
    return SolveOptions(tol=args.tol, max_m=args.max_m)


def _positive_int(text) -> int:
    """The argparse type of ``demo --size`` and ``--max-m``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funupdate",
                                     description="Low-rank updates of matrix functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--tol", type=float, default=SolveOptions.tol)
    solve.add_argument("--max-m", type=int, default=SolveOptions.max_m)

    up = sub.add_parser("update", parents=[solve], help="approximate f(A + b c^*) - f(A)")
    up.add_argument("--matrix", required=True)
    up.add_argument("--function", required=True, type=function_from_name,
                    help="exp | invsqrt | inverse | log1p-over-z | invpower:G | poly:c0,c1,... | resolvent:Z")
    up.add_argument("--b", required=True, help="e<k> | ones | randn | path")
    up.add_argument("--c", default=None,
                    help="defaults to --b; an identical spec means the identical vector")
    up.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="minus downdates a symmetric matrix by b b^*")
    up.add_argument("--seed", type=int, default=None)
    up.add_argument("--check", action="store_true",
                    help="also measure the true error against a dense reference")
    up.add_argument("--output-dir", default=".")
    up.set_defaults(func=_cmd_update)

    ce = sub.add_parser("centrality", parents=[solve], help="update subgraph centralities under edge edits")
    ce.add_argument("--graph", required=True)
    ce.add_argument("--edits", default=None, help="CSV with rows kind,i,j (0-based nodes)")
    ce.add_argument("--output-dir", default=".")
    ce.set_defaults(func=_cmd_centrality)

    bo = sub.add_parser("bounds", help="tabulate a-priori bounds from a JSON spec")
    bo.add_argument("--spec", required=True)
    bo.add_argument("--output", default="bounds.csv")
    bo.set_defaults(func=_cmd_bounds)

    de = sub.add_parser("demo", help="synthetic experiments emitting CSV bundles")
    de.add_argument("--name", required=True, choices=sorted(_DEMOS))
    de.add_argument("--seed", type=int, default=None)
    de.add_argument("--size", type=_positive_int, default=None)
    de.add_argument("--max-m", type=_positive_int, default=None)
    de.add_argument("--output-dir", default=".")
    de.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OracleScaleError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonFiniteOperatorError as exc:
        print(f"error: NonFiniteOperatorError: {exc}", file=sys.stderr)
        return 4
    except (MatrixMarketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
