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
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import densefun
from .densefun import (FunctionSpec, function_from_name,
                       scalar_derivative, scalar_values, spectral_norm)
from .errors import (DomainError, MatrixMarketError, NonFiniteOperatorError,
                     OracleScaleError)
from .oracle import DENSE_UPDATE_LIMIT, dense_update_reference
from .sparse import (Graph, SparseMatrix, gen_convdiff1d, gen_laplace2d,
                     graph_distances, load_matrix_market)
from .update import (GeneralProblem, HermitianProblem, LowRankModification,
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
    path to a file with one value per line."""
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
    values = []
    with open(text, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(complex(line))
    vec = np.asarray(values)
    if np.all(vec.imag == 0):
        vec = vec.real
    if vec.shape != (n,):
        raise ValueError(f"vector file has length {vec.shape[0]}, expected {n}")
    return vec


def _history_json(history):
    return [{"m": int(m), "estimate": float(e)} for m, e in history]


# -----------------------------------------------------------------------------
# update subcommand

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
    write_matrix_csv(outdir / "U.csv", fac.U)
    write_matrix_csv(outdir / "X.csv", fac.X)
    if fac.V is fac.U:
        shutil.copyfile(outdir / "U.csv", outdir / "V.csv")
    else:
        write_matrix_csv(outdir / "V.csv", fac.V)
    report = {
        "function": f.label(),
        "algorithm": algorithm,
        "matrix": {"n": a.n, "nnz": a.nnz, "symmetric": bool(a.symmetry_flag)},
        "sign": sign,
        "tol": opts.tol,
        "lookahead": opts.lookahead_d,
        "max_m": opts.max_m,
        "steps": int(fac.m),
        "converged": bool(fac.converged),
        "wall_time_s": wall,
        "history": _history_json(fac.estimate_history),
    }
    if args.check:
        if a.n > DENSE_UPDATE_LIMIT:
            raise OracleScaleError("matrix too large for --check")
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
    edits = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 3:
                raise ValueError(f"edit rows must be kind,i,j; got {row!r}")
            edits.append(EdgeOp(row[0].strip(), int(row[1]), int(row[2])))
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


def _fold(diag: np.ndarray, deltas: list) -> np.ndarray:
    """diag + deltas[0] + deltas[1] + ..., summed left to right; empties deltas."""
    for delta in deltas:
        diag = diag + delta
    deltas.clear()
    return diag


def update_subgraph_centrality(graph: Graph, edits, opts: SolveOptions) -> dict:
    """Applies edge edits to the subgraph-centrality vector.

    The baseline diag(exp(A)) is computed once, on a worker thread while
    the edits are solved in the calling thread (the dense eigensolver
    releases the interpreter lock). With one usable core the two would
    only time-slice it, so the edits then wait for the baseline. Every edit contributes its diagonal
    correction through two signed Hermitian rank-1 solves; corrections made
    before the baseline is ready are held and then added in edit order, so
    the sum is the one a sequential run forms. Centralities are
    renormalized by the updated trace.
    """
    _check_baseline_scale(graph)
    current = graph
    records = []
    engine_seconds = 0.0
    diag = None
    held = []  # per-edit corrections waiting for the baseline
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(subgraph_centrality_baseline, graph)
        if densefun._usable_cores() == 1:
            pending.result()
        for op in edits:
            if op.kind == "add" and current.has_edge(op.i, op.j):
                raise ValueError(f"cannot add existing edge ({op.i}, {op.j})")
            if op.kind == "remove" and not current.has_edge(op.i, op.j):
                raise ValueError(f"cannot remove missing edge ({op.i}, {op.j})")
            mod = edge_modification(op, current.n)
            matvec = current.adjacency.matvec
            t0 = time.perf_counter()
            factors = rank_k_update(matvec, matvec, mod, _EXP, opts)
            delta = np.zeros(current.n)
            for fac in factors:
                delta += extract_diagonal(fac).real
            engine_seconds += time.perf_counter() - t0
            held.append(delta)
            if pending.done():
                diag = _fold(pending.result() if diag is None else diag, held)
            current = current.with_edge(op.i, op.j, op.kind == "add")
            records.append({
                "kind": op.kind,
                "i": op.i,
                "j": op.j,
                "steps": [int(f.m) for f in factors],
                "estimates": [float(f.estimate_history[-1][1]) if f.estimate_history else 0.0
                              for f in factors],
                "converged": all(f.converged for f in factors),
            })
        baseline = pending.result()
    diag = _fold(baseline.copy() if diag is None else diag, held)
    return {
        "baseline_diag": baseline,
        "diag": diag,
        "baseline_centrality": baseline / baseline.sum(),
        "centrality": diag / diag.sum(),
        "graph": current,
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
                   [(r["kind"], r["i"], r["j"],
                     r["steps"][0] if r["steps"] else 0,
                     r["steps"][1] if len(r["steps"]) > 1 else 0,
                     r["estimates"][0] if r["estimates"] else 0.0,
                     r["estimates"][1] if len(r["estimates"]) > 1 else 0.0)
                    for r in result["edits"]])
    write_report(outdir / "report.json", {
        "n": graph.n,
        "edits": len(edits),
        "tol": opts.tol,
        "lookahead": opts.lookahead_d,
        "engine_seconds": result["engine_seconds"],
        "trace_before": float(result["baseline_diag"].sum()),
        "trace_after": float(result["diag"].sum()),
        "all_converged": all(r["converged"] for r in result["edits"]),
    })
    return 0 if all(r["converged"] for r in result["edits"]) else 3


# -----------------------------------------------------------------------------
# bounds subcommand

class _BoundsSpec(dict):
    """A bounds spec whose missing required key, or numeric field of the
    wrong type or shape, is an input error."""

    def __missing__(self, key):
        raise ValueError(f"bounds spec is missing the key {key!r}")

    def num(self, key, default=None, size=None):
        """Field ``key`` as a float, or as a tuple of ``size`` floats."""
        value = self[key] if default is None else self.get(key, default)
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

    def function(self) -> FunctionSpec:
        """The ``function`` field, a name as ``--function`` takes it."""
        name = self["function"]
        if not isinstance(name, str):
            raise ValueError(f"bounds spec key 'function' must be a string, got {name!r}")
        return function_from_name(name)


def _bounds_rows(spec: _BoundsSpec):
    kind = spec["kind"]
    m_range = range(spec.count("m_min", 1), spec.count("m_max", 60) + 1)
    b_norm, c_norm = spec.num("b_norm", 1.0), spec.num("c_norm", 1.0)
    rows = []
    if kind == "exp-superlinear":
        for m in m_range:
            r = bnd.bound_exp_superlinear(spec.num("psi1"), spec.num("rho"), m, b_norm, c_norm)
            rows.append((m, r.value if r.applicable else "NA", r.rate))
    elif kind == "exp-wedge":
        region = bnd.Wedge(spec.num("psi1"), spec.num("rho"), spec.num("alpha"))
        for m in m_range:
            r = bnd.bound_exp_wedge(region, m, b_norm, c_norm)
            rows.append((m, r.value if r.applicable else "NA", r.rate))
    elif kind == "markov-hpd":
        if "f_prime" in spec:
            fp = spec.num("f_prime")
        else:
            fp = abs(scalar_derivative(spec.function(), spec.num("omega")))
        kappa = spec.num("kappa_star")
        s = np.sqrt(kappa)
        rate = (s - 1.0) / (s + 1.0)
        for m in m_range:
            rows.append((m, bnd.bound_markov_hpd(kappa, fp, b_norm, m), rate**m))
    elif kind == "markov":
        if "interval" in spec:
            region = bnd.Interval(*spec.num("interval", size=2))
        else:
            region = bnd.Ellipse(*spec.num("ellipse", size=3))
        beta = spec.num("beta")
        omega = bnd.leftmost_real_point(region)
        fp = abs(scalar_derivative(spec.function(), omega))
        rate = 1.0 / bnd.phi_abs(region, beta)
        for m in m_range:
            rows.append((m, bnd.bound_markov(region, beta, fp, m, b_norm, c_norm), rate**m))
    elif kind == "chebyshev":
        f = spec.function()
        interval = spec.num("interval", size=2)
        for m in m_range:
            rows.append((m, bnd.chebyshev_poly_bound(f, interval, m), "NA"))
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    return rows


def _cmd_bounds(args) -> int:
    with open(args.spec, "r", encoding="ascii") as fh:
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

def _norm2_implicit(ref, u, x, v, iters=80) -> float:
    """Spectral norm of ref - U X V^* by power iteration on the implicit
    operator; avoids forming the difference when n is large."""
    n = ref.shape[0]
    refh = ref.conj().T
    vec = np.full(n, 1.0 / np.sqrt(n), dtype=complex if np.iscomplexobj(ref) or np.iscomplexobj(u) else float)
    vec += 1e-3 * np.cos(np.arange(n))
    vec /= np.linalg.norm(vec)

    def fwd(t):
        return ref @ t - u @ (x @ (v.conj().T @ t))

    def adj(t):
        return refh @ t - v @ (x.conj().T @ (u.conj().T @ t))

    sigma = 0.0
    for _ in range(iters):
        w = fwd(vec)
        z = adj(w)
        zn = np.linalg.norm(z)
        if zn == 0.0:
            return 0.0
        new_sigma = np.sqrt(zn)
        vec = z / zn
        if abs(new_sigma - sigma) <= 1e-10 * max(new_sigma, 1e-300):
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def _demo_reorth(outdir, rng, size, max_m):
    """Plain vs fully reorthogonalized Lanczos on diagonal spectra that are
    benign (equispaced) and adversarial (logarithmically spaced)."""
    n = size or 100
    m_max = max_m or 80
    specs = {
        "equispaced": np.linspace(1e-3, 1e3, n),
        "logspaced": np.logspace(-3, 3, n),
    }
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    columns = []  # error curves in the order of the header
    for eigs in specs.values():
        neg = -np.asarray(eigs)  # evaluate exp(-z) as exp on the negated operator
        ref = dense_update_reference(np.diag(neg), -b.reshape(-1, 1), b.reshape(-1, 1), _EXP)
        for reorth in ("none", "full"):
            prob = HermitianProblem(lambda x, d=neg: d * x, b, _EXP, sign=-1, reorth=reorth)
            prob.grow(m_max)
            columns.append([spectral_norm(ref - prob.factor(m).densify())
                            for m in range(1, prob.dimension + 1)])
    rows = [[m, *errs] for m, errs in
            enumerate(zip_longest(*columns, fillvalue="NA"), start=1)]
    write_rows_csv(outdir / "reorth_comparison.csv",
                   ["m", "err_equispaced_plain", "err_equispaced_full",
                    "err_logspaced_plain", "err_logspaced_full"], rows)


def _demo_estimator_invsqrt(outdir, rng, size, max_m):
    """Lookahead estimates against the true error for the inverse square
    root of a 2-D grid Laplacian under a random rank-1 modification."""
    side = size or 20
    m_cap = max_m or 120
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
    rows = []
    ahead = [prob.factor(m) for m in (1, 2, 3)]
    for m in range(4, prob.dimension + 1):
        ahead.append(prob.factor(m))
        fac = ahead.pop(0)  # the factor at m - 3; ahead holds the next three
        true_err = spectral_norm(ref - fac.densify())
        rows.append([fac.m, true_err] + [error_estimate(fac.X, later.X) for later in ahead])
    write_rows_csv(outdir / "estimator_invsqrt.csv",
                   ["m", "true_error", "estimate_d1", "estimate_d2", "estimate_d3"],
                   rows)


def _demo_exp_interval(outdir, rng, size, max_m):
    """Superlinear bound against the measured error for a downdated
    exponential on a negative real interval."""
    n = size or 100
    m_max = max_m or 32
    eigs = np.linspace(-20.0, 0.0, n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    ref = dense_update_reference(np.diag(eigs), -b.reshape(-1, 1), b.reshape(-1, 1), _EXP)
    prob = HermitianProblem(lambda x: eigs * x, b, _EXP, sign=-1)
    prob.grow(m_max)
    lo = float(min(eigs.min(), np.linalg.eigvalsh(np.diag(eigs) - np.outer(b, b)).min()))
    rho = (0.0 - lo) / 4.0
    rows = []
    for m in range(1, prob.dimension + 1):
        err = spectral_norm(ref - prob.factor(m).densify())
        r = bnd.bound_exp_superlinear(0.0, rho, m, 1.0, 1.0)
        rows.append((m, err, r.value if r.applicable else "NA", r.rate))
    write_rows_csv(outdir / "exp_interval.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "exp_interval.json", {"n": n, "rho": rho, "psi1": 0.0})


def _wedge_samples(rng, n, alpha, rho):
    """Eigenvalue samples inside the wedge region: boundary images of
    shrunken copies, which stay inside by convexity."""
    theta = rng.uniform(0.05, 2.0 * np.pi - 0.05, size=n)
    shrink = rng.uniform(0.15, 0.95, size=n)
    w = np.exp(1j * theta)
    return shrink * rho * w * (1.0 - 1.0 / w) ** alpha


def _demo_exp_wedge(outdir, rng, size, max_m):
    """Wedge bound against the measured error for a downdated exponential
    with eigenvalues in a corner region of the left half-plane."""
    n = size or 1000
    alpha, rho = 1.5, 100.0
    eigs = _wedge_samples(rng, n, alpha, rho)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    a_dense = np.diag(eigs)
    ref = dense_update_reference(a_dense, -b.reshape(-1, 1), b.reshape(-1, 1), _EXP)
    prob = GeneralProblem(lambda x: eigs * x, lambda x: np.conj(eigs) * x, -b, b, _EXP)
    region = bnd.Wedge(0.0, rho + 1.0, alpha)
    m_lo = int(np.ceil(alpha * (rho + 1.0) ** (1.0 / alpha) + 4.0 / alpha - 1.0))
    m_hi = min(max_m or (m_lo + 60), n - 1)
    prob.grow(m_hi)
    rows = []
    for m in range(max(1, m_lo - 10), min(m_hi, prob.dimension) + 1):
        fac = prob.factor(m)
        err = _norm2_implicit(ref, fac.U, fac.X, fac.V)
        r = bnd.bound_exp_wedge(region, m)
        rows.append((m, err, r.value if r.applicable else "NA", r.rate))
    write_rows_csv(outdir / "exp_wedge.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "exp_wedge.json", {"n": n, "alpha": alpha, "rho": rho + 1.0, "psi1": 0.0})


def _demo_markov_invsqrt(outdir, rng, size, max_m):
    """Conjugate-gradient style bound against the measured error for an
    updated inverse square root on a positive interval."""
    n = size or 100
    m_max = max_m or 60
    eigs = np.linspace(0.1, 10.0, n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    f = FunctionSpec.inverse_sqrt()
    ref = dense_update_reference(np.diag(eigs), b.reshape(-1, 1), b.reshape(-1, 1), f)
    lmax_up = float(np.linalg.eigvalsh(np.diag(eigs) + np.outer(b, b)).max())
    kappa_star = lmax_up / 0.1
    fp = abs(scalar_derivative(f, 0.1))
    prob = HermitianProblem(lambda x: eigs * x, b, f)
    prob.grow(m_max)
    rows = []
    for m in range(1, prob.dimension + 1):
        err = spectral_norm(ref - prob.factor(m).densify())
        s = np.sqrt(kappa_star)
        rows.append((m, err, bnd.bound_markov_hpd(kappa_star, fp, 1.0, m),
                     ((s - 1.0) / (s + 1.0)) ** m))
    write_rows_csv(outdir / "markov_invsqrt.csv", ["m", "true_error", "bound", "rate"], rows)
    write_report(outdir / "markov_invsqrt.json", {"n": n, "kappa_star": kappa_star})


def _demo_convdiff(outdir, rng, size, max_m):
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
    n = size or 256
    m_cap = max_m or 60
    pos = n // 2 - 1
    f = _EXP
    h2 = (1.0 / (n + 1)) ** 2

    def last_crossing(estimates):
        above = [m for m, e in estimates.items() if e > 1e-6]
        return (max(above) + 1) if above else 1

    columns = []  # estimate and error curves, per coefficient in turn
    counts = {}
    counts_stiff = {}
    for c_tilde in (20.0, 40.0, 60.0):
        a, b, c_vec = gen_convdiff1d(n, 10.0, c_tilde, pos)
        at = a.conjugate_transpose()

        prob = GeneralProblem(a.matvec, at.matvec, b, c_vec, f)
        xs = {m: prob.x(m) for m in range(1, m_cap + 3)}
        counts_stiff[str(int(c_tilde))] = last_crossing(
            {m: error_estimate(xs[m], xs[m + 2]) for m in range(1, m_cap + 1)})

        b_s, c_s = b, h2 * c_vec
        ref = dense_update_reference(h2 * a.to_dense(), b_s.reshape(-1, 1),
                                     c_s.reshape(-1, 1), f)
        prob = GeneralProblem(lambda x: h2 * a.matvec(x), lambda x: h2 * at.matvec(x),
                              b_s, c_s, f)
        ests, errs = [], []
        ahead = [prob.factor(m) for m in (1, 2)]
        for m in range(3, m_cap + 3):
            ahead.append(prob.factor(m))
            fac = ahead.pop(0)  # the factor at m - 2; ahead holds the next two
            ests.append(error_estimate(fac.X, ahead[-1].X))
            errs.append(spectral_norm(ref - fac.densify()))
        columns += [ests, errs]
        counts[str(int(c_tilde))] = last_crossing(dict(enumerate(ests, start=1)))

    rows = [[m, *vals] for m, vals in enumerate(zip(*columns), start=1)]
    write_rows_csv(outdir / "convdiff.csv",
                   ["m", "estimate_c20", "error_c20", "estimate_c40", "error_c40",
                    "estimate_c60", "error_c60"], rows)
    write_report(outdir / "convdiff.json", {"n": n, "steps_to_1e-6": counts,
                                            "steps_to_1e-6_stiff": counts_stiff})


def _demo_decay(outdir, rng, size, max_m):
    """Entrywise decay of an inverse-square-root update of a tridiagonal
    operator after a single unit-entry modification near the center."""
    n = size or 400
    k = n // 2
    l = n // 2 - 1
    f = FunctionSpec.inverse_sqrt()
    a = SparseMatrix.from_coo(
        n,
        [i for i in range(n)] + [i for i in range(n - 1)] + [i + 1 for i in range(n - 1)],
        [i for i in range(n)] + [i + 1 for i in range(n - 1)] + [i for i in range(n - 1)],
        [3.0] * n + [-1.0] * (2 * (n - 1)),
        symmetry_flag=True,
    )
    a_dense = a.to_dense()
    ek = np.zeros(n)
    ek[k] = 1.0
    el = np.zeros(n)
    el[l] = 1.0
    fmat = dense_update_reference(a_dense, ek.reshape(-1, 1), el.reshape(-1, 1), f)
    params = bnd.decay_params_from_matrix(a_dense, f, k, l)
    dist_k = graph_distances(a, k)
    dist_l = graph_distances(a, l)
    bound = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            bound[i, j] = bnd.stieltjes_update_decay(params, int(dist_k[i]), int(dist_l[j]))
    level = bound > 1e-10
    outside_max = float(np.abs(fmat[~level]).max()) if np.any(~level) else 0.0
    half = 40
    window = np.abs(fmat[k - half:k + half + 1, l - half:l + half + 1])
    write_matrix_csv(outdir / "decay_window.csv", window)
    rows = []
    for s in range(0, 61):
        mask = (dist_k[:, None] + dist_l[None, :]) == s
        rows.append((s, float(np.abs(fmat[mask]).max()) if np.any(mask) else 0.0,
                     bnd.stieltjes_update_decay(params, s, 0)))
    write_rows_csv(outdir / "decay_profile.csv",
                   ["distance_sum", "max_entry", "bound"], rows)
    write_report(outdir / "decay.json", {
        "n": n, "k": k, "l": l,
        "lmin": params.lmin, "lmax": params.lmax,
        "resolvent_floor": params.resolvent_floor,
        "decay_rate": params.decay_rate,
        "max_entry_outside_level_set": outside_max,
        "confined": bool(outside_max < 1e-10),
    })


_DEMOS = {
    "reorth-comparison": _demo_reorth,
    "estimator-invsqrt": _demo_estimator_invsqrt,
    "exp-interval": _demo_exp_interval,
    "exp-wedge": _demo_exp_wedge,
    "markov-invsqrt": _demo_markov_invsqrt,
    "convdiff": _demo_convdiff,
    "decay": _demo_decay,
}


def _cmd_demo(args) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(np.random.SeedSequence().entropy % (2**32))
    rng = np.random.default_rng(seed)
    write_report(outdir / "meta.json", {"demo": args.name, "seed": seed,
                                        "size": args.size, "max_m": args.max_m})
    _DEMOS[args.name](outdir, rng, args.size, args.max_m)
    return 0


# -----------------------------------------------------------------------------
# Parser

def _solve_options(args) -> SolveOptions:
    """The stopping-rule flags shared by ``update`` and ``centrality``."""
    return SolveOptions(tol=args.tol, lookahead_d=args.lookahead,
                        max_m=args.max_m, batch=args.batch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funupdate",
                                     description="Low-rank updates of matrix functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--lookahead", type=int, default=2)
    solve.add_argument("--max-m", type=int, default=200)
    solve.add_argument("--batch", type=int, default=5)

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
    de.add_argument("--size", type=int, default=None)
    de.add_argument("--max-m", type=int, default=None)
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
    except (MatrixMarketError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
