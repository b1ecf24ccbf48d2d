"""Seeded workloads of the benchmark.

Each workload generates its inputs from the seed with numpy alone, hands
them to funupdate only as files and arrays, runs one public call (a library
function or ``funupdate.cli.main``) and checks the outputs with ``gate``.
The program modules are looked up at call time, so the traced run sees the
wrapped names.

Sizes: ``full`` is what the benchmark measures, ``tiny`` is for the
benchmark's own self-tests, and ``reduced`` (n <= 1000) is where each update
path is compared with the dense oracle once per benchmark invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate


# -----------------------------------------------------------------------------
# Input generators (numpy only)

@dataclass
class Csr:
    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def matmat(self, x, chunk=32) -> np.ndarray:
        """A @ x for a dense n x k block, a few columns at a time."""
        out = np.zeros((self.n, x.shape[1]))
        nz = np.diff(self.row_ptr) > 0
        starts = self.row_ptr[:-1][nz]
        for j in range(0, x.shape[1], chunk):
            prod = self.values[:, None] * x[self.col_idx, j:j + chunk]
            out[nz, j:j + chunk] = np.add.reduceat(prod, starts, axis=0)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.col_idx] = self.values
        return out


def csr_from_coo(n, rows, cols, vals) -> Csr:
    order = np.lexsort((cols, rows))
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return Csr(n, row_ptr, cols[order], vals[order])


def grid_operator(side, px=0.0, py=0.0) -> Csr:
    """Five-point operator on a side x side grid: 4 on the diagonal and
    -1 -/+ p to the west/east (p = px) and south/north (p = py) neighbours.
    With px = py = 0 this is ``funupdate.gen_laplace2d(side)``; otherwise
    central-difference convection with cell Peclet numbers px, py."""
    n = side * side
    idx = np.arange(n)
    r, c = np.divmod(idx, side)
    rows, cols, vals = [idx], [idx], [np.full(n, 4.0)]
    for dr, dc, v in ((0, 1, -1.0 + px), (0, -1, -1.0 - px),
                      (1, 0, -1.0 + py), (-1, 0, -1.0 - py)):
        ok = (r + dr >= 0) & (r + dr < side) & (c + dc >= 0) & (c + dc < side)
        rows.append(idx[ok])
        cols.append(idx[ok] + dr * side + dc)
        vals.append(np.full(int(ok.sum()), v))
    return csr_from_coo(n, *(np.concatenate(x) for x in (rows, cols, vals)))


def flat_spectrum_vector(rng, side, norm) -> np.ndarray:
    """Random signs on every eigenvector of the grid Laplacian, equal
    weights. A Hermitian solve depends on b only through its spectral
    weights, so every seed changes b and the whole basis but not the number
    of steps: with Gaussian b the stopping size ranged over 172..222 steps
    across 13 seeds."""
    k = np.arange(1, side + 1)
    sine = np.sqrt(2.0 / (side + 1)) * np.sin(np.pi * np.outer(k, k) / (side + 1))
    signs = rng.choice([-1.0, 1.0], size=(side, side))
    v = (sine @ signs @ sine.T).ravel()
    return v * (norm / np.linalg.norm(v))


def gaussian_vector(rng, n, norm) -> np.ndarray:
    v = rng.standard_normal(n)
    return v * (norm / np.linalg.norm(v))


def random_graph(rng, n, edges) -> list:
    """``edges`` distinct undirected pairs (i < j), in draw order."""
    chosen: dict = {}
    while len(chosen) < edges:
        for i, j in rng.integers(0, n, size=(edges, 2)).tolist():
            if i != j and len(chosen) < edges:
                chosen.setdefault((min(i, j), max(i, j)), None)
    return list(chosen)


def edit_sequence(rng, n, edges, count):
    """``count`` edits alternating remove (a present edge) and add (an
    absent one), each valid on the graph left by the ones before. Returns
    the edits and the final edge list."""
    present = list(edges)
    where = {e: k for k, e in enumerate(present)}
    edits = []
    for t in range(count):
        if t % 2 == 0:
            k = int(rng.integers(len(present)))
            e = present[k]
            present[k] = present[-1]
            where[present[k]] = k
            present.pop()
            del where[e]
            edits.append(("remove",) + e)
        else:
            while True:
                i, j = rng.integers(0, n, size=2).tolist()
                e = (min(i, j), max(i, j))
                if i != j and e not in where:
                    break
            where[e] = len(present)
            present.append(e)
            edits.append(("add",) + e)
    return edits, present


def graph_dense(n, edges) -> np.ndarray:
    a = np.zeros((n, n))
    ij = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a[ij[:, 0], ij[:, 1]] = 1.0
    a[ij[:, 1], ij[:, 0]] = 1.0
    return a


def write_mtx(path, a: Csr) -> None:
    lines = [f"%%MatrixMarket matrix coordinate real general\n{a.n} {a.n} {a.col_idx.size}\n"]
    lines += [f"{i + 1} {j + 1} {v!r}\n" for i, j, v in
              zip(a.rows.tolist(), a.col_idx.tolist(), a.values.tolist())]
    Path(path).write_text("".join(lines), encoding="ascii")


def write_graph_mtx(path, n, edges) -> None:
    lines = [f"%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {len(edges)}\n"]
    lines += [f"{j + 1} {i + 1}\n" for i, j in edges]  # lower triangle: row > column
    Path(path).write_text("".join(lines), encoding="ascii")


def write_vector(path, v) -> None:
    Path(path).write_text("".join(f"{x!r}\n" for x in v.tolist()), encoding="ascii")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def output_bytes(outdir) -> int:
    return sum(p.stat().st_size for p in Path(outdir).iterdir() if p.is_file())


# -----------------------------------------------------------------------------
# Workloads

@dataclass
class Outcome:
    """What a checked run reports: Krylov steps summed over solves, the
    gate's failures, and diagnostics that are not checked."""

    steps: int = 0
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _margins(history, tol) -> dict:
    """Stopping estimate and the one before it, as multiples of tol; the
    stopping checkpoint is decided by rounding only when both sit near 1."""
    ests = [e for _, e in history]
    return {"stop_estimate_over_tol": ests[-1] / tol,
            "previous_estimate_over_tol": ests[-2] / tol if len(ests) > 1 else None}


class LibHermitian:
    """``hermitian_update`` then ``extract_diagonal`` on the 2-D grid
    Laplacian with f = invsqrt: the README library tour at scale."""

    name = "lib-hermitian"
    sizes = {"full": 120, "tiny": 12, "reduced": 30}
    # At side 120 the estimates at checkpoints 210 and 215 are 1.03e-6 and
    # 7.7e-7 for every seed; this tolerance sits between them with a margin
    # of more than 10 % on either side.
    tol = 9e-7
    max_m = 400

    def generate(self, seed, size):
        side = self.sizes[size]
        rng = np.random.default_rng(seed)
        return {"a": grid_operator(side), "b": flat_spectrum_vector(rng, side, 0.1)}

    def prepare(self, data, workdir):
        import funupdate
        a = data["a"]
        return dict(data, op=funupdate.SparseMatrix(a.n, a.row_ptr, a.col_idx, a.values,
                                                    symmetry_flag=True),
                    f=funupdate.FunctionSpec.inverse_sqrt(),
                    opts=funupdate.SolveOptions(tol=self.tol, max_m=self.max_m))

    def call(self, inp):
        from funupdate import update
        fac = update.hermitian_update(inp["op"].matvec, inp["b"], inp["f"], opts=inp["opts"])
        return fac, update.extract_diagonal(fac)

    def check(self, inp, out, reference=None) -> Outcome:
        fac, diag = out
        u, x = fac.U, fac.X
        res = Outcome(steps=int(fac.m), info=_margins(fac.estimate_history, self.tol))
        res.errors += gate.finite(U=u, X=x, diagonal=diag)
        if res.errors:
            return res
        if not fac.converged:
            res.errors.append("solve did not converge")
        res.errors += gate.check_orthonormal("U", u)
        res.errors += gate.check_start_vector("U", u, inp["b"])
        g = u.T @ inp["a"].matmat(u)
        x_ref = gate.hermitian_coefficients(0.5 * (g + g.T), np.linalg.norm(inp["b"]))
        res.errors += gate.check_projection(x, x_ref, self.tol)
        own = np.einsum("ij,ij->i", u @ x, u)
        res.errors += gate.check_diagonal(diag, own, 1e-12 * max(1.0, float(np.abs(own).max())))
        return res

    def reduced(self, seed, workdir) -> list:
        from funupdate import oracle
        data = self.generate(seed, "reduced")
        inp = self.prepare(data, None)
        fac, _ = self.call(inp)
        b = inp["b"].reshape(-1, 1)
        errors = [] if fac.converged else ["reduced solve did not converge"]
        ref = oracle.dense_update_reference(data["a"].to_dense(), b, b, inp["f"])
        return errors + gate.check_against_reference(fac.densify(), ref, self.tol)


class CliUpdateGeneral:
    """``funupdate update`` on a nonsymmetric convection-diffusion matrix
    written as Matrix Market, with b != c read from vector files."""

    name = "cli-update-general"
    sizes = {"full": 70, "tiny": 10, "reduced": 20}
    tol = 1e-6
    max_m = 400
    peclet = (0.3, 0.2)

    def generate(self, seed, size):
        side = self.sizes[size]
        rng = np.random.default_rng(seed)
        a = grid_operator(side, *self.peclet)
        return {"a": a, "b": gaussian_vector(rng, a.n, 0.1), "c": gaussian_vector(rng, a.n, 0.1)}

    def prepare(self, data, workdir):
        workdir = Path(workdir)
        paths = {k: str(workdir / name) for k, name in
                 (("matrix", "A.mtx"), ("b_file", "b.txt"), ("c_file", "c.txt"), ("out", "out"))}
        write_mtx(paths["matrix"], data["a"])
        write_vector(paths["b_file"], data["b"])
        write_vector(paths["c_file"], data["c"])
        return dict(data, **paths)

    def call(self, inp):
        from funupdate import cli
        return cli.main(["update", "--matrix", inp["matrix"], "--function", "invsqrt",
                         "--b", inp["b_file"], "--c", inp["c_file"], "--tol", repr(self.tol),
                         "--max-m", str(self.max_m), "--output-dir", inp["out"]])

    def load(self, inp):
        out = Path(inp["out"])
        report = json.loads((out / "report.json").read_text(encoding="ascii"))
        return report, *(read_matrix_csv(out / f"{k}.csv") for k in "UXV")

    def check(self, inp, rc, reference=None) -> Outcome:
        res = Outcome(info={"bytes_written": output_bytes(inp["out"])})
        if rc != 0:
            res.errors.append(f"funupdate update exited with {rc}")
            return res
        report, u, x, v = self.load(inp)
        res.steps = int(report["steps"])
        res.info.update(_margins([(h["m"], h["estimate"]) for h in report["history"]], self.tol))
        res.errors += gate.finite(U=u, X=x, V=v)
        if res.errors:
            return res
        if not report["converged"]:
            res.errors.append("report says not converged")
        res.errors += gate.check_orthonormal("U", u) + gate.check_orthonormal("V", v)
        res.errors += gate.check_start_vector("U", u, inp["b"])
        res.errors += gate.check_start_vector("V", v, inp["c"])
        a = inp["a"]
        x_ref = gate.general_coefficients(u.T @ a.matmat(u), v.T @ a.matmat(v),
                                          np.linalg.norm(inp["b"]), np.linalg.norm(inp["c"]),
                                          v.T @ inp["b"])
        res.errors += gate.check_projection(x, x_ref, self.tol)
        return res

    def reduced(self, seed, workdir) -> list:
        from funupdate import FunctionSpec, oracle
        data = self.generate(seed, "reduced")
        inp = self.prepare(data, workdir)
        rc = self.call(inp)
        if rc != 0:
            return [f"reduced run exited with {rc}"]
        report, u, x, v = self.load(inp)
        errors = [] if report["converged"] else ["reduced solve did not converge"]
        ref = oracle.dense_update_reference(data["a"].to_dense(), data["b"].reshape(-1, 1),
                                            data["c"].reshape(-1, 1), FunctionSpec.inverse_sqrt())
        return errors + gate.check_against_reference(u @ x @ v.T, ref, self.tol)


class CliCentrality:
    """``funupdate centrality`` on a random simple graph with edits that
    alternate remove and add; f = exp."""

    name = "cli-centrality"
    sizes = {"full": (2000, 8000, 200), "tiny": (60, 180, 6), "reduced": (300, 1200, 2)}
    tol = 1e-8

    def generate(self, seed, size):
        n, m, count = self.sizes[size]
        rng = np.random.default_rng(seed)
        edges = random_graph(rng, n, m)
        edits, final = edit_sequence(rng, n, edges, count)
        return {"n": n, "edges": edges, "edits": edits, "final": final}

    def prepare(self, data, workdir):
        workdir = Path(workdir)
        paths = {"graph": str(workdir / "graph.mtx"), "edits_file": str(workdir / "edits.csv"),
                 "out": str(workdir / "out")}
        write_graph_mtx(paths["graph"], data["n"], data["edges"])
        Path(paths["edits_file"]).write_text(
            "".join(f"{k},{i},{j}\n" for k, i, j in data["edits"]), encoding="ascii")
        return dict(data, **paths)

    def call(self, inp):
        from funupdate import cli
        return cli.main(["centrality", "--graph", inp["graph"], "--edits", inp["edits_file"],
                         "--tol", repr(self.tol), "--output-dir", inp["out"]])

    def reference(self, data) -> np.ndarray:
        """diag(exp(A_final)) by a dense symmetric eigendecomposition."""
        w, q = np.linalg.eigh(graph_dense(data["n"], data["final"]))
        return (q * q) @ np.exp(w)

    def diagonal_bound(self, data) -> float:
        # Every edit makes two rank-1 solves, each within SAFETY * tol of
        # its true update in spectral norm, which bounds its diagonal too.
        return gate.SAFETY * self.tol * 2 * len(data["edits"])

    def check(self, inp, rc, reference) -> Outcome:
        res = Outcome(info={"bytes_written": output_bytes(inp["out"])})
        if rc != 0:
            res.errors.append(f"funupdate centrality exited with {rc}")
            return res
        out = Path(inp["out"])
        report = json.loads((out / "report.json").read_text(encoding="ascii"))
        rows = np.loadtxt(out / "edit_report.csv", delimiter=",", skiprows=1, ndmin=2,
                          usecols=(3, 4))
        res.steps = int(rows.sum())
        after = np.loadtxt(out / "centrality.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
        diag = after * report["trace_after"]
        res.errors += gate.finite(diagonal=diag)
        if not report["all_converged"]:
            res.errors.append("report says not all edits converged")
        if len(rows) != len(inp["edits"]):
            res.errors.append(f"{len(rows)} edit rows for {len(inp['edits'])} edits")
        res.errors += gate.check_diagonal(diag, reference, self.diagonal_bound(inp))
        return res

    def reduced(self, seed, workdir) -> list:
        """Both edit kinds through ``rank_k_update``, against the dense
        update of the whole matrix exponential."""
        from funupdate import FunctionSpec, SparseMatrix, SolveOptions, cli, oracle, update
        data = self.generate(seed, "reduced")
        a = graph_dense(data["n"], data["edges"])
        op = SparseMatrix.from_dense(a, symmetry_flag=True)
        errors = []
        for kind, i, j in data["edits"]:
            mod = cli.edge_modification(cli.EdgeOp(kind, i, j), data["n"])
            factors = update.rank_k_update(op.matvec, op.matvec, mod, FunctionSpec.exp(),
                                           SolveOptions(tol=self.tol))
            if not all(f.converged for f in factors):
                errors.append(f"reduced {kind} edit did not converge")
            for f in factors:
                errors += gate.finite(U=f.U, X=f.X) + gate.check_orthonormal("U", f.U)
            ref = oracle.dense_update_reference(a, mod.B, mod.C, FunctionSpec.exp())
            approx = sum(f.densify() for f in factors)
            errors += gate.check_against_reference(approx, ref, self.tol * len(factors))
        return errors


WORKLOADS = {w.name: w for w in (LibHermitian(), CliUpdateGeneral(), CliCentrality())}
