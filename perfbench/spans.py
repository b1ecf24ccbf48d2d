"""Span tracing of the traced benchmark run.

The tracer wraps public functions of funupdate from outside, replacing each
name in the module or class where its caller looks it up, so nothing under
``src/`` changes. Spans (name, start, end, parent) are kept in memory and
handed back when the traced call ends; the benchmark writes them out once,
at the end of its run. Per-layer metrics are derived from the spans alone.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

ROOT = "workload"
_INHERITED = object()
SOLVES = ("update.hermitian_update", "update.general_update", "update.rank_k_update")


def _solve_attrs(fac):
    return {"steps": int(fac.m), "checkpoints": len(fac.estimate_history)}


# (module, class or None, attribute, span name, attrs from the return value)
TARGETS = (
    ("funupdate.sparse", "SparseMatrix", "matvec", "sparse.matvec", None),
    ("funupdate.cli", None, "load_matrix_market", "sparse.load_matrix_market", None),
    ("funupdate.sparse", "Graph", "with_edge", "sparse.Graph.with_edge", None),
    ("funupdate.krylov", "LanczosProcess", "advance", "krylov.advance", None),
    ("funupdate.krylov", "ArnoldiProcess", "advance", "krylov.advance", None),
    ("funupdate.update", None, "eval_matrix_function", "densefun.eval_matrix_function", None),
    ("funupdate.densefun", None, "eigen_decompose", "densefun.eigen_decompose", None),
    ("funupdate.densefun", None, "expm_dense", "densefun.expm_dense", None),
    ("funupdate.update", None, "error_estimate", "update.error_estimate", None),
    ("funupdate.update", None, "hermitian_update", "update.hermitian_update", _solve_attrs),
    ("funupdate.cli", None, "hermitian_update", "update.hermitian_update", _solve_attrs),
    ("funupdate.update", None, "general_update", "update.general_update", _solve_attrs),
    ("funupdate.cli", None, "general_update", "update.general_update", _solve_attrs),
    ("funupdate.update", None, "rank_k_update", "update.rank_k_update", None),
    ("funupdate.cli", None, "rank_k_update", "update.rank_k_update", None),
    ("funupdate.update", None, "split_hermitian", "update.split_hermitian", None),
    ("funupdate.update", None, "extract_diagonal", "update.extract_diagonal", None),
    ("funupdate.cli", None, "extract_diagonal", "update.extract_diagonal", None),
    ("funupdate.cli", None, "main", "cli.main", None),
    ("funupdate.cli", None, "parse_vector_spec", "cli.parse_vector_spec", None),
    ("funupdate.cli", None, "read_edits_csv", "cli.read_edits_csv", None),
    ("funupdate.cli", None, "subgraph_centrality_baseline",
     "cli.subgraph_centrality_baseline", None),
    ("funupdate.cli", None, "write_matrix_csv", "cli.write_matrix_csv", None),
    ("funupdate.cli", None, "write_rows_csv", "cli.write_rows_csv", None),
    ("funupdate.cli", None, "write_report", "cli.write_report", None),
)


class Tracer:
    """Records spans as [name, parent index, start, end, attrs] rows; a
    span's id is its index in ``spans``."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._open.append(sid)
        return sid

    def _exit(self, sid, attrs=None):
        self.spans[sid][3] = time.perf_counter()
        self.spans[sid][4] = attrs
        self._open.pop()

    @contextmanager
    def span(self, name):
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(sid, attrs_of(result) if attrs_of and result is not None else None)
        return traced

    @contextmanager
    def installed(self):
        """Wraps every target for the duration of the block and restores
        the original attributes afterwards."""
        saved = []
        try:
            for mod_name, cls_name, attr, name, attrs_of in TARGETS:
                owner = importlib.import_module(mod_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs_of))
            yield self
        finally:
            for owner, attr, own in reversed(saved):
                if own is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans nest strictly in this single-threaded program, so the children
    of one span never overlap."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced call. ``spans[0]`` is the root span
    around the workload call."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    dur = [s[3] - s[2] for s in spans]

    def total(name):
        return sum(d for n, d in zip(names, dur) if n == name)

    def calls(name):
        return names.count(name)

    def self_of(pred):
        return sum(o for n, o in zip(names, own) if pred(n))

    def under_solve(i):
        parent = spans[i][1]
        while parent is not None:
            if names[parent] in SOLVES:
                return True
            parent = spans[parent][1]
        return False

    rank_k_ms = [1e3 * d for n, d in zip(names, dur) if n == "update.rank_k_update"]
    out = {
        "trace.wall_s": dur[0],
        "trace.root_self_s": own[0],
        "trace.spans": len(spans),
        "krylov.advance.s": total("krylov.advance"),
        "krylov.advance.self_s": self_of(lambda n: n == "krylov.advance"),
        "krylov.advance.calls": calls("krylov.advance"),
        "sparse.matvec.s": total("sparse.matvec"),
        "sparse.matvec.calls": calls("sparse.matvec"),
        "sparse.load_matrix_market.s": total("sparse.load_matrix_market"),
        "sparse.Graph.with_edge.s": total("sparse.Graph.with_edge"),
        "sparse.Graph.with_edge.calls": calls("sparse.Graph.with_edge"),
        "densefun.eval_matrix_function.s": total("densefun.eval_matrix_function"),
        "densefun.eval_matrix_function.calls": calls("densefun.eval_matrix_function"),
        "densefun.eigen_decompose.calls": calls("densefun.eigen_decompose"),
        "densefun.expm_dense.calls": calls("densefun.expm_dense"),
        "update.error_estimate.s": total("update.error_estimate"),
        "update.checkpoints": sum(s[4]["checkpoints"] for s in spans if s[4]),
        "update.solve.s": sum(d for i, (n, d) in enumerate(zip(names, dur))
                              if n in SOLVES and not under_solve(i)),
        "update.rank_k_update.p50_ms": float(np.percentile(rank_k_ms, 50)) if rank_k_ms else 0.0,
        "update.rank_k_update.p95_ms": float(np.percentile(rank_k_ms, 95)) if rank_k_ms else 0.0,
        "update.split_hermitian.s": total("update.split_hermitian"),
        "update.extract_diagonal.s": total("update.extract_diagonal"),
        "cli.write_matrix_csv.s": total("cli.write_matrix_csv"),
        "cli.subgraph_centrality_baseline.s": total("cli.subgraph_centrality_baseline"),
    }
    for layer in ("sparse", "densefun", "update", "cli"):
        out[f"{layer}.self_s"] = self_of(lambda n, p=layer + ".": n.startswith(p))
    return out


# Self time of every layer; krylov has no spans besides advance.
LAYER_SELF = ("sparse.self_s", "krylov.advance.self_s", "densefun.self_s",
              "update.self_s", "cli.self_s")


def unaccounted(metrics) -> float:
    """Traced wall time not covered by the layer self times and the root's
    own time; zero up to rounding because every span nests in the root."""
    covered = metrics["trace.root_self_s"] + sum(metrics[k] for k in LAYER_SELF)
    return metrics["trace.wall_s"] - covered
