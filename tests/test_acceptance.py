"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion. Every expected value is either computed by the dense oracle in
this file or is a closed-form constant checked elsewhere in the suite.
"""

import time

import numpy as np
import pytest

from funupdate import (FunctionSpec, GeneralProblem, Graph, HermitianProblem,
                       SolveOptions, SparseMatrix, bound_exp_superlinear,
                       decay_params_from_matrix, dense_update_reference,
                       block_lemma_check, error_estimate, extract_diagonal,
                       gen_convdiff1d, gen_laplace2d, general_update,
                       graph_distances, rank_k_update, scalar_derivative,
                       spectral_norm)
from funupdate.cli import EdgeOp, edge_modification
from funupdate.densefun import eval_matrix_function
from helpers import make_general, make_hermitian, make_spd, tridiag_sparse, unit

EXP = FunctionSpec.exp()
INVSQRT = FunctionSpec.inverse_sqrt()


def _report(num, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nacceptance {num:2d} [{name}]: PASS ({elapsed:.1f}s)", flush=True)


def test_01_polynomial_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n, m = 60, 8
    a = make_general(rng, n)
    at = a.conj().T
    b, c = unit(rng, n), unit(rng, n)
    for j in range(m + 1):
        p = FunctionSpec.polynomial([0.0] * j + [1.0])
        fac = GeneralProblem(lambda x: a @ x, lambda x: at @ x, b, c, p).factor(m)
        modified = np.linalg.matrix_power(a + np.outer(b, c.conj()), j)
        base = np.linalg.matrix_power(a, j)
        residual = spectral_norm(modified - base - fac.densify())
        assert residual <= 1e-9 * (1.0 + spectral_norm(modified))
    _report(1, "polynomial exactness", started, 5.0)


def test_02_hermitian_general_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    n, m = 80, 12
    a = make_hermitian(rng, n, scale=2.0)
    b = unit(rng, n)
    herm = HermitianProblem(lambda x: a @ x, b, EXP).factor(m)
    gen = GeneralProblem(lambda x: a @ x, lambda x: a @ x, b, b, EXP).factor(m)
    assert spectral_norm(herm.densify() - gen.densify()) <= 1e-10
    _report(2, "hermitian/general consistency", started, 5.0)


def test_03_sherman_morrison_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    n = 50
    a = make_spd(rng, n, kappa=80.0)
    b = 0.1 * unit(rng, n)
    c = 0.1 * unit(rng, n)
    fac = general_update(lambda x: a @ x, lambda x: a @ x, b, c,
                         FunctionSpec.inverse(), SolveOptions(tol=1e-11, max_m=60))
    assert fac.converged
    ainv = np.linalg.inv(a)
    closed = -np.outer(ainv @ b, ainv.T @ c) / (1.0 + c @ ainv @ b)
    assert spectral_norm(fac.densify() - closed) <= 1e-8 * spectral_norm(closed)
    _report(3, "Sherman-Morrison closed form", started, 5.0)


def test_04_estimator_tracking_laplacian():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    a = gen_laplace2d(20)
    assert a.n == 400
    b = rng.standard_normal(a.n)
    c = rng.standard_normal(a.n)
    b *= 0.1 / np.linalg.norm(b)
    c *= 0.1 / np.linalg.norm(c)
    opts = SolveOptions(tol=1e-7, max_m=200)
    fac = general_update(a.matvec, a.conjugate_transpose().matvec, b, c, INVSQRT, opts)
    assert fac.converged and fac.estimate_history[-1][1] <= 1e-7

    ref = dense_update_reference(a.to_dense(), b.reshape(-1, 1), c.reshape(-1, 1), INVSQRT)
    # the processes are deterministic, so rebuilding reproduces the engine's
    # iterates exactly and lets us measure the true error at each checkpoint
    prob = GeneralProblem(a.matvec, a.conjugate_transpose().matvec, b, c, INVSQRT)
    for m, estimate in fac.estimate_history:
        if m <= 5:
            continue
        true_err = spectral_norm(ref - prob.factor(m).densify())
        assert estimate <= 100.0 * true_err
        assert estimate >= true_err / 100.0
    final_err = spectral_norm(ref - fac.densify())
    assert final_err <= 1e-6
    _report(4, "estimator tracking (2-D Laplacian, invsqrt)", started, 60.0)


def test_05_exp_superlinear_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 100
    eigs = np.linspace(-20.0, 0.0, n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    # the downdated spectrum must stay inside the region the bound assumes
    assert np.linalg.eigvalsh(np.diag(eigs) - np.outer(b, b)).min() >= -20.2
    psi1, rho = 0.0, 5.05

    ref = dense_update_reference(np.diag(eigs), -b.reshape(-1, 1), b.reshape(-1, 1), EXP)
    prob = HermitianProblem(lambda x: eigs * x, b, EXP, sign=-1)
    prob.grow(30)
    rates = {}
    for m in range(1, 31):
        err = spectral_norm(ref - prob.factor(m).densify())
        result = bound_exp_superlinear(psi1, rho, m, 1.0, 1.0)
        rates[m] = result.rate
        if m + 1 >= np.e * rho:
            assert result.applicable
            assert err <= result.value  # strict dominance
    valid = [m for m in rates if m + 1 >= np.e * rho]
    ratios = [rates[m + 1] / rates[m] for m in valid[:-1]]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))  # super-geometric decay
    _report(5, "exp superlinear bound dominance", started, 30.0)


def test_06_markov_hpd_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 100
    eigs = np.linspace(0.1, 10.0, n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    assert np.linalg.eigvalsh(np.diag(eigs) + np.outer(b, b)).max() <= 10.1

    ref = dense_update_reference(np.diag(eigs), b.reshape(-1, 1), b.reshape(-1, 1), INVSQRT)
    prob = HermitianProblem(lambda x: eigs * x, b, INVSQRT)
    prob.grow(60)
    f_prime = abs(scalar_derivative(INVSQRT, 0.1))
    for m in range(1, 61):
        err = spectral_norm(ref - prob.factor(m).densify())
        assert err <= 8.0 * f_prime * 0.8197**m  # rate derived from kappa* = 101
    _report(6, "Markov HPD bound dominance", started, 30.0)


def _convdiff_count(apply_a, apply_a_adj, b, c, m_max=80):
    """First step count after which the lookahead estimate stays at or
    below 1e-6; read off the full estimate curve so that an early spurious
    dip during stagnation cannot shorten the count."""
    prob = GeneralProblem(apply_a, apply_a_adj, b, c, EXP)
    xs = {m: prob.x(m) for m in range(1, m_max + 3)}
    estimates = {m: error_estimate(xs[m], xs[m + 2]) for m in range(1, m_max + 1)}
    above = [m for m, e in estimates.items() if e > 1e-6]
    return (max(above) + 1) if above else 1


def test_07_convdiff_insensitivity():
    started = time.perf_counter()
    n, pos = 256, 127
    h2 = (1.0 / (n + 1)) ** 2

    counts_spec = {}
    counts_unit = {}
    for c_tilde in (20.0, 40.0, 60.0):
        a, b, c = gen_convdiff1d(n, 10.0, c_tilde, pos)
        at = a.conjugate_transpose()
        counts_spec[c_tilde] = _convdiff_count(a.matvec, at.matvec, b, c, m_max=40)
        # the stiff-scaled operator damps the whole update below tolerance,
        # so the count question is degenerate there; confirm that claim
        ref = dense_update_reference(a.to_dense(), b.reshape(-1, 1), c.reshape(-1, 1), EXP)
        assert spectral_norm(ref) <= 1e-6
        # the unit-diffusion rescaling exercises a genuine convergence curve
        counts_unit[c_tilde] = _convdiff_count(
            lambda x: h2 * a.matvec(x), lambda x: h2 * at.matvec(x), b, h2 * c, m_max=60)

    for counts in (counts_spec, counts_unit):
        values = list(counts.values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) <= 3
    assert max(counts_unit.values()) > 3  # the rescaled curves are nondegenerate
    _report(7, f"convection-diffusion insensitivity (counts {counts_unit})", started, 60.0)


def test_08_centrality_updates():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 500
    dense = np.zeros((n, n))
    pairs = set()
    while len(pairs) < int(0.01 * n * (n - 1) / 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    for i, j in pairs:
        dense[i, j] = dense[j, i] = 1.0
    graph = Graph(SparseMatrix.from_dense(dense, symmetry_flag=True))

    edges = sorted(pairs)
    non_edges = []
    while len(non_edges) < 5:
        i, j = rng.integers(0, n, size=2)
        if i != j and dense[i, j] == 0 and (min(i, j), max(i, j)) not in non_edges:
            non_edges.append((min(i, j), max(i, j)))
    removals = [edges[int(k)] for k in rng.choice(len(edges), size=5, replace=False)]
    edits = []
    for k in range(5):
        edits.append(EdgeOp("add", *non_edges[k]))
        edits.append(EdgeOp("remove", *removals[k]))

    opts = SolveOptions(tol=1e-6, max_m=120)
    diag = np.diag(eval_matrix_function(dense, EXP)).copy()
    current_dense = dense.copy()
    current_graph = graph
    engine_seconds = 0.0
    dense_seconds = 0.0
    for op in edits:
        mod = edge_modification(op, n)
        matvec = current_graph.adjacency.matvec
        t0 = time.perf_counter()
        factors = rank_k_update(matvec, matvec, mod, EXP, opts)
        delta = np.zeros(n)
        for fac in factors:
            delta += extract_diagonal(fac).real
        engine_seconds += time.perf_counter() - t0

        assert len(factors) == 2
        for fac in factors:
            assert fac.converged
            assert 5 <= fac.m <= 60  # per-edit rank-1 step counts

        diag = diag + delta
        sign = 1.0 if op.kind == "add" else -1.0
        current_dense[op.i, op.j] += sign
        current_dense[op.j, op.i] += sign
        current_graph = current_graph.with_edge(op.i, op.j, op.kind == "add")

        t0 = time.perf_counter()
        recomputed = np.diag(eval_matrix_function(current_dense, EXP))
        dense_seconds += time.perf_counter() - t0
        assert np.max(np.abs(diag - recomputed)) <= 1e-5

    assert engine_seconds < dense_seconds
    _report(8, f"centrality updates (engine {engine_seconds:.2f}s < dense {dense_seconds:.2f}s)",
            started, 120.0)


def test_09_decay_confinement():
    started = time.perf_counter()
    n, k, l = 400, 200, 199
    a = tridiag_sparse(n, -1.0, 3.0, -1.0)
    a_dense = a.to_dense()
    ek = np.zeros(n)
    ek[k] = 1.0
    el = np.zeros(n)
    el[l] = 1.0
    update = dense_update_reference(a_dense, ek.reshape(-1, 1), el.reshape(-1, 1), INVSQRT)
    params = decay_params_from_matrix(a_dense, INVSQRT, k, l)

    dist_k = graph_distances(a, k)
    dist_l = graph_distances(a, l)
    total = dist_k[:, None] + dist_l[None, :]
    with np.errstate(over="ignore", under="ignore"):
        bound = (4.0 * params.f_prime_lmin / params.resolvent_floor
                 * params.decay_rate ** total)
    # spot-check the vectorized table against the bound operation itself
    rng = np.random.default_rng(9)
    from funupdate import stieltjes_update_decay

    for _ in range(100):
        i, j = rng.integers(0, n, size=2)
        assert bound[i, j] == pytest.approx(
            stieltjes_update_decay(params, int(dist_k[i]), int(dist_l[j])), rel=1e-12)

    magnitude = np.abs(update)
    # dominance, with a 1e-12 absolute floor for the dense oracle's own
    # rounding noise (the bound decays below machine precision far out)
    assert np.all(magnitude <= bound + 1e-12)
    level_set = bound > 1e-10
    outside_max = magnitude[~level_set].max()
    assert outside_max < 1e-10
    big = np.nonzero(magnitude > 1e-10)
    span = (int(np.ptp(big[0])) + 1, int(np.ptp(big[1])) + 1)
    assert span[0] <= 60 and span[1] <= 60  # a window of order 40 x 40
    _report(9, f"decay confinement (window {span[0]}x{span[1]})", started, 60.0)


def test_10_oracle_self_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(110)
    for trial in range(20):
        n = int(rng.integers(8, 28))
        a = make_general(rng, n, spectral_norm_target=1.5)
        b, c = unit(rng, n), unit(rng, n)
        f = EXP if trial % 2 == 0 else FunctionSpec.polynomial(rng.standard_normal(4))
        update_norm = spectral_norm(
            dense_update_reference(a, b.reshape(-1, 1), c.reshape(-1, 1), f))
        assert block_lemma_check(a, b, c, f) <= 1e-9 * (1.0 + update_norm)
    _report(10, "oracle self-consistency", started, 10.0)
