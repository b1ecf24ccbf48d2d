"""Correctness gate of the benchmark.

Every check returns a list of failure messages; an empty list means the
output passed. The checks use numpy only and never call into funupdate, so
a broken program cannot vouch for itself. The dense oracle
(``funupdate.oracle``) is used only on the reduced instances, by the
workloads that call :func:`check_against_reference`.
"""

from __future__ import annotations

import numpy as np

# Bound on ||Q* Q - I||_2 for a returned Krylov basis. Full
# reorthogonalization keeps this near 1e-15 on every workload; 1e-10 leaves
# five orders of magnitude for rounding and still fails a truncated or
# damaged column, which moves the residual to order one.
ORTHO_BOUND = 1e-10

# The stopping rule compares two neighbouring approximants; the estimate
# tracks the true error but does not bound it. On the reduced instances the
# true error of a converged factor ranged from 0.001 x tol (centrality
# edits) to 1.3 x tol (Laplacian, invsqrt), so a factor of ten is the margin
# allowed before a converged factor counts as missing its tolerance.
SAFETY = 10.0

# A returned X must equal the coefficients recomputed from the returned
# basis by the projection formula. Observed discrepancies are 1e-11 or
# less, four orders of magnitude under this share of the tolerance.
PROJECTION_SHARE = 1e-3


def finite(**arrays) -> list[str]:
    return [f"{name} has non-finite entries" for name, a in arrays.items()
            if not np.all(np.isfinite(a))]


def orthonormality_residual(q) -> float:
    q = np.asarray(q)
    return float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2))


def check_orthonormal(name, q, bound=ORTHO_BOUND) -> list[str]:
    res = orthonormality_residual(q)
    if not res <= bound:
        return [f"{name}: ||Q*Q - I|| = {res:.3e} exceeds {bound:.0e}"]
    return []


def check_start_vector(name, q, v) -> list[str]:
    """The first basis column must be the normalized starting vector."""
    v = np.asarray(v)
    dev = float(np.linalg.norm(q[:, 0] - v / np.linalg.norm(v)))
    if not dev <= 1e-12:
        return [f"{name}: first column deviates from the start vector by {dev:.3e}"]
    return []


def check_against_reference(approx, ref, tol, safety=SAFETY) -> list[str]:
    """Spectral-norm error of a densified factor against a dense reference."""
    err = float(np.linalg.norm(np.asarray(approx) - np.asarray(ref), 2))
    if not err <= safety * tol:
        return [f"true error {err:.3e} exceeds {safety:g} x tol = {safety * tol:.3e}"]
    return []


def inv_sqrt_hermitian(m) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (q * w ** -0.5) @ q.conj().T


def inv_sqrt_general(m, max_iter=100) -> np.ndarray:
    """M^(-1/2) by the Denman-Beavers iteration; needs no eigenvector
    conditioning, only a spectrum off the closed negative real axis."""
    y = np.array(m, dtype=float)
    z = np.eye(m.shape[0])
    for _ in range(max_iter):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z = 0.5 * (z + np.linalg.inv(y))
        step = np.linalg.norm(y_next - y)
        y = y_next
        if step <= 1e-14 * np.linalg.norm(y):
            break
    return z


def hermitian_coefficients(g, b_norm) -> np.ndarray:
    """X = f(G + |b|^2 e1 e1*) - f(G) for f = invsqrt."""
    bumped = g.copy()
    bumped[0, 0] += b_norm ** 2
    return inv_sqrt_hermitian(bumped) - inv_sqrt_hermitian(g)


def general_coefficients(g, h, b_norm, c_norm, vt_b) -> np.ndarray:
    """(1,2) block of f([[G, |b||c| e1 e1*], [0, V*AV + |c| (V*b) e1*]])
    for f = invsqrt, where G = U*AU and h = V*AV."""
    p, q = g.shape[0], h.shape[0]
    blk = np.zeros((p + q, p + q))
    blk[:p, :p] = g
    blk[p:, p:] = h
    blk[p:, p] += c_norm * vt_b
    blk[0, p] += b_norm * c_norm
    return inv_sqrt_general(blk)[:p, p:]


def check_projection(x, x_ref, tol, share=PROJECTION_SHARE) -> list[str]:
    if x.shape != x_ref.shape:
        return [f"X has shape {x.shape}, the basis implies {x_ref.shape}"]
    dev = float(np.linalg.norm(x - x_ref, 2))
    if not dev <= share * tol:
        return [f"X deviates from its projection formula by {dev:.3e} (limit {share * tol:.3e})"]
    return []


def check_diagonal(diag, ref, bound) -> list[str]:
    diag = np.asarray(diag)
    if diag.shape != np.shape(ref):
        return [f"diagonal has shape {diag.shape}, expected {np.shape(ref)}"]
    dev = float(np.max(np.abs(diag - ref)))
    if not dev <= bound:
        return [f"diagonal deviates from the dense reference by {dev:.3e} (limit {bound:.3e})"]
    return []
