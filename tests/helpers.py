"""Shared construction helpers for the test suite."""

import numpy as np

from funupdate import SparseMatrix


# Symmetric and Hermitian Matrix Market files that give one position twice,
# counting mirrors, with the position their rejection names.
MIRRORED_DUPLICATES = {
    "entry-and-mirror": ("""%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
2 1 1.0
1 2 1.0
""", "(2, 1)"),
    "lower-entry-twice": ("""%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
3 2 1.0
3 2 2.0
""", "(3, 2)"),
    "hermitian-entry-and-mirror": ("""%%MatrixMarket matrix coordinate complex hermitian
2 2 3
1 1 2.0 0.0
2 1 1.0 -1.0
1 2 1.0 1.0
""", "(2, 1)"),
}


def make_hermitian(rng, n, scale=1.0, complex_=False):
    m = rng.standard_normal((n, n))
    if complex_:
        m = m + 1j * rng.standard_normal((n, n))
    m = 0.5 * (m + m.conj().T)
    return scale * m / np.linalg.norm(m, 2)


def make_spd(rng, n, kappa=10.0):
    """SPD matrix with spectrum in [1/kappa, 1] exactly."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0 / kappa, 1.0, n)
    return (q * eigs) @ q.T


def make_general(rng, n, spectral_norm_target=1.0, complex_=False):
    m = rng.standard_normal((n, n))
    if complex_:
        m = m + 1j * rng.standard_normal((n, n))
    return spectral_norm_target * m / np.linalg.norm(m, 2)


def random_sparse(rng, n, density=0.05, complex_=False, symmetric=False):
    nnz = max(1, int(density * n * n))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    if complex_:
        vals = vals + 1j * rng.standard_normal(nnz)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, np.conj(vals)])
    return SparseMatrix.from_coo(n, rows, cols, vals, symmetry_flag=symmetric)


def tridiag_sparse(n, lo, mid, hi):
    rows = list(range(n)) + list(range(n - 1)) + list(range(1, n))
    cols = list(range(n)) + list(range(1, n)) + list(range(n - 1))
    vals = [mid] * n + [hi] * (n - 1) + [lo] * (n - 1)
    return SparseMatrix.from_coo(n, rows, cols, vals, symmetry_flag=(lo == hi))


def unit(rng, n, complex_=False):
    v = rng.standard_normal(n)
    if complex_:
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
