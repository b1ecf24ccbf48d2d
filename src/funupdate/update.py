"""Low-rank update engine: compressed difference problems, convergence
monitoring, and rank-k driving.

The central objects approximate f(A + D) - f(A) as U X V^* with orthonormal
Krylov blocks U, V and a small coefficient matrix X, without ever forming an
n x n correction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .densefun import (FunctionSpec, eval_matrix_function, spectral_norm,
                       triangular_block_function)
from .errors import DomainError
from .krylov import ArnoldiProcess, LanczosProcess, as_operator


@dataclass(frozen=True)
class SolveOptions:
    """Stopping-rule knobs for the iterative drivers.

    The estimator compares the coefficient matrices of steps m and
    m + lookahead_d. It is evaluated at checkpoints on a grid of ``batch``
    steps, spaced geometrically while the estimate is far from ``tol`` and
    bisected back to the first passing grid point. ``max_m`` caps the total
    number of Krylov steps a solve may build (the reported factor never
    exceeds it).
    """

    tol: float = 1e-6
    lookahead_d: int = 2
    max_m: int = 200
    batch: int = 5

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.lookahead_d < 1:
            raise ValueError("lookahead_d must be at least 1")
        if self.max_m < self.lookahead_d + 1:
            raise ValueError("max_m must be at least lookahead_d + 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")


@dataclass
class UpdateFactor:
    """Factored approximation U X V^* of a matrix-function update.

    A factor from a solve or a problem holds U and V as read-only,
    Fortran-ordered views of the Krylov basis buffers, which they keep
    alive (the capacity, at most max(32, 2 basis_dimension) columns);
    ``np.array(fac.U)`` is an owned copy. V is the same array as U for
    Hermitian solves. ``estimate_history``
    holds the (m, estimate) pairs of the checkpoints up to the returned
    one, sorted by m. ``basis_dimension`` is the number of Krylov steps
    built (at least m): a checkpoint schedule that overshoots and bisects
    back builds more steps than it returns.
    """

    U: np.ndarray
    X: np.ndarray
    V: np.ndarray
    m: int
    converged: bool
    estimate_history: list = field(default_factory=list)
    basis_dimension: int = 0

    def __post_init__(self):
        self.basis_dimension = max(self.basis_dimension, self.m)

    def densify(self) -> np.ndarray:
        """Materializes the n x n update. Testing and small-scale
        verification only; the whole point of the factor is to avoid this."""
        return self.U @ self.X @ self.V.conj().T


@dataclass(frozen=True)
class LowRankModification:
    """Rank-k modification D = B C^* given by its n x k factors; a 1-D
    factor of length n is one column.

    Set ``hermitian_flag`` when B C^* is Hermitian and the base operator is
    too; rank-k driving then uses the symmetric splitting path, which tests
    the claim about B C^* exactly and trusts the one about the operator.
    """

    B: np.ndarray
    C: np.ndarray
    hermitian_flag: bool = False

    def __post_init__(self):
        b, c = (a[:, None] if a.ndim == 1 else np.atleast_2d(a)
                for a in (np.asarray(self.B), np.asarray(self.C)))
        if b.ndim != 2 or c.ndim != 2 or b.shape != c.shape:
            raise ValueError("B and C must be n x k arrays of equal shape")
        if b.shape[1] > b.shape[0]:
            raise ValueError("rank k cannot exceed the dimension n")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("factors must be finite")
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def k(self) -> int:
        return self.B.shape[1]


# -----------------------------------------------------------------------------
# Projected problems

def error_estimate(x_m, x_md) -> float:
    """Spectral norm of X_{m+d} minus the zero-padded X_m; this equals the
    distance between the two full approximants because the later basis
    extends the earlier one."""
    x_m = np.atleast_2d(np.asarray(x_m))
    x_md = np.atleast_2d(np.asarray(x_md))
    if x_md.shape[0] < x_m.shape[0] or x_md.shape[1] < x_m.shape[1]:
        raise ValueError("size ordering violated: X_md must dominate X_m")
    diff = x_md.astype(np.result_type(x_m, x_md), copy=True)
    diff[: x_m.shape[0], : x_m.shape[1]] -= x_m
    return spectral_norm(diff)


class _Problem:
    """Krylov processes grown on demand. ``x(m)`` and ``factor(m)`` read the
    first m vectors of each process, or all it has after a breakdown; they
    equal a fresh problem's bit for bit, as growing never changes a prefix.
    A problem gives its two diagonal blocks G, K and the coupling of
    E = coupling e1 e1^* (``_blocks``); X is the (1,2) block of f of
    [[G, E], [0, K]], from ``triangular_block_function`` or, where that
    returns None, from f of the whole block. ``x(m)`` raises DomainError
    when X is not finite (f overflowed)."""

    def __init__(self, f: FunctionSpec, *processes):
        self.f = f
        self._processes = processes

    @property
    def dimension(self) -> int:
        return max(p.dimension for p in self._processes)

    @property
    def exhausted(self) -> bool:
        """Every Krylov space is invariant: the factor at ``dimension`` is exact."""
        return all(p.breakdown for p in self._processes)

    def grow(self, m) -> None:
        for p in self._processes:
            if p.dimension < m and not p.breakdown:
                p.advance(m - p.dimension)

    def x(self, m) -> np.ndarray:
        if m < 1:
            raise ValueError("m must be at least 1")
        self.grow(m)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            g, k, coupling = self._blocks(*(min(m, p.dimension) for p in self._processes))
            x = triangular_block_function(g, k, coupling, self.f)
            if x is None:  # f of the whole block [[G, coupling e1 e1^*], [0, K]]
                split = g.shape[0]
                blk = np.zeros((split + k.shape[0],) * 2, dtype=np.result_type(g, k))
                blk[:split, :split], blk[split:, split:], blk[0, split] = g, k, coupling
                x = eval_matrix_function(blk, self.f)[:split, split:]
        if not np.isfinite(x).all():
            raise DomainError(f"{self.f.label()} of the compressed matrix is not finite "
                              f"at m = {m}: f overflows on its spectrum")
        return x

    def factor(self, m) -> UpdateFactor:
        """Factor on the first m vectors, converged when exact; no stopping rule is run."""
        return self._factor(m, self.x(m), self.exhausted and m >= self.dimension, [])

    def _factor(self, m, x, converged, history) -> UpdateFactor:
        bases = [p.basis_matrix(min(m, p.dimension)) for p in self._processes]
        return UpdateFactor(bases[0], x, bases[-1], min(m, self.dimension), converged, history,
                            self.dimension)


class HermitianProblem(_Problem):
    """f(A + sign*b b^*) - f(A) for Hermitian A on the Lanczos space of b,
    X_m = f(T_m + sign*|b|^2 e1 e1^*) - f(T_m), the (1,2) block of f of
    [[T_m, sign*|b|^2 e1 e1^*], [0, T_m + sign*|b|^2 e1 e1^*]] (the block
    lemma, ``oracle.block_lemma_check``); sign=-1 realizes a downdate. The
    factor's V is its U."""

    def __init__(self, apply_a, b, f: FunctionSpec, sign=1, reorth="full"):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        super().__init__(f, LanczosProcess(apply_a, b, reorth=reorth))
        self.sign = sign

    def _blocks(self, m) -> tuple:
        (proc,) = self._processes
        t = proc.compressed(m)
        bumped, coupling = t.copy(), self.sign * proc.start_norm ** 2
        bumped[0, 0] += coupling
        return t, bumped, coupling


class GeneralProblem(_Problem):
    """f(A + b c^*) - f(A) for general A on the Arnoldi spaces of (A, b) and
    (A^*, c): X is the (1,2) block of f of the block compression
    [[G, |b||c| e1 e1^*], [0, H^* + |c| (V^* b) e1^*]]."""

    def __init__(self, apply_a, apply_a_adj, b, c, f: FunctionSpec):
        self._b = np.asarray(b)
        super().__init__(f, ArnoldiProcess(apply_a, self._b), ArnoldiProcess(apply_a_adj, c))

    def _blocks(self, mu, mv) -> tuple:
        pu, pv = self._processes
        vt_b = pv.basis_matrix(mv).conj().T @ self._b
        h_adj = pv.compressed(mv).conj().T
        k = h_adj.astype(np.result_type(h_adj, vt_b))
        k[:, 0] += pv.start_norm * vt_b
        return pu.compressed(mu), k, pu.start_norm * pv.start_norm


# -----------------------------------------------------------------------------
# Iterative drivers

# After a failing estimate at checkpoint c the next checkpoint is the first
# grid point at or above 1.3 c; within _NEAR_TOL times tol it is the next one.
_GROWTH_PERCENT = 130
_NEAR_TOL = 3.0


def _stopping_index(grid, estimate, tol) -> tuple:
    """The grid index the stopping rule returns and whether its estimate met
    ``tol``; ``estimate(c)`` is the lookahead estimate at grid point c and is
    called at most once per point.

    The estimate decays roughly geometrically, so while it fails by more
    than _NEAR_TOL times tol the checkpoints grow by 1.3 and skip grid
    points. A pass is bisected back over the points skipped since the last
    failing checkpoint. A jump that lands on a fail within _NEAR_TOL times
    tol scans the skipped points in order instead, as the estimate is not
    monotone and may pass just below that fail. On a non-increasing
    sequence the result is the first passing grid point."""
    lo, i = -1, 0  # lo: the last failing checkpoint
    while True:
        est = estimate(grid[i])
        if est <= tol:
            while i - lo > 1:
                mid = (lo + i) // 2
                if estimate(grid[mid]) <= tol:
                    i = mid
                else:
                    lo = mid
            return i, True
        near = est <= _NEAR_TOL * tol
        if near:
            skipped = next((j for j in range(lo + 1, i) if estimate(grid[j]) <= tol), None)
            if skipped is not None:
                return skipped, True
        if i == len(grid) - 1:
            return i, False
        lo, i = i, i + 1
        if not near:  # on to the first grid point at or above 1.3 c
            ceiling = -(-_GROWTH_PERCENT * grid[lo] // 100)
            i = min(max(i, bisect_left(grid, ceiling)), len(grid) - 1)


def _solve(problem: _Problem, opts: SolveOptions | None) -> UpdateFactor:
    """The stopping rule: the lookahead estimate is formed at checkpoints on
    a grid of ``batch`` steps (``_stopping_index`` picks which) and the
    richer (m+d)-step factor of the first passing checkpoint is returned.
    An exhausted problem is exact and converged. When ``max_m`` is reached
    first, the factor there is returned with ``converged=False``. The
    history ends at the returned checkpoint; probes past it only grew the
    basis, which ``basis_dimension`` counts."""
    opts = opts or SolveOptions()
    d = opts.lookahead_d
    last = opts.max_m - d
    grid = [*range(opts.batch, last, opts.batch), last]
    probes: dict = {}  # checkpoint -> (m, estimate, X_{m+d} if it may be returned)

    def estimate(c):
        problem.grow(c + d)
        if problem.exhausted and problem.dimension <= c + d:
            m, est, x_big = problem.dimension, 0.0, problem.x(problem.dimension)
        else:
            x_big = problem.x(c + d)
            m, est = c, error_estimate(problem.x(c), x_big)
        probes[c] = (m, est, x_big if est <= opts.tol or c == last else None)
        return est

    i, converged = _stopping_index(grid, estimate, opts.tol)
    stop = grid[i]
    history = [(m, est) for c, (m, est, _) in sorted(probes.items()) if c <= stop]
    return problem._factor(stop + d, probes[stop][2], converged, history)


def hermitian_update(apply_a, b, f: FunctionSpec, sign=1, opts: SolveOptions | None = None) -> UpdateFactor:
    """Approximates f(A + sign*b b^*) - f(A) for Hermitian A by Lanczos with
    full reorthogonalization, stopped by the lookahead rule (``SolveOptions``)."""
    return _solve(HermitianProblem(apply_a, b, f, sign), opts)


def general_update(apply_a, apply_a_adj, b, c, f: FunctionSpec,
                   opts: SolveOptions | None = None) -> UpdateFactor:
    """Approximates f(A + b c^*) - f(A) for general A by two Arnoldi
    processes (with A and with A^*) in lockstep, stopped as in
    ``hermitian_update``. Breakdown freezes the exhausted side at its exact
    size while the other keeps growing."""
    return _solve(GeneralProblem(apply_a, apply_a_adj, b, c, f), opts)


# -----------------------------------------------------------------------------
# Rank-k driving

def _compressed(mod: LowRankModification) -> tuple:
    """Q with orthonormal columns and S = R_B R_C^*, so that B C^* = Q S Q^*,
    from one reduced QR of [B C] = Q [R_B R_C]."""
    q, r = np.linalg.qr(np.hstack([mod.B, mod.C]))
    return q, r[:, : mod.k] @ r[:, mod.k:].conj().T


def split_hermitian(mod: LowRankModification, tol=1e-10) -> list:
    """Decomposes a Hermitian B C^* into signed rank-1 terms.

    Compresses D = B C^* to Q S Q^* (``_compressed``) and returns (vector,
    sign) pairs with D = sum_i sign_i v_i v_i^*, positive signs first, from
    the eigenpairs of S above tol times the largest |lambda|. Raises
    ValueError when |S - S^*|_F > tol |S|_F, which is |D - D^*|_F > tol |D|_F
    as Q has orthonormal columns. The test and the cut both allow for the
    rounding of S, n eps |B|_F |C|_F, which exceeds tol |S|_F where B C^*
    cancels. A numerically zero D gives no terms.
    """
    q, s = _compressed(mod)
    noise = mod.B.shape[0] * np.finfo(float).eps * np.linalg.norm(mod.B) * np.linalg.norm(mod.C)
    if np.linalg.norm(s - s.conj().T) > tol * np.linalg.norm(s) + noise:
        raise ValueError("modification B C^* is not Hermitian")
    lam, w = np.linalg.eigh(0.5 * (s + s.conj().T))
    keep = np.abs(lam) > max(tol * np.abs(lam).max(initial=0.0), noise)
    lam, w = lam[keep], w[:, keep]
    vectors = q @ (w * np.sqrt(np.abs(lam)))
    terms = [(vectors[:, i], 1 if lam[i] > 0 else -1) for i in range(lam.size)]
    terms.sort(key=lambda t: -t[1])
    return terms


def _corrected_operator(base, pairs):
    """Wraps ``base`` as x -> base(x) + sum_i u_i (w_i^* x)."""
    if not pairs:
        return base
    pairs = tuple((np.array(u), np.array(w)) for u, w in pairs)

    def apply(x):
        y = base(x)
        for u, w in pairs:
            y = y + u * np.vdot(w, x)
        return y

    return apply


def rank_k_update(apply_a, apply_a_adj, mod: LowRankModification, f: FunctionSpec,
                  opts: SolveOptions | None = None) -> list:
    """Incorporates a rank-k modification as a sequence of rank-1 solves.

    B C^* is first compressed to Q S Q^* by one QR of [B C]. Hermitian
    modifications (over a Hermitian base) take signed terms from
    ``split_hermitian``; others take (Q w_i sigma_i)(Q z_i)^* from the SVD of
    S, cut at k eps sigma_0. Update i runs against the operator already
    carrying the first i-1 corrections, because those earlier terms change
    the Krylov spaces the later ones must use. Returns one factor per
    rank-1 term; their sum approximates f(A + BC^*) - f(A), and an empty
    list means the modification was numerically zero.
    """
    base = as_operator(apply_a)
    factors: list = []
    if mod.hermitian_flag:
        pairs: list = []
        for vec, sign in split_hermitian(mod):
            op = _corrected_operator(base, pairs)
            factors.append(hermitian_update(op, vec, f, sign=sign, opts=opts))
            pairs.append((sign * vec, vec))
        return factors

    adj = as_operator(apply_a_adj)
    q, s = _compressed(mod)
    w, svals, zh = np.linalg.svd(s)
    if svals.size == 0 or svals[0] == 0.0:
        return []
    r = int(np.sum(svals > mod.k * np.finfo(float).eps * svals[0]))
    bs = q @ (w[:, :r] * svals[:r])
    cs = q @ zh[:r, :].conj().T
    fwd_pairs: list = []
    adj_pairs: list = []
    for i in range(r):
        op = _corrected_operator(base, fwd_pairs)
        op_adj = _corrected_operator(adj, adj_pairs)
        factors.append(general_update(op, op_adj, bs[:, i], cs[:, i], f, opts))
        fwd_pairs.append((bs[:, i], cs[:, i]))
        adj_pairs.append((cs[:, i], bs[:, i]))
    return factors


# Rows of U and V per block of extract_diagonal: its temporaries are then
# a few blocks of m columns, whatever n is.
_DIAGONAL_BLOCK_ROWS = 2048


def extract_diagonal(fac: UpdateFactor) -> np.ndarray:
    """diag(U X V^*) as rowwise bilinear forms, O(m^2 n) and never n x n,
    computed over row blocks in O(block m) memory beside the factor."""
    u, x, v = fac.U, fac.X, fac.V
    n = u.shape[0]
    # numpy takes a one-row product as vector times matrix, which sums in
    # another order than the matrix product: the last block absorbs that row
    edges = [*range(0, max(n - 1, 1), _DIAGONAL_BLOCK_ROWS), n]
    diag = np.empty(n, dtype=np.result_type(u, x, v))
    for s, e in zip(edges, edges[1:]):
        diag[s:e] = _row_forms(u[s:e], x, v[s:e], diag.dtype)
    return diag


def _row_forms(u, x, v, dtype) -> np.ndarray:
    """Row i of U X times conj(V) row i, summed, with one (rows, m) temporary
    (and conj(V) for complex V). The product is conj(V) times U X: numpy
    forms (U X) * V.conj() on large arrays in that order, in the temporary
    conj(V), and complex products round differently in the other."""
    w = (u @ x).astype(dtype, copy=False)
    np.multiply(v.conj(), w, out=w)
    return np.sum(w, axis=1)
