"""Low-rank update engine: compressed difference problems, convergence
monitoring, and rank-k driving.

The central objects approximate f(A + D) - f(A) as U X V^* with orthonormal
Krylov blocks U, V and a small coefficient matrix X, without ever forming an
n x n correction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import densefun
from .densefun import (FunctionSpec, _commutes_with_conjugation, eval_matrix_function,
                       spectral_norm, triangular_block_function)
from .errors import DomainError
from .krylov import ArnoldiProcess, LanczosProcess, as_operator


# The stopping rule compares the coefficient matrices of steps m and
# m + LOOKAHEAD at checkpoints on a grid of _BATCH steps (``_solve``).
LOOKAHEAD = 2
_BATCH = 5


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance and step cap of the iterative drivers.

    A solve stops when the lookahead estimate (``_solve``) meets ``tol``,
    a positive finite number; ``max_m``, an integer (a Python or numpy
    integer, not a bool), caps the total number of Krylov steps a solve may
    build (the reported factor never exceeds it).
    """

    tol: float = 1e-6
    max_m: int = 200

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if isinstance(self.max_m, bool) or not isinstance(self.max_m, Integral):
            raise ValueError(f"max_m must be an integer, got {self.max_m!r}")
        if self.max_m < LOOKAHEAD + 1:
            raise ValueError(f"max_m must be at least {LOOKAHEAD + 1}")


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
    built (at least m): a checkpoint schedule that overshoots and searches
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

def error_estimate(x_m, x_md, *, hermitian=False) -> float:
    """Spectral norm of X_{m+d} minus the zero-padded X_m; this equals the
    distance between the two full approximants because the later basis
    extends the earlier one. ``hermitian`` declares both matrices exactly
    Hermitian, as ``HermitianProblem.hermitian`` does: the norm is then the
    largest |eigenvalue| of the difference (``eigvalsh``), not its SVD."""
    x_m = np.atleast_2d(np.asarray(x_m))
    x_md = np.atleast_2d(np.asarray(x_md))
    if x_md.shape[0] < x_m.shape[0] or x_md.shape[1] < x_m.shape[1]:
        raise ValueError("size ordering violated: X_md must dominate X_m")
    diff = x_md.astype(np.result_type(x_m, x_md), copy=True)
    diff[: x_m.shape[0], : x_m.shape[1]] -= x_m
    if hermitian:
        return float(np.abs(np.linalg.eigvalsh(diff)).max())
    return spectral_norm(diff)


class _Problem:
    """Krylov processes grown on demand. ``x(m)`` and ``factor(m)`` read the
    first m vectors of each process, or all it has after a breakdown; they
    equal a fresh problem's bit for bit, as growing never changes a prefix.
    A problem gives its two diagonal blocks G, K and the coupling of
    E = coupling e1 e1^* (``_blocks``); X is the (1,2) block of f of
    [[G, E], [0, K]], from ``triangular_block_function`` or, where that
    returns None, from f of the whole block. ``x(m)`` raises DomainError
    when X is not finite (f overflowed). ``hermitian`` is True when every
    ``x(m)`` is exactly Hermitian."""

    hermitian = False

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
    factor's V is its U. T_m is real, so X_m is real symmetric wherever f
    is real on the real line (every kind but a resolvent with a non-real
    shift and a polynomial with a non-real coefficient); there ``x(m)``
    returns its Hermitian part (X + X^*)/2, which is exactly Hermitian."""

    def __init__(self, apply_a, b, f: FunctionSpec, sign=1, reorth="full"):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        super().__init__(f, LanczosProcess(apply_a, b, reorth=reorth))
        self.sign = sign
        self.hermitian = _commutes_with_conjugation(f)

    def x(self, m) -> np.ndarray:
        x = super().x(m)
        return (x + x.conj().T) / 2 if self.hermitian else x

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
    points. After two failing checkpoints c' < c, the rate between them,
    q = (est_c / est_c')^(1 / (c - c')), predicts where the estimate
    crosses tol; the jump goes at most to the grid point after the first
    one past that crossing (``_predicted_jump``), so it lands just beyond
    the stop instead of up to 30 % beyond it. A pass is searched back over
    the points skipped since the last failing checkpoint (``_first_pass``).
    A jump that lands on a fail within _NEAR_TOL times tol scans the
    skipped points in order instead, as the estimate is not monotone and
    may pass just below that fail. On a non-increasing sequence the result
    is the first passing grid point."""
    lo, lo_est, i = -1, None, 0  # lo: the last failing checkpoint
    while True:
        est = estimate(grid[i])
        if est <= tol:
            return _first_pass(grid, estimate, tol, lo, lo_est, i, est), True
        near = est <= _NEAR_TOL * tol
        if near:
            skipped = next((j for j in range(lo + 1, i) if estimate(grid[j]) <= tol), None)
            if skipped is not None:
                return skipped, True
        if i == len(grid) - 1:
            return i, False
        step = i + 1
        if not near:  # on to the first grid point at or above 1.3 c
            step = max(step, bisect_left(grid, -(-_GROWTH_PERCENT * grid[i] // 100)))
            if lo >= 0:
                step = min(step, _predicted_jump(grid, tol, grid[lo], lo_est, grid[i], est))
        lo, lo_est, i = i, est, min(step, len(grid) - 1)


def _predicted_jump(grid, tol, c_prev, est_prev, c, est) -> int:
    """The grid index after the first grid point at or above the step where
    the rate between two failing checkpoints, q = (est / est_prev)^(1 /
    (c - c_prev)), brings ``est`` down to ``tol``; len(grid) when q makes
    no prediction (q rounds to 1 or more, or the ratio is not finite)."""
    q = (est / est_prev) ** (1.0 / (c - c_prev))
    if not 0.0 < q < 1.0:
        return len(grid)
    crossing = c + (math.log(tol) - math.log(est)) / math.log(q)
    return bisect_left(grid, crossing) + 1


def _first_pass(grid, estimate, tol, lo, lo_est, i, i_est) -> int:
    """The first pass in grid indices (lo, i] when lo fails (or is -1) and
    i passes.

    Each probe is the grid point just below the crossing of tol that the
    log-linear interpolation between the bracketing fail and pass predicts,
    so a geometric decay is bracketed by one probe; whenever a probe did
    not halve the bracket the next one is its midpoint, which keeps the
    search within 2 ceil(log2(i - lo)) probes. On a non-increasing
    sequence the result is the first passing grid point."""
    halved = True
    while i - lo > 1:
        width, j = i - lo, (lo + i) // 2
        if halved:
            # a zero estimate (an exact factor) puts the crossing at lo
            frac = ((math.log(lo_est) - math.log(tol)) / (math.log(lo_est) - math.log(i_est))
                    if i_est > 0 else 0.0)
            if math.isfinite(frac):
                crossing = grid[lo] + frac * (grid[i] - grid[lo])
                j = min(max(bisect_left(grid, crossing) - 1, lo + 1), i - 1)
        est = estimate(grid[j])
        if est <= tol:
            i, i_est = j, est
        else:
            lo, lo_est = j, est
        halved = 2 * (i - lo) <= width + 1
    return i


def _solve(problem: _Problem, opts: SolveOptions | None) -> UpdateFactor:
    """The stopping rule: the lookahead estimate of steps m and
    m + LOOKAHEAD is formed at checkpoints on a grid of _BATCH steps
    (``_stopping_index`` picks which) and the richer (m + LOOKAHEAD)-step
    factor of the first passing checkpoint is returned. An exhausted
    problem is exact and converged. When ``max_m`` is reached first, the
    factor there is returned with ``converged=False``. The history ends at
    the returned checkpoint; probes past it only grew the basis, which
    ``basis_dimension`` counts. Jumps capped by the predicted crossing and
    the interpolated search back keep those probes near the stop: on a
    geometric decay the first pass is about one grid point past it."""
    opts = opts or SolveOptions()
    d = LOOKAHEAD
    last = opts.max_m - d
    grid = [*range(_BATCH, last, _BATCH), last]
    probes: dict = {}  # checkpoint -> (m, estimate, X_{m+d} if it may be returned)

    def estimate(c):
        problem.grow(c + d)
        if problem.exhausted and problem.dimension <= c + d:
            m, est, x_big = problem.dimension, 0.0, problem.x(problem.dimension)
        else:
            x_big = problem.x(c + d)
            m, est = c, error_estimate(problem.x(c), x_big, hermitian=problem.hermitian)
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

# Relative size below which an eigenvalue of the compressed Hermitian
# modification is dropped, and the relative skew part it may carry.
_HERMITIAN_TOL = 1e-10


def _compressed(mod: LowRankModification) -> tuple:
    """Q with orthonormal columns and S = R_B R_C^*, so that B C^* = Q S Q^*,
    from one reduced QR of [B C] = Q [R_B R_C], and the rounding floor of S,
    n eps |B|_F |C|_F, below which a part of B C^* is numerically zero."""
    q, r = np.linalg.qr(np.hstack([mod.B, mod.C]))
    floor = mod.B.shape[0] * np.finfo(float).eps * np.linalg.norm(mod.B) * np.linalg.norm(mod.C)
    return q, r[:, : mod.k] @ r[:, mod.k:].conj().T, floor


def split_hermitian(mod: LowRankModification) -> list:
    """Decomposes a Hermitian B C^* into signed rank-1 terms.

    Compresses D = B C^* to Q S Q^* (``_compressed``) and returns (vector,
    sign) pairs with D = sum_i sign_i v_i v_i^*, positive signs first, from
    the eigenpairs of S above _HERMITIAN_TOL times the largest |lambda|.
    Raises ValueError when |S - S^*|_F > _HERMITIAN_TOL |S|_F, which is
    |D - D^*|_F > _HERMITIAN_TOL |D|_F as Q has orthonormal columns. The
    test and the cut both allow for the rounding floor of S. A numerically
    zero D gives no terms.
    """
    q, s, floor = _compressed(mod)
    if np.linalg.norm(s - s.conj().T) > _HERMITIAN_TOL * np.linalg.norm(s) + floor:
        raise ValueError("modification B C^* is not Hermitian")
    lam, w = np.linalg.eigh(0.5 * (s + s.conj().T))
    keep = np.abs(lam) > max(_HERMITIAN_TOL * np.abs(lam).max(initial=0.0), floor)
    lam, w = lam[keep], w[:, keep]
    vectors = q @ (w * np.sqrt(np.abs(lam)))
    terms = [(vectors[:, i], 1 if lam[i] > 0 else -1) for i in range(lam.size)]
    terms.sort(key=lambda t: -t[1])
    return terms


def _corrected_operator(base, pairs):
    """Wraps ``base`` as x -> base(x) + sum_i u_i (w_i^* x), formed as
    base(x) + U (W^* x) with the pairs as the columns of U and W (``dot``:
    numpy's ``@`` of one column by a vector took 3.5 times as long)."""
    if not pairs:
        return base
    u = np.column_stack([u for u, _ in pairs])
    wh = np.array([w for _, w in pairs]).conj()
    return lambda x: base(x) + u.dot(wh.dot(x))


def rank_k_update(apply_a, apply_a_adj, mod: LowRankModification, f: FunctionSpec,
                  opts: SolveOptions | None = None) -> list:
    """Incorporates a rank-k modification as a sequence of rank-1 solves.

    B C^* is first compressed to Q S Q^* by one QR of [B C]. Hermitian
    modifications (over a Hermitian base) take signed terms from
    ``split_hermitian``; others take (Q w_i sigma_i)(Q z_i)^* from the SVD of
    S, cut at the larger of k eps sigma_0 and the rounding floor of S. Update
    i runs against the operator already carrying the first i-1 terms u w^*,
    (sign v, v) or (b, c), and A^* against their mirrors (c, b), because
    those earlier terms change the Krylov spaces the later ones must use.
    Returns one factor per rank-1 term; their sum approximates
    f(A + BC^*) - f(A), and an empty list means the modification was
    numerically zero. Each of the r factors meets at best its own ``tol``
    (the stopping rule's estimate, not a bound), so their sum can err by up
    to r times ``tol``.
    """
    base = as_operator(apply_a)
    if mod.hermitian_flag:
        split = split_hermitian(mod)
        terms = [(sign * vec, vec) for vec, sign in split]
        return [hermitian_update(_corrected_operator(base, terms[:i]), vec, f, sign=sign, opts=opts)
                for i, (vec, sign) in enumerate(split)]

    adj = as_operator(apply_a_adj)
    q, s, floor = _compressed(mod)
    w, svals, zh = np.linalg.svd(s)
    r = int(np.sum(svals > max(mod.k * np.finfo(float).eps * svals.max(initial=0.0), floor)))
    terms = list(zip((q @ (w[:, :r] * svals[:r])).T, (q @ zh[:r, :].conj().T).T))
    return [general_update(_corrected_operator(base, terms[:i]),
                           _corrected_operator(adj, [(c, b) for b, c in terms[:i]]), b, c, f, opts)
            for i, (b, c) in enumerate(terms)]


# Rows of U and V per block of extract_diagonal: its temporaries are then
# a few blocks of m columns, whatever n is.
_DIAGONAL_BLOCK_ROWS = 2048


def extract_diagonal(fac: UpdateFactor) -> np.ndarray:
    """diag(U X V^*), never n x n, computed over row blocks in O(block m)
    memory beside the factor.

    A factor whose V is its U and whose X equals X^* (every Hermitian
    solve's) takes X = W diag(lam) W^* once (``densefun.eigen_decompose``)
    and drops the eigenpairs with |lam| <= eps max|lam|: row i is then
    sum_j lam_j |(U W)_ij|^2 over the r that remain, O(n m r), and real.
    The cut moves an entry by at most eps |X|_2 |U_i|^2, below the m eps
    |X|_2 rounding of the full product. Other factors take the rowwise
    bilinear forms of U X and V, O(n m^2)."""
    u, x, v = fac.U, fac.X, fac.V
    n = u.shape[0]
    # numpy takes a one-row product as vector times matrix, which sums in
    # another order than the matrix product: the last block absorbs that row
    edges = [*range(0, max(n - 1, 1), _DIAGONAL_BLOCK_ROWS), n]
    diag = np.empty(n, dtype=np.result_type(u, x, v))
    if v is u and np.array_equal(x, x.conj().T):
        dec = densefun.eigen_decompose(x, hermitian=True)
        lam = dec.eigenvalues
        keep = np.abs(lam) > np.finfo(float).eps * np.abs(lam).max(initial=0.0)
        lam, wt = lam[keep], dec.eigenvectors[:, keep].T
        for s, e in zip(edges, edges[1:]):
            diag[s:e] = _weighted_squares(wt @ u[s:e].T, lam)
    else:
        for s, e in zip(edges, edges[1:]):
            diag[s:e] = _row_forms(u[s:e], x, v[s:e], diag.dtype)
    return diag


def _weighted_squares(wu, lam) -> np.ndarray:
    """Column i of |W^T U^T|^2 (row i of U W) weighted by lam and summed, in
    one (r, rows) array beside W^T U^T. In this layout the sum is r
    vectorized adds in a fixed order; summing the short rows of U W one by
    one took 2.5 times as long at n = 2000, r = 10."""
    sq = np.square(wu.real)
    if np.iscomplexobj(wu):
        sq += np.square(wu.imag)
    sq *= lam[:, None]
    return np.sum(sq, axis=0)


def _row_forms(u, x, v, dtype) -> np.ndarray:
    """Row i of U X times conj(V) row i, summed, with one (rows, m) temporary
    (and conj(V) for complex V). The product is conj(V) times U X: numpy
    forms (U X) * V.conj() on large arrays in that order, in the temporary
    conj(V), and complex products round differently in the other."""
    w = (u @ x).astype(dtype, copy=False)
    np.multiply(v.conj(), w, out=w)
    return np.sum(w, axis=1)
