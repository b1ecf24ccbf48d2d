"""Low-rank update engine: compressed difference problems, convergence
monitoring, and rank-k driving.

The central objects approximate f(A + D) - f(A) as U X V^* with orthonormal
Krylov blocks U, V and a small coefficient matrix X, without ever forming an
n x n correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .densefun import (FunctionSpec, eval_matrix_function, spectral_norm,
                       triangular_block_function)
from .errors import DomainError
from .krylov import ArnoldiProcess, LanczosProcess, as_operator


@dataclass(frozen=True)
class SolveOptions:
    """Stopping-rule knobs for the iterative drivers.

    The estimator compares the coefficient matrices of steps m and
    m + lookahead_d and is evaluated every ``batch`` steps; ``max_m`` caps
    the total number of Krylov steps a solve may build (the reported factor
    never exceeds it).
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

    V is the same array as U for Hermitian solves. ``estimate_history``
    holds (m, estimate) pairs in the order the stopping rule saw them.
    """

    U: np.ndarray
    X: np.ndarray
    V: np.ndarray
    m: int
    converged: bool
    estimate_history: list = field(default_factory=list)

    def densify(self) -> np.ndarray:
        """Materializes the n x n update. Testing and small-scale
        verification only; the whole point of the factor is to avoid this."""
        return self.U @ self.X @ self.V.conj().T


@dataclass(frozen=True)
class LowRankModification:
    """Rank-k modification D = B C^* given by its n x k factors.

    Set ``hermitian_flag`` when B C^* is Hermitian and the base operator is
    too; rank-k driving then uses the symmetric splitting path.
    """

    B: np.ndarray
    C: np.ndarray
    hermitian_flag: bool = False

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.B))
        c = np.atleast_2d(np.asarray(self.C))
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
# Compressed problems

def xm_hermitian(g, b_norm, f: FunctionSpec, sign=1) -> np.ndarray:
    """Coefficient matrix f(G + sign*|b|^2 e1 e1^*) - f(G) of the Hermitian
    driver; sign=-1 realizes a downdate."""
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("G must be square")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bumped = g.copy()
    bumped[0, 0] = bumped[0, 0] + sign * float(b_norm) ** 2
    return eval_matrix_function(bumped, f) - eval_matrix_function(g, f)


def _assemble_block(g, h, b_norm, c_norm, vt_b) -> np.ndarray:
    """The block compression [[G, |b||c| e1 e1^*], [0, H^* + |c| (V^* b) e1^*]],
    whose function value carries the update coefficients in its (1,2) block."""
    p, q = g.shape[0], h.shape[0]
    vt_b = np.asarray(vt_b)
    dtype = np.result_type(g, h, vt_b, np.float64)
    blk = np.zeros((p + q, p + q), dtype=dtype)
    blk[:p, :p] = g
    blk[p:, p:] = h.conj().T
    blk[p:, p] += c_norm * vt_b
    blk[0, p] += b_norm * c_norm
    return blk


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


# -----------------------------------------------------------------------------
# Projected problems

class _Problem:
    """Krylov processes grown on demand. ``x(m)`` and ``factor(m)`` read the
    first m vectors of each process, or all it has after a breakdown; they
    equal a fresh problem's bit for bit, as growing never changes a prefix.
    ``x(m)`` raises DomainError when X is not finite (f overflowed)."""

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
        x = self._x(*(min(m, p.dimension) for p in self._processes))
        if not np.isfinite(x).all():
            raise DomainError(f"{self.f.label()} of the compressed matrix is not finite "
                              f"at m = {m}: f overflows on its spectrum")
        return x

    def factor(self, m) -> UpdateFactor:
        """Factor on the first m vectors, converged when exact; no stopping rule is run."""
        return self._factor(m, self.x(m), self.exhausted and m >= self.dimension, [])

    def _factor(self, m, x, converged, history) -> UpdateFactor:
        bases = [p.basis_matrix(min(m, p.dimension)).copy() for p in self._processes]
        return UpdateFactor(bases[0], x, bases[-1], min(m, self.dimension), converged, history)


class HermitianProblem(_Problem):
    """f(A + sign*b b^*) - f(A) for Hermitian A on the Lanczos space of b,
    X_m = f(T_m + sign*|b|^2 e1 e1^*) - f(T_m). The factor's V is its U."""

    def __init__(self, apply_a, b, f: FunctionSpec, sign=1, reorth="full"):
        super().__init__(f, LanczosProcess(apply_a, b, reorth=reorth))
        self.sign = sign

    def _x(self, m) -> np.ndarray:
        (proc,) = self._processes
        return xm_hermitian(proc.compressed(m), proc.start_norm, self.f, self.sign)


class GeneralProblem(_Problem):
    """f(A + b c^*) - f(A) for general A on the Arnoldi spaces of (A, b) and
    (A^*, c): X is the (1,2) block of f of the block compression, taken from
    its diagonal blocks' eigendecompositions for invsqrt and invpower
    (``triangular_block_function``) and from f of the whole block otherwise."""

    def __init__(self, apply_a, apply_a_adj, b, c, f: FunctionSpec):
        self._b = np.asarray(b)
        super().__init__(f, ArnoldiProcess(apply_a, self._b), ArnoldiProcess(apply_a_adj, c))

    def _x(self, mu, mv) -> np.ndarray:
        pu, pv = self._processes
        blk = _assemble_block(pu.compressed(mu), pv.compressed(mv), pu.start_norm,
                              pv.start_norm, pv.basis_matrix(mv).conj().T @ self._b)
        x = triangular_block_function(blk, mu, self.f)
        return x if x is not None else eval_matrix_function(blk, self.f)[:mu, mu:]


# -----------------------------------------------------------------------------
# Iterative drivers

def _solve(problem: _Problem, opts: SolveOptions | None) -> UpdateFactor:
    """The stopping rule: every ``batch`` steps the lookahead estimate is
    formed and, once it drops below ``tol``, the richer (m+d)-step factor is
    returned. An exhausted problem is exact and converged. When ``max_m`` is
    reached first, the best factor is returned with ``converged=False``."""
    opts = opts or SolveOptions()
    last = opts.max_m - opts.lookahead_d
    history: list = []
    for checkpoint in [*range(opts.batch, last, opts.batch), last]:
        target = checkpoint + opts.lookahead_d
        problem.grow(target)
        if problem.exhausted:
            history.append((problem.dimension, 0.0))
            return replace(problem.factor(problem.dimension), estimate_history=history)
        x_big = problem.x(target)
        est = error_estimate(problem.x(checkpoint), x_big)
        history.append((checkpoint, est))
        if est <= opts.tol or checkpoint == last:
            return problem._factor(target, x_big, est <= opts.tol, history)


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

def split_hermitian(mod: LowRankModification, tol=1e-10) -> list:
    """Decomposes a Hermitian B C^* into signed rank-1 terms.

    Eigendecomposes the compression of D = B C^* onto an orthonormal basis
    of range([B C]) and returns (vector, sign) pairs with
    D = sum_i sign_i v_i v_i^*, positive signs first. Raises ValueError when
    a probe vector reveals D is not Hermitian.
    """
    b, c = mod.B, mod.C
    n = b.shape[0]
    probe = np.cos(1.7 * np.arange(n)) + 0.3  # fixed generic probe
    forward = b @ (c.conj().T @ probe)
    adjoint = c @ (b.conj().T @ probe)
    scale = np.linalg.norm(b) * np.linalg.norm(c) * np.linalg.norm(probe) + 1e-300
    if np.linalg.norm(forward - adjoint) > tol * scale:
        raise ValueError("modification B C^* is not Hermitian")

    stack = np.hstack([b, c])
    q, svals, _ = np.linalg.svd(stack, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return []
    r = int(np.sum(svals > max(stack.shape) * np.finfo(float).eps * svals[0]))
    q = q[:, :r]
    small = (q.conj().T @ b) @ (c.conj().T @ q)
    small = 0.5 * (small + small.conj().T)
    lam, w = np.linalg.eigh(small)
    keep = np.abs(lam) > tol * max(np.abs(lam).max(), 1e-300)
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

    B C^* is first compressed to its exact numerical rank r. Update i then
    runs against the operator already carrying the first i-1 corrections,
    because those earlier terms change the Krylov spaces the later ones
    must use. Hermitian modifications (over a Hermitian base) route through
    the signed symmetric splitting and the Hermitian driver. Returns one
    factor per rank-1 term; their sum approximates f(A + BC^*) - f(A), and
    an empty list means the modification was numerically zero.
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
    qb, rb = np.linalg.qr(mod.B)
    qc, rc = np.linalg.qr(mod.C)
    w, svals, zh = np.linalg.svd(rb @ rc.conj().T)
    if svals.size == 0 or svals[0] == 0.0:
        return []
    r = int(np.sum(svals > mod.k * np.finfo(float).eps * svals[0]))
    bs = qb @ (w[:, :r] * svals[:r])
    cs = qc @ zh[:r, :].conj().T
    fwd_pairs: list = []
    adj_pairs: list = []
    for i in range(r):
        op = _corrected_operator(base, fwd_pairs)
        op_adj = _corrected_operator(adj, adj_pairs)
        factors.append(general_update(op, op_adj, bs[:, i], cs[:, i], f, opts))
        fwd_pairs.append((bs[:, i], cs[:, i]))
        adj_pairs.append((cs[:, i], bs[:, i]))
    return factors


def extract_diagonal(fac: UpdateFactor) -> np.ndarray:
    """diag(U X V^*) as rowwise bilinear forms, O(m^2 n) and never n x n."""
    w = fac.U @ fac.X
    return np.sum(w * fac.V.conj(), axis=1)
