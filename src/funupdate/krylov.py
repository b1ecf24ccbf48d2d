"""Orthonormal Krylov bases and compressed matrices.

Arnoldi serves general operators (Hessenberg compression), Lanczos
Hermitian ones (tridiagonal compression). Both run one process kernel: a
growable basis store, a coefficient buffer beside it and classical
Gram-Schmidt applied twice (CGS2). Arnoldi runs CGS2 on every step.
Lanczos runs the three-term recurrence on the same buffers; with
``reorth="full"`` it then measures the loss of orthogonality of the new
vector with one product against the stored basis and runs CGS2 only on
the steps where that loss exceeds ``_REORTH_TRIGGER``. Both are exposed as
single-shot functions and as incrementally extensible processes so that
callers can grow a decomposition while monitoring convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteOperatorError

_EPS = np.finfo(np.float64).eps

# Largest cosine |Q^* r| / |r| between a Lanczos residual and the stored
# basis that full reorthogonalization leaves uncorrected. Each column of
# U^* U - I then has norm at most this, so the loss after m steps is at
# most sqrt(2 m) times it: 1e-12 up to m = 555.
_REORTH_TRIGGER = 3e-14


def _norm(v) -> float:
    """Euclidean norm of v; rescaled by max |v_i| when the sum of squares
    overflows although every entry is finite (entries beyond ~1e154).

    A contiguous float64 vector with a finite sum of squares skips the
    ``errstate``: sqrt(vdot(v, v)) is what ``np.linalg.norm`` computes, and
    ``vdot``, unlike ``dot``, does not warn on overflow. A strided vector
    keeps the path below, as ``vdot`` sums it in another order than the
    contiguous copy ``np.linalg.norm`` makes."""
    if v.dtype == np.float64 and v.flags.c_contiguous:
        sq = float(np.vdot(v, v))
        if math.isfinite(sq):
            return math.sqrt(sq)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if nrm == np.inf and np.isfinite(v).all():
        s = float(np.abs(v).max())
        nrm = s * float(np.linalg.norm(v / s))
    return nrm


def as_operator(a):
    """Normalizes matrices and matvec-bearing objects to a callable x -> A x."""
    if isinstance(a, np.ndarray):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("operator matrix must be square")
        return lambda x: a @ x
    matvec = getattr(a, "matvec", None)
    if matvec is not None:
        return matvec
    if callable(a):
        return a
    raise TypeError(f"cannot interpret {type(a).__name__} as an operator")


@dataclass
class KrylovDecomposition:
    """Outcome of m Krylov steps: A U_m = U_m G_m + next_norm * u_{m+1} e_m^*.

    ``basis`` holds U_m columnwise, ``compressed`` is G_m (tridiagonal for
    Lanczos, upper Hessenberg for Arnoldi), ``next_norm`` the trailing
    recurrence norm, ``next_vector`` the would-be next basis vector (None
    after breakdown) and ``start_norm`` the norm of the starting vector.
    ``basis`` and ``next_vector`` are read-only views of the process's buffer.
    """

    basis: np.ndarray
    compressed: np.ndarray
    next_norm: float
    next_vector: np.ndarray | None
    start_norm: float
    breakdown: bool = False

    @property
    def m(self) -> int:
        return self.compressed.shape[0]


class ArnoldiProcess:
    """Arnoldi process for a general operator, and the one process kernel.

    The basis is one Fortran-ordered (n, capacity) buffer and the
    coefficients one (capacity + 1, capacity) buffer; the two grow by
    doubling and promote their dtype together, never re-stacked. Step j
    writes column j of the coefficients as (Q^* A u_j, beta), which makes
    the leading m x m block the Hessenberg matrix. Basis accessors return
    read-only views, which never change: growth writes no finished column,
    and a buffer it replaces stays alive under its views.
    """

    def __init__(self, apply_a, b):
        self._apply = as_operator(apply_a)
        b = np.asarray(b)
        if b.ndim != 1:
            raise ValueError("starting vector must be one-dimensional")
        self.n = b.shape[0]
        self.start_norm = float(np.linalg.norm(b))
        if self.start_norm == 0.0 or not np.isfinite(self.start_norm):
            raise ValueError("starting vector must be nonzero and finite")
        self.breakdown = False
        self.dimension = 0  # steps taken: filled columns of _h
        self._scale = 0.0  # largest coefficient magnitude seen
        self._q = (b / self.start_norm).reshape(-1, 1)  # (n, capacity) basis buffer
        self._h = np.zeros((2, 1), dtype=self._q.dtype)  # (capacity + 1, capacity)

    def _reserve(self, dtype) -> None:
        """Makes basis column ``dimension + 1`` and coefficient column
        ``dimension`` writable at ``dtype``."""
        cap, col = self._q.shape[1], self.dimension + 1
        dtype = np.result_type(self._q, dtype)
        if col >= cap or dtype != self._q.dtype:
            grown = cap if col < cap else max(32, 2 * cap)
            q = np.empty((self.n, grown), dtype=dtype, order="F")
            q[:, :col] = self._q[:, :col]
            h = np.zeros((grown + 1, grown), dtype=dtype)
            h[: cap + 1, :cap] = self._h
            self._q, self._h = q, h

    def advance(self, steps: int) -> None:
        for _ in range(max(0, int(steps))):
            if self.breakdown:
                return
            self._step()

    def _step(self) -> None:
        j = self.dimension
        w = self._apply(self._q[:, j])
        self._reserve(w.dtype)
        self._q[:, j + 1] = w
        self._cgs2(j)
        self._close(j)

    def _cgs2(self, j, c=None) -> None:
        """Classical Gram-Schmidt applied twice (CGS2, "twice is enough":
        Giraud, Langou and Rozloznik, 2005) of basis column j + 1 against
        columns 0..j, as matrix-vector products, adding both passes'
        coefficients into coefficient column j. ``c`` is the first pass's
        projection when the caller has computed it already."""
        q, r, h = self._q[:, : j + 1], self._q[:, j + 1], self._h[: j + 1, j]
        for k in range(2):
            if c is None or k:
                c = (r.conj() @ q).conj()
            r -= q @ c
            h += c

    def _close(self, j, beta=None) -> None:
        """Ends step j, whose residual sits in basis column j + 1: stores its
        norm beta (computed here unless given) below the coefficients, tests
        breakdown and normalizes."""
        r, col = self._q[:, j + 1], self._h[: j + 2, j]
        col[j + 1] = beta = _norm(r) if beta is None else beta
        # every entry of the operator output reaches the residual norm, so
        # this O(j) check catches any NaN or inf it holds
        if not np.isfinite(col).all():
            raise NonFiniteOperatorError(type(self).__name__, j + 1)
        self._scale = max(self._scale, float(np.abs(col).max()))
        self.dimension += 1
        self.breakdown = beta <= self.n * _EPS * max(self._scale, 1e-300)
        if not self.breakdown:
            r /= beta

    def _checked(self, m, lo=0) -> int:
        m = self.dimension if m is None else m
        if not lo <= m <= self.dimension:
            raise ValueError(f"m = {m} is outside {lo}..{self.dimension}: "
                             f"the {type(self).__name__} has dimension {self.dimension}")
        return m

    def basis_matrix(self, m=None) -> np.ndarray:
        view = self._q[:, : self._checked(m)]
        view.flags.writeable = False
        return view

    def compressed(self, m=None) -> np.ndarray:
        m = self._checked(m)
        return self._h[:m, :m].copy()

    def decomposition(self, m=None) -> KrylovDecomposition:
        m = self._checked(m, lo=1)
        broke = self.breakdown and m == self.dimension
        q = self._q[:, : m + 1]
        q.flags.writeable = False
        return KrylovDecomposition(q[:, :m], self.compressed(m), float(np.real(self._h[m, m - 1])),
                                   None if broke else q[:, m], self.start_norm, broke)


class LanczosProcess(ArnoldiProcess):
    """Lanczos process for a Hermitian operator.

    Every step runs the three-term recurrence, writing alpha_j to (j, j)
    and beta_j to (j + 1, j) of the coefficient buffer. ``reorth="none"``
    stops there. ``reorth="full"`` then probes the residual r against the
    stored basis (c = Q^* r, one matrix-vector product) and runs the CGS2
    step, its first pass reusing c, only when |c| > ``_REORTH_TRIGGER`` |r|;
    the corrections add into coefficient column j as Arnoldi's do, so
    the basis stays orthonormal to 1e-12 on spectra where the plain
    recurrence loses orthogonality, at the cost of the probe alone on the
    steps that keep it.
    """

    def __init__(self, apply_a, b, reorth="full"):
        super().__init__(apply_a, b)
        if reorth not in ("full", "none"):
            raise ValueError("reorth must be 'full' or 'none'")
        self.reorth = reorth

    def _step(self) -> None:
        j = self.dimension
        u = self._q[:, j]
        w = self._apply(u)
        if j > 0:
            w = w - float(self._h[j, j - 1].real) * self._q[:, j - 1]
        alpha = float(np.real(np.vdot(u, w)))
        w = w - alpha * u
        self._reserve(w.dtype)
        self._h[j, j] = alpha
        q, r = self._q[:, : j + 1], self._q[:, j + 1]
        r[:] = w
        beta = None
        if self.reorth == "full":
            c = (r.conj() @ q).conj()
            beta = _norm(r)
            if _norm(c) > _REORTH_TRIGGER * beta:
                self._cgs2(j, c)
                beta = None  # the correction changed r
        self._close(j, beta)

    def compressed(self, m=None) -> np.ndarray:
        """The real symmetric tridiagonal, mirrored from the diagonal and
        the subdiagonal of the coefficient buffer."""
        m = self._checked(m)
        h = self._h.real
        g = np.diag(h.diagonal()[:m].astype(np.float64))
        if m > 1:
            off = h.diagonal(-1)[: m - 1].astype(np.float64)
            g += np.diag(off, 1) + np.diag(off, -1)
        return g


def lanczos(apply_a, b, m, reorth="full") -> KrylovDecomposition:
    """Runs m Lanczos steps for a Hermitian operator.

    Returns early with the breakdown flag set when the recurrence norm
    falls below n*eps times the largest coefficient seen, in which case the
    Krylov space is invariant and the decomposition exact.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    proc = LanczosProcess(apply_a, b, reorth=reorth)
    proc.advance(m)
    return proc.decomposition()


def arnoldi(apply_a, b, m) -> KrylovDecomposition:
    """Runs m Arnoldi steps; Hessenberg compression, breakdown as in lanczos."""
    if m < 1:
        raise ValueError("m must be at least 1")
    proc = ArnoldiProcess(apply_a, b)
    proc.advance(m)
    return proc.decomposition()
