"""Orthonormal Krylov bases and compressed matrices.

Arnoldi serves general operators (Hessenberg compression), Lanczos
Hermitian ones (tridiagonal compression). Both run one process kernel: a
growable basis store, a coefficient buffer beside it and classical
Gram-Schmidt applied twice (CGS2). Arnoldi runs CGS2 on every step.
Lanczos runs the three-term recurrence on the same buffers; with
``reorth="full"`` it then measures the loss of orthogonality of the new
vector with one product against the stored basis and runs CGS2 only on
the steps where that loss exceeds ``_PROBE_TRIGGER`` (the probe is CGS2's
first pass). Above ``_DEFER_BYTES`` of basis that measurement is batched:
one product per block of up to ``_DEFER_BLOCK`` steps, with a rollback to
the first failing step, which is then replayed probe by probe. Both grow
step by step, so that callers can monitor convergence as the basis grows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteOperatorError

_EPS = np.finfo(np.float64).eps

# Largest cosine |Q^* r| / |r| between a Lanczos residual and the stored
# basis that the deferred block check passes, and that the per-step probe
# leaves uncorrected. The probe's 10 % margin exceeds the gap between the
# cosines of its matrix-vector product and the block's matrix product (at
# most 0.62 % of the trigger over 2,200 near-trigger columns, n <= 300), so
# deferral reproduces the probed process bit for bit. The loss |U^* U - I|
# after m steps is at most sqrt(2 m) _PROBE_TRIGGER: 1e-12 up to m = 459.
_REORTH_TRIGGER = 3e-14
_PROBE_TRIGGER = 1.1 * _REORTH_TRIGGER

# Above this basis size, n (dimension + 1) itemsize bytes, full
# reorthogonalization measures a block of up to _DEFER_BLOCK steps with one
# product, reading the basis once per block instead of once per step. A
# smaller basis keeps the per-step probe: reading it is cheap, while a
# rollback repeats up to a block of steps, and short bases that lose
# orthogonality early, as the centrality solves do, would pay for one on
# every solve.
_DEFER_BYTES = 1 << 20
_DEFER_BLOCK = 16


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


class ArnoldiProcess:
    """Arnoldi process for a general operator, and the one process kernel.

    The basis is one Fortran-ordered (n, capacity) buffer and the
    coefficients one (capacity + 1, capacity) buffer; the two grow by
    doubling and promote their dtype together, never re-stacked. Step j
    writes column j of the coefficients as (Q^* A u_j, beta), which makes
    the leading m x m block the Hessenberg matrix. Basis accessors return
    read-only views, which never change: growth writes no finished column,
    and a buffer it replaces stays alive under its views. ``advance`` stops
    at a breakdown, a residual norm at most n eps times the largest
    coefficient seen, where the Krylov space is invariant.
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
        end = self.dimension + max(0, int(steps))
        while self.dimension < end and not self.breakdown:
            self._next(end)

    def _next(self, end) -> None:
        """One iteration of an ``advance`` that ends at dimension ``end``."""
        self._step()

    def _step(self) -> None:
        j = self.dimension
        w = self._apply(self._q[:, j])
        self._reserve(w.dtype)
        self._q[:, j + 1] = w
        self._cgs2(j)
        self._close(j)

    def _cgs2(self, j, probe=False):
        """Classical Gram-Schmidt applied twice (CGS2, "twice is enough":
        Giraud, Langou and Rozloznik, 2005) of basis column j + 1 against
        columns 0..j, as matrix-vector products, adding both passes'
        coefficients into coefficient column j. A ``probe`` leaves the
        column alone and returns |r| when the first projection c has
        |c| <= ``_PROBE_TRIGGER`` |r|; else both passes run (returns None)."""
        q, r, h = self._q[:, : j + 1], self._q[:, j + 1], self._h[: j + 1, j]
        for k in range(2):
            c = (r.conj() @ q).conj()
            if probe and not k:
                beta = _norm(r)
                if _norm(c) <= _PROBE_TRIGGER * beta:
                    return beta
            r -= q @ c
            h += c

    def _close(self, j, beta=None) -> None:
        """Ends step j, whose residual sits in basis column j + 1: stores its
        norm beta (computed here unless given) below the coefficients, tests
        breakdown and normalizes."""
        r, col = self._q[:, j + 1], self._h[: j + 2, j]
        col[j + 1] = beta = _norm(r) if beta is None else beta
        # every operator output entry reaches this column: its largest modulus is
        # not finite iff the output held a NaN or inf or a modulus overflows
        top = float(np.abs(col).max())
        if not math.isfinite(top):
            raise NonFiniteOperatorError(type(self).__name__, j + 1)
        self._scale = max(self._scale, top)
        self.dimension += 1
        self.breakdown = beta <= self.n * _EPS * max(self._scale, 1e-300)
        if not self.breakdown:
            r /= beta

    def _checked(self, m) -> int:
        m = self.dimension if m is None else m
        if not 0 <= m <= self.dimension:
            raise ValueError(f"m = {m} is outside 0..{self.dimension}: "
                             f"the {type(self).__name__} has dimension {self.dimension}")
        return m

    def basis_matrix(self, m=None) -> np.ndarray:
        view = self._q[:, : self._checked(m)]
        view.flags.writeable = False
        return view

    def compressed(self, m=None) -> np.ndarray:
        m = self._checked(m)
        return self._h[:m, :m].copy()


class LanczosProcess(ArnoldiProcess):
    """Lanczos process for a Hermitian operator.

    Every step runs the three-term recurrence, writing alpha_j to (j, j)
    and beta_j to (j + 1, j) of the coefficient buffer. ``reorth="none"``
    stops there. ``reorth="full"`` then probes the residual r with the
    first pass of ``_cgs2`` (c = Q^* r, one matrix-vector product) and
    completes the CGS2 step only when |c| > ``_PROBE_TRIGGER`` |r|; the
    corrections add into coefficient column j as Arnoldi's do, so the basis
    stays orthonormal to 1e-12 for up to 459 steps on spectra where the
    plain recurrence loses orthogonality.

    Once the basis outgrows ``_DEFER_BYTES``, the probe is deferred: the
    process runs blocks of up to ``_DEFER_BLOCK`` plain steps, never past
    the end of the running ``advance``, and then measures each new column
    u_k against u_0..u_{k-1} with one product for the whole block. At the
    first column whose cosine exceeds ``_REORTH_TRIGGER``, or at a
    breakdown in the block, it rolls back to the step that made the column
    and probes every step from there on. Any column the block passes the
    probe passes too, so the process ends as the per-step one does, bit for
    bit, reading the basis once per block instead of once per step.
    """

    def __init__(self, apply_a, b, reorth="full"):
        super().__init__(apply_a, b)
        if reorth not in ("full", "none"):
            raise ValueError("reorth must be 'full' or 'none'")
        self.reorth = reorth
        self._defer = reorth == "full"  # cleared for good by a rollback

    def _next(self, end) -> None:
        if self._defer and self.n * (self.dimension + 1) * self._q.itemsize > _DEFER_BYTES:
            self._block(min(_DEFER_BLOCK, end - self.dimension))
        else:
            self._step()

    def _block(self, steps) -> None:
        """Runs up to ``steps`` unprobed steps, then tests the normalized
        columns they made. At the first failure it returns to the step that
        made the failing column, restoring the state that step began with,
        and probes every step from there on. Only columns written by the
        running ``advance`` change, so no view handed out before it does."""
        start = self.dimension
        for _ in range(steps):
            self._step(probe=False)
            if self.breakdown:
                break
        top = self.dimension + (not self.breakdown)  # columns 0..top-1 are normalized
        q = self._q[:, :top]
        w = (q[:, start + 1:].conj().T @ q).conj()  # row t: Q^* u_{start+1+t}
        for k in range(start + 1, top):
            if _norm(w[k - start - 1, :k]) > _REORTH_TRIGGER:
                break
        else:
            if not self.breakdown:
                return
            k = self.dimension  # the breakdown's residual: replay its step probed
        m = k - 1
        self.dimension, self.breakdown, self._defer = m, False, False
        self._h[:, m:] = 0  # _cgs2 adds into column m on the replay
        self._scale = float(np.abs(self._h[: m + 1, :m]).max(initial=0.0))

    def _step(self, probe=True) -> None:
        j = self.dimension
        u = self._q[:, j]
        w = self._apply(u)
        if j > 0:
            w = w - float(self._h[j, j - 1].real) * self._q[:, j - 1]
        alpha = float(np.real(np.vdot(u, w)))
        w = w - alpha * u
        self._reserve(w.dtype)
        self._h[j, j] = alpha
        self._q[:, j + 1] = w
        self._close(j, self._cgs2(j, probe=True) if probe and self.reorth == "full" else None)

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
