"""Orthonormal Krylov bases and compressed matrices.

Lanczos serves Hermitian operators (tridiagonal compression), Arnoldi
serves general ones (Hessenberg compression). Both share one basis kernel:
a growable column-major store and classical Gram-Schmidt applied twice
(CGS2); only plain Lanczos (``reorth="none"``) runs its own three-term
recurrence, on the same store. Both are exposed as single-shot functions
and as incrementally extensible processes so that callers can grow a
decomposition while monitoring convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteOperatorError

_EPS = np.finfo(np.float64).eps


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


class _ProcessBase:
    """Basis kernel of both processes. The basis is one Fortran-ordered
    buffer that grows by doubling and promotes its dtype, never re-stacked."""

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
        self._scale = 0.0  # largest recurrence coefficient magnitude seen
        self._q = np.zeros((self.n, 0))  # (n, capacity) basis buffer
        self._size = 0  # columns of _q filled
        self._store(b / self.start_norm)

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def _breakdown_tol(self) -> float:
        return self.n * _EPS * max(self._scale, 1e-300)

    def _check_finite(self, step, *coefficients) -> None:
        # every entry of the operator output reaches the residual norm, so
        # this O(1) check catches any NaN or inf it holds
        if not all(np.isfinite(c).all() for c in coefficients):
            raise NonFiniteOperatorError(type(self).__name__, step + 1)

    def _reserve(self, dtype) -> None:
        """Makes column ``_size`` of the buffer writable at ``dtype``."""
        cap = self._q.shape[1]
        dtype = np.result_type(self._q, dtype)
        if self._size >= cap or dtype != self._q.dtype:
            grown = cap if self._size < cap else max(32, 2 * cap)
            q = np.empty((self.n, grown), dtype=dtype, order="F")
            q[:, : self._size] = self._q[:, : self._size]
            self._q = q

    def _store(self, u) -> None:
        self._reserve(u.dtype)
        self._q[:, self._size] = u
        self._size += 1

    def _extend(self, step, w):
        """Classical Gram-Schmidt applied twice (CGS2, "twice is enough":
        Giraud, Langou and Rozloznik, 2005) of ``w`` against the basis as
        matrix-vector products, then the breakdown test. Returns the summed
        coefficients h = Q^* w and the residual norm beta."""
        self._reserve(w.dtype)
        q = self._q[:, : self._size]
        r = self._q[:, self._size]
        r[:] = w
        h = 0
        for _ in range(2):
            c = (r.conj() @ q).conj()
            r -= q @ c
            h = h + c
        beta = float(np.linalg.norm(r))
        self._check_finite(step, h, beta)
        self._scale = max(self._scale, float(np.abs(h).max()), beta)
        self.breakdown = beta <= self._breakdown_tol()
        if not self.breakdown:
            r /= beta
            self._size += 1
        return h, beta

    def advance(self, steps: int) -> None:
        for _ in range(max(0, int(steps))):
            if self.breakdown:
                return
            self._step()

    def _step(self) -> None:
        raise NotImplementedError

    def basis_matrix(self, m=None) -> np.ndarray:
        return self._q[:, : self.dimension if m is None else m]

    def decomposition(self, m=None) -> KrylovDecomposition:
        m = self.dimension if m is None else m
        if not 1 <= m <= self.dimension:
            raise ValueError("invalid decomposition size")
        next_vector = self._q[:, m] if m < self._size else None
        broke = self.breakdown and m == self.dimension
        return KrylovDecomposition(self._q[:, :m], self.compressed(m), self._next_norm(m),
                                   next_vector, self.start_norm, broke)


class LanczosProcess(_ProcessBase):
    """Lanczos process for a Hermitian operator.

    ``reorth="full"`` is the Hermitian case of the CGS2 basis kernel, with
    the tridiagonal read off its coefficients. ``reorth="none"`` runs the
    three-term recurrence, reading u_j and u_{j-1} from the stored basis.
    """

    def __init__(self, apply_a, b, reorth="full"):
        super().__init__(apply_a, b)
        if reorth not in ("full", "none"):
            raise ValueError("reorth must be 'full' or 'none'")
        self.reorth = reorth
        self.alphas: list[float] = []
        self.betas: list[float] = []  # betas[j] produced at step j+1

    @property
    def dimension(self) -> int:
        return len(self.alphas)

    def _step(self) -> None:
        j = self.dimension
        u = self._q[:, j]
        w = self._apply(u)
        if self.reorth == "full":
            h, beta = self._extend(j, w)
            alpha = float(np.real(h[j]))
        else:
            if j > 0:
                w = w - self.betas[j - 1] * self._q[:, j - 1]
            alpha = float(np.real(np.vdot(u, w)))
            w = w - alpha * u
            beta = float(np.linalg.norm(w))
            self._check_finite(j, alpha, beta)
            self._scale = max(self._scale, abs(alpha), beta)
            self.breakdown = beta <= self._breakdown_tol()
            if not self.breakdown:
                self._store(w / beta)
        self.alphas.append(alpha)
        self.betas.append(beta)

    def compressed(self, m=None) -> np.ndarray:
        m = self.dimension if m is None else m
        g = np.diag(np.asarray(self.alphas[:m], dtype=np.float64))
        if m > 1:
            off = np.asarray(self.betas[: m - 1], dtype=np.float64)
            g += np.diag(off, 1) + np.diag(off, -1)
        return g

    def _next_norm(self, m) -> float:
        return self.betas[m - 1]


class ArnoldiProcess(_ProcessBase):
    """Arnoldi process for a general operator: CGS2 against the stored
    basis, with the summed coefficients forming the Hessenberg matrix."""

    def __init__(self, apply_a, b):
        super().__init__(apply_a, b)
        self._hcols: list[np.ndarray] = []  # _hcols[j] = H[: j + 2, j]

    @property
    def dimension(self) -> int:
        return len(self._hcols)

    def _step(self) -> None:
        j = self.dimension
        h, beta = self._extend(j, self._apply(self._q[:, j]))
        self._hcols.append(np.append(h, beta))

    def compressed(self, m=None) -> np.ndarray:
        m = self.dimension if m is None else m
        g = np.zeros((m, m), dtype=self._q.dtype)
        for j, col in enumerate(self._hcols[:m]):
            g[: j + 2, j] = col[:m]
        return g

    def _next_norm(self, m) -> float:
        return float(np.real(self._hcols[m - 1][m]))


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
