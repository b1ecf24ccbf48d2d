"""Matrix functions of small dense matrices and the supported scalar function set.

The compressed problems produced by the Krylov machinery are small (m x m or
2m x 2m), so everything here favors robustness over asymptotic speed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EIGVEC_COND_LIMIT = 1e8   # reject the diagonalization path beyond this
# Diagonalization loses about cond * eps of relative accuracy. The inverse
# square root has an iteration that does not, and switches to it once the
# loss could exceed ~1e-10.
_INVSQRT_COND_LIMIT = 1e6
_HERMITIAN_RTOL = 1e-12
# Kinds whose f of a block upper-triangular matrix is formed from the
# eigendecompositions of its two diagonal blocks (``triangular_block_function``).
_DIVIDED_DIFFERENCE_KINDS = ("invsqrt", "invpower")

KINDS = ("exp", "invsqrt", "inverse", "invpower", "log1p-over-z", "polynomial", "resolvent")

# Markov-representable kinds: support interval of the defining measure.
_MARKOV_SUPPORT = {
    "invsqrt": (-math.inf, 0.0),
    "invpower": (-math.inf, 0.0),
    "inverse": (-math.inf, 0.0),
    "log1p-over-z": (-math.inf, -1.0),
}


@dataclass(frozen=True)
class FunctionSpec:
    """Tagged description of a scalar function f applied to matrices.

    ``power`` is the exponent gamma of x**(-gamma) for kind "invpower",
    ``coefficients`` are ascending-degree polynomial coefficients, and
    ``shift`` is the pole z of the resolvent x -> 1/(z - x).
    """

    kind: str
    power: float | None = None
    coefficients: tuple | None = None
    shift: complex | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "invpower":
            if self.power is None or not 0.0 < self.power < 1.0:
                raise ValueError("invpower exponent must lie in (0, 1)")
        if self.kind == "polynomial":
            if not self.coefficients:
                raise ValueError("polynomial needs at least one coefficient")
            coeffs = tuple(complex(c) if isinstance(c, complex) else float(c) for c in self.coefficients)
            if not all(np.isfinite(c) for c in coeffs):
                raise ValueError("polynomial coefficients must be finite")
            object.__setattr__(self, "coefficients", coeffs)
        if self.kind == "resolvent" and self.shift is None:
            raise ValueError("resolvent needs a shift")

    @classmethod
    def exp(cls):
        return cls("exp")

    @classmethod
    def inverse_sqrt(cls):
        return cls("invsqrt")

    @classmethod
    def inverse(cls):
        return cls("inverse")

    @classmethod
    def inverse_power(cls, gamma):
        return cls("invpower", power=gamma)

    @classmethod
    def scaled_log(cls):
        """log(1 + x) / x, analytic off the branch cut x <= -1."""
        return cls("log1p-over-z")

    @classmethod
    def polynomial(cls, coefficients):
        return cls("polynomial", coefficients=tuple(coefficients))

    @classmethod
    def resolvent(cls, shift):
        return cls("resolvent", shift=shift)

    @property
    def markov_support(self) -> tuple | None:
        """(alpha, beta) support interval of the representing measure, or None."""
        return _MARKOV_SUPPORT.get(self.kind)

    @property
    def is_markov(self) -> bool:
        return self.kind in _MARKOV_SUPPORT

    def label(self) -> str:
        if self.kind == "invpower":
            return f"invpower:{self.power:g}"
        if self.kind == "polynomial":
            return "poly:" + ",".join(f"{c!r}" for c in self.coefficients)
        if self.kind == "resolvent":
            return f"resolvent:{self.shift!r}"
        return self.kind


def function_from_name(text: str) -> FunctionSpec:
    """Parses CLI-style names: exp, invsqrt, inverse, log1p-over-z,
    invpower:GAMMA, poly:c0,c1,..., resolvent:SHIFT."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "exp":
        return FunctionSpec.exp()
    if name == "invsqrt":
        return FunctionSpec.inverse_sqrt()
    if name == "inverse":
        return FunctionSpec.inverse()
    if name == "log1p-over-z":
        return FunctionSpec.scaled_log()
    if name == "invpower":
        return FunctionSpec.inverse_power(float(arg))
    if name == "poly":
        return FunctionSpec.polynomial(float(c) for c in arg.split(","))
    if name == "resolvent":
        return FunctionSpec.resolvent(complex(arg))
    raise ValueError(f"unknown function {text!r}")


# -----------------------------------------------------------------------------
# Scalar evaluation

def _scaled_log_values(x):
    """log1p(x)/x with the removable singularity at 0 filled by its series."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.result_type(x, np.float64))
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:] = np.log1p(xs) / np.where(small, 1.0, xs)
    t = x[small]
    out[small] = 1.0 + t * (-0.5 + t * (1.0 / 3.0 + t * (-0.25)))
    return out


def scalar_values(f: FunctionSpec, x) -> np.ndarray:
    """Evaluates f elementwise. Domain membership is the caller's job."""
    x = np.asarray(x)
    if f.kind == "exp":
        return np.exp(x)
    if f.kind == "invsqrt":
        if np.iscomplexobj(x) or np.any(np.asarray(x).real <= 0):
            return np.power(x.astype(complex), -0.5)
        return np.power(x, -0.5)
    if f.kind == "inverse":
        return 1.0 / x
    if f.kind == "invpower":
        if np.iscomplexobj(x) or np.any(np.asarray(x).real <= 0):
            return np.power(x.astype(complex), -f.power)
        return np.power(x, -f.power)
    if f.kind == "log1p-over-z":
        return _scaled_log_values(x)
    if f.kind == "polynomial":
        acc = np.full_like(x, f.coefficients[-1], dtype=np.result_type(x, np.asarray(f.coefficients).dtype))
        for c in f.coefficients[-2::-1]:
            acc = acc * x + c
        return acc
    if f.kind == "resolvent":
        return 1.0 / (f.shift - x)
    raise AssertionError(f.kind)


def scalar_derivative(f: FunctionSpec, x):
    """Closed-form f'(x) at a scalar point strictly inside the domain of f."""
    if f.kind == "exp":
        return math.exp(x) if not isinstance(x, complex) else np.exp(x)
    if f.kind == "invsqrt":
        if np.real(x) <= 0:
            raise DomainError("invsqrt derivative requires a point off the nonpositive axis")
        return -0.5 * x ** (-1.5)
    if f.kind == "inverse":
        if x == 0:
            raise DomainError("inverse derivative undefined at 0")
        return -(x ** -2.0)
    if f.kind == "invpower":
        if np.real(x) <= 0:
            raise DomainError("invpower derivative requires a point off the nonpositive axis")
        return -f.power * x ** (-f.power - 1.0)
    if f.kind == "log1p-over-z":
        if np.real(x) <= -1:
            raise DomainError("scaled log derivative requires x > -1")
        if abs(x) < 1e-4:
            return -0.5 + x * (2.0 / 3.0 + x * (-0.75))
        return 1.0 / (x * (1.0 + x)) - math.log1p(x) / x**2
    if f.kind == "polynomial":
        val = sum(k * c * x ** (k - 1) for k, c in enumerate(f.coefficients) if k >= 1)
        if isinstance(x, complex) or isinstance(val, complex):
            return complex(val)
        return float(val)
    if f.kind == "resolvent":
        if x == f.shift:
            raise DomainError("resolvent derivative undefined at the pole")
        return (f.shift - x) ** -2.0
    raise AssertionError(f.kind)


def divided_differences(f: FunctionSpec, lam, mu) -> np.ndarray:
    """F_ij = f[lam_i, mu_j] = (f(lam_i) - f(mu_j)) / (lam_i - mu_j), equal
    to f'(mu_j) where lam_i = mu_j, for invsqrt and invpower on the
    principal branch, in forms free of the quotient's cancellation.

    invsqrt: -1 / (s t (s + t)) with s, t the principal square roots.
    invpower gamma: mu^(-gamma-1) expm1(-gamma d) / expm1(d) with
    d = log lam - log mu; for a close pair d is 2 atanh((lam - mu) / (lam + mu)),
    which keeps its relative accuracy (numpy's complex log1p does not), turned
    by the multiple of 2 pi i that log lam - log mu carries across the cut.
    """
    lam = np.asarray(lam)[:, None]
    mu = np.asarray(mu)[None, :]
    if np.iscomplexobj(lam) or np.iscomplexobj(mu):
        lam, mu = lam.astype(complex), mu.astype(complex)
    if f.kind == "invsqrt":
        s, t = np.sqrt(lam), np.sqrt(mu)
        return -1.0 / (s * t * (s + t))
    if f.kind != "invpower":
        raise ValueError(f"no divided-difference form for {f.kind!r}")
    gamma = f.power
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (lam - mu) / (lam + mu)
        near = np.abs(t) < 0.5
        d = np.log(lam) - np.log(mu)
        d_near = 2.0 * np.arctanh(np.where(near, t, 0.0))
        den = np.expm1(np.where(near, d_near, d))  # lam / mu - 1
        if np.iscomplexobj(d):
            d_near = d_near + 2j * np.pi * np.round((d - d_near).imag / (2.0 * np.pi))
        d = np.where(near, d_near, d)
        ratio = np.where(den == 0.0, -gamma, np.expm1(-gamma * d) / den)
    return np.power(mu, -gamma - 1.0) * ratio


def _check_spectrum(f: FunctionSpec, eigs: np.ndarray) -> None:
    """Rejects eigenvalues on or numerically touching the singular set of f."""
    eigs = np.atleast_1d(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    tol = 1e-12 * scale
    if f.kind in ("invsqrt", "invpower"):
        bad = (eigs.real <= tol) & (np.abs(eigs.imag) <= tol)
        if np.any(bad):
            raise DomainError(f"{f.kind} undefined: eigenvalue on the nonpositive real axis "
                              f"(closest: {eigs[bad][0]})")
    elif f.kind == "inverse":
        if np.any(np.abs(eigs) <= tol):
            raise DomainError("inverse undefined: eigenvalue at 0")
    elif f.kind == "log1p-over-z":
        shifted = eigs + 1.0
        bad = (shifted.real <= tol) & (np.abs(shifted.imag) <= tol)
        if np.any(bad):
            raise DomainError("scaled log undefined: eigenvalue on the branch cut x <= -1")
    elif f.kind == "resolvent":
        if np.any(np.abs(eigs - f.shift) <= tol):
            raise DomainError("resolvent undefined: eigenvalue at the pole")


# -----------------------------------------------------------------------------
# Dense kernels

@dataclass
class EigenDecomposition:
    """Spectral factorization M = Q diag(eigenvalues) Q^{-1}.

    ``conditioning`` estimates the condition number of the eigenvector
    matrix (exactly 1 when the Hermitian path was taken).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    conditioning: float


def is_hermitian(m: np.ndarray, rtol=_HERMITIAN_RTOL) -> bool:
    m = np.asarray(m)
    scale = np.linalg.norm(m, np.inf)
    if scale == 0.0:
        return True
    return np.linalg.norm(m - m.conj().T, np.inf) <= rtol * scale


def eigen_decompose(m, hermitian: bool | None = None) -> EigenDecomposition:
    m = np.asarray(m)
    if hermitian is None:
        hermitian = is_hermitian(m)
    if hermitian:
        w, q = np.linalg.eigh(m)
        return EigenDecomposition(w, q, 1.0)
    w, v = np.linalg.eig(m)
    return EigenDecomposition(w, v, float(np.linalg.cond(v)))


def _usable_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _eig_with_inverse(m):
    """(eigenvalues, Q, Q^{-1}, |Q|_1 |Q^{-1}|_1) of M = Q diag(eigenvalues) Q^{-1}.
    It calls np.linalg alone because it runs on a worker thread: a benchmark
    tracer wrapping a name such as ``eigen_decompose`` keeps one span stack."""
    w, q = np.linalg.eig(m)
    q_inv = np.linalg.inv(q)
    return w, q, q_inv, float(np.linalg.norm(q, 1) * np.linalg.norm(q_inv, 1))


def triangular_block_function(m, split, f: FunctionSpec) -> np.ndarray | None:
    """The (1,2) block of f(M) for block upper-triangular M = [[G, E], [0, K]]
    with G the leading split x split block, for invsqrt and invpower.

    With G = P diag(lam) P^{-1} and K = R diag(mu) R^{-1} the block is
    X = P [(P^{-1} E R) o F] R^{-1}, F = ``divided_differences(f, lam, mu)``
    (Daleckii-Krein; Higham, Functions of Matrices, 2008, ch. 3-4): two
    split-sized eigendecompositions instead of one of M, whose eigenvectors
    are ill-conditioned wherever lam_i is close to mu_j. K's runs on a worker
    thread when more than one core is usable. Returns None for any other
    kind, and when either eigenvector matrix's 1-norm condition number
    exceeds the limit ``eval_matrix_function`` diagonalizes f under; the
    caller then evaluates the whole of M. Raises DomainError for a spectrum
    off the domain of f.
    """
    if f.kind not in _DIVIDED_DIFFERENCE_KINDS:
        return None
    m = np.asarray(m)
    g, e, k = m[:split, :split], m[:split, split:], m[split:, split:]
    if _usable_cores() > 1:
        # imported on first use, so that importing the package does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(_eig_with_inverse, k)
            lam, p, p_inv, p_cond = _eig_with_inverse(g)
            mu, r, r_inv, r_cond = pending.result()
    else:
        lam, p, p_inv, p_cond = _eig_with_inverse(g)
        mu, r, r_inv, r_cond = _eig_with_inverse(k)
    _check_spectrum(f, np.concatenate([lam, mu]))
    limit = _INVSQRT_COND_LIMIT if f.kind == "invsqrt" else _EIGVEC_COND_LIMIT
    if max(p_cond, r_cond) > limit:
        return None
    # P^{-1} E R over E's nonzero rows and columns only: the coupling of a
    # Krylov block compression is one entry, which makes it O(split^2)
    rows, cols = np.flatnonzero(e.any(axis=1)), np.flatnonzero(e.any(axis=0))
    coupled = p_inv[:, rows] @ e[np.ix_(rows, cols)] @ r[cols] * divided_differences(f, lam, mu)
    return _maybe_real(p @ coupled @ r_inv, m, f)


def spectral_norm(m) -> float:
    """Largest singular value."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def expm_dense(m) -> np.ndarray:
    """Matrix exponential by degree-13 Pade approximation with norm-based
    scaling and squaring. Valid for arbitrary square matrices."""
    a = np.asarray(m, dtype=np.result_type(m, np.float64))
    n = a.shape[0]
    norm1 = np.linalg.norm(a, 1) if n else 0.0
    s = 0
    if norm1 > _PADE13_THETA:
        s = int(math.ceil(math.log2(norm1 / _PADE13_THETA)))
        a = a / (2.0 ** s)
    ident = np.eye(n, dtype=a.dtype)
    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f


def _polyval_matrix(coefficients, m) -> np.ndarray:
    n = m.shape[0]
    dtype = np.result_type(m, np.asarray(coefficients))
    acc = coefficients[-1] * np.eye(n, dtype=dtype)
    for c in coefficients[-2::-1]:
        acc = acc @ m + c * np.eye(n, dtype=dtype)
    return acc


def _inv_sqrt_denman_beavers(m, max_iter=100, rtol=1e-14) -> np.ndarray:
    """Coupled Newton iteration converging to M**(-1/2); requires the
    spectrum off the closed nonpositive real axis."""
    a = np.asarray(m, dtype=np.result_type(m, np.float64))
    n = a.shape[0]
    y = a.copy()
    z = np.eye(n, dtype=a.dtype)
    last = np.inf
    for _ in range(max_iter):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        step = np.linalg.norm(y_next - y, "fro")
        y, z = y_next, z_next
        ref = np.linalg.norm(y, "fro")
        stagnating = step >= 0.9 * last and step <= 1e-10 * ref
        if step <= rtol * ref or stagnating:
            break
        last = step
    return z


def _commutes_with_conjugation(f: FunctionSpec) -> bool:
    """f(conj z) = conj f(z): true for every kind but a resolvent with a
    non-real shift and a polynomial with a non-real coefficient."""
    if f.kind == "resolvent":
        return complex(f.shift).imag == 0
    if f.kind == "polynomial":
        return all(complex(c).imag == 0 for c in f.coefficients)
    return True


def _maybe_real(f_of_m: np.ndarray, m: np.ndarray, f: FunctionSpec) -> np.ndarray:
    """Drops the imaginary part when M is real and f commutes with
    conjugation: f(M) is then real, and any imaginary part is rounding."""
    if np.iscomplexobj(m) or not np.iscomplexobj(f_of_m) or not _commutes_with_conjugation(f):
        return f_of_m
    return np.ascontiguousarray(f_of_m.real)


def eval_matrix_function(m, f: FunctionSpec) -> np.ndarray:
    """Evaluates f(M) for a dense square matrix.

    Hermitian input goes through the eigendecomposition. General input uses
    scaling-and-squaring for exp and Horner for polynomials; the remaining
    kinds diagonalize, guarded by an eigenvector condition estimate; the
    inverse square root switches to the Denman-Beavers iteration at a
    tighter estimate than the other kinds are rejected at. Raises
    DomainError when the spectrum violates the domain of f or no
    trustworthy path exists.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if m.shape[0] == 0:
        return m.copy()

    if is_hermitian(m):
        dec = eigen_decompose(m, hermitian=True)
        _check_spectrum(f, dec.eigenvalues)
        fw = scalar_values(f, dec.eigenvalues)
        out = (dec.eigenvectors * fw) @ dec.eigenvectors.conj().T
        return _maybe_real(out, m, f)

    if f.kind == "exp":
        return expm_dense(m)
    if f.kind == "polynomial":
        return _polyval_matrix(f.coefficients, m)
    if f.kind == "inverse":
        _check_spectrum(f, np.linalg.eigvals(m))
        return np.linalg.inv(m)
    if f.kind == "resolvent":
        eigs = np.linalg.eigvals(m)
        _check_spectrum(f, eigs)
        shifted = f.shift * np.eye(m.shape[0], dtype=np.result_type(m, f.shift)) - m
        return _maybe_real(np.linalg.inv(shifted), m, f)

    dec = eigen_decompose(m, hermitian=False)
    _check_spectrum(f, dec.eigenvalues)
    limit = _INVSQRT_COND_LIMIT if f.kind == "invsqrt" else _EIGVEC_COND_LIMIT
    if dec.conditioning <= limit:
        fw = scalar_values(f, dec.eigenvalues)
        out = np.linalg.solve(dec.eigenvectors.T, ((dec.eigenvectors * fw).T)).T
        return _maybe_real(out, m, f)
    if f.kind == "invsqrt":
        return _maybe_real(_inv_sqrt_denman_beavers(m), m, f)
    raise DomainError(
        f"eigenvector matrix too ill-conditioned (cond ~ {dec.conditioning:.2e}) "
        f"and no fallback is available for {f.kind!r}"
    )
