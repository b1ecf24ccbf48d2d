"""Matrix functions of small dense matrices and the supported scalar function set.

The compressed problems produced by the Krylov machinery are small (m x m or
2m x 2m), so everything here favors robustness over asymptotic speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EIGVEC_COND_LIMIT = 1e8   # reject the diagonalization path beyond this
# Diagonalization loses about cond * eps of relative accuracy. The inverse
# square root has an iteration that does not, and switches to it once the
# loss could exceed ~1e-10.
_INVSQRT_COND_LIMIT = 1e6
_DB_MAX_ITER, _DB_RTOL = 100, 1e-14  # Denman-Beavers step cap and relative step size to stop at
_HERMITIAN_RTOL = 1e-12

KINDS = ("exp", "invsqrt", "inverse", "invpower", "log1p-over-z", "polynomial", "resolvent")

# The singular set of each kind: the branch cut (-inf, c] or the pole z. A
# resolvent's pole is its shift; exp and polynomials have none.
_SINGULAR_SETS = {"invsqrt": ("cut", 0.0), "invpower": ("cut", 0.0),
                  "log1p-over-z": ("cut", -1.0), "inverse": ("pole", 0.0)}


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
        if self.kind == "resolvent" and (self.shift is None or not np.isfinite(self.shift)):
            raise ValueError(f"resolvent needs a finite shift, got {self.shift!r}")

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
    def singular_set(self) -> tuple | None:
        """("cut", c) for the branch cut (-inf, c], ("pole", z), or None."""
        if self.kind == "resolvent":
            return ("pole", self.shift)
        return _SINGULAR_SETS.get(self.kind)

    def label(self) -> str:
        if self.kind == "invpower":
            return f"invpower:{self.power:g}"
        if self.kind == "polynomial":
            return "poly:" + ",".join(f"{c!r}" for c in self.coefficients)
        if self.kind == "resolvent":
            return f"resolvent:{self.shift!r}"
        return self.kind


def function_from_name(text: str) -> FunctionSpec:
    """Parses CLI-style names: exp, invsqrt, inverse, log1p-over-z (no
    ``:`` after any of these), invpower:GAMMA, poly:c0,c1,...,
    resolvent:SHIFT. A name it cannot parse is a ValueError naming it."""
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    if name in ("exp", "invsqrt", "inverse", "log1p-over-z"):
        if colon:
            raise ValueError(f"function {name!r} takes no parameter, got {text!r}")
        return FunctionSpec(name)
    try:
        if name == "invpower":
            return FunctionSpec.inverse_power(float(arg))
        if name == "poly":
            return FunctionSpec.polynomial(float(c) for c in arg.split(","))
        if name == "resolvent":
            return FunctionSpec.resolvent(complex(arg))
    except ValueError as exc:
        raise ValueError(f"invalid function {text!r}: {exc}") from None
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
    if f.kind in ("invsqrt", "invpower"):
        if np.iscomplexobj(x) or np.any(x.real <= 0):
            x = x.astype(complex)
        return np.power(x, -0.5 if f.kind == "invsqrt" else -f.power)
    if f.kind == "inverse":
        return 1.0 / x
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


def on_singular_set(f: FunctionSpec, z, tol=0.0) -> np.ndarray:
    """Mask of the points z within tol of the singular set of f: for a cut,
    real part at most c + tol and imaginary part at most tol in modulus."""
    z = np.asarray(z)
    if f.singular_set is None:
        return np.zeros(z.shape, dtype=bool)
    shape, at = f.singular_set
    if shape == "cut":
        return (z.real - at <= tol) & (np.abs(z.imag) <= tol)
    return np.abs(z - at) <= tol


def scalar_derivative(f: FunctionSpec, x):
    """f'(x) as the confluent divided difference f[x, x], at a point off the
    singular set of f."""
    if on_singular_set(f, x):
        raise DomainError(f"{f.label()} derivative undefined at {x}")
    point = np.array([x], dtype=np.result_type(x, np.float64))
    return divided_differences(f, point, point)[0, 0].item()


def divided_differences(f: FunctionSpec, lam, mu) -> np.ndarray:
    """F_ij = f[lam_i, mu_j] = (f(lam_i) - f(mu_j)) / (lam_i - mu_j), equal
    to f'(mu_j) where lam_i = mu_j, in forms free of the quotient's
    cancellation. invsqrt, invpower, inverse, resolvent and polynomials
    accept complex eigenvalues (invsqrt and invpower on the principal
    branch); exp and log1p-over-z take real ones. Raises ValueError for exp
    or log1p-over-z on a complex spectrum.

    invsqrt: -1 / (s t (s + t)) with s, t the principal square roots.
    invpower gamma: mu^(-gamma-1) expm1(-gamma d) / expm1(d) with
    d = log lam - log mu; for a close pair d is 2 atanh((lam - mu) / (lam + mu)),
    which keeps its relative accuracy (numpy's complex log1p does not), turned
    by the multiple of 2 pi i that log lam - log mu carries across the cut.
    That turn is what a conjugate pair straddling the cut needs: at
    -1 +- 1e-8i, expm1 of log lam - log mu (near 2 pi i) is off by 6.2e-9
    relative, the atanh form by 1e-15 (it buys nothing on real spectra).
    inverse: -1 / (lam mu). resolvent with pole z: 1 / ((z - lam) (z - mu)).
    polynomial sum_k a_k x^k: a_k contributes a_k sum_{i+j=k-1} lam^i mu^j.
    exp: e^max(lam, mu) (-expm1(-|lam - mu|)) / |lam - mu|, which neither
    overflows nor turns into 0 * inf on a spectrum as wide as [-1e3, 0].
    log1p-over-z: with l = log1p((lam - mu) / (1 + mu)) / (lam - mu), the
    divided difference of log1p, F = (l - f(mu)) / lam = (l - f(lam)) / mu,
    divided by the larger of |lam| and |mu|, which loses about
    eps / max(|lam|, |mu|); below 0.1 in both, the polynomial form of the
    Taylor series of f.
    """
    lam = np.asarray(lam)[:, None]
    mu = np.asarray(mu)[None, :]
    complex_ = np.iscomplexobj(lam) or np.iscomplexobj(mu)
    if complex_:
        lam, mu = lam.astype(complex), mu.astype(complex)
    if f.kind == "invsqrt":
        s, t = np.sqrt(lam), np.sqrt(mu)
        return -1.0 / (s * t * (s + t))
    if f.kind == "inverse":
        return -1.0 / (lam * mu)
    if f.kind == "resolvent":
        return 1.0 / ((f.shift - lam) * (f.shift - mu))
    if f.kind == "polynomial":
        return _power_series_divided_differences(f.coefficients, lam, mu)
    if not complex_ and f.kind == "exp":
        gap = np.abs(lam - mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gap == 0.0, 1.0, -np.expm1(-gap) / gap)
        return np.maximum(np.exp(lam), np.exp(mu)) * ratio  # e^max(lam, mu), by monotonicity
    if not complex_ and f.kind == "log1p-over-z":
        return _scaled_log_divided_differences(lam, mu)
    if f.kind != "invpower":
        raise ValueError(f"no divided-difference form for {f.label()} on this spectrum")
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


def _power_series_divided_differences(coefficients, x, y) -> np.ndarray:
    """Divided differences of sum_k a_k z^k, a_k contributing
    a_k sum_{i+j=k-1} x^i y^j."""
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y, *coefficients))
    h, x_pow = np.ones_like(acc), np.ones_like(x)
    for a in coefficients[1:]:  # h = sum_{i+j=k-1} x^i y^j
        acc = acc + a * h
        x_pow = x_pow * x
        h = x_pow + y * h
    return acc


_SCALED_LOG_SERIES_RADIUS = 0.1
# Taylor coefficients (-1)^k / (k + 1) of log1p(x) / x; the first left out is below 1e-18
_SCALED_LOG_SERIES = tuple((-1.0) ** k / (k + 1) for k in range(19))


def _scaled_log_divided_differences(lam, mu) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = _scaled_log_values((lam - mu) / (1.0 + mu)) / (1.0 + mu)
        out = np.where(np.abs(lam) >= np.abs(mu), (ell - _scaled_log_values(mu)) / lam,
                       (ell - _scaled_log_values(lam)) / mu)
    small = np.maximum(np.abs(lam), np.abs(mu)) < _SCALED_LOG_SERIES_RADIUS
    if small.any():
        x, y = np.broadcast_to(lam, small.shape)[small], np.broadcast_to(mu, small.shape)[small]
        out[small] = _power_series_divided_differences(_SCALED_LOG_SERIES, x, y)
    return out


def _check_spectrum(f: FunctionSpec, eigs: np.ndarray) -> None:
    """Rejects eigenvalues on or numerically touching the singular set of f."""
    if f.singular_set is None:
        return
    eigs = np.atleast_1d(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    bad = on_singular_set(f, eigs, 1e-12 * scale)
    if np.any(bad):
        shape, at = f.singular_set
        where = f"on the branch cut x <= {at:g}" if shape == "cut" else f"at the pole {at}"
        raise DomainError(f"{f.kind} undefined: eigenvalue {where} (closest: {eigs[bad][0]})")


def _is_inverse_sqrt(f: FunctionSpec) -> bool:
    """invsqrt, or invpower with exponent 1/2: the kinds Denman-Beavers serves."""
    return f.kind == "invsqrt" or (f.kind == "invpower" and f.power == 0.5)


def _cond_limit(f: FunctionSpec) -> float:
    """Eigenvector condition estimate past which f(M) is not diagonalized."""
    return _INVSQRT_COND_LIMIT if _is_inverse_sqrt(f) else _EIGVEC_COND_LIMIT


# -----------------------------------------------------------------------------
# Dense kernels

@dataclass
class EigenDecomposition:
    """Spectral factorization M = Q diag(eigenvalues) Q^{-1}.

    ``inverse`` is Q^{-1}: on the Hermitian path the view Q^* of the unitary
    Q. ``conditioning`` is the 1-norm condition number |Q|_1 |Q^{-1}|_1 of
    the eigenvector matrix (exactly 1 when the Hermitian path was taken).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse: np.ndarray
    conditioning: float


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    scale = np.linalg.norm(m, np.inf)
    if scale == 0.0:
        return True
    return np.linalg.norm(m - m.conj().T, np.inf) <= _HERMITIAN_RTOL * scale


def eigen_decompose(m, hermitian: bool) -> EigenDecomposition:
    """M = Q diag(w) Q^{-1}: ``eigh`` where the caller declares M Hermitian, else ``eig``."""
    m = np.asarray(m)
    if hermitian:
        w, q = np.linalg.eigh(m)
        return EigenDecomposition(w, q, q.conj().T, 1.0)
    w, q = np.linalg.eig(m)
    q_inv = np.linalg.inv(q)
    return EigenDecomposition(w, q, q_inv, float(np.linalg.norm(q, 1) * np.linalg.norm(q_inv, 1)))


def triangular_block_function(g, k, coupling, f: FunctionSpec) -> np.ndarray | None:
    """X, the (1,2) block of f(M) for M = [[G, E], [0, K]] with the one-entry
    coupling E = coupling e1 e1^*: the coefficient matrix of both projected
    problems.

    With G = P diag(lam) P^{-1} and K = R diag(mu) R^{-1} the block is
    X = P [(P^{-1} E R) o F] R^{-1}, F = ``divided_differences(f, lam, mu)``
    (Daleckii-Krein; Higham, Functions of Matrices, 2008, ch. 3-4), where
    P^{-1} E R is coupling times the outer product of P^{-1}'s first column
    and R's first row: two eigendecompositions of the sides instead of one
    of M, whose eigenvectors are ill-conditioned wherever lam_i is close
    to mu_j.

    Each side is decomposed by one ``eigen_decompose`` call in the calling
    thread: ``eigh`` with P^{-1} = P^* when G and K are both exactly
    Hermitian (every Lanczos side), for every kind but a polynomial;
    otherwise, for invsqrt and invpower only, ``eig`` and an inverse. This
    returns None when either eigenvector matrix's 1-norm condition number
    exceeds the limit ``eval_matrix_function`` diagonalizes f under. None
    means the caller evaluates f of the whole of M: Pade, Horner or one
    inverse for exp, a polynomial, inverse and resolvent. Raises
    DomainError for a spectrum off the domain of f.
    """
    g, k = np.asarray(g), np.asarray(k)
    hermitian = np.array_equal(g, g.conj().T) and np.array_equal(k, k.conj().T)
    if f.kind == "polynomial" or not (hermitian or f.kind in ("invsqrt", "invpower")):
        return None
    left, right = eigen_decompose(g, hermitian), eigen_decompose(k, hermitian)
    lam, mu = left.eigenvalues, right.eigenvalues
    _check_spectrum(f, np.concatenate([lam, mu]))
    if max(left.conditioning, right.conditioning) > _cond_limit(f):
        return None
    coupled = (coupling * left.inverse[:, :1]) @ right.eigenvectors[:1] * divided_differences(f, lam, mu)
    return _maybe_real(left.eigenvectors @ coupled @ right.inverse, f, g, k)


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


def _inv_sqrt_denman_beavers(m) -> np.ndarray:
    """Coupled Newton iteration converging to M**(-1/2); requires the
    spectrum off the closed nonpositive real axis."""
    a = np.asarray(m, dtype=np.result_type(m, np.float64))
    n = a.shape[0]
    y = a.copy()
    z = np.eye(n, dtype=a.dtype)
    last = np.inf
    for _ in range(_DB_MAX_ITER):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        step = np.linalg.norm(y_next - y, "fro")
        y, z = y_next, z_next
        ref = np.linalg.norm(y, "fro")
        stagnating = step >= 0.9 * last and step <= 1e-10 * ref
        if step <= _DB_RTOL * ref or stagnating:
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


def _maybe_real(f_of_m: np.ndarray, f: FunctionSpec, *inputs) -> np.ndarray:
    """Drops the imaginary part when every input matrix is real and f
    commutes with conjugation: f of a real matrix is then real, and any
    imaginary part is rounding."""
    if (any(np.iscomplexobj(m) for m in inputs) or not np.iscomplexobj(f_of_m)
            or not _commutes_with_conjugation(f)):
        return f_of_m
    return np.ascontiguousarray(f_of_m.real)


def eval_matrix_function(m, f: FunctionSpec) -> np.ndarray:
    """Evaluates f(M) for a dense square matrix.

    Hermitian input goes through the eigendecomposition. General input uses
    scaling-and-squaring for exp and Horner for polynomials; the remaining
    kinds diagonalize as Q diag(f(eigenvalues)) Q^{-1} with the inverse
    ``eigen_decompose`` returns, guarded by its 1-norm condition number; the
    inverse square root (invsqrt, or invpower with exponent 1/2) switches
    to the Denman-Beavers iteration at a tighter estimate than the other
    kinds are rejected at. Raises
    DomainError when the spectrum violates the domain of f or no
    trustworthy path exists.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if m.shape[0] == 0:
        return m.copy()

    hermitian = is_hermitian(m)
    if not hermitian:
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
            return _maybe_real(np.linalg.inv(shifted), f, m)

    dec = eigen_decompose(m, hermitian)
    _check_spectrum(f, dec.eigenvalues)
    if dec.conditioning <= _cond_limit(f):  # always on the Hermitian path
        fw = scalar_values(f, dec.eigenvalues)
        out = (dec.eigenvectors * fw) @ dec.inverse
        return _maybe_real(out, f, m)
    if _is_inverse_sqrt(f):
        return _maybe_real(_inv_sqrt_denman_beavers(m), f, m)
    raise DomainError(
        f"eigenvector matrix too ill-conditioned (cond ~ {dec.conditioning:.2e}) "
        f"and no fallback is available for {f.kind!r}"
    )
