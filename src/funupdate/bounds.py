"""A-priori convergence and decay bound calculators.

Every bound here is a closed-form expression in spectral-inclusion data
(interval, ellipse, or wedge-shaped region), so that predicted convergence
curves can be tabulated without running a solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .densefun import FunctionSpec, on_singular_set, scalar_derivative, scalar_values
from .errors import DomainError


@dataclass(frozen=True)
class Interval:
    """Real inclusion interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")


@dataclass(frozen=True)
class Ellipse:
    """Ellipse with center sigma, focal half-distance tau and radius
    parameter rho >= 1: all z with |z-sigma+tau| + |z-sigma-tau| <=
    tau (rho + 1/rho). rho = 1 degenerates to the focal interval."""

    center: float
    focal: float
    radius: float

    def __post_init__(self):
        if self.focal <= 0:
            raise ValueError("focal half-distance must be positive")
        if self.radius < 1.0:
            raise ValueError("radius parameter must be at least 1")


@dataclass(frozen=True)
class Wedge:
    """Wedge-like region with rightmost point psi1, logarithmic capacity rho
    and outer angle alpha*pi at the corner, alpha in (1, 2]."""

    rightmost: float
    capacity: float
    angle: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 1.0 < self.angle <= 2.0:
            raise ValueError("angle parameter must lie in (1, 2]")


SpectralRegion = Interval | Ellipse | Wedge


def _as_ellipse(region) -> Ellipse:
    if isinstance(region, Interval):
        return Ellipse(0.5 * (region.lo + region.hi), 0.5 * (region.hi - region.lo), 1.0)
    if isinstance(region, Ellipse):
        return region
    raise ValueError("interval or ellipse region required")


def leftmost_real_point(region: SpectralRegion) -> float:
    """Smallest real element of the region."""
    if isinstance(region, Wedge):
        return region.rightmost - region.capacity * 2.0 ** region.angle
    e = _as_ellipse(region)
    return e.center - 0.5 * e.focal * (e.radius + 1.0 / e.radius)


def phi_abs(region, z) -> float:
    """Modulus of the exterior conformal map onto the unit-disk complement,
    for interval and ellipse regions via the inverse Joukowski map.

    Returns a value >= 1; points on the boundary map to 1. Raises
    ValueError for z inside the region.
    """
    e = _as_ellipse(region)
    zeta = (complex(z) - e.center) / e.focal
    if e.radius == 1.0:
        # degenerate ellipse: the region is the focal segment itself and the
        # map sends the whole segment to the unit circle, so interior points
        # must be screened directly
        if abs(zeta.imag) <= 1e-12 and -1.0 + 1e-12 < zeta.real < 1.0 - 1e-12:
            raise ValueError(f"point {z} lies inside the region")
    root = cmath.sqrt(zeta * zeta - 1.0)
    w = zeta + root if abs(zeta + root) >= abs(zeta - root) else zeta - root
    value = abs(w) / e.radius
    if value < 1.0 - 1e-12:
        raise ValueError(f"point {z} lies inside the region")
    return max(value, 1.0)


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: ``value`` is None outside the validity window of
    the formula; ``rate`` is the constant-free decay factor, defined for
    every m, or None for a bound that has none."""

    applicable: bool
    value: float | None
    rate: float | None


def bound_exp_superlinear(psi1, rho, m, b_norm=1.0, c_norm=1.0) -> BoundValue:
    """Superlinear error bound for the exponential on a convex region with
    rightmost point psi1 and capacity rho:

        (672 / rho) * e^psi1 * (rho e / (m+1))^(m+1) * |b| |c|,

    valid for m + 1 >= e * rho. The constant-free rate
    e^psi1 (e rho / (m+1))^(m+1) is reported for every m.
    """
    if rho <= 0:
        raise ValueError("capacity must be positive")
    rate = math.exp(psi1 + (m + 1) * (1.0 + math.log(rho) - math.log(m + 1)))
    if m + 1 < math.e * rho:
        return BoundValue(False, None, rate)
    return BoundValue(True, 672.0 / rho * rate * b_norm * c_norm, rate)


def bound_exp_wedge(region: Wedge, m, b_norm=1.0, c_norm=1.0) -> BoundValue:
    """Error bound for the exponential on a wedge-like region:

        ((4 rho^(1/alpha))^4 / rho)
            * exp(psi1 - (alpha-1) ((m+1-4/alpha)/(alpha rho^(1/alpha)))^(alpha/(alpha-1)))
            * |b| |c|,

    valid for m + 1 - 4/alpha in [alpha rho^(1/alpha), alpha rho].
    """
    if not isinstance(region, Wedge):
        raise ValueError("wedge region required")
    alpha, rho, psi1 = region.angle, region.capacity, region.rightmost
    shifted = m + 1.0 - 4.0 / alpha
    exponent = psi1 - (alpha - 1.0) * (shifted / (alpha * rho ** (1.0 / alpha))) ** (alpha / (alpha - 1.0)) \
        if shifted > 0 else psi1
    rate = math.exp(exponent)
    if not alpha * rho ** (1.0 / alpha) <= shifted <= alpha * rho:
        return BoundValue(False, None, rate)
    constant = (4.0 * rho ** (1.0 / alpha)) ** 4 / rho
    return BoundValue(True, constant * rate * b_norm * c_norm, rate)


def cg_rate(kappa) -> float:
    """(sqrt(k) - 1) / (sqrt(k) + 1), the conjugate-gradient style decay
    factor of ``bound_markov_hpd`` and of the decay bounds."""
    s = math.sqrt(kappa)
    return (s - 1.0) / (s + 1.0)


def bound_markov(region, beta_hi, f_prime_omega, m, b_norm=1.0, c_norm=1.0) -> BoundValue:
    """Markov-function error bound 8 |f'(omega)| |b| |c| / |phi(beta)|^m for
    a region symmetric to the real axis whose leftmost real point omega lies
    strictly right of the support endpoint beta; the rate is
    1 / |phi(beta)|^m."""
    omega = leftmost_real_point(region)
    if not beta_hi < omega:
        raise ValueError("support endpoint must lie strictly left of the region")
    rate = (1.0 / phi_abs(region, beta_hi))**m
    return BoundValue(True, 8.0 * abs(f_prime_omega) * b_norm * c_norm * rate, rate)


def bound_markov_hpd(kappa_star, f_prime, b_norm, m) -> BoundValue:
    """Hermitian positive definite specialization with the rate
    ``cg_rate(k*)``^m, where k* is the ratio of the largest updated
    eigenvalue to the smallest original one and f_prime is |f'| at that
    smallest eigenvalue."""
    if kappa_star < 1.0:
        raise ValueError("kappa_star must be at least 1")
    rate = cg_rate(kappa_star)**m
    return BoundValue(True, 8.0 * abs(f_prime) * b_norm**2 * rate, rate)


def chebyshev_poly_bound(f: FunctionSpec, interval, m) -> BoundValue:
    """Computable stand-in for four times the best degree-m uniform
    approximation error of f on a real interval, with no rate.

    Interpolates f at m+1 Chebyshev points, samples |f - p| on a 10(m+1)
    point Chebyshev-dense grid, and returns 4 times the maximum. Since the
    interpolant is near-best, this upper-bounds the minimum-based quantity
    up to a modest factor and the sampling error.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval needs a < b")
    # [a, b] meets the singular set iff its point nearest the cut's end or the pole does
    if f.singular_set and on_singular_set(f, np.clip(np.real(f.singular_set[1]), a, b)):
        raise DomainError(f"{f.label()} is not analytic on [{a}, {b}]")

    def mapped(t):
        return scalar_values(f, 0.5 * (b - a) * (np.asarray(t) + 1.0) + a).real

    coeffs = np.polynomial.chebyshev.chebinterpolate(mapped, int(m))
    theta = np.pi * (np.arange(10 * (m + 1)) + 0.5) / (10.0 * (m + 1))
    t = np.cos(theta)
    err = np.max(np.abs(mapped(t) - np.polynomial.chebyshev.chebval(t, coeffs)))
    return BoundValue(True, 4.0 * float(err), None)


def field_of_values_boundary(m, n_angles) -> np.ndarray:
    """Supporting points of the field of values by the rotation method.

    For each angle the top eigenvector of the Hermitian part of e^{i theta} M
    yields the boundary point x^* M x; the returned complex points trace a
    polygonal approximation of the boundary.
    """
    m = np.asarray(m)
    if n_angles < 4:
        raise ValueError("need at least 4 angles")
    points = np.empty(n_angles, dtype=complex)
    for k in range(n_angles):
        theta = 2.0 * math.pi * k / n_angles
        rotated = np.exp(1j * theta) * m
        herm = 0.5 * (rotated + rotated.conj().T)
        w, q = np.linalg.eigh(herm)
        x = q[:, -1]
        points[k] = np.vdot(x, m @ x)
    return points


# -----------------------------------------------------------------------------
# Decay bounds

@dataclass(frozen=True)
class DecayParams:
    """Spectral data driving the decay bounds for an SPD operator:
    extreme eigenvalues, the resolvent floor K, and |f'| at the smallest
    eigenvalue."""

    lmin: float
    lmax: float
    resolvent_floor: float
    f_prime_lmin: float

    def __post_init__(self):
        if not 0 < self.lmin <= self.lmax:
            raise ValueError("need 0 < lmin <= lmax")
        if self.resolvent_floor <= 0:
            raise ValueError("resolvent floor K must be positive")

    @property
    def kappa(self) -> float:
        return self.lmax / self.lmin

    @property
    def decay_rate(self) -> float:
        return cg_rate(self.kappa)


def demko_decay(params: DecayParams, dist) -> float:
    """Entrywise bound on the inverse of an SPD matrix at graph distance
    ``dist``: C q^dist with q = (sqrt(k)-1)/(sqrt(k)+1) and
    C = max(1/lmin, (1+sqrt(k))^2 / (2 lmax))."""
    if dist < 0:
        raise ValueError("distance must be nonnegative")
    s = math.sqrt(params.kappa)
    c = max(1.0 / params.lmin, (1.0 + s) ** 2 / (2.0 * params.lmax))
    q = params.decay_rate
    return c if dist == 0 else c * math.exp(dist * math.log(q)) if q > 0 else 0.0


def stieltjes_update_decay(params: DecayParams, d_ik, d_lj) -> float:
    """Entrywise bound 4 |f'(lmin)| / K * q^(d_ik + d_lj) on the update of a
    Stieltjes matrix function after a unit-entry modification at (k, l)."""
    if d_ik < 0 or d_lj < 0:
        raise ValueError("distances must be nonnegative")
    q = params.decay_rate
    total = d_ik + d_lj
    factor = 1.0 if total == 0 else (math.exp(total * math.log(q)) if q > 0 else 0.0)
    return 4.0 * abs(params.f_prime_lmin) / params.resolvent_floor * factor


_K_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
_K_RTOL = 1e-6  # the golden-section search stops at this relative change


def stieltjes_k_constant(a_dense, k, l) -> float:
    """Floor K = min_{t >= 0} |1 + e_l^* (A + tI)^{-1} e_k| of the shifted
    resolvent entries, by a logarithmic grid search refined with a
    golden-section pass around the best grid point; the t -> infinity limit
    contributes the value 1."""
    a = np.asarray(a_dense, dtype=float)
    n = a.shape[0]
    ek = np.zeros(n)
    ek[k] = 1.0

    def objective(t):
        x = np.linalg.solve(a + t * np.eye(n), ek)
        return abs(1.0 + x[l])

    values = [objective(t) for t in _K_GRID]
    best = int(np.argmin(values))
    k_best = values[best]
    lo = _K_GRID[best - 1] if best > 0 else 0.0
    hi = _K_GRID[best + 1] if best + 1 < len(_K_GRID) else 2.0 * _K_GRID[-1]
    # golden-section refinement of the smooth 1-D objective
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(200):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
        new_best = min(f1, f2)
        if abs(k_best - new_best) <= _K_RTOL * max(new_best, 1e-300):
            k_best = min(k_best, new_best)
            break
        k_best = min(k_best, new_best)
    k_final = min(k_best, 1.0)  # the limit value at t -> infinity
    if k_final <= 0:
        raise ValueError("resolvent floor estimate is not positive")
    return k_final


def decay_params_from_matrix(a_dense, f: FunctionSpec, k, l) -> DecayParams:
    """Measures DecayParams for an SPD matrix modified by the unit entry at
    (k, l): extreme eigenvalues, the resolvent floor, and |f'(lmin)|."""
    a = np.asarray(a_dense, dtype=float)
    eigs = np.linalg.eigvalsh(a)
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    if lmin <= 0:
        raise ValueError("matrix must be positive definite")
    return DecayParams(lmin, lmax, stieltjes_k_constant(a, k, l),
                       abs(scalar_derivative(f, lmin)))
