import re
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from funupdate import (DomainError, FunctionSpec, eigen_decompose,
                       eval_matrix_function, expm_dense, function_from_name,
                       scalar_derivative, scalar_values, spectral_norm)
from funupdate import densefun
from funupdate.bounds import chebyshev_poly_bound
from funupdate.densefun import (_inv_sqrt_denman_beavers, divided_differences,
                                triangular_block_function)
from helpers import make_general, make_hermitian, make_spd

EXP = FunctionSpec.exp()
INVSQRT = FunctionSpec.inverse_sqrt()


class TestEvalMatrixFunction:
    def test_exp_of_zero(self):
        np.testing.assert_allclose(eval_matrix_function(np.zeros((2, 2)), EXP), np.eye(2))

    def test_invsqrt_of_diagonal(self):
        out = eval_matrix_function(np.diag([1.0, 4.0]), INVSQRT)
        np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-14)

    def test_exp_matches_taylor_series(self):
        rng = np.random.default_rng(11)
        m = make_hermitian(rng, 8, scale=1.5)
        term = np.eye(8)
        total = np.eye(8)
        for k in range(1, 31):
            term = term @ m / k
            total = total + term
        got = eval_matrix_function(m, EXP)
        assert spectral_norm(got - total) <= 1e-12 * spectral_norm(total)

    def test_exp_two_paths_agree_on_normal_input(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = make_hermitian(rng, 12, scale=3.0)
            via_eig = eval_matrix_function(m, EXP)  # Hermitian dispatch
            via_pade = expm_dense(m)
            assert spectral_norm(via_eig - via_pade) <= 1e-10 * spectral_norm(via_eig)

    def test_exp_against_scipy(self):
        import scipy.linalg

        rng = np.random.default_rng(5)
        m = make_general(rng, 15, spectral_norm_target=8.0)
        np.testing.assert_allclose(expm_dense(m), scipy.linalg.expm(m), rtol=1e-10, atol=1e-12)

    def test_polynomial_horner(self):
        rng = np.random.default_rng(2)
        m = make_general(rng, 6)
        f = FunctionSpec.polynomial([1.0, -2.0, 0.5, 3.0])
        want = np.eye(6) - 2 * m + 0.5 * m @ m + 3 * m @ m @ m
        np.testing.assert_allclose(eval_matrix_function(m, f), want, atol=1e-12)

    def test_inverse_general_path(self):
        rng = np.random.default_rng(9)
        m = make_general(rng, 10) + 2.0 * np.eye(10)
        out = eval_matrix_function(m, FunctionSpec.inverse())
        np.testing.assert_allclose(out @ m, np.eye(10), atol=1e-12)

    def test_resolvent(self):
        rng = np.random.default_rng(10)
        m = make_hermitian(rng, 7)
        z = 5.0
        out = eval_matrix_function(m, FunctionSpec.resolvent(z))
        np.testing.assert_allclose(out @ (z * np.eye(7) - m), np.eye(7), atol=1e-12)

    def test_real_input_gives_real_output_when_f_commutes_with_conjugation(self):
        m = np.array([[2.0, -1.0, 0.3], [1.0, 2.0, 0.0], [0.0, 0.5, 3.0]])  # eigenvalues 2 +- i, 3
        for f in (INVSQRT, FunctionSpec.scaled_log(), FunctionSpec.resolvent(1.0 + 0.0j)):
            out = eval_matrix_function(m, f)
            assert out.dtype == np.float64
        out = eval_matrix_function(m, INVSQRT)
        np.testing.assert_allclose(out @ out @ m, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("f", [FunctionSpec.resolvent(2.0 + 1.0j),
                                   FunctionSpec.polynomial([1.0, 0.5j])])
    def test_non_real_function_keeps_complex_result(self, f):
        rng = np.random.default_rng(12)
        for m in (make_hermitian(rng, 5), make_general(rng, 5)):
            out = eval_matrix_function(m, f)
            assert np.iscomplexobj(out) and np.abs(out.imag).max() > 0.1

    def test_hermitian_in_hermitian_out(self):
        rng = np.random.default_rng(1)
        for f in (EXP, INVSQRT, FunctionSpec.scaled_log()):
            m = make_spd(rng, 9, kappa=50.0)
            out = eval_matrix_function(m, f)
            assert spectral_norm(out - out.conj().T) <= 1e-12 * spectral_norm(out)

    def test_commutation(self):
        rng = np.random.default_rng(6)
        m = make_general(rng, 8) + 3.0 * np.eye(8)
        for f in (EXP, INVSQRT, FunctionSpec.inverse()):
            out = eval_matrix_function(m, f)
            lhs = out @ m
            rhs = m @ out
            assert spectral_norm(lhs - rhs) <= 1e-10 * max(spectral_norm(lhs), 1.0)

    def test_invsqrt_consistency_on_illconditioned_spd(self):
        rng = np.random.default_rng(8)
        m = make_spd(rng, 20, kappa=1e6)
        root = eval_matrix_function(m, INVSQRT)
        assert spectral_norm(root @ root @ m - np.eye(20)) <= 1e-8

    def test_invsqrt_denman_beavers_fallback(self):
        # block-triangular input with overlapping diagonal spectra defeats
        # diagonalization; the fallback must still deliver the inverse root
        a = np.array([[1.0, 5.0], [0.0, 1.0 + 1e-9]])
        out = eval_matrix_function(a, INVSQRT)
        np.testing.assert_allclose(out @ out @ a, np.eye(2), atol=1e-7)
        direct = _inv_sqrt_denman_beavers(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(direct, np.diag([1.0, 0.5]), atol=1e-13)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    def test_invsqrt_accurate_on_nearly_defective_input(self, delta):
        """Eigenvector condition 6/delta: diagonalizing loses about
        cond * eps, so the iteration has to take over before 1e8."""
        a, d, b = 2.0, 2.0 + delta, 3.0
        sa, sd = np.sqrt(a), np.sqrt(d)
        want = np.array([[1.0 / sa, -b / (sa * sd * (sa + sd))], [0.0, 1.0 / sd]])
        out = eval_matrix_function(np.array([[a, b], [0.0, d]]), INVSQRT)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)

    def test_invpower_half_is_the_inverse_sqrt(self):
        # invpower:0.5 shares invsqrt's condition limit and Denman-Beavers
        # fallback; diagonalizing at cond ~6e6 was 4e-10 off
        a, d, b = 2.0, 2.0 + 1e-6, 3.0
        sa, sd = np.sqrt(a), np.sqrt(d)
        want = np.array([[1.0 / sa, -b / (sa * sd * (sa + sd))], [0.0, 1.0 / sd]])
        out = eval_matrix_function(np.array([[a, b], [0.0, d]]), FunctionSpec.inverse_power(0.5))
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            eval_matrix_function(np.diag([1.0, -2.0]), INVSQRT)
        with pytest.raises(DomainError):
            eval_matrix_function(np.diag([0.0, 1.0]), FunctionSpec.inverse())
        with pytest.raises(DomainError):
            eval_matrix_function(np.diag([-1.0, 1.0]), FunctionSpec.scaled_log())
        with pytest.raises(DomainError):
            eval_matrix_function(np.diag([2.0, 3.0]), FunctionSpec.resolvent(2.0))
        with pytest.raises(ValueError):
            eval_matrix_function(np.ones((2, 3)), EXP)

    def test_ill_conditioned_without_fallback_raises(self):
        a = np.array([[1.0, 5.0], [0.0, 1.0 + 1e-9]])
        with pytest.raises(DomainError, match="no fallback is available for 'invpower'"):
            eval_matrix_function(a, FunctionSpec.inverse_power(0.3))

    def test_complex_hermitian(self):
        rng = np.random.default_rng(14)
        m = make_hermitian(rng, 6, complex_=True) + 2.0 * np.eye(6)
        out = eval_matrix_function(m, INVSQRT)
        np.testing.assert_allclose(out @ out @ m, np.eye(6), atol=1e-10)


def _derivatives(f, x):
    """f', f'' and f''' of x**(-gamma) at x (gamma = 1/2 for invsqrt)."""
    g = 0.5 if f.kind == "invsqrt" else f.power
    return (-g * x ** (-g - 1), g * (g + 1) * x ** (-g - 2),
            -g * (g + 1) * (g + 2) * x ** (-g - 3))


DD_FUNCTIONS = [INVSQRT, FunctionSpec.inverse_power(0.05), FunctionSpec.inverse_power(0.5),
                FunctionSpec.inverse_power(0.95)]


class TestDividedDifferences:
    @pytest.mark.parametrize("f", DD_FUNCTIONS, ids=lambda f: f.label())
    def test_far_pairs_match_the_quotient(self, f):
        lam = np.array([0.3, 2.0 + 1.5j, 7.0])
        mu = np.array([5.0, 0.2 - 3.0j])
        want = ((scalar_values(f, lam)[:, None] - scalar_values(f, mu)[None, :])
                / (lam[:, None] - mu[None, :]))
        np.testing.assert_allclose(divided_differences(f, lam, mu), want, rtol=1e-14)

    @pytest.mark.parametrize("f", DD_FUNCTIONS, ids=lambda f: f.label())
    @pytest.mark.parametrize("mu", [3.0, 0.7 + 2.0j, -2.0 + 0.5j])
    def test_equal_eigenvalues_give_the_derivative(self, f, mu):
        got = divided_differences(f, np.array([mu]), np.array([mu]))[0, 0]
        want = _derivatives(f, complex(mu))[0]
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("f", DD_FUNCTIONS, ids=lambda f: f.label())
    @pytest.mark.parametrize("mu", [3.0, 0.7 + 2.0j, -2.0 + 0.5j])
    @pytest.mark.parametrize("step", [1e-9, -1e-9, 1e-9j])
    def test_pairs_1e9_apart_match_the_taylor_form(self, f, mu, step):
        # f[mu + h, mu] = f'(mu) + f''(mu) h / 2 + f'''(mu) h^2 / 6 + O(h^3);
        # the plain quotient loses about 1e-7 of relative accuracy here
        lam, mu = np.array([mu + step]), np.array([mu], dtype=np.result_type(mu, step))
        h = lam[0] - mu[0]
        d1, d2, d3 = _derivatives(f, mu[0])
        got = divided_differences(f, lam, mu)[0, 0]
        want = d1 + d2 * h / 2 + d3 * h * h / 6
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_close_pair_across_the_branch_cut(self):
        # log lam - log mu = -2 pi i + O(1e-3) for this pair, so the divided
        # difference is the quotient of the principal values, far from f'(mu)
        f = FunctionSpec.inverse_power(0.3)
        lam, mu = np.array([-1.0 - 1e-3j]), np.array([-1.0 + 1e-3j])
        want = (scalar_values(f, lam) - scalar_values(f, mu)) / (lam - mu)
        np.testing.assert_allclose(divided_differences(f, lam, mu)[0], want, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.95])
    @pytest.mark.parametrize("s", [1e-8, 1e-4])
    def test_conjugate_pair_straddling_the_cut(self, gamma, s):
        # eigenvalues -1 +- s i of a real matrix: f(lam) and f(mu) differ by
        # O(1), so the plain quotient is accurate (within 8.3e-16 of 50-digit
        # mpmath), while expm1(log lam - log mu) near 2 pi i loses eps / s
        f = FunctionSpec.inverse_power(gamma)
        lam, mu = np.linalg.eigvals(np.array([[-1.0, s], [-s, -1.0]]))
        want = (lam ** -gamma - mu ** -gamma) / (lam - mu)
        got = divided_differences(f, np.array([lam]), np.array([mu]))[0, 0]
        assert abs(got - want) <= 4e-15 * abs(want)

    def test_real_input_stays_real(self):
        out = divided_differences(FunctionSpec.inverse_power(0.4), np.array([1.0, 2.0]),
                                  np.array([2.0, 3.0]))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("f", [EXP, FunctionSpec.scaled_log()], ids=lambda f: f.kind)
    def test_kinds_without_a_form_rejected(self, f):
        # exp and log1p-over-z have real forms only; every other kind has a
        # form on a complex spectrum
        with pytest.raises(ValueError):
            divided_differences(f, np.array([1.0 + 1.0j]), np.array([2.0]))


# Fraction(float) is exact, so the reference below carries no rounding
RATIONAL_POLY = FunctionSpec.polynomial([0.5, -1.25, 0.375, 2.0, -0.75, 1.5, 0.0, -0.125])
POLY_POINTS = [-1.75, -0.5, 0.0, 0.25, 1.5, 3.0]


def _fraction_divided_difference(coefficients, x, y):
    """p[x, y] in exact rational arithmetic: the quotient, or p'(x) at x = y."""
    a, x, y = [Fraction(c) for c in coefficients], Fraction(x), Fraction(y)
    if x == y:
        return sum(k * c * x ** (k - 1) for k, c in enumerate(a) if k)
    return (sum(c * x**k for k, c in enumerate(a)) - sum(c * y**k for k, c in enumerate(a))) / (x - y)


class TestPolynomialDividedDifferences:
    def test_equal_close_and_far_pairs_against_fractions(self):
        coefficients = RATIONAL_POLY.coefficients
        pts = np.array(POLY_POINTS)
        mu = np.concatenate([pts, pts + 1e-9])
        got = divided_differences(RATIONAL_POLY, pts, mu)
        assert got.dtype == np.float64
        for i, x in enumerate(pts):
            for j, y in enumerate(mu):
                want = _fraction_divided_difference(coefficients, x, y)
                # rounding of sum_k a_k sum_{i+j=k-1} x^i y^j is relative to its terms' moduli
                terms = sum(abs(c) * sum(abs(x) ** i * abs(y) ** (k - 1 - i) for i in range(k))
                            for k, c in enumerate(coefficients))
                assert abs(Fraction(float(got[i, j])) - want) <= 2 * len(coefficients) * 2.0**-53 * terms, (x, y)

    def test_complex_coefficients_match_the_quotient_at_far_pairs(self):
        f = FunctionSpec.polynomial([1.0 + 2.0j, -0.5j, 0.25, 1.0 - 1.0j, 0.5])
        lam = np.array([0.3, 2.0 + 1.5j, -1.0])
        mu = np.array([1.5, 0.2 - 3.0j])
        want = ((scalar_values(f, lam)[:, None] - scalar_values(f, mu)[None, :])
                / (lam[:, None] - mu[None, :]))
        got = divided_differences(f, lam, mu)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("x", [0.9, 0.5 + 1.0j])
    def test_derivative_is_the_confluent_divided_difference(self, x):
        f = FunctionSpec.polynomial([1.0, 2.0, -1.0, 0.25])
        want = 2.0 - 2.0 * x + 0.75 * x**2
        got = scalar_derivative(f, x)
        assert type(got) is type(x) and abs(got - want) <= 1e-15 * abs(want)


def _decimal_divided_difference(f, lam, mu):
    """f[lam, mu] in 60-digit decimal arithmetic, from the plain quotient
    and, where lam = mu, the closed-form derivative."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y = Decimal(float(lam)), Decimal(float(mu))
        if f.kind == "exp":
            value, slope = Decimal.exp, Decimal.exp
        elif f.kind == "inverse":
            value, slope = (lambda t: 1 / t), (lambda t: -1 / (t * t))
        elif f.kind == "resolvent":
            z = Decimal(float(f.shift.real))
            value, slope = (lambda t: 1 / (z - t)), (lambda t: 1 / ((z - t) * (z - t)))
        else:  # log1p-over-z, removable singularity at 0
            value = lambda t: (1 + t).ln() / t if t else Decimal(1)
            slope = lambda t: (t / (1 + t) - (1 + t).ln()) / (t * t) if t else Decimal(-0.5)
        return float(slope(x) if x == y else (value(x) - value(y)) / (x - y))


REAL_DD_FUNCTIONS = [EXP, FunctionSpec.inverse(), FunctionSpec.resolvent(-1.5),
                     FunctionSpec.scaled_log()]
REAL_DD_POINTS = {"exp": [-3.0, 0.5, 2.0, 0.0],
                  "inverse": [-3.0, 0.5, 2.0, 1e-3],
                  "resolvent": [-3.0, 0.5, 2.0, -1.4],
                  "log1p-over-z": [-0.7, 0.5, 2.0, 0.0, 3e-3, -0.09, 0.11]}


class TestRealDividedDifferences:
    """The forms for exp, inverse, resolvent and log1p-over-z against
    60-digit decimal arithmetic, at equal, close (relative gap 1e-9) and
    far pairs."""

    def _check(self, f, lam, mu, rel):
        got = divided_differences(f, np.asarray(lam), np.asarray(mu))
        assert got.dtype == np.float64
        for i, x in enumerate(lam):
            for j, y in enumerate(mu):
                want = _decimal_divided_difference(f, x, y)
                assert abs(got[i, j] - want) <= rel * abs(want), (x, y)

    @pytest.mark.parametrize("f", REAL_DD_FUNCTIONS, ids=lambda f: f.kind)
    def test_equal_close_and_far_pairs(self, f):
        pts = np.array(REAL_DD_POINTS[f.kind])
        close = np.where(pts == 0.0, 1e-9, pts * (1.0 + 1e-9))
        rel = 2e-14 if f.kind == "log1p-over-z" else 2e-15
        self._check(f, pts, np.concatenate([pts, close]), rel)

    def test_exp_across_a_wide_spectrum(self):
        # e^mu expm1(lam - mu) would give 0 * inf = nan for the pair (0, -1e3)
        pts = [-1e3, -1e3 + 1e-6, -1.0, -1e-3, 0.0, 700.0, -700.0]
        self._check(EXP, pts, pts, 2e-15)

    def test_scaled_log_at_zero(self):
        out = divided_differences(FunctionSpec.scaled_log(), np.array([0.0]), np.array([0.0]))
        assert out[0, 0] == -0.5

    def test_scaled_log_near_zero(self):
        # the quotient (l - f(mu)) / lam loses about eps / |lam|, up to 1e-13
        # on these pairs with the series radius at 1e-2 instead of 0.1
        pts = [*np.random.default_rng(0).uniform(-0.12, 0.12, 30), 0.010000001, -0.0099, 0.0]
        self._check(FunctionSpec.scaled_log(), pts, pts, 2e-14)


def _triangular(g, k, coupling):
    """[[G, coupling e1 e1^T], [0, K]], the block whose f has X in its (1,2) block."""
    p = g.shape[0]
    m = np.zeros((p + k.shape[0],) * 2, dtype=np.result_type(g, k))
    m[:p, :p], m[p:, p:] = g, k
    m[0, p] = coupling
    return m


def _similar(rng, eigs):
    """A matrix with the given eigenvalues and well-conditioned eigenvectors."""
    q = np.eye(len(eigs)) + 0.3 * rng.standard_normal((len(eigs), len(eigs)))
    return q @ np.diag(eigs) @ np.linalg.inv(q)


class TestTriangularBlockFunction:
    def test_diagonal_blocks_with_a_shared_eigenvalue(self):
        f = FunctionSpec.inverse_power(0.3)
        want = np.zeros((2, 2))
        want[0, 0] = 0.7 * _derivatives(f, 3.0)[0]
        x = triangular_block_function(np.diag([3.0, 2.0]), np.diag([3.0, 5.0]), 0.7, f)
        np.testing.assert_allclose(x, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("f", [INVSQRT, FunctionSpec.inverse_power(0.5)],
                             ids=lambda f: f.label())
    def test_defective_block_matches_denman_beavers(self, f):
        # 3 is an eigenvalue of G and of K and the coupling joins them: M has
        # a Jordan block, while each side on its own is diagonalizable
        g, k = np.array([[3.0, 1.0], [0.0, 2.0]]), np.array([[3.0, 0.0], [1.0, 5.0]])
        want = _inv_sqrt_denman_beavers(_triangular(g, k, 0.7))[:2, 2:]
        np.testing.assert_allclose(triangular_block_function(g, k, 0.7, f), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_near_defective_block_where_the_block_path_iterates(self, complex_):
        rng = np.random.default_rng(5)
        lam = rng.uniform(1.0, 4.0, 6) + (0.5j * rng.standard_normal(6) if complex_ else 0.0)
        g, k = _similar(rng, lam), _similar(rng, lam + 1e-9)
        m = _triangular(g, k, 0.4)
        assert eigen_decompose(m, hermitian=False).conditioning > densefun._INVSQRT_COND_LIMIT
        block = eval_matrix_function(m, INVSQRT)  # Denman-Beavers
        x = triangular_block_function(g, k, 0.4, INVSQRT)
        assert x.dtype == block.dtype
        assert np.abs(x - block[:6, 6:]).max() <= 1e-12 * np.abs(block).max()

    def test_ill_conditioned_side_returns_none(self):
        g = np.array([[2.0, 1.0], [0.0, 2.0 + 1e-8]])  # eigenvector condition ~ 4e8
        k = np.diag([1.0, 3.0])
        assert triangular_block_function(g, k, 0.5, INVSQRT) is None
        assert triangular_block_function(g, k, 0.5, FunctionSpec.inverse_power(0.5)) is None

    def test_kinds_the_sides_decide(self):
        # Hermitian sides: every kind but a polynomial; other sides: invsqrt
        # and invpower only, the rest is f of the whole block
        rng = np.random.default_rng(4)
        herm = (np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        general = (_similar(rng, [1.0, 2.0]), _similar(rng, [3.0, 4.0]))
        for f in (EXP, FunctionSpec.inverse(), FunctionSpec.scaled_log(), FunctionSpec.resolvent(-1.0),
                  FunctionSpec.polynomial([1.0, 2.0]), INVSQRT, FunctionSpec.inverse_power(0.5)):
            by_dd = f.kind != "polynomial"
            assert (triangular_block_function(*herm, 1.0, f) is not None) == by_dd, f.kind
            by_dd = f.kind in ("invsqrt", "invpower")
            assert (triangular_block_function(*general, 1.0, f) is not None) == by_dd, f.kind

    @pytest.mark.parametrize("f", [EXP, FunctionSpec.inverse(), FunctionSpec.scaled_log(),
                                   FunctionSpec.resolvent(-1.0), INVSQRT,
                                   FunctionSpec.inverse_power(0.4)], ids=lambda f: f.label())
    @pytest.mark.parametrize("complex_", [False, True])
    def test_hermitian_sides_match_the_whole_block(self, f, complex_):
        rng = np.random.default_rng(6)
        g = make_hermitian(rng, 5, complex_=complex_) + 2.0 * np.eye(5)
        k = make_hermitian(rng, 5, complex_=complex_) + 2.5 * np.eye(5)
        x = triangular_block_function(g, k, 0.6, f)
        want = eval_matrix_function(_triangular(g, k, 0.6), f)[:5, 5:]
        assert x.dtype == want.dtype
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    def test_spectrum_checked_on_both_sides(self):
        for g in (np.diag([1.0, 2.0]), _similar(np.random.default_rng(1), [1.0, 2.0])):
            with pytest.raises(DomainError, match="-1.5"):
                triangular_block_function(g, np.diag([3.0, -1.5]), 1.0, INVSQRT)

    def test_both_sides_run_through_eigen_decompose_in_the_calling_thread(self, monkeypatch):
        real = densefun.eigen_decompose
        calls = []

        def recording(a, hermitian=None):
            calls.append((threading.current_thread() is threading.main_thread(), hermitian))
            return real(a, hermitian)

        monkeypatch.setattr(densefun, "eigen_decompose", recording)
        rng = np.random.default_rng(2)
        cases = [((np.diag([1.0, 2.0]), np.diag([1.5, 2.5])), True),
                 ((_similar(rng, [1.0, 2.0, 3.0]), _similar(rng, [1.5, 2.5])), False)]
        for (g, k), hermitian in cases:
            calls.clear()
            assert triangular_block_function(g, k, 0.3, INVSQRT) is not None
            assert calls == [(True, hermitian)] * 2


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((10, 10))
        x = rng.standard_normal(10)
        for _ in range(2000):
            x = m.T @ (m @ x)
            x /= np.linalg.norm(x)
        sigma = np.sqrt(x @ (m.T @ (m @ x)))
        assert spectral_norm(m) == pytest.approx(sigma, abs=1e-10)


class TestScalarCalculus:
    def test_closed_form_derivatives(self):
        assert scalar_derivative(INVSQRT, 1.0) == pytest.approx(-0.5)
        assert scalar_derivative(FunctionSpec.inverse(), 2.0) == pytest.approx(-0.25)
        got = scalar_derivative(INVSQRT, 0.1)
        assert got == pytest.approx(-0.5 * 0.1 ** (-1.5))
        assert got == pytest.approx(-15.811388, abs=1e-5)

    @pytest.mark.parametrize("f,x", [
        (EXP, 0.7),
        (INVSQRT, 0.3),
        (FunctionSpec.inverse(), 1.7),
        (FunctionSpec.inverse_power(0.25), 2.2),
        (FunctionSpec.scaled_log(), 0.4),
        (FunctionSpec.scaled_log(), 1e-6),
        (FunctionSpec.polynomial([1.0, 2.0, -1.0, 0.25]), 0.9),
        (FunctionSpec.resolvent(4.0), 1.1),
    ])
    def test_derivative_against_central_difference(self, f, x):
        h = 1e-6
        fd = (scalar_values(f, np.array([x + h]))[0] - scalar_values(f, np.array([x - h]))[0]) / (2 * h)
        assert scalar_derivative(f, x) == pytest.approx(np.real(fd), rel=2e-8, abs=2e-8)

    def test_derivative_domain_errors(self):
        with pytest.raises(DomainError):
            scalar_derivative(INVSQRT, -1.0)
        with pytest.raises(DomainError):
            scalar_derivative(FunctionSpec.inverse(), 0.0)
        with pytest.raises(DomainError):
            scalar_derivative(FunctionSpec.scaled_log(), -1.5)

    @pytest.mark.parametrize("x", [2e-4, 1e-3, 0.1])
    def test_scaled_log_derivative_against_decimals(self, x):
        # the closed form 1/(x(1+x)) - log1p(x)/x^2 cancels: 1.9e-12 off at 2e-4
        want = _decimal_divided_difference(FunctionSpec.scaled_log(), x, x)
        assert abs(scalar_derivative(FunctionSpec.scaled_log(), x) - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("f,point", [
        (INVSQRT, 0.0), (FunctionSpec.inverse_power(0.5), 0.0), (FunctionSpec.scaled_log(), -1.0),
        (FunctionSpec.inverse(), 0.0), (FunctionSpec.resolvent(2.5), 2.5),
    ], ids=["invsqrt", "invpower", "log1p-over-z", "inverse", "resolvent"])
    def test_one_singular_set_serves_every_check(self, f, point):
        def rejected(x):
            checks = (lambda: scalar_derivative(f, x),
                      lambda: eval_matrix_function(np.diag([x, x + 1.0]), f),
                      lambda: chebyshev_poly_bound(f, (x, x + 1.0), 3))
            outcomes = []
            for check in checks:
                try:
                    check()
                except DomainError:
                    outcomes.append(True)
                else:
                    outcomes.append(False)
            return outcomes

        assert rejected(point) == [True, True, True]
        assert rejected(point + 1e-9) == [False, False, False]
        if f.singular_set[0] == "cut":
            assert rejected(point - 1.0) == [True, True, True]

    def test_scaled_log_series_patch(self):
        x = np.array([1e-9, -1e-9, 0.0])
        np.testing.assert_allclose(scalar_values(FunctionSpec.scaled_log(), x),
                                   [1.0 - 0.5e-9, 1.0 + 0.5e-9, 1.0], rtol=1e-12)


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec("nope")
        with pytest.raises(ValueError):
            FunctionSpec.inverse_power(1.5)
        with pytest.raises(ValueError):
            FunctionSpec.polynomial([])
        with pytest.raises(ValueError):
            FunctionSpec.polynomial([np.inf])

    def test_function_from_name(self):
        assert function_from_name("exp").kind == "exp"
        assert function_from_name("invpower:0.25").power == 0.25
        assert function_from_name("poly:0,0,1").coefficients == (0.0, 0.0, 1.0)
        assert function_from_name("resolvent:2.5").shift == 2.5
        with pytest.raises(ValueError):
            function_from_name("sinh")

    @pytest.mark.parametrize("make, message", [
        (lambda: FunctionSpec("resolvent"), "resolvent needs a finite shift, got None"),
        (lambda: FunctionSpec.resolvent(complex("nan")),
         "resolvent needs a finite shift, got (nan+0j)"),
        (lambda: function_from_name("exp:5"), "function 'exp' takes no parameter, got 'exp:5'"),
        (lambda: function_from_name("invsqrt:abc"),
         "function 'invsqrt' takes no parameter, got 'invsqrt:abc'"),
        (lambda: function_from_name("inverse:"),
         "function 'inverse' takes no parameter, got 'inverse:'"),
        (lambda: function_from_name("log1p-over-z:2"),
         "function 'log1p-over-z' takes no parameter, got 'log1p-over-z:2'"),
        (lambda: function_from_name("resolvent:nan"),
         "invalid function 'resolvent:nan': resolvent needs a finite shift, got (nan+0j)"),
        (lambda: function_from_name("resolvent:inf"),
         "invalid function 'resolvent:inf': resolvent needs a finite shift, got (inf+0j)"),
        (lambda: function_from_name("invpower:abc"),
         "invalid function 'invpower:abc': could not convert string to float: 'abc'"),
    ], ids=["resolvent-without-shift", "resolvent-nan-shift", "exp-parameter",
            "invsqrt-parameter", "inverse-empty-parameter", "log1p-over-z-parameter",
            "resolvent-nan-name", "resolvent-inf-name", "invpower-not-a-number"])
    def test_typed_input_errors(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("f", [
        FunctionSpec.exp(), FunctionSpec.inverse_sqrt(), FunctionSpec.inverse(),
        FunctionSpec.inverse_power(0.25), FunctionSpec.scaled_log(),
        FunctionSpec.polynomial([0.5, -1.0, 2.0]), FunctionSpec.resolvent(2.5),
        FunctionSpec.resolvent(1.0 - 2.0j)], ids=FunctionSpec.label)
    def test_function_from_name_reads_every_label(self, f):
        assert function_from_name(f.label()) == f


def test_eigen_decompose_residual():
    rng = np.random.default_rng(13)
    for hermitian in (True, False):
        m = make_hermitian(rng, 12) if hermitian else make_general(rng, 12)
        dec = eigen_decompose(m, hermitian)
        q, q_inv = dec.eigenvectors, dec.inverse
        recon = (q * dec.eigenvalues) @ q_inv
        assert spectral_norm(recon - m) <= 1e-10 * max(spectral_norm(m), 1.0)
        assert spectral_norm(q_inv @ q - np.eye(12)) <= 1e-12 * dec.conditioning
        if hermitian:
            assert np.shares_memory(q_inv, q) and np.array_equal(q_inv, q.conj().T)
            assert dec.conditioning == 1.0
        else:
            assert dec.conditioning == np.linalg.norm(q, 1) * np.linalg.norm(q_inv, 1)
