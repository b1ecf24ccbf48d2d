import threading

import numpy as np
import pytest

from funupdate import (DomainError, FunctionSpec, eigen_decompose,
                       eval_matrix_function, expm_dense, function_from_name,
                       scalar_derivative, scalar_values, spectral_norm)
from funupdate import densefun
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
        with pytest.raises(DomainError, match="ill-conditioned"):
            eval_matrix_function(a, FunctionSpec.inverse_power(0.5))

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
        assert got == pytest.approx(_derivatives(f, complex(mu))[0], rel=1e-15)

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
        assert got == pytest.approx(d1 + d2 * h / 2 + d3 * h * h / 6, rel=1e-14)

    def test_close_pair_across_the_branch_cut(self):
        # log lam - log mu = -2 pi i + O(1e-3) for this pair, so the divided
        # difference is the quotient of the principal values, far from f'(mu)
        f = FunctionSpec.inverse_power(0.3)
        lam, mu = np.array([-1.0 - 1e-3j]), np.array([-1.0 + 1e-3j])
        want = (scalar_values(f, lam) - scalar_values(f, mu)) / (lam - mu)
        np.testing.assert_allclose(divided_differences(f, lam, mu)[0], want, rtol=1e-12)

    def test_real_input_stays_real(self):
        out = divided_differences(FunctionSpec.inverse_power(0.4), np.array([1.0, 2.0]),
                                  np.array([2.0, 3.0]))
        assert out.dtype == np.float64

    def test_other_kinds_rejected(self):
        with pytest.raises(ValueError):
            divided_differences(EXP, np.array([1.0]), np.array([2.0]))


def _triangular(g, k, coupling):
    """[[G, coupling e1 e1^T], [0, K]]."""
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
        m = _triangular(np.diag([3.0, 2.0]), np.diag([3.0, 5.0]), 0.7)
        want = np.zeros((2, 2))
        want[0, 0] = 0.7 * _derivatives(f, 3.0)[0]
        np.testing.assert_allclose(triangular_block_function(m, 2, f), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("f", [INVSQRT, FunctionSpec.inverse_power(0.5)],
                             ids=lambda f: f.label())
    def test_defective_block_matches_denman_beavers(self, f):
        # 3 is an eigenvalue of G and of K and the coupling joins them: M has
        # a Jordan block, while each side on its own is diagonalizable
        m = _triangular(np.array([[3.0, 1.0], [0.0, 2.0]]),
                        np.array([[3.0, 0.0], [1.0, 5.0]]), 0.7)
        want = _inv_sqrt_denman_beavers(m)[:2, 2:]
        np.testing.assert_allclose(triangular_block_function(m, 2, f), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_near_defective_block_where_the_block_path_iterates(self, complex_):
        rng = np.random.default_rng(5)
        lam = rng.uniform(1.0, 4.0, 6) + (0.5j * rng.standard_normal(6) if complex_ else 0.0)
        m = _triangular(_similar(rng, lam), _similar(rng, lam + 1e-9), 0.4)
        assert eigen_decompose(m).conditioning > densefun._INVSQRT_COND_LIMIT
        block = eval_matrix_function(m, INVSQRT)  # Denman-Beavers
        x = triangular_block_function(m, 6, INVSQRT)
        assert x.dtype == block.dtype
        assert np.abs(x - block[:6, 6:]).max() <= 1e-12 * np.abs(block).max()

    def test_ill_conditioned_side_returns_none(self):
        g = np.array([[2.0, 1.0], [0.0, 2.0 + 1e-8]])  # eigenvector condition ~ 4e8
        m = _triangular(g, np.diag([1.0, 3.0]), 0.5)
        assert triangular_block_function(m, 2, INVSQRT) is None
        assert triangular_block_function(m, 2, FunctionSpec.inverse_power(0.5)) is None

    def test_other_kinds_return_none(self):
        m = _triangular(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), 1.0)
        for f in (EXP, FunctionSpec.inverse(), FunctionSpec.scaled_log(),
                  FunctionSpec.resolvent(-1.0), FunctionSpec.polynomial([1.0, 2.0])):
            assert triangular_block_function(m, 2, f) is None

    def test_spectrum_checked_on_both_sides(self):
        m = _triangular(np.diag([1.0, 2.0]), np.diag([3.0, -1.5]), 1.0)
        with pytest.raises(DomainError, match="-1.5"):
            triangular_block_function(m, 2, INVSQRT)

    def test_full_coupling_block(self):
        rng = np.random.default_rng(9)
        m = np.zeros((7, 7))
        m[:3, :3] = _similar(rng, [1.0, 2.0, 4.0])
        m[3:, 3:] = _similar(rng, [0.5, 1.5, 3.0, 6.0])
        m[:3, 3:] = rng.standard_normal((3, 4))
        np.testing.assert_allclose(triangular_block_function(m, 3, INVSQRT),
                                   eval_matrix_function(m, INVSQRT)[:3, 3:], rtol=0, atol=1e-13)

    def test_second_side_runs_on_a_worker_only_with_two_cores(self, monkeypatch):
        rng = np.random.default_rng(2)
        m = _triangular(_similar(rng, [1.0, 2.0, 3.0]), _similar(rng, [1.5, 2.5]), 0.3)
        real = densefun._eig_with_inverse
        on_main = []

        def recording(a):
            on_main.append(threading.current_thread() is threading.main_thread())
            return real(a)

        monkeypatch.setattr(densefun, "_eig_with_inverse", recording)
        xs = []
        for cores in (2, 1):
            monkeypatch.setattr(densefun, "_usable_cores", lambda: cores)
            on_main.clear()
            xs.append(triangular_block_function(m, 3, INVSQRT))
            assert sorted(on_main) == ([False, True] if cores > 1 else [True, True])
        np.testing.assert_allclose(xs[0], xs[1], rtol=1e-13)


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

    def test_markov_support(self):
        assert INVSQRT.markov_support == (-np.inf, 0.0)
        assert FunctionSpec.scaled_log().markov_support == (-np.inf, -1.0)
        assert EXP.markov_support is None
        assert INVSQRT.is_markov and not EXP.is_markov

    def test_function_from_name(self):
        assert function_from_name("exp").kind == "exp"
        assert function_from_name("invpower:0.25").power == 0.25
        assert function_from_name("poly:0,0,1").coefficients == (0.0, 0.0, 1.0)
        assert function_from_name("resolvent:2.5").shift == 2.5
        with pytest.raises(ValueError):
            function_from_name("sinh")


def test_eigen_decompose_residual():
    rng = np.random.default_rng(13)
    for hermitian in (True, False):
        m = make_hermitian(rng, 12) if hermitian else make_general(rng, 12)
        dec = eigen_decompose(m)
        recon = (dec.eigenvectors * dec.eigenvalues) @ np.linalg.inv(dec.eigenvectors)
        assert spectral_norm(recon - m) <= 1e-10 * max(spectral_norm(m), 1.0)
        if hermitian:
            assert dec.conditioning == 1.0
