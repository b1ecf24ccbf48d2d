import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funupdate import (DomainError, FunctionSpec, GeneralProblem, HermitianProblem,
                       LowRankModification, SolveOptions, dense_update_reference,
                       error_estimate, extract_diagonal, gen_laplace2d,
                       general_update, hermitian_update, rank_k_update,
                       spectral_norm, split_hermitian, xm_hermitian)
from funupdate import densefun
from funupdate.krylov import ArnoldiProcess
from funupdate.densefun import eigen_decompose, eval_matrix_function
from funupdate.update import _assemble_block
from helpers import make_general, make_hermitian, make_spd, unit

EXP = FunctionSpec.exp()
INVSQRT = FunctionSpec.inverse_sqrt()
IDENT = FunctionSpec.polynomial([0.0, 1.0])


class TestXmHermitian:
    def test_linear_function_gives_rank_one(self):
        rng = np.random.default_rng(1)
        g = make_hermitian(rng, 6)
        x = xm_hermitian(g, 1.7, IDENT, 1)
        want = np.zeros((6, 6))
        want[0, 0] = 1.7**2
        np.testing.assert_allclose(x, want, atol=1e-14)

    def test_constant_function_gives_zero(self):
        rng = np.random.default_rng(2)
        g = make_hermitian(rng, 4)
        x = xm_hermitian(g, 2.0, FunctionSpec.polynomial([3.0]), 1)
        np.testing.assert_allclose(x, np.zeros((4, 4)), atol=1e-14)

    def test_scalar_exponential(self):
        x = xm_hermitian(np.array([[0.0]]), 1.0, EXP, 1)
        np.testing.assert_allclose(x, [[np.e - 1.0]], rtol=1e-14)
        x_down = xm_hermitian(np.array([[0.0]]), 1.0, EXP, -1)
        np.testing.assert_allclose(x_down, [[np.exp(-1.0) - 1.0]], rtol=1e-14)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            xm_hermitian(np.eye(2), 1.0, EXP, 0)


class TestBlockCompression:
    def test_scalar_blocks(self):
        g = np.array([[2.0]])
        h = np.array([[3.0 + 1.0j]])
        blk = _assemble_block(g, h, 1.5, 2.0, np.array([0.25]))
        np.testing.assert_allclose(blk, [[2.0, 3.0], [0.0, 3.0 - 1.0j + 0.5]])

    def test_orthogonal_start_leaves_pure_adjoint_block(self):
        rng = np.random.default_rng(3)
        g = make_general(rng, 4)
        h = make_general(rng, 4)
        blk = _assemble_block(g, h, 1.0, 1.0, np.zeros(4))
        np.testing.assert_allclose(blk[4:, 4:], h.conj().T)
        assert blk[0, 4] == 1.0

    def test_hermitian_case_reduces_to_difference_form(self):
        # with c = b over Hermitian A both Arnoldi sides coincide, the lower
        # right block becomes G + |b|^2 e1 e1^T, and the (1,2) block of f of
        # the assembled matrix equals the Hermitian difference formula
        rng = np.random.default_rng(4)
        a = make_hermitian(rng, 30)
        b = unit(rng, 30) * 1.3
        m = 5
        pu = ArnoldiProcess(lambda x: a @ x, b)
        pu.advance(m)
        g = pu.compressed(m)
        vtb = pu.basis_matrix(m).conj().T @ b
        blk = _assemble_block(g, g.conj().T, np.linalg.norm(b), np.linalg.norm(b), vtb)
        bumped = g + np.linalg.norm(b) ** 2 * np.outer(np.eye(m)[0], np.eye(m)[0])
        np.testing.assert_allclose(blk[m:, m:], bumped, atol=1e-12)
        f_blk = eval_matrix_function(blk, EXP)[:m, m:]
        diff = xm_hermitian(g, np.linalg.norm(b), EXP, 1)
        assert spectral_norm(f_blk - diff) <= 1e-10


class TestErrorEstimate:
    def test_stagnation_gives_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        pad = np.zeros((4, 4))
        pad[:2, :2] = x
        assert error_estimate(x, pad) == 0.0

    def test_diagonal_difference(self):
        assert error_estimate(np.array([[1.0]]), np.array([[1.0, 0.0], [0.0, 0.5]])) == pytest.approx(0.5)

    def test_equals_dense_norm_of_factor_difference(self):
        rng = np.random.default_rng(5)
        a = make_general(rng, 40)
        at = a.conj().T
        b, c = unit(rng, 40), unit(rng, 40)
        m, d = 6, 2
        small = GeneralProblem(lambda x: a @ x, lambda x: at @ x, b, c, EXP).factor(m)
        big = GeneralProblem(lambda x: a @ x, lambda x: at @ x, b, c, EXP).factor(m + d)
        est = error_estimate(small.X, big.X)
        dense = spectral_norm(big.densify() - small.densify())
        assert est == pytest.approx(dense, abs=1e-12)

    def test_size_ordering(self):
        with pytest.raises(ValueError):
            error_estimate(np.eye(3), np.eye(2))


class TestHermitianUpdate:
    def test_linear_function_reproduces_outer_product(self):
        rng = np.random.default_rng(6)
        a = make_hermitian(rng, 25)
        b = 1.9 * unit(rng, 25)
        fac = hermitian_update(lambda x: a @ x, b, IDENT, opts=SolveOptions(tol=1e-12, max_m=10))
        assert spectral_norm(fac.densify() - np.outer(b, b)) <= 1e-12

    def test_wide_equispaced_spectrum_negated_exponential(self):
        # decaying exponential of a diagonal with eigenvalues spread over
        # [1e-3, 1e3], realized as exp on the negated operator
        rng = np.random.default_rng(7)
        n = 100
        eigs = np.linspace(1e-3, 1e3, n)
        b = unit(rng, n)
        opts = SolveOptions(tol=1e-6, max_m=120)
        fac = hermitian_update(lambda x: -eigs * x, b, EXP, sign=-1, opts=opts)
        assert fac.converged
        ref = dense_update_reference(np.diag(-eigs), -b.reshape(-1, 1), b.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-5

    def test_sherman_morrison_inverse(self):
        rng = np.random.default_rng(8)
        n = 50
        a = make_spd(rng, n, kappa=100.0)
        b = 0.1 * unit(rng, n)
        c = 0.1 * unit(rng, n)
        fac = general_update(lambda x: a @ x, lambda x: a @ x, b, c,
                             FunctionSpec.inverse(), SolveOptions(tol=1e-10, max_m=60))
        assert fac.converged
        ainv = np.linalg.inv(a)
        closed = -np.outer(ainv @ b, ainv.T @ c) / (1.0 + c @ ainv @ b)
        assert spectral_norm(fac.densify() - closed) <= 1e-8 * spectral_norm(closed)

    def test_factor_is_hermitian(self):
        rng = np.random.default_rng(9)
        a = make_hermitian(rng, 30)
        fac = hermitian_update(lambda x: a @ x, unit(rng, 30), EXP,
                               opts=SolveOptions(tol=1e-9, max_m=40))
        dense = fac.densify()
        assert fac.V is fac.U
        assert spectral_norm(dense - dense.conj().T) <= 1e-12 * max(spectral_norm(fac.X), 1.0)

    def test_breakdown_is_exact_and_converged(self):
        fac = hermitian_update(lambda x: x, np.array([1.0, 2.0, 2.0]), EXP)
        assert fac.converged and fac.m == 1
        # factor is (f(1+|b|^2) - f(1)) u1 u1^T with u1 = b/|b|
        want = np.exp(1.0 + 9.0) - np.exp(1.0)
        np.testing.assert_allclose(fac.densify(), want * np.outer([1, 2, 2], [1, 2, 2]) / 9.0,
                                   rtol=1e-12)

    def test_max_m_reached_reports_not_converged(self):
        rng = np.random.default_rng(10)
        a = make_spd(rng, 40, kappa=1e4)
        fac = hermitian_update(lambda x: a @ x, unit(rng, 40), INVSQRT,
                               opts=SolveOptions(tol=1e-14, max_m=8, batch=2))
        assert not fac.converged
        assert fac.m == 8
        ms = [m for m, _ in fac.estimate_history]
        assert ms == sorted(set(ms))  # strictly increasing checkpoints

    def test_full_dimension_is_exact(self):
        rng = np.random.default_rng(11)
        n = 12
        a = make_hermitian(rng, n)
        b = unit(rng, n)
        fac = hermitian_update(lambda x: a @ x, b, EXP,
                               opts=SolveOptions(tol=1e-16, max_m=2 * n))
        ref = dense_update_reference(a, b.reshape(-1, 1), b.reshape(-1, 1), EXP)
        assert fac.converged  # lucky breakdown at n
        assert spectral_norm(ref - fac.densify()) <= 1e-10


class TestGeneralUpdate:
    def test_coincides_with_hermitian_path(self):
        rng = np.random.default_rng(12)
        n = 40
        a = make_hermitian(rng, n, scale=2.0)
        b = unit(rng, n)
        m = 12
        herm = HermitianProblem(lambda x: a @ x, b, EXP).factor(m)
        gen = GeneralProblem(lambda x: a @ x, lambda x: a @ x, b, b, EXP).factor(m)
        assert spectral_norm(herm.densify() - gen.densify()) <= 1e-10

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(13)
        n, m = 60, 8
        a = make_general(rng, n)
        b, c = unit(rng, n), unit(rng, n)
        at = a.conj().T
        for j in range(m + 1):
            p = FunctionSpec.polynomial([0.0] * j + [1.0])
            fac = GeneralProblem(lambda x: a @ x, lambda x: at @ x, b, c, p).factor(m)
            mod = np.linalg.matrix_power(a + np.outer(b, c.conj()), j)
            base = np.linalg.matrix_power(a, j)
            err = spectral_norm(mod - base - fac.densify())
            assert err <= 1e-9 * (1.0 + spectral_norm(mod))

    def test_polynomial_exactness_hermitian_path(self):
        rng = np.random.default_rng(29)
        n, m = 60, 8
        a = make_hermitian(rng, n)
        b = unit(rng, n)
        for j in range(m + 1):
            p = FunctionSpec.polynomial([0.0] * j + [1.0])
            fac = HermitianProblem(lambda x: a @ x, b, p).factor(m)
            assert spectral_norm(fac.U.conj().T @ fac.U - np.eye(m)) <= 1e-12
            mod = np.linalg.matrix_power(a + np.outer(b, b), j)
            base = np.linalg.matrix_power(a, j)
            err = spectral_norm(mod - base - fac.densify())
            assert err <= 1e-9 * (1.0 + spectral_norm(mod))

    def test_m1_linear_coefficient_is_exact(self):
        rng = np.random.default_rng(14)
        a = make_general(rng, 20)
        b = 1.3 * unit(rng, 20)
        c = 0.7 * unit(rng, 20)
        fac = GeneralProblem(lambda x: a @ x, lambda x: a.conj().T @ x, b, c, IDENT).factor(1)
        np.testing.assert_allclose(fac.X, [[np.linalg.norm(b) * np.linalg.norm(c)]], rtol=1e-13)

    def test_overflowing_function_is_a_domain_error(self):
        a = 800.0 * np.eye(3)  # exp(800) overflows
        problems = [HermitianProblem(lambda x: a @ x, np.ones(3), EXP),
                    GeneralProblem(lambda x: a @ x, lambda x: a @ x, np.ones(3), unit(
                        np.random.default_rng(0), 3), EXP)]
        for problem in problems:
            with pytest.raises(DomainError, match="exp of the compressed matrix is not finite"), \
                    np.errstate(all="ignore"):
                problem.x(1)

    def test_one_sided_breakdown_freezes_exact_side(self):
        # b lives in a 3-dimensional invariant subspace; the adjoint side
        # keeps growing and the result still converges to the dense truth
        rng = np.random.default_rng(15)
        blk = np.zeros((23, 23))
        blk[:3, :3] = make_general(rng, 3)
        blk[3:, 3:] = make_general(rng, 20)
        b = np.zeros(23)
        b[:3] = unit(rng, 3)
        c = unit(rng, 23)
        fac = general_update(lambda x: blk @ x, lambda x: blk.T @ x, b, c, EXP,
                             SolveOptions(tol=1e-11, max_m=40, batch=3))
        assert fac.U.shape[1] == 3
        assert fac.X.shape == (fac.U.shape[1], fac.V.shape[1])
        ref = dense_update_reference(blk, b.reshape(-1, 1), c.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-9

    def test_estimator_tracks_true_error_for_laplacian_invsqrt(self):
        # lookahead estimates stay within a factor 100 of the true error
        # once past the first few steps, for every small lookahead
        rng = np.random.default_rng(16)
        a = gen_laplace2d(20)
        n = a.n
        b = 0.1 * unit(rng, n)
        c = 0.1 * unit(rng, n)
        ref = dense_update_reference(a.to_dense(), b.reshape(-1, 1), c.reshape(-1, 1), INVSQRT)
        prob = GeneralProblem(a.matvec, a.conjugate_transpose().matvec, b, c, INVSQRT)
        prob.grow(53)
        xs = {m: prob.x(m) for m in set(range(6, 51, 4)) | set(range(7, 54))}
        checked = 0
        for m in range(6, 51, 4):
            true_err = spectral_norm(ref - prob.factor(m).densify())
            if true_err < 1e-11:
                break
            for d in (1, 2, 3):
                est = error_estimate(xs[m], xs[m + d])
                assert est <= 100.0 * true_err
                assert est >= true_err / 100.0
                checked += 1
        assert checked >= 12


class TestProjectedProblems:
    @pytest.mark.parametrize("driver", ["hermitian", "general"])
    def test_exhausted_exactly_at_checkpoint_target(self, driver):
        # the Krylov space has dimension 7 = batch 5 + lookahead 2, so it is
        # exhausted at the first checkpoint target
        a = np.diag(np.arange(1.0, 8.0))
        b = np.ones(7) / 3.0
        if driver == "hermitian":
            fac = hermitian_update(lambda x: a @ x, b, EXP)
        else:
            fac = general_update(lambda x: a @ x, lambda x: a @ x, b, b, EXP)
        assert fac.converged and fac.m == 7
        assert fac.estimate_history == [(7, 0.0)]
        ref = dense_update_reference(a, b.reshape(-1, 1), b.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-11


def _problem_maker(kind, n, k, seed, complex_):
    """A problem whose b lies in a k-dimensional invariant subspace of A;
    for the general kind c lies in one of A^* of dimension n - k when k < n."""
    rng = np.random.default_rng(seed)
    b = np.zeros(n, dtype=complex if complex_ else float)
    b[:k] = unit(rng, k, complex_)
    if kind == "general":
        a = make_general(rng, n, complex_=complex_)
        a[k:, :k] = 0.0
        c = unit(rng, n, complex_)
        if k < n:
            c[:k] = 0.0
        return lambda: GeneralProblem(lambda x: a @ x, lambda x: a.conj().T @ x, b, c, EXP)
    a = make_hermitian(rng, n, complex_=complex_)
    a[k:, :k] = 0.0
    a[:k, k:] = 0.0
    return lambda: HermitianProblem(lambda x: a @ x, b, EXP, reorth=kind)


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(["full", "none", "general"]), n=st.integers(2, 10),
       k=st.integers(1, 10), m=st.integers(1, 12), extra=st.integers(0, 4),
       seed=st.integers(0, 2**16), complex_=st.booleans())
@example(kind="full", n=6, k=2, m=4, extra=3, seed=0, complex_=False)  # breakdown before m
@example(kind="none", n=6, k=3, m=5, extra=2, seed=1, complex_=True)
@example(kind="general", n=6, k=2, m=4, extra=3, seed=2, complex_=False)
def test_factor_after_growth_equals_fresh_factor(kind, n, k, m, extra, seed, complex_):
    make = _problem_maker(kind, n, min(k, n), seed, complex_)
    grown = make()
    grown.grow(m + extra)
    got = grown.factor(m)
    want = make().factor(m)
    for name in ("U", "X", "V"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert (got.m, got.converged) == (want.m, want.converged)


STOPPING_FUNCTIONS = [EXP, INVSQRT, FunctionSpec.inverse(), FunctionSpec.inverse_power(0.3),
                      FunctionSpec.scaled_log(), FunctionSpec.polynomial([0.5, -1.0, 0.3, 0.05]),
                      FunctionSpec.resolvent(-1.0)]


@settings(deadline=None, max_examples=200)
@given(hermitian=st.booleans(), n=st.integers(5, 40), f=st.sampled_from(STOPPING_FUNCTIONS),
       log_tol=st.floats(-10.0, -3.0), b_frac=st.floats(0.0, 1.0),
       c_norm=st.floats(0.05, 0.5), seed=st.integers(0, 2**16))
def test_converged_factor_meets_tolerance(hermitian, n, f, log_tol, b_frac, c_norm, seed):
    # Hermitian: spectrum in [0.5, 5], |b| in [0.05, 1]; general: a diagonal
    # in [1, 5] plus 0.3 G / sqrt(n), |b| and |c| in [0.05, 0.5]. The factor
    # 10 is the benchmark gate's SAFETY; the floor covers rounding in ref.
    rng = np.random.default_rng(seed)
    tol = 10.0**log_tol
    opts = SolveOptions(tol=tol)
    if hermitian:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(0.5, 5.0, n)) @ q.T
        b = c = (0.05 + 0.95 * b_frac) * unit(rng, n)
        fac = hermitian_update(lambda x: a @ x, b, f, opts=opts)
    else:
        a = np.diag(rng.uniform(1.0, 5.0, n)) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = (0.05 + 0.45 * b_frac) * unit(rng, n)
        c = c_norm * unit(rng, n)
        fac = general_update(lambda x: a @ x, lambda x: a.T @ x, b, c, f, opts)
    if fac.converged:
        ref = dense_update_reference(a, b.reshape(-1, 1), c.reshape(-1, 1), f)
        limit = 10.0 * max(tol, 1e-13 * spectral_norm(ref))
        assert spectral_norm(ref - fac.densify()) <= limit


def _whole_block(problem, m):
    """The block compression of a GeneralProblem at m and the size of G."""
    problem.grow(m)
    pu, pv = problem._processes
    mu, mv = min(m, pu.dimension), min(m, pv.dimension)
    blk = _assemble_block(pu.compressed(mu), pv.compressed(mv), pu.start_norm, pv.start_norm,
                          pv.basis_matrix(mv).conj().T @ problem._b)
    return blk, mu


def _small_general_problem(rng, n, f, spread, complex_):
    # A = diag in [1.5, 4] plus a perturbation of norm spread <= 1, |b|, |c|
    # <= 0.5: the field of values of A and of A + b c^* lies in Re z >= 0.25,
    # so both Ritz spectra stay inside the domain of f
    a = np.diag(rng.uniform(1.5, 4.0, n)) + make_general(rng, n, spread, complex_)
    b = rng.uniform(0.05, 0.5) * unit(rng, n, complex_)
    c = rng.uniform(0.05, 0.5) * unit(rng, n, complex_)
    return GeneralProblem(lambda x: a @ x, lambda x: a.conj().T @ x, b, c, f)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 10), m=st.integers(1, 10), gamma=st.one_of(st.none(), st.floats(0.01, 0.99)),
       spread=st.floats(0.0, 1.0), complex_=st.booleans(), seed=st.integers(0, 2**16))
@example(n=2, m=2, gamma=0.161404, spread=0.5, complex_=True, seed=2420)
def test_divided_difference_x_matches_the_block_path(n, m, gamma, spread, complex_, seed):
    # The whole-block path diagonalizes M (or iterates, for invsqrt past its
    # limit) and errs by about cond(M) eps |f(M)|, which can be many times
    # |X|; the bound charges 100 eps per unit of that conditioning.
    f = INVSQRT if gamma is None else FunctionSpec.inverse_power(gamma)
    problem = _small_general_problem(np.random.default_rng(seed), n, f, spread, complex_)
    x = problem.x(m)
    blk, mu = _whole_block(problem, m)
    cond = eigen_decompose(blk).conditioning
    limit = densefun._INVSQRT_COND_LIMIT if gamma is None else densefun._EIGVEC_COND_LIMIT
    assume(gamma is None or cond <= limit)  # no block path to compare with
    f_blk = eval_matrix_function(blk, f)
    assert x.dtype == f_blk.dtype and x.shape == (mu, blk.shape[0] - mu)
    slack = 1.0 + (cond if cond <= limit else 1.0)
    assert np.abs(x - f_blk[:mu, mu:]).max() <= 1e-13 * slack * np.abs(f_blk).max()


class TestDividedDifferencePath:
    def _problem(self, f, seed=3, n=12, complex_=False):
        return _small_general_problem(np.random.default_rng(seed), n, f, 0.8, complex_)

    def test_side_over_the_limit_takes_the_block_path(self, monkeypatch):
        x_new = self._problem(INVSQRT).x(8)
        blk, mu = _whole_block(self._problem(INVSQRT), 8)
        assert not np.array_equal(x_new, eval_matrix_function(blk, INVSQRT)[:mu, mu:])
        monkeypatch.setattr(densefun, "_INVSQRT_COND_LIMIT", 0.5)  # below any |P|_1 |P^-1|_1
        x = self._problem(INVSQRT).x(8)
        assert np.array_equal(x, eval_matrix_function(blk, INVSQRT)[:mu, mu:])
        assert np.abs(x - x_new).max() <= 1e-12 * np.abs(x).max()

    def test_side_over_the_limit_without_fallback_raises(self, monkeypatch):
        f = FunctionSpec.inverse_power(0.3)
        monkeypatch.setattr(densefun, "_EIGVEC_COND_LIMIT", 0.5)
        with pytest.raises(DomainError, match="ill-conditioned"):
            self._problem(f).x(8)

    @pytest.mark.parametrize("f", [INVSQRT, FunctionSpec.inverse_power(0.7)],
                             ids=lambda f: f.label())
    @pytest.mark.parametrize("complex_", [False, True])
    def test_one_core_matches_two(self, monkeypatch, f, complex_):
        xs = []
        for cores in (2, 1):
            monkeypatch.setattr(densefun, "_usable_cores", lambda: cores)
            xs.append(self._problem(f, complex_=complex_).x(10))
        assert np.abs(xs[0] - xs[1]).max() <= 1e-13 * np.abs(xs[0]).max()

    def test_other_kinds_keep_the_block_path(self):
        for f in (EXP, FunctionSpec.scaled_log(), FunctionSpec.inverse()):
            problem = self._problem(f)
            blk, mu = _whole_block(problem, 6)
            assert np.array_equal(problem.x(6), eval_matrix_function(blk, f)[:mu, mu:])


class TestRankK:
    def test_rank_one_equals_general_update(self):
        rng = np.random.default_rng(17)
        a = make_general(rng, 30)
        at = a.conj().T
        b, c = 0.5 * unit(rng, 30), 0.8 * unit(rng, 30)
        mod = LowRankModification(b.reshape(-1, 1), c.reshape(-1, 1))
        opts = SolveOptions(tol=1e-10, max_m=40)
        facs = rank_k_update(lambda x: a @ x, lambda x: at @ x, mod, EXP, opts)
        assert len(facs) == 1
        direct = general_update(lambda x: a @ x, lambda x: at @ x, b, c, EXP, opts)
        assert spectral_norm(facs[0].densify() - direct.densify()) <= 1e-11

    def test_edge_insertion_matches_dense(self):
        rng = np.random.default_rng(18)
        n = 120
        dense = np.zeros((n, n))
        for _ in range(3 * n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                dense[i, j] = dense[j, i] = 1.0
        i, j = 5, 80
        dense[i, j] = dense[j, i] = 0.0
        b = np.zeros((n, 2))
        c = np.zeros((n, 2))
        b[i, 0] = b[j, 1] = 1.0
        c[j, 0] = c[i, 1] = 1.0
        mod = LowRankModification(b, c, hermitian_flag=True)
        facs = rank_k_update(lambda x: dense @ x, lambda x: dense @ x, mod, EXP,
                             SolveOptions(tol=1e-8, max_m=90))
        assert len(facs) == 2
        total = sum(f.densify() for f in facs)
        ref = dense_update_reference(dense, b, c, EXP)
        assert spectral_norm(ref - total) <= 1e-6

    def test_zero_modification_gives_no_factors(self):
        rng = np.random.default_rng(19)
        a = make_general(rng, 10)
        mod = LowRankModification(np.ones((10, 2)), np.zeros((10, 2)))
        assert rank_k_update(lambda x: a @ x, lambda x: a.T @ x, mod, EXP) == []

    def test_svd_compression_collapses_redundant_columns(self):
        rng = np.random.default_rng(20)
        a = make_general(rng, 25)
        u = unit(rng, 25)
        v = unit(rng, 25)
        b = np.column_stack([u, 2.0 * u])  # rank 1 despite k = 2
        c = np.column_stack([v, v])
        mod = LowRankModification(b, c)
        facs = rank_k_update(lambda x: a @ x, lambda x: a.T @ x, mod, EXP,
                             SolveOptions(tol=1e-10, max_m=30))
        assert len(facs) == 1


class TestSplitHermitian:
    def test_single_unit_vector(self):
        n = 6
        e0 = np.zeros((n, 1))
        e0[0, 0] = 1.0
        terms = split_hermitian(LowRankModification(e0, e0, hermitian_flag=True))
        assert len(terms) == 1
        vec, sign = terms[0]
        assert sign == 1
        np.testing.assert_allclose(np.outer(vec, vec), np.outer(e0, e0), atol=1e-14)

    def test_edge_modification_eigenpairs(self):
        n, i, j = 8, 2, 5
        b = np.zeros((n, 2))
        c = np.zeros((n, 2))
        b[i, 0] = b[j, 1] = 1.0
        c[j, 0] = c[i, 1] = 1.0
        terms = split_hermitian(LowRankModification(b, c, hermitian_flag=True))
        assert [s for _, s in terms] == [1, -1]
        plus, minus = terms[0][0], terms[1][0]
        np.testing.assert_allclose(np.abs(plus[[i, j]]), np.sqrt(0.5), atol=1e-12)
        recon = np.outer(plus, plus) - np.outer(minus, minus)
        np.testing.assert_allclose(recon, b @ c.T, atol=1e-12)

    def test_reconstruction_of_random_rank3(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((15, 3))
        lam = np.array([2.0, -1.0, 0.5])
        d = (w * lam) @ w.T
        terms = split_hermitian(LowRankModification(w, w * lam, hermitian_flag=True))
        recon = sum(s * np.outer(v, v) for v, s in terms)
        assert spectral_norm(recon - d) <= 1e-12 * spectral_norm(d)
        signs = [s for _, s in terms]
        assert signs == sorted(signs, reverse=True)

    def test_rejects_non_hermitian(self):
        rng = np.random.default_rng(22)
        b = rng.standard_normal((10, 1))
        c = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="not Hermitian"):
            split_hermitian(LowRankModification(b, c))


class TestExtractDiagonal:
    def test_identity_coefficients_give_row_norms(self):
        rng = np.random.default_rng(23)
        a = make_hermitian(rng, 30)
        fac = HermitianProblem(lambda x: a @ x, unit(rng, 30), EXP).factor(6)
        fac_id = fac.__class__(fac.U, np.eye(6), fac.U, 6, True, [])
        np.testing.assert_allclose(extract_diagonal(fac_id),
                                   np.sum(np.abs(fac.U) ** 2, axis=1), atol=1e-14)

    def test_rank_one_coefficients(self):
        rng = np.random.default_rng(24)
        from funupdate import UpdateFactor

        u = np.linalg.qr(rng.standard_normal((20, 4)))[0]
        v = np.linalg.qr(rng.standard_normal((20, 4)))[0]
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        fac = UpdateFactor(u, np.outer(x, y.conj()), v, 4, True, [])
        np.testing.assert_allclose(extract_diagonal(fac), (u @ x) * np.conj(v @ y), atol=1e-13)

    def test_matches_dense_diagonal(self):
        rng = np.random.default_rng(25)
        a = make_general(rng, 200)
        fac = GeneralProblem(lambda x: a @ x, lambda x: a.T @ x,
                             unit(rng, 200), unit(rng, 200), EXP).factor(10)
        np.testing.assert_allclose(extract_diagonal(fac), np.diag(fac.densify()), atol=1e-13)


class TestComplexScalars:
    def test_hermitian_update_complex(self):
        rng = np.random.default_rng(26)
        n = 40
        a = make_hermitian(rng, n, scale=1.5, complex_=True)
        b = unit(rng, n, complex_=True)
        fac = hermitian_update(lambda x: a @ x, b, EXP, opts=SolveOptions(tol=1e-10, max_m=50))
        assert fac.converged
        ref = dense_update_reference(a, b.reshape(-1, 1), b.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-9
        np.testing.assert_allclose(extract_diagonal(fac).imag, np.diag(ref).imag, atol=1e-10)

    def test_general_update_complex(self):
        rng = np.random.default_rng(27)
        n = 35
        a = make_general(rng, n, complex_=True)
        b = unit(rng, n, complex_=True)
        c = unit(rng, n, complex_=True)
        fac = general_update(lambda x: a @ x, lambda x: a.conj().T @ x, b, c, EXP,
                             SolveOptions(tol=1e-11, max_m=45))
        ref = dense_update_reference(a, b.reshape(-1, 1), c.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-9

    def test_split_hermitian_complex(self):
        rng = np.random.default_rng(28)
        w = unit(rng, 12, complex_=True)
        z = unit(rng, 12, complex_=True)
        b = np.column_stack([w, z])
        c = np.column_stack([w, -z])
        d = np.outer(w, w.conj()) - np.outer(z, z.conj())
        terms = split_hermitian(LowRankModification(b, c, hermitian_flag=True))
        recon = sum(s * np.outer(v, v.conj()) for v, s in terms)
        assert spectral_norm(recon - d) <= 1e-12


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(lookahead_d=0)
        with pytest.raises(ValueError):
            SolveOptions(max_m=2, lookahead_d=2)
        with pytest.raises(ValueError):
            SolveOptions(batch=0)

    def test_modification_validation(self):
        with pytest.raises(ValueError):
            LowRankModification(np.ones((3, 2)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            LowRankModification(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            LowRankModification(np.array([[np.nan]]), np.array([[1.0]]))
