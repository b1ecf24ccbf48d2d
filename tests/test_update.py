import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funupdate import (DomainError, FunctionSpec, GeneralProblem, HermitianProblem,
                       LowRankModification, SolveOptions, UpdateFactor, dense_update_reference,
                       error_estimate, extract_diagonal, gen_laplace2d,
                       general_update, hermitian_update, rank_k_update,
                       spectral_norm, split_hermitian)
from funupdate import densefun, update
from funupdate.densefun import eigen_decompose, eval_matrix_function, triangular_block_function
from funupdate.update import _stopping_index
from funupdate.krylov import LanczosProcess
from helpers import make_general, make_hermitian, make_spd, tridiag_sparse, unit

EXP = FunctionSpec.exp()
INVSQRT = FunctionSpec.inverse_sqrt()
IDENT = FunctionSpec.polynomial([0.0, 1.0])


def _hermitian_x(a, b, f, m, sign=1):
    return HermitianProblem(lambda x: a @ x, b, f, sign).x(m)


class TestHermitianX:
    def test_linear_function_gives_rank_one(self):
        rng = np.random.default_rng(1)
        a = make_hermitian(rng, 20)
        x = _hermitian_x(a, 1.7 * unit(rng, 20), IDENT, 6)
        want = np.zeros((6, 6))
        want[0, 0] = 1.7**2
        np.testing.assert_allclose(x, want, atol=1e-14)

    def test_constant_function_gives_zero(self):
        rng = np.random.default_rng(2)
        a = make_hermitian(rng, 20)
        x = _hermitian_x(a, 2.0 * unit(rng, 20), FunctionSpec.polynomial([3.0]), 4)
        np.testing.assert_allclose(x, np.zeros((4, 4)), atol=1e-14)

    def test_scalar_exponential(self):
        x = _hermitian_x(np.array([[0.0]]), np.array([1.0]), EXP, 1)
        np.testing.assert_allclose(x, [[np.e - 1.0]], rtol=1e-14)
        x_down = _hermitian_x(np.array([[0.0]]), np.array([1.0]), EXP, 1, sign=-1)
        np.testing.assert_allclose(x_down, [[np.exp(-1.0) - 1.0]], rtol=1e-14)

    def test_sign_validation_before_any_matvec(self):
        calls = []

        def op(x):
            calls.append(1)
            return x

        for sign in (0, 2, -0.5):
            with pytest.raises(ValueError, match="sign"):
                hermitian_update(op, np.ones(4), EXP, sign=sign)
            with pytest.raises(ValueError, match="sign"):
                HermitianProblem(op, np.ones(4), EXP, sign)
        assert calls == []

    @pytest.mark.parametrize("f,closed_form", [
        (EXP, lambda d: np.exp(2.0) * np.expm1(d)),
        (INVSQRT, lambda d: np.expm1(-0.5 * np.log1p(d / 2.0)) / np.sqrt(2.0)),
        (FunctionSpec.inverse(), lambda d: -d / (2.0 * (2.0 + d))),
    ], ids=["exp", "invsqrt", "inverse"])
    def test_tiny_update_keeps_its_relative_accuracy(self, f, closed_form):
        # X = f(2 + 2e-10) - f(2): the difference of two evaluations loses
        # the 1e-6 of 2 + 2e-10 that rounding takes off; the divided
        # difference keeps it
        a = np.diag([2.0, 3.0, 5.0])
        b = np.sqrt(2e-10) * np.eye(3)[0]
        x = HermitianProblem(lambda v: a @ v, b, f).x(1)
        want = closed_form(float(np.linalg.norm(b)) ** 2)
        assert x.shape == (1, 1)
        assert abs(x[0, 0] - want) <= 1e-14 * abs(want)


class TestBlocks:
    def test_scalar_blocks(self):
        # n = 1: G = a, K = a + conj(c) b and the coupling |b||c|; with
        # f(x) = x^2 the (1,2) block of f([[G, E], [0, K]]) is G E + E K
        a = np.array([[2.0 + 1.0j]])
        b, c = np.array([1.5]), np.array([2.0j])
        problem = GeneralProblem(lambda x: a @ x, lambda x: a.conj().T @ x, b, c,
                                 FunctionSpec.polynomial([0.0, 0.0, 1.0]))
        problem.grow(1)
        g, k, coupling = problem._blocks(1, 1)
        np.testing.assert_allclose(g, [[2.0 + 1.0j]])
        np.testing.assert_allclose(k, [[2.0 - 2.0j]])
        assert coupling == 3.0
        np.testing.assert_allclose(problem.x(1), [[3.0 * (4.0 - 1.0j)]])
        want = (a + np.outer(b, c.conj())) @ (a + np.outer(b, c.conj())) - a @ a
        np.testing.assert_allclose(problem.factor(1).densify(), want, atol=1e-14)

    def test_orthogonal_start_leaves_pure_adjoint_block(self):
        # b orthogonal to the Krylov space of (A^*, c): K is H^*
        rng = np.random.default_rng(3)
        a = np.zeros((8, 8))
        a[:4, :4] = make_general(rng, 4)
        a[4:, 4:] = make_general(rng, 4)
        b, c = np.zeros(8), np.zeros(8)
        b[4:], c[:4] = unit(rng, 4), unit(rng, 4)
        problem = GeneralProblem(lambda x: a @ x, lambda x: a.T @ x, b, c, EXP)
        problem.grow(4)
        g, k, coupling = problem._blocks(4, 4)
        np.testing.assert_array_equal(k, problem._processes[1].compressed(4).conj().T)
        assert coupling == pytest.approx(1.0)

    def test_hermitian_case_reduces_to_the_hermitian_problem(self):
        # with c = b over Hermitian A both Arnoldi sides coincide, K becomes
        # G + |b|^2 e1 e1^T, and X equals the Hermitian problem's
        rng = np.random.default_rng(4)
        a = make_hermitian(rng, 30)
        b = unit(rng, 30) * 1.3
        m = 5
        problem = GeneralProblem(lambda x: a @ x, lambda x: a @ x, b, b, EXP)
        problem.grow(m)
        g, k, coupling = problem._blocks(m, m)
        bumped = g + np.linalg.norm(b) ** 2 * np.outer(np.eye(m)[0], np.eye(m)[0])
        np.testing.assert_allclose(k, bumped, atol=1e-12)
        assert coupling == pytest.approx(np.linalg.norm(b) ** 2)
        diff = HermitianProblem(lambda x: a @ x, b, EXP).x(m)
        assert spectral_norm(problem.x(m) - diff) <= 1e-10


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


# Lookahead estimates at the grid points 5, 10, 15, ... of benchmark solves
# (lookahead 2, max_m 400), to two digits.
# cli-update-general seed 9, tol 1e-6: 125 passes and 130 fails within 3 tol.
GENERAL_SEED9 = [
    6.7e-4, 4.1e-4, 3.1e-4, 2.6e-4, 2.3e-4, 1.7e-4, 1.7e-4, 1.5e-4, 1.2e-4, 1.2e-4,
    1.0e-4, 8.7e-5, 7.4e-5, 6.3e-5, 5.1e-5, 4.4e-5, 4.0e-5, 4.4e-5, 4.4e-5, 4.0e-5,
    3.0e-5, 2.0e-5, 8.4e-6, 1.9e-6, 8.7e-7, 1.1e-6, 7.0e-8, 5.5e-9, 8.2e-10, 1.6e-10,
    2.7e-11, 3.7e-12, 4.8e-13, 5.5e-14]
# cli-update-general seed 24, tol 1e-6: 125 fails at 3.0e-6, 130 at 1.2e-6,
# and no skipped point passes; 135 does.
GENERAL_SEED24 = [
    6.4e-4, 4.3e-4, 3.2e-4, 2.6e-4, 2.5e-4, 2.3e-4, 2.2e-4, 1.9e-4, 1.5e-4, 1.3e-4,
    9.7e-5, 9.2e-5, 8.4e-5, 6.2e-5, 4.6e-5, 4.2e-5, 3.2e-5, 2.6e-5, 1.6e-5, 7.4e-6,
    6.1e-6, 4.8e-6, 4.2e-6, 2.7e-6, 3.0e-6, 1.2e-6, 6.0e-8, 7.6e-9, 1.7e-9, 3.7e-10,
    5.2e-11, 6.0e-12, 8.0e-13, 1.2e-13, 2.2e-14]
# lib-hermitian seed 1, tol 9e-7: non-increasing.
LIB_HERMITIAN = [
    1.0e-3, 9.6e-4, 8.9e-4, 8.2e-4, 7.5e-4, 6.9e-4, 6.4e-4, 5.8e-4, 5.3e-4, 4.9e-4,
    4.4e-4, 4.0e-4, 3.7e-4, 3.3e-4, 3.0e-4, 2.7e-4, 2.4e-4, 2.1e-4, 1.9e-4, 1.7e-4,
    1.5e-4, 1.3e-4, 1.1e-4, 9.6e-5, 8.2e-5, 6.9e-5, 5.8e-5, 4.8e-5, 3.9e-5, 3.1e-5,
    2.3e-5, 1.7e-5, 1.1e-5, 7.5e-6, 7.4e-6, 5.8e-6, 4.5e-6, 3.4e-6, 2.6e-6, 1.9e-6,
    1.4e-6, 1.0e-6, 7.7e-7, 5.9e-7, 4.9e-7]


def _grid(batch=5, max_m=400, lookahead_d=2):
    last = max_m - lookahead_d
    return [*range(batch, last, batch), last]


def _replay(estimates, tol, grid=None):
    """The schedule on recorded estimates: (stop, converged, probed points)."""
    grid = grid or _grid()
    probed = []

    def estimate(c):
        assert c not in probed  # each grid point is probed at most once
        probed.append(c)
        return estimates[grid.index(c)]

    i, converged = _stopping_index(grid, estimate, tol)
    return grid[i], converged, probed


class TestCheckpointSchedule:
    @pytest.mark.parametrize("estimates, tol, stop, probes", [
        (GENERAL_SEED9, 1e-6, 125, 15), (GENERAL_SEED24, 1e-6, 135, 16),
        (LIB_HERMITIAN, 9e-7, 215, 15)], ids=["general-seed9", "general-seed24", "lib-hermitian"])
    def test_recorded_histories_stop_where_the_linear_rule_does(self, estimates, tol, stop,
                                                                probes):
        linear = 5 * next(k for k, e in enumerate(estimates, 1) if e <= tol)
        got, converged, probed = _replay(estimates, tol)
        assert converged and got == linear == stop
        assert len(probed) == probes < linear // 5

    def test_jump_onto_a_fail_near_tol_scans_the_skipped_points(self, monkeypatch):
        # 100 jumps to 130 (1.1e-6, within 3 tol); the pass at 125 is found in
        # order. Without the scan, 130 jumps on to 170 and bisects to 135.
        assert _replay(GENERAL_SEED9, 1e-6)[2][-7:] == [100, 130, 105, 110, 115, 120, 125]
        monkeypatch.setattr(update, "_NEAR_TOL", 0.0)
        assert _replay(GENERAL_SEED9, 1e-6)[0] == 135

    def test_jump_onto_a_far_fail_keeps_jumping(self):
        assert _replay(LIB_HERMITIAN, 9e-7)[2] == [5, 10, 15, 20, 30, 40, 55, 75, 100, 130, 170,
                                                    225, 195, 210, 215]

    def test_last_grid_point_failing_is_not_converged(self):
        grid = _grid(max_m=40)
        assert _replay([1e-3] * len(grid), 1e-6, grid)[:2] == (38, False)


_UNITS_OF_TOL = st.one_of(st.integers(0, 16).map(lambda k: k / 4), st.floats(4.0, 1e6))


@settings(deadline=None, max_examples=300)
@given(data=st.data(), batch=st.integers(1, 7), max_m=st.integers(3, 300),
       lookahead_d=st.integers(1, 2))
def test_schedule_on_non_increasing_estimates_stops_at_the_first_pass(data, batch, max_m,
                                                                      lookahead_d):
    # estimates in units of tol, exact multiples of tol/4 in and near the
    # 3 tol band
    grid = _grid(batch, max_m, lookahead_d)
    ests = sorted(data.draw(st.lists(_UNITS_OF_TOL, min_size=len(grid), max_size=len(grid))),
                  reverse=True)
    first = next((c for c, e in zip(grid, ests) if e <= 1.0), None)
    stop, converged, _ = _replay(ests, 1.0, grid)
    assert (stop, converged) == ((first, True) if first is not None else (grid[-1], False))


@settings(deadline=None, max_examples=300)
@given(data=st.data(), batch=st.integers(1, 7), max_m=st.integers(3, 300))
def test_schedule_on_any_estimates_returns_a_probed_verdict(data, batch, max_m):
    grid = _grid(batch, max_m)
    ests = data.draw(st.lists(_UNITS_OF_TOL, min_size=len(grid), max_size=len(grid)))
    stop, converged, probed = _replay(ests, 1.0, grid)
    assert stop in probed
    if converged:
        assert ests[grid.index(stop)] <= 1.0
    else:
        assert stop == grid[-1] and ests[-1] > 1.0


class TestStoppingRule:
    @staticmethod
    def _problem():
        a = gen_laplace2d(20)
        b = 0.1 * unit(np.random.default_rng(0), a.n)
        return HermitianProblem(a.matvec, b, INVSQRT)

    def test_stop_equals_the_linear_rule_and_reports_the_overshoot(self):
        opts = SolveOptions(tol=1e-10)
        fac = update._solve(self._problem(), opts)
        problem = self._problem()
        linear = [(c, error_estimate(problem.x(c), problem.x(c + 2))) for c in range(5, 100, 5)]
        stop = next(c for c, e in linear if e <= opts.tol)
        assert fac.converged and fac.m == stop + 2
        # the history is sorted, ends at the returned checkpoint, and holds
        # the linear rule's estimates bit for bit at the probed points
        ms = [m for m, _ in fac.estimate_history]
        assert ms == sorted(set(ms)) and ms[-1] == stop and len(ms) < len(linear)
        assert all((m, e) in linear for m, e in fac.estimate_history)
        assert fac.basis_dimension > fac.m  # a jump grew the basis past the stop
        want = self._problem().factor(stop + 2)
        for name in ("U", "X", "V"):
            assert np.array_equal(getattr(fac, name), getattr(want, name)), name

    def test_exhaustion_found_by_a_jump_is_bisected_back_to_the_linear_stop(self):
        # Krylov dimension 50 with estimates stuck at rounding far above tol:
        # 40 jumps to 55, whose growth exhausts the space; 45 is no exact
        # checkpoint (45 + 2 < 50), 50 is, as for the linear rule
        n = 50
        a = np.diag(np.linspace(0.0, 40.0, n))
        b = np.ones(n) / np.sqrt(n)
        fac = hermitian_update(lambda x: a @ x, b, EXP, opts=SolveOptions(tol=1e-6))
        ms = [m for m, _ in fac.estimate_history]
        assert ms == [5, 10, 15, 20, 30, 40, 45, 50] and fac.estimate_history[-1][1] == 0.0
        assert fac.converged and fac.m == fac.basis_dimension == n
        assert fac.U.shape == (n, n) and fac.X.shape == (n, n)
        ref = dense_update_reference(a, b.reshape(-1, 1), b.reshape(-1, 1), EXP)
        assert spectral_norm(ref - fac.densify()) <= 1e-12 * spectral_norm(ref)

    def test_fixed_size_factor_reports_its_basis(self):
        problem = self._problem()
        problem.grow(12)
        assert (problem.factor(6).m, problem.factor(6).basis_dimension) == (6, 12)
        assert UpdateFactor(np.eye(3), np.eye(3), np.eye(3), 3, True).basis_dimension == 3


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


@settings(deadline=None, max_examples=120)
@given(n=st.integers(2, 30), m=st.integers(1, 12), f=st.sampled_from(STOPPING_FUNCTIONS),
       sign=st.sampled_from([1, -1]), b_norm=st.floats(0.05, 0.55), seed=st.integers(0, 2**16))
def test_hermitian_x_matches_the_difference_of_two_evaluations(n, m, f, sign, b_norm, seed):
    # spectrum of A in [0.5, 5] and |b|^2 <= 0.3, so T and T + sign |b|^2 e1 e1^*
    # stay inside the domain of every kind; the difference of the two
    # evaluations is the reference, whose rounding is eps |f(T)| per entry
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 5.0, n)) @ q.T
    problem = HermitianProblem(lambda x: a @ x, b_norm * unit(rng, n), f, sign)
    x = problem.x(m)
    t = problem._processes[0].compressed(x.shape[0])
    bumped = t.copy()
    bumped[0, 0] += sign * b_norm**2
    f_t, f_bumped = eval_matrix_function(t, f), eval_matrix_function(bumped, f)
    ref = f_bumped - f_t
    assert x.dtype == ref.dtype
    scale = max(np.abs(f_t).max(), np.abs(f_bumped).max())
    assert np.abs(x - ref).max() <= 1e-13 * x.shape[0] * scale


def _whole_block(problem, m):
    """The block compression [[G, E], [0, K]] of a problem at m and the size of G."""
    problem.grow(m)
    g, k, coupling = problem._blocks(*(min(m, p.dimension) for p in problem._processes))
    mu = g.shape[0]
    blk = np.zeros((mu + k.shape[0],) * 2, dtype=np.result_type(g, k))
    blk[:mu, :mu], blk[mu:, mu:], blk[0, mu] = g, k, coupling
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
        # non-Hermitian sides: only invsqrt and invpower take divided differences
        for f in (EXP, FunctionSpec.scaled_log(), FunctionSpec.inverse(), FunctionSpec.resolvent(-1.0)):
            problem = self._problem(f)
            blk, mu = _whole_block(problem, 6)
            assert np.array_equal(problem.x(6), eval_matrix_function(blk, f)[:mu, mu:])

    def test_hermitian_problem_takes_divided_differences_but_for_polynomials(self):
        rng = np.random.default_rng(8)
        a = make_hermitian(rng, 20) + 2.0 * np.eye(20)
        b = 0.4 * unit(rng, 20)
        for f in STOPPING_FUNCTIONS:
            problem = HermitianProblem(lambda x: a @ x, b, f)
            blk, mu = _whole_block(problem, 6)
            x_dd = triangular_block_function(blk[:mu, :mu], blk[mu:, mu:], blk[0, mu], f)
            assert (x_dd is None) == (f.kind == "polynomial"), f.kind
            want = x_dd if x_dd is not None else eval_matrix_function(blk, f)[:mu, mu:]
            assert np.array_equal(problem.x(6), want), f.kind


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

    def test_general_rank_three_matches_dense(self):
        rng = np.random.default_rng(30)
        n = 5
        a = make_general(rng, n)
        b, c = 0.3 * rng.standard_normal((n, 3)), 0.3 * rng.standard_normal((n, 3))
        facs = rank_k_update(lambda x: a @ x, lambda x: a.T @ x, LowRankModification(b, c),
                             EXP, SolveOptions(tol=1e-12, max_m=20))
        assert len(facs) == 3 and all(f.converged for f in facs)
        ref = dense_update_reference(a, b, c, EXP)
        assert spectral_norm(sum(f.densify() for f in facs) - ref) <= 1e-11 * spectral_norm(ref)


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

    def test_rejects_skew_modification_orthogonal_to_a_probe(self):
        # D = u v^* - v u^* is skew with |D|_F near 130; u and v are
        # orthogonal to a fixed vector p, so D p = D^* p = 0 and no test of
        # D on p can see that D is not Hermitian
        n = 100
        rng = np.random.default_rng(29)
        p = np.cos(1.7 * np.arange(n)) + 0.3
        u, v = (w - p * (p @ w) / (p @ p) for w in rng.standard_normal((2, n)))
        mod = LowRankModification(np.column_stack([u, -v]), np.column_stack([v, u]),
                                  hermitian_flag=True)
        assert np.linalg.norm(mod.B @ mod.C.T) > 100.0
        with pytest.raises(ValueError, match="not Hermitian"):
            split_hermitian(mod)
        a = gen_laplace2d(10)
        with pytest.raises(ValueError, match="not Hermitian"):
            rank_k_update(a.matvec, a.matvec, mod, EXP)

    def test_cancelling_factors_are_split_to_their_rounding(self):
        # D = u u^* - v v^* with v = u + 1e-9 w: |B|_F |C|_F is about 1e9 |D|_F,
        # so S carries rounding far above tol |S|_F; D = u u^* - u u^* is zero
        rng = np.random.default_rng(31)
        u, w = rng.standard_normal((2, 50))
        eps = np.finfo(float).eps
        for v, rank in ((u + 1e-9 * w, 2), (u, 0)):
            b, c = np.column_stack([u, v]), np.column_stack([u, -v])
            terms = split_hermitian(LowRankModification(b, c, hermitian_flag=True))
            assert len(terms) == rank
            rebuilt = sum((sgn * np.outer(vec, vec) for vec, sgn in terms), np.zeros((50, 50)))
            assert np.linalg.norm(rebuilt - b @ c.T) <= 50 * eps * np.linalg.norm(b) * np.linalg.norm(c)


def _random_factor(rng, n, k, complex_):
    z = rng.standard_normal((n, k))
    return z + 1j * rng.standard_normal((n, k)) if complex_ else z


@settings(deadline=None, max_examples=200)
@given(k=st.integers(1, 4), extra=st.integers(0, 8), complex_=st.booleans(),
       seed=st.integers(0, 2**16))
@example(k=3, extra=0, complex_=False, seed=0)  # n = k: Q is square
@example(k=4, extra=2, complex_=True, seed=1)  # k < n < 2k: Q is square
def test_split_hermitian_rebuilds_hermitian_and_rejects_general(k, extra, complex_, seed):
    n = min(k + extra, 3 * k)
    rng = np.random.default_rng(seed)
    # D = W Lambda W^* with orthonormal W and |lambda_i| in [0.5, 2]: every
    # eigenvalue is far above the split's cut, so D is rebuilt in full
    w, _ = np.linalg.qr(_random_factor(rng, n, k, complex_))
    lam = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
    d = (w * lam) @ w.conj().T
    terms = split_hermitian(LowRankModification(w * lam, w, hermitian_flag=True))
    assert len(terms) == k
    rebuilt = sum(sgn * np.outer(vec, vec.conj()) for vec, sgn in terms)
    assert np.linalg.norm(rebuilt - d) <= 1e-12 * np.linalg.norm(d)
    signs = [sgn for _, sgn in terms]
    assert signs == sorted(signs, reverse=True)
    assert signs.count(1) == np.count_nonzero(lam > 0)

    b, c = _random_factor(rng, n, k, complex_), _random_factor(rng, n, k, complex_)
    general = b @ c.conj().T
    assume(np.linalg.norm(general - general.conj().T) > 1e-6 * np.linalg.norm(general))
    with pytest.raises(ValueError, match="not Hermitian"):
        split_hermitian(LowRankModification(b, c, hermitian_flag=True))


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

    @pytest.mark.parametrize("n", [update._DIAGONAL_BLOCK_ROWS - 1, 2 * update._DIAGONAL_BLOCK_ROWS,
                                   2 * update._DIAGONAL_BLOCK_ROWS + 1],
                             ids=["below-a-block", "two-blocks", "above-two-blocks"])
    @pytest.mark.parametrize("kind", ["hermitian", "general", "complex"])
    def test_row_blocks_equal_the_unblocked_formula(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == "general":
            a, a_adj = tridiag_sparse(n, -1.3, 2.5, -0.7), tridiag_sparse(n, -0.7, 2.5, -1.3)
            problem = GeneralProblem(a.matvec, a_adj.matvec, unit(rng, n), unit(rng, n), EXP)
        else:
            a = tridiag_sparse(n, -1.0, 2.5, -1.0)
            problem = HermitianProblem(a.matvec, unit(rng, n, complex_=kind == "complex"), EXP)
        fac = problem.factor(12)
        u, v = np.ascontiguousarray(fac.U), np.ascontiguousarray(fac.V)
        # (u @ X) * v.conj() as numpy forms it on arrays this large: in the
        # temporary v.conj(), that is as v.conj() * (u @ X)
        want = np.sum(np.multiply(v.conj(), u @ fac.X), axis=1)
        got = extract_diagonal(fac)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("hermitian", [True, False], ids=["V-is-U", "V-apart"])
    def test_memory_is_a_few_row_blocks(self, hermitian):
        rng = np.random.default_rng(28)
        n, m = 20_000, 100
        u = rng.standard_normal((n, m))
        v = u if hermitian else rng.standard_normal((n, m))
        fac = UpdateFactor(u, rng.standard_normal((m, m)), v, m, True)
        _, peak = _traced_peak(lambda: extract_diagonal(fac))
        assert peak < n * m * 8 / 4


def _traced_peak(run) -> tuple:
    """``run()`` and the peak bytes numpy and Python allocated while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFactorViews:
    """Factors are read-only views of the basis buffers, not copies."""

    def test_factor_is_read_only(self):
        rng = np.random.default_rng(29)
        a = make_general(rng, 30)
        hermitian = hermitian_update(lambda x: a @ x + a.T @ x, unit(rng, 30), EXP)
        general = GeneralProblem(lambda x: a @ x, lambda x: a.T @ x,
                                 unit(rng, 30), unit(rng, 30), EXP).factor(5)
        assert hermitian.V is hermitian.U and general.V is not general.U
        for basis in (hermitian.U, general.U, general.V):
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0

    def test_factor_outlives_capacity_doubling_and_promotion(self):
        rng = np.random.default_rng(30)
        a = make_hermitian(rng, 100)
        calls = [0]

        def apply(x):  # real values, returned as complex from the 20th product on
            calls[0] += 1
            y = a @ x
            return y.astype(complex) if calls[0] >= 20 else y

        problem = HermitianProblem(apply, unit(rng, 100), EXP)
        fac = problem.factor(5)
        u, x = fac.U.copy(), fac.X.copy()
        problem.grow(40)  # capacity 32 -> 64, and float64 -> complex128 at step 20
        assert problem.factor(40).U.dtype == complex
        assert fac.U.dtype == u.dtype == np.float64
        assert np.array_equal(fac.U, u) and np.array_equal(fac.X, x) and fac.V is fac.U

    def test_solve_and_extraction_stay_near_the_basis_buffer(self):
        # The peak is the buffer's last doubling (old and new, 1.5 times the
        # final buffer) plus vectors of length n. This solve builds 102 of
        # 128 columns, so a factor that copied the basis, or an extraction
        # that held an n x m product, would add 0.8 times the buffer.
        a = gen_laplace2d(60)
        b = np.full(a.n, 1.0 / 60)

        def solve_and_extract():
            fac = hermitian_update(a.matvec, b, INVSQRT, opts=SolveOptions(tol=1e-8, max_m=300))
            return fac, extract_diagonal(fac)

        (fac, _), peak = _traced_peak(solve_and_extract)
        proc = LanczosProcess(a.matvec, b)
        proc.advance(fac.basis_dimension)
        assert peak <= 1.6 * proc._q.nbytes


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

    def test_vectors_are_columns(self):
        rng = np.random.default_rng(22)
        b, c = rng.standard_normal(5), rng.standard_normal(5)
        flat = LowRankModification(b, c)
        cols = LowRankModification(b.reshape(-1, 1), c.reshape(-1, 1))
        assert flat.k == 1 and flat.B.shape == (5, 1)
        np.testing.assert_array_equal(flat.B, cols.B)
        np.testing.assert_array_equal(flat.C, cols.C)
        assert LowRankModification(np.ones(5), np.ones(5)).B.shape == (5, 1)
        with pytest.raises(ValueError, match="equal shape"):
            LowRankModification(np.ones(5), np.ones(4))
