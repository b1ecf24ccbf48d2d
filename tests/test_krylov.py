import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funupdate import (DomainError, MatrixMarketError, NonFiniteOperatorError, OracleScaleError,
                       arnoldi, as_operator, gen_laplace2d, lanczos, spectral_norm)
from funupdate.krylov import ArnoldiProcess, LanczosProcess, _norm
from helpers import make_hermitian, tridiag_sparse, unit


def relation_residual(apply_a, dec):
    """|| A U - U G - beta u_next e_m^* ||."""
    u = dec.basis
    au = np.column_stack([apply_a(u[:, j]) for j in range(u.shape[1])])
    rhs = u @ dec.compressed
    if dec.next_vector is not None:
        rhs[:, -1] += dec.next_norm * dec.next_vector
    return spectral_norm(au - rhs)


class TestLanczos:
    def test_identity_breaks_down_immediately(self):
        dec = lanczos(lambda x: x, np.array([0.3, 0.4, 0.5]), 3)
        assert dec.breakdown
        assert dec.m == 1
        np.testing.assert_allclose(dec.compressed, [[1.0]])
        assert dec.next_norm <= 1e-14

    def test_two_by_two_hand_value(self):
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dec = lanczos(lambda x: np.array([1.0, 2.0]) * x, b, 2)
        np.testing.assert_allclose(dec.compressed, [[1.5, 0.5], [0.5, 1.5]], atol=1e-14)
        np.testing.assert_allclose(dec.basis[:, 0], b)

    def test_full_reorth_invariants(self):
        rng = np.random.default_rng(21)
        a = make_hermitian(rng, 100, scale=2.0)
        dec = lanczos(lambda x: a @ x, rng.standard_normal(100), 20, reorth="full")
        u = dec.basis
        assert spectral_norm(u.conj().T @ u - np.eye(20)) <= 1e-12
        assert relation_residual(lambda x: a @ x, dec) <= 1e-10 * spectral_norm(a)
        np.testing.assert_allclose(u[:, 0], dec.basis[:, 0])

    def test_projection_identity(self):
        rng = np.random.default_rng(22)
        a = make_hermitian(rng, 300, scale=1.0)
        b = rng.standard_normal(300)
        dec = lanczos(lambda x: a @ x, b, 25, reorth="full")
        proj = dec.basis.conj().T @ a @ dec.basis
        assert spectral_norm(proj - dec.compressed) <= 1e-12

    def test_shift_consistency(self):
        rng = np.random.default_rng(23)
        a = make_hermitian(rng, 60)
        b = rng.standard_normal(60)
        sigma = float(rng.standard_normal())
        base = lanczos(lambda x: a @ x, b, 12)
        shifted = lanczos(lambda x: a @ x + sigma * x, b, 12)
        assert spectral_norm(shifted.compressed - base.compressed - sigma * np.eye(12)) <= 1e-12
        assert spectral_norm(shifted.basis - base.basis) <= 1e-12

    def test_first_column_is_normalized_start(self):
        rng = np.random.default_rng(24)
        b = 3.7 * rng.standard_normal(30)
        dec = lanczos(lambda x: 2.0 * x + np.roll(x, 1) + np.roll(x, -1), b, 5)
        np.testing.assert_allclose(dec.basis[:, 0], b / np.linalg.norm(b))
        assert dec.start_norm == pytest.approx(np.linalg.norm(b))

    def test_errors(self):
        with pytest.raises(ValueError):
            lanczos(lambda x: x, np.zeros(4), 2)
        with pytest.raises(ValueError):
            lanczos(lambda x: x, np.ones(4), 0)

    def test_complex_hermitian_operator(self):
        rng = np.random.default_rng(25)
        a = make_hermitian(rng, 40, complex_=True)
        dec = lanczos(lambda x: a @ x, unit(rng, 40, complex_=True), 10)
        assert dec.compressed.dtype == np.float64  # tridiagonal data stays real
        assert relation_residual(lambda x: a @ x, dec) <= 1e-10

    def test_breakdown_coefficients_replay_bitwise(self):
        # rank-deficient operator forces early breakdown; a repeated run
        # must agree on every recurrence coefficient
        rng = np.random.default_rng(44)
        q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
        a = q @ np.diag([3.0, 2.0, 1.0]) @ q.T
        b = q @ np.array([1.0, 1.0, 1.0])

        runs = []
        for _ in range(2):
            proc = LanczosProcess(lambda x: a @ x, b, reorth="none")
            proc.advance(10)
            assert proc.breakdown and proc.dimension == 3
            assert proc.decomposition().next_vector is None
            runs.append((proc.compressed(), proc.decomposition().next_norm))
        assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("m", [33, 65])
    def test_plain_recurrence_on_stored_basis(self, m):
        # u_j and u_{j-1} come from the basis store, also right after it grows;
        # the three-term relation holds to rounding even where the plain
        # basis loses orthogonality
        rng = np.random.default_rng(45)
        a = make_hermitian(rng, 120)
        b = rng.standard_normal(120)
        dec = lanczos(lambda x: a @ x, b, m, reorth="none")
        longer = lanczos(lambda x: a @ x, b, 70, reorth="none")
        assert dec.basis.shape == (120, m)
        assert np.array_equal(dec.basis, longer.basis[:, :m])
        assert np.array_equal(dec.next_vector, longer.basis[:, m])
        assert relation_residual(lambda x: a @ x, dec) <= 1e-10 * spectral_norm(a)


class TestArnoldi:
    def test_hermitian_input_gives_tridiagonal(self):
        rng = np.random.default_rng(31)
        a = make_hermitian(rng, 50)
        dec = arnoldi(lambda x: a @ x, rng.standard_normal(50), 12)
        h = dec.compressed
        below = np.tril(h, -2)
        above = np.triu(h, 2)
        assert spectral_norm(below) + spectral_norm(above) <= 1e-12
        assert spectral_norm(h - h.conj().T) <= 1e-12

    def test_nilpotent_shift_breakdown(self):
        n = 4
        a = np.diag(np.ones(n - 1), 1)  # ones on the superdiagonal
        b = np.zeros(n)
        b[-1] = 1.0
        dec = arnoldi(lambda x: a @ x, b, 4)
        assert dec.breakdown and dec.m == 4
        expect = np.zeros((4, 4))
        expect[np.arange(4), 3 - np.arange(4)] = 1.0  # e4, e3, e2, e1
        np.testing.assert_allclose(np.abs(dec.basis), expect, atol=1e-14)

    def test_random_invariants(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((100, 100)) / 10.0
        dec = arnoldi(lambda x: a @ x, rng.standard_normal(100), 15)
        u = dec.basis
        assert spectral_norm(u.conj().T @ u - np.eye(15)) <= 1e-12
        assert relation_residual(lambda x: a @ x, dec) <= 1e-10 * spectral_norm(a)
        assert spectral_norm(np.tril(dec.compressed, -2)) == 0.0  # exact Hessenberg zeros


def banded_operator(n, hermitian, complex_):
    """Sparse banded operator with a log-spaced diagonal, a spectrum on
    which Krylov bases lose orthogonality quickly without reorthogonalization."""
    d = np.logspace(-3, 1, n)
    c = 0.4 + 0.3j if complex_ else 0.4
    if hermitian:
        return lambda x: d * x + c * np.roll(x, 1) + np.conj(c) * np.roll(x, -1)
    e = 0.2 - 0.5j if complex_ else -0.7
    return lambda x: d * x + c * np.roll(x, 1) + e * np.roll(x, -3)


KERNEL_CASES = [(h, c) for h in (True, False) for c in (False, True)]


class TestBasisKernel:
    @pytest.mark.parametrize("hermitian,complex_", KERNEL_CASES)
    def test_orthogonality_at_scale(self, hermitian, complex_):
        n, m = 2000, 150
        rng = np.random.default_rng(51)
        op = banded_operator(n, hermitian, complex_)
        b = unit(rng, n, complex_=complex_)
        runs = [arnoldi(op, b, m)] + ([lanczos(op, b, m)] if hermitian else [])
        for dec in runs:
            u = dec.basis
            assert dec.m == m
            assert spectral_norm(u.conj().T @ u - np.eye(m)) <= 1e-12
            assert relation_residual(op, dec) <= 1e-10

    @pytest.mark.parametrize("m", [31, 32, 33, 65])
    def test_growth_across_capacity_boundaries(self, m):
        rng = np.random.default_rng(52)
        a = make_hermitian(rng, 120)
        b = rng.standard_normal(120)
        for run in (lambda k: lanczos(lambda x: a @ x, b, k),
                    lambda k: arnoldi(lambda x: a @ x, b, k)):
            dec, longer = run(m), run(70)
            assert np.array_equal(dec.basis, longer.basis[:, :m])
            assert np.array_equal(dec.compressed, longer.compressed[:m, :m])
            assert np.array_equal(dec.next_vector, longer.basis[:, m])
            assert spectral_norm(dec.basis.T @ dec.basis - np.eye(m)) <= 1e-12
            assert relation_residual(lambda x: a @ x, dec) <= 1e-10

    def test_real_start_promotes_to_complex_mid_run(self):
        # a real tridiagonal operator with one imaginary Hermitian coupling
        # between nodes 6 and 7: the Krylov vectors of e_1 stay real for the
        # first six steps and turn complex after that
        n = 40
        a = np.diag(np.linspace(1.0, 3.0, n)).astype(complex)
        a += np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
        a[6, 7], a[7, 6] = 0.5j, -0.5j
        b = np.zeros(n)
        b[0] = 1.0
        for run in (lanczos, arnoldi):
            dec = run(lambda x: a @ x, b, 20)
            ref = run(lambda x: a @ x, b.astype(complex), 20)
            u = dec.basis
            assert np.iscomplexobj(u)
            assert not np.any(u[:, :6].imag) and np.any(u[:, 10].imag)
            assert spectral_norm(u.conj().T @ u - np.eye(20)) <= 1e-12
            assert relation_residual(lambda x: a @ x, dec) <= 1e-10
            assert spectral_norm(u - ref.basis) <= 1e-12
            assert spectral_norm(dec.compressed - ref.compressed) <= 1e-12

    @pytest.mark.parametrize("process", [LanczosProcess, ArnoldiProcess])
    def test_views_are_read_only(self, process):
        a = gen_laplace2d(10)
        b = np.cos(np.arange(a.n))
        proc, twin = process(a.matvec, b), process(a.matvec, b)
        proc.advance(5)
        twin.advance(5)
        dec = proc.decomposition()
        for view in (dec.basis, dec.next_vector, proc.basis_matrix()):
            with pytest.raises(ValueError, match="read-only"):
                view *= 2.0
        proc.advance(3)
        twin.advance(3)
        assert np.array_equal(proc.compressed(), twin.compressed())
        assert np.array_equal(proc.basis_matrix(), twin.basis_matrix())

    @pytest.mark.parametrize("complex_", [False, True])
    def test_lanczos_matches_arnoldi_on_hermitian(self, complex_):
        rng = np.random.default_rng(53)
        n, m = 500, 60
        op = banded_operator(n, True, complex_)
        b = unit(rng, n, complex_=complex_)
        lan, arn = lanczos(op, b, m), arnoldi(op, b, m)
        # fully reorthogonalized Lanczos runs the recurrence and corrects
        # only measured loss: the same process to rounding, not bit for bit
        assert spectral_norm(lan.basis - arn.basis) <= 1e-12
        h = arn.compressed.real
        sub = np.diagonal(h, -1)
        mirrored = np.diag(np.diagonal(h)) + np.diag(sub, 1) + np.diag(sub, -1)
        assert spectral_norm(lan.compressed - mirrored) <= 1e-12
        assert abs(lan.next_norm - arn.next_norm) <= 1e-12
        assert spectral_norm(np.triu(arn.compressed, 2)) <= 1e-12


@st.composite
def hermitian_problems(draw):
    """A dense Hermitian operator Q diag(lambda) Q^* with a clustered or a
    log-spaced spectrum, a starting vector and a step count up to n."""
    n = draw(st.integers(20, 300))
    complex_ = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.floats(-3, 3))
    if draw(st.booleans()):
        centers = rng.uniform(-1.0, 1.0, draw(st.integers(1, 6)))
        spread = 10.0 ** -draw(st.floats(2, 10))
        lam = centers[rng.integers(len(centers), size=n)] + spread * rng.standard_normal(n)
    else:
        lam = np.logspace(-draw(st.floats(1, 10)), 0, n)
        lam *= rng.choice([-1.0, 1.0], n) if draw(st.booleans()) else 1.0
    z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    q, _ = np.linalg.qr(z)
    a = (q * (scale * lam)) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0)
    return a, b, draw(st.integers(1, n))


class TestMeasuredReorthogonalization:
    """Full reorthogonalization corrects only the loss its probe measures;
    the basis stays orthonormal where the plain recurrence loses it."""

    @settings(deadline=None, max_examples=60)
    @given(hermitian_problems())
    def test_orthonormal_basis_and_krylov_relation(self, case):
        # Arnoldi runs the CGS2 step on every step, so it also guards the
        # second pass, which the probed Lanczos steps rarely need
        a, b, m = case
        for run in (lanczos, arnoldi):
            dec = run(lambda x: a @ x, b, m)
            u = dec.basis
            assert spectral_norm(u.conj().T @ u - np.eye(dec.m)) <= 1e-12
            assert relation_residual(lambda x: a @ x, dec) <= 1e-10 * spectral_norm(a)

    def test_laplacian_where_plain_lanczos_fails(self):
        a = gen_laplace2d(60)
        b = np.random.default_rng(61).standard_normal(a.n)
        plain = lanczos(a.matvec, b, 300, reorth="none").basis
        assert spectral_norm(plain.T @ plain - np.eye(300)) > 0.5
        dec = lanczos(a.matvec, b, 300)
        u = dec.basis
        assert dec.m == 300
        assert spectral_norm(u.T @ u - np.eye(300)) <= 1e-12
        assert relation_residual(a.matvec, dec) <= 1e-10 * 8.0  # ||A|| < 8


PROCESSES = [
    lambda op, b: LanczosProcess(op, b, reorth="none"),
    lambda op, b: LanczosProcess(op, b, reorth="full"),
    lambda op, b: ArnoldiProcess(op, b),
]
PROCESS_IDS = ["lanczos-none", "lanczos-full", "arnoldi"]


class TestSizeRange:
    @pytest.mark.parametrize("make", PROCESSES, ids=PROCESS_IDS)
    @pytest.mark.parametrize("m", [-1, 4])
    def test_outside_the_dimension_is_rejected(self, make, m):
        # m = 4 is dimension + 1: the buffers hold spare capacity there
        proc = make(np.diag(np.arange(1.0, 51.0)), np.ones(50))
        proc.advance(3)
        for read in (proc.basis_matrix, proc.compressed, proc.decomposition):
            with pytest.raises(ValueError, match=f"m = {m} is outside .*3"):
                read(m)

    @pytest.mark.parametrize("make", PROCESSES, ids=PROCESS_IDS)
    def test_zero_steps_are_empty(self, make):
        proc = make(np.diag(np.arange(1.0, 51.0)), np.ones(50))
        proc.advance(3)
        assert proc.basis_matrix(0).shape == (50, 0)
        assert proc.compressed(0).shape == (0, 0)
        with pytest.raises(ValueError, match="m = 0 is outside 1..3"):
            proc.decomposition(0)
        assert proc.compressed(3).shape == (3, 3) and proc.basis_matrix().shape == (50, 3)


def nan_at_matvec(k, bad=np.nan):
    """Diagonal operator whose k-th application returns a non-finite entry."""
    calls = [0]
    d = np.linspace(1.0, 2.0, 50)

    def apply(x):
        calls[0] += 1
        y = d * x
        if calls[0] == k:
            y[7] = bad
        return y

    return apply


class TestNonFiniteOperator:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("make", [
        lambda op, b: LanczosProcess(op, b, reorth="none"),
        lambda op, b: LanczosProcess(op, b, reorth="full"),
        lambda op, b: ArnoldiProcess(op, b),
    ], ids=["lanczos-none", "lanczos-full", "arnoldi"])
    def test_names_process_and_step(self, make, bad):
        proc = make(nan_at_matvec(4, bad), np.ones(50))
        with pytest.raises(NonFiniteOperatorError) as info, np.errstate(invalid="ignore"):
            proc.advance(10)
        assert info.value.step == 4
        assert info.value.process == type(proc).__name__
        assert f"{type(proc).__name__} step 4" in str(info.value)
        assert proc.dimension == 3

    def test_plain_lanczos_fails_fast(self):
        with pytest.raises(NonFiniteOperatorError):
            lanczos(nan_at_matvec(4), np.ones(50), 10, reorth="none")

    @pytest.mark.parametrize("make", [
        lambda op, b: LanczosProcess(op, b, reorth="none"),
        lambda op, b: LanczosProcess(op, b, reorth="full"),
        lambda op, b: ArnoldiProcess(op, b),
    ], ids=["lanczos-none", "lanczos-full", "arnoldi"])
    def test_finite_output_beyond_1e154_is_not_an_overflow(self, make):
        # |A u| is about 1.5e308: its sum of squares overflows, its norm does not
        a = np.diag([1.5e308, -1.5e308])
        proc = make(a, np.ones(2))
        with np.errstate(over="raise"):
            proc.advance(2)
        h = proc.compressed()
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(h).real), [-1.5e308, 1.5e308],
                                   rtol=1e-15)
        u = proc.basis_matrix()
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-15)


    @pytest.mark.parametrize("error", [
        NonFiniteOperatorError("LanczosProcess", 3), DomainError("exp overflows"),
        MatrixMarketError("bad header"), OracleScaleError("n is too large"),
    ], ids=lambda e: type(e).__name__)
    def test_errors_survive_pickling(self, error):
        # a worker process reports its error to the parent by pickling it
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error) and back.args == error.args
        assert vars(back) == vars(error)


class TestNorm:
    def test_float64_is_bitwise_np_linalg_norm_and_silent(self):
        rng = np.random.default_rng(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(200):
                g = rng.standard_normal(2 * int(rng.integers(1, 2000)))
                v = g * 10.0 ** rng.uniform(-150, 150)
                for w in (v, v[::2], v * (1 + 1j), g.astype(np.float32)):
                    assert _norm(w) == float(np.linalg.norm(w))

    def test_non_finite_and_overflowing_vectors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _norm(np.array([np.inf, 1.0])) == np.inf
            assert np.isnan(_norm(np.array([np.nan, 1.0])))
            assert _norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)


class TestOperatorAdapter:
    def test_variants(self):
        a = np.diag([1.0, 2.0])
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(as_operator(a)(x), [1.0, 2.0])
        np.testing.assert_allclose(as_operator(lambda v: 3 * v)(x), [3.0, 3.0])
        sp = tridiag_sparse(2, 0.0, 2.0, 0.0)
        np.testing.assert_allclose(as_operator(sp)(x), [2.0, 2.0])
        with pytest.raises(TypeError):
            as_operator("nope")
        with pytest.raises(ValueError):
            as_operator(np.ones((2, 3)))
