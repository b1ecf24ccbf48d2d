import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funupdate import (DomainError, MatrixMarketError, NonFiniteOperatorError, OracleScaleError,
                       as_operator, gen_laplace2d, krylov, spectral_norm)
from funupdate.krylov import (_DEFER_BLOCK, _PROBE_TRIGGER, _REORTH_TRIGGER, ArnoldiProcess,
                              LanczosProcess, _norm)
from helpers import make_hermitian, tridiag_sparse, unit

NEVER = 1 << 62  # a deferral gate no basis reaches


def grown(apply_a, b, splits, gate):
    """A fully reorthogonalized Lanczos process advanced by each of
    ``splits`` in turn with the deferral gate set to ``gate`` bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "_DEFER_BYTES", gate)
        proc = LanczosProcess(apply_a, b)
        for steps in splits:
            proc.advance(steps)
    return proc


def counted(a):
    """x -> a @ x, and the list whose one entry counts its calls."""
    calls = [0]

    def apply(x):
        calls[0] += 1
        return a @ x

    return apply, calls


@pytest.fixture(scope="class", params=["probed", "deferred"])
def defer_gate(request):
    """Runs a class once with Lanczos probing every step and once with
    every fully reorthogonalized step deferred to a block check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "_DEFER_BYTES", 0 if request.param == "deferred" else NEVER)
        yield request.param


def advanced(proc, steps):
    """``proc`` after ``proc.advance(steps)``."""
    proc.advance(steps)
    return proc


def relation_residual(apply_a, proc, m):
    """|| A U_m - U_{m+1} H_m || for a process advanced past m steps, where
    H_m is the leading (m + 1) x m block of its compressed matrix, or
    || A U_m - U_m G_m || when the process broke down at step m."""
    k = m + (proc.dimension > m)
    u = proc.basis_matrix(k)
    au = np.column_stack([apply_a(u[:, j]) for j in range(m)])
    return spectral_norm(au - u @ proc.compressed(k)[:, :m])


class TestLanczos:
    def test_identity_breaks_down_immediately(self):
        proc = advanced(LanczosProcess(lambda x: x, np.array([0.3, 0.4, 0.5])), 3)
        assert proc.breakdown
        assert proc.dimension == 1
        np.testing.assert_allclose(proc.compressed(), [[1.0]])

    def test_two_by_two_hand_value(self):
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        proc = advanced(LanczosProcess(lambda x: np.array([1.0, 2.0]) * x, b), 2)
        np.testing.assert_allclose(proc.compressed(), [[1.5, 0.5], [0.5, 1.5]], atol=1e-14)
        np.testing.assert_allclose(proc.basis_matrix()[:, 0], b)

    def test_full_reorth_invariants(self):
        rng = np.random.default_rng(21)
        a = make_hermitian(rng, 100, scale=2.0)
        proc = advanced(LanczosProcess(lambda x: a @ x, rng.standard_normal(100), reorth="full"), 21)
        u = proc.basis_matrix(20)
        assert spectral_norm(u.conj().T @ u - np.eye(20)) <= 1e-12
        assert relation_residual(lambda x: a @ x, proc, 20) <= 1e-10 * spectral_norm(a)

    def test_projection_identity(self):
        rng = np.random.default_rng(22)
        a = make_hermitian(rng, 300, scale=1.0)
        b = rng.standard_normal(300)
        proc = advanced(LanczosProcess(lambda x: a @ x, b, reorth="full"), 25)
        u = proc.basis_matrix()
        assert spectral_norm(u.conj().T @ a @ u - proc.compressed()) <= 1e-12

    def test_shift_consistency(self):
        rng = np.random.default_rng(23)
        a = make_hermitian(rng, 60)
        b = rng.standard_normal(60)
        sigma = float(rng.standard_normal())
        base = advanced(LanczosProcess(lambda x: a @ x, b), 12)
        shifted = advanced(LanczosProcess(lambda x: a @ x + sigma * x, b), 12)
        assert spectral_norm(shifted.compressed() - base.compressed() - sigma * np.eye(12)) <= 1e-12
        assert spectral_norm(shifted.basis_matrix() - base.basis_matrix()) <= 1e-12

    def test_first_column_is_normalized_start(self):
        rng = np.random.default_rng(24)
        b = 3.7 * rng.standard_normal(30)
        proc = advanced(LanczosProcess(lambda x: 2.0 * x + np.roll(x, 1) + np.roll(x, -1), b), 5)
        np.testing.assert_allclose(proc.basis_matrix()[:, 0], b / np.linalg.norm(b))
        assert proc.start_norm == pytest.approx(np.linalg.norm(b))

    def test_errors(self):
        with pytest.raises(ValueError):
            LanczosProcess(lambda x: x, np.zeros(4))

    def test_complex_hermitian_operator(self):
        rng = np.random.default_rng(25)
        a = make_hermitian(rng, 40, complex_=True)
        proc = advanced(LanczosProcess(lambda x: a @ x, unit(rng, 40, complex_=True)), 11)
        assert proc.compressed().dtype == np.float64  # tridiagonal data stays real
        assert relation_residual(lambda x: a @ x, proc, 10) <= 1e-10

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
            runs.append(proc.compressed())
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("m", [33, 65])
    def test_plain_recurrence_on_stored_basis(self, m):
        # u_j and u_{j-1} come from the basis store, also right after it grows;
        # the three-term relation holds to rounding even where the plain
        # basis loses orthogonality
        rng = np.random.default_rng(45)
        a = make_hermitian(rng, 120)
        b = rng.standard_normal(120)
        proc = advanced(LanczosProcess(lambda x: a @ x, b, reorth="none"), m + 1)
        longer = advanced(LanczosProcess(lambda x: a @ x, b, reorth="none"), 70)
        assert proc.basis_matrix().shape == (120, m + 1)
        assert np.array_equal(proc.basis_matrix(), longer.basis_matrix(m + 1))
        assert relation_residual(lambda x: a @ x, proc, m) <= 1e-10 * spectral_norm(a)


class TestArnoldi:
    def test_hermitian_input_gives_tridiagonal(self):
        rng = np.random.default_rng(31)
        a = make_hermitian(rng, 50)
        h = advanced(ArnoldiProcess(lambda x: a @ x, rng.standard_normal(50)), 12).compressed()
        below = np.tril(h, -2)
        above = np.triu(h, 2)
        assert spectral_norm(below) + spectral_norm(above) <= 1e-12
        assert spectral_norm(h - h.conj().T) <= 1e-12

    def test_nilpotent_shift_breakdown(self):
        n = 4
        a = np.diag(np.ones(n - 1), 1)  # ones on the superdiagonal
        b = np.zeros(n)
        b[-1] = 1.0
        proc = advanced(ArnoldiProcess(lambda x: a @ x, b), 4)
        assert proc.breakdown and proc.dimension == 4
        expect = np.zeros((4, 4))
        expect[np.arange(4), 3 - np.arange(4)] = 1.0  # e4, e3, e2, e1
        np.testing.assert_allclose(np.abs(proc.basis_matrix()), expect, atol=1e-14)

    def test_random_invariants(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((100, 100)) / 10.0
        proc = advanced(ArnoldiProcess(lambda x: a @ x, rng.standard_normal(100)), 16)
        u = proc.basis_matrix(15)
        assert spectral_norm(u.conj().T @ u - np.eye(15)) <= 1e-12
        assert relation_residual(lambda x: a @ x, proc, 15) <= 1e-10 * spectral_norm(a)
        assert spectral_norm(np.tril(proc.compressed(), -2)) == 0.0  # exact Hessenberg zeros


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


@pytest.mark.usefixtures("defer_gate")
class TestBasisKernel:
    @pytest.mark.parametrize("hermitian,complex_", KERNEL_CASES)
    def test_orthogonality_at_scale(self, hermitian, complex_):
        n, m = 2000, 150
        rng = np.random.default_rng(51)
        op = banded_operator(n, hermitian, complex_)
        b = unit(rng, n, complex_=complex_)
        for process in [ArnoldiProcess] + ([LanczosProcess] if hermitian else []):
            proc = advanced(process(op, b), m + 1)
            u = proc.basis_matrix(m)
            assert proc.dimension == m + 1
            assert spectral_norm(u.conj().T @ u - np.eye(m)) <= 1e-12
            assert relation_residual(op, proc, m) <= 1e-10

    @pytest.mark.parametrize("m", [31, 32, 33, 65])
    def test_growth_across_capacity_boundaries(self, m):
        rng = np.random.default_rng(52)
        a = make_hermitian(rng, 120)
        b = rng.standard_normal(120)
        for process in (LanczosProcess, ArnoldiProcess):
            proc, longer = (advanced(process(lambda x: a @ x, b), k) for k in (m + 1, 70))
            assert np.array_equal(proc.basis_matrix(), longer.basis_matrix(m + 1))
            assert np.array_equal(proc.compressed(), longer.compressed(m + 1))
            u = proc.basis_matrix(m)
            assert spectral_norm(u.T @ u - np.eye(m)) <= 1e-12
            assert relation_residual(lambda x: a @ x, proc, m) <= 1e-10

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
        for process in (LanczosProcess, ArnoldiProcess):
            proc = advanced(process(lambda x: a @ x, b), 21)
            ref = advanced(process(lambda x: a @ x, b.astype(complex)), 21)
            u = proc.basis_matrix(20)
            assert np.iscomplexobj(u)
            assert not np.any(u[:, :6].imag) and np.any(u[:, 10].imag)
            assert spectral_norm(u.conj().T @ u - np.eye(20)) <= 1e-12
            assert relation_residual(lambda x: a @ x, proc, 20) <= 1e-10
            assert spectral_norm(proc.basis_matrix() - ref.basis_matrix()) <= 1e-12
            assert spectral_norm(proc.compressed() - ref.compressed()) <= 1e-12

    @pytest.mark.parametrize("process", [LanczosProcess, ArnoldiProcess])
    def test_views_are_read_only(self, process):
        a = gen_laplace2d(10)
        b = np.cos(np.arange(a.n))
        proc, twin = process(a.matvec, b), process(a.matvec, b)
        proc.advance(5)
        twin.advance(5)
        for view in (proc.basis_matrix(), proc.basis_matrix(2)):
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
        # m + 1 steps, so that the compressed matrices hold beta_m of step m
        lan, arn = (advanced(process(op, b), m + 1) for process in (LanczosProcess, ArnoldiProcess))
        # fully reorthogonalized Lanczos runs the recurrence and corrects
        # only measured loss: the same process to rounding, not bit for bit
        assert spectral_norm(lan.basis_matrix() - arn.basis_matrix()) <= 1e-12
        h = arn.compressed().real
        sub = np.diagonal(h, -1)
        mirrored = np.diag(np.diagonal(h)) + np.diag(sub, 1) + np.diag(sub, -1)
        assert spectral_norm(lan.compressed() - mirrored) <= 1e-12
        assert spectral_norm(np.triu(arn.compressed(), 2)) <= 1e-12


def clustered_spectrum(rng, n, centers, spread):
    """n eigenvalues spread about ``centers`` points drawn from [-1, 1]."""
    c = rng.uniform(-1.0, 1.0, centers)
    return c[rng.integers(centers, size=n)] + spread * rng.standard_normal(n)


def hermitian_with_start(rng, lam, complex_):
    """The dense Hermitian operator Q diag(lam) Q^*, Q the unitary factor of
    a Gaussian matrix, and a Gaussian starting vector."""
    n = len(lam)
    z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    q, _ = np.linalg.qr(z)
    a = (q * lam) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0)
    return a, b


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
        lam = clustered_spectrum(rng, n, draw(st.integers(1, 6)), 10.0 ** -draw(st.floats(2, 10)))
    else:
        lam = np.logspace(-draw(st.floats(1, 10)), 0, n)
        lam *= rng.choice([-1.0, 1.0], n) if draw(st.booleans()) else 1.0
    return (*hermitian_with_start(rng, scale * lam, complex_), draw(st.integers(1, n)))


@pytest.mark.usefixtures("defer_gate")
class TestMeasuredReorthogonalization:
    """Full reorthogonalization corrects only the loss its probe measures;
    the basis stays orthonormal where the plain recurrence loses it."""

    @settings(deadline=None, max_examples=60)
    @given(hermitian_problems())
    def test_orthonormal_basis_and_krylov_relation(self, case):
        # Arnoldi runs the CGS2 step on every step, so it also guards the
        # second pass, which the probed Lanczos steps rarely need
        a, b, m = case
        for process in (LanczosProcess, ArnoldiProcess):
            proc = advanced(process(lambda x: a @ x, b), m + 1)
            k = min(m, proc.dimension)
            u = proc.basis_matrix(k)
            assert spectral_norm(u.conj().T @ u - np.eye(k)) <= 1e-12
            assert relation_residual(lambda x: a @ x, proc, k) <= 1e-10 * spectral_norm(a)

    def test_laplacian_where_plain_lanczos_fails(self):
        a = gen_laplace2d(60)
        b = np.random.default_rng(61).standard_normal(a.n)
        plain = advanced(LanczosProcess(a.matvec, b, reorth="none"), 300).basis_matrix()
        assert spectral_norm(plain.T @ plain - np.eye(300)) > 0.5
        proc = advanced(LanczosProcess(a.matvec, b), 301)
        u = proc.basis_matrix(300)
        assert proc.dimension == 301
        assert spectral_norm(u.T @ u - np.eye(300)) <= 1e-12
        assert relation_residual(a.matvec, proc, 300) <= 1e-10 * 8.0  # ||A|| < 8


class TestDeferredCheck:
    """Above the gate, full reorthogonalization checks a block of steps with
    one product and replays from the first failing column with the per-step
    probe, so it ends with the probed process, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(hermitian_problems(), st.data())
    def test_deferred_equals_probed(self, case, data):
        a, b, m = case
        splits = data.draw(st.lists(st.integers(1, m), min_size=1, max_size=4))
        # one step more puts the last split's beta_m into compressed(m + 1)
        deferred, probed = (grown(lambda x: a @ x, b, splits + [1], gate) for gate in (0, NEVER))
        assert deferred.dimension == probed.dimension
        assert deferred.breakdown == probed.breakdown
        assert np.array_equal(deferred.basis_matrix(), probed.basis_matrix())
        assert np.array_equal(deferred.compressed(), probed.compressed())

    @pytest.mark.parametrize("seed,scale,first", [(584, 10.0, 4), (585, 1.0, 7)])
    def test_near_trigger_draws_equal_probed(self, seed, scale, first):
        # two hermitian_problems draws (complex, n = 282, one eigenvalue
        # centre, spread 1e-2) where the block's and the probe's rounding of
        # a cosine straddled 3e-14 with OpenBLAS on two threads: seed 584's
        # block check passed column 4 at 2.999e-14, which the probe then
        # corrected; seed 585's probe corrected the last step, which its
        # block check had passed
        rng = np.random.default_rng(seed)
        a, b = hermitian_with_start(rng, scale * clustered_spectrum(rng, 282, 1, 1e-2), True)
        deferred, probed = (grown(lambda x: a @ x, b, [first, 1], gate) for gate in (0, NEVER))
        assert np.array_equal(deferred.basis_matrix(), probed.basis_matrix())
        assert np.array_equal(deferred.compressed(), probed.compressed())

    @pytest.mark.parametrize("cosine,corrects", [
        (0.5 * _PROBE_TRIGGER, False),
        (1.05 * _REORTH_TRIGGER, False),  # the margin: the block check flags it, the probe does not
        (2.0 * _PROBE_TRIGGER, True),
    ])
    def test_probe_is_the_first_cgs2_pass(self, cosine, corrects):
        # column j + 1 holds a residual r at the given cosine to the basis; a
        # probe below its threshold leaves r and coefficient column j as
        # they are and returns |r|, one above it is the plain CGS2 step
        a = make_hermitian(np.random.default_rng(71), 80)
        proc, plain = (advanced(LanczosProcess(lambda x: a @ x, np.ones(80)), 8) for _ in range(2))
        j = proc.dimension
        q = proc._q[:, : j + 1]  # the basis and its newest column, u_j
        g = np.random.default_rng(72).standard_normal(80)
        for _ in range(2):
            g -= q @ (q.T @ g)
        r = g / np.linalg.norm(g) + cosine * q[:, 3]
        for p in (proc, plain):
            p._reserve(r.dtype)
            p._q[:, j + 1] = r
        h = proc._h[:, j].copy()
        beta = proc._cgs2(j, probe=True)
        assert plain._cgs2(j) is None
        assert beta == (None if corrects else _norm(r))
        want = (plain._q[:, j + 1], plain._h[:, j]) if corrects else (r, h)
        assert np.array_equal(proc._q[:, j + 1], want[0])
        assert np.array_equal(proc._h[:, j], want[1])

    def test_breakdown_inside_a_block(self):
        # b lies on 7 eigenvectors: the recurrence breaks down at step 7 of
        # a 16-step block, which replays that step with the probe
        a = np.diag(np.linspace(1.0, 2.0, 50))
        b = np.zeros(50)
        b[:7] = 1.0
        apply, calls = counted(a)
        deferred, probed = grown(apply, b, [16], 0), grown(lambda x: a @ x, b, [16], NEVER)
        for proc in (deferred, probed):
            assert proc.breakdown and proc.dimension == 7
        assert calls[0] == 8
        assert np.array_equal(deferred.compressed(), probed.compressed())

    def test_rollback_costs_at_most_one_block_and_keeps_views(self):
        # on this Laplacian the probe first corrects at step 23: the first
        # advance passes its checks, the second rolls back into its block
        a = gen_laplace2d(10).to_dense()
        b = np.cos(np.arange(100))
        apply, calls = counted(a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(krylov, "_DEFER_BYTES", 0)
            proc = LanczosProcess(apply, b)
            proc.advance(20)
            assert calls[0] == proc.dimension == 20
            view = proc.basis_matrix()
            kept = view.copy()
            proc.advance(40)
        assert 0 < calls[0] - proc.dimension <= _DEFER_BLOCK
        assert np.array_equal(view, kept)
        probed = grown(lambda x: a @ x, b, [20, 40], NEVER)
        assert np.array_equal(proc.basis_matrix(), probed.basis_matrix())
        assert np.array_equal(proc.compressed(), probed.compressed())

    def test_flagged_columns_the_probe_passes_roll_nothing_back(self, monkeypatch):
        # with the block trigger below every cosine the block check flags
        # each column; measured again as the probe measures them, all pass
        # (the probe first corrects at step 23), so no step repeats and the
        # process stays deferred and equal to the probed one
        a = gen_laplace2d(10).to_dense()
        b = np.cos(np.arange(100))
        apply, calls = counted(a)
        remeasured, remeasure = [], LanczosProcess._remeasured

        def spy(proc, k):
            remeasured.append(k)
            return remeasure(proc, k)

        monkeypatch.setattr(LanczosProcess, "_remeasured", spy)
        monkeypatch.setattr(krylov, "_REORTH_TRIGGER", 1e-30)
        proc = grown(apply, b, [20, 1], 0)
        assert remeasured == list(range(1, 22))
        assert proc._defer and calls[0] == proc.dimension == 21
        probed = grown(lambda x: a @ x, b, [20, 1], NEVER)
        assert np.array_equal(proc.basis_matrix(), probed.basis_matrix())
        assert np.array_equal(proc.compressed(), probed.compressed())

    def test_small_basis_keeps_the_probe(self):
        # 100 x 61 doubles is below the gate: no block, so no rollback
        # repeats a step although the probe corrects from step 23 on
        a = gen_laplace2d(10)
        apply, calls = counted(a.to_dense())
        proc = LanczosProcess(apply, np.cos(np.arange(100)))
        proc.advance(60)
        assert calls[0] == proc.dimension == 60


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
        for read in (proc.basis_matrix, proc.compressed):
            with pytest.raises(ValueError, match=f"m = {m} is outside .*3"):
                read(m)

    @pytest.mark.parametrize("make", PROCESSES, ids=PROCESS_IDS)
    def test_zero_steps_are_empty(self, make):
        proc = make(np.diag(np.arange(1.0, 51.0)), np.ones(50))
        proc.advance(3)
        assert proc.basis_matrix(0).shape == (50, 0)
        assert proc.compressed(0).shape == (0, 0)
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
            LanczosProcess(nan_at_matvec(4), np.ones(50), reorth="none").advance(10)

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


    def test_finite_coefficient_whose_modulus_overflows(self):
        # both parts of Q^* A u_0 are finite, its modulus is not; the residual
        # norm is 1, so this is no breakdown
        a = np.array([[1.5e308 + 1.5e308j, 1.0], [1.0, 1.0]])
        proc = ArnoldiProcess(a, np.array([1.0, 0.0]))
        with pytest.raises(NonFiniteOperatorError) as info:
            proc.advance(2)
        assert info.value.step == 1
        assert proc.dimension == 0 and not proc.breakdown and proc._scale == 0.0

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


@pytest.mark.parametrize("make, message", [
    (lambda: LanczosProcess(np.eye(2), np.ones(2), reorth="partial"),
     "reorth must be 'full' or 'none'"),
    (lambda: ArnoldiProcess(np.eye(2), np.ones((2, 1))),
     "starting vector must be one-dimensional"),
    (lambda: LanczosProcess(np.eye(2), np.ones((2, 1))),
     "starting vector must be one-dimensional"),
], ids=["lanczos-reorth", "arnoldi-2d-start", "lanczos-2d-start"])
def test_typed_input_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
