import numpy as np
import pytest

from funupdate import (FunctionSpec, OracleScaleError, block_lemma_check,
                       dense_update_reference, expm_dense, spectral_norm)
from funupdate.densefun import eigen_decompose, scalar_values
from helpers import make_general, make_hermitian, make_spd, unit

EXP = FunctionSpec.exp()


class TestDenseUpdateReference:
    def test_zero_modification(self):
        rng = np.random.default_rng(1)
        a = make_hermitian(rng, 8)
        out = dense_update_reference(a, np.zeros((8, 1)), np.zeros((8, 1)), EXP)
        np.testing.assert_allclose(out, np.zeros((8, 8)), atol=1e-14)

    def test_sherman_morrison_closed_form(self):
        rng = np.random.default_rng(2)
        n = 50
        a = make_spd(rng, n, kappa=50.0)
        b = 0.2 * unit(rng, n)
        c = 0.2 * unit(rng, n)
        got = dense_update_reference(a, b.reshape(-1, 1), c.reshape(-1, 1),
                                     FunctionSpec.inverse())
        ainv = np.linalg.inv(a)
        want = -np.outer(ainv @ b, ainv.T @ c) / (1.0 + c @ ainv @ b)
        assert spectral_norm(got - want) <= 1e-10 * spectral_norm(want)

    def test_square_polynomial_expansion(self):
        rng = np.random.default_rng(3)
        n = 5
        a = make_general(rng, n)
        b, c = unit(rng, n), unit(rng, n)
        got = dense_update_reference(a, b.reshape(-1, 1), c.reshape(-1, 1),
                                     FunctionSpec.polynomial([0.0, 0.0, 1.0]))
        bc = np.outer(b, c)
        want = a @ bc + bc @ a + bc @ bc  # (A+bc)^2 - A^2 expanded
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_scale_guard(self):
        with pytest.raises(OracleScaleError):
            dense_update_reference(np.eye(2001), np.zeros((2001, 1)),
                                   np.zeros((2001, 1)), EXP)

    def test_exp_paths_agree_on_normal_input(self):
        rng = np.random.default_rng(4)
        m = make_hermitian(rng, 25, scale=4.0)
        dec = eigen_decompose(m, hermitian=True)
        via_eig = (dec.eigenvectors * scalar_values(EXP, dec.eigenvalues)) @ dec.eigenvectors.conj().T
        via_pade = expm_dense(m)
        assert spectral_norm(via_eig - via_pade) <= 1e-9 * spectral_norm(via_eig)


class TestBlockLemma:
    def test_polynomial_identity(self):
        rng = np.random.default_rng(7)
        a = make_general(rng, 12)
        b, c = unit(rng, 12), unit(rng, 12)
        assert block_lemma_check(a, b, c, FunctionSpec.polynomial([0.5, -1.0, 2.0])) <= 1e-12

    def test_exponential(self):
        rng = np.random.default_rng(8)
        a = make_general(rng, 30, spectral_norm_target=2.0)
        b, c = unit(rng, 30), unit(rng, 30)
        big = np.zeros((60, 60))
        big[:30, :30] = a
        big[:30, 30:] = np.outer(b, c)
        big[30:, 30:] = a + np.outer(b, c)
        scale = spectral_norm(expm_dense(big))
        assert block_lemma_check(a, b, c, EXP) <= 1e-9 * scale

    def test_zero_vector_gives_zero_block(self):
        rng = np.random.default_rng(9)
        a = make_general(rng, 10)
        assert block_lemma_check(a, np.zeros(10), unit(rng, 10), EXP) <= 1e-13

    def test_scale_guard(self):
        with pytest.raises(OracleScaleError):
            block_lemma_check(np.eye(501), np.zeros(501), np.zeros(501), EXP)
