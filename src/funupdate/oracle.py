"""Dense brute-force references used by tests and acceptance runs.

Nothing here belongs in a fast path; the hard size guards exist so that a
test cannot silently run a dense reference at an unintended scale.
"""

from __future__ import annotations

import numpy as np

from .densefun import FunctionSpec, eval_matrix_function
from .errors import OracleScaleError

DENSE_UPDATE_LIMIT = 2000
BLOCK_LEMMA_LIMIT = 500


def dense_update_reference(a, b, c, f: FunctionSpec) -> np.ndarray:
    """Ground truth f(A + B C^*) - f(A) by two dense evaluations, for a
    dense array A and n x k arrays, or length-n vectors, B and C."""
    a = np.asarray(a)
    n = a.shape[0]
    if n > DENSE_UPDATE_LIMIT:
        raise OracleScaleError(f"dense reference limited to n <= {DENSE_UPDATE_LIMIT}")
    modified = a + np.asarray(b).reshape(n, -1) @ np.asarray(c).reshape(n, -1).conj().T
    return eval_matrix_function(modified, f) - eval_matrix_function(a, f)


def block_lemma_check(a, b, c, f: FunctionSpec) -> float:
    """Residual between the (1,2) block of f applied to

        [ A   b c^* ]
        [ 0   A + b c^* ]

    and the directly computed dense update, for a dense array A and
    vectors b and c; the two agree exactly for any f analytic on both
    spectra."""
    a = np.asarray(a)
    n = a.shape[0]
    if n > BLOCK_LEMMA_LIMIT:
        raise OracleScaleError(f"block check limited to n <= {BLOCK_LEMMA_LIMIT}")
    outer = np.outer(b, np.conj(c))
    dtype = np.result_type(a, outer)
    big = np.zeros((2 * n, 2 * n), dtype=dtype)
    big[:n, :n] = a
    big[:n, n:] = outer
    big[n:, n:] = a + outer
    f_big = eval_matrix_function(big, f)
    return float(np.linalg.norm(f_big[:n, n:] - dense_update_reference(a, b, c, f), 2))
