"""Krylov-projection updates of matrix functions under low-rank modifications.

Approximates f(A + D) - f(A) for a large sparse A and a rank-k modification
D as a tensorized factor U X V^* built from matrix-vector products with A
and A^*, together with a-priori convergence and decay bound calculators, a
dense reference oracle, and a CLI for network-centrality updating.
"""

from .bounds import (BoundValue, DecayParams, Ellipse, Interval, SpectralRegion,
                     Wedge, bound_exp_superlinear, bound_exp_wedge, bound_markov,
                     bound_markov_hpd, chebyshev_poly_bound, decay_params_from_matrix,
                     demko_decay, field_of_values_boundary, leftmost_real_point,
                     phi_abs, stieltjes_k_constant, stieltjes_update_decay)
from .densefun import (EigenDecomposition, FunctionSpec, eigen_decompose,
                       eval_matrix_function, expm_dense, function_from_name,
                       is_hermitian, scalar_derivative, scalar_values, spectral_norm)
from .errors import (DomainError, MatrixMarketError, NonFiniteOperatorError,
                     OracleScaleError)
from .krylov import ArnoldiProcess, LanczosProcess, as_operator
from .oracle import block_lemma_check, dense_update_reference
from .sparse import (Graph, SparseMatrix, gen_convdiff1d, gen_laplace2d, graph_distances,
                     load_matrix_market, spmv)
from .update import (GeneralProblem, HermitianProblem, LowRankModification,
                     SolveOptions, UpdateFactor, error_estimate, extract_diagonal,
                     general_update, hermitian_update, rank_k_update,
                     split_hermitian)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
