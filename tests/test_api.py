import funupdate

# The public names, submodules included. Adding or removing one is a
# declared change of the API: edit this list with it.
PUBLIC = [
    "ArnoldiProcess", "BoundValue", "DecayParams", "DomainError", "EigenDecomposition",
    "Ellipse", "FunctionSpec", "GeneralProblem", "Graph", "HermitianProblem", "Interval",
    "LanczosProcess", "LowRankModification", "MatrixMarketError", "NonFiniteOperatorError",
    "OracleScaleError", "SolveOptions", "SparseMatrix", "SpectralRegion", "UpdateFactor",
    "Wedge", "as_operator", "block_lemma_check", "bound_exp_superlinear", "bound_exp_wedge",
    "bound_markov", "bound_markov_hpd", "bounds", "chebyshev_poly_bound",
    "decay_params_from_matrix", "demko_decay", "dense_update_reference", "densefun",
    "eigen_decompose", "error_estimate", "errors", "eval_matrix_function", "expm_dense",
    "extract_diagonal", "field_of_values_boundary", "function_from_name", "gen_convdiff1d",
    "gen_laplace2d", "general_update", "graph_distances", "hermitian_update", "is_hermitian",
    "krylov", "leftmost_real_point", "load_matrix_market", "oracle", "phi_abs",
    "rank_k_update", "scalar_derivative", "scalar_values", "sparse", "spectral_norm",
    "split_hermitian", "spmv", "stieltjes_k_constant", "stieltjes_update_decay", "update",
]


def test_public_names_are_pinned():
    assert sorted(funupdate.__all__) == PUBLIC
