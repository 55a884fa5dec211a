"""Optimal relative-error CUR decompositions.

Randomized linear-time, input-sparsity-time, and deterministic pipelines for
A ~= C U R with actual columns/rows of A and rank-k intersection matrix,
plus the sampling, sketching, and subspace primitives they are built from.
"""

from .linalg import (DenseMatrix, SparseMatrix, SvdFactorization,
                     NumericalError, svd, truncate, pinv, frobenius_sq)
from .sketch import SparseEmbedding, SignSketch, make_sse
from .approx_svd import FactorZ, deterministic_svd, randomized_svd, sparse_svd
from .subset_select import (SamplingPair, WeightedSelection, rand_sampling,
                            bss_sampling, bss_sampling_sparse)
from .adaptive import adaptive_cols, adaptive_cols_sparse, adaptive_rows_d
from .subspace import (SubspaceFactor, best_subspace_svd, approx_subspace_svd,
                       rank_constrained_u)
from .cur import (CurConfig, CurDecomposition, EvalReport, cur_linear_time,
                  cur_input_sparsity, cur_deterministic, decompose, evaluate)
from .instances import (AdversarialInstance, gen_adversarial,
                        brute_force_best_columns)
from .mmio import MatrixMarketError, read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
