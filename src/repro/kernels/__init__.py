"""BLAS-backed distance kernels (Gram expansion, query contexts, factor cache).

This package is the performance substrate under the distance and MAM
layers: pure batched math in :mod:`~repro.kernels.gram`, per-metric kernel
objects and :func:`~repro.kernels.kernels.resolve_kernel` in
:mod:`~repro.kernels.kernels`, and the content-addressed Cholesky registry
in :mod:`~repro.kernels.cholesky_cache`.  Nothing here counts distance
evaluations — logical charging stays in :class:`repro.mam.base.DistancePort`.
"""

from .blocked import (
    DEFAULT_BLOCK_ROWS,
    blocked_l2_cross,
    blocked_l2_one_to_many,
    blocked_l2_pairwise,
    blocked_l2_row_norms,
    blocked_qfd_cross,
    blocked_qfd_one_to_many,
    blocked_qfd_pairwise,
    blocked_qfd_row_norms,
    iter_blocks,
)
from .cholesky_cache import cached_cholesky, cholesky_cache_info, clear_cholesky_cache
from .gram import (
    GRAM_ERR_REL,
    PIVOT_RECHECK_REL,
    RECHECK_REL,
    distance_error,
    l2_cross,
    l2_one_to_many,
    l2_pairwise,
    l2_row_norms,
    qfd_cross,
    qfd_one_to_many,
    qfd_pairwise,
    qfd_row_norms,
    qfd_squared_one_to_many,
    qfd_squared_pairwise,
)
from .kernels import L2Kernel, L2QueryContext, QFDKernel, QFDQueryContext, resolve_kernel
from .ptolemaic import (
    ptolemaic_bound_matrix,
    ptolemaic_bound_scalar,
    ptolemaic_bounds,
    valid_pivot_pairs,
)

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "GRAM_ERR_REL",
    "PIVOT_RECHECK_REL",
    "RECHECK_REL",
    "distance_error",
    "blocked_l2_cross",
    "blocked_l2_one_to_many",
    "blocked_l2_pairwise",
    "blocked_l2_row_norms",
    "blocked_qfd_cross",
    "blocked_qfd_one_to_many",
    "blocked_qfd_pairwise",
    "blocked_qfd_row_norms",
    "iter_blocks",
    "cached_cholesky",
    "cholesky_cache_info",
    "clear_cholesky_cache",
    "l2_cross",
    "l2_one_to_many",
    "l2_pairwise",
    "l2_row_norms",
    "qfd_cross",
    "qfd_one_to_many",
    "qfd_pairwise",
    "qfd_row_norms",
    "qfd_squared_one_to_many",
    "qfd_squared_pairwise",
    "L2Kernel",
    "L2QueryContext",
    "QFDKernel",
    "QFDQueryContext",
    "ptolemaic_bound_matrix",
    "ptolemaic_bound_scalar",
    "ptolemaic_bounds",
    "resolve_kernel",
    "valid_pivot_pairs",
]
