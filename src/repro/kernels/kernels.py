"""Distance kernels: per-metric batched evaluators and query contexts.

A *kernel* packages the Gram-expansion math of :mod:`repro.kernels.gram`
behind a small object interface the access-method layer can hold on to:

``row_norms(rows)``
    the cacheable per-row term (``vAv^T`` for QFD, ``vv^T`` for L2);
``bind(query, ...) -> QueryContext``
    precompute the per-query terms once (``qA`` and ``qAq^T``) so every
    subsequent candidate costs one O(n) dot product;
``one_to_many`` / ``pairwise`` / ``cross``
    free-standing batched forms for build-time work.

:func:`resolve_kernel` maps a scalar distance function to its kernel, or
``None`` when no batched form is known (the caller then falls back to the
function's own vectorized form or a plain loop).

Kernels are constructed with an optional ``block_rows``: when set, the
Gram-expansion batch methods stream their candidate rows through the
tiled, block-size-invariant primitives of :mod:`repro.kernels.blocked`
instead of the unblocked BLAS forms — the out-of-core configuration used
with memory-mapped float32 stores.  One batch form ignores the tile
height: the QFD ``one_to_many`` without cached row norms (tree builds)
takes the difference form of :func:`~repro.kernels.gram.qfd_diff_one_to_many`
in either configuration, in fixed chunks of ``DIFF_CHUNK_ROWS`` rows, so
blocked and unblocked builds compute the same bits.  Its temporaries are
up to three ``DIFF_CHUNK_ROWS x n`` float64 arrays (96 MiB at n = 512,
the third only for float32 rows) whatever ``block_rows`` is.

``recheck_rel`` on the QFD one-to-many forms raises the cancellation
recheck threshold; pivot filters use :data:`~repro.kernels.gram.PIVOT_RECHECK_REL`
so that :meth:`QFDQueryContext.pivot_error` bounds every pivot distance.
The L2 forms accept and ignore it: their difference form is exact near
zero already.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import blocked, gram

__all__ = [
    "QFDKernel",
    "QFDQueryContext",
    "L2Kernel",
    "L2QueryContext",
    "resolve_kernel",
]


class QFDQueryContext:
    """Per-query amortization for the QFD: ``qA`` and ``qAq^T`` once.

    After binding, each candidate distance is
    ``sqrt(qAq^T - 2 qA.v + vAv^T)`` — O(n) with a cached row norm instead
    of the O(n^2) quadratic form per pair.
    """

    __slots__ = ("_kernel", "query", "q_a", "q_norm")

    def __init__(self, kernel: "QFDKernel", query: np.ndarray) -> None:
        self._kernel = kernel
        self.query = np.asarray(query, dtype=np.float64)
        # gemv, not part of a chunk-wide gemm: per-query BLAS paths must be
        # identical no matter how many queries share the bind site.
        self.q_a = self.query @ kernel.matrix
        self.q_norm = float(self.q_a @ self.query)

    def many(
        self,
        rows: np.ndarray,
        norms: np.ndarray | None = None,
        *,
        recheck_rel: float = gram.RECHECK_REL,
    ) -> np.ndarray:
        """Distances from the bound query to every row."""
        if self._kernel.block_rows is not None:
            return blocked.blocked_qfd_one_to_many(
                self._kernel.matrix,
                self.query,
                rows,
                row_norms=norms,
                q_a=self.q_a,
                q_norm=self.q_norm,
                block_rows=self._kernel.block_rows,
                recheck_rel=recheck_rel,
            )
        return gram.qfd_one_to_many(
            self._kernel.matrix,
            self.query,
            rows,
            row_norms=norms,
            q_a=self.q_a,
            q_norm=self.q_norm,
            recheck_rel=recheck_rel,
        )

    def pivot_error(self, max_norm: float) -> float:
        """Rounding allowance of one pivot-filter comparison.

        A filter compares a pivot distance of this query with a stored
        one of some row, both evaluated with ``recheck_rel =
        PIVOT_RECHECK_REL``; *max_norm* bounds ``vAv^T`` over the stored
        rows and pivots.  Returns the sum of the two entries' error bounds.
        """
        return gram.distance_error(
            self.q_norm + max_norm, gram.PIVOT_RECHECK_REL
        ) + gram.distance_error(2.0 * max_norm, gram.PIVOT_RECHECK_REL)

    def prune_error(self, max_norm: float) -> float:
        """Rounding allowance of one tree prune test.

        A prune test compares this query's distance to a stored row with
        a stored distance between rows, both possibly Gram-expanded at the
        default recheck threshold; *max_norm* bounds ``vAv^T`` over the
        rows.  Returns the sum of the two distances' error bounds.
        """
        return gram.distance_error(self.q_norm + max_norm) + gram.distance_error(
            2.0 * max_norm
        )

    def one(self, row: np.ndarray, norm: float | None = None) -> float:
        """Distance from the bound query to a single row."""
        row = np.asarray(row, dtype=np.float64)
        if norm is None:
            g = row @ self._kernel.matrix
            norm = float(g @ row)
        sq = self.q_norm + norm - 2.0 * float(row @ self.q_a)
        if sq <= gram.RECHECK_REL * (self.q_norm + norm):
            diff = row - self.query
            sq = float(diff @ self._kernel.matrix @ diff)
        return float(np.sqrt(sq if sq > 0.0 else 0.0))


class QFDKernel:
    """Batched Gram-expansion evaluator for a static QFD matrix.

    ``block_rows`` selects the tiled out-of-core arithmetic (see module
    docstring); ``None`` keeps the unblocked path.
    """

    __slots__ = ("matrix", "block_rows")

    def __init__(self, matrix: np.ndarray, *, block_rows: int | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.block_rows = block_rows

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_qfd_row_norms(
                self.matrix, rows, block_rows=self.block_rows
            )
        return gram.qfd_row_norms(self.matrix, rows)

    def bind(self, query: np.ndarray) -> QFDQueryContext:
        return QFDQueryContext(self, query)

    def one_to_many(
        self,
        q: np.ndarray,
        rows: np.ndarray,
        *,
        row_norms: np.ndarray | None = None,
        recheck_rel: float = gram.RECHECK_REL,
    ) -> np.ndarray:
        """Distances from *q* to every row.

        With cached *row_norms* this is the O(n)-per-row Gram expansion.
        Without them the Gram form would pay the same O(n^2) per row for
        the norms plus a ``qA``, so the kernel takes the exact difference
        form instead, blocked or not.  Tree builds evaluate node rows this
        way, and sharing the arithmetic keeps a blocked build's structure
        (and its charged count) equal to the unblocked one even where
        near-duplicate rows tie far below the Gram form's rounding error.
        """
        if row_norms is None:
            return gram.qfd_diff_one_to_many(self.matrix, q, rows)
        if self.block_rows is not None:
            return blocked.blocked_qfd_one_to_many(
                self.matrix,
                q,
                rows,
                row_norms=row_norms,
                block_rows=self.block_rows,
                recheck_rel=recheck_rel,
            )
        return gram.qfd_one_to_many(
            self.matrix, q, rows, row_norms=row_norms, recheck_rel=recheck_rel
        )

    def pairwise(
        self, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_qfd_pairwise(
                self.matrix, rows, row_norms=row_norms, block_rows=self.block_rows
            )
        return gram.qfd_pairwise(self.matrix, rows, row_norms=row_norms)

    def cross(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        *,
        norms_a: np.ndarray | None = None,
        norms_b: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_qfd_cross(
                self.matrix,
                rows_a,
                rows_b,
                norms_a=norms_a,
                norms_b=norms_b,
                block_rows=self.block_rows,
            )
        return gram.qfd_cross(
            self.matrix, rows_a, rows_b, norms_a=norms_a, norms_b=norms_b
        )


class L2QueryContext:
    """Per-query context for L2 — difference-based by design.

    The diff form is exact near zero and bit-identical to
    :func:`repro.distances.minkowski.euclidean_one_to_many`, which keeps the
    QMap model's mapped-space results exactly equal to a plain scan; the
    Gram form for L2 is exposed only through the kernel's batch methods.
    The blocked variant tiles the same per-row difference arithmetic, so
    its floats do not move either.
    """

    __slots__ = ("query", "block_rows")

    def __init__(self, query: np.ndarray, *, block_rows: int | None = None) -> None:
        self.query = np.asarray(query, dtype=np.float64)
        self.block_rows = block_rows

    def many(
        self,
        rows: np.ndarray,
        norms: np.ndarray | None = None,
        *,
        recheck_rel: float = gram.RECHECK_REL,
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_l2_one_to_many(
                self.query, rows, block_rows=self.block_rows
            )
        return gram.l2_one_to_many(self.query, rows)

    def pivot_error(self, max_norm: float) -> float:
        """Zero: the difference form's error is relative, which the
        filters' relative slack already covers."""
        return 0.0

    def prune_error(self, max_norm: float) -> float:
        """Zero, as :meth:`pivot_error`."""
        return 0.0

    def one(self, row: np.ndarray, norm: float | None = None) -> float:
        return float(np.linalg.norm(np.asarray(row, dtype=np.float64) - self.query))


class L2Kernel:
    """Batched evaluator for the Euclidean distance."""

    __slots__ = ("block_rows",)

    def __init__(self, *, block_rows: int | None = None) -> None:
        self.block_rows = block_rows

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_l2_row_norms(rows, block_rows=self.block_rows)
        return gram.l2_row_norms(rows)

    def bind(self, query: np.ndarray) -> L2QueryContext:
        return L2QueryContext(query, block_rows=self.block_rows)

    def one_to_many(
        self,
        q: np.ndarray,
        rows: np.ndarray,
        *,
        row_norms: np.ndarray | None = None,
        recheck_rel: float = gram.RECHECK_REL,
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_l2_one_to_many(q, rows, block_rows=self.block_rows)
        return gram.l2_one_to_many(q, rows)

    def pairwise(
        self, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_l2_pairwise(
                rows, row_norms=row_norms, block_rows=self.block_rows
            )
        return gram.l2_pairwise(rows, row_norms=row_norms)

    def cross(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        *,
        norms_a: np.ndarray | None = None,
        norms_b: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.block_rows is not None:
            return blocked.blocked_l2_cross(
                rows_a,
                rows_b,
                norms_a=norms_a,
                norms_b=norms_b,
                block_rows=self.block_rows,
            )
        return gram.l2_cross(rows_a, rows_b, norms_a=norms_a, norms_b=norms_b)


def resolve_kernel(
    func: Callable, *, block_rows: int | None = None
) -> QFDKernel | L2Kernel | None:
    """Best batched kernel for a scalar distance function, or ``None``.

    Unwraps :class:`~repro.distances.base.CountingDistance` to inspect the
    underlying metric; recognizes the static QFD and the plain Euclidean
    distance.  Imports lazily — this module sits below the distance layer.
    *block_rows* configures the returned kernel for tiled out-of-core
    evaluation (see :mod:`repro.kernels.blocked`).
    """
    from ..distances.base import CountingDistance

    if isinstance(func, CountingDistance):
        func = func.func
    from ..core.qfd import QuadraticFormDistance

    if isinstance(func, QuadraticFormDistance):
        return QFDKernel(func.matrix, block_rows=block_rows)
    from ..distances.minkowski import euclidean

    if func is euclidean:
        return L2Kernel(block_rows=block_rows)
    return None
