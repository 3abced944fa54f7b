"""Blocked Gram-expansion kernels: tiled, block-size-invariant batch math.

The out-of-core data path (1M x 512-d float32 records in an
:class:`~repro.storage.mmap_store.MmapVectorStore`) cannot afford the
unblocked kernels in :mod:`repro.kernels.gram`: a single one-to-many scan
would materialize full ``n x d`` float64 intermediates (~4 GB at the
paper's testbed scale).  The functions here stream the candidate rows
through cache-sized tiles of ``block_rows`` rows, upcasting each float32
tile to float64 once and accumulating every reduction in float64.

Bitwise block-size invariance
-----------------------------
The whole point of a *tunable* ``block_rows`` is that it must not change
answers: an index built with one tile size has to agree bit-for-bit with
a query served under another, and a heap-resident float64 copy of the
same float32 records must agree with the memory-mapped store.  BLAS
``gemm``/``gemv`` reductions do **not** have this property — their
internal blocking (and therefore the floating-point summation order)
depends on the operand shapes, so tiling a matrix product changes the
last ulps of the result.  Every reduction here therefore uses one of
three primitives whose summation order is fixed per output element,
independent of how many rows share the call:

* ``np.einsum("ij,j->i", tile, v)`` — one-to-many dot products;
* ``np.einsum("ik,jk->ij", a, b)`` — cross/pairwise dot products
  (invariant under tiling of *either* operand);
* per-row ``row @ matrix`` + ``np.dot`` — quadratic-form row norms and
  the cancellation rechecks, evaluated one row at a time so the BLAS
  call shape never varies.

The cancellation guard mirrors :mod:`repro.kernels.gram` (same
``RECHECK_REL`` threshold, same exact difference-based recompute), but
rechecks run per suspect element rather than per suspect batch — batch
shape must not leak into the arithmetic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .gram import RECHECK_REL

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "iter_blocks",
    "blocked_qfd_row_norms",
    "blocked_l2_row_norms",
    "blocked_qfd_one_to_many",
    "blocked_l2_one_to_many",
    "blocked_qfd_cross",
    "blocked_l2_cross",
    "blocked_qfd_pairwise",
    "blocked_l2_pairwise",
]

#: Default tile height: 8192 rows x 512 d x 8 B = 32 MB of float64
#: working set per tile — big enough to amortize the per-tile Python
#: overhead, small enough to stay cache/RSS friendly at n = 1M.
DEFAULT_BLOCK_ROWS = 8192


def iter_blocks(n: int, block_rows: int | None) -> Iterator[tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges covering ``range(n)``."""
    if block_rows is None or block_rows >= n:
        if n:
            yield 0, n
        return
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    for start in range(0, n, block_rows):
        yield start, min(start + block_rows, n)


def _tile64(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """One float64 tile of *rows* (upcast copy only when not float64)."""
    tile = rows[start:stop]
    if tile.dtype != np.float64:
        tile = np.asarray(tile, dtype=np.float64)
    return tile


def _qfd_norm_rows(
    matrix: np.ndarray, tile: np.ndarray, out: np.ndarray, buf: np.ndarray
) -> None:
    """Per-row ``vAv^T`` into *out* — one fixed-shape gemv + dot per row."""
    for i in range(tile.shape[0]):
        row = tile[i]
        np.matmul(row, matrix, out=buf)
        out[i] = np.dot(buf, row)


def _qfd_exact_sq(matrix: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Exact difference-based squared QFD of one pair (the recheck path)."""
    diff = u - v
    return float(np.dot(diff @ matrix, diff))


def blocked_qfd_row_norms(
    matrix: np.ndarray,
    rows: np.ndarray,
    *,
    block_rows: int | None = None,
) -> np.ndarray:
    """Per-row quadratic forms ``vAv^T``, streamed tile by tile.

    Row-at-a-time evaluation keeps the BLAS call shape constant, so the
    result is bitwise independent of *block_rows* (tiling only sizes the
    float32 -> float64 upcast buffer).
    """
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    buf = np.empty(matrix.shape[0], dtype=np.float64)
    for start, stop in iter_blocks(n, block_rows):
        _qfd_norm_rows(matrix, _tile64(rows, start, stop), out[start:stop], buf)
    return out


def blocked_l2_row_norms(
    rows: np.ndarray, *, block_rows: int | None = None
) -> np.ndarray:
    """Per-row squared L2 norms ``vv^T``, streamed tile by tile."""
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    for start, stop in iter_blocks(n, block_rows):
        tile = _tile64(rows, start, stop)
        np.einsum("ij,ij->i", tile, tile, out=out[start:stop])
    return out


def blocked_qfd_one_to_many(
    matrix: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
    q_a: np.ndarray | None = None,
    q_norm: float | None = None,
    block_rows: int | None = None,
    recheck_rel: float = RECHECK_REL,
) -> np.ndarray:
    """QFD distances from *q* to every row, streamed tile by tile."""
    q64 = np.asarray(q, dtype=np.float64)
    if q_a is None:
        q_a = q64 @ matrix
    if q_norm is None:
        q_norm = float(q_a @ q64)
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    buf = np.empty(matrix.shape[0], dtype=np.float64)
    for start, stop in iter_blocks(n, block_rows):
        tile = _tile64(rows, start, stop)
        if row_norms is None:
            norms = np.empty(tile.shape[0], dtype=np.float64)
            _qfd_norm_rows(matrix, tile, norms, buf)
        else:
            norms = row_norms[start:stop]
        sq = q_norm + norms - 2.0 * np.einsum("ij,j->i", tile, q_a)
        for i in np.flatnonzero(sq <= recheck_rel * (q_norm + norms)):
            sq[i] = _qfd_exact_sq(matrix, tile[i], q64)
        np.sqrt(np.maximum(sq, 0.0), out=out[start:stop])
    return out


def blocked_l2_one_to_many(
    q: np.ndarray,
    rows: np.ndarray,
    *,
    block_rows: int | None = None,
) -> np.ndarray:
    """L2 distances from *q* to every row — tiled difference form.

    The per-row difference + einsum reduction is exactly the arithmetic
    of :func:`repro.kernels.gram.l2_one_to_many`, so the tiled result is
    bitwise identical to the unblocked scan (QMap answers do not move).
    """
    q64 = np.asarray(q, dtype=np.float64)
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    for start, stop in iter_blocks(n, block_rows):
        diff = _tile64(rows, start, stop) - q64
        np.sqrt(np.einsum("ij,ij->i", diff, diff), out=out[start:stop])
    return out


def blocked_qfd_cross(
    matrix: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    *,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
    block_rows: int | None = None,
) -> np.ndarray:
    """``(a, b)`` QFD distance matrix, tiled over both row batches."""
    na, nb = rows_a.shape[0], rows_b.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    buf = np.empty(matrix.shape[0], dtype=np.float64)
    for a0, a1 in iter_blocks(na, block_rows):
        a_tile = _tile64(rows_a, a0, a1)
        g = np.empty_like(a_tile)
        for i in range(a_tile.shape[0]):
            np.matmul(a_tile[i], matrix, out=g[i])
        if norms_a is None:
            n_a = np.array([np.dot(g[i], a_tile[i]) for i in range(a_tile.shape[0])])
        else:
            n_a = norms_a[a0:a1]
        for b0, b1 in iter_blocks(nb, block_rows):
            b_tile = _tile64(rows_b, b0, b1)
            if norms_b is None:
                n_b = np.empty(b_tile.shape[0], dtype=np.float64)
                _qfd_norm_rows(matrix, b_tile, n_b, buf)
            else:
                n_b = norms_b[b0:b1]
            sq = n_a[:, None] + n_b[None, :] - 2.0 * np.einsum("ik,jk->ij", g, b_tile)
            for i, j in zip(*np.nonzero(sq <= RECHECK_REL * (n_a[:, None] + n_b[None, :]))):
                sq[i, j] = _qfd_exact_sq(matrix, a_tile[i], b_tile[j])
            np.sqrt(np.maximum(sq, 0.0), out=out[a0:a1, b0:b1])
    return out


def blocked_l2_cross(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    *,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
    block_rows: int | None = None,
) -> np.ndarray:
    """``(a, b)`` L2 distance matrix, tiled over both row batches."""
    na, nb = rows_a.shape[0], rows_b.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    for a0, a1 in iter_blocks(na, block_rows):
        a_tile = _tile64(rows_a, a0, a1)
        if norms_a is None:
            n_a = np.einsum("ij,ij->i", a_tile, a_tile)
        else:
            n_a = norms_a[a0:a1]
        for b0, b1 in iter_blocks(nb, block_rows):
            b_tile = _tile64(rows_b, b0, b1)
            if norms_b is None:
                n_b = np.einsum("ij,ij->i", b_tile, b_tile)
            else:
                n_b = norms_b[b0:b1]
            sq = n_a[:, None] + n_b[None, :] - 2.0 * np.einsum("ik,jk->ij", a_tile, b_tile)
            for i, j in zip(*np.nonzero(sq <= RECHECK_REL * (n_a[:, None] + n_b[None, :]))):
                diff = a_tile[i] - b_tile[j]
                sq[i, j] = np.dot(diff, diff)
            np.sqrt(np.maximum(sq, 0.0), out=out[a0:a1, b0:b1])
    return out


def blocked_qfd_pairwise(
    matrix: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
    block_rows: int | None = None,
) -> np.ndarray:
    """Exactly-symmetric QFD distance matrix over *rows* (zero diagonal).

    Pairwise batches are node-sized in every caller (split candidates,
    medoid sets, pivot pairs), so the ``n x n`` output is materialized;
    tiling bounds only the upcast buffers and the cross-product calls.
    The cross term is symmetrized as ``C + C^T`` exactly like
    :func:`repro.kernels.gram.qfd_squared_pairwise`.
    """
    n = rows.shape[0]
    if row_norms is None:
        row_norms = blocked_qfd_row_norms(matrix, rows, block_rows=block_rows)
    cross = np.empty((n, n), dtype=np.float64)
    for a0, a1 in iter_blocks(n, block_rows):
        a_tile = _tile64(rows, a0, a1)
        g = np.empty_like(a_tile)
        for i in range(a_tile.shape[0]):
            np.matmul(a_tile[i], matrix, out=g[i])
        for b0, b1 in iter_blocks(n, block_rows):
            b_tile = _tile64(rows, b0, b1)
            np.einsum("ik,jk->ij", g, b_tile, out=cross[a0:a1, b0:b1])
    sq = row_norms[:, None] + row_norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= RECHECK_REL * (row_norms[:, None] + row_norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    for i, j in zip(ii, jj):
        u = np.asarray(rows[i], dtype=np.float64)
        v = np.asarray(rows[j], dtype=np.float64)
        exact = _qfd_exact_sq(matrix, u, v)
        sq[i, j] = exact
        sq[j, i] = exact
    return np.sqrt(np.maximum(sq, 0.0))


def blocked_l2_pairwise(
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
    block_rows: int | None = None,
) -> np.ndarray:
    """Exactly-symmetric L2 distance matrix over *rows* (zero diagonal)."""
    n = rows.shape[0]
    if row_norms is None:
        row_norms = blocked_l2_row_norms(rows, block_rows=block_rows)
    cross = np.empty((n, n), dtype=np.float64)
    for a0, a1 in iter_blocks(n, block_rows):
        a_tile = _tile64(rows, a0, a1)
        for b0, b1 in iter_blocks(n, block_rows):
            b_tile = _tile64(rows, b0, b1)
            np.einsum("ik,jk->ij", a_tile, b_tile, out=cross[a0:a1, b0:b1])
    sq = row_norms[:, None] + row_norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= RECHECK_REL * (row_norms[:, None] + row_norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    for i, j in zip(ii, jj):
        diff = np.asarray(rows[i], dtype=np.float64) - np.asarray(rows[j], dtype=np.float64)
        exact = np.dot(diff, diff)
        sq[i, j] = exact
        sq[j, i] = exact
    return np.sqrt(np.maximum(sq, 0.0))
