"""The sequential file — the naïve referential MAM (paper Section 4.1).

A flat binary file built by appending inserted objects; every query scans
all ``m`` objects and computes ``d(q, o_i)`` regardless of selectivity.
"Although this kind of 'MAM' is not very smart, it is a baseline structure
that also can take advantage of the QMap model": under QFD each of the
``m`` distances costs O(n^2); after the QMap transform they cost O(n).

Two variants are provided:

* :class:`SequentialFile` — in-memory rows (the default everywhere).
* :class:`DiskSequentialFile` — rows behind the paged storage substrate,
  used by the disk-cache ablation (bench E_A4).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import record_candidates
from ..obs.events import (
    ROOT,
    emit_candidate_verify,
    emit_node_enter,
    emit_result_add,
    events_enabled,
)
from ..storage.vector_store import VectorStore
from .base import (
    AccessMethod,
    DistancePort,
    Neighbor,
    _KnnHeap,
    neighbors_from_distances,
    state_float,
    state_int,
    state_str,
)

__all__ = ["SequentialFile", "DiskSequentialFile"]


class SequentialFile(AccessMethod):
    """Flat in-memory sequential scan.

    Building is a no-op beyond storing the rows (``O(mn)`` time in the QFD
    model; the QMap model additionally pays the O(n^2)-per-vector transform
    — the single row of Table 1 where the QFD model wins).
    """

    #: A scan is one ``port.many`` over the database rows; with a blocked
    #: kernel that streams cache-sized tiles of a memory-mapped store.
    supports_out_of_core = True

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        tok = emit_node_enter(ROOT, "scan")
        distances = self._port.many(query, self._data)
        record_candidates(self.size)
        hits = np.flatnonzero(distances <= radius)
        if tok >= 0:
            emit_candidate_verify(tok, -1, float("nan"), count=self.size)
            for idx in hits:
                emit_result_add(tok, int(idx), float(distances[idx]))
        return neighbors_from_distances(distances[hits], hits)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        tok = emit_node_enter(ROOT, "scan")
        distances = self._port.many(query, self._data)
        record_candidates(self.size)
        if tok >= 0:
            emit_candidate_verify(tok, -1, float("nan"), count=self.size)
        # argpartition gets the k smallest; explicit sort fixes tie order.
        order = np.argpartition(distances, k - 1)[:k]
        return neighbors_from_distances(distances[order], order)

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Appending the row is the entire build — nothing else to update."""


class DiskSequentialFile(AccessMethod):
    """Sequential file on the paged-disk substrate.

    The scan walks the pages of a :class:`~repro.storage.VectorStore`
    through its fixed-size LRU cache, so query cost decomposes into
    distance computations plus physical page reads — exactly the two
    components whose interplay Section 5.3 discusses.

    Parameters
    ----------
    database:
        Rows to index (appended to the store at construction).
    distance:
        Black-box distance (port or plain callable).
    page_size, cache_pages, read_latency, dtype:
        Forwarded to the :class:`~repro.storage.VectorStore`.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        page_size: int = 4096,
        cache_pages: int = 64,
        read_latency: float = 0.0,
        dtype: str = "float64",
    ) -> None:
        super().__init__(database, distance)
        self._store_config = {
            "page_size": int(page_size),
            "cache_pages": int(cache_pages),
            "read_latency": float(read_latency),
            "dtype": str(np.dtype(dtype)),
        }
        self._build_store()
        # The in-memory copy is kept only for the AccessMethod API
        # (database property used by correctness tests); queries below go
        # through the store.

    def _build_store(self) -> None:
        cfg = self._store_config
        self._store = VectorStore(
            self.dim,
            page_size=cfg["page_size"],
            cache_pages=cfg["cache_pages"],
            read_latency=cfg["read_latency"],
            dtype=cfg["dtype"],
        )
        self._store.extend(self._data)

    def structural_state(self) -> dict[str, np.ndarray]:
        cfg = self._store_config
        return {
            "page_size": np.int64(cfg["page_size"]),
            "cache_pages": np.int64(cfg["cache_pages"]),
            "read_latency": np.float64(cfg["read_latency"]),
            "dtype": np.str_(cfg["dtype"]),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        self._store_config = {
            "page_size": state_int(state, "page_size"),
            "cache_pages": state_int(state, "cache_pages"),
            "read_latency": state_float(state, "read_latency"),
            "dtype": state_str(state, "dtype"),
        }
        super()._restore_state(state)
        # Rebuilding the paged store is pure byte I/O — no distances.
        self._build_store()

    @property
    def store(self) -> VectorStore:
        """The paged vector store (for cache statistics)."""
        return self._store

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        out: list[Neighbor] = []
        for first_index, rows in self._store.scan_pages():
            tok = emit_node_enter(ROOT, f"page@{first_index}" if events_enabled() else "")
            distances = self._port.many(query, rows)
            record_candidates(rows.shape[0])
            if tok >= 0:
                emit_candidate_verify(tok, -1, float("nan"), count=int(rows.shape[0]))
            for offset in np.flatnonzero(distances <= radius):
                neighbor = Neighbor(float(distances[offset]), first_index + int(offset))
                out.append(neighbor)
                emit_result_add(tok, neighbor.index, neighbor.distance)
        return out

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        heap = _KnnHeap(k)
        for first_index, rows in self._store.scan_pages():
            tok = emit_node_enter(ROOT, f"page@{first_index}" if events_enabled() else "")
            distances = self._port.many(query, rows)
            record_candidates(rows.shape[0])
            if tok >= 0:
                emit_candidate_verify(tok, -1, float("nan"), count=int(rows.shape[0]))
            for offset, dist in enumerate(distances):
                heap.offer(float(dist), first_index + offset)
        return heap.neighbors()

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Append the record to the paged store (one page write-through)."""
        self._store.append(vector)
