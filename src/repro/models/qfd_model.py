"""The QFD model: index raw histograms under the black-box QFD (Section 4).

This is the "straightforward" configuration the paper argues *against* for
static matrices: every distance evaluation — during indexing as well as
querying — pays the full O(n^2) quadratic form.  The number of evaluations
per operation is identical to the QMap model's (distances are the same);
only the per-evaluation cost differs.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from .._typing import ArrayLike, as_vector_batch
from ..core.qfd import QuadraticFormDistance
from ..distances.base import CountingDistance
from ..exceptions import QueryError
from ..obs import span
from .base import (
    SAM_REGISTRY,
    BuiltIndex,
    IndexCosts,
    instantiate,
    record_build_metrics,
    resolve_store,
    restore_distance,
)

__all__ = ["QFDModel"]


class QFDModel:
    """Builds access methods directly over the QFD space.

    Parameters
    ----------
    qfd:
        The static quadratic form distance (or a raw QFD matrix).
    """

    name = "qfd"

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike) -> None:
        if not isinstance(qfd, QuadraticFormDistance):
            qfd = QuadraticFormDistance(qfd)
        self._qfd = qfd

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The model's distance function."""
        return self._qfd

    @property
    def dim(self) -> int:
        """Histogram dimensionality ``n``."""
        return self._qfd.dim

    def build_index(
        self,
        method: str,
        database: ArrayLike,
        *,
        store: str = "heap",
        store_dtype: Any = None,
        store_path: "str | None" = None,
        block_rows: int | None = None,
        **kwargs: Any,
    ) -> BuiltIndex:
        """Build the named access method over *database*.

        SAM methods are rejected: a coordinate index built for rectangles
        cannot answer QFD ball queries without ellipsoid-aware bounds,
        which is precisely the paper's Section 2.1 caveat.  Use the QMap
        model for SAMs.

        ``store="mmap"`` indexes a memory-mapped record store (built from
        *database* if it is not already a
        :class:`~repro.storage.MmapVectorStore`) and defaults
        ``block_rows`` on, so out-of-core capable methods stream the rows
        through the blocked kernels instead of materializing them.
        """
        if method in SAM_REGISTRY:
            raise QueryError(
                f"SAM {method!r} cannot index the raw QFD space; transform "
                "it with the QMap model first (paper Section 2.4)"
            )
        if store == "mmap" and block_rows is None:
            from ..kernels import DEFAULT_BLOCK_ROWS

            block_rows = DEFAULT_BLOCK_ROWS
        data, backing = resolve_store(
            database, self.dim, store=store, store_dtype=store_dtype,
            store_path=store_path,
        )
        counter = CountingDistance(self._qfd)
        with span(f"build/{method}", model=self.name):
            start = time.perf_counter()
            am = instantiate(method, data, counter, kwargs, block_rows=block_rows)
            elapsed = time.perf_counter() - start
        if backing is not None:
            # The rows view aliases the mapping; pin the store to the index
            # so the file outlives every query against it.
            am._backing_store = backing
        build_costs = IndexCosts(
            distance_computations=counter.count, transforms=0, seconds=elapsed
        )
        record_build_metrics(
            am, counter, model=self.name, method=method, block_rows=block_rows,
            seconds=elapsed,
        )
        counter.reset()
        return BuiltIndex(
            am,
            counter,
            model_name=self.name,
            query_mapper=None,
            build_costs=build_costs,
            method_name=method,
            source_matrix=self._qfd.matrix,
        )

    def load_index(
        self,
        source: Any,
        *,
        verify: bool = True,
        store: str = "heap",
        store_path: "str | None" = None,
        block_rows: int | None = None,
    ) -> BuiltIndex:
        """Restore a :meth:`BuiltIndex.save` snapshot into this model.

        *source* is a snapshot path (or an already-read
        :class:`~repro.persistence.IndexSnapshot`).  The snapshot must
        have been saved by the QFD model with this model's matrix; both
        are checked before any structure is rebuilt.  Restoring performs
        **zero** distance evaluations — the saved structure is re-wired,
        not rebuilt (``build_costs.distance_computations == 0``).

        ``store="mmap"`` spills the archived rows into a memory-mapped
        store (block by block — the heap never holds the full database)
        and re-wires the structure over its pages, still at zero
        evaluations; ``block_rows`` defaults on in that case.
        """
        from ..exceptions import StorageError
        from ..persistence import IndexSnapshot, load_index, read_snapshot

        snapshot = (
            source if isinstance(source, IndexSnapshot) else read_snapshot(source)
        )
        label = snapshot.path or "snapshot"
        model = str(snapshot.meta.get("model", "<missing>"))
        if model != self.name:
            raise StorageError(
                f"{label} was saved by the {model!r} model, expected {self.name!r}"
            )
        matrix = snapshot.meta.get("matrix")
        if matrix is None or not np.allclose(
            np.asarray(matrix, dtype=np.float64), self._qfd.matrix,
            rtol=1e-9, atol=1e-12,
        ):
            raise StorageError(
                f"{label}: snapshot's QFD matrix disagrees with the model's "
                "(wrong matrix?)"
            )
        if snapshot.method in SAM_REGISTRY:
            raise QueryError(
                f"SAM {snapshot.method!r} cannot index the raw QFD space; "
                "transform it with the QMap model first (paper Section 2.4)"
            )
        counter = CountingDistance(self._qfd)
        distance, backing = restore_distance(
            counter, snapshot, store=store, store_path=store_path,
            block_rows=block_rows,
        )
        with span(f"load/{snapshot.method}", model=self.name):
            start = time.perf_counter()
            am = load_index(
                snapshot,
                distance,
                verify=verify,
                database=None if backing is None else backing.rows,
            )
            elapsed = time.perf_counter() - start
        if backing is not None:
            am._backing_store = backing
        build_costs = IndexCosts(
            distance_computations=counter.count, transforms=0, seconds=elapsed
        )
        record_build_metrics(
            am, counter, model=self.name, method=snapshot.method,
            seconds=elapsed, event="load",
        )
        counter.reset()
        return BuiltIndex(
            am,
            counter,
            model_name=self.name,
            query_mapper=None,
            build_costs=build_costs,
            method_name=snapshot.method,
            source_matrix=self._qfd.matrix,
        )

    def distance(self, u: ArrayLike, v: ArrayLike) -> float:
        """One exact QFD evaluation (convenience passthrough)."""
        return self._qfd(u, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QFDModel(dim={self.dim})"
