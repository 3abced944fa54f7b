"""Common interfaces of the access methods (paper Sections 2 and 4).

All indexes in :mod:`repro.mam` and :mod:`repro.sam` implement
:class:`AccessMethod`: they are built over an ``(m, n)`` database of row
vectors plus a black-box distance function, and answer the paper's two
query types —

* **range query** ``(q, rad)``: all objects within distance ``rad`` of ``q``;
* **kNN query** ``(q, k)``: the ``k`` nearest objects.

Results are :class:`Neighbor` records ordered by distance (ties broken by
index) so that every method's answer can be compared bit-for-bit with the
sequential scan in the correctness tests.

The distance is always accessed through :class:`DistancePort`, which
understands plain callables as well as
:class:`~repro.distances.base.CountingDistance` wrappers and optional
vectorized one-to-many forms.  The evaluation counters behind that port are
the cost measure of the complexity experiments (Tables 1 and 2).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .._typing import ArrayLike, as_vector, as_vector_batch
from ..distances.base import CountingDistance
from ..engine.trace import current_trace, run_traced
from ..exceptions import EmptyIndexError, IndexStateError, QueryError, StorageError
from ..kernels.gram import PIVOT_RECHECK_REL, RECHECK_REL
from ..obs.events import emit_charge

if TYPE_CHECKING:
    from ..engine.batch import BatchExecutor
    from ..engine.trace import QueryTrace, TraceCollector

__all__ = [
    "Neighbor",
    "DistancePort",
    "BoundQuery",
    "AccessMethod",
    "NodeBatchedSearchMixin",
    "PRUNE_SLACK_REL",
    "prune_slack",
    "pivot_limit",
    "neighbors_from_distances",
    "state_array",
    "state_int",
    "state_float",
    "state_str",
]


# ----------------------------------------------------------------------
# structural-state helpers (snapshot protocol)
# ----------------------------------------------------------------------

def state_array(
    state: dict[str, np.ndarray], key: str, *, dtype: object | None = None
) -> np.ndarray:
    """Pop a required array from a structural-state dict.

    Raises :class:`~repro.exceptions.StorageError` when the key is absent,
    so a snapshot written for a different method (or a truncated file)
    fails loudly instead of surfacing as a ``KeyError`` deep in a restore.
    """
    try:
        value = state.pop(key)
    except KeyError:
        raise StorageError(f"snapshot state is missing {key!r}") from None
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return arr


def state_int(state: dict[str, np.ndarray], key: str) -> int:
    """Pop a scalar integer from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return int(arr.reshape(()))


def state_float(state: dict[str, np.ndarray], key: str) -> float:
    """Pop a scalar float from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return float(arr.reshape(()))


def state_str(state: dict[str, np.ndarray], key: str) -> str:
    """Pop a scalar string from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return str(arr.reshape(()))

#: Relative slack for pruning tests that compare kernel-evaluated query
#: distances against build-stored bounds (covering radii, parent
#: distances, vantage medians, GNAT ranges).  Those bounds are frequently
#: *exactly tight* — a covering radius IS some member's build-time
#: distance — and the batched Gram kernels agree with the build
#: arithmetic only to the last few ulps, so a self-query (or an exact
#: duplicate) would otherwise prune the very subtree holding its zero-
#: distance match.  Slack only ever admits a subtree, never excludes one,
#: so results stay exact; at 1e-12 relative it changes which nodes are
#: visited only at bitwise-boundary coincidences, where the pre-kernel
#: scalar arithmetic visited the node too.
PRUNE_SLACK_REL = 1e-12


def prune_slack(*terms: float) -> float:
    """Ulp-scale tolerance for a pruning comparison involving *terms*."""
    total = 0.0
    for t in terms:
        total += abs(t)
    return PRUNE_SLACK_REL * total


def pivot_limit(radius: float, reach: float, error: float = 0.0) -> float:
    """Threshold of a pivot-filter test at *radius*.

    Pivot filters compare build-time ``d(o, p)`` with query-time
    ``d(q, p)``, evaluated with query and row in swapped roles, so even a
    self-query's pivot bound can come out above 0.  Two allowances cover
    the rounding: a relative one scaled by *reach*, the query's largest
    pivot distance (difference-form and scalar distances), and *error*,
    the absolute bound of :attr:`BoundQuery.pivot_error` (Gram-expanded
    distances).  Slack only ever admits a candidate, so the filter keeps
    every object whose exact distance is within *radius*.
    """
    return radius + prune_slack(radius, reach, reach) + error


@dataclass(frozen=True, order=True)
class Neighbor:
    """One query answer: the object's distance and database index.

    Ordering is by ``(distance, index)``, the deterministic convention all
    access methods share.
    """

    distance: float
    index: int


class DistancePort:
    """Uniform access to a distance function, scalar or vectorized.

    Every batched evaluation takes one route per distance.  A distance
    with a Gram kernel (the static QFD, the Euclidean distance; see
    :func:`~repro.kernels.kernels.resolve_kernel`) is evaluated through
    that kernel only: :meth:`many` calls ``kernel.one_to_many`` with the
    cached row norms of the attached database, and :meth:`bind_query`
    returns a :class:`BoundQuery` whose candidates then cost O(n) each.
    Distances without a kernel (SQFD, L1, ...) fall back to their own
    vectorized ``one_to_many`` form, else a scalar loop.

    Parameters
    ----------
    func:
        ``d(u, v) -> float``, possibly wrapped in a
        :class:`~repro.distances.base.CountingDistance`.
    one_to_many:
        Optional vectorized ``d1m(q, rows) -> ndarray`` for a distance
        with no kernel (ignored when *func* brings its own).
    use_kernel:
        ``False`` disables the kernel route (reference paths in tests).
    block_rows:
        Tile height of the kernel route.  When set, the kernel streams
        batches through the block-size-invariant primitives of
        :mod:`repro.kernels.blocked` — the out-of-core configuration for
        memory-mapped float32 databases; ``None`` uses the unblocked BLAS
        forms.

    Notes
    -----
    Batched evaluation counts one logical distance computation per row —
    the same cost model the paper uses, where vectorization changes
    constants but not the number of distances.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray, np.ndarray], float],
        *,
        one_to_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        use_kernel: bool = True,
        block_rows: int | None = None,
    ) -> None:
        self._func = func
        counter = func if isinstance(func, CountingDistance) else None
        self._counter = counter
        # Uncounted forms: every evaluation is computed through these and
        # charged by the *logical* access pattern in :meth:`charge`, so it
        # must never go through the counting wrappers.
        self._scalar_uncounted = counter.func if counter is not None else func
        if counter is not None:
            self._vector_uncounted = counter.vectorized
        else:
            bound = getattr(func, "one_to_many", None)
            self._vector_uncounted = bound if callable(bound) else one_to_many
        self._block_rows = block_rows
        if use_kernel:
            from ..kernels.kernels import resolve_kernel  # kernels sit below mam

            self._kernel = resolve_kernel(func, block_rows=block_rows)
        else:
            self._kernel = None
        if block_rows is not None and self._kernel is None:
            raise QueryError(
                "block_rows requires a kernel-backed distance (QFD or "
                "Euclidean); this distance has no batched kernel"
            )
        self._norms: np.ndarray | None = None
        self._norms_source: np.ndarray | None = None
        # max(vAv^T) over the cached norms: the row side of the per-query
        # rounding allowances (BoundQuery.pivot_error and .slack).
        self._norms_max = 0.0

    def pair(self, u: np.ndarray, v: np.ndarray) -> float:
        """One distance evaluation, charged as a scalar call."""
        self.charge(calls=1)
        return float(self._scalar_uncounted(u, v))

    def many(
        self, q: np.ndarray, rows: np.ndarray, *, pivot: bool = False
    ) -> np.ndarray:
        """Distances from *q* to every row of *rows*.

        ``pivot=True`` marks pivot distances that a filter will compare
        with query-time ones: the kernel then rechecks at
        :data:`~repro.kernels.gram.PIVOT_RECHECK_REL`, which keeps them
        within :attr:`BoundQuery.pivot_error`.
        """
        n = int(rows.shape[0])
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if self._kernel is not None:
            # The kernel route, with the cached database norms when *rows*
            # is the attached store (a build-time pivot column, a scan).
            self.charge(rows=n)
            norms = self._norms if rows is self._norms_source else None
            return self._kernel.one_to_many(
                q, rows, row_norms=norms, recheck_rel=_recheck_rel(pivot)
            )
        # One batched row each, as CountingDistance.one_to_many counts
        # (its loop fallback included); only a plain scalar function with
        # no counter is charged scalar calls.
        vector = self._vector_uncounted
        if vector is not None or self._counter is not None:
            self.charge(rows=n)
        else:
            self.charge(calls=n)
        if vector is not None:
            return np.asarray(vector(q, rows), dtype=np.float64)
        return np.array(
            [self._scalar_uncounted(q, row) for row in rows], dtype=np.float64
        )

    def pair_uncounted(self, u: np.ndarray, v: np.ndarray) -> float:
        """One distance evaluation outside the counting paths.

        Used by snapshot integrity probes: restoring an index must perform
        *zero* logical distance computations (the whole point of persisting
        the structure), yet a loaded file should still be cross-checked
        against the supplied metric — so the probe bypasses the
        :class:`~repro.distances.base.CountingDistance` wrapper.
        """
        return float(self._scalar_uncounted(u, v))

    @property
    def raw(self) -> Callable[[np.ndarray, np.ndarray], float]:
        """The wrapped scalar distance function."""
        return self._func

    @property
    def kernel(self):
        """The resolved batched kernel, or ``None``."""
        return self._kernel

    @property
    def block_rows(self) -> int | None:
        """Tile height of the blocked kernels (``None`` = unblocked)."""
        return self._block_rows

    def charge(self, *, calls: int = 0, rows: int = 0) -> None:
        """Charge logical evaluations: the one place an evaluation is counted.

        Writes to the wrapped :class:`CountingDistance` (if any), the
        thread's active :class:`~repro.engine.trace.QueryTrace` and the
        active EXPLAIN event buffer, keeping the scalar/batched split
        intact.  :meth:`pair`, :meth:`many` and every :class:`BoundQuery`
        evaluation compute through the uncounted forms and charge here.
        """
        if self._counter is not None and (calls or rows):
            self._counter.add_counts(calls=calls, batch_rows=rows)
        trace = current_trace()
        if trace is not None:
            trace.scalar_evaluations += calls
            trace.batched_evaluations += rows
        emit_charge(calls=calls, rows=rows)

    def attach_database(
        self, data: np.ndarray, *, extends: np.ndarray | None = None
    ) -> None:
        """Precompute and cache the per-row norms for *data* (build time).

        *extends* is the previously attached array when *data* is that
        array with rows appended (a dynamic insert): only the new rows'
        norms are computed, so an insert costs O(n^2), not O(m n^2).
        """
        if (
            self._kernel is not None
            and extends is not None
            and extends is self._norms_source
        ):
            tail = self._kernel.row_norms(data[extends.shape[0] :])
            norms = np.concatenate([self._norms, tail])
            norms.setflags(write=False)
            self._norms = norms
            self._norms_source = data
            if tail.size:
                self._norms_max = max(self._norms_max, float(tail.max()))
            return
        self._norms_for(data)

    def _norms_for(self, data: np.ndarray) -> np.ndarray | None:
        """Cached kernel row norms for *data* (recomputed if the array changed).

        Identity-keyed: dynamic inserts replace the database array, which
        invalidates the cache wholesale — one cheap matrix product rebuilds
        it on the next bound query.
        """
        if self._kernel is None:
            return None
        if data is not self._norms_source:
            norms = self._kernel.row_norms(data)
            norms.setflags(write=False)
            self._norms = norms
            self._norms_source = data
            self._norms_max = float(norms.max()) if norms.size else 0.0
        return self._norms

    def bind_query(self, query: np.ndarray, data: np.ndarray | None = None) -> "BoundQuery":
        """Bind *query* into a :class:`BoundQuery` evaluation context.

        With a kernel, this precomputes the per-query Gram terms (``qA``,
        ``qAq^T``) once; *data* enables the cached per-row norms so each
        candidate distance afterwards is O(n).
        """
        norms = self._norms_for(data) if data is not None else None
        ctx = self._kernel.bind(query) if self._kernel is not None else None
        return BoundQuery(self, query, ctx, norms, self._norms_max)

    def pairwise(self, rows: np.ndarray, *, charge: bool = True) -> np.ndarray:
        """Symmetric distance matrix over *rows* (zero diagonal).

        Charges ``n(n-1)/2`` batched rows — the logical cost of evaluating
        each unordered pair once, exactly what the suffix one-to-many loops
        it replaces used to charge.  Pass ``charge=False`` when the caller
        replays a different logical pattern and charges it explicitly.
        """
        n = rows.shape[0]
        if self._kernel is not None:
            out = self._kernel.pairwise(rows)
        else:
            out = np.zeros((n, n), dtype=np.float64)
            if self._vector_uncounted is not None:
                for i in range(n - 1):
                    d = np.asarray(
                        self._vector_uncounted(rows[i], rows[i + 1 :]), dtype=np.float64
                    )
                    out[i, i + 1 :] = d
                    out[i + 1 :, i] = d
            else:
                for i in range(n - 1):
                    for j in range(i + 1, n):
                        d = float(self._scalar_uncounted(rows[i], rows[j]))
                        out[i, j] = d
                        out[j, i] = d
        if charge:
            self.charge(rows=n * (n - 1) // 2)
        return out

    def cross(
        self, rows_a: np.ndarray, rows_b: np.ndarray, *, charge: bool = True
    ) -> np.ndarray:
        """``(len(a), len(b))`` distance matrix between two row batches.

        Charges ``len(a) * len(b)`` batched rows unless ``charge=False``.
        """
        if self._kernel is not None:
            out = self._kernel.cross(rows_a, rows_b)
        elif self._vector_uncounted is not None:
            out = np.stack(
                [
                    np.asarray(self._vector_uncounted(row, rows_b), dtype=np.float64)
                    for row in rows_a
                ]
            )
        else:
            out = np.array(
                [
                    [float(self._scalar_uncounted(a, b)) for b in rows_b]
                    for a in rows_a
                ],
                dtype=np.float64,
            )
        if charge:
            self.charge(rows=rows_a.shape[0] * rows_b.shape[0])
        return out


def _recheck_rel(pivot: bool) -> float:
    return PIVOT_RECHECK_REL if pivot else RECHECK_REL


class BoundQuery:
    """One query bound to a :class:`DistancePort` for repeated evaluation.

    Holds the per-query kernel context (``qA``/``qAq^T`` for QFD) and the
    database's cached row norms, so every candidate evaluation during a
    traversal is O(n).  Physical evaluation is batched; *charging* follows
    the traversal's logical access pattern through the explicit ``charge``
    arguments — ``"calls"`` for loops that used to make per-entry scalar
    calls, ``"rows"`` for sites that were already one-to-many batches, and
    ``None`` for speculative evaluation the caller replays and charges
    itself.  This is what keeps the paper's distance counts bit-identical
    under the kernel rewrite.
    """

    __slots__ = ("_port", "_query", "_ctx", "_norms", "_norms_max", "_prune_error")

    def __init__(
        self,
        port: DistancePort,
        query: np.ndarray,
        ctx,
        norms: np.ndarray | None,
        norms_max: float = 0.0,
    ) -> None:
        self._port = port
        self._query = query
        self._ctx = ctx
        self._norms = norms
        self._norms_max = norms_max
        # Once per query: the absolute allowance every prune test adds.
        self._prune_error = (
            ctx.prune_error(norms_max)
            if ctx is not None and norms is not None and norms.size
            else 0.0
        )

    @property
    def query(self) -> np.ndarray:
        """The bound query vector."""
        return self._query

    def charge_calls(self, n: int) -> None:
        """Charge *n* logical scalar evaluations (replayed loops)."""
        if n:
            self._port.charge(calls=n)

    def charge_rows(self, n: int) -> None:
        """Charge *n* logical batched-row evaluations (replayed batches)."""
        if n:
            self._port.charge(rows=n)

    @property
    def pivot_error(self) -> float:
        """Absolute rounding allowance of a pivot-filter comparison.

        Bounds the rounding in ``|d(q, p) - d(o, p)|`` when this query's
        pivot distances and the stored ones were both evaluated with
        ``pivot=True`` (see :func:`pivot_limit`).  Zero when no Gram
        expansion is involved.
        """
        if self._ctx is None or self._norms is None or self._norms.size == 0:
            return 0.0
        return self._ctx.pivot_error(self._norms_max)

    def slack(self, a: float, b: float) -> float:
        """Tolerance of a tree prune test on this query's distances.

        Tree MAMs compare the query's distance to a routing object (an
        M-tree routing entry, a vantage point, a GNAT split, a SAT node)
        with a stored bound.  The first term equals ``prune_slack(a, b)``,
        the relative rounding of the two sides (scalars or arrays).  A
        Gram-expanded distance's error is absolute instead, bounded by
        ``gram.distance_error`` of the query norm plus the largest cached
        row norm, for the query's distance and for a stored one (covering
        radii and parent distances of node splits come from the Gram
        pairwise form).  That term is computed once per query and is zero
        without a Gram expansion (the L2 context).
        """
        return PRUNE_SLACK_REL * (abs(a) + abs(b)) + self._prune_error

    def compute_many(
        self,
        rows: np.ndarray,
        indices: np.ndarray | Sequence[int] | None = None,
        *,
        pivot: bool = False,
    ) -> np.ndarray:
        """Physically evaluate query-to-rows distances without charging.

        *indices* are the rows' database indices; when every index is valid
        the cached row norms are used (the O(n)-per-candidate hot path).
        ``pivot=True`` evaluates pivot distances (see
        :meth:`DistancePort.many`).
        """
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        if self._ctx is not None:
            norms = None
            if self._norms is not None and indices is not None:
                idx = np.asarray(indices, dtype=np.intp)
                if idx.size == 0 or idx.min() >= 0:
                    norms = self._norms[idx]
            return self._ctx.many(rows, norms, recheck_rel=_recheck_rel(pivot))
        vector = self._port._vector_uncounted
        if vector is not None:
            return np.asarray(vector(self._query, rows), dtype=np.float64)
        scalar = self._port._scalar_uncounted
        return np.array([scalar(self._query, row) for row in rows], dtype=np.float64)

    def many(
        self,
        rows: np.ndarray,
        indices: np.ndarray | Sequence[int] | None = None,
        *,
        charge: str | None = "rows",
        pivot: bool = False,
    ) -> np.ndarray:
        """Query-to-rows distances, charged per *charge* category."""
        out = self.compute_many(rows, indices, pivot=pivot)
        n = int(out.shape[0])
        if n and charge == "rows":
            self._port.charge(rows=n)
        elif n and charge == "calls":
            self._port.charge(calls=n)
        return out

    def one(self, row: np.ndarray, index: int | None = None) -> float:
        """One query-to-row distance, charged as a scalar call."""
        self._port.charge(calls=1)
        if self._ctx is not None:
            norm = None
            if self._norms is not None and index is not None and index >= 0:
                norm = float(self._norms[index])
            return self._ctx.one(row, norm)
        return float(self._port._scalar_uncounted(self._query, row))


def neighbors_from_distances(
    distances: ArrayLike, indices: Sequence[int] | np.ndarray | None = None
) -> list[Neighbor]:
    """Sorted :class:`Neighbor` list from parallel distance/index arrays."""
    dist = np.asarray(distances, dtype=np.float64)
    if indices is None:
        idx: Sequence[int] = range(dist.shape[0])
    else:
        idx = list(indices)
    out = [Neighbor(float(d), int(i)) for d, i in zip(dist, idx)]
    out.sort()
    return out


class AccessMethod(ABC):
    """Base class for all metric/spatial access methods.

    Subclasses receive the database and the distance at construction,
    perform any build work there (or via dynamic inserts), and implement
    :meth:`_range_search` / :meth:`_knn_search`.  Argument validation and
    result-ordering guarantees live here so every index behaves uniformly.
    """

    #: Whether this structure's build and search touch vector data only
    #: through the :class:`DistancePort` batch paths and per-row copies —
    #: the contract that lets a blocked port keep the database as a raw
    #: float32 memmap view instead of a heap-resident float64 copy.
    supports_out_of_core = False

    def __init__(self, database: ArrayLike, distance: DistancePort | Callable) -> None:
        port = distance if isinstance(distance, DistancePort) else DistancePort(distance)
        data = self._coerce_database(database, port)
        if data.shape[0] == 0:
            raise EmptyIndexError("cannot build an index over an empty database")
        self._data = data
        self._port = port
        # Row norms (vAv^T) for the whole store, computed once at build
        # time; bound queries reuse them for O(n)-per-candidate evaluation.
        self._port.attach_database(self._data)

    def _coerce_database(self, database: ArrayLike, port: DistancePort) -> np.ndarray:
        """The stored database array for *database*.

        Default: a validated float64 heap copy (`as_vector_batch`), the
        arithmetic every existing path is pinned to.  Under a blocked
        port, out-of-core-capable structures keep a dense float32/float64
        2-D array (typically an :class:`~repro.storage.mmap_store
        .MmapVectorStore` row view) as-is — zero copies; the blocked
        kernels upcast tile by tile.
        """
        if (
            port.block_rows is not None
            and type(self).supports_out_of_core
            and isinstance(database, np.ndarray)
            and database.ndim == 2
            and database.dtype in (np.float32, np.float64)
        ):
            return database
        return as_vector_batch(database, name="database")

    @property
    def database(self) -> np.ndarray:
        """The indexed ``(m, n)`` database (row order = object index)."""
        return self._data

    @property
    def size(self) -> int:
        """Number of indexed objects ``m``."""
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        """Vector dimensionality ``n``."""
        return self._data.shape[1]

    @property
    def distance(self) -> DistancePort:
        """The distance port used for every evaluation."""
        return self._port

    def range_search(self, query: ArrayLike, radius: float) -> list[Neighbor]:
        """All objects within *radius* of *query*, sorted by distance."""
        q = as_vector(query, self.dim, name="query")
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        result = self._range_search(q, float(radius))
        result.sort()
        return result

    def knn_search(self, query: ArrayLike, k: int) -> list[Neighbor]:
        """The *k* nearest objects (fewer only if the database is smaller)."""
        q = as_vector(query, self.dim, name="query")
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        result = self._knn_search(q, min(k, self.size))
        result.sort()
        return result

    def range_search_batch(
        self,
        queries: ArrayLike,
        radius: float,
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: "TraceCollector | None" = None,
    ) -> list[list[Neighbor]]:
        """Range queries for a whole batch, one result list per query.

        Results are bit-identical to looping :meth:`range_search`; the
        batch form validates once, lets structures with a vectorized
        batch hook amortize their scans, and can fan chunks out over a
        thread or process pool (see :mod:`repro.engine`).  Attach a
        :class:`~repro.engine.trace.TraceCollector` to receive one
        :class:`~repro.engine.trace.QueryTrace` per query.
        """
        from ..engine.batch import run_query_batch  # engine sits above mam

        return run_query_batch(
            self,
            "range",
            queries,
            float(radius),
            executor=executor,
            workers=workers,
            chunk_size=chunk_size,
            collector=collector,
        )

    def knn_search_batch(
        self,
        queries: ArrayLike,
        k: int,
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: "TraceCollector | None" = None,
    ) -> list[list[Neighbor]]:
        """kNN for a whole batch of queries; see :meth:`range_search_batch`."""
        from ..engine.batch import run_query_batch  # engine sits above mam

        return run_query_batch(
            self,
            "knn",
            queries,
            k,
            executor=executor,
            workers=workers,
            chunk_size=chunk_size,
            collector=collector,
        )

    def _range_search_batch(
        self,
        queries: np.ndarray,
        radius: float,
        traces: "list[QueryTrace] | None" = None,
    ) -> list[list[Neighbor]]:
        """Chunk hook: already-validated queries, sorted per-query results.

        The default runs the single-query search per row under that
        query's trace; subclasses with genuinely vectorizable batch
        plans (the pivot table) override it.
        """
        return run_traced(
            queries.shape[0],
            lambda pos: self._range_search(queries[pos], radius),
            traces,
        )

    def _knn_search_batch(
        self,
        queries: np.ndarray,
        k: int,
        traces: "list[QueryTrace] | None" = None,
    ) -> list[list[Neighbor]]:
        """Chunk hook for kNN batches (*k* already clamped); see above."""
        return run_traced(
            queries.shape[0], lambda pos: self._knn_search(queries[pos], k), traces
        )

    # ------------------------------------------------------------------
    # structural snapshots (persistence protocol)
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        """Arrays describing the built structure, without the database.

        The returned dict holds only plain numeric/string numpy arrays —
        tree topology flattened to parallel index/float arrays, never
        vectors (recoverable from the database by object index) and never
        code objects — so :mod:`repro.persistence` can write it to a
        portable ``.npz`` archive.  Structures with no state beyond the
        stored rows (the sequential file) return an empty dict.
        """
        return {}

    @classmethod
    def from_state(
        cls,
        database: ArrayLike,
        distance: "DistancePort | Callable | None",
        state: dict[str, np.ndarray],
    ) -> "AccessMethod":
        """Reassemble an index from *database* plus a structural state.

        The inverse of :meth:`structural_state`: performs **zero** distance
        evaluations — every derived attribute is rebuilt from the stored
        arrays, never recomputed through the metric.  The caller is
        responsible for passing the same distance function the structure
        was built with (SAMs may pass ``None`` to rebuild their default
        Minkowski distance).
        """
        instance = cls.__new__(cls)
        instance._init_restore(database, distance, dict(state))
        return instance

    def _init_restore(
        self,
        database: ArrayLike,
        distance: "DistancePort | Callable | None",
        state: dict[str, np.ndarray],
    ) -> None:
        """Initialization path used by :meth:`from_state`.

        Subclasses whose constructor needs state *before* the base
        initialization (e.g. SAMs building their default distance from the
        stored Minkowski order) override this; everyone else just gets
        ``__init__``-equivalent base setup followed by
        :meth:`_restore_state`.
        """
        if distance is None:
            raise StorageError(
                f"{type(self).__name__} needs the distance function it was "
                "built with to restore a snapshot"
            )
        AccessMethod.__init__(self, database, distance)
        self._restore_state(state)

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Subclass hook rebuilding structure attributes from state arrays.

        Implementations pop the keys they own (via :func:`state_array` and
        friends) and finish with ``super()._restore_state(state)``, which
        rejects leftovers — a snapshot written by a different method or
        format version fails here instead of silently dropping data.
        """
        if state:
            raise StorageError(
                f"unexpected snapshot state keys for {type(self).__name__}: "
                f"{sorted(state)}"
            )

    def _verify_state_probe(self) -> None:
        """Cheap integrity probe of a restored structure (load-time check).

        Re-evaluates a sampled stored bound through
        :meth:`DistancePort.pair_uncounted` — keeping the zero-evaluation
        guarantee of :meth:`from_state` — and raises
        :class:`~repro.exceptions.StorageError` when the supplied distance
        disagrees with the stored structure.  The base implementation does
        nothing; structures with re-checkable bounds override it.
        """

    @property
    def supports_inserts(self) -> bool:
        """Whether this structure implements the dynamic-insert hook."""
        return type(self)._register_insert is not AccessMethod._register_insert

    def insert(self, vector: ArrayLike) -> int:
        """Dynamically insert one object, returning its new index.

        The paper's Section 6: the QMap model "allows similarity searching
        in dynamically changing databases without any distortion" — unlike
        the database-dependent SVD/KLT reductions of Section 2.3.1, whose
        embeddings degrade as the database drifts.  Every access method in
        this library therefore supports dynamic inserts; structures
        designed around static builds (vp-tree, GNAT, VA-file) absorb new
        objects into existing regions, which keeps queries exact at the
        cost of gradually looser partitions.

        The operation is atomic with respect to the stored database: if
        the structure does not support inserts, or its insert hook fails
        partway, the appended row is rolled back so ``size`` and queries
        are exactly as before the call.
        """
        v = as_vector(vector, self.dim, name="vector")
        if not self.supports_inserts:
            raise IndexStateError(
                f"{type(self).__name__} does not support dynamic inserts"
            )
        if isinstance(self._data, np.memmap) or self._data.dtype != np.float64:
            # vstack over an out-of-core store would materialize the
            # whole database on the heap — exactly what the mmap path
            # exists to avoid.  Out-of-core indexes are static.
            raise IndexStateError(
                "out-of-core (memory-mapped) indexes are static; rebuild "
                "the index to add objects"
            )
        index = self.size
        previous = self._data
        self._data = np.vstack([previous, v.reshape(1, -1)])
        self._port.attach_database(self._data, extends=previous)
        try:
            self._register_insert(index, self._data[index])
        except BaseException:
            self._data = previous
            raise
        return index

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Subclass hook updating the structure for a freshly stored row."""
        raise IndexStateError(
            f"{type(self).__name__} does not support dynamic inserts"
        )

    @abstractmethod
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """Subclass hook; may return results unsorted."""

    @abstractmethod
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """Subclass hook; may return results unsorted."""


class NodeBatchedSearchMixin:
    """Search plumbing for tree MAMs whose traversals use :class:`BoundQuery`.

    Subclasses implement ``_range_impl(bound, radius)`` and
    ``_knn_impl(bound, k)`` over a bound query; this mixin supplies the
    single-query hooks, which bind the query just before its search.  The
    batch engine runs them through the :class:`AccessMethod` chunk hooks:
    the row norms are cached at attach/insert time, so binding per query
    costs only that query's ``qA`` setup.
    """

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        bound = self._port.bind_query(query, self._data)
        return self._range_impl(bound, radius)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        bound = self._port.bind_query(query, self._data)
        return self._knn_impl(bound, k)

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        raise NotImplementedError

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        raise NotImplementedError


class _KnnHeap:
    """Bounded max-heap of the current k best neighbors.

    Shared helper for best-first kNN algorithms: keeps the k smallest
    distances seen, exposes the current pruning radius, and resolves
    distance ties by preferring smaller indices so results are
    deterministic.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._k = k
        # Max-heap via negated distance; tie-break prefers *larger* index
        # for eviction, i.e. keeps smaller indices.
        self._heap: list[tuple[float, int]] = []

    def offer(self, distance: float, index: int) -> None:
        """Consider an object for the top-k."""
        item = (-distance, -index)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    @property
    def radius(self) -> float:
        """Current kth-best distance (inf while the heap is not full)."""
        if len(self._heap) < self._k:
            return float("inf")
        return -self._heap[0][0]

    def neighbors(self) -> list[Neighbor]:
        """The collected neighbors, sorted."""
        out = [Neighbor(-d, -i) for d, i in self._heap]
        out.sort()
        return out

    def __len__(self) -> int:
        return len(self._heap)
