"""Pivot tables (LAESA) — the flat distance-matrix MAM (paper Section 4.2).

A set of ``p`` pivots is selected from the database; every object ``o_i``
stores its distance vector ``(d(o_i, p_1), ..., d(o_i, p_p))``, and the
vectors form the ``m x p`` *pivot table*.  A range query ``(q, rad)``
computes the query's distance vector, filters out every object whose table
row falls outside the ``p``-dimensional hyper-cube of edge ``2 rad``
centered at the query row (the triangle-inequality lower bound
``|d(q,p_j) - d(o,p_j)| > rad`` for some ``j``), and verifies the ``x``
non-filtered candidates with real distance computations.

kNN processes candidates in ascending lower-bound order, shrinking the
dynamic radius as better neighbors arrive — once the lower bound of the
next candidate exceeds the current kth distance, the remainder is pruned
wholesale.

Beyond the paper: because QMap embeds the QFD isometrically into L2, the
QFD is a *Ptolemaic* metric, and Hetland's Ptolemaic pivot bound

    d(q, v) >= max over pivot pairs of
               |d(q,p1) d(v,p2) - d(q,p2) d(v,p1)| / d(p1, p2)

is often far tighter than the triangle bound.  ``bound="ptolemaic"``
switches the filter to it (paying ``p (p-1) / 2`` extra build-time
distances for the pivot-pair matrix), ``bound="best"`` takes the
pointwise maximum of both bounds, and ``bound="triangle"`` (default)
keeps the classic LAESA behaviour bit-for-bit.  Query-time charging is
identical in every mode: ``p`` pivot distances plus one evaluation per
verified candidate.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .._typing import ArrayLike, as_vector
from ..distances.metric_checks import check_ptolemy_matrix
from ..engine.trace import (
    activate_trace,
    record_candidates,
    record_filter,
    run_traced,
)
from ..exceptions import DimensionMismatchError, QueryError, StorageError
from ..kernels.ptolemaic import (
    ptolemaic_bound_matrix,
    ptolemaic_bounds,
    valid_pivot_pairs,
)
from ..obs.events import (
    ROOT,
    emit_candidate_verify,
    emit_lb_check,
    emit_node_enter,
    emit_result_add,
    events_enabled,
)
from .base import (
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    _KnnHeap,
    pivot_limit,
    state_array,
    state_str,
)
from .pivots import select_pivots

if TYPE_CHECKING:
    from ..engine.trace import QueryTrace

__all__ = ["PivotTable", "BOUND_MODES"]

#: Lower-bound modes of :class:`PivotTable`.
BOUND_MODES = ("triangle", "ptolemaic", "best")

#: Event label of each mode's *operative* bound (the one that decides).
_BOUND_LABELS = {
    "triangle": "pivot-linf",
    "ptolemaic": "pivot-ptolemaic",
    "best": "pivot-best",
}

#: Rows in the first speculative block of the kNN refinement walk; each
#: later block doubles, so the rows evaluated past the stop stay within a
#: small constant factor of the rows the walk needed.
_FIRST_BLOCK = 32


class PivotTable(AccessMethod):
    """LAESA-style pivot table.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    n_pivots:
        Number of pivots ``p``.
    pivot_method:
        Selection technique, see :mod:`repro.mam.pivots`.
    pivot_sample:
        Optional sample size ``s`` for selection.
    pivots:
        Explicit pivot indices (overrides selection; used by tests).
    bound:
        Lower-bound mode: ``"triangle"`` (classic LAESA L∞ bound,
        default), ``"ptolemaic"`` (Hetland's pivot-pair bound, valid for
        Ptolemaic metrics such as the QFD/QMap pair), or ``"best"``
        (pointwise maximum of both).
    rng:
        Randomness for pivot selection.

    Notes
    -----
    Indexing cost matches the paper's Section 4.2.1 analysis: selection
    spends ``c`` distances over the sample, then the table needs ``m * p``
    distances — each O(n^2) in the QFD model and O(n) in the QMap model.
    The non-triangle modes additionally charge ``p (p-1) / 2`` build
    distances for the pivot-pair matrix; query-time charging is the same
    in every mode.
    """

    #: Every database touch is a ``port.many`` over the stored rows or a
    #: bound query over a small fancy-indexed candidate copy — a blocked
    #: kernel streams the former in tiles, so a memory-mapped store is
    #: never materialized.
    supports_out_of_core = True

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        n_pivots: int = 16,
        pivot_method: str = "maxmin",
        pivot_sample: int | None = None,
        pivots: Sequence[int] | None = None,
        bound: str = "triangle",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        if bound not in BOUND_MODES:
            raise QueryError(
                f"unknown bound mode {bound!r}; choose from {BOUND_MODES}"
            )
        if pivots is not None:
            pivot_list = [int(i) for i in pivots]
            if not pivot_list:
                raise QueryError("explicit pivot list must not be empty")
            for i in pivot_list:
                if not 0 <= i < self.size:
                    raise QueryError(f"pivot index {i} out of range [0, {self.size})")
        else:
            n_pivots = min(n_pivots, self.size)
            pivot_list = select_pivots(
                self._data,
                n_pivots,
                self._port,
                method=pivot_method,
                sample_size=pivot_sample,
                rng=rng,
            )
        self._pivot_indices = pivot_list
        self._pivot_rows = self._data[pivot_list]
        # The m x p distance matrix ("the pivot table").
        columns = [
            self._port.many(self._data[j], self._data, pivot=True) for j in pivot_list
        ]
        self._table = np.column_stack(columns)
        self._bound = bound
        self._set_pivot_pairs(None)
        if bound != "triangle":
            # Charged: p (p-1) / 2 batched rows, the logical cost of
            # evaluating each unordered pivot pair once.
            self._set_pivot_pairs(self._port.pairwise(self._pivot_rows))
            self._guard_ptolemaic()

    def _set_pivot_pairs(self, pair: "np.ndarray | None") -> None:
        """Install the pivot-pair matrix, its usable pairs and their
        smallest distance (the Ptolemaic error amplification of
        :meth:`_limit`)."""
        self._pivot_pair = pair
        self._pairs = valid_pivot_pairs(pair) if pair is not None else None
        self._pair_floor = 0.0
        if self._pairs is not None and self._pairs[0].size:
            self._pair_floor = float(pair[self._pairs].min())

    def _guard_ptolemaic(self) -> None:
        """Build-time guard: refuse Ptolemaic bounds for a metric that
        violates Ptolemy's inequality on the pivots.

        Runs on the already-paid-for pivot-pair matrix, so the check costs
        zero extra distance evaluations.  A triangle-only metric (e.g. L1)
        would produce *invalid* lower bounds here — silently wrong answers
        — which is exactly the failure mode the paper documents for
        methods that assume more structure than the distance has.
        """
        report = check_ptolemy_matrix(self._pivot_pair)
        if not report.is_metric:
            worst = report.worst()
            raise QueryError(
                f"bound={self._bound!r} requires a Ptolemaic metric, but the "
                f"pivot-pair matrix violates Ptolemy's inequality on pivots "
                f"{worst.indices} by {worst.magnitude:.3g}; "
                "use bound='triangle' for this distance"
            )

    @classmethod
    def from_parts(
        cls,
        database: ArrayLike,
        distance: DistancePort | Callable,
        pivot_indices: Sequence[int],
        table: np.ndarray,
    ) -> "PivotTable":
        """Reassemble a pivot table from persisted parts without
        recomputing the ``m x p`` distance matrix.

        A thin wrapper over the snapshot protocol (:meth:`from_state`),
        kept for :mod:`repro.persistence` backward compatibility; the
        caller is responsible for passing the same distance function the
        table was built with.
        """
        state = {
            "pivot_indices": np.asarray(
                [int(i) for i in pivot_indices], dtype=np.int64
            ),
            "table": np.asarray(table, dtype=np.float64),
        }
        return cls.from_state(database, distance, state)  # type: ignore[return-value]

    def structural_state(self) -> dict[str, np.ndarray]:
        state = {
            "pivot_indices": np.asarray(self._pivot_indices, dtype=np.int64),
            "table": self._table.copy(),
            "bound": np.str_(self._bound),
        }
        if self._pivot_pair is not None:
            state["pivot_pair"] = self._pivot_pair.copy()
        return state

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pivot_list = [int(i) for i in state_array(state, "pivot_indices")]
        if not pivot_list:
            raise QueryError("pivot index list must not be empty")
        for i in pivot_list:
            if not 0 <= i < self.size:
                raise QueryError(f"pivot index {i} out of range [0, {self.size})")
        stored = state_array(state, "table", dtype=np.float64)
        if stored.shape != (self.size, len(pivot_list)):
            raise QueryError(
                f"table shape {stored.shape} does not match "
                f"({self.size}, {len(pivot_list)})"
            )
        # Version-1 snapshots predate bound modes; absent keys mean the
        # classic triangle bound, so old archives keep loading unchanged.
        bound = state_str(state, "bound") if "bound" in state else "triangle"
        if bound not in BOUND_MODES:
            raise StorageError(
                f"unknown pivot-table bound mode {bound!r} in snapshot"
            )
        pair: np.ndarray | None = None
        if bound != "triangle":
            pair = state_array(state, "pivot_pair", dtype=np.float64)
            p = len(pivot_list)
            if pair.shape != (p, p):
                raise QueryError(
                    f"pivot-pair matrix shape {pair.shape} does not match ({p}, {p})"
                )
        super()._restore_state(state)
        self._pivot_indices = pivot_list
        self._pivot_rows = self._data[pivot_list]
        self._table = stored.copy()
        self._bound = bound
        self._set_pivot_pairs(pair.copy() if pair is not None else None)

    def _verify_state_probe(self) -> None:
        # Same sampled bound re-evaluation load_pivot_table always did:
        # entry (0, 0) of the table is d(o_0, p_0).  Uncounted, so a
        # restore still performs zero logical distance computations.
        probe = self._port.pair_uncounted(
            self._data[0], self._data[self._pivot_indices[0]]
        )
        if not np.isclose(probe, self._table[0, 0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored table "
                "(wrong metric or wrong matrix?)"
            )
        if self._pivot_pair is not None and len(self._pivot_indices) >= 2:
            probe = self._port.pair_uncounted(
                self._data[self._pivot_indices[0]],
                self._data[self._pivot_indices[1]],
            )
            if not np.isclose(probe, self._pivot_pair[0, 1], rtol=1e-6, atol=1e-9):
                raise StorageError(
                    "supplied distance disagrees with the stored pivot-pair "
                    "matrix (wrong metric or wrong matrix?)"
                )

    @property
    def pivot_indices(self) -> list[int]:
        """Database indices of the selected pivots."""
        return list(self._pivot_indices)

    @property
    def n_pivots(self) -> int:
        """Number of pivots ``p``."""
        return len(self._pivot_indices)

    @property
    def table(self) -> np.ndarray:
        """The ``m x p`` pivot distance matrix (read-only view)."""
        view = self._table.view()
        view.setflags(write=False)
        return view

    @property
    def bound(self) -> str:
        """The active lower-bound mode (one of :data:`BOUND_MODES`)."""
        return self._bound

    @property
    def pivot_pair_matrix(self) -> "np.ndarray | None":
        """The ``p x p`` pivot-pair distance matrix (read-only view),
        present only in the non-triangle bound modes."""
        if self._pivot_pair is None:
            return None
        view = self._pivot_pair.view()
        view.setflags(write=False)
        return view

    def _bind(self, query: np.ndarray) -> tuple[BoundQuery, np.ndarray]:
        """Bind *query* once; return it with its pivot distances.

        The ``p`` pivot distances are charged as batched rows.
        """
        bound = self._port.bind_query(query, self._data)
        return bound, bound.many(self._pivot_rows, self._pivot_indices, pivot=True)

    def _limit(self, radius: float, reach: float, error: float) -> float:
        """Filter threshold at *radius* for a query whose largest pivot
        distance is *reach* and whose pivot rounding allowance is *error*.

        A Ptolemaic bound multiplies pivot distances and divides by a
        pivot-pair distance: for an object within *radius* every factor is
        at most ``reach + radius``, so the rounding of the entries reaches
        the bound scaled by up to ``(2 reach + 3 radius) / d_min`` (the
        last term covers the pair distances' own rounding).
        """
        if radius == np.inf:
            return radius
        if self._bound != "triangle" and self._pair_floor > 0.0:
            error *= max(1.0, (2.0 * reach + 3.0 * radius) / self._pair_floor)
        return pivot_limit(radius, reach, error)

    def _triangle_bounds(self, query_vector: np.ndarray) -> np.ndarray:
        """Pivot-mapped L∞ (triangle) lower bound for every object."""
        return np.max(np.abs(self._table - query_vector), axis=1)

    def _ptolemaic_lb(
        self, query_vector: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        return ptolemaic_bounds(
            self._table, query_vector, self._pivot_pair, self._pairs, out=out
        )

    def _lower_bounds(self, query_vector: np.ndarray) -> np.ndarray:
        """The mode's operative lower bound for every database object."""
        if self._bound == "triangle":
            return self._triangle_bounds(query_vector)
        if self._bound == "ptolemaic":
            return self._ptolemaic_lb(query_vector)
        # "best": max-merge the Ptolemaic bound into the triangle one.
        return self._ptolemaic_lb(query_vector, out=self._triangle_bounds(query_vector))

    def _bound_views(
        self, query_vector: np.ndarray, lb: np.ndarray
    ) -> list[tuple[str, np.ndarray]]:
        """``(label, bounds)`` pairs for event emission, operative last.

        In the non-triangle modes the *other* bound is computed too — an
        observability-only cost with no distance evaluations — so EXPLAIN
        can put triangle and Ptolemaic prune counts side by side.
        """
        if self._bound == "triangle":
            return [("pivot-linf", lb)]
        tri = self._triangle_bounds(query_vector)
        if self._bound == "ptolemaic":
            return [("pivot-linf", tri), ("pivot-ptolemaic", lb)]
        return [
            ("pivot-linf", tri),
            ("pivot-ptolemaic", self._ptolemaic_lb(query_vector)),
            ("pivot-best", lb),
        ]

    def _triangle_bound_matrix(self, query_vectors: np.ndarray) -> np.ndarray:
        table = self._table
        lb = np.abs(table[:, 0, None] - query_vectors[None, :, 0])
        for j in range(1, table.shape[1]):
            np.maximum(lb, np.abs(table[:, j, None] - query_vectors[None, :, j]), out=lb)
        return lb

    def _lower_bound_matrix(self, query_vectors: np.ndarray) -> np.ndarray:
        """``m x s`` lower-bound matrix for *s* stacked query vectors.

        Accumulating the maximum pivot by pivot (pair by pair in the
        Ptolemaic modes) keeps the working memory at one ``m x s`` block
        (never ``m x s x p``) and produces exactly the floats of the
        per-query :meth:`_lower_bounds` — the entries are elementwise
        maxima, with no rounding reductions involved.
        """
        if self._bound == "triangle":
            return self._triangle_bound_matrix(query_vectors)
        if self._bound == "ptolemaic":
            return ptolemaic_bound_matrix(
                self._table, query_vectors, self._pivot_pair, self._pairs
            )
        return ptolemaic_bound_matrix(
            self._table,
            query_vectors,
            self._pivot_pair,
            self._pairs,
            out=self._triangle_bound_matrix(query_vectors),
        )

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        bound, qv = self._bind(query)
        lb = self._lower_bounds(qv)
        limit = self._limit(radius, float(qv.max()), bound.pivot_error)
        candidates = np.flatnonzero(lb <= limit)
        if events_enabled():
            tok = emit_node_enter(ROOT, "pivot-filter")
            for label, bounds in self._bound_views(qv, lb):
                for val in bounds:
                    emit_lb_check(
                        tok, float(val), limit,
                        pruned=val > limit, label=label,
                    )
        return self._refine_range(bound, radius, candidates)

    def _refine_range(
        self, bound: BoundQuery, radius: float, candidates: np.ndarray
    ) -> list[Neighbor]:
        """Verify the non-filtered candidates with real distances."""
        record_filter(self.size, int(candidates.size))
        record_candidates(int(candidates.size))
        if candidates.size == 0:
            return []
        tok = emit_node_enter(ROOT, "refine")
        distances = bound.many(self._data[candidates], candidates)
        within = distances <= radius
        if tok >= 0:
            for dist, idx in zip(distances, candidates):
                emit_candidate_verify(tok, int(idx), float(dist))
                if dist <= radius:
                    emit_result_add(tok, int(idx), float(dist))
        return [
            Neighbor(float(dist), int(idx))
            for dist, idx in zip(distances[within], candidates[within])
        ]

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        bound, qv = self._bind(query)
        lb = self._lower_bounds(qv)
        aux: tuple[tuple[str, np.ndarray], ...] = ()
        if events_enabled() and self._bound != "triangle":
            # Comparison bounds for the side-by-side EXPLAIN section;
            # pure table arithmetic, zero distance evaluations.
            views = self._bound_views(qv, lb)
            aux = tuple(views[:-1])
        return self._refine_knn(bound, k, lb, qv, aux=aux)

    def _refine_knn(
        self,
        bound: BoundQuery,
        k: int,
        lb: np.ndarray,
        query_vector: np.ndarray,
        aux: "tuple[tuple[str, np.ndarray], ...]" = (),
    ) -> list[Neighbor]:
        """Best-first refinement in ascending lower-bound order.

        Candidates are evaluated physically in speculative blocks that
        double in size (uncharged); the heap and the ``lb > radius`` stop
        are replayed candidate by candidate, and exactly the ``refined``
        candidates the walk reached are charged, as scalar calls — the
        logical cost of the classic one-at-a-time LAESA walk.  The block
        schedule depends on the order alone, so every path (single query,
        batch, EXPLAIN) computes the same floats.

        *aux* carries comparison bound arrays (label, values) emitted
        alongside the operative bound at each step — the "would the other
        bound have pruned here?" record behind the EXPLAIN side-by-side.
        """
        order = np.argsort(lb, kind="stable")
        heap = _KnnHeap(k)
        tok = emit_node_enter(ROOT, "refine")
        label = _BOUND_LABELS[self._bound]
        reach = float(query_vector.max())
        error = bound.pivot_error
        radius = heap.radius
        limit = self._limit(radius, reach, error)
        refined = 0
        start, size = 0, _FIRST_BLOCK
        while start < order.size:
            ids = order[start : start + size]
            start += size
            size *= 2
            distances = bound.compute_many(self._data[ids], ids)
            for idx, low, dist in zip(ids.tolist(), lb[ids].tolist(), distances.tolist()):
                if heap.radius != radius:
                    radius = heap.radius
                    limit = self._limit(radius, reach, error)
                for aux_label, bounds in aux:
                    emit_lb_check(
                        tok, float(bounds[idx]), limit,
                        pruned=bounds[idx] > limit, label=aux_label,
                    )
                if low > limit:
                    emit_lb_check(tok, low, limit, pruned=True, label=label)
                    start = order.size  # the rest is pruned wholesale
                    break
                emit_lb_check(tok, low, limit, pruned=False, label=label)
                emit_candidate_verify(tok, idx, dist)
                heap.offer(dist, idx)
                refined += 1
        bound.charge_calls(refined)
        record_filter(self.size, refined)
        record_candidates(refined)
        return heap.neighbors()

    def _range_search_batch(
        self,
        queries: np.ndarray,
        radius: float,
        traces: "list[QueryTrace] | None" = None,
    ) -> list[list[Neighbor]]:
        """Vectorized batch plan: one ``m x s`` lower-bound matrix.

        The query-pivot distances are still evaluated per query (so
        traces charge each query exactly its ``p`` pivot distances), but
        the table scan that serves the triangle-inequality filter runs
        once for the whole chunk instead of once per query.
        """
        bounds, qvs, lb_matrix = self._batch_lower_bounds(queries, traces)

        def search(pos: int) -> list[Neighbor]:
            bound = bounds[pos]
            limit = self._limit(radius, float(qvs[pos].max()), bound.pivot_error)
            candidates = np.flatnonzero(lb_matrix[:, pos] <= limit)
            return self._refine_range(bound, radius, candidates)

        return run_traced(len(bounds), search, traces)

    def _knn_search_batch(
        self,
        queries: np.ndarray,
        k: int,
        traces: "list[QueryTrace] | None" = None,
    ) -> list[list[Neighbor]]:
        """Vectorized batch plan for kNN; see :meth:`_range_search_batch`."""
        bounds, qvs, lb_matrix = self._batch_lower_bounds(queries, traces)
        return run_traced(
            len(bounds),
            lambda pos: self._refine_knn(bounds[pos], k, lb_matrix[:, pos], qvs[pos]),
            traces,
        )

    def _batch_lower_bounds(
        self, queries: np.ndarray, traces: "list[QueryTrace] | None"
    ) -> tuple[list[BoundQuery], np.ndarray, np.ndarray]:
        """Bound queries, their pivot distances and the ``m x s`` bounds.

        Each query is bound under its own trace; the matrix scan is joint
        work, so its wall time is amortized evenly over the chunk's traces.
        """
        bounds: list[BoundQuery] = []
        qvs = np.empty((queries.shape[0], self.n_pivots), dtype=np.float64)
        for pos in range(queries.shape[0]):
            with activate_trace(traces[pos] if traces is not None else None):
                bound, qvs[pos] = self._bind(queries[pos])
            bounds.append(bound)
        start = perf_counter()
        lb_matrix = self._lower_bound_matrix(qvs)
        if traces is not None:
            shared = (perf_counter() - start) / max(1, queries.shape[0])
            for trace in traces:
                trace.seconds += shared
        return bounds, qvs, lb_matrix

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Compute the new object's pivot distances and grow the table.

        Costs ``p`` distance evaluations, exactly the paper's Section 4.2.1
        per-object indexing cost; the pivot set itself never changes.
        """
        _, row = self._bind(vector)
        self._table = np.vstack([self._table, row.reshape(1, -1)])

    def candidates_for_radius(self, query: ArrayLike, radius: float) -> int:
        """Number ``x`` of non-filtered objects for a range query.

        Exposed for the filtering-power experiments (the paper's querying
        complexity carries the term ``x n^2`` vs. ``x n``).  Charges the
        ``p`` pivot distances but not the refinement ones.

        Validates like :meth:`range_search`/:meth:`knn_search`: a
        wrong-dimension query raises a :class:`QueryError` instead of
        surfacing as a numpy broadcast error from the pivot scan.
        """
        try:
            q = as_vector(query, self.dim, name="query")
        except DimensionMismatchError as exc:
            raise QueryError(f"malformed range query: {exc}") from exc
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        bound, qv = self._bind(q)
        lb = self._lower_bounds(qv)
        limit = self._limit(radius, float(qv.max()), bound.pivot_error)
        return int(np.count_nonzero(lb <= limit))
