"""The batch query planner: many queries, one execution plan.

A :class:`QueryBatch` bundles homogeneous queries (all-range or all-kNN
with shared parameters), validates them once, and executes them against
any :class:`~repro.mam.base.AccessMethod` through a pluggable
:class:`~repro.engine.executors.BatchExecutor`:

* queries are split into contiguous chunks so structures with a
  vectorized batch hook (the pivot table) amortize their per-scan work
  across the whole chunk;
* the serial executor runs the chunks inline, the thread executor fans
  them out (numpy distance kernels release the GIL), and the process
  executor ships pickled chunks to worker processes for pure-Python
  distances;
* with a :class:`~repro.engine.trace.TraceCollector` attached, every
  query gets a :class:`~repro.engine.trace.QueryTrace`, active while that
  query runs; the access method's ``DistancePort.charge`` writes each
  evaluation into it.  The index is shared read-only, so concurrent
  traced batches on one index cannot see each other's traces.

Results are, by construction, bit-identical to looping the single-query
entry points: chunk hooks reuse the exact per-query search code (or a
reduction that is float-exact), and ordering guarantees are unchanged.
"""

from __future__ import annotations

import functools
import pickle
from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from .._typing import ArrayLike, as_vector_batch
from ..exceptions import QueryError
from ..obs import (
    MetricsRegistry,
    TraceContext,
    activate_trace_context,
    current_span,
    current_trace_context,
    get_logger,
    get_registry,
    log_event,
    observe_query_progress,
    record_batch_summary,
    record_traces,
    span,
    trace_scope,
    use_registry,
)
from .executors import (
    BatchExecutor,
    ProcessPoolBatchExecutor,
    SerialExecutor,
    resolve_executor,
)
from .trace import QueryTrace, TraceCollector

if TYPE_CHECKING:  # imported lazily at runtime to keep the layering acyclic
    from ..mam.base import AccessMethod, Neighbor

__all__ = ["QueryBatch"]


def _method_label(am: "AccessMethod") -> str:
    """Registry name of *am* for metric labels (class name as fallback).

    Uses the same label vocabulary as the model layer
    (``method="mtree"``, not ``method="MTree"``), so the funneled batch
    metrics join with the model's distance counters.  Imported lazily:
    the engine sits below :mod:`repro.models` in the layering.
    """
    try:
        from ..models.base import MAM_REGISTRY, SAM_REGISTRY

        for name, cls in {**MAM_REGISTRY, **SAM_REGISTRY}.items():
            if type(am) is cls:
                return name
    except Exception:
        pass
    return type(am).__name__


def _chunk_ranges(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into at most *n_chunks* contiguous ranges."""
    n_chunks = max(1, min(n, n_chunks))
    size = -(-n // n_chunks)  # ceil
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _run_chunk(
    bounds: tuple[int, int],
    *,
    am: "AccessMethod",
    kind: str,
    parameter: float,
    queries: np.ndarray,
    tracing: bool,
    obs: "dict | None" = None,
) -> tuple[list[list["Neighbor"]], list[QueryTrace] | None, "dict | None"]:
    """Execute one contiguous chunk of the batch (process-pool entry).

    Usually runs in a worker process on its private copy of *am*; with
    a single chunk (or one worker) the executor runs it inline on the
    parent's index.  Traces are returned alongside the results and
    merged by the parent.

    *obs* is the parent's observability payload: the request's
    :class:`TraceContext` (so worker spans carry the batch's trace_id),
    whether the parent registry is live, and the method label.  When
    metrics are on, the chunk runs against a **fresh worker registry**
    under a ``query/chunk/<kind>`` span; the registry's
    :meth:`~repro.obs.MetricsRegistry.dump_state` delta and the chunk's
    exact :class:`CountingDistance` delta are returned in the third
    tuple slot for the parent to merge — this is what makes timelines
    and ``/metrics`` totals complete under ``--executor process``.
    """
    start, stop = bounds
    traces = None
    counter = getattr(am._port, "_counter", None)
    base = counter.stats if counter is not None else None
    if tracing:
        traces = [
            QueryTrace(query_index=j, kind=kind, parameter=parameter)
            for j in range(start, stop)
        ]
    context = None if obs is None else obs.get("context")
    registry = (
        MetricsRegistry() if obs is not None and obs.get("metrics") else None
    )

    def execute() -> list[list["Neighbor"]]:
        chunk = queries[start:stop]
        if kind == "range":
            return am._range_search_batch(chunk, parameter, traces=traces)
        return am._knn_search_batch(chunk, int(parameter), traces=traces)

    if registry is not None:
        with activate_trace_context(context) if context is not None else nullcontext():
            with use_registry(registry):
                with span(
                    f"query/chunk/{kind}",
                    method="" if obs is None else obs.get("method", ""),
                    queries=stop - start,
                ):
                    results = execute()
    else:
        results = execute()
    obs_out = None
    if obs is not None:
        delta = (0, 0)
        if counter is not None and base is not None:
            stats = counter.stats
            delta = (stats.calls - base.calls, stats.batch_rows - base.batch_rows)
        obs_out = {
            "delta": delta,
            "state": registry.dump_state() if registry is not None else None,
        }
    return results, traces, obs_out


class QueryBatch:
    """A homogeneous batch of similarity queries plus its execution plan.

    Build one with :meth:`range_queries` or :meth:`knn_queries`, then
    :meth:`run` it against an access method.  The planner owns batch-wide
    validation (dimensionality, radius/k) so the per-query hot path skips
    it, and guarantees results in input-query order.
    """

    def __init__(self, kind: str, queries: ArrayLike, parameter: float) -> None:
        if kind not in ("range", "knn"):
            raise QueryError(f"query kind must be 'range' or 'knn', got {kind!r}")
        self.kind = kind
        self.queries = queries
        self.parameter = parameter

    @classmethod
    def range_queries(cls, queries: ArrayLike, radius: float) -> "QueryBatch":
        """A batch of range queries sharing one *radius*."""
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        return cls("range", queries, float(radius))

    @classmethod
    def knn_queries(cls, queries: ArrayLike, k: int) -> "QueryBatch":
        """A batch of kNN queries sharing one *k*."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return cls("knn", queries, int(k))

    def run(
        self,
        am: "AccessMethod",
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: TraceCollector | None = None,
    ) -> list[list["Neighbor"]]:
        """Execute the batch, returning one result list per query.

        Parameters
        ----------
        am:
            Any access method.
        executor:
            ``"serial"``, ``"thread"``, ``"process"``, an executor
            instance, or ``None`` (serial, or threads when *workers*
            asks for parallelism).
        workers, chunk_size:
            Forwarded to the executor when it is built from a name.
        collector:
            Attach to receive one :class:`QueryTrace` per query.  With
            the process executor, traces are recorded in the workers and
            merged back.  When an observability registry is active, the
            workers' exact ``CountingDistance`` deltas, spans, and
            registry state are merged back too, so the caller's counter
            and the registry totals match serial execution exactly.

        When an observability registry is active (see
        :mod:`repro.obs`), every executed batch is additionally funneled
        into it: per-query traces (collected internally when no
        *collector* was passed), a ``repro_batch_seconds`` observation
        measured around the whole batch, and a ``query/batch/<kind>``
        span.
        """
        queries = np.asarray(self.queries, dtype=np.float64)
        if queries.size == 0:
            return []
        qs = as_vector_batch(queries, am.dim, name="queries")
        parameter = self.parameter
        if self.kind == "knn":
            parameter = min(int(parameter), am.size)
        exec_ = resolve_executor(executor, workers=workers, chunk_size=chunk_size)
        registry = get_registry()
        logger = get_logger()
        observing = registry.enabled or logger.enabled
        method = _method_label(am) if observing else type(am).__name__
        # With a live registry or logger but no caller-owned collector,
        # trace into a private one so they still see per-query records.
        funnel = collector
        if funnel is None and observing:
            funnel = TraceCollector()
        # Give the batch a request identity (reusing any outer one), so
        # spans, worker chunks, and log records all share one trace_id.
        with trace_scope() if observing else nullcontext():
            with span(f"query/batch/{self.kind}", method=method):
                start = perf_counter()
                if isinstance(exec_, ProcessPoolBatchExecutor):
                    results, run_traces = self._run_process(am, qs, parameter, exec_, funnel)
                else:
                    results, run_traces = self._run_in_process(am, qs, parameter, exec_, funnel)
                elapsed = perf_counter() - start
            if funnel is not None:
                funnel.add_batch_seconds(elapsed)
            if registry.enabled and run_traces is not None:
                record_traces(run_traces, registry=registry, method=method)
                batch = TraceCollector()
                batch.extend(run_traces)
                batch.add_batch_seconds(elapsed)
                record_batch_summary(
                    batch.summary(), registry=registry, method=method, kind=self.kind
                )
            if logger.enabled and run_traces is not None:
                total = 0
                for trace in run_traces:
                    total += trace.distance_evaluations
                    log_event(
                        "query",
                        method=method,
                        kind=self.kind,
                        parameter=float(self.parameter),
                        query_index=trace.query_index,
                        seconds=trace.seconds,
                        distance_evaluations=trace.distance_evaluations,
                        scalar_evaluations=trace.scalar_evaluations,
                        batched_evaluations=trace.batched_evaluations,
                        candidates=trace.candidates,
                        results=trace.results,
                    )
                log_event(
                    "batch",
                    method=method,
                    kind=self.kind,
                    queries=len(run_traces),
                    seconds=elapsed,
                    distance_evaluations=total,
                    executor=exec_.name,
                )
        return results

    # ------------------------------------------------------------------
    # in-process execution (serial / threads)
    # ------------------------------------------------------------------

    def _run_in_process(
        self,
        am: "AccessMethod",
        qs: np.ndarray,
        parameter: float,
        exec_: BatchExecutor,
        collector: TraceCollector | None,
    ) -> tuple[list[list["Neighbor"]], list[QueryTrace] | None]:
        n = qs.shape[0]
        traces: list[QueryTrace] | None = None
        if collector is not None:
            traces = [
                QueryTrace(query_index=j, kind=self.kind, parameter=float(self.parameter))
                for j in range(n)
            ]
        if isinstance(exec_, SerialExecutor):
            ranges = [(0, n)]
        else:
            # A few chunks per worker balances load while keeping the
            # vectorized batch hooks' per-chunk work worthwhile.
            workers = getattr(exec_, "workers", 1)
            ranges = _chunk_ranges(n, workers * 4)

        registry = get_registry()
        method = _method_label(am) if registry.enabled else ""

        def chunk_task(ci: int) -> list[list["Neighbor"]]:
            a, b = ranges[ci]
            chunk_traces = traces[a:b] if traces is not None else None
            if self.kind == "range":
                out = am._range_search_batch(qs[a:b], parameter, traces=chunk_traces)
            else:
                out = am._knn_search_batch(qs[a:b], int(parameter), traces=chunk_traces)
            if registry.enabled:
                # Feed the rolling-rate windows as each chunk lands, so
                # a /metrics scrape mid-batch shows live throughput.
                evaluations = sum(
                    t.distance_evaluations for t in chunk_traces or ()
                )
                observe_query_progress(
                    b - a, evaluations, method=method, registry=registry
                )
            return out

        parts = exec_.map_ordered(chunk_task, range(len(ranges)))
        results: list[list["Neighbor"]] = []
        for part in parts:
            results.extend(part)
        if collector is not None and traces is not None:
            collector.extend(traces)
        return results, traces

    # ------------------------------------------------------------------
    # process-pool execution (chunked, pickled)
    # ------------------------------------------------------------------

    def _run_process(
        self,
        am: "AccessMethod",
        qs: np.ndarray,
        parameter: float,
        exec_: ProcessPoolBatchExecutor,
        collector: TraceCollector | None,
    ) -> tuple[list[list["Neighbor"]], list[QueryTrace] | None]:
        n = qs.shape[0]
        registry = get_registry()
        method = (
            _method_label(am)
            if registry.enabled or get_logger().enabled
            else ""
        )
        context = current_trace_context()
        obs: dict | None = None
        if registry.enabled or context is not None:
            shipped = context
            parent_span = current_span()
            if context is not None and parent_span is not None and parent_span.span_id:
                # Re-root the shipped context at the open batch span so
                # worker chunk spans parent there, not at the trace root.
                shipped = TraceContext(
                    trace_id=context.trace_id,
                    span_id=parent_span.span_id,
                    parent_span_id=parent_span.parent_span_id,
                )
            obs = {
                "context": shipped,
                "metrics": registry.enabled,
                "method": method,
            }
        fn = functools.partial(
            _run_chunk,
            am=am,
            kind=self.kind,
            parameter=float(parameter),
            queries=qs,
            tracing=collector is not None,
            obs=obs,
        )
        # With one chunk (or one worker) the executor runs inline on the
        # parent's own index and counter, so the chunk's evaluations are
        # already in the parent counter; merging the delta again would
        # double-charge.
        pooled = len(exec_.chunks(n)) > 1 and exec_.workers > 1
        try:
            parts = exec_.map_chunks(fn, n)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise QueryError(
                "the process executor must pickle the index and its distance "
                "function; use module-level distance callables, or the "
                "'thread' executor for unpicklable indexes"
            ) from exc
        results: list[list["Neighbor"]] = []
        all_traces: list[QueryTrace] = []
        counter = getattr(am._port, "_counter", None)
        for part_results, part_traces, part_obs in parts:
            results.extend(part_results)
            if part_obs is not None:
                if pooled and counter is not None:
                    calls, rows = part_obs["delta"]
                    if calls or rows:
                        # Fold the worker's exact evaluation delta into
                        # the parent's CountingDistance: query_costs()
                        # and the registry's delta-synced
                        # repro_distance_evaluations_total then equal
                        # serial execution exactly.
                        counter.add_counts(calls=calls, batch_rows=rows)
                state = part_obs.get("state")
                if state is not None and registry.enabled:
                    registry.merge_state(state)
            if part_traces is not None:
                all_traces.extend(part_traces)
                if registry.enabled:
                    observe_query_progress(
                        len(part_results),
                        sum(t.distance_evaluations for t in part_traces),
                        method=method,
                        registry=registry,
                    )
        if collector is not None:
            collector.extend(all_traces)
        return results, all_traces if collector is not None else None


def run_query_batch(
    am: "AccessMethod",
    kind: str,
    queries: ArrayLike,
    parameter: float,
    *,
    executor: "str | BatchExecutor | None" = None,
    workers: int | None = None,
    chunk_size: int | None = None,
    collector: TraceCollector | None = None,
) -> list[list["Neighbor"]]:
    """Functional shorthand used by ``AccessMethod.*_search_batch``."""
    if kind == "range":
        batch = QueryBatch.range_queries(queries, parameter)
    else:
        batch = QueryBatch.knn_queries(queries, int(parameter))
    return batch.run(
        am,
        executor=executor,
        workers=workers,
        chunk_size=chunk_size,
        collector=collector,
    )
