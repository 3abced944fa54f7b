"""Per-query tracing — traces must reproduce the paper's cost model.

The central claims verified here:

* the pivot table's traced kNN cost is exactly ``p + x`` — the ``p``
  query-pivot distances plus the ``x`` refined candidates (paper
  Section 4.2.1's querying complexity);
* summed over a batch, traces agree *exactly* with the
  :class:`CountingDistance` wrapper the models already use, so the two
  cost accounts can never drift apart;
* the contextvars plumbing attributes evaluations to the right query
  even when queries run concurrently in worker threads.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import QuadraticFormDistance
from repro.datasets import histogram_workload
from repro.distances import (
    CountingDistance,
    euclidean,
    euclidean_one_to_many,
    manhattan,
)
from repro.engine import (
    QueryTrace,
    TraceCollector,
    activate_trace,
    current_trace,
    record_candidates,
    record_filter,
)
from repro.mam import DistancePort, PivotTable, SequentialFile
from repro.obs.events import EventBuffer, collect_events

N_PIVOTS = 8


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(180, 5, bins_per_channel=4, seed=53)


def _plain_manhattan(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(u - v).sum())


def _manhattan_one_to_many(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.abs(rows - q).sum(axis=1)


def _counting_port() -> tuple[DistancePort, CountingDistance]:
    counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
    return DistancePort(counter), counter


class TestPivotTableCostModel:
    def test_knn_costs_exactly_p_plus_x(self, workload) -> None:
        """Paper Section 4.2.1: a pivot-table query pays p pivot
        distances plus one real distance per non-filtered candidate."""
        am = PivotTable(
            workload.database, euclidean, n_pivots=N_PIVOTS,
            rng=np.random.default_rng(3),
        )
        collector = TraceCollector()
        am.knn_search_batch(workload.queries, 10, collector=collector)
        for trace in collector.traces:
            assert trace.batched_evaluations == N_PIVOTS  # the p term
            assert trace.scalar_evaluations == trace.candidates  # the x term
            assert trace.distance_evaluations == N_PIVOTS + trace.candidates

    def test_range_filter_counts(self, workload) -> None:
        am = PivotTable(
            workload.database, euclidean, n_pivots=N_PIVOTS,
            rng=np.random.default_rng(3),
        )
        radius = am.knn_search(workload.queries[0], 6)[-1].distance
        collector = TraceCollector()
        results = am.range_search_batch(workload.queries, radius, collector=collector)
        for trace, result in zip(collector.traces, results):
            assert trace.filter_checked == am.size
            assert trace.filter_hits == trace.candidates
            # Refinement is one batched many() over the candidates.
            assert trace.batched_evaluations == N_PIVOTS + trace.candidates
            assert trace.results == len(result)
            # Filtering is sound: every answer survived the filter.
            assert trace.filter_hits >= len(result)


class TestTracesAgreeWithCounters:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_batch_totals_match_counting_distance(self, workload, executor) -> None:
        port, counter = _counting_port()
        am = PivotTable(
            workload.database, port, n_pivots=N_PIVOTS, rng=np.random.default_rng(7)
        )
        counter.reset()
        collector = TraceCollector()
        am.knn_search_batch(
            workload.queries, 8, executor=executor, workers=3, collector=collector
        )
        summary = collector.summary()
        assert summary.queries == workload.queries.shape[0]
        assert summary.distance_evaluations == counter.count
        assert summary.scalar_evaluations == counter.stats.calls
        assert summary.batched_evaluations == counter.stats.batch_rows

    def test_sequential_scan_costs_m_per_query(self, workload) -> None:
        port, counter = _counting_port()
        am = SequentialFile(workload.database, port)
        counter.reset()
        collector = TraceCollector()
        am.knn_search_batch(workload.queries, 4, collector=collector)
        for trace in collector.traces:
            assert trace.distance_evaluations == am.size
            assert trace.candidates == am.size
        assert collector.summary().distance_evaluations == counter.count

    def test_untraced_batch_leaves_port_untouched(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        port_before = am._port
        am.knn_search_batch(workload.queries, 3, executor="thread", workers=2)
        assert am._port is port_before

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_concurrent_traced_batches_on_one_index(self, executor) -> None:
        """Traced batches running at once on one shared index each count
        their own evaluations, and none of them modifies the index.  With
        one worker the process executor runs its chunk inline on the
        shared index."""
        data = histogram_workload(2000, 20, bins_per_channel=2, seed=11)
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        am = SequentialFile(data.database, counter)
        port = am._port
        queries = data.queries
        assert queries.shape[0] == 20
        start = threading.Barrier(4, timeout=60)

        def traced_batch(_: int) -> int:
            collector = TraceCollector()
            start.wait()
            am.knn_search_batch(
                queries, 5, executor=executor, workers=1, collector=collector
            )
            return collector.summary().distance_evaluations

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    counts = list(pool.map(traced_batch, range(4), timeout=120))
                    assert counts == [40000] * 4
                    assert am._port is port
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("bound", ["triangle", "best"])
class TestQFDPivotChargeSplit:
    """The QFD pivot table evaluates through a bound Gram query, yet
    charges the paper's split: ``p`` batched pivot rows plus one scalar
    call per refined kNN candidate (range refinement: one batched row
    per candidate) — identically on every execution path."""

    K = 10

    @staticmethod
    def _index(workload, bound):
        counter = CountingDistance(QuadraticFormDistance(workload.matrix))
        am = PivotTable(
            workload.database, counter, n_pivots=N_PIVOTS, bound=bound,
            rng=np.random.default_rng(3),
        )
        return am, counter

    @staticmethod
    def _search(am, kind, queries, arg, **batch):
        if kind == "knn":
            return am.knn_search_batch(queries, arg, **batch)
        return am.range_search_batch(queries, arg, **batch)

    def _paths(self, am, counter, kind, arg, queries):
        """``(answers, [(scalar, batched, candidates)])`` for each path."""
        single_answers, single = [], []
        for q in queries:
            trace = QueryTrace()
            before = counter.stats
            with activate_trace(trace):
                result = (
                    am.knn_search(q, arg) if kind == "knn" else am.range_search(q, arg)
                )
            after = counter.stats
            split = (after.calls - before.calls, after.batch_rows - before.batch_rows)
            assert split == (trace.scalar_evaluations, trace.batched_evaluations)
            single_answers.append(result)
            single.append(split + (trace.candidates,))
        paths = {"single": (single_answers, single)}
        for name, batch in (
            ("serial", {"executor": "serial"}),
            ("thread", {"executor": "thread", "workers": 2}),
        ):
            collector = TraceCollector()
            answers = self._search(am, kind, queries, arg, collector=collector, **batch)
            traces = sorted(collector.traces, key=lambda t: t.query_index)
            paths[name] = (
                answers,
                [(t.scalar_evaluations, t.batched_evaluations, t.candidates) for t in traces],
            )
        explained_answers, explained = [], []
        for q, (_, _, candidates) in zip(queries, single):
            buffer = EventBuffer()
            with collect_events(buffer):
                result = (
                    am.knn_search(q, arg) if kind == "knn" else am.range_search(q, arg)
                )
            explained_answers.append(result)
            explained.append((buffer.charged_calls, buffer.charged_rows, candidates))
        paths["explain"] = (explained_answers, explained)
        return paths

    def test_knn_split_is_p_batched_plus_refined_scalar(self, workload, bound) -> None:
        am, counter = self._index(workload, bound)
        paths = self._paths(am, counter, "knn", self.K, workload.queries)
        answers, splits = paths["single"]
        for scalar, batched, refined in splits:
            assert batched == N_PIVOTS
            assert scalar == refined > 0
        for name, (other_answers, other_splits) in paths.items():
            assert other_splits == splits, name
            assert other_answers == answers, name  # bit-identical distances

    def test_range_split_is_p_plus_candidates_batched(self, workload, bound) -> None:
        am, counter = self._index(workload, bound)
        radius = am.knn_search(workload.queries[0], 6)[-1].distance
        paths = self._paths(am, counter, "range", radius, workload.queries)
        answers, splits = paths["single"]
        for scalar, batched, candidates in splits:
            assert scalar == 0
            assert batched == N_PIVOTS + candidates
        for name, (other_answers, other_splits) in paths.items():
            assert other_splits == splits, name
            assert other_answers == answers, name


class TestTracePlumbing:
    def test_activate_none_is_noop(self) -> None:
        with activate_trace(None):
            assert current_trace() is None

    def test_activate_restores_previous(self) -> None:
        outer, inner = QueryTrace(query_index=0), QueryTrace(query_index=1)
        with activate_trace(outer):
            with activate_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_record_hooks_without_trace_are_noops(self) -> None:
        record_filter(10, 3)
        record_candidates(5)  # must not raise

    @pytest.mark.parametrize(
        "distance,split",
        [
            pytest.param(
                lambda: CountingDistance(QuadraticFormDistance(np.eye(4))),
                (1, 3),
                id="qfd-kernel",
            ),
            pytest.param(
                lambda: CountingDistance(manhattan, one_to_many=_manhattan_one_to_many),
                (1, 3),
                id="vectorized",
            ),
            pytest.param(lambda: _plain_manhattan, (4, 0), id="scalar-callable"),
        ],
    )
    def test_port_charges_the_active_trace(self, distance, split) -> None:
        """The bare port's pair/many write the active trace, the counter
        and the EXPLAIN buffer with one split: kernel and vectorized rows
        are batched, a plain scalar function's loop is scalar calls."""
        func = distance()
        port = DistancePort(func)
        trace, buffer = QueryTrace(), EventBuffer()
        u, rows = np.zeros(4), np.arange(12.0).reshape(3, 4)
        with activate_trace(trace), collect_events(buffer):
            pair = port.pair(u, rows[0])
            many = port.many(u, rows)
        assert (trace.scalar_evaluations, trace.batched_evaluations) == split
        assert (buffer.charged_calls, buffer.charged_rows) == split
        if isinstance(func, CountingDistance):
            assert (func.stats.calls, func.stats.batch_rows) == split
        assert pair == pytest.approx(many[0])

    def test_collector_orders_and_summarizes(self) -> None:
        collector = TraceCollector()
        collector.add(QueryTrace(query_index=2, scalar_evaluations=5, seconds=0.5))
        collector.extend(
            [
                QueryTrace(query_index=0, batched_evaluations=10, seconds=0.25),
                QueryTrace(query_index=1, scalar_evaluations=1, seconds=0.25),
            ]
        )
        assert [t.query_index for t in collector.traces] == [0, 1, 2]
        summary = collector.summary()
        assert summary.queries == 3
        assert summary.distance_evaluations == 16
        assert summary.evaluations_per_query == pytest.approx(16 / 3)
        assert summary.queries_per_second == pytest.approx(3.0)
        collector.clear()
        assert len(collector) == 0
        empty = collector.summary()
        assert empty.evaluations_per_query == 0.0
        assert empty.queries_per_second == 0.0
        assert empty.p50_seconds == 0.0 and empty.p95_seconds == 0.0

    def test_summary_latency_percentiles_are_nearest_rank(self) -> None:
        collector = TraceCollector()
        # 20 queries at 10ms..200ms: nearest-rank p50 is the 10th sorted
        # value (100ms), p95 the 19th (190ms) — never interpolated.
        collector.extend(
            QueryTrace(query_index=i, seconds=(i + 1) * 0.010) for i in range(20)
        )
        summary = collector.summary()
        assert summary.p50_seconds == pytest.approx(0.100)
        assert summary.p95_seconds == pytest.approx(0.190)

    def test_single_trace_percentiles_collapse_to_its_time(self) -> None:
        collector = TraceCollector()
        collector.add(QueryTrace(query_index=0, seconds=0.042))
        summary = collector.summary()
        assert summary.p50_seconds == pytest.approx(0.042)
        assert summary.p95_seconds == pytest.approx(0.042)


class TestNearestRankEdgeCases:
    """Exact-value pins for the nearest-rank percentile helper.

    Regression: ``ceil(q * n)`` used to be taken unclamped, so q=0 indexed
    rank 0 and float noise in ``q * n`` could index past the end; these pin
    the corrected rank = min(max(ceil(q n), 1), n) on the sizes that
    exercised the bugs (n = 1, 2, 20).
    """

    def _rank(self, values: list[float], q: float) -> float:
        from repro.engine.trace import _nearest_rank

        return _nearest_rank(sorted(values), q)

    def test_empty_is_zero(self) -> None:
        assert self._rank([], 0.5) == 0.0
        assert self._rank([], 0.95) == 0.0

    def test_n1_every_quantile_is_the_sample(self) -> None:
        for q in (0.0, 0.5, 0.95, 1.0):
            assert self._rank([0.7], q) == 0.7

    def test_n2_exact_values(self) -> None:
        values = [1.0, 2.0]
        # ceil(0.5 * 2) = 1 -> first; ceil(0.95 * 2) = ceil(1.9) = 2 -> second.
        assert self._rank(values, 0.5) == 1.0
        assert self._rank(values, 0.95) == 2.0
        assert self._rank(values, 0.0) == 1.0  # clamped up to rank 1
        assert self._rank(values, 1.0) == 2.0

    def test_n20_exact_values(self) -> None:
        values = [float(i + 1) for i in range(20)]
        # ceil(0.5 * 20) = 10; ceil(0.95 * 20) = 19 -- not interpolated,
        # not the max: the 19th of 20 sorted values.
        assert self._rank(values, 0.5) == 10.0
        assert self._rank(values, 0.95) == 19.0
        assert self._rank(values, 1.0) == 20.0

    def test_q_one_never_indexes_past_the_end(self) -> None:
        # 1.0 * n can land a hair above n in floating point for some n;
        # the clamp makes q=1.0 safe for every size.
        for n in range(1, 50):
            values = [float(i) for i in range(n)]
            assert self._rank(values, 1.0) == float(n - 1)
