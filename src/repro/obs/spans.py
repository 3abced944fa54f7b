"""Nestable, monotonic-clocked timing spans.

A span prices one *phase* of work — ``span("build/pivot-selection")``,
``span("query/refine")`` — the wall-time counterpart of the paper's
distance-computation accounting.  Spans nest through a
:mod:`contextvars` stack (the same propagation scheme as the active
:class:`~repro.engine.trace.QueryTrace`), so concurrently executing
queries each time their own phases without locking, and a span opened
inside another records its parent and depth.

When a :class:`~repro.obs.context.TraceContext` is active, every span
additionally carries the request's ``trace_id`` plus its own
``span_id``/``parent_span_id`` — the correlation keys the timeline
exporter and the JSON-lines query log join on, including for spans that
ran in a worker process and were merged back by the engine.

Completed spans land in the active :class:`~repro.obs.registry
.MetricsRegistry` twice: as a :class:`SpanRecord` (for the JSON-lines
event log) and as an observation of the ``repro_span_seconds`` histogram
keyed by span name and exit status (for the Prometheus/table exporters).
With the null registry active, :func:`span` yields without reading the
clock at all.

Timing uses :func:`time.perf_counter` — monotonic, so spans are immune
to wall-clock adjustments.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from .context import current_trace_context, new_span_id
from .registry import SpanRecord, get_registry

__all__ = ["SpanRecord", "span", "current_span", "open_span_for_thread"]

_SPAN_STACK: contextvars.ContextVar[SpanRecord | None] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

#: Innermost *open* span per thread ident.  The sampling profiler reads
#: this from its own thread to attribute stack samples to phases —
#: contextvars are invisible across threads, a plain dict keyed by
#: :func:`threading.get_ident` is not.  Each thread only ever writes its
#: own key, so GIL-atomic dict ops suffice.
_OPEN_SPANS: dict[int, SpanRecord] = {}

#: Histogram receiving every span duration, labeled by span name.
SPAN_SECONDS = "repro_span_seconds"


def current_span() -> SpanRecord | None:
    """The innermost open span of this thread/context, if any."""
    return _SPAN_STACK.get()


def open_span_for_thread(thread_ident: int) -> SpanRecord | None:
    """The innermost open span of *another* thread (profiler support)."""
    return _OPEN_SPANS.get(thread_ident)


@contextmanager
def span(name: str, **labels: object) -> Iterator[SpanRecord | None]:
    """Time the enclosed block as one named phase.

    Exception-safe: the duration is recorded and the stack unwound even
    when the block raises, with the record's ``status`` set to
    ``"error"``.  Yields the open :class:`SpanRecord` (or ``None`` when
    observability is disabled, in which case the block runs untouched).
    """
    registry = get_registry()
    if not registry.enabled:
        yield None
        return
    parent = _SPAN_STACK.get()
    thread_ident = threading.get_ident()
    record = SpanRecord(
        name=name,
        depth=0 if parent is None else parent.depth + 1,
        parent=None if parent is None else parent.name,
        labels={k: str(v) for k, v in labels.items()},
        thread=thread_ident,
        pid=os.getpid(),
    )
    context = current_trace_context()
    if context is not None:
        record.trace_id = context.trace_id
        record.span_id = new_span_id()
        if parent is not None and parent.span_id:
            record.parent_span_id = parent.span_id
        else:
            record.parent_span_id = context.span_id
    token = _SPAN_STACK.set(record)
    shadowed = _OPEN_SPANS.get(thread_ident)
    _OPEN_SPANS[thread_ident] = record
    start = perf_counter()
    record.start = start
    try:
        yield record
    except BaseException:
        record.status = "error"
        raise
    finally:
        record.seconds = perf_counter() - start
        _SPAN_STACK.reset(token)
        if shadowed is None:
            _OPEN_SPANS.pop(thread_ident, None)
        else:
            _OPEN_SPANS[thread_ident] = shadowed
        registry.record_span(record)
        registry.histogram(
            SPAN_SECONDS, "wall seconds per instrumented phase"
        ).observe(record.seconds, span=name, status=record.status, **record.labels)
