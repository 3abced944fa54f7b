"""In-memory span tracer that wraps methods on the program's public classes.

The benchmark records one span around each call into a layer, from its
own files: nothing under ``src/`` changes.  Methods are replaced on their
*classes*, never as module-level names, because modules import functions
by name and rebinding a module attribute would miss those calls.  Install
the wrappers before the index is built: objects that capture bound
methods at construction (``DistancePort`` keeps ``counter.one_to_many``,
``BuiltIndex`` keeps ``qmap.transform``) then capture the wrappers.

A span marks a layer boundary: a wrapped call made from inside a span of
the same layer (``CountingDistance.add_counts`` inside
``DistancePort.charge``, the in-memory build inside the paged M-tree's)
is timed by that span and records none of its own.  Each span holds its
name, start, end, parent span, request id and thread.  Span stacks and
span buffers are thread-local, because the batch engine runs chunks on
worker threads; a chunk span names its parent (the executor call on the
requesting thread) explicitly.  A span's *self time* is its duration
minus its same-thread children, summed per layer as the span closes.
Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter_ns

import numpy as np

#: Recording phases; ``OFF`` makes every wrapper a plain pass-through.
OFF, SETUP, QUERY = 0, 1, 2

#: Span names of the executor call and of each chunk it runs.  A chunk
#: span times the work an executor worker does, which is the access
#: method's traversal: its self time counts toward ``mam``, and its
#: duration is the engine's busy time.
ENGINE_MAP = "engine.map_ordered"
ENGINE_CHUNK = "engine.chunk"


def _rows_first(args, kwargs, result):
    return int(np.shape(args[1])[0])


def _one(args, kwargs, result):
    return 1


def _zero(args, kwargs, result):
    return 0


def _pairs(args, kwargs, result):
    n = int(np.shape(args[1])[0])
    return n * (n - 1) // 2


def _cross(args, kwargs, result):
    return int(np.shape(args[1])[0]) * int(np.shape(args[2])[0])


def _batch_rows(args, kwargs, result):
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _results(args, kwargs, result):
    if isinstance(result, list):
        if result and isinstance(result[0], list):
            return sum(len(r) for r in result)
        return len(result)
    return 0


def wrap_plan():
    """``(class, method, span name, layer, rows)`` for every wrapped call.

    *rows* maps ``(args, kwargs, result)`` to the rows the call processed:
    distances or row norms computed for kernels and distances, vectors
    mapped for the QMap transform, and results returned for the access
    methods.
    """
    from repro.core.qmap import QMap
    from repro.distances.base import CountingDistance
    from repro.kernels.kernels import L2Kernel, L2QueryContext, QFDKernel, QFDQueryContext
    from repro.mam.base import AccessMethod, DistancePort
    from repro.models import QFDModel, QMapModel
    from repro.models.base import MAM_REGISTRY, BuiltIndex
    from repro.storage.cache import LRUPageCache

    plan = [
        (QMapModel, "build_index", "models.QMapModel.build_index", "models", _zero),
        (QFDModel, "build_index", "models.QFDModel.build_index", "models", _zero),
    ]
    for name in ("knn_search", "range_search", "knn_search_batch", "insert"):
        plan.append((BuiltIndex, name, f"models.BuiltIndex.{name}", "models", _results))
    plan += [
        (QMap, "transform", "core.qmap.QMap.transform", "core.qmap", _one),
        (QMap, "transform_batch", "core.qmap.QMap.transform_batch", "core.qmap", _batch_rows),
    ]
    for name in ("knn_search", "range_search", "knn_search_batch", "insert"):
        plan.append((AccessMethod, name, f"mam.AccessMethod.{name}", "mam", _results))
    # Construction is the access method's build.
    for cls in MAM_REGISTRY.values():
        plan.append((cls, "__init__", f"mam.{cls.__name__}.__init__", "mam", _zero))
    plan += [
        (DistancePort, "charge", "mam.DistancePort.charge", "mam.charge", _zero),
        (CountingDistance, "add_counts", "mam.CountingDistance.add_counts", "mam.charge", _zero),
        (CountingDistance, "__call__", "distances.CountingDistance.__call__", "distances", _one),
        (CountingDistance, "one_to_many", "distances.CountingDistance.one_to_many", "distances", _batch_rows),
    ]
    for ctx in (QFDQueryContext, L2QueryContext):
        plan.append((ctx, "many", f"kernels.{ctx.__name__}.many", "kernels", _rows_first))
        plan.append((ctx, "one", f"kernels.{ctx.__name__}.one", "kernels", _one))
    for kernel in (QFDKernel, L2Kernel):
        kname = kernel.__name__
        plan += [
            (kernel, "bind", f"kernels.{kname}.bind", "kernels", _zero),
            (kernel, "one_to_many", f"kernels.{kname}.one_to_many", "kernels", _batch_rows),
            (kernel, "pairwise", f"kernels.{kname}.pairwise", "kernels", _pairs),
            (kernel, "cross", f"kernels.{kname}.cross", "kernels", _cross),
            (kernel, "row_norms", f"kernels.{kname}.row_norms", "kernels", _rows_first),
        ]
    plan += [
        (LRUPageCache, "read_page", "storage.LRUPageCache.read_page", "storage", _one),
        (LRUPageCache, "write_page", "storage.LRUPageCache.write_page", "storage", _one),
    ]
    return plan


#: Fields of one span, interleaved in each thread's span array.
FIELDS = ("id", "name", "phase", "start", "end", "parent", "request")


class _ThreadState(threading.local):
    """Per-thread span stack, request id, span array and aggregates.

    Created on a thread's first traced call, after every wrapper is
    installed, so the aggregate tables cover every span name.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.stack: list[list[int]] = []  # [span id, child ns, parent, start ns, layer id]
        self.request = -1
        self.spans = array("q")
        n = len(tracer._names)
        # agg[phase][name id] = [calls, rows, inclusive ns, self ns]
        self.agg = [[[0, 0, 0, 0] for _ in range(n)] for _ in (OFF, SETUP, QUERY)]
        with tracer._lock:
            tracer._threads.append((threading.get_ident(), self.spans, self.agg))


class Tracer:
    """Collects spans while :attr:`phase` is ``SETUP`` or ``QUERY``."""

    def __init__(self) -> None:
        self.phase = OFF
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, array, list]] = []
        self._names: list[str] = []
        self._layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._state: _ThreadState | None = None
        self.queue_wait_ns = 0
        self.client_thread = threading.get_ident()

    # -- registration ---------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self._names.append(name)
        self._layers.append(layer)
        self._layer_ids.setdefault(layer, len(self._layer_ids))
        return len(self._names) - 1

    def install(self) -> None:
        """Wrap every method in :func:`wrap_plan` on the class defining it."""
        for cls, method, name, layer, rows in wrap_plan():
            original = cls.__dict__.get(method)
            if original is None:
                continue  # inherited: the defining class's wrapper times it
            name_id = self._name_id(name, layer)
            setattr(cls, method, self._wrapper(original, name_id, self._layer_ids[layer], rows))
        self._install_engine()
        self._state = _ThreadState(self)

    # -- span bookkeeping -----------------------------------------------

    def _open(self, name_id: int, parent: int | None = None) -> list[int]:
        stack = self._state.stack
        if parent is None:
            parent = stack[-1][0] if stack else -1
        layer_id = self._layer_ids[self._layers[name_id]]
        frame = [next(self._ids), 0, parent, perf_counter_ns(), layer_id]
        stack.append(frame)
        return frame

    def _close(self, frame: list[int], name_id: int, rows: int, phase: int) -> None:
        end = perf_counter_ns()
        st = self._state
        stack = st.stack
        stack.pop()
        span_id, child_ns, parent, start, _ = frame
        duration = end - start
        if stack:
            stack[-1][1] += duration
        st.spans.extend((span_id, name_id, phase, start, end, parent, st.request))
        slot = st.agg[phase][name_id]
        slot[0] += 1
        slot[1] += rows
        slot[2] += duration
        slot[3] += duration - child_ns

    def _wrapper(self, original, name_id: int, layer_id: int, rows_of):
        # _open/_close inlined: this runs around every traced call, and
        # the charge path alone makes about a thousand calls per query.
        tracer = self
        ids = self._ids
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase == OFF:
                return original(*args, **kwargs)
            st = tracer._state
            stack = st.stack
            if stack and stack[-1][4] == layer_id:
                # Not a layer boundary: the enclosing span already times it.
                return original(*args, **kwargs)
            frame = [next(ids), 0, stack[-1][0] if stack else -1, 0, layer_id]
            stack.append(frame)
            result = None
            start = frame[3] = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st.spans.extend((frame[0], name_id, phase, start, end, frame[2], st.request))
                slot = st.agg[phase][name_id]
                slot[0] += 1
                if rows_of is not _zero:
                    slot[1] += rows_of(args, kwargs, result)
                slot[2] += duration
                slot[3] += duration - frame[1]

        traced.__wrapped__ = original
        return traced

    def _install_engine(self) -> None:
        """Wrap each executor's ``map_ordered`` and the chunks it runs."""
        from repro.engine.executors import BatchExecutor, EXECUTOR_REGISTRY

        map_id = self._name_id(ENGINE_MAP, "engine")
        chunk_id = self._name_id(ENGINE_CHUNK, "mam")
        tracer = self
        for cls in set(EXECUTOR_REGISTRY.values()):
            original = cls.__dict__.get("map_ordered")
            if original is None or not issubclass(cls, BatchExecutor):
                continue

            def traced_map(executor, fn, indices, _original=original):
                phase = tracer.phase
                if phase == OFF:
                    return _original(executor, fn, indices)
                frame = tracer._open(map_id)
                submitted = frame[3]
                request = tracer._state.request

                def chunk(i):
                    st = tracer._state
                    outer_request = st.request
                    st.request = request
                    inner = tracer._open(chunk_id, parent=frame[0])
                    with tracer._lock:
                        tracer.queue_wait_ns += inner[3] - submitted
                    try:
                        return fn(i)
                    finally:
                        tracer._close(inner, chunk_id, 1, phase)
                        st.request = outer_request

                try:
                    return _original(executor, chunk, indices)
                finally:
                    tracer._close(frame, map_id, len(indices), phase)

            cls.map_ordered = traced_map

    # -- requests and results --------------------------------------------

    def begin_request(self, request: int) -> None:
        self._state.request = request

    def _spans(self) -> list[tuple[int, np.ndarray]]:
        """``(thread ident, spans as an (n, len(FIELDS)) array)`` per thread."""
        with self._lock:
            threads = list(self._threads)
        return [
            (ident, np.frombuffer(spans, dtype=np.int64).reshape(-1, len(FIELDS)))
            for ident, spans, _ in threads
        ]

    def aggregates(self, phase: int) -> dict[str, dict[str, float]]:
        """Per span name: layer, calls, rows, inclusive and self seconds."""
        with self._lock:
            tables = [agg[phase] for _, _, agg in self._threads]
        out: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self._names):
            calls, rows, incl, self_ns = (sum(t[name_id][f] for t in tables) for f in range(4))
            if calls:
                out[name] = {"layer": self._layers[name_id], "calls": calls, "rows": rows,
                             "seconds": incl / 1e9, "self_seconds": self_ns / 1e9}
        return out

    def client_root_seconds(self, phase: int) -> float:
        """Time the requesting thread spent inside any root span."""
        total = 0
        for ident, spans in self._spans():
            if ident == self.client_thread:
                roots = spans[(spans[:, 2] == phase) & (spans[:, 5] == -1)]
                total += int((roots[:, 4] - roots[:, 3]).sum())
        return total / 1e9

    def write(self, path: str) -> int:
        """Write every span to an ``.npz`` file; returns the span count."""
        per_thread = self._spans()
        spans = np.concatenate([s for _, s in per_thread]) if per_thread else np.empty((0, len(FIELDS)), np.int64)
        thread = np.concatenate([np.full(len(s), slot) for slot, (_, s) in enumerate(per_thread)]) if per_thread else np.empty(0, np.int64)
        arrays = {field: spans[:, col] for col, field in enumerate(FIELDS)}
        np.savez_compressed(path, thread=thread, names=np.array(self._names),
                            layers=np.array(self._layers), **arrays)
        return int(spans.shape[0])
