"""Disk-resident M-tree over the paged storage substrate.

"The M-tree is a dynamic index structure that provides a good performance
in the secondary memory (i.e., in database environments)" — paper
Section 4.3.  This module puts the library's M-tree there: every node is
serialized into one fixed-size page of a :class:`~repro.storage.PagedFile`
behind an LRU cache, so queries pay *page faults* in addition to distance
computations, exactly the two-component cost model of the paper's
experiments (and of the Section 5.3 cache discussion).

Node page layout (little-endian)::

    u8   is_leaf
    u32  n_entries
    per entry:
        i64  child_page (-1 for leaf entries)
        i64  object_index (-1 for routing entries)
        f64  radius
        f64  dist_to_parent
        f64  vector[dim]

Construction serializes a built in-memory :class:`~repro.mam.mtree.MTree`
(children before parents, so page ids resolve); queries then run purely
against pages — the in-memory tree is not retained.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import record_node_visit, record_pruned
from ..obs.events import (
    ROOT,
    emit_candidate_verify,
    emit_lb_check,
    emit_node_enter,
    emit_prune,
    emit_result_add,
)
from ..exceptions import PageError, StorageError
from ..storage.cache import LRUPageCache
from ..storage.pages import PagedFile
from .base import (
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    NodeBatchedSearchMixin,
    _KnnHeap,
    state_array,
    state_int,
)
from .mtree import MTree, _Node

__all__ = ["PagedMTree"]

_HEADER = struct.Struct("<BI")
_ENTRY_FIXED = struct.Struct("<qqdd")


class _PagedNode:
    """A node deserialized from a page."""

    __slots__ = ("is_leaf", "children", "indices", "radii", "dist_to_parent", "vectors")

    def __init__(
        self,
        is_leaf: bool,
        children: list[int],
        indices: list[int],
        radii: np.ndarray,
        dist_to_parent: np.ndarray,
        vectors: np.ndarray,
    ) -> None:
        self.is_leaf = is_leaf
        self.children = children
        self.indices = indices
        self.radii = radii
        self.dist_to_parent = dist_to_parent
        self.vectors = vectors


class PagedMTree(NodeBatchedSearchMixin, AccessMethod):
    """M-tree whose nodes live in fixed-size pages behind an LRU cache.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    capacity:
        Maximum entries per node; together with the dimensionality this
        determines the page size.
    cache_pages:
        LRU node-cache capacity (the paper's "fixed-size disk cache").
    path:
        Optional real file for the pages (in-memory by default).
    rng, split_policy, bulk_load:
        Forwarded to the in-memory build.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        capacity: int = 16,
        cache_pages: int = 32,
        path: str | None = None,
        split_policy: str = "mM_RAD",
        bulk_load: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        tree = MTree(
            self._data,
            self._port,
            capacity=capacity,
            split_policy=split_policy,
            bulk_load=bulk_load,
            rng=rng,
        )
        self._capacity = capacity
        entry_size = _ENTRY_FIXED.size + self.dim * 8
        page_size = _HEADER.size + (capacity + 1) * entry_size
        self._file = PagedFile(max(page_size, 64), path=path)
        self._cache = LRUPageCache(self._file, cache_pages)
        self._root_page = self._persist(tree._root)

    @property
    def cache(self) -> LRUPageCache:
        """The node cache (hit/fault statistics)."""
        return self._cache

    @property
    def capacity(self) -> int:
        """Maximum entries per node."""
        return self._capacity

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def _persist(self, node: _Node) -> int:
        """Write *node* (children first) and return its page id."""
        if len(node.entries) > self._capacity + 1:
            raise PageError(
                f"node with {len(node.entries)} entries exceeds the page "
                f"layout capacity {self._capacity + 1}"
            )
        parts = [_HEADER.pack(1 if node.is_leaf else 0, len(node.entries))]
        for entry in node.entries:
            child_page = -1 if entry.subtree is None else self._persist(entry.subtree)
            parts.append(
                _ENTRY_FIXED.pack(
                    child_page, entry.index, entry.radius, entry.dist_to_parent
                )
            )
            parts.append(np.ascontiguousarray(entry.vector, dtype="<f8").tobytes())
        page_id = self._cache.allocate()
        self._cache.write_page(page_id, b"".join(parts))
        return page_id

    def _load(self, page_id: int) -> _PagedNode:
        payload = self._cache.read_page(page_id)
        is_leaf, n_entries = _HEADER.unpack_from(payload, 0)
        offset = _HEADER.size
        children: list[int] = []
        indices: list[int] = []
        radii = np.empty(n_entries)
        dist_to_parent = np.empty(n_entries)
        vectors = np.empty((n_entries, self.dim))
        vec_bytes = self.dim * 8
        for pos in range(n_entries):
            child_page, obj_index, radius, d_parent = _ENTRY_FIXED.unpack_from(
                payload, offset
            )
            offset += _ENTRY_FIXED.size
            vectors[pos] = np.frombuffer(payload, dtype="<f8", count=self.dim, offset=offset)
            offset += vec_bytes
            children.append(child_page)
            indices.append(obj_index)
            radii[pos] = radius
            dist_to_parent[pos] = d_parent
        return _PagedNode(bool(is_leaf), children, indices, radii, dist_to_parent, vectors)

    def _write_node(
        self,
        page_id: int,
        is_leaf: bool,
        children: list[int],
        indices: list[int],
        radii: list[float],
        dist_to_parent: list[float],
        vectors: np.ndarray,
    ) -> None:
        """Serialize a node back into its page."""
        n_entries = len(indices)
        if n_entries > self._capacity + 1:
            raise PageError(
                f"node with {n_entries} entries exceeds the page layout "
                f"capacity {self._capacity + 1}"
            )
        parts = [_HEADER.pack(1 if is_leaf else 0, n_entries)]
        for pos in range(n_entries):
            parts.append(
                _ENTRY_FIXED.pack(
                    children[pos], indices[pos], radii[pos], dist_to_parent[pos]
                )
            )
            parts.append(np.ascontiguousarray(vectors[pos], dtype="<f8").tobytes())
        self._cache.write_page(page_id, b"".join(parts))

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        # The page image *is* the structure: dump every page verbatim.
        # Reads bypass the LRU cache so saving does not disturb the
        # hit/fault statistics the benchmarks report.
        n_pages = self._file.n_pages
        pages = np.empty((n_pages, self._file.page_size), dtype=np.uint8)
        for page_id in range(n_pages):
            pages[page_id] = np.frombuffer(
                self._file.read_page(page_id), dtype=np.uint8
            )
        return {
            "pages": pages,
            "root_page": np.int64(self._root_page),
            "capacity": np.int64(self._capacity),
            "cache_pages": np.int64(self._cache.capacity),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pages = state_array(state, "pages", dtype=np.uint8)
        root_page = state_int(state, "root_page")
        capacity = state_int(state, "capacity")
        cache_pages = state_int(state, "cache_pages")
        super()._restore_state(state)
        if pages.ndim != 2 or pages.shape[0] < 1:
            raise StorageError("paged M-tree snapshot: pages must be a 2-d array")
        entry_size = _ENTRY_FIXED.size + self.dim * 8
        expected = max(_HEADER.size + (capacity + 1) * entry_size, 64)
        if pages.shape[1] != expected:
            raise StorageError(
                f"paged M-tree snapshot: page size {pages.shape[1]} does not "
                f"match capacity {capacity} and dimension {self.dim} "
                f"(expected {expected})"
            )
        if not 0 <= root_page < pages.shape[0]:
            raise StorageError(
                f"paged M-tree snapshot: root page {root_page} out of range "
                f"[0, {pages.shape[0]})"
            )
        self._capacity = capacity
        self._file = PagedFile(expected)
        for row in pages:
            page_id = self._file.allocate()
            self._file.write_page(page_id, row.tobytes())
        self._file.stats.reset()
        self._cache = LRUPageCache(self._file, cache_pages)
        self._root_page = root_page

    def _verify_state_probe(self) -> None:
        # Same check as MTree: a child entry's stored parent distance must
        # be reproducible from the supplied metric.
        root = self._load(self._root_page)
        if root.is_leaf or not root.children:
            return
        child = self._load(root.children[0])
        if not child.indices:
            return
        probe = self._port.pair_uncounted(child.vectors[0], root.vectors[0])
        if not np.isclose(probe, child.dist_to_parent[0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored parent distances "
                "(wrong metric or wrong matrix?)"
            )

    # ------------------------------------------------------------------
    # dynamic inserts (page-level, with mM_RAD splits)
    # ------------------------------------------------------------------

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Descend, append to the leaf page, split overflowing pages upward."""
        path: list[tuple[int, int]] = []  # (page_id, chosen entry position)
        page_id = self._root_page
        descent_dist = 0.0
        while True:
            node = self._load(page_id)
            if node.is_leaf:
                break
            dists = self._port.many(vector, node.vectors)
            keys = [
                (0.0, float(d)) if d <= node.radii[pos] else (float(d - node.radii[pos]), float(d))
                for pos, d in enumerate(dists)
            ]
            pos = min(range(len(keys)), key=keys.__getitem__)
            chosen_dist = keys[pos][1]
            if chosen_dist > node.radii[pos]:
                node.radii[pos] = chosen_dist
                self._write_node(
                    page_id,
                    node.is_leaf,
                    node.children,
                    node.indices,
                    list(node.radii),
                    list(node.dist_to_parent),
                    node.vectors,
                )
            path.append((page_id, pos))
            descent_dist = chosen_dist
            page_id = node.children[pos]

        leaf = self._load(page_id)
        children = leaf.children + [-1]
        indices = leaf.indices + [index]
        radii = list(leaf.radii) + [0.0]
        d_parent = list(leaf.dist_to_parent) + [descent_dist]
        vectors = np.vstack([leaf.vectors, vector.reshape(1, -1)])
        if len(indices) <= self._capacity:
            self._write_node(page_id, True, children, indices, radii, d_parent, vectors)
            return
        self._split_page(page_id, True, children, indices, radii, vectors, path)

    def _split_page(
        self,
        page_id: int,
        is_leaf: bool,
        children: list[int],
        indices: list[int],
        radii: list[float],
        vectors: np.ndarray,
        path: list[tuple[int, int]],
    ) -> None:
        """mM_RAD split of an overflowing page, propagating upward."""
        n = vectors.shape[0]
        pairwise = self._port.pairwise(vectors)
        subtree_radii = np.asarray(radii)
        best_pair, best_score = (0, 1), float("inf")
        for i in range(n):
            for j in range(i + 1, n):
                closer_to_i = pairwise[i] <= pairwise[j]
                r1 = float(np.max(np.where(closer_to_i, pairwise[i] + subtree_radii, 0.0)))
                r2 = float(np.max(np.where(closer_to_i, 0.0, pairwise[j] + subtree_radii)))
                if max(r1, r2) < best_score:
                    best_pair, best_score = (i, j), max(r1, r2)
        first, second = best_pair

        group1, group2 = [], []
        for pos in range(n):
            if pos == first:
                group1.append(pos)
            elif pos == second:
                group2.append(pos)
            elif pairwise[first, pos] <= pairwise[second, pos]:
                group1.append(pos)
            else:
                group2.append(pos)

        def write_group(target_page: int, members: list[int], promoted: int) -> float:
            cover = 0.0
            d_parent = []
            for pos in members:
                d = float(pairwise[promoted, pos])
                d_parent.append(d)
                cover = max(cover, d + radii[pos])
            self._write_node(
                target_page,
                is_leaf,
                [children[pos] for pos in members],
                [indices[pos] for pos in members],
                [radii[pos] for pos in members],
                d_parent,
                vectors[members],
            )
            return cover

        page2 = self._cache.allocate()
        radius1 = write_group(page_id, group1, first)
        radius2 = write_group(page2, group2, second)

        routing_vectors = np.vstack([vectors[first], vectors[second]])
        routing_radii = [radius1, radius2]
        routing_pages = [page_id, page2]

        # Routing entries keep the promoted object's database index so the
        # kernel layer can look up its cached row norm.
        routing_indices = [indices[first], indices[second]]

        if not path:
            new_root = self._cache.allocate()
            self._write_node(
                new_root,
                False,
                routing_pages,
                routing_indices,
                routing_radii,
                [0.0, 0.0],
                routing_vectors,
            )
            self._root_page = new_root
            return

        parent_page, entry_pos = path[-1]
        parent = self._load(parent_page)
        if len(path) >= 2:
            grand_page, grand_pos = path[-2]
            grand_vec = self._load(grand_page).vectors[grand_pos]
            d_parent_new = [
                self._port.pair(routing_vectors[0], grand_vec),
                self._port.pair(routing_vectors[1], grand_vec),
            ]
        else:
            d_parent_new = [0.0, 0.0]

        keep = [pos for pos in range(len(parent.indices)) if pos != entry_pos]
        p_children = [parent.children[pos] for pos in keep] + routing_pages
        p_indices = [parent.indices[pos] for pos in keep] + routing_indices
        p_radii = [float(parent.radii[pos]) for pos in keep] + routing_radii
        p_dparent = [float(parent.dist_to_parent[pos]) for pos in keep] + d_parent_new
        p_vectors = np.vstack([parent.vectors[keep], routing_vectors])
        if len(p_indices) <= self._capacity:
            self._write_node(
                parent_page, False, p_children, p_indices, p_radii, p_dparent, p_vectors
            )
            return
        self._split_page(
            parent_page, False, p_children, p_indices, p_radii, p_vectors, path[:-1]
        )

    # ------------------------------------------------------------------
    # queries (same algorithms as MTree, over paged nodes)
    # ------------------------------------------------------------------

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        out: list[Neighbor] = []
        stack: list[tuple[int, float | None, int]] = [(self._root_page, None, ROOT)]
        while stack:
            page_id, d_query_parent, parent_tok = stack.pop()
            node = self._load(page_id)
            record_node_visit()
            tok = emit_node_enter(
                parent_tok, f"page:{page_id}" if parent_tok >= 0 else "page"
            )
            n = len(node.indices)
            # Parent-distance pruning needs nothing computed inside this
            # node, so the survivors are evaluated with one batched call
            # (charged one logical scalar call each, like the old loop).
            if d_query_parent is None:
                alive = list(range(n))
            else:
                # Stored bounds are often exactly tight — same pruning
                # slack as MTree (vectorized over the page).
                slack = bound.slack(d_query_parent, node.dist_to_parent)
                lower = np.abs(d_query_parent - node.dist_to_parent) - node.radii - slack
                alive = [pos for pos in range(n) if lower[pos] <= radius]
                if tok >= 0:
                    for pos in range(n):
                        emit_lb_check(
                            tok, float(lower[pos]), radius,
                            pruned=lower[pos] > radius, label="parent-distance",
                        )
            if not node.is_leaf and len(alive) < n:
                record_pruned(n - len(alive))
                emit_prune(tok, n - len(alive), "parent-distance")
            if not alive:
                continue
            dists = bound.many(
                node.vectors[alive], [node.indices[pos] for pos in alive], charge="calls"
            )
            for d, pos in zip(dists, alive):
                dist = float(d)
                if node.is_leaf:
                    emit_candidate_verify(tok, node.indices[pos], dist)
                    if dist <= radius:
                        out.append(Neighbor(dist, node.indices[pos]))
                        emit_result_add(tok, node.indices[pos], dist)
                elif (
                    dist - bound.slack(dist, node.radii[pos])
                    <= radius + node.radii[pos]
                ):
                    emit_lb_check(
                        tok,
                        dist - bound.slack(dist, node.radii[pos]),
                        radius + node.radii[pos],
                        pruned=False, label="covering-radius",
                    )
                    stack.append((node.children[pos], dist, tok))
                else:
                    record_pruned()
                    emit_lb_check(
                        tok,
                        dist - bound.slack(dist, node.radii[pos]),
                        radius + node.radii[pos],
                        pruned=True, label="covering-radius",
                    )
                    emit_prune(tok, 1, "covering-radius")
        return out

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        heap = _KnnHeap(k)
        counter = itertools.count()
        queue: list[tuple[float, int, int, float | None, int]] = [
            (0.0, next(counter), self._root_page, None, ROOT)
        ]
        while queue:
            dmin, _, page_id, d_query_parent, parent_tok = heapq.heappop(queue)
            if dmin > heap.radius:
                break
            node = self._load(page_id)
            record_node_visit()
            tok = emit_node_enter(
                parent_tok, f"page:{page_id}" if parent_tok >= 0 else "page"
            )
            n = len(node.indices)
            if node.is_leaf:
                # Offers shrink the pruning radius mid-loop: evaluate the
                # whole page speculatively (uncharged), replay the skip
                # test sequentially, charge only consumed entries.
                dists = bound.compute_many(node.vectors, node.indices)
                for pos in range(n):
                    if d_query_parent is not None:
                        lower = (
                            abs(d_query_parent - node.dist_to_parent[pos])
                            - node.radii[pos]
                            - bound.slack(d_query_parent, node.dist_to_parent[pos])
                        )
                        if lower > heap.radius:
                            emit_lb_check(
                                tok, lower, heap.radius,
                                pruned=True, label="parent-distance",
                            )
                            continue
                        emit_lb_check(
                            tok, lower, heap.radius,
                            pruned=False, label="parent-distance",
                        )
                    bound.charge_calls(1)
                    emit_candidate_verify(tok, node.indices[pos], float(dists[pos]))
                    heap.offer(float(dists[pos]), node.indices[pos])
            else:
                # No offers while scanning an internal page — the pruning
                # radius is constant and the survivor set known up front.
                cutoff = heap.radius
                if d_query_parent is None:
                    alive = list(range(n))
                else:
                    slack = bound.slack(d_query_parent, node.dist_to_parent)
                    lower = (
                        np.abs(d_query_parent - node.dist_to_parent)
                        - node.radii
                        - slack
                    )
                    alive = [pos for pos in range(n) if lower[pos] <= cutoff]
                    if tok >= 0:
                        for pos in range(n):
                            emit_lb_check(
                                tok, float(lower[pos]), cutoff,
                                pruned=lower[pos] > cutoff, label="parent-distance",
                            )
                if len(alive) < n:
                    record_pruned(n - len(alive))
                    emit_prune(tok, n - len(alive), "parent-distance")
                if not alive:
                    continue
                dists = bound.many(
                    node.vectors[alive],
                    [node.indices[pos] for pos in alive],
                    charge="calls",
                )
                for d, pos in zip(dists, alive):
                    dist = float(d)
                    child_dmin = max(
                        dist - node.radii[pos] - bound.slack(dist, node.radii[pos]),
                        0.0,
                    )
                    if child_dmin <= cutoff:
                        emit_lb_check(tok, child_dmin, cutoff, pruned=False, label="dmin")
                        heapq.heappush(
                            queue,
                            (child_dmin, next(counter), node.children[pos], dist, tok),
                        )
                    else:
                        record_pruned()
                        emit_lb_check(tok, child_dmin, cutoff, pruned=True, label="dmin")
                        emit_prune(tok, 1, "covering-radius")
        return heap.neighbors()

    def node_pages(self) -> int:
        """Number of node pages on disk."""
        return self._file.n_pages

    def close(self) -> None:
        """Release the backing paged file."""
        self._file.close()

    def __enter__(self) -> "PagedMTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
