"""The M-tree (Ciaccia, Patella & Zezula — paper reference [13], Section 4.3).

A dynamic, balanced, hierarchical metric index.  Selected objects act as
*routing objects* (local pivots) of ball-shaped regions; the remaining
objects are partitioned among the regions.  Insertion descends like a
B-tree (O(log m) distance computations per object plus splits, hence
O(m log m) to build), and queries traverse only the nodes whose ball
overlaps the query region.

Implemented features:

* dynamic inserts with the classic subtree-choice heuristic (prefer a
  region that needs no enlargement, minimum distance; otherwise minimum
  enlargement),
* node splits with promotion policies ``mM_RAD`` (minimize the larger of
  the two new covering radii — the policy recommended by the original
  paper) and ``random``, both with generalized-hyperplane partitioning,
* distance-to-parent pruning: the stored ``d(o, parent)`` values let both
  query algorithms discard entries *without* computing any distance, the
  key saving counted by the experiments,
* range search and best-first kNN search.

Every distance evaluation — during build and during queries — is charged
to the :class:`~repro.mam.base.DistancePort`, making the index usable for
the paper's cost accounting in both the QFD and the QMap model.
"""

from __future__ import annotations

import heapq
import itertools
import mmap as _mmap
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.executors import resolve_executor
from ..engine.trace import record_node_visit, record_pruned
from ..exceptions import QueryError, StorageError
from ..obs.events import (
    ROOT,
    emit_candidate_verify,
    emit_lb_check,
    emit_node_enter,
    emit_prune,
    emit_result_add,
)
from .base import (
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    NodeBatchedSearchMixin,
    _KnnHeap,
    state_array,
    state_float,
    state_int,
    state_str,
)

__all__ = ["MTree", "SPLIT_POLICIES"]

SPLIT_POLICIES = ("mM_RAD", "random")

#: Cap on candidate promotion pairs examined by the mM_RAD policy; beyond
#: this many pairs a random sample is scored instead of all of them.
_MAX_PROMOTION_PAIRS = 64


class _Entry:
    """One node slot: a leaf object or a routing object with a subtree."""

    __slots__ = ("vector", "index", "radius", "dist_to_parent", "subtree")

    def __init__(
        self,
        vector: np.ndarray,
        *,
        index: int = -1,
        radius: float = 0.0,
        dist_to_parent: float = 0.0,
        subtree: "_Node | None" = None,
    ) -> None:
        self.vector = vector
        self.index = index
        self.radius = radius
        self.dist_to_parent = dist_to_parent
        self.subtree = subtree


class _Node:
    """An M-tree node holding up to ``capacity`` entries."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[_Entry] = []
        self.is_leaf = is_leaf


class MTree(NodeBatchedSearchMixin, AccessMethod):
    """In-memory M-tree over a black-box metric.

    Parameters
    ----------
    database:
        ``(m, n)`` rows, inserted dynamically one by one (the paper builds
        its M-tree "by dynamic insertions in the same way as B-tree").
    distance:
        Black-box metric (port or plain callable).
    capacity:
        Maximum entries per node (>= 2).
    split_policy:
        ``"mM_RAD"`` (default) or ``"random"``.
    epsilon:
        Relative-error relaxation for kNN queries: with ``epsilon > 0``
        subtrees are pruned whenever they cannot contain an object closer
        than ``tau / (1 + epsilon)``, so every reported distance is within
        a factor ``(1 + epsilon)`` of the true kth distance while visiting
        fewer nodes — the classic approximate best-first trade-off
        (cf. the paper's reference [27]).  ``0`` (default) is exact.
    rng:
        Randomness for the random split policy and promotion sampling.
    bulk_workers:
        With ``bulk_load=True``, fan the top-level cluster builds out
        over this many workers through the engine's executors.  The
        resulting tree is deterministic for *any* worker count (each
        cluster gets its own spawned RNG stream), but differs from the
        sequential default (``None``), whose RNG stream is shared across
        clusters in build order.
    bulk_executor:
        Executor name for the parallel bulk path: ``"thread"`` (default)
        or ``"serial"``.  The process executor cannot share the node
        graph under assembly and is rejected.
    """

    #: Bulk loads gather rows per leaf / per seed set / per cross chunk,
    #: and entries keep row *views* of the store, so a memory-mapped
    #: database is never materialized on the heap.
    supports_out_of_core = True

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        capacity: int = 16,
        split_policy: str = "mM_RAD",
        bulk_load: bool = False,
        epsilon: float = 0.0,
        rng: np.random.Generator | None = None,
        bulk_workers: int | None = None,
        bulk_executor: str = "thread",
    ) -> None:
        if capacity < 2:
            raise QueryError(f"node capacity must be >= 2, got {capacity}")
        if split_policy not in SPLIT_POLICIES:
            raise QueryError(
                f"unknown split policy {split_policy!r}; choose from {SPLIT_POLICIES}"
            )
        if epsilon < 0.0:
            raise QueryError(f"epsilon must be non-negative, got {epsilon}")
        if bulk_workers is not None and bulk_workers < 1:
            raise QueryError(f"bulk_workers must be >= 1, got {bulk_workers}")
        if bulk_executor not in ("thread", "serial"):
            raise QueryError(
                "bulk_executor must be 'thread' or 'serial': worker "
                "processes cannot share the node graph under assembly"
            )
        super().__init__(database, distance)
        self._capacity = capacity
        self._split_policy = split_policy
        self._epsilon = epsilon
        self._rng = np.random.default_rng(0) if rng is None else rng
        # Entry vectors are per-row views of the database.  Views of an
        # np.memmap are np.memmap instances, each carrying an attribute
        # dict (_mmap/filename/offset/mode, ~1 KiB) — about 2 GiB of
        # pure bookkeeping across 1M leaves.  A plain-ndarray alias of
        # the same mapping makes them ordinary lightweight views; the
        # floats (and therefore every distance) are untouched.
        self._entry_rows = (
            self._data.view(np.ndarray)
            if isinstance(self._data, np.memmap)
            else self._data
        )
        if bulk_load:
            indices = np.arange(self.size, dtype=np.intp)
            self._root, _, _, _ = self._bulk_build(
                indices, workers=bulk_workers, executor=bulk_executor
            )
        else:
            self._root = _Node(is_leaf=True)
            for i, row in enumerate(self._entry_rows):
                self._insert(row, i)

    # ------------------------------------------------------------------
    # bulk loading (Ciaccia & Patella style, simplified)
    # ------------------------------------------------------------------

    def _medoid_distances(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """Medoid position plus its distances to every row.

        One physical pairwise matrix replaces the per-candidate loop; the
        charge replays the loop's logical pattern exactly — ``n`` rows per
        scored candidate (``n^2``) plus ``n`` for re-evaluating the winner.
        """
        n = rows.shape[0]
        matrix = self._port.pairwise(rows, charge=False)
        medoid = int(np.argmin(matrix.max(axis=1, initial=0.0)))
        self._port.charge(rows=n * n + n)
        return medoid, matrix[medoid]

    def _cluster_owners(self, seed_rows: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Nearest-seed assignment for every object in *indices*.

        The seed-to-object cross matrix is the one place a bulk load
        touches the whole database at once, so it is computed in chunks
        of ``port.block_rows`` candidate rows (the whole set when
        unblocked): each chunk materializes only ``block_rows`` records
        from the store, keeping an out-of-core build's heap bounded.  One
        explicit charge replays the logical cost of the full cross —
        identical to the unchunked call it replaces.
        """
        n = int(indices.shape[0])
        n_seeds = int(seed_rows.shape[0])
        owner = np.empty(n, dtype=np.intp)
        chunk = self._port.block_rows or n
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = self._entry_rows[indices[start:stop]]
            dist_matrix = self._port.cross(seed_rows, block, charge=False)
            owner[start:stop] = np.argmin(dist_matrix, axis=0)
        self._port.charge(rows=n_seeds * n)
        return owner

    def _release_source_pages(self) -> None:
        """Advise the OS to evict the database mapping's resident pages.

        Only meaningful for memory-mapped databases: the pages are clean
        and file-backed, so the next access simply re-faults them — no
        data moves, no float changes, only the measured RSS.  Called
        between *top-level* cluster builds so the source residency stays
        near one cluster's slice instead of the whole file.
        """
        mapped = getattr(self._data, "_mmap", None)
        if mapped is not None and hasattr(_mmap, "MADV_DONTNEED"):
            mapped.madvise(_mmap.MADV_DONTNEED)

    def _build_children(
        self,
        groups: list[np.ndarray],
        rng: np.random.Generator,
        workers: int | None,
        executor: str,
        depth: int = 1,
    ) -> list[tuple["_Node", np.ndarray, float, int]]:
        """Build one subtree per index group, optionally in parallel.

        Sequential (``workers=None``) shares *rng* across groups in build
        order — byte-identical to the historical recursion.  With workers,
        each group gets its own spawned stream so the tree is
        deterministic for any worker count; the thread pool is safe here
        because the groups' node graphs are disjoint and the distance
        counter serializes its own bookkeeping.
        """
        if workers is None or len(groups) <= 1:
            children = []
            for group in groups:
                children.append(self._bulk_build(group, rng=rng, depth=depth + 1))
                if depth == 0:
                    self._release_source_pages()
            return children
        rngs = rng.spawn(len(groups))
        pool = resolve_executor(executor, workers=workers)
        children = pool.map_ordered(
            lambda pos: self._bulk_build(groups[pos], rng=rngs[pos], depth=depth + 1),
            range(len(groups)),
        )
        if depth == 0:
            self._release_source_pages()
        return children

    def _bulk_build(
        self,
        indices: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        workers: int | None = None,
        executor: str = "thread",
        depth: int = 0,
    ) -> tuple[_Node, np.ndarray, float, int]:
        """Recursive bulk build.

        Returns ``(node, routing_vector, covering_radius, routing_index)``
        for the built subtree.  Seeds are sampled, objects are clustered to
        their nearest seed, and subtrees are built per cluster — the
        classic recipe, trading strict height balance (which search
        correctness never needed) for tight clusters from the start.

        *indices* is an intp array into the database; rows are gathered
        from the store per leaf / per seed set / per cross chunk, never
        all at once, so a memory-mapped database is streamed rather than
        materialized.  *workers* fans the top-level clusters out across
        the engine's executors (recursive calls stay sequential — the
        top split alone exposes up to ``capacity``-way parallelism).
        """
        if rng is None:
            rng = self._rng
        n = int(indices.shape[0])
        if n <= self._capacity:
            rows = np.asarray(self._entry_rows[indices])
            node = _Node(is_leaf=True)
            medoid, dists = self._medoid_distances(rows)
            for pos, obj in enumerate(indices):
                obj = int(obj)
                node.entries.append(
                    _Entry(self._entry_rows[obj], index=obj, dist_to_parent=float(dists[pos]))
                )
            # .copy(): a bare rows[medoid] view would pin the whole
            # leaf gather (capacity x dim) alive for the tree's lifetime.
            return (
                node,
                rows[medoid].copy(),
                float(dists.max(initial=0.0)),
                int(indices[medoid]),
            )

        n_seeds = min(self._capacity, n)
        seed_positions = rng.choice(n, size=n_seeds, replace=False)
        seed_rows = np.asarray(self._entry_rows[indices[seed_positions]])
        owner = self._cluster_owners(seed_rows, indices)
        # Coincident seeds can dump every object into one cluster — no
        # progress, infinite recursion.  Chunk arbitrarily instead: with
        # (near-)identical objects any partition is equally tight.
        largest = int(np.bincount(owner, minlength=n_seeds).max())
        if largest == n:
            chunks = [
                indices[start : start + self._capacity]
                for start in range(0, n, self._capacity)
            ]
            node = _Node(is_leaf=False)
            child_indices = []
            for child, routing_vec, radius, routing_idx in self._build_children(
                chunks, rng, workers, executor, depth
            ):
                child_indices.append(routing_idx)
                node.entries.append(
                    _Entry(routing_vec, index=routing_idx, radius=radius, subtree=child)
                )
            routing_rows = np.array([e.vector for e in node.entries])
            medoid, dists = self._medoid_distances(routing_rows)
            radius = 0.0
            for entry, dist in zip(node.entries, dists):
                entry.dist_to_parent = float(dist)
                radius = max(radius, float(dist) + entry.radius)
            return node, routing_rows[medoid].copy(), radius, child_indices[medoid]
        # Every seed owns at least itself, but a cluster can still collapse
        # when seeds coincide; drop empty groups.
        groups = [
            members
            for group_id in range(n_seeds)
            if (members := indices[np.flatnonzero(owner == group_id)]).size
        ]
        node = _Node(is_leaf=False)
        child_indices = []
        for child, routing_vec, radius, routing_idx in self._build_children(
            groups, rng, workers, executor, depth
        ):
            child_indices.append(routing_idx)
            node.entries.append(
                _Entry(routing_vec, index=routing_idx, radius=radius, subtree=child)
            )
        if len(node.entries) == 1:
            # Degenerate clustering (all seeds equal): fall back to the
            # only child as this subtree.
            only = node.entries[0]
            return only.subtree, only.vector, only.radius, only.index  # type: ignore[return-value]
        routing_rows = np.array([e.vector for e in node.entries])
        medoid, dists = self._medoid_distances(routing_rows)
        radius = 0.0
        for entry, dist in zip(node.entries, dists):
            entry.dist_to_parent = float(dist)
            radius = max(radius, float(dist) + entry.radius)
        return node, routing_rows[medoid].copy(), radius, child_indices[medoid]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _insert(self, vector: np.ndarray, index: int) -> None:
        path: list[tuple[_Node, _Entry]] = []  # (node, chosen routing entry)
        node = self._root
        descent_distance = 0.0
        while not node.is_leaf:
            entry, descent_distance = self._choose_subtree(node, vector)
            path.append((node, entry))
            node = entry.subtree  # type: ignore[assignment]
        node.entries.append(
            _Entry(vector, index=index, dist_to_parent=descent_distance)
        )
        if len(node.entries) > self._capacity:
            self._split(node, path)

    def _choose_subtree(self, node: _Node, vector: np.ndarray) -> tuple[_Entry, float]:
        """Pick the routing entry to descend into, enlarging its radius if needed."""
        rows = np.array([e.vector for e in node.entries])
        dists = self._port.many(vector, rows)
        best: _Entry | None = None
        best_key = (float("inf"), float("inf"))
        for entry, dist in zip(node.entries, dists):
            if dist <= entry.radius:
                key = (0.0, float(dist))
            else:
                key = (float(dist - entry.radius), float(dist))
            if key < best_key:
                best_key, best = key, entry
        assert best is not None
        chosen_dist = best_key[1]
        if chosen_dist > best.radius:
            best.radius = chosen_dist
        return best, chosen_dist

    def _split(self, node: _Node, path: list[tuple[_Node, _Entry]]) -> None:
        entries = node.entries
        # One pairwise distance matrix serves both promotion scoring and the
        # final partition — the standard mM_RAD implementation trick that
        # keeps split cost at O(capacity^2) distance computations.
        pairwise = self._pairwise_matrix(entries)
        first, second = self._promote(entries, pairwise)
        group1, group2, radius1, radius2 = self._partition(entries, first, second, pairwise)

        node1 = _Node(node.is_leaf)
        node1.entries = group1
        node2 = _Node(node.is_leaf)
        node2.entries = group2
        routing1 = _Entry(
            entries[first].vector,
            index=entries[first].index,
            radius=radius1,
            subtree=node1,
        )
        routing2 = _Entry(
            entries[second].vector,
            index=entries[second].index,
            radius=radius2,
            subtree=node2,
        )

        if not path:
            new_root = _Node(is_leaf=False)
            new_root.entries = [routing1, routing2]
            self._root = new_root
            return
        parent, old_entry = path[-1]
        parent.entries.remove(old_entry)
        grandparent_vec = path[-2][1].vector if len(path) >= 2 else None
        for routing in (routing1, routing2):
            if grandparent_vec is not None:
                routing.dist_to_parent = self._port.pair(routing.vector, grandparent_vec)
            parent.entries.append(routing)
        if len(parent.entries) > self._capacity:
            self._split(parent, path[:-1])

    def _pairwise_matrix(self, entries: list[_Entry]) -> np.ndarray:
        """Symmetric distance matrix over the entry vectors (charged once)."""
        rows = np.array([e.vector for e in entries])
        return self._port.pairwise(rows)

    def _promote(self, entries: list[_Entry], pairwise: np.ndarray) -> tuple[int, int]:
        """Choose the two entries to promote as new routing objects."""
        n = len(entries)
        if self._split_policy == "random":
            first, second = self._rng.choice(n, size=2, replace=False)
            return int(first), int(second)
        # mM_RAD: score candidate pairs by the larger resulting covering
        # radius, reading all distances from the precomputed matrix.
        all_pairs = list(itertools.combinations(range(n), 2))
        if len(all_pairs) > _MAX_PROMOTION_PAIRS:
            picks = self._rng.choice(len(all_pairs), size=_MAX_PROMOTION_PAIRS, replace=False)
            pairs = [all_pairs[i] for i in picks]
        else:
            pairs = all_pairs
        subtree_radii = np.array([e.radius for e in entries])
        best_pair, best_score = pairs[0], float("inf")
        for i, j in pairs:
            closer_to_i = pairwise[i] <= pairwise[j]
            cover_i = pairwise[i] + subtree_radii
            cover_j = pairwise[j] + subtree_radii
            r1 = float(np.max(np.where(closer_to_i, cover_i, 0.0)))
            r2 = float(np.max(np.where(closer_to_i, 0.0, cover_j)))
            score = max(r1, r2)
            if score < best_score:
                best_pair, best_score = (i, j), score
        return best_pair

    def _partition(
        self, entries: list[_Entry], first: int, second: int, pairwise: np.ndarray
    ) -> tuple[list[_Entry], list[_Entry], float, float]:
        """Generalized-hyperplane partition around two promoted entries.

        Returns the two entry groups (with ``dist_to_parent`` updated to
        the respective promoted object) and the two covering radii.  For
        internal entries the covering radius accounts for the subtree
        radius: ``r = max(d + entry.radius)``.
        """
        d1 = pairwise[first]
        d2 = pairwise[second]
        group1: list[_Entry] = []
        group2: list[_Entry] = []
        radius1 = radius2 = 0.0
        for pos, entry in enumerate(entries):
            if pos == first:
                to_first = True
            elif pos == second:
                to_first = False
            else:
                to_first = d1[pos] <= d2[pos]
            if to_first:
                entry.dist_to_parent = float(d1[pos])
                group1.append(entry)
                radius1 = max(radius1, float(d1[pos]) + entry.radius)
            else:
                entry.dist_to_parent = float(d2[pos])
                group2.append(entry)
                radius2 = max(radius2, float(d2[pos]) + entry.radius)
        return group1, group2, radius1, radius2

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Dynamic insert — the M-tree's native operation (Section 4.3)."""
        self._insert(vector, index)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        # Preorder node walk; every entry vector equals self._data[index]
        # (both the dynamic and the bulk build promote actual database
        # objects), so the topology arrays below are the whole tree.
        nodes: list[_Node] = []

        def collect(node: _Node) -> None:
            nodes.append(node)
            if not node.is_leaf:
                for entry in node.entries:
                    collect(entry.subtree)  # type: ignore[arg-type]

        collect(self._root)
        ids = {id(node): nid for nid, node in enumerate(nodes)}
        is_leaf: list[int] = []
        entry_count: list[int] = []
        entry_index: list[int] = []
        entry_radius: list[float] = []
        entry_dtp: list[float] = []
        entry_child: list[int] = []
        for node in nodes:
            is_leaf.append(1 if node.is_leaf else 0)
            entry_count.append(len(node.entries))
            for entry in node.entries:
                entry_index.append(entry.index)
                entry_radius.append(entry.radius)
                entry_dtp.append(entry.dist_to_parent)
                entry_child.append(
                    -1 if entry.subtree is None else ids[id(entry.subtree)]
                )
        return {
            "node_is_leaf": np.asarray(is_leaf, dtype=np.uint8),
            "node_entry_count": np.asarray(entry_count, dtype=np.int64),
            "entry_index": np.asarray(entry_index, dtype=np.int64),
            "entry_radius": np.asarray(entry_radius, dtype=np.float64),
            "entry_dist_to_parent": np.asarray(entry_dtp, dtype=np.float64),
            "entry_child": np.asarray(entry_child, dtype=np.int64),
            "capacity": np.int64(self._capacity),
            "split_policy": np.str_(self._split_policy),
            "epsilon": np.float64(self._epsilon),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        is_leaf = state_array(state, "node_is_leaf")
        entry_count = state_array(state, "node_entry_count", dtype=np.int64)
        entry_index = state_array(state, "entry_index", dtype=np.int64)
        entry_radius = state_array(state, "entry_radius", dtype=np.float64)
        entry_dtp = state_array(state, "entry_dist_to_parent", dtype=np.float64)
        entry_child = state_array(state, "entry_child", dtype=np.int64)
        capacity = state_int(state, "capacity")
        split_policy = state_str(state, "split_policy")
        epsilon = state_float(state, "epsilon")
        super()._restore_state(state)

        n_nodes = is_leaf.shape[0]
        if n_nodes < 1 or entry_count.shape[0] != n_nodes:
            raise StorageError("M-tree snapshot: node arrays disagree")
        n_entries = int(entry_count.sum())
        for arr, label in (
            (entry_index, "entry_index"),
            (entry_radius, "entry_radius"),
            (entry_dtp, "entry_dist_to_parent"),
            (entry_child, "entry_child"),
        ):
            if arr.shape[0] != n_entries:
                raise StorageError(
                    f"M-tree snapshot: {label} has {arr.shape[0]} rows, "
                    f"expected {n_entries}"
                )
        if capacity < 2:
            raise StorageError(f"node capacity must be >= 2, got {capacity}")
        if split_policy not in SPLIT_POLICIES:
            raise StorageError(
                f"unknown split policy {split_policy!r}; "
                f"choose from {SPLIT_POLICIES}"
            )
        if epsilon < 0.0:
            raise StorageError(f"epsilon must be non-negative, got {epsilon}")

        nodes = [_Node(bool(flag)) for flag in is_leaf]
        offsets = np.concatenate(([0], np.cumsum(entry_count)))
        child_seen = np.zeros(n_nodes, dtype=bool)
        for nid, node in enumerate(nodes):
            for pos in range(int(offsets[nid]), int(offsets[nid + 1])):
                idx = int(entry_index[pos])
                child = int(entry_child[pos])
                if not 0 <= idx < self.size:
                    raise StorageError(
                        f"M-tree snapshot: entry index {idx} out of range "
                        f"[0, {self.size})"
                    )
                if node.is_leaf:
                    if child != -1:
                        raise StorageError(
                            "M-tree snapshot: leaf entry points at a subtree"
                        )
                    subtree = None
                else:
                    # Preorder guarantees children come after their parent;
                    # the seen-once check rules out shared subtrees/cycles.
                    if not nid < child < n_nodes or child_seen[child]:
                        raise StorageError(
                            f"M-tree snapshot: invalid child link {child} "
                            f"from node {nid}"
                        )
                    child_seen[child] = True
                    subtree = nodes[child]
                node.entries.append(
                    _Entry(
                        self._data[idx],
                        index=idx,
                        radius=float(entry_radius[pos]),
                        dist_to_parent=float(entry_dtp[pos]),
                        subtree=subtree,
                    )
                )
        if not child_seen[1:].all():
            raise StorageError("M-tree snapshot: unreachable nodes")
        self._capacity = capacity
        self._split_policy = split_policy
        self._epsilon = epsilon
        self._rng = np.random.default_rng(0)
        self._root = nodes[0]

    def _verify_state_probe(self) -> None:
        # dist_to_parent of a child-node entry is d(entry, parent routing
        # object) — recomputable without touching the counter.  A leaf root
        # has no such pair (bulk-built leaves store medoid distances whose
        # medoid identity is not kept), so it is skipped.
        if self._root.is_leaf or not self._root.entries:
            return
        routing = self._root.entries[0]
        if routing.subtree is None or not routing.subtree.entries:
            return
        child_entry = routing.subtree.entries[0]
        probe = self._port.pair_uncounted(child_entry.vector, routing.vector)
        if not np.isclose(probe, child_entry.dist_to_parent, rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored parent distances "
                "(wrong metric or wrong matrix?)"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        out: list[Neighbor] = []
        self._range_node(self._root, bound, radius, None, out, ROOT)
        return out

    def _range_node(
        self,
        node: _Node,
        bound: BoundQuery,
        radius: float,
        d_query_parent: float | None,
        out: list[Neighbor],
        parent_tok: int = ROOT,
    ) -> None:
        # Distance-to-parent pruning: triangle inequality gives
        # |d(q, parent) - d(o, parent)| <= d(q, o); if even that lower
        # bound exceeds the region, skip without computing d(q, o).  The
        # bound depends on nothing computed inside this node, so the whole
        # surviving slice is evaluated with one batched call — charged as
        # one logical scalar call per entry, like the loop it replaces.
        # Stored bounds (dist_to_parent, covering radii) are often exactly
        # tight, so prune tests against them get the query's slack.
        record_node_visit()
        tok = emit_node_enter(parent_tok, "leaf" if node.is_leaf else "internal")
        if d_query_parent is None:
            alive = node.entries
        else:
            alive = [
                e
                for e in node.entries
                if abs(d_query_parent - e.dist_to_parent)
                - bound.slack(d_query_parent, e.dist_to_parent)
                <= radius + e.radius
            ]
            if tok >= 0:
                # Explain replay of the comprehension above — emits the
                # exact two sides of each pruning comparison, computing
                # nothing the filter did not.
                for e in node.entries:
                    lhs = abs(d_query_parent - e.dist_to_parent) - bound.slack(
                        d_query_parent, e.dist_to_parent
                    )
                    rhs = radius + e.radius
                    emit_lb_check(
                        tok, lhs, rhs, pruned=lhs > rhs, label="parent-distance"
                    )
        if not node.is_leaf and len(alive) < len(node.entries):
            record_pruned(len(node.entries) - len(alive))
            emit_prune(tok, len(node.entries) - len(alive), "parent-distance")
        if not alive:
            return
        rows = np.array([e.vector for e in alive])
        dists = bound.many(rows, [e.index for e in alive], charge="calls")
        for pos, entry in enumerate(alive):
            dist = float(dists[pos])
            if node.is_leaf:
                emit_candidate_verify(tok, entry.index, dist)
                if dist <= radius:
                    out.append(Neighbor(dist, entry.index))
                    emit_result_add(tok, entry.index, dist)
            elif dist - bound.slack(dist, entry.radius) <= radius + entry.radius:
                emit_lb_check(
                    tok,
                    dist - bound.slack(dist, entry.radius),
                    radius + entry.radius,
                    pruned=False,
                    label="covering-radius",
                )
                self._range_node(entry.subtree, bound, radius, dist, out, tok)
            else:
                record_pruned()
                emit_lb_check(
                    tok,
                    dist - bound.slack(dist, entry.radius),
                    radius + entry.radius,
                    pruned=True,
                    label="covering-radius",
                )
                emit_prune(tok, 1, "covering-radius")

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        heap = _KnnHeap(k)
        # Best-first queue of (dmin, tiebreak, node, d(query, routing)).
        # With epsilon > 0 the effective pruning radius shrinks to
        # tau / (1 + epsilon): any skipped object is farther than that, so
        # reported distances stay within (1 + epsilon) of the true answer.
        relax = 1.0 + self._epsilon
        counter = itertools.count()
        queue: list[tuple[float, int, _Node, float | None, int]] = [
            (0.0, next(counter), self._root, None, ROOT)
        ]
        while queue:
            dmin, _, node, d_query_parent, parent_tok = heapq.heappop(queue)
            if dmin > heap.radius / relax:
                break
            record_node_visit()
            tok = emit_node_enter(parent_tok, "leaf" if node.is_leaf else "internal")
            if node.is_leaf:
                # Leaf offers shrink the pruning radius mid-loop, so the
                # skip test is replayed sequentially; distances are still
                # computed in one uncharged batch and each consumed entry
                # is charged as the scalar call the old loop made.
                entries = node.entries
                rows = np.array([e.vector for e in entries])
                dists = bound.compute_many(rows, [e.index for e in entries])
                for pos, entry in enumerate(entries):
                    if d_query_parent is not None:
                        lower = (
                            abs(d_query_parent - entry.dist_to_parent)
                            - entry.radius
                            - bound.slack(d_query_parent, entry.dist_to_parent)
                        )
                        if lower > heap.radius / relax:
                            emit_lb_check(
                                tok, lower, heap.radius / relax,
                                pruned=True, label="parent-distance",
                            )
                            continue
                        emit_lb_check(
                            tok, lower, heap.radius / relax,
                            pruned=False, label="parent-distance",
                        )
                    bound.charge_calls(1)
                    emit_candidate_verify(tok, entry.index, float(dists[pos]))
                    heap.offer(float(dists[pos]), entry.index)
            else:
                # No offers happen while scanning an internal node, so the
                # pruning radius is constant: the survivor set is known up
                # front and evaluated in one batch.
                cutoff = heap.radius / relax
                if d_query_parent is None:
                    alive = node.entries
                else:
                    alive = [
                        e
                        for e in node.entries
                        if abs(d_query_parent - e.dist_to_parent)
                        - e.radius
                        - bound.slack(d_query_parent, e.dist_to_parent)
                        <= cutoff
                    ]
                    if tok >= 0:
                        for e in node.entries:
                            lhs = (
                                abs(d_query_parent - e.dist_to_parent)
                                - e.radius
                                - bound.slack(d_query_parent, e.dist_to_parent)
                            )
                            emit_lb_check(
                                tok, lhs, cutoff,
                                pruned=lhs > cutoff, label="parent-distance",
                            )
                if len(alive) < len(node.entries):
                    record_pruned(len(node.entries) - len(alive))
                    emit_prune(tok, len(node.entries) - len(alive), "parent-distance")
                if not alive:
                    continue
                rows = np.array([e.vector for e in alive])
                dists = bound.many(rows, [e.index for e in alive], charge="calls")
                for pos, entry in enumerate(alive):
                    dist = float(dists[pos])
                    child_dmin = max(
                        dist - entry.radius - bound.slack(dist, entry.radius), 0.0
                    )
                    if child_dmin <= cutoff:
                        emit_lb_check(
                            tok, child_dmin, cutoff, pruned=False, label="dmin"
                        )
                        heapq.heappush(
                            queue, (child_dmin, next(counter), entry.subtree, dist, tok)
                        )
                    else:
                        record_pruned()
                        emit_lb_check(
                            tok, child_dmin, cutoff, pruned=True, label="dmin"
                        )
                        emit_prune(tok, 1, "covering-radius")
        return heap.neighbors()

    def nearest_iter(self, query: ArrayLike):
        """Lazily yield neighbors in increasing distance order.

        The Hjaltason-Samet incremental algorithm: one priority queue holds
        both unexplored subtrees (keyed by their dmin) and concrete objects
        (keyed by their exact distance); popping an object is proof that no
        unexplored subtree can contain anything closer.  Consuming ``k``
        items costs no more distance evaluations than a kNN for the same
        ``k`` — and the caller does not need to fix ``k`` in advance
        (classic use: distance-ordered cursors in query pipelines).
        """
        from .._typing import as_vector

        q = as_vector(query, self.dim, name="query")
        bound = self._port.bind_query(q, self._data)
        counter = itertools.count()
        # Three item kinds, all keyed by a LOWER BOUND on any object
        # distance reachable through them, so a popped exact object beats
        # everything still queued:
        #   "entry"  — unevaluated node slot; key from the parent-distance
        #              bound, exact distance deferred until popped;
        #   "node"   — subtree whose routing distance is known; key dmin;
        #   "object" — exact distance, ready to yield.
        queue: list[tuple[float, int, str, object, float | None]] = []

        def push_entries(node: _Node, d_query_routing: float | None) -> None:
            for entry in node.entries:
                if d_query_routing is None:
                    low = 0.0
                else:
                    low = max(
                        abs(d_query_routing - entry.dist_to_parent)
                        - entry.radius
                        - bound.slack(d_query_routing, entry.dist_to_parent),
                        0.0,
                    )
                heapq.heappush(
                    queue, (low, next(counter), "entry", (entry, node.is_leaf), None)
                )

        push_entries(self._root, None)
        while queue:
            priority, _, kind, payload, stashed = heapq.heappop(queue)
            if kind == "object":
                yield Neighbor(priority, payload)  # type: ignore[arg-type]
            elif kind == "entry":
                entry, is_leaf_entry = payload  # type: ignore[misc]
                dist = bound.one(entry.vector, entry.index)
                if is_leaf_entry:
                    heapq.heappush(
                        queue, (float(dist), next(counter), "object", entry.index, None)
                    )
                else:
                    dmin = max(
                        float(dist) - entry.radius - bound.slack(dist, entry.radius),
                        0.0,
                    )
                    heapq.heappush(
                        queue, (dmin, next(counter), "node", entry.subtree, float(dist))
                    )
            else:
                push_entries(payload, stashed)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum entries per node."""
        return self._capacity

    @property
    def split_policy(self) -> str:
        """The promotion policy used for node splits."""
        return self._split_policy

    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        h, node = 1, self._root
        while not node.is_leaf:
            h += 1
            node = node.entries[0].subtree  # type: ignore[assignment]
        return h

    def node_count(self) -> int:
        """Total number of nodes."""

        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + sum(count(e.subtree) for e in node.entries)  # type: ignore[arg-type]

        return count(self._root)

    def validate_invariants(self) -> None:
        """Verify covering-radius and dist-to-parent invariants (tests).

        Raises ``AssertionError`` on the first violation: every object in a
        routing entry's subtree must lie within its covering radius, and
        every stored ``dist_to_parent`` must equal the recomputed distance.
        """

        def walk(node: _Node, parent_vec: np.ndarray | None) -> list[np.ndarray]:
            vectors: list[np.ndarray] = []
            for entry in node.entries:
                if parent_vec is not None:
                    actual = self._port.raw(entry.vector, parent_vec)
                    assert np.isclose(actual, entry.dist_to_parent, atol=1e-8), (
                        f"dist_to_parent mismatch: {actual} != {entry.dist_to_parent}"
                    )
                if node.is_leaf:
                    vectors.append(entry.vector)
                else:
                    below = walk(entry.subtree, entry.vector)  # type: ignore[arg-type]
                    for vec in below:
                        dist = self._port.raw(vec, entry.vector)
                        assert dist <= entry.radius + 1e-8, (
                            f"covering radius violated: {dist} > {entry.radius}"
                        )
                    vectors.extend(below)
            return vectors

        walk(self._root, None)
