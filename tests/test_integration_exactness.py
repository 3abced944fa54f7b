"""Integration: every access method answers exactly like the sequential scan.

DESIGN.md invariant 4 — no false dismissals, no false positives, identical
ordering — checked for all MAMs and SAMs, under both the QFD and the QMap
model, for range and kNN queries across a grid of parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.models import MAM_REGISTRY, SAM_REGISTRY, QFDModel, QMapModel

from .helpers import assert_same_neighbors

METHOD_KWARGS = {
    "sequential": {},
    "disk-sequential": {"cache_pages": 4},
    "pivot-table": {"n_pivots": 12},
    "mtree": {"capacity": 8},
    "paged-mtree": {"capacity": 8, "cache_pages": 4},
    "vptree": {"leaf_size": 6},
    "gnat": {"arity": 5, "leaf_size": 10},
    "mindex": {"n_pivots": 8},
    "sat": {},
    "rtree": {"capacity": 8},
    "xtree": {"capacity": 8, "max_overlap": 0.75},
    "vafile": {"bits": 4},
}


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(350, 4, bins_per_channel=4, seed=13)


@pytest.fixture(scope="module")
def reference(workload):
    """Ground truth: sequential scan in the QFD model."""
    model = QFDModel(workload.matrix)
    return model.build_index("sequential", workload.database)


@pytest.mark.parametrize("method", sorted(MAM_REGISTRY))
class TestMAMExactness:
    def test_knn_qfd_model(self, method, workload, reference) -> None:
        index = QFDModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        for q in workload.queries:
            for k in (1, 5, 17):
                assert_same_neighbors(
                    index.knn_search(q, k),
                    reference.knn_search(q, k),
                    label=f"{method}/qfd knn k={k}",
                )

    def test_knn_qmap_model(self, method, workload, reference) -> None:
        index = QMapModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        for q in workload.queries:
            for k in (1, 5, 17):
                assert_same_neighbors(
                    index.knn_search(q, k),
                    reference.knn_search(q, k),
                    tol=1e-7,
                    label=f"{method}/qmap knn k={k}",
                )

    def test_range_both_models(self, method, workload, reference) -> None:
        qfd_index = QFDModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        qmap_index = QMapModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        for q in workload.queries[:2]:
            # Radii chosen from the actual distance distribution so each
            # selectivity regime (empty, sparse, dense) is exercised; taken
            # as midpoints between consecutive neighbor distances so no
            # object sits exactly on the query ball boundary (where the
            # two models could disagree by one float ulp).
            nn = reference.knn_search(q, 50)
            radii = [
                0.0,
                (nn[0].distance + nn[1].distance) / 2.0,
                (nn[10].distance + nn[11].distance) / 2.0,
                (nn[-2].distance + nn[-1].distance) / 2.0,
            ]
            for radius in radii:
                truth = reference.range_search(q, radius)
                assert_same_neighbors(
                    qfd_index.range_search(q, radius),
                    truth,
                    label=f"{method}/qfd range r={radius:.4f}",
                )
                assert_same_neighbors(
                    qmap_index.range_search(q, radius),
                    truth,
                    tol=1e-7,
                    label=f"{method}/qmap range r={radius:.4f}",
                )


@pytest.mark.parametrize("method", sorted(SAM_REGISTRY))
class TestSAMExactness:
    """SAMs run in the QMap model only (Section 2.1 / 2.4)."""

    def test_knn(self, method, workload, reference) -> None:
        index = QMapModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        for q in workload.queries:
            for k in (1, 5, 17):
                assert_same_neighbors(
                    index.knn_search(q, k),
                    reference.knn_search(q, k),
                    tol=1e-7,
                    label=f"{method} knn k={k}",
                )

    def test_range(self, method, workload, reference) -> None:
        index = QMapModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        for q in workload.queries[:2]:
            nn = reference.knn_search(q, 30)
            radii = (
                0.0,
                (nn[5].distance + nn[6].distance) / 2.0,
                (nn[-2].distance + nn[-1].distance) / 2.0,
            )
            for radius in radii:
                assert_same_neighbors(
                    index.range_search(q, radius),
                    reference.range_search(q, radius),
                    tol=1e-7,
                    label=f"{method} range r={radius:.4f}",
                )


class TestDuplicateObjects:
    """Databases with exact duplicates must not confuse any index."""

    @pytest.mark.parametrize("method", sorted(MAM_REGISTRY))
    def test_duplicates(self, method, workload) -> None:
        dup = np.vstack([workload.database[:40], workload.database[:10]])
        model = QMapModel(workload.matrix)
        index = model.build_index(method, dup, **METHOD_KWARGS[method])
        scan = model.build_index("sequential", dup)
        q = workload.queries[0]
        assert_same_neighbors(
            index.knn_search(q, 8), scan.knn_search(q, 8), label=f"{method} dup"
        )

    def test_query_equal_to_database_object(self, workload) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index("mtree", workload.database, capacity=8)
        q = workload.database[17]
        top = index.knn_search(q, 1)[0]
        assert top.index == 17 or top.distance == pytest.approx(0.0, abs=1e-9)


TREE_METHODS = ("mtree", "paged-mtree", "vptree", "gnat", "sat", "mindex")


class TestSelfQueryExactness:
    """Regression: querying with a database object must find that object.

    Stored pruning bounds (covering radii, parent distances, vantage
    medians, GNAT ranges) are frequently *exactly tight* — defined by some
    member's build-time distance — while the batched Gram kernels agree
    with the build arithmetic only to the last few ulps.  Without the
    ulp-scale pruning slack in :mod:`repro.mam.base`, a radius-0
    self-query gets the subtree holding its own zero-distance match
    pruned.  Exercised under QFD, where kernel query contexts guarantee an
    exact 0.0 for identical vectors.
    """

    @pytest.mark.parametrize("probe", (0, 17, 349))
    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_qfd_self_query_is_exact(self, method, probe, workload) -> None:
        index = QFDModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        q = workload.database[probe]
        hits = index.range_search(q, 0.0)
        assert any(n.index == probe and n.distance == 0.0 for n in hits), (
            f"{method}: radius-0 self-query missed object {probe}: {hits}"
        )
        top = index.knn_search(q, 1)[0]
        assert top.index == probe and top.distance == 0.0

    @pytest.mark.parametrize("method", TREE_METHODS)
    def test_qmap_self_query_is_top_hit(self, method, workload) -> None:
        # QMap maps the query through a separate matrix-vector product, so
        # the mapped query differs from the stored mapped row in the last
        # ulp and the self-distance is ~1e-16, not an exact 0 (true of the
        # scalar path too): require the kNN hit rather than range-0
        # membership.
        index = QMapModel(workload.matrix).build_index(
            method, workload.database, **METHOD_KWARGS[method]
        )
        q = workload.database[17]
        top = index.knn_search(q, 1)[0]
        assert top.index == 17 and top.distance < 1e-12


FLAT_CASES = [
    pytest.param("pivot-table", {"n_pivots": 12, "bound": bound}, id=f"pivot-table-{bound}")
    for bound in ("triangle", "ptolemaic", "best")
] + [pytest.param("sequential", {}, id="sequential")]


class TestFlatSelfQueryExactness:
    """Radius-0 and k=1 self-queries on the flat methods under QFD.

    The pivot table filters query-time Gram distances against a table
    built by the same kernel with query and row in the other roles, so
    the two agree only to the last ulps; the filter's slack must still
    admit the object itself at its exact 0.0 distance.  The probes
    include a pivot, whose own table column holds the 0.0.
    """

    @pytest.mark.parametrize("method,kwargs", FLAT_CASES)
    def test_qfd_self_query_is_exact(self, method, kwargs, workload) -> None:
        index = QFDModel(workload.matrix).build_index(
            method, workload.database, **kwargs
        )
        probes = [0, 17, 349]
        pivots = getattr(index.access_method, "pivot_indices", [])
        probes.extend(pivots[:2])
        for probe in probes:
            q = workload.database[probe]
            hits = index.range_search(q, 0.0)
            assert any(n.index == probe and n.distance == 0.0 for n in hits), (
                f"{method} {kwargs}: radius-0 self-query missed {probe}: {hits}"
            )
            top = index.knn_search(q, 1)[0]
            assert top.index == probe and top.distance == 0.0, (method, kwargs, top)


NEAR_DUPLICATE_CASES = [
    pytest.param("pivot-table", {"n_pivots": 12, "bound": bound}, id=f"pivot-table-{bound}")
    for bound in ("triangle", "ptolemaic", "best")
] + [pytest.param("mindex", {"n_pivots": 8, "pivot_method": "random"}, id="mindex")]

#: Tree MAMs whose prune tests compare Gram-evaluated query distances with
#: stored covering radii, parent distances, medians and ranges.
TREE_PRUNE_CASES = [
    pytest.param(method, METHOD_KWARGS[method], id=method)
    for method in ("mtree", "paged-mtree", "gnat", "sat", "vptree")
]


class TestNearDuplicatePivotSelfQuery:
    """Self-queries of objects that nearly duplicate a pivot, under QFD.

    For ``o = p + delta`` the stored ``d(o, p)`` and the query-time
    ``d(q, p)`` are tiny next to the vectors' norms, where the Gram
    expansion's rounding error is largest; the pivot filter must still
    admit ``o`` for a radius-0 and a k=1 self-query.  Each near-duplicate
    replaces a non-pivot row, and the pivots are pinned (explicit for the
    pivot table, seeded random for the M-index) so they stay the same.
    """

    @pytest.mark.parametrize("rel", [1e-6, 1e-5, 1e-4])
    @pytest.mark.parametrize("method,kwargs", NEAR_DUPLICATE_CASES)
    def test_near_duplicate_of_pivot_finds_itself(
        self, method, kwargs, rel, workload
    ) -> None:
        model = QFDModel(workload.matrix)
        pivots = model.build_index(
            method, workload.database, **kwargs
        ).access_method.pivot_indices
        rng = np.random.default_rng(7)
        db = workload.database.copy()
        spare = [i for i in range(db.shape[0] - 1, -1, -1) if i not in pivots]
        targets = []
        for pivot in pivots:
            for _ in range(2):
                delta = rng.standard_normal(db.shape[1])
                delta *= rel * np.linalg.norm(db[pivot]) / np.linalg.norm(delta)
                target = spare[len(targets)]
                db[target] = db[pivot] + delta
                targets.append(target)
        if method == "pivot-table":
            kwargs = dict(kwargs, pivots=pivots)
        index = model.build_index(method, db, **kwargs)
        assert index.access_method.pivot_indices == pivots
        for target in targets:
            hits = index.range_search(db[target], 0.0)
            assert any(n.index == target and n.distance == 0.0 for n in hits), (
                f"{method} rel={rel}: radius-0 self-query missed {target}: {hits}"
            )
            top = index.knn_search(db[target], 1)[0]
            assert top.index == target and top.distance == 0.0, (method, rel, top)

    @pytest.mark.parametrize("method,kwargs", NEAR_DUPLICATE_CASES + TREE_PRUNE_CASES)
    def test_self_queries_on_concentrated_data(self, method, kwargs, workload) -> None:
        """A large common offset keeps every distance but inflates the
        norms, so all pairs sit where the expansion's absolute error
        dwarfs a slack relative to the distances themselves."""
        db = workload.database + 10.0 * np.abs(workload.database).max()
        index = QFDModel(workload.matrix).build_index(method, db, **kwargs)
        for probe in range(0, db.shape[0], 7):
            hits = index.range_search(db[probe], 0.0)
            assert any(n.index == probe and n.distance == 0.0 for n in hits), (
                f"{method}: radius-0 self-query missed {probe}: {hits}"
            )
