"""Guard: the kernel layer must not drift any logical distance count.

``tests/fixtures/count_baseline.json`` holds the build and per-query
distance-computation counts of every tree MAM under both models, generated
from the pre-kernel code.  The kernel rewrite batches *physical* evaluation
but charges the *logical* access pattern, so replaying the recipe must
reproduce the fixture exactly — any off-by-one here means a traversal loop
changed how many distances the paper's cost model would report.

One deliberate deviation from the pre-kernel code is baked into the
fixture: GNAT range search now evaluates *every* split point of a visited
node (the old loop stopped early once all groups were pruned, silently
dropping any later split lying inside the query ball), so its range
counts charge the full arity per visited node.

A second one: the SAT assigns each non-neighbor to its closest member of
the *final* neighbor set (the old build used the neighbors found so far, so
a later, closer neighbor broke the hyperplane-pruning invariant and kNN
could miss the true nearest neighbor).  The tree shape changes with it, so
the ``*/sat`` build and query counts were regenerated from the fixed build;
every other entry is unchanged.
"""

from __future__ import annotations

import json

from repro.datasets.workloads import calibrate_radius
from repro.models import QFDModel

from .count_baseline_recipe import (
    FIXTURE_PATH,
    RADIUS_TARGET,
    baseline_workload,
    compute_baseline,
)


def _stored() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


class TestCountBaseline:
    def test_every_method_matches_fixture_exactly(self) -> None:
        stored = _stored()
        fresh = compute_baseline(stored["radius"])
        assert set(fresh["methods"]) == set(stored["methods"])
        for key, want in stored["methods"].items():
            got = fresh["methods"][key]
            assert got["build"] == want["build"], f"{key}: build count drifted"
            assert got["knn"] == want["knn"], f"{key}: kNN counts drifted"
            assert got["range"] == want["range"], f"{key}: range counts drifted"

    def test_bulk_loaded_mtree_structure_and_counts(self) -> None:
        stored = _stored()
        fresh = compute_baseline(stored["radius"])
        assert fresh["mtree_bulk"] == stored["mtree_bulk"]

    def test_bulk_loaded_mtree_invariants_hold(self) -> None:
        workload = baseline_workload()
        built = QFDModel(workload.matrix).build_index(
            "mtree", workload.database, capacity=8, bulk_load=True
        )
        built.access_method.validate_invariants()

    def test_fixture_radius_is_reproducible(self) -> None:
        # The stored radius came from the same calibration the recipe uses;
        # pin it so workload or calibration changes cannot silently shift
        # what the count columns mean.
        stored = _stored()
        radius = calibrate_radius(baseline_workload(), RADIUS_TARGET)
        assert radius == stored["radius"]
