"""Numpy brute-force reference for kNN and range answers under the QFD.

The reference works in the source (histogram) space with the QFD matrix
``A`` directly, so it shares no code with the program's QMap transform,
kernels or access methods.  All distances are screened with the Gram
expansion ``qAq - 2 qAu + uAu`` in one matrix product per block of
queries; the few rows that can belong to an answer are then re-evaluated
exactly in difference form ``(u - q) A (u - q)``.

Checks are tie-aware: distances must agree to ``REL_TOL`` relative, and
returned ids may differ from the reference only where distances tie.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance between reported and reference distances.
REL_TOL = 1e-9
#: Queries per screening matrix product.
BLOCK = 256


class Oracle:
    """Brute-force answers over the rows of a growing database.

    Parameters
    ----------
    matrix:
        The QFD matrix ``A``.
    rows:
        Every row the database holds by the end of the run, in index order
        (the initial database, then inserted rows in insertion order).  An
        operation issued while the database held ``size`` rows is checked
        against ``rows[:size]``.
    """

    def __init__(self, matrix: np.ndarray, rows: np.ndarray) -> None:
        self._a = np.asarray(matrix, dtype=np.float64)
        self._rows = np.asarray(rows, dtype=np.float64)
        g = self._rows @ self._a
        self._norms = np.einsum("ij,ij->i", g, self._rows)
        self._slack = 1e-7 * (float(self._norms.max()) + 1.0)

    def exact(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Difference-form QFD from *query* to ``rows[ids]``."""
        diff = self._rows[ids] - query
        sq = np.einsum("ij,ij->i", diff @ self._a, diff)
        return np.sqrt(np.maximum(sq, 0.0))

    def screen(self, queries: np.ndarray) -> np.ndarray:
        """Squared Gram-form distances from each query to every row."""
        qa = queries @ self._a
        qn = np.einsum("ij,ij->i", qa, queries)
        return qn[:, None] + self._norms[None, :] - 2.0 * (qa @ self._rows.T)

    def check_knn(self, query, size, k, result, sq) -> str | None:
        """``None`` if *result* is a correct kNN answer, else the reason."""
        sq = sq[:size]
        want = min(k, size)
        if len(result) != want:
            return f"{len(result)} results, expected {want}"
        kth_sq = np.partition(sq, want - 1)[want - 1]
        cand = np.flatnonzero(sq <= kth_sq + self._slack)
        cand_exact = self.exact(query, cand)
        ref = np.sort(cand_exact)[:want]
        return self._compare(query, size, result, ref, cand, cand_exact, ref[-1])

    def check_range(self, query, size, radius, result, sq) -> str | None:
        """``None`` if *result* is a correct range answer, else the reason."""
        sq = sq[:size]
        cand = np.flatnonzero(sq <= radius * radius + self._slack)
        cand_exact = self.exact(query, cand)
        return self._compare(query, size, result, None, cand, cand_exact, radius)

    def _compare(self, query, size, result, ref, cand, cand_exact, limit) -> str | None:
        ids = np.array([n.index for n in result], dtype=np.intp)
        dist = np.array([n.distance for n in result], dtype=np.float64)
        if len(ids) and (ids.min() < 0 or ids.max() >= size):
            return "id out of range"
        if len(np.unique(ids)) != len(ids):
            return "duplicate ids"
        if np.any(np.diff(dist) < 0):
            return "results not sorted by distance"
        true = self.exact(query, ids)
        if not _close(dist, true):
            return "reported distance differs from the row's true distance"
        if ref is not None and not _close(dist, ref):
            return "distances differ from the reference kNN distances"
        # Tie-aware id check: every row strictly closer than the answer's
        # limit must be in the answer; the rest may differ only by ties.
        strictly = cand[cand_exact < limit * (1.0 - REL_TOL)]
        if not np.isin(strictly, ids).all():
            return "a strictly closer row is missing"
        if np.any(true > limit * (1.0 + REL_TOL)):
            return "a returned row lies beyond the answer's limit"
        return None


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.maximum(np.abs(b), 1e-12)))


def knn_distances(matrix: np.ndarray, rows: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact distance to the *k*-th nearest row, per query."""
    oracle = Oracle(matrix, rows)
    sq = oracle.screen(queries)
    out = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        kth_sq = np.partition(sq[i], k - 1)[k - 1]
        cand = np.flatnonzero(sq[i] <= kth_sq + oracle._slack)
        out[i] = np.sort(oracle.exact(q, cand))[k - 1]
    return out
