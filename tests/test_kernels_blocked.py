"""Blocked kernels: bitwise block-size invariance and float32 handling.

The design contract of :mod:`repro.kernels.blocked` (ISSUE tentpole):
answers must be *bit-identical* for every ``block_rows``, and a float32
tile upcast per block must equal a heap float64 copy of the same
float32-rounded data — so an index built out of core agrees exactly
with its in-memory twin.  These tests pin both properties, plus the
float64-accumulation fix in :mod:`repro.kernels.gram` for float32
inputs (satellite a).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random_spd_matrix
from repro.kernels import (
    DEFAULT_BLOCK_ROWS,
    QFDKernel,
    blocked_l2_cross,
    blocked_l2_one_to_many,
    blocked_l2_pairwise,
    blocked_l2_row_norms,
    blocked_qfd_cross,
    blocked_qfd_one_to_many,
    blocked_qfd_pairwise,
    blocked_qfd_row_norms,
    gram,
    iter_blocks,
)

N = 57  # deliberately not a multiple of any tested block size
DIM = 9
BLOCK_SIZES = [1, 7, 64, N, None]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    matrix = random_spd_matrix(DIM, condition=50.0, rng=rng)
    rows = rng.normal(size=(N, DIM)).astype(np.float32)
    others = rng.normal(size=(11, DIM)).astype(np.float32)
    q = rng.normal(size=DIM)
    return matrix, rows, others, q


def test_iter_blocks_partitions_exactly() -> None:
    assert list(iter_blocks(10, 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(iter_blocks(10, None)) == [(0, 10)]
    assert list(iter_blocks(10, 100)) == [(0, 10)]
    assert list(iter_blocks(0, 4)) == []
    with pytest.raises(ValueError):
        list(iter_blocks(10, 0))
    assert DEFAULT_BLOCK_ROWS >= 1


class TestBlockSizeInvariance:
    """Same floats out for every tile height, mmap or heap."""

    def _all_equal(self, results) -> None:
        reference = results[0]
        for got in results[1:]:
            assert np.array_equal(got, reference)

    def test_qfd_row_norms(self, setup) -> None:
        matrix, rows, _, _ = setup
        self._all_equal([
            blocked_qfd_row_norms(matrix, rows, block_rows=b) for b in BLOCK_SIZES
        ])

    def test_l2_row_norms(self, setup) -> None:
        _, rows, _, _ = setup
        self._all_equal([
            blocked_l2_row_norms(rows, block_rows=b) for b in BLOCK_SIZES
        ])

    def test_qfd_one_to_many(self, setup) -> None:
        matrix, rows, _, q = setup
        self._all_equal([
            blocked_qfd_one_to_many(matrix, q, rows, block_rows=b)
            for b in BLOCK_SIZES
        ])

    def test_qfd_one_to_many_with_precomputed_norms(self, setup) -> None:
        matrix, rows, _, q = setup
        norms = blocked_qfd_row_norms(matrix, rows, block_rows=8)
        with_norms = [
            blocked_qfd_one_to_many(matrix, q, rows, row_norms=norms, block_rows=b)
            for b in BLOCK_SIZES
        ]
        self._all_equal(with_norms + [blocked_qfd_one_to_many(matrix, q, rows)])

    def test_l2_one_to_many(self, setup) -> None:
        _, rows, _, q = setup
        results = [
            blocked_l2_one_to_many(q, rows, block_rows=b) for b in BLOCK_SIZES
        ]
        self._all_equal(results)
        # The L2 tile arithmetic is the unblocked diff form, so the QMap
        # model's mapped-space scans do not move by a single ulp.
        assert np.array_equal(results[0], gram.l2_one_to_many(q, rows))

    def test_qfd_cross(self, setup) -> None:
        matrix, rows, others, _ = setup
        self._all_equal([
            blocked_qfd_cross(matrix, others, rows, block_rows=b)
            for b in BLOCK_SIZES
        ])

    def test_l2_cross(self, setup) -> None:
        _, rows, others, _ = setup
        self._all_equal([
            blocked_l2_cross(others, rows, block_rows=b) for b in BLOCK_SIZES
        ])

    def test_qfd_pairwise(self, setup) -> None:
        matrix, rows, _, _ = setup
        results = [
            blocked_qfd_pairwise(matrix, rows, block_rows=b) for b in BLOCK_SIZES
        ]
        self._all_equal(results)
        assert np.array_equal(results[0], results[0].T)
        assert np.all(np.diag(results[0]) == 0.0)

    def test_l2_pairwise(self, setup) -> None:
        _, rows, _, _ = setup
        results = [blocked_l2_pairwise(rows, block_rows=b) for b in BLOCK_SIZES]
        self._all_equal(results)
        assert np.array_equal(results[0], results[0].T)

    def test_float32_tiles_equal_heap_float64_copy(self, setup) -> None:
        """The memmap-vs-heap contract: f32 rows upcast per tile must
        equal a float64 heap copy of the same f32-rounded data."""
        matrix, rows, others, q = setup
        heap = rows.astype(np.float64)
        for b in (1, 7, None):
            assert np.array_equal(
                blocked_qfd_one_to_many(matrix, q, rows, block_rows=b),
                blocked_qfd_one_to_many(matrix, q, heap, block_rows=b),
            )
            assert np.array_equal(
                blocked_qfd_cross(matrix, others, rows, block_rows=b),
                blocked_qfd_cross(matrix, others.astype(np.float64), heap, block_rows=b),
            )


class TestKernelDifferenceForm:
    """Without cached norms the QFD kernel takes one arithmetic, blocked or not."""

    def test_blocked_and_unblocked_return_the_same_bits(self, setup) -> None:
        matrix, rows, _, q = setup
        # Near-duplicates of the first row: every distance to them ties
        # far below the Gram form's rounding error.
        twins = rows[:1] + np.array([[0.0], [1e-30], [1e-20]], dtype=np.float32)
        batch = np.concatenate([rows, twins])
        reference = gram.qfd_diff_one_to_many(matrix, q, batch)
        for b in BLOCK_SIZES:
            got = QFDKernel(matrix, block_rows=b).one_to_many(q, batch)
            assert np.array_equal(got, reference), f"block_rows={b}"

    def test_chunked_difference_form_matches_one_pass(self, setup, monkeypatch) -> None:
        matrix, rows, _, q = setup
        one_pass = gram.qfd_diff_one_to_many(matrix, q, rows)
        monkeypatch.setattr(gram, "DIFF_CHUNK_ROWS", 5)
        chunked = gram.qfd_diff_one_to_many(matrix, q, rows)
        assert chunked.shape == (N,)
        np.testing.assert_allclose(chunked, one_pass, rtol=1e-12, atol=0.0)
        for start in range(0, N, 5):
            head = gram.qfd_diff_one_to_many(matrix, q, rows[start:start + 5])
            assert np.array_equal(chunked[start:start + 5], head)


class TestBlockInvarianceProperty:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        dim=st.integers(1, 8),
        b1=st.integers(1, 50),
        b2=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_to_many_any_two_tilings_agree(self, seed, n, dim, b1, b2) -> None:
        rng = np.random.default_rng(seed)
        matrix = random_spd_matrix(dim, condition=10.0, rng=rng)
        rows = rng.normal(size=(n, dim)).astype(np.float32)
        q = rng.normal(size=dim)
        assert np.array_equal(
            blocked_qfd_one_to_many(matrix, q, rows, block_rows=b1),
            blocked_qfd_one_to_many(matrix, q, rows, block_rows=b2),
        )
        assert np.array_equal(
            blocked_l2_one_to_many(q, rows, block_rows=b1),
            blocked_l2_one_to_many(q, rows, block_rows=b2),
        )


class TestGramFloat32Accumulation:
    """Satellite (a): float32 inputs accumulate in float64 everywhere."""

    def test_all_gram_functions_coerce_to_float64(self, setup) -> None:
        matrix, rows, others, q = setup
        heap = rows.astype(np.float64)
        pairs = [
            (gram.qfd_row_norms(matrix, rows), gram.qfd_row_norms(matrix, heap)),
            (gram.l2_row_norms(rows), gram.l2_row_norms(heap)),
            (gram.qfd_one_to_many(matrix, q, rows), gram.qfd_one_to_many(matrix, q, heap)),
            (gram.l2_one_to_many(q, rows), gram.l2_one_to_many(q, heap)),
            (gram.qfd_pairwise(matrix, rows), gram.qfd_pairwise(matrix, heap)),
            (gram.l2_pairwise(rows), gram.l2_pairwise(heap)),
            (
                gram.qfd_cross(matrix, others, rows),
                gram.qfd_cross(matrix, others.astype(np.float64), heap),
            ),
            (
                gram.l2_cross(others, rows),
                gram.l2_cross(others.astype(np.float64), heap),
            ),
        ]
        for got, expected in pairs:
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_float32_inputs_do_not_drift(self) -> None:
        """Without the float64 coercion, a float32 Gram expansion loses
        ~half its digits to cancellation; with it the result matches the
        exact difference form to full float64 round-off."""
        rng = np.random.default_rng(7)
        dim = 16
        matrix = random_spd_matrix(dim, condition=100.0, rng=rng)
        base = rng.normal(size=dim)
        # Close pairs: the cancellation-hostile regime.
        rows = (base + 1e-4 * rng.normal(size=(64, dim))).astype(np.float32)
        q = base.astype(np.float32).astype(np.float64)
        got = gram.qfd_one_to_many(matrix, q, rows)
        exact = np.sqrt(
            [
                max(float((r - q) @ matrix @ (r - q)), 0.0)
                for r in rows.astype(np.float64)
            ]
        )
        assert np.allclose(got, exact, rtol=1e-7, atol=1e-10)
