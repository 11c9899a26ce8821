import numpy as np
import pytest

from oracles import oracle_estimate
from slemap import estimator
from slemap.errors import KTooLarge
from slemap.estimator import estimate_batch
from slemap.similarity import SimilarityComputer
from slemap.text import Document, Statement


def doc(doc_id, *statements):
    return Document(id=doc_id, statements=tuple(Statement(tuple(s)) for s in statements))


CORPUS = [
    doc("0", ["chest", "pain"]),
    doc("1", ["heart", "racing"]),
    doc("2", ["dizzy", "spells"]),
    doc("3", ["chest", "pain"], ["dizzy", "spells"]),
]


def chosen(sims, k):
    """The training indices estimate_batch averages for each similarity row,
    read off a one-hot embedding."""
    sims = np.atleast_2d(sims)
    est, _ = estimate_batch(sims, np.eye(sims.shape[1]), k, weighted=False)
    return [np.flatnonzero(row).tolist() for row in est]


def estimates(n, idx, sims, xe):
    """Average and weighted estimates from the neighbors ``idx`` with
    similarities ``sims``; every other training document scores 0."""
    row = np.zeros((1, n))
    row[0, list(idx)] = sims
    k = len(idx)
    return (estimate_batch(row, xe, k, weighted=False)[0][0],
            estimate_batch(row, xe, k, weighted=True)[0][0])


class TestFindNeighbors:
    def test_identical_doc_is_top(self):
        sims = SimilarityComputer().rows([doc("n", ["heart", "racing"])], CORPUS)
        assert chosen(sims, 1) == [[1]]
        assert sims[0, 1] == 1.0

    def test_k_equals_corpus_size(self):
        sims = SimilarityComputer().rows([doc("n", ["chest", "pain"])], CORPUS)
        assert chosen(sims, 4) == [[0, 1, 2, 3]]

    def test_k_too_large(self):
        sims = SimilarityComputer().rows([doc("n", ["chest"])], CORPUS)
        with pytest.raises(KTooLarge):
            estimate_batch(sims, np.eye(4), k=5)
        with pytest.raises(KTooLarge):
            estimate_batch(sims, np.eye(4), k=0)

    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            sims = np.round(rng.random(12), 2)  # rounding forces ties
            k = int(rng.integers(1, 12))
            full = sorted(range(12), key=lambda i: (-sims[i], i))
            assert chosen(sims, k) == [sorted(full[:k])]

    def test_tie_break_lower_index(self):
        assert chosen(np.array([0.5, 0.9, 0.9, 0.1]), 2) == [[1, 2]]
        # a tie across the cut keeps the lower index
        assert chosen(np.array([0.5, 0.9, 0.5, 0.1]), 2) == [[0, 1]]


class TestEstimates:
    def test_shared_embedding_returned(self):
        xe = np.tile([1.5, -2.0], (4, 1))
        for est in estimates(4, (0, 2, 3), (0.9, 0.5, 0.3), xe):
            assert np.allclose(est, [1.5, -2.0])

    def test_average_arithmetic(self):
        xe = np.array([[0.0, 0.0], [2.0, 4.0]])
        average, _ = estimates(2, (0, 1), (0.9, 0.9), xe)
        assert np.array_equal(average, [1.0, 2.0])

    def test_average_matches_resummation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xe = rng.standard_normal((10, 3))
            idx = tuple(int(i) for i in rng.choice(10, size=4, replace=False))
            average, _ = estimates(10, idx, sorted(rng.random(4) + 0.01, reverse=True), xe)
            want = sum(xe[i] for i in idx) / 4
            assert np.allclose(average, want, atol=1e-12)

    def test_weighted_equals_average_for_equal_sims(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xe = rng.standard_normal((8, 3))
            idx = tuple(int(i) for i in rng.choice(8, size=3, replace=False))
            c = float(rng.random() * 0.9 + 0.05)
            average, weighted = estimates(8, idx, (c, c, c), xe)
            assert np.array_equal(weighted, average)

    def test_zero_rho_gives_zero_vector(self):
        xe = np.random.default_rng(3).standard_normal((5, 4))
        _, weighted = estimates(5, (1, 3), (0.0, 0.0), xe)
        assert np.array_equal(weighted, np.zeros(4))

    def test_zero_weight_neighbor_ignored(self):
        xe = np.array([[3.0, 1.0], [9.0, 9.0]])
        _, weighted = estimates(2, (0, 1), (1.0, 0.0), xe)
        assert np.array_equal(weighted, [3.0, 1.0])

    def test_convex_hull_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            xe = rng.standard_normal((12, 3))
            k = int(rng.integers(1, 6))
            sims = np.sort(rng.random(k) + 0.01)[::-1]
            idx = tuple(int(i) for i in rng.choice(12, size=k, replace=False))
            rows = xe[list(idx)]
            for est in estimates(12, idx, sims, xe):
                assert np.all(est >= rows.min(axis=0) - 1e-12)
                assert np.all(est <= rows.max(axis=0) + 1e-12)


class TestBatch:
    def test_counts_degenerate_rows(self):
        xe = np.ones((3, 2))
        sims = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        est, zero_rho = estimate_batch(sims, xe, k=2, weighted=True)
        assert zero_rho == 1
        assert np.array_equal(est[0], np.zeros(2))
        assert np.allclose(est[1], np.ones(2))

    def test_permutation_invariance_with_ties(self):
        # permuting equal-similarity training docs and re-sorting by index
        # leaves the estimate unchanged
        rng = np.random.default_rng(5)
        xe = rng.standard_normal((6, 2))
        sims = np.array([0.4, 0.4, 0.4, 0.4, 0.4, 0.4])
        est1, _ = estimate_batch(sims[None, :], xe, k=3)
        est2, _ = estimate_batch(sims[None, :], xe.copy(), k=3)
        assert np.array_equal(est1, est2)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_per_row_oracle_bitwise(self, weighted):
        # rounded similarities tie often, including across the k-th place,
        # and all-zero rows take the degenerate path
        rng = np.random.default_rng(6)
        for n in (1, 2, 7, 16):
            xe = rng.standard_normal((n, 3))
            sims = np.round(rng.random((24, n)), 1)
            sims[::5] = 0.0
            sims[1::7] = sims[1, 0]
            for k in range(1, n + 1):
                got, got_zero = estimate_batch(sims, xe, k, weighted)
                want, want_zero = oracle_estimate(sims, xe, k, weighted)
                assert got.tobytes() == want.tobytes()
                assert got_zero == want_zero

    @pytest.mark.parametrize("weighted", [True, False])
    def test_chunked_selection_matches_oracle_bitwise(self, monkeypatch, weighted):
        """Blocks of many selection chunks, the last one partial, with ties
        at the k-th place and duplicate columns, equal the per-row oracle."""
        rng = np.random.default_rng(8)
        n = 600
        xe = rng.standard_normal((n, 3))
        sims = np.round(rng.random((131, n)), 1)
        sims[:, n // 2:] = sims[:, :n // 2]
        sims[::9] = 0.0
        sims[1::7] = sims[1, 0]
        assert sims.shape[0] > 2 * (estimator._SELECT_BYTES // (16 * n))
        for budget in (estimator._SELECT_BYTES, 16 * n * 4, 1):
            monkeypatch.setattr(estimator, "_SELECT_BYTES", budget)
            for k in (1, 5, 37):
                got, got_zero = estimate_batch(sims, xe, k, weighted)
                want, want_zero = oracle_estimate(sims, xe, k, weighted)
                assert got.tobytes() == want.tobytes()
                assert got_zero == want_zero

    def test_selection_equals_stable_argsort_bitwise(self, monkeypatch):
        """The partition selection is the leading k of a stable argsort of
        the negated block, on duplicate columns, ties across the k-th place,
        mixed 0.0/-0.0, all-zero and constant rows, at k = 1 and k = n,
        under every selection budget of the chunk test."""
        rng = np.random.default_rng(9)
        n = 600
        sims = np.round(rng.random((131, n)), 1)
        sims[:, n // 2:] = sims[:, :n // 2]
        sims[::9] = 0.0
        sims[1::7] = sims[1, 0]
        sims[2::5, ::3] = -0.0
        assert np.signbit(sims).any() and (sims == 0.0).all(axis=1).any()
        for budget in (estimator._SELECT_BYTES, 16 * n * 4, 1):
            monkeypatch.setattr(estimator, "_SELECT_BYTES", budget)
            for k in (1, 5, 37, n):
                top, near = estimator.select_neighbours(sims, k)
                want = np.argsort(-sims, axis=1, kind="stable")[:, :k]
                assert top.tobytes() == want.tobytes()
                assert near.tobytes() == np.take_along_axis(sims, want, axis=1).tobytes()

    def test_mixed_block_matches_per_row_oracle_bitwise(self):
        """One block whose rows take each rule: equal weights (the plain
        mean), all-zero weights (the zero vector, counted) and unequal
        weights, at the widths of the benchmark sweep, given as a block or
        as its selection."""
        rng = np.random.default_rng(10)
        n, k = 300, 5
        sims = rng.random((90, n))
        sims[0::3] = 0.0
        sims[1::3] = 0.25    # ties across the k-th place
        top, near = estimator.select_neighbours(sims, k)
        rho, equal = near.sum(axis=1), near.min(axis=1) == near.max(axis=1)
        assert (rho == 0.0).sum() == 30 and (equal & (rho > 0.0)).sum() == 30
        assert (~equal).sum() == 30
        for dims in (10, 40):
            xe = rng.standard_normal((n, dims)) * 10.0 ** rng.uniform(-6, 3, size=(n, 1))
            for weighted in (True, False):
                want, want_zero = oracle_estimate(sims, xe, k, weighted)
                for given in (sims, (top, near)):
                    got, got_zero = estimate_batch(given, xe, k, weighted)
                    assert got.tobytes() == want.tobytes()
                    assert got_zero == want_zero == (30 if weighted else 0)

    def test_one_row_call_matches_block(self):
        rng = np.random.default_rng(7)
        xe = rng.standard_normal((9, 4))
        sims = np.round(rng.random((5, 9)), 1)
        block, _ = estimate_batch(sims, xe, 3)
        for i in range(5):
            single, _ = estimate_batch(sims[i:i + 1], xe, 3)
            assert single.tobytes() == block[i:i + 1].tobytes()
