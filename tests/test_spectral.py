import numpy as np
import pytest

from slemap.errors import DimensionMismatch, NonSymmetricInput, RankDeficient
from slemap.laplacian import (
    Embedding,
    build_laplacian,
    d_orthonormalize,
    _deflate_constant,
    descend_eigenmap,
    objective_phi,
    phi_gradient,
    solve_eigenmap,
)


def random_similarity(rng, m):
    a = rng.random((m, m))
    s = (a + a.T) / 2.0
    np.fill_diagonal(s, 1.0)
    return s


def block_similarity(*sizes):
    m = sum(sizes)
    s = np.zeros((m, m))
    at = 0
    for size in sizes:
        s[at:at + size, at:at + size] = 1.0
        at += size
    return s


class TestBuildLaplacian:
    def test_two_node(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(lap.degrees, [2.0, 2.0])
        assert np.array_equal(lap.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_identity_similarity(self):
        lap = build_laplacian(np.eye(3))
        assert np.array_equal(lap.matrix, np.zeros((3, 3)))
        assert np.allclose(lap.degrees, np.ones(3))

    def test_row_sums_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 12))
            assert np.max(np.abs(lap.matrix.sum(axis=1))) <= 1e-10

    def test_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 15))
            assert np.linalg.eigvalsh(lap.matrix).min() >= -1e-10

    def test_quadratic_form_nonneg(self):
        rng = np.random.default_rng(8)
        lap = build_laplacian(random_similarity(rng, 10))
        for _ in range(20):
            v = rng.standard_normal(10)
            assert v @ lap.matrix @ v >= -1e-10 * (v @ v)

    def test_zero_degree_regularized(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 1.0
        lap = build_laplacian(s)
        assert lap.degrees[2] == 1e-8

    def test_rejects_asymmetric(self):
        s = np.eye(3)
        s[0, 1] = 1e-6
        with pytest.raises(NonSymmetricInput):
            build_laplacian(s)


class TestObjective:
    def test_constant_rows(self):
        rng = np.random.default_rng(2)
        lap = build_laplacian(random_similarity(rng, 8))
        x = np.tile(rng.standard_normal(3), (8, 1))
        assert abs(objective_phi(x, lap)) <= 1e-10

    def test_hand_example(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        x = np.array([[0.0], [1.0]])
        assert objective_phi(x, lap) == pytest.approx(1.0, abs=1e-14)

    def test_matches_pairwise_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m, dims = 9, 3
            s = random_similarity(rng, m)
            lap = build_laplacian(s)
            x = rng.standard_normal((m, dims))
            brute = 0.0
            for i in range(m):
                for j in range(m):
                    brute += np.sum((x[i] - x[j]) ** 2) * s[i, j]
            phi = objective_phi(x, lap)
            assert abs(phi - brute / 2.0) <= 1e-8 * max(1.0, abs(phi))

    def test_dimension_mismatch(self):
        lap = build_laplacian(np.eye(3))
        with pytest.raises(DimensionMismatch):
            objective_phi(np.zeros((4, 2)), lap)


class TestGradient:
    def test_zero_embedding(self):
        rng = np.random.default_rng(4)
        lap = build_laplacian(random_similarity(rng, 6))
        assert np.array_equal(phi_gradient(np.zeros((6, 2)), lap), np.zeros((6, 2)))

    def test_zero_laplacian(self):
        lap = build_laplacian(np.eye(5))
        x = np.random.default_rng(5).standard_normal((5, 2))
        assert np.allclose(phi_gradient(x, lap), 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m, dims = 7, 2
            lap = build_laplacian(random_similarity(rng, m))
            x = rng.standard_normal((m, dims))
            grad = phi_gradient(x, lap)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in range(m):
                for j in range(dims):
                    xp = x.copy(); xp[i, j] += h
                    xm = x.copy(); xm[i, j] -= h
                    fd[i, j] = (objective_phi(xp, lap) - objective_phi(xm, lap)) / (2 * h)
            denom = max(np.abs(grad).max(), 1e-12)
            assert np.abs(grad - fd).max() / denom < 1e-5


class TestSolveEigenmap:
    def test_two_node_closed_form(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        emb = solve_eigenmap(lap, 1)
        # lambda = 1 eigenvector of Lx = lambda Dx, D-normalized, positive sign
        assert np.allclose(emb.vectors, [[0.5], [-0.5]], atol=1e-12)
        assert objective_phi(emb, lap) == pytest.approx(1.0, abs=1e-12)

    def test_d_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 14))
            emb = solve_eigenmap(lap, 4)
            gram = emb.vectors.T @ (lap.degrees[:, None] * emb.vectors)
            assert np.linalg.norm(gram - np.eye(4)) <= 1e-8

    def test_disconnected_components(self):
        # two components (two ~0 eigenvalues), random weights inside each so
        # the rest of the spectrum is simple
        rng = np.random.default_rng(20)
        s = np.zeros((9, 9))
        s[:4, :4] = random_similarity(rng, 4) * 0.5 + 0.5
        s[4:, 4:] = random_similarity(rng, 5) * 0.5 + 0.5
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        lap = build_laplacian(s)
        emb = solve_eigenmap(lap, 2)
        assert np.all(np.isfinite(emb.vectors))
        gram = emb.vectors.T @ (lap.degrees[:, None] * emb.vectors)
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-8
        # the leading direction is the near-null component contrast
        assert objective_phi(Embedding(emb.vectors[:, :1]), lap) <= 1e-6

    def test_beats_random_frames(self):
        rng = np.random.default_rng(9)
        lap = build_laplacian(random_similarity(rng, 12))
        emb = solve_eigenmap(lap, 3)
        phi_star = objective_phi(emb, lap)
        for _ in range(25):
            y = rng.standard_normal((12, 3))
            y = d_orthonormalize(_deflate_constant(y, lap.degrees), lap.degrees)
            assert phi_star <= objective_phi(y, lap) + 1e-10

    def test_requested_dims_out_of_range(self):
        lap = build_laplacian(np.eye(4) * 0 + random_similarity(np.random.default_rng(0), 4))
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 4)

    def test_degenerate_cut_detected(self):
        # three identical components: two exactly-degenerate non-trivial
        # null vectors, so a 1-dim request is ill-posed
        lap = build_laplacian(block_similarity(2, 2, 2))
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 1)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(10)
        s = random_similarity(rng, 10)
        a = solve_eigenmap(build_laplacian(s), 3).vectors
        b = solve_eigenmap(build_laplacian(s.copy()), 3).vectors
        assert np.array_equal(a, b)


class TestDescend:
    def test_stationary_at_eigensolution(self):
        rng = np.random.default_rng(11)
        lap = build_laplacian(random_similarity(rng, 10))
        emb = solve_eigenmap(lap, 2)
        out = descend_eigenmap(lap, 2, emb, steps=5)
        assert abs(objective_phi(out, lap) - objective_phi(emb, lap)) < 1e-10
        assert np.abs(out.vectors - emb.vectors).max() < 1e-8

    def test_reaches_eigensolver_objective(self):
        rng = np.random.default_rng(12)
        lap = build_laplacian(random_similarity(rng, 20))
        target = objective_phi(solve_eigenmap(lap, 3), lap)
        init = rng.standard_normal((20, 3))
        out = descend_eigenmap(lap, 3, init, steps=5000)
        achieved = objective_phi(out, lap)
        assert achieved <= target * (1 + 1e-6) + 1e-12

    def test_zero_step_returns_orthonormalized_init(self):
        rng = np.random.default_rng(13)
        lap = build_laplacian(random_similarity(rng, 8))
        init = _deflate_constant(rng.standard_normal((8, 2)), lap.degrees)
        out = descend_eigenmap(lap, 2, init, steps=0)
        assert np.allclose(out.vectors, d_orthonormalize(init, lap.degrees), atol=1e-12)

    def test_constraint_maintained(self):
        rng = np.random.default_rng(14)
        lap = build_laplacian(random_similarity(rng, 15))
        out = descend_eigenmap(lap, 3, rng.standard_normal((15, 3)), steps=200)
        gram = out.vectors.T @ (lap.degrees[:, None] * out.vectors)
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-8


class TestDOrthonormalize:
    def test_dependent_columns_rejected(self):
        rng = np.random.default_rng(21)
        lap = build_laplacian(random_similarity(rng, 8))
        col = rng.standard_normal(8)
        x = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficient):
            d_orthonormalize(x, lap.degrees)

    def test_already_orthonormal_unchanged(self):
        rng = np.random.default_rng(22)
        lap = build_laplacian(random_similarity(rng, 9))
        emb = solve_eigenmap(lap, 3)
        out = d_orthonormalize(emb.vectors, lap.degrees)
        assert np.abs(out - emb.vectors).max() < 1e-12
