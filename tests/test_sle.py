import hashlib
import warnings

import numpy as np
import pytest

from slemap.errors import DegenerateLambda
from slemap.laplacian import build_laplacian, objective_phi, solve_eigenmap
from slemap.logistic import LabeledFeatures, LearnerParams, loss, train
from slemap.sle import SleConfig, fit_sle, joint_objective, resolve_lambda


def random_similarity(rng, m):
    a = rng.random((m, m))
    s = (a + a.T) / 2.0
    np.fill_diagonal(s, 1.0)
    return s


def clustered_dataset(rng, m=40, n_numeric=3, dims=2):
    """Labels driven by two similarity clusters plus weak numeric noise."""
    half = m // 2
    s = np.full((m, m), 0.05)
    s[:half, :half] = 0.8
    s[half:, half:] = 0.8
    s = s + rng.random((m, m)) * 0.05
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 1.0)
    y = np.array([1] * half + [0] * (m - half))
    numeric = rng.standard_normal((m, n_numeric))
    return numeric, s, y


class TestJointObjective:
    def test_lambda_zero_equals_phi(self):
        rng = np.random.default_rng(0)
        s = random_similarity(rng, 10)
        lap = build_laplacian(s)
        xe = rng.standard_normal((10, 2))
        data = LabeledFeatures(np.hstack([rng.standard_normal((10, 3)), xe]),
                               rng.integers(0, 2, 10), slice(3, 5))
        params = LearnerParams(rng.standard_normal(5), 0.1, 0.01)
        assert joint_objective(xe, params, lap, data, 0.0) == objective_phi(xe, lap)

    def test_constant_rows_lambda_zero(self):
        rng = np.random.default_rng(1)
        lap = build_laplacian(random_similarity(rng, 8))
        xe = np.tile(rng.standard_normal(2), (8, 1))
        data = LabeledFeatures(np.hstack([np.zeros((8, 1)), xe]),
                               rng.integers(0, 2, 8), slice(1, 3))
        params = LearnerParams.zeros(3)
        assert abs(joint_objective(xe, params, lap, data, 0.0)) <= 1e-12

    def test_recomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 9))
            xe = rng.standard_normal((9, 2))
            data = LabeledFeatures(np.hstack([rng.standard_normal((9, 2)), xe]),
                                   rng.integers(0, 2, 9), slice(2, 4))
            params = LearnerParams(rng.standard_normal(4), -0.2, 0.05)
            lam = float(rng.random() * 3)
            want = objective_phi(xe, lap) + lam * loss(params, data.with_embedding(xe))
            assert joint_objective(xe, params, lap, data, lam) == want


class TestResolveLambda:
    def test_explicit_wins(self):
        cfg = SleConfig(dims=2, lam=1.5)
        assert resolve_lambda(cfg, 10.0, 2.0) == 1.5

    def test_heuristic_ratio(self):
        cfg = SleConfig(dims=2)
        # chosen so lam * loss0 = 0.1 * phi0
        assert resolve_lambda(cfg, 10.0, 2.0) == pytest.approx(0.5)

    def test_zero_loss_guard(self):
        cfg = SleConfig(dims=2)
        assert resolve_lambda(cfg, 10.0, 0.0) == 0.0


class TestFit:
    def test_lambda_zero_is_fixed_point(self):
        rng = np.random.default_rng(3)
        numeric, s, y = clustered_dataset(rng)
        lap = build_laplacian(s)
        xe0 = solve_eigenmap(lap, 2)
        cfg = SleConfig(dims=2, lam=0.0, max_outer_iters=5,
                        inner_theta_steps=5, inner_embedding_steps=5)
        model = fit_sle(numeric, s, y, cfg, lap=lap, xe0=xe0)
        assert np.abs(model.embedding - xe0).max() < 1e-8

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            numeric, s, y = clustered_dataset(rng, m=24)
            cfg = SleConfig(dims=2, max_outer_iters=8, inner_theta_steps=5,
                            inner_embedding_steps=5)
            model = fit_sle(numeric, s, y, cfg)
            trace = model.objective_trace
            assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))

    def test_constraint_maintained(self):
        rng = np.random.default_rng(5)
        numeric, s, y = clustered_dataset(rng, m=30)
        cfg = SleConfig(dims=3, max_outer_iters=10, inner_theta_steps=5,
                        inner_embedding_steps=8)
        model = fit_sle(numeric, s, y, cfg)
        assert model.max_constraint_violation <= 1e-6
        lap = build_laplacian(s)
        gram = model.embedding.T @ (lap.degrees[:, None] * model.embedding)
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        numeric, s, y = clustered_dataset(rng, m=26)
        cfg = SleConfig(dims=2, max_outer_iters=6, inner_theta_steps=4,
                        inner_embedding_steps=4)
        a = fit_sle(numeric, s, y, cfg)
        b = fit_sle(numeric.copy(), s.copy(), y.copy(), cfg)
        assert len(a.objective_trace) == len(b.objective_trace)
        assert np.allclose(a.objective_trace, b.objective_trace, rtol=0, atol=1e-12)
        assert np.array_equal(a.embedding, b.embedding)

    def test_supervision_lowers_loss_vs_unsupervised_embedding(self):
        rng = np.random.default_rng(7)
        numeric, s, y = clustered_dataset(rng, m=40)
        lap = build_laplacian(s)
        xe0 = solve_eigenmap(lap, 2)
        cfg = SleConfig(dims=2, max_outer_iters=15, inner_theta_steps=10,
                        inner_embedding_steps=10)
        model = fit_sle(numeric, s, y, cfg, lap=lap, xe0=xe0)
        # the recorded joint objective must end at or below its start
        assert model.objective_trace[-1] <= model.objective_trace[0]

    def test_extreme_lambda_cannot_collapse_embedding(self):
        # the constraint projection structurally prevents the trivial
        # solution: even an absurd loss weight leaves unit-D-norm columns,
        # a finite monotone trace, and either a clean run or a surfaced
        # DegenerateLambda flag
        rng = np.random.default_rng(8)
        numeric, s, y = clustered_dataset(rng, m=20)
        cfg = SleConfig(dims=2, lam=1e9, max_outer_iters=30,
                        inner_theta_steps=5, inner_embedding_steps=30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_sle(numeric, s, y, cfg)
        assert model.degenerate == any(
            issubclass(w.category, DegenerateLambda) for w in caught)
        assert np.all(np.isfinite(model.objective_trace))
        trace = model.objective_trace
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
        if not model.degenerate:
            lap = build_laplacian(s)
            gram = model.embedding.T @ (lap.degrees[:, None] * model.embedding)
            assert np.linalg.norm(gram - np.eye(2)) <= 1e-6


def test_given_start_fits_like_its_own():
    """A start that the caller fitted as fit_sle would is not fitted again,
    and the fit is bitwise the one that fits its own."""
    rng = np.random.default_rng(16)
    numeric, s, y = clustered_dataset(rng, m=30, n_numeric=3, dims=2)
    cfg = SleConfig(dims=2, max_outer_iters=3, inner_theta_steps=5, inner_embedding_steps=4)
    lap = build_laplacian(s)
    xe0 = solve_eigenmap(lap, 2)
    start = train(LabeledFeatures(np.hstack([numeric, xe0 * 2.5]), y, slice(3, 5)), cfg.l2)
    own = fit_sle(numeric, s, y, cfg, feature_scale=2.5)
    given = fit_sle(numeric, s, y, cfg, lap=lap, xe0=xe0, feature_scale=2.5, start=start)
    assert given.embedding.tobytes() == own.embedding.tobytes()
    assert given.params.weights.tobytes() == own.params.weights.tobytes()
    assert (given.params.bias, given.objective_trace, given.lam) == (
        own.params.bias, own.objective_trace, own.lam)


class TestGolden:
    def test_fit_sle_pinned(self):
        # recorded from the alternation started from the classifier that
        # Newton steps trained from zero weights; any change to the step rule,
        # the backtracking, the classifier's start or the operand order of
        # the products shows here
        rng = np.random.default_rng(15)
        numeric, s, y = clustered_dataset(rng, m=30, n_numeric=3, dims=2)
        cfg = SleConfig(dims=2, max_outer_iters=3, inner_theta_steps=5,
                        inner_embedding_steps=4, tol=0.0)
        model = fit_sle(numeric, s, y, cfg, feature_scale=2.5)
        assert [repr(v) for v in model.objective_trace] == [
            "1.258240694469423", "1.2581215191879886",
            "1.2581105612560197", "1.2581100649590198"]
        assert repr(model.lam) == "0.4485952949044341"
        assert model.degenerate is False
        assert repr(model.max_constraint_violation) == "1.111504079007786e-15"
        assert hashlib.sha256(model.embedding.tobytes()).hexdigest() == (
            "7923aee2d23abbb57603299a2c23da65617bc0dbd56bdd8f1b932dfa8149fae5")
