import hashlib
import warnings

import numpy as np
import pytest

from slemap import laplacian
from slemap.errors import DegenerateLambda
from slemap.laplacian import (DescentState, _deflate_constant, build_laplacian, d_orthonormalize,
                              objective_phi, projected_descent, solve_eigenmap)
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


class TestLineSearch:
    """The descent's line search reads its trials from dims x dims algebra."""

    def test_one_laplacian_product_per_step(self, monkeypatch):
        """One L X product for the fit's start and one per descent step,
        however many trials the step's line search takes."""
        counts = {"dot": 0, "step": 0, "trial": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(laplacian.Laplacian, "dot",
                            counted("dot", laplacian.Laplacian.dot))
        monkeypatch.setattr(laplacian, "_descent_direction",
                            counted("step", laplacian._descent_direction))
        monkeypatch.setattr(laplacian, "_inverse_sqrt",
                            counted("trial", laplacian._inverse_sqrt))
        numeric, s, y = clustered_dataset(np.random.default_rng(17), m=30)
        lap = build_laplacian(s)
        xe0 = solve_eigenmap(lap, 2)
        cfg = SleConfig(dims=2, max_outer_iters=4, inner_theta_steps=5,
                        inner_embedding_steps=6, tol=0.0)
        fit_sle(numeric, None, y, cfg, lap=lap, xe0=xe0, feature_scale=2.5)
        assert counts["step"] == 4 * 6
        assert counts["trial"] > counts["step"]    # steps backtracked
        assert counts["dot"] == 1 + counts["step"]

    def test_algebra_tracks_recomputation(self, monkeypatch):
        """After 500 steps, the L X and phi that the descent carried equal
        their recomputation from the iterate, and so does the joint
        objective that a fit records last."""
        rng = np.random.default_rng(1)
        base = random_similarity(rng, 30)
        keys = np.concatenate([np.arange(30), rng.integers(0, 30, 90)])
        lap = build_laplacian(base[np.ix_(keys, keys)])
        assert lap.firsts.size < lap.m      # grouped
        x = _deflate_constant(rng.standard_normal((120, 8)), lap.degrees)
        start = DescentState.at(lap, d_orthonormalize(x, lap.degrees[:, None] * x))
        dots = []
        real = laplacian.Laplacian.dot

        def counted(self, x):
            dots.append(x.shape)
            return real(self, x)

        monkeypatch.setattr(laplacian.Laplacian, "dot", counted)
        state, collapse = projected_descent(lap, start, 500)
        assert collapse is None and len(dots) == 500    # no step stopped the descent
        want = real(lap, state.x)
        assert np.abs(state.lx - want).max() <= 1e-11 * np.abs(want).max()
        phi = objective_phi(state.x, lap)
        assert abs(state.phi - phi) <= 1e-11 * abs(phi)

        numeric, s, y = clustered_dataset(rng, m=40)
        cfg = SleConfig(dims=3, max_outer_iters=20, inner_theta_steps=5,
                        inner_embedding_steps=25, tol=0.0)
        model = fit_sle(numeric, s, y, cfg)
        data = LabeledFeatures(np.hstack([numeric, model.embedding]), y, slice(3, 6))
        joint = joint_objective(model.embedding, model.params, build_laplacian(s), data,
                                model.lam)
        assert abs(model.objective_trace[-1] - joint) <= 1e-11 * abs(joint)


class TestGolden:
    def test_fit_sle_pinned(self):
        # recorded from the alternation, its line search in dims x dims
        # algebra, started from the classifier that Newton steps trained
        # from zero weights and from the eigenmap of the partial LAPACK
        # solve; any change to the step rule, the backtracking, the
        # classifier's start, the eigensolve or the operand order of the
        # products shows here
        rng = np.random.default_rng(15)
        numeric, s, y = clustered_dataset(rng, m=30, n_numeric=3, dims=2)
        cfg = SleConfig(dims=2, max_outer_iters=3, inner_theta_steps=5,
                        inner_embedding_steps=4, tol=0.0)
        model = fit_sle(numeric, s, y, cfg, feature_scale=2.5)
        assert [repr(v) for v in model.objective_trace] == [
            "1.2582406944694224", "1.2581215191879882",
            "1.25811056125602", "1.2581100649590196"]
        assert repr(model.lam) == "0.44859529490443373"
        assert model.degenerate is False
        assert repr(model.max_constraint_violation) == "1.1593376652227128e-15"
        assert hashlib.sha256(model.embedding.tobytes()).hexdigest() == (
            "71fda578f867a3c8f9db63ff0de64f04612f32c242fe9e51744ed95ca9264303")
