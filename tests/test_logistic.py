import math

import numpy as np
import pytest

from oracles import oracle_gradient, oracle_sigmoid, oracle_train
from slemap.logistic import (
    LabeledFeatures,
    LearnerParams,
    descend_theta,
    grad_embedding,
    grad_theta,
    loss,
    predict_proba,
    sigmoid,
    train,
)


def random_data(rng, m=12, n_num=3, n_emb=2):
    x = rng.standard_normal((m, n_num + n_emb))
    y = rng.integers(0, 2, size=m)
    return LabeledFeatures(x, y, slice(n_num, n_num + n_emb))


def random_start(rng, n_features, l2):
    """Small random weights and a zero bias: a start away from zeros."""
    return LearnerParams(0.01 * rng.standard_normal(n_features), 0.0, l2)


class TestLoss:
    def test_zero_params_is_log2(self):
        rng = np.random.default_rng(0)
        data = random_data(rng)
        params = LearnerParams.zeros(5, l2=0.0)
        assert loss(params, data) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct_is_tiny(self):
        data = LabeledFeatures(np.array([[1.0]]), np.array([1]), slice(0, 1))
        params = LearnerParams(np.array([30.0]), 0.0, 0.0)
        assert loss(params, data) < 1e-12

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            data = random_data(rng)
            params = LearnerParams(rng.standard_normal(5), float(rng.standard_normal()), 0.1)
            total = 0.0
            for i in range(data.m):
                z = float(data.X[i] @ params.weights + params.bias)
                p = 1.0 / (1.0 + math.exp(-z))
                total += -(data.y[i] * math.log(p) + (1 - data.y[i]) * math.log(1 - p))
            want = total / data.m + 0.5 * params.l2 * float(params.weights @ params.weights)
            assert loss(params, data) == pytest.approx(want, abs=1e-12)

    def test_extreme_logits_finite(self):
        data = LabeledFeatures(np.array([[1.0], [1.0]]), np.array([1, 0]), slice(0, 1))
        params = LearnerParams(np.array([700.0]), 0.0, 0.0)
        assert np.isfinite(loss(params, data))
        assert np.isfinite(predict_proba(params, data.X)).all()

    def test_convex_in_theta(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            data = random_data(rng)
            w1, w2 = rng.standard_normal((2, 5))
            b1, b2 = rng.standard_normal(2)
            p1 = LearnerParams(w1, float(b1), 0.05)
            p2 = LearnerParams(w2, float(b2), 0.05)
            mid = LearnerParams((w1 + w2) / 2, float((b1 + b2) / 2), 0.05)
            assert loss(mid, data) <= (loss(p1, data) + loss(p2, data)) / 2 + 1e-12


class TestGradTheta:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            data = random_data(rng)
            params = LearnerParams(rng.standard_normal(5), float(rng.standard_normal()), 0.2)
            gw, gb = grad_theta(params, data)
            fd_w = np.zeros(5)
            for j in range(5):
                wp = params.weights.copy(); wp[j] += h
                wm = params.weights.copy(); wm[j] -= h
                fd_w[j] = (loss(LearnerParams(wp, params.bias, 0.2), data)
                           - loss(LearnerParams(wm, params.bias, 0.2), data)) / (2 * h)
            fd_b = (loss(LearnerParams(params.weights, params.bias + h, 0.2), data)
                    - loss(LearnerParams(params.weights, params.bias - h, 0.2), data)) / (2 * h)
            scale = max(np.abs(gw).max(), abs(gb), 1e-12)
            assert np.abs(gw - fd_w).max() / scale < 1e-6
            assert abs(gb - fd_b) / scale < 1e-6

    def test_balanced_symmetric_bias_grad_zero(self):
        x = np.array([[1.0, 2.0], [-1.0, -2.0]])
        data = LabeledFeatures(x, np.array([1, 0]), slice(1, 2))
        _, gb = grad_theta(LearnerParams.zeros(2), data)
        assert gb == 0.0

    def test_gradient_small_at_optimum(self):
        x = np.array([[-1.0], [1.0]])
        data = LabeledFeatures(x, np.array([0, 1]), slice(0, 1))
        params = train(data, l2=0.1, max_iters=2000, grad_tol=1e-10)
        gw, gb = grad_theta(params, data)
        assert np.sqrt(gw @ gw + gb * gb) < 1e-6


class TestGradEmbedding:
    def test_zero_slice_weights(self):
        rng = np.random.default_rng(4)
        data = random_data(rng)
        w = rng.standard_normal(5)
        w[3:] = 0.0
        assert np.array_equal(grad_embedding(LearnerParams(w, 0.3, 0.0), data),
                              np.zeros((data.m, 2)))

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            data = random_data(rng)
            params = LearnerParams(rng.standard_normal(5), float(rng.standard_normal()), 0.1)
            ge = grad_embedding(params, data)
            fd = np.zeros_like(ge)
            xe = data.embedding
            for i in range(data.m):
                for j in range(xe.shape[1]):
                    up = xe.copy(); up[i, j] += h
                    dn = xe.copy(); dn[i, j] -= h
                    fd[i, j] = (loss(params, data.with_embedding(up))
                                - loss(params, data.with_embedding(dn))) / (2 * h)
            scale = max(np.abs(ge).max(), 1e-12)
            assert np.abs(ge - fd).max() / scale < 1e-6

    def test_near_zero_after_perfect_fit(self):
        x = np.array([[-2.0, -1.0], [2.0, 1.0], [-1.5, -1.0], [1.5, 1.0]])
        data = LabeledFeatures(x, np.array([0, 1, 0, 1]), slice(1, 2))
        params = train(data, l2=0.0, max_iters=8000, grad_tol=0.0)
        assert np.abs(grad_embedding(params, data)).max() < 1e-6


class TestPredict:
    def test_zero_params(self):
        params = LearnerParams.zeros(3)
        assert np.all(predict_proba(params, np.eye(3)) == 0.5)

    def test_saturation(self):
        params = LearnerParams(np.array([30.0]), 0.0, 0.0)
        assert predict_proba(params, np.array([[1.0]]))[0] > 1 - 1e-13

    def test_monotone_in_positive_feature(self):
        params = LearnerParams(np.array([2.0, -1.0]), 0.1, 0.0)
        lo = predict_proba(params, np.array([[0.0, 1.0]]))[0]
        hi = predict_proba(params, np.array([[1.0, 1.0]]))[0]
        assert hi > lo


class TestTraining:
    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.standard_normal((20, 2)) + [3, 3],
                       rng.standard_normal((20, 2)) - [3, 3]])
        y = np.array([1] * 20 + [0] * 20)
        data = LabeledFeatures(x, y, slice(0, 2))
        params = train(data, l2=1e-4, max_iters=3000)
        acc = np.mean((predict_proba(params, x) >= 0.5) == y)
        assert acc == 1.0

    def test_descend_monotone(self):
        rng = np.random.default_rng(7)
        data = random_data(rng, m=30)
        params = random_start(rng, 5, 0.01)
        prev = loss(params, data)
        for _ in range(10):
            params = descend_theta(params, data, steps=1)
            cur = loss(params, data)
            assert cur <= prev
            prev = cur


def test_sigmoid_matches_masked_halves_bitwise():
    """The mask-free sigmoid equals the two masked halves on signed zeros,
    tiny, huge, overflow-edge and random logits."""
    edges = [0.0, 1e-300, 709.0, 745.0, 1.0, 36.0, 1e308]
    z = np.array(edges + [-v for v in edges])
    rng = np.random.default_rng(11)
    for sample in (z, rng.standard_normal(1000) * 40.0, rng.standard_normal((7, 9))):
        assert sigmoid(sample).tobytes() == oracle_sigmoid(sample).tobytes()
    assert np.signbit(z[len(edges)])   # -0.0 is among the inputs


@pytest.mark.parametrize("l2", [0.0, 0.01, 1.0])
def test_train_reaches_the_optimum(l2):
    """Newton training stops where the oracle's gradient is at most the
    tolerance, from zeros and from a random start alike, and agrees with a
    long gradient-descent run.  Separable data without a penalty have no
    optimum (the loss falls as the weights grow); their fit must still be
    finite and solvable."""
    rng = np.random.default_rng(12)
    separable = np.vstack([rng.standard_normal((20, 3)) + 3, rng.standard_normal((20, 3)) - 3])
    for data, has_optimum in (
            (random_data(rng, m=40), True),
            (LabeledFeatures(separable, np.repeat([1, 0], 20), slice(1, 3)), l2 > 0)):
        init = random_start(rng, data.X.shape[1], l2)
        fits = [train(data, l2), train(data, l2, init=init)]
        for p in fits:
            assert np.all(np.isfinite(p.weights)) and np.isfinite(p.bias)
            gw, gb = oracle_gradient(data, l2, p.weights, p.bias)
            assert math.sqrt(gw @ gw + gb * gb) <= 1e-10
        # max_iters counts Newton steps
        assert train(data, l2, init=init, max_iters=0).weights.tobytes() == init.weights.tobytes()
        if not has_optimum:
            continue
        # the optimum is unique: gradient descent reaches it to about 4e-7
        # at a gradient norm of 1e-9, and two starts agree far closer
        w, b = oracle_train(data, l2, max_iters=5000, grad_tol=1e-9)
        for p in fits:
            assert np.abs(p.weights - w).max() <= 1e-6 and abs(p.bias - b) <= 1e-6
        assert np.abs(fits[0].weights - fits[1].weights).max() <= 1e-9
        assert abs(fits[0].bias - fits[1].bias) <= 1e-9
