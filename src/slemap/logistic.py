"""L2-regularized logistic regression with gradients in parameters and inputs.

The joint embedding optimization needs the loss to be differentiable in the
embedding columns of the design matrix as well as in the parameters, so both
gradients are exposed.  Loss is the mean negative log-likelihood (dataset-size
independent) plus (l2/2) * ||w||^2; the bias is unpenalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteValue

ARMIJO_C = 1e-4
# Added to the Newton system's diagonal: keeps it solvable when the data are
# separable (the curvature vanishes) or a feature column is constant.
NEWTON_RIDGE = 1e-12
# Relative rounding error of the loss, a mean of non-negative terms.
LOSS_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class LearnerParams:
    weights: np.ndarray
    bias: float
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")

    @classmethod
    def zeros(cls, n_features: int, l2: float = 0.0) -> "LearnerParams":
        return cls(weights=np.zeros(n_features), bias=0.0, l2=l2)


@dataclass
class LabeledFeatures:
    """Design matrix with the text-embedding columns marked by a slice."""

    X: np.ndarray
    y: np.ndarray
    embedding_cols: slice

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be m x d with an m-vector of labels")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("labels must be binary")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def embedding(self) -> np.ndarray:
        return self.X[:, self.embedding_cols]

    def with_embedding(self, xe: np.ndarray) -> "LabeledFeatures":
        x = self.X.copy()
        x[:, self.embedding_cols] = xe
        return LabeledFeatures(x, self.y, self.embedding_cols)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z), from e^-|z| so that no exponential overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logits(params: LearnerParams, x: np.ndarray) -> np.ndarray:
    return x @ params.weights + params.bias


def _loss_at(z: np.ndarray, params: LearnerParams, data: LabeledFeatures) -> float:
    """The loss of ``params`` whose logits on ``data`` are ``z``."""
    # log(1 + e^z) - y z, evaluated stably
    nll = np.logaddexp(0.0, z) - data.y * z
    val = float(nll.mean() + 0.5 * params.l2 * params.weights @ params.weights)
    if not np.isfinite(val):
        raise NonFiniteValue("loss is not finite")
    return val


def _grad_at(z: np.ndarray, params: LearnerParams,
             data: LabeledFeatures) -> tuple[np.ndarray, float]:
    """The parameter gradient of ``params`` whose logits on ``data`` are ``z``."""
    residual = sigmoid(z) - data.y
    gw = data.X.T @ residual / data.m + params.l2 * params.weights
    gb = float(residual.mean())
    if not (np.all(np.isfinite(gw)) and np.isfinite(gb)):
        raise NonFiniteValue("parameter gradient is not finite")
    return gw, gb


def loss(params: LearnerParams, data: LabeledFeatures) -> float:
    return _loss_at(_logits(params, data.X), params, data)


def grad_theta(params: LearnerParams, data: LabeledFeatures) -> tuple[np.ndarray, float]:
    return _grad_at(_logits(params, data.X), params, data)


def grad_embedding(params: LearnerParams, data: LabeledFeatures) -> np.ndarray:
    """d loss / d Xe: per-row residual times the embedding weight slice."""
    z = _logits(params, data.X)
    residual = (sigmoid(z) - data.y) / data.m
    ge = np.outer(residual, params.weights[data.embedding_cols])
    if not np.all(np.isfinite(ge)):
        raise NonFiniteValue("embedding gradient is not finite")
    return ge


def predict_proba(params: LearnerParams, x: np.ndarray) -> np.ndarray:
    return sigmoid(_logits(params, np.asarray(x, dtype=float)))


def descend_theta(params: LearnerParams, data: LabeledFeatures, steps: int) -> LearnerParams:
    """Plain gradient descent with Armijo backtracking on the training loss:
    the classifier's step in the SLE alternation.

    It stops early only at a zero gradient.  A step's gradient is taken at the logits that the loss of the step
    before computed for the candidate it accepted."""
    z = _logits(params, data.X)
    cur = _loss_at(z, params, data)
    eta = 1.0
    for _ in range(steps):
        gw, gb = _grad_at(z, params, data)
        gnorm2 = float(gw @ gw + gb * gb)
        if gnorm2 == 0.0:
            break
        eta = min(eta * 2.0, 1e4)
        accepted = False
        for _ in range(60):
            cand = LearnerParams(params.weights - eta * gw, params.bias - eta * gb, params.l2)
            cand_z = _logits(cand, data.X)
            new = _loss_at(cand_z, cand, data)
            if new <= cur - ARMIJO_C * eta * gnorm2:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        params, cur, z = cand, new, cand_z
    return params


def train(data: LabeledFeatures, l2: float, init: LearnerParams | None = None,
          max_iters: int = 500, grad_tol: float = 1e-10) -> LearnerParams:
    """Train to the optimum with safeguarded Newton steps.

    Each step solves the Hessian system of the weights and the bias (l2 on
    the weights only, plus a ``NEWTON_RIDGE`` diagonal so that separable
    data and constant columns stay solvable) and backtracks from the full
    step until the Armijo condition holds.  Training stops after
    ``max_iters`` steps, at a gradient norm of ``grad_tol``, at a step that
    no backtrack accepts, or with a full step whose predicted decrease is
    below the loss's rounding, where a backtrack could not tell a good step
    from a bad one (gradient descent stalls there, short of ``grad_tol``).
    """
    params = init if init is not None else LearnerParams.zeros(data.X.shape[1], l2)
    if params.l2 != l2:
        params = replace(params, l2=l2)
    n = data.X.shape[1]
    penalty = np.full(n + 1, l2 + NEWTON_RIDGE)
    penalty[n] = NEWTON_RIDGE
    hessian = np.empty((n + 1, n + 1))
    z = _logits(params, data.X)
    cur = _loss_at(z, params, data)
    for _ in range(max_iters):
        gw, gb = _grad_at(z, params, data)
        g = np.append(gw, gb)
        if float(g @ g) <= grad_tol ** 2:
            break
        p = sigmoid(z)
        # [X 1]ᵀ diag(p (1 - p) / m) [X 1], without a copy of X with the
        # ones column
        w = np.sqrt(p * (1.0 - p) / data.m)
        root = data.X * w[:, None]
        hessian[:n, :n] = root.T @ root
        hessian[:n, n] = hessian[n, :n] = root.T @ w
        hessian[n, n] = w @ w
        hessian[np.diag_indices_from(hessian)] += penalty
        step = -np.linalg.solve(hessian, g)
        slope = float(g @ step)   # minus the squared Newton decrement
        if -slope <= LOSS_ROUNDING * cur:
            # the Armijo test would compare rounding noise; this close to the
            # optimum the full Newton step is accurate to rounding, and
            # training ends with it
            return LearnerParams(params.weights + step[:-1], params.bias + float(step[-1]), l2)
        eta, accepted = 1.0, False
        for _ in range(60):
            cand = LearnerParams(params.weights + eta * step[:-1],
                                 params.bias + eta * float(step[-1]), l2)
            cand_z = _logits(cand, data.X)
            new = _loss_at(cand_z, cand, data)
            if new <= cur + ARMIJO_C * eta * slope:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        params, cur, z = cand, new, cand_z
    return params
