"""Joint optimization of the text embedding and the base classifier.

The objective is phi(Xe, S) + lambda * loss(classifier(X, Y, theta)) where the
embedding columns Xe sit inside the full design matrix X.  It is minimized by
alternating gradient descent: descend the classifier loss in theta with Xe
fixed, then descend the joint objective in Xe with theta fixed, keeping
Xe^T D Xe = I by projection.  The Xe half is the projected-descent step of
the unsupervised eigenmap descent (``laplacian.projected_descent``) with
lambda * loss as its extra objective term, which reads Xe only through its
share of the logits (a ``laplacian.LinearTerm``).  The embedding starts at the
unsupervised eigenmap and moves for a limited number of iterations with a
deliberately small lambda; a lambda large enough to collapse the embedding
is surfaced as a DegenerateLambda warning rather than silently producing a
trivial solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLambda, NonFiniteValue
from .laplacian import (
    DescentState,
    Laplacian,
    LinearTerm,
    build_laplacian,
    objective_phi,
    projected_descent,
    solve_eigenmap,
)
from .logistic import (LabeledFeatures, LearnerParams, descend_theta, logit_gradient, loss,
                       loss_at, train)


@dataclass(frozen=True)
class SleConfig:
    dims: int = 20
    lam: float | None = None        # None: pick so lam*loss0 = lambda_ratio*phi0
    lambda_ratio: float = 0.1
    l2: float = 1e-3
    max_outer_iters: int = 50
    inner_theta_steps: int = 25
    inner_embedding_steps: int = 25
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.dims < 1 or self.max_outer_iters < 1:
            raise ValueError("dims and max_outer_iters must be positive")
        if self.inner_theta_steps < 0 or self.inner_embedding_steps < 0:
            raise ValueError("inner step counts must be non-negative")
        # a NaN fails every comparison, so it fails this range check too
        if not all(0 <= v < np.inf for v in (self.lambda_ratio, self.l2, self.tol,
                                              0.0 if self.lam is None else self.lam)):
            raise ValueError("lambda, lambda_ratio, l2 and tol must be finite and non-negative")


@dataclass
class SleModel:
    params: LearnerParams
    embedding: np.ndarray           # m x dims, rows in the similarity order
    objective_trace: list[float]
    lam: float
    degenerate: bool = False
    max_constraint_violation: float = 0.0


def joint_objective(xe: np.ndarray, params: LearnerParams, lap: Laplacian,
                    data: LabeledFeatures, lam: float) -> float:
    """phi(Xe, S) + lambda * classifier loss, with Xe written into the data."""
    val = objective_phi(xe, lap) + lam * loss(params, data.with_embedding(xe))
    if not np.isfinite(val):
        raise NonFiniteValue("joint objective is not finite")
    return val


def resolve_lambda(config: SleConfig, phi0: float, loss0: float) -> float:
    if config.lam is not None:
        return config.lam
    if loss0 <= 1e-12:
        return 0.0
    return config.lambda_ratio * phi0 / loss0


def fit_sle(numeric: np.ndarray, similarity, y, config: SleConfig,
            lap: Laplacian | None = None, xe0: np.ndarray | None = None,
            feature_scale: float = 1.0, start: LearnerParams | None = None) -> SleModel:
    """Alternating optimization from the unsupervised eigenmap and the
    classifier trained on it from zero weights.

    ``lap``/``xe0`` may be supplied when the caller already solved the
    unsupervised problem (the evaluation harness shares them between the
    supervised and unsupervised runs); they must match ``similarity``, which
    is read only to build a missing ``lap`` and may be None when it is given.
    ``start`` may likewise be the classifier that ``train`` fits from zero
    weights on ``[numeric, xe0 * feature_scale]`` (the harness's le
    classifier), which is then not fitted again.
    ``feature_scale`` multiplies the embedding columns as the classifier sees
    them (the D-orthonormal eigenvectors are orders of magnitude smaller than
    typical numeric features); the trace objective and the constraint always
    operate on the raw embedding.

    One design matrix serves the whole fit, and ``descend_theta`` reads
    it: the embedding each descent accepts is written into its embedding
    columns in place.  The descent reads the loss as a ``LinearTerm`` of
    the embedding, whose logits are the numeric part numeric @ w + b,
    computed once per descent, plus X @ (feature_scale * w_e).
    """
    numeric = np.asarray(numeric, dtype=float)
    if lap is None:
        lap = build_laplacian(similarity)
    if xe0 is None:
        xe0 = solve_eigenmap(lap, config.dims)
    m, n_numeric = numeric.shape
    if xe0.shape != (m, config.dims):
        raise ValueError(f"initial embedding must be {(m, config.dims)}")

    data = LabeledFeatures(np.hstack([numeric, xe0 * feature_scale]), y,
                           slice(n_numeric, n_numeric + config.dims))
    params = start if start is not None else train(data, config.l2)
    columns = data.embedding    # a view: writing it writes the design matrix

    def loss_term(params: LearnerParams) -> LinearTerm:
        """lam * loss as a term of the embedding, at fixed parameters."""
        base = numeric @ params.weights[:n_numeric] + params.bias
        return LinearTerm(feature_scale * params.weights[data.embedding_cols],
                          lambda p: lam * loss_at(base + p, params, data),
                          lambda p: lam * logit_gradient(base + p, data))

    state = DescentState.at(lap, xe0.copy())
    cur_loss = loss(params, data)
    lam = resolve_lambda(config, state.phi, cur_loss)
    trace = [state.phi + lam * cur_loss]
    degenerate = False
    for _ in range(config.max_outer_iters):
        params, cur_loss = descend_theta(params, data, config.inner_theta_steps)
        state = replace(state, value=state.phi + lam * cur_loss)
        state, collapse = projected_descent(lap, state, config.inner_embedding_steps,
                                            loss_term(params))
        np.multiply(state.x, feature_scale, out=columns)   # the accepted embedding
        trace.append(state.value)
        if collapse is not None:
            warnings.warn(f"embedding {collapse} under the D metric; lambda is too large",
                          DegenerateLambda)
            degenerate = True
            break
        prev = trace[-2]
        if prev - state.value <= config.tol * max(1.0, abs(prev)):
            break

    return SleModel(
        params=params,
        embedding=state.x,
        objective_trace=trace,
        lam=lam,
        degenerate=degenerate,
        max_constraint_violation=state.max_violation,
    )
