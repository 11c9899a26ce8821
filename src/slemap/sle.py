"""Joint optimization of the text embedding and the base classifier.

The objective is phi(Xe, S) + lambda * loss(classifier(X, Y, theta)) where the
embedding columns Xe sit inside the full design matrix X.  It is minimized by
alternating gradient descent: descend the classifier loss in theta with Xe
fixed, then descend the joint objective in Xe with theta fixed, keeping
Xe^T D Xe = I by projection.  The Xe half is the projected-descent step of
the unsupervised eigenmap descent (``laplacian.projected_descent``) with
lambda * loss as its extra objective term.  The embedding starts at the
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
    build_laplacian,
    objective_phi,
    projected_descent,
    solve_eigenmap,
)
from .logistic import LabeledFeatures, LearnerParams, descend_theta, grad_embedding, loss, train


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
        if self.lam is not None and self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.tol < 0 or self.l2 < 0:
            raise ValueError("tol and l2 must be non-negative")


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
            feature_scale: float = 1.0) -> SleModel:
    """Alternating optimization from the unsupervised eigenmap and the
    classifier trained on it from zero weights.

    ``lap``/``xe0`` may be supplied when the caller already solved the
    unsupervised problem (the evaluation harness shares them between the
    supervised and unsupervised runs); they must match ``similarity``, which
    is read only to build a missing ``lap`` and may be None when it is given.
    ``feature_scale`` multiplies the embedding columns as the classifier sees
    them (the D-orthonormal eigenvectors are orders of magnitude smaller than
    typical numeric features); the trace objective and the constraint always
    operate on the raw embedding.
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
    params = train(data, config.l2)

    def seen(x):
        """The design matrix with embedding X, as the classifier sees it."""
        return data.with_embedding(x * feature_scale)

    state = DescentState.at(lap, xe0.copy())
    cur_loss = loss(params, data)
    lam = resolve_lambda(config, state.phi, cur_loss)
    trace = [state.phi + lam * cur_loss]
    degenerate = False
    for _ in range(config.max_outer_iters):
        params = descend_theta(params, data, config.inner_theta_steps)
        state = replace(state, value=state.phi + lam * loss(params, data))
        state, collapse = projected_descent(lap, state, config.inner_embedding_steps, extra=(
            lambda x: lam * loss(params, seen(x)),
            lambda x: lam * feature_scale * grad_embedding(params, seen(x))))
        data = seen(state.x)
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
