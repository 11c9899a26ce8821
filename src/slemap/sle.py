"""Joint optimization of the text embedding and the base classifier.

The objective is phi(Xe, S) + lambda * loss(classifier(X, Y, theta)) where the
embedding columns Xe sit inside the full design matrix X.  It is minimized by
alternating gradient descent: descend the classifier loss in theta with Xe
fixed, then descend the joint objective in Xe with theta fixed, keeping
Xe^T D Xe = I by projection.  The embedding starts at the unsupervised
eigenmap and moves for a limited number of iterations with a deliberately
small lambda; a lambda large enough to collapse the embedding is surfaced as
a DegenerateLambda warning rather than silently producing a trivial solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLambda, NonFiniteValue, RankDeficient
from .laplacian import (
    Embedding,
    Laplacian,
    _descent_direction,
    build_laplacian,
    d_orthonormalize,
    objective_phi,
    solve_eigenmap,
)
from .logistic import LabeledFeatures, LearnerParams, descend_theta, grad_embedding, loss, train
from .similarity import SimilarityMatrix

COLLAPSE_TOL = 1e-6


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
    seed: int = 0

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
    embedding: Embedding
    similarity: SimilarityMatrix | None
    config: SleConfig
    objective_trace: list[float]
    lam: float
    n_numeric: int
    feature_scale: float = 1.0
    degenerate: bool = False
    max_constraint_violation: float = 0.0


def joint_objective(xe, params: LearnerParams, lap: Laplacian,
                    data: LabeledFeatures, lam: float) -> float:
    """phi(Xe, S) + lambda * classifier loss, with Xe written into the data."""
    xe_mat = xe.vectors if isinstance(xe, Embedding) else np.asarray(xe, dtype=float)
    val = objective_phi(xe_mat, lap) + lam * loss(params, data.with_embedding(xe_mat))
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
    """Alternating optimization from the unsupervised eigenmap.

    ``lap``/``xe0`` may be supplied when the caller already solved the
    unsupervised problem (the evaluation harness shares them between the
    supervised and unsupervised runs); they must match ``similarity``.
    ``feature_scale`` multiplies the embedding columns as the classifier sees
    them (the D-orthonormal eigenvectors are orders of magnitude smaller than
    typical numeric features); the trace objective and the constraint always
    operate on the raw embedding.
    """
    numeric = np.asarray(numeric, dtype=float)
    if lap is None:
        lap = build_laplacian(similarity)
    if xe0 is None:
        xe0 = solve_eigenmap(lap, config.dims).vectors
    m, n_numeric = numeric.shape
    if xe0.shape != (m, config.dims):
        raise ValueError(f"initial embedding must be {(m, config.dims)}")
    degrees = lap.degrees

    data = LabeledFeatures(np.hstack([numeric, xe0 * feature_scale]), y,
                           slice(n_numeric, n_numeric + config.dims))
    rng = np.random.default_rng(config.seed)
    params = train(data, config.l2, init=LearnerParams.random_init(
        n_numeric + config.dims, config.l2, rng))

    xe = xe0.copy()
    phi = objective_phi(xe, lap)
    cur_loss = loss(params, data)
    lam = resolve_lambda(config, phi, cur_loss)
    joint = phi + lam * cur_loss
    trace = [joint]
    degenerate = False
    max_violation = _constraint_violation(xe, degrees)

    lmat = lap.matrix
    # dimensionless multiplier on the D-normalized direction; adapted from
    # how far backtracking had to shrink the previous accepted step
    step_scale = 0.5
    for _ in range(config.max_outer_iters):
        params = descend_theta(params, data, config.inner_theta_steps)
        cur_loss = loss(params, data)
        joint = phi + lam * cur_loss

        for _ in range(config.inner_embedding_steps):
            grad = (2.0 * (lmat @ xe)
                    + lam * feature_scale * grad_embedding(params, data))
            z = _descent_direction(xe, grad, degrees)
            znorm_d = float(np.sqrt(np.einsum("ij,ij->", z, degrees[:, None] * z)))
            if znorm_d <= 1e-15 * max(1.0, float(np.abs(xe).max())):
                break
            trial = step_scale * np.sqrt(config.dims) / znorm_d
            halvings = 0
            accepted = False
            for _ in range(60):
                moved = xe - trial * z
                col_norms = np.sqrt(np.einsum("ij,ij->j", moved, degrees[:, None] * moved))
                if np.any(col_norms < COLLAPSE_TOL):
                    warnings.warn(
                        "embedding column collapsed under the D metric; "
                        "lambda is too large", DegenerateLambda)
                    degenerate = True
                    break
                try:
                    cand = d_orthonormalize(moved, degrees)
                except RankDeficient:
                    # dependent columns are the same collapse failure
                    warnings.warn(
                        "embedding columns became dependent under the D metric; "
                        "lambda is too large", DegenerateLambda)
                    degenerate = True
                    break
                cand_phi = objective_phi(cand, lap)
                cand_loss = loss(params, data.with_embedding(cand * feature_scale))
                cand_joint = cand_phi + lam * cand_loss
                if not np.isfinite(cand_joint):
                    raise NonFiniteValue("joint objective became non-finite")
                if cand_joint <= joint:
                    accepted = True
                    break
                trial *= 0.5
                halvings += 1
            if degenerate or not accepted:
                break
            step_scale = min(max(step_scale * 2.0 ** (1 - halvings), 1e-9), 8.0)
            xe = cand
            data = data.with_embedding(xe * feature_scale)
            phi, cur_loss, joint = cand_phi, cand_loss, cand_joint
            max_violation = max(max_violation, _constraint_violation(xe, degrees))
        trace.append(joint)
        if degenerate:
            break
        prev = trace[-2]
        if prev - joint <= config.tol * max(1.0, abs(prev)):
            break

    ids = lap.ids
    return SleModel(
        params=params,
        embedding=Embedding(vectors=xe, ids=ids),
        feature_scale=feature_scale,
        similarity=similarity if isinstance(similarity, SimilarityMatrix) else None,
        config=config,
        objective_trace=trace,
        lam=lam,
        n_numeric=n_numeric,
        degenerate=degenerate,
        max_constraint_violation=max_violation,
    )


def _constraint_violation(xe: np.ndarray, degrees: np.ndarray) -> float:
    gram = xe.T @ (degrees[:, None] * xe)
    return float(np.linalg.norm(gram - np.eye(xe.shape[1])))
