"""Graph Laplacian, trace objective, and the low-dimensional eigenmap.

The embedding X minimizes tr(X^T L X) subject to X^T D X = I, where
L = D - S is the Laplacian of the similarity graph.  The constrained minimum
is the matrix of eigenvectors for the smallest eigenvalues of the generalized
problem L x = lambda D x, after discarding the trivial constant eigenvector.

One projected-descent step on the constraint manifold serves two callers:
the unsupervised eigenmap descent (an alternative route to the same optimum)
and the SLE alternation, which adds the weighted classifier loss as an extra
objective term.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NonSymmetricInput, RankDeficient
from .similarity import SimilarityMatrix

SYMMETRY_TOL = 1e-12
DEGREE_EPSILON = 1e-8
DEGENERATE_GAP = 1e-12
COLLAPSE_TOL = 1e-6        # a frame column under this D-norm has collapsed


@dataclass(frozen=True)
class Laplacian:
    """L = D - S with D the diagonal degree matrix of S.

    ``degrees`` carries the regularized diagonal of D: zero-degree rows
    (isolated sentinel documents) get DEGREE_EPSILON so the generalized
    eigenproblem stays well-posed; ``matrix`` is built from the raw degrees,
    so its rows sum to zero exactly.
    """

    matrix: np.ndarray
    degrees: np.ndarray
    ids: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Embedding:
    """Row-per-document coordinates in the reduced space."""

    vectors: np.ndarray
    ids: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]


def build_laplacian(similarity: SimilarityMatrix | np.ndarray) -> Laplacian:
    if isinstance(similarity, SimilarityMatrix):
        s = similarity.values
        ids = similarity.ids
    else:
        s = np.asarray(similarity, dtype=float)
        ids = None
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"similarity matrix must be square, got {s.shape}")
    if np.max(np.abs(s - s.T)) > SYMMETRY_TOL:
        raise NonSymmetricInput("similarity matrix is not symmetric")
    raw_degrees = s.sum(axis=1)
    lap = np.diag(raw_degrees) - s
    degrees = np.where(raw_degrees > 0.0, raw_degrees, DEGREE_EPSILON)
    return Laplacian(matrix=lap, degrees=degrees, ids=ids)


def _as_matrix(x) -> np.ndarray:
    return x.vectors if isinstance(x, Embedding) else np.asarray(x, dtype=float)


def _phi_and_product(x, lap: Laplacian) -> tuple[float, np.ndarray]:
    """tr(X^T L X) and the product L X it is computed from."""
    xv = _as_matrix(x)
    if xv.ndim != 2 or xv.shape[0] != lap.m:
        raise DimensionMismatch(f"embedding rows {xv.shape} vs laplacian size {lap.m}")
    lx = lap.matrix @ xv
    val = float(np.einsum("ij,ij->", xv, lx))
    if not np.isfinite(val):
        raise NonFiniteValue("objective is not finite")
    return val, lx


def objective_phi(x, lap: Laplacian) -> float:
    """tr(X^T L X): the similarity-weighted spread of the embedding."""
    return _phi_and_product(x, lap)[0]


def phi_gradient(x, lap: Laplacian) -> np.ndarray:
    """d tr(X^T L X) / dX = 2 L X."""
    xv = _as_matrix(x)
    if xv.ndim != 2 or xv.shape[0] != lap.m:
        raise DimensionMismatch(f"embedding rows {xv.shape} vs laplacian size {lap.m}")
    return 2.0 * (lap.matrix @ xv)


def d_orthonormalize(x: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Closest basis of span(X) with X^T D X = I (symmetric Loewdin factor)."""
    c = x.T @ (degrees[:, None] * x)
    s, v = np.linalg.eigh((c + c.T) / 2.0)
    if s[0] <= 0.0 or s[0] <= 1e-14 * s[-1]:
        raise RankDeficient("embedding columns are dependent under the D metric")
    inv_sqrt = (v * (1.0 / np.sqrt(s))) @ v.T
    return x @ inv_sqrt


def _deflate_constant(x: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Remove the D-metric component along the all-ones direction."""
    comp = degrees @ x / degrees.sum()
    return x - comp[None, :]


def solve_eigenmap(lap: Laplacian, dims: int) -> Embedding:
    """Bottom non-trivial eigenvectors of L x = lambda D x, D-orthonormalized.

    The symmetric reduction M = D^(-1/2) L D^(-1/2) is solved densely.  The
    constant direction (always a null vector of M) is pushed above the
    spectrum by a rank-one shift before the solve, so the lowest dims
    eigenvectors of the shifted matrix are exactly the non-trivial ones; this
    stays correct on disconnected graphs where several eigenvalues vanish.
    Column signs are fixed so each column's largest-magnitude entry is
    positive.
    """
    m = lap.m
    if dims < 1 or dims > m - 1:
        raise RankDeficient(f"need 1 <= dims <= m-1, got dims={dims}, m={m}")
    dsqrt = np.sqrt(lap.degrees)
    reduced = lap.matrix / dsqrt[:, None] / dsqrt[None, :]
    reduced = (reduced + reduced.T) / 2.0
    v0 = dsqrt / np.linalg.norm(dsqrt)
    shift = float(np.max(np.sum(np.abs(reduced), axis=1))) + 1.0
    eigvals, eigvecs = np.linalg.eigh(reduced + shift * np.outer(v0, v0))
    # indices 0..m-2 are the non-trivial pairs; the shifted constant sits last
    if dims <= m - 2 and eigvals[dims] - eigvals[dims - 1] < DEGENERATE_GAP:
        raise RankDeficient(
            "requested dimension cuts a numerically degenerate eigenvalue cluster")
    x = eigvecs[:, :dims] / dsqrt[:, None]
    for j in range(dims):
        i = int(np.argmax(np.abs(x[:, j])))
        if x[i, j] < 0.0:
            x[:, j] = -x[:, j]
    return Embedding(vectors=x, ids=lap.ids)


def _descent_direction(x: np.ndarray, grad: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Gradient projected onto the constraint manifold's tangent space.

    Uses the D-metric gradient D^(-1) G and the D-metric tangent projection,
    which vanishes exactly at eigenvector frames: a converged embedding is a
    true fixed point of the iteration.
    """
    w = grad / degrees[:, None]
    a = x.T @ grad
    z = w - x @ ((a + a.T) / 2.0)
    return _deflate_constant(z, degrees)


def _constraint_violation(x: np.ndarray, degrees: np.ndarray) -> float:
    gram = x.T @ (degrees[:, None] * x)
    return float(np.linalg.norm(gram - np.eye(x.shape[1])))


@dataclass(frozen=True)
class DescentState:
    """An iterate of :func:`projected_descent` and what its next step reuses.

    ``value`` is phi plus the caller's extra term at ``x``.  ``step_scale``
    is the dimensionless multiplier on the D-normalized direction, adapted
    from how far backtracking had to shrink the last accepted step.
    """

    x: np.ndarray
    lx: np.ndarray              # L X, which the next gradient reuses
    phi: float
    value: float
    step_scale: float = 0.5
    max_violation: float = 0.0  # largest ||X^T D X - I|| over the iterates

    @classmethod
    def at(cls, lap: Laplacian, x: np.ndarray) -> "DescentState":
        phi, lx = _phi_and_product(x, lap)
        return cls(x, lx, phi, phi, max_violation=_constraint_violation(x, lap.degrees))


def projected_descent(
        lap: Laplacian, state: DescentState, steps: int,
        extra: tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]] | None = None,
) -> tuple[DescentState, str | None]:
    """Up to ``steps`` projected gradient steps on phi(X) + extra(X) over X^T D X = I.

    ``extra`` is an optional added objective term, given as the pair
    (value at a candidate X, gradient at X).  Each step moves against the
    projected gradient by ``step_scale * sqrt(dims)`` in D-norm, re-imposes
    the constraint by D-weighted orthonormalization, and halves the step
    until the value does not increase.  The descent stops early when the
    direction vanishes or 60 halvings find no descent.  Returns the last
    state and, when a trial step collapsed the frame (a column under
    COLLAPSE_TOL in D-norm, or dependent columns), what collapsed.
    """
    degrees = lap.degrees
    extra_value, extra_grad = extra if extra is not None else (None, None)
    for _ in range(steps):
        x = state.x
        grad = 2.0 * state.lx
        if extra_grad is not None:
            grad = grad + extra_grad(x)
        z = _descent_direction(x, grad, degrees)
        znorm_d = float(np.sqrt(np.einsum("ij,ij->", z, degrees[:, None] * z)))
        if znorm_d <= 1e-15 * max(1.0, float(np.abs(x).max())):
            break
        trial = state.step_scale * np.sqrt(x.shape[1]) / znorm_d
        for halvings in range(60):
            moved = x - trial * z
            col_norms = np.sqrt(np.einsum("ij,ij->j", moved, degrees[:, None] * moved))
            if np.any(col_norms < COLLAPSE_TOL):
                return state, "column collapsed"
            try:
                cand = d_orthonormalize(moved, degrees)
            except RankDeficient:
                return state, "columns became dependent"
            phi, lx = _phi_and_product(cand, lap)
            value = phi if extra_value is None else phi + extra_value(cand)
            if not np.isfinite(value):
                raise NonFiniteValue("objective became non-finite during descent")
            if value <= state.value:
                break
            trial *= 0.5
        else:
            break
        state = DescentState(
            cand, lx, phi, value,
            min(max(state.step_scale * 2.0 ** (1 - halvings), 1e-9), 8.0),
            max(state.max_violation, _constraint_violation(cand, degrees)))
    return state, None


def descend_eigenmap(lap: Laplacian, dims: int, init, steps: int = 2000) -> Embedding:
    """Projected gradient descent on tr(X^T L X) over {X : X^T D X = I}.

    The init is made D-orthogonal to the constant direction and
    D-orthonormalized, so the attainable optimum matches
    :func:`solve_eigenmap`; then :func:`projected_descent` runs with no
    extra term.  A trial step that collapses the frame ends the descent at
    the last iterate.
    """
    x = _as_matrix(init)
    if x.shape != (lap.m, dims):
        raise DimensionMismatch(f"init must be {(lap.m, dims)}, got {x.shape}")
    x = d_orthonormalize(_deflate_constant(x, lap.degrees), lap.degrees)
    state, _ = projected_descent(lap, DescentState.at(lap, x), steps)
    return Embedding(vectors=state.x, ids=lap.ids)
