"""Graph Laplacian, trace objective, and the low-dimensional eigenmap.

The embedding X minimizes tr(X^T L X) subject to X^T D X = I, where
L = D - S is the Laplacian of the similarity graph.  The constrained minimum
is the matrix of eigenvectors for the smallest eigenvalues of the generalized
problem L x = lambda D x, after discarding the trivial constant eigenvector.
An embedding is a plain m x dims array, one row per document in the order of
the similarity matrix: ``solve_eigenmap`` and ``descend_eigenmap`` return
one, and the objective and its gradient take one.

Short texts repeat, so many rows of S are bitwise equal.  Groups of equal
rows partition the graph equitably, so a ``Laplacian`` is its u x u block
over one row per group, and L X is computed over the groups at u^2 * dims
cost rather than m^2 * dims.  ``build_laplacian`` reads S in the form a
``SimilarityMatrix`` keeps it, a block over distinct documents and each
record's key into it, and finds the groups among the keys; S itself, m x m,
is never made.  The generalized problem splits exactly into a
quotient problem with one row per group and, for every row beyond a
group's first, an eigenvector that lives inside its group with eigenvalue
exactly 1.  ``solve_eigenmap`` solves the quotient and expands its vectors
to rows; it expands the block to every row and solves there only when the
frame would reach that eigenvalue-1 block or no row repeats.

One projected-descent step on the constraint manifold serves two callers:
the unsupervised eigenmap descent (an alternative route to the same optimum)
and the SLE alternation, which adds the weighted classifier loss as an extra
objective term.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NonSymmetricInput, RankDeficient
from .similarity import SimilarityMatrix

SYMMETRY_TOL = 1e-12
DEGREE_EPSILON = 1e-8
DEGENERATE_GAP = 1e-12
COLLAPSE_TOL = 1e-6        # a frame column under this D-norm has collapsed
# Bytes of expanded rows that one step of the row sums gathers
_GATHER_BYTES = 1 << 20


@dataclass(frozen=True)
class Laplacian:
    """L = D - S with D the diagonal degree matrix of S, held over groups of equal rows.

    ``groups`` gives each row's group of bitwise-equal rows of S, numbered in
    order of their first row, and ``firsts`` the first row of each group.
    Rows are grouped only when S is exactly symmetric and only among rows of
    positive degree; every other row is a group of its own.  ``order`` lists
    the rows sorted by group and ``starts`` where each group begins in it.

    Equal rows of a symmetric S have equal columns, so L is kept as its
    u x u ``block`` over ``firsts`` (raw degree minus s on the diagonal, -s
    elsewhere) and ``self_similarity``, each group's similarity to itself,
    which every entry of S inside the group equals.  No m x m matrix is
    read or kept: :func:`build_laplacian` works over the keys of S,
    :meth:`dot` computes L X over the groups and :meth:`dense` expands the
    block to every row.

    ``raw_degrees`` are the row sums of S, from which L is built, so its rows
    sum to zero exactly.  ``degrees`` carries the regularized diagonal of D:
    zero-degree rows (isolated sentinel documents) get DEGREE_EPSILON so the
    generalized eigenproblem stays well-posed.
    """

    block: np.ndarray
    self_similarity: np.ndarray
    raw_degrees: np.ndarray
    degrees: np.ndarray
    groups: np.ndarray
    firsts: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @property
    def m(self) -> int:
        return self.groups.shape[0]

    def dot(self, x: np.ndarray) -> np.ndarray:
        """L X as (L_u G^T X)[groups] + r * (X - (G^T X)[groups]).

        G is the row-to-group indicator, so G^T X sums each group's rows and
        S X = (S_u G^T X)[groups].  The first term's degree part is
        r * (G^T X)[groups] where L X has r * X, and the second term puts
        that right.  With every row its own group, L_u is L, G^T X is X and
        the correction adds zeros, so the product keeps the plain one's
        values (a -0.0 entry can turn into +0.0).  The correction is made
        in one array, in place.
        """
        gx = np.add.reduceat(x[self.order], self.starts, axis=0)
        lx = (self.block @ gx)[self.groups]
        correction = gx[self.groups]
        np.subtract(x, correction, out=correction)
        correction *= self.raw_degrees[:, None]
        lx += correction
        return lx

    def dense(self) -> np.ndarray:
        """L over every row, bitwise diag(raw_degrees) - S."""
        within = self.block.copy()
        np.fill_diagonal(within, 0.0 - self.self_similarity)
        full = within[np.ix_(self.groups, self.groups)]
        np.fill_diagonal(full, self.raw_degrees - self.self_similarity[self.groups])
        return full


def _key_form(similarity: SimilarityMatrix | np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The similarity block over keys, each record's key, and each record's
    similarity to itself.  An ndarray is the form where every row is its own
    key."""
    if isinstance(similarity, SimilarityMatrix):
        return similarity.block, similarity.keys, np.ones(similarity.m)
    s = np.asarray(similarity, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"similarity matrix must be square, got {s.shape}")
    return s, np.arange(s.shape[0]), s.diagonal()


def _row_sums(block: np.ndarray, keys: np.ndarray, own: np.ndarray,
              records: np.ndarray, lone: np.ndarray) -> np.ndarray:
    """Sums of the given records' rows of the m x m matrix.

    Record i's row is ``block[keys[i], keys]``, and a ``lone`` record's
    entry i is its ``own`` similarity instead.  Each step gathers whole rows
    into a C-ordered array, so every sum runs over one contiguous row, as
    the row sums of the m x m matrix do.
    """
    sums = np.empty(records.shape[0])
    per = max(1, _GATHER_BYTES // (8 * max(1, keys.shape[0])))
    for i in range(0, records.shape[0], per):
        at = records[i:i + per]
        rows = np.take(block[keys[at]], keys, axis=1)
        patch = np.flatnonzero(lone[at])
        rows[patch, at[patch]] = own[at[patch]]
        sums[i:i + per] = rows.sum(axis=1)
    return sums


def _row_classes(block: np.ndarray) -> np.ndarray:
    """A class below u for each row of a C-ordered u x u block, equal
    exactly when two rows are bitwise equal.

    The rows are sorted as opaque items of bytes, which copies none of
    them, and each sorted row is compared with the one before it as
    unsigned words, a chunk of rows at a time, so no copy of the whole
    block is made.
    """
    u = block.shape[0]
    order = np.argsort(block.view(np.dtype((np.void, block.itemsize * u)))[:, 0],
                       kind="stable")
    words = block.view(np.dtype(f"u{block.itemsize}"))
    same = np.zeros(u, dtype=bool)     # sorted row equals the one before it
    per = max(2, _GATHER_BYTES // (block.itemsize * u))
    for i in range(0, u - 1, per - 1):
        rows = words[order[i:i + per]]
        same[i + 1:i + rows.shape[0]] = (rows[1:] == rows[:-1]).all(axis=1)
    classes = np.empty(u, dtype=np.intp)
    classes[order] = np.cumsum(~same) - 1
    return classes


def build_laplacian(similarity: SimilarityMatrix | np.ndarray) -> Laplacian:
    """The Laplacian of a similarity matrix, built over its distinct keys.

    A record's row of S is its key's row of the block, unless the record
    scores itself otherwise than the key's records score each other (a
    blank record of a ``SimilarityMatrix``): such a ``lone`` record has a
    row, a row sum and a group of its own.  Every other key's row is summed
    once, and two keys share a group when their rows of the block are
    bitwise equal, which is when their records' rows of S are.
    """
    block, keys, own = _key_form(similarity)
    m, u = keys.shape[0], block.shape[0]
    if not np.isfinite(block).all():
        raise NonFiniteValue("similarity matrix has a NaN or infinite entry")
    exact = np.array_equal(block, block.T)
    if not exact and np.max(np.abs(block - block.T)) > SYMMETRY_TOL:
        raise NonSymmetricInput("similarity matrix is not symmetric")
    lone = block.diagonal()[keys] != own
    alone = u + np.arange(m)    # a label no other record has
    # one record per distinct row of S: a key's first record, or a lone one
    _, summed, rows_of = np.unique(np.where(lone, alone, keys), return_index=True,
                                   return_inverse=True)
    raw_degrees = _row_sums(block, keys, own, summed, lone)[rows_of]
    degrees = np.where(raw_degrees > 0.0, raw_degrees, DEGREE_EPSILON)
    # equal rows of an inexactly symmetric S need not have equal columns
    label = alone
    if exact and m:
        classes = _row_classes(np.ascontiguousarray(block))
        label = np.where(~lone & (raw_degrees > 0.0), classes[keys], alone)
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    # groups numbered in order of their first row
    number = np.empty_like(first)
    number[np.argsort(first)] = np.arange(first.shape[0])
    groups, firsts = number[inverse], np.sort(first)
    lblock = np.take(block[keys[firsts]], keys[firsts], axis=1)
    np.fill_diagonal(lblock, own[firsts])
    self_similarity = lblock.diagonal().copy()
    # 0 - s, not -s: the entries of diag(r) - S off its diagonal, zeros included
    np.subtract(0.0, lblock, out=lblock)
    np.fill_diagonal(lblock, raw_degrees[firsts] - self_similarity)
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups)
    return Laplacian(block=lblock, self_similarity=self_similarity, raw_degrees=raw_degrees,
                     degrees=degrees, groups=groups, firsts=firsts, order=order,
                     starts=np.cumsum(counts) - counts)


def _phi_and_product(x: np.ndarray, lap: Laplacian) -> tuple[float, np.ndarray]:
    """tr(X^T L X) and the product L X it is computed from."""
    if x.ndim != 2 or x.shape[0] != lap.m:
        raise DimensionMismatch(f"embedding rows {x.shape} vs laplacian size {lap.m}")
    lx = lap.dot(x)
    val = float(np.einsum("ij,ij->", x, lx))
    if not np.isfinite(val):
        raise NonFiniteValue("objective is not finite")
    return val, lx


def objective_phi(x: np.ndarray, lap: Laplacian) -> float:
    """tr(X^T L X): the similarity-weighted spread of the embedding."""
    return _phi_and_product(x, lap)[0]


def phi_gradient(x: np.ndarray, lap: Laplacian) -> np.ndarray:
    """d tr(X^T L X) / dX = 2 L X."""
    if x.ndim != 2 or x.shape[0] != lap.m:
        raise DimensionMismatch(f"embedding rows {x.shape} vs laplacian size {lap.m}")
    return 2.0 * lap.dot(x)


def d_orthonormalize(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Closest basis of span(X) with X^T D X = I (symmetric Loewdin factor).

    ``dx`` is D X, the rows of X times the degrees."""
    c = x.T @ dx
    s, v = np.linalg.eigh((c + c.T) / 2.0)
    if s[0] <= 0.0 or s[0] <= 1e-14 * s[-1]:
        raise RankDeficient("embedding columns are dependent under the D metric")
    inv_sqrt = (v * (1.0 / np.sqrt(s))) @ v.T
    return x @ inv_sqrt


def _deflate_constant(x: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Remove the D-metric component along the all-ones direction."""
    comp = degrees @ x / degrees.sum()
    return x - comp[None, :]


def _add_transpose(a: np.ndarray) -> None:
    """A + A^T into the square A, a strip of rows at a time.

    Strip i holds rows and columns from its first row on, which earlier
    strips left as they were; a_ij + a_ji is written to both (i, j) and
    (j, i), and is bitwise a_ji + a_ij, so A is bitwise ``A + A.T``.
    """
    n = a.shape[0]
    per = max(1, _GATHER_BYTES // (a.itemsize * max(1, n)))
    for i in range(0, n, per):
        j = min(i + per, n)
        strip = a[i:j, i:] + a[i:, i:j].T
        a[i:j, i:] = strip
        a[i:, i:j] = strip.T


def _grouped_eigh(lap: Laplacian, grouped: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the quotient problem over the groups, constant direction shifted last.

    With c the group sizes, the quotient pencil is (Q, diag(d/c)) where Q
    holds the mean of L over each block of two groups: -S between groups, and
    r/c - s_gg on the diagonal.  Its symmetric reduction is solved densely
    after a rank-one shift pushes the constant direction, proportional to
    sqrt(c*d), above the spectrum.  Returns the eigenvalues, the eigenvectors
    and sqrt(c*d), which maps an eigenvector to the group values of a
    D-orthonormal frame.  Not ``grouped``, every row is its own group and
    the operations are those of a plain solve of D^(-1/2) L D^(-1/2) over
    ``lap.dense()``.
    """
    # in place where the arithmetic allows, so that the solve's input is the
    # only full-size array of ours alive while eigh allocates its own
    if grouped:
        counts = np.diff(lap.starts, append=lap.m).astype(float)
        degrees = lap.degrees[lap.firsts]
        reduced = lap.block.copy()
        multi = np.flatnonzero(counts > 1.0)
        c = counts[multi]
        # a diagonal block holds c entries r - s and c(c-1) entries -s
        reduced[multi, multi] = (lap.block[multi, multi]
                                 + (c - 1.0) * (0.0 - lap.self_similarity[multi])) / c
    else:
        counts = np.ones(lap.m)
        degrees = lap.degrees
        reduced = lap.dense()
    dsqrt = np.sqrt(degrees / counts)
    reduced /= dsqrt[:, None]
    reduced /= dsqrt[None, :]
    _add_transpose(reduced)
    reduced /= 2.0
    root = np.sqrt(counts * degrees)
    v0 = root / np.linalg.norm(root)
    shift = float(np.max(np.sum(np.abs(reduced), axis=1))) + 1.0
    bump = np.outer(v0, v0)
    bump *= shift
    reduced += bump
    del bump
    eigvals, eigvecs = np.linalg.eigh(reduced)
    return eigvals, eigvecs, root


def solve_eigenmap(lap: Laplacian, dims: int | Sequence[int]) -> np.ndarray:
    """Bottom non-trivial eigenvectors of L x = lambda D x, D-orthonormalized.

    The problem is solved over the Laplacian's groups of equal rows: the
    quotient's symmetric reduction is solved densely and each group's value
    is copied to its rows.  The rows beyond each group's first add
    eigenvectors inside their group with eigenvalue exactly 1, which the
    quotient does not see; when the frame would need one of them (``dims``
    past the quotient's non-trivial count, or its eigenvalue ``dims`` - 1 not
    below 1), or when no row repeats, the same solve runs with every row its
    own group, which is the plain dense solve of D^(-1/2) L D^(-1/2).  The
    constant direction (always a null vector) is pushed above the spectrum
    by a rank-one shift before the solve, so the lowest dims eigenvectors of
    the shifted matrix are exactly the non-trivial ones; this stays correct
    on disconnected graphs where several eigenvalues vanish.  The
    degenerate-gap rule reads the quotient's spectrum merged with the exact
    ones.  Column signs are fixed so each column's largest-magnitude entry
    is positive.

    ``dims`` may list several widths: one solve checks each of them and
    returns the frame of the widest.  Every column depends on the solve
    alone, so its leading w columns are bitwise the frame ``dims=w`` returns.
    """
    m = lap.m
    widths = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    for w in widths:
        if w < 1 or w > m - 1:
            raise RankDeficient(f"need 1 <= dims <= m-1, got dims={w}, m={m}")
    dims = max(widths)
    groups = lap.groups
    eigvals, eigvecs, root = _grouped_eigh(lap, grouped=True)
    u = eigvals.shape[0]
    if u < m and (dims > u - 1 or not eigvals[dims - 1] < 1.0):
        del eigvecs     # not alive beside the full solve's arrays
        groups = np.arange(m)
        eigvals, eigvecs, root = _grouped_eigh(lap, grouped=False)
        u = m
    # indices 0..u-2 are the quotient's non-trivial pairs; its shifted
    # constant sits last
    spectrum = np.sort(np.concatenate([eigvals[:u - 1], np.ones(m - u)]))
    for w in widths:
        if w <= m - 2 and spectrum[w] - spectrum[w - 1] < DEGENERATE_GAP:
            raise RankDeficient(
                f"dims={w} cuts a numerically degenerate eigenvalue cluster: non-trivial "
                f"eigenvalues {w} and {w + 1} are {spectrum[w - 1]:.3g} and {spectrum[w]:.3g}")
    x = (eigvecs[:, :dims] / root[:, None])[groups]
    for j in range(dims):
        i = int(np.argmax(np.abs(x[:, j])))
        if x[i, j] < 0.0:
            x[:, j] = -x[:, j]
    return x


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
            d_moved = degrees[:, None] * moved
            col_norms = np.sqrt(np.einsum("ij,ij->j", moved, d_moved))
            if np.any(col_norms < COLLAPSE_TOL):
                return state, "column collapsed"
            try:
                cand = d_orthonormalize(moved, d_moved)
            except RankDeficient:
                return state, "columns became dependent"
            del d_moved     # not alive beside the candidate's objective
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


def descend_eigenmap(lap: Laplacian, dims: int, init: np.ndarray, steps: int = 2000) -> np.ndarray:
    """Projected gradient descent on tr(X^T L X) over {X : X^T D X = I}.

    The init is made D-orthogonal to the constant direction and
    D-orthonormalized, so the attainable optimum matches
    :func:`solve_eigenmap`; then :func:`projected_descent` runs with no
    extra term.  A trial step that collapses the frame ends the descent at
    the last iterate.
    """
    if init.shape != (lap.m, dims):
        raise DimensionMismatch(f"init must be {(lap.m, dims)}, got {init.shape}")
    x = _deflate_constant(init, lap.degrees)
    x = d_orthonormalize(x, lap.degrees[:, None] * x)
    state, _ = projected_descent(lap, DescentState.at(lap, x), steps)
    return state.x
