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
frame would reach that eigenvalue-1 block or no row repeats.  Either solve
computes every eigenvalue but only the eigenvectors the frame uses, through
the LAPACK routines of the OpenBLAS that ``numpy.linalg`` already loaded
(tridiagonal reduction, eigenvalues without vectors, inverse iteration,
back-transformation in fixed blocks of vectors), and falls back to
``np.linalg.eigh`` where that library lacks them.  A frame's leading columns
are bitwise the same whatever width is asked for.

One projected-descent step on the constraint manifold serves two callers:
the unsupervised eigenmap descent (an alternative route to the same optimum)
and the SLE alternation, which adds the weighted classifier loss as an extra
objective term that reads the embedding through one combination of its
columns (``LinearTerm``).  The step's line search is a retraction line
search with the polar (Loewdin) retraction that ``d_orthonormalize`` uses
(Absil, Mahony and Sepulchre, *Optimization Algorithms on Matrix
Manifolds*, 2008): the trial's D-Gram matrix and its tr(X^T L X) are
quadratics in the step with dims x dims coefficients, so a step makes one
product with L however many trials it takes, and only the accepted trial is
made as an m x dims array.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NonSymmetricInput, RankDeficient
from .similarity import SimilarityMatrix

SYMMETRY_TOL = 1e-12
DEGREE_EPSILON = 1e-8
DEGENERATE_GAP = 1e-12
COLLAPSE_TOL = 1e-6        # a frame column under this D-norm has collapsed
# Bytes of expanded rows that one step of the row sums gathers
_GATHER_BYTES = 1 << 20
_COLUMN_MAJOR = 102        # LAPACKE's layout flag for Fortran-ordered arrays
_BACK_BLOCK = 8            # eigenvectors back-transformed by one LAPACK call


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


def _inverse_sqrt(gram: np.ndarray) -> np.ndarray:
    """G^(-1/2) of the D-Gram matrix G = X^T D X, symmetrized first.

    Raises RankDeficient when X's columns are dependent under the D metric:
    G's smallest eigenvalue is not positive, or under 1e-14 of its largest."""
    s, v = np.linalg.eigh((gram + gram.T) / 2.0)
    if s[0] <= 0.0 or s[0] <= 1e-14 * s[-1]:
        raise RankDeficient("embedding columns are dependent under the D metric")
    return (v * (1.0 / np.sqrt(s))) @ v.T


def d_orthonormalize(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Closest basis of span(X) with X^T D X = I (symmetric Loewdin factor).

    ``dx`` is D X, the rows of X times the degrees."""
    return x @ _inverse_sqrt(x.T @ dx)


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


class _Lapack(NamedTuple):
    """The LAPACKE routines of a partial symmetric eigensolve."""

    dsytrd: Callable[..., int]
    dsterf: Callable[..., int]
    dstein: Callable[..., int]
    dormtr: Callable[..., int]


@functools.cache
def _lapack() -> _Lapack | None:
    """The LAPACKE routines of the OpenBLAS that ``numpy.linalg`` loaded, or None.

    numpy 2.x wheels link scipy-openblas built with 64-bit integers, whose
    C entry points are named ``scipy_LAPACKE_<routine>_work64_``.  Only
    those names are bound, since nothing tells the integer width of any
    other; without them (another BLAS, or no shared library) the solve is
    ``np.linalg.eigh``'s.  The ``_work`` forms take their workspace from
    the caller, so a call allocates nothing and scans no input for NaN.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        found = [getattr(lib, f"scipy_LAPACKE_{name}_work64_") for name in _Lapack._fields]
    except (AttributeError, OSError, TypeError):
        return None
    flag, char, size = ctypes.c_int, ctypes.c_char, ctypes.c_int64
    real = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    index = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    argtypes = (
        [flag, char, size, real, size, real, real, real, real, size],
        [size, real, real],
        [flag, size, real, real, size, real, index, index, real, size, real, index, index],
        [flag, char, char, char, size, size, real, size, real, real, size, real, size],
    )
    for routine, types in zip(found, argtypes):
        routine.argtypes, routine.restype = types, size
    return _Lapack(*found)


def _succeeded(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned INFO={info}")


def _workspace(routine: Callable[..., int], name: str, *args) -> np.ndarray:
    """The workspace that a ``_work`` routine asks for, given the arguments
    before its workspace."""
    query = np.empty(1)
    _succeeded(routine(*args, query, -1), name)
    return np.empty(max(1, int(query[0])))


def _partial_eigh(a: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the symmetric C-ordered ``a``, ascending, and the
    eigenvectors of the lowest ``count`` as columns; ``a`` is overwritten.

    ``a`` is reduced in place to a tridiagonal T = Q^T A Q (xSYTRD), T's
    eigenvalues are computed without vectors (xSTERF), inverse iteration on
    T gives the lowest vectors (xSTEIN), and Q is applied to them (xORMTR)
    (Anderson et al., *LAPACK Users' Guide*, 3rd ed., 1999); the u x u
    matrix of every eigenvector is never made.  The leading columns are
    bitwise the same whatever ``count`` is: inverse iteration computes the
    vectors in order, each from the eigenvalues and the vectors before it,
    and Q is applied to fixed blocks of ``_BACK_BLOCK`` vectors counted from
    the first, every block in one call with the same workspace, so a vector
    is rounded with the same neighbours for every ``count`` (a product over
    all ``count`` vectors at once rounds differently as ``count`` changes).
    Inverse iteration runs on to the end of the last block.  When it does
    not converge for a vector (INFO > 0), every vector is taken from
    ``np.linalg.eigh`` of T instead and back-transformed the same way; only
    then can a narrower ``count``, whose blocks end before the failing
    vector, differ from the leading columns in the last bits.  Without
    numpy's LAPACK (``_lapack`` gives None) this is ``np.linalg.eigh``,
    which is prefix-stable too.
    """
    lapack = _lapack()
    if lapack is None:
        eigvals, eigvecs = np.linalg.eigh(a)
        return eigvals, eigvecs[:, :count]
    n = a.shape[0]
    # a symmetric a is its own transpose, so its C order serves as Fortran order
    diag, off, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    reduce = (_COLUMN_MAJOR, b"L", n, a, n, diag, off, tau)
    work = _workspace(lapack.dsytrd, "dsytrd", *reduce)
    _succeeded(lapack.dsytrd(*reduce, work, work.shape[0]), "dsytrd")
    eigvals, scratch = diag.copy(), off.copy()
    _succeeded(lapack.dsterf(n, eigvals, scratch), "dsterf")
    solved = min(n, -(-count // _BACK_BLOCK) * _BACK_BLOCK)
    vectors = np.empty((solved, n))        # column-major, one vector a row
    info = lapack.dstein(_COLUMN_MAJOR, n, diag, off, solved, eigvals,
                         np.ones(solved, dtype=np.int64), np.array([n], dtype=np.int64),
                         vectors, n, np.empty(5 * n), np.empty(n, dtype=np.int64),
                         np.empty(solved, dtype=np.int64))
    if info > 0:
        tridiagonal = np.diag(diag) + np.diag(off[:n - 1], 1) + np.diag(off[:n - 1], -1)
        vectors = np.linalg.eigh(tridiagonal)[1][:, :solved].T.copy()
    else:
        _succeeded(info, "dstein")
    work = _workspace(lapack.dormtr, "dormtr", _COLUMN_MAJOR, b"L", b"L", b"N", n, _BACK_BLOCK,
                      a, n, tau, vectors, n)
    for i in range(0, solved, _BACK_BLOCK):
        block = vectors[i:i + _BACK_BLOCK]
        _succeeded(lapack.dormtr(_COLUMN_MAJOR, b"L", b"L", b"N", n, block.shape[0], a, n, tau,
                                 block, n, work, work.shape[0]), "dormtr")
    return eigvals, vectors[:count].T


def _grouped_eigh(lap: Laplacian, grouped: bool, count: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and the lowest ``count`` eigenvectors of the quotient
    problem over the groups, constant direction shifted last.

    With c the group sizes, the quotient pencil is (Q, diag(d/c)) where Q
    holds the mean of L over each block of two groups: -S between groups, and
    r/c - s_gg on the diagonal.  Its symmetric reduction is solved by
    :func:`_partial_eigh` after a rank-one shift pushes the constant
    direction, proportional to sqrt(c*d), above the spectrum.  Returns every
    eigenvalue, the lowest ``count`` eigenvectors and sqrt(c*d), which maps
    an eigenvector to the group values of a D-orthonormal frame.  Not
    ``grouped``, every row is its own group and the operations are those of
    a plain solve of D^(-1/2) L D^(-1/2) over ``lap.dense()``.
    """
    # in place where the arithmetic allows: the solve's input is the only
    # full-size array of ours alive, and the solve overwrites it
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
    eigvals, eigvecs = _partial_eigh(reduced, count)
    return eigvals, eigvecs, root


def solve_eigenmap(lap: Laplacian, dims: int | Sequence[int]) -> np.ndarray:
    """Bottom non-trivial eigenvectors of L x = lambda D x, D-orthonormalized.

    The problem is solved over the Laplacian's groups of equal rows: the
    quotient's symmetric reduction is solved densely and each group's value
    is copied to its rows.  The rows beyond each group's first add
    eigenvectors inside their group with eigenvalue exactly 1, which the
    quotient does not see; when the frame would need one of them (``dims``
    past the quotient's non-trivial count, which needs no solve to see, or
    its eigenvalue ``dims`` - 1 not below 1), or when no row repeats, the
    same solve runs with every row its own group, which is the plain dense
    solve of D^(-1/2) L D^(-1/2).  The constant direction (always a null
    vector) is pushed above the spectrum by a rank-one shift before the
    solve, so the lowest dims eigenvectors of the shifted matrix are exactly
    the non-trivial ones; this stays correct on disconnected graphs where
    several eigenvalues vanish.  A solve (:func:`_partial_eigh`) computes
    every eigenvalue but only the lowest dims eigenvectors.  The
    degenerate-gap rule reads the quotient's spectrum merged with the exact
    ones; a width that cuts a cluster raises ``RankDeficient``, naming the
    widest narrower width that cuts none.  Column signs are fixed so each
    column's largest-magnitude entry is positive.

    ``dims`` may list several widths: one solve checks each of them and
    returns the frame of the widest.  The solve's leading eigenvectors do
    not depend on how many it computes, so the frame's leading w columns are
    bitwise the frame ``dims=w`` returns.
    """
    m = lap.m
    widths = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    for w in widths:
        if w < 1 or w > m - 1:
            raise RankDeficient(f"need 1 <= dims <= m-1, got dims={w}, m={m}")
    dims = max(widths)
    groups, u = lap.groups, lap.firsts.shape[0]
    solved = None
    if dims < u:
        solved = _grouped_eigh(lap, grouped=True, count=dims)
        if u < m and not solved[0][dims - 1] < 1.0:
            solved = None   # not alive beside the full solve's arrays
    if solved is None:
        groups, u = np.arange(m), m
        solved = _grouped_eigh(lap, grouped=False, count=dims)
    eigvals, eigvecs, root = solved
    # indices 0..u-2 are the quotient's non-trivial pairs; its shifted
    # constant sits last
    spectrum = np.sort(np.concatenate([eigvals[:u - 1], np.ones(m - u)]))
    # cuts[w - 1]: width w, below m - 1, splits a degenerate cluster
    cuts = np.diff(spectrum) < DEGENERATE_GAP
    for w in widths:
        if w <= m - 2 and cuts[w - 1]:
            narrower = np.flatnonzero(~cuts[:w - 1])
            raise RankDeficient(
                f"dims={w} cuts a numerically degenerate eigenvalue cluster: non-trivial "
                f"eigenvalues {w} and {w + 1} are {spectrum[w - 1]:.3g} and {spectrum[w]:.3g}; "
                + (f"dims={narrower[-1] + 1} is the widest width below it that cuts none"
                   if narrower.size else "no narrower width avoids cutting one"))
    x = (eigvecs / root[:, None])[groups]
    for j in range(dims):
        i = int(np.argmax(np.abs(x[:, j])))
        if x[i, j] < 0.0:
            x[:, j] = -x[:, j]
    return x


@dataclass(frozen=True)
class LinearTerm:
    """An extra objective term f(X) = h(X w), which reads the embedding X
    only through one combination w of its columns.

    ``value`` is h and ``slope`` its gradient h'(p), each at the m-vector
    p = X w, so f's gradient in X is the rank-one h'(p) w^T.  At a line
    search trial X(t) = (X - t Z) W, p is X (W w) - t Z (W w): two products
    with a vector, and no m x dims array.
    """

    weights: np.ndarray
    value: Callable[[np.ndarray], float]
    slope: Callable[[np.ndarray], np.ndarray]


def _descent_direction(x: np.ndarray, lx: np.ndarray, xlx: np.ndarray, degrees: np.ndarray,
                       extra: LinearTerm | None) -> np.ndarray:
    """Gradient projected onto the constraint manifold's tangent space.

    The gradient is 2 L X plus the extra term's rank-one h'(p) w^T, and is
    not made: X^T times it is 2 X^T L X (``xlx``) plus (X^T h'(p)) w^T.
    Uses the D-metric gradient D^(-1) G and the D-metric tangent projection,
    which vanishes exactly at eigenvector frames: a converged embedding is a
    true fixed point of the iteration.
    """
    a = 2.0 * xlx
    if extra is not None:
        slope = extra.slope(x @ extra.weights)
        a += np.outer(x.T @ slope, extra.weights)
    z = x @ ((a + a.T) / -2.0)
    z += lx * (2.0 / degrees)[:, None]
    if extra is not None:
        z += np.outer(slope / degrees, extra.weights)
    return _deflate_constant(z, degrees)


def _constraint_violation(gram: np.ndarray) -> float:
    """||X^T D X - I|| from the Gram matrix X^T D X."""
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


@dataclass(frozen=True)
class DescentState:
    """An iterate of :func:`projected_descent` and what its next step reuses.

    ``lx`` is L X, carried from step to step as (L X - t L Z) W, and
    ``gram`` is X^T D X, measured on ``x``; the next step's direction and
    line search start from them.  ``value`` is phi plus the caller's extra
    term at ``x``.  ``step_scale`` is the dimensionless multiplier on the
    D-normalized direction, adapted from how far backtracking had to shrink
    the last accepted step.
    """

    x: np.ndarray
    lx: np.ndarray
    gram: np.ndarray
    phi: float
    value: float
    step_scale: float = 0.5
    max_violation: float = 0.0  # largest ||X^T D X - I|| over the iterates

    @classmethod
    def at(cls, lap: Laplacian, x: np.ndarray) -> "DescentState":
        phi, lx = _phi_and_product(x, lap)
        gram = x.T @ (lap.degrees[:, None] * x)
        return cls(x, lx, gram, phi, phi, max_violation=_constraint_violation(gram))


def projected_descent(lap: Laplacian, state: DescentState, steps: int,
                      extra: LinearTerm | None = None) -> tuple[DescentState, str | None]:
    """Up to ``steps`` projected gradient steps on phi(X) + extra(X) over X^T D X = I.

    Each step moves against the projected gradient Z by ``step_scale *
    sqrt(dims)`` in D-norm, re-imposes the constraint with the symmetric
    (Loewdin) factor, and halves the step t until the value does not
    increase: a trial is X(t) = (X - t Z) W with W = G(t)^(-1/2) and
    G(t) = (X - t Z)^T D (X - t Z).  G(t) and M(t) = (X - t Z)^T L (X - t Z)
    are quadratics in t whose dims x dims coefficients the step computes
    once, with one product L Z; G(t)'s constant coefficient is the state's
    ``gram``.  A trial's phi is then tr(W M(t) W) and its extra term is read
    at (X - t Z) W w (``LinearTerm``): no trial makes an m x dims array or a
    product with L.  The accepted trial is made, with its
    L X(t) = (L X - t L Z) W, and its ``gram`` and constraint violation are
    measured on it; its X^T L X, W M(t) W, is carried to the next step.  The
    descent stops early when the direction vanishes or 60 halvings find no
    descent.  Returns the last state and, when a trial step collapsed the
    frame (a column under COLLAPSE_TOL in D-norm, from G(t)'s diagonal, or
    dependent columns), what collapsed.
    """
    degrees = lap.degrees
    dims = state.x.shape[1]
    xlx = state.x.T @ state.lx
    for _ in range(steps):
        x, lx = state.x, state.lx
        z = _descent_direction(x, lx, xlx, degrees, extra)
        dz = degrees[:, None] * z
        xdz, zdz = x.T @ dz, z.T @ dz
        znorm_d = float(np.sqrt(np.trace(zdz)))
        if znorm_d <= 1e-15 * max(1.0, float(np.abs(x).max())):
            break
        lz = lap.dot(z)
        xlz, zlz = x.T @ lz, z.T @ lz
        # G(t) = X^T D X - t * gd + t^2 * Z^T D Z, and M(t) likewise with L
        gd, gl = xdz + xdz.T, xlz + xlz.T
        trial = state.step_scale * np.sqrt(dims) / znorm_d
        for halvings in range(60):
            gram = state.gram - trial * gd + trial * trial * zdz
            if np.any(gram.diagonal() < COLLAPSE_TOL * COLLAPSE_TOL):
                return state, "column collapsed"
            try:
                root = _inverse_sqrt(gram)
            except RankDeficient:
                return state, "columns became dependent"
            half = root @ (xlx - trial * gl + trial * trial * zlz)
            phi = float(np.einsum("ij,ji->", half, root))
            value = phi
            if extra is not None:
                v = root @ extra.weights
                value = phi + extra.value(x @ v - trial * (z @ v))
            if not np.isfinite(value):
                raise NonFiniteValue("objective became non-finite during descent")
            if value <= state.value:
                break
            trial *= 0.5
        else:
            break
        cand = (x - trial * z) @ root
        cand_lx = (lx - trial * lz) @ root
        cand_gram = cand.T @ (degrees[:, None] * cand)
        xlx = half @ root
        state = DescentState(
            cand, cand_lx, cand_gram, phi, value,
            min(max(state.step_scale * 2.0 ** (1 - halvings), 1e-9), 8.0),
            max(state.max_violation, _constraint_violation(cand_gram)))
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
