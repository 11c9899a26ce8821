"""Estimated embeddings of unseen documents from their training similarities.

An unseen document's coordinates are proxied by its k most similar training
documents: either their plain average or a similarity-weighted average that
falls back to the zero vector when every neighbor similarity is zero.  One
block estimator serves every caller; a single document is a one-row block.
"""

from __future__ import annotations

import numpy as np

from .errors import KTooLarge

# Bytes the neighbour selection of one chunk of rows may hold: first the
# partitioned copy of the chunk (8 bytes per entry), then the masks and the
# running tie count that replace it (at most 8 bytes per entry).
_SELECT_BYTES = 1 << 19


def select_neighbours(sim_rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k most similar columns and their similarities, both rows x k.

    Columns are ordered by decreasing similarity, ties toward the lower
    column index: the leading k of a stable argsort of ``-sim_rows``.  A
    partition finds each row's k-th largest value; every column above it and
    the lowest-index columns equal to it are kept, then only those k are
    sorted.
    """
    m, n = sim_rows.shape
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} outside 1..{n}")
    top = np.empty((m, k), dtype=np.intp)
    per = max(1, _SELECT_BYTES // (8 * n))
    for i in range(0, m, per):
        block = sim_rows[i:i + per]
        kth = np.partition(block, n - k, axis=1)[:, [n - k]]
        above, ties = block > kth, block == kth
        need = k - np.count_nonzero(above, axis=1, keepdims=True)
        keep = np.cumsum(ties, axis=1, dtype=np.int32) <= need
        keep &= ties
        keep |= above
        cols = np.nonzero(keep)[1].reshape(-1, k)
        order = np.argsort(-np.take_along_axis(block, cols, axis=1), axis=1, kind="stable")
        top[i:i + per] = np.take_along_axis(cols, order, axis=1)
    return top, np.take_along_axis(sim_rows, top, axis=1)


def estimate_batch(sim_rows: np.ndarray | tuple[np.ndarray, np.ndarray],
                   embedding: np.ndarray, k: int,
                   weighted: bool = True) -> tuple[np.ndarray, int]:
    """Estimate one embedding row per similarity row.

    ``sim_rows`` is a block of similarities to the training documents, or
    the block's ``select_neighbours(block, k)``, which callers that score one
    block under several embeddings compute once.  Row i's neighbors are the
    k training documents most similar to it, ties broken toward the lower
    training index.  Equal neighbor weights cancel analytically, and the
    weighted estimate evaluates the cancelled form, so it equals the plain
    average exactly.  Returns the estimates and the number of rows that hit
    the degenerate all-zero-similarity path (those rows are the zero vector).
    """
    top, near = sim_rows if isinstance(sim_rows, tuple) else select_neighbours(sim_rows, k)
    rows = embedding[top]
    rho = near.sum(axis=1)
    plain = np.full(rho.shape, True)
    if weighted:
        plain = (rho > 0.0) & (near.min(axis=1) == near.max(axis=1))
    zero = ~plain & (rho <= 0.0)
    mixed = ~plain & ~zero
    out = np.zeros((top.shape[0], embedding.shape[1]))
    out[plain] = rows[plain].mean(axis=1)
    out[mixed] = np.matmul(near[mixed][:, None, :], rows[mixed])[:, 0] / rho[mixed, None]
    return out, int(np.count_nonzero(zero))
