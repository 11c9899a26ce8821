"""Estimated embeddings of unseen documents from their training similarities.

An unseen document's coordinates are proxied by its k most similar training
documents: either their plain average or a similarity-weighted average that
falls back to the zero vector when every neighbor similarity is zero.  One
block estimator serves every caller; a single document is a one-row block.
"""

from __future__ import annotations

import numpy as np

from .errors import KTooLarge

# Bytes the neighbour selection of one chunk of rows may hold: the negated
# similarities and their stable argsort, 16 bytes per entry.
_SELECT_BYTES = 1 << 19


def estimate_batch(sim_rows: np.ndarray, embedding: np.ndarray, k: int,
                   weighted: bool = True) -> tuple[np.ndarray, int]:
    """Estimate one embedding row per similarity row.

    Row i's neighbors are the k training documents most similar to it, ties
    broken toward the lower training index.  Equal neighbor weights cancel
    analytically, and the weighted estimate evaluates the cancelled form, so
    it equals the plain average exactly.  Returns the estimates and the
    number of rows that hit the degenerate all-zero-similarity path (those
    rows are the zero vector).
    """
    if k < 1 or k > sim_rows.shape[1]:
        raise KTooLarge(f"k={k} outside 1..{sim_rows.shape[1]}")
    top = np.empty((sim_rows.shape[0], k), dtype=np.intp)
    per = max(1, _SELECT_BYTES // (16 * sim_rows.shape[1]))
    for i in range(0, len(top), per):
        top[i:i + per] = np.argsort(-sim_rows[i:i + per], axis=1, kind="stable")[:, :k]
    out = np.empty((sim_rows.shape[0], embedding.shape[1]))
    zero_rho = 0
    for i, (idx, s) in enumerate(zip(top, np.take_along_axis(sim_rows, top, axis=1))):
        rows = embedding[idx]
        rho = float(s.sum())
        if not weighted or (rho > 0.0 and s.min() == s.max()):
            out[i] = rows.mean(axis=0)
        elif rho <= 0.0:
            zero_rho += 1
            out[i] = 0.0
        else:
            out[i] = s @ rows / rho
    return out, zero_rho
