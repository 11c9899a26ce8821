"""Independent brute-force oracles used by the test suite.

These deliberately re-derive transformation validity and search spaces from
the rules, without touching the production move tables, caches, pruning, or
memoization.  They are exponential and only meant for small inputs.
"""

from __future__ import annotations

import math

import numpy as np

from slemap.errors import KTooLarge, RankDeficient
from slemap.laplacian import DEGENERATE_GAP, DEGREE_EPSILON, _partial_eigh
from slemap.metrics import ConfusionCounts, compute_mcc, confusion_at
from slemap.transforms import N_KINDS, TransformKind

EQ, SYN, MIS, ABB, PRE, ACR, CON, SUF, MISS = (
    TransformKind.EQUAL, TransformKind.SYNONYM, TransformKind.MISSPELLING,
    TransformKind.ABBREVIATION, TransformKind.PREFIX, TransformKind.ACRONYM,
    TransformKind.CONCATENATION, TransformKind.SUFFIX, TransformKind.MISSING,
)


def osa_distance(a: str, b: str) -> int:
    """Optimal-string-alignment distance, full-matrix formulation."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len(a)][len(b)]


class OracleRules:
    """Transformation validity checks, written from the rules."""

    def __init__(self, synonym_groups=(), acronyms=None, abbreviations=None,
                 max_edit=1, min_len=4):
        self.groups = [frozenset(g) for g in synonym_groups]
        self.acronyms = {k: tuple(v) for k, v in (acronyms or {}).items()}
        self.abbreviations = dict(abbreviations or {})
        self.max_edit = max_edit
        self.min_len = min_len

    @classmethod
    def from_dictionary(cls, dct) -> "OracleRules":
        """The same tables as a production TransformationDictionary."""
        groups: dict[int, list[str]] = {}
        for tok, gids in dct.synonym_group.items():
            for gid in gids:
                groups.setdefault(gid, []).append(tok)
        return cls(groups.values(), dct.acronyms, dct.abbreviations,
                   dct.max_edit_distance, dct.min_token_length)

    def one_to_one(self, x: str, y: str) -> list[TransformKind]:
        if x == y:
            return [EQ]
        kinds = []
        if any(x in g and y in g for g in self.groups):
            kinds.append(SYN)
        if len(x) >= self.min_len and len(y) >= self.min_len and osa_distance(x, y) <= self.max_edit:
            kinds.append(MIS)
        if self.abbreviations.get(x) == y or self.abbreviations.get(y) == x:
            kinds.append(ABB)
        short, long = (x, y) if len(x) < len(y) else (y, x)
        if len(short) >= 3 and len(short) < len(long):
            if long.startswith(short):
                kinds.append(PRE)
            if long.endswith(short):
                kinds.append(SUF)
        return kinds

    def one_to_span(self, tok: str, span: tuple[str, ...]) -> list[TransformKind]:
        kinds = []
        if len(span) >= 2:
            if len(tok) == len(span) and tok == "".join(w[0] for w in span):
                kinds.append(ACR)
            elif self.acronyms.get(tok) == span:
                kinds.append(ACR)
            if tok == "".join(span):
                kinds.append(CON)
        return kinds


def oracle_vectors(a_tokens, b_tokens, rules: OracleRules) -> set[tuple[int, ...]]:
    """Every complete consistent transformation count-vector, by brute force."""
    a_tokens = tuple(a_tokens)
    b_tokens = tuple(b_tokens)
    results: set[tuple[int, ...]] = set()

    def contiguous_unused(indices, side_len, start_at):
        """All contiguous all-unused index runs of length >= 2 containing start_at."""
        runs = []
        for lo in range(0, start_at + 1):
            for hi in range(max(start_at, lo + 1), side_len):
                run = range(lo, hi + 1)
                if all(k in indices for k in run):
                    runs.append(tuple(run))
        return runs

    def rec(a_left: frozenset, b_left: frozenset, counts: tuple[int, ...]):
        if not a_left:
            c = list(counts)
            c[MISS] += len(b_left)
            results.add(tuple(c))
            return
        ai = min(a_left)
        bump = lambda k: tuple(c + (1 if u == k else 0) for u, c in enumerate(counts))
        rec(a_left - {ai}, b_left, bump(MISS))
        for j in sorted(b_left):
            for kind in rules.one_to_one(a_tokens[ai], b_tokens[j]):
                rec(a_left - {ai}, b_left - {j}, bump(kind))
            for run in contiguous_unused(a_left, len(a_tokens), ai):
                span = tuple(a_tokens[k] for k in run)
                for kind in rules.one_to_span(b_tokens[j], span):
                    rec(a_left - set(run), b_left - {j}, bump(kind))
        for j0 in range(len(b_tokens)):
            for j1 in range(j0 + 1, len(b_tokens)):
                run = range(j0, j1 + 1)
                if not all(k in b_left for k in run):
                    continue
                span = tuple(b_tokens[k] for k in run)
                for kind in rules.one_to_span(a_tokens[ai], span):
                    rec(a_left - {ai}, b_left - set(run), bump(kind))

    rec(frozenset(range(len(a_tokens))), frozenset(range(len(b_tokens))), (0,) * N_KINDS)
    return results


def vector_score(counts, weight_values) -> float:
    num = 0.0
    total = 0
    for u in range(N_KINDS):
        if counts[u]:
            num += weight_values[u] * counts[u]
            total += counts[u]
    return num / total


def oracle_related(a_tokens, b_tokens, rules: OracleRules) -> bool:
    """Whether a transformation other than Missing relates a token of one
    statement to a token, or to a run of two or more tokens, of the other.
    A pair for which this is false has only the all-Missing graph."""
    a_tokens, b_tokens = tuple(a_tokens), tuple(b_tokens)

    def runs(side):
        return [side[lo:hi] for lo in range(len(side)) for hi in range(lo + 2, len(side) + 1)]

    return (any(rules.one_to_one(x, y) for x in a_tokens for y in b_tokens)
            or any(rules.one_to_span(x, run) for x in a_tokens for run in runs(b_tokens))
            or any(rules.one_to_span(y, run) for y in b_tokens for run in runs(a_tokens)))


def oracle_statement_similarity(a_tokens, b_tokens, weight_values, rules: OracleRules) -> float:
    return max(vector_score(c, weight_values) for c in oracle_vectors(a_tokens, b_tokens, rules))


def oracle_best_vector(a_tokens, b_tokens, weight_values, rules: OracleRules) -> tuple[int, ...]:
    """A deterministic maximizing count vector: among the best-scoring ones,
    the fewest Missing transforms, then the lexicographically smallest."""
    vectors = oracle_vectors(a_tokens, b_tokens, rules)
    best = max(vector_score(c, weight_values) for c in vectors)
    return min((c for c in vectors if vector_score(c, weight_values) == best),
               key=lambda c: (c[MISS], c))


def canonical_statements(d1, d2) -> tuple[tuple, tuple]:
    """Statement tokens of two documents in the order production pairs them:
    each document's statements sorted, the shorter document first, and
    documents of equal length ordered by their sorted statements."""
    k1, k2 = (tuple(sorted(st.tokens for st in d.statements)) for d in (d1, d2))
    return (k1, k2) if (len(k1), k1) <= (len(k2), k2) else (k2, k1)


def oracle_document_similarity(stmt_sims: list[list[float]], r1: int, r2: int) -> float:
    """Best consistent statement pairing, enumerating partial pairings too.

    ``stmt_sims`` is oriented with the smaller document first (same convention
    as production) so float sums accumulate in the same order.
    """
    assert r1 <= r2
    best = 0.0

    def rec(i: int, used: frozenset, total: float):
        nonlocal best
        if i == r1:
            if total > best:
                best = total
            return
        rec(i + 1, used, total)  # statement i left unpaired
        for j in range(r2):
            if j not in used:
                rec(i + 1, used | {j}, total + stmt_sims[i][j])

    rec(0, frozenset(), 0.0)
    return best / r2


def oracle_estimate(sim_rows, xe, k: int, weighted: bool):
    """The kNN estimator one document at a time: neighbors by ``lexsort`` on
    (-similarity, index), then the plain average, or the similarity-weighted
    average with the equal-weight and all-zero rules, as the block estimator
    states them.  Returns the estimates and the count of all-zero rows."""
    out = np.empty((sim_rows.shape[0], xe.shape[1]))
    zero_rho = 0
    for i in range(sim_rows.shape[0]):
        sims = np.asarray(sim_rows[i], dtype=float)
        if k < 1 or k > sims.shape[0]:
            raise KTooLarge(f"k={k} outside 1..{sims.shape[0]}")
        top = np.lexsort((np.arange(sims.shape[0]), -sims))[:k]
        near = np.asarray(tuple(float(sims[j]) for j in top), dtype=float)
        rows = xe[np.asarray(top, dtype=np.intp)]
        if not weighted:
            out[i] = rows.mean(axis=0)
            continue
        if sum(float(s) for s in near) <= 0.0:
            zero_rho += 1
        rho = float(near.sum())
        if rho <= 0.0:
            out[i] = np.zeros(rows.shape[1])
        elif near.min() == near.max():
            out[i] = rows.mean(axis=0)
        else:
            out[i] = near @ rows / rho
    return out, zero_rho


def oracle_sigmoid(z):
    """The logistic function as two masked halves: 1 / (1 + e^-z) where
    z >= 0, and e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_train(data, l2: float, init=None, max_iters: int = 500,
                 grad_tol: float = 1e-8):
    """Gradient descent on the logistic loss with the logits computed afresh
    for every loss and every gradient: from ``init`` (zeros by default) with
    Armijo backtracking, stopping at a gradient norm of ``grad_tol`` or a
    step no backtrack accepts.  Returns (weights, bias)."""
    x, y, cols = data.X, data.y, data.X.shape[1]
    w = np.zeros(cols) if init is None else init.weights
    b = 0.0 if init is None else init.bias

    def loss(w, b):
        z = x @ w + b
        nll = np.logaddexp(0.0, z) - y * z
        return float(nll.mean() + 0.5 * l2 * w @ w)

    cur, eta = loss(w, b), 1.0
    for _ in range(max_iters):
        gw, gb = oracle_gradient(data, l2, w, b)
        gnorm2 = float(gw @ gw + gb * gb)
        if gnorm2 <= grad_tol ** 2:
            break
        eta = min(eta * 2.0, 1e4)
        for _ in range(60):
            cw, cb = w - eta * gw, b - eta * gb
            new = loss(cw, cb)
            if new <= cur - 1e-4 * eta * gnorm2:
                break
            eta *= 0.5
        else:
            break
        w, b, cur = cw, cb, new
    return w, b


def oracle_gradient(data, l2: float, w, b):
    """The gradient of the mean logistic loss plus (l2/2)||w||^2 in the
    weights and in the bias at (w, b)."""
    residual = oracle_sigmoid(data.X @ w + b) - data.y
    return data.X.T @ residual / data.X.shape[0] + l2 * w, float(residual.mean())


def oracle_auc(scores, labels) -> float:
    """Rank AUC from a loop over the sorted scores: each run of equal scores
    gets its 1-based average rank."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n = scores.shape[0]
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and scores[order[j]] == scores[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def oracle_best_mcc_threshold(scores, labels) -> tuple[float, ConfusionCounts]:
    """The MCC-best threshold by counting ``scores >= t`` afresh at every
    candidate (-inf, the midpoints of consecutive distinct scores, +inf);
    the first candidate with the largest MCC wins."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    distinct = np.unique(scores)
    candidates = [-math.inf]
    candidates.extend((distinct[:-1] + distinct[1:]) / 2.0)
    candidates.append(math.inf)
    best_t = candidates[0]
    best_c = confusion_at(scores, labels, best_t)
    best_mcc = compute_mcc(best_c)
    for t in candidates[1:]:
        c = confusion_at(scores, labels, t)
        mcc = compute_mcc(c)
        if mcc > best_mcc:
            best_t, best_c, best_mcc = t, c, mcc
    return float(best_t), best_c


def oracle_laplacian_product(s, x):
    """L X with L = diag(S 1) - S built over every row, as one dense product."""
    return (np.diag(s.sum(axis=1)) - s) @ x


def oracle_laplacian(s) -> dict[str, np.ndarray]:
    """The fields of ``build_laplacian`` made row by row over the m x m
    matrix: every row's sum, and groups of rows with equal bytes among the
    rows of positive sum of an exactly symmetric ``s``, numbered in order of
    their first row."""
    s = np.ascontiguousarray(s, dtype=float)
    raw = s.sum(axis=1)
    exact = np.array_equal(s, s.T)
    number: dict = {}
    firsts: list[int] = []
    groups = np.empty(s.shape[0], dtype=np.intp)
    for i, row in enumerate(s):
        key = row.tobytes() if exact and raw[i] > 0.0 else i
        if key not in number:
            number[key] = len(firsts)
            firsts.append(i)
        groups[i] = number[key]
    at = np.array(firsts, dtype=np.intp)
    block = s[np.ix_(at, at)]
    self_similarity = block.diagonal().copy()
    block = 0.0 - block
    np.fill_diagonal(block, raw[at] - self_similarity)
    counts = np.bincount(groups)
    return {"block": block, "self_similarity": self_similarity, "raw_degrees": raw,
            "degrees": np.where(raw > 0.0, raw, DEGREE_EPSILON), "groups": groups,
            "firsts": at, "order": np.argsort(groups, kind="stable"),
            "starts": np.cumsum(counts) - counts}


def oracle_solve_eigenmap(lap, dims, reference=False):
    """Bottom non-trivial eigenvectors of L x = lambda D x from one dense
    solve over every row of L, with no grouping of equal rows.

    The solve is the package's partial one, so that a comparison checks the
    grouping; ``reference`` solves with ``np.linalg.eigh`` instead, an
    independent check of the partial solve."""
    m = lap.m
    widths = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    for w in widths:
        if w < 1 or w > m - 1:
            raise RankDeficient(f"need 1 <= dims <= m-1, got dims={w}, m={m}")
    dims = max(widths)
    dsqrt = np.sqrt(lap.degrees)
    reduced = lap.dense() / dsqrt[:, None]
    reduced /= dsqrt[None, :]
    reduced = reduced + reduced.T
    reduced /= 2.0
    v0 = dsqrt / np.linalg.norm(dsqrt)
    shift = float(np.max(np.sum(np.abs(reduced), axis=1))) + 1.0
    reduced += shift * np.outer(v0, v0)
    if reference:
        eigvals, eigvecs = np.linalg.eigh(reduced)
    else:
        eigvals, eigvecs = _partial_eigh(reduced, dims)
    # indices 0..m-2 are the non-trivial pairs; the shifted constant sits last
    for w in widths:
        if w <= m - 2 and eigvals[w] - eigvals[w - 1] < DEGENERATE_GAP:
            raise RankDeficient(
                "requested dimension cuts a numerically degenerate eigenvalue cluster")
    x = eigvecs[:, :dims] / dsqrt[:, None]
    for j in range(dims):
        i = int(np.argmax(np.abs(x[:, j])))
        if x[i, j] < 0.0:
            x[:, j] = -x[:, j]
    return x


def oracle_vectorize(docs, vocabulary, idf=None) -> np.ndarray:
    """Token counts over the vocabulary, one token at a time, times idf if given."""
    index = {tok: j for j, tok in enumerate(vocabulary)}
    out = np.zeros((len(docs), len(vocabulary)))
    for i, doc in enumerate(docs):
        for st in doc.statements:
            for tok in st.tokens:
                j = index.get(tok)
                if j is not None:
                    out[i, j] += 1.0
    if idf is not None:
        out *= idf[None, :]
    return out
