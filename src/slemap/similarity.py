"""Document similarity and similarity-matrix construction.

Document similarity pairs up statements (each statement in at most one pair),
takes the best total statement similarity over all such pairings, and divides
by the larger statement count.  Unpaired statements contribute nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
import numpy as np

from .dictionary import TransformationDictionary, empty_dictionary
from .text import DEFAULT_MAX_TOKENS, Document, Statement
from .transforms import (TransformKind, TransformWeights, _spans_for_token,
                         all_missing_similarity, may_span, pair_kinds, statement_similarity)

# Bytes one chunk of document pairs may hold while it is paired, counted by
# _pair_bytes; a chunk holds at least one pair.
_CHUNK_BYTES = 1 << 24


@functools.cache
def _kinds_of(mask: int) -> tuple[TransformKind, ...]:
    """The kinds of a bitmask over TransformKind, in kind order as pair_kinds
    lists them."""
    return tuple(kind for kind in TransformKind if mask >> kind & 1)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric m x m document similarities in [0, 1] with unit diagonal."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != len(self.ids):
            raise ValueError("similarity matrix must be square and match ids")

    @property
    def m(self) -> int:
        return len(self.ids)


def _doc_key(doc: Document) -> tuple:
    # Similarity only sees the statement multiset, so the sorted token tuples
    # serve both as the dedupe key and as the canonical statement order.
    return tuple(sorted(st.tokens for st in doc.statements))


def _canonical(key: tuple) -> tuple:
    # Shorter documents first, equal lengths by key: of two documents, the
    # one that comes first supplies the rows of the pairing.
    return len(key), key


def _dedupe(docs: list[Document]) -> tuple[list[tuple], np.ndarray]:
    """Distinct document keys in canonical order and each document's index
    into them."""
    keyed = [_doc_key(d) for d in docs]
    keys = sorted(set(keyed), key=_canonical)
    index = {key: n for n, key in enumerate(keys)}
    return keys, np.array([index[key] for key in keyed], dtype=np.intp)


def _distinct(docs: list[Document]) -> list[Statement]:
    return list({st.tokens: st for d in docs for st in d.statements}.values())


@functools.cache
def _steps(r: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pairing DP's transitions over r columns.

    Level k lists the column masks with k bits set; level 1 is column order.
    Step k (k = 1 .. r - 1) gives, for every mask of level k + 1 and every
    column j in it, the position in level k of the mask without j, and j;
    both arrays have shape (C(r, k + 1), k + 1).
    """
    level = [1 << j for j in range(r)]
    steps = []
    for _ in range(1, r):
        position = {mask: p for p, mask in enumerate(level)}
        level = sorted({mask | 1 << j for mask in level for j in range(r) if not mask >> j & 1})
        cols = [[j for j in range(r) if mask >> j & 1] for mask in level]
        src = [[position[mask ^ 1 << j] for j in row] for mask, row in zip(level, cols)]
        steps.append((np.array(src, dtype=np.intp), np.array(cols, dtype=np.intp)))
        for array in steps[-1]:
            array.flags.writeable = False   # shared by every caller
    return tuple(steps)


def _pair_bytes(r1: int, r2: int) -> int:
    """Bytes a document pair of r1 and r2 statements takes in a chunk: its
    indices and statement ids, its statement similarities as gathered and as
    oriented, and the three widest arrays of a DP step."""
    widest = max((src.size for src, _ in _steps(r2)), default=r2)
    return 8 * (6 + r1 + r2 + 2 * r1 * r2 + 3 * widest)


def _best_pairing(sims: np.ndarray) -> np.ndarray:
    """Document similarity of each of P document pairs from its statement
    similarities ``sims`` (P, r1, r2), rows in canonical order, r1 <= r2.

    A subset DP over (row, used-column mask): the first row starts the sums,
    each later row adds to every mask that lacks the column it takes, and
    each mask keeps its largest sum.
    """
    r1, r2 = sims.shape[1:]
    best = sims[:, 0, :]
    for i, (src, cols) in zip(range(1, r1), _steps(r2)):
        best = (best[:, src] + sims[:, i, cols]).max(axis=2)
    return best.max(axis=1) / r2


@dataclass
class _Table:
    """Statement similarities, NaN where not scored: ``values[i, j]`` for the
    statements ``rows[i]`` and ``cols[j]``; ``row_of``/``col_of`` map
    statement tokens to positions."""

    values: np.ndarray
    rows: list[Statement]
    cols: list[Statement]
    row_of: dict[tuple, int]
    col_of: dict[tuple, int]

    @classmethod
    def empty(cls, rows: list[Statement], cols: list[Statement]) -> "_Table":
        return cls(np.full((len(rows), len(cols)), np.nan), rows, cols,
                   {st.tokens: i for i, st in enumerate(rows)},
                   {st.tokens: j for j, st in enumerate(cols)})

    def put(self, x: tuple, y: tuple, value: float) -> None:
        """Store the similarity of the statements with tokens x and y in each
        orientation the table has."""
        for u, v in ((x, y), (y, x)):
            i, j = self.row_of.get(u), self.col_of.get(v)
            if i is not None and j is not None:
                self.values[i, j] = value


class SimilarityComputer:
    """Caches statement similarities across many document pairs.

    All methods are pure functions of the inputs; the caches only memoize.
    ``matrix`` interns every distinct statement of its corpus once, into the
    rows and columns of a dense statement-similarity table that the computer
    keeps.  ``rows`` interns nothing: it scores its new documents' statements
    against the corpus statements in a table of its own, which starts from
    what the kept table holds, so a computer reused for many requests keeps
    only its matrix corpora.  A call first gives every unscored pair of its
    statements that shares no relation (no token pair that ``pair_kinds``
    relates, no span) the all-Missing score, without the statement DP; that
    score is exactly what the DP returns for such a pair.  It then scores the
    related statement pairs that its document pairs hold and its table lacks,
    each with one ``statement_similarity``.  The token relations
    (``pair_kinds``) are memoized across calls in a token x token table that
    both passes read, except those of tokens that only a ``rows`` call's new
    documents hold.  A new document identical to a non-empty
    corpus document scores 1.0 without a pairing.

    Documents are paired in a canonical order (statements sorted by tokens,
    the shorter document first, equal-length documents ordered by key), so
    results are identical whether pairs are evaluated one at a time or in
    bulk, in any order, and do not depend on statement order.  The distinct
    documents of a call are grouped by statement count, and each pair of
    classes is paired as numpy blocks of document pairs, in chunks of at most
    ``_CHUNK_BYTES``.

    The pairing is a subset dynamic program over (statement of the shorter
    document, bitmask of the longer document's statements already used) that
    keeps the largest prefix sum per mask.  Sums accumulate row by row in the
    canonical order and rounded addition is monotone, so the result is the
    same float as the maximum over every injective pairing.
    """

    def __init__(self, weights: TransformWeights | None = None,
                 dictionary: TransformationDictionary | None = None,
                 max_tokens: int = DEFAULT_MAX_TOKENS):
        self.weights = weights or TransformWeights.default()
        self.dictionary = dictionary or empty_dictionary()
        self.max_tokens = max_tokens
        # the statements of every matrix corpus, as rows and as columns
        statements: list[Statement] = []
        ids: dict[tuple, int] = {}
        self._known = _Table(np.empty((0, 0)), statements, statements, ids, ids)
        # token ids, and pair_kinds of two ids as a bitmask over
        # TransformKind (0: unrelated), -1 where not computed yet
        self._tokens: list[str] = []
        self._token_id: dict[str, int] = {}
        self._kinds = np.full((0, 0), -1, dtype=np.int16)

    def statement_similarity(self, a: Statement, b: Statement) -> float:
        first = np.zeros((1, 1), dtype=np.intp)
        table = self._call_table([a], [b])
        self._fill_unrelated(table, first[0], first[0])
        return float(self._lookup(table, first, first)[0, 0, 0])

    def document_similarity(self, d1: Document, d2: Document) -> float:
        return float(self.rows([d1], [d2])[0, 0])

    def matrix(self, corpus: list[Document]) -> SimilarityMatrix:
        """Full similarity matrix: upper triangle computed, mirrored, unit diagonal.

        Duplicate documents (same statement multiset) are collapsed before the
        pairwise pass, which leaves the result identical but much cheaper on
        template-heavy corpora.
        """
        if len(corpus) < 2:
            raise ValueError("need at least 2 documents")
        keys, inverse = _dedupe(corpus)
        held = self._intern(corpus)
        self._fill_unrelated(self._known, held, held)
        everything = np.arange(len(keys))
        upper = self._pairs(keys, everything, everything, self._known, upper=True)
        su = upper + upper.T
        np.fill_diagonal(su, 1.0)
        values = su[np.ix_(inverse, inverse)]
        # Distinct empty documents share a dedupe key but are not similar:
        # sentinels score 0 against everything except themselves.
        sentinel = np.array([d.is_sentinel for d in corpus], dtype=bool)
        if sentinel.any():
            values[sentinel, :] = 0.0
            values[:, sentinel] = 0.0
        np.fill_diagonal(values, 1.0)
        return SimilarityMatrix(values, tuple(d.id for d in corpus))

    def rows(self, new_docs: list[Document], corpus: list[Document]) -> np.ndarray:
        """Similarities of each new document against every corpus document."""
        keys, inverse = _dedupe(list(new_docs) + list(corpus))
        new, old = inverse[:len(new_docs)], inverse[len(new_docs):]
        new_u, new_inv = np.unique(new, return_inverse=True)
        old_u, old_inv = np.unique(old, return_inverse=True)
        new_st, old_st = _distinct(new_docs), _distinct(corpus)
        # the kept table's tokens have ids already; ids from ``held`` on are
        # tokens that only the new documents hold
        held = self._token_ids([st.tokens for st in old_st])
        table = self._call_table(new_st, old_st)
        try:
            self._fill_unrelated(table, np.arange(len(new_st)), np.arange(len(old_st)))
            su = self._pairs(keys, new_u, old_u, table, upper=False)
        finally:
            # forget the relations of tokens that neither the kept table nor
            # the corpus holds, so requests with novel words do not grow the memo
            for tok in self._tokens[held:]:
                del self._token_id[tok]
            del self._tokens[held:]
            self._kinds[held:, :] = self._kinds[:, held:] = -1
        return su[np.ix_(new_inv, old_inv)]

    def _intern(self, docs: list[Document]) -> np.ndarray:
        """Give every statement of ``docs`` a row and a column of the kept
        table, and its tokens ids; returns the statements' positions."""
        known = self._known
        statements = _distinct(docs)
        for st in statements:
            if st.tokens not in known.row_of:
                known.row_of[st.tokens] = len(known.rows)
                known.rows.append(st)
        n, old = len(known.rows), len(known.values)
        if n > old:
            grown = np.full((n, n), np.nan)
            grown[:old, :old] = known.values
            known.values = grown
        self._token_ids([st.tokens for st in statements])
        return np.array([known.row_of[st.tokens] for st in statements], dtype=np.intp)

    def _token_ids(self, statements: list) -> int:
        """Give every token of the token sequences ``statements`` an id;
        returns how many ids there are."""
        for st in statements:
            for tok in st:
                if tok not in self._token_id:
                    self._token_id[tok] = len(self._tokens)
                    self._tokens.append(tok)
        n, cap = len(self._tokens), len(self._kinds)
        if n > cap:   # with room for the new words of a few requests
            grown = np.full((n + n // 4, n + n // 4), -1, dtype=np.int16)
            grown[:cap, :cap] = self._kinds
            self._kinds = grown
        return n

    def _fill_unrelated(self, table: _Table, rows: np.ndarray, cols: np.ndarray) -> None:
        """Score every unscored pair of the table rows ``rows`` and columns
        ``cols`` that shares no relation, without the statement DP.

        A pair is related when pair_kinds relates one of its token pairs or a
        token of one statement has a span in the other.  Otherwise the only
        complete graph makes every token Missing, so the pair gets
        ``all_missing_similarity``, bitwise what the DP returns.  Token pairs
        are decided once per computer through the ``pair_kinds`` memo, and
        statement pairs for the whole call at once, as the boolean product
        T_rows R T_colsᵀ of statement-token incidences and token relations.
        Pairs with a statement over ``max_tokens`` are left to the DP, which
        raises ``TokenCapExceeded`` for them.
        """
        left = [table.rows[i].tokens for i in rows.tolist()]
        right = [table.cols[j].tokens for j in cols.tolist()]
        fits = [np.array([len(st) <= self.max_tokens for st in side], dtype=bool)
                for side in (left, right)]
        todo = np.isnan(table.values[np.ix_(rows, cols)]) & fits[0][:, None] & fits[1]
        some_r, some_c = todo.any(axis=1), todo.any(axis=0)
        if not some_r.any():
            return
        rows, cols, todo = rows[some_r], cols[some_c], todo[np.ix_(some_r, some_c)]
        left = list(compress(left, some_r.tolist()))
        right = list(compress(right, some_c.tolist()))
        tokens, a, b = _incidences(left, right)
        # 0/1 matrices in float32, so that the boolean products run in BLAS
        # and a product is > 0 exactly when one of its terms is 1
        related = a @ self._token_relations(tokens, a.T @ _ones(todo) @ b > 0) @ b.T > 0
        loose = todo & ~related
        if loose.any():   # no token pair relates these: look for a span
            related |= ((a @ self._spans(tokens, a.T @ _ones(loose) > 0, right) > 0)
                        | (b @ self._spans(tokens, b.T @ _ones(loose.T) > 0, left) > 0).T)
        u, v = np.nonzero(todo & ~related)
        if not u.size:
            return
        lengths, at = np.unique(np.array([len(st) for st in left], dtype=np.intp)[u]
                                + np.array([len(st) for st in right], dtype=np.intp)[v],
                                return_inverse=True)
        value = np.array([all_missing_similarity(n, self.weights) for n in lengths.tolist()])[at]
        table.values[rows[u], cols[v]] = value
        if table is self._known:   # its rows are its columns
            table.values[cols[v], rows[u]] = value
            return
        known = self._known.row_of
        p = np.array([known.get(st, -1) for st in left], dtype=np.intp)[u]
        q = np.array([known.get(st, -1) for st in right], dtype=np.intp)[v]
        both = (p >= 0) & (q >= 0)
        self._known.values[p[both], q[both]] = self._known.values[q[both], p[both]] = value[both]

    def _token_relations(self, tokens: list[str], needed: np.ndarray) -> np.ndarray:
        """Whether pair_kinds relates ``tokens[x]`` and ``tokens[y]``, as
        float32 0/1, computed for the ``needed`` pairs the memo lacks."""
        self._token_ids([tokens])
        ids = np.array([self._token_id[tok] for tok in tokens], dtype=np.intp)
        unknown = needed & (self._kinds[np.ix_(ids, ids)] < 0)
        for u, v in zip(*(k.tolist() for k in np.nonzero(unknown))):
            self._pair_kinds(tokens[u], tokens[v])
        return _ones(self._kinds[np.ix_(ids, ids)] > 0)

    def _pair_kinds(self, x: str, y: str) -> tuple[TransformKind, ...]:
        """``pair_kinds`` of two tokens with ids, through the memo."""
        i, j = self._token_id[x], self._token_id[y]
        mask = int(self._kinds[i, j])
        if mask < 0:
            mask = sum(1 << kind for kind in pair_kinds(x, y, self.dictionary))
            self._kinds[i, j] = self._kinds[j, i] = mask
        return _kinds_of(mask)

    def _spans(self, tokens: list[str], asked: np.ndarray,
               statements: list[tuple]) -> np.ndarray:
        """Of the ``asked`` (token, statement) pairs, those where the token
        has a span in the statement, as float32 0/1."""
        out = np.zeros(asked.shape, dtype=np.float32)
        us, ns = np.flatnonzero(asked.any(axis=1)), np.flatnonzero(asked.any(axis=0))
        joined = ["".join(statements[n]) for n in ns.tolist()]
        initials = ["".join(tok[0] for tok in statements[n]) for n in ns.tolist()]
        words = [tokens[u] for u in us.tolist()]
        dct = self.dictionary
        may = np.array([[may_span(x, j, i, dct) for j, i in zip(joined, initials)]
                        for x in words], dtype=bool).reshape(len(us), len(ns))
        u, n = np.nonzero(asked[np.ix_(us, ns)] & may)
        u, n = us[u], ns[n]
        out[u, n] = [bool(_spans_for_token(tokens[x], statements[y], dct))
                     for x, y in zip(u.tolist(), n.tolist())]
        return out

    def _call_table(self, rows: list[Statement], cols: list[Statement]) -> _Table:
        """A table of ``rows`` against ``cols`` with what the kept table has."""
        table = _Table.empty(rows, cols)
        known = self._known.row_of
        i, p = _positions(rows, known)
        j, q = _positions(cols, known)
        table.values[np.ix_(i, j)] = self._known.values[np.ix_(p, q)]
        return table

    def _pairs(self, keys: list[tuple], left: np.ndarray, right: np.ndarray,
               table: _Table, upper: bool) -> np.ndarray:
        """Similarity of the distinct documents ``keys[left[a]]`` and
        ``keys[right[b]]`` at [a, b]; ``keys`` is in canonical order and
        ``left``/``right`` ascend, and ``table`` has the statements of the
        left documents as rows and those of the right documents as columns.
        With ``upper`` only pairs with left[a] < right[b] are computed and the
        others stay 0, as do pairs with an empty document.  Without it, a pair
        of one non-empty document with itself is 1.0 without a pairing: r
        statements that each score 1.0 sum to exactly r."""
        out = np.zeros((len(left), len(right)))
        size = np.array([len(key) for key in keys], dtype=np.intp)
        # keys are grouped by statement count, so each class is a run of keys
        # and of the ascending ``left`` and ``right``
        row_ids, col_ids, first = {}, {}, {}
        for r in np.unique(size[size > 0]).tolist():
            members = np.flatnonzero(size == r)
            first[r] = int(members[0])
            # a key on one side only gets placeholder ids on the other
            row_ids[r], col_ids[r] = (
                np.array([[index.get(tokens, 0) for tokens in keys[k]] for k in members],
                         dtype=np.intp)
                for index in (table.row_of, table.col_of))

        def runs(side):
            sizes, counts = size[side], list(first)
            return [(r, lo, hi) for r, lo, hi in zip(counts, np.searchsorted(sizes, counts, "left"),
                                                     np.searchsorted(sizes, counts, "right"))
                    if lo < hi]

        for ra, a0, a1 in runs(left):
            for rb, b0, b1 in runs(right):
                # chunks of the block's (a, b) pairs in row-major order
                per = max(1, _CHUNK_BYTES // _pair_bytes(min(ra, rb), max(ra, rb)))
                width = b1 - b0
                for k0 in range(0, (a1 - a0) * width, per):
                    k = np.arange(k0, min(k0 + per, (a1 - a0) * width))
                    at, bt = a0 + k // width, b0 + k % width
                    a, b = left[at], right[bt]
                    keep = a < b if upper else a != b
                    at, bt, a, b = at[keep], bt[keep], a[keep], b[keep]
                    if a.size:
                        sims = self._lookup(table, row_ids[ra][a - first[ra]],
                                            col_ids[rb][b - first[rb]])
                        # the document that comes first in ``keys`` supplies the rows
                        if ra > rb:
                            sims = sims.transpose(0, 2, 1)
                        elif ra == rb and (b < a).any():
                            sims = np.where((b < a)[:, None, None], sims.transpose(0, 2, 1), sims)
                        out[at, bt] = _best_pairing(sims)
        if not upper:
            out[(left[:, None] == right) & (size[left] > 0)[:, None]] = 1.0
        return out

    def _lookup(self, table: _Table, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Statement similarities (P, r1, r2) of the table rows ``rows``
        (P, r1) against the table columns ``cols`` (P, r2); pairs the table
        lacks are scored first."""
        a, b = rows[:, :, None], cols[:, None, :]
        sims = table.values[a, b]
        missing = np.isnan(sims)
        if missing.any():
            a, b = np.broadcast_arrays(a, b)
            kept = table is self._known
            for i, j in sorted(set(zip(a[missing].tolist(), b[missing].tolist()))):
                if not math.isnan(table.values[i, j]):
                    continue   # scored just before in the other orientation
                x, y = table.rows[i], table.cols[j]
                if y.tokens < x.tokens:
                    x, y = y, x
                value = statement_similarity(x, y, self.weights, self.dictionary,
                                             self.max_tokens, kinds=self._pair_kinds)
                if kept:   # its rows are its columns
                    table.values[i, j] = table.values[j, i] = value
                else:
                    table.put(x.tokens, y.tokens, value)
                    self._known.put(x.tokens, y.tokens, value)
            sims = table.values[rows[:, :, None], cols[:, None, :]]
        return sims


def _ones(mask: np.ndarray) -> np.ndarray:
    return mask.astype(np.float32)


def _incidences(left: list[tuple], right: list[tuple]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct tokens of the token tuples ``left`` and ``right``, and
    each side's statement x token incidence as float32 0/1."""
    local: dict[str, int] = {}
    hits = [[(n, local.setdefault(tok, len(local))) for n, st in enumerate(side) for tok in st]
            for side in (left, right)]
    out = []
    for side, pairs in zip((left, right), hits):
        incidence = np.zeros((len(side), len(local)), dtype=np.float32)
        n, t = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        incidence[n, t] = 1.0
        out.append(incidence)
    return list(local), *out


def _positions(statements: list[Statement],
               index: dict[tuple, int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``statements`` of those ``index`` has, and their index values."""
    found = [(n, index[st.tokens]) for n, st in enumerate(statements) if st.tokens in index]
    return (np.array([n for n, _ in found], dtype=np.intp),
            np.array([i for _, i in found], dtype=np.intp))


def document_similarity(d1: Document, d2: Document,
                        weights: TransformWeights | None = None,
                        dct: TransformationDictionary | None = None,
                        max_tokens: int = DEFAULT_MAX_TOKENS) -> float:
    return SimilarityComputer(weights, dct, max_tokens).document_similarity(d1, d2)


def build_similarity_matrix(corpus: list[Document],
                            weights: TransformWeights | None = None,
                            dct: TransformationDictionary | None = None,
                            max_tokens: int = DEFAULT_MAX_TOKENS) -> SimilarityMatrix:
    return SimilarityComputer(weights, dct, max_tokens).matrix(corpus)
