"""Document similarity and similarity-matrix construction.

Document similarity pairs up statements (each statement in at most one pair),
takes the best total statement similarity over all such pairings, and divides
by the larger statement count.  Unpaired statements contribute nothing.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
import numpy as np

from .dictionary import TransformationDictionary, empty_dictionary
from .text import DEFAULT_MAX_TOKENS, Document, Statement
from .transforms import (MIN_AFFIX_LENGTH, N_KINDS, TransformKind, TransformWeights,
                         _spans_for_token, all_missing_similarity, pair_kinds,
                         statement_similarity)

# Bytes one chunk of document pairs may hold while it is paired, counted by
# _pair_bytes; a chunk holds at least one pair.
_CHUNK_BYTES = 1 << 24
# Statement pairs a call scores or stores at once: the unrelated pairs of a
# matrix and the unscored pairs of a chunk go in slices of bounded memory.
_BATCH = 512


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
    """The statement similarities a computer keeps, NaN where not scored:
    ``values[i, j]`` for the statements ``rows[i]`` and ``rows[j]``;
    ``row_of`` maps statement tokens to positions."""

    values: np.ndarray
    rows: list[Statement]
    row_of: dict[tuple, int]

    def intern(self, statements: "_Statements") -> None:
        """Give every one of ``statements`` a row and a column."""
        for st in statements.statements:
            if st.tokens not in self.row_of:
                self.row_of[st.tokens] = len(self.rows)
                self.rows.append(st)
        n, old = len(self.rows), len(self.values)
        if n > old:
            grown = np.full((n, n), np.nan)
            grown[:old, :old] = self.values
            self.values = grown

    def positions(self, statements: "_Statements") -> np.ndarray:
        """Positions of ``statements`` here, -1 for those the table lacks;
        read again only after the table grows."""
        size, at = statements.known
        if size != len(self.rows):
            at = np.array([self.row_of.get(tokens, -1) for tokens in statements.tokens],
                          dtype=np.intp)
            statements.known = (len(self.rows), at)
        return at


class _TokenRelations:
    """Token ids, and ``pair_kinds`` of every two tokens with ids as an int16
    bitmask over TransformKind (0: unrelated), in a table of exactly as many
    rows and columns as there are ids.

    When a token gets its id, lookups over the tokens with ids find every
    token that ``pair_kinds`` may relate to it:

    * Synonym: the ids under each of its synonym groups;
    * Abbreviation: its expansion, and the short forms that expand to it;
    * Prefix and Suffix: its proper prefixes and suffixes of at least
      ``MIN_AFFIX_LENGTH`` characters, and the tokens that start or end with
      it, found by bisection in the sorted tokens and the sorted reversed
      tokens;
    * Misspelling: the ids that share a variant with at most ``cap``
      characters deleted (FastSS: Bocek, Hunt and Stiller, 2007).  Each edit
      of an optimal string alignment deletes at most one character on each
      side (a substitution or a transposition one on both), so two tokens
      within ``cap`` edits share such a variant.

    Only those candidates are checked with ``pair_kinds``; the rest of the
    token's row and column is 0, and the diagonal is Equal.
    """

    def __init__(self, dictionary: TransformationDictionary):
        self.dictionary = dictionary
        self.tokens: list[str] = []
        self.ids: dict[str, int] = {}
        self.kinds = np.zeros((0, 0), dtype=np.int16)
        self.forward: list[str] = []               # the tokens, sorted
        self.backward: list[str] = []              # the tokens reversed, sorted
        # synonym group -> ids, and deletion variant -> ids, in id order; most
        # variants have one id, which a tuple holds in less memory than a list
        self.synonyms: dict[int, tuple[int, ...]] = {}
        self.deletions: dict[str, tuple[int, ...]] = {}
        self.short_forms: dict[str, list[str]] = {}
        for short, long in dictionary.abbreviations.items():
            self.short_forms.setdefault(long, []).append(short)

    def add(self, statements: list) -> int:
        """Give every token of the token sequences ``statements`` an id and
        its relations; returns how many ids there are."""
        new = list(dict.fromkeys(tok for st in statements for tok in st if tok not in self.ids))
        old, n = len(self.tokens), len(self.tokens) + len(new)
        if new:
            grown = np.zeros((n, n), dtype=np.int16)
            grown[:old, :old] = self.kinds
            self.kinds = grown
        for i, tok in enumerate(new, start=old):
            self.kinds[i, i] = 1 << TransformKind.EQUAL
            keys = list(self._keys(tok))
            for j in sorted(self._candidates(tok, keys)):
                mask = sum(1 << kind for kind in pair_kinds(tok, self.tokens[j], self.dictionary))
                self.kinds[i, j] = self.kinds[j, i] = mask
            self.ids[tok] = i
            self.tokens.append(tok)
            bisect.insort(self.forward, tok)
            bisect.insort(self.backward, tok[::-1])
            for store, key in keys:
                store[key] = store.get(key, ()) + (i,)
        return n

    def forget(self, n: int) -> None:
        """Drop the tokens with ids from ``n`` on, and their relations."""
        for i, tok in enumerate(self.tokens[n:], start=n):
            del self.ids[tok]
            del self.forward[bisect.bisect_left(self.forward, tok)]
            del self.backward[bisect.bisect_left(self.backward, tok[::-1])]
            for store, key in self._keys(tok):
                rest = tuple(j for j in store[key] if j != i)
                if rest:
                    store[key] = rest
                else:
                    del store[key]
        if n < len(self.tokens):
            del self.tokens[n:]
            self.kinds = self.kinds[:n, :n].copy()

    def _keys(self, tok: str):
        """The (store, key) entries that hold the token's id: its synonym
        groups and its deletion variants."""
        for group in self.dictionary.synonym_group.get(tok, ()):
            yield self.synonyms, group
        cap = self.dictionary.max_edit_distance
        if cap < 1 or len(tok) < self.dictionary.min_token_length:
            return
        level = variants = {tok}
        for _ in range(cap):
            level = {v[:k] + v[k + 1:] for v in level for k in range(len(v))}
            variants = variants | level
        for variant in variants:
            yield self.deletions, variant

    def _candidates(self, tok: str, keys: list) -> set[int]:
        """Ids of the tokens that pair_kinds may relate to ``tok``, which has
        none yet; ``keys`` are its ``_keys``."""
        ids = self.ids
        found: set[int] = set()
        for store, key in keys:
            found.update(store.get(key, ()))
        for other in (self.dictionary.abbreviations.get(tok), *self.short_forms.get(tok, ()),
                      *(part for k in range(MIN_AFFIX_LENGTH, len(tok))
                        for part in (tok[:k], tok[-k:]))):
            if other in ids:
                found.add(ids[other])
        if len(tok) >= MIN_AFFIX_LENGTH:
            for ordered, key, back in ((self.forward, tok, False),
                                       (self.backward, tok[::-1], True)):
                k = bisect.bisect_left(ordered, key)
                while k < len(ordered) and ordered[k].startswith(key):
                    found.add(ids[ordered[k][::-1] if back else ordered[k]])
                    k += 1
        return found


@functools.cache
def _best_kinds(wvals: tuple[float, ...]) -> np.ndarray:
    """The kind a token pair's move keeps, by the pair's ``pair_kinds``
    bitmask: the lowest kind of the highest weight, as ``_best_moves``
    picks it; -1 for an unrelated pair."""
    best = np.full(1 << N_KINDS, -1, dtype=np.intp)
    for mask in range(1, 1 << N_KINDS):
        best[mask] = max((kind for kind in range(N_KINDS) if mask >> kind & 1),
                         key=lambda kind: (wvals[kind], -kind))
    best.flags.writeable = False   # shared by every caller
    return best


def _hits(text: str, word: str):
    """Every offset at which ``word`` occurs in ``text``."""
    at = text.find(word)
    while at >= 0:
        yield at
        at = text.find(word, at + 1)


def _span_keys(st: tuple[str, ...], expansions: dict[tuple, list[str]]) -> set[str]:
    """Every word that may have a span in the statement ``st``: the
    concatenations and the initials of its runs of two or more tokens, and
    the dictionary acronyms (``expansions``: expansion -> acronyms) whose
    expansion is one of its runs."""
    keys = set()
    for i, tok in enumerate(st):
        joined, initials = tok, tok[0]
        for other in st[i + 1:]:
            joined += other
            initials += other[0]
            keys.add(joined)
            keys.add(initials)
    for length in {len(seq) for seq in expansions}:
        for j0 in range(len(st) - length + 1):
            keys.update(expansions.get(st[j0:j0 + length], ()))
    return keys


class _Statements:
    """Distinct statements of one side of a call, and the ids of their
    tokens: ``flat`` lists the ids statement by statement, ``start`` gives
    where each statement's ids begin, and ``owner`` the statement of each
    id.  ``known`` caches the statements' positions in the computer's kept
    table, with the size of the table they were read at."""

    def __init__(self, statements: list[Statement], relations: _TokenRelations):
        self.statements = statements
        self.tokens = [st.tokens for st in statements]
        self.position = {tokens: n for n, tokens in enumerate(self.tokens)}
        relations.add(self.tokens)
        ids = relations.ids
        self.lengths = np.array([len(st) for st in self.tokens], dtype=np.intp)
        self.flat = np.array([ids[tok] for st in self.tokens for tok in st], dtype=np.intp)
        self.owner = np.repeat(np.arange(len(self.tokens)), self.lengths)
        self.start = np.cumsum(self.lengths) - self.lengths
        self.known: tuple[int, np.ndarray | None] = (-1, None)

    @functools.cached_property
    def text(self) -> tuple[str, bytes, list[int], str, list[int]]:
        """The statements for ``spanned_by``: their tokens joined, one
        statement a line, with a flag at every token boundary and the offset
        of every line; and their tokens' initials, one statement a line, with
        the offset of every line."""
        joined = "\n".join("".join(st) for st in self.tokens)
        bounds = bytearray(len(joined) + 1)
        starts, at = [], 0
        for st in self.tokens:
            starts.append(at)
            bounds[at] = 1
            for tok in st:
                at += len(tok)
                bounds[at] = 1
            at += 1
        initials = "\n".join("".join(tok[0] for tok in st) for st in self.tokens)
        initial_starts = (np.cumsum(self.lengths + 1) - self.lengths - 1).tolist()
        return joined, bytes(bounds), starts, initials, initial_starts

    def spanned_by(self, word: str, dct: TransformationDictionary,
                   ids: dict[str, int]) -> set[int]:
        """The statements that ``word`` may have a span in, by search in
        ``text``: every statement it has one in, where it is the
        concatenation of two or more tokens, the initials of len(word)
        tokens, or a dictionary acronym whose expansion occurs.  ``ids``
        holds every token of the statements; a concatenation is looked for
        only when a proper prefix and a proper suffix of ``word`` are in it."""
        joined, bounds, starts, initials, initial_starts = self.text
        found = set()
        if (any(word[:k] in ids for k in range(1, len(word)))
                and any(word[k:] in ids for k in range(1, len(word)))):
            found.update(bisect.bisect_right(starts, at) - 1 for at in _hits(joined, word)
                         if bounds[at] and bounds[at + len(word)]
                         and 1 in bounds[at + 1:at + len(word)])
        if len(word) >= 2:
            found.update(bisect.bisect_right(initial_starts, at) - 1
                         for at in _hits(initials, word))
        seq = dct.acronyms.get(word)
        if seq is not None:
            expansion = "".join(seq)
            found.update(bisect.bisect_right(starts, at) - 1 for at in _hits(joined, expansion)
                         if bounds[at] and bounds[at + len(expansion)])
        return found


@dataclass
class _Docs:
    """Distinct documents as one side of a pairing, in canonical order:
    ``rank`` orders them against the other side (equal ranks are equal
    documents), ``size`` gives their statement counts, and ``ids[r]``, for
    the documents of r statements, the table positions of those statements
    in canonical order, one row a document."""

    rank: np.ndarray
    size: np.ndarray
    ids: dict[int, np.ndarray]

    @classmethod
    def of(cls, keys: list[tuple], rank, position: dict[tuple, int]) -> "_Docs":
        size = np.array([len(key) for key in keys], dtype=np.intp)
        ids = {r: np.array([[position[tokens] for tokens in keys[k]]
                            for k in np.flatnonzero(size == r).tolist()], dtype=np.intp)
               for r in np.unique(size[size > 0]).tolist()}
        return cls(np.asarray(rank, dtype=np.intp), size, ids)

    def runs(self):
        """(r, lo, hi) for each statement count r: the documents lo .. hi - 1
        have r statements, since keys come grouped by statement count."""
        for r in self.ids:
            yield (r, int(np.searchsorted(self.size, r, "left")),
                   int(np.searchsorted(self.size, r, "right")))


class _Corpus:
    """The corpus side of a call: the distinct document keys in canonical
    order, each document's index into them, the distinct statements, and the
    documents as a pairing side over those statements, corpus key k at rank
    2k + 1.  ``rows`` keeps the one of the last corpus it was given."""

    def __init__(self, docs: list[Document], relations: _TokenRelations):
        self.docs = list(docs)
        keyed = [_doc_key(d) for d in self.docs]
        self.keys = sorted(set(keyed), key=_canonical)
        at = {key: n for n, key in enumerate(self.keys)}
        self.inverse = np.array([at[key] for key in keyed], dtype=np.intp)
        self.statements = _Statements(_distinct(self.docs), relations)
        self.side = _Docs.of(self.keys, 2 * np.arange(len(self.keys)) + 1,
                             self.statements.position)

    def holds(self, docs: list[Document]) -> bool:
        """Whether ``docs`` are this corpus's documents, the same objects in
        the same order."""
        return len(docs) == len(self.docs) and all(map(operator.is_, docs, self.docs))

    def rank(self, key: tuple) -> int:
        """The rank of a document key against the corpus keys, by bisection:
        2k + 1 for the k-th key, 2k for a key that falls just before it."""
        k = bisect.bisect_left(self.keys, _canonical(key), key=_canonical)
        return 2 * k + 1 if k < len(self.keys) and self.keys[k] == key else 2 * k


class _Call:
    """One matrix, rows or statement_similarity call, dropped when it returns.

    ``values[i, j]`` is the similarity of the left statement i and the right
    statement j, NaN until scored; it starts from what the kept table
    ``known`` holds, and ``kept_at`` gives both sides' positions in that
    table.  ``turn`` gives, for each left statement, its right position, and for
    each right statement, its left position (-1 where the other side lacks
    it), so that a score fills both orientations.  ``found[st][word]`` holds
    the spans of a word in the statement ``st`` (``_spans_for_token``, at
    most once per word and statement), and ``memo`` the statement DP values
    by move structure.
    """

    def __init__(self, left: _Statements, right: _Statements, known: _Table,
                 dictionary: TransformationDictionary):
        self.left, self.right, self.known = left, right, known
        self.dictionary = dictionary
        p, q = known.positions(left), known.positions(right)
        self.kept_at = p, q
        self.values = np.full((len(left.tokens), len(right.tokens)), np.nan)
        i, j = np.flatnonzero(p >= 0), np.flatnonzero(q >= 0)
        self.values[np.ix_(i, j)] = known.values[np.ix_(p[i], q[j])]
        across = np.array([right.position.get(st, -1) for st in left.tokens], dtype=np.intp)
        back = np.full(len(right.tokens), -1, dtype=np.intp)
        back[across[across >= 0]] = np.flatnonzero(across >= 0)
        self.turn = across, back
        self.found: dict[tuple, dict[str, list]] = {}
        self.memo: dict = {}

    def spans(self, word: str, st: tuple) -> list:
        found = self.found.setdefault(st, {})
        if word not in found:
            found[word] = _spans_for_token(word, st, self.dictionary)
        return found[word]

    def store(self, i: np.ndarray, j: np.ndarray, value: np.ndarray) -> None:
        """Store the similarities ``value`` of the left statements ``i`` and
        the right statements ``j`` in both orientations, here and in the
        kept table."""
        self.values[i, j] = value
        across, back = self.turn
        ti, tj = back[j], across[i]
        both = (ti >= 0) & (tj >= 0)
        self.values[ti[both], tj[both]] = value[both]
        p, q = self.kept_at[0][i], self.kept_at[1][j]
        both = (p >= 0) & (q >= 0)
        kept = self.known.values
        kept[p[both], q[both]] = kept[q[both], p[both]] = value[both]


class SimilarityComputer:
    """Caches statement similarities across many document pairs.

    All methods are pure functions of the inputs; the caches only memoize.
    ``matrix`` interns every distinct statement of its corpus once, into the
    rows and columns of a dense statement-similarity table that the computer
    keeps.  ``rows`` interns nothing: it scores its new documents' statements
    against the corpus statements in a table of its own, which starts from
    what the kept table holds, so a computer reused for many requests keeps
    only its matrix corpora.  For the last corpus it was given, ``rows``
    keeps the corpus side (``_Corpus``: document keys in canonical order,
    distinct statements with their token ids, the per-class statement
    positions) and reuses it while a call passes the same documents in the
    same order; a new document is placed among the corpus keys by
    bisection.  So a request costs Python work in proportion to its own
    statements and related pairs, not to the corpus.

    A call first gives every unscored pair of its statements that shares no
    relation (no token pair that ``pair_kinds`` relates, no span) the
    all-Missing score, without the statement DP; that score is exactly what
    the DP returns for such a pair.  Relatedness is decided for the whole
    call at once, as boolean products of statement-token incidences with the
    token relations and with the spans.  A token has a span in a statement
    only where it is the concatenation or the initials of a run of two or
    more of its tokens, or a dictionary acronym whose expansion occurs, so
    the spans are found by lookup: the words a statement can absorb are
    enumerated from its runs, and a word's candidate statements are found by
    searching the statements' joined tokens and initials; each candidate is
    checked once with ``_spans_for_token``.  The call then scores the
    related statement pairs that its document pairs hold and its table
    lacks, each with one ``statement_similarity``, handing it the pair's
    relations, read for the pending pairs (``_BATCH`` at a time) with one
    fancy index into the token x token table, and the call's memo, so the DP
    runs once per move structure of the call.  The token relations come from a relation index
    (``_TokenRelations``): when a token gets its id, lookups find the few
    tokens it may be related to, and ``pair_kinds`` runs on those candidates
    only; a ``rows`` call drops the tokens that only its new documents hold.
    The span map and the memo live for one call.  A new document identical
    to a non-empty corpus document scores 1.0 without a pairing.

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
        self._known = _Table(np.empty((0, 0)), [], {})
        self._relations = _TokenRelations(self.dictionary)
        self._corpus: _Corpus | None = None
        # dictionary acronym expansion -> the acronyms that expand to it
        self._expansions: dict[tuple, list[str]] = {}
        for word, seq in self.dictionary.acronyms.items():
            self._expansions.setdefault(seq, []).append(word)

    def statement_similarity(self, a: Statement, b: Statement) -> float:
        held = len(self._relations.tokens)
        try:
            call = self._call(*(_Statements([st], self._relations) for st in (a, b)))
            first = np.zeros((1, 1), dtype=np.intp)
            return float(self._lookup(call, first, first)[0, 0, 0])
        finally:
            self._relations.forget(held)

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
        docs = _Corpus(corpus, self._relations)
        self._known.intern(docs.statements)
        su = self._pairs(docs.side, docs.side, self._call(docs.statements, docs.statements),
                         upper=True)
        su += su.T   # the call is gone, and the upper triangle is not kept twice
        np.fill_diagonal(su, 1.0)
        values = su[np.ix_(docs.inverse, docs.inverse)]
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
        if self._corpus is None or not self._corpus.holds(corpus):
            self._corpus = _Corpus(corpus, self._relations)
        kept = self._corpus
        keyed = [_doc_key(d) for d in new_docs]
        keys = sorted(set(keyed), key=_canonical)
        at = {key: n for n, key in enumerate(keys)}
        # the kept table's and the corpus's tokens have ids already; ids from
        # ``held`` on are tokens that only the new documents hold
        held = len(self._relations.tokens)
        try:
            new = _Statements(_distinct(new_docs), self._relations)
            side = _Docs.of(keys, [kept.rank(key) for key in keys], new.position)
            su = self._pairs(side, kept.side, self._call(new, kept.statements), upper=False)
        finally:
            # forget the relations of tokens that neither the kept table nor
            # the corpus holds, so requests with novel words do not grow the memo
            self._relations.forget(held)
        return su[np.ix_([at[key] for key in keyed], kept.inverse)]

    def _call(self, left: _Statements, right: _Statements) -> _Call:
        """A call of ``left`` against ``right``, with every unscored pair
        that shares no relation scored already."""
        call = _Call(left, right, self._known, self.dictionary)
        self._fill_unrelated(call)
        return call

    def _fill_unrelated(self, call: _Call) -> None:
        """Score every unscored pair of the call's statements that shares no
        relation, without the statement DP, and find the spans of the call's
        tokens in its statements.

        A pair is related when pair_kinds relates one of its token pairs or a
        token of one statement has a span in the other.  Otherwise the only
        complete graph makes every token Missing, so the pair gets
        ``all_missing_similarity``, bitwise what the DP returns.  Statement
        pairs are decided for the whole call at once, as the boolean
        products (T_left R + H) T_rightᵀ + T_left K of statement-token
        incidences T, token relations R read from the relation index, left
        statement x token spans H and token x right statement spans K.  Pairs
        with a statement over ``max_tokens`` are left to the DP, which raises
        ``TokenCapExceeded`` for them.
        """
        left, right = call.left, call.right
        todo = (np.isnan(call.values) & (left.lengths <= self.max_tokens)[:, None]
                & (right.lengths <= self.max_tokens))
        li, ci = np.flatnonzero(todo.any(axis=1)), np.flatnonzero(todo.any(axis=0))
        if not li.size:
            return
        todo = todo[np.ix_(li, ci)]
        row, col = _positions(len(left.tokens), li), _positions(len(right.tokens), ci)
        lo, ro = row[left.owner], col[right.owner]
        lf, rf = left.flat[lo >= 0], right.flat[ro >= 0]
        tokens, column = np.unique(np.concatenate([lf, rf]), return_inverse=True)
        # 0/1 matrices in float32, so that the boolean products run in BLAS
        # and a product is > 0 exactly when one of its terms is 1
        a = np.zeros((li.size, tokens.size), dtype=np.float32)
        b = np.zeros((ci.size, tokens.size), dtype=np.float32)
        a[lo[lo >= 0], column[:lf.size]] = 1.0
        b[ro[ro >= 0], column[lf.size:]] = 1.0
        mine, first = np.unique(lf, return_index=True)   # the left tokens
        mine_at = column[first]
        reach = a[:, mine_at] @ _ones(self._relations.kinds[np.ix_(mine, tokens)] > 0)
        spanned = np.zeros((tokens.size, ci.size), dtype=np.float32)
        ids = self._relations.ids
        # a right token with a span in a left statement: one of the words
        # the statement's runs can absorb
        for s, n in enumerate(li.tolist()):
            st = left.tokens[n]
            for word in _span_keys(st, self._expansions):
                t = ids.get(word)
                if t is not None:
                    k = int(np.searchsorted(tokens, t))
                    if k < tokens.size and tokens[k] == t and call.spans(word, st):
                        reach[s, k] = 1.0
        # a left token with a span in a right statement: found by search
        for t, k in zip(mine.tolist(), mine_at.tolist()):
            word = self._relations.tokens[t]
            for c in right.spanned_by(word, self.dictionary, ids):
                if col[c] >= 0 and call.spans(word, right.tokens[c]):
                    spanned[k, col[c]] = 1.0
        u, v = np.nonzero(todo & ((reach @ b.T + a @ spanned) == 0))
        # the all-Missing score by a pair's token count
        counts = np.unique(np.add.outer(np.unique(left.lengths[li]), np.unique(right.lengths[ci])))
        value = np.zeros(counts[-1] + 1)
        value[counts] = [all_missing_similarity(n, self.weights) for n in counts.tolist()]
        for k in range(0, u.size, _BATCH):
            i, j = li[u[k:k + _BATCH]], ci[v[k:k + _BATCH]]
            call.store(i, j, value[left.lengths[i] + right.lengths[j]])

    def _pairs(self, left: _Docs, right: _Docs, call: _Call, upper: bool) -> np.ndarray:
        """Similarity of the distinct documents ``left`` and ``right`` at
        [a, b], whose statement positions are those of the call's left and
        right statements.  With ``upper`` only pairs whose left rank is
        below the right rank are computed and the others stay 0, as do pairs
        with an empty document.  Without it, a pair of one non-empty document
        with itself is 1.0 without a pairing: r statements that each score
        1.0 sum to exactly r."""
        out = np.zeros((len(left.rank), len(right.rank)))
        for ra, a0, a1 in left.runs():
            for rb, b0, b1 in right.runs():
                # chunks of the block's (a, b) pairs in row-major order
                per = max(1, _CHUNK_BYTES // _pair_bytes(min(ra, rb), max(ra, rb)))
                width = b1 - b0
                for k0 in range(0, (a1 - a0) * width, per):
                    k = np.arange(k0, min(k0 + per, (a1 - a0) * width))
                    at, bt = a0 + k // width, b0 + k % width
                    a, b = left.rank[at], right.rank[bt]
                    keep = a < b if upper else a != b
                    at, bt, a, b = at[keep], bt[keep], a[keep], b[keep]
                    if a.size:
                        sims = self._lookup(call, left.ids[ra][at - a0], right.ids[rb][bt - b0])
                        # the document of the lower rank supplies the rows
                        if ra > rb:
                            sims = sims.transpose(0, 2, 1)
                        elif ra == rb and (b < a).any():
                            sims = np.where((b < a)[:, None, None], sims.transpose(0, 2, 1), sims)
                        out[at, bt] = _best_pairing(sims)
        if not upper:
            out[(left.rank[:, None] == right.rank) & (left.size > 0)[:, None]] = 1.0
        return out

    def _lookup(self, call: _Call, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Statement similarities (P, r1, r2) of the call's left statements
        ``rows`` (P, r1) against its right statements ``cols`` (P, r2); pairs
        the call lacks are scored first, each statement pair once."""
        sims = call.values[rows[:, :, None], cols[:, None, :]]
        missing = np.isnan(sims)
        if missing.any():
            p, r, c = np.nonzero(missing)
            width = call.values.shape[1]
            cells = np.unique(rows[p, r] * width + cols[p, c])
            i, j = cells // width, cells % width
            # of a statement pair pending in both orientations, score one
            across, back = call.turn
            ti, tj = back[j], across[i]
            turned = np.where((ti >= 0) & (tj >= 0), ti * width + tj, -1)
            at = np.minimum(np.searchsorted(cells, turned), cells.size - 1)
            first = (cells <= turned) | (cells[at] != turned)
            i, j = i[first], j[first]
            for k in range(0, i.size, _BATCH):
                u, v = i[k:k + _BATCH], j[k:k + _BATCH]
                call.store(u, v, self._score(call, u, v))
            sims = call.values[rows[:, :, None], cols[:, None, :]]
        return sims

    def _score(self, call: _Call, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Statement similarities of the call's left statements ``i`` and
        right statements ``j``, each pair with one ``statement_similarity``,
        the statement with the smaller tokens first.  It gets the pair's
        relations: the best kind of every related token pair, read for all
        the pairs' p x q token blocks with one fancy index into the relation
        index's table, and the spans the call found; and the call's memo."""
        left, right = call.left, call.right
        il, jl = i.tolist(), j.tolist()
        swap = np.array([right.tokens[y] < left.tokens[x] for x, y in zip(il, jl)], dtype=bool)
        flat = np.concatenate([left.flat, right.flat])
        starts = left.start[i], right.start[j] + left.flat.size
        lengths = left.lengths[i], right.lengths[j]
        xs, ys = np.where(swap, starts[1], starts[0]), np.where(swap, starts[0], starts[1])
        p, q = np.where(swap, lengths[1], lengths[0]), np.where(swap, lengths[0], lengths[1])
        size = p * q
        pair = np.repeat(np.arange(size.size), size)
        cell = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        x, y = cell // q[pair], cell % q[pair]
        kind = _best_kinds(self.weights.values)[
            self._relations.kinds[flat[xs[pair] + x], flat[ys[pair] + y]]]
        hit = np.flatnonzero(kind >= 0)
        moves: list[list] = [[] for _ in il]
        for k, *move in zip(pair[hit].tolist(), x[hit].tolist(), y[hit].tolist(),
                            kind[hit].tolist()):
            moves[k].append(move)
        values = []
        none: dict = {}
        for found, u, v, turned in zip(moves, il, jl, swap.tolist()):
            first, second = left.statements[u], right.statements[v]
            if turned:
                first, second = second, first
            relations = (found, call.found.get(second.tokens, none),
                         call.found.get(first.tokens, none))
            values.append(statement_similarity(first, second, self.weights, self.dictionary,
                                               self.max_tokens, relations=relations,
                                               memo=call.memo))
        return np.array(values)


def _ones(mask: np.ndarray) -> np.ndarray:
    return mask.astype(np.float32)


def _positions(n: int, chosen: np.ndarray) -> np.ndarray:
    """For each of n items, its position in ``chosen``, or -1."""
    at = np.full(n, -1)
    at[chosen] = np.arange(chosen.size)
    return at


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
