"""Document similarity and similarity-matrix construction.

Document similarity pairs up statements (each statement in at most one pair),
takes the best total statement similarity over all such pairings, and divides
by the larger statement count.  Unpaired statements contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .dictionary import TransformationDictionary, empty_dictionary
from .text import DEFAULT_MAX_TOKENS, Document, Statement
from .transforms import TransformWeights, statement_similarity


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


def _dedupe(docs: list[Document]) -> tuple[list[tuple], np.ndarray]:
    """Distinct document keys in first-seen order, and each document's index
    into them."""
    index: dict[tuple, int] = {}
    inverse = np.array([index.setdefault(_doc_key(d), len(index)) for d in docs],
                       dtype=np.intp)
    return list(index), inverse


class SimilarityComputer:
    """Caches statement- and document-level similarities across many pairs.

    All methods are pure functions of the inputs; the caches only memoize.
    Documents are paired in a canonical order (statements sorted by tokens,
    the shorter document first, equal-length documents ordered by key), so
    results are identical whether pairs are evaluated one at a time or in
    bulk, in any order, and do not depend on statement order.

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
        self._stmt_cache: dict[tuple, float] = {}
        self._doc_cache: dict[tuple, float] = {}

    def statement_similarity(self, a: Statement, b: Statement) -> float:
        return self._token_similarity(a.tokens, b.tokens)

    def _token_similarity(self, ka: tuple, kb: tuple) -> float:
        key = (ka, kb) if ka <= kb else (kb, ka)
        val = self._stmt_cache.get(key)
        if val is None:
            val = statement_similarity(Statement(key[0]), Statement(key[1]), self.weights,
                                       self.dictionary, self.max_tokens)
            self._stmt_cache[key] = val
        return val

    def document_similarity(self, d1: Document, d2: Document) -> float:
        return self._key_similarity(_doc_key(d1), _doc_key(d2))

    def _key_similarity(self, k1: tuple, k2: tuple) -> float:
        if not k1 or not k2:
            return 0.0   # sentinel documents have no statements
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        val = self._doc_cache.get(key)
        if val is None:
            val = self._pairing(*key)
            self._doc_cache[key] = val
        return val

    def _pairing(self, s1: tuple, s2: tuple) -> float:
        if len(s1) > len(s2):
            s1, s2 = s2, s1
        # used s2 statements (bitmask) -> largest prefix sum; the first row
        # starts the sums, since 0.0 + x == x
        best = {1 << j: self._token_similarity(s1[0], y) for j, y in enumerate(s2)}
        for x in s1[1:]:
            row = [self._token_similarity(x, y) for y in s2]
            grown: dict[int, float] = {}
            for mask, total in best.items():
                bit = 1
                for sim in row:
                    if not mask & bit:
                        val = total + sim
                        if val > grown.get(mask | bit, -1.0):
                            grown[mask | bit] = val
                    bit <<= 1
            best = grown
        return max(best.values()) / len(s2)

    def matrix(self, corpus: list[Document]) -> SimilarityMatrix:
        """Full similarity matrix: upper triangle computed, mirrored, unit diagonal.

        Duplicate documents (same statement multiset) are collapsed before the
        pairwise pass, which leaves the result identical but much cheaper on
        template-heavy corpora.
        """
        m = len(corpus)
        if m < 2:
            raise ValueError("need at least 2 documents")
        keys, inverse = _dedupe(corpus)
        n_u = len(keys)
        su = np.eye(n_u)
        for i in range(n_u):
            for j in range(i + 1, n_u):
                su[i, j] = su[j, i] = self._key_similarity(keys[i], keys[j])
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
        keys, inverse = _dedupe(corpus)
        new_keys, new_inverse = _dedupe(new_docs)
        su = np.empty((len(new_keys), len(keys)))
        for r, nk in enumerate(new_keys):
            su[r] = [self._key_similarity(nk, k) for k in keys]
        return su[np.ix_(new_inverse, inverse)]


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
