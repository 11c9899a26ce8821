"""TF-IDF term-document matrices and the truncated-SVD (LSI) baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVocabulary, RankDeficient
from .text import Document


@dataclass(frozen=True)
class TermDocumentMatrix:
    """Documents by vocabulary, with raw counts or TF-IDF weights."""

    vocabulary: tuple[str, ...]
    matrix: np.ndarray
    idf: np.ndarray | None = None     # natural-log idf, present for tfidf

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def _document_tokens(doc: Document) -> list[str]:
    return [tok for st in doc.statements for tok in st.tokens]


def build_counts(corpus: list[Document]) -> TermDocumentMatrix:
    vocab = tuple(sorted({tok for doc in corpus for tok in _document_tokens(doc)}))
    if not vocab:
        raise EmptyVocabulary("corpus has no tokens")
    return TermDocumentMatrix(vocab, vectorize(corpus, vocab))


def build_tfidf(corpus: list[Document]) -> TermDocumentMatrix:
    """tf = raw count, idf = ln(m / df), weight = tf * idf (no smoothing)."""
    tdm = build_counts(corpus)
    df = (tdm.matrix > 0).sum(axis=0)
    idf = np.log(tdm.m / df)
    weights = tdm.matrix
    weights *= idf[None, :]     # the counts become the weights, in place
    return TermDocumentMatrix(tdm.vocabulary, weights, idf)


def vectorize(docs: list[Document], vocabulary, idf: np.ndarray | None = None) -> np.ndarray:
    """Token counts of the documents over the vocabulary, times idf if given.

    Tokens outside the vocabulary are dropped.
    """
    index = {tok: j for j, tok in enumerate(vocabulary)}
    tokens = [_document_tokens(doc) for doc in docs]
    cols = np.array([index.get(tok, -1) for toks in tokens for tok in toks], dtype=np.intp)
    rows = np.repeat(np.arange(len(docs)), [len(toks) for toks in tokens])
    known = cols >= 0
    out = np.zeros((len(docs), len(vocabulary)))
    np.add.at(out, (rows[known], cols[known]), 1.0)
    if idf is not None:
        out *= idf[None, :]
    return out


@dataclass(frozen=True)
class LsiModel:
    """Truncated SVD of a term-document matrix.

    Training documents are represented by U_l * diag(s_l); new documents
    project through the right singular vectors: rows @ V_l.  ``vocabulary``
    and ``idf`` are those of the factorized matrix.
    """

    doc_embedding: np.ndarray     # m x dims
    components: np.ndarray        # dims x V  (V_l^T)
    singular_values: np.ndarray
    vocabulary: tuple[str, ...] = ()
    idf: np.ndarray | None = None

    @property
    def dims(self) -> int:
        return self.components.shape[0]

    def leading(self, dims: int) -> "LsiModel":
        """The model that ``fit_lsi`` returns at ``dims`` <= ``self.dims``.

        A fit computes one SVD whatever its width and fixes each column's
        sign from that column alone, so the leading columns of a wider fit
        are bitwise a narrower fit's; they are copied, C-ordered.
        """
        return LsiModel(self.doc_embedding[:, :dims].copy(), self.components[:dims].copy(),
                        self.singular_values[:dims].copy(), self.vocabulary, self.idf)


def fit_lsi(tdm: TermDocumentMatrix, dims: int) -> LsiModel:
    m, v = tdm.matrix.shape
    if dims < 1 or dims > min(m, v):
        raise RankDeficient(f"need 1 <= dims <= min(m, V) = {min(m, v)}, got {dims}")
    u, s, vt = np.linalg.svd(tdm.matrix, full_matrices=False)
    # copies, so that the model holds its own dims rows of V^T and not all of them
    u, s, vt = u[:, :dims], s[:dims].copy(), vt[:dims].copy()
    # sign convention: largest-magnitude entry of each right singular vector
    # is positive
    for j in range(dims):
        i = int(np.argmax(np.abs(vt[j])))
        if vt[j, i] < 0.0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]
    return LsiModel(doc_embedding=u * s[None, :], components=vt, singular_values=s,
                    vocabulary=tdm.vocabulary, idf=tdm.idf)


def reconstruction(model: LsiModel) -> np.ndarray:
    return model.doc_embedding @ model.components
