"""Property test of the block pairing kernel on random small corpora.

Needs hypothesis (the ``test`` extra); without it this module is skipped and
the rest of the suite runs as usual.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from slemap.config import PipelineConfig  # noqa: E402
from slemap.similarity import SimilarityComputer  # noqa: E402
from slemap.text import Document, Statement, normalize  # noqa: E402

from oracles import canonical_statements, oracle_document_similarity  # noqa: E402


def stmt(*tokens):
    return Statement(tuple(tokens))


POOL = ["chest", "pain", "heart", "racing", "dizzy", "faint"]
statements = st.lists(st.sampled_from(POOL), min_size=1, max_size=3).map(lambda t: stmt(*t))


@st.composite
def corpora(draw):
    """2..6 documents of 0..12 statements (0 is a sentinel), with shuffled
    duplicates of earlier documents mixed in."""
    docs = []
    for k in range(draw(st.integers(2, 6))):
        if docs and draw(st.booleans()):
            source = docs[draw(st.integers(0, len(docs) - 1))].statements
            stmts = tuple(draw(st.permutations(source)))
        else:
            stmts = tuple(draw(st.lists(statements, min_size=0, max_size=12)))
        docs.append(Document(id=str(k), statements=stmts))
    return docs


CFG = PipelineConfig()
# equal-length documents whose pairing sum rounds differently in the two
# orientations (see TestDocumentSimilarity.test_exact_symmetry_and_statement_order)
ORIENTED = [normalize(text, CFG.normalization(), doc_id=str(k)) for k, text in enumerate((
    "collapse durin activity, collapse durin activity, faainted at sports practice",
    "faainted at sports practice, collapse during activity, fainted duri practice"))]


class TestBlockKernel:
    """matrix, rows and per-pair document_similarity agree bitwise with each
    other and with the brute-force pairing oracle."""

    @staticmethod
    def computer():
        return SimilarityComputer(CFG.transform_weights(), CFG.load_dictionary())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(corpora())
    @example(ORIENTED)
    @example(ORIENTED[::-1])
    def test_matrix_rows_pairs_and_oracle_agree(self, docs):
        s = self.computer().matrix(docs).values
        r = self.computer().rows(docs, docs)
        comp = self.computer()
        for i, d1 in enumerate(docs):
            assert r[i, i] == (0.0 if d1.is_sentinel else 1.0)
            for j, d2 in enumerate(docs):
                if i == j:
                    continue
                want = s[i, j]
                assert r[i, j] == want
                assert self.computer().document_similarity(d1, d2) == want
                assert comp.document_similarity(d1, d2) == want
                if d1.is_sentinel or d2.is_sentinel:
                    assert want == 0.0
                elif max(len(d1), len(d2)) <= 6:
                    s1, s2 = canonical_statements(d1, d2)
                    sims = [[comp.statement_similarity(stmt(*x), stmt(*y)) for y in s2]
                            for x in s1]
                    assert oracle_document_similarity(sims, len(s1), len(s2)) == want
