"""Property tests of the block pairing kernel on random small corpora, and
of the token relation index on random vocabularies.

Needs hypothesis (the ``test`` extra); without it this module is skipped and
the rest of the suite runs as usual.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from slemap.config import PipelineConfig  # noqa: E402
from slemap.dictionary import MAX_EDIT_DISTANCE, build_dictionary  # noqa: E402
from slemap.similarity import SimilarityComputer, _TokenRelations  # noqa: E402
from slemap.text import Document, Statement, normalize  # noqa: E402
from slemap.transforms import pair_kinds  # noqa: E402

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


LETTERS = "abcd"
# every misspelling cap, 0 last so that examples do not cluster at it
CAPS = (*range(1, MAX_EDIT_DISTANCE + 1), 0)


@st.composite
def edited(draw, word):
    """``word`` after one substitution, deletion, insertion or adjacent
    transposition."""
    op = draw(st.sampled_from(["substitute", "delete", "insert", "transpose"]))
    at = draw(st.integers(0, len(word)))
    letter = draw(st.sampled_from(LETTERS))
    if op == "insert":
        return word[:at] + letter + word[at:]
    at = min(at, len(word) - 1)
    if op == "substitute":
        return word[:at] + letter + word[at + 1:]
    if op == "delete" or at + 1 == len(word):
        return word[:at] + word[at + 1:]
    return word[:at] + word[at + 1] + word[at] + word[at + 2:]


@st.composite
def relation_runs(draw):
    """A dictionary and token batches over a vocabulary of affix families and
    one- and two-edit variants of a few stems, with multi-group synonyms and
    abbreviations; then add and forget steps over those tokens."""
    stems = draw(st.lists(st.text(LETTERS, min_size=1, max_size=7), min_size=1, max_size=4))
    vocabulary = set(stems)
    for stem in stems:
        vocabulary.add(draw(st.text(LETTERS, max_size=3)) + stem)
        vocabulary.add(stem + draw(st.text(LETTERS, max_size=3)))
        once = draw(edited(stem))
        vocabulary.update((once, draw(edited(once))))
    words = sorted(tok for tok in vocabulary if tok)
    token = st.sampled_from(words)
    groups = draw(st.lists(st.lists(token, min_size=2, max_size=3), max_size=3))
    abbreviations = draw(st.dictionaries(token, token, max_size=3))
    dct = build_dictionary(groups, None, abbreviations,
                           max_edit_distance=draw(st.sampled_from(CAPS)),
                           min_token_length=draw(st.integers(0, 5)))
    steps = draw(st.lists(st.one_of(
        st.lists(st.lists(token, min_size=1, max_size=3), min_size=1, max_size=3),
        st.integers(0, len(words))), min_size=1, max_size=6))
    return dct, steps


class TestRelationIndex:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(relation_runs())
    def test_equals_brute_force_after_adds_and_forgets(self, run):
        """After every step, the table is pair_kinds on every pair of tokens
        with ids, and -1 beyond them, and the lookups are those of an index
        that only ever added the tokens it holds."""
        dct, steps = run
        relations = _TokenRelations(dct)
        for step in steps:
            if isinstance(step, int):
                relations.forget(min(step, len(relations.tokens)))
            else:
                relations.add(step)
            tokens, n = relations.tokens, len(relations.tokens)
            want = [[sum(1 << kind for kind in pair_kinds(x, y, dct)) for y in tokens]
                    for x in tokens]
            assert relations.kinds[:n, :n].tolist() == want
            assert (relations.kinds[n:] == -1).all() and (relations.kinds[:, n:] == -1).all()
            fresh = _TokenRelations(dct)
            fresh.add([tokens])
            for name in ("ids", "forward", "backward", "synonyms", "deletions"):
                assert getattr(relations, name) == getattr(fresh, name), name
