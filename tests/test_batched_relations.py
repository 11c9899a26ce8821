"""The batched relations, the per-call structure memo and the kept corpus
side of ``SimilarityComputer`` against the standalone references.

A call reads every pending statement pair's token block from the relation
index's table with one fancy index, finds span moves once per token and
statement by lookup, and hands each pair with its call's memo to
``statement_similarity``.  Every pair must get the relations, the moves and
the value that the standalone ``statement_similarity`` computes from
``pair_kinds`` and ``_spans_for_token``.  The property tests of the block
kernel are in test_similarity_properties.py.
"""

import gc
import sys

import numpy as np
import pytest

from slemap import similarity
from slemap.config import PipelineConfig
from slemap.dictionary import TransformationDictionary, build_dictionary
from slemap.errors import TokenCapExceeded
from slemap.similarity import SimilarityComputer
from slemap.synth import GeneratorSpec, generate_arrays
from slemap.text import Document, Statement, normalize
from slemap.transforms import (TransformKind, TransformWeights, _best_moves, _relations_of,
                               _spans_for_token, pair_kinds, statement_similarity)

CFG = PipelineConfig()
MIXED = TransformWeights((1.0, 0.9, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1))


def stmt(*tokens):
    return Statement(tuple(tokens))


def doc(doc_id, *statements):
    return Document(id=doc_id, statements=tuple(stmt(*s) for s in statements))


def documents(texts, prefix):
    return [normalize(text, CFG.normalization(), doc_id=f"{prefix}{k}")
            for k, text in enumerate(texts)]


def benchmark_documents():
    """Part of train_predict's training corpus (seed 0) and of the unseen
    records its requests are drawn from (seed 1), at the benchmark's spec."""
    spec = dict(numeric_dim=30, clusters=16, text_weight=0.5, noise=0.05)
    corpus = generate_arrays(GeneratorSpec(m=600, **spec), 0)[3][:150]
    unseen = generate_arrays(GeneratorSpec(m=300, **spec), 1)[3][:12]
    return documents(corpus, "c"), documents(unseen, "n")


def dictionary_documents(dct):
    """Documents that use the dictionary's acronyms, their expansions, both
    sides of its abbreviations, and concatenations and initials of the
    expansions."""
    statements = [[short] for short in dct.acronyms]
    statements += [list(seq) for seq in dct.acronyms.values()]
    statements += [["".join(seq), "".join(tok[0] for tok in seq)] for seq in dct.acronyms.values()]
    statements += [[short, "pain"] for short in dct.abbreviations]
    statements += [[long, "pain"] for long in dct.abbreviations.values()]
    return [doc(f"d{k}", statements[k], statements[-1 - k]) for k in range(len(statements))]


def recorded_calls(monkeypatch):
    """Record every (a, b, relations, memo, value) the computer scores."""
    calls = []
    original = similarity.statement_similarity

    def recorded(a, b, *args, **kwargs):
        value = original(a, b, *args, **kwargs)
        calls.append((a.tokens, b.tokens, kwargs["relations"], kwargs["memo"], value))
        return value

    monkeypatch.setattr(similarity, "statement_similarity", recorded)
    return calls


def assert_relations_exact(calls, weights, dct):
    """Each scored pair's relations are its pair_kinds block (one best kind
    per related token pair) and its spans, and give the moves and the value
    of the standalone statement_similarity."""
    assert calls
    best = similarity._best_kinds(weights.values)
    for a, b, relations, _, value in calls:
        pairs, in_b, in_a = relations
        block = {(i, j): int(best[sum(1 << kind for kind in pair_kinds(x, y, dct))])
                 for i, x in enumerate(a) for j, y in enumerate(b)}
        assert sorted(map(tuple, pairs)) == sorted((i, j, kind) for (i, j), kind in block.items()
                                                   if kind >= 0), (a, b)
        for tokens, other, spans in ((a, b, in_b), (b, a, in_a)):
            for tok in tokens:
                assert spans.get(tok, []) == _spans_for_token(tok, other, dct), (tok, other)
        assert (_best_moves(a, b, relations, weights.values)
                == _best_moves(a, b, _relations_of(a, b, dct), weights.values)), (a, b)
        assert value == statement_similarity(Statement(a), Statement(b), weights, dct), (a, b)


@pytest.mark.parametrize("weights", [CFG.transform_weights(), MIXED], ids=["config", "mixed"])
def test_benchmark_vocabularies(monkeypatch, weights):
    """On benchmark text and the packaged dictionary's own words, every pair
    that matrix and rows score gets exact relations and the standalone
    value, and every held pair they score without the DP has no move
    besides Missing."""
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    corpus += dictionary_documents(dct)
    calls = recorded_calls(monkeypatch)
    comp = SimilarityComputer(weights, dct)
    comp.matrix(corpus)
    assert_relations_exact(calls, weights, dct)

    calls.clear()
    for k in range(0, len(unseen), 3):
        request = unseen[k:k + 3] + dictionary_documents(dct)[k // 3::4]
        comp.rows(request, corpus)
        # a statement the kept table lacks meets every corpus statement in a
        # held pair, through the DP when related
        scored = {(a, b) for a, b, *_ in calls}
        for new in {st.tokens for d in request for st in d.statements} - comp._known.row_of.keys():
            for old in comp._corpus.statements.tokens:
                pair = tuple(sorted((new, old)))
                if pair not in scored:
                    assert not _best_moves(*pair, _relations_of(*pair, dct), weights.values), pair
    assert_relations_exact(calls, weights, dct)


def test_hand_cases(monkeypatch):
    """A one-token dictionary acronym whose span is the key of a pair move
    (an abbreviation): the pair keeps a weight tie and loses to a higher
    acronym weight.  A run whose concatenation equals its initials:
    Concatenation keeps the tie."""
    dct = TransformationDictionary(acronyms={"hb": ("heartbeat",)},
                                   abbreviations={"hb": "heartbeat"})
    calls = recorded_calls(monkeypatch)
    a, b = stmt("hb", "fast"), stmt("heartbeat", "slow")
    for weights, kind in ((TransformWeights.default(), TransformKind.ABBREVIATION),
                          (TransformWeights.from_mapping({TransformKind.ACRONYM: 0.6,
                                                          TransformKind.ABBREVIATION: 0.6}),
                           TransformKind.ABBREVIATION),
                          (TransformWeights.from_mapping({TransformKind.ACRONYM: 1.0,
                                                          TransformKind.ABBREVIATION: 0.5}),
                           TransformKind.ACRONYM)):
        calls.clear()
        comp = SimilarityComputer(weights, dct)
        comp.rows([Document(id="a", statements=(a,))], [Document(id="b", statements=(b,))])
        assert_relations_exact(calls, weights, dct)
        [(_, _, relations, _, _)] = calls
        assert _best_moves(a.tokens, b.tokens, relations, weights.values) == {(0, 1, 1): kind}

    # a one-token acronym alone relates its pair, through the filter too
    dct = TransformationDictionary(acronyms={"hb": ("heartbeat",)})
    calls.clear()
    comp = SimilarityComputer(MIXED, dct)
    comp.matrix([Document(id="a", statements=(a,)), Document(id="b", statements=(b,))])
    assert_relations_exact(calls, MIXED, dct)
    assert [call[:2] for call in calls] == [(a.tokens, b.tokens)]

    calls.clear()
    comp = SimilarityComputer()
    comp.rows([doc("a", ["ab"])], [doc("b", ["a", "b"])])
    assert_relations_exact(calls, TransformWeights.default(), TransformationDictionary())
    [(first, second, relations, _, _)] = calls
    assert _best_moves(first, second, relations, TransformWeights.default().values) == {
        (0, 2, 1): TransformKind.CONCATENATION}


def test_token_cap_in_related_pair():
    """A related statement over the token cap reaches the DP through the
    batched relations and raises there."""
    big, small = doc("big", ["a", "b", "c", "d"]), doc("small", ["a"])
    for make in (lambda comp: comp.matrix([big, small]),
                 lambda comp: comp.rows([big], [small]),
                 lambda comp: comp.rows([small], [big])):
        with pytest.raises(TokenCapExceeded):
            make(SimilarityComputer(max_tokens=3))


# (a, b) pairs: the same structure with other tokens, then the same moves
# with another q, then the same positions with another kind
STRUCTURES = [
    (("chest", "pain"), ("chest", "hurt")),
    (("heart", "racing"), ("heart", "fast")),
    (("chest",), ("chest", "pain")),
    (("heart",), ("heart", "racing")),
    (("chest",), ("chest", "pain", "now")),
    (("card",), ("cardiac",)),
    (("ache",), ("headache",)),
    (("pain",), ("pian",)),
    (("exercise", "sob"), ("activity", "short", "breath")),
    (("faint", "cp"), ("syncope", "chest", "pain")),
]


@pytest.mark.parametrize("weights", [TransformWeights.default(), MIXED,
                                     TransformWeights.from_mapping({TransformKind.MISSING: 0.25})],
                         ids=["default", "mixed", "missing"])
def test_structure_memo(weights):
    """Pairs of one move structure get bitwise the DP value from the memo,
    pairs that differ in q or in a kind do not share an entry, and the memo
    holds one entry per structure."""
    dct = build_dictionary([["exercise", "activity"], ["faint", "syncope"]],
                           {"sob": ("short", "breath"), "cp": ("chest", "pain")})
    memo = {}
    for a, b in STRUCTURES + STRUCTURES[::-1]:
        want = statement_similarity(Statement(a), Statement(b), weights, dct)
        got = statement_similarity(Statement(a), Statement(b), weights, dct, memo=memo)
        assert got.hex() == want.hex(), (a, b)
    assert len(memo) == len(STRUCTURES) - 3


def test_call_state_dies_with_the_call(monkeypatch):
    """The memo and the span maps a call hands to statement_similarity are
    referenced by nothing once matrix or rows returns."""
    calls = recorded_calls(monkeypatch)
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    comp = SimilarityComputer(CFG.transform_weights(), dct)
    comp.matrix(corpus[:40])
    comp.rows(unseen[:3], corpus)
    comp.statement_similarity(stmt("chest", "pain"), stmt("cp", "now"))
    held = {id(obj): obj for _, _, relations, memo, _ in calls for obj in (memo, *relations[1:])}
    calls.clear()
    gc.collect()
    assert len(held) > 3
    assert all(sys.getrefcount(obj) == 3 for obj in held.values())


def test_corpus_side_reused_while_the_corpus_is_the_same(monkeypatch):
    """rows keeps the corpus side of the last corpus list it was given:
    every result equals a fresh computer's, against corpus A, then B, A
    again, A reversed, A with one document replaced, and A after a matrix
    call grew the kept table, whose scores the kept side then reads."""
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    a, b = corpus[:60], corpus[60:100] + corpus[:5]
    a += [Document(id="e", statements=()), Document(id="dup", statements=a[3].statements[::-1])]
    new = unseen[:4] + [a[7], Document(id="ne", statements=()), *dictionary_documents(dct)[:3]]
    weights = CFG.transform_weights()
    comp = SimilarityComputer(weights, dct)

    def check(docs):
        got = comp.rows(new, docs)
        assert np.array_equal(got, SimilarityComputer(weights, dct).rows(new, docs))
        return comp._corpus

    kept = check(a)
    assert check(a) is kept
    assert check(b) is not kept
    kept = check(a)
    assert check(list(a)) is kept   # the same documents in another list
    check(a[::-1])
    replaced = list(a)
    replaced[10] = corpus[-1]
    check(replaced)
    kept = check(a)
    comp.matrix(corpus[40:120] + unseen[:2])
    calls = recorded_calls(monkeypatch)
    comp.rows(new, a)
    known = comp._known.row_of
    assert calls and not [call for call in calls if call[0] in known and call[1] in known]
    assert check(a) is kept


def test_rank_places_new_keys_by_bisection():
    """A new document's rank falls between the corpus keys around it, and an
    equal key takes the corpus key's rank."""
    relations = similarity._TokenRelations(CFG.load_dictionary())
    corpus = [doc("x", ["b"]), doc("y", ["d"]), doc("z", ["b"], ["c"])]
    side = similarity._Corpus(corpus, relations)
    assert side.keys == [(("b",),), (("d",),), (("b",), ("c",))]
    assert [side.rank(key) for key in [(("a",),), (("b",),), (("c",),), (("e",),),
                                       (("a",), ("z",)), (("b",), ("c",)), (("z",), ("z",)),
                                       ()]] == [0, 1, 2, 4, 4, 5, 6, 0]
