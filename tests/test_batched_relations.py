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


def held_pairs(new, corpus):
    """The unordered statement pairs that ``rows(new, corpus)`` pairs: a
    statement of a new document and one of a corpus document with another
    statement multiset."""
    def keys(docs):
        return {tuple(sorted(st.tokens for st in d.statements)) for d in docs}

    return {tuple(sorted((s, t))) for k1 in keys(new) for k2 in keys(corpus) - {k1}
            for s in k1 for t in k2}


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
        # every held pair of a request statement and a corpus statement is
        # scored, through the DP when related
        scored = {(a, b) for a, b, *_ in calls}
        for pair in held_pairs(request, corpus) - scored:
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


def test_span_index_lists_every_spanned_statement():
    """A side's span index (``_Statements.absorbers``) lists, for every word,
    each statement that the word has a span in (``_spans_for_token``):
    concatenations and initials of runs, and dictionary acronyms.  ``cp``
    (chest pain) has no span where the letters of its expansion occur under
    another token split, and the index does not offer those statements."""
    dct = CFG.load_dictionary()
    hand = [("chestpain",), ("che", "stpain"), ("c", "p"), ("chest", "pain", "worse"),
            ("no", "chest", "pain"), ("short", "breath", "heart", "racing"), ("sob", "cp"),
            ("pe", "physical", "exam", "normal"), ("a", "b", "a", "b")]
    statements = list(dict.fromkeys(
        hand + [st.tokens for d in benchmark_documents()[1] + dictionary_documents(dct)
                for st in d.statements]))
    index = similarity._Statements([Statement(st) for st in statements],
                                   similarity._TokenRelations(dct)).absorbers
    # every token and acronym, every run's concatenation and initials, and
    # the concatenation and initials of every two tokens of the hand cases
    words = {tok for st in statements for tok in st} | set(dct.acronyms)
    words |= {"".join(part) for st in statements for i in range(len(st))
              for j in range(i + 2, len(st) + 1)
              for part in (st[i:j], [tok[0] for tok in st[i:j]])}
    vocabulary = {tok for st in hand for tok in st}
    words |= {x + y for x in vocabulary for y in vocabulary}
    words |= {x[0] + y[0] for x in vocabulary for y in vocabulary}
    for n, st in enumerate(statements):
        for word in words:
            if _spans_for_token(word, st, dct):
                assert n in index.get(word, ()), (word, st)
    # the loop met each kind: a concatenation, initials, and "sob", the one
    # packaged acronym that is not its expansion's initials
    for word, st, kind in (("chestpain", ("chest", "pain", "worse"), TransformKind.CONCATENATION),
                           ("pen", ("pe", "physical", "exam", "normal"), TransformKind.ACRONYM),
                           ("sob", ("short", "breath", "heart", "racing"), TransformKind.ACRONYM)):
        assert word in words and kind in [k for _, _, k in _spans_for_token(word, st, dct)]
    for st in (("chestpain",), ("che", "stpain")):
        assert not _spans_for_token("cp", st, dct)
        assert statements.index(st) not in index["cp"]
    assert statements.index(("no", "chest", "pain")) in index["cp"]


def test_matrix_enumerates_span_words_once_per_statement(monkeypatch):
    """A matrix call is one side against itself, so both span loops of
    ``_fill_unrelated`` read one index: each distinct statement's span words
    are enumerated once.  The matrix equals a ``rows`` call of the same
    documents, whose two sides are enumerated apart, except where a blank
    document meets itself."""
    seen = []
    real = similarity._span_keys

    def counted(st, expansions):
        seen.append(st)
        return real(st, expansions)

    monkeypatch.setattr(similarity, "_span_keys", counted)
    corpus = benchmark_documents()[0] + dictionary_documents(CFG.load_dictionary())
    make = lambda: SimilarityComputer(CFG.transform_weights(), CFG.load_dictionary())
    values = make().matrix(corpus).values
    assert sorted(seen) == sorted({st.tokens for d in corpus for st in d.statements})
    rows = make().rows(corpus, corpus)
    blank = [n for n, d in enumerate(corpus) if d.is_sentinel]
    rows[blank, blank] = values[blank, blank]
    assert values.tobytes() == rows.tobytes()


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
    """The span maps a call hands to statement_similarity are referenced by
    nothing once matrix, rows or statement_similarity returns, and so is the
    memo of a matrix or statement_similarity call.  A rows call's memo is the
    kept corpus side's, and is referenced by nothing once that side is
    replaced."""
    calls = recorded_calls(monkeypatch)
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    comp = SimilarityComputer(CFG.transform_weights(), dct)
    comp.matrix(corpus[:40])
    comp.statement_similarity(stmt("chest", "pain"), stmt("cp", "now"))
    own = len(calls)
    comp.rows(unseen[:3], corpus)
    kept = comp._corpus.memo
    assert kept and all(memo is kept for _, _, _, memo, _ in calls[own:])
    held = {id(memo): memo for _, _, _, memo, _ in calls[:own]}
    held.update((id(obj), obj) for _, _, relations, _, _ in calls for obj in relations[1:])
    calls.clear()
    gc.collect()
    assert len(held) > 3
    assert all(sys.getrefcount(obj) == 3 for obj in held.values())
    assert sys.getrefcount(kept) > 2
    comp.rows(unseen[:3], corpus)
    assert comp._corpus.memo is kept
    comp.rows(unseen[:3], corpus[:50])
    calls.clear()
    gc.collect()
    assert comp._corpus.memo is not kept and sys.getrefcount(kept) == 2


def test_corpus_side_reused_while_the_corpus_is_the_same():
    """rows keeps the corpus side of the last corpus list it was given:
    every result equals a fresh computer's, against corpus A, then B, A
    again, A reversed, A with one document replaced, and A after a matrix
    call, which leaves the kept side in place."""
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
    comp.matrix(corpus[40:120] + unseen[6:8])
    assert check(a) is kept


def request_stream(corpus, unseen, dct):
    """(request, corpus) pairs against A, then B, then A again: verbatim
    repeats, partial overlaps, statements recombined into new documents,
    novel tokens, an empty document, and copies of corpus documents."""
    a, b = corpus[:60], corpus[60:110]
    recombined = Document(id="mix", statements=unseen[0].statements + unseen[4].statements)
    novel = doc("novel", ["zqxv", "pain"], ["flurbish", "chest", "hurts"])
    stream = [unseen[:3], unseen[:3], unseen[2:5], [recombined], unseen[:3],
              [novel, unseen[5]], [Document(id="ne", statements=())],
              [a[7], Document(id="dup", statements=a[3].statements[::-1]), unseen[6]],
              dictionary_documents(dct)[:4], unseen[2:5]]
    return ([(request, a) for request in stream] + [(request, b) for request in stream[:4]]
            + [(request, a) for request in stream[::-1]])


def assert_fresh(comp, request, docs):
    """comp.rows(request, docs) is bitwise what a fresh computer returns."""
    got = comp.rows(request, docs)
    want = SimilarityComputer(comp.weights, comp.dictionary, comp.max_tokens).rows(request, docs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kept_request_state_is_bitwise(monkeypatch):
    """Over an interleaved request stream, every rows result is bitwise a
    fresh computer's; a request of statements scored before, verbatim or
    recombined, runs no statement DP; and a corpus switch drops the kept
    rows and memo."""
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    weights = CFG.transform_weights()
    comp = SimilarityComputer(weights, dct)
    calls = recorded_calls(monkeypatch)
    seen: set = set()
    kept = None
    for request, docs in request_stream(corpus, unseen, dct):
        if kept is not None and not kept.holds(docs):
            seen = set()
        statements = {st.tokens for d in request for st in d.statements}
        calls.clear()
        assert_fresh(comp, request, docs)
        mine = [call for call in calls if call[3] is comp._corpus.memo]
        if statements <= seen:
            assert not mine, statements
        if comp._corpus is not kept:
            # a new corpus side holds this call's rows and memo only
            assert comp._corpus.scored.keys() == statements
            assert kept is None or comp._corpus.memo is not kept.memo
            kept = comp._corpus
        seen |= statements
        assert kept.scored.keys() == seen


def footprint(store):
    """The bytes a kept store holds: its dict, and every key and value with
    the tuples, frozensets, strings and floats in them (small ints and
    kinds are shared by the interpreter)."""
    def size(obj):
        if isinstance(obj, int) and -5 <= obj <= 256:
            return 0
        inner = obj if isinstance(obj, (tuple, frozenset)) else ()
        return sys.getsizeof(obj) + sum(map(size, inner))
    return sys.getsizeof(store) + sum(size(key) + size(value) for key, value in store.items())


def test_kept_request_state_stays_bounded(monkeypatch):
    """With tiny bounds the kept rows and memo never hold more bytes than
    them, the newest rows are the ones kept, and results stay bitwise."""
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    weights = CFG.transform_weights()
    width = len(similarity._Corpus(corpus[:60], similarity._TokenRelations(dct)).statements.tokens)
    monkeypatch.setattr(similarity, "_KEPT_BYTES", 3 * (8 * width + 1000))
    comp = SimilarityComputer(weights, dct)
    kept, written = None, []
    for request, docs in request_stream(corpus, unseen, dct):
        assert_fresh(comp, request, docs)
        if comp._corpus is not kept:
            kept, written = comp._corpus, []
        last = list(dict.fromkeys(st.tokens for d in request for st in d.statements))
        written = [tokens for tokens in written if tokens not in last] + last
        assert list(kept.scored) == written[len(written) - len(kept.scored):]
        for store in (kept.scored, kept.memo):
            assert footprint(store) == store.held + sys.getsizeof(store) <= similarity._KEPT_BYTES
        assert kept.scored or not last
    assert len(written) > len(kept.scored) and kept.memo


@pytest.mark.parametrize("corpus", ["one statement", "all empty"])
def test_kept_rows_bounded_in_bytes_on_a_tiny_corpus(monkeypatch, corpus):
    """Against a corpus of one statement or of empty documents only, a row
    holds few values, and its key most of its bytes: requests of long novel
    statements fill the kept rows to their byte bound, not past it."""
    monkeypatch.setattr(similarity, "_KEPT_BYTES", 1 << 16)
    dct = CFG.load_dictionary()
    docs = [Document(id="e0", statements=()), Document(id="e1", statements=())]
    if corpus == "one statement":
        docs[0] = doc("c", ["chest", "pain"])
    comp = SimilarityComputer(CFG.transform_weights(), dct)
    for k in range(8):
        words = [f"{k:02d}{t:02d}".ljust(30, "x") for t in range(12)]
        comp.rows([doc(f"r{k}", *[words[n:] + words[:n] for n in range(12)])], docs)
        kept = comp._corpus
        assert footprint(kept.scored) <= similarity._KEPT_BYTES
    assert footprint(kept.scored) > similarity._KEPT_BYTES - 2000 and len(kept.scored) < 8 * 12


def test_raising_request_writes_no_rows(monkeypatch):
    """A request that raises TokenCapExceeded after scoring other pairs
    leaves the kept rows as they were and the memo holding what it held,
    and the next answers equal a fresh computer's."""
    dct = CFG.load_dictionary()
    corpus, unseen = benchmark_documents()
    weights = CFG.transform_weights()
    cap = max(len(st.tokens) for d in corpus + unseen for st in d.statements)
    long = doc("long", ["chest", "pain"], ["heart"], ["racing", "fast"],
               ["chest", "pain", *["worse"] * cap])
    comp = SimilarityComputer(weights, dct, cap)
    docs = corpus[:60]
    assert_fresh(comp, unseen[:3], docs)
    kept = comp._corpus
    rows = {tokens: row.tobytes() for tokens, row in kept.scored.items()}
    memo = dict(kept.memo)
    calls = recorded_calls(monkeypatch)
    with pytest.raises(TokenCapExceeded):
        comp.rows(unseen[3:6] + [long], docs)
    assert [call for call in calls if call[3] is kept.memo]
    assert {tokens: row.tobytes() for tokens, row in kept.scored.items()} == rows
    assert list(kept.memo)[:len(memo)] == list(memo)
    assert all(kept.memo[key] == value for key, value in memo.items())
    for request in (unseen[3:6], unseen[:3], unseen[2:5]):
        assert_fresh(comp, request, docs)
    assert comp._corpus is kept


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
