import functools
import random
import time
from itertools import permutations

import numpy as np
import pytest

from slemap import similarity, transforms
from slemap.config import PipelineConfig
from slemap.dictionary import build_dictionary, empty_dictionary, load_dictionary
from slemap.errors import ParseError, TokenCapExceeded
from slemap.similarity import SimilarityComputer, build_similarity_matrix, document_similarity
from slemap.text import Document, NormalizationConfig, Statement, normalize
from slemap.transforms import (TransformKind, TransformWeights, all_missing_similarity,
                               edit_distance, statement_similarity)

from oracles import (
    OracleRules,
    canonical_statements,
    oracle_best_vector,
    oracle_document_similarity,
    oracle_related,
    oracle_statement_similarity,
    oracle_vectors,
)


def stmt(*tokens):
    return Statement(tuple(tokens))


def doc(doc_id, *statements):
    return Document(id=doc_id, statements=tuple(stmt(*s) for s in statements))


FIG_DICT = build_dictionary(synonym_groups=[["exercise", "activity"]])
FIG_RULES = OracleRules(synonym_groups=[["exercise", "activity"]])


def counts(mapping) -> tuple[int, ...]:
    vec = [0] * 9
    for kind, n in mapping.items():
        vec[kind] = n
    return tuple(vec)


class TestNormalize:
    def test_slash_split(self):
        d = normalize("Chest pain / Heart racing")
        assert [list(s.tokens) for s in d.statements] == [["chest", "pain"], ["heart", "racing"]]

    def test_blank_becomes_sentinel(self):
        d = normalize("   ")
        assert d.is_sentinel

    def test_comma_and_period(self):
        d = normalize("CP, dizziness.")
        assert [list(s.tokens) for s in d.statements] == [["cp"], ["dizziness"]]

    def test_stop_words_removed(self):
        d = normalize("pain in the chest")
        assert d.statements[0].tokens == ("pain", "chest")

    def test_negations_kept(self):
        d = normalize("no pain, not dizzy")
        assert [list(s.tokens) for s in d.statements] == [["no", "pain"], ["not", "dizzy"]]

    def test_punctuation_stripped(self):
        d = normalize("heart's racing!")
        assert d.statements[0].tokens == ("heart", "racing")

    def test_caps_applied(self):
        cfg = NormalizationConfig(max_statements=2, max_tokens=3)
        d = normalize("one two three four, b, c, d", cfg)
        assert len(d.statements) == 2
        assert d.statements[0].tokens == ("one", "two", "three")


class TestEnumerate:
    """The transformation vectors themselves, enumerated by the test oracle."""

    def test_fig2_vector_present(self):
        vecs = oracle_vectors(("cp", "with", "activity"),
                              ("exercise", "induced", "chest", "pain"), FIG_RULES)
        want = counts({TransformKind.ACRONYM: 1, TransformKind.SYNONYM: 1,
                       TransformKind.MISSING: 2})
        assert want in vecs

    def test_identical_single_tokens(self):
        vecs = oracle_vectors(("x",), ("x",), OracleRules())
        assert vecs == {counts({TransformKind.EQUAL: 1}), counts({TransformKind.MISSING: 2})}

    def test_all_missing_always_present(self):
        rng = random.Random(7)
        pool = ["alpha", "beta", "gamma", "delta", "x", "chest", "pain"]
        for _ in range(25):
            a = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            b = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            allmiss = counts({TransformKind.MISSING: len(a) + len(b)})
            assert allmiss in oracle_vectors(a, b, OracleRules())

    def test_token_cap(self):
        big = stmt(*(f"t{i}" for i in range(13)))
        with pytest.raises(TokenCapExceeded):
            statement_similarity(big, stmt("x"), dct=empty_dictionary())


class TestStatementSimilarity:
    def test_worked_example(self):
        val = statement_similarity(
            stmt("cp", "with", "activity"),
            stmt("exercise", "induced", "chest", "pain"),
            TransformWeights.default(),
            FIG_DICT,
        )
        assert val == 0.5

    def test_self_similarity(self):
        rng = random.Random(3)
        pool = ["chest", "pain", "heart", "racing", "dizzy"]
        for _ in range(10):
            a = stmt(*(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            assert statement_similarity(a, a) == 1.0

    def test_unrelated_tokens(self):
        assert statement_similarity(stmt("aaa"), stmt("zzz"), dct=empty_dictionary()) == 0.0

    def test_misspelling(self):
        # one transposition, both tokens >= 4 chars
        assert statement_similarity(stmt("pain"), stmt("pian")) == 1.0
        # too short for the misspelling rule
        assert statement_similarity(stmt("cat"), stmt("cta")) == 0.0

    def test_prefix_suffix(self):
        assert statement_similarity(stmt("card"), stmt("cardiac")) == 1.0
        assert statement_similarity(stmt("ache"), stmt("headache")) == 1.0
        assert statement_similarity(stmt("ab"), stmt("abdominal")) == 0.0

    def test_concatenation(self):
        assert statement_similarity(stmt("chestpain"), stmt("chest", "pain")) == 1.0

    def test_abbreviation(self):
        dct = build_dictionary(abbreviations={"min": "minute"})
        assert statement_similarity(stmt("min"), stmt("minute"), dct=dct) == 1.0

    def test_acronym_dictionary_entry(self):
        dct = build_dictionary(acronyms={"ekg": ("electro", "cardio", "gram")})
        assert statement_similarity(stmt("ekg"), stmt("electro", "cardio", "gram"), dct=dct) == 1.0


def random_dictionary(rng):
    pool = ["pain", "chest", "cp", "hurt", "ache", "pian", "chets", "heart",
            "racing", "hr", "short", "breath", "sob", "dizzy", "dizy",
            "spell", "faint", "tight", "chestpain", "pressure", "arm",
            "run", "running", "exercise", "activity", "sport"]
    groups = []
    shuffled = pool[:]
    rng.shuffle(shuffled)
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(2, 3)
        if len(shuffled) < size:
            break
        groups.append([shuffled.pop() for _ in range(size)])
    acronyms = {}
    for _ in range(rng.randint(0, 3)):
        seq = tuple(rng.choice(pool) for _ in range(2))
        acronyms[rng.choice(["cp", "hr", "sp", "xx"])] = seq
    abbreviations = {}
    for _ in range(rng.randint(0, 3)):
        abbreviations[rng.choice(["hx", "dx", "px"])] = rng.choice(pool)
    return pool, groups, acronyms, abbreviations


def random_weights(rng):
    vals = [round(rng.random(), 3) for _ in range(9)]
    vals[TransformKind.EQUAL] = 1.0
    return TransformWeights(tuple(vals))


class TestOracleEquivalence:
    def test_statement_similarity_matches_bruteforce(self):
        rng = random.Random(42)
        for trial in range(60):
            pool, groups, acronyms, abbreviations = random_dictionary(rng)
            dct = build_dictionary(groups, acronyms, abbreviations)
            rules = OracleRules(groups, acronyms, abbreviations)
            weights = random_weights(rng) if trial % 2 else TransformWeights.default()
            a = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
            b = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
            got = statement_similarity(Statement(a), Statement(b), weights, dct)
            want = oracle_statement_similarity(a, b, weights.values, rules)
            assert got == want, (a, b, got, want)

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(40):
            pool, groups, acronyms, abbreviations = random_dictionary(rng)
            dct = build_dictionary(groups, acronyms, abbreviations)
            weights = random_weights(rng)
            a = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            b = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            assert statement_similarity(a, b, weights, dct) == statement_similarity(b, a, weights, dct)

    def test_range(self):
        rng = random.Random(6)
        for _ in range(40):
            pool, groups, acronyms, abbreviations = random_dictionary(rng)
            dct = build_dictionary(groups, acronyms, abbreviations)
            weights = random_weights(rng)
            a = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            b = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            assert 0.0 <= statement_similarity(a, b, weights, dct) <= 1.0

    def test_missing_floor(self):
        # with default weights the all-Missing graph scores exactly 0, so a
        # zero similarity means no non-Missing graph did better
        rng = random.Random(23)
        for _ in range(30):
            pool, groups, acronyms, abbreviations = random_dictionary(rng)
            dct = build_dictionary(groups, acronyms, abbreviations)
            a = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            b = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            val = statement_similarity(a, b, TransformWeights.default(), dct)
            assert val >= 0.0
            if val == 0.0:
                vec = oracle_best_vector(a.tokens, b.tokens, TransformWeights.default().values,
                                         OracleRules(groups, acronyms, abbreviations))
                assert vec[TransformKind.MISSING] == sum(vec)

    def test_monotone_in_weights(self):
        rng = random.Random(9)
        for _ in range(30):
            pool, groups, acronyms, abbreviations = random_dictionary(rng)
            dct = build_dictionary(groups, acronyms, abbreviations)
            base = random_weights(rng)
            a = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            b = Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            before = statement_similarity(a, b, base, dct)
            u = rng.randrange(1, 9)  # Equal is pinned
            raised = list(base.values)
            raised[u] = min(1.0, raised[u] + rng.random() * (1.0 - raised[u]))
            after = statement_similarity(a, b, TransformWeights(tuple(raised)), dct)
            assert after >= before


class TestBestVector:
    def test_witness_prefers_fewer_missing(self):
        vec = oracle_best_vector(("cp", "with", "activity"),
                                 ("exercise", "induced", "chest", "pain"),
                                 TransformWeights.default().values, FIG_RULES)
        assert vec == counts({TransformKind.ACRONYM: 1, TransformKind.SYNONYM: 1,
                              TransformKind.MISSING: 2})


class TestDocumentSimilarity:
    def stub_computer(self, monkeypatch, sims):
        """A computer whose statement similarities are the given constants.
        Every statement holds the token "x", so every statement pair is
        related and is scored by the stub."""
        d1 = doc("a", *[[f"a{i}", "x"] for i in range(len(sims))])
        d2 = doc("b", *[[f"b{j}", "x"] for j in range(len(sims[0]))])
        table = {(s_i.tokens, s_j.tokens): sims[i][j]
                 for i, s_i in enumerate(d1.statements) for j, s_j in enumerate(d2.statements)}
        # the computer scores each pair with the smaller statement first: a* < b*
        monkeypatch.setattr(similarity, "statement_similarity",
                            lambda a, b, *args, **kwargs: table[a.tokens, b.tokens])
        return SimilarityComputer(), d1, d2

    def test_two_by_two_example(self, monkeypatch):
        comp, d1, d2 = self.stub_computer(monkeypatch, [[0.9, 0.1], [0.2, 0.2]])
        assert comp.document_similarity(d1, d2) == pytest.approx(0.55, abs=0)

    def test_one_vs_three(self, monkeypatch):
        comp, d1, d2 = self.stub_computer(monkeypatch, [[0.3, 0.9, 0.1]])
        assert comp.document_similarity(d1, d2) == pytest.approx(0.9 / 3, abs=0)

    def test_identity(self):
        d = doc("a", ["chest", "pain"], ["heart", "racing"])
        assert document_similarity(d, d) == 1.0

    def test_sentinel_zero(self):
        empty = Document(id="e", statements=())
        d = doc("a", ["chest", "pain"])
        assert document_similarity(empty, d) == 0.0
        assert document_similarity(empty, Document(id="f", statements=())) == 0.0

    def test_symmetry_random(self):
        rng = random.Random(13)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob"]
        for _ in range(20):
            d1 = doc("a", *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                            for _ in range(rng.randint(1, 3))])
            d2 = doc("b", *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                            for _ in range(rng.randint(1, 3))])
            assert document_similarity(d1, d2) == document_similarity(d2, d1)

    def test_pairing_matches_bruteforce(self):
        rng = random.Random(21)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob",
                "cp", "tight", "pressure"]
        comp = SimilarityComputer()
        for _ in range(40):
            d1 = doc("a", *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                            for _ in range(rng.randint(1, 4))])
            d2 = doc("b", *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                            for _ in range(rng.randint(1, 4))])
            got = comp.document_similarity(d1, d2)
            s1, s2 = canonical_statements(d1, d2)
            sims = [[comp.statement_similarity(stmt(*x), stmt(*y)) for y in s2] for x in s1]
            want = oracle_document_similarity(sims, len(s1), len(s2))
            assert got == want

    def test_exact_symmetry_and_statement_order(self):
        # equal statement counts of 3: pairing in argument order gave
        # 0.6222222222222222 one way and 0.6222222222222221 the other
        cfg = PipelineConfig()
        a, b = (normalize(t, cfg.normalization()) for t in (
            "collapse durin activity, collapse durin activity, faainted at sports practice",
            "faainted at sports practice, collapse during activity, fainted duri practice"))

        def fresh(d1, d2):
            comp = SimilarityComputer(cfg.transform_weights(), cfg.load_dictionary())
            return comp.document_similarity(d1, d2)

        want = fresh(a, b)
        assert fresh(b, a) == want
        for order in permutations(range(3)):
            shuffled = Document(id="p", statements=tuple(b.statements[i] for i in order))
            assert fresh(a, shuffled) == want
            assert fresh(shuffled, a) == want
        rng = random.Random(8)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob", "cp"]
        for _ in range(30):
            d1, d2 = (doc(tag, *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                                 for _ in range(rng.randint(3, 4))]) for tag in "ab")
            rev = Document(id="r", statements=d2.statements[::-1])
            assert fresh(d1, d2) == fresh(d2, d1) == fresh(d1, rev) == fresh(rev, d1)


class TestBoundedTime:
    """Inputs at the caps (12 tokens, 12 statements) that the exact searches
    must finish quickly: duplicate tokens and mixed kinds multiply the
    equivalent graphs, and 12 statements a side allow 12! pairings."""

    def test_duplicate_tokens(self):
        weights = TransformWeights.from_mapping({TransformKind.MISSPELLING: 0.5})
        start = time.perf_counter()
        val = statement_similarity(stmt(*["aaaa"] * 12), stmt(*["aaab"] * 12), weights)
        assert time.perf_counter() - start < 1.0
        assert val == 0.5

    def test_mixed_kinds(self):
        pool = ["pain", "pains", "paint", "spain", "pai", "pan"]
        dct = build_dictionary(synonym_groups=[pool],
                               abbreviations={"pai": "pain", "pan": "pains"})
        weights = TransformWeights((1.0, 0.9, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1))

        def draw(n):
            rng = random.Random(0)
            return [stmt(*(rng.choice(pool) for _ in range(n))) for _ in range(2)]

        assert statement_similarity(*draw(10), weights, dct) == 0.9400000000000001
        a, b = draw(12)
        start = time.perf_counter()
        statement_similarity(a, b, weights, dct)
        assert time.perf_counter() - start < 2.0

    def test_twelve_statement_documents(self):
        rng = random.Random(0)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob", "cp",
                "tight", "pressure", "sharp", "burn"]
        d1, d2 = (doc(tag, *([rng.choice(pool) for _ in range(rng.randint(1, 3))]
                             for _ in range(12))) for tag in "ab")
        start = time.perf_counter()
        val = SimilarityComputer().document_similarity(d1, d2)
        assert time.perf_counter() - start < 1.0
        assert 0.0 < val < 1.0
        assert SimilarityComputer().document_similarity(d2, d1) == val


def held_pairs(docs, new=None):
    """Unordered statement pairs (s, t) with s in one document and t in
    another document with a different statement multiset, sentinels excluded:
    the statement pairs a similarity matrix of ``docs`` needs.  With ``new``,
    the pairs of a new document and a corpus document: those ``rows`` needs."""
    def keys(ds):
        return sorted({tuple(sorted(x.tokens for x in d.statements)) for d in ds if len(d)})

    pairs = ([(k1, k2) for i, k1 in enumerate(keys(docs)) for k2 in keys(docs)[i + 1:]]
             if new is None else [(k1, k2) for k1 in keys(new) for k2 in keys(docs) if k1 != k2])
    return {tuple(sorted((s, t))) for k1, k2 in pairs for s in k1 for t in k2}


POOL12 = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob", "cp",
          "tight", "pressure", "sharp", "burn"]


class TestBlockKernel:
    """The per-class block DP behind matrix, rows and document_similarity."""

    def test_each_held_statement_pair_scored_once(self, monkeypatch):
        """The statement DP scores each held related pair exactly once; a
        held unrelated pair never reaches it and holds the all-Missing
        value, which is what the DP gives it."""
        calls = []
        original = similarity.statement_similarity

        def recorded(a, b, *args, **kwargs):
            calls.append(tuple(sorted((a.tokens, b.tokens))))
            return original(a, b, *args, **kwargs)

        monkeypatch.setattr(similarity, "statement_similarity", recorded)
        tables = []   # the table of each call that pairs documents
        pairs = SimilarityComputer._pairs
        monkeypatch.setattr(SimilarityComputer, "_pairs", lambda self, left, right, call:
                            tables.append(call) or pairs(self, left, right, call))
        rng = random.Random(5)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob", "cp"]
        docs = [doc(str(k), *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                              for _ in range(rng.randint(1, 5))]) for k in range(30)]
        # "only" and "inside" share one document and appear nowhere else
        docs += [doc("inner", ["only"], ["inside"]), Document(id="e", statements=())]
        docs += [Document(id="dup", statements=docs[0].statements[::-1])]
        weights = TransformWeights.from_mapping({TransformKind.MISSING: 0.25})
        comp = SimilarityComputer(weights)
        comp.matrix(docs)
        held = held_pairs(docs)
        related = {pair for pair in held if oracle_related(*pair, OracleRules())}
        assert related and held - related
        assert len(calls) == len(set(calls))
        assert set(calls) == related
        assert (("inside",), ("only",)) not in set(calls)
        table = tables[-1]
        at = table.left.position
        for s, t in held - related:
            value = table.values[at[s], at[t]]
            assert value == all_missing_similarity(len(s) + len(t), weights)
            assert value == original(Statement(s), Statement(t), weights)
        # a repeated rows call against the same corpus scores nothing new
        calls.clear()
        comp.rows(docs[1:5], docs[5:-1])
        first = list(calls)
        assert first and set(first) <= related
        comp.rows(docs[1:5], docs[5:-1])
        assert calls == first

    def test_identical_document_in_rows(self, monkeypatch):
        """A new document identical to a corpus document scores exactly what
        the pairing DP gives it, 1.0, without scoring a statement pair; an
        empty document still scores 0 against an empty one."""
        calls = []
        monkeypatch.setattr(similarity, "statement_similarity",
                            lambda a, b, *args, **kwargs: calls.append((a, b)))
        weights = TransformWeights((1.0, 0.9, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1))
        rng = random.Random(4)
        for _ in range(20):
            d = doc("d", *[[rng.choice(POOL12) for _ in range(rng.randint(1, 3))]
                           for _ in range(rng.randint(1, 6))])
            copy = Document(id="copy", statements=d.statements[::-1])
            key = sorted(st.tokens for st in d.statements)
            sims = np.array([[statement_similarity(Statement(x), Statement(y), weights)
                              for y in key] for x in key])
            want = similarity._best_pairing(sims[None])[0]
            got = SimilarityComputer(weights).rows([copy], [d])
            assert got[0, 0] == want == 1.0
            assert not calls
        empty = [Document(id=k, statements=()) for k in "ef"]
        d = doc("d", ["chest", "pain"])
        comp = SimilarityComputer(weights)
        assert np.array_equal(comp.rows(empty[:1], [empty[1], d, empty[0]]), np.zeros((1, 3)))
        assert np.array_equal(comp.rows([d], empty), np.zeros((1, 2)))
        assert not calls

    def test_token_cap_in_unrelated_pair(self):
        """A statement over the token cap raises through matrix and rows even
        when no token of it relates to the other statements."""
        big, small = doc("big", ["a", "b", "c", "d"]), doc("small", ["zzz"])
        for make in (lambda comp: comp.matrix([big, small]),
                     lambda comp: comp.matrix([small, big]),
                     lambda comp: comp.rows([big], [small]),
                     lambda comp: comp.rows([small], [big])):
            comp = SimilarityComputer(max_tokens=3)
            with pytest.raises(TokenCapExceeded):
                make(comp)

    def test_relatedness_filter_is_exact(self, monkeypatch):
        """On a corpus that uses every transformation kind, with a Missing
        weight above 0, the filter changes no value of S or of rows, and
        every pair it keeps from the DP has only the all-Missing graph."""
        synonyms = [["exercise", "activity"], ["faint", "syncope"]]
        acronyms = {"sob": ("short", "breath"), "ekg": ("electro", "cardio", "gram")}
        abbreviations = {"min": "minute", "hx": "history"}
        dct = build_dictionary(synonyms, acronyms, abbreviations)
        rules = OracleRules(synonyms, acronyms, abbreviations)
        weights = TransformWeights((1.0, 0.9, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15))
        statements = [
            ["chest", "pain"], ["chestpain"], ["cp"], ["pian"], ["chets", "hurt"],
            ["short", "breath"], ["sob"], ["shortbreath", "at", "night"],
            ["exercise", "induced"], ["activity"], ["faint", "spell"], ["syncope"],
            ["electro", "cardio", "gram"], ["ekg"], ["min"], ["minute"], ["hx"],
            ["history", "of", "murmur"], ["card"], ["cardiac", "exam"], ["ache"],
            ["headache"], ["zzz"], ["qqq", "www"], ["murmur"], ["murmr", "heard"]]
        rng = random.Random(11)
        docs = [doc(str(k), *rng.sample(statements, rng.randint(1, 3))) for k in range(24)]
        docs += [Document(id="e", statements=()),
                 Document(id="dup", statements=docs[3].statements)]
        new = [doc(f"n{k}", *rng.sample(statements, rng.randint(1, 3))) for k in range(6)]
        new += [docs[5], doc("novel", ["unseen", "words"], ["chest", "pian"]),
                Document(id="ne", statements=())]

        # reference: every statement pair scored by the DP, then paired by
        # enumeration; an empty document scores 0, and S has a unit diagonal
        @functools.cache
        def by_dp(x, y):
            return statement_similarity(Statement(x), Statement(y), weights, dct)

        def reference(d1, d2):
            if not (d1.statements and d2.statements):
                return 0.0
            s1, s2 = canonical_statements(d1, d2)
            return oracle_document_similarity([[by_dp(x, y) for y in s2] for x in s1],
                                              len(s1), len(s2))

        want_s = np.array([[reference(x, y) for y in docs] for x in docs])
        np.fill_diagonal(want_s, 1.0)
        want_rows = np.array([[reference(x, y) for y in docs] for x in new])

        calls = []
        original = similarity.statement_similarity

        def recorded(a, b, *args, **kwargs):
            calls.append(tuple(sorted((a.tokens, b.tokens))))
            return original(a, b, *args, **kwargs)

        monkeypatch.setattr(similarity, "statement_similarity", recorded)
        comp = SimilarityComputer(weights, dct)
        assert np.array_equal(comp.matrix(docs).values, want_s)
        assert np.array_equal(comp.rows(new, docs), want_rows)
        assert np.array_equal(SimilarityComputer(weights, dct).rows(new, docs), want_rows)
        held = held_pairs(docs) | held_pairs(docs, new)
        kept_from_dp = held - set(calls)
        assert kept_from_dp and set(calls)
        for s, t in kept_from_dp:
            assert not oracle_related(s, t, rules), (s, t)
            relations = transforms._relations_of(s, t, dct)
            assert not transforms._best_moves(s, t, relations, weights.values)
        for s, t in held & set(calls):
            assert oracle_related(s, t, rules), (s, t)

    def test_chunks_stay_under_budget(self, monkeypatch):
        """A run of twelve-statement documents longer than one chunk is
        paired in chunks of whole document pairs within the byte budget, with
        the same result as one chunk."""
        rng = random.Random(1)
        docs = [doc(str(k), *([rng.choice(POOL12) for _ in range(rng.randint(1, 3))]
                              for _ in range(12))) for k in range(24)]
        comp = SimilarityComputer()
        whole = comp.matrix(docs).values, comp.rows(docs[:3], docs)
        budget = 4 * similarity._pair_bytes(12, 12)
        monkeypatch.setattr(similarity, "_CHUNK_BYTES", budget)
        held = []
        original = similarity._best_pairing

        def recorded(sims):
            held.append(sims.shape[0] * similarity._pair_bytes(*sims.shape[1:]))
            return original(sims)

        monkeypatch.setattr(similarity, "_best_pairing", recorded)
        assert np.array_equal(comp.matrix(docs).values, whole[0])
        assert np.array_equal(comp.rows(docs[:3], docs), whole[1])
        assert max(held) <= budget
        assert len(held) >= (24 * 23 // 2 + 3 * 24) // 4

    def test_twelve_statement_matrix(self):
        rng = random.Random(0)
        docs = [doc(str(k), *([rng.choice(POOL12) for _ in range(rng.randint(1, 3))]
                              for _ in range(12))) for k in range(40)]
        comp = SimilarityComputer()
        start = time.perf_counter()
        sm = comp.matrix(docs)
        assert time.perf_counter() - start < 5.0
        start = time.perf_counter()   # statement table warm: the pairing alone
        assert np.array_equal(comp.matrix(docs).values, sm.values)
        assert time.perf_counter() - start < 1.0
        assert sm.values[0, 1] == SimilarityComputer().document_similarity(docs[1], docs[0])


class TestSimilarityMatrix:
    def test_identical_pair(self):
        d = doc("a", ["chest", "pain"])
        e = doc("b", ["chest", "pain"])
        sm = build_similarity_matrix([d, e])
        assert np.array_equal(sm.values, np.ones((2, 2)))

    def test_unrelated_corpus_is_identity(self):
        docs = [doc("a", ["aaa"]), doc("b", ["zzz"]), doc("c", ["qqq"])]
        sm = build_similarity_matrix(docs, dct=empty_dictionary())
        assert np.array_equal(sm.values, np.eye(3))

    def test_exact_transpose(self):
        rng = random.Random(31)
        pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "cp", "sob"]
        docs = [doc(str(i), *[[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                              for _ in range(rng.randint(1, 3))])
                for i in range(8)]
        sm = build_similarity_matrix(docs)
        assert np.array_equal(sm.values, sm.values.T)
        assert np.all(np.diag(sm.values) == 1.0)
        assert np.all((sm.values >= 0.0) & (sm.values <= 1.0))

    def test_sentinels_isolated(self):
        docs = [doc("a", ["chest"]), Document(id="e1", statements=()), Document(id="e2", statements=())]
        sm = build_similarity_matrix(docs)
        assert sm.values[1, 2] == 0.0 and sm.values[2, 1] == 0.0
        assert sm.values[0, 1] == 0.0
        assert np.all(np.diag(sm.values) == 1.0)

    def test_dedupe_matches_direct(self):
        pool = ["chest", "pain", "heart", "racing"]
        rng = random.Random(17)
        base = [doc(str(i), *[[rng.choice(pool) for _ in range(2)]]) for i in range(4)]
        docs = [base[i % 4] for i in range(10)]
        docs = [Document(id=str(i), statements=d.statements) for i, d in enumerate(docs)]
        sm = build_similarity_matrix(docs)
        comp = SimilarityComputer()
        for i in range(10):
            for j in range(10):
                want = 1.0 if i == j else comp.document_similarity(docs[i], docs[j])
                assert sm.values[i, j] == want


class TestEditDistance:
    def test_against_oracle(self):
        from oracles import osa_distance
        rng = random.Random(2)
        alphabet = "abcde"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            assert edit_distance(a, b) == osa_distance(a, b)

    def test_transposition_counts_once(self):
        assert edit_distance("pain", "pian") == 1

    def test_cap_against_oracle(self):
        """With a cap, every distance up to the cap is exact and every larger
        one reads as more than the cap."""
        from oracles import osa_distance
        rng = random.Random(12)
        for _ in range(400):
            a, b = ("".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
                    for _ in range(2))
            for cap in range(3):
                assert min(edit_distance(a, b, cap), cap + 1) == min(osa_distance(a, b), cap + 1)

    @pytest.mark.parametrize("a, b", [("abcd", "abce"), ("abcd", "abcd")])
    def test_negative_cap_rejected(self, a, b):
        with pytest.raises(ValueError):
            edit_distance(a, b, cap=-1)


class TestDictionaryFiles:
    def test_round_trip(self, tmp_path):
        (tmp_path / "synonyms.txt").write_text(
            "# comment line\nexercise, activity\nfaint, syncope, blackout\n")
        (tmp_path / "acronyms.txt").write_text("cp = chest pain\nsob = short breath\n")
        (tmp_path / "abbreviations.txt").write_text("min = minute\n")
        dct = load_dictionary(tmp_path / "synonyms.txt", tmp_path / "acronyms.txt",
                              tmp_path / "abbreviations.txt")
        assert dct.same_synonym_set("exercise", "activity")
        assert dct.same_synonym_set("faint", "blackout")
        assert not dct.same_synonym_set("exercise", "faint")
        assert dct.acronyms["cp"] == ("chest", "pain")
        assert dct.abbreviations["min"] == "minute"

    def test_bad_acronym_line(self, tmp_path):
        p = tmp_path / "acronyms.txt"
        p.write_text("cp chest pain\n")
        with pytest.raises(ParseError, match="acronyms.txt:1:"):
            load_dictionary(acronyms_path=p)
