import math

import numpy as np
import pytest

from slemap.errors import EmptyVocabulary, RankDeficient, SingleClass
from slemap.lsi import build_counts, build_tfidf, fit_lsi, lsi_embed, project_lsi, reconstruction, vectorize
from slemap.metrics import (
    ConfusionCounts,
    best_mcc_threshold,
    compute_auc,
    compute_mcc,
    confusion_at,
    likelihood_ratios,
    sensitivity_specificity,
)
from slemap.text import normalize


class TestAuc:
    def test_perfect_ranking(self):
        assert compute_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert compute_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        # positives win 3 of the 4 positive-negative pairs
        assert compute_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            compute_auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.random(30)
            labels = rng.integers(0, 2, 30)
            if labels.min() == labels.max():
                continue
            assert compute_auc(scores, labels) == compute_auc(np.exp(3 * scores), labels)

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = np.round(rng.random(20), 1)
            labels = rng.integers(0, 2, 20)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            assert compute_auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


class TestMcc:
    def test_perfect(self):
        assert compute_mcc(ConfusionCounts(tp=30, fp=0, tn=70, fn=0)) == 1.0

    def test_random(self):
        assert compute_mcc(ConfusionCounts(tp=25, fp=25, tn=25, fn=25)) == 0.0

    def test_worked_example(self):
        c = ConfusionCounts(tp=40, fn=10, fp=15, tn=35)
        want = (40 * 35 - 15 * 10) / math.sqrt((40 + 15) * (40 + 10) * (35 + 15) * (35 + 10))
        assert compute_mcc(c) == pytest.approx(want, abs=0)

    def test_degenerate_zero(self):
        assert compute_mcc(ConfusionCounts(tp=0, fp=0, tn=10, fn=5)) == 0.0

    def test_complement_negates(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            tp, fp, tn, fn = (int(v) for v in rng.integers(1, 40, 4))
            a = compute_mcc(ConfusionCounts(tp, fp, tn, fn))
            b = compute_mcc(ConfusionCounts(tp=fp, fp=tp, tn=fn, fn=tn))
            assert a == pytest.approx(-b, abs=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, 4))
            assert -1.0 <= compute_mcc(ConfusionCounts(tp, fp, tn, fn)) <= 1.0


class TestBestMccThreshold:
    def test_separable(self):
        t, c = best_mcc_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert compute_mcc(c) == 1.0
        assert 0.2 < t < 0.8

    def test_all_equal_scores(self):
        t, c = best_mcc_threshold([0.5] * 6, [0, 1, 0, 1, 0, 1])
        assert compute_mcc(c) == 0.0

    def test_matches_exhaustive_reimplementation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores = np.round(rng.random(25), 2)
            labels = rng.integers(0, 2, 25)
            if labels.min() == labels.max():
                continue
            got_t, got_c = best_mcc_threshold(scores, labels)
            cands = [-math.inf, math.inf]
            d = np.unique(scores)
            cands.extend((d[:-1] + d[1:]) / 2)
            best = max(cands, key=lambda t: (compute_mcc(confusion_at(scores, labels, t)), ))
            best_val = compute_mcc(confusion_at(scores, labels, best))
            assert compute_mcc(got_c) == pytest.approx(best_val, abs=0)
            ties = [t for t in cands if compute_mcc(confusion_at(scores, labels, t)) == best_val]
            assert got_t == min(ties)

    def test_sensitivity_specificity_recompose(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.random(30)
            labels = rng.integers(0, 2, 30)
            if labels.min() == labels.max():
                continue
            _, c = best_mcc_threshold(scores, labels)
            sens, spec = sensitivity_specificity(c)
            lr_plus, lr_minus = likelihood_ratios(sens, spec)
            if spec < 1.0:
                assert abs(lr_plus * (1 - spec) - sens) < 1e-12
            if spec > 0.0:
                assert abs(lr_minus * spec - (1 - sens)) < 1e-12


class TestTfidf:
    def corpus(self):
        return [normalize("chest pain", doc_id="0"),
                normalize("chest pain / dizzy", doc_id="1"),
                normalize("racing heart", doc_id="2")]

    def test_everywhere_token_zeroed(self):
        docs = [normalize(t, doc_id=str(i)) for i, t in
                enumerate(["pain pain", "pain dizzy", "pain racing"])]
        tdm = build_tfidf(docs)
        j = tdm.vocabulary.index("pain")
        assert np.all(tdm.matrix[:, j] == 0.0)

    def test_unique_token_weight(self):
        docs = self.corpus()
        tdm = build_tfidf(docs)
        j = tdm.vocabulary.index("racing")
        assert tdm.matrix[2, j] == pytest.approx(math.log(3.0), abs=1e-15)
        assert tdm.matrix[0, j] == 0.0

    def test_hand_computed_matrix(self):
        docs = self.corpus()
        tdm = build_tfidf(docs)
        vocab = tdm.vocabulary
        assert vocab == ("chest", "dizzy", "heart", "pain", "racing")
        m = 3
        df = {"chest": 2, "dizzy": 1, "heart": 1, "pain": 2, "racing": 1}
        counts = [
            {"chest": 1, "pain": 1},
            {"chest": 1, "pain": 1, "dizzy": 1},
            {"heart": 1, "racing": 1},
        ]
        for i in range(3):
            for j, tok in enumerate(vocab):
                want = counts[i].get(tok, 0) * math.log(m / df[tok])
                assert tdm.matrix[i, j] == pytest.approx(want, abs=1e-15)

    def test_empty_vocabulary(self):
        from slemap.text import Document
        with pytest.raises(EmptyVocabulary):
            build_counts([Document(id="0", statements=())])

    def test_vectorize_round_trip(self):
        docs = self.corpus()
        tdm = build_tfidf(docs)
        assert np.allclose(vectorize(docs, tdm.vocabulary, tdm.idf), tdm.matrix, atol=1e-15)
        out = vectorize([normalize("unseen words only", doc_id="x")], tdm.vocabulary, tdm.idf)
        assert np.all(out == 0.0)


class TestLsi:
    def test_rank_one_exact(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[2.0, 0.0, 1.0, 4.0]])
        from slemap.lsi import TermDocumentMatrix
        tdm = TermDocumentMatrix(("a", "b", "c", "d"), u @ v)
        model = fit_lsi(tdm, 1)
        assert np.linalg.norm(reconstruction(model) - tdm.matrix) < 1e-10

    def test_full_rank_exact(self):
        rng = np.random.default_rng(6)
        from slemap.lsi import TermDocumentMatrix
        mat = rng.random((5, 7))
        tdm = TermDocumentMatrix(tuple(f"t{i}" for i in range(7)), mat)
        model = fit_lsi(tdm, 5)
        assert np.linalg.norm(reconstruction(model) - mat) < 1e-8

    def test_beats_random_factorizations(self):
        rng = np.random.default_rng(7)
        from slemap.lsi import TermDocumentMatrix
        mat = rng.random((8, 10))
        tdm = TermDocumentMatrix(tuple(f"t{i}" for i in range(10)), mat)
        model = fit_lsi(tdm, 3)
        err = np.linalg.norm(reconstruction(model) - mat)
        for _ in range(20):
            a = rng.standard_normal((8, 3))
            b = rng.standard_normal((3, 10))
            # least-squares-optimal b for this random a, still beaten
            b = np.linalg.lstsq(a, mat, rcond=None)[0]
            assert err <= np.linalg.norm(a @ b - mat) + 1e-12

    def test_projection_matches_training_rows(self):
        docs = [normalize(t, doc_id=str(i)) for i, t in
                enumerate(["chest pain", "dizzy spells", "heart racing", "chest pain dizzy"])]
        tdm = build_tfidf(docs)
        model = fit_lsi(tdm, 2)
        projected = project_lsi(model, tdm.matrix)
        assert np.allclose(projected, model.doc_embedding, atol=1e-10)

    def test_dims_out_of_range(self):
        from slemap.lsi import TermDocumentMatrix
        tdm = TermDocumentMatrix(("a", "b"), np.ones((3, 2)))
        with pytest.raises(RankDeficient):
            fit_lsi(tdm, 3)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(8)
        from slemap.lsi import TermDocumentMatrix
        mat = rng.random((6, 5))
        tdm = TermDocumentMatrix(tuple(f"t{i}" for i in range(5)), mat)
        a = fit_lsi(tdm, 3)
        b = fit_lsi(TermDocumentMatrix(tdm.vocabulary, mat.copy()), 3)
        assert np.array_equal(a.doc_embedding, b.doc_embedding)
        assert np.array_equal(a.components, b.components)

    def test_embedding_wrapper(self):
        docs = [normalize(t, doc_id=str(i)) for i, t in
                enumerate(["chest pain", "dizzy spells", "heart racing"])]
        emb = lsi_embed(build_tfidf(docs), 2, ids=("0", "1", "2"))
        assert emb.vectors.shape == (3, 2)
        assert emb.ids == ("0", "1", "2")
