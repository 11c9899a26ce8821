import gc
import json
import platform
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from slemap import evaluation, similarity, sle
from slemap.config import PipelineConfig
from slemap.dataset import Dataset
from slemap.errors import DegenerateLambda, RankDeficient
from slemap.evaluation import (compare_methods, cross_validate, prepare_dataset, run_methods,
                               stratified_folds)
from slemap.model_io import load_model, predict_model, save_model, train_model
from slemap.synth import GeneratorSpec, generate_arrays

FILLER_TEXTS = ["chest pain", "dizzy spells", "heart racing", "short breath",
                "sharp pain", "sports checkup"]


def numeric_dataset(rng, m=150, n=4, noiseless=True):
    z = rng.standard_normal((m, n))
    beta = np.array([1.0, -0.8, 0.6, 0.4])[:n]
    score = z @ beta
    labels = (score > 0).astype(int) if noiseless else rng.integers(0, 2, m)
    texts = [FILLER_TEXTS[i % len(FILLER_TEXTS)] for i in range(m)]
    return Dataset(ids=[str(i) for i in range(m)], labels=labels, numeric=z, texts=texts)


class TestCrossValidate:
    def test_noiseless_numeric_auc(self):
        rng = np.random.default_rng(0)
        ds = numeric_dataset(rng)
        report = cross_validate(ds, "numeric", PipelineConfig(seed=0))
        assert report.mean_auc > 0.99

    def test_shuffled_labels_near_chance(self):
        aucs, mccs = [], []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ds = numeric_dataset(rng, noiseless=False)
            report = cross_validate(ds, "numeric", PipelineConfig(seed=seed))
            aucs.append(report.mean_auc)
            mccs.append(report.mean_mcc)
        assert 0.4 <= np.mean(aucs) <= 0.6
        assert -0.1 <= np.mean(mccs) <= 0.1

    def test_report_structure(self):
        rng = np.random.default_rng(1)
        ds = numeric_dataset(rng)
        cfg = PipelineConfig(folds=4, seed=2)
        report = cross_validate(ds, "numeric", cfg)
        assert len(report.folds) == 4
        assert "# configuration" in report.to_text()
        assert report.config_echo == cfg.echo()
        rows = report.to_csv_rows()
        assert len(rows) == 6  # header + 4 folds + mean
        assert rows[-1].startswith("mean,")

    def test_threshold_column_is_a_number(self):
        rng = np.random.default_rng(1)
        report = cross_validate(numeric_dataset(rng), "numeric", PipelineConfig(seed=2))
        rows = [row.split(",") for row in report.to_csv_rows()]
        col = rows[0].index("threshold")
        for row in rows[1:-1]:
            float(row[col])

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(2)
        ds = numeric_dataset(rng)
        with pytest.raises(ValueError):
            cross_validate(ds, "pca", PipelineConfig())


def test_hopeless_data_fits_each_fold_once(monkeypatch):
    """A fold whose training AUC is near chance is fitted once, like any
    other: a refit would start from the same zeros and reach the same
    optimum."""
    rng = np.random.default_rng(3)
    m = 400
    ds = Dataset(ids=[str(i) for i in range(m)],
                 labels=rng.integers(0, 2, m),
                 numeric=rng.standard_normal((m, 2)),
                 texts=[FILLER_TEXTS[i % len(FILLER_TEXTS)] for i in range(m)])
    calls = []
    original = evaluation.train
    monkeypatch.setattr(evaluation, "train",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    report = cross_validate(ds, "numeric", PipelineConfig(folds=2, seed=0))
    assert len(calls) == 2
    assert [(f.train_auc, f.auc) for f in report.folds] == [
        (0.5722222222222222, 0.4752475247524752), (0.558910891089109, 0.5182828282828282)]


@pytest.fixture(scope="module")
def text_dataset():
    spec = GeneratorSpec(m=150, numeric_dim=4, clusters=6, text_weight=0.7, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=1)
    return Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)


class TestTextMethods:
    def test_le_beats_numeric_on_text_signal(self, text_dataset):
        cfg = PipelineConfig(dims=4, folds=3)
        reports = run_methods(text_dataset, ["numeric", "le"], cfg)
        assert reports["le"].mean_auc > reports["numeric"].mean_auc

    def test_shared_folds_identical_between_runs(self, text_dataset):
        cfg = PipelineConfig(dims=4, folds=3, max_outer_iters=2,
                             inner_theta_steps=4, inner_embedding_steps=2)
        a = run_methods(text_dataset, ["le", "sle"], cfg)
        b = run_methods(text_dataset, ["le", "sle"], cfg)
        for m in ("le", "sle"):
            assert a[m].folds == b[m].folds

    def test_lsi_joint_flag_changes_result(self, text_dataset):
        honest = cross_validate(text_dataset, "lsi", PipelineConfig(dims=4, folds=3))
        joint = cross_validate(text_dataset, "lsi",
                               PipelineConfig(dims=4, folds=3, lsi_joint=True))
        assert honest.folds != joint.folds

    def test_zero_rho_counted_for_isolated_test_doc(self):
        spec = GeneratorSpec(m=60, numeric_dim=3, clusters=4, text_weight=0.5, noise=0.0)
        ids, labels, numeric, texts, _ = generate_arrays(spec, seed=2)
        texts = list(texts)
        texts[7] = "qxqxqxqxq zzzzyyyyzzz"  # matches nothing anywhere
        ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
        cfg = PipelineConfig(dims=3, folds=3)
        report = cross_validate(ds, "le", cfg)
        assert sum(f.zero_rho for f in report.folds) >= 1


class TestDimsSweep:
    """compare_methods solves each fold's eigenproblem once for all widths."""

    CFG = PipelineConfig(folds=3, max_outer_iters=2, inner_theta_steps=4,
                         inner_embedding_steps=2)

    def test_rows_equal_per_dims_runs_with_one_solve_per_fold(self, text_dataset,
                                                              monkeypatch):
        solves = []
        real = evaluation.solve_eigenmap

        def counted(lap, dims):
            solves.append(dims)
            return real(lap, dims)

        monkeypatch.setattr(evaluation, "solve_eigenmap", counted)
        rows = compare_methods(text_dataset, ["le", "sle"], [2, 3, 5], self.CFG)
        assert solves == [(2, 3, 5)] * self.CFG.folds
        solves.clear()
        for dims in (2, 3, 5):
            reports = run_methods(text_dataset, ["le", "sle"], replace(self.CFG, dims=dims))
            for method in ("le", "sle"):
                row = next(r for r in rows if (r["method"], r["dims"]) == (method, dims))
                assert repr(row["auc"]) == repr(reports[method].mean_auc)
                assert repr(row["mcc"]) == repr(reports[method].mean_mcc)
        assert solves == [(2,)] * 3 + [(3,)] * 3 + [(5,)] * 3

    def test_one_laplacian_per_fold(self, text_dataset, monkeypatch):
        builds, sweeps = [], []
        real_build, real_prepare = evaluation.build_laplacian, evaluation.prepare_dataset

        def counted(s):
            builds.append(s.shape)
            return real_build(s)

        def captured(*args):
            sweeps.append(real_prepare(*args))
            return sweeps[-1]

        monkeypatch.setattr(evaluation, "build_laplacian", counted)
        monkeypatch.setattr(evaluation, "prepare_dataset", captured)
        compare_methods(text_dataset, ["le", "sle"], [2, 3, 5], self.CFG)
        assert len(builds) == self.CFG.folds
        # a sweep with sle keeps each fold's Laplacian; one without keeps none
        compare_methods(text_dataset, ["le"], [2, 3, 5], self.CFG)
        for prepared, kept in zip(sweeps, (True, False)):
            assert len(prepared.frames) == self.CFG.folds
            assert all((lap is not None) == kept for _, lap in prepared.frames.values())
        # a single width keeps no Laplacian beyond its fold
        builds.clear()
        prepared = real_prepare(text_dataset, self.CFG, True)
        prepared.widths = (3,)
        run_methods(text_dataset, ["le", "sle"], replace(self.CFG, dims=3), prepared=prepared)
        assert len(builds) == self.CFG.folds
        assert len(prepared.frames) == self.CFG.folds
        assert all(lap is None for _, lap in prepared.frames.values())

    def test_one_selection_per_fold(self, text_dataset, monkeypatch):
        """le and sle at every width score a fold's test records from one kNN
        selection; the rows equal runs that select afresh per width
        (test_rows_equal_per_dims_runs_with_one_solve_per_fold)."""
        selections = []
        real = evaluation.select_neighbours

        def counted(sims, k):
            selections.append((sims.shape, k))
            return real(sims, k)

        monkeypatch.setattr(evaluation, "select_neighbours", counted)
        compare_methods(text_dataset, ["le", "sle"], [2, 3, 5], self.CFG)
        assert len(selections) == self.CFG.folds
        assert {k for _, k in selections} == {self.CFG.knn_k}
        selections.clear()
        run_methods(text_dataset, ["le", "sle"], replace(self.CFG, dims=3))
        assert len(selections) == self.CFG.folds

    def test_training_block_read_at_first_width_only(self, text_dataset, monkeypatch):
        """Each fold slices its training similarities once, at the first
        width; later widths reuse the fold's eigenmap and Laplacian."""
        reads = []
        real = evaluation.Split.train_similarity

        def counted(split, config):
            reads.append(config.dims)
            return real(split, config)

        monkeypatch.setattr(evaluation.Split, "train_similarity", counted)
        compare_methods(text_dataset, ["le", "sle"], [2, 3, 5], self.CFG)
        assert reads == [2] * self.CFG.folds

    @pytest.mark.parametrize("joint", [False, True], ids=["plain", "joint"])
    def test_lsi_rows_equal_per_dims_runs_with_one_factorization_per_fold(
            self, text_dataset, monkeypatch, joint):
        """One TF-IDF + SVD per fold, at the widest width, serves every
        width of the sweep, bitwise as a fit at each width would; with
        joint embedding, one factorization of every document serves every
        fold as well."""
        cfg = replace(self.CFG, lsi_joint=joint)
        per_run = 1 if joint else cfg.folds
        tfidfs, fits = [], []
        real_tfidf, real_fit = evaluation.build_tfidf, evaluation.fit_lsi
        monkeypatch.setattr(evaluation, "build_tfidf",
                            lambda docs: tfidfs.append(len(docs)) or real_tfidf(docs))
        monkeypatch.setattr(evaluation, "fit_lsi",
                            lambda tdm, dims: fits.append(dims) or real_fit(tdm, dims))
        rows = compare_methods(text_dataset, ["le", "lsi"], [2, 3, 5], cfg)
        folds = stratified_folds(text_dataset.labels, cfg.folds, cfg.seed)
        assert tfidfs == ([text_dataset.m] if joint
                          else [text_dataset.m - f.size for f in folds])
        assert fits == [5] * per_run
        fits.clear()
        for dims in (2, 3, 5):
            reports = run_methods(text_dataset, ["le", "lsi"], replace(cfg, dims=dims))
            for method in ("le", "lsi"):
                row = next(r for r in rows if (r["method"], r["dims"]) == (method, dims))
                assert repr(row["auc"]) == repr(reports[method].mean_auc)
                assert repr(row["mcc"]) == repr(reports[method].mean_mcc)
        assert fits == [2] * per_run + [3] * per_run + [5] * per_run

    @pytest.mark.parametrize("methods", [["le", "sle"], ["sle", "le"]])
    def test_one_classifier_per_fold_and_width(self, text_dataset, monkeypatch, methods):
        """le's classifier is sle's start: a fold fits it once per width for
        whichever of the two comes first, and fit_sle fits no start of its
        own."""
        fits = []
        real = evaluation.train

        def counted(data, l2):
            fits.append(data.X.shape)
            return real(data, l2)

        def refit(*args, **kwargs):
            raise AssertionError("fit_sle fitted the start it was given")

        monkeypatch.setattr(evaluation, "train", counted)
        monkeypatch.setattr(sle, "train", refit)
        rows = compare_methods(text_dataset, methods, [2, 3], self.CFG)
        widths = [n_cols - text_dataset.n_numeric for _, n_cols in fits]
        assert widths == [2] * self.CFG.folds + [3] * self.CFG.folds
        monkeypatch.undo()
        alone = [row for method in ("le", "sle")
                 for row in compare_methods(text_dataset, [method], [2, 3], self.CFG)]
        key = lambda r: (r["method"], r["dims"])  # noqa: E731
        assert [repr(r) for r in sorted(rows, key=key)] == [
            repr(r) for r in sorted(alone, key=key)]

    @pytest.mark.parametrize("dims_list", [[2, 1], [2, 200]], ids=["degenerate", "too-wide"])
    def test_bad_width_is_rank_deficient(self, dims_list):
        # three mutually unrelated texts: the training graph has three
        # components, so width 1 cuts the two non-trivial null vectors
        texts = ["chest pain", "dizzy spells", "heart racing"]
        m = 30
        ds = Dataset(ids=[str(i) for i in range(m)], labels=np.arange(m) % 2,
                     numeric=np.random.default_rng(0).standard_normal((m, 2)),
                     texts=[texts[i % 3] for i in range(m)])
        with pytest.raises(RankDeficient):
            compare_methods(ds, ["le", "sle"], dims_list, self.CFG)


class TestFoldPipeline:
    """run_methods prepares fold k+1 on the calling thread while one worker
    thread fits, scores and measures fold k."""

    CFG = PipelineConfig(dims=3, folds=3, max_outer_iters=2, inner_theta_steps=4,
                         inner_embedding_steps=2)

    def fits_by_thread(self, monkeypatch):
        """Patch fit to record (dims, thread) per call."""
        calls = []
        real = evaluation.fit

        def recorded(method, split, config):
            calls.append((config.dims, threading.get_ident()))
            return real(method, split, config)

        monkeypatch.setattr(evaluation, "fit", recorded)
        return calls

    def test_one_worker_thread_fits_every_fold_but_the_last(self, text_dataset, monkeypatch):
        calls = self.fits_by_thread(monkeypatch)
        methods = ["numeric", "le", "sle"]
        run_methods(text_dataset, methods, self.CFG)
        caller = threading.get_ident()
        threads = [thread for _, thread in calls]
        workers = set(threads) - {caller}
        assert len(workers) == 1
        n = len(methods)
        assert threads == [*workers] * n * (self.CFG.folds - 1) + [caller] * n

    def test_cached_width_fits_on_the_calling_thread(self, text_dataset, monkeypatch):
        """The sweep's second width solves nothing, so its folds run on the
        calling thread one after another."""
        calls = self.fits_by_thread(monkeypatch)
        compare_methods(text_dataset, ["le", "sle", "lsi"], [2, 3], self.CFG)
        caller = threading.get_ident()
        assert {thread for dims, thread in calls if dims == 3} == {caller}
        assert {thread for dims, thread in calls if dims == 2} - {caller}

    def test_earlier_fold_error_wins(self, text_dataset, monkeypatch):
        """Fold 0's tail and fold 1's eigensolve both fail, at the same
        time on two threads; fold 0's error is raised."""
        first_fold = stratified_folds(text_dataset.labels, self.CFG.folds, self.CFG.seed)[0]
        real_fit, real_solve = evaluation.fit, evaluation.solve_eigenmap
        solves = []

        class TailFailed(RuntimeError):
            pass

        def failing_fit(method, split, config):
            if np.array_equal(split.test, first_fold):
                raise TailFailed("fold 0")
            return real_fit(method, split, config)

        def failing_solve(lap, dims):
            solves.append(dims)
            if len(solves) == 2:
                raise RankDeficient("fold 1")
            return real_solve(lap, dims)

        monkeypatch.setattr(evaluation, "solve_eigenmap", failing_solve)
        with pytest.raises(RankDeficient, match="fold 1"):
            run_methods(text_dataset, ["le", "sle"], self.CFG)
        solves.clear()
        monkeypatch.setattr(evaluation, "fit", failing_fit)
        with pytest.raises(TailFailed, match="fold 0"):
            run_methods(text_dataset, ["le", "sle"], self.CFG)
        assert len(solves) == 2

    def test_reports_do_not_depend_on_thread_switching(self, text_dataset):
        """With the interpreter switching threads every microsecond, every
        method reports what it reports under the default switching."""
        methods = ["numeric", "le", "sle", "lsi"]
        want = run_methods(text_dataset, methods, self.CFG, collect_predictions=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_methods(text_dataset, methods, self.CFG, collect_predictions=True)
        finally:
            sys.setswitchinterval(interval)
        for method in methods:
            assert got[method].to_csv_rows() == want[method].to_csv_rows()
            assert repr(got[method].predictions) == repr(want[method].predictions)

    def test_worker_warning_reaches_the_caller(self, text_dataset, monkeypatch):
        """A DegenerateLambda that fit_sle warns on the worker thread is
        recorded by catch_warnings around run_methods."""
        threads = []
        real = evaluation.fit_sle

        def degenerate(*args, **kwargs):
            threads.append(threading.get_ident())
            warnings.warn("embedding column collapsed", DegenerateLambda)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_sle", degenerate)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_methods(text_dataset, ["sle"], self.CFG)
        assert set(threads) - {threading.get_ident()}
        assert sum(issubclass(w.category, DegenerateLambda) for w in caught) == self.CFG.folds

    def trims(self, monkeypatch):
        """Patch the heap trim to record how many folds were alive at each call."""
        calls = []

        def trim(pad):
            assert pad == 0
            calls.append(sum(isinstance(o, evaluation.Split) for o in gc.get_objects()))

        monkeypatch.setattr(evaluation, "_malloc_trim", lambda: trim)
        return calls

    def test_heap_trimmed_once_the_folds_are_freed(self, text_dataset, monkeypatch):
        calls = self.trims(monkeypatch)
        run_methods(text_dataset, ["numeric", "le", "sle"], self.CFG)
        assert calls == [0]
        calls.clear()
        compare_methods(text_dataset, ["le", "lsi"], [2, 3], self.CFG)
        assert calls == [0, 0, 0]   # one per width, one after the sweep

    def test_heap_trimmed_when_a_fold_fails(self, text_dataset, monkeypatch):
        calls = self.trims(monkeypatch)

        def failing_solve(lap, dims):
            raise RankDeficient("fold 0")

        monkeypatch.setattr(evaluation, "solve_eigenmap", failing_solve)
        with pytest.raises(RankDeficient):
            run_methods(text_dataset, ["le"], self.CFG)
        assert len(calls) == 1

    def test_malloc_trim_found_with_glibc(self):
        if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
            pytest.skip("malloc_trim is a glibc function")
        assert callable(evaluation._malloc_trim())


# the smallest generated corpus found whose fold 0 pairs documents in both
# orientations; pairing in argument order made its scores differ
SPLIT_M, SPLIT_SEED = 160, 8


def subset(ds: Dataset, rows) -> Dataset:
    return Dataset(ids=[ds.ids[i] for i in rows], labels=ds.labels[rows],
                   numeric=ds.numeric[rows], texts=[ds.texts[i] for i in rows])


@pytest.fixture(scope="module")
def fold_run():
    spec = GeneratorSpec(m=SPLIT_M, numeric_dim=3, clusters=16, text_weight=0.5, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=SPLIT_SEED)
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    cfg = PipelineConfig(dims=4, folds=4, max_outer_iters=3, inner_theta_steps=5,
                         inner_embedding_steps=3)
    reports = run_methods(ds, ["numeric", "le", "sle", "lsi"], cfg, collect_predictions=True)
    return ds, cfg, reports


class TestFoldEqualsTrainPredict:
    """A CV fold's test scores are train_model + save/load + predict_model on
    the same split, bitwise."""

    @pytest.mark.parametrize("method", ["numeric", "le", "sle", "lsi"])
    def test_every_fold(self, fold_run, method, tmp_path):
        ds, cfg, reports = fold_run
        for fold_no, test_idx in enumerate(stratified_folds(ds.labels, cfg.folds, cfg.seed)):
            train_idx = np.setdiff1d(np.arange(ds.m), test_idx)
            cv = np.array([s for fold, _, _, s in reports[method].predictions if fold == fold_no])
            model_dir = tmp_path / str(fold_no)
            save_model(train_model(subset(ds, train_idx), method, cfg), model_dir)
            got = predict_model(load_model(model_dir), subset(ds, test_idx))
            assert got.tobytes() == cv.tobytes(), f"fold {fold_no}"

    @pytest.mark.parametrize("method", ["numeric", "le", "sle", "lsi"])
    def test_directory_with_retired_entries_predicts_alike(self, fold_run, method, tmp_path):
        """A model directory in the older format, whose config.txt sets the
        retired retrain-rule keys and whose model.json counts attempts,
        loads and predicts bitwise as the in-memory model does."""
        ds, cfg, _ = fold_run
        test_idx = stratified_folds(ds.labels, cfg.folds, cfg.seed)[0]
        model = train_model(subset(ds, np.setdiff1d(np.arange(ds.m), test_idx)), method, cfg)
        save_model(model, tmp_path)
        with (tmp_path / "config.txt").open("a", encoding="utf-8") as fh:
            fh.write("cv.retrain_auc = 0.65\ncv.max_retrains = 5\n")
        meta_path = tmp_path / "model.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta_path.write_text(json.dumps({**meta, "attempts": 1}, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
        request = subset(ds, test_idx)
        got = predict_model(load_model(tmp_path), request)
        assert got.tobytes() == predict_model(model, request).tobytes()

    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_predict_reuses_training_corpus(self, fold_run, tmp_path, monkeypatch, loaded):
        """A model normalizes its training texts once and keeps one similarity
        computer: a request normalizes only its own texts, and requests with
        novel text leave the kept corpus side and its statements as they
        were."""
        ds, cfg, _ = fold_run
        test_idx = stratified_folds(ds.labels, cfg.folds, cfg.seed)[0]
        train_idx = np.setdiff1d(np.arange(ds.m), test_idx)
        model = train_model(subset(ds, train_idx), "sle", cfg)
        if loaded:
            save_model(model, tmp_path)
            model = load_model(tmp_path)
        request = subset(ds, test_idx)
        first = predict_model(model, request)
        computer = model.corpus()[1]
        corpus, statements = computer._corpus, computer._corpus.statements
        tokens, flat = list(statements.tokens), statements.flat.copy()
        normalized = []
        original = evaluation.normalize
        monkeypatch.setattr(evaluation, "normalize",
                            lambda text, *args, **kwargs: normalized.append(text)
                            or original(text, *args, **kwargs))
        for k in range(3):
            novel = Dataset(ids=request.ids, labels=request.labels, numeric=request.numeric,
                            texts=[f"unseen{k} words{n}, novel{k} text" for n in range(request.m)])
            predict_model(model, novel)
        again = predict_model(model, request)
        assert again.tobytes() == first.tobytes()
        assert len(normalized) == 4 * request.m
        assert model.corpus()[1] is computer
        assert computer._corpus is corpus and corpus.statements is statements
        assert statements.tokens == tokens and np.array_equal(statements.flat, flat)

    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_relation_memo_stays_bounded(self, fold_run, tmp_path, loaded):
        """Requests with novel words leave the token-relation stores of a
        long-lived model (the token ids, the pair_kinds table and the
        relation index's lookups) and the corpus side its computer keeps
        (its documents and statements) as large as they were, and score
        bitwise as a fresh model does.  ``stores()`` leaves out the corpus
        side's kept rows and memo, which grow with requests up to their
        byte bounds (test_batched_relations.py)."""
        ds, cfg, _ = fold_run
        test_idx = stratified_folds(ds.labels, cfg.folds, cfg.seed)[0]
        train_idx = np.setdiff1d(np.arange(ds.m), test_idx)

        def make():
            model = train_model(subset(ds, train_idx), "sle", cfg)
            if loaded:
                save_model(model, tmp_path)
                model = load_model(tmp_path)
            return model

        model = make()
        request = subset(ds, test_idx)
        predict_model(model, request)
        computer = model.corpus()[1]

        relations = computer._relations
        corpus = computer._corpus

        def stores():
            # the relation index, and the corpus side that rows keeps
            return (len(relations.ids), len(relations.tokens), relations.kinds.shape,
                    int((relations.kinds >= 0).sum()),
                    len(relations.forward), len(relations.backward),
                    len(relations.synonyms), sum(map(len, relations.synonyms.values())),
                    len(relations.deletions), sum(map(len, relations.deletions.values())),
                    sorted(vars(computer)), computer._corpus is corpus,
                    sorted(vars(corpus)), sorted(vars(corpus.statements)),
                    len(corpus.docs), len(corpus.keys), corpus.statements.flat.size,
                    len(corpus.statements.absorbers))

        # dictionary synonyms the training texts lack, so the synonym lookup grows too
        absent = sorted(set(computer.dictionary.synonym_group) - set(relations.ids))
        size = stores()
        for k in range(5):
            novel = Dataset(ids=request.ids[:1], labels=request.labels[:1],
                            numeric=request.numeric[:1],
                            texts=[f"chest pain unseen{k} novelword{k} {absent[k]}"])
            got = predict_model(model, novel)
            assert stores() == size
            assert got.tobytes() == predict_model(make(), novel).tobytes()

    def test_in_memory_and_loaded_models_score_requests_alike(self, fold_run, tmp_path,
                                                              monkeypatch):
        """A trained model and its saved-and-loaded copy score a request
        stream through one path: the same statement DP calls in the same
        order, and bitwise the same scores.  The stream mixes unseen records,
        training records (statements the training corpus holds) and
        repeats."""
        ds, cfg, _ = fold_run
        test_idx = stratified_folds(ds.labels, cfg.folds, cfg.seed)[0]
        train = subset(ds, np.setdiff1d(np.arange(ds.m), test_idx))
        test = subset(ds, test_idx)
        stream = [subset(test, np.arange(k, k + 3)) for k in range(0, 12, 3)]
        stream += [subset(train, np.array([0, 5, 9])), subset(test, np.arange(3)),
                   subset(train, np.arange(20)), subset(test, np.arange(6, 30)), test]
        model = train_model(train, "sle", cfg)
        save_model(model, tmp_path)
        original = similarity.statement_similarity

        def run(model):
            calls = []
            monkeypatch.setattr(similarity, "statement_similarity",
                                lambda a, b, *args, **kwargs: calls.append((a.tokens, b.tokens))
                                or original(a, b, *args, **kwargs))
            return [predict_model(model, request) for request in stream], calls

        in_memory, in_memory_calls = run(model)
        loaded, loaded_calls = run(load_model(tmp_path))
        assert in_memory_calls and in_memory_calls == loaded_calls
        for got, want in zip(in_memory, loaded):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["le", "sle"])
def test_train_scores_of_blank_and_duplicated_records(tmp_path, method):
    """train_scores, read from the training matrix, are bitwise what a saved
    and loaded model predicts for the same records, also for empty,
    whitespace-only and punctuation-only texts (which score 0 against
    themselves on the prediction path) and for duplicated texts."""
    spec = GeneratorSpec(m=40, numeric_dim=3, clusters=4, text_weight=0.7, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=3)
    texts = list(texts)
    texts[2], texts[9], texts[30] = "", "   ", ", ."
    texts[5] = texts[6] = texts[21]
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    cfg = PipelineConfig(dims=4, max_outer_iters=3, inner_theta_steps=5, inner_embedding_steps=3)
    model = train_model(ds, method, cfg)
    save_model(model, tmp_path)
    assert model.train_scores.tobytes() == predict_model(load_model(tmp_path), ds).tobytes()


def test_selection_once_per_distinct_test_key(monkeypatch):
    """Test records with one document key have equal similarity rows, so
    kNN selects once per distinct key, in a CV fold and in train_model;
    the selections are bitwise those made record by record."""
    spec = GeneratorSpec(m=90, numeric_dim=3, clusters=4, text_weight=0.7, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=5)
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    cfg = PipelineConfig(dims=3, folds=3)
    seen = []
    real = evaluation.select_neighbours
    monkeypatch.setattr(evaluation, "select_neighbours",
                        lambda sims, k: seen.append(sims.shape[0]) or real(sims, k))
    prepared = prepare_dataset(ds, cfg, True)
    run_methods(ds, ["le"], cfg, prepared=prepared)
    s = prepared.similarity
    folds = stratified_folds(ds.labels, cfg.folds, cfg.seed)
    assert seen == [np.unique(s.keys[f]).size for f in folds]
    assert sum(seen) < ds.m     # the corpus repeats documents
    for fold_no, test in enumerate(folds):
        train = np.setdiff1d(np.arange(ds.m), test)
        want = real(np.take(s.block[s.keys[test]], s.keys[train], axis=1), cfg.knn_k)
        got = prepared.selections[(cfg.folds, cfg.seed, fold_no)][1]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    seen.clear()
    train_model(ds, "le", cfg)
    assert seen == [np.unique(s.keys).size]


def test_no_matrix_over_every_record(text_dataset, tmp_path, monkeypatch):
    """Cross-validation, the dims sweep and train + save/load + predict read
    the similarity block over distinct documents and never expand it to an
    m x m matrix."""
    def expanded(self):
        raise AssertionError("the similarity matrix was expanded to every record")

    monkeypatch.setattr(similarity.SimilarityMatrix, "values", property(expanded))
    cfg = PipelineConfig(dims=3, folds=3, max_outer_iters=2, inner_theta_steps=4,
                         inner_embedding_steps=2)
    run_methods(text_dataset, ["numeric", "le", "sle", "lsi"], cfg)
    compare_methods(text_dataset, ["le", "sle", "lsi"], [2, 3], cfg)
    for method in ("le", "sle"):
        model = train_model(text_dataset, method, cfg)
        save_model(model, tmp_path / method)
        for trained in (model, load_model(tmp_path / method)):
            predict_model(trained, text_dataset)
