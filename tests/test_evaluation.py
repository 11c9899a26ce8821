import gc
import json
import os
import platform
import sys
import threading
import warnings
import weakref
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


class TailFailed(RuntimeError):
    """A fold tail's failure, injected by a test."""


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
            assert len(prepared.splits) == self.CFG.folds
            assert all((split.lap is not None) == kept for split in prepared.splits.values())
        # a single width keeps no fold, so no Laplacian beyond its fold
        builds.clear()
        prepared = real_prepare(text_dataset, self.CFG, True)
        prepared.widths = (3,)
        run_methods(text_dataset, ["le", "sle"], replace(self.CFG, dims=3), prepared=prepared)
        assert len(builds) == self.CFG.folds
        assert prepared.splits == {}

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
        """Each fold restricts the corpus similarities to its training
        records once, at the first width; later widths reuse the fold's
        eigenmap and Laplacian."""
        events = []     # each width's run_methods call, and each restrict within it
        real_read, real_run = similarity.SimilarityMatrix.restrict, evaluation.run_methods

        def read(matrix, rows):
            events.append("read")
            return real_read(matrix, rows)

        def run(dataset, methods, config, **kwargs):
            events.append(config.dims)
            return real_run(dataset, methods, config, **kwargs)

        monkeypatch.setattr(similarity.SimilarityMatrix, "restrict", read)
        monkeypatch.setattr(evaluation, "run_methods", run)
        compare_methods(text_dataset, ["le", "sle"], [2, 3, 5], self.CFG)
        assert events == [2] + ["read"] * self.CFG.folds + [3, 5]

    def test_repeated_width_is_rejected(self, text_dataset):
        """A width listed twice would run twice and write two equal rows."""
        with pytest.raises(ValueError, match="more than once"):
            compare_methods(text_dataset, ["le"], [2, 3, 2], self.CFG)

    @pytest.mark.parametrize("methods,kept", [(["le"], False), (["le", "sle"], True)],
                             ids=["le", "le+sle"])
    def test_laplacian_kept_for_sle_only(self, text_dataset, monkeypatch, methods, kept):
        """A kept fold drops its Laplacian once its eigenmap is solved, unless
        sle fits from it: at the per-width heap trims no Laplacian of a
        le-only sweep is alive, and a sweep with sle keeps each fold's."""
        built, alive = [], []
        real = evaluation.build_laplacian

        def build(s):
            lap = real(s)
            built.append(weakref.ref(lap))
            return lap

        def trim(pad):
            alive.append(sum(ref() is not None for ref in built))

        monkeypatch.setattr(evaluation, "build_laplacian", build)
        monkeypatch.setattr(evaluation, "_malloc_trim", lambda: trim)
        compare_methods(text_dataset, methods, [2, 3], self.CFG)
        n = self.CFG.folds if kept else 0
        assert len(built) == self.CFG.folds and alive == [n, n, 0]

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
    thread fits, scores and measures fold k; at a later width of the dims
    sweep, where fold k+1 has nothing left to build, the calling thread
    fits, scores and measures fold k+1 meanwhile."""

    CFG = PipelineConfig(dims=3, folds=3, max_outer_iters=2, inner_theta_steps=4,
                         inner_embedding_steps=2)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """The stages overlap only where the process may run on two CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

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

    @pytest.mark.parametrize("one_cpu", ["affinity", "no affinity call"])
    def test_one_cpu_runs_every_tail_inline(self, text_dataset, monkeypatch, one_cpu):
        """A process that may run on one CPU runs every fold's tail on the
        calling thread, and reports bitwise what two CPUs report."""
        tails = []
        real = evaluation._fold_tail

        def recorded(*args):
            tails.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(evaluation, "_fold_tail", recorded)
        methods = ["numeric", "le", "sle", "lsi"]
        two = run_methods(text_dataset, methods, self.CFG, collect_predictions=True)
        caller = threading.get_ident()
        assert set(tails) - {caller}
        tails.clear()
        if one_cpu == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one = run_methods(text_dataset, methods, self.CFG, collect_predictions=True)
        assert tails == [caller] * self.CFG.folds
        for method in methods:
            assert one[method].to_csv_rows() == two[method].to_csv_rows()
            assert repr(one[method].predictions) == repr(two[method].predictions)

    def test_later_width_tails_alternate_worker_and_caller(self, text_dataset, monkeypatch):
        """The sweep's second width builds nothing, so its folds' tails run
        two at a time: fold 0 on the worker beside fold 1 on the caller,
        then fold 2 beside fold 3, and the last fold alone on the caller."""
        cfg = replace(self.CFG, folds=5)
        tails = []
        paired = threading.Barrier(2, timeout=20)
        real = evaluation._fold_tail

        def recorded(fold_no, split, methods, config, collect_predictions):
            tails.append((config.dims, fold_no, threading.get_ident()))
            if config.dims == 3 and fold_no < 2:
                paired.wait()   # breaks unless folds 0 and 1 run at once
            return real(fold_no, split, methods, config, collect_predictions)

        monkeypatch.setattr(evaluation, "_fold_tail", recorded)
        compare_methods(text_dataset, ["le", "sle", "lsi"], [2, 3], cfg)
        caller = threading.get_ident()
        first = [thread for dims, _, thread in tails if dims == 2]
        assert first[-1] == caller and caller not in first[:-1]
        later = sorted((fold, thread) for dims, fold, thread in tails if dims == 3)
        workers = {thread for _, thread in later} - {caller}
        assert len(workers) == 1
        assert [thread for _, thread in later] == [*workers, caller] * 2 + [caller]

    def later_width_failures(self, monkeypatch, text_dataset, failing):
        """Patch fit so that at the sweep's second width the folds in
        ``failing`` raise, once folds 0 and 1 are both in their tails; return
        the folds whose tails at that width finished."""
        first_two = stratified_folds(text_dataset.labels, self.CFG.folds, self.CFG.seed)[:2]
        both_running = threading.Barrier(2, timeout=20)
        finished = []
        real = evaluation.fit

        def fit(method, split, config):
            fold = next((k for k, test in enumerate(first_two)
                         if np.array_equal(split.test, test)), None)
            if config.dims == 3 and fold is not None and method == "le":
                both_running.wait()
                if fold in failing:
                    raise TailFailed(f"fold {fold}")
            model = real(method, split, config)
            if config.dims == 3 and fold is not None and method == "lsi":
                finished.append(fold)
            return model

        monkeypatch.setattr(evaluation, "fit", fit)
        return finished

    def test_later_width_earlier_fold_error_wins(self, text_dataset, monkeypatch):
        """At the sweep's second width, fold 0's tail on the worker and fold
        1's on the caller both fail, at the same time; fold 0's error is
        raised."""
        self.later_width_failures(monkeypatch, text_dataset, failing={0, 1})
        with pytest.raises(TailFailed, match="fold 0"):
            compare_methods(text_dataset, ["le", "sle", "lsi"], [2, 3], self.CFG)

    def test_later_width_error_raised_after_the_earlier_fold(self, text_dataset, monkeypatch):
        """At the sweep's second width only fold 1's tail, on the caller,
        fails; its error is raised once fold 0's tail on the worker has
        finished and been collected."""
        finished = self.later_width_failures(monkeypatch, text_dataset, failing={1})
        with pytest.raises(TailFailed, match="fold 1"):
            compare_methods(text_dataset, ["le", "sle", "lsi"], [2, 3], self.CFG)
        assert finished == [0]

    def test_sweep_rows_equal_on_one_cpu_and_two(self, text_dataset, monkeypatch):
        """compare_methods reports the same rows whether its later widths'
        tails run two at a time, with the interpreter switching threads
        every microsecond, or all on the calling thread."""
        methods = ["numeric", "le", "sle", "lsi"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two = compare_methods(text_dataset, methods, [2, 3], self.CFG)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = compare_methods(text_dataset, methods, [2, 3], self.CFG)
        assert one == two

    def test_earlier_fold_error_wins(self, text_dataset, monkeypatch):
        """Fold 0's tail and fold 1's eigensolve both fail, at the same
        time on two threads; fold 0's error is raised."""
        first_fold = stratified_folds(text_dataset.labels, self.CFG.folds, self.CFG.seed)[0]
        real_fit, real_solve = evaluation.fit, evaluation.solve_eigenmap
        solves = []

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
        # one per width, with the sweep's kept folds alive, and one after the sweep
        assert calls == [self.CFG.folds, self.CFG.folds, 0]

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


def test_repeated_method_is_rejected(text_dataset):
    with pytest.raises(ValueError, match="more than once"):
        run_methods(text_dataset, ["le", "le"], PipelineConfig(dims=3, folds=3))


@pytest.mark.parametrize("methods,dims_list", [
    (["le", "bogus"], [2, 3]), (["le", "sle", "le"], [2, 3]), (["le"], [2, 0]),
], ids=["unknown-method", "repeated-method", "width-0"])
def test_bad_arguments_rejected_before_the_matrix(text_dataset, monkeypatch, methods,
                                                  dims_list):
    """A bad method list or width is refused before any similarity work."""
    def matrix(computer, docs):
        raise AssertionError("the similarity matrix was built before the error")

    monkeypatch.setattr(similarity.SimilarityComputer, "matrix", matrix)
    cfg = PipelineConfig(dims=3, folds=3)
    with pytest.raises(ValueError):
        compare_methods(text_dataset, methods, dims_list, cfg)
    if dims_list[-1] > 0:
        with pytest.raises(ValueError):
            run_methods(text_dataset, methods, cfg)


@pytest.mark.parametrize("methods,dims_list", [([], [2, 3]), (["le"], [])],
                         ids=["no-method", "no-width"])
def test_empty_lists_rejected(text_dataset, methods, dims_list):
    with pytest.raises(ValueError, match="no "):
        compare_methods(text_dataset, methods, dims_list, PipelineConfig(dims=3, folds=3))


def test_train_model_checks_the_method_before_normalizing(text_dataset, monkeypatch):
    """An unknown method is refused before any corpus work."""
    calls = []
    real = evaluation.normalize
    monkeypatch.setattr(evaluation, "normalize", lambda *a, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(ValueError, match="'pca'"):
        train_model(text_dataset, "pca", PipelineConfig(dims=3))
    assert calls == []
    train_model(text_dataset, "numeric", PipelineConfig(dims=3))
    assert len(calls) == text_dataset.m


def test_split_serves_only_its_widths(text_dataset):
    """A Split made for widths (2, 3) solves and factorizes once for both,
    and refuses any other width rather than solving or fitting again."""
    prepared = prepare_dataset(text_dataset, PipelineConfig(), True)
    everything = np.arange(text_dataset.m)
    split = evaluation.Split(text_dataset, everything, everything, docs=prepared.docs,
                             widths=(2, 3), similarity=prepared.similarity)
    for dims in (2, 3):
        cfg = PipelineConfig(dims=dims)
        assert split.eigenmap(cfg)[0].shape == (text_dataset.m, dims)
        assert split.lsi_model(cfg).dims == dims
    frame, lsi = split.frame, split.lsi
    with pytest.raises(ValueError, match="widths"):
        split.eigenmap(PipelineConfig(dims=4))
    with pytest.raises(ValueError, match="widths"):
        split.lsi_model(PipelineConfig(dims=4))
    assert split.frame is frame and split.lsi is lsi


@pytest.mark.parametrize("method", ["le", "sle"])
def test_train_model_builds_one_matrix(text_dataset, monkeypatch, method):
    """train_model hands its split the corpus matrix of one computer, as
    cross-validation does: one matrix, the Laplacian built from that very
    object, and the model scoring new records with that computer."""
    made, built = [], []
    real_matrix, real_build = similarity.SimilarityComputer.matrix, evaluation.build_laplacian

    def matrix(computer, docs):
        made.append((computer, real_matrix(computer, docs)))
        return made[-1][1]

    monkeypatch.setattr(similarity.SimilarityComputer, "matrix", matrix)
    monkeypatch.setattr(evaluation, "build_laplacian", lambda s: built.append(s) or real_build(s))
    cfg = PipelineConfig(dims=3, max_outer_iters=2, inner_theta_steps=4, inner_embedding_steps=2)
    model = train_model(text_dataset, method, cfg)
    assert len(made) == 1 and len(built) == 1
    assert built[0] is made[0][1]
    assert model.corpus()[1] is made[0][0]


def test_repeated_training_id_round_trips(tmp_path):
    """A training set that repeats a record id keeps every record's text
    through save and load, so the loaded model predicts bitwise as the
    in-memory one."""
    spec = GeneratorSpec(m=60, numeric_dim=3, clusters=4, text_weight=0.7, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=3)
    ids = list(ids)
    ids[7] = ids[3]
    assert texts[7] != texts[3]
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    model = train_model(ds, "le", PipelineConfig(dims=4))
    save_model(model, tmp_path)
    loaded = load_model(tmp_path)
    assert loaded.train_texts == list(texts)
    assert predict_model(loaded, ds).tobytes() == model.train_scores.tobytes()


def test_selection_once_per_distinct_test_key(monkeypatch):
    """Test records with one document key have equal similarity rows, so
    kNN selects once per distinct key, in a CV fold and in train_model;
    the selections are bitwise those made record by record."""
    spec = GeneratorSpec(m=90, numeric_dim=3, clusters=4, text_weight=0.7, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=5)
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    cfg = PipelineConfig(dims=3, folds=3)
    seen = []   # (distinct rows, selection) of each call
    real = evaluation.select_neighbours
    monkeypatch.setattr(evaluation, "select_neighbours",
                        lambda sims, k: seen.append((sims.shape[0], real(sims, k))) or seen[-1][1])
    prepared = prepare_dataset(ds, cfg, True)
    run_methods(ds, ["le"], cfg, prepared=prepared)
    s = prepared.similarity
    folds = stratified_folds(ds.labels, cfg.folds, cfg.seed)
    assert [n for n, _ in seen] == [np.unique(s.keys[f]).size for f in folds]
    assert sum(n for n, _ in seen) < ds.m     # the corpus repeats documents
    for (_, selection), test in zip(seen, folds):
        train = np.setdiff1d(np.arange(ds.m), test)
        want = real(np.take(s.block[s.keys[test]], s.keys[train], axis=1), cfg.knn_k)
        row_of = np.unique(s.keys[test], return_inverse=True)[1]
        assert [a[row_of].tobytes() for a in selection] == [a.tobytes() for a in want]
    seen.clear()
    train_model(ds, "le", cfg)
    assert [n for n, _ in seen] == [np.unique(s.keys).size]


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
