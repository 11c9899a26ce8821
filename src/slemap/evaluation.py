"""Cross-validated comparison of the text-embedding methods.

Runs stratified k-fold CV for any of: the numeric-only baseline, the
unsupervised eigenmap (le), the supervised eigenmap (sle), and the
TF-IDF + truncated-SVD baseline (lsi).  Test-fold documents never influence
the similarity graph, the eigenmap, or the LSI factorization (unless the
joint-embed flag deliberately grants LSI that advantage); their embeddings
are estimated by similarity-weighted nearest neighbors.  Every method fits
its classifier once, from zero weights, so a fit depends only on its
training records and the configuration; ``cv.seed`` sets the fold split
alone.

``fit`` and ``score`` are the one implementation of the four methods: a CV
fold and ``model_io.train_model``/``predict_model`` both go through them.
``run_methods`` fits and scores fold k on one worker thread while the
calling thread builds fold k+1's corpus-sized arrays, or, at a later width
of the dims sweep, where those arrays exist already, fits and scores fold
k+1 itself; every fold computes what it would alone, so the reports do not
depend on the threads.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .config import PipelineConfig
from .dataset import Dataset
from .errors import FoldTooSmall, SchemaError
from .estimator import estimate_batch, select_neighbours
from .laplacian import Laplacian, build_laplacian, solve_eigenmap
from .logistic import LabeledFeatures, LearnerParams, predict_proba, train
from .lsi import LsiModel, build_tfidf, fit_lsi, vectorize
from .metrics import (best_mcc_threshold, compute_auc, compute_mcc, confusion_at,
                      likelihood_ratios, sensitivity_specificity)
from .similarity import SimilarityComputer, SimilarityMatrix
from .sle import fit_sle
from .text import Document, normalize

METHODS = ("numeric", "le", "sle", "lsi")


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    auc: float
    mcc: float
    sensitivity: float
    specificity: float
    lr_plus: float
    lr_minus: float
    threshold: float
    train_auc: float
    zero_rho: int
    # perfbench's evaluation.retrain_attempts counter reads this; it goes with that counter
    attempts = 1


@dataclass
class EvalReport:
    method: str
    folds: list[FoldMetrics]
    config_echo: str
    seed: int
    predictions: list[tuple[int, str, int, float]] | None = None

    def _mean(self, attr: str) -> float:
        return float(np.mean([getattr(f, attr) for f in self.folds]))

    @property
    def mean_auc(self) -> float:
        return self._mean("auc")

    @property
    def mean_mcc(self) -> float:
        return self._mean("mcc")

    @property
    def mean_sensitivity(self) -> float:
        return self._mean("sensitivity")

    @property
    def mean_specificity(self) -> float:
        return self._mean("specificity")

    CSV_HEADER = ",".join(f.name for f in fields(FoldMetrics))

    def to_csv_rows(self) -> list[str]:
        # repr of the int fields (fold, zero_rho) is their str; the mean row
        # averages auc through lr_minus and leaves the last three fields blank
        rows = [self.CSV_HEADER, *(",".join(map(repr, astuple(f))) for f in self.folds)]
        means = [repr(self._mean(f.name)) for f in fields(FoldMetrics)[1:-3]]
        return rows + [",".join(["mean", *means, "", "", ""])]

    def to_text(self) -> str:
        lines = [f"method: {self.method}", f"seed: {self.seed}", ""]
        for f in self.folds:
            lines.append(
                f"fold {f.fold}: auc={f.auc:.4f} mcc={f.mcc:.4f} "
                f"sens={f.sensitivity:.4f} spec={f.specificity:.4f} "
                f"lr+={f.lr_plus:.4f} lr-={f.lr_minus:.4f} "
                f"train_auc={f.train_auc:.4f} zero_rho={f.zero_rho}")
        lines.append("")
        lines.append(
            f"mean: auc={self.mean_auc:.4f} mcc={self.mean_mcc:.4f} "
            f"sens={self.mean_sensitivity:.4f} spec={self.mean_specificity:.4f}")
        lines.append("")
        lines.append("# configuration")
        lines.append(self.config_echo.rstrip("\n"))
        return "\n".join(lines) + "\n"


def stratified_folds(labels: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified split; every fold must contain both classes."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            buckets[pos % n_folds].append(int(i))
    folds = [np.array(sorted(b), dtype=np.intp) for b in buckets]
    for k, fold in enumerate(folds):
        if fold.size == 0 or labels[fold].min() == labels[fold].max():
            raise FoldTooSmall(f"fold {k} lacks one of the classes")
    return folds


@dataclass
class PreparedDataset:
    """Normalization and similarity work shared across methods and dims.

    ``prepare_dataset`` is the one corpus builder: CV, ``model_io`` and the
    CLI take their documents from it.  ``similarity`` is the corpus matrix
    as ``computer.matrix`` returns it, over the distinct documents; each
    fold restricts it to its training keys and gathers its test block from
    it, and no matrix over every record is made.  When the dims sweep of
    ``compare_methods`` lists more than one of its ``widths``, ``splits``
    keeps each fold's ``Split`` between ``run_methods`` calls, and with it
    all of the fold's state: one eigensolve per fold at the widest width
    serves every width, and so do one kNN selection, one LSI factorization
    and, with sle, one Laplacian (``Split``).  A single width keeps no fold.
    At the later widths, where every fold's arrays exist, ``run_methods``
    fits two folds at a time, one on its worker thread and one on the
    calling thread; the worker's fit keeps a second working set of the
    width in its own allocator arena, about 4% more peak memory on the
    m = 2000 sweep of dims 10 and 40.
    """

    dataset: Dataset
    docs: list[Document]
    similarity: SimilarityMatrix | None
    computer: SimilarityComputer | None
    widths: tuple[int, ...] = ()
    # (folds, seed, fold number) -> that fold's Split, kept for the sweep's later widths
    splits: dict[tuple[int, int, int], Split] = field(default_factory=dict)


def normalize_corpus(ids: list[str], texts: list[str],
                     config: PipelineConfig) -> list[Document]:
    ncfg = config.normalization()
    return [normalize(t, ncfg, doc_id=i) for i, t in zip(ids, texts)]


def similarity_computer(config: PipelineConfig) -> SimilarityComputer:
    return SimilarityComputer(config.transform_weights(), config.load_dictionary(),
                              max_tokens=config.max_tokens)


def prepare_dataset(dataset: Dataset, config: PipelineConfig,
                    need_similarity: bool) -> PreparedDataset:
    docs = normalize_corpus(dataset.ids, dataset.texts, config)
    computer = similarity_computer(config) if need_similarity else None
    sim = computer.matrix(docs) if need_similarity else None
    return PreparedDataset(dataset=dataset, docs=docs, similarity=sim, computer=computer)


@dataclass
class TrainedModel:
    """One method fitted by ``fit``.  A le or sle model from ``train_model``
    scores new records with the computer of the ``prepare_dataset`` that
    built its corpus; a loaded one makes its own (``corpus``)."""

    method: str
    config: PipelineConfig
    params: LearnerParams
    numeric_mean: np.ndarray
    numeric_std: np.ndarray
    feature_scale: float = 1.0
    xe_train: np.ndarray | None = None
    train_ids: list[str] = field(default_factory=list)
    train_texts: list[str] = field(default_factory=list)
    lam: float | None = None
    objective_trace: list[float] = field(default_factory=list)
    lsi_vocabulary: tuple[str, ...] = ()
    lsi_idf: np.ndarray | None = None
    lsi_components: np.ndarray | None = None
    degenerate: bool = False
    train_scores: np.ndarray | None = None   # prediction-path scores, saved
    fit_scores: np.ndarray | None = None     # in-sample scores behind train_auc
    train_auc: float = 0.0
    # perfbench's evaluation.retrain_attempts counter reads this; it goes with that counter
    attempts = 1
    # le/sle: the normalized training documents and the computer that scores
    # new documents against them; kept in memory only, made on first use
    # unless train_model hands over the ones that built the training matrix
    _corpus: tuple[list[Document], SimilarityComputer] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_numeric(self) -> int:
        return self.numeric_mean.shape[0]

    def corpus(self) -> tuple[list[Document], SimilarityComputer]:
        if self._corpus is None:
            self.keep_corpus(normalize_corpus(self.train_ids, self.train_texts, self.config),
                             similarity_computer(self.config))
        return self._corpus

    def keep_corpus(self, docs: list[Document], computer: SimilarityComputer) -> None:
        self._corpus = (docs, computer)


@dataclass
class Split:
    """Records to fit on and records to score, as row indices into one dataset.

    All per-fold state lives here.  A split is made with every record's
    documents and the fixed ``widths`` it serves (the sweep's, else
    ``config.dims``); another width is a ``ValueError``.  The Laplacian, the
    training eigenmap, the test records' kNN selection, the LSI
    factorization and the classifier that le fits and sle starts from (one
    per width) are made on first use and kept, so every method fitted on a
    split shares them, and so do the later widths of a split that the dims
    sweep keeps (``PreparedDataset.splits``): its one eigensolve runs at
    the widest width, checks the degenerate-gap rule at each, and every
    width slices that frame; its one LSI factorization is fitted the same
    way.  The eigenvectors beyond the widest width are never computed, and
    the TF-IDF matrix is never kept.

    Cross-validation, ``model_io.train_model`` and the ``embed`` command
    supply the corpus ``SimilarityMatrix``: the Laplacian
    is built from its restriction to the training records, still over
    distinct documents (the matrix itself when they are every record, in
    order), which lives only for that build, and the test block, the only block
    kNN scores, is gathered from its keys.  Its diagonal is the
    block's own entry of each key, which is what ``rows`` gives a record
    against itself (1, or 0 for a blank record).  A block gathered from keys
    has one row per distinct test key, since records with one key have equal
    rows and so equal kNN selections.  A split without the corpus matrix
    (``model_io.predict_model``) scores test documents by ``rows`` against
    the model's training documents, with the model's computer
    (``TrainedModel.corpus``).

    ``prepare`` builds everything sized by the corpus up front, so that
    ``fit`` and ``score`` afterwards only read it; cross-validation
    prepares a fold on the calling thread and may fit and score it on a
    worker thread.
    """

    dataset: Dataset
    train: np.ndarray
    test: np.ndarray
    docs: list[Document]              # of every record of the dataset
    widths: tuple[int, ...] = ()      # every dims the one eigensolve must serve
    similarity: SimilarityMatrix | None = None   # over every record of the dataset
    joint_lsi: bool = False           # LSI factorizes the test documents too
    # TF-IDF + SVD at the widest width of the training documents (every
    # document with joint_lsi, where a later fold gets the first fold's)
    lsi: LsiModel | None = None
    # (eigenmap at the widest width, feature scale)
    frame: tuple[np.ndarray, float] | None = field(default=None, init=False)
    lap: Laplacian | None = field(default=None, init=False)
    # the test rows' select_neighbours at knn.k, which the sweep does not vary
    selection: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False)
    # dims -> the classifier that le fits and sle starts from (``classifier``)
    classifiers: dict[int, LearnerParams] = field(default_factory=dict, init=False)

    def neighbours(self, k: int, model: TrainedModel | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The test records' ``k`` most similar training records and their
        similarities, selected once per distinct row, at the first call's
        ``k``, and kept.  The rows are gathered from the corpus similarities,
        which need no ``model``, or scored by the model's computer against
        its training documents."""
        if self.selection is None:
            if self.similarity is not None:
                rows, row_of = _key_rows(self.similarity, self.test, self.train)
            else:
                corpus, computer = model.corpus()
                rows = computer.rows([self.docs[i] for i in self.test], corpus)
                row_of = np.arange(self.test.size)
            top, near = select_neighbours(rows, k)
            self.selection = (top[row_of], near[row_of])
        return self.selection

    def laplacian(self) -> Laplacian:
        if self.lap is None:
            self.lap = build_laplacian(self.similarity.restrict(self.train))
        return self.lap

    def _served(self, config: PipelineConfig) -> int:
        if config.dims not in self.widths:
            raise ValueError(f"dims={config.dims} is not among the split's widths {self.widths}")
        return config.dims

    def eigenmap(self, config: PipelineConfig) -> tuple[np.ndarray, float]:
        """Eigenmap at ``config.dims`` and feature scale of the training similarities.

        One solve at the widest of ``widths`` serves every width, whose
        degenerate-gap rule it checks.  Each width gets a C-contiguous copy
        of the frame's leading columns, bitwise the array a solve at that
        width returns.
        """
        dims = self._served(config)
        if self.frame is None:
            lap = self.laplacian()
            # the scale puts the D-orthonormal eigenvector columns on the same
            # element scale as standardized numeric features
            self.frame = (solve_eigenmap(lap, tuple(sorted(self.widths))),
                          math.sqrt(float(lap.degrees.sum())))
        frame, scale = self.frame
        return frame[:, :dims].copy(), scale

    def lsi_model(self, config: PipelineConfig) -> LsiModel:
        """TF-IDF + truncated SVD at ``config.dims`` of the training
        documents, or with ``joint_lsi`` of every document in the dataset.

        One fit at the widest of ``widths`` serves every width: each width
        gets the leading factors, bitwise what a fit at that width returns
        (``LsiModel.leading``).
        """
        dims = self._served(config)
        if self.lsi is None:
            rows = range(self.dataset.m) if self.joint_lsi else self.train
            self.lsi = fit_lsi(build_tfidf([self.docs[i] for i in rows]), max(self.widths))
        return self.lsi.leading(dims)

    def prepare(self, config: PipelineConfig, methods) -> None:
        """Build what ``fit`` and ``score`` of ``methods`` read that is sized
        by the corpus: the Laplacian and the eigenmap,
        the kNN selection, and the LSI factorization.  The Laplacian is kept
        for sle's fit and dropped otherwise.  What is left to them is sized
        by the split's records times the features (lsi: times the
        vocabulary)."""
        if "le" in methods or "sle" in methods:
            self.eigenmap(config)
            if "sle" in methods:
                self.laplacian()
            else:
                self.lap = None
            self.neighbours(config.knn_k)
        if "lsi" in methods:
            self.lsi_model(config)

    def classifier(self, config: PipelineConfig, data: LabeledFeatures) -> LearnerParams:
        """The classifier fitted from zero weights on ``data``, the numeric
        features beside the eigenmap at ``config.dims``: le's classifier and
        sle's start, fitted once for whichever method asks first."""
        if config.dims not in self.classifiers:
            self.classifiers[config.dims] = train(data, config.l2)
        return self.classifiers[config.dims]


def _key_rows(s: SimilarityMatrix, records: np.ndarray,
              columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``s`` at ``records`` and ``columns``, one per distinct key
    of the records, and each record's row.  Every entry is off the diagonal
    or a key's own entry, so a record's row is its key's."""
    used, row_of = np.unique(s.keys[records], return_inverse=True)
    return np.take(s.block[used], s.keys[columns], axis=1), row_of


def fit(method: str, split: Split, config: PipelineConfig) -> TrainedModel:
    """Fit one method on the split's training records, once.

    The classifier starts from zero weights (sle: its first fit, before the
    alternation), so the model depends only on the split and ``config``.
    That first fit of sle is le's classifier, and the split fits it once
    for both (``Split.classifier``).
    """
    check_methods([method])
    ds, rows = split.dataset, split.train
    x = ds.numeric[rows]
    mean = x.mean(axis=0) if x.size else np.zeros(ds.n_numeric)
    std = x.std(axis=0) if x.size else np.ones(ds.n_numeric)
    std = np.where(std > 0, std, 1.0)
    num, y = (x - mean) / std, ds.labels[rows]
    model = TrainedModel(method=method, config=config, params=None,  # type: ignore[arg-type]
                         numeric_mean=mean, numeric_std=std,
                         train_ids=[ds.ids[i] for i in rows],
                         train_texts=[ds.texts[i] for i in rows])

    text = np.zeros((len(rows), 0))
    if method in ("le", "sle"):
        text, model.feature_scale = split.eigenmap(config)
        model.xe_train = text
    elif method == "lsi" and split.joint_lsi:
        text = split.lsi_model(config).doc_embedding[rows]
    elif method == "lsi":
        lsi = split.lsi_model(config)
        text = lsi.doc_embedding
        model.lsi_vocabulary, model.lsi_idf = lsi.vocabulary, lsi.idf
        model.lsi_components = lsi.components
    features = np.hstack([num, text * model.feature_scale])
    data = LabeledFeatures(features, y, slice(num.shape[1], features.shape[1]))

    if method == "sle":
        start = split.classifier(config, data)
        del features, data      # not alive beside the alternation's own design matrix
        fitted = fit_sle(num, None, y, config.sle_config(), lap=split.laplacian(),
                         xe0=text, feature_scale=model.feature_scale, start=start)
        model.params, model.xe_train = fitted.params, fitted.embedding
        model.lam, model.degenerate = fitted.lam, fitted.degenerate
        model.objective_trace = list(fitted.objective_trace)
        features = np.hstack([num, model.xe_train * model.feature_scale])
    elif method == "le":
        model.params = split.classifier(config, data)
    else:
        model.params = train(data, config.l2)
    model.fit_scores = predict_proba(model.params, features)
    model.train_auc = compute_auc(model.fit_scores, y)
    return model


def score(model: TrainedModel, split: Split) -> tuple[np.ndarray, int]:
    """Out-of-sample scores of the split's test records.

    Also returns how many test documents had no similar training document;
    their estimated embedding is the zero vector.
    """
    ds, rows, cfg = split.dataset, split.test, model.config
    if ds.n_numeric != model.n_numeric:
        raise SchemaError(
            f"expected {model.n_numeric} numeric features, got {ds.n_numeric}")
    num = (ds.numeric[rows] - model.numeric_mean) / model.numeric_std
    text, zero_rho = np.zeros((len(rows), 0)), 0
    if model.method in ("le", "sle"):
        text, zero_rho = estimate_batch(split.neighbours(cfg.knn_k, model), model.xe_train,
                                        cfg.knn_k, cfg.knn_weighted)
    elif model.method == "lsi" and split.joint_lsi:
        text = split.lsi_model(cfg).doc_embedding[rows]
    elif model.method == "lsi":
        text = vectorize([split.docs[i] for i in rows], model.lsi_vocabulary,
                         model.lsi_idf) @ model.lsi_components.T
    x = np.hstack([num, text * model.feature_scale])
    return predict_proba(model.params, x), zero_rho


def _fold_metrics(fold: int, scores_train, y_train, scores_test, y_test,
                  train_auc, zero_rho) -> FoldMetrics:
    """Threshold-dependent metrics use the MCC-best threshold of the TRAINING
    scores; picking it on the test fold would inflate the null (selection
    bias near +0.09 even at 400 test samples)."""
    auc = compute_auc(scores_test, y_test)
    threshold, _ = best_mcc_threshold(scores_train, y_train)
    counts = confusion_at(scores_test, y_test, threshold)
    mcc = compute_mcc(counts)
    sens, spec = sensitivity_specificity(counts)
    lr_plus, lr_minus = likelihood_ratios(sens, spec)
    return FoldMetrics(fold=fold, auc=auc, mcc=mcc, sensitivity=sens, specificity=spec,
                       lr_plus=lr_plus, lr_minus=lr_minus, threshold=threshold,
                       train_auc=train_auc, zero_rho=zero_rho)


def _fold_tail(fold_no: int, split: Split, methods: list[str], config: PipelineConfig,
               collect_predictions: bool) -> list[tuple[str, FoldMetrics, list]]:
    """Fit, score and measure every method on a prepared fold
    (``Split.prepare``): the metrics and, if collected, the test
    predictions of each method."""
    ds = split.dataset
    labels = ds.labels
    out = []
    for method in methods:
        model = fit(method, split, config)
        te_scores, zero_rho = score(model, split)
        metrics = _fold_metrics(fold_no, model.fit_scores, labels[split.train], te_scores,
                                labels[split.test], model.train_auc, zero_rho)
        preds = ([(fold_no, ds.ids[i], int(labels[i]), float(s))
                  for i, s in zip(split.test, te_scores)] if collect_predictions else [])
        out.append((method, metrics, preds))
    return out


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):    # no handle to the C library (Windows)
        return None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _returns_free_heap(entry):
    """Decorate a cross-validation entry point: once it has returned and
    its arrays are freed, hand the C heap's free pages back to the
    operating system.

    The C allocator keeps freed memory mapped for reuse.  Where the fold
    pipeline's freed arrays leave holes in the heap, and so how much freed
    memory stays resident, depends on how its two threads interleaved;
    trimming leaves the live data alone resident, the same from run to run.
    """
    @functools.wraps(entry)
    def trimmed(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        finally:
            trim = _malloc_trim()
            if trim is not None:
                trim(0)
    return trimmed


def check_methods(methods: list[str]) -> None:
    """Refuse an empty method list, or one with an unknown or repeated
    method, with a ``ValueError``."""
    if not methods:
        raise ValueError(f"no method given; expected some of {METHODS}")
    for method in methods:
        if method not in METHODS or methods.count(method) > 1:
            raise ValueError(f"method {method!r} is not in {METHODS} or listed more than once")


def check_widths(dims_list: list[int]) -> None:
    """Refuse an empty list of sweep widths, a repeated width, or one below
    1, with a ``ValueError``."""
    if not dims_list or len(set(dims_list)) != len(dims_list) or min(dims_list) < 1:
        raise ValueError(f"dims {dims_list} list no width, a width more than once, "
                         "or one below 1")


def _needs_similarity(methods: list[str]) -> bool:
    """Whether ``methods`` need the corpus matrix (``check_methods`` first)."""
    check_methods(methods)
    return any(m in ("le", "sle") for m in methods)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the
    machine's count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@_returns_free_heap
def run_methods(dataset: Dataset, methods: list[str], config: PipelineConfig,
                prepared: PreparedDataset | None = None,
                collect_predictions: bool = False) -> dict[str, EvalReport]:
    """Evaluate several methods over one shared fold split.

    Similarity matrices, normalized documents, and the per-fold unsupervised
    eigenmap, kNN selection and le classifier (sle's start) are computed
    once and shared wherever two methods need them: each fold's state lives
    on its ``Split``.  A ``prepared`` dataset whose sweep lists more than
    one width keeps the folds' Splits (``PreparedDataset.splits``), which
    this call makes at the sweep's first width and reuses at its later ones.
    Each method may be listed once.

    The folds run as a two-stage pipeline.  The calling thread prepares
    each fold in turn (``Split.prepare``), which builds every array sized
    by the corpus: the fold's training block, Laplacian and eigenmap, its
    kNN selection and its LSI factorization.  While it prepares fold k+1,
    one worker thread runs fold k's tail: ``fit``, ``score`` and the
    metrics of every method, whose arrays are sized by the fold's records
    times the features (lsi: times the vocabulary, for the test documents'
    TF-IDF rows).  At a later width of the sweep a fold's arrays exist
    already (``Split.frame`` is set), so the caller, with nothing to
    build, runs that fold's tail while the worker runs fold k's: the later
    widths' tails alternate between the two threads, and a last unpaired
    tail runs on the caller.  The eigensolve and the BLAS products release
    the GIL, so on two cores the stages overlap; on a process that may run
    on one CPU they cannot, and every tail runs on the calling thread.
    Each fold computes what it would alone, so the reports are bitwise
    those of one thread.  Results are collected in fold order, and so are
    errors: fold k's error wins over fold k+1's, and fold k+1's is raised
    once fold k's tail is collected.  Corpus-sized arrays stay on the
    calling thread because memory that a worker thread frees stays in its
    own allocator arena, out of reach of the caller's later allocations; a
    tail's smaller arrays may stay there, which at the later widths costs
    a second working set of the width (about 4% more peak memory on the
    m = 2000 sweep of dims 10 and 40).  Once the folds' arrays are freed,
    the heap's free pages go back to the operating system
    (``_returns_free_heap``).
    """
    # imported here: it imports logging, start-up time that commands which
    # run no cross-validation would pay for nothing
    from concurrent.futures import ThreadPoolExecutor

    needs_sim = _needs_similarity(methods)
    if prepared is None:
        prepared = prepare_dataset(dataset, config, needs_sim)
    if needs_sim and prepared.similarity is None:
        raise ValueError("prepared dataset lacks the similarity matrix")
    folds = stratified_folds(dataset.labels, config.folds, config.seed)
    all_idx = np.arange(dataset.m)
    echo = config.echo()
    per_method: dict[str, list[FoldMetrics]] = {m: [] for m in methods}
    per_method_preds: dict[str, list[tuple[int, str, int, float]]] = {m: [] for m in methods}
    overlap = _usable_cpus() > 1

    def collect(tail: list[tuple[str, FoldMetrics, list]]) -> None:
        for method, metrics, preds in tail:
            per_method[method].append(metrics)
            per_method_preds[method].extend(preds)

    with ThreadPoolExecutor(1, thread_name_prefix="slemap-fold") as worker:
        ready = None    # (fold number, split): prepared, its tail not yet run
        joint_lsi = None    # with lsi.joint_embed, the first fold's factorization
        for fold_no, test_idx in enumerate(folds):
            key = (config.folds, config.seed, fold_no)
            split = prepared.splits.get(key)
            if split is None:
                split = Split(dataset, np.setdiff1d(all_idx, test_idx), test_idx,
                              prepared.docs, prepared.widths or (config.dims,),
                              similarity=prepared.similarity if needs_sim else None,
                              joint_lsi=config.lsi_joint, lsi=joint_lsi)
                if len(prepared.widths) > 1:
                    prepared.splits[key] = split
            own = None      # this fold's tail, when the caller runs it beside the worker's
            if ready is not None and overlap and needs_sim:
                solved = split.frame is not None    # an earlier width built its arrays
                tail = worker.submit(_fold_tail, *ready, methods, config, collect_predictions)
                try:
                    split.prepare(config, methods)
                    if solved:
                        own = _fold_tail(fold_no, split, methods, config, collect_predictions)
                finally:
                    # the earlier fold's error, if any, is the one raised
                    collect(tail.result())
            else:
                if ready is not None:
                    collect(_fold_tail(*ready, methods, config, collect_predictions))
                    ready = None    # frees its matrices before this fold builds its own
                split.prepare(config, methods)
            if config.lsi_joint:
                joint_lsi = split.lsi
            if own is None:
                ready = (fold_no, split)
            else:
                collect(own)
                ready = None
        if ready is not None:
            collect(_fold_tail(*ready, methods, config, collect_predictions))

    return {m: EvalReport(method=m, folds=per_method[m], config_echo=echo, seed=config.seed,
                          predictions=per_method_preds[m] if collect_predictions else None)
            for m in methods}


def cross_validate(dataset: Dataset, method: str, config: PipelineConfig) -> EvalReport:
    return run_methods(dataset, [method], config)[method]


@_returns_free_heap
def compare_methods(dataset: Dataset, methods: list[str], dims_list: list[int],
                    config: PipelineConfig) -> list[dict]:
    """The (method, dims) sweep behind the `compare` command.

    Every width runs ``run_methods`` on the same folds, whose Splits the
    first width makes and the later ones reuse (``PreparedDataset.splits``):
    one eigensolve per fold, at the widest width, serves them all, and so
    does one LSI factorization per fold (one in all with
    ``lsi.joint_embed``).  Widths after the first build nothing, so their
    folds are fitted two at a time, on ``run_methods``' worker thread and
    on the calling thread, at the cost of a second working set of the
    width in the worker's allocator arena.  Each fold's kNN selection is
    made once, and with sle, each fold's Laplacian is built once as well.
    A width that cuts a degenerate eigenvalue cluster, or exceeds a fold's
    training size minus one, raises ``RankDeficient`` at that solve; so
    does a width beyond a fold's document or vocabulary count, at the fold's
    one LSI fit.  The methods and widths are checked before any corpus
    work (``check_methods``, ``check_widths``).
    """
    needs_sim = _needs_similarity(methods)
    check_widths(dims_list)
    prepared = prepare_dataset(dataset, config, needs_sim)
    prepared.widths = tuple(dims_list)
    rows = []
    for dims in dims_list:
        cfg = replace(config, dims=dims)
        reports = run_methods(dataset, methods, cfg, prepared=prepared)
        for method in methods:
            rep = reports[method]
            rows.append({"method": method, "dims": dims,
                         "auc": rep.mean_auc, "mcc": rep.mean_mcc})
    return rows
