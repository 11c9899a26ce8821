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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

    CSV_HEADER = ("fold,auc,mcc,sensitivity,specificity,lr_plus,lr_minus,"
                  "threshold,train_auc,zero_rho")

    def to_csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for f in self.folds:
            rows.append(",".join([
                str(f.fold), repr(f.auc), repr(f.mcc), repr(f.sensitivity),
                repr(f.specificity), repr(f.lr_plus), repr(f.lr_minus),
                repr(f.threshold), repr(f.train_auc), str(f.zero_rho)]))
        rows.append(",".join([
            "mean", repr(self.mean_auc), repr(self.mean_mcc),
            repr(self.mean_sensitivity), repr(self.mean_specificity),
            repr(self._mean("lr_plus")), repr(self._mean("lr_minus")),
            "", "", ""]))
        return rows

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

    ``similarity`` is the corpus matrix as ``SimilarityComputer.matrix``
    returns it, over the distinct documents; each fold restricts it to its
    training keys and gathers its test block from it, and no matrix over
    every record is made.  ``frames`` keeps each fold's training eigenmap
    between ``run_methods`` calls, so one eigensolve per fold serves the
    whole dims sweep of ``compare_methods``: the sweep lists its
    ``widths``, the fold's first solve runs at the widest of them and checks
    the degenerate-gap rule at each, and every width slices that frame.
    When the sweep lists more than one width and sle is among the methods,
    each fold's entry also carries the fold's Laplacian (its u x u block
    over distinct rows), so every fold builds it once; otherwise the entry
    holds the m_train x max(widths) frame alone.  The full
    eigendecomposition is never kept.  ``selections`` keeps each fold's kNN
    selection (``Split.selection``), so le and sle at every width score the
    fold's test records from one selection.  ``lsi`` keeps each fold's LSI
    factorization (``Split.lsi``) by the eigenmap's rule: one TF-IDF + SVD
    at the widest width, of which every width takes the leading factors.
    An entry holds the vocabulary, the idf and the widest factors; the
    TF-IDF matrix is not kept.
    """

    dataset: Dataset
    docs: list[Document]
    similarity: SimilarityMatrix | None
    widths: tuple[int, ...] = ()
    # (folds, seed, fold number) -> (Split.frame, Split.lap or None) of that fold
    frames: dict[tuple[int, int, int], tuple] = field(default_factory=dict)
    # (folds, seed, fold number) -> Split.selection of that fold
    selections: dict[tuple[int, int, int], tuple] = field(default_factory=dict)
    # (folds, seed, fold number) -> Split.lsi of that fold
    lsi: dict[tuple[int, int, int], LsiModel] = field(default_factory=dict)


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
    sim = similarity_computer(config).matrix(docs) if need_similarity else None
    return PreparedDataset(dataset=dataset, docs=docs, similarity=sim)


@dataclass
class TrainedModel:
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

    Documents, similarities, the Laplacian, the training eigenmap, the
    test records' kNN selection, the LSI factorization and the classifier
    that le fits and sle starts from are made on first use and kept, so
    every method fitted on a split shares them.  Cross-validation supplies
    the documents, the corpus ``SimilarityMatrix`` (the fold's training
    matrix is its restriction to the training records, still over distinct
    documents, and the test block, the only block kNN scores, is gathered
    from its keys), the sweep's ``widths`` and the fold's ``frame``, ``lap``,
    ``selection`` and ``lsi`` from an earlier width, so one eigensolve, one
    Laplacian, one selection and one LSI factorization per fold serve the
    whole dims sweep.
    A split without them builds the training matrix with one
    SimilarityComputer and scores test documents by ``rows`` against the
    model's training documents, with the model's computer
    (``TrainedModel.corpus``).  A split whose test rows are its training
    rows gathers that block from the training matrix's keys instead: its
    diagonal is the block's own entry of each key, which is what ``rows``
    gives a record against itself (1, or 0 for a blank record).  A block
    gathered from keys has one row per distinct test key, since records with
    one key have equal rows and so equal kNN selections.
    """

    dataset: Dataset
    train: np.ndarray
    test: np.ndarray
    docs: list[Document] | None = None
    similarity: SimilarityMatrix | None = None   # over every record of the dataset
    joint_lsi: bool = False           # LSI factorizes the test documents too
    widths: tuple[int, ...] = ()      # every dims the one eigensolve must serve
    # (widths checked, eigenmap at the widest of them, feature scale)
    frame: tuple[tuple[int, ...], np.ndarray, float] | None = None
    lap: Laplacian | None = None
    # (k, the test rows' select_neighbours at k)
    selection: tuple[int, tuple[np.ndarray, np.ndarray]] | None = None
    # TF-IDF + SVD at the widest width of the training documents (every
    # document with joint_lsi)
    lsi: LsiModel | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def documents(self, config: PipelineConfig, rows) -> list[Document]:
        if self.docs is None:
            self.docs = normalize_corpus(self.dataset.ids, self.dataset.texts, config)
        return [self.docs[i] for i in rows]

    def computer(self, config: PipelineConfig) -> SimilarityComputer:
        if "computer" not in self._cache:
            self._cache["computer"] = similarity_computer(config)
        return self._cache["computer"]

    def train_similarity(self, config: PipelineConfig) -> SimilarityMatrix:
        if "train" not in self._cache:
            self._cache["train"] = (
                self.similarity.restrict(self.train) if self.similarity is not None
                else self.computer(config).matrix(self.documents(config, self.train)))
        return self._cache["train"]

    def test_similarity(self, model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
        """The test records' similarities to the training records: distinct
        rows, and the row of each test record."""
        if "test" not in self._cache:
            if self.similarity is not None:
                self._cache["test"] = _key_rows(self.similarity, self.test, self.train)
            elif self.train.size and np.array_equal(self.test, self.train):
                s = self.train_similarity(model.config)
                everyone = np.arange(s.m)
                self._cache["test"] = _key_rows(s, everyone, everyone)
            else:
                corpus, computer = model.corpus()
                self._cache["test"] = (computer.rows(self.documents(model.config, self.test),
                                                     corpus), np.arange(self.test.size))
        return self._cache["test"]

    def neighbours(self, model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
        """The test records' ``knn_k`` most similar training records and
        their similarities, selected once per k and distinct row."""
        k = model.config.knn_k
        if self.selection is None or self.selection[0] != k:
            rows, row_of = self.test_similarity(model)
            top, near = select_neighbours(rows, k)
            self.selection = (k, (top[row_of], near[row_of]))
        return self.selection[1]

    def laplacian(self, config: PipelineConfig) -> Laplacian:
        if self.lap is None:
            self.lap = build_laplacian(self.train_similarity(config))
        return self.lap

    def eigenmap(self, config: PipelineConfig) -> tuple[np.ndarray, float]:
        """Eigenmap at ``config.dims`` and feature scale of the training similarities.

        One solve at the widest of ``widths`` and ``config.dims`` serves every
        width whose degenerate-gap rule it checked.  Each width gets a
        C-contiguous copy of the frame's leading columns, bitwise the array a
        solve at that width returns.
        """
        if self.frame is None or config.dims not in self.frame[0]:
            lap = self.laplacian(config)
            widths = tuple(sorted({config.dims, *self.widths}))
            # the scale puts the D-orthonormal eigenvector columns on the same
            # element scale as standardized numeric features
            self.frame = (widths, solve_eigenmap(lap, widths),
                          math.sqrt(float(lap.degrees.sum())))
        _, frame, scale = self.frame
        return frame[:, :config.dims].copy(), scale

    def lsi_model(self, config: PipelineConfig) -> LsiModel:
        """TF-IDF + truncated SVD at ``config.dims`` of the training
        documents, or with ``joint_lsi`` of every document in the dataset.

        One fit at the widest of ``widths`` and ``config.dims`` serves every
        width: each width gets the leading factors, bitwise what a fit at
        that width returns (``LsiModel.leading``).
        """
        if self.lsi is None or self.lsi.dims < config.dims:
            rows = range(self.dataset.m) if self.joint_lsi else self.train
            self.lsi = fit_lsi(build_tfidf(self.documents(config, rows)),
                               max((config.dims, *self.widths)))
        return self.lsi.leading(config.dims)

    def classifier(self, config: PipelineConfig, data: LabeledFeatures) -> LearnerParams:
        """The classifier fitted from zero weights on ``data``, the numeric
        features beside the eigenmap at ``config.dims``: le's classifier and
        sle's start, fitted once for whichever method asks first."""
        key = ("classifier", config.dims)
        if key not in self._cache:
            self._cache[key] = train(data, config.l2)
        return self._cache[key]


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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
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
        fitted = fit_sle(num, None, y, config.sle_config(), lap=split.laplacian(config),
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
        text, zero_rho = estimate_batch(split.neighbours(model), model.xe_train,
                                        cfg.knn_k, cfg.knn_weighted)
    elif model.method == "lsi" and split.joint_lsi:
        text = split.lsi_model(cfg).doc_embedding[rows]
    elif model.method == "lsi":
        text = vectorize(split.documents(cfg, rows), model.lsi_vocabulary,
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


def run_methods(dataset: Dataset, methods: list[str], config: PipelineConfig,
                prepared: PreparedDataset | None = None,
                collect_predictions: bool = False) -> dict[str, EvalReport]:
    """Evaluate several methods over one shared fold split.

    Similarity matrices, normalized documents, and the per-fold unsupervised
    eigenmap, kNN selection and le classifier (sle's start) are computed
    once and shared wherever two methods need them; a ``prepared`` dataset
    also keeps each fold's eigenmap, selection and LSI factorization for
    later calls at other dims, and with sle and more than one width in its
    sweep, each fold's Laplacian too.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    needs_sim = any(m in ("le", "sle") for m in methods)
    if prepared is None:
        prepared = prepare_dataset(dataset, config, needs_sim)
    if needs_sim and prepared.similarity is None:
        raise ValueError("prepared dataset lacks the similarity matrix")
    keep_lap = "sle" in methods and len(prepared.widths) > 1
    labels = dataset.labels
    folds = stratified_folds(labels, config.folds, config.seed)
    all_idx = np.arange(dataset.m)
    echo = config.echo()
    per_method: dict[str, list[FoldMetrics]] = {m: [] for m in methods}
    per_method_preds: dict[str, list[tuple[int, str, int, float]]] = {m: [] for m in methods}

    for fold_no, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        key = (config.folds, config.seed, fold_no)
        frame, lap = prepared.frames.get(key, (None, None))
        split = Split(dataset, train_idx, test_idx, docs=prepared.docs,
                      similarity=prepared.similarity if needs_sim else None,
                      joint_lsi=config.lsi_joint, widths=prepared.widths,
                      frame=frame, lap=lap, selection=prepared.selections.get(key),
                      lsi=prepared.lsi.get(key))
        for method in methods:
            model = fit(method, split, config)
            te_scores, zero_rho = score(model, split)
            per_method[method].append(
                _fold_metrics(fold_no, model.fit_scores, labels[train_idx], te_scores,
                              labels[test_idx], model.train_auc, zero_rho))
            if collect_predictions:
                per_method_preds[method].extend(
                    (fold_no, dataset.ids[i], int(labels[i]), float(s))
                    for i, s in zip(test_idx, te_scores))
        if split.frame is not None:
            prepared.frames[key] = (split.frame, split.lap if keep_lap else None)
        if split.selection is not None:
            prepared.selections[key] = split.selection
        if split.lsi is not None:
            prepared.lsi[key] = split.lsi
        del split   # frees the fold's matrices before the next fold slices its own

    return {m: EvalReport(method=m, folds=per_method[m], config_echo=echo, seed=config.seed,
                          predictions=per_method_preds[m] if collect_predictions else None)
            for m in methods}


def cross_validate(dataset: Dataset, method: str, config: PipelineConfig) -> EvalReport:
    return run_methods(dataset, [method], config)[method]


def compare_methods(dataset: Dataset, methods: list[str], dims_list: list[int],
                    config: PipelineConfig) -> list[dict]:
    """The (method, dims) sweep behind the `compare` command.

    Every width runs ``run_methods`` on the same folds, and one eigensolve
    per fold, at the widest width, serves them all (``PreparedDataset``);
    so does one LSI factorization per fold.  Each fold's kNN selection is
    made once, and with sle, each fold's Laplacian is built once as well.
    A width that cuts a degenerate eigenvalue cluster, or exceeds a fold's
    training size minus one, raises ``RankDeficient`` at that solve; so
    does a width beyond a fold's document or vocabulary count, at the fold's
    one LSI fit.
    """
    needs_sim = any(m in ("le", "sle") for m in methods)
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
