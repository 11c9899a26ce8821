"""Training, prediction, and plain-text model persistence.

A model directory holds only CSV/JSON/text files so it can be audited and
read from any language: model.json (parameters and method metadata),
config.txt (the resolved configuration echo), plus per-method artifacts
(training embedding, training corpus, LSI factors, objective trace) and
train_scores.csv with prediction-path scores for round-trip checks.
All floats are written with shortest-round-trip repr, so save/load/predict
reproduces in-memory predictions exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .dataset import Dataset, write_csv
from .errors import ParseError
from .evaluation import (METHODS, Split, TrainedModel, check_methods, fit, prepare_dataset,
                         score)
from .logistic import LearnerParams

# perfbench/tracing.py wraps these names here; evaluation.fit/score make the calls
from .estimator import estimate_batch  # noqa: F401
from .laplacian import build_laplacian, solve_eigenmap  # noqa: F401
from .logistic import train  # noqa: F401
from .lsi import build_tfidf, fit_lsi  # noqa: F401
from .sle import fit_sle  # noqa: F401
from .text import normalize  # noqa: F401


def train_model(dataset: Dataset, method: str, config: PipelineConfig) -> TrainedModel:
    """Fit one method on a full dataset, as a CV fold fits it on its training records.

    ``prepare_dataset`` builds the corpus, as for cross-validation, and the
    split serves the one width ``config.dims``.  le and sle train on the
    corpus matrix itself and keep its documents and computer to score new
    records against (``TrainedModel.corpus``).  ``train_scores`` are the
    training records' prediction-path scores, gathered from the corpus
    matrix (``Split.neighbours``): the floats that ``predict_model`` gives
    for the same records after a save and load.
    """
    check_methods([method])     # before the corpus is normalized
    prepared = prepare_dataset(dataset, config, method in ("le", "sle"))
    everything = np.arange(dataset.m)
    split = Split(dataset, everything, everything, prepared.docs, (config.dims,),
                  similarity=prepared.similarity)
    model = fit(method, split, config)
    if prepared.computer is not None:
        model.keep_corpus(prepared.docs, prepared.computer)
    model.train_scores = score(model, split)[0]
    return model


def predict_model(model: TrainedModel, dataset: Dataset) -> np.ndarray:
    """Scores for new records through the out-of-sample path."""
    docs = prepare_dataset(dataset, model.config, False).docs
    return score(model, Split(dataset, np.arange(0), np.arange(dataset.m), docs))[0]


# ---- persistence -------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    """The rows of a CSV file, without its header."""
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


def save_model(model: TrainedModel, model_dir: str | Path) -> None:
    d = Path(model_dir)
    d.mkdir(parents=True, exist_ok=True)
    meta = {
        "method": model.method,
        "params": {
            "weights": _reprs(model.params.weights),
            "bias": repr(float(model.params.bias)),
            "l2": repr(float(model.params.l2)),
        },
        "numeric_mean": _reprs(model.numeric_mean),
        "numeric_std": _reprs(model.numeric_std),
        "feature_scale": repr(float(model.feature_scale)),
        "lambda": None if model.lam is None else repr(float(model.lam)),
        "degenerate": model.degenerate,
        "train_auc": repr(float(model.train_auc)),
    }
    (d / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    (d / "config.txt").write_text(model.config.echo(), encoding="utf-8")
    if model.method in ("le", "sle"):
        dims = model.xe_train.shape[1]
        write_csv(d / "xe_train.csv", ["id"] + [f"e{j + 1}" for j in range(dims)],
                  ([i] + _reprs(row) for i, row in zip(model.train_ids, model.xe_train)))
        write_csv(d / "train_corpus.csv", ["id", "text"],
                  zip(model.train_ids, model.train_texts))
    if model.method == "sle":
        write_csv(d / "objective_trace.csv", ["iteration", "joint_objective"],
                  enumerate(_reprs(model.objective_trace)))
    if model.method == "lsi":
        write_csv(d / "lsi_vocabulary.csv", ["token", "idf"],
                  zip(model.lsi_vocabulary, _reprs(model.lsi_idf)))
        write_csv(d / "lsi_components.csv",
                  [f"v{j + 1}" for j in range(model.lsi_components.shape[1])],
                  (_reprs(row) for row in model.lsi_components))
    if model.train_scores is not None:
        write_csv(d / "train_scores.csv", ["id", "score"],
                  zip(model.train_ids, _reprs(model.train_scores)))


def load_model(model_dir: str | Path) -> TrainedModel:
    """A saved model; a damaged file in the directory is a ``ParseError``
    naming it.  The ``attempts`` entry of older model.json files is ignored."""
    d = Path(model_dir)
    config = PipelineConfig.load(d / "config.txt")
    path = d / "model.json"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        if meta["method"] not in METHODS:
            raise ValueError(f"unknown method {meta['method']!r}")
        params = LearnerParams(
            weights=np.array([float(w) for w in meta["params"]["weights"]]),
            bias=float(meta["params"]["bias"]),
            l2=float(meta["params"]["l2"]),
        )
        model = TrainedModel(
            method=meta["method"], config=config, params=params,
            numeric_mean=np.array([float(v) for v in meta["numeric_mean"]]),
            numeric_std=np.array([float(v) for v in meta["numeric_std"]]),
            feature_scale=float(meta["feature_scale"]),
            lam=None if meta["lambda"] is None else float(meta["lambda"]),
            degenerate=bool(meta["degenerate"]),
            train_auc=float(meta["train_auc"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        # JSONDecodeError is a ValueError; a missing key, a value of the
        # wrong type or an unparsable number all mean a damaged file
        raise ParseError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    if model.numeric_std.shape != model.numeric_mean.shape:
        raise ParseError(f"{path}: {model.numeric_std.shape[0]} numeric_std entries for "
                         f"{model.numeric_mean.shape[0]} numeric_mean entries")
    width = 0   # embedding columns the classifier weights must cover
    try:
        if model.method in ("le", "sle"):
            path = d / "xe_train.csv"
            rows = _read_csv(path)
            model.train_ids = [r[0] for r in rows]
            model.xe_train = np.array([[float(v) for v in r[1:]] for r in rows])
            width = model.xe_train.shape[1]
            path = d / "train_corpus.csv"
            corpus = _read_csv(path)
            if [r[0] for r in corpus] != model.train_ids:
                raise ParseError(f"{path}: its ids are not those of xe_train.csv, in order")
            model.train_texts = [r[1] for r in corpus]
        path = d / "objective_trace.csv"
        if model.method == "sle" and path.exists():
            model.objective_trace = [float(r[1]) for r in _read_csv(path)]
        if model.method == "lsi":
            path = d / "lsi_vocabulary.csv"
            vocab = _read_csv(path)
            model.lsi_vocabulary = tuple(r[0] for r in vocab)
            model.lsi_idf = np.array([float(r[1]) for r in vocab])
            path = d / "lsi_components.csv"
            model.lsi_components = np.array([[float(v) for v in r] for r in _read_csv(path)])
            width = model.lsi_components.shape[0]
            if model.lsi_components.shape[1] != len(vocab):
                raise ParseError(f"{d / 'lsi_vocabulary.csv'}: {len(vocab)} tokens for "
                                 f"{model.lsi_components.shape[1]} columns in {path.name}")
        path = d / "train_scores.csv"
        if path.exists():
            rows = _read_csv(path)
            model.train_scores = np.array([float(r[1]) for r in rows])
            if not model.train_ids:
                model.train_ids = [r[0] for r in rows]
    except (IndexError, ValueError) as exc:
        # a short row, an unparsable number or rows of unequal length
        raise ParseError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    if model.params.weights.shape != (model.n_numeric + width,):
        raise ParseError(
            f"{d / 'model.json'}: {model.params.weights.shape[0]} classifier weights for "
            f"{model.n_numeric} numeric features and {width} embedding columns")
    return model
